"""Tests of the benchmark's own code (not of the engine).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import checks, harness, inputs, spec, workloads  # noqa: E402

RUN_PY = os.path.join(ROOT, "perfbench", "run.py")

FROZEN_END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "index_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
}


def test_metric_names_and_units_are_stable():
    assert spec.END_TO_END_UNITS == FROZEN_END_TO_END
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == FROZEN_END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert len(spec.PER_LAYER_UNITS) == len(spec.PER_LAYER)  # names are unique
    # every layer's error counter is there
    for layer in ("build", "codecs", "query_stage", "wand", "pipelines.query",
                  "maintain", "manifest"):
        assert spec.PER_LAYER_UNITS[f"{layer}.errors"] == "count"


TINY = inputs.Sizes(n_docs=40, n_queries=20, delta_docs=10, n_deltas=2, deletes_per_delta=5)


def _fingerprint(inp: inputs.Inputs) -> tuple:
    import pyarrow.parquet as pq

    pages = pq.read_table(inp.pages_dir).sort_by("url")
    deltas = tuple(pq.read_table(d).sort_by("url")["html"].to_pylist() for d in inp.delta_dirs)
    return (pages["html"].to_pylist(), inp.queries["text"].to_pylist(), deltas,
            tuple(map(tuple, inp.delete_urls)))


def test_seed_changes_the_inputs(tmp_path):
    a = inputs.make_inputs(str(tmp_path / "a"), "refresh", 1, TINY)
    b = inputs.make_inputs(str(tmp_path / "b"), "refresh", 2, TINY)
    again = inputs.make_inputs(str(tmp_path / "c"), "refresh", 1, TINY)
    assert _fingerprint(a) == _fingerprint(again)
    fa, fb = _fingerprint(a), _fingerprint(b)
    for part_a, part_b in zip(fa, fb):
        assert part_a != part_b
    # deltas only add new urls; deletes only name live base urls
    import pyarrow.parquet as pq

    base = set(pq.read_table(a.pages_dir, columns=["url"])["url"].to_pylist())
    for d in a.delta_dirs:
        assert not base & set(pq.read_table(d, columns=["url"])["url"].to_pylist())
    gone = [u for batch in a.delete_urls for u in batch]
    assert len(gone) == len(set(gone)) and set(gone) <= base


class _RunStub:
    def __init__(self, ledger):
        self.ledger = ledger
        self.request_queries = 16


def test_corrupted_answer_is_caught_and_counted(tmp_path):
    log_len = 16
    expected = {p: ((1, 100 + p, 2.5), (2, 200 + p, 1.25)) for p in range(0, log_len, 8)}
    q = 16

    def frame(first_qid, swap=False):
        rows = []
        for qid in range(first_qid, first_qid + q):
            for rank, doc, score in expected.get(qid % log_len, ()):
                rows.append((qid, rank, doc, score))
        df = pd.DataFrame(rows, columns=["query_id", "rank", "doc_id", "score"])
        if swap:  # one doc id swapped for another document's
            df.loc[0, "doc_id"] = df.loc[1, "doc_id"]
        return df

    ledger = harness.Ledger(str(tmp_path / "progress.json"))
    for _ in range(3):  # three requests answered
        ledger.run(lambda: None)
    done = [(0, frame(0)), (16, frame(16, swap=True)), (32, frame(32))]
    workloads._check_requests(_RunStub(ledger), done, expected, log_len)
    assert ledger.totals() == (3, 1)
    # a missing answer is wrong too
    assert checks.count_wrong_request({}, 0, q, expected, log_len) == 2
    assert checks.count_wrong_request(checks.answers_by_query(frame(0)), 0, q,
                                      expected, log_len) == 0


def _no_tagged_processes(work: str) -> bool:
    deadline = time.monotonic() + 10
    while harness.tagged_processes(work):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.2)
    return True


def test_run_over_its_limit_reports_failure_and_stops():
    t0 = time.monotonic()
    p = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "build", "--seed", "1", "--seconds", "10",
         "--trace", "0", "--limit", "6"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert time.monotonic() - t0 < 60
    assert p.returncode != 0
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert set(result["metrics"]) == set(FROZEN_END_TO_END)
    assert _no_tagged_processes(os.path.join(ROOT, ".pbw"))


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""


@pytest.mark.parametrize("values,q,want", [([], 0.5, 0.0), ([3, 1, 2], 0.5, 2),
                                           (list(range(1, 101)), 0.9, 90)])
def test_percentile_is_nearest_rank(values, q, want):
    from perfbench.report import percentile

    assert percentile(values, q) == want
