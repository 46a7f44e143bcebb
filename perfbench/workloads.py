"""The three workloads, driven through the engine's public API.

Each workload function receives a ``Run`` (inputs, ledger, sampler, work
dir, run length) and fills in its timings. Set-up ends where the timed
phase begins; answer checks happen outside every timed interval.

- build:   fresh ``build_index`` runs over one corpus.
- serve:   one closed-loop client against the standing pool
           (``start_serving`` / ``serve_queries``), then ``query_index``
           pipeline calls.
- refresh: rounds of ``add_documents`` + ``delete_documents``, then one
           ``compact_index``, each followed by a pass of requests.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from . import checks
from .inputs import Inputs, dir_bytes, request_table

# index layout of every build (P partitions, S term segments, salts)
BUILD_CFG = dict(num_partitions=8, num_segments=4, n_salts=2)
# queries per serve_queries request: serve sends the 64 of the sizing probe
# (dispatch no longer dwarfs scoring); refresh sends 16, so that one pass
# over its log gives 100 latency samples
SERVE_REQUEST_QUERIES = 64
REFRESH_REQUEST_QUERIES = 16
PIPELINE_CALLS = 2  # query_index(...).count() calls in serve
CHECK_EVERY = 8  # answers of log positions p % CHECK_EVERY == 0 are checked
COMPACT_CHECK_REQUESTS = 16  # requests after the final compaction
BUILDS_PER_10S = 3  # build: timed builds per 10 s of --seconds
CYCLES_PER_10S = 2  # refresh: write cycles per 10 s of --seconds


@dataclass
class Run:
    """One workload run: its inputs and plumbing, and what it measured."""

    work: str
    inputs: Inputs
    ledger: object
    sampler: object
    seconds: int
    rec: object = None  # this process's span recorder (traced run)
    request_queries: int = SERVE_REQUEST_QUERIES
    t_start: float = 0.0  # perf_counter at session start
    setup_s: float = 0.0
    work_done: float = 0.0  # docs / queries the throughput counts
    work_wall_s: float = 0.0
    op_ms: list = field(default_factory=list)
    index_bytes_ratio: float = 0.0
    index_dir: str = ""
    # traced-run material
    windows: dict = field(default_factory=dict)  # kind -> [(t0_ns, t1_ns)]
    builds: list = field(default_factory=list)  # {wall_s, docs_busy, seg_busy, bytes}
    build_input_bytes: int = 0
    pipeline_s: list = field(default_factory=list)
    fresh_s: list = field(default_factory=list)
    shards_after_write: list = field(default_factory=list)
    queries_timed: int = 0  # queries answered in the "requests" windows

    def window(self, kind: str, t0: int, t1: int) -> None:
        self.windows.setdefault(kind, []).append((t0, t1))

    def end_setup(self) -> None:
        self.setup_s = time.perf_counter() - self.t_start

    @contextmanager
    def untraced(self):
        """Calls the benchmark makes for itself (answer checks, kernels)
        leave no spans."""
        if self.rec is not None:
            self.rec.enabled = False
        try:
            yield
        finally:
            if self.rec is not None:
                self.rec.enabled = True


# ---------------------------------------------------------------- helpers


def _api():
    """Engine modules, looked up at call time so that the traced run's
    wrappers (installed by patching these modules) are the ones called."""
    from aarhus_ray.pipelines import build, maintain, query

    return build, maintain, query


def _collect_garbage() -> None:
    """Run this process's cyclic garbage collector before a pipeline op.

    A finished Ray Data pipeline's actor pool (ExtractUDF in build_index,
    UrlResolver in query_index) stays alive, holding its CPU slots, until
    the client's cyclic GC frees the handles; a pipeline started before
    that stalls ~20 s until the raylet asks the client to collect (see
    NOTES.md). Collecting at a fixed point keeps the numbers independent
    of when the collector happens to run."""
    gc.collect()


def _segments_digest(index_dir: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(index_dir, "segments", "seg=*", "*"))):
        h.update(os.path.relpath(path, index_dir).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _stage_busy(index_dir: str, skip_rows: int = 0) -> tuple[float, float, int]:
    """(docs-stage wall_s sum, segment-stage wall_s sum, manifest rows) of
    the manifest rows after the first ``skip_rows``."""
    path = os.path.join(index_dir, "metrics.parquet")
    if not os.path.exists(path):
        return 0.0, 0.0, skip_rows
    rows = pq.read_table(path, columns=["stage", "wall_s"]).to_pylist()
    new = rows[skip_rows:]
    docs = sum(r["wall_s"] for r in new if r["stage"] == "docs")
    seg = sum(r["wall_s"] for r in new if r["stage"] == "segment")
    return docs, seg, len(rows)


def _seg_count(index_dir: str) -> int:
    return len(glob.glob(os.path.join(index_dir, "segments", "seg=*")))


def _sampled_positions(n: int) -> list[int]:
    return [p for p in range(n) if p % CHECK_EVERY == 0]


def _timed_build(run: Run, pages: str, out: str, input_bytes: int, expect_docs: int):
    """One build op; records its stage rows and bytes written. Returns the
    stats dict, or None when it raised or indexed the wrong doc count."""
    build, _, _ = _api()
    _collect_garbage()
    marker = run.sampler.write_marker()
    ok, stats, dt = run.ledger.run(build.build_index, pages, out, **BUILD_CFG)
    if not ok:
        return None
    docs_busy, seg_busy, _ = _stage_busy(out)
    run.builds.append(dict(wall_s=dt, docs=stats["n_docs"], docs_busy=docs_busy,
                           seg_busy=seg_busy, bytes=run.sampler.bytes_written_since(marker)))
    run.build_input_bytes += input_bytes
    if stats["n_docs"] != expect_docs:
        run.ledger.fail(f"n_docs {stats['n_docs']} != {expect_docs} distinct urls")
        return None
    return stats


def _request(run: Run, texts: list[str], first_qid: int):
    """One serve_queries request; returns (ok, answer frame, seconds)."""
    _, _, query = _api()
    table = request_table(texts, first_qid, run.request_queries)
    return run.ledger.run(query.serve_queries, run.index_dir, table)


def _check_requests(run: Run, done: list, expected: dict, log_len: int) -> None:
    """``done``: [(first_qid, frame)] of requests that returned."""
    for first_qid, frame in done:
        wrong = checks.count_wrong_request(checks.answers_by_query(frame), first_qid,
                                           run.request_queries, expected, log_len)
        if wrong:
            run.ledger.fail(f"request {first_qid}: {wrong} answers differ from brute")


# ---------------------------------------------------------------- workloads


def run_build(run: Run) -> None:
    """Set-up: session + one warm-up build (it pays for worker spawn). Timed:
    3 fresh builds of the same corpus per 10 s of ``seconds``; each must
    index every distinct url, write segments byte-identical to the warm-up
    build's and answer the probe queries exactly as brute force did on the
    warm-up index."""
    inp = run.inputs
    n_builds = max(1, run.seconds * BUILDS_PER_10S // 10)
    run.ledger.plan(1 + n_builds)
    idx = os.path.join(run.work, "index")
    run.index_dir = idx
    build, _, _ = _api()
    _collect_garbage()
    ok, stats, _ = run.ledger.run(build.build_index, inp.pages_dir, idx, **BUILD_CFG)
    run.end_setup()
    if not ok:
        return  # the timed builds stay planned, so they count as failed
    texts = inp.queries["text"].to_pylist()
    positions = list(range(len(texts)))
    with run.untraced():
        expected = checks.brute_answers(idx, texts, positions)
    digest = _segments_digest(idx)
    if stats["n_docs"] != inp.distinct_urls:
        run.ledger.fail(f"warm-up n_docs {stats['n_docs']} != {inp.distinct_urls}")

    from aarhus_ray.stages.query_stage import QueryScorer

    for _ in range(n_builds):
        shutil.rmtree(idx, ignore_errors=True)
        stats = _timed_build(run, inp.pages_dir, idx, inp.pages_bytes, inp.distinct_urls)
        if stats is None:
            continue
        dt = run.builds[-1]["wall_s"]
        run.work_done += stats["n_docs"]
        run.work_wall_s += dt
        run.op_ms.append(dt * 1e3)
        if _segments_digest(idx) != digest:
            run.ledger.fail("segments differ from the warm-up build's")
            continue
        probe = pa.table({"query_id": pa.array(positions, pa.int64()),
                          "text": pa.array(texts, pa.string())})
        with run.untraced():
            got = checks.answers_by_query(QueryScorer(idx, k=10, method="wand")(probe))
        wrong = sum(1 for p in positions if got.get(p, ()) != expected[p])
        if wrong:
            run.ledger.fail(f"{wrong} probe answers differ from brute")
    run.index_bytes_ratio = dir_bytes(idx) / inp.pages_bytes


def run_serve(run: Run) -> None:
    """Set-up: session + base build + ``start_serving`` + one untimed pass
    over the query log (it fills the actors' term caches). Timed: one client,
    closed loop, one request of 64 queries in flight, for ``seconds``; then
    ``query_index(...).count()`` calls over the checked sample."""
    inp = run.inputs
    _, _, query = _api()
    idx = os.path.join(run.work, "index")
    run.index_dir = idx
    texts = inp.queries["text"].to_pylist()
    n = len(texts)
    n_warm = -(-n // run.request_queries)
    run.ledger.plan(1 + n_warm + 1 + PIPELINE_CALLS)
    if _timed_build(run, inp.pages_dir, idx, inp.pages_bytes, inp.distinct_urls) is None:
        run.end_setup()
        return
    query.start_serving(idx)
    warm = []
    for first in range(0, n, run.request_queries):
        ok, frame, _ = _request(run, texts, first)
        if ok:
            warm.append((first, frame))
    run.end_setup()

    positions = _sampled_positions(n)
    with run.untraced():
        expected = checks.brute_answers(idx, texts, positions)
    _check_requests(run, warm, expected, n)

    done = []
    qid = n  # query ids stay unique across the run (they carry request ids)
    t_loop = time.perf_counter_ns()
    t_end = time.perf_counter() + run.seconds
    while time.perf_counter() < t_end:
        run.ledger.plan(1 + PIPELINE_CALLS)
        ok, frame, dt = _request(run, texts, qid)
        if ok:
            done.append((qid, frame))
            run.op_ms.append(dt * 1e3)
            run.work_done += run.request_queries
        qid += run.request_queries
    t_loop_end = time.perf_counter_ns()
    run.work_wall_s = (t_loop_end - t_loop) / 1e9
    run.window("requests", t_loop, t_loop_end)
    run.queries_timed = len(done) * run.request_queries
    _check_requests(run, done, expected, n)

    # pipeline calls: the per-call Dataset path every query_index op shares
    batch = pa.table({"query_id": pa.array(positions, pa.int64()),
                      "text": pa.array([texts[p] for p in positions], pa.string())})
    want_rows = sum(len(expected[p]) for p in positions)
    for _ in range(PIPELINE_CALLS):
        _collect_garbage()
        t0 = time.perf_counter_ns()
        ok, rows, dt = run.ledger.run(lambda: query.query_index(idx, batch).count())
        run.window("pipeline", t0, time.perf_counter_ns())
        if ok:
            run.pipeline_s.append(dt)
            if rows != want_rows:
                run.ledger.fail(f"query_index returned {rows} rows, brute {want_rows}")
    run.index_bytes_ratio = dir_bytes(idx) / inp.pages_bytes


def run_refresh(run: Run) -> None:
    """Set-up: session + base build. Timed: 2 cycles per 10 s of ``seconds``,
    each add_documents (a new delta) + delete_documents (earlier urls), then
    one pass over the query log: the first request (it spins up a fresh pool
    over the new index version) and a burst of the rest, all on caches the
    write left cold; then a last round: compact_index, its first
    request and 16 more. Burst latencies are the op latencies; the last
    round's are left out, since compaction drops the tombstones and puts
    reads back on the fast path (mixing both paths in one sample would put
    its median between two modes). Every round's requests are checked
    against brute force over that round's index state."""
    inp = run.inputs
    run.request_queries = REFRESH_REQUEST_QUERIES
    _, maintain, _ = _api()
    idx = os.path.join(run.work, "index")
    run.index_dir = idx
    n_cycles = max(1, min(run.seconds * CYCLES_PER_10S // 10, len(inp.delta_dirs)))
    texts = inp.queries["text"].to_pylist()
    n = len(texts)
    burst = n // run.request_queries - 1
    rounds = [[("add", inp.delta_dirs[c], c), ("delete", inp.delete_urls[c], c)]
              for c in range(n_cycles)] + [[("compact", None, n_cycles)]]
    run.ledger.plan(1 + sum(len(w) + 1 for w in rounds)
                    + n_cycles * burst + COMPACT_CHECK_REQUESTS)
    if _timed_build(run, inp.pages_dir, idx, inp.pages_bytes, inp.distinct_urls) is None:
        run.end_setup()
        return
    run.end_setup()
    run.builds.clear()  # the per-layer build numbers cover the delta builds
    run.build_input_bytes = 0

    positions = _sampled_positions(n)
    live_docs = inp.distinct_urls
    n_docs = inp.distinct_urls
    input_bytes = inp.pages_bytes
    qid = 0
    for writes in rounds:
        for kind, arg, c in writes:
            rows_before = _stage_busy(idx)[2]
            _collect_garbage()
            marker = run.sampler.write_marker()
            t0 = time.perf_counter_ns()
            if kind == "add":
                ok, stats, dt = run.ledger.run(maintain.add_documents, idx, arg,
                                               num_partitions=BUILD_CFG["num_partitions"])
            elif kind == "delete":
                ok, stats, dt = run.ledger.run(maintain.delete_documents, idx, urls=arg)
            else:
                ok, stats, dt = run.ledger.run(maintain.compact_index, idx)
            run.window("write", t0, time.perf_counter_ns())
            run.work_wall_s += dt
            print(f"round {c} {kind}: {dt:.2f} s", file=sys.stderr)
            run.shards_after_write.append(_seg_count(idx))
            if not ok:
                continue
            if kind == "add":
                added = inp.delta_distinct_urls[c]
                docs_busy, seg_busy, _ = _stage_busy(idx, rows_before)
                run.builds.append(dict(wall_s=dt, docs=added, docs_busy=docs_busy,
                                       seg_busy=seg_busy,
                                       bytes=run.sampler.bytes_written_since(marker)))
                run.build_input_bytes += inp.delta_bytes[c]
                input_bytes += inp.delta_bytes[c]
                n_docs += added
                live_docs += added
                run.work_done += added
                if stats["n_docs"] != n_docs:
                    run.ledger.fail(f"after add n_docs {stats['n_docs']} != {n_docs}")
            elif kind == "delete":
                live_docs -= len(arg)
                if stats["n_tombstoned"] != len(arg):
                    run.ledger.fail(f"tombstoned {stats['n_tombstoned']} of {len(arg)} urls")
            else:
                n_docs = live_docs
                if stats["n_docs"] != live_docs:
                    run.ledger.fail(f"after compaction n_docs {stats['n_docs']} != {live_docs}")

        with run.untraced():
            expected = checks.brute_answers(idx, texts, positions)
        done = []
        ok, frame, dt = _request(run, texts, qid)
        print(f"round {c} first request: {dt:.2f} s", file=sys.stderr)
        if ok:
            run.fresh_s.append(dt)
            done.append((qid, frame))
        qid += run.request_queries
        timed = kind != "compact"
        t_burst = time.perf_counter_ns()
        for _ in range(burst if timed else COMPACT_CHECK_REQUESTS):
            ok, frame, dt = _request(run, texts, qid)
            if ok:
                done.append((qid, frame))
                if timed:
                    run.op_ms.append(dt * 1e3)
                    run.queries_timed += run.request_queries
            qid += run.request_queries
        if timed:
            run.window("requests", t_burst, time.perf_counter_ns())
        _check_requests(run, done, expected, n)
    run.index_bytes_ratio = dir_bytes(idx) / input_bytes


WORKLOADS = {"build": run_build, "serve": run_serve, "refresh": run_refresh}
