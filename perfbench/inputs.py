"""Seeded workload inputs: page corpora, delta corpora, delete lists and
query logs. Everything is a pure function of (workload sizes, seed); the
program under test only ever sees the generated files and tables.

Inputs are cached under ``<work>/inputs/<key>`` because generating them is
input preparation, not set-up: a run with a seed it has seen before reuses
the files, and no run times their generation.
"""

from __future__ import annotations

import glob
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Web-page weight used by bench.py: ~400 tokens per page.
AVG_TOKENS = 400
KEEP_CACHED = 8  # input sets kept under <work>/inputs (oldest evicted)


@dataclass(frozen=True)
class Sizes:
    n_docs: int  # base corpus pages (before the ~3% recrawl duplicates)
    n_queries: int = 0  # query log length
    delta_docs: int = 0  # pages per refresh delta
    n_deltas: int = 0
    deletes_per_delta: int = 0


SIZES = {
    "build": Sizes(n_docs=2000, n_queries=64),
    "serve": Sizes(n_docs=2000, n_queries=2048),
    # 1,616 queries = 101 requests of 16: one pass over the log per round
    "refresh": Sizes(n_docs=1500, n_queries=1616, delta_docs=150, n_deltas=2,
                     deletes_per_delta=50),
}


@dataclass
class Inputs:
    pages_dir: str
    pages_bytes: int
    distinct_urls: int
    queries: pa.Table  # (query_id int64, text string), the replayed log
    delta_dirs: list[str] = field(default_factory=list)
    delta_bytes: list[int] = field(default_factory=list)
    delta_distinct_urls: list[int] = field(default_factory=list)
    delete_urls: list[list[str]] = field(default_factory=list)


def derived_seed(seed: int, salt: int) -> int:
    """Independent sub-seed in numpy's RandomState range."""
    return int((seed * 1_000_003 + salt * 7919) % (2**31 - 1))


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def _parquet_bytes(d: str) -> int:
    return sum(os.path.getsize(f) for f in glob.glob(os.path.join(d, "*.parquet")))


def _distinct_urls(d: str) -> list[str]:
    urls = pq.read_table(d, columns=["url"])["url"].to_pylist()
    return sorted(set(urls))


def _write_pages(out_dir: str, n: int, seed: int, url_offset: int) -> None:
    from aarhus_ray import fixtures

    if os.path.exists(os.path.join(out_dir, "_DONE")):
        return
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    table = fixtures.gen_pages(n, seed, avg_tokens=AVG_TOKENS, url_offset=url_offset)
    n_files = 8  # several read blocks, as a crawl shard directory would have
    per = (len(table) + n_files - 1) // n_files
    for i in range(n_files):
        pq.write_table(table.slice(i * per, per), os.path.join(out_dir, f"part-{i:04d}.parquet"),
                       row_group_size=1024)
    with open(os.path.join(out_dir, "_DONE"), "w") as f:
        f.write(f"n={n} seed={seed} url_offset={url_offset}\n")


def _evict_old(inputs_root: str, keep: str) -> None:
    sets = sorted(
        (p for p in glob.glob(os.path.join(inputs_root, "*")) if p != keep),
        key=os.path.getmtime,
    )
    for p in sets[: max(0, len(sets) - (KEEP_CACHED - 1))]:
        shutil.rmtree(p, ignore_errors=True)


def make_inputs(work: str, workload: str, seed: int, sizes: Sizes | None = None) -> Inputs:
    """Generate (or reuse) the inputs of one workload for one seed."""
    from aarhus_ray import fixtures

    sizes = sizes or SIZES[workload]
    key = (f"n{sizes.n_docs}-d{sizes.delta_docs}x{sizes.n_deltas}"
           f"-x{sizes.deletes_per_delta}-s{seed}")
    inputs_root = os.path.join(work, "inputs")
    root = os.path.join(inputs_root, key)
    os.makedirs(root, exist_ok=True)
    os.utime(root)
    _evict_old(inputs_root, root)

    pages = os.path.join(root, "pages")
    _write_pages(pages, sizes.n_docs, derived_seed(seed, 1), url_offset=0)
    base_urls = _distinct_urls(pages)
    queries = fixtures.gen_queries(max(1, sizes.n_queries), seed=derived_seed(seed, 2))
    inp = Inputs(pages_dir=pages, pages_bytes=_parquet_bytes(pages),
                 distinct_urls=len(base_urls), queries=queries)

    rng = np.random.RandomState(derived_seed(seed, 3))
    live = list(base_urls)
    for j in range(sizes.n_deltas):
        d = os.path.join(root, f"delta-{j}")
        # url_offset past every earlier generation keeps delta urls new
        # (add_documents is append-only)
        _write_pages(d, sizes.delta_docs, derived_seed(seed, 10 + j),
                     url_offset=sizes.n_docs + j * sizes.delta_docs)
        inp.delta_dirs.append(d)
        inp.delta_bytes.append(_parquet_bytes(d))
        inp.delta_distinct_urls.append(len(_distinct_urls(d)))
        pick = rng.choice(len(live), size=min(sizes.deletes_per_delta, len(live)), replace=False)
        gone = sorted(live[i] for i in pick)
        inp.delete_urls.append(gone)
        gone_set = set(gone)
        live = [u for u in live if u not in gone_set]
    return inp


def request_table(texts: list[str], first_qid: int, size: int) -> pa.Table:
    """``size`` queries replayed from the log ``texts``, with unique query
    ids first_qid .. first_qid+size-1; query id q carries log entry
    q % len(texts)."""
    n = len(texts)
    return pa.table({
        "query_id": pa.array(range(first_qid, first_qid + size), pa.int64()),
        "text": pa.array([texts[(first_qid + i) % n] for i in range(size)], pa.string()),
    })
