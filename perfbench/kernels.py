"""Single-core kernel numbers: the benchmark calls the engine's public
kernels in its own process, on the workload's own inputs and index.
Comparing them with the in-pipeline times shows the framework tax."""

from __future__ import annotations

import glob
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

KERNEL_DOCS = 300  # pages of the corpus the build kernels run over


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def build_kernels(pages_dir: str, index_dir: str) -> dict:
    """extract_text → tokenize_flat → PostingsEncoder.encode_flat over the
    first KERNEL_DOCS pages; rates per second plus per-doc costs."""
    from aarhus_ray.extract import extract_text
    from aarhus_ray.stages.postings_stage import PostingsEncoder
    from aarhus_ray.textnorm import tokenize_flat

    html = pq.read_table(pages_dir, columns=["html"])["html"].to_pylist()[:KERNEL_DOCS]
    t0 = time.perf_counter()
    texts = [extract_text(h) for h in html]
    t_extract = time.perf_counter() - t0

    ids = np.arange(len(texts), dtype=np.uint64)
    t0 = time.perf_counter()
    flat_terms, flat_docs, _ = tokenize_flat(pa.array(texts, pa.string()), ids)
    t_tok = time.perf_counter() - t0

    with open(os.path.join(index_dir, "plan.json")) as f:
        plan = json.load(f)
    enc = PostingsEncoder(plan["boundaries"], plan["heavy_terms"], 8, 2)
    t0 = time.perf_counter()
    partials = enc.encode_flat(flat_terms, flat_docs)
    t_enc = time.perf_counter() - t0
    n_postings = int(pc.sum(partials["df_partial"]).as_py() or 0)
    n = len(texts)
    return {
        "extract.docs_per_s": _rate(n, t_extract),
        "textnorm.tokens_per_s": _rate(len(flat_terms), t_tok),
        "postings_stage.postings_per_s": _rate(n_postings, t_enc),
        # seconds one core spends on one page across the three kernels
        "kernel_s_per_doc": (t_extract + t_tok + t_enc) / max(1, n),
    }


def decode_kernel(index_dir: str) -> float:
    """MB/s of ``decode_postings`` over every posting list of the index."""
    from aarhus_ray.codecs import decode_postings

    total_bytes = 0
    elapsed = 0.0
    for sdir in sorted(glob.glob(os.path.join(index_dir, "segments", "seg=*"))):
        d = pq.read_table(os.path.join(sdir, "dict.parquet"),
                          columns=["offset", "length", "skip_offset", "skip_length"]).to_pylist()
        with open(os.path.join(sdir, "postings.bin"), "rb") as f:
            post = f.read()
        with open(os.path.join(sdir, "skips.bin"), "rb") as f:
            skips = f.read()
        blobs = [(post[r["offset"]:r["offset"] + r["length"]],
                  skips[r["skip_offset"]:r["skip_offset"] + r["skip_length"]]) for r in d]
        t0 = time.perf_counter()
        for blob, sk in blobs:
            decode_postings(blob, sk)
        elapsed += time.perf_counter() - t0
        total_bytes += sum(len(b) for b, _ in blobs)
    return _rate(total_bytes / 1e6, elapsed)


def scorer_kernel(index_dir: str, texts: list[str]) -> tuple[float, float]:
    """(cold qps, hot qps) of an in-process ``QueryScorer`` over the query
    log: a fresh instance's first pass, then a second pass."""
    from aarhus_ray.stages.query_stage import QueryScorer

    table = pa.table({"query_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    scorer = QueryScorer(index_dir, k=10, method="wand")
    t0 = time.perf_counter()
    scorer(table)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    scorer(table)
    hot = time.perf_counter() - t0
    return _rate(len(texts), cold), _rate(len(texts), hot)
