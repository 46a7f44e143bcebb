"""build_index — the end-to-end index build (SURVEY.md §3.1, §8).

A build is ONE path, a disk (external) shuffle in two phases:

    read_parquet(pages)                      # pruned columns, many blocks
      → map_batches(prep)                    # url normalize, lang filter, pid tag
      → map_batches(ExtractUDF, actor pool)  # html→text, html DROPPED pre-shuffle
      → groupby(pid).map_groups(dedup_assign_write)
           # phase 1, the only all-to-all (url hash): dedup, doc_ids, and
           # per pid docs/pid=NNNN.parquet + partials/pid=NNNN.arrow (the
           # encoded partial postings, one IPC batch per bucket)
    range(n_buckets).map_batches(assemble_from_disk_batch)
           # phase 2: one task per (term-range × salt) bucket reads its batch
           # from every pid file and writes segments/seg=BBBB/

Global stats (N, avgdl) fold from the pid manifest rows; the segment/skew
plan (term boundaries + heavy set) comes from a deterministic driver-side
sample of the INPUT and is persisted to plan.json so resumes reuse it.

A pid and a bucket are the resume units. A pid is done when its manifest
row's checksums match both of its files, a bucket when its row matches its
postings.bin; a resumed build filters done pids out upstream, skips done
buckets, and otherwise runs the same DAG. partials/ is removed only after
_INDEX_DONE, so no crash before the marker forces re-extraction.
stats.json's config + code-version hash refuses to resume across drift.
compact_index (pipelines/maintain.py) reuses phase 2 (``assemble_buckets``).

Library code never calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import functools
import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..extract import extract_text
from ..sources.pages import read_pages
from ..stages.extract_stage import ExtractUDF, prep_batch_fn
from ..stages.dedup_stage import dedup_assign_write, docs_path
from ..stages.postings_stage import (
    PostingsEncoder,
    assemble_from_disk_batch,
    partials_path,
    seg_dir,
)
from ..state import manifest as mf

INDEX_MARKER = "_INDEX_DONE"


def _after_phase1() -> None:
    """No-op seam after the map-out barrier (docs/ + partials/ written);
    tests monkeypatch it to inject a crash and exercise resume."""


def _after_phase2() -> None:
    """No-op seam after segment assembly, before stats.json and the marker;
    tests monkeypatch it to inject a crash and exercise resume."""


def _cpus() -> int:
    try:
        return max(2, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 8


def _term_stats_from_texts(texts: list[str]) -> pa.Table:
    """Per-term (occ, df) stats of a text slice — the mergeable partial the
    plan is computed from. Vectorized: tokenize_flat + Arrow group_by."""
    from ..textnorm import tokenize_flat

    ids = np.arange(len(texts), dtype=np.uint64)
    flat, fd, _counts = tokenize_flat(pa.array(texts, pa.string()), ids)
    if len(flat) == 0:
        return pa.table({"term": pa.array([], pa.string()),
                         "occ": pa.array([], pa.int64()),
                         "df": pa.array([], pa.int64())})
    tb = pa.table({"term": flat, "doc": pa.array(fd, pa.uint64())})
    per_doc = (
        tb.group_by(["term", "doc"], use_threads=False)
        .aggregate([("doc", "count")])
    )
    agg = (
        per_doc.group_by(["term"], use_threads=False)
        .aggregate([("doc_count", "sum"), ("doc", "count")])
    )
    return pa.table(
        {
            "term": agg["term"],
            "occ": agg["doc_count_sum"].cast(pa.int64()),
            "df": agg["doc_count"].cast(pa.int64()),
        }
    )


def _plan_from_term_stats(stats: pa.Table, n_sample: int, num_segments: int, heavy_df_frac: float):
    """Boundaries (DF-weighted term quantiles) + heavy set, from merged
    per-term (occ, df) stats.

    df mass — not occurrence mass — is the right balance objective:
    postings bytes, merge partial-row counts and segment-assembly wall
    are all ∝ Σ df per range, while occurrences over-weight high-tf head
    terms that a quantile cut cannot split anyway. Round-4 measurement
    on the bench corpus: occ-balanced ranges spread 0.5–22.4 MB of
    postings (42×, one collapsed boundary); df-balanced ranges land
    within 2× (4.6–9.3 MB) with perfectly even per-range df. Sampled df
    is ∝ true df in expectation, so the 2000-doc sample estimates the
    quantiles directly.

    Equivalent to picking positions i·total/num_segments in the
    df-sorted flat (term per containing doc) array: term-sorted
    cumulative df counts are exactly that array's run boundaries, so
    searchsorted(cum, pos, 'right') lands on the identical term
    (ASCII tokens → Arrow bytewise order == Python codepoint order).
    Verified by tests/test_pipeline.py::test_plan_distributed_equals_serial."""
    import pyarrow.compute as pc

    if len(stats) == 0:
        return [], []
    n_sample = max(1, n_sample)
    merged = stats.group_by(["term"], use_threads=False).aggregate([("occ", "sum"), ("df", "sum")])
    heavy = sorted(
        t
        for t, c in zip(merged["term"].to_pylist(), merged["df_sum"].to_pylist())
        if c / n_sample >= heavy_df_frac
    )
    order = pc.array_sort_indices(merged["term"].combine_chunks())
    terms_sorted = pc.take(merged["term"], order)
    occ_sorted = pc.take(merged["df_sum"], order).to_numpy(zero_copy_only=False)
    cum = np.cumsum(occ_sorted)
    total = int(cum[-1])
    bounds: list[str] = []
    for i in range(1, num_segments):
        p = min(total - 1, i * total // num_segments)
        ti = int(np.searchsorted(cum, p, side="right"))
        b = terms_sorted[ti].as_py()
        if not bounds or b > bounds[-1]:
            bounds.append(b)
    return bounds, heavy


@ray.remote
def _sample_term_stats(path: str, row_group: int, take: int) -> pa.Table:
    """One plan-sample shard: extract + tokenize one row group's first
    ``take`` rows, return its per-term (occ, df) partial."""
    col = pq.ParquetFile(path).read_row_group(row_group, columns=["html"])["html"]
    texts = [extract_text(h) for h in col.to_pylist()[:take]]
    return _term_stats_from_texts(texts)


def _plan_terms_from_pages(input_path: str, num_segments: int, sample_docs: int, heavy_df_frac: float):
    """Deterministic plan from the INPUT corpus: first `sample_docs` rows in
    file order — membership fixed by parquet metadata alone, extraction and
    term-stat partials DISTRIBUTED over one Ray task per row group (round 3;
    the serial driver-side extract was a fixed tail that capped build
    scaling). The driver merges only per-term partials (sample-vocabulary
    sized). At cluster scale the same shape becomes a per-partition
    reservoir sample (SCALE.md §2)."""
    paths = [input_path]
    if os.path.isdir(input_path):
        paths = sorted(glob.glob(os.path.join(input_path, "*.parquet")))
    shards: list[tuple[str, int, int]] = []
    remaining = sample_docs
    for p in paths:
        if remaining <= 0:
            break
        pf = pq.ParquetFile(p)  # metadata only — no row scan
        for rg in range(pf.num_row_groups):
            if remaining <= 0:
                break
            n = min(remaining, pf.metadata.row_group(rg).num_rows)
            shards.append((p, rg, n))
            remaining -= n
    n_sample = sample_docs - remaining
    refs = [_sample_term_stats.remote(p, rg, n) for p, rg, n in shards]
    parts = [t for t in ray.get(refs) if len(t)]
    if not parts:
        return [], []
    return _plan_from_term_stats(
        pa.concat_tables(parts), n_sample, num_segments, heavy_df_frac
    )


def _load_or_make_plan(out_dir, input_path, num_segments, sample_docs, heavy_df_frac):
    """The plan defines the segment layout, so a resume MUST reuse the
    original one — it is persisted to plan.json the first time."""
    plan_path = os.path.join(out_dir, "plan.json")
    if os.path.exists(plan_path):
        with open(plan_path) as f:
            plan = json.load(f)
        return plan["boundaries"], plan["heavy_terms"]
    bounds, heavy = _plan_terms_from_pages(input_path, num_segments, sample_docs, heavy_df_frac)
    mf.atomic_write_bytes(
        plan_path, json.dumps({"boundaries": bounds, "heavy_terms": heavy}).encode()
    )
    return bounds, heavy


def assemble_buckets(out_dir: str, n_buckets: int) -> int:
    """Phase 2 of the disk exchange: assemble every bucket from the map
    outputs under ``out_dir/partials/``, skipping buckets whose manifest
    row still matches their postings.bin. Plain tasks, one bucket id per
    block: re-opening the mmapped footers per task is ~ms, an actor pool
    would cost ~2s spawn (CLAUDE.md short-pipeline gotcha). Returns the
    number of buckets that have a segment."""
    done = mf.completed_units(
        out_dir,
        "segment",
        {b: {"checksum": os.path.join(seg_dir(out_dir, b), "postings.bin")} for b in range(n_buckets)},
    )
    return ray.data.range(n_buckets, override_num_blocks=n_buckets).map_batches(
        functools.partial(assemble_from_disk_batch, out_dir=out_dir, skip=frozenset(done)),
        batch_format="pyarrow",
    ).count()


def build_index(
    input_path: str,
    out_dir: str,
    *,
    num_partitions: int = 8,
    num_segments: int = 2,
    n_salts: int = 4,
    langs: tuple[str, ...] | None = None,
    resume: bool = False,
    sample_docs: int = 2000,
    heavy_df_frac: float = 0.05,
    extract_batch_size: int = 256,
    concurrency: int | None = None,
    pid_offset: int = 0,
    positions: bool = False,
) -> dict:
    """Build the inverted index; returns the stats dict.

    ``pid_offset`` shifts every partition id (and therefore every doc_id =
    pid<<40 | row) by a fixed amount — used by incremental delta builds
    (pipelines/maintain.py) so a generation's doc space is disjoint from
    and above the base index's.

    ``positions=True`` adds the positional sidecar (segments/*/pos.bin +
    dict pos offsets): per posting, within-doc token positions as
    self-delimiting varints that merge by the same ordered concat as the
    docID blobs. Costs ~1 byte/token of extra shuffle + storage (the
    standard positional-index overhead); enables index-native phrase
    matching (no checkpoint re-tokenization at query time). Default off —
    the default index layout stays byte-identical to the goldens.

    ``resume=True`` keeps the pids and buckets an interrupted build
    finished (see the module docstring)."""
    cpus = concurrency or _cpus()
    cfg = {
        "P": num_partitions,
        "S": num_segments,
        "n_salts": n_salts,
        "langs": sorted(langs) if langs else None,
    }
    if positions:
        cfg["positions"] = True
    if pid_offset:
        cfg["pid_offset"] = pid_offset
    if os.path.isdir(out_dir):
        if resume:
            # cfg.json is written at BUILD START (stats.json only lands at
            # the end), so a crash mid-build still leaves the drift guard
            cfg_path = os.path.join(out_dir, "cfg.json")
            if os.path.exists(cfg_path):
                with open(cfg_path) as f:
                    old = json.load(f)
                if old != {**cfg, "code_version": mf.code_version_hash()}:
                    raise ValueError(
                        "resume=True but existing index config/code-version "
                        "differs; rebuild with resume=False"
                    )
            elif os.path.exists(os.path.join(out_dir, "stats.json")) and not mf.check_resume_compatible(out_dir, cfg):
                raise ValueError(
                    "resume=True but existing index config/code-version differs; "
                    "rebuild with resume=False"
                )
        else:
            shutil.rmtree(out_dir)
    partials_dir = os.path.join(out_dir, "partials")
    if resume and os.path.exists(os.path.join(out_dir, INDEX_MARKER)):
        shutil.rmtree(partials_dir, ignore_errors=True)
        return mf.read_stats(out_dir)
    os.makedirs(os.path.join(out_dir, "docs"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "segments"), exist_ok=True)
    mf.atomic_write_bytes(
        os.path.join(out_dir, "cfg.json"),
        json.dumps({**cfg, "code_version": mf.code_version_hash()}).encode(),
    )
    # an interrupted unit leaves only its *.tmp (files are renamed into
    # place whole): docs/*.tmp, partials/*.tmp, segments/seg=*.tmp
    for junk in glob.glob(os.path.join(out_dir, "*", "*.tmp")):
        if os.path.isdir(junk):
            shutil.rmtree(junk)
        else:
            os.remove(junk)

    pids = range(pid_offset, pid_offset + num_partitions)
    done_pids = (
        mf.completed_units(
            out_dir,
            "docs",
            {
                p: {
                    "checksum": docs_path(out_dir, p),
                    "partials_checksum": partials_path(out_dir, p),
                }
                for p in pids
            },
        )
        if resume
        else set()
    )
    boundaries, heavy = _load_or_make_plan(
        out_dir, input_path, num_segments, sample_docs, heavy_df_frac
    )
    if len(done_pids) < num_partitions:
        encoder = PostingsEncoder(
            boundaries, heavy, num_partitions, n_salts, pid_offset, positions=positions
        )
        read_pages(input_path).map_batches(
            prep_batch_fn(langs, num_partitions, pid_offset, tuple(sorted(done_pids))),
            batch_format="pyarrow",
        ).map_batches(
            ExtractUDF,
            batch_format="pyarrow",
            batch_size=extract_batch_size,
            # pre-warm half the pool: autoscaling from 1 costs seconds of ramp
            concurrency=(max(1, cpus // 2), cpus),
        ).groupby("pid").map_groups(
            functools.partial(dedup_assign_write, out_dir=out_dir, encoder=encoder),
            batch_format="pyarrow",
        ).count()
    if not glob.glob(os.path.join(out_dir, "docs", "pid=*.parquet")):
        raise ValueError(f"no documents survived the build from {input_path}")
    _after_phase1()  # test seam (monkeypatched fault injection)
    n_segs = assemble_buckets(out_dir, (len(boundaries) + 1) * max(1, n_salts))
    _after_phase2()  # test seam (monkeypatched fault injection)

    # ---- global stats: fold the pid manifest rows (partial aggregation
    # at the source — no extra Ray job). manifest.jsonl is append-only, so
    # the LAST row per partition is authoritative.
    last = {
        r["partition_id"]: r
        for r in mf.read_manifest(out_dir)
        if r["stage"] == "docs" and r["status"] == "done"
    }
    n_docs = sum(int(r["output_rows"]) for r in last.values())
    total_len = sum(int(r["doclen_sum"]) for r in last.values())
    avgdl = (total_len / n_docs) if n_docs else 0.0

    stats = {
        "n_docs": n_docs,
        "total_len": total_len,
        "avgdl": avgdl,
        "num_partitions": num_partitions,
        "num_segments": len(boundaries) + 1,
        "n_salts": n_salts,
        "boundaries": boundaries,
        "heavy_terms": heavy,
        **cfg,
    }
    mf.write_stats(out_dir, stats)

    # ---- finalize: metrics mirror + marker, then the shuffle checkpoint
    # is no longer needed ----
    man = mf.read_manifest(out_dir)
    if man:
        pq.write_table(pa.Table.from_pylist(man), os.path.join(out_dir, "metrics.parquet"))
    with open(os.path.join(out_dir, INDEX_MARKER), "w") as f:
        f.write(f"segments={n_segs}\n")
    shutil.rmtree(partials_dir, ignore_errors=True)
    return stats
