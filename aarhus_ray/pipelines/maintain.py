"""Incremental index maintenance: delta generations + compaction
(the LSM-style lifecycle a long-lived 10^12-doc index needs — a web crawl
never stops, and a full rebuild per refresh is not a plan at 100 TB).

``add_documents`` builds a DELTA GENERATION from new pages and grafts it
into an existing index:

- the delta claims a fresh pid range (``pid_offset`` = one past the base's
  highest pid), so its doc_ids — (pid << 40) | row — are disjoint from and
  strictly above every base doc_id;
- it reuses the base plan.json (same term boundaries + heavy set), so
  delta shards align with the base's term ranges;
- its shard directories move into the base under fresh bucket ids
  (appended after the base's), and global stats fold (n_docs, total_len →
  avgdl). Nothing in the base is rewritten: the graft is O(delta).

The query side needs NO changes: scorers already gather a term's postings
from EVERY owning shard and sum df globally (term-sharded invariant,
CLAUDE.md), so a query over base+delta is EXACT — bit-identical to a fresh
build over the union corpus (the incremental fulltext query shares the
full-corpus DuckDB oracle; tests/test_maintain.py pins build≡incremental).

APPEND-ONLY ASSUMPTION: delta urls must be new. A url present in both
generations gets two doc_ids (exact url dedup runs per generation — the
url-hash partitioning that powers it cannot span generations without a
rewrite). Detecting collisions at scale is a Bloom-filter semi-join of
delta urls vs the base (functions/bloom.py is the building block); not
wired up because the driving use case (crawl snapshots) is append-only.

``delete_documents`` tombstones docs (by url or doc_id) under
``tombstones/gen-*.parquet``. Deletes are VISIBILITY-ONLY until
compaction: scorers exclude tombstoned ids from every candidate/result
set at postings-gather time (query_stage exclude mask) while df/idf/
avgdl/N keep the pre-delete globals — the standard LSM/segment-engine
trade (Lucene's deleted-docs bitmap has the same semantics).

``compact_index`` rewrites all generations into one through the build's
disk exchange: one Ray task per docs/ file re-encodes it into a map-output
partials file, the build's phase 2 (``assemble_buckets``) assembles a
fresh segment set under the base plan, then segments/ is swapped
atomically. With live tombstones it also PURGES: docs/ is rewritten minus
tombstoned rows, N/total_len/avgdl recomputed, the tombstones dir
removed — post-compaction scoring is fresh-build exact over the
surviving corpus (df included; test-pinned). Without tombstones query
results are unchanged (test-pinned); what compaction buys then is
shard-count hygiene — k generations mean k× dictionary probes and skip
arrays per term, and the gather's fixed cost grows with generation count.

Every write (add, delete, delete/update by query, compact) first ends the
index's serving pools (``stop_serving(out_dir)``): its stats.json rewrite
bumps ``index_version``, so no request could reach them again, and a live
pool's compiled actors keep about one core each busy through the write.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..state import manifest as mf
from .build import INDEX_MARKER, assemble_buckets, build_index
from .query import stop_serving

_SEG_RE = re.compile(r"seg=(\d+)$")
_PID_RE = re.compile(r"pid=(\d+)\.parquet$")


def _seg_ids(index_dir: str) -> list[int]:
    ids = []
    for p in glob.glob(os.path.join(index_dir, "segments", "seg=*")):
        m = _SEG_RE.search(os.path.basename(p))
        if m and os.path.isdir(p):
            ids.append(int(m.group(1)))
    return sorted(ids)


def _max_pid(index_dir: str) -> int:
    pids = [
        int(m.group(1))
        for f in glob.glob(os.path.join(index_dir, "docs", "pid=*.parquet"))
        if (m := _PID_RE.search(os.path.basename(f)))
    ]
    if not pids:
        raise ValueError(f"no docs/pid=*.parquet under {index_dir}")
    return max(pids)


def _adopt_manifest(src_dir: str, dst_dir: str, seg_map: dict[int, int] | None = None) -> None:
    """Append ``src_dir``'s manifest rows to ``dst_dir``'s lineage, with
    segment bucket ids renamed through ``seg_map``."""
    for row in mf.read_manifest(src_dir):
        if seg_map and row["stage"] == "segment":
            row = dict(row, partition_id=seg_map.get(int(row["partition_id"]), row["partition_id"]))
        mf.append_manifest(dst_dir, mf.ManifestRow(**row))


def add_documents(
    out_dir: str,
    input_path: str,
    *,
    num_partitions: int = 8,
    langs: tuple[str, ...] | None = None,
    extract_batch_size: int = 256,
    concurrency: int | None = None,
) -> dict:
    """Graft a delta generation built from ``input_path`` into the index at
    ``out_dir``. Returns the folded stats dict. See module docstring for
    semantics (disjoint doc space, shared plan, appended buckets, exact
    queries over the union)."""
    if not os.path.exists(os.path.join(out_dir, INDEX_MARKER)):
        raise ValueError(f"{out_dir} is not a completed index (missing {INDEX_MARKER})")
    stats = mf.read_stats(out_dir)
    plan_path = os.path.join(out_dir, "plan.json")
    if not os.path.exists(plan_path):
        raise ValueError(f"{out_dir} has no plan.json — cannot align a delta generation")
    stop_serving(out_dir)
    pid_offset = _max_pid(out_dir) + 1

    delta_dir = os.path.join(out_dir, ".delta.tmp")
    shutil.rmtree(delta_dir, ignore_errors=True)
    os.makedirs(delta_dir)
    # pre-seed the plan so the delta build reuses the BASE term boundaries
    # and heavy set (build_index loads plan.json when present)
    shutil.copyfile(plan_path, os.path.join(delta_dir, "plan.json"))
    delta_stats = build_index(
        input_path,
        delta_dir,
        num_partitions=num_partitions,
        num_segments=int(stats["num_segments"]),
        n_salts=int(stats["n_salts"]),
        langs=langs,
        extract_batch_size=extract_batch_size,
        concurrency=concurrency,
        pid_offset=pid_offset,
        positions=bool(stats.get("positions")),
    )

    # ---- graft: docs files (names disjoint by pid_offset), then shard
    # dirs under fresh bucket ids appended after the base's ----
    for f in sorted(glob.glob(os.path.join(delta_dir, "docs", "pid=*.parquet"))):
        os.replace(f, os.path.join(out_dir, "docs", os.path.basename(f)))
    next_bucket = max(_seg_ids(out_dir)) + 1
    bucket_map: dict[int, int] = {}
    for sid in _seg_ids(delta_dir):
        new_sid = next_bucket + sid
        bucket_map[sid] = new_sid
        os.replace(
            os.path.join(delta_dir, "segments", f"seg={sid:04d}"),
            os.path.join(out_dir, "segments", f"seg={new_sid:04d}"),
        )
    # lineage: append the delta's manifest rows (segment bucket ids
    # remapped; docs pids already carry the offset)
    _adopt_manifest(delta_dir, out_dir, bucket_map)
    shutil.rmtree(delta_dir, ignore_errors=True)

    # ---- fold global stats; the stats.json rewrite bumps index_version,
    # invalidating every cached scorer of this path ----
    n_docs = int(stats["n_docs"]) + int(delta_stats["n_docs"])
    total_len = int(stats["total_len"]) + int(delta_stats["total_len"])
    folded = dict(
        stats,
        n_docs=n_docs,
        total_len=total_len,
        avgdl=(total_len / n_docs) if n_docs else 0.0,
        generations=int(stats.get("generations", 1)) + 1,
    )
    mf.write_stats(out_dir, folded)
    man = mf.read_manifest(out_dir)
    if man:
        pq.write_table(pa.Table.from_pylist(man), os.path.join(out_dir, "metrics.parquet"))
    return folded


@ray.remote
def _match_doc_ids(path: str, urls: tuple) -> "pa.Array":
    """One docs/pid file's doc_ids whose url is in the delete set — pruned
    read (doc_id + url only; text never leaves storage)."""
    t = pq.read_table(path, columns=["doc_id", "url"])
    import pyarrow.compute as pc

    return t.filter(pc.is_in(t["url"], value_set=pa.array(urls, pa.string())))["doc_id"]


def delete_documents(
    out_dir: str,
    *,
    urls: list[str] | None = None,
    doc_ids: list[int] | None = None,
) -> dict:
    """Tombstone documents (Lucene-style deletes): append a tombstone
    generation under ``tombstones/gen-NNNN.parquet`` and bump stats.json
    (invalidating every cached scorer). Deletes are VISIBILITY-ONLY until
    ``compact_index``: tombstoned docs vanish from all results/candidates
    immediately, but df/idf/avgdl/N keep the pre-delete globals — the
    standard LSM/segment-engine trade (a live stats rewrite would mean
    touching every segment per delete). Compaction purges tombstones and
    recomputes statistics, after which results match a fresh build over
    the surviving corpus.

    Exactly one of ``urls`` / ``doc_ids``. The url path resolves through
    the docs/ checkpoint with one pruned Ray task per pid file (doc_id +
    url columns only) and reports how many matched; the doc_ids path
    trusts the caller (unknown ids are harmless — the exclude mask just
    never fires). Returns {"n_requested", "n_tombstoned"}."""
    if (urls is None) == (doc_ids is None):
        raise ValueError("pass exactly one of urls= / doc_ids=")
    if not os.path.exists(os.path.join(out_dir, INDEX_MARKER)):
        raise ValueError(f"{out_dir} is not a completed index (missing {INDEX_MARKER})")
    stop_serving(out_dir)
    import numpy as np

    if urls is not None:
        n_requested = len(urls)
        paths = sorted(glob.glob(os.path.join(out_dir, "docs", "pid=*.parquet")))
        parts = ray.get([_match_doc_ids.remote(p, tuple(urls)) for p in paths])
        ids = np.concatenate(
            [np.asarray([], np.uint64)]
            + [p.to_numpy(zero_copy_only=False).astype(np.uint64) for p in parts]
        )
    else:
        n_requested = len(doc_ids)
        ids = np.asarray(doc_ids, dtype=np.uint64)
    ids = np.unique(ids)
    if len(ids):
        ts_dir = os.path.join(out_dir, "tombstones")
        os.makedirs(ts_dir, exist_ok=True)
        gen = len(glob.glob(os.path.join(ts_dir, "gen-*.parquet")))
        tmp = os.path.join(ts_dir, f"gen-{gen:04d}.parquet.tmp")
        pq.write_table(pa.table({"doc_id": pa.array(ids, pa.uint64())}), tmp)
        os.replace(tmp, os.path.join(ts_dir, f"gen-{gen:04d}.parquet"))
    total = mf.read_tombstones(out_dir)
    stats = mf.read_stats(out_dir)
    # rewrite bumps stats.json mtime == index_version → caches refresh
    mf.write_stats(out_dir, dict(stats, n_tombstones=int(0 if total is None else len(total))))
    return {"n_requested": n_requested, "n_tombstoned": int(len(ids))}


def delete_by_query(out_dir: str, text: str, mode: str = "or") -> dict:
    """ES ``_delete_by_query``: tombstone every VISIBLE doc matching a
    retrieval query — ``mode="or"`` (any distinct query term) or
    ``mode="and"`` (every distinct term), the same match semantics the
    search path uses. The match set NEVER lands on the driver: the
    export_matches stream (the scroll API — exactly how ES implements
    delete_by_query internally: scroll + bulk-delete) writes (doc_id)
    blocks straight into a tombstone generation DIRECTORY with
    backpressure, which is renamed into place atomically (a torn write is
    never visible) and folded by read_tombstones like any file
    generation. Already-tombstoned docs are excluded from the match set,
    so re-running is idempotent (second run tombstones 0). Deletes stay
    VISIBILITY-ONLY until compact_index, exactly like delete_documents.
    Returns {"n_tombstoned"}."""
    if not os.path.exists(os.path.join(out_dir, INDEX_MARKER)):
        raise ValueError(f"{out_dir} is not a completed index (missing {INDEX_MARKER})")
    stop_serving(out_dir)
    from .query import export_matches

    q = pa.table(
        {"query_id": pa.array([0], pa.int64()), "text": pa.array([text], pa.string())}
    )
    ts_dir = os.path.join(out_dir, "tombstones")
    os.makedirs(ts_dir, exist_ok=True)
    gen = len(glob.glob(os.path.join(ts_dir, "gen-q*")))
    tmp = os.path.join(ts_dir, f".tmp-gen-q{gen:04d}")
    shutil.rmtree(tmp, ignore_errors=True)
    ds = export_matches(out_dir, q, mode=mode).select_columns(["doc_id"])
    ds.write_parquet(tmp)
    n = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(tmp, "*.parquet"))
    )
    if n == 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return {"n_tombstoned": 0, "generation": None}
    gen_dir = os.path.join(ts_dir, f"gen-q{gen:04d}")
    os.replace(tmp, gen_dir)
    total = mf.read_tombstones(out_dir)
    stats = mf.read_stats(out_dir)
    # rewrite bumps stats.json mtime == index_version → caches refresh
    mf.write_stats(out_dir, dict(stats, n_tombstones=int(len(total))))
    return {"n_tombstoned": int(n), "generation": gen_dir}


@ray.remote
def _updated_pages_file(src: str, dst: str, ids, transform) -> int:
    """One docs/pid file's rows in ``ids`` (sorted uint64, one broadcast
    ray.put ref) re-materialized as pages-schema rows with ``transform``
    applied to text, the crawl ts bumped by 1 µs (the recrawl must win
    dedup) and the html re-wrapped so the rebuilt extraction reproduces
    the transformed text. Returns the row count written (0 ⇒ no file)."""
    import numpy as np
    import pyarrow.compute as pc

    t = pq.read_table(src, columns=["doc_id", "url", "warc_ts", "lang", "text"])
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    pos = np.searchsorted(ids, doc_ids)
    hit = pos < len(ids)
    hit[hit] = ids[pos[hit]] == doc_ids[hit]
    if not hit.any():
        return 0
    t = t.filter(pa.array(hit))
    new_text = [transform(x) for x in t["text"].to_pylist()]
    pages = pa.table(
        {
            "url": t["url"],
            "warc_ts": pc.add(t["warc_ts"].cast(pa.int64()), 1).cast(pa.timestamp("us")),
            "html": pa.array(
                [f"<html><body><p>{x}</p></body></html>".encode() for x in new_text],
                pa.binary(),
            ),
            "text": pa.array(new_text, pa.string()),
            "lang": t["lang"],
        }
    )
    tmp = dst + ".tmp"
    pq.write_table(pages, tmp)
    os.replace(tmp, dst)
    return pages.num_rows


def update_by_query(
    out_dir: str,
    text: str,
    transform,
    *,
    mode: str = "and",
    num_partitions: int = 4,
    extract_batch_size: int = 256,
) -> dict:
    """ES ``_update_by_query``: apply a deterministic, pure ``transform``
    (the "script") to the text of every visible doc matching the retrieval
    query, with exact Lucene update semantics — an update IS a delete plus
    a re-add: (1) delete_by_query streams the match set into a tombstone
    generation; (2) each matched doc's source row re-materializes as a
    pages row (transformed text, crawl ts bumped 1 µs) via one pruned Ray
    task per docs/pid file with the id set broadcast once; (3) the new
    versions graft in as an add_documents delta generation (disjoint pid
    range, folded stats). Consequently — and this is the contract being
    pinned — the OLD versions keep contributing to N/avgdl/df until
    compact_index merges them away, exactly like Lucene deleted docs;
    post-compaction the index is fresh-build exact over the updated
    corpus. Returns {"n_updated", "stats"}."""
    stop_serving(out_dir)
    r = delete_by_query(out_dir, text, mode=mode)
    if r["n_tombstoned"] == 0:
        return {"n_updated": 0, "stats": mf.read_stats(out_dir)}
    import numpy as np

    gen_files = sorted(glob.glob(os.path.join(r["generation"], "*.parquet")))
    ids = np.unique(
        np.concatenate(
            [
                pq.read_table(f, columns=["doc_id"])["doc_id"]
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
                for f in gen_files
            ]
        )
    )
    ids_ref = ray.put(ids)
    pages_dir = os.path.join(out_dir, ".update-pages.tmp")
    shutil.rmtree(pages_dir, ignore_errors=True)
    os.makedirs(pages_dir)
    srcs = sorted(glob.glob(os.path.join(out_dir, "docs", "pid=*.parquet")))
    counts = ray.get(
        [
            _updated_pages_file.remote(
                f,
                os.path.join(pages_dir, f"upd-{os.path.basename(f)}"),
                ids_ref,
                transform,
            )
            for f in srcs
        ]
    )
    stats = add_documents(
        out_dir,
        pages_dir,
        num_partitions=num_partitions,
        extract_batch_size=extract_batch_size,
    )
    shutil.rmtree(pages_dir, ignore_errors=True)
    return {"n_updated": int(sum(counts)), "stats": stats}


@ray.remote
def _encode_docs_file(src: str, root: str, encoder, ts) -> tuple[int, int]:
    """Map side of compaction: one docs/pid file → its map-output file
    ``root/partials/pid=NNNN.arrow``. With tombstones (``ts``: the sorted
    array, one broadcast ray.put ref) the surviving rows are first written
    to ``root/docs/`` (atomic tmp+rename). Returns (rows, doclen_sum) of
    what was encoded."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.postings_stage import write_partials

    t = pq.read_table(src, columns=None if ts is not None else ["doc_id", "doclen", "text"])
    if ts is not None:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = np.searchsorted(ts, ids)
        hit = pos < len(ts)
        hit[hit] = ts[pos[hit]] == ids[hit]
        if hit.any():
            t = t.filter(pa.array(~hit))
        dst = os.path.join(root, "docs", os.path.basename(src))
        pq.write_table(t, dst + ".tmp")
        os.replace(dst + ".tmp", dst)
    write_partials(root, int(_PID_RE.search(src).group(1)), encoder(t))
    return t.num_rows, int(pc.sum(t["doclen"]).as_py() or 0)


def compact_index(out_dir: str, *, num_segments: int | None = None) -> dict:
    """Rewrite all generations into a single fresh segment set (query
    results unchanged — test-pinned) through the build's disk exchange:
    one task per docs/ file writes its partials under a temp root, the
    build's phase 2 assembles them with the persisted plan, then
    segments/ is swapped atomically. On a single-generation index without
    tombstones the segments are byte-identical to the build's.

    ``num_segments`` (ES ``_forcemerge max_num_segments`` / ``_shrink``):
    compact into FEWER term ranges — the persisted plan's boundaries
    coarsen to evenly-spaced cut points (term order and salting
    unchanged, so every invariant the sharded gather relies on holds),
    the new plan persists for future delta generations, and results stay
    bit-identical (test-pinned; only the shard layout changes). Growing
    the segment count would need a re-sample, and is rejected."""
    from ..stages.postings_stage import PostingsEncoder

    stats = mf.read_stats(out_dir)
    with open(os.path.join(out_dir, "plan.json")) as f:
        plan = json.load(f)
    boundaries, heavy = plan["boundaries"], plan["heavy_terms"]
    if num_segments is not None:
        s_old = len(boundaries) + 1
        if num_segments > s_old:
            raise ValueError(
                f"cannot grow segments ({s_old} → {num_segments}); "
                f"force-merge only shrinks"
            )
        boundaries = [
            boundaries[(j + 1) * s_old // num_segments - 1]
            for j in range(num_segments - 1)
        ]
        plan = dict(plan, boundaries=boundaries)
        stats = dict(stats, num_segments=num_segments)
    stop_serving(out_dir)
    # one flat pid space again: the heavy docID-range salt maps the TOTAL
    # range over n_salts shards (pid_offset=0, P=total)
    n_salts = int(stats["n_salts"])
    encoder = PostingsEncoder(
        boundaries, heavy, _max_pid(out_dir) + 1, n_salts, 0, bool(stats.get("positions"))
    )

    tmp_root = out_dir + ".compact.tmp"
    shutil.rmtree(tmp_root, ignore_errors=True)
    os.makedirs(os.path.join(tmp_root, "segments"))
    tombstones = mf.read_tombstones(out_dir)
    n_docs, total_len = int(stats["n_docs"]), int(stats["total_len"])
    ts_ref = None
    if tombstones is not None:
        # purge: the docs checkpoint is rewritten minus tombstoned rows and
        # N/total_len recomputed — post-compaction scoring is fresh-build
        # exact over the surviving corpus (df/avgdl included)
        os.makedirs(os.path.join(tmp_root, "docs"))
        ts_ref = ray.put(tombstones)
    counts = ray.get([
        _encode_docs_file.remote(f, tmp_root, encoder, ts_ref)
        for f in sorted(glob.glob(os.path.join(out_dir, "docs", "pid=*.parquet")))
    ])
    if tombstones is not None:
        n_docs = sum(c[0] for c in counts)
        total_len = sum(c[1] for c in counts)
    n_segs = assemble_buckets(tmp_root, (len(boundaries) + 1) * max(1, n_salts))

    old = out_dir + ".segments.old"
    shutil.rmtree(old, ignore_errors=True)
    os.replace(os.path.join(out_dir, "segments"), old)
    os.replace(os.path.join(tmp_root, "segments"), os.path.join(out_dir, "segments"))
    shutil.rmtree(old, ignore_errors=True)
    if tombstones is not None:
        old_docs = out_dir + ".docs.old"
        shutil.rmtree(old_docs, ignore_errors=True)
        os.replace(os.path.join(out_dir, "docs"), old_docs)
        os.replace(os.path.join(tmp_root, "docs"), os.path.join(out_dir, "docs"))
        shutil.rmtree(old_docs, ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, "tombstones"), ignore_errors=True)
    # adopt the compaction's segment manifest rows into the base lineage
    _adopt_manifest(tmp_root, out_dir)
    shutil.rmtree(tmp_root, ignore_errors=True)

    compacted = dict(
        stats,
        generations=1,
        n_docs=n_docs,
        total_len=total_len,
        avgdl=(total_len / n_docs) if n_docs else 0.0,
        n_tombstones=0,
    )
    if num_segments is not None:
        # persist the coarsened plan so future delta generations align
        tmp_plan = os.path.join(out_dir, "plan.json.tmp")
        with open(tmp_plan, "w") as f:
            json.dump(plan, f)
        os.replace(tmp_plan, os.path.join(out_dir, "plan.json"))
    mf.write_stats(out_dir, compacted)  # bumps index_version → caches refresh
    with open(os.path.join(out_dir, INDEX_MARKER), "w") as f:
        f.write(f"segments={n_segs}\n")
    man = mf.read_manifest(out_dir)
    if man:
        pq.write_table(pa.Table.from_pylist(man), os.path.join(out_dir, "metrics.parquet"))
    return compacted


def snapshot_index(index_dir: str, snap_dir: str) -> dict:
    """SNAPSHOT (the ES `_snapshot` repository shape): copy a COMPLETED
    index's files into ``snap_dir`` and write a catalog (SNAPSHOT.json)
    with a blake2b checksum per file. Everything under a finished index is
    immutable (builds finish with atomic tmp+rename, deltas add NEW
    generation dirs, deletes add NEW tombstone files), so the copy is
    consistent without pausing writers — the same reasoning Lucene uses
    for its write-once segment snapshots. The catalog is itself written
    atomically (tmp+rename) LAST, so a torn snapshot is never restorable.
    Returns {"files": n, "bytes": total}. At cluster scale each worker
    copies its own doc-range/segment shard to shared storage and the
    driver folds the per-shard catalogs — same additive-manifest shape as
    the build."""
    if not os.path.exists(os.path.join(index_dir, INDEX_MARKER)):
        raise ValueError(f"cannot snapshot an incomplete index: {index_dir}")
    catalog: dict[str, str] = {}
    total = 0
    os.makedirs(snap_dir, exist_ok=True)
    for root, _, files in os.walk(index_dir):
        for fn in sorted(files):
            src = os.path.join(root, fn)
            rel = os.path.relpath(src, index_dir)
            dst = os.path.join(snap_dir, "files", rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copyfile(src, dst)
            catalog[rel] = mf.file_checksum(dst)
            total += os.path.getsize(dst)
    payload = json.dumps({"files": catalog, "src": os.path.abspath(index_dir)},
                         sort_keys=True).encode()
    mf.atomic_write_bytes(os.path.join(snap_dir, "SNAPSHOT.json"), payload)
    return {"files": len(catalog), "bytes": total}


def restore_index(snap_dir: str, dest_dir: str) -> dict:
    """RESTORE: materialize a snapshot into ``dest_dir``, verifying every
    file's blake2b against the catalog AFTER copying (bit-rot in the
    repository or a torn copy fails loudly — ValueError names the file —
    and the destination is left WITHOUT its _INDEX_DONE marker so a
    failed restore can never be queried). Returns {"files": n}."""
    cat_path = os.path.join(snap_dir, "SNAPSHOT.json")
    if not os.path.exists(cat_path):
        raise ValueError(f"no SNAPSHOT.json under {snap_dir}")
    with open(cat_path) as f:
        catalog = json.load(f)["files"]
    os.makedirs(dest_dir, exist_ok=True)
    # marker last: copy every non-marker file, verify, then the marker
    names = sorted(catalog, key=lambda r: (os.path.basename(r) == INDEX_MARKER, r))
    for rel in names:
        src = os.path.join(snap_dir, "files", rel)
        dst = os.path.join(dest_dir, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(src, dst)
        got = mf.file_checksum(dst)
        if got != catalog[rel]:
            os.remove(dst)
            raise ValueError(
                f"restore checksum mismatch for {rel}: {got} != {catalog[rel]}"
            )
    return {"files": len(catalog)}
