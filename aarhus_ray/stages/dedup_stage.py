"""Per-partition dedup + doc_id assignment: the map side of the build.

Runs as ``groupby("pid").map_groups(partial(dedup_assign_write, ...))`` —
the only all-to-all of the build. Within one corpus partition (all rows of
a url hash-collide here by construction):

- exact url dedup, winner = max warc_ts, tie → larger blake2b64(text)
  (frozen; SURVEY.md §2.7)
- rows sorted by url, then ``doc_id = (pid << 40) | row`` (SURVEY.md §1.3)
- doclen computed here (tokens are NOT stored; compaction re-tokenizes
  text — storage beats recompute for a cheap regex)
- writes ``docs/pid=NNNN.parquet`` (the docs file doubles as the doclens
  table via column projection) and ``partials/pid=NNNN.arrow`` (the disk
  exchange's map output), then appends the pid's manifest row. The pid is
  the build's resume unit.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..partition import DOC_ID_PARTITION_SHIFT, hash64_column
from ..textnorm import tokenize_flat
from ..state import manifest as mf
from .postings_stage import write_partials

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.uint64()),
        ("url", pa.string()),
        ("doclen", pa.uint32()),
        ("text", pa.string()),
        ("lang", pa.string()),  # facet sidecar (query-time filters); "" when
        # the source carried no lang column
        ("warc_ts", pa.int64()),  # numeric docvalue sidecar (µs since epoch):
        # the winner row's crawl timestamp — query-time sort-by-field and
        # range filters read this column, pruned, exactly like the facet
    ]
)


def docs_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "docs", f"pid={pid:04d}.parquet")


def dedup_assign_write(group: pa.Table, *, out_dir: str, encoder) -> pa.Table:
    """One pid unit (use with ``functools.partial``): dedup + doc_id
    assignment, then both of the pid's checkpoint files — the docs file and,
    from the same flat tokenization (no second pass), the encoded partials
    of ``encoder`` (a PostingsEncoder) as the disk exchange's map output.

    The pid's manifest row is appended only after BOTH files are renamed
    into place, and it carries both checksums: a crash between the two
    writes leaves no row, so resume re-runs the pid."""
    timer = mf.StageTimer()
    pid = int(group["pid"][0].as_py())
    urls = np.asarray(group["url"].to_pylist(), dtype=object)
    ts_col = group.column("warc_ts")
    if isinstance(ts_col, pa.ChunkedArray):
        ts_col = ts_col.combine_chunks()
    ts = ts_col.cast(pa.int64()).to_numpy(zero_copy_only=False)
    texts = group["text"].to_pylist()
    tie = hash64_column(texts)
    # ascending (url, ts, tie): the LAST row of each url run is the winner
    order = np.lexsort((tie, ts, urls))
    urls_s = urls[order]
    is_last = np.ones(len(urls_s), dtype=bool)
    if len(urls_s) > 1:
        is_last[:-1] = urls_s[:-1] != urls_s[1:]
    winners = order[is_last]  # already in ascending-url order
    n = len(winners)
    doc_ids = (np.uint64(pid) << np.uint64(DOC_ID_PARTITION_SHIFT)) + np.arange(
        n, dtype=np.uint64
    )
    kept_texts = [texts[i] for i in winners]
    text_arr = pa.array(kept_texts, pa.string())
    if "lang" in group.column_names:
        langs = group["lang"].to_pylist()
        lang_arr = pa.array([langs[i] for i in winners], pa.string())
    else:
        lang_arr = pa.array([""] * n, pa.string())
    # Arrow-native tokenization: doclens from per-row counts, flat
    # (term, doc) pairs passed straight to the encoder — no per-token
    # Python objects anywhere in the build hot path
    flat_terms, flat_docs, counts = tokenize_flat(text_arr, doc_ids)
    doclens = counts.astype(np.uint32)
    out = pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.uint64()),
            "url": pa.array(urls_s[is_last], pa.string()),
            "doclen": pa.array(doclens, pa.uint32()),
            "text": text_arr,
            "lang": lang_arr,
            "warc_ts": pa.array(ts[winners], pa.int64()),
        }
    )
    path = docs_path(out_dir, pid)
    tmp = path + ".tmp"
    pq.write_table(out, tmp)
    os.replace(tmp, path)
    ppath = write_partials(out_dir, pid, encoder.encode_flat(flat_terms, flat_docs))
    mf.append_manifest(
        out_dir,
        mf.ManifestRow(
            stage="docs",
            partition_id=pid,
            input_rows=len(group),
            output_rows=n,
            bytes_out=os.path.getsize(path),
            wall_s=timer.elapsed(),
            checksum=mf.file_checksum(path),
            status="done",
            doclen_sum=int(doclens.sum()),
            partials_checksum=mf.file_checksum(ppath),
        ),
    )
    return pa.table({"pid": pa.array([pid], pa.uint32())})
