"""Posting-list construction + salted-key merge + segment assembly
(BASELINE.json:6 — "per-partition posting-list construction with delta +
varint (Stream-VByte) compressed docID gaps and block-max skip lists; a
groupby(term)-aggregate shuffle with salted-key skew splitting merges
partial postings into globally sorted segments").

The merge is an external (disk) shuffle with one map side and one reduce
side; build and compaction both use it:

1. Map: ``PostingsEncoder`` turns one pid's docs into one encoded partial
   row per (term, salt), in whole-batch array passes: one LEB128 pass per
   column, and every output column is a take at the (term, salt) run
   starts or an (offsets, blob) buffer pair, with no per-row Python loop.
   Partials are pre-aggregated and varint-compressed
   before the exchange (SURVEY.md §4.1), ~10× smaller than raw
   (term, doc, tf) triples. Heavy (Zipf-head) terms get
   ``salt = pid * n_salts // P`` — a function of the doc partition, NOT
   random — so each salt shard owns a contiguous, already-sorted docID
   subrange and shard concatenation at query time is docID-ordered with
   no re-sort (SURVEY.md §4.2). Light terms get
   ``salt = blake2b64(term) % n_salts`` (their whole list stays in one
   shard; hashing balances the reducers). The exchange key is
   ``bucket = seg_id * n_salts + salt``. ``write_partials`` stores the
   pid's partials as ``partials/pid=NNNN.arrow``: one Arrow IPC record
   batch per bucket, bucket ids in the footer metadata.

2. Reduce: ``assemble_from_disk_batch`` runs one task per bucket — the
   salted-key skew split IS the reducer granularity, so the heaviest
   term's merge spreads over n_salts tasks. Each bucket mmaps its batch
   from every pid file and ``assemble_segment`` merges the whole bucket at
   once: one segmented decode of the sorted rows' concatenated blobs (read
   from the Arrow value buffers), then one ``codecs.encode_postings_many``
   call that encodes every term with its block-max skips. The dict columns
   come from the run starts and the kernel's per-term lengths; pos.bin is
   the sorted rows' pos blobs back to back. Only a term whose partials
   interleave (the argsort fallback) gets a per-term fix-up of its
   positions. It writes
   ``segments/seg=BBBB/{dict.parquet,postings.bin,skips.bin}``
   atomically and appends a manifest row. Segments stay globally
   term-sorted (seg_id is the major key); a heavy term's full list is the
   salt-ordered concatenation of its shards, performed zero-cost on
   decoded arrays by the query scorer. Because a shard only knows its
   LOCAL df, the dict stores df_shard and skips store block max_tf; the
   scorer sums df across a term's shards and derives idf / block bounds at
   load time (the standard distributed-index split of local vs global
   statistics).

Segment bytes do not depend on how a bucket's partials were split across
map outputs: assembly orders rows by (term, salt, min_doc_id), and the
partials of one (term, bucket) own disjoint docID ranges.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import codecs
from ..partition import DOC_ID_PARTITION_SHIFT, hash64
from ..textnorm import tokenize_flat
from ..state import manifest as mf

def _binary_array(offsets: np.ndarray, blob: bytes) -> pa.Array:
    """Binary array whose row i is ``blob[offsets[i]:offsets[i + 1]]``,
    built straight from the (offsets, data) buffers; ``offsets[0]`` is 0."""
    if int(offsets[-1]) > np.iinfo(np.int32).max:
        raise ValueError("binary partial column exceeds 2 GiB")
    return pa.Array.from_buffers(
        pa.binary(),
        len(offsets) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(offsets, dtype=np.int32)), pa.py_buffer(blob)],
    )


def seg_dir(out_dir: str, seg_id: int) -> str:
    return os.path.join(out_dir, "segments", f"seg={seg_id:04d}")


def partials_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "partials", f"pid={pid:04d}.arrow")


class PostingsEncoder:
    """Map-side encoder: (doc_id, text) batches → encoded partial postings.

    A plain object, not a Ray stage: a build makes one and passes it to
    every ``dedup_assign_write`` call (one per pid group), and compaction
    passes one to each of its per-docs-file tasks, which call it on their
    docs (``__call__``) or flat tokens (``encode_flat``)."""

    def __init__(
        self,
        boundaries: list[str],
        heavy_terms: list[str],
        num_partitions: int,
        n_salts: int,
        pid_offset: int = 0,
        positions: bool = False,
    ):
        self.boundaries = np.array(boundaries, dtype=object)
        self.heavy = frozenset(heavy_terms)
        self.P = num_partitions
        self.n_salts = max(1, n_salts)
        # delta generations of an incremental index encode over a shifted
        # pid range [offset, offset+P); the heavy salt must be computed on
        # the LOCAL pid so it stays in [0, n_salts)
        self.pid_offset = pid_offset
        # positional sidecar: per posting [count, first_pos, deltas...] as
        # self-delimiting varints — byte-sliceable at posting boundaries,
        # so partials concat at merge exactly like the docID blobs
        self.positions = positions

    def _salt_of_pid(self, pids: np.ndarray) -> np.ndarray:
        local = pids.astype(np.uint64) - np.uint64(self.pid_offset)
        return (local * np.uint64(self.n_salts) // np.uint64(self.P)).astype(np.uint32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        flat_terms, flat_docs, _ = tokenize_flat(batch["text"], doc_ids)
        return self.encode_flat(flat_terms, flat_docs)

    def encode_flat(self, flat_terms: pa.Array, flat_docs: np.ndarray) -> pa.Table:
        """Flat (term, doc) pairs → one encoded partial row per (term, salt).

        Arrow-native hot path (round 2): tf counting is an Arrow
        ``group_by(term, doc).count`` + ``sort_by`` — tokens never become
        Python objects (the per-token allocation storm made the round-1
        pandas groupby both slow and memory-bandwidth-bound). Tokens are
        ASCII by construction ([a-z0-9]+), so Arrow's bytewise string sort
        equals Python's codepoint sort. Per-TERM work (heavy lookup, light
        salt hash, segment assignment) runs on the ~vocabulary-sized run
        list; the output columns are index arrays and (offsets, blob)
        buffers over whole-batch encodes, with no per-row loop."""
        if len(flat_terms) == 0:
            return pa.Table.from_pylist([], schema=self._schema())
        if self.positions:
            # within-doc token index: every tokenizer path keeps a doc's
            # tokens contiguous and in document order, so positions fall
            # out of the flat run boundaries
            nf = len(flat_docs)
            dchange = np.ones(nf, dtype=bool)
            dchange[1:] = flat_docs[1:] != flat_docs[:-1]
            rs = np.flatnonzero(dchange)
            flat_pos = np.arange(nf, dtype=np.int64) - np.repeat(rs, np.diff(np.append(rs, nf)))
            tf_tbl = (
                pa.table(
                    {
                        "term": flat_terms,
                        "doc": pa.array(flat_docs, pa.uint64()),
                        "pos": pa.array(flat_pos, pa.int64()),
                    }
                )
                .group_by(["term", "doc"], use_threads=False)
                # hash_list keeps encounter order == ascending positions
                .aggregate([("doc", "count"), ("pos", "list")])
                .sort_by([("term", "ascending"), ("doc", "ascending")])
            )
        else:
            tf_tbl = (
                pa.table({"term": flat_terms, "doc": pa.array(flat_docs, pa.uint64())})
                .group_by(["term", "doc"], use_threads=False)
                .aggregate([("doc", "count")])
                .sort_by([("term", "ascending"), ("doc", "ascending")])
            )
        terms_arr = tf_tbl["term"].combine_chunks()
        docs = tf_tbl["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tfs = tf_tbl["doc_count"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(docs)
        pids = (docs >> np.uint64(DOC_ID_PARTITION_SHIFT)).astype(np.uint32)
        term_change = np.ones(n, dtype=bool)
        if n > 1:
            ne = pc.not_equal(terms_arr.slice(1), terms_arr.slice(0, n - 1))
            term_change[1:] = np.asarray(ne.to_numpy(zero_copy_only=False), dtype=bool)
        term_starts = np.flatnonzero(term_change)
        run_id = np.cumsum(term_change) - 1  # per-row index into the term-run list
        run_terms = terms_arr.take(pa.array(term_starts)).to_pylist()
        n_runs = len(run_terms)
        run_heavy = np.fromiter((t in self.heavy for t in run_terms), dtype=bool, count=n_runs)
        # heavy: docID-range salt (shards stay sorted + concatenable);
        # light: term-hash salt (whole list in one shard, reducers balanced)
        run_light = np.fromiter(
            (hash64(t) % self.n_salts for t in run_terms), dtype=np.uint32, count=n_runs
        )
        salts = np.where(
            run_heavy[run_id], self._salt_of_pid(pids), run_light[run_id]
        ).astype(np.uint32)
        run_seg = (
            np.searchsorted(self.boundaries, np.asarray(run_terms, dtype=object), side="right")
            if len(self.boundaries)
            else np.zeros(n_runs, np.int64)
        )
        # contiguous (term, salt) runs: terms are sorted; within a term,
        # docs ascend and the heavy salt is monotone in pid=doc>>40, so
        # salt runs are contiguous too.
        key_change = term_change.copy()
        if n > 1:
            key_change[1:] |= salts[1:] != salts[:-1]
        starts = np.flatnonzero(key_change)
        # Whole-batch vectorized encode, then per-run byte slicing: partials
        # use self-delimiting LEB128 varints (byte-sliceable at any value
        # boundary) so ONE encode pass serves every run; Stream-VByte is
        # applied at final segment assembly where lists are whole
        # (SURVEY.md §2.9 anticipated exactly this split).
        gaps = np.empty_like(docs)
        gaps[0] = docs[0]
        np.subtract(docs[1:], docs[:-1], out=gaps[1:])
        gaps[starts] = docs[starts]  # run-start gap = absolute docID
        doc_blob, doc_lens = codecs.varint_encode_with_lens(gaps)
        tf_blob, tf_lens = codecs.varint_encode_with_lens(tfs)
        doc_off = np.concatenate([[0], np.cumsum(doc_lens)])
        tf_off = np.concatenate([[0], np.cumsum(tf_lens)])
        if self.positions:
            # combined stream: per posting i, slot CS[i] holds its count,
            # followed by first-pos-absolute then ascending deltas. One
            # vectorized varint pass over the whole batch; runs slice at
            # posting boundaries via the slot→byte offset map.
            pl = tf_tbl["pos_list"].combine_chunks()
            V = pl.values.to_numpy(zero_copy_only=False).astype(np.int64)
            O = pl.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            npos = np.diff(O)
            assert (npos == tfs.astype(np.int64)).all()
            CS = O[:-1] + np.arange(n)  # count-slot index of posting i
            comb = np.empty(n + len(V), dtype=np.uint64)
            comb[CS] = npos.astype(np.uint64)
            deltas = V.copy()
            if len(V) > 1:
                deltas[1:] = V[1:] - V[:-1]
            list_starts = O[:-1][npos > 0]
            deltas[list_starts] = V[list_starts]  # first of list = absolute
            ivals = np.repeat(np.arange(n), npos)
            comb[np.arange(len(V)) + ivals + 1] = deltas.astype(np.uint64)
            pos_blob, pos_lens = codecs.varint_encode_with_lens(comb)
            pos_byte_off = np.concatenate([[0], np.cumsum(pos_lens)])
            slot_bounds = np.append(CS, n + len(V))  # posting i starts at slot CS[i]
        bounds = np.append(starts, n)  # output row r = flat rows [s, e)
        out_run = run_id[starts]  # term-run index of each output row
        seg = run_seg[out_run].astype(np.uint32)
        salt = salts[starts]
        return pa.table(
            {
                "term": terms_arr.take(pa.array(starts)),
                "seg_id": pa.array(seg, pa.uint32()),
                "salt": pa.array(salt, pa.uint32()),
                "bucket": pa.array(seg * np.uint32(self.n_salts) + salt, pa.uint32()),
                "min_doc_id": pa.array(docs[starts], pa.uint64()),
                "doc_ids": _binary_array(doc_off[bounds], doc_blob),
                "tfs": _binary_array(tf_off[bounds], tf_blob),
                "df_partial": pa.array(np.diff(bounds), pa.uint32()),
                "max_tf": pa.array(np.maximum.reduceat(tfs, starts), pa.uint32()),
                "pos": (
                    _binary_array(pos_byte_off[slot_bounds[bounds]], pos_blob)
                    if self.positions
                    else _binary_array(np.zeros(len(bounds), np.int64), b"")
                ),
            }
        )

    @staticmethod
    def _schema() -> pa.Schema:
        return pa.schema(
            [
                ("term", pa.string()),
                ("seg_id", pa.uint32()),
                ("salt", pa.uint32()),
                ("bucket", pa.uint32()),
                ("min_doc_id", pa.uint64()),
                ("doc_ids", pa.binary()),
                ("tfs", pa.binary()),
                ("df_partial", pa.uint32()),
                ("max_tf", pa.uint32()),
                ("pos", pa.binary()),
            ]
        )


def _binary_values(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of a binary column, read from its Arrow buffers:
    row i is ``values[offsets[i]:offsets[i + 1]]`` and ``values`` is the
    ordered concatenation of every row, with no per-row Python object."""
    arr = col.combine_chunks()
    _, off_buf, val_buf = arr.buffers()
    offsets = np.frombuffer(off_buf, dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    offsets = offsets.astype(np.int64)
    values = (
        np.frombuffer(val_buf, dtype=np.uint8)[offsets[0] : offsets[-1]]
        if val_buf is not None
        else np.empty(0, np.uint8)
    )
    return offsets - offsets[0], values


def _decode_partials_segmented(
    doc_blob: np.ndarray, tf_blob: np.ndarray, dfs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode MANY partials in two vectorized passes.

    ``doc_blob``/``tf_blob`` are the partials' gap and tf blobs
    concatenated in row order: one varint_decode each, then a segmented
    cumsum (each partial's first gap is its absolute min docID, so the
    running sum is corrected at every partial boundary). Returns
    (docs, tfs, starts) where starts[i] is the row offset of partial i in
    the flat arrays.
    """
    gaps = codecs.varint_decode(doc_blob)
    tfs = codecs.varint_decode(tf_blob)
    counts = np.asarray(dfs, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    run_cum = np.cumsum(gaps, dtype=np.uint64)
    # subtract, within each partial, the cumulative total of all previous
    # partials (run_cum[start-1]) so each partial restarts at its absolute
    # first docID
    corrections = np.zeros(len(counts), dtype=np.uint64)
    nz = starts > 0
    corrections[nz] = run_cum[starts[nz] - 1]
    docs = run_cum - np.repeat(corrections, counts)
    return docs, tfs, starts


def _sorted_runs(group: pa.Table):
    """Merge prep for one bucket: rows sorted by (term, salt, min_doc_id),
    all partials decoded segmented, term-run boundaries computed,
    within-run docID order verified (argsort fallback — partials own
    disjoint docID ranges, so ordered concat is already sorted in the
    normal case). Returns (run_terms, docs, tfs, run_row_starts,
    flat_starts, flat_ends, pos, run_perms): run_terms is the Arrow string
    array of each run's term; pos is (row byte offsets, values) of the
    positional blobs in merge order (None when the partials carry no
    positions); run_perms maps run index → the posting permutation the
    argsort fallback applied (positions must follow)."""
    n_rows = len(group)
    # Arrow-native (term, salt, min_doc_id) sort + one take: the previous
    # np.lexsort over a Python-object term array cost ~0.3s on a 90k-row
    # Zipf-head shard. UTF-8 byte order == codepoint order for all of
    # Unicode, so Arrow's string sort matches Python's exactly; the sort
    # keys are unique per row (disjoint pid doc ranges), so order is fully
    # determined either way.
    idx = pc.sort_indices(
        group,
        sort_keys=[("term", "ascending"), ("salt", "ascending"),
                   ("min_doc_id", "ascending")],
    )
    g = group.take(idx).combine_chunks()
    term_arr = g["term"].combine_chunks()
    dfs_s = g["df_partial"].to_numpy(zero_copy_only=False).astype(np.int64)
    pos = None
    if "pos" in g.column_names:
        pos_off, pos_vals = _binary_values(g["pos"])
        if len(pos_vals):
            pos = (pos_off, pos_vals)
    docs, tfs, row_flat_starts = _decode_partials_segmented(
        _binary_values(g["doc_ids"])[1], _binary_values(g["tfs"])[1], dfs_s
    )
    # run boundaries off dictionary CODES (C++ equality), never strings
    codes = term_arr.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    change = np.ones(n_rows, dtype=bool)
    change[1:] = codes[1:] != codes[:-1]
    run_row_starts = np.flatnonzero(change)
    run_terms = term_arr.take(pa.array(run_row_starts))
    flat_starts = row_flat_starts[run_row_starts]
    flat_ends = np.append(flat_starts[1:], len(docs))
    run_perms: dict[int, np.ndarray] = {}
    if len(docs) > 1:
        ok = docs[1:] > docs[:-1]
        ok[flat_starts[1:] - 1] = True  # run boundaries exempt
        if not ok.all():
            # rare: only runs holding an out-of-order pair are re-sorted
            bad_runs = np.unique(np.searchsorted(flat_starts, np.flatnonzero(~ok), "right") - 1)
            for ri in bad_runs.tolist():
                rs, re_ = flat_starts[ri], flat_ends[ri]
                o = np.argsort(docs[rs:re_], kind="stable")
                docs[rs:re_] = docs[rs:re_][o]
                tfs[rs:re_] = tfs[rs:re_][o]
                run_perms[ri] = o
    return (
        run_terms, docs, tfs, run_row_starts, flat_starts, flat_ends,
        pos, run_perms,
    )


def write_partials(out_dir: str, pid: int, partials: pa.Table) -> str:
    """Write one pid's map-output file ``partials/pid=NNNN.arrow`` (tmp +
    rename) and return its path: one Arrow IPC record batch per bucket,
    the bucket ids in the schema metadata, so the reduce side reads just
    its batch from every file."""
    import json

    import pyarrow.ipc as ipc

    path = partials_path(out_dir, pid)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    bcol = partials["bucket"].combine_chunks()
    buckets = sorted(set(bcol.to_pylist()))
    schema = partials.schema.with_metadata({b"buckets": json.dumps(buckets).encode()})
    tmp = path + ".tmp"
    with ipc.RecordBatchFileWriter(tmp, schema) as w:
        if buckets:
            # one stable gather + zero-copy slices instead of a full table
            # filter per bucket (O(rows) vs O(buckets × rows)); the stable
            # argsort keeps each bucket's rows in encoder order
            b_np = bcol.to_numpy(zero_copy_only=False)
            order = np.argsort(b_np, kind="stable")
            by_bucket = partials.take(pa.array(order))
            sb = b_np[order]
            for b in buckets:
                lo = int(np.searchsorted(sb, b, "left"))
                hi = int(np.searchsorted(sb, b, "right"))
                w.write_table(by_bucket.slice(lo, hi - lo).combine_chunks())
    os.replace(tmp, path)
    return path


def _permute_pos_runs(
    pos_bin: np.ndarray,
    run_off: np.ndarray,
    pos_lens: np.ndarray,
    dfs: np.ndarray,
    run_perms: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Re-order the positional sublists of the runs the argsort fallback
    permuted (rare), so positions follow their postings; every other run's
    bytes are kept as they are. Returns the new pos.bin and run lengths."""
    parts, at = [], 0
    pos_lens = pos_lens.copy()
    for r in sorted(run_perms):
        lo, hi = int(run_off[r]), int(run_off[r + 1])
        vals = codecs.varint_decode(pos_bin[lo:hi])
        bounds = codecs.pos_bounds(vals, int(dfs[r]))
        vals = np.concatenate([vals[bounds[i] : bounds[i + 1]] for i in run_perms[r]])
        fixed = np.frombuffer(codecs.varint_encode(vals), dtype=np.uint8)
        parts += [pos_bin[at:lo], fixed]
        pos_lens[r] = len(fixed)
        at = hi
    parts.append(pos_bin[at:])
    return np.concatenate(parts), pos_lens


def assemble_segment(out_dir: str, sid: int, group: pa.Table) -> None:
    """Merge one bucket's partials into ``segments/seg=BBBB/`` (tmp dir +
    rename) and append its segment manifest row."""
    timer = mf.StageTimer()
    sdir = seg_dir(out_dir, sid)
    (run_terms, all_docs, all_tfs, run_rows, flat_starts, flat_ends,
     pos, run_perms) = _sorted_runs(group)
    postings, skips, blob_lens, skip_lens = codecs.encode_postings_many(
        all_docs, all_tfs, flat_starts, flat_ends
    )
    dict_tbl = pa.table(
        {
            "term": run_terms,
            "df": pa.array(flat_ends - flat_starts, pa.uint64()),
            "offset": pa.array(codecs.exclusive_cumsum(blob_lens), pa.uint64()),
            "length": pa.array(blob_lens, pa.uint64()),
            "skip_offset": pa.array(codecs.exclusive_cumsum(skip_lens), pa.uint64()),
            "skip_length": pa.array(skip_lens, pa.uint64()),
            "max_tf": pa.array(np.maximum.reduceat(all_tfs, flat_starts), pa.uint32()),
        }
    )
    if pos is not None:
        # positions merge = the same ordered concat as the docID blobs
        # (sublists are self-contained [count, first, deltas]), so pos.bin
        # is the sorted rows' pos blobs back to back
        row_off, pos_bin = pos
        run_off = row_off[np.append(run_rows, len(group))]
        pos_lens = np.diff(run_off)
        if run_perms:
            pos_bin, pos_lens = _permute_pos_runs(
                pos_bin, run_off, pos_lens, flat_ends - flat_starts, run_perms
            )
        # positional sidecar columns exist ONLY on positional builds so
        # the default index layout stays byte-identical
        dict_tbl = dict_tbl.append_column(
            "pos_offset", pa.array(codecs.exclusive_cumsum(pos_lens), pa.uint64())
        ).append_column("pos_length", pa.array(pos_lens, pa.uint64()))
    tmp = sdir + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(dict_tbl, os.path.join(tmp, "dict.parquet"))
    with open(os.path.join(tmp, "postings.bin"), "wb") as f:
        f.write(postings)
    with open(os.path.join(tmp, "skips.bin"), "wb") as f:
        f.write(skips)
    if pos is not None:
        with open(os.path.join(tmp, "pos.bin"), "wb") as f:
            f.write(pos_bin)
    if os.path.isdir(sdir):
        import shutil

        shutil.rmtree(sdir)
    os.replace(tmp, sdir)
    files = ["dict.parquet", "postings.bin", "skips.bin"]
    if pos is not None:
        files.append("pos.bin")
    mf.append_manifest(
        out_dir,
        mf.ManifestRow(
            stage="segment",
            partition_id=sid,
            input_rows=len(group),
            output_rows=len(flat_starts),
            bytes_out=sum(os.path.getsize(os.path.join(sdir, f)) for f in files),
            wall_s=timer.elapsed(),
            checksum=mf.file_checksum(os.path.join(sdir, "postings.bin")),
            status="done",
        ),
    )


def assemble_from_disk_batch(
    batch: pa.Table, *, out_dir: str, skip: frozenset = frozenset()
) -> pa.Table:
    """Reduce side of the disk exchange, one task per block of bucket ids
    (use with ``functools.partial``): each bucket random-accesses its record
    batch from every ``partials/pid=*.arrow`` (zero-copy mmap reads) and is
    assembled into its segment. Buckets in ``skip`` already have a verified
    segment and are left as they are; buckets no partial reached write
    nothing. Returns the ids of the buckets that have a segment. The
    footers are opened fresh per task — milliseconds of mmap work, and
    immune to stale readers when the same out_dir is rebuilt inside a
    reused worker process."""
    import glob
    import json

    import pyarrow.ipc as ipc

    ids = batch["id"].to_pylist()
    have = [sid for sid in ids if sid in skip]
    todo = [sid for sid in ids if sid not in skip]
    readers = []  # (reader, {bucket: batch index}) per pid map-output file
    for path in sorted(glob.glob(os.path.join(out_dir, "partials", "pid=*.arrow"))) if todo else ():
        r = ipc.RecordBatchFileReader(pa.memory_map(path))
        buckets = json.loads((r.schema.metadata or {}).get(b"buckets", b"[]"))
        readers.append((r, {int(b): i for i, b in enumerate(buckets)}))
    for sid in todo:
        # strip per-file footer metadata (the bucket index differs per pid)
        # so the batches share one schema
        parts = [
            r.get_batch(idx[sid]).replace_schema_metadata(None)
            for r, idx in readers
            if sid in idx
        ]
        if parts:
            assemble_segment(out_dir, sid, pa.Table.from_batches(parts))
            have.append(sid)
    return pa.table({"bucket": pa.array(sorted(have), pa.uint32())})
