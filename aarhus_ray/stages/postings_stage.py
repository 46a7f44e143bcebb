"""Posting-list construction + salted-key merge + segment assembly
(BASELINE.json:6 — "per-partition posting-list construction with delta +
varint (Stream-VByte) compressed docID gaps and block-max skip lists; a
groupby(term)-aggregate shuffle with salted-key skew splitting merges
partial postings into globally sorted segments").

The merge is an external (disk) shuffle with one map side and one reduce
side; build and compaction both use it:

1. Map: ``PostingsEncoder`` turns one pid's docs into one encoded partial
   row per (term, salt). Partials are pre-aggregated and varint-compressed
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
   from every pid file and ``assemble_segment`` merges each term's
   partials (vectorized segmented decode), encodes with block-max skips,
   writes ``segments/seg=BBBB/{dict.parquet,postings.bin,skips.bin}``
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

PARTIAL_COLUMNS = [
    "term", "seg_id", "salt", "bucket", "min_doc_id",
    "doc_ids", "tfs", "df_partial", "max_tf", "pos",
]


def seg_dir(out_dir: str, seg_id: int) -> str:
    return os.path.join(out_dir, "segments", f"seg={seg_id:04d}")


def partials_path(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "partials", f"pid={pid:04d}.arrow")


class PostingsEncoder:
    """Actor-pool stage: (doc_id, text) batches → encoded partial postings."""

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
        from ..affinity import pin_worker

        pin_worker()  # latched: once per worker process
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
        list, not per row."""
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
        ends = np.append(starts[1:], n)
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
        run_max_tf = np.maximum.reduceat(tfs, starts)
        out_run = run_id[starts]  # term-run index of each output row
        rows = {k: [] for k in PARTIAL_COLUMNS}
        for ri, (s, e) in enumerate(zip(starts, ends)):
            tr = int(out_run[ri])
            salt = int(salts[s])
            seg = int(run_seg[tr])
            rows["term"].append(run_terms[tr])
            rows["seg_id"].append(seg)
            rows["salt"].append(salt)
            rows["bucket"].append(seg * self.n_salts + salt)
            rows["min_doc_id"].append(int(docs[s]))
            rows["doc_ids"].append(doc_blob[doc_off[s] : doc_off[e]])
            rows["tfs"].append(tf_blob[tf_off[s] : tf_off[e]])
            rows["df_partial"].append(e - s)
            rows["max_tf"].append(int(run_max_tf[ri]))
            rows["pos"].append(
                pos_blob[pos_byte_off[slot_bounds[s]] : pos_byte_off[slot_bounds[e]]]
                if self.positions
                else b""
            )
        return pa.table(
            {
                "term": pa.array(rows["term"], pa.string()),
                "seg_id": pa.array(rows["seg_id"], pa.uint32()),
                "salt": pa.array(rows["salt"], pa.uint32()),
                "bucket": pa.array(rows["bucket"], pa.uint32()),
                "min_doc_id": pa.array(rows["min_doc_id"], pa.uint64()),
                "doc_ids": pa.array(rows["doc_ids"], pa.binary()),
                "tfs": pa.array(rows["tfs"], pa.binary()),
                "df_partial": pa.array(rows["df_partial"], pa.uint32()),
                "max_tf": pa.array(rows["max_tf"], pa.uint32()),
                "pos": pa.array(rows["pos"], pa.binary()),
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


def _decode_partials_segmented(
    doc_blobs: list[bytes], tf_blobs: list[bytes], dfs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode MANY partial blobs in two vectorized passes.

    Concatenates all gap blobs → one varint_decode → segmented cumsum
    (each partial's first gap is its absolute min docID, so the running sum
    is corrected at every partial boundary). Returns (docs, tfs, starts)
    where starts[i] is the row offset of partial i in the flat arrays.
    """
    gaps = codecs.varint_decode(b"".join(doc_blobs))
    tfs = codecs.varint_decode(b"".join(tf_blobs))
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
    normal case). Returns (t_s, docs, tfs, run_row_starts, flat_starts,
    flat_ends, pos_blobs_sorted, run_perms): pos_blobs_sorted
    is the per-row positional blobs in merge order (None when the partials
    carry no positions), run_perms maps run index → the posting
    permutation the argsort fallback applied (positions must follow)."""
    import pyarrow.compute as pc

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
    doc_blobs = g["doc_ids"].to_pylist()
    tf_blobs = g["tfs"].to_pylist()
    pos_blobs_sorted = None
    if "pos" in g.column_names:
        pos_raw = g["pos"].to_pylist()
        if any(pos_raw):
            pos_blobs_sorted = pos_raw
    docs, tfs, row_flat_starts = _decode_partials_segmented(doc_blobs, tf_blobs, dfs_s)
    # run boundaries off dictionary CODES (C++ equality), never strings
    codes = term_arr.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    change = np.ones(n_rows, dtype=bool)
    change[1:] = codes[1:] != codes[:-1]
    run_row_starts = np.flatnonzero(change)
    # term STRINGS materialize only at run starts — the single consumer
    # indexes t_s[run_row_starts[r]], so a dict keyed by those rows keeps
    # the indexing API without a 90k-object array
    t_s = dict(
        zip(
            (int(i) for i in run_row_starts),
            term_arr.take(pa.array(run_row_starts)).to_pylist(),
        )
    )
    flat_starts = row_flat_starts[run_row_starts]
    flat_ends = np.append(flat_starts[1:], len(docs))
    run_perms: dict[int, np.ndarray] = {}
    if len(docs) > 1:
        ok = docs[1:] > docs[:-1]
        ok[flat_starts[1:] - 1] = True  # run boundaries exempt
        if not ok.all():
            for ri, (rs, re_) in enumerate(zip(flat_starts, flat_ends)):
                seg = docs[rs:re_]
                if len(seg) > 1 and not np.all(seg[1:] > seg[:-1]):
                    o = np.argsort(seg, kind="stable")
                    docs[rs:re_] = seg[o]
                    tfs[rs:re_] = tfs[rs:re_][o]
                    run_perms[ri] = o
    return (
        t_s, docs, tfs, run_row_starts, flat_starts, flat_ends,
        pos_blobs_sorted, run_perms,
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


def assemble_segment(out_dir: str, sid: int, group: pa.Table) -> None:
    """Merge one bucket's partials into ``segments/seg=BBBB/`` (tmp dir +
    rename) and append its segment manifest row."""
    from ..affinity import pin_worker

    pin_worker()  # latched: once per worker process
    timer = mf.StageTimer()
    sdir = seg_dir(out_dir, sid)
    (t_s, all_docs, all_tfs, run_rows, flat_starts, flat_ends,
     pos_blobs, run_perms) = _sorted_runs(group)
    dict_rows = {
        "term": [], "df": [], "offset": [], "length": [],
        "skip_offset": [], "skip_length": [], "max_tf": [],
    }
    postings_parts: list[bytes] = []
    skips_parts: list[bytes] = []
    pos_parts: list[bytes] = []
    pos_offsets: list[int] = []
    pos_lengths: list[int] = []
    p_off = 0
    s_off = 0
    pp_off = 0
    run_row_ends = np.append(run_rows[1:], len(group))
    for r, (fs, fe) in enumerate(zip(flat_starts, flat_ends)):
        docs = all_docs[fs:fe]
        tfs = all_tfs[fs:fe]
        blob, skips = codecs.encode_postings(docs, tfs)
        dict_rows["term"].append(t_s[run_rows[r]])
        dict_rows["df"].append(len(docs))
        dict_rows["offset"].append(p_off)
        dict_rows["length"].append(len(blob))
        dict_rows["skip_offset"].append(s_off)
        dict_rows["skip_length"].append(len(skips))
        dict_rows["max_tf"].append(int(tfs.max()))
        postings_parts.append(blob)
        skips_parts.append(skips)
        p_off += len(blob)
        s_off += len(skips)
        if pos_blobs is not None:
            # positions merge = the same ordered concat as the docID
            # blobs (sublists are self-contained [count, first, deltas])
            pos_run = b"".join(pos_blobs[run_rows[r] : run_row_ends[r]])
            perm = run_perms.get(r)
            if perm is not None:
                # rare out-of-order fallback: permute at posting level
                vals = codecs.varint_decode(pos_run)
                bounds = codecs.pos_bounds(vals, len(docs))
                vals = np.concatenate([vals[bounds[i] : bounds[i + 1]] for i in perm])
                pos_run = codecs.varint_encode_with_lens(vals)[0]
            pos_parts.append(pos_run)
            pos_offsets.append(pp_off)
            pos_lengths.append(len(pos_run))
            pp_off += len(pos_run)
    tmp = sdir + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    dict_tbl = pa.table(
        {
            "term": pa.array(dict_rows["term"], pa.string()),
            "df": pa.array(dict_rows["df"], pa.uint64()),
            "offset": pa.array(dict_rows["offset"], pa.uint64()),
            "length": pa.array(dict_rows["length"], pa.uint64()),
            "skip_offset": pa.array(dict_rows["skip_offset"], pa.uint64()),
            "skip_length": pa.array(dict_rows["skip_length"], pa.uint64()),
            "max_tf": pa.array(dict_rows["max_tf"], pa.uint32()),
        }
    )
    if pos_blobs is not None:
        # positional sidecar columns exist ONLY on positional builds so
        # the default index layout stays byte-identical
        dict_tbl = dict_tbl.append_column(
            "pos_offset", pa.array(pos_offsets, pa.uint64())
        ).append_column("pos_length", pa.array(pos_lengths, pa.uint64()))
    pq.write_table(dict_tbl, os.path.join(tmp, "dict.parquet"))
    with open(os.path.join(tmp, "postings.bin"), "wb") as f:
        f.write(b"".join(postings_parts))
    with open(os.path.join(tmp, "skips.bin"), "wb") as f:
        f.write(b"".join(skips_parts))
    if pos_blobs is not None:
        with open(os.path.join(tmp, "pos.bin"), "wb") as f:
            f.write(b"".join(pos_parts))
    if os.path.isdir(sdir):
        import shutil

        shutil.rmtree(sdir)
    os.replace(tmp, sdir)
    files = ["dict.parquet", "postings.bin", "skips.bin"]
    if pos_blobs is not None:
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
