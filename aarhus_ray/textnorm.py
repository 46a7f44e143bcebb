"""Frozen text normalization + tokenization (BASELINE.json:6 "tokenization").

Frozen v1 semantics (SURVEY.md §2.2): NFKC normalize, casefold, then tokens
are maximal runs of ``[a-z0-9]+``. No stemming, no stopword removal — any
change here changes doc lengths, dfs and therefore the top-k goldens.

Query text goes through exactly the same code objects (SURVEY.md §3.2 —
"MUST be the same code objects").
"""

from __future__ import annotations

import re
import unicodedata

TOKEN_RE = re.compile(r"[a-z0-9]+")

# The DuckDB oracles' stand-in for ``tokenize``: the [a-z0-9]+ runs of a
# ``text`` column, empty strings included (callers drop them).
# ASCII-ONLY: lower(text) replaces NFKC + casefold, and the two agree only
# on plain ASCII; non-ASCII text (ß, ligatures, fullwidth digits) would
# diverge. Every corpus the oracles run on is checked to be ASCII
# (tests/test_functions.py::test_driver_corpus_is_ascii).
TOKENIZE_SQL = "regexp_split_to_array(lower(text), '[^a-z0-9]+')"


def normalize_text(text: str) -> str:
    return unicodedata.normalize("NFKC", text).casefold()


def tokenize(text: str) -> list[str]:
    """Normalized-then-tokenized terms of one document or query."""
    return TOKEN_RE.findall(normalize_text(text))


def tokenize_batch(texts) -> list[list[str]]:
    """Vectorized-ish helper: tokenize an iterable of strings."""
    norm = unicodedata.normalize
    find = TOKEN_RE.findall
    return [find(norm("NFKC", t).casefold()) if t else [] for t in texts]


def tokenize_flat(col, doc_ids):
    """Flat (term, doc_id) pairs + per-row token COUNTS, Arrow-native.

    Returns ``(flat_terms: pa.StringArray, flat_docs: np.uint64[],
    counts: np.int64[] per input row)``. ORDER CONTRACT (load-bearing for
    the n-gram ops — repetition_signals, substring_dup_spans): each doc's
    tokens appear CONTIGUOUSLY and IN DOCUMENT ORDER, identical to
    ``tokenize_batch``; only the order of DOCS relative to each other is
    unspecified (mixed batches emit all-ASCII rows first). Order-sensitive
    callers must therefore segment by flat_docs, never assume doc_id
    monotonicity. This is the hot-path form of ``tokenize_batch``: for ASCII
    rows (the overwhelming case for web text after extraction) NFKC is
    the identity and casefold == lower, so the whole pipeline runs as
    Arrow kernels (ascii_lower → split_pattern_regex → list_flatten)
    with ZERO per-token Python objects — the allocation storm that made
    the build memory-bandwidth-bound. Non-ASCII rows take the frozen
    Python path (``tokenize_batch``) row-by-row, so outputs are
    byte-identical to the batch form (property-tested in
    tests/test_pipeline.py)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    doc_ids = np.asarray(doc_ids, dtype=np.uint64)
    n = len(col)
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return pa.array([], pa.string()), np.empty(0, np.uint64), counts
    ascii_mask = np.asarray(pc.string_is_ascii(col).to_numpy(zero_copy_only=False), dtype=bool)

    def _arrow_part(sub: pa.Array, sub_docs: np.ndarray):
        """Pure-numpy byte-level tokenizer over the Arrow string buffer —
        ~7× Arrow's split_pattern_regex and allocation-free per token:
        lowercase via +32 on A–Z bytes, token runs from an [a-z0-9] byte
        mask (run breaks forced at row boundaries), the flat token array
        rebuilt zero-copy-ish via StringArray.from_buffers. Valid only for
        ASCII rows (caller guarantees; UTF-8 continuation bytes never
        appear in the buffer)."""
        if sub.null_count or pa.types.is_large_string(sub.type):
            # nulls / large_string: rare — take the frozen Python path
            tk = tokenize_batch(t if t is not None else "" for t in sub.to_pylist())
            c = np.fromiter((len(t) for t in tk), dtype=np.int64, count=len(tk))
            flat = pa.array([w for t in tk for w in t], pa.string())
            return flat, np.repeat(sub_docs, c), c
        bufs = sub.buffers()
        offs = np.frombuffer(bufs[1], dtype=np.int32)[sub.offset : sub.offset + len(sub) + 1].astype(np.int64)
        data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
        lo, hi = int(offs[0]), int(offs[-1])
        b = data[lo:hi].copy()
        offs = offs - lo
        if len(b) == 0:
            return pa.array([], pa.string()), np.empty(0, np.uint64), np.zeros(len(sub), np.int64)
        upper = (b >= 65) & (b <= 90)
        b[upper] += 32
        mask = ((b >= 97) & (b <= 122)) | ((b >= 48) & (b <= 57))
        prev = np.empty_like(mask)
        prev[0] = False
        prev[1:] = mask[:-1]
        row_starts = offs[:-1]
        prev[row_starts[row_starts < len(b)]] = False  # rows are independent
        starts = np.flatnonzero(mask & ~prev)
        nxt = np.empty_like(mask)
        nxt[-1] = False
        nxt[:-1] = mask[1:]
        row_last = offs[1:] - 1
        nxt[row_last[(row_last >= 0) & (row_last < len(b))]] = False
        ends = np.flatnonzero(mask & ~nxt) + 1
        lens = ends - starts
        out_offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        flat = pa.StringArray.from_buffers(
            len(starts), pa.py_buffer(out_offsets.tobytes()), pa.py_buffer(b[mask].tobytes())
        )
        parent = np.searchsorted(offs, starts, side="right") - 1
        c = np.bincount(parent, minlength=len(sub)).astype(np.int64)
        return flat, sub_docs[parent], c

    if ascii_mask.all():
        flat, flat_docs, counts = _arrow_part(col, doc_ids)
        return flat, flat_docs, counts

    parts_t, parts_d = [], []
    a_idx = np.flatnonzero(ascii_mask)
    na_idx = np.flatnonzero(~ascii_mask)
    if len(a_idx):
        f, fd, c = _arrow_part(col.take(pa.array(a_idx)), doc_ids[a_idx])
        counts[a_idx] = c
        parts_t.append(f)
        parts_d.append(fd)
    if len(na_idx):
        tk = tokenize_batch(col.take(pa.array(na_idx)).to_pylist())
        c = np.fromiter((len(t) for t in tk), dtype=np.int64, count=len(tk))
        counts[na_idx] = c
        parts_t.append(pa.array([w for t in tk for w in t], pa.string()))
        parts_d.append(np.repeat(doc_ids[na_idx], c))
    flat = pa.concat_arrays([p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in parts_t])
    return flat, np.concatenate(parts_d).astype(np.uint64), counts
