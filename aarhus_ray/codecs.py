"""Index-encoding kernels: delta, Stream-VByte, LEB128 varint, block-max
skip lists (BASELINE.json:6 "delta + varint (Stream-VByte) compressed docID
gaps and block-max skip lists"). Pure NumPy, fully vectorized — no Ray here.

Stream-VByte (Lemire et al., "Stream VByte: faster byte-oriented integer
compression") splits control bits from data bytes: one control byte packs
four 2-bit length codes; the data stream holds each value's low bytes
little-endian. We use the 64-bit-capable **1-2-4-8 variant** (code c → the
value occupies 2**c bytes), because docIDs here are uint64
(``(partition_id << 40) | row``, SURVEY.md §1.3) and gaps across partition
boundaries exceed 32 bits. tf runs use classic LEB128 varint.

Posting-list blob format (frozen; per term) — three contiguous regions:
    [ svb control bytes for ALL gaps ][ svb data bytes ][ leb128 tfs ]
Gaps are plain deltas over the whole sorted docID list (the gap at a block
start is vs the previous block's LAST docID — identical to the whole-list
delta), so encode is one vectorized pass. Because SKIP_BLOCK (128) is a
multiple of 4, every full block owns exactly SKIP_BLOCK/4 control bytes and
block boundaries stay control-byte-aligned — blocks still decode
independently given the previous block's last doc_id from the skip list, so
Block-Max WAND can jump, while full-list decode is a single vectorized call.

Skip-list blob format (frozen; per term): n_blocks records of
    (last_doc_id: <u8, data_off: <u8, tf_off: <u8, count: <u4, max_tf: <u4)
data_off/tf_off are absolute offsets into the term's blob; a block's region
ends where the next block's begins (the first block's tf_off ends the data
region; the blob length ends the tf region). Skips store the block MAX TF,
not a score: BM25 block upper bounds need the GLOBAL idf, and with salted
(term × docID-range) shards a shard only knows its local df — the query
scorer sums df across a term's shards and derives
``tf_upper_bound(max_tf, idf)`` at load time (cheap, once per term).
"""

from __future__ import annotations

import sys

import numpy as np

from . import K1, B, SKIP_BLOCK

assert sys.byteorder == "little", "codecs assume a little-endian host"

_U8 = np.uint64
SKIP_DTYPE = np.dtype(
    [
        ("last_doc_id", "<u8"),
        ("data_off", "<u8"),
        ("tf_off", "<u8"),
        ("count", "<u4"),
        ("max_tf", "<u4"),
    ]
)


# ---------------------------------------------------------------- delta

def delta_encode(sorted_vals: np.ndarray, base: int = 0) -> np.ndarray:
    """Gaps of an ascending uint64 array; first gap is vs ``base``."""
    v = np.asarray(sorted_vals, dtype=np.uint64)
    out = np.empty_like(v)
    if len(v):
        out[0] = v[0] - _U8(base)
        np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def delta_decode(gaps: np.ndarray, base: int = 0) -> np.ndarray:
    g = np.asarray(gaps, dtype=np.uint64)
    return np.cumsum(g, dtype=np.uint64) + _U8(base)


# ---------------------------------------------------------------- Stream-VByte (1-2-4-8)

_SVB_LEN = np.array([1, 2, 4, 8], dtype=np.int64)


def svb_encode_streams(values: np.ndarray) -> tuple[bytes, bytes, np.ndarray]:
    """Encode uint64 values → (control_bytes, data_bytes, per-value lens)."""
    v = np.ascontiguousarray(values, dtype="<u8")
    n = len(v)
    if n == 0:
        return b"", b"", np.empty(0, dtype=np.int64)
    codes = np.zeros(n, dtype=np.uint8)
    codes[v > 0xFF] = 1
    codes[v > 0xFFFF] = 2
    codes[v > 0xFFFFFFFF] = 3
    lens = _SVB_LEN[codes]
    pad = (-n) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, np.uint8)])
    q = codes.reshape(-1, 4)
    control = (q[:, 0] | (q[:, 1] << 2) | (q[:, 2] << 4) | (q[:, 3] << 6)).astype(np.uint8)
    bytes8 = v.view(np.uint8).reshape(n, 8)
    mask = np.arange(8)[None, :] < lens[:, None]
    return control.tobytes(), bytes8[mask].tobytes(), lens


def svb_encode(values: np.ndarray) -> bytes:
    """Encode uint64 values → control stream || data stream."""
    control, data, _ = svb_encode_streams(values)
    return control + data


def svb_decode(buf: bytes | np.ndarray, n: int) -> np.ndarray:
    """Decode n uint64 values from an svb_encode blob."""
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    raw = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    nc = (n + 3) // 4
    return svb_decode_streams(raw[:nc], raw[nc:], n)


def svb_decode_streams(control: np.ndarray, data: np.ndarray, n: int) -> np.ndarray:
    """Decode n uint64 values from separate control/data streams."""
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if not isinstance(control, np.ndarray):
        control = np.frombuffer(control, dtype=np.uint8)
    if not isinstance(data, np.ndarray):
        data = np.frombuffer(data, dtype=np.uint8)
    nc = (n + 3) // 4
    codes = np.empty(nc * 4, dtype=np.uint8)
    codes[0::4] = control & 3
    codes[1::4] = (control >> 2) & 3
    codes[2::4] = (control >> 4) & 3
    codes[3::4] = (control >> 6) & 3
    lens = _SVB_LEN[codes[:n]]
    ends = np.cumsum(lens)
    out = np.zeros((n, 8), dtype=np.uint8)
    mask = np.arange(8)[None, :] < lens[:, None]
    out[mask] = data[: ends[-1]]
    return out.view("<u8").ravel().astype(np.uint64, copy=False)


# ---------------------------------------------------------------- LEB128 varint

def varint_encode(values: np.ndarray) -> bytes:
    return varint_encode_with_lens(values)[0]


def varint_encode_with_lens(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b"", np.empty(0, dtype=np.int64)
    # byte columns sized by the largest value (small tfs need one pass, not 10)
    width = max(1, -(-int(v.max()).bit_length() // 7))
    nb = np.ones(n, dtype=np.int64)
    for k in range(1, width):
        nb += v >= _U8(1 << (7 * k))
    out = np.empty((n, width), dtype=np.uint8)
    for k in range(width):
        np.bitwise_and(v >> _U8(7 * k), _U8(0x7F), casting="unsafe", out=out[:, k])
    cont = np.arange(width)[None, :] < (nb - 1)[:, None]
    out |= cont.astype(np.uint8) << 7
    sel = np.arange(width)[None, :] < nb[:, None]
    return out[sel].tobytes(), nb


def varint_decode(buf: bytes | np.ndarray) -> np.ndarray:
    data = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if len(data) == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = (data & 0x80) == 0
    ends = np.flatnonzero(is_last)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    out = np.zeros(len(ends), dtype=np.uint64)
    for k in range(int(lens.max())):
        m = lens > k
        out[m] |= (data[starts[m] + k].astype(np.uint64) & _U8(0x7F)) << _U8(7 * k)
    return out


def pos_bounds(vals: np.ndarray, df: int) -> np.ndarray:
    """Slot boundaries of a term's positional combined stream: posting i's
    sublist is vals[b[i]:b[i+1]] = [count, first_pos, ascending deltas...].
    Sequential by construction (each boundary depends on the previous
    count) — O(df) python loop, paid once per term and cached by callers;
    phrase-query terms are typically selective so df is small."""
    b = np.empty(df + 1, dtype=np.int64)
    idx = 0
    for j in range(df):
        b[j] = idx
        idx += 1 + int(vals[idx])
    b[df] = idx
    return b


# ---------------------------------------------------------------- posting blobs

def tf_upper_bound(tf, idf: float) -> float | np.ndarray:
    """dl-independent BM25 upper bound for a tf (the standard BMW bound:
    minimize the denominator over dl → k1*(1-b))."""
    tf = np.asarray(tf, dtype=np.float64)
    return idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B))


def exclusive_cumsum(lens: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive regions of the given lengths (int64)."""
    out = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=out[1:])
    return out


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray) -> tuple[bytes, bytes]:
    """(sorted doc_ids, tfs) → (postings_blob, skips_blob) of one term: the
    one-term call of ``encode_postings_many``."""
    n = len(doc_ids)
    postings, skips, _, _ = encode_postings_many(doc_ids, tfs, [0], [n])
    return postings, skips


def encode_postings_many(
    doc_ids: np.ndarray, tfs: np.ndarray, starts, ends
) -> tuple[bytes, bytes, np.ndarray, np.ndarray]:
    """Encode many terms' posting lists in one vectorized pass.

    Term i owns ``doc_ids[starts[i]:ends[i]]`` (ascending) and the matching
    tfs. Returns (postings, skips, blob_lens, skip_lens): the terms' blobs
    and skip records concatenated in term order, plus each term's byte
    length in both, so term i's blob is the ``blob_lens[i]`` bytes after
    ``blob_lens[:i].sum()``. Byte-identical to per-term encoding: segmented
    deltas (each term's first gap is its absolute doc_id), one Stream-VByte
    code pass with each term's control bytes padded to a multiple of 4, one
    LEB128 pass over all tfs, then one scatter of every term's
    ``[control][data][tf]`` regions into the output buffer. Skip records
    come from per-term cumulative offsets and ``maximum.reduceat``."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    counts = ends - starts
    n_terms = len(counts)
    doc_ids = np.asarray(doc_ids, dtype=np.uint64)
    tfs = np.asarray(tfs, dtype=np.uint64)
    first = exclusive_cumsum(counts)  # term i's first row, flat
    n = int(counts.sum())
    if n_terms and not (starts == first).all():
        # ranges that do not tile [0, n): gather them into flat term order
        rows = np.arange(n) + np.repeat(starts - first, counts)
        doc_ids, tfs = doc_ids[rows], tfs[rows]
    else:
        doc_ids, tfs = doc_ids[:n], tfs[:n]
    if n == 0:
        zeros = np.zeros(n_terms, dtype=np.int64)
        return b"", b"", zeros, zeros
    stop = first + counts
    live = first[counts > 0]  # first rows of the non-empty terms

    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
    gaps[live] = doc_ids[live]

    # Stream-VByte: 2-bit codes placed at each term's own control slots
    codes = np.zeros(n, dtype=np.uint8)
    codes[gaps > 0xFF] = 1
    codes[gaps > 0xFFFF] = 2
    codes[gaps > 0xFFFFFFFF] = 3
    lens = _SVB_LEN[codes]
    ctl_lens = (counts + 3) // 4
    ctl_first = exclusive_cumsum(ctl_lens)
    n_ctl = int(ctl_lens.sum())
    slots = np.zeros(n_ctl * 4, dtype=np.uint8)
    slots[np.arange(n) + np.repeat(4 * ctl_first - first, counts)] = codes
    q = slots.reshape(-1, 4)
    control = (q[:, 0] | (q[:, 1] << 2) | (q[:, 2] << 4) | (q[:, 3] << 6)).astype(np.uint8)
    mask = np.arange(8)[None, :] < lens[:, None]
    data = gaps.view(np.uint8).reshape(n, 8)[mask]
    tf_blob, tf_lens = varint_encode_with_lens(tfs)
    tf_stream = np.frombuffer(tf_blob, dtype=np.uint8)

    # per-row exclusive cumsums → per-term region sizes
    data_cum = exclusive_cumsum(np.append(lens, 0))
    tf_cum = exclusive_cumsum(np.append(tf_lens, 0))
    data_lens = data_cum[stop] - data_cum[first]
    tf_term_lens = tf_cum[stop] - tf_cum[first]
    blob_lens = ctl_lens + data_lens + tf_term_lens
    out_first = exclusive_cumsum(blob_lens)

    # scatter: byte k of a stream lands at k + (term's output start -
    # term's start in that stream)
    out = np.empty(int(blob_lens.sum()), dtype=np.uint8)
    out[np.arange(n_ctl) + np.repeat(out_first - ctl_first, ctl_lens)] = control
    data_at = out_first + ctl_lens  # term's data region, in `out`
    out[np.arange(len(data)) + np.repeat(data_at - data_cum[first], data_lens)] = data
    tf_at = data_at + data_lens
    out[np.arange(len(tf_stream)) + np.repeat(tf_at - tf_cum[first], tf_term_lens)] = tf_stream

    # skips: one record per SKIP_BLOCK postings of each term
    n_blocks = (counts + SKIP_BLOCK - 1) // SKIP_BLOCK
    blk_term = np.repeat(np.arange(n_terms), n_blocks)
    blk_first = exclusive_cumsum(n_blocks)
    blk_start = first[blk_term] + (np.arange(len(blk_term)) - blk_first[blk_term]) * SKIP_BLOCK
    blk_end = np.minimum(blk_start + SKIP_BLOCK, stop[blk_term])
    skips = np.zeros(len(blk_term), dtype=SKIP_DTYPE)
    skips["last_doc_id"] = doc_ids[blk_end - 1]
    skips["data_off"] = ctl_lens[blk_term] + data_cum[blk_start] - data_cum[first][blk_term]
    skips["tf_off"] = (ctl_lens + data_lens)[blk_term] + tf_cum[blk_start] - tf_cum[first][blk_term]
    skips["count"] = (blk_end - blk_start).astype(np.uint32)
    skips["max_tf"] = np.maximum.reduceat(tfs, blk_start).astype(np.uint32)
    return out.tobytes(), skips.tobytes(), blob_lens, n_blocks * SKIP_DTYPE.itemsize


def decode_block(
    postings: np.ndarray | bytes, skips: np.ndarray, bi: int, prev_last: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode one block given the full skip array and the previous block's
    last doc_id. Returns (doc_ids, tfs)."""
    raw = np.frombuffer(postings, dtype=np.uint8) if not isinstance(postings, np.ndarray) else postings
    cnt = int(skips[bi]["count"])
    ctl_start = bi * (SKIP_BLOCK // 4)
    control = raw[ctl_start : ctl_start + (cnt + 3) // 4]
    data_end = int(skips[bi + 1]["data_off"]) if bi + 1 < len(skips) else int(skips[0]["tf_off"])
    data = raw[int(skips[bi]["data_off"]) : data_end]
    gaps = svb_decode_streams(control, data, cnt)
    doc_ids = delta_decode(gaps, base=prev_last)
    tf_end = int(skips[bi + 1]["tf_off"]) if bi + 1 < len(skips) else len(raw)
    tfs = varint_decode(raw[int(skips[bi]["tf_off"]) : tf_end])
    return doc_ids, tfs


def decode_postings(postings: bytes | np.ndarray, skips_blob: bytes | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-list decode — one vectorized call per region (used by merges,
    the brute-force scorer and the scorer's term cache)."""
    skips = (
        np.frombuffer(skips_blob, dtype=SKIP_DTYPE)
        if not isinstance(skips_blob, np.ndarray) or skips_blob.dtype != SKIP_DTYPE
        else skips_blob
    )
    if len(skips) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    raw = np.frombuffer(postings, dtype=np.uint8) if not isinstance(postings, np.ndarray) else postings
    n = int(skips["count"].sum())
    tf_start = int(skips[0]["tf_off"])
    gaps = svb_decode(raw[:tf_start], n)
    doc_ids = delta_decode(gaps)
    tfs = varint_decode(raw[tf_start:])
    return doc_ids, tfs
