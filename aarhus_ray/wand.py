"""Block-Max WAND top-k (Ding & Suel, "Faster top-k document retrieval using
block-max indexes", SIGIR 2011) over the frozen posting-blob format in
codecs.py. Exact: returns identical (doc_id, score) top-k as exhaustive BM25
(property-tested against bm25.brute_force_topk in tests/test_wand.py).

Exactness argument for the frozen total order (score DESC, doc_id ASC):
docIDs are visited ascending, so any later candidate loses a score tie to
every doc already in the heap; skipping a pivot whenever its upper bound is
<= the current threshold (kth best score) is therefore lossless, and heap
replacement requires a strictly greater score.

Per-doc float accumulation happens in sorted-term order — the same order the
brute-force scorer uses — so scores are bit-identical.
"""

from __future__ import annotations

import heapq

import numpy as np

from . import codecs
from .bm25 import score_tf, topk_select

# Sentinel above every legal docID: the (pid<<40)|row scheme caps pid below
# 2^24, so real doc_ids stay < 2^64 - 2^40 < 2^64-1.
_EXHAUSTED = (1 << 64) - 1

# Block-Max WAND's first interval chunk: a query of at most this many skip
# blocks has at most this many intervals, all scored in the first chunk
FIRST_CHUNK = 64

_MIN_POSITIVE = np.nextafter(0.0, 1.0)


class TermCursor:
    __slots__ = (
        "term", "idf", "max_score", "postings", "skips", "bounds",
        "bi", "block_docs", "block_tfs", "pos", "exhausted",
    )

    def __init__(self, term: str, idf: float, max_score: float, postings, skips: np.ndarray, bounds: np.ndarray | None = None):
        self.term = term
        self.idf = idf
        self.max_score = max_score
        self.postings = postings
        self.skips = skips
        # per-block score upper bounds; skips only carry max_tf (global idf
        # is a query-side statistic with sharded segments)
        self.bounds = (
            bounds
            if bounds is not None
            else codecs.tf_upper_bound(skips["max_tf"], idf) if len(skips) else np.empty(0)
        )
        self.bi = 0
        self.pos = 0
        self.exhausted = len(skips) == 0
        if not self.exhausted:
            self._decode(0)

    def _decode(self, bi: int) -> None:
        prev_last = int(self.skips[bi - 1]["last_doc_id"]) if bi > 0 else 0
        self.block_docs, self.block_tfs = codecs.decode_block(
            self.postings, self.skips, bi, prev_last
        )
        self.bi = bi
        self.pos = 0

    @property
    def doc(self) -> int:
        return _EXHAUSTED if self.exhausted else int(self.block_docs[self.pos])

    @property
    def tf(self) -> int:
        return int(self.block_tfs[self.pos])

    def block_bound(self, target: int) -> tuple[float, int]:
        """(block_max_score, block_last_doc_id) of the block that would
        contain the first doc >= target; (0, EXHAUSTED) if past the end.
        No decode — skip-list only."""
        lasts = self.skips["last_doc_id"]
        nbi = self.bi + int(np.searchsorted(lasts[self.bi :], target, side="left"))
        if nbi >= len(self.skips):
            return 0.0, _EXHAUSTED
        return float(self.bounds[nbi]), int(lasts[nbi])

    def advance(self, target: int) -> None:
        """Move to the first posting with doc_id >= target."""
        if self.exhausted:
            return
        lasts = self.skips["last_doc_id"]
        if int(lasts[self.bi]) >= target:
            if int(self.block_docs[self.pos]) >= target:
                return
            self.pos += int(
                np.searchsorted(self.block_docs[self.pos :], target, side="left")
            )
            return
        nbi = self.bi + int(np.searchsorted(lasts[self.bi :], target, side="left"))
        if nbi >= len(self.skips):
            self.exhausted = True
            return
        self._decode(nbi)
        self.pos = int(np.searchsorted(self.block_docs, target, side="left"))


def wand_topk(cursors: list[TermCursor], doclen_of, avgdl: float, k: int = 10):
    """Block-Max WAND over prepared cursors. ``doclen_of(doc_id) -> int``.
    Returns (doc_ids, scores) in the frozen order (score DESC, doc_id ASC).
    """
    heap: list[tuple[float, int]] = []  # min-heap of (score, -doc_id)
    live = [c for c in cursors if not c.exhausted]
    while True:
        live = [c for c in live if not c.exhausted]
        if not live:
            break
        live.sort(key=lambda c: c.doc)
        threshold = heap[0][0] if len(heap) == k else 0.0
        acc = 0.0
        p = -1
        for i, c in enumerate(live):
            acc += c.max_score
            if acc > threshold:
                p = i
                break
        if p < 0:
            break
        pivot = live[p].doc
        while p + 1 < len(live) and live[p + 1].doc == pivot:
            p += 1
        # block-max refinement (skip-list only, no decode)
        bms = 0.0
        min_block_last = _EXHAUSTED
        for c in live[: p + 1]:
            bm, blast = c.block_bound(pivot)
            bms += bm
            min_block_last = min(min_block_last, blast)
        if bms <= threshold:
            nxt = min_block_last + 1
            if p + 1 < len(live):
                nxt = min(nxt, live[p + 1].doc)
            nxt = max(nxt, pivot + 1)
            for c in live[: p + 1]:
                c.advance(nxt)
            continue
        if live[0].doc == pivot:
            # all cursors [0..p] aligned on pivot → score it exactly,
            # accumulating in sorted-term order (float determinism)
            dl = float(doclen_of(pivot))
            contribs = sorted(
                (c.term, float(score_tf(c.tf, dl, avgdl, c.idf))) for c in live[: p + 1]
            )
            score = 0.0
            for _, v in contribs:
                score += v
            if len(heap) < k:
                heapq.heappush(heap, (score, -pivot))
            elif score > heap[0][0]:
                heapq.heapreplace(heap, (score, -pivot))
            for c in live[: p + 1]:
                c.advance(pivot + 1)
        else:
            for c in live[: p + 1]:
                if c.doc < pivot:
                    c.advance(pivot)
    out = sorted(heap, key=lambda t: (-t[0], -t[1]))
    doc_ids = np.array([-d for _, d in out], dtype=np.uint64)
    scores = np.array([s for s, _ in out], dtype=np.float64)
    return doc_ids, scores


def _multi_slice(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated index ranges [starts[i], ends[i]) — vectorized."""
    lens = ends - starts
    keep = lens > 0
    starts, lens = starts[keep], lens[keep]
    if len(starts) == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lens.sum())
    out = np.repeat(starts - np.concatenate([[0], np.cumsum(lens)[:-1]]), lens)
    return out + np.arange(total, dtype=np.int64)


def block_max_topk(
    term_entries: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    avgdl: float,
    k: int = 10,
):
    """Vectorized Block-Max WAND: identical skip-list pruning decision to
    cursor WAND (sum of block-max upper bounds vs the running top-k
    threshold), but the docID axis is processed block-at-a-time with NumPy
    instead of doc-at-a-time in Python — orders of magnitude faster in
    CPython, still EXACT.

    The docID space is partitioned into intervals at every block boundary of
    every query term; each interval's upper bound is the sum of the covering
    blocks' max scores. Intervals are visited best-first (in chunks, to
    amortize Python overhead) and scoring stops once the next-best
    interval's bound cannot beat the kth score. Lossless: per-doc BM25 is
    strictly below its dl→0 upper bound (dl >= 1), so `ub <= threshold`
    candidates can never tie, and topk_select applies the frozen
    (score DESC, doc_id ASC) order to fully-scored candidates only.

    term_entries: [(term, doc_ids, contribs, lasts, bmax)] sorted by term
    (per-doc float accumulation happens in that order → bit-identical to
    the brute-force scorer). doc_ids are the FULL decoded arrays (a sharded
    term's shards concatenated in docID order) and contribs the precomputed
    per-posting BM25 contributions ``score_tf(tf, dl, avgdl, idf)`` —
    query-independent, so the caller caches both per actor: heavy Zipf-head
    terms recur in almost every query and their decode + doclen lookup +
    scoring dominates QPS otherwise. lasts/bmax are the per-block
    last_doc_id and derived score upper bounds (from skips max_tf × global
    idf).

    Chunks grow geometrically: when pruning bites, only the first small
    chunks run; when block maxes are flat (pruning can't bite), total
    vectorized passes stay O(log n_blocks) instead of O(n_blocks).
    """
    term_entries = [te for te in term_entries if len(te[3])]
    if not term_entries:
        return np.empty(0, np.uint64), np.empty(0, np.float64)

    # interval edges = union of block last_doc_ids across terms
    edges = np.unique(np.concatenate([te[3] for te in term_entries]))
    n_int = len(edges)
    diff = np.zeros(n_int + 1, dtype=np.float64)
    for _, _, _, lasts, bmax in term_entries:
        # block b covers interval span [lo_b, hi_b] (difference-array add)
        hi = np.searchsorted(edges, lasts, side="left")
        lo = np.empty_like(hi)
        lo[0] = 0
        lo[1:] = hi[:-1] + 1
        np.add.at(diff, lo, bmax)
        np.subtract.at(diff, hi + 1, bmax)
    ub = np.cumsum(diff[:-1])

    order = np.argsort(-ub, kind="stable")
    cand_ids = np.empty(0, np.uint64)
    cand_scores = np.empty(0, np.float64)
    threshold = -1.0
    chunk = FIRST_CHUNK
    pos0 = 0
    while pos0 < len(order):
        sel = order[pos0 : pos0 + chunk]
        pos0 += chunk
        chunk *= 2
        if len(cand_ids) >= k:
            if float(ub[sel[0]]) <= threshold:
                break
            sel = sel[ub[sel] > threshold]
            if len(sel) == 0:
                continue
        # keep edges in uint64: mixing uint64 doc_ids with int64 needles makes
        # numpy promote BOTH to float64, which corrupts comparisons for
        # doc_ids >= 2^53 (i.e. partition_id >= 8192)
        nz = sel > 0
        lo_edges = np.zeros(len(sel), dtype=np.uint64)
        lo_edges[nz] = edges[sel[nz] - 1]
        hi_edges = edges[sel]
        parts = []
        for term, doc_ids, contribs, lasts, bmax in term_entries:
            s = np.searchsorted(doc_ids, lo_edges, side="right")
            s[~nz] = 0  # first interval starts at the beginning of the list
            e = np.searchsorted(doc_ids, hi_edges, side="right")
            idx = _multi_slice(s, e)
            if len(idx):
                parts.append((doc_ids[idx], contribs[idx]))
        if not parts:
            continue
        if len(parts) == 1:
            # single term: scores align 1:1 with its postings (0.0 + x == x,
            # so skipping the zeros-accumulator is still bit-identical)
            d, c = parts[0]
            order_d = np.argsort(d, kind="stable")
            union = d[order_d]
            scores = c[order_d]
        else:
            union = np.unique(np.concatenate([p[0] for p in parts]))
            scores = np.zeros(len(union), dtype=np.float64)
            for d, c in parts:  # term-sorted order → float determinism
                pos = np.searchsorted(union, d)
                scores[pos] += c
        cand_ids = np.concatenate([cand_ids, union])
        cand_scores = np.concatenate([cand_scores, scores])
        if len(cand_ids) >= k:
            # >= not >: with exactly k candidates the arrays are still in
            # union order, and threshold must be the kth-BEST score
            cand_ids, cand_scores = topk_select(cand_ids, cand_scores, k)
            threshold = float(cand_scores[-1])
    return topk_select(cand_ids, cand_scores, k)


def dense_accum_topk(
    rows: list[list[tuple[np.ndarray | None, np.ndarray]]],
    global_doc_ids: np.ndarray,
    k: int = 10,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """EXACT top-k of several queries at once by term-at-a-time dense
    accumulation — the head-heavy complement to ``block_max_topk``.

    When a query's terms cover a large fraction of the corpus (Zipf-head
    stopwords), block maxes are flat and WAND pruning cannot bite: the
    interval path then pays repeated union-sort + scatter work just to
    score nearly everything anyway. Here each query is one row of a
    float64 accumulator over the doc space (``global_doc_ids``, sorted),
    and each of its terms is one (pos, vals) entry: ``pos`` None adds the
    term's dense impact vector (``vals``, one value per doc, 0.0 where the
    term is absent) with one contiguous add, otherwise ``vals`` scatters
    onto the doc positions ``pos`` (unique within a term, so a plain fancy
    add). The rows then select together: one ``np.partition`` over the
    rows' chunk maxima gives each row a floor no higher than its
    kth-highest value, and one ``flatnonzero`` + ``lexsort`` over the cells
    at or above their row's floor picks every row's top-k.

    Bit-identical to brute force / block_max_topk: each row adds its
    contributions in the same sorted-term order into zeros (and x + 0.0 ==
    x, so a dense vector's zeros change nothing), and the selection is the
    frozen (score DESC, doc_id ASC) ``topk_select`` order. A row with fewer
    than k touched docs returns every doc it touched; zeros (untouched
    docs) are never candidates. Returns one (doc_ids, scores) pair per
    row.

    The accumulator is rows × docs of this scorer's doc space — the caller
    bounds the rows per call; at 10^12 docs in one address space selective
    queries stay on WAND and head terms are served from these same
    per-node impact arrays (SCALE.md)."""
    n = len(global_doc_ids)
    acc = np.zeros((len(rows), n), dtype=np.float64)
    for row, entries in zip(acc, rows):
        for pos, vals in entries:  # sorted-term order → float determinism
            if pos is None:
                row += vals
            else:
                row[pos] += vals
    if n > k:
        # a lower bound of each row's kth-highest value: the kth-highest of
        # the maxima of 4k disjoint column chunks (k distinct cells reach
        # it), so every top-k cell passes it, with few others beside them
        width = max(1, n // (4 * k))
        maxima = np.maximum.reduceat(acc, np.arange(0, n, width), axis=1)
        m = maxima.shape[1]
        floor = np.partition(maxima, m - k, axis=1)[:, m - k]
    else:
        floor = np.zeros(len(rows))
    # acc >= the smallest positive double ⇔ acc > 0: untouched docs (0.0)
    # are never candidates, and a row that touched fewer than k docs
    # keeps them all
    hit = np.flatnonzero(acc >= np.maximum(floor, _MIN_POSITIVE)[:, None])
    r, c = np.divmod(hit, n)
    scores = acc.ravel()[hit]
    ids = global_doc_ids[c]
    # the cells come in (row, doc) order, so a stable sort by (row, score
    # DESC) leaves each row's ties in doc_id order
    order = np.lexsort((-scores, r))
    ids, scores = ids[order], scores[order]
    starts = np.searchsorted(r, np.arange(len(rows) + 1)).tolist()
    return [(ids[a : min(b, a + k)], scores[a : min(b, a + k)])
            for a, b in zip(starts, starts[1:])]
