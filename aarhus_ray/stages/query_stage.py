"""Query-side actor stages (SURVEY.md §3.2).

``QueryScorer`` is an actor-pool map_batches stage: one segment's dictionary,
postings and skip lists plus the global doclen sidecar load ONCE in
``__init__``; each __call__ scores a batch of queries, each by its
cheapest exact path — dense accumulation, the exhaustive union or
Block-Max WAND (or exhaustive BM25 with method="brute" — the in-test
oracle) — and emits <= k (query_id, doc_id, score) rows per query.

``UrlResolver`` resolves doc_id → url on the tiny final top-k table by
lazily loading only the docs/pid files its doc_ids actually touch (doc_id
encodes the partition, SURVEY.md §1.3) — a broadcast-free lookup that stays
cheap at cluster scale. It runs as a stateless task through ``CachedOp``
(``pipelines.query.attach_urls``), so its per-pid url cache is keyed by
index version and no actor outlives the call.
"""

from __future__ import annotations

import glob
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import codecs
from ..bm25 import brute_force_topk, idf, score_tf, topk_select
from ..partition import DOC_ID_PARTITION_SHIFT
from ..state import manifest as mf
from ..textnorm import tokenize
from ..wand import FIRST_CHUNK, TermCursor, block_max_topk, dense_accum_topk, wand_topk
from .postings_stage import seg_dir

# per-Segment decoded-position cache budget (values, not entries): head
# terms carry corpus-scale streams, ~4M int64 values ≈ 32 MB
_POS_CACHE_VALS = 1 << 22

# the dense accumulator's size bound: dense rows score in groups of at most
# this many float64 cells (8 MB; one row when the doc space is larger)
_DENSE_CELLS = 1 << 20

# the positions of a term a candidate doc lacks (shared; never written)
_NO_POS = np.empty(0, np.int64)

# the (query_id, rank, doc_id, score) table of a scored top-k op
_SCORED_HITS = pa.schema(
    [("query_id", pa.int64()), ("rank", pa.int32()),
     ("doc_id", pa.uint64()), ("score", pa.float64())]
)


def _no_hits() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, np.uint64), np.empty(0, np.float64)


def _sorted_lookup(ids: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, ok): the searchsorted index of each of ``ids`` in the sorted
    array ``table`` and whether the id is there (``table[pos[ok]] ==
    ids[ok]``) — vectorized, O(n log m)."""
    pos = np.searchsorted(table, ids)
    ok = pos < len(table)
    ok[ok] = table[pos[ok]] == ids[ok]
    return pos, ok


def _member_mask(ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Boolean membership of ``ids`` in the sorted array ``table``."""
    return _sorted_lookup(ids, table)[1]


def _intersect(lists: list[np.ndarray]) -> np.ndarray:
    """Intersection of sorted doc-id arrays, smallest first (the
    galloping-intersection analogue: a Zipf-head list AND a rare list
    costs the rare list's length times log of the head's)."""
    lists = sorted(lists, key=len)
    cand = lists[0]
    for ids in lists[1:]:
        if len(cand) == 0:
            break
        cand = cand[_member_mask(cand, ids)]
    return cand


def _present_sum(cand: np.ndarray, entries, weights=None) -> np.ndarray:
    """Each candidate's BM25 sum over ``entries`` — one (doc_ids,
    contribs, ...) tuple per term in sorted-term order, the frozen
    accumulation order brute shares — adding a term only where the
    candidate holds it; ``weights`` (aligned with ``entries``) scales each
    term's contributions. Over candidates that all hold a term the masked
    add is the plain one, and a weight of 1.0 is exact."""
    scores = np.zeros(len(cand), dtype=np.float64)
    for i, e in enumerate(entries):
        pos, ok = _sorted_lookup(cand, e[0])
        c = e[1][pos[ok]]
        scores[ok] += c if weights is None else weights[i] * c
    return scores


def _scored_union(entries) -> tuple[np.ndarray, np.ndarray]:
    """The disjunctive match set of ``entries`` ((doc_ids, contribs, ...)
    per term, sorted-term order) with each doc's BM25 sum, accumulated term
    by term in that order — brute's accumulation exactly (one term's
    postings are already sorted and distinct, and 0.0 + x == x, so they
    are its own union)."""
    if not entries:
        return _no_hits()
    if len(entries) == 1:
        return entries[0][0], entries[0][1]
    ids = np.unique(np.concatenate([e[0] for e in entries]))
    scores = np.zeros(len(ids), dtype=np.float64)
    for e in entries:
        scores[np.searchsorted(ids, e[0])] += e[1]
    return ids, scores


def _flat_ranks(keys, counts) -> tuple[np.ndarray, np.ndarray]:
    """The (key, rank) columns of ranked lists laid end to end: list i
    holds ``counts[i]`` rows under ``keys[i]``, each row takes its list's
    key (int64) and its 1-based position within the list (int32). The
    one flattening rule of every ranked result."""
    counts = np.asarray(counts, np.int64)
    starts = (np.cumsum(counts) - counts).astype(np.int32)
    ranks = np.arange(1, counts.sum() + 1, dtype=np.int32) - np.repeat(starts, counts)
    return np.repeat(np.asarray(keys, np.int64), counts), ranks


def _ranked_table(lists, schema: pa.Schema) -> pa.Table:
    """The result table of a ranked op. ``lists`` holds one (key,
    columns) pair per ranked list, ``columns`` mapping field names to
    hit-aligned values in rank order. The first ``schema`` field takes
    each row's list key, a ``rank`` field the 1-based position within its
    list (unless the lists carry their own ranks), and every other field
    its values, concatenated in list order (``_flat_ranks``)."""
    keys, ranks = _flat_ranks([key for key, _ in lists],
                              [len(next(iter(c.values()))) for _, c in lists])
    cols = []
    for i, f in enumerate(schema):
        if i == 0:
            vals = keys
        elif f.name == "rank" and not (lists and "rank" in lists[0][1]):
            vals = ranks
        elif pa.types.is_string(f.type):
            vals = [v for _, c in lists for v in c[f.name]]
        else:
            # python lists (e.g. an empty one) take the field's dtype
            dt = f.type.to_pandas_dtype()
            vals = np.concatenate(
                [v if isinstance(v := c[f.name], np.ndarray) else np.asarray(v, dt)
                 for _, c in lists] or [np.empty(0, dt)]
            )
        cols.append(pa.array(vals, f.type))
    return pa.Table.from_arrays(cols, schema=schema)


def _docs_columns(out_dir: str, columns, pids: list[int] | None = None) -> pa.Table | None:
    """The ``columns`` of the docs/ sidecar as one table in pid order —
    doc_id ascending, since doc_id = (pid << 40) | row — reading only the
    files of ``pids`` when given; None when there is no file."""
    files = sorted(glob.glob(os.path.join(out_dir, "docs", "pid=*.parquet")))
    if pids is not None:
        want = {f"pid={p:04d}.parquet" for p in pids}
        files = [f for f in files if os.path.basename(f) in want]
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f, columns=list(columns)) for f in files])


def _facet_codes(out_dir: str, facet: str) -> tuple[np.ndarray, np.ndarray, list]:
    """(doc_ids, codes, values): the docs/ sidecar's ``facet`` column
    dictionary-encoded — code bytes per doc, not strings."""
    import pyarrow.compute as pc

    tbl = _docs_columns(out_dir, ["doc_id", facet])
    enc = pc.dictionary_encode(tbl[facet].combine_chunks())
    return (
        tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
        enc.indices.to_numpy(zero_copy_only=False).astype(np.int64),
        enc.dictionary.to_pylist(),
    )


def _docvalues(out_dir: str, field: str) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, int64 values) of one numeric docs/ sidecar column,
    doc_id ascending."""
    tbl = _docs_columns(out_dir, ["doc_id", field])
    return (
        tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
        tbl[field].cast(pa.int64()).to_numpy(zero_copy_only=False),
    )


def _min_cover_span(lists: list[np.ndarray]) -> int:
    """Minimum span (max−min) over one position picked from each sorted
    list — the k-sorted-lists minimal covering window, via merge + sliding
    two-pointer. O(total · log total) for the merge; the pointer sweep is
    linear in total occurrences of the query's terms in ONE doc (small)."""
    k = len(lists)
    if k == 1:
        return 0
    pos = np.concatenate(lists)
    lab = np.concatenate([np.full(len(p), i, dtype=np.int32) for i, p in enumerate(lists)])
    o = np.argsort(pos, kind="stable")
    pos, lab = pos[o], lab[o]
    count = np.zeros(k, dtype=np.int64)
    have, left, best = 0, 0, np.iinfo(np.int64).max
    for right in range(len(pos)):
        c = lab[right]
        count[c] += 1
        if count[c] == 1:
            have += 1
        while have == k:
            span = int(pos[right] - pos[left])
            if span < best:
                best = span
            cl = lab[left]
            count[cl] -= 1
            if count[cl] == 0:
                have -= 1
            left += 1
    return best


def _min_ordered_span(lists: list[np.ndarray]) -> int:
    """Minimum (last − first) over picks p0 < p1 < … < p_{n−1}, one from
    each sorted list IN ORDER — the ordered-span primitive behind Lucene's
    ``span_near(in_order=true)``. Greedy chain: for each start p0, the
    smallest completing last position is reached by repeatedly taking the
    first occurrence strictly after the previous pick (optimal because the
    chain is monotone); if a chain fails from p0 it fails from every later
    start, so the scan short-circuits. O(|l0| · n log m). Duplicate terms
    in the sequence reuse one list — the strict-increase rule handles them
    exactly like the SQL self-join replay (p_{i+1} > p_i)."""
    best = np.iinfo(np.int64).max
    for p0 in lists[0]:
        cur = int(p0)
        for lst in lists[1:]:
            j = int(np.searchsorted(lst, cur + 1))
            if j == len(lst):
                return best
            cur = int(lst[j])
        span = cur - int(p0)
        if span < best:
            best = span
    return best


def _clean_span_exists(lists: list[np.ndarray], excl: np.ndarray, limit: int) -> bool:
    """Does an ordered pick p0 < p1 < … < p_{n−1} (one per sorted list)
    exist with p_{n−1} − p0 ≤ limit and NO ``excl`` position inside the
    inclusive window [p0, p_{n−1}]? The Lucene SpanNotQuery predicate
    (pre=post=0). Per start p0 the greedy first-after chain reaches the
    MINIMAL last position; any other chain from p0 ends later, so its
    window is a superset — if the greedy window is dirty every window
    from p0 is, making greedy-per-start exact (property-tested against
    enumeration). A failed chain fails from every later start too
    (monotone), so the scan short-circuits."""
    for p0 in lists[0]:
        cur = int(p0)
        for lst in lists[1:]:
            j = int(np.searchsorted(lst, cur + 1))
            if j == len(lst):
                return False
            cur = int(lst[j])
        if cur - int(p0) <= limit:
            lo = int(np.searchsorted(excl, int(p0)))
            if lo == len(excl) or int(excl[lo]) > cur:
                return True
    return False


def _containing_span_exists(lists: list[np.ndarray], inner: np.ndarray, limit: int) -> bool:
    """Does an ordered pick p0 < … < p_{n−1} (one per sorted list) exist
    with p_{n−1} − p0 ≤ limit and SOME ``inner`` position inside the
    inclusive window [p0, p_{n−1}]? Lucene SpanContainingQuery. Per start
    p0: the greedy chain reaches the MINIMAL last g; any element L of the
    LAST list with g ≤ L ≤ p0+limit is also achievable (swap only the
    final pick — the (n−2)th greedy pick is < g ≤ L, order holds), and no
    valid chain from p0 ends past p0+limit — so the achievable windows
    from p0 are exactly [p0, L] for those L, and the widest one decides
    containment (property-tested vs enumeration)."""
    if len(inner) == 0:
        return False
    for p0 in lists[0]:
        cur = int(p0)
        for lst in lists[1:]:
            j = int(np.searchsorted(lst, cur + 1))
            if j == len(lst):
                return False
            cur = int(lst[j])
        if cur - int(p0) > limit:
            continue
        # widest achievable window end from p0: for n == 1 the span IS
        # the single position; for n >= 2 any last-list element in
        # [g, p0+limit] works (swap only the final pick)
        if len(lists) == 1:
            lmax = cur
        else:
            last = lists[-1]
            hi = int(np.searchsorted(last, int(p0) + limit, side="right")) - 1
            lmax = max(int(last[hi]), cur) if hi >= 0 else cur
        lo = int(np.searchsorted(inner, int(p0)))
        if lo < len(inner) and int(inner[lo]) <= lmax:
            return True
    return False


def _within_span_exists(
    big_lists: list[np.ndarray],
    little_lists: list[np.ndarray],
    big_limit: int,
    little_limit: int,
) -> bool:
    """Does an ordered LITTLE pick (one per sorted little list, strictly
    increasing, last − first ≤ little_limit) exist FULLY INSIDE the
    inclusive window [b0, b_{n−1}] of some valid ordered BIG pick
    (last − first ≤ big_limit)? The Lucene SpanWithinQuery predicate —
    the dual of ``_containing_span_exists`` (the kept span is the inner
    one). Exactness: per big start p0 the achievable windows are exactly
    [p0, L] for last-list L in [greedy end, p0+big_limit] (the
    widest-achievable-window argument from _containing_span_exists), so
    only the WIDEST needs checking; inside a fixed window the greedy
    first-after little chain from each start q0 is minimal-end, so it
    fits the window/limit iff any chain from q0 does (property-tested
    against enumeration). A failed big chain fails from every later
    start (monotone) — the scan short-circuits."""
    for p0 in big_lists[0]:
        cur = int(p0)
        for lst in big_lists[1:]:
            j = int(np.searchsorted(lst, cur + 1))
            if j == len(lst):
                return False
            cur = int(lst[j])
        if cur - int(p0) > big_limit:
            continue
        if len(big_lists) == 1:
            lmax = cur
        else:
            last = big_lists[-1]
            hi = int(np.searchsorted(last, int(p0) + big_limit, side="right")) - 1
            lmax = max(int(last[hi]), cur) if hi >= 0 else cur
        starts = little_lists[0]
        for q0 in starts[(starts >= int(p0)) & (starts <= lmax)]:
            cur2 = int(q0)
            ok = True
            for lst in little_lists[1:]:
                j = int(np.searchsorted(lst, cur2 + 1))
                if j == len(lst) or int(lst[j]) > lmax:
                    ok = False
                    break
                cur2 = int(lst[j])
            if ok and cur2 - int(q0) <= little_limit:
                return True
    return False


def _lev1_same(mat: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Rows of ``mat`` (n × m byte matrix) within substitution distance 1
    of ``qb`` (m bytes): at most one mismatched position."""
    return (mat != qb).sum(axis=1) <= 1


def _lev1_del(mat: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Rows of length m+1 that reach ``qb`` (length m) by deleting ONE
    char. Classic d=1 shortcut: if it matches at all, it matches at the
    longest-common-prefix split — so compute lcp per row (cumprod of
    equality) and check the shifted suffix there. Fully vectorized."""
    n, w = mat.shape
    m = len(qb)
    if m == 0:
        return np.ones(n, dtype=bool)
    cmp = mat[:, :m] == qb
    lcp = cmp.cumprod(axis=1).sum(axis=1)  # first-mismatch index, 0..m
    s = mat[:, 1:] == qb  # t[j+1] == q[j]
    rs = np.flip(np.flip(s, axis=1).cumprod(axis=1), axis=1)  # all s[:, j:]
    rs_full = np.concatenate([rs, np.ones((n, 1), dtype=rs.dtype)], axis=1)
    return rs_full[np.arange(n), lcp].astype(bool)


def _lev1_ins(mat: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Rows of length m−1 that reach ``qb`` (length m) by inserting ONE
    char (equivalently: deleting one char of q). Same lcp trick."""
    n, w = mat.shape
    if w == 0:
        return np.ones(n, dtype=bool)
    cmp = mat == qb[:w]
    lcp = cmp.cumprod(axis=1).sum(axis=1)
    s = mat == qb[1:]  # t[j] == q[j+1]
    rs = np.flip(np.flip(s, axis=1).cumprod(axis=1), axis=1)
    rs_full = np.concatenate([rs, np.ones((n, 1), dtype=rs.dtype)], axis=1)
    return rs_full[np.arange(n), lcp].astype(bool)


def parse_query_string(text: str):
    """Frozen mini query language (the Lucene/ES ``query_string`` subset
    this engine supports), shared verbatim by the scorer and the oracle
    generator so the two sides can never drift:

      ``"a b c"``  exact phrase, MUST          ``+tok``  MUST
      ``-tok``     MUST_NOT                    ``tok``   SHOULD (w=1)
      ``tok^2.5``  boosted SHOULD              ``pre*``  prefix SHOULD group

    Returns (phrases, must, must_not, should) where ``phrases`` is a list
    of raw phrase strings, must/must_not are token lists, and ``should``
    is a list of (item, weight) with a trailing ``*`` marking an
    unexpanded prefix item. Negative boosts are rejected (they would
    invalidate score upper bounds, as in mode="boost")."""
    import re as _re

    phrases = [p for p in _re.findall(r'"([^"]*)"', text)]
    rest = _re.sub(r'"[^"]*"', " ", text)
    must: list[str] = []
    must_not: list[str] = []
    should: list[tuple[str, float]] = []
    for raw in rest.split():
        if raw.startswith("+"):
            must.extend(tokenize(raw[1:]))
            continue
        if raw.startswith("-"):
            must_not.extend(tokenize(raw[1:]))
            continue
        stem, sep, ws = raw.rpartition("^")
        w = 1.0
        if sep:
            try:
                w = float(ws)
            except ValueError:
                stem = raw
        else:
            stem = raw
        if w < 0:
            raise ValueError(f"negative boost in query_string item {raw!r}")
        if stem.endswith("*"):
            toks = tokenize(stem[:-1])
            if len(toks) == 1:
                should.append((toks[0] + "*", w))
        else:
            for t in tokenize(stem):
                should.append((t, w))
    return phrases, must, must_not, should


def _lev_dp(a: str, b: str) -> int:
    """Plain Levenshtein (scalar DP) — fallback for non-ASCII terms only;
    the hot path is the vectorized byte-matrix form above."""
    if abs(len(a) - len(b)) > 1:
        return 2
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _lev_dist_cap(a: str, b: str, cap: int) -> int:
    """Capped Levenshtein (scalar DP): returns the exact distance when it
    is ≤ ``cap``, else any value > ``cap``. Fallback for non-ASCII terms
    in the d≤2 fuzzy expansion (``_lev_dp`` hard-codes the d≤1 length
    shortcut)."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _lev_le2(mat: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Rows of ``mat`` (n × L byte matrix) within Levenshtein distance ≤ 2
    of ``qb`` (m bytes) — the maxEdits=2 expansion kernel. Full DP with
    the row dimension vectorized over the n terms; the sequential
    insertion chain D[i][j] = min(D[i][j−1]+1, …) closes in one
    vectorized pass via the lazy-evaluation identity
    ``D[i][j] = min_{k≤j}(base[k] + (j−k))`` (min-accumulate of
    ``base − j`` plus ``j``). m · 3 vector ops over (n, L+1) int16 —
    bounded by the dictionary bucket, never the corpus."""
    n, L = mat.shape
    m = len(qb)
    j = np.arange(L + 1, dtype=np.int16)
    prev = np.broadcast_to(j, (n, L + 1)).astype(np.int16)
    for i in range(1, m + 1):
        base = np.empty((n, L + 1), dtype=np.int16)
        base[:, 0] = i
        np.minimum(
            prev[:, :-1] + (mat != qb[i - 1]),
            prev[:, 1:] + np.int16(1),
            out=base[:, 1:],
        )
        prev = np.minimum.accumulate(base - j, axis=1) + j
    return prev[:, L] <= 2


class DoclenTable:
    """Sorted (doc_id → doclen) arrays loaded from docs/ parquet.

    ``pids`` restricts the load to those partitions' sidecar files — the
    cluster-shape path (SCALE.md §sizing: 10^12 docs → ~5 TB of doclens;
    a doc-range-sharded scorer holds only the ranges it serves). Default
    (None) loads everything: exact full-corpus scoring, required by the
    goldens."""

    def __init__(self, out_dir: str, pids: list[int] | None = None):
        tbl = _docs_columns(out_dir, ["doc_id", "doclen"], pids)
        if tbl is None:
            self.doc_ids = np.empty(0, np.uint64)
            self.doclens = np.empty(0, np.uint32)
            return
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dls = tbl["doclen"].to_numpy(zero_copy_only=False).astype(np.uint32)
        order = np.argsort(ids, kind="stable")
        self.doc_ids = ids[order]
        self.doclens = dls[order]

    def lookup(self, doc_ids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.doc_ids, doc_ids)
        return self.doclens[pos]

    def lookup_one(self, doc_id: int) -> int:
        return int(self.doclens[int(np.searchsorted(self.doc_ids, doc_id))])


class Segment:
    """One on-disk segment mapped into memory."""

    def __init__(self, out_dir: str, seg_id: int):
        sdir = seg_dir(out_dir, seg_id)
        d = pq.read_table(os.path.join(sdir, "dict.parquet"))
        self.postings = np.memmap(os.path.join(sdir, "postings.bin"), dtype=np.uint8, mode="r")
        self.skips_raw = np.memmap(os.path.join(sdir, "skips.bin"), dtype=np.uint8, mode="r")
        self.dict: dict[str, tuple] = {}
        terms = d["term"].to_pylist()
        cols = {
            name: d[name].to_numpy(zero_copy_only=False)
            for name in ("df", "offset", "length", "skip_offset", "skip_length", "max_tf")
        }
        for i, t in enumerate(terms):
            self.dict[t] = (
                int(cols["df"][i]),
                int(cols["offset"][i]),
                int(cols["length"][i]),
                int(cols["skip_offset"][i]),
                int(cols["skip_length"][i]),
                int(cols["max_tf"][i]),
            )
        # sorted term list for dictionary RANGE SCANS (prefix expansion).
        # dict.parquet rows arrive in merge order (normally sorted already
        # within a term-range shard); sort defensively once per load.
        self.terms_sorted: list[str] = sorted(terms)
        # fuzzy-expansion buckets (lazy): byte-length → (n × L uint8
        # matrix, aligned term list); non-ASCII terms go to a scalar-DP
        # fallback list. Built once per segment load, ~vocab bytes.
        self._fuzzy_buckets: dict[int, tuple[np.ndarray, list[str]]] | None = None
        self._fuzzy_fallback: list[str] = []
        # positional sidecar (present only on positions=True builds)
        self.pos_dict: dict[str, tuple[int, int]] | None = None
        if "pos_offset" in d.column_names:
            po = d["pos_offset"].to_numpy(zero_copy_only=False)
            pl = d["pos_length"].to_numpy(zero_copy_only=False)
            self.pos_dict = {t: (int(po[i]), int(pl[i])) for i, t in enumerate(terms)}
            self.pos_raw = np.memmap(os.path.join(sdir, "pos.bin"), dtype=np.uint8, mode="r")
            self._pos_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            self._pos_cached_vals = 0

    def fuzzy1_candidates(self, tok: str) -> list[str]:
        """Dictionary terms within Levenshtein distance ≤ 1 of ``tok``.
        ASCII terms are checked VECTORIZED per byte-length bucket (only the
        three buckets |t|−1, |t|, |t|+1 are touched — the d≤1 length
        pigeonhole); rare non-ASCII terms fall back to a scalar DP. At web
        scale the production upgrade is a build-time SymSpell
        deletion-neighborhood index (O(|tok|) probes instead of an O(bucket)
        scan); the bucket scan here is the exact, dependency-free form and
        its cost is bounded by the DICTIONARY (vocabulary) size, not the
        corpus."""
        if self._fuzzy_buckets is None:
            buckets: dict[int, list[str]] = {}
            for t in self.terms_sorted:
                if t.isascii():
                    buckets.setdefault(len(t), []).append(t)
                else:
                    self._fuzzy_fallback.append(t)
            self._fuzzy_buckets = {
                L: (
                    np.frombuffer("".join(ts).encode("ascii"), dtype=np.uint8).reshape(
                        len(ts), L
                    ),
                    ts,
                )
                for L, ts in buckets.items()
                if L > 0
            }
        out: list[str] = []
        if tok.isascii():
            qb = np.frombuffer(tok.encode("ascii"), dtype=np.uint8)
            m = len(qb)
            for L, fn in ((m, _lev1_same), (m + 1, _lev1_del), (m - 1, _lev1_ins)):
                got = self._fuzzy_buckets.get(L)
                if got is None or L <= 0:
                    continue
                mat, ts = got
                for i in np.flatnonzero(fn(mat, qb)):
                    out.append(ts[int(i)])
            out.extend(t for t in self._fuzzy_fallback if _lev_dp(tok, t) <= 1)
        else:
            out.extend(t for t in self.terms_sorted if _lev_dp(tok, t) <= 1)
        return out

    def fuzzy2_candidates(self, tok: str) -> list[str]:
        """Dictionary terms within Levenshtein distance ≤ 2 of ``tok`` —
        the Lucene FuzzyQuery(maxEdits=2) expansion. Shares
        ``fuzzy1_candidates``'s lazily-built per-byte-length buckets; the
        d≤2 length pigeonhole touches the five buckets |t|−2 … |t|+2,
        each checked with the vectorized full-DP kernel (``_lev_le2``).
        Cost is bounded by the DICTIONARY slice in those buckets, not the
        corpus; the web-scale upgrade is the same build-time SymSpell
        deletion-neighborhood index as d≤1 (with 2-deletion variants)."""
        if self._fuzzy_buckets is None:
            self.fuzzy1_candidates(tok)  # builds the shared buckets
        out: list[str] = []
        if tok.isascii():
            qb = np.frombuffer(tok.encode("ascii"), dtype=np.uint8)
            m = len(qb)
            for L in range(max(1, m - 2), m + 3):
                got = self._fuzzy_buckets.get(L)
                if got is None:
                    continue
                mat, ts = got
                for i in np.flatnonzero(_lev_le2(mat, qb)):
                    out.append(ts[int(i)])
            out.extend(t for t in self._fuzzy_fallback if _lev_dist_cap(tok, t, 2) <= 2)
        else:
            out.extend(t for t in self.terms_sorted if _lev_dist_cap(tok, t, 2) <= 2)
        return out

    def term_postings(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        e = self.dict.get(term)
        if e is None:
            return None
        _, off, length, s_off, s_len, _ = e
        blob = bytes(self.postings[off : off + length])
        skips = bytes(self.skips_raw[s_off : s_off + s_len])
        return codecs.decode_postings(blob, skips)

    def term_positions(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Decoded positional stream of a term: (vals, bounds) where posting
        i's sublist is vals[bounds[i]:bounds[i+1]] = [count, first_pos,
        ascending deltas...]. Cached per segment (the boundary parse is the
        sequential part — codecs.pos_bounds)."""
        if self.pos_dict is None:
            return None
        e = self.pos_dict.get(term)
        if e is None:
            return None
        got = self._pos_cache.get(term)
        if got is None:
            off, length = e
            vals = codecs.varint_decode(bytes(self.pos_raw[off : off + length]))
            bounds = codecs.pos_bounds(vals, self.dict[term][0])
            got = (vals, bounds)
            # bounded cache: head terms carry corpus-scale position streams,
            # so charge by decoded values (~4M ≈ 32 MB), not entry count
            if self._pos_cached_vals + len(vals) > _POS_CACHE_VALS:
                self._pos_cache.clear()
                self._pos_cached_vals = 0
            self._pos_cache[term] = got
            self._pos_cached_vals += len(vals)
        return got

    def term_skips(self, term: str) -> np.ndarray:
        _, _, _, s_off, s_len, _ = self.dict[term]
        return np.frombuffer(
            self.skips_raw[s_off : s_off + s_len].tobytes(), dtype=codecs.SKIP_DTYPE
        )

    def cursor(self, term: str, idf_val: float) -> TermCursor | None:
        """Cursor over THIS shard's postings; block bounds derived from the
        caller-supplied global idf (skips store max_tf, not scores)."""
        e = self.dict.get(term)
        if e is None:
            return None
        _, off, length, s_off, s_len, _ = e
        skips = self.term_skips(term)
        bounds = codecs.tf_upper_bound(skips["max_tf"], idf_val)
        postings = self.postings[off : off + length]
        return TermCursor(term, idf_val, float(bounds.max()), postings, skips, bounds)


def _open_segments(out_dir: str, seg_ids: list[int] | None) -> list[Segment]:
    """The index's segments (every one under ``out_dir`` when None)."""
    if seg_ids is None:
        from ..pipelines.query import list_segments

        seg_ids = list_segments(out_dir)
    return [Segment(out_dir, sid) for sid in seg_ids]


def gather_postings(term: str, owners: list[Segment]) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, tfs) of ``term`` over its owning shards, docID-sorted:
    salted shards concatenate in docID order, and a stable sort fixes any
    shard out of order."""
    parts = [seg.term_postings(term) for seg in owners]
    doc_ids = np.concatenate([p[0] for p in parts])
    tfs = np.concatenate([p[1] for p in parts])
    if len(doc_ids) > 1 and not np.all(doc_ids[1:] > doc_ids[:-1]):
        o = np.argsort(doc_ids, kind="stable")
        doc_ids, tfs = doc_ids[o], tfs[o]
    return doc_ids, tfs


def term_impacts(term: str, owners: list[Segment], doc_ids: np.ndarray, tfs: np.ndarray,
                 doclens: DoclenTable, n_docs: int, avgdl: float) -> tuple:
    """The impact arrays of ``term``, (doc_ids, contribs, lasts, bmax):
    the query-independent BM25 contribution of each gathered posting
    (``doc_ids``, ``tfs``) with the term's global idf, and the skip blocks
    of every owning shard — last doc id and block-max score bound — in
    doc order. The one builder of every scorer's term cache."""
    idf_val = idf(sum(seg.dict[term][0] for seg in owners), n_docs)
    skips = np.concatenate([seg.term_skips(term) for seg in owners])
    lasts = skips["last_doc_id"].copy()
    bmax = codecs.tf_upper_bound(skips["max_tf"], idf_val)
    if len(lasts) > 1 and not np.all(lasts[1:] >= lasts[:-1]):
        o = np.argsort(lasts, kind="stable")  # shards out of order
        lasts, bmax = lasts[o], bmax[o]
    contribs = score_tf(tfs, doclens.lookup(doc_ids).astype(np.float64), avgdl, idf_val)
    return doc_ids, contribs, lasts, bmax


def check_scorer_args(method: str, mode: str = "or") -> None:
    """Raise ``ValueError`` unless QueryScorer accepts (method, mode). The
    scoring methods: "wand" serves, "brute" is its exhaustive oracle
    (cursor WAND, ``cursor_wand_topk``, is a test oracle only). Callers
    run it in the calling process, before any Ray work, so a bad argument
    raises there and not wrapped by a worker."""
    if method not in ("wand", "brute"):
        raise ValueError(f"method must be 'wand' or 'brute', not {method!r}")
    modes = ("or", "and", "phrase", "near", "span_near", "span_not", "span_containing",
             "span_or", "span_within", "span_multi", "prefix", "fuzzy", "fuzzy2", "boost",
             "boolean", "msm", "terms_set", "wildcard", "regexp", "query_string",
             "phrase_prefix", "intervals")
    if mode not in modes:
        raise ValueError(f"mode must be one of {', '.join(map(repr, modes))}, not {mode!r}")
    # the positional modes verify term positions, which only wand scores
    if mode in ("phrase", "near", "span_near", "span_not", "span_containing", "span_or",
                "span_within", "span_multi", "phrase_prefix", "intervals") and method != "wand":
        raise ValueError(f"{mode} scoring supports method='wand', not {method!r}")


class QueryScorer:
    """Scores whole queries against the TERM-SHARDED index: segments hold
    disjoint term ranges (BASELINE.json:6 "globally sorted segments"), so a
    query's terms may live in different segments and per-segment top-k would
    split a document's score — the scorer therefore GATHERS each term's
    postings from the segments that own it and runs one WAND over the full
    doc space. Actors here are replicas (throughput), not shards (each query
    is scored exactly once, completely).

    Segment files are memory-mapped, so replica actors on one node share
    page cache. At cluster scale the gather becomes a routed postings fetch
    from the segment holders; the per-query cost is O(query terms), which is
    the standard term-sharded trade-off.

    Every non-``or`` mode runs the same steps through one helper each: term
    lookup (``_owners_of``), posting intersection (``_intersect``), position
    verification (``_positions_match`` over ``_candidate_positions``),
    sorted-term scoring (``_present_sum`` / ``_scored_union``) and top-k."""

    def __init__(
        self,
        out_dir: str,
        seg_ids: list[int] | None = None,
        k: int = 10,
        method: str = "wand",
        pids: list[int] | None = None,
        mode: str = "or",
        filter_ids: np.ndarray | None = None,
        near_window: int = 8,
        min_should_match: int = 1,
        span_slop: int = 2,
        terms_set_mod: int = 3,
        max_gaps: int = 2,
    ):
        """``method``: "wand" (vectorized Block-Max WAND, dense
        accumulation when a query's postings cover much of the corpus, or
        the exhaustive union when WAND could not prune; see
        ``_score_term_sets``) or "brute" (exhaustive BM25, the in-test
        oracle); the two are bit-identical.

        ``pids`` (ascending, contiguous) activates the DOC-SHARDED mode
        (cluster scorer-state path, SCALE.md): this scorer holds only the
        doclens of those partitions and scores each query over their
        doc_id range [pids[0] << shift, (pids[-1] + 1) << shift) — memory
        bounded by the doc range, results merged across ranges by the
        caller (exact: every doc is scored wholly inside exactly one
        range, unlike per-term-segment top-k which splits doc scores).
        idf/df stay GLOBAL (summed over all shards). Default (None):
        full-corpus scoring, the goldens' exact path.

        ``filter_ids`` (sorted uint64 array, or an object ref to one)
        restricts RESULTS to the given doc set — the facet-filter path
        (e.g. lang='en'). Frozen semantics:
        the filter changes only eligibility, never the statistics — idf/df/
        avgdl/N stay GLOBAL, as in mainstream engines, so a doc's score is
        identical with and without a filter. The mask is applied to each
        term's postings at gather time, BEFORE any top-k selection, so
        WAND's unfiltered block maxima remain admissible upper bounds and
        pruning stays exact (a filtered block's true max can only be
        lower)."""
        check_scorer_args(method, mode)
        stats = mf.read_stats(out_dir)
        self.out_dir = out_dir
        self.n_docs = int(stats["n_docs"])
        self.avgdl = float(stats["avgdl"])
        self.k = k
        self.method = method
        self.mode = mode
        self.near_window = int(near_window)
        self.min_should_match = int(min_should_match)
        self.span_slop = int(span_slop)
        self.terms_set_mod = int(terms_set_mod)
        self.max_gaps = int(max_gaps)
        shift = DOC_ID_PARTITION_SHIFT
        self.doc_range = (
            (np.uint64(pids[0] << shift), np.uint64((pids[-1] + 1) << shift))
            if pids is not None else None
        )
        import ray as _ray

        if isinstance(filter_ids, _ray.ObjectRef):
            # query_index passes a ref: zero-copy read-only view over the
            # one object-store copy
            filter_ids = _ray.get(filter_ids)
        self.filter_ids = (
            np.ascontiguousarray(filter_ids, dtype=np.uint64) if filter_ids is not None else None
        )
        # Lucene-style deletes (pipelines/maintain.delete_documents): a
        # sorted EXCLUDE set loaded from tombstones/. Visibility-only —
        # df/idf/avgdl/N stay the pre-delete globals until compact_index
        # purges (the standard LSM trade; compaction restores fresh-build
        # statistics). Applied at gather time exactly like filter_ids, so
        # WAND block maxima stay admissible and wand == brute stays
        # bit-identical. None (no tombstones dir) costs nothing.
        self.exclude_ids = mf.read_tombstones(out_dir)
        self.segments = _open_segments(out_dir, seg_ids)
        self.doclens = DoclenTable(out_dir, pids=pids)
        # actor-lifetime term cache: term → (doc_ids, contribs, skips) with
        # contribs = the per-posting BM25 contribution score_tf(tf, dl,
        # avgdl, idf) — query-INDEPENDENT, so it is computed once. Zipf-head
        # terms appear in most queries; caching their decode + doclen align
        # + scoring per actor dominates QPS. Bounded by total cached
        # postings (evict-all beyond the cap keeps it dumb + deterministic).
        self._term_cache: dict[str, tuple] = {}
        self._cached_postings = 0
        self._cache_cap = 32_000_000
        # the dense-row form of each term a dense query scored
        # (``_dense_entry``) and the owning shards of each looked-up term
        # (``_owners``), charged to the same cap
        self._dense_cache: dict[str, tuple] = {}
        self._owner_memo: dict[str, list[Segment]] = {}

    def _slice_to_range(self, doc_ids, contribs_or_tfs, lasts, bmax):
        """Restrict term arrays to [lo, hi). Postings slice exactly; skip
        blocks keep every block INTERSECTING the range — a partially-covered
        block's max is an upper bound over a superset, so WAND pruning stays
        admissible (exact), merely a little less tight at the range edges.
        uint64 needles throughout (int needles would promote the comparison
        to float64 and corrupt doc_ids >= 2^53)."""
        lo, hi = self.doc_range
        i0 = int(np.searchsorted(doc_ids, lo, side="left"))
        i1 = int(np.searchsorted(doc_ids, hi, side="left"))
        b1 = int(np.searchsorted(lasts, hi, side="left"))
        b0 = int(np.searchsorted(lasts, lo, side="left"))
        b1 = min(b1 + 1, len(lasts))
        return doc_ids[i0:i1], contribs_or_tfs[i0:i1], lasts[b0:b1], bmax[b0:b1]

    def _visible_mask(self, doc_ids: np.ndarray) -> np.ndarray | None:
        """Combined eligibility mask (facet include ∧ tombstone exclude),
        or None when neither is active."""
        m = None
        if self.filter_ids is not None:
            m = _member_mask(doc_ids, self.filter_ids)
        if self.exclude_ids is not None:
            ex = ~_member_mask(doc_ids, self.exclude_ids)
            m = ex if m is None else (m & ex)
        return m

    def _term_arrays(self, term: str, owners: list["Segment"]):
        """The (doc_ids, contribs, lasts, bmax) arrays of ``term``: its
        visible in-range postings and their BM25 contributions, with the
        skip blocks of every owning shard (unmasked: a block max over all
        postings bounds the visible subset). Built on first use, then
        cached."""
        got = self._term_cache.get(term)
        if got is None:
            # the gather already holds only visible in-range docs; the
            # range slice then trims the skip blocks
            doc_ids, tfs = self._gather_postings(term, owners)
            got = term_impacts(term, owners, doc_ids, tfs, self.doclens,
                               self.n_docs, self.avgdl)
            if self.doc_range is not None:
                got = self._slice_to_range(*got)
            for a in got:  # shared by every query of the term (_scored_union)
                a.flags.writeable = False
            self._charge_cache(len(got[0]))
            self._term_cache[term] = got
        return got

    def _charge_cache(self, n_postings: int) -> None:
        """Charge a new cache entry (term arrays, a dense-row form or an
        owner lookup) against the shared cap; evict-all on overflow keeps
        every cache bounded together (a long-lived worker serving many
        distinct head terms must not grow without bound)."""
        if self._cached_postings + n_postings > self._cache_cap:
            self._term_cache.clear()
            self._dense_cache.clear()
            self._owner_memo.clear()
            self._cached_postings = 0
        self._cached_postings += n_postings

    def _owners(self, term: str) -> list[Segment]:
        """All shards holding postings of this term (empty when none does),
        memoised per scorer. Heavy terms are salted into several
        (term-range × docID-range) shards; shard order in self.segments is
        bucket order = (seg_id, salt) ascending, and salt ascends with
        docID range, so concatenation in this order is already
        docID-sorted."""
        got = self._owner_memo.get(term)
        if got is None:
            got = [seg for seg in self.segments if term in seg.dict]
            self._charge_cache(1)
            self._owner_memo[term] = got
        return got

    def _dense_entry(self, term: str, doc_ids: np.ndarray, contribs: np.ndarray) -> tuple:
        """The (pos, vals) entry of ``term`` in a dense accumulator row
        (``dense_accum_topk``): a head term (postings × 8 >= docs) as its
        dense impact vector over the local doc table (pos None), any other
        as the table positions of its postings and their contributions.
        Built on first use, then cached."""
        got = self._dense_cache.get(term)
        if got is None:
            table = self.doclens.doc_ids
            pos = np.searchsorted(table, doc_ids)
            if len(doc_ids) * 8 >= len(table):
                vec = np.zeros(len(table), dtype=np.float64)
                vec[pos] = contribs
                got = (None, vec)
            else:
                if len(table) < (1 << 31):
                    pos = pos.astype(np.int32)  # halve index bandwidth
                got = (pos, contribs)
            self._charge_cache(len(got[1]))
            self._dense_cache[term] = got
        return got

    def _owners_of(self, toks, required: bool = False) -> dict[str, list[Segment]] | None:
        """The term lookup of every mode: {term: owning shards} for the
        distinct in-vocabulary terms of ``toks``, in sorted-term order (the
        frozen accumulation order). Out-of-vocabulary terms drop; with
        ``required`` one of them makes the result None (the modes where an
        OOV term empties the query)."""
        owners = {}
        for t in sorted(set(toks)):
            segs = self._owners(t)
            if segs:
                owners[t] = segs
            elif required:
                return None
        return owners

    def _entries(self, owners: dict[str, list[Segment]]) -> list[tuple]:
        """The cached (doc_ids, contribs, lasts, bmax) arrays of each term
        of ``owners``, in its order."""
        return [self._term_arrays(t, segs) for t, segs in owners.items()]

    def _global_df(self, term: str, owners: list[Segment]) -> int:
        return sum(seg.dict[term][0] for seg in owners)

    def _gather_postings(self, term: str, owners: list[Segment]):
        doc_ids, tfs = gather_postings(term, owners)
        if self.doc_range is not None:
            lo, hi = self.doc_range
            i0 = int(np.searchsorted(doc_ids, lo, side="left"))
            i1 = int(np.searchsorted(doc_ids, hi, side="left"))
            doc_ids, tfs = doc_ids[i0:i1], tfs[i0:i1]
        m = self._visible_mask(doc_ids)
        if m is not None:
            doc_ids, tfs = doc_ids[m], tfs[m]
        return doc_ids, tfs

    def _brute(self, owners: dict[str, list[Segment]], **kw) -> tuple[np.ndarray, np.ndarray]:
        """brute_force_topk over the terms of ``owners`` (the in-test
        oracle of the wand path; ``kw``: conjunctive / min_match)."""
        postings = {t: self._gather_postings(t, segs) for t, segs in owners.items()}
        dfs = {t: self._global_df(t, segs) for t, segs in owners.items()}
        return brute_force_topk(
            list(owners), postings, dfs, self.doclens.lookup, self.n_docs,
            self.avgdl, self.k, **kw,
        )

    def _score_query_conj(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Conjunctive (AND) BM25 top-k: only docs containing EVERY query
        term are candidates; any out-of-vocabulary term empties the result.
        The candidate set is the posting-list intersection, built
        smallest-list-first with vectorized searchsorted membership (the
        galloping-intersection analogue: O(|smallest| · log |larger|), so a
        Zipf-head term AND a rare term costs the rare list's length, not the
        head's). Scores are the SAME per-doc contributions as disjunctive
        scoring, accumulated in sorted-term order — conjunctive top-k is
        bit-identical to disjunctive scores filtered to all-terms docs
        (property-tested against brute_force_topk(conjunctive=True))."""
        owners = self._owners_of(tokenize(text), required=True)
        if not owners:
            return _no_hits()
        if self.method == "brute":
            return self._brute(owners, conjunctive=True)
        entries = self._entries(owners)
        # fused intersection + contribution gather: ONE searchsorted per
        # term total (smallest-list-first), keeping each term's contribs
        # aligned to the shrinking candidate set — the old shape re-ran
        # searchsorted over every FULL posting list a second time for
        # scoring (60% of conj wall in profile). Final accumulation stays
        # in SORTED-TERM order, so per-doc float addition order — the
        # bit-identity invariant vs brute — is unchanged (property-tested).
        order_by_len = sorted(range(len(entries)), key=lambda i: len(entries[i][0]))
        first = order_by_len[0]
        cand = entries[first][0]
        kept: dict[int, np.ndarray] = {first: entries[first][1]}
        for i in order_by_len[1:]:
            if len(cand) == 0:
                break
            pos, ok = _sorted_lookup(cand, entries[i][0])
            cand = cand[ok]
            for j in kept:
                kept[j] = kept[j][ok]
            kept[i] = entries[i][1][pos[ok]]
        if len(cand) == 0:
            return _no_hits()
        scores = np.zeros(len(cand), dtype=np.float64)
        for i in range(len(entries)):  # sorted-term order
            scores += kept[i]
        return topk_select(cand, scores, self.k)

    def _score_query_msm(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """minimum_should_match (Lucene/Elasticsearch's core boolean knob,
        generalizing OR and AND): only docs containing at least
        ``min_should_match`` DISTINCT in-vocabulary query terms are
        candidates (m=1 ≡ disjunctive, m=n_terms ≡ conjunctive — both
        property-tested). Scores are the unchanged per-doc BM25
        contributions of the terms the doc DOES contain, accumulated in
        sorted-term order, so msm results are the disjunctive scoring
        filtered to ≥m-matched docs (the mainstream-engine semantics:
        the knob gates eligibility, never statistics).

        The candidate count comes from one vectorized pass — concatenate
        the terms' (docID-sorted, disjoint-per-term) posting doc_ids and
        np.unique(return_counts): multiplicity == distinct matched terms.
        Cost is the same postings union a disjunctive query reads; at
        cluster scale the doc-sharded scorer path applies unchanged
        (counts are per-doc facts, computed wholly inside one range)."""
        m = self.min_should_match
        owners = self._owners_of(tokenize(text))
        if not owners or len(owners) < m:
            return _no_hits()
        if self.method == "brute":
            return self._brute(owners, min_match=m)
        cand, scores, counts = self._counted_union(owners)
        keep = counts >= m
        return topk_select(cand[keep], scores[keep], self.k)

    def _score_query_terms_set(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """terms_set query (ES `terms_set` with minimum_should_match_field):
        minimum_should_match where the REQUIRED match count is a PER-DOC
        fact read from a docvalue, not a query constant — each doc states
        how many of the query's terms it demands. The synthetic stand-in
        for a stored required_matches field is the frozen rule
        required(doc) = 1 + doclen(doc) % terms_set_mod (deterministic,
        SQL-replayable). Candidates and scoring are exactly the msm shape
        — one vectorized postings-union distinct-count, gated per doc,
        scores the unchanged disjunctive BM25 sums of the matched terms
        (the knob gates eligibility, never statistics). The doclen gather
        is the scorer's existing doclen table — per-doc facts resolve
        wholly inside one doc range at cluster scale."""
        owners = self._owners_of(tokenize(text))
        if not owners:
            return _no_hits()
        cand, scores, counts = self._counted_union(owners)
        keep = counts >= 1 + self.doclens.lookup(cand) % self.terms_set_mod
        return topk_select(cand[keep], scores[keep], self.k)

    def _counted_union(self, owners) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docs, BM25 sums, matched-term counts) over the postings union
        of ``owners`` — one unique(return_inverse) + one bincount. The
        bincount's C loop adds weights in FLAT input order = concatenation
        in sorted-term order, so each doc's float accumulation order — the
        brute bit-identity invariant — is the per-term loop's exactly."""
        entries = self._entries(owners)
        cand, inv, counts = np.unique(
            np.concatenate([e[0] for e in entries]),
            return_inverse=True,
            return_counts=True,
        )
        scores = np.bincount(
            inv, weights=np.concatenate([e[1] for e in entries]), minlength=len(cand)
        )
        return cand, scores, counts

    def _texts_of(self, doc_ids: np.ndarray) -> list[str]:
        """Fetch candidate texts from the docs/ checkpoint, partition-pruned
        via the docID scheme (same shape as UrlResolver). Per-pid tables are
        cached for the scorer's lifetime — bounded by the pids its
        candidates actually touch."""
        if not hasattr(self, "_doc_text_cache"):
            self._doc_text_cache: dict[int, tuple[np.ndarray, list[str]]] = {}
        out: list[str] = []
        for d in doc_ids:
            pid = int(d >> np.uint64(DOC_ID_PARTITION_SHIFT))
            got = self._doc_text_cache.get(pid)
            if got is None:
                tbl = pq.read_table(
                    os.path.join(self.out_dir, "docs", f"pid={pid:04d}.parquet"),
                    columns=["doc_id", "text"],
                )
                got = (
                    tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
                    tbl["text"].to_pylist(),
                )
                self._doc_text_cache[pid] = got
            ids, texts = got
            out.append(texts[int(np.searchsorted(ids, d))])
        return out

    def _positions_of_docs(self, term: str, owners_of_term, cand: np.ndarray):
        """Absolute within-doc positions of ``term`` for each candidate doc
        (aligned list, empty where absent; cand sorted). Each candidate
        lives in exactly one docID-disjoint shard; positions decode from
        that shard's sidecar."""
        out: list[np.ndarray] = [_NO_POS] * len(cand)
        for seg in owners_of_term:
            d_ids, _ = seg.term_postings(term)
            idx, ok = _sorted_lookup(cand, d_ids)
            if not ok.any():
                continue
            vals, bounds = seg.term_positions(term)
            for ci in np.flatnonzero(ok):
                i = int(idx[ci])
                sub = vals[bounds[i] + 1 : bounds[i + 1]].astype(np.int64)
                out[ci] = np.cumsum(sub)  # deltas → absolute, ascending
        return out

    def _candidate_positions(self, cand: np.ndarray, owners) -> dict[str, list[np.ndarray]]:
        """The one position source of the positional modes: {term: the
        term's ascending within-doc positions in each candidate} for the
        terms of ``owners`` (an empty array where a candidate lacks the
        term). Positions decode from pos.bin when every owning shard
        carries the sidecar; otherwise the candidates' stored texts are
        re-tokenized from the docs/ checkpoint (partition-pruned fetch)
        and a term's positions are its token indices — the fallback
        engines ship when the index carries no positions, O(candidates ×
        doclen), right for selective queries. The two sources are equal
        (tests/test_positions.py pins the round trip and every positional
        mode's answers on both builds)."""
        if all(seg.pos_dict is not None for segs in owners.values() for seg in segs):
            return {t: self._positions_of_docs(t, segs, cand) for t, segs in owners.items()}
        toks = [np.asarray(tokenize(x), dtype=object) for x in self._texts_of(cand)]
        return {t: [np.flatnonzero(a == t) for a in toks] for t in owners}

    def _positions_match(self, cand: np.ndarray, owners, pred) -> np.ndarray:
        """``cand`` narrowed to the candidates whose term positions
        satisfy ``pred`` ({term: positions} → bool), the positions of the
        terms of ``owners`` coming from ``_candidate_positions``. Every
        positional predicate here is False when a list it needs is empty."""
        if len(cand) == 0:
            return cand
        pos = self._candidate_positions(cand, owners)
        keep = np.fromiter(
            (pred({t: p[i] for t, p in pos.items()}) for i in range(len(cand))),
            dtype=bool, count=len(cand),
        )
        return cand[keep]

    def _verify_phrase(self, seq: list[str], owners, cand: np.ndarray) -> np.ndarray:
        """Adjacency filter over conjunctive candidates (phrase mode,
        phrase_prefix completions and query_string phrase clauses): the
        classic consecutive positional intersection
        pos(t_{i+1}) ∩ (survivors + 1)."""
        if len(seq) <= 1:
            return cand

        def adjacent(P) -> bool:
            cur = P[seq[0]]
            for t in seq[1:]:
                if len(cur) == 0:
                    return False
                cur = np.intersect1d(cur + 1, P[t], assume_unique=True)
            return len(cur) > 0

        return self._positions_match(cand, {t: owners[t] for t in set(seq)}, adjacent)

    def _score_query_phrase(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Exact phrase retrieval: candidates are the conjunctive
        posting-list intersection of the phrase's terms; adjacency is
        verified over the positions of ``_candidate_positions``; survivors
        rank by the ordinary BM25 sum of the phrase's DISTINCT terms,
        frozen order (score DESC, doc_id ASC). An OOV term empties the
        result."""
        seq = tokenize(text)
        owners = self._owners_of(seq, required=True)
        if not owners:
            return _no_hits()
        entries = self._entries(owners)
        cand = self._verify_phrase(seq, owners, _intersect([e[0] for e in entries]))
        return topk_select(cand, _present_sum(cand, entries), self.k)

    def _score_query_span(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Ordered proximity (span_near, in_order=true): a doc qualifies
        iff the query's tokens occur AS A SEQUENCE — one occurrence per
        query position, positions strictly increasing — within
        len(seq)−1+span_slop consecutive tokens. slop=0 ≡ phrase; unlike
        mode="near", "query the" and "the query" are different queries.
        Candidates are the conjunctive intersection of the DISTINCT terms
        (a necessary condition), verified by the ordered-span predicate
        over ``_candidate_positions``. An OOV term empties the result; a
        single-token query degenerates to AND (span 0 ≤ slop). Survivors
        rank by the BM25 sum of the distinct terms, frozen (score DESC,
        doc_id ASC) order."""
        seq = tokenize(text)
        owners = self._owners_of(seq, required=True)
        if not owners:
            return _no_hits()
        entries = self._entries(owners)
        cand = _intersect([e[0] for e in entries])
        if len(seq) > 1:
            cand = self._verify_ordered(seq, owners, cand, self.span_slop)
        return topk_select(cand, _present_sum(cand, entries), self.k)

    def _verify_ordered(self, seq: list[str], owners, cand: np.ndarray, slop: int) -> np.ndarray:
        """The span_near predicate: some strictly-increasing pick of one
        occurrence per SEQUENCE position spans ≤ len(seq)−1+slop tokens."""
        limit = len(seq) - 1 + slop
        return self._positions_match(
            cand, owners, lambda P: _min_ordered_span([P[t] for t in seq]) <= limit
        )

    def _score_query_span_not(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Lucene ``span_not`` (pre=post=0): query text is
        ``include_seq ! exclude_terms`` — a doc qualifies iff some ordered
        occurrence of the include sequence (strictly increasing picks
        within len(seq)−1+span_slop tokens, the span_near predicate) has
        NO exclude-term occurrence inside its inclusive position window.
        Candidates are the conjunctive intersection of the INCLUDE terms;
        exclusion only vetoes spans — an OOV or absent exclude term vetoes
        nothing (degenerates to span_near, pinned by test), while
        ``t ! t`` is provably empty (every window contains its own pick).
        Survivors rank by the BM25 sum of the DISTINCT INCLUDE terms
        (Lucene scores SpanNot by the include span), frozen
        (score DESC, doc_id ASC)."""
        if "!" not in text:
            raise ValueError("span_not query must be 'include_seq ! exclude_terms'")
        inc_part, exc_part = text.split("!", 1)
        seq = tokenize(inc_part)
        owners = self._owners_of(seq, required=True)
        if not owners:
            return _no_hits()
        # exclude terms gate nothing; OOV ones simply have no positions
        # to veto with
        excl_owners = self._owners_of(tokenize(exc_part))
        entries = self._entries(owners)
        cand = _intersect([e[0] for e in entries])
        limit = len(seq) - 1 + self.span_slop
        cand = self._positions_match(
            cand, {**owners, **excl_owners},
            lambda P: _clean_span_exists(
                [P[t] for t in seq],
                np.sort(np.concatenate([_NO_POS] + [P[t] for t in excl_owners])),
                limit,
            ),
        )
        return topk_select(cand, _present_sum(cand, entries), self.k)

    def _score_query_span_containing(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Lucene ``span_containing``: query text is ``big_seq @
        little_terms`` — a doc qualifies iff some ordered occurrence of
        the BIG sequence (within len(seq)−1+span_slop tokens, the
        span_near predicate) CONTAINS an occurrence of any little term in
        its inclusive position window. The dual of span_not: the inner
        occurrence is required instead of vetoed, so an OOV/absent little
        term yields NO matches (containment needs a position — the
        opposite degeneracy, pinned by test), while ``t @ t`` degenerates
        to span_near on t (every single-pick window contains its own
        pick). Survivors rank by the BM25 sum of the DISTINCT BIG terms
        (Lucene scores the big span)."""
        if "@" not in text:
            raise ValueError("span_containing query must be 'big_seq @ little_terms'")
        big_part, little_part = text.split("@", 1)
        seq = tokenize(big_part)
        owners = self._owners_of(seq, required=True)
        little_owners = self._owners_of(tokenize(little_part))
        if not owners or not little_owners:  # no little occurrence: no containment
            return _no_hits()
        entries = self._entries(owners)
        cand = _intersect([e[0] for e in entries])
        limit = len(seq) - 1 + self.span_slop
        cand = self._positions_match(
            cand, {**owners, **little_owners},
            lambda P: _containing_span_exists(
                [P[t] for t in seq],
                np.sort(np.concatenate([P[t] for t in little_owners])),
                limit,
            ),
        )
        return topk_select(cand, _present_sum(cand, entries), self.k)

    def _score_query_span_or(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Lucene ``span_or`` over whole sequences: query text is
        ``seq1 | seq2 | …`` — a doc qualifies iff ANY alternative ordered
        sequence occurs within len(alt)−1+span_slop consecutive tokens
        (the span_near predicate, each alternative with its OWN window).
        Unlike intervals (SpanOr per SLOT inside one SpanNear), the
        union here is over COMPLETE span clauses — the other Lucene
        composition. An alternative with an OOV term can never match and
        drops out silently; all alternatives dead ⇒ empty. ``t | t`` ≡
        span_near(t) (pinned by test). Survivors rank by the BM25 sum of
        the DISTINCT terms across ALL alternatives (absent terms
        contribute 0 — the intervals-family scoring rule), frozen
        (score DESC, doc_id ASC)."""
        alts = [seq for part in text.split("|") if (seq := tokenize(part))]
        # scoring vocabulary: every in-vocab term of EVERY alternative —
        # a dead alternative (one OOV member) contributes no MATCHES, but
        # its live terms still score (doc-level BM25 over the union
        # vocabulary; the SQL oracle's qd has the same rows)
        vocab_owners = self._owners_of([t for seq in alts for t in seq])
        matched: np.ndarray | None = None
        for seq in alts:
            if any(t not in vocab_owners for t in seq):
                continue  # dead alternative: contributes no matches
            owners = {t: vocab_owners[t] for t in set(seq)}
            cand = _intersect([e[0] for e in self._entries(owners)])
            if len(seq) > 1:
                cand = self._verify_ordered(seq, owners, cand, self.span_slop)
            if len(cand):
                matched = cand if matched is None else np.union1d(matched, cand)
        if matched is None:
            return _no_hits()
        return topk_select(matched, _present_sum(matched, self._entries(vocab_owners)), self.k)

    def _score_query_span_within(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Lucene ``span_within``: query text is ``little_seq < big_seq``
        — a doc qualifies iff some ordered occurrence of the LITTLE
        sequence (within len(little)−1+span_slop tokens) lies FULLY
        INSIDE the inclusive position window of some ordered BIG-sequence
        occurrence (within len(big)−1+span_slop tokens). The dual of
        span_containing: the kept span is the INNER one, so survivors
        rank by the BM25 sum of the DISTINCT LITTLE terms (Lucene scores
        SpanWithin by the little clause). An OOV little OR big term ⇒
        empty (both spans need positions); ``t < t`` ≡ span_near(t)
        (every single-position little sits inside its own big window —
        pinned by test). Candidates are the conjunctive intersection of
        little ∪ big terms; enclosure is verified by _within_span_exists
        (exact by the widest-achievable-window + greedy-inside-window
        arguments)."""
        if "<" not in text:
            raise ValueError("span_within query must be 'little_seq < big_seq'")
        little_part, big_part = text.split("<", 1)
        little = tokenize(little_part)
        big = tokenize(big_part)
        if not little or not big:
            return _no_hits()
        owners = self._owners_of(little + big, required=True)
        if owners is None:
            return _no_hits()
        entries = dict(zip(owners, self._entries(owners)))
        cand = _intersect([e[0] for e in entries.values()])
        big_limit = len(big) - 1 + self.span_slop
        little_limit = len(little) - 1 + self.span_slop
        cand = self._positions_match(
            cand, owners,
            lambda P: _within_span_exists(
                [P[t] for t in big], [P[t] for t in little], big_limit, little_limit
            ),
        )
        # little terms only (frozen scoring)
        return topk_select(cand, _present_sum(cand, [entries[t] for t in sorted(set(little))]), self.k)

    def _score_query_intervals(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """ES ``intervals`` query, ``all_of(ordered=true, max_gaps)`` over
        ``any_of`` slots (Lucene SpanOr inside SpanNear): the query text is
        whitespace-separated SLOTS, each slot one or more ``|``-separated
        alternative terms. A doc qualifies iff picking ONE occurrence from
        ANY alternative per slot yields a strictly-increasing position
        sequence within n_slots−1+max_gaps consecutive tokens (ES's
        max_gaps counts tokens BETWEEN the picked occurrences; max_gaps=0
        ≡ phrase-with-alternates). Every-slot-single-alternative
        degenerates to span_near exactly (pinned by test). Candidates are
        the intersection over slots of the UNION of alternative postings —
        an OOV alternative just leaves its slot, a fully-OOV slot empties
        the result. Verification merges each slot's alternative position
        lists (sorted union) and runs the same greedy ordered-span chain as
        span_near. Survivors rank by the BM25 sum of the DISTINCT
        alternatives the doc CONTAINS (absent alternatives contribute 0),
        frozen (score DESC, doc_id ASC)."""
        slots: list[list[str]] = []
        for raw in text.split():
            alts: set[str] = set()
            for a in raw.split("|"):
                toks = tokenize(a)
                if len(toks) > 1:
                    raise ValueError(
                        f"intervals alternatives must be single terms, got {a!r}"
                    )
                alts.update(toks)
            slots.append(sorted(alts))
        return self._score_slot_sequence(slots, self.max_gaps)

    def _score_slot_sequence(
        self, slots: list[list[str]], gaps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared ordered-slot kernel (intervals + span_multi): one
        occurrence from ANY alternative per slot, strictly increasing
        positions, within n_slots−1+gaps consecutive tokens; BM25 sum of
        the DISTINCT alternatives the doc contains."""
        if not slots or any(not s for s in slots):
            return _no_hits()
        owners = self._owners_of([t for s in slots for t in s])
        live_slots = [[t for t in s if t in owners] for s in slots]
        if any(not s for s in live_slots):
            return _no_hits()
        entries = dict(zip(owners, self._entries(owners)))
        slot_docs = []
        for s in live_slots:
            docs = entries[s[0]][0]
            for t in s[1:]:
                docs = np.union1d(docs, entries[t][0])
            slot_docs.append(docs)
        cand = _intersect(slot_docs)
        if len(slots) > 1:
            limit = len(slots) - 1 + gaps
            cand = self._positions_match(
                cand, owners,
                lambda P: _min_ordered_span(
                    [np.unique(np.concatenate([P[t] for t in s])) for s in live_slots]
                ) <= limit,
            )
        return topk_select(cand, _present_sum(cand, list(entries.values())), self.k)

    def _score_query_span_multi(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Lucene ``SpanMultiTermQueryWrapper`` inside ``span_near``
        (in_order=true): whitespace-separated ordered slots where a
        trailing-``*`` slot REWRITES against the term dictionary as a
        PrefixQuery (SpanOr over the prefix's matching terms — the
        spanRewriteMethod), a trailing-``~`` slot rewrites as a
        FuzzyQuery (every dictionary term within Levenshtein distance 1,
        exact hits included — plain Levenshtein, replayable by DuckDB's
        levenshtein()), and a bare slot is a literal term. A doc
        qualifies iff one occurrence per slot can be picked with
        strictly increasing positions within n_slots−1+span_slop
        consecutive tokens. A slot with NO dictionary match (dead
        prefix, hopeless fuzzy stem, OOV literal) cannot be filled and
        empties the result (the intervals fully-OOV-slot rule); a slot
        expanding to exactly one term degenerates to span_near on it
        (pinned by test). Survivors rank by the BM25 sum of the DISTINCT
        expanded alternatives the doc contains (each with its own global
        df/idf — the scoring_boolean-style rewrite the prefix and fuzzy
        modes also use), frozen (score DESC, doc_id ASC). Shares
        _score_slot_sequence with intervals; the oracle replays the
        expansions with LIKE / levenshtein() conditions directly in the
        positional self-join."""
        import re as _re

        slots: list[list[str]] = []
        for raw in text.split():
            raw = raw.lower()  # dictionary terms are lowercase; the
            # prefix/fuzzy/wildcard/regexp modes all lowercase their
            # patterns — keep the slot rewrites consistent with them
            if raw.startswith("/") and raw.endswith("/") and len(raw) > 2:
                # RegexpQuery rewrite: /pattern/ full-matches the term
                # (RE2 ∩ Python-re common core; checked before the *
                # branch — a regex may contain stars)
                slots.append(sorted(self._expand_regexp(raw[1:-1])))
            elif "*" in raw:
                if raw.endswith("*") and raw.count("*") == 1:
                    # trailing-only star: PrefixQuery rewrite (bisected
                    # range scan — same result as the general glob)
                    stem = tokenize(raw[:-1])
                    if len(stem) != 1:
                        raise ValueError(
                            f"span_multi prefix slots must be single stems, got {raw!r}"
                        )
                    slots.append(sorted(self._expand_prefix(stem[0])))
                else:
                    # general WildcardQuery rewrite (* anywhere)
                    if not _re.fullmatch(r"[a-z0-9*]+", raw) or not raw.strip("*"):
                        raise ValueError(
                            f"span_multi wildcard slots must be [a-z0-9*]+ with "
                            f"at least one literal char, got {raw!r}"
                        )
                    slots.append(sorted(self._expand_wildcard(raw)))
            elif raw.endswith("~"):
                stem = tokenize(raw[:-1])
                if len(stem) != 1:
                    raise ValueError(
                        f"span_multi fuzzy slots must be single stems, got {raw!r}"
                    )
                slots.append(sorted(self._expand_fuzzy(stem[0], 1)))
            else:
                toks = tokenize(raw)
                if len(toks) > 1:
                    raise ValueError(
                        f"span_multi literal slots must be single terms, got {raw!r}"
                    )
                slots.append(toks)
        return self._score_slot_sequence(slots, self.span_slop)

    def _score_query_near(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Proximity (NEAR) retrieval: a doc qualifies iff ALL the query's
        DISTINCT terms occur within ``near_window`` consecutive tokens
        (min cover span ≤ window−1; unordered — "query near(8) plan"
        matches "...plan the query..."). Candidates are the conjunctive
        intersection, verified by the k-sorted-lists minimal covering
        window over ``_candidate_positions``. An OOV term empties the
        result; a single-term query degenerates to AND. Survivors rank by
        the BM25 sum of the distinct terms, frozen (score DESC, doc_id
        ASC) order."""
        owners = self._owners_of(tokenize(text), required=True)
        if not owners:
            return _no_hits()
        entries = self._entries(owners)
        cand = _intersect([e[0] for e in entries])
        if len(owners) > 1:
            span = self.near_window - 1
            cand = self._positions_match(
                cand, owners, lambda P: _min_cover_span(list(P.values())) <= span
            )
        return topk_select(cand, _present_sum(cand, entries), self.k)

    def _expand_prefix(self, prefix: str) -> set[str]:
        """Dictionary RANGE SCAN: all index terms starting with ``prefix``.
        Each segment's sorted term list is bisected to [prefix, prefix⁺) —
        O(log |dict| + matches) per shard. Cluster shape: term-range
        sharding means a prefix range intersects only the shards whose
        term boundaries overlap it, so the scan routes to O(1) segment
        holders, not all of them (here every shard is local, so the
        pruning is implicit in the empty bisection ranges). Tokens are
        ASCII [a-z0-9]+ (textnorm contract), so ``prefix[:-1] +
        chr(ord(prefix[-1]) + 1)`` is a correct exclusive upper bound."""
        import bisect

        hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        out: set[str] = set()
        for seg in self.segments:
            i0 = bisect.bisect_left(seg.terms_sorted, prefix)
            i1 = bisect.bisect_left(seg.terms_sorted, hi)
            out.update(seg.terms_sorted[i0:i1])
        return out

    def _score_query_prefix(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Wildcard retrieval: a trailing ``*`` marks a prefix term, which
        EXPANDS to every matching dictionary term; the query then scores as
        ordinary disjunctive BM25 over the union of literal + expanded
        terms, each expanded term with its OWN global df/idf (Lucene's
        ``scoring_boolean`` rewrite of a PrefixQuery — the semantics an
        exact SQL oracle can replay, unlike constant-score). A bare ``*``
        is ignored; an unmatched prefix contributes nothing. No expansion
        cap: exactness is the contract here; at web scale a hot prefix
        ("th*") degrades gracefully — cost is the expanded terms' postings,
        the same as typing those terms — and a production deployment would
        cap expansion like Lucene's 1024-term rewrite limit."""
        terms: set[str] = set()
        for raw in text.split():
            if raw.endswith("*"):
                stem = tokenize(raw[:-1])
                if len(stem) == 1:
                    terms |= self._expand_prefix(stem[0])
            else:
                terms.update(tokenize(raw))
        return self._score_terms(terms)

    def _score_query_phrase_prefix(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """MATCH_PHRASE_PREFIX (Elasticsearch's ``match_phrase_prefix``):
        the LAST token is a prefix stem expanded against the sharded
        dictionary (_expand_prefix range scan — the same O(1)-shard
        routing as prefix mode); a doc matches iff SOME completed phrase
        ``fixed + [e]`` occurs adjacently (each completion verified by
        _verify_phrase); a matching doc scores as its BEST completion —
        the BM25 sum of the DISTINCT fixed terms plus the max matching
        expansion's contribution. Best-completion (dis_max over
        completions) is the frozen scoring rule because an exact SQL
        oracle replays MAX; Lucene's MultiPhraseQuery position-blended
        idf would not hash-replay. A single-token query degenerates to
        best-completion prefix search; an OOV fixed term or an empty
        expansion empties the result. An expansion may coincide with a
        fixed term ("slow s…" → 'slow'): its contribution then counts in
        both the fixed sum and the max, the same double the SQL computes.
        Verification cost is O(|expansions| × candidates-per-completion)
        — at web scale the stem's dictionary range bounds the fan-out
        exactly like prefix mode, and each completion prunes through the
        conjunctive intersection before any positions are read."""
        seq = tokenize(text)
        if not seq:
            return _no_hits()
        fixed, stem = seq[:-1], seq[-1]
        owners = self._owners_of(fixed, required=True)
        if owners is None:
            return _no_hits()
        fixed_entries = self._entries(owners)
        matched: list[tuple[np.ndarray, np.ndarray]] = []
        for e, esegs in self._owners_of(self._expand_prefix(stem)).items():
            e_ids, e_contribs = self._term_arrays(e, esegs)[:2]
            cand = _intersect([x[0] for x in fixed_entries] + [e_ids])
            cand = self._verify_phrase(fixed + [e], {**owners, e: esegs}, cand)
            if len(cand):
                matched.append((cand, e_contribs[np.searchsorted(e_ids, cand)]))
        if not matched:
            return _no_hits()
        docs = np.unique(np.concatenate([c for c, _ in matched]))
        best = np.full(len(docs), -np.inf)
        for cand, contrib in matched:
            np.maximum.at(best, np.searchsorted(docs, cand), contrib)
        # fixed-sum first, max last — the SQL's addition order
        return topk_select(docs, _present_sum(docs, fixed_entries) + best, self.k)

    def _expand_wildcard(self, pattern: str) -> set[str]:
        """GENERAL wildcard expansion (Lucene WildcardQuery, ``*`` only,
        anywhere in the token): all dictionary terms matching the glob.
        When the pattern has a literal prefix before the first ``*`` the
        scan is bisected to that prefix's range (same routing story as
        _expand_prefix); a LEADING wildcard degrades to a full dictionary
        scan — bounded by vocabulary size, not corpus size, exactly as in
        Lucene (which warns about leading wildcards for the same reason)."""
        import bisect
        import re as _re

        pre = pattern.split("*", 1)[0]
        rx = _re.compile(
            "^" + ".*".join(_re.escape(p) for p in pattern.split("*")) + "$"
        )
        out: set[str] = set()
        for seg in self.segments:
            ts = seg.terms_sorted
            if pre:
                i0 = bisect.bisect_left(ts, pre)
                i1 = bisect.bisect_left(ts, pre[:-1] + chr(ord(pre[-1]) + 1))
                cand = ts[i0:i1]
            else:
                cand = ts
            out.update(t for t in cand if rx.match(t))
        return out

    def _score_query_wildcard(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Wildcard retrieval with ``*`` anywhere (contains ``*ab*``,
        suffix ``*ab``, infix ``a*b`` — generalizing mode='prefix'): each
        pattern EXPANDS to the matching dictionary terms and the query
        scores as disjunctive BM25 over the union, each term with its own
        global df/idf (scoring_boolean rewrite, SQL-replayable via LIKE).
        Patterns lowercase; a bare ``*`` is ignored; literal tokens pass
        through tokenize."""
        terms: set[str] = set()
        for raw in text.split():
            if "*" in raw:
                pat = raw.lower()
                if pat.strip("*"):
                    terms |= self._expand_wildcard(pat)
            else:
                terms.update(tokenize(raw))
        return self._score_terms(terms)

    def _expand_regexp(self, pattern: str) -> set[str]:
        """Regexp expansion (Lucene RegexpQuery: the pattern must match the
        WHOLE term — re.fullmatch): all dictionary terms matching. Routing
        mirrors _expand_wildcard: a literal prefix (leading [a-z0-9] chars
        before the first metacharacter) bisects each segment's sorted
        dictionary to that range; a pattern with no literal prefix scans
        the vocabulary — bounded by dictionary size, never corpus size.
        The supported construct set is the RE2 ∩ Python-re common core
        (classes, alternation, ., *, +, ?), which is what makes the DuckDB
        regexp_full_match oracle an exact replay."""
        import bisect
        import re as _re

        pre = ""
        for ch in pattern:
            if ch.isalnum():
                pre += ch
            else:
                break
        rx = _re.compile(pattern)
        out: set[str] = set()
        for seg in self.segments:
            ts = seg.terms_sorted
            if pre:
                i0 = bisect.bisect_left(ts, pre)
                i1 = bisect.bisect_left(ts, pre[:-1] + chr(ord(pre[-1]) + 1))
                cand = ts[i0:i1]
            else:
                cand = ts
            out.update(t for t in cand if rx.fullmatch(t))
        return out

    def _score_query_regexp(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Regexp retrieval (Lucene RegexpQuery, scoring_boolean rewrite):
        EVERY whitespace-separated item is a full-match regex over the term
        dictionary (a plain token is the literal regex matching itself);
        the union of expansions scores as disjunctive BM25, each matched
        term with its own global df/idf. Patterns are lowercased (the
        dictionary is [a-z0-9]+ by the textnorm contract); a pattern
        matching nothing contributes nothing."""
        terms: set[str] = set()
        for raw in text.split():
            terms |= self._expand_regexp(raw.lower())
        return self._score_terms(terms)

    def _expand_fuzzy(self, tok: str, max_edits: int = 1) -> set[str]:
        """Union of each segment's d≤``max_edits`` dictionary candidates,
        cached per scorer and per distance (typo-class queries repeat the
        same tokens heavily)."""
        if not hasattr(self, "_fuzzy_exp_cache"):
            self._fuzzy_exp_cache: dict[tuple[str, int], set[str]] = {}
        got = self._fuzzy_exp_cache.get((tok, max_edits))
        if got is None:
            got = set()
            for seg in self.segments:
                if max_edits >= 2:
                    got.update(seg.fuzzy2_candidates(tok))
                else:
                    got.update(seg.fuzzy1_candidates(tok))
            self._fuzzy_exp_cache[(tok, max_edits)] = got
        return got

    def _score_query_fuzzy(self, text: str, max_edits: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Typo-tolerant retrieval: EVERY query token expands to the
        dictionary terms within Levenshtein distance ≤ ``max_edits``
        (including exact hits); the union scores as disjunctive BM25, each
        matched term with its own global df/idf — the scoring_boolean
        rewrite of Lucene's FuzzyQuery, minus transposition credit (plain
        Levenshtein, replayable by DuckDB's levenshtein()). A token with no
        near-dictionary neighbour contributes nothing."""
        terms: set[str] = set()
        for tok in set(tokenize(text)):
            terms |= self._expand_fuzzy(tok, max_edits)
        return self._score_terms(terms)

    def _score_query_boost(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Weighted retrieval: ``term^2.5`` multiplies that term's BM25
        contribution by 2.5 (Lucene boost syntax). Frozen semantics:
        unmarked terms weigh 1.0; REPEATED terms SUM their weights
        ("table^2 table" ≡ table^3 — unlike or-mode's set semantics, and
        exactly what a grouping SQL oracle computes); negative boosts are
        rejected (they would invalidate WAND's upper bounds). Scaling both
        the cached contribution arrays and the block maxima by w keeps
        Block-Max WAND admissible and exact, so wand == brute stays
        bit-identical (property-tested)."""
        weights: dict[str, float] = {}
        for raw in text.split():
            stem, sep, ws = raw.rpartition("^")
            w = 1.0
            if sep:
                try:
                    w = float(ws)
                except ValueError:
                    stem = raw
            else:
                stem = raw
            if w < 0:
                raise ValueError(f"negative boost in query term {raw!r}")
            for t in tokenize(stem):
                weights[t] = weights.get(t, 0.0) + w
        owners = self._owners_of(weights)
        if not owners:
            return _no_hits()
        entries = []
        for t, segs in owners.items():
            doc_ids, contribs, lasts, bmax = self._term_arrays(t, segs)
            w = weights[t]
            entries.append((t, doc_ids, contribs * w, lasts, bmax * w))
        if self.method == "brute":
            return topk_select(*_scored_union([e[1:] for e in entries]), self.k)
        return block_max_topk(entries, self.avgdl, self.k)

    def _score_query_boolean(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Lucene occur clauses: ``+term`` MUST, ``-term`` MUST_NOT, bare
        term SHOULD. Frozen semantics (BooleanQuery): a doc is eligible iff
        it contains every MUST term, none of the MUST_NOT terms, and — when
        there are no MUST terms — at least one SHOULD term; the score is
        the BM25 sum of the MUST ∪ SHOULD terms PRESENT in the doc (SHOULD
        terms add score but are not required once a MUST exists). A query
        with no positive clause returns nothing (Lucene's pure-negative
        rule). An OOV MUST term empties; OOV SHOULD/MUST_NOT terms drop.
        Candidates: MUST intersection (or SHOULD union), minus the
        MUST_NOT unions — all sorted-array set algebra, postings-bounded."""
        must: set[str] = set()
        must_not: set[str] = set()
        should: set[str] = set()
        for raw in text.split():
            if raw.startswith("+"):
                must.update(tokenize(raw[1:]))
            elif raw.startswith("-"):
                must_not.update(tokenize(raw[1:]))
            else:
                should.update(tokenize(raw))
        if not must and not should:
            return _no_hits()
        return self._score_clauses(must, [], dict.fromkeys(must | should, 1.0), must_not)

    def _score_query_qs(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """The ``query_string`` mini language (parse_query_string) — the
        user-facing entry point that COMPOSES the engine's clause types in
        one query: quoted phrases (MUST, adjacency-verified), ``+``/``-``
        occur prefixes, ``^W`` boosts, trailing-``*`` prefix expansion.
        Frozen semantics:

        * eligibility — if any MUST term or phrase exists: the conjunctive
          intersection of all MUST terms and all phrase terms, each phrase
          adjacency-verified; else the union of SHOULD terms (prefixes
          expanded). MUST_NOT unions subtract. No positive clause (or an
          OOV MUST/phrase term) ⇒ empty, Lucene's pure-negative rule.
        * scoring — each doc's score is Σ weight(t)·contrib(t,d) over the
          positive terms it contains, where weight(t) SUMS the term's
          clause occurrences (MUST = 1, each phrase listing t = 1, SHOULD
          = its boost, each prefix-expanded term = the prefix's boost) —
          the groupable semantics an exact SQL oracle replays, as in
          mode="boost". Order (score DESC, doc_id ASC)."""
        phrases, must, must_not, should = parse_query_string(text)
        phrase_seqs = [s for s in (tokenize(p) for p in phrases) if s]
        weights: dict[str, float] = {}
        for t in set(must):
            weights[t] = weights.get(t, 0.0) + 1.0
        for seq in phrase_seqs:
            for t in set(seq):
                weights[t] = weights.get(t, 0.0) + 1.0
        for item, w in should:
            terms = self._expand_prefix(item[:-1]) if item.endswith("*") else (item,)
            for t in terms:
                weights[t] = weights.get(t, 0.0) + w
        if not weights:
            return _no_hits()
        required = set(must).union(*phrase_seqs)
        return self._score_clauses(required, phrase_seqs, weights, must_not)

    def _score_clauses(self, required, phrase_seqs, weights, must_not) -> tuple[np.ndarray, np.ndarray]:
        """Occur-clause retrieval shared by boolean and query_string:
        eligible docs hold every ``required`` term (an OOV one empties the
        query) and every phrase of ``phrase_seqs`` adjacently — or, with
        nothing required, at least one term of ``weights``; a doc holding
        a ``must_not`` term drops. A doc's score is Σ weight(t)·contrib(t,
        d) over the ``weights`` terms it holds, in sorted-term order."""
        if required:
            owners = self._owners_of(required, required=True)
            if owners is None:
                return _no_hits()
            cand = _intersect([e[0] for e in self._entries(owners)])
            for seq in phrase_seqs:
                cand = self._verify_phrase(seq, owners, cand)
        else:
            ids = [e[0] for e in self._entries(self._owners_of(weights))]
            if not ids:
                return _no_hits()
            cand = np.unique(np.concatenate(ids))
        for doc_ids, *_ in self._entries(self._owners_of(must_not)):
            cand = cand[~_member_mask(cand, doc_ids)]
        owners = self._owners_of(weights)
        scores = _present_sum(cand, self._entries(owners), [weights[t] for t in owners])
        return topk_select(cand, scores, self.k)

    def _score_query(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        if self.mode == "and":
            return self._score_query_conj(text)
        if self.mode == "phrase":
            return self._score_query_phrase(text)
        if self.mode == "near":
            return self._score_query_near(text)
        if self.mode == "span_near":
            return self._score_query_span(text)
        if self.mode == "span_not":
            return self._score_query_span_not(text)
        if self.mode == "span_containing":
            return self._score_query_span_containing(text)
        if self.mode == "span_or":
            return self._score_query_span_or(text)
        if self.mode == "span_within":
            return self._score_query_span_within(text)
        if self.mode == "span_multi":
            return self._score_query_span_multi(text)
        if self.mode == "intervals":
            return self._score_query_intervals(text)
        if self.mode == "prefix":
            return self._score_query_prefix(text)
        if self.mode == "fuzzy":
            return self._score_query_fuzzy(text)
        if self.mode == "fuzzy2":
            return self._score_query_fuzzy(text, max_edits=2)
        if self.mode == "boost":
            return self._score_query_boost(text)
        if self.mode == "boolean":
            return self._score_query_boolean(text)
        if self.mode == "msm":
            return self._score_query_msm(text)
        if self.mode == "terms_set":
            return self._score_query_terms_set(text)
        if self.mode == "wildcard":
            return self._score_query_wildcard(text)
        if self.mode == "regexp":
            return self._score_query_regexp(text)
        if self.mode == "query_string":
            return self._score_query_qs(text)
        if self.mode == "phrase_prefix":
            return self._score_query_phrase_prefix(text)
        return self._score_terms(set(tokenize(text)))

    def _score_terms(self, toks: set[str]) -> tuple[np.ndarray, np.ndarray]:
        """Disjunctive BM25 top-k over a concrete term set (the or-mode
        engine; prefix mode feeds it the expanded set). OOV terms drop."""
        return self._score_term_sets([toks])[0]

    def _score_term_sets(self, tok_sets: list) -> list[tuple[np.ndarray, np.ndarray]]:
        """``_score_terms`` of every term set of ``tok_sets`` in one pass,
        one (doc_ids, scores) pair per set. "brute" scores each set
        exhaustively. "wand" picks each query's path by what it costs:

        - dense: when the query's postings cover much of the local doc
          space (postings × 8 >= docs) pruning cannot bite, so the query is
          one row of a dense accumulator (``dense_accum_topk``), its head
          terms added as cached dense impact vectors and its other terms
          scattered from cached positions; the rows score together, in
          groups of at most ``_DENSE_CELLS`` accumulator cells;
        - union: a query of at most ``FIRST_CHUNK`` skip blocks has at most
          that many Block-Max WAND intervals, all of which WAND's first
          chunk would score, so its postings' union is scored outright
          (``_scored_union`` + ``topk_select``);
        - Block-Max WAND (``block_max_topk``) otherwise.

        All three add contributions in sorted-term order into zeros and
        select in the frozen (score DESC, doc_id ASC) order, so they are
        bit-identical to brute and to each other."""
        out: list = [None] * len(tok_sets)
        n_local = len(self.doclens.doc_ids)
        dense: list[tuple[int, list]] = []
        for i, toks in enumerate(tok_sets):
            owners = self._owners_of(toks)
            if not owners:
                out[i] = _no_hits()
                continue
            if self.method == "brute":
                out[i] = self._brute(owners)
                continue
            entries = self._entries(owners)
            if n_local and sum(len(e[0]) for e in entries) * 8 >= n_local:
                dense.append((i, [self._dense_entry(t, e[0], e[1])
                                  for t, e in zip(owners, entries)]))
            elif sum(len(e[2]) for e in entries) <= FIRST_CHUNK:
                out[i] = topk_select(*_scored_union(entries), self.k)
            else:
                out[i] = block_max_topk([(t, *e) for t, e in zip(owners, entries)],
                                        self.avgdl, self.k)
        per = max(1, _DENSE_CELLS // max(1, n_local))
        for g in range(0, len(dense), per):
            group = dense[g : g + per]
            hits = dense_accum_topk([row for _, row in group], self.doclens.doc_ids, self.k)
            for (i, _), hit in zip(group, hits):
                out[i] = hit
        return out

    def score_columns(self, qids, texts: list) -> tuple[np.ndarray, ...]:
        """The top-k of each query (``qids[i]``, ``texts[i]``) as the four
        result columns (query_id int64, rank int32, doc_id uint64, score
        float64), query by query in input order, each query's hits in
        rank order. The scorer's one result path: the serving actor sends
        these columns as they are, ``__call__`` wraps them in Arrow."""
        if self.mode == "or":
            found = self._score_term_sets([set(tokenize(t)) for t in texts])
        else:
            found = [self._score_query(t) for t in texts]
        q, r = _flat_ranks(qids, [len(d) for d, _ in found])
        docs, scores = _no_hits()
        if found:
            docs = np.concatenate([d for d, _ in found], dtype=np.uint64, casting="unsafe")
            scores = np.concatenate([s for _, s in found], dtype=np.float64)
        return q, r, docs, scores

    def __call__(self, batch: pa.Table) -> pa.Table:
        """``score_columns`` over a (query_id, text) table, as a result
        table of ``_SCORED_HITS`` — the Ray Data form of the scorer."""
        cols = self.score_columns(batch["query_id"].to_pylist(), batch["text"].to_pylist())
        return pa.Table.from_arrays([pa.array(c) for c in cols], schema=_SCORED_HITS)


def cursor_wand_topk(scorer: QueryScorer, toks) -> tuple[np.ndarray, np.ndarray]:
    """The reference document-at-a-time cursor Block-Max WAND for an
    or-mode query: ``wand.wand_topk`` over one ``Segment.cursor`` per
    (term, shard) of ``scorer``'s index. Shards are docID-disjoint, so a
    pivot doc matches at most one cursor per term, and WAND treats the
    cursors as independent terms sharing the global idf. A test oracle of
    ``QueryScorer._score_terms`` (bit-identical to it), not a serving
    path: cursors read the segments directly, so a scorer with a filter
    or tombstones is refused."""
    if scorer.filter_ids is not None or scorer.exclude_ids is not None or scorer.doc_range is not None:
        raise ValueError("cursor WAND reads segments directly: no filter, tombstones or doc range")
    cursors = []
    for t, segs in scorer._owners_of(toks).items():
        idf_val = idf(scorer._global_df(t, segs), scorer.n_docs)
        cursors.extend(seg.cursor(t, idf_val) for seg in segs)
    if not cursors:
        return _no_hits()
    return wand_topk(cursors, scorer.doclens.lookup_one, scorer.avgdl, scorer.k)


class FacetCounter:
    """Search-engine FACETING over the full match set: for each query,
    count the DISTINCT documents containing ≥1 query term, grouped by a
    docs/-sidecar facet column (e.g. lang). This is the collection-time
    aggregation mainstream engines run alongside top-k — the match set is
    the disjunctive postings union (doc_ids only; no scores, no doclens,
    no text), so the per-query cost is the query terms' postings length,
    exactly like scoring. Tombstoned docs are excluded (visibility
    semantics shared with QueryScorer).

    State loads once per worker (segments mmap + one dictionary-encoded
    facet array over the docs sidecar — code bytes per doc, not strings);
    at cluster scale the facet array shards by doc range with the same
    plan as DoclenTable (SCALE.md §3)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None, facet: str = "lang"):
        self.segments = _open_segments(out_dir, seg_ids)
        self.facet = facet
        self.doc_ids, self.codes, self.values = _facet_codes(out_dir, facet)
        self.exclude_ids = mf.read_tombstones(out_dir)

    def _match_set(self, text: str) -> np.ndarray:
        lists = []
        for t in set(tokenize(text)):
            for seg in self.segments:
                got = seg.term_postings(t)
                if got is not None:
                    lists.append(got[0])
        if not lists:
            return np.empty(0, np.uint64)
        docs = np.unique(np.concatenate(lists))
        if self.exclude_ids is not None:
            docs = docs[~_member_mask(docs, self.exclude_ids)]
        return docs

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        vals_out: list[str] = []
        counts_out: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            codes = self.codes[np.searchsorted(self.doc_ids, docs)]
            counts = np.bincount(codes, minlength=len(self.values))
            # frozen output order: facet value ascending within each query
            for vi in np.argsort(np.asarray(self.values, dtype=object), kind="stable"):
                if counts[vi]:
                    qids_out.append(qid)
                    vals_out.append(self.values[vi])
                    counts_out.append(int(counts[vi]))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                self.facet: pa.array(vals_out, pa.string()),
                "n_docs": pa.array(counts_out, pa.int64()),
            }
        )


class FacetCardinality(FacetCounter):
    """CARDINALITY aggregation over the match set (ES cardinality agg on
    a keyword field): per query, the number of DISTINCT facet values
    among the matching visible docs. Exact here (the facet dictionary is
    small); ES answers the same question with HyperLogLog++ when the
    value space is large — this engine's mergeable HLL sketch
    (functions/sketches.py) is the drop-in at that scale. Empty match
    sets emit no row."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        cards: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            codes = self.codes[np.searchsorted(self.doc_ids, docs)]
            qids_out.append(qid)
            cards.append(int(len(np.unique(codes))))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "n_values": pa.array(cards, pa.int64()),
            }
        )


class FacetTopK:
    """GROUPED top-k (result diversification): for each query, the top-k
    BM25 hits WITHIN every facet group (e.g. per lang) — the "collapse by
    field" feature of mainstream engines, exact: the per-group ranking is
    the full disjunctive ranking restricted to the group, so it can be
    replayed by a windowed SQL oracle (row_number PARTITION BY query,
    facet). Composition: a brute-path QueryScorer supplies per-term
    cached (doc_id, contribution) arrays (tombstone/facet visibility
    included); the union accumulates in sorted-term order — bit-identical
    to the scorer's brute path — then one dictionary-code pass groups."""

    def __init__(
        self, out_dir: str, seg_ids: list[int] | None = None, facet: str = "lang", k: int = 5
    ):
        self.scorer = QueryScorer(out_dir, seg_ids, k=k, method="brute")
        self.k = k
        self.facet = facet
        self.doc_ids, self.codes, self.values = _facet_codes(out_dir, facet)
        self._value_order = sorted(range(len(self.values)), key=self.values.__getitem__)

    def _scored_groups(self, text: str):
        """(match set, BM25 sums, facet code per doc) of one query; the
        match set is empty when no query term is in the vocabulary."""
        sc = self.scorer
        ids, scores = _scored_union(sc._entries(sc._owners_of(tokenize(text))))
        return ids, scores, self.codes[np.searchsorted(self.doc_ids, ids)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            all_ids, scores, codes = self._scored_groups(text)
            for vi in self._value_order:
                m = codes == vi
                if not m.any():
                    continue
                d, s = topk_select(all_ids[m], scores[m], self.k)
                hits.append((qid, {self.facet: [self.values[vi]] * len(d),
                                   "doc_id": d, "score": s}))
        return _ranked_table(hits, pa.schema(
            [("query_id", pa.int64()), (self.facet, pa.string()), ("rank", pa.int32()),
             ("doc_id", pa.uint64()), ("score", pa.float64())]
        ))


class FunctionScoreTopK:
    """FUNCTION-SCORE retrieval (Elasticsearch's function_score with a
    LINEAR time-decay multiplier): final = bm25 × max(0, 1 − |origin −
    ts| / scale) — "relevance, discounted by staleness". Linear decay is
    chosen over exp/gauss deliberately: the factor is a short chain of
    IEEE-754 ops (int64 diff → double divide → subtract → clamp) that
    rounds IDENTICALLY in numpy and the SQL oracle, so ranks replay
    bit-faithfully; transcendental decay would differ in the last ulp
    across libm implementations. The multiplier is ≤ 1, so Block-Max
    WAND's undecayed bounds stay admissible upper bounds at cluster
    scale; here the brute-path scorer supplies per-term cached (doc_id,
    contribution) arrays (tombstone/filter visibility included) and the
    union accumulates in sorted-term order — bit-identical to the
    scorer's brute path — then one docvalue gather applies the decay
    before top-k selection. Total order: (final score DESC, doc_id ASC)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "warc_ts", origin_us: int = 0,
                 scale_us: int = 1, k: int = 10):
        self.scorer = QueryScorer(out_dir, seg_ids, k=k, method="brute")
        self.k = k
        self.field = field
        self.origin_us = int(origin_us)
        self.scale_us = int(scale_us)
        self.doc_ids, self.vals = _docvalues(out_dir, field)

    def _factor(self, vals: np.ndarray) -> np.ndarray:
        """Per-doc multiplier from the gathered docvalues. Base class:
        clamped linear decay (an int64 diff, one divide, one subtract —
        every op correctly rounded identically in numpy and SQL)."""
        return np.maximum(1.0 - np.abs(self.origin_us - vals) / float(self.scale_us), 0.0)

    def _apply(self, scores: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Combine the BM25 sums with the docvalue signal. Base class
        (and every multiplicative function_score): scores × factor.
        Additive feature queries (rank_feature / distance_feature)
        override this to ADD their boost instead."""
        return scores * self._factor(vals)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sc = self.scorer
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            all_ids, scores = _scored_union(sc._entries(sc._owners_of(tokenize(text))))
            scores = self._apply(scores, self.vals[np.searchsorted(self.doc_ids, all_ids)])
            hits.append((qid, dict(zip(("doc_id", "score"), topk_select(all_ids, scores, self.k)))))
        return _ranked_table(hits, _SCORED_HITS)


class FieldValueFactorTopK(FunctionScoreTopK):
    """FIELD_VALUE_FACTOR retrieval (Elasticsearch's function_score with
    ``field_value_factor`` and the ``ln1p`` modifier): final = bm25 ×
    ln(1 + docvalue) — "relevance, boosted by an intrinsic document
    signal" (here doclen: longer docs carry more link equity in the
    classic static-boost setups; any int64 docvalue slots in). ln1p is
    the one ES modifier that is hash-replayable: the argument 1+v is an
    exact integer, libm's correctly-rounded ln agrees bitwise between
    numpy and DuckDB on identical doubles, and the final multiply is one
    correctly-rounded IEEE op — the same replayability argument as the
    linear decay. The factor is NOT bounded by 1, so unlike the decay it
    cannot reuse undecayed WAND bounds; the brute union path (shared with
    the base class) is the correct engine here, and at cluster scale the
    per-term block maxima would scale by ln(1 + max_dl) to stay
    admissible. Total order: (final score DESC, doc_id ASC)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "doclen", k: int = 10):
        super().__init__(out_dir, seg_ids, field=field, origin_us=0, scale_us=1, k=k)

    def _factor(self, vals: np.ndarray) -> np.ndarray:
        return np.log1p(vals.astype(np.float64))


class RankFeatureTopK(FunctionScoreTopK):
    """RANK_FEATURE retrieval (Elasticsearch's ``rank_feature`` query with
    the default ``saturation`` function, as a bool-should clause next to
    the match query): final = bm25 + weight × f/(f + pivot), over the
    MATCH SET of the text query (ES scores only docs satisfying the
    must/match clause; the feature clause then boosts each of them —
    exactly the union this stage already gathers). The saturation form
    is Lucene's core static-signal shape (pagerank / url_length /
    popularity features); here any int64 docvalue slots in (default:
    doclen). Replayability: f and pivot are exact integers, f + pivot is
    an exact double below 2^53, the divide is one correctly-rounded IEEE
    op, weight is a power of two, and the final add is one IEEE op — the
    same bitwise argument as the linear decay. Saturation is monotone in
    f, so docs with equal (tf profile, dl) stay exactly tied — callers
    wanting the external source-id tie order use the _full_ranking
    re-rank (the field_value_factor pattern). The boost is bounded by
    ``weight``, so at cluster scale WAND bounds stay admissible after a
    +weight shift per block maximum. Total order (score DESC, doc_id
    ASC)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "doclen", pivot: int = 100,
                 weight: float = 2.0, k: int = 10):
        super().__init__(out_dir, seg_ids, field=field, origin_us=0, scale_us=1, k=k)
        self.pivot = int(pivot)
        self.weight = float(weight)

    def _apply(self, scores: np.ndarray, vals: np.ndarray) -> np.ndarray:
        f = vals.astype(np.float64)
        return scores + self.weight * (f / (f + float(self.pivot)))


class DistanceFeatureTopK(FunctionScoreTopK):
    """DISTANCE_FEATURE retrieval (Elasticsearch's ``distance_feature``
    query on a date field, as a bool-should clause): final = bm25 +
    weight × pivot/(pivot + |origin − ts|) — "relevance, boosted by
    recency-to-origin", the additive counterpart of the multiplicative
    linear decay. The int64 |origin − ts| is exact, pivot + dist is an
    exact double below 2^53 (crawl timestamps are ~1.7e15 µs), the
    divide is one correctly-rounded IEEE op, weight is a power of two,
    and the add is one IEEE op — ranks replay bit-faithfully in SQL.
    Docs equidistant from origin on opposite sides collide, so ties are
    NOT fully broken: callers use the _full_ranking source-id re-rank.
    Boost ≤ weight keeps shifted WAND bounds admissible at cluster
    scale. Total order (score DESC, doc_id ASC)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "warc_ts", origin_us: int = 0,
                 pivot_us: int = 1, weight: float = 2.0, k: int = 10):
        super().__init__(out_dir, seg_ids, field=field, origin_us=origin_us,
                         scale_us=1, k=k)
        self.pivot_us = int(pivot_us)
        self.weight = float(weight)

    def _apply(self, scores: np.ndarray, vals: np.ndarray) -> np.ndarray:
        dist = np.abs(np.int64(self.origin_us) - vals).astype(np.float64)
        return scores + self.weight * (float(self.pivot_us) / (float(self.pivot_us) + dist))


class CombinedFieldsTopK:
    """COMBINED_FIELDS retrieval (Elasticsearch's ``combined_fields``
    query / Lucene's CombinedFieldQuery, i.e. BM25F with integer field
    weights): the third multi_match-family semantics, distinct from both
    the weighted per-field score sum (bm25_topk_multifield) and the
    per-term best field (cross_fields). Fields merge into ONE synthetic
    field BEFORE scoring:

        tf'(t,d) = tf_body + W·tf_title      (term freq, weight-repeated)
        dl'(d)   = dl_body + W·dl_title      (combined length)
        avgdl'   = Σ dl' / N                 (one exact-int divide)
        df'(t)   = combined df — here df_body, because the title field is
                   the doc's first TITLE_LEN body tokens (title ⊆ body,
                   asserted per gathered posting)
        score    = Σ_t idf'(t) · tf'·(k1+1)/(tf' + k1·(1−b+b·dl'/avgdl'))

    With an integer W, tf' and dl' stay exact integers, so the whole
    float chain is the standard BM25 expression over exact-int inputs —
    the same bitwise SQL-replay argument as the base scorer. Execution:
    both REAL field indexes load per worker (term-sharded gathers with
    global df, exactly the scorer's path); title postings join to body
    doc space through the url-aligned sidecar map built once in
    __init__. At cluster scale each doc-range shard holds its slice of
    both fields' postings and the url alignment is partition-local (the
    multifield plan, SCALE.md §3). Total order (score DESC, doc_id ASC)
    in body-internal space; callers re-rank in source-id space for the
    external tie order (the _full_ranking pattern — combined scores tie
    exactly for content clones)."""

    def __init__(self, body_dir: str, seg_ids: list[int] | None,
                 title_dir: str, w_title: int = 2, k: int = 10):
        import pyarrow.compute as pc

        self.k = k
        self.w_title = int(w_title)
        self.sb = QueryScorer(body_dir, seg_ids, k=k, method="brute")
        self.st = QueryScorer(title_dir, k=k, method="brute")
        b, t = (_docs_columns(d, ["doc_id", "url", "doclen"]) for d in (body_dir, title_dir))
        bo = pc.sort_indices(b["url"])
        to = pc.sort_indices(t["url"])
        b_urls = b["url"].take(bo).to_pylist()
        t_urls = t["url"].take(to).to_pylist()
        if b_urls != t_urls:
            raise ValueError("combined_fields: field indexes cover different urls")
        b_ids = b["doc_id"].take(bo).to_numpy(zero_copy_only=False).astype(np.uint64)
        t_ids = t["doc_id"].take(to).to_numpy(zero_copy_only=False).astype(np.uint64)
        b_dl = b["doclen"].take(bo).to_numpy(zero_copy_only=False).astype(np.int64)
        t_dl = t["doclen"].take(to).to_numpy(zero_copy_only=False).astype(np.int64)
        # title-internal-id -> body-internal-id map (sorted by title id)
        o = np.argsort(t_ids)
        self.t_key = t_ids[o]
        self.t_val_b = b_ids[o]
        # combined doclen table keyed by body id (sorted)
        o = np.argsort(b_ids)
        self.dl_key = b_ids[o]
        dlc = b_dl + self.w_title * t_dl
        self.dl_val = dlc[o]
        self.n_docs = self.sb.n_docs
        self.avgdl_c = float(int(dlc.sum())) / float(self.n_docs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            entries = []
            # title ⊆ body: a term without body postings matches nothing
            for t, segs_b in self.sb._owners_of(tokenize(text)).items():
                ids_b, tf_b = self.sb._gather_postings(t, segs_b)
                tfc = tf_b.astype(np.int64)
                segs_t = self.st._owners(t)
                if segs_t:
                    ids_t, tf_t = self.st._gather_postings(t, segs_t)
                    mapped = self.t_val_b[np.searchsorted(self.t_key, ids_t)]
                    o = np.argsort(mapped)
                    mapped = mapped[o]
                    pos, ok = _sorted_lookup(mapped, ids_b)
                    if not ok.all():
                        raise AssertionError(
                            f"combined_fields: title postings for {t!r} not a "
                            "subset of body postings"
                        )
                    tfc[pos] += self.w_title * tf_t[o].astype(np.int64)
                entries.append(
                    (ids_b, tfc, idf(self.sb._global_df(t, segs_b), self.n_docs))
                )
            if not entries:
                continue
            all_ids = np.unique(np.concatenate([e[0] for e in entries]))
            dls = self.dl_val[np.searchsorted(self.dl_key, all_ids)].astype(np.float64)
            scores = np.zeros(len(all_ids), dtype=np.float64)
            for ids_b, tfc, idf_val in entries:  # sorted-term order
                pos = np.searchsorted(all_ids, ids_b)
                scores[pos] += score_tf(
                    tfc.astype(np.float64), dls[pos], self.avgdl_c, idf_val
                )
            hits.append((qid, dict(zip(("doc_id", "score"), topk_select(all_ids, scores, self.k)))))
        return _ranked_table(hits, _SCORED_HITS)


class BoostingTopK:
    """BOOSTING retrieval (Elasticsearch's ``boosting`` query): the
    positive disjunctive BM25 score, multiplied by ``negative_boost``
    when the doc ALSO matches the negative query (any negative term
    present — filter-context match; the negative side's scores are never
    used). Demotion, not exclusion: negative matches stay ranked, just
    below what their relevance alone would earn. ``negative_boost``
    defaults to 0.5 — a power of two, so the demotion multiply is
    IEEE-exact and the SQL replay is bit-faithful (the same reasoning as
    FunctionScoreTopK's linear decay). The negative match set is the
    union of the negative terms' postings doc_ids, gathered through the
    same term-sharded segments as the positives (OOV negative terms
    contribute nothing; a doc-range-sharded scorer sees only its range's
    postings, so the demotion set shards for free at cluster scale).
    Total order (final score DESC, doc_id ASC)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 negative_boost: float = 0.5, k: int = 10):
        self.scorer = QueryScorer(out_dir, seg_ids, k=k, method="brute")
        self.k = k
        self.neg_boost = float(negative_boost)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sc = self.scorer
        hits = []
        for qid, text, neg in zip(
            batch["query_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["neg"].to_pylist(),
        ):
            all_ids, scores = _scored_union(sc._entries(sc._owners_of(tokenize(text))))
            neg_ids = [e[0] for e in sc._entries(sc._owners_of(tokenize(neg or "")))]
            if neg_ids:
                hit = np.isin(all_ids, np.unique(np.concatenate(neg_ids)), assume_unique=True)
                scores = np.where(hit, scores * self.neg_boost, scores)
            hits.append((qid, dict(zip(("doc_id", "score"), topk_select(all_ids, scores, self.k)))))
        return _ranked_table(hits, _SCORED_HITS)


class SynonymTopK:
    """QUERY-TIME SYNONYM EXPANSION with Lucene SynonymQuery semantics:
    each query term expands to its synonym group {term} ∪ syns(term), and
    the group scores as ONE pseudo-term — merged tf = Σ tf over the
    group's members present in the doc, idf from the group's MAX df (the
    Lucene blended-df rule: synonyms share one saturation curve instead
    of double-counting near-identical words). Groups accumulate in
    sorted-base-term order (the frozen order rule); total order
    (score DESC, doc_id ASC). An out-of-vocabulary synonym simply
    contributes nothing (its postings are empty); a whole-group miss
    drops the group, and a query with no surviving group emits no rows.

    The group merge is vectorized: concat the members' (doc_id, tf)
    arrays → np.unique(return_inverse) → np.add.at fold. Per-query cost
    is the expanded terms' postings length — identical shape to
    disjunctive scoring, so the doc-range-sharded cluster path applies
    unchanged (merged tf and max-df are per-group global facts;
    df sums/maxes ship with the query exactly like global df today)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 synonyms: tuple[tuple[str, tuple[str, ...]], ...] = (),
                 k: int = 10):
        self.scorer = QueryScorer(out_dir, seg_ids, k=k, method="brute")
        self.k = k
        self.synonyms = {base: tuple(syns) for base, syns in synonyms}

    def __call__(self, batch: pa.Table) -> pa.Table:
        sc = self.scorer
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            merged: list[tuple[np.ndarray, np.ndarray, float]] = []
            for base in sorted(set(tokenize(text))):
                members = sc._owners_of({base, *self.synonyms.get(base, ())})
                if not members:
                    continue
                parts = [sc._gather_postings(t, segs) for t, segs in members.items()]
                ids = np.concatenate([p[0] for p in parts])
                tfs = np.concatenate([p[1] for p in parts]).astype(np.float64)
                uids, inv = np.unique(ids, return_inverse=True)
                mtf = np.zeros(len(uids), dtype=np.float64)
                np.add.at(mtf, inv, tfs)
                dfm = max(sc._global_df(t, segs) for t, segs in members.items())
                merged.append((uids, mtf, idf(dfm, sc.n_docs)))
            if not merged:
                continue
            cand = np.unique(np.concatenate([m[0] for m in merged]))
            dls = sc.doclens.lookup(cand).astype(np.float64)
            scores = np.zeros(len(cand), dtype=np.float64)
            for uids, mtf, idf_val in merged:  # sorted-base-term order
                pos = np.searchsorted(cand, uids)
                scores[pos] += score_tf(mtf, dls[pos], sc.avgdl, idf_val)
            hits.append((qid, dict(zip(("doc_id", "score"), topk_select(cand, scores, self.k)))))
        return _ranked_table(hits, _SCORED_HITS)


class RescoreTopK:
    """RESCORE API (Elasticsearch rescore): retrieve a WINDOW of the top-N
    docs by the primary disjunctive BM25, then — inside the window only —
    add a phrase bonus:

        final = bm25 + weight × bm25_phrase

    where bm25_phrase equals the doc's BM25 sum when it contains the query
    as a consecutive phrase, else 0 (the standard "cheap query recalls,
    expensive query re-ranks" pattern: the phrase verification runs on N
    window docs per query, never the corpus). The returned page is the
    top-k of the rescored window, order (final DESC, doc_id ASC). Both
    phases reuse the frozen QueryScorer paths, so window membership and
    scores are bit-identical to the primary/phrase modes the goldens pin."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 window: int = 30, weight: float = 2.0, k: int = 10):
        self.primary = QueryScorer(out_dir, seg_ids, k=window, method="wand")
        self.phrase = QueryScorer(out_dir, seg_ids, k=1 << 30, method="wand",
                                  mode="phrase")
        self.weight = float(weight)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            d_win, s_win = self.primary._score_query(text)
            if len(d_win) == 0:
                continue
            d_ph, s_ph = self.phrase._score_query_phrase(text)
            order = np.argsort(d_ph)
            d_ph, s_ph = d_ph[order], s_ph[order]
            pos, ok = _sorted_lookup(d_win, d_ph)
            bonus = np.zeros(len(d_win), dtype=np.float64)
            bonus[ok] = s_ph[pos[ok]]
            final = s_win + self.weight * bonus
            hits.append((qid, dict(zip(("doc_id", "score"), topk_select(d_win, final, self.k)))))
        return _ranked_table(hits, _SCORED_HITS)


class DocvalueTopK:
    """Sort-by-field retrieval: for each query, the top-k docs of the
    disjunctive MATCH SET ordered by a numeric docvalue (e.g. warc_ts
    DESC — "newest matching pages"), NOT by score. Mainstream engines call
    this sort-by-field; relevance never enters, so no BM25 state loads at
    all — the worker holds the mmap'd segments plus ONE int64 docvalue
    array over the docs sidecar (8 bytes/doc; shards by doc range at
    cluster scale exactly like doclens, SCALE.md §3). Frozen total order:
    (value DESC, doc_id ASC); tombstoned docs excluded (visibility shared
    with QueryScorer)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "warc_ts", k: int = 10):
        self.segments = _open_segments(out_dir, seg_ids)
        self.field = field
        self.doc_ids, self.vals = _docvalues(out_dir, field)
        self.exclude_ids = mf.read_tombstones(out_dir)
        self.k = k

    # match set = disjunctive postings union minus tombstones — identical
    # semantics to faceting, so borrow the implementation wholesale
    _match_set = FacetCounter._match_set

    def _value_topk(self, docs: np.ndarray, vals: np.ndarray) -> dict:
        """The top-k of ``docs`` (ascending) by (value DESC, doc_id ASC):
        docs is ascending, so a stable sort on -vals yields exactly that
        order; past k, partition finds the kth value cheaply and the
        stable sort runs over only the >= kth candidates (ties at the
        boundary included)."""
        k = min(self.k, len(docs))
        if len(docs) > k:
            kth = -np.partition(-vals, k - 1)[k - 1]
            cand = np.flatnonzero(vals >= kth)
            sel = cand[np.argsort(-vals[cand], kind="stable")][:k]
        else:
            sel = np.argsort(-vals, kind="stable")[:k]
        return {"doc_id": docs[sel], self.field: vals[sel]}

    def _hits_table(self, hits) -> pa.Table:
        return _ranked_table(hits, pa.schema(
            [("query_id", pa.int64()), ("rank", pa.int32()),
             ("doc_id", pa.uint64()), (self.field, pa.int64())]
        ))

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs):
                vals = self.vals[np.searchsorted(self.doc_ids, docs)]
                hits.append((qid, self._value_topk(docs, vals)))
        return self._hits_table(hits)


class DocvalueSearchAfter(DocvalueTopK):
    """SEARCH_AFTER cursor pagination on the docvalue sort (the ES
    search_after API — the scale-safe alternative to from+size offset
    paging: a cursor is O(1) state per client, while deep offsets force
    every shard to materialize offset+k results). Batch rows carry the
    per-query cursor (after_val, after_doc) = the sort key of the last
    hit already delivered; a doc qualifies iff it sorts STRICTLY after
    the cursor in the frozen (value DESC, doc_id ASC) order:
    value < after_val OR (value == after_val AND doc_id > after_doc).
    The filter is one vectorized mask over the match set before the
    same top-k selection as DocvalueTopK."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = []
        for qid, text, a_val, a_doc in zip(
            batch["query_id"].to_pylist(), batch["text"].to_pylist(),
            batch["after_val"].to_pylist(), batch["after_doc"].to_pylist(),
        ):
            docs = self._match_set(text)
            vals = self.vals[np.searchsorted(self.doc_ids, docs)]
            m = (vals < a_val) | ((vals == a_val) & (docs > np.uint64(a_doc)))
            if m.any():
                hits.append((qid, self._value_topk(docs[m], vals[m])))
        return self._hits_table(hits)


class Percolator:
    """REVERSE SEARCH (Elasticsearch percolator): STORED queries, STREAMED
    documents — the alerting/routing primitive ("which saved searches does
    this new page match?"). No index is consulted: the document stream
    maps straight through a stateless batch fn whose stored queries are
    compiled once per worker, so percolation composes with ingest
    (read_parquet → Percolator → write/route) at full streaming
    backpressure — the exact shape a 100 TB firehose needs.

    Semantics: conjunctive — a doc matches a stored query iff EVERY
    distinct query term (OOV included, which therefore never matches)
    appears in the doc's token set. Fully vectorized per batch: one
    tokenize_flat pass, pc.index_in against the queries' union
    vocabulary, then a (docs × vocab) boolean incidence matrix and one
    all(axis) per query — no per-token Python."""

    def __init__(self, queries: tuple[tuple[int, str], ...]):
        import pyarrow.compute as _pc  # noqa: F401 (used in __call__)

        self.vocab: list[str] = sorted(
            {t for _, text in queries for t in set(tokenize(text))}
        )
        self._vocab_arr = pa.array(self.vocab, pa.string())
        vidx = {t: i for i, t in enumerate(self.vocab)}
        self.compiled: list[tuple[int, np.ndarray]] = [
            (qid, np.array(sorted(vidx[t] for t in set(tokenize(text))), dtype=np.int64))
            for qid, text in queries
            if tokenize(text)
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..textnorm import tokenize_flat

        doc_ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False), dtype=np.uint64)
        flat, fdocs, _ = tokenize_flat(batch["text"].combine_chunks(), doc_ids)
        idx = pc.index_in(flat, value_set=self._vocab_arr)
        idxn = idx.to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(idxn)
        qids_out: list[np.ndarray] = []
        docs_out: list[np.ndarray] = []
        if keep.any():
            cols = idxn[keep].astype(np.int64)
            docs_u, dinv = np.unique(fdocs[keep], return_inverse=True)
            m = np.zeros((len(docs_u), len(self.vocab)), dtype=bool)
            m[dinv, cols] = True
            for qid, tidx in self.compiled:
                hit = docs_u[m[:, tidx].all(axis=1)]
                if len(hit):
                    qids_out.append(np.full(len(hit), qid, dtype=np.int64))
                    docs_out.append(hit)
        qs = np.concatenate(qids_out) if qids_out else np.empty(0, np.int64)
        ds = np.concatenate(docs_out) if docs_out else np.empty(0, np.uint64)
        return pa.table(
            {
                "query_id": pa.array(qs, pa.int64()),
                "doc_id": pa.array(ds, pa.uint64()),
            }
        )


class TermStats:
    """TERM STATISTICS API (ES _termvectors term_statistics / Lucene
    TermStates): per requested term, the GLOBAL doc frequency (df, summed
    over the term's segment shards — the same fold every query runs) and
    the total term frequency (ttf / collection frequency, Σ tf over all
    postings). The strongest dictionary+postings audit short of a full
    export: df checks the dict fold, ttf checks every decoded tf.
    Tombstoned docs are excluded from both (visibility semantics shared
    with QueryScorer). OOV terms emit no row."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None):
        self.scorer = QueryScorer(out_dir, seg_ids, k=1, method="brute")

    def __call__(self, batch: pa.Table) -> pa.Table:
        sc = self.scorer
        terms_out: list[str] = []
        dfs: list[int] = []
        ttfs: list[int] = []
        for term in batch["term"].to_pylist():
            for t, segs in sc._owners_of(tokenize(term)).items():
                doc_ids, tfs = sc._gather_postings(t, segs)
                if len(doc_ids) == 0:
                    continue
                terms_out.append(t)
                dfs.append(len(doc_ids))
                ttfs.append(int(tfs.sum(dtype=np.int64)))
        return pa.table(
            {
                "term": pa.array(terms_out, pa.string()),
                "df": pa.array(dfs, pa.int64()),
                "ttf": pa.array(ttfs, pa.int64()),
            }
        )


class Explainer:
    """EXPLAIN API (Lucene/ES `_explain`): for each query's top-k hits,
    the raw per-term statistics the BM25 score is computed from — tf
    (from the term's postings), GLOBAL df (summed over the term's shards)
    and the doc's length — one row per (hit, matched term). Integer-only
    by design: the floats (idf, contribution, score) are pure functions of
    these integers plus the corpus constants (n_docs, avgdl), so the
    explanation is complete while the oracle compare stays exact;
    tests pin that score_tf/idf over these rows reconstructs the hit's
    ranking score bit-exactly. Rows follow the frozen hit order, terms
    ascending within a hit; absent terms (tf 0) emit no row, like Lucene's
    per-field explanation tree."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None, k: int = 10):
        self.scorer = QueryScorer(out_dir, seg_ids, k=k, method="wand")

    def __call__(self, batch: pa.Table) -> pa.Table:
        sc = self.scorer
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            d, _ = sc._score_query(text)
            if len(d) == 0:
                continue
            per_hit: list[list[tuple[str, int, int]]] = [[] for _ in range(len(d))]
            for t, owners in sc._owners_of(tokenize(text)).items():
                doc_ids, tfs = sc._gather_postings(t, owners)
                idx, ok = _sorted_lookup(d, doc_ids)
                gdf = int(sc._global_df(t, owners))
                for i in np.flatnonzero(ok):
                    per_hit[i].append((t, int(tfs[idx[i]]), gdf))
            dls = sc.doclens.lookup(d)
            rows = [(i, row) for i in range(len(d)) for row in per_hit[i]]
            hits.append((qid, {
                "rank": [i + 1 for i, _ in rows],
                "doc_id": d[[i for i, _ in rows]],
                "term": [t for _, (t, _, _) in rows],
                "tf": [tf for _, (_, tf, _) in rows],
                "df": [gdf for _, (_, _, gdf) in rows],
                "dl": [int(dls[i]) for i, _ in rows],
            }))
        return _ranked_table(hits, pa.schema(
            [("query_id", pa.int64()), ("rank", pa.int32()), ("doc_id", pa.uint64()),
             ("term", pa.string()), ("tf", pa.int64()), ("df", pa.int64()), ("dl", pa.int64())]
        ))


class CompletionSuggester:
    """COMPLETION SUGGESTER (ES `completion` / Lucene suggest): a typed
    prefix expands against the sharded term dictionary (sorted-list
    bisection per segment — the same range scan as mode="prefix") and the
    candidates rank by GLOBAL document frequency (popularity), tie term
    ASC, top ``size`` returned. df is summed across a term's segment
    shards before ranking (a per-shard top-size would mis-rank terms
    whose shards split their df — same global-statistics rule as
    scoring). Emits (query_id, rank, term, df); an unmatched or empty
    prefix emits no rows. At cluster scale a prefix range routes to O(1)
    term-shard holders; the candidate set is vocabulary-bounded, never
    corpus-bounded."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None, size: int = 5):
        self.segments = _open_segments(out_dir, seg_ids)
        self.size = size

    def _suggest(self, prefix: str) -> list[tuple[str, int]]:
        import bisect

        toks = tokenize(prefix)
        if len(toks) != 1:
            return []
        p = toks[0]
        hi = p[:-1] + chr(ord(p[-1]) + 1)
        df: dict[str, int] = {}
        for seg in self.segments:
            i0 = bisect.bisect_left(seg.terms_sorted, p)
            i1 = bisect.bisect_left(seg.terms_sorted, hi)
            for t in seg.terms_sorted[i0:i1]:
                df[t] = df.get(t, 0) + int(seg.dict[t][0])
        ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: self.size]

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            ranked = self._suggest(text)
            hits.append((qid, {"term": [t for t, _ in ranked], "df": [d for _, d in ranked]}))
        return _ranked_table(hits, pa.schema(
            [("query_id", pa.int64()), ("rank", pa.int32()),
             ("term", pa.string()), ("df", pa.int64())]
        ))


class RankEval:
    """RANK-EVAL API (ES `_rank_eval`): per query, IR metrics of the
    frozen disjunctive BM25 top-k against a DETERMINISTIC qrel — a doc is
    RELEVANT iff it contains EVERY distinct query token (the conjunctive
    containment set, computable exactly on both the engine and the SQL
    side, so the gate needs no hand-labeled judgments). Integer-only
    outputs per query: n_rel (relevant docs in the corpus), n_rel_at_k
    (relevant among the top-k → precision@k numerator) and
    first_rel_rank (0 if none → reciprocal rank is 1/first_rel_rank).
    A fully-OOV query scores (0, 0, 0). One row per input query."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None, k: int = 10):
        self.scorer = QueryScorer(out_dir, seg_ids, k=k, method="wand")

    def __call__(self, batch: pa.Table) -> pa.Table:
        sc = self.scorer
        qids, n_rels, n_at_ks, firsts = [], [], [], []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            hits, _ = sc._score_query(text)
            owners = sc._owners_of(tokenize(text), required=True)
            if owners:
                rel = _intersect([e[0] for e in sc._entries(owners)])
            else:
                rel = np.empty(0, np.uint64)
            n_rel = len(rel)
            n_at_k, first = 0, 0
            if n_rel and len(hits):
                ok = _member_mask(hits, rel)
                n_at_k = int(ok.sum())
                where = np.flatnonzero(ok)
                first = int(where[0]) + 1 if len(where) else 0
            qids.append(qid)
            n_rels.append(n_rel)
            n_at_ks.append(n_at_k)
            firsts.append(first)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "n_rel": pa.array(n_rels, pa.int64()),
                "n_rel_at_k": pa.array(n_at_ks, pa.int64()),
                "first_rel_rank": pa.array(firsts, pa.int64()),
            }
        )


class MatchCounter:
    """TOTAL HITS per query (Lucene's totalHits): the size of the
    disjunctive match set — distinct visible docs containing ≥1 query
    term. The cheapest collection an engine runs (doc_ids only: no
    scores, no doclens, no docvalues); queries with an empty match set
    emit no row (the SQL-join semantics the oracle replays)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None):
        self.segments = _open_segments(out_dir, seg_ids)
        self.exclude_ids = mf.read_tombstones(out_dir)

    _match_set = FacetCounter._match_set

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        counts_out: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            n = len(self._match_set(text))
            if n:
                qids_out.append(qid)
                counts_out.append(n)
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "n_hits": pa.array(counts_out, pa.int64()),
            }
        )


class RareTerms(MatchCounter):
    """RARE-TERMS aggregation (ES `rare_terms`, dictionary-driven
    variant): per query, the vocabulary terms with GLOBAL df ≤
    max_doc_count that occur in ≥ 1 matching doc, each with the count of
    matching docs containing it. Deliberate, documented deviation from
    ES (which measures rarity WITHIN the agg context using a CuckooFilter
    and is approximate): rarity here is the corpus-global df folded from
    the shard dictionaries, which is exactly what makes the operator
    scale-safe AND exact — candidates come from the DICTIONARY (global
    df ≤ T bounds each candidate's postings at T entries, so the whole
    candidate state is vocabulary-shaped, never corpus-shaped) instead
    of enumerating matched docs' terms. Global df ≤ T implies context
    df ≤ T, so every emitted bucket satisfies the ES predicate; the
    variant can only miss terms globally common but rare in one match
    set — the boilerplate terms rare_terms exists to exclude anyway. At
    cluster scale the term-sharded dictionaries each contribute their
    own rare candidates and per-doc-range counts concat-merge."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 max_doc_count: int = 100):
        super().__init__(out_dir, seg_ids)
        self.max_doc_count = int(max_doc_count)
        gdf: dict[str, int] = {}
        for seg in self.segments:
            for t, entry in seg.dict.items():
                gdf[t] = gdf.get(t, 0) + entry[0]
        # rare candidates + their (tiny, df-bounded) postings, loaded once
        # per worker; shards are docID-disjoint so concat+sort is exact
        self.rare: list[tuple[str, np.ndarray]] = []
        for t in sorted(gdf):
            if gdf[t] <= self.max_doc_count:
                lists = []
                for seg in self.segments:
                    got = seg.term_postings(t)
                    if got is not None:
                        lists.append(got[0])
                self.rare.append((t, np.sort(np.concatenate(lists))))

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        terms_out: list[str] = []
        counts_out: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            for t, ids in self.rare:
                n = int(_member_mask(ids, docs).sum())
                if n:
                    qids_out.append(qid)
                    terms_out.append(t)
                    counts_out.append(n)
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "term": pa.array(terms_out, pa.string()),
                "n_docs": pa.array(counts_out, pa.int64()),
            }
        )


class AdjacencyMatrix(MatchCounter):
    """ADJACENCY-MATRIX aggregation (ES `adjacency_matrix`): for each
    input PAIR of filters (here: two disjunctive term queries), the sizes
    of both match sets and of their INTERSECTION — the co-occurrence
    matrix search engines render as a heat map. One input row = one cell
    (pair_id, text_a, text_b) → (pair_id, n_a, n_b, n_ab); cells are
    independent, so the matrix streams through stateless tasks with the
    per-worker match sets cached across cells sharing a filter (the
    diagonal is text_a == text_b ⇒ n_ab == n_a == n_b). Every pair emits
    a row, zeros included (the matrix shape is fixed by its request)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None):
        super().__init__(out_dir, seg_ids)
        self._set_cache: dict[str, np.ndarray] = {}

    def _cached_set(self, text: str) -> np.ndarray:
        got = self._set_cache.get(text)
        if got is None:
            got = self._match_set(text)
            if len(self._set_cache) > 256:
                self._set_cache.clear()
            self._set_cache[text] = got
        return got

    def __call__(self, batch: pa.Table) -> pa.Table:
        pids, nas, nbs, nabs = [], [], [], []
        for pid, ta, tb in zip(
            batch["pair_id"].to_pylist(),
            batch["text_a"].to_pylist(),
            batch["text_b"].to_pylist(),
        ):
            a = self._cached_set(ta)
            b = self._cached_set(tb)
            # both sets are sorted unique doc_ids: vectorized membership
            n_ab = int(_member_mask(b, a).sum())
            pids.append(pid)
            nas.append(len(a))
            nbs.append(len(b))
            nabs.append(n_ab)
        return pa.table(
            {
                "pair_id": pa.array(pids, pa.int64()),
                "n_a": pa.array(nas, pa.int64()),
                "n_b": pa.array(nbs, pa.int64()),
                "n_ab": pa.array(nabs, pa.int64()),
            }
        )


class MatchExporter(MatchCounter):
    """SCROLL/EXPORT: the FULL match set per query as rows (query_id,
    doc_id) — the bulk-export API (Elasticsearch scroll / Lucene
    collect-all) that feeds downstream pipelines rather than a result
    page. Inherits MatchCounter's state (segments + tombstones); emits
    doc_ids ascending per query. The output is a STREAM of blocks — a
    query matching 10^9 docs produces many blocks flowing through
    map_batches → write_parquet with backpressure, never a driver list.

    ``mode="and"`` switches to the CONJUNCTIVE match set (docs containing
    every distinct query term; an OOV term empties the set) — per-term
    postings unions intersected smallest-first, the same semantics as
    retrieval mode="and". This is what _delete_by_query-style bulk
    operations filter with."""

    # each input query can fan out to corpus-scale output rows: small
    # batches keep output blocks streaming (run_index_op reads this)
    batch_rows = 16

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 mode: str = "or"):
        super().__init__(out_dir, seg_ids)
        if mode not in ("or", "and"):
            raise ValueError(f"export mode must be 'or' or 'and', not {mode!r}")
        self.mode = mode

    def _match_set_and(self, text: str) -> np.ndarray:
        per_term: list[np.ndarray] = []
        for t in set(tokenize(text)):
            lists = []
            for seg in self.segments:
                got = seg.term_postings(t)
                if got is not None:
                    lists.append(got[0])
            if not lists:
                return np.empty(0, np.uint64)  # OOV term ⇒ empty conjunction
            per_term.append(np.unique(np.concatenate(lists)))
        if not per_term:
            return np.empty(0, np.uint64)
        docs = _intersect(per_term)  # smallest-first: the rare term pays
        if self.exclude_ids is not None:
            docs = docs[~_member_mask(docs, self.exclude_ids)]
        return docs

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[np.ndarray] = []
        docs_out: list[np.ndarray] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text) if self.mode == "or" else self._match_set_and(text)
            if len(docs) == 0:
                continue
            qids_out.append(np.full(len(docs), qid, dtype=np.int64))
            docs_out.append(docs)
        qids = np.concatenate(qids_out) if qids_out else np.empty(0, np.int64)
        docs = np.concatenate(docs_out) if docs_out else np.empty(0, np.uint64)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "doc_id": pa.array(docs, pa.uint64()),
            }
        )


class DateHistogram(DocvalueTopK):
    """DATE-HISTOGRAM aggregation over the match set (Elasticsearch's
    date_histogram agg): for each query, the count of distinct matching
    visible docs per fixed-width time bucket of a numeric docvalue
    (default: calendar day of warc_ts). Collection cost is the match
    set (doc_ids + one int64 gather) — no scores, no text; the bucket
    fold is one vectorized np.unique over vals // bucket_us. At cluster
    scale the docvalue array shards by doc range like doclens
    (SCALE.md §3) and per-range partial histograms concat-merge (bucket
    counts are additive across disjoint doc ranges)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "warc_ts", bucket_us: int = 86_400_000_000):
        super().__init__(out_dir, seg_ids, field, k=1)
        self.bucket_us = int(bucket_us)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[np.ndarray] = []
        buckets_out: list[np.ndarray] = []
        counts_out: list[np.ndarray] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            vals = self.vals[np.searchsorted(self.doc_ids, docs)]
            buckets, counts = np.unique(vals // self.bucket_us, return_counts=True)
            qids_out.append(np.full(len(buckets), qid, dtype=np.int64))
            buckets_out.append(buckets)
            counts_out.append(counts.astype(np.int64))
        cat = lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64)  # noqa: E731
        return pa.table(
            {
                "query_id": pa.array(cat(qids_out), pa.int64()),
                "bucket": pa.array(cat(buckets_out), pa.int64()),
                "n_docs": pa.array(cat(counts_out), pa.int64()),
            }
        )


class HistogramPipeline(DocvalueTopK):
    """HISTOGRAM aggregation + PIPELINE aggregations over the match set
    (ES `histogram` with min_doc_count=0, plus the two canonical bucket
    pipeline aggs, `cumulative_sum` and `derivative`): for each query,
    the DENSE fixed-width bucket series of a numeric docvalue between the
    match set's min and max bucket — EMPTY buckets included, which is
    what distinguishes `histogram` from the date_histogram implemented
    above and is what makes the pipeline aggs well-defined over the
    series. Per bucket: n_docs (distinct matching visible docs),
    cum_docs (running total — ES cumulative_sum), delta_docs (difference
    from the previous bucket — ES derivative, with the series start
    frozen against an implicit 0 baseline so the output stays total and
    integer-only; ES emits no value for the first bucket, a gap policy
    an exact-hash oracle cannot replay with NULL-free columns).
    Collection cost is the match set + one int64 gather; the dense fold
    is a bincount over (bucket − b0). At cluster scale per-doc-range
    partial histograms are additive and concat-merge; the pipeline fold
    runs post-merge over the (bucket-count-sized) series, never over
    docs."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "doclen", interval: int = 4):
        super().__init__(out_dir, seg_ids, field, k=1)
        self.interval = int(interval)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[np.ndarray] = []
        buckets_out: list[np.ndarray] = []
        n_out: list[np.ndarray] = []
        cum_out: list[np.ndarray] = []
        delta_out: list[np.ndarray] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            vals = self.vals[np.searchsorted(self.doc_ids, docs)]
            b = vals // self.interval
            b0, b1 = int(b.min()), int(b.max())
            n = np.bincount(b - b0, minlength=b1 - b0 + 1).astype(np.int64)
            qids_out.append(np.full(len(n), qid, dtype=np.int64))
            buckets_out.append(np.arange(b0, b1 + 1, dtype=np.int64))
            n_out.append(n)
            cum_out.append(np.cumsum(n))
            delta_out.append(np.diff(n, prepend=0))
        cat = lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64)  # noqa: E731
        return pa.table(
            {
                "query_id": pa.array(cat(qids_out), pa.int64()),
                "bucket": pa.array(cat(buckets_out), pa.int64()),
                "n_docs": pa.array(cat(n_out), pa.int64()),
                "cum_docs": pa.array(cat(cum_out), pa.int64()),
                "delta_docs": pa.array(cat(delta_out), pa.int64()),
            }
        )


class TopMetrics(DocvalueTopK):
    """TOP_METRICS aggregation (Elasticsearch's ``top_metrics``): per
    query, the value of a METRIC docvalue read off the top ``size`` docs
    of a SORT docvalue's ordering over the match set — "the doclen of
    the newest matching pages". Distinct from DocvalueTopK (which
    returns the sort field itself): the point of top_metrics is
    gathering OTHER fields at the top of a sort without a full fetch.
    Two int64 arrays over the docs sidecar (sort + metric; both shard by
    doc range at cluster scale); frozen order (sort DESC, doc_id ASC).
    The driver sort field (warc_ts) is an injective hash of the doc, so
    the ordering is tie-free by construction."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "warc_ts", metric: str = "doclen",
                 size: int = 3):
        super().__init__(out_dir, seg_ids, field, k=size)
        self.metric = metric
        self.metric_vals = _docvalues(out_dir, metric)[1]
        self.size = int(size)

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            pos = np.searchsorted(self.doc_ids, docs)
            svals = self.vals[pos]
            order = np.lexsort((docs, -svals))[: self.size]
            hits.append((qid, {"sort_val": svals[order],
                               "metric_val": self.metric_vals[pos[order]]}))
        return _ranked_table(hits, pa.schema(
            [("query_id", pa.int64()), ("rank", pa.int32()),
             ("sort_val", pa.int64()), ("metric_val", pa.int64())]
        ))


class AutoDateHistogram(DocvalueTopK):
    """AUTO-INTERVAL date histogram (Elasticsearch's
    ``auto_date_histogram``): per query, the SMALLEST interval from a
    frozen ladder whose dense bucket count over the match set's
    [min, max] docvalue span stays within ``target_buckets`` (none
    qualifying ⇒ the ladder's coarsest — the ES rounding ladder
    behavior, made exact by freezing the ladder). The chosen interval is
    emitted on every row, and the series is DENSE (empty buckets
    included — auto_date_histogram is a date_histogram underneath).
    Adaptive choice is a pure function of (min, max), which are
    per-doc-range associative — the cluster merge picks the interval
    AFTER folding range partials' bounds, then partial histograms at
    that interval concat-merge like DateHistogram's."""

    LADDER = (1_000_000, 10_000_000, 60_000_000, 600_000_000, 3_600_000_000)

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "warc_ts", target_buckets: int = 20):
        super().__init__(out_dir, seg_ids, field, k=1)
        self.target = int(target_buckets)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[np.ndarray] = []
        iv_out: list[np.ndarray] = []
        buckets_out: list[np.ndarray] = []
        n_out: list[np.ndarray] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            vals = self.vals[np.searchsorted(self.doc_ids, docs)]
            lo, hi = int(vals.min()), int(vals.max())
            iv = self.LADDER[-1]
            for cand in self.LADDER:
                if hi // cand - lo // cand + 1 <= self.target:
                    iv = cand
                    break
            b = vals // iv
            b0, b1 = lo // iv, hi // iv
            n = np.bincount(b - b0, minlength=b1 - b0 + 1).astype(np.int64)
            qids_out.append(np.full(len(n), qid, dtype=np.int64))
            iv_out.append(np.full(len(n), iv, dtype=np.int64))
            buckets_out.append(np.arange(b0, b1 + 1, dtype=np.int64))
            n_out.append(n)
        cat = lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64)  # noqa: E731
        return pa.table(
            {
                "query_id": pa.array(cat(qids_out), pa.int64()),
                "interval_us": pa.array(cat(iv_out), pa.int64()),
                "bucket": pa.array(cat(buckets_out), pa.int64()),
                "n_docs": pa.array(cat(n_out), pa.int64()),
            }
        )


class MovingWindowAgg(DocvalueTopK):
    """MOVING-WINDOW pipeline aggregations over the dense histogram
    series (ES ``moving_fn`` + ``serial_diff``): per query, the
    HistogramPipeline dense bucket series (min_doc_count=0 — what makes
    the pipeline folds well-defined), each bucket carrying
    ``mov_sum`` — the trailing ``window``-bucket sum INCLUDING the
    current bucket (ES moving_fn with shift=window, fn=sum; short
    prefixes sum what exists, the ES partial-window behavior) — and
    ``sdiff`` — n[i] − n[i−lag] with a frozen 0 baseline for i < lag
    (same total-output variant as HistogramPipeline's derivative; ES
    emits nulls there, which a NULL-free exact-hash oracle can't carry).
    Both folds run post-merge over the bucket-count-sized series, never
    over docs — the cluster story is HistogramPipeline's unchanged."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "doclen", interval: int = 4,
                 window: int = 3, lag: int = 2):
        super().__init__(out_dir, seg_ids, field, k=1)
        self.interval = int(interval)
        self.window = int(window)
        self.lag = int(lag)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[np.ndarray] = []
        buckets_out: list[np.ndarray] = []
        n_out: list[np.ndarray] = []
        mov_out: list[np.ndarray] = []
        sdiff_out: list[np.ndarray] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            vals = self.vals[np.searchsorted(self.doc_ids, docs)]
            b = vals // self.interval
            b0, b1 = int(b.min()), int(b.max())
            n = np.bincount(b - b0, minlength=b1 - b0 + 1).astype(np.int64)
            cum = np.cumsum(n)
            if len(n) > self.window:
                mov = cum - np.concatenate(
                    [np.zeros(self.window, np.int64), cum[: len(n) - self.window]]
                )
            else:
                # series no longer than the window: every trailing window is
                # partial and the running total IS the window sum (a negative
                # slice here would KEEP elements instead of dropping them all)
                mov = cum.copy()
            if len(n) > self.lag:
                lagged = np.concatenate(
                    [np.zeros(self.lag, np.int64), n[: len(n) - self.lag]]
                )
            else:
                lagged = np.zeros(len(n), np.int64)
            qids_out.append(np.full(len(n), qid, dtype=np.int64))
            buckets_out.append(np.arange(b0, b1 + 1, dtype=np.int64))
            n_out.append(n)
            mov_out.append(mov)
            sdiff_out.append(n - lagged)
        cat = lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64)  # noqa: E731
        return pa.table(
            {
                "query_id": pa.array(cat(qids_out), pa.int64()),
                "bucket": pa.array(cat(buckets_out), pa.int64()),
                "n_docs": pa.array(cat(n_out), pa.int64()),
                "mov_sum": pa.array(cat(mov_out), pa.int64()),
                "sdiff": pa.array(cat(sdiff_out), pa.int64()),
            }
        )


class BucketSortAgg(DocvalueTopK):
    """BUCKET_SELECTOR + BUCKET_SORT pipeline aggregations (ES): per
    query, the histogram buckets SURVIVING an integer predicate
    (n_docs >= min_count — bucket_selector; false drops the bucket from
    the response) re-ordered by (n_docs DESC, bucket ASC) and truncated
    to the top ``size`` (bucket_sort with sort + size) — "the busiest
    docvalue buckets per query". Emits (query_id, rank, bucket, n_docs);
    a query whose every bucket fails the selector emits nothing. Both
    pipeline stages fold over the bucket series post-merge (series-sized
    state), exactly like the other pipeline aggs."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "doclen", interval: int = 4,
                 min_count: int = 1, size: int = 5):
        super().__init__(out_dir, seg_ids, field, k=1)
        self.interval = int(interval)
        self.min_count = int(min_count)
        self.size = int(size)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[np.ndarray] = []
        ranks_out: list[np.ndarray] = []
        buckets_out: list[np.ndarray] = []
        n_out: list[np.ndarray] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            vals = self.vals[np.searchsorted(self.doc_ids, docs)]
            buckets, counts = np.unique(vals // self.interval, return_counts=True)
            counts = counts.astype(np.int64)
            keep = counts >= self.min_count
            buckets, counts = buckets[keep], counts[keep]
            if not len(buckets):
                continue
            order = np.lexsort((buckets, -counts))[: self.size]
            qids_out.append(np.full(len(order), qid, dtype=np.int64))
            ranks_out.append(np.arange(1, len(order) + 1, dtype=np.int64))
            buckets_out.append(buckets[order])
            n_out.append(counts[order])
        cat = lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64)  # noqa: E731
        return pa.table(
            {
                "query_id": pa.array(cat(qids_out), pa.int64()),
                "rank": pa.array(cat(ranks_out), pa.int64()),
                "bucket": pa.array(cat(buckets_out), pa.int64()),
                "n_docs": pa.array(cat(n_out), pa.int64()),
            }
        )


class RangeAgg(DocvalueTopK):
    """RANGE aggregation over the match set (Elasticsearch's ``range``
    agg): per query and configured half-open [from, to) range of a
    numeric docvalue — doc_count plus an exact int64 ``sum``
    sub-aggregation. EVERY configured range is emitted, count-0 ranges
    and empty match sets included (the ES contract: a query with zero
    hits still returns the full bucket skeleton — this is what
    distinguishes range from the join-semantics aggs above). Ranges are
    arbitrary: they may overlap and need not cover, so a doc can land in
    zero or several buckets — which is why range is NOT a histogram
    special case. Bounds are (lo, hi) with None for an open end.
    Collection cost is the match set + one gather; each range is one
    vectorized mask. Per-doc-range partials are additive (count and sum
    both), so the cluster-scale shard story is DateHistogram's."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "doclen",
                 ranges: tuple[tuple[int | None, int | None], ...] = ((None, 128), (128, None))):
        super().__init__(out_dir, seg_ids, field, k=1)
        self.ranges = tuple((lo, hi) for lo, hi in ranges)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        ridx_out: list[int] = []
        n_out: list[int] = []
        sum_out: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            vals = self.vals[np.searchsorted(self.doc_ids, docs)] if len(docs) else np.empty(0, np.int64)
            for ridx, (lo, hi) in enumerate(self.ranges):
                mask = np.ones(len(vals), dtype=bool)
                if lo is not None:
                    mask &= vals >= lo
                if hi is not None:
                    mask &= vals < hi
                sel = vals[mask]
                qids_out.append(qid)
                ridx_out.append(ridx)
                n_out.append(int(mask.sum()))
                sum_out.append(int(sel.sum(dtype=np.int64)))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "range_idx": pa.array(ridx_out, pa.int64()),
                "n_docs": pa.array(n_out, pa.int64()),
                "sum_val": pa.array(sum_out, pa.int64()),
            }
        )


class MatchsetPercentiles(DocvalueTopK):
    """PERCENTILES aggregation over the match set (ES percentiles agg,
    exact): per query and requested quantile q, the lower (type-1)
    order statistic of the docvalue — the element at sorted index
    floor(q·(n−1)). Integer outputs, so the oracle replay is exact
    (row_number over value ASC picks the same element). ES uses
    t-digest at scale; the exact form here is the oracle-able
    contract, and the engine's distributed histogram median
    (functions/windows.py) is the 10^12-doc path."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "warc_ts",
                 quantiles: tuple[float, ...] = (0.25, 0.5, 0.75)):
        super().__init__(out_dir, seg_ids, field, k=1)
        self.quantiles = tuple(quantiles)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        pcts: list[int] = []
        vals_out: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            n = len(docs)
            if n == 0:
                continue
            vals = np.sort(self.vals[np.searchsorted(self.doc_ids, docs)])
            for q in self.quantiles:
                idx = int(np.floor(q * (n - 1)))
                qids_out.append(qid)
                pcts.append(int(round(q * 100)))
                vals_out.append(int(vals[idx]))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "pct": pa.array(pcts, pa.int64()),
                "value": pa.array(vals_out, pa.int64()),
            }
        )


class MatchsetBoxplot(DocvalueTopK):
    """BOXPLOT aggregation over the match set (ES ``boxplot`` agg, exact
    integer form): per query, the five-number summary of the docvalue —
    min, Q1/Q2/Q3 as lower (type-1) order statistics at floor(q·(n−1)),
    max — plus Tukey-fence outlier counts. ES computes the quartiles via
    t-digest and the fences client-side; here both are exact and integer:
    a value v is a low outlier iff 2·v < 2·Q1 − 3·IQR and a high outlier
    iff 2·v > 2·Q3 + 3·IQR (the 1.5·IQR fences doubled so the comparison
    stays in int64 — doclen ≤ 2^40 can't overflow). Same docvalue sidecar
    and per-doc-range sharding posture as MatchsetPercentiles: order
    statistics and threshold counts both merge across disjoint doc ranges
    (counts are additive; the quartiles need the distributed histogram
    median path of functions/windows.py at 10^12 docs)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "doclen"):
        super().__init__(out_dir, seg_ids, field, k=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: dict[str, list[int]] = {c: [] for c in (
            "query_id", "n_docs", "vmin", "q1", "q2", "q3", "vmax",
            "n_low_out", "n_high_out")}
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            n = len(docs)
            if n == 0:
                continue
            vals = np.sort(self.vals[np.searchsorted(self.doc_ids, docs)])
            q1, q2, q3 = (int(vals[int(np.floor(q * (n - 1)))]) for q in (0.25, 0.5, 0.75))
            iqr = q3 - q1
            v2 = vals.astype(np.int64) * 2
            out["query_id"].append(qid)
            out["n_docs"].append(n)
            out["vmin"].append(int(vals[0]))
            out["q1"].append(q1)
            out["q2"].append(q2)
            out["q3"].append(q3)
            out["vmax"].append(int(vals[-1]))
            out["n_low_out"].append(int(np.count_nonzero(v2 < 2 * q1 - 3 * iqr)))
            out["n_high_out"].append(int(np.count_nonzero(v2 > 2 * q3 + 3 * iqr)))
        return pa.table({c: pa.array(v, pa.int64()) for c, v in out.items()})


class PercentileRanks(DocvalueTopK):
    """PERCENTILE-RANKS aggregation over the match set (ES
    `percentile_ranks` — the inverse of percentiles): for each query and
    each requested probe VALUE, how much of the match set's docvalue
    distribution lies at or below it. Integer contract (the explain-API
    philosophy): the output is (n_le, n_docs) — one searchsorted per
    probe over the sorted gathered values — and the ES percentage is the
    client-side float n_le/n_docs·100. Exact at any scale: per-doc-range
    partial (n_le, n) pairs are additive across disjoint shards, unlike
    ES's t-digest approximation."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field: str = "doclen",
                 probes: tuple[int, ...] = (20, 40, 60)):
        super().__init__(out_dir, seg_ids, field, k=1)
        self.probes = tuple(int(p) for p in probes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        probes_out: list[int] = []
        nle_out: list[int] = []
        n_out: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            n = len(docs)
            if n == 0:
                continue
            vals = np.sort(self.vals[np.searchsorted(self.doc_ids, docs)])
            for p in self.probes:
                qids_out.append(qid)
                probes_out.append(p)
                nle_out.append(int(np.searchsorted(vals, p, side="right")))
                n_out.append(n)
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "probe": pa.array(probes_out, pa.int64()),
                "n_le": pa.array(nle_out, pa.int64()),
                "n_docs": pa.array(n_out, pa.int64()),
            }
        )


class MatchsetStats(DocvalueTopK):
    """STATS aggregation over the match set (Elasticsearch's stats agg):
    per query, (n_docs, min, max, sum) of a numeric docvalue over the
    distinct matching visible docs. The sum is exact at any scale: the
    int64 values split into 32-bit halves summed separately and
    recombined as a Python int (no silent int64 wrap at 10^9-doc match
    sets), then emitted alongside the count so avg is derivable. Empty
    match sets emit no row (SQL-join semantics)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        ns: list[int] = []
        mins: list[int] = []
        maxs: list[int] = []
        sums: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            vals = self.vals[np.searchsorted(self.doc_ids, docs)]
            hi, lo = np.divmod(vals, np.int64(1) << 32)
            qids_out.append(qid)
            ns.append(len(vals))
            mins.append(int(vals.min()))
            maxs.append(int(vals.max()))
            sums.append((int(hi.sum(dtype=np.int64)) << 32) + int(lo.sum(dtype=np.int64)))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "n_docs": pa.array(ns, pa.int64()),
                "min_ts": pa.array(mins, pa.int64()),
                "max_ts": pa.array(maxs, pa.int64()),
                "sum_ts": pa.array(sums, pa.int64()),
            }
        )


def _lm(x: int) -> int:
    """round(ln(x)·1000) milli-nats — same-libm-exact across engines on
    identical integer inputs (the unigram_nll contract)."""
    import math

    return int(round(math.log(x) * 1000.0))


class MatchsetStringStats(FacetCounter):
    """STRING_STATS aggregation over the match set (ES string_stats on a
    keyword/text docvalue): per query, the matched docs' value-length
    stats plus the SHANNON ENTROPY of the character distribution of all
    matched values. Integer contract (the explain-API philosophy): the
    entropy ships as h_milli_t = T·l(T) − Σ_c cnt_c·l(cnt_c) with
    l(x) = round(ln(x)·1000) — total entropy in milli-nats × T, exact
    and order-independent, so the DuckDB replay hash-matches; the ES
    float is h_milli_t / (1000·T) client-side. Counting is per Unicode
    CODEPOINT (utf-32 view + np.unique — matches DuckDB's
    string_split(text,'') and length()); the per-query gather visits
    matched values like every matchset agg — at 10^12 docs this field's
    char counts become a precomputed derived docvalue summed per doc
    range instead (SCALE.md §3), which the additive integer form
    already permits."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        ns: list[int] = []
        mins: list[int] = []
        maxs: list[int] = []
        sums: list[int] = []
        hs: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            codes = self.codes[np.searchsorted(self.doc_ids, docs)]
            vals = [self.values[int(c)] for c in codes]
            joined = "".join(vals)
            arr = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
            _, cnt = np.unique(arr, return_counts=True)
            t = int(arr.size)
            h = t * _lm(t) - sum(int(c) * _lm(int(c)) for c in cnt)
            lens = np.fromiter((len(v) for v in vals), np.int64, len(vals))
            qids_out.append(qid)
            ns.append(len(vals))
            mins.append(int(lens.min()))
            maxs.append(int(lens.max()))
            sums.append(t)
            hs.append(h)
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "n_values": pa.array(ns, pa.int64()),
                "min_len": pa.array(mins, pa.int64()),
                "max_len": pa.array(maxs, pa.int64()),
                "sum_len": pa.array(sums, pa.int64()),
                "h_milli_t": pa.array(hs, pa.int64()),
            }
        )


class MatchsetMAD(DocvalueTopK):
    """MEDIAN-ABSOLUTE-DEVIATION aggregation over the match set (ES
    median_absolute_deviation agg): per query, the type-1 lower median of
    the docvalue and the type-1 lower median of |value − median| — the
    robust dispersion measure the ES agg approximates with t-digest; here
    both order statistics are EXACT integers (element at sorted index
    floor(0.5·(n−1))), so a row_number SQL replay hash-matches. At 10^12
    docs the same answer comes from two passes over the per-doc-range
    doclen HISTOGRAM (values are small ints — the distributed
    exact-median plan of functions/windows.py), never a gather."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        ns: list[int] = []
        meds: list[int] = []
        mads: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            n = len(docs)
            if n == 0:
                continue
            vals = np.sort(self.vals[np.searchsorted(self.doc_ids, docs)])
            med = int(vals[(n - 1) // 2])
            dev = np.sort(np.abs(vals - med))
            qids_out.append(qid)
            ns.append(n)
            meds.append(med)
            mads.append(int(dev[(n - 1) // 2]))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "n_docs": pa.array(ns, pa.int64()),
                "median": pa.array(meds, pa.int64()),
                "mad": pa.array(mads, pa.int64()),
            }
        )


class MultiTerms(FacetCounter):
    """MULTI-TERMS aggregation over the match set (ES multi_terms): terms
    agg keyed by the COMPOSITE (lang, doclen-bucket) tuple — distinct
    matching visible docs counted per (facet value, value//bucket_width)
    pair, top-k buckets per query by the frozen (count DESC, lang ASC,
    bucket ASC) order. One np.unique over the fused int key (code·2^32 +
    bucket) per query; at cluster scale the pairs are per-doc-range
    partial counts merged by key — additive, like every counting agg
    here."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 facet: str = "lang", field: str = "doclen",
                 bucket_width: int = 64, k: int = 5):
        super().__init__(out_dir, seg_ids, facet)
        self.field_vals = _docvalues(out_dir, field)[1]
        self.bucket_width = int(bucket_width)
        self.k = int(k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        langs_out: list[str] = []
        buckets_out: list[int] = []
        counts_out: list[int] = []
        # lang codes sorted by VALUE so the fused key's code component
        # orders ties exactly like the oracle's ORDER BY lang ASC
        order = np.argsort(np.asarray(self.values, dtype=object), kind="stable")
        rank_of_code = np.empty(len(order), np.int64)
        rank_of_code[order] = np.arange(len(order))
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            idx = np.searchsorted(self.doc_ids, docs)
            fused = rank_of_code[self.codes[idx]] * (np.int64(1) << 32) + (
                self.field_vals[idx] // self.bucket_width
            )
            keys, cnt = np.unique(fused, return_counts=True)
            # top-k by (count DESC, fused key ASC): argsort on (-cnt) is
            # stable over the key-ascending unique output
            sel = np.argsort(-cnt, kind="stable")[: self.k]
            for s in sel:
                code_rank, bucket = divmod(int(keys[s]), 1 << 32)
                qids_out.append(qid)
                langs_out.append(self.values[int(order[code_rank])])
                buckets_out.append(bucket)
                counts_out.append(int(cnt[s]))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                self.facet: pa.array(langs_out, pa.string()),
                "len_bucket": pa.array(buckets_out, pa.int64()),
                "n_docs": pa.array(counts_out, pa.int64()),
            }
        )


class TermsEnum:
    """TERMS-ENUM API (ES _terms_enum): for each prefix, the first
    ``size`` index DICTIONARY terms with that prefix in lexicographic
    order. Pure dictionary range scan — two bisects per segment on the
    sorted term list, no postings touched — then a cross-segment merge
    dedup (the term-sharded layout stores each term's shards under the
    same key, and salts duplicate dictionary entries, so the union is
    deduped before ranking). Cost is bounded by the VOCABULARY under the
    prefix, not the corpus; at cluster scale each index worker answers
    from its local segment dicts and the driver merges size-bounded
    sorted lists. Like ES, tombstones are ignored (a deleted doc's terms
    stay enumerable until segment merge rewrites the dictionary)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None, size: int = 10):
        self.segments = _open_segments(out_dir, seg_ids)
        self.size = int(size)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import bisect

        hits = []
        for qid, prefix in zip(
            batch["prefix_id"].to_pylist(), batch["prefix"].to_pylist()
        ):
            found: set[str] = set()
            hi_key = prefix + "￿"
            for seg in self.segments:
                ts = seg.terms_sorted
                lo = bisect.bisect_left(ts, prefix)
                hi = bisect.bisect_right(ts, hi_key, lo=lo)
                found.update(ts[lo:hi])
            hits.append((qid, {"term": sorted(found)[: self.size]}))
        return _ranked_table(hits, pa.schema(
            [("prefix_id", pa.int64()), ("rank", pa.int32()), ("term", pa.string())]
        ))


class MatrixStats:
    """MATRIX-STATS aggregation over the match set (ES matrix_stats): the
    joint second-moment statistics of TWO numeric docvalues — here doclen
    and the crawl ts — from which mean/variance/covariance/correlation are
    pure derivations. The engine emits the exact INTEGER sufficient
    statistics (n, Σa, Σb, Σa², Σb², Σab) so the oracle compare is
    hash-exact and the floats are client-side arithmetic (same contract
    as the explain API). The ts is shifted/scaled ((b − b_off) // b_div)
    so squares stay well inside int64; at 10^12-doc match sets the
    per-doc-range partial sums accumulate as arbitrary-precision Python
    ints before the merge (they are additive across disjoint ranges —
    SCALE.md §3), exactly like MatchsetStats' split-sum. A sum past int64
    raises ``ValueError`` naming it: ``b_off``/``b_div`` must then scale
    ``field_b`` down. Empty match sets emit no row (SQL-join semantics)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 field_a: str = "doclen", field_b: str = "warc_ts",
                 b_off: int = 0, b_div: int = 1):
        self.segments = _open_segments(out_dir, seg_ids)
        tbl = _docs_columns(out_dir, ["doc_id", field_a, field_b])
        self.doc_ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        self.a = tbl[field_a].cast(pa.int64()).to_numpy(zero_copy_only=False)
        self.b_off, self.b_div = int(b_off), int(b_div)
        self.b = (
            tbl[field_b].cast(pa.int64()).to_numpy(zero_copy_only=False) - self.b_off
        ) // self.b_div
        self.exclude_ids = mf.read_tombstones(out_dir)

    _match_set = FacetCounter._match_set

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {k: [] for k in ("query_id", "n_docs", "sum_a", "sum_b",
                               "sum_a2", "sum_b2", "sum_ab")}
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            idx = np.searchsorted(self.doc_ids, docs)
            # object dtype → arbitrary-precision Python ints: the squares
            # of an unscaled docvalue overflow int64 PER ELEMENT, and the
            # emitted sums must be exact (that is the whole contract)
            a = self.a[idx].astype(object)
            b = self.b[idx].astype(object)
            out["query_id"].append(qid)
            out["n_docs"].append(len(a))
            out["sum_a"].append(int(a.sum()))
            out["sum_b"].append(int(b.sum()))
            out["sum_a2"].append(int((a * a).sum()))
            out["sum_b2"].append(int((b * b).sum()))
            out["sum_ab"].append(int((a * b).sum()))
        for name, sums in out.items():
            big = [v for v in sums if not -(1 << 63) <= v < 1 << 63]
            if big:
                raise ValueError(
                    f"MatrixStats {name}={big[0]} exceeds int64: scale the docvalue "
                    f"down with b_off/b_div (b_off={self.b_off}, b_div={self.b_div})")
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


class CompositeAgg(FacetCounter):
    """COMPOSITE aggregation (ES `composite`): the full bucket space of
    two sources — (facet term ASC, fixed-width docvalue bucket ASC) —
    retrieved ONE PAGE AT A TIME via an `after` cursor, the way engines
    stream an unbounded bucket set to a client without a giant response.
    One input row = one page request (query_id, text, after_lang,
    after_bucket) → ≤ size rows (query_id, lang, bucket, n_docs) in
    composite key order, strictly AFTER the cursor; ("", -1) is the
    open cursor (first page). Each page recomputes the match set and
    fold (exactly ES semantics — composite re-runs the agg per page and
    skips to `after`); the per-worker state (segments + facet codes +
    docvalue) is shared with the other match-set aggregations, and at
    cluster scale both sidecar arrays shard by doc range (SCALE.md §3)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 facet: str = "lang", field: str = "warc_ts",
                 bucket_us: int = 250_000_000, size: int = 12):
        super().__init__(out_dir, seg_ids, facet)
        self.vals = _docvalues(out_dir, field)[1]
        self.bucket_us = int(bucket_us)
        self.size = int(size)
        # composite order is by facet VALUE, not dictionary code: rank
        # permutation built once (codes → sort-rank, rank → value)
        order = sorted(range(len(self.values)), key=lambda i: self.values[i])
        self.code_rank = np.empty(len(self.values), np.int64)
        for r, c in enumerate(order):
            self.code_rank[c] = r
        self.value_by_rank = [self.values[c] for c in order]
        self.rank_of_value = {v: r for r, v in enumerate(self.value_by_rank)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        B = 1 << 40  # bucket ids fit far below 2^40; rank*B+bucket is injective
        qids_out: list[np.ndarray] = []
        langs_out: list[str] = []
        buckets_out: list[np.ndarray] = []
        counts_out: list[np.ndarray] = []
        for qid, text, alang, abkt in zip(
            batch["query_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["after_lang"].to_pylist(),
            batch["after_bucket"].to_pylist(),
        ):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            idx = np.searchsorted(self.doc_ids, docs)
            key = self.code_rank[self.codes[idx]] * B + self.vals[idx] // self.bucket_us
            ukey, counts = np.unique(key, return_counts=True)
            akey = self.rank_of_value.get(alang, -1) * B + int(abkt)
            start = int(np.searchsorted(ukey, akey, side="right"))
            sel = slice(start, start + self.size)
            ukey, counts = ukey[sel], counts[sel]
            if len(ukey) == 0:
                continue
            qids_out.append(np.full(len(ukey), qid, dtype=np.int64))
            langs_out.extend(self.value_by_rank[int(r)] for r in ukey // B)
            buckets_out.append(ukey % B)
            counts_out.append(counts.astype(np.int64))
        cat = lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64)  # noqa: E731
        return pa.table(
            {
                "query_id": pa.array(cat(qids_out), pa.int64()),
                self.facet: pa.array(langs_out, pa.string()),
                "bucket": pa.array(cat(buckets_out), pa.int64()),
                "n_docs": pa.array(cat(counts_out), pa.int64()),
            }
        )


class CollapseTopK(FacetTopK):
    """FIELD COLLAPSING (Elasticsearch's ``collapse``): ONE blended
    result page per query in which each facet value appears at most once
    — the group's best hit (score DESC, doc_id ASC within the group)
    represents the whole group, winners re-rank by the same total order,
    top-k. Each hit also carries ``n_group``, the group's full match
    count (the integer core of ES's inner_hits/total). Contrast
    FacetTopK: that returns a page PER group; collapse returns one
    diversified page. Scoring composition is identical (brute-path
    per-term cached arrays, sorted-term accumulation), so the doc-range
    sharded cluster path applies: per-range group winners + counts merge
    associatively (max by the frozen order / sum)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            all_ids, scores, codes = self._scored_groups(text)
            if len(all_ids) == 0:
                continue
            win_d: list[int] = []
            win_s: list[float] = []
            win_v: list[str] = []
            win_n: list[int] = []
            for vi in self._value_order:
                m = codes == vi
                if not m.any():
                    continue
                d, s = topk_select(all_ids[m], scores[m], 1)
                win_d.append(int(d[0]))
                win_s.append(float(s[0]))
                win_v.append(self.values[vi])
                win_n.append(int(m.sum()))
            wd = np.asarray(win_d, dtype=np.uint64)
            ws = np.asarray(win_s, dtype=np.float64)
            order = np.lexsort((wd, -ws))[: self.k]
            hits.append((qid, {"doc_id": wd[order], self.facet: [win_v[i] for i in order],
                               "n_group": [win_n[i] for i in order], "score": ws[order]}))
        return _ranked_table(hits, pa.schema(
            [("query_id", pa.int64()), ("rank", pa.int32()), ("doc_id", pa.uint64()),
             (self.facet, pa.string()), ("n_group", pa.int64()), ("score", pa.float64())]
        ))


class DiversifiedSampler(FacetTopK):
    """DIVERSIFIED-SAMPLER aggregation (Elasticsearch's
    ``diversified_sampler`` with a ``terms`` sub-agg): walk the match set
    in relevance order (score DESC, doc_id ASC), skip docs whose facet
    value already holds ``max_per_value`` sample slots, stop at
    ``sample_size`` — then count the sample per facet value. The ES
    use-case verbatim: aggregate over the best-matching docs without one
    over-represented group drowning the sample. Skipping never evicts an
    earlier pick, so the walk is equivalent to: per-facet rank filter
    (≤ max_per_value) THEN global top-sample_size — the form a windowed
    SQL oracle replays. Output (query_id, <facet>, n_sample), facet
    ascending; only facet COUNTS are emitted, so same-facet boundary
    ties cannot change the output (cross-facet boundary ties are
    excluded by the frozen query set, as with every ranked oracle
    here)."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 facet: str = "lang", sample_size: int = 20,
                 max_per_value: int = 3):
        super().__init__(out_dir, seg_ids, facet, k=1)
        self.sample_size = int(sample_size)
        self.max_per_value = int(max_per_value)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        vals_out: list[str] = []
        n_out: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            all_ids, scores, codes = self._scored_groups(text)
            order = np.lexsort((all_ids, -scores))
            ocodes = codes[order]
            # per-facet occurrence rank along the relevance walk
            seen: dict[int, int] = {}
            keep = np.zeros(len(order), dtype=bool)
            taken = 0
            for i, c in enumerate(ocodes):
                if taken >= self.sample_size:
                    break
                got = seen.get(int(c), 0)
                if got < self.max_per_value:
                    seen[int(c)] = got + 1
                    keep[i] = True
                    taken += 1
            kept_codes = ocodes[keep]
            uniq, counts = np.unique(kept_codes, return_counts=True)
            for vi in self._value_order:
                where = np.nonzero(uniq == vi)[0]
                if len(where):
                    qids_out.append(qid)
                    vals_out.append(self.values[vi])
                    n_out.append(int(counts[where[0]]))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                self.facet: pa.array(vals_out, pa.string()),
                "n_sample": pa.array(n_out, pa.int64()),
            }
        )


# (out_dir, version, OpCls, args) → built op, per worker process
_WORKER_OP_CACHE: dict[tuple, object] = {}


class CachedOp:
    """Stateless-TASK form of every per-call index op: a plain-callable
    map_batches fn whose ``OpCls(*args)`` instance is built once per
    WORKER PROCESS and kept in the module global above, keyed by
    ``(out_dir, version, OpCls, args)``. One eviction rule: on a miss,
    every entry of the same ``out_dir`` with an older version, or whose
    args hold an object ref, is dropped, whatever its op class — a
    rebuilt index (``version`` = stats.json mtime) is never served stale,
    and ops over other live indexes keep their warm state. ``out_dir=None``
    scopes an op that reads no index (Percolator).

    Why tasks and not an actor pool: an actor pool spawns fresh Python
    processes per run (~2s each — far more than the work itself for a few
    thousand queries), while plain tasks reuse Ray's long-lived default
    workers. The cache MUST be reached through this importable top-level
    class: cloudpickle serializes a nested closure (or a partial over
    one) BY VALUE together with a private copy of its captured globals,
    so a closure-based version silently rebuilt the op per task; methods
    of a by-reference class resolve the real module (and its global dict)
    in the worker.

    ``args`` must be hashable. Object refs in it (QueryScorer's filter)
    key by identity, and every call ``ray.put``s its own, so a key
    holding a ref is never hit by a later call: the miss rule keeps at
    most one such entry per ``out_dir``, which releases the older refs
    and scorers. The op fetches its refs itself, once per miss."""

    __name__ = "CachedOp"

    def __init__(self, out_dir: str | None, version: int, OpCls: type, args: tuple):
        self.key = (out_dir, version, OpCls, tuple(args))

    def __call__(self, batch: pa.Table) -> pa.Table:
        op = _WORKER_OP_CACHE.get(self.key)
        if op is None:
            import ray

            out_dir, version, OpCls, args = self.key
            for old in [k for k in _WORKER_OP_CACHE if k[0] == out_dir and (
                    k[1] < version or any(isinstance(a, ray.ObjectRef) for a in k[3]))]:
                del _WORKER_OP_CACHE[old]
            op = _WORKER_OP_CACHE[self.key] = OpCls(*args)
        return op(batch)


class UrlResolver:
    """doc_id → url by reading only the touched docs/pid files (partition
    pruning via the docID scheme): one ``searchsorted`` per touched pid.
    A doc_id that is not in its pid file — one from an older version of
    the index, say — raises ``ValueError`` naming it, rather than taking
    a neighbour's url. Runs as a ``CachedOp`` op (``attach_urls``) or as
    a map_batches actor."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _load(self, pid: int):
        if pid not in self.cache:
            path = os.path.join(self.out_dir, "docs", f"pid={pid:04d}.parquet")
            if os.path.exists(path):
                tbl = pq.read_table(path, columns=["doc_id", "url"])
                ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                urls = np.asarray(tbl["url"].to_pylist(), dtype=object)
            else:
                ids, urls = np.empty(0, np.uint64), np.empty(0, object)
            self.cache[pid] = (ids, urls)
        return self.cache[pid]

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pids = doc_ids >> np.uint64(DOC_ID_PARTITION_SHIFT)
        urls = np.empty(len(doc_ids), dtype=object)
        for pid in np.unique(pids):
            at = np.flatnonzero(pids == pid)
            ids, us = self._load(int(pid))
            want = doc_ids[at]
            pos, found = _sorted_lookup(want, ids)
            if not found.all():
                raise ValueError(
                    f"doc_id {int(want[~found][0])} is not in "
                    f"{self.out_dir}/docs/pid={int(pid):04d}.parquet")
            urls[at] = us[pos]
        return batch.append_column("url", pa.array(urls.tolist(), pa.string()))


class MatchsetExtendedStats(DocvalueTopK):
    """EXTENDED-STATS aggregation over the match set (ES extended_stats):
    the second-moment family — count, sum, sum of squares and the exact
    VARIANCE NUMERATOR n·Σv² − (Σv)² — over a numeric docvalue.
    Everything is integer: both sums use the 32-bit-split trick of
    MatchsetStats (Python-int recombination, no silent int64 wrap at
    10^9-doc match sets with 10^4-scale values), so variance/std are
    derivable client-side to any precision and a SQL replay
    hash-matches. Per-doc-range PARTIALS (n, Σv, Σv²) are additive —
    the cluster plan is the same merge as every counting agg here."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        ns: list[int] = []
        sums: list[int] = []
        sumsqs: list[int] = []
        varnums: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            n = len(docs)
            if n == 0:
                continue
            vals = self.vals[np.searchsorted(self.doc_ids, docs)]
            hi, lo = np.divmod(vals, np.int64(1) << 32)
            s = (int(hi.sum(dtype=np.int64)) << 32) + int(lo.sum(dtype=np.int64))
            sq = vals * vals  # exact: docvalues < 2^31
            hi2, lo2 = np.divmod(sq, np.int64(1) << 32)
            ssq = (int(hi2.sum(dtype=np.int64)) << 32) + int(lo2.sum(dtype=np.int64))
            qids_out.append(qid)
            ns.append(n)
            sums.append(s)
            sumsqs.append(ssq)
            varnums.append(n * ssq - s * s)
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "n_docs": pa.array(ns, pa.int64()),
                "sum": pa.array(sums, pa.int64()),
                "sum_sq": pa.array(sumsqs, pa.int64()),
                "var_num": pa.array(varnums, pa.int64()),
            }
        )


FILTERS_AGG_SHORT = 40
FILTERS_AGG_LONG = 75


class FiltersAgg(FacetCounter):
    """FILTERS aggregation over the match set (ES filters agg with
    other_bucket=true): a fixed set of NAMED predicate buckets counted
    in one pass — 'short' (doclen < 40), 'long' (doclen ≥ 75), 'en'
    (lang = 'en') — plus the 'other' bucket of matched docs in NO named
    bucket. Buckets may overlap (a short English doc counts in both
    'short' and 'en'), exactly ES semantics. All four buckets emit for
    every non-empty match set, zeros included (the agg's shape is fixed
    by the request, not the data). Counts are additive per doc range —
    the standard partial-merge cluster plan."""

    BUCKETS = ("short", "long", "en", "other")

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None):
        super().__init__(out_dir, seg_ids, "lang")
        self.doclen = _docvalues(out_dir, "doclen")[1]
        try:
            self.en_code = self.values.index("en")
        except ValueError:
            self.en_code = -1

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids_out: list[int] = []
        buckets_out: list[str] = []
        counts_out: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            idx = np.searchsorted(self.doc_ids, docs)
            dl = self.doclen[idx]
            short = dl < FILTERS_AGG_SHORT
            long_ = dl >= FILTERS_AGG_LONG
            en = self.codes[idx] == self.en_code
            other = ~(short | long_ | en)
            for name, mask in zip(self.BUCKETS, (short, long_, en, other)):
                qids_out.append(qid)
                buckets_out.append(name)
                counts_out.append(int(mask.sum()))
        return pa.table(
            {
                "query_id": pa.array(qids_out, pa.int64()),
                "bucket": pa.array(buckets_out, pa.string()),
                "n_docs": pa.array(counts_out, pa.int64()),
            }
        )


class BucketScriptAgg(FacetCounter):
    """``bucket_script`` + ``bucket_selector`` pipeline aggregations (ES):
    per query, a terms agg on the lang facet over the match set carrying
    two sibling metrics — n_docs and sum_doclen — from which
    ``bucket_script`` derives ``avg_dl_x100 = sum_doclen*100 // n_docs``
    (integer-frozen, no float contract needed) and ``bucket_selector``
    keeps only buckets holding ≥ 1/share_denom of the query's matched
    docs (``n_docs * share_denom >= n_total`` — a scale-free integer
    cross-multiply, so the predicate is exact at any corpus size).
    Counts and sums are additive per doc range, so the cluster plan is
    the standard partial-merge: per-range (lang, n, sum) triples fold to
    the global buckets before the script/selector run on the k-sized
    result (SCALE.md §3); the selector CANNOT push below the merge
    because n_total is global."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None,
                 share_denom: int = 8):
        super().__init__(out_dir, seg_ids, "lang")
        self.doclen = _docvalues(out_dir, "doclen")[1]
        self.share_denom = int(share_denom)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids: list[int] = []
        langs: list[str] = []
        ns: list[int] = []
        sums: list[int] = []
        avgs: list[int] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            if len(docs) == 0:
                continue
            idx = np.searchsorted(self.doc_ids, docs)
            codes = self.codes[idx]
            n = np.bincount(codes, minlength=len(self.values))
            # float64 bincount weights: doclen sums stay exact below 2^53
            s = np.bincount(
                codes, weights=self.doclen[idx].astype(np.float64),
                minlength=len(self.values),
            )
            total = len(docs)
            for vi in np.argsort(np.asarray(self.values, dtype=object), kind="stable"):
                nv = int(n[vi])
                if nv and nv * self.share_denom >= total:
                    sv = int(s[vi])
                    qids.append(qid)
                    langs.append(self.values[vi])
                    ns.append(nv)
                    sums.append(sv)
                    avgs.append(sv * 100 // nv)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "lang": pa.array(langs, pa.string()),
                "n_docs": pa.array(ns, pa.int64()),
                "sum_doclen": pa.array(sums, pa.int64()),
                "avg_dl_x100": pa.array(avgs, pa.int64()),
            }
        )


class TTestAgg(FacetCounter):
    """ES ``t_test`` aggregation (type=heteroscedastic — Welch's unpaired
    two-sample t): per query, the t-statistic of the doclen docvalue
    between MATCHED docs and the REST of the live corpus. Every moment
    derives from exact integer sums — per-side (n, S=Σdl, SS=Σdl²), with
    the rest side obtained by subtracting the match side from corpus
    totals computed once per worker (tombstones excluded, matching
    QueryScorer visibility) — so the cluster plan is one per-range
    (n, S, SS) partial-merge; only the final scalar arithmetic is float.
    The float expression tree is spelled IDENTICALLY in the SQL oracle
    (each IEEE op correctly rounded on both engines → bitwise-equal t),
    and means/t round to 3dp per the repo's documented float contract.
    Queries where either side has < 2 docs emit no row (variance
    undefined), a guard the oracle repeats."""

    def __init__(self, out_dir: str, seg_ids: list[int] | None = None):
        super().__init__(out_dir, seg_ids, "lang")
        dl = _docvalues(out_dir, "doclen")[1]
        if self.exclude_ids is not None:
            live = ~_member_mask(self.doc_ids, self.exclude_ids)
        else:
            live = np.ones(len(dl), dtype=bool)
        self.doclen = dl
        self.n_corpus = int(live.sum())
        self.s_corpus = int(dl[live].sum())
        self.ss_corpus = int((dl[live].astype(np.int64) ** 2).sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids: list[int] = []
        n1s: list[int] = []
        n2s: list[int] = []
        m1s: list[float] = []
        m2s: list[float] = []
        ts: list[float] = []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            docs = self._match_set(text)
            n1 = len(docs)
            n2 = self.n_corpus - n1
            if n1 < 2 or n2 < 2:
                continue
            dl = self.doclen[np.searchsorted(self.doc_ids, docs)]
            s1 = int(dl.sum())
            ss1 = int((dl.astype(np.int64) ** 2).sum())
            s2 = self.s_corpus - s1
            ss2 = self.ss_corpus - ss1
            # fixed float expression tree — mirrored verbatim in the oracle
            m1 = s1 / n1
            m2 = s2 / n2
            v1 = (ss1 - s1 * s1 / n1) / (n1 - 1)
            v2 = (ss2 - s2 * s2 / n2) / (n2 - 1)
            t = (m1 - m2) / math.sqrt(v1 / n1 + v2 / n2)
            qids.append(qid)
            n1s.append(n1)
            n2s.append(n2)
            m1s.append(round(m1, 3))
            m2s.append(round(m2, 3))
            ts.append(round(t, 3))
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "n_match": pa.array(n1s, pa.int64()),
                "n_rest": pa.array(n2s, pa.int64()),
                "mean_match": pa.array(m1s, pa.float64()),
                "mean_rest": pa.array(m2s, pa.float64()),
                "t_stat": pa.array(ts, pa.float64()),
            }
        )


