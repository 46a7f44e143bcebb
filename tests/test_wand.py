"""WAND == brute-force exhaustive BM25 — the key correctness property
(SURVEY.md §5.2): block-max WAND is exact top-k; any divergence is a bug."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aarhus_ray import codecs
from aarhus_ray.bm25 import brute_force_topk, idf as idf_fn
from aarhus_ray.wand import TermCursor, wand_topk


def _mini_corpus(rng, n_docs, n_terms, density):
    """Random postings: term t → sorted doc_ids + tfs."""
    doclens = rng.randint(5, 500, size=n_docs).astype(np.uint32)
    postings = {}
    for t in range(n_terms):
        mask = rng.random_sample(n_docs) < density * (1.0 / (t + 1) ** 0.5)
        ids = np.flatnonzero(mask).astype(np.uint64)
        if len(ids) == 0:
            continue
        tfs = rng.randint(1, 20, size=len(ids)).astype(np.uint64)
        postings[f"t{t:03d}"] = (ids, tfs)
    return doclens, postings


def _run_both(doclens, postings, query_terms, k):
    n_docs = len(doclens)
    avgdl = float(doclens.mean())
    dfs = {t: len(p[0]) for t, p in postings.items()}

    def lookup(ids):
        return doclens[ids.astype(np.int64)]

    bf_ids, bf_scores = brute_force_topk(
        query_terms, postings, dfs, lookup, n_docs, avgdl, k
    )
    cursors = []
    for t in sorted(set(query_terms)):
        if t not in postings:
            continue
        ids, tfs = postings[t]
        iv = idf_fn(dfs[t], n_docs)
        blob, skips_b = codecs.encode_postings(ids, tfs)
        skips = np.frombuffer(skips_b, dtype=codecs.SKIP_DTYPE)
        ms = float(codecs.tf_upper_bound(int(tfs.max()), iv))
        cursors.append(TermCursor(t, iv, ms, np.frombuffer(blob, np.uint8), skips))
    w_ids, w_scores = wand_topk(
        cursors, lambda d: int(doclens[int(d)]), avgdl, k
    )
    return (bf_ids, bf_scores), (w_ids, w_scores)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_wand_equals_bruteforce_random(seed):
    rng = np.random.RandomState(seed)
    n_docs = int(rng.randint(20, 400))
    doclens, postings = _mini_corpus(rng, n_docs, n_terms=12, density=0.4)
    if not postings:
        return
    terms = list(postings)
    q = [terms[rng.randint(len(terms))] for _ in range(int(rng.randint(1, 5)))]
    k = int(rng.randint(1, 15))
    (bi, bs), (wi, ws) = _run_both(doclens, postings, q, k)
    assert np.array_equal(bi, wi), f"doc_ids differ: {bi} vs {wi} (q={q}, k={k})"
    assert np.array_equal(bs, ws), "scores not bit-identical"


def test_wand_oov_and_empty():
    rng = np.random.RandomState(1)
    doclens, postings = _mini_corpus(rng, 50, 5, 0.5)
    (bi, bs), (wi, ws) = _run_both(doclens, postings, ["zzz_oov"], 10)
    assert len(bi) == 0 and len(wi) == 0


def test_wand_duplicate_query_terms_count_once():
    rng = np.random.RandomState(2)
    doclens, postings = _mini_corpus(rng, 100, 6, 0.5)
    t = next(iter(postings))
    (bi, bs), (wi, ws) = _run_both(doclens, postings, [t, t, t], 5)
    (bi1, bs1), _ = _run_both(doclens, postings, [t], 5)
    assert np.array_equal(bi, bi1) and np.array_equal(bs, bs1)
    assert np.array_equal(bi, wi) and np.array_equal(bs, ws)


def test_wand_skewed_heavy_term():
    """Zipf-head shape: one term in ~every doc + a rare term."""
    rng = np.random.RandomState(3)
    n = 2000
    doclens = rng.randint(10, 300, size=n).astype(np.uint32)
    heavy_ids = np.arange(n, dtype=np.uint64)
    heavy_tfs = rng.randint(1, 30, size=n).astype(np.uint64)
    rare_ids = np.sort(rng.choice(n, size=7, replace=False).astype(np.uint64))
    rare_tfs = rng.randint(1, 5, size=7).astype(np.uint64)
    postings = {"the": (heavy_ids, heavy_tfs), "rareterm": (rare_ids, rare_tfs)}
    (bi, bs), (wi, ws) = _run_both(doclens, postings, ["the", "rareterm"], 10)
    assert np.array_equal(bi, wi) and np.array_equal(bs, ws)


def _run_blockmax(doclens, postings, query_terms, k):
    """Run the vectorized block-max scorer the way QueryScorer feeds it."""
    from aarhus_ray.bm25 import idf as idf_fn, score_tf
    from aarhus_ray.wand import block_max_topk

    n_docs = len(doclens)
    avgdl = float(doclens.mean())
    entries = []
    for t in sorted(set(query_terms)):
        if t not in postings:
            continue
        ids, tfs = postings[t]
        iv = idf_fn(len(ids), n_docs)
        _, skips_b = codecs.encode_postings(ids, tfs)
        skips = np.frombuffer(skips_b, dtype=codecs.SKIP_DTYPE)
        contribs = score_tf(tfs, doclens[ids.astype(np.int64)].astype(np.float64), avgdl, iv)
        entries.append(
            (t, ids, contribs, skips["last_doc_id"].copy(), codecs.tf_upper_bound(skips["max_tf"], iv))
        )
    return block_max_topk(entries, avgdl, k)


@given(st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_blockmax_large_k_exceeds_chunk(seed):
    """Regression: with k >= the first interval chunk (64), the vectorized
    block-max threshold must come from the kth-BEST score, not from
    unsorted candidates."""
    rng = np.random.RandomState(seed)
    n_docs = int(rng.randint(300, 900))
    doclens, postings = _mini_corpus(rng, n_docs, n_terms=6, density=0.6)
    if not postings:
        return
    terms = list(postings)
    q = [terms[rng.randint(len(terms))] for _ in range(int(rng.randint(1, 4)))]
    k = int(rng.randint(64, 200))
    (bi, bs), _ = _run_both(doclens, postings, q, k)
    wi, ws = _run_blockmax(doclens, postings, q, k)
    assert np.array_equal(bi, wi) and np.array_equal(bs, ws)


def test_blockmax_large_docids_no_float_promotion():
    """Regression: doc_ids >= 2^53 must not be corrupted by float64
    promotion in interval slicing (partition_id >= 8192 in the docID
    scheme)."""
    from aarhus_ray.bm25 import idf as _idf, score_tf
    from aarhus_ray.wand import block_max_topk

    rng = np.random.RandomState(5)
    base = np.uint64(1 << 55)
    # adjacent doc_ids around the 2^53 precision cliff
    ids_a = base + np.arange(0, 600, 2, dtype=np.uint64)
    ids_b = base + np.arange(1, 601, 2, dtype=np.uint64)
    tf_a = rng.randint(1, 9, size=len(ids_a)).astype(np.uint64)
    tf_b = rng.randint(1, 9, size=len(ids_b)).astype(np.uint64)
    n_docs, avgdl = 1200, 50.0
    dls = rng.randint(10, 100, size=1200).astype(np.float64)

    def entry(term, ids, tfs, df_other):
        iv = _idf(len(ids), n_docs)
        blob, skips_b = codecs.encode_postings(ids, tfs)
        skips = np.frombuffer(skips_b, dtype=codecs.SKIP_DTYPE)
        dl = dls[(ids - base).astype(np.int64) % 1200]
        contribs = score_tf(tfs, dl, avgdl, iv)
        bmax = codecs.tf_upper_bound(skips["max_tf"], iv)
        return (term, ids, contribs, skips["last_doc_id"].copy(), bmax), iv, dl

    ea, iva, dla = entry("aa", ids_a, tf_a, len(ids_b))
    eb, ivb, dlb = entry("bb", ids_b, tf_b, len(ids_a))
    got_ids, got_scores = block_max_topk([ea, eb], avgdl, 10)
    # brute force over the union
    union = np.concatenate([ids_a, ids_b])
    scores = np.concatenate(
        [score_tf(tf_a, dla, avgdl, iva), score_tf(tf_b, dlb, avgdl, ivb)]
    )
    from aarhus_ray.bm25 import topk_select

    want_ids, want_scores = topk_select(union, scores, 10)
    assert len(np.unique(got_ids)) == len(got_ids), "duplicate doc in top-k"
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(got_scores, want_scores)


# --- conjunctive (AND) retrieval -------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_conjunctive_equals_filtered_disjunctive(seed):
    """Conjunctive top-k == full disjunctive scoring filtered to docs that
    contain every distinct query term (bit-identical scores: same per-term
    contributions, same sorted-term accumulation order)."""
    rng = np.random.RandomState(seed)
    n_docs = int(rng.randint(20, 400))
    doclens, postings = _mini_corpus(rng, n_docs, n_terms=8, density=0.6)
    if not postings:
        return
    terms = list(postings)
    q = [terms[rng.randint(len(terms))] for _ in range(int(rng.randint(1, 4)))]
    k = int(rng.randint(1, 15))
    avgdl = float(doclens.mean())
    dfs = {t: len(p[0]) for t, p in postings.items()}

    def lookup(ids):
        return doclens[ids.astype(np.int64)]

    ci, cs = brute_force_topk(q, postings, dfs, lookup, n_docs, avgdl, k, conjunctive=True)
    # reference: disjunctive with k = n_docs (full frozen-order ranking),
    # filtered to all-terms docs, truncated to k
    di, ds = brute_force_topk(q, postings, dfs, lookup, n_docs, avgdl, n_docs)
    member = set.intersection(*(set(postings[t][0].tolist()) for t in set(q)))
    mask = np.array([int(d) in member for d in di], dtype=bool)
    ref_i, ref_s = di[mask][:k], ds[mask][:k]
    assert np.array_equal(ci, ref_i), f"doc_ids differ (q={q}, k={k})"
    assert np.array_equal(cs, ref_s), "scores not bit-identical"


def test_conjunctive_oov_term_empties_result():
    rng = np.random.RandomState(5)
    doclens, postings = _mini_corpus(rng, 100, 5, 0.8)
    t = next(iter(postings))
    avgdl = float(doclens.mean())
    dfs = {tt: len(p[0]) for tt, p in postings.items()}

    def lookup(ids):
        return doclens[ids.astype(np.int64)]

    ci, cs = brute_force_topk(
        [t, "zzz_oov"], postings, dfs, lookup, len(doclens), avgdl, 10, conjunctive=True
    )
    assert len(ci) == 0 and len(cs) == 0


# --- the batched or-mode scorer over a real index ---------------------------
#
# QueryScorer scores every or-mode query of a batch in one pass: dense rows
# (wand.dense_accum_topk), the exhaustive union of a query of at most
# FIRST_CHUNK skip blocks, Block-Max WAND otherwise. Every answer must equal
# method="brute" bit for bit, whatever mix of paths one batch takes.

_OOV_TEXT = "zzqxv qqzzyy"


@pytest.fixture(scope="module")
def batched_setups(golden_index, tmp_path_factory):
    """{name: (wand scorer, brute scorer)} over the golden index: plain,
    with tombstones, with a doc filter, doc-range sharded (``pids``), a
    range of at most k docs, and a cache cap small enough to evict
    everything in the middle of a batch; plus the vocabulary by df class
    (head: postings × 8 >= docs, rare: df 1)."""
    import shutil

    from aarhus_ray.pipelines.maintain import delete_documents
    from aarhus_ray.stages.query_stage import QueryScorer

    idx = golden_index["index"]
    plain = QueryScorer(idx, k=10)
    n = len(plain.doclens.doc_ids)
    df: dict[str, int] = {}
    for seg in plain.segments:
        for t, e in seg.dict.items():
            df[t] = df.get(t, 0) + e[0]
    vocab = {"head": sorted(t for t, d in df.items() if d * 8 >= n),
             "rare": sorted(t for t, d in df.items() if d == 1),
             "any": sorted(df)}
    doc_ids = plain.doclens.doc_ids
    # tombstone the best docs of the head terms, so deletes change answers
    dead = tmp_path_factory.mktemp("batched") / "index"
    shutil.copytree(idx, dead)
    top = set()
    for t in vocab["head"][:5]:
        top.update(int(d) for d in plain._score_terms({t})[0][:3])
    delete_documents(str(dead), doc_ids=sorted(top) + [int(d) for d in doc_ids[::7]])
    keep = np.ascontiguousarray(doc_ids[::3])
    pids = sorted({int(d) >> 40 for d in doc_ids})
    small = min(pids, key=lambda p: int(np.sum((doc_ids >> np.uint64(40)) == p)))
    setups = {
        "plain": dict(out_dir=idx, k=10),
        "tombstones": dict(out_dir=str(dead), k=10),
        "filter": dict(out_dir=idx, k=10, filter_ids=keep),
        "pids": dict(out_dir=idx, k=10, pids=pids[2:5]),
        "n_local<=k": dict(out_dir=idx, k=200, pids=[small]),
        "evict": dict(out_dir=idx, k=10),
    }
    pairs = {name: (QueryScorer(method="wand", **kw), QueryScorer(method="brute", **kw))
             for name, kw in setups.items()}
    assert pairs["tombstones"][0].exclude_ids is not None
    assert len(pairs["n_local<=k"][0].doclens.doc_ids) <= 200
    pairs["evict"][0]._cache_cap = 3 * n  # a few head terms fill it
    return pairs, vocab


def _query_text(data, vocab, shape: str) -> str:
    from aarhus_ray.wand import FIRST_CHUNK

    pick = st.sampled_from
    if shape == "dense":  # a head term, maybe with more terms
        terms = [data.draw(pick(vocab["head"]))]
        terms += data.draw(st.lists(pick(vocab["any"]), max_size=3))
    elif shape == "union":  # a few df-1 terms: a few skip blocks
        terms = data.draw(st.lists(pick(vocab["rare"]), min_size=1, max_size=3))
    elif shape == "wand":  # more df-1 terms than WAND's first chunk of blocks
        terms = data.draw(st.lists(pick(vocab["rare"]), min_size=FIRST_CHUNK + 1,
                                   max_size=FIRST_CHUNK + 8, unique=True))
    else:
        return _OOV_TEXT
    return " ".join(terms)


def _batch(texts):
    import pyarrow as pa

    return pa.table({"query_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_batched_scorer_equals_brute(batched_setups, data):
    """One batch mixing dense, union and Block-Max WAND queries, OOV-only
    queries and repeated texts equals ``method="brute"`` bit for bit on
    every setup (tombstones, a filter, pids, n_local <= k, evict-all in
    the middle of the batch)."""
    pairs, vocab = batched_setups
    shapes = data.draw(st.lists(st.sampled_from(["dense", "union", "wand", "oov"]),
                                min_size=1, max_size=8))
    texts = [_query_text(data, vocab, s) for s in shapes]
    texts += data.draw(st.lists(st.sampled_from(texts), max_size=3))  # repeats
    batch = _batch(data.draw(st.permutations(texts)))
    for name, (wand, brute) in pairs.items():
        got, want = wand(batch), brute(batch)
        assert got.equals(want), name


def test_batched_scorer_takes_every_path(batched_setups, golden_index):
    """A spy on the three or-mode paths: one batch takes each at least
    once, answers equal brute, and a cold small-cap scorer evicts its
    caches in the middle of the batch."""
    from unittest import mock

    from aarhus_ray.stages import query_stage
    from aarhus_ray.wand import FIRST_CHUNK

    pairs, vocab = batched_setups
    plain, brute = pairs["plain"]
    wand = query_stage.QueryScorer(golden_index["index"], k=10)
    wand._cache_cap = 3 * len(wand.doclens.doc_ids)
    texts = [" ".join(vocab["head"][:2]), vocab["rare"][0], _OOV_TEXT,
             " ".join(vocab["rare"][: FIRST_CHUNK + 4]), vocab["head"][-1],
             " ".join(vocab["rare"][1:3]), vocab["rare"][0]]
    calls = {"dense_accum_topk": 0, "_scored_union": 0, "block_max_topk": 0}

    def spy(name):
        real = getattr(query_stage, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)
        return wrapper

    evictions = []
    charge = wand._charge_cache

    def counting_charge(n):
        evictions.append(wand._cached_postings + n > wand._cache_cap)
        charge(n)

    with mock.patch.multiple(query_stage, **{name: spy(name) for name in calls}), \
            mock.patch.object(wand, "_charge_cache", counting_charge):
        want = brute(_batch(texts))
        for scorer in (plain, wand):
            assert scorer(_batch(texts)).equals(want)
    assert all(c >= 2 for c in calls.values()), calls
    assert any(evictions[1:-1]), "no evict-all in the middle of the batch"
