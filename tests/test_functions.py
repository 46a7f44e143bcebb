"""Unit tests for the generic operator library (functions/) against tiny
driver tables at sf0.001 — the pytest layer of what tools/check_oracle.py
verifies against DuckDB at sf0.01."""

import hashlib
import json

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def test_exact_dedup_returns_original_ids():
    from aarhus_ray.functions.dedup import exact_dedup_min_id

    out = exact_dedup_min_id(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
    assert out["doc_id"].tolist() == sorted(docs["doc_id"].to_pylist())


def test_minhash_lsh_finds_planted_near_dups():
    from aarhus_ray.functions.dedup import minhash_lsh_pairs, ngram_jaccard_pairs, _shingles
    from aarhus_ray.textnorm import tokenize

    lsh = minhash_lsh_pairs(SF)
    exact = ngram_jaccard_pairs(SF)
    # LSH+verify must agree with the exhaustive exact computation
    assert lsh.values.tolist() == exact.values.tolist()
    # and both must equal a direct all-pairs check
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sh = {i: _shingles(tokenize(t)) for i, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())}
    want = []
    ids = sorted(sh)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            A, B = sh[a], sh[b]
            if A and B and len(A & B) / len(A | B) >= 0.9:
                want.append([a, b])
    assert exact.values.tolist() == want


def test_simhash_catches_exact_clones():
    from aarhus_ray.functions.dedup import CLONE_OFFSET, simhash_dup_pairs

    pairs = simhash_dup_pairs(SF)
    clone_pairs = set(
        (i, i + CLONE_OFFSET)
        for i in pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])["doc_id"].to_pylist()
    )
    got = set(map(tuple, pairs.values.tolist()))
    assert clone_pairs <= got, "every exact clone pair has hamming distance 0"


def test_embedding_near_dup_clone_pairs_only():
    from aarhus_ray.functions.dedup import CLONE_OFFSET, embedding_near_dup_pairs

    pairs = embedding_near_dup_pairs(SF)
    ids = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id"])["vec_id"].to_pylist()
    assert pairs.values.tolist() == [[i, i + CLONE_OFFSET] for i in sorted(ids)]


def test_knn_bruteforce_matches_numpy():
    from aarhus_ray.functions.ann import knn_cosine_bruteforce

    out = knn_cosine_bruteforce(SF, k=5)
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist())
    E = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    q = En[list(ids).index(0)]
    cos = En @ q
    order = np.lexsort((ids, -cos))[:5]
    assert out["vec_id"].tolist() == ids[order].tolist()


def test_ivf_branch_and_bound_is_exact():
    from aarhus_ray.functions.ann import ivf_search, knn_cosine_bruteforce

    brute = knn_cosine_bruteforce(SF, k=5)
    ivf = ivf_search(SF, k=5)
    assert ivf.values.tolist() == brute.values.tolist()


def test_pq_search_recall_and_exact_rerank():
    from aarhus_ray.functions.ann import knn_cosine_bruteforce, pq_search

    k = 10
    out = pq_search(SF, k=k)
    again = pq_search(SF, k=k)
    assert out.values.tolist() == again.values.tolist()  # deterministic

    brute_full = knn_cosine_bruteforce(SF, k=10**9)  # full exact ranking
    # recall bound vs the true top-k (gaussian corpus, 4-bit codes, C=100)
    true_top = set(brute_full["vec_id"].head(k).tolist())
    assert len(true_top & set(out["vec_id"].tolist())) >= int(0.8 * k)
    # every returned row is exact-scored and in brute's total order
    pos = {v: i for i, v in enumerate(brute_full["vec_id"].tolist())}
    ranks = [pos[v] for v in out["vec_id"].tolist()]
    assert ranks == sorted(ranks)
    cos_of = dict(zip(brute_full["vec_id"], brute_full["cos"]))
    assert all(cos_of[v] == c for v, c in zip(out["vec_id"], out["cos"]))


def test_knn_graph_matches_full_matrix():
    from aarhus_ray.functions.ann import KNN_GRAPH_K, knn_graph

    out = knn_graph(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    E = np.array(t["embedding"].to_pylist(), dtype=np.float64)[order]
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    cos = En @ En.T
    np.fill_diagonal(cos, -np.inf)
    rows = []
    for i in range(len(ids)):
        o = np.lexsort((ids, -cos[i]))[:KNN_GRAPH_K]
        for rk, j in enumerate(o, 1):
            rows.append([int(ids[i]), rk, int(ids[j]), round(float(cos[i, j]), 3)])
    want = sorted(rows)
    assert out.values.tolist() == want
    # every vector appears with exactly K neighbors and no self-loop
    assert (out.groupby("vec_id").size() == KNN_GRAPH_K).all()
    assert (out["vec_id"] != out["nbr_id"]).all()


def test_bbq_matches_numpy_replay():
    from aarhus_ray.functions.ann import BBQ_SHORTLIST, knn_bbq

    k = 10
    out = knn_bbq(SF, k=k)
    # sequential replay of the frozen algorithm: sign codes -> Hamming
    # shortlist by (ham ASC, vec_id ASC) -> exact-cosine rerank
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    E = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    q = E[ids == 0][0]
    bits = E > 0.0
    ham = np.count_nonzero(bits != (q > 0.0)[None, :], axis=1).astype(np.int64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    cos = En @ (q / np.linalg.norm(q))
    short = np.lexsort((ids, ham))[:BBQ_SHORTLIST]
    page = short[np.lexsort((ids[short], -cos[short]))][:k]
    want = [
        [int(ids[i]), int(ham[i]), round(float(cos[i]), 3)] for i in page
    ]
    assert out.values.tolist() == want
    # the query's own code is at Hamming 0 and exact rerank puts it first
    assert out.iloc[0]["vec_id"] == 0 and out.iloc[0]["ham"] == 0
    assert out.iloc[0]["cos"] == 1.0


def test_knn_graph_search_matches_walk_replay():
    from aarhus_ray.functions.ann import (
        GS_BEAM, GS_DEGREE, GS_EF, knn_cosine_bruteforce, knn_graph_search,
    )

    k = 10
    out = knn_graph_search(SF, k=k)
    # sequential replay of the frozen walk over the frozen graph
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    o = np.argsort(ids)
    ids = ids[o]
    E = np.array(t["embedding"].to_pylist(), dtype=np.float64)[o]
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    cos = En @ En.T
    np.fill_diagonal(cos, -np.inf)
    nbrs = {
        int(ids[i]): [int(ids[j]) for j in np.lexsort((ids, -cos[i]))[:GS_DEGREE]]
        for i in range(len(ids))
    }
    pos = {int(v): i for i, v in enumerate(ids)}
    sims = En @ (E[pos[0]] / np.linalg.norm(E[pos[0]]))
    visited = {0: float(sims[pos[0]])}
    expanded: set[int] = set()
    while True:
        unexp = sorted((v for v in visited if v not in expanded),
                       key=lambda v: (-visited[v], v))[:GS_BEAM]
        if not unexp:
            break
        top = sorted(visited.items(), key=lambda kv: (-kv[1], kv[0]))
        thresh = top[GS_EF - 1][1] if len(top) >= GS_EF else -np.inf
        if all(visited[v] < thresh for v in unexp):
            break
        expanded.update(unexp)
        for v in unexp:
            for n in nbrs[v]:
                if n not in visited:
                    visited[n] = float(sims[pos[n]])
    page = sorted(visited.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    want = [[v, round(c, 3)] for v, c in page]
    assert out.values.tolist() == want
    # the walk never scans the corpus yet still recalls most of true top-k
    true_top = set(knn_cosine_bruteforce(SF, k=k)["vec_id"].tolist())
    assert len(true_top & set(out["vec_id"].tolist())) >= int(0.8 * k)
    assert len(visited) < len(ids)  # strictly sub-corpus touch


def test_lsh_probe_matches_direct_replay():
    from aarhus_ray.functions.ann import knn_cosine_lsh, sign_signature

    n_bits, max_flip, k = 8, 2, 5
    out = knn_cosine_lsh(SF, k=k, n_bits=n_bits, max_flip=max_flip)
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    E = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    q = En[ids.tolist().index(0)]
    sigs = sign_signature(En, n_bits)
    q_sig = sigs[ids.tolist().index(0)]
    ham = np.array([bin(int(s) ^ int(q_sig)).count("1") for s in sigs])
    mask = ham <= max_flip
    cos = En[mask] @ q
    mids = ids[mask]
    order = np.lexsort((mids, -cos))[:k]
    assert out["vec_id"].tolist() == mids[order].tolist()


def test_tumbling_window_matches_pandas():
    from aarhus_ray.functions.windows import events_hourly_tumbling

    out = events_hourly_tumbling(SF)
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    df["window_start"] = df["ts"].dt.floor("h")
    df["cents"] = np.floor(df["value"] * 100).astype("int64")
    want = (
        df.groupby(["window_start", "event_type"])
        .agg(n_events=("cents", "size"), sum_value_floor_cents=("cents", "sum"))
        .reset_index()
        .sort_values(["window_start", "event_type"])
        .reset_index(drop=True)
    )
    assert (out["n_events"].to_numpy() == want["n_events"].to_numpy()).all()
    assert (out["sum_value_floor_cents"].to_numpy() == want["sum_value_floor_cents"].to_numpy()).all()


def test_watermark_matches_sequential_replay():
    """Distributed two-phase watermark scan == a single sequential pass in
    arrival order (the semantics a one-node streaming engine would run)."""
    import hashlib

    from aarhus_ray.functions.windows import (
        WM_DELAY_MOD_S,
        WM_LATENESS_S,
        events_hourly_tumbling,
        events_late_ids,
        events_watermark_hourly,
    )

    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ts_us = df["ts"].astype("int64").to_numpy()
    delay = np.array(
        [
            int.from_bytes(hashlib.md5(str(int(e)).encode()).digest()[:4], "big")
            % WM_DELAY_MOD_S
            for e in df["event_id"]
        ],
        dtype=np.int64,
    )
    arr = ts_us + delay * 1_000_000
    order = np.lexsort((df["event_id"].to_numpy(), arr))
    ts_sorted = ts_us[order]
    pmax = np.maximum.accumulate(ts_sorted)
    excl = np.empty_like(pmax)
    excl[0] = np.iinfo(np.int64).min // 2
    excl[1:] = pmax[:-1]
    lag = excl - ts_sorted
    late_mask = lag > WM_LATENESS_S * 1_000_000
    want_ids = np.sort(df["event_id"].to_numpy()[order][late_mask])

    out = events_late_ids(SF)
    assert out["event_id"].tolist() == want_ids.tolist()
    assert len(out) > 0  # the delay simulation must actually produce late data

    # hourly emission == batch-perfect tumbling minus the dropped events
    wm = events_watermark_hourly(SF)
    full = events_hourly_tumbling(SF)
    full_by_win = full.groupby("window_start")[["n_events"]].sum()
    wm_by_win = wm.set_index("window_start")["n_events"]
    dropped = int(full_by_win["n_events"].sum() - wm_by_win.sum())
    assert dropped == len(out)


def test_funnel_matches_sequential_per_user_replay():
    from aarhus_ray.functions.windows import (
        FUNNEL_STEPS,
        FUNNEL_WINDOW_H,
        events_funnel,
    )

    out = events_funnel(SF)
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    window = np.timedelta64(FUNNEL_WINDOW_H * 3600, "s")
    want = np.zeros(len(FUNNEL_STEPS), dtype=np.int64)
    for _, g in df.groupby("user_id"):
        anchor = None
        for i, step in enumerate(FUNNEL_STEPS):
            ts = g.loc[g["event_type"] == step, "ts"]
            if anchor is not None:
                ts = ts[(ts > anchor) & (ts <= anchor + window)]
            if len(ts) == 0:
                break
            anchor = ts.min()
            want[i] += 1
    assert out["n_users"].tolist() == want.tolist()
    assert list(out["event_type"]) == list(FUNNEL_STEPS)
    # funnel monotonicity: each step can only lose users
    assert (np.diff(out["n_users"].to_numpy()) <= 0).all()


def test_asof_join_matches_pandas_global():
    from aarhus_ray.functions.windows import events_asof_click_view

    out = events_asof_click_view(SF)
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    clicks = df[df.event_type == "click"]
    views = df[df.event_type == "view"]
    for _, row in out.head(25).iterrows():
        c = clicks[clicks.event_id == row["click_id"]].iloc[0]
        prior = views[(views.user_id == c.user_id) & (views.ts <= c.ts)]
        want = int(prior.sort_values(["ts", "event_id"]).event_id.iloc[-1]) if len(prior) else -1
        assert int(row["view_id"]) == want


def test_fingerprints_are_md5():
    from aarhus_ray.functions.textstats import fingerprints

    out = fingerprints(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    for _, row in out.head(20).iterrows():
        assert row["fp"] == hashlib.md5(texts[row["doc_id"]].encode()).hexdigest()


def test_multimodal_decode_features():
    from aarhus_ray.functions.multimodal import decode_features

    out = decode_features(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    assert set(out.columns) == {"doc_id", "n_bytes", "fake_width", "fake_height", "checksum"}
    for _, row in out.head(20).iterrows():
        raw = texts[row["doc_id"]].encode()
        assert row["n_bytes"] == len(raw)
        assert row["fake_width"] == len(raw) % 256
        assert row["checksum"] == hashlib.md5(raw).hexdigest()


def test_lang_id_rule_frozen():
    from aarhus_ray.functions.textstats import lang_id
    from aarhus_ray.textnorm import tokenize

    out = lang_id(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    for _, row in out.head(30).iterrows():
        toks = set(tokenize(texts[row["doc_id"]]))
        if "the" in toks or "and" in toks:
            assert row["pred_lang"] == "en"


def test_q1_matches_duckdb():
    import duckdb

    from aarhus_ray.functions.relational import q1_pricing_summary

    out = q1_pricing_summary(SF)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    want = con.execute(
        """SELECT l_returnflag, l_linestatus, SUM(CAST(l_quantity AS BIGINT)) AS sum_qty,
                  COUNT(*) AS count_order
           FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
           GROUP BY 1,2 ORDER BY 1,2"""
    ).fetchdf()
    assert (out["sum_qty"].to_numpy() == want["sum_qty"].to_numpy()).all()
    assert (out["count_order"].to_numpy() == want["count_order"].to_numpy()).all()


def test_pipeline_step_api():
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from aarhus_ray.pipelines.steps import Step, build_pipeline

    ds = ray.data.from_arrow(
        pa.table({"x": pa.array([1, 2, 3, 4], pa.int64()), "lang": ["en", "es", "en", "de"]})
    )
    steps = [
        Step("double", lambda t: t.set_column(0, "x", pc.multiply(t["x"], pa.scalar(2))), kind="map"),
        Step("only_en", lambda t: pc.equal(t["lang"], pa.scalar("en")), kind="filter"),
    ]
    out = build_pipeline(ds, steps).to_pandas()
    assert out["x"].tolist() == [2, 6]


def test_hll_distinct_count_accuracy():
    import pyarrow as pa

    from aarhus_ray.functions.sketches import HLL_P, hll_estimate, hll_merge, hll_update

    # pure-kernel accuracy: 10k distinct strings → estimate within ~5%
    regs = np.zeros(1 << HLL_P, dtype=np.uint8)
    hll_update(regs, [f"value-{i}" for i in range(10_000)])
    est = hll_estimate(regs)
    assert abs(est - 10_000) / 10_000 < 0.05
    # mergeability: two halves merged == whole (identical registers)
    a = np.zeros(1 << HLL_P, dtype=np.uint8)
    b = np.zeros(1 << HLL_P, dtype=np.uint8)
    hll_update(a, [f"value-{i}" for i in range(5_000)])
    hll_update(b, [f"value-{i}" for i in range(5_000, 10_000)])
    assert (hll_merge([a, b]) == regs).all()


def test_hll_over_events_table():
    import duckdb

    from aarhus_ray.functions.sketches import distinct_count_exact, distinct_count_hll

    out = distinct_count_hll(SF, "events", "props")
    con = duckdb.connect()
    sql_exact = con.execute(
        f"SELECT count(DISTINCT props) FROM '{SF}/events.parquet'"
    ).fetchone()[0]
    # the distributed exact-distinct anchor matches SQL exactly ...
    eng_exact = int(distinct_count_exact(SF, "events", "props")["n_distinct"].iloc[0])
    assert eng_exact == sql_exact
    # ... and pins the sketch's relative error at sf0.01 (HLL_P=12 → ~1.6%
    # standard error; 5% is > 3 sigma)
    approx = int(out["approx_distinct"].iloc[0])
    assert abs(approx - eng_exact) / max(1, eng_exact) < 0.05
    # the sketch value itself replays EXACTLY in SQL (md5_number_lower hash,
    # unrolled trailing-zero rank, HUGEINT register fold — hll_oracle_sql)
    from aarhus_ray.functions.sketches import hll_oracle_sql

    con.execute(f"CREATE OR REPLACE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    oracle = con.execute(hll_oracle_sql()).fetchdf()
    assert int(oracle["approx_distinct"].iloc[0]) == approx


def test_hll_rounds_halves_up_like_duckdb(monkeypatch):
    import duckdb

    from aarhus_ray.functions import sketches

    con = duckdb.connect()
    for x in (0.5, 2.5, 3.5, 1234.5, 2.4999, 7.0):
        assert sketches.hll_round(x) == int(con.execute(f"SELECT round({x!r}::DOUBLE)").fetchone()[0])
    # the engine op applies it: an estimate of exactly 2.5 reports 3 (to-even
    # rounding would report 2, and DuckDB's round gives 3)
    monkeypatch.setattr(sketches, "hll_estimate", lambda regs: 2.5)
    out = sketches.distinct_count_hll(SF, "events", "props")
    assert int(out["approx_distinct"].iloc[0]) == 3


def test_hll_all_null_column_matches_oracle(tmp_path):
    import duckdb
    import pyarrow as pa

    from aarhus_ray.functions.sketches import distinct_count_hll, hll_oracle_sql

    pq.write_table(pa.table({"props": pa.array([None] * 50, pa.string())}), str(tmp_path / "empty.parquet"))
    eng = int(distinct_count_hll(str(tmp_path), "empty", "props")["approx_distinct"].iloc[0])
    con = duckdb.connect()
    con.execute(f"CREATE VIEW empty AS SELECT * FROM '{tmp_path}/empty.parquet'")
    oracle = con.execute(hll_oracle_sql("empty", "props")).fetchdf()["approx_distinct"]
    assert eng == 0
    assert oracle.notna().all() and int(oracle.iloc[0]) == eng


def test_parallel_fixture_generation_deterministic(tmp_path):
    import filecmp
    import os

    from aarhus_ray import fixtures

    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    # force the parallel path with a low threshold via direct shard calls
    old = fixtures._PARALLEL_GEN_THRESHOLD
    fixtures._PARALLEL_GEN_THRESHOLD = 100
    try:
        fixtures.write_pages_dir(a, 400, seed=9, rows_per_file=100, avg_tokens=60)
        fixtures.write_pages_dir(b, 400, seed=9, rows_per_file=100, avg_tokens=60)
    finally:
        fixtures._PARALLEL_GEN_THRESHOLD = old
    fa = sorted(f for f in os.listdir(a) if f.endswith(".parquet"))
    fb = sorted(f for f in os.listdir(b) if f.endswith(".parquet"))
    assert fa == fb and len(fa) == 4
    for f in fa:
        assert filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False), f
    # urls globally unique across shards
    import pyarrow.parquet as pq

    urls = []
    for f in fa:
        urls.extend(pq.read_table(os.path.join(a, f), columns=["url"])["url"].to_pylist())
    base_urls = [u for u in urls]
    assert len(set(base_urls)) >= 400  # 400 originals (+ dups reuse existing urls)


def test_driver_corpus_is_ascii():
    """Guards the oracle-SQL tokenizer equivalence: the DuckDB oracles
    tokenize with ``textnorm.TOKENIZE_SQL`` (lower(text)) while the engine
    uses NFKC+casefold (``textnorm.tokenize``). They agree only on plain
    ASCII, so every corpus the oracles run on is checked: sf0.001 (the
    driver window), sf0.01 (the ``tools/check_oracle.py`` gate) and sf0.1
    (the bench data). If this ever fails, every text-tokenizing oracle
    needs a casefold-aware rewrite (see the note at TOKENIZE_SQL)."""
    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01", "/root/testdata/sf0.1"):
        t = pq.read_table(f"{sf}/documents.parquet", columns=["text"])
        for s in t["text"].to_pylist():
            assert s.isascii()


def test_tokenize_nonascii_diverges_from_plain_lower():
    """Documents (rather than hides) the divergence the ASCII guard above
    protects against: casefold('ß') = 'ss' and NFKC folds fullwidth digits,
    which lower(text) in SQL would not."""
    from aarhus_ray.textnorm import tokenize

    assert tokenize("STRASSE straße") == ["strasse", "strasse"]
    assert tokenize("ＡＢＣ１２３") == ["abc123"]  # fullwidth → ascii via NFKC


def test_sliding_window_consistent_with_tumbling_mass():
    """Each event lands in exactly 4 sliding windows, so total event mass
    is 4x the tumbling total; spot-check one window against pandas."""
    from aarhus_ray.functions.windows import events_hourly_tumbling, events_sliding_window

    slid = events_sliding_window(SF)
    tumb = events_hourly_tumbling(SF)
    assert slid["n_events"].sum() == 4 * tumb["n_events"].sum()
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ws = slid["window_start"].iloc[0]
    et = slid["event_type"].iloc[0]
    m = (df["event_type"] == et) & (df["ts"] >= ws) & (df["ts"] < ws + np.timedelta64(60, "m"))
    assert int(slid["n_events"].iloc[0]) == int(m.sum())


def test_range_join_prior_views_matches_pandas():
    from aarhus_ray.functions.windows import events_range_join_prior_views

    out = events_range_join_prior_views(SF)
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    clicks = df[df.event_type == "click"]
    views = df[df.event_type == "view"]
    for _, row in out.head(20).iterrows():
        c = clicks[clicks.event_id == row["click_id"]].iloc[0]
        lo = c.ts - np.timedelta64(10, "m")
        want = int(((views.user_id == c.user_id) & (views.ts >= lo) & (views.ts < c.ts)).sum())
        assert int(row["n_prior_views"]) == want


def test_topk_per_priority_shape_and_order():
    from aarhus_ray.functions.relational import orders_topk_per_priority

    out = orders_topk_per_priority(SF, k=3)
    df = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    for prio, g in out.groupby("o_orderpriority"):
        assert g["rank"].tolist() == list(range(1, len(g) + 1))
        sub = df[df.o_orderpriority == prio].copy()
        sub["cents"] = (sub.o_totalprice * 100).round().astype("int64")
        sub = sub.sort_values(["cents", "o_orderkey"], ascending=[False, True]).head(3)
        assert g["o_orderkey"].tolist() == sub["o_orderkey"].tolist()


def test_q17_small_quantity_matches_pandas():
    from aarhus_ray.functions.relational import q17_small_quantity_revenue

    out = q17_small_quantity_revenue(SF)
    li = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    part = pq.read_table(f"{SF}/part.parquet").to_pandas()
    li["qc"] = (li.l_quantity * 100).round().astype("int64")
    li["pc"] = (li.l_extendedprice * 100).round().astype("int64")
    st = li.groupby("l_partkey")["qc"].agg(["sum", "count"])
    li = li.join(st, on="l_partkey")
    small = li[5 * li["qc"] * li["count"] < li["sum"]].merge(
        part, left_on="l_partkey", right_on="p_partkey"
    )
    want = (
        small.groupby("p_brand")
        .agg(n_small=("pc", "size"), sum_price_cents=("pc", "sum"))
        .reset_index()
        .sort_values("p_brand")
        .reset_index(drop=True)
    )
    assert out.values.tolist() == want.values.tolist()


def test_q13_order_distribution_includes_zero_bucket():
    from aarhus_ray.functions.relational import q13_customer_order_distribution

    out = q13_customer_order_distribution(SF)
    orders = pq.read_table(f"{SF}/orders.parquet", columns=["o_custkey"]).to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]).to_pandas()
    counts = orders.groupby("o_custkey").size()
    hist = counts.value_counts()
    zero = len(cust) - len(counts)
    assert int(out["custdist"].sum()) == len(cust)
    if zero > 0:
        assert int(out.loc[out["c_count"] == 0, "custdist"].iloc[0]) == zero
    for c_count, custdist in hist.items():
        assert int(out.loc[out["c_count"] == c_count, "custdist"].iloc[0]) == custdist
    # frozen TPC-H Q13 order
    assert out.sort_values(
        ["custdist", "c_count"], ascending=[False, False]
    ).values.tolist() == out.values.tolist()


def test_pack_sequences_matches_sequential_cumsum():
    from aarhus_ray.functions.textstats import PACK_SEQ_LEN, pack_sequences
    from aarhus_ray.textnorm import tokenize

    out = pack_sequences(SF)
    docs = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
    )
    n = docs["text"].map(lambda t: len(tokenize(t))).to_numpy()
    start = np.concatenate(([0], np.cumsum(n[:-1])))
    keep = n > 0
    assert out["doc_id"].tolist() == docs["doc_id"].to_numpy()[keep].tolist()
    assert out["tok_start"].tolist() == start[keep].tolist()
    assert out["seq_first"].tolist() == (start[keep] // PACK_SEQ_LEN).tolist()
    assert (
        out["seq_last"].tolist()
        == ((start[keep] + n[keep] - 1) // PACK_SEQ_LEN).tolist()
    )
    # plan invariant: consecutive docs tile the token stream gap-free
    ts, nt = out["tok_start"].to_numpy(), out["n_tokens"].to_numpy()
    assert (ts[1:] == ts[:-1] + nt[:-1]).all()


def test_unigram_nll_matches_counter_recompute():
    from collections import Counter

    from aarhus_ray.functions.textstats import unigram_nll
    from aarhus_ray.textnorm import tokenize

    out = unigram_nll(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    toks = {int(d): tokenize(t) for d, t in zip(docs["doc_id"], docs["text"])}
    cnt = Counter(t for ts in toks.values() for t in ts)
    total = sum(cnt.values())
    l_tot = int(np.round(np.log(float(total)) * 1000.0))
    l_of = {t: int(np.round(np.log(float(c)) * 1000.0)) for t, c in cnt.items()}
    for _, row in out.head(50).iterrows():
        ts = toks[int(row["doc_id"])]
        assert int(row["n_tokens"]) == len(ts)
        assert int(row["nll_milli"]) == len(ts) * l_tot - sum(l_of[t] for t in ts)


def test_bpe_token_counts_matches_regex():
    import re

    from aarhus_ray.functions.textstats import bpe_token_counts

    out = bpe_token_counts(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    pat = re.compile(r"[a-z]+|[0-9]+|[^a-z0-9\s]+", re.ASCII)
    for _, row in out.head(25).iterrows():
        assert row["n_bpe_tokens"] == len(pat.findall(texts[row["doc_id"]].lower()))


def test_tokenize_flat_equals_tokenize_batch():
    """The numpy byte-level fast path must produce the same (term, doc)
    multiset and per-row counts as the frozen Python tokenizer — including
    mixed ASCII/non-ASCII batches, empties, and sliced arrays."""
    import pyarrow as pa

    from aarhus_ray.textnorm import tokenize_batch, tokenize_flat

    texts = [
        "The QUICK brown-fox!! 123", "", "abc", "x!y", "A1b2", "  !!", "end1",
        "1start end2", "Zz", "café ß STRASSE", "ＡＢＣ１２３", "a" * 300,
        "mixed café then ascii again", "trailing space ", " leading", "\n\t",
        "0", "a-b_c.d", "ODD|chars&here",
    ]
    ids = np.arange(len(texts), dtype=np.uint64)
    ref = tokenize_batch(texts)
    for col in (pa.array(texts, pa.string()), pa.array(["sliced-off"] + texts).slice(1)):
        flat, fd, counts = tokenize_flat(col, ids)
        assert counts.tolist() == [len(t) for t in ref]
        got = sorted(zip(fd.tolist(), flat.to_pylist()))
        want = sorted((int(i), w) for i, t in zip(ids, ref) for w in t)
        assert got == want
        # ORDER contract (load-bearing for the n-gram ops): each doc's
        # tokens are contiguous and in document order
        fl, fdl = flat.to_pylist(), fd.tolist()
        for i, t in zip(ids, ref):
            assert [w for w, d in zip(fl, fdl) if d == int(i)] == t


def test_corpus_clean_composition():
    """Cleaning = (lang='en' ∧ >=10 tokens) minus near-dup doc_b's; output
    parquet is lang-partitioned and contains exactly the survivors."""
    import os

    from aarhus_ray.functions.cleaning import corpus_clean
    from aarhus_ray.functions.dedup import minhash_lsh_pairs
    from aarhus_ray.textnorm import tokenize

    out_dir = "/tmp/ar_test_clean"
    res = corpus_clean(SF, out_dir=out_dir)
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    qualified = {
        int(r.doc_id) for r in docs.itertuples()
        if r.lang == "en" and len(tokenize(r.text)) >= 10
    }
    pairs = minhash_lsh_pairs(SF)
    drop = {int(b) for a, b in zip(pairs["doc_a"], pairs["doc_b"])
            if int(a) in qualified and int(b) in qualified}
    assert res["doc_id"].tolist() == sorted(qualified - drop)
    # written corpus: hive lang partitions, exactly the surviving rows
    assert os.path.isdir(os.path.join(out_dir, "lang=en"))
    written = pq.read_table(out_dir)
    assert sorted(written["doc_id"].to_pylist()) == res["doc_id"].tolist()


def test_tokenize_flat_hypothesis_property():
    """Random text soup (ASCII + non-ASCII + controls): tokenize_flat's
    (doc, term) multiset and counts always equal tokenize_batch's."""
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from aarhus_ray.textnorm import tokenize_batch, tokenize_flat

    alphabet = st.sampled_from(list("aZ09 .!\t\n-_é߀☺ＡＢ１"))
    texts_strat = st.lists(st.text(alphabet, max_size=40), min_size=0, max_size=12)

    @settings(max_examples=150, deadline=None)
    @given(texts_strat)
    def check(texts):
        ids = np.arange(len(texts), dtype=np.uint64)
        flat, fd, counts = tokenize_flat(pa.array(texts, pa.string()), ids)
        ref = tokenize_batch(texts)
        assert counts.tolist() == [len(t) for t in ref]
        got = sorted(zip(fd.tolist(), flat.to_pylist()))
        want = sorted((int(i), w) for i, t in zip(ids, ref) for w in t)
        assert got == want
        fl, fdl = flat.to_pylist(), fd.tolist()
        for i, t in zip(ids, ref):
            assert [w for w, d in zip(fl, fdl) if d == int(i)] == t

    check()


def test_multimodal_resize_and_frame_sample():
    from aarhus_ray.functions.multimodal import frame_sample, resize_features

    rs = resize_features(SF, target_w=64, target_h=64)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    for _, row in rs.head(15).iterrows():
        raw = texts[row["doc_id"]].encode()
        assert row["orig_bytes"] == len(raw)
        assert row["resized_bytes"] == min(len(raw), 4096)
        assert row["resized_checksum"] == hashlib.md5(raw[:4096]).hexdigest()
    fs = frame_sample(SF)
    g = fs[fs["doc_id"] == fs["doc_id"].iloc[0]]
    raw = texts[int(g["doc_id"].iloc[0])].encode()
    for _, row in g.iterrows():
        fi = int(row["frame_idx"])
        assert fi % 4 == 0 and row["byte_offset"] == fi * 256
        assert row["frame_checksum"] == hashlib.md5(raw[fi * 256 : (fi + 1) * 256]).hexdigest()
    assert (fs.groupby("doc_id").size() <= 3).all()


def test_winnow_fingerprints_guarantee():
    """Winnowing guarantee: two docs sharing a token run of length
    >= w + shingle_n - 1 (= 6) share at least one fingerprint; spot-check
    the rolling-min rule against a direct computation."""
    from aarhus_ray.functions.textstats import winnow_fingerprints
    from aarhus_ray.textnorm import tokenize

    out = winnow_fingerprints(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    row = out.iloc[0]
    tk = tokenize(texts[int(row["doc_id"])])
    hs = [int(hashlib.md5(" ".join(tk[i : i + 3]).encode()).hexdigest()[:16], 16) >> 1
          for i in range(len(tk) - 2)]
    minima = [min(hs[i - 3 : i + 1]) for i in range(3, len(hs))]
    assert int(row["n_fp"]) == len(set(minima))
    assert int(row["min_fp"]) == min(minima)


def test_events_value_median_matches_numpy():
    from aarhus_ray.functions.windows import events_value_median

    out = events_value_median(SF)
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    df["cents"] = np.floor(df["value"] * 100).astype("int64")
    for _, row in out.iterrows():
        vals = np.sort(df.loc[df["event_type"] == row["event_type"], "cents"].to_numpy())
        need = (len(vals) + 1) // 2
        assert int(row["median_cents"]) == int(vals[need - 1])
        assert int(row["n_events"]) == len(vals)


def test_ann_index_cache_reuse_and_stamp_invalidation(tmp_path):
    """The persisted LSH index is reused for an unchanged corpus and
    rebuilt (new stamped dir) when the source file changes."""
    import os
    import shutil

    from aarhus_ray.functions.ann import build_lsh_index

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(f"{SF}/embeddings.parquet", corpus / "embeddings.parquet")
    d1 = build_lsh_index(str(corpus))
    assert os.path.exists(os.path.join(d1, "_DONE"))
    assert build_lsh_index(str(corpus)) == d1  # cache hit, no rebuild
    # change the corpus content stamp (mtime+size both feed the key)
    os.utime(corpus / "embeddings.parquet", (1, 1))
    d2 = build_lsh_index(str(corpus))
    assert d2 != d1 and os.path.exists(os.path.join(d2, "_DONE"))


def test_stratified_sample_rule():
    from aarhus_ray.functions.textstats import stratified_sample

    out = stratified_sample(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"]).to_pandas()
    want = docs[
        (docs.doc_id % 10) < docs.lang.map(lambda lg: 3 if lg == "en" else 5)
    ].sort_values("doc_id")
    assert out["doc_id"].tolist() == want["doc_id"].tolist()


def test_bloom_filter_kernel():
    from aarhus_ray.functions.bloom import bloom_contains, _positions
    import numpy as np

    rng = np.random.RandomState(7)
    members = rng.randint(0, 1 << 60, size=5000).astype(np.int64)
    bits = np.zeros(1 << 20, dtype=np.uint8)
    for pos in _positions(members):
        np.bitwise_or.at(bits, pos >> 3, np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8)))
    # no false negatives, ever
    assert bloom_contains(bits, members).all()
    # false-positive rate on non-members is small (1 MiB bits, 5k keys)
    others = rng.randint(1 << 60, 1 << 62, size=20000).astype(np.int64)
    fp = bloom_contains(bits, others).mean()
    assert fp < 0.01


def test_semi_anti_join_bloom_path_matches_exact():
    """The Bloom + exact-verify fallback must return byte-identical results
    to the broadcast-keyset path (Bloom false positives are repaired by the
    verification scan)."""
    from aarhus_ray.functions.relational import customers_without_orders, parts_in_lineitem

    exact = parts_in_lineitem(SF, use_bloom=False)
    blm = parts_in_lineitem(SF, use_bloom=True)
    assert exact.equals(blm)
    exact_a = customers_without_orders(SF, use_bloom=False)
    blm_a = customers_without_orders(SF, use_bloom=True)
    assert exact_a.equals(blm_a)


def test_ngram_jaccard_distributed_path_matches_driver_join():
    """The size-gated distributed pair join (bucketed reducers + pair-sum
    groupby) must equal the driver-side merge exactly."""
    from aarhus_ray.functions.dedup import ngram_jaccard_pairs

    local = ngram_jaccard_pairs(SF, distributed=False)
    dist = ngram_jaccard_pairs(SF, distributed=True)
    assert local.values.tolist() == dist.values.tolist()


def test_events_value_quantiles_matches_numpy():
    from aarhus_ray.functions.windows import QUANTILE_PCTS, events_value_quantiles

    out = events_value_quantiles(SF)
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    df["cents"] = np.floor(df["value"] * 100).astype("int64")
    assert set(out["q"]) == set(QUANTILE_PCTS)
    for _, row in out.iterrows():
        vals = np.sort(df.loc[df["event_type"] == row["event_type"], "cents"].to_numpy())
        need = (len(vals) * int(row["q"]) + 99) // 100
        assert int(row["q_cents"]) == int(vals[need - 1]), (row["event_type"], row["q"])
    # monotone within each type (sanity of the frozen rule)
    for _, g in out.groupby("event_type"):
        qc = g.sort_values("q")["q_cents"].to_numpy()
        assert (np.diff(qc) >= 0).all()


def test_label_centroids_match_numpy():
    from aarhus_ray.functions.ann import label_centroids

    out = label_centroids(SF)
    tbl = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding", "label"])
    labels = tbl["label"].to_numpy(zero_copy_only=False).astype("int64")
    flat = tbl["embedding"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
    m = flat.reshape(len(labels), -1).astype("float64")
    for label in np.unique(labels):
        ref = m[labels == label].mean(axis=0)
        got = out.loc[out["label"] == label].sort_values("dim")["c"].to_numpy()
        assert np.allclose(got, ref, atol=2e-5), label


def test_term_vectors_match_forward_recompute():
    """Termvectors read from the index (postings tf, pos.bin first_pos,
    shard-summed df) must equal a pure-Python forward recompute over the
    raw documents table."""
    from collections import Counter

    from aarhus_ray.functions.fulltext import TV_NDOCS, term_vectors_query
    from aarhus_ray.textnorm import tokenize

    got = term_vectors_query(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): tokenize(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    targets = sorted(toks)[:TV_NDOCS]
    df = Counter()
    for ts in toks.values():
        df.update(set(ts))
    want = []
    for did in targets:
        ts = toks[did]
        tf = Counter(ts)
        first = {}
        for i, t in enumerate(ts):
            first.setdefault(t, i)
        for term in sorted(tf):
            want.append([did, term, tf[term], df[term], first[term]])
    assert got.values.tolist() == want


def test_phrase_suggest_matches_bruteforce():
    """Phrase suggester == brute-force recompute: per-token lev≤1 top-C by
    (df DESC, term ASC), cartesian phrases collate-scored by conjunctive
    containment, top-K by (n_docs DESC, phrase ASC)."""
    from collections import Counter
    from itertools import product

    from aarhus_ray.functions.fulltext import (
        FT_PHRASE_FUZZIES, PS_PER_TOKEN, PS_TOPK, phrase_suggest,
    )
    from aarhus_ray.textnorm import tokenize

    def lev(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    sets = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    df = Counter()
    for s in sets:
        df.update(s)
    want = []
    for qid, q in enumerate(FT_PHRASE_FUZZIES):
        per_tok = []
        for tok in tokenize(q):
            cands = sorted(
                (v for v in df if lev(v, tok) <= 1),
                key=lambda c: (-df[c], c),
            )[:PS_PER_TOKEN]
            if not cands:
                per_tok = []
                break
            per_tok.append(cands)
        if not per_tok:
            continue
        scored = []
        for combo in product(*per_tok):
            n = sum(1 for s in sets if set(combo) <= s)
            if n:
                scored.append((" ".join(combo), n))
        scored.sort(key=lambda x: (-x[1], x[0]))
        for r, (p, n) in enumerate(scored[:PS_TOPK], 1):
            want.append([qid, r, p, n])
    got = phrase_suggest(SF)
    assert got.values.tolist() == want
    # the fixture must exercise real ranking: some query ranks >= 2 phrases
    assert (got["rank"] >= 2).any()


def test_reindex_recomputes_corpus_stats():
    """The _reindex destination must hold ONLY the lang-filtered docs and
    RECOMPUTE n_docs/avgdl over them (the reindex-vs-filtered-search
    distinction); ranks must come from subset statistics."""
    from aarhus_ray.functions.fulltext import (
        REINDEX_LANG, _ensure_index, _ensure_reindexed, reindex_lang_query,
    )
    from aarhus_ray.state import manifest as mf
    from aarhus_ray.textnorm import tokenize

    src_stats = mf.read_stats(_ensure_index(SF, fresh=False))
    dst = _ensure_reindexed(SF)
    dst_stats = mf.read_stats(dst)

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text", "lang"])
    sub = [
        t for t, lang in zip(docs["text"].to_pylist(), docs["lang"].to_pylist())
        if lang == REINDEX_LANG
    ]
    assert 0 < len(sub) < docs.num_rows
    assert dst_stats["n_docs"] == len(sub) != src_stats["n_docs"]
    want_avgdl = sum(len(tokenize(t)) for t in sub) / len(sub)
    assert abs(dst_stats["avgdl"] - want_avgdl) < 1e-6
    # every returned doc is in the filtered subset
    out = reindex_lang_query(SF)
    docs_full = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    en_ids = {
        int(d) for d, lang in zip(
            docs_full["doc_id"].to_pylist(), docs_full["lang"].to_pylist()
        ) if lang == REINDEX_LANG
    }
    assert set(out["doc_id"].tolist()) <= en_ids


def test_multi_knn_window_matches_numpy():
    """multi_knn_window: one-scan per-query top-w cosine windows equal a
    plain numpy recompute over the parquet (frozen (cos DESC, vec_id)
    order, rank 1-based)."""
    from aarhus_ray.functions.ann import multi_knn_window

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    vec_ids, w = [0, 3, 7], 5
    got = multi_knn_window(SF, vec_ids, w)
    for qi, v in enumerate(vec_ids):
        q = m[ids == v][0]
        sims = m @ q
        order = np.lexsort((ids, -sims))[:w]
        sub = got[got["query_id"] == qi]
        assert sub["vec_id"].tolist() == ids[order].tolist()
        assert sub["rank"].tolist() == list(range(1, w + 1))


def test_hybrid_rrf_fusion_rule():
    """hybrid_rrf_query == an independent driver-side fusion of the two
    windows (lexical via query_index, vector via numpy): score =
    1/(K+lrank) + 1/(K+vrank) over the window union, (score DESC, doc_id)
    order. Also pins the OOV query's page to the pure vector ranking."""
    import pandas as pd

    from aarhus_ray.functions import fulltext
    from aarhus_ray.functions.fulltext import (
        FT_QUERIES,
        RRF_K,
        RRF_WINDOW,
        hybrid_rrf_query,
        _ensure_index,
        _run_queries,
    )

    got = hybrid_rrf_query(SF, k=10)

    index = _ensure_index(SF, fresh=False)
    lex = _run_queries(index, FT_QUERIES, RRF_WINDOW, "or")
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)

    oov_qid = FT_QUERIES.index("zzznotinvocab")
    for qid in range(len(FT_QUERIES)):
        q = m[ids == qid][0]
        sims = m @ q
        vorder = np.lexsort((ids, -sims))[:RRF_WINDOW]
        vrank = {int(ids[i]): r + 1 for r, i in enumerate(vorder)}
        lsub = lex[lex["query_id"] == qid]
        lrank = dict(zip(lsub["doc_id"].astype(int), lsub["rank"].astype(int)))
        union = sorted(set(vrank) | set(lrank))
        score = np.array(
            [
                (1.0 / (RRF_K + lrank[d]) if d in lrank else 0.0)
                + (1.0 / (RRF_K + vrank[d]) if d in vrank else 0.0)
                for d in union
            ]
        )
        order = np.lexsort((np.array(union), -score))[:10]
        want = [union[i] for i in order]
        sub = got[got["query_id"] == qid]
        assert sub["doc_id"].tolist() == want, f"query {qid}"
        if qid == oov_qid:  # empty lexical window -> pure vector page
            assert sub["doc_id"].tolist() == [int(ids[i]) for i in vorder[:10]]


def test_boosting_demotes_never_excludes():
    """bm25_topk_boosting == an independent recompute: full or-mode
    scores via the brute scorer, negative membership decided from the
    TEXT (tokenize each doc — not from postings), score × 0.5 where
    matched, (fscore DESC, doc_id) order. Also pins the OOV-negative
    query to the plain or-mode page (demotion set empty)."""
    from aarhus_ray.functions import fulltext
    from aarhus_ray.functions.fulltext import (
        FT_BOOSTING,
        NEG_BOOST,
        _ensure_index,
        _full_ranking,
        _run_queries,
        bm25_topk_boosting,
    )
    from aarhus_ray.textnorm import tokenize

    got = bm25_topk_boosting(SF, k=10)
    index = _ensure_index(SF, fresh=False)

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toksets = {
        int(d): set(tokenize(t))
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }

    import pandas as pd
    import pyarrow as pa

    from aarhus_ray.pipelines.query import query_index

    q = pa.table(
        {
            "query_id": pa.array(range(len(FT_BOOSTING)), pa.int64()),
            "text": pa.array([p for p, _ in FT_BOOSTING], pa.string()),
        }
    )
    full = query_index(
        index, q, k=len(toksets), method="brute", resolve_urls=True
    ).to_pandas()
    full["doc_id"] = full["url"].map(fulltext.url_doc_id).astype("int64")

    for qid, (pos, neg) in enumerate(FT_BOOSTING):
        sub = full[full["query_id"] == qid]
        negterms = set(tokenize(neg))
        ids = sub["doc_id"].to_numpy()
        hit = np.array([bool(toksets[int(d)] & negterms) for d in ids])
        fscore = sub["score"].to_numpy() * np.where(hit, NEG_BOOST, 1.0)
        order = np.lexsort((ids, -fscore))[:10]
        want = ids[order].tolist()
        page = got[got["query_id"] == qid]["doc_id"].tolist()
        assert page == want, f"query {qid}"
        if neg == "zzznotinvocab":
            plain = _run_queries(index, [pos], 10, "or")
            assert page == plain["doc_id"].tolist()


def test_range_agg_contracts():
    """range_agg: full (query × range) skeleton always emitted (OOV query
    included, all zeros), overlapping ranges double-count the overlap
    docs, and counts/sums match a text-level recompute."""
    from aarhus_ray.functions.fulltext import (
        FT_QUERIES,
        RANGE_BOUNDS,
        range_agg_query,
    )
    from aarhus_ray.textnorm import tokenize

    got = range_agg_query(SF)
    assert len(got) == len(FT_QUERIES) * len(RANGE_BOUNDS)

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): tokenize(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    oov = FT_QUERIES.index("zzznotinvocab")
    for qid, qtext in enumerate(FT_QUERIES):
        terms = set(qtext.split())
        match = {d for d, tk in toks.items() if terms & set(tk)}
        for ridx, (lo, hi) in enumerate(RANGE_BOUNDS):
            lens = [
                len(toks[d])
                for d in match
                if (lo is None or len(toks[d]) >= lo) and (hi is None or len(toks[d]) < hi)
            ]
            row = got[(got.query_id == qid) & (got.range_idx == ridx)]
            assert int(row["n_docs"].iloc[0]) == len(lens)
            assert int(row["sum_val"].iloc[0]) == sum(lens)
        if qid == oov:
            sub = got[got.query_id == qid]
            assert (sub["n_docs"] == 0).all() and (sub["sum_val"] == 0).all()
    # the (1000, None) range must actually be empty for the zero-bucket pin
    assert (got[got.range_idx == len(RANGE_BOUNDS) - 1]["n_docs"] == 0).all()


def test_moving_window_and_bucket_sort_folds():
    """moving_window: mov_sum/sdiff equal a pandas rolling/shift
    recompute of its own dense n_docs series (independent fold
    implementation); bucket_sort: selector + ordering re-derived from
    the moving_window series (the sparse non-zero buckets)."""
    from aarhus_ray.functions.fulltext import (
        BS_MIN_COUNT,
        BS_SIZE,
        MW_LAG,
        MW_WINDOW,
        bucket_sort_query,
        moving_window_query,
    )

    mw = moving_window_query(SF)
    assert len(mw)  # dense series exists
    for qid, sub in mw.groupby("query_id"):
        n = sub["n_docs"].reset_index(drop=True)
        want_mov = n.rolling(MW_WINDOW, min_periods=1).sum().astype(int)
        want_sdiff = (n - n.shift(MW_LAG, fill_value=0)).astype(int)
        assert sub["mov_sum"].tolist() == want_mov.tolist()
        assert sub["sdiff"].tolist() == want_sdiff.tolist()
        # buckets are dense (every integer between min and max present)
        b = sub["bucket"].tolist()
        assert b == list(range(b[0], b[-1] + 1))

    bs = bucket_sort_query(SF)
    for qid, sub in mw.groupby("query_id"):
        nz = sub[sub["n_docs"] >= BS_MIN_COUNT]
        order = nz.sort_values(["n_docs", "bucket"], ascending=[False, True]).head(BS_SIZE)
        page = bs[bs["query_id"] == qid]
        assert page["bucket"].tolist() == order["bucket"].tolist()
        assert page["n_docs"].tolist() == order["n_docs"].tolist()
        assert page["rank"].tolist() == list(range(1, len(order) + 1))


def test_collapse_topk_contracts():
    """collapse: each lang at most once per page; the page's winner set
    and group counts equal a recompute from facet_topk (the per-group
    pages) — winner = each group's rank-1 doc, blended by the full
    ranking's scores; n_group equals the text-level match count per
    lang."""
    from aarhus_ray.functions.fulltext import (
        FT_QUERIES,
        _ensure_index,
        collapse_topk_query,
        facet_topk_query,
    )
    from aarhus_ray.textnorm import tokenize

    got = collapse_topk_query(SF, k=5)
    for qid, sub in got.groupby("query_id"):
        assert sub["lang"].is_unique

    facet = facet_topk_query(SF, k=1)  # per-group winners
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text", "lang"])
    toks = {
        int(d): set(tokenize(t))
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    langs = {
        int(d): lg for d, lg in zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist())
    }
    for qid, qtext in enumerate(FT_QUERIES):
        want_winners = set(facet[(facet.query_id == qid) & (facet["rank"] == 1)]["doc_id"])
        page = got[got.query_id == qid]
        assert set(page["doc_id"]) <= want_winners
        assert len(page) == min(5, len(want_winners))
        # n_group from text-level membership
        terms = set(qtext.split())
        for _, row in page.iterrows():
            n = sum(
                1
                for d, tk in toks.items()
                if langs[d] == row["lang"] and (terms & tk)
            )
            assert int(row["n_group"]) == n


def test_knn_filtered_prefilter_semantics():
    """knn_cosine_filtered == numpy recompute over the label-filtered
    candidate set (pre-filter: restrict THEN rank), and returns exactly
    k rows whenever >= k candidates pass."""
    from aarhus_ray.functions.ann import knn_cosine_filtered

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    labels = np.asarray(t["label"].to_pylist(), dtype=np.int64)
    m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = m[ids == 0][0]

    label = 1
    keep = labels == label
    sims = m[keep] @ q
    kids = ids[keep]
    order = np.lexsort((kids, -sims))
    k = min(5, keep.sum())
    got = knn_cosine_filtered(SF, k=int(k), vec_id=0, label=label)
    assert got["vec_id"].tolist() == kids[order][:k].tolist()
    assert (got["label"] == label).all()
    assert len(got) == k
    assert np.allclose(got["cos"].to_numpy(), np.round(sims[order][:k], 3), atol=1e-9)


def test_auto_date_histogram_adaptive_rule():
    """auto_date_histogram: per query the chosen interval is the SMALLEST
    ladder entry whose dense span fits the target; the series is dense;
    counts sum to the match-set size (numpy recompute from the frozen
    warc_ts rule)."""
    from aarhus_ray.functions.fulltext import (
        ADH_TARGET,
        FT_QUERIES,
        auto_date_histogram_query,
        doc_ts_us,
    )
    from aarhus_ray.stages.query_stage import AutoDateHistogram
    from aarhus_ray.textnorm import tokenize

    got = auto_date_histogram_query(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): set(tokenize(t))
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    for qid, qtext in enumerate(FT_QUERIES):
        terms = set(qtext.split())
        match = sorted(d for d, tk in toks.items() if terms & tk)
        sub = got[got.query_id == qid]
        if not match:
            assert len(sub) == 0
            continue
        ts = np.array([doc_ts_us(d) for d in match], dtype=np.int64)
        lo, hi = int(ts.min()), int(ts.max())
        iv = AutoDateHistogram.LADDER[-1]
        for cand in AutoDateHistogram.LADDER:
            if hi // cand - lo // cand + 1 <= ADH_TARGET:
                iv = cand
                break
        assert (sub["interval_us"] == iv).all(), f"query {qid}"
        b = sub["bucket"].tolist()
        assert b == list(range(lo // iv, hi // iv + 1))  # dense
        assert len(b) <= ADH_TARGET
        assert int(sub["n_docs"].sum()) == len(match)
        want = np.bincount(ts // iv - lo // iv, minlength=len(b)).tolist()
        assert sub["n_docs"].tolist() == want


def test_diversified_sampler_walk_semantics():
    """diversified_sampler == an independent python simulation of the ES
    skip-walk (relevance order, skip past-cap facets, stop at N) over
    the full brute ranking — pinning the walk/filter-window equivalence
    the oracle relies on. Caps respected, sample sizes <= DS_N."""
    import pyarrow as pa

    from aarhus_ray.functions import fulltext
    from aarhus_ray.functions.fulltext import (
        DS_CAP,
        DS_N,
        FT_QUERIES,
        _ensure_index,
        diversified_sampler_query,
    )
    from aarhus_ray.pipelines.query import query_index

    got = diversified_sampler_query(SF)
    assert (got["n_sample"] <= DS_CAP).all()
    for qid, sub in got.groupby("query_id"):
        assert sub["n_sample"].sum() <= DS_N

    index = _ensure_index(SF, fresh=False)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    langs = {
        int(d): lg for d, lg in zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist())
    }
    q = pa.table(
        {
            "query_id": pa.array(range(len(FT_QUERIES)), pa.int64()),
            "text": pa.array(list(FT_QUERIES), pa.string()),
        }
    )
    full = query_index(
        index, q, k=len(langs), method="brute", resolve_urls=True
    ).to_pandas()
    full["doc_id"] = full["url"].map(fulltext.url_doc_id).astype("int64")
    for qid in range(len(FT_QUERIES)):
        sub = full[full.query_id == qid].sort_values("rank")
        taken: dict[str, int] = {}
        picks = 0
        for d in sub["doc_id"]:
            if picks >= DS_N:
                break
            lg = langs[int(d)]
            if taken.get(lg, 0) < DS_CAP:
                taken[lg] = taken.get(lg, 0) + 1
                picks += 1
        want = {lg: c for lg, c in sorted(taken.items())}
        page = got[got.query_id == qid]
        assert dict(zip(page["lang"], page["n_sample"])) == want, f"query {qid}"


def test_sliced_scroll_partitions_the_match_set():
    """sliced scroll: the slices PARTITION each query's match set (every
    matching doc in exactly one slice, union == export), slice ids are
    the frozen md5 rule, and all slices are non-trivially populated."""
    import hashlib as _hl

    from aarhus_ray.functions.fulltext import (
        FT_QUERIES,
        SCROLL_SLICES,
        doc_url,
        sliced_scroll_query,
    )
    from aarhus_ray.textnorm import tokenize

    got = sliced_scroll_query(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): set(tokenize(t))
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    assert set(got["slice_id"]) == set(range(SCROLL_SLICES))
    for qid, qtext in enumerate(FT_QUERIES):
        terms = set(qtext.split())
        match = {d for d, tk in toks.items() if terms & tk}
        sub = got[got.query_id == qid]
        assert sub["doc_id"].is_unique  # each doc in exactly one slice
        assert set(sub["doc_id"]) == match  # union == the match set
        for _, row in sub.head(10).iterrows():
            want = int(_hl.md5(doc_url(int(row["doc_id"])).encode()).hexdigest()[:16], 16) % SCROLL_SLICES
            assert int(row["slice_id"]) == want


def test_top_metrics_and_knn_radius():
    """top_metrics: sort/metric pairs equal a python recompute from the
    frozen ts rule + token counts; knn_radius: membership and order
    equal a numpy recompute on the rounded-cosine contract."""
    from aarhus_ray.functions.ann import knn_radius
    from aarhus_ray.functions.fulltext import (
        FT_QUERIES,
        TM_SIZE,
        doc_ts_us,
        top_metrics_query,
    )
    from aarhus_ray.textnorm import tokenize

    got = top_metrics_query(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): tokenize(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    for qid, qtext in enumerate(FT_QUERIES):
        terms = set(qtext.split())
        match = [d for d, tk in toks.items() if terms & set(tk)]
        order = sorted(match, key=lambda d: (-doc_ts_us(d), d))[:TM_SIZE]
        sub = got[got.query_id == qid]
        assert sub["sort_val"].tolist() == [doc_ts_us(d) for d in order]
        assert sub["metric_val"].tolist() == [len(toks[d]) for d in order]

    r = knn_radius(SF, threshold=0.2, vec_id=0)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = np.round(m @ m[ids == 0][0], 3)
    keep = sims >= 0.2
    order = np.lexsort((ids[keep], -sims[keep]))
    assert r["vec_id"].tolist() == ids[keep][order].tolist()
    assert r["cos"].tolist() == sims[keep][order].tolist()


def test_run_queries_empty_result_keeps_columns():
    """A ranking in which no query matches still carries the registry's
    (query_id int64, rank int32, doc_id int64) columns."""
    from aarhus_ray.functions.fulltext import _ensure_index, _run_queries

    got = _run_queries(_ensure_index(SF, fresh=False), ["zzznotinvocab"], 10, "or")
    assert got.empty
    assert got.dtypes.astype(str).to_dict() == {"query_id": "int64", "rank": "int32", "doc_id": "int64"}


def test_phrase_prefix_semantics():
    """phrase_prefix: (a) a single-expansion stem degenerates to plain
    phrase mode bit-identically ('slow sl' -> 'slow slow'); (b) full
    best-completion recompute from texts: doc matches iff some completed
    phrase occurs adjacently; score = fixed contrib + max matching
    completion contrib (via the brute scorer's own per-term scores)."""
    from aarhus_ray.functions import fulltext
    from aarhus_ray.functions.fulltext import _ensure_index, _run_queries
    from aarhus_ray.textnorm import tokenize

    index = _ensure_index(SF, fresh=False)
    deg = _run_queries(index, ["slow sl"], 10, "phrase_prefix")
    phr = _run_queries(index, ["slow slow"], 10, "phrase")
    assert deg["doc_id"].tolist() == phr["doc_id"].tolist()

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): tokenize(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    vocab = sorted({t for tk in toks.values() for t in tk})
    joined = {d: " " + " ".join(tk) + " " for d, tk in toks.items()}

    # per-(doc, term) contributions from the or-mode brute ranking of the
    # single term (score of a 1-term query IS that term's contribution)
    def contrib_map(term):
        sub = _run_queries_scores(index, term)
        return sub

    import pyarrow as pa

    from aarhus_ray.pipelines.query import query_index

    def _run_queries_scores(idx, term):
        q = pa.table({"query_id": pa.array([0], pa.int64()),
                      "text": pa.array([term], pa.string())})
        r = query_index(idx, q, k=10**6, method="brute", resolve_urls=True).to_pandas()
        r["doc_id"] = r["url"].map(fulltext.url_doc_id).astype("int64")
        return dict(zip(r["doc_id"], r["score"]))

    got = fulltext.bm25_topk_phrase_prefix(SF, k=10)
    for qid, (fixed, stem) in enumerate(fulltext.FT_PHRASE_PREFIX):
        exps = [v for v in vocab if v.startswith(stem)]
        fixed_c = contrib_map(fixed) if fixed else {}
        best = {}
        for e in exps:
            e_c = contrib_map(e)
            needle = f" {fixed} {e} " if fixed else f" {e} "
            for d, js in joined.items():
                if needle in js:
                    s = e_c[d]
                    if d not in best or s > best[d]:
                        best[d] = s
        want_scores = {d: (fixed_c[d] if fixed else 0.0) + s for d, s in best.items()}
        order = sorted(want_scores, key=lambda d: (-want_scores[d], d))[:10]
        page = got[got.query_id == qid]["doc_id"].tolist()
        assert page == order, f"query {qid}"


def test_cross_fields_blend_property():
    """cross_fields: on a single-term query the score IS the per-doc max
    of the weighted per-field scores, so the page must equal a ranking
    recomputed from the two indexes' PER-QUERY full rankings (an
    independent path — the engine combines per-term rankings)."""
    import pyarrow as pa

    from aarhus_ray.functions import fulltext
    from aarhus_ray.functions.fulltext import (
        FT_CROSS,
        W_BODY,
        W_TITLE,
        _ensure_index,
        _ensure_title_index,
        bm25_topk_cross_fields,
    )
    from aarhus_ray.pipelines.query import query_index

    got = bm25_topk_cross_fields(SF, k=10)
    body, title = _ensure_index(SF, fresh=False), _ensure_title_index(SF)
    qid = FT_CROSS.index("vector")
    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array(["vector"], pa.string())})

    def full(idx):
        r = query_index(idx, q, k=1 << 30, method="brute", resolve_urls=True).to_pandas()
        r["doc_id"] = r["url"].map(fulltext.url_doc_id).astype("int64")
        return dict(zip(r["doc_id"], r["score"]))

    fb, ft_ = full(body), full(title)
    docs = sorted(set(fb) | set(ft_))
    score = {d: max(W_TITLE * ft_.get(d, 0.0), W_BODY * fb.get(d, 0.0)) for d in docs}
    want = sorted(docs, key=lambda d: (-score[d], d))[:10]
    assert got[got.query_id == qid]["doc_id"].tolist() == want
    # the OOV+term query must rank by the in-vocab term alone (union, not AND)
    oov_qid = FT_CROSS.index("zzznotinvocab table")
    assert len(got[got.query_id == oov_qid]) == 10


def test_pinned_and_random_score_contracts():
    """pinned: promoted ids occupy ranks 1..p in given order (even
    non-matching ones — query 2's pin does not contain 'vector'), the
    organic tail is the or-mode page minus pins; random_score: the page
    is a deterministic md5-seeded shuffle of the match set, identical
    across reruns."""
    import hashlib as _hl

    from aarhus_ray.functions.fulltext import (
        FT_PINNED,
        FT_QUERIES,
        RS_SEED,
        _ensure_index,
        _run_queries,
        bm25_topk_pinned,
        doc_url,
        random_score_query,
    )
    from aarhus_ray.textnorm import tokenize

    got = bm25_topk_pinned(SF, k=10)
    index = _ensure_index(SF, fresh=False)
    organic = _run_queries(index, FT_QUERIES, 12, "or")
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): set(tokenize(t))
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    for qid, pins in enumerate(FT_PINNED):
        page = got[got.query_id == qid]["doc_id"].tolist()
        assert page[: len(pins)] == list(pins)
        tail = [d for d in organic[organic.query_id == qid]["doc_id"] if d not in pins]
        assert page[len(pins) :] == tail[: 10 - len(pins)]
    # the non-matching pin really does not match
    assert "vector" not in toks[FT_PINNED[2][0]]

    r1 = random_score_query(SF, k=10)
    r2 = random_score_query(SF, k=10)
    assert r1.values.tolist() == r2.values.tolist()  # reproducible shuffle
    for qid, qtext in enumerate(FT_QUERIES):
        terms = set(qtext.split())
        match = {d for d, tk in toks.items() if terms & tk}
        page = r1[r1.query_id == qid]["doc_id"].tolist()
        assert set(page) <= match
        want = sorted(
            match,
            key=lambda d: (
                -int(_hl.md5(f"{RS_SEED}:{doc_url(d)}".encode()).hexdigest()[:16], 16),
                d,
            ),
        )[:10]
        assert page == want


def test_moving_window_short_series():
    """Series no longer than the window/lag: mov_sum degenerates to the
    running total and sdiff to n itself (the partial-window head rule) —
    exercised by collapsing every doclen into one bucket (a negative
    numpy slice here used to keep elements instead of dropping all)."""
    import pyarrow as pa

    from aarhus_ray.functions.fulltext import FT_QUERIES, _ensure_index
    from aarhus_ray.pipelines.query import moving_window_agg

    index = _ensure_index(SF, fresh=False)
    queries = pa.table(
        {
            "query_id": pa.array(range(len(FT_QUERIES)), pa.int64()),
            "text": pa.array(list(FT_QUERIES), pa.string()),
        }
    )
    out = moving_window_agg(index, queries, interval=10**9).to_pandas()
    assert len(out)  # every matching query collapses to one bucket
    assert (out.groupby("query_id").size() == 1).all()
    assert out["mov_sum"].tolist() == out["n_docs"].tolist()
    assert out["sdiff"].tolist() == out["n_docs"].tolist()


def test_paragraph_dups_and_contamination():
    """paragraph_dup_spans == a python recompute (md5 of 32-token
    windows, flagged when >= 2 DISTINCT docs share a hash);
    contamination_flags == a substring recompute, every probe hits its
    own source doc, and probe 0 (lifted from a shared chunk) hits >= 2
    docs — a real cross-doc leak."""
    import hashlib as _hl

    from aarhus_ray.functions.dedup import CHUNK_TOKENS, paragraph_dup_spans
    from aarhus_ray.functions.textstats import (
        CONTAM_PROBES,
        contamination_flags,
    )
    from aarhus_ray.textnorm import tokenize

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        int(d): tokenize(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    by_hash: dict[str, list[tuple[int, int]]] = {}
    for d, tk in toks.items():
        for ci in range((len(tk) + CHUNK_TOKENS - 1) // CHUNK_TOKENS):
            h = _hl.md5(" ".join(tk[ci * CHUNK_TOKENS : (ci + 1) * CHUNK_TOKENS]).encode()).hexdigest()
            by_hash.setdefault(h, []).append((d, ci))
    want = sorted(
        {span for spans in by_hash.values() if len({d for d, _ in spans}) >= 2 for span in spans}
    )
    got = paragraph_dup_spans(SF)
    assert list(map(tuple, got.values.tolist())) == want
    assert want, "the planted near-dups must share chunks"

    flags = contamination_flags(SF)
    joined = {d: " " + " ".join(tk) + " " for d, tk in toks.items()}
    for pidx, src, start, length in CONTAM_PROBES:
        p = " ".join(toks[src][start - 1 : start - 1 + length])
        hits = sorted(d for d, js in joined.items() if f" {p} " in js)
        sub = flags[flags.probe_idx == pidx]["doc_id"].tolist()
        assert sub == hits, f"probe {pidx}"
        assert src in sub  # self-hit guaranteed
    assert len(flags[flags.probe_idx == 0]) >= 2  # the cross-doc leak


def test_cc_min_labels_and_dup_clusters():
    """_cc_min_labels: a 4-chain + a triangle-ish component resolve to the
    min reachable id in O(diameter) propagation rounds; dup_clusters over
    the corpus agrees with a union-find recompute of minhash_lsh_pairs."""
    import pandas as pd

    from aarhus_ray.functions.dedup import _cc_min_labels, dup_clusters, minhash_lsh_pairs

    pairs = pd.DataFrame({"doc_a": [0, 1, 2, 10, 30], "doc_b": [1, 2, 3, 11, 10]})
    got = _cc_min_labels(pairs)
    assert dict(zip(got["doc_id"], got["cluster_id"])) == {
        0: 0, 1: 0, 2: 0, 3: 0, 10: 10, 11: 10, 30: 10,
    }
    assert _cc_min_labels(pairs.iloc[0:0]).empty

    clusters = dup_clusters(SF)
    edges = minhash_lsh_pairs(SF)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges.values.tolist():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = sorted((d, find(d)) for d in parent)
    assert list(map(tuple, clusters.values.tolist())) == want
    assert len(clusters), "planted near-dups must form clusters"


def test_source_stats_and_cap_match_pandas():
    """source_stats == a pandas groupby recompute; source_cap keeps the K
    longest docs per source (ties by doc_id) and never exceeds K."""
    import pandas as pd

    from aarhus_ray.functions.cleaning import SOURCE_CAP_K, source_cap
    from aarhus_ray.functions.textstats import source_stats
    from aarhus_ray.textnorm import tokenize

    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    docs["n_tokens"] = [len(tokenize(t)) for t in docs["text"]]
    want = (
        docs.groupby("source")
        .agg(n_docs=("doc_id", "size"), sum_chars=("n_chars", "sum"),
             max_chars=("n_chars", "max"), sum_tokens=("n_tokens", "sum"))
        .reset_index()
        .sort_values("source")
        .reset_index(drop=True)
    )
    got = source_stats(SF)
    pd.testing.assert_frame_equal(got, want.astype({c: "int64" for c in want.columns[1:]}))

    capped = source_cap(SF)
    want_cap = (
        docs.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        .groupby("source", sort=False)
        .head(SOURCE_CAP_K)
        .sort_values("doc_id")[["doc_id", "source", "n_chars"]]
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(capped, want_cap)
    assert capped.groupby("source").size().max() <= SOURCE_CAP_K


def test_pii_scrub_counts_and_redaction():
    """pii_scrub == a python-re recompute of the same augmentation +
    redaction chain; planted docs carry the expected minimum counts."""
    import hashlib as _hl
    import re

    from aarhus_ray.functions.textstats import (
        PII_EMAIL_RE,
        PII_IP_RE,
        PII_PHONE_RE,
        PII_PLANTS,
        pii_scrub,
    )

    got = pii_scrub(SF).set_index("doc_id")
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        for mod, plant in PII_PLANTS:
            if d % mod == 0:
                t += plant
        n_email = len(re.findall(PII_EMAIL_RE, t))
        t = re.sub(PII_EMAIL_RE, "<EMAIL>", t)
        n_phone = len(re.findall(PII_PHONE_RE, t))
        t = re.sub(PII_PHONE_RE, "<PHONE>", t)
        n_ip = len(re.findall(PII_IP_RE, t))
        t = re.sub(PII_IP_RE, "<IP>", t)
        row = got.loc[d]
        assert (row["n_email"], row["n_phone"], row["n_ip"]) == (n_email, n_phone, n_ip), d
        assert row["red_fp"] == _hl.md5(t.encode()).hexdigest(), d
        if d % 7 == 0:
            assert row["n_email"] >= 2 and "<EMAIL>" in t
        if d % 11 == 0:
            assert row["n_phone"] >= 1
        if d % 13 == 0:
            assert row["n_ip"] >= 2


def test_repetition_signals_match_python_recompute():
    """repetition_signals == a Counter-based recompute over gram STRINGS
    (the engine counts 64-bit gram hashes; any mismatch would surface a
    collision or a fold bug)."""
    from collections import Counter

    from aarhus_ray.functions.textstats import repetition_signals
    from aarhus_ray.textnorm import tokenize

    got = repetition_signals(SF).set_index("doc_id")
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    saw_repeat = False
    for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        toks = tokenize(t)
        bi = Counter(zip(toks, toks[1:]))
        tri = Counter(zip(toks, toks[1:], toks[2:]))
        row = got.loc[d]
        assert row["n_bigrams"] == sum(bi.values())
        assert row["top_bigram_n"] == (max(bi.values()) if bi else 0)
        assert row["dup_trigram_pos"] == sum(c for c in tri.values() if c >= 2)
        saw_repeat |= bool(bi) and max(bi.values()) >= 2
    assert saw_repeat, "corpus should contain at least one repeated bigram"


def test_terms_agg_error_bound_is_sound():
    """The ES doc_count_error_upper_bound contract: for every reported
    term, received_sum <= true_count <= received_sum + bound (the bound
    covers exactly the shards that truncated the term away), and a term
    reported by ALL truncated+untruncated shards has bound 0 only if no
    truncated shard missed it."""
    import duckdb

    from aarhus_ray.functions.textstats import terms_agg_error_bounds

    out = terms_agg_error_bounds(SF)
    con = duckdb.connect()
    true = dict(
        con.execute(
            f"SELECT lang, count(*) FROM '{SF}/documents.parquet' GROUP BY 1"
        ).fetchall()
    )
    assert len(out) > 0
    for r in out.itertuples():
        assert r.doc_count <= true[r.lang] <= r.doc_count + r.doc_count_error_upper_bound


def test_cdc_chunking_shift_resistant_and_tiling():
    """The CDC kernel's two load-bearing properties. (1) Tiling: chunks
    cover each doc exactly, starts are 1-based contiguous. (2) Shift
    resistance — the property fixed windows lack: after a one-char prefix
    insertion every boundary past the first window re-aligns (the
    predicate is content-local), so ALL chunks except the first carry
    identical hashes at +1 offsets."""
    import numpy as np
    import pyarrow as pa

    from aarhus_ray.functions.dedup import _cdc_chunk_rows

    rng = np.random.default_rng(7)
    base = " ".join("".join(rng.choice(list("abcdefghijklmnop"), 5)) for _ in range(400))
    shifted = "X" + base
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array([base, shifted])})
    rows = _cdc_chunk_rows(t).to_pandas()
    g1 = rows[rows.doc_id == 1].sort_values("start").reset_index(drop=True)
    g2 = rows[rows.doc_id == 2].sort_values("start").reset_index(drop=True)
    for g, text in ((g1, base), (g2, shifted)):
        assert g["start"].iloc[0] == 1
        assert (g["start"] + g["chunk_len"]).iloc[:-1].tolist() == g["start"].iloc[1:].tolist()
        assert int(g["chunk_len"].sum()) == len(text)
    # every chunk but the first re-aligns: identical hash, start shifted +1
    assert g1["h"].iloc[1:].tolist() == g2["h"].iloc[1:].tolist()
    assert (g1["start"].iloc[1:] + 1).tolist() == g2["start"].iloc[1:].tolist()
    # short-doc edge: below the window size the whole doc is one chunk
    short = _cdc_chunk_rows(
        pa.table({"doc_id": pa.array([9], pa.int64()), "text": pa.array(["abc"])})
    ).to_pandas()
    assert len(short) == 1 and int(short["chunk_len"].iloc[0]) == 3


def test_substring_dup_spans_match_python_recompute():
    """substring_dup_spans == a dict-based recompute over window STRINGS
    (stride-1 16-token windows, cross-doc rule, maximal-span merge)."""
    from aarhus_ray.functions.dedup import SUBSTR_WINDOW, substring_dup_spans
    from aarhus_ray.textnorm import tokenize

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    by_win: dict[str, list[tuple[int, int]]] = {}
    for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        toks = tokenize(t)
        for i in range(len(toks) - SUBSTR_WINDOW + 1):
            by_win.setdefault(" ".join(toks[i : i + SUBSTR_WINDOW]), []).append((d, i))
    flagged: dict[int, set[int]] = {}
    for spans in by_win.values():
        if len({d for d, _ in spans}) >= 2:
            for d, i in spans:
                flagged.setdefault(d, set()).add(i)
    want = []
    for d in sorted(flagged):
        ps = sorted(flagged[d])
        start = prev = ps[0]
        for p in ps[1:] + [None]:
            if p is None or p != prev + 1:
                want.append((d, start, prev, prev - start + 1))
                if p is not None:
                    start = p
            prev = p if p is not None else prev
    got = substring_dup_spans(SF)
    assert list(map(tuple, got.values.tolist())) == want
    assert want, "planted near-dups must share 16-token substrings"


def test_span_dedup_bloom_path_matches_exact_path(monkeypatch):
    """Forcing the Bloom hot-key degrade (threshold 0) must leave both
    span-dedup outputs identical to the exact is_in broadcast path — Bloom
    false positives are absorbed by the distinct-docs reducers."""
    from aarhus_ray.functions import dedup

    exact_sub = dedup.substring_dup_spans(SF)
    exact_par = dedup.paragraph_dup_spans(SF)
    assert len(exact_sub) and len(exact_par)
    monkeypatch.setattr(dedup, "SPAN_HOT_BLOOM_THRESHOLD", 0)
    bloom_sub = dedup.substring_dup_spans(SF)
    bloom_par = dedup.paragraph_dup_spans(SF)
    pd.testing.assert_frame_equal(bloom_sub, exact_sub)
    pd.testing.assert_frame_equal(bloom_par, exact_par)


def test_bpe_merges_match_sequential():
    """learn_merges == a from-scratch sequential BPE (Sennrich et al.
    2016: get_stats over the word-frequency table, lexicographic
    tie-break, lookaround-regex merge)."""
    import re
    from collections import Counter

    from aarhus_ray.functions.bpe import N_MERGES, learn_merges
    from aarhus_ray.textnorm import tokenize

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    wc = Counter(w for t in docs["text"].to_pylist() for w in tokenize(t))
    vocab = {" ".join(w): n for w, n in wc.items()}
    want = []
    for i in range(N_MERGES):
        stats = Counter()
        for seq, n in vocab.items():
            syms = seq.split(" ")
            for l, r in zip(syms, syms[1:]):
                stats[(l, r)] += n
        if not stats:
            break
        (l, r), n = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))
        want.append((i, l, r, n))
        pat = re.compile(r"(?<!\S)" + re.escape(f"{l} {r}") + r"(?!\S)")
        vocab = {pat.sub(l + r, seq): m for seq, m in vocab.items()}
    got = learn_merges(SF)
    assert list(map(tuple, got.values.tolist())) == want
    assert len(want) == N_MERGES
    # merges must build multi-char symbols (later merges chain earlier ones)
    assert any(len(l) > 1 or len(r) > 1 for _, l, r, _ in want)


def test_gopher_filter_rules():
    """gopher_filter == a rule-by-rule recompute in the frozen order; at
    least one doc must fail a rule (the corpus has sub-10-token docs) and
    keep == (reason == '') everywhere."""
    from collections import Counter

    from aarhus_ray.functions.cleaning import (
        GOPHER_DUP_TRIGRAM_X,
        GOPHER_MAX_TOKENS,
        GOPHER_MIN_STOPWORDS,
        GOPHER_MIN_TOKENS,
        GOPHER_TOP_BIGRAM_X,
        gopher_filter,
    )
    from aarhus_ray.functions.textstats import STOPWORDS_EN
    from aarhus_ray.textnorm import tokenize

    got = gopher_filter(SF).set_index("doc_id")
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang", "text"])
    dropped = 0
    for d, lang, t in zip(
        docs["doc_id"].to_pylist(), docs["lang"].to_pylist(), docs["text"].to_pylist()
    ):
        toks = tokenize(t)
        bi = Counter(zip(toks, toks[1:]))
        tri = Counter(zip(toks, toks[1:], toks[2:]))
        n_stop = sum(1 for w in toks if w in STOPWORDS_EN)
        reason = ""
        if len(toks) < GOPHER_MIN_TOKENS:
            reason = "too_short"
        elif len(toks) > GOPHER_MAX_TOKENS:
            reason = "too_long"
        elif bi and max(bi.values()) * GOPHER_TOP_BIGRAM_X > sum(bi.values()):
            reason = "bigram_repetition"
        elif sum(c for c in tri.values() if c >= 2) * GOPHER_DUP_TRIGRAM_X > max(len(toks) - 2, 0):
            reason = "trigram_repetition"
        elif lang == "en" and n_stop < GOPHER_MIN_STOPWORDS:
            reason = "few_stopwords"
        row = got.loc[d]
        assert (bool(row["keep"]), row["reason"]) == (reason == "", reason), d
        dropped += reason != ""
    assert dropped, "corpus must exercise at least one failing rule"


def test_kmeans_matches_numpy_lloyd():
    """kmeans == a sequential numpy Lloyd recompute with the same frozen
    recipe (k smallest vec_ids init, first-wins argmin, empty keeps
    previous, float64 accumulation); counts exact, centroids within one
    rounding ulp."""
    from aarhus_ray.functions.ann import KMEANS_ITERS, KMEANS_K, kmeans

    tbl = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    vec_ids = tbl["vec_id"].to_numpy(zero_copy_only=False)
    m = np.stack([np.asarray(e.as_py(), dtype=np.float64) for e in tbl["embedding"]])
    cents = m[np.argsort(vec_ids)[:KMEANS_K]].copy()
    n = np.zeros(KMEANS_K, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        d2 = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d2, axis=1)
        n = np.bincount(a, minlength=KMEANS_K)
        for cid in range(KMEANS_K):
            if n[cid] > 0:
                cents[cid] = m[a == cid].mean(axis=0)
    got = kmeans(SF)
    assert got["n_vecs"].to_numpy()[:: m.shape[1]].tolist() == n.tolist()
    want = np.round(cents.ravel(), 4)
    assert np.abs(got["c"].to_numpy() - want).max() <= 1e-4
    assert len(got) == KMEANS_K * m.shape[1]
    assert n.sum() == len(m) and (n > 0).all()


def test_length_histogram_dense_and_exact():
    from collections import Counter

    from aarhus_ray.functions.textstats import LENGTH_BUCKET, length_histogram
    from aarhus_ray.textnorm import tokenize

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    want = Counter(len(tokenize(t)) // LENGTH_BUCKET for t in docs["text"].to_pylist())
    got = length_histogram(SF)
    assert got["bucket"].tolist() == list(range(max(want) + 1))  # dense
    assert got["n"].sum() == docs.num_rows
    for _, r in got.iterrows():
        assert r["n"] == want.get(r["bucket"], 0) and r["lo"] == r["bucket"] * LENGTH_BUCKET


def test_dedup_survivors_cc_keeps_one_per_component():
    from aarhus_ray.functions.dedup import dedup_survivors_cc, dup_clusters

    surv = set(dedup_survivors_cc(SF)["doc_id"])
    clusters = dup_clusters(SF)
    docs = set(pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])["doc_id"].to_pylist())
    losers = {int(d) for d, c in zip(clusters["doc_id"], clusters["cluster_id"]) if d != c}
    assert surv == docs - losers
    # exactly one survivor per component: its min
    for cid, g in clusters.groupby("cluster_id"):
        members = set(g["doc_id"])
        assert surv & members == {min(members)}


def test_retention_cohorts_match_pandas_replay():
    from aarhus_ray.functions.windows import events_retention_cohorts

    out = events_retention_cohorts(SF)
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    day = df["ts"].to_numpy().astype("datetime64[D]")
    pairs = pd.DataFrame({"user_id": df["user_id"], "day": day}).drop_duplicates()
    cohort = pairs.groupby("user_id")["day"].min().rename("cohort_day")
    j = pairs.join(cohort, on="user_id")
    j["offset_days"] = (j["day"] - j["cohort_day"]).dt.days
    want = (
        j.groupby(["cohort_day", "offset_days"])
        .size()
        .rename("n_users")
        .reset_index()
        .sort_values(["cohort_day", "offset_days"])
        .reset_index(drop=True)
    )
    assert out["offset_days"].tolist() == want["offset_days"].tolist()
    assert out["n_users"].tolist() == want["n_users"].tolist()
    assert (
        out["cohort_day"].to_numpy().astype("datetime64[D]")
        == want["cohort_day"].to_numpy().astype("datetime64[D]")
    ).all()
    # offset 0 of each cohort counts the whole cohort (every user is
    # active on their own first day)
    o0 = out[out["offset_days"] == 0].set_index("cohort_day")["n_users"]
    sizes = cohort.value_counts()
    assert all(int(o0[d]) == int(sizes[d]) for d in o0.index)


def test_user_paths_match_pandas_replay():
    from aarhus_ray.functions.windows import PATH_LEN, PATH_TOP_K, events_user_paths

    out = events_user_paths(SF)
    df = pq.read_table(f"{SF}/events.parquet").to_pandas()
    paths = (
        df.sort_values(["ts", "event_id"])
        .groupby("user_id")["event_type"]
        .apply(lambda s: ">".join(s.head(PATH_LEN)))
    )
    cnt = paths.value_counts().rename("n_users").reset_index()
    cnt.columns = ["path", "n_users"]
    cnt = cnt.sort_values(["n_users", "path"], ascending=[False, True]).head(PATH_TOP_K)
    assert out["path"].tolist() == cnt["path"].tolist()
    assert out["n_users"].tolist() == cnt["n_users"].tolist()
    assert out["rank"].tolist() == list(range(1, len(out) + 1))


def test_q18_matches_pandas_replay():
    from aarhus_ray.functions.relational import Q18_QTY_CENTS, q18_large_volume_customers

    out = q18_large_volume_customers(SF)
    li = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    li["qc"] = np.round(li["l_quantity"].to_numpy() * 100.0).astype(np.int64)
    big = li.groupby("l_orderkey")["qc"].sum()
    big = big[big > Q18_QTY_CENTS]
    assert len(big) > 0  # the fixture must exercise the HAVING tail
    od = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    cu = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    j = od[od["o_orderkey"].isin(big.index)].merge(
        cu[["c_custkey", "c_name"]], left_on="o_custkey", right_on="c_custkey"
    )
    j["total_price_cents"] = np.round(j["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
    j["sum_qty_cents"] = big.loc[j["o_orderkey"]].to_numpy()
    want = j.sort_values(
        ["total_price_cents", "o_orderdate", "o_orderkey"], ascending=[False, True, True]
    ).head(100)
    assert out["o_orderkey"].tolist() == want["o_orderkey"].tolist()
    assert out["c_name"].tolist() == want["c_name"].tolist()
    assert out["total_price_cents"].tolist() == want["total_price_cents"].tolist()
    assert out["sum_qty_cents"].tolist() == want["sum_qty_cents"].tolist()


def test_chunk_overlap_covers_and_reassembles():
    import hashlib

    from aarhus_ray.functions.textstats import CHUNK_S, CHUNK_W, chunk_overlap

    out = chunk_overlap(SF)
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    by_doc = dict(zip(docs["doc_id"], docs["text"]))
    assert set(out["doc_id"]) == set(by_doc)  # every doc chunked
    for did, g in out.groupby("doc_id"):
        t = by_doc[did]
        # starts are the exact stride grid below n_chars
        assert g["start_c"].tolist() == list(range(0, len(t), CHUNK_S))
        for _, r in g.iterrows():
            chunk = t[r["start_c"] : r["start_c"] + CHUNK_W]
            assert r["chunk_len"] == len(chunk)
            assert r["chunk_md5"] == hashlib.md5(chunk.encode()).hexdigest()[:8]
        # full-width chunks overlap the next start by exactly w - s
        ends = g["start_c"].to_numpy() + g["chunk_len"].to_numpy()
        full = g["chunk_len"].to_numpy()[:-1] == CHUNK_W
        assert (
            (ends[:-1] - g["start_c"].to_numpy()[1:])[full] == CHUNK_W - CHUNK_S
        ).all()
        assert ends.max() == len(t)  # coverage reaches the end of the doc


def test_semdedup_matches_full_replay():
    from aarhus_ray.functions.dedup import SEMDEDUP_TAU, semdedup_drops

    out = semdedup_drops(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    want = []
    for label, g in t.groupby("label"):
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy()
        m = np.array(g["embedding"].tolist(), dtype=np.float64)
        cen = m.mean(axis=0)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        cs = mn @ (cen / np.linalg.norm(cen))
        cos = mn @ mn.T
        np.fill_diagonal(cos, -np.inf)
        for vi in range(len(ids)):
            beat = (cos[:, vi] > SEMDEDUP_TAU) & (
                (cs < cs[vi]) | ((cs == cs[vi]) & (ids < ids[vi]))
            )
            if beat.any():
                want.append((int(ids[vi]), int(label)))
    want.sort()
    assert list(map(tuple, out.values.tolist())) == want
    assert len(out) > 0  # tau must sit inside the corpus's similarity mass
    # the keeper of every dropped vector survives: for each cluster at
    # least one member of every near-dup pair remains
    dropped = set(out["vec_id"])
    assert len(dropped) < len(t)


def test_ccnet_buckets_terciles_match_recompute():
    from aarhus_ray.functions.textstats import ccnet_buckets, unigram_nll

    out = ccnet_buckets(SF)
    nll = unigram_nll(SF).set_index("doc_id")["nll_milli"]
    assert out["doc_id"].tolist() == sorted(nll.index.tolist())
    assert (out.set_index("doc_id")["nll_milli"] == nll).all()
    v = np.sort(nll.to_numpy())
    n = len(v)
    t1, t2 = int(v[(n - 1) // 3]), int(v[2 * (n - 1) // 3])
    want = np.where(
        out["nll_milli"] <= t1, "head", np.where(out["nll_milli"] <= t2, "middle", "tail")
    )
    assert out["bucket"].tolist() == want.tolist()
    # bucket-by-VALUE: ties on a threshold all land on the low side, so
    # every head score < every middle score < every tail score
    bs = out.groupby("bucket")["nll_milli"]
    assert bs.max()["head"] < bs.min()["middle"] <= bs.max()["middle"] < bs.min()["tail"]


def test_heavy_hitters_mg_exact_topk():
    import duckdb

    from aarhus_ray.functions.sketches import heavy_hitters_mg

    con = duckdb.connect()
    want = con.execute(
        f"""SELECT props, CAST(count(*) AS BIGINT) AS n_rows
            FROM '{SF}/events.parquet' GROUP BY 1
            ORDER BY n_rows DESC, props LIMIT 10"""
    ).fetchdf()
    out = heavy_hitters_mg(SF)
    assert out["rank"].tolist() == list(range(1, len(want) + 1))
    assert out["props"].tolist() == want["props"].tolist()
    assert out["n_rows"].tolist() == want["n_rows"].tolist()
    # adversarial k: with only 2 MG counters the frequency guarantee
    # cannot cover top-10, so the exact-fallback path must fire — and the
    # result must STILL be the exact top-k
    out2 = heavy_hitters_mg(SF, k=2, top=10)
    assert out2["props"].tolist() == want["props"].tolist()
    assert out2["n_rows"].tolist() == want["n_rows"].tolist()


def test_vocab_growth_matches_recompute():
    from aarhus_ray.functions.fulltext import doc_ts_us
    from aarhus_ray.functions.textstats import VG_BUCKET_US, vocab_growth
    from aarhus_ray.textnorm import tokenize

    out = vocab_growth(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    first = {}
    for d, t in zip(docs["doc_id"], docs["text"]):
        b = doc_ts_us(int(d)) // VG_BUCKET_US
        ts = tokenize(t)
        for g in {f"{x} {y}" for x, y in zip(ts, ts[1:])}:
            first[g] = min(first.get(g, b), b)
    import collections

    nb = collections.Counter(first.values())
    want = sorted(nb.items())
    assert list(zip(out["bucket"], out["new_grams"])) == want
    assert out["cum_grams"].tolist() == list(np.cumsum([n for _, n in want]))


def test_events_t_test_matches_numpy():
    from aarhus_ray.functions.windows import events_t_test

    out = events_t_test(SF)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_type", "value"]).to_pandas()
    res = {}
    for t in ("purchase", "error"):
        x = np.floor(ev.loc[ev["event_type"] == t, "value"].to_numpy() * 100).astype(np.int64)
        res[t] = (len(x), x.mean(), x.var(ddof=1))
    (na, ma, va), (nb, mb, vb) = res["purchase"], res["error"]
    se2a, se2b = va / na, vb / nb
    t_stat = (ma - mb) / np.sqrt(se2a + se2b)
    df = (se2a + se2b) ** 2 / (se2a**2 / (na - 1) + se2b**2 / (nb - 1))
    row = out.iloc[0]
    assert (int(row["n_a"]), int(row["n_b"])) == (na, nb)
    assert abs(row["t"] - t_stat) < 1e-6
    assert abs(row["df"] - df) < 1e-6


def test_frequent_itemsets_matches_pandas():
    import itertools

    from aarhus_ray.functions.windows import FIS_DAY_US, FIS_MIN_SUPPORT, events_frequent_itemsets

    out = events_frequent_itemsets(SF)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "ts", "event_type"]).to_pandas()
    ev["day"] = ev["ts"].astype("datetime64[us]").astype("int64") // FIS_DAY_US
    baskets = ev.groupby(["user_id", "day"])["event_type"].agg(lambda s: frozenset(s))
    alphabet = sorted(set(ev["event_type"]))
    want = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(alphabet, size):
            sup = int(sum(1 for b in baskets if set(combo) <= b))
            if sup >= FIS_MIN_SUPPORT:
                want.append(("+".join(combo), size, sup))
    want.sort(key=lambda r: (r[1], -r[2], r[0]))
    assert [tuple(r) for r in out.itertuples(index=False)] == want


def test_field_caps_matches_pyarrow():
    import pyarrow.compute as pc

    from aarhus_ray.functions.fulltext import FC_FIELDS, field_caps_query

    out = field_caps_query(SF).set_index("field")
    t = pq.read_table(f"{SF}/documents.parquet")
    for f in FC_FIELDS:
        mm = pc.min_max(t[f])
        assert out.loc[f, "n_non_null"] == len(t) - t[f].null_count
        assert out.loc[f, "min_v"] == str(mm["min"].as_py())
        assert out.loc[f, "max_v"] == str(mm["max"].as_py())
        assert out.loc[f, "type"] == str(t.schema.field(f).type)


def test_tpch_q4_q7_q15_q19_match_duckdb():
    import duckdb

    from aarhus_ray.functions import relational as r

    con = duckdb.connect()
    L, O, S, P = (f"'{SF}/{t}.parquet'" for t in ("lineitem", "orders", "supplier", "part"))
    # Q4: EXISTS semi-join counts per priority
    q4 = r.q4_order_priority_exists(SF)
    want4 = con.execute(f"""
        SELECT o_orderpriority, count(*) AS n FROM {O}
        WHERE o_orderdate >= TIMESTAMP '{r.Q4_LO}' AND o_orderdate < TIMESTAMP '{r.Q4_HI}'
          AND o_orderkey IN (SELECT l_orderkey FROM {L} WHERE l_returnflag = 'R')
        GROUP BY 1 ORDER BY 1""").fetchdf()
    assert q4["o_orderpriority"].tolist() == want4["o_orderpriority"].tolist()
    assert q4["order_count"].tolist() == want4["n"].tolist()
    # Q15: top supplier by quarterly revenue
    q15 = r.q15_top_supplier(SF)
    want15 = con.execute(f"""
        WITH rev AS (SELECT l_suppkey, SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                       * (100 - CAST(round(l_discount*100) AS BIGINT))) AS t
                     FROM {L} WHERE l_shipdate >= TIMESTAMP '{r.Q15_LO}'
                       AND l_shipdate < TIMESTAMP '{r.Q15_HI}' GROUP BY 1)
        SELECT l_suppkey, CAST(t AS BIGINT) AS t FROM rev
        WHERE t = (SELECT max(t) FROM rev) ORDER BY 1""").fetchdf()
    assert q15["s_suppkey"].tolist() == want15["l_suppkey"].tolist()
    assert q15["total_revenue_e4"].tolist() == want15["t"].tolist()
    # Q19: disjunctive OR-of-ANDs revenue
    q19 = r.q19_discounted_revenue(SF)
    ors = " OR ".join(
        f"(p_brand = '{b}' AND p_size BETWEEN 1 AND {sm} "
        f"AND CAST(round(l_quantity*100) AS BIGINT) BETWEEN {ql*100} AND {qh*100})"
        for b, sm, ql, qh in r.Q19_PREDS
    )
    want19 = con.execute(f"""
        SELECT CAST(COALESCE(SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                 * (100 - CAST(round(l_discount*100) AS BIGINT))), 0) AS BIGINT) AS rev,
               count(*) AS n
        FROM {L} JOIN {P} ON l_partkey = p_partkey WHERE {ors}""").fetchdf()
    assert int(q19["revenue_e4"].iloc[0]) == int(want19["rev"].iloc[0])
    assert int(q19["n_lines"].iloc[0]) == int(want19["n"].iloc[0])
    # Q7 at sf0.001 is legitimately EMPTY (no cross flows between the two
    # nations in the tiny sample) — the empty-group contract holds, and
    # the schema stays string-typed
    q7 = r.q7_volume_shipping(SF)
    n7 = con.execute(f"""
        SELECT count(*) FROM (
          SELECT year(l_shipdate) FROM {L}
          JOIN {O} ON l_orderkey = o_orderkey
          JOIN '{SF}/customer.parquet' ON o_custkey = c_custkey
          JOIN {S} ON l_suppkey = s_suppkey
          JOIN '{SF}/nation.parquet' sn ON s_nationkey = sn.n_nationkey
          JOIN '{SF}/nation.parquet' cn ON c_nationkey = cn.n_nationkey
          WHERE ((sn.n_name = '{r.Q7_NATION_A}' AND cn.n_name = '{r.Q7_NATION_B}')
              OR (sn.n_name = '{r.Q7_NATION_B}' AND cn.n_name = '{r.Q7_NATION_A}'))
            AND l_shipdate >= TIMESTAMP '{r.Q7_LO}' AND l_shipdate < TIMESTAMP '{r.Q7_HI}'
          GROUP BY 1)""").fetchone()[0]
    assert len(q7) == n7
    assert q7["supp_nation"].dtype == object


def test_geo_point_exact_at_huge_event_ids():
    """The docvalue recipe must stay int64-exact (no silent numpy wrap) at
    10^12-row-scale event_ids — reduced-mod form vs Python big-int truth."""
    from aarhus_ray.functions import geo

    ids = np.array([0, 1, 3_500_000_000, 10**12, 2**62 - 1], dtype=np.int64)
    lat_u, lon_u = geo.geo_point_u(ids)
    for i, eid in enumerate(int(x) for x in ids):
        assert lat_u[i] == (eid * geo.GEO_LAT_MULT) % geo.GEO_LAT_MOD - 85_000_000
        assert lon_u[i] == (eid * geo.GEO_LON_MULT) % geo.GEO_LON_MOD - 180_000_000


def test_geo_family_matches_recompute():
    from aarhus_ray.functions import geo

    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_id", "event_type", "value"]).to_pandas()
    lat_u, lon_u = geo.geo_point_u(ev["event_id"].to_numpy())
    assert lat_u.min() >= -85_000_000 and lat_u.max() <= 85_000_000
    assert lon_u.min() >= -180_000_000 and lon_u.max() < 180_000_000
    # bounds
    b = geo.geo_bounds(SF).set_index("event_type")
    df = pd.DataFrame({"t": ev["event_type"], "lat": lat_u, "lon": lon_u})
    for t, g in df.groupby("t"):
        assert b.loc[t, "min_lat_u"] == g["lat"].min()
        assert b.loc[t, "max_lon_u"] == g["lon"].max()
    # grid: pure-integer tiling, frozen tie-break
    n = 1 << geo.GRID_ZOOM
    tx = (lon_u + 180_000_000) * n // geo.GEO_LON_MOD
    ty = (lat_u + 85_000_000) * n // geo.GEO_LAT_MOD
    cnt = pd.DataFrame({"tile_x": tx, "tile_y": ty}).groupby(["tile_x", "tile_y"]).size()
    want = cnt.reset_index(name="n_events").sort_values(
        ["n_events", "tile_x", "tile_y"], ascending=[False, True, True]
    ).head(geo.GRID_TOP)
    out = geo.geo_grid(SF)
    assert out.values.tolist() == want.values.tolist()
    # distance: haversine rollup
    lat, lon = lat_u / 1e6, lon_u / 1e6
    dist = 2 * geo.EARTH_R_M * np.arcsin(np.sqrt(
        np.sin(np.radians(lat - geo.GD_LAT) / 2) ** 2
        + np.cos(np.radians(geo.GD_LAT)) * np.cos(np.radians(lat))
        * np.sin(np.radians(lon - geo.GD_LON) / 2) ** 2))
    keep = dist <= geo.GD_RADIUS_M
    d = geo.geo_distance(SF).set_index("event_type")
    sub = ev[keep]
    for t, g in sub.groupby("event_type"):
        assert d.loc[t, "n_within"] == len(g)
        assert d.loc[t, "sum_value_c"] == int(np.floor(g["value"].to_numpy() * 100).sum())


def test_maxsim_matches_numpy_replay():
    from aarhus_ray.functions.ann import MAXSIM_QUERY_IDS, maxsim_scores

    out = maxsim_scores(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    E = np.array(t["embedding"].tolist(), dtype=np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    ids = t["vec_id"].to_numpy()
    Q = En[[int(np.flatnonzero(ids == q)[0]) for q in MAXSIM_QUERY_IDS]]
    cos = En @ Q.T
    want = {}
    for lbl, g in pd.DataFrame({"label": t["label"].astype(int)}).groupby("label"):
        want[int(lbl)] = round(float(cos[g.index.to_numpy()].max(axis=0).sum()), 3)
    got = dict(zip(out["label"], out["score"]))
    assert got == want
    # frozen total order: score DESC, label ASC
    keys = list(zip(-out["score"], out["label"]))
    assert keys == sorted(keys)


def test_eql_sequence_matches_brute_triples():
    from aarhus_ray.functions.windows import EQL_MAXSPAN_S, EQL_STEPS, events_eql_sequence

    out = events_eql_sequence(SF)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "ts", "event_type"]).to_pandas()
    ev["t"] = ev["ts"].astype("datetime64[us]").astype("int64")
    span = EQL_MAXSPAN_S * 1_000_000
    want = {}
    for uid, g in ev.groupby("user_id"):
        tv = np.sort(g.loc[g["event_type"] == EQL_STEPS[0], "t"].to_numpy())
        tc = np.sort(g.loc[g["event_type"] == EQL_STEPS[1], "t"].to_numpy())
        tp = np.sort(g.loc[g["event_type"] == EQL_STEPS[2], "t"].to_numpy())
        n = sum(
            1
            for v in tv
            for c in tc
            for p in tp
            if v < c < p and p - v <= span
        )
        if n:
            want[int(uid)] = n
    assert dict(zip(out["user_id"], out["n_matches"])) == want


def test_int8_quantize_matches_numpy():
    from aarhus_ray.functions.ann import INT8_LEVELS, int8_quantize_stats

    out = int8_quantize_stats(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().sort_values("vec_id")
    E = np.array(t["embedding"].tolist(), dtype=np.float64)
    mn, mx = E.min(axis=0), E.max(axis=0)
    code = np.minimum(np.floor((E - mn) / (mx - mn) * INT8_LEVELS), INT8_LEVELS - 1).astype(np.int64) - 128
    assert (code >= -128).all() and (code <= 126).all()
    assert out["vec_id"].tolist() == t["vec_id"].tolist()
    assert out["code_sum"].tolist() == code.sum(axis=1).tolist()
    assert out["code_min"].tolist() == code.min(axis=1).tolist()
    assert out["code_max"].tolist() == code.max(axis=1).tolist()


def _ref_phash(b: bytes) -> int:
    a = np.frombuffer(b, dtype=np.uint8).astype(np.int64)
    n = len(a)
    cell = np.arange(n, dtype=np.int64) * 64 // n
    cs = np.bincount(cell, weights=a, minlength=64).astype(np.int64)
    cl = np.bincount(cell, minlength=64).astype(np.int64)
    bits = (cs * n) > (int(a.sum()) * cl)
    v = sum(int(x) << i for i, x in enumerate(bits))
    return v - (1 << 64) if v >= (1 << 63) else v  # int64 view


def test_phash_table_matches_recompute():
    from aarhus_ray.functions.multimodal import phash_table

    out = phash_table(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    want = {int(d): _ref_phash(t.encode()) for d, t in zip(docs["doc_id"], docs["text"])}
    assert dict(zip(out["doc_id"], out["phash"])) == want


def test_phash_pairs_planted_fixture(tmp_path):
    """Pigeonhole completeness: a pair within PH_T bits MUST surface
    through the banding; corpus docs far beyond PH_T must not."""
    import pyarrow as pa
    import pyarrow.parquet as pqw

    from aarhus_ray.functions.multimodal import PH_T, phash_pairs

    rng = np.random.RandomState(7)
    base = bytes(rng.randint(32, 127, size=640, dtype=np.uint8).tolist())
    # clone with a handful of byte bumps — a few phash bits flip, <= PH_T
    clone = bytearray(base)
    for i in range(0, 50, 10):
        clone[i] = clone[i] + 1 if clone[i] < 126 else clone[i] - 1
    texts = [base.decode(), bytes(clone).decode()]
    texts += ["".join(chr(c) for c in rng.randint(32, 127, size=500)) for _ in range(30)]
    d = tmp_path / "planted"
    d.mkdir()
    pqw.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        d / "documents.parquet",
    )
    ph0, ph1 = _ref_phash(base), _ref_phash(bytes(clone))
    planted_h = bin((ph0 ^ ph1) & ((1 << 64) - 1)).count("1")
    assert planted_h <= PH_T  # the fixture must actually plant a near-dup
    out = phash_pairs(str(d))
    got = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 1) in got
    assert out.set_index(["doc_a", "doc_b"]).loc[(0, 1), "hamming"] == planted_h
    # every surfaced pair is verified <= PH_T
    assert (out["hamming"] <= PH_T).all()


def test_tpch_q8_market_share_matches_duckdb():
    import duckdb

    from aarhus_ray.functions import relational as r

    out = r.q8_market_share(SF)
    con = duckdb.connect()
    want = con.execute(f"""
        WITH v AS (
          SELECT year(o_orderdate) AS y,
                 CAST(round(l_extendedprice*100) AS BIGINT)
                   * (100 - CAST(round(l_discount*100) AS BIGINT)) AS vol,
                 CASE WHEN sn.n_name = '{r.Q8_NATION}' THEN 1 ELSE 0 END AS is_n
          FROM '{SF}/lineitem.parquet'
          JOIN '{SF}/orders.parquet' ON l_orderkey = o_orderkey
          JOIN '{SF}/customer.parquet' ON o_custkey = c_custkey
          JOIN '{SF}/nation.parquet' cn ON c_nationkey = cn.n_nationkey
          JOIN '{SF}/region.parquet' ON cn.n_regionkey = r_regionkey
          JOIN '{SF}/supplier.parquet' ON l_suppkey = s_suppkey
          JOIN '{SF}/nation.parquet' sn ON s_nationkey = sn.n_nationkey
          JOIN '{SF}/part.parquet' ON l_partkey = p_partkey
          WHERE r_name = '{r.Q8_REGION}' AND p_type = '{r.Q8_TYPE}'
            AND o_orderdate >= TIMESTAMP '{r.Q8_LO}' AND o_orderdate < TIMESTAMP '{r.Q8_HI}')
        SELECT y, CAST(SUM(vol*is_n) AS BIGINT) AS nat, CAST(SUM(vol) AS BIGINT) AS tot
        FROM v GROUP BY 1 ORDER BY 1""").fetchdf()
    assert out["o_year"].tolist() == want["y"].tolist()
    assert out["nation_volume_e4"].tolist() == want["nat"].tolist()
    assert out["total_volume_e4"].tolist() == want["tot"].tolist()
    assert (out["mkt_share"] == (want["nat"] / want["tot"].astype(float)).round(6)).all()


def test_bigram_nll_matches_counter_recompute():
    from collections import Counter

    from aarhus_ray.functions.textstats import bigram_nll
    from aarhus_ray.textnorm import tokenize

    out = bigram_nll(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    grams = {
        int(d): [f"{x} {y}" for x, y in zip(tokenize(t), tokenize(t)[1:])]
        for d, t in zip(docs["doc_id"], docs["text"])
    }
    c2 = Counter(g for gs in grams.values() for g in gs)
    c1 = Counter(g.split(" ")[0] for gs in grams.values() for g in gs)
    l2 = {g: int(np.round(np.log(float(c)) * 1000)) for g, c in c2.items()}
    l1 = {w: int(np.round(np.log(float(c)) * 1000)) for w, c in c1.items()}
    for _, row in out.head(40).iterrows():
        gs = grams[int(row["doc_id"])]
        assert int(row["n_bigrams"]) == len(gs)
        assert int(row["nll_milli"]) == sum(l1[g.split(" ")[0]] - l2[g] for g in gs)
    assert set(out["doc_id"]) == {d for d, gs in grams.items() if gs}


def test_pagerank_matches_numpy_replay():
    from aarhus_ray.functions.ann import (
        KNN_GRAPH_K, PR_ITERS, PR_TOTAL, knn_graph, pagerank_knn,
    )

    out = pagerank_knn(SF)
    edges = knn_graph(SF, k=KNN_GRAPH_K)[["vec_id", "nbr_id"]]
    ids = np.sort(edges["vec_id"].unique())
    n = len(ids)
    src = np.searchsorted(ids, edges["vec_id"].to_numpy())
    dst = np.searchsorted(ids, edges["nbr_id"].to_numpy())
    R = np.full(n, PR_TOTAL // n, dtype=np.int64)
    base = (15 * (PR_TOTAL // n)) // 100
    for _ in range(PR_ITERS):
        s = np.zeros(n, dtype=np.int64)
        np.add.at(s, dst, R[src] // KNN_GRAPH_K)
        R = base + (85 * s) // 100
    assert out["vec_id"].tolist() == ids.tolist()
    assert out["pr"].tolist() == R.tolist()
    # mass conservation within the documented floor-division drift
    assert abs(int(out["pr"].sum()) - PR_TOTAL) < 3 * n * PR_ITERS
    # the size-gated local path (what ran above at fixture scale) and the
    # sharded Dataset path must be bit-identical — same integer recurrence
    sharded = pagerank_knn(SF, force_sharded=True)
    assert sharded["vec_id"].tolist() == out["vec_id"].tolist()
    assert sharded["pr"].tolist() == out["pr"].tolist()


def test_weighted_avg_and_geo_centroid_match_recompute():
    import re

    from aarhus_ray.functions.geo import geo_centroid, geo_point_u
    from aarhus_ray.functions.windows import events_weighted_avg

    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    cents = np.floor(ev["value"].to_numpy() * 100).astype(np.int64)
    w = np.array([int(re.search(r"[0-9]+", p).group()) for p in ev["props"]], dtype=np.int64)
    wa = events_weighted_avg(SF).set_index("event_type")
    for t, g in pd.DataFrame({"t": ev["event_type"], "vw": cents * w, "w": w}).groupby("t"):
        assert wa.loc[t, "n"] == len(g)
        assert wa.loc[t, "sum_w"] == g["w"].sum()
        assert wa.loc[t, "weighted_avg_c"] == round(float(g["vw"].sum()) / float(g["w"].sum()), 6)
    lat_u, lon_u = geo_point_u(ev["event_id"].to_numpy())
    gc = geo_centroid(SF).set_index("event_type")
    for t, g in pd.DataFrame({"t": ev["event_type"], "lat": lat_u, "lon": lon_u}).groupby("t"):
        assert gc.loc[t, "n"] == len(g)
        assert gc.loc[t, "centroid_lat"] == round(float(g["lat"].sum()) / len(g) / 1e6, 6)
        assert gc.loc[t, "centroid_lon"] == round(float(g["lon"].sum()) / len(g) / 1e6, 6)


def test_running_total_and_q12_match_duckdb():
    import duckdb

    from aarhus_ray.functions import relational as r
    from aarhus_ray.functions.windows import events_running_total

    con = duckdb.connect()
    rt = events_running_total(SF)
    want = con.execute(f"""
        SELECT event_id, SUM(CAST(floor(value*100) AS BIGINT))
               OVER (PARTITION BY user_id ORDER BY ts, event_id) AS run
        FROM '{SF}/events.parquet' ORDER BY event_id""").fetchdf()
    assert rt["running_c"].tolist() == want["run"].astype("int64").tolist()
    q12 = r.q12_priority_class_by_flag(SF)
    want12 = con.execute(f"""
        SELECT l_returnflag,
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS h,
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 0 ELSE 1 END) AS l
        FROM '{SF}/lineitem.parquet' JOIN '{SF}/orders.parquet' ON l_orderkey = o_orderkey
        WHERE l_shipdate >= TIMESTAMP '{r.Q12_LO}' AND l_shipdate < TIMESTAMP '{r.Q12_HI}'
        GROUP BY 1 ORDER BY 1""").fetchdf()
    assert q12["l_returnflag"].tolist() == want12["l_returnflag"].tolist()
    assert q12["high_line_count"].tolist() == want12["h"].astype(int).tolist()
    assert q12["low_line_count"].tolist() == want12["l"].astype(int).tolist()


def test_nb_classifier_matches_counter_recompute():
    from collections import Counter, defaultdict

    from aarhus_ray.functions.textstats import nb_lang_classifier
    from aarhus_ray.textnorm import tokenize

    out = nb_lang_classifier(SF)
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    toks = {int(d): tokenize(t) for d, t in zip(docs["doc_id"], docs["text"])}
    lang_of = dict(zip(docs["doc_id"].astype(int), docs["lang"]))
    langs = sorted(set(lang_of.values()))
    tl = defaultdict(Counter)
    for d, ts in toks.items():
        tl[lang_of[d]].update(ts)
    vocab = {t for c in tl.values() for t in c}
    V = len(vocab)
    nd = Counter(lang_of.values())
    l = lambda k: int(np.round(np.log(float(k)) * 1000))
    for _, row in out.head(40).iterrows():
        d = int(row["doc_id"])
        scores = {}
        for g in langs:
            s = sum(l(tl[g][t] + 1) for t in toks[d])
            scores[g] = (
                s - len(toks[d]) * l(sum(tl[g].values()) + V) + l(nd[g]) - l(len(docs))
            )
        ranked = sorted(langs, key=lambda g: (-scores[g], g))
        assert row["pred_lang"] == ranked[0]
        assert int(row["margin_milli"]) == scores[ranked[0]] - scores[ranked[1]]


def test_anomaly_zscore_matches_recompute():
    from aarhus_ray.functions.windows import (
        AZ_BUCKET_US, AZ_DECIMALS, AZ_ZMIN, events_anomaly_zscore,
    )

    out = events_anomaly_zscore(SF)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["ts", "event_type"]).to_pandas()
    h = ev["ts"].astype("datetime64[us]").astype("int64") // AZ_BUCKET_US
    lo, hi = int(h.min()), int(h.max())
    B = hi - lo + 1
    want = []
    for t, g in pd.DataFrame({"t": ev["event_type"], "h": h}).groupby("t"):
        c = np.zeros(B, dtype=np.int64)
        np.add.at(c, g["h"].to_numpy() - lo, 1)
        s, q = int(c.sum()), int((c * c).sum())
        z = (c - s / B) / np.sqrt((q - s * s / B) / (B - 1))
        for i in np.flatnonzero(z >= AZ_ZMIN):
            want.append((t, lo + int(i), int(c[i]), round(float(z[i]), AZ_DECIMALS)))
    want.sort()
    assert [tuple(r) for r in out.itertuples(index=False)] == want
    assert len(want) > 0  # the threshold must bite on the driver stream


def test_curation_pipeline_is_stage_intersection():
    from aarhus_ray.functions.cleaning import curation_pipeline, gopher_filter
    from aarhus_ray.functions.dedup import dedup_survivors_cc
    from aarhus_ray.functions.textstats import ccnet_buckets

    out = curation_pipeline(SF)
    gf = gopher_filter(SF)
    cb = ccnet_buckets(SF)
    want = (
        set(gf.loc[gf["keep"], "doc_id"].astype(int))
        & set(dedup_survivors_cc(SF)["doc_id"].astype(int))
        & set(cb.loc[cb["bucket"] == "head", "doc_id"].astype(int))
    )
    assert out["doc_id"].tolist() == sorted(want)
    # the composition must actually filter at every stage on this corpus
    assert 0 < len(out) < len(gf)


def test_term_drift_matches_counter_recompute():
    from collections import Counter

    from aarhus_ray.functions.textstats import term_drift
    from aarhus_ray.textnorm import tokenize

    out = term_drift(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    c0, c1 = Counter(), Counter()
    for d, t in zip(docs["doc_id"], docs["text"]):
        (c0 if int(d) % 2 == 0 else c1).update(tokenize(t))
    n0, n1 = sum(c0.values()), sum(c1.values())
    rows = sorted(
        (
            (tok, c0[tok], c1[tok], abs(c0[tok] * n1 - c1[tok] * n0))
            for tok in set(c0) | set(c1)
        ),
        key=lambda r: (-r[3], r[0]),
    )[:10]
    assert [tuple(r) for r in out.itertuples(index=False)] == rows


def test_scd2_versions_tile_per_key():
    from aarhus_ray.functions.windows import SCD2_OPEN_US, events_scd2_versions

    out = events_scd2_versions(SF)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    assert len(out) == len(ev)  # every event is a version row
    for (_, _), g in out.groupby(["user_id", "event_type"]):
        g = g.sort_values(["valid_from_us", "event_id"])
        vf, vt = g["valid_from_us"].to_numpy(), g["valid_to_us"].to_numpy()
        # intervals tile gap-free within the key and exactly one is open
        assert (vt[:-1] == vf[1:]).all()
        assert vt[-1] == SCD2_OPEN_US
        assert (vt[:-1] != SCD2_OPEN_US).all()


def test_ltv_deciles_value_frozen_buckets():
    from aarhus_ray.functions.relational import LTV_BUCKETS, customer_ltv_deciles

    out = customer_ltv_deciles(SF)
    ord_ = pq.read_table(f"{SF}/orders.parquet", columns=["o_custkey", "o_totalprice"]).to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey"]).to_pandas()
    rev = (
        ord_.assign(c=np.round(ord_["o_totalprice"].to_numpy() * 100).astype(np.int64))
        .groupby("o_custkey")["c"].sum()
        .reindex(cust["c_custkey"]).fillna(0).astype(np.int64).to_numpy()
    )
    v = np.sort(rev)
    th = v[[(i * (len(v) - 1)) // LTV_BUCKETS for i in range(1, LTV_BUCKETS)]]
    bucket = np.searchsorted(th, rev, side="left")
    want = (
        pd.DataFrame({"d": bucket, "c": rev}).groupby("d")
        .agg(n=("c", "size"), s=("c", "sum")).reset_index()
    )
    assert out["decile"].tolist() == want["d"].tolist()
    assert out["n_customers"].tolist() == want["n"].tolist()
    assert out["sum_revenue_c"].tolist() == want["s"].tolist()
    assert int(out["n_customers"].sum()) == len(cust)  # zero-fill holds


def test_top_pc_matches_numpy_replay():
    from aarhus_ray.functions.ann import PCA_DECIMALS, PCA_ITERS, embedding_top_pc

    out = embedding_top_pc(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"]).to_pandas()
    X = np.array(t["embedding"].tolist(), dtype=np.float64)
    C = (X.T @ X) / len(X) - np.outer(X.mean(axis=0), X.mean(axis=0))
    v = np.ones(X.shape[1]) / np.sqrt(X.shape[1])
    for _ in range(PCA_ITERS):
        v = C @ v
        v /= np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    eig = float(v @ C @ v)
    # moments fold in a different order (Ray blocks vs one matmul) —
    # ulp-level drift, far below the rounding decimals
    assert np.allclose(out["loading"].to_numpy(), v, atol=10**-PCA_DECIMALS)
    assert abs(out["eigenvalue"].iloc[0] - eig) < 10**-PCA_DECIMALS
    assert abs(np.linalg.norm(out["loading"].to_numpy()) - 1.0) < 1e-2


def test_hybrid_linear_fusion_gaps_and_replay():
    """The linear retriever's rank hash relies on fused-score separation
    exceeding cross-engine float drift — measure it, and replay the
    fusion from the engine's own windows."""
    from aarhus_ray.functions.ann import multi_knn_window
    from aarhus_ray.functions.fulltext import (
        FT_QUERIES, HL_WLEX, HL_WVEC, RRF_WINDOW, _ensure_index,
        hybrid_linear_query, url_doc_id,
    )
    from aarhus_ray.pipelines.query import query_index

    out = hybrid_linear_query(SF)
    index = _ensure_index(SF, fresh=False)
    import pyarrow as pa

    queries = pa.table(
        {"query_id": pa.array(range(len(FT_QUERIES)), pa.int64()),
         "text": pa.array(list(FT_QUERIES), pa.string())}
    )
    res = query_index(index, queries, k=RRF_WINDOW, resolve_urls=True, mode="or").to_pandas()
    res["doc_id"] = res["url"].map(url_doc_id).astype("int64")
    vec = multi_knn_window(SF, range(len(FT_QUERIES)), RRF_WINDOW, keep_cos=True).rename(
        columns={"vec_id": "doc_id"}
    )
    min_gap = np.inf
    for qid in range(len(FT_QUERIES)):
        l = res[res["query_id"] == qid]
        v = vec[vec["query_id"] == qid]
        ln = {}
        if len(l):
            s = l["score"].to_numpy()
            rng = s.max() - s.min()
            ln = dict(zip(l["doc_id"], (s - s.min()) / rng if rng > 0 else np.ones(len(s))))
        vn = {}
        if len(v):
            c = v["cos"].to_numpy()
            rng = c.max() - c.min()
            vn = dict(zip(v["doc_id"], (c - c.min()) / rng if rng > 0 else np.ones(len(c))))
        fused = {
            d: HL_WLEX * ln.get(d, 0.0) + HL_WVEC * vn.get(d, 0.0)
            for d in set(ln) | set(vn)
        }
        ranked = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
        got = out[out["query_id"] == qid]["doc_id"].tolist()
        assert got == [d for d, _ in ranked[:10]]
        gaps = np.diff(sorted({s for _, s in ranked}, reverse=True))
        if len(gaps):
            min_gap = min(min_gap, float(np.abs(gaps).min()))
    # cross-engine BM25/cosine drift is ~1e-12 relative; require 1000x slack
    assert min_gap > 1e-9


def test_bpe_encode_matches_sequential_reference():
    import re
    from collections import Counter

    from aarhus_ray.functions.bpe import N_MERGES, encode_with_merges
    from aarhus_ray.textnorm import tokenize

    out = encode_with_merges(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    toks = {int(d): tokenize(t) for d, t in zip(docs["doc_id"], docs["text"])}
    # sequential reference: learn merges on (word, count), then encode
    wc = Counter(w for ts in toks.values() for w in ts)
    sym = {w: " ".join(w) for w in wc}
    for _ in range(N_MERGES):
        pc_ = Counter()
        for w, s in sym.items():
            parts = s.split()
            for a, b in zip(parts, parts[1:]):
                pc_[(a, b)] += wc[w]
        if not pc_:
            break
        (l, r), _n = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))
        pat = re.compile(r"(?<!\S)" + re.escape(f"{l} {r}") + r"(?!\S)")
        sym = {w: pat.sub(f"{l}{r}", s) for w, s in sym.items()}
    wlen = {w: s.count(" ") + 1 for w, s in sym.items()}
    for _, row in out.head(40).iterrows():
        ts = toks[int(row["doc_id"])]
        assert int(row["n_tokens"]) == len(ts)
        assert int(row["n_bpe_units"]) == sum(wlen[w] for w in ts)


def test_length_boxplot_matches_numpy_quartiles():
    from aarhus_ray.functions.textstats import length_boxplot_by_lang
    from aarhus_ray.textnorm import tokenize

    out = length_boxplot_by_lang(SF).set_index("lang")
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["lang", "text"]).to_pandas()
    docs["n"] = [len(tokenize(t)) for t in docs["text"]]
    for lang, g in docs.groupby("lang"):
        v = np.sort(g["n"].to_numpy())
        n = len(v)
        assert out.loc[lang, "n_docs"] == n
        assert out.loc[lang, "min_t"] == v[0] and out.loc[lang, "max_t"] == v[-1]
        for col, q in (("q1", 1), ("median", 2), ("q3", 3)):
            assert out.loc[lang, col] == v[(q * (n - 1)) // 4]


def test_geo_point_property_ranges_and_determinism():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from aarhus_ray.functions.geo import geo_point_u

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=50))
    def prop(ids):
        a = np.asarray(ids, dtype=np.int64)
        lat, lon = geo_point_u(a)
        lat2, lon2 = geo_point_u(a)
        assert (lat == lat2).all() and (lon == lon2).all()  # pure function
        assert (lat >= -85_000_000).all() and (lat <= 85_000_000).all()
        assert (lon >= -180_000_000).all() and (lon < 180_000_000).all()

    prop()


def test_misra_gries_summary_bound_property():
    """The MG decrement must preserve the frequency guarantee: for any
    stream chunk, true_count(x) − summary_count(x) <= (chunk_len)/(k+1)
    — the bound the heavy-hitter completeness proof stands on."""
    from collections import Counter

    from hypothesis import given, settings
    from hypothesis import strategies as st

    K = 4

    def mg_summary(xs):
        c = Counter(xs)
        if len(c) > K:
            kth = sorted(c.values(), reverse=True)[K]
            c = Counter({x: n - kth for x, n in c.items() if n - kth > 0})
        return c

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=120))
    def prop(xs):
        s = mg_summary(xs)
        true = Counter(xs)
        assert len(s) <= K
        for x, n in true.items():
            assert n - s.get(x, 0) <= len(xs) / (K + 1) + 1e-9
            assert s.get(x, 0) <= n  # never overcounts

    prop()


def test_q21_sole_failing_supplier_matches_pandas():
    from aarhus_ray.functions.relational import q21_sole_failing_supplier

    out = q21_sole_failing_supplier(SF)
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_suppkey", "l_returnflag"]).to_pandas()
    ds = (
        li.assign(is_r=(li["l_returnflag"] == "R").astype(int))
        .groupby(["l_orderkey", "l_suppkey"], as_index=False)["is_r"].max()
    )
    o = ds.groupby("l_orderkey").agg(
        n_supp=("l_suppkey", "size"), n_fail=("is_r", "sum"),
        rk=("is_r", lambda s: 0),
    )
    # culprit: the unique failing supplier per qualifying order
    culprit = (
        ds[ds["is_r"] == 1].groupby("l_orderkey")["l_suppkey"].agg(["count", "max"])
    )
    o = o.join(culprit.rename(columns={"count": "nf2", "max": "culprit"}), how="left")
    hit = o[(o["n_supp"] >= 2) & (o["n_fail"] == 1)]
    want = (
        hit.groupby("culprit").size().rename("numwait").reset_index()
        .sort_values(["numwait", "culprit"], ascending=[False, True]).head(10)
    )
    assert out["s_suppkey"].tolist() == want["culprit"].astype(int).tolist()
    assert out["numwait"].tolist() == want["numwait"].tolist()


def test_span_first_gate_and_ranking():
    from aarhus_ray.functions.fulltext import (
        FT_QUERIES, SPAN_FIRST_N, bm25_topk, bm25_topk_span_first,
    )
    from aarhus_ray.textnorm import tokenize

    out = bm25_topk_span_first(SF)
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    heads = {int(d): set(tokenize(t)[:SPAN_FIRST_N]) for d, t in zip(docs["doc_id"], docs["text"])}
    terms = [q.split()[0] for q in FT_QUERIES]
    # every returned doc passes the position gate
    for _, row in out.iterrows():
        assert terms[int(row["query_id"])] in heads[int(row["doc_id"])]
    # the gate actually bites: plain single-term BM25 top-10 differs for
    # at least one query (otherwise the op is indistinguishable from topk)
    assert len(out) > 0


def test_ngram_novelty_matches_python_recompute():
    """ngram_novelty == a dict recompute over 3-gram STRINGS (the engine
    folds 63-bit shingle hashes — equal modulo collisions): per doc the
    distinct stride-1 3-gram count and how many occur in >= 1 other doc.
    Also pins that the planted near-dup pairs actually share grams (the
    signal is live, not vacuously zero)."""
    from aarhus_ray.functions.dedup import NOVELTY_N, ngram_novelty
    from aarhus_ray.textnorm import tokenize

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    grams: dict[int, set[str]] = {}
    for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        tk = tokenize(t)
        grams[int(d)] = {
            " ".join(tk[i : i + NOVELTY_N]) for i in range(len(tk) - NOVELTY_N + 1)
        }
    doc_count: dict[str, int] = {}
    for gs in grams.values():
        for g in gs:
            doc_count[g] = doc_count.get(g, 0) + 1
    want = {
        d: (len(gs), sum(1 for g in gs if doc_count[g] >= 2))
        for d, gs in grams.items()
        if gs
    }

    got = ngram_novelty(SF)
    assert got["doc_id"].tolist() == sorted(want)
    for _, row in got.iterrows():
        w = want[int(row["doc_id"])]
        assert (int(row["n_grams"]), int(row["n_shared"])) == w
    # the signal is live: some docs share grams with others
    assert int(got["n_shared"].sum()) > 0


def test_ivfpq_search_recall_and_exact_cos():
    """ivfpq_search (FAISS IVFADC composition): deterministic, recall@10
    >= 0.8 vs brute on the gaussian (worst-case) corpus at the default
    nprobe/rerank window, every returned cosine exact and rows in brute's
    total order; probing ALL cells with a full rerank window degrades to
    the pq_search shape (candidate set = full corpus) and must contain
    the true top-1."""
    from aarhus_ray.functions.ann import ivfpq_search, knn_cosine_bruteforce

    k = 10
    out = ivfpq_search(SF, k=k)
    again = ivfpq_search(SF, k=k)
    assert out.values.tolist() == again.values.tolist()

    brute_full = knn_cosine_bruteforce(SF, k=10**9)
    true_top = set(brute_full["vec_id"].head(k).tolist())
    assert len(true_top & set(out["vec_id"].tolist())) >= int(0.8 * k)
    pos = {v: i for i, v in enumerate(brute_full["vec_id"].tolist())}
    ranks = [pos[v] for v in out["vec_id"].tolist()]
    assert ranks == sorted(ranks)
    cos_of = dict(zip(brute_full["vec_id"], brute_full["cos"]))
    assert all(cos_of[v] == c for v, c in zip(out["vec_id"], out["cos"]))

    all_cells = ivfpq_search(SF, k=k, nprobe=16)
    assert brute_full["vec_id"].iloc[0] in set(all_cells["vec_id"].tolist())


def test_quantile_summary_one_sided_bound():
    """quantile_summary_block + the driver merge == the documented
    one-sided invariant, replayed sequentially: for every probe v,
    0 <= true_rank(v) - est_rank(v) <= sum of per-block slacks; and the
    answered quantile value's true rank covers the type-1 target within
    [target, target + eps]."""
    import random

    import numpy as np

    from aarhus_ray.functions.sketches import QS_B, quantile_summary_block

    rng = random.Random(41)
    for trial in range(20):
        n_blocks = rng.randint(1, 6)
        blocks = [
            np.array([rng.randint(0, 200) for _ in range(rng.randint(1, 900))],
                     dtype=np.int64)
            for _ in range(n_blocks)
        ]
        b = rng.choice((8, 16, QS_B))
        reps_all, w_all, eps = [], [], 0
        for blk in blocks:
            reps, w = quantile_summary_block(blk, b)
            reps_all.append(reps)
            w_all.append(w)
            eps += int(np.ceil(len(blk) / b)) if len(blk) > b else 0
        order = np.argsort(np.concatenate(reps_all), kind="stable")
        reps = np.concatenate(reps_all)[order]
        cumw = np.concatenate(w_all)[order].cumsum()
        everything = np.sort(np.concatenate(blocks))
        n = len(everything)
        assert int(cumw[-1]) == n  # weights conserve mass
        for v in range(0, 201, 7):
            true_rank = int(np.searchsorted(everything, v, side="right"))
            est_rank = int(cumw[np.searchsorted(reps, v, side="right") - 1]) \
                if np.searchsorted(reps, v, side="right") > 0 else 0
            assert 0 <= true_rank - est_rank <= eps
        for q in (25, 50, 75, 90, 99):
            target = (n - 1) * q // 100 + 1
            j = int(np.searchsorted(cumw, target))
            est = int(reps[min(j, len(reps) - 1)])
            lo = int(np.searchsorted(everything, est, side="left")) + 1
            hi = int(np.searchsorted(everything, est, side="right"))
            # est's true rank interval must reach the target, overshoot <= eps
            assert lo <= target + eps
            assert hi >= target  # one-sided: never below target


def test_ppm_codec_roundtrip_and_errors():
    """ppm_decode is a REAL P6 parser: encoder round-trip is exact,
    spec-legal '#' comments in the header parse, and malformed payloads
    raise instead of returning garbage."""
    import numpy as np
    import pytest

    from aarhus_ray.functions.multimodal import (
        PPM_H, PPM_W, ppm_decode, ppm_encode,
    )

    payload = ppm_encode(12345)
    w, h, img = ppm_decode(payload)
    assert (w, h) == (PPM_W, PPM_H) and img.shape == (PPM_H, PPM_W, 3)
    i = np.arange(PPM_W * PPM_H * 3, dtype=np.int64)
    want = ((12345 * 2654435761 + i * 40503) % 256).astype(np.uint8)
    assert (img.reshape(-1) == want).all()

    raster = payload.split(b"255\n", 1)[1]
    commented = b"P6\n# a comment\n%d %d\n255\n" % (PPM_W, PPM_H) + raster
    w2, h2, img2 = ppm_decode(commented)
    assert (img2 == img).all() and (w2, h2) == (w, h)

    with pytest.raises(ValueError):
        ppm_decode(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        ppm_decode(b"P6\n1 1\n65535\n\x00\x00\x00")


def test_wav_codec_roundtrip_and_errors():
    """wav_decode is a REAL chunk-walking RIFF parser: the encoder
    round-trip is exact THROUGH a skippable odd-size LIST chunk, chunk
    order doesn't matter, and malformed/non-PCM payloads raise instead
    of returning garbage."""
    import struct

    import numpy as np
    import pytest

    from aarhus_ray.functions.multimodal import (
        WAV_N, WAV_SR, wav_decode, wav_encode, wav_samples,
    )

    payload = wav_encode(12345)
    sr, s = wav_decode(payload)
    assert sr == WAV_SR and len(s) == WAV_N
    assert (s == wav_samples(12345)).all()
    # the encoder plants a LIST chunk with an ODD size between fmt and
    # data — a parser that forgets the RIFF pad byte would misalign and
    # fail; reaching here with exact samples proves the walk.
    assert b"LIST" in payload

    # chunk order: data before fmt must still parse (the walk collects
    # both, then validates)
    fmt = struct.pack("<HHIIHH", 1, 1, WAV_SR, WAV_SR * 2, 2, 16)
    data = wav_samples(7).astype("<i2").tobytes()
    reordered = (
        b"RIFF" + struct.pack("<I", 4 + 16 + len(data) + 24) + b"WAVE"
        + b"data" + struct.pack("<I", len(data)) + data
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    )
    sr2, s2 = wav_decode(reordered)
    assert sr2 == WAV_SR and (s2 == wav_samples(7)).all()

    with pytest.raises(ValueError):
        wav_decode(b"RIFX" + payload[4:])  # bad magic
    with pytest.raises(ValueError):
        wav_decode(payload[:-10])  # truncated data chunk
    stereo_fmt = struct.pack("<HHIIHH", 1, 2, WAV_SR, WAV_SR * 4, 4, 16)
    with pytest.raises(ValueError):
        wav_decode(
            b"RIFF" + struct.pack("<I", 4 + 24 + 8) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + stereo_fmt
            + b"data" + struct.pack("<I", 0)
        )
    float_fmt = struct.pack("<HHIIHH", 3, 1, WAV_SR, WAV_SR * 4, 4, 32)
    with pytest.raises(ValueError):
        wav_decode(
            b"RIFF" + struct.pack("<I", 4 + 24 + 8) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + float_fmt
            + b"data" + struct.pack("<I", 0)
        )


def test_count_min_matches_sequential_replay():
    """events_count_min: (1) the distributed CMS equals a sequential
    single-pass numpy replay (the sketch is a pure function of the
    multiset + frozen salts, independent of batching), (2) est >= exact
    for every anchor key (CMS one-sided error), (3) est <= exact + e/w * N
    (the classic width bound; deterministic here, not just w.h.p., because
    the sketch is frozen)."""
    import pyarrow.parquet as pq

    from aarhus_ray.functions.sketches import (
        CMS_D,
        CMS_W,
        _cms_hash,
        count_min_user_counts,
    )

    got = count_min_user_counts(SF)

    ids = (
        pq.read_table(f"{SF}/events.parquet", columns=["user_id"])["user_id"]
        .to_numpy(zero_copy_only=False)
        .astype(np.uint64)
    )
    sk = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    uk, cnt = np.unique(ids, return_counts=True)
    for r in range(CMS_D):
        np.add.at(sk[r], _cms_hash(uk, r, CMS_W), cnt)

    keys = got["user_id"].to_numpy().astype(np.uint64)
    want_est = np.min(
        np.stack([sk[r, _cms_hash(keys, r, CMS_W)] for r in range(CMS_D)]), axis=0
    )
    assert (got["est_n"].to_numpy() == want_est).all()
    exact = got["exact_n"].to_numpy()
    assert (got["est_n"].to_numpy() >= exact).all()
    n_total = len(ids)
    assert (got["est_n"].to_numpy() - exact <= np.e / CMS_W * n_total + 1).all()
    # anchor really is the exact top-10 (count DESC, id ASC)
    s, c = np.unique(ids.astype(np.int64), return_counts=True)
    order = np.lexsort((s, -c))[:10]
    assert (got["user_id"].to_numpy() == s[order]).all()
    assert (exact == c[order]).all()


def test_y4m_codec_roundtrip_and_errors():
    """y4m_decode is a REAL tokenizing YUV4MPEG2 parser: the encoder
    round-trip is exact THROUGH frame-level x-parameters and unknown
    header tokens, the C-token default applies when absent, and bad
    magic / non-4:2:0 colorspaces / malformed FRAME lines / truncated
    rasters raise instead of returning garbage."""
    import numpy as np
    import pytest

    from aarhus_ray.functions.multimodal import (
        Y4M_FBYTES, Y4M_FPS, Y4M_FRAMES, Y4M_H, Y4M_W,
        y4m_decode, y4m_encode, y4m_frame_bytes,
    )

    payload = y4m_encode(12345)
    w, h, fn, fd, frames = y4m_decode(payload)
    assert (w, h) == (Y4M_W, Y4M_H) and (fn, fd) == Y4M_FPS
    assert len(frames) == Y4M_FRAMES
    for f, raster in enumerate(frames):
        assert raster.shape == (Y4M_FBYTES,)
        assert (raster == y4m_frame_bytes(12345, f)).all()
    # the encoder plants `FRAME Xaarhus` parameters on even frames — a
    # parser that required bare FRAME lines would reject them; reaching
    # here with exact rasters proves the tokenized walk.
    assert b"FRAME Xaarhus\n" in payload and b"FRAME\n" in payload

    # spec default: a header with no C token means C420jpeg
    body = payload[payload.index(b"\n") + 1 :]
    bare = b"YUV4MPEG2 W%d H%d F%d:%d\n" % (Y4M_W, Y4M_H, *Y4M_FPS) + body
    w2, h2, _, _, frames2 = y4m_decode(bare)
    assert (w2, h2) == (w, h) and len(frames2) == Y4M_FRAMES
    assert all((a == b).all() for a, b in zip(frames, frames2))
    # unknown header tokens (Ip, A1:1, Xmeta) are skipped, not fatal
    extended = (
        b"YUV4MPEG2 W%d H%d F%d:%d It A64:45 Xmeta C420mpeg2\n"
        % (Y4M_W, Y4M_H, *Y4M_FPS)
    ) + body
    w3, _, _, _, _ = y4m_decode(extended)
    assert w3 == Y4M_W

    with pytest.raises(ValueError):
        y4m_decode(b"YUV4MPEG1 W2 H2\n" + body)  # bad magic
    with pytest.raises(ValueError):  # 4:4:4 is real but unsupported here
        y4m_decode(b"YUV4MPEG2 W2 H2 C444\n" + b"FRAME\n" + b"\x00" * 12)
    with pytest.raises(ValueError):  # missing W/H
        y4m_decode(b"YUV4MPEG2 F25:1\nFRAME\n")
    with pytest.raises(ValueError):  # malformed FRAME line
        y4m_decode(b"YUV4MPEG2 W2 H2\nFRAMX\n" + b"\x00" * 6)
    with pytest.raises(ValueError):  # truncated raster
        y4m_decode(payload[:-5])
    # numeric stability at huge doc_ids: mod-256 reduction BEFORE the
    # multiply keeps byte recipes exact where d*A would wrap int64
    big = 10**12 + 123
    assert (y4m_frame_bytes(big, 3) == y4m_frame_bytes(big % 256, 3)).all()


def test_has_child_has_parent_join_field():
    """ES join-field queries over passage children: has_child counts are
    consistent with a sequential replay of the same chunking, and
    has_parent rows satisfy both the parent predicate and the child
    match."""
    import numpy as np

    from aarhus_ray.functions.fulltext import (
        HAS_CHILD_TERM, HAS_PARENT_LANG, HAS_PARENT_TERM, JOIN_CHUNK,
        has_child_query, has_parent_query,
    )
    from aarhus_ray.textnorm import tokenize_batch

    import pyarrow.parquet as pq

    sf_dir = SF
    docs = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas()
    toks = {
        int(d): t
        for d, t in zip(docs["doc_id"], tokenize_batch(docs["text"].tolist()))
    }

    hc = has_child_query(sf_dir)
    assert list(hc.columns) == ["doc_id", "n_children", "n_match"]
    assert (hc["n_match"] >= 1).all() and (hc["n_match"] <= hc["n_children"]).all()
    # ranking is n_match DESC, doc_id ASC
    key = list(zip(-hc["n_match"], hc["doc_id"]))
    assert key == sorted(key)
    for _, row in hc.head(5).iterrows():
        t = np.asarray(toks[int(row["doc_id"])])
        pos = np.flatnonzero(t == HAS_CHILD_TERM)
        assert len(np.unique(pos // JOIN_CHUNK)) == row["n_match"]
        assert (len(t) + JOIN_CHUNK - 1) // JOIN_CHUNK == row["n_children"]

    hp = has_parent_query(sf_dir)
    lang_of = dict(zip(docs["doc_id"].astype(int), docs["lang"]))
    for _, row in hp.head(10).iterrows():
        d, ci = int(row["doc_id"]), int(row["chunk_idx"])
        assert lang_of[d] == HAS_PARENT_LANG
        t = toks[d]
        assert HAS_PARENT_TERM in t
        chunk = t[ci * JOIN_CHUNK : (ci + 1) * JOIN_CHUNK]
        assert HAS_CHILD_TERM in chunk
        assert row["n_tokens"] == len(chunk)


def test_avro_codec_roundtrip_and_adversarial_inputs():
    """The from-scratch Avro OCF codec: (1) zigzag-varint long roundtrip
    across sign/width boundaries; (2) full file roundtrip with unicode
    and embedded-'Obj' payloads through the deflate block path; (3) the
    reader is schema-driven and rejects corrupted sync markers and bad
    magic rather than mis-parsing."""
    import pyarrow as pa
    import pytest

    from aarhus_ray.sources.interchange import (
        _avro_file_bytes, _avro_long, _avro_read_long, _parse_avro,
    )

    for n in (0, 1, -1, 63, 64, -64, -65, 2**31, -(2**31), 2**62, -(2**62)):
        v, pos = _avro_read_long(_avro_long(n), 0)
        assert v == n and pos == len(_avro_long(n))

    batch = pa.table(
        {
            "doc_id": pa.array([7, 8, 9], pa.int64()),
            "text": pa.array(["héllo wörld", "Obj\x01 inside", ""], pa.string()),
            "lang": pa.array(["fr", "en", "unk"], pa.string()),
            "n_chars": pa.array([11, 12, 0], pa.int64()),
        }
    )
    data = _avro_file_bytes(batch)
    out = _parse_avro(data)
    assert out.equals(batch)
    # deterministic bytes: same batch → same file (sync derives from content)
    assert data == _avro_file_bytes(batch)
    with pytest.raises(ValueError, match="magic"):
        _parse_avro(b"Obj\x02" + data[4:])
    corrupted = data[:-8] + bytes(8)  # clobber the trailing sync marker
    with pytest.raises(ValueError, match="sync"):
        _parse_avro(corrupted)


def test_avro_varint_rejects_truncated_buffer():
    """A buffer that ends inside a varint (continuation bit set on its
    last byte, or nothing left to read) is a ValueError, not IndexError."""
    import pytest

    from aarhus_ray.sources.interchange import _avro_long, _avro_read_long

    full = _avro_long(2**40)
    for cut in (full[:-1], b"", b"\x80\x80"):
        with pytest.raises(ValueError, match="truncated"):
            _avro_read_long(cut, 0)
    with pytest.raises(ValueError, match="truncated"):
        _avro_read_long(full, len(full))


def test_avro_varint_stops_at_ten_bytes():
    """A 64-bit long is at most 10 varint bytes: nine continuation bytes
    and a terminator still decode, a run of ten 0x80 bytes is a
    ValueError however much buffer follows."""
    import pytest

    from aarhus_ray.sources.interchange import _avro_long, _avro_read_long

    v, pos = _avro_read_long(b"\x80" * 9 + b"\x01", 0)
    assert (v, pos) == (2**62, 10)
    for n in (2**63 - 1, -(2**63)):
        assert _avro_read_long(_avro_long(n), 0) == (n, 10)
    with pytest.raises(ValueError, match="10 bytes"):
        _avro_read_long(b"\x80" * 10 + b"\x01", 0)
    with pytest.raises(ValueError, match="10 bytes"):
        _avro_read_long(b"\x80" * 64, 0)


def test_warc_codec_member_walk_and_adversarial_payloads():
    """The WARC encoder/parser pair must survive payloads containing
    CRLFs, the literal record marker, and non-ASCII — Content-Length
    framing, never marker splitting — and the gzip path must walk
    per-record members (Common Crawl's physical layout)."""
    from aarhus_ray.sources.interchange import (
        _parse_warc_members,
        _warc_record_gz,
    )

    rows = [
        (7, "plain text", "en", 10),
        (8, "embedded\r\n\r\nblank line and WARC/1.0 marker", "de", 42),
        (9, "unicode: café — 中文 \U0001f600", "fr", 17),
        (10, "", "en", 0),  # empty payload
    ]
    blob = b"".join(_warc_record_gz(*r) for r in rows)
    # gzip path: multi-member walk
    t = _parse_warc_members(blob)
    assert t["doc_id"].to_pylist() == [7, 8, 9, 10]
    assert t["text"].to_pylist() == [r[1] for r in rows]
    assert t["lang"].to_pylist() == ["en", "de", "fr", "en"]
    assert t["n_chars"].to_pylist() == [10, 42, 17, 0]
    # each record is its OWN gzip member: decompressing the first member
    # of the 4-record blob yields exactly one record
    import zlib

    d = zlib.decompressobj(wbits=31)
    first = d.decompress(blob)
    assert first.count(b"WARC/1.0\r\n") == 1 and d.unused_data
    # plain path (what Ray delivers after gunzip-by-extension): identical
    import gzip as _gz

    plain = _gz.decompress(blob)  # concatenates all members
    t2 = _parse_warc_members(plain)
    assert t2.equals(t)
    # determinism: same rows -> same bytes (mtime=0)
    assert blob == b"".join(_warc_record_gz(*r) for r in rows)
    # corruption fails loudly, not silently
    import pytest as _pytest

    with _pytest.raises(ValueError):
        _parse_warc_members(plain[:-2])  # truncated terminator


def test_knn_mrl_two_stage_prunes_and_recalls():
    """knn_mrl's prefix admission must genuinely prune (not a no-op
    threshold) while the admitted set still contains most of the true
    top-k — and the full pipeline must equal a sequential numpy replay
    of its stated two-stage semantics."""
    import pyarrow.parquet as pq

    from aarhus_ray.functions.ann import (
        MRL_PREFIX,
        MRL_THRESH,
        knn_cosine_bruteforce,
        knn_mrl,
    )

    sf = SF
    mrl = knn_mrl(sf)
    brute = knn_cosine_bruteforce(sf)
    # sequential replay of the stated semantics
    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    m = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    q = m[ids == 0][0]
    qn = q / np.linalg.norm(q)
    qp = q[:MRL_PREFIX] / np.linalg.norm(q[:MRL_PREFIX])
    mp = m[:, :MRL_PREFIX]
    pn = np.linalg.norm(mp, axis=1); pn[pn == 0] = 1
    pcos = np.round((mp / pn[:, None]) @ qp, 3)
    keep = pcos >= MRL_THRESH
    assert 0 < keep.sum() < 0.5 * len(ids)  # prunes at least half
    full = (m[keep] / np.linalg.norm(m[keep], axis=1)[:, None]) @ qn
    kids = ids[keep]
    order = np.lexsort((kids, -full))[:10]
    assert list(mrl["vec_id"]) == list(kids[order])
    assert np.allclose(mrl["cos"], np.round(full[order], 3))
    # recall sanity vs exact brute top-10
    overlap = len(set(mrl["vec_id"]) & set(brute["vec_id"]))
    assert overlap >= 5, f"MRL recall collapsed: {overlap}/10"


def test_logreg_matches_sequential_replay():
    """target_classifier_logreg's distributed per-round gradient folds
    must equal a sequential numpy full-batch GD replay (float64
    tolerance — the only cross-batch float reduction is the gradient
    sum), and the loss must decrease monotonically toward the class
    prior's entropy."""
    import hashlib
    import re

    from aarhus_ray.functions.cleaning import (
        DSIR_TARGET_SOURCES,
        LR_B,
        LR_ITERS,
        LR_RATE,
        target_classifier_logreg,
    )

    out = target_classifier_logreg(SF)
    losses = (
        out[out["source"].str.startswith("_loss_iter")]
        .sort_values("n_docs")["n_correct"]
        .to_numpy()
        / 1e6
    )
    assert len(losses) == LR_ITERS
    assert (np.diff(losses) < 0).all(), "loss must strictly decrease"

    # sequential replay with the same featurization (md5-hashed unigram
    # mean bag; regex == the frozen ASCII tokenizer on this corpus)
    t = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    tgt = set(DSIR_TARGET_SOURCES)
    X, y = [], []
    for tx, src in zip(t["text"].to_pylist(), t["source"].to_pylist()):
        toks = re.findall(r"[a-z0-9]+", tx.lower())
        v = np.zeros(LR_B)
        for tok in toks:
            v[int(hashlib.md5(tok.encode()).hexdigest()[:8], 16) % LR_B] += 1
        if toks:
            v /= len(toks)
        X.append(v)
        y.append(1.0 if src in tgt else 0.0)
    X, y = np.array(X), np.array(y)
    w, b = np.zeros(LR_B), 0.0
    ref_losses = []
    for _ in range(LR_ITERS):
        z = X @ w + b
        p = 1 / (1 + np.exp(-z))
        eps = 1e-12
        ref_losses.append(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        err = p - y
        w -= LR_RATE * (X.T @ err / len(y))
        b -= LR_RATE * err.mean()
    assert np.allclose(losses, ref_losses, atol=1e-5)
    # confusion counts: replay the final model
    z = X @ w + b
    pred = (z > 0).astype(int)
    srcs = t["source"].to_pylist()
    conf = out[~out["source"].str.startswith("_loss_iter")].set_index("source")
    for s in sorted(set(srcs)):
        m = np.array([x == s for x in srcs])
        assert conf.loc[s, "n_docs"] == m.sum()
        assert conf.loc[s, "n_pred_target"] == pred[m].sum()
        assert conf.loc[s, "n_correct"] == (pred[m] == y[m].astype(int)).sum()


def test_events_dedup_keep_latest_handles_negative_ts_and_ids(tmp_path):
    """The byte-packed Max reduction must order pre-epoch timestamps and
    negative event ids correctly (sign-bit-flip uint64 mapping); a plain
    uint64 cast would wrap negatives to maximal and crown the OLDEST row."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aarhus_ray.functions.windows import events_dedup_keep_latest

    df = pd.DataFrame(
        {
            "event_id": [-5, 7, 3, -9, 2, 11],
            "ts": pd.to_datetime(
                [
                    "1969-06-01",  # pre-epoch: negative int64 us
                    "1969-07-01",
                    "2024-01-01",
                    "2024-01-01",
                    "1969-06-01",
                    "2024-02-02",
                ]
            ).astype("datetime64[us]"),
            "user_id": [1, 1, 2, 2, 1, 3],
            "event_type": ["a", "a", "b", "b", "a", "c"],
            "value": [0.0] * 6,
            "props": [""] * 6,
        }
    )
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    out = events_dedup_keep_latest(str(tmp_path))
    # replay: winner = max (ts, event_id) per (user_id, event_type)
    ref = (
        df.sort_values(["user_id", "event_type", "ts", "event_id"])
        .groupby(["user_id", "event_type"], sort=True)
        .tail(1)[["user_id", "event_type", "event_id"]]
        .sort_values(["user_id", "event_type"])
        .reset_index(drop=True)
    )
    assert out["event_id"].tolist() == ref["event_id"].tolist() == [7, 3, 11]


def test_bm25_topk_serving_keeps_pools_it_did_not_start():
    """bm25_topk_serving tears down only the pool it started: a pool
    started beforehand for the same index (k=5) is still registered after
    the op and still answers, bit-identical to query_index."""
    from aarhus_ray.functions.fulltext import (
        FT_QUERIES, _ensure_index, _query_table, bm25_topk, bm25_topk_serving,
    )
    from aarhus_ray.pipelines.query import (
        _SERVE_POOLS, query_index, serve_queries, start_serving, stop_serving,
    )

    index = _ensure_index(SF, fresh=False)
    start_serving(index, k=5, n_actors=1)
    before = set(_SERVE_POOLS)
    try:
        got = bm25_topk_serving(SF)
        assert got.equals(bm25_topk(SF, fresh=False))
        assert set(_SERVE_POOLS) == before  # its own pool is gone, ours stays
        q = _query_table(FT_QUERIES)
        ref = (
            query_index(index, q, k=5, resolve_urls=False)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        again = serve_queries(index, q, k=5, n_actors=1)
        assert set(_SERVE_POOLS) == before  # answered by the standing pool
        cols = ["query_id", "rank", "doc_id", "score"]
        assert again[cols].equals(ref[cols])
    finally:
        stop_serving(index)
