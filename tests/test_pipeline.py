"""End-to-end pipeline conformance (SURVEY.md §5.1/§5.3/§5.5):
byte-identity vs goldens, top-k rank-identity + exact score equality,
WAND == brute force over the real index, dedup invariants, resume."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aarhus_ray import fixtures
from aarhus_ray.pipelines.build import build_index
from aarhus_ray.pipelines.query import query_index

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _docs_table(index_dir, columns):
    return pa.concat_tables(
        pq.read_table(f, columns=columns)
        for f in sorted(glob.glob(os.path.join(index_dir, "docs", "pid=*.parquet")))
    )


def test_stats_golden(golden_index):
    with open(os.path.join(GOLDEN_DIR, "stats.json")) as f:
        want = json.load(f)
    got = golden_index["stats"]
    assert got["n_docs"] == want["n_docs"]
    assert got["total_len"] == want["total_len"]
    assert got["avgdl"] == want["avgdl"]


def test_extracted_golden_byte_identity(golden_index):
    """Pipeline-extracted text must be byte-identical per url to the
    committed golden (BASELINE.json:15)."""
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "extracted.parquet"))
    docs = _docs_table(golden_index["index"], ["url", "text"]).sort_by("url")
    assert docs.num_rows == golden.num_rows
    assert docs["url"].to_pylist() == golden["url"].to_pylist()
    g_texts = golden["text"].to_pylist()
    for i, (got, want) in enumerate(zip(docs["text"].to_pylist(), g_texts)):
        assert got == want, f"byte drift at url {golden['url'][i]}"


def test_extracted_matches_fixture_text_column(golden_index):
    """The fixture's `text` column is the canonical extraction of its html;
    the pipeline must reproduce it for every dedup winner."""
    pages = fixtures.gen_pages(1000, seed=42)
    from aarhus_ray.partition import hash64_column, normalize_url

    urls = np.asarray([normalize_url(u) for u in pages["url"].to_pylist()], dtype=object)
    ts = pages["warc_ts"].cast("int64").to_numpy(zero_copy_only=False)
    texts = pages["text"].to_pylist()
    order = np.lexsort((hash64_column(texts), ts, urls))
    winner = {}
    for i in order:
        winner[urls[i]] = texts[i]
    docs = _docs_table(golden_index["index"], ["url", "text"])
    for url, text in zip(docs["url"].to_pylist(), docs["text"].to_pylist()):
        assert text == winner[url]


def test_topk_golden_rank_identity(golden_index):
    """Rank-identity AND exact float64 score equality vs the committed
    golden (BASELINE.json:6; frozen order score DESC, doc_id ASC)."""
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "topk.parquet"))
    q = fixtures.gen_queries(50, seed=42)
    res = query_index(golden_index["index"], q, k=10, resolve_urls=False)
    got = res.to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    want = golden.to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["query_id"].to_numpy() == want["query_id"].to_numpy()).all()
    assert (got["rank"].to_numpy() == want["rank"].to_numpy()).all()
    assert (got["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    assert (got["score"].to_numpy() == want["score"].to_numpy()).all(), "scores not exact"


def test_wand_equals_brute_on_real_index(golden_index):
    q = fixtures.gen_queries(30, seed=7)
    wand = (
        query_index(golden_index["index"], q, k=10, method="wand", resolve_urls=False)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    brute = (
        query_index(golden_index["index"], q, k=10, method="brute", resolve_urls=False)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(wand) == len(brute)
    assert (wand["doc_id"].to_numpy() == brute["doc_id"].to_numpy()).all()
    assert (wand["score"].to_numpy() == brute["score"].to_numpy()).all()


def test_wand_daat_cursor_equals_brute_on_sharded_index(golden_index):
    """The reference doc-at-a-time cursor WAND (wand.wand_topk over
    Segment.cursor, run in-process as a test oracle) must also be exact on
    the real index, including heavy terms salted across multiple shards
    (one cursor per (term, shard))."""
    from aarhus_ray.stages.query_stage import QueryScorer, cursor_wand_topk
    from aarhus_ray.textnorm import tokenize

    q = fixtures.gen_queries(12, seed=3)
    scorer = QueryScorer(golden_index["index"], k=10, method="brute")
    hits = [
        cursor_wand_topk(scorer, tokenize(text))
        for _, text in sorted(zip(q["query_id"].to_pylist(), q["text"].to_pylist()))
    ]
    daat = {"doc_id": np.concatenate([d for d, _ in hits]),
            "score": np.concatenate([s for _, s in hits])}
    brute = (
        query_index(golden_index["index"], q, k=10, method="brute", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(daat["doc_id"]) == len(brute)
    assert (daat["doc_id"] == brute["doc_id"].to_numpy()).all()
    assert (daat["score"] == brute["score"].to_numpy()).all()


def test_query_scorer_rejects_unknown_method(golden_index):
    """``method`` is "wand" or "brute"; any other value (a typo, or the
    former cursor method) raises instead of silently scoring with wand."""
    from aarhus_ray.stages.query_stage import QueryScorer

    for method in ("wnad", "wand_daat", ""):
        with pytest.raises(ValueError, match="method must be 'wand' or 'brute'"):
            QueryScorer(golden_index["index"], k=10, method=method)
    for method in ("wand", "brute"):
        assert QueryScorer(golden_index["index"], k=10, method=method).method == method


def test_bad_scorer_args_raise_at_the_call(golden_index, monkeypatch):
    """An unknown ``mode``, or a positional mode with method="brute",
    raises ``ValueError`` at the query_index / start_serving call, before
    any Ray work: query_index builds no Dataset and start_serving spawns
    no actor."""
    from aarhus_ray.pipelines import query as qmod
    from aarhus_ray.stages.query_stage import QueryScorer

    idx = golden_index["index"]
    q = fixtures.gen_queries(4, seed=3)
    spawned = []

    class NoSpawn:
        @staticmethod
        def remote(*a):
            spawned.append(a)
            raise AssertionError("start_serving spawned an actor")

    monkeypatch.setattr(qmod, "_ServeScorer", NoSpawn)
    pools = dict(qmod._SERVE_POOLS)
    for method, mode, match in (("wand", "bogus", "not 'bogus'"),
                                ("brute", "phrase", "phrase scoring supports method='wand'")):
        with pytest.raises(ValueError, match=match):
            QueryScorer(idx, k=5, method=method, mode=mode)
        with pytest.raises(ValueError, match=match):
            qmod.query_index(idx, q, k=5, method=method, mode=mode)
        with pytest.raises(ValueError, match=match):
            qmod.start_serving(idx, k=5, method=method, n_actors=2, mode=mode)
        with pytest.raises(ValueError, match=match):
            qmod.serve_queries(idx, q, k=5, method=method, n_actors=2, mode=mode)
    assert spawned == [] and qmod._SERVE_POOLS == pools


def test_dedup_and_doc_id_invariants(golden_index):
    docs = _docs_table(golden_index["index"], ["doc_id", "url", "doclen"])
    urls = docs["url"].to_pylist()
    assert len(urls) == len(set(urls)), "dedup must leave exactly one row per url"
    ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    assert len(np.unique(ids)) == len(ids)
    # per-partition: doc ids contiguous from (pid<<40) and sorted by url
    for f in glob.glob(os.path.join(golden_index["index"], "docs", "pid=*.parquet")):
        t = pq.read_table(f, columns=["doc_id", "url"])
        pid = int(os.path.basename(f)[4:8])
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        assert (d == (np.uint64(pid << 40) + np.arange(len(d), dtype=np.uint64))).all()
        u = t["url"].to_pylist()
        assert u == sorted(u)


def test_all_oov_query_absent_from_results(golden_index):
    q = pa.table({"query_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["zzznotinvocab qqqalsomissing", "the"], pa.string())})
    res = query_index(golden_index["index"], q, k=10, resolve_urls=False).to_pandas()
    assert 0 not in set(res["query_id"])
    assert 1 in set(res["query_id"])


def test_results_resolve_urls(golden_index):
    q = pa.table({"query_id": pa.array([0], pa.int64()), "text": pa.array(["the"], pa.string())})
    res = query_index(golden_index["index"], q, k=5).to_pandas()
    assert set(res.columns) >= {"query_id", "rank", "doc_id", "url", "score"}
    docs = _docs_table(golden_index["index"], ["doc_id", "url"])
    lookup = dict(zip(docs["doc_id"].to_pylist(), docs["url"].to_pylist()))
    for _, r in res.iterrows():
        assert lookup[int(r["doc_id"])] == r["url"]


def test_url_resolver_batch_matches_docs_in_any_order(golden_index):
    """One searchsorted per touched pid gives every doc_id its own url,
    whatever the order and pid mix of the batch (repeats included)."""
    from aarhus_ray.stages.query_stage import UrlResolver

    docs = _docs_table(golden_index["index"], ["doc_id", "url"])
    ids = docs["doc_id"].to_numpy().astype(np.uint64)
    pick = np.random.default_rng(3).choice(len(ids), 300, replace=True)
    got = UrlResolver(golden_index["index"])(pa.table({"doc_id": pa.array(ids[pick], pa.uint64())}))
    assert got["url"].to_pylist() == [docs["url"][int(i)].as_py() for i in pick]


def _tiny_docs(tmp_path):
    """docs/pid=0000.parquet holding doc_ids 0, 2 and 5 only."""
    os.makedirs(tmp_path / "docs")
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 2, 5], pa.uint64()),
                  "url": pa.array(["u0", "u2", "u5"], pa.string())}),
        str(tmp_path / "docs" / "pid=0000.parquet"),
    )
    return str(tmp_path)


def test_url_resolver_rejects_id_missing_inside_its_pid(tmp_path):
    """A doc_id between two live ids of its pid file (e.g. one from an
    older index version) raises ValueError naming it, instead of taking
    the next doc's url."""
    from aarhus_ray.stages.query_stage import UrlResolver

    r = UrlResolver(_tiny_docs(tmp_path))
    assert r(pa.table({"doc_id": pa.array([5, 0], pa.uint64())}))["url"].to_pylist() == ["u5", "u0"]
    with pytest.raises(ValueError, match="doc_id 3 "):
        r(pa.table({"doc_id": pa.array([0, 3], pa.uint64())}))


def test_url_resolver_rejects_id_past_the_end_or_missing_pid(tmp_path):
    """A doc_id past the last row of its pid file, or in a pid with no
    docs file, raises ValueError naming it (not IndexError or
    FileNotFoundError)."""
    from aarhus_ray.partition import DOC_ID_PARTITION_SHIFT
    from aarhus_ray.stages.query_stage import UrlResolver

    r = UrlResolver(_tiny_docs(tmp_path))
    with pytest.raises(ValueError, match="doc_id 9 "):
        r(pa.table({"doc_id": pa.array([9], pa.uint64())}))
    other = (7 << DOC_ID_PARTITION_SHIFT) | 1
    with pytest.raises(ValueError, match=f"doc_id {other} "):
        r(pa.table({"doc_id": pa.array([2, other], pa.uint64())}))


def test_url_resolution_releases_its_cpus(golden_index):
    """attach_urls runs as a task: with the cyclic GC off, every CPU is
    free again within 2 s of query_index(resolve_urls=True) returning (an
    actor-pool resolver keeps its slots until the GC collects the pool)."""
    import gc
    import time

    import ray

    from aarhus_ray.pipelines.query import stop_serving

    def wait_all_free(limit_s):
        t0 = time.monotonic()
        while time.monotonic() - t0 < limit_s:
            if ray.available_resources().get("CPU", 0) == total:
                return True
            time.sleep(0.05)
        return ray.available_resources().get("CPU", 0) == total

    stop_serving()
    gc.collect()
    total = ray.cluster_resources()["CPU"]
    assert wait_all_free(30), "CPUs held before the call"
    q = fixtures.gen_queries(8, seed=3)
    gc.disable()
    try:
        res = query_index(golden_index["index"], q, k=5, resolve_urls=True).to_pandas()
        assert len(res) and res["url"].notna().all()
        assert wait_all_free(2), ray.available_resources()
    finally:
        gc.enable()


def test_build_resume_is_noop_and_identical(golden_index, tmp_path):
    """Resume after completion: nothing recomputed, stats identical.
    Also: a fresh build at the same config reproduces identical segments
    (determinism across runs)."""
    stats2 = build_index(
        golden_index["pages"],
        golden_index["index"],
        num_partitions=8,
        num_segments=2,
        n_salts=4,
        resume=True,
    )
    assert stats2["n_docs"] == golden_index["stats"]["n_docs"]

    out2 = str(tmp_path / "index2")
    build_index(golden_index["pages"], out2, num_partitions=8, num_segments=2, n_salts=4)
    for seg in sorted(os.listdir(os.path.join(golden_index["index"], "segments"))):
        a = os.path.join(golden_index["index"], "segments", seg, "postings.bin")
        b = os.path.join(out2, "segments", seg, "postings.bin")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), f"nondeterministic segment {seg}"
    shutil.rmtree(out2, ignore_errors=True)


def test_resume_rejects_config_drift(golden_index):
    with pytest.raises(ValueError):
        build_index(
            golden_index["pages"],
            golden_index["index"],
            num_partitions=16,  # drift
            num_segments=2,
            n_salts=4,
            resume=True,
        )


def test_partial_resume_completes_missing_partitions(tmp_path):
    """Kill-and-resume: delete one docs partition + phase markers; resume
    must rebuild only what's missing and converge to the same index."""
    pages = str(tmp_path / "pages")
    fixtures.write_pages_dir(pages, 200, seed=11, rows_per_file=100)
    out = str(tmp_path / "idx")
    build_index(pages, out, num_partitions=4, num_segments=2, n_salts=2)
    docs = sorted(glob.glob(os.path.join(out, "docs", "pid=*.parquet")))
    ref = {f: open(f, "rb").read() for f in docs}
    # simulate a crash: lose one partition and the phase markers
    victim = docs[1]
    os.remove(victim)
    # drop its manifest row (as if the write never committed)
    man = os.path.join(out, "manifest.jsonl")
    keep = [
        line
        for line in open(man)
        if not (
            '"stage": "docs"' in line and f'"partition_id": {int(os.path.basename(victim)[4:8])}' in line
        )
    ]
    with open(man, "w") as f:
        f.writelines(keep)
    os.remove(os.path.join(out, "_INDEX_DONE"))
    build_index(pages, out, num_partitions=4, num_segments=2, n_salts=2, resume=True)
    for f, want in ref.items():
        with open(f, "rb") as fh:
            assert fh.read() == want, f"resume produced different {f}"


def test_resume_detects_corrupted_partition(tmp_path):
    """A docs partition whose bytes no longer match its manifest checksum
    must be rebuilt on resume, not trusted (lineage integrity)."""
    pages = str(tmp_path / "pages")
    fixtures.write_pages_dir(pages, 150, seed=13, rows_per_file=75)
    out = str(tmp_path / "idx")
    build_index(pages, out, num_partitions=4, num_segments=2, n_salts=2)
    victim = sorted(glob.glob(os.path.join(out, "docs", "pid=*.parquet")))[0]
    good = open(victim, "rb").read()
    with open(victim, "ab") as f:  # corrupt: append junk (checksum mismatch)
        f.write(b"CORRUPTION")
    os.remove(os.path.join(out, "_INDEX_DONE"))
    build_index(pages, out, num_partitions=4, num_segments=2, n_salts=2, resume=True)
    with open(victim, "rb") as f:
        assert f.read() == good, "corrupted partition must be rebuilt bit-identically"


def test_doc_sharded_query_matches_full_scorer(golden_index):
    """The cluster scorer-state path (doc-range-sharded scorers, each
    holding only its partitions' doclens) must be bit-identical to the
    full-corpus scorer, and each range scorer's memory must be bounded by
    its doc range."""
    from aarhus_ray.pipelines.query import doc_pids, query_index_doc_sharded
    from aarhus_ray.stages.query_stage import DoclenTable

    q = fixtures.gen_queries(40, seed=11)
    full = (
        query_index(golden_index["index"], q, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    sharded = (
        query_index_doc_sharded(golden_index["index"], q, n_ranges=3, k=10)
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(full) == len(sharded)
    assert (full["query_id"].to_numpy() == sharded["query_id"].to_numpy()).all()
    assert (full["rank"].to_numpy() == sharded["rank"].to_numpy()).all()
    assert (full["doc_id"].to_numpy().astype(np.uint64)
            == sharded["doc_id"].to_numpy().astype(np.uint64)).all()
    assert (full["score"].to_numpy() == sharded["score"].to_numpy()).all()

    # memory profile: a range scorer's doclen table holds ONLY its pids
    pids = doc_pids(golden_index["index"])
    assert len(pids) == 8  # golden config P=8
    total = len(DoclenTable(golden_index["index"]).doc_ids)
    subset = pids[:3]
    sub_tbl = DoclenTable(golden_index["index"], pids=subset)
    per_pid = [
        len(pq.read_table(
            os.path.join(golden_index["index"], "docs", f"pid={p:04d}.parquet"),
            columns=["doc_id"],
        ))
        for p in subset
    ]
    assert len(sub_tbl.doc_ids) == sum(per_pid) < total


def test_plan_distributed_equals_serial(golden_index):
    """The distributed plan sample (round 3) must produce the IDENTICAL
    plan to the serial reference semantics: boundaries = DF-sorted
    flat-array quantiles (round 4 — df mass predicts postings bytes and
    merge rows; occurrence mass measured a 42× per-range byte spread),
    heavy = df/n_sample >= frac, over the first sample_docs rows in file
    order."""
    import glob as _glob

    from aarhus_ray.extract import extract_text
    from aarhus_ray.pipelines.build import _plan_terms_from_pages
    from aarhus_ray.textnorm import tokenize

    sample_docs, num_segments, frac = 600, 4, 0.05
    paths = sorted(_glob.glob(os.path.join(golden_index["pages"], "*.parquet")))
    texts = []
    for p in paths:
        if len(texts) >= sample_docs:
            break
        col = pq.read_table(p, columns=["html"])["html"]
        texts.extend(extract_text(h) for h in col.to_pylist()[: sample_docs - len(texts)])
    # naive reference: per-doc DISTINCT tokens -> flat df-sorted array
    flat = []
    df: dict[str, int] = {}
    for t in texts:
        toks = tokenize(t)
        for w in set(toks):
            flat.append(w)
            df[w] = df.get(w, 0) + 1
    occ = sorted(flat)
    want_bounds = []
    for i in range(1, num_segments):
        b = occ[min(len(occ) - 1, i * len(occ) // num_segments)]
        if not want_bounds or b > want_bounds[-1]:
            want_bounds.append(b)
    want_heavy = sorted(w for w, c in df.items() if c / len(texts) >= frac)

    got_bounds, got_heavy = _plan_terms_from_pages(
        golden_index["pages"], num_segments, sample_docs, frac
    )
    assert got_bounds == want_bounds
    assert got_heavy == want_heavy


def test_conjunctive_mode_on_real_index(golden_index):
    """mode='and' through the full pipeline: wand == brute (bit-identical),
    every hit contains every query term, and AND hits form a prefix-order
    subset of the OR ranking restricted to all-terms docs."""
    q = fixtures.gen_queries(20, seed=11)
    conj = (
        query_index(golden_index["index"], q, k=10, mode="and", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    conj_brute = (
        query_index(golden_index["index"], q, k=10, mode="and", method="brute", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(conj) == len(conj_brute)
    assert (conj["doc_id"].to_numpy() == conj_brute["doc_id"].to_numpy()).all()
    assert (conj["score"].to_numpy() == conj_brute["score"].to_numpy()).all()

    # containment: every AND hit's doc text holds every query term
    from aarhus_ray.textnorm import tokenize

    docs = _docs_table(golden_index["index"], ["doc_id", "text"])
    text_of = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    qtexts = dict(zip(q["query_id"].to_pylist(), q["text"].to_pylist()))
    for row in conj.itertuples():
        terms = set(tokenize(qtexts[row.query_id]))
        doc_toks = set(tokenize(text_of[row.doc_id]))
        assert terms <= doc_toks, f"doc {row.doc_id} missing terms for query {row.query_id}"


def test_conjunctive_oov_empties_on_real_index(golden_index):
    q = pa.table({"query_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["the zzznotinvocab", "the"], pa.string())})
    res = query_index(golden_index["index"], q, k=10, mode="and", resolve_urls=False).to_pandas()
    assert (res["query_id"] == 0).sum() == 0  # OOV conj term -> empty
    assert (res["query_id"] == 1).sum() > 0


def test_msm_mode_on_real_index(golden_index):
    """mode='msm' (minimum_should_match): wand == brute bit-identical;
    m=1 reproduces mode='or' exactly; on two-term queries m=2 reproduces
    mode='and' exactly; and every m=2 hit's doc contains >= 2 distinct
    query terms (independent python containment check)."""
    from aarhus_ray.textnorm import tokenize

    q = fixtures.gen_queries(20, seed=13)

    def run(mode, **kw):
        return (
            query_index(golden_index["index"], q, k=10, mode=mode,
                        resolve_urls=False, **kw)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )

    msm2 = run("msm", min_should_match=2)
    msm2_brute = run("msm", min_should_match=2, method="brute")
    assert len(msm2) == len(msm2_brute)
    assert (msm2["doc_id"].to_numpy() == msm2_brute["doc_id"].to_numpy()).all()
    assert (msm2["score"].to_numpy() == msm2_brute["score"].to_numpy()).all()

    # m=1 is plain disjunctive retrieval
    msm1 = run("msm", min_should_match=1)
    disj = run("or")
    assert (msm1["doc_id"].to_numpy() == disj["doc_id"].to_numpy()).all()
    assert (msm1["score"].to_numpy() == disj["score"].to_numpy()).all()

    # containment: every m=2 hit matches >= 2 distinct query terms
    docs = _docs_table(golden_index["index"], ["doc_id", "text"])
    text_of = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    qtexts = dict(zip(q["query_id"].to_pylist(), q["text"].to_pylist()))
    for row in msm2.itertuples():
        terms = set(tokenize(qtexts[row.query_id]))
        doc_toks = set(tokenize(text_of[row.doc_id]))
        assert len(terms & doc_toks) >= 2

    # on two-distinct-term queries, m=2 == conjunctive AND
    texts = docs["text"].to_pylist()
    t_a = tokenize(texts[0])
    t_b = tokenize(texts[5])
    two_term = [
        f"{t_a[0]} {t_a[1]}" if t_a[0] != t_a[1] else f"{t_a[0]} {t_a[2]}",
        f"{t_b[0]} {t_b[3]}" if t_b[0] != t_b[3] else f"{t_b[0]} {t_b[4]}",
    ]
    q2 = pa.table({"query_id": pa.array(range(len(two_term)), pa.int64()),
                   "text": pa.array(two_term, pa.string())})
    msm_and = (
        query_index(golden_index["index"], q2, k=10, mode="msm",
                    min_should_match=2, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    conj = (
        query_index(golden_index["index"], q2, k=10, mode="and", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(msm_and) == len(conj)
    assert (msm_and["doc_id"].to_numpy() == conj["doc_id"].to_numpy()).all()
    assert (msm_and["score"].to_numpy() == conj["score"].to_numpy()).all()


def test_phrase_mode_on_real_index(golden_index):
    """mode='phrase': engine result == full disjunctive brute ranking
    filtered by an independent python adjacency check, scores bit-identical
    (phrase score = BM25 sum of the phrase's distinct terms)."""
    from aarhus_ray.textnorm import tokenize

    docs = _docs_table(golden_index["index"], ["doc_id", "text"])
    texts = docs["text"].to_pylist()
    doc_ids = docs["doc_id"].to_pylist()
    toks0 = tokenize(texts[0])
    toks7 = tokenize(texts[7])
    phrases = [
        " ".join(toks0[:2]),           # guaranteed >=1 match
        " ".join(toks7[3:6]),          # trigram
        toks0[0],                      # single word == term lookup
        "zzznotinvocab " + toks0[0],   # OOV -> empty
    ]
    q = pa.table({"query_id": pa.array(range(len(phrases)), pa.int64()),
                  "text": pa.array(phrases, pa.string())})
    got = (
        query_index(golden_index["index"], q, k=10, mode="phrase", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    # reference: full disjunctive brute ranking, filtered by python
    # adjacency check over the stored texts
    full = (
        query_index(golden_index["index"], q, k=len(texts), method="brute", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    text_of = dict(zip(doc_ids, texts))

    def has_phrase(doc_text, seq):
        toks = tokenize(doc_text)
        L = len(seq)
        return any(toks[i:i + L] == seq for i in range(len(toks) - L + 1))

    for qid, phrase in enumerate(phrases):
        seq = tokenize(phrase)
        sub = full[full["query_id"] == qid]
        # disjunctive candidates containing ALL terms and the adjacency run
        ref = sub[[
            set(seq) <= set(tokenize(text_of[d])) and has_phrase(text_of[d], seq)
            for d in sub["doc_id"]
        ]].head(10)
        g = got[got["query_id"] == qid]
        assert list(g["doc_id"]) == list(ref["doc_id"]), f"phrase {phrase!r}"
        assert (g["score"].to_numpy() == ref["score"].to_numpy()).all()
    assert (got[got["query_id"] == 0].shape[0]) >= 1     # bigram matched
    assert (got[got["query_id"] == 3].shape[0]) == 0     # OOV empty


def test_facet_filtered_query_on_real_index(golden_index):
    """filter_ids through the full pipeline: (1) wand == brute under the
    filter (bit-identical), (2) filtered top-k == full brute ranking
    restricted to the facet set (global stats: scores unchanged by the
    filter), (3) every hit's lang is in the facet, (4) empty filter ->
    empty, full filter == unfiltered."""
    import numpy as np

    from aarhus_ray.pipelines.query import facet_doc_ids

    idx = golden_index["index"]
    allowed = facet_doc_ids(idx, "lang", ("en",))
    assert len(allowed) > 0 and np.all(np.diff(allowed.astype(np.int64)) > 0)
    q = fixtures.gen_queries(20, seed=13)
    filt = (
        query_index(idx, q, k=10, filter_ids=allowed, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    filt_brute = (
        query_index(idx, q, k=10, method="brute", filter_ids=allowed, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert (filt["doc_id"].to_numpy() == filt_brute["doc_id"].to_numpy()).all()
    assert (filt["score"].to_numpy() == filt_brute["score"].to_numpy()).all()

    # reference: deep unfiltered brute ranking restricted to the facet set
    docs = _docs_table(idx, ["doc_id", "lang"])
    n_docs = docs.num_rows
    full = (
        query_index(idx, q, k=n_docs, method="brute", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    allowed_set = set(allowed.tolist())
    for qid in full["query_id"].unique():
        sub = full[full["query_id"] == qid]
        ref = sub[[d in allowed_set for d in sub["doc_id"]]].head(10)
        g = filt[filt["query_id"] == qid]
        assert list(g["doc_id"]) == list(ref["doc_id"])
        assert (g["score"].to_numpy() == ref["score"].to_numpy()).all()

    lang_of = dict(zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist()))
    assert all(lang_of[d] == "en" for d in filt["doc_id"])

    empty = query_index(
        idx, q, k=10, filter_ids=np.empty(0, np.uint64), resolve_urls=False
    ).to_pandas()
    assert len(empty) == 0
    every = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    every.sort()
    all_filt = (
        query_index(idx, q, k=10, filter_ids=every, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    plain = (
        query_index(idx, q, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert (all_filt["doc_id"].to_numpy() == plain["doc_id"].to_numpy()).all()
    assert (all_filt["score"].to_numpy() == plain["score"].to_numpy()).all()


def test_prefix_mode_on_real_index(golden_index):
    """mode='prefix': a trailing-* term must score bit-identically to an
    or-mode query that spells out every matching vocabulary term; wand ==
    brute; a dead prefix empties; a bare * is ignored (contributes no
    terms)."""
    from aarhus_ray.textnorm import tokenize

    docs = _docs_table(golden_index["index"], ["doc_id", "text"])
    vocab = sorted({t for txt in docs["text"].to_pylist() for t in tokenize(txt)})
    # pick the first single-char prefix that expands to >= 2 terms
    prefix = next(
        c for c in sorted({t[0] for t in vocab})
        if sum(t.startswith(c) for t in vocab) >= 2
    )
    expanded = [t for t in vocab if t.startswith(prefix)]
    assert len(expanded) >= 2

    q = pa.table({
        "query_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([f"{prefix}*", "zzzq* " + expanded[0], "*"], pa.string()),
    })
    got = (
        query_index(golden_index["index"], q, k=10, mode="prefix", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    got_brute = (
        query_index(
            golden_index["index"], q, k=10, mode="prefix", method="brute", resolve_urls=False
        ).to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert (got["doc_id"].to_numpy() == got_brute["doc_id"].to_numpy()).all()
    assert (got["score"].to_numpy() == got_brute["score"].to_numpy()).all()

    # query 0: identical to or-mode over the spelled-out expansion
    q_or = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array([" ".join(expanded)], pa.string()),
    })
    want = (
        query_index(golden_index["index"], q_or, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    g0 = got[got["query_id"] == 0].reset_index(drop=True)
    assert (g0["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    assert (g0["score"].to_numpy() == want["score"].to_numpy()).all()

    # query 1: dead prefix drops, surviving literal == plain term query
    q_lit = pa.table({
        "query_id": pa.array([1], pa.int64()),
        "text": pa.array([expanded[0]], pa.string()),
    })
    want1 = (
        query_index(golden_index["index"], q_lit, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    g1 = got[got["query_id"] == 1].reset_index(drop=True)
    assert (g1["doc_id"].to_numpy() == want1["doc_id"].to_numpy()).all()

    # query 2: bare * expands to nothing -> empty result
    assert (got["query_id"] == 2).sum() == 0


def test_fuzzy_mode_on_real_index(golden_index):
    """mode='fuzzy': expansion == an independent scalar-DP Levenshtein<=1
    scan of the vocabulary, scored bit-identically to the spelled-out
    or-mode query; wand == brute; a hopeless token contributes nothing."""
    from aarhus_ray.stages.query_stage import _lev_dp
    from aarhus_ray.textnorm import tokenize

    docs = _docs_table(golden_index["index"], ["doc_id", "text"])
    vocab = sorted({t for txt in docs["text"].to_pylist() for t in tokenize(txt)})
    base = next(t for t in vocab if len(t) >= 4)
    typo = base[:-1] + ("x" if base[-1] != "x" else "y")  # one substitution
    expanded = sorted(t for t in vocab if _lev_dp(typo, t) <= 1)
    assert base in expanded

    q = pa.table({
        "query_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([typo, "qqqqzzzz"], pa.string()),
    })
    got = (
        query_index(golden_index["index"], q, k=10, mode="fuzzy", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    got_brute = (
        query_index(
            golden_index["index"], q, k=10, mode="fuzzy", method="brute", resolve_urls=False
        ).to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert (got["doc_id"].to_numpy() == got_brute["doc_id"].to_numpy()).all()
    assert (got["score"].to_numpy() == got_brute["score"].to_numpy()).all()

    q_or = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array([" ".join(expanded)], pa.string()),
    })
    want = (
        query_index(golden_index["index"], q_or, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    g0 = got[got["query_id"] == 0].reset_index(drop=True)
    assert (g0["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    assert (g0["score"].to_numpy() == want["score"].to_numpy()).all()

    assert (got["query_id"] == 1).sum() == 0  # no d<=1 neighbour

    # direct expansion check: segment-level candidates == DP scan of vocab
    from aarhus_ray.pipelines.query import list_segments
    from aarhus_ray.stages.query_stage import Segment

    idx = golden_index["index"]
    segs = [Segment(idx, sid) for sid in list_segments(idx)]
    for probe in [typo, vocab[0], vocab[-1], "a", vocab[len(vocab) // 2] + "s"]:
        got_exp = sorted({t for s in segs for t in s.fuzzy1_candidates(probe)})
        want_exp = sorted(t for t in vocab if _lev_dp(probe, t) <= 1)
        assert got_exp == want_exp, probe


def test_lev_le2_kernel_matches_scalar_dp():
    """The vectorized d≤2 DP kernel (min-accumulate insertion closure)
    agrees with the scalar capped DP over an exhaustive small-alphabet
    sweep plus seeded random pairs — every (≤2 / >2) boundary case."""
    import itertools
    import random

    from aarhus_ray.stages.query_stage import _lev_dist_cap, _lev_le2

    def check(tok: str, terms: list[str]) -> None:
        L = len(terms[0])
        mat = np.frombuffer("".join(terms).encode(), dtype=np.uint8).reshape(len(terms), L)
        got = _lev_le2(mat, np.frombuffer(tok.encode(), dtype=np.uint8))
        want = np.array([_lev_dist_cap(tok, t, 2) <= 2 for t in terms])
        assert (got == want).all(), (tok, [t for t, g, w in zip(terms, got, want) if g != w])

    # exhaustive: all ab-alphabet strings of length 3 vs all of lengths 1..5
    for m in range(1, 6):
        toks = ["".join(p) for p in itertools.product("ab", repeat=3)]
        terms = ["".join(p) for p in itertools.product("ab", repeat=m)]
        for tok in toks:
            check(tok, terms)
    # seeded random over a wider alphabet and longer strings
    rng = random.Random(42)
    for _ in range(200):
        m = rng.randint(1, 10)
        L = rng.randint(1, 12)
        tok = "".join(rng.choice("abcde") for _ in range(m))
        terms = ["".join(rng.choice("abcde") for _ in range(L)) for _ in range(20)]
        check(tok, terms)


def test_fuzzy2_mode_on_real_index(golden_index):
    """mode='fuzzy2': expansion == an independent capped-DP Levenshtein<=2
    vocabulary scan, a SUPERSET of the d<=1 expansion, scored
    bit-identically to the spelled-out or-mode query; wand == brute; a
    transposition typo (unreachable at d<=1) retrieves; a hopeless token
    contributes nothing."""
    from aarhus_ray.stages.query_stage import _lev_dist_cap
    from aarhus_ray.textnorm import tokenize

    docs = _docs_table(golden_index["index"], ["doc_id", "text"])
    vocab = sorted({t for txt in docs["text"].to_pylist() for t in tokenize(txt)})
    base = next(t for t in vocab if len(t) >= 4)
    typo2 = base[:-2] + base[-1] + base[-2]  # transposition: plain-lev d=2
    assert _lev_dist_cap(typo2, base, 2) == 2 or typo2 == base

    q = pa.table({
        "query_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([typo2, "qqqqzzzzqqqq"], pa.string()),
    })
    got = (
        query_index(golden_index["index"], q, k=10, mode="fuzzy2", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    got_brute = (
        query_index(
            golden_index["index"], q, k=10, mode="fuzzy2", method="brute", resolve_urls=False
        ).to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert (got["doc_id"].to_numpy() == got_brute["doc_id"].to_numpy()).all()
    assert (got["score"].to_numpy() == got_brute["score"].to_numpy()).all()

    expanded = sorted(t for t in vocab if _lev_dist_cap(typo2, t, 2) <= 2)
    assert base in expanded
    q_or = pa.table({
        "query_id": pa.array([0], pa.int64()),
        "text": pa.array([" ".join(expanded)], pa.string()),
    })
    want = (
        query_index(golden_index["index"], q_or, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    g0 = got[got["query_id"] == 0].reset_index(drop=True)
    assert (g0["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    assert (g0["score"].to_numpy() == want["score"].to_numpy()).all()
    assert (got["query_id"] == 1).sum() == 0  # no d<=2 neighbour

    # segment-level: fuzzy2 candidates == capped-DP scan, superset of fuzzy1
    from aarhus_ray.pipelines.query import list_segments
    from aarhus_ray.stages.query_stage import Segment

    idx = golden_index["index"]
    segs = [Segment(idx, sid) for sid in list_segments(idx)]
    for probe in [typo2, base, vocab[0], "a", vocab[len(vocab) // 2][:-1] + "xy"]:
        got_exp = sorted({t for s in segs for t in s.fuzzy2_candidates(probe)})
        want_exp = sorted(t for t in vocab if _lev_dist_cap(probe, t, 2) <= 2)
        assert got_exp == want_exp, probe
        got1 = {t for s in segs for t in s.fuzzy1_candidates(probe)}
        assert got1 <= set(got_exp), probe


def test_facet_counts_on_real_index(golden_index):
    """facet_counts == python reference over the docs table: distinct docs
    containing >=1 query term, counted by lang, facet values ascending."""
    from aarhus_ray.pipelines.query import facet_counts
    from aarhus_ray.textnorm import tokenize

    q = fixtures.gen_queries(12, seed=5)
    got = (
        facet_counts(golden_index["index"], q, facet="lang")
        .to_pandas().sort_values(["query_id", "lang"]).reset_index(drop=True)
    )
    docs = _docs_table(golden_index["index"], ["doc_id", "text", "lang"])
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    langs = docs["lang"].to_pylist()
    want_rows = []
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        counts: dict[str, int] = {}
        for dt, lg in zip(toks_of, langs):
            if terms & dt:
                counts[lg] = counts.get(lg, 0) + 1
        for lg in sorted(counts):
            want_rows.append((qid, lg, counts[lg]))
    assert list(map(tuple, got.itertuples(index=False))) == want_rows


def test_boost_mode_on_real_index(golden_index):
    """mode='boost': wand == brute bit-identical; all-weights-1 == plain
    or-mode; 't^2 t' == 't^3' (weights sum); negative boost rejected."""
    from aarhus_ray.textnorm import tokenize

    docs = _docs_table(golden_index["index"], ["doc_id", "text"])
    vocab = sorted({t for txt in docs["text"].to_pylist() for t in tokenize(txt)})
    a, b = vocab[0], vocab[len(vocab) // 2]

    q = pa.table({
        "query_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([f"{a}^2.5 {b}", f"{a} {b}", f"{a}^2 {a} {b}"], pa.string()),
    })
    got = (
        query_index(golden_index["index"], q, k=10, mode="boost", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    got_brute = (
        query_index(
            golden_index["index"], q, k=10, mode="boost", method="brute", resolve_urls=False
        ).to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert (got["doc_id"].to_numpy() == got_brute["doc_id"].to_numpy()).all()
    assert (got["score"].to_numpy() == got_brute["score"].to_numpy()).all()

    # query 1 (all weights 1) == plain or-mode
    q_or = pa.table({"query_id": pa.array([1], pa.int64()),
                     "text": pa.array([f"{a} {b}"], pa.string())})
    want = (
        query_index(golden_index["index"], q_or, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    g1 = got[got["query_id"] == 1].reset_index(drop=True)
    assert (g1["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    assert (g1["score"].to_numpy() == want["score"].to_numpy()).all()

    # repeated-term weight summing: 'a^2 a b' == 'a^3 b'
    q3 = pa.table({"query_id": pa.array([2], pa.int64()),
                   "text": pa.array([f"{a}^3 {b}"], pa.string())})
    want3 = (
        query_index(golden_index["index"], q3, k=10, mode="boost", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    g2 = got[got["query_id"] == 2].reset_index(drop=True)
    assert (g2["doc_id"].to_numpy() == want3["doc_id"].to_numpy()).all()
    assert (g2["score"].to_numpy() == want3["score"].to_numpy()).all()

    # negative boost raises inside the worker -> surfaces as a Ray error
    import pytest as _pytest

    qneg = pa.table({"query_id": pa.array([0], pa.int64()),
                     "text": pa.array([f"{a}^-1"], pa.string())})
    with _pytest.raises(Exception, match="negative boost"):
        query_index(golden_index["index"], qneg, k=10, mode="boost",
                    resolve_urls=False).to_pandas()


def test_boolean_mode_on_real_index(golden_index):
    """mode='boolean': containment/exclusion verified against doc texts;
    pure-SHOULD == or-mode bit-identical; pure-negative and OOV-MUST
    queries are empty."""
    from aarhus_ray.textnorm import tokenize

    docs = _docs_table(golden_index["index"], ["doc_id", "text"])
    vocab = sorted({t for txt in docs["text"].to_pylist() for t in tokenize(txt)})
    a, b, c = vocab[0], vocab[len(vocab) // 3], vocab[2 * len(vocab) // 3]

    q = pa.table({
        "query_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            f"+{a} -{b} {c}",     # must / must-not / should
            f"{a} {c}",           # pure SHOULD == or-mode
            f"-{a}",              # pure negative -> empty
            f"+zzznotinvocab {a}",  # OOV must -> empty
        ], pa.string()),
    })
    got = (
        query_index(golden_index["index"], q, k=10, mode="boolean", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    text_of = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    for row in got[got["query_id"] == 0].itertuples():
        dt = set(tokenize(text_of[row.doc_id]))
        assert a in dt and b not in dt

    q_or = pa.table({"query_id": pa.array([1], pa.int64()),
                     "text": pa.array([f"{a} {c}"], pa.string())})
    want = (
        query_index(golden_index["index"], q_or, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    g1 = got[got["query_id"] == 1].reset_index(drop=True)
    assert (g1["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    assert (g1["score"].to_numpy() == want["score"].to_numpy()).all()

    assert (got["query_id"] == 2).sum() == 0
    assert (got["query_id"] == 3).sum() == 0

    # MUST docs: the must term is required even when should terms match
    q_must = pa.table({"query_id": pa.array([0], pa.int64()),
                       "text": pa.array([f"+{a} {c}"], pa.string())})
    gm = query_index(golden_index["index"], q_must, k=100, mode="boolean",
                     resolve_urls=False).to_pandas()
    for row in gm.itertuples():
        assert a in set(tokenize(text_of[row.doc_id]))


def test_facet_topk_on_real_index(golden_index):
    """facet_topk == the full brute ranking restricted to each lang group
    (doc_ids AND scores bit-identical), ranks 1-based per group."""
    from aarhus_ray.pipelines.query import facet_topk

    q = fixtures.gen_queries(8, seed=3)
    got = (
        facet_topk(golden_index["index"], q, facet="lang", k=4)
        .to_pandas().sort_values(["query_id", "lang", "rank"]).reset_index(drop=True)
    )
    docs = _docs_table(golden_index["index"], ["doc_id", "lang"])
    lang_of = dict(zip(docs["doc_id"].to_pylist(), docs["lang"].to_pylist()))
    full = (
        query_index(golden_index["index"], q, k=len(lang_of), method="brute",
                    resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    full["lang"] = full["doc_id"].map(lang_of)
    want_rows = []
    for (qid, lg), sub in full.groupby(["query_id", "lang"], sort=True):
        for r, row in enumerate(sub.itertuples(), 1):
            if r > 4:
                break
            want_rows.append((qid, lg, r, row.doc_id, row.score))
    got_rows = list(map(tuple, got[["query_id", "lang", "rank", "doc_id", "score"]]
                        .itertuples(index=False)))
    assert got_rows == want_rows


def test_docvalue_sort_and_range_on_real_index(golden_index):
    """warc_ts numeric docvalue sidecar, end-to-end:
    (1) the sidecar carries the dedup WINNER's page ts (max per url);
    (2) sort_topk orders each query's match set by (warc_ts DESC, doc_id
        ASC) — equal to a python reference over the docs checkpoint;
    (3) docvalue_range_ids returns exactly the in-range doc_ids, and a
        range-filtered query's hits all lie in range with scores unchanged
        vs the unfiltered ranking (global BM25 stats)."""
    from aarhus_ray.pipelines.query import docvalue_range_ids, sort_topk
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "url", "text", "warc_ts"])

    # (1) winner ts: max warc_ts per url over the source pages
    pages = pa.concat_tables(
        pq.read_table(f, columns=["url", "warc_ts"])
        for f in sorted(glob.glob(os.path.join(golden_index["pages"], "*.parquet")))
    )
    pts = pages["warc_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    max_ts: dict[str, int] = {}
    for u, t in zip(pages["url"].to_pylist(), pts):
        if int(t) > max_ts.get(u, -1):
            max_ts[u] = int(t)
    for u, t in zip(docs["url"].to_pylist(),
                    docs["warc_ts"].to_numpy(zero_copy_only=False)):
        assert int(t) == max_ts[u]

    ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ts = docs["warc_ts"].to_numpy(zero_copy_only=False)
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]

    # (2) sort-by-field == python reference
    q = fixtures.gen_queries(12, seed=9)
    got = (
        sort_topk(idx, q, field="warc_ts", k=7)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    want_rows = []
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        m = [i for i, dt in enumerate(toks_of) if terms & dt]
        order = sorted(m, key=lambda i: (-int(ts[i]), int(ids[i])))[:7]
        for r, i in enumerate(order, start=1):
            want_rows.append((qid, r, int(ids[i]), int(ts[i])))
    got_rows = [
        (row.query_id, row.rank, int(row.doc_id), int(row.warc_ts))
        for row in got.itertuples(index=False)
    ]
    assert got_rows == want_rows

    # (3) range filter: exact id set + in-range hits + unchanged scores
    lo, hi = int(np.percentile(ts, 25)), int(np.percentile(ts, 75))
    allowed = docvalue_range_ids(idx, "warc_ts", lo, hi)
    want_ids = np.sort(ids[(ts >= lo) & (ts < hi)])
    assert np.array_equal(allowed, want_ids)

    filt = (
        query_index(idx, q, k=10, filter_ids=allowed, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    in_range = set(want_ids.tolist())
    assert all(int(d) in in_range for d in filt["doc_id"])
    # global stats: a doc's filtered score equals its unfiltered score
    unfilt = (
        query_index(idx, q, k=1000, resolve_urls=False)
        .to_pandas()
    )
    ref_score = {(r.query_id, int(r.doc_id)): r.score for r in unfilt.itertuples(index=False)}
    for r in filt.itertuples(index=False):
        assert r.score == ref_score[(r.query_id, int(r.doc_id))]


def test_match_counts_on_real_index(golden_index):
    """match_counts == python reference (distinct docs containing >=1 query
    term); empty-match queries emit no row; equals the sum of facet_counts
    over lang groups (each doc has exactly one lang)."""
    from aarhus_ray.pipelines.query import facet_counts, match_counts
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=11)
    got = match_counts(idx, q).to_pandas().sort_values("query_id").reset_index(drop=True)

    docs = _docs_table(idx, ["text"])
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    want = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        n = sum(1 for dt in toks_of if terms & dt)
        if n:
            want[qid] = n
    assert dict(zip(got["query_id"], got["n_hits"])) == want

    fc = facet_counts(idx, q, facet="lang").to_pandas()
    by_q = fc.groupby("query_id")["n_docs"].sum().to_dict()
    assert by_q == want

def test_matchset_aggs_on_real_index(golden_index):
    """date_histogram + matchset_stats == python reference over the match
    set (distinct docs containing >=1 query term, warc_ts docvalue):
    histogram buckets are value//bucket_us counts, stats are exact
    (count, min, max, sum); histogram counts sum to the stats count."""
    from aarhus_ray.pipelines.query import date_histogram, matchset_stats
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=11)
    bucket_us = 3_600_000_000  # hour buckets
    hist = (
        date_histogram(idx, q, bucket_us=bucket_us)
        .to_pandas().sort_values(["query_id", "bucket"]).reset_index(drop=True)
    )
    stats = matchset_stats(idx, q).to_pandas().sort_values("query_id").reset_index(drop=True)

    docs = _docs_table(idx, ["doc_id", "text", "warc_ts"])
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    ts_of = docs["warc_ts"].to_pylist()
    want_hist = {}
    want_stats = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        tss = [ts for dt, ts in zip(toks_of, ts_of) if terms & dt]
        if not tss:
            continue
        want_stats[qid] = (len(tss), min(tss), max(tss), sum(tss))
        for ts in tss:
            want_hist[(qid, ts // bucket_us)] = want_hist.get((qid, ts // bucket_us), 0) + 1

    got_hist = {
        (r.query_id, r.bucket): r.n_docs for r in hist.itertuples()
    }
    assert got_hist == want_hist
    got_stats = {
        r.query_id: (r.n_docs, r.min_ts, r.max_ts, r.sum_ts) for r in stats.itertuples()
    }
    assert got_stats == want_stats
    # histogram mass == stats count per query
    mass = hist.groupby("query_id")["n_docs"].sum().to_dict()
    assert mass == {qid: s[0] for qid, s in want_stats.items()}

def test_histogram_pipeline_on_real_index(golden_index):
    """histogram_agg == python reference: DENSE doclen bucket series per
    match set (zero-count buckets inside [min,max] bucket range INCLUDED),
    cum_docs a running sum, delta_docs the diff against a 0 start
    baseline; at least one query must exercise a zero bucket for the
    min_doc_count=0 semantics to be genuinely covered."""
    import pandas as pd

    from aarhus_ray.pipelines.query import histogram_agg
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=23)
    interval = 7
    got = (
        histogram_agg(idx, q, field="doclen", interval=interval)
        .to_pandas().sort_values(["query_id", "bucket"]).reset_index(drop=True)
    )

    docs = _docs_table(idx, ["doc_id", "text", "doclen"])
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    dl_of = docs["doclen"].to_pylist()
    rows = []
    saw_zero_bucket = False
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        bs = sorted(dl // interval for dt, dl in zip(toks_of, dl_of) if terms & dt)
        if not bs:
            continue
        cum = 0
        prev = 0
        for b in range(bs[0], bs[-1] + 1):
            n = bs.count(b)
            saw_zero_bucket = saw_zero_bucket or n == 0
            cum += n
            rows.append((qid, b, n, cum, n - prev))
            prev = n
    want = pd.DataFrame(rows, columns=["query_id", "bucket", "n_docs", "cum_docs", "delta_docs"])
    assert saw_zero_bucket  # the dense-series semantics must actually fire
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))

def test_rare_terms_on_real_index(golden_index):
    """rare_terms == python reference: terms with global df <= T present
    in >=1 matching doc, counted over the match set; T chosen so the
    fixture vocabulary yields a real rare tail (and the reference must
    find at least one bucket for the test to mean anything)."""
    from aarhus_ray.pipelines.query import rare_terms as rare_terms_agg
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    q = fixtures.gen_queries(8, seed=29)
    T = 5
    got = (
        rare_terms_agg(idx, q, max_doc_count=T)
        .to_pandas().sort_values(["query_id", "term"]).reset_index(drop=True)
    )

    docs = _docs_table(idx, ["doc_id", "text"])
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    gdf: dict[str, int] = {}
    for dt in toks_of:
        for t in dt:
            gdf[t] = gdf.get(t, 0) + 1
    rare_vocab = {t for t, d in gdf.items() if d <= T}
    assert rare_vocab  # fixture must have a rare tail
    want = []
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        matched = [dt for dt in toks_of if terms & dt]
        if not matched:
            continue
        for rt in sorted(rare_vocab):
            n = sum(1 for dt in matched if rt in dt)
            if n:
                want.append((qid, rt, n))
    assert [tuple(r) for r in got.itertuples(index=False)] == want
    assert want  # at least one bucket actually emitted

def test_function_score_on_real_index(golden_index):
    """function_score (linear time decay) == python reference: full
    disjunctive brute scoring x max(0, 1-|origin-ts|/scale), frozen
    (score DESC, doc_id ASC) order; factor<=1 so every final score is
    <= its bm25 score."""
    import numpy as np
    from aarhus_ray.pipelines.query import function_score_topk
    from aarhus_ray.textnorm import tokenize
    from aarhus_ray.bm25 import brute_force_topk
    from aarhus_ray.stages.query_stage import QueryScorer

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=17)
    docs = _docs_table(idx, ["doc_id", "warc_ts"])
    all_ts = dict(zip(docs["doc_id"].to_pylist(), docs["warc_ts"].to_pylist()))
    origin = max(all_ts.values()) + 1
    scale = max(all_ts.values()) - min(all_ts.values()) + 2

    got = (
        function_score_topk(idx, q, origin_us=origin, scale_us=scale, k=10)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )

    # python reference: brute full-ranking (k = corpus size), decay applied
    scorer = QueryScorer(idx, k=10, method="brute")
    want_rows = []
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        toks = sorted(set(tokenize(text)))
        owners = {t: scorer._owners(t) for t in toks}
        owners = {t: s for t, s in owners.items() if s}
        if not owners:
            continue
        terms = sorted(owners)
        postings = {t: scorer._gather_postings(t, owners[t]) for t in terms}
        dfs = {t: scorer._global_df(t, owners[t]) for t in terms}
        d, s = brute_force_topk(terms, postings, dfs, scorer.doclens.lookup,
                                scorer.n_docs, scorer.avgdl, k=1 << 30)
        ts = np.array([all_ts[int(x)] for x in d], dtype=np.int64)
        fac = np.maximum(1.0 - np.abs(origin - ts) / float(scale), 0.0)
        fs = s * fac
        order = np.lexsort((d, -fs))[:10]
        for r, i in enumerate(order, 1):
            want_rows.append((qid, r, int(d[i]), fs[i]))

    assert len(got) == len(want_rows)
    for row, (qid, r, did, fsc) in zip(got.itertuples(), want_rows):
        assert (row.query_id, row.rank, row.doc_id) == (qid, r, did)
        assert row.score == fsc  # bit-identical float path

def test_field_value_factor_on_real_index(golden_index):
    """field_value_factor (ln1p on doclen) == python reference: full
    disjunctive brute scoring x log1p(dl), frozen (fscore DESC, doc_id
    ASC) order, bit-identical float path."""
    import numpy as np
    from aarhus_ray.pipelines.query import field_value_factor_topk
    from aarhus_ray.textnorm import tokenize
    from aarhus_ray.bm25 import brute_force_topk
    from aarhus_ray.stages.query_stage import QueryScorer

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=23)
    docs = _docs_table(idx, ["doc_id", "doclen"])
    dls = dict(zip(docs["doc_id"].to_pylist(), docs["doclen"].to_pylist()))

    got = (
        field_value_factor_topk(idx, q, field="doclen", k=10)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )

    scorer = QueryScorer(idx, k=10, method="brute")
    want_rows = []
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        toks = sorted(set(tokenize(text)))
        owners = {t: scorer._owners(t) for t in toks}
        owners = {t: s for t, s in owners.items() if s}
        if not owners:
            continue
        terms = sorted(owners)
        postings = {t: scorer._gather_postings(t, owners[t]) for t in terms}
        dfs = {t: scorer._global_df(t, owners[t]) for t in terms}
        d, s = brute_force_topk(terms, postings, dfs, scorer.doclens.lookup,
                                scorer.n_docs, scorer.avgdl, k=1 << 30)
        dl = np.array([dls[int(x)] for x in d], dtype=np.int64)
        fs = s * np.log1p(dl.astype(np.float64))
        order = np.lexsort((d, -fs))[:10]
        for r, i in enumerate(order, 1):
            want_rows.append((qid, r, int(d[i]), fs[i]))

    assert len(got) == len(want_rows)
    for row, (qid, r, did, fsc) in zip(got.itertuples(), want_rows):
        assert (row.query_id, row.rank, row.doc_id) == (qid, r, did)
        assert row.score == fsc  # bit-identical float path


def test_rank_feature_on_real_index(golden_index):
    """rank_feature (saturation on doclen) == python reference: full
    disjunctive brute scoring + W*dl/(dl+pivot), frozen (fscore DESC,
    doc_id ASC) order, bit-identical float path; every final score
    exceeds its bm25 score by at most W."""
    import numpy as np
    from aarhus_ray.pipelines.query import rank_feature_topk
    from aarhus_ray.textnorm import tokenize
    from aarhus_ray.bm25 import brute_force_topk
    from aarhus_ray.stages.query_stage import QueryScorer

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=29)
    docs = _docs_table(idx, ["doc_id", "doclen"])
    dls = dict(zip(docs["doc_id"].to_pylist(), docs["doclen"].to_pylist()))
    pivot, weight = 100, 2.0

    got = (
        rank_feature_topk(idx, q, field="doclen", pivot=pivot, weight=weight, k=10)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )

    scorer = QueryScorer(idx, k=10, method="brute")
    want_rows = []
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        toks = sorted(set(tokenize(text)))
        owners = {t: scorer._owners(t) for t in toks}
        owners = {t: s for t, s in owners.items() if s}
        if not owners:
            continue
        terms = sorted(owners)
        postings = {t: scorer._gather_postings(t, owners[t]) for t in terms}
        dfs = {t: scorer._global_df(t, owners[t]) for t in terms}
        d, s = brute_force_topk(terms, postings, dfs, scorer.doclens.lookup,
                                scorer.n_docs, scorer.avgdl, k=1 << 30)
        dl = np.array([dls[int(x)] for x in d], dtype=np.int64).astype(np.float64)
        fs = s + weight * (dl / (dl + float(pivot)))
        order = np.lexsort((d, -fs))[:10]
        for r, i in enumerate(order, 1):
            want_rows.append((qid, r, int(d[i]), fs[i]))

    assert len(got) == len(want_rows)
    for row, (qid, r, did, fsc) in zip(got.itertuples(), want_rows):
        assert (row.query_id, row.rank, row.doc_id) == (qid, r, did)
        assert row.score == fsc  # bit-identical float path


def test_distance_feature_on_real_index(golden_index):
    """distance_feature (ts proximity) == python reference: full
    disjunctive brute scoring + W*pivot/(pivot+|origin-ts|), origin
    mid-span so both sides of it are populated, frozen order,
    bit-identical float path."""
    import numpy as np
    from aarhus_ray.pipelines.query import distance_feature_topk
    from aarhus_ray.textnorm import tokenize
    from aarhus_ray.bm25 import brute_force_topk
    from aarhus_ray.stages.query_stage import QueryScorer

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=31)
    docs = _docs_table(idx, ["doc_id", "warc_ts"])
    all_ts = dict(zip(docs["doc_id"].to_pylist(), docs["warc_ts"].to_pylist()))
    origin = (max(all_ts.values()) + min(all_ts.values())) // 2
    pivot, weight = 60_000_000, 2.0
    # mid-span origin must actually split the corpus (collision case real)
    assert any(v < origin for v in all_ts.values())
    assert any(v > origin for v in all_ts.values())

    got = (
        distance_feature_topk(idx, q, origin_us=origin, pivot_us=pivot,
                              weight=weight, k=10)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )

    scorer = QueryScorer(idx, k=10, method="brute")
    want_rows = []
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        toks = sorted(set(tokenize(text)))
        owners = {t: scorer._owners(t) for t in toks}
        owners = {t: s for t, s in owners.items() if s}
        if not owners:
            continue
        terms = sorted(owners)
        postings = {t: scorer._gather_postings(t, owners[t]) for t in terms}
        dfs = {t: scorer._global_df(t, owners[t]) for t in terms}
        d, s = brute_force_topk(terms, postings, dfs, scorer.doclens.lookup,
                                scorer.n_docs, scorer.avgdl, k=1 << 30)
        ts = np.array([all_ts[int(x)] for x in d], dtype=np.int64)
        dist = np.abs(np.int64(origin) - ts).astype(np.float64)
        fs = s + weight * (float(pivot) / (float(pivot) + dist))
        order = np.lexsort((d, -fs))[:10]
        for r, i in enumerate(order, 1):
            want_rows.append((qid, r, int(d[i]), fs[i]))

    assert len(got) == len(want_rows)
    for row, (qid, r, did, fsc) in zip(got.itertuples(), want_rows):
        assert (row.query_id, row.rank, row.doc_id) == (qid, r, did)
        assert row.score == fsc  # bit-identical float path


def test_combined_fields_on_real_index(golden_index, tmp_path):
    """combined_fields (BM25F title^2+body) == python reference computed
    straight from the extracted texts: tf' = tf_body + 2*tf_title,
    dl' = dl_body + 2*dl_title, avgdl' one exact-int divide, df' = body
    df, standard BM25 chain over those inputs — frozen (score DESC,
    doc_id ASC) order, bit-identical float path. The title index is a
    REAL second index built from first-8-token pages of the same
    corpus."""
    import math

    import numpy as np
    from aarhus_ray.pipelines.query import combined_fields_topk
    from aarhus_ray.stages.query_stage import UrlResolver
    from aarhus_ray.textnorm import tokenize
    from aarhus_ray import K1, B

    body = golden_index["index"]
    TITLE_LEN, W = 8, 2

    # surviving urls from the docs sidecar (post-dedup truth); texts from
    # the committed goldens (byte-identical to the pipeline's extraction)
    side = _docs_table(body, ["url", "warc_ts"])
    golden = pq.read_table(os.path.join(GOLDEN_DIR, "extracted.parquet"))
    text_of = dict(zip(golden["url"].to_pylist(), golden["text"].to_pylist()))
    ts_of = dict(zip(side["url"].to_pylist(), side["warc_ts"].to_pylist()))
    urls = sorted(ts_of)
    assert all(u in text_of for u in urls)

    # title index: first TITLE_LEN tokens of each surviving doc's text
    tdir = str(tmp_path / "pages_title")
    os.makedirs(tdir, exist_ok=True)
    titles = [" ".join(tokenize(text_of[u])[:TITLE_LEN]) for u in urls]
    pq.write_table(
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(
                    [int(ts_of[u]) for u in urls], pa.timestamp("us")
                ),
                "html": pa.array(
                    [f"<html><body><p>{t}</p></body></html>".encode() for t in titles],
                    pa.binary(),
                ),
                "text": pa.array(titles, pa.string()),
                "lang": pa.array(["en"] * len(urls), pa.string()),
            }
        ),
        os.path.join(tdir, "part-0000.parquet"),
    )
    title = str(tmp_path / "index_title")
    build_index(tdir, title, num_partitions=4, num_segments=2, n_salts=2)

    q = fixtures.gen_queries(12, seed=37)
    got = (
        combined_fields_topk(body, title, q, w_title=W, k=10)
        .map_batches(UrlResolver, fn_constructor_args=(body,),
                     batch_format="pyarrow", concurrency=(1, 2))
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )

    # pure-python BM25F reference from the texts
    body_toks = {u: tokenize(text_of[u]) for u in urls}
    tf_b = {u: {} for u in urls}
    tf_t = {u: {} for u in urls}
    for u in urls:
        for tok in body_toks[u]:
            tf_b[u][tok] = tf_b[u].get(tok, 0) + 1
        for tok in body_toks[u][:TITLE_LEN]:
            tf_t[u][tok] = tf_t[u].get(tok, 0) + 1
    n = len(urls)
    dlc = {u: len(body_toks[u]) + W * min(len(body_toks[u]), TITLE_LEN) for u in urls}
    avgdl = float(sum(dlc.values())) / float(n)
    df = {}
    for u in urls:
        for tok in tf_b[u]:
            df[tok] = df.get(tok, 0) + 1

    want = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = sorted(set(tokenize(text)))
        scores = {}
        for t in terms:
            if t not in df:
                continue
            idf_v = math.log1p((n - df[t] + 0.5) / (df[t] + 0.5))
            for u in urls:
                tfb = tf_b[u].get(t, 0)
                if tfb == 0:
                    continue
                tfc = float(tfb + W * tf_t[u].get(t, 0))
                dl = float(dlc[u])
                s = idf_v * tfc * (K1 + 1.0) / (tfc + K1 * (1.0 - B + B * dl / avgdl))
                scores[u] = scores.get(u, 0.0) + s
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        want[qid] = ranked

    for qid, grp in got.groupby("query_id"):
        # engine tie order is internal-doc-id; reference ties are by url.
        # internal ids are assigned in url-sorted order per partition, so
        # compare (url set per score level) — exact scores make this strict.
        ref = want[qid]
        assert len(grp) == len(ref)
        for (row, (u, sc)) in zip(grp.itertuples(), ref):
            assert row.score == sc or abs(row.score - sc) < 1e-12
        got_pairs = sorted((round(r.score, 9), r.url) for r in grp.itertuples())
        ref_pairs = sorted((round(sc, 9), u) for u, sc in ref)
        assert got_pairs == ref_pairs


def test_synonym_mode_on_real_index(golden_index):
    """SynonymTopK: with an EMPTY synonym map every group is a singleton
    (merged tf = own tf, max df = own df), so results are bit-identical
    to plain disjunctive retrieval; with a real map, scores match an
    independent python recompute of the merged-tf/max-df rule."""
    import numpy as np
    from aarhus_ray.pipelines.query import query_index, synonym_topk
    from aarhus_ray.textnorm import tokenize
    from aarhus_ray.bm25 import idf as idf_fn, score_tf
    from aarhus_ray.stages.query_stage import QueryScorer

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=19)

    plain = (
        query_index(idx, q, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    syn_empty = (
        synonym_topk(idx, q, synonyms={}, k=10)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert (syn_empty["doc_id"].to_numpy() == plain["doc_id"].to_numpy()).all()
    assert (syn_empty["score"].to_numpy() == plain["score"].to_numpy()).all()

    # real map: pick two co-occurring corpus words as a synonym pair
    docs = _docs_table(idx, ["doc_id", "text"])
    texts = docs["text"].to_pylist()
    ids = docs["doc_id"].to_pylist()
    t0 = tokenize(texts[0])
    base, syn = t0[0], t0[1]
    if base == syn:
        syn = t0[2]
    synonyms = {base: (syn, "zzznotinvocab")}
    q2 = pa.table({"query_id": pa.array([0], pa.int64()),
                   "text": pa.array([base], pa.string())})
    got = (
        synonym_topk(idx, q2, synonyms=synonyms, k=10)
        .to_pandas().sort_values("rank").reset_index(drop=True)
    )

    sc = QueryScorer(idx, k=10, method="brute")
    tf_by_doc: dict[int, float] = {}
    df_a = df_b = 0
    for did, text in zip(ids, texts):
        tks = tokenize(text)
        ca, cb = tks.count(base), tks.count(syn)
        if ca:
            df_a += 1
        if cb:
            df_b += 1
        if ca + cb:
            tf_by_doc[did] = float(ca + cb)
    dfm = max(df_a, df_b)
    cand = np.array(sorted(tf_by_doc), dtype=np.uint64)
    mtf = np.array([tf_by_doc[int(d)] for d in cand])
    dls = sc.doclens.lookup(cand).astype(np.float64)
    scores = score_tf(mtf, dls, sc.avgdl, idf_fn(dfm, sc.n_docs))
    order = np.lexsort((cand, -scores))[:10]
    assert list(got["doc_id"]) == [int(cand[i]) for i in order]
    assert list(got["score"]) == [scores[i] for i in order]

def test_wildcard_mode_on_real_index(golden_index):
    """mode='wildcard': expansion == fnmatch over the corpus vocabulary,
    and scoring == mode='or' over the expanded literal term set
    (bit-identical scores); leading-star and no-match patterns covered."""
    from fnmatch import fnmatchcase

    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["text"])
    vocab = sorted({t for x in docs["text"].to_pylist() for t in tokenize(x)})
    pats = ["*ing", "th*", "*a*d*", "zz*qq", vocab[0][:2] + "*"]
    q = pa.table({"query_id": pa.array(range(len(pats)), pa.int64()),
                  "text": pa.array(pats, pa.string())})
    wild = (
        query_index(idx, q, k=10, mode="wildcard", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    rows = []
    for qid, pat in enumerate(pats):
        expanded = [t for t in vocab if fnmatchcase(t, pat)]
        if not expanded:
            continue
        rows.append((qid, " ".join(expanded)))
    q_or = pa.table({"query_id": pa.array([r[0] for r in rows], pa.int64()),
                     "text": pa.array([r[1] for r in rows], pa.string())})
    disj = (
        query_index(idx, q_or, k=10, mode="or", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(wild) == len(disj)
    assert (wild["query_id"].to_numpy() == disj["query_id"].to_numpy()).all()
    assert (wild["doc_id"].to_numpy() == disj["doc_id"].to_numpy()).all()
    assert (wild["score"].to_numpy() == disj["score"].to_numpy()).all()

def test_regexp_mode_on_real_index(golden_index):
    """mode='regexp': expansion == Python re.fullmatch over the corpus
    vocabulary, and scoring == mode='or' over the expanded literal term set
    (bit-identical scores); alternation, classes, dots, star quantifiers,
    prefix-routed and prefixless patterns, and a no-match pattern covered."""
    import re

    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["text"])
    vocab = sorted({t for x in docs["text"].to_pylist() for t in tokenize(x)})
    pats = ["th(e|at|is)", ".h.", "[ab].*", vocab[0][:1] + ".+", "zz+q?"]
    q = pa.table({"query_id": pa.array(range(len(pats)), pa.int64()),
                  "text": pa.array(pats, pa.string())})
    rex = (
        query_index(idx, q, k=10, mode="regexp", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    rows = []
    for qid, pat in enumerate(pats):
        expanded = [t for t in vocab if re.fullmatch(pat, t)]
        if not expanded:
            continue
        rows.append((qid, " ".join(expanded)))
    q_or = pa.table({"query_id": pa.array([r[0] for r in rows], pa.int64()),
                     "text": pa.array([r[1] for r in rows], pa.string())})
    disj = (
        query_index(idx, q_or, k=10, mode="or", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(rex) == len(disj)
    assert (rex["query_id"].to_numpy() == disj["query_id"].to_numpy()).all()
    assert (rex["doc_id"].to_numpy() == disj["doc_id"].to_numpy()).all()
    assert (rex["score"].to_numpy() == disj["score"].to_numpy()).all()

def test_query_string_degenerates_to_component_modes(golden_index):
    """mode='query_string' must reproduce its component modes bit-for-bit
    on their own syntax: pure boosts == mode='boost', pure +terms ==
    mode='and', a lone quoted phrase == mode='phrase'; pure-negative and
    OOV-MUST queries are empty; the parser itself is pinned on the
    documented grammar."""
    from aarhus_ray.stages.query_stage import parse_query_string
    from aarhus_ray.textnorm import tokenize

    # parser grammar pins
    ph, mu, mn, sh = parse_query_string('"a b" +c -d e^2.5 fg* h')
    assert ph == ["a b"] and mu == ["c"] and mn == ["d"]
    assert sh == [("e", 2.5), ("fg*", 1.0), ("h", 1.0)]
    with pytest.raises(ValueError, match="negative boost"):
        parse_query_string("a^-1")

    idx = golden_index["index"]
    docs = _docs_table(idx, ["text"])
    vocab = sorted({t for x in docs["text"].to_pylist() for t in tokenize(x)})
    t0, t1 = vocab[0], vocab[len(vocab) // 2]
    # a genuine bigram so the phrase comparison has non-empty results
    btoks = tokenize(docs["text"].to_pylist()[0])
    big0, big1 = btoks[0], btoks[1]

    def run(text, mode, **kw):
        q = pa.table({"query_id": pa.array([0], pa.int64()),
                      "text": pa.array([text], pa.string())})
        out = query_index(idx, q, k=10, mode=mode, resolve_urls=False, **kw).to_pandas()
        return out.sort_values("rank").reset_index(drop=True) if len(out) else out

    for qs_text, ref_text, ref_mode in [
        (f"{t0}^2 {t1}^0.5", f"{t0}^2 {t1}^0.5", "boost"),
        (f"+{big0} +{big1}", f"{big0} {big1}", "and"),
        (f'"{big0} {big1}"', f"{big0} {big1}", "phrase"),
    ]:
        a = run(qs_text, "query_string")
        b = run(ref_text, ref_mode)
        assert len(a) == len(b) > 0, (qs_text, ref_mode)
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all(), (qs_text, ref_mode)
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all(), (qs_text, ref_mode)
    assert len(run(f"-{t0}", "query_string")) == 0
    assert len(run(f"+zzznotinvocab {t0}", "query_string")) == 0

def test_search_after_pages_reconstruct_full_sort(golden_index):
    """Chained search_after pages (cursor = last hit of the previous page)
    reconstruct the ENTIRE docvalue ordering with no gaps, overlaps, or
    reorders — equality against one big-k sort_topk run."""
    from aarhus_ray.pipelines.query import search_after_topk, sort_topk

    idx = golden_index["index"]
    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array(["the"], pa.string())})
    full = (
        sort_topk(idx, q, field="warc_ts", k=1 << 20)
        .to_pandas().sort_values("rank").reset_index(drop=True)
    )
    assert len(full) > 30  # needs several pages to be meaningful

    pages = []
    page = (
        sort_topk(idx, q, field="warc_ts", k=10)
        .to_pandas().sort_values("rank").reset_index(drop=True)
    )
    while len(page):
        pages.append(page)
        last = page.iloc[-1]
        q2 = pa.table({
            "query_id": pa.array([0], pa.int64()),
            "text": pa.array(["the"], pa.string()),
            "after_val": pa.array([int(last["warc_ts"])], pa.int64()),
            "after_doc": pa.array([int(last["doc_id"])], pa.uint64()),
        })
        page = search_after_topk(idx, q2, field="warc_ts", k=10).to_pandas()
        if len(page):
            page = page.sort_values("rank").reset_index(drop=True)
    import pandas as pd

    chained = pd.concat(pages, ignore_index=True)
    assert list(chained["doc_id"]) == list(full["doc_id"])
    assert list(chained["warc_ts"]) == list(full["warc_ts"])

def test_rescore_on_real_index(golden_index):
    """RescoreTopK: weight=0 reproduces the primary disjunctive top-k
    bit-identically; with a positive weight, every phrase-matching window
    doc outranks every non-matching one of equal primary score, and
    final scores equal primary + W*phrase (python cross-check)."""
    from aarhus_ray.pipelines.query import query_index, rescore_topk
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text"])
    texts = docs["text"].to_pylist()
    toks0 = tokenize(texts[0])
    phrases = [" ".join(toks0[:2]), " ".join(tokenize(texts[9])[2:4]), "the"]
    q = pa.table({"query_id": pa.array(range(len(phrases)), pa.int64()),
                  "text": pa.array(phrases, pa.string())})

    w0 = (
        rescore_topk(idx, q, window=50, weight=0.0, k=10)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    plain = (
        query_index(idx, q, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert (w0["doc_id"].to_numpy() == plain["doc_id"].to_numpy()).all()
    assert (w0["score"].to_numpy() == plain["score"].to_numpy()).all()

    got = (
        rescore_topk(idx, q, window=50, weight=2.0, k=10)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    # python cross-check: window = top-50 primary; phrase docs via substring
    win = (
        query_index(idx, q, k=50, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    joined = {d: " " + " ".join(tokenize(t)) + " "
              for d, t in zip(docs["doc_id"].to_pylist(), texts)}
    import numpy as np

    for qid, phrase in enumerate(phrases):
        sub = win[win["query_id"] == qid]
        is_ph = np.array([f" {phrase} " in joined[int(d)] for d in sub["doc_id"]])
        final = sub["score"].to_numpy() * np.where(is_ph, 1.0, 0.0) * 2.0 + sub["score"].to_numpy()
        order = np.lexsort((sub["doc_id"].to_numpy(), -final))[:10]
        want_docs = sub["doc_id"].to_numpy()[order]
        got_sub = got[got["query_id"] == qid]
        assert list(got_sub["doc_id"]) == list(want_docs)
        assert list(got_sub["score"]) == [final[i] for i in order]

def test_term_stats_cardinality_percentiles(golden_index):
    """TermStats / FacetCardinality / MatchsetPercentiles == independent
    python recompute over the docs sidecar (tokenize + exact order
    statistics)."""
    import numpy as np
    from aarhus_ray.pipelines.query import (
        facet_cardinality, matchset_percentiles, term_stats,
    )
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text", "lang", "warc_ts"])
    texts = docs["text"].to_pylist()
    toks_of = [tokenize(t) for t in texts]

    # --- term_stats
    probe = ["the", "a", "zzznotinvocab", toks_of[0][0]]
    got = term_stats(idx, pa.table({"term": pa.array(probe, pa.string())})).to_pandas()
    got = got.sort_values("term").reset_index(drop=True)
    want = {}
    for t in set(probe):
        df = sum(1 for tk in toks_of if t in tk)
        ttf = sum(tk.count(t) for tk in toks_of)
        if df:
            want[t] = (df, ttf)
    assert {r.term: (r.df, r.ttf) for r in got.itertuples()} == want

    # --- cardinality + percentiles share the match set of one query
    q = pa.table({"query_id": pa.array([0], pa.int64()),
                  "text": pa.array(["the"], pa.string())})
    langs = docs["lang"].to_pylist()
    tss = docs["warc_ts"].to_pylist()
    m_langs = sorted({l for tk, l in zip(toks_of, langs) if "the" in tk})
    m_ts = np.sort(np.array([ts for tk, ts in zip(toks_of, tss) if "the" in tk]))
    card = facet_cardinality(idx, q, facet="lang").to_pandas()
    assert list(card["n_values"]) == [len(m_langs)]
    pct = (
        matchset_percentiles(idx, q, quantiles=(0.25, 0.5, 0.75))
        .to_pandas().sort_values("pct").reset_index(drop=True)
    )
    n = len(m_ts)
    want_vals = [int(m_ts[int(np.floor(qf * (n - 1)))]) for qf in (0.25, 0.5, 0.75)]
    assert list(pct["value"]) == want_vals
    assert list(pct["pct"]) == [25, 50, 75]

def test_serving_pool_matches_pipeline(golden_index):
    """serve_queries (standing actor pool) == query_index (Dataset
    pipeline) bit-identically — same scorer fn, same frozen order; only
    the dispatch differs. Also: pool reuse is idempotent and stop_serving
    tears it down."""
    from aarhus_ray import fixtures
    from aarhus_ray.pipelines.query import (
        _SERVE_POOLS, query_index, serve_queries, start_serving, stop_serving,
    )

    idx = golden_index["index"]
    q = fixtures.gen_queries(40, seed=3)
    ref = (
        query_index(idx, q, k=5, resolve_urls=False)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    got = serve_queries(idx, q, k=5, n_actors=2)
    assert got[["query_id", "rank", "doc_id", "score"]].equals(
        ref[["query_id", "rank", "doc_id", "score"]]
    )
    # the CLUSTER-shape pool: one actor sub-pool per doc range, k-sized
    # partials merged under the frozen order — still bit-identical
    sharded = serve_queries(idx, q, k=5, n_actors=2, n_ranges=2)
    assert sharded[["query_id", "rank", "doc_id", "score"]].equals(
        ref[["query_id", "rank", "doc_id", "score"]]
    )
    # retrieval modes thread through: the conjunctive pool == pipeline AND
    ref_and = (
        query_index(idx, q, k=5, resolve_urls=False, mode="and")
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    got_and = serve_queries(idx, q, k=5, n_actors=2, mode="and")
    assert got_and[["query_id", "rank", "doc_id", "score"]].equals(
        ref_and[["query_id", "rank", "doc_id", "score"]]
    )
    assert start_serving(idx, k=5, n_actors=2) is start_serving(idx, k=5, n_actors=2)
    # version-bump eviction: a rebuilt index (stats.json rewritten) must
    # never be served by a stale pool — bumping the mtime token makes
    # start_serving kill and respawn, and the new pool serves identically
    import os

    old_keys = [k_ for k_ in _SERVE_POOLS if k_[0] == idx]
    os.utime(os.path.join(idx, "stats.json"))
    fresh = serve_queries(idx, q, k=5, n_actors=2)
    assert fresh[["query_id", "rank", "doc_id", "score"]].equals(
        ref[["query_id", "rank", "doc_id", "score"]]
    )
    for k_ in old_keys:
        assert k_ not in _SERVE_POOLS  # stale-version pools evicted
    stop_serving(idx)
    assert not [k_ for k_ in _SERVE_POOLS if k_[0] == idx]


def test_serve_slice_bounds():
    """A request of n queries on a sub-pool of a actors is cut into
    exactly a contiguous slices covering [0, n) in order, one per actor
    of the compiled graph, sizes differing by at most one: a slice is
    empty only when n < a."""
    from aarhus_ray.pipelines.query import _slice_bounds

    for n in range(1, 41):
        for a in range(1, 9):
            b = _slice_bounds(n, a)
            assert len(b) == a
            assert b[0][0] == 0 and b[-1][1] == n
            assert all(hi == lo for (_, hi), (lo, _) in zip(b, b[1:]))
            sizes = [hi - lo for lo, hi in b]
            assert min(sizes) == n // a and max(sizes) - min(sizes) <= 1


def test_serving_request_spans_every_actor(golden_index, monkeypatch):
    """A request is ONE execution of the pool's compiled graph, whose
    input carries one (query ids, texts) slice per actor of a sub-pool:
    contiguous and in order, so actor j of every range sub-pool scores
    slice j. A request of fewer queries than actors sends empty slices
    to the rest. A flat pool sends the query ids, a range pool the row
    positions."""
    from aarhus_ray.pipelines.query import serve_queries, start_serving, stop_serving

    idx = golden_index["index"]
    sent = []
    # slice sizes per request size: 2 actors in one range, or 1 in each of 2
    want = {None: {40: [20, 20], 3: [1, 2], 1: [0, 1]},
            2: {n: [n] for n in (40, 3, 1)}}
    try:
        for n_ranges, per_n in want.items():
            pool = start_serving(idx, k=5, n_actors=2, n_ranges=n_ranges)
            execute = pool.graph.execute

            def spy(*args, execute=execute):
                sent.append(args)
                return execute(*args)

            monkeypatch.setattr(pool.graph, "execute", spy)
            for n, sizes in per_n.items():
                sent.clear()
                q = fixtures.gen_queries(n, seed=3)
                serve_queries(idx, q, k=5, n_actors=2, n_ranges=n_ranges)
                assert len(sent) == 1
                ids, texts = sent[0][0::2], sent[0][1::2]
                assert [len(i) for i in ids] == sizes == [len(t) for t in texts]
                want_ids = (q["query_id"].to_numpy() if n_ranges is None
                            else np.arange(n))
                assert np.array_equal(np.concatenate(ids), want_ids)
                assert [t for sl in texts for t in sl] == q["text"].to_pylist()
            monkeypatch.undo()
    finally:
        stop_serving(idx)


def _pipeline_answer(idx, tbl, k=5):
    return (query_index(idx, tbl, k=k, resolve_urls=False).to_pandas()
            .sort_values(["query_id", "rank"]).reset_index(drop=True))


def test_serving_request_past_the_channel_buffer(golden_index):
    """A request whose slices pass the compiled graph's 1 MB channel
    buffer (4,096 long texts) is answered whole, flat and doc-range
    sharded, bit-identical to query_index."""
    import pickle

    import pandas as pd

    from aarhus_ray.pipelines.query import serve_queries, stop_serving

    idx = golden_index["index"]
    base = fixtures.gen_queries(4096, seed=13)
    pad = " ".join(f"zzpad{i:03d}" for i in range(30))  # out of vocabulary
    tbl = pa.table({"query_id": base["query_id"],
                    "text": pa.array([f"{t} {pad}" for t in base["text"].to_pylist()])})
    assert len(pickle.dumps(tbl["text"].to_pylist())) > 1_000_000
    want = _pipeline_answer(idx, tbl)
    try:
        for n_ranges in (None, 2):
            got = serve_queries(idx, tbl, k=5, n_actors=2, n_ranges=n_ranges)
            pd.testing.assert_frame_equal(got, want[list(got.columns)])
    finally:
        stop_serving(idx)


def test_serving_pool_survives_a_failing_request(golden_index):
    """A request the scorer rejects (non-string texts) raises an
    exception of the scorer's own error class and leaves the pool
    serving: the next request is answered by the same pool, bit-identical
    to query_index."""
    from aarhus_ray.pipelines.query import (
        _SERVE_POOLS, serve_queries, start_serving, stop_serving,
    )

    idx = golden_index["index"]
    q = fixtures.gen_queries(16, seed=3)
    want = _pipeline_answer(idx, q)
    bad = pa.table({"query_id": pa.array([0, 1, 2], pa.int64()),
                    "text": pa.array([5, 6, 7])})
    try:
        for n_ranges in (None, 2):
            pool = start_serving(idx, k=5, n_actors=2, n_ranges=n_ranges)
            with pytest.raises(pa.ArrowTypeError):
                serve_queries(idx, bad, k=5, n_actors=2, n_ranges=n_ranges)
            assert _SERVE_POOLS.get(pool.key) is pool
            got = serve_queries(idx, q, k=5, n_actors=2, n_ranges=n_ranges)
            assert got.equals(want[list(got.columns)])
            assert _SERVE_POOLS.get(pool.key) is pool
    finally:
        stop_serving(idx)


def test_serving_pool_dead_actor_fails_one_call(golden_index):
    """A dead pool actor fails one call, not every later call: the call
    after ``ray.kill`` raises a Ray error (not a scorer exception) and
    evicts the pool, and the call after it is served by a fresh pool,
    bit-identical to query_index."""
    import ray

    from aarhus_ray.pipelines.query import (
        _SERVE_POOLS, serve_queries, start_serving, stop_serving,
    )

    idx = golden_index["index"]
    q = fixtures.gen_queries(16, seed=3)
    want = _pipeline_answer(idx, q)
    try:
        for victim in (0, 1):
            pool = start_serving(idx, k=5, n_actors=2)
            actor = pool.subs[0][victim]
            ray.kill(actor)
            with pytest.raises(ray.exceptions.RayActorError):  # wait for its death
                ray.get(actor.__ray_ready__.remote(), timeout=60)
            with pytest.raises(ray.exceptions.RayError) as err:
                serve_queries(idx, q, k=5, n_actors=2)
            assert not isinstance(err.value, ray.exceptions.RayTaskError)
            assert pool.key not in _SERVE_POOLS
            got = serve_queries(idx, q, k=5, n_actors=2)
            assert got.equals(want[list(got.columns)])
            assert _SERVE_POOLS[pool.key] is not pool
    finally:
        stop_serving(idx)


def test_serving_request_shapes_match_pipeline(golden_index, monkeypatch):
    """Every request shape the pool answers equals the sorted
    query_index(..., resolve_urls=False) frame, columns and dtypes both:
    shuffled query ids, adjacent duplicate ids (rows that arrive out of
    (query_id, rank) order and must be sorted), an all-OOV request, a
    one-query request on the 2-actor pool, an empty table, and the
    doc-range (n_ranges=2) pool. A warm request re-checks neither the
    segments nor the cluster's CPUs."""
    import pandas as pd
    import ray

    from aarhus_ray.pipelines import query as qmod
    from aarhus_ray.pipelines.query import query_index_doc_sharded, serve_queries, stop_serving

    idx = golden_index["index"]

    def ref(tbl):
        # through Arrow: Dataset.to_pandas drops the columns of an
        # all-empty result, the Arrow blocks keep the scorer's schema
        blocks = ray.get(query_index(idx, tbl, k=5, resolve_urls=False).to_arrow_refs())
        return (pa.concat_tables(blocks).to_pandas()
                .sort_values(["query_id", "rank"]).reset_index(drop=True))

    def table(qids, texts):
        return pa.table({"query_id": pa.array(qids, pa.int64()),
                         "text": pa.array(texts, pa.string())})

    base = fixtures.gen_queries(24, seed=5)
    texts = base["text"].to_pylist()
    order = np.random.default_rng(7).permutation(len(texts))
    shuffled = table(order.tolist(), texts)
    dup_ids = [i // 2 for i in range(len(texts))]  # 0,0,1,1,… adjacent pairs
    duplicated = table(dup_ids, texts)
    oov = table([3, 1, 2], ["zzqxv qqzzyy", "xxqqzz", "vvqqxxzz jjqqzz"])
    single = table([11], texts[:1])
    empty = table([], [])
    dtypes = {"query_id": "int64", "rank": "int32", "doc_id": "uint64", "score": "float64"}
    try:
        for tbl in (shuffled, duplicated, oov, single):
            got = serve_queries(idx, tbl, k=5, n_actors=2)
            pd.testing.assert_frame_equal(got, ref(tbl))
            assert got.dtypes.astype(str).to_dict() == dtypes
            if tbl is duplicated:  # both queries of an id answered: ranks repeat
                assert got.duplicated(["query_id", "rank"]).any()
        for tbl in (shuffled, single):
            sharded = serve_queries(idx, tbl, k=5, n_actors=2, n_ranges=2)
            pd.testing.assert_frame_equal(sharded, ref(tbl))
        # two queries sharing an id stay two answers through a range merge
        for got in (serve_queries(idx, duplicated, k=5, n_actors=2, n_ranges=2),
                    query_index_doc_sharded(idx, duplicated, n_ranges=2, k=5)):
            pd.testing.assert_frame_equal(got, ref(duplicated))
        # an empty request: the same columns and dtypes as a non-empty one
        # (query_index has no blocks to carry a schema for an empty table,
        # so the all-OOV answer stands in as its empty frame)
        got_empty = serve_queries(idx, empty, k=5, n_actors=2)
        assert got_empty.empty and got_empty.dtypes.astype(str).to_dict() == dtypes
        pd.testing.assert_frame_equal(got_empty, ref(oov))

        calls = {"_require_segments": 0, "_cpus": 0}

        def counting(name):
            real = getattr(qmod, name)

            def wrapper(*a, **kw):
                calls[name] += 1
                return real(*a, **kw)
            return wrapper

        want = ref(shuffled)
        for name in calls:
            monkeypatch.setattr(qmod, name, counting(name))
        warm = serve_queries(idx, shuffled, k=5, n_actors=2)
        assert calls == {"_require_segments": 0, "_cpus": 0}
        pd.testing.assert_frame_equal(warm, want)
    finally:
        stop_serving(idx)


def test_matchset_boxplot_on_real_index(golden_index):
    """MatchsetBoxplot == python recompute over the docs sidecar: type-1
    quartiles of doclen at floor(q·(n−1)) plus Tukey 1.5·IQR outlier
    counts via the doubled-integer comparison."""
    import numpy as np
    from aarhus_ray.pipelines.query import matchset_boxplot
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text"])
    toks_of = [tokenize(t) for t in docs["text"].to_pylist()]
    q = pa.table({"query_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["the", "zzznotinvocab"], pa.string())})
    got = matchset_boxplot(idx, q).to_pandas()
    assert list(got["query_id"]) == [0]  # OOV query emits no row
    dls = np.sort(np.array([len(tk) for tk in toks_of if "the" in tk], dtype=np.int64))
    n = len(dls)
    q1, q2, q3 = (int(dls[int(np.floor(f * (n - 1)))]) for f in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    row = got.iloc[0]
    assert (row["n_docs"], row["vmin"], row["vmax"]) == (n, int(dls[0]), int(dls[-1]))
    assert (row["q1"], row["q2"], row["q3"]) == (q1, q2, q3)
    assert row["n_low_out"] == int(np.count_nonzero(2 * dls < 2 * q1 - 3 * iqr))
    assert row["n_high_out"] == int(np.count_nonzero(2 * dls > 2 * q3 + 3 * iqr))


def test_percolator_streaming_reverse_search(golden_index):
    """Percolator == python reference: conjunctive containment of stored
    queries against a streamed docs Dataset (no index consulted); OOV
    queries match nothing; single-term queries match their postings."""
    import ray as _ray

    from aarhus_ray.pipelines.query import percolate
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text"])
    stored = ["the", "the a", "zzznotinvocab the", ""]
    q = pa.table({"query_id": pa.array(range(len(stored)), pa.int64()),
                  "text": pa.array(stored, pa.string())})
    ds = _ray.data.from_arrow(docs).repartition(4)
    got = percolate(ds, q).to_pandas().sort_values(["query_id", "doc_id"]).reset_index(drop=True)

    want = []
    for did, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        dt = set(tokenize(text))
        for qid, s in enumerate(stored):
            terms = set(tokenize(s))
            if terms and terms <= dt:
                want.append((qid, did))
    want.sort()
    assert [(r.query_id, r.doc_id) for r in got.itertuples()] == want


def test_explain_reconstructs_scores(golden_index):
    """explain_topk rows are COMPLETE: score_tf/idf over each hit's
    (term, tf, df, dl) rows, accumulated in sorted-term order, reproduces
    the hit's ranking score bit-exactly; ranks/doc_ids match query_index;
    terms are ascending within a hit and absent terms emit no row."""
    import numpy as np

    from aarhus_ray.bm25 import idf, score_tf
    from aarhus_ray.pipelines.query import explain_topk, query_index
    from aarhus_ray.state import manifest as mf
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    stats = mf.read_stats(idx)
    n_docs, avgdl = int(stats["n_docs"]), float(stats["avgdl"])
    q = fixtures.gen_queries(15, seed=21)
    hits = (
        query_index(idx, q, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    ex = (
        explain_topk(idx, q, k=10)
        .to_pandas().sort_values(["query_id", "rank", "term"]).reset_index(drop=True)
    )
    # same hit set
    key_hits = set(zip(hits["query_id"], hits["rank"], hits["doc_id"]))
    key_ex = set(zip(ex["query_id"], ex["rank"], ex["doc_id"]))
    assert key_ex == key_hits
    # every row's term is a token of its query, present in the doc (tf >= 1)
    terms_of = {qid: set(tokenize(t)) for qid, t in zip(q["query_id"].to_pylist(), q["text"].to_pylist())}
    assert all(t in terms_of[qid] for qid, t in zip(ex["query_id"], ex["term"]))
    assert (ex["tf"] >= 1).all() and (ex["df"] >= 1).all()
    # bit-exact score reconstruction (accumulate in sorted-term order, the
    # frozen engine accumulation order)
    score_of = {}
    for (qid, rank), g in ex.groupby(["query_id", "rank"], sort=False):
        s = 0.0
        for _, row in g.sort_values("term").iterrows():
            s += float(
                score_tf(
                    np.array([float(row["tf"])]),
                    np.array([float(row["dl"])]),
                    avgdl,
                    idf(int(row["df"]), n_docs),
                )[0]
            )
        score_of[(qid, rank)] = s
    for _, h in hits.iterrows():
        assert score_of[(h["query_id"], h["rank"])] == h["score"]


def test_completion_suggester_on_real_index(golden_index):
    """suggest_completions == python reference over the corpus vocabulary
    (global df ranking, tie term ASC); dead and multi-token prefixes emit
    nothing; every suggestion extends its prefix."""
    from collections import Counter

    from aarhus_ray.pipelines.query import suggest_completions
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["text"])
    df = Counter()
    for t in docs["text"].to_pylist():
        df.update(set(tokenize(t)))
    prefixes = ["s", "ta", "q", "zzz", "two words", "w"]
    q = pa.table(
        {
            "query_id": pa.array(range(len(prefixes)), pa.int64()),
            "text": pa.array(prefixes, pa.string()),
        }
    )
    got = (
        suggest_completions(idx, q, size=4)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    for qid, p in enumerate(prefixes):
        g = got[got["query_id"] == qid]
        toks = tokenize(p)
        if len(toks) != 1:
            assert len(g) == 0
            continue
        want = sorted(
            ((t, c) for t, c in df.items() if t.startswith(toks[0])),
            key=lambda kv: (-kv[1], kv[0]),
        )[:4]
        assert list(zip(g["term"], g["df"])) == want
        assert all(t.startswith(toks[0]) for t in g["term"])


def test_rank_eval_on_real_index(golden_index):
    """rank_eval == python reference: qrel = conjunctive containment;
    n_rel_at_k/first_rel_rank graded over the engine's own frozen top-k;
    OOV queries score (0, 0, 0); one row per query."""
    from aarhus_ray.pipelines.query import query_index, rank_eval
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text"])
    toks_of = {}
    for did, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        toks_of[did] = set(tokenize(t))
    texts = list(docs["text"].to_pylist())
    some = tokenize(texts[0])
    queries = [
        " ".join(some[:2]),
        some[0],
        "zzznotinvocab",
        " ".join(some[:3]) + " zzznotinvocab",
    ]
    q = pa.table(
        {
            "query_id": pa.array(range(len(queries)), pa.int64()),
            "text": pa.array(queries, pa.string()),
        }
    )
    got = (
        rank_eval(idx, q, k=10)
        .to_pandas().sort_values("query_id").reset_index(drop=True)
    )
    assert list(got["query_id"]) == list(range(len(queries)))
    hits = query_index(idx, q, k=10, resolve_urls=False).to_pandas()
    for qid, text in enumerate(queries):
        terms = set(tokenize(text))
        rel = {d for d, dt in toks_of.items() if terms <= dt} if terms else set()
        # an OOV term can never be contained
        if not all(any(t in dt for dt in toks_of.values()) for t in terms):
            rel = set()
        h = hits[hits["query_id"] == qid].sort_values("rank")
        in_rel = [int(d) in rel for d in h["doc_id"]]
        row = got[got["query_id"] == qid].iloc[0]
        assert row["n_rel"] == len(rel)
        assert row["n_rel_at_k"] == sum(in_rel)
        want_first = next((i + 1 for i, x in enumerate(in_rel) if x), 0)
        assert row["first_rel_rank"] == want_first
    assert got[got["query_id"] == 2][["n_rel", "n_rel_at_k", "first_rel_rank"]].sum().sum() == 0


def test_adjacency_matrix_on_real_index(golden_index):
    """adjacency_matrix == python reference (pairwise containment match-set
    intersections); diagonal cells pin n_ab == n_a == n_b; symmetric pair
    order swaps n_a/n_b but keeps n_ab."""
    from aarhus_ray.pipelines.query import adjacency_matrix
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text"])
    toks_of = {
        did: set(tokenize(t))
        for did, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    texts = list(docs["text"].to_pylist())
    qa, qb = " ".join(tokenize(texts[0])[:2]), " ".join(tokenize(texts[5])[:2])
    rows = [(0, qa, qb), (1, qa, qa), (2, qb, qa), (3, "zzznotinvocab", qa)]
    pairs = pa.table(
        {
            "pair_id": pa.array([r[0] for r in rows], pa.int64()),
            "text_a": pa.array([r[1] for r in rows], pa.string()),
            "text_b": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    got = (
        adjacency_matrix(idx, pairs)
        .to_pandas().sort_values("pair_id").reset_index(drop=True)
    )

    def mset(q):
        terms = set(tokenize(q))
        return {d for d, dt in toks_of.items() if terms & dt}

    for pid, ta, tb in rows:
        a, b = mset(ta), mset(tb)
        r = got[got["pair_id"] == pid].iloc[0]
        assert (r["n_a"], r["n_b"], r["n_ab"]) == (len(a), len(b), len(a & b))
    diag = got[got["pair_id"] == 1].iloc[0]
    assert diag["n_a"] == diag["n_b"] == diag["n_ab"]
    assert got[got["pair_id"] == 0].iloc[0]["n_ab"] == got[got["pair_id"] == 2].iloc[0]["n_ab"]
    assert got[got["pair_id"] == 3].iloc[0]["n_a"] == 0


def test_composite_agg_paging_on_real_index(golden_index):
    """composite_agg == python reference: (lang ASC, ts-bucket ASC) bucket
    space of the match set, strictly after the cursor, ≤ size rows — and
    feeding a page's last key back as the cursor tiles the space exactly."""
    from aarhus_ray.pipelines.query import composite_agg
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text", "lang", "warc_ts"])
    bucket_us, size = 250_000_000, 5
    by_doc = {
        int(d): (set(tokenize(t)), lang, int(ts) // bucket_us)
        for d, t, lang, ts in zip(
            docs["doc_id"].to_pylist(), docs["text"].to_pylist(),
            docs["lang"].to_pylist(), docs["warc_ts"].to_pylist(),
        )
    }
    text = " ".join(tokenize(docs["text"].to_pylist()[0])[:2])
    terms = set(tokenize(text))

    def ref_buckets():
        from collections import Counter

        c = Counter(
            (lang, bkt) for toks, lang, bkt in by_doc.values() if terms & toks
        )
        return sorted(c.items())

    want = ref_buckets()
    assert len(want) > size, "fixture must force multiple pages"

    got_all, cursor, pages = [], ("", -1), 0
    while True:
        reqs = pa.table(
            {
                "query_id": pa.array([0], pa.int64()),
                "text": pa.array([text], pa.string()),
                "after_lang": pa.array([cursor[0]], pa.string()),
                "after_bucket": pa.array([cursor[1]], pa.int64()),
            }
        )
        res = (
            composite_agg(idx, reqs, bucket_us=bucket_us, size=size)
            .to_pandas().sort_values(["lang", "bucket"]).reset_index(drop=True)
        )
        assert len(res) <= size
        got_all.extend(
            ((r["lang"], int(r["bucket"])), int(r["n_docs"]))
            for _, r in res.iterrows()
        )
        pages += 1
        if len(res) < size:
            break
        cursor = (str(res.iloc[-1]["lang"]), int(res.iloc[-1]["bucket"]))
    assert got_all == want
    assert pages == (len(want) + size - 1) // size or pages == len(want) // size + 1


def test_matrix_stats_on_real_index(golden_index):
    """matrix_stats sufficient statistics == python recompute over the
    match set, and the derived covariance/correlation match numpy."""
    from aarhus_ray.pipelines.query import matrix_stats
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text", "doclen", "warc_ts"])
    texts = docs["text"].to_pylist()
    text = " ".join(tokenize(texts[0])[:2])
    terms = set(tokenize(text))
    # fixture ts = 2024-01-01 + rand(1y); seconds-offset keeps Σb² in int64
    # while per-element b*b still exceeds float53 (exactness matters)
    b_off, b_div = 1_704_067_200_000_000, 1_000_000

    qs = pa.table(
        {"query_id": pa.array([0], pa.int64()), "text": pa.array([text], pa.string())}
    )
    got = matrix_stats(idx, qs, b_off=b_off, b_div=b_div).to_pandas().iloc[0]

    a_l, b_l = [], []
    for t, dl, ts in zip(texts, docs["doclen"].to_pylist(), docs["warc_ts"].to_pylist()):
        if terms & set(tokenize(t)):
            a_l.append(int(dl))
            b_l.append((int(ts) - b_off) // b_div)
    n = len(a_l)
    assert int(got["n_docs"]) == n
    assert int(got["sum_a"]) == sum(a_l)
    assert int(got["sum_b"]) == sum(b_l)
    assert int(got["sum_a2"]) == sum(x * x for x in a_l)
    assert int(got["sum_b2"]) == sum(x * x for x in b_l)
    assert int(got["sum_ab"]) == sum(x * y for x, y in zip(a_l, b_l))
    # derived moments equal numpy's (population covariance/correlation)
    a, b = np.array(a_l, dtype=np.float64), np.array(b_l, dtype=np.float64)
    cov = got["sum_ab"] / n - (got["sum_a"] / n) * (got["sum_b"] / n)
    assert np.isclose(cov, np.cov(a, b, bias=True)[0, 1])
    var_a = got["sum_a2"] / n - (got["sum_a"] / n) ** 2
    var_b = got["sum_b2"] / n - (got["sum_b"] / n) ** 2
    assert np.isclose(cov / np.sqrt(var_a * var_b), np.corrcoef(a, b)[0, 1])


def test_matrix_stats_sum_past_int64_raises_value_error(golden_index):
    """At its default scaling (b_off=0, b_div=1) the raw microsecond ts
    squares past int64 on the golden index: MatrixStats raises a
    ValueError naming the sum and the scaling, not an OverflowError."""
    from aarhus_ray.stages.query_stage import MatrixStats

    qs = pa.table({"query_id": pa.array([0], pa.int64()), "text": pa.array(["the"], pa.string())})
    with pytest.raises(ValueError, match=r"sum_b2=\d+ exceeds int64.*b_off=0, b_div=1"):
        MatrixStats(golden_index["index"])(qs)


def test_terms_set_mode_on_real_index(golden_index):
    """terms_set == python reference: eligibility is per-doc
    (distinct matched >= 1 + doclen % mod), scores the disjunctive BM25
    sums — and msm with m=1 must be a superset (mod=1 ≡ or)."""
    from aarhus_ray.bm25 import idf as idf_fn, score_tf
    from aarhus_ray.pipelines.query import query_index
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    docs = _docs_table(idx, ["doc_id", "text", "doclen"])
    stats = golden_index["stats"]
    n_docs, avgdl = stats["n_docs"], stats["avgdl"]
    mod = 3
    toks_of = {
        int(d): tokenize(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    dl_of = {
        int(d): int(dl)
        for d, dl in zip(docs["doc_id"].to_pylist(), docs["doclen"].to_pylist())
    }
    text = " ".join(tokenize(docs["text"].to_pylist()[0])[:3])
    terms = sorted(set(tokenize(text)))
    df = {t: sum(1 for ts in toks_of.values() if t in ts) for t in terms}

    want = []
    for d, ts in toks_of.items():
        matched = [t for t in terms if t in ts]
        if len(matched) >= 1 + dl_of[d] % mod:
            s = sum(
                float(score_tf(ts.count(t), dl_of[d], avgdl, idf_fn(df[t], n_docs)))
                for t in matched
            )
            want.append((d, s))
    want.sort(key=lambda x: (-x[1], x[0]))

    q = pa.table(
        {"query_id": pa.array([0], pa.int64()), "text": pa.array([text], pa.string())}
    )
    got = (
        query_index(idx, q, k=10, mode="terms_set", terms_set_mod=mod,
                    resolve_urls=False)
        .to_pandas().sort_values("rank")
    )
    assert got["doc_id"].tolist() == [d for d, _ in want[:10]]
    assert np.allclose(got["score"].to_numpy(), [s for _, s in want[:10]], rtol=0, atol=0)
    # mod=1 degenerates to required=1 for every doc ≡ disjunctive eligibility
    got1 = query_index(idx, q, k=10, mode="terms_set", terms_set_mod=1,
                       resolve_urls=False).to_pandas()
    got_or = query_index(idx, q, k=10, mode="or", resolve_urls=False).to_pandas()
    assert got1["doc_id"].tolist() == got_or["doc_id"].tolist()


def test_snapshot_restore_roundtrip_and_tamper(golden_index, tmp_path):
    """snapshot → restore serves bit-identical results; a tampered
    repository fails the restore checksum loudly and leaves no
    _INDEX_DONE marker (the restored dir must never be queryable)."""
    from aarhus_ray.pipelines.maintain import restore_index, snapshot_index
    from aarhus_ray.pipelines.query import query_index
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    snap = str(tmp_path / "snap")
    info = snapshot_index(idx, snap)
    assert info["files"] > 5 and info["bytes"] > 0

    dest = str(tmp_path / "restored")
    out = restore_index(snap, dest)
    assert out["files"] == info["files"]

    docs = _docs_table(idx, ["text"])
    text = " ".join(tokenize(docs["text"].to_pylist()[0])[:2])
    q = pa.table(
        {"query_id": pa.array([0], pa.int64()), "text": pa.array([text], pa.string())}
    )
    a = query_index(idx, q, k=10, resolve_urls=False).to_pandas().sort_values("rank")
    b = query_index(dest, q, k=10, resolve_urls=False).to_pandas().sort_values("rank")
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert a["score"].tolist() == b["score"].tolist()  # bit-identical

    # tamper one postings byte in the repository → restore must refuse
    victim = next(
        os.path.join(r, f)
        for r, _, fs in os.walk(os.path.join(snap, "files"))
        for f in fs if f == "postings.bin"
    )
    blob = bytearray(open(victim, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(victim, "wb").write(bytes(blob))
    dest2 = str(tmp_path / "restored2")
    with pytest.raises(ValueError, match="checksum mismatch"):
        restore_index(snap, dest2)
    assert not os.path.exists(os.path.join(dest2, "_INDEX_DONE"))

    # an incomplete index refuses to snapshot
    with pytest.raises(ValueError, match="incomplete"):
        snapshot_index(str(tmp_path / "nonexistent"), str(tmp_path / "s2"))

def test_string_stats_on_real_index(golden_index):
    """matchset_string_stats == python reference: length stats over the
    matched docs' text values plus the integer milli-nat char-entropy
    fold (h = T*l(T) - sum c*l(c)), recomputed from scratch with
    collections.Counter."""
    import math
    from collections import Counter

    from aarhus_ray.pipelines.query import matchset_string_stats
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    q = fixtures.gen_queries(12, seed=11)
    out = (
        matchset_string_stats(idx, q, field="text")
        .to_pandas().sort_values("query_id").reset_index(drop=True)
    )
    docs = _docs_table(idx, ["doc_id", "text"])
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    texts = docs["text"].to_pylist()
    lm = lambda x: int(round(math.log(x) * 1000.0))
    want = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        vals = [t for dt, t in zip(toks_of, texts) if terms & dt]
        if not vals:
            continue
        cnt = Counter("".join(vals))
        t_total = sum(cnt.values())
        h = t_total * lm(t_total) - sum(c * lm(c) for c in cnt.values())
        lens = [len(v) for v in vals]
        want[qid] = (len(vals), min(lens), max(lens), sum(lens), h)
    got = {
        r.query_id: (r.n_values, r.min_len, r.max_len, r.sum_len, r.h_milli_t)
        for r in out.itertuples()
    }
    assert got == want
    # entropy is positive for any non-degenerate multi-char distribution
    assert all(v[4] > 0 for v in want.values())


def test_mad_multi_terms_terms_enum_on_real_index(golden_index):
    """matchset_mad / multi_terms / terms_enum == python reference over
    the golden fixture: exact type-1 order statistics, composite-key
    top-k with the frozen (count DESC, lang, bucket) tie order, and
    lexicographic dictionary prefix scans."""
    from collections import Counter

    from aarhus_ray.pipelines.query import matchset_mad, multi_terms, terms_enum
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    q = fixtures.gen_queries(10, seed=13)
    docs = _docs_table(idx, ["doc_id", "text", "doclen", "lang"])
    dids = docs["doc_id"].to_pylist()
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    dls = docs["doclen"].to_pylist()
    langs = docs["lang"].to_pylist()

    # --- matchset_mad: lower median + lower median of absolute deviations
    out = matchset_mad(idx, q, field="doclen").to_pandas()
    got = {r.query_id: (r.n_docs, r.median, r.mad) for r in out.itertuples()}
    want = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        vals = sorted(dl for dt, dl in zip(toks_of, dls) if terms & dt)
        if not vals:
            continue
        med = vals[(len(vals) - 1) // 2]
        mad = sorted(abs(v - med) for v in vals)[(len(vals) - 1) // 2]
        want[qid] = (len(vals), med, mad)
    assert got == want

    # --- multi_terms: top-k composite (lang, doclen//W) buckets
    W, K = 16, 3
    out = multi_terms(idx, q, facet="lang", field="doclen",
                      bucket_width=W, k=K).to_pandas()
    got_mt = {}
    for r in out.itertuples():
        got_mt.setdefault(r.query_id, []).append((r.lang, r.len_bucket, r.n_docs))
    want_mt = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        cnt = Counter(
            (lg, dl // W)
            for dt, dl, lg in zip(toks_of, dls, langs)
            if terms & dt
        )
        if not cnt:
            continue
        top = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:K]
        want_mt[qid] = [(lg, b, c) for (lg, b), c in top]
    assert {k: sorted(v) for k, v in got_mt.items()} == {
        k: sorted(v) for k, v in want_mt.items()
    }

    # --- terms_enum: first `size` vocabulary terms per prefix
    vocab = sorted(set().union(*toks_of))
    prefixes = pa.table(
        {
            "prefix_id": pa.array([0, 1, 2], pa.int64()),
            "prefix": pa.array(["a", "th", "zzzz"], pa.string()),
        }
    )
    out = terms_enum(idx, prefixes, size=6).to_pandas()
    got_te = {}
    for r in out.sort_values(["prefix_id", "rank"]).itertuples():
        got_te.setdefault(r.prefix_id, []).append(r.term)
    want_te = {}
    for pid, p in enumerate(["a", "th", "zzzz"]):
        hit = [t for t in vocab if t.startswith(p)][:6]
        if hit:
            want_te[pid] = hit
    assert got_te == want_te
    assert 0 in want_te  # prefix "a" must actually exercise the scan


def test_extended_stats_filters_agg_on_real_index(golden_index):
    """matchset_extended_stats / filters_agg == python reference."""
    from aarhus_ray.pipelines.query import filters_agg, matchset_extended_stats
    from aarhus_ray.stages.query_stage import FILTERS_AGG_LONG, FILTERS_AGG_SHORT
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    q = fixtures.gen_queries(10, seed=17)
    docs = _docs_table(idx, ["doc_id", "text", "doclen", "lang"])
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    dls = docs["doclen"].to_pylist()
    langs = docs["lang"].to_pylist()

    out = matchset_extended_stats(idx, q, field="doclen").to_pandas()
    got = {r.query_id: (r.n_docs, r.sum, r.sum_sq, r.var_num) for r in out.itertuples()}
    want = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        vals = [dl for dt, dl in zip(toks_of, dls) if terms & dt]
        if not vals:
            continue
        n, s, ssq = len(vals), sum(vals), sum(v * v for v in vals)
        want[qid] = (n, s, ssq, n * ssq - s * s)
    assert got == want
    # the variance numerator must be non-negative (Cauchy-Schwarz)
    assert all(v[3] >= 0 for v in want.values())

    out = filters_agg(idx, q).to_pandas()
    got_f = {(r.query_id, r.bucket): r.n_docs for r in out.itertuples()}
    want_f = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        hit = [(dl, lg) for dt, dl, lg in zip(toks_of, dls, langs) if terms & dt]
        if not hit:
            continue
        want_f[(qid, "short")] = sum(dl < FILTERS_AGG_SHORT for dl, _ in hit)
        want_f[(qid, "long")] = sum(dl >= FILTERS_AGG_LONG for dl, _ in hit)
        want_f[(qid, "en")] = sum(lg == "en" for _, lg in hit)
        want_f[(qid, "other")] = sum(
            FILTERS_AGG_SHORT <= dl < FILTERS_AGG_LONG and lg != "en" for dl, lg in hit
        )
    assert got_f == want_f


def test_bucket_script_ttest_on_real_index(golden_index):
    """bucket_script_agg / t_test_agg == python reference over the match
    set: integer script metric + scale-free share selector; Welch t from
    exact (n, S, SS) sums with the frozen 3dp contract."""
    import math

    from aarhus_ray.functions.fulltext import BUCKET_SCRIPT_DENOM
    from aarhus_ray.pipelines.query import bucket_script_agg, t_test_agg
    from aarhus_ray.textnorm import tokenize

    idx = golden_index["index"]
    q = fixtures.gen_queries(10, seed=17)
    docs = _docs_table(idx, ["doc_id", "text", "doclen", "lang"])
    toks_of = [set(tokenize(t)) for t in docs["text"].to_pylist()]
    dls = docs["doclen"].to_pylist()
    langs = docs["lang"].to_pylist()

    out = bucket_script_agg(idx, q, share_denom=BUCKET_SCRIPT_DENOM).to_pandas()
    got = {
        (r.query_id, r.lang): (r.n_docs, r.sum_doclen, r.avg_dl_x100)
        for r in out.itertuples()
    }
    want = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        hit = [(dl, lg) for dt, dl, lg in zip(toks_of, dls, langs) if terms & dt]
        total = len(hit)
        per: dict[str, list[int]] = {}
        for dl, lg in hit:
            per.setdefault(lg, []).append(dl)
        for lg, vals in per.items():
            if len(vals) * BUCKET_SCRIPT_DENOM >= total:
                n, s = len(vals), sum(vals)
                want[(qid, lg)] = (n, s, s * 100 // n)
    assert got == want

    out_t = t_test_agg(idx, q).to_pandas()
    got_t = {
        r.query_id: (r.n_match, r.n_rest, r.mean_match, r.mean_rest, r.t_stat)
        for r in out_t.itertuples()
    }
    n_c, s_c, ss_c = len(dls), sum(dls), sum(v * v for v in dls)
    want_t = {}
    for qid, text in zip(q["query_id"].to_pylist(), q["text"].to_pylist()):
        terms = set(tokenize(text))
        vals = [dl for dt, dl in zip(toks_of, dls) if terms & dt]
        n1, n2 = len(vals), n_c - len(vals)
        if n1 < 2 or n2 < 2:
            continue
        s1, ss1 = sum(vals), sum(v * v for v in vals)
        s2, ss2 = s_c - s1, ss_c - ss1
        m1, m2 = s1 / n1, s2 / n2
        v1 = (ss1 - s1 * s1 / n1) / (n1 - 1)
        v2 = (ss2 - s2 * s2 / n2) / (n2 - 1)
        t = (m1 - m2) / math.sqrt(v1 / n1 + v2 / n2)
        want_t[qid] = (n1, n2, round(m1, 3), round(m2, 3), round(t, 3))
    assert got_t == want_t


def test_salt_count_query_invariance(tmp_path):
    """n_salts is REDUCE-SHARD granularity, not semantics: indexes built
    with different salt counts answer queries bit-identically (salt is
    doc-range for heavy terms — concat in salt order IS doc order — and
    whole-list for light terms). This is what licenses bench.py scaling
    salts with the corpus (constant shard size) while the goldens pin one
    fixed config."""
    from aarhus_ray.pipelines.build import build_index
    from aarhus_ray.pipelines.query import query_index

    pages = str(tmp_path / "pages")
    fixtures.write_pages_dir(pages, 300, seed=11, rows_per_file=75)
    outs = []
    for ns in (2, 6):
        out = str(tmp_path / f"idx{ns}")
        build_index(pages, out, num_partitions=4, num_segments=2, n_salts=ns)
        outs.append(out)
    q = fixtures.gen_queries(15, seed=5)
    frames = [
        query_index(o, q, k=10, resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        for o in outs
    ]
    a, b = frames
    assert len(a) == len(b) > 0
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert (a["score"].to_numpy() == b["score"].to_numpy()).all()


def _seg_hashes(out):
    """md5 per file under segments/ — the byte-identity definition shared
    by the exchange tests."""
    import hashlib
    import os

    h = {}
    seg_root = os.path.join(out, "segments")
    for root, _, files in os.walk(seg_root):
        for f in sorted(files):
            p = os.path.join(root, f)
            with open(p, "rb") as fh:
                h[os.path.relpath(p, seg_root)] = hashlib.md5(fh.read()).hexdigest()
    return h


def test_exchange_disk_handles_empty_buckets(tmp_path):
    """A tiny corpus with many salts leaves some (seg, salt) buckets with
    zero partials; the disk-exchange assemble must skip them (no segment
    dir, no manifest row) and queries must still answer — same contract
    as the sort path, where an empty group simply never forms."""
    import os

    pages = str(tmp_path / "pages")
    fixtures.write_pages_dir(pages, 40, seed=5, rows_per_file=40)
    out = str(tmp_path / "idx")
    stats = build_index(pages, out, num_partitions=2, num_segments=2,
                        n_salts=8)
    assert stats["n_docs"] > 0
    n_buckets = 2 * 8
    present = len(os.listdir(os.path.join(out, "segments")))
    assert 0 < present <= n_buckets
    # the shuffle checkpoint is cleaned up after assembly
    assert not os.path.isdir(os.path.join(out, "partials"))
    from aarhus_ray.pipelines.query import query_index

    q = fixtures.gen_queries(5, seed=1)
    assert query_index(out, q, k=3, resolve_urls=False).count() > 0


def _stats_bytes(out):
    with open(os.path.join(out, "stats.json"), "rb") as f:
        return f.read()


def _unit_rows(out):
    """Manifest rows per unit: {("docs", pid) | ("segment", bucket): n}."""
    from collections import Counter

    from aarhus_ray.state import manifest as mf

    return Counter((r["stage"], int(r["partition_id"])) for r in mf.read_manifest(out))


def _lose_pids(out):
    for pid in (0, 2):
        os.remove(os.path.join(out, "docs", f"pid={pid:04d}.parquet"))
        os.remove(os.path.join(out, "partials", f"pid={pid:04d}.arrow"))
    return {("docs", 0), ("docs", 2)}


def _corrupt_partials(out):
    with open(os.path.join(out, "partials", "pid=0001.arrow"), "ab") as f:
        f.write(b"CORRUPTION")
    return {("docs", 1)}


def _lose_segments(out):
    for sid in (1, 2):
        shutil.rmtree(os.path.join(out, "segments", f"seg={sid:04d}"))
    return {("segment", 1), ("segment", 2)}


def _stale_tmp(out):
    """Leftovers of units killed between tmp-write and rename."""
    os.makedirs(os.path.join(out, "segments", "seg=0003.tmp"))
    with open(os.path.join(out, "segments", "seg=0003.tmp", "postings.bin"), "wb") as f:
        f.write(b"torn")
    for rel in ("partials/pid=0002.arrow.tmp", "docs/pid=0003.parquet.tmp"):
        with open(os.path.join(out, rel), "wb") as f:
            f.write(b"torn")
    return set()


def _nothing(out):
    return set()


# (crash seam, damage done to the crashed index, expected re-run units)
_CRASHES = {
    "after_map_out": ("_after_phase1", _nothing),
    "lost_pids": ("_after_phase1", _lose_pids),
    "corrupt_partials": ("_after_phase1", _corrupt_partials),
    "lost_segments": ("_after_phase2", _lose_segments),
    "stale_tmp": ("_after_phase2", _stale_tmp),
    "before_stats": ("_after_phase2", _nothing),
}


@pytest.fixture(scope="module")
def crash_ref(tmp_path_factory):
    """Uninterrupted reference build of the crash-matrix corpus."""
    root = tmp_path_factory.mktemp("crash_ref")
    pages = str(root / "pages")
    fixtures.write_pages_dir(pages, 300, seed=21, rows_per_file=100)
    ref = str(root / "idx")
    build_index(pages, ref, num_partitions=4, num_segments=2, n_salts=2)
    return pages, ref


@pytest.mark.parametrize("case", sorted(_CRASHES))
def test_crash_matrix_resumes_identical(crash_ref, tmp_path, monkeypatch, case):
    """Kill the build at a unit boundary, damage what a crash can damage,
    and resume: segments (per-file md5) and stats.json must equal an
    uninterrupted build's, partials/ must be gone, and only the broken
    units may run again (one more manifest row each, none for the rest)."""
    from aarhus_ray.pipelines import build as build_mod

    pages, ref = crash_ref
    seam, damage = _CRASHES[case]
    crash = str(tmp_path / "idx")

    def boom():
        raise RuntimeError(f"injected crash at {seam}")

    monkeypatch.setattr(build_mod, seam, boom)
    with pytest.raises(RuntimeError, match="injected crash"):
        build_index(pages, crash, num_partitions=4, num_segments=2, n_salts=2)
    monkeypatch.undo()
    assert os.path.isdir(os.path.join(crash, "partials"))  # the checkpoint
    assert not os.path.exists(os.path.join(crash, "stats.json"))
    assert not os.path.exists(os.path.join(crash, "_INDEX_DONE"))
    before = _unit_rows(crash)
    rerun = damage(crash)

    stats = build_index(pages, crash, num_partitions=4, num_segments=2,
                        n_salts=2, resume=True)
    assert stats["n_docs"] > 0
    assert _seg_hashes(crash) == _seg_hashes(ref)
    assert _stats_bytes(crash) == _stats_bytes(ref)
    assert not os.path.isdir(os.path.join(crash, "partials"))
    assert not glob.glob(os.path.join(crash, "*", "*.tmp"))
    after = _unit_rows(crash)
    if seam == "_after_phase1":
        # phase 2 had not started: every bucket is assembled once, on resume
        rerun |= {u for u in after if u[0] == "segment"}
    assert {u for u in after if after[u] != before.get(u, 0)} == rerun
    assert all(after[u] == before.get(u, 0) + 1 for u in rerun)
    assert {u[1] for u in after if u[0] == "docs"} == {0, 1, 2, 3}


def test_compaction_rewrites_build_segments_byte_identical(crash_ref, tmp_path):
    """compact_index on a single-generation, tombstone-free index goes
    through the same disk exchange as the build, so it must rewrite the
    build's segments byte for byte."""
    from aarhus_ray.pipelines.maintain import compact_index

    _, ref = crash_ref
    idx = str(tmp_path / "idx")
    shutil.copytree(ref, idx)
    want = _seg_hashes(ref)
    compact_index(idx)
    assert _seg_hashes(idx) == want
    assert not os.path.exists(idx + ".compact.tmp")
