"""Delete lifecycle (tombstones → visibility-only queries → compaction
purge): pipelines/maintain.delete_documents + compact_index, exclude mask
in stages/query_stage.QueryScorer."""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aarhus_ray import fixtures
from aarhus_ray.pipelines.build import build_index
from aarhus_ray.pipelines.maintain import compact_index, delete_documents
from aarhus_ray.pipelines.query import query_index
from aarhus_ray.state import manifest as mf


@pytest.fixture(scope="module")
def del_base(tmp_path_factory):
    """Pristine index + its corpus; tests copytree before mutating."""
    root = tmp_path_factory.mktemp("deletes")
    pages = str(root / "pages")
    fixtures.write_pages_dir(pages, 300, seed=11, rows_per_file=100)
    idx = str(root / "idx")
    build_index(pages, idx, num_partitions=4, num_segments=2, n_salts=2)
    docs = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "url"])
        for f in sorted(glob.glob(f"{idx}/docs/pid=*.parquet"))
    )
    return {"pages": pages, "idx": idx, "docs": docs, "queries": fixtures.gen_queries(15, seed=5)}


def _copy(del_base, tmp_path, name="idx"):
    dst = str(tmp_path / name)
    shutil.copytree(del_base["idx"], dst)
    return dst


def _dead_urls(del_base, stride=5):
    return sorted(del_base["docs"]["url"].to_pylist())[::stride]


def test_delete_visibility_and_stale_scores(del_base, tmp_path):
    """Pre-compaction: tombstoned urls vanish from results immediately;
    surviving docs keep their PRE-delete scores bit-for-bit (stats stay
    the pre-delete globals — the frozen Lucene-style semantics)."""
    idx = _copy(del_base, tmp_path)
    q = del_base["queries"]
    before = query_index(idx, q, k=10).to_pandas()
    dead = _dead_urls(del_base)
    r = delete_documents(idx, urls=dead)
    assert r["n_tombstoned"] == len(dead)
    mid = query_index(idx, q, k=10).to_pandas()
    assert not set(mid["url"]) & set(dead)
    b = {(int(qi), u): s for qi, u, s in zip(before["query_id"], before["url"], before["score"])}
    checked = 0
    for qi, u, s in zip(mid["query_id"], mid["url"], mid["score"]):
        if (int(qi), u) in b:
            assert b[(int(qi), u)] == s
            checked += 1
    assert checked > 20
    assert int(mf.read_stats(idx)["n_tombstones"]) == len(dead)


def test_delete_by_doc_ids_and_generations(del_base, tmp_path):
    """doc_ids path + a second tombstone generation union; brute == wand
    on the tombstoned index; method="wand_daat" (cursor WAND is a test
    oracle, not a serving method) raises ValueError."""
    idx = _copy(del_base, tmp_path)
    ids = np.sort(del_base["docs"]["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
    delete_documents(idx, doc_ids=ids[:20].tolist())
    delete_documents(idx, doc_ids=ids[10:40].tolist())  # overlapping gen
    ts = mf.read_tombstones(idx)
    assert len(ts) == 40  # unioned + deduped
    q = del_base["queries"]
    a = query_index(idx, q, k=10, method="wand", resolve_urls=False).to_pandas()
    b = query_index(idx, q, k=10, method="brute", resolve_urls=False).to_pandas()
    a = a.sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = b.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
    assert not set(a["doc_id"].astype("uint64")) & set(ts.tolist())
    with pytest.raises(ValueError, match="method must be 'wand' or 'brute'"):
        query_index(idx, q, k=10, method="wand_daat").to_pandas()


def test_serving_pool_over_tombstoned_index(del_base, tmp_path):
    """The standing pool, flat and doc-range sharded, answers a
    tombstoned index exactly as the brute oracle does: each scorer masks
    the tombstoned postings out of the term arrays it builds."""
    from aarhus_ray.pipelines.query import serve_queries, stop_serving

    idx = _copy(del_base, tmp_path)
    q = del_base["queries"]
    before = query_index(idx, q, k=10, resolve_urls=False).to_pandas()
    delete_documents(idx, urls=_dead_urls(del_base, stride=3))
    ts = set(mf.read_tombstones(idx).tolist())
    assert set(before["doc_id"].astype("uint64")) & ts  # the deletes hit answers
    want = (query_index(idx, q, k=10, method="brute", resolve_urls=False).to_pandas()
            .sort_values(["query_id", "rank"]).reset_index(drop=True))
    assert len(want) > 0 and not set(want["doc_id"].astype("uint64")) & ts
    try:
        for n_ranges in (None, 2):
            got = serve_queries(idx, q, k=10, n_actors=2, n_ranges=n_ranges)
            assert got.equals(want[list(got.columns)]), n_ranges
    finally:
        stop_serving(idx)


def test_writes_end_only_their_own_index_pools(del_base, tmp_path):
    """add_documents, delete_documents and compact_index on index A each
    end A's serving pools before they write: afterwards A has no
    _SERVE_POOLS entry and its pool's actors are dead. A pool on index B
    stays registered through every write and still answers, equal to
    query_index."""
    import ray

    from aarhus_ray.pipelines.maintain import add_documents
    from aarhus_ray.pipelines.query import (
        _SERVE_POOLS, serve_queries, start_serving, stop_serving,
    )

    a, b = _copy(del_base, tmp_path, "a"), _copy(del_base, tmp_path, "b")
    delta = str(tmp_path / "delta")
    os.makedirs(delta)
    pq.write_table(fixtures.gen_pages(40, seed=12, url_offset=100_000),
                   os.path.join(delta, "part-0000.parquet"))
    q = del_base["queries"]
    want_b = (query_index(b, q, k=10, resolve_urls=False).to_pandas()
              .sort_values(["query_id", "rank"]).reset_index(drop=True))
    writes = (lambda: add_documents(a, delta, num_partitions=2),
              lambda: delete_documents(a, urls=_dead_urls(del_base)),
              lambda: compact_index(a))
    try:
        pool_b = start_serving(b, k=10, n_actors=1)
        for write in writes:
            pool_a = start_serving(a, k=10, n_actors=1)
            write()
            assert not [key for key in _SERVE_POOLS if key[0] == a]
            for actor in (x for sub in pool_a.subs for x in sub):
                with pytest.raises(ray.exceptions.RayActorError):
                    ray.get(actor.__ray_ready__.remote(), timeout=60)
            assert _SERVE_POOLS.get(pool_b.key) is pool_b
            got = serve_queries(b, q, k=10, n_actors=1)
            assert got.equals(want_b[list(got.columns)])
    finally:
        stop_serving(a)
        stop_serving(b)


def test_compaction_purges_and_matches_fresh_build(del_base, tmp_path):
    """Post-compaction: tombstones dir gone, stats recomputed, and the
    (score, url) sets equal a fresh build over the surviving pages."""
    idx = _copy(del_base, tmp_path)
    dead = set(_dead_urls(del_base))
    delete_documents(idx, urls=sorted(dead))
    st = compact_index(idx)
    assert st["n_tombstones"] == 0
    assert not os.path.exists(os.path.join(idx, "tombstones"))
    n_surv = del_base["docs"].num_rows - len(dead)
    assert int(st["n_docs"]) == n_surv
    # docs checkpoint rewritten: no tombstoned url remains
    left = pa.concat_tables(
        pq.read_table(f, columns=["url"])
        for f in sorted(glob.glob(f"{idx}/docs/pid=*.parquet"))
    )
    assert not set(left["url"].to_pylist()) & dead

    surv_pages = str(tmp_path / "pages_surv")
    os.makedirs(surv_pages)
    full = pa.concat_tables(
        pq.read_table(f) for f in sorted(glob.glob(f"{del_base['pages']}/*.parquet"))
    )
    keep = pa.array([u not in dead for u in full["url"].to_pylist()])
    pq.write_table(full.filter(keep), f"{surv_pages}/part-0000.parquet")
    fresh = str(tmp_path / "fresh")
    build_index(surv_pages, fresh, num_partitions=4, num_segments=2, n_salts=2)

    q = del_base["queries"]
    got = query_index(idx, q, k=10).to_pandas()
    want = query_index(fresh, q, k=10).to_pandas()
    assert len(got) == len(want) > 0
    for qid in got["query_id"].unique():
        a = sorted(zip(got[got.query_id == qid]["score"], got[got.query_id == qid]["url"]))
        w = sorted(zip(want[want.query_id == qid]["score"], want[want.query_id == qid]["url"]))
        assert a == w


def test_delete_unknown_urls_is_noop(del_base, tmp_path):
    idx = _copy(del_base, tmp_path)
    before = query_index(idx, del_base["queries"], k=10, resolve_urls=False).to_pandas()
    r = delete_documents(idx, urls=["https://nowhere.example/x", "https://nowhere.example/y"])
    assert r["n_tombstoned"] == 0
    assert mf.read_tombstones(idx) is None
    after = query_index(idx, del_base["queries"], k=10, resolve_urls=False).to_pandas()
    assert (before["doc_id"].to_numpy() == after["doc_id"].to_numpy()).all()
    assert (before["score"].to_numpy() == after["score"].to_numpy()).all()


def test_delete_args_validated(del_base, tmp_path):
    idx = _copy(del_base, tmp_path)
    with pytest.raises(ValueError, match="exactly one"):
        delete_documents(idx)
    with pytest.raises(ValueError, match="exactly one"):
        delete_documents(idx, urls=["u"], doc_ids=[1])


def test_delete_by_query_matches_manual_tombstones(del_base, tmp_path):
    """delete_by_query(text) ≡ delete_documents(doc_ids=<match set>) for
    both boolean modes: identical tombstone sets, identical post-delete
    rankings (bit-for-bit), and a second identical call tombstones 0
    (idempotent — already-deleted docs leave the visible match set)."""
    from aarhus_ray.pipelines.maintain import delete_by_query
    from aarhus_ray.pipelines.query import export_matches
    from aarhus_ray.textnorm import tokenize

    # pick a two-term query whose AND and OR sets genuinely differ
    texts = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "text"])
        for f in sorted(glob.glob(f"{del_base['idx']}/docs/pid=*.parquet"))
    )
    toks_of = dict(zip(texts["doc_id"].to_pylist(),
                       [set(tokenize(t)) for t in texts["text"].to_pylist()]))
    t0 = sorted(toks_of[next(iter(toks_of))])[0]
    t1 = next(t for dt in toks_of.values() for t in sorted(dt) if t != t0)
    q_text = f"{t0} {t1}"
    for mode in ("or", "and"):
        want_ids = sorted(
            d for d, dt in toks_of.items()
            if (({t0, t1} & dt) if mode == "or" else ({t0, t1} <= dt))
        )
        idx_a = _copy(del_base, tmp_path, f"dbq_{mode}_a")
        idx_b = _copy(del_base, tmp_path, f"dbq_{mode}_b")
        r = delete_by_query(idx_a, q_text, mode=mode)
        assert r["n_tombstoned"] == len(want_ids)
        assert list(mf.read_tombstones(idx_a)) == want_ids
        delete_documents(idx_b, doc_ids=want_ids)
        qa = query_index(idx_a, del_base["queries"], k=10, resolve_urls=False).to_pandas()
        qb = query_index(idx_b, del_base["queries"], k=10, resolve_urls=False).to_pandas()
        assert (qa["doc_id"].to_numpy() == qb["doc_id"].to_numpy()).all()
        assert (qa["score"].to_numpy() == qb["score"].to_numpy()).all()
        # idempotency: the visible match set is now empty for this query
        r2 = delete_by_query(idx_a, q_text, mode=mode)
        assert r2["n_tombstoned"] == 0
        # export stream excludes tombstoned docs
        qtab = pa.table({"query_id": pa.array([0], pa.int64()),
                         "text": pa.array([q_text], pa.string())})
        left = export_matches(idx_a, qtab, mode=mode).to_pandas()
        assert len(left) == 0


def test_mget_routing_and_tombstone_visibility(del_base, tmp_path):
    """mget: found rows carry the docs/pid sidecar's stored fields, a
    missing url reports found=false, and a tombstoned doc flips to
    found=false (GET-after-delete misses pre-compaction)."""
    from aarhus_ray.pipelines.query import mget

    idx = _copy(del_base, tmp_path, "mget_idx")
    docs = del_base["docs"]
    urls = docs["url"].to_pylist()[:3]
    got = mget(idx, urls + ["https://nowhere.example/x"]).to_pandas()
    assert len(got) == 4
    by_url = got.set_index("url")
    stored = pq.read_table(
        glob.glob(f"{idx}/docs/pid=*.parquet")[0],
        columns=["url", "doclen", "warc_ts"],
    )
    for u in urls:
        assert bool(by_url.loc[u, "found"])
        assert by_url.loc[u, "doclen"] > 0
    assert not bool(by_url.loc["https://nowhere.example/x", "found"])
    assert int(by_url.loc["https://nowhere.example/x", "doclen"]) == 0

    delete_documents(idx, urls=[urls[0]])
    after = mget(idx, urls).to_pandas().set_index("url")
    assert not bool(after.loc[urls[0], "found"])
    assert bool(after.loc[urls[1], "found"])


def test_url_cache_follows_compaction(del_base, tmp_path):
    """Resolve urls, then delete + compact the same index in this session
    and resolve again: every url equals a fresh read of the compacted
    docs/ — the worker's per-pid url cache is keyed by index version."""
    idx = _copy(del_base, tmp_path)
    q = del_base["queries"]

    def assert_urls_match_docs():
        res = query_index(idx, q, k=10, resolve_urls=True).to_pandas()
        docs = pa.concat_tables(
            pq.read_table(f, columns=["doc_id", "url"])
            for f in sorted(glob.glob(f"{idx}/docs/pid=*.parquet"))
        )
        url_of = dict(zip(docs["doc_id"].to_pylist(), docs["url"].to_pylist()))
        assert len(res)
        assert res["url"].tolist() == [url_of[int(d)] for d in res["doc_id"]]

    assert_urls_match_docs()
    delete_documents(idx, urls=_dead_urls(del_base, stride=3))
    compact_index(idx)
    assert_urls_match_docs()
