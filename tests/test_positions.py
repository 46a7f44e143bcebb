"""Positional sidecar (pos.bin): round-trip exactness, phrase parity with
the text-verify path, default-layout byte-identity, incremental grafts."""

from __future__ import annotations

import glob
import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aarhus_ray import fixtures
from aarhus_ray.pipelines.build import build_index
from aarhus_ray.pipelines.query import list_segments, query_index
from aarhus_ray.stages.query_stage import Segment
from aarhus_ray.textnorm import tokenize


@pytest.fixture(scope="module")
def pos_pair(tmp_path_factory):
    """One corpus, two indexes: positional and default."""
    root = tmp_path_factory.mktemp("pos")
    pages = str(root / "pages")
    fixtures.write_pages_dir(pages, 400, seed=7, rows_per_file=100)
    idx_p = str(root / "idx_pos")
    idx_n = str(root / "idx_nopos")
    build_index(pages, idx_p, num_partitions=4, num_segments=2, n_salts=2, positions=True)
    build_index(pages, idx_n, num_partitions=4, num_segments=2, n_salts=2)
    return {"pages": pages, "pos": idx_p, "nopos": idx_n}


def _texts(index):
    docs = pa.concat_tables(
        pq.read_table(f, columns=["doc_id", "text"])
        for f in sorted(glob.glob(f"{index}/docs/pid=*.parquet"))
    )
    return dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))


def test_positions_round_trip_vs_tokenizer(pos_pair):
    """Decoded sidecar positions == token indices of the stored text, and
    per-posting counts == tf, for a seeded sample across every shard."""
    text_of = _texts(pos_pair["pos"])
    rng = random.Random(0)
    checked = 0
    for sid in list_segments(pos_pair["pos"]):
        seg = Segment(pos_pair["pos"], sid)
        assert seg.pos_dict is not None
        for term in rng.sample(sorted(seg.dict), min(10, len(seg.dict))):
            d_ids, tfs = seg.term_postings(term)
            vals, bounds = seg.term_positions(term)
            assert int(bounds[-1]) == len(vals)
            for i in rng.sample(range(len(d_ids)), min(3, len(d_ids))):
                got = np.cumsum(vals[bounds[i] + 1 : bounds[i + 1]].astype(np.int64))
                toks = np.asarray(tokenize(text_of[int(d_ids[i])]), dtype=object)
                want = np.flatnonzero(toks == term)
                assert len(got) == int(tfs[i]) == len(want)
                assert (got == want).all()
                checked += 1
    assert checked >= 20


def test_phrase_positional_equals_text_verify(pos_pair):
    """mode='phrase' over the positional index is bit-identical to the
    checkpoint-re-tokenize fallback on the same corpus — including a
    repeated-adjacent-term phrase and an OOV phrase."""
    text_of = _texts(pos_pair["pos"])
    texts = list(text_of.values())
    t0, t7 = tokenize(texts[0]), tokenize(texts[7])
    phrases = [
        " ".join(t0[:2]),
        " ".join(t7[3:6]),
        t0[0],
        "zzznotinvocab " + t0[0],
        " ".join(t0[5:7]),
        f"{t0[0]} {t0[0]}",
    ]
    q = pa.table(
        {
            "query_id": pa.array(range(len(phrases)), pa.int64()),
            "text": pa.array(phrases, pa.string()),
        }
    )
    a = (
        query_index(pos_pair["pos"], q, k=10, mode="phrase", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    b = (
        query_index(pos_pair["nopos"], q, k=10, mode="phrase", resolve_urls=False)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(a) == len(b) > 0
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert (a["score"].to_numpy() == b["score"].to_numpy()).all()


def test_min_ordered_span_vs_bruteforce():
    """_min_ordered_span (greedy chain) == exhaustive enumeration over all
    strictly-increasing picks, on random lists incl. shared-list reuse."""
    from itertools import product

    from aarhus_ray.stages.query_stage import _min_ordered_span

    rng = random.Random(11)
    big = np.iinfo(np.int64).max
    for _ in range(200):
        n_lists = rng.randint(1, 4)
        lists = [
            np.array(sorted(rng.sample(range(30), rng.randint(1, 6))), dtype=np.int64)
            for _ in range(n_lists)
        ]
        if n_lists >= 2 and rng.random() < 0.3:
            lists[-1] = lists[0]  # duplicate-term case: same list twice
        want = big
        for pick in product(*lists):
            if all(pick[i + 1] > pick[i] for i in range(len(pick) - 1)):
                want = min(want, pick[-1] - pick[0])
        assert _min_ordered_span(lists) == want


def test_span_near_positional_equals_text_verify_and_order_matters(pos_pair):
    """mode='span_near' over the positional index is bit-identical to the
    checkpoint-re-tokenize fallback; slop=0 on an in-order adjacent pair
    reproduces mode='phrase'; and reversing the token order changes the
    match set (the ordered-vs-unordered distinction)."""
    text_of = _texts(pos_pair["pos"])
    texts = list(text_of.values())
    t0, t7 = tokenize(texts[0]), tokenize(texts[7])
    pair = [t0[0], t0[1]]
    queries = [
        " ".join(pair),
        " ".join(reversed(pair)),
        " ".join(t7[3:6]),
        t0[0],
        "zzznotinvocab " + t0[0],
    ]
    q = pa.table(
        {
            "query_id": pa.array(range(len(queries)), pa.int64()),
            "text": pa.array(queries, pa.string()),
        }
    )
    for slop in (0, 2):
        a = (
            query_index(pos_pair["pos"], q, k=10, mode="span_near",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        b = (
            query_index(pos_pair["nopos"], q, k=10, mode="span_near",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        assert len(a) == len(b) > 0
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
        if slop == 0:
            # slop=0 ≡ exact phrase on the in-order pair (distinct terms)
            ph = (
                query_index(pos_pair["pos"], q.slice(0, 1), k=10, mode="phrase",
                            resolve_urls=False)
                .to_pandas().sort_values("rank").reset_index(drop=True)
            )
            a0 = a[a["query_id"] == 0].reset_index(drop=True)
            assert (a0["doc_id"].to_numpy() == ph["doc_id"].to_numpy()).all()
    # ordered semantics: the reversed pair must NOT be forced to match the
    # forward pair's docs (on a random corpus the sets differ; assert the
    # engine at least distinguishes the two queries' eligible sets)
    a = (
        query_index(pos_pair["pos"], q, k=10, mode="span_near", span_slop=0,
                    resolve_urls=False).to_pandas()
    )
    fwd = set(a[a["query_id"] == 0]["doc_id"])
    rev = set(a[a["query_id"] == 1]["doc_id"])
    assert fwd != rev


def test_default_build_has_no_sidecar(pos_pair):
    assert not glob.glob(f"{pos_pair['nopos']}/segments/*/pos.bin")
    assert glob.glob(f"{pos_pair['pos']}/segments/*/pos.bin")
    for sid in list_segments(pos_pair["nopos"]):
        assert Segment(pos_pair["nopos"], sid).pos_dict is None


def test_or_and_results_unaffected_by_positions(pos_pair):
    """The sidecar must not perturb scoring: OR and AND top-k are
    bit-identical between the two builds."""
    q = fixtures.gen_queries(20, seed=3)
    for mode in ("or", "and"):
        a = (
            query_index(pos_pair["pos"], q, k=10, mode=mode, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        b = (
            query_index(pos_pair["nopos"], q, k=10, mode=mode, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all()


def test_incremental_delta_inherits_positions(pos_pair, tmp_path):
    """add_documents on a positional base writes positional delta shards;
    phrase queries over the multi-generation index match a fresh
    positional full build bit-for-bit."""
    import os
    import shutil

    from aarhus_ray.pipelines.maintain import add_documents

    pages_b = str(tmp_path / "pages_b")
    os.makedirs(pages_b)
    # url_offset keeps delta urls disjoint from the base (append-only
    # contract of add_documents — see maintain.py module docstring)
    table_b = fixtures.gen_pages(120, seed=99, url_offset=100_000)
    pq.write_table(table_b.slice(0, 60), f"{pages_b}/part-0000.parquet")
    pq.write_table(table_b.slice(60), f"{pages_b}/part-0001.parquet")
    base = str(tmp_path / "base")
    shutil.copytree(pos_pair["pos"], base)
    add_documents(base, pages_b, num_partitions=2)
    for sid in list_segments(base):
        assert Segment(base, sid).pos_dict is not None

    full_pages = str(tmp_path / "pages_all")
    os.makedirs(full_pages)
    for i, f in enumerate(
        sorted(glob.glob(f"{pos_pair['pages']}/*.parquet"))
        + sorted(glob.glob(f"{pages_b}/*.parquet"))
    ):
        shutil.copyfile(f, f"{full_pages}/part-{i:04d}.parquet")

    text_of = _texts(base)
    texts = list(text_of.values())
    t1 = tokenize(texts[1])
    phrases = [" ".join(t1[:2]), " ".join(t1[2:5])]
    q = pa.table(
        {
            "query_id": pa.array(range(len(phrases)), pa.int64()),
            "text": pa.array(phrases, pa.string()),
        }
    )
    got = query_index(base, q, k=50, mode="phrase").to_pandas()
    fresh = str(tmp_path / "fresh")
    build_index(full_pages, fresh, num_partitions=4, num_segments=2, n_salts=2, positions=True)
    want = query_index(fresh, q, k=50, mode="phrase").to_pandas()
    # doc_ids (the tie-break) depend on the pid layout, which differs
    # between a grafted and a fresh build — compare the (score, url) sets,
    # which must match exactly (k chosen above any phrase's hit count)
    assert len(got) == len(want) > 0
    for qid in got["query_id"].unique():
        a = sorted(zip(got[got["query_id"] == qid]["score"], got[got["query_id"] == qid]["url"]))
        b = sorted(zip(want[want["query_id"] == qid]["score"], want[want["query_id"] == qid]["url"]))
        assert a == b


def test_intervals_mode_fallback_parity_and_degenerates(pos_pair):
    """mode='intervals': positional index == checkpoint-re-tokenize fallback
    bit-identically; single-alternative slots degenerate to span_near
    (same docs AND scores); an OOV alternative silently leaves its slot;
    a fully-OOV slot empties the query."""
    text_of = _texts(pos_pair["pos"])
    texts = list(text_of.values())
    t0, t7 = tokenize(texts[0]), tokenize(texts[7])
    a_, b_ = t0[0], t0[1]
    c_ = next(t for t in t7 if t not in (a_, b_))
    queries = [
        f"{a_} {b_}",                # all-single-alternative (span_near shape)
        f"{a_}|{c_} {b_}",           # head any_of alternation
        f"zzznotinvocab|{a_} {b_}",  # OOV alternative must drop out
        f"{a_}|{b_}",                # single slot: containment of either
        f"zzznotinvocab {b_}",       # fully-OOV slot: empty result
    ]
    q = pa.table(
        {
            "query_id": pa.array(range(len(queries)), pa.int64()),
            "text": pa.array(queries, pa.string()),
        }
    )
    for gaps in (0, 2):
        a = (
            query_index(pos_pair["pos"], q, k=10, mode="intervals",
                        max_gaps=gaps, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        b = (
            query_index(pos_pair["nopos"], q, k=10, mode="intervals",
                        max_gaps=gaps, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        assert len(a) == len(b) > 0
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
        # single-alternative degenerate == span_near (docs and scores)
        sn = (
            query_index(pos_pair["pos"], q.slice(0, 1), k=10, mode="span_near",
                        span_slop=gaps, resolve_urls=False)
            .to_pandas().sort_values("rank").reset_index(drop=True)
        )
        a0 = a[a["query_id"] == 0].reset_index(drop=True)
        assert (a0["doc_id"].to_numpy() == sn["doc_id"].to_numpy()).all()
        assert (a0["score"].to_numpy() == sn["score"].to_numpy()).all()
        # the OOV alternative contributes neither matches nor score
        a2 = a[a["query_id"] == 2].reset_index(drop=True)
        assert (a2["doc_id"].to_numpy() == a0["doc_id"].to_numpy()).all()
        assert (a2["score"].to_numpy() == a0["score"].to_numpy()).all()
        assert len(a[a["query_id"] == 1]) > 0  # alternation query matches
        assert (a["query_id"] == 4).sum() == 0


def test_clean_span_exists_vs_bruteforce():
    """_clean_span_exists (greedy-per-start) == exhaustive enumeration of
    all strictly-increasing picks with the no-exclude-in-window predicate,
    on random lists incl. shared-list reuse and random exclude sets."""
    from itertools import product

    from aarhus_ray.stages.query_stage import _clean_span_exists

    rng = random.Random(23)
    for _ in range(300):
        n_lists = rng.randint(1, 4)
        lists = [
            np.array(sorted(rng.sample(range(25), rng.randint(1, 5))), dtype=np.int64)
            for _ in range(n_lists)
        ]
        if n_lists >= 2 and rng.random() < 0.3:
            lists[-1] = lists[0]
        excl = np.array(
            sorted(rng.sample(range(25), rng.randint(0, 8))), dtype=np.int64
        )
        limit = rng.randint(0, 12)
        want = False
        for pick in product(*lists):
            if not all(pick[i + 1] > pick[i] for i in range(len(pick) - 1)):
                continue
            if pick[-1] - pick[0] > limit:
                continue
            if not ((excl >= pick[0]) & (excl <= pick[-1])).any():
                want = True
                break
        assert _clean_span_exists(lists, excl, limit) == want


def test_span_not_degeneracy_and_self_exclude(pos_pair):
    """mode='span_not' with an OOV exclude == mode='span_near' for the same
    include (bit-identical scores); 't ! t' is empty (every window contains
    its own pick); positional and re-tokenize paths agree; and a live
    exclude never GROWS the match set."""
    text_of = _texts(pos_pair["pos"])
    texts = list(text_of.values())
    t0 = tokenize(texts[0])
    inc = f"{t0[0]} {t0[1]}"
    q_not = pa.table(
        {
            "query_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    f"{inc} ! zzznotinvocab",
                    f"{t0[0]} ! {t0[0]}",
                    f"{inc} ! {t0[2]}",
                ],
                pa.string(),
            ),
        }
    )
    q_near = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "text": pa.array([inc], pa.string()),
        }
    )
    for slop in (0, 2):
        a = (
            query_index(pos_pair["pos"], q_not, k=10, mode="span_not",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        b = (
            query_index(pos_pair["nopos"], q_not, k=10, mode="span_not",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        assert len(a) == len(b)
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
        near = (
            query_index(pos_pair["pos"], q_near, k=10, mode="span_near",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        oov = a[a["query_id"] == 0].reset_index(drop=True)
        assert (oov["doc_id"].to_numpy() == near["doc_id"].to_numpy()).all()
        assert (oov["score"].to_numpy() == near["score"].to_numpy()).all()
        assert (a["query_id"] == 1).sum() == 0  # self-exclude is empty
        live = set(a[a["query_id"] == 2]["doc_id"].tolist())
        assert live <= set(near["doc_id"].tolist()) or len(near) == 10


def test_containing_span_exists_vs_bruteforce():
    """_containing_span_exists (greedy start + widest-achievable-window)
    == exhaustive enumeration of strictly-increasing picks with the
    some-inner-in-window predicate, incl. single-list spans and
    shared-list reuse."""
    from itertools import product

    from aarhus_ray.stages.query_stage import _containing_span_exists

    rng = random.Random(29)
    for _ in range(300):
        n_lists = rng.randint(1, 4)
        lists = [
            np.array(sorted(rng.sample(range(25), rng.randint(1, 5))), dtype=np.int64)
            for _ in range(n_lists)
        ]
        if n_lists >= 2 and rng.random() < 0.3:
            lists[-1] = lists[0]
        inner = np.array(
            sorted(rng.sample(range(25), rng.randint(0, 8))), dtype=np.int64
        )
        limit = rng.randint(0, 12)
        want = False
        for pick in product(*lists):
            if not all(pick[i + 1] > pick[i] for i in range(len(pick) - 1)):
                continue
            if pick[-1] - pick[0] > limit:
                continue
            if ((inner >= pick[0]) & (inner <= pick[-1])).any():
                want = True
                break
        assert _containing_span_exists(lists, inner, limit) == want


def test_span_containing_degeneracies(pos_pair):
    """mode='span_containing': 't @ t' == span_near(t) bit-identically;
    OOV little ⇒ EMPTY; positional and re-tokenize paths agree; a live
    little never grows the match set beyond span_near of the big."""
    text_of = _texts(pos_pair["pos"])
    texts = list(text_of.values())
    t0 = tokenize(texts[0])
    big = f"{t0[0]} {t0[1]}"
    q = pa.table(
        {
            "query_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    f"{t0[0]} @ {t0[0]}",
                    f"{big} @ zzznotinvocab",
                    f"{big} @ {t0[2]}",
                ],
                pa.string(),
            ),
        }
    )
    q_near = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "text": pa.array([t0[0]], pa.string()),
        }
    )
    for slop in (0, 2):
        a = (
            query_index(pos_pair["pos"], q, k=10, mode="span_containing",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        b = (
            query_index(pos_pair["nopos"], q, k=10, mode="span_containing",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        assert len(a) == len(b)
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
        near = (
            query_index(pos_pair["pos"], q_near, k=10, mode="span_near",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        self_q = a[a["query_id"] == 0].reset_index(drop=True)
        assert (self_q["doc_id"].to_numpy() == near["doc_id"].to_numpy()).all()
        assert (self_q["score"].to_numpy() == near["score"].to_numpy()).all()
        assert (a["query_id"] == 1).sum() == 0  # OOV little: empty
        big_near = (
            query_index(pos_pair["pos"],
                        pa.table({"query_id": pa.array([0], pa.int64()),
                                  "text": pa.array([big], pa.string())}),
                        k=10, mode="span_near", span_slop=slop, resolve_urls=False)
            .to_pandas()
        )
        live = set(a[a["query_id"] == 2]["doc_id"].tolist())
        assert live <= set(big_near["doc_id"].tolist()) or len(big_near) == 10


def test_within_span_exists_vs_bruteforce():
    """_within_span_exists (widest-big-window + greedy-little-inside)
    == exhaustive enumeration over (big pick, little pick) pairs with
    the enclosure predicate, incl. single-list spans and shared lists."""
    from itertools import product

    from aarhus_ray.stages.query_stage import _within_span_exists

    rng = random.Random(31)
    for _ in range(300):
        nb = rng.randint(1, 3)
        nl = rng.randint(1, 3)
        big = [
            np.array(sorted(rng.sample(range(20), rng.randint(1, 5))), dtype=np.int64)
            for _ in range(nb)
        ]
        little = [
            np.array(sorted(rng.sample(range(20), rng.randint(1, 5))), dtype=np.int64)
            for _ in range(nl)
        ]
        if rng.random() < 0.3:
            little[0] = big[0]
        bl = rng.randint(0, 10)
        ll = rng.randint(0, 10)
        want = False
        for bp in product(*big):
            if not all(bp[i + 1] > bp[i] for i in range(len(bp) - 1)):
                continue
            if bp[-1] - bp[0] > bl:
                continue
            for lp in product(*little):
                if not all(lp[i + 1] > lp[i] for i in range(len(lp) - 1)):
                    continue
                if lp[-1] - lp[0] > ll:
                    continue
                if lp[0] >= bp[0] and lp[-1] <= bp[-1]:
                    want = True
                    break
            if want:
                break
        assert _within_span_exists(big, little, bl, ll) == want


def test_span_within_degeneracies(pos_pair):
    """mode='span_within': 't < t' == span_near(t) bit-identically; OOV
    little OR big ⇒ EMPTY; positional and re-tokenize paths agree; a
    disjoint little's match set ⊆ span_near of the big."""
    text_of = _texts(pos_pair["pos"])
    texts = list(text_of.values())
    t0 = tokenize(texts[0])
    big = f"{t0[0]} {t0[1]}"
    q = pa.table(
        {
            "query_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    f"{t0[0]} < {t0[0]}",
                    f"zzznotinvocab < {big}",
                    f"{t0[0]} < zzznotinvocab {t0[1]}",
                    f"{t0[2]} < {big}",
                ],
                pa.string(),
            ),
        }
    )
    q_near = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "text": pa.array([t0[0]], pa.string()),
        }
    )
    for slop in (0, 2):
        a = (
            query_index(pos_pair["pos"], q, k=1000, mode="span_within",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        b = (
            query_index(pos_pair["nopos"], q, k=1000, mode="span_within",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        assert len(a) == len(b)
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
        near = (
            query_index(pos_pair["pos"], q_near, k=1000, mode="span_near",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        self_q = a[a["query_id"] == 0].reset_index(drop=True)
        assert (self_q["doc_id"].to_numpy() == near["doc_id"].to_numpy()).all()
        assert (self_q["score"].to_numpy() == near["score"].to_numpy()).all()
        assert (a["query_id"] == 1).sum() == 0  # OOV little: empty
        assert (a["query_id"] == 2).sum() == 0  # OOV big: empty
        big_near = (
            query_index(pos_pair["pos"],
                        pa.table({"query_id": pa.array([0], pa.int64()),
                                  "text": pa.array([big], pa.string())}),
                        k=1000, mode="span_near", span_slop=slop,
                        resolve_urls=False)
            .to_pandas()
        )
        live = set(a[a["query_id"] == 3]["doc_id"].tolist())
        assert live <= set(big_near["doc_id"].tolist())


def test_span_or_degeneracies(pos_pair):
    """mode='span_or': 't | t' == span_near(t) bit-identically; a fully
    OOV alternative drops silently ('zzz | seq' == span_near(seq));
    the both-orders union's match set is exactly span_near(s1) ∪
    span_near(s2); all alternatives dead ⇒ empty."""
    text_of = _texts(pos_pair["pos"])
    texts = list(text_of.values())
    t0 = tokenize(texts[0])
    s1 = f"{t0[0]} {t0[1]}"
    s2 = f"{t0[1]} {t0[0]}"
    q = pa.table(
        {
            "query_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    f"{t0[0]} | {t0[0]}",
                    f"zzznotinvocab | {s1}",
                    f"{s1} | {s2}",
                    "zzznotinvocab | zzzalsodead",
                ],
                pa.string(),
            ),
        }
    )
    for slop in (0, 2):
        a = (
            query_index(pos_pair["pos"], q, k=1000, mode="span_or",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        b = (
            query_index(pos_pair["nopos"], q, k=1000, mode="span_or",
                        span_slop=slop, resolve_urls=False)
            .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        )
        assert len(a) == len(b)
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
        assert (a["score"].to_numpy() == b["score"].to_numpy()).all()

        def near_of(text):
            df = query_index(
                pos_pair["pos"],
                pa.table({"query_id": pa.array([0], pa.int64()),
                          "text": pa.array([text], pa.string())}),
                k=1000, mode="span_near", span_slop=slop, resolve_urls=False,
            ).to_pandas()
            if len(df) == 0:  # empty result sets can arrive column-less
                return pd.DataFrame({"doc_id": [], "score": []})
            return df.sort_values("rank").reset_index(drop=True)

        near_t = near_of(t0[0])
        self_q = a[a["query_id"] == 0].reset_index(drop=True)
        assert (self_q["doc_id"].to_numpy() == near_t["doc_id"].to_numpy()).all()
        assert (self_q["score"].to_numpy() == near_t["score"].to_numpy()).all()
        near_s1 = near_of(s1)
        dead_live = a[a["query_id"] == 1].reset_index(drop=True)
        assert (dead_live["doc_id"].to_numpy() == near_s1["doc_id"].to_numpy()).all()
        assert (dead_live["score"].to_numpy() == near_s1["score"].to_numpy()).all()
        union_docs = set(a[a["query_id"] == 2]["doc_id"].tolist())
        assert union_docs == (
            set(near_s1["doc_id"].tolist()) | set(near_of(s2)["doc_id"].tolist())
        )
        assert (a["query_id"] == 3).sum() == 0


def test_span_multi_degeneracies(pos_pair):
    """mode='span_multi': a prefix expanding to exactly ONE dictionary
    term == span_near with the literal sequence bit-identically; a dead
    prefix slot ⇒ EMPTY; positional and re-tokenize paths agree."""
    from aarhus_ray.pipelines.query import list_segments as _ls
    from aarhus_ray.stages.query_stage import Segment

    terms: set[str] = set()
    for sid in _ls(pos_pair["pos"]):
        terms.update(Segment(pos_pair["pos"], sid).terms_sorted)
    ordered = sorted(terms)
    text_of = _texts(pos_pair["pos"])
    t0 = tokenize(list(text_of.values())[0])
    lit = t0[0]
    # a term that is no other term's prefix -> unique expansion
    uniq = next(
        t for i, t in enumerate(ordered)
        if t != lit and (i + 1 == len(ordered) or not ordered[i + 1].startswith(t))
    )
    q = pa.table(
        {
            "query_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [f"{uniq}* {lit}", f"zzqq* {lit}", f"zzzzqx~ {lit}"],
                pa.string(),
            ),
        }
    )
    q_near = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "text": pa.array([f"{uniq} {lit}"], pa.string()),
        }
    )
    def _norm(df):
        if len(df) == 0:  # empty result sets can arrive column-less
            return pd.DataFrame(
                {"query_id": pd.Series([], dtype="int64"), "doc_id": [], "score": []}
            )
        return df.sort_values(["query_id", "rank"]).reset_index(drop=True)

    for slop in (0, 2):
        a = _norm(
            query_index(pos_pair["pos"], q, k=1000, mode="span_multi",
                        span_slop=slop, resolve_urls=False).to_pandas()
        )
        b = _norm(
            query_index(pos_pair["nopos"], q, k=1000, mode="span_multi",
                        span_slop=slop, resolve_urls=False).to_pandas()
        )
        assert len(a) == len(b)
        if len(a):
            assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
            assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
        near = _norm(
            query_index(pos_pair["pos"], q_near, k=1000, mode="span_near",
                        span_slop=slop, resolve_urls=False).to_pandas()
        )
        self_q = a[a["query_id"] == 0].reset_index(drop=True)
        assert len(self_q) == len(near)
        if len(near):
            assert (self_q["doc_id"].to_numpy() == near["doc_id"].to_numpy()).all()
            assert (self_q["score"].to_numpy() == near["score"].to_numpy()).all()
        assert (a["query_id"] == 1).sum() == 0  # dead prefix slot: empty
        assert (a["query_id"] == 2).sum() == 0  # hopeless fuzzy slot: empty


def test_span_multi_wildcard_equals_enumerated_intervals(pos_pair):
    """A span_multi wildcard slot must be bit-identical to an intervals
    query whose slot enumerates the same dictionary expansion explicitly
    (both run _score_slot_sequence; only the rewrite differs) — checked
    on an infix-star and a leading-star pattern, positional and
    re-tokenize paths."""
    import re as _re

    from aarhus_ray.pipelines.query import list_segments as _ls
    from aarhus_ray.stages.query_stage import Segment

    terms: set[str] = set()
    for sid in _ls(pos_pair["pos"]):
        terms.update(Segment(pos_pair["pos"], sid).terms_sorted)
    text_of = _texts(pos_pair["pos"])
    t0 = tokenize(list(text_of.values())[0])
    lit = t0[0]
    # build an infix pattern from a real token with >=3 chars
    tok = next(t for t in t0 if len(t) >= 3 and t != lit)
    pat = f"{tok[0]}*{tok[-1]}"        # infix star
    lead = f"*{tok[-2:]}"              # leading star
    for pattern in (pat, lead):
        rx = _re.compile("^" + ".*".join(_re.escape(p) for p in pattern.split("*")) + "$")
        expansion = sorted(t for t in terms if rx.match(t))
        assert expansion, pattern  # the generator token guarantees >=1
        q_multi = pa.table(
            {
                "query_id": pa.array([0], pa.int64()),
                "text": pa.array([f"{pattern} {lit}"], pa.string()),
            }
        )
        q_intervals = pa.table(
            {
                "query_id": pa.array([0], pa.int64()),
                "text": pa.array(["|".join(expansion) + f" {lit}"], pa.string()),
            }
        )
        for idx in (pos_pair["pos"], pos_pair["nopos"]):
            a = (
                query_index(idx, q_multi, k=1000, mode="span_multi",
                            span_slop=2, resolve_urls=False).to_pandas()
            )
            b = (
                query_index(idx, q_intervals, k=1000, mode="intervals",
                            max_gaps=2, resolve_urls=False).to_pandas()
            )
            assert len(a) == len(b)
            if len(a):
                a = a.sort_values("rank").reset_index(drop=True)
                b = b.sort_values("rank").reset_index(drop=True)
                assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
                assert (a["score"].to_numpy() == b["score"].to_numpy()).all()


def _pos_vs_text(pos_pair, queries, **kw) -> int:
    """Run ``queries`` on the positional and the default index with the
    same query_index options; assert identical (doc_id, score) rankings
    and return the row count."""
    q = pa.table(
        {
            "query_id": pa.array(range(len(queries)), pa.int64()),
            "text": pa.array(queries, pa.string()),
        }
    )
    a, b = (
        query_index(pos_pair[idx], q, k=10, resolve_urls=False, **kw)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
        for idx in ("pos", "nopos")
    )
    assert len(a) == len(b)
    assert (a["query_id"].to_numpy() == b["query_id"].to_numpy()).all()
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
    assert (a["score"].to_numpy() == b["score"].to_numpy()).all()
    return len(a)


def _doc_windows(pos_pair, n: int, width: int, seed: int) -> list[list[str]]:
    """``n`` seeded runs of ``width`` consecutive tokens of stored docs."""
    texts = list(_texts(pos_pair["pos"]).values())
    rng = random.Random(seed)
    out: list[list[str]] = []
    while len(out) < n:
        toks = tokenize(texts[rng.randrange(len(texts))])
        if len(toks) > width:
            i = rng.randrange(len(toks) - width)
            out.append(toks[i : i + width])
    return out


def test_near_positional_equals_text_verify(pos_pair):
    """mode='near' over the positional index is bit-identical to the
    checkpoint-re-tokenize fallback: seeded in-doc term sets (pairs and
    triples spread over a few tokens), windows 2 and 8, plus a
    single-term query and an OOV query."""
    wins = _doc_windows(pos_pair, 30, 6, seed=21)
    queries = [f"{w[0]} {w[-1]}" for w in wins[:15]]
    queries += [f"{w[0]} {w[2]} {w[5]}" for w in wins[15:]]
    queries += [wins[0][0], "zzznotinvocab " + wins[0][0]]
    for window in (2, 8):
        n = _pos_vs_text(pos_pair, queries, mode="near", near_window=window)
        assert n > 0


def test_phrase_prefix_positional_equals_text_verify(pos_pair):
    """mode='phrase_prefix' (last token a prefix stem) over the
    positional index is bit-identical to the re-tokenize fallback: real
    in-doc phrases cut to a 1- or 2-char stem, a single-stem query, a
    dead stem and an OOV fixed term."""
    wins = _doc_windows(pos_pair, 30, 3, seed=22)
    queries = [f"{w[0]} {w[1][:2]}" for w in wins[:15]]
    queries += [f"{w[0]} {w[1]} {w[2][:1]}" for w in wins[15:]]
    queries += [wins[0][0][:2], f"{wins[0][0]} zzzq", f"zzznotinvocab {wins[0][0][:1]}"]
    assert _pos_vs_text(pos_pair, queries, mode="phrase_prefix") > 0


def test_query_string_phrase_positional_equals_text_verify(pos_pair):
    """mode='query_string' with quoted phrase clauses over the positional
    index is bit-identical to the re-tokenize fallback, alone and mixed
    with MUST, MUST_NOT, boosted SHOULD and prefix items."""
    wins = _doc_windows(pos_pair, 30, 4, seed=23)
    queries = [f'"{w[0]} {w[1]}"' for w in wins[:10]]
    queries += [f'"{w[0]} {w[1]} {w[2]}" {w[3]}^2' for w in wins[10:20]]
    queries += [f'"{w[1]} {w[2]}" +{w[0]} -{w[3]} {w[3][:2]}*' for w in wins[20:]]
    queries += ['"zzznotinvocab table"']
    assert _pos_vs_text(pos_pair, queries, mode="query_string") > 0
