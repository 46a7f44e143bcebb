"""Property tests for the encoding kernels (SURVEY.md §5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aarhus_ray import codecs


uint64s = st.integers(min_value=0, max_value=2**63 - 1)


@given(st.lists(uint64s, max_size=400))
@settings(max_examples=60, deadline=None)
def test_svb_roundtrip(xs):
    v = np.array(xs, dtype=np.uint64)
    assert np.array_equal(codecs.svb_decode(codecs.svb_encode(v), len(v)), v)


@given(st.lists(uint64s, max_size=400))
@settings(max_examples=60, deadline=None)
def test_varint_roundtrip(xs):
    v = np.array(xs, dtype=np.uint64)
    assert np.array_equal(codecs.varint_decode(codecs.varint_encode(v)), v)


@given(st.lists(uint64s, min_size=1, max_size=400), st.integers(0, 2**40))
@settings(max_examples=60, deadline=None)
def test_delta_roundtrip(xs, base):
    v = np.unique(np.array(xs, dtype=np.uint64))
    v = v[v >= base]
    if len(v) == 0:
        return
    assert np.array_equal(codecs.delta_decode(codecs.delta_encode(v, base), base), v)


@given(
    st.lists(st.integers(0, 2**50), min_size=1, max_size=600),
    st.lists(st.integers(1, 1000), min_size=600, max_size=600),
)
@settings(max_examples=40, deadline=None)
def test_postings_roundtrip(ids, tfs):
    doc_ids = np.unique(np.array(ids, dtype=np.uint64))
    tf = np.array(tfs[: len(doc_ids)], dtype=np.uint64)
    blob, skips = codecs.encode_postings(doc_ids, tf)
    d, t = codecs.decode_postings(blob, skips)
    assert np.array_equal(d, doc_ids)
    assert np.array_equal(t, tf)


def test_skip_entries_shape_and_bounds():
    n = 1000
    rng = np.random.RandomState(7)
    doc_ids = np.cumsum(rng.randint(1, 50, size=n).astype(np.uint64))
    tfs = rng.randint(1, 30, size=n).astype(np.uint64)
    idf = 2.0
    blob, skips_b = codecs.encode_postings(doc_ids, tfs)
    skips = np.frombuffer(skips_b, dtype=codecs.SKIP_DTYPE)
    assert len(skips) == (n + codecs.SKIP_BLOCK - 1) // codecs.SKIP_BLOCK
    assert int(skips[-1]["last_doc_id"]) == int(doc_ids[-1])
    assert int(skips["count"].sum()) == n
    # every block decodes independently given the previous block's last id
    prev = 0
    pos = 0
    for bi, e in enumerate(skips):
        d, t = codecs.decode_block(blob, skips, bi, prev)
        assert np.array_equal(d, doc_ids[pos : pos + int(e["count"])])
        assert np.array_equal(t, tfs[pos : pos + int(e["count"])])
        # block max_tf bounds every tf; derived score bound is monotone in tf
        assert int(e["max_tf"]) == int(np.max(t))
        ub = codecs.tf_upper_bound(t, idf)
        assert float(codecs.tf_upper_bound(int(e["max_tf"]), idf)) >= float(np.max(ub)) - 1e-12
        prev = int(e["last_doc_id"])
        pos += int(e["count"])


def test_svb_sizes():
    # 1-2-4-8 length mapping
    v = np.array([0, 255, 256, 65535, 65536, 2**32 - 1, 2**32], dtype=np.uint64)
    blob = codecs.svb_encode(v)
    n_control = (len(v) + 3) // 4
    assert len(blob) == n_control + 1 + 1 + 2 + 2 + 4 + 4 + 8


# ---------------------------------------------------------------- whole-bucket kernel

def _encode_one_reference(doc_ids, tfs):
    """Per-term oracle: the single-list encoder written block by block —
    whole-list delta, SVB control || data, LEB128 tfs, one skip record per
    SKIP_BLOCK postings."""
    n = len(doc_ids)
    if n == 0:
        return b"", b""
    control, data, lens = codecs.svb_encode_streams(codecs.delta_encode(doc_ids))
    tf_blob, tf_lens = codecs.varint_encode_with_lens(tfs)
    skips = []
    for s in range(0, n, codecs.SKIP_BLOCK):
        e = min(s + codecs.SKIP_BLOCK, n)
        skips.append(
            (int(doc_ids[e - 1]), len(control) + int(lens[:s].sum()),
             len(control) + len(data) + int(tf_lens[:s].sum()), e - s, int(tfs[s:e].max()))
        )
    return control + data + tf_blob, np.array(skips, dtype=codecs.SKIP_DTYPE).tobytes()


_EDGE_DFS = [1, 3, 4, 5, 127, 128, 129, 257]


def _term_run(rng, df, base, wide_gaps, wide_tfs):
    gaps = rng.randint(1, 2**33 if wide_gaps else 40, size=df).astype(np.uint64)
    if wide_gaps:
        gaps[rng.randint(0, df)] = np.uint64(2**32 + rng.randint(0, 1000))
    doc_ids = np.uint64(base) + np.cumsum(gaps, dtype=np.uint64)
    tfs = rng.randint(1, 400 if wide_tfs else 4, size=df).astype(np.uint64)
    return doc_ids, tfs


def _check_many_equals_per_term(runs):
    empty = [np.empty(0, np.uint64)]
    docs = np.concatenate(empty + [d for d, _ in runs])
    tfs = np.concatenate(empty + [t for _, t in runs])
    dfs = np.array([len(d) for d, _ in runs], dtype=np.int64)
    starts = codecs.exclusive_cumsum(dfs)
    postings, skips, blob_lens, skip_lens = codecs.encode_postings_many(docs, tfs, starts, starts + dfs)
    ref = [_encode_one_reference(d, t) for d, t in runs]
    assert postings == b"".join(p for p, _ in ref)
    assert skips == b"".join(s for _, s in ref)
    assert blob_lens.tolist() == [len(p) for p, _ in ref]
    assert skip_lens.tolist() == [len(s) for _, s in ref]
    for (d, t), r in zip(runs, ref):
        assert codecs.encode_postings(d, t) == r
    # ranges that do not tile the arrays (reversed term order) encode the same
    # terms in the order given
    rev = slice(None, None, -1)
    postings_r, skips_r, _, _ = codecs.encode_postings_many(docs, tfs, starts[rev], (starts + dfs)[rev])
    assert postings_r == b"".join(p for p, _ in ref[rev])
    assert skips_r == b"".join(s for _, s in ref[rev])


@given(
    st.lists(
        st.tuples(
            st.sampled_from(_EDGE_DFS) | st.integers(1, 300),
            # doc ids start below, at or past a pid boundary (pid << 40)
            st.sampled_from([0, (1 << 40) - 5, 3 << 40, (7 << 40) - 200]),
            st.booleans(),  # gaps >= 2^32
            st.booleans(),  # tfs >= 128
            st.integers(0, 2**31 - 1),
        ),
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_encode_postings_many_equals_per_term(specs):
    runs = []
    for df, base, wide_gaps, wide_tfs, seed in specs:
        runs.append(_term_run(np.random.RandomState(seed), df, base, wide_gaps, wide_tfs))
    _check_many_equals_per_term(runs)


def test_encode_postings_many_edge_dfs_in_one_bucket():
    rng = np.random.RandomState(11)
    runs = [
        _term_run(rng, df, (pid << 40) - 3, wide, wide)
        for pid, df in enumerate(_EDGE_DFS, start=1)
        for wide in (False, True)
    ]
    _check_many_equals_per_term(runs)


def test_encode_postings_many_empty():
    empty = np.empty(0, np.uint64)
    postings, skips, blob_lens, skip_lens = codecs.encode_postings_many(empty, empty, [], [])
    assert (postings, skips) == (b"", b"")
    assert len(blob_lens) == 0 and len(skip_lens) == 0
    # terms with no postings own no bytes
    postings, skips, blob_lens, skip_lens = codecs.encode_postings_many(empty, empty, [0, 0], [0, 0])
    assert (postings, skips) == (b"", b"")
    assert blob_lens.tolist() == [0, 0] and skip_lens.tolist() == [0, 0]
    assert codecs.encode_postings(empty, empty) == (b"", b"")


@pytest.mark.parametrize("top", [0, 1, 127, 128, 2**14, 2**35, 2**63 + 5, 2**64 - 1])
def test_varint_width_follows_largest_value(top):
    v = np.array([0, 1, top // 3, top], dtype=np.uint64)
    blob, lens = codecs.varint_encode_with_lens(v)
    assert np.array_equal(codecs.varint_decode(blob), v)
    assert lens.tolist() == [max(1, -(-int(x).bit_length() // 7)) for x in v.tolist()]
