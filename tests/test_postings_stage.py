"""Map-side partial encoding and reduce-side segment assembly against
per-row / per-term oracles.

``PostingsEncoder.encode_flat`` and ``assemble_segment`` work on whole
batches and whole buckets at once. The oracles below build the same outputs
one (term, salt) row and one term at a time, in plain Python, the way the
stage did before it was vectorized; the stage must match them exactly
(``Table.equals`` for partials, byte equality for every segment file).
"""

import bisect
import itertools
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aarhus_ray import codecs
from aarhus_ray.partition import DOC_ID_PARTITION_SHIFT, hash64
from aarhus_ray.stages.postings_stage import PostingsEncoder, _sorted_runs, assemble_segment
from aarhus_ray.textnorm import tokenize_flat

P, N_SALTS = 4, 2
BOUNDARIES = ["lemon"]
HEAVY = ["the", "and"]


# ---------------------------------------------------------------- oracles

def _encode_flat_per_row(enc: PostingsEncoder, flat_terms: pa.Array, flat_docs: np.ndarray) -> pa.Table:
    """One partial row per (term, salt) run, built row by row."""
    terms = flat_terms.to_pylist()
    docs = [int(d) for d in flat_docs]
    postings: dict[str, dict[int, list[int]]] = {}
    prev, at = None, 0
    for t, d in zip(terms, docs):
        at = at + 1 if d == prev else 0  # within-doc token index
        prev = d
        postings.setdefault(t, {}).setdefault(d, []).append(at)

    def salt_of(term, doc):
        if term in enc.heavy:
            pid = (doc >> DOC_ID_PARTITION_SHIFT) - enc.pid_offset
            return pid * enc.n_salts // enc.P
        return hash64(term) % enc.n_salts

    rows = []
    for term in sorted(postings):
        seg = bisect.bisect_right(list(enc.boundaries), term)
        by_doc = postings[term]
        for salt, run in itertools.groupby(sorted(by_doc), key=lambda d: salt_of(term, d)):
            run = list(run)
            gaps = [run[0]] + [b - a for a, b in zip(run, run[1:])]
            tfs = [len(by_doc[d]) for d in run]
            pos = b""
            if enc.positions:
                for d in run:
                    ps = by_doc[d]
                    pos += codecs.varint_encode(
                        np.array([len(ps), ps[0]] + [b - a for a, b in zip(ps, ps[1:])], np.uint64)
                    )
            rows.append(
                {
                    "term": term, "seg_id": seg, "salt": salt,
                    "bucket": seg * enc.n_salts + salt, "min_doc_id": run[0],
                    "doc_ids": codecs.varint_encode(np.array(gaps, np.uint64)),
                    "tfs": codecs.varint_encode(np.array(tfs, np.uint64)),
                    "df_partial": len(run), "max_tf": max(tfs), "pos": pos,
                }
            )
    return pa.Table.from_pylist(rows, schema=PostingsEncoder._schema())


def _assemble_per_term(group: pa.Table):
    """(dict table, postings, skips, pos bytes or None) of one bucket, one
    term at a time: rows in (term, salt, min_doc_id) order, each term's
    partials decoded and concatenated, re-sorted (with its positions) when
    the partials interleave, then encoded with the one-term encoder."""
    rows = sorted(group.to_pylist(), key=lambda r: (r["term"], r["salt"], r["min_doc_id"]))
    has_pos = any(r["pos"] for r in rows)
    cols = {k: [] for k in ("term", "df", "offset", "length", "skip_offset", "skip_length", "max_tf")}
    pos_offset, pos_length = [], []
    postings, skips, pos_bin = b"", b"", b""
    for term, rs in itertools.groupby(rows, key=lambda r: r["term"]):
        rs = list(rs)
        docs = np.concatenate([np.cumsum(codecs.varint_decode(r["doc_ids"]), dtype=np.uint64) for r in rs])
        tfs = np.concatenate([codecs.varint_decode(r["tfs"]) for r in rs])
        pos = b"".join(r["pos"] for r in rs)
        if not np.all(docs[1:] > docs[:-1]):
            o = np.argsort(docs, kind="stable")
            docs, tfs = docs[o], tfs[o]
            if has_pos:
                vals = codecs.varint_decode(pos)
                b = codecs.pos_bounds(vals, len(o))
                pos = codecs.varint_encode(np.concatenate([vals[b[i] : b[i + 1]] for i in o]))
        blob, sk = codecs.encode_postings(docs, tfs)
        for k, v in (
            ("term", term), ("df", len(docs)), ("offset", len(postings)), ("length", len(blob)),
            ("skip_offset", len(skips)), ("skip_length", len(sk)), ("max_tf", int(tfs.max())),
        ):
            cols[k].append(v)
        postings += blob
        skips += sk
        pos_offset.append(len(pos_bin))
        pos_length.append(len(pos))
        pos_bin += pos
    types = {"term": pa.string(), "max_tf": pa.uint32()}
    tbl = pa.table({k: pa.array(v, types.get(k, pa.uint64())) for k, v in cols.items()})
    if has_pos:
        tbl = tbl.append_column("pos_offset", pa.array(pos_offset, pa.uint64()))
        tbl = tbl.append_column("pos_length", pa.array(pos_length, pa.uint64()))
    return tbl, postings, skips, (pos_bin if has_pos else None)


# ---------------------------------------------------------------- inputs

_WORDS = (
    ["the"] * 6 + ["and"] * 4
    + ["apple", "banana", "cherry", "kiwi", "lemon", "mango", "zebra", "quince", "fig", "yam"]
)


def _pid_tokens(pid: int, n_docs: int, seed: int):
    rng = np.random.RandomState(seed + pid)
    texts = [" ".join(rng.choice(_WORDS, size=rng.randint(1, 30))) for _ in range(n_docs)]
    ids = (np.uint64(pid) << np.uint64(DOC_ID_PARTITION_SHIFT)) + np.arange(n_docs, dtype=np.uint64)
    flat_terms, flat_docs, _ = tokenize_flat(pa.array(texts, pa.string()), ids)
    return flat_terms, flat_docs


def _encoder(positions: bool) -> PostingsEncoder:
    return PostingsEncoder(BOUNDARIES, HEAVY, P, N_SALTS, positions=positions)


def _interleaved_pair(enc: PostingsEncoder) -> list[pa.Table]:
    """Two partials of the light term 'kiwi' in one pid (past the others)
    whose doc ranges interleave (docs 1, 10 and 5, 20): their ordered
    concat is out of order, which takes the argsort fallback."""
    base = 9 << DOC_ID_PARTITION_SHIFT
    out = []
    for rows in ((1, 1, 10, 10, 10), (5, 20, 20)):
        docs = np.array([base + r for r in rows], dtype=np.uint64)
        out.append(enc.encode_flat(pa.array(["kiwi"] * len(rows), pa.string()), docs))
    return out


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("positions", [False, True])
def test_encode_flat_equals_per_row_oracle(positions):
    enc = _encoder(positions)
    for pid in range(P):
        flat_terms, flat_docs = _pid_tokens(pid, 40, seed=3)
        got = enc.encode_flat(flat_terms, flat_docs)
        want = _encode_flat_per_row(enc, flat_terms, flat_docs)
        assert got.equals(want)
    # the batches hold heavy and light terms, and rows of every salt
    terms = set(got["term"].to_pylist())
    assert {"the", "and"} <= terms and terms - set(HEAVY)
    assert len(set(got["salt"].to_pylist())) == N_SALTS


def test_encode_flat_heavy_salt_spans_a_batch_of_pids():
    # one batch holding every pid: a heavy term splits into one row per salt
    enc = _encoder(False)
    parts = [_pid_tokens(pid, 10, seed=8) for pid in range(P)]
    flat_terms = pa.concat_arrays([t for t, _ in parts])
    flat_docs = np.concatenate([d for _, d in parts])
    got = enc.encode_flat(flat_terms, flat_docs)
    assert got.equals(_encode_flat_per_row(enc, flat_terms, flat_docs))
    the = got.filter(pa.compute.equal(got["term"], "the"))
    assert the["salt"].to_pylist() == list(range(N_SALTS))


def test_encode_flat_empty_batch():
    got = _encoder(True).encode_flat(pa.array([], pa.string()), np.empty(0, np.uint64))
    assert got.num_rows == 0 and got.schema.equals(PostingsEncoder._schema())


@pytest.mark.parametrize("positions", [False, True])
def test_assemble_segment_equals_per_term_oracle(tmp_path, positions):
    enc = _encoder(positions)
    # every pid's partials in one group: light terms split over pids, heavy
    # terms over salts, plus one interleaved pair of 'kiwi' partials
    parts = [enc.encode_flat(*_pid_tokens(pid, 40, seed=5)) for pid in range(P)]
    parts += _interleaved_pair(enc)
    group = pa.concat_tables(parts)
    assemble_segment(str(tmp_path), 0, group)
    seg = tmp_path / "segments" / "seg=0000"
    want_dict, want_postings, want_skips, want_pos = _assemble_per_term(group)
    got_dict = pq.read_table(seg / "dict.parquet")
    assert got_dict.equals(want_dict)
    oracle_parquet = str(tmp_path / "oracle_dict.parquet")
    pq.write_table(want_dict, oracle_parquet)
    with open(oracle_parquet, "rb") as f:
        assert (seg / "dict.parquet").read_bytes() == f.read()
    assert (seg / "postings.bin").read_bytes() == want_postings
    assert (seg / "skips.bin").read_bytes() == want_skips
    if positions:
        assert (seg / "pos.bin").read_bytes() == want_pos
    else:
        assert not os.path.exists(seg / "pos.bin")
    # the groups hold what the test is about: a light term over several
    # pids, a heavy term over both salts, and the out-of-order pair
    rows = group.to_pylist()
    pids_of = lambda t: {r["min_doc_id"] >> DOC_ID_PARTITION_SHIFT for r in rows if r["term"] == t}
    assert len(pids_of("apple")) > 1
    assert {r["salt"] for r in rows if r["term"] == "the"} == set(range(N_SALTS))
    run_terms, *_, run_perms = _sorted_runs(group)
    assert [run_terms[r].as_py() for r in run_perms] == ["kiwi"]
    kiwi = got_dict.filter(pa.compute.equal(got_dict["term"], "kiwi"))
    assert kiwi["df"][0].as_py() == sum(r["df_partial"] for r in rows if r["term"] == "kiwi")
