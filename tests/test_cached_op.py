"""CachedOp, the one worker-side cache of every per-call index op. It is a
plain callable over a module-global dict, so it is exercised here
directly, without going through a Ray task."""

from __future__ import annotations

import pickle

import pyarrow as pa
import pytest

from aarhus_ray.stages import query_stage
from aarhus_ray.stages.query_stage import CachedOp

BATCH = pa.table({"query_id": pa.array([7], pa.int64())})


class OpA:
    """Counting fake op: records every construction."""

    built: list[tuple] = []

    def __init__(self, *args):
        type(self).built.append(args)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.append_column("op", pa.array([type(self).__name__] * batch.num_rows))


class OpB(OpA):
    built: list[tuple] = []


@pytest.fixture
def cache(monkeypatch):
    fresh: dict = {}
    monkeypatch.setattr(query_stage, "_WORKER_OP_CACHE", fresh)
    OpA.built, OpB.built = [], []
    return fresh


def test_repeated_key_constructs_once(cache):
    CachedOp("/a", 1, OpA, ("x", 3))(BATCH)
    CachedOp("/a", 1, OpA, ("x", 3))(BATCH)
    assert OpA.built == [("x", 3)]
    # a serialized copy (what a Ray task receives) reaches the same entry
    pickle.loads(pickle.dumps(CachedOp("/a", 1, OpA, ("x", 3))))(BATCH)
    assert OpA.built == [("x", 3)]
    CachedOp("/a", 1, OpA, ("x", 4))(BATCH)  # different args: a new op
    assert OpA.built == [("x", 3), ("x", 4)]


def test_equal_args_under_different_op_classes_do_not_collide(cache):
    a = CachedOp("/a", 1, OpA, ("x",))(BATCH)
    b = CachedOp("/a", 1, OpB, ("x",))(BATCH)
    assert a["op"].to_pylist() == ["OpA"]
    assert b["op"].to_pylist() == ["OpB"]
    assert OpA.built == [("x",)] and OpB.built == [("x",)]
    assert len(cache) == 2


def test_newer_version_evicts_older_entries_of_same_dir_only(cache):
    CachedOp("/a", 1, OpA, ("x",))(BATCH)
    CachedOp("/a", 1, OpB, ("y",))(BATCH)
    CachedOp("/b", 1, OpA, ("x",))(BATCH)
    CachedOp("/a", 2, OpA, ("x",))(BATCH)
    # both classes' /a v1 entries are gone; /b survives untouched
    assert set(cache) == {("/a", 2, OpA, ("x",)), ("/b", 1, OpA, ("x",))}
    CachedOp("/b", 1, OpA, ("x",))(BATCH)
    assert OpA.built == [("x",), ("x",), ("x",)]  # /b was not rebuilt
    # an older version never evicts a newer one
    CachedOp("/a", 1, OpB, ("y",))(BATCH)
    assert ("/a", 2, OpA, ("x",)) in cache


def test_object_ref_args_keep_one_entry_per_dir(cache):
    """A filtered query_index call ray.puts its filter, so a key holding
    an object ref is never hit by a later call: a miss drops the same
    dir's ref-holding entries (releasing their refs and ops) and keeps
    the dir's other entries and other dirs' ones."""
    import numpy as np
    import ray

    filt = np.arange(5, dtype=np.uint64)
    CachedOp("/a", 1, OpA, ("x",))(BATCH)
    other = ray.put(filt)
    CachedOp("/b", 1, OpB, ("x", other))(BATCH)
    refs = [ray.put(filt) for _ in range(3)]
    for ref in refs:
        CachedOp("/a", 1, OpA, ("x", ref))(BATCH)
    assert set(cache) == {("/a", 1, OpA, ("x",)), ("/b", 1, OpB, ("x", other)),
                          ("/a", 1, OpA, ("x", refs[-1]))}
    CachedOp("/a", 1, OpA, ("x",))(BATCH)
    assert len(OpA.built) == 4  # the ref-free entry stayed warm
