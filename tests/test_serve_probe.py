"""tools/serve_probe.py on the golden index: every figure it reports is
a positive time, and it leaves no pool running."""

from __future__ import annotations

import importlib.util
import os

_spec = importlib.util.spec_from_file_location(
    "serve_probe", os.path.join(os.path.dirname(__file__), "..", "tools", "serve_probe.py"))
serve_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(serve_probe)


def test_serve_probe_reports_the_request_split(golden_index):
    from aarhus_ray.pipelines.query import _SERVE_POOLS

    idx = golden_index["index"]
    out = serve_probe.probe(idx, n_queries=16, rounds=5)
    assert list(out) == ["request", "driver_pre", "execute", "driver_post",
                         "empty_round_trip", "slice_in_process"]
    assert all(ms > 0 for ms in out.values())
    assert not [key for key in _SERVE_POOLS if key[0] == idx]
