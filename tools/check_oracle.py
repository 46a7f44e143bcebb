"""Simulate the driver's correctness gate: run every __ray_entry__
queries()[name](sf_dir) AND its oracle_sql()[name] via DuckDB, compare
row count + column names + order-insensitive values.

    python tools/check_oracle.py [sf_dir] [name ...]

Each name may be a shell pattern (``'fulltext_*'``). The run ends with
one tally line: ``OK n / rows-only n / failed n``.
"""

from __future__ import annotations

import fnmatch
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
        elif df[c].dtype.kind == "f":
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return f"SCHEMA MISMATCH ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    if len(ray_df) != len(sql_df):
        return f"ROWCOUNT MISMATCH ray={len(ray_df)} sql={len(sql_df)}"
    # the driver's value hash is dtype-sensitive (int64 vs float64 SUMs,
    # datetime64 unit drift) — flag any raw-dtype divergence, not just
    # canonicalized-value divergence
    dmm = [
        (c, str(ray_df[c].dtype), str(sql_df[c].dtype))
        for c in sorted(ray_df.columns)
        if str(ray_df[c].dtype) != str(sql_df[c].dtype)
    ]
    if dmm:
        return f"DTYPE MISMATCH {dmm}"
    a, b = canon(ray_df), canon(sql_df)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind == "f":
            ok = np.allclose(av, bv, rtol=0, atol=0, equal_nan=True)
        else:
            ok = (av == bv).all()
        if not ok:
            idx = (
                np.flatnonzero(av != bv)[:3]
                if av.dtype.kind != "f"
                else np.flatnonzero(~np.isclose(av, bv, rtol=0, atol=0))[:3]
            )
            return f"VALUE MISMATCH col={c} rows={idx.tolist()} ray={av[idx]} sql={bv[idx]}"
    return "OK"


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:]

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        p = f"{sf_dir}/{t}.parquet"
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")

    qs = E.queries()
    sqls = E.oracle_sql()
    failures = ok = rows_only = 0
    for name, fn in qs.items():
        if only and not any(fnmatch.fnmatchcase(name, pat) for pat in only):
            continue
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"{name:32s} RAY ERROR: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.perf_counter() - t0
        if name not in sqls:
            print(f"{name:32s} rows-only: {len(ray_df)} rows  ({dt:.1f}s)")
            rows_only += 1
            continue
        try:
            sql_df = con.execute(sqls[name]).fetchdf()
        except Exception as exc:  # noqa: BLE001
            print(f"{name:32s} SQL ERROR: {exc}")
            failures += 1
            continue
        verdict = compare(name, ray_df, sql_df)
        print(f"{name:32s} {verdict}  ({len(ray_df)} rows, {dt:.1f}s)")
        if verdict == "OK":
            ok += 1
        else:
            failures += 1
    print(f"OK {ok} / rows-only {rows_only} / failed {failures}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
