"""Mergeable sketches (SURVEY.md §2.5 "approximate (optional)").

HyperLogLog distinct-count over any string column: one sketch per batch
inside map_batches (vectorized register update), merged on the driver —
the canonical pre-aggregated plan (ray_guide: "sketches are designed to be
mergeable"). Deterministic (md5 hashing, no RNG) — and SQL-replayable:
the 64-bit hash is exactly DuckDB's ``md5_number_lower`` (bytes 8..16 of
the md5 digest, little-endian), the rank is the TRAILING-zero count of the
hash suffix (the Flajolet–Martin bit-pattern variant — same geometric
distribution as leading zeros, but exactly expressible as an unrolled
``w % 2^k`` CASE in SQL, where leading-zeros would need a float log2),
and the register fold is an integer-scaled HUGEINT sum with the float
numerator embedded as ONE shared literal, so the engine estimate and the
DuckDB oracle (``hll_oracle_sql``) agree bit-for-bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

HLL_P = 12  # 2^12 registers → ~1.6% standard error
_M = 1 << HLL_P
_R0 = 64 - HLL_P + 1  # rank ceiling: suffix w == 0 ⇒ rank 64-P+1 (= 53)


def _alpha(m: int) -> float:
    return 0.7213 / (1.0 + 1.079 / m)


# alpha·m²·2^R0 folded into ONE float64 literal shared verbatim with the SQL
# oracle, so both sides perform the identical single division by float(S).
_NUMER = _alpha(_M) * float(_M) * float(_M) * float(1 << _R0)


def hll_update(registers: np.ndarray, values: list[str]) -> None:
    """Vectorized register update for a batch of strings."""
    if not values:
        return
    h = np.fromiter(
        (
            # == DuckDB md5_number_lower(v): digest bytes 8..16, little-endian
            int.from_bytes(hashlib.md5(v.encode("utf-8")).digest()[8:16], "little")
            for v in values
        ),
        dtype=np.uint64,
        count=len(values),
    )
    idx = (h & np.uint64(_M - 1)).astype(np.int64)
    w = h >> np.uint64(HLL_P)
    # rank = trailing zeros of the 64-P suffix bits + 1 (w == 0 ⇒ _R0)
    tz = np.zeros(len(h), dtype=np.uint8)
    cur = w.copy()
    nz = w != np.uint64(0)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = nz & ((cur & np.uint64((1 << shift) - 1)) == 0)
        tz[mask] += np.uint8(shift)
        cur[mask] >>= np.uint64(shift)
    rank = np.where(nz, tz + 1, np.uint8(_R0)).astype(np.uint8)
    np.maximum.at(registers, idx, rank)


def hll_estimate(registers: np.ndarray) -> float:
    # S = Σ 2^(R0 - M_j) over all m registers — exact (Python int; the float
    # sum Σ 2^-M_j would round differently per summation order).
    counts = np.bincount(registers, minlength=_R0 + 1)
    s = sum(int(c) << (_R0 - r) for r, c in enumerate(counts) if c)
    est = _NUMER / float(s)
    m = float(_M)
    if est <= 2.5 * m:
        zeros = int(counts[0])
        if zeros:
            est = m * math.log(m / zeros)  # linear counting for small n
    return float(est)


def hll_round(est: float) -> int:
    """Half-up rounding of a (non-negative) estimate: DuckDB's ``round``
    on the oracle side rounds halves away from zero, Python's ``round``
    to even, so both sides of the HLL contract use this rule."""
    return math.floor(est + 0.5)


def hll_merge(sketches: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(_M, dtype=np.uint8)
    for s in sketches:
        np.maximum(out, s, out=out)
    return out


def distinct_count_hll(sf_dir: str, table: str = "events", column: str = "props") -> pd.DataFrame:
    """Approximate distinct count of a column: per-batch HLL sketches →
    driver merge. Hash-checked against ``hll_oracle_sql`` (the sketch is a
    pure function of the value SET — batch boundaries only shard the
    register max, which is order-free — so DuckDB can replay it exactly)."""
    ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=[column])

    def sketch(batch: pa.Table) -> pa.Table:
        regs = np.zeros(_M, dtype=np.uint8)
        hll_update(regs, [v for v in batch[column].to_pylist() if v is not None])
        return pa.table({"sketch": pa.array([regs.tobytes()], pa.binary())})

    blobs = ds.map_batches(sketch, batch_format="pyarrow").to_pandas()["sketch"]
    merged = hll_merge([np.frombuffer(b, dtype=np.uint8) for b in blobs])
    return pd.DataFrame(
        {"table_name": [table], "column_name": [column], "approx_distinct": [hll_round(hll_estimate(merged))]}
    )


def hll_oracle_sql(table: str = "events", column: str = "props") -> str:
    """Exact DuckDB replay of ``distinct_count_hll``. The engine's hash IS
    ``md5_number_lower``; rank = trailing zeros of ``h >> P`` + 1 via an
    unrolled ``w % 2^k = 2^(k-1)`` CASE (every branch is exact integer
    arithmetic); the register fold is a HUGEINT sum of ``2^(R0 - max_rank)``
    (zero registers contribute ``2^R0`` each), and the estimate divides the
    SAME embedded float64 numerator literal by ``CAST(S AS DOUBLE)`` — the
    one float op both sides share. Linear-counting branch mirrors
    ``hll_estimate`` expression-for-expression. The register sum is
    COALESCEd so a column with no non-NULL value folds to ``M·2^R0`` and
    estimates 0, as the engine does."""
    rank_case = " ".join(
        [f"WHEN w = 0 THEN {_R0}"]
        + [f"WHEN w % {1 << k} = {1 << (k - 1)} THEN {k}" for k in range(1, 64 - HLL_P + 1)]
    )
    numer = repr(_NUMER)
    return f"""
        WITH vals AS (SELECT DISTINCT {column} AS v FROM {table}
                      WHERE {column} IS NOT NULL),
        hashed AS (SELECT md5_number_lower(v) AS h FROM vals),
        slotted AS (SELECT CAST(h % {_M} AS BIGINT) AS idx, h // {_M} AS w
                    FROM hashed),
        ranked AS (SELECT idx, CASE {rank_case} ELSE {_R0} END AS rank
                   FROM slotted),
        regs AS (SELECT idx, MAX(rank) AS mr FROM ranked GROUP BY idx),
        folded AS (
            SELECT COALESCE(SUM(CAST(1::BIGINT << CAST({_R0} - mr AS INTEGER)
                                        AS HUGEINT)), 0)
                       + CAST({_M} - COUNT(*) AS HUGEINT)
                         * CAST(1::BIGINT << {_R0} AS HUGEINT) AS s,
                   {_M} - COUNT(*) AS zeros
            FROM regs),
        est AS (SELECT {numer} / CAST(s AS DOUBLE) AS raw, zeros FROM folded)
        SELECT '{table}' AS table_name, '{column}' AS column_name,
               CAST(round(CASE WHEN raw <= 2.5 * {float(_M)!r} AND zeros > 0
                               THEN {float(_M)!r} * ln({float(_M)!r}
                                                       / CAST(zeros AS DOUBLE))
                               ELSE raw END) AS BIGINT) AS approx_distinct
        FROM est
    """


def distinct_count_exact(sf_dir: str, table: str = "events", column: str = "props") -> pd.DataFrame:
    """EXACT distinct count of a column — the accuracy anchor for the HLL
    sketch (hash-checked against ``COUNT(DISTINCT ...)``; a pytest pins the
    sketch's relative error against this). Plan: per-batch distinct values
    (vectorized np.unique — the shuffle carries only within-batch-distinct
    strings) → groupby(value) → count groups. Fully distributed; only the
    scalar count reaches the driver."""
    import pyarrow.compute as pc

    ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=[column])

    def batch_distinct(batch: pa.Table) -> pa.Table:
        return pa.table({column: pc.unique(batch[column].drop_null())})

    n = ds.map_batches(batch_distinct, batch_format="pyarrow").groupby(column).count().count()
    return pd.DataFrame(
        {
            "table_name": [table],
            "column_name": [column],
            "n_distinct": pd.Series([n], dtype="int64"),
        }
    )


MG_K = 256  # Misra-Gries counters per summary
MG_TOP = 10


def heavy_hitters_mg(
    sf_dir: str, table: str = "events", column: str = "props",
    k: int = MG_K, top: int = MG_TOP,
) -> pd.DataFrame:
    """EXACT top-``top`` heavy hitters via a Misra-Gries sketch plus an
    exact verification pass — the sketch prunes the candidate space, the
    verify pass restores exactness, and the MG frequency guarantee makes
    the combination PROVABLY complete:

    1. per-batch MG summary: exact batch counts, then the classic
       decrement — subtract the (k+1)-th largest count from everything,
       keep positives (≤ k counters per batch; summaries are mergeable,
       Agarwal et al. 2012);
    2. one groupby(key) sums the summaries (the candidate union is the
       only exchange — raw rows never shuffle);
    3. driver MG-compresses the merged summary back to ≤ k candidates;
    4. exact verify: broadcast the candidate keyset, per-batch filtered
       counts, groupby sum → TRUE counts; take top-``top`` by
       (count DESC, key ASC).

    Completeness proof: any key with true frequency > n/(k+1) survives
    every MG summary, so the candidate set contains every such key; the
    function ASSERTS the returned top-``top`` tail clears that bound and
    falls back to the exact full groupby when it does not (never on
    skewed real data with k ≫ top; the fallback keeps the op exact on
    adversarially flat data). So the output is always the exact top-k —
    the sketch only bounds the exchange."""
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=[column])

    def mg_partial(batch: pa.Table) -> pa.Table:
        tbl = pa.table({"key": batch[column]}).group_by("key").aggregate([("key", "count")])
        keys = tbl["key"].to_pylist()
        cnt = tbl["key_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(cnt) > k:
            kth = np.partition(cnt, len(cnt) - k - 1)[len(cnt) - k - 1]
            keep = cnt > kth
            keys = [kk for kk, m in zip(keys, keep) if m]
            cnt = cnt[keep] - kth
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "c": pa.array(cnt, pa.int64()),
            }
        )

    n_total = ds.count()  # parquet metadata — no scan
    merged = (
        ds.map_batches(mg_partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    cand = merged.sort_values(["c", "key"], ascending=[False, True])
    if len(cand) > k:  # final driver-side MG compress
        kth = int(cand["c"].iloc[k])
        cand = cand[cand["c"] > kth]
    cand_keys = pa.array(sorted(cand["key"].tolist()), pa.string())
    key_ref = ray.put(cand_keys)

    def exact_counts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ks = ray.get(key_ref)
        col = batch[column]
        kept = col.filter(pc.is_in(col, value_set=ks))
        t = pa.table({"key": kept}).group_by("key").aggregate([("key", "count")])
        return t.rename_columns(["key", "c"])

    exact = (
        ds.map_batches(exact_counts, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("c", alias_name="n_rows"))
        .to_pandas()
        .sort_values(["n_rows", "key"], ascending=[False, True])
        .head(top)
        .reset_index(drop=True)
    )
    bound = n_total // (k + 1)
    if len(exact) < top or int(exact["n_rows"].iloc[-1]) <= bound:
        # The guarantee "every key with true count > n/(k+1) survives MG"
        # only certifies the result when the top-``top`` tail clears that
        # bound AND the candidate pool filled the request; on adversarially
        # flat data (or k < top) recompute exactly — never taken on skewed
        # real data with k >> top; keeps the op always exact.
        exact = (
            ds.map_batches(
                lambda b: pa.table({"key": b[column]})
                .group_by("key")
                .aggregate([("key", "count")])
                .rename_columns(["key", "c"]),
                batch_format="pyarrow",
            )
            .groupby("key")
            .aggregate(Sum("c", alias_name="n_rows"))
            .to_pandas()
            .sort_values(["n_rows", "key"], ascending=[False, True])
            .head(top)
            .reset_index(drop=True)
        )
    exact["n_rows"] = exact["n_rows"].astype("int64")
    out = exact.rename(columns={"key": column})
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["rank", column, "n_rows"]]


QS_B = 64  # quantile summary size per block
QS_QUANTS = (25, 50, 75, 90, 99)  # percentiles reported (×100)


def quantile_summary_block(vals: np.ndarray, b: int = QS_B) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic ε-summary of one block (the classic mergeable
    quantile coreset, Agarwal et al. 2012 shape without randomness):
    sort, split into ≤``b`` near-equal runs, keep each run's LAST value
    weighted by the run length. For any v, the summary's estimated rank
    (Σ weights of kept values ≤ v) UNDERCOUNTS the true #-≤-v by at most
    ceil(n/b): counted runs lie wholly ≤ v; only the one straddling run
    is missed. One-sided by construction — merging summaries just sums
    the per-block slacks."""
    vals = np.sort(vals)
    n = len(vals)
    if n == 0:
        return vals.astype(np.int64), np.zeros(0, np.int64)
    if n <= b:
        return vals.astype(np.int64), np.ones(n, np.int64)
    edges = np.ceil(np.arange(1, b + 1) * n / b).astype(np.int64)
    edges = np.unique(edges)
    reps = vals[edges - 1].astype(np.int64)
    w = np.diff(np.r_[0, edges])
    return reps, w


def doclen_quantile_sketch(sf_dir: str, b: int = QS_B) -> pd.DataFrame:
    """Approximate doclen percentiles from mergeable per-block ε-summaries
    — the quantile member of the sketch trio (HLL cardinality,
    Misra-Gries heavy hitters, this). Per batch: tokenize, one
    ``quantile_summary_block`` (b weighted values + the block's exact
    slack ceil(n/b)); driver merges the k·#blocks rows and answers each
    percentile with the smallest value whose estimated rank reaches the
    type-1 target — the one-sided invariant (true rank ≥ estimated rank
    ≥ target, overshoot ≤ Σ slacks) is pinned exactly by pytest against
    a sequential replay. Deterministic, no RNG; at cluster scale the
    merge runs as a tree of prune-to-b folds with the same summed-slack
    accounting (each prune adds ≤ W/b). Rows-only for the driver
    (approximate by construction); ``docs_doclen_quantiles_exact`` is the
    hash-checked anchor."""
    import ray.data as rd

    from ..textnorm import tokenize_flat

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def sketch(batch: pa.Table) -> pa.Table:
        _, _, n_tok = tokenize_flat(
            batch["text"], np.arange(len(batch), dtype=np.uint64)
        )
        reps, w = quantile_summary_block(n_tok.astype(np.int64), b)
        slack = int(np.ceil(len(n_tok) / b)) if len(n_tok) > b else 0
        return pa.table(
            {
                "rep": pa.array(reps, pa.int64()),
                "w": pa.array(w, pa.int64()),
                "slack": pa.array(
                    np.r_[slack, np.zeros(max(len(reps) - 1, 0), np.int64)]
                    if len(reps) else np.zeros(0, np.int64),
                    pa.int64(),
                ),
            }
        )

    parts = ds.map_batches(sketch, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["rep", "w"]).reset_index(drop=True)
    reps = parts["rep"].to_numpy()
    cumw = parts["w"].to_numpy().cumsum()
    n = int(parts["w"].sum())
    eps = int(parts["slack"].sum())
    rows = []
    for q in QS_QUANTS:
        target = (n - 1) * q // 100 + 1  # type-1: 1-based rank of the quantile
        j = int(np.searchsorted(cumw, target))
        est = int(reps[min(j, len(reps) - 1)]) if len(reps) else 0
        rows.append((q, est, n, eps))
    return pd.DataFrame(
        rows, columns=["q_x100", "est_value", "n_total", "eps_bound"]
    ).astype("int64")


def doclen_quantiles_exact(sf_dir: str) -> pd.DataFrame:
    """EXACT doclen percentiles — the sketch's accuracy anchor,
    hash-checked against the oracle's row_number replay. Type-1 lower
    quantile: the value at 1-based sorted rank floor((n−1)·q/100)+1 (the
    ccnet-tercile convention). Fully distributed: doclen has small-int
    cardinality, so the plan is a value-histogram groupby; only the
    (value, count) fold — vocabulary-of-lengths-sized — reaches the
    driver, never the corpus."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..textnorm import tokenize_flat

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def hist(batch: pa.Table) -> pa.Table:
        _, _, n_tok = tokenize_flat(
            batch["text"], np.arange(len(batch), dtype=np.uint64)
        )
        u, c = np.unique(n_tok.astype(np.int64), return_counts=True)
        return pa.table({"doclen": pa.array(u, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    fold = (
        ds.map_batches(hist, batch_format="pyarrow")
        .groupby("doclen")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
        .sort_values("doclen")
    )
    vals = fold["doclen"].to_numpy()
    cum = fold["c"].to_numpy().cumsum()
    n = int(cum[-1]) if len(cum) else 0
    rows = []
    for q in QS_QUANTS:
        target = (n - 1) * q // 100 + 1
        j = int(np.searchsorted(cum, target))
        rows.append((q, int(vals[j])))
    return pd.DataFrame(rows, columns=["q_x100", "value"]).astype("int64")


CMS_D = 4      # hash rows (error probability decays as 2^-d under min)
CMS_W = 1024   # counters per row (overestimate bound εN with ε = e/w)
CMS_TOP = 10   # anchor keys reported


def _cms_hash(keys: np.ndarray, row: int, w: int = CMS_W) -> np.ndarray:
    """Row-``row`` CMS bucket per uint64 key: splitmix64 over key ⊕ a
    frozen odd per-row salt, reduced mod w. Pure uint64 numpy — the same
    function everywhere, so partial sketches from any partitioning merge
    to the identical table (integer adds commute)."""
    from .dedup import _mix64

    # wrapping uint64 multiply, done in Python ints to avoid the numpy
    # overflow RuntimeWarning (bit-identical: numpy wraps mod 2^64 too)
    salt = np.uint64((0x9E3779B97F4A7C15 * (2 * row + 1)) & (_U64_MOD - 1))
    return (_mix64(keys ^ salt) % np.uint64(w)).astype(np.int64)


_U64_MOD = 1 << 64


def _sql_mul64(a_expr: str, const: int) -> str:
    """Wrapping uint64 multiply by a constant, in DuckDB: split the
    constant into 32-bit halves so every HUGEINT intermediate stays below
    2^96 (a full 64×64 product would overflow HUGEINT's 2^127)."""
    lo, hi = const & 0xFFFFFFFF, const >> 32
    return (
        f"CAST(((CAST({a_expr} AS HUGEINT) * {lo}) + "
        f"(((CAST({a_expr} AS HUGEINT) * {hi}) % 4294967296) * 4294967296))"
        f" % {_U64_MOD} AS UBIGINT)"
    )


def _sql_mix64(x_expr: str) -> str:
    """splitmix64 finalizer as a DuckDB expression — validated term-by-term
    against the numpy ``_mix64`` (same constants, shifts, wrap)."""
    s1 = _sql_mul64(f"xor({x_expr}, ({x_expr}) >> 30)", 0xBF58476D1CE4E5B9)
    s2 = _sql_mul64(f"xor({s1}, ({s1}) >> 27)", 0x94D049BB133111EB)
    return f"xor({s2}, ({s2}) >> 31)"


def count_min_oracle_sql(d: int = CMS_D, w: int = CMS_W, top: int = CMS_TOP) -> str:
    """Exact DuckDB replay of ``count_min_user_counts`` — the sketch is a
    pure integer function of the multiset and the frozen splitmix64 salts,
    so est_n is SQL-expressible once the wrapping-uint64 hash is emulated
    (``_sql_mix64``): bucket each distinct key per row-salt, sum true
    counts into the (r, c) counter table, estimate = min over rows."""
    rows = []
    for r in range(d):
        salt = (0x9E3779B97F4A7C15 * (2 * r + 1)) & (_U64_MOD - 1)
        bucket = f"CAST(({_sql_mix64(f'xor(CAST(user_id AS UBIGINT), CAST({salt} AS UBIGINT))')}) % {w} AS BIGINT)"
        rows.append(f"SELECT user_id, n, {r} AS r, {bucket} AS c FROM cnts")
    h = "\n  UNION ALL ".join(rows)
    return f"""
WITH cnts AS (SELECT user_id, COUNT(*) AS n FROM events GROUP BY 1),
h AS (
  {h}
),
sk AS (SELECT r, c, CAST(SUM(n) AS BIGINT) AS cn FROM h GROUP BY 1, 2),
est AS (SELECT h.user_id, MIN(sk.cn) AS est_n
        FROM h JOIN sk ON sk.r = h.r AND sk.c = h.c GROUP BY 1),
top AS (SELECT user_id, CAST(n AS BIGINT) AS exact_n FROM cnts
        ORDER BY n DESC, user_id LIMIT {top})
SELECT CAST(t.user_id AS BIGINT) AS user_id, t.exact_n,
       CAST(e.est_n AS BIGINT) AS est_n
FROM top t JOIN est e ON e.user_id = t.user_id
ORDER BY exact_n DESC, user_id
"""


def count_min_user_counts(
    sf_dir: str, d: int = CMS_D, w: int = CMS_W, top: int = CMS_TOP,
) -> pd.DataFrame:
    """Count-Min sketch over the events ``user_id`` stream (Cormode &
    Muthukrishnan 2005) with an exact anchor: per-batch (d × w) integer
    partial sketches merge by plain addition (one ≤ d·w-row exchange —
    raw ids never shuffle), then the estimate for each of the exact
    top-``top`` users is min over rows of the summed counters. The CMS is
    a pure function of the multiset and the frozen hash salts — identical
    under any batching/partitioning (tested against a sequential numpy
    replay), and est ≥ exact always (one-sided error), est ≤ exact + εN
    with ε = e/w w.h.p. The exact side (anchor keys + true counts) is the
    same two-phase pre-aggregated groupby heavy_hitters_mg verifies.
    The sketch is a pure integer function of the multiset and the
    frozen salts, so since round 5 the whole row — est_n included — is
    hash-checked against ``count_min_oracle_sql`` (splitmix64 emulated
    in SQL); the replay identity is also pinned by tests. Output
    (user_id, exact_n, est_n), exact_n DESC, user_id ASC."""
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])

    def cms_partial(batch: pa.Table) -> pa.Table:
        ids = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        # exact per-batch counts first: one hash per DISTINCT key, adds
        # vectorized into the (d, w) table
        uk, cnt = np.unique(ids, return_counts=True)
        sk = np.zeros((d, w), dtype=np.int64)
        for r in range(d):
            np.add.at(sk[r], _cms_hash(uk, r, w), cnt)
        rows = np.repeat(np.arange(d, dtype=np.int64), w)
        cols = np.tile(np.arange(w, dtype=np.int64), d)
        return pa.table(
            {"r": pa.array(rows), "c": pa.array(cols), "n": pa.array(sk.ravel())}
        )

    merged = (
        ds.map_batches(cms_partial, batch_format="pyarrow")
        .groupby(["r", "c"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    sk = np.zeros((d, w), dtype=np.int64)
    sk[merged["r"].to_numpy(), merged["c"].to_numpy()] = merged["n"].to_numpy()

    # exact anchor: pre-aggregated per-batch counts → one grouped sum
    def exact_partial(batch: pa.Table) -> pa.Table:
        uk, cnt = np.unique(
            batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True,
        )
        return pa.table({"user_id": pa.array(uk), "n": pa.array(cnt.astype(np.int64))})

    exact = (
        ds.map_batches(exact_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("n", alias_name="exact_n"))
        .to_pandas()
        .sort_values(["exact_n", "user_id"], ascending=[False, True])
        .head(top)
        .reset_index(drop=True)
    )
    keys = exact["user_id"].to_numpy().astype(np.uint64)
    est = np.min(
        np.stack([sk[r, _cms_hash(keys, r, w)] for r in range(d)]), axis=0
    )
    exact["est_n"] = est.astype(np.int64)
    exact["user_id"] = exact["user_id"].astype("int64")
    exact["exact_n"] = exact["exact_n"].astype("int64")
    return exact[["user_id", "exact_n", "est_n"]]
