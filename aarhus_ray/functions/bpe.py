"""Distributed BPE merge learning (Sennrich, Haddow & Birch 2016 — the
vocabulary-induction step of every LLM tokenizer) expressed Ray-Data-first.

Classic BPE trains on the WORD-FREQUENCY table, not the raw corpus: the
corpus collapses to (word, count) once (one term-count shuffle — at 10^12
docs this is the same pre-aggregated plan as term_counts_top50, and the
word table is vocabulary-sized, i.e. tiny next to the corpus). Each merge
round is then:

    map      per-batch ADJACENT-PAIR partial counts over the symbol
             sequences, weighted by word count (vectorized: one flat
             symbol array per batch, np.unique over (left, right) codes)
    reduce   groupby(left, right).sum — pair space is vocab², but only
             pairs that OCCUR ship
    argmax   the single winning pair (count DESC, then lexicographic —
             the frozen tie-break) comes to the driver: one row, not data
    rewrite  map applies the merge to every word's symbol sequence

Rounds are inherently sequential (merge i+1's counts depend on merge i's
rewrite) — the iteration is the algorithm, not a driver-side shortcut.
State between rounds lives in the object store (materialized word table).

Correctness is pinned two ways: tests/test_functions.py::
test_bpe_merges_match_sequential (a from-scratch sequential reference
implementation), and — round 5 — an exact DuckDB oracle that UNROLLS the
fixed merge count as chained CTEs (``merges_oracle_sql`` /
``encode_oracle_sql``), so the driver hash-checks both ops.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

from ..textnorm import TOKENIZE_SQL, tokenize_batch

N_MERGES = 8  # frozen: merges learned by the driver query

_TOKS_SQL = f"list_filter({TOKENIZE_SQL}, x -> x <> '')"


def _merge_chain_sql(n_merges: int) -> str:
    """The shared CTE chain for both BPE oracles: word-frequency table,
    then ``n_merges`` UNROLLED (pair-count → argmax → rewrite) rounds.
    Symbol sequences are carried as '(a) (bc) (d)' strings so the rewrite
    is one RE2 ``regexp_replace(..., 'g')`` — global replace scans
    left-to-right non-overlapping, exactly Python ``pat.sub`` with
    Sennrich's lookaround pattern, and the paren wrapping enforces the
    same symbol-boundary anchoring RE2's missing lookarounds would have
    provided (symbols are [a-z0-9]+, so no regex escaping is needed).
    Assumes the corpus supports all ``n_merges`` merges (true for any
    real text; the engine's early-break path has no SQL analogue)."""
    rounds = []
    for t in range(1, n_merges + 1):
        rounds.append(f"""p{t} AS MATERIALIZED (
  SELECT pr[1] AS "left", pr[2] AS "right", CAST(SUM(n) AS BIGINT) AS n
  FROM (SELECT unnest(list_zip(l, l[2:])) AS pr, n
        FROM (SELECT str_split(sym[2:-2], ') (') AS l, n FROM w{t - 1}))
  WHERE pr[2] IS NOT NULL
  GROUP BY 1, 2
),
win{t} AS MATERIALIZED (SELECT "left", "right", n FROM p{t} ORDER BY n DESC, "left", "right" LIMIT 1),
w{t} AS MATERIALIZED (
  SELECT word, n,
         regexp_replace(sym,
           '\\(' || (SELECT "left" FROM win{t}) || '\\) \\(' || (SELECT "right" FROM win{t}) || '\\)',
           '(' || (SELECT "left" FROM win{t}) || (SELECT "right" FROM win{t}) || ')',
           'g') AS sym
  FROM w{t - 1}
)""")
    chain = ",\n".join(rounds)
    return f"""w0 AS MATERIALIZED (
  SELECT word, CAST(COUNT(*) AS BIGINT) AS n,
         trim(regexp_replace(word, '(.)', '(\\1) ', 'g')) AS sym
  FROM (SELECT unnest({_TOKS_SQL}) AS word FROM documents)
  GROUP BY word
),
{chain}"""


def merges_oracle_sql(n_merges: int = N_MERGES) -> str:
    """Exact DuckDB replay of ``learn_merges`` (see ``_merge_chain_sql``):
    the learned merge table is a pure function of the corpus under the
    frozen (count DESC, left, right) tie-break, which SQL reproduces
    bitwise — counts are integers and symbols are ASCII (codepoint ==
    byte order in both engines)."""
    sel = "\n  UNION ALL ".join(
        f'SELECT CAST({t - 1} AS BIGINT) AS merge_idx, "left", "right", n AS pair_count FROM win{t}'
        for t in range(1, n_merges + 1)
    )
    return f"""
WITH {_merge_chain_sql(n_merges)}
SELECT * FROM (
  {sel}
) ORDER BY merge_idx
"""


def encode_oracle_sql(n_merges: int = N_MERGES) -> str:
    """Exact DuckDB replay of ``encode_with_merges``: the final round's
    vocabulary symbolization (w{n}) IS the post-merge encoding of every
    word, so per-word unit counts are ``len(split(sym))`` and per-doc
    fertility is one join + grouped sum (token-less docs zero-filled)."""
    return f"""
WITH {_merge_chain_sql(n_merges)},
lens AS (
  SELECT word, CAST(len(str_split(sym[2:-2], ') (')) AS BIGINT) AS units
  FROM w{n_merges}
),
dt AS (SELECT CAST(doc_id AS BIGINT) AS doc_id, {_TOKS_SQL} AS toks FROM documents),
ex AS (SELECT doc_id, unnest(toks) AS word FROM dt),
agg AS (SELECT e.doc_id, COUNT(*) AS n_tokens, SUM(l.units) AS units
        FROM ex e JOIN lens l ON l.word = e.word GROUP BY 1)
SELECT dt.doc_id,
       CAST(COALESCE(a.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(COALESCE(a.units, 0) AS BIGINT) AS n_bpe_units
FROM dt LEFT JOIN agg a ON a.doc_id = dt.doc_id
ORDER BY dt.doc_id
"""


def _word_counts(sf_dir: str) -> ray.data.Dataset:
    """Distinct-token frequency table over documents (the BPE training
    input): pre-aggregated per-batch partials → one groupby(term) sum."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = tokenize_batch(batch["text"].to_pylist())
        flat = [w for t in toks for w in t]
        if not flat:
            return pa.table({"word": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
        words, counts = np.unique(np.asarray(flat, dtype=object), return_counts=True)
        return pa.table(
            {"word": pa.array(list(words), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    return ds.map_batches(partial, batch_format="pyarrow").groupby("word").aggregate(
        Sum("n", alias_name="n")
    )


def _pair_partials(batch: pa.Table) -> pa.Table:
    """Per-batch weighted adjacent-pair counts over space-joined symbol
    sequences — vectorized: one flat symbol array, pairs via shifted
    views, np.unique over object-dtype (left, right) rows."""
    seqs = batch["sym"].to_pylist()
    ns = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    lefts: list[str] = []
    rights: list[str] = []
    weights: list[int] = []
    for seq, n in zip(seqs, ns):
        syms = seq.split(" ")
        if len(syms) < 2:
            continue
        lefts.extend(syms[:-1])
        rights.extend(syms[1:])
        weights.extend([int(n)] * (len(syms) - 1))
    if not lefts:
        return pa.table(
            {
                "left": pa.array([], pa.string()),
                "right": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    key = np.array([l + "\x00" + r for l, r in zip(lefts, rights)], dtype=object)
    uk, inv = np.unique(key, return_inverse=True)
    w = np.bincount(inv, weights=np.asarray(weights, np.float64)).astype(np.int64)
    lr = [k.split("\x00") for k in uk]
    return pa.table(
        {
            "left": pa.array([p[0] for p in lr], pa.string()),
            "right": pa.array([p[1] for p in lr], pa.string()),
            "n": pa.array(w, pa.int64()),
        }
    )


def learn_merges(sf_dir: str, n_merges: int = N_MERGES) -> pd.DataFrame:
    """Learn the first ``n_merges`` BPE merges over the corpus vocabulary.
    Returns (merge_idx, left, right, pair_count) in merge order. Symbols
    start as single characters; the winner each round is the
    highest-count adjacent pair, ties broken lexicographically (frozen,
    so the result is a pure function of the corpus)."""
    words = _word_counts(sf_dir)

    def to_symbols(batch: pa.Table) -> pa.Table:
        syms = [" ".join(wd) for wd in batch["word"].to_pylist()]
        return pa.table({"sym": pa.array(syms, pa.string()), "n": batch["n"]})

    table = words.map_batches(to_symbols, batch_format="pyarrow").materialize()
    out = {"merge_idx": [], "left": [], "right": [], "pair_count": []}
    for i in range(n_merges):
        counts = (
            table.map_batches(_pair_partials, batch_format="pyarrow")
            .groupby(["left", "right"])
            .aggregate(Sum("n", alias_name="n"))
            .to_pandas()
        )
        if len(counts) == 0:
            break
        counts = counts.sort_values(
            ["n", "left", "right"], ascending=[False, True, True]
        )
        left, right, n = (
            str(counts["left"].iloc[0]),
            str(counts["right"].iloc[0]),
            int(counts["n"].iloc[0]),
        )
        out["merge_idx"].append(i)
        out["left"].append(left)
        out["right"].append(right)
        out["pair_count"].append(n)
        import re

        # Sennrich's merge_vocab regex: non-consuming lookarounds keep the
        # separating spaces, so consecutive occurrences ("a b a b") all
        # merge in one pass and a pair never matches across a symbol
        # boundary ("xa b" does not contain pair (a, b))
        pat = re.compile(r"(?<!\S)" + re.escape(f"{left} {right}") + r"(?!\S)")
        merged = f"{left}{right}"

        def apply_merge(batch: pa.Table, pat=pat, merged=merged) -> pa.Table:
            syms = [pat.sub(merged, s) for s in batch["sym"].to_pylist()]
            return pa.table({"sym": pa.array(syms, pa.string()), "n": batch["n"]})

        table = table.map_batches(apply_merge, batch_format="pyarrow").materialize()
    return pd.DataFrame(
        {
            "merge_idx": pd.Series(out["merge_idx"], dtype="int64"),
            "left": pd.Series(out["left"], dtype="object"),
            "right": pd.Series(out["right"], dtype="object"),
            "pair_count": pd.Series(out["pair_count"], dtype="int64"),
        }
    )


def encode_with_merges(sf_dir: str, n_merges: int = N_MERGES) -> pd.DataFrame:
    """APPLY the learned merges — the inference half of the tokenizer
    (learn_merges is train): every word encodes to its post-merge symbol
    count, and every doc to the sum over its tokens (the 'fertility
    after training' signal tokenizer teams track per corpus slice). The
    merge list and the word→length map are VOCABULARY-sized (built once,
    broadcast via ray.put); the corpus-side work is one stateless
    map_batches that looks tokens up with index_in + bincount — the
    unigram-NLL scoring shape. Hash-checked at the driver against
    ``encode_oracle_sql`` (round 5) and pinned by a from-scratch
    sequential re-encode test.
    Output (doc_id, n_tokens, n_bpe_units), all int64."""
    import functools
    import re

    import pyarrow.compute as pc
    import ray

    from ..textnorm import tokenize_flat

    merges = learn_merges(sf_dir, n_merges)
    vocab = (
        _word_counts(sf_dir).to_pandas()["word"].sort_values().reset_index(drop=True)
    )
    syms = [" ".join(w) for w in vocab]
    for left, right in zip(merges["left"], merges["right"]):
        pat = re.compile(r"(?<!\S)" + re.escape(f"{left} {right}") + r"(?!\S)")
        merged = f"{left}{right}"
        syms = [pat.sub(merged, s) for s in syms]
    lens = np.fromiter((s.count(" ") + 1 for s in syms), dtype=np.int64, count=len(syms))
    ref = ray.put((pa.array(vocab.tolist(), pa.string()), lens))

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def score(batch: pa.Table, *, m_ref) -> pa.Table:
        import ray as _ray

        words_, lens_ = _ray.get(m_ref)
        flat, flat_docs, n_tok = tokenize_flat(
            batch["text"], np.arange(len(batch), dtype=np.uint64)
        )
        rows = flat_docs.astype(np.int64)
        idx = pc.index_in(flat, value_set=words_).to_numpy(zero_copy_only=False)
        units = np.bincount(
            rows, weights=lens_[idx.astype(np.int64)].astype(np.float64), minlength=len(batch)
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_tokens": pa.array(n_tok.astype(np.int64), pa.int64()),
                "n_bpe_units": pa.array(units, pa.int64()),
            }
        )

    out = (
        ds.map_batches(functools.partial(score, m_ref=ref), batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out
