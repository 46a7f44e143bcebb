"""Answer checks: the engine's answers against its own brute-force scorer.

The repo's invariant is that the ``wand`` path and ``brute`` are
bit-identical (same doc ids, same float scores, same ranks), so a served
answer is right exactly when it equals the brute answer over the same
index state. Each checked query whose rows differ counts as one wrong
answer; the op that carried it counts as failed.
"""

from __future__ import annotations

import pyarrow as pa

Answer = tuple  # ((rank, doc_id, score), ...) of one query


def answers_by_query(frame) -> dict[int, Answer]:
    """{query_id: ((rank, doc_id, score), ...)} from a pandas frame or an
    Arrow table with those columns (rows in any order)."""
    if isinstance(frame, pa.Table):
        cols = [frame[c].to_pylist() for c in ("query_id", "rank", "doc_id", "score")]
    else:
        cols = [frame[c].tolist() for c in ("query_id", "rank", "doc_id", "score")]
    out: dict[int, list] = {}
    for qid, rank, doc, score in zip(*cols):
        out.setdefault(int(qid), []).append((int(rank), int(doc), float(score)))
    return {q: tuple(sorted(rows)) for q, rows in out.items()}


def brute_answers(index_dir: str, texts: list[str], positions: list[int], k: int = 10) -> dict[int, Answer]:
    """Brute-force top-k for log ``positions``, keyed by log position."""
    from aarhus_ray.stages.query_stage import QueryScorer

    scorer = QueryScorer(index_dir, k=k, method="brute")
    table = pa.table({
        "query_id": pa.array(positions, pa.int64()),
        "text": pa.array([texts[p] for p in positions], pa.string()),
    })
    got = answers_by_query(scorer(table))
    return {p: got.get(p, ()) for p in positions}


def count_wrong_request(got: dict[int, Answer], first_qid: int, size: int,
                        expected: dict[int, Answer], log_len: int) -> int:
    """Wrong checked answers of one request: query ids first_qid ..
    first_qid+size-1 are sent; one whose log position q % log_len is in
    ``expected`` must come back with exactly the brute rows (an answer
    missing from the response counts as empty)."""
    return sum(
        1 for q in range(first_qid, first_qid + size)
        if q % log_len in expected and got.get(q, ()) != expected[q % log_len]
    )
