"""Deterministic partitioning + docID scheme (SURVEY.md §1.3).

- ``partition_id = blake2b64(normalized_url) % P`` — frozen hash (stdlib
  blake2b, digest_size=8), frozen P recorded in the index manifest, so the
  mapping never drifts across runs/resumes.
- ``doc_id = (partition_id << 40) | row_index`` with rows sorted by url
  within the partition. Deterministic for a given corpus + P; unique without
  coordination; each partition owns a disjoint contiguous docID range, which
  is what lets salted shuffle shards concatenate without a merge sort
  (SURVEY.md §4.2).

2^40 rows/partition × 2^24 partitions covers the 10^12-doc contract scale.
"""

from __future__ import annotations

from hashlib import blake2b
from urllib.parse import urlsplit, urlunsplit

import numpy as np
import pyarrow as pa

DOC_ID_PARTITION_SHIFT = 40
DOC_ID_ROW_MASK = (1 << DOC_ID_PARTITION_SHIFT) - 1


def hash64(data: bytes | str) -> int:
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def hash64_column(col) -> np.ndarray:
    """uint64 blake2b-64 per element of an Arrow/py string sequence."""
    h = blake2b
    out = np.fromiter(
        (
            int.from_bytes(h(s.encode("utf-8", "surrogatepass"), digest_size=8).digest(), "big")
            for s in (col.to_pylist() if isinstance(col, (pa.Array, pa.ChunkedArray)) else col)
        ),
        dtype=np.uint64,
        count=len(col),
    )
    return out


def normalize_url(url: str) -> str:
    """Lowercase scheme+host, strip fragment. Applied before the dedup hash
    so recrawls of the same page collide (SURVEY.md §2.2)."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return url
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path, parts.query, ""))


def partition_ids(urls, num_partitions: int) -> np.ndarray:
    return (hash64_column(urls) % np.uint64(num_partitions)).astype(np.uint32)
