"""CLI: ``python -m aarhus_ray.build --input ... --out ...`` — also the
``ray job submit`` entry point (BASELINE.json:6). Owns its Ray session
(library code does not)."""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Build the inverted index")
    p.add_argument("--input", required=True, help="pages parquet dir/file")
    p.add_argument("--out", required=True, help="index output dir")
    p.add_argument("--partitions", type=int, default=16)
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--salts", type=int, default=4)
    p.add_argument("--langs", default=None, help="comma-separated lang filter, e.g. en,es")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--positions", action="store_true",
                   help="write the positional sidecar (index-native phrases)")
    p.add_argument("--num-cpus", type=int, default=None)
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus or os.cpu_count(),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .pipelines.build import build_index

    stats = build_index(
        args.input,
        args.out,
        num_partitions=args.partitions,
        num_segments=args.segments,
        n_salts=args.salts,
        langs=tuple(args.langs.split(",")) if args.langs else None,
        resume=args.resume,
        positions=args.positions,
    )
    print(json.dumps({k: stats[k] for k in ("n_docs", "avgdl", "num_partitions", "num_segments")}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
