"""Print the md5 of every segment file of an index, plus one for its stats.

    python tools/segment_digest.py <index_dir>

One line per ``segments/seg=*/*`` file (``<md5>  seg=BBBB/<name>``, sorted
by path), then ``<md5>  stats.json`` over the stats with ``code_version``
removed: that field hashes the codec sources, so it changes with any edit to
them even when every index byte stays the same. Two builds of the same
corpus and config are byte-identical iff ``diff`` of their outputs is empty.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys


def digest_lines(index_dir: str) -> list[str]:
    seg_root = os.path.join(index_dir, "segments")
    paths = sorted(glob.glob(os.path.join(seg_root, "seg=*", "*")))
    if not paths:
        raise ValueError(f"no segments under {index_dir}")
    lines = []
    for p in paths:
        with open(p, "rb") as f:
            lines.append(f"{hashlib.md5(f.read()).hexdigest()}  {os.path.relpath(p, seg_root)}")
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    stats.pop("code_version", None)
    # the same serialization as state/manifest.write_stats, minus the field
    blob = json.dumps(stats, indent=1).encode()
    lines.append(f"{hashlib.md5(blob).hexdigest()}  stats.json")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print("\n".join(digest_lines(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
