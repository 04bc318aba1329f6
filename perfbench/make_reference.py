"""Regenerate reference.json: crossing-profile DP counts the checks compare to.

    python3 perfbench/make_reference.py

Runs ``walks.local_time_distribution`` (exact integers, no series code) for
every n that the exact-dist workload can draw, at k = 3, and for the n=39,
k=2 doublepoint table.  Takes about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from walkrange.walks import local_time_distribution  # noqa: E402


def _strings(dist):
    return {str(l): str(c) for l, c in sorted(dist.items())}


def main():
    data = {
        "local_time_distribution_k3": {
            str(n): _strings(local_time_distribution(n, 3))
            for n in range(80, 101)},
        "local_time_distribution_n39_k2": _strings(local_time_distribution(39, 2)),
    }
    (HERE / "reference.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
