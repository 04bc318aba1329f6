"""Summarize runs in .bench_out into a baseline file such as BASELINE.json.

    python3 perfbench/summarize.py --seeds 101-110 --trace-seed 5 > perfbench/BASELINE.json

For each workload: median, quartiles and spread (interquartile range over
median) of every end-to-end metric over the untraced runs of the given
seeds, the failed queries and the checks that failed, and the per-layer
metrics of the traced run of --trace-seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize_workload(name, seeds, trace_seed):
    runs = [json.loads((OUT / f"{name}-seed{s}-trace0.json").read_text())
            for s in seeds]
    end_to_end = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        end_to_end[metric] = {
            "unit": runs[0]["metrics"][metric]["unit"],
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}
    attempted = sum(len(p["queries"]) for r in runs for p in r["passes"])
    failed = sum(1 for r in runs for p in r["passes"] for q in p["queries"]
                 if q["failed_checks"])
    out = {
        "why": workloads.WORKLOADS[name], "seeds": seeds,
        "end_to_end": end_to_end,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failed_checks": sorted({f["check"] for r in runs
                                 for f in r["failed_checks"]}),
        "unexpected_failures": sorted({c for r in runs
                                       for c in r["unexpected_failures"]}),
    }
    traced = OUT / f"{name}-seed{trace_seed}-trace1.json"
    if traced.is_file():
        t = json.loads(traced.read_text())
        out["traced_seed"] = trace_seed
        out["largest_self"] = t["largest_self"]
        out["per_layer"] = {k: m["value"] for k, m in t["metrics"].items()}
    return out, runs[0]["provenance"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, required=True)
    p.add_argument("--trace-seed", type=int, required=True)
    args = p.parse_args()
    result, provenance = {}, None
    for name in workloads.WORKLOADS:
        result[name], provenance = summarize_workload(name, args.seeds,
                                                      args.trace_seed)
    json.dump({"provenance": provenance, "workloads": result}, sys.stdout,
              indent=1)
    print()


if __name__ == "__main__":
    main()
