"""walkrange benchmark: four workloads, one per answer route, checked and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in, nothing is installed.  One run is a closed loop with a
single client: a pass issues the workload's queries one after another
through ``walkrange.cli.run``, in a fresh interpreter, so module caches
start cold as they do for a CLI user.  Passes repeat the same seeded argv
list while they fit in ``--seconds`` (at least one pass; a pass is never
cut short), and each metric is the median over passes.  Every output is
checked against an independent route after its pass, outside the timing.

``--trace 0`` reports the end-to-end metrics:

    setup_s          median over 9 fresh interpreters of spawn to
                     ``import walkrange`` done
    wall_s           sum of query times of one pass
    slowest_query_s  longest single query of a pass
    peak_rss_mb      peak resident memory of the pass process (ru_maxrss)

Times are nominal seconds (see ``worker.py``): measured seconds corrected
for the host's speed drift by a probe kernel timed alongside.  The raw
seconds are kept in the detail file.

``--trace 1`` makes one untraced and one traced pass, ignoring
``--seconds``, and reports the per-layer metrics of ``layertrace.METRICS``
from the traced pass, plus ``trace.spans`` and ``trace.overhead_frac``
(traced wall_s / untraced wall_s - 1).  Nothing runs concurrently: one
client, single-threaded Python, BLAS threads capped at the CPU count, so no
layer queues or waits and there are no wait metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts queries that exited nonzero,
raised, or failed a check; ``correct`` is false when a check outside
``checks.KNOWN_DEFECTS`` failed.  The seed, every argv, per-query times,
every failed check and the run's provenance go to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; traced spans to
``.bench_out/spans-<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from checks import KNOWN_DEFECTS, References, check_query  # noqa: E402
from worker import NOMINAL_PROBE_S, edge_probe  # noqa: E402


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    return max(1, len(os.sched_getaffinity(0)))


def child_env():
    env = dict(os.environ)
    cap = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(env, deadline):
    samples = []
    code = "import time, walkrange; print(time.monotonic(), walkrange.__file__)"
    for _ in range(SETUP_REPEATS):
        before = edge_probe()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
        if proc.returncode != 0:
            raise BenchError(f"import walkrange failed: {proc.stderr.strip()[-400:]}")
        done, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"walkrange imported from {path.strip()}, not {SRC}")
        probe_s = (before + edge_probe()) / 2
        samples.append((float(done) - t0) * NOMINAL_PROBE_S / probe_s)
    return samples


def run_pass(argvs, trace, env, pass_dir, spans_path, deadline):
    pass_dir.mkdir(parents=True)
    job = {"src": str(SRC), "queries": argvs, "out_dir": str(pass_dir),
           "trace": bool(trace), "spans": str(spans_path)}
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {RUN_LIMIT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass worker failed: {proc.stderr.strip()[-800:]}")
    report = json.loads(proc.stdout)
    report["process_s"] = time.monotonic() - t0
    return report


def check_pass(queries, report, refs):
    """Attach the checks of every query; returns the failed check records."""
    failed = []
    for qid, (query, res) in enumerate(zip(queries, report["queries"])):
        stdout = Path(res["out"]).read_text()
        found = check_query(query["check"], res["rc"], res["error"], stdout, refs)
        res["failed_checks"] = [cid for cid, ok, _ in found if not ok]
        failed += [{"query": qid, "check": cid, "detail": detail}
                   for cid, ok, detail in found if not ok]
        del res["out"], res["err"]
    return failed


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "walkrange" / "__init__.py").is_file():
        raise BenchError(f"no walkrange sources under {SRC}")
    if not (HERE / "reference.json").is_file():
        raise BenchError("perfbench/reference.json is missing")
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    env = child_env()
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS",
                                           "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))  # the checks' reference routes

    queries = workloads.generate(args.workload, args.seed)
    argvs = [q["argv"] for q in queries]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{tag}-{os.getpid()}"
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    refs = References(HERE / "reference.json")

    setup = measure_setup(env, deadline)
    passes, failed_checks = [], []

    def one_pass(traced):
        i = len(passes)
        rep = run_pass(argvs, traced, env, work_dir / f"pass{i}", spans_path,
                       deadline)
        failed_checks.extend(dict(f, **{"pass": i})
                             for f in check_pass(queries, rep, refs))
        passes.append(rep)

    try:
        one_pass(False)
        if args.trace:
            one_pass(True)
        else:
            # repeat while one more pass of median length still fits
            while (sum(p["process_s"] for p in passes)
                   + statistics.median(p["process_s"] for p in passes)
                   <= args.seconds):
                one_pass(False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    walls = [sum(q["nominal_s"] for q in p["queries"]) for p in passes]
    slowest = [max(q["nominal_s"] for q in p["queries"]) for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    attempted = sum(len(p["queries"]) for p in passes)
    failed = sum(1 for p in passes for q in p["queries"] if q["failed_checks"])
    unexpected = sorted({f["check"] for f in failed_checks} - set(KNOWN_DEFECTS))

    if args.trace:
        metrics = dict(passes[1]["layers"])
        metrics["trace.overhead_frac"] = {"value": walls[1] / walls[0] - 1.0,
                                          "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "slowest_query_s": {"value": statistics.median(slowest), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    first = passes[0]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WORKLOADS[args.workload],
        "argv": argvs,
        "provenance": {
            "nproc": os.cpu_count(), "blas_threads_cap": blas_threads(),
            "python": first["python"], "numpy": first["numpy"],
            "blas": first["blas"], "git_commit": git_commit(),
            "src_sha256": src_digest(),
            "load": "one client, closed loop, one pass process at a time",
        },
        "setup_samples_s": setup,
        "passes": [{"wall_s": w, "peak_rss_mb": p["peak_rss_mb"],
                    "traced": bool(args.trace and i == 1),
                    "queries": p["queries"]}
                   for i, (w, p) in enumerate(zip(walls, passes))],
        "error_rate": failed / attempted,
        "failed_checks": failed_checks,
        "known_defects_seen": sorted({f["check"] for f in failed_checks}
                                     & set(KNOWN_DEFECTS)),
        "unexpected_failures": unexpected,
        "largest_self": passes[1].get("largest_self") if args.trace else None,
        "metrics": metrics,
        "run_s": time.monotonic() - start,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for i, argv in enumerate(argvs):
        print(f"query {i}: walkrange {' '.join(argv)}")
    print(f"passes {len(passes)}, attempted {attempted}, failed {failed}, "
          f"error_rate {failed / attempted:.4f} ratio")
    for f in failed_checks:
        known = "known defect" if f["check"] in KNOWN_DEFECTS else "UNEXPECTED"
        print(f"failed check ({known}) pass {f['pass']} query {f['query']} "
              f"{f['check']}: {f['detail']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
