"""One pass of a workload in a fresh interpreter: a closed loop of CLI queries.

Reads a JSON job from stdin:

    {"src": "<checkout>/src", "queries": [[argv...], ...],
     "out_dir": "<dir for captured output>", "trace": false,
     "spans": "<path for the span file, trace only>"}

and issues the queries one after another through ``walkrange.cli.run``,
each with stdout and stderr sent to files in out_dir, as a CLI user's
shell would.  Only the ``cli.run`` call is timed.  Prints one JSON object:
per-query seconds and exit codes, the process's peak RSS, the versions in
use and, when traced, the per-layer metrics.

The host this was written on changes speed by tens of percent from one
minute to the next, so each query is also reported in *nominal seconds*:
its seconds times NOMINAL_PROBE_S over the median time of a fixed
pure-Python kernel sampled every PROBE_INTERVAL_S during the query (and
just before and after it).  The kernel shares no code with walkrange, so
the ratio cancels the host's drift and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time


def _blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": None, "version": None}


PROBE_ITERATIONS = 10_000
PROBE_INTERVAL_S = 0.05
# probe_kernel's time at the speed that defines one "nominal second"
NOMINAL_PROBE_S = 1.0e-3


def edge_probe():
    """Median probe time over a few back-to-back kernels."""
    return statistics.median(probe_kernel() for _ in range(5))


def probe_kernel():
    """Seconds for a fixed pure-Python kernel that never touches walkrange."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


class SpeedProbe:
    """Times probe_kernel every PROBE_INTERVAL_S of wall time from SIGALRM.

    The handler runs in the main thread between bytecodes, so each sample
    measures how fast this interpreter runs at that moment.
    """

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe_kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_query(run, qid, argv, out_dir, tracer, probe):
    out_path = os.path.join(out_dir, f"q{qid}.out")
    err_path = os.path.join(out_dir, f"q{qid}.err")
    rc, error = None, None
    if tracer is not None:
        tracer.query_id = qid
    edge = [edge_probe()]
    first = len(probe.samples)
    with open(out_path, "w") as out, open(err_path, "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = run(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed query, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    during = probe.samples[first:]
    edge.append(edge_probe())
    probe_s = statistics.median(during + edge)
    return {"seconds": seconds, "nominal_s": seconds * NOMINAL_PROBE_S / probe_s,
            "probe_s": probe_s, "probes": len(during), "rc": rc, "error": error,
            "out": out_path, "err": err_path}


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import numpy as np
    import walkrange

    pkg_dir = os.path.dirname(os.path.abspath(walkrange.__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(job["src"]):
        raise SystemExit(f"walkrange imported from {pkg_dir}, not {job['src']}")
    import walkrange.cli

    tracer = None
    if job["trace"]:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer, walkrange)
    run = walkrange.cli.run

    results = []
    probe = SpeedProbe()
    with probe:
        for qid, argv in enumerate(job["queries"]):
            results.append(_run_query(run, qid, argv, job["out_dir"], tracer, probe))

    report = {
        "queries": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(np),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["largest_self"] = tracer.largest_self()
        tracer.write(job["spans"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
