"""Independent correctness checks, one per query kind, run outside the timing.

Every check reaches its expected answer by a route that shares no code with
the route that produced the output: the crossing-profile DP in
``walks.local_time_*`` against the series engine, closed forms (ballot
numbers, C(2n,n)^2, 4^n, published constants) against either.  DP
references that cost seconds are precomputed into ``reference.json`` by
``make_reference.py``.

A failed check is never dropped.  ``KNOWN_DEFECTS`` names the checks that
fail at the commit that introduced this benchmark; they still count as
failed queries, but only a failure outside that list makes a run
incorrect.
"""

from __future__ import annotations

import json
import math
from math import comb
from pathlib import Path

KNOWN_DEFECTS = {
    "float-dist-dp:matches-dp":
        "dist --k 4 --backend float takes the float series route, which "
        "loses digits to cancellation for k >= 3 (0.392833 against the "
        "DP's 0.395055 at n=1000)",
    "tail-rates:k5-dominant":
        "asymp --table 2 fits a spurious k=5 dominant rate near 0.41 for "
        "n around 1000-1250 instead of 0.30263",
}

PUBLISHED_TABLE3 = {(1, 1): 0.50000, (1, 2): -0.08877, (1, 3): 0.02195,
                    (100, 100): 1.47074}
ESCAPE_G3 = 0.5163860592
TAIL_RATES = {2: [0.29140], 3: [0.29018, -0.23057], 4: [0.29867, -0.14176],
              5: [0.30263]}
DOMINANT_TOL, SECOND_TOL = 2e-3, 5e-3


def _close_at_digits(printed, want, digits=6):
    """True when `printed` agrees with `want` to the printed significant digits."""
    if want == 0:
        return abs(printed) <= 10.0 ** -digits
    unit = 10.0 ** (math.floor(math.log10(abs(want))) - digits + 1)
    return abs(printed - want) <= unit


class References:
    """Expected values: committed DP tables plus DP runs done on demand."""

    def __init__(self, path):
        data = json.loads(Path(path).read_text())
        self.k3 = {int(n): {int(l): int(c) for l, c in d.items()}
                   for n, d in data["local_time_distribution_k3"].items()}
        self.n39_k2 = {int(l): int(c) for l, c in
                       data["local_time_distribution_n39_k2"].items()}
        self._dp = {}

    def dp_probabilities(self, n, k, lmax):
        key = (n, k, lmax)
        if key not in self._dp:
            from walkrange.walks import local_time_probabilities
            self._dp[key] = [float(p) for p in
                             local_time_probabilities(n, k, lmax)]
        return self._dp[key]


def _exact_dist(spec, res, refs):
    ref = refs.k3[spec["n"]]
    got = {e["l"]: int(e["count"]) for e in res["distribution"]}
    want = {l: ref.get(l, 0) for l in range(spec["lmax"] + 1)}
    total = comb(2 * spec["n"], spec["n"])
    return [("counts-vs-dp", got == want, "counts differ from the crossing-profile DP"),
            ("tail-zero", res["tail_count"] == "0", f"tail {res['tail_count']}"),
            ("total", res["total"] == str(total), "total is not C(2n,n)")]


def _exact_moment(spec, res, refs):
    ref = refs.k3[spec["n"]]
    want = sum(comb(l, spec["depth"]) * c for l, c in ref.items())
    return [("moment-vs-dp", res["value"] == str(want),
             f"value {res['value']} != {want}")]


def _tail_rates(spec, res, refs):
    rates = {e["k"]: e["rates"] for e in res["tail_rates"]}
    out = []
    for k, want in TAIL_RATES.items():
        got = rates.get(k, [])
        for pos, (label, tol) in enumerate((("dominant", DOMINANT_TOL),
                                            ("second", SECOND_TOL))):
            if pos >= len(want):
                continue
            ok = len(got) > pos and abs(got[pos] - want[pos]) <= tol
            out.append((f"k{k}-{label}", ok,
                        f"k={k} {label} rate {got[pos] if len(got) > pos else None}"
                        f" vs {want[pos]}"))
    return out


def _verify(spec, res, refs):
    return [("no-mismatch", res["mismatches"] == 0,
             f"{res['mismatches']} mismatches")]


def _oracle_total(spec, res, refs):
    n, d = spec["n"], spec["d"]
    total = sum(res["counts"].values())
    want = comb(2 * n, n) ** 2 if d == 2 else comb(2 * n, n)
    return [("walk-total", total == want, f"{total} walks, want {want}")]


def _table1(spec, res, refs):
    got = {e["l"]: int(e["count"]) for e in res["doublepoints_n39"]}
    want = {l: refs.n39_k2.get(l, 0) for l in got}
    return [("counts-vs-dp", got == want and 0 in got,
             "n=39 doublepoint counts differ from the crossing-profile DP")]


def _float_dist_k2(spec, res, refs):
    from walkrange.moments import mean_point_count
    probs = [e["probability"] for e in res["distribution"]]
    mean = float(mean_point_count(spec["n"], 2))
    s0 = sum(probs)
    s1 = sum(l * p for l, p in enumerate(probs))
    return [("mass-one", abs(s0 - 1.0) <= 1e-5, f"sum Pr = {s0}"),
            ("mean-closed-form", abs(s1 - mean) <= 1e-5 * max(1.0, mean),
             f"sum l Pr = {s1}, closed form {mean}")]


def _float_dist_dp(spec, res, refs):
    want = refs.dp_probabilities(spec["n"], spec["k"], spec["lmax"])
    got = [e["probability"] for e in res["distribution"]]
    ok = len(got) == len(want) and all(
        _close_at_digits(g, w) for g, w in zip(got, want))
    return [("matches-dp", ok, f"{got} vs DP {[round(w, 6) for w in want]}")]


def _range_dist(spec, res, refs):
    n = spec["n"]
    mass = sum(e["m"] * int(e["count"]) for e in res["distribution"])
    return [("tail-zero", res["tail_count"] == "0", f"tail {res['tail_count']}"),
            ("range-sum", mass == 4 ** n, "sum m count != 4^n")]


def _table3(spec, res, refs):
    got = {(e["k1"], e["k2"]): e["covariance"] for e in res["covariances"]}
    return [(f"cov-{k1}-{k2}", (k1, k2) in got and abs(got[(k1, k2)] - v) <= 5e-6,
             f"({k1},{k2}) = {got.get((k1, k2))} vs {v}")
            for (k1, k2), v in PUBLISHED_TABLE3.items()]


def _first_moment_d3(spec, res, refs):
    n, k, g = spec["n"], spec["k"], ESCAPE_G3
    want = 2.0 * n * g ** (k - 1) / (1.0 + g) ** (k + 1)
    want_range = 2.0 * n / (1.0 + g)
    return [("points-vs-G3", _close_at_digits(res["asymptotic"], want, 5),
             f"{res['asymptotic']} vs {want}"),
            ("range-vs-G3", _close_at_digits(res["asymptotic_range"], want_range, 5),
             f"{res['asymptotic_range']} vs {want_range}")]


_CHECKS = {"exact-dist": _exact_dist, "exact-moment": _exact_moment,
           "tail-rates": _tail_rates, "verify": _verify,
           "oracle-total": _oracle_total, "table1": _table1,
           "float-dist-k2": _float_dist_k2, "float-dist-dp": _float_dist_dp,
           "range-dist": _range_dist, "table3": _table3,
           "first-moment-d3": _first_moment_d3}


def check_query(spec, rc, error, stdout, refs):
    """[(check id, passed, detail)] for one query's exit status and output."""
    kind = spec["kind"]
    if error is not None or rc != 0:
        return [(f"{kind}:exit", False, error or f"exit code {rc}")]
    try:
        results = json.loads(stdout)["results"]
        found = _CHECKS[kind](spec, results, refs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [(f"{kind}:output", False, f"unreadable output: {exc!r}")]
    return [(f"{kind}:{name}", ok, detail) for name, ok, detail in found]
