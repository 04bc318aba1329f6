"""Seeded workload generator: every workload's CLI argv lists from one seed.

A workload is a list of queries.  Each query is the argv handed to
``walkrange.cli.run`` plus the description of the independent check that
its output must pass.  The same (workload, seed) gives the same argv on
every commit: the generator draws only ``random.Random.random()`` values,
whose sequence Python keeps stable, from a string-seeded generator.

Size parameters are drawn as stratified triples (see ``sizes``) so that one
run covers the whole input range while its total and slowest query times
barely depend on the seed.
"""

from __future__ import annotations

import random

# name -> why it is in the benchmark; BENCHMARK.json repeats these lines.
WORKLOADS = {
    "exact-dist": "exact rational series route at K=2N: Fraction products "
                  "in pseries dominate; no float DP, no enumeration",
    "tail-fit": "float crossing-profile DP over the Richardson grid: "
                "12 DP passes per query; never touches exact series",
    "oracle-verify": "enumeration oracle plus thousands of tiny exact "
                     "products at K<=18, the opposite use of pseries",
    "float-series": "float pseries backend, zeta bookkeeping, quadrature "
                    "and the cli layer's rounding and JSON output",
}


def sizes(rng, lo, hi):
    """Three sizes from [lo, hi] whose summed cost hardly depends on the draw.

    A pair mirrored about the middle of [lo, top] (antithetic draws: when
    one is cheap the other is dear) and one draw from the top tenth
    [top, hi], which fixes the slowest query and the peak memory of the
    pass to within a tenth of the range.  Together they can reach every
    value in [lo, hi].
    """
    top = hi - (hi - lo) // 10
    mid = (lo + top) / 2
    half = (top - lo) / 2
    u, v = rng.random(), rng.random()
    return [round(mid - half * u), round(mid + half * u),
            round(top + (hi - top) * v)]


def _exact_dist(rng):
    out = []
    for n in sizes(rng, 80, 100):
        out.append({"argv": ["dist", "--n", str(n), "--k", "3",
                             "--lmax", str(2 * n // 3)],
                    "check": {"kind": "exact-dist", "n": n, "k": 3,
                              "lmax": 2 * n // 3}})
        out.append({"argv": ["moments", "--spec", "3:4", "--n", str(n)],
                    "check": {"kind": "exact-moment", "n": n, "k": 3,
                              "depth": 4}})
    return out


def _tail_fit(rng):
    return [{"argv": ["asymp", "--table", "2", "--kmax", "5", "--n", str(n)],
             "check": {"kind": "tail-rates", "n": n}}
            for n in sizes(rng, 1000, 2000)]


_TRACK_SETS = ["1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"]


def _oracle_verify(rng):
    track = _TRACK_SETS[int(rng.random() * len(_TRACK_SETS))]
    return [
        {"argv": ["verify", "--n-max", "9"],
         "check": {"kind": "verify", "n_max": 9}},
        {"argv": ["oracle", "--n", "5", "--d", "2", "--track", track,
                  "--range"],
         "check": {"kind": "oracle-total", "n": 5, "d": 2}},
    ]


def _float_series(rng):
    n1s = sizes(rng, 3000, 4000)
    n2 = 800 + int(rng.random() * 401)
    out = [{"argv": ["asymp", "--table", "1"],
            "check": {"kind": "table1", "n": 39, "k": 2}}]
    for n1 in n1s:
        out.append({"argv": ["dist", "--n", str(n1), "--k", "2",
                             "--lmax", "20"],
                    "check": {"kind": "float-dist-k2", "n": n1}})
    out.append({"argv": ["dist", "--n", str(n2), "--k", "4", "--lmax", "4",
                         "--backend", "float"],
                "check": {"kind": "float-dist-dp", "n": n2, "k": 4,
                          "lmax": 4}})
    for n1 in n1s:
        out.append({"argv": ["range-dist", "--n", str(n1)],
                    "check": {"kind": "range-dist", "n": n1}})
    out.append({"argv": ["asymp", "--table", "3", "--kmax", "8"],
                "check": {"kind": "table3"}})
    out.append({"argv": ["first-moment", "--d", "3", "--k", "2",
                         "--n", "1000"],
                "check": {"kind": "first-moment-d3", "n": 1000, "k": 2}})
    return out


_GENERATORS = {"exact-dist": _exact_dist, "tail-fit": _tail_fit,
               "oracle-verify": _oracle_verify, "float-series": _float_series}


def generate(workload, seed):
    """The query list of one pass of `workload` for `seed`."""
    rng = random.Random(f"walkrange-bench/{workload}/{seed}")
    return _GENERATORS[workload](rng)
