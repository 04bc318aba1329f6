"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Two statements made by the source tables are checked verbatim in strict
expected-failure tests because they are inconsistent with the underlying
formulas themselves (full analysis in the repository notes): the length-78
doublepoint table prints counts with ~1e-7 relative float noise, and one
covariance entry has a truncated final digit.  The substantive versions of
both criteria are asserted against independently recomputed values.
"""

import math
import time
from fractions import Fraction
from math import comb

import pytest

from walkrange import asymptotics as asy
from walkrange import moments as mom
from walkrange import walks
from walkrange.genfun import Engine, joint_counts, range_distribution, range_moment
from walkrange.pseries import EXACT

TABLE1_PRINTED = {0: 9379489746558670340000, 1: 11080781119308072700000,
                  2: 4768982388008920550000, 3: 1321976178995539300000,
                  4: 446940016375442637000, 5: 148016854282117480000,
                  10: 478890500239691072}
TABLE1_PR = {0: 0.34462, 1: 0.40713, 2: 0.17522, 3: 0.04857, 4: 0.01642,
             5: 0.00544, 10: 0.0000176}


def _line(crit, ok, detail=""):
    print(f"ACCEPTANCE criterion {crit}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {crit}: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 9):
        eng = Engine(2 * n, backend=EXACT)
        got = joint_counts(eng, n, (1, 2, 3))
        want = dict(walks.oracle_counts(n, 1, (1, 2, 3)))
        ok &= got == want
        hist = range_distribution(n)
        want_r = {m: c for (m,), c in
                  walks.oracle_counts(n, 1, (), include_range=True).items()}
        ok &= hist == want_r
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    _line(1, ok, f"joint (N2,N4,N6) and range histograms exact for n <= 8, "
          f"{elapsed:.1f}s")


def test_criterion_2_table1_counts(exact_engine_78, capsys):
    import json

    from walkrange.cli import run

    t0 = time.monotonic()
    counts, _tail = exact_engine_78.distribution(39, 2, 10)
    # independent oracle: crossing-profile DP shares no code with the engine
    dp = walks.local_time_distribution(39, 2, 2 * 39)
    total = comb(78, 39)
    ok = all(counts[l] == dp.get(l, 0) for l in TABLE1_PRINTED)
    prs = {l: counts[l] / total for l in TABLE1_PR}
    ok &= all(abs(prs[l] - TABLE1_PR[l]) <= 5e-6 for l in TABLE1_PR)
    # the same table through the command line, counts as decimal strings
    rc = run(["dist", "--n", "39", "--k", "2", "--lmax", "10"])
    rep = json.loads(capsys.readouterr().out)
    cli_counts = {r["l"]: int(r["count"])
                  for r in rep["results"]["distribution"]}
    ok &= rc == 0 and all(cli_counts[l] == counts[l] for l in range(11))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10
    with capsys.disabled():
        _line(2, ok, f"counts match the independent crossing-profile oracle "
              f"exactly (engine and CLI) and the probability column to "
              f"5 d.p., {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason="the printed length-78 doublepoint "
                   "counts carry ~1e-7 relative float noise; they disagree "
                   "with exact arithmetic, the crossing-profile oracle, and "
                   "their own completeness/first-moment identities")
def test_criterion_2_printed_counts_verbatim(exact_engine_78):
    counts, _ = exact_engine_78.distribution(39, 2, 10)
    assert all(counts[l] == TABLE1_PRINTED[l] for l in TABLE1_PRINTED)


def test_criterion_3_tail_law_and_extrapolation(float_engine_4000):
    tm = asy.doublepoint_tail()
    checks = {3: 0.04779, 4: 0.01608, 5: 0.00531, 10: 0.0000177}
    ok = all(abs(tm.predict(l) - v) <= 5e-5 for l, v in checks.items())
    grid = [250, 500, 1000, 2000]
    limits = {0: 0.35101, 1: 0.40526, 2: 0.17199}
    worst = 0.0
    for l, want in limits.items():
        est, _tol = asy.extrapolate_probability(2, l, grid,
                                                engine=float_engine_4000)
        worst = max(worst, abs(est - want))
    ok &= worst <= 1e-3
    _line(3, ok, f"tail law within 5e-5, extrapolated limits within "
          f"{worst:.1e} of the printed values")


def test_criterion_4_singlepoint_expansions():
    ok = True
    worst = 0.0
    for n in (50, 100, 200):
        eng = Engine(2 * n, backend=EXACT)
        s0, s1, s2 = eng.singlepoint_series()
        total = comb(2 * n, n)
        exact = [Fraction(int(s[2 * n]), total)
                 for s in (s0, s1, s2)]
        poly = asy.singlepoint_expansion(n)
        bound = 5.0 / n ** 5
        for l in range(3):
            resid = abs(float(exact[l]) - poly[l])
            worst = max(worst, resid / bound)
            ok &= resid <= bound
    _line(4, ok, f"worst residual {worst:.2f} of the 5/n^5 budget")


def test_criterion_5_second_moment_limits(float_engine_4000):
    printed = {(1, 1): 0.50000, (1, 2): -0.08877, (1, 3): 0.02195,
               (100, 100): 1.47074}
    ok = all(abs(asy.second_moment_limit(k1, k2) - v) <= 5e-6
             for (k1, k2), v in printed.items())
    # (100,101): the independently verified value of the printed formula
    ok &= abs(asy.second_moment_limit(100, 101) - 0.4706162) <= 5e-6
    # exact float-series covariances at n = 2000 approach the limits; the
    # pair terms are T(1,1) = g and T(1,2) = pair_block(1,2) + (1 - A) g with
    # g = pair_block(1,1), and N^2 = N + 2 C(N, 2) on the diagonal
    eng = float_engine_4000
    n = 2000

    def mean(series):
        return eng.cache.probability(series.zddz(), n)

    m1, m2 = mean(eng.term_single(1)), mean(eng.term_single(2))
    g = eng.pair_block(1, 1)
    cov11 = m1 + 2 * mean(g) - m1 * m1
    cov12 = 2 * mean(eng.pair_block(1, 2) + eng.cache.one_minus_A * g) - m1 * m2
    d11 = abs(cov11 - asy.second_moment_limit(1, 1))
    d12 = abs(cov12 - asy.second_moment_limit(1, 2))
    ok &= d11 <= 1e-2 and d12 <= 1e-2
    _line(5, ok, f"limit table to 5e-6; finite-n gaps {d11:.1e}, {d12:.1e}")


@pytest.mark.xfail(strict=True, reason="the printed (100,101) covariance "
                   "0.47061 truncates the true value 0.4706162..., which "
                   "sits 6.2e-6 from the printed digits; verified "
                   "independently at 80-digit precision")
def test_criterion_5_printed_100_101_verbatim():
    assert abs(asy.second_moment_limit(100, 101) - 0.47061) <= 5e-6


def test_criterion_6_tail_rates(tail_fits_2000):
    targets = {2: 0.29140, 3: 0.29018, 4: 0.29867, 5: 0.30263}
    second = {3: -0.23057, 4: -0.14176}
    worst = 0.0
    ok = True
    for k, want in targets.items():
        # the fitted rates and the limit-operator rates, each on its own
        for rates in (tail_fits_2000[k].rates, asy.tail_rates_limit(k)):
            worst = max(worst, abs(rates[0] - want))
            ok &= abs(rates[0] - want) <= 2e-3
            if k in second:
                ok &= abs(rates[1] - second[k]) <= 5e-3
    alpha = math.pi ** 2 / (24 + math.pi ** 2)
    ok &= abs(alpha - 0.29140) <= 1e-6
    _line(6, ok, f"fitted and limit dominant rates within {worst:.1e} "
          f"(second rates to 5e-3 for k=3,4); analytic doublepoint rate "
          f"matches to 1e-6")


def test_criterion_7_range_moment_ratios():
    n = 2000
    hist = range_distribution(n)
    m1 = mom.mean_range(n)
    r2 = float(range_moment(n, 2, hist) / m1 ** 2)
    r3 = float(range_moment(n, 3, hist) / m1 ** 3)
    xi2 = asy.range_moment_limit(2)
    xi3 = asy.range_moment_limit(3)
    ok = abs(r2 - xi2) / xi2 <= 0.01
    ok &= abs(r3 - xi3) / xi3 <= 0.015
    ok &= abs(xi3 - 1.14788) <= 5e-6
    _line(7, ok, f"ratios off by {abs(r2-xi2)/xi2:.2e} and "
          f"{abs(r3-xi3)/xi3:.2e}")


def test_criterion_8_first_moment_asymptotics():
    ok = all(abs(float(mom.mean_point_count(500, k)) - 1.0) <= 0.02
             for k in (1, 2, 3))
    ratio = float(mom.mean_range(1000)) / math.sqrt(math.pi * 1000)
    ok &= abs(ratio - 1.0) <= 0.01
    g = mom.escape_constant(3)
    limit = 1.0 / (1.0 + g) ** 2
    out = walks.sample_moments(1000, 3, samples=2000, seed=20240, k_max=1)
    mean, err = out[1]
    dev = abs(mean / 2000 - limit)
    ok &= dev <= 3 * err / 2000
    _line(8, ok, f"d=1 moments at 1; Monte Carlo d=3 deviation {dev:.1e} "
          f"vs 3se {3 * err / 2000:.1e}")


def test_criterion_9_closed_forms_match_machinery():
    eng = Engine(60, backend=EXACT)
    # singlepoints: closed forms against the inverted general moments
    m = eng.binomial_moment_series(1, 2)
    s0, s1, s2 = eng.singlepoint_series()
    general = {
        0: m[0] - m[1] + m[2],
        1: m[1] - m[2].scaled(2),
        2: m[2],
    }
    ok = general[0] == s0 and general[1] == s1 and general[2] == s2
    # doublepoints: closed-form moment series against the transfer-operator
    # machinery, coefficientwise at order 60
    a = eng.binomial_moment_series(2, 16)
    b = eng.doublepoint_moment_series(16)
    ok &= all(x == y for x, y in zip(a, b))
    _line(9, ok, "closed forms equal the general machinery to order 60")
