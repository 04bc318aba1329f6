"""Singular expansions, limit moments, extrapolation, rate fitting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from walkrange.errors import DomainError, IllConditioned
from walkrange.asymptotics import (TAIL_RATES_KMAX, _zeta_fraction, bernoulli,
                                   doublepoint_tail, em_expansion,
                                   extrapolate_probability,
                                   fit_linear_recurrence,
                                   limit_transfer_matrix, probability_table,
                                   range_moment_limit, richardson,
                                   second_moment_limit,
                                   singlepoint_expansion, tail_rate_fit,
                                   tail_rates_limit, zeta, zeta_fraction)
from walkrange.genfun import Engine
from walkrange.walks import local_time_probabilities


# -- reference evaluations the library results are checked against ---------

def zeta_em(s, terms=40, correction_order=12):
    """Independent Euler-Maclaurin evaluation of zeta(s), for cross-checks."""
    if s < 2:
        raise DomainError("zeta_em needs s >= 2")
    N = terms
    acc = sum(Fraction(1, j ** s) for j in range(1, N + 1))
    acc += Fraction(1, (s - 1) * N ** (s - 1))
    acc -= Fraction(1, 2 * N ** s)
    rising = Fraction(s)
    for i in range(1, correction_order + 1):
        acc += (bernoulli(2 * i) / math.factorial(2 * i) * rising
                / N ** (s + 2 * i - 1))
        rising *= (s + 2 * i - 1) * (s + 2 * i)
    return float(acc)


def sigma_table(k, fmax):
    """sigma_k(f) for f = 1..fmax by sieving."""
    table = np.zeros(fmax + 1)
    for f in range(1, fmax + 1):
        fk = float(f) ** k
        table[f:: f] += fk
    return table


def tail_sum_direct(k, b, rel_tol=1e-16):
    """sum_{f>=1} f^k b^f/(1-b^f) = sum_f sigma_k(f) b^f for 0 <= b < 1."""
    if not 0 <= b < 1:
        raise DomainError("need 0 <= b < 1")
    if b == 0:
        return 0.0
    # f^k e^{f log b} negligible beyond fmax
    log_b = math.log(b)
    fmax = 64
    while fmax ** k * math.exp(fmax * log_b) > rel_tol and fmax < 5 * 10 ** 7:
        fmax *= 2
    table = sigma_table(k, fmax)
    powers = np.exp(np.arange(fmax + 1) * log_b)
    return float(np.dot(table[1:], powers[1:]))


def singular_scaled_sum(k, varsigma):
    """g_k(s) = (sqrt(1-s))^{k+1} sum_f f^k b^f/(1-b^f) for real s < 1."""
    u = math.sqrt(1.0 - varsigma)
    b = (1.0 - u) / (1.0 + u)
    return u ** (k + 1) * tail_sum_direct(k, b)


def test_bernoulli_values():
    want = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
            Fraction(-1, 30), Fraction(0), Fraction(5, 66)]
    assert [bernoulli(i) for i in range(11)] == want


def test_zeta_closed_forms():
    assert zeta(2) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
    assert zeta(4) == pytest.approx(math.pi ** 4 / 90, rel=1e-15)
    assert zeta(3) == pytest.approx(1.2020569031595943, rel=1e-14)


def test_zeta_two_methods_agree():
    for s in range(2, 12):
        assert zeta(s) == pytest.approx(zeta_em(s), rel=1e-14)


def test_zeta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for s in (2, 3, 5, 9, 20, 60):
        assert zeta(s) == pytest.approx(float(mp.zeta(s)), rel=1e-14)


def test_zeta_fraction_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 70
    # a request for more digits than the kept fraction has rebuilds it
    for s, digits in ((2, 60), (29, 10), (29, 60), (29, 30)):
        got = zeta_fraction(s, digits)
        ref = mp.zeta(s)
        assert abs(mp.mpf(got.numerator) / got.denominator - ref) \
            < mp.mpf(10) ** -digits, (s, digits)


def test_zeta_float_whatever_precision_is_kept():
    # zeta(s) reads the kept fraction, which may hold more than 25 digits;
    # its float is the same as that of the 25-digit fraction
    for s in range(2, 64):
        zeta_fraction(s, 120)
        assert zeta(s) == float(_zeta_fraction(s, 25)), s


def test_tail_sum_direct_value():
    # sum_f sigma_1(f) 2^{-f} evaluated directly
    got = tail_sum_direct(1, 0.5)
    brute = sum(sum(d for d in range(1, f + 1) if f % d == 0) * 0.5 ** f
                for f in range(1, 200))
    assert got == pytest.approx(brute, rel=1e-13)


def test_em_expansion_constants():
    for k in (1, 2, 3):
        em = em_expansion(k, 4)
        assert em.constant == pytest.approx(
            math.factorial(k) * zeta(k + 1) / 2 ** (k + 1), rel=1e-14)


def test_em_expansion_close_to_singularity():
    em = em_expansion(1, 6)
    s = 1 - 1e-4
    assert abs(em.evaluate(s) - singular_scaled_sum(1, s)) <= 1e-6


def test_em_expansion_first_correction_value():
    # hand-derived: lambda_1(1) = zeta(2)/6 - 1/24 and lambda~_1(1) = -1/12
    em = em_expansion(1, 3)
    assert em.lambda_value(1) == pytest.approx(zeta(2) / 6 - 1 / 24, rel=1e-14)
    assert em.lambda_tilde[0] == Fraction(1, 4) * Fraction(-1, 3)


def test_em_expansion_error_slope():
    # the residual must vanish faster than (1-s)^M: log-log slope >= M + 0.5
    M = 2
    for k in (1, 2, 3):
        em = em_expansion(k, M)
        xs, errs = [], []
        for j in range(4, 21):
            s = 1 - 2.0 ** -j
            err = abs(em.evaluate(s) - singular_scaled_sum(k, s))
            if err > 1e-13:
                xs.append(-j * math.log(2.0))
                errs.append(math.log(err))
        # slope over the last decade of usable points
        lo = max(0, len(xs) - 4)
        slope = (errs[-1] - errs[lo]) / (xs[-1] - xs[lo])
        assert slope >= M + 0.5, (k, slope)


def test_doublepoint_tail_constants():
    tm = doublepoint_tail()
    assert tm.rates[0] == pytest.approx(
        math.pi ** 2 / (24 + math.pi ** 2), rel=1e-15)
    assert abs(tm.rates[0] - 0.29140) <= 1e-6
    for l, want in ((3, 0.04779), (4, 0.01608), (5, 0.00531), (10, 0.0000177)):
        assert abs(tm.predict(l) - want) <= 5e-5


def test_doublepoint_tail_against_exact_length78(exact_engine_78):
    from math import comb
    counts, _ = exact_engine_78.distribution(39, 2, 10)
    tm = doublepoint_tail()
    pr10 = counts[10] / comb(78, 39)
    assert abs(pr10 - tm.predict(10)) / pr10 < 0.01


def test_range_moment_ratios_monotone():
    from walkrange.genfun import range_distribution, range_moment
    from walkrange.moments import mean_range
    for r in (2, 3):
        lim = range_moment_limit(r)
        gaps = []
        for n in (500, 1000, 2000):
            hist = range_distribution(n)
            ratio = float(range_moment(n, r, hist) / mean_range(n) ** r)
            gaps.append(abs(ratio - lim))
        assert gaps[0] > gaps[1] > gaps[2]
        # O(1/n) envelope: halving the gap when n doubles, roughly
        assert gaps[0] / gaps[2] > 2.5


def test_singlepoint_expansion_limits():
    p0, p1, p2 = singlepoint_expansion(10 ** 9)
    assert (p0, p1, p2) == pytest.approx((0.25, 0.5, 0.25), abs=1e-8)
    assert sum(singlepoint_expansion(50)) == pytest.approx(1.0, abs=1e-5)


def test_second_moment_limit_table():
    cases = {(1, 1): 0.50000, (1, 2): -0.08877, (1, 3): 0.02195,
             (1, 4): 0.03509, (2, 2): 1.02195, (2, 3): 0.10274,
             (4, 5): 0.251235, (5, 100): 0.02000, (100, 100): 1.47074}
    for (k1, k2), want in cases.items():
        assert abs(second_moment_limit(k1, k2) - want) <= 5e-6, (k1, k2)


def test_second_moment_limit_symmetry():
    assert second_moment_limit(2, 5) == pytest.approx(
        second_moment_limit(5, 2), rel=1e-13)


def test_second_moment_limit_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def reference(k1, k2):
        tot = mp.mpf(0)
        for r1 in range(1, k1 + 1):
            for r2 in range(1, k2 + 1):
                s = r1 + r2
                base = (mp.binomial(k1 - 1, r1 - 1) * mp.binomial(k2 - 1, r2 - 1)
                        * (-1) ** s * mp.binomial(s, r1) / mp.mpf(2) ** s)
                t1 = mp.mpf(k1 + k2 - s) / s * mp.zeta(s)
                t2 = mp.mpf(0)
                if s > 2:
                    t2 = ((mp.binomial(r1, 2) + mp.binomial(r2, 2))
                          / mp.binomial(s, 2) * mp.zeta(s - 1))
                tot += base * (t1 + t2)
        return float((1 if k1 == k2 else 0) + mp.mpf(1) / 2 + 2 * tot - 1)

    for k1, k2 in ((3, 4), (7, 9), (40, 41)):
        assert second_moment_limit(k1, k2) == pytest.approx(
            reference(k1, k2), abs=1e-12)


def _second_moment_limit_term_by_term(k1, k2):
    """The former loop: one Fraction per (r1, r2) term."""
    from math import comb

    from walkrange.asymptotics import zeta_fraction
    zeta_coeffs = {}
    for r1 in range(1, k1 + 1):
        for r2 in range(1, k2 + 1):
            s = r1 + r2
            base = Fraction(comb(k1 - 1, r1 - 1) * comb(k2 - 1, r2 - 1)
                            * comb(s, r1) * (-1) ** s, 2 ** s)
            w1 = base * Fraction(k1 + k2 - s, s)
            if w1:
                zeta_coeffs[s] = zeta_coeffs.get(s, Fraction(0)) + 2 * w1
            if s > 2:
                w2 = base * Fraction(comb(r1, 2) + comb(r2, 2), comb(s, 2))
                if w2:
                    zeta_coeffs[s - 1] = zeta_coeffs.get(s - 1, Fraction(0)) + 2 * w2
    if not zeta_coeffs:
        return float((1 if k1 == k2 else 0) - Fraction(1, 2))
    maxmag = max(abs(c.numerator / c.denominator) for c in zeta_coeffs.values())
    digits = 30 + int(math.log10(max(maxmag, 1.0))) + 1
    acc = Fraction((1 if k1 == k2 else 0)) - Fraction(1, 2)
    for s, c in zeta_coeffs.items():
        acc += c * zeta_fraction(s, digits)
    return float(acc)


def test_second_moment_limit_equals_term_by_term_sum():
    # every (k1, k2) of `asymp --table 3 --kmax 8`: per-s integer sums give
    # the same rational, hence the same float, as one Fraction per term
    ks = list(range(1, 9)) + [100]
    for i, k1 in enumerate(ks):
        for k2 in ks[i:]:
            assert second_moment_limit(k1, k2) == \
                _second_moment_limit_term_by_term(k1, k2), (k1, k2)


def test_range_moment_limits():
    assert range_moment_limit(2) == pytest.approx(math.pi / 3, rel=1e-14)
    assert range_moment_limit(3) == pytest.approx(1.14788, abs=5e-6)
    z4 = math.pi ** 4 / 90
    assert range_moment_limit(4) == pytest.approx(
        12 * z4 * math.gamma(2.0) / math.pi ** 2, rel=1e-14)
    with pytest.raises(DomainError):
        range_moment_limit(1)


def test_range_moment_limit_against_mpmath_up_to_the_float64_limit():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for r in (2, 3, 50, 338, 339, 400, 432):
            want = (r * (r - 1) * mp.zeta(r) * mp.gamma(mp.mpf(r) / 2)
                    * mp.pi ** (-mp.mpf(r) / 2))
            assert range_moment_limit(r) == pytest.approx(float(want),
                                                          rel=2e-14), r
    assert math.isinf(range_moment_limit(433))


def test_richardson_polynomial_sequence():
    ns = [40, 80, 160, 320]
    vals = [3 + 2 / n + 5 / n ** 2 - 1 / n ** 3 for n in ns]
    est, tol = richardson(ns, vals)
    assert est == pytest.approx(3.0, abs=1e-10)
    assert tol < 1e-4


def test_fit_linear_recurrence_recovers_rates():
    a1, a2 = 0.4, -0.25
    y = [a1 ** l * (1 + 0.3 * l) + a2 ** l * (0.5 - 0.1 * l)
         for l in range(3, 25)]
    roots, resid = fit_linear_recurrence(y, 4)
    assert resid < 1e-10
    got = sorted(r.real for r in roots)
    assert got == pytest.approx([a2, a2, a1, a1], abs=1e-7)


def test_fit_linear_recurrence_needs_enough_data():
    with pytest.raises(IllConditioned):
        fit_linear_recurrence([1.0, 0.5, 0.25], 2)


def test_tail_rate_fit_doublepoints():
    model = tail_rate_fit(2, 2000)
    alpha = math.pi ** 2 / (24 + math.pi ** 2)
    assert abs(model.rates[0] - alpha) <= 1e-4
    t0, t1 = model.weights[0]
    ref = doublepoint_tail()
    assert t0 == pytest.approx(ref.weights[0][0], abs=5e-3)
    assert t1 == pytest.approx(ref.weights[0][1], abs=5e-3)
    # the fitted model reproduces the tail itself
    for l in (4, 6, 8):
        assert model.predict(l) == pytest.approx(ref.predict(l), rel=1e-3)


def test_tail_rate_fit_rejects_small_n():
    with pytest.raises(DomainError):
        tail_rate_fit(2, 100)


def test_block_limits_at_the_singular_point(float_engine_4000):
    # a float cache stores z -> z/2, so a block's coefficient sum is its
    # value at the singular point z = 1/2, truncated at order K; the sums
    # approach the limit like K^(-1/2), and 2 S(4000) - S(1000) removes that
    small = Engine(1000, backend="float")

    def limit(block, i, j):
        big = getattr(float_engine_4000, block)(i, j).nums
        return 2 * float(np.sum(big)) - float(np.sum(getattr(small, block)(i, j).nums))

    # j = 1 diverges (zeta(1)); at (2, 2) the constant term of C(f + 1, 1)
    # adds A log(1/A), which K^(-1/2) does not remove.  Q(k) reads j >= 2i.
    for i in (1, 2):
        for j in range(i + 1, 6):
            want = zeta(j) / 2 ** j
            assert abs(limit("chain_block", i, j) - want) <= 1e-4 * want, (i, j)
    want = math.pi ** 2 / 24
    assert abs(limit("pair_block", 1, 1) - want) <= 1e-6 * want


def test_tail_rates_limit_doublepoints():
    (rate,) = tail_rates_limit(2)
    assert abs(rate - math.pi ** 2 / (24 + math.pi ** 2)) <= 1e-12
    assert abs(rate - doublepoint_tail().rates[0]) <= 1e-12
    with pytest.raises(DomainError):
        tail_rates_limit(1)


def test_tail_rates_limit_match_the_fit(tail_fits_2000):
    # the fit runs the crossing-profile DP and shares no code with W(k)
    for k, model in tail_fits_2000.items():
        rates = tail_rates_limit(k)
        assert len(rates) == k - 1
        assert abs(rates[0] - model.rates[0]) <= 2e-3, k
        if k in (3, 4):
            assert abs(rates[1] - model.rates[1]) <= 5e-3, k


def test_tail_rates_limit_against_mpmath():
    # every k that `asymp --table 2 --kmax` accepts: the float eigenvalues
    # of W(k) against 60-digit ones of the same matrix
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for k in range(2, TAIL_RATES_KMAX + 1):
            W = mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row]
                           for row in limit_transfer_matrix(k)])
            mus = mp.eig(W)[0]  # a 1 x 1 W returns vectors whatever is asked
            assert all(abs(mp.im(m)) < mp.mpf(10) ** -40 for m in mus), k
            want = sorted(float(mp.re(m / (1 + m))) for m in mus)
            got = sorted(tail_rates_limit(k))
            assert len(got) == len(want) == k - 1
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * abs(w), (k, g, w)


def test_extrapolate_probability_singlepoints():
    ((est, tol),) = extrapolate_probability(1, 0, [250, 500, 1000, 2000])
    assert est == pytest.approx(0.25, abs=1e-5)
    assert tol < 1e-4


@pytest.mark.parametrize("k, ns, l_max, route", [
    (1, [40, 10, 25], 3, "float"), (2, [60, 15, 30], 12, "float"),
    (2, [7], 20, "float"), (3, [30, 8, 16], 10, "dp"), (4, [45, 12], 6, "dp"),
    (4, [1], 2, "dp")] + [(k, [0], 4, "float") for k in (1, 2, 3, 4, 9)])
def test_probability_table_routes(k, ns, l_max, route):
    # k <= 2 reads one float series engine, k >= 3 one DP pass; n = 0 has
    # no DP layer, so every k reads the series there
    got, table = probability_table(k, ns, l_max)
    assert got == route
    if route == "float":
        eng = Engine(2 * max(ns), backend="float")
        want = {n: eng.probabilities(n, k, l_max) for n in ns}
    else:
        want = local_time_probabilities(max(ns), k, l_max, lengths=ns)
    assert sorted(table) == sorted(want) == sorted(ns)
    for n in ns:
        assert np.asarray(table[n]).tobytes() == np.asarray(want[n]).tobytes()
