"""First moments in all dimensions and the return-series evaluator."""

import math
from fractions import Fraction
from math import comb

import pytest

from walkrange.errors import DomainError
from walkrange.genfun import Engine
from walkrange.moments import (asymptotic_first_moment,
                               asymptotic_range_moment, elliptic_k,
                               escape_constant, first_moment_exact,
                               green, i0e,
                               mean_point_count, mean_range,
                               range_moment_series)
from walkrange.pseries import EXACT, base_series
from walkrange.walks import oracle_counts, oracle_mixed_moment


def test_first_moment_series_examples():
    # z d/dz of the single term: [z^{2n}] is sum_w N_{2k}(w) at length 2n
    eng = Engine(4, backend=EXACT)
    assert eng.term_single(1).zddz().coeffs == [0, 0, 4, 0, 8]
    assert eng.term_single(2).zddz().coeffs == [0, 0, 0, 0, 8]


def test_range_moment_series_examples():
    c = base_series(4, backend=EXACT)
    s = range_moment_series(c)
    assert s.coeffs == [0, 0, 4, 0, 16]
    assert s.coeffs[0] == 0


def test_first_moment_closed_form_matches_series():
    eng = Engine(24, backend=EXACT)
    for k in (1, 2, 3, 4):
        s = eng.term_single(k).zddz()
        for n in range(1, 13):
            assert s.coeffs[2 * n] == first_moment_exact(n, k)


def test_first_moment_matches_distribution_sum():
    for n in range(1, 7):
        eng = Engine(2 * n, backend=EXACT)
        for k in (1, 2, 3):
            counts, _ = eng.distribution(n, k, 2 * n)
            assert sum(l * c for l, c in counts.items()) == \
                first_moment_exact(n, k)


def test_point_moment_sum_rule():
    # summing the point-count moments over k recovers the range moment
    eng = Engine(20, backend=EXACT)
    total = eng.cache.zero()
    for k in range(1, 11):
        total = total + eng.term_single(k).zddz()
    assert total == range_moment_series(eng.cache)


def test_mean_point_count_approaches_one():
    for k in (1, 2, 3):
        assert abs(float(mean_point_count(500, k)) - 1.0) <= 0.02


def test_mean_range_asymptotics():
    val = float(mean_range(1000)) / math.sqrt(math.pi * 1000)
    assert abs(val - 1.0) <= 0.01


def test_green_d1_matches_series():
    c = base_series(220, backend=EXACT)
    z = 0.1
    series_val = sum(float(c.h0.coeffs[m]) * z ** m for m in range(221))
    assert green(1, z).value == pytest.approx(series_val, abs=1e-12)
    assert green(1, z).value == pytest.approx(
        (1 - math.sqrt(1 - 4 * z * z)) / math.sqrt(1 - 4 * z * z), abs=1e-14)


def test_green_d2_matches_walk_counts():
    # h(0,2,z) + 1 = sum of closed 2-d walk counts C(2m,m)^2 z^{2m};
    # the first coefficients are enumeration-verified
    counts = [sum(oracle_counts(m, 2, ()).values()) for m in (1, 2)]
    assert counts == [4, 36]
    z = 0.05
    series_val = sum(comb(2 * m, m) ** 2 * z ** (2 * m) for m in range(1, 40))
    assert green(2, z).value == pytest.approx(series_val, rel=1e-12)


def test_green_d3_boundary_value():
    g = escape_constant(3)
    # bracket by exact partial sums of closed 3-d walk counts / 36^m
    def c3(m):
        tot = 0
        for i in range(m + 1):
            for j in range(m - i + 1):
                tot += (math.factorial(2 * m)
                        // (math.factorial(i) ** 2 * math.factorial(j) ** 2
                            * math.factorial(m - i - j) ** 2))
        return tot
    terms = [c3(m) / 36.0 ** m for m in range(1, 13)]
    partial = sum(terms)
    # tail estimate from the m^{-3/2} decay of the last term
    c_est = terms[-1] * 12 ** 1.5
    tail_est = c_est * sum(m ** -1.5 for m in range(13, 4000))
    assert partial < g < partial + 2 * tail_est
    assert abs(g - (partial + tail_est)) < 0.2 * tail_est
    assert g == pytest.approx(0.5164, abs=1e-4)


def test_green_d3_boundary_against_return_probability():
    # 1/(1 + G(3)) is the classical no-return probability of the cubic
    # lattice walk; the return probability is 0.3405373295...
    g = escape_constant(3)
    assert 1 - 1 / (1 + g) == pytest.approx(0.340537329550999, abs=1e-11)


def test_green_quadrature_against_scipy():
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")
    import numpy as _np

    def reference(d, z):
        eps = 1 - 2 * d * z
        f = lambda y: _np.exp(-eps * y) * special.i0e(2 * z * y) ** d
        v1, _ = integrate.quad(f, 0, 200, limit=200)
        v2, _ = integrate.quad(f, 200, _np.inf, limit=200)
        return v1 + v2 - 1

    for d, z in ((3, 0.1), (4, 0.06), (3, 1 / 6 - 1e-3), (3, 1 / 6), (5, 0.1)):
        assert green(d, z).value == pytest.approx(reference(d, z), abs=2e-8)


def test_green_monotone_in_z():
    vals = [green(3, z).value for z in (0.0, 0.05, 0.1, 0.15, 1 / 6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0


def test_green_domain_errors_and_recurrent_boundary():
    with pytest.raises(DomainError):
        green(1, 0.6)
    with pytest.raises(DomainError):
        green(2, -0.1)
    assert green(1, 0.5).value == math.inf
    assert green(2, 0.25).value == math.inf


def test_i0e_against_scipy():
    special = pytest.importorskip("scipy.special")
    for x in (0.0, 0.5, 3.0, 14.9, 15.1, 40.0, 300.0, 3000.0):
        assert i0e(x) == pytest.approx(float(special.i0e(x)), rel=2e-13), x


def test_i0e_seam_consistency():
    special = pytest.importorskip("scipy.special")
    # both branches hold full accuracy right at the switchover
    for x in (14.999999, 15.000001):
        assert i0e(x) == pytest.approx(float(special.i0e(x)), rel=1e-13)


def test_elliptic_k_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for m in (0.0, 0.1, 0.5, 0.9, 0.99):
        assert elliptic_k(m) == pytest.approx(float(mp.ellipk(m)), rel=1e-13)


def test_asymptotic_first_moment_forms():
    assert asymptotic_first_moment(100, 3, 1) == 1.0
    n = 50
    assert asymptotic_first_moment(n, 1, 2) == pytest.approx(
        2 * n * math.pi ** 2 / math.log(n) ** 2)
    g = escape_constant(3)
    assert asymptotic_first_moment(n, 1, 3) == pytest.approx(
        2 * n / (1 + g) ** 2)
    assert asymptotic_first_moment(n, 2, 3) == pytest.approx(
        2 * n * g / (1 + g) ** 3)


def test_asymptotic_range_moment_forms():
    assert asymptotic_range_moment(400, 1) == pytest.approx(
        math.sqrt(math.pi * 400))
    g = escape_constant(3)
    assert asymptotic_range_moment(10, 3) == pytest.approx(20 / (1 + g))
