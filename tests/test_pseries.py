"""Series ring operations and the base-series cache."""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from walkrange.errors import BackendMismatch, DivByNonUnit, IllConditioned
from walkrange.pseries import (EXACT, FLOAT, BaseSeriesCache, TruncatedSeries,
                               _FFT_THRESHOLD, _convolve, _slot_bytes,
                               choose_backend)


def frac_series(coeffs, K=None):
    return TruncatedSeries(coeffs, EXACT, K)


def b_power(c, j):
    """B^j, j >= 1, at the order, backend and scale of the cache c, from the
    ballot closed form [z^m] B^j = (j/m) C(m, (m-j)/2)."""
    coeffs = [Fraction(j * comb(m, (m - j) // 2), m) * Fraction(c.scale) ** m
              if m >= j and (m - j) % 2 == 0 else 0 for m in range(c.K + 1)]
    if c.backend == FLOAT:
        coeffs = [float(x) for x in coeffs]
    return TruncatedSeries(coeffs, c.backend, c.K)


def test_project_truncates_and_keeps_low_orders():
    s = frac_series([1, 1, 1])
    assert s.project(1).coeffs == [1, 1]
    assert s.project(5) is s  # projecting above the stored order is identity


def test_project_identity_when_degree_below_order():
    s = frac_series([2, 0, 3], K=7)
    assert s.project(7) is s


def test_project_of_sqrt_kernel_series():
    # binomial series of sqrt(1-4z^2) cross-checked by squaring
    c = BaseSeriesCache(10)
    low = c.A.project(4)
    assert low.coeffs == [1, 0, -2, 0, -2]
    sq = c.A * c.A
    assert sq.coeffs[:3] == [1, 0, -4] and all(x == 0 for x in sq.coeffs[3:])


def test_add_sub_and_zddz():
    s = frac_series([1, 0, 2, 0, 6], K=4)
    assert (s + s).coeffs == [2, 0, 4, 0, 12]
    assert (s - s).is_zero()
    assert s.zddz().coeffs == [0, 0, 4, 0, 24]


def test_zddz_term_by_term():
    s = frac_series([1, 0, 2, 0, 6])
    assert s.zddz().coeffs == [0, 0, 4, 0, 24]


def test_mul_defining_identity_of_A_order8():
    c = BaseSeriesCache(8)
    assert (c.A * c.A).coeffs == [1, 0, -4, 0, 0, 0, 0, 0, 0]


def test_division_requires_unit():
    z = TruncatedSeries.monomial(1, 1, 4, EXACT)
    one = TruncatedSeries.one(4, EXACT)
    with pytest.raises(DivByNonUnit):
        one / z
    with pytest.raises(DivByNonUnit):
        z.log()


def test_backend_mismatch_raises():
    a = TruncatedSeries.one(4, EXACT)
    b = TruncatedSeries.one(4, FLOAT)
    with pytest.raises(BackendMismatch):
        a + b


def test_log_of_unit_gives_plain_term():
    # log(2/(1+A)) starts z^2 + (3/2) z^4; its z d/dz counts closed walks
    c = BaseSeriesCache(4)
    half = (c.one + c.A).scaled(Fraction(1, 2))
    t0 = -half.log()
    assert t0.coeffs == [0, 0, 1, 0, Fraction(3, 2)]
    assert t0.zddz().coeffs == [0, 0, 2, 0, 6]


def test_division_inverse_roundtrip():
    c = BaseSeriesCache(12)
    inv = c.one / c.A
    assert inv == c.inv_A
    assert (inv * c.A).coeffs[0] == 1
    assert all(x == 0 for x in (inv * c.A).coeffs[1:])


def test_result_projected_to_min_order():
    a = frac_series([1] * 9, K=8)
    b = frac_series([1] * 5, K=4)
    assert (a * b).K == 4
    assert (a + b).K == 4


def test_base_series_catalan_numbers():
    c = BaseSeriesCache(7)
    assert b_power(c, 1).coeffs == [0, 1, 0, 1, 0, 2, 0, 5]


def test_base_series_functional_equation():
    # B = z + z B^2
    c = BaseSeriesCache(20)
    z = c.monomial(1, 1)
    b = b_power(c, 1)
    assert b == z + z * (b * b)


def test_base_series_identities():
    c = BaseSeriesCache(30)
    one = c.one
    z = c.monomial(1, 1)
    assert (b_power(c, 1) * (one + c.A)) == z.scaled(2)
    assert (c.h0 * c.A) == (one - c.A)


def test_h0_counts_closed_walks():
    c = BaseSeriesCache(6)
    assert c.h0.coeffs == [0, 0, 2, 0, 6, 0, 20]


def test_geometric_tail_b2_over_1_minus_b2():
    c = BaseSeriesCache(4)
    assert c.lambert_sum(lambda f: int(f == 1)).coeffs == [0, 0, 1, 0, 3]


def test_divisor_sum_identity():
    # sum_f f^k tail_f == sum_F sigma_k(F) B^{2F} below the cut
    c = BaseSeriesCache(40)
    for k in (1, 2, 3):
        lam = c.lambert_sum(lambda f, k=k: f ** k)
        direct = c.zero()
        for F in range(1, 21):
            sigma = sum(d ** k for d in range(1, F + 1) if F % d == 0)
            direct = direct + c.b_even_power(F).scaled(sigma)
        assert lam == direct


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("w", [Fraction(1, 2), Fraction(3, 1), 1.0],
                         ids=["fraction", "integral-fraction", "float"])
def test_lambert_sum_takes_integer_weights_only(backend, w):
    c = BaseSeriesCache(40, backend)
    with pytest.raises(TypeError):
        c.lambert_sum(lambda f: w)


def point_visits_series(c, p):
    """Counting series h(p,1,z) for walks from 0 to p, empty walk removed.

    Equals B^{|p|} / A - [p == 0].
    """
    if p == 0:
        return c.h0
    return c.inv_A * b_power(c, abs(p))


def test_point_visit_series():
    c = BaseSeriesCache(6)
    assert point_visits_series(c, 0) == c.h0
    assert point_visits_series(c, 1).coeffs == [0, 1, 0, 3, 0, 10, 0]
    assert point_visits_series(c, 3).coeffs[:4] == [0, 0, 0, 1]
    assert point_visits_series(c, -1) == point_visits_series(c, 1)


def test_parity_invariant():
    c = BaseSeriesCache(21)
    for name in ("A", "h0", "inv_A", "one_minus_A"):
        s = getattr(c, name)
        assert all(s.coeffs[m] == 0 for m in range(1, 22, 2)), name
    assert all(b_power(c, 1).coeffs[m] == 0 for m in range(0, 22, 2))


def test_float_matches_exact_to_1e10_up_to_order_200():
    # the float cache stores 2^{-m} times the exact coefficients
    ce = BaseSeriesCache(200, backend=EXACT)
    cf = BaseSeriesCache(200, backend=FLOAT)
    for name in ("A", "h0"):
        ve = np.array([float(x / 2 ** m) for m, x in
                       enumerate(getattr(ce, name).coeffs)])
        vf = np.array(getattr(cf, name).coeffs)
        mask = ve != 0
        rel = np.max(np.abs(ve[mask] - vf[mask]) / np.abs(ve[mask]))
        assert rel < 1e-10, (name, rel)
        assert np.all(vf[~mask] == 0)


def test_scaled_cache_counts_match_unscaled():
    # the backend fixes the scale s; probability undoes it, as does s^{-2n}
    plain = BaseSeriesCache(20, backend=EXACT)
    scaled = BaseSeriesCache(20, backend=FLOAT)
    assert (plain.scale, scaled.scale) == (1, 0.5)
    for n in range(1, 11):
        assert scaled.h0[2 * n] / scaled.scale ** (2 * n) == pytest.approx(
            float(plain.h0[2 * n]), rel=1e-14)
    assert plain.probability(plain.h0, 5) == 1
    assert scaled.probability(scaled.h0, 5) == pytest.approx(1, rel=1e-14)


def test_choose_backend_threshold():
    assert choose_backend(512) == EXACT
    assert choose_backend(513) == FLOAT
    assert choose_backend(4000, EXACT) == EXACT


def test_pow_matches_repeated_multiplication():
    c = BaseSeriesCache(16)
    p = c.one
    for m in range(1, 6):
        p = p * c.h0
        assert c.h0.pow(m) == p


def test_ballot_powers_match_direct_products():
    c = BaseSeriesCache(14)
    b = b_power(c, 1)
    b2 = b * b
    acc = b2
    for F in range(1, 6):
        assert c.b_even_power(F) == acc
        acc = acc * b2


@pytest.mark.parametrize("K", [0, 1, 2, 15, 200])
def test_exact_ballot_rows_are_the_closed_form(K):
    # the recurrence gives every row the list of F C(2n, n-F) / n, n >= F
    c = BaseSeriesCache(K, EXACT)
    for F in range(1, K // 2 + 1):
        assert c._even_row(F) == [F * comb(2 * n, n - F) // n if n >= F else 0
                                  for n in range(K // 2 + 1)], F


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_b_even_power_zero_is_one(backend):
    # B^0 = 1 on both backends: not the zero series, and no division by n = 0
    c = BaseSeriesCache(12, backend)
    assert c.b_even_power(0) == c.one


def test_ring_laws_on_random_series():
    import random
    rng = random.Random(20240)
    for _ in range(25):
        K = rng.randrange(3, 12)
        def rand_series(unit=False):
            coeffs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                      for _ in range(K + 1)]
            if unit:
                coeffs[0] = Fraction(rng.choice([1, 2, -1, 3]))
            return frac_series(coeffs, K)
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b).zddz() == a.zddz() + b.zddz()
        u = rand_series(unit=True)
        assert (a / u) * u == a
        assert u.inverse() * u == TruncatedSeries.one(K, EXACT)


# -- integer-vector representation and the Kronecker product -----------------

def schoolbook(a, b, K):
    """Reference truncated product of two Fraction lists."""
    out = [Fraction(0)] * (K + 1)
    for i, x in enumerate(a[: K + 1]):
        for j, y in enumerate(b[: K + 1 - i]):
            out[i + j] += x * y
    return out


def assert_canonical(s):
    assert s.backend == EXACT and len(s.nums) == s.K + 1
    assert all(type(c) is int for c in s.nums) and type(s.den) is int
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1


def rand_rationals(rng, n, bits=40, dens=(1, 2, 3, 5, 7, 12)):
    return [Fraction(rng.randrange(-(1 << bits), 1 << bits), rng.choice(dens))
            for _ in range(n)]


def check_product(ca, cb, Ka, Kb):
    a, b = frac_series(ca, Ka), frac_series(cb, Kb)
    p = a * b
    K = min(Ka, Kb)
    assert p.K == K
    assert p.coeffs == schoolbook(a.coeffs, b.coeffs, K)
    assert_canonical(p)
    return p


@pytest.mark.parametrize("K", [0, 1, 2, 17, 200])
def test_kronecker_product_matches_schoolbook(K):
    import random
    rng = random.Random(K)
    for _ in range(3):
        check_product(rand_rationals(rng, K + 1), rand_rationals(rng, K + 1), K, K)
    # series in z^2 only take the y = z^2 route; mixed parity does not
    even = [c if m % 2 == 0 else 0 for m, c in enumerate(rand_rationals(rng, K + 1))]
    even2 = [c if m % 2 == 0 else 0 for m, c in enumerate(rand_rationals(rng, K + 1))]
    p = check_product(even, even2, K, K)
    assert all(c == 0 for c in p.coeffs[1::2])
    check_product(even, rand_rationals(rng, K + 1), K, K)


@pytest.mark.parametrize("Ka,Kb", [(0, 5), (5, 0), (2, 17), (17, 2), (200, 31)])
def test_kronecker_product_of_different_orders(Ka, Kb):
    import random
    rng = random.Random(Ka * 1000 + Kb)
    check_product(rand_rationals(rng, Ka + 1), rand_rationals(rng, Kb + 1), Ka, Kb)


@pytest.mark.parametrize("K", [0, 1, 17, 200])
def test_kronecker_product_with_zero_operands(K):
    import random
    a = frac_series(rand_rationals(random.Random(K), K + 1), K)
    z = TruncatedSeries.zero(K, EXACT)
    for p in (a * z, z * a, z * z):
        assert p.is_zero() and p.nums == [0] * (K + 1) and p.den == 1
        assert_canonical(p)


def test_kronecker_product_coprime_denominators():
    import random
    rng = random.Random(7)
    ca = [Fraction(rng.randrange(-99, 100), 3 ** rng.randrange(0, 6)) for _ in range(40)]
    cb = [Fraction(rng.randrange(-99, 100), 7 ** rng.randrange(0, 5)) for _ in range(40)]
    ca[0], cb[0] = Fraction(1, 3 ** 5), Fraction(1, 7 ** 4)
    a, b = frac_series(ca), frac_series(cb)
    assert (a.den, b.den) == (3 ** 5, 7 ** 4)
    p = check_product(ca, cb, 39, 39)
    assert p.den % 7 ** 4 == 0 and math.gcd(p.den, 3) == 3


@pytest.mark.parametrize("K", [1, 17, 200])
def test_kronecker_product_of_1000_bit_coefficients(K):
    import random
    rng = random.Random(1000 + K)
    big = lambda: [Fraction(rng.choice((-1, 1)) * rng.getrandbits(1100),
                            rng.choice((1, 3, 1 << 1001))) for _ in range(K + 1)]
    ca, cb = big(), big()
    assert max(abs(c.numerator).bit_length() for c in ca) > 1000
    check_product(ca, cb, K, K)


@pytest.mark.parametrize("K", [0, 1, 2, 17, 200])
def test_kronecker_product_negative_top_slot_and_above(K):
    # positive low slots, a negative one at order K and large negative ones
    # above it: the untruncated product is negative, which unpacking masks
    M = (1 << 300) - 1
    ca, cb = [1] * (K + 1), [1] * K + [-M]
    p = check_product(ca, cb, K, K)
    assert p[K] < 0 and all(c > 0 for c in p.coeffs[:K])
    if K:
        full = schoolbook([Fraction(c) for c in ca + [0] * K],
                          [Fraction(c) for c in cb + [0] * K], 2 * K)
        assert all(c < 0 for c in full[K + 1:])


def shifted_rationals(rng, v, K, even=False):
    """Random rationals on orders v..K with v leading zeros; with `even`,
    the odd orders are zero too (the z^2 route of the product)."""
    cs = [Fraction(0)] * v + rand_rationals(rng, K + 1 - v)
    return [0 if even and m % 2 else c for m, c in enumerate(cs)]


@pytest.mark.parametrize("K", [1, 2, 17, 40])
def test_kronecker_window_past_leading_zeros(K):
    # only a[va .. K-vb] and b[vb .. K-va] are packed, and the product is
    # written from slot va + vb on; it is zero once va + vb > K
    import random
    rng = random.Random(500 + K)
    h = K // 2
    pairs = [(0, 0), (1, 0), (0, 1), (3, 2), (2, 4), (5, 7), (h, K - h),
             (K, 0), (0, K), (h + 1, K - h), (K, 1), (K, K)]
    for va, vb in pairs:
        for even in (False, True):
            if even and (va % 2 or vb % 2):
                continue
            ca = shifted_rationals(rng, min(va, K + 1), K, even)
            cb = shifted_rationals(rng, min(vb, K + 1), K, even)
            p = check_product(ca, cb, K, K)
            if va + vb > K:
                assert p.is_zero() and p.den == 1, (va, vb)
            else:
                assert p[va + vb] != 0 and not any(p.nums[: va + vb]), (va, vb)


@pytest.mark.parametrize("Ka,va,Kb,vb", [(17, 5, 40, 12), (40, 10, 17, 3),
                                         (40, 9, 17, 9), (17, 6, 40, 11)])
def test_kronecker_window_of_different_orders(Ka, va, Kb, vb):
    # the window is cut at the smaller order; (40, 9, 17, 9) lands past it
    import random
    rng = random.Random(Ka * va + Kb * vb)
    for even in (False, True):
        check_product(shifted_rationals(rng, va, Ka, even),
                      shifted_rationals(rng, vb, Kb, even), Ka, Kb)


@pytest.mark.parametrize("K", [1, 2, 17, 40])
def test_kronecker_window_of_a_lone_top_coefficient(K):
    # a is zero except at order K: only b's constant term reaches order K
    import random
    rng = random.Random(900 + K)
    top = [0] * K + [Fraction(-7, 3)]
    for even in (False, True):
        b = shifted_rationals(rng, 0, K, even)
        p = check_product(top, b, K, K)
        assert p.coeffs == [0] * K + [Fraction(-7, 3) * b[0]]
        p = check_product(b, top, K, K)
        assert p.coeffs == [0] * K + [Fraction(-7, 3) * b[0]]
        assert check_product(top, [0] + b[1:], K, K).is_zero()
        assert check_product(top, top, K, K).is_zero()


def _signed(rng, bits, same_sign=False):
    """A random integer of exactly `bits` bits (at least 1), random sign
    unless `same_sign`; with same_sign it is the largest, 2^bits - 1."""
    bits = max(bits, 1)
    if same_sign:
        return (1 << bits) - 1
    return rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1))


# operand windows of n slots whose first entry is nonzero, by bit profile
_PROFILES = {
    "decreasing": lambda rng, n: [_signed(rng, 400 - 7 * i) for i in range(n)],
    "spike": lambda rng, n: [_signed(rng, 1000 if i == n // 2 else 20)
                             for i in range(n)],
    "growth40": lambda rng, n: [_signed(rng, 8 + 40 * i) for i in range(n)],
    "alternating": lambda rng, n: [_signed(rng, 500 if i % 2 else 3)
                                   for i in range(n)],
    "walk": lambda rng, n: [_signed(rng, 10 + 2 * i) for i in range(n)],
    "walk-extreme": lambda rng, n: [_signed(rng, 10 + 2 * i, True)
                                    for i in range(n)],
}


def _least_exponent(a, b, slopes):
    """The least over g in slopes of max_i (bits(a_i) - g i) + max_j
    (bits(b_j) - g j) + g (n - 1), by plain loops."""
    n = len(a)
    return min(max(v.bit_length() - g * i for i, v in enumerate(a))
               + max(v.bit_length() - g * i for i, v in enumerate(b))
               + g * (n - 1) for g in slopes)


def _int_schoolbook(a, b):
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", [1, 5, 15, 16, 40, 100, 256])
@pytest.mark.parametrize("pa", sorted(_PROFILES))
def test_slot_width_holds_every_product_coefficient(pa, n):
    # w = 8 nb is never wider than the largest-coefficient width the slots
    # were once sized by, and every coefficient below slot n fits a signed
    # slot; "walk-extreme" (every entry 2^bits - 1) makes the bound tight
    import random
    rng = random.Random(f"{pa}/{n}")
    for pb in sorted(_PROFILES):
        a, b = _PROFILES[pa](rng, n), _PROFILES[pb](rng, n)
        nb = _slot_bytes(a, b)
        once = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                + n.bit_length() + 2 + 7) // 8
        assert nb <= once, (pa, pb)
        if n >= 16:  # the lesser of the slope-0 and slope-2 bounds
            x = _least_exponent(a, b, (0, 2))
            assert nb == (x + n.bit_length() + 8) // 8, (pa, pb)
        half = 1 << (8 * nb - 1)
        assert all(abs(c) < half for c in _int_schoolbook(a, b)), (pa, pb)


def test_slot_width_follows_walk_growth():
    # at 2 bits per slot the slope g = 2 halves the width of the g = 0 bound
    import random
    rng = random.Random(3)
    a, b = _PROFILES["walk"](rng, 60), _PROFILES["walk"](rng, 60)
    once = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + 60 .bit_length() + 2 + 7) // 8
    assert _slot_bytes(a, b) <= 0.6 * once


def _recorded_windows(monkeypatch):
    """Record (a, b, nb) of every Kronecker product; returns the list."""
    from walkrange import pseries
    windows = []
    slot_bytes = pseries._slot_bytes

    def recording(a, b):
        nb = slot_bytes(a, b)
        windows.append((a, b, nb))
        return nb

    monkeypatch.setattr(pseries, "_slot_bytes", recording)
    return windows


def _least_bytes(a, b):
    """The slot bytes of the least bound over the slopes 0..4."""
    return (_least_exponent(a, b, range(5)) + len(a).bit_length() + 8) // 8


def test_walk_series_need_no_slope_but_0_and_2(monkeypatch):
    # on the exact series of the forward walk (a moment query and a
    # multi-marker count query), every window of 16 slots or more gets the
    # width the least bound over the slopes 0..4 gives: the slopes
    # _slot_bytes leaves out would narrow no slot
    from walkrange.genfun import Engine, joint_counts
    windows = _recorded_windows(monkeypatch)
    Engine(200).mixed_moment({3: 4}, 100)
    joint_counts(Engine(80), 40, (2, 3))
    wide = [(a, b, nb) for a, b, nb in windows if len(a) >= 16]
    assert len(wide) > 1000
    for a, b, nb in wide:
        assert nb == _least_bytes(a, b), len(a)


def test_giant_walk_series_need_no_slope_but_0_and_2(monkeypatch):
    # the baby-step/giant-step walk multiplies powers of W(k) too, whose
    # windows start at low valuations; over the wide windows of two count
    # queries, at the cost model's strides (4 and 8, 220 wide windows) and
    # at the strides isqrt(D) (8 and 12, 216), slopes 0 and 2 give widths
    # within 0.01% of the least over slopes 0..4 in packed bytes.  Measured:
    # 0 of 1,596,788 bytes at the model's strides, and 115 of 1,790,969 at
    # isqrt(D), where 5 windows are one byte wider than slope 3 would make
    from math import isqrt
    from walkrange import genfun
    from walkrange.genfun import Engine
    windows = _recorded_windows(monkeypatch)
    walk_stride = genfun._walk_stride
    for stride in (walk_stride, lambda *args: isqrt(args[-1])):
        monkeypatch.setattr(genfun, "_walk_stride", stride)
        windows.clear()
        Engine(200).distribution(100, 3, 66)
        Engine(512).distribution(256, 3, 10)
        wide = [(a, b, nb) for a, b, nb in windows if len(a) >= 16]
        assert len(wide) > 200
        packed = sum(len(a) * nb for a, b, nb in wide)
        least = sum(len(a) * _least_bytes(a, b) for a, b, _ in wide)
        assert least <= packed <= least + least // 10_000


@pytest.mark.parametrize("K", [20, 41, 70])
def test_kronecker_product_of_profiles_matches_schoolbook(K):
    # each profile as the window of a series past its valuation, on the
    # z^2 route (even orders only) and on the mixed-parity route
    import random
    rng = random.Random(K)
    names = sorted(_PROFILES)
    for pa in names:
        for pb in names:
            for even in (False, True):
                s = 2 if even else 1
                va, vb = rng.randrange(3), rng.randrange(3)
                ca, cb = [0] * (K + 1), [0] * (K + 1)
                ca[s * va:: s] = _PROFILES[pa](rng, len(ca[s * va:: s]))
                cb[s * vb:: s] = _PROFILES[pb](rng, len(cb[s * vb:: s]))
                check_product(ca, cb, K, K)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_mul_coefficient_is_the_product_coefficient(backend):
    import random
    rng = random.Random(11)
    K = 30
    ca, cb = rand_rationals(rng, K + 1, bits=8), rand_rationals(rng, K + 1, bits=8)
    if backend == FLOAT:
        ca, cb = [float(c) for c in ca], [float(c) for c in cb]
    a = TruncatedSeries(ca, backend, K)
    b = TruncatedSeries(cb, backend, 20)
    p = a * b
    for m in range(21):
        got = a.mul_coefficient(b, m)
        assert got == p[m] if backend == EXACT else got == pytest.approx(p[m])
    assert a.mul_coefficient(b, 21) == 0 and a.mul_coefficient(b, -1) == 0


def test_canonical_after_every_exact_op():
    import random
    rng = random.Random(99)
    K = 17
    a = frac_series(rand_rationals(rng, K + 1, dens=(2, 4, 6, 9)), K)
    u = frac_series([1] + rand_rationals(rng, K), K)
    results = [a, u, a + u, a - a, u - a, a.scaled(Fraction(-6, 35)),
               a.scaled(0), -a, a * u, a / u, u.inverse(), u.log(), a.zddz(),
               a.pow(3), a.project(5), TruncatedSeries.monomial(Fraction(4, 6), 3, K, EXACT)]
    c = BaseSeriesCache(40)
    results += [c.A, c.inv_A, c.h0, c.one_minus_A, c.lambert_sum(lambda f: int(f == 3)),
                c.b_even_power(4),
                c.lambert_sum(lambda f: comb(f - 1, 1) * comb(f, 2)), point_visits_series(c, 3)]
    for s in results:
        assert_canonical(s)
    assert (a - a).den == 1 and (a - a).is_zero()
    assert a.scaled(Fraction(-6, 35)).coeffs == [Fraction(-6, 35) * x for x in a.coeffs]
    assert (a / u).coeffs == (a * u.inverse()).coeffs


def test_exact_division_and_log_match_recurrences():
    # the Newton division and the log against the textbook O(K^2) recurrences
    import random
    rng = random.Random(5)
    K = 23
    ca = rand_rationals(rng, K + 1)
    cu = [Fraction(3, 2)] + rand_rationals(rng, K)
    q = [Fraction(0)] * (K + 1)
    for n in range(K + 1):
        q[n] = (ca[n] - sum(q[i] * cu[n - i] for i in range(n))) / cu[0]
    assert (frac_series(ca) / frac_series(cu)).coeffs == q
    cl = [Fraction(1)] + rand_rationals(rng, K)
    lg = [Fraction(0)] * (K + 1)
    for n in range(1, K + 1):
        lg[n] = cl[n] - sum(Fraction(i, n) * lg[i] * cl[n - i] for i in range(1, n))
    assert frac_series(cl).log().coeffs == lg


def _ballot_row_over_4n(K, F):
    """[z^{2n}] B^{2F} / 4^n = F C(2n, n - F) / (n 4^n), n <= K/2, each the
    correctly rounded quotient of exact integers."""
    out = np.zeros(K // 2 + 1)
    b = 1  # F C(2n, n - F) / n at n = F
    for n in range(F, K // 2 + 1):
        out[n] = b / 4 ** n
        b = b * 2 * n * (2 * n + 1) // ((n + 1 - F) * (n + 1 + F))
    return out


def _divisor_sums(weight, top):
    """[sum_{f | F} weight(f) for F = 0..top], 0 at F = 0."""
    acc = [0] * (top + 1)
    for f in range(1, top + 1):
        for F in range(f, top + 1, f):
            acc[F] += weight(f)
    return acc


def _lambert_column_over_4n(K, weight, n):
    """[z^{2n}] sum_f weight(f) B^{2f}/(1 - B^{2f}) / 4^n, correctly rounded:
    sum_F (sum_{f | F} weight(f)) F C(2n, n - F) / (n 4^n) on exact integers."""
    sums = _divisor_sums(weight, n)
    acc, b = 0, comb(2 * n, n)
    for F in range(1, n + 1):
        b = b * (n - F + 1) // (n + F)
        acc += sums[F] * F * b
    return acc / (n * 4 ** n)


@pytest.mark.parametrize("K,scale", [
    (2, Fraction(1, 2)), (10, Fraction(1, 2)), (101, Fraction(1, 2)),
    (1922, Fraction(1, 2)), (4000, Fraction(1, 2)), (7828, Fraction(1, 2))])
def test_float_even_rows_equal_per_row_table(K, scale):
    # rows of the ballot sweep against the exact ballot rows over 4^n':
    # exact zeros below n' = F, 1e-14 relative wherever the row is above
    # 1e-290, and nothing larger than that elsewhere (the sweep drops it)
    c = BaseSeriesCache(K, FLOAT)
    assert c.scale == scale
    half = K // 2
    for F in sorted({1, 2, 3, half, *range(1, half + 1, max(1, half // 8))}):
        got = c.b_even_power(F).nums[::2]
        want = _ballot_row_over_4n(K, F)
        assert not got[:F].any(), F
        assert np.all(np.abs(got - want) <= 1e-14 * want + 1e-290), F


@pytest.mark.parametrize("K", [2, 10, 101, 1200, 1922, 4000, 7828])
def test_float_lambert_sums_match_exact(K):
    # the pair-block weights of k <= 2 in one sweep, against exact sums at
    # columns spread over n' <= K/2 (a table of every float row, before the
    # sweep, reached 6.8e-14, 2.3e-13 and 4.3e-13 at K = 1200, 4000, 7828)
    c = BaseSeriesCache(K, FLOAT)
    half = K // 2
    weights = [lambda f: f, lambda f: comb(f, 2), lambda f: (f - 1) * comb(f, 2)]
    sums = c.lambert_sums(weights)
    for n in sorted({*range(1, half + 1, max(1, half // 24)), half}):
        for weight, s in zip(weights, sums):
            want = _lambert_column_over_4n(K, weight, n)
            assert abs(s[2 * n] - want) <= 1e-14 * want + 1e-290, n


def test_float_tails_read_past_stored_rows():
    # the sweep stops after the last row that reaches 1e-300, and past
    # 2F > K/2 the geometric tail of f = F is its first row alone
    c = BaseSeriesCache(4000, FLOAT)
    _seeds, top = c._ensure_even_rows()
    assert 2 * top > 4000 // 2
    assert c.b_even_power(top + 1).is_zero()
    assert not c.b_even_power(top).is_zero()
    for F in (top, top + 1):
        assert c.lambert_sums([lambda f: int(f == F)])[0] == c.b_even_power(F)


def _float_div_loop(a, b):
    """Reference float division: the O(K^2) recurrence, one order at a time."""
    K = len(a) - 1
    out = np.zeros(K + 1)
    for n in range(K + 1):
        acc = a[n]
        if n:
            acc -= np.dot(out[:n], b[n:0:-1])
        out[n] = acc / b[0]
    return out


def _float_log_loop(a):
    """Reference float log: the O(K^2) recurrence for log a."""
    K = len(a) - 1
    out = np.zeros(K + 1)
    out[0] = math.log(a[0])
    w = np.arange(K + 1, dtype=np.float64)
    for n in range(1, K + 1):
        acc = a[n]
        if n > 1:
            acc -= np.dot(w[1:n] * out[1:n], a[n - 1:0:-1]) / n
        out[n] = acc / a[0]
    return out


@pytest.mark.parametrize("K", [5, 100, 600])
def test_float_division_and_log_match_recurrences(K):
    # float / and log run the exact backend's Newton iteration and z a'/a
    # integral; K = 600 multiplies by FFT.  Both divisors are free of zeros
    # in the closed unit disk, like every float walk series at scale 1/2, so
    # the quotients stay bounded; FFT products are accurate relative to the
    # largest coefficient, not entry by entry.
    c = BaseSeriesCache(K, FLOAT)
    rng = np.random.default_rng(K)
    decay = 0.9 ** np.arange(K + 1)
    r = TruncatedSeries(rng.uniform(-1, 1, K + 1) * decay, FLOAT)
    u = c.one + c.A                       # constant term 2
    v = c.one + r.scaled(0.05)            # |v - 1| <= 1/2 on |z| <= 1

    def close(got, want):
        assert got.K == K
        err = np.max(np.abs(got.coeffs - want))
        assert err <= 1e-12 * np.max(np.abs(want)), err

    for a, b in ((c.h0, u), (r, v), (b_power(c, 1), v), (r, u)):
        close(a / b, _float_div_loop(a.coeffs, b.coeffs))
    for b in (u, v):
        close(b.inverse(), _float_div_loop(c.one.coeffs, b.coeffs))
        close(b.log(), _float_log_loop(b.coeffs))


def test_float_division_raises_when_the_quotient_grows():
    # v = 1 + r/2 has zeros inside the unit disk: at K = 600 its inverse
    # grows to ~1e47 and FFT products cannot resolve it, so float division
    # (and inverse and log through it) raises instead of answering
    K = 600
    c = BaseSeriesCache(K, FLOAT)
    rng = np.random.default_rng(K)
    r = TruncatedSeries(rng.uniform(-1, 1, K + 1) * 0.9 ** np.arange(K + 1),
                        FLOAT)
    v = c.one + r.scaled(0.5)
    for op in (v.inverse, v.log, lambda: r / v):
        with pytest.raises(IllConditioned, match="division residual"):
            op()


def _full_ballot_sweep(cache, wts):
    """The ballot sweep without its stop: every row to top, as
    `BaseSeriesCache._ballot_sweep` ran before it stopped early."""
    seeds, top = cache._ensure_even_rows()
    half = cache.K // 2
    c = seeds.copy()
    col = np.arange(half + 1, dtype=np.float64)
    out = np.zeros((len(wts), half + 1))
    lo, end = 1, min(top + 1, wts.shape[1])
    for F0 in range(1, end, 64):
        F = np.arange(F0, min(F0 + 64, end), dtype=np.float64)
        block = (col[lo:] - F[:, None] + 1) / (col[lo:] + F[:, None])
        block[0] *= c[lo:]
        np.cumprod(block, axis=0, out=block)
        out[:, lo:] += (wts[:, F0: F0 + len(F)] * F) @ block
        c[lo:] = block[-1]
        lo += int(np.argmax(c[lo:] >= 1e-300))
    out[:, 1:] /= col[1:]
    return out


_PAIR_WEIGHTS = [lambda f, i=i, j=j: comb(f - 1, i - 1) * comb(f, j)
                 for i, j in [(1, 1), (1, 2), (2, 2)]]


@pytest.mark.parametrize("K", [2, 101, 1922, 7828, 16000])
def test_ballot_sweep_stop_keeps_every_bit(K):
    # the sweep stops once no later row can move a bit: every weight matrix
    # gives the rows the full sweep gives, to the last bit (zero signs too)
    c = BaseSeriesCache(K, FLOAT)
    top = c._ensure_even_rows()[1]
    pair = np.array([_divisor_sums(w, top) for w in _PAIR_WEIGHTS],
                    dtype=np.float64)
    cases = [pair]
    for F in (1, top, top + 1):
        one_hot = np.zeros((1, F + 1))
        one_hot[0, F] = 1.0
        cases.append(one_hot)
    late = np.array([_divisor_sums(lambda f: f * (f >= 5), top)],
                    dtype=np.float64)
    cases += [late, np.vstack([pair, late])]
    for wts in cases:
        assert c._ballot_sweep(wts).tobytes() == \
            _full_ballot_sweep(c, wts).tobytes(), wts.shape


def test_ballot_sweep_reads_few_rows_of_the_pair_weights(monkeypatch):
    # at K = 7828 the k <= 2 pair weights stop moving bits well before
    # top = 1614: the sweep reads at most 640 rows (it reads 512)
    c = BaseSeriesCache(7828, FLOAT)
    top = c._ensure_even_rows()[1]
    assert top == 1614
    rows = []
    cumprod = np.cumprod

    def counting(a, axis=None, out=None):
        rows.append(a.shape[axis])
        return cumprod(a, axis=axis, out=out)

    monkeypatch.setattr(np, "cumprod", counting)
    c.lambert_sums(_PAIR_WEIGHTS)
    assert 0 < sum(rows) <= 640, rows


@pytest.mark.parametrize("K", [_FFT_THRESHOLD - 2, _FFT_THRESHOLD - 1, 1000])
def test_spectral_products_equal_fresh_convolutions(K):
    # a float series keeps the spectrum of its last FFT order: products
    # through kept spectra are the bits of `_convolve` on the same vectors,
    # for distinct operands, a square, a series used at two orders and one
    # operand used again; below _FFT_THRESHOLD nothing is kept
    rng = np.random.default_rng(K)
    a = TruncatedSeries(rng.uniform(-1, 1, K + 1), FLOAT)
    b = TruncatedSeries(rng.uniform(-1, 1, K + 1), FLOAT)
    short = TruncatedSeries(rng.uniform(-1, 1, K // 2 + 1), FLOAT)

    def same(got, x, y, order):
        assert got.K == order
        assert got.nums.tobytes() == _convolve(x.nums, y.nums, order).tobytes()

    for _ in range(2):
        same(a * b, a, b, K)
        same(b * a, b, a, K)
        same(a * a, a, a, K)
        same(a * short, a, short, K // 2)
        same(short * a, short, a, K // 2)
    fft = K + 1 >= _FFT_THRESHOLD
    assert (a._rfft is not None) == fft and (b._rfft is not None) == fft


def test_square_and_reused_operand_transform_once(monkeypatch):
    # x * x and a later x * y with y's spectrum kept take one rfft, of x
    K = 1000
    rng = np.random.default_rng(K)
    x = TruncatedSeries(rng.uniform(-1, 1, K + 1), FLOAT)
    y = TruncatedSeries(rng.uniform(-1, 1, K + 1), FLOAT)
    y * y
    calls = []
    rfft = np.fft.rfft

    def counting(v, n=None):
        calls.append(n)
        return rfft(v, n)

    monkeypatch.setattr(np.fft, "rfft", counting)
    x * x
    x * y
    y * x
    assert calls == [2048]
