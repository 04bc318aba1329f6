"""Series ring operations and the base-series cache."""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from walkrange.errors import BackendMismatch, DivByNonUnit
from walkrange.pseries import (EXACT, FLOAT, TruncatedSeries, base_series,
                               choose_backend)


def frac_series(coeffs, K=None):
    return TruncatedSeries(coeffs, EXACT, K)


def test_project_truncates_and_keeps_low_orders():
    s = frac_series([1, 1, 1])
    assert s.project(1).coeffs == [1, 1]
    assert s.project(5) is s  # projecting above the stored order is identity


def test_project_identity_when_degree_below_order():
    s = frac_series([2, 0, 3], K=7)
    assert s.project(7) is s


def test_project_of_sqrt_kernel_series():
    # binomial series of sqrt(1-4z^2) cross-checked by squaring
    c = base_series(10)
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
    c = base_series(8)
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
    c = base_series(4)
    half = (c.one + c.A).scaled(Fraction(1, 2))
    t0 = -half.log()
    assert t0.coeffs == [0, 0, 1, 0, Fraction(3, 2)]
    assert t0.zddz().coeffs == [0, 0, 2, 0, 6]


def test_division_inverse_roundtrip():
    c = base_series(12)
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
    c = base_series(7)
    assert c.B.coeffs == [0, 1, 0, 1, 0, 2, 0, 5]


def test_base_series_functional_equation():
    # B = z + z B^2
    c = base_series(20)
    z = c.monomial(1, 1)
    assert c.B == z + z * (c.B * c.B)


def test_base_series_identities():
    c = base_series(30)
    one = c.one
    z = c.monomial(1, 1)
    assert (c.B * (one + c.A)) == z.scaled(2)
    assert (c.h0 * c.A) == (one - c.A)


def test_h0_counts_closed_walks():
    c = base_series(6)
    assert c.h0.coeffs == [0, 0, 2, 0, 6, 0, 20]


def test_geometric_tail_b2_over_1_minus_b2():
    c = base_series(4)
    assert c.tail(1).coeffs == [0, 0, 1, 0, 3]


def test_divisor_sum_identity():
    # sum_f f^k tail_f == sum_F sigma_k(F) B^{2F} below the cut
    c = base_series(40)
    for k in (1, 2, 3):
        lam = c.lambert_sum(lambda f, k=k: f ** k)
        direct = c.zero()
        for F in range(1, 21):
            sigma = sum(d ** k for d in range(1, F + 1) if F % d == 0)
            direct = direct + c.b_even_power(F).scaled(sigma)
        assert lam == direct


def test_point_visit_series():
    c = base_series(6)
    assert c.point_visits_series(0) == c.h0
    assert c.point_visits_series(1).coeffs == [0, 1, 0, 3, 0, 10, 0]
    assert c.point_visits_series(3).coeffs[:4] == [0, 0, 0, 1]
    assert c.point_visits_series(-1) == c.point_visits_series(1)


def test_parity_invariant():
    c = base_series(21)
    for name in ("A", "h0", "inv_A", "one_minus_A"):
        s = getattr(c, name)
        assert all(s.coeffs[m] == 0 for m in range(1, 22, 2)), name
    assert all(c.B.coeffs[m] == 0 for m in range(0, 22, 2))


def test_float_matches_exact_to_1e10_up_to_order_200():
    # the float cache stores 2^{-m} times the exact coefficients
    ce = base_series(200, backend=EXACT)
    cf = base_series(200, backend=FLOAT)
    for name in ("A", "B", "h0"):
        ve = np.array([float(x / 2 ** m) for m, x in
                       enumerate(getattr(ce, name).coeffs)])
        vf = np.array(getattr(cf, name).coeffs)
        mask = ve != 0
        rel = np.max(np.abs(ve[mask] - vf[mask]) / np.abs(ve[mask]))
        assert rel < 1e-10, (name, rel)
        assert np.all(vf[~mask] == 0)


def test_scaled_cache_counts_match_unscaled():
    # the backend fixes the scale; count_at and probability undo it
    plain = base_series(20, backend=EXACT)
    scaled = base_series(20, backend=FLOAT)
    assert (plain.scale, scaled.scale) == (1, 0.5)
    for n in range(1, 11):
        assert scaled.count_at(scaled.h0, n) == pytest.approx(
            float(plain.count_at(plain.h0, n)), rel=1e-14)
    assert plain.probability(plain.h0, 5) == 1
    assert scaled.probability(scaled.h0, 5) == pytest.approx(1, rel=1e-14)


def test_choose_backend_threshold():
    assert choose_backend(512) == EXACT
    assert choose_backend(513) == FLOAT
    assert choose_backend(4000, EXACT) == EXACT


def test_pow_matches_repeated_multiplication():
    c = base_series(16)
    p = c.one
    for m in range(1, 6):
        p = p * c.h0
        assert c.h0.pow(m) == p


def test_ballot_powers_match_direct_products():
    c = base_series(14)
    b2 = c.B * c.B
    acc = b2
    for F in range(1, 6):
        assert c.b_even_power(F) == acc
        acc = acc * b2


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


def test_canonical_after_every_exact_op():
    import random
    rng = random.Random(99)
    K = 17
    a = frac_series(rand_rationals(rng, K + 1, dens=(2, 4, 6, 9)), K)
    u = frac_series([1] + rand_rationals(rng, K), K)
    results = [a, u, a + u, a - a, u - a, a.scaled(Fraction(-6, 35)),
               a.scaled(0), -a, a * u, a / u, u.inverse(), u.log(), a.zddz(),
               a.pow(3), a.project(5), TruncatedSeries.monomial(Fraction(4, 6), 3, K, EXACT)]
    c = base_series(40)
    results += [c.A, c.inv_A, c.B, c.h0, c.one_minus_A, c.tail(3), c.b_even_power(4),
                c.lambert_sum(lambda f: Fraction(comb(f, 2), f)), c.point_visits_series(3)]
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


def _even_rows_per_row(K, scale):
    """The former float B^{2F} table: a dense (K/2+1)^2 array, one row at a time."""
    half = K // 2
    rows = np.zeros((half + 1, half + 1))
    ls2 = 2.0 * math.log(float(scale))
    np_ = np.arange(1, half + 1, dtype=np.float64)
    for F in range(1, half + 1):
        npr = np_[F - 1: half - 1]
        ratios = np.log(npr * (2 * npr + 1) * (2 * npr + 2)) - \
            np.log((npr + 1) * (npr + 1 - F) * (npr + 1 + F))
        logs = np.concatenate(([F * ls2], ratios + ls2)).cumsum()
        rows[F, F:] = np.where(logs > -745.0, np.exp(logs), 0.0)
    return rows


@pytest.mark.parametrize("K,scale", [
    (2, Fraction(1, 2)), (10, Fraction(1, 2)), (101, Fraction(1, 2)),
    (1922, Fraction(1, 2)), (4000, Fraction(1, 2))])
def test_float_even_rows_equal_per_row_table(K, scale):
    c = base_series(K, FLOAT)
    assert c.scale == scale
    rows = c._ensure_even_rows()
    ref = _even_rows_per_row(K, scale)
    kept = len(rows)
    assert rows.shape == (kept, K // 2 + 1)
    assert np.array_equal(rows.view(np.int64), ref[:kept].view(np.int64))
    assert not ref[kept:].any()
    if K >= 1922:
        assert kept < K // 2          # rows that underflow are not stored


def test_float_tails_read_past_stored_rows():
    c = base_series(4000, FLOAT)
    kept = len(c._ensure_even_rows())
    assert c.b_even_power(kept).is_zero()
    assert not c.b_even_power(kept - 1).is_zero()
    # the geometric tail of f = kept - 1 is its first row alone
    assert c.tail(kept - 1) == c.b_even_power(kept - 1)


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
    c = base_series(K, FLOAT)
    rng = np.random.default_rng(K)
    decay = 0.9 ** np.arange(K + 1)
    r = TruncatedSeries(rng.uniform(-1, 1, K + 1) * decay, FLOAT)
    u = c.one + c.A                       # constant term 2
    v = c.one + r.scaled(0.05)            # |v - 1| <= 1/2 on |z| <= 1

    def close(got, want):
        assert got.K == K
        err = np.max(np.abs(got.coeffs - want))
        assert err <= 1e-12 * np.max(np.abs(want)), err

    for a, b in ((c.h0, u), (r, v), (c.B, v), (r, u)):
        close(a / b, _float_div_loop(a.coeffs, b.coeffs))
    for b in (u, v):
        close(b.inverse(), _float_div_loop(c.one.coeffs, b.coeffs))
        close(b.log(), _float_log_loop(b.coeffs))
