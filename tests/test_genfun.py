"""The d=1 joint-distribution engine against the enumeration oracle."""

from fractions import Fraction
from math import comb

import pytest

from walkrange.errors import DomainError, NonUnit
from walkrange.genfun import (Engine, joint_counts, range_count_series,
                              range_distribution, range_moment, vertex_factor,
                              vertex_factor_series_form)
from walkrange.pseries import EXACT, TruncatedSeries, base_series
from walkrange.walks import (local_time_distribution,
                             local_time_probabilities, oracle_counts,
                             oracle_mixed_moment)


@pytest.fixture(scope="module")
def eng12():
    return Engine(12, backend=EXACT)


# -- building blocks ---------------------------------------------------------

def test_pair_block_example(eng12):
    g = eng12.pair_block(1, 1)
    assert g.coeffs[:5] == [0, 0, 1, 0, 1]
    # z d/dz at z^2, z^4 counts walks with two singlepoints
    zd = g.zddz()
    assert (zd.coeffs[2], zd.coeffs[4]) == (2, 4)


def test_pair_block_low_order_vanishing(eng12):
    g = eng12.pair_block(1, 2)
    assert g.coeffs[:4] == [0, 0, 0, 0]


def test_pair_block_symmetry(eng12):
    assert eng12.pair_block(2, 1) == eng12.pair_block(1, 2)
    assert eng12.pair_block(3, 1) == eng12.pair_block(1, 3)


def test_chain_block_first_values(eng12):
    h11 = eng12.chain_block(1, 1)
    assert h11.coeffs[2] == 1
    # leading order of the (2,4) block is a single z^4 (recomputed golden)
    h24 = eng12.chain_block(2, 4)
    assert h24.coeffs[:6] == [0, 0, 0, 0, 1, 0]
    assert h24.coeffs[6] == 0


def test_chain_block_leading_order_bound(eng12):
    for i, j in ((1, 3), (2, 5), (1, 4)):
        h = eng12.chain_block(i, j)
        assert all(h.coeffs[m] == 0 for m in range(min(2 * (j - i), 13)))


def test_chain_equals_pair_at_order_two(eng12):
    # the k = 2 coincidence: the (1,2) chain block is the (1,1) pair block
    assert eng12.chain_block(1, 2) == eng12.pair_block(1, 1)


def test_unmarked_term_is_the_closed_walk_count_series():
    # joint_genfun puts h0 where z d/dz log(2 / (1 + A)) stands
    for K in (12, 60):
        cache = base_series(K, backend=EXACT)
        half = (cache.one + cache.A).scaled(Fraction(1, 2))
        assert -half.log().zddz() == cache.h0
        assert [cache.h0.coeffs[2 * n] for n in range(1, K // 2 + 1)] == \
            [comb(2 * n, n) for n in range(1, K // 2 + 1)]


def test_term_single_first_moments_match_oracle(eng12):
    for k in (1, 2, 3):
        zd = eng12.term_single(k).zddz()
        for n in range(1, 6):
            want = oracle_mixed_moment(n, 1, {k: 1})
            assert zd.coeffs[2 * n] == want, (k, n)


def test_term_pair_collapses_for_singlepoints(eng12):
    assert eng12.term_pair(1, 1) == eng12.pair_block(1, 1)


def test_term_pair_moments_match_oracle(eng12):
    for (k1, k2) in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
        s = eng12.term_pair(k1, k2).scaled(2 - (1 if k1 == k2 else 0)).zddz()
        for n in range(1, 6):
            spec = {}
            for k in (k1, k2):
                spec[k] = spec.get(k, 0) + 1
            assert s.coeffs[2 * n] == oracle_mixed_moment(n, 1, spec)


# -- transfer operator structure ----------------------------------------------

def test_transfer_operator_row_vanishing(eng12):
    for k in (2, 3, 4):
        q = eng12.transfer_operator(k, kmax=5)
        for (p, _qq) in q:
            assert p[0] + p[1] < k - 1


def test_transfer_operator_no_constant_term(eng12):
    q = eng12.transfer_operator(3)
    for s in q.values():
        assert s.coeffs[0] == 0 and s.coeffs[1] == 0


def test_transfer_operator_k2_entry(eng12):
    q = eng12.transfer_operator(2)
    assert set(q) == {((0, 0), (0, 0))}
    assert q[((0, 0), (0, 0))] == eng12.chain_block(1, 2)


def _apply(q, vec):
    """Q v against {index -> TruncatedSeries}."""
    out = {}
    for (p, qq), s in q.items():
        if qq in vec:
            out[p] = out[p] + s * vec[qq] if p in out else s * vec[qq]
    return out


def test_transfer_powers_vanish_on_excluded_rows(eng12):
    k = 3
    q = eng12.transfer_operator(k, kmax=5)
    vec = {qq: TruncatedSeries.one(12, EXACT) for (_p, qq) in q}
    out = _apply(q, vec)
    for _ in range(3):
        for p, s in out.items():
            if p[0] + p[1] >= k - 1:
                assert s.is_zero()
        out = _apply(q, out)


def test_left_vector_lives_at_t_zero(eng12):
    for k in (1, 2, 3):
        lv = eng12.left_vector(k, kmax=4)
        assert all(t == 0 for (_r, t) in lv)


def test_right_vector_zero_for_first_argument_one(eng12):
    assert eng12.right_vector(1, 2, kmax=4) == {}


# -- joint generating function -------------------------------------------------

def test_joint_genfun_unmarked_collapse(eng12):
    gf = eng12.joint_genfun((2,), bounds=(0,))
    assert gf.coefficient((0,)) == eng12.cache.h0


def test_joint_genfun_doublepoint_structure_at_z4(eng12):
    # sum over walks of (1+t)^{N_4} at length 4 is 4(1+t) + 2(1+t)^2
    gf = eng12.joint_genfun((2,))
    assert gf.coefficient((0,)).coeffs[4] == 6
    assert gf.coefficient((1,)).coeffs[4] == 8
    assert gf.coefficient((2,)).coeffs[4] == 2


def test_joint_genfun_mixed_marker_coefficient(eng12):
    gf = eng12.joint_genfun((1, 2))
    assert gf.coefficient((1, 1)).coeffs[4] == 8


def test_joint_counts_match_oracle():
    eng = Engine(10, backend=EXACT)
    # n = 0 has no marked terms: the empty walk, N_2 = 1, is answered apart
    for tracked in ((1, 2), (1, 2, 3), (1, 2, 3, 4)):
        for n in range(6):
            got = joint_counts(eng, n, tracked)
            want = {key: c for key, c in oracle_counts(n, 1, tracked).items()}
            assert got == want, (tracked, n)


def test_joint_counts_share_the_resolvent_walk(monkeypatch):
    # starts on one (index, exponent) are summed before any product: one
    # walk for all start pairs does at most 8,371 exact products here, where
    # a walk per (k2, k3) start pair does 24,250
    eng = Engine(24, backend=EXACT)
    products = 0
    mul = TruncatedSeries.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    joint_counts(eng, 12, (1, 2, 3, 4))
    assert products <= 8371


def test_joint_counts_skip_a_multiplicity():
    # tracking (1, 3) marginalizes the untracked doublepoints correctly
    eng = Engine(10, backend=EXACT)
    for n in range(2, 6):
        got = joint_counts(eng, n, (1, 3))
        want = {key: c for key, c in oracle_counts(n, 1, (1, 3)).items()}
        assert got == want, n


# -- distribution and closed forms ----------------------------------------------

def test_distribution_examples():
    eng = Engine(4, backend=EXACT)
    counts, tail = eng.distribution(2, 2, 2)
    assert counts == {0: 0, 1: 4, 2: 2} and tail == 0


def test_distribution_completeness_and_oracle():
    for n in range(1, 7):
        eng = Engine(2 * n, backend=EXACT)
        for k in (1, 2, 3):
            counts, tail = eng.distribution(n, k, 2 * n)
            assert tail == 0
            assert sum(counts.values()) == comb(2 * n, n)
            want = {l: c for (l,), c in oracle_counts(n, 1, (k,)).items()}
            assert {l: c for l, c in counts.items() if c} == want


def test_distribution_matches_local_time_dp_midsize():
    # independent crossing-profile oracle at a size enumeration cannot reach
    n = 20
    eng = Engine(2 * n, backend=EXACT)
    for k in (2, 3):
        counts, _ = eng.distribution(n, k, 2 * n)
        dp = local_time_distribution(n, k)
        assert {l: c for l, c in counts.items() if c} == dp


def test_distribution_matches_local_time_dp_k4():
    n = 15
    eng = Engine(2 * n, backend=EXACT)
    counts, _ = eng.distribution(n, 4, 2 * n)
    assert {l: c for l, c in counts.items() if c} == \
        local_time_distribution(n, 4)


def test_binomial_moment_series_prefixes():
    # the per-marker bound cuts the resolvent walk at j without touching
    # any lower moment
    n = 6
    eng = Engine(2 * n, backend=EXACT)
    for k in range(2, 6):
        full = eng.binomial_moment_series(k, 2 * n // k)
        for j in range(len(full)):
            assert eng.binomial_moment_series(k, j) == full[: j + 1], (k, j)


def test_marker_substitution_identity():
    # counts are the binomial inversion of the moments: equivalently
    # sum_l c_l u^l equals sum_j M_j (u-1)^j as polynomials
    n, k = 6, 2
    eng = Engine(2 * n, backend=EXACT)
    jmax = 2 * n // k
    moments = [eng.cache.count_at(s, n)
               for s in eng.binomial_moment_series(k, jmax)]
    counts, _ = eng.distribution(n, k, jmax)
    poly = [Fraction(0)] * (jmax + 1)
    for j, m in enumerate(moments):
        # add m * (u-1)^j
        for l in range(j + 1):
            poly[l] += m * comb(j, l) * (-1) ** (j - l)
    assert [int(x) for x in poly] == [counts.get(l, 0) for l in range(jmax + 1)]


def test_probabilities_float_match_exact_small():
    ee = Engine(24, backend=EXACT)
    ef = Engine(24, backend="float")
    for k in (1, 2):
        pe = [float(x) for x in ee.probabilities(12, k, 6)]
        pf = ef.probabilities(12, k, 6)
        assert pf == pytest.approx(pe, abs=1e-12)
    # float k >= 3 is the crossing-profile DP's job
    with pytest.raises(DomainError, match="local_time_probabilities"):
        ef.probabilities(12, 3, 6)


def test_exact_probabilities_are_the_count_ratios():
    # no cut of the alternating sum: exact means Fraction(count, C(2n, n))
    eng = Engine(200, backend=EXACT)
    counts, _ = eng.distribution(100, 3, 5)
    assert eng.probabilities(100, 3, 5) == \
        [Fraction(counts[l], comb(200, 100)) for l in range(6)]


def test_float_k2_probabilities_bit_for_bit():
    # the float k = 2 route is what `walkrange dist --backend float` prints,
    # so its digits must not move: pinned bit for bit, any change in the
    # float operation order of add, sub, scaled, mul, inverse, zddz, pow or
    # lambert_sum shows here
    got = Engine(1200, backend="float").probabilities(600, 2, 8)
    assert got == [0.35060255350754516, 0.40538710488579377, 0.17219226799660495,
                   0.047839094205418826, 0.016103110990783414, 0.005322295411957197,
                   0.0017342545492343574, 0.0005587027439337683,
                   0.00017831779126765664]


@pytest.mark.parametrize("n", [300, 600])
def test_float_k2_probabilities_match_crossing_dp_to_l40(n):
    # read off the count series with no cut inversion, every value to l = 40
    # is positive and tracks the all-positive DP in relative terms; l <= 2
    # keeps the float series' known sixth-digit drift
    got = Engine(2 * n, backend="float").probabilities(n, 2, 40)
    dp = local_time_probabilities(n, 2, 40)
    assert min(got) >= 0
    for l, (g, d) in enumerate(zip(got, dp)):
        assert abs(g - d) <= (3e-6 if l <= 2 else 1e-7) * d, l


def test_doublepoint_count_series_built_once_per_engine(monkeypatch):
    # the n-independent series are kept: later calls extend or slice them,
    # with the values a fresh engine gives, and invert (1 + g) once
    want = Engine(40, backend=EXACT).doublepoint_count_series(9)
    eng = Engine(40, backend=EXACT)
    inverses = 0
    inverse = TruncatedSeries.inverse

    def counting_inverse(self):
        nonlocal inverses
        inverses += 1
        return inverse(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counting_inverse)
    for l_max in (1, 5, 2, 9, 0):
        assert eng.doublepoint_count_series(l_max) == want[: l_max + 1]
    assert inverses == 1


def test_doublepoint_count_series_equal_exact_counts():
    # the u = v - 1 closed form against the inverted resolvent moments
    eng = Engine(40, backend=EXACT)
    series = eng.doublepoint_count_series(20)
    for n in range(1, 21):
        counts, _ = eng.distribution(n, 2, n)
        assert [eng.cache.count_at(s, n) for s in series] == \
            [counts.get(l, 0) for l in range(21)], n


# -- mixed moments ----------------------------------------------------------------

def test_mixed_moment_examples():
    eng = Engine(4, backend=EXACT)
    assert eng.mixed_moment({1: 2}, 2) == 4
    assert eng.mixed_moment({1: 1}, 2) == 8


def test_mixed_moments_match_oracle_to_depth_four():
    eng = Engine(12, backend=EXACT)
    specs = [{1: 1}, {2: 1}, {1: 2}, {1: 1, 2: 1}, {2: 2}, {1: 1, 2: 2},
             {2: 3}, {1: 2, 3: 1}, {1: 2, 3: 2}, {2: 4}, {1: 1, 2: 1, 3: 1}]
    for spec in specs:
        for n in range(1, 7):
            assert eng.mixed_moment(spec, n) == \
                oracle_mixed_moment(n, 1, spec), (spec, n)


def test_mixed_moments_past_depth_four_match_oracle():
    eng = Engine(12, backend=EXACT)
    for spec in ({1: 3, 2: 2}, {2: 5}, {1: 2, 2: 2, 3: 1}, {1: 6}):
        for n in range(1, 7):
            assert eng.mixed_moment(spec, n) == \
                oracle_mixed_moment(n, 1, spec), (spec, n)


def test_mixed_moments_at_n20_with_spec_bounds():
    # the spec bounds bind long before the weight cap K = 40 does; the
    # pinned values are those of the earlier sum over spec permutations
    eng = Engine(40, backend=EXACT)
    pinned = {((1, 1), (2, 2)): 75828553280,
              ((1, 2), (3, 1)): 38519599360,
              ((1, 1), (2, 1), (3, 1)): 153158593600,
              ((1, 1), (2, 1), (3, 1), (4, 1)): 183480760160}
    for items, want in pinned.items():
        spec = dict(items)
        assert eng.mixed_moment(spec, 20) == want, spec
        gf = eng.joint_genfun(tuple(spec))
        s = gf.coefficient(tuple(spec.values()))
        assert eng.cache.count_at(s, 20) == want, spec


def test_joint_counts_with_bounds_below_the_weight_cap():
    # on K = 40 the markers are bounded by 2n // k, well under K // k
    eng = Engine(40, backend=EXACT)
    for n in (4, 12):
        got = joint_counts(eng, n, (1, 2))
        assert got == joint_counts(Engine(2 * n, backend=EXACT), n, (1, 2))
        assert sum(got.values()) == comb(2 * n, n)


def test_exact_only_operations_reject_float_backend():
    eng = Engine(8, backend="float")
    with pytest.raises(ValueError):
        eng.distribution(4, 2, 4)
    with pytest.raises(ValueError):
        eng.mixed_moment({1: 1}, 4)


@pytest.mark.xfail(strict=True, reason="printed worked example for the "
                   "(1,1,3,3) moment disagrees with exhaustive enumeration; "
                   "the machinery result is the enumeration-backed one")
def test_printed_mixed_moment_combination():
    eng = Engine(12, backend=EXACT)
    a = eng.cache.one_minus_A
    x = eng.pair_block(1, 1)
    y = eng.pair_block(1, 2)
    z = eng.pair_block(1, 3)
    h24 = eng.chain_block(2, 4)
    inner = (((x * x * a) - y.scaled(2) * x) * ((x * a) - y)).scaled(2) \
        + (x * x) * h24 \
        - (x.scaled(2)) * ((y * x * a) - (x * z) - (y * y))
    disp = inner.scaled(2).zddz()
    want = [oracle_mixed_moment(n, 1, {1: 2, 3: 2}) for n in range(1, 7)]
    assert [disp.coeffs[2 * n] for n in range(1, 7)] == want


# -- the range ---------------------------------------------------------------------

def test_range_distribution_examples():
    assert range_distribution(1) == {2: 2}
    assert range_distribution(2) == {2: 2, 3: 4}


def test_range_distribution_matches_oracle():
    for n in range(1, 8):
        hist = range_distribution(n)
        want = {m: c for (m,), c in
                oracle_counts(n, 1, (), include_range=True).items()}
        assert hist == want
        assert sum(hist.values()) == comb(2 * n, n)


def test_range_series_route_agrees_with_ballot_route():
    cache = base_series(20, backend=EXACT)
    for n in range(1, 11):
        hist = range_distribution(n)
        for m in range(2, n + 2):
            ser = range_count_series(cache, m)
            assert ser.coeffs[2 * n] == hist.get(m, 0)


def test_range_moment_value():
    assert range_moment(2, 1) == Fraction(16, 6)


def test_range_first_moment_identity_large_n():
    # sum_m m * count(n, m) = 4^n exactly, here far beyond enumeration reach
    n = 200
    hist = range_distribution(n)
    assert sum(m * c for m, c in hist.items()) == 4 ** n
    assert sum(hist.values()) == comb(2 * n, n)


def test_probabilities_series_vs_crossing_dp_large_n():
    # the k = 2 closed-form float route against the all-positive DP; the
    # series route carries ~1e-8 absolute noise at this order from the
    # alternating block sums, the DP is good to ~1e-12
    n = 500
    eng = Engine(2 * n, backend="float")
    ser = eng.probabilities(n, 2, 12)
    dp = local_time_probabilities(n, 2, 12)
    assert ser == pytest.approx(list(dp), abs=2e-8)


# -- vertex factors -----------------------------------------------------------------

def test_vertex_factor_zero_branch():
    for k in (1, 2, 3):
        w = 0.37
        assert vertex_factor(0, k, w) == pytest.approx(
            (w / (1 + w)) ** k / k)


def test_vertex_factor_simple_pole():
    w = 0.2
    assert vertex_factor(1, 1, w) == pytest.approx(-1 / (1 + w))


def test_vertex_factor_at_zero_argument():
    for q in range(1, 7):
        for k in range(1, q + 1):
            assert vertex_factor(q, k, 0.0) == pytest.approx(
                (-1) ** k * comb(q, k) / q)


def test_vertex_factor_nonunit():
    with pytest.raises(NonUnit):
        vertex_factor(0, 1, -1)


def test_vertex_factor_series_argument():
    cache = base_series(8, backend=EXACT)
    w = cache.h0
    got = vertex_factor(0, 2, w)
    want = (w / (cache.one + w)).pow(2).scaled(Fraction(1, 2))
    assert got == want
    got_q = vertex_factor(2, 1, w)
    # q=2, k=1: (-1) (1/2) C(0,0) C(2,1) / (1+w)
    assert got_q == (cache.one / (cache.one + w)).scaled(-1)


def test_vertex_factor_resummation():
    for q in range(1, 7):
        for k in range(1, 7):
            for w in (-0.3, -0.1, 0.05, 0.2, 0.3):
                closed = vertex_factor(q, k, w)
                series = vertex_factor_series_form(q, k, w, terms=400)
                assert abs(closed - series) < 1e-12, (q, k, w)
