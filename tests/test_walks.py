"""Enumeration oracle, profile bookkeeping, local-time DP, sampling."""

import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from walkrange import walks
from walkrange.errors import BudgetExceeded
from walkrange.walks import (Walk, local_time_distribution,
                             local_time_probabilities, multiplicity,
                             oracle_counts, oracle_mixed_moment, profile,
                             sample_moments)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench/reference.json"


def test_multiplicity_examples():
    w = Walk(1, (1, -1))
    assert multiplicity(0, w) == 2
    assert multiplicity(5, w) == 0
    w2 = Walk(1, (1, 1, -1, -1))
    assert multiplicity(1, w2) == 4


def test_profile_examples():
    p = profile(Walk(1, (1, -1)))
    assert p.counts == {1: 2} and p.range_ == 2
    p = profile(Walk(1, (1, -1, 1, -1)))
    assert p.counts == {2: 2} and p.range_ == 2
    p = profile(Walk(1, (1, 1, -1, -1)))
    assert p.counts == {1: 2, 2: 1} and p.range_ == 3


def test_profile_requires_closed():
    with pytest.raises(ValueError):
        profile(Walk(1, (1, 1)))


def test_walk_rejects_bad_steps():
    with pytest.raises(ValueError):
        Walk(1, (1, 2))


def test_multiplicity_sum_is_4n():
    import itertools
    for n in (1, 2, 3):
        for steps in itertools.product((1, -1), repeat=2 * n):
            if sum(steps):
                continue
            w = Walk(1, steps)
            pts = set(w.points())
            assert sum(multiplicity(q, w) for q in pts) == 4 * n


def test_profile_reflection_invariance():
    import itertools
    for steps in itertools.product((1, -1), repeat=6):
        if sum(steps):
            continue
        w = Walk(1, steps)
        m = Walk(1, tuple(-s for s in steps))
        assert profile(w).counts == profile(m).counts


def test_oracle_counts_examples():
    assert dict(oracle_counts(1, 1, (1,))) == {(2,): 2}
    assert dict(oracle_counts(2, 1, (2,))) == {(1,): 4, (2,): 2}
    byrange = oracle_counts(2, 1, (), include_range=True)
    assert dict(byrange) == {(2,): 2, (3,): 4}


def test_oracle_totals_are_central_binomials():
    for n in range(1, 7):
        assert sum(oracle_counts(n, 1, ()).values()) == comb(2 * n, n)


def test_oracle_budget():
    with pytest.raises(BudgetExceeded):
        oracle_counts(30, 1, (1,), budget=10 ** 6)


def test_oracle_refuses_point_codes_past_int64():
    # points are coded in signed base 2n + 1, so the largest code is
    # ((2n+1)^d - 1)/2: 3^40 // 2 still fits in int64, 3^41 // 2 does not
    assert dict(oracle_counts(1, 40, (1,))) == {(2,): 80}
    for n, d in ((1, 41), (2, 28), (2, 30)):
        with pytest.raises(BudgetExceeded, match="int64"):
            oracle_counts(n, d, ())


def test_oracle_d2_walk_totals():
    # closed 2-d walk counts are squared central binomials
    for n in (1, 2, 3):
        assert sum(oracle_counts(n, 2, ()).values()) == comb(2 * n, n) ** 2


# every closed walk, one profile() each: the reference the block enumerator
# must reproduce (d=1 up to n=7, d=2 up to n=4, d=3 up to n=2); d=2 n=4 is
# the size that takes several default-size blocks
_ONE_BLOCK_SIZES = [(n, 1) for n in range(1, 7)] + [(1, 2), (2, 2), (3, 2),
                                                    (1, 3), (2, 3)]
_BRUTE_SIZES = _ONE_BLOCK_SIZES + [(7, 1), (4, 2)]
_TRACKED_SETS = [(), (1,), (2,), (1, 3), (3, 1, 2), (2, 2), (7,)]


def _brute_walks(n, d):
    steps = [s for a in range(1, d + 1) for s in (a, -a)]
    for seq in itertools.product(steps, repeat=2 * n):
        w = Walk(d, seq)
        if w.is_closed():
            yield w


def _brute_profiles(n, d):
    return map(profile, _brute_walks(n, d))


@pytest.fixture(scope="module")
def brute():
    table = {}
    for n, d in _BRUTE_SIZES:
        profs = list(_brute_profiles(n, d))
        for tracked in _TRACKED_SETS:
            for rng in (False, True):
                table[n, d, tracked, rng] = Counter(
                    tuple(p.count(k) for k in tracked)
                    + ((p.range_,) if rng else ()) for p in profs)
    return table


def test_oracle_counts_match_brute_force(brute):
    for (n, d, tracked, rng), want in brute.items():
        got = oracle_counts(n, d, tracked, include_range=rng)
        assert got == want, (n, d, tracked, rng)
        assert all(type(v) is int for key in got for v in key)
        assert all(type(c) is int for c in got.values())


# small block sizes split each enumeration into many blocks, the last of them
# partial; 1 makes every walk its own block, thousands of them already on the
# one-block sizes
@pytest.mark.parametrize("leaves", [1, 6, 40])
def test_oracle_counts_do_not_depend_on_block_size(brute, monkeypatch,
                                                   leaves):
    monkeypatch.setattr(walks, "_BLOCK_LEAVES", leaves)
    for n, d in _ONE_BLOCK_SIZES:
        for tracked, rng in (((), False), ((3, 1, 2), True)):
            got = oracle_counts(n, d, tracked, include_range=rng)
            assert got == brute[n, d, tracked, rng], (n, d, tracked, rng)


@pytest.mark.parametrize("n,d,leaves,one_block", [
    (5, 1, None, True), (8, 1, None, False), (4, 2, None, False),
    (3, 2, 40, False), (2, 3, 6, False)])
def test_point_blocks_stay_within_the_block_size(monkeypatch, n, d, leaves,
                                                 one_block):
    if leaves is not None:
        monkeypatch.setattr(walks, "_BLOCK_LEAVES", leaves)
    blocks = list(walks._point_blocks(n, d))
    sizes = [len(b) for b in blocks]
    assert (len(sizes) == 1) == one_block
    assert max(sizes) <= walks._BLOCK_LEAVES
    # every row is a walk whose first step is +e1, the point of code 1
    assert all((b[:, 0] == 1).all() for b in blocks)
    # closed walks with j_i steps each way on axis i: (2n)! / prod (j_i!)^2,
    # of which one in 2d starts with +e1
    assert sum(sizes) == sum(
        math.factorial(2 * n) // math.prod(math.factorial(j) ** 2 for j in js)
        for js in itertools.product(range(n + 1), repeat=d)
        if sum(js) == n) // (2 * d)


# the 2d weight of `oracle_counts`: on the unreduced reference, the walks of
# each first step have the same joint tally of visit counts and range
@pytest.mark.parametrize("n,d", _ONE_BLOCK_SIZES)
def test_every_first_step_has_the_same_tally(n, d):
    tallies = {s: Counter() for a in range(1, d + 1) for s in (a, -a)}
    for w in _brute_walks(n, d):
        p = profile(w)
        tallies[w.steps[0]][
            tuple(p.count(k) for k in range(1, 2 * n + 1)) + (p.range_,)] += 1
    assert all(t == tallies[1] for t in tallies.values())


def test_oracle_mixed_moment_matches_brute_force():
    for n, d in [(4, 1), (6, 1), (3, 2), (2, 3)]:
        profs = list(_brute_profiles(n, d))
        for spec in ({1: 1}, {2: 1}, {1: 2, 3: 2}, {1: 1, 2: 1}, {4: 0}):
            want = sum(math.prod(comb(p.count(k), m) for k, m in spec.items())
                       for p in profs)
            assert oracle_mixed_moment(n, d, spec) == want, (n, d, spec)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_oracle_counts_the_empty_walk(d):
    # its one point, the origin, has multiplicity 2: N_2 = 1, range 1
    p = profile(Walk(d, ()))
    want = Counter({(p.count(1), p.count(2), p.range_): 1})
    assert want == Counter({(1, 0, 1): 1})
    assert oracle_counts(0, d, (1, 2), include_range=True) == want
    assert oracle_mixed_moment(0, d, {1: 1}) == 1


def test_oracle_rejects_invalid_arguments():
    for args in ((-1, 1, ()), (2, 0, ()), (2, 1, (0,)), (2, 1, (1, -3))):
        with pytest.raises(ValueError):
            oracle_counts(*args)


def test_local_time_distribution_matches_enumeration():
    for n in (0, 3, 5, 7):
        for k in (1, 2, 4):
            dp = local_time_distribution(n, k)
            want = {l: c for (l,), c in oracle_counts(n, 1, (k,)).items() if c}
            assert {l: c for l, c in dp.items() if c} == want


def test_local_time_distribution_reproduces_recorded_counts():
    # counts an earlier, three-weight DP that summed over every root wrote
    # to the benchmark's reference file
    data = json.loads(REFERENCE.read_text())
    for (n, k), want in (((39, 2), data["local_time_distribution_n39_k2"]),
                         ((80, 3), data["local_time_distribution_k3"]["80"])):
        got = {str(l): str(c)
               for l, c in local_time_distribution(n, k).items()}
        assert got == want, (n, k)


def test_local_time_distribution_rejects_invalid_arguments():
    for n, k, l_max in ((-1, 2, None), (4, 0, None), (4, 2, -1)):
        with pytest.raises(ValueError):
            local_time_distribution(n, k, l_max)


def test_local_time_probabilities_match_exact():
    # one pass per length; n = 25 gives u_cap >= n, and the lengths reach
    # below k
    for k in (2, 3, 5):
        for m in (25, 12, 6, 3):
            got = local_time_probabilities(m, k, 12)
            exact = local_time_distribution(m, k)
            want = [exact.get(l, 0) / comb(2 * m, m) for l in range(13)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert local_time_probabilities(25, 5, 12).sum() == \
        pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("n,k", [(25, 2), (25, 5), (40, 3), (60, 3), (60, 4),
                                 (1, 1), (1, 2), (10, 1), (12, 6)])
def test_local_time_probabilities_relative_to_exact_counts(n, k):
    # every entry of the full l range: tail entries near 1e-14 are held to
    # the same relative bound as the bulk, and impossible l give exact zeros
    exact = local_time_distribution(n, k)
    want = np.array([exact.get(l, 0) / comb(2 * n, n)
                     for l in range(2 * n + 1)])
    got = local_time_probabilities(n, k, 2 * n)
    nonzero = want != 0
    np.testing.assert_allclose(got[nonzero], want[nonzero], rtol=1e-13, atol=0)
    assert np.all(got[~nonzero] == 0)


def test_rooting_identity_by_enumeration():
    # without any DP: walks with N_{2k} = l number sum 2n / k_min over those
    # rooted at their lowest point, k_min the visits of that point
    for n in range(1, 6):
        walks_n = [Walk(1, steps)
                   for steps in itertools.product((1, -1), repeat=2 * n)
                   if sum(steps) == 0]
        for k in (1, 2, 3):
            counts, rooted = Counter(), Counter()
            for w in walks_n:
                l = profile(w).count(k)
                counts[l] += 1
                if min(w.points()) == (0,):
                    rooted[l] += Fraction(2 * n, multiplicity(0, w) // 2)
            assert rooted == counts, (n, k)


def test_local_time_probabilities_crossing_cap():
    # a generous explicit cap changes nothing; the capped tail is negligible
    full = local_time_probabilities(30, 2, 8)
    capped = local_time_probabilities(30, 2, 8, u_cap=60)
    assert capped == pytest.approx(full, abs=1e-12)


def test_local_time_probabilities_past_2n_read_zero_without_the_state():
    # no walk of length 10 has more than 10 points: the DP runs to l = 10
    # and pads with zeros, where its state at l_max = 10^6 would be 15 rows
    # of 10^6 + 1 floats, 120 MB
    tracemalloc.start()
    try:
        got = local_time_probabilities(5, 2, 10 ** 6)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 10 ** 6 + 1 and not got[11:].any()
    assert np.array_equal(got[:11], local_time_probabilities(5, 2, 10))
    assert peak <= 16e6, peak  # the 8 MB answer, not the state


def test_local_time_probabilities_marker_clipping():
    # l_max only truncates the report, not the retained distribution below it
    lo = local_time_probabilities(20, 1, 1)
    hi = local_time_probabilities(20, 1, 2)
    assert lo[0] == pytest.approx(hi[0], abs=1e-14)
    assert lo[1] == pytest.approx(hi[1], abs=1e-14)
    assert hi[: 3].sum() == pytest.approx(1.0, abs=1e-12)


def _dict_of_layers_dp(n, k, l_max, u_cap):
    """The float DP with one dict entry per layer and per-row loops.

    Reference for local_time_probabilities that sums over the start point
    (the root) in two phases, points below the root and then the root and
    the points above it, with the three transition weights and three
    products per step.  The DP under test roots every walk at its lowest
    point instead, so it checks another decomposition: the two agree
    through the rooting identity, to a few ulps, not bit for bit.
    """
    u_cap = min(u_cap, n)
    L = l_max + 1
    lg = np.vectorize(math.lgamma, otypes=[np.float64])
    uu, vv = np.meshgrid(np.arange(1.0, u_cap + 1), np.arange(1.0, u_cap + 1),
                         indexing="ij")
    log4 = math.log(4.0)
    wb = np.exp(lg(uu + vv) - lg(uu + 1) - lg(vv) - vv * log4)
    wr = np.exp(lg(uu + vv + 1) - lg(uu + 1) - lg(vv + 1) - vv * log4)
    wa = np.exp(lg(uu + vv) - lg(vv + 1) - lg(uu) - vv * log4)
    layers = {}
    for u in range(1, u_cap + 1):
        if int(u == k) <= l_max:
            lay = layers.setdefault(u, np.zeros((2, u_cap, L)))
            lay[:, u - 1, int(u == k)] += math.exp(-u * log4)
    out = np.zeros(L)
    for s in range(1, n + 1):
        lay = layers.pop(s, np.zeros((2, u_cap, L)))
        if s == n:
            for u in range(1, u_cap + 1):
                vec = lay[0, u - 1] + lay[1, u - 1]
                m = int(u == k)
                out[m:] += vec[: L - m]
            break
        up = min(u_cap, n - s)
        tb = wb[:, :up].T @ lay[0]
        ta = wr[:, :up].T @ lay[0] + wa[:, :up].T @ lay[1]
        for v in range(max(1, k - u_cap), min(up, k - 1) + 1):
            u = k - v
            c0 = wb[u - 1, v - 1] * lay[0, u - 1]
            c1 = wr[u - 1, v - 1] * lay[0, u - 1] + wa[u - 1, v - 1] * lay[1, u - 1]
            tb[v - 1] -= c0
            ta[v - 1] -= c1
            tb[v - 1, 1:] += c0[: L - 1]
            ta[v - 1, 1:] += c1[: L - 1]
        for v in range(1, up + 1):
            dst = layers.setdefault(s + v, np.zeros((2, u_cap, L)))
            dst[0, v - 1] += tb[v - 1]
            dst[1, v - 1] += ta[v - 1]
    return out / float(Fraction(comb(2 * n, n), 4 ** n))


@pytest.mark.parametrize("n,k,l_max,u_cap", [
    (1, 1, 2, 10), (7, 3, 0, 10), (25, 5, 12, 56), (200, 1, 0, 150),
    (260, 3, 20, 145), (300, 4, 9, 7), (300, 9, 6, 7)])
def test_local_time_probabilities_equal_dict_of_layers(n, k, l_max, u_cap):
    got = local_time_probabilities(n, k, l_max, u_cap=u_cap)
    want = _dict_of_layers_dp(n, k, l_max, u_cap)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_local_time_probabilities_rejects_n_below_one():
    # the DP has no layer for the empty walk
    for n in (0, -3):
        with pytest.raises(ValueError, match="need n >= 1"):
            local_time_probabilities(n, 3, 5)


@pytest.mark.parametrize("k,l_max,u_cap", [(0, 3, None), (3, -1, None),
                                           (3, 3, 0)])
def test_local_time_probabilities_rejects_invalid_arguments(k, l_max, u_cap):
    with pytest.raises(ValueError):
        local_time_probabilities(10, k, l_max, u_cap=u_cap)


def test_sample_moments_degenerate_case():
    out = sample_moments(1, 1, samples=50, seed=7, k_max=2)
    mean, err = out[1]
    assert mean == 2.0 and err == 0.0
    assert out["range"][0] == 2.0


def test_sample_moments_matches_oracle_d1():
    out = sample_moments(2, 1, samples=20000, seed=11, k_max=2)
    mean, err = out[2]
    # exact E(N_4) = (4*1 + 2*2)/6
    assert abs(mean - 8 / 6) <= 3 * err + 1e-12
    rmean, rerr = out["range"]
    assert abs(rmean - 16 / 6) <= 3 * rerr + 1e-12


def test_sample_moments_d2_total_and_seed_reproducibility():
    a = sample_moments(6, 2, samples=500, seed=3, k_max=2)
    b = sample_moments(6, 2, samples=500, seed=3, k_max=2)
    assert a == b
    assert a["range"][0] <= 13  # range of a closed 12-step walk is bounded


def test_sample_moments_d2_matches_oracle():
    # exact means over all closed 2-d walks of length 6
    counts = oracle_counts(3, 2, (1, 2), include_range=True)
    total = sum(counts.values())
    exact_n2 = sum(key[0] * c for key, c in counts.items()) / total
    exact_ran = sum(key[2] * c for key, c in counts.items()) / total
    out = sample_moments(3, 2, samples=20000, seed=5, k_max=1)
    mean, err = out[1]
    assert abs(mean - exact_n2) <= 4 * err
    rmean, rerr = out["range"]
    assert abs(rmean - exact_ran) <= 4 * rerr


def test_sample_moments_rejects_high_dimension():
    with pytest.raises(ValueError):
        sample_moments(4, 4, samples=10, seed=0)
