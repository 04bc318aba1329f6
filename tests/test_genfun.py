"""The d=1 joint-distribution engine against the enumeration oracle."""

import sys
import threading
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, isqrt, perm

import numpy as np
import pytest

from walkrange import genfun, pseries
from walkrange.cli import _EXACT_DECIMAL
from walkrange.errors import DomainError, NonUnit
from walkrange.genfun import (Engine, joint_counts, range_distribution,
                              range_moment, vertex_factor)
from walkrange.pseries import EXACT, FLOAT, BaseSeriesCache, TruncatedSeries
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


@pytest.mark.parametrize("backend, K", [(EXACT, 40), (FLOAT, 600)])
def test_pair_block_is_its_definition(backend, K):
    # (-1)^{i+j} A^{i+j} sum_f C(f,i) C(f,j)/f tail_f with Fraction weights,
    # f by f, on tail_f = sum_{m >= 1} B^{2fm}; floats agree to rounding on
    # the scale of the winding sum before its cancelling product with A^{i+j}
    eng = Engine(K, backend=backend)
    c = eng.cache
    tails = {f: sum((c.b_even_power(f * m) for m in range(1, K // (2 * f) + 1)),
                    c.zero())
             for f in range(1, K // 2 + 1)}
    for i in range(1, 5):
        for j in range(1, 5):
            wsum = sum((t.scaled(Fraction(comb(f, i) * comb(f, j), f))
                        for f, t in tails.items()), c.zero())
            a_pow = c.A.pow(i + j)
            want = wsum.scaled((-1) ** (i + j)) * a_pow
            got = eng.pair_block(i, j)
            if backend == EXACT:
                assert got == want, (i, j)
            else:
                scale = np.abs(wsum.nums).max() * np.abs(a_pow.nums).sum()
                assert np.abs(got.nums - want.nums).max() <= 1e-14 * scale, (i, j)


def test_pair_block_makes_no_fraction_addition(monkeypatch):
    # the winding sums of pair_block run on integer weights
    calls = 0
    add = Fraction.__add__

    def counting_add(a, b):
        nonlocal calls
        calls += 1
        return add(a, b)

    monkeypatch.setattr(Fraction, "__add__", counting_add)
    monkeypatch.setattr(Fraction, "__radd__", counting_add)
    eng = Engine(198, backend=EXACT)
    for i in range(1, 4):
        for j in range(i, 6):
            eng.pair_block(i, j)
    assert calls == 0


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


def _product_route(eng, k, kmax):
    """term_pair(k, kmax), left_row(k, kmax), start_row(k, kmax) and
    transfer_operator(k, kmax) as weighted sums of pair and chain blocks,
    each series a product (1 - A)^power block, from their formulas."""
    pb, cb, one_minus_a = eng.pair_block, eng.chain_block, eng.cache.one_minus_A

    def ws(terms):
        return sum(((one_minus_a.pow(power) * block).scaled(w)
                    for w, power, block in terms), eng.cache.zero())

    def nonzero(d):
        return {key: v for key, v in d.items() if not v.is_zero()}

    def term_pair(a, b):
        return ws((comb(a - 1, l1) * comb(b - 1, l2), l1 + l2, pb(a - l1, b - l2))
                  for l1 in range(a) for l2 in range(b))

    left = nonzero({s: ws((comb(k - 1, l), l, pb(s + 1, k - l)) for l in range(k))
                    .scaled(Fraction(-1, factorial(s))) for s in range(kmax - 1)})
    start = nonzero({s: term_pair(k - 1 - s, kmax).scaled(-perm(k - 1, s + 1))
                     for s in range(k - 1)})
    transfer = nonzero({key: ws((w, power, cb(i, j))
                                for (power, (i, j)), w in cell.items())
                        for key, cell in genfun.reduced_terms(k, kmax).items()})
    return term_pair(k, kmax), left, start, transfer


@pytest.mark.parametrize("K, kbig", [(4, 6), (18, 6), (40, 6), (200, 5)])
def test_exact_blocks_on_the_basis_equal_the_product_route(K, kbig):
    # exact engines build these entries as sum_r a_r Lambda_r + b_r A Lambda_r
    eng = Engine(K, backend=EXACT)
    for k in range(1, kbig + 1):
        for kmax in (k, k + 2):
            want = _product_route(eng, k, kmax)
            got = (eng.term_pair(k, kmax), eng.left_row(k, kmax),
                   eng.start_row(k, kmax), eng.transfer_operator(k, kmax))
            assert got == want, (K, k, kmax)


def _closed_form_basis(K, r):
    """[z^{2n}] Lambda_r and A Lambda_r, n <= K//2, summed in closed form:
    Lambda_r[n] = sum_F d_r(F) (F/n) C(2n, n-F), d_r(F) = sum_{f | F} C(f,
    r), and A = sqrt(1 - 4z^2) = 1 - sum_m 2 Catalan(m-1) z^{2m}."""
    half = K // 2
    d = [sum(comb(f, r) for f in range(1, F + 1) if F % f == 0)
         for F in range(half + 1)]
    lam = [sum(d[F] * F * comb(2 * n, n - F) for F in range(1, n + 1)) // n
           if n else 0 for n in range(half + 1)]
    a = [1] + [-2 * comb(2 * m - 2, m - 1) // m for m in range(1, half + 1)]
    return lam, [sum(a[m] * lam[n - m] for m in range(n + 1))
                 for n in range(half + 1)]


def test_exact_basis_store_does_not_depend_on_construction_order(monkeypatch):
    # one process-wide store serves every exact engine: a shorter engine
    # reads a prefix of it, a longer one extends it past the old top; a
    # fresh store, so the first engine builds it from nothing
    monkeypatch.setattr(pseries, "_EXACT_STORE", pseries._ExactStore())
    want = {}
    for K in (40, 200, 120, 200, 40):
        eng = Engine(K, backend=EXACT)
        half = K // 2
        for r in range(7):
            if (K, r) not in want:
                want[(K, r)] = _closed_form_basis(K, r)
            lam, a_lam = want[(K, r)]
            assert eng._basis_series(r, False) == lam, (K, r)
            assert eng._basis_series(r, True) == a_lam, (K, r)
        for F in range(half + 2):
            row = eng.cache._even_row(F)
            assert len(row) == half + 1, (K, F)
            assert row == [(F * comb(2 * n, n - F) // n if n else 1)
                           if n >= F else 0 for n in range(half + 1)], (K, F)


def test_exact_basis_store_serves_racing_threads(monkeypatch):
    # four threads on two cores build engines in different orders, each
    # extension racing the others' reads and extensions: every read is a
    # whole, correct prefix, since an extension is published by one
    # assignment of a new list
    monkeypatch.setattr(pseries, "_EXACT_STORE", pseries._ExactStore())
    # an extension from nothing to K = 400 takes milliseconds, longer than
    # the interpreter runs one thread between switches
    want = [_closed_form_basis(400, r) for r in range(4)]
    orders = ((400, 200, 40), (400, 40, 200), (200, 400, 40), (40, 200, 400))
    start = threading.Barrier(len(orders), timeout=60)
    errors = []

    def work(order):
        try:
            start.wait()
            for K in order:
                eng = Engine(K, backend=EXACT)
                for r in range(4):
                    got = eng._basis_series(r, False), eng._basis_series(r, True)
                    if got != tuple(v[: K // 2 + 1] for v in want[r]):
                        errors.append((K, r))
        except Exception as exc:  # reported through errors, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_basis_tables_are_the_winding_weights():
    # the integer identities behind `genfun._basis_table`
    for j in range(1, 9):
        for i in range(1, j + 1):
            pair, chain = genfun._pair_weights(i, j), genfun._chain_weights(i, j)
            for f in range(1, 61):
                assert sum(c * comb(f, r) for r, c in pair.items()) == \
                    comb(f - 1, i - 1) * comb(f, j), (i, j, f)
                assert sum(c * comb(f, r) for r, c in chain.items()) == \
                    comb(f + i - 1, j - 1), (i, j, f)
    # (1 - A)^power A^m = a(y) + b(y) A at y = (1 - A^2) / 4, for any number A
    for t in (Fraction(1, 3), Fraction(-5, 7), Fraction(9, 2)):
        y = (1 - t * t) / 4
        for power in range(9):
            for m in range(9):
                a, b = genfun._a_form(power, m)
                value = sum(c * y ** d for d, c in enumerate(a)) + \
                    t * sum(c * y ** d for d, c in enumerate(b))
                assert value == (1 - t) ** power * t ** m, (t, power, m)


def test_unmarked_term_is_the_closed_walk_count_series():
    # joint_genfun puts h0 where z d/dz log(2 / (1 + A)) stands
    for K in (12, 60):
        cache = BaseSeriesCache(K, backend=EXACT)
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
#
# The dense transfer operator Q(k) on the index set (rho, t), rho + t <=
# kmax - 2, and its boundary vectors <left(k)| and |right(k1, k2)>, written
# here from their formulas and not from genfun's weights: the reference that
# the s-indexed W(k), exit row and start row of genfun are checked against.

def _dense_index(kmax):
    return [(r, t) for r in range(max(kmax - 1, 0))
            for t in range(max(kmax - 1 - r, 0))]


def _dense_weights(k, kmax=None):
    """Q(k) as {(row, col): {(power, (i, j)): w}}.  Entry ((rho, t), (rho',
    t')) lives for m = k - 2 - rho - t - t' >= 0 and carries (k-1)!
    (-1)^(rho + eta) / (rho! t'! (t'+1)! eta! (m-eta)!) on (1 - A)^(m - eta)
    chain_block(t' + 1, rho' + eta + 2t' + 2), eta = 0..m."""
    kmax = kmax or k
    idx = _dense_index(kmax)
    out = {}
    for (rho, t) in idx:
        for (rhot, tt) in idx:
            m = k - 2 - rho - t - tt
            if m < 0:
                continue
            den = factorial(rho) * factorial(tt) * factorial(tt + 1)
            out[((rho, t), (rhot, tt))] = {
                (m - eta, (tt + 1, rhot + eta + 2 * tt + 2)): Fraction(
                    factorial(k - 1) * (-1) ** (rho + eta),
                    den * factorial(eta) * factorial(m - eta))
                for eta in range(m + 1)}
    return out


def _dense_q(eng, k, kmax=None):
    """Q(k) as {(row, col): nonzero series}."""
    out = {}
    for key, weights in _dense_weights(k, kmax).items():
        s = TruncatedSeries.zero(eng.K, eng.backend)
        for (power, (i, j)), w in weights.items():
            term = eng.cache.one_minus_A.pow(power) * eng.chain_block(i, j)
            s = s + term.scaled(w)
        if not s.is_zero():
            out[key] = s
    return out


def _dense_left(eng, k, kmax=None):
    """<left(k)|, at t = 0: (-1)^(rho + 1) sum_l C(k-1, l) (1 - A)^l
    pair_block(rho + 1, k - l)."""
    kmax = kmax or k
    out = {}
    for (rho, t) in _dense_index(kmax):
        if t != 0:
            continue
        s = TruncatedSeries.zero(eng.K, eng.backend)
        for l in range(k):
            term = eng.cache.one_minus_A.pow(l) * eng.pair_block(rho + 1, k - l)
            s = s + term.scaled(comb(k - 1, l))
        if not s.is_zero():
            out[(rho, t)] = s.scaled((-1) ** (rho + 1))
    return out


def _dense_right(eng, k1, k2, kmax=None):
    """|right(k1, k2)>: (-1)^(rho + 1) (k1-1)! / (rho! m!) term_pair(m + 1,
    k2), m = k1 - 2 - rho - t >= 0."""
    kmax = kmax or max(k1, k2)
    out = {}
    for (rho, t) in _dense_index(kmax):
        m = k1 - 2 - rho - t
        if m < 0:
            continue
        w = Fraction((-1) ** (rho + 1) * factorial(k1 - 1),
                     factorial(rho) * factorial(m))
        s = eng.term_pair(m + 1, k2).scaled(w)
        if not s.is_zero():
            out[(rho, t)] = s
    return out


def test_transfer_operator_row_vanishing(eng12):
    for k in (2, 3, 4):
        q = _dense_q(eng12, k, kmax=5)
        for (p, _qq) in q:
            assert p[0] + p[1] < k - 1
        # W(k) keeps only the rows s = rho + t that Q(k) keeps
        assert all(s < k - 1 for (s, _s2) in eng12.transfer_operator(k, kmax=5))


def test_transfer_operator_no_constant_term(eng12):
    for q in (_dense_q(eng12, 3), eng12.transfer_operator(3)):
        for s in q.values():
            assert s.coeffs[0] == 0 and s.coeffs[1] == 0


def test_transfer_operator_k2_entry(eng12):
    q = _dense_q(eng12, 2)
    assert set(q) == {((0, 0), (0, 0))}
    assert q[((0, 0), (0, 0))] == eng12.chain_block(1, 2)
    assert eng12.transfer_operator(2) == {(0, 0): eng12.chain_block(1, 2)}


def _apply(q, vec):
    """Q v against {index -> TruncatedSeries}."""
    out = {}
    for (p, qq), s in q.items():
        if qq in vec:
            out[p] = out[p] + s * vec[qq] if p in out else s * vec[qq]
    return out


def test_transfer_powers_vanish_on_excluded_rows(eng12):
    k = 3
    q = _dense_q(eng12, k, kmax=5)
    vec = {qq: TruncatedSeries.one(12, EXACT) for (_p, qq) in q}
    out = _apply(q, vec)
    for _ in range(3):
        for p, s in out.items():
            if p[0] + p[1] >= k - 1:
                assert s.is_zero()
        out = _apply(q, out)


def test_reduced_terms_are_the_dense_operator_reduced_on_s():
    # row (rho, t) of Q(k) is (-1)^rho / rho! row (0, rho + t), so Q(k)
    # acts on v[(rho, t)] = (-1)^rho / rho! y[s] as W(k) acts on y, with
    # W(k)[s, s'] = sum over rho' + t' = s' of (-1)^rho' / rho'! Q(k)[(0, s),
    # (rho', t')]; genfun writes W(k) directly
    for k in range(2, 15):
        for kmax in (k - 1, k, k + 1, k + 3):
            dense = _dense_weights(k, kmax)
            want = {}
            for ((rho, t), (rhot, tt)), weights in dense.items():
                if k <= 8:
                    head = dense[((0, rho + t), (rhot, tt))]
                    sign = Fraction((-1) ** rho, factorial(rho))
                    assert weights == {key: sign * w for key, w in head.items()}
                if rho:
                    continue
                cell = want.setdefault((t, rhot + tt), {})
                col = Fraction((-1) ** rhot, factorial(rhot))
                for key, w in weights.items():
                    cell[key] = cell.get(key, 0) + col * w
            got = genfun.reduced_terms(k, kmax)
            assert got == want, (k, kmax)
            assert all(type(w) is Fraction
                       for cell in got.values() for w in cell.values())


def test_exit_and_start_rows_are_the_rekeyed_dense_vectors(eng12):
    # L_k[s] = (-1)^s / s! <left(k)|(s, 0)>, y0[s] = |right(k1, k2)>(0, s)
    for k in range(1, 7):
        for kmax in range(1, 7):
            want = {s: v.scaled(Fraction((-1) ** s, factorial(s)))
                    for (s, _t), v in _dense_left(eng12, k, kmax).items()}
            assert eng12.left_row(k, kmax) == want, (k, kmax)
        for k2 in range(1, 7):
            want = {s: v for (rho, s), v in _dense_right(eng12, k, k2, 6).items()
                    if rho == 0}
            assert eng12.start_row(k, k2) == want, (k, k2)


def test_walk_equals_the_dense_transfer_operator():
    # the walk runs on the (k-1)-dimensional s = rho + t state; the dense
    # Q(k) on the (rho, t) index set gives the same series,
    # M_j = z d/dz <left(k)| Q(k)^(j-3) |right(k, k)> for j >= 3
    eng = Engine(40, backend=EXACT)
    for k in (3, 4, 5):
        jmax = 2 * eng.K // k
        got = eng.binomial_moment_series(k, jmax)
        q, left = _dense_q(eng, k), _dense_left(eng, k)
        vec = _dense_right(eng, k, k)
        for j in range(3, jmax + 1):
            want = TruncatedSeries.zero(eng.K, EXACT)
            for p, s in left.items():
                if p in vec:
                    want = want + s * vec[p]
            assert got[j] == want.zddz(), (k, j)
            vec = _apply(q, vec)


def test_left_vector_lives_at_t_zero(eng12):
    for k in (1, 2, 3):
        lv = _dense_left(eng12, k, kmax=4)
        assert all(t == 0 for (_r, t) in lv)


def test_right_vector_zero_for_first_argument_one(eng12):
    assert _dense_right(eng12, 1, 2, kmax=4) == {}
    assert eng12.start_row(1, 2) == {}


def test_walk_calls_the_transfer_operator(monkeypatch):
    # the benchmark's layer trace times Engine.transfer_operator: the walk
    # assembles each W(k) through it, once per tracked multiplicity
    calls = 0
    transfer_operator = Engine.transfer_operator

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return transfer_operator(self, *args)

    monkeypatch.setattr(Engine, "transfer_operator", counting)
    Engine(40).distribution(20, 3, 5)
    assert calls == 1


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


def _count_products(monkeypatch):
    """Patch TruncatedSeries.__mul__ to count calls; returns the counter."""
    calls = [0]
    mul = TruncatedSeries.__mul__

    def counting_mul(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    return calls


def test_joint_counts_share_the_resolvent_walk(monkeypatch):
    # starts on one (index, exponent) are summed before any product, the
    # walk runs on the s = rho + t state and its exits read one coefficient:
    # one walk for all start pairs does at most 3,000 exact products here,
    # where it did 5,410 with series exits, 8,371 on the (rho, t) state and
    # 24,250 as a walk per (k2, k3) start pair
    eng = Engine(24, backend=EXACT)
    products = _count_products(monkeypatch)
    joint_counts(eng, 12, (1, 2, 3, 4))
    assert products[0] <= 3000


def _count_lambert_passes(monkeypatch):
    """Patch BaseSeriesCache.lambert_sum to count calls; returns the counter."""
    calls = [0]
    lambert_sum = BaseSeriesCache.lambert_sum

    def counting(self, weight):
        calls[0] += 1
        return lambert_sum(self, weight)

    monkeypatch.setattr(BaseSeriesCache, "lambert_sum", counting)
    return calls


def test_distribution_exits_make_no_series_products(monkeypatch):
    # 128 of the 429 products the walk made with series exits were exits;
    # on the binomial Lambert basis the blocks make one Lambert pass per
    # Lambda_r and one product per A Lambda_r, r = 1..5: the walk made 301
    # products and 10 passes with a pass and products per block.  The
    # forward walk made 258 products here and 674 at (256, 3, 10); by
    # baby-step/giant-step (strides 4 and 8) it makes 94 and 138
    eng = Engine(200, backend=EXACT)
    products = _count_products(monkeypatch)
    passes = _count_lambert_passes(monkeypatch)
    counts, tail = eng.distribution(100, 3, 66)
    assert products[0] <= 94
    assert passes[0] <= 5
    assert sum(counts.values()) + tail == comb(200, 100) and tail == 0
    products[0] = 0
    counts, tail = Engine(512, backend=EXACT).distribution(256, 3, 10)
    assert products[0] <= 138
    assert sum(counts.values()) + tail == comb(512, 256)


@pytest.mark.parametrize("tracked,n", [((1,), 6), ((2,), 7), ((3,), 9),
                                       ((1, 2), 6), ((1, 3), 5),
                                       ((1, 2, 3, 4), 6), ((2, 5), 8)])
def test_joint_moments_are_the_genfun_coefficients(tracked, n):
    # the target-order walk reads the [z^{2n}] the series walk builds
    eng = Engine(2 * n, backend=EXACT)
    bounds = tuple(2 * n // k for k in tracked)
    gf = eng.joint_genfun(tracked, bounds)
    want = {e: s[2 * n] for e, s in gf.terms.items()}
    got = eng.joint_moments(n, tracked, bounds)
    assert {e: c for e, c in got.items() if c} == \
        {e: c for e, c in want.items() if c}
    assert all(type(c) is int for c in got.values())


def test_joint_counts_refuse_a_too_short_truncation():
    # 70 closed walks of length 8 need the series to order 8, as in
    # Engine.distribution; mixed_moment used to answer 0 there
    with pytest.raises(ValueError, match="truncation order too small"):
        joint_counts(Engine(6, backend=EXACT), 4, (1,))
    with pytest.raises(ValueError, match="truncation order too small"):
        Engine(6, backend=EXACT).distribution(4, 1, 2)
    for spec in ({1: 1}, {1: 2}, {1: 3}):
        with pytest.raises(ValueError, match="truncation order too small"):
            Engine(6, backend=EXACT).mixed_moment(spec, 4)


def test_joint_counts_with_nothing_tracked():
    eng = Engine(8, backend=EXACT)
    for n in range(5):
        got = joint_counts(eng, n, ())
        assert got == dict(oracle_counts(n, 1, ())) == {(): comb(2 * n, n)}, n


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
    # independent crossing-profile oracle at a size enumeration cannot reach:
    # the one DP transition, in exact integers and in floats
    n = 40
    eng = Engine(2 * n, backend=EXACT)
    total = comb(2 * n, n)
    for k in range(1, 7):
        counts, _ = eng.distribution(n, k, 2 * n)
        dp = local_time_distribution(n, k)
        assert {l: c for l, c in counts.items() if c} == dp
        want = np.array([counts.get(l, 0) / total for l in range(2 * n + 1)])
        got = local_time_probabilities(n, k, 2 * n)
        nonzero = want != 0
        np.testing.assert_allclose(got[nonzero], want[nonzero], rtol=1e-13,
                                   atol=0)
        assert np.all(got[~nonzero] == 0)
    counts, _ = eng.distribution(n, 3, 5)
    assert local_time_distribution(n, 3, 5) == \
        {l: c for l, c in counts.items() if c and l <= 5}


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
    moments = [s[2 * n] for s in eng.binomial_moment_series(k, jmax)]
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
    assert got == [0.35060255231260073, 0.4053871072902272, 0.1721922667740257,
                   0.04783909421976862, 0.01610311098637974, 0.0053222954155869185,
                   0.0017342545487173823, 0.0005587027439421842,
                   0.00017831779129065097]


def test_float_k2_probabilities_trace_under_16mb():
    # the pair blocks sweep the ballot rows a block at a time: the dense
    # table of every row that did not underflow, 50 MB at this order and a
    # 55 MB traced peak, must not come back (the sweep peaks near 7 MB)
    tracemalloc.start()
    try:
        Engine(7828, backend="float").probabilities(3914, 2, 20)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, peak


@pytest.mark.parametrize("n", [300, 600, 2000])
def test_float_k2_probabilities_match_crossing_dp_to_l40(n):
    # read off the count series with no cut inversion, every value to l = 40
    # is positive and tracks the all-positive DP in relative terms; l <= 2
    # keeps the float series' known sixth-digit drift
    got = Engine(2 * n, backend="float").probabilities(n, 2, 40)
    dp = local_time_probabilities(n, 2, 40)
    assert min(got) >= 0
    for l, (g, d) in enumerate(zip(got, dp)):
        assert abs(g - d) <= (3e-6 if l <= 2 else 1e-7) * d, l


@pytest.mark.xfail(strict=True, reason="the float k = 2 series loses the "
                   "top rows to cancellation: Pr(N_4 = 297) reads 8.6% below "
                   "the DP and Pr(N_4 = 300) reads -7.0e-180 where the count "
                   "is 0 (ROADMAP item 9)")
def test_float_k2_probabilities_nonnegative_at_n300():
    # what `walkrange dist --n 300 --k 2 --lmax 300` prints, against the DP
    got = Engine(600, backend="float").probabilities(300, 2, 300)
    dp = local_time_probabilities(300, 2, 300)
    assert min(got) >= 0
    for l, (g, d) in enumerate(zip(got, dp)):
        assert abs(g - d) <= 0.01 * d, l


@pytest.mark.xfail(strict=True, reason="the float k = 2 series loses the "
                   "top rows: from l = 519 (Pr < 4e-296) it is more than 1% "
                   "off the DP, which an extended-precision run of the DP "
                   "meets to 5e-14 down to l = 525 (ROADMAP item 9)")
def test_float_k2_probabilities_nonnegative_at_n600():
    # no value is negative since the ballot sweep (the B-power table left
    # 19, from l = 538 on); the DP is compared where it holds 1e-300 or more
    got = Engine(1200, backend="float").probabilities(600, 2, 600)
    dp = local_time_probabilities(600, 2, 600)
    assert min(got) >= 0
    for l, (g, d) in enumerate(zip(got, dp)):
        if d >= 1e-300:
            assert abs(g - d) <= 0.01 * d, l


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_doublepoint_series_share_one_lambert_sweep(backend, monkeypatch):
    # the k = 2 moment and count series and the k = 1 series read the same
    # pair blocks: all three come from one sweep of three weights
    eng = Engine(40, backend=backend)
    calls = []
    lambert_sums = BaseSeriesCache.lambert_sums

    def counting(self, weights):
        calls.append(len(weights))
        return lambert_sums(self, weights)

    monkeypatch.setattr(BaseSeriesCache, "lambert_sums", counting)
    eng.doublepoint_moment_series(4)
    eng.doublepoint_count_series(4)
    eng.singlepoint_series()
    assert [c for c in calls if c] == [3]


def test_doublepoint_count_series_shorter_l_max_gives_a_prefix():
    # each call builds its series afresh: a shorter l_max reads the head of
    # a longer one, on one engine or a fresh one
    want = Engine(40, backend=EXACT).doublepoint_count_series(9)
    eng = Engine(40, backend=EXACT)
    for l_max in (1, 5, 2, 9, 0):
        assert eng.doublepoint_count_series(l_max) == want[: l_max + 1]


def test_doublepoint_count_series_equal_exact_counts():
    # the u = v - 1 closed form against the inverted resolvent moments
    eng = Engine(40, backend=EXACT)
    series = eng.doublepoint_count_series(20)
    for n in range(1, 21):
        counts, _ = eng.distribution(n, 2, n)
        assert [s[2 * n] for s in series] == \
            [counts.get(l, 0) for l in range(21)], n


@pytest.mark.parametrize("k,closed_form,l",
                         [(1, "singlepoint_series", 1),
                          (2, "doublepoint_count_series", 3)])
def test_distribution_checks_each_count_on_its_closed_form(monkeypatch, k,
                                                           closed_form, l):
    # one closed-form count off by one at z^{2n} fails the exact route
    n = 5
    eng = Engine(2 * n, backend=EXACT)
    build = getattr(Engine, closed_form)

    def off_by_one(self, *args):
        series = list(build(self, *args))
        series[l] = series[l] + self.cache.monomial(1, 2 * n)
        return series

    monkeypatch.setattr(Engine, closed_form, off_by_one)
    with pytest.raises(AssertionError,
                       match=f"dual-route mismatch at k={k}, l={l}:"):
        eng.distribution(n, k, 2 * n)


def test_distribution_checks_singlepoint_counts_past_two(monkeypatch):
    # N_2 <= 2 on every closed walk: a count at l = 3 fails the check
    counts_of = genfun.joint_counts

    def one_more_walk(engine, n, tracked):
        return {**counts_of(engine, n, tracked), (3,): 1}

    monkeypatch.setattr(genfun, "joint_counts", one_more_walk)
    with pytest.raises(AssertionError,
                       match="dual-route mismatch at k=1, l=3: 1 != 0"):
        Engine(10, backend=EXACT).distribution(5, 1, 10)


def test_distribution_past_k2_consults_no_closed_form(monkeypatch):
    def no_closed_form(*args):
        raise AssertionError("a closed form consulted for k = 3")

    monkeypatch.setattr(Engine, "singlepoint_series", no_closed_form)
    monkeypatch.setattr(Engine, "doublepoint_count_series", no_closed_form)
    counts, tail = Engine(12, backend=EXACT).distribution(6, 3, 12)
    assert {l: c for l, c in counts.items() if c} == \
        {l: c for (l,), c in oracle_counts(6, 1, (3,)).items()}
    assert tail == 0


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
        assert s[40] == want, spec


def test_mixed_moment_exits_only_onto_its_own_monomial(monkeypatch):
    # the walk bounded by the spec passes every lower monomial, but exits
    # only onto the spec's, and of the single and pair terms only those on
    # the spec's monomial land; values as pinned above and by the oracle
    exits = []
    add = genfun.MarkedSeries._add

    def recording_add(self, e, c):
        exits.append(e)
        return add(self, e, c)

    monkeypatch.setattr(genfun.MarkedSeries, "_add", recording_add)
    eng = Engine(40, backend=EXACT)
    for spec, n, want in (({1: 1, 2: 1, 3: 1, 4: 1}, 20, 183480760160),
                          ({1: 2, 3: 1}, 20, 38519599360),
                          ({3: 4}, 6, oracle_mixed_moment(6, 1, {3: 4})),
                          ({2: 5}, 6, oracle_mixed_moment(6, 1, {2: 5})),
                          ({1: 1}, 6, oracle_mixed_moment(6, 1, {1: 1})),
                          ({2: 2}, 6, oracle_mixed_moment(6, 1, {2: 2})),
                          ({1: 1, 2: 1}, 6,
                           oracle_mixed_moment(6, 1, {1: 1, 2: 1}))):
        exits.clear()
        assert eng.mixed_moment(spec, n) == want, spec
        assert exits and set(exits) == {tuple(spec.values())}, spec


def test_mixed_moment_builds_no_term_off_its_monomial(monkeypatch):
    # a single or pair term is built only on an admissible exponent: the
    # depth-4 query builds none, at 41 exact products where it made 53, and
    # 8 once its blocks (4 Lambert passes, not 9) sit on the Lambda_r basis
    eng = Engine(198, backend=EXACT)
    products = _count_products(monkeypatch)
    passes = _count_lambert_passes(monkeypatch)
    assert eng.mixed_moment({3: 4}, 99) == \
        3296043867370737743128245641313440727335752937800011874368
    assert products[0] <= 8
    assert passes[0] <= 4


def test_walk_without_a_start_builds_no_steps(monkeypatch):
    # for k > 2n no start exponent is extendable, so the walk returns
    # before it assembles W(k), which grows with k
    def no_steps(*args):
        raise AssertionError("a step built for a walk with no start")

    monkeypatch.setattr(Engine, "transfer_operator", no_steps)
    monkeypatch.setattr(Engine, "left_row", no_steps)
    assert Engine(10).distribution(5, 40, 3) == ({0: 252}, 0)
    assert Engine(10).mixed_moment({30: 3}, 5) == 0


# -- the one-marker walk by baby-step/giant-step ----------------------------------

def _walk_strides(monkeypatch, force=None):
    """Record (stride, exits) of every one-marker walk; with force, the walk
    runs at the stride force(exits) instead of the cost model's."""
    seen = []
    walk_stride = genfun._walk_stride

    def recording(left, move, start, order, exits):
        m = (walk_stride(left, move, start, order, exits) if force is None
             else force(exits))
        seen.append((m, exits))
        return m

    monkeypatch.setattr(genfun, "_walk_stride", recording)
    return seen


@pytest.mark.parametrize("n", [40, 60, 100])
def test_giant_walk_counts_equal_the_exact_dp(monkeypatch, n):
    # the crossing-profile DP shares no code with the engine; where the cost
    # model keeps the forward walk (stride D), the stride isqrt(D) is forced
    eng = Engine(2 * n, backend=EXACT)
    for k in range(2, 7):
        dp = local_time_distribution(n, k, 2 * n // k)
        strides = _walk_strides(monkeypatch)
        counts, _ = eng.distribution(n, k, 2 * n)
        [(m, exits)] = strides
        assert exits == 2 * n // k - 2
        if m == exits:
            _walk_strides(monkeypatch, isqrt)
            counts, _ = eng.distribution(n, k, 2 * n)
        assert {l: c for l, c in counts.items() if c} == dp, (n, k, m)


def test_giant_walk_counts_equal_the_oracle(monkeypatch):
    # enumeration, at the cost model's stride and at stride 2 (the least
    # giant step, one squaring of W); the model picks 2 or the forward walk
    for force in (None, lambda exits: 2):
        strides = _walk_strides(monkeypatch, force)
        for n in range(1, 10):
            eng = Engine(2 * n, backend=EXACT)
            for k in range(1, 5):
                want = {l: c for (l,), c in oracle_counts(n, 1, (k,)).items()}
                counts, tail = eng.distribution(n, k, 2 * n)
                assert {l: c for l, c in counts.items() if c} == want, (n, k)
                assert tail == 0
        assert {m if m < exits else "D" for m, exits in strides} == {2, "D"}
        assert force is None or {m for m, _ in strides} == {2}


@pytest.mark.parametrize("n,k", [(40, 3), (30, 5)])
def test_giant_walk_equals_the_forward_walk_at_every_stride(monkeypatch, n,
                                                            k):
    # the forward walk is the stride D: one giant row reads every state
    eng = Engine(2 * n, backend=EXACT)
    bounds = (2 * n // k,)
    _walk_strides(monkeypatch, lambda exits: exits)
    forward = eng.joint_moments(n, (k,), bounds)
    assert forward[(3,)] > 0
    exits = bounds[0] - 2
    for m in range(1, exits + 1):
        strides = _walk_strides(monkeypatch, lambda exits: m)
        assert eng.joint_moments(n, (k,), bounds) == forward, m
        assert strides == [(m, exits)]


def test_giant_walk_edges(monkeypatch):
    # n = 0, n = 1, k > 2n and D = 2n // k - 2 <= 0 have no walk to run; at
    # D = 1 the one exit is read off the start, with no W(k) built (at
    # (45, 30) it took 17 of 24 s under cProfile)
    def no_moves(*args):
        raise AssertionError("W(k) built for a walk that makes no move")

    monkeypatch.setattr(Engine, "transfer_operator", no_moves)
    strides = _walk_strides(monkeypatch)
    for n, k in ((0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (5, 11), (3, 3),
                 (5, 4), (6, 6), (9, 7)):
        eng = Engine(2 * n, backend=EXACT)
        want = {l: c for (l,), c in oracle_counts(n, 1, (k,)).items()}
        assert joint_counts(eng, n, (k,)) == {(l,): c for l, c in want.items()}
    assert strides == []
    for n, k in ((3, 2), (5, 3), (6, 4), (8, 5)):
        eng = Engine(2 * n, backend=EXACT)
        want = {l: c for (l,), c in oracle_counts(n, 1, (k,)).items()}
        assert joint_counts(eng, n, (k,)) == {(l,): c for l, c in want.items()}
    assert strides == [(1, 1)] * 4


def test_only_one_marker_walks_take_a_stride(monkeypatch):
    # several markers mix the W(k) of several words and walk forward, with
    # no stride; one marker walks the powers of one W(k), so counts, a
    # target exponent and the series walk all choose one
    strides = _walk_strides(monkeypatch)
    eng = Engine(18, backend=EXACT)
    assert joint_counts(eng, 9, (2, 3)) == dict(oracle_counts(9, 1, (2, 3)))
    assert eng.mixed_moment({2: 1, 3: 3}, 9) == \
        oracle_mixed_moment(9, 1, {2: 1, 3: 3})
    gf = eng.joint_genfun((1, 3))
    assert gf.coefficient((1, 3))[18] == oracle_mixed_moment(9, 1, {1: 1, 3: 3})
    assert strides == []
    assert eng.mixed_moment({3: 4}, 9) == oracle_mixed_moment(9, 1, {3: 4})
    gf = eng.joint_genfun((3,))
    assert gf.coefficient((3,))[18] == oracle_mixed_moment(9, 1, {3: 3})
    assert joint_counts(eng, 9, (3,)) == dict(oracle_counts(9, 1, (3,)))
    assert [exits for _, exits in strides] == [2, 4, 4]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_target_moments_equal_the_oracle_at_every_stride(monkeypatch, k):
    # a target exponent m reads one exit, c_m, whatever the stride
    eng = Engine(18, backend=EXACT)
    for n in range(1, 10):
        for m in range(3, 2 * n // k + 1):
            want = oracle_mixed_moment(n, 1, {k: m})
            for stride in range(1, m - 1):
                strides = _walk_strides(monkeypatch, lambda exits: stride)
                assert eng.mixed_moment({k: m}, n) == want, (n, m, stride)
                assert strides == [(stride, m - 2)]


@pytest.mark.parametrize("k", [2, 3])
def test_target_moments_equal_the_exact_dp_at_every_stride(monkeypatch, k):
    # sum_l C(l, m) N_l over the crossing-profile DP's counts at n = 40
    n = 40
    dp = local_time_distribution(n, k, 2 * n // k)
    eng = Engine(2 * n, backend=EXACT)
    for m in (3, 4, 9, max(l for l, c in dp.items() if c)):
        want = sum(comb(l, m) * c for l, c in dp.items())
        assert want > 0
        for stride in range(1, m - 1):
            _walk_strides(monkeypatch, lambda exits: stride)
            assert eng.mixed_moment({k: m}, n) == want, (m, stride)


def test_moment_series_equal_at_every_stride(monkeypatch):
    # the series walk keeps whole series at its exits, at any stride
    eng = Engine(40, backend=EXACT)
    _walk_strides(monkeypatch, lambda exits: exits)
    forward = eng.binomial_moment_series(3, 12)
    assert len(forward) == 13 and not forward[12].is_zero()
    for stride in range(1, 11):
        strides = _walk_strides(monkeypatch, lambda exits: stride)
        assert eng.binomial_moment_series(3, 12) == forward, stride
        assert strides == [(stride, 10)]


def test_joint_counts_keep_the_order_of_tracked():
    # keys follow tracked as given, as the enumeration's do; the series
    # walk reads its bounds in that order too
    for tracked in ((3, 1), (3, 1, 2), (4, 2, 1)):
        for n in (5, 6):
            assert joint_counts(Engine(2 * n, backend=EXACT), n, tracked) == \
                dict(oracle_counts(n, 1, tracked)), (tracked, n)
    gf = Engine(12, backend=EXACT).joint_genfun((3, 1), (1, 4))
    assert gf.coefficient((1, 2))[12] == oracle_mixed_moment(6, 1, {3: 1, 1: 2})


def test_a_repeated_multiplicity_is_refused():
    # enumeration counts only the diagonal for a k tracked twice, where the
    # expansion gave off-diagonal, even negative, counts
    assert dict(oracle_counts(6, 1, (3, 3))) == {
        (0, 0): 440, (1, 1): 120, (2, 2): 316, (3, 3): 48}
    eng = Engine(12, backend=EXACT)
    for call in (lambda: joint_counts(eng, 6, (3, 3)),
                 lambda: joint_counts(eng, 0, (1, 2, 1)),
                 lambda: eng.joint_moments(6, (3, 3), (4, 4)),
                 lambda: eng.joint_genfun((2, 2))):
        with pytest.raises(ValueError, match="tracked twice"):
            call()


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
    with pytest.raises(ValueError):
        eng.joint_moments(4, (1, 2), (8, 4))
    # the walk and its entries are exact-only too
    for call in (lambda: eng.term_pair(2, 2), lambda: eng.left_row(2),
                 lambda: eng.start_row(3, 3), lambda: eng.transfer_operator(3),
                 lambda: eng.joint_genfun((1,), (1,)),
                 lambda: eng.binomial_moment_series(2, 2)):
        with pytest.raises(ValueError):
            call()


def test_k2_check_does_not_read_the_walk_basis(monkeypatch):
    # a wrong T(2,2) table in the walk must trip the k = 2 dual-route check
    basis_table = genfun._basis_table

    def broken(kind, k, kmax):
        table = basis_table(kind, k, kmax)
        if (kind, k, kmax) != ("pair", 2, 2):
            return table
        return {key: (2 * den, coeffs) for key, (den, coeffs) in table.items()}

    monkeypatch.setattr(genfun, "_basis_table", broken)
    with pytest.raises(AssertionError, match="dual-route mismatch"):
        Engine(24, backend="exact").distribution(12, 2, 12)


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


def test_range_distribution_counts_in_the_seed_type():
    # ints by default; a Decimal seed under an exact context gives the same
    # counts as Decimals
    for n in range(51):
        hist = range_distribution(n)
        assert all(type(c) is int for c in hist.values())
        for m_max in (None, 1, n // 2):
            with localcontext(_EXACT_DECIMAL):
                dec = range_distribution(
                    n, m_max, total=Decimal(comb(2 * n, n)))
            assert all(type(c) is Decimal for c in dec.values())
            assert dec == range_distribution(n, m_max)


def range_count_series(cache, m):
    """Series route for the range-m count (used to cross-check the ballot route)."""
    def log_term(t):
        s = TruncatedSeries.zero(cache.K, cache.backend)
        j = 1
        while t * j <= cache.K // 2:
            s = s - cache.b_even_power(t * j).scaled(Fraction(1, j))
            j += 1
        return s

    bracket = log_term(m).scaled(2) - log_term(m - 1) - log_term(m + 1)
    return bracket.zddz()


def test_range_series_route_agrees_with_ballot_route():
    cache = BaseSeriesCache(20, backend=EXACT)
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
    cache = BaseSeriesCache(8, backend=EXACT)
    w = cache.h0
    got = vertex_factor(0, 2, w)
    want = (w / (cache.one + w)).pow(2).scaled(Fraction(1, 2))
    assert got == want
    got_q = vertex_factor(2, 1, w)
    # q=2, k=1: (-1) (1/2) C(0,0) C(2,1) / (1+w)
    assert got_q == (cache.one / (cache.one + w)).scaled(-1)


def vertex_factor_series_form(q, k, w, terms=80):
    """Unsummed proof form of the vertex factor, truncated after `terms`.

    ((-1)^q / q!) (1+w)^q sum_{m >= max(k,q)} C(m,k) (m-1)!/(m-q)! w^{m-q} (-1)^{m+k}

    Numeric w with |w| < 1 only; used to cross-validate the closed form.
    """
    if q < 1:
        raise ValueError("the proof form covers q >= 1")
    m0 = max(k, q)
    acc = 0.0
    for m in range(m0, m0 + terms):
        acc += (comb(m, k) * (factorial(m - 1) / factorial(m - q))
                * w ** (m - q) * (-1) ** (m + k))
    return (-1) ** q / factorial(q) * (1 + w) ** q * acc


def test_vertex_factor_resummation():
    for q in range(1, 7):
        for k in range(1, 7):
            for w in (-0.3, -0.1, 0.05, 0.2, 0.3):
                closed = vertex_factor(q, k, w)
                series = vertex_factor_series_form(q, k, w, terms=400)
                assert abs(closed - series) < 1e-12, (q, k, w)
