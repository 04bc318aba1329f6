"""Exact d=1 engine for the joint distribution of visit multiplicities.

The counting function over closed walks,

    sum_w prod_k (1 + u_k)^{N_{2k}(w)} z^{length(w)},

is assembled from single and pair terms and a transfer-operator resolvent
for three or more markers; under z d/dz its unmarked term is the closed-walk
count series h0.  Expanding in the markers u_k gives joint binomial moments
sum_w prod_k C(N_{2k}, j_k); one binomial inversion, on exact integers,
turns those into occupancy counts (for k <= 2 the closed forms are the float
route and the exact route's check).  Every exact count is a coefficient at
order 2n of `Engine._marked`: the single and pair terms plus one walk,
`Engine._accumulate_resolvent`.  Count queries (`joint_counts`, its
marginal `distribution`, and `mixed_moment`) give the walk the target order
2n: each exit then adds one coefficient, a dot product, and only
`joint_genfun` keeps whole series.  The walk runs on the state y[s], s <
kmax - 1: it starts from every u_{k2} u_{k3} `start_row(k2, k3)` at once, is
stepped for u_k by W(k) (`reduced_terms`, assembled by `transfer_operator`)
and leaves through the exit row `left_row(k)`.  With one tracked
multiplicity the walk is the powers of one operator, and `_giant_walk`
reads its exits by baby-step/giant-step, from about sqrt(2n/k) states
instead of 2n/k steps.  W(k) is the transfer operator Q(k) on the index
set (rho, t) reduced to s = rho + t, the one transfer form built here; Q(k)
has rank k - 1 and factors through it.  Everything here was validated
coefficient-by-coefficient against exhaustive walk enumeration.

Building blocks (cache = BaseSeriesCache):

    pair_block(i,j)  = (-1)^{i+j} A^{i+j} sum_f (1/f) C(f,i) C(f,j) tail_f
                     = ((-1)^{i+j} / i) A^{i+j} sum_f C(f-1,i-1) C(f,j) tail_f
    chain_block(i,j) = A^j sum_{f>=max(1,j-i)} C(f+i-1, j-1) tail_f

with tail_f = B^{2f}/(1 - B^{2f}); the second form of pair_block, from
C(f,i)/f = C(f-1,i-1)/i for i, f >= 1, puts integer weights on every
winding sum.  The f-sums are cut at f = K//2, which is exact below order K
because B^{2f} = O(z^{2f}).

Those weights are integer-valued polynomials in f, so every block lies on
the binomial Lambert basis

    Lambda_r = sum_f C(f, r) tail_f:

    C(f+i-1, j-1)       = sum_r C(i-1, j-1-r) C(f, r)      (Vandermonde),
    C(f-1, i-1) C(f, j) = sum_r c_r C(f, r),

with c_r the r-th forward difference of the left side at f = 0.  Each
factor (1 - A)^p A^m reduces by A^2 = 1 - 4z^2 to a(z^2) + b(z^2) A, so
every entry of term_pair, left_row, start_row and W(k) is

    sum_r a_r(z^2) Lambda_r + b_r(z^2) A Lambda_r.

The entries are built this way only (`_basis_table`, integer tables built
once per process): one Lambert pass per Lambda_r, one product per A
Lambda_r, and shift-and-add.  The walk is exact-only; float engines serve
the k <= 2 closed forms, which take their pair terms from pair_block, so the
exact k = 2 check shares no table with the walk.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, perm, prod

from .errors import DomainError, MarkerOverflow, NonUnit
from .pseries import EXACT, BaseSeriesCache, TruncatedSeries, _valuation


def reduced_terms(k, kmax=None):
    """The weights of W(k): {(s, s'): {(power, (i, j)): w}}, entry (s, s')
    being the sum of w (1 - A)^power chain_block(i, j), for s < min(k, kmax)
    - 1 and s' < kmax - 1.

    W(k) is the transfer operator Q(k) on the index set (rho, t), rho + t <=
    kmax - 2, reduced to s = rho + t.  Row (rho, t) of Q(k) is (-1)^rho /
    rho! row (0, s), so Q(k) keeps the form v[(rho, t)] = (-1)^rho / rho!
    y[s], and W(k)[s, s'] sums (-1)^rho' / rho'! Q(k)[(0, s), (rho', t')]
    over rho' + t' = s'.  That column (rho', t') lives for t' <= m0 = k - 2
    - s, and with m = m0 - t' it carries (-1)^(rho' + eta) (k-1)! / (rho'!
    t'! (t'+1)! eta! (m-eta)!) on (1 - A)^(m - eta) chain_block(t' + 1,
    rho' + eta + 2t' + 2), eta = 0..m.  Each (power, (i, j)) occurs once in
    an entry, since i fixes t' and then j fixes eta."""
    kmax = kmax or k
    f = factorial(k - 1)
    cells = {}
    for s in range(min(k, kmax) - 1):
        m0 = k - 2 - s
        for s2 in range(kmax - 1):
            cell = cells[(s, s2)] = {}
            for rhot in range(max(s2 - m0, 0), s2 + 1):
                tt, m = s2 - rhot, m0 - s2 + rhot
                den = factorial(rhot) * factorial(tt) * factorial(tt + 1)
                for eta in range(m + 1):
                    cell[(m - eta, (tt + 1, rhot + eta + 2 * tt + 2))] = Fraction(
                        (-1) ** (rhot + eta) * f,
                        den * factorial(eta) * factorial(m - eta))
    return cells


def _block_terms(kind, k, kmax):
    """One block table as {key: terms}, read by `_basis_table`: its entry at
    key is the sum of w (1 - A)^power block(i, j) over the (w, power, block,
    i, j) of terms, w rational, block "pair" (`Engine.pair_block`) or
    "chain" (`Engine.chain_block`).  The kinds:

        "pair", k <= kmax:  term_pair(k, kmax), under the key None;
        "left":             the exit row left_row(k, kmax), keyed by s;
        "transfer":         W(k) of `reduced_terms(k, kmax)`, keyed by (s, s')."""
    if kind == "pair":
        return {None: [(comb(k - 1, l1) * comb(kmax - 1, l2), l1 + l2,
                        "pair", k - l1, kmax - l2)
                       for l1 in range(k) for l2 in range(kmax)]}
    if kind == "left":
        return {s: [(Fraction(-comb(k - 1, l), factorial(s)), l, "pair",
                     s + 1, k - l) for l in range(k)]
                for s in range(kmax - 1)}
    return {key: [(w, power, "chain", i, j)
                  for (power, (i, j)), w in cell.items()]
            for key, cell in reduced_terms(k, kmax).items()}


def _pair_weights(i, j):
    """{r: c_r}, i <= j, with C(f-1, i-1) C(f, j) = sum_r c_r C(f, r) for
    every f >= 0: c_r is the r-th forward difference of the left side at f
    = 0, an integer, and c_r = 0 unless j <= r <= i + j - 1."""
    vals = [comb(f - 1, i - 1) * comb(f, j) if f else 0 for f in range(i + j)]
    diffs = ((r, sum((-1) ** (r - f) * comb(r, f) * vals[f] for f in range(r + 1)))
             for r in range(j, i + j))
    return {r: c for r, c in diffs if c}


def _chain_weights(i, j):
    """{r: C(i-1, j-1-r)}, j >= i: C(f+i-1, j-1) = sum_r C(i-1, j-1-r) C(f, r)
    (Vandermonde)."""
    return {r: comb(i - 1, j - 1 - r) for r in range(max(0, j - i), j)}


def _trim(p):
    """The polynomial p without its trailing zero coefficients."""
    p = tuple(p)
    while p and not p[-1]:
        p = p[:-1]
    return p


@cache
def _a_form(power, m):
    """(a, b) with (1 - A)^power A^m = a(y) + b(y) A, y = z^2: integer
    coefficient tuples.  By the binomial theorem it is sum_i C(power, i)
    (-1)^i A^(m + i), and A^(2j) = (1 - 4y)^j."""
    ab = [0] * ((power + m) // 2 + 1), [0] * ((power + m) // 2 + 1)
    for i in range(power + 1):
        j, odd = divmod(m + i, 2)
        for d in range(j + 1):
            ab[odd][d] += (-1) ** i * comb(power, i) * comb(j, d) * (-4) ** d
    return _trim(ab[0]), _trim(ab[1])


@cache
def _basis_table(kind, k, kmax):
    """`_block_terms(kind, k, kmax)` on the binomial Lambert basis Lambda_r
    = sum_f C(f, r) tail_f, as {key: (den, ((r, a_r, b_r), ...))}: the
    entry is (1/den) sum_r (a_r(z^2) Lambda_r + b_r(z^2) A Lambda_r), with
    integer coefficient tuples a_r, b_r.

    A term w (1 - A)^power block(i, j) is q (1 - A)^power A^m sum_r c_r
    Lambda_r: chain_block(i, j) has q = w, m = j and the c_r of
    `_chain_weights`; pair_block(i, j), i <= j, has q = (-1)^{i+j} w / i, m =
    i + j and the c_r of `_pair_weights`.  (1 - A)^power A^m is `_a_form`.
    The table does not depend on the truncation order, so one process
    builds it once."""
    table = {}
    for key, terms in _block_terms(kind, k, kmax).items():
        parts = []
        for w, power, block, i, j in terms:
            if block == "pair":
                i, j = min(i, j), max(i, j)
                q, m = Fraction((-1) ** (i + j) * w, i), i + j
                weights = _pair_weights(i, j)
            else:
                q, m, weights = Fraction(w), j, _chain_weights(i, j)
            parts.append((q, _a_form(power, m), weights))
        den = lcm(*(q.denominator for q, _, _ in parts))
        coeffs = {}
        for q, ab, weights in parts:
            num = q.numerator * (den // q.denominator)
            for r, c in weights.items():
                acc = coeffs.setdefault(r, ([], []))
                for out, poly in zip(acc, ab):
                    out.extend([0] * (len(poly) - len(out)))
                    for d, x in enumerate(poly):
                        out[d] += num * c * x
        table[key] = (den, tuple((r, _trim(a), _trim(b))
                                 for r, (a, b) in sorted(coeffs.items())
                                 if any(a) or any(b)))
    return table


def _as_int(x):
    """Exact conversion of a rational that must be integral."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise AssertionError(f"expected an integer count, got {x}")
        return x.numerator
    return int(x)


class MarkedSeries:
    """Polynomial in marker variables with TruncatedSeries coefficients.

    Exponent vectors are bounded per marker and by the total weight cap
    sum_i k_i * e_i <= K: a walk of length 2n has sum_k 2k N_{2k} = 4n, so
    heavier monomials cannot contribute below order K.

    With a target order N, each coefficient is kept as its scalar [z^N]
    only: `add_product` then reads [z^N] of a product as one dot product
    and forms no series, and the weight cap is N, since walks of length N
    have sum_k k N_{2k} = N.  With a target monomial, every other monomial
    is dropped.
    """

    __slots__ = ("markers", "bounds", "K", "order", "target", "terms")

    def __init__(self, markers, bounds, K, order=None, target=None):
        self.markers = tuple(markers)
        self.bounds = tuple(bounds)
        self.K = K if order is None else min(K, order)
        self.order = order
        self.target = None if target is None else tuple(target)
        self.terms = {}

    def _admissible(self, e):
        if self.target is not None and e != self.target:
            return False
        if any(x > b for x, b in zip(e, self.bounds)):
            return False
        return sum(k * x for k, x in zip(self.markers, e)) <= self.K

    def _extendable(self, e):
        """Whether e with one more marker, in some slot, is still admissible."""
        if any(x > b for x, b in zip(e, self.bounds)):
            return False
        w = sum(k * x for k, x in zip(self.markers, e))
        return any(x < b and w + k <= self.K
                   for k, x, b in zip(self.markers, e, self.bounds))

    def add_term(self, e, series):
        """Add series on e, which the caller has checked is admissible, so
        that no term is built for a monomial that would drop it."""
        self._add(e, series if self.order is None else series[self.order])

    def add_product(self, e, a, b):
        """Add a * b on e; at a target order only its [z^N], a dot product."""
        if self._admissible(e):
            self._add(e, a * b if self.order is None
                      else a.mul_coefficient(b, self.order))

    def _add(self, e, c):
        if c.is_zero() if self.order is None else not c:
            return
        self.terms[e] = self.terms[e] + c if e in self.terms else c

    def coefficient(self, e):
        return self.terms.get(tuple(e))


class Engine:
    """Joint-distribution calculator at one truncation order and backend."""

    def __init__(self, K, backend=None):
        self.cache = BaseSeriesCache(K, backend)
        self.K = self.cache.K
        self.backend = self.cache.backend
        self._pair = {}
        self._chain = {}
        self._pows = {}
        self._basis = {}
        self._term_pair = {}

    # -- building blocks -----------------------------------------------------

    def _power(self, base, m):
        """base^m for base A or 1 - A of the cache, each power built once."""
        pows = self._pows.setdefault(id(base), [self.cache.one, base])
        while len(pows) <= m:
            pows.append(pows[-1] * base)
        return pows[m]

    def pair_block(self, i, j):
        """Symmetric block: two marked slots joined by f-fold winding sums,
        i, j >= 1.  With i <= j it is ((-1)^{i+j} / i) A^{i+j} times the
        winding sum of the integer weights C(f-1, i-1) C(f, j)."""
        key = (min(i, j), max(i, j))
        if key not in self._pair:
            self._pair_blocks([key])
        return self._pair[key]

    def _pair_blocks(self, keys):
        """Build the pair blocks of keys, (i, j) with i <= j, that are not
        built yet, from one `lambert_sums` call for all of them."""
        keys = [key for key in keys if key not in self._pair]
        sums = self.cache.lambert_sums(
            [lambda f, i=i, j=j: comb(f - 1, i - 1) * comb(f, j) for i, j in keys])
        for (i, j), s in zip(keys, sums):
            self._pair[(i, j)] = (s.scaled(Fraction((-1) ** (i + j), i))
                                  * self._power(self.cache.A, i + j))

    def chain_block(self, i, j):
        """One-sided block feeding the transfer operator; j >= i >= 1.  No
        route calls it (W(k) is read off the basis); it stays for the layer
        trace, `test_block_limits_at_the_singular_point` and the derivation
        in `asymptotics.limit_transfer_matrix`."""
        if (i, j) not in self._chain:
            weight = lambda f: comb(f + i - 1, j - 1)
            self._chain[(i, j)] = (self.cache.lambert_sum(weight)
                                   * self._power(self.cache.A, j))
        return self._chain[(i, j)]

    def _basis_series(self, r, times_a):
        """Lambda_r = sum_f C(f, r) tail_f, or A Lambda_r with times_a: one
        Lambert pass per r and one product per A Lambda_r, each made once."""
        key = (r, times_a)
        if key not in self._basis:
            self._basis[key] = (self.cache.A * self._basis_series(r, False)
                                if times_a else
                                self.cache.lambert_sum(lambda f: comb(f, r)))
        return self._basis[key]

    def _on_basis(self, den, coeffs):
        """(1/den) sum_r (a_r(z^2) Lambda_r + b_r(z^2) A Lambda_r) over the
        (r, a_r, b_r) of coeffs: shift-and-add on the even coefficients."""
        acc = [0] * (self.K // 2 + 1)
        for r, a, b in coeffs:
            for times_a, poly in ((False, a), (True, b)):
                if not poly:
                    continue
                vec = self._basis_series(r, times_a).nums[::2]
                for d, c in enumerate(poly):
                    if c:
                        acc[d:] = [x + c * v for x, v in zip(acc[d:], vec)]
        nums = [0] * (self.K + 1)
        nums[::2] = acc
        return TruncatedSeries(nums, EXACT, self.K, den)

    def _entries(self, kind, k, kmax):
        """{key: series} of the block table `_block_terms(kind, k, kmax)`,
        each entry read off the binomial Lambert basis (`_basis_table`).  The
        walk's entries are exact-only: a float engine raises ValueError."""
        if self.backend != EXACT:
            raise ValueError("the resolvent walk requires the exact backend")
        return {key: self._on_basis(*entry)
                for key, entry in _basis_table(kind, k, kmax).items()}

    # -- the explicit terms ---------------------------------------------------

    def term_single(self, k):
        """(1/k) (1 - A)^k, the single-marked-multiplicity term.

        Note: this is (1/k) (h0/(1+h0))^k; enumeration fixes the extra
        1/(1+h0)^k normalization, and the first-moment series of the walk
        ensemble only comes out right with it in place.
        """
        return self._power(self.cache.one_minus_A, k).scaled(Fraction(1, k))

    def term_pair(self, k1, k2):
        """sum_{l1 < a, l2 < b} C(a-1, l1) C(b-1, l2) (1 - A)^{l1 + l2}
        pair_block(a - l1, b - l2), (a, b) = (k1, k2) sorted."""
        key = (min(k1, k2), max(k1, k2))
        if key not in self._term_pair:
            self._term_pair[key] = self._entries("pair", *key)[None]
        return self._term_pair[key]

    # -- resolvent pieces ------------------------------------------------------

    def left_row(self, k, kmax=None):
        """The exit row L_k[s], s < kmax - 1: the walk's state y[s] leaves
        through it as sum_s L_k[s] y[s], the step for u_k that ends the walk.

            L_k[s] = -(1/s!) sum_l C(k-1, l) (1 - A)^l pair_block(s + 1, k - l)

        Its entries do not vanish for s >= k - 1; dropping them breaks oracle
        equivalence for mixed multiplicity sets.
        """
        return {s: v for s, v in self._entries("left", k, kmax or k).items()
                if not v.is_zero()}

    def start_row(self, k1, k2):
        """The walk's start from u_{k1} u_{k2}, for s <= k1 - 2:

            y0[s] = -(k1-1)! / (k1-2-s)! term_pair(k1 - 1 - s, k2)
        """
        out = {}
        for s in range(k1 - 1):
            y = self.term_pair(k1 - 1 - s, k2).scaled(-perm(k1 - 1, s + 1))
            if not y.is_zero():
                out[s] = y
        return out

    def transfer_operator(self, k, kmax=None):
        """W(k) of `reduced_terms` as {(s, s'): nonzero series}."""
        return {key: v for key, v in self._entries("transfer", k, kmax or k).items()
                if not v.is_zero()}

    # -- joint generating function ----------------------------------------------

    def joint_genfun(self, tracked, bounds=None):
        """Marker polynomial of sum_w prod (1+u_k)^{N_{2k}} z^len, after z d/dz.

        Coefficient of prod u_k^{j_k} at z^{2n} is the joint binomial moment
        sum_w prod_k C(N_{2k}(w), j_k) over closed walks of length 2n.
        Untracked multiplicities stay unmarked.  The unmarked term is
        log(2 / (1 + A)) before z d/dz and the closed-walk count series h0
        after it, since z d/dz log(2 / (1 + A)) = (1 - A) / A.
        """
        tracked = tuple(sorted(tracked))
        if bounds is None:
            bounds = tuple(self.K // k for k in tracked)
        ms = self._marked(MarkedSeries(tracked, bounds, self.K))
        for e, s in ms.terms.items():
            ms.terms[e] = s.zddz()
        ms.add_term((0,) * len(tracked), self.cache.h0)
        return ms

    def joint_moments(self, n, tracked, bounds):
        """{e: sum_w prod_k C(N_{2k}(w), e_k)} over closed walks of length
        2n >= 2, exact backend: the [z^{2n}] coefficients of
        `joint_genfun(tracked, bounds)`, with tracked sorted, read at the
        target order 2n without building their series.  Zero moments may be
        left out.  With one tracked multiplicity the moments j >= 3 come off
        the baby-step/giant-step walk (`_accumulate_resolvent`)."""
        ms = self._marked(MarkedSeries(tracked, bounds, self.K, order=2 * n))
        out = {e: _as_int(2 * n * c) for e, c in ms.terms.items()}
        out[(0,) * len(tracked)] = comb(2 * n, n)
        return out

    def _marked(self, ms):
        """ms plus its single and pair terms and the resolvent walk, before
        z d/dz; exact-only, as the walk is."""
        if self.backend != EXACT:
            raise ValueError("the marked series require the exact backend")
        zero_e = (0,) * len(ms.markers)
        for i1, k1 in enumerate(ms.markers):
            e1 = _plus_one(zero_e, i1)
            if ms._admissible(e1):
                ms.add_term(e1, self.term_single(k1))
            for i2, k2 in enumerate(ms.markers):
                e2 = _plus_one(e1, i2)
                if ms._admissible(e2):
                    ms.add_term(e2, self.term_pair(k1, k2))
        self._accumulate_resolvent(ms)
        return ms

    def _accumulate_resolvent(self, ms):
        """Add sum over k1,k2,k3 of u-weighted <left| resolvent |right> to ms.

        The walk runs on y[s], s < kmax - 1, the transfer state reduced to
        s = rho + t (`reduced_terms`).  The step for u_k is W(k), one product
        per (power, i, j) of an entry, with the exit row `left_row(k)`.  One
        walk: the start y0 sums u_{k2} u_{k3} `start_row(k2, k3)` over every
        pair, so starts on one (index, exponent) are added before any
        product.  An exit lands in ms only on an admissible monomial, and a
        move is kept only while one more marker (its exit) still lands on
        one.  At a target order N of ms an exit adds the scalar [z^N] of
        <left| y, one dot product, and only the moves are series products.

        One marker at a target order with no target exponent (the count
        queries `joint_counts(eng, n, (k,))` and `distribution`) has one
        word, W(k)^t: its exits are the moments c_{t+3} = [z^N] L W^t y0, t
        < D = J - 2, J = min(bound, N // k).  Those are read by
        `_giant_walk` at the stride `_walk_stride` picks, about r^2 (m +
        D/m) + r^3 log2 m products for r = k - 1 where the forward walk
        makes r^2 D.  At stride m = 1 the forward walk below runs, product
        for product.  Several markers mix the words of several W(k), which
        are no powers of one operator, and a target exponent reads one exit,
        so they run forward, as does `joint_genfun`, whose exits are whole
        series.
        """
        tracked = ms.markers
        kmax = max(tracked)
        zero_e = (0,) * len(tracked)
        y = {}  # s -> {exponent -> series}
        for i2, k2 in enumerate(tracked):
            for i3, k3 in enumerate(tracked):
                e0 = _plus_one(_plus_one(zero_e, i2), i3)
                if ms._extendable(e0):
                    for p, s in self.start_row(k2, k3).items():
                        if ms.order is not None:  # no move needs more orders
                            s = s.project(ms.order)
                        dst = y.setdefault(p, {})
                        dst[e0] = dst[e0] + s if e0 in dst else s
        if not y:  # no start can reach an admissible exponent: nothing to add
            return
        # the step for u_k: the exit row L_k, then W(k)
        if len(tracked) == 1 and ms.order is not None and ms.target is None:
            # one marker: the exits are the moments c_j = [z^N] L W^(j-3) y0,
            # j = 3 .. J; one exit makes no move, so W(k) is not built
            exits = min(ms.bounds[0], ms.K // kmax) - 2
            left = self.left_row(kmax)
            move = self.transfer_operator(kmax) if exits > 1 else {}
            # L a row, W a matrix and y0 a column of series at order N
            mats = ({(0, s): v.project(ms.order) for s, v in left.items()},
                    {key: v.project(ms.order) for key, v in move.items()},
                    {(p, 0): ys[(2,)] for p, ys in y.items()})
            stride = _walk_stride(*mats, ms.order, exits)
            if stride > 1:
                _giant_walk(ms, *mats, exits, stride)
                return
            rows = [(left, move)]
        else:
            rows = [(self.left_row(k, kmax), self.transfer_operator(k, kmax))
                    for k in tracked]
        steps = [[((None, s), v) for s, v in left.items()] + list(move.items())
                 for left, move in rows]
        for _depth in range(sum(ms.bounds) + 2):
            if not y:
                break
            ny = {}
            for ik, rows in enumerate(steps):
                for (p, q), qs in rows:
                    for e, s in y.get(q, {}).items():
                        ee = _plus_one(e, ik)
                        if p is None:
                            ms.add_product(ee, qs, s)
                        elif ms._extendable(ee):
                            term = qs * s
                            if not term.is_zero():
                                dst = ny.setdefault(p, {})
                                dst[ee] = dst[ee] + term if ee in dst else term
            y = ny
        else:
            if y:
                raise MarkerOverflow("resolvent expansion exceeded marker bounds")

    # -- single-multiplicity moments and distribution ---------------------------

    def binomial_moment_series(self, k, jmax):
        """Series M_j, j=0..jmax, with [z^{2n}] M_j = sum_w C(N_{2k}(w), j).

        These are the u_k^j coefficients of joint_genfun((k,), (jmax,)), so
        z d/dz is already applied.  For j >= 3 the series is
        L_k W(k)^{j-3} y0 under z d/dz, with L_k = `left_row(k)` and y0 =
        `start_row(k, k)`.
        """
        gf = self.joint_genfun((k,), (jmax,))
        zero = TruncatedSeries.zero(self.K, self.backend)
        return [gf.terms.get((j,), zero) for j in range(jmax + 1)]

    def distribution(self, n, k, l_max):
        """Exact counts {l: #walks of length 2n with N_{2k} = l} plus tail.

        The k-marginal of `joint_counts(self, n, (k,))`, on rows l = 0 ..
        min(l_max, max(2n // k, N_{2k} of the empty walk)): one binomial
        inversion of all 2n // k + 1 moments, which the one-marker walk
        reads by baby-step/giant-step (`_accumulate_resolvent`), so every
        l_max costs the same.  For k <= 2 and n >= 1 each count is asserted
        equal to [z^{2n}] of its closed-form count series
        (`_closed_form_counts`), a second route.
        """
        joint = joint_counts(self, n, (k,))
        top = min(l_max, max(2 * n // k, _empty_walk_count(k)))
        counts = {l: joint.get((l,), 0) for l in range(top + 1)}
        if n and k <= 2:  # the closed forms hold no empty walk
            series = self._closed_form_counts(k, top)
            for l, c in counts.items():
                want = series[l][2 * n] if l < len(series) else 0
                if c != want:
                    raise AssertionError(
                        f"dual-route mismatch at k={k}, l={l}: {c} != {want}")
        return counts, comb(2 * n, n) - sum(counts.values())

    def probabilities(self, n, k, l_max):
        """Pr_n(N_{2k} = l) for l = 0..l_max; float k >= 3 raises DomainError.

        The exact backend divides the counts of `distribution` by C(2n, n);
        the float backend reads k <= 2 off the closed-form count series.  Its
        k = 2 values were measured against the DP at n = 300, 600, 1000,
        1500, 2000, 2500, 3000, 3013, 3500, 3887, 3914 and 4000: within
        3.0e-6 (relative) for l <= 2 and 3.6e-8 for 3 <= l <= 40.  The top
        rows cancel (n = 300: l = 297..299 are 0.6% to 8.6% low, l = 300
        reads -7.0e-180; n = 600: 1% off from l = 519; strict xfails
        test_float_k2_probabilities_nonnegative_*, ROADMAP item 9).
        Float k >= 3 is walks.local_time_probabilities' job.
        """
        if self.backend == EXACT:
            counts, _ = self.distribution(n, k, l_max)
            total = comb(2 * n, n)
            return [Fraction(counts.get(l, 0), total) for l in range(l_max + 1)]
        if 2 * n > self.K:
            raise ValueError("truncation order too small for this length")
        if n == 0:
            return [float(l == _empty_walk_count(k)) for l in range(l_max + 1)]
        if k >= 3:
            raise DomainError("float probabilities for k >= 3 come from "
                              "walks.local_time_probabilities")
        top = min(l_max, (2 * n) // k)  # N_{2k} <= 2n/k: the rest is 0.0
        series = self._closed_form_counts(k, top)
        out = [self.cache.probability(s, n) for s in series[: top + 1]]
        return out + [0.0] * (l_max + 1 - len(out))

    # -- closed forms for k = 1 and k = 2 ----------------------------------------

    def _closed_form_counts(self, k, l_max):
        """Count series c_l, [z^{2n}] c_l = #walks with N_{2k} = l, for k <= 2:
        l <= 2 for k = 1 (N_2 takes no other value), l <= l_max for k = 2."""
        return (self.singlepoint_series() if k == 1
                else self.doublepoint_count_series(l_max))

    def singlepoint_series(self):
        """Count series for walks with N_2 = 0, 1, 2 (the only occupancies)."""
        g = self.pair_block(1, 1)
        s2 = g.zddz()
        four_z2 = self.cache.monomial(4, 2)
        s1 = four_z2 * self.cache.inv_A - s2.scaled(2)
        s0 = self.cache.A - self.cache.one + s2
        return s0, s1, s2

    def _doublepoint_terms(self):
        """(h0, a, b, S^2, g) of the k = 2 marked function
        h0 + u a + u^2 b + z d/dz [u^3 S^2 / (1 - u g)], where a = 4z^2 h0,
        b = T(2,2)', g = pair_block(1,1), S = (1 - A) g + pair_block(1,2).

        T(2,2) = sum_{l1,l2<2} (1 - A)^{l1+l2} pair_block(2 - l1, 2 - l2) is
        summed here, not read off the walk's basis table, in the order (and
        with the (1 - A)^0 product) that fixes the float bits.  Its three
        pair blocks come from one Lambert sweep."""
        self._pair_blocks([(1, 1), (1, 2), (2, 2)])
        g = self.pair_block(1, 1)
        s = self.cache.one_minus_A * g + self.pair_block(1, 2)
        t22 = sum((self._power(self.cache.one_minus_A, l1 + l2)
                   * self.pair_block(2 - l1, 2 - l2)
                   for l1 in range(2) for l2 in range(2)), self.cache.zero())
        h0 = self.cache.h0
        return h0, self.cache.monomial(4, 2) * h0, t22.zddz(), s.pow(2), g

    def doublepoint_moment_series(self, jmax):
        """Closed-form M_j for k = 2: z d/dz [S^2 g^(j-3)] for j >= 3."""
        h0, a, b, acc, g = self._doublepoint_terms()
        out = [h0, a, b][: jmax + 1]
        for _ in range(3, jmax + 1):
            out.append(acc.zddz())
            acc = acc * g
        return out

    def doublepoint_count_series(self, l_max):
        """Count series c_l, l <= l_max: [z^{2n}] c_l = #walks with N_4 = l.

        At u = v - 1, 1 - u g = (1 + g)(1 - v rho) with rho = g / (1 + g), so
        no inversion is needed: with W_i = S^2 rho^i / (1 + g), c_0 = h0 - a
        + b - W_0', c_1 = a - 2b + (3 W_0 - W_1)', c_2 = b + (3 W_1 - 3 W_0 -
        W_2)' and c_l = z d/dz [S^2 rho^(l-3) / (1 + g)^4] for l >= 3.
        Built afresh on each call: no route reads them twice per engine."""
        h0, a, b, s2, g = self._doublepoint_terms()
        inv = (self.cache.one + g).inverse()
        rho = g * inv
        w0 = s2 * inv
        w1 = w0 * rho
        w2 = w1 * rho
        out = [h0 - a + b - w0.zddz(),
               a - b.scaled(2) + (w0.scaled(3) - w1).zddz(),
               b + (w1.scaled(3) - w0.scaled(3) - w2).zddz()]
        acc = w0 * inv.pow(3)  # c_3 before z d/dz
        for _ in range(3, l_max + 1):
            out.append(acc.zddz())
            acc = acc * rho
        return out[: l_max + 1]

    # -- mixed moments --------------------------------------------------------------

    def mixed_moment(self, spec, n):
        """Exact sum over walks of length 2n of prod_k C(N_{2k}, m_k).

        spec maps multiplicity k to binomial depth m_k, of any total depth.
        At every depth this is the spec's own monomial of `_marked`, read at
        z^{2n} with the walk bounded by the spec: only the single and pair
        terms on that monomial are built.
        """
        if 2 * n > self.K:
            raise ValueError("truncation order too small for this length")
        spec = {k: m for k, m in sorted(spec.items()) if m > 0}
        if not spec:
            return comb(2 * n, n)
        if n == 0:
            return prod(comb(_empty_walk_count(k), m) for k, m in spec.items())
        depths = tuple(spec.values())
        ms = self._marked(MarkedSeries(spec, depths, self.K, order=2 * n,
                                       target=depths))
        return _as_int(2 * n * ms.terms.get(depths, 0))


def _plus_one(e, i):
    """Exponent vector e with one more marker in slot i."""
    return e[:i] + (e[i] + 1,) + e[i + 1:]


def _empty_walk_count(k):
    """N_{2k} of the empty walk: its one point, the origin, has multiplicity 2."""
    return 1 if k == 1 else 0


# ---------------------------------------------------------------------------
# the one-marker walk by baby-step/giant-step
# ---------------------------------------------------------------------------

# the modelled cost of one exact product whose Kronecker window spans w > 0
# slots of y = z^2: a fixed part plus w^1.7, fitted to the walk products of
# `dist --n 256 --k 3` (about 0.3 us per unit on a 2-core x86-64 machine)
_PRODUCT_OVERHEAD = 200
_PRODUCT_EXPONENT = 1.7


def _times(x, y, mul, add):
    """The product of the sparse matrices x and y, {(p, q): entry}: the
    entries x[p, s] y[s, q] are formed by mul, which gives None for a zero
    term, and summed into out[p, q] by add."""
    rows = defaultdict(list)
    for (s, q), v in y.items():
        rows[s].append((q, v))
    out = {}
    for (p, s), u in x.items():
        for q, v in rows[s]:
            term = mul(u, v)
            if term is not None:
                key = (p, q)
                out[key] = add(out[key], term) if key in out else term
    return out


def _series_times(x, y):
    """x y for matrices of series, zero entries left out."""
    def mul(u, v):
        term = u * v
        return None if term.is_zero() else term
    return _times(x, y, mul, operator.add)


def _matrix_power(x, m, times):
    """x^m, m >= 1, by repeated squaring with the product times."""
    out = None
    while True:
        if m & 1:
            out = x if out is None else times(out, x)
        m >>= 1
        if not m:
            return out
        x = times(x, x)


def _walk_stride(left, move, start, order, exits):
    """The stride m of `_giant_walk` for the exits [z^N] L W^t y0, t <
    exits, N = order: the m whose modelled product cost is least, 1 (the
    forward walk) on a tie.

    The model follows each walk on the valuations of its entries: the
    product of entries of valuations u and v has valuation u + v, at most,
    and its window spans (N - u - v) / 2 + 1 slots of y = z^2, none past
    N.  A product costs `_PRODUCT_OVERHEAD` plus window^`_PRODUCT_EXPONENT`.
    The forward walk makes exits - 1 moves W y.  A stride 1 < m < exits
    makes the first m - 1 of them (the baby states), builds W^m by
    `_matrix_power`, which squares W at least once, and steps the row L
    W^(am) ceil(exits / m) - 1 times.  Both read the same exits, so those
    are left out.  The first m - 1 moves and the squaring bound every
    larger stride's cost from below, so the search stops once they cost as
    much as the best stride."""
    if exits < 3:  # no stride 1 < m < exits
        return 1

    def times(x, y):
        def mul(u, v):
            nonlocal cost
            cost += _PRODUCT_OVERHEAD
            if u + v <= order:
                cost += ((order - u - v) // 2 + 1) ** _PRODUCT_EXPONENT
                return u + v
            return None
        return _times(x, y, mul, min)

    def valuations(x):
        return {key: _valuation(v.nums) for key, v in x.items()}

    left, move, start = valuations(left), valuations(move), valuations(start)
    cost, moves = 0, [0]  # moves[b]: the cost of the first b moves
    y = start
    for _ in range(exits - 1):
        y = times(move, y)
        moves.append(cost)
    best, stride = cost, 1
    cost = 0
    times(move, move)
    square = cost
    for m in range(2, exits):
        if moves[m - 1] + square >= best:
            break
        cost, row = moves[m - 1], left
        giant = _matrix_power(move, m, times)
        for _ in range(m, exits, m):
            row = times(row, giant)
        if cost < best:
            best, stride = cost, m
    return stride


def _giant_walk(ms, left, move, start, exits, stride):
    """Add the one-marker walk's exits c_{t+3} = [z^N] L W^t y0, t < exits,
    to ms at its target order N, by baby-step/giant-step (Paterson &
    Stockmeyer, SIAM J. Comput. 2, 1973): with m = stride and t = am + b,
    b < m, c_{t+3} = [z^N] (L G^a) (W^b y0), G = W^m.  It keeps the baby
    states W^b y0, b < m, builds G by `_matrix_power` and steps the giant
    row L G^a; each exit is then one dot product per state index.  That is
    m - 1 moves, about log2 m matrix products and ceil(exits / m) - 1 row
    steps, where the forward walk makes exits - 1 moves.  left is the row
    L, move W and start the column y0, as matrices of series."""
    babies = [start]
    for _ in range(min(stride, exits) - 1):
        babies.append(_series_times(move, babies[-1]))
    giant = (_matrix_power(move, stride, _series_times) if stride < exits
             else None)
    row = left
    for a in range(0, exits, stride):
        if a:
            row = _series_times(row, giant)
        last = a + stride >= exits
        for b in range(min(stride, exits - a)):
            y = babies[b]
            if last:  # no later row reads this state
                babies[b] = None
            for (_, s), v in row.items():
                if (s, 0) in y:
                    ms.add_product((a + b + 3,), v, y[(s, 0)])


# ---------------------------------------------------------------------------
# joint counts by binomial inversion
# ---------------------------------------------------------------------------

def _binomial_inversion(moments):
    """Counts {l: N_l} from integer binomial moments {j: M_j}, keyed by
    exponent tuples: M_j = sum_l prod_i C(l_i, j_i) N_l, and the inverse
    N_l = sum_j prod_i (-1)^(j_i - l_i) C(j_i, l_i) M_j factors by axis."""
    vals = {j: m for j, m in moments.items() if m}
    for axis in range(len(next(iter(moments)))):
        inv = defaultdict(int)
        for j, m in vals.items():
            ja = j[axis]
            for la in range(ja + 1):
                inv[j[:axis] + (la,) + j[axis + 1:]] += (
                    (-1) ** (ja - la) * comb(ja, la) * m)
        vals = inv
    return vals


def joint_counts(engine: Engine, n, tracked):
    """Exact joint occupancy counts {(N_{2k})_k: #walks} at length 2n."""
    if 2 * n > engine.K:
        raise ValueError("truncation order too small for this length")
    tracked = tuple(sorted(tracked))
    if n == 0:
        return {tuple(_empty_walk_count(k) for k in tracked): 1}
    if not tracked:
        return {(): comb(2 * n, n)}
    vals = _binomial_inversion(engine.joint_moments(
        n, tracked, tuple((2 * n) // k for k in tracked)))
    return {l: vals[l] for l in sorted(vals) if vals[l]}


# ---------------------------------------------------------------------------
# the range of a walk
# ---------------------------------------------------------------------------

def range_distribution(n, m_max=None, *, total=None):
    """Exact counts {m: #closed walks of length 2n with range m}.

    Coefficient extraction of z d/dz applied to the (sign-corrected)
    combination log(1-B^{2m-2}) - 2 log(1-B^{2m}) + log(1-B^{2m+2}); the
    displayed combination yields negated counts, so the bracket enters with a
    minus sign here.  Ballot numbers make the coefficients closed-form:
    [z^{2n}] of z d/dz log(1 - B^{2t}) is -2t sum_j C(2n, n - tj).

    `total` seeds the recurrence with C(2n, n), an int by default.  Only
    + - * // reach it, so a `decimal.Decimal` seed under an exact context
    (prec=MAX_PREC, trapping Inexact and Rounded) gives the same counts as
    Decimals, whose `str()` takes linear time (an int's takes quadratic).
    """
    top = n + 1
    if m_max is None:
        m_max = top
    if total is None:
        total = comb(2 * n, n)
    if n == 0:
        # the empty walk visits the origin alone
        return {1: total} if m_max >= 1 else {}

    # row[i] = C(2n, n - i), built once by the multiplicative recurrence
    row = [total]
    for i in range(1, n + 1):
        row.append(row[i - 1] * (n - i + 1) // (n + i))

    # tvals[t] = t S_t with S_t = sum_{j >= 1} C(2n, n - tj), so each big
    # S_t is multiplied once and each count is a second difference
    tvals = [0] + [t * sum(row[t::t]) for t in range(1, min(m_max, top) + 3)]
    del row

    out = {}
    for m in range(2, min(m_max, top) + 1):
        c = 2 * (tvals[m - 1] - 2 * tvals[m] + tvals[m + 1])
        if c:
            out[m] = c
    return out


def range_moment(n, r, hist=None):
    """Exact E_n(ran^r) as a Fraction, from the full range histogram."""
    if hist is None:
        hist = range_distribution(n)
    total = comb(2 * n, n)
    return Fraction(sum(m ** r * c for m, c in hist.items()), total)


# ---------------------------------------------------------------------------
# vertex factors
# ---------------------------------------------------------------------------

def vertex_factor(q, k, w):
    """Closed-form vertex factor; w may be a number or a TruncatedSeries.

    q = 0 branch: (1/k) (w / (1+w))^k.
    q > 0 branch: (-1)^k (1/q) (1+w)^{-k} sum_nu C(k-1,nu) C(q,k-nu) (-w)^nu.
    """
    if q < 0 or k < 1:
        raise ValueError("need q >= 0 and k >= 1")
    if isinstance(w, TruncatedSeries):
        one = TruncatedSeries.one(w.K, w.backend)
        onew = one + w
        if onew[0] == 0:
            raise NonUnit("1 + w is not a unit")
        if q == 0:
            return (w / onew).pow(k).scaled(Fraction(1, k))
        acc = TruncatedSeries.zero(w.K, w.backend)
        for nu in range(max(0, k - q), k):
            term = (-w).pow(nu).scaled(comb(k - 1, nu) * comb(q, k - nu))
            acc = acc + term
        return (acc / onew.pow(k)).scaled(Fraction((-1) ** k, q))
    if w == -1:
        raise NonUnit("1 + w is not invertible")
    if q == 0:
        return (w / (1 + w)) ** k / k
    acc = sum(comb(k - 1, nu) * comb(q, k - nu) * (-w) ** nu
              for nu in range(max(0, k - q), k))
    return (-1) ** k * acc / (q * (1 + w) ** k)
