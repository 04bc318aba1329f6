"""Exact d=1 engine for the joint distribution of visit multiplicities.

The counting function over closed walks,

    sum_w prod_k (1 + u_k)^{N_{2k}(w)} z^{length(w)},

is assembled from single and pair terms and a transfer-operator resolvent
for three or more markers; under z d/dz its unmarked term is the closed-walk
count series h0.  Expanding in the markers u_k gives joint binomial moments
sum_w prod_k C(N_{2k}, j_k); one binomial inversion, on exact integers,
turns those into occupancy counts (for k <= 2 closed forms give the counts
directly).  Every marked moment, single-multiplicity or mixed, is a
coefficient of `Engine._accumulate_resolvent`, one walk per query: it starts
from every u_{k2} u_{k3} |right(k2, k3)> at once, and <left(k)| is the exit
row of the step for u_k.
Everything here was validated coefficient-by-coefficient against
exhaustive walk enumeration.

Building blocks (cache = BaseSeriesCache):

    pair_block(i,j)  = (-1)^{i+j} A^{i+j} sum_f (1/f) C(f,i) C(f,j) tail_f
    chain_block(i,j) = A^j sum_{f>=max(1,j-i)} C(f+i-1, j-1) tail_f

with tail_f = B^{2f}/(1 - B^{2f}).  The f-sums are cut at f = K//2, which is
exact below order K because B^{2f} = O(z^{2f}).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, prod

from .errors import DomainError, MarkerOverflow, NonUnit
from .pseries import EXACT, BaseSeriesCache, TruncatedSeries, base_series


def _tri_indices(kmax):
    """Index pairs (rho, t) with rho + t <= kmax - 2."""
    return [(r, t) for r in range(max(kmax - 1, 0))
            for t in range(max(kmax - 1 - r, 0))]


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
    """

    __slots__ = ("markers", "bounds", "K", "terms")

    def __init__(self, markers, bounds, K):
        self.markers = tuple(markers)
        self.bounds = tuple(bounds)
        self.K = K
        self.terms = {}

    def _admissible(self, e):
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
        if not self._admissible(e) or series.is_zero():
            return
        if e in self.terms:
            self.terms[e] = self.terms[e] + series
        else:
            self.terms[e] = series

    def coefficient(self, e):
        return self.terms.get(tuple(e))


class Engine:
    """Joint-distribution calculator at one truncation order and backend."""

    def __init__(self, K, backend=None):
        self.cache = base_series(K, backend)
        self.K = self.cache.K
        self.backend = self.cache.backend
        self._pair = {}
        self._chain = {}
        self._oma_pow = [self.cache.one, self.cache.one_minus_A]
        self._a_pow = [self.cache.one, self.cache.A]
        self._term_pair = {}
        self._dp_counts = []

    # -- building blocks -----------------------------------------------------

    def _one_minus_A_pow(self, m):
        while len(self._oma_pow) <= m:
            self._oma_pow.append(self._oma_pow[-1] * self.cache.one_minus_A)
        return self._oma_pow[m]

    def _A_pow(self, m):
        while len(self._a_pow) <= m:
            self._a_pow.append(self._a_pow[-1] * self.cache.A)
        return self._a_pow[m]

    def pair_block(self, i, j):
        """Symmetric block: two marked slots joined by f-fold winding sums."""
        key = (min(i, j), max(i, j))
        if key not in self._pair:
            i0, j0 = key
            if self.backend == EXACT:
                weight = lambda f: Fraction(comb(f, i0) * comb(f, j0), f)
            else:
                weight = lambda f: comb(f, i0) * comb(f, j0) / f
            s = self.cache.lambert_sum(weight) * self._A_pow(i0 + j0)
            if (i0 + j0) % 2 == 1:
                s = -s
            self._pair[key] = s
        return self._pair[key]

    def chain_block(self, i, j):
        """One-sided block feeding the transfer operator; j >= i >= 1."""
        if (i, j) not in self._chain:
            weight = lambda f: comb(f + i - 1, j - 1)
            self._chain[(i, j)] = self.cache.lambert_sum(weight) * self._A_pow(j)
        return self._chain[(i, j)]

    # -- the explicit terms ---------------------------------------------------

    def term_single(self, k):
        """(1/k) (1 - A)^k, the single-marked-multiplicity term.

        Note: this is (1/k) (h0/(1+h0))^k; enumeration fixes the extra
        1/(1+h0)^k normalization, and the first-moment series of the walk
        ensemble only comes out right with it in place.
        """
        return self._one_minus_A_pow(k).scaled(Fraction(1, k))

    def term_pair(self, k1, k2):
        key = (min(k1, k2), max(k1, k2))
        if key not in self._term_pair:
            a, b = key
            s = TruncatedSeries.zero(self.K, self.backend)
            for l1 in range(a):
                for l2 in range(b):
                    w = comb(a - 1, l1) * comb(b - 1, l2)
                    term = self._one_minus_A_pow(l1 + l2) * \
                        self.pair_block(a - l1, b - l2)
                    s = s + term.scaled(w)
            self._term_pair[key] = s
        return self._term_pair[key]

    # -- resolvent pieces ------------------------------------------------------

    def left_vector(self, k, kmax=None):
        """Boundary vector contracted from the left; lives at t = 0.

        The components do not vanish for rho >= k - 1; dropping them breaks
        oracle equivalence for mixed multiplicity sets.
        """
        kmax = kmax or k
        out = {}
        for (rho, t) in _tri_indices(kmax):
            if t != 0:
                continue
            s = TruncatedSeries.zero(self.K, self.backend)
            for l in range(k):
                term = self._one_minus_A_pow(l) * self.pair_block(rho + 1, k - l)
                s = s + term.scaled(comb(k - 1, l))
            if rho % 2 == 0:
                s = -s
            if not s.is_zero():
                out[(rho, t)] = s
        return out

    def right_vector(self, k1, k2, kmax=None):
        """Boundary vector contracted from the right; zero once the
        factorial argument k1 - 2 - rho - t goes negative."""
        kmax = kmax or max(k1, k2)
        out = {}
        for (rho, t) in _tri_indices(kmax):
            m = k1 - 2 - rho - t
            if m < 0:
                continue
            w = Fraction((-1) ** (rho + 1) * factorial(k1 - 1),
                         factorial(rho) * factorial(m))
            s = self.term_pair(k1 - 1 - rho - t, k2).scaled(w)
            if not s.is_zero():
                out[(rho, t)] = s
        return out

    def transfer_operator(self, k, kmax=None):
        """Q(k) on the (rho, t) index set as {(p, q): nonzero series}."""
        kmax = kmax or k
        idx = _tri_indices(kmax)
        entries = {}
        for (rho, t) in idx:
            m0 = k - 2 - rho - t
            if m0 < 0:
                continue  # rows with rho + t >= k - 1 vanish identically
            for (rhot, tt) in idx:
                m = m0 - tt
                if m < 0:
                    continue
                s = TruncatedSeries.zero(self.K, self.backend)
                for eta in range(m + 1):
                    w = Fraction(factorial(k - 1) * (-1) ** (rho + eta),
                                 factorial(eta) * factorial(m - eta))
                    term = self._one_minus_A_pow(m - eta) * \
                        self.chain_block(tt + 1, rhot + eta + 2 * tt + 2)
                    s = s + term.scaled(w)
                s = s.scaled(Fraction(1, factorial(tt) * factorial(tt + 1)
                                      * factorial(rho)))
                if not s.is_zero():
                    entries[((rho, t), (rhot, tt))] = s
        return entries

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
        ms = MarkedSeries(tracked, bounds, self.K)
        zero_e = (0,) * len(tracked)
        for i1, k1 in enumerate(tracked):
            ms.add_term(_plus_one(zero_e, i1), self.term_single(k1))
            for i2, k2 in enumerate(tracked):
                ms.add_term(_plus_one(_plus_one(zero_e, i1), i2),
                            self.term_pair(k1, k2))
        self._accumulate_resolvent(ms)
        for e, s in ms.terms.items():
            ms.terms[e] = s.zddz()
        ms.add_term(zero_e, self.cache.h0)
        return ms

    def _accumulate_resolvent(self, ms):
        """Add sum over k1,k2,k3 of u-weighted <left| resolvent |right> to ms.

        One walk: the start sums u_{k2} u_{k3} |right(k2, k3)> over every
        pair, so starts on one (index, exponent) are added before any
        product, and the step for u_k is Q(k) with <left(k)| as its exit
        row.  An exit lands in ms only on an admissible monomial, and a move
        is kept only while one more marker (its exit) still lands on one.
        """
        tracked = ms.markers
        kmax = max(tracked)
        steps = []  # the step for u_k: Q(k) plus the exit row <left(k)|
        for k in tracked:
            exits = self.left_vector(k, kmax).items()
            steps.append(list(self.transfer_operator(k, kmax).items())
                         + [((None, q), s) for q, s in exits])
        zero_e = (0,) * len(tracked)
        v = {}  # index -> {exponent -> series}
        for i2, k2 in enumerate(tracked):
            for i3, k3 in enumerate(tracked):
                e0 = _plus_one(_plus_one(zero_e, i2), i3)
                if ms._extendable(e0):
                    for p, s in self.right_vector(k2, k3, kmax).items():
                        dst = v.setdefault(p, {})
                        dst[e0] = dst[e0] + s if e0 in dst else s
        for _depth in range(sum(ms.bounds) + 2):
            if not v:
                break
            nv = {}
            for ik, rows in enumerate(steps):
                for (p, q), qs in rows:
                    for e, s in v.get(q, {}).items():
                        ee = _plus_one(e, ik)
                        if p is None:
                            if ms._admissible(ee):
                                ms.add_term(ee, qs * s)
                        elif ms._extendable(ee):
                            term = qs * s
                            if not term.is_zero():
                                dst = nv.setdefault(p, {})
                                dst[ee] = dst[ee] + term if ee in dst else term
            v = nv
        else:
            if v:
                raise MarkerOverflow("resolvent expansion exceeded marker bounds")

    # -- single-multiplicity moments and distribution ---------------------------

    def binomial_moment_series(self, k, jmax):
        """Series M_j, j=0..jmax, with [z^{2n}] M_j = sum_w C(N_{2k}(w), j).

        These are the u_k^j coefficients of joint_genfun((k,), (jmax,)), so
        z d/dz is already applied.  For j >= 3 the series is
        <left(k)| Q(k)^{j-3} |right(k,k)> under z d/dz.
        """
        gf = self.joint_genfun((k,), (jmax,))
        zero = TruncatedSeries.zero(self.K, self.backend)
        return [gf.terms.get((j,), zero) for j in range(jmax + 1)]

    def distribution(self, n, k, l_max):
        """Exact counts {l: #walks of length 2n with N_{2k} = l} plus tail.

        Exact backend only; the two closed-form routes (k = 1 and k = 2) are
        recomputed and asserted equal when applicable.
        """
        if self.backend != EXACT:
            raise ValueError("distribution requires the exact backend")
        if 2 * n > self.K:
            raise ValueError("truncation order too small for this length")
        if n == 0:
            l0 = _empty_walk_count(k)
            counts = {l: int(l == l0) for l in range(min(l_max, l0) + 1)}
            return counts, 1 - sum(counts.values())
        jmax = (2 * n) // k
        ms = self.binomial_moment_series(k, jmax)
        inv = _binomial_inversion(
            {(j,): _as_int(self.cache.count_at(s, n)) for j, s in enumerate(ms)})
        counts = {l: inv.get((l,), 0) for l in range(min(l_max, jmax) + 1)}
        total = comb(2 * n, n)
        tail = total - sum(counts.values())
        if k == 1:
            s0, s1, s2 = self.singlepoint_series()
            direct = [int(self.cache.count_at(s, n)) for s in (s0, s1, s2)]
            for l, c in counts.items():
                want = direct[l] if l <= 2 else 0
                if c != want:
                    raise AssertionError(
                        f"dual-route mismatch at k=1, l={l}: {c} != {want}")
        elif k == 2:
            ms2 = self.doublepoint_moment_series(jmax)
            if any(self.cache.count_at(a, n) != self.cache.count_at(b, n)
                   for a, b in zip(ms, ms2)):
                raise AssertionError("dual-route mismatch at k=2")
        return counts, tail

    def probabilities(self, n, k, l_max):
        """Pr_n(N_{2k} = l) for l = 0..l_max; float k >= 3 raises DomainError.

        The exact backend divides the counts of `distribution` by C(2n, n);
        the float backend reads k <= 2 off the closed-form count series.  Its
        k = 2 values are within 3e-8 of the crossing-profile DP (relative) for
        l >= 3, and 2.7e-6 for l <= 2, up to n = 4000.  Float k >= 3 is
        walks.local_time_probabilities' job.
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
        series = (self.singlepoint_series() if k == 1
                  else self.doublepoint_count_series(top))
        out = [self.cache.probability(s, n) for s in series[: top + 1]]
        return out + [0.0] * (l_max + 1 - len(out))

    # -- closed forms for k = 1 and k = 2 ----------------------------------------

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
        b = T(2,2)', g = pair_block(1,1), S = (1 - A) g + pair_block(1,2)."""
        g = self.pair_block(1, 1)
        s = self.cache.one_minus_A * g + self.pair_block(1, 2)
        h0 = self.cache.h0
        return (h0, self.cache.monomial(4, 2) * h0, self.term_pair(2, 2).zddz(),
                s.pow(2), g)

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
        Each engine builds these n-independent series once and keeps them."""
        if not self._dp_counts:
            h0, a, b, s2, g = self._doublepoint_terms()
            inv = (self.cache.one + g).inverse()
            rho = g * inv
            w0 = s2 * inv
            w1 = w0 * rho
            w2 = w1 * rho
            self._dp_counts = [h0 - a + b - w0.zddz(),
                               a - b.scaled(2) + (w0.scaled(3) - w1).zddz(),
                               b + (w1.scaled(3) - w0.scaled(3) - w2).zddz()]
            self._dp_tail = [w0 * inv.pow(3), rho]  # c_3 before z d/dz, rho
        out, tail = self._dp_counts, self._dp_tail
        while len(out) <= l_max:
            out.append(tail[0].zddz())
            tail[0] = tail[0] * tail[1]
        return out[: l_max + 1]

    def first_moment(self, k, n):
        """E_n(N_{2k}): exact Fraction on the exact backend, else float."""
        return self.cache.probability(self.term_single(k).zddz(), n)

    def product_moment(self, k1, k2, n):
        """E_n(N_{2k1} N_{2k2}); uses N^2 = N + 2 C(N,2) on the diagonal."""
        if k1 == k2:
            m1 = self.cache.probability(self.term_single(k1).zddz(), n)
            m2 = self.cache.probability(self.term_pair(k1, k1).zddz(), n)
            return m1 + 2 * m2
        s = self.term_pair(k1, k2).zddz()
        return 2 * self.cache.probability(s, n)

    # -- mixed moments --------------------------------------------------------------

    def mixed_moment(self, spec, n):
        """Exact sum over walks of length 2n of prod_k C(N_{2k}, m_k).

        spec maps multiplicity k to binomial depth m_k, of any total depth
        r = sum m_k.  Depths 1 and 2 are the single and pair terms; deeper
        specs are read off the resolvent walk bounded by the spec itself.
        """
        if self.backend != EXACT:
            raise ValueError("mixed_moment requires the exact backend")
        spec = {k: m for k, m in sorted(spec.items()) if m > 0}
        r = sum(spec.values())
        if r == 0:
            return comb(2 * n, n)
        if n == 0:
            return prod(comb(_empty_walk_count(k), m) for k, m in spec.items())
        ks = list(spec)
        if r == 1:
            series = self.term_single(ks[0])
        elif r == 2:
            k1, k2 = ks[0], ks[-1]
            series = self.term_pair(k1, k2).scaled(2 - (1 if k1 == k2 else 0))
        else:
            ms = MarkedSeries(ks, spec.values(), self.K)
            self._accumulate_resolvent(ms)
            series = ms.coefficient(spec.values())
            if series is None:
                return 0
        return _as_int(self.cache.count_at(series.zddz(), n))


def _plus_one(e, i):
    """Exponent vector e with one more marker in slot i."""
    return e[:i] + (e[i] + 1,) + e[i + 1:]


def _empty_walk_count(k):
    """N_{2k} of the empty walk: its one point, the origin, has multiplicity 2."""
    return 1 if k == 1 else 0


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
    if engine.backend != EXACT:
        raise ValueError("joint_counts requires the exact backend")
    tracked = tuple(sorted(tracked))
    if n == 0:
        return {tuple(_empty_walk_count(k) for k in tracked): 1}
    gf = engine.joint_genfun(tracked, tuple((2 * n) // k for k in tracked))
    vals = _binomial_inversion({e: _as_int(engine.cache.count_at(s, n))
                                for e, s in gf.terms.items()})
    return {l: vals[l] for l in sorted(vals) if vals[l]}


# ---------------------------------------------------------------------------
# the range of a walk
# ---------------------------------------------------------------------------

def range_distribution(n, m_max=None):
    """Exact counts {m: #closed walks of length 2n with range m}.

    Coefficient extraction of z d/dz applied to the (sign-corrected)
    combination log(1-B^{2m-2}) - 2 log(1-B^{2m}) + log(1-B^{2m+2}); the
    displayed combination yields negated counts, so the bracket enters with a
    minus sign here.  Ballot numbers make the coefficients closed-form:
    [z^{2n}] of z d/dz log(1 - B^{2t}) is -2t sum_j C(2n, n - tj).
    """
    top = n + 1
    if m_max is None:
        m_max = top
    if n == 0:
        # the empty walk visits the origin alone
        return {1: 1} if m_max >= 1 else {}

    # row[i] = C(2n, n - i), built once by the multiplicative recurrence
    row = [0] * (n + 1)
    row[0] = comb(2 * n, n)
    for i in range(1, n + 1):
        row[i] = row[i - 1] * (n - i + 1) // (n + i)

    def s_sum(t):
        tot = 0
        j = 1
        while t * j <= n:
            tot += row[t * j]
            j += 1
        return tot

    svals = [0] * (min(m_max, top) + 3)
    for t in range(1, len(svals)):
        svals[t] = s_sum(t)

    out = {}
    for m in range(2, min(m_max, top) + 1):
        c = 2 * ((m - 1) * svals[m - 1] - 2 * m * svals[m]
                 + (m + 1) * svals[m + 1])
        if c:
            out[m] = c
    return out


def range_count_series(cache: BaseSeriesCache, m):
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


def range_moment(n, r, hist=None):
    """Exact E_n(ran^r) as a Fraction, from the full range histogram."""
    if hist is None:
        hist = range_distribution(n)
    total = comb(2 * n, n)
    return Fraction(sum(m ** r * c for m, c in hist.items()), total)


# ---------------------------------------------------------------------------
# vertex factors
# ---------------------------------------------------------------------------

def _is_series(w):
    return isinstance(w, TruncatedSeries)


def vertex_factor(q, k, w):
    """Closed-form vertex factor; w may be a number or a TruncatedSeries.

    q = 0 branch: (1/k) (w / (1+w))^k.
    q > 0 branch: (-1)^k (1/q) (1+w)^{-k} sum_nu C(k-1,nu) C(q,k-nu) (-w)^nu.
    """
    if q < 0 or k < 1:
        raise ValueError("need q >= 0 and k >= 1")
    if _is_series(w):
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
