"""Exact d=1 engine for the joint distribution of visit multiplicities.

The counting function over closed walks,

    sum_w prod_k (1 + u_k)^{N_{2k}(w)} z^{length(w)},

is assembled from a plain term (no marked multiplicity), single and pair
terms, and a transfer-operator resolvent for three or more marked
multiplicity classes.  Expanding in the markers u_k gives joint binomial
moments sum_w prod_k C(N_{2k}, j_k); binomial inversion turns those into
exact occupancy counts.  Everything here was validated coefficient-by-
coefficient against exhaustive walk enumeration.

Building blocks (cache = BaseSeriesCache):

    pair_block(i,j)  = (-1)^{i+j} A^{i+j} sum_f (1/f) C(f,i) C(f,j) tail_f
    chain_block(i,j) = A^j sum_{f>=max(1,j-i)} C(f+i-1, j-1) tail_f

with tail_f = B^{2f}/(1 - B^{2f}).  The f-sums are cut at f = K//2, which is
exact below order K because B^{2f} = O(z^{2f}).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

from .errors import DomainError, MarkerOverflow, NonUnit, UnsupportedDepth
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


@dataclass
class QOperator:
    """Transfer operator for one multiplicity class on the (rho,t) index set."""

    k: int
    kmax: int
    indices: list
    entries: dict  # (p, q) -> TruncatedSeries, only nonzero entries stored

    def apply(self, vec):
        """Matrix-vector product against {index -> TruncatedSeries}."""
        out = {}
        for (p, q), s in self.entries.items():
            v = vec.get(q)
            if v is None:
                continue
            t = s * v
            out[p] = out[p] + t if p in out else t
        return out


class MarkedSeries:
    """Polynomial in marker variables with TruncatedSeries coefficients.

    Exponent vectors are bounded per marker and by the total weight cap
    sum_i k_i * e_i <= K: a walk of length 2n has sum_k 2k N_{2k} = 4n, so
    heavier monomials cannot contribute below order K.
    """

    __slots__ = ("markers", "bounds", "K", "backend", "terms")

    def __init__(self, markers, bounds, K, backend, terms=None):
        self.markers = tuple(markers)
        self.bounds = tuple(bounds)
        self.K = K
        self.backend = backend
        self.terms = dict(terms or {})

    def _admissible(self, e):
        if any(x > b for x, b in zip(e, self.bounds)):
            return False
        return sum(k * x for k, x in zip(self.markers, e)) <= self.K

    def add_term(self, e, series):
        if not self._admissible(e) or series.is_zero():
            return
        if e in self.terms:
            self.terms[e] = self.terms[e] + series
        else:
            self.terms[e] = series

    def coefficient(self, e):
        return self.terms.get(tuple(e))

    def zddz(self):
        out = MarkedSeries(self.markers, self.bounds, self.K, self.backend)
        for e, s in self.terms.items():
            out.terms[e] = s.zddz()
        return out


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
        self._moment_state = {}          # k -> resolvent iteration state
        self._double_state = None        # closed-form k=2 iteration state

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

    # -- the three explicit terms ---------------------------------------------

    def term_plain(self):
        """log(2 / (1 + A)); its z d/dz is the closed-walk count series."""
        half = (self.cache.one + self.cache.A).scaled(Fraction(1, 2))
        return -half.log()

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
        return QOperator(k, kmax, idx, entries)

    # -- joint generating function ----------------------------------------------

    def joint_genfun(self, tracked, bounds=None):
        """Marker polynomial of sum_w prod (1+u_k)^{N_{2k}} z^len, after z d/dz.

        Coefficient of prod u_k^{j_k} at z^{2n} is the joint binomial moment
        sum_w prod_k C(N_{2k}(w), j_k) over closed walks of length 2n.
        Untracked multiplicities stay unmarked.
        """
        tracked = tuple(sorted(tracked))
        if bounds is None:
            bounds = tuple(self.K // k for k in tracked)
        kmax = max(tracked)
        nt = len(tracked)
        ms = MarkedSeries(tracked, bounds, self.K, self.backend)
        zero_e = tuple([0] * nt)
        ms.add_term(zero_e, self.term_plain())
        for i, k in enumerate(tracked):
            e = list(zero_e)
            e[i] = 1
            ms.add_term(tuple(e), self.term_single(k))
        for i1, k1 in enumerate(tracked):
            for i2, k2 in enumerate(tracked):
                e = list(zero_e)
                e[i1] += 1
                e[i2] += 1
                ms.add_term(tuple(e), self.term_pair(k1, k2))

        if kmax >= 2:
            self._accumulate_resolvent(ms, tracked, bounds, kmax)
        return ms.zddz()

    def _accumulate_resolvent(self, ms, tracked, bounds, kmax):
        """Add sum over k1,k2,k3 of u-weighted <left| resolvent |right>."""
        nt = len(tracked)
        idx = _tri_indices(kmax)
        qops = {k: self.transfer_operator(k, kmax) for k in tracked}
        lefts = {k: self.left_vector(k, kmax) for k in tracked}

        for i2, k2 in enumerate(tracked):
            for i3, k3 in enumerate(tracked):
                right = self.right_vector(k2, k3, kmax)
                if not right:
                    continue
                e0 = [0] * nt
                e0[i2] += 1
                e0[i3] += 1
                # v: index -> {exponent -> series}, starting at u_{k2} u_{k3}
                v = {p: {tuple(e0): s} for p, s in right.items()}
                max_depth = sum(bounds) + 1
                for _depth in range(max_depth + 1):
                    if not v:
                        break
                    # contract with each left vector, weighted by u_{k1}
                    for i1, k1 in enumerate(tracked):
                        left = lefts[k1]
                        for p, pol in v.items():
                            ls = left.get(p)
                            if ls is None:
                                continue
                            for e, s in pol.items():
                                ee = list(e)
                                ee[i1] += 1
                                ms.add_term(tuple(ee), ls * s)
                    # advance: v <- sum_k u_k Q(k) v
                    nv = {}
                    for ik, k in enumerate(tracked):
                        qk = qops[k]
                        for (p, q), qs in qk.entries.items():
                            pol = v.get(q)
                            if pol is None:
                                continue
                            for e, s in pol.items():
                                ee = list(e)
                                ee[ik] += 1
                                ee = tuple(ee)
                                if not ms._admissible(ee):
                                    continue
                                term = qs * s
                                if term.is_zero():
                                    continue
                                dst = nv.setdefault(p, {})
                                dst[ee] = dst[ee] + term if ee in dst else term
                    v = nv
                else:
                    if v:
                        raise MarkerOverflow(
                            "resolvent expansion exceeded marker bounds")

    # -- single-multiplicity moments and distribution ---------------------------

    def binomial_moment_series(self, k, jmax):
        """Series M_j, j=0..jmax, with [z^{2n}] M_j = sum_w C(N_{2k}(w), j).

        z d/dz is already applied.  For j >= 3 the series is
        <left(k)| Q(k)^{j-3} |right(k,k)> under z d/dz.  The resolvent
        iteration state is cached so the list only ever grows.
        """
        st = self._moment_state.get(k)
        if st is None:
            st = {"series": [self.cache.h0], "vec": None,
                  "qk": None, "left": None}
            self._moment_state[k] = st
        out = st["series"]
        while len(out) <= jmax:
            j = len(out)
            if j == 1:
                out.append(self.term_single(k).zddz())
            elif j == 2:
                out.append(self.term_pair(k, k).zddz())
            else:
                if st["qk"] is None:
                    st["qk"] = self.transfer_operator(k)
                    st["left"] = self.left_vector(k)
                    st["vec"] = self.right_vector(k, k)
                s = TruncatedSeries.zero(self.K, self.backend)
                for p, ls in st["left"].items():
                    if p in st["vec"]:
                        s = s + ls * st["vec"][p]
                out.append(s.zddz())
                st["vec"] = st["qk"].apply(st["vec"])
        return out[: jmax + 1]

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
        mom = [self.cache.count_at(s, n) for s in ms]
        counts = {}
        for l in range(0, min(l_max, jmax) + 1):
            c = sum((-1) ** (j - l) * comb(j, l) * mom[j]
                    for j in range(l, jmax + 1))
            counts[l] = _as_int(c)
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

    def probabilities(self, n, k, l_max, jmax=None):
        """Pr_n(N_{2k} = l) for l = 0..l_max; float k >= 3 raises DomainError.

        The float backend answers k <= 2 by the closed-form moment series
        and loses digits mildly as the order grows: at n = 3969 the k = 2
        values are 1.3e-6 to 2.7e-6 off the crossing-profile DP in relative
        terms.  Float k >= 3 is walks.local_time_probabilities' job.
        """
        if 2 * n > self.K:
            raise ValueError("truncation order too small for this length")
        if n == 0:
            one = 1.0 if self.backend != EXACT else Fraction(1)
            return [one * (l == _empty_walk_count(k)) for l in range(l_max + 1)]
        if k >= 3 and self.backend != EXACT:
            raise DomainError("float probabilities for k >= 3 come from "
                              "walks.local_time_probabilities")
        if jmax is None:
            jmax = min((2 * n) // k, l_max + 48)
        if k == 2:
            ms = self.doublepoint_moment_series(jmax)
        else:
            ms = self.binomial_moment_series(k, jmax)
        mom = [self.cache.probability(s, n) for s in ms]
        out = []
        for l in range(l_max + 1):
            acc = 0.0 if self.backend != EXACT else Fraction(0)
            for j in range(jmax, l - 1, -1):  # small terms first
                acc += (-1) ** (j - l) * comb(j, l) * mom[j]
            out.append(acc)
        return out

    # -- closed forms for k = 1 and k = 2 ----------------------------------------

    def singlepoint_series(self):
        """Count series for walks with N_2 = 0, 1, 2 (the only occupancies)."""
        g = self.pair_block(1, 1)
        s2 = g.zddz()
        four_z2 = self.cache.monomial(4, 2)
        s1 = four_z2 * self.cache.inv_A - s2.scaled(2)
        s0 = self.cache.A - self.cache.one + s2
        return s0, s1, s2

    def doublepoint_moment_series(self, jmax):
        """Closed-form M_j for k = 2 (no transfer operator needed)."""
        if self._double_state is None:
            self._double_state = {"series": [self.cache.h0], "acc": None}
        st = self._double_state
        out = st["series"]
        g11 = self.pair_block(1, 1)
        while len(out) <= jmax:
            j = len(out)
            if j == 1:
                out.append(self.cache.monomial(4, 2) * self.cache.h0)
            elif j == 2:
                out.append(self.term_pair(2, 2).zddz())
            else:
                if st["acc"] is None:
                    st["acc"] = (self.cache.one_minus_A * g11
                                 + self.pair_block(1, 2)).pow(2)
                out.append(st["acc"].zddz())
                st["acc"] = st["acc"] * g11
        return out[: jmax + 1]

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

        spec maps multiplicity k to binomial depth m_k; total depth
        r = sum m_k is supported up to 4.
        """
        if self.backend != EXACT:
            raise ValueError("mixed_moment requires the exact backend")
        spec = {k: m for k, m in spec.items() if m > 0}
        ks = []
        for k, m in sorted(spec.items()):
            ks.extend([k] * m)
        r = len(ks)
        if r == 0:
            return comb(2 * n, n)
        if r > 4:
            raise UnsupportedDepth(f"mixed moments support depth <= 4, got {r}")
        if n == 0:
            return prod(comb(_empty_walk_count(k), m) for k, m in spec.items())
        if r == 1:
            series = self.term_single(ks[0]).zddz()
        elif r == 2:
            k1, k2 = ks
            series = self.term_pair(k1, k2).scaled(2 - (1 if k1 == k2 else 0)).zddz()
        else:
            kmax = max(ks)
            series = TruncatedSeries.zero(self.K, self.backend)
            for th in sorted(set(permutations(ks))):
                left = self.left_vector(th[0], kmax)
                vec = self.right_vector(th[-2], th[-1], kmax)
                if r == 4:
                    vec = self.transfer_operator(th[1], kmax).apply(vec)
                for p, ls in left.items():
                    if p in vec:
                        series = series + ls * vec[p]
            series = series.zddz()
        return _as_int(self.cache.count_at(series, n))


def _empty_walk_count(k):
    """N_{2k} of the empty walk: its one point, the origin, has multiplicity 2."""
    return 1 if k == 1 else 0


# ---------------------------------------------------------------------------
# joint counts by binomial inversion
# ---------------------------------------------------------------------------

def joint_counts(engine: Engine, n, tracked, bounds=None):
    """Exact joint occupancy counts {(N_{2k})_k: #walks} at length 2n."""
    if engine.backend != EXACT:
        raise ValueError("joint_counts requires the exact backend")
    tracked = tuple(sorted(tracked))
    if bounds is None:
        bounds = tuple((2 * n) // k for k in tracked)
    gf = engine.joint_genfun(tracked, bounds)
    # binomial moments M_j = sum_l prod_i C(l_i, j_i) N_l; the inverse
    # N_l = sum_j prod_i (-1)^(j_i - l_i) C(j_i, l_i) M_j factors by axis
    vals = {}
    for e, s in gf.terms.items():
        v = _as_int(engine.cache.count_at(s, n))
        if v:
            vals[e] = v
    for axis in range(len(tracked)):
        inv = defaultdict(int)
        for j, m in vals.items():
            ja = j[axis]
            for la in range(ja + 1):
                inv[j[:axis] + (la,) + j[axis + 1:]] += (
                    (-1) ** (ja - la) * comb(ja, la) * m)
        vals = inv
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
