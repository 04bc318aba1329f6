"""Large-length asymptotics: singular expansions, tail laws, limit moments.

The scaled tail sums

    g_k(s) = (sqrt(1-s))^{k+1} * sum_{f>=1} f^k b(s)^f / (1 - b(s)^f),
    b(s)   = (1 - sqrt(1-s)) / (1 + sqrt(1-s)),

extend continuously to s = 1 with value k! zeta(k+1) / 2^{k+1}; interpreting
the f-sum as a trapezoidal approximation and applying the Euler-Maclaurin
correction turns the approach to that value into an expansion in powers of
(1 - s), with a sqrt(1-s) branch appearing only for k = 1.  This module
derives those expansion coefficients exactly (rationals paired with a zeta
value), and builds on them: the doublepoint tail law (with the limit mean
and variance it fixes the l <= 2 limits in closed form), the singlepoint 1/n
polynomials, limit covariances of the point counts, the Riemann-xi limits of
range moments, and the geometric tail rates of Pr(N_{2k} = l) for every k,
read off the transfer operator at the singular point (`tail_rates_limit`).
Every zeta value is read off one fixed-point sweep of the alternating eta
series (`_eta_sweep`).
`probability_table` is the one float route to Pr_n(N_{2k} = l) at one
length n (the float count series for k <= 2, the crossing-profile DP for
k >= 3).  Richardson extrapolation in 1/n and linear-recurrence rate
fitting (`tail_rate_fit`) build one table per length of their grid, though
no command runs either; the fit recovers the same rates from the DP, an
independent check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import mul

from . import walks
from .errors import DomainError, IllConditioned
from .genfun import Engine, reduced_terms
from .pseries import EXACT, TruncatedSeries

# ---------------------------------------------------------------------------
# Bernoulli numbers and the zeta function
# ---------------------------------------------------------------------------

_BERNOULLI = [Fraction(1)]


def bernoulli(m):
    """Exact Bernoulli number B_m (B_1 = -1/2), by the defining recurrence."""
    while len(_BERNOULLI) <= m:
        j = len(_BERNOULLI)
        acc = Fraction(0)
        for i in range(j):
            acc += comb(j + 1, i) * _BERNOULLI[i]
        _BERNOULLI.append(-acc / (j + 1))
    return _BERNOULLI[m]


@lru_cache(maxsize=None)
def _eta_sweep(T, bits):
    """(guard, E) with E[t] = eta(t) 2^(bits+guard) to within 2^(guard-1),
    for t = 2..T (E[0] = E[1] = 0 pad the index).

    eta(t) = sum_j (-1)^j / (j+1)^t = zeta(t) (1 - 2^(1-t)) is summed with
    the integer Chebyshev weights d_j of Cohen, Rodriguez Villegas & Zagier
    ("Convergence acceleration of alternating series", Experimental Math. 9,
    2000): after n terms the error is below 3 (3 + sqrt 8)^-n, under
    2^-bits / 10^4 at the n taken here.  Term j is kept as
    c_j(t) = floor(Y_j / (j+1)^t), Y_j = (d_n - d_j) 2^(bits+guard) / d_n,
    so one floor division by j + 1 steps it from t to t + 1 with no error
    carried (floor(floor(y) / b) = floor(y / b)).  The n floors cost under
    n units of 2^-(bits+guard), below 1/4 unit of 2^-bits for
    guard = bitlen(n) + 2, so eta(t) is off by less than half a unit of
    2^-bits.  c_j(t) falls with j, so the terms from the first zero on are
    dropped for good."""
    n = int(bits * math.log(2) / math.log(3 + math.sqrt(8))) + 8
    # d_j = sum_{i<=j} n (n+i-1)! 4^i / ((n-i)! (2i)!), every term an
    # integer: up to sign, the coefficient of x^i in T_n(1 - 2x)
    term, d = 1, [1]
    for i in range(1, n + 1):
        term, rem = divmod(term * 4 * (n + i - 1) * (n - i + 1),
                           (2 * i - 1) * 2 * i)
        if rem:
            raise AssertionError("acceleration weights must be integers")
        d.append(d[-1] + term)
    guard = n.bit_length() + 2
    scale = 1 << (bits + guard)
    terms = [(d[n] - d[j]) * scale // (d[n] * (j + 1) ** 2) for j in range(n)]
    E = [0, 0]
    for t in range(2, T + 1):
        while terms and not terms[-1]:
            terms.pop()
        E.append(sum(terms[0::2]) - sum(terms[1::2]))
        terms = [c // j for j, c in enumerate(terms, 1)]
    return guard, E


@lru_cache(maxsize=None)
def zeta_fraction(s, digits):
    """zeta(s) as a Fraction with error below 10^-digits: eta(s) from
    `_eta_sweep` at bits = ceil(digits log2 10) + 2 is off by less than
    2^-(bits+1), and zeta(s) = eta(s) 2^(s-1) / (2^(s-1) - 1) at most doubles
    that."""
    if s < 2:
        raise DomainError("zeta(s) implemented for integer s >= 2")
    bits = math.ceil(digits * math.log2(10)) + 2
    # sweeping to the next power of two serves every s up to it at once
    guard, E = _eta_sweep(1 << (s - 1).bit_length(), bits)
    two = 1 << (s - 1)
    return Fraction(E[s] * two, (two - 1) << (bits + guard))


def zeta(s):
    """zeta(s) for integer s >= 2, accurate to better than 1e-14 relative."""
    return float(zeta_fraction(s, 25))


# ---------------------------------------------------------------------------
# expansion of g_k around the singular point
# ---------------------------------------------------------------------------

class EMExpansion(namedtuple("EMExpansion", "k order constant_zeta_multiple "
                                            "lambda_terms lambda_tilde")):
    """Expansion g_k(s) ~ const - sum_l lam_l (1-s)^l - [k=1] sqrt(1-s)(1/4 + ...).

    Each lam_l is stored in lambda_terms, for l = 1..order, as Fractions
    (rational, zeta_multiplier) with value rational + zeta_multiplier *
    zeta(k+1); the constant is k! zeta(k+1) / 2^{k+1}, the Fraction
    constant_zeta_multiple times zeta(k+1).  lambda_tilde holds the Fraction
    coefficients of the sqrt branch (k = 1 only, l = 1..order).
    """

    __slots__ = ()

    @property
    def constant(self):
        return float(self.constant_zeta_multiple) * zeta(self.k + 1)

    def lambda_value(self, l):
        rat, zc = self.lambda_terms[l - 1]
        return float(rat) + float(zc) * zeta(self.k + 1)

    def evaluate(self, varsigma):
        x = 1.0 - varsigma
        acc = self.constant
        for l in range(1, self.order + 1):
            acc -= self.lambda_value(l) * x ** l
        if self.k == 1:
            branch = 0.25
            for l in range(1, self.order + 1):
                branch += float(self.lambda_tilde[l - 1]) * x ** l
            acc -= math.sqrt(x) * branch
        return acc


def em_expansion(k, M):
    """Expansion data for g_k to order M in (1 - s).

    Write u = sqrt(1-s) and L = -log b = 2 artanh u = 2 u sig(u^2).  Then

      g_k = (u/L)^{k+1} (k! zeta(k+1) - sum_j B_{2j} B_{2j-k} L^{2j}/(2j (2j-k)!))
            - [k=1] u^2/(2L),

    and every term is sig-rational in x = u^2 except the odd u-power for
    k = 1, which supplies the sqrt branch.  All series work happens in the
    exact backend at truncation order M.
    """
    if k < 1 or M < 1:
        raise DomainError("need k >= 1 and M >= 1")
    sig = TruncatedSeries(
        [Fraction(1, 2 * j + 1) for j in range(M + 1)], EXACT, M)
    inv_sig = sig.inverse()
    # coefficient series multiplying zeta(k+1): k! (2 sig)^-(k+1)
    w_series = inv_sig.pow(k + 1).scaled(Fraction(factorial(k), 2 ** (k + 1)))
    # pure-rational part from the Bernoulli corrections
    p_series = TruncatedSeries.zero(M, EXACT)
    x_mono = TruncatedSeries.monomial(1, 1, M, EXACT)
    for j in range(max(1, (k + 1) // 2), M + 1):
        b2j = bernoulli(2 * j)
        bk = bernoulli(2 * j - k)
        if b2j == 0 or bk == 0:
            continue
        coef = b2j * bk / (2 * j * factorial(2 * j - k))
        # (u/L)^{k+1} L^{2j} = 2^{2j-k-1} x^j sig^{2j-k-1}
        expo = 2 * j - k - 1
        ser = sig.pow(expo) if expo >= 0 else inv_sig.pow(-expo)
        ser = ser * x_mono.pow(j)
        p_series = p_series - ser.scaled(coef * Fraction(2) ** (2 * j - k - 1))
    lam = []
    for l in range(1, M + 1):
        lam.append((-p_series[l], -w_series[l]))
    tilde = []
    if k == 1:
        v = inv_sig.scaled(Fraction(1, 4))
        tilde = [v[l] for l in range(1, M + 1)]
    assert p_series[0] == 0, "expansion constant must be pure zeta"
    return EMExpansion(k, M, w_series[0], lam, tilde)


# ---------------------------------------------------------------------------
# tail laws for the point-count distributions
# ---------------------------------------------------------------------------

class TailModel(namedtuple("TailModel", "rates weights residual",
                           defaults=(0.0,))):
    """Pr(N = l) ~ sum_i rates[i]^l (theta0_i + l theta1_i); weights holds
    (theta0, theta1) per rate."""

    __slots__ = ()

    def predict(self, l):
        acc = 0.0
        for a, (t0, t1) in zip(self.rates, self.weights):
            acc += a ** l * (t0 + l * t1)
        return acc


def doublepoint_tail():
    """Limit law Pr(N_4 = l) -> alpha^l (theta0 + l theta1) for l > 2."""
    pi2 = math.pi ** 2
    z3 = zeta(3)
    alpha = pi2 / (24.0 + pi2)
    c = pi2 / 3.0 - z3
    denom = 1.0 + pi2 / 24.0
    theta0 = (216.0 / math.pi ** 6) * (c ** 2 / denom) * (
        (4.0 + pi2 / 3.0) / c
        - (3.0 + pi2 / 24.0) / ((pi2 / 6.0) * denom)
        - 3.0 / (4.0 * denom))
    theta1 = (1296.0 / math.pi ** 8) * (c / denom) ** 2
    return TailModel(rates=[alpha], weights=[(theta0, theta1)])


def doublepoint_head():
    """Limits of Pr(N_4 = l) for l = 0, 1, 2, in closed form.

    With p_l the tail law of `doublepoint_tail` for l >= 3, the limit mean
    of N_4 (1: E N_4 = 2n / (2n - 1) at length 2n) and its limit variance
    cov(2, 2) of `second_moment_limit` fix the rest, since E C(N_4, 2) =
    cov(2, 2) / 2 in the limit:

        P2 = cov(2, 2) / 2 - sum_{l>=3} C(l, 2) p_l,
        P1 = 1 - sum_{l>=3} l p_l - 2 P2,
        P0 = 1 - sum_{l>=3} p_l - P1 - P2.

    The tail sums stop at l = 100, where p_l is below 1e-50."""
    tail = [doublepoint_tail().predict(l) for l in range(3, 101)]
    p2 = second_moment_limit(2, 2) / 2 - sum(
        comb(l, 2) * p for l, p in enumerate(tail, 3))
    p1 = 1 - sum(l * p for l, p in enumerate(tail, 3)) - 2 * p2
    return [1 - sum(tail) - p1 - p2, p1, p2]


# the largest k whose float eigenvalues of W(k) stay within 1e-10 relative of
# 60-digit ones: 1.3e-12 at k = 10, 2.9e-11 at k = 11, 3.2e-10 at k = 12
TAIL_RATES_KMAX = 10
# the significant digits that 1e-10 relative certifies
TAIL_RATES_DIGITS = 10


def limit_transfer_matrix(k):
    """W(k) of `genfun.reduced_terms` at the singular point, with Fraction
    entries (see `tail_rates_limit`).

    Row (rho, t) of Q(k) is (-1)^rho / rho! row (0, rho + t), so Q(k) = U G
    factors through the state s = rho + t, and G U = W(k) has the same
    nonzero eigenvalues.  Row a and column b here are s = k-2-a and
    s' = k-2-b of `reduced_terms`.  Each chain_block(i, j) is replaced by its
    limit zeta(j) / 2^j and each (1-A)^m by 1; the rational coefficient of
    every zeta value is collected exactly before one product with
    `zeta_fraction`, which reads it off the fixed-point eta sweep.
    """
    cells = {}  # (a, b) -> {j: exact coefficient of zeta(j)}
    for (s, s2), weights in reduced_terms(k).items():
        cell = cells.setdefault((k - 2 - s, k - 2 - s2), {})
        for (_power, (_i, j)), w in weights.items():
            cell[j] = cell.get(j, 0) + w / 2 ** j
    maxmag = max(abs(c) for cell in cells.values() for c in cell.values())
    digits = 30 + int(math.log10(max(maxmag, 1)))
    W = [[Fraction(0)] * (k - 1) for _ in range(k - 1)]
    for (a, b), cell in cells.items():
        W[a][b] = sum(c * zeta_fraction(j, digits) for j, c in cell.items())
    return W


def tail_rates_limit(k):
    """Geometric tail rates of the limit law of N_{2k}, by decreasing |rate|.

    For j >= 3 the binomial moments are M_j = <L| Q(k)^{j-3} |R>, and
    sum_l Pr(l) v^l = sum_j M_j (v-1)^j, so at the singular point the limit
    law has its poles at v = 1 + 1/mu for the nonzero eigenvalues mu of
    Q(k) there, and each tail rate is mu / (1 + mu) (transfer theorem:
    Flajolet & Sedgewick, Analytic Combinatorics, 2009, ch. VI).  Those mu
    are the eigenvalues of the (k-1) x (k-1) matrix W(k) of
    `limit_transfer_matrix`; float eigenvalues of its rounded entries are
    within 1e-10 relative for k <= TAIL_RATES_KMAX, and lose digits fast
    beyond (cond W reaches 1e37 at k = 20).

    The block limits.  At the singular point z = 1/2, A = sqrt(1 - 4z^2)
    tends to 0, so every (1 - A)^m tends to 1.  Write
    B^2 = (1 - A) / (1 + A) = e^{-L}, so L = 2 artanh A = 2A + O(A^3) and
    tail_f = sum_{m>=1} e^{-fmL}.  Summing over f first,

        sum_f C(f+i-1, j-1) tail_f = sum_{F>=1} c_F e^{-FL},
        c_F = sum_{f | F} C(f+i-1, j-1).

    The leading part f^{j-1} / (j-1)! of the binomial gives c_F ~
    sigma_{j-1}(F) / (j-1)!, whose Dirichlet series zeta(s) zeta(s-j+1) has
    its rightmost pole at s = j with residue zeta(j); so for j >= 2 the sum
    is zeta(j) / L^j + O(L^{1-j} log(1/L)), the error coming from the
    polynomial terms of lower degree.  Times A^j,

        chain_block(i, j) -> zeta(j) / 2^j   (j >= 2),

    and the error vanishes like A log(1/A).  Q(k) reads only blocks with
    j >= 2i, so for j = 2 the binomial is f and has no constant term, and
    the lower terms vanish like A: the truncated sums at orders K approach
    the limit like K^{-1/2}.  The same argument on pair_block(1, 1) =
    A^2 sum_f f tail_f gives zeta(2) / 4 = pi^2 / 24, the k = 2 case:
    W(2) = [pi^2 / 24], so the rate is pi^2 / (24 + pi^2), the alpha of
    `doublepoint_tail`.
    """
    if k < 2:
        raise DomainError("N_2 has no tail: tail rates start at k = 2")
    import numpy as np
    W = np.array(limit_transfer_matrix(k), dtype=np.float64)
    mu = np.linalg.eigvals(W)
    if np.any(mu.imag != 0):
        raise IllConditioned(f"complex eigenvalues of W({k}): float "
                             "eigenvalues have lost their accuracy")
    return sorted((float(m / (1 + m)) for m in mu.real), key=lambda r: -abs(r))


def singlepoint_expansion(n):
    """The 1/n expansions of Pr_n(N_2 = l) for l = 0, 1, 2 (error O(1/n^5))."""
    n = float(n)
    p0 = 0.25 - 1 / (4 * n) - 1 / (48 * n ** 2) + 13 / (144 * n ** 3) \
        + 421 / (2880 * n ** 4)
    p1 = 0.5 - 5 / (24 * n ** 2) - 11 / (36 * n ** 3) - 511 / (1440 * n ** 4)
    p2 = 0.25 + 1 / (4 * n) + 11 / (48 * n ** 2) + 31 / (144 * n ** 3) \
        + 601 / (2880 * n ** 4)
    return p0, p1, p2


# ---------------------------------------------------------------------------
# limit second moments of the point counts
# ---------------------------------------------------------------------------

def second_moment_limits(ks):
    """Limit covariances of (N_{2k1}, N_{2k2}): {(k1, k2): float} for every
    k1 <= k2 in ks.

    With a_r = C(k1-1, r-1), b_r = C(k2-1, r-1), s = r1 + r2,
    sigma = 2 (-1)^s C(s, r1) and Z_t = zeta(t) / (2^t t (t+1)), each limit
    is

        [k1 = k2] - 1/2 + (k1 + k2) a^T H1 b + a^T H2 b,
        H1[r1][r2] = sigma (s+1) Z_s,
        H2[r1][r2] = sigma (-s (s+1) Z_s + (C(r1,2) + C(r2,2)) Z_{s-1} [s > 2]),

    two bilinear forms in matrices shared by every pair: u = a^T H is formed
    once per k1, and a pair costs two dot products.  The coefficients reach
    ~C(2k-2, k-1)^2 at k1 = k2 = k, so the forms are summed in integers, on
    Z_t at one fixed point 2^-bits, and the quotient of two ints rounds
    correctly.  As zeta(t) / 2^t = eta(t) / (2^t - 2), Z_t is the E_t of
    `_eta_sweep` floor-divided by (2^t - 2) t (t+1) 2^guard.

    The error bound.  Take T = 2 max(ks) >= k1 + k2 and
    bits = 128 + 2T + 2 bitlen(T).  E_t / 2^guard is off by less than 1/2
    unit and (2^t - 2) t (t+1) >= 12, so after the floor each Z_t is off by
    e_t < 2 units.  The pair sums them with weights a b |sigma|
    ((k1+k2-s)(s+1) + C(r1,2) + C(r2,2)) <= a b 2^(T+1) T (T+1).  Since
    sum a b = 2^(k1+k2-2) <= 2^(T-2), the error is below
    2^(2T) T (T+1) 2^-bits < 2^-128: every float is the rounding of a value
    within 2^-128 of the limit.
    """
    ks = sorted(set(ks))
    if not ks or ks[0] < 1:
        raise DomainError("covariance limits need at least one k, all >= 1")
    K = ks[-1]
    T = 2 * K
    bits = 128 + 2 * T + 2 * T.bit_length()
    guard, E = _eta_sweep(T, bits)
    Z = [0, 0] + [E[t] // ((((1 << t) - 2) * t * (t + 1)) << guard)
                  for t in range(2, T + 1)]
    # H1 = C(s, r1) w1[s] and, as C(r1, 2) + C(r2, 2) = C(s, 2) - r1 r2 and
    # r1 r2 C(s, r1) = r1 (r1 + 1) C(s, r1 + 1), H2 = C(s, r1) w2[s] -
    # r1 (r1 + 1) C(s, r1 + 1) w3[s]
    sign = [2 - 4 * (s % 2) for s in range(T + 1)]
    z1 = [Z[s - 1] if s > 2 else 0 for s in range(T + 1)]
    w1 = [g * (s + 1) * z for s, (g, z) in enumerate(zip(sign, Z))]
    w2 = [g * (comb(s, 2) * y - s * (s + 1) * z)
          for s, (g, z, y) in enumerate(zip(sign, Z, z1))]
    w3 = list(map(mul, sign, z1))
    rows = {1: [1]}  # k -> Pascal row k - 1, the a_r or b_r of k
    row = [1]
    for k in range(2, K + 1):
        row = [1] + [x + y for x, y in zip(row, row[1:])] + [1]
        if k in ks:
            rows[k] = row
    # u = a^T H for every k1 at once, one row of the symmetric H at a time
    u1 = {k: [] for k in ks}
    u2 = {k: [] for k in ks}
    cur = list(accumulate([1] * (K + 1)))  # C(r + j, r), j = 0..K, at r = 1
    for r in range(1, K + 1):
        nxt = list(accumulate(cur))
        span = slice(r + 1, r + K + 1)  # s = r + r' for r' = 1..K
        h1 = list(map(mul, cur[1:], w1[span]))
        h2 = [x - r * (r + 1) * y for x, y in zip(
            map(mul, cur[1:], w2[span]), map(mul, nxt, w3[span]))]
        for k in ks:
            u1[k].append(sum(map(mul, rows[k], h1)))
            u2[k].append(sum(map(mul, rows[k], h2)))
        cur = nxt
    half = 1 << (bits - 1)
    out = {}
    for i, k1 in enumerate(ks):
        for k2 in ks[i:]:
            b = rows[k2]
            num = ((k1 + k2) * sum(map(mul, u1[k1], b))
                   + sum(map(mul, u2[k1], b)) + (half if k1 == k2 else -half))
            out[k1, k2] = num / (1 << bits)
    return out


def second_moment_limit(k1, k2):
    """Limit covariance of (N_{2k1}, N_{2k2}): the one-pair call of
    `second_moment_limits`, the same value in either order."""
    return second_moment_limits((k1, k2))[min(k1, k2), max(k1, k2)]


def range_moment_limit(r):
    """xi(r) = r (r-1) zeta(r) Gamma(r/2) pi^{-r/2}: limit of E(ran^r)/E(ran)^r.

    Evaluated through the duplication formula
    Gamma(r/2) = 2^{r/2-1} Gamma(r/4) Gamma(r/4 + 1/2) / sqrt(pi), with half
    of pi^{-r/2} on each Gamma factor, so no partial product overflows while
    xi(r) is a finite float64 (up to r = 432).
    """
    if r < 2:
        raise DomainError("range moment limits start at r = 2")
    q = math.pi ** (-r / 4.0)
    return (r * (r - 1) * zeta(r) * (math.gamma(r / 4.0) * q)
            * (math.gamma(r / 4.0 + 0.5) * q)
            * 2.0 ** (r / 2.0 - 1) / math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# Richardson extrapolation and rate fitting
# ---------------------------------------------------------------------------

def richardson(ns, values):
    """Polynomial-in-1/n extrapolation to n = infinity (Neville tableau).

    Returns (estimate, tolerance); the tolerance is the difference between
    the final extrapolate and the corner of the previous tableau column.
    """
    hs = [1.0 / n for n in ns]
    order = sorted(range(len(ns)), key=lambda i: hs[i])
    hs = [hs[i] for i in order]
    tab = [float(values[i]) for i in order]
    m = len(tab)
    corners = [tab[0]]
    for level in range(1, m):
        new = []
        for i in range(m - level):
            num = hs[i + level] * tab[i] - hs[i] * tab[i + 1]
            new.append(num / (hs[i + level] - hs[i]))
        tab = new
        corners.append(tab[0])
    tol = abs(corners[-1] - corners[-2]) if m > 1 else math.inf
    return corners[-1], tol


def fit_linear_recurrence(values, order):
    """Least-squares linear recurrence; returns (roots, relative residual)."""
    import numpy as np
    y = np.asarray(values, dtype=np.float64)
    if len(y) < 2 * order:
        raise IllConditioned("not enough sequence values for the fit order")
    rows = len(y) - order
    A = np.empty((rows, order))
    for i in range(rows):
        A[i] = y[i: i + order]
    b = y[order:]
    coef, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    fitted = A @ coef
    scale = np.linalg.norm(b)
    residual = np.linalg.norm(fitted - b) / scale if scale > 0 else np.inf
    charpoly = np.concatenate(([1.0], -coef[::-1]))
    roots = np.roots(charpoly)
    return roots, residual


def _merge_close(values, tol):
    """Greedy merge, largest magnitude first, of values within relative tol.

    Each value joins the first cluster whose mean lies within tol of it;
    returns the cluster means.  Near-coincident fitted roots come from the
    double roots of l * a^l terms.
    """
    merged = []
    for r in sorted(values, key=lambda v: -abs(v)):
        for i, (s, cnt) in enumerate(merged):
            if abs(r - s / cnt) <= tol * max(abs(r), 1e-12):
                merged[i] = (s + r, cnt + 1)
                break
        else:
            merged.append((r, 1))
    return [s / cnt for s, cnt in merged]


def probability_table(k, n, l_max):
    """Pr_n(N_{2k} = l) for l = 0..l_max: (route, values).

    Route "float" (k <= 2, or n = 0) reads a float series engine at order
    2n; route "dp" (k >= 3) runs the crossing-profile DP at length n.  The
    series route cancels ever harder for k >= 3 (condition ~ n^{(2k-1)/2});
    the all-positive DP does not.
    """
    if k <= 2 or n == 0:
        engine = Engine(2 * n, backend="float")
        return "float", engine.probabilities(n, k, l_max)
    return "dp", walks.local_time_probabilities(n, k, l_max)


def extrapolate_probability(k, l_max, n_grid):
    """Richardson limits of Pr_n(N_{2k} = l) over the 1/n grid, l = 0..l_max:
    one (estimate, tolerance) per l from one probability table per n.

    The tolerance is the gap between the last two extrapolation levels.  It
    leaves out the float route's own error at each n, so it is no bound: on
    [250, 500, 1000, 2000] at k = 2 the limits of l = 0 and 1 lie 3.2e-9
    and 5.6e-9 from the closed form, with tolerances 2.3e-9 and 4.4e-9."""
    ns = sorted(set(n_grid))
    table = [probability_table(k, n, l_max)[1] for n in ns]
    return [richardson(ns, values) for values in zip(*table)]


def tail_rate_fit(k, n):
    """Recover the geometric tail rates of Pr(N_{2k} = l) empirically.

    Pr_n values on the grid n, n/2, n/4, n/8 are Richardson-extrapolated
    pointwise in l = 3, 4, ..., a linear recurrence of order
    min(2(k-1), window/2) is fitted to the limits, and the recurrence roots
    (clustered, since each rate is a double root of the l * rate^l tail
    form) are returned sorted by decreasing magnitude.
    """
    if n < 500:
        raise DomainError("rate fitting needs n >= 500")
    import numpy as np
    ls = list(range(3, 3 + max(12, 4 * (k - 1) + 8)))
    ns = [n // 2 ** i for i in range(4)]
    pr_inf = [est for est, _tol in extrapolate_probability(k, ls[-1], ns)[3:]]
    roots, residual = fit_linear_recurrence(pr_inf,
                                            min(2 * (k - 1), len(ls) // 2))
    if not np.all(np.isfinite(roots)) or residual > 1e-3:
        raise IllConditioned(f"rate fit residual {residual:.2e} over tolerance")
    # tail rates of a decaying distribution lie strictly inside the unit
    # disk; anything else is a noise direction of the least-squares problem
    roots = [r for r in roots if abs(r) < 0.999]
    rates = [complex(r) for r in _merge_close(roots, 0.08)]
    reals = []
    for r in rates:
        if abs(r.imag) <= 0.2 * max(abs(r), 1e-12):
            reals.append(r.real)
        else:
            reals.append(math.copysign(abs(r), r.real))

    def fit_weights(rs):
        cols = []
        for a in rs:
            cols.append([a ** l for l in ls])
            cols.append([l * a ** l for l in ls])
        A = np.array(cols).T
        sol, _, _, _ = np.linalg.lstsq(A, np.array(pr_inf), rcond=None)
        return [(sol[2 * i], sol[2 * i + 1]) for i in range(len(rs))]

    # rates whose fitted contribution is negligible over the window are
    # least-squares noise modes, not part of the tail law
    reals = _merge_close(reals, 0.05)
    weights = fit_weights(reals)
    contrib = [max(abs((t0 + l * t1) * a ** l) for l in ls)
               for a, (t0, t1) in zip(reals, weights)]
    top = max(contrib) if contrib else 0.0
    reals = [a for a, c in zip(reals, contrib) if c > 1e-4 * top]
    reals.sort(key=lambda v: -abs(v))
    weights = fit_weights(reals)
    return TailModel(rates=reals, weights=weights, residual=float(residual))
