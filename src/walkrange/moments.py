"""First moments of the multiple-point range and of the range, any dimension.

For d = 1 the moment series are closed-form in A = sqrt(1 - 4z^2):

    sum_w N_{2k}(w) z^len = z d/dz [ (1/k) (1 - A)^k ]
    sum_w ran(w)  z^len   = z d/dz [ -(1/2) log(1 - 4z^2) ]

For general d everything runs through the return-series value

    h(0,d,z) = integral_0^inf e^{-y} (I_0(2zy)^d - 1) dy,

evaluated exactly for d = 1, by the AGM elliptic integral for d = 2, and for
d >= 3 by one exp-sinh rule, which covers both the exponential decay of the
integrand below the critical point z = 1/(2d) and its y^{-d/2} decay at it.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from math import comb

from .errors import DomainError, IllConditioned


# ---------------------------------------------------------------------------
# d = 1 closed forms
# ---------------------------------------------------------------------------

def first_moment_exact(n, k):
    """sum_w N_{2k}(w) over closed 1-d walks of length 2n, in closed form.

    [z^{2n}] (1-A)^k = 2^k (k/(2n-k)) C(2n-k, n-k) by ballot numbers, so the
    moment is 2n 2^k C(2n-k, n-k) / (2n-k).
    """
    if k > n:
        return 0
    return Fraction(2 * n * 2 ** k * comb(2 * n - k, n - k), 2 * n - k)


def mean_point_count(n, k):
    """E_n(N_{2k}) for d = 1 as an exact Fraction."""
    return first_moment_exact(n, k) / comb(2 * n, n)


def mean_range(n):
    """E_n(ran) for d = 1 as an exact Fraction: 4^n / C(2n, n)."""
    return Fraction(4 ** n, comb(2 * n, n))


# ---------------------------------------------------------------------------
# modified Bessel function I0, exponentially scaled
# ---------------------------------------------------------------------------

_I0_SEAM = 15.0


def _log_i0(x):
    """(log(exp(-x) I_0(x)), log I_0(x)) for x >= 0, both accurate relative
    to themselves, so d-fold multiples stay accurate at any d: power series
    below the seam, where log I_0 = log1p(I_0 - 1) is formed first, and the
    scaled asymptotic expansion above it; the two agree to ~1e-12 at the
    seam."""
    if x <= _I0_SEAM:
        term = 1.0
        rest = 0.0
        j = 0
        q = (x / 2.0) ** 2
        while True:
            j += 1
            term *= q / (j * j)
            rest += term
            if term < (1.0 + rest) * 1e-18:
                break
        log_i0 = math.log1p(rest)
        return log_i0 - x, log_i0
    acc = 1.0
    term = 1.0
    prev = math.inf
    for j in range(1, 40):
        term *= (2 * j - 1) ** 2 / (8.0 * j * x)
        if term > prev:  # asymptotic series started diverging
            break
        acc += term
        prev = term
        if term < 1e-19:
            break
    scaled = math.log(acc) - 0.5 * math.log(2.0 * math.pi * x)
    return scaled, scaled + x


def i0e(x):
    """exp(-x) I_0(x) for x >= 0."""
    if x < 0:
        raise DomainError("i0e is implemented for x >= 0")
    return math.exp(_log_i0(x)[0])


# ---------------------------------------------------------------------------
# complete elliptic integral via the arithmetic-geometric mean
# ---------------------------------------------------------------------------

def elliptic_k(m):
    """K(m) = integral_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt, parameter m < 1.

    Arithmetic-geometric mean iteration; quadratic convergence reaches the
    1-ulp floor within a handful of steps, so iterate to stagnation."""
    if m >= 1:
        raise DomainError("elliptic_k needs parameter m < 1")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(64):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return math.pi / (2.0 * a)


# ---------------------------------------------------------------------------
# the return series h(0,d,z)
# ---------------------------------------------------------------------------

GreenValue = namedtuple("GreenValue", "d z value method")


_DE_STEP = 0.5    # first step in t
_DE_TOL = 1e-14   # relative agreement of two levels that ends the rule
_DE_TAIL = 1e-18  # a march ends at the first term this small against the sum
_DE_LEVELS = 8    # halvings of the step before the rule gives up


def _exp_sinh(f):
    """integral_0^inf f(y) dy for f > 0 by the exp-sinh rule.

    The trapezoid rule in t on y = exp(pi/2 sinh t) (Takahasi & Mori 1974),
    whose terms decay double-exponentially both ways whether f decays
    exponentially or only algebraically.  Each level halves the step and
    adds the nodes midway between the last level's, marched out from t = 0
    until the terms become negligible; the terms are summed exactly (fsum),
    and two levels that agree to _DE_TOL relative end the rule.
    """
    terms = [f(1.0)]  # the node t = 0

    def march(t0, dt):
        for sign in (1.0, -1.0):
            s = math.fsum(terms)
            t = sign * t0
            while True:
                y = math.exp(math.pi / 2.0 * math.sinh(t))
                v = f(y) * y * math.cosh(t)
                if v <= _DE_TAIL * s:
                    break
                terms.append(v)
                s += v
                t += sign * dt

    h = _DE_STEP
    march(h, h)
    estimate = h * math.fsum(terms)
    for _ in range(_DE_LEVELS):
        h /= 2.0
        march(h, 2.0 * h)
        new = h * math.fsum(terms)
        if abs(new - estimate) <= _DE_TOL * new:
            return math.pi / 2.0 * new
        estimate = new
    raise IllConditioned(f"exp-sinh rule did not settle in {_DE_LEVELS} levels")


def green(d, z):
    """h(0,d,z): expected-return generating value.

    Defined for 0 <= z <= 1/(2d).  At the boundary the d = 1, 2 values are
    infinite (recurrent walks); for d >= 3 the boundary value is the escape
    constant G(d) with 1/(1 + G(d)) the no-return probability.
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if z < 0 or 2 * d * z > 1.0 + 1e-14:
        raise DomainError(f"z = {z} outside [0, 1/{2 * d}]")
    if d == 1:
        a2 = 1.0 - 4.0 * z * z
        if a2 <= 0:
            return GreenValue(d, z, math.inf, "exact-series")
        a = math.sqrt(a2)
        return GreenValue(d, z, (1.0 - a) / a, "exact-series")
    if d == 2:
        m = 16.0 * z * z
        if m >= 1:
            return GreenValue(d, z, math.inf, "elliptic")
        return GreenValue(d, z, (2.0 / math.pi) * elliptic_k(m) - 1.0, "elliptic")
    if z == 0:
        return GreenValue(d, z, 0.0, "quadrature")
    # 1 - 2dz rounded once; the float nearest 1/(2d) is the critical point,
    # and the clamp absorbs the few ulps past it that the domain check admits
    eps = 0.0 if z == 1.0 / (2 * d) else max(float(1 - 2 * d * Fraction(z)), 0.0)

    def excess(y):
        # e^{-y} (I_0(2zy)^d - 1) = e^{-y} I_0^d (1 - I_0^{-d}): the integral
        # of e^{-y} I_0^d is 1 + G, and integrating the excess over e^{-y}
        # gives G without the cancellation of (1 + G) - 1 at large d
        scaled, log_i0 = _log_i0(2 * z * y)
        return math.exp(d * scaled - eps * y) * -math.expm1(-d * log_i0)

    return GreenValue(d, z, _exp_sinh(excess), "quadrature")


@functools.cache
def escape_constant(d):
    """G(d) = h(0, d, 1/(2d)) for d > 2, integrated once per d."""
    if d <= 2:
        raise DomainError("the escape constant exists for d > 2 only")
    return green(d, 1.0 / (2 * d)).value


# ---------------------------------------------------------------------------
# large-length first moments
# ---------------------------------------------------------------------------

def asymptotic_first_moment(n, k, d):
    """Leading large-n approximation of E_n(N_{2k})."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if d == 1:
        return 1.0
    if d == 2:
        return 2.0 * n * math.pi ** 2 / math.log(n) ** 2
    g = escape_constant(d)
    return 2.0 * n * g ** (k - 1) / (1.0 + g) ** (k + 1)


def asymptotic_range_moment(n, d):
    """Leading large-n approximation of E_n(ran)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if d == 1:
        return math.sqrt(math.pi * n)
    if d == 2:
        return 2.0 * n * math.pi / math.log(n)
    return 2.0 * n / (1.0 + escape_constant(d))
