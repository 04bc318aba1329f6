"""First moments of the multiple-point range and of the range, any dimension.

For d = 1 the moment series are closed-form in A = sqrt(1 - 4z^2):

    sum_w N_{2k}(w) z^len = z d/dz [ (1/k) (1 - A)^k ]
    sum_w ran(w)  z^len   = z d/dz [ -(1/2) log(1 - 4z^2) ]

For general d everything runs through the return-series value

    h(0,d,z) = integral_0^inf e^{-y} I_0(2zy)^d dy  -  1,

evaluated exactly for d = 1, by the AGM elliptic integral for d = 2, and by
adaptive Gauss-Legendre quadrature for d >= 3 (with an algebraic tail at the
critical point z = 1/(2d), where the integrand decays like y^{-d/2}).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError


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


def i0e(x):
    """exp(-x) I_0(x) for x >= 0: power series below the seam, scaled
    asymptotic expansion above it; the two agree to ~1e-12 at the seam."""
    if x < 0:
        raise DomainError("i0e is implemented for x >= 0")
    if x <= _I0_SEAM:
        term = 1.0
        acc = 1.0
        j = 0
        q = (x / 2.0) ** 2
        while True:
            j += 1
            term *= q / (j * j)
            acc += term
            if term < acc * 1e-18:
                break
        return acc * math.exp(-x)
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
    return acc / math.sqrt(2.0 * math.pi * x)


def _i0e_vec(x):
    import numpy as np
    return np.array([i0e(v) for v in np.atleast_1d(x)])


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

@dataclass(frozen=True)
class GreenValue:
    d: int
    z: float
    value: float
    method: str


_GL_CACHE = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        import numpy as np
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _panel_integral(f, a, b, nodes):
    import numpy as np
    x, w = nodes
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return half * float(np.dot(w, f(mid + half * x)))


def _adaptive_panel(f, a, b, tol, depth=0):
    coarse = _panel_integral(f, a, b, _gl_nodes(24))
    fine = _panel_integral(f, a, b, _gl_nodes(48))
    if abs(fine - coarse) <= tol or depth >= 12:
        return fine
    mid = (a + b) / 2.0
    return (_adaptive_panel(f, a, mid, tol / 2, depth + 1)
            + _adaptive_panel(f, mid, b, tol / 2, depth + 1))


_I0_ASYMP_TERMS = 9


def _i0_asymp_coeffs(j_max):
    """Coefficients u_j of I_0(x) ~ e^x (2 pi x)^{-1/2} sum u_j x^{-j}."""
    u = [1.0]
    for j in range(1, j_max + 1):
        u.append(u[-1] * (2 * j - 1) ** 2 / (8.0 * j))
    return u


def _algebraic_tail(d, z, Y):
    """integral_Y^inf e^{-(1-2dz) y} i0e(2zy)^d dy at the critical point.

    Valid only for 1 - 2dz = 0: expands i0e(2zy)^d in powers of 1/y and
    integrates term by term.
    """
    u = _i0_asymp_coeffs(_I0_ASYMP_TERMS)
    # (sum_j u_j w^j)^d as a polynomial in w = 1/(2 z y)
    poly = [1.0]
    for _ in range(d):
        new = [0.0] * (_I0_ASYMP_TERMS + 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(u):
                if i + j <= _I0_ASYMP_TERMS:
                    new[i + j] += a * b
        poly = new
    pref = (2.0 * math.pi * 2.0 * z) ** (-d / 2.0)
    tail = 0.0
    for m, c in enumerate(poly):
        expo = d / 2.0 + m - 1.0
        tail += c * (2.0 * z) ** (-m) * Y ** (-expo) / expo
    return pref * tail


def green(d, z):
    """h(0,d,z): expected-return generating value, the integral minus 1.

    Defined for 0 <= z <= 1/(2d).  At the boundary the d = 1, 2 values are
    infinite (recurrent walks); for d >= 3 the boundary value is the escape
    constant G(d) with 1/(1 + G(d)) the no-return probability.
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if z < 0 or z > 1.0 / (2 * d) + 1e-15:
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

    eps = 1.0 - 2 * d * z
    if z == 0:
        return GreenValue(d, z, 0.0, "quadrature")

    import numpy as np

    def f(y):
        return np.exp(-eps * y) * _i0e_vec(2 * z * y) ** d

    tol = 1e-14
    total = 0.0
    a, b = 0.0, 1.0
    critical = eps < 1e-12
    y_stop = 2.0e4 if critical else min(2.0e4 + 60.0 / max(eps, 1e-12), 5.0e6)
    while a < y_stop:
        total += _adaptive_panel(f, a, min(b, y_stop), tol)
        a, b = b, 2 * b
    if critical:
        total += _algebraic_tail(d, z, y_stop)
    else:
        # exponential bound on the dropped tail; extend if it is not tiny
        bound = math.exp(-eps * y_stop) * i0e(2 * z * y_stop) ** d / eps
        while bound > 1e-15:
            total += _adaptive_panel(f, y_stop, 2 * y_stop, tol)
            y_stop *= 2
            bound = math.exp(-eps * y_stop) * i0e(2 * z * y_stop) ** d / eps
    return GreenValue(d, z, total - 1.0, "quadrature")


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
