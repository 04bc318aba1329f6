"""Truncated formal power series in z with exact-rational and float backends.

A series is a dense coefficient vector nums[0..K] over a denominator den;
every arithmetic result is re-projected onto the truncation order of its
operands.  Each ring operation is written once for both backends, which
differ only in how a vector is built, in the product kernel, in how a
scalar enters the coefficient field and in how a coefficient is read:

- exact: integer numerators over one denominator, canonical (den > 0 and
  gcd(den, *nums) == 1), multiplied by Kronecker substitution (Harvey,
  "Faster polynomial multiplication via multipoint Kronecker substitution",
  JSC 2009; as in FLINT's fmpz_poly): each vector is packed into one big
  integer, the two are multiplied once (CPython's Karatsuba) and the low
  K+1 slots are read back;
- float: a read-only, finite float64 array with den == 1, multiplied by
  numpy convolution (FFT from _FFT_THRESHOLD on), whose error is relative
  to the operands' norms: float series need bounded coefficients.

Division is a Newton iteration on the product and log integrates z a'/a
(Brent & Kung, "Fast algorithms for manipulating formal power series",
J. ACM 1978).  Base series:

    A  = sqrt(1 - 4 z^2)            (square-root factor of the walk kernel)
    B  = 2z / (1 + A)               (z times the Catalan generating function)
    h0 = (1 - A) / A                (closed-walk count series, empty walk removed)

with the geometric tails B^{2f}/(1 - B^{2f}) and weighted sums over them.
B-powers have the ballot-number closed form [z^m] B^j = (j/m) C(m, (m-j)/2),
so the cache needs no division and its exact series are integer vectors.
The backend fixes the scale s of a cache, which stores s^m times the true
coefficients: s = 1 on the exact backend, s = 1/2 on the float backend,
where it cancels the 4^n growth of the walk counts and keeps every
coefficient inside float64 range at any truncation order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from math import comb

import numpy as np

from .errors import BackendMismatch, DivByNonUnit, NonFiniteCoefficient

EXACT = "exact"
FLOAT = "float"

# Above this order exact rational arithmetic gets expensive; callers that do
# not override the backend get floats instead.
EXACT_ORDER_LIMIT = 512

_FFT_THRESHOLD = 384

# rows of the float B^{2F} table built per numpy pass
_ROW_BLOCK = 64

# the scale s of every float cache
_FLOAT_SCALE = 0.5


def choose_backend(K, override=None):
    if override is not None:
        if override not in (EXACT, FLOAT):
            raise ValueError(f"unknown backend {override!r}")
        return override
    return EXACT if K <= EXACT_ORDER_LIMIT else FLOAT


def _check_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteCoefficient("float series coefficient is NaN or infinite")
    return arr


def _kronecker(a, b, K):
    """Coefficients 0..K of the product of the integer vectors a and b.

    Slots are w = 8*nb bits, so every product coefficient has |c| < 2^(w-1);
    adding 2^(w-1) per low slot modulo 2^(w(K+1)) makes it read back as
    plain bytes, and the mask drops the (possibly negative) slots above K."""
    # series in z^2 only (all walk series are) multiply as series in y = z^2
    s = 1 if any(a[1: K + 1: 2]) or any(b[1: K + 1: 2]) else 2
    a, b = a[: K + 1: s], b[: K + 1: s]
    n = len(a)
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + n.bit_length() + 2)
    nb = (bits + 7) // 8

    def pack(v):
        pos = b"".join((x if x > 0 else 0).to_bytes(nb, "little") for x in v)
        neg = b"".join((-x if x < 0 else 0).to_bytes(nb, "little") for x in v)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
    low = (pack(a) * pack(b) + bias) & ((1 << (8 * nb * n)) - 1)
    buf = low.to_bytes(nb * n, "little")
    half = 1 << (8 * nb - 1)
    out = [0] * (K + 1)
    out[::s] = [int.from_bytes(buf[i: i + nb], "little") - half
                for i in range(0, nb * n, nb)]
    return out


def _convolve(a, b, K):
    """Coefficients 0..K of the product of the float vectors a and b."""
    a, b = a[: K + 1], b[: K + 1]
    if K + 1 >= _FFT_THRESHOLD:
        size = 1 << (2 * K).bit_length()
        fa = np.fft.rfft(a, size)
        fb = np.fft.rfft(b, size)
        return np.fft.irfft(fa * fb, size)[: K + 1]
    return np.convolve(a, b)[: K + 1]


def _scalar(c, backend):
    """c as (numerator, denominator) in the backend's coefficient field."""
    if backend == EXACT:
        c = Fraction(c)
        return c.numerator, c.denominator
    return float(c), 1


def _each(fn, *vecs):
    """fn coefficientwise: on whole float arrays at once, entry by entry
    along integer lists."""
    if isinstance(vecs[-1], np.ndarray):
        return fn(*vecs)
    return list(map(fn, *vecs))


def _orders(vec):
    """The orders 0, 1, ... of vec, as a vector of its kind."""
    if isinstance(vec, np.ndarray):
        return np.arange(len(vec), dtype=np.float64)
    return range(len(vec))


class TruncatedSeries:
    """Immutable truncated power series; all ops return new instances.

    Coefficient m is nums[m] / den: integers over a canonical den (exact) or
    a read-only float array over den == 1 (float).  `coeffs` and `s[m]`
    give Fractions or floats."""

    __slots__ = ("backend", "K", "nums", "den")

    def __init__(self, coeffs, backend, K=None, den=None):
        """Coefficients coeffs[m] / den up to order K, zero past the end of
        coeffs; with den None, exact coeffs are rationals.  A float den is 1."""
        K = len(coeffs) - 1 if K is None else K
        if backend == EXACT:
            if den is None:
                fr = [Fraction(c) for c in coeffs]
                den = math.lcm(*(c.denominator for c in fr))
                coeffs = [c.numerator * (den // c.denominator) for c in fr]
            nums = list(coeffs[: K + 1]) + [0] * (K + 1 - len(coeffs))
            g = math.gcd(den, *nums)
            self.nums = nums if g == 1 else [c // g for c in nums]
            self.den = den // g
        elif backend == FLOAT:
            data = np.asarray(coeffs, dtype=np.float64)[: K + 1]
            nums = np.zeros(K + 1)
            nums[: len(data)] = data
            nums.flags.writeable = False
            self.nums = _check_finite(nums)
            self.den = 1
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.K = K

    @property
    def coeffs(self):
        return self.nums if self.backend == FLOAT else [
            Fraction(c, self.den) for c in self.nums]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, K, backend):
        return cls.monomial(0, 0, K, backend)

    @classmethod
    def one(cls, K, backend):
        return cls.monomial(1, 0, K, backend)

    @classmethod
    def monomial(cls, c, m, K, backend):
        num, den = _scalar(c, backend)
        return cls([0] * m + [num], backend, K, den)

    # -- helpers -----------------------------------------------------------

    def _binop_check(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other)!r}")
        if self.backend != other.backend:
            raise BackendMismatch(
                f"cannot combine {self.backend} and {other.backend} series")
        return min(self.K, other.K)

    def __getitem__(self, m):
        if not 0 <= m <= self.K:
            return Fraction(0) if self.backend == EXACT else 0.0
        return Fraction(self.nums[m], self.den) if self.backend == EXACT else self.nums[m]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.backend == other.backend and self.K == other.K
                and self.den == other.den
                and bool(np.array_equal(self.nums, other.nums)))

    def __hash__(self):
        return id(self)

    def __repr__(self):
        head = ", ".join(str(self[m]) for m in range(min(6, self.K + 1)))
        tail = ", ..." if self.K >= 6 else ""
        return f"TruncatedSeries({self.backend}, K={self.K}, [{head}{tail}])"

    def is_zero(self):
        return not any(self.nums)

    # -- ring operations ---------------------------------------------------

    def project(self, K):
        """Discard coefficients above order K (the z-diamond-K projection)."""
        if K < 0:
            raise ValueError("projection order must be >= 0")
        if K >= self.K:
            return self
        return TruncatedSeries(self.nums[: K + 1], self.backend, K, self.den)

    def __add__(self, other):
        K = self._binop_check(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return TruncatedSeries(_each(lambda x, y: fa * x + fb * y,
                                     self.nums[: K + 1], other.nums[: K + 1]),
                               self.backend, K, den)

    def __sub__(self, other):
        self._binop_check(other)
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        num, den = _scalar(c, self.backend)
        return TruncatedSeries(_each(lambda x: num * x, self.nums), self.backend,
                               self.K, den * self.den)

    def __mul__(self, other):
        K = self._binop_check(other)
        kernel = _kronecker if self.backend == EXACT else _convolve
        return TruncatedSeries(kernel(self.nums, other.nums, K), self.backend, K,
                               self.den * other.den)

    def __truediv__(self, other):
        """Division by a unit (nonzero constant term)."""
        K = self._binop_check(other)
        b0 = other[0]
        if b0 == 0:
            raise DivByNonUnit("division by a series with zero constant term")
        # Newton: x <- 2x - x^2 other doubles the number of correct orders
        x = TruncatedSeries.monomial(1 / b0, 0, 0, self.backend)
        while x.K < K:
            x = TruncatedSeries(x.nums, self.backend, min(2 * x.K + 1, K), x.den)
            x = x.scaled(2) - x * x * other
        return self * x

    def inverse(self):
        return TruncatedSeries.one(self.K, self.backend) / self

    def log(self):
        """log of a series with positive constant term c0: log(c0) plus the
        integral of z a'/a.  The exact backend needs c0 == 1."""
        c0 = self[0]
        if c0 <= 0 or (self.backend == EXACT and c0 != 1):
            raise DivByNonUnit("log needs a positive constant term, and 1 "
                               "on the exact backend")
        d = self.zddz() / self
        return TruncatedSeries([d[m] / m if m else math.log(c0)
                                for m in range(self.K + 1)], self.backend, self.K)

    def zddz(self):
        """Apply z d/dz: multiply the m-th coefficient by m."""
        return TruncatedSeries(_each(operator.mul, _orders(self.nums), self.nums),
                               self.backend, self.K, self.den)

    def pow(self, m):
        if m < 0:
            raise ValueError("negative powers are not supported")
        result = TruncatedSeries.one(self.K, self.backend)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result


# ---------------------------------------------------------------------------
# base series cache
# ---------------------------------------------------------------------------

def _catalan(m):
    return comb(2 * m, m) // (m + 1)


class BaseSeriesCache:
    """Holds A, B, h0 and the B-power/geometric-tail machinery at one order.

    All stored series share one (K, backend) and the backend's `scale`
    (1 exact, 1/2 float).  Immutable once built; the lazy caches are
    fill-once and safe to share across threads doing read-mostly work.
    """

    def __init__(self, K, backend=None):
        backend = choose_backend(K, backend)
        self.K = K
        self.backend = backend
        self.scale = 1 if backend == EXACT else _FLOAT_SCALE
        self._even_rows = None          # float backend: matrix of B^{2F} rows
        self._even_rows_exact = {}      # exact backend: F -> integer row
        half = K // 2

        if backend == EXACT:
            self.A = self._even([-2 * _catalan(m - 1) if m else 1
                                 for m in range(half + 1)])
            self.inv_A = self._even([comb(2 * m, m) for m in range(half + 1)])
        else:
            a = np.zeros(half + 1)
            inv = np.zeros(half + 1)
            a[0] = 1.0
            inv[0] = 1.0
            val_a, val_i = 1.0, 1.0
            s2 = self.scale ** 2
            for m in range(1, half + 1):
                # ratios of successive Catalan / central-binomial numbers
                val_a *= s2 * (4 * m - 6) / m if m > 1 else s2
                val_i *= s2 * (4 * m - 2) / m
                a[m] = -2.0 * val_a
                inv[m] = val_i
            self.A = self._even(a)
            self.inv_A = self._even(inv)

        self.one = TruncatedSeries.one(K, backend)
        self.one_minus_A = self.one - self.A
        self.h0 = self.inv_A - self.one
        self.B = self._b_power(1)

    # -- scaffolding ---------------------------------------------------------

    def _even(self, vals, den=1):
        """The series sum_i (vals[i] / den) z^(2i), i <= K//2."""
        nums = [0] * (self.K + 1) if self.backend == EXACT else np.zeros(self.K + 1)
        nums[::2] = vals
        return TruncatedSeries(nums, self.backend, self.K, den)

    def monomial(self, c, m):
        """c * z^m as a series at this cache's scale."""
        return TruncatedSeries.monomial(c * self.scale ** m, m, self.K, self.backend)

    def zero(self):
        return TruncatedSeries.zero(self.K, self.backend)

    def _b_power(self, j):
        """B^j via the ballot closed form [z^m] B^j = (j/m) C(m,(m-j)/2)."""
        K = self.K
        if self.backend == EXACT:
            return TruncatedSeries([j * comb(m, (m - j) // 2) // m if m >= j and
                                    (m - j) % 2 == 0 else 0 for m in range(K + 1)],
                                   EXACT, K, 1)
        out = np.zeros(K + 1)
        ls = math.log(self.scale)
        for m in range(j, K + 1):
            if (m - j) % 2 == 0:
                h = (m - j) // 2
                lg = (math.log(j / m) + math.lgamma(m + 1) - math.lgamma(h + 1)
                      - math.lgamma(m - h + 1) + m * ls)
                out[m] = math.exp(lg) if lg > -745 else 0.0
        return TruncatedSeries(out, FLOAT, K)

    # -- B^{2F} rows ---------------------------------------------------------

    def _ensure_even_rows(self):
        """Float table rows[F][n'] = [z^{2n'}] (scaled B)^{2F}, F < len(rows).

        Rows past the first one that underflows entirely are zero and are
        not stored: the largest entry of row F sits near exp(-F^2 / n') at
        scale 1/2, so about sqrt(745 K/2) rows are kept, O(K^1.5) memory.
        Row 0 stays zero (B^0 enters no tail)."""
        if self.backend != FLOAT:
            return None
        if self._even_rows is None:
            half = self.K // 2
            # first all-zero row, by bisection: row F + 1 underflows where F does
            lo, hi = 1, half + 1
            while lo < hi:
                mid = (lo + hi) // 2
                if self._even_rows_block(mid, mid + 1).any():
                    lo = mid + 1
                else:
                    hi = mid
            rows = np.zeros((lo, half + 1))
            for F0 in range(1, lo, _ROW_BLOCK):
                F1 = min(F0 + _ROW_BLOCK, lo)
                rows[F0:F1, F0:] = self._even_rows_block(F0, F1)
            self._even_rows = rows
        return self._even_rows

    def _even_rows_block(self, F0, F1):
        """Rows F0..F1-1 of the float table, columns n' = F0..K//2.

        Row F is exp of the running sum, from n' = F on, of log s^{2F} and
        the log ratios of successive ballot numbers times s^2; entries with
        logs below -745 are zero.  Each row of the block is zero up to its
        own n' = F, and the cumsum along axis 1 adds in the same order as a
        cumsum of that row alone, so a row does not depend on its block."""
        half = self.K // 2
        ls2 = 2.0 * math.log(self.scale)
        F = np.arange(F0, F1, dtype=np.float64)[:, None]
        col = np.arange(F0, half + 1, dtype=np.float64)  # n' of each column
        npr = col - 1                                    # ratio from n' - 1 to n'
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = (npr + 1) * (npr + 1 - F) * (npr + 1 + F)
            np.log(logs, out=logs)
            np.subtract(np.log(npr * (2 * npr + 1) * (2 * npr + 2)), logs,
                        out=logs)
        logs += ls2
        logs = np.where(col > F, logs, np.where(col == F, F * ls2, 0.0))
        logs.cumsum(axis=1, out=logs)
        keep = (logs > -745.0) & (col >= F)
        # exp only where kept: results that underflow cost ~50x a normal exp
        return np.where(keep, np.exp(np.where(keep, logs, 0.0)), 0.0)

    def _even_row(self, F):
        """row[n'] = [z^{2n'}] (scaled B)^{2F}: ballot integers (exact) or a
        row of the float table (zero past the stored rows)."""
        if self.backend == FLOAT:
            rows = self._ensure_even_rows()
            return rows[F] if F < len(rows) else 0.0
        if F not in self._even_rows_exact:
            self._even_rows_exact[F] = [
                F * comb(2 * n, n - F) // n if n >= F else 0
                for n in range(self.K // 2 + 1)]
        return self._even_rows_exact[F]

    def b_even_power(self, F):
        """(scaled B)^{2F} as a series."""
        if 2 * F > self.K:
            return self.zero()
        return self._even(self._even_row(F))

    def tail(self, f):
        """Geometric tail B^{2f} / (1 - B^{2f}) = sum_j B^{2fj}."""
        return self.lambert_sum(lambda g: int(g == f))

    def lambert_sum(self, weight):
        """sum_f weight(f) * B^{2f}/(1 - B^{2f}) with f cut at K//2.

        Computed through the divisor rearrangement
        sum_f w_f sum_j B^{2fj} = sum_F (sum_{f | F} w_f) B^{2F}; the exact
        backend adds integer ballot rows times weights over one denominator.
        """
        rows = self._ensure_even_rows()
        # float rows past the stored table are zero and need no weights
        top = self.K // 2 if rows is None else len(rows) - 1
        acc_w = [None] * (top + 1)
        for f in range(1, top + 1):
            wf = weight(f)
            if wf == 0:
                continue
            for F in range(f, top + 1, f):
                acc_w[F] = wf if acc_w[F] is None else acc_w[F] + wf
        if rows is not None:
            return self._even(np.array([0.0 if w is None else float(w)
                                        for w in acc_w]) @ rows)
        ws = [(F, Fraction(w)) for F, w in enumerate(acc_w) if w]
        den = math.lcm(*(w.denominator for _, w in ws))
        acc = [0] * (top + 1)
        for F, w in ws:
            iw = w.numerator * (den // w.denominator)
            acc[F:] = [x + iw * r for x, r in zip(acc[F:], self._even_row(F)[F:])]
        return self._even(acc, den)

    # -- lattice visit series -----------------------------------------------

    def point_visits_series(self, p):
        """Counting series h(p,1,z) for walks from 0 to p, empty walk removed.

        Equals B^{|p|} / A - [p == 0].
        """
        if p == 0:
            return self.h0
        return self.inv_A * self._b_power(abs(p))

    # -- coefficient extraction ----------------------------------------------

    def count_at(self, series, n):
        """True [z^{2n}] coefficient: the stored one over s^{2n}."""
        return series[2 * n] / self.scale ** (2 * n)

    def probability(self, series, n):
        """[z^{2n}] series / C(2n,n), scale-free."""
        if self.backend == EXACT:
            return series[2 * n] / comb(2 * n, n)
        # C(2n, n) s^{2n} at s = 1/2, rounded once
        return float(series[2 * n]) / float(Fraction(comb(2 * n, n), 4 ** n))


def base_series(K, backend=None):
    """Build the base-series cache (A, B, h0, tails) at truncation order K.

    The backend fixes the scale: exact caches store the true coefficients,
    float caches 2^{-m} times them, which stays finite at any order.
    """
    return BaseSeriesCache(K, backend)
