"""Truncated formal power series in z with exact-rational and float backends.

A series is a dense coefficient vector c[0..K]; every arithmetic result is
re-projected onto the truncation order of its operands.  Exact series are
integer numerators over one denominator, canonical (den > 0 and
gcd(den, *nums) == 1), multiplied by Kronecker substitution (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", JSC 2009;
as in FLINT's fmpz_poly): each vector is packed into one big integer, the
two are multiplied once (CPython's Karatsuba) and the low K+1 slots are read
back.  Division is a Newton iteration on that product.  Base series:

    A  = sqrt(1 - 4 z^2)            (square-root factor of the walk kernel)
    B  = 2z / (1 + A)               (z times the Catalan generating function)
    h0 = (1 - A) / A                (closed-walk count series, empty walk removed)

with the geometric tails B^{2f}/(1 - B^{2f}) and weighted sums over them.
B-powers have the ballot-number closed form [z^m] B^j = (j/m) C(m, (m-j)/2),
so the cache needs no division and its exact series are integer vectors.  A
cache built at a scale 0 < s <= 1 stores s^m times the true coefficients,
which keeps float coefficients bounded for large truncation orders.
"""

from __future__ import annotations

import math
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


class TruncatedSeries:
    """Immutable truncated power series; all ops return new instances.

    Exact: integer numerators `nums` over `den`; float: a read-only ndarray.
    `coeffs` and `s[m]` give Fractions or floats."""

    __slots__ = ("backend", "K", "nums", "den", "_arr")

    def __init__(self, coeffs, backend, K=None, den=None):
        """Exact coeffs are rationals, or integer numerators over `den`."""
        if backend == EXACT:
            if den is None:
                fr = [Fraction(c) for c in coeffs]
                den = math.lcm(*(c.denominator for c in fr))
                coeffs = [c.numerator * (den // c.denominator) for c in fr]
            K = len(coeffs) - 1 if K is None else K
            nums = list(coeffs[: K + 1]) + [0] * (K + 1 - len(coeffs))
            g = math.gcd(den, *nums)
            self.nums = nums if g == 1 else [c // g for c in nums]
            self.den = den // g
        elif backend == FLOAT:
            data = np.asarray(coeffs, dtype=np.float64)
            if K is None:
                K = len(data) - 1
            if len(data) < K + 1:
                data = np.concatenate([data, np.zeros(K + 1 - len(data))])
            arr = np.array(data[: K + 1], dtype=np.float64)
            arr.flags.writeable = False
            self._arr = _check_finite(arr)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.K = K

    @property
    def coeffs(self):
        return self._arr if self.backend == FLOAT else [
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
        if backend == EXACT:
            return cls([0] * m + [c], EXACT, K)
        coeffs = np.zeros(K + 1)
        if m <= K:
            coeffs[m] = float(c)
        return cls(coeffs, backend, K)

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
        return Fraction(self.nums[m], self.den) if self.backend == EXACT else self._arr[m]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.backend != other.backend or self.K != other.K:
            return False
        if self.backend == EXACT:
            return self.den == other.den and self.nums == other.nums
        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return id(self)

    def __repr__(self):
        head = ", ".join(str(self[m]) for m in range(min(6, self.K + 1)))
        tail = ", ..." if self.K >= 6 else ""
        return f"TruncatedSeries({self.backend}, K={self.K}, [{head}{tail}])"

    def is_zero(self):
        if self.backend == EXACT:
            return not any(self.nums)
        return not np.any(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def project(self, K):
        """Discard coefficients above order K (the z-diamond-K projection)."""
        if K < 0:
            raise ValueError("projection order must be >= 0")
        if K >= self.K:
            return self
        return TruncatedSeries(self.coeffs[: K + 1], self.backend, K)

    def __add__(self, other):
        K = self._binop_check(other)
        if self.backend == EXACT:
            den = math.lcm(self.den, other.den)
            fa, fb = den // self.den, den // other.den
            return TruncatedSeries([fa * x + fb * y for x, y in zip(
                self.nums, other.nums)], EXACT, K, den)
        return TruncatedSeries(self.coeffs[: K + 1] + other.coeffs[: K + 1], FLOAT, K)

    def __sub__(self, other):
        K = self._binop_check(other)
        if self.backend == EXACT:
            return self + other.scaled(-1)
        return TruncatedSeries(self.coeffs[: K + 1] - other.coeffs[: K + 1], FLOAT, K)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c):
        if self.backend == EXACT:
            c = Fraction(c)
            return TruncatedSeries([c.numerator * x for x in self.nums], EXACT,
                                   self.K, c.denominator * self.den)
        return TruncatedSeries(float(c) * self.coeffs, FLOAT, self.K)

    def __mul__(self, other):
        K = self._binop_check(other)
        if self.backend == EXACT:
            return TruncatedSeries(_kronecker(self.nums, other.nums, K), EXACT,
                                   K, self.den * other.den)
        a = self.coeffs[: K + 1]
        b = other.coeffs[: K + 1]
        if K + 1 >= _FFT_THRESHOLD:
            n = 2 * K + 1
            size = 1 << (n - 1).bit_length()
            fa = np.fft.rfft(a, size)
            fb = np.fft.rfft(b, size)
            full = np.fft.irfft(fa * fb, size)[: K + 1]
        else:
            full = np.convolve(a, b)[: K + 1]
        return TruncatedSeries(full, FLOAT, K)

    def __truediv__(self, other):
        """Division by a unit (nonzero constant term)."""
        K = self._binop_check(other)
        b0 = other[0]
        if b0 == 0:
            raise DivByNonUnit("division by a series with zero constant term")
        if self.backend == EXACT:
            # Newton: x <- 2x - x^2 other doubles the number of exact orders
            x = TruncatedSeries.monomial(1 / b0, 0, 0, EXACT)
            while x.K < K:
                x = TruncatedSeries(x.nums, EXACT, min(2 * x.K + 1, K), x.den)
                x = x.scaled(2) - x * x * other
            return self * x
        a = np.asarray(self.coeffs[: K + 1])
        b = np.asarray(other.coeffs[: K + 1])
        out = np.zeros(K + 1)
        for n in range(K + 1):
            acc = a[n]
            if n:
                acc -= np.dot(out[:n], b[n:0:-1])
            out[n] = acc / b0
        return TruncatedSeries(out, FLOAT, K)

    def inverse(self):
        return TruncatedSeries.one(self.K, self.backend) / self

    def log(self):
        """log of a unit series; exact backend additionally needs c0 == 1."""
        c0 = self[0]
        if c0 == 0:
            raise DivByNonUnit("log of a series with zero constant term")
        K = self.K
        if self.backend == EXACT:
            if c0 != 1:
                raise DivByNonUnit("exact-backend log needs constant term 1")
            # z d/dz log(a) = (z d/dz a) / a; undo z d/dz by dividing c_m by m
            d, L = self.zddz() / self, math.lcm(*range(1, K + 1))
            return TruncatedSeries([c * (L // m) if m else 0 for m, c in
                                    enumerate(d.nums)], EXACT, K, d.den * L)
        if c0 < 0:
            raise DivByNonUnit("log of a series with negative constant term")
        a = self.coeffs
        out = np.zeros(K + 1)
        out[0] = math.log(c0)
        w = np.arange(K + 1, dtype=np.float64)
        for n in range(1, K + 1):
            acc = a[n]
            if n > 1:
                acc -= np.dot(w[1:n] * out[1:n], a[n - 1:0:-1]) / n
            out[n] = acc / c0
        return TruncatedSeries(out, FLOAT, K)

    def zddz(self):
        """Apply z d/dz: multiply the m-th coefficient by m."""
        if self.backend == EXACT:
            return TruncatedSeries([m * c for m, c in enumerate(self.nums)],
                                   EXACT, self.K, self.den)
        return TruncatedSeries(
            np.arange(self.K + 1, dtype=np.float64) * self.coeffs, FLOAT, self.K)

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


def project(series, K):
    return series.project(K)


_ARITH_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div-by-unit": lambda a, b: a / b,
    "log-of-unit": lambda a, _b: a.log(),
    "z-d/dz": lambda a, _b: a.zddz(),
}


def arith(lhs, rhs, op):
    """Dispatch table over the ring operations; unary ops ignore rhs."""
    try:
        fn = _ARITH_OPS[op]
    except KeyError:
        raise ValueError(f"unknown op {op!r}") from None
    return fn(lhs, rhs)


# ---------------------------------------------------------------------------
# base series cache
# ---------------------------------------------------------------------------

def _catalan(m):
    return comb(2 * m, m) // (m + 1)


class BaseSeriesCache:
    """Holds A, B, h0 and the B-power/geometric-tail machinery at one order.

    All stored series share one (K, backend, scale).  Immutable once built;
    the lazy caches are fill-once and safe to share across threads doing
    read-mostly work.
    """

    def __init__(self, K, backend=None, scale=1):
        backend = choose_backend(K, backend)
        self.K = K
        self.backend = backend
        self.scale = Fraction(scale)
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        self._even_rows = None          # float backend: matrix of B^{2F} rows
        self._even_rows_exact = {}      # exact backend: F -> integer row
        self._tail_cache = {}
        half = K // 2

        if backend == EXACT:
            self.A, self.inv_A = (self._scaled(v, step=2) for v in (
                [-2 * _catalan(m - 1) if m else 1 for m in range(half + 1)],
                [comb(2 * m, m) for m in range(half + 1)]))
        else:
            a = np.zeros(K + 1)
            inv = np.zeros(K + 1)
            a[0] = 1.0
            inv[0] = 1.0
            val_a, val_i = 1.0, 1.0
            s2 = float(self.scale) ** 2
            for m in range(1, half + 1):
                # ratios of successive Catalan / central-binomial numbers
                val_a *= s2 * (4 * m - 6) / m if m > 1 else s2
                val_i *= s2 * (4 * m - 2) / m
                a[2 * m] = -2.0 * val_a
                inv[2 * m] = val_i
            self.A = TruncatedSeries(a, FLOAT, K)
            self.inv_A = TruncatedSeries(inv, FLOAT, K)

        self.one = TruncatedSeries.one(K, backend)
        self.one_minus_A = self.one - self.A
        self.h0 = self.inv_A - self.one
        self.B = self._b_power(1)

    # -- scaffolding ---------------------------------------------------------

    def _scaled(self, vals, den=1, step=1):
        """Exact series sum_i (vals[i] / den) (s z)^(step i) at scale s."""
        p, q, K = self.scale.numerator, self.scale.denominator, self.K
        nums = [0] * (K + 1)
        nums[::step] = [v * p ** (step * i) * q ** (K - step * i)
                        for i, v in enumerate(vals)]
        return TruncatedSeries(nums, EXACT, K, den * q ** K)

    def monomial(self, c, m):
        """c * z^m as a series at this cache's scale."""
        if self.backend == EXACT:
            coeff = Fraction(c) * self.scale ** m
        else:
            coeff = float(c) * float(self.scale) ** m
        return TruncatedSeries.monomial(coeff, m, self.K, self.backend)

    def zero(self):
        return TruncatedSeries.zero(self.K, self.backend)

    def _b_power(self, j):
        """B^j via the ballot closed form [z^m] B^j = (j/m) C(m,(m-j)/2)."""
        K = self.K
        if self.backend == EXACT:
            return self._scaled([j * comb(m, (m - j) // 2) // m if m >= j and
                                 (m - j) % 2 == 0 else 0 for m in range(K + 1)])
        out = np.zeros(K + 1)
        ls = math.log(float(self.scale))
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
        ls2 = 2.0 * math.log(float(self.scale))
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
        """Exact backend: ballot integers row[n'] = [z^{2n'}] B^{2F}, unscaled."""
        if F not in self._even_rows_exact:
            self._even_rows_exact[F] = [
                F * comb(2 * n, n - F) // n if n >= F else 0
                for n in range(self.K // 2 + 1)]
        return self._even_rows_exact[F]

    def b_even_power(self, F):
        """(scaled B)^{2F} as a series."""
        K = self.K
        if 2 * F > K:
            return self.zero()
        if self.backend == EXACT:
            return self._scaled(self._even_row(F), step=2)
        rows = self._ensure_even_rows()
        out = np.zeros(K + 1)
        if F < len(rows):
            out[2 * F:: 2] = rows[F, F:]
        return TruncatedSeries(out, FLOAT, K)

    def tail(self, f):
        """Geometric tail B^{2f} / (1 - B^{2f}) = sum_j B^{2fj}."""
        if f in self._tail_cache:
            return self._tail_cache[f]
        K = self.K
        half = K // 2
        if self.backend == EXACT:
            ser = self.lambert_sum(lambda g: int(g == f))
        else:
            rows = self._ensure_even_rows()
            acc = np.zeros(half + 1)
            for F in range(f, len(rows), f):
                acc += rows[F]
            out = np.zeros(K + 1)
            out[0:: 2] = acc
            ser = TruncatedSeries(out, FLOAT, K)
        self._tail_cache[f] = ser
        return ser

    def lambert_sum(self, weight):
        """sum_f weight(f) * B^{2f}/(1 - B^{2f}) with f cut at K//2.

        Computed through the divisor rearrangement
        sum_f w_f sum_j B^{2fj} = sum_F (sum_{f | F} w_f) B^{2F}; the exact
        backend adds integer ballot rows times weights over one denominator.
        """
        half = self.K // 2
        # float rows past the stored table are zero and need no weights
        top = half if self.backend == EXACT else len(self._ensure_even_rows()) - 1
        acc_w = [None] * (top + 1)
        for f in range(1, top + 1):
            wf = weight(f)
            if wf == 0:
                continue
            for F in range(f, top + 1, f):
                acc_w[F] = wf if acc_w[F] is None else acc_w[F] + wf
        if self.backend == EXACT:
            ws = [(F, Fraction(w)) for F, w in enumerate(acc_w) if w]
            den = math.lcm(*(w.denominator for _, w in ws))
            acc = [0] * (half + 1)
            for F, w in ws:
                iw = w.numerator * (den // w.denominator)
                acc[F:] = [x + iw * r for x, r in
                           zip(acc[F:], self._even_row(F)[F:])]
            return self._scaled(acc, den, step=2)
        rows = self._ensure_even_rows()
        wvec = np.array([0.0 if w is None else float(w) for w in acc_w])
        acc = wvec @ rows
        out = np.zeros(self.K + 1)
        out[0:: 2] = acc
        return TruncatedSeries(out, FLOAT, self.K)

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
        """True [z^{2n}] coefficient (undoes the scale).  Exact backend."""
        c = series[2 * n]
        if self.backend == EXACT:
            return c / self.scale ** (2 * n)
        return float(c) / float(self.scale) ** (2 * n)

    def closed_walk_total(self, n):
        """C(2n, n) at this cache's scale, as an exact Fraction."""
        return Fraction(comb(2 * n, n)) * self.scale ** (2 * n)

    def probability(self, series, n):
        """[z^{2n}] series / C(2n,n), scale-free."""
        denom = self.closed_walk_total(n)
        c = series[2 * n]
        if self.backend == EXACT:
            return c / denom
        return float(c) / float(denom)


def base_series(K, backend=None, scale=1):
    """Build the base-series cache (A, B, h0, tails) at truncation order K.

    Float caches above order ~1000 need scale < 1 (1/2 is the natural
    choice), or the raw 4^n coefficient growth overflows float64 and raises
    NonFiniteCoefficient on first use.
    """
    return BaseSeriesCache(K, backend, scale)
