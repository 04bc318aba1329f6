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
  K+1 slots are read back.  Only the window that reaches order K is
  packed: past the valuations va and vb, a[va..K-vb] and b[vb..K-va],
  whose product is written from order va + vb on.  Each slot is sized by
  the lesser of two bounds on the product's coefficients, one from the
  largest entries and one from a growth of 2 bits per slot
  (`_slot_bytes`); on 8,988 of the 8,992 products of a mixed set of
  exact queries that is the width the least bound over slopes 0..4 gives;
- float: a read-only, finite float64 array with den == 1, multiplied by
  numpy convolution (FFT from _FFT_THRESHOLD on), whose error is relative
  to the operands' norms: float series need bounded coefficients.  Each
  series keeps the spectrum of its last FFT order, so an operand that
  enters many products is transformed once.

Division is a Newton iteration on the product and log integrates z a'/a
(Brent & Kung, "Fast algorithms for manipulating formal power series",
J. ACM 1978).  A float quotient whose coefficients grow past what FFT
products resolve fails the residual check of the inverse and raises
IllConditioned.  `mul_coefficient` reads one coefficient of a product as
a dot product, without the product.  Base series:

    A  = sqrt(1 - 4 z^2)            (square-root factor of the walk kernel)
    h0 = (1 - A) / A                (closed-walk count series, empty walk removed)

and the integer-weighted sums over the geometric tails B^{2f}/(1 - B^{2f}),
with B = 2z / (1 + A) (z times the Catalan generating function).  B enters
only through its even powers, whose ballot-number closed form [z^{2n}]
B^{2F} = (F/n) C(2n, n - F) needs no series division, so the cache's exact
series are integer vectors.  Float sums take every weight at once in one
sweep down the ballot columns, a block of rows F at a time, and keep no row.
The sweep stops before a block once all the rows left could add at most
2^-60 of every entry, under half an ulp, so round-to-nearest leaves every
sum as it is; it drops only whole trailing blocks, since a block of another
shape would round the columns it keeps differently.
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

from .errors import (BackendMismatch, DivByNonUnit, IllConditioned,
                     NonFiniteCoefficient)

EXACT = "exact"
FLOAT = "float"

# Above this order exact rational arithmetic gets expensive; callers that do
# not override the backend get floats instead.
EXACT_ORDER_LIMIT = 512

# below this length products convolve directly, keeping exact zeros zero
_FFT_THRESHOLD = 384

# rows F of the float ballot sweep taken per numpy pass, and the least
# running ballot product c_F(n') that keeps column n' in the sweep
_ROW_BLOCK = 64
_TINY = 1e-300

# 2^60: the ballot sweep stops once all later rows add at most 2^-60 of
# every entry (`_ballot_sweep`)
_SWEEP_MARGIN = 2.0 ** 60

# the scale s of every float cache
_FLOAT_SCALE = 0.5

# the window size from which Kronecker slots may take the slope-2 bound
# (`_slot_bytes`)
_SLOPE_MIN_SLOTS = 16

# largest l1 norm of x * divisor - 1 a float inverse x may leave
_DIV_RESIDUAL = 1e-9


def choose_backend(K, override=None):
    if override is not None:
        if override not in (EXACT, FLOAT):
            raise ValueError(f"unknown backend {override!r}")
        return override
    return EXACT if K <= EXACT_ORDER_LIMIT else FLOAT


def _valuation(v):
    """Index of the first nonzero entry of v, or len(v) if there is none."""
    return next((i for i, x in enumerate(v) if x), len(v))


def _slot_bytes(a, b):
    """Bytes nb per Kronecker slot for the windows a and b, n = len(a) =
    len(b): every coefficient c_m, m < n, of their product has |c_m| <
    2^(w-1) at the slot width w = 8 nb.

    Let alpha_i and beta_j be the bit lengths of a_i and b_j, so |a_i| <
    2^alpha_i.  For a slope g >= 0, |a_i b_j| < 2^(alpha_i - g i + beta_j -
    g j + g (i + j)), and c_m is a sum of at most n such terms with i + j =
    m <= n - 1, so |c_m| < n 2^X_g for every g >= 0, where

        X_g = max_i (alpha_i - g i) + max_j (beta_j - g j) + g (n - 1).

    X_0 = bits(max|a|) + bits(max|b|) is the bound by the largest entries.
    Walk series grow about 2 bits per y = z^2 slot, where X_2 is about half
    of X_0, so windows of _SLOPE_MIN_SLOTS slots or more take X, the lesser
    of X_0 and X_2, and shorter ones X = X_0: there the second bound costs
    more than it saves.  Then n 2^X < 2^(X + bits(n)), so w >= X + bits(n)
    + 1 suffices."""
    n = len(a)
    x = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
    if n >= _SLOPE_MIN_SLOTS:
        steps = range(0, 2 * n, 2)
        x = min(x, max(map(operator.sub, map(int.bit_length, a), steps))
                + max(map(operator.sub, map(int.bit_length, b), steps))
                + 2 * (n - 1))
    return (x + n.bit_length() + 8) // 8


def _kronecker(a, b, K):
    """Coefficients 0..K of the product of the integer vectors a and b.

    Only the window that reaches order K is packed: with valuations va, vb,
    a[va .. K-vb] and b[vb .. K-va], whose product lands from slot va + vb
    on.  Slots are w = 8*nb bits (`_slot_bytes`), so every product
    coefficient below slot n has |c| < 2^(w-1); adding 2^(w-1) per low slot
    modulo 2^(w n) makes it read back as plain bytes, and the mask drops the
    (possibly negative, possibly wider) slots above K, whose terms are
    multiples of 2^(w n).  Each operand entry fits a slot as well, since
    X >= alpha_i + beta_0 > alpha_i in `_slot_bytes`: it is packed as the
    plain bytes of x + 2^(w-1), and the same bias is taken off again."""
    # series in z^2 only (all walk series are) multiply as series in y = z^2
    s = 1 if any(a[1: K + 1: 2]) or any(b[1: K + 1: 2]) else 2
    a, b = a[: K + 1: s], b[: K + 1: s]
    out = [0] * (K + 1)
    va, vb = _valuation(a), _valuation(b)
    n = len(a) - va - vb  # slots 0 .. K // s - va - vb of the product
    if n <= 0:
        return out
    a, b = a[va: va + n], b[vb: vb + n]
    nb = _slot_bytes(a, b)
    half = 1 << (8 * nb - 1)
    # half in every slot
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")

    def pack(v):
        return int.from_bytes(b"".join((x + half).to_bytes(nb, "little")
                                       for x in v), "little") - bias

    low = (pack(a) * pack(b) + bias) & ((1 << (8 * nb * n)) - 1)
    buf = low.to_bytes(nb * n, "little")
    out[s * (va + vb):: s] = [int.from_bytes(buf[i: i + nb], "little") - half
                              for i in range(0, nb * n, nb)]
    return out


def _spectrum(vec, K):
    """rfft of the float vector vec[0..K] at the FFT size of order-K
    products, 2^bits(2K) >= 2K + 1, so no wrapped term reaches order K."""
    import numpy as np
    return np.fft.rfft(vec[: K + 1], 1 << (2 * K).bit_length())


def _convolve(a, b, K, fa=None, fb=None):
    """Coefficients 0..K of the product of the float vectors a and b: direct
    below _FFT_THRESHOLD, else by FFT from their spectra fa and fb, which
    are taken here (`_spectrum`) when not given."""
    import numpy as np
    if K + 1 < _FFT_THRESHOLD:
        return np.convolve(a[: K + 1], b[: K + 1])[: K + 1]
    fa = _spectrum(a, K) if fa is None else fa
    fb = _spectrum(b, K) if fb is None else fb
    return np.fft.irfft(fa * fb, 1 << (2 * K).bit_length())[: K + 1]


def _scalar(c, backend):
    """c as (numerator, denominator) in the backend's coefficient field."""
    if backend == EXACT:
        c = Fraction(c)
        return c.numerator, c.denominator
    return float(c), 1


def _each(fn, *vecs):
    """fn coefficientwise: entry by entry along integer lists, on whole
    float arrays at once."""
    if isinstance(vecs[-1], list):
        return list(map(fn, *vecs))
    return fn(*vecs)


def _orders(vec):
    """The orders 0, 1, ... of vec, as a vector of its kind."""
    if isinstance(vec, list):
        return range(len(vec))
    import numpy as np
    return np.arange(len(vec), dtype=np.float64)


class TruncatedSeries:
    """Immutable truncated power series; all ops return new instances.

    Coefficient m is nums[m] / den: integers over a canonical den (exact) or
    a read-only float array over den == 1 (float).  `coeffs` and `s[m]`
    give Fractions or floats.  A float series keeps the spectrum of the
    last order it was multiplied at by FFT, so an operand that enters
    several products (or both sides of a square) is transformed once; the
    spectrum lives and dies with the series."""

    __slots__ = ("backend", "K", "nums", "den", "_rfft")

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
            import numpy as np
            data = np.asarray(coeffs, dtype=np.float64)[: K + 1]
            nums = np.zeros(K + 1)
            nums[: len(data)] = data
            nums.flags.writeable = False
            if not np.all(np.isfinite(nums)):
                raise NonFiniteCoefficient(
                    "float series coefficient is NaN or infinite")
            self.nums = nums
            self.den = 1
            self._rfft = None   # (K, `_spectrum` of nums at K) once multiplied
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
        # equal K gives equal lengths; both backends compare entry by entry
        return (self.backend == other.backend and self.K == other.K
                and self.den == other.den
                and all(map(operator.eq, self.nums, other.nums)))

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
        if self.backend == EXACT:
            nums = _kronecker(self.nums, other.nums, K)
        elif K + 1 < _FFT_THRESHOLD:
            nums = _convolve(self.nums, other.nums, K)
        else:
            nums = _convolve(self.nums, other.nums, K,
                             self._spectrum_at(K), other._spectrum_at(K))
        return TruncatedSeries(nums, self.backend, K, self.den * other.den)

    def _spectrum_at(self, K):
        """Float series: `_spectrum` of nums at order K, taken once while K
        is the order of this series' products.  rfft is deterministic, so a
        kept spectrum gives the same product bits as a fresh one."""
        if self._rfft is None or self._rfft[0] != K:
            self._rfft = K, _spectrum(self.nums, K)
        return self._rfft[1]

    def mul_coefficient(self, other, m):
        """[z^m] (self * other), read as one dot product of numerators with
        no series product: sum_i nums[i] other.nums[m - i] / (den other.den)."""
        K = self._binop_check(other)
        if not 0 <= m <= K:
            return Fraction(0) if self.backend == EXACT else 0.0
        a, b = self.nums[: m + 1], other.nums[m:: -1]
        if self.backend == FLOAT:
            import numpy as np
            return float(np.dot(a, b))
        return Fraction(sum(map(operator.mul, a, b)), self.den * other.den)

    def __truediv__(self, other):
        """Division by a unit (nonzero constant term).  On the float backend
        it raises IllConditioned when the inverse fails its residual check."""
        K = self._binop_check(other)
        b0 = other[0]
        if b0 == 0:
            raise DivByNonUnit("division by a series with zero constant term")
        # Newton: x <- 2x - x^2 other doubles the number of correct orders
        x = TruncatedSeries.monomial(1 / b0, 0, 0, self.backend)
        while x.K < K:
            x = TruncatedSeries(x.nums, self.backend, min(2 * x.K + 1, K), x.den)
            x = x.scaled(2) - x * x * other
        if self.backend == FLOAT:
            # x other = 1 + d gives x - 1/other = d / other, so the l1 error
            # of x relative to |1/other|_1 is at most |d|_1; FFT products
            # err relative to |x| |other|, which a growing x makes show in d
            d = abs((x * other - TruncatedSeries.one(K, FLOAT)).nums).sum()
            if not d <= _DIV_RESIDUAL:
                raise IllConditioned(
                    f"float division residual {d:.1e} over "
                    f"{_DIV_RESIDUAL:.0e}: the quotient's coefficients grow "
                    "past what float products resolve")
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
    """Holds A, h0 and the Lambert sums over the geometric tails at one
    order: the even B-powers as exact ballot rows, or a float sweep over
    them.

    All stored series share one (K, backend) and the backend's `scale`
    (1 exact, 1/2 float).  Immutable once built; the lazy caches are
    fill-once and safe to share across threads doing read-mostly work.
    """

    def __init__(self, K, backend=None):
        backend = choose_backend(K, backend)
        self.K = K
        self.backend = backend
        self.scale = 1 if backend == EXACT else _FLOAT_SCALE
        self._even_rows_exact = {}      # exact backend: F -> integer row
        self._sweep = None              # float backend: (seeds, top) of the sweep
        self._central = {}              # float backend: n -> C(2n, n) s^{2n}
        half = K // 2

        if backend == EXACT:
            self.A = self._even([-2 * _catalan(m - 1) if m else 1
                                 for m in range(half + 1)])
            self.inv_A = self._even([comb(2 * m, m) for m in range(half + 1)])
        else:
            import numpy as np
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

    # -- scaffolding ---------------------------------------------------------

    def _even(self, vals):
        """The series sum_i vals[i] z^(2i), i <= K//2."""
        if self.backend == EXACT:
            nums = [0] * (self.K + 1)
        else:
            import numpy as np
            nums = np.zeros(self.K + 1)
        nums[::2] = vals
        return TruncatedSeries(nums, self.backend, self.K, 1)

    def monomial(self, c, m):
        """c * z^m as a series at this cache's scale."""
        return TruncatedSeries.monomial(c * self.scale ** m, m, self.K, self.backend)

    def zero(self):
        return TruncatedSeries.zero(self.K, self.backend)

    # -- B^{2F} rows ---------------------------------------------------------

    def _ensure_even_rows(self):
        """Float backend: the column seeds C(2n', n') s^{2n'}, n' <= K//2, of
        the ballot sweep (`_ballot_sweep`), and top, the last F whose c_F
        reaches _TINY in some column: later rows enter no sum.  The seeds
        are the even coefficients of 1/A.

        c_F(n') = C(2n', n' - F) s^{2n'} grows with n' while F^2 > (n' + 1)
        / 2, so past F^2 > K/4 it peaks at the last column n' = K//2, and top
        is read off that column alone.  The sweep reads fewer rows than top
        when its stop rule holds first: for the k <= 2 pair weights, 256,
        384, 448, 512 and 704 of top = 777, 1136, 1409, 1614 and 2325 at K =
        2000, 4000, 6026, 7828 and 16000."""
        if self._sweep is None:
            import numpy as np
            half = self.K // 2
            seeds = self.inv_A.nums[::2]
            F = np.arange(1, half + 1, dtype=np.float64)
            last = seeds[half] * np.cumprod((half - F + 1) / (half + F))
            self._sweep = seeds, int(np.count_nonzero(last >= _TINY))
        return self._sweep

    def _ballot_sweep(self, wts):
        """Float rows sum_F wts[i, F] [z^{2n'}] (scaled B)^{2F}, n' <= K//2,
        one per row i of the float matrix wts (column F = 0 is not read).

        With c_F(n') = C(2n', n' - F) s^{2n'}, the entry of (scaled B)^{2F}
        is (F/n') c_F(n'), and down each column c_F = c_{F-1} (n' - F + 1) /
        (n' + F) from the seed c_0 (exactly 0 from F = n' + 1 on).  Blocks of
        _ROW_BLOCK rows are running products down the columns, and each
        block adds (F wts)[:, block] @ c_block to every row at once.  A
        column leaves the window once its c falls below _TINY, since c only
        falls with F; columns n' < F hold 0 and leave with them.

        The sweep stops before the block starting at F0 once, for every row
        i and every window column n',

            c_{F0-1}(n') T_i(F0) <= 2^-60 |out_i(n')|,
            T_i(F0) = sum_{F0 <= F < end} F |wts[i, F]|.

        Every computed c_F, F >= F0, is at most c_{F0-1}: each ratio rounds
        to at most 1, and rounding is monotone.  So all later blocks
        together would add at most c_{F0-1} T_i(F0) to out_i(n'), up to the
        rounding of their products and sums and of the tail sums T, a
        relative error under top 2^-52, far inside the factor 2^6 between
        2^-60 and 2^-54.  Each addition is then under 2^-54 |out_i(n')|,
        less than half an ulp, so round-to-nearest leaves out_i(n') as it
        is, and the division by n' after the sweep gives the same bits.  No
        underflow spoils this: window columns keep c >= _TINY and the
        weights are integers, so an entry that meets the test with
        T_i(F0) > 0 is at least 2^60 _TINY.  Only whole trailing blocks are
        dropped, and the window is never cut narrower than _TINY cuts it:
        the matmul of a block of another shape rounds the kept columns
        differently."""
        import numpy as np
        seeds, top = self._ensure_even_rows()
        half = self.K // 2
        c = seeds.copy()
        col = np.arange(half + 1, dtype=np.float64)
        out = np.zeros((len(wts), half + 1))
        lo, end = 1, min(top + 1, wts.shape[1])
        # tail[i, F0] = 2^60 T_i(F0): scaling by a power of two is exact
        tail = np.abs(wts[:, :end] * col[:end])[:, ::-1].cumsum(axis=1)
        tail = tail[:, ::-1] * _SWEEP_MARGIN
        for F0 in range(1, end, _ROW_BLOCK):
            if np.all(c[lo:] * tail[:, F0, None] <= np.abs(out[:, lo:])):
                break
            F = np.arange(F0, min(F0 + _ROW_BLOCK, end), dtype=np.float64)
            block = (col[lo:] - F[:, None] + 1) / (col[lo:] + F[:, None])
            block[0] *= c[lo:]
            np.cumprod(block, axis=0, out=block)
            out[:, lo:] += (wts[:, F0: F0 + len(F)] * F) @ block
            c[lo:] = block[-1]
            lo += int(np.argmax(c[lo:] >= _TINY))
        out[:, 1:] /= col[1:]
        return out

    def _even_row(self, F):
        """row[n'] = [z^{2n'}] (scaled B)^{2F}: ballot integers (exact) or a
        float row of the ballot sweep (zero past its last row).

        The exact row is b_n' = F C(2n', n'-F) / n' from b_F = 1 by
        C(2n+2, n+1-F) = C(2n, n-F) (2n+1) (2n+2) / ((n+1-F) (n+1+F)), that
        is b_{n+1} = b_n 2n (2n+1) / ((n+1-F) (n+1+F)), an exact division."""
        if self.backend == FLOAT:
            import numpy as np
            wts = np.zeros((1, F + 1))
            wts[0, F] = 1.0
            return self._ballot_sweep(wts)[0]
        if F not in self._even_rows_exact:
            row = [0] * (self.K // 2 + 1)
            b = 1
            for n in range(F, len(row)):
                row[n] = b
                b = b * 2 * n * (2 * n + 1) // ((n + 1 - F) * (n + 1 + F))
            self._even_rows_exact[F] = row
        return self._even_rows_exact[F]

    def b_even_power(self, F):
        """(scaled B)^{2F} as a series."""
        if F == 0:
            return self.one
        if 2 * F > self.K:
            return self.zero()
        return self._even(self._even_row(F))

    def lambert_sum(self, weight):
        """sum_f weight(f) * B^{2f}/(1 - B^{2f}): `lambert_sums` of one weight."""
        return self.lambert_sums([weight])[0]

    def lambert_sums(self, weights):
        """[sum_f w(f) * B^{2f}/(1 - B^{2f}) for w in weights], f cut at
        K//2, for integer weights (any other weight raises TypeError).

        Computed through the divisor rearrangement
        sum_f w_f sum_j B^{2fj} = sum_F (sum_{f | F} w_f) B^{2F}: the divisor
        sums are integers, which weigh the integer ballot rows (exact) or
        enter one ballot sweep for all the weights at once (float).
        """
        if not weights:
            return []
        top = self.K // 2 if self.backend == EXACT else self._ensure_even_rows()[1]
        sums = []
        for weight in weights:
            acc_w = [0] * (top + 1)
            for f in range(1, top + 1):
                wf = operator.index(weight(f))
                if wf:
                    for F in range(f, top + 1, f):
                        acc_w[F] += wf
            sums.append(acc_w)
        if self.backend == FLOAT:
            import numpy as np
            return [self._even(row) for row in
                    self._ballot_sweep(np.array(sums, dtype=np.float64))]
        out = []
        for acc_w in sums:
            acc = [0] * (top + 1)
            for F, w in enumerate(acc_w):
                if w:
                    acc[F:] = [x + w * r for x, r in zip(acc[F:], self._even_row(F)[F:])]
            out.append(self._even(acc))
        return out

    # -- coefficient extraction ----------------------------------------------

    def probability(self, series, n):
        """[z^{2n}] series / C(2n,n), scale-free."""
        if self.backend == EXACT:
            return series[2 * n] / comb(2 * n, n)
        if n not in self._central:  # C(2n, n) s^{2n} at s = 1/2, rounded once
            self._central[n] = float(Fraction(comb(2 * n, n), 4 ** n))
        return float(series[2 * n]) / self._central[n]
