"""Ground-truth oracle over closed simple lattice walks.

Exhaustive enumeration (small lengths, any small dimension) and uniform Monte
Carlo sampling (larger lengths, d <= 3) of closed walks starting at the
origin, with bookkeeping of visit multiplicities: a lattice point visited by
an interior time step counts twice, the start and end points count once each,
so every multiplicity is even and a point visited "k times" has multiplicity
2k.  The empty walk visits the origin with multiplicity 2.

Enumeration works on blocks of walks: each block is one integer array of
the visited points of many walks, grown breadth-first in numpy, and the
profiles of a whole block are tallied with a few array operations.  The
crossing-profile DP over local times (d = 1) is a second, independent oracle
that reaches lengths enumeration cannot.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import BudgetExceeded

DEFAULT_ENUM_BUDGET = 10 ** 8


class Walk(namedtuple("Walk", "dim steps")):
    """Closed lattice path: signed axis steps, start fixed at the origin."""

    __slots__ = ()

    def __new__(cls, dim, steps):
        for s in steps:
            if s == 0 or abs(s) > dim:
                raise ValueError(f"step {s} invalid for dimension {dim}")
        return super().__new__(cls, dim, steps)

    @property
    def length(self):
        return len(self.steps)

    def points(self):
        """All visited points p_0 .. p_n as coordinate tuples."""
        pos = [0] * self.dim
        pts = [tuple(pos)]
        for s in self.steps:
            pos[abs(s) - 1] += 1 if s > 0 else -1
            pts.append(tuple(pos))
        return pts

    def is_closed(self):
        return self.points()[-1] == tuple([0] * self.dim)


class RangeProfile:
    """Per-walk summary: counts[k] = number of points of multiplicity 2k."""

    __slots__ = ("counts", "range_")

    def __init__(self, counts=None, range_=0):
        self.counts = {} if counts is None else counts
        self.range_ = range_

    def __eq__(self, other):
        return (isinstance(other, RangeProfile)
                and (self.counts, self.range_) == (other.counts, other.range_))

    def __repr__(self):
        return f"RangeProfile(counts={self.counts!r}, range_={self.range_!r})"

    def count(self, k):
        return self.counts.get(k, 0)


def multiplicity(q, w: Walk):
    """delta(q,p0) + delta(q,pn) + 2 * interior visits of q."""
    if isinstance(q, int):
        q = (q,)
    pts = w.points()
    mu = (1 if pts[0] == q else 0) + (1 if pts[-1] == q else 0)
    mu += 2 * sum(1 for p in pts[1:-1] if p == q)
    return mu


def profile(w: Walk) -> RangeProfile:
    if not w.is_closed():
        raise ValueError("profile is defined for closed walks")
    pts = w.points()
    mu = Counter()
    mu[pts[0]] += 1
    mu[pts[-1]] += 1
    for p in pts[1:-1]:
        mu[p] += 2
    counts = Counter()
    for m in mu.values():
        counts[m // 2] += 1
    return RangeProfile(dict(counts), sum(counts.values()))


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

# Closed walks are enumerated a block at a time.  A block is an integer array
# with one row per walk holding the codes of its points p_1 .. p_2n, so each
# point q occurs k(q) times in its row: an interior visit adds 2 to the
# multiplicity, and p_2n = p_0 stands for the origin's two endpoint halves.
# Only the walks whose first step is +e1 are grown.  A signed permutation of
# the axes is an isometry of Z^d fixing the origin: it maps closed walks of
# length 2n one to one onto closed walks and keeps every point's visit
# count, so it keeps every N_{2k} and ran.  These isometries act
# transitively on the 2d unit steps, so the walks of each first step have
# the same joint tally, and `oracle_counts` weighs the +e1 walks by 2d.
# Step sequences grow breadth-first in numpy from p_1 = +e1, and a prefix
# farther (in L1) from the origin than the steps it has left is dropped; a
# prefix that is kept can always close, since its distance and the steps
# left have the same parity.  Each step keeps only the new point codes and
# the row each one extends, and a finished block is read back through those
# links.  The search is split by a step prefix so that no subtree grown at
# once has more than _BLOCK_LEAVES unpruned leaves: the arrays of a block do
# not grow with n, and a split search's prefix frontier has fewer than
# (2d)^(2n) / _BLOCK_LEAVES rows, of the (2d)^(2n-1) unpruned leaves.
# A block costs a fixed number of numpy calls whatever its size (one `grow`
# per step, one histogram, one tally), and at small n those calls, not the
# arithmetic, set the time.  2^13 leaves make 4x fewer of them than 2^11,
# and the peak memory of an n = 9 enumeration grows by under 1 MB.

_BLOCK_LEAVES = 2 ** 13


def _point_blocks(n, d):
    """Point codes p_1 .. p_2n of every closed walk of length 2n whose first
    step is +e1 (so p_1 has code 1), in blocks; all of them for n = 0."""
    import numpy as np
    if n == 0:
        # the empty walk: its one point, the origin, has multiplicity 2
        yield np.zeros((1, 1), dtype=np.int64)
        return
    length = 2 * n
    fan = 2 * d
    steps = np.array([[s * (a == b) for b in range(d)]
                      for s in (1, -1) for a in range(d)])
    # coordinates lie in [-n, n], so base 2n + 1 with signed digits is 1-1
    deltas = np.array([s * (2 * n + 1) ** a for s in (1, -1) for a in range(d)])

    def grow(pos, code, left):
        """Extensions that can still close in `left` steps, and their rows."""
        new = (pos[:, None, :] + steps).reshape(-1, d)
        keep = np.flatnonzero(np.abs(new).sum(axis=1) <= left)
        return new[keep], (code[:, None] + deltas).ravel()[keep], keep // fan

    depth = 1
    while fan ** (length - depth) > _BLOCK_LEAVES:
        depth += 1
    pos = np.zeros((1, d), dtype=np.int64)
    pos[0, 0] = 1
    code = np.ones(1, dtype=np.int64)
    prefix = [(code, np.zeros(1, dtype=np.intp))]
    for t in range(1, depth):
        pos, code, parent = grow(pos, code, length - t - 1)
        prefix.append((code, parent))
    group = _BLOCK_LEAVES // fan ** (length - depth)
    for i in range(0, len(pos), group):
        bpos, bcode, links = pos[i:i + group], code[i:i + group], []
        for t in range(depth, length):
            bpos, bcode, parent = grow(bpos, bcode, length - t - 1)
            links.append((bcode, parent))
        block = np.empty((len(bcode), length), dtype=np.int64)
        row = np.arange(len(bcode))
        for t, (c, parent) in reversed(list(enumerate(prefix + links))):
            if t == depth - 1:
                row += i  # from rows of this group to rows of the prefix
            block[:, t] = c[row]
            row = parent[row]
        yield block


def _visit_histograms(points, width):
    """hist[r, k] = number of points that row r holds exactly k times.

    Sorts each row of `points` in place, and builds the cell index of each
    run in place, so that a block's largest arrays are not copied.
    """
    import numpy as np
    rows, m = points.shape
    points.sort(axis=1)
    first = np.ones(points.shape, dtype=bool)
    np.not_equal(points[:, 1:], points[:, :-1], out=first[:, 1:])
    cell = np.flatnonzero(first)
    runs = np.diff(cell, append=points.size)
    cell //= m
    cell *= width
    cell += runs
    return np.bincount(cell, minlength=rows * width).reshape(rows, width)


def oracle_counts(n, d, tracked=(), include_range=False,
                  budget=DEFAULT_ENUM_BUDGET):
    """Exact joint counts over all closed walks of length exactly 2n.

    Returns a Counter keyed by the tuple of N_{2k} for k in `tracked`,
    extended with ran(w) when include_range is set; keys and counts are
    Python ints, and with no key column every walk counts under ().

    For n >= 1 only the walks whose first step is +e1 are enumerated, and
    each of their tallies counts 2d times, since the signed axis
    permutations carry them onto the walks of every other first step (see
    the comment above `_BLOCK_LEAVES`).  Raises BudgetExceeded when the
    (2d)^(2n) step sequences of all directions pass `budget`, although only
    (2d)^(2n-1) are grown, or when point codes in signed base 2n + 1 would
    pass int64.
    """
    tracked = tuple(tracked)
    if n < 0 or d < 1 or any(k < 1 for k in tracked):
        raise ValueError("need n >= 0, d >= 1 and tracked k >= 1")
    _check_enum_budget(n, d, budget)
    width = max((2 * n, 1) + tracked) + 1
    out = Counter()
    for points in _point_blocks(n, d):
        out.update(_block_counts(points, width, tracked, include_range))
    if n:  # one first step of the 2d grown, each with the same tally
        for key in out:
            out[key] *= 2 * d
    return out


def _check_enum_budget(n, d, budget=DEFAULT_ENUM_BUDGET):
    """Raise BudgetExceeded where `oracle_counts(n, d)` would refuse."""
    if (2 * d) ** (2 * n) > budget:
        raise BudgetExceeded(
            f"(2d)^(2n) = {(2 * d) ** (2 * n)} exceeds budget {budget}")
    top_code = ((2 * n + 1) ** d - 1) // 2  # the point (n, n, .., n)
    if top_code >= 2 ** 63:  # past int64
        raise BudgetExceeded(
            f"point codes reach ((2n+1)^d - 1)/2 = {top_code}, past int64")


def _block_counts(points, width, tracked, include_range):
    """{key: number of rows} over one block, keyed as in `oracle_counts`.

    The key rows are sorted by `np.lexsort`, first column primary, and
    counted by run length, as `_visit_histograms` counts points.  A function
    of its own, so that a block's histogram is freed before the next block
    grows.
    """
    import numpy as np
    hist = _visit_histograms(points, width)
    cols = [hist[:, k] for k in tracked]
    if include_range:
        cols.append(hist.sum(axis=1))
    if not cols:
        return {(): len(hist)}
    # lexsort takes its last key as the primary one
    keys = np.column_stack(cols)[np.lexsort(cols[::-1])]
    first = np.ones(len(keys), dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    runs = np.diff(starts, append=len(keys))
    return dict(zip(map(tuple, keys[starts].tolist()), runs.tolist()))


def oracle_mixed_moment(n, d, spec, budget=DEFAULT_ENUM_BUDGET):
    """sum over walks of prod_k C(N_{2k}, m_k) for spec = {k: m_k}."""
    counts = oracle_counts(n, d, tuple(spec), budget=budget)
    return sum(c * math.prod(map(math.comb, key, spec.values()))
               for key, c in counts.items())


# ---------------------------------------------------------------------------
# edge-crossing (local time) oracle for d = 1
# ---------------------------------------------------------------------------
#
# A closed 1-d walk of length 2n is determined by its window of visited
# points, the number u_e >= 1 of up-crossings of each edge e of the window
# (down-crossings match by closure, so sum u_e = n), its start point (the
# root) and an interleaving choice at every point.  The number of walks
# with a given profile and root factorizes into per-point binomials:
#     below the root:  C(u + u' - 1, u)
#     at the root:     C(u + u', u')
#     above the root:  C(u + u' - 1, u')
# where u, u' are the crossing numbers of the edges below/above the point.
# The visit count of a point is k(q) = u + u' (boundary points: the single
# adjacent u).  Both DPs below count walks rooted at their lowest point
# instead (the rotation argument of the cycle lemma, Dvoretzky & Motzkin
# 1947): moving the root from the lowest point to q multiplies the count by
# k(q) / u_1 (u_1 crosses the lowest edge), and the k(q) sum to 2n, so each
# profile counts 2n / u_1 times its walks rooted at the lowest point, where
# every other point weighs C(u + u' - 1, u').  `_crossing_dp` is that one
# transition, run on Python ints by `local_time_distribution` and in
# float64 by `local_time_probabilities`; the engine, enumeration and a test
# reference that sums over every root with all three weights check it.  All
# terms are nonnegative, so the float DP has no cancellation and stays
# accurate at large n, where series lose precision at high multiplicities.

def _crossing_dp(n, k, l_max, wt, first):
    """Summed row of the lowest-root crossing DP at its last layer, s = n.

    Row u of layer s holds, by the number l <= l_max of points with k
    visits, the profiles with crossing total s whose last edge is crossed
    u <= len(first) times.  Row u starts at layer u with first[u - 1], and
    a step takes row u of layer s times wt[u' - 1, u - 1] to row u' of
    layer s + u'.  Runs in the dtype of `wt`: float64, or Python ints in
    object arrays.  Returns the array over l, the top point's mark added.

    State (layer s, row u) is written once, from layer s - u, and read once,
    at layer s: row u keeps a ring of u slots in a packed triangle, layer s
    at slot off[u] + s % u, so step s reads rows u <= s only.
    """
    import numpy as np
    u_cap = len(first)
    rows = np.arange(1, u_cap + 1)
    off = rows * (rows - 1) // 2
    state = np.zeros((u_cap * (u_cap + 1) // 2, l_max + 1), dtype=wt.dtype)
    marks = (rows == k).astype(np.intp)
    keep = marks <= l_max
    state[off[keep], marks[keep]] = first[keep]

    for s in range(1, n + 1):
        live = min(s, u_cap)
        slots = off + s % rows
        lay = state[slots[:live]]
        if s == n:
            if k <= live:  # the top point holds its edge's u visits
                lay[k - 1, 1:] = lay[k - 1, :-1]
                lay[k - 1, 0] = 0
            # cumsum adds the rows one by one; sum would go pairwise at L == 1
            return np.cumsum(lay, axis=0)[-1]
        up_max = min(u_cap, n - s)
        step = wt[:up_max, :live] @ lay
        # the point between rows k - v and v holds k visits: shift its mark
        for v in range(max(1, k - live), min(up_max, k - 1) + 1):
            c = wt[v - 1, k - v - 1] * lay[k - v - 1]
            step[v - 1] -= c
            step[v - 1, 1:] += c[:-1]
        # rows past up_max keep stale values: their next layer is past n
        state[slots[:up_max]] = step


def local_time_distribution(n, k, l_max=None):
    """Exact counts {l: #closed walks of length 2n with N_{2k} = l}.

    The crossing-profile DP on Python ints, row u starting at lcm(1..n) / u
    so that each count is 2n sum / lcm(1..n); only nonzero counts are kept.
    Memory and time grow like n^3: a mid-size-n oracle (n up to ~100).
    """
    import numpy as np
    if n < 0 or k < 1 or (l_max is not None and l_max < 0):
        raise ValueError("need n >= 0, k >= 1 and l_max >= 0")
    if n == 0:  # the empty walk visits the origin once: N_2 = 1
        return {l: 1 for l in [int(k == 1)] if l_max is None or l <= l_max}
    # no walk of length 2n has more than 2n points, so l > 2n is empty
    l_max = 2 * n if l_max is None else min(l_max, 2 * n)
    rows = range(1, n + 1)
    lcm = math.lcm(*rows)
    wt = np.array([[math.comb(u + v - 1, v) for u in rows] for v in rows],
                  dtype=object)
    first = np.array([lcm // u for u in rows], dtype=object)
    sums = _crossing_dp(n, k, l_max, wt, first)
    counts = [divmod(2 * n * c, lcm) for c in sums.tolist()]
    if any(rest for _, rest in counts):
        raise AssertionError(f"expected integer counts 2n sum / lcm(1..{n})")
    return {l: c for l, (c, _) in enumerate(counts) if c}


def local_time_probabilities(n, k, l_max, u_cap=None):
    """Pr_n(N_{2k} = l) for l = 0..l_max by the crossing-profile DP in floats.

    All DP weights are nonnegative, so double precision keeps ~12 accurate
    digits at any n; crossing numbers are capped at u_cap ~ 8 sqrt(n) (the
    neglected profiles carry e^{-O(u_cap^2/n)} mass) and the transition
    weights carry 4^{-u'} so every partial state stays in float range.

    `_crossing_dp` runs with W[u, u'] = C(u+u'-1, u') 4^{-u'} and row u
    starting at 4^{-u} / u (the rooting identity above); the read-out
    gains the factor 2n.
    """
    import numpy as np
    if n < 1 or k < 1 or l_max < 0 or (u_cap is not None and u_cap < 1):
        raise ValueError("need n >= 1, k >= 1, l_max >= 0 and u_cap >= 1")
    u_cap = min(n, int(8 * math.sqrt(n)) + 16 if u_cap is None else u_cap)
    log4 = math.log(4.0)
    rows = np.arange(1, u_cap + 1)
    # lgam[j] = lgamma(j) for j >= 1, looked up; index 0 is never used
    lgam = np.array([0.0] + [math.lgamma(j) for j in range(1, 2 * u_cap + 1)])
    # wt[u' - 1, u - 1] = W[u, u'], stored so the product reads it by rows
    vv, uu = rows[:, None], rows[None, :]
    wt = np.exp(lgam[uu + vv] - lgam[vv + 1] - lgam[uu] - vv * log4)
    first = np.array([math.exp(-u * log4) / u for u in rows])
    # no walk of length 2n has more than 2n points, so l > 2n reads 0.0
    sums = _crossing_dp(n, k, min(l_max, 2 * n), wt, first)
    total = float(Fraction(math.comb(2 * n, n), 2 * n * 4 ** n))
    return np.pad(sums / total, (0, l_max + 1 - len(sums)))


def _axis_count_distribution(n, d):
    """Distribution of per-axis up-step counts for a uniform closed walk.

    A closed walk of length 2n with j_i up-steps (and j_i down-steps) on axis
    i has multiplicity (2n)! / prod_i (j_i!)^2, so the axis-count vector is
    sampled with probability proportional to that weight.  Weights are
    normalized in log space; the double-precision rounding is far below any
    Monte Carlo resolution.
    """
    import numpy as np
    if not 1 <= d <= 3:
        raise ValueError("sampling supports 1 <= d <= 3")
    supports, logw = [], []
    for head in itertools.product(range(n + 1), repeat=d - 1):
        if sum(head) <= n:
            supports.append(head + (n - sum(head),))
            lw = math.lgamma(n + 1)
            for j in supports[-1]:
                lw -= math.lgamma(j + 1)
            logw.append(2 * lw)
    logw = np.array(logw)
    w = np.exp(logw - logw.max())
    return supports, w / w.sum()


def sample_moments(n, d, samples, seed, k_max=3):
    """Monte Carlo estimates of E(N_{2k}) for k <= k_max and E(ran).

    Walks are exactly uniform over closed walks of length 2n: a balanced
    per-axis step multiset is drawn from its conditional distribution and
    then shuffled.  Returns a dict with means and standard errors,
    reproducible for a given seed.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    supports, probs = _axis_count_distribution(n, d)
    if len(supports) > 1:
        idxs = rng.choice(len(supports), size=samples, p=probs)
    else:
        idxs = np.zeros(samples, dtype=np.int64)
    sums = np.zeros(k_max + 1)
    sumsq = np.zeros(k_max + 1)

    # encode d-dimensional points into one integer for fast uniqueness
    span = 2 * n + 1
    rows = np.arange(2 * n)

    for idx in idxs:
        jvec = supports[idx]
        steps = []
        for axis, j in enumerate(jvec):
            steps.append(np.full(j, axis + 1))
            steps.append(np.full(j, -(axis + 1)))
        seq = np.concatenate(steps)
        rng.shuffle(seq)
        axes = np.abs(seq) - 1
        sign = np.sign(seq)
        disp = np.zeros((2 * n, d), dtype=np.int64)
        disp[rows, axes] = sign
        pos = np.cumsum(disp, axis=0)
        code = pos[:, 0] + n
        for a in range(1, d):
            code = code * span + (pos[:, a] + n)
        # multiset of p_1 .. p_2n.  For q != origin the count equals the
        # interior visits, so k(q) = count; for the origin, p_2n adds the two
        # endpoint half-weights, so k(origin) = interior + 1 = count as well.
        uniq, cnt = np.unique(code, return_counts=True)
        stats = np.zeros(k_max + 1)
        stats[0] = len(uniq)  # the range
        for k in range(1, k_max + 1):
            stats[k] = np.count_nonzero(cnt == k)
        sums += stats
        sumsq += stats * stats

    means = sums / samples
    var = np.maximum(sumsq / samples - means ** 2, 0.0)
    sterr = np.sqrt(var / samples)
    out = {"range": (means[0], sterr[0])}
    for k in range(1, k_max + 1):
        out[k] = (means[k], sterr[k])
    return out
