"""Spans around the public functions of each walkrange layer, from outside.

``install(tracer)`` replaces the functions and methods listed in ``LAYERS``
with wrappers that open a span on entry and close it on exit; nothing
under ``src/`` changes.  A span is (name, start, end, parent, query id) and
stays in memory until ``Tracer.write`` saves them all.  A layer's self time
is its span time minus the time its child spans cover.

Exact counts (coefficient products, coefficient bits, DP layers, walks
enumerated, block cache hits) are computed from arguments and results,
inside a ``trace.bookkeeping`` span.  That span belongs to no layer and is
subtracted from its parent's self time, so counting costs show up only in
``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import weakref
from collections import Counter

BOOKKEEPING = "trace.bookkeeping"

# (module, attribute path, span name); a name of None is chosen per call.
LAYERS = [
    ("cli", "run", "cli"),
    ("pseries", "TruncatedSeries.__init__", "pseries.ctor"),
    ("pseries", "TruncatedSeries.__mul__", None),
    ("pseries", "TruncatedSeries.__truediv__", "pseries.div"),
    ("pseries", "TruncatedSeries.inverse", "pseries.div"),
    ("pseries", "TruncatedSeries.log", "pseries.div"),
    ("pseries", "BaseSeriesCache.lambert_sum", "pseries.lambert_sum"),
    ("pseries", "BaseSeriesCache.__init__", "pseries.base_cache"),
    ("pseries", "BaseSeriesCache._ensure_even_rows", "pseries.base_cache"),
    ("genfun", "Engine.pair_block", "genfun.blocks"),
    ("genfun", "Engine.chain_block", "genfun.blocks"),
    ("genfun", "Engine.term_pair", "genfun.blocks"),
    ("genfun", "Engine.transfer_operator", "genfun.transfer_operator"),
    ("genfun", "Engine.binomial_moment_series", "genfun.moment_series"),
    ("genfun", "Engine.doublepoint_moment_series", "genfun.moment_series"),
    ("genfun", "Engine.distribution", "genfun.distribution"),
    ("genfun", "Engine.probabilities", "genfun.probabilities"),
    ("genfun", "joint_counts", "genfun.joint_counts"),
    ("genfun", "range_distribution", "genfun.range_distribution"),
    ("walks", "local_time_probabilities", "walks.dp_float"),
    ("walks", "oracle_counts", "walks.enum"),
    ("asymptotics", "tail_rate_fit", "asymptotics.tail_rate_fit"),
    ("asymptotics", "extrapolate_probability", "asymptotics.extrapolate"),
    ("asymptotics", "second_moment_limit", "asymptotics.second_moment_limit"),
    ("moments", "green", "moments.green"),
]

# per-layer metric name -> (unit, how it is read off the span table)
METRICS = {
    "cli.self_s": ("s", ("self", "cli")),
    "pseries.mul_exact.calls": ("count", ("calls", "pseries.mul_exact")),
    "pseries.mul_exact.self_s": ("s", ("self", "pseries.mul_exact")),
    "pseries.mul_exact.coeff_products": ("count", ("count", "coeff_products")),
    "pseries.mul_exact.max_bits": ("bits", ("count", "max_bits")),
    "pseries.ctor.calls": ("count", ("calls", "pseries.ctor")),
    "pseries.ctor.self_s": ("s", ("self", "pseries.ctor")),
    "pseries.mul_float.calls": ("count", ("calls", "pseries.mul_float")),
    "pseries.mul_float.self_s": ("s", ("self", "pseries.mul_float")),
    "pseries.div.self_s": ("s", ("self", "pseries.div")),
    "pseries.lambert_sum.calls": ("count", ("calls", "pseries.lambert_sum")),
    "pseries.lambert_sum.self_s": ("s", ("self", "pseries.lambert_sum")),
    "pseries.base_cache.s": ("s", ("total", "pseries.base_cache")),
    "genfun.blocks.calls": ("count", ("calls", "genfun.blocks")),
    "genfun.blocks.hit_ratio": ("ratio", ("ratio", "block_hits", "genfun.blocks")),
    "genfun.blocks.self_s": ("s", ("self", "genfun.blocks")),
    "genfun.transfer_operator.calls": ("count", ("calls", "genfun.transfer_operator")),
    "genfun.transfer_operator.s": ("s", ("total", "genfun.transfer_operator")),
    "genfun.moment_series.self_s": ("s", ("self", "genfun.moment_series")),
    "genfun.distribution.self_s": ("s", ("self", "genfun.distribution")),
    "genfun.joint_counts.self_s": ("s", ("self", "genfun.joint_counts")),
    "genfun.probabilities.self_s": ("s", ("self", "genfun.probabilities")),
    "genfun.range_distribution.s": ("s", ("total", "genfun.range_distribution")),
    "walks.dp_float.calls": ("count", ("calls", "walks.dp_float")),
    "walks.dp_float.s": ("s", ("total", "walks.dp_float")),
    "walks.dp_float.layers": ("count", ("count", "dp_layers")),
    "walks.enum.calls": ("count", ("calls", "walks.enum")),
    "walks.enum.s": ("s", ("total", "walks.enum")),
    "walks.enum.walks": ("count", ("count", "walks")),
    "walks.enum.walks_per_s": ("1/s", ("rate", "walks", "walks.enum")),
    "asymptotics.tail_rate_fit.self_s": ("s", ("self", "asymptotics.tail_rate_fit")),
    "asymptotics.extrapolate.s": ("s", ("total", "asymptotics.extrapolate")),
    "asymptotics.second_moment_limit.calls": ("count", ("calls", "asymptotics.second_moment_limit")),
    "asymptotics.second_moment_limit.s": ("s", ("total", "asymptotics.second_moment_limit")),
    "moments.green.calls": ("count", ("calls", "moments.green")),
    "moments.green.s": ("s", ("total", "moments.green")),
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ["pseries.mul_exact.coeff_products", "pseries.mul_exact.max_bits",
                "walks.dp_float.layers", "walks.enum.walks",
                "genfun.blocks.hit_ratio"]


class Tracer:
    """In-memory span table plus the exact counters."""

    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.query = [], []
        self.counts = Counter()
        self.query_id = -1
        self._open = []
        self._block_keys = weakref.WeakKeyDictionary()

    def open(self, name):
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._open.pop()

    # -- reading the table ------------------------------------------------------

    def layer_totals(self):
        """name -> [calls, self seconds, seconds of outermost spans]."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out = {}
        for i, name in enumerate(self.name):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != name:
                p = self.parent[p]
            if p < 0:
                row[2] += dur[i]
        return out

    def metrics(self):
        """Every per-layer metric of METRICS plus trace.spans."""
        totals = self.layer_totals()

        def get(name, col):
            return totals.get(name, [0, 0.0, 0.0])[col]

        out = {}
        for metric, (unit, how) in METRICS.items():
            kind = how[0]
            if kind == "calls":
                value = get(how[1], 0)
            elif kind == "self":
                value = get(how[1], 1)
            elif kind == "total":
                value = get(how[1], 2)
            elif kind == "count":
                value = self.counts[how[1]]
            elif kind == "ratio":
                calls = get(how[2], 0)
                value = self.counts[how[1]] / calls if calls else 0.0
            else:  # rate
                secs = get(how[2], 2)
                value = self.counts[how[1]] / secs if secs else 0.0
            out[metric] = {"value": value, "unit": unit}
        spans = sum(1 for n in self.name if n != BOOKKEEPING)
        out["trace.spans"] = {"value": spans, "unit": "count"}
        return out

    def largest_self(self):
        """Layer with the largest self time, bookkeeping excluded."""
        totals = {n: r for n, r in self.layer_totals().items()
                  if n != BOOKKEEPING}
        return max(totals, key=lambda n: totals[n][1]) if totals else None

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.name):
                fh.write(json.dumps({"name": name, "start": self.start[i],
                                     "end": self.end[i],
                                     "parent": self.parent[i],
                                     "query": self.query[i]}) + "\n")


# ---------------------------------------------------------------------------
# exact counts, computed from arguments and results
# ---------------------------------------------------------------------------

def _mul_counts(tracer, a, b):
    """Products the exact schoolbook loop performs, and operand bit sizes."""
    K = min(a.K, b.K)
    ca, cb = a.coeffs[: K + 1], b.coeffs[: K + 1]
    prefix, seen = [], 0
    bits = 0
    for c in cb:
        if c != 0:
            seen += 1
            bits = max(bits, c.numerator.bit_length(),
                       c.denominator.bit_length())
        prefix.append(seen)
    products = 0
    last = len(cb) - 1
    for i, c in enumerate(ca):
        if c != 0:
            products += prefix[min(last, K - i)]
            bits = max(bits, c.numerator.bit_length(),
                       c.denominator.bit_length())
    tracer.counts["coeff_products"] += products
    tracer.counts["max_bits"] = max(tracer.counts["max_bits"], bits)


def _block_hit(tracer, method, engine, i, j):
    key = (method, i, j) if method == "chain_block" else \
        (method, min(i, j), max(i, j))
    seen = tracer._block_keys.setdefault(engine, set())
    if key in seen:
        tracer.counts["block_hits"] += 1
    seen.add(key)


def _bookkeeping(tracer, fn, *args):
    i = tracer.open(BOOKKEEPING)
    try:
        fn(tracer, *args)
    finally:
        tracer.close(i)


def _before(tracer, pkg, attr):
    """Counting hook run before the call, or None."""
    if attr == "TruncatedSeries.__mul__":
        exact, series = pkg.pseries.EXACT, pkg.pseries.TruncatedSeries

        def hook(args, kwargs):
            a, b = args[0], args[1]
            if isinstance(b, series) and a.backend == exact == b.backend:
                _bookkeeping(tracer, _mul_counts, a, b)
        return hook
    if attr.startswith("Engine.") and attr.split(".")[1] in (
            "pair_block", "chain_block", "term_pair"):
        method = attr.split(".")[1]

        def hook(args, kwargs):
            _bookkeeping(tracer, _block_hit, method, *args[:3])
        return hook
    return None


def _after(tracer, attr):
    """Counting hook run on the result, or None."""
    if attr == "local_time_probabilities":
        def hook(args, kwargs, result):
            n = args[0] if args else kwargs["n"]
            tracer.counts["dp_layers"] += n
        return hook
    if attr == "oracle_counts":
        def hook(args, kwargs, result):
            _bookkeeping(tracer, lambda t: t.counts.update(
                walks=sum(result.values())))
        return hook
    return None


def _wrap(tracer, fn, name, before, after, pkg):
    exact = pkg.pseries.EXACT

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        span = name if name is not None else (
            "pseries.mul_exact" if args[0].backend == exact
            else "pseries.mul_float")
        i = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def install(tracer, pkg):
    """Wrap every entry of LAYERS; `pkg` is the imported walkrange package."""
    for modname, attr, name in LAYERS:
        mod = importlib.import_module(f"{pkg.__name__}.{modname}")
        *owner_path, leaf = attr.split(".")
        owner = mod
        for part in owner_path:
            owner = getattr(owner, part)
        orig = owner.__dict__[leaf] if owner_path else getattr(owner, leaf)
        wrapped = _wrap(tracer, orig, name, _before(tracer, pkg, attr),
                        _after(tracer, leaf), pkg)
        if owner_path:
            setattr(owner, leaf, wrapped)
            continue
        # module-level function: rebind every name that refers to it, as
        # `from .genfun import joint_counts` copies the reference
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith(pkg.__name__):
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, wrapped)
