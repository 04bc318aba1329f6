"""Command-line front end: distributions, moments, asymptotic tables.

Every subcommand prints a single machine-readable report (JSON by default,
CSV on request).  Exact counts always cross the interface as decimal strings
because JSON numbers cannot hold them; probabilities are rounded to a stated
number of significant digits (6 by default, --digits overrides).
`range-dist` is the one command whose report is streamed, entry by entry:
its counts have ~n^2 digits, where every other report is kilobytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR,
                     Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)
from math import comb

from . import asymptotics as asy
from . import moments as mom
from . import walks
from .errors import WalkrangeError
from .genfun import Engine, joint_counts, range_distribution
from .pseries import EXACT, choose_backend

SCHEMA_VERSION = 1


def _sig(x, digits):
    """x rounded to `digits` significant digits.

    Exact probabilities come in as count / total: int / int true division
    is correctly rounded, so it gives float(Fraction(count, total)) without
    reducing the fraction (`_quotients` does the same for Decimals)."""
    return float(f"%.{digits}g" % float(x))


# Decimal integer arithmetic that raises rather than rounds
_EXACT_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                         traps=[Inexact, Rounded, InvalidOperation,
                                DivisionByZero, Overflow])


def _directed(prec):
    """Floor and ceiling contexts with `prec` digits."""
    return [Context(prec=prec, rounding=r, Emax=MAX_EMAX, Emin=MIN_EMIN)
            for r in (ROUND_FLOOR, ROUND_CEILING)]


def _quotients(total):
    """c -> float(c / total) for Decimal integers c >= 0 and total > 0.

    Correctly rounded, so bit-identical to int / int.  The floor and the
    ceiling of the quotient bracket it; rounding to nearest is monotone, so
    when both round to one float, that float is the answer, and otherwise
    the precision doubles.  The 25-digit bracket multiplies the floor (the
    ceiling) of c at 25 digits by the floor (the ceiling) of 1 / total:
    every operand is positive and every rounding directed, so it still
    brackets c / total.  Wider ones divide, so a quotient that is exactly
    a tie between two floats is reached exactly and rounds half to even."""
    lo, hi = _directed(25)
    inv_lo, inv_hi = lo.divide(1, total), hi.divide(1, total)

    def quotient(c):
        a = float(lo.multiply(lo.plus(c), inv_lo))
        b = float(hi.multiply(hi.plus(c), inv_hi))
        prec = 25
        while a != b:
            prec *= 2
            wide_lo, wide_hi = _directed(prec)
            a = float(wide_lo.divide(c, total))
            b = float(wide_hi.divide(c, total))
        return a
    return quotient


def _report(command, parameters, results, provenance=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
        "provenance": provenance or {},
    }


def _emit(report, fmt, csv_rows=None, csv_header=None):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:  # quotes any field that holds a comma or a quote
        import csv  # only CSV output loads the module
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(csv_header)
        out.writerows(csv_rows)
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_dist(args):
    n, k = args.n, args.k
    backend = choose_backend(2 * n, args.backend)
    digits = args.digits
    total = comb(2 * n, n)
    rows = []
    provenance = {"backend": backend, "truncation": 2 * n, "digits": digits}
    if backend == EXACT:
        eng = Engine(2 * n, backend=EXACT)
        counts, tail = eng.distribution(n, k, args.lmax)
        results = {"distribution": [], "tail_count": str(tail),
                   "total": str(total)}
        for l in sorted(counts):
            pr = _sig(counts[l] / total, digits)
            results["distribution"].append(
                {"l": l, "count": str(counts[l]), "probability": pr})
            rows.append([n, k, l, counts[l], pr])
    else:
        route, values = asy.probability_table(k, n, args.lmax)
        provenance["backend"] = route
        if route == "dp":  # the DP has no truncation order
            del provenance["truncation"]
        results = {"distribution": [], "total": str(total)}
        for l, p in enumerate(values):
            pr = _sig(p, digits)
            results["distribution"].append({"l": l, "probability": pr})
            rows.append([n, k, l, "", pr])
    rep = _report("dist", {"n": n, "k": k, "lmax": args.lmax},
                  results, provenance)
    return _emit(rep, args.format, rows, ["n", "k", "l", "count", "probability"])


def _cmd_range_dist(args):
    n = args.n
    # Decimal counts, since str() of an int is quadratic in its length
    with localcontext(_EXACT_DECIMAL):
        total = Decimal(comb(2 * n, n))
        hist = range_distribution(n, args.mmax, total=total)
        tail = total - sum(hist.values())
    quotient = _quotients(total)
    digits = args.digits
    rows = ((m, c, _sig(quotient(c), digits)) for m, c in sorted(hist.items()))
    if args.format == "csv":
        return _emit(None, "csv", ((n, m, c, pr) for m, c, pr in rows),
                     ["n", "m", "count", "probability"])
    # the report has ~n^2 digits, so it goes out one entry at a time rather
    # than through _emit's one-shot json.dumps
    write = sys.stdout.write
    rep = _report("range-dist", {"n": n, "mmax": args.mmax},
                  {"distribution": [], "tail_count": str(tail),
                   "total": str(total)},
                  {"backend": "exact", "digits": digits})
    head, foot = json.dumps(rep, sort_keys=True).split("[]")
    write(head + "[")
    sep = ""
    for m, c, pr in rows:
        # decimal digits and an int need no JSON escaping, and repr of a
        # finite float is its JSON text
        write(f'{sep}{{"count": "{c!s}", "m": {m}, "probability": {pr!r}}}')
        sep = ", "
    write("]" + foot + "\n")
    return 0


def _parse_spec(text):
    """'k:m,k:m,...' with k >= 1, m >= 0 -> {k: summed m}."""
    spec = {}
    try:
        for part in text.split(","):
            k, m = (int(x) for x in part.split(":"))
            if k < 1 or m < 0:
                raise ValueError
            spec[k] = spec.get(k, 0) + m
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed spec {text!r}: want k:m pairs like '1:2,3:2' "
            "with k >= 1, m >= 0") from None
    return spec


def _spec_text(text):
    """argparse type: a well-formed --spec, kept as typed for the report."""
    _parse_spec(text)
    return text


def _int_from(lo):
    """argparse type: an int no smaller than lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return parse


def _parse_track(text):
    """'k,k,...' with k >= 1 -> tuple of k; '' -> ()."""
    try:
        tracked = tuple(int(t) for t in text.split(",")) if text else ()
        if any(k < 1 for k in tracked):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed track {text!r}: want k values like '1,3' "
            "with k >= 1") from None
    return tracked


def _track_text(text):
    """argparse type: a well-formed --track, kept as typed for the report."""
    _parse_track(text)
    return text


def _cmd_moments(args):
    spec = _parse_spec(args.spec)
    n = args.n
    eng = Engine(2 * n, backend=EXACT)
    value = eng.mixed_moment(spec, n)
    total = comb(2 * n, n)
    digits = args.digits
    results = {"value": str(value),
               "normalized": _sig(value / total, digits),
               "total": str(total)}
    rep = _report("moments", {"spec": args.spec, "n": n}, results,
                  {"backend": "exact", "digits": digits})
    return _emit(rep, args.format,
                 [[args.spec, n, value, results["normalized"]]],
                 ["spec", "n", "value", "normalized"])


def _cmd_first_moment(args):
    n, k, d = args.n, args.k, args.d
    if d == 2 and n < 2:  # the d = 2 asymptotics divide by log n
        args.usage_error("argument --n: must be >= 2 with --d 2")
    digits = args.digits
    results = {"asymptotic": _sig(mom.asymptotic_first_moment(n, k, d), digits),
               "asymptotic_range": _sig(mom.asymptotic_range_moment(n, d), digits)}
    if d == 1:
        results["expected_points"] = _sig(mom.mean_point_count(n, k), digits)
        results["expected_range"] = _sig(mom.mean_range(n), digits)
    rep = _report("first-moment", {"n": n, "k": k, "d": d}, results,
                  {"digits": digits})
    fields = ["expected_points", "asymptotic", "expected_range",
              "asymptotic_range"]
    return _emit(rep, args.format,
                 [[d, k, n] + [results.get(f, "") for f in fields]],
                 ["d", "k", "n"] + fields)


def _cmd_asymp(args):
    digits = args.digits
    if args.xi is not None:
        try:
            val = asy.range_moment_limit(args.xi)
        except OverflowError:  # Gamma(r/4 + 1/2) alone overflows
            val = math.inf
        if not math.isfinite(val):
            args.usage_error("argument --xi: xi(r) overflows float64; it is "
                             "finite up to r = 432")
        rep = _report("asymp", {"xi": args.xi}, {"xi": _sig(val, digits)},
                      {"digits": digits})
        return _emit(rep, args.format, [[args.xi, _sig(val, digits)]],
                     ["r", "xi"])
    if args.table == 1:
        eng = Engine(78, backend=EXACT)
        counts, _ = eng.distribution(39, 2, args.lmax)
        total = comb(78, 39)
        tail_model = asy.doublepoint_tail()
        head = asy.doublepoint_head()
        rows, entries = [], []
        for l in sorted(counts):
            pr = _sig(counts[l] / total, digits)
            if l <= 2:
                limit = head[l]
                method = "closed-form"
            else:
                limit = tail_model.predict(l)
                method = "tail-law"
            entries.append({"l": l, "count": str(counts[l]),
                            "probability": pr,
                            "limit_probability": _sig(limit, digits),
                            "limit_method": method})
            rows.append([l, counts[l], pr, _sig(limit, digits), method])
        rep = _report("asymp", {"table": 1, "lmax": args.lmax},
                      {"doublepoints_n39": entries},
                      {"backend": "exact+float", "digits": digits})
        return _emit(rep, args.format, rows,
                     ["l", "count", "probability", "limit", "method"])
    if args.table == 2:
        kmax = args.kmax
        if not 2 <= kmax <= asy.TAIL_RATES_KMAX:
            args.usage_error("argument --kmax: must be from 2 to "
                             f"{asy.TAIL_RATES_KMAX} with --table 2")
        if digits > asy.TAIL_RATES_DIGITS:
            args.usage_error("argument --digits: must be at most "
                             f"{asy.TAIL_RATES_DIGITS} with --table 2")
        entries, rows = [], []
        for k in range(2, kmax + 1):
            rates = [_sig(r, digits) for r in asy.tail_rates_limit(k)]
            entries.append({"k": k, "rates": rates})
            # k - 1 rates: short rows end in empty fields
            rows.append([k] + rates + [""] * (kmax - k))
        rep = _report("asymp", {"table": 2, "kmax": kmax},
                      {"tail_rates": entries},
                      {"digits": digits, "route": "transfer-operator-limit"})
        return _emit(rep, args.format, rows,
                     ["k"] + [f"rate_{i}" for i in range(1, kmax)])
    kmax = args.kmax
    ks = sorted(set(range(1, kmax + 1)) | {100})
    entries, rows = [], []
    for (k1, k2), v in asy.second_moment_limits(ks).items():
        entries.append({"k1": k1, "k2": k2, "covariance": _sig(v, digits)})
        rows.append([k1, k2, _sig(v, digits)])
    rep = _report("asymp", {"table": 3, "kmax": kmax},
                  {"covariances": entries}, {"digits": digits})
    return _emit(rep, args.format, rows, ["k1", "k2", "covariance"])


def _cmd_oracle(args):
    tracked = _parse_track(args.track)
    cnt = walks.oracle_counts(args.n, args.d, tracked,
                              include_range=args.range)
    results = {}
    rows = []
    for key, c in sorted(cnt.items()):
        parts = [f"N{2 * k}={v}" for k, v in zip(tracked, key)]
        if args.range:
            parts.append(f"ran={key[-1]}")
        name = ",".join(parts)
        results[name] = c
        rows.append([name, c])
    rep = _report("oracle", {"n": args.n, "d": args.d, "track": args.track,
                             "range": args.range},
                  {"counts": results}, {"method": "exhaustive"})
    return _emit(rep, args.format, rows, ["profile", "count"])


def _marginal(counts, idx):
    """Counts summed down to the key positions in idx."""
    out = Counter()
    for key, c in counts.items():
        out[tuple(key[i] for i in idx)] += c
    return out


def _cmd_verify(args):
    nmax = args.n_max
    # n = nmax is the dearest enumeration: refuse before any case runs
    walks._check_enum_budget(nmax, 1)
    cases = []
    ok_all = True
    for n in range(1, nmax + 1):
        eng = Engine(2 * n, backend=EXACT)
        # one enumeration per n: key (N2, N4, N6, ran)
        oc = walks.oracle_counts(n, 1, (1, 2, 3), include_range=True)
        for i, k in enumerate((1, 2, 3)):
            cnt, tail = eng.distribution(n, k, 2 * n)
            want = {l: c for (l,), c in _marginal(oc, (i,)).items()}
            got = {l: c for l, c in cnt.items() if c}
            ok = got == want and tail == 0
            ok_all &= ok
            cases.append({"case": f"n={n} N_{2 * k} distribution",
                          "status": "PASS" if ok else "FAIL"})
        hist = range_distribution(n)
        want = {m: c for (m,), c in _marginal(oc, (3,)).items()}
        ok = hist == want
        ok_all &= ok
        cases.append({"case": f"n={n} range histogram",
                      "status": "PASS" if ok else "FAIL"})
        jc = joint_counts(eng, n, (1, 2, 3))
        ok = jc == _marginal(oc, (0, 1, 2))
        ok_all &= ok
        cases.append({"case": f"n={n} joint (N2,N4,N6)",
                      "status": "PASS" if ok else "FAIL"})
    for c in cases:
        print(f"{c['status']}: {c['case']}", file=sys.stderr)
    rep = _report("verify", {"n_max": nmax},
                  {"cases": cases,
                   "mismatches": sum(c["status"] == "FAIL" for c in cases)})
    _emit(rep, args.format, [[c["case"], c["status"]] for c in cases],
          ["case", "status"])
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--digits", type=_int_from(1), default=6,
                        help="significant digits for probabilities")
    p = argparse.ArgumentParser(
        prog="walkrange",
        description="Exact and asymptotic statistics of the k-multiple "
                    "point range of closed simple random walks.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    d = add_parser("dist", help="distribution of N_{2k} at length 2n")
    d.add_argument("--n", type=_int_from(0), required=True)
    d.add_argument("--k", type=_int_from(1), required=True)
    d.add_argument("--lmax", type=_int_from(0), required=True)
    d.add_argument("--backend", choices=("exact", "float"), default=None)
    d.set_defaults(fn=_cmd_dist)

    r = add_parser("range-dist", help="distribution of the range")
    r.add_argument("--n", type=_int_from(0), required=True)
    r.add_argument("--mmax", type=_int_from(0), default=None)
    r.set_defaults(fn=_cmd_range_dist)

    m = add_parser("moments", help="mixed binomial moments")
    m.add_argument("--spec", type=_spec_text, required=True,
                   help='e.g. "1:2,3:2"')
    m.add_argument("--n", type=_int_from(0), required=True)
    m.set_defaults(fn=_cmd_moments)

    f = add_parser("first-moment", help="first moments, any dimension")
    f.add_argument("--d", type=_int_from(1), required=True)
    f.add_argument("--k", type=_int_from(1), required=True)
    f.add_argument("--n", type=_int_from(1), required=True)
    f.set_defaults(fn=_cmd_first_moment, usage_error=f.error)

    a = add_parser("asymp", help="asymptotic tables and limits")
    what = a.add_mutually_exclusive_group(required=True)
    what.add_argument("--table", type=int, choices=(1, 2, 3))
    what.add_argument("--xi", type=_int_from(2))
    a.add_argument("--kmax", type=_int_from(1), default=5)
    a.add_argument("--lmax", type=_int_from(0), default=10)
    a.add_argument("--n", type=_int_from(1), default=2000,
                   help="accepted for older command lines; no table reads "
                        "it")
    a.set_defaults(fn=_cmd_asymp, usage_error=a.error)

    o = add_parser("oracle", help="exhaustive enumeration counts")
    o.add_argument("--n", type=_int_from(0), required=True)
    o.add_argument("--d", type=_int_from(1), default=1)
    o.add_argument("--track", type=_track_text, default="",
                   help='multiplicities k >= 1, e.g. "1,3"')
    o.add_argument("--range", action="store_true")
    o.set_defaults(fn=_cmd_oracle)

    v = add_parser("verify", help="oracle-equivalence suite")
    v.add_argument("--n-max", type=_int_from(1), default=6)
    v.set_defaults(fn=_cmd_verify)
    return p


@contextmanager
def _int_str_unlimited():
    """Lift CPython's int <-> str digit limit (4300 by default) for a block.

    C(2n, n) has more digits than that from n ~ 7150 on; Pythons without
    the limit have no setter."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(old)


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _int_str_unlimited():
            return args.fn(args)
    except (WalkrangeError, ModuleNotFoundError) as exc:
        # numpy is the one runtime dependency; the float routes import it
        if isinstance(exc, ModuleNotFoundError) and exc.name != "numpy":
            raise
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, sort_keys=True))
        return 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`walkrange ... | head`): point it at
        # devnull, so that the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
