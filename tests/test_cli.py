"""Command-line interface: schemas, formats, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from decimal import (Context, Decimal, Inexact, InvalidOperation, Rounded,
                     localcontext)
from fractions import Fraction
from math import comb, nextafter
from pathlib import Path

import pytest

from walkrange import asymptotics as asy
from walkrange import cli, walks
from walkrange.cli import _directed, _quotients, _sig, run
from walkrange.genfun import Engine, range_distribution
from walkrange.walks import local_time_probabilities


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out.strip()
    return rc, json.loads(out.splitlines()[-1]), out


def test_dist_exact_counts_are_strings(capsys):
    rc, rep, raw = run_json(capsys, ["dist", "--n", "6", "--k", "2",
                                     "--lmax", "4"])
    assert rc == 0
    assert rep["schema_version"] == 1
    rows = rep["results"]["distribution"]
    assert all(isinstance(r["count"], str) for r in rows)
    assert rep["results"]["total"] == "924"
    assert sum(int(r["count"]) for r in rows) + \
        int(rep["results"]["tail_count"]) == 924


def test_dist_float_backend(capsys):
    rc, rep, _ = run_json(capsys, ["dist", "--n", "6", "--k", "2",
                                   "--lmax", "3", "--backend", "float"])
    assert rc == 0
    rows = rep["results"]["distribution"]
    assert "count" not in rows[0]
    assert abs(sum(r["probability"] for r in rows) - 1) < 0.2


def test_json_output_round_trips_byte_identical(capsys):
    rc, rep, raw = run_json(capsys, ["dist", "--n", "4", "--k", "1",
                                     "--lmax", "2"])
    assert rc == 0
    assert json.dumps(rep, sort_keys=True) == raw


def test_csv_output_has_header(capsys):
    rc = run(["range-dist", "--n", "4", "--format", "csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "n,m,count,probability"
    assert len(out) > 2


def test_range_dist_matches_known_values(capsys):
    rc, rep, _ = run_json(capsys, ["range-dist", "--n", "2"])
    assert rc == 0
    got = {r["m"]: int(r["count"]) for r in rep["results"]["distribution"]}
    assert got == {2: 2, 3: 4}


def test_oracle_output_shape(capsys):
    rc, rep, _ = run_json(capsys, ["oracle", "--n", "2", "--track", "2"])
    assert rc == 0
    assert rep["results"]["counts"] == {"N4=1": 4, "N4=2": 2}


@pytest.mark.parametrize("d", ["1", "2"])
def test_oracle_empty_walk_has_one_singlepoint(capsys, d):
    rc, rep, _ = run_json(capsys, ["oracle", "--n", "0", "--d", d,
                                   "--track", "1,2", "--range"])
    assert rc == 0
    assert rep["results"]["counts"] == {"N2=1,N4=0,ran=1": 1}


def test_oracle_with_range(capsys):
    rc, rep, _ = run_json(capsys, ["oracle", "--n", "2", "--range"])
    assert rc == 0
    assert rep["results"]["counts"] == {"ran=2": 2, "ran=3": 4}


def test_moments_subcommand(capsys):
    rc, rep, _ = run_json(capsys, ["moments", "--spec", "1:2", "--n", "2"])
    assert rc == 0
    assert rep["results"]["value"] == "4"
    # depth 0 counts every walk: C(10, 5)
    rc, rep, _ = run_json(capsys, ["moments", "--spec", "1:0", "--n", "5"])
    assert rc == 0
    assert rep["results"]["value"] == "252"


def test_first_moment_subcommand(capsys):
    rc, rep, _ = run_json(capsys, ["first-moment", "--d", "1", "--k", "1",
                                   "--n", "500"])
    assert rc == 0
    assert rep["results"]["asymptotic"] == 1.0
    assert abs(rep["results"]["expected_points"] - 1.0) < 0.02



def test_first_moment_d2_is_the_log_law(capsys):
    # d = 2: E N_{2k} ~ 2n pi^2 / log^2 n and E ran ~ 2n pi / log n
    rc, rep, _ = run_json(capsys, ["first-moment", "--d", "2", "--k", "1",
                                   "--n", "100"])
    assert rc == 0
    assert rep["results"] == {
        "asymptotic": _sig(200 * math.pi ** 2 / math.log(100) ** 2, 6),
        "asymptotic_range": _sig(200 * math.pi / math.log(100), 6)}
    assert rep["results"]["asymptotic"] == 93.0761


def test_first_moment_d3_integrates_the_escape_constant_once(capsys,
                                                             monkeypatch):
    # the asymptotic first and range moments both read G(3): one quadrature
    from walkrange import moments

    calls = []
    green = moments.green

    def counting(*args, **kwargs):
        calls.append(args)
        return green(*args, **kwargs)

    monkeypatch.setattr(moments, "green", counting)
    moments.escape_constant.cache_clear()
    rc, rep, _ = run_json(capsys, ["first-moment", "--d", "3", "--k", "2",
                                   "--n", "1000"])
    assert rc == 0 and len(calls) == 1
    assert rep["results"]["asymptotic"] > 0


@pytest.mark.parametrize("d", ["400", "1000"])
def test_first_moment_answers_large_dimensions(capsys, d):
    # G(d) ~ 1/(2d) at large d; the escape constant must not overflow there
    rc, rep, _ = run_json(capsys, ["first-moment", "--d", d, "--k", "1",
                                   "--n", "10"])
    assert rc == 0
    assert 19.9 < rep["results"]["asymptotic"] < 20.0


def test_asymp_xi(capsys):
    rc, rep, _ = run_json(capsys, ["asymp", "--xi", "2"])
    assert rc == 0
    assert rep["results"]["xi"] == pytest.approx(1.047198, abs=1e-5)


def test_asymp_xi_is_finite_json_up_to_432(capsys):
    # the last r before xi(r) itself passes float64
    rc, rep, out = run_json(capsys, ["asymp", "--xi", "432"])
    assert rc == 0 and "Infinity" not in out
    assert rep["results"]["xi"] == pytest.approx(3.56469e307, rel=1e-5)


def test_asymp_table1(capsys):
    rc, rep, _ = run_json(capsys, ["asymp", "--table", "1", "--lmax", "3"])
    assert rc == 0
    rows = {e["l"]: e for e in rep["results"]["doublepoints_n39"]}
    assert rows[0]["probability"] == pytest.approx(0.34462, abs=5e-6)
    assert rows[0]["limit_method"] == "closed-form"
    assert rows[0]["limit_probability"] == pytest.approx(0.35101, abs=1e-3)
    assert rows[3]["limit_method"] == "tail-law"
    assert rows[3]["limit_probability"] == pytest.approx(0.04779, abs=5e-5)


def test_asymp_table1_builds_no_float_engine(capsys, monkeypatch):
    # the l <= 2 limits are closed forms: only the exact n = 39 engine runs
    built = []
    init = Engine.__init__

    def counting_init(self, K, backend=None):
        built.append((K, backend))
        init(self, K, backend)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    assert run(["asymp", "--table", "1"]) == 0
    capsys.readouterr()
    assert built == [(78, "exact")]


def test_asymp_table3_small(capsys):
    rc, rep, _ = run_json(capsys, ["asymp", "--table", "3", "--kmax", "2"])
    assert rc == 0
    ent = {(e["k1"], e["k2"]): e["covariance"]
           for e in rep["results"]["covariances"]}
    assert ent[(1, 1)] == pytest.approx(0.5, abs=1e-8)
    assert ent[(1, 2)] == pytest.approx(-0.08877, abs=5e-6)


def test_asymp_table3_lists_each_pair_once(capsys, monkeypatch):
    # k = 100 joins 1..kmax once, also when kmax reaches it; a cheap stub
    # stands in for the covariance limits
    monkeypatch.setattr(asy, "second_moment_limits", lambda ks: {
        (k1, k2): 0.25 for i, k1 in enumerate(ks) for k2 in ks[i:]})
    for kmax in (99, 100, 101):
        rc, rep, _ = run_json(capsys, ["asymp", "--table", "3",
                                       "--kmax", str(kmax)])
        assert rc == 0
        pairs = [(e["k1"], e["k2"]) for e in rep["results"]["covariances"]]
        ks = set(range(1, kmax + 1)) | {100}
        assert all(a <= b and {a, b} <= ks for a, b in pairs)
        assert len(set(pairs)) == len(pairs) == len(ks) * (len(ks) + 1) // 2


# stdout of `asymp --table 2 --kmax 5 --n 600`: the eigenvalue rates of the
# limit transfer operator, which do not depend on --n
_TABLE2_N600 = (
    '{"command": "asymp", "parameters": {"kmax": 5, "table": 2},'
    ' "provenance": {"digits": 6, "route": "transfer-operator-limit"},'
    ' "results": {"tail_rates": [{"k": 2, "rates": [0.2914]}, {"k": 3,'
    ' "rates": [0.290181, -0.230574]}, {"k": 4, "rates": [0.29867,'
    ' -0.141764, 0.125563]}, {"k": 5, "rates": [0.30263, -0.188223,'
    ' -0.0816851, 0.0764816]}]}, "schema_version": 1}'
    "\n")


def test_asymp_table2_output_is_pinned(capsys):
    assert run(["asymp", "--table", "2", "--kmax", "5", "--n", "600"]) == 0
    assert capsys.readouterr().out == _TABLE2_N600


def test_asymp_table2_runs_neither_the_dp_nor_the_fit(capsys, monkeypatch):
    from walkrange import asymptotics

    def refuse(*args, **kwargs):
        raise AssertionError("table 2 must not run this route")

    monkeypatch.setattr(walks, "local_time_probabilities", refuse)
    monkeypatch.setattr(asymptotics, "tail_rate_fit", refuse)
    rc, rep, _ = run_json(capsys, ["asymp", "--table", "2", "--kmax", "5",
                                   "--n", "1500"])
    assert rc == 0
    assert [e["k"] for e in rep["results"]["tail_rates"]] == [2, 3, 4, 5]


def test_asymp_table2_rates_k3_to_k8(capsys):
    # the printed digits of the limit-operator rates for k = 3..8
    rc, rep, _ = run_json(capsys, ["asymp", "--table", "2", "--kmax", "8"])
    assert rc == 0
    rates = {e["k"]: e["rates"] for e in rep["results"]["tail_rates"]}
    assert rates[3] == [0.290181, -0.230574]
    assert rates[4] == [0.29867, -0.141764, 0.125563]
    assert rates[5] == [0.30263, -0.188223, -0.0816851, 0.0764816]
    assert [rates[k][0] for k in (6, 7, 8)] == [0.305899, 0.308286, 0.310199]


# stdout of `dist --n 1000 --k 4 --lmax 4 --backend float` (the DP route)
# as printed by the DP that summed over start points in two phases
_DIST_DP_N1000 = (
    '{"command": "dist", "parameters": {"k": 4, "lmax": 4, "n": 1000},'
    ' "provenance": {"backend": "dp", "digits": 6}, "results":'
    ' {"distribution": [{"l": 0, "probability": 0.395055}, {"l": 1,'
    ' "probability": 0.354915}, {"l": 2, "probability": 0.157129}, {"l": 3,'
    ' "probability": 0.0593891}, {"l": 4, "probability": 0.02186}], "total":'
    f' "{comb(2000, 1000)}"}}, "schema_version": 1}}'
    "\n")


def test_dist_dp_output_is_pinned(capsys):
    assert run(["dist", "--n", "1000", "--k", "4", "--lmax", "4",
                "--backend", "float"]) == 0
    assert capsys.readouterr().out == _DIST_DP_N1000


def test_verify_subcommand_exit_zero(capsys):
    rc = run(["verify", "--n-max", "3"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out.strip().splitlines()[-1])
    assert rc == 0
    assert rep["results"]["mismatches"] == 0
    assert "PASS" in captured.err


def test_verify_to_length_sixteen(capsys):
    rc = run(["verify", "--n-max", "8"])
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert rep["results"]["mismatches"] == 0


def test_internal_error_returns_structured_object(capsys):
    # too many walks, and point codes past int64 (3^41 // 2 > 2^63 - 1)
    for argv in (["oracle", "--n", "20", "--d", "3"],
                 ["oracle", "--n", "1", "--d", "41"]):
        rc = run(argv)
        cap = capsys.readouterr()
        assert rc == 1, argv
        err = json.loads(cap.out.strip().splitlines()[-1])
        assert err["error"]["type"] == "BudgetExceeded", argv
        assert "Traceback" not in cap.out + cap.err, argv


def test_verify_refuses_past_the_budget_before_enumerating(capsys,
                                                            monkeypatch):
    # n = 14 passes the enumeration budget: no case is computed first
    def no_engine(*args, **kwargs):
        raise AssertionError("verify built an Engine past its budget")

    monkeypatch.setattr(cli, "Engine", no_engine)
    rc = run(["verify", "--n-max", "14"])
    cap = capsys.readouterr()
    assert rc == 1
    err = json.loads(cap.out)
    assert err["error"]["type"] == "BudgetExceeded"
    assert cap.err == ""


def test_argument_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["dist", "--n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["dist", "--n", "4", "--k", "0", "--lmax", "2"],
    ["first-moment", "--d", "1", "--k", "0", "--n", "10"],
    ["first-moment", "--d", "0", "--k", "1", "--n", "10"],
    ["dist", "--n", "4", "--k", "1", "--lmax", "-1"],
    ["moments", "--spec", "x", "--n", "3"],
    ["moments", "--spec", "0:1", "--n", "3"],
    ["range-dist", "--n", "-1"],
    ["moments", "--spec", "1:1", "--n", "-1"],
    ["first-moment", "--d", "1", "--k", "1", "--n", "-1"],
    ["first-moment", "--d", "1", "--k", "1", "--n", "0"],
    ["oracle", "--n", "-1"],
    ["oracle", "--n", "2", "--d", "0"],
    ["oracle", "--n", "2", "--track", "0"],
    ["oracle", "--n", "2", "--track", "1,x"],
    ["asymp", "--table", "3", "--kmax", "0"],
    ["asymp", "--table", "2", "--kmax", "1"],
    ["asymp", "--table", "2", "--kmax", "11"],
    ["asymp", "--table", "2", "--kmax", "10", "--digits", "11"],
    ["asymp", "--table", "1", "--lmax", "-1"],
    ["asymp", "--table", "2", "--n", "0"],
    ["asymp", "--xi", "1"],
    ["asymp", "--table", "1", "--xi", "2"],
    ["range-dist", "--n", "3", "--mmax", "-1"],
    ["verify", "--n-max", "-1"],
    ["dist", "--n", "4", "--k", "1", "--lmax", "2", "--digits", "0"],
    ["first-moment", "--d", "2", "--k", "1", "--n", "1"],
    ["asymp", "--xi", "433"],
    ["asymp", "--xi", "700"],
    ["dist", "--n", "4.5", "--k", "1", "--lmax", "2"],
], ids=["dist-k0", "first-moment-k0", "first-moment-d0", "dist-lmax-neg",
        "moments-spec-malformed", "moments-spec-k0", "range-dist-n-neg",
        "moments-n-neg", "first-moment-n-neg", "first-moment-n0",
        "oracle-n-neg", "oracle-d0", "oracle-track-k0",
        "oracle-track-malformed", "asymp-kmax0", "asymp-table2-kmax1",
        "asymp-table2-kmax-over-cap", "asymp-table2-digits-over-cap",
        "asymp-lmax-neg", "asymp-n0", "asymp-xi1", "asymp-table-and-xi",
        "range-dist-mmax-neg", "verify-n-max-neg", "digits0",
        "first-moment-d2-n1", "asymp-xi-infinite", "asymp-xi-gamma-overflow",
        "dist-n-not-int"])
def test_invalid_values_exit_two_without_traceback(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


def _csv_matches_json(argv, rep, rows):
    """The CSV rows of argv against its JSON report, where they repeat it."""
    results = rep["results"]
    if argv[0] == "oracle":
        assert rows == [[p, str(c)] for p, c in results["counts"].items()]
    elif argv[0] == "verify":
        assert rows == [[c["case"], c["status"]] for c in results["cases"]]
    elif argv[0] == "moments":
        assert rows == [[argv[2], argv[4], results["value"],
                         str(results["normalized"])]]
    elif argv[:3] == ["asymp", "--table", "2"]:
        width = len(rows[0])
        assert rows == [[str(e["k"])] + [str(r) for r in e["rates"]]
                        + [""] * (width - len(e["rates"]) - 1)
                        for e in results["tail_rates"]]
    elif argv[0] == "first-moment":
        assert rows == [argv[2:7:2] + [str(results.get(f, "")) for f in (
            "expected_points", "asymptotic", "expected_range",
            "asymptotic_range")]]
    elif argv[0] == "dist":
        assert [r[2:] for r in rows] == [
            [str(e["l"]), e.get("count", ""), str(e["probability"])]
            for e in results["distribution"]]


@pytest.mark.parametrize("argv", [
    ["dist", "--n", "6", "--k", "2", "--lmax", "4"],
    ["dist", "--n", "6", "--k", "2", "--lmax", "4", "--backend", "float"],
    ["range-dist", "--n", "5"],
    ["moments", "--spec", "1:2,3:2", "--n", "5"],
    ["first-moment", "--d", "3", "--k", "2", "--n", "100"],
    ["first-moment", "--d", "1", "--k", "2", "--n", "10"],
    ["asymp", "--table", "1", "--lmax", "4"],
    ["asymp", "--table", "2", "--kmax", "4"],
    ["asymp", "--table", "3", "--kmax", "3"],
    ["asymp", "--xi", "4"],
    ["oracle", "--n", "2", "--d", "1", "--track", "1,2"],
    ["oracle", "--n", "3", "--d", "2", "--track", "1", "--range"],
    ["verify", "--n-max", "1"],
], ids=lambda argv: " ".join(argv))
def test_csv_rows_are_as_wide_as_the_header(capsys, argv):
    # fields holding commas (profiles, case names, specs) come out quoted,
    # and every row parses back to the header's width
    rc, rep, _ = run_json(capsys, argv)
    assert rc == 0
    assert run(argv + ["--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert rows and all(len(r) == len(header) for r in rows), (header, rows)
    _csv_matches_json(argv, rep, rows)


def test_asymp_table2_output_does_not_depend_on_n(capsys):
    # table 2 reads no length; --n stays accepted for older command lines
    outs = []
    for n in ("400", "2000"):
        assert run(["asymp", "--table", "2", "--kmax", "4", "--n", n]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_asymp_without_table_or_xi_exits_two_without_traceback(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["asymp"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "one of the arguments --table --xi is required" in err
    assert "Traceback" not in err


def test_dist_empty_walk_has_one_singlepoint(capsys):
    # the empty walk visits only the origin, with multiplicity 2: N_2 = 1
    rc, rep, _ = run_json(capsys, ["dist", "--n", "0", "--k", "1",
                                   "--lmax", "3"])
    assert rc == 0
    got = {r["l"]: r["count"] for r in rep["results"]["distribution"]}
    assert got == {0: "0", 1: "1"}
    assert rep["results"]["tail_count"] == "0"
    rc, rep, _ = run_json(capsys, ["dist", "--n", "0", "--k", "1",
                                   "--lmax", "3", "--backend", "float"])
    probs = [r["probability"] for r in rep["results"]["distribution"]]
    assert probs == [0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("k", [2, 3])
def test_dist_empty_walk_has_no_higher_multiplicity(capsys, k):
    rc, rep, _ = run_json(capsys, ["dist", "--n", "0", "--k", str(k),
                                   "--lmax", "3"])
    assert rc == 0
    assert rep["results"]["distribution"] == [
        {"l": 0, "count": "1", "probability": 1.0}]
    assert rep["results"]["tail_count"] == "0"


def test_moments_empty_walk(capsys):
    # the empty walk has N_2 = 1 and no other multiplicity
    rc, rep, _ = run_json(capsys, ["moments", "--spec", "1:1", "--n", "0"])
    assert rc == 0
    assert rep["results"]["value"] == "1"
    rc, rep, _ = run_json(capsys, ["moments", "--spec", "1:1,2:1",
                                   "--n", "0"])
    assert rep["results"]["value"] == "0"


def test_range_dist_empty_walk(capsys):
    rc, rep, _ = run_json(capsys, ["range-dist", "--n", "0"])
    assert rc == 0
    assert rep["results"]["distribution"] == [
        {"m": 1, "count": "1", "probability": 1.0}]
    assert rep["results"]["tail_count"] == "0"


def test_counts_past_the_int_str_digit_limit(capsys):
    # C(14400, 7200) has 4333 digits, past CPython's default limit of 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rc, rep, _ = run_json(capsys, ["range-dist", "--n", "7200", "--mmax", "3"])
    assert rc == 0
    total = rep["results"]["total"]
    assert len(total) == 4333
    want = comb(14400, 7200)
    assert int(total[-4000:]) == want % 10 ** 4000
    assert int(total[:-4000]) == want // 10 ** 4000
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_range_dist_probabilities_are_rounded_exact_ratios(capsys):
    n = 1500
    rc, rep, _ = run_json(capsys, ["range-dist", "--n", str(n)])
    total = comb(2 * n, n)
    want = {m: _sig(Fraction(c, total), 6)
            for m, c in range_distribution(n).items()}
    got = {r["m"]: r["probability"] for r in rep["results"]["distribution"]}
    assert got == want


def test_range_dist_large_n_is_consistent(capsys):
    n = 3000
    rc, rep, _ = run_json(capsys, ["range-dist", "--n", str(n)])
    assert rc == 0
    res = rep["results"]
    counts = {r["m"]: int(r["count"]) for r in res["distribution"]}
    assert res["tail_count"] == "0"
    assert sum(counts.values()) == int(res["total"]) == comb(2 * n, n)
    # E(ran) = 4^n / C(2n, n)
    assert sum(m * c for m, c in counts.items()) == 4 ** n


def test_range_dist_ignores_the_ambient_decimal_context(capsys):
    # every Decimal operation of range-dist names its own context, so a
    # one-digit context that traps rounding changes nothing
    argv = ["range-dist", "--n", "300"]
    assert run(argv) == 0
    want = capsys.readouterr().out
    with localcontext(Context(prec=1, traps=[Inexact, Rounded,
                                             InvalidOperation])):
        assert run(argv) == 0
    assert capsys.readouterr().out == want


def _range_dist_one_shot(n, mmax, digits, fmt):
    """The range-dist stdout as the one-shot report of int counts."""
    total = comb(2 * n, n)
    hist = sorted(range_distribution(n, mmax).items())
    rows = [(m, c, _sig(c / total, digits)) for m, c in hist]
    if fmt == "csv":
        return "".join(["n,m,count,probability\n"] +
                       [f"{n},{m},{c},{pr}\n" for m, c, pr in rows])
    report = {
        "schema_version": 1, "command": "range-dist",
        "parameters": {"n": n, "mmax": mmax},
        "results": {
            "distribution": [{"m": m, "count": str(c), "probability": pr}
                             for m, c, pr in rows],
            "tail_count": str(total - sum(c for _, c in hist)),
            "total": str(total)},
        "provenance": {"backend": "exact", "digits": digits},
    }
    return json.dumps(report, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [0, 1, 2, 50])
def test_range_dist_streams_the_one_shot_report(capsys, n, fmt):
    for mmax in (None, 0, 1, 40):
        for digits in (1, 6, 17):
            argv = ["range-dist", "--n", str(n), "--digits", str(digits),
                    "--format", fmt]
            if mmax is not None:
                argv += ["--mmax", str(mmax)]
            assert run(argv) == 0
            assert capsys.readouterr().out == \
                _range_dist_one_shot(n, mmax, digits, fmt), argv


def test_range_dist_memory_stays_flat(tmp_path):
    # the report (4.06 MB at n = 3000) goes out entry by entry: one copy of
    # the Decimal counts, not the whole report held as text several times
    with open(tmp_path / "out.json", "w") as out, redirect_stdout(out):
        tracemalloc.start()
        try:
            assert run(["range-dist", "--n", "3000"]) == 0
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8e6, peak
    assert json.loads((tmp_path / "out.json").read_text())["results"][
        "total"] == str(comb(6000, 3000))


def _quotient(c, total):
    return _quotients(Decimal(total))(Decimal(c))


def test_decimal_quotient_is_int_true_division():
    for n in (1500, 2000):
        total = comb(2 * n, n)
        counts = range_distribution(n).values()
        want = [c / total for c in counts]
        assert [_quotient(c, total) for c in counts] == want
        assert 0.0 in want                                    # underflow
        assert any(0 < x < sys.float_info.min for x in want)  # subnormals
        assert _quotient(total, total) == 1.0
        assert _quotient(0, total) == 0.0


def test_decimal_quotient_widens_near_a_tie():
    # M = p/q is the midpoint between 0.1 and the next double; c / total
    # lies about 1e-40 / q from it, relatively, which 25 or 50 digits
    # cannot see
    up = nextafter(0.1, 1.0)
    mid = (Fraction(0.1) + Fraction(up)) / 2
    p, q = mid.numerator, mid.denominator
    for c, total, want in ((p * 10 ** 40, q * 10 ** 40 + 1, 0.1),
                           (p * 10 ** 40, q * 10 ** 40 - 1, up)):
        for prec in (25, 50):
            lo, hi = _directed(prec)
            assert float(lo.divide(c, total)) != float(hi.divide(c, total))
        assert _quotient(c, total) == c / total == want
    # an exact tie, whose denominator 3q has no finite decimal reciprocal,
    # rounds half to even, as int / int does
    assert _quotient(3 * p, 3 * q) == p / q == 0.1
    # c / total = 1 + 2^-53, halfway between 1 and the next double, with a
    # count of 25 digits and one of 61 that the bracket rounds first
    for e in (80, 200):
        c, total = 2 ** e + 2 ** (e - 53), 2 ** e
        assert _quotient(c, total) == c / total == 1.0


def test_exact_dist_probabilities_are_rounded_exact_ratios(capsys):
    n = 40
    rc, rep, _ = run_json(capsys, ["dist", "--n", str(n), "--k", "2",
                                   "--lmax", "30", "--digits", "12"])
    total = comb(2 * n, n)
    for r in rep["results"]["distribution"]:
        assert r["probability"] == _sig(Fraction(int(r["count"]), total), 12)


@pytest.mark.parametrize("backend", [["--backend", "float"], []])
def test_float_dist_k4_takes_the_dp(capsys, backend):
    # the series route printed Pr(N_8 = 0) = 0.392833 here; the DP 0.395055
    rc, rep, _ = run_json(capsys, ["dist", "--n", "1000", "--k", "4",
                                   "--lmax", "4"] + backend)
    assert rc == 0
    assert rep["provenance"]["backend"] == "dp"
    want = [_sig(p, 6) for p in local_time_probabilities(1000, 4, 4)]
    got = [r["probability"] for r in rep["results"]["distribution"]]
    assert got == want
    assert got[0] == 0.395055


@pytest.mark.parametrize("k", [3, 5])
def test_float_dist_dp_matches_exact_backend(capsys, k):
    argv = ["dist", "--n", "15", "--k", str(k), "--lmax", "6",
            "--digits", "12"]
    rc, dp, _ = run_json(capsys, argv + ["--backend", "float"])
    assert dp["provenance"]["backend"] == "dp"
    rc, ex, _ = run_json(capsys, argv + ["--backend", "exact"])
    for a, b in zip(dp["results"]["distribution"],
                    ex["results"]["distribution"], strict=True):
        assert a["l"] == b["l"]
        assert a["probability"] == pytest.approx(b["probability"],
                                                 rel=1e-10, abs=1e-15)


def _checkout_env():
    """The environment of a `python -m walkrange` run from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src)


def test_python_dash_m_runs_the_cli(capsys):
    # python -m walkrange from a checkout prints what cli.run prints
    argv = ["dist", "--n", "5", "--k", "2", "--lmax", "3"]
    proc = subprocess.run([sys.executable, "-m", "walkrange", *argv],
                          env=_checkout_env(), capture_output=True, text=True,
                          timeout=60)
    assert run(argv) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


def test_closed_stdout_pipe_exits_without_traceback():
    # `walkrange range-dist --n 2000 | head -c 100`: the report is megabytes,
    # so the writer is still writing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "walkrange", "range-dist", "--n", "2000"],
        env=_checkout_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(head) == 100
    assert "Traceback" not in err, err


# Commands whose routes are exact, asymptotic in closed form, or argparse
# errors: none of them may import numpy.  The float DP comes last and must.
_NUMPY_FREE_ARGV = [
    ["dist", "--n", "12", "--k", "3", "--lmax", "8"],
    ["dist", "--n", "100", "--k", "3", "--lmax", "66"],
    ["moments", "--spec", "3:2", "--n", "10"],
    ["range-dist", "--n", "20"],
    ["asymp", "--table", "1"],
    ["asymp", "--table", "3", "--kmax", "3"],
    ["asymp", "--xi", "4"],
    ["first-moment", "--d", "1", "--k", "2", "--n", "10"],
    ["first-moment", "--d", "3", "--k", "2", "--n", "1000"],
    ["dist", "--n", "5", "--k", "0", "--lmax", "3"],
]
_NUMPY_PROBE = """
import contextlib, io, json, sys
import walkrange
from walkrange.cli import run
seen = [["import walkrange", None, "numpy" in sys.modules]]
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code
    seen.append([" ".join(argv), rc, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_exact_routes_do_not_import_numpy():
    float_dp = ["dist", "--n", "20", "--k", "3", "--lmax", "5",
                "--backend", "float"]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE],
                          input=json.dumps(_NUMPY_FREE_ARGV + [float_dp]),
                          env=_checkout_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [rc for _, rc, _ in seen] == [None] + [0] * 9 + [2, 0]
    assert [name for name, _, loaded in seen if loaded] == [" ".join(float_dp)]


_NUMPY_BLOCKED = ("import sys; sys.modules['numpy'] = None; "
                  "from walkrange.cli import main; main()")


def test_missing_numpy_is_a_structured_error():
    # the routes that need numpy report its absence as a JSON error line;
    # the exact routes still print their pinned bytes
    for argv in (["oracle", "--n", "2", "--track", "1,2"],
                 ["verify", "--n-max", "2"],
                 ["dist", "--n", "300", "--k", "2", "--lmax", "2"],
                 ["dist", "--n", "20", "--k", "1", "--lmax", "5"]):
        proc = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED, *argv],
                              env=_checkout_env(), capture_output=True,
                              text=True, timeout=120)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        query = " ".join(argv)
        if query in _STDOUT_SHA256:
            assert proc.returncode == 0, query
            assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] \
                == _STDOUT_SHA256[query]
            continue
        assert proc.returncode == 1, query
        [line] = proc.stdout.splitlines()
        err = json.loads(line)["error"]
        assert err["type"] == "ModuleNotFoundError", query
        assert "numpy" in err["message"], query


def test_other_missing_modules_still_raise(monkeypatch):
    def missing(args):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    monkeypatch.setattr(cli, "_cmd_range_dist", missing)
    with pytest.raises(ModuleNotFoundError):
        run(["range-dist", "--n", "2"])


# first 16 hex digits of the sha256 of each query's stdout: the exact count
# queries print these bytes whichever way the engine reaches the counts
_STDOUT_SHA256 = {
    "dist --n 20 --k 1 --lmax 5": "1ab4523721506580",
    "dist --n 39 --k 2 --lmax 10": "6d405dcd5fac3a7f",
    "dist --n 40 --k 3 --lmax 26": "f1d1b76eb273fb1a",
    "dist --n 0 --k 1 --lmax 5": "c50fa22fbc3b2661",
    "moments --spec 2:1 --n 20": "e2fbc4103a21ad38",
    "moments --spec 1:1,2:1 --n 20": "7f32f0bcb1980599",
    "moments --spec 3:4 --n 40": "e69d87c30ff3a381",
    "range-dist --n 400": "37cce586e596893e",
    "range-dist --n 1500 --digits 12": "73c6a27f36fe29c8",
    "range-dist --n 3000 --mmax 40": "a835a1da517d2a14",
    "range-dist --n 200 --format csv": "3b226156061992b3",
    "oracle --n 5 --d 2 --track 2,3 --range": "950120d218a0aae6",
    "oracle --n 3 --d 3 --track 1,2 --range": "14c3d61402c1fa31",
    "verify --n-max 7": "2928c0cf9e36a49d",
    # the seed-1 queries of the benchmark's exact-dist, oracle-verify and
    # float-series workloads (perfbench/workloads.py)
    "dist --n 82 --k 3 --lmax 54": "8cb4c057224ce348",
    "dist --n 96 --k 3 --lmax 64": "feba053f25e6ae75",
    "dist --n 100 --k 3 --lmax 66": "f4baf86167210151",
    "moments --spec 3:4 --n 82": "9e7fb559b0307ce1",
    "moments --spec 3:4 --n 96": "f9131c7e1a8e63b7",
    "moments --spec 3:4 --n 100": "4ec8f638fe38deb6",
    "verify --n-max 9": "654d67bbabaa69a2",
    "range-dist --n 3013": "d668e909b3650c3f",
    "range-dist --n 3887": "d29ed84ee554595d",
    "range-dist --n 3914": "ba246f41cf583d2a",
    # one-marker walks of every state size r = k - 1 = 1..5, long and short:
    # D = 2n/k - 2 steps from 168 down to -1
    "dist --n 256 --k 3 --lmax 10": "c37bb6b2589d1d3b",
    "dist --n 256 --k 2 --lmax 10": "24b9e092eadfec1f",
    "dist --n 200 --k 4 --lmax 10": "4e3eaecd1755c2c9",
    "dist --n 100 --k 5 --lmax 40": "ed84d66a129c8f4e",
    "dist --n 60 --k 6 --lmax 20": "3ed3e2257d0156d8",
    "dist --n 3 --k 3 --lmax 5": "0f91b5b7080a09d3",
}


# the float limits and the float series route of k <= 2: table 1 with its
# closed-form l <= 2 limits and tail law, dist reading the float count
# series, and table 3, the float covariance limits
_FLOAT_STDOUT_SHA256 = {
    "asymp --table 1": "360015c47f5c6464",
    "dist --n 600 --k 2 --lmax 20 --backend float": "c82a38a85bad3e66",
    # below _FFT_THRESHOLD the direct convolution prints exact zeros here,
    # where FFT products leave -5.8e-17 (n = 2) and 8.3e-21 (n = 9)
    "dist --n 2 --k 2 --lmax 20 --backend float": "f019c0c4135c40e0",
    "dist --n 9 --k 2 --lmax 20 --backend float": "e138fc30a9cc40bf",
    "asymp --table 3 --kmax 8": "6feb1bcce88db165",
    # every float of table 3 to the last bit, 5,050 pairs
    "asymp --table 3 --kmax 100 --digits 17": "5e8a48399fff19da",
    # the float route's edges: n = 0 reads the series engine for any k, a
    # short k = 3 walk the DP, and table 1 prints fewer than three limits
    "dist --n 0 --k 3 --lmax 2 --backend float": "a73455be909d67da",
    "dist --n 3 --k 3 --lmax 2 --backend float": "12abbad287e43378",
    "asymp --table 1 --lmax 1": "e415b4a9aee80186",
    # the seed-1 float queries of the benchmark's tail-fit and float-series
    # workloads (table 2 prints the same for every --n), and one DP query
    "asymp --table 2 --kmax 5": "791755e9a4ff185a",
    "dist --n 3013 --k 2 --lmax 20": "8dda44f9add92bb9",
    "dist --n 3887 --k 2 --lmax 20": "6e52a67951cb0139",
    "dist --n 3914 --k 2 --lmax 20": "bb2311bcdff1f7b3",
    "dist --n 999 --k 4 --lmax 4 --backend float": "bacd300449d33af7",
    "first-moment --d 3 --k 2 --n 1000": "bc8c472529a98117",
    "dist --n 2000 --k 5 --lmax 10 --backend float": "114335635fd068b7",
    # every consumer of zeta to the last printed digit: xi(r) across the
    # range --xi prints, table 1's tail law and head, table 2's Fraction W(k)
    "asymp --xi 2 --digits 17": "28bc9a6cf2927f70",
    "asymp --xi 3 --digits 17": "8e628623b5bbab50",
    "asymp --xi 100 --digits 17": "2b5de51f0006ca08",
    "asymp --xi 432 --digits 17": "e5b0f525125ff40c",
    "asymp --table 1 --digits 17 --lmax 30": "7ec838ea699a9f27",
    "asymp --table 2 --kmax 10 --digits 10": "b7f0168fd1fd308a",
    # the float count series of k <= 2 to the last bit: below and above the
    # orders where the ballot sweep and the FFT products change shape
    "dist --n 257 --k 2 --lmax 40 --digits 17": "b35d02c30aeb6eac",
    "dist --n 1000 --k 2 --lmax 40 --digits 17": "6adb6e18e18c5b76",
    "dist --n 3914 --k 2 --lmax 40 --digits 17": "392a9cb509a708f2",
    "dist --n 8000 --k 2 --lmax 40 --digits 17": "bdb60a3f83817f81",
    "dist --n 3914 --k 1 --lmax 2 --digits 17": "d0d7d77f4045fa3d",
}


def _stdout_sha256(capsys, query):
    assert run(query.split()) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("query", list(_STDOUT_SHA256))
def test_exact_count_stdout_is_pinned(capsys, query):
    assert _stdout_sha256(capsys, query) == _STDOUT_SHA256[query]


@pytest.mark.parametrize("query", list(_FLOAT_STDOUT_SHA256))
def test_float_series_stdout_is_pinned(capsys, query):
    assert _stdout_sha256(capsys, query) == _FLOAT_STDOUT_SHA256[query]
