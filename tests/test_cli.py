"""Command-line interface: schemas, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from decimal import (Context, Decimal, Inexact, InvalidOperation, Rounded,
                     localcontext)
from fractions import Fraction
from math import comb, nextafter
from pathlib import Path

import pytest

from walkrange import asymptotics as asy
from walkrange import walks
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


def test_first_moment_subcommand(capsys):
    rc, rep, _ = run_json(capsys, ["first-moment", "--d", "1", "--k", "1",
                                   "--n", "500"])
    assert rc == 0
    assert rep["results"]["asymptotic"] == 1.0
    assert abs(rep["results"]["expected_points"] - 1.0) < 0.02


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
    assert rows[0]["limit_method"] == "extrapolated"
    assert rows[0]["limit_probability"] == pytest.approx(0.35101, abs=1e-3)
    assert rows[3]["limit_method"] == "tail-law"
    assert rows[3]["limit_probability"] == pytest.approx(0.04779, abs=5e-5)


def test_asymp_table1_builds_one_float_engine(capsys, monkeypatch):
    # one float series engine at K = 4000 serves l <= 2 at all four grid
    # lengths of the extrapolation
    built = []
    init = Engine.__init__

    def counting_init(self, K, backend=None):
        built.append((K, backend))
        init(self, K, backend)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    assert run(["asymp", "--table", "1"]) == 0
    capsys.readouterr()
    assert [K for K, backend in built if backend == "float"] == [4000]


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
    monkeypatch.setattr(asy, "second_moment_limit", lambda k1, k2: 0.25)
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
    ["asymp", "--table", "2", "--n", "499"],
    ["asymp", "--table", "1", "--xi", "2"],
    ["range-dist", "--n", "3", "--mmax", "-1"],
    ["verify", "--n-max", "-1"],
    ["dist", "--n", "4", "--k", "1", "--lmax", "2", "--digits", "0"],
    ["first-moment", "--d", "2", "--k", "1", "--n", "1"],
    ["asymp", "--xi", "433"],
    ["asymp", "--xi", "700"],
], ids=["dist-k0", "first-moment-k0", "first-moment-d0", "dist-lmax-neg",
        "moments-spec-malformed", "moments-spec-k0", "range-dist-n-neg",
        "moments-n-neg", "first-moment-n-neg", "first-moment-n0",
        "oracle-n-neg", "oracle-d0", "oracle-track-k0",
        "oracle-track-malformed", "asymp-kmax0", "asymp-table2-kmax1",
        "asymp-table2-kmax-over-cap", "asymp-table2-digits-over-cap",
        "asymp-lmax-neg", "asymp-n0", "asymp-xi1", "asymp-table2-n-small",
        "asymp-table-and-xi", "range-dist-mmax-neg",
        "verify-n-max-neg", "digits0", "first-moment-d2-n1",
        "asymp-xi-infinite", "asymp-xi-gamma-overflow"])
def test_invalid_values_exit_two_without_traceback(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


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


def _quotient(c, total):
    return _quotients(Decimal(total))(Decimal(c))


def test_decimal_quotient_is_int_true_division():
    n = 2000
    total = comb(2 * n, n)
    counts = range_distribution(n).values()
    want = [c / total for c in counts]
    assert [_quotient(c, total) for c in counts] == want
    assert 0.0 in want                                      # underflow
    assert any(0 < x < sys.float_info.min for x in want)    # subnormals
    assert _quotient(total, total) == 1.0


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


def test_python_dash_m_runs_the_cli(capsys):
    # python -m walkrange from a checkout prints what cli.run prints
    argv = ["dist", "--n", "5", "--k", "2", "--lmax", "3"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "walkrange", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert run(argv) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


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
}


# the float series route of k <= 2: table 1 extrapolates its l <= 2 limits
# from float engines up to n = 2000, and dist reads the float count series;
# and table 3, the float covariance limits
_FLOAT_STDOUT_SHA256 = {
    "asymp --table 1": "4560fef454fce273",
    "dist --n 600 --k 2 --lmax 20 --backend float": "c82a38a85bad3e66",
    # below _FFT_THRESHOLD the direct convolution prints exact zeros here,
    # where FFT products leave -5.8e-17 (n = 2) and 8.3e-21 (n = 9)
    "dist --n 2 --k 2 --lmax 20 --backend float": "f019c0c4135c40e0",
    "dist --n 9 --k 2 --lmax 20 --backend float": "e138fc30a9cc40bf",
    "asymp --table 3 --kmax 8": "6feb1bcce88db165",
    # the float route's edges: n = 0 reads the series engine for any k, a
    # short k = 3 walk the DP, and table 1 extrapolates fewer than three rows
    "dist --n 0 --k 3 --lmax 2 --backend float": "a73455be909d67da",
    "dist --n 3 --k 3 --lmax 2 --backend float": "12abbad287e43378",
    "asymp --table 1 --lmax 1": "a4ceaf28403a95a3",
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
