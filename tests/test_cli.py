"""Command-line interface: schemas, formats, exit codes."""

import json
import sys
from fractions import Fraction
from math import comb

import pytest

from walkrange.cli import _sig, run
from walkrange.genfun import range_distribution
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


def test_asymp_table1(capsys):
    rc, rep, _ = run_json(capsys, ["asymp", "--table", "1", "--lmax", "3"])
    assert rc == 0
    rows = {e["l"]: e for e in rep["results"]["doublepoints_n39"]}
    assert rows[0]["probability"] == pytest.approx(0.34462, abs=5e-6)
    assert rows[0]["limit_method"] == "extrapolated"
    assert rows[0]["limit_probability"] == pytest.approx(0.35101, abs=1e-3)
    assert rows[3]["limit_method"] == "tail-law"
    assert rows[3]["limit_probability"] == pytest.approx(0.04779, abs=5e-5)


def test_asymp_table3_small(capsys):
    rc, rep, _ = run_json(capsys, ["asymp", "--table", "3", "--kmax", "2"])
    assert rc == 0
    ent = {(e["k1"], e["k2"]): e["covariance"]
           for e in rep["results"]["covariances"]}
    assert ent[(1, 1)] == pytest.approx(0.5, abs=1e-8)
    assert ent[(1, 2)] == pytest.approx(-0.08877, abs=5e-6)


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
    rc = run(["moments", "--spec", "1:3,2:2", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    err = json.loads(out.strip().splitlines()[-1])
    assert err["error"]["type"] == "UnsupportedDepth"


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
    ["asymp", "--table", "1", "--lmax", "-1"],
    ["asymp", "--table", "2", "--n", "0"],
    ["asymp", "--xi", "1"],
    ["asymp", "--table", "2", "--n", "499"],
    ["asymp", "--table", "1", "--xi", "2"],
    ["range-dist", "--n", "3", "--mmax", "-1"],
    ["verify", "--n-max", "-1"],
    ["dist", "--n", "4", "--k", "1", "--lmax", "2", "--digits", "0"],
], ids=["dist-k0", "first-moment-k0", "first-moment-d0", "dist-lmax-neg",
        "moments-spec-malformed", "moments-spec-k0", "range-dist-n-neg",
        "moments-n-neg", "first-moment-n-neg", "first-moment-n0",
        "oracle-n-neg", "oracle-d0", "oracle-track-k0",
        "oracle-track-malformed", "asymp-kmax0", "asymp-table2-kmax1",
        "asymp-lmax-neg", "asymp-n0", "asymp-xi1", "asymp-table2-n-small",
        "asymp-table-and-xi", "range-dist-mmax-neg",
        "verify-n-max-neg", "digits0"])
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
