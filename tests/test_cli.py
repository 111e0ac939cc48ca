import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import isogeny_forge
from isogeny_forge import kgroup
from isogeny_forge.elliptic import curve_from_pair

CLI = [sys.executable, "-m", "isogeny_forge.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, **kw
    )


def records_of(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def strip_timing(recs):
    out = []
    for r in recs:
        r = dict(r)
        r.pop("timing_ms", None)
        out.append(r)
    return out


def test_usage_error_missing_flag():
    res = run_cli("analyze-curve", "--a", "1")
    assert res.returncode == 2


def test_usage_error_unknown_flag():
    res = run_cli("analyze-curve", "--a", "1", "--b", "-1", "--primes", "10", "--bogus")
    assert res.returncode == 2


def test_usage_error_no_command():
    assert run_cli().returncode == 2


def test_analyze_curve_records():
    res = run_cli("analyze-curve", "--a", "1", "--b", "-1", "--primes", "3..20")
    assert res.returncode == 0
    recs = records_of(res.stdout)
    assert recs[0]["kind"] == "conductor"
    assert recs[0]["outputs"]["conductor"] == 32
    reports = [r for r in recs if r["kind"] == "reduction-report"]
    assert [r["inputs"]["p"] for r in reports] == [3, 5, 7, 11, 13, 17, 19]
    for r in reports:
        assert r["outputs"]["kodaira"] == "I0"
        assert r["outputs"]["conductor_exponent"] == 0
        assert r["tool_version"]


def test_scholten_verify_pass_and_fail():
    res = run_cli("scholten", "verify", "--params", "1,2,3,4", "--primes", "50")
    assert res.returncode == 0
    (rec,) = records_of(res.stdout)
    assert rec["kind"] == "split-jacobian"
    assert rec["outputs"]["verdict"] == "pass"

    bad = run_cli(
        "scholten", "verify", "--params", "1,2,3,4", "--primes", "50", "--e1", "1,3"
    )
    assert bad.returncode == 1
    (rec,) = records_of(bad.stdout)
    assert rec["outputs"]["verdict"] == "fail"


def test_scholten_build_and_family():
    res = run_cli("scholten", "build", "--params", "1,2,3,4")
    assert res.returncode == 0
    (rec,) = records_of(res.stdout)
    assert rec["outputs"]["lam"] == -2
    res = run_cli("scholten", "family", "--params", "1,2,3,4")
    assert res.returncode == 0
    (rec,) = records_of(res.stdout)
    assert 1 <= rec["outputs"]["class_count"] <= 6


def test_search_empty_csv(tmp_path):
    f = tmp_path / "grid.csv"
    f.write_text("a,b,c,d\n")
    res = run_cli("--jobs", "1", "scholten", "search", "--csv", str(f))
    assert res.returncode == 0
    assert records_of(res.stdout) == []


@pytest.mark.parametrize("text, where", [
    ("a,b,c,d\n1,2,3,4\n1,x,3,4\n", "CSV line 3"),
    ("a,b,c\n1,2,3\n", "CSV missing columns: ['d']"),
], ids=["non-integer-cell", "missing-column"])
def test_search_bad_csv_is_a_usage_error(tmp_path, text, where):
    f = tmp_path / "grid.csv"
    f.write_text(text)
    res = run_cli("--jobs", "1", "scholten", "search", "--csv", str(f))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert f"usage error: {where}" in res.stderr


# entries up to 10^1433 - 1 are admitted: with a, b = E, -E the sextic's c6 =
# (a - b)ab = -2 E^3 has 4300 digits, the default int-to-str limit
_EDGE = 10**1433 - 1


def _params_argv(tmp_path, command, quad):
    params = "--params=" + ",".join(map(str, quad))
    if command == "search":
        grid = tmp_path / "grid.csv"
        grid.write_text("a,b,c,d\n" + ",".join(map(str, quad)) + "\n")
        return ["--jobs", "1", "scholten", "search", "--csv", str(grid)]
    return ["scholten", command, params] + (["--primes", "60"] if command == "verify" else [])


@pytest.mark.parametrize("command", ["build", "verify", "search"])
def test_the_largest_admitted_params_print_every_int(tmp_path, capsys, command):
    from isogeny_forge import cli

    quad = [_EDGE, -_EDGE, 5, -7]
    assert cli.main(_params_argv(tmp_path, command, quad)) == 0
    out, err = capsys.readouterr()
    [record] = records_of(out)
    assert err == "" and record["inputs"]["params"] == quad
    if command != "verify":
        assert max(len(str(abs(c))) for c in record["outputs"]["sextic"]) == 4300


@pytest.mark.parametrize("command", ["build", "family", "verify", "search"])
@pytest.mark.parametrize("quad", [
    [10**1433, -_EDGE, 5, -7],
    [-_EDGE, 5, -7, -10**1433],
    [10**1433 + 7, -(3 * 10**1433 + 1), 5, -7],  # exited 1 with no record: c6 has 4301 digits
], ids=["first-refused", "first-refused-negative", "c6-past-the-limit"])
def test_params_over_the_digit_bound_are_a_usage_error(tmp_path, capsys, command, quad):
    from isogeny_forge import cli

    assert cli.main(_params_argv(tmp_path, command, quad)) == 2
    out, err = capsys.readouterr()
    where = "CSV line 2" if command == "search" else "--params"
    assert (out, err) == ("", f"usage error: {where}: each of a,b,c,d has at most 1433 digits\n")


def test_search_box_with_predicate(tmp_path):
    res = run_cli(
        "--jobs", "1", "scholten", "search", "--box", "2",
        "--predicate", "max-one-supersingular:7",
        "--limit", "5",
    )
    assert res.returncode == 0
    recs = records_of(res.stdout)
    assert 0 < len(recs) <= 5
    for r in recs:
        assert r["kind"] == "scholten-search"


def test_check_main1_exit_codes():
    ok = run_cli("check", "main1", "--curves", "1,-1;1,3", "--p", "7")
    assert ok.returncode == 0
    bad = run_cli("check", "main1", "--curves", "1,-1;1,-1", "--p", "7")
    assert bad.returncode == 1


def test_check_main2():
    res = run_cli(
        "check", "main2", "--product", "1,-1@1", "--product", "1,3@2",
        "--p", "5", "--unramified", "--all-good",
    )
    assert res.returncode == 0
    (rec,) = records_of(res.stdout)
    assert "p-divisible" in rec["outputs"]["conclusion"]


def test_check_global2_pinned():
    res = run_cli("check", "global2", "--a", "1", "--b", "-1", "--deg-phi", "2", "--bound", "20")
    assert res.returncode == 0
    (rec,) = records_of(res.stdout)
    assert rec["outputs"]["primes"] == [5, 7, 11, 13, 17, 19]


def test_check_global2_rejects_degree_below_one():
    for deg in ("0", "-3"):
        res = run_cli("check", "global2", "--a", "1", "--b", "-1", "--deg-phi", deg, "--bound", "20")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--deg-phi: expected an integer >= 1" in res.stderr


def test_scan_supersingular_pinned():
    res = run_cli("scan", "supersingular", "--a", "1", "--b", "-1", "--bound", "50")
    assert res.returncode == 0
    (rec,) = records_of(res.stdout)
    assert rec["outputs"]["primes"] == [3, 7, 11, 19, 23, 31, 43, 47]


@pytest.mark.parametrize("a, b, bound", [("3", "-3", "3"), ("1", "-1", "2")])
def test_scan_that_tests_no_prime_states_no_density(a, b, bound):
    """No odd good prime up to the bound: the density 0/0 is null, not 0."""
    res = run_cli("scan", "supersingular", "--a", a, "--b", b, "--bound", bound)
    assert res.returncode == 0
    (rec,) = records_of(res.stdout)
    assert rec["outputs"]["tested_good_primes"] == 0
    assert rec["outputs"]["primes"] == [] and rec["outputs"]["density"] is None


def test_scan_of_a_hard_to_factor_discriminant_answers_at_once(capsys):
    # a - b = -10^28 + 2 = -2 * 4728835511159 * 1057342761912761 takes seconds
    # to factor; the scan only reads Delta mod p for the primes up to its bound
    from isogeny_forge import cli

    t0 = time.perf_counter()
    assert cli.main(["scan", "supersingular", "--a", str(-10**28), "--b", "-2", "--bound", "2"]) == 0
    assert time.perf_counter() - t0 < 2.5  # more than 5 s when the scan factored it
    [record] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record["outputs"]["tested_good_primes"] == 0


_HARD_CONDUCTOR = {
    "check-global2": ["check", "global2", "--a", "-2", "--b", str(-10**28),
                      "--deg-phi", "1", "--bound", "30"],
    "analyze-curve": ["analyze-curve", "--a", "-2", "--b", str(-10**28), "--primes", "3"],
}
# a - b = 10^28 - 2 leaves 4999999999999999999999999999 = 4728835511159 *
# 1057342761912761 after trial division, which took seconds to factor
_HARD_CONDUCTOR_ERROR = ("analysis error: the conductor must factor 9999999999999999999999999998,"
                         " whose cofactor after trial division has 93 bits, over 64\n")


@pytest.mark.parametrize("args", _HARD_CONDUCTOR.values(), ids=_HARD_CONDUCTOR.keys())
def test_conductor_guard_refuses_before_factoring(monkeypatch, capsys, args):
    from isogeny_forge import cli, reduction

    def forbidden(n):
        raise RuntimeError("a refused input began factoring")

    monkeypatch.setattr(reduction, "_factor_cofactor", lambda out, n: forbidden(n))
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _HARD_CONDUCTOR_ERROR


def test_conductor_guard_refuses_under_optimize():
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, "-O", *CLI[1:], *_HARD_CONDUCTOR["check-global2"]],
                         capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 2.5  # the same input ran past 5 s before the guard
    assert (res.returncode, res.stdout, res.stderr) == (1, "", _HARD_CONDUCTOR_ERROR)


def test_kgroup_prove_skew():
    res = run_cli("kgroup", "prove-skew", "--q", "5", "--r", "2", "--convention", "both")
    assert res.returncode == 0
    recs = records_of(res.stdout)
    assert len(recs) == 2
    for r in recs:
        assert r["outputs"]["all_proved"] is True
        assert r["outputs"]["negative_control"]["certified"] is True


def test_filtration():
    res = run_cli("filtration", "--group", "2", "--rmax", "3")
    assert res.returncode == 0
    (rec,) = records_of(res.stdout)
    got = [q["invariant_factors"] for q in rec["outputs"]["quotients"]]
    assert got == [[2], [2], [2]]


def test_determinism_across_runs():
    args = ["scholten", "verify", "--params", "1,2,3,4", "--primes", "50"]
    first = run_cli(*args)
    assert first.returncode == 0
    second = run_cli(*args)
    assert second.returncode == 0
    assert strip_timing(records_of(first.stdout)) == strip_timing(records_of(second.stdout))


def test_output_file_and_io_error(tmp_path):
    out = tmp_path / "out.jsonl"
    res = run_cli(
        "--output", str(out), "scholten", "verify", "--params", "1,2,3,4", "--primes", "50"
    )
    assert res.returncode == 0
    assert res.stdout == ""
    assert records_of(out.read_text())[0]["outputs"]["verdict"] == "pass"

    res = run_cli(
        "--output", str(tmp_path / "missing" / "out.jsonl"),
        "scholten", "verify", "--params", "1,2,3,4", "--primes", "50",
    )
    assert res.returncode == 3
    assert "i/o error" in res.stderr


def test_output_file_is_opened_only_for_records(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("kept\n")
    res = run_cli("--output", str(out), "scholten", "verify", "--params", "1,2,3", "--primes", "50")
    assert res.returncode == 2
    assert out.read_text() == "kept\n"

    # a command that returns leaves exactly its records, here none
    res = run_cli("--output", str(out), "--jobs", "1", "scholten", "search", "--box", "0")
    assert res.returncode == 0
    assert out.read_text() == ""


def test_check_global2_computes_the_conductor_once(monkeypatch, capsys):
    from isogeny_forge import cli, reduction
    from isogeny_forge.exactnum import factorize

    tate = reduction.tate_algorithm
    primes = []

    def counted(W, p):
        primes.append(p)
        return tate(W, p)

    monkeypatch.setattr(reduction, "tate_algorithm", counted)
    reduction.conductor.cache_clear()
    a, b = -520251, 239738
    argv = ["check", "global2", "--a", str(a), "--b", str(b), "--deg-phi", "2", "--bound", "50"]
    assert cli.main(argv) == 0
    (rec,) = records_of(capsys.readouterr().out)
    assert rec["outputs"]["conductor"] == reduction.conductor(curve_from_pair(a, b))
    assert sorted(primes) == sorted(factorize(16 * a * a * b * b * (a - b) ** 2))


def test_analyze_curve_starts_the_machine_once_per_bad_prime(monkeypatch, capsys):
    """The step machine starts once at each bad prime of E, for the
    conductor, and at no good prime: a report at a bad prime reads the
    conductor's Tate run, and one at a good prime stops before the machine."""
    from isogeny_forge import cli, reduction
    from isogeny_forge.exactnum import factorize, primes_up_to

    started = []

    class Counted(reduction._Machine):
        def __init__(self, a, p, k):
            started.append(p)
            super().__init__(a, p, k)

    monkeypatch.setattr(reduction, "_Machine", Counted)
    reduction._tate_cache.cache_clear()
    reduction.conductor.cache_clear()
    a, b = 543642, -26362
    assert cli.main(["analyze-curve", "--a", str(a), "--b", str(b), "--primes", "3..60"]) == 0
    _, *reports = records_of(capsys.readouterr().out)
    bad = sorted(factorize(16 * a * a * b * b * (a - b) ** 2))
    assert started == bad == [2, 3, 7, 11, 269, 8237, 142501]
    assert [r["inputs"]["p"] for r in reports] == primes_up_to(60)[1:]
    assert [r["inputs"]["p"] for r in reports if r["outputs"]["kodaira"] != "I0"] == [3, 7, 11]


def test_main_reuses_one_parser(monkeypatch, capsys):
    import argparse

    from isogeny_forge import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kw):
        built.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    two = ["check", "main2", "--product", "1,-1@1", "--product", "1,3@2", "--p", "5"]
    one = ["check", "main2", "--product", "1,3@2", "--p", "5"]
    assert cli.main(two) == 0
    assert cli.main(one) == 0
    assert built == []
    # the shared parser's append action must not carry products over between calls
    first, second = records_of(capsys.readouterr().out)
    assert len(first["inputs"]["products"]) == 2
    assert second["inputs"]["products"] == [{"factors": ["E(1,3)"], "degree": 2}]


def test_degenerate_params_exit_1():
    res = run_cli("scholten", "verify", "--params", "1,2,2,4", "--primes", "50")
    assert res.returncode == 1


def test_negative_bound_is_a_usage_error():
    for args in (
        ["check", "global2", "--a", "1", "--b", "-1", "--deg-phi", "2", "--bound", "-5"],
        ["scan", "supersingular", "--a", "1", "--b", "-1", "--bound", "-5"],
    ):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--bound" in res.stderr


def test_non_prime_in_primes_list_is_a_usage_error():
    for args in (
        ["analyze-curve", "--a", "1", "--b", "-1", "--primes", "4,6"],
        ["analyze-curve", "--a", "1", "--b", "-1", "--primes", "2,3,9"],
        ["scholten", "verify", "--params", "1,2,3,4", "--primes", "4,5,7"],
    ):
        res = run_cli(*args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "non-primes" in res.stderr


def test_malformed_primes_spec_is_a_usage_error():
    for spec in ("2,x", "2..y", "z"):
        res = run_cli("analyze-curve", "--a", "1", "--b", "-1", "--primes", spec)
        assert res.returncode == 2, spec
        assert res.stdout == ""
        assert "malformed --primes entry" in res.stderr


@pytest.mark.parametrize("args", [
    ["scholten", "build", "--params", "1,x,3,4"],
    ["scholten", "verify", "--params", "1,2,3,4", "--primes", "50", "--e1", "1,x"],
    ["check", "main1", "--curves", "1,x;1,3", "--p", "7"],
    ["check", "main2", "--product", "1,2|3,4@x", "--p", "7"],
    ["filtration", "--group", "2,x", "--rmax", "2"],
    ["scholten", "search", "--box", "1", "--predicate", "split-jacobian:y"],
    ["scholten", "search", "--box", "1", "--predicate", "max-one-supersingular:x"],
], ids=["params", "e1", "curves", "product", "group", "split-jacobian", "max-one-supersingular"])
def test_malformed_integer_list_is_a_usage_error(args):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert "usage error: malformed" in res.stderr


@pytest.mark.parametrize("rmax", ["0", "-1"])
def test_filtration_rmax_below_one_is_a_usage_error(rmax):
    res = run_cli("filtration", "--group", "2", "--rmax", rmax)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--rmax: expected an integer >= 1" in res.stderr


@pytest.mark.parametrize("args, message", [
    (["check", "main1", "--curves", "1,-1;1,3", "--p", "4"], "--p: expected a prime, got 4"),
    (["check", "main2", "--product", "1,-1@1", "--p", "9"], "--p: expected a prime, got 9"),
    (["kgroup", "prove-skew", "--q", "4"], "--q: expected a prime, got 4"),
    (["kgroup", "prove-skew", "--q", "5", "--r", "1"], "--r: expected an integer >= 2, got 1"),
    (["filtration", "--elliptic-p", "4"], "--elliptic-p: expected a prime, got 4"),
    (["filtration", "--group", "3,4"], "usage error: --group: invariant factors must divide"),
    (["filtration", "--group", "0"], "usage error: --group: invariant factors must be positive"),
    (["scholten", "search", "--box", "1", "--predicate", "max-one-supersingular:4"],
     "usage error: --predicate max-one-supersingular: expected an odd prime, got 4"),
    (["scholten", "search", "--box", "1", "--predicate", "max-one-supersingular:9"],
     "usage error: --predicate max-one-supersingular: expected an odd prime, got 9"),
    (["scholten", "search", "--box", "1", "--predicate", "max-one-supersingular:2"],
     "usage error: --predicate max-one-supersingular: expected an odd prime, got 2"),
    (["scholten", "search", "--box", "-1"], "--box: expected an integer >= 0, got -1"),
    (["scholten", "search", "--box", "1", "--limit", "-3"],
     "--limit: expected an integer >= 0, got -3"),
    (["check", "main1", "--curves=", "--p", "7"], "usage error: --curves names no curve"),
    (["check", "main1", "--curves", ";", "--p", "7"], "usage error: --curves names no curve"),
    (["check", "main2", "--product=@2", "--p", "7"],
     "usage error: --product names no curve: '@2'"),
    (["check", "main2", "--product", "1,-1@1", "--product", "|@2", "--p", "7"],
     "usage error: --product names no curve: '|@2'"),
    (["check", "main2", "--product", "1,-1@0", "--p", "5"],
     "usage error: --product degree: expected an integer >= 1, got 0"),
    (["check", "main2", "--product", "1,-1@1", "--product", "1,3@-3", "--p", "5"],
     "usage error: --product degree: expected an integer >= 1, got -3"),
    (["analyze-curve", "--a", "3", "--b", "-5", "--primes", "10..2"],
     "usage error: --primes range 10..2 is empty"),
    (["scholten", "verify", "--params=3,-7,11,5", "--primes", "50..10"],
     "usage error: --primes range 50..10 is empty"),
    (["analyze-curve", "--a", "3", "--b", "-5", "--primes", "24..28"],
     "usage error: --primes 24..28 names no prime"),
    (["analyze-curve", "--a", "3", "--b", "-5", "--primes", "1"],
     "usage error: --primes 1 names no prime"),
    (["scholten", "verify", "--params=3,-7,11,5", "--primes", "24..28"],
     "usage error: --primes 24..28 names no prime"),
], ids=["main1-p", "main2-p", "q", "r", "elliptic-p", "group-order", "group-zero",
        "supersingular-4", "supersingular-9", "supersingular-2", "box", "limit",
        "curves-empty", "curves-blank", "product-empty", "product-blank",
        "product-degree-0", "product-degree-negative",
        "primes-reversed", "verify-primes-reversed", "primes-no-prime", "primes-below-2",
        "verify-primes-no-prime"])
def test_caller_error_exits_2_before_any_record(args, message):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert message in res.stderr


@pytest.mark.parametrize("args, code, prefix", [
    (["filtration", "--group", "", "--rmax", "2"], 2, "usage error: --group:"),
    (["--jobs", "1", "scholten", "search", "--csv", ""], 3, "i/o error:"),
    (["scholten", "verify", "--params", "1,2,3,4", "--primes", "50", "--e1", ""], 2,
     "usage error: --e1 expects 2 integers"),
    (["scholten", "verify", "--params", "1,2,3,4", "--primes", "50", "--e2", ""], 2,
     "usage error: --e2 expects 2 integers"),
    (["--output", "", "kgroup", "prove-skew", "--q", "5"], 3, "i/o error:"),
    (["--jobs", "1", "scholten", "search", "--box", "1", "--predicate", "split-jacobian:-5"], 2,
     "usage error: --predicate split-jacobian: expected an integer >= 0, got -5"),
    (["--jobs", "1", "scholten", "search", "--box", "1", "--predicate", "split-jacobian:"], 2,
     "usage error: --predicate split-jacobian expects 1 integers"),
], ids=["group", "csv", "e1", "e2", "output", "split-jacobian-negative", "split-jacobian-empty"])
def test_empty_or_negative_option_value_is_refused(args, code, prefix):
    res = run_cli(*args)
    assert res.returncode == code, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith(prefix)


@pytest.mark.parametrize("args, message", [
    (["filtration", "--group", "2,2,2,2", "--rmax", "9"],
     "714 monomials of degree 1..9 in 4 variables exceed 500 columns"),
    (["filtration", "--group", ",".join([str(2**43)] * 3), "--rmax", "12"],
     "the modulus e^12 has 517 bits, over 512"),
    (["filtration", "--group", "2", "--rmax", "13"], "r_max = 13 exceeds 12"),
    (["filtration", "--elliptic-p", "150001", "--rmax", "1"], "p = 150001 exceeds 150000"),
], ids=["columns", "modulus", "rmax", "elliptic-p"])
def test_filtration_guards_refuse_before_any_work(monkeypatch, capsys, args, message):
    from isogeny_forge import cli, pontryagin

    def forbidden(*args):
        raise RuntimeError("a refused input began work")

    monkeypatch.setattr(cli, "rational_points_mod_p", forbidden)
    monkeypatch.setattr(pontryagin, "_insert_mod", forbidden)
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"analysis error: {message}\n"


def test_skew_guard_refuses_before_enumerating_points(monkeypatch, capsys):
    from isogeny_forge import cli

    def forbidden(*args):
        raise RuntimeError("a refused input began work")

    # #E(F_59) >= 60 - 15 = 45 for every curve
    monkeypatch.setattr(cli, "rational_points_mod_p", forbidden)
    assert cli.main(["kgroup", "prove-skew", "--q", "59"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "analysis error: #E(F_59) >= 45 exceeds 40 points (Hasse bound)\n"


def test_skew_r_guard_edge_finishes_within_a_job(capsys):
    # #E = 40, the dearest curve the skew guard admits, with the r that was
    # once the largest admitted: r is a label and adds no work
    from isogeny_forge import cli

    r = 10**6
    t0 = time.perf_counter()
    assert cli.main(["kgroup", "prove-skew", "--q", "29", "--a", "-8", "--b", "-4",
                 "--convention", "both", "--r", str(r)]) == 0
    assert time.perf_counter() - t0 < 5
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rec["inputs"]["r"] for rec in records] == [r] * 2
    assert all(rec["outputs"]["all_proved"] for rec in records)


def test_skew_r_is_a_label_at_any_size(capsys):
    # no relation reads the fixed run of r - 2 points, so r = 10^12 costs
    # what r = 2 costs, and only inputs.r tells the records apart
    from isogeny_forge import cli

    def run(r):
        t0 = time.perf_counter()
        assert cli.main(["kgroup", "prove-skew", "--q", "7", "--r", str(r)]) == 0
        seconds = time.perf_counter() - t0
        [record] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        record.pop("timing_ms")
        return record, seconds

    big, seconds = run(10**12)
    assert seconds < 1
    assert big["inputs"]["r"] == 10**12
    small, _ = run(2)
    big["inputs"]["r"] = 2
    assert big == small


def test_convention_choices_are_the_kgroup_conventions():
    from isogeny_forge import cli

    parser = cli._PARSER
    for name in ("kgroup", "prove-skew"):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    (conv,) = [a for a in parser._actions if a.dest == "convention"]
    assert set(conv.choices) == {kgroup.MINUS, kgroup.PLUS, "both"}
    assert conv.default == kgroup.MINUS


# what `import isogeny_forge.cli` loads: the modules the parser needs, and
# every module with a functools cache (tests/test_tracer_contract.py)
EAGER = {"cli", "elliptic", "errors", "exactnum", "reduction"}


@pytest.mark.parametrize("args, command_modules", [
    ([], set()),
    (["check", "main1", "--curves", "1,-1", "--p", "7"], {"checkers"}),
    (["analyze-curve", "--a", "1", "--b", "-1", "--primes", "5"], set()),
    (["filtration", "--elliptic-p", "5", "--rmax", "2"], {"pontryagin"}),
    (["kgroup", "prove-skew", "--q", "5"], {"kgroup"}),
    (["scholten", "verify", "--params", "1,2,3,4", "--primes", "20"],
     {"checkers", "genus2", "scholten"}),
], ids=["import", "check-main1", "analyze-curve", "filtration", "prove-skew", "scholten-verify"])
def test_a_fresh_process_loads_only_the_command_it_runs(args, command_modules):
    """Nor does it load dataclasses or inspect (about 7 ms of start-up),
    beyond what the interpreter held before the package was imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_forge.__file__)))
    script = (
        "import contextlib, io, json, sys\n"
        "slow = {'dataclasses', 'inspect'}\n"
        "bare = slow & set(sys.modules)\n"
        "from isogeny_forge.cli import main\n"
        "code = 0\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(sys.argv[1:])\n"
        "print(json.dumps([code, [m for m in sys.modules if m.startswith('isogeny_forge.')],\n"
        "                  sorted(slow & set(sys.modules) - bare)]))\n"
    )
    res = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                         text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert res.returncode == 0, res.stderr
    code, modules, loaded = json.loads(res.stdout)
    assert code == 0, res.stderr
    assert {name.removeprefix("isogeny_forge.") for name in modules} == EAGER | command_modules
    assert loaded == []
