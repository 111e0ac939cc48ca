import argparse
import json
import os
import subprocess
import sys

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
    src = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_forge.__file__)))
    script = (
        "import contextlib, io, json, sys\n"
        "from isogeny_forge.cli import main\n"
        "code = 0\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(sys.argv[1:])\n"
        "print(json.dumps([code, [m for m in sys.modules if m.startswith('isogeny_forge.')]]))\n"
    )
    res = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                         text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert res.returncode == 0, res.stderr
    code, modules = json.loads(res.stdout)
    assert code == 0, res.stderr
    assert {name.removeprefix("isogeny_forge.") for name in modules} == EAGER | command_modules
