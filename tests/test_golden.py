"""Golden CLI corpus: every command in tests/golden/cli.jsonl must give the
same exit code and the same records, byte for byte, with `timing_ms` removed,
and the `--help` text of every command must equal tests/golden/help.txt.

Regenerate both by hand with `python tests/golden/regenerate.py` when a
change to the output is intended.
"""

import contextlib
import io
import json
import os

from isogeny_forge.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CORPUS = os.path.join(GOLDEN, "cli.jsonl")
HELP = os.path.join(GOLDEN, "help.txt")

# the top level, the command groups and the leaf commands
HELP_COMMANDS = [
    [],
    ["analyze-curve"],
    ["scholten"],
    ["scholten", "build"],
    ["scholten", "family"],
    ["scholten", "verify"],
    ["scholten", "search"],
    ["check"],
    ["check", "main1"],
    ["check", "main2"],
    ["check", "global2"],
    ["scan"],
    ["scan", "supersingular"],
    ["kgroup"],
    ["kgroup", "prove-skew"],
    ["filtration"],
]


def golden_line(argv: list[str]) -> str:
    """One corpus line: argv, exit code and records without `timing_ms`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    records = []
    for line in out.getvalue().splitlines():
        rec = json.loads(line)
        rec.pop("timing_ms")
        records.append(rec)
    return json.dumps({"argv": argv, "exit": code, "records": records},
                      separators=(",", ":"))


def help_snapshot() -> str:
    """The `--help` output of every command in HELP_COMMANDS, each after a
    `$ isogeny-forge ... --help` line; the caller sets COLUMNS=80."""
    parts = []
    for argv in HELP_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                main(argv + ["--help"])
            except SystemExit:
                pass
        parts.append(f"$ isogeny-forge {' '.join(argv + ['--help'])}\n{out.getvalue()}")
    return "\n".join(parts)


def test_golden_cli_corpus():
    with open(CORPUS) as fh:
        lines = fh.read().splitlines()
    assert lines
    for want in lines:
        argv = json.loads(want)["argv"]
        assert golden_line(argv) == want, " ".join(argv)


def test_help_text_snapshot(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with open(HELP) as fh:
        want = fh.read()
    assert help_snapshot() == want
