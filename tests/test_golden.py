"""Golden CLI corpus: every command in tests/golden/cli.jsonl must give the
same exit code and the same records, byte for byte, with `timing_ms` removed.

Regenerate the corpus by hand with `python tests/golden/regenerate.py` when a
change to the output is intended.
"""

import contextlib
import io
import json
import os

from isogeny_forge.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.jsonl")


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


def test_golden_cli_corpus():
    with open(CORPUS) as fh:
        lines = fh.read().splitlines()
    assert lines
    for want in lines:
        argv = json.loads(want)["argv"]
        assert golden_line(argv) == want, " ".join(argv)
