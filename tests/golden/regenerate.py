#!/usr/bin/env python3
"""Rewrite tests/golden/cli.jsonl from the command list below, and
tests/golden/help.txt from the `--help` text of every command.

Run by hand from the repository root, only when a change to the CLI's
output is intended:

    python tests/golden/regenerate.py

Each line of the corpus holds one command's argv, its exit code and its
records with `timing_ms` removed.  The help text is rendered with
COLUMNS=80.  tests/test_golden.py replays both and demands the same bytes.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, os.path.join(HERE, ".."))

from test_golden import CORPUS, HELP, golden_line, help_snapshot  # noqa: E402

COMMANDS = [
    ["analyze-curve", "--a", "1", "--b", "-1", "--primes", "2..30"],
    ["analyze-curve", "--a", "3", "--b", "-5", "--primes", "2,3,5,7,13"],
    ["analyze-curve", "--a", "1", "--b", "11", "--primes", "2,3,5,7,11,13"],
    ["analyze-curve", "--a", "-8", "--b", "12", "--primes", "2,3,5"],
    ["analyze-curve", "--a", "1", "--b", "1", "--primes", "10"],
    # certify band: 119869 divides ab(a-b)
    ["analyze-curve", "--a", "-520251", "--b", "239738", "--primes", "2,3,5,119869"],
    # additive reduction at 2, at 3 and at 5, some reached after a restart
    ["analyze-curve", "--a", "-40", "--b", "-37", "--primes", "2..13"],
    ["analyze-curve", "--a", "-39", "--b", "128", "--primes", "2,3,13"],
    ["analyze-curve", "--a", "-39", "--b", "-36", "--primes", "2,3,5,13"],
    ["analyze-curve", "--a", "-27", "--b", "-81", "--primes", "2,3"],
    ["analyze-curve", "--a", "-40", "--b", "-25", "--primes", "2,3,5,13"],
    ["analyze-curve", "--a", "125", "--b", "625", "--primes", "2,3,5"],
    ["scholten", "build", "--params", "1,2,3,4"],
    ["scholten", "build", "--params", "2,-3,7,4"],
    ["scholten", "build", "--params", "1,2,2,4"],
    ["scholten", "family", "--params", "1,2,3,4"],
    ["scholten", "family", "--params", "2,-3,7,4"],
    ["scholten", "verify", "--params", "1,2,3,4", "--primes", "50"],
    ["scholten", "verify", "--params", "1,2,3,4", "--primes", "50", "--e1", "1,3"],
    ["scholten", "verify", "--params", "2,-3,7,4", "--primes", "5..120"],
    ["scholten", "verify", "--params", "1,2,2,4", "--primes", "50"],
    # benchmark-sized character sums: every prime up to 1500
    ["scholten", "verify", "--params", "3,-7,11,5", "--primes", "1500"],
    ["--jobs", "1", "scholten", "search", "--box", "1"],
    ["--jobs", "1", "scholten", "search", "--box", "1", "--no-dedupe", "--limit", "6"],
    ["--jobs", "1", "scholten", "search", "--box", "1",
     "--predicate", "max-one-supersingular:7", "--predicate", "split-jacobian:50"],
    ["--jobs", "1", "scholten", "search", "--box", "2", "--limit", "4",
     "--predicate", "max-one-supersingular:7"],
    ["--jobs", "1", "scholten", "search", "--box", "2", "--limit", "3",
     "--predicate", "split-jacobian:40"],
    ["--jobs", "1", "scholten", "search", "--box", "3"],
    # the pooled path must give the serial path's records, in the same order
    ["--jobs", "2", "scholten", "search", "--box", "2"],
    ["--jobs", "2", "scholten", "search", "--box", "2", "--limit", "3",
     "--predicate", "split-jacobian:40"],
    ["--jobs", "2", "scholten", "search", "--box", "2",
     "--predicate", "max-one-supersingular:7"],
    ["check", "main1", "--curves", "1,-1;1,3", "--p", "7"],
    ["check", "main1", "--curves", "1,-1;1,-1", "--p", "7"],
    ["check", "main1", "--curves", "1,-1;1,3", "--p", "2"],
    # potential types at a benchmark-sized prime: two supersingular factors, then one
    ["check", "main1", "--curves=1,-1;2,-2", "--p", "10007"],
    ["check", "main1", "--curves=1,-1;1,3", "--p", "10007"],
    ["check", "main2", "--product", "1,-1@1", "--product", "1,3@2",
     "--p", "5", "--unramified", "--all-good"],
    ["check", "main2", "--product", "1,-1|1,3@5", "--p", "5"],
    ["check", "main2", "--product", "1,-1@1", "--product", "1,-1@1", "--p", "7"],
    ["check", "global2", "--a", "1", "--b", "-1", "--deg-phi", "2", "--bound", "20"],
    ["check", "global2", "--a", "3", "--b", "-5", "--deg-phi", "1", "--bound", "100"],
    ["check", "global2", "--a", "1", "--b", "11", "--deg-phi", "35", "--bound", "60"],
    ["check", "global2", "--a", "-520251", "--b", "239738", "--deg-phi", "2", "--bound", "200"],
    ["scan", "supersingular", "--a", "1", "--b", "-1", "--bound", "50"],
    ["scan", "supersingular", "--a", "2", "--b", "7", "--bound", "300"],
    ["scan", "supersingular", "--a", "2", "--b", "7", "--bound", "1000"],
    ["scan", "supersingular", "--a", "3", "--b", "-5", "--bound", "100"],
    # the model is not minimal at 5: one prime counts on a Tate-minimal model
    ["scan", "supersingular", "--a", "50", "--b", "75", "--bound", "200"],
    ["scan", "supersingular", "--a", "-520251", "--b", "239738", "--bound", "200"],
    ["kgroup", "prove-skew", "--q", "5", "--convention", "both"],
    ["kgroup", "prove-skew", "--q", "7", "--convention", "plus", "--per-target"],
    # #E = 12: the lattice takes extended-gcd steps and restores its Hermite form
    ["kgroup", "prove-skew", "--q", "7", "--a", "4", "--b", "6", "--convention", "plus",
     "--per-target"],
    ["kgroup", "prove-skew", "--q", "5", "--r", "3"],
    ["kgroup", "prove-skew", "--q", "4"],
    ["filtration", "--group", "2,4", "--rmax", "3"],
    ["filtration", "--group", "3", "--rmax", "2"],
    ["filtration", "--group", "2,2,2", "--rmax", "2"],
    ["filtration", "--group", "4,8", "--rmax", "2"],
    # |G| = 64: the unit pivots mod exp(G) leave a residual of a few columns
    ["filtration", "--group", "2,2,16", "--rmax", "2"],
    ["filtration", "--elliptic-p", "5", "--rmax", "3"],
    ["filtration", "--elliptic-p", "7", "--a", "3", "--b", "-5", "--rmax", "2"],
    # E(F_101) = Z/2 x Z/52: the ideal powers modulo 52^2 stay bounded
    ["filtration", "--elliptic-p", "101", "--rmax", "2"],
    # |G| = 8192 and E(F_4001) = Z/8 x Z/488: the model's width does not follow |G|
    ["filtration", "--group", "8192", "--rmax", "1"],
    ["filtration", "--elliptic-p", "4001", "--rmax", "2"],
    ["analyze-curve", "--a", "1"],
    ["filtration", "--group", "2", "--elliptic-p", "5"],
]


def main() -> int:
    with open(CORPUS, "w") as fh:
        for argv in COMMANDS:
            fh.write(golden_line(argv) + "\n")
    print(f"wrote {len(COMMANDS)} commands to {CORPUS}")
    os.environ["COLUMNS"] = "80"
    with open(HELP, "w") as fh:
        fh.write(help_snapshot())
    print(f"wrote the help text to {HELP}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
