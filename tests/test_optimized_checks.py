"""Certificate and contract checks are explicit raises, so they hold under
`python -O`, which strips `assert` statements.  Each case runs in a fresh
interpreter, with and without -O."""

import os
import subprocess
import sys

import pytest

import isogeny_forge

SRC = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_forge.__file__)))


def run_python(flags: list[str], code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ISOGENY_FORGE_CACHE", None)
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


# each snippet corrupts one certificate source and runs the path that checks it
CORRUPTED = {
    "prove-skew": (
        """
import sys
from isogeny_forge import exactnum
from isogeny_forge.cli import main
reduce = exactnum.ColumnLattice.reduce
def doubled(self, target):
    rem, coeffs = reduce(self, target)
    return rem, {k: 2 * c for k, c in coeffs.items()}
exactnum.ColumnLattice.reduce = doubled
sys.exit(main(["kgroup", "prove-skew", "--q", "5"]))
""",
        "certificate error: certificate failed re-verification",
    ),
    "filtration": (
        """
import sys
from isogeny_forge import exactnum
from isogeny_forge.cli import main
exactnum.ColumnLattice.basis_coordinates = lambda self, target: None
sys.exit(main(["filtration", "--group", "2,4", "--rmax", "2"]))
""",
        "certificate error: I^(r+1) escaped I^r",
    ),
    "solve": (
        """
import sys
from isogeny_forge import exactnum
from isogeny_forge.errors import CertificateError
reduce = exactnum.ColumnLattice.reduce
def shifted(self, target):
    rem, coeffs = reduce(self, target)
    return rem, {0: coeffs.get(0, 0) + 1}
exactnum.ColumnLattice.reduce = shifted
try:
    exactnum.solve_integer_linear(exactnum.IntMatrix.from_rows([[1, 0], [0, 1]]), [2, 3])
except CertificateError as e:
    sys.exit(f"certificate error: {e}")
""",
        "certificate error: solver produced a non-solution",
    ),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimized"])
@pytest.mark.parametrize("case", sorted(CORRUPTED))
def test_corrupted_certificate_is_caught(case, flags):
    code, message = CORRUPTED[case]
    res = run_python(flags, code)
    assert res.returncode == 1, res.stderr
    assert res.stdout == ""
    assert message in res.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimized"])
def test_non_integral_model_is_refused(flags):
    res = run_python(flags, """
from fractions import Fraction
from isogeny_forge.elliptic import WeierstrassModel
from isogeny_forge.reduction import classify_reduction
try:
    classify_reduction(WeierstrassModel.from_coeffs(0, 0, 0, Fraction(1, 3), 1), 2)
except ValueError as e:
    print(e)
""")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "model must be integral\n"
