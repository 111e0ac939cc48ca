"""Certificate and contract checks are explicit raises, so they hold under
`python -O`, which strips `assert` statements.  Each case runs in a fresh
interpreter, with and without -O.  A scan of the source keeps `assert` and
`raise AssertionError` out of the program."""

import ast
import os
import subprocess
import sys

import pytest

import isogeny_forge

SRC = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_forge.__file__)))


def run_python(flags: list[str], code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
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
    "prove-skew-column": (
        """
import sys
from isogeny_forge import kgroup
from isogeny_forge.cli import main
# each column index reads its neighbour, whose image is not the one inserted
getitem = kgroup.ColumnView.__getitem__
kgroup.ColumnView.__getitem__ = lambda self, ci: getitem(self, ci - 1)
sys.exit(main(["kgroup", "prove-skew", "--q", "5"]))
""",
        "certificate error: certificate failed re-verification",
    ),
    "prove-skew-image": (
        """
import sys
from isogeny_forge import kgroup
from isogeny_forge.cli import main
# one coordinate negated in the image of each column of 3 or more entries
# (targets have at most 2); the reciprocity columns reach the lattice through
# the same corrupted image, the bilinear ones do not, and a certificate here
# names a 3-entry bilinear column of nonzero image
image = kgroup.SkewBilinear.image
def negated(self, entries):
    entries = list(entries)
    out = image(self, entries)
    if len(entries) >= 3 and out:
        k = min(out)
        out[k] = -out[k]
    return out
kgroup.SkewBilinear.image = negated
sys.exit(main(["kgroup", "prove-skew", "--q", "13", "--a", "-7", "--b", "-3"]))
""",
        "certificate error: certificate failed re-verification",
    ),
    "prove-skew-dlog": (
        """
import sys
from isogeny_forge import kgroup
from isogeny_forge.cli import main
# swapping the logs of 0 and one other point gives a bijection that is no homomorphism
discrete_log = kgroup.discrete_log
def swapped(G):
    moduli, coords = discrete_log(G)
    coords[0], coords[1] = coords[1], coords[0]
    return moduli, coords
kgroup.discrete_log = swapped
sys.exit(main(["kgroup", "prove-skew", "--q", "5"]))
""",
        "certificate error: discrete-log table is not a homomorphism",
    ),
    "prove-skew-sum-table": (
        """
import sys
from isogeny_forge import kgroup
from isogeny_forge.cli import main
# two sums of the upper triangle swapped: the carries refuse the table before
# any column is built from it
sum_table = kgroup._sum_table
def swapped(G):
    sums = sum_table(G)
    sums[1][2], sums[1][3] = sums[1][3], sums[1][2]
    return sums
def built(*args):
    sys.exit(3)  # a column was built from an uncertified table
kgroup._sum_table = swapped
kgroup._bilinear_blocks = kgroup.assemble_skew_lattice = built
sys.exit(main(["kgroup", "prove-skew", "--q", "5"]))
""",
        "certificate error: discrete-log table is not a homomorphism",
    ),
    "filtration": (
        """
import sys
from isogeny_forge import pontryagin
from isogeny_forge.cli import main
# 2 f_i in place of each f_i = (1 + y_i)^n_i - 1: I/I^2 of Z/2 x Z/4 would read Z/4 x Z/8
insert_mod = pontryagin._insert_mod
pontryagin._insert_mod = lambda rows, v, m: insert_mod(rows, {j: 2 * c for j, c in v.items()}, m)
sys.exit(main(["filtration", "--group", "2,4", "--rmax", "2"]))
""",
        "certificate error: quotient not killed by the group exponent",
    ),
    "filtration-exponent": (
        """
import sys
from isogeny_forge import pontryagin
from isogeny_forge.cli import main
# modulo 2 the quotient Z/2 x Z/4 of Z[Z/2 x Z/4] reads Z/2 x Z/2
factors = pontryagin.smith_normal_form_transforms
pontryagin.smith_normal_form_transforms = lambda M, e: factors(M, e // 2)
sys.exit(main(["filtration", "--group", "2,4", "--rmax", "2"]))
""",
        "certificate error: quotient not killed by the group exponent",
    ),
    "filtration-quotient": (
        """
import sys
from isogeny_forge import exactnum
from isogeny_forge.cli import main
# one more factor 2 in a quotient of Z[Z/2 x Z/4]; the filtration command
# imports pontryagin, which binds the patched routine, only when it runs
factors = exactnum.smith_normal_form_transforms
def raised(M, e):
    out = factors(M, e)
    return [2 * out[0]] + out[1:] if out else out
exactnum.smith_normal_form_transforms = raised
sys.exit(main(["filtration", "--group", "2,4", "--rmax", "2"]))
""",
        "certificate error: quotient not killed by the group exponent",
    ),
    "filtration-lying-exponent": (
        """
import sys
from isogeny_forge.cli import main
from isogeny_forge.pontryagin import FinAbGroup
# Z/2 x Z/4 claiming exponent 2: modulo 2^rmax its I/I^2 would read Z/2 x Z/2
build = FinAbGroup.from_invariant_factors
def lying(ns):
    group = build(ns)
    group.invariant_factors = [2, 2]
    return group
FinAbGroup.from_invariant_factors = staticmethod(lying)
sys.exit(main(["filtration", "--group", "2,4", "--rmax", "1"]))
""",
        "certificate error:",
    ),
    "hasse": (
        """
import sys
from isogeny_forge import elliptic
from isogeny_forge.cli import main
elliptic._split_char_sum = lambda roots, p: p
sys.exit(main(["scan", "supersingular", "--a", "1", "--b", "-1", "--bound", "50"]))
""",
        "certificate error: Hasse bound violated",
    ),
    "hasse-general": (
        """
from isogeny_forge import elliptic
from isogeny_forge.elliptic import WeierstrassModel, ap_trace
# 11a1 has no rational 2-torsion, so its a_101 is counted by enumerating
# E(F_101); listing each point three times puts the count outside the bound
enumerate_points = elliptic.EllipticGroup._enumerate
elliptic.EllipticGroup._enumerate = lambda self: enumerate_points(self) * 3
ap_trace(WeierstrassModel(0, -1, 1, -10, -20), 101)
""",
        "CertificateError: Hasse bound violated",
    ),
    "hasse-potential": (
        """
import sys
from isogeny_forge import elliptic
from isogeny_forge.cli import main
# E(1, -1) at 7 is classified by the a_7 of the split kernel
elliptic._split_char_sum = lambda roots, p: p
sys.exit(main(["check", "main1", "--curves", "1,-1", "--p", "7"]))
""",
        "certificate error: Hasse bound violated",
    ),
    "scan-rescale": (
        """
import sys
from isogeny_forge import reduction
from isogeny_forge.cli import main
# E(5, 10) is the twist by 5 of E(1, 2), good at 5, so it is additive at 5
# (v_5 = 1 is odd); a Tate run that reports f = 0 there is refused
tate = reduction._tate_cache
def good_at_5(W, p):
    out = tate(W, p)
    return out._replace(conductor_exponent=0) if p == 5 else out
reduction._tate_cache = good_at_5
sys.exit(main(["scan", "supersingular", "--a", "5", "--b", "10", "--bound", "50"]))
""",
        "certificate error: Tate reports good reduction of E(5,10) at 5",
    ),
    "structure": (
        """
import sys
from isogeny_forge import elliptic
from isogeny_forge.cli import main
# E(F_5) of y^2 = x^3 - x is Z/2 x Z/4, so 8 is not its exponent
basis = elliptic.EllipticGroup._basis
def cyclic(self):
    gens, Q, m, e = basis(self)
    return gens[:1], None, 1, m * e
elliptic.EllipticGroup._basis = cyclic
sys.exit(main(["filtration", "--elliptic-p", "5", "--rmax", "2"]))
""",
        "certificate error: claimed exponent 8 is not the order of the generator",
    ),
    "orbit": (
        """
import sys
from fractions import Fraction
from isogeny_forge import elliptic
from isogeny_forge.cli import main
# a j-invariant that depends on a itself differs across the re-based pairs
elliptic.TwoTorsionCurve.j = property(lambda self: Fraction(self.a))
sys.exit(main(["scholten", "build", "--params", "1,2,3,4"]))
""",
        "certificate error: orbit member",
    ),
    "order": (
        """
import sys
from isogeny_forge import elliptic
from isogeny_forge.cli import main
# dropping a point of E(F_5) (order 8) leaves a count of 7, which kills no point of order 2 or 4
enumerate_points = elliptic.EllipticGroup._enumerate
elliptic.EllipticGroup._enumerate = lambda self: enumerate_points(self)[:-1]
sys.exit(main(["filtration", "--elliptic-p", "5", "--rmax", "2"]))
""",
        "certificate error: claimed order 7 does not kill the point",
    ),
    "rank": (
        """
import sys
from isogeny_forge import elliptic
from isogeny_forge.cli import main
# exponent 2 on a group of order 8 would need three cyclic factors
basis = elliptic.EllipticGroup._basis
def exponent_2(self):
    gens, Q, m, e = basis(self)
    return gens, Q, 4, 2
elliptic.EllipticGroup._basis = exponent_2
sys.exit(main(["filtration", "--elliptic-p", "5", "--rmax", "2"]))
""",
        "certificate error: order 8 and exponent 2 fit no group of rank <= 2",
    ),
    "generators": (
        """
import sys
from isogeny_forge import elliptic
from isogeny_forge.cli import main
# a second generator inside <P> spans no complement: 2P has order 2 in Z/2 x Z/4
basis = elliptic.EllipticGroup._basis
def inside(self):
    gens, Q, m, e = basis(self)
    return gens, self.add(gens[0], gens[0]), m, e
elliptic.EllipticGroup._basis = inside
sys.exit(main(["filtration", "--elliptic-p", "5", "--rmax", "2"]))
""",
        "certificate error: the table is not a bijection at (u, v) = (1, 0): the generators do not span",
    ),
    "tate": (
        """
import sys
from isogeny_forge import reduction
from isogeny_forge.cli import main
# y^2 = x(x - 5)(x - 1) has its node at (0, 0) mod 5, not at (1, 0)
reduction._singular_point = lambda *a: (1, 0)
sys.exit(main(["analyze-curve", "--a", "5", "--b", "1", "--primes", "5"]))
""",
        "certificate error: singular point not moved to (0, 0)",
    ),
    "tate-transform": (
        """
import sys
from isogeny_forge import reduction
from isogeny_forge.cli import main
from isogeny_forge.elliptic import _translated
# y^2 = x(x - 1)(x + 3) is moved by a t-translation at 2; an apply that
# composes r and s but drops t reports a change of model that misses the model
def apply(self, r, s, t):
    self.a = _translated(self.a, r, s, t)
    self.r += self.u * self.u * r
    self.s += self.u * s
reduction._Machine.apply = apply
sys.exit(main(["analyze-curve", "--a", "1", "--b", "-3", "--primes", "2"]))
""",
        "certificate error: change of model does not carry the start model to the final one",
    ),
    "bad-primes": (
        """
import sys
from isogeny_forge import exactnum
# without its largest prime the factorization of a = 5 is empty, so the bad
# primes of y^2 = x(x - 5)(x - 1) miss the prime 5 of its discriminant;
# patched before reduction binds it
factor = exactnum._factor_cofactor
exactnum._factor_cofactor = lambda out, n: dict(list(factor(out, n).items())[:-1])
from isogeny_forge.cli import main
sys.exit(main(["analyze-curve", "--a", "5", "--b", "1", "--primes", "5"]))
""",
        "certificate error: the discriminant has a prime outside the bad primes",
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
    classify_reduction(WeierstrassModel(*map(Fraction, (0, 0, 0, Fraction(1, 3), 1))), 2)
except ValueError as e:
    print(e)
""")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "model must be integral\n"


ASSERT_ALLOWLIST = {}  # file -> (asserts, raises)


def _assertion_counts(tree: ast.AST) -> tuple[int, int]:
    asserts = raises = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            asserts += 1
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raises += isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return asserts, raises


def test_no_assertions_in_the_program():
    package = os.path.dirname(os.path.abspath(isogeny_forge.__file__))
    found = {}
    for root, _, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    counts = _assertion_counts(ast.parse(fh.read(), path))
                if counts != (0, 0):
                    found[os.path.relpath(path, package)] = counts
    assert found == ASSERT_ALLOWLIST

