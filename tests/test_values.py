"""Curves and reports are immutable values: equal and hashed by their fields
and type alone, picklable for the worker processes of a pooled search, and
refusing assignment.  Construction refuses a degenerate curve at its first
failed condition."""

import pickle

import pytest

from isogeny_forge.checkers import supersingular_scan
from isogeny_forge.elliptic import curve_from_pair
from isogeny_forge.errors import DegenerateCurveError
from isogeny_forge.genus2 import HyperellipticCurve
from isogeny_forge.scholten import build_scholten

from models import from_coeffs

# name -> (a builder of one value, its field names)
VALUES = {
    "two-torsion": (lambda: curve_from_pair(3, -5), ("a", "b")),
    "weierstrass": (lambda: from_coeffs(0, -1, 1, -10, -20),
                    ("a1", "a2", "a3", "a4", "a6")),
    "hyperelliptic": (lambda: build_scholten(1, -1, 2, 3).curve, ("lam", "coeffs", "even_factors")),
    "scholten": (lambda: build_scholten(1, -1, 2, 3),
                 ("params", "status", "lam", "curve", "e1", "e2")),
    "scan-report": (lambda: supersingular_scan(curve_from_pair(1, -1), 50),
                    ("curve", "bound", "primes", "tested")),
}
CURVES = [name for name in VALUES if name != "scan-report"]


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_equal_and_survive_pickling(name):
    build, _ = VALUES[name]
    x, y = build(), build()
    assert x is not y and x == y and not x != y and hash(x) == hash(y)
    z = pickle.loads(pickle.dumps(x))
    assert z == x and hash(z) == hash(x)


@pytest.mark.parametrize("name", VALUES)
def test_assigning_a_field_raises(name):
    build, fields = VALUES[name]
    x = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))


@pytest.mark.parametrize("name", CURVES)
def test_a_curve_never_equals_the_tuple_of_its_fields(name):
    build, fields = VALUES[name]
    x = build()
    plain = tuple(getattr(x, field) for field in fields)
    assert x != plain and plain != x
    assert not x == plain and not plain == x


def test_even_factors_are_left_out_of_comparison_and_hash():
    C = build_scholten(1, -1, 2, 3).curve
    plain = HyperellipticCurve(C.lam, C.coeffs)
    assert C.even_factors is not None and plain.even_factors is None
    assert plain == C and hash(plain) == hash(C)


def test_a_sextic_given_as_a_list_is_kept_as_a_tuple():
    """The coefficients are stored as _as_sextic returns them, so a curve
    built from a list hashes and equals the one built from the tuple."""
    coeffs = (-6, 0, 11, 0, -6, 0, 1)
    listed, plain = HyperellipticCurve(1, list(coeffs)), HyperellipticCurve(1, coeffs)
    assert listed.coeffs == coeffs and type(listed.coeffs) is tuple
    assert listed == plain and hash(listed) == hash(plain)
    assert len({listed, plain}) == 1


def test_curves_of_different_types_are_unequal():
    E = curve_from_pair(3, -5)
    assert E != E.model and E.model != E


def test_a_singular_weierstrass_model_is_refused():
    with pytest.raises(DegenerateCurveError, match="singular Weierstrass model"):
        from_coeffs(0, 0, 0, 0, 0)


@pytest.mark.parametrize("args, message", [
    ((0, (1,)), "lam must be nonzero"),
    ((1, (1, 0, 0, 0, 0, 0)), "need 7 coefficients"),
    ((1, (1, 0, 0, 0, 0, 0, 0)), "degree must be exactly 6"),
])
def test_a_bad_hyperelliptic_curve_names_its_first_failed_condition(args, message):
    with pytest.raises(ValueError, match=message):
        HyperellipticCurve(*args)


@pytest.mark.parametrize("params, status", [
    ((1, 1, 2, 2), "Degenerate(lam = 0)"),
    ((0, 1, 2, 3), "Degenerate(first pair: ab(a-b) = 0)"),
    ((1, 2, 0, 3), "Degenerate(second pair: cd(c-d) = 0)"),
])
def test_a_degenerate_scholten_curve_reports_its_first_failed_condition(params, status):
    C = build_scholten(*params)
    assert C.status == status and not C.is_smooth
    assert C == build_scholten(*params) and C.curve is C.e1 is C.e2 is None
