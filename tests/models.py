"""Weierstrass models the tests write by hand: the five coefficients as
Fractions, refused when the discriminant vanishes.  The program builds its
models from curves and changes of model, never from raw coefficients."""

from fractions import Fraction

from isogeny_forge.elliptic import WeierstrassModel
from isogeny_forge.errors import DegenerateCurveError


def from_coeffs(a1, a2, a3, a4, a6) -> WeierstrassModel:
    W = WeierstrassModel(
        Fraction(a1), Fraction(a2), Fraction(a3), Fraction(a4), Fraction(a6)
    )
    if W.disc == 0:
        raise DegenerateCurveError("singular Weierstrass model (disc = 0)")
    return W
