"""Oracles of the character sums: the general kernel that isogeny_forge left
behind when every curve a command builds became one with known roots, kept
to check the counts the program makes without it.

- char_sum sums chi(f(x)) for any f of degree <= 6 over the pairs {x, -x},
  reading the tuple view chi_values of elliptic._chi_table;
- model_ap counts a Weierstrass model by char_sum on its completed square,
  where elliptic.ap_trace enumerates E(F_p);
- sextic_count counts a genus-2 curve from its coefficients alone, where
  genus2.hyperelliptic_point_count needs its even factors;
- reference_potential_type reads v_p(j) and j mod p off a model and counts a
  reference curve with that j by char_sum, where reduction.potential_type
  rescales a two-torsion curve and counts it by the split kernel.
"""

from __future__ import annotations

from functools import lru_cache

from isogeny_forge.elliptic import (
    _as_model,
    _b246_mod_p,
    _chi_table,
    _counting_coeffs,
    _integral_model,
)
from isogeny_forge.exactnum import valuation
from isogeny_forge.reduction import POT_GOOD_ORDINARY, POT_GOOD_SUPERSINGULAR, POT_MULTIPLICATIVE


# a view takes 8 p bytes, and is read only while its prime is in use
@lru_cache(maxsize=4)
def chi_values(p: int) -> tuple[int, ...]:
    """chi(x) in {-1, 0, 1} for x in 0..p-1, read off the mask of
    _chi_table: the view char_sum indexes."""
    sym = bytearray(format(_chi_table(p), f"0{p}b")[::-1].encode().translate(
        bytes.maketrans(b"01", b"\x01\xff")))
    sym[0] = 0
    return tuple(memoryview(sym).cast("b"))


def char_sum(coeffs, p: int) -> int:
    """sum over x in F_p of the Legendre symbol of f(x) = sum_i coeffs[i] x^i,
    for f of degree <= 6 and an odd prime p.

    With f(+-x) = E(x^2) +- x O(x^2), where E = c0 + c2 u + c4 u^2 + c6 u^3
    and O = c1 + c3 u + c5 u^2, the sum is chi(c0) plus, over x = 1..(p-1)/2,
    chi(E + xO) + chi(E - xO).
    """
    c0, c1, c2, c3, c4, c5, c6 = [c % p for c in coeffs] + [0] * (7 - len(coeffs))
    chi = chi_values(p)
    total = chi[c0]
    for x in range(1, (p + 1) // 2):
        u = x * x
        e = ((c6 * u + c4) * u + c2) * u + c0
        o = ((c5 * u + c3) * u + c1) * x
        total += chi[(e + o) % p] + chi[(e - o) % p]
    return total


def model_ap(W, p: int) -> int:
    """a_p of a model at an odd good prime: -sum_x chi(g(x)) for the
    completed square g = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    b2, b4, b6 = _b246_mod_p(*_counting_coeffs(_as_model(W), p), p)
    return -char_sum((b6, 2 * b4, b2, 4), p)


def sextic_count(C, p: int) -> int:
    """#C(F_p) of lam y^2 = S(x) at an odd prime of good reduction: p plus
    the sum of chi(lam S(x)), plus two points at infinity when lam c6 is a
    nonzero square mod p."""
    lam = C.lam % p
    total = p + char_sum([lam * c for c in C.coeffs], p)
    return total + 2 if chi_values(p)[lam * C.coeffs[6] % p] == 1 else total


def reference_potential_type(curve, p: int) -> str:
    """The potential type at an odd prime p from v_p(j) and j mod p of an
    integral model: negative v_p(j) is potentially multiplicative; else a
    curve with the reduced j decides ordinary vs supersingular."""
    W = _integral_model(_as_model(curve))
    c4, disc = W.c4, W.disc
    vd = valuation(disc, p)
    if c4 and 3 * valuation(c4, p) < vd:
        return POT_MULTIPLICATIVE
    jbar = c4**3 // p**vd * pow(disc // p**vd, -1, p) % p
    if p == 3:
        # the unique supersingular j in characteristic 3 is 0 (= 1728)
        return POT_GOOD_SUPERSINGULAR if jbar == 0 else POT_GOOD_ORDINARY
    if jbar == 0:
        A, B = 0, 1
    elif jbar == 1728 % p:
        A, B = 1, 0
    else:
        A = 3 * jbar * (1728 - jbar) % p
        B = 2 * jbar * (1728 - jbar) ** 2 % p
    ap = -char_sum((B, A, 0, 1), p)
    return POT_GOOD_SUPERSINGULAR if ap % p == 0 else POT_GOOD_ORDINARY
