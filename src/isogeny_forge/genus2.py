"""Genus-2 curves lam*y^2 = S(x) whose sextic is a product of three even
quadratics, S(x) = prod (l_i x^2 - k_i): discriminants, Igusa-Clebsch
invariants, and point counting over F_p.

The four invariants are normalized as the classical root-difference sums

    I2  = c^2  * sum over the 15 pairings of (ij)^2 (kl)^2 (mn)^2
    I4  = c^4  * sum over the 10 triangle pairs of their six squared edges
    I6  = c^6  * sum over the 60 matched triangle pairs (nine squared edges)
    I10 = c^10 * prod_{i<j} (ij)^2            (with (ij) = alpha_i - alpha_j)

where c = lc(S) and alpha_1..alpha_6 are the roots of S.  The code needs no
roots.  With S as the binary form f and i = (f, f)_4, Clebsch's invariants
A = (f, f)_6, B = (i, i)_4 and C = (i, (i, i)_2)_4 are transvectants, and
Mestre's relations

    I2 = -120 A,   I4 = -720 A^2 + 6750 B,   I6 = 8640 A^3 - 108000 A B + 202500 C

give the sums above (J.-F. Mestre, Construction de courbes de genre 2 a
partir de leurs modules, 1991).  I10 = -disc, in closed form: the roots are
+-r_i with r_i^2 = k_i / l_i, so

    disc = Res(S, S')/lc(S) = -64 * prod l_i k_i * prod_{i<j} (l_i k_j - l_j k_i)^4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, factorial, perm

from .errors import BadPrimeError, CertificateError, SingularCurveError
from .exactnum import is_prime
from .elliptic import _chi_table, _split_char_sum

EvenFactors = tuple[tuple[int, int], ...]  # (l, k) for each factor l x^2 - k


def _even_sextic(factors) -> tuple[int, ...]:
    """c0, c1, ... of prod (l x^2 - k) over the factors (l, k)."""
    cu = [1]  # the product as a polynomial in u = x^2
    for lead, const in factors:
        nxt = [0] * (len(cu) + 1)
        for i, v in enumerate(cu):
            nxt[i + 1] += v * lead
            nxt[i] -= v * const
        cu = nxt
    out = [0] * (2 * len(cu) - 1)
    out[::2] = cu
    return tuple(out)


def sextic_discriminant(factors: EvenFactors) -> int:
    """Res(S, S')/lc(S) of S = prod (l x^2 - k) over three even factors (l, k),
    in closed form: zero exactly when S has a repeated root.

    This normalization is what the rest of the package keys on; it differs
    from the monic-classical discriminant by a sign (I10 = -disc here).
    """
    (l1, k1), (l2, k2), (l3, k3) = factors
    cross = (l1 * k2 - l2 * k1) * (l1 * k3 - l3 * k1) * (l2 * k3 - l3 * k2)
    return -64 * l1 * k1 * l2 * k2 * l3 * k3 * cross**4


# -- transvectants -------------------------------------------------------------


def _partial(f, a: int, b: int) -> list:
    """d^(a+b) f / dx^a dy^b of the binary form sum f[i] x^i y^(m-i)."""
    m = len(f) - 1
    return [f[i] * perm(i, a) * perm(m - i, b) for i in range(a, m - b + 1)]


def _transvectant(f, g, k: int) -> tuple[list[int], Fraction]:
    """The k-th transvectant (f, g)_k of integer binary forms of degrees m
    and n (index = power of x), scaled by (m-k)!(n-k)!/(m!n!), as the pair
    (T, scale): T is the unscaled form, summed in ints, and (f, g)_k is
    scale * T."""
    m, n = len(f) - 1, len(g) - 1
    out = [0] * (m + n - 2 * k + 1)
    for j in range(k + 1):
        w = (-1) ** j * comb(k, j)
        dg = _partial(g, j, k - j)
        for a, u in enumerate(_partial(f, k - j, j)):
            wu = w * u
            for b, v in enumerate(dg):
                out[a + b] += wu * v
    return out, Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))


def igusa_clebsch_of_sextic(coeffs, disc: int) -> tuple[int, int, int, int]:
    """(I2, I4, I6, I10) of the integer sextic coeffs = c0 .. c6 whose
    discriminant Res(S, S')/lc(S) is disc, as exact integers.

    The transvectants are integer forms; the scales of the nested ones
    multiply: with i = si * I, (i, i)_4 = sb * si^2 * (I, I)_4, and so on.
    """
    if disc == 0:
        raise SingularCurveError("sextic has a repeated root")
    I, si = _transvectant(coeffs, coeffs, 4)
    (a,), sa = _transvectant(coeffs, coeffs, 6)
    (b,), sb = _transvectant(I, I, 4)
    J, sj = _transvectant(I, I, 2)
    (c,), sc = _transvectant(I, J, 4)
    A = sa * a
    B = sb * si**2 * b
    C = sc * si * sj * si**2 * c
    inv = (-120 * A, -720 * A**2 + 6750 * B, 8640 * A**3 - 108000 * A * B + 202500 * C)
    if any(x.denominator != 1 for x in inv):
        raise CertificateError("an Igusa-Clebsch invariant of an integer sextic is not an integer")
    return (*(x.numerator for x in inv), -disc)


def absolute_invariants(inv) -> tuple[Fraction, Fraction, Fraction]:
    """Weighted-projective coordinates classifying the geometric isomorphism
    class: (I2^5/I10, I4^5/I10^2, I6^5/I10^3)."""
    i2, i4, i6, i10 = (Fraction(x) for x in inv)
    if i10 == 0:
        raise SingularCurveError("I10 = 0: singular sextic")
    return (i2**5 / i10, i4**5 / i10**2, i6**5 / i10**3)


# -- curves --------------------------------------------------------------------


class HyperellipticCurve:
    """lam * y^2 = S(x) with S(x) = prod (l x^2 - k) over three even factors
    (l, k), every l nonzero, so S has exact degree 6; coeffs are c0 .. c6 of
    S.  The point count runs on the roots of S as a cubic in x^2.
    Immutable; equal and hashed by (lam, coeffs) alone, so two
    factorizations of one sextic give one curve.
    """

    def __init__(self, lam: int, even_factors: EvenFactors):
        if lam == 0:
            raise ValueError("lam must be nonzero")
        if len(even_factors) != 3:
            raise ValueError(f"need exactly three even factors (l, k), got {len(even_factors)}")
        if not all(l for l, _ in even_factors):
            raise ValueError(f"degree must be exactly 6, but an l is 0 in {even_factors}")
        self.__dict__.update(lam=lam, coeffs=_even_sextic(even_factors), even_factors=even_factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and (self.lam, self.coeffs) == (other.lam, other.coeffs)

    def __hash__(self):
        return hash((self.lam, self.coeffs))

    def __repr__(self):
        return f"HyperellipticCurve(lam={self.lam!r}, even_factors={self.even_factors!r})"

    @cached_property
    def disc(self) -> int:
        return sextic_discriminant(self.even_factors)

    def igusa_clebsch(self):
        """(I2, I4, I6, I10) of the sextic S.

        Rescaling S by lam moves the tuple inside its weighted-projective
        class, so isomorphism comparisons through absolute_invariants are
        unaffected by which of lam*y^2 = S and y^2 = lam*S is taken.
        """
        return igusa_clebsch_of_sextic(self.coeffs, self.disc)

    def absolute_igusa(self):
        return absolute_invariants(self.igusa_clebsch())


def hyperelliptic_point_count(C: HyperellipticCurve, p: int) -> int:
    """#C(F_p) on the smooth projective model, checked against the Hasse-Weil
    bound (#C - p - 1)^2 <= 16p.

    Affine part p + sum_x chi(lam S(x)); two points at infinity when
    lam^-1 c6 is a nonzero square mod p, none otherwise.

    With S(x) = c6 prod (x^2 - r_i), r_i = k_i / l_i mod p, which are
    distinct and nonzero as p does not divide c6 disc(S).  Each u = x^2 is
    hit 1 + chi(u) times, so the sum is chi(lam c6) times the
    elliptic._split_char_sum over the roots (r_1, r_2, r_3) plus the one
    over (0, r_1, r_2, r_3): O(p/64) word operations.
    """
    if p == 2 or not is_prime(p):
        raise BadPrimeError(f"p = {p} is not an odd prime")
    if C.lam % p == 0:
        raise BadPrimeError(f"p = {p} divides lam")
    if C.coeffs[6] % p == 0:
        raise BadPrimeError(f"p = {p} divides the leading coefficient")
    if C.disc % p == 0:
        raise BadPrimeError(f"p = {p} divides disc(S)")
    lam = C.lam % p
    # chi(lam c6), from bit lam c6 of the non-residue mask (lam c6 != 0 mod p)
    at_infinity = -1 if _chi_table(p) >> (lam * C.coeffs[6] % p) & 1 else 1
    roots = [k * pow(l, -1, p) % p for l, k in C.even_factors]
    total = p + at_infinity * (_split_char_sum(roots, p) + _split_char_sum([0, *roots], p))
    if at_infinity == 1:
        total += 2
    if (total - p - 1) ** 2 > 16 * p:
        raise CertificateError("Hasse-Weil bound violated: counting bug")
    return total
