"""Binary sextics and hyperelliptic genus-2 models lam*y^2 = S(x):
discriminants, Igusa-Clebsch invariants, and point counting over F_p.

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
partir de leurs modules, 1991).  I10 is, by the same normalization,
-Res(S, S')/lc(S).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, factorial, perm
from typing import Optional

from .errors import BadPrimeError, CertificateError, SingularCurveError
from .exactnum import _det_bareiss, is_prime
from .elliptic import _char_sum, _chi_table, _split_char_sum

Sextic = tuple[int, int, int, int, int, int, int]  # c0 .. c6
EvenFactors = tuple[tuple[int, int], ...]  # (l, k) for each factor l x^2 - k


def _as_sextic(coeffs) -> Sextic:
    cs = tuple(int(c) for c in coeffs)
    if len(cs) != 7:
        raise ValueError(f"need 7 coefficients c0..c6, got {len(cs)}")
    if cs[6] == 0:
        raise ValueError("degree must be exactly 6 (c6 = 0)")
    return cs


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


def resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) by the Sylvester determinant (coefficients low to high)."""
    while f and f[-1] == 0:
        f = f[:-1]
    while g and g[-1] == 0:
        g = g[:-1]
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + fr + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + gr + [0] * (n - dg - 1 - i))
    return _det_bareiss(rows)


def sextic_discriminant(coeffs) -> int:
    """Res(S, S') / lc(S): zero exactly when S has a repeated root.

    This normalization is what the rest of the package keys on; it differs
    from the monic-classical discriminant by a sign (I10 = -disc here).
    """
    cs = _as_sextic(coeffs)
    f = list(cs)
    df = [i * cs[i] for i in range(1, 7)]
    r = resultant(f, df)
    q, rem = divmod(r, cs[6])
    if rem:
        raise CertificateError("Res(S, S') is not divisible by the leading coefficient")
    return q


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


def igusa_clebsch_of_sextic(coeffs, disc=None) -> tuple[int, int, int, int]:
    """(I2, I4, I6, I10) of the binary sextic, exact integers.

    `disc`, when given, is taken as sextic_discriminant(coeffs) instead of
    computing it again; a curve passes its cached value.  The transvectants
    are integer forms; the scales of the nested ones multiply: with
    i = si * I, (i, i)_4 = sb * si^2 * (I, I)_4, and so on.
    """
    cs = _as_sextic(coeffs)
    if disc is None:
        disc = sextic_discriminant(cs)
    if disc == 0:
        raise SingularCurveError("sextic has a repeated root")
    I, si = _transvectant(cs, cs, 4)
    (a,), sa = _transvectant(cs, cs, 6)
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
    """lam * y^2 = S(x) with S of exact degree 6, coeffs c0 .. c6 of S,
    kept as the tuple of ints _as_sextic makes of any sequence.

    even_factors, when given, is a factorization S(x) = prod (l x^2 - k)
    into three even quadratics, as pairs (l, k); it is checked against
    coeffs on construction, and lets the point count run on the roots of S
    as a cubic in x^2.  Immutable; equal and hashed by (lam, coeffs) alone.
    """

    def __init__(self, lam: int, coeffs: Sextic, even_factors: Optional[EvenFactors] = None):
        if lam == 0:
            raise ValueError("lam must be nonzero")
        cs = _as_sextic(coeffs)
        if even_factors is not None and _even_sextic(even_factors) != cs:
            raise ValueError(f"even factors {even_factors} do not multiply out to {cs}")
        self.__dict__.update(lam=lam, coeffs=cs, even_factors=even_factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and (self.lam, self.coeffs) == (other.lam, other.coeffs)

    def __hash__(self):
        return hash((self.lam, self.coeffs))

    def __repr__(self):
        return (f"HyperellipticCurve(lam={self.lam!r}, coeffs={self.coeffs!r}, "
                f"even_factors={self.even_factors!r})")

    @cached_property
    def disc(self) -> int:
        return sextic_discriminant(self.coeffs)

    def igusa_clebsch(self):
        """(I2, I4, I6, I10) of the sextic S.

        Rescaling S by lam moves the tuple inside its weighted-projective
        class, so isomorphism comparisons through absolute_invariants are
        unaffected by which of lam*y^2 = S and y^2 = lam*S is taken.
        """
        return igusa_clebsch_of_sextic(self.coeffs, self.disc)

    def absolute_igusa(self):
        return absolute_invariants(self.igusa_clebsch())

    def point_count(self, p: int) -> int:
        return hyperelliptic_point_count(self, p)


def hyperelliptic_point_count(C: HyperellipticCurve, p: int) -> int:
    """#C(F_p) on the smooth projective model, checked against the
    Hasse-Weil bound (#C - p - 1)^2 <= 16p.

    Affine part p + sum_x chi(lam S(x)); two points at infinity when
    lam^-1 c6 is a nonzero square mod p, none otherwise.

    With even factors S(x) = c6 prod (x^2 - r_i), r_i = k_i / l_i mod p,
    which are distinct and nonzero as p does not divide c6 disc(S).  Each
    u = x^2 is hit 1 + chi(u) times, so the sum is chi(lam c6) times the
    elliptic._split_char_sum over the roots (r_1, r_2, r_3) plus the one
    over (0, r_1, r_2, r_3): O(p/64) word operations.  Without factors it
    is elliptic._char_sum over the pairs {x, -x} through
    lam S(+-x) = E(x^2) +- x O(x^2), (p - 1)/2 interpreted steps.
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
    if C.even_factors is None:
        total = p + _char_sum([lam * c for c in C.coeffs], p)
    else:
        roots = [k * pow(l, -1, p) % p for l, k in C.even_factors]
        total = p + at_infinity * (_split_char_sum(roots, p) + _split_char_sum([0, *roots], p))
    if at_infinity == 1:
        total += 2
    if (total - p - 1) ** 2 > 16 * p:
        raise CertificateError("Hasse-Weil bound violated: counting bug")
    return total
