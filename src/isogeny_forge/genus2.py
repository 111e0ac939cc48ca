"""Binary sextics and hyperelliptic genus-2 models lam*y^2 = S(x):
discriminants, Igusa-Clebsch invariants, and point counting over F_p.

The four invariants are the classical root-difference sums

    I2  = c^2  * sum over the 15 pairings of (ij)^2 (kl)^2 (mn)^2
    I4  = c^4  * sum over the 10 triangle pairs of their six squared edges
    I6  = c^6  * sum over the 60 matched triangle pairs (nine squared edges)
    I10 = c^10 * prod_{i<j} (ij)^2            (with (ij) = alpha_i - alpha_j)

evaluated exactly without splitting fields: each sum is symmetrized once into
monomial symmetric functions (cached template), which are then evaluated from
Newton power sums of the coefficients.  I10 is, by the same normalization,
-Res(S, S')/lc(S).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BadPrimeError, SingularCurveError
from .exactnum import _det_bareiss, is_prime
from .elliptic import _chi_table

Sextic = tuple[int, int, int, int, int, int, int]  # c0 .. c6


def _as_sextic(coeffs) -> Sextic:
    cs = tuple(int(c) for c in coeffs)
    if len(cs) != 7:
        raise ValueError(f"need 7 coefficients c0..c6, got {len(cs)}")
    if cs[6] == 0:
        raise ValueError("degree must be exactly 6 (c6 = 0)")
    return cs


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
    assert rem == 0, "Res(S, S') must be divisible by the leading coefficient"
    return q


# -- symmetric-function machinery ---------------------------------------------


def _power_sums(coeffs: Sextic, upto: int) -> list[Fraction]:
    """Newton power sums p_1..p_upto of the roots of S (monic normalization)."""
    c6 = coeffs[6]
    # e_k with sign: for monic x^6 + m5 x^5 + ... + m0, e_k = (-1)^k m_{6-k}
    m = [Fraction(coeffs[i], c6) for i in range(7)]
    e = [Fraction(1)] + [(-1) ** k * m[6 - k] for k in range(1, 7)]
    p: list[Fraction] = [Fraction(6)]  # p_0 = number of roots
    for k in range(1, upto + 1):
        if k <= 6:
            acc = (-1) ** (k - 1) * Fraction(k) * e[k]
            for i in range(1, k):
                acc += (-1) ** (i - 1) * e[i] * p[k - i]
        else:
            acc = Fraction(0)
            for i in range(1, 7):
                acc += (-1) ** (i - 1) * e[i] * p[k - i]
        p.append(acc)
    return p


class _MonomialEvaluator:
    """Evaluate augmented monomial symmetric functions m~_lambda (sums over
    distinct ordered index tuples) from power sums, with memoization."""

    def __init__(self, power_sums: list[Fraction]):
        self.p = power_sums
        self.cache: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}

    def value(self, lam: tuple[int, ...]) -> Fraction:
        lam = tuple(sorted(lam, reverse=True))
        if lam in self.cache:
            return self.cache[lam]
        a, mu = lam[0], lam[1:]
        out = self.p[a] * self.value(mu)
        for i in range(len(mu)):
            bumped = mu[:i] + (mu[i] + a,) + mu[i + 1 :]
            out -= self.value(bumped)
        self.cache[lam] = out
        return out


def _expand_edge_template(edges: list[tuple[int, int]]) -> dict[tuple[int, ...], int]:
    """Expand prod (alpha_i - alpha_j)^2 over the given edges into a dict
    mapping 6-tuples of exponents to integer coefficients."""
    poly: dict[tuple[int, ...], int] = {(0, 0, 0, 0, 0, 0): 1}
    for (i, j) in edges:
        terms = []
        for (di, dj, c) in ((2, 0, 1), (1, 1, -2), (0, 2, 1)):
            terms.append((di, dj, c))
        new: dict[tuple[int, ...], int] = {}
        for mono, coef in poly.items():
            for di, dj, c in terms:
                lst = list(mono)
                lst[i] += di
                lst[j] += dj
                key = tuple(lst)
                v = new.get(key, 0) + coef * c
                if v:
                    new[key] = v
                else:
                    new.pop(key, None)
        poly = new
    return poly


_FACT = [1, 1, 2, 6, 24, 120, 720]


def _template_to_partition_weights(
    poly: dict[tuple[int, ...], int], aut: int
) -> dict[tuple[int, ...], Fraction]:
    """Collapse an exponent-pattern dict into partition -> rational weight so
    that the symmetrized sum equals sum_lambda weight * m~_lambda."""
    out: dict[tuple[int, ...], Fraction] = {}
    for mono, coef in poly.items():
        zeros = mono.count(0)
        lam = tuple(sorted((x for x in mono if x), reverse=True))
        # sum over S6 of the pattern hits each distinct tuple z! * (mult!) times,
        # and m~ already counts mult! orderings of equal parts
        w = Fraction(coef * _FACT[zeros], aut)
        out[lam] = out.get(lam, Fraction(0)) + w
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _invariant_templates():
    pairing = _expand_edge_template([(0, 1), (2, 3), (4, 5)])
    triangles = _expand_edge_template(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    matched = _expand_edge_template(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    return (
        _template_to_partition_weights(pairing, 48),
        _template_to_partition_weights(triangles, 72),
        _template_to_partition_weights(matched, 12),
    )


def igusa_clebsch_of_sextic(coeffs) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(I2, I4, I6, I10) of the binary sextic, exact."""
    cs = _as_sextic(coeffs)
    disc = sextic_discriminant(cs)
    if disc == 0:
        raise SingularCurveError("sextic has a repeated root")
    t2, t4, t6 = _invariant_templates()
    ev = _MonomialEvaluator(_power_sums(cs, 18))
    c = cs[6]

    def combine(template, cpow):
        acc = Fraction(0)
        for lam, w in template.items():
            acc += w * ev.value(lam)
        return acc * c**cpow

    i2 = combine(t2, 2)
    i4 = combine(t4, 4)
    i6 = combine(t6, 6)
    i10 = Fraction(-disc)  # c^10 prod (ij)^2 relative to the Res/lc normalization
    return (i2, i4, i6, i10)


def absolute_invariants(inv) -> tuple[Fraction, Fraction, Fraction]:
    """Weighted-projective coordinates classifying the geometric isomorphism
    class: (I2^5/I10, I4^5/I10^2, I6^5/I10^3)."""
    i2, i4, i6, i10 = (Fraction(x) for x in inv)
    if i10 == 0:
        raise SingularCurveError("I10 = 0: singular sextic")
    return (i2**5 / i10, i4**5 / i10**2, i6**5 / i10**3)


# -- curves --------------------------------------------------------------------


@dataclass(frozen=True)
class HyperellipticCurve:
    """lam * y^2 = S(x) with S of exact degree 6."""

    lam: int
    coeffs: Sextic  # c0 .. c6

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("lam must be nonzero")
        _as_sextic(self.coeffs)

    @property
    def disc(self) -> int:
        return sextic_discriminant(self.coeffs)

    def igusa_clebsch(self):
        """(I2, I4, I6, I10) of the sextic S.

        Rescaling S by lam moves the tuple inside its weighted-projective
        class, so isomorphism comparisons through absolute_invariants are
        unaffected by which of lam*y^2 = S and y^2 = lam*S is taken.
        """
        return igusa_clebsch_of_sextic(self.coeffs)

    def absolute_igusa(self):
        return absolute_invariants(self.igusa_clebsch())

    def point_count(self, p: int) -> int:
        return hyperelliptic_point_count(self, p)


def hyperelliptic_point_count(C: HyperellipticCurve, p: int) -> int:
    """#C(F_p) on the smooth projective model.

    Affine part by quadratic-character summation; two points at infinity when
    lam^-1 c6 is a nonzero square mod p, none otherwise.
    """
    if p == 2 or not is_prime(p):
        raise BadPrimeError(f"p = {p} is not an odd prime")
    if C.lam % p == 0:
        raise BadPrimeError(f"p = {p} divides lam")
    if C.coeffs[6] % p == 0:
        raise BadPrimeError(f"p = {p} divides the leading coefficient")
    if C.disc % p == 0:
        raise BadPrimeError(f"p = {p} divides disc(S)")
    chi = _chi_table(p)
    lam = C.lam % p
    cs = [c % p for c in C.coeffs]
    total = 0
    for x in range(p):
        v = 0
        for c in reversed(cs):
            v = (v * x + c) % p
        total += 1 + chi[lam * v % p]
    if chi[lam * cs[6] % p] == 1:
        total += 2
    return total
