"""Elliptic curves over Q in two-torsion and general Weierstrass form, with
exact point counting and group structure over prime fields.

Counting is character-sum based, which is the right tool at desk scale;
nothing here ever rounds.  There are two kernels.  _char_sum takes the sum
of chi(f(x)) for any f of degree <= 6 in (p - 1)/2 interpreted steps over
the pairs {x, -x}.  _split_char_sum takes it for f = prod (x - r) with the
roots r known, in one shift and one XOR of a p-bit non-residue mask per
root; a curve y^2 = x(x - a)(x - b) and a genus-2 curve given by its even
factors (genus2.py) are counted this way, and every other model by
_char_sum.  Both kernels read one quadratic-residue table per prime
(_chi_table, a non-residue mask built by one pass over the squares, whose
t^2 come from tables of squares shared by the primes of a run);
_char_sum reads it through the tuple view _chi_values.

E(F_p) (EllipticGroup) is enumerated point by point.  Its invariant factors,
point orders, generators and discrete_log all come off one discrete-log
table, built from the generators in about |E| point additions and certified
as a bijective homomorphism onto Z/m x Z/e.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple, Optional

from .errors import BadPrimeError, CertificateError, DegenerateCurveError, UnsupportedPrimeError
from .exactnum import factorize, is_prime


class WeierstrassModel(NamedTuple):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.  A model the program
    builds has each integral coefficient as an int (see _model), so c4, c6
    and disc are ints on an integral model; a coefficient is a Fraction only
    where it is not an integer, or in a model a caller passes in.  j is
    always a Fraction.  A model equals only a model, never the plain tuple
    of its coefficients."""

    a1: int | Fraction
    a2: int | Fraction
    a3: int | Fraction
    a4: int | Fraction
    a6: int | Fraction

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def c4(self) -> int | Fraction:
        return _c4c6(*self.coeffs())[0]

    @property
    def c6(self) -> int | Fraction:
        return _c4c6(*self.coeffs())[1]

    @property
    def disc(self) -> int | Fraction:
        return _discriminant(*self.coeffs())

    @property
    def j(self) -> Fraction:
        return Fraction(self.c4 ** 3, self.disc)

    def coeffs(self) -> tuple[int | Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def transform(self, u, r, s, t) -> "WeierstrassModel":
        """Admissible change of model x = u^2 x' + r, y = u^3 y' + s u^2 x' + t,
        for rationals u != 0, r, s, t; each integral coefficient of the
        result is an int."""
        u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
        if u == 0:
            raise ValueError("u must be nonzero")
        moved = _translated(self.coeffs(), r, s, t)
        return _model(c / u**i for c, i in zip(moved, _WEIGHTS))


def _model(coeffs) -> WeierstrassModel:
    """The model with these rational coefficients, each integral one as an
    int: every model the program builds comes from here."""
    return WeierstrassModel(*(c.numerator if c.denominator == 1 else c for c in coeffs))


class TwoTorsionCurve:
    """y^2 = x(x - a)(x - b): an elliptic curve with full rational 2-torsion.
    Immutable; equal and hashed by (a, b)."""

    def __init__(self, a: int, b: int):
        if a == 0:
            raise DegenerateCurveError("a = 0 makes the cubic non-squarefree")
        if b == 0:
            raise DegenerateCurveError("b = 0 makes the cubic non-squarefree")
        if a == b:
            raise DegenerateCurveError("a = b makes the cubic non-squarefree")
        self.__dict__.update(a=a, b=b)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"TwoTorsionCurve(a={self.a!r}, b={self.b!r})"

    @cached_property
    def model(self) -> WeierstrassModel:
        return _model((0, -(self.a + self.b), 0, self.a * self.b, 0))

    @property
    def delta(self) -> int:
        a, b = self.a, self.b
        return 16 * a * a * b * b * (a - b) * (a - b)

    def good_at(self, p: int) -> bool:
        """Good reduction at the prime p, i.e. p does not divide
        delta = 16 a^2 b^2 (a - b)^2: at odd p, p does not divide ab(a - b).
        ab(a - b) is always even, so p = 2 is bad."""
        return self.a * self.b * (self.a - self.b) % p != 0

    @property
    def j(self) -> Fraction:
        a, b = self.a, self.b
        return Fraction(256 * (a * a - a * b + b * b) ** 3, a * a * b * b * (a - b) ** 2)


def _b246(a1, a2, a3, a4, a6):
    """(b2, b4, b6) of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    return a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6


def _c4c6(a1, a2, a3, a4, a6):
    b2, b4, b6 = _b246(a1, a2, a3, a4, a6)
    return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6


_WEIGHTS = (1, 2, 3, 4, 6)  # a_i has weight i: the change of model u divides it by u^i


def _translated(coeffs, r, s, t):
    """The coefficients after x = x' + r, y = y' + s x' + t: integer polynomials."""
    a1, a2, a3, a4, a6 = coeffs
    return (a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1)


def _b8(a1, a2, a3, a4, a6):
    return a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4


def _discriminant(a1, a2, a3, a4, a6):
    """Discriminant of the model with these coefficients; an integer polynomial
    in them, so on the residues of a p-integral model it is the disc mod p."""
    b2, b4, b6 = _b246(a1, a2, a3, a4, a6)
    b8 = _b8(a1, a2, a3, a4, a6)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def curve_from_pair(a: int, b: int) -> TwoTorsionCurve:
    """Build y^2 = x(x-a)(x-b); the returned curve's model has exact disc and j."""
    return TwoTorsionCurve(int(a), int(b))


def _as_model(curve) -> WeierstrassModel:
    if isinstance(curve, TwoTorsionCurve):
        return curve.model
    if isinstance(curve, WeierstrassModel):
        return curve
    raise TypeError(f"not an elliptic curve object: {curve!r}")


def _integral_model(W: WeierstrassModel) -> WeierstrassModel:
    """An integral model of W with int coefficients: W itself when its
    coefficients are ints, else W rescaled by u = 1/lcm of denominators."""
    den = lcm(*(c.denominator for c in W.coeffs()))
    if den != 1:
        return W.transform(Fraction(1, den), 0, 0, 0)
    return W if all(type(c) is int for c in W.coeffs()) else _model(W.coeffs())


def _coeffs_mod_p(W: WeierstrassModel, p: int) -> tuple[int, int, int, int, int]:
    out = []
    for c in W.coeffs():
        n, den = c.numerator, c.denominator
        if den != 1:
            if den % p == 0:
                raise BadPrimeError(f"model is not {p}-integral")
            n *= pow(den, -1, p)
        out.append(n % p)
    return tuple(out)


def _b246_mod_p(a1: int, a2: int, a3: int, a4: int, a6: int, p: int) -> tuple[int, int, int]:
    """(b2, b4, b6) mod p, so that 4 * (y + (a1 x + a3)/2)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    b2, b4, b6 = _b246(a1, a2, a3, a4, a6)
    return b2 % p, b4 % p, b6 % p


_BAD_REDUCTION = "bad reduction at p = {p} (p divides the model discriminant)"


def _check_prime(p: int) -> None:
    if p < 2 or not is_prime(p):
        raise BadPrimeError(f"p = {p} is not prime")


def _counting_coeffs(W: WeierstrassModel, p: int) -> tuple[int, int, int, int, int]:
    """W's coefficients mod p, after checking that p is an odd prime of good reduction."""
    _check_prime(p)
    coeffs = _coeffs_mod_p(W, p)
    if _discriminant(*coeffs) % p == 0:
        raise BadPrimeError(_BAD_REDUCTION.format(p=p))
    if p == 2:
        raise UnsupportedPrimeError("p = 2 is excluded from counting operations")
    return coeffs


def ap_trace(curve, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - #E(F_p) at an odd prime of good
    reduction for the given model.

    Computed as -sum_x chi(g(x)) for the completed square
    g = 4x^3 + b2 x^2 + 2 b4 x + b6.  For a TwoTorsionCurve g = 4 x(x-a)(x-b)
    and chi(4) = 1, so _split_char_sum takes the sum over the roots (0, a, b),
    distinct mod p at a good prime.  Any other model goes to _char_sum over
    the pairs {x, -x}: g(+-x) = (b6 + b2 x^2) +- x (2 b4 + 4 x^2).  Exactness
    is inherited from the Legendre-symbol sum.
    """
    if isinstance(curve, TwoTorsionCurve):
        _check_prime(p)
        if not curve.good_at(p):
            raise BadPrimeError(_BAD_REDUCTION.format(p=p))
        ap = -_split_char_sum((0, curve.a, curve.b), p)
    else:
        b2, b4, b6 = _b246_mod_p(*_counting_coeffs(_as_model(curve), p), p)
        ap = -_char_sum((b6, 2 * b4, b2, 4), p)
    if ap * ap > 4 * p:
        raise CertificateError("Hasse bound violated: counting bug")
    return ap


def _char_sum(coeffs, p: int) -> int:
    """sum over x in F_p of the Legendre symbol of f(x) = sum_i coeffs[i] x^i,
    for f of degree <= 6 and an odd prime p.

    With f(+-x) = E(x^2) +- x O(x^2), where E = c0 + c2 u + c4 u^2 + c6 u^3
    and O = c1 + c3 u + c5 u^2, the sum is chi(c0) plus, over x = 1..(p-1)/2,
    chi(E + xO) + chi(E - xO).  E and xO are evaluated once per pair, and
    E + xO and E - xO are reduced once each.
    """
    c0, c1, c2, c3, c4, c5, c6 = [c % p for c in coeffs] + [0] * (7 - len(coeffs))
    chi = _chi_values(p)
    total = chi[c0]
    for x in range(1, (p + 1) // 2):
        u = x * x
        e = ((c6 * u + c4) * u + c2) * u + c0
        o = ((c5 * u + c3) * u + c1) * x
        total += chi[(e + o) % p] + chi[(e - o) % p]
    return total


_SQUARES = 2048  # the longest table of squares; it covers every t < p / 2 of p < 4096


@lru_cache(maxsize=None)
def _squares(n: int) -> list[int]:
    """The squares t * t of t < n, n a power of two; the masks of all the
    primes of a run share the table of each n."""
    return [t * t for t in range(n)]


# Unbounded: a search's split-jacobian predicate rereads the masks of every
# prime up to its bound for each curve, in the same order, and an LRU smaller
# than that set evicts each mask before its next read.
@lru_cache(maxsize=None)
def _chi_table(p: int) -> int:
    """The quadratic character mod an odd prime p, from one pass over the
    squares, as its non-residue mask: the p-bit integer whose bit x is set
    iff chi(x) = -1.  The t^2 of t < _SQUARES come from _squares."""
    digits = bytearray(b"1") * p  # digit x is "1" iff x is a non-residue
    zero = digits[0] = ord("0")
    half = (p + 1) // 2
    squares = _squares(min(_SQUARES, 1 << (half - 1).bit_length()))
    for s in squares[1:half]:
        digits[s % p] = zero
    for t in range(len(squares), half):
        digits[t * t % p] = zero
    return int(digits[::-1], 2)


# a view takes 8 p bytes, and is read only while its prime is in use
@lru_cache(maxsize=4)
def _chi_values(p: int) -> tuple[int, ...]:
    """chi(x) in {-1, 0, 1} for x in 0..p-1, read off the mask of
    _chi_table: the view _char_sum indexes."""
    sym = bytearray(format(_chi_table(p), f"0{p}b")[::-1].encode().translate(
        bytes.maketrans(b"01", b"\x01\xff")))
    sym[0] = 0
    return tuple(memoryview(sym).cast("b"))


def _split_char_sum(roots, p: int) -> int:
    """sum over x in F_p of the Legendre symbol of prod_r (x - r), for roots
    distinct mod p and an odd prime p.

    Bit x of the non-residue mask rotated left by r is set iff x - r is a
    non-residue; the low p bits of the doubled mask M | M << p shifted right
    by p - r are that rotation.  The product is -1 exactly where an odd
    number of factors are non-residues, i.e. at the set bits of the XOR of
    the rotations, masked to p bits once, and 0 at the roots; every other x
    contributes +1.
    """
    nonres = _chi_table(p)
    doubled = nonres | nonres << p
    odd = root_bits = 0
    for r in roots:
        r %= p
        odd ^= doubled >> (p - r)
        root_bits |= 1 << r
    return p - len(roots) - 2 * (odd & (((1 << p) - 1) ^ root_bits)).bit_count()


@lru_cache(maxsize=None)
def _sqrt_table(p: int) -> dict[int, tuple[int, ...]]:
    roots: dict[int, tuple[int, ...]] = {0: (0,)}
    for t in range(1, (p + 1) // 2 + 1):
        v = t * t % p
        if v not in roots:
            roots[v] = (t, (p - t) % p) if t != (p - t) % p else (t,)
    return roots


Point = Optional[tuple[int, int]]  # None is the point at infinity


class EllipticGroup:
    """The group E(F_p) as an explicit finite abelian group.

    Points are (x, y) tuples with None as identity; the chord-tangent law is
    implemented for the general Weierstrass shape so reduced minimal models
    can be used directly.  Structure, orders and generators are read off one
    certified discrete-log table (_table).
    """

    def __init__(self, W: WeierstrassModel, p: int):
        self.p = p
        self.a1, self.a2, self.a3, self.a4, self.a6 = _counting_coeffs(W, p)
        self.points = self._enumerate()
        self.index = {pt: i for i, pt in enumerate(self.points)}
        self._walk: dict = {}  # (P, e) -> [O, P, ..., eP], the last walk only

    def _enumerate(self) -> list[Point]:
        p = self.p
        a1, a3 = self.a1, self.a3
        b2, b4, b6 = _b246_mod_p(a1, self.a2, a3, self.a4, self.a6, p)
        inv2 = pow(2, -1, p)
        pts: list[Point] = [None]
        roots = _sqrt_table(p)
        for x in range(p):
            g = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
            for eta in roots.get(g, ()):
                y = (eta - a1 * x - a3) * inv2 % p
                pts.append((x, y))
        return pts

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def neg(self, P: Point) -> Point:
        if P is None:
            return None
        x, y = P
        return (x, (-y - self.a1 * x - self.a3) % self.p)

    def add(self, P: Point, Q: Point) -> Point:
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        a1, a2, a3, a4 = self.a1, self.a2, self.a3, self.a4
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % p == 0:
            return None
        if x1 != x2:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        else:
            den = (2 * y1 + a1 * x1 + a3) % p
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(den, -1, p) % p
        nu = (y1 - lam * x1) % p
        x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
        y3 = (-(lam + a1) * x3 - nu - a3) % p
        return (x3, y3)

    def scalar(self, n: int, P: Point) -> Point:
        if n < 0:
            return self.scalar(-n, self.neg(P))
        R: Point = None
        Q = P
        while n:
            if n & 1:
                R = self.add(R, Q)
            n >>= 1
            if n:
                Q = self.add(Q, Q)
        return R

    @cached_property
    def _order_factors(self) -> dict[int, int]:
        """|E(F_p)| factored, once per group."""
        return factorize(len(self.points))

    def order_of(self, P: Point) -> int:
        """The order of P: for each prime power q^e exactly dividing N =
        |E(F_p)|, the q-part is the least q^k that kills (N / q^e) P, found by
        one scalar multiplication and then repeated multiplication by q.  The
        product is checked to kill P."""
        N = len(self.points)
        o = 1
        for q, e in self._order_factors.items():
            R = self.scalar(N // q**e, P)
            for _ in range(e):
                if R is None:
                    break
                R = self.scalar(q, R)
                o *= q
        if self.scalar(o, P) is not None:
            raise CertificateError(f"claimed order {o} does not kill the point {P}")
        return o

    def _multiples(self, P: Point, e: int) -> list[Point]:
        """[O, P, 2P, ..., eP], by e additions; the walk _basis makes for its
        <P> test is kept, so _table reads it again without adding."""
        row = self._walk.get((P, e))
        if row is None:
            row = [None]
            for _ in range(e):
                row.append(self.add(row[-1], P))
            self._walk = {(P, e): row}
        return row

    def _basis(self) -> tuple[list[Point], Point, int, int]:
        """The claimed generators [P] or [P, Q] as (generators, Q', m, e), for
        _table to certify: P of order e = exp(E(F_p)), m = N / e, and Q' =
        Q - (k / m) P for mQ = kP (None when cyclic).  P is the first point, in
        index order, of order e, the lcm of the orders read so far.  Once m
        divides e and p - 1 (E[m] needs the m-th roots of unity in F_p), Q is
        the first point generating E(F_p) / <P>: no (m / q) Q, q a prime
        factor of m, lies in <P>.  If e is the exponent, Q exists and m | k;
        else more points are read."""
        N = len(self.points)
        e, P = 1, None
        for R in self.points:
            o = self.order_of(R)
            if e % o:
                e, P = lcm(e, o), None
            if P is not None or o != e:
                continue
            P, m = R, N // e
            if m == 1:
                return [P], None, 1, e
            if e % m or (self.p - 1) % m:
                continue
            multiples = {S: v for v, S in enumerate(self._multiples(P, e)[:e])}
            primes = [q for q in self._order_factors if m % q == 0]
            Q = next((Q for Q in self.points
                      if all(self.scalar(m // q, Q) not in multiples for q in primes)), None)
            k = multiples.get(self.scalar(m, Q))
            if Q is not None and k is not None and k % m == 0:
                return [P, Q], self.add(Q, self.scalar(-(k // m), P)), m, e
        raise CertificateError(f"no pair of generators found for E(F_{self.p})")

    @cached_property
    def _table(self) -> tuple[tuple[int, int], list[tuple[int, int]], list[Point]]:
        """The moduli (m, e), the coordinates (u, v) of each point uQ' + vP by
        point index, and the generators, certifying the claim of _basis: m e =
        N, m | e, P has order e, mQ' = O, and the N values uQ' + vP (u < m,
        v < e) are distinct enumerated points.  Then (u, v) -> uQ' + vP is a
        bijective homomorphism Z/m x Z/e -> E(F_p), so the invariant factors
        are [m, e] and the generators span.  Else CertificateError."""
        gens, Q, m, e = self._basis()
        N = len(self.points)
        if m * e != N or e % m:
            raise CertificateError(f"order {N} and exponent {e} fit no group of rank <= 2")
        row = self._multiples(gens[0], e)
        self._walk = {}  # the table is the last reader of the walk
        if row[e] is not None or None in row[1:e]:
            raise CertificateError(f"claimed exponent {e} is not the order of the generator")
        row = row[:e]
        coords: list = [None] * N
        for u in range(m):
            if u:
                row = [self.add(S, Q) for S in row]
            for v, S in enumerate(row):
                i = self.index.get(S)
                if i is None or coords[i] is not None:
                    raise CertificateError(f"the table is not a bijection at (u, v) = ({u}, {v}):"
                                           " the generators do not span")
                coords[i] = (u, v)
        if self.add(row[0], Q) is not None:
            raise CertificateError(f"claimed order {m} does not kill the second generator")
        return (m, e), coords, gens

    def structure(self) -> list[int]:
        """Invariant factors [m, e] with m | e, or [e] when cyclic."""
        m, e = self._table[0]
        return [e] if m == 1 else [m, e]

    def generators(self) -> list[Point]:
        """A minimal generating set: P, the first point of order e, and,
        unless the group is cyclic, Q, the first point with <P, Q> = E(F_p)."""
        return list(self._table[2])


def discrete_log(G: EllipticGroup) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The isomorphism x: E(F_q) -> Z/m x Z/e (m | e), or Z/e when cyclic, of
    G's table: the moduli, and x(S) of every point S by point index, with
    x(uQ' + vP) = (u, v) for G.generators() = [P, Q] and Q' = Q - (k / m) P,
    mQ = kP.  kgroup.SkewBilinear checks it again before relying on it."""
    moduli, coords = tuple(G.structure()), G._table[1]
    if len(moduli) == 1:
        return moduli, [(v,) for _, v in coords]
    return moduli, list(coords)


def rational_points_mod_p(curve, p: int) -> EllipticGroup:
    """Complete enumeration of E(F_p) with group law and structure."""
    return EllipticGroup(_as_model(curve), p)
