"""The group ring Z[G] of a FinAbGroup, written out element by element: the
reference that the truncated-polynomial filtration of isogeny_forge.pontryagin
is checked against on small groups.

Elements are listed as the closure of {0} under adding the generators, in
breadth-first order, so invariant-factor groups and point groups E(F_p) are
listed the same way.  A group-ring element is a FormalSum over the group;
vector() writes it in that element order.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from itertools import product as iproduct
from typing import Iterable, Optional, Sequence

from isogeny_forge.errors import CertificateError
from isogeny_forge.exactnum import ColumnLattice, _add_multiple, _insert_mod
from isogeny_forge.pontryagin import FinAbGroup


class FormalSum:
    """Finite integer combination sum c_k [k] of keys of one space (sparse).

    The space is the object the keys belong to, here a finite abelian group;
    sums over different space objects do not mix.  Zero coefficients are
    never stored.
    """

    def __init__(self, space, coeffs: Optional[dict] = None):
        self.space = space
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @staticmethod
    def term(space, key, c: int = 1) -> "FormalSum":
        return FormalSum(space, {key: c})

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return self._plus_multiple(other, 1)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self._plus_multiple(other, -1)

    def _plus_multiple(self, other: "FormalSum", q: int) -> "FormalSum":
        if self.space is not other.space:
            raise ValueError("formal sums over different spaces")
        out = dict(self.coeffs)
        _add_multiple(out, other.coeffs, q)
        return FormalSum(self.space, out)

    def scale(self, n: int) -> "FormalSum":
        return FormalSum(self.space, {k: n * v for k, v in self.coeffs.items()})

    def degree(self) -> int:
        """The coefficient sum (the augmentation, in a group ring)."""
        return sum(self.coeffs.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalSum)
            and self.space is other.space
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"FormalSum({self.coeffs!r})"


@cache
def elements(group: FinAbGroup) -> list:
    """Every element of the group, the closure of {0} under + generator."""
    out = [group.zero]
    seen = {group.zero}
    for a in out:  # out grows while it is walked
        for g in group.generators:
            b = group.add(a, g)
            if b not in seen:
                seen.add(b)
                out.append(b)
    return out


@cache
def _index(group: FinAbGroup) -> dict:
    return {a: i for i, a in enumerate(elements(group))}


def vector(group: FinAbGroup, z: FormalSum) -> list[int]:
    """Coefficients of a group-ring element, in element order."""
    if z.space is not group:
        raise ValueError("element of a different group ring")
    index = _index(group)
    out = [0] * len(group)
    for k, v in z.coeffs.items():
        out[index[k]] = v
    return out


def pontryagin_product(z1: FormalSum, z2: FormalSum) -> FormalSum:
    """Bilinear extension of [a] * [b] = [a + b] (convolution)."""
    G = z1.space
    if z2.space is not G:
        raise ValueError("elements of different group rings")
    out: dict = {}
    for a, ca in z1.coeffs.items():
        # translation by a is injective, so the shifted keys do not collide
        _add_multiple(out, {G.add(a, b): cb for b, cb in z2.coeffs.items()}, ca)
    return FormalSum(G, out)


def zero_based_generator(group: FinAbGroup, pts: Sequence) -> FormalSum:
    """The product ([a_1] - [0]) * ... * ([a_r] - [0])."""
    one = FormalSum.term(group, group.zero)
    acc = one
    for a in pts:
        acc = pontryagin_product(acc, FormalSum.term(group, a) - one)
    return acc


def alternating_generator(group: FinAbGroup, pts: Sequence) -> FormalSum:
    """The same element written as the alternating subset sum
    sum_j (-1)^(r-j) sum_{nu_1<...<nu_j} [a_nu_1 + ... + a_nu_j]."""
    r = len(pts)
    out: dict = {}
    for j in range(r + 1):
        sign = (-1) ** (r - j)
        for subset in combinations(range(r), j):
            s = group.zero
            for i in subset:
                s = group.add(s, pts[i])
            _add_multiple(out, {s: sign}, 1)
    return FormalSum(group, out)


def gr_generators(group: FinAbGroup, r: int, over: str = "all") -> list[FormalSum]:
    """The alternating-sum element for each r-tuple; together they span I^r.

    over="generators" restricts tuples to a generating set.  Those tuples
    alone span a sublattice of I^r in general ([2]-[0] is not an integer
    multiple of [1]-[0] in Z[Z/4]); the full ideal-power lattice is produced
    by ideal_power_lattice, which multiplies iteratively instead.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    pool = group.generators if over == "generators" else elements(group)
    out = []
    for pts in iproduct(pool, repeat=r):
        g = alternating_generator(group, pts)
        if g.coeffs:
            out.append(g)
    return out


def ideal_power_lattice(group: FinAbGroup, r: int) -> ColumnLattice:
    """The lattice I^r inside the group ring, r >= 1.  I is spanned by the
    [a] - [0]; I^(s+1) by a basis of I^s times each [g] - [0], g a
    generator, as I^s is an ideal and those differences generate I."""
    if r < 1:
        raise ValueError("r must be >= 1")

    def lattice(elems: Iterable[FormalSum]) -> ColumnLattice:
        lat = ColumnLattice(len(group))
        for z in elems:
            lat.add_generator(vector(group, z))
        return lat

    one = FormalSum.term(group, group.zero)
    diffs = [FormalSum.term(group, g) - one for g in group.generators if g != group.zero]
    lat = lattice(FormalSum.term(group, a) - one for a in elements(group) if a != group.zero)
    for _ in range(r - 1):
        lat = lattice(
            pontryagin_product(FormalSum(group, dict(zip(elements(group), b))), d)
            for b in lat.basis
            for d in diffs
        )
    return lat


def contains(lat: ColumnLattice, target) -> bool:
    """Membership as a yes/no: the remainder of the reduction is zero."""
    rem, _ = lat.reduce(target)
    return not any(rem)


def spans_same_lattice(
    group: FinAbGroup, elems_a: Iterable[FormalSum], elems_b: Iterable[FormalSum]
) -> bool:
    """Lattice equality inside the group ring: the Hermite normal form of a
    lattice depends on the lattice alone."""
    dim = len(group)
    la, lb = ColumnLattice(dim), ColumnLattice(dim)
    for e in elems_a:
        la.add_generator(vector(group, e))
    for e in elems_b:
        lb.add_generator(vector(group, e))
    return la.basis == lb.basis


# The group-ring computation that aug_filtration replaced: ideal powers as
# echelons modulo e^r_max over the basis [a] - [0] of I.


def _ideal_power_lattices(
    group: FinAbGroup, r_max: int
) -> tuple[int, list[list[dict[int, int]]]]:
    """(m, [I^1, ..., I^(r_max + 1)]) with m = e^r_max, e the group exponent.

    Each power is an echelon modulo m (see _insert_mod) over the basis
    [a] - [0], a != 0, of I.  That is exact because m I lies in
    I^(r_max + 1), once e is checked to kill every generator, which comes
    first.  I^1 is all of I; deeper powers multiply the previous rows by
    the generator differences.  That suffices: a product of r+1 arbitrary
    differences expands integrally into products of generator differences
    of length >= r+1, and one generator factor can always be split off the
    front of such a word.
    """
    e = group.invariant_factors[-1]
    for s in group.generators:
        t = group.zero
        for _ in range(e):
            t = group.add(t, s)
        if t != group.zero:
            raise CertificateError("the group exponent does not kill a generator")
    m = e**r_max
    nonzero = [a for a in elements(group) if a != group.zero]
    pos = {a: k for k, a in enumerate(nonzero)}
    dim = len(nonzero)
    # per generator s: (column of [s] - [0], column of a + s for each column a)
    shifts = [
        (pos[s], [pos.get(group.add(a, s)) for a in nonzero])
        for s in group.generators
        if s != group.zero
    ]
    lattices = [[{j: 1} for j in range(dim)]]
    for _ in range(r_max):
        nxt = [{j: m} for j in range(dim)]
        for row in lattices[-1]:
            for s_col, shift in shifts:
                # row * ([s] - [0]) = sum c_k (([a_k + s] - [0]) - ([a_k] - [0]) - ([s] - [0]))
                v = {s_col: -sum(row.values())}
                for k, c in row.items():
                    v[k] = v.get(k, 0) - c
                    if shift[k] is not None:
                        v[shift[k]] = v.get(shift[k], 0) + c
                _insert_mod(nxt, v, m)
        lattices.append(nxt)
    return m, lattices
