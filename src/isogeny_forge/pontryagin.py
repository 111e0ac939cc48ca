"""Group rings of finite abelian groups with the convolution product
[a] * [b] = [a + b], the augmentation filtration by powers of the augmentation
ideal, and invariant factors of its successive quotients.

The degree map is the augmentation; its kernel I is spanned by the elements
[a] - [0].  With e the exponent of G, e([a] - [0]) lies in I^2, so e^k I
lies in I^(k+1): the ideal powers up to I^(r+1) all contain m I for
m = e^r, and are kept modulo m over the basis [a] - [0] of I, after a check
that e kills the group's generators.  Every quotient I^r / I^(r+1) is
killed by e.  Its invariant factors are taken modulo e from the rows of the
inner lattice written in coordinates of the outer one, and certified by the
index of the inner lattice in the outer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import prod
from typing import Iterable, Optional, Sequence

from .elliptic import EllipticGroup
from .errors import BudgetExceededError, CertificateError
from .exactnum import ColumnLattice, FormalSum, _add_multiple, invariant_factors_mod, xgcd


class FinAbGroup:
    """A finite abelian group with explicit elements and operations.

    Built either from an invariant-factor chain (elements are residue tuples,
    componentwise arithmetic) or from an elliptic point group.
    """

    def __init__(self, label, elements, add, neg, zero, invariant_factors, generators):
        self.label = label
        self.elements = list(elements)
        self.add = add
        self.neg = neg
        self.zero = zero
        self.invariant_factors = list(invariant_factors)
        self.generators = list(generators)
        self.index = {e: i for i, e in enumerate(self.elements)}

    @staticmethod
    def from_invariant_factors(ns: Sequence[int]) -> "FinAbGroup":
        ns = [int(n) for n in ns]
        if not ns or any(n < 1 for n in ns):
            raise ValueError("invariant factors must be positive")
        for a, b in zip(ns, ns[1:]):
            if b % a:
                raise ValueError(f"invariant factors must divide in order: {ns}")
        elements = [tuple(t) for t in iproduct(*(range(n) for n in ns))]

        def add(x, y):
            return tuple((a + b) % n for a, b, n in zip(x, y, ns))

        def neg(x):
            return tuple((-a) % n for a, n in zip(x, ns))

        zero = tuple(0 for _ in ns)
        gens = []
        for i, n in enumerate(ns):
            if n > 1:
                g = [0] * len(ns)
                g[i] = 1
                gens.append(tuple(g))
        label = "Z/" + " x Z/".join(str(n) for n in ns)
        return FinAbGroup(label, elements, add, neg, zero, ns, gens or [zero])

    @staticmethod
    def cyclic(n: int) -> "FinAbGroup":
        return FinAbGroup.from_invariant_factors([n])

    @staticmethod
    def from_elliptic(G: EllipticGroup) -> "FinAbGroup":
        inv = G.structure()
        return FinAbGroup(
            f"E(F_{G.p})", G.points, G.add, G.neg, None, inv, G.generators()
        )

    def __len__(self) -> int:
        return len(self.elements)

    def nontrivial_invariants(self) -> list[int]:
        return [n for n in self.invariant_factors if n > 1]

    def vector(self, z: FormalSum) -> list[int]:
        """Coefficients of a group-ring element, in element order."""
        if z.space is not self:
            raise ValueError("element of a different group ring")
        out = [0] * len(self)
        for k, v in z.coeffs.items():
            out[self.index[k]] = v
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
    from itertools import combinations

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
    pool = group.generators if over == "generators" else group.elements
    out = []
    for pts in iproduct(pool, repeat=r):
        g = alternating_generator(group, pts)
        if g.coeffs:
            out.append(g)
    return out


def ideal_power_lattice(group: FinAbGroup, r: int) -> ColumnLattice:
    """The lattice I^r inside the group ring, r >= 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    _, lattices = _ideal_power_lattices(group, r)
    nonzero = [a for a in group.elements if a != group.zero]
    zero_idx = group.index[group.zero]
    lat = ColumnLattice(len(group))
    for row in lattices[r - 1]:
        # sum c_k ([a_k] - [0]) in group-ring coordinates
        v = {group.index[nonzero[k]]: c for k, c in row.items()}
        v[zero_idx] = -sum(row.values())
        lat.add_generator(v)
    return lat


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
    nonzero = [a for a in group.elements if a != group.zero]
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


def _insert_mod(rows: list[dict[int, int]], v: dict[int, int], m: int) -> None:
    """Add the vector v to the lattice of an echelon modulo m, in place.

    Row j holds its pivot at column j, a divisor of m, and entries in
    [0, m) elsewhere; the lattice is the span of the rows, which contains
    m Z^n.  v is reduced at its first nonzero column: a pivot that divides
    the entry is subtracted, one that does not is replaced by the extended
    gcd combination of itself and v, whose other combination carries on.
    That other combination holds m/g times the new row of pivot g, modulo
    m and the old row's own such multiple, so the rows keep spanning m Z^n
    and their pivots multiply to the index of the lattice.
    """
    v = {k: c % m for k, c in v.items() if c % m}
    while v:
        j = min(v)
        row = rows[j]
        a, b = row[j], v[j]
        if b % a == 0:
            q = b // a
            for k, c in row.items():
                x = (v.get(k, 0) - q * c) % m
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
            continue
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        new_row, rest = {j: g}, {}
        for k in row.keys() | v.keys():
            if k == j:
                continue
            ra, rb = row.get(k, 0), v.get(k, 0)
            nv = (x * ra + y * rb) % m
            if nv:
                new_row[k] = nv
            rv = (ag * rb - bg * ra) % m
            if rv:
                rest[k] = rv
        rows[j] = new_row
        v = rest


def _coordinates_mod(
    rows: list[dict[int, int]], v: dict[int, int], m: int
) -> Optional[dict[int, int]]:
    """Nonzero coordinates {row: coordinate} of v over the rows of an echelon
    modulo m, by back-substitution with every entry reduced mod m, or None
    when v is outside the lattice."""
    w = [0] * len(rows)
    for k, c in v.items():
        w[k] = c % m
    out = {}
    for j, row in enumerate(rows):
        x = w[j]
        if not x:
            continue
        if x % row[j]:
            return None
        out[j] = q = x // row[j]
        for k, c in row.items():
            w[k] = (w[k] - q * c) % m
    return out


def spans_same_lattice(
    group: FinAbGroup, elems_a: Iterable[FormalSum], elems_b: Iterable[FormalSum]
) -> bool:
    """Double-inclusion lattice equality inside the group ring."""
    dim = len(group)
    la, lb = ColumnLattice(dim), ColumnLattice(dim)
    va = [group.vector(e) for e in elems_a]
    vb = [group.vector(e) for e in elems_b]
    for v in va:
        la.add_generator(v)
    for v in vb:
        lb.add_generator(v)
    return all(lb.contains(v) for v in va) and all(la.contains(v) for v in vb)


@dataclass(frozen=True)
class FiltrationReport:
    group_label: str
    group_invariants: tuple[int, ...]
    quotients: tuple[tuple[int, tuple[int, ...]], ...]  # (r, invariant factors)
    exactness_ok: bool  # I/I^2 matches the group's own invariants
    stabilization: Optional[int]

    def to_record(self) -> dict:
        return {
            "group": self.group_label,
            "group_invariants": list(self.group_invariants),
            "quotients": [
                {"r": r, "invariant_factors": list(fs)} for r, fs in self.quotients
            ],
            "exactness_ok": self.exactness_ok,
            "stabilization": self.stabilization,
        }


def aug_filtration(group: FinAbGroup, r_max: int) -> FiltrationReport:
    """Invariant factors of I^r / I^(r+1) for r = 1..r_max.

    The rows of I^(r+1) are written over those of I^r by back-substitution
    modulo m = e^r_max; lifts that differ by m Z^n differ by an element of
    m I, inside e I^r, so their coordinates agree mod e.  e kills every
    quotient, so its invariant factors are computed modulo e from those
    coordinates and certified by the index [I^r : I^(r+1)], the product of
    the pivots of I^(r+1) over that of I^r.  A row of I^(r+1) outside I^r
    or a failed index check raises CertificateError.
    """
    n = len(group)
    if n > 10**4:
        raise BudgetExceededError(f"|G| = {n} exceeds the 10^4 contract")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if r_max > 12:
        raise BudgetExceededError(f"r_max = {r_max} exceeds 12")
    m, lattices = _ideal_power_lattices(group, r_max)
    e = group.invariant_factors[-1]

    quotients = []
    for r in range(1, r_max + 1):
        outer, inner = lattices[r - 1], lattices[r]
        rows = []
        for v in inner:
            coords = _coordinates_mod(outer, v, m)
            if coords is None:
                raise CertificateError("I^(r+1) escaped I^r: assembly bug")
            rows.append(coords)
        facs = invariant_factors_mod(rows, len(outer), e)
        covolume_out = prod(row[j] for j, row in enumerate(outer))
        if prod(facs) * covolume_out != prod(row[j] for j, row in enumerate(inner)):
            raise CertificateError("quotient not killed by the group exponent")
        quotients.append((r, tuple(f for f in facs if f > 1)))

    exact = list(quotients[0][1]) == group.nontrivial_invariants()
    stab = None
    for i in range(1, len(quotients)):
        if all(quotients[j][1] == quotients[i][1] for j in range(i, len(quotients))):
            if quotients[i][1] == quotients[i - 1][1]:
                stab = quotients[i - 1][0]
                break
    return FiltrationReport(
        group.label,
        tuple(group.invariant_factors),
        tuple(quotients),
        exact,
        stab,
    )
