"""Group rings of finite abelian groups with the convolution product
[a] * [b] = [a + b], the augmentation filtration by powers of the augmentation
ideal, and invariant factors of its successive quotients.

The degree map is the augmentation; its kernel I is spanned by the elements
[a] - [0], and I^r is computed as an integer lattice inside the group ring.
With e the exponent of G, e([a] - [0]) lies in I^2, so e I^r lies in I^{r+1}
and every quotient I^r / I^{r+1} is killed by e.  Its invariant factors are
taken modulo e from the basis of the inner lattice written in coordinates of
the outer one, and certified by the index of the inner lattice in the outer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import prod
from typing import Iterable, Optional, Sequence

from .elliptic import EllipticGroup
from .errors import BudgetExceededError, CertificateError
from .exactnum import ColumnLattice, FormalSum, _add_multiple, invariant_factors_mod


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
    return _ideal_power_lattices(group, r)[r - 1]


def _ideal_power_lattices(group: FinAbGroup, r_max: int) -> list[ColumnLattice]:
    """[I^1, ..., I^(r_max + 1)] as echelon lattices.

    I^1 is spanned by all [a] - [0]; deeper powers multiply the previous
    basis by the generator differences.  That suffices: a product of r+1
    arbitrary differences expands integrally into products of generator
    differences of length >= r+1, and one generator factor can always be
    split off the front of such a word.
    """
    n = len(group)
    dim = n
    zero_idx = group.index[group.zero]
    L1 = ColumnLattice(dim)
    for a in group.elements:
        if a == group.zero:
            continue
        v = [0] * dim
        v[group.index[a]] = 1
        v[zero_idx] -= 1
        L1.add_generator(v)
    lattices = [L1]
    gen_diffs = []
    for s in group.generators:
        d = {group.index[s]: 1}
        d[zero_idx] = d.get(zero_idx, 0) - 1
        gen_diffs.append(d)
    for _ in range(r_max):
        prev = lattices[-1]
        nxt = ColumnLattice(dim)
        for row in prev.basis:
            for diff in gen_diffs:
                conv = [0] * dim
                for j, c in enumerate(row):
                    if not c:
                        continue
                    e = group.elements[j]
                    for k_idx, dc in diff.items():
                        s = group.add(e, group.elements[k_idx])
                        conv[group.index[s]] += c * dc
                nxt.add_generator(conv)
        lattices.append(nxt)
    return lattices


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

    I^1 is spanned by all [a] - [0]; each deeper power is the previous basis
    multiplied by the generator differences (multilinearity makes this span
    the full ideal power).  The invariant factors of each quotient are
    computed modulo the group exponent e, which is exact when e kills the
    quotient.  That premise is certified: the factors must multiply to the
    index [I^r : I^(r+1)], read off the two echelon bases, which share their
    pivot columns.  A free summand, a lattice that escapes the previous one
    or a failed index check raises CertificateError.
    """
    n = len(group)
    if n > 10**4:
        raise BudgetExceededError(f"|G| = {n} exceeds the 10^4 contract")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if r_max > 12:
        raise BudgetExceededError(f"r_max = {r_max} exceeds 12")
    lattices = _ideal_power_lattices(group, r_max)
    e = group.invariant_factors[-1]

    quotients = []
    for r in range(1, r_max + 1):
        outer, inner = lattices[r - 1], lattices[r]
        rows = []
        for v in inner.basis:
            coords = outer.basis_coordinates(v)
            if coords is None:
                raise CertificateError("I^(r+1) escaped I^r: assembly bug")
            rows.append(coords)
        if inner.rank() != outer.rank():
            raise CertificateError("free summand in a filtration quotient")
        lead_out, lead_in = outer.leading_entries(), inner.leading_entries()
        if lead_out.keys() != lead_in.keys():
            raise CertificateError("I^r and I^(r+1) have different pivot columns")
        facs = invariant_factors_mod(rows, e)
        # [I^r : I^(r+1)] = prod |leading entries of I^(r+1)| / prod |those of I^r|
        covolume_out = prod(abs(c) for c in lead_out.values())
        if prod(facs) * covolume_out != prod(abs(c) for c in lead_in.values()):
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
