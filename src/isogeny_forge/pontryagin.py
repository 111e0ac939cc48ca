"""The augmentation filtration of the group ring Z[G] of a finite abelian
group, with the convolution product [a] * [b] = [a + b]: the invariant
factors of the successive quotients of powers of the augmentation ideal.

The degree map is the augmentation; its kernel I is spanned by the elements
[a] - [0].  For G = Z/n_1 x ... x Z/n_k, sending [g_i] to 1 + y_i gives
Z[G] = Z[y_1..y_k] / (f_1..f_k) with f_i = (1 + y_i)^(n_i) - 1, and I is
the image of (y).  So the quotients I^r / I^(r+1), r <= r_max, are read off
the truncated model Z[y] / (f_1..f_k, (y)^(r_max+1)); they depend on the
invariant factors alone, never on |G|.  Over the monomials of degree
1..r_max, ordered by degree, the products y^a f_i span a lattice L, and
I^r / I^(r+1) is the degree-r monomials modulo the degree-r part of the
echelon rows of L that pivot in degree r.  With e the exponent, e I lies in
I^2, so m = e^r_max kills the model and L is kept as an echelon modulo m
(exactnum._insert_mod).  e kills every quotient, so its invariant factors
are taken modulo e, on an echelon modulo e built by the same insertion, and
certified by the index, the product of the pivots of its block.  The group
ring itself is never built here; the tests write it out element by element
(tests/group_ring.py) as the reference for small groups.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, prod
from typing import NamedTuple, Optional, Sequence

from .elliptic import EllipticGroup
from .errors import BudgetExceededError, CertificateError
from .exactnum import _insert_mod, invariant_factors_mod

# The truncated model has C(k + r_max, r_max) - 1 columns and works modulo
# e^r_max; at these bounds the dearest inputs measured took up to 1.9 s at the
# modulus bound and 0.03 s at the column bound (README, "Filtration guards").
MAX_R = 12
MAX_COLUMNS = 500
MAX_MODULUS_BITS = 512
# FinAbGroup.from_elliptic needs E(F_p) enumerated point by point and its
# discrete-log table built, each O(p); at rmax 12 the dearest of 28 curves with
# 0 < |a|, |b| <= 4 took 1.4-1.5 s at p = 149993 and 2.1-2.4 s at p = 199999
FILTRATION_MAX_P = 150000


def check_filtration_field(p: int) -> None:
    """Refuse E(F_p) for p > FILTRATION_MAX_P before any point is enumerated."""
    if p > FILTRATION_MAX_P:
        raise BudgetExceededError(f"p = {p} exceeds {FILTRATION_MAX_P}")


class FinAbGroup:
    """A finite abelian group of known order, given by its addition, zero,
    invariant-factor chain and generators; its elements are never listed.

    Built either from an invariant-factor chain (elements are residue tuples,
    componentwise arithmetic) or from an elliptic point group.
    """

    def __init__(self, label, order, add, zero, invariant_factors, generators):
        self.label = label
        self.order = order
        self.add = add
        self.zero = zero
        self.invariant_factors = list(invariant_factors)
        self.generators = list(generators)

    @staticmethod
    def from_invariant_factors(ns: Sequence[int]) -> "FinAbGroup":
        ns = [int(n) for n in ns]
        if not ns or any(n < 1 for n in ns):
            raise ValueError("invariant factors must be positive")
        for a, b in zip(ns, ns[1:]):
            if b % a:
                raise ValueError(f"invariant factors must divide in order: {ns}")

        def add(x, y):
            return tuple((a + b) % n for a, b, n in zip(x, y, ns))

        zero = (0,) * len(ns)
        gens = [zero[:i] + (1,) + zero[i + 1:] for i, n in enumerate(ns) if n > 1]
        label = "Z/" + " x Z/".join(str(n) for n in ns)
        return FinAbGroup(label, prod(ns), add, zero, ns, gens or [zero])

    @staticmethod
    def cyclic(n: int) -> "FinAbGroup":
        return FinAbGroup.from_invariant_factors([n])

    @staticmethod
    def from_elliptic(G: EllipticGroup) -> "FinAbGroup":
        inv = G.structure()
        return FinAbGroup(f"E(F_{G.p})", len(G), G.add, None, inv, G.generators())

    def __len__(self) -> int:
        return self.order

    def multiple(self, n: int, a):
        """n a for n >= 0, by doubling."""
        out = self.zero
        while n:
            if n & 1:
                out = self.add(out, a)
            a = self.add(a, a)
            n >>= 1
        return out

    def nontrivial_invariants(self) -> list[int]:
        return [n for n in self.invariant_factors if n > 1]


class FiltrationReport(NamedTuple):
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

    The premise comes first: e kills every generator and the invariant
    factors multiply to |G|.  Each y^a f_i, |a| <= r_max - 1, is inserted
    modulo m = e^r_max over the monomials of degree 1..r_max, the columns
    ordered by ascending degree.  The degree-r block is the echelon rows
    pivoting in degree r, cut to the degree-r columns; its factors modulo e
    must multiply to its pivots, the index [I^r : I^(r+1)], or
    CertificateError is raised.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if r_max > MAX_R:
        raise BudgetExceededError(f"r_max = {r_max} exceeds {MAX_R}")
    ns = group.nontrivial_invariants()
    k = len(ns)
    width = comb(k + r_max, r_max) - 1  # monomials of degree 1..r_max
    if width > MAX_COLUMNS:
        raise BudgetExceededError(
            f"{width} monomials of degree 1..{r_max} in {k} variables "
            f"exceed {MAX_COLUMNS} columns"
        )
    e = group.invariant_factors[-1]
    m = e**r_max
    if m.bit_length() > MAX_MODULUS_BITS:
        raise BudgetExceededError(
            f"the modulus e^{r_max} has {m.bit_length()} bits, over {MAX_MODULUS_BITS}"
        )
    if any(group.multiple(e, g) != group.zero for g in group.generators):
        raise CertificateError("the group exponent does not kill a generator")
    if prod(group.invariant_factors) != group.order:
        raise CertificateError(f"the invariant factors do not multiply to |G| = {group.order}")

    monomials = [a for d in range(1, r_max + 1) for a in combinations_with_replacement(range(k), d)]
    column = {a: j for j, a in enumerate(monomials)}
    rows = [{j: m} for j in range(width)]
    # the deepest multipliers first: their short rows keep the echelon sparse
    for a in reversed([()] + [a for a in monomials if len(a) < r_max]):
        for i, n in enumerate(ns):
            # y^a ((1 + y_i)^n - 1), cut above degree r_max
            top = min(n, r_max - len(a))
            _insert_mod(rows, {column[tuple(sorted(a + (i,) * t))]: comb(n, t)
                               for t in range(1, top + 1)}, m)

    quotients = []
    lo = 0
    for r in range(1, r_max + 1):
        hi = lo + comb(k + r - 1, r)
        block = [{j - lo: x for j, x in rows[i].items() if j < hi} for i in range(lo, hi)]
        facs = invariant_factors_mod(block, hi - lo, e)
        if prod(facs) != prod(rows[i][i] for i in range(lo, hi)):
            raise CertificateError("quotient not killed by the group exponent")
        quotients.append((r, tuple(f for f in facs if f > 1)))
        lo = hi

    exact = list(quotients[0][1]) == ns
    # the start of the final run of equal quotients, if it is at least two long
    s = len(quotients) - 1
    while s and quotients[s - 1][1] == quotients[s][1]:
        s -= 1
    stab = quotients[s][0] if s < len(quotients) - 1 else None
    return FiltrationReport(
        group.label,
        tuple(group.invariant_factors),
        tuple(quotients),
        exact,
        stab,
    )
