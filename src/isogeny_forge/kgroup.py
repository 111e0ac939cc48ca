"""Formal symbol algebra over E(F_q) with machine-checked derivations.

Symbols {a_1, ..., a_r} over a finite symbol universe are modeled as integer
vectors; relation families (slot bilinearity, plus the two reciprocity
families coming from vertical lines and chords) generate an integer lattice,
and statements like skew-symmetry become lattice-membership questions with
exact, re-verifiable certificates.

Nothing here claims to compute a full symbol group: success certifies that a
target lies in the span of the explicitly generated relations, and failure is
a statement about that generated subset only (certified by echelon reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import isqrt
from typing import Iterable, Optional, Sequence

from .elliptic import EllipticGroup, Point
from .errors import BudgetExceededError, CertificateError, InvalidConfigurationError
from .exactnum import ColumnLattice, FormalSum, _add_multiple

PLUS = "plus"
MINUS = "minus"

# The skew prover's cost follows #E(F_q) = n alone (n^2 symbols, about n^3
# bilinear columns, n(n+1)/2 targets; r only lengthens the fixed tail).  With
# --convention both, the dearest of seven curves took 3.1 s at n = 40 and
# 4.2 s at n = 44, against the 5 s a job may take.
SKEW_MAX_POINTS = 40


def _curve_key(G: EllipticGroup):
    return (G.p, G.a1, G.a2, G.a3, G.a4, G.a6)


class SymbolUniverse:
    """All symbols whose enumerated slots range over the given point groups,
    with an optional tuple of fixed tail points (never enumerated)."""

    def __init__(self, slot_groups: Sequence[EllipticGroup], tail: tuple = ()):
        if not slot_groups:
            raise ValueError("need at least one enumerated slot")
        self.slot_groups = tuple(slot_groups)
        self.tail = tuple(tail)
        self.sizes = tuple(len(g.points) for g in slot_groups)
        self.dimension = 1
        for n in self.sizes:
            self.dimension *= n
        self._strides = []
        acc = 1
        for n in reversed(self.sizes):
            self._strides.append(acc)
            acc *= n
        self._strides.reverse()

    @property
    def r(self) -> int:
        return len(self.slot_groups) + len(self.tail)

    def index_of(self, pts: Sequence[Point]) -> int:
        idx = 0
        for g, s, pt in zip(self.slot_groups, self._strides, pts):
            idx += g.index[pt] * s
        return idx

    def same_universe(self, other: "SymbolUniverse") -> bool:
        return (
            tuple(map(_curve_key, self.slot_groups))
            == tuple(map(_curve_key, other.slot_groups))
            and self.tail == other.tail
        )

    def symbol(self, pts: Sequence[Point], c: int = 1) -> FormalSum:
        """c times the symbol whose enumerated slots hold pts."""
        return FormalSum.term(self, self.index_of(pts), c)


@dataclass(frozen=True)
class RelationColumn:
    kind: str  # "bilinear" | "wr-vertical" | "wr-line"
    data: tuple
    vector: tuple[tuple[int, int], ...]  # sorted sparse (index, coeff)

    def as_dict(self) -> dict[int, int]:
        return dict(self.vector)


def _column(universe: SymbolUniverse, entries: Iterable[tuple[Sequence[Point], int]],
            kind: str, data: tuple) -> RelationColumn:
    acc: dict[int, int] = {}
    for pts, c in entries:
        k = universe.index_of(pts)
        acc[k] = acc.get(k, 0) + c
    vec = tuple(sorted((k, v) for k, v in acc.items() if v))
    return RelationColumn(kind, data, vec)


def bilinear_relations(
    universe: SymbolUniverse, slot: int, dedupe: bool = True
) -> list[RelationColumn]:
    """Columns { ..., a+a', ... } - { ..., a, ... } - { ..., a', ... } for
    every pair (a, a') in the slot and every combination of the other slots.

    The raw family ranges over ordered pairs; with dedupe the (a', a) copy and
    vanishing columns are dropped.  Columns are built from point indices: the
    slot's entries of a pair, sorted once, and each combination of the other
    slots as an offset into the universe (the slot's stride keeps the order).
    """
    G = universe.slot_groups[slot]
    pts = G.points
    n = len(pts)
    stride = universe._strides[slot]
    others = [
        [(pt, k * s) for k, pt in enumerate(g.points)]
        for i, (g, s) in enumerate(zip(universe.slot_groups, universe._strides))
        if i != slot
    ]
    combos = [
        (sum(off for _, off in combo), tuple(pt for pt, _ in combo))
        for combo in iproduct(*others)
    ]
    out = []
    seen = set()
    for i, a in enumerate(pts):
        for i2 in range(i if dedupe else 0, n):
            a2 = pts[i2]
            acc = {G.index[G.add(a, a2)]: 1}
            for k in (i, i2):
                acc[k] = acc.get(k, 0) - 1
            pattern = sorted((k * stride, c) for k, c in acc.items() if c)
            if not pattern:
                continue
            for off, rest in combos:
                vec = tuple((off + k, c) for k, c in pattern)
                if dedupe:
                    if vec in seen:
                        continue
                    seen.add(vec)
                out.append(RelationColumn("bilinear", (slot, a, a2, rest), vec))
    return out


def _require_pair_slots(universe: SymbolUniverse) -> EllipticGroup:
    if len(universe.slot_groups) < 2:
        raise InvalidConfigurationError("need two enumerated slots")
    g0, g1 = universe.slot_groups[0], universe.slot_groups[1]
    if _curve_key(g0) != _curve_key(g1):
        raise InvalidConfigurationError("first two slots must carry the same curve")
    return g0


def wr_vertical(universe: SymbolUniverse, a: Point) -> RelationColumn:
    """{a,a,X} + {-a,-a,X} - 2{0,0,X}: the reciprocity instance of the
    function x - x(a), whose zeros are a and -a with a double pole at 0."""
    G = _require_pair_slots(universe)
    if a is not None and a not in G.index:
        raise InvalidConfigurationError(f"{a} is not a point of the slot curve")
    rest = [g.points[0] for g in universe.slot_groups[2:]]
    na = G.neg(a)
    return _column(
        universe,
        [
            ([a, a] + rest, 1),
            ([na, na] + rest, 1),
            ([None, None] + rest, -2),
        ],
        "wr-vertical",
        (a,),
    )


def wr_line(
    universe: SymbolUniverse, a1: Point, a2: Point, convention: str = MINUS
) -> RelationColumn:
    """{a1,a1,X} + {a2,a2,X} + {s,s,X} - 3{0,0,X} with s the configured third
    point of the chord through a1 and a2.

    The chord-law value is s = -(a1+a2) (convention "minus"); the alternative
    s = a1+a2 ("plus") is selectable because both routes derive the same
    skew-symmetry targets.
    """
    if convention not in (PLUS, MINUS):
        raise InvalidConfigurationError(f"unknown convention {convention!r}")
    G = _require_pair_slots(universe)
    rest = [g.points[0] for g in universe.slot_groups[2:]]
    total = G.add(a1, a2)
    s = total if convention == PLUS else G.neg(total)
    return _column(
        universe,
        [
            ([a1, a1] + rest, 1),
            ([a2, a2] + rest, 1),
            ([s, s] + rest, 1),
            ([None, None] + rest, -3),
        ],
        "wr-line",
        (a1, a2, s, convention),
    )


# -- membership ------------------------------------------------------------------


class RelationLattice:
    """Integer span of relation columns over a symbol universe.

    The columns are kept, and inserted, by descending last index (stably), so
    the engine's pivots appear from the right: a new pivot column is then
    rarely held by an earlier row, and the Hermite-form restore after each
    insertion has little to back-substitute.  Certificates index this order.
    """

    def __init__(self, universe: SymbolUniverse, columns: Sequence[RelationColumn]):
        self.universe = universe
        self.columns = sorted(
            columns, key=lambda col: col.vector[-1][0] if col.vector else -1, reverse=True
        )
        self.engine = ColumnLattice(universe.dimension)
        for col in self.columns:
            self.engine.add_generator(col.as_dict())

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    coefficients: Optional[dict[int, int]]  # column index -> multiplier

    @property
    def certificate_length(self) -> int:
        return len(self.coefficients or {})


def prove_member(target: FormalSum, lattice: RelationLattice) -> MembershipResult:
    """Certified membership of target in the relation lattice.

    A positive answer carries exact integer multipliers over the columns and
    is re-verified by substitution; a negative answer is certified by the
    nonzero canonical remainder of echelon reduction.
    """
    if not target.space.same_universe(lattice.universe):
        raise ValueError("target and lattice live on different symbol universes")
    rem, coeffs = lattice.engine.reduce(target.coeffs)
    if any(rem):
        return MembershipResult(False, None)
    rebuilt: dict[int, int] = {}
    for ci, mult in coeffs.items():
        for k, v in lattice.columns[ci].vector:
            rebuilt[k] = rebuilt.get(k, 0) + mult * v
    rebuilt = {k: v for k, v in rebuilt.items() if v}
    if rebuilt != target.coeffs:
        raise CertificateError("certificate failed re-verification")
    return MembershipResult(True, dict(coeffs))


# -- the skew-symmetry prover ------------------------------------------------------


@dataclass
class SkewReport:
    p: int
    curve: tuple
    r: int
    convention: str
    n_points: int
    n_columns: int
    pairs_failed: list
    two_torsion_failed: list
    negative_control_pair: Optional[tuple]
    certificate_lengths: dict  # pair -> length

    @property
    def pairs_proved(self) -> int:
        return len(self.certificate_lengths)

    @property
    def two_torsion_proved(self) -> int:
        return self.n_points - len(self.two_torsion_failed)

    @property
    def negative_control_certified(self) -> bool:
        return self.negative_control_pair is not None

    @property
    def all_proved(self) -> bool:
        return not self.pairs_failed and not self.two_torsion_failed

    def to_record(self) -> dict:
        """The summary of the run (the outputs of a kgroup-skew record)."""
        return {
            "n_points": self.n_points,
            "generators": self.n_columns,
            "pairs_proved": self.pairs_proved,
            "pairs_failed": [list(map(str, pr)) for pr in self.pairs_failed],
            "two_torsion_proved": self.two_torsion_proved,
            "negative_control": {
                "pair": [str(x) for x in (self.negative_control_pair or ())],
                "certified": self.negative_control_certified,
            },
            "all_proved": self.all_proved,
        }

    def to_records(self) -> list[dict]:
        """One record per target (the outputs of kgroup-skew-target records)."""
        recs = []
        base = {
            "p": self.p,
            "r": self.r,
            "convention": self.convention,
            "generators": self.n_columns,
        }
        for pair, length in self.certificate_lengths.items():
            recs.append(
                dict(
                    base,
                    target=f"skew{pair}",
                    certificate_length=length,
                    status="proved",
                )
            )
        for pair in self.pairs_failed:
            recs.append(dict(base, target=f"skew{pair}", status="not-derivable"))
        recs.append(
            dict(
                base,
                target="negative-control",
                pair=repr(self.negative_control_pair),
                status="certified-non-member"
                if self.negative_control_certified
                else "not-found",
            )
        )
        return recs


def check_skew_field(q: int) -> None:
    """Refuse F_q before any point is enumerated when the Hasse bound
    #E(F_q) >= q + 1 - 2 sqrt(q) already exceeds SKEW_MAX_POINTS."""
    least = q + 1 - isqrt(4 * q)
    if least > SKEW_MAX_POINTS:
        raise BudgetExceededError(
            f"#E(F_{q}) >= {least} exceeds {SKEW_MAX_POINTS} points (Hasse bound)"
        )


def assemble_skew_lattice(
    G: EllipticGroup, r: int, tail: tuple = (), convention: str = MINUS
) -> RelationLattice:
    """Bilinearity on the first two slots plus both reciprocity families, over
    a universe with two enumerated slots and a fixed tail of length r - 2."""
    if r < 2:
        raise InvalidConfigurationError("need r >= 2")
    n = len(G.points)
    if n > SKEW_MAX_POINTS:
        raise BudgetExceededError(f"#E(F_{G.p}) = {n} exceeds {SKEW_MAX_POINTS} points")
    if len(tail) != r - 2:
        raise InvalidConfigurationError(f"tail must have length {r - 2}")
    universe = SymbolUniverse([G, G], tail)
    cols: list[RelationColumn] = []
    cols.extend(bilinear_relations(universe, 0))
    cols.extend(bilinear_relations(universe, 1))
    seen = set()
    for a in G.points:
        col = wr_vertical(universe, a)
        if col.vector and col.vector not in seen:
            seen.add(col.vector)
            cols.append(col)
    for i, a1 in enumerate(G.points):
        for a2 in G.points[i:]:
            col = wr_line(universe, a1, a2, convention)
            if col.vector and col.vector not in seen:
                seen.add(col.vector)
                cols.append(col)
    return RelationLattice(universe, cols)


def prove_skew(
    G: EllipticGroup, r: int = 2, tail: Optional[tuple] = None, convention: str = MINUS
) -> SkewReport:
    """Certify {a1,a2,X} + {a2,a1,X} = 0 and 2{a,a,X} = 0 against the
    generated relation lattice, for every ordered pair of E(F_q) points.
    X is the fixed tail of r - 2 points, by default G.points[1] repeated.

    Both orders of a pair share one target, and the diagonal target
    {a,a,X} + {a,a,X} is 2{a,a,X}, so each of the n(n+1)/2 distinct targets
    is proved once.  Also locates one pair whose lone symbol {a1,a2,X} is
    certified to lie outside the lattice (so the certified relations are not
    degenerate).
    """
    if tail is None:
        tail = (G.points[1],) * (r - 2) if r > 2 else ()
    lattice = assemble_skew_lattice(G, r, tail, convention)
    universe = lattice.universe
    proofs = {}  # (i, j) with i <= j -> certificate length, None if not derivable
    failed = []
    lengths = {}
    for i, a1 in enumerate(G.points):
        for j, a2 in enumerate(G.points):
            if j < i:
                length = proofs[j, i]
            else:
                res = prove_member(universe.symbol([a1, a2]) + universe.symbol([a2, a1]), lattice)
                length = proofs[i, j] = res.certificate_length if res.member else None
            key = (_pt(a1), _pt(a2))
            if length is None:
                failed.append(key)
            else:
                lengths[key] = length
    control_pair = None
    for a1 in G.points:
        if a1 is None:
            continue
        for a2 in G.points:
            if a2 is None or a2 == a1:
                continue
            if not prove_member(universe.symbol([a1, a2]), lattice).member:
                control_pair = (_pt(a1), _pt(a2))
                break
        if control_pair is not None:
            break
    return SkewReport(
        p=G.p,
        curve=(G.a1, G.a2, G.a3, G.a4, G.a6),
        r=r,
        convention=convention,
        n_points=len(G.points),
        n_columns=len(lattice),
        pairs_failed=failed,
        two_torsion_failed=[_pt(a) for i, a in enumerate(G.points) if proofs[i, i] is None],
        negative_control_pair=control_pair,
        certificate_lengths=lengths,
    )


def _pt(P: Point):
    return "0" if P is None else P


# -- soundness spot checks ----------------------------------------------------------


def relation_is_instance(universe: SymbolUniverse, col: RelationColumn) -> bool:
    """Independently re-derive the column from its provenance.

    Bilinear columns are rebuilt from the slot group law; reciprocity columns
    are checked against the actual zero set of the generating function on the
    curve (vertical line x - x(a), or the chord through the two points), so a
    column that does not match an honest divisor is rejected.
    """
    G = universe.slot_groups[0]
    rest = [g.points[0] for g in universe.slot_groups[2:]]
    if col.kind == "bilinear":
        slot, a, a2, others = col.data
        Gs = universe.slot_groups[slot]
        s = Gs.add(a, a2)
        base: list[Point] = [None] * len(universe.slot_groups)
        oi = iter(others)
        for j in range(len(universe.slot_groups)):
            if j != slot:
                base[j] = next(oi)

        def with_slot(x):
            t = list(base)
            t[slot] = x
            return t

        want = _column(
            universe,
            [(with_slot(s), 1), (with_slot(a), -1), (with_slot(a2), -1)],
            "", (),
        )
        return want.vector == col.vector
    if col.kind == "wr-vertical":
        (a,) = col.data
        if a is None:
            return col.vector == ()
        zeros = [P for P in G.points if P is not None and P[0] == a[0]]
        if set(zeros) != {a, G.neg(a)}:
            return False
        mult = 2 if a == G.neg(a) else 1
        entries = [([z, z] + rest, mult) for z in sorted(set(zeros))]
        entries.append(([None, None] + rest, -2))
        return _column(universe, entries, "", ()).vector == col.vector
    if col.kind == "wr-line":
        a1, a2, s, convention = col.data
        if convention != MINUS:
            # the alternative sign is a configured variant, not a divisor
            return False
        third = G.neg(G.add(a1, a2))
        if s != third:
            return False
        want = _column(
            universe,
            [
                ([a1, a1] + rest, 1),
                ([a2, a2] + rest, 1),
                ([third, third] + rest, 1),
                ([None, None] + rest, -3),
            ],
            "", (),
        )
        if want.vector != col.vector:
            return False
        return _chord_zero_set_matches(G, a1, a2, third)
    return False


def _chord_zero_set_matches(G: EllipticGroup, a1: Point, a2: Point, third: Point) -> bool:
    """The affine zero set of the chord function must be exactly the nonzero
    members of {a1, a2, third}."""
    pts = [P for P in (a1, a2, third) if P is not None]
    if not pts:
        return True  # constant configuration, nothing to check
    p = G.p
    if len(pts) < 3:
        # vertical line x - x(c) through c and -c
        c = pts[0]
        zeros = {P for P in G.points if P is not None and P[0] == c[0]}
        return zeros == set(pts)
    if a1 != a2:
        if a1[0] == a2[0]:
            # vertical chord: third must be 0, handled above
            return False
        lam = (a2[1] - a1[1]) * pow(a2[0] - a1[0], -1, p) % p
    else:
        den = (2 * a1[1] + G.a1 * a1[0] + G.a3) % p
        if den == 0:
            return False  # tangent at a 2-torsion point is vertical
        lam = (3 * a1[0] ** 2 + 2 * G.a2 * a1[0] + G.a4 - G.a1 * a1[1]) * pow(den, -1, p) % p
    nu = (a1[1] - lam * a1[0]) % p
    zeros = {
        P
        for P in G.points
        if P is not None and (P[1] - lam * P[0] - nu) % p == 0
    }
    return zeros == set(pts)


# -- diagonal map ------------------------------------------------------------------


def phi_r(universe: SymbolUniverse, cycle: Sequence[tuple[Point, int]]) -> FormalSum:
    """Linear extension of [a] -> {a, a, ..., a} onto the universe's slots.

    Requires a tail-free universe whose slots all carry one curve (the
    diagonal symbol constrains every slot).
    """
    if universe.tail:
        raise InvalidConfigurationError("diagonal symbols need a tail-free universe")
    keys = {_curve_key(g) for g in universe.slot_groups}
    if len(keys) != 1:
        raise InvalidConfigurationError("diagonal symbols need equal slot curves")
    out = FormalSum(universe)
    nslots = len(universe.slot_groups)
    for pt, mult in cycle:
        out = out + universe.symbol([pt] * nslots, mult)
    return out


# -- product decomposition -----------------------------------------------------------


ProductPoint = tuple  # one Point per coordinate curve


def product_zero(d: int) -> ProductPoint:
    return (None,) * d


def embed(i: int, x: Point, d: int) -> ProductPoint:
    t = [None] * d
    t[i] = x
    return tuple(t)


def project(i: int, P: ProductPoint) -> Point:
    return P[i]


def product_add(groups: Sequence[EllipticGroup], P: ProductPoint, Q: ProductPoint) -> ProductPoint:
    return tuple(g.add(x, y) for g, x, y in zip(groups, P, Q))


@dataclass
class DecompositionResult:
    original: tuple[ProductPoint, ...]
    terms: dict[tuple[int, ...], tuple[Point, ...]]  # index tuple -> slot points
    certificate: list[tuple[int, dict]]  # (multiplier, bilinear column dict)
    verified: bool
    roundtrip_ok: bool


def product_decompose(
    groups: Sequence[EllipticGroup], symbol_points: Sequence[ProductPoint]
) -> DecompositionResult:
    """Expand a symbol on a product of curves into coordinate symbols.

    Each slot point decomposes as a sum of its embedded coordinates; slot
    bilinearity expands the symbol into one term per index tuple (terms with a
    zero coordinate vanish).  The emitted certificate lists the bilinear
    columns used, and the decomposition identity is re-checked exactly.
    """
    d = len(groups)
    r = len(symbol_points)
    original = tuple(tuple(P) for P in symbol_points)
    work: dict[tuple[ProductPoint, ...], int] = {original: 1}
    cert: list[tuple[int, dict]] = []

    def col_dict(entries):
        acc: dict[tuple[ProductPoint, ...], int] = {}
        for tup, c in entries:
            _add_multiple(acc, {tup: c}, 1)
        return acc

    for slot in range(r):
        nxt: dict[tuple[ProductPoint, ...], int] = {}
        for tup, coeff in work.items():
            P = tup[slot]
            pieces = [embed(i, P[i], d) for i in range(d)]
            # suffix sums s_k = pieces[k] + ... + pieces[d-1]
            suffix = [pieces[-1]]
            for k in range(d - 2, -1, -1):
                suffix.append(product_add(groups, pieces[k], suffix[-1]))
            suffix.reverse()
            if suffix[0] != P:
                raise CertificateError("coordinate expansion does not resum")

            def with_slot(x):
                t = list(tup)
                t[slot] = x
                return tuple(t)

            for k in range(d - 1):
                col = col_dict(
                    [
                        (with_slot(suffix[k]), 1),
                        (with_slot(pieces[k]), -1),
                        (with_slot(suffix[k + 1]), -1),
                    ]
                )
                if col:
                    cert.append((coeff, col))
            for piece in pieces:
                _add_multiple(nxt, {with_slot(piece): coeff}, 1)
        work = nxt

    # drop terms with a vanishing coordinate: {..., 0, ...} = 0 is derivable
    # from the bilinear column at (0, 0), which equals -{..., 0, ...}
    zero = product_zero(d)
    final: dict[tuple[ProductPoint, ...], int] = {}
    for tup, coeff in work.items():
        if any(pt == zero for pt in tup):
            col = col_dict([(tup, 1), (tup, -1), (tup, -1)])
            cert.append((-coeff, col))
            continue
        final[tup] = final.get(tup, 0) + coeff

    # exact re-verification: original = sum(final) + sum(mult * column)
    check: dict[tuple[ProductPoint, ...], int] = dict(final)
    for mult, col in cert:
        _add_multiple(check, col, mult)
    verified = check == {original: 1}

    terms: dict[tuple[int, ...], tuple[Point, ...]] = {}
    roundtrip = True
    for tup in final:
        idx = []
        comps = []
        for pt in tup:
            nz = [i for i in range(d) if pt[i] is not None]
            if len(nz) != 1:
                roundtrip = False
                break
            i = nz[0]
            x = project(i, pt)
            if embed(i, x, d) != pt:
                roundtrip = False
                break
            idx.append(i)
            comps.append(x)
        else:
            terms[tuple(idx)] = tuple(comps)
            continue
        break
    return DecompositionResult(original, terms, cert, verified, roundtrip)
