"""Formal symbol algebra over E(F_q) with machine-checked derivations.

The symbols {a, b, X} have two enumerated slots a, b in E(F_q) and a fixed
run X of r - 2 points that no relation reads, so X is left implicit and r is
only the label a report carries: {a, b, X} is the point pair (a, b), with
index i(a)*n + i(b) in Z^(n^2), i the index of a point in G.points and
n = #E(F_q).  Relation families (bilinearity in each slot, plus the two
reciprocity families coming from vertical lines and chords) generate an
integer lattice, and statements like skew-symmetry become
lattice-membership questions with exact, re-verifiable certificates.

The skew prover decides membership in E (x) E coordinates.  Modulo the
bilinear relations the two-slot symbols are E (x) E, the sum of
Z/gcd(m_i, m_j) over the invariant factors of E(F_q) = Z/m_1 x Z/m_2; it is
the finite-field, one-level shadow of the Somekawa K-group K(k; E, E).  The
discrete-log table of elliptic.discrete_log, checked again to be an
isomorphism onto Z/m_1 x Z/m_2 by the carries of the pairs the bilinear
columns add, sends {a, b, X} to the integer vector x(a) (x) x(b) of at most
four entries.  Every column's image is inserted into a Hermite-form lattice
over Z^(d^2), d <= 2, where a repeated image only takes its index; a column
is built when read (ColumnView).  Because the bilinear columns of both
slots are all present, the kernel of that map lies in the relation lattice,
so a target is a member iff its image is in the span of the column images.
A member certificate gives integer multipliers over the original columns
and is re-verified by substitution in those coordinates, against each named
column's image computed from its vector once per lattice.  Lifted by a
telescoping chain of bilinear columns, it is a certificate in the symbol
coordinates too; the tests do that lift and check it there
(tests/test_kgroup.py).  A nonzero remainder certifies a non-member.

Nothing here claims to compute a full symbol group: success certifies that a
target lies in the span of the explicitly generated relations, and failure is
a statement about that generated subset only (certified by echelon reduction).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product as iproduct
from math import isqrt
from typing import Iterable, NamedTuple, Optional

from .elliptic import EllipticGroup, Point, discrete_log
from .errors import BudgetExceededError, CertificateError, InvalidConfigurationError
from .exactnum import ColumnLattice, _add_multiple

PLUS = "plus"
MINUS = "minus"

# The skew prover's cost follows #E(F_q) = n alone (about n^3 add_generator
# calls, one per bilinear column, and n(n+1)/2 targets; r is a label and costs
# nothing).  Only the distinct column images reach the lattice engine:
# about 1.4k of the 126k calls at n = 40 with --convention both.  The dearest
# of seven curves took 0.10-0.12 s at n = 40 and 0.12-0.21 s at n = 44
# in process (README, "Skew guard"), against the 5 s a job may take; the bound stays
# while the calls grow as n^3.
SKEW_MAX_POINTS = 40


class RelationColumn(NamedTuple):
    """One relation.  Reciprocity columns are built with their lattice; a
    bilinear column is built by ColumnView when it is read."""

    kind: str  # "bilinear" | "wr-vertical" | "wr-line"
    data: tuple
    vector: tuple[tuple[int, int], ...]  # sorted sparse (index, coeff)


def _column(G: EllipticGroup, entries: Iterable[tuple[tuple[Point, Point], int]],
            kind: str, data: tuple) -> RelationColumn:
    """The column sum c {a, b, X} over ((a, b), c) entries."""
    n, index = len(G.points), G.index
    acc: dict[int, int] = {}
    for (a, b), c in entries:
        k = index[a] * n + index[b]
        acc[k] = acc.get(k, 0) + c
    vec = tuple(sorted((k, v) for k, v in acc.items() if v))
    return RelationColumn(kind, data, vec)


def _sum_table(G: EllipticGroup) -> list[list[int]]:
    """s[i][j] is the index of points[i] + points[j], from one addition per
    unordered pair."""
    pts, index = G.points, G.index
    n = len(pts)
    s = [[0] * n for _ in range(n)]
    for i, a in enumerate(pts):
        for j in range(i, n):
            s[i][j] = s[j][i] = index[G.add(a, pts[j])]
    return s


def _bilinear_blocks(n: int, slot: int, sums: list[list[int]]) -> list[tuple]:
    """(slot, i, i2, pattern) for each pair (a, a') = (points[i], points[i2]),
    i <= i2, of an n-point group whose bilinear columns
    {a+a', b} - {a, b} - {a', b} (slot 0) or {b, a+a'} - {b, a} - {b, a'}
    (slot 1) are kept: pattern holds the sorted (index, coefficient)
    entries of the column at b = 0, and sums is the group's _sum_table.
    The (a', a) copy and repeated columns are dropped (the pairs (0, a')
    all give -{0, b}); two columns of a slot are equal exactly when their
    patterns and points b are."""
    stride = n if slot == 0 else 1
    blocks = []
    seen = set()
    for i in range(n):
        for i2 in range(i, n):
            acc = {sums[i][i2]: 1}
            for k in (i, i2):
                acc[k] = acc.get(k, 0) - 1
            # the coefficients sum to -1, so the pattern is never empty
            pattern = tuple(sorted((k * stride, c) for k, c in acc.items() if c))
            if pattern not in seen:
                seen.add(pattern)
                blocks.append((slot, i, i2, pattern))
    return blocks


class ColumnView(Sequence):
    """Relation columns by index, each built only when it is read: the
    bilinear columns of the blocks in turn, then the explicit columns.

    A block (slot, i, i2, pattern) of _bilinear_blocks stands for n columns,
    one per point b = points[t] of the other slot, in point order: the
    pattern shifted by t (slot 0) or t*n (slot 1).  A skew run has about n^3
    bilinear columns, and only certificate checks read any of them.
    """

    def __init__(self, G: EllipticGroup, blocks: Sequence[tuple],
                 explicit: Iterable[RelationColumn] = ()):
        self.group = G
        self._blocks = blocks
        self._explicit = tuple(explicit)
        self._n_bilinear = len(G.points) * len(blocks)

    def __len__(self) -> int:
        return self._n_bilinear + len(self._explicit)

    def __getitem__(self, ci):
        ci = range(len(self))[ci]  # a slice gives a range; IndexError past either end
        if isinstance(ci, range):
            return [self[k] for k in ci]
        if ci >= self._n_bilinear:
            return self._explicit[ci - self._n_bilinear]
        pts = self.group.points
        n = len(pts)
        b, t = divmod(ci, n)
        slot, i, i2, pattern = self._blocks[b]
        off = t if slot == 0 else t * n
        return RelationColumn("bilinear", (slot, pts[i], pts[i2], pts[t]),
                              tuple([(off + k, c) for k, c in pattern]))


def wr_vertical(G: EllipticGroup, a: Point) -> RelationColumn:
    """{a,a,X} + {-a,-a,X} - 2{0,0,X}: the reciprocity instance of the
    function x - x(a), whose zeros are a and -a with a double pole at 0."""
    if a is not None and a not in G.index:
        raise InvalidConfigurationError(f"{a} is not a point of the slot curve")
    na = G.neg(a)
    return _column(G, [((a, a), 1), ((na, na), 1), ((None, None), -2)],
                   "wr-vertical", (a,))


def wr_line(G: EllipticGroup, a1: Point, a2: Point, convention: str = MINUS) -> RelationColumn:
    """{a1,a1,X} + {a2,a2,X} + {s,s,X} - 3{0,0,X} with s the configured third
    point of the chord through a1 and a2.

    The chord-law value is s = -(a1+a2) (convention "minus"); the alternative
    s = a1+a2 ("plus") is selectable because both routes derive the same
    skew-symmetry targets.
    """
    if convention not in (PLUS, MINUS):
        raise InvalidConfigurationError(f"unknown convention {convention!r}")
    total = G.add(a1, a2)
    s = total if convention == PLUS else G.neg(total)
    return _column(G, [((a1, a1), 1), ((a2, a2), 1), ((s, s), 1), ((None, None), -3)],
                   "wr-line", (a1, a2, s, convention))


# -- membership in E (x) E coordinates ----------------------------------------------


class SkewBilinear:
    """The part of a skew relation lattice that both conventions share: the
    group G, the label r of the symbols {a, b, X}, the discrete-log map
    x: E(F_q) -> Z/m_1 x Z/m_2 of elliptic.discrete_log, checked again here
    to be an isomorphism, and the deduplicated bilinear columns of both
    slots.

    The symbol {a, b, X} maps to x(a) (x) x(b) in Z^(d^2), d <= 2 the number
    of moduli: coordinate s*d + t holds x_s(a) x_t(b), the coordinates taken
    as integers in [0, m_s).  Modulo gcd(m_s, m_t) these are the coordinates
    of a (x) b in E (x) E.  The bilinear column of (a, a') in slot 0 maps to
    -carry(a, a') (x) x(b), and in slot 1 to -x(b) (x) carry(a, a'), where
    carry = x(a) + x(a') - x(a + a') has entries 0 or m_s: zero unless a
    coordinate wraps.  The map is certified by the carries: x must be a
    bijection, and every carry of the pairs the bilinear columns add must
    be 0 mod m, else CertificateError.

    The columns are kept as their blocks (see ColumnView), one per distinct
    pair of the slot, for each of the two slots.  A carry takes at most 2^d
    values, so the column images are built once, as at most 2^(d+1) rows of
    one image per point b of the other slot, in point order, and each block
    names its row.  No column or image is stored per column.
    """

    def __init__(self, G: EllipticGroup, r: int = 2):
        if r < 2:
            raise InvalidConfigurationError("need r >= 2")
        n = len(G.points)
        if n > SKEW_MAX_POINTS:
            raise BudgetExceededError(f"#E(F_{G.p}) = {n} exceeds {SKEW_MAX_POINTS} points")
        self.group, self.r = G, r
        self.moduli, self.coords = discrete_log(G)
        coords, moduli = self.coords, self.moduli
        if len(set(coords)) != n or set(coords) != set(iproduct(*map(range, moduli))):
            raise CertificateError("discrete-log table is not a bijection")
        sums = _sum_table(G)
        carries = [[()] * n for _ in range(n)]
        for i, x in enumerate(coords):
            for i2 in range(i, n):
                c = tuple(u + v - w for u, v, w in zip(x, coords[i2], coords[sums[i][i2]]))
                if any(u % m for u, m in zip(c, moduli)):
                    raise CertificateError("discrete-log table is not a homomorphism")
                carries[i][i2] = c
        rows: dict[tuple, list[dict[int, int]]] = {}
        self.blocks = [b for slot in (0, 1) for b in _bilinear_blocks(n, slot, sums)]
        self.image_rows: list[list[dict[int, int]]] = []  # one per block of n columns
        for slot, i, i2, _ in self.blocks:
            key = (slot, carries[i][i2])
            row = rows.get(key)
            if row is None:
                row = rows[key] = [self._carry_image(slot, key[1], xb) for xb in coords]
            self.image_rows.append(row)

    @property
    def dimension(self) -> int:
        return len(self.moduli) ** 2

    def _carry_image(self, slot: int, carry: tuple, xb: tuple) -> dict[int, int]:
        d = len(self.moduli)
        left, right = (carry, xb) if slot == 0 else (xb, carry)
        return {s * d + t: -u * v for s, u in enumerate(left) if u
                for t, v in enumerate(right) if v}

    def image(self, entries: Iterable[tuple[int, int]]) -> dict[int, int]:
        """The sum of c * x(a) (x) x(b) over (index of {a, b, X}, c) entries."""
        n, d, coords = len(self.coords), len(self.moduli), self.coords
        out: dict[int, int] = {}
        for k, c in entries:
            i, j = divmod(k, n)
            for s, u in enumerate(coords[i]):
                if u:
                    for t, v in enumerate(coords[j]):
                        if v:
                            out[s * d + t] = out.get(s * d + t, 0) + c * u * v
        return {k: v for k, v in out.items() if v}


class RelationLattice:
    """The span L in Z^(n^2) of a skew run's relation columns, each symbol
    {a, b, X} indexed by its point pair (a, b), decided in E (x) E
    coordinates.

    The engine is a ColumnLattice over Z^(d^2), d <= 2, holding the image of
    every column under {a, b, X} -> x(a) (x) x(b) (see SkewBilinear), the
    bilinear columns first; its generator indices are the column indices,
    and columns is a ColumnView that builds a column when it is read.
    column_image computes a column's image from its vector the first time a
    certificate names it, and keeps it for the lattice's later certificates;
    the images given to the engine never fill it, so the re-verification
    checks them.  The bilinear columns of both slots span the kernel K of
    the map from Z^(n^2) onto E (x) E.  That map is the image followed by
    reduction mod gcd(m_s, m_t), so the kernel of the image lies in K,
    inside L.  A target is therefore in L iff its image is in the span of
    the column images.
    """

    def __init__(self, bilinear: SkewBilinear, reciprocity: Sequence[RelationColumn]):
        self.bilinear = bilinear
        self.columns = ColumnView(bilinear.group, bilinear.blocks, reciprocity)
        self.engine = ColumnLattice(bilinear.dimension)
        for row in bilinear.image_rows:
            for image in row:
                self.engine.add_generator(image)
        for col in reciprocity:
            self.engine.add_generator(bilinear.image(col.vector))
        self._images: dict[int, dict[int, int]] = {}  # column index -> its image

    def __len__(self) -> int:
        return len(self.columns)

    def column_image(self, ci: int) -> dict[int, int]:
        """The image of column ci, computed from its vector on the first call."""
        image = self._images.get(ci)
        if image is None:
            image = self._images[ci] = self.bilinear.image(self.columns[ci].vector)
        return image


class MembershipResult(NamedTuple):
    member: bool
    coefficients: Optional[dict[int, int]]  # column index -> multiplier

    @property
    def certificate_length(self) -> int:
        return len(self.coefficients or {})


def prove_member(target: dict, lattice: RelationLattice) -> MembershipResult:
    """Certified membership in the relation lattice of the target
    sum c {a, b, X} over its {(a, b): c} items, decided on its image in
    E (x) E coordinates (at most four integers).  A point off the lattice's
    curve raises ValueError.

    The image is reduced against the column images.  A zero remainder gives
    integer multipliers over the columns; they are re-verified by
    substitution in those coordinates, with each named column's image
    computed from its vector once per lattice (RelationLattice.column_image),
    else CertificateError.  The target differs from the combination of
    columns by an element of the kernel of the image, which the bilinear
    columns span, so the answer is membership in L.  A nonzero remainder
    (the canonical representative of the image's coset) certifies that the
    target lies outside L, as L maps into the span of the images.
    """
    bilinear = lattice.bilinear
    index, n = bilinear.group.index, len(bilinear.coords)
    try:
        entries = [(index[a] * n + index[b], c) for (a, b), c in target.items()]
    except KeyError as e:
        raise ValueError(f"{e.args[0]} is not a point of the lattice's curve") from None
    image = bilinear.image(entries)
    rem, coeffs = lattice.engine.reduce(image)
    if any(rem):
        return MembershipResult(False, None)
    rebuilt: dict[int, int] = {}
    for ci, mult in coeffs.items():
        _add_multiple(rebuilt, lattice.column_image(ci), mult)
    if rebuilt != image:
        raise CertificateError("certificate failed re-verification")
    return MembershipResult(True, dict(coeffs))


# -- the skew-symmetry prover ------------------------------------------------------


class SkewReport(NamedTuple):
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


def assemble_skew_lattice(bilinear: SkewBilinear, convention: str = MINUS) -> RelationLattice:
    """Bilinearity on the first two slots plus both reciprocity families,
    decided in E (x) E coordinates.  bilinear is the convention-free part,
    so one SkewBilinear is shared by the lattices of both conventions."""
    G = bilinear.group
    pts = G.points
    distinct: dict[tuple, RelationColumn] = {}  # the first nonzero column of each vector
    for col in [wr_vertical(G, a) for a in pts] + [
        wr_line(G, a1, a2, convention) for i, a1 in enumerate(pts) for a2 in pts[i:]
    ]:
        if col.vector:
            distinct.setdefault(col.vector, col)
    return RelationLattice(bilinear, list(distinct.values()))


def prove_skew(bilinear: SkewBilinear, convention: str = MINUS) -> SkewReport:
    """Certify {a1,a2,X} + {a2,a1,X} = 0 and 2{a,a,X} = 0 against the
    generated relation lattice, for every ordered pair of E(F_q) points,
    E(F_q) = bilinear.group; the report carries the label bilinear.r.

    Both orders of a pair share one target, and the diagonal target
    {a,a,X} + {a,a,X} is 2{a,a,X}, so each of the n(n+1)/2 distinct targets
    is proved once.  Also locates one pair whose lone symbol {a1,a2,X} is
    certified to lie outside the lattice (so the certified relations are not
    degenerate).  The bilinear part is shared, not rebuilt.
    """
    lattice = assemble_skew_lattice(bilinear, convention)
    G = bilinear.group
    proofs = {}  # (i, j) with i <= j -> certificate length, None if not derivable
    failed = []
    lengths = {}
    for i, a1 in enumerate(G.points):
        for j, a2 in enumerate(G.points):
            if j < i:
                length = proofs[j, i]
            else:
                target = {(a1, a2): 1, (a2, a1): 1} if j > i else {(a1, a1): 2}
                res = prove_member(target, lattice)
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
            if not prove_member({(a1, a2): 1}, lattice).member:
                control_pair = (_pt(a1), _pt(a2))
                break
        if control_pair is not None:
            break
    return SkewReport(
        p=G.p,
        curve=(G.a1, G.a2, G.a3, G.a4, G.a6),
        r=bilinear.r,
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
