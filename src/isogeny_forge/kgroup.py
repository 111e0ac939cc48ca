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
four entries.  The group law enters once, as the table of sums those
carries certify: the bilinear blocks and the reciprocity columns are read
from it, with no point arithmetic per pair.  Every column's image is
inserted into a dense Hermite-form lattice over Z^(d^2), d <= 2, where a
repeated image only takes its index; a column is built when read
(ColumnView).  Because the bilinear columns of both slots are all present,
the kernel of that map lies in the relation lattice, so a target is a
member iff its image is in the span of the column images.
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
from operator import add, mod, sub
from typing import Iterable, NamedTuple, Optional

from .elliptic import EllipticGroup, Point, discrete_log
from .errors import BudgetExceededError, CertificateError, InvalidConfigurationError
from .exactnum import ColumnLattice

PLUS = "plus"
MINUS = "minus"

# The skew prover's cost follows #E(F_q) = n alone (about n^3 add_generator
# calls, one per bilinear column, and n(n+1)/2 targets; r is a label and costs
# nothing).  Only the distinct column images reach the lattice engine:
# about 1.4k of the 126k calls at n = 40 with --convention both, which took
# 0.06-0.10 s in process (README, "Skew guard"), against the 5 s a job may
# take; the bound stays while the calls grow as n^3.
SKEW_MAX_POINTS = 40


class RelationColumn(NamedTuple):
    """One relation.  Reciprocity columns are built with their lattice; a
    bilinear column is built by ColumnView when it is read."""

    kind: str  # "bilinear" | "wr-vertical" | "wr-line"
    data: tuple
    vector: tuple[tuple[int, int], ...]  # sorted sparse (index, coeff)


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
    entries of the column at b = 0, and sums is the group's certified
    _sum_table.  Two columns of a slot are equal exactly when their patterns
    and points b are, and the distinct patterns are known in closed form:
    every pair with the identity points[0] = 0 gives -{0, b}, kept once as
    (0, 0), and every pair 1 <= i <= i2 gives its own, whose -1 entries name
    i and i2 and whose +1 entry, a + a', is neither.  The (a', a) copy is
    dropped."""
    stride = n if slot == 0 else 1
    blocks = [(slot, 0, 0, ((0, -1),))]
    for i in range(1, n):
        row, ki = sums[i], i * stride
        blocks.append((slot, i, i, tuple(sorted(((row[i] * stride, 1), (ki, -2))))))
        for i2 in range(i + 1, n):
            pattern = tuple(sorted(((row[i2] * stride, 1), (ki, -1), (i2 * stride, -1))))
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

    sums is the _sum_table those carries certify, read only on and above
    its diagonal (the pairs i <= i2 they cover), and negatives[i] the index
    of -points[i], the j with sums[min(i, j)][max(i, j)] == 0.  The columns
    are kept as their blocks (see ColumnView), one per distinct pair of the
    slot, for each of the two slots.  A carry takes at most 2^d values, so
    the column images are built once, as at most 2^(d+1) rows of one dense
    image per point b of the other slot, in point order, and each block
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
        self.sums = sums = _sum_table(G)
        carries = [[()] * n for _ in range(n)]
        for i, x in enumerate(coords):
            row, carry = sums[i], carries[i]
            for i2 in range(i, n):
                c = tuple(map(sub, map(add, x, coords[i2]), coords[row[i2]]))
                if any(map(mod, c, moduli)):
                    raise CertificateError("discrete-log table is not a homomorphism")
                carry[i2] = c
        # from the certified upper triangle: an unknown -points[i] lies at or
        # right of i, as one left of it was found from its own row
        self.negatives = neg = [-1] * n
        for i in range(n):
            if neg[i] < 0:
                j = neg[i] = sums[i].index(0, i)
                neg[j] = i
        rows: dict[tuple, list[tuple[int, ...]]] = {}
        self.blocks = [b for slot in (0, 1) for b in _bilinear_blocks(n, slot, sums)]
        self.image_rows: list[list[tuple[int, ...]]] = []  # one per block of n columns
        for slot, i, i2, _ in self.blocks:
            key = (slot, carries[i][i2])
            row = rows.get(key)
            if row is None:
                row = rows[key] = [self._carry_image(slot, key[1], xb) for xb in coords]
            self.image_rows.append(row)

    @property
    def dimension(self) -> int:
        return len(self.moduli) ** 2

    @staticmethod
    def _carry_image(slot: int, carry: tuple, xb: tuple) -> tuple[int, ...]:
        left, right = (carry, xb) if slot == 0 else (xb, carry)
        return tuple([-u * v for u in left for v in right])

    def image(self, entries: Iterable[tuple[int, int]]) -> dict[int, int]:
        """The sum of c * x(a) (x) x(b) over (index of {a, b, X}, c) entries,
        as a sparse {coordinate: value} map."""
        return {t: v for t, v in enumerate(self.dense_image(entries)) if v}

    def dense_image(self, entries: Iterable[tuple[int, int]]) -> list[int]:
        """The image as a list of all d^2 coordinates."""
        n, d, coords = len(self.coords), len(self.moduli), self.coords
        out = [0] * (d * d)
        for k, c in entries:
            i, j = divmod(k, n)
            xb = coords[j]
            for s, u in enumerate(coords[i]):
                if u:
                    for t, v in enumerate(xb, s * d):
                        out[t] += c * u * v
        return out


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
        insert, image = self.engine.add_generator, bilinear.image
        for row in bilinear.image_rows:
            for vec in row:
                insert(vec)
        for col in reciprocity:
            insert(image(col.vector))
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
    image = bilinear.dense_image(entries)
    rem, coeffs = lattice.engine.reduce(image)
    if any(rem):
        return MembershipResult(False, None)
    rebuilt = [0] * len(image)
    for ci, mult in coeffs.items():
        for t, c in lattice.column_image(ci).items():
            rebuilt[t] += mult * c
    if rebuilt != image:
        raise CertificateError("certificate failed re-verification")
    return MembershipResult(True, coeffs)


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
    so one SkewBilinear is shared by the lattices of both conventions.

    The reciprocity columns, read from bilinear's certified sums and
    negatives, are {a,a,X} + {-a,-a,X} - 2{0,0,X} for each point a
    (wr-vertical, of the function x - x(a)), then {a1,a1,X} + {a2,a2,X} +
    {s,s,X} - 3{0,0,X} for each pair a1 = points[i], a2 = points[i2],
    i <= i2 (wr-line, of the chord through a1 and a2), with s = -(a1+a2)
    under the chord law ("minus") or s = a1+a2 ("plus"): both derive the
    same skew-symmetry targets.  The first nonzero column of each vector is
    kept."""
    if convention not in (PLUS, MINUS):
        raise InvalidConfigurationError(f"unknown convention {convention!r}")
    pts, sums, neg = bilinear.group.points, bilinear.sums, bilinear.negatives
    n = len(pts)
    distinct: dict[tuple, RelationColumn] = {}

    def keep(kind: str, data: tuple, diagonal: tuple[int, ...]) -> None:
        # the symbol {a_k, a_k, X} has index k(n + 1), and {0, 0, X} index 0;
        # a divisor of degree 0 has a pole of order len(diagonal) at 0
        acc = {0: -len(diagonal)}
        for k in diagonal:
            acc[k] = acc.get(k, 0) + 1
        vec = tuple(sorted([(k * (n + 1), c) for k, c in acc.items() if c]))
        if vec and vec not in distinct:
            distinct[vec] = RelationColumn(kind, data, vec)

    for i, a in enumerate(pts):
        keep("wr-vertical", (a,), (i, neg[i]))
    for i, a1 in enumerate(pts):
        row = sums[i]
        for i2 in range(i, n):
            s = row[i2] if convention == PLUS else neg[row[i2]]
            keep("wr-line", (a1, pts[i2], pts[s], convention), (i, i2, s))
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
    nonzero = G.points[1:]  # points[0] is the identity
    control_pair = next(((a1, a2) for a1 in nonzero for a2 in nonzero
                         if a2 != a1 and not prove_member({(a1, a2): 1}, lattice).member), None)
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
