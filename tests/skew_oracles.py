"""Oracles of the skew prover: the code that isogeny_forge.kgroup and
isogeny_forge.exactnum replaced, kept to check their answers.

- _column, wr_vertical and wr_line build the reciprocity columns point by
  point with the group law, where kgroup.assemble_skew_lattice reads the
  certified sum table;
- bilinear_blocks finds the distinct bilinear patterns with a set, where
  kgroup._bilinear_blocks lists them in closed form;
- SparseColumnLattice keeps its Hermite rows as sparse maps, where
  exactnum.ColumnLattice keeps dense lists.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from isogeny_forge.elliptic import EllipticGroup, Point
from isogeny_forge.errors import InvalidConfigurationError
from isogeny_forge.exactnum import _add_multiple, _gcd_step, xgcd
from isogeny_forge.kgroup import MINUS, PLUS, RelationColumn


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


def reciprocity_columns(G: EllipticGroup, convention: str) -> list[RelationColumn]:
    """The first nonzero column of each vector, vertical ones first: the
    reciprocity columns of a skew lattice, built point by point."""
    pts = G.points
    distinct: dict[tuple, RelationColumn] = {}
    for col in [wr_vertical(G, a) for a in pts] + [
        wr_line(G, a1, a2, convention) for i, a1 in enumerate(pts) for a2 in pts[i:]
    ]:
        if col.vector:
            distinct.setdefault(col.vector, col)
    return list(distinct.values())


def bilinear_blocks(n: int, slot: int, sums: list[list[int]]) -> list[tuple]:
    """(slot, i, i2, pattern) for each pair (a, a') = (points[i], points[i2]),
    i <= i2, of an n-point group whose bilinear columns
    {a+a', b} - {a, b} - {a', b} (slot 0) or {b, a+a'} - {b, a} - {b, a'}
    (slot 1) are kept: pattern holds the sorted (index, coefficient)
    entries of the column at b = 0, and sums is the group's sum table.
    A pattern seen before is dropped."""
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


class SparseColumnLattice:
    """The engine ColumnLattice replaced, kept as its oracle: integer span of a growing set of generator vectors, kept in row Hermite
    normal form (HNF) with full bookkeeping of how each basis row was produced.

    Each basis row is a sparse {column: entry} map holding only its nonzero
    entries, filed under its pivot (leading) column, beside its history: the
    {generator index: coefficient} map that rebuilds the row from the
    generators.  The basis is the HNF of the lattice, which depends on the
    lattice alone, not on the generators or their order:

    - every pivot is positive;
    - a row's entry at another row's pivot column k lies in [0, pivot_k).

    A new generator, with history {index: 1}, is reduced at the smallest
    nonzero column of the working vector, again and again: a pivot there
    that divides the entry is subtracted; one that does not is replaced,
    through an extended-gcd step, by the gcd combination of itself and the
    vector, which clears the vector's entry.  Every step is applied to the
    histories alike.  The vector ends as a new pivot row or as zero.  The
    rows this changed (the new row and each row an extended-gcd step
    replaced) are then restored to HNF from the largest pivot down: each is
    made positive and forward-reduced at the pivot columns right of its own,
    left to right, and each row of smaller pivot whose entry at its pivot
    column is out of range is queued for the same treatment.  HNF entries are
    bounded by the pivots, so rows stay short and histories small.  The
    lattice is sized for the skew prover's Z^(d^2), d <= 2: a scan of the
    rows finds those to queue, and a generator equal to an earlier one only
    takes its index.

    Rows are sparse maps of any dimension, so the symbol lattices over
    Z^(n^2) of the skew tests use this engine too.

    A membership query makes one pass over the pivots in ascending order and
    brings the target's entry at each into [0, pivot); a basis row has no
    entry left of its pivot, so no later step undoes an earlier one.  The
    remainder is the canonical representative of the target's coset, so it
    is zero exactly when the target is in the lattice; success yields exact
    coefficients over the original generators.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.n_generators = 0
        self._rows: dict[int, dict[int, int]] = {}  # pivot column -> sparse row
        self._hist: dict[int, dict[int, int]] = {}  # pivot column -> generator coeffs
        self._seen: set[tuple] = set()  # keys of the generators inserted so far

    @property
    def basis(self) -> list[list[int]]:
        """The HNF rows as dense vectors, in pivot order."""
        return [self._dense(self._rows[j]) for j in sorted(self._rows)]

    @property
    def history(self) -> list[dict[int, int]]:
        """Generator coefficients of each basis row, in pivot order."""
        return [self._hist[j] for j in sorted(self._rows)]

    def add_generator(self, vec: Sequence[int] | dict[int, int]) -> int:
        """Insert one generator; returns its index for certificate purposes.
        A repeat of an earlier generator only takes its index."""
        # a list's key starts with None, so it never equals a dict's key, not
        # even for an empty dict, and an unchecked list is never skipped
        key = tuple(vec.items()) if isinstance(vec, dict) else (None, *vec)
        idx = self.n_generators
        if key in self._seen:
            self.n_generators += 1
            return idx
        v = self._sparse(vec)
        self.n_generators += 1
        self._seen.add(key)
        if v:
            self._insert(v, idx)
        return idx

    def _sparse(self, vec: Sequence[int] | dict[int, int]) -> dict[int, int]:
        """A fresh {column: entry} copy of a list or dict vector, zeros dropped."""
        dim = self.dimension
        if isinstance(vec, dict):
            if vec and (min(vec) < 0 or max(vec) >= dim):
                raise ValueError("dimension mismatch")
            return {j: c for j, c in vec.items() if c}
        if len(vec) != dim:
            raise ValueError("dimension mismatch")
        return {j: c for j, c in enumerate(vec) if c}

    def _dense(self, v: dict[int, int]) -> list[int]:
        out = [0] * self.dimension
        for j, c in v.items():
            out[j] = c
        return out

    def _insert(self, v: dict[int, int], idx: int) -> None:
        rows, hists = self._rows, self._hist
        h = {idx: 1}
        changed: list[int] = []
        while v:
            j = min(v)
            row = rows.get(j)
            if row is None:
                rows[j], hists[j] = v, h
                changed.append(j)
                break
            a, b = row[j], v[j]
            if b % a == 0:
                _add_multiple(v, row, -(b // a))
                _add_multiple(h, hists[j], -(b // a))
                continue
            g, x, y = xgcd(a, b)
            rows[j], v = _gcd_step(row, v, x, y, a // g, b // g)
            hists[j], h = _gcd_step(hists[j], h, x, y, a // g, b // g)
            changed.append(j)
        if changed:
            self._restore(changed)

    def _restore(self, changed: list[int]) -> None:
        """Bring the basis back to HNF after the rows at `changed` were set.

        Rows are treated from the largest pivot down, so every row right of
        the one at hand is final when it is forward-reduced; a row queued by
        it has a smaller pivot and comes later.
        """
        rows, hists = self._rows, self._hist
        queued = set(changed)
        heap = [-j for j in queued]
        heapify(heap)
        while heap:
            j = -heappop(heap)
            row, hist = rows[j], hists[j]
            if row[j] < 0:
                for k in row:
                    row[k] = -row[k]
                for k in hist:
                    hist[k] = -hist[k]
            while True:
                k = min(
                    (t for t, c in row.items() if t > j and t in rows and not 0 <= c < rows[t][t]),
                    default=None,
                )
                if k is None:
                    break
                q = row[k] // rows[k][k]
                _add_multiple(row, rows[k], -q)
                _add_multiple(hist, hists[k], -q)
            p = row[j]
            for i in rows:
                if i < j and i not in queued and not 0 <= rows[i].get(j, 0) < p:
                    queued.add(i)
                    heappush(heap, -i)

    def reduce(self, target: Sequence[int] | dict[int, int]):
        """Return (remainder, coefficients): remainder == 0 iff member.

        Coefficients are over generator indices and satisfy
        sum coeff_k * generator_k = target - remainder exactly.
        """
        v = self._sparse(target)
        rows, hists = self._rows, self._hist
        coeffs: dict[int, int] = {}
        for j in sorted(rows):
            row = rows[j]
            q = v.get(j, 0) // row[j]  # nonzero iff the entry is outside [0, pivot)
            if q:
                _add_multiple(v, row, -q)
                _add_multiple(coeffs, hists[j], q)
        return self._dense(v), coeffs
