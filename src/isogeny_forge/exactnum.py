"""Exact integer/rational arithmetic support: primes, valuations, residue
symbols, and integer linear algebra (an echelon modulo
m, invariant factors modulo a group exponent on that same echelon, never
factoring the exponent, and lattice membership).

All operations are pure and exact.  Matrices are immutable once built; a
lattice membership answer carries coefficients over the generators that
re-verify by direct substitution, and a "no" answer is certified by the
nonzero canonical remainder of reduction against a Hermite normal form
rather than by heuristics.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from typing import NamedTuple, Sequence

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The first _MR_PREFIX[i] witnesses decide every n below _MR_LIMITS[i], and
# no shorter prefix does: each limit is the least strong pseudoprime to all
# of those bases (Jaeschke 1993; Sorenson and Webster 2017).  Past the last
# limit all 13 are used.
_MR_LIMITS = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_MR_PREFIX = (1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 13)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (sieve of Eratosthenes)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= bound:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        p += 1
    return [i for i in range(bound + 1) if sieve[i]]


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Miller-Rabin with the shortest proven prefix of the first 13 primes as
    witnesses: {2} below 2,047, {2, 3} below 1,373,653, and so on, up to all
    13 below 3,317,044,064,679,887,385,961,981, where the answer is proven.
    Past that bound it is a strong probable-prime test to those 13 bases: a
    prime is never refused, but a composite could pass.

    Memoized: each row of a split-Jacobian certificate tests its prime three
    times (one genus-2 count and two traces of Frobenius)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[: _MR_PREFIX[bisect_right(_MR_LIMITS, n)]]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n composite with no prime factor in _MR_WITNESSES
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def _trial_division(n: int) -> tuple[dict[int, int], int]:
    """The primes of |n| below 43 as {prime: exponent}, and the cofactor
    left, which factorize hands to Pollard rho; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _MR_WITNESSES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return out, n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    return _factor_cofactor(*_trial_division(n))


def _factor_cofactor(out: dict[int, int], n: int) -> dict[int, int]:
    """factorize's Pollard-rho step on what _trial_division returns: the
    primes below 43 (out, added to in place) and the cofactor n."""
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return dict(sorted(out.items()))


def valuation(x: int | Fraction, p: int) -> int:
    """v_p(x) of a nonzero integer or rational x; 10**9, effectively +infinity
    at desk scale, for x = 0."""
    if not x:
        return 10**9
    n, d = x.numerator, x.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


class IntMatrix(NamedTuple):
    """Immutable sparse integer matrix: each row a {column: entry} map, its
    columns in [0, ncols)."""

    rows: tuple[dict[int, int], ...]
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)


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


def smith_normal_form_transforms(M: IntMatrix, e: int) -> list[int]:
    """Invariant factors d1 | d2 | ... | d_n of Z^n / (span(rows of M) +
    e Z^n), n = M.ncols; each di divides e.

    M's rows are inserted into an echelon modulo e (_insert_mod) that starts
    as e Z^n.  Once each pivot divides every entry of its row, column
    operations clear the rows from the top down, each touching no other row,
    so the pivots are the factors up to order.  Until then, the echelon's
    columns, in order, are inserted as the rows of a fresh echelon: a
    square matrix and its transpose have the same invariant factors, and
    the transpose's rows span e Z^n too.

    The passes end.  In a pass that does not finish, let j be the first row
    with an entry off the diagonal and d_j its pivot.  The columns before j
    are diagonal, column j is d_j at j, and each later column meets row j
    in an entry of that row.  If d_j divides them all, row j and column j
    come out clear and stay clear in every later pass; else the new pivot
    at j is a proper divisor of d_j.  Pivots divide e, so either happens
    finitely often.  The pivots are then sorted into a chain by gcd/lcm
    pairs, Z/a x Z/b = Z/gcd(a, b) x Z/lcm(a, b).  Pivots 1 and e are in
    place already, so only those in between are paired.

    The benchmark's tracer (perfbench/tracing.py) patches this function by
    its name and reads M.nrows and M.ncols, and perfbench counts one call
    per filtration quotient; so the name and the IntMatrix argument stay
    until the tracer reads the program's own spans.
    """
    if e < 1:
        raise ValueError("modulus must be >= 1")
    n = M.ncols
    rows = M.rows
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError(f"column out of range 0..{n - 1}")
    while True:
        echelon = [{j: e} for j in range(n)]
        for row in rows:
            _insert_mod(echelon, row, e)
        if all(x % row[j] == 0 for j, row in enumerate(echelon) for x in row.values()):
            break
        rows = [{} for _ in range(n)]
        for i, row in enumerate(echelon):
            for k, x in row.items():
                rows[k][i] = x
    diagonal = [row[j] for j, row in enumerate(echelon)]
    mid = [d for d in diagonal if 1 < d < e]
    for i in range(len(mid)):
        for j in range(i + 1, len(mid)):
            g = gcd(mid[i], mid[j])
            mid[i], mid[j] = g, mid[i] // g * mid[j]
    ones = diagonal.count(1)
    return [1] * ones + mid + [e] * (n - ones - len(mid))


# ---------------------------------------------------------------------------
# Sparse vectors and lattice membership with coefficient certificates
# ---------------------------------------------------------------------------


def _add_multiple(dst: dict, src: dict, q: int) -> None:
    """dst += q * src on sparse {key: value} maps, dropping entries that vanish."""
    for k, c in src.items():
        nc = dst.get(k, 0) + q * c
        if nc:
            dst[k] = nc
        else:
            dst.pop(k, None)


def _gcd_step(a: dict, b: dict, x: int, y: int, ag: int, bg: int) -> tuple[dict, dict]:
    """(x*a + y*b, ag*b - bg*a) on sparse maps, zeros dropped.  With
    x*a_j + y*b_j = g = gcd(a_j, b_j), a_j = ag*g and b_j = bg*g at the pivot
    column j, the first has g at j, the second 0, and the step is unimodular,
    so the pair spans what a and b span."""
    top: dict = {}
    rest: dict = {}
    for k in a.keys() | b.keys():
        ca, cb = a.get(k, 0), b.get(k, 0)
        if t := x * ca + y * cb:
            top[k] = t
        if t := ag * cb - bg * ca:
            rest[k] = t
    return top, rest


class ColumnLattice:
    """Integer span of a growing set of generator vectors, kept in row Hermite
    normal form (HNF) with full bookkeeping of how each basis row was produced.

    Sized for the skew prover's Z^(d^2), d <= 2, each basis row is a dense
    list, filed under its pivot (leading) column in an ascending pivot list,
    beside its history: the {generator index: coefficient} map that rebuilds
    the row from the generators.  The basis is the HNF of the lattice, which
    depends on the lattice alone, not on the generators or their order:

    - every pivot is positive;
    - a row's entry at another row's pivot column k lies in [0, pivot_k).

    A new generator, with history {index: 1}, is reduced at its nonzero
    columns from left to right: a pivot there that divides the entry is
    subtracted; one that does not is replaced, through an extended-gcd step,
    by the gcd combination of itself and the vector, which clears the
    vector's entry.  Every step is applied to the histories alike.  The
    vector ends as a new pivot row or as zero.  The rows this changed are
    then restored to HNF from the largest pivot down: each is made positive
    and reduced at the pivots right of its own, left to right, and each row
    of smaller pivot whose entry at its pivot column is out of range is
    queued for the same treatment.  A generator equal to an earlier one only
    takes its index.

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
        self._rows: dict[int, list[int]] = {}  # pivot column -> dense row
        self._hist: dict[int, dict[int, int]] = {}  # pivot column -> generator coeffs
        self._pivots: list[int] = []  # the pivot columns, ascending
        self._seen: set[tuple] = set()  # the generators inserted so far

    @property
    def basis(self) -> list[list[int]]:
        """The HNF rows as dense vectors, in pivot order."""
        return [self._rows[j][:] for j in self._pivots]

    @property
    def history(self) -> list[dict[int, int]]:
        """Generator coefficients of each basis row, in pivot order."""
        return [self._hist[j] for j in self._pivots]

    def add_generator(self, vec: Sequence[int] | dict[int, int]) -> int:
        """Insert one generator; returns its index for certificate purposes.
        A repeat of an earlier generator only takes its index."""
        key = vec if type(vec) is tuple and len(vec) == self.dimension else self._dense(vec)
        idx = self.n_generators
        self.n_generators = idx + 1
        if key not in self._seen:
            self._seen.add(key)
            if any(key):
                self._insert(list(key), idx)
        return idx

    def _dense(self, vec: Sequence[int] | dict[int, int]) -> tuple[int, ...]:
        """A list, tuple or {column: entry} vector as a dense tuple."""
        dim = self.dimension
        if isinstance(vec, dict):
            if vec and (min(vec) < 0 or max(vec) >= dim):
                raise ValueError("dimension mismatch")
            vec = [vec.get(j, 0) for j in range(dim)]
        elif len(vec) != dim:
            raise ValueError("dimension mismatch")
        return tuple(vec)

    def _insert(self, v: list[int], idx: int) -> None:
        rows, hists = self._rows, self._hist
        # most vectors reduce to zero, and their history is dropped: each
        # subtraction is applied to it only once the vector changes a row
        h, pending = {idx: 1}, []
        changed: list[int] = []
        for j in range(self.dimension):
            b = v[j]
            if not b:
                continue
            row = rows.get(j)
            if row is not None and b % row[j] == 0:
                q = b // row[j]
                v = [c - q * r for c, r in zip(v, row)]
                pending.append((j, q))
                continue
            for k, q in pending:
                _add_multiple(h, hists[k], -q)
            pending.clear()
            if row is None:
                rows[j], hists[j] = v, h
                insort(self._pivots, j)
                changed.append(j)
                break
            a = row[j]
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            rows[j] = [x * r + y * c for r, c in zip(row, v)]
            v = [ag * c - bg * r for r, c in zip(row, v)]
            hists[j], h = _gcd_step(hists[j], h, x, y, ag, bg)
            changed.append(j)
        if changed:
            self._restore(changed)

    def _restore(self, changed: list[int]) -> None:
        """Bring the basis back to HNF after the rows at `changed` were set.

        Rows are treated from the largest pivot down, so every row right of
        the one at hand is final when it is reduced; a row queued by it has
        a smaller pivot and comes later.
        """
        rows, hists, pivots = self._rows, self._hist, self._pivots
        queued = set(changed)
        heap = [-j for j in queued]
        heapify(heap)
        while heap:
            j = -heappop(heap)
            row, hist = rows[j], hists[j]
            if row[j] < 0:
                row = rows[j] = [-c for c in row]
                for k in hist:
                    hist[k] = -hist[k]
            # one ascending pass: row k has no entry left of k to undo a step
            for k in pivots[bisect_right(pivots, j):]:
                pk = rows[k]
                q = row[k] // pk[k]  # nonzero iff the entry is outside [0, pivot)
                if q:
                    row = rows[j] = [c - q * r for c, r in zip(row, pk)]
                    _add_multiple(hist, hists[k], -q)
            p = row[j]
            for i in pivots:
                if i >= j:
                    break
                if i not in queued and not 0 <= rows[i][j] < p:
                    queued.add(i)
                    heappush(heap, -i)

    def reduce(self, target: Sequence[int] | dict[int, int]):
        """Return (remainder, coefficients): remainder == 0 iff member.

        Coefficients are over generator indices and satisfy
        sum coeff_k * generator_k = target - remainder exactly.
        """
        v = list(self._dense(target))
        rows, hists = self._rows, self._hist
        coeffs: dict[int, int] = {}
        for j in self._pivots:
            row = rows[j]
            q = v[j] // row[j]  # nonzero iff the entry is outside [0, pivot)
            if q:
                v = [c - q * r for c, r in zip(v, row)]
                _add_multiple(coeffs, hists[j], q)
        return v, coeffs
