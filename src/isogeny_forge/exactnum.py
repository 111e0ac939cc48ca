"""Exact integer/rational arithmetic support: primes, valuations, residue
symbols, sparse formal sums, and integer linear algebra (invariant factors
modulo a group exponent, lattice membership).

All operations are pure and exact.  Matrices are immutable once built; a
lattice membership answer carries coefficients over the generators that
re-verify by direct substitution, and a "no" answer is certified by the
nonzero canonical remainder of reduction against a Hermite normal form
rather than by heuristics.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Optional, Sequence

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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _MR_WITNESSES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix (tuple-of-rows)."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def invariant_factors_mod(rows: Sequence[dict[int, int]], ncols: int, e: int) -> list[int]:
    """Invariant factors d1 | d2 | ... | d_ncols of Z^ncols / (span(rows) +
    e Z^ncols), each row a sparse map {column: entry}; each di divides e.

    Works modulo e: an entry that is a unit mod e is scaled to 1 and its
    column cleared from the other rows, and its row and column leave the
    matrix with a factor 1 (the column operations that clear the pivot row
    change no factor).  What remains has no unit entry.  A remaining column
    that no row touches gives a factor e on its own; the others give the
    factors of the rows restricted to them (smith_normal_form_transforms).
    """
    if e < 1:
        raise ValueError("modulus must be >= 1")
    active: dict[int, dict[int, int]] = {}  # row index -> sparse row mod e
    holders: dict[int, set[int]] = {}  # column -> rows with a nonzero entry there
    for i, row in enumerate(rows):
        if any(not 0 <= j < ncols for j in row):
            raise ValueError(f"column out of range 0..{ncols - 1}")
        v = {j: x % e for j, x in row.items() if x % e}
        if v:
            active[i] = v
            for j in v:
                holders.setdefault(j, set()).add(i)
    units = 0
    unseen = set(active)  # rows that may hold a unit not yet looked for
    while unseen:
        i = unseen.pop()
        v = active.get(i)
        if v is None:
            continue
        j = next((j for j, x in v.items() if gcd(x, e) == 1), None)
        if j is None:
            continue
        del active[i]
        units += 1
        for k in v:
            holders[k].discard(i)
        inv = pow(v[j], -1, e)
        piv = {k: x * inv % e for k, x in v.items() if k != j}
        for t in holders.pop(j):
            w = active[t]
            c = w.pop(j)
            for k, x in piv.items():
                nx = (w.get(k, 0) - c * x) % e
                if nx:
                    if k not in w:
                        holders[k].add(t)
                    w[k] = nx
                elif k in w:
                    del w[k]
                    holders[k].discard(t)
            if w:
                unseen.add(t)
            else:
                del active[t]
    touched = [j for j in range(ncols) if holders.get(j)]
    residual = IntMatrix(tuple(tuple(w.get(j, 0) for j in touched) for w in active.values()))
    return ([1] * units + smith_normal_form_transforms(residual, e)
            + [e] * (ncols - units - len(touched)))


def smith_normal_form_transforms(M: IntMatrix, e: int) -> list[int]:
    """Invariant factors d1 | d2 | ... | d_n of Z^n / (span(rows of M) +
    e Z^n), n = M.ncols, by elimination modulo each prime power l^k of e.

    Modulo l^k, an entry of least l-valuation v divides every other entry,
    so its row and column clear exactly and the column gives the exponent v;
    the valuations left are at least v, so the exponents come out sorted.  A
    column with no pivot gives k.  d_i is the product over l of l to its
    i-th exponent.  e is factored only when M has a column.

    The benchmark's tracer (perfbench/tracing.py) patches this function by
    its name and reads the shape of M, its first argument, and perfbench
    counts one call per filtration quotient; so the name and the IntMatrix
    argument stay until the tracer reads the program's own spans.
    """
    n = M.ncols
    if not n:
        return []
    factors = [1] * n
    for l, k in factorize(e).items():
        q = l**k
        rows = [[x % q for x in row] for row in M.entries]
        least = [gcd(q, *row) for row in rows]  # l^(least valuation) of each row
        i = 0
        while rows and (g := min(least)) < q:
            r = least.index(g)
            del least[r]
            piv = rows.pop(r)
            j = next(j for j, x in enumerate(piv) if gcd(x, q) == g)
            inv = pow(piv[j] // g, -1, q)
            piv = [x * inv % q for x in piv]
            for t, row in enumerate(rows):
                if c := row[j] // g:
                    row[:] = [(x - c * y) % q for x, y in zip(row, piv)]
                    least[t] = gcd(q, *row)
            factors[i] *= g
            i += 1
        for t in range(i, n):
            factors[t] *= q
    return factors


# ---------------------------------------------------------------------------
# Sparse formal sums and lattice membership with coefficient certificates
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


class FormalSum:
    """Finite integer combination sum c_k [k] of keys of one space (sparse).

    The space is the object the keys belong to, such as a symbol universe or
    a finite abelian group; sums over different space objects do not mix.
    Zero coefficients are never stored.
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


class ColumnLattice:
    """Integer span of a growing set of generator vectors, kept in row Hermite
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

    Membership queries reduce a target at its own nonzero pivot columns, left
    to right, each entry into [0, pivot).  The remainder is the canonical
    representative of the target's coset, so it is zero exactly when the
    target is in the lattice; success yields exact coefficients over the
    original generators.
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
        rows = self._rows
        coeffs: dict[int, int] = {}
        while True:
            j = min(
                (t for t, c in v.items() if t in rows and not 0 <= c < rows[t][t]),
                default=None,
            )
            if j is None:
                return self._dense(v), coeffs
            row = rows[j]
            q = v[j] // row[j]
            _add_multiple(v, row, -q)
            _add_multiple(coeffs, self._hist[j], q)

    def contains(self, target) -> bool:
        rem, _ = self.reduce(target)
        return not any(rem)
