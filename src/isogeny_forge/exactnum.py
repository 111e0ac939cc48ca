"""Exact integer/rational arithmetic support: primes, residue symbols, and
integer linear algebra (Smith normal form, lattice membership).

All operations are pure and exact.  Matrices are immutable once built; the
solvers return answers that re-verify by direct substitution, and a "no
solution" answer is certified by echelon reduction rather than heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers well past 64 bits."""
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
    for a in _MR_WITNESSES:
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

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        tup = tuple(tuple(int(x) for x in row) for row in rows)
        if tup and any(len(r) != len(tup[0]) for r in tup):
            raise ValueError("ragged rows")
        return IntMatrix(tup)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def mul_vector(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum(r[j] * x[j] for j in range(self.ncols)) for r in self.entries]


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k = len(a), len(b[0])
    m = len(b)
    out = [[0] * k for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(m):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(k):
                    oi[j] += v * bt[j]
    return out


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


class SmithResult:
    """Diagonalization U*M*V = D with U, V unimodular.

    `factors` is the full diagonal of D (length min(nrows, ncols)),
    nonnegative and satisfying d1 | d2 | ... .
    """

    def __init__(self, factors, U, V):
        self.factors = factors
        self.U = U
        self.V = V

    def verify(self, M: IntMatrix) -> bool:
        rows, cols = M.nrows, M.ncols
        prod = _mat_mul(_mat_mul(self.U, [list(r) for r in M.entries]), self.V)
        for i in range(rows):
            for j in range(cols):
                want = self.factors[i] if i == j and i < len(self.factors) else 0
                if prod[i][j] != want:
                    return False
        return abs(_det_bareiss(self.U)) == 1 and abs(_det_bareiss(self.V)) == 1


def smith_normal_form(M: IntMatrix) -> list[int]:
    """Invariant factors d1 | d2 | ... of M (nonnegative, full diagonal)."""
    return smith_normal_form_transforms(M).factors


def smith_normal_form_transforms(M: IntMatrix) -> SmithResult:
    """Smith normal form with the unimodular transforms.

    Pivoting always picks the remaining entry of least absolute value, which
    keeps intermediate growth tolerable at desk scale.
    """
    rows, cols = M.nrows, M.ncols
    a = [list(r) for r in M.entries]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        # row_dst += q * row_src
        ad, asr = a[dst], a[src]
        for j in range(cols):
            ad[j] += q * asr[j]
        ud, us = U[dst], U[src]
        for j in range(rows):
            ud[j] += q * us[j]

    def addmul_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    k = 0
    limit = min(rows, cols)
    while k < limit:
        # locate pivot of least absolute value in the trailing block
        piv = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = a[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        # clear row and column k
        dirty = False
        for i in range(k + 1, rows):
            if a[i][k]:
                q = a[i][k] // a[k][k]
                addmul_row(i, k, -q)
                if a[i][k]:
                    dirty = True
        for j in range(k + 1, cols):
            if a[k][j]:
                q = a[k][j] // a[k][k]
                addmul_col(j, k, -q)
                if a[k][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block
        offender = None
        pk = a[k][k]
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % pk:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(k, offender, 1)
            continue
        if a[k][k] < 0:
            negate_row(k)
        k += 1

    factors = [a[i][i] for i in range(limit)]
    return SmithResult(factors, U, V)


# ---------------------------------------------------------------------------
# Lattice membership with coefficient certificates
# ---------------------------------------------------------------------------


class ColumnLattice:
    """Integer span of a growing set of generator vectors, kept in row-echelon
    (Hermite) form with full bookkeeping of how each basis row was produced.

    Membership queries reduce a target against the echelon basis; success
    yields exact coefficients over the original generators, failure is
    certified because reduction against an echelon basis of the lattice
    leaves a nonzero canonical remainder exactly when the target is outside.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.basis: list[list[int]] = []
        self.history: list[dict[int, int]] = []  # basis row -> generator coeffs
        self.pivot_col: list[int] = []
        self._col_of_pivot: dict[int, int] = {}
        self.n_generators = 0

    def add_generator(self, vec: Sequence[int] | dict[int, int]) -> int:
        """Insert one generator; returns its index for certificate purposes."""
        v = self._dense(vec)
        idx = self.n_generators
        self.n_generators += 1
        self._insert(v, {idx: 1})
        return idx

    def _dense(self, vec: Sequence[int] | dict[int, int]) -> list[int]:
        """A fresh dense copy of a list or {index: entry} vector."""
        dim = self.dimension
        if isinstance(vec, dict):
            v = [0] * dim
            for j, c in vec.items():
                if not 0 <= j < dim:
                    raise ValueError("dimension mismatch")
                v[j] = c
            return v
        if len(vec) != dim:
            raise ValueError("dimension mismatch")
        return list(vec)

    def _insert(self, v: list[int], h: dict[int, int]) -> None:
        dim = self.dimension
        j = 0
        while j < dim:
            if not v[j]:
                j += 1
                continue
            p = self._col_of_pivot.get(j)
            if p is None:
                where = 0
                while where < len(self.pivot_col) and self.pivot_col[where] < j:
                    where += 1
                self.basis.insert(where, v)
                self.history.insert(where, h)
                self.pivot_col.insert(where, j)
                self._col_of_pivot = {c: i for i, c in enumerate(self.pivot_col)}
                return
            row = self.basis[p]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for jj in range(j, dim):
                    v[jj] -= q * row[jj]
                hq = self.history[p]
                for k, c in hq.items():
                    nc = h.get(k, 0) - q * c
                    if nc:
                        h[k] = nc
                    else:
                        h.pop(k, None)
                j += 1
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                hp = self.history[p]
                new_row = [0] * dim
                new_hist: dict[int, int] = {}
                for jj in range(j, dim):
                    ra, rb = row[jj], v[jj]
                    new_row[jj] = x * ra + y * rb
                    v[jj] = -bg * ra + ag * rb
                keys = set(hp) | set(h)
                for k in keys:
                    ca, cb = hp.get(k, 0), h.get(k, 0)
                    nv = x * ca + y * cb
                    if nv:
                        new_hist[k] = nv
                    rv = -bg * ca + ag * cb
                    if rv:
                        h[k] = rv
                    else:
                        h.pop(k, None)
                self.basis[p] = new_row
                self.history[p] = new_hist
                # v now has a zero at column j; keep reducing
                j += 1

    def reduce(self, target: Sequence[int] | dict[int, int]):
        """Return (remainder, coefficients): remainder == 0 iff member.

        Coefficients are over generator indices and satisfy
        sum coeff_k * generator_k = target - remainder exactly.
        """
        dim = self.dimension
        v = self._dense(target)
        coeffs: dict[int, int] = {}
        for p, j in enumerate(self.pivot_col):
            if not v[j]:
                continue
            row = self.basis[p]
            if v[j] % row[j]:
                continue  # leaves a nonzero entry at j: certified non-member
            q = v[j] // row[j]
            for jj in range(j, dim):
                v[jj] -= q * row[jj]
            for k, c in self.history[p].items():
                nc = coeffs.get(k, 0) + q * c
                if nc:
                    coeffs[k] = nc
                else:
                    coeffs.pop(k, None)
        return v, coeffs

    def contains(self, target) -> bool:
        rem, _ = self.reduce(target)
        return not any(rem)

    def basis_coordinates(self, target) -> Optional[list[int]]:
        """Coordinates of target over the echelon basis rows, or None when the
        target is outside the lattice."""
        dim = self.dimension
        v = self._dense(target)
        out = [0] * len(self.basis)
        for p, j in enumerate(self.pivot_col):
            if not v[j]:
                continue
            row = self.basis[p]
            if v[j] % row[j]:
                return None
            q = v[j] // row[j]
            out[p] = q
            for jj in range(j, dim):
                v[jj] -= q * row[jj]
        return out if not any(v) else None

    def basis_vectors(self) -> list[list[int]]:
        return [row[:] for row in self.basis]

    def rank(self) -> int:
        return len(self.basis)


def solve_integer_linear(M: IntMatrix, target: Sequence[int]) -> Optional[list[int]]:
    """Solve M*x = target over the integers (columns of M are generators).

    Returns one solution vector, or None when no integer solution exists.
    Any returned solution satisfies M*x == target exactly.
    """
    if len(target) != M.nrows:
        raise ValueError(
            f"target length {len(target)} != row count {M.nrows}"
        )
    lat = ColumnLattice(M.nrows)
    for j in range(M.ncols):
        lat.add_generator(M.column(j))
    rem, coeffs = lat.reduce(list(target))
    if any(rem):
        return None
    x = [coeffs.get(j, 0) for j in range(M.ncols)]
    check = M.mul_vector(x)
    assert list(check) == list(target), "solver produced a non-solution"
    return x
