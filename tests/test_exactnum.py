import operator
import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeny_forge.exactnum import (
    ColumnLattice,
    IntMatrix,
    _add_multiple,
    _trial_division,
    factorize,
    is_prime,
    legendre_symbol,
    primes_up_to,
    smith_normal_form_transforms,
    xgcd,
)
from isogeny_forge.pontryagin import FinAbGroup

from group_ring import FormalSum, contains
from sextics import det_bareiss
from skew_oracles import SparseColumnLattice


def test_primes_up_to_small():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(0) == []


def test_primes_up_to_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, n))

    assert primes_up_to(500) == [n for n in range(501) if trial(n)]


def test_is_prime_small_range():
    for n in range(-5, 2000):
        naive = n > 1 and all(n % d for d in range(2, n))
        assert is_prime(n) == naive, n


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


def test_is_prime_matches_the_sieve_below_a_million():
    primes = primes_up_to(10**6)
    assert [n for n in range(10**6) if is_prime.__wrapped__(n)] == primes


# the least strong pseudoprime to all of the first k primes, for the k used below it
_EDGES = [
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
]


@pytest.mark.parametrize("n, k", _EDGES)
def test_is_prime_refuses_each_witness_bound(n, k):
    # n fools the witness prefix used below it, so the prefix must grow at n
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert all(_strong_probable_prime(n, a) for a in witnesses[:k])
    assert not is_prime(n)
    assert factorize(n) != {n: 1}


def test_factorize():
    assert factorize(1) == {}
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**6 * 7**3) == {2: 6, 7: 3}
    n = 10007 * 10009
    assert factorize(n) == {10007: 1, 10009: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_zero_is_refused_by_trial_division_too():
    # 0 is divisible by every prime: the division loop would never end
    for f in (factorize, _trial_division):
        with pytest.raises(ValueError, match="cannot factor 0"):
            f(0)
    assert _trial_division(-2 * 3 * 3 * 47) == ({2: 1, 3: 2}, 47)


# small primes, and primes in [53, 2*10^5], which only Pollard rho finds
_FACTOR_PRIMES = st.sampled_from(primes_up_to(50)) | st.sampled_from(
    [p for p in primes_up_to(2 * 10**5) if p >= 53]
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_FACTOR_PRIMES, st.integers(1, 3)), max_size=5),
    st.sampled_from([1, -1]),
)
def test_factorize_rebuilds_random_products(factors, sign):
    # primes may repeat across entries, so exponents add up
    want: dict[int, int] = {}
    n = sign
    for p, e in factors:
        want[p] = want.get(p, 0) + e
        n *= p**e
    got = factorize(n)
    assert got == want
    assert list(got) == sorted(want)


def test_legendre_divisibility_case():
    assert legendre_symbol(0, 5) == 0
    assert legendre_symbol(10, 5) == 0


def test_legendre_by_exhaustion_mod_7():
    # squares mod 7 are {1, 2, 4}
    squares = {t * t % 7 for t in range(1, 7)}
    assert squares == {1, 2, 4}
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1


def test_legendre_matches_square_sets():
    for p in [3, 5, 7, 11, 13, 17, 19, 23]:
        squares = {t * t % p for t in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, p) == expected


def test_legendre_rejects_bad_modulus():
    for p in [1, 2, 4, 9, 15]:
        with pytest.raises(ValueError):
            legendre_symbol(3, p)


def test_xgcd():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


# -- Invariant factors modulo e ------------------------------------------------


def _determinantal_factors(rows, n, e):
    """Invariant factors of Z^n / (span(rows) + e Z^n) from the definition:
    d1 * ... * dk is the gcd of the k x k minors of the rows, and each integer
    factor is cut down by e; a zero factor and a missing one (more columns
    than rows) both give e."""
    out, previous = [], 1
    for k in range(1, min(len(rows), n) + 1):
        dk = 0
        for picked in combinations(rows, k):
            for cols in combinations(range(n), k):
                dk = gcd(dk, det_bareiss([[row[c] for c in cols] for row in picked]))
        out.append(dk // previous if dk else 0)
        previous = dk
    return [gcd(d, e) for d in out] + [e] * (n - len(out))


def _snf(rows, n, e):
    return smith_normal_form_transforms(IntMatrix(tuple(dict(enumerate(row)) for row in rows), n), e)


# the balanced 202-bit semiprime N of test_pontryagin, which no factoring
# finishes at test scale
N = 1267650600228229401496703217737 * 2535301200456458802993406411753

# e in [1, 400], products of two or three prime powers, and 2^a 3^b N
EXPONENTS = st.integers(1, 400) | st.builds(
    lambda a, b, c: 2**a * 3**b * 5**c, st.integers(1, 3), st.integers(1, 2), st.integers(0, 1)
) | st.builds(lambda a, b: 2**a * 3**b * N, st.integers(0, 3), st.integers(0, 2))
# entries sharing a factor with e reach the passes past the first
ENTRIES = st.integers(-30, 30) | st.builds(operator.mul, st.sampled_from([2, 3, 4, 6, 9, 10]),
                                            st.integers(-12, 12))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=6
        )
    ),
    EXPONENTS,
)
def test_snf_matches_determinantal_divisors(rows, e):
    n = len(rows[0])
    assert _snf(rows, n, e) == _determinantal_factors(rows, n, e)


def test_snf_zero_matrix():
    zero = [[0, 0], [0, 0], [0, 0]]
    assert _snf(zero, 2, 12) == _determinantal_factors(zero, 2, 12) == [12, 12]
    assert smith_normal_form_transforms(IntMatrix((), 0), 12) == []


def test_snf_unit_hand_examples():
    for rows, e, want in (
        ([[2, 0], [0, 3]], 6, [1, 6]),
        # a unit that only a gcd combination of the two rows reaches
        ([[2, 0], [3, 0]], 6, [1, 6]),
        ([[2, 0], [0, 3]], 4, [1, 2]),
        ([[0, 0]], 5, [5, 5]),
        ([[7, 3]], 1, [1, 1]),
    ):
        assert _snf(rows, 2, e) == _determinantal_factors(rows, 2, e) == want
    with pytest.raises(ValueError):
        smith_normal_form_transforms(IntMatrix(({0: 1},), 1), 0)
    with pytest.raises(ValueError):
        smith_normal_form_transforms(IntMatrix(({0: 1, 2: 3},), 2), 5)
    with pytest.raises(ValueError):
        smith_normal_form_transforms(IntMatrix(({-1: 1},), 2), 5)


def test_snf_hand_examples():
    for rows, e, want in (
        # no entry is a unit modulo e: the diagonal needs its gcd/lcm pairs
        ([[2, 0], [0, 3]], 36, [1, 6]),
        ([[2, 4], [0, 2]], 36, [2, 2]),
        ([[4, 6], [6, 9]], 36, [1, 36]),
        ([[6, 0], [0, 4]], 8, [2, 4]),
        # the echelon [[2, 1], [0, 4]] modulo 8: a pivot that does not divide
        # its row, so a second pass on the transpose
        ([[2, 1]], 8, [1, 8]),
        ([[2 * N, 3]], 4 * N, [1, 4 * N]),
    ):
        assert _snf(rows, 2, e) == _determinantal_factors(rows, 2, e) == want


# -- Integer linear solving ---------------------------------------------------


def _mul(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def _solve(rows, target):
    """x with rows * x == target, or None, from a lattice of the columns."""
    lat = ColumnLattice(len(rows))
    for j in range(len(rows[0])):
        lat.add_generator([row[j] for row in rows])
    rem, coeffs = lat.reduce(target)
    return None if any(rem) else [coeffs.get(j, 0) for j in range(len(rows[0]))]


def test_solve_trivial_cases():
    assert _solve([[2]], [4]) == [2]
    assert _solve([[2]], [3]) is None


def test_solve_two_by_two():
    assert _solve([[1, 0], [1, 2]], [1, 3]) == [1, 1]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        _solve([[1, 0], [1, 2]], [1, 2, 3])


def test_solve_fuzz_constructed_solutions():
    rng = random.Random(99)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-5, 5) for _ in range(cols)]
        t = _mul(M, x)
        sol = _solve(M, t)
        assert sol is not None
        assert _mul(M, sol) == t


def test_solve_none_answers_are_honest():
    # when the lattice says "none", exhaustive search over a box agrees
    rng = random.Random(555)
    checked_none = 0
    for _ in range(300):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 2)
        M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        t = [rng.randint(-4, 4) for _ in range(rows)]
        sol = _solve(M, t)
        if sol is not None:
            assert _mul(M, sol) == t
            continue
        checked_none += 1
        box = range(-30, 31)
        if cols == 1:
            found = any(_mul(M, [x]) == t for x in box)
        else:
            found = any(_mul(M, [x, y]) == t for x in box for y in box)
        assert not found
    assert checked_none > 10


def test_column_lattice_membership_and_certificates():
    rng = random.Random(2024)
    dim = 6
    lat = ColumnLattice(dim)
    gens = []
    for _ in range(8):
        g = [rng.randint(-4, 4) for _ in range(dim)]
        gens.append(g)
        lat.add_generator(g)
    for _ in range(40):
        coeffs = [rng.randint(-3, 3) for _ in range(len(gens))]
        target = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(dim)]
        rem, cert = lat.reduce(target)
        assert not any(rem)
        rebuilt = [0] * dim
        for k, c in cert.items():
            for j in range(dim):
                rebuilt[j] += c * gens[k][j]
        assert rebuilt == target


def test_column_lattice_rejects_wrong_dimension():
    lat = ColumnLattice(3)
    lat.add_generator([2, 0, 0])
    for bad in ([2, 0], [2, 0, 0, 5], {3: 1}, {-1: 1}):
        for method in (lat.add_generator, lat.reduce):
            with pytest.raises(ValueError, match="dimension mismatch"):
                method(bad)
    assert lat.n_generators == 1


def test_column_lattice_checks_a_list_after_an_equal_looking_dict():
    # the zero dict and the empty list have equal items, but only one fits
    lat = ColumnLattice(3)
    assert lat.add_generator({}) == 0
    with pytest.raises(ValueError, match="dimension mismatch"):
        lat.add_generator([])
    assert lat.add_generator({}) == 1 and lat.add_generator([0, 0, 0]) == 2
    assert lat.basis == [] and lat.n_generators == 3


# -- formal sums (the group-ring elements of tests/group_ring.py) --------------------

_coeff_dicts = st.dictionaries(st.integers(0, 9), st.integers(-5, 5))
_U1, _U2 = FinAbGroup.cyclic(8), FinAbGroup.cyclic(8)


@settings(max_examples=300, deadline=None)
@given(_coeff_dicts, _coeff_dicts, st.integers(-3, 3))
def test_formal_sum_arithmetic(a, b, n):
    space = object()
    x, y = FormalSum(space, a), FormalSum(space, b)
    assert x.coeffs == {k: v for k, v in a.items() if v}
    for z in (x + y, x - y, x.scale(n)):
        assert 0 not in z.coeffs.values()
    assert (x + y) - y == x
    assert x - y == x + y.scale(-1)
    assert (x + y).degree() == x.degree() + y.degree()


@settings(max_examples=50, deadline=None)
@given(_coeff_dicts, _coeff_dicts)
def test_formal_sums_over_two_universes_do_not_mix(a, b):
    # equal universes, but distinct objects
    x, y = FormalSum(_U1, a), FormalSum(_U2, b)
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError):
            op(x, y)
    assert x != FormalSum(_U2, a)
    g = _U1.generators[0]
    with pytest.raises(ValueError):
        FormalSum.term(_U1, g) + FormalSum.term(_U2, g)


# -- differential test against the dense engine ----------------------------------


class _DenseReference:
    """The dense echelon engine that ColumnLattice replaced, kept as the
    reference: its rows span the same lattice, in echelon form but not
    reduced above the pivots, and its histories follow every row operation,
    as ColumnLattice's do."""

    def __init__(self, dimension):
        self.dimension = dimension
        self.basis = []
        self.history = []
        self.pivot_col = []
        self._col_of_pivot = {}
        self.n_generators = 0

    def _dense(self, vec):
        if isinstance(vec, dict):
            v = [0] * self.dimension
            for j, c in vec.items():
                v[j] = c
            return v
        return list(vec)

    def add_generator(self, vec):
        idx = self.n_generators
        self.n_generators += 1
        self._insert(self._dense(vec), {idx: 1})

    def _insert(self, v, h):
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
                new_hist = {}
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
                j += 1

    def reduce(self, target):
        dim = self.dimension
        v = self._dense(target)
        coeffs = {}
        for p, j in enumerate(self.pivot_col):
            if not v[j]:
                continue
            row = self.basis[p]
            if v[j] % row[j]:
                continue
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


@st.composite
def _generator_lists(draw, max_dim=8):
    dim = draw(st.integers(1, max_dim))
    entry = st.integers(-20, 20)
    # a sparse column support makes pivots that do not divide, and repeats,
    # more likely than uniform dense vectors do
    support = st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True)
    gens = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["list", "dict", "combination"]))
        if kind == "combination" and gens:
            # a redundant generator: an integer combination of earlier ones
            mults = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
            vec = [sum(m * g[j] for m, g in zip(mults, gens)) for j in range(dim)]
        else:
            vec = [0] * dim
            for j in draw(support):
                vec[j] = draw(entry)
        gens.append(vec)
    as_dict = draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    targets = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=4))
    return dim, gens, as_dict, targets


def _lead(row):
    return next(j for j, c in enumerate(row) if c)


def _reduced(v, rows):
    """v with its entry at the pivot of each row (positive pivots, ascending)
    brought into [0, pivot), left to right; against Hermite rows, this is
    the canonical member of v's coset."""
    for row in rows:
        j = _lead(row)
        q = v[j] // row[j]
        v = [a - q * b for a, b in zip(v, row)]
    return v


def _hermite_form(rows):
    """Row Hermite normal form of echelon rows (pivots ascending): pivots made
    positive, then each row reduced at every later pivot."""
    rows = [row if row[_lead(row)] > 0 else [-c for c in row] for row in rows]
    return [_reduced(row, rows[i + 1:]) for i, row in enumerate(rows)]


@settings(max_examples=400, deadline=None)
@given(_generator_lists(), st.randoms(use_true_random=False))
def test_column_lattice_is_the_hermite_form_of_the_reference(case, rnd):
    dim, gens, as_dict, targets = case
    lat, ref = ColumnLattice(dim), _DenseReference(dim)
    for g, d in zip(gens, as_dict):
        vec = {j: c for j, c in enumerate(g) if c} if d else list(g)
        lat.add_generator(vec)
        ref.add_generator(vec)
    hermite = _hermite_form(ref.basis)
    assert lat.basis == hermite
    # the Hermite form depends on the lattice alone, not on the insertion order
    shuffled = ColumnLattice(dim)
    for g in rnd.sample(gens, len(gens)):
        shuffled.add_generator(g)
    assert shuffled.basis == lat.basis
    for row, hist in zip(lat.basis, lat.history):
        assert row == [sum(c * gens[k][j] for k, c in hist.items()) for j in range(dim)]
    combos = [[sum(gens[k][j] for k in range(0, len(gens), 2)) for j in range(dim)]]
    for t in targets + combos:
        rem, coeffs = lat.reduce(t)
        want_rem, _ = ref.reduce(t)
        assert contains(lat, t) == (not any(rem)) == (not any(want_rem))
        assert rem == _reduced(list(t), hermite)
        assert [t[j] - rem[j] for j in range(dim)] == [
            sum(c * gens[k][j] for k, c in coeffs.items()) for j in range(dim)
        ]


def _reduce_by_least_column(lat, target):
    """SparseColumnLattice.reduce as a search: again and again, the least
    pivot column whose entry lies outside [0, pivot) is reduced, until none
    is."""
    v = {j: c for j, c in enumerate(target) if c}
    rows, hists = lat._rows, lat._hist
    coeffs = {}
    while True:
        j = min((t for t, c in v.items() if t in rows and not 0 <= c < rows[t][t]), default=None)
        if j is None:
            return lat._dense(v), coeffs
        q = v[j] // rows[j][j]
        _add_multiple(v, rows[j], -q)
        _add_multiple(coeffs, hists[j], q)


def _both_engines(dim, gens, as_dict):
    """A ColumnLattice and a SparseColumnLattice of the same generators."""
    lat, sparse = ColumnLattice(dim), SparseColumnLattice(dim)
    for g, d in zip(gens, as_dict):
        vec = {j: c for j, c in enumerate(g) if c} if d else list(g)
        assert lat.add_generator(vec) == sparse.add_generator(vec)
    return lat, sparse


@settings(max_examples=300, deadline=None)
@given(_generator_lists(max_dim=6))
def test_one_pass_reduce_matches_the_least_column_search(case):
    """reduce's single pass in pivot order takes the same steps as the
    search over the sparse engine's rows: a basis row has no entry left of
    its pivot."""
    dim, gens, as_dict, targets = case
    lat, sparse = _both_engines(dim, gens, as_dict)
    members = [[sum(col) for col in zip(*gens)]] if gens else []
    for t in targets + members:
        rem, coeffs = lat.reduce(t)
        assert (rem, coeffs) == _reduce_by_least_column(sparse, t)
        assert [t[j] - rem[j] for j in range(dim)] == [
            sum(c * gens[k][j] for k, c in coeffs.items()) for j in range(dim)
        ]


@settings(max_examples=400, deadline=None)
@given(_generator_lists())
def test_dense_rows_take_the_steps_of_the_sparse_engine(case):
    """The dense engine's rows, histories and reductions are those of the
    sparse engine it replaced, step for step."""
    dim, gens, as_dict, targets = case
    lat, sparse = _both_engines(dim, gens, as_dict)
    assert lat.n_generators == sparse.n_generators
    assert lat.basis == sparse.basis
    assert lat.history == sparse.history
    members = [[sum(col) for col in zip(*gens)]] if gens else []
    for t in targets + members:
        assert lat.reduce(t) == sparse.reduce(t)
        assert lat.reduce({j: c for j, c in enumerate(t) if c}) == sparse.reduce(t)


@settings(max_examples=300, deadline=None)
@given(_generator_lists(), st.data())
def test_column_lattice_skips_repeated_generators(case, data):
    dim, gens, as_dict, targets = case
    if not gens:
        return
    # insert the generators in a drawn order with repeats, each always in its
    # own list or dict form, so that a repeat has the key of its first copy
    order = data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=3 * len(gens)))
    order = list(range(len(gens))) + order
    data.draw(st.randoms(use_true_random=False)).shuffle(order)
    inserted = [gens[k] for k in order]
    lat, ref = ColumnLattice(dim), _DenseReference(dim)
    for k in order:
        vec = {j: c for j, c in enumerate(gens[k]) if c} if as_dict[k] else list(gens[k])
        assert lat.add_generator(vec) == ref.n_generators
        ref.add_generator(vec)
    assert lat.n_generators == len(order)
    assert lat.basis == _hermite_form(ref.basis)
    # a generator equal to an earlier one is named by no history
    repeats = {i for i, g in enumerate(inserted) if g in inserted[:i]}
    for row, hist in zip(lat.basis, lat.history):
        assert not repeats & hist.keys()
        assert row == [sum(c * inserted[k][j] for k, c in hist.items()) for j in range(dim)]
    for t in targets + [[sum(col) for col in zip(*inserted)]]:
        rem, coeffs = lat.reduce(t)
        assert not repeats & coeffs.keys()
        assert [t[j] - rem[j] for j in range(dim)] == [
            sum(c * inserted[k][j] for k, c in coeffs.items()) for j in range(dim)
        ]
