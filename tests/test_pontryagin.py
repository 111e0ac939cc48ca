import random
from itertools import product as iproduct
from math import prod
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeny_forge.elliptic import curve_from_pair, rational_points_mod_p
from isogeny_forge.errors import BudgetExceededError, CertificateError
from isogeny_forge.exactnum import (
    FormalSum,
    IntMatrix,
    _insert_mod,
    factorize,
    smith_normal_form_transforms,
)
from isogeny_forge.pontryagin import (
    FILTRATION_MAX_P,
    FinAbGroup,
    aug_filtration,
    check_filtration_field,
)

from group_ring import (
    _ideal_power_lattices,
    alternating_generator,
    elements,
    gr_generators,
    ideal_power_lattice,
    pontryagin_product,
    spans_same_lattice,
    vector,
    zero_based_generator,
)

Z2 = FinAbGroup.cyclic(2)
Z3 = FinAbGroup.cyclic(3)
Z4 = FinAbGroup.cyclic(4)
Z2xZ4 = FinAbGroup.from_invariant_factors([2, 4])


def delta(G, a):
    return FormalSum.term(G, a)


def test_group_construction_validates():
    with pytest.raises(ValueError):
        FinAbGroup.from_invariant_factors([4, 2])  # wrong divisibility order
    with pytest.raises(ValueError):
        FinAbGroup.from_invariant_factors([0])
    assert len(Z2xZ4) == 8
    assert Z2xZ4.generators == [(1, 0), (0, 1)]


def _chain_elements(ns):
    return FinAbGroup.from_invariant_factors(ns), set(iproduct(*(range(n) for n in ns)))


def _curve_elements(p):
    E = rational_points_mod_p(curve_from_pair(1, -1), p)
    return FinAbGroup.from_elliptic(E), set(E.points)


# every group the group-ring oracle serves here and in criterion 7, with its
# elements listed independently: residue tuples, or the enumerated points
ORACLE_GROUPS = [_chain_elements(ns) for ns in ([1], [2], [3], [4], [6], [2, 4], [2, 6])] + [
    _curve_elements(p) for p in (5, 11)
]


@pytest.mark.parametrize("G, want", ORACLE_GROUPS, ids=[G.label for G, _ in ORACLE_GROUPS])
def test_oracle_lists_each_element_once(G, want):
    listed = elements(G)
    found = set(listed)
    assert len(found) == len(listed) == G.order
    assert all(G.add(a, b) in found for a in listed for b in listed)
    assert found == want


def test_product_identity_and_translation():
    G = Z2xZ4
    rng = random.Random(1)
    for _ in range(20):
        z = FormalSum(
            G, {rng.choice(elements(G)): rng.randint(-3, 3) for _ in range(3)}
        )
        assert pontryagin_product(delta(G, G.zero), z) == z
    a, b = (1, 2), (0, 3)
    assert pontryagin_product(delta(G, a), delta(G, b)) == delta(G, G.add(a, b))


def test_product_expansion_identity():
    G = Z2xZ4
    a, b = (1, 1), (1, 2)
    lhs = pontryagin_product(
        delta(G, a) - delta(G, G.zero), delta(G, b) - delta(G, G.zero)
    )
    want = (
        delta(G, G.add(a, b)) - delta(G, a) - delta(G, b) + delta(G, G.zero)
    )
    assert lhs == want


def test_product_group_mismatch():
    with pytest.raises(ValueError):
        pontryagin_product(delta(Z2, (0,)), delta(Z3, (0,)))


def test_alternating_equals_zero_based_product():
    rng = random.Random(7)
    for G in (Z2, Z4, Z2xZ4):
        for r in (1, 2, 3):
            for _ in range(15):
                pts = [rng.choice(elements(G)) for _ in range(r)]
                assert alternating_generator(G, pts) == zero_based_generator(G, pts)


def test_gr_generator_forms():
    G = Z4
    r1 = gr_generators(G, 1, over="all")
    want = [
        delta(G, a) - delta(G, G.zero) for a in elements(G) if a != G.zero
    ]
    assert r1 == [w for w in want if w.coeffs]
    for g in gr_generators(G, 2, over="all"):
        assert g.degree() == 0
    for g in gr_generators(Z2xZ4, 3, over="generators"):
        assert g.degree() == 0


def test_generator_tuples_alone_are_not_enough():
    # [2]-[0] is not an integer multiple of [1]-[0] in Z[Z/4]
    assert not spans_same_lattice(
        Z4, gr_generators(Z4, 1, over="all"), gr_generators(Z4, 1, over="generators")
    )


def test_iterated_product_lattice_matches_full_enumeration():
    # Z/6 and Z/2 x Z/6 are not p-groups
    Z6, Z2xZ6 = FinAbGroup.cyclic(6), FinAbGroup.from_invariant_factors([2, 6])
    for G in (Z2, Z3, Z4, Z2xZ4, Z6, Z2xZ6):
        for r in (1, 2, 3):
            via_products = ideal_power_lattice(G, r)
            full = gr_generators(G, r, over="all")
            assert all(via_products.contains(vector(G, g)) for g in full)
            dim = len(G)
            from isogeny_forge.exactnum import ColumnLattice

            enum = ColumnLattice(dim)
            for g in full:
                enum.add_generator(vector(G, g))
            assert all(enum.contains(v) for v in via_products.basis)


def test_alternating_and_product_lattices_agree():
    for G in (Z2, Z3, Z4, Z2xZ4):
        for r in (1, 2):
            alt = [alternating_generator(G, t) for t in iproduct(elements(G), repeat=r)]
            prod = [zero_based_generator(G, t) for t in iproduct(elements(G), repeat=r)]
            alt = [g for g in alt if g.coeffs]
            prod = [g for g in prod if g.coeffs]
            assert spans_same_lattice(G, alt, prod)


def test_filtration_z2():
    rep = aug_filtration(Z2, 3)
    assert [fs for _, fs in rep.quotients] == [(2,), (2,), (2,)]
    assert rep.exactness_ok
    assert rep.stabilization == 1


def test_filtration_z3():
    rep = aug_filtration(Z3, 3)
    assert [fs for _, fs in rep.quotients] == [(3,), (3,), (3,)]
    assert rep.exactness_ok


def test_filtration_first_quotient_is_the_group():
    groups = [Z2, Z3, Z4, Z2xZ4]
    for p in (5, 11):
        G = rational_points_mod_p(curve_from_pair(1, -1), p)
        groups.append(FinAbGroup.from_elliptic(G))
    for G in groups:
        rep = aug_filtration(G, 2)
        assert rep.exactness_ok, G.label
        assert list(rep.quotients[0][1]) == G.nontrivial_invariants()


def test_filtration_elliptic_f5():
    G = FinAbGroup.from_elliptic(rational_points_mod_p(curve_from_pair(1, -1), 5))
    assert G.nontrivial_invariants() == [2, 4]
    rep = aug_filtration(G, 3)
    assert list(rep.quotients[0][1]) == [2, 4]


def test_filtration_exponents_monotone_for_cyclic_p_groups():
    for n in (4, 8, 9, 27):
        rep = aug_filtration(FinAbGroup.cyclic(n), 4)
        exps = [max(fs) for _, fs in rep.quotients]
        assert all(a >= b for a, b in zip(exps, exps[1:])), (n, exps)


def _invariant_chains(limit, prefix=()):
    """Every chain n1 | n2 | ... of at most three factors > 1 with product <= limit."""
    if prefix:
        yield prefix
    if len(prefix) == 3:
        return
    size = prod(prefix)
    n = prefix[-1] if prefix else 2
    while size * n <= limit:
        if not prefix or n % prefix[-1] == 0:
            yield from _invariant_chains(limit, prefix + (n,))
        n += 1


MIXED_CHAINS = [ns for ns in _invariant_chains(72) if len(factorize(prod(ns))) > 1]


def _merged(factor_lists):
    """Invariant factors of the direct sum of groups of coprime orders."""
    powers: dict[int, list[int]] = {}
    for fs in factor_lists:
        for f in fs:
            for p, k in factorize(f).items():
                powers.setdefault(p, []).append(p**k)
    columns = [sorted(ps, reverse=True) for ps in powers.values()]
    width = max(map(len, columns), default=0)
    merged = [prod(c[i] for c in columns if i < len(c)) for i in range(width)]
    return tuple(reversed(merged))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MIXED_CHAINS), st.integers(1, 4))
def test_filtration_splits_over_sylow_subgroups(ns, r_max):
    # I^r / I^(r+1) of G is the direct sum of those of its Sylow subgroups
    # (Passi, Group Rings and Their Augmentation Ideals, LNM 715)
    sylow = []
    for p in factorize(prod(ns)):
        part = [p ** factorize(n).get(p, 0) for n in ns]
        sylow_group = FinAbGroup.from_invariant_factors([q for q in part if q > 1])
        sylow.append(aug_filtration(sylow_group, r_max).quotients)
    got = aug_filtration(FinAbGroup.from_invariant_factors(list(ns)), r_max).quotients
    want = [(r + 1, _merged(qs[r][1] for qs in sylow)) for r in range(r_max)]
    assert list(got) == want


# The group-ring computation that aug_filtration replaced, kept as an
# oracle: the ideal powers of group_ring._ideal_power_lattices, each quotient
# read from coordinates of I^(r+1) over I^r.


def _coordinates_mod(
    rows: list[dict[int, int]], v: dict[int, int], m: int
) -> Optional[dict[int, int]]:
    """Nonzero coordinates {row: coordinate} of v over the rows of an echelon
    modulo m, by back-substitution with every entry reduced mod m, or None
    when v is outside the lattice."""
    w = [0] * len(rows)
    for k, c in v.items():
        w[k] = c % m
    out = {}
    for j, row in enumerate(rows):
        x = w[j]
        if not x:
            continue
        if x % row[j]:
            return None
        out[j] = q = x // row[j]
        for k, c in row.items():
            w[k] = (w[k] - q * c) % m
    return out


def _group_ring_quotients(group, r_max):
    m, lattices = _ideal_power_lattices(group, r_max)
    e = group.invariant_factors[-1]

    quotients = []
    for r in range(1, r_max + 1):
        outer, inner = lattices[r - 1], lattices[r]
        rows = []
        for v in inner:
            coords = _coordinates_mod(outer, v, m)
            if coords is None:
                raise CertificateError("I^(r+1) escaped I^r: assembly bug")
            rows.append(coords)
        facs = smith_normal_form_transforms(IntMatrix(tuple(rows), len(outer)), e)
        covolume_out = prod(row[j] for j, row in enumerate(outer))
        if prod(facs) * covolume_out != prod(row[j] for j, row in enumerate(inner)):
            raise CertificateError("quotient not killed by the group exponent")
        quotients.append((r, tuple(f for f in facs if f > 1)))
    return quotients


SMALL_CHAINS = list(_invariant_chains(72))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_CHAINS), st.integers(1, 4))
def test_filtration_matches_group_ring_oracle(ns, r_max):
    G = FinAbGroup.from_invariant_factors(list(ns))
    assert list(aug_filtration(G, r_max).quotients) == _group_ring_quotients(G, r_max)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), max_size=6),
        )
    ),
    st.integers(1, 60),
)
def test_echelon_mod_m_matches_integer_lattice(case, m):
    # span(vectors) + m Z^n: the pivots divide m and multiply to its index
    from isogeny_forge.exactnum import ColumnLattice

    n, vectors = case
    rows = [{j: m} for j in range(n)]
    lattice = ColumnLattice(n)
    for j in range(n):
        lattice.add_generator({j: m})
    for v in vectors:
        _insert_mod(rows, dict(enumerate(v)), m)
        lattice.add_generator(v)
    assert all(0 < row[j] and m % row[j] == 0 for j, row in enumerate(rows))
    assert all(0 <= c < m for j, row in enumerate(rows) for k, c in row.items() if k != j)
    assert prod(row[j] for j, row in enumerate(rows)) == prod(
        abs(b[j]) for j, b in enumerate(lattice.basis)
    )


def test_filtration_trivial_group():
    rep = aug_filtration(FinAbGroup.from_invariant_factors([1]), 3)
    assert all(fs == () for _, fs in rep.quotients)
    assert rep.exactness_ok


def test_filtration_never_factors_the_exponent():
    # e = 2N, N a balanced 202-bit semiprime: by the Sylow split the quotients
    # are those of Z/2 x Z/2 and of Z/N x Z/N
    N = 1267650600228229401496703217737 * 2535301200456458802993406411753
    rep = aug_filtration(FinAbGroup.from_invariant_factors([2, 2 * N]), 2)
    assert rep.quotients == ((1, (2, 2 * N)), (2, (2, 2, 2 * N)))


def test_filtration_budget():
    with pytest.raises(BudgetExceededError):
        aug_filtration(Z2, 13)


def test_filtration_guard_edges():
    # 495 columns are admitted and 527 refused; e^12 with 505 bits is
    # admitted and with 517 refused
    assert aug_filtration(FinAbGroup.from_invariant_factors([2] * 30), 2).exactness_ok
    with pytest.raises(BudgetExceededError, match="527 monomials"):
        aug_filtration(FinAbGroup.from_invariant_factors([2] * 31), 2)
    assert aug_filtration(FinAbGroup.cyclic(2**42), 12).exactness_ok
    with pytest.raises(BudgetExceededError, match="517 bits"):
        aug_filtration(FinAbGroup.cyclic(2**43), 12)


def test_check_filtration_field_refuses_past_the_bound():
    # the largest prime admitted and the first refused; nothing is enumerated
    assert FILTRATION_MAX_P == 150000
    check_filtration_field(149993)
    with pytest.raises(BudgetExceededError, match=r"^p = 150001 exceeds 150000$"):
        check_filtration_field(150001)


def test_filtration_never_lists_the_group():
    # Z/400000 is one column at r_max 1: the only additions are the premise
    # check's doublings of e times each generator, never a walk of the group
    G = FinAbGroup.cyclic(400000)
    calls = []
    add = G.add

    def counting(x, y):
        calls.append(None)
        return add(x, y)

    G.add = counting
    assert aug_filtration(G, 1).quotients == ((1, (400000,)),)
    assert len(G) == 400000
    assert 0 < len(calls) <= 2 * (400000).bit_length() * len(G.generators)


def test_filtration_premise_is_checked():
    lying = FinAbGroup.from_invariant_factors([2, 4])
    lying.invariant_factors = [2, 2]  # exponent 2 does not kill (0, 1)
    with pytest.raises(CertificateError, match="does not kill a generator"):
        aug_filtration(lying, 1)
    miscounted = FinAbGroup.from_invariant_factors([2, 4])
    miscounted.order = 16
    with pytest.raises(CertificateError, match="do not multiply to"):
        aug_filtration(miscounted, 1)


@pytest.mark.parametrize("r_max", [0, -1])
def test_filtration_needs_r_max_at_least_one(r_max):
    with pytest.raises(ValueError, match="r_max must be >= 1"):
        aug_filtration(Z2, r_max)


@pytest.mark.parametrize("r", [0, -1])
def test_ideal_power_lattice_needs_r_at_least_one(r):
    with pytest.raises(ValueError, match="r must be >= 1"):
        ideal_power_lattice(FinAbGroup.cyclic(4), r)


def test_degree_is_augmentation():
    G = Z2xZ4
    z = FormalSum(G, {(0, 0): 3, (1, 2): -5})
    w = FormalSum(G, {(0, 1): 2})
    assert z.degree() == -2
    assert pontryagin_product(z, w).degree() == z.degree() * w.degree()
