import random
from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeny_forge.elliptic import curve_from_pair, rational_points_mod_p
from isogeny_forge.errors import BudgetExceededError
from isogeny_forge.exactnum import FormalSum, factorize
from isogeny_forge.pontryagin import (
    FinAbGroup,
    alternating_generator,
    aug_filtration,
    gr_generators,
    pontryagin_product,
    spans_same_lattice,
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


def test_product_identity_and_translation():
    G = Z2xZ4
    rng = random.Random(1)
    for _ in range(20):
        z = FormalSum(
            G, {rng.choice(G.elements): rng.randint(-3, 3) for _ in range(3)}
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
                pts = [rng.choice(G.elements) for _ in range(r)]
                assert alternating_generator(G, pts) == zero_based_generator(G, pts)


def test_gr_generator_forms():
    G = Z4
    r1 = gr_generators(G, 1, over="all")
    want = [
        delta(G, a) - delta(G, G.zero) for a in G.elements if a != G.zero
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
    from isogeny_forge.pontryagin import ideal_power_lattice

    # Z/6 and Z/2 x Z/6 are not p-groups
    Z6, Z2xZ6 = FinAbGroup.cyclic(6), FinAbGroup.from_invariant_factors([2, 6])
    for G in (Z2, Z3, Z4, Z2xZ4, Z6, Z2xZ6):
        for r in (1, 2, 3):
            via_products = ideal_power_lattice(G, r)
            full = gr_generators(G, r, over="all")
            assert all(via_products.contains(G.vector(g)) for g in full)
            dim = len(G)
            from isogeny_forge.exactnum import ColumnLattice

            enum = ColumnLattice(dim)
            for g in full:
                enum.add_generator(G.vector(g))
            assert all(enum.contains(v) for v in via_products.basis)


def test_alternating_and_product_lattices_agree():
    for G in (Z2, Z3, Z4, Z2xZ4):
        for r in (1, 2):
            alt = [alternating_generator(G, t) for t in iproduct(G.elements, repeat=r)]
            prod = [zero_based_generator(G, t) for t in iproduct(G.elements, repeat=r)]
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
@given(st.sampled_from(MIXED_CHAINS), st.integers(1, 3))
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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), max_size=6),
            st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), max_size=4),
        )
    ),
    st.integers(1, 60),
)
def test_echelon_mod_m_matches_integer_lattice(case, m):
    # span(vectors) + m Z^n: the pivots multiply to its index, and a target
    # has coordinates exactly when it lies in the lattice
    from isogeny_forge.exactnum import ColumnLattice
    from isogeny_forge.pontryagin import _coordinates_mod, _insert_mod

    n, vectors, targets = case
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
    for t in vectors + targets:
        coords = _coordinates_mod(rows, dict(enumerate(t)), m)
        assert (coords is not None) == lattice.contains(t)
        if coords is not None:
            back = [sum(q * rows[i].get(k, 0) for i, q in coords.items()) for k in range(n)]
            assert all((b - x) % m == 0 for b, x in zip(back, t))


def test_filtration_trivial_group():
    rep = aug_filtration(FinAbGroup.from_invariant_factors([1]), 3)
    assert all(fs == () for _, fs in rep.quotients)
    assert rep.exactness_ok


def test_filtration_budget():
    with pytest.raises(BudgetExceededError):
        aug_filtration(Z2, 13)


@pytest.mark.parametrize("r_max", [0, -1])
def test_filtration_needs_r_max_at_least_one(r_max):
    with pytest.raises(ValueError, match="r_max must be >= 1"):
        aug_filtration(Z2, r_max)


@pytest.mark.parametrize("r", [0, -1])
def test_ideal_power_lattice_needs_r_at_least_one(r):
    from isogeny_forge.pontryagin import ideal_power_lattice
    with pytest.raises(ValueError, match="r must be >= 1"):
        ideal_power_lattice(FinAbGroup.cyclic(4), r)


def test_degree_is_augmentation():
    G = Z2xZ4
    z = FormalSum(G, {(0, 0): 3, (1, 2): -5})
    w = FormalSum(G, {(0, 1): 2})
    assert z.degree() == -2
    assert pontryagin_product(z, w).degree() == z.degree() * w.degree()
