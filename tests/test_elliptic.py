import pickle
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isogeny_forge import elliptic, kgroup
from isogeny_forge.elliptic import (
    EllipticGroup,
    TwoTorsionCurve,
    WeierstrassModel,
    _SQUARES,
    _chi_table,
    _split_char_sum,
    _sqrt_table,
    _squares,
    ap_trace,
    curve_from_pair,
    discrete_log,
    rational_points_mod_p,
)
from isogeny_forge.errors import (
    BadPrimeError,
    CertificateError,
    DegenerateCurveError,
    UnsupportedPrimeError,
)
from isogeny_forge.exactnum import legendre_symbol, primes_up_to

from char_sums import char_sum, chi_values, model_ap, reference_potential_type
from models import from_coeffs


def count_points(curve, p: int) -> int:
    """#E(F_p) = p + 1 - a_p."""
    return p + 1 - ap_trace(curve, p)


def is_supersingular_at(curve, p: int) -> bool:
    """True iff a_p = 0 mod p (equivalently a_p = 0 once p >= 5)."""
    return ap_trace(curve, p) % p == 0


def on_curve(G: EllipticGroup, P) -> bool:
    """P is O or satisfies the equation of G's curve mod p."""
    if P is None:
        return True
    x, y = P
    lhs = (y * y + G.a1 * x * y + G.a3 * y) % G.p
    rhs = (((x + G.a2) * x + G.a4) * x + G.a6) % G.p
    return lhs == rhs


def brute_count(W: WeierstrassModel, p: int) -> int:
    """Oracle: count points of the reduced curve by iterating over both
    coordinates on the raw equation (no character sums, no square tables)."""
    coeffs = []
    for c in W.coeffs():
        assert c.denominator % p != 0
        coeffs.append(c.numerator * pow(c.denominator, -1, p) % p)
    a1, a2, a3, a4, a6 = coeffs
    n = 1  # infinity
    for x in range(p):
        for y in range(p):
            lhs = (y * y + a1 * x * y + a3 * y) % p
            rhs = (((x + a2) * x + a4) * x + a6) % p
            if lhs == rhs:
                n += 1
    return n


X3_MINUS_X = curve_from_pair(1, -1)  # y^2 = x^3 - x


def test_curve_from_pair_invariants():
    E = X3_MINUS_X
    assert E.delta == 64
    assert E.model.disc == 64
    assert E.j == 1728
    assert E.model.j == 1728


def test_curve_from_pair_degenerate():
    with pytest.raises(DegenerateCurveError, match="a = b"):
        curve_from_pair(1, 1)
    with pytest.raises(DegenerateCurveError, match="a = 0"):
        curve_from_pair(0, 2)
    with pytest.raises(DegenerateCurveError, match="b = 0"):
        curve_from_pair(2, 0)
    with pytest.raises(DegenerateCurveError, match="a = 0"):  # a = 0 is checked first
        TwoTorsionCurve(0, 0)


def test_curve_from_pair_j_example():
    assert curve_from_pair(1, 3).j == Fraction(21952, 9)
    # closed forms against the general b-invariant route
    rng = random.Random(3)
    for _ in range(50):
        a = rng.randint(-20, 20)
        b = rng.randint(-20, 20)
        if a == 0 or b == 0 or a == b:
            continue
        E = curve_from_pair(a, b)
        assert E.model.disc == 16 * a * a * b * b * (a - b) ** 2
        assert E.model.j == E.j


def test_model_identity_1728():
    rng = random.Random(11)
    for _ in range(40):
        try:
            W = from_coeffs(
                rng.randint(-3, 3),
                rng.randint(-5, 5),
                rng.randint(-3, 3),
                rng.randint(-5, 5),
                rng.randint(-5, 5),
            )
        except DegenerateCurveError:
            continue
        assert 1728 * W.disc == W.c4 ** 3 - W.c6 ** 2


def test_ap_examples():
    assert ap_trace(X3_MINUS_X, 5) == -2
    assert count_points(X3_MINUS_X, 5) == 8
    assert ap_trace(X3_MINUS_X, 7) == 0
    with pytest.raises(BadPrimeError):
        ap_trace(X3_MINUS_X, 2)  # 2 | 64
    # good odd disc at p = 2 is refused as unsupported rather than bad
    W11 = from_coeffs(0, -1, 1, -10, -20)
    assert W11.disc == -(11 ** 5)
    with pytest.raises(UnsupportedPrimeError):
        ap_trace(W11, 2)


def test_ap_against_brute_force():
    rng = random.Random(17)
    curves = [X3_MINUS_X, curve_from_pair(1, 3), curve_from_pair(2, -5)]
    for _ in range(10):
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        if a and b and a != b:
            curves.append(curve_from_pair(a, b))
    for E in curves:
        for p in [3, 5, 7, 11, 13, 17, 19, 23]:
            if E.delta % p == 0:
                continue
            assert count_points(E, p) == brute_count(E.model, p)


def brute_reduction(coeffs: tuple[int, ...], p: int) -> tuple[int, bool]:
    """Oracle: #E(F_p) and whether the reduction has a singular point, by
    iterating over both coordinates on the raw equation."""
    a1, a2, a3, a4, a6 = (c % p for c in coeffs)
    n, singular = 1, False  # the point at infinity is never singular
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (((x + a2) * x + a4) * x + a6)) % p:
                continue
            n += 1
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            singular = singular or (fx == 0 and fy == 0)
    return n, singular


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(-60, 60)] * 5), st.sampled_from(primes_up_to(199)))
@example((0, -1, 1, -10, -20), 11)  # conductor 11: bad at 11
@example((0, -1, 1, -10, -20), 2)
@example((0, 0, 0, 3, 1), 3)  # cuspidal at 3: y^2 = (x + 1)^3
def test_ap_trace_against_enumeration(coeffs, p):
    W = WeierstrassModel(*map(Fraction, coeffs))
    assume(W.disc != 0)
    count, singular = brute_reduction(coeffs, p)
    if singular:
        with pytest.raises(BadPrimeError):
            ap_trace(W, p)
    elif p == 2:
        with pytest.raises(UnsupportedPrimeError):
            ap_trace(W, p)
    else:
        assert ap_trace(W, p) == p + 1 - count == model_ap(W, p)


def _parity(coeffs, keep):
    """coeffs with the odd-degree ("even") or even-degree ("odd") terms zeroed."""
    drop = {"even": 1, "odd": 0}.get(keep)
    return [0 if i % 2 == drop else c for i, c in enumerate(coeffs)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**9, 10**9)), min_size=1, max_size=7),
    st.sampled_from(["all", "even", "odd"]),
    st.sampled_from(primes_up_to(211)[1:]),
)
@example([5, 0, -3, 0, 0, 0, 2], "all", 7)  # even sextic
@example([0, 1, 0, 4, 0, -1], "all", 13)  # odd quintic
@example([0, 0, 0, 0, 0, 0, 0], "all", 3)
@example([4, 3, 2, 1], "all", 3)  # every coefficient a unit mod 3
def test_char_sum_against_legendre_sum(coeffs, keep, p):
    coeffs = _parity(coeffs, keep)
    want = sum(legendre_symbol(sum(c * x**i for i, c in enumerate(coeffs)), p) for x in range(p))
    assert char_sum(coeffs, p) == want


def test_chi_table_views_against_legendre_symbol():
    """Both sides of the split-Jacobian identity read this one table.  The
    mask reads t^2 off the shared tables of squares up to their bound and
    computes it past it (4093 < 2 * _SQUARES < 4099).  Built in ascending
    and in descending order from cleared caches, each table of squares is
    first built for a different prime, and read by primes of every size."""
    primes = primes_up_to(600)[1:] + [4093, 4099, 10007]
    assert 4093 // 2 < _SQUARES < 4099 // 2
    for order in (primes, primes[::-1]):
        for cache in (_squares, _chi_table, chi_values):
            cache.cache_clear()
        for p in order:
            chi, nonres = chi_values(p), _chi_table(p)
            assert len(chi) == p and nonres >> p == 0, p
            for x in range(p):
                assert chi[x] == legendre_symbol(x, p), (p, x)
                assert (nonres >> x & 1) == (legendre_symbol(x, p) == -1), (p, x)


def test_square_root_tables_keep_a_few_primes_after_a_scan():
    """A scan of a Weierstrass model enumerates E(F_p) at each prime, reading
    that prime's table of square roots once; the cache keeps the last few,
    since a table holds about p/2 entries."""
    from isogeny_forge.checkers import supersingular_scan

    _sqrt_table.cache_clear()
    assert supersingular_scan(from_coeffs(0, -1, 1, -10, -20), 200).tested > 4
    assert _sqrt_table.cache_info().currsize <= _sqrt_table.cache_parameters()["maxsize"] == 4


def test_two_torsion_model_is_built_once():
    E = curve_from_pair(3, -5)
    assert E.model is E.model


def test_two_torsion_curve_survives_pickling_after_model_read():
    """Worker processes of a pooled search receive pickled curves."""
    E = curve_from_pair(3, -5)
    E.model
    F = pickle.loads(pickle.dumps(E))
    assert F == E and hash(F) == hash(E)
    assert F.model == E.model
    assert ap_trace(F, 101) == ap_trace(E, 101)


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (BadPrimeError, UnsupportedPrimeError) as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.just(0), st.just(-1), st.integers(-10**9, 10**9)),
             min_size=1, max_size=3),
    st.sampled_from(primes_up_to(211)[1:] + [10007]),
)
@example([0, -1], 3)  # r = p - 1: the rotation wraps
@example([0, 1, 2], 3)  # every x is a root
@example([-1, 0, 5], 10007)
def test_split_char_sum_against_legendre_sum(roots, p):
    roots = sorted({r % p for r in roots})
    want = 0
    for x in range(p):
        f = 1
        for r in roots:
            f *= x - r
        want += legendre_symbol(f, p)
    assert _split_char_sum(roots, p) == want


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(*[st.one_of(st.integers(-30, 30), st.integers(-10**6, 10**6))] * 2),
    st.one_of(st.sampled_from(primes_up_to(500)), st.integers(-5, 600)),
)
@example((1, -1), 2)
@example((50, 75), 5)  # 5 divides the discriminant of this model
@example((1, 4), 3)  # 3 divides a - b
@example((1, -1), 499)
@example((1, -1), 9)  # not prime
@example((1, -1), 1)
@example((1, -1), 0)
@example((1, -1), -7)
def test_ap_trace_of_two_torsion_curve_matches_its_model(ab, p):
    """Good primes, bad primes, p = 2 and non-primes: the same value or the
    same error from the curve's own check and from its model's."""
    a, b = ab
    assume(a and b and a != b)
    E = curve_from_pair(a, b)
    assert _outcome(ap_trace, E, p) == _outcome(ap_trace, E.model, p)


def test_ap_trace_of_two_torsion_curve_reduces_no_model(monkeypatch):
    """Good reduction of y^2 = x(x - a)(x - b) is read off a, b, not off the
    model's coefficients mod p."""
    from isogeny_forge import elliptic

    E = curve_from_pair(3, -5)
    want = ap_trace(E.model, 1499)

    def refuse(W, p):
        raise AssertionError("two-torsion a_p reduced its model mod p")

    monkeypatch.setattr(elliptic, "_coeffs_mod_p", refuse)
    assert ap_trace(E, 1499) == want
    with pytest.raises(BadPrimeError):
        ap_trace(E, 2)


def test_general_models_are_counted_by_their_group(monkeypatch):
    """Only a TwoTorsionCurve and a genus-2 curve, from its even factors,
    take the split kernel.  A Weierstrass model, and a potential type
    through the model, are counted by enumerating E(F_p), with the answers
    of the curve and of the pair-sum oracle."""
    from isogeny_forge import genus2, reduction
    from isogeny_forge.scholten import build_scholten

    E = curve_from_pair(2, 7)
    C = build_scholten(3, -7, 11, 5).curve
    want = (ap_trace(E, 101), reduction.potential_type(E, 101))

    def refuse(roots, p):
        raise AssertionError("split kernel reached from a general model")

    monkeypatch.setattr(elliptic, "_split_char_sum", refuse)
    monkeypatch.setattr(genus2, "_split_char_sum", refuse)
    got = (ap_trace(E.model, 101), reduction.potential_type(E.model, 101))
    assert got == want == (model_ap(E.model, 101), reference_potential_type(E, 101))
    with pytest.raises(AssertionError, match="split kernel"):
        genus2.hyperelliptic_point_count(C, 101)
    assert want[0] == 101 + 1 - brute_count(E.model, 101)


def test_supersingular_examples():
    assert is_supersingular_at(X3_MINUS_X, 7) is True
    assert is_supersingular_at(X3_MINUS_X, 5) is False
    assert is_supersingular_at(X3_MINUS_X, 13) is False  # 13 = 1 mod 4, CM curve


def test_hasse_bound_on_corpus():
    rng = random.Random(23)
    curves = []
    while len(curves) < 12:
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        if a and b and a != b:
            curves.append(curve_from_pair(a, b))
    from isogeny_forge.exactnum import primes_up_to

    for E in curves:
        for p in primes_up_to(200):
            if p == 2 or E.delta % p == 0:
                continue
            ap = ap_trace(E, p)
            assert ap * ap <= 4 * p
            assert count_points(E, p) == p + 1 - ap


def test_group_enumeration_matches_count():
    for E in [X3_MINUS_X, curve_from_pair(1, 3), curve_from_pair(-2, 3)]:
        for p in [5, 7, 11, 13]:
            if E.delta % p == 0:
                continue
            G = rational_points_mod_p(E, p)
            assert len(G) == count_points(E, p)
            assert all(on_curve(G, P) for P in G)


def test_group_law_identities_exhaustive():
    # associativity and inversion on every triple, up to the p = 31 contract
    for a, b, p in [(1, -1, 5), (1, -1, 7), (1, 3, 7), (2, 3, 11), (2, 7, 17), (1, -1, 31)]:
        E = curve_from_pair(a, b)
        if E.delta % p == 0:
            continue
        G = rational_points_mod_p(E, p)
        pts = G.points
        for P in pts:
            assert G.add(P, G.neg(P)) is None
            assert G.add(None, P) == P
        for P in pts:
            for Q in pts:
                assert G.add(P, Q) == G.add(Q, P)
                for R in pts:
                    assert G.add(G.add(P, Q), R) == G.add(P, G.add(Q, R))


def test_two_torsion_points_are_the_roots():
    rng = random.Random(5)
    for _ in range(15):
        a, b = rng.randint(-10, 10), rng.randint(-10, 10)
        if not (a and b and a != b):
            continue
        E = curve_from_pair(a, b)
        for p in [5, 7, 11, 13, 17]:
            if E.delta % p == 0:
                continue
            G = rational_points_mod_p(E, p)
            expected = {(0, 0), (a % p, 0), (b % p, 0)}
            assert {P for P, o in zip(G.points, table_orders(G)) if o == 2} == expected


def test_two_torsion_sum_example():
    G = rational_points_mod_p(X3_MINUS_X, 5)
    assert G.add((0, 0), (1, 0)) == (4, 0)


def test_structure_example_and_certification():
    G = rational_points_mod_p(X3_MINUS_X, 5)
    assert len(G) == 8
    assert G.structure() == [2, 4]
    gens = G.generators()
    assert len(gens) == 2
    assert len(oracle_span(G, gens)) == 8


def test_structure_random_consistency():
    rng = random.Random(31)
    for _ in range(10):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        if not (a and b and a != b):
            continue
        for p in [5, 7, 11, 13]:
            E = curve_from_pair(a, b)
            if E.delta % p == 0:
                continue
            G = rational_points_mod_p(E, p)
            inv = G.structure()
            prod = 1
            for d in inv:
                prod *= d
            assert prod == len(G)
            # full 2-torsion forces two even invariant factors
            assert len(inv) == 2 and inv[0] % 2 == 0 and inv[1] % 2 == 0


def test_transform_roundtrip():
    W = X3_MINUS_X.model
    W2 = W.transform(2, 3, 1, -4)
    W3 = W2.transform(Fraction(1, 2), Fraction(-3, 4), -1, Fraction(11, 8))
    # transforms with u and 1/u compose to a substitution-free model change
    assert W3.j == W.j
    assert W2.j == W.j
    assert W2.disc == W.disc / Fraction(2 ** 12)


# -- the per-point oracle of the group structure --------------------------------
# EllipticGroup reads orders, structure and generators off one discrete-log
# table.  The oracle is the engine it replaced: the order of every point, the
# exponent as their lcm, the structure certified by d-torsion counts, and the
# generators found by spanning.  Orders come by repeated addition.


def brute_orders(G) -> list[int]:
    """The order of every point, by point index: walk the multiples kP of each
    point not yet reached until O; kP then has order o / gcd(k, o)."""
    orders = [0] * len(G)
    for i, P in enumerate(G.points):
        if orders[i]:
            continue
        walk = [P]
        while walk[-1] is not None:
            walk.append(G.add(walk[-1], P))
        o = len(walk)
        for k, S in enumerate(walk, 1):
            orders[G.index[S]] = o // gcd(k, o)
    return orders


def oracle_span(G, gens) -> set:
    seen = {None}
    frontier = [None]
    while frontier:
        frontier = [S for S in {G.add(R, g) for R in frontier for g in gens} if S not in seen]
        seen.update(frontier)
    return seen


def oracle_structure(G, orders) -> list[int]:
    N, e = len(G), lcm(*orders)
    n1, rem = divmod(N, e)
    assert rem == 0 and e % n1 == 0
    for d in range(1, e + 1):
        if e % d == 0:
            assert sum(d % o == 0 for o in orders) == gcd(d, n1) * gcd(d, e)
    return [e] if n1 == 1 else [n1, e]


def oracle_generators(G, orders) -> list:
    """P, the first point of maximal order; then the first Q outside <P> with
    <P, Q> = G."""
    e = lcm(*orders)
    P = G.points[orders.index(e)]
    if e == len(G):
        return [P]
    inside = oracle_span(G, [P])
    return [P, next(Q for Q in G.points
                    if Q not in inside and len(oracle_span(G, [P, Q])) == len(G))]


def oracle_discrete_log(G, orders, gens):
    """x(uQ' + vP) = (u, v) (or (v,) when cyclic) for the oracle generators
    [P, Q], with Q' = Q - (k / m) P for mQ = kP; the points are located by
    walking <P> and adding Q'."""
    P, e = gens[0], lcm(*orders)
    multiples = [None]
    for _ in range(e - 1):
        multiples.append(G.add(multiples[-1], P))
    coords = [None] * len(G)
    if len(gens) == 1:
        for v, S in enumerate(multiples):
            coords[G.index[S]] = (v,)
        return (e,), coords
    m = len(G) // e
    k = multiples.index(G.scalar(m, gens[1]))
    Q = G.add(gens[1], G.scalar(-(k // m), P))
    R = None
    for u in range(m):
        for v, S in enumerate(multiples):
            coords[G.index[G.add(R, S)]] = (u, v)
        R = G.add(R, Q)
    return (m, e), coords


def table_orders(G) -> list[int]:
    """The order of every point, read off its discrete-log coordinates x:
    the lcm of m_i / gcd(x_i, m_i)."""
    moduli, coords = discrete_log(G)
    return [lcm(*(m // gcd(c, m) for c, m in zip(x, moduli))) for x in coords]


def assert_matches_oracle(G):
    orders = brute_orders(G)
    assert table_orders(G) == orders
    assert G.structure() == oracle_structure(G, orders)
    gens = oracle_generators(G, orders)
    assert G.generators() == gens
    assert discrete_log(G) == oracle_discrete_log(G, orders, gens)


@pytest.mark.parametrize("p", [p for p in primes_up_to(199) if p > 2])
def test_group_engine_matches_oracle_on_two_torsion_curves(p):
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a and b and a != b and curve_from_pair(a, b).good_at(p):
                assert_matches_oracle(rational_points_mod_p(curve_from_pair(a, b), p))


GENERAL_MODELS = [
    (0, 0, 0, 1, 1),  # Z/9 at p = 5: cyclic of square order
    (0, -1, 1, -10, -20),  # conductor 11
    (1, 0, 1, 0, 0),
    (1, 1, 1, -1, 0),
    (0, 0, 1, -1, 0),  # conductor 37
    (1, -1, 0, -3, 2),
    (0, 0, 0, 2, 2),  # the trivial group at p = 3
]


@pytest.mark.parametrize("coeffs", GENERAL_MODELS)
def test_group_engine_matches_oracle_on_general_models(coeffs):
    W = from_coeffs(*coeffs)
    for p in primes_up_to(199)[1:]:
        if W.disc % p:
            assert_matches_oracle(rational_points_mod_p(W, p))


def test_cyclic_group_of_square_order():
    # y^2 = x^3 + x + 1 has 9 points over F_5; Z/3 x Z/3 would need 3 | 5 - 1
    G = rational_points_mod_p(from_coeffs(0, 0, 0, 1, 1), 5)
    assert G.structure() == [9]
    assert len(G.generators()) == 1
    assert discrete_log(G)[0] == (9,)


@settings(max_examples=60, deadline=None)
@given(st.integers(-200, 200), st.integers(-200, 200), st.sampled_from(primes_up_to(300)[1:]))
def test_group_engine_matches_oracle_on_drawn_curves(a, b, p):
    assume(a and b and a != b and curve_from_pair(a, b).good_at(p))
    assert_matches_oracle(rational_points_mod_p(curve_from_pair(a, b), p))


def test_discrete_log_has_one_copy():
    assert kgroup.discrete_log is elliptic.discrete_log


def test_group_engine_cost_is_linear(monkeypatch):
    # the per-point engine made 447,331 additions here, one scalar
    # multiplication per point and prime; the table adds |E| + 1 times, its
    # first row the walk of the e multiples of P that _basis made, so a
    # second walk would pass |E| + e
    G = rational_points_mod_p(curve_from_pair(-4, 3), 5987)
    calls = []
    add = EllipticGroup.add

    def counting(self, P, Q):
        calls.append(None)
        return add(self, P, Q)

    monkeypatch.setattr(EllipticGroup, "add", counting)
    assert G.structure() == [2, 3042]
    G.generators()
    assert len(calls) < len(G) + 3042 == 9126


def _second_point_of_order_4(G, P):
    inside = oracle_span(G, [P])
    return next(Q for Q in G.points if Q not in inside and G.order_of(Q) == 4)


@pytest.mark.parametrize("claim, message", [
    (lambda G, gens, Q, m, e: (gens, Q, 4, 2), "order 8 and exponent 2 fit no group of rank <= 2"),
    (lambda G, gens, Q, m, e: (gens[:1], None, 1, 8), "claimed exponent 8 is not the order"),
    (lambda G, gens, Q, m, e: (gens, G.add(gens[0], gens[0]), m, e),
     "the generators do not span"),
    (lambda G, gens, Q, m, e: (gens, _second_point_of_order_4(G, gens[0]), m, e),
     "claimed order 2 does not kill the second generator"),
], ids=["rank", "exponent", "span", "second-order"])
def test_table_certifies_the_pair(monkeypatch, claim, message):
    # E(F_5) of y^2 = x^3 - x is Z/2 x Z/4
    basis = EllipticGroup._basis
    monkeypatch.setattr(EllipticGroup, "_basis", lambda G: claim(G, *basis(G)))
    G = rational_points_mod_p(X3_MINUS_X, 5)
    with pytest.raises(CertificateError, match=message):
        G.structure()


def test_search_without_a_pair_is_refused(monkeypatch):
    monkeypatch.setattr(EllipticGroup, "order_of", lambda G, P: 1)
    with pytest.raises(CertificateError, match=r"no pair of generators found for E\(F_5\)"):
        rational_points_mod_p(X3_MINUS_X, 5).generators()
