import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isogeny_forge.elliptic import (
    TwoTorsionCurve,
    WeierstrassModel,
    _discriminant,
    ap_trace,
    curve_from_pair,
)
from isogeny_forge.errors import DegenerateCurveError, UnsupportedPrimeError
from isogeny_forge.exactnum import factorize, primes_up_to
from isogeny_forge.reduction import (
    ADDITIVE,
    GOOD_ORDINARY,
    GOOD_SUPERSINGULAR,
    NONSPLIT_MULTIPLICATIVE,
    POT_GOOD_ORDINARY,
    POT_GOOD_SUPERSINGULAR,
    POT_MULTIPLICATIVE,
    SPLIT_MULTIPLICATIVE,
    TateOutcome,
    _repeated_root_of_cubic,
    bad_primes,
    classify_reduction,
    conductor,
    potential_type,
    tate_algorithm,
)

from models import from_coeffs

X3_MINUS_X = curve_from_pair(1, -1)


W = from_coeffs


def _vp(n, p):
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


# Anchor curves with known conductors (classic small-conductor curves).
ANCHORS = [
    (W(0, -1, 1, -10, -20), 11),   # X_0(11)
    (W(0, -1, 1, 0, 0), 11),       # y^2 + y = x^3 - x^2
    (W(0, 0, 1, -1, 0), 37),
    (W(0, 1, 1, -2, 0), 389),
    (W(0, 0, 0, -1, 0), 32),       # y^2 = x^3 - x
    (W(0, 0, 0, 4, 0), 32),
    (W(0, 0, 0, 1, 0), 64),        # y^2 = x^3 + x
    (W(0, 0, 0, 0, 1), 36),        # y^2 = x^3 + 1
    (W(0, 0, 1, 0, 0), 27),        # y^2 + y = x^3
    (W(1, 1, 1, -10, -10), 15),
    (W(1, 0, 1, 4, -6), 14),
    (W(1, -1, 0, -2, -1), 49),
    (W(0, -1, 0, -4, 4), 24),
    (W(0, 1, 0, 4, 4), 20),
    (W(1, -1, 0, 0, -5), 45),
]


def test_conductor_anchors():
    for model, N in ANCHORS:
        assert conductor(model) == N, f"conductor of {model} should be {N}"


def test_conductor_of_x3_minus_x_is_32():
    assert conductor(X3_MINUS_X) == 32


def test_wild_exponents():
    out2 = tate_algorithm(W(0, 0, 0, -1, 0), 2)
    assert out2.kodaira_type == "III"
    assert out2.v_delta_min == 6
    assert out2.conductor_exponent == 5

    out3 = tate_algorithm(W(0, 0, 1, 0, 0), 3)
    assert out3.kodaira_type == "II"
    assert out3.v_delta_min == 3
    assert out3.conductor_exponent == 3

    out = tate_algorithm(W(0, 0, 0, 1, 0), 2)
    assert out.kodaira_type == "II"
    assert out.conductor_exponent == 6

    # v(Delta) = 12 but the model is still 2-minimal
    out = tate_algorithm(W(0, 0, 0, 4, 0), 2)
    assert out.kodaira_type == "I3*"
    assert out.v_delta_min == 12
    assert out.conductor_exponent == 5


def test_wild_starred_types_pinned_by_component_counts():
    # conductor 24, v2(Delta_min) = 8, f2 = 3 leaves 6 components: only I1*
    out = tate_algorithm(W(0, -1, 0, -4, 4), 2)
    assert (out.kodaira_type, out.v_delta_min, out.conductor_exponent) == ("I1*", 8, 3)
    # conductor 20, v2(Delta_min) = 8, f2 = 2 leaves 7 components: only IV*
    out = tate_algorithm(W(0, 1, 0, 4, 4), 2)
    assert (out.kodaira_type, out.v_delta_min, out.conductor_exponent) == ("IV*", 8, 2)
    # conductor 45, v3(Delta_min) = 7, f3 = 2 leaves 6 components: only I1*
    out = tate_algorithm(W(1, -1, 0, 0, -5), 3)
    assert (out.kodaira_type, out.v_delta_min, out.conductor_exponent) == ("I1*", 7, 2)


def test_all_additive_types_against_tame_oracle():
    # engineered short models y^2 = x^3 + Ax + B hitting every additive type,
    # classified by the machine and by the independent valuation table
    for p in (5, 7, 13):
        cases = {
            "II": (p, p),
            "III": (p, p * p),
            "IV": (p * p, p * p),
            "I0*": (p * p, p**3),
            "IV*": (p**3, p**4),
            "III*": (p**3, p**5),
            "II*": (p**4, p**5),
        }
        for m in range(1, 7):
            cases[f"I{m}*"] = (-3 * p * p, (2 + p**m) * p**3)
        for expected, (A, B) in cases.items():
            model = W(0, 0, 0, A, B)
            typ, f, n = tame_oracle(model, p)
            assert typ == expected, (p, expected, typ)
            out = tate_algorithm(model, p)
            assert (out.kodaira_type, out.conductor_exponent, out.v_delta_min) == (typ, f, n)


def test_good_prime_report():
    rep = classify_reduction(X3_MINUS_X, 5)
    assert rep.kodaira_type == "I0"
    assert rep.conductor_exponent == 0
    assert rep.v_delta_min == 0
    assert rep.actual_type == GOOD_ORDINARY
    rep7 = classify_reduction(X3_MINUS_X, 7)
    assert rep7.actual_type == GOOD_SUPERSINGULAR


def test_good_two_torsion_curve_classifies_by_its_split_kernel(monkeypatch):
    """classify_reduction passes the TwoTorsionCurve itself to potential_type,
    so at an odd good prime no reference curve is counted by _char_sum."""
    from isogeny_forge import reduction

    E = curve_from_pair(1, -1)  # y^2 = x^3 - x: supersingular iff p = 3 mod 4
    primes = (5, 7, 13, 499)
    want = [classify_reduction(E.model, p) for p in primes]

    def refuse(coeffs, p):
        raise AssertionError("general kernel reached from a good TwoTorsionCurve")

    monkeypatch.setattr(reduction, "_char_sum", refuse)
    assert [classify_reduction(E, p) for p in primes] == want
    assert [r.actual_type for r in want] == [GOOD_ORDINARY, GOOD_SUPERSINGULAR,
                                             GOOD_ORDINARY, GOOD_SUPERSINGULAR]


def test_multiplicative_example_e_1_11():
    E = curve_from_pair(1, 11)
    rep = classify_reduction(E, 11)
    assert rep.kodaira_type == "I2"
    assert rep.conductor_exponent == 1
    assert rep.v_delta_min == 2
    assert rep.actual_type in (SPLIT_MULTIPLICATIVE, NONSPLIT_MULTIPLICATIVE)
    assert _vp(conductor(E), 11) == 1


def test_additive_at_2_example():
    rep = classify_reduction(X3_MINUS_X, 2)
    assert rep.actual_type == ADDITIVE
    assert rep.conductor_exponent == 5


def test_split_test_against_point_count_oracle():
    """Split multiplicative <=> p - 1 points on the reduced curve away from
    the node (counted with infinity); brute-force count, no Legendre symbols."""
    mult_cases = []
    candidates = [m for m, _ in ANCHORS] + [
        curve_from_pair(1, 11).model,
        curve_from_pair(2, -3).model,
        curve_from_pair(3, 14).model,
        curve_from_pair(-5, 7).model,
    ]
    for model in candidates:
        for p in sorted(factorize(int(model.disc))):
            rep = classify_reduction(model, p)
            if rep.conductor_exponent != 1:
                continue
            mult_cases.append((rep, p))
            Wm = rep.minimal_model
            a1, a2, a3, a4, a6 = (int(c) % p for c in Wm.coeffs())
            count = 1  # infinity is always nonsingular
            for x in range(p):
                for y in range(p):
                    lhs = (y * y + a1 * x * y + a3 * y) % p
                    rhs = (((x + a2) * x + a4) * x + a6) % p
                    if lhs != rhs:
                        continue
                    fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % p
                    fy = (2 * y + a1 * x + a3) % p
                    if fx == 0 and fy == 0:
                        continue  # the node
                    count += 1
            expect_split = count == p - 1
            got_split = rep.actual_type == SPLIT_MULTIPLICATIVE
            assert got_split == expect_split, (model, p)
    assert len(mult_cases) >= 6


TAME_TYPES = {
    2: "II",
    3: "III",
    4: "IV",
    6: "I0*",
    8: "IV*",
    9: "III*",
    10: "II*",
}


def tame_oracle(model: WeierstrassModel, p: int):
    """Independent (Kodaira type, conductor exponent, v(Delta_min)) oracle for
    p >= 5 from invariant valuations of the p-minimalized (c4, c6, Delta)."""
    assert p >= 5
    c4, c6, delta = int(model.c4), int(model.c6), int(model.disc)
    vc4, vc6, vd = _vp(c4, p) if c4 else 10**9, _vp(c6, p) if c6 else 10**9, _vp(delta, p)
    k = min(vc4 // 4, vc6 // 6, vd // 12)
    vc4, vd = vc4 - 4 * k, vd - 12 * k
    if vd == 0:
        return "I0", 0, 0
    if vc4 == 0:
        return f"I{vd}", 1, vd
    if vd == 6:
        return "I0*", 2, vd
    if vd > 6 and vc4 == 2:
        return f"I{vd - 6}*", 2, vd
    return TAME_TYPES[vd], 2, vd


def random_model_corpus(seed, n):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        try:
            out.append(
                W(
                    rng.randint(-2, 2),
                    rng.randint(-4, 4),
                    rng.randint(-2, 2),
                    rng.randint(-6, 6),
                    rng.randint(-6, 6),
                )
            )
        except DegenerateCurveError:
            continue
    while len(out) < n + 10:
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if a and b and a != b:
            out.append(curve_from_pair(a, b).model)
    return out


def test_machine_matches_tame_oracle():
    for model in random_model_corpus(7, 25):
        delta = int(model.disc)
        for p in sorted(factorize(delta)):
            if p < 5:
                continue
            out = tate_algorithm(model, p)
            got = (out.kodaira_type, out.conductor_exponent, out.v_delta_min)
            assert got == tame_oracle(model, p), (model, p)


def test_consistency_triple_on_corpus():
    for model in random_model_corpus(13, 20):
        N = conductor(model)
        j = model.j
        for p in primes_up_to(100):
            rep = classify_reduction(model, p)
            f = rep.conductor_exponent
            assert f == _vp(N, p)
            assert (f == 0) == (rep.v_delta_min == 0)
            if f == 1:
                vj = _vp(j.numerator, p) - _vp(j.denominator, p)
                assert vj < 0 and vj == -rep.v_delta_min
                assert _vp(int(rep.minimal_model.c4), p) == 0


def test_conductor_invariant_under_model_changes():
    rng = random.Random(101)
    for model in random_model_corpus(19, 8):
        N = conductor(model)
        for _ in range(3):
            u = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3]))
            r = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            s = Fraction(rng.randint(-2, 2))
            t = Fraction(rng.randint(-3, 3), rng.choice([1, 3]))
            assert conductor(model.transform(u, r, s, t)) == N


def test_good_classification_matches_supersingularity():
    for model in random_model_corpus(29, 10):
        for p in primes_up_to(60):
            if p == 2:
                continue
            rep = classify_reduction(model, p)
            if rep.conductor_exponent != 0:
                continue
            ss = ap_trace(rep.minimal_model, p) % p == 0
            assert (rep.actual_type == GOOD_SUPERSINGULAR) == ss


def test_potential_type_examples():
    assert potential_type(X3_MINUS_X, 7) == POT_GOOD_SUPERSINGULAR
    assert potential_type(X3_MINUS_X, 5) == POT_GOOD_ORDINARY
    E = curve_from_pair(1, 11)
    assert potential_type(E, 11) == POT_MULTIPLICATIVE
    with pytest.raises(UnsupportedPrimeError):
        potential_type(X3_MINUS_X, 2)


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except UnsupportedPrimeError as e:
        return type(e), str(e)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(*[st.one_of(st.integers(-30, 30), st.integers(-10**6, 10**6))] * 2),
    st.sampled_from(primes_up_to(500)),
)
@example((1, -1), 2)
@example((1, -1), 499)  # supersingular: 499 = 3 mod 4
@example((1, 11), 11)  # potentially multiplicative
@example((50, 75), 5)  # p | ab(a - b), potentially good
@example((1, 3), 3)
def test_potential_type_of_two_torsion_curve_matches_its_model(ab, p):
    """A TwoTorsionCurve takes its own a_p when p does not divide ab(a - b);
    its WeierstrassModel takes the j-reference path."""
    a, b = ab
    assume(a and b and a != b)
    E = curve_from_pair(a, b)
    assert _outcome(potential_type, E, p) == _outcome(potential_type, E.model, p)


def test_potential_type_iff_j_valuation():
    for model in random_model_corpus(31, 15):
        j = model.j
        for p in [3, 5, 7, 11, 13]:
            vj = _vp(j.numerator, p) - _vp(j.denominator, p) if j != 0 else 10**9
            pot = potential_type(model, p)
            assert (pot == POT_MULTIPLICATIVE) == (vj < 0)


def test_potential_type_agrees_with_actual_good_reduction():
    # at a good odd prime the potential type must equal the actual type
    for model in random_model_corpus(37, 12):
        for p in primes_up_to(50):
            if p == 2:
                continue
            rep = classify_reduction(model, p)
            if rep.conductor_exponent != 0:
                continue
            expected = (
                POT_GOOD_SUPERSINGULAR
                if rep.actual_type == GOOD_SUPERSINGULAR
                else POT_GOOD_ORDINARY
            )
            assert rep.potential_type == expected


def test_conductor_rejects_singular():
    with pytest.raises(DegenerateCurveError):
        conductor(curve_from_pair(1, 1))


def test_model_with_a_denominator_prime_to_p_is_refused():
    W = from_coeffs(0, 0, 0, Fraction(1, 3), 1)
    for local in (tate_algorithm, classify_reduction):
        with pytest.raises(ValueError, match="model must be integral"):
            local(W, 2)
    # a denominator that is a power of p is cleared by rescaling
    assert tate_algorithm(W, 3).kodaira_type == "III*"
    assert conductor(W) == conductor(from_coeffs(0, 0, 0, 3**3, 3**6))


TWIST_TRANSITION = {
    "I0": "I0*",
    "II": "IV*",
    "III": "III*",
    "IV": "II*",
    "I0*": "I0",
    "IV*": "II",
    "III*": "III",
    "II*": "IV",
}


def test_quadratic_twist_transition_oracle():
    """At a tame prime, twisting by p swaps types in the classical pattern
    I_n <-> I_n*, II <-> IV*, III <-> III*, IV <-> II*; the twisted curve is
    always additive with f = 2.  This exercises the step machine end to end
    against an independent structural fact."""
    rng = random.Random(424)
    checked = {}
    for _ in range(60):
        p = rng.choice([5, 7, 11, 13])
        A = rng.randint(-40, 40)
        B = rng.randint(-40, 40)
        try:
            E = W(0, 0, 0, A, B)
        except DegenerateCurveError:
            continue
        out = tate_algorithm(E, p)
        twist = W(0, 0, 0, A * p * p, B * p**3)
        tout = tate_algorithm(twist, p)
        typ = out.kodaira_type
        if typ.startswith("I") and typ not in TWIST_TRANSITION:
            n = typ.rstrip("*")[1:]
            expected = f"I{n}" if typ.endswith("*") else f"I{n}*"
        else:
            expected = TWIST_TRANSITION[typ]
        assert tout.kodaira_type == expected, (A, B, p, typ, tout.kodaira_type)
        if expected != "I0" and not (expected.startswith("I") and not expected.endswith("*")):
            assert tout.conductor_exponent == 2
        checked[expected] = checked.get(expected, 0) + 1
    assert len(checked) >= 3  # the random corpus hit a spread of types


def test_machine_transform_composition_is_exact():
    # the composed (u, r, s, t) must carry the input model to the machine's
    # final model, translations included
    models = [m for m, _ in ANCHORS] + random_model_corpus(47, 10)
    for model in models:
        for p in sorted(factorize(int(model.disc))):
            out = tate_algorithm(model, p)
            u, r, s, t = out.transform
            assert model.transform(u, r, s, t) == out.model, (model, p)


def test_minimal_model_transform_verifies():
    # a model blown up by u = 1/p is not p-minimal: the machine's transform
    # must still carry it to its final model, and that model is p-integral
    for model in random_model_corpus(23, 6):
        for p in [2, 3, 5, 7]:
            blow = model.transform(Fraction(1, p), 0, 0, 0)
            out = tate_algorithm(blow, p)
            u, r, s, t = out.transform
            assert blow.transform(u, r, s, t) == out.model, (model, p)
            assert all(c.denominator % p for c in out.model.coeffs()), (model, p)


# coefficients c_i * p^e_i: large e_i make additive and non-minimal models common
_SCALED_MODELS = st.tuples(
    st.tuples(*(st.integers(-b, b) for b in (2, 6, 2, 40, 80))),
    st.tuples(*[st.integers(0, 7)] * 5),
)


@settings(max_examples=400, deadline=None)
@given(
    _SCALED_MODELS,
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(0, 2),
    st.tuples(st.integers(-60, 60), st.integers(-6, 6), st.integers(-60, 60)),
)
@example(((0, 0, 0, 1, 1), (0, 0, 0, 4, 6)), 5, 2, (7, -3, 11))  # already non-minimal
@example(((0, 0, 0, 1, 0), (0, 0, 0, 0, 0)), 2, 1, (1, 1, 1))
def test_machine_is_invariant_under_integral_changes_of_model(scaled, p, k, rst):
    """The model p^-k blown up and moved by an integer (r, s, t) has the same
    type, f and v(Delta_min), k more restarts, and a transform that carries it
    to the model reached."""
    cs, es = scaled
    coeffs = [c * p**e for c, e in zip(cs, es)]
    assume(_discriminant(*coeffs) != 0)
    model = W(*coeffs)
    moved = model.transform(Fraction(1, p**k), 0, 0, 0).transform(1, *rst)
    base = tate_algorithm(model, p)
    out = tate_algorithm(moved, p)
    got = (out.kodaira_type, out.conductor_exponent, out.v_delta_min)
    if p >= 5:
        assert got == tame_oracle(model, p)
    assert got == (base.kodaira_type, base.conductor_exponent, base.v_delta_min)
    assert moved.transform(*out.transform) == out.model
    assert out.restarts == k + base.restarts


def test_machine_builds_one_model_and_transforms_only_to_integralize(monkeypatch):
    """The step machine runs on ints: one WeierstrassModel per run (the
    reported model) and one transform, for a non-integral input alone."""
    from isogeny_forge import reduction

    cases = [
        (W(0, 0, 0, 4, 0), 2, 0),  # I3*, several translations
        (W(0, 0, 0, 5**4, 2 * 5**6), 5, 0),  # one restart
        (W(0, 0, 0, 7**8, 7**12), 7, 0),  # two restarts
        (W(0, 0, 0, Fraction(1, 3), 1), 3, 1),  # p-integralized first
    ]
    counts = {}
    transform, new = WeierstrassModel.transform, WeierstrassModel.__new__

    def counted_transform(self, *args):
        counts["transform"] += 1
        return transform(self, *args)

    def counted_new(cls, *args):
        counts["model"] += 1
        return new(cls, *args)

    monkeypatch.setattr(WeierstrassModel, "transform", counted_transform)
    monkeypatch.setattr(WeierstrassModel, "__new__", counted_new)
    restarts = []
    for model, p, transforms in cases:
        counts.update(transform=0, model=0)
        reduction._tate_cache.cache_clear()
        restarts.append(tate_algorithm(model, p).restarts)
        assert counts == {"transform": transforms, "model": 1 + transforms}, (model, p)
    assert restarts == [0, 1, 2, 0]


def test_report_invariants_actual_type_coherence():
    for model in random_model_corpus(41, 15):
        for p in primes_up_to(60):
            rep = classify_reduction(model, p)
            f = rep.conductor_exponent
            if rep.actual_type in (GOOD_ORDINARY, GOOD_SUPERSINGULAR):
                assert f == 0 and rep.v_delta_min == 0
                assert rep.kodaira_type == "I0"
            elif rep.actual_type in (SPLIT_MULTIPLICATIVE, NONSPLIT_MULTIPLICATIVE):
                assert f == 1 and rep.v_delta_min > 0
                assert rep.kodaira_type == f"I{rep.v_delta_min}"
            else:
                assert rep.actual_type == ADDITIVE and f >= 2


_CUBIC_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 101])


@settings(max_examples=200, deadline=None)
@given(_CUBIC_PRIMES, st.integers(0, 100), st.integers(0, 100))
def test_repeated_root_of_cubic_against_construction(p, rho, sigma):
    rho, sigma = rho % p, sigma % p
    # (T - rho)^2 (T - sigma) = T^3 + A2 T^2 + A4 T + A6
    A2 = -(2 * rho + sigma) % p
    A4 = (rho * rho + 2 * rho * sigma) % p
    A6 = -rho * rho * sigma % p
    kind = "triple" if sigma == rho else "double"
    assert _repeated_root_of_cubic(A2, A4, A6, p) == (kind, rho)


@settings(max_examples=200, deadline=None)
@given(_CUBIC_PRIMES, st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_repeated_root_of_cubic_separable(p, A2, A4, A6):
    disc = 18 * A2 * A4 * A6 - 4 * A2**3 * A6 + A2**2 * A4**2 - 4 * A4**3 - 27 * A6**2
    if disc % p:
        assert _repeated_root_of_cubic(A2, A4, A6, p) == ("separable", None)


# -- bad primes of a two-torsion curve -----------------------------------------

_BOUND = 10**9
_NONZERO = st.integers(-_BOUND, _BOUND).filter(bool)
_SMOOTH = st.builds(
    lambda sign, n: sign * n,
    st.sampled_from((1, -1)),
    st.sampled_from([2**i * 3**j for i in range(30) for j in range(19) if 2**i * 3**j <= _BOUND]),
)
_PAIRS = st.one_of(
    st.tuples(_NONZERO, _NONZERO),
    st.builds(lambda k, m, n: (k * m, k * n), st.integers(1, 10**4),
              st.integers(-10**5, 10**5).filter(bool), st.integers(-10**5, 10**5).filter(bool)),
    st.tuples(_SMOOTH, _SMOOTH),
    st.builds(lambda a, d: (a, a - d), _NONZERO, st.sampled_from((1, -1))),
).filter(lambda ab: 0 != ab[0] != ab[1] != 0 and max(map(abs, ab)) <= _BOUND)


@settings(max_examples=300, deadline=None)
@given(_PAIRS)
@example((1, -1))
@example((2**29, 3**18))
@example((6, 12))  # a shared factor
@example((-5, -4))  # a - b = -1
def test_bad_primes_of_a_two_torsion_curve_are_those_of_its_discriminant(ab):
    E = curve_from_pair(*ab)
    assert bad_primes(E, E.model) == sorted(factorize(E.delta))


def test_bad_primes_of_a_two_torsion_curve_never_factor_its_discriminant(monkeypatch):
    """conductor and supersingular_scan factor a, b and a - b, each at most
    max(|a|, |b|, |a - b|), instead of the 16 a^2 b^2 (a - b)^2 of Delta:
    neither trial division, nor Pollard rho on its cofactor, nor factorize
    sees a larger number."""
    import sys

    from isogeny_forge import exactnum
    from isogeny_forge.checkers import supersingular_scan

    factored = []

    def watch(f):
        def watched(*args):
            factored.append(abs(args[-1]))
            return f(*args)
        return watched

    for f in (factorize, exactnum._trial_division, exactnum._factor_cofactor):
        for name, module in list(sys.modules.items()):
            if name.startswith("isogeny_forge") and getattr(module, f.__name__, None) is f:
                monkeypatch.setattr(module, f.__name__, watch(f))
    a, b = -520251, 239738
    E = curve_from_pair(a, b)
    conductor.cache_clear()
    conductor(E)
    supersingular_scan(E, 100)
    assert factored and max(factored) <= max(abs(a), abs(b), abs(a - b))


# -- int models against their Fraction twins -------------------------------------

_RATIONAL = st.fractions(-3, 3, max_denominator=3)
_UNIT = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)])


def _run(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=120, deadline=None)
@given(st.integers(-300, 300), st.integers(-300, 300),
       st.tuples(_UNIT, _RATIONAL, _RATIONAL, _RATIONAL), st.sampled_from(primes_up_to(60)))
@example(1, -1, (1, 0, 0, 0), 2)
@example(5, 1, (5, 0, 0, 0), 5)  # a p-power rescale before the machine runs
@example(1, 11, (1, 1, -1, 2), 11)  # potentially multiplicative, on an int model
def test_int_and_fraction_models_agree(a, b, change, p):
    """The curve's int model and a rational change of it give the same Tate
    outcome, classification, potential type and conductor as the same
    coefficients held as Fractions (models.from_coeffs).  Integral
    coefficients, c4, c6, disc, the reported model and a transform without
    a p-power rescale are ints; j is the curve's j, as a Fraction."""
    from isogeny_forge import reduction

    assume(a and b and a != b)
    E = curve_from_pair(a, b)
    for model in (E.model, E.model.transform(*change)):
        twin = from_coeffs(*model.coeffs())
        invariants = (*model.coeffs(), model.c4, model.c6, model.disc)
        assert not any(isinstance(x, float) for x in invariants)
        if all(x.denominator == 1 for x in invariants):
            assert all(type(x) is int for x in invariants), model
        assert type(model.j) is Fraction and model.j == E.j
        out = _run(tate_algorithm, model, p)
        reduction._tate_cache.cache_clear()  # the twin is equal as a key: run it afresh
        assert out == _run(tate_algorithm, twin, p)
        if isinstance(out, TateOutcome):
            assert all(type(c) is int for c in out.model.coeffs())
            rescaled = any(c.denominator % p == 0 for c in model.coeffs())
            assert rescaled or all(type(x) is int for x in out.transform)
        assert _run(classify_reduction, model, p) == _run(classify_reduction, twin, p)
        if p > 2:
            assert potential_type(model, p) == potential_type(twin, p) == potential_type(E, p)
        assert conductor.__wrapped__(model) == conductor.__wrapped__(twin) == conductor(E)


def test_conductor_guard_edge(monkeypatch):
    """A conductor factors cofactors of up to MAX_FACTOR_BITS bits left by
    trial division, and refuses a larger one before it factors anything."""
    from isogeny_forge import reduction
    from isogeny_forge.errors import BudgetExceededError

    n = 4294967291 * 4294967279  # two 32-bit primes: the dearest kind of 64-bit cofactor
    assert reduction.MAX_FACTOR_BITS == n.bit_length() == 64
    assert conductor(curve_from_pair(n, 1 - n)) % n == 0
    factored = []
    monkeypatch.setattr(reduction, "_factor_cofactor", lambda out, n: factored.append(n))
    # 2^64 + 1 = 274177 * 67280421310721 has 65 bits and no prime below 43:
    # it is a, then b, then a - b
    for ab in [(2**64 + 1, 1), (1, -(2**64 + 1)), (2**64 + 2, 1)]:
        E = curve_from_pair(*ab)
        with pytest.raises(BudgetExceededError, match="has 65 bits, over 64"):
            conductor(E)
    # any other model factors its discriminant -432 (2^64 + 1)^2 whole
    W = from_coeffs(0, 0, 0, 0, 2**64 + 1)
    with pytest.raises(BudgetExceededError, match="has 129 bits, over 64"):
        conductor(W)
    assert factored == []


def test_conductor_trial_divides_the_discriminant_once(monkeypatch):
    """A model that is not a TwoTorsionCurve's own has its discriminant
    trial-divided once: the guard's division is the one Pollard rho starts
    from."""
    from isogeny_forge import exactnum, reduction

    divided = []
    trial_division = exactnum._trial_division

    def counted(n):
        divided.append(n)
        return trial_division(n)

    for module in (exactnum, reduction):  # factorize reads exactnum's binding
        monkeypatch.setattr(module, "_trial_division", counted)
    W = from_coeffs(0, -1, 1, -10, -20)  # 11a1, discriminant -11^5
    conductor.cache_clear()
    assert conductor(W) == 11
    assert divided == [-161051]


# -- the good-prime exit against the step machine --------------------------------


def _typed(x):
    """x with the type of every field beside its value, tuples recursively."""
    if isinstance(x, tuple):
        return type(x), tuple(map(_typed, x))
    return type(x), x


def _nonsingular_mod_p(model, p):
    """No point of F_p^2 is singular on the reduction of a p-integral model."""
    a1, a2, a3, a4, a6 = (int(c) % p for c in model.coeffs())
    return not any(
        (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p
        == (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
        == (2 * y + a1 * x + a3) % p
        == 0
        for x in range(p)
        for y in range(p)
    )


_TWO_TORSION_COEFFS = st.tuples(st.integers(-300, 300), st.integers(-300, 300)).filter(
    lambda ab: 0 != ab[0] != ab[1] != 0).map(lambda ab: curve_from_pair(*ab).model.coeffs())
_SMALL_COEFFS = st.tuples(*(st.integers(-6, 6) for _ in range(5))).filter(
    lambda cs: _discriminant(*cs))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TWO_TORSION_COEFFS, _SMALL_COEFFS), st.sampled_from(primes_up_to(97)),
       st.integers(-2, 1), st.tuples(*(st.integers(-2, 2) for _ in range(3))))
@example((0, 0, 0, -1, 0), 5, 0, (0, 0, 0))  # good: the exit
@example((0, 0, 0, -1, 0), 5, 1, (0, 0, 0))  # good, but 5-power denominators
@example((0, 0, 0, -1, 0), 5, -1, (0, 0, 0))  # good, non-minimal at 5
@example((0, -1, 1, -10, -20), 11, 0, (1, -1, 2))  # X_0(11): I5 at 11
@example((0, 0, 0, 4, 0), 2, 0, (0, 0, 0))  # wild at 2
def test_tate_algorithm_equals_the_step_machine(coeffs, p, k, rst):
    """tate_algorithm, with its exit at a prime not dividing the discriminant
    of a model of ints, gives the outcome of the step machine alone, field for
    field and type for type, and answers each (model, p) once.  The inputs
    are a model, its change by u = p^k (p-power denominators for k > 0) and a
    translation, each held as ints and as Fractions.  For p <= 31 the outcome
    is I0 exactly when its model has no singular point mod p."""
    from isogeny_forge import reduction

    model = WeierstrassModel(*coeffs)
    twin = model.transform(Fraction(p) ** k, *rst)
    for W in (model, twin, from_coeffs(*model.coeffs()), from_coeffs(*twin.coeffs())):
        reduction._tate_cache.cache_clear()
        got = _run(tate_algorithm, W, p)
        assert _typed(got) == _typed(_run(reduction._tate_machine, W, p)), (W, p)
        if not isinstance(got, TateOutcome):
            continue
        assert tate_algorithm(W, p) is got
        if p <= 31:
            assert (got.kodaira_type == "I0") == _nonsingular_mod_p(got.model, p), (W, p)
