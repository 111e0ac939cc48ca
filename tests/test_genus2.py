import random
from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isogeny_forge import genus2
from isogeny_forge.errors import BadPrimeError, CertificateError, SingularCurveError
from isogeny_forge.exactnum import primes_up_to
from isogeny_forge.genus2 import (
    HyperellipticCurve,
    absolute_invariants,
    hyperelliptic_point_count,
    igusa_clebsch_of_sextic,
    resultant,
    sextic_discriminant,
)
from isogeny_forge.scholten import build_scholten, verify_split_jacobian

import transvectants


def poly_from_roots(roots, lead=1):
    cs = [Fraction(lead)]
    for r in roots:
        nxt = [Fraction(0)] * (len(cs) + 1)
        for i, c in enumerate(cs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        cs = nxt
    # low-to-high order with integer entries when possible
    out = []
    for c in cs:
        assert c.denominator == 1
        out.append(int(c))
    return out


def oracle_invariants(roots, lead):
    """Direct root-difference evaluation of (I2, I4, I6, I10)."""
    roots = [Fraction(r) for r in roots]
    c = Fraction(lead)

    def d2(i, j):
        return (roots[i] - roots[j]) ** 2

    idx = range(6)
    # 15 pairings
    i2 = Fraction(0)
    seen = set()
    for perm in permutations(idx):
        pairing = tuple(sorted(tuple(sorted(perm[k : k + 2])) for k in (0, 2, 4)))
        if pairing in seen:
            continue
        seen.add(pairing)
        (a, b), (cc, dd), (e, f) = pairing
        i2 += d2(a, b) * d2(cc, dd) * d2(e, f)
    assert len(seen) == 15
    # 10 splits into two triples
    i4 = Fraction(0)
    triples = set()
    for tri in combinations(idx, 3):
        other = tuple(sorted(set(idx) - set(tri)))
        key = tuple(sorted([tri, other]))
        triples.add(key)
    assert len(triples) == 10
    for tri, other in triples:
        term = Fraction(1)
        for i, j in combinations(tri, 2):
            term *= d2(i, j)
        for i, j in combinations(other, 2):
            term *= d2(i, j)
        i4 += term
    # 60 matched triple pairs
    i6 = Fraction(0)
    count = 0
    for tri, other in triples:
        base = Fraction(1)
        for i, j in combinations(tri, 2):
            base *= d2(i, j)
        for i, j in combinations(other, 2):
            base *= d2(i, j)
        for matching in permutations(other):
            term = base
            for i, j in zip(tri, matching):
                term *= d2(i, j)
            i6 += term
            count += 1
    assert count == 60
    i10 = Fraction(1)
    for i, j in combinations(idx, 2):
        i10 *= d2(i, j)
    return (c**2 * i2, c**4 * i4, c**6 * i6, c**10 * i10)


def test_resultant_known_value():
    # Res(x^6 - 1, 6 x^5) = 6^6 * (product of roots)^5 = -46656
    assert resultant([-1, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 6]) == -46656
    # two nonzero constants: the empty Sylvester determinant is 1
    assert resultant([3], [5]) == 1


def test_discriminant_examples():
    assert sextic_discriminant([-1, 0, 0, 0, 0, 0, 1]) == -46656
    # (x-1)^2 * quartic has a repeated root
    cs = poly_from_roots([1, 1, 2, 3, 4, 5])
    assert sextic_discriminant(cs) == 0
    # (x^2-1)(x^2-2)(x^2-3): six distinct roots
    cs = [ -6, 0, 11, 0, -6, 0, 1 ]
    assert sextic_discriminant(cs) != 0


def test_discriminant_rejects_wrong_degree():
    with pytest.raises(ValueError):
        sextic_discriminant([1, 2, 3, 4, 5, 6])  # only degree 5 data
    with pytest.raises(ValueError):
        sextic_discriminant([1, 0, 0, 0, 0, 1, 0])  # c6 = 0


def test_discriminant_vanishes_iff_repeated_root():
    rng = random.Random(42)
    for _ in range(40):
        roots = [rng.randint(-6, 6) for _ in range(6)]
        lead = rng.choice([1, 2, -3])
        cs = poly_from_roots(roots, lead)
        d = sextic_discriminant(cs)
        assert (d == 0) == (len(set(roots)) < 6)


def test_igusa_matches_root_oracle_on_standard_example():
    roots = [0, 1, 2, 3, 4, 5]
    cs = poly_from_roots(roots)
    got = igusa_clebsch_of_sextic(cs)
    want = oracle_invariants(roots, 1)
    assert got == want


def test_igusa_matches_root_oracle_randomized():
    rng = random.Random(7)
    done = 0
    while done < 25:
        roots = rng.sample(range(-10, 11), 6)
        lead = rng.choice([1, 2, 3, -1, -5])
        cs = poly_from_roots(roots, lead)
        got = igusa_clebsch_of_sextic(cs)
        want = oracle_invariants(roots, lead)
        assert got == want, (roots, lead)
        done += 1


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=6, max_size=6, unique=True),
    st.integers(-20, 20).filter(bool),
)
def test_igusa_matches_root_oracle_on_split_sextics(roots, lead):
    # split sextics are Zariski-dense, so agreement here pins the polynomial identity
    cs = poly_from_roots(roots, lead)
    assert igusa_clebsch_of_sextic(cs) == oracle_invariants(roots, lead)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-40, 40)] * 6, st.integers(-40, 40).filter(bool)))
def test_igusa_matches_the_fraction_transvectants(cs):
    """On integer sextics the invariants summed in ints and scaled once are
    the Fraction-transvectant oracle's, and are ints."""
    disc = sextic_discriminant(cs)
    assume(disc != 0)
    got = igusa_clebsch_of_sextic(cs)
    assert got == transvectants.igusa_clebsch(cs, disc)
    assert all(type(x) is int for x in got)


def test_igusa_rational_roots():
    roots = [Fraction(1, 2), 0, 1, 2, 3, -1]
    cs = poly_from_roots(roots, 2)
    got = igusa_clebsch_of_sextic(cs)
    want = oracle_invariants(roots, 2)
    assert got == want


def test_i10_is_universal_multiple_of_disc():
    rng = random.Random(99)
    ratios = set()
    count = 0
    while count < 100:
        cs = [rng.randint(-8, 8) for _ in range(6)] + [rng.choice([1, 2, 3, -2])]
        d = sextic_discriminant(cs)
        if d == 0:
            continue
        inv = igusa_clebsch_of_sextic(cs)
        ratios.add(inv[3] / d)
        count += 1
    assert ratios == {Fraction(-1)}


def test_singular_sextic_rejected():
    cs = poly_from_roots([1, 1, 2, 3, 4, 5])
    with pytest.raises(SingularCurveError):
        igusa_clebsch_of_sextic(cs)


@pytest.mark.parametrize("disc_first", [False, True])
def test_curve_computes_its_discriminant_once(monkeypatch, disc_first):
    calls = []
    real = genus2.sextic_discriminant
    monkeypatch.setattr(genus2, "sextic_discriminant", lambda cs: calls.append(cs) or real(cs))
    C = HyperellipticCurve(3, tuple(poly_from_roots([0, 1, 2, 3, 4, 5], 2)))
    if disc_first:
        C.disc
    key = C.absolute_igusa()
    assert C.disc == real(C.coeffs)
    assert calls == [C.coeffs]
    assert key == absolute_invariants(igusa_clebsch_of_sextic(C.coeffs))


def test_absolute_invariants_detect_rescaling():
    cs = poly_from_roots([0, 1, 2, 3, 4, 5])
    inv = igusa_clebsch_of_sextic(cs)
    lam = Fraction(7)
    scaled = tuple(v * lam ** w for v, w in zip(inv, (2, 4, 6, 10)))
    assert absolute_invariants(inv) == absolute_invariants(scaled)
    other = igusa_clebsch_of_sextic(poly_from_roots([0, 1, 2, 3, 4, 6]))
    assert absolute_invariants(inv) != absolute_invariants(other)


def brute_projective_count(C: HyperellipticCurve, p: int) -> int:
    """Oracle: direct solution count of lam y^2 = S(x) plus the right number
    of points at infinity, using explicit square sets."""
    squares = {t * t % p for t in range(p)}
    nonzero_squares = {t * t % p for t in range(1, p)}
    inv_lam = pow(C.lam % p, -1, p)
    n = 0
    for x in range(p):
        v = 0
        for c in reversed(C.coeffs):
            v = (v * x + c) % p
        v = v * inv_lam % p
        if v == 0:
            n += 1
        elif v in nonzero_squares:
            n += 2
    if C.coeffs[6] * inv_lam % p in nonzero_squares:
        n += 2
    return n


def test_point_count_against_brute_force():
    C = HyperellipticCurve(1, tuple(poly_from_roots([0, 1, 2, 3, 4, 5])))
    for p in [11, 13, 17, 19]:
        if C.disc % p == 0:
            continue
        assert hyperelliptic_point_count(C, p) == brute_projective_count(C, p)
    rng = random.Random(55)
    done = 0
    while done < 10:
        cs = [rng.randint(-5, 5) for _ in range(6)] + [rng.choice([1, 2, 3])]
        lam = rng.choice([1, -1, 2, 5])
        try:
            C = HyperellipticCurve(lam, tuple(cs))
        except ValueError:
            continue
        if C.disc == 0:
            continue
        for p in [11, 13, 17, 23]:
            if C.disc % p == 0 or C.lam % p == 0 or C.coeffs[6] % p == 0:
                continue
            assert hyperelliptic_point_count(C, p) == brute_projective_count(C, p)
        done += 1


def test_point_count_bounds_and_errors():
    C = HyperellipticCurve(1, tuple(poly_from_roots([0, 1, 2, 3, 4, 5])))
    for p in [11, 13, 17, 19, 23]:
        if C.disc % p == 0:
            continue
        n = hyperelliptic_point_count(C, p)
        assert n <= 2 * p + 2
        assert (n - p - 1) ** 2 <= 16 * p  # Hasse-Weil for genus 2
    with pytest.raises(BadPrimeError):
        hyperelliptic_point_count(HyperellipticCurve(11, tuple(poly_from_roots([0, 1, 2, 3, 4, 5]))), 11)
    with pytest.raises(BadPrimeError):
        hyperelliptic_point_count(C, 2)


def test_point_count_translation_invariant():
    rng = random.Random(77)
    done = 0
    while done < 20:
        roots = rng.sample(range(-8, 9), 6)
        lead = rng.choice([1, 2, -1])
        t = rng.randint(-4, 4)
        lam = rng.choice([1, 3, -2])
        C1 = HyperellipticCurve(lam, tuple(poly_from_roots(roots, lead)))
        C2 = HyperellipticCurve(lam, tuple(poly_from_roots([r - t for r in roots], lead)))
        p = rng.choice([11, 13, 17, 19, 23])
        if C1.disc % p == 0 or lam % p == 0 or lead % p == 0:
            continue
        assert hyperelliptic_point_count(C1, p) == hyperelliptic_point_count(C2, p)
        done += 1


def brute_two_torsion_count(a: int, b: int, p: int) -> int:
    """Oracle: #E(F_p) for y^2 = x(x - a)(x - b) from explicit square sets."""
    nonzero_squares = {t * t % p for t in range(1, p)}
    n = 1  # infinity
    for x in range(p):
        v = x * (x - a) * (x - b) % p
        n += 1 if v == 0 else 2 if v in nonzero_squares else 0
    return n


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(-12, 12)] * 4))
def test_split_identity_rows_against_enumeration(quad):
    C = build_scholten(*quad)
    assume(C.is_smooth)
    cert = verify_split_jacobian(C, primes_up_to(61), min_primes=0)
    for p, count, ap1, ap2, ok in cert.rows:
        assert count == brute_projective_count(C.curve, p)
        assert ap1 == p + 1 - brute_two_torsion_count(*quad[:2], p)
        assert ap2 == p + 1 - brute_two_torsion_count(*quad[2:], p)
        assert ok
    tested = {r[0] for r in cert.rows} | {p for p, _ in cert.skipped}
    assert tested == set(primes_up_to(61))


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-40, 40)] * 4), st.sampled_from(primes_up_to(300)[1:]))
def test_factored_count_matches_the_loop_and_enumeration(quad, p):
    """The count of a Scholten curve from its even factors (the mask kernel)
    equals the {x, -x} loop on the same sextic without factors, and the
    enumeration of its points for p <= 60."""
    C = build_scholten(*quad)
    assume(C.is_smooth)
    curve = C.curve
    assume((curve.lam * curve.disc * curve.coeffs[6]) % p)
    assert curve.even_factors is not None
    plain = HyperellipticCurve(curve.lam, curve.coeffs)
    count = hyperelliptic_point_count(curve, p)
    assert count == hyperelliptic_point_count(plain, p)
    if p <= 60:
        assert count == brute_projective_count(curve, p)


def test_even_factors_must_multiply_out_to_the_sextic():
    C = build_scholten(1, 2, 3, 4).curve
    assert C == HyperellipticCurve(C.lam, C.coeffs)  # the factors are not compared
    (l1, k1), (l2, k2), (l3, k3) = C.even_factors
    for wrong in [((l1, k1), (l2, k2), (l3, k3 + 1)),
                  ((l1, k1), (l2, k2)),
                  ((l1, k1), (l2, k2), (l3, k3), (1, 1))]:
        with pytest.raises(ValueError, match="do not multiply out"):
            HyperellipticCurve(C.lam, C.coeffs, wrong)


@pytest.mark.parametrize("factored", [True, False])
def test_count_outside_the_hasse_weil_bound_is_refused(monkeypatch, factored):
    C = build_scholten(1, 2, 3, 4).curve
    if not factored:
        C = HyperellipticCurve(C.lam, C.coeffs)
    kernel = "_split_char_sum" if factored else "_char_sum"
    assert hyperelliptic_point_count(C, 101) > 0
    monkeypatch.setattr(genus2, kernel, lambda coeffs, p: p)
    with pytest.raises(CertificateError, match="Hasse-Weil"):
        hyperelliptic_point_count(C, 101)
