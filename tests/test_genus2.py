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
    sextic_discriminant,
)
from isogeny_forge.scholten import build_scholten, verify_split_jacobian

import sextics
import transvectants
from char_sums import sextic_count
from sextics import SexticCurve, resultant


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


def igusa(cs):
    """The invariants of any sextic, with the Sylvester discriminant."""
    return igusa_clebsch_of_sextic(cs, sextics.sextic_discriminant(cs))


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
    assert sextics.sextic_discriminant([-1, 0, 0, 0, 0, 0, 1]) == -46656
    # (x^2-1)(x^2-4)(x^2-9): six distinct roots
    factors = ((1, 1), (1, 4), (1, 9))
    assert sextic_discriminant(factors) == -64 * 36 * (3 * 8 * 5) ** 4
    assert sextic_discriminant(factors) == sextics.sextic_discriminant([-36, 0, 49, 0, -14, 0, 1])
    # a double root at 0, a repeated factor, and proportional pairs
    for repeated in [((1, 0), (1, 4), (1, 9)), ((1, 4), (1, 4), (1, 9)),
                     ((2, 8), (1, 4), (1, 9)), ((-3, -12), (1, 4), (1, 9))]:
        assert sextic_discriminant(repeated) == 0


def test_discriminant_rejects_wrong_degree():
    for factors in [((1, 1), (1, 4)), ((1, 1), (1, 4), (1, 9), (1, 16))]:
        with pytest.raises(ValueError):
            sextic_discriminant(factors)
        with pytest.raises(ValueError, match="need exactly three even factors"):
            HyperellipticCurve(1, factors)
    with pytest.raises(ValueError, match="degree must be exactly 6"):
        HyperellipticCurve(1, ((1, 1), (0, 4), (1, 9)))  # S has degree 4


def test_discriminant_vanishes_iff_repeated_root():
    """The roots of S are +-sqrt(k/l): one repeats where a k is 0 or two
    pairs (l, k) are proportional."""
    rng = random.Random(42)
    for _ in range(200):
        factors = tuple((rng.choice([1, 2, -3]), rng.randint(-4, 4)) for _ in range(3))
        squares = {Fraction(k, l) for l, k in factors}
        assert (sextic_discriminant(factors) == 0) == (len(squares) < 3 or 0 in squares)


entries = st.integers(-10**6, 10**6)
small = st.integers(-1000, 1000)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(entries.filter(bool), entries), min_size=3, max_size=3),
       st.sampled_from(["free", "k = 0", "proportional"]), st.permutations(range(3)),
       st.tuples(small.filter(bool), small), small.filter(bool))
def test_closed_form_discriminant_is_the_sylvester_one(factors, kind, order, base, m):
    """-64 prod l k prod (l_i k_j - l_j k_i)^4 is Res(S, S')/lc(S), also
    where it is 0: a k = 0, or a pair proportional to another."""
    i, j = order[:2]
    if kind == "k = 0":
        factors[i] = (factors[i][0], 0)
    elif kind == "proportional":  # (l, k) and (m l, m k), entries up to 10^6
        l, k = base
        factors[i], factors[j] = (l, k), (m * l, m * k)
    C = HyperellipticCurve(1, tuple(factors))
    assert sextic_discriminant(C.even_factors) == sextics.sextic_discriminant(C.coeffs)
    if kind != "free":
        assert C.disc == 0


def test_igusa_matches_root_oracle_on_standard_example():
    roots = [0, 1, 2, 3, 4, 5]
    cs = poly_from_roots(roots)
    got = igusa(cs)
    want = oracle_invariants(roots, 1)
    assert got == want


def test_igusa_matches_root_oracle_randomized():
    rng = random.Random(7)
    done = 0
    while done < 25:
        roots = rng.sample(range(-10, 11), 6)
        lead = rng.choice([1, 2, 3, -1, -5])
        cs = poly_from_roots(roots, lead)
        got = igusa(cs)
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
    assert igusa(cs) == oracle_invariants(roots, lead)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-40, 40)] * 6, st.integers(-40, 40).filter(bool)))
def test_igusa_matches_the_fraction_transvectants(cs):
    """On integer sextics the invariants summed in ints and scaled once are
    the Fraction-transvectant oracle's, and are ints."""
    disc = sextics.sextic_discriminant(cs)
    assume(disc != 0)
    got = igusa_clebsch_of_sextic(cs, disc)
    assert got == transvectants.igusa_clebsch(cs, disc)
    assert all(type(x) is int for x in got)


def test_igusa_rational_roots():
    roots = [Fraction(1, 2), 0, 1, 2, 3, -1]
    cs = poly_from_roots(roots, 2)
    got = igusa(cs)
    want = oracle_invariants(roots, 2)
    assert got == want


def test_i10_is_universal_multiple_of_disc():
    """I10 of a curve, from the closed form, is minus the Sylvester
    discriminant of its sextic."""
    rng = random.Random(99)
    ratios = set()
    count = 0
    while count < 100:
        factors = tuple((rng.choice([1, 2, 3, -2]), rng.randint(-8, 8)) for _ in range(3))
        C = HyperellipticCurve(rng.choice([1, -5]), factors)
        if C.disc == 0:
            continue
        ratios.add(Fraction(C.igusa_clebsch()[3], sextics.sextic_discriminant(C.coeffs)))
        count += 1
    assert ratios == {Fraction(-1)}


def test_singular_sextic_rejected():
    cs = poly_from_roots([1, 1, 2, 3, 4, 5])
    with pytest.raises(SingularCurveError):
        igusa(cs)


@pytest.mark.parametrize("disc_first", [False, True])
def test_curve_computes_its_discriminant_once(monkeypatch, disc_first):
    calls = []
    real = genus2.sextic_discriminant
    monkeypatch.setattr(genus2, "sextic_discriminant", lambda fs: calls.append(fs) or real(fs))
    C = HyperellipticCurve(3, ((2, 1), (1, 4), (-1, -9)))
    if disc_first:
        C.disc
    key = C.absolute_igusa()
    assert C.disc == real(C.even_factors) == sextics.sextic_discriminant(C.coeffs)
    assert calls == [C.even_factors]
    assert key == absolute_invariants(igusa(C.coeffs))


def test_absolute_invariants_detect_rescaling():
    cs = poly_from_roots([0, 1, 2, 3, 4, 5])
    inv = igusa(cs)
    lam = Fraction(7)
    scaled = tuple(v * lam ** w for v, w in zip(inv, (2, 4, 6, 10)))
    assert absolute_invariants(inv) == absolute_invariants(scaled)
    other = igusa(poly_from_roots([0, 1, 2, 3, 4, 6]))
    assert absolute_invariants(inv) != absolute_invariants(other)


def brute_projective_count(C, p: int) -> int:
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
    """The count of a curve from its even factors, and the pair-sum oracle
    on any sextic, against enumeration."""
    C = HyperellipticCurve(1, ((1, 1), (1, 4), (1, 9)))  # roots +-1, +-2, +-3
    for p in [11, 13, 17, 19]:
        assert hyperelliptic_point_count(C, p) == brute_projective_count(C, p)
    rng = random.Random(55)
    done = 0
    while done < 10:
        factors = tuple((rng.choice([1, 2, 3]), rng.randint(-5, 5)) for _ in range(3))
        cs = [rng.randint(-5, 5) for _ in range(6)] + [rng.choice([1, 2, 3])]
        lam = rng.choice([1, -1, 2, 5])
        C, plain = HyperellipticCurve(lam, factors), SexticCurve(lam, tuple(cs))
        if C.disc == 0 or plain.disc == 0:
            continue
        for p in [11, 13, 17, 23]:
            for curve, count in ((C, hyperelliptic_point_count), (plain, sextic_count)):
                if curve.disc % p and curve.lam % p and curve.coeffs[6] % p:
                    assert count(curve, p) == brute_projective_count(curve, p)
        done += 1


def test_point_count_bounds_and_errors():
    C = HyperellipticCurve(1, ((1, 1), (1, 4), (1, 9)))
    for p in [11, 13, 17, 19, 23]:
        n = hyperelliptic_point_count(C, p)
        assert n <= 2 * p + 2
        assert (n - p - 1) ** 2 <= 16 * p  # Hasse-Weil for genus 2
    with pytest.raises(BadPrimeError):
        hyperelliptic_point_count(HyperellipticCurve(11, C.even_factors), 11)
    with pytest.raises(BadPrimeError):
        hyperelliptic_point_count(C, 2)


def test_point_count_translation_invariant():
    """A curve with roots +-r_1, +-r_2, +-r_3, counted from its even factors,
    has the count of the pair-sum oracle on its translates."""
    rng = random.Random(77)
    done = 0
    while done < 20:
        r1, r2, r3 = rng.sample(range(1, 9), 3)
        lead = rng.choice([1, 2, -1])
        t = rng.randint(-4, 4)
        lam = rng.choice([1, 3, -2])
        C1 = HyperellipticCurve(lam, ((lead, lead * r1 * r1), (1, r2 * r2), (1, r3 * r3)))
        roots = [r1, -r1, r2, -r2, r3, -r3]
        C2 = SexticCurve(lam, tuple(poly_from_roots([r - t for r in roots], lead)))
        assert C1.coeffs == tuple(poly_from_roots(roots, lead))
        p = rng.choice([11, 13, 17, 19, 23])
        if C1.disc % p == 0 or lam % p == 0 or lead % p == 0:
            continue
        assert hyperelliptic_point_count(C1, p) == sextic_count(C2, p)
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
    equals the {x, -x} loop of the pair-sum oracle on the same sextic, and
    the enumeration of its points for p <= 60."""
    C = build_scholten(*quad)
    assume(C.is_smooth)
    curve = C.curve
    assume((curve.lam * curve.disc * curve.coeffs[6]) % p)
    count = hyperelliptic_point_count(curve, p)
    assert count == sextic_count(curve, p)
    if p <= 60:
        assert count == brute_projective_count(curve, p)


@pytest.mark.parametrize("high", [True, False])
def test_count_outside_the_hasse_weil_bound_is_refused(monkeypatch, high):
    """A corrupted kernel that puts the count above, or below, the
    Hasse-Weil interval is refused."""
    C = build_scholten(1, 2, 3, 4).curve
    assert hyperelliptic_point_count(C, 101) > 0
    # lam c6 = 4 is a square, so the count is p + 2 + the two split sums
    assert C.lam * C.coeffs[6] == 4
    monkeypatch.setattr(genus2, "_split_char_sum", lambda roots, p: p if high else -p)
    with pytest.raises(CertificateError, match="Hasse-Weil"):
        hyperelliptic_point_count(C, 101)
