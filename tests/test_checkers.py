import random

import pytest

from isogeny_forge.checkers import (
    MAIN2_CONCLUSION_UNRAMIFIED,
    SupersingularScan,
    global2_prime_filter,
    main1_check,
    main2_check,
    supersingular_scan,
)
from isogeny_forge.elliptic import ap_trace, curve_from_pair
from isogeny_forge.exactnum import primes_up_to

from models import from_coeffs

E1M1 = curve_from_pair(1, -1)
E13 = curve_from_pair(1, 3)


def test_main1_singleton_always_met_for_odd_p():
    for p in [3, 5, 7, 11, 13]:
        v = main1_check([E1M1], p)
        assert v.met
        assert v.conclusion is not None


def test_main1_two_supersingular_factors():
    v = main1_check([E1M1, E1M1], 7)
    assert not v.met
    assert "2 supersingular" in v.reason
    assert v.conclusion is None


def test_main1_even_prime():
    v = main1_check([E1M1, E13], 2)
    assert not v.met
    assert "odd" in v.reason


def test_main1_mixed_factors_ok():
    v = main1_check([E1M1, E13], 7)
    assert v.met


def test_main1_order_independent():
    a = main1_check([E1M1, E13, curve_from_pair(2, 5)], 7)
    b = main1_check([curve_from_pair(2, 5), E13, E1M1], 7)
    assert a.met == b.met


@pytest.mark.parametrize("check, args", [
    (main1_check, ([], 7)),
    (main2_check, ([], 7)),
    (main2_check, ([([E1M1], 1), ([], 2)], 7)),
], ids=["main1-no-curves", "main2-no-products", "main2-empty-product"])
def test_hypothesis_check_naming_no_curve_is_refused(check, args):
    with pytest.raises(ValueError, match="at least one"):
        check(*args)


@pytest.mark.parametrize("deg", [0, -3])
def test_main2_degree_below_one_is_refused(deg):
    with pytest.raises(ValueError, match="isogeny degrees must be >= 1"):
        main2_check([([E1M1], 1), ([E13], deg)], 5)


def test_main2_degree_not_coprime():
    v = main2_check([(([E13]), 3)], 3)
    assert not v.met
    assert "not coprime" in v.reason


def test_main2_upgrade_to_p_divisible():
    # both factors ordinary and genuinely good at 5
    v = main2_check([([E1M1], 1), ([E13], 2)], 5, unramified=True, all_good=True)
    assert v.met
    assert v.conclusion == MAIN2_CONCLUSION_UNRAMIFIED


def test_main2_all_good_flag_is_verified():
    E = curve_from_pair(1, 11)  # multiplicative at 11
    v = main2_check([([E], 1)], 11, unramified=True, all_good=True)
    assert not v.met
    assert "all-good" in v.reason


def test_main2_two_supersingular_products():
    v = main2_check([([E1M1], 1), ([E1M1], 1)], 7)
    assert not v.met
    v2 = main2_check([([E1M1, E13], 1), ([E13], 1)], 7)
    assert v2.met


def test_global2_example():
    assert global2_prime_filter(E1M1, 2, 20) == [5, 7, 11, 13, 17, 19]
    assert global2_prime_filter(E1M1, 2, 2) == []
    assert global2_prime_filter(E1M1, 5, 20) == [7, 11, 13, 17, 19]


def test_global2_invalid_degree():
    with pytest.raises(ValueError):
        global2_prime_filter(E1M1, 0, 20)


def test_global2_against_set_oracle():
    rng = random.Random(12)
    from isogeny_forge.reduction import conductor

    done = 0
    while done < 50:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if not (a and b and a != b):
            continue
        E = curve_from_pair(a, b)
        d = rng.randint(1, 6)
        bound = rng.randint(2, 60)
        got = set(global2_prime_filter(E, d, bound))
        modulus = 6 * conductor(E) * d
        want = {p for p in primes_up_to(bound) if modulus % p != 0}
        assert got == want
        done += 1


def test_supersingular_scan_cm_curve():
    scan = supersingular_scan(E1M1, 50)
    assert list(scan.primes) == [3, 7, 11, 19, 23, 31, 43, 47]
    assert supersingular_scan(E1M1, 2).primes == ()


def test_supersingular_scan_cm_pattern_up_to_200():
    scan = supersingular_scan(E1M1, 200)
    want = [p for p in primes_up_to(200) if p % 4 == 3]
    assert list(scan.primes) == want
    assert 0 < scan.density < 1


def test_supersingular_scan_matches_exhaustive_ap():
    E = E13
    scan = supersingular_scan(E, 100)
    want = []
    for p in primes_up_to(100):
        if p == 2 or E.delta % p == 0:
            continue
        if ap_trace(E, p) % p == 0:
            want.append(p)
    assert list(scan.primes) == want


def test_scan_works_on_nonminimal_model():
    # good primes hidden behind a non-minimal model are still scanned
    from fractions import Fraction

    blown = E1M1.model.transform(Fraction(1, 3), 0, 0, 0)  # y^2 = x^3 - 81x
    assert int(blown.disc) % 3 == 0
    scan = supersingular_scan(blown, 50)
    assert list(scan.primes) == [3, 7, 11, 19, 23, 31, 43, 47]


def test_scan_runs_tate_once_per_prime_of_the_discriminant(monkeypatch):
    """One Tate run per odd p | disc up to the bound, in order, decides bad
    reduction and gives the model to count on.  No potential type is
    computed, and nothing is factored: disc mod p picks the primes."""
    from fractions import Fraction

    from isogeny_forge import checkers, exactnum, reduction
    from isogeny_forge.elliptic import _as_model

    curves = [
        E1M1,
        curve_from_pair(50, 75),  # not minimal at 5
        curve_from_pair(-520251, 239738),
        # integral, not minimal at 2 and 3
        from_coeffs(1, -1, 0, -14, 29).transform(Fraction(1, 6), 0, 0, 0),
    ]
    want = [supersingular_scan(E, 200) for E in curves]
    tate = reduction.tate_algorithm
    primes = []

    def counted(W, p):
        primes.append(p)
        return tate(W, p)

    def refuse(*args):
        raise AssertionError("the scan computed a potential type or factored")

    monkeypatch.setattr(reduction, "tate_algorithm", counted)
    monkeypatch.setattr(checkers, "tate_algorithm", counted, raising=False)
    monkeypatch.setattr(reduction, "potential_type", refuse)
    monkeypatch.setattr(reduction, "_factor_cofactor", refuse)
    monkeypatch.setattr(exactnum, "factorize", refuse)
    for E, scan in zip(curves, want):
        primes.clear()
        assert supersingular_scan(E, 200) == scan
        disc = int(_as_model(E).disc)
        assert primes == [q for q in primes_up_to(200) if q != 2 and disc % q == 0]

