import random
from functools import partial

import pytest

from isogeny_forge.elliptic import curve_from_pair
from isogeny_forge.errors import DegenerateCurveError, InsufficientPrimesError
from isogeny_forge.exactnum import primes_up_to
from isogeny_forge.genus2 import sextic_discriminant
from isogeny_forge.scholten import (
    SMOOTH,
    at_most_one_supersingular,
    box_grid,
    build_scholten,
    good_primes_for,
    parameter_search,
    quadruples_from_csv,
    scholten_family,
    split_jacobian_ok,
    torsion_forms_orbit,
    torsion_orbit_report,
    verify_split_jacobian,
)


def test_smooth_build_computes_the_discriminant_once(monkeypatch):
    # sextic_discriminant takes one resultant; the built curve keeps the value
    from isogeny_forge import genus2

    calls = []
    real = genus2.resultant
    monkeypatch.setattr(genus2, "resultant", lambda f, g: calls.append(f) or real(f, g))
    C = build_scholten(3, -7, 11, 5)
    disc = C.curve.disc
    assert len(calls) == 1
    monkeypatch.undo()
    assert C.is_smooth and disc == sextic_discriminant(C.curve.coeffs)


def test_build_1234():
    C = build_scholten(1, 2, 3, 4)
    assert C.is_smooth
    assert C.lam == 1 * 4 - 2 * 3 == -2
    # (-x^2+1)(x^2-3)(2x^2-4) = -2x^6 + 12x^4 - 22x^2 + 12
    assert C.curve.coeffs == (12, 0, -22, 0, 12, 0, -2)
    assert C.e1.a == 1 and C.e1.b == 2
    assert C.e2.a == 3 and C.e2.b == 4


def test_build_degenerate_lambda():
    C = build_scholten(1, 2, 2, 4)
    assert not C.is_smooth
    assert "lam = 0" in C.status


def test_build_degenerate_cases():
    # lam = 0 is reported first even when the sextic is also degenerate
    # (the factor quadratics of (1,2,1,2) coincide, S = -2(x^2-1)^3)
    C = build_scholten(1, 2, 1, 2)
    assert not C.is_smooth and "lam = 0" in C.status
    assert "first pair" in build_scholten(1, 1, 3, 4).status
    assert "second pair" in build_scholten(1, 2, 3, 3).status


def test_smooth_curves_never_have_zero_disc():
    rng = random.Random(4)
    for _ in range(300):
        quad = tuple(rng.randint(-5, 5) for _ in range(4))
        C = build_scholten(*quad)
        if C.is_smooth:
            assert sextic_discriminant(C.curve.coeffs) != 0
            assert C.lam != 0


def test_orbit_of_1_minus1():
    got = set(torsion_forms_orbit(1, -1))
    assert got == {(1, -1), (-1, 1), (-1, -2), (-2, -1), (1, 2), (2, 1)}


def test_orbit_contains_swap_and_translates():
    rng = random.Random(8)
    for _ in range(50):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if not (a and b and a != b):
            continue
        orbit = torsion_forms_orbit(a, b)
        assert (b, a) in orbit
        assert len(orbit) <= 6
        j = curve_from_pair(a, b).j
        for pa, pb in orbit:
            assert curve_from_pair(pa, pb).j == j


def test_orbit_1_2_equals_orbit_1_minus1():
    assert set(torsion_forms_orbit(1, 2)) == set(torsion_forms_orbit(1, -1))


def test_orbit_report_flags_quoted_discrepancy():
    # for generic parameters the quoted pattern (-b, b-a) is not in the orbit
    rep = torsion_orbit_report(2, 5)
    assert (-5, 3) in rep.mismatched_patterns
    # and the genuinely isomorphic quoted forms are never flagged
    assert (5, 2) not in rep.mismatched_patterns
    assert (3, -2) not in rep.mismatched_patterns  # (b-a, -a)
    assert (-3, -5) not in rep.mismatched_patterns  # (a-b, -b)
    assert (-5, -3) not in rep.mismatched_patterns  # (-b, a-b)


def test_family_bounds_and_grouping():
    rep = scholten_family(1, 2, 3, 4)
    assert rep.class_count <= 6
    assert len(rep.members) + len(rep.degenerate) == len(torsion_forms_orbit(1, 2))
    assert rep.class_count >= 1
    for cls in rep.classes:
        key = rep.members[cls[0]].curve.absolute_igusa()
        for i in cls[1:]:
            assert rep.members[i].curve.absolute_igusa() == key


def test_family_rejects_degenerate_input_pairs():
    with pytest.raises(DegenerateCurveError):
        scholten_family(1, 1, 3, 4)


def test_family_with_degenerate_members():
    # (c, d) = (1, -1) kills the orbit members with a'/b' = -1 through lam = 0
    rep = scholten_family(1, -1, 1, -1)
    assert len(rep.degenerate) == 2
    assert len(rep.members) == 4
    assert all("lam = 0" in m.status for m in rep.degenerate)
    assert 1 <= rep.class_count <= 4


def test_split_jacobian_certificate_passes():
    C = build_scholten(1, 2, 3, 4)
    cert = verify_split_jacobian(C, good_primes_for(C, 60)[:10])
    assert cert.verdict
    assert len(cert.rows) == 10
    for p, n, a1, a2, ok in cert.rows:
        assert ok and n == p + 1 - a1 - a2


def test_split_jacobian_negative_control():
    C = build_scholten(1, 2, 3, 4)
    wrong = curve_from_pair(1, 3)
    cert = verify_split_jacobian(C, good_primes_for(C, 60)[:10], e1=wrong)
    assert not cert.verdict
    assert any(not row[4] for row in cert.rows)


def test_split_jacobian_skips_bad_primes():
    C = build_scholten(1, 2, 3, 4)
    primes = [2, 3] + good_primes_for(C, 60)[:6]
    cert = verify_split_jacobian(C, primes)
    skipped = {p for p, _ in cert.skipped}
    assert 2 in skipped
    assert cert.verdict


def test_split_jacobian_counts_once_per_row(monkeypatch):
    """One genus-2 count and two a_p per certificate row, none for a
    skipped prime."""
    from isogeny_forge import genus2, scholten

    counted, traced = [], []
    real_count, real_ap = genus2.hyperelliptic_point_count, scholten.ap_trace
    monkeypatch.setattr(genus2, "hyperelliptic_point_count",
                        lambda C, p: counted.append(p) or real_count(C, p))
    monkeypatch.setattr(scholten, "ap_trace", lambda E, p: traced.append(p) or real_ap(E, p))
    C = build_scholten(1, 2, 3, 4)
    cert = verify_split_jacobian(C, primes_up_to(60))
    rows = [row[0] for row in cert.rows]
    assert {p for p, _ in cert.skipped} == {2, 3}
    assert counted == rows
    assert traced == [p for p in rows for _ in range(2)]


def test_split_jacobian_insufficient_primes():
    C = build_scholten(1, 2, 3, 4)
    with pytest.raises(InsufficientPrimesError):
        verify_split_jacobian(C, good_primes_for(C, 60)[:4])


def test_split_jacobian_rejects_degenerate():
    with pytest.raises(DegenerateCurveError):
        verify_split_jacobian(build_scholten(1, 2, 2, 4), [5, 7, 11, 13, 17])


def test_search_empty_range():
    assert list(parameter_search([])) == []


def test_search_box_matches_brute_force():
    grid = list(box_grid(2))
    found = list(parameter_search(grid, dedupe_by_class=False))
    brute = [q for q in grid if build_scholten(*q).is_smooth]
    assert [r.curve.params for r in found] == brute
    assert all(r.curve.is_smooth for r in found)


def test_search_dedupes_by_class():
    grid = list(box_grid(2))
    deduped = list(parameter_search(grid))
    keys = [r.igusa_key for r in deduped]
    assert len(keys) == len(set(keys))


def test_search_with_predicate():
    from isogeny_forge.reduction import POT_GOOD_SUPERSINGULAR, potential_type

    # sanity for the fixture curves at p = 7 (7 = 3 mod 4, j = 1728 is
    # supersingular there, j = 0 is ordinary)
    assert potential_type(curve_from_pair(1, -1), 7) == POT_GOOD_SUPERSINGULAR
    assert potential_type(curve_from_pair(2, 5), 7) == POT_GOOD_SUPERSINGULAR
    assert potential_type(curve_from_pair(1, 3), 7) != POT_GOOD_SUPERSINGULAR

    def at_most_one_ss_at_7(C):
        n = sum(
            1
            for E in (C.e1, C.e2)
            if potential_type(E, 7) == POT_GOOD_SUPERSINGULAR
        )
        return n <= 1

    grid = [(1, -1, 2, 5), (2, 5, 1, 3)]
    recs = list(
        parameter_search(grid, [("max-one-ss@7", at_most_one_ss_at_7)], dedupe_by_class=False)
    )
    assert [r.curve.params for r in recs] == [(2, 5, 1, 3)]


@pytest.mark.parametrize("predicate", [
    ("split-jacobian:40", partial(split_jacobian_ok, bound=40)),
    ("max-one-supersingular:7", partial(at_most_one_supersingular, p=7)),
], ids=["split-jacobian", "max-one-supersingular"])
def test_pooled_search_matches_serial(predicate):
    def run(jobs):
        return [(r.to_record(), r.igusa_key)
                for r in parameter_search(box_grid(2), [predicate], jobs=jobs)]

    serial = run(1)
    assert serial
    assert run(2) == serial


def test_csv_ingestion(tmp_path):
    f = tmp_path / "grid.csv"
    f.write_text("a,b,c,d\n1,2,3,4\n1,-1,2,3\n")
    assert quadruples_from_csv(str(f)) == [(1, 2, 3, 4), (1, -1, 2, 3)]
    g = tmp_path / "bad.csv"
    g.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        quadruples_from_csv(str(g))
