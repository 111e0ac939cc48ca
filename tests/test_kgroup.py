import random
from itertools import product as iproduct
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeny_forge import kgroup
from isogeny_forge.elliptic import curve_from_pair, rational_points_mod_p
from isogeny_forge.errors import BudgetExceededError, InvalidConfigurationError
from isogeny_forge.exactnum import FormalSum
from isogeny_forge.kgroup import (
    MINUS,
    PLUS,
    MembershipResult,
    RelationLattice,
    SymbolUniverse,
    assemble_skew_lattice,
    bilinear_relations,
    embed,
    phi_r,
    product_decompose,
    prove_member,
    prove_skew,
    relation_is_instance,
    wr_line,
    wr_vertical,
)

E5 = rational_points_mod_p(curve_from_pair(1, -1), 5)  # 8 points


def universe2(G=E5, tail=()):
    return SymbolUniverse([G, G], tail)


def test_bilinear_raw_count_r1():
    u = SymbolUniverse([E5])
    raw = bilinear_relations(u, 0, dedupe=False)
    assert len(raw) == 64  # ordered pairs of an 8-point group


def test_bilinear_derives_zero_symbol():
    # a' = 0 reduces the column to -{0, b}: so {0, b} = 0 is derivable
    u = universe2()
    lat = RelationLattice(u, bilinear_relations(u, 0) + bilinear_relations(u, 1))
    b = E5.points[3]
    target = u.symbol([None, b])
    assert prove_member(target, lat).member


def test_wr_vertical_degenerate_cases():
    u = universe2()
    assert wr_vertical(u, None).vector == ()
    two_torsion = next(P for P in E5.points if P and E5.add(P, P) is None)
    col = wr_vertical(u, two_torsion).as_dict()
    want = {
        u.index_of([two_torsion, two_torsion]): 2,
        u.index_of([None, None]): -2,
    }
    assert col == want
    generic = next(P for P in E5.points if P and E5.add(P, P) is not None)
    assert len(wr_vertical(u, generic).as_dict()) == 3


def test_wr_line_degenerate_cases():
    u = universe2()
    a = next(P for P in E5.points if P and E5.add(P, P) is not None)
    # a2 = 0 degenerates to the vertical column of a
    assert wr_line(u, a, None, MINUS).as_dict() == wr_vertical(u, a).as_dict()
    two = next(P for P in E5.points if P and E5.add(P, P) is None)
    col = wr_line(u, two, two, MINUS).as_dict()
    assert col == {u.index_of([two, two]): 2, u.index_of([None, None]): -2}
    # generic pair (no tangency coincidences) gives a four-term column
    b = next(
        P
        for P in E5.points
        if P
        and P != a
        and E5.add(P, a) is not None
        and E5.neg(E5.add(P, a)) not in (P, a)
    )
    assert len(wr_line(u, a, b, MINUS).as_dict()) == 4


def test_wr_slot_mismatch_rejected():
    G2 = rational_points_mod_p(curve_from_pair(1, 3), 5)
    u = SymbolUniverse([E5, G2])
    with pytest.raises(InvalidConfigurationError):
        wr_vertical(u, E5.points[1])


def test_prove_member_trivial_and_unit():
    u = universe2()
    cols = bilinear_relations(u, 0)
    lat = RelationLattice(u, cols[:1])
    zero = FormalSum(u)
    res = prove_member(zero, lat)
    assert res.member and res.coefficients == {}
    single = FormalSum(u, cols[0].as_dict())
    res = prove_member(single, lat)
    assert res.member and res.coefficients == {0: 1}


def test_prove_member_universe_mismatch():
    u1 = universe2()
    u2 = universe2(tail=(E5.points[1],))
    lat = RelationLattice(u1, bilinear_relations(u1, 0))
    with pytest.raises(ValueError):
        prove_member(FormalSum(u2), lat)


def test_prove_member_fuzz_recovery():
    rng = random.Random(5)
    u = universe2()
    cols = bilinear_relations(u, 0) + bilinear_relations(u, 1)
    lat = RelationLattice(u, cols)
    for _ in range(25):
        picks = rng.sample(range(len(cols)), 3)
        mults = [rng.randint(-4, 4) for _ in picks]
        target = FormalSum(u)
        for i, m in zip(picks, mults):
            target = target + FormalSum(u, cols[i].as_dict()).scale(m)
        res = prove_member(target, lat)
        assert res.member  # re-verification happens inside prove_member


def test_prove_skew_f5_both_conventions():
    for conv in (MINUS, PLUS):
        rep = prove_skew(E5, r=2, convention=conv)
        assert rep.all_proved
        assert rep.pairs_proved == 64
        assert rep.two_torsion_proved == 8
        assert rep.negative_control_certified


def test_prove_skew_r3_with_tail():
    tail_point = E5.points[1]
    rep = prove_skew(E5, r=3, tail=(tail_point,), convention=MINUS)
    assert rep.all_proved
    assert rep.negative_control_certified


def test_prove_skew_default_tail_repeats_second_point():
    assert prove_skew(E5, r=3) == prove_skew(E5, r=3, tail=(E5.points[1],))


def test_prove_skew_budget(monkeypatch):
    # the cost follows #E alone: r only lengthens the fixed tail
    assert prove_skew(E5, r=8).all_proved
    E47 = rational_points_mod_p(curve_from_pair(1, -1), 47)  # supersingular: 48 points

    def forbidden(*args):
        raise RuntimeError("a refused group began work")

    monkeypatch.setattr(kgroup, "bilinear_relations", forbidden)
    with pytest.raises(BudgetExceededError, match=r"#E\(F_47\) = 48 exceeds 40 points"):
        prove_skew(E47)


@pytest.mark.parametrize("q, least", [(53, 40), (59, 45)])
def test_skew_field_is_refused_by_the_hasse_bound(q, least):
    # q + 1 - 2 sqrt(q) is the least #E(F_q) of any curve
    assert least == q + 1 - isqrt(4 * q)
    if least <= kgroup.SKEW_MAX_POINTS:
        kgroup.check_skew_field(q)
    else:
        with pytest.raises(BudgetExceededError, match=f">= {least} exceeds 40 points"):
            kgroup.check_skew_field(q)


def test_skew_report_records():
    rep = prove_skew(E5, r=2)
    recs = rep.to_records()
    assert any(r["status"] == "certified-non-member" for r in recs)
    proved = [r for r in recs if r.get("status") == "proved"]
    assert len(proved) == 64
    assert all("certificate_length" in r for r in proved)


def test_soundness_spot_checker():
    lat = assemble_skew_lattice(E5, 2, (), MINUS)
    assert all(relation_is_instance(lat.universe, col) for col in lat.columns)
    # plus-convention chord columns are a configured variant, not instances
    lat_plus = assemble_skew_lattice(E5, 2, (), PLUS)
    line_cols = [c for c in lat_plus.columns if c.kind == "wr-line"]
    judged = [relation_is_instance(lat_plus.universe, c) for c in line_cols]
    assert not all(judged)


def test_phi_r_examples():
    u = universe2()
    lat = RelationLattice(u, bilinear_relations(u, 0) + bilinear_relations(u, 1))
    z = phi_r(u, [(None, 1)])
    assert prove_member(z, lat).member  # {0,0} reduces to 0
    a = E5.points[2]
    assert phi_r(u, [(a, 1)]) == u.symbol([a, a])
    b = E5.points[3]
    two_a_minus_b = phi_r(u, [(a, 2), (b, -1)])
    assert two_a_minus_b == u.symbol([a, a], 2) - u.symbol([b, b])


def test_phi_r_additive():
    rng = random.Random(9)
    u = universe2()
    pts = E5.points
    for _ in range(20):
        c1 = [(rng.choice(pts), rng.randint(-3, 3)) for _ in range(3)]
        c2 = [(rng.choice(pts), rng.randint(-3, 3)) for _ in range(3)]
        assert phi_r(u, c1 + c2) == phi_r(u, c1) + phi_r(u, c2)


G2_5 = rational_points_mod_p(curve_from_pair(1, 3), 5)


def test_product_decompose_generic_four_terms():
    groups = [E5, G2_5]
    x1 = E5.points[2]
    x2 = G2_5.points[3]
    y1 = E5.points[4]
    y2 = G2_5.points[1]
    P = (x1, x2)
    Q = (y1, y2)
    res = product_decompose(groups, [P, Q])
    assert res.verified
    assert res.roundtrip_ok
    assert len(res.terms) == 4
    assert res.terms[(0, 0)] == (x1, y1)
    assert res.terms[(0, 1)] == (x1, y2)
    assert res.terms[(1, 0)] == (x2, y1)
    assert res.terms[(1, 1)] == (x2, y2)


def test_product_decompose_embedded_point_single_term():
    groups = [E5, G2_5]
    x = E5.points[2]
    y = E5.points[3]
    res = product_decompose(groups, [embed(0, x, 2), embed(0, y, 2)])
    assert res.verified and res.roundtrip_ok
    assert res.terms == {(0, 0): (x, y)}


def test_product_decompose_certificate_is_nonempty_and_exact():
    groups = [E5, G2_5]
    P = (E5.points[2], G2_5.points[3])
    Q = (E5.points[4], None)
    res = product_decompose(groups, [P, Q])
    assert res.verified and res.roundtrip_ok
    assert len(res.terms) == 2  # Q has one vanishing coordinate
    assert res.certificate


def test_product_decompose_three_factors():
    G3 = rational_points_mod_p(curve_from_pair(2, 3), 5)
    groups = [E5, G2_5, G3]
    P = (E5.points[2], G2_5.points[3], G3.points[1])
    res = product_decompose(groups, [P])
    assert res.verified and res.roundtrip_ok
    assert set(res.terms) == {(0,), (1,), (2,)}
    Q = (E5.points[4], None, G3.points[2])
    res = product_decompose(groups, [P, Q])
    assert res.verified and res.roundtrip_ok
    assert len(res.terms) == 6  # 3 x 2 nonzero coordinate choices


# -- prove_skew against the one-proof-per-ordered-pair algorithm -------------------


def _pt(P):
    return "0" if P is None else P


def reference_skew(G, r, convention, prove=prove_member):
    """(to_record(), to_records()) as computed by one membership proof per
    ordered pair plus a separate 2{a,a} loop, with every count kept apart
    from the lists it counts."""
    tail = (G.points[1],) * (r - 2)
    lattice = assemble_skew_lattice(G, r, tail, convention)
    u = lattice.universe
    proved, failed, lengths = 0, [], {}
    for a1 in G.points:
        for a2 in G.points:
            res = prove(u.symbol([a1, a2]) + u.symbol([a2, a1]), lattice)
            if res.member:
                proved += 1
                lengths[(_pt(a1), _pt(a2))] = len(res.coefficients)
            else:
                failed.append((_pt(a1), _pt(a2)))
    tt_proved, tt_failed = 0, []
    for a in G.points:
        if prove(u.symbol([a, a], 2), lattice).member:
            tt_proved += 1
        else:
            tt_failed.append(_pt(a))
    control, control_ok = None, False
    for a1 in G.points:
        for a2 in G.points:
            if None in (a1, a2) or a1 == a2:
                continue
            if not prove(u.symbol([a1, a2]), lattice).member:
                control, control_ok = (_pt(a1), _pt(a2)), True
                break
        if control_ok:
            break
    record = {
        "n_points": len(G.points),
        "generators": len(lattice),
        "pairs_proved": proved,
        "pairs_failed": [list(map(str, pr)) for pr in failed],
        "two_torsion_proved": tt_proved,
        "negative_control": {"pair": [str(x) for x in (control or ())], "certified": control_ok},
        "all_proved": not failed and not tt_failed,
    }
    base = {"p": G.p, "r": r, "convention": convention, "generators": len(lattice)}
    records = [dict(base, target=f"skew{pair}", certificate_length=length, status="proved")
               for pair, length in lengths.items()]
    records += [dict(base, target=f"skew{pair}", status="not-derivable") for pair in failed]
    records.append(dict(base, target="negative-control", pair=repr(control),
                        status="certified-non-member" if control_ok else "not-found"))
    return record, records


def _smooth_pairs(q):
    """One (a, b) per smooth y^2 = x(x - a)(x - b) over F_q."""
    return [(a, b) for a in range(1, q) for b in range(1, q) if a != b]


def _skew_cases():
    cases = [(a, b, q, 2) for q in (3, 5) for a, b in _smooth_pairs(q)]
    cases += [(a, b, 5, 3) for a, b in _smooth_pairs(5)]
    by_order = {}
    for a, b in _smooth_pairs(7):
        by_order.setdefault(len(rational_points_mod_p(curve_from_pair(a, b), 7).points), (a, b))
    cases += [(*by_order[n], 7, 2) for n in (4, 8, 12)]
    return cases


def test_prove_skew_matches_one_proof_per_ordered_pair():
    for a, b, q, r in _skew_cases():
        G = rational_points_mod_p(curve_from_pair(a, b), q)
        for conv in (MINUS, PLUS):
            rep = prove_skew(G, r=r, convention=conv)
            assert (rep.to_record(), rep.to_records()) == reference_skew(G, r, conv), (a, b, q, r)


@pytest.mark.parametrize("point", [0, 2], ids=["zero", "point-2"])
def test_prove_skew_failures_match_one_proof_per_ordered_pair(monkeypatch, point):
    # refuse every target that touches one point, so both failure lists fill
    G = E5
    n, P = len(G.points), G.points[point]

    def refusing(target, lattice):
        if any(point in divmod(k, n) for k in target.coeffs):
            return MembershipResult(False, None)
        return prove_member(target, lattice)

    monkeypatch.setattr(kgroup, "prove_member", refusing)
    for conv in (MINUS, PLUS):
        rep = prove_skew(G, r=2, convention=conv)
        assert rep.two_torsion_failed == [_pt(P)]
        assert len(rep.pairs_failed) == 2 * n - 1
        assert rep.pairs_proved == n * n - len(rep.pairs_failed)
        assert rep.negative_control_certified
        assert (rep.to_record(), rep.to_records()) == reference_skew(G, 2, conv, refusing)


def test_prove_skew_proves_each_distinct_target_once(monkeypatch):
    # E(F_5) of y^2 = x^3 - x has 8 points: 8 * 9 / 2 = 36 distinct targets
    targets = []

    def counting(target, lattice):
        res = prove_member(target, lattice)
        targets.append((tuple(sorted(target.coeffs.items())), res.member))
        return res

    monkeypatch.setattr(kgroup, "prove_member", counting)
    rep = prove_skew(E5, r=2)
    assert rep.all_proved and rep.pairs_proved == 64 and rep.two_torsion_proved == 8
    skew = [t for t, _ in targets if sum(c for _, c in t) == 2]
    probes = targets[len(skew):]
    assert len(skew) == len(set(skew)) == 36
    assert all(sum(c for _, c in t) == 1 for t, _ in probes)
    assert [member for _, member in probes] == [True] * (len(probes) - 1) + [False]
    targets.clear()
    reference_skew(E5, 2, MINUS, counting)
    assert len(targets) == 72 + len(probes)


# -- the skew guard probes ---------------------------------------------------------


@pytest.mark.parametrize("q, a, b", [(13, -7, -3), (19, 1, -1)], ids=["#E=16", "#E=20"])
def test_prove_skew_guard_probes_finish_with_small_histories(q, a, b):
    G = rational_points_mod_p(curve_from_pair(a, b), q)
    rep = prove_skew(G)
    assert rep.all_proved and rep.negative_control_certified
    history = assemble_skew_lattice(G, 2).engine.history
    assert max(abs(c).bit_length() for h in history for c in h.values()) <= 64


# -- bilinear columns against the point-by-point builder ---------------------------


def _bilinear_by_points(universe, slot, dedupe=True):
    """The point-by-point builder that the index-table bilinear_relations
    replaced, kept as its reference."""
    G = universe.slot_groups[slot]
    others = [
        range(len(g.points)) if i != slot else [0]
        for i, g in enumerate(universe.slot_groups)
    ]
    out = []
    seen = set()
    pts = G.points
    for i, a in enumerate(pts):
        pair_iter = pts if not dedupe else pts[i:]
        for a2 in pair_iter:
            s = G.add(a, a2)
            for combo in iproduct(*others):
                base = [universe.slot_groups[j].points[combo[j]] for j in range(len(combo))]

                def with_slot(x):
                    t = list(base)
                    t[slot] = x
                    return t

                col = kgroup._column(
                    universe,
                    [(with_slot(s), 1), (with_slot(a), -1), (with_slot(a2), -1)],
                    "bilinear",
                    (slot, a, a2, tuple(b for j, b in enumerate(base) if j != slot)),
                )
                if not col.vector:
                    continue
                if dedupe:
                    if col.vector in seen:
                        continue
                    seen.add(col.vector)
                out.append(col)
    return out


# every smooth y^2 = x(x - a)(x - b) over F_q, q <= 13, with #E(F_q) <= 16
_SMALL_CURVES = [
    (a, b, q)
    for q in (3, 5, 7, 11, 13)
    for a in range(1, q)
    for b in range(1, q)
    if a != b and len(rational_points_mod_p(curve_from_pair(a, b), q).points) <= 16
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL_CURVES), st.sampled_from([0, 1]), st.sampled_from([2, 3]),
       st.booleans())
def test_bilinear_relations_match_point_by_point_builder(curve, slot, r, dedupe):
    a, b, q = curve
    G = rational_points_mod_p(curve_from_pair(a, b), q)
    u = SymbolUniverse([G, G], (G.points[1],) * (r - 2))
    cols = bilinear_relations(u, slot, dedupe)
    assert cols == _bilinear_by_points(u, slot, dedupe)
    assert all(relation_is_instance(u, col) for col in cols)


def test_bilinear_relations_on_three_slots_of_different_sizes():
    G7 = rational_points_mod_p(curve_from_pair(2, 3), 7)
    u = SymbolUniverse([E5, G7, G2_5])  # 8, 12 and 4 points: three strides
    for slot in range(3):
        for dedupe in (True, False):
            cols = bilinear_relations(u, slot, dedupe)
            assert cols == _bilinear_by_points(u, slot, dedupe)
            assert all(relation_is_instance(u, col) for col in cols)
