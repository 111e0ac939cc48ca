import hashlib
import json
import os
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeny_forge import kgroup
from isogeny_forge.cli import main
from isogeny_forge.elliptic import curve_from_pair, rational_points_mod_p
from isogeny_forge.errors import (
    BudgetExceededError,
    CertificateError,
    InvalidConfigurationError,
)
from isogeny_forge.exactnum import _add_multiple
from isogeny_forge.kgroup import (
    MINUS,
    PLUS,
    MembershipResult,
    SkewBilinear,
    assemble_skew_lattice,
    prove_member,
    prove_skew,
)

from models import from_coeffs
from product import embed, product_decompose
from skew_oracles import (
    SparseColumnLattice,
    _column,
    bilinear_blocks,
    reciprocity_columns,
    wr_line,
    wr_vertical,
)

E5 = rational_points_mod_p(curve_from_pair(1, -1), 5)  # 8 points


def symbols(*pairs, c=1):
    """c times the sum of the symbols {a, b, X} over the (a, b) pairs, as the
    {(a, b): coefficient} map prove_member takes."""
    out = {}
    for pair in pairs:
        out[pair] = out.get(pair, 0) + c
    return out


def index_of(G, a, b):
    """The symbol coordinate of {a, b, X} in Z^(n^2)."""
    return G.index[a] * len(G.points) + G.index[b]


def coords(G, target):
    """A {(a, b): c} target in the symbol coordinates Z^(n^2)."""
    out = {}
    for (a, b), c in target.items():
        _add_multiple(out, {index_of(G, a, b): c}, 1)
    return out


def pairs(G, vector):
    """Sparse symbol coordinates, or a column's vector, as a {(a, b): c} target."""
    n, pts = len(G.points), G.points
    return {(pts[k // n], pts[k % n]): c for k, c in dict(vector).items()}


class SymbolLattice:
    """The relation lattice in the symbol coordinates Z^(n^2): the oracle for
    the E (x) E decision.  Columns are inserted by descending last index,
    so the Hermite-form pivots appear from the right."""

    def __init__(self, G, columns):
        self.group = G
        self.columns = sorted(
            columns, key=lambda col: col.vector[-1][0] if col.vector else -1, reverse=True
        )
        self.engine = SparseColumnLattice(len(G.points) ** 2)
        for col in self.columns:
            self.engine.add_generator(dict(col.vector))


def symbol_member(target, lattice):
    """Membership in a SymbolLattice, re-verified by substitution in Z^(n^2)."""
    want = coords(lattice.group, target)
    rem, coeffs = lattice.engine.reduce(want)
    if any(rem):
        return MembershipResult(False, None)
    rebuilt = {}
    for ci, mult in coeffs.items():
        _add_multiple(rebuilt, dict(lattice.columns[ci].vector), mult)
    assert rebuilt == want
    return MembershipResult(True, coeffs)


def bilinear_relations(G, slot):
    """The distinct columns {a+a', b} - {a, b} - {a', b} (slot 0) or
    {b, a+a'} - {b, a} - {b, a'} (slot 1) for every pair (a, a') and every
    point b, built from point indices by the program's ColumnView."""
    blocks = kgroup._bilinear_blocks(len(G.points), slot, kgroup._sum_table(G))
    return list(kgroup.ColumnView(G, blocks))


def relation_is_instance(G, col):
    """Independently re-derive the column from its provenance.

    Bilinear columns are rebuilt from the slot group law; reciprocity columns
    are checked against the actual zero set of the generating function on the
    curve (vertical line x - x(a), or the chord through the two points), so a
    column that does not match an honest divisor is rejected.
    """
    if col.kind == "bilinear":
        slot, a, a2, b = col.data

        def with_slot(x):
            return (x, b) if slot == 0 else (b, x)

        s = G.add(a, a2)
        want = _column(
            G, [(with_slot(s), 1), (with_slot(a), -1), (with_slot(a2), -1)], "", ()
        )
        return want.vector == col.vector
    if col.kind == "wr-vertical":
        (a,) = col.data
        if a is None:
            return col.vector == ()
        zeros = [P for P in G.points if P is not None and P[0] == a[0]]
        if set(zeros) != {a, G.neg(a)}:
            return False
        mult = 2 if a == G.neg(a) else 1
        entries = [((z, z), mult) for z in sorted(set(zeros))]
        entries.append(((None, None), -2))
        return _column(G, entries, "", ()).vector == col.vector
    if col.kind == "wr-line":
        a1, a2, s, convention = col.data
        if convention != MINUS:
            # the alternative sign is a configured variant, not a divisor
            return False
        third = G.neg(G.add(a1, a2))
        if s != third:
            return False
        want = _column(
            G,
            [
                ((a1, a1), 1),
                ((a2, a2), 1),
                ((third, third), 1),
                ((None, None), -3),
            ],
            "", (),
        )
        if want.vector != col.vector:
            return False
        return _chord_zero_set_matches(G, a1, a2, third)
    return False


def _chord_zero_set_matches(G, a1, a2, third):
    """The affine zero set of the chord function must be exactly the nonzero
    members of {a1, a2, third}: the chord/tangent slope computed again here,
    apart from EllipticGroup.add."""
    pts = [P for P in (a1, a2, third) if P is not None]
    if not pts:
        return True  # constant configuration, nothing to check
    p = G.p
    if len(pts) < 3:
        # vertical line x - x(c) through c and -c
        c = pts[0]
        zeros = {P for P in G.points if P is not None and P[0] == c[0]}
        return zeros == set(pts)
    if a1 != a2:
        if a1[0] == a2[0]:
            # vertical chord: third must be 0, handled above
            return False
        lam = (a2[1] - a1[1]) * pow(a2[0] - a1[0], -1, p) % p
    else:
        den = (2 * a1[1] + G.a1 * a1[0] + G.a3) % p
        if den == 0:
            return False  # tangent at a 2-torsion point is vertical
        lam = (3 * a1[0] ** 2 + 2 * G.a2 * a1[0] + G.a4 - G.a1 * a1[1]) * pow(den, -1, p) % p
    nu = (a1[1] - lam * a1[0]) % p
    zeros = {
        P
        for P in G.points
        if P is not None and (P[1] - lam * P[0] - nu) % p == 0
    }
    return zeros == set(pts)


def test_bilinear_derives_zero_symbol():
    # a' = 0 reduces the column to -{0, b}: so {0, b} = 0 is derivable
    b = E5.points[3]
    target = symbols((None, b))
    assert symbol_member(target, SymbolLattice(E5, bilinear_relations(E5, 0))).member
    assert prove_member(target, assemble_skew_lattice(SkewBilinear(E5, 2))).member


def test_wr_vertical_degenerate_cases():
    assert wr_vertical(E5, None).vector == ()
    two_torsion = next(P for P in E5.points if P and E5.add(P, P) is None)
    col = dict(wr_vertical(E5, two_torsion).vector)
    want = {
        index_of(E5, two_torsion, two_torsion): 2,
        index_of(E5, None, None): -2,
    }
    assert col == want
    generic = next(P for P in E5.points if P and E5.add(P, P) is not None)
    assert len(wr_vertical(E5, generic).vector) == 3


def test_wr_line_degenerate_cases():
    a = next(P for P in E5.points if P and E5.add(P, P) is not None)
    # a2 = 0 degenerates to the vertical column of a
    assert wr_line(E5, a, None, MINUS).vector == wr_vertical(E5, a).vector
    two = next(P for P in E5.points if P and E5.add(P, P) is None)
    col = dict(wr_line(E5, two, two, MINUS).vector)
    assert col == {index_of(E5, two, two): 2, index_of(E5, None, None): -2}
    # generic pair (no tangency coincidences) gives a four-term column
    b = next(
        P
        for P in E5.points
        if P
        and P != a
        and E5.add(P, a) is not None
        and E5.neg(E5.add(P, a)) not in (P, a)
    )
    assert len(wr_line(E5, a, b, MINUS).vector) == 4


def test_prove_member_trivial_and_unit():
    lat = assemble_skew_lattice(SkewBilinear(E5, 2))
    res = prove_member({}, lat)
    assert res.member and res.coefficients == {}
    # every column is a member, with a certificate re-verified inside prove_member
    for col in lat.columns:
        assert prove_member(pairs(E5, col.vector), lat).member
    single = SymbolLattice(E5, lat.columns[:1])
    res = symbol_member(pairs(E5, lat.columns[0].vector), single)
    assert res.member and res.coefficients == {0: 1}


def test_prove_member_refuses_a_point_of_another_curve():
    lat = assemble_skew_lattice(SkewBilinear(E5, 2))
    other = rational_points_mod_p(curve_from_pair(1, 3), 5)
    P = next(P for P in other.points if P is not None and P not in E5.index)
    Q = E5.points[1]
    for target in (symbols((P, Q)), symbols((Q, P), (Q, Q))):
        with pytest.raises(ValueError, match="not a point of the lattice's curve"):
            prove_member(target, lat)


def test_prove_member_fuzz_recovery():
    rng = random.Random(5)
    lat = assemble_skew_lattice(SkewBilinear(E5, 2))
    cols = [col for col in lat.columns if col.kind == "bilinear"]
    for _ in range(25):
        picks = rng.sample(range(len(cols)), 3)
        mults = [rng.randint(-4, 4) for _ in picks]
        target = {}
        for i, m in zip(picks, mults):
            _add_multiple(target, dict(cols[i].vector), m)
        res = prove_member(pairs(E5, target), lat)
        assert res.member  # re-verification happens inside prove_member


def test_prove_skew_f5_both_conventions():
    for conv in (MINUS, PLUS):
        rep = prove_skew(SkewBilinear(E5, 2), conv)
        assert rep.all_proved
        assert rep.pairs_proved == 64
        assert rep.two_torsion_proved == 8
        assert rep.negative_control_certified


def test_prove_skew_r3_with_tail():
    # the fixed run X of r - 2 points is read by no relation: r = 3 is the
    # r = 2 report under another label
    rep = prove_skew(SkewBilinear(E5, 3), MINUS)
    assert rep.all_proved
    assert rep.negative_control_certified
    assert rep.r == 3 and rep._replace(r=2) == prove_skew(SkewBilinear(E5, 2), MINUS)


def test_prove_skew_budget(monkeypatch):
    # the cost follows #E alone: r is a label
    assert prove_skew(SkewBilinear(E5, 8)).all_proved
    E47 = rational_points_mod_p(curve_from_pair(1, -1), 47)  # supersingular: 48 points

    def forbidden(*args):
        raise RuntimeError("a refused group began work")

    monkeypatch.setattr(kgroup, "discrete_log", forbidden)
    monkeypatch.setattr(kgroup, "_bilinear_blocks", forbidden)
    with pytest.raises(BudgetExceededError, match=r"#E\(F_47\) = 48 exceeds 40 points"):
        SkewBilinear(E47)


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
    rep = prove_skew(SkewBilinear(E5, 2))
    recs = rep.to_records()
    assert any(r["status"] == "certified-non-member" for r in recs)
    proved = [r for r in recs if r.get("status") == "proved"]
    assert len(proved) == 64
    assert all("certificate_length" in r for r in proved)


def test_soundness_spot_checker():
    lat = assemble_skew_lattice(SkewBilinear(E5, 2), MINUS)
    assert all(relation_is_instance(E5, col) for col in lat.columns)
    # plus-convention chord columns are a configured variant, not instances
    lat_plus = assemble_skew_lattice(SkewBilinear(E5, 2), PLUS)
    line_cols = [c for c in lat_plus.columns if c.kind == "wr-line"]
    judged = [relation_is_instance(E5, c) for c in line_cols]
    assert not all(judged)


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


def test_product_decompose_refuses_a_point_that_does_not_resum(monkeypatch):
    """The expansion checks that each slot point is the sum of its embedded
    coordinates; with a broken addition it refuses instead of answering."""
    import product

    monkeypatch.setattr(product, "product_add", lambda groups, P, Q: P)
    P = (E5.points[1], G2_5.points[1])
    with pytest.raises(CertificateError, match="coordinate expansion does not resum"):
        product_decompose([E5, G2_5], [P, P])


# -- prove_skew against the one-proof-per-ordered-pair algorithm -------------------


def _pt(P):
    return "0" if P is None else P


def reference_skew(G, r, convention, prove=prove_member):
    """(to_record(), to_records()) as computed by one membership proof per
    ordered pair plus a separate 2{a,a} loop, with every count kept apart
    from the lists it counts."""
    lattice = assemble_skew_lattice(SkewBilinear(G, r), convention)
    proved, failed, lengths = 0, [], {}
    for a1 in G.points:
        for a2 in G.points:
            res = prove(symbols((a1, a2), (a2, a1)), lattice)
            if res.member:
                proved += 1
                lengths[(_pt(a1), _pt(a2))] = len(res.coefficients)
            else:
                failed.append((_pt(a1), _pt(a2)))
    tt_proved, tt_failed = 0, []
    for a in G.points:
        if prove(symbols((a, a), c=2), lattice).member:
            tt_proved += 1
        else:
            tt_failed.append(_pt(a))
    control, control_ok = None, False
    for a1 in G.points:
        for a2 in G.points:
            if None in (a1, a2) or a1 == a2:
                continue
            if not prove(symbols((a1, a2)), lattice).member:
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
            rep = prove_skew(SkewBilinear(G, r), conv)
            assert (rep.to_record(), rep.to_records()) == reference_skew(G, r, conv), (a, b, q, r)


@pytest.mark.parametrize("point", [0, 2], ids=["zero", "point-2"])
def test_prove_skew_failures_match_one_proof_per_ordered_pair(monkeypatch, point):
    # refuse every target that touches one point, so both failure lists fill
    G = E5
    n, P = len(G.points), G.points[point]

    def refusing(target, lattice):
        if any(P in pair for pair in target):
            return MembershipResult(False, None)
        return prove_member(target, lattice)

    monkeypatch.setattr(kgroup, "prove_member", refusing)
    for conv in (MINUS, PLUS):
        rep = prove_skew(SkewBilinear(G, 2), conv)
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
        targets.append((frozenset(target.items()), res.member))
        return res

    monkeypatch.setattr(kgroup, "prove_member", counting)
    rep = prove_skew(SkewBilinear(E5, 2))
    assert rep.all_proved and rep.pairs_proved == 64 and rep.two_torsion_proved == 8
    skew = [t for t, _ in targets if sum(c for _, c in t) == 2]
    probes = targets[len(skew):]
    assert len(skew) == len(set(skew)) == 36
    assert all(sum(c for _, c in t) == 1 for t, _ in probes)
    assert [member for _, member in probes] == [True] * (len(probes) - 1) + [False]
    targets.clear()
    reference_skew(E5, 2, MINUS, counting)
    assert len(targets) == 72 + len(probes)


def test_certificates_read_each_column_image_once_per_lattice(monkeypatch):
    """prove-skew computes each named column's image once per lattice: 446
    calls of SkewBilinear.image here, where re-imaging every column of every
    certificate takes 1,442."""
    calls = []
    image = SkewBilinear.image

    def counted(self, entries):
        calls.append(None)
        return image(self, entries)

    monkeypatch.setattr(SkewBilinear, "image", counted)
    assert main(["--output", os.devnull, "kgroup", "prove-skew", "--q", "13", "--a", "-7",
                 "--b", "-3", "--convention", "both"]) == 0
    assert len(calls) <= 446
    # the memo belongs to its lattice: a second lattice computes its own images
    lattice, again = (assemble_skew_lattice(SkewBilinear(E5)) for _ in range(2))
    target = symbols((E5.points[1], E5.points[2]), (E5.points[2], E5.points[1]))
    coefficients = prove_member(target, lattice).coefficients
    assert coefficients and lattice._images.keys() == coefficients.keys()
    assert again._images == {}


# -- the skew guard probes ---------------------------------------------------------


@pytest.mark.parametrize("q, a, b", [(13, -7, -3), (19, 1, -1)], ids=["#E=16", "#E=20"])
def test_prove_skew_guard_probes_finish_with_small_histories(q, a, b):
    G = rational_points_mod_p(curve_from_pair(a, b), q)
    rep = prove_skew(SkewBilinear(G))
    assert rep.all_proved and rep.negative_control_certified
    history = assemble_skew_lattice(SkewBilinear(G)).engine.history
    assert max(abs(c).bit_length() for h in history for c in h.values()) <= 64


def test_guard_edge_certificates_are_pinned(capsys):
    # #E = 40, the skew bound: the lattice takes the most extended-gcd steps
    # here, past the golden corpus, whose --per-target runs stop at #E = 12.
    # The digest is of every record without its timing, one per line.
    argv = ["kgroup", "prove-skew", "--q", "29", "--a", "-8", "--b", "-4",
            "--convention", "both", "--per-target"]
    assert main(argv) == 0
    records = []
    for line in capsys.readouterr().out.splitlines():
        rec = json.loads(line)
        rec.pop("timing_ms")
        records.append(json.dumps(rec, separators=(",", ":")))
    assert len(records) == 3204
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "cd5b12ff1f3813d461706af1c241676d5f819cf59f7f40cf84b390e0451ff736"


# -- bilinear columns against the point-by-point builder ---------------------------


def _bilinear_by_points(G, slot):
    """The point-by-point builder that the index-table columns of
    bilinear_relations replaced, kept as its reference."""
    pts = G.points
    out = []
    seen = set()
    for i, a in enumerate(pts):
        for a2 in pts[i:]:
            s = G.add(a, a2)
            for b in pts:

                def with_slot(x):
                    return (x, b) if slot == 0 else (b, x)

                col = _column(
                    G,
                    [(with_slot(s), 1), (with_slot(a), -1), (with_slot(a2), -1)],
                    "bilinear",
                    (slot, a, a2, b),
                )
                if col.vector and col.vector not in seen:
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
@given(st.sampled_from(_SMALL_CURVES), st.sampled_from([0, 1]))
def test_bilinear_relations_match_point_by_point_builder(curve, slot):
    a, b, q = curve
    G = rational_points_mod_p(curve_from_pair(a, b), q)
    cols = bilinear_relations(G, slot)
    assert cols == _bilinear_by_points(G, slot)
    assert all(relation_is_instance(G, col) for col in cols)


# -- the column view against the eagerly built columns -----------------------------


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_column_view_matches_the_eager_columns(q):
    curves = [(a, b) for a, b in _smooth_pairs(q)
              if len(rational_points_mod_p(curve_from_pair(a, b), q).points) <= 16]
    orders = set()
    for a, b in curves:
        G = rational_points_mod_p(curve_from_pair(a, b), q)
        # no column reads r, so one eager build of the bilinear columns,
        # slot 0 then slot 1, serves r = 2 and r = 3
        bilinear_cols = _bilinear_by_points(G, 0) + _bilinear_by_points(G, 1)
        # index by index at r = 2 with one convention, by iteration at r = 3
        # with the other
        for r, conv, read in ((2, MINUS, lambda v: [v[ci] for ci in range(len(v))]),
                              (3, PLUS, list)):
            lat = assemble_skew_lattice(SkewBilinear(G, r), conv)
            view = lat.columns
            eager = bilinear_cols + reciprocity_columns(G, conv)
            n = len(eager)
            assert len(view) == len(lat) == lat.engine.n_generators == n, (a, b, r)
            assert read(view) == eager, (a, b, r)
            assert [view[-k] for k in (1, n // 2, n)] == [eager[-k] for k in (1, n // 2, n)]
            for cut in (slice(3, 40), slice(-n, 5), slice(-5, None), slice(n, None),
                        slice(1, None, 97), slice(None, None, -89)):
                assert view[cut] == eager[cut]
            for bad in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[bad]
            if (len(G.points), r) not in orders:
                orders.add((len(G.points), r))
                assert prove_skew(SkewBilinear(G, r), conv).to_record()["generators"] == n


# -- the index tables against the point-by-point oracles ---------------------------


def _table_curves():
    """Every smooth y^2 = x(x - a)(x - b) with 0 < |a|, |b| <= 8 over F_q,
    q in {5, 7, 11, 13}, and #E(F_q) <= 40, once per distinct (a, b) mod q."""
    out, seen = [], set()
    span = [c for c in range(-8, 9) if c]
    for q in (5, 7, 11, 13):
        for a in span:
            for b in span:
                if (a * b * (a - b)) % q == 0 or (q, a % q, b % q) in seen:
                    continue
                seen.add((q, a % q, b % q))
                G = rational_points_mod_p(curve_from_pair(a, b), q)
                if len(G.points) <= kgroup.SKEW_MAX_POINTS:
                    out.append((a, b, q, G))
    return out


_TABLE_CURVES = _table_curves()


def test_closed_form_blocks_match_the_pattern_set():
    assert len(_TABLE_CURVES) == 264
    for a, b, q, G in _TABLE_CURVES:
        n, sums = len(G.points), kgroup._sum_table(G)
        for slot in (0, 1):
            assert kgroup._bilinear_blocks(n, slot, sums) == bilinear_blocks(n, slot, sums), (
                a, b, q, slot)


def test_reciprocity_columns_from_the_tables_match_the_group_law():
    for a, b, q, G in _TABLE_CURVES:
        bilinear = SkewBilinear(G)
        first = len(G.points) * len(bilinear.blocks)
        for conv in (MINUS, PLUS):
            columns = assemble_skew_lattice(bilinear, conv).columns[first:]
            assert columns == reciprocity_columns(G, conv), (a, b, q, conv)


def test_reciprocity_columns_read_only_the_certified_sums(monkeypatch):
    """The carries certify the sums of the pairs i <= i2 only, so the lattice
    reads nothing below the diagonal of the table: garbage there changes no
    column, certificate or report."""
    sum_table = kgroup._sum_table

    def scrambled(G):
        sums = sum_table(G)
        n = len(sums)
        for i in range(n):
            for j in range(i):
                sums[i][j] = (i * 7 + j) % n
        return sums

    G = rational_points_mod_p(curve_from_pair(-12, -9), 11)  # 16 points
    honest = SkewBilinear(G)
    monkeypatch.setattr(kgroup, "_sum_table", scrambled)
    garbled = SkewBilinear(G)
    assert garbled.sums != honest.sums and garbled.negatives == honest.negatives
    for conv in (MINUS, PLUS):
        assert list(assemble_skew_lattice(garbled, conv).columns) == list(
            assemble_skew_lattice(honest, conv).columns)
        assert prove_skew(garbled, conv) == prove_skew(honest, conv)


def test_unknown_convention_is_refused_before_any_column():
    with pytest.raises(InvalidConfigurationError, match="unknown convention 'sideways'"):
        assemble_skew_lattice(SkewBilinear(E5), "sideways")


# -- E (x) E decisions against the symbol lattice ------------------------------------


def _targets(G):
    """Every skew target, every 2{a,a} target and every lone symbol."""
    pts = G.points
    out = [symbols((a1, a2), (a2, a1)) for i, a1 in enumerate(pts) for a2 in pts[i:]]
    out += [symbols((a, a), c=2) for a in pts]
    out += [symbols((a1, a2)) for a1 in pts for a2 in pts]
    return out


# #E = 16 over F_11 and F_13, both Z/2 x Z/8
_SIXTEEN = [(-12, -9, 11, r) for r in (2, 3)] + [(-7, -3, 13, r) for r in (2, 3)]


@pytest.mark.parametrize("a, b, q, r", _skew_cases() + _SIXTEEN)
def test_tensor_membership_matches_the_symbol_lattice(a, b, q, r):
    G = rational_points_mod_p(curve_from_pair(a, b), q)
    bilinear = SkewBilinear(G, r)
    for conv in (MINUS, PLUS):
        lat = assemble_skew_lattice(bilinear, conv)
        oracle = SymbolLattice(G, lat.columns)
        for target in _targets(G):
            want = symbol_member(target, oracle).member
            assert prove_member(target, lat).member == want, (a, b, q, r, conv, target)


def _bilinear_index(lattice):
    """The index of each bilinear column of the lattice, by its vector."""
    return {col.vector: ci for ci, col in enumerate(lattice.columns) if col.kind == "bilinear"}


def _lift(lattice, target, coefficients, by_vector):
    """Multipliers over lattice.columns whose combination is the target in
    Z^(n^2), with by_vector the lattice's _bilinear_index.  The target minus
    the certified combination has image 0; each of its symbols {a, b}
    telescopes, one basis point g_s at a time in each slot, to sum
    x_s(a) x_t(b) {g_s, g_t} plus bilinear columns, and those
    sums cancel because the image is 0."""
    bil = lattice.bilinear
    G = bil.group
    n, d = len(G.points), len(bil.moduli)
    basis = [G.points[bil.coords.index(tuple(int(s == t) for t in range(d)))] for s in range(d)]
    mults = dict(coefficients)
    rest = coords(G, target)
    for ci, m in coefficients.items():
        _add_multiple(rest, dict(lattice.columns[ci].vector), -m)

    def symbol(slot, p, other):
        return index_of(G, p, other) if slot == 0 else index_of(G, other, p)

    def use(slot, p1, p2, other, c):
        # the bilinear column {p1 + p2} - {p1} - {p2} of the slot, c times
        acc = {}
        _add_multiple(acc, {symbol(slot, G.add(p1, p2), other): 1}, 1)
        _add_multiple(acc, {symbol(slot, p1, other): 1}, -1)
        _add_multiple(acc, {symbol(slot, p2, other): 1}, -1)
        _add_multiple(mults, {by_vector[tuple(sorted(acc.items()))]: c}, 1)

    def telescope(slot, p, other, c):
        """c {p, other} (p in the slot) as sum_s c x_s(p) {g_s, other} + columns."""
        x = bil.coords[G.index[p]]
        cur = p
        for g, times in zip(basis, x):
            for _ in range(times):
                nxt = G.add(cur, G.neg(g))
                use(slot, nxt, g, other, c)  # {cur} = {nxt} + {g} + column
                cur = nxt
        assert cur is None
        use(slot, None, None, other, -c)  # {0, other} = -column(0, 0)
        return x

    normal = {}
    for k, c in rest.items():
        a, b = G.points[k // n], G.points[k % n]
        xa = telescope(0, a, b, c)
        for s, g in enumerate(basis):
            if xa[s]:
                xb = telescope(1, b, g, c * xa[s])
                for t in range(d):
                    _add_multiple(normal, {(s, t): c * xa[s] * xb[t]}, 1)
    assert normal == {}
    return {ci: m for ci, m in mults.items() if m}


_LIFT_CASES = _skew_cases() + [(-12, -9, 11, 2)]


@pytest.mark.parametrize("a, b, q, r", _LIFT_CASES)
def test_member_certificates_lift_to_symbol_coordinates(a, b, q, r):
    G = rational_points_mod_p(curve_from_pair(a, b), q)
    for conv in (MINUS, PLUS):
        lat = assemble_skew_lattice(SkewBilinear(G, r), conv)
        by_vector = _bilinear_index(lat)
        for target in _targets(G):
            res = prove_member(target, lat)
            if not res.member:
                continue
            lifted = _lift(lat, target, res.coefficients, by_vector)
            rebuilt = {}
            for ci, m in lifted.items():
                _add_multiple(rebuilt, dict(lat.columns[ci].vector), m)
            assert rebuilt == coords(G, target), (a, b, q, r, conv)


def test_cyclic_group_decides_in_one_coordinate():
    # y^2 = x^3 + x + 1 over F_5 has 9 points; Z/3 x Z/3 would need 3 | 5 - 1
    G = rational_points_mod_p(from_coeffs(0, 0, 0, 1, 1), 5)
    assert kgroup.discrete_log(G)[0] == (9,)
    for conv in (MINUS, PLUS):
        lat = assemble_skew_lattice(SkewBilinear(G, 2), conv)
        assert lat.engine.dimension == 1
        oracle = SymbolLattice(G, lat.columns)
        by_vector = _bilinear_index(lat)
        for target in _targets(G):
            res = prove_member(target, lat)
            assert res.member == symbol_member(target, oracle).member
            if res.member:
                rebuilt = {}
                for ci, m in _lift(lat, target, res.coefficients, by_vector).items():
                    _add_multiple(rebuilt, dict(lat.columns[ci].vector), m)
                assert rebuilt == coords(G, target)
        # here the relations span every symbol, so no negative control exists
        rep = prove_skew(SkewBilinear(G), conv)
        assert rep.all_proved and not rep.negative_control_certified


_SPARSE_CURVES = [
    (a, b, q) for a, b, q in _SMALL_CURVES
    if len(rational_points_mod_p(curve_from_pair(a, b), q).points) <= 12
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SPARSE_CURVES), st.sampled_from([MINUS, PLUS]), st.sampled_from([2, 3]),
       st.lists(st.tuples(st.integers(0, 143), st.integers(-3, 3)), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(-3, 3)), max_size=4))
def test_tensor_membership_matches_on_sparse_targets(curve, conv, r, entries, columns):
    a, b, q = curve
    G = rational_points_mod_p(curve_from_pair(a, b), q)
    lat = assemble_skew_lattice(SkewBilinear(G, r), conv)
    coeffs = {}
    for k, c in entries:
        _add_multiple(coeffs, {k % len(G.points) ** 2: c}, 1)
    for k, c in columns:  # plus a combination of columns, which keeps the answer
        _add_multiple(coeffs, dict(lat.columns[k % len(lat.columns)].vector), c)
    target = pairs(G, coeffs)
    oracle = SymbolLattice(G, lat.columns)
    assert prove_member(target, lat).member == symbol_member(target, oracle).member


def test_discrete_log_table_is_checked(monkeypatch):
    discrete_log = kgroup.discrete_log

    def swapped(G):
        moduli, coords = discrete_log(G)
        coords[0], coords[1] = coords[1], coords[0]
        return moduli, coords

    def repeated(G):
        moduli, coords = discrete_log(G)
        coords[1] = coords[2]
        return moduli, coords

    monkeypatch.setattr(kgroup, "discrete_log", swapped)
    with pytest.raises(CertificateError, match="not a homomorphism"):
        SkewBilinear(E5)
    monkeypatch.setattr(kgroup, "discrete_log", repeated)
    with pytest.raises(CertificateError, match="not a bijection"):
        SkewBilinear(E5)


def test_both_conventions_share_one_bilinear_part(monkeypatch):
    calls = []
    blocks = kgroup._bilinear_blocks

    def counting(*args):
        calls.append(args[1])
        return blocks(*args)

    monkeypatch.setattr(kgroup, "_bilinear_blocks", counting)
    assert main(["--output", os.devnull, "kgroup", "prove-skew", "--q", "5",
                 "--convention", "both"]) == 0
    assert calls == [0, 1]
    bilinear = SkewBilinear(E5)
    for conv in (MINUS, PLUS):
        assert prove_skew(bilinear, conv) == prove_skew(SkewBilinear(E5), conv)
