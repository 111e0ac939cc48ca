"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime and enforcing its runtime budget."""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from isogeny_forge.checkers import global2_prime_filter, supersingular_scan
from isogeny_forge.elliptic import curve_from_pair, rational_points_mod_p
from isogeny_forge.exactnum import primes_up_to
from isogeny_forge.kgroup import MINUS, PLUS, SkewBilinear, prove_skew
from isogeny_forge.pontryagin import FinAbGroup, aug_filtration
from isogeny_forge.reduction import classify_reduction, conductor, tate_algorithm
from isogeny_forge.scholten import (
    build_scholten,
    good_primes_for,
    torsion_forms_orbit,
    verify_split_jacobian,
)

from group_ring import contains, gr_generators, ideal_power_lattice, vector
from product import embed, product_decompose


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        dt = time.perf_counter() - t0
        print(f"criterion {number} ({name}): FAIL after {dt:.2f}s")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {number} ({name}): PASS in {dt:.2f}s (budget {budget_s}s)")
    assert dt < budget_s, f"criterion {number} exceeded its {budget_s}s budget: {dt:.2f}s"


def test_criterion_1_split_jacobian_certificates():
    with criterion(1, "split-Jacobian certificates", 10.0):
        rng = random.Random(20240801)
        quads = [(1, 2, 3, 4)]
        while len(quads) < 21:
            quad = tuple(rng.randint(-10, 10) for _ in range(4))
            C = build_scholten(*quad)
            if C.is_smooth and len(good_primes_for(C, 50)) >= 5:
                quads.append(quad)
        for quad in quads:
            C = build_scholten(*quad)
            cert = verify_split_jacobian(C, good_primes_for(C, 50))
            assert cert.verdict, (quad, cert.rows)
            for p, n, a1, a2, ok in cert.rows:
                assert ok and n == p + 1 - a1 - a2
        # negative control: a mismatched first factor must fail somewhere
        C = build_scholten(1, 2, 3, 4)
        bad = verify_split_jacobian(
            C, good_primes_for(C, 50), e1=curve_from_pair(1, 3)
        )
        assert not bad.verdict


def test_criterion_2_orbit_invariance():
    with criterion(2, "orbit j-invariance", 1.0):
        assert set(torsion_forms_orbit(1, -1)) == {
            (1, -1), (-1, 1), (-1, -2), (-2, -1), (1, 2), (2, 1)
        }
        rng = random.Random(77)
        done = 0
        while done < 100:
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            if not (a and b and a != b):
                continue
            j = curve_from_pair(a, b).j
            orbit = torsion_forms_orbit(a, b)
            assert all(curve_from_pair(pa, pb).j == j for pa, pb in orbit)
            done += 1


def test_criterion_3_supersingular_scan_oracle():
    with criterion(3, "supersingular scan", 1.0):
        scan = supersingular_scan(curve_from_pair(1, -1), 200)
        want = [p for p in primes_up_to(200) if p % 4 == 3]
        assert list(scan.primes) == want


def test_criterion_4_conductor_tate_consistency():
    with criterion(4, "conductor/Tate consistency", 5.0):
        assert conductor(curve_from_pair(1, -1)) == 32
        rng = random.Random(5150)
        corpus = []
        while len(corpus) < 50:
            a, b = rng.randint(-12, 12), rng.randint(-12, 12)
            if a and b and a != b:
                corpus.append(curve_from_pair(a, b))
        for E in corpus:
            W = E.model
            j = W.j
            N = conductor(W)
            for p in primes_up_to(100):
                rep = classify_reduction(W, p)
                f = rep.conductor_exponent
                assert f == _vp(N, p)
                assert (f == 0) == (rep.v_delta_min == 0)
                vj = _vp(j.numerator, p) - _vp(j.denominator, p)
                is_mult = f == 1
                assert is_mult == (
                    rep.v_delta_min > 0
                    and _vp(int(rep.minimal_model.c4), p) == 0
                )
                if is_mult:
                    assert vj < 0
        for E in corpus[:10]:
            W = E.model
            N = conductor(W)
            assert conductor(W.transform(2, 1, 0, 3)) == N
            assert conductor(W.transform(Fraction(1, 3), Fraction(1, 2), 1, 0)) == N


def test_criterion_5_global2_filter():
    with criterion(5, "global2 prime filter", 1.0):
        E = curve_from_pair(1, -1)
        assert global2_prime_filter(E, 2, 20) == [5, 7, 11, 13, 17, 19]
        rng = random.Random(31337)
        done = 0
        while done < 50:
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            if not (a and b and a != b):
                continue
            E = curve_from_pair(a, b)
            d = rng.randint(1, 7)
            bound = rng.randint(2, 50)
            modulus = 6 * conductor(E) * d
            want = {p for p in primes_up_to(bound) if modulus % p != 0}
            assert set(global2_prime_filter(E, d, bound)) == want
            done += 1


def test_criterion_6_skew_symmetry_prover():
    with criterion(6, "skew-symmetry prover", 60.0):
        E = curve_from_pair(1, -1)
        for q in (5, 7, 11, 13):
            G = rational_points_mod_p(E, q)
            n = len(G.points)
            for conv in (MINUS, PLUS):
                rep2 = prove_skew(SkewBilinear(G, 2), conv)
                assert rep2.all_proved, (q, conv, rep2.pairs_failed)
                assert rep2.pairs_proved == n * n
                assert rep2.two_torsion_proved == n
                assert rep2.negative_control_certified, (q, conv)
                rep3 = prove_skew(SkewBilinear(G, 3), conv)
                assert rep3.all_proved, (q, conv, "r=3")
                assert rep3.negative_control_certified, (q, conv, "r=3")


def test_criterion_7_filtration_quotients():
    with criterion(7, "filtration quotients", 30.0):
        groups = [
            FinAbGroup.cyclic(2),
            FinAbGroup.cyclic(3),
            FinAbGroup.cyclic(4),
            FinAbGroup.from_invariant_factors([2, 4]),
            FinAbGroup.from_elliptic(rational_points_mod_p(curve_from_pair(1, -1), 5)),
            FinAbGroup.from_elliptic(rational_points_mod_p(curve_from_pair(1, -1), 11)),
        ]
        for G in groups:
            rep = aug_filtration(G, 2)
            assert rep.exactness_ok, G.label
            assert list(rep.quotients[0][1]) == G.nontrivial_invariants()
        z2 = aug_filtration(FinAbGroup.cyclic(2), 3)
        assert [fs for _, fs in z2.quotients] == [(2,), (2,), (2,)]
        # generator lattice equals the product lattice, both inclusions
        for G in groups[:4]:
            for r in (1, 2):
                via_products = ideal_power_lattice(G, r)
                full = gr_generators(G, r, over="all")
                assert all(contains(via_products, vector(G, g)) for g in full)
                from isogeny_forge.exactnum import ColumnLattice

                enum = ColumnLattice(len(G))
                for g in full:
                    enum.add_generator(vector(G, g))
                assert all(contains(enum, v) for v in via_products.basis)


def test_criterion_8_product_decomposition():
    with criterion(8, "product decomposition", 10.0):
        G1 = rational_points_mod_p(curve_from_pair(1, -1), 5)
        G2 = rational_points_mod_p(curve_from_pair(1, 3), 5)
        groups = [G1, G2]
        rng = random.Random(99)
        tested = 0
        while tested < 20:
            P = (rng.choice(G1.points), rng.choice(G2.points))
            Q = (rng.choice(G1.points), rng.choice(G2.points))
            res = product_decompose(groups, [P, Q])
            assert res.verified
            assert res.roundtrip_ok
            tested += 1
        # generic pair: both coordinates nonzero on both points -> 4 terms
        P = (G1.points[2], G2.points[3])
        Q = (G1.points[4], G2.points[1])
        res = product_decompose(groups, [P, Q])
        assert res.verified and res.roundtrip_ok
        assert len(res.terms) == 4
        assert res.certificate
        # embedded inputs round-trip to a single term
        res = product_decompose(
            groups, [embed(0, G1.points[2], 2), embed(1, G2.points[3], 2)]
        )
        assert res.verified and res.roundtrip_ok and len(res.terms) == 1


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    with criterion(9, "CLI determinism and exit codes", 5.0):
        cli = [sys.executable, "-m", "isogeny_forge.cli"]

        def run(*args, **kw):
            return subprocess.run(cli + list(args), capture_output=True, text=True, **kw)

        args = ["scholten", "verify", "--params", "1,2,3,4", "--primes", "50"]
        first = run(*args)
        second = run(*args)
        assert first.returncode == 0 and second.returncode == 0

        def strip(out):
            recs = [json.loads(line) for line in out.splitlines() if line.strip()]
            for r in recs:
                r.pop("timing_ms", None)
            return recs

        assert strip(first.stdout) == strip(second.stdout)
        # exit-code contract on a scripted matrix
        assert run("scholten", "verify", "--params", "1,2,3,4", "--primes", "50").returncode == 0
        assert run(
            "scholten", "verify", "--params", "1,2,3,4", "--primes", "50", "--e1", "1,3"
        ).returncode == 1
        assert run("scholten", "verify", "--params", "1,2,3,4").returncode == 2
        assert run(
            "--output", str(tmp_path / "no" / "dir" / "x.jsonl"),
            "scholten", "verify", "--params", "1,2,3,4", "--primes", "50",
        ).returncode == 3


def _vp(n, p):
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
