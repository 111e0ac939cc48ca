"""Decidable hypothesis predicates for the finiteness statements the toolkit
supports, plus the supersingular-prime scanner.

These check hypotheses only.  When a hypothesis set is satisfied the verdict
echoes the certified consequence as text; no Chow-group object is ever
computed or claimed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .elliptic import TwoTorsionCurve, _as_model, _integral_model, ap_trace
from .exactnum import primes_up_to
from .reduction import (
    POT_GOOD_SUPERSINGULAR,
    Curve,
    classify_reduction,
    conductor,
    potential_type,
    tate_algorithm,
)

MAIN1_CONCLUSION = (
    "F^2(A)_nd is torsion of finite exponent; finite when A is a surface"
)
MAIN2_CONCLUSION = "F^2(X)_nd is torsion of finite exponent"
MAIN2_CONCLUSION_UNRAMIFIED = "F^2(X)_nd is p-divisible"


class HypothesisVerdict(NamedTuple):
    theorem: str  # "main1" | "main2" | "global2"
    inputs: dict
    classifications: tuple
    met: bool
    reason: Optional[str]
    conclusion: Optional[str]

    def to_record(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "classifications": list(self.classifications),
            "verdict": "HypothesesMet" if self.met else f"NotMet({self.reason})",
            "conclusion": self.conclusion,
        }


def main1_check(curves: Sequence[Curve], p: int) -> HypothesisVerdict:
    """At most one factor with potentially good supersingular reduction at an
    odd prime p; potentially multiplicative factors are admissible (split
    multiplicative is reached over a finite extension)."""
    if not curves:
        raise ValueError("main1 needs at least one curve")
    inputs = {"p": p, "curves": [_curve_label(E) for E in curves]}
    if p == 2:
        return HypothesisVerdict("main1", inputs, (), False, "p must be odd", None)
    kinds = tuple(potential_type(E, p) for E in curves)
    n_ss = sum(1 for k in kinds if k == POT_GOOD_SUPERSINGULAR)
    if n_ss > 1:
        return HypothesisVerdict(
            "main1", inputs, kinds, False, f"{n_ss} supersingular factors", None
        )
    return HypothesisVerdict("main1", inputs, kinds, True, None, MAIN1_CONCLUSION)


def main2_check(
    products: Sequence[tuple[Sequence[Curve], int]],
    p: int,
    unramified: bool = False,
    all_good: bool = False,
) -> HypothesisVerdict:
    """Each Jacobian factor splits (up to an isogeny of degree coprime to p)
    into elliptic curves that are potentially good or multiplicative, with at
    most one product carrying a supersingular coordinate.

    The unramified/all-good flags assert base-field facts the caller vouches
    for; all_good is additionally cross-checked against the classifications.
    No product, a product without curves or a degree below 1 raises
    ValueError; a degree divisible by p is a NotMet verdict.
    """
    if not products or not all(factors for factors, _ in products):
        raise ValueError("main2 needs at least one product, each with at least one curve")
    if any(deg < 1 for _, deg in products):
        raise ValueError("isogeny degrees must be >= 1")
    inputs = {
        "p": p,
        "products": [
            {"factors": [_curve_label(E) for E in fs], "degree": deg}
            for fs, deg in products
        ],
        "unramified": unramified,
        "all_good": all_good,
    }
    if p == 2:
        return HypothesisVerdict("main2", inputs, (), False, "p must be odd", None)
    for _, deg in products:
        if deg % p == 0:
            return HypothesisVerdict(
                "main2", inputs, (), False, f"degree {deg} not coprime to p", None
            )
    kinds = tuple(
        tuple(potential_type(E, p) for E in factors) for factors, _ in products
    )
    ss_products = sum(
        1 for ks in kinds if any(k == POT_GOOD_SUPERSINGULAR for k in ks)
    )
    if ss_products > 1:
        return HypothesisVerdict(
            "main2",
            inputs,
            kinds,
            False,
            f"{ss_products} products contain a supersingular coordinate",
            None,
        )
    if all_good:
        for factors, _ in products:
            for E in factors:
                if classify_reduction(E, p).conductor_exponent != 0:
                    return HypothesisVerdict(
                        "main2",
                        inputs,
                        kinds,
                        False,
                        f"all-good flag contradicted at p={p} by {_curve_label(E)}",
                        None,
                    )
    conclusion = (
        MAIN2_CONCLUSION_UNRAMIFIED if (unramified and all_good) else MAIN2_CONCLUSION
    )
    return HypothesisVerdict("main2", inputs, kinds, True, None, conclusion)


def global2_prime_filter(curve: Curve, deg_phi: int, bound: int) -> list[int]:
    """Primes p <= bound coprime to 6 * N * deg_phi, N the conductor."""
    if deg_phi < 1:
        raise ValueError("deg_phi must be >= 1")
    N = conductor(curve)
    modulus = 6 * N * deg_phi
    return [p for p in primes_up_to(bound) if modulus % p != 0]


class SupersingularScan(NamedTuple):
    curve: str
    bound: int
    primes: tuple[int, ...]
    tested: int

    @property
    def density(self) -> Optional[Fraction]:
        """Supersingular primes per good prime tested; None when none was tested."""
        return Fraction(len(self.primes), self.tested) if self.tested else None

    def to_record(self) -> dict:
        return {
            "curve": self.curve,
            "bound": self.bound,
            "primes": list(self.primes),
            "tested_good_primes": self.tested,
            "density": None if self.density is None else str(self.density),
        }


def supersingular_scan(curve: Curve, bound: int) -> SupersingularScan:
    """All odd good primes p <= bound with a_p = 0 mod p, plus the observed
    density among the good primes tested.

    Each p is tested against the discriminant of the integral model W, which
    is never factored.  Where p does not divide it, a_p is taken on W; a
    TwoTorsionCurve is integral, so it is handed to ap_trace itself and takes
    the split kernel.  Where p divides it, one Tate run at p decides good
    reduction and gives the p-minimal model to count on.
    """
    W = _integral_model(_as_model(curve))
    delta = W.disc
    E = curve if isinstance(curve, TwoTorsionCurve) else W
    found = []
    tested = 0
    for p in primes_up_to(bound):
        if p == 2:
            continue
        model = E
        if delta % p == 0:
            local = tate_algorithm(W, p)
            if local.conductor_exponent > 0:
                continue
            model = local.model
        tested += 1
        if ap_trace(model, p) % p == 0:
            found.append(p)
    return SupersingularScan(_curve_label(curve), bound, tuple(found), tested)


def _curve_label(E: Curve) -> str:
    if isinstance(E, TwoTorsionCurve):
        return f"E({E.a},{E.b})"
    return "W[" + ",".join(str(c) for c in E.coeffs()) + "]"
