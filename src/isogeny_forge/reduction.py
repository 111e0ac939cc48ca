"""Local reduction theory over Q: p-minimal models, Kodaira types, conductor
exponents, and actual/potential reduction classification.

The classifier is a single step machine valid at every prime, including the
wild primes 2 and 3.  Conductor exponents come out of the type together with
v_p(Delta_min) (f = v(Delta_min) - #components + 1), so wild contributions
are handled without a separate ramification computation.

Normalizing translations are found by small exhaustive search at p = 2, 3 and
by closed formulas modulo a high power of p at odd primes; every normalization
is re-checked, and a misnavigated step raises CertificateError instead of
misclassifying.  The machine runs on the integer coefficients of a p-integral
model and composes an integer change of model; every outcome it reaches
re-verifies that this change carries the start model to the one reported.
The machine starts only where it can move the model: a model of ints at a
prime not dividing its discriminant is I0 at once, with the identity change,
which is not re-checked.  Outcomes are memoized in process by (model, p).

A repeated root rho of a cubic f = T^3 + A2 T^2 + A4 T + A6 over F_p is
rational (Silverman, Advanced Topics, IV.9, steps 6-8).  Writing
f = (T - rho)^2 (T - sigma) gives A2^2 - 3 A4 = (rho - sigma)^2 and
9 A6 - A2 A4 = 2 rho (rho - sigma)^2, so for p > 3
rho = (9 A6 - A2 A4) / (2 (A2^2 - 3 A4)), or -A2/3 when A2^2 = 3 A4; for
p = 2, 3 it is the unique x in F_p with f(x) = f'(x) = 0.  The root is triple
iff (A2, A4, A6) = (-3 rho, 3 rho^2, -rho^3) mod p, in every characteristic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .elliptic import (
    TwoTorsionCurve,
    WeierstrassModel,
    _WEIGHTS,
    _as_model,
    _b246,
    _b246_mod_p,
    _b8,
    _c4c6,
    _char_sum,
    _discriminant,
    _integral_model,
    _model,
    _split_char_sum,
    _translated,
)
from .errors import BudgetExceededError, CertificateError, UnsupportedPrimeError
from .exactnum import (
    _factor_cofactor,
    _trial_division,
    is_prime,
    legendre_symbol,
    valuation,
)

GOOD_ORDINARY = "GoodOrdinary"
GOOD_SUPERSINGULAR = "GoodSupersingular"
SPLIT_MULTIPLICATIVE = "SplitMultiplicative"
NONSPLIT_MULTIPLICATIVE = "NonsplitMultiplicative"
ADDITIVE = "Additive"

POT_GOOD_ORDINARY = "PotGoodOrdinary"
POT_GOOD_SUPERSINGULAR = "PotGoodSupersingular"
POT_MULTIPLICATIVE = "PotMultiplicative"

Curve = Union[TwoTorsionCurve, WeierstrassModel]


class ReductionReport(NamedTuple):
    prime: int
    kodaira_type: str
    v_delta_min: int
    conductor_exponent: int
    actual_type: str
    potential_type: Optional[str]
    minimal_model: WeierstrassModel


class TateOutcome(NamedTuple):
    kodaira_type: str
    v_delta_min: int
    conductor_exponent: int
    split: Optional[bool]  # multiplicative types only
    model: WeierstrassModel  # p-minimal, p-integral, int coefficients
    # (u, r, s, t) from the model passed in: ints, or Fractions when it was
    # first rescaled by u = p^-k to make it p-integral
    transform: tuple[int | Fraction, int | Fraction, int | Fraction, int | Fraction]
    restarts: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


def _double_root_of_quadratic(alpha: int, beta: int, gamma: int, p: int) -> int:
    """The double root of alpha*X^2 + beta*X + gamma over F_p, given that the
    quadratic is inseparable (beta^2 = 4*alpha*gamma mod p) and alpha != 0."""
    if p == 2:
        _require(beta % 2 == 0 and alpha % 2 == 1, "not an inseparable quadratic mod 2")
        return gamma * alpha % 2
    return (-beta) * pow(2 * alpha, -1, p) % p


def _repeated_root_of_cubic(A2: int, A4: int, A6: int, p: int):
    """Root structure of T^3 + A2 T^2 + A4 T + A6 over F_p.

    Returns (kind, rho) with kind in {"separable", "double", "triple"}; rho is
    the repeated root when present (always rational for a cubic).
    """
    disc = (
        18 * A2 * A4 * A6 - 4 * A2**3 * A6 + A2 * A2 * A4 * A4 - 4 * A4**3 - 27 * A6 * A6
    ) % p
    if disc != 0:
        return "separable", None
    if p > 3:  # closed form, see the module docstring
        d = (A2 * A2 - 3 * A4) % p
        if d:
            rho = (9 * A6 - A2 * A4) * pow(2 * d, -1, p) % p
        else:
            rho = -A2 * pow(3, -1, p) % p
    else:
        (rho,) = [
            x for x in range(p)
            if (x**3 + A2 * x * x + A4 * x + A6) % p == (3 * x * x + 2 * A2 * x + A4) % p == 0
        ]
    triple = (A2 + 3 * rho) % p == 0 and (A4 - 3 * rho * rho) % p == 0 and (A6 + rho**3) % p == 0
    return ("triple" if triple else "double"), rho


# -- the step machine ----------------------------------------------------------


def _singular_point(a: tuple[int, ...], p: int) -> tuple[int, int]:
    """The unique singular point of the reduction mod p, as lifts in [0, p)."""
    if p == 2:
        # (x0, y0) is singular iff moving it to (0, 0) makes a3, a4 and a6 even
        for x0 in (0, 1):
            for y0 in (0, 1):
                if all(c % 2 == 0 for c in _translated(a, x0, 0, y0)[2:]):
                    return x0, y0
        raise CertificateError("no singular point found mod 2")
    b2, b4, b6 = _b246_mod_p(*a, p)
    # x0 is the repeated root of 4x^3 + b2 x^2 + 2 b4 x + b6, made monic
    inv4 = pow(4, -1, p)
    kind, x0 = _repeated_root_of_cubic(b2 * inv4, 2 * b4 * inv4, b6 * inv4, p)
    _require(kind != "separable", "singular reduction without a repeated root")
    y0 = (-(a[0] * x0 + a[2])) * pow(2, -1, p) % p
    return x0, y0


_STEP6_BUFFER = 12  # odd p: zero a1, a3 modulo p^buffer; decisions only probe v <= 11
_STEP6_VALUATIONS = (1, 1, 2, 2, 3)  # the v_p(a_i) that step 6 arranges


class _Machine:
    """The model a = (a1, ..., a6) and the change (u, r, s, t) from start to it, in ints."""

    def __init__(self, a: tuple[int, ...], p: int, k: int):
        self.p = p
        self.k = k  # the input was scaled by u0 = p^-k to make it p-integral
        self.start = self.a = a
        self.u, self.r, self.s, self.t = 1, 0, 0, 0
        self.restarts = 0

    def apply(self, r: int, s: int, t: int) -> None:
        """Translate by (1, r, s, t), composed after the change so far."""
        self.a = _translated(self.a, r, s, t)
        u2 = self.u * self.u
        self.t += u2 * (self.u * t + self.s * r)
        self.r += u2 * r
        self.s += self.u * s

    def outcome(self, kodaira: str, n: int, f: int, split: Optional[bool] = None) -> TateOutcome:
        u, r, s, t = self.u, self.r, self.s, self.t
        _require(
            _translated(self.start, r, s, t) == tuple(u**i * c for c, i in zip(self.a, _WEIGHTS)),
            "change of model does not carry the start model to the final one",
        )
        if self.k:
            u0 = Fraction(1, self.p**self.k)
            u, r, s, t = u0 * u, u0**2 * r, u0 * s, u0**3 * t
        return TateOutcome(kodaira, n, f, split, _model(self.a), (u, r, s, t), self.restarts)


def tate_algorithm(curve: Curve, p: int) -> TateOutcome:
    """Kodaira type, v_p(Delta_min) and conductor exponent at p, together with
    the p-minimal model reached and the transformation to it.

    A model of ints at a prime p not dividing its discriminant is I0 with
    the identity change: that outcome is returned without starting the step
    machine, and, as nothing moved the model, it is not re-checked.  Any
    other model runs the machine (_tate_machine).  Denominators that are
    powers of p are cleared by rescaling; any other denominator raises
    ValueError.  The outcomes of the last 1,024 (model, p) used are kept in
    process (_tate_cache), so each is computed once."""
    return _tate_cache(_as_model(curve), p)


@lru_cache(maxsize=1024)
def _tate_cache(W: WeierstrassModel, p: int) -> TateOutcome:
    """tate_algorithm on a model, memoized by (model, p)."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if all(type(c) is int for c in W) and _discriminant(*W) % p:
        return TateOutcome("I0", 0, 0, None, W, (1, 0, 0, 0), 0)
    return _tate_machine(W, p)


def _tate_machine(W: WeierstrassModel, p: int) -> TateOutcome:
    """Tate's algorithm by the step machine alone, at every model and prime p."""
    # make the model p-integral: u = p^-worst, worst the least k with p^(i k)
    # clearing the p-part of the denominator of each a_i
    worst = max((valuation(c.denominator, p) + i - 1) // i for i, c in zip(_WEIGHTS, W.coeffs()))
    if worst:
        W = W.transform(Fraction(1, p**worst), 0, 0, 0)
    if any(c.denominator != 1 for c in W.coeffs()):
        raise ValueError("model must be integral")
    m = _Machine(tuple(c.numerator for c in W.coeffs()), p, worst)

    guard = 0
    while True:
        guard += 1
        _require(guard < 64, "step machine failed to terminate")
        n = valuation(_discriminant(*m.a), p)
        if n == 0:
            return m.outcome("I0", 0, 0)

        r0, t0 = _singular_point(m.a, p)
        m.apply(r0, 0, t0)
        a1, a2, a3, a4, a6 = m.a
        _require(a3 % p == a4 % p == a6 % p == 0, "singular point not moved to (0, 0)")

        c4, c6 = _c4c6(*m.a)
        if valuation(c4, p) == 0:
            # multiplicative: the tangent cone at the node is
            # y^2 + a1 xy - a2 x^2; rational slopes <=> split
            if p == 2:
                split = a2 % 2 == 0
            else:
                split = legendre_symbol(-c6 % p, p) == 1
            return m.outcome(f"I{n}", n, 1, split)

        if valuation(a6, p) < 2:
            return m.outcome("II", n, n)
        if valuation(_b8(a1, a2, a3, a4, a6), p) < 3:
            return m.outcome("III", n, n - 1)
        if valuation(_b246(a1, a2, a3, a4, a6)[2], p) < 3:
            return m.outcome("IV", n, n - 2)

        _normalize_step6(m)
        a1, a2, a3, a4, a6 = m.a
        p2, p3 = p * p, p**3
        kind, rho = _repeated_root_of_cubic(
            (a2 // p) % p, (a4 // p2) % p, (a6 // p3) % p, p
        )
        if kind == "separable":
            return m.outcome("I0*", n, n - 4)
        if kind == "double":
            mm = _istar_subloop(m, rho)
            return m.outcome(f"I{mm}*", n, n - 4 - mm)
        # triple root
        m.apply(p * rho, 0, 0)
        a1, a2, a3, a4, a6 = m.a
        _require(valuation(a2, p) >= 2 and valuation(a4, p) >= 3 and valuation(a6, p) >= 4,
                 "triple root not moved")
        A3 = (a3 // p2) % p
        A6 = (a6 // p**4) % p
        if (A3 * A3 + 4 * A6) % p != 0:
            return m.outcome("IV*", n, n - 6)
        y0 = _double_root_of_quadratic(1, A3, (-A6) % p, p)
        m.apply(0, 0, p2 * y0)
        a1, a2, a3, a4, a6 = m.a
        _require(valuation(a3, p) >= 3 and valuation(a6, p) >= 5, "Y double root not moved")
        if valuation(a4, p) < 4:
            return m.outcome("III*", n, n - 7)
        if valuation(a6, p) < 6:
            return m.outcome("II*", n, n - 8)
        # non-minimal: all a_i divisible by p^i after the normalizations
        scales = [p**i for i in _WEIGHTS]
        _require(all(c % q == 0 for c, q in zip(m.a, scales)), "non-minimal model not divisible")
        m.a = tuple(c // q for c, q in zip(m.a, scales))
        m.u *= p
        m.restarts += 1


def _normalize_step6(m: _Machine) -> None:
    """Arrange p | a1, a2; p^2 | a3, a4; p^3 | a6 by an (s, t) translation."""
    p = m.p
    if p > 3:
        pk = p**_STEP6_BUFFER
        inv2 = pow(2, -1, pk)
        s = (-m.a[0] * inv2) % pk
        t = (-m.a[2] * inv2) % pk
        m.apply(0, s, t)
    else:
        found = next(
            (
                (s, t)
                for s in range(p)
                for t in range(p**3)
                if all(c % p**k == 0 for c, k in zip(_translated(m.a, 0, s, t), _STEP6_VALUATIONS))
            ),
            None,
        )
        _require(found, "step-6 normalization not found (machine bug)")
        m.apply(0, *found)
    _require(all(valuation(a, p) >= k for a, k in zip(m.a, _STEP6_VALUATIONS)),
             "step-6 valuations failed")


def _istar_subloop(m: _Machine, rho: int) -> int:
    """The I_m* chain: returns m >= 1.

    Alternates between Y- and X-quadratics whose double roots are translated
    away until a separable one appears.
    """
    p = m.p
    m.apply(p * rho, 0, 0)
    a1, a2, a3, a4, a6 = m.a
    _require(valuation(a2, p) == 1 and valuation(a4, p) >= 3 and valuation(a6, p) >= 4,
             "double root not moved")
    mm = 1
    while True:
        a1, a2, a3, a4, a6 = m.a
        if mm % 2 == 1:
            k = (mm + 3) // 2
            A3 = (a3 // p**k) % p
            A6 = (a6 // p ** (mm + 3)) % p
            if (A3 * A3 + 4 * A6) % p != 0:
                return mm
            y0 = _double_root_of_quadratic(1, A3, (-A6) % p, p)
            m.apply(0, 0, p**k * y0)
            _require(valuation(m.a[2], p) >= k + 1 and valuation(m.a[4], p) >= mm + 4,
                     "I_m* Y root not moved")
        else:
            k = (mm + 4) // 2
            A2 = (a2 // p) % p
            A4 = (a4 // p**k) % p
            A6 = (a6 // p ** (mm + 3)) % p
            if (A4 * A4 - 4 * A2 * A6) % p != 0:
                return mm
            x0 = _double_root_of_quadratic(A2, A4, A6, p)
            m.apply(p ** (k - 1) * x0, 0, 0)
            _require(valuation(m.a[3], p) >= k + 1 and valuation(m.a[4], p) >= mm + 4,
                     "I_m* X root not moved")
        mm += 1
        _require(mm < 64, "I_m* chain failed to terminate")


# -- public operations ---------------------------------------------------------


def classify_reduction(curve: Curve, p: int) -> ReductionReport:
    """Full local report at p (any prime, including 2 and 3).  Where p does
    not divide the discriminant of a model of ints, the report's model is
    that model itself, reached by the identity change, which no step machine
    ran and nothing re-checks (see tate_algorithm)."""
    W = _as_model(curve)
    out = tate_algorithm(W, p)
    f = out.conductor_exponent
    pot = potential_type(curve, p) if p != 2 else None
    if f == 0:
        if p == 2:
            # supersingular at 2 iff j = c4^3 / Delta = 0 mod 2, and c4 = a1^4 mod 2
            supersingular = out.model.a1 % 2 == 0
        else:
            # good reduction: supersingularity depends only on j mod p
            supersingular = pot == POT_GOOD_SUPERSINGULAR
        actual = GOOD_SUPERSINGULAR if supersingular else GOOD_ORDINARY
    elif f == 1:
        actual = SPLIT_MULTIPLICATIVE if out.split else NONSPLIT_MULTIPLICATIVE
    else:
        actual = ADDITIVE
    return ReductionReport(
        prime=p,
        kodaira_type=out.kodaira_type,
        v_delta_min=out.v_delta_min,
        conductor_exponent=f,
        actual_type=actual,
        potential_type=pot,
        minimal_model=out.model,
    )


# Pollard rho took at most 0.06 s on a balanced 64-bit semiprime and 0.29 s
# on a 72-bit one (README, "Conductor guard"); a conductor hands it at most
# three cofactors of MAX_FACTOR_BITS bits
MAX_FACTOR_BITS = 64


def bad_primes(curve: Curve, W: WeierstrassModel) -> list[int]:
    """The primes of Delta(W), in order, for W an integral model of curve.

    When W is the model of a TwoTorsionCurve, Delta = 16 a^2 b^2 (a - b)^2,
    so the primes are 2 and those of a, b and a - b, each factored on its
    own.  Any other W has Delta factored whole.  Each number is
    trial-divided once, and its cofactor handed to Pollard rho; dividing
    the primes out of Delta must leave +-1.  Before anything is handed to
    Pollard rho, a number whose cofactor after trial division has more than
    MAX_FACTOR_BITS bits raises BudgetExceededError."""
    delta = W.disc
    two_torsion = isinstance(curve, TwoTorsionCurve) and W is curve.model
    factored = (curve.a, curve.b, curve.a - curve.b) if two_torsion else (delta,)
    divided = [_trial_division(n) for n in factored]
    for n, (_, cofactor) in zip(factored, divided):
        bits = cofactor.bit_length()
        if bits > MAX_FACTOR_BITS:
            raise BudgetExceededError(
                f"the conductor must factor {n}, whose cofactor after trial division has"
                f" {bits} bits, over {MAX_FACTOR_BITS}")
    found = {q for d in divided for q in _factor_cofactor(*d)}
    primes = sorted(found | {2} if two_torsion else found)
    for q in primes:
        _require(delta % q == 0, f"bad prime {q} does not divide the discriminant")
        while delta % q == 0:
            delta //= q
    _require(abs(delta) == 1, f"the discriminant has a prime outside the bad primes {primes}")
    return primes


@lru_cache(maxsize=256)
def conductor(curve: Curve) -> int:
    """N = prod p^{f_p} over the bad primes of the curve (memoized in
    process, keyed by the curve object)."""
    W = _integral_model(_as_model(curve))
    N = 1
    for p in bad_primes(curve, W):
        N *= p ** tate_algorithm(W, p).conductor_exponent
    return N


def potential_type(curve: Curve, p: int) -> str:
    """Reduction type attained after a finite base extension, for odd p.

    A TwoTorsionCurve with good reduction at p (p not dividing ab(a - b))
    has its own a_p decide ordinary vs supersingular, by _split_char_sum
    over its roots (0, a, b).  Otherwise v_p(j) decides: negative means
    potentially multiplicative; else the reduced j-invariant decides through
    any reference curve with that j (supersingularity depends only on j mod p,
    and is twist-invariant).
    """
    if p == 2:
        raise UnsupportedPrimeError("potential type is computed for odd primes only")
    if not is_prime(p) or p < 3:
        raise ValueError(f"p = {p} is not an odd prime")
    if isinstance(curve, TwoTorsionCurve) and curve.good_at(p):
        ap = -_split_char_sum((0, curve.a, curve.b), p)
        return POT_GOOD_SUPERSINGULAR if ap % p == 0 else POT_GOOD_ORDINARY
    # v_p(j) and j mod p from the integers c4 and Delta of an integral model,
    # j = c4^3 / Delta; j = 0 exactly when c4 = 0
    W = _integral_model(_as_model(curve))
    c4, disc = W.c4, W.disc
    vd = valuation(disc, p)
    if c4 and 3 * valuation(c4, p) < vd:
        return POT_MULTIPLICATIVE
    jbar = c4**3 // p**vd * pow(disc // p**vd, -1, p) % p
    if p == 3:
        # the unique supersingular j in characteristic 3 is 0 (= 1728)
        return POT_GOOD_SUPERSINGULAR if jbar == 0 else POT_GOOD_ORDINARY
    if jbar == 0:
        A, B = 0, 1
    elif jbar == 1728 % p:
        A, B = 1, 0
    else:
        A = 3 * jbar * (1728 - jbar) % p
        B = 2 * jbar * (1728 - jbar) ** 2 % p
    ap = -_char_sum((B, A, 0, 1), p)
    return POT_GOOD_SUPERSINGULAR if ap % p == 0 else POT_GOOD_ORDINARY
