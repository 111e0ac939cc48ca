"""Genus-2 curves lam*y^2 = ((a-b)x^2-(c-d))(ax^2-c)(bx^2-d) with
lam = ad - bc, whose Jacobians split up to isogeny as E_{a,b} x E_{c,d}.

Everything downstream of the construction is certificate-shaped: the split
Jacobian is certified numerically through the point-count identity
#C(F_p) = p + 1 - a_p(E1) - a_p(E2) at a batch of good primes, never assumed.
"""

from __future__ import annotations

import csv
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .checkers import main1_check
from .elliptic import TwoTorsionCurve, ap_trace, curve_from_pair
from .errors import CertificateError, DegenerateCurveError, InsufficientPrimesError
from .exactnum import primes_up_to
from .genus2 import HyperellipticCurve, _even_sextic

SMOOTH = "SmoothGenus2"


class ScholtenCurve(NamedTuple):
    """C_{a,b,c,d} and its factors; equal only to a ScholtenCurve."""

    params: tuple[int, int, int, int]  # (a, b, c, d)
    status: str  # SMOOTH or "Degenerate(<reason>)"
    lam: Optional[int] = None
    curve: Optional[HyperellipticCurve] = None
    e1: Optional[TwoTorsionCurve] = None
    e2: Optional[TwoTorsionCurve] = None

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def is_smooth(self) -> bool:
        return self.status == SMOOTH


def build_scholten(a: int, b: int, c: int, d: int) -> ScholtenCurve:
    """Assemble the curve; degeneracy is diagnosed, never raised.

    The first violated condition (in the order lam, first pair, second pair,
    repeated roots) names the reported reason.
    """
    params = (int(a), int(b), int(c), int(d))
    a, b, c, d = params
    lam = a * d - b * c
    if lam == 0:
        return ScholtenCurve(params, "Degenerate(lam = 0)")
    if a == 0 or b == 0 or a == b:
        return ScholtenCurve(params, "Degenerate(first pair: ab(a-b) = 0)")
    if c == 0 or d == 0 or c == d:
        return ScholtenCurve(params, "Degenerate(second pair: cd(c-d) = 0)")
    # c6 = (a - b)ab is nonzero here, so the sextic has exact degree 6
    factors = ((a - b, c - d), (a, c), (b, d))
    curve = HyperellipticCurve(lam, _even_sextic(factors), factors)
    if curve.disc == 0:
        return ScholtenCurve(params, "Degenerate(repeated roots)")
    return ScholtenCurve(
        params,
        SMOOTH,
        lam=lam,
        curve=curve,
        e1=curve_from_pair(a, b),
        e2=curve_from_pair(c, d),
    )


# -- the two-torsion parameter orbit ------------------------------------------


def torsion_forms_orbit(a: int, b: int) -> list[tuple[int, int]]:
    """All parameter pairs obtained by re-basing the curve at each of its
    2-torsion roots {0, a, b}: for every ordering (r, s, t) of the roots the
    pair (s - r, t - r), deduplicated.

    Every emitted pair is checked to carry the same j-invariant; a failure
    would be a construction bug and raises CertificateError.
    """
    E = curve_from_pair(a, b)
    roots = (0, a, b)
    seen: list[tuple[int, int]] = []
    from itertools import permutations

    for r, s, t in permutations(roots):
        pair = (s - r, t - r)
        if pair not in seen:
            seen.append(pair)
    for pa, pb in seen:
        if curve_from_pair(pa, pb).j != E.j:
            raise CertificateError(f"orbit member {(pa, pb)} has a different j-invariant")
    return seen


# a closed-form version of the same orbit that circulates in print; one of its
# entries disagrees with the root re-basing for generic (a, b), so each entry
# is j-checked and the mismatches are reported rather than used
_QUOTED_ORBIT_PATTERNS: tuple[Callable[[int, int], tuple[int, int]], ...] = (
    lambda a, b: (a, b),
    lambda a, b: (b, a),
    lambda a, b: (-b, b - a),
    lambda a, b: (b - a, -a),
    lambda a, b: (a - b, -b),
    lambda a, b: (-b, a - b),
)


class OrbitReport(NamedTuple):
    base: tuple[int, int]
    pairs: tuple[tuple[int, int], ...]
    mismatched_patterns: tuple[tuple[int, int], ...]  # quoted forms failing the j-check


def torsion_orbit_report(a: int, b: int) -> OrbitReport:
    E = curve_from_pair(a, b)
    pairs = tuple(torsion_forms_orbit(a, b))
    bad = []
    for pattern in _QUOTED_ORBIT_PATTERNS:
        pa, pb = pattern(a, b)
        try:
            same = curve_from_pair(pa, pb).j == E.j
        except DegenerateCurveError:
            same = False
        if not same:
            bad.append((pa, pb))
    return OrbitReport((a, b), pairs, tuple(bad))


# -- families ------------------------------------------------------------------


class FamilyReport(NamedTuple):
    params: tuple[int, int, int, int]
    members: tuple[ScholtenCurve, ...]  # smooth members only
    classes: tuple[tuple[int, ...], ...]  # indices into members, one per class
    degenerate: tuple[ScholtenCurve, ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)


def scholten_family(a: int, b: int, c: int, d: int) -> FamilyReport:
    """Curves C_{a',b',c,d} over the (a, b) orbit, grouped into geometric
    isomorphism classes by absolute Igusa-Clebsch invariants.

    Twists are not separated: the class count is a lower bound on the number
    of distinct curves over Q.
    """
    curve_from_pair(a, b)
    curve_from_pair(c, d)
    members = []
    degenerate = []
    for (aa, bb) in torsion_forms_orbit(a, b):
        C = build_scholten(aa, bb, c, d)
        (members if C.is_smooth else degenerate).append(C)
    keys = [m.curve.absolute_igusa() for m in members]
    classes: list[list[int]] = []
    seen: dict[tuple, int] = {}
    for i, k in enumerate(keys):
        kk = tuple(k)
        if kk in seen:
            classes[seen[kk]].append(i)
        else:
            seen[kk] = len(classes)
            classes.append([i])
    return FamilyReport(
        (a, b, c, d),
        tuple(members),
        tuple(tuple(c) for c in classes),
        tuple(degenerate),
    )


# -- split-Jacobian certification ----------------------------------------------


class SplitJacobianCertificate(NamedTuple):
    params: tuple[int, int, int, int]
    rows: tuple[tuple[int, int, int, int, bool], ...]  # (p, #C, ap1, ap2, ok)
    skipped: tuple[tuple[int, str], ...]
    verdict: bool

    def to_record(self) -> dict:
        return {
            "params": list(self.params),
            "rows": [
                {"p": p, "count": n, "ap1": a1, "ap2": a2, "ok": ok}
                for (p, n, a1, a2, ok) in self.rows
            ],
            "skipped": [{"p": p, "reason": r} for (p, r) in self.skipped],
            "verdict": "pass" if self.verdict else "fail",
        }


def _bad_product(C: ScholtenCurve, e1: TwoTorsionCurve, e2: TwoTorsionCurve) -> int:
    """lam * disc(S) * lc(S) * Delta(E1) * Delta(E2): the count identity is
    testable at exactly the odd primes that do not divide it."""
    if not C.is_smooth:
        raise DegenerateCurveError(f"curve is not smooth: {C.status}")
    return C.lam * C.curve.disc * C.curve.coeffs[6] * e1.delta * e2.delta


def verify_split_jacobian(
    C: ScholtenCurve,
    primes: Sequence[int],
    e1: Optional[TwoTorsionCurve] = None,
    e2: Optional[TwoTorsionCurve] = None,
    min_primes: int = 5,
) -> SplitJacobianCertificate:
    """Check #C(F_p) = p + 1 - a_p(E1) - a_p(E2) at every usable prime.

    Both sides are sums of elliptic._split_char_sum, the non-residue mask
    primitive, over different root sets: #C(F_p) over the roots of S as a
    cubic in x^2 (with and without 0), a_p(E_i) over (0, a, b) and (0, c, d).
    Each sum reads the one mask of p, built once per prime, at one shift per root.
    What is independent of that primitive is the test oracle: the tests
    check the genus-2 count against the {x, -x} pair sum (elliptic._char_sum)
    of the same sextic and against enumeration.

    Passing e1/e2 overrides the elliptic factors (useful as a negative
    control; a wrong factor must fail at some prime).
    """
    e1 = e1 or C.e1
    e2 = e2 or C.e2
    bad = _bad_product(C, e1, e2)
    rows = []
    skipped = []
    for p in primes:
        if p == 2:
            skipped.append((p, "p = 2"))
            continue
        if bad % p == 0:
            skipped.append((p, "divides lam*disc*lc or a factor discriminant"))
            continue
        n = C.curve.point_count(p)
        a1 = ap_trace(e1, p)
        a2 = ap_trace(e2, p)
        rows.append((p, n, a1, a2, n == p + 1 - a1 - a2))
    if len(rows) < min_primes:
        raise InsufficientPrimesError(
            f"only {len(rows)} usable primes, need at least {min_primes}"
        )
    verdict = all(r[4] for r in rows)
    return SplitJacobianCertificate(C.params, tuple(rows), tuple(skipped), verdict)


# -- parameter search ------------------------------------------------------------


class SearchRecord(NamedTuple):
    curve: ScholtenCurve
    igusa_key: tuple
    predicate_names: tuple[str, ...]

    def to_record(self) -> dict:
        return {
            "params": list(self.curve.params),
            "lam": self.curve.lam,
            "sextic": list(self.curve.curve.coeffs),
            "predicates": list(self.predicate_names),
        }


Predicate = tuple[str, Callable[[ScholtenCurve], bool]]


def split_jacobian_ok(C: ScholtenCurve, bound: int) -> bool:
    """At least five good primes up to bound, and the certificate passes at each."""
    usable = good_primes_for(C, bound)
    return len(usable) >= 5 and verify_split_jacobian(C, usable).verdict


def at_most_one_supersingular(C: ScholtenCurve, p: int) -> bool:
    """At most one factor has potentially supersingular reduction at p."""
    return main1_check([C.e1, C.e2], p).met


def _search_one(quad: tuple[int, int, int, int], predicates: Sequence[Predicate]):
    C = build_scholten(*quad)
    if not C.is_smooth or any(not fn(C) for _, fn in predicates):
        return None
    return SearchRecord(C, tuple(C.curve.absolute_igusa()), tuple(name for name, _ in predicates))


def parameter_search(
    quadruples: Iterable[tuple[int, int, int, int]],
    predicates: Sequence[Predicate] = (),
    dedupe_by_class: bool = True,
    jobs: int = 1,
) -> Iterator[SearchRecord]:
    """Stream smooth curves from a parameter grid, filtered by predicates and
    deduplicated by geometric isomorphism class, in grid order.

    jobs > 1 tests the curves in that many worker processes, so the predicates
    must pickle (module-level functions or partials of them).  Closing the
    stream cancels the work not yet started.
    """
    pool = None
    if jobs > 1:
        # imported here: it adds about 20 ms to the start-up of every CLI run
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(jobs)
    try:
        args = (_search_one, quadruples, repeat(predicates))
        seen: set[tuple] = set()
        for rec in pool.map(*args, chunksize=64) if pool else map(*args):
            if rec is None or rec.igusa_key in seen:
                continue
            if dedupe_by_class:
                seen.add(rec.igusa_key)
            yield rec
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def box_grid(bound: int) -> Iterator[tuple[int, int, int, int]]:
    """All quadruples with |a|,|b|,|c|,|d| <= bound."""
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    yield (a, b, c, d)


def quadruples_from_csv(path: str) -> list[tuple[int, int, int, int]]:
    """Parameter grid from a CSV file with header a,b,c,d."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"a", "b", "c", "d"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"CSV missing columns: {sorted(missing)}")
        for row in reader:
            try:
                out.append(tuple(int(row[k]) for k in "abcd"))
            except (TypeError, ValueError):
                cells = [row[k] for k in "abcd"]
                raise ValueError(f"CSV line {reader.line_num}: a,b,c,d must be integers, "
                                 f"got {cells}") from None
    return out


def good_primes_for(C: ScholtenCurve, bound: int) -> list[int]:
    """Odd primes up to bound at which the count identity is testable."""
    bad = _bad_product(C, C.e1, C.e2)
    return [p for p in primes_up_to(bound) if p != 2 and bad % p != 0]
