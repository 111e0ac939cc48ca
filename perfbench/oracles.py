"""Output checks that do not trust the program under test.

Point counts are redone by enumerating (x, y) pairs, and isomorphism
classes of genus-2 curves by Igusa-Clebsch invariants computed here from
the roots of the sextic; Legendre tables, discriminants, invariants and
lattices of the program are never called.  Each check returns a list of
problems (empty when the output is right).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction

from workloads import curve_order, orbit, prime_factors, smooth_quad

# brute-force recounts run at primes up to this bound
SMALL_P = 60
# prime bound up to which scans, reports and verdicts are checked by recounts
SCAN_P = 200

SUPERSINGULAR = ("GoodSupersingular", "PotGoodSupersingular")


def digest(code: int, records: list[dict]) -> str:
    """Hash of the exit code and the records with timing_ms removed."""
    h = hashlib.sha256(str(code).encode())
    for rec in records:
        payload = {k: v for k, v in rec.items() if k != "timing_ms"}
        h.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def check(job, code: int, records: list[dict]) -> list[str]:
    want = _main_exit_code(job.params) if job.oracle == "main" else 0
    if code != want:
        return [f"exit code {code}, expected {want}"]
    if not records and job.oracle != "search":  # _search knows when none is right
        return ["no records"]
    return _ORACLES[job.oracle](job.params, records)


# -- arithmetic references ----------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if _is_prime(p)]


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def sextic(a: int, b: int, c: int, d: int) -> list[int]:
    """Coefficients c0..c6 of ((a-b)x^2-(c-d))(ax^2-c)(bx^2-d)."""
    out = [1]
    for lead, const in ((a - b, -(c - d)), (a, -c), (b, -d)):
        out = _poly_mul(out, [const, 0, lead])
    return out


def curve_count(lam: int, coeffs: list[int], p: int) -> int:
    """#C(F_p) for lam*y^2 = S(x), S of degree 6, on the smooth model: affine
    pairs plus the points at infinity (solutions of lam*t^2 = c6)."""
    hits = [0] * p
    for y in range(p):
        hits[lam * y * y % p] += 1
    total = hits[coeffs[6] % p]
    for x in range(p):
        total += hits[sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p]
    return total


def _supersingular(a: int, b: int, p: int) -> bool:
    # a_p = p + 1 - #E = 0 mod p
    return (p + 1 - curve_order(a, b, p)) % p == 0


def _good_pair(a: int, b: int, p: int) -> bool:
    return (a * b * (a - b)) % p != 0


def _good_quad_prime(quad, p: int) -> bool:
    """Odd p at which C, E(a,b) and E(c,d) all have good reduction."""
    a, b, c, d = quad
    if p == 2 or (a * d - b * c) % p == 0 or not (_good_pair(a, b, p) and _good_pair(c, d, p)):
        return False
    if (a - b) % p == 0:
        return False
    inv = lambda x: pow(x % p, -1, p)  # noqa: E731
    roots = {(c - d) * inv(a - b) % p, c * inv(a) % p, d * inv(b) % p}
    return len(roots) == 3 and 0 not in roots


def _split_identity_problems(quad, lam, coeffs, rows_or_primes) -> list[str]:
    a, b, c, d = quad
    out = []
    for p in rows_or_primes:
        n = curve_count(lam, coeffs, p)
        a1 = p + 1 - curve_order(a, b, p)
        a2 = p + 1 - curve_order(c, d, p)
        if n != p + 1 - a1 - a2:
            out.append(f"{quad} at p={p}: #C={n} but p+1-a1-a2={p + 1 - a1 - a2}")
    return out


def _pot_supersingular(a: int, b: int, p: int) -> bool:
    """Potentially good supersingular reduction of E(a, b) at odd p.  Taking
    the common power p^k out of a and b is a twist over an extension, and
    afterwards p divides at most one of a, b, a - b (a node otherwise)."""
    k = min(_vp(a, p), _vp(b, p))
    a, b = a // p**k, b // p**k
    return _good_pair(a, b, p) and _supersingular(a, b, p)


# -- isomorphism classes of the curves lam*y^2 = S(x) ----------------------------------


def _pmul(f: dict, g: dict) -> dict:
    out: dict = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = tuple(x + y for x, y in zip(ef, eg))
            out[e] = out.get(e, 0) + cf * cg
    return {e: c for e, c in out.items() if c}


def _padd(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def _igusa_clebsch_polys() -> tuple:
    """I2, I4, I6, I10 of a sextic with roots +-s1, +-s2, +-s3, leading
    coefficient dropped, as polynomials in r_k = s_k^2: lists of
    (exponents of r1, r2, r3; coefficient).  Igusa's root formulas with
    (ij) = (alpha_i - alpha_j)^2: I2 sums (12)(34)(56) over the 15 pairings,
    I4 sums (12)(23)(31)(45)(56)(64) over the 10 splits into triples, I6 adds
    (14)(25)(36) over the 6 matchings of each split, I10 is the product of
    all 15."""
    roots = [(tuple(int(i == k) for i in range(3)), sign) for k in range(3) for sign in (1, -1)]

    def sq(i, j):
        lin = _padd({roots[i][0]: roots[i][1]}, {roots[j][0]: -roots[j][1]})
        return _pmul(lin, lin)

    def total(terms):
        out: dict = {}
        for pairs in terms:
            term = {(0, 0, 0): 1}
            for i, j in pairs:
                term = _pmul(term, sq(i, j))
            out = _padd(out, term)
        return out

    def pairings(items):
        if not items:
            yield []
            return
        for k in range(1, len(items)):
            for rest in pairings(items[1:k] + items[k + 1:]):
                yield [(items[0], items[k])] + rest

    def cycle(t):
        return [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])]

    splits = [(A, tuple(i for i in range(6) if i not in A))
              for A in itertools.combinations(range(6), 3) if 0 in A]
    polys = (
        total(pairings(list(range(6)))),
        total(cycle(A) + cycle(B) for A, B in splits),
        total(cycle(A) + cycle(B) + list(zip(A, perm))
              for A, B in splits for perm in itertools.permutations(B)),
        total([list(itertools.combinations(range(6), 2))]),
    )
    # the root set is stable under s_k -> -s_k, so only even powers remain
    assert all(x % 2 == 0 for p in polys for e in p for x in e)
    return tuple([(tuple(x // 2 for x in e), c) for e, c in p.items()] for p in polys)


def class_key(a: int, b: int, c: int, d: int) -> tuple[Fraction, Fraction, Fraction]:
    """(I2^5/I10, I4^5/I10^2, I6^5/I10^3) of the smooth curve C_{a,b,c,d}.

    S(x) = g(x^2) with g's roots r = (c-d)/(a-b), c/a, d/b.  Scaling all
    roots, the leading coefficient or lam moves (I2, I4, I6, I10) inside its
    weighted-projective class, so the roots are scaled to integers and the
    rest is dropped.  Over Q these ratios separate geometric classes."""
    r = (Fraction(c - d, a - b), Fraction(c, a), Fraction(d, b))
    den = math.prod(x.denominator for x in r)
    n = [int(x * den) for x in r]
    i2, i4, i6, i10 = (sum(k * n[0] ** e[0] * n[1] ** e[1] * n[2] ** e[2] for e, k in p)
                       for p in _igusa_clebsch_polys())
    return Fraction(i2**5, i10), Fraction(i4**5, i10**2), Fraction(i6**5, i10**3)


def _passes(quad, predicates: list[str]) -> bool:
    """Whether a grid quadruple passes `scholten search`'s filters: a smooth
    curve, and for split-jacobian:B at least 5 usable primes up to B (the
    count identity itself is a theorem); for max-one-supersingular:P at most
    one potentially supersingular factor at P."""
    if not smooth_quad(*quad):
        return False
    a, b, c, d = quad
    for name in predicates:
        kind, _, arg = name.partition(":")
        if kind == "split-jacobian":
            if sum(_good_quad_prime(quad, p) for p in primes_up_to(int(arg))) < 5:
                return False
        elif kind == "max-one-supersingular":
            if _pot_supersingular(a, b, int(arg)) and _pot_supersingular(c, d, int(arg)):
                return False
        else:
            raise ValueError(f"no oracle for predicate {name}")
    return True


# -- per-command checks ---------------------------------------------------------------


def _search(params, records):
    """One record per isomorphism class of passing grid quadruples."""
    names = params["predicates"]
    passing = {q: class_key(*q) for q in params["grid"] if _passes(q, names)}
    out, emitted = [], {}
    for rec in records:
        o = rec["outputs"]
        quad = tuple(o["params"])
        if quad not in passing:
            out.append(f"record {quad} is not a passing grid quadruple")
            continue
        key = passing[quad]
        if key in emitted:
            out.append(f"records {emitted[key]} and {quad} are one isomorphism class")
            continue
        emitted[key] = quad
        a, b, c, d = quad
        if o["lam"] != a * d - b * c or o["sextic"] != sextic(*quad):
            out.append(f"{quad}: wrong lam or sextic")
        if o["predicates"] != names:
            out.append(f"{quad}: predicates {o['predicates']}")
        small = [p for p in primes_up_to(30) if _good_quad_prime(quad, p)]
        out += _split_identity_problems(quad, o["lam"], o["sextic"], small)
    missing = len(set(passing.values()) - set(emitted))
    if missing:
        out.append(f"{missing} of {len(set(passing.values()))} passing classes have no record")
    return out


def _family(params, records):
    a, b, c, d = params["quad"]
    o = records[0]["outputs"]
    members = [tuple(m) for m in o["members"]]
    degenerate = [tuple(m) for m in o["degenerate"]]
    out = []
    want = {(x, y, c, d) for x, y in orbit(a, b)}
    if set(members) | set(degenerate) != want or len(members) + len(degenerate) != len(want):
        out.append(f"family {params['quad']}: members do not match the orbit")
    if any(not smooth_quad(*m) for m in members) or any(smooth_quad(*m) for m in degenerate):
        out.append(f"family {params['quad']}: smooth/degenerate split is wrong")
    by_key: dict = {}
    for i, m in enumerate(members):
        by_key.setdefault(class_key(*m), []).append(i)
    if (sorted(map(sorted, o["classes"])) != sorted(by_key.values())
            or o["class_count"] != len(o["classes"])):
        out.append(f"family {params['quad']}: classes are not the isomorphism classes")
    return out


def _verify(params, records):
    quad, bound = tuple(params["quad"]), params["bound"]
    o = records[0]["outputs"]
    out = []
    if o["verdict"] != "pass":
        out.append(f"verify {quad}: verdict {o['verdict']}")
    rows = o["rows"]
    covered = sorted([r["p"] for r in rows] + [s["p"] for s in o["skipped"]])
    if covered != primes_up_to(bound):
        out.append(f"verify {quad}: rows and skipped primes do not cover p <= {bound}")
    for r in rows:
        p = r["p"]
        if not r["ok"] or r["count"] != p + 1 - r["ap1"] - r["ap2"]:
            out.append(f"verify {quad}: row p={p} is not an identity")
        if p <= SMALL_P:
            a, b, c, d = quad
            if (r["count"], r["ap1"], r["ap2"]) != (
                curve_count(a * d - b * c, sextic(*quad), p),
                p + 1 - curve_order(a, b, p),
                p + 1 - curve_order(c, d, p),
            ):
                out.append(f"verify {quad}: row p={p} disagrees with enumeration")
    return out


def _scan(params, records):
    a, b, bound = params["a"], params["b"], params["bound"]
    found = set(records[0]["outputs"]["primes"])
    out = []
    for p in primes_up_to(min(bound, SCAN_P)):
        if p > 2 and _good_pair(a, b, p) and (p in found) != _supersingular(a, b, p):
            out.append(f"scan E({a},{b}): p={p} classified wrongly")
    if any(not _is_prime(p) or p > bound for p in found):
        out.append(f"scan E({a},{b}): listed a non-prime or p > bound")
    return out


def _conductor_problems(a: int, b: int, N: int) -> list[str]:
    """Odd primes: exponent 1 where p divides exactly one of a, b, a-b (a
    node), 0 where p divides none; every factor of N divides 2ab(a-b)."""
    out = []
    if not prime_factors(N) <= prime_factors(2 * a * b * (a - b)):
        out.append(f"E({a},{b}): conductor {N} has a prime of good reduction")
    for p in prime_factors(a * b * (a - b)) - {2}:
        if sum(x % p == 0 for x in (a, b, a - b)) == 1 and _vp(N, p) != 1:
            out.append(f"E({a},{b}): v_{p}(N) = {_vp(N, p)} at a node")
    return out


def _analyze(params, records):
    a, b = params["a"], params["b"]
    out = _conductor_problems(a, b, records[0]["outputs"]["conductor"])
    for rec in records[1:]:
        p, o = rec["inputs"]["p"], rec["outputs"]
        if p == 2:
            continue
        if _good_pair(a, b, p):
            if o["kodaira"] != "I0" or o["conductor_exponent"] != 0:
                out.append(f"E({a},{b}) p={p}: good prime reported as {o['kodaira']}")
            elif p <= SCAN_P and (o["actual_type"] == "GoodSupersingular") != _supersingular(a, b, p):
                out.append(f"E({a},{b}) p={p}: wrong supersingular flag")
        elif sum(x % p == 0 for x in (a, b, a - b)) == 1 and o["conductor_exponent"] != 1:
            out.append(f"E({a},{b}) p={p}: node reported with exponent {o['conductor_exponent']}")
    return out


def _global2(params, records):
    a, b = params["a"], params["b"]
    o = records[0]["outputs"]
    out = _conductor_problems(a, b, o["conductor"])
    modulus = 6 * o["conductor"] * params["deg"]
    if o["primes"] != [p for p in primes_up_to(params["bound"]) if modulus % p]:
        out.append(f"global2 E({a},{b}): prime list is wrong")
    return out


def _main_exit_code(params) -> int:
    """Hypotheses fail (exit 1) when more than one factor (main1) or product
    (main2) is supersingular at p; every job's curves have good reduction at
    its p > 10^4."""
    p = params["p"]
    groups = params.get("products") or [[ab] for ab in params["curves"]]
    return int(sum(any(_supersingular(a, b, p) for a, b in g) for g in groups) > 1)


def _main(params, records):
    p = params["p"]
    o = records[0]["outputs"]
    kinds = o["classifications"]
    flat = [k for ks in kinds for k in (ks if isinstance(ks, list) else [ks])]
    out = []
    if len(flat) != len(params["curves"]):
        return [f"{o['theorem']}: {len(flat)} classifications for {len(params['curves'])} curves"]
    for (a, b), kind in zip(params["curves"], flat):
        if _good_pair(a, b, p) and (kind in SUPERSINGULAR) != _supersingular(a, b, p):
            out.append(f"{o['theorem']} E({a},{b}) at p={p}: classified {kind}")
    if (o["verdict"] == "HypothesesMet") != (_main_exit_code(params) == 0):
        out.append(f"{o['theorem']}: verdict {o['verdict']}")
    return out


def _skew(params, records):
    a, b, q = params["a"], params["b"], params["q"]
    n = curve_order(a, b, q)
    out = []
    for rec in records:
        o = rec["outputs"]
        where = f"skew E({a},{b}) q={q} {rec['inputs']['convention']}"
        if o["n_points"] != n:
            out.append(f"{where}: n_points {o['n_points']} != {n}")
        if not o["all_proved"] or o["pairs_proved"] != n * n or o["pairs_failed"]:
            out.append(f"{where}: not every pair proved")
        if o["two_torsion_proved"] != n:
            out.append(f"{where}: 2-torsion targets not all proved")
        ctrl = o["negative_control"]
        if not ctrl["certified"] or len(ctrl["pair"]) != 2:
            out.append(f"{where}: no certified negative control")
    return out


def _filtration(params, records):
    o = records[0]["outputs"]
    if "invariants" in params:
        inv = params["invariants"]
        if o["group_invariants"] != inv:
            return [f"filtration {inv}: group invariants {o['group_invariants']}"]
    else:
        inv = o["group_invariants"]
        order = curve_order(params["a"], params["b"], params["elliptic_p"])
        n1 = inv[0] if len(inv) == 2 else 1
        # full rational 2-torsion: Z/n1 x Z/n2 with 2 | n1 | n2
        if math.prod(inv) != order or len(inv) != 2 or n1 % 2 or inv[1] % n1:
            return [f"filtration E(F_{params['elliptic_p']}): invariants {inv}, #E={order}"]
    out = []
    quotients = o["quotients"]
    if [q["r"] for q in quotients] != list(range(1, params["rmax"] + 1)):
        out.append(f"filtration {inv}: quotient degrees {[q['r'] for q in quotients]}")
    elif quotients[0]["invariant_factors"] != [n for n in inv if n > 1]:
        out.append(f"filtration {inv}: I/I^2 = {quotients[0]['invariant_factors']}, not G")
    if len(inv) == 1 and _is_prime(inv[0]):
        if any(q["invariant_factors"] != inv for q in quotients):
            out.append(f"filtration Z/{inv[0]}: a quotient is not Z/{inv[0]}")
    if not o["exactness_ok"]:
        out.append(f"filtration {inv}: exactness_ok is false")
    return out


_ORACLES = {
    "search": _search,
    "family": _family,
    "verify": _verify,
    "scan": _scan,
    "analyze": _analyze,
    "global2": _global2,
    "main": _main,
    "skew": _skew,
    "filtration": _filtration,
}
