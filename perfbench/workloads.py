"""Seeded job lists for the four benchmark workloads.

A job is one CLI command.  Each workload is a fixed mix of size classes (a
scaling sweep); the seed picks the concrete inputs inside each class, so two
seeds give different inputs of about the same cost.  The program under test
only ever sees the generated argv (and, for offset search grids, a CSV file).
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("search", "certify", "skew", "filtration")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    size: str  # scaling-sweep class, e.g. "verify:p<=3000"
    oracle: str  # name of the output check in oracles.py
    params: dict = field(default_factory=dict, compare=False)


# Inputs that today's size guards admit but that do not finish within the
# per-job cap.  They run as separate processes after the measured passes and
# count towards failed_frac, so the size-guard defect shows in the baseline.
GUARD_PROBES = {
    "skew": [
        Job(("kgroup", "prove-skew", "--q", "19"), "probe:#E=20", "skew",
            {"a": 1, "b": -1, "q": 19}),
        # #E = 16 like the workload's largest class, but > 8 s (seen while
        # choosing the skew menu below)
        Job(("kgroup", "prove-skew", "--q", "13", "--a", "-7", "--b", "-3"), "probe:#E=16",
            "skew", {"a": -7, "b": -3, "q": 13}),
    ],
    "filtration": [
        Job(("filtration", "--group", "2,2,16", "--rmax", "2"), "probe:|G|=64", "filtration",
            {"invariants": [2, 2, 16], "rmax": 2}),
        Job(("filtration", "--elliptic-p", "101", "--rmax", "2"), "probe:E(F_101)",
            "filtration", {"elliptic_p": 101, "a": 1, "b": -1, "rmax": 2}),
    ],
}


def make_jobs(workload: str, seed: int, workdir: str, serial: bool) -> list[Job]:
    """The workload's job list for this seed, in the order it runs.

    serial=True prefixes searches with --jobs 1 (the traced run needs every
    span in one process).  CSV grids are written into workdir.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = _JOB_LISTS[workload](rng, workdir, serial)
    rng.shuffle(jobs)
    return jobs


# -- search ----------------------------------------------------------------------


def _search_jobs(rng: random.Random, workdir: str, serial: bool) -> list[Job]:
    prefix = ("--jobs", "1") if serial else ()
    jobs = []

    def predicates(ss=None):
        names = ([f"max-one-supersingular:{ss}"] if ss else []) + ["split-jacobian:40"]
        return names, tuple(x for name in names for x in ("--predicate", name))

    # centred boxes: quadruples share two-torsion orbits and the pair swap
    for box in (1, 2):
        names, pargv = predicates(rng.choice((5, 7, 11, 13)))
        jobs.append(Job(
            prefix + ("scholten", "search", "--box", str(box)) + pargv,
            f"search:box={box}", "search",
            {"grid": _box(range(-box, box + 1)), "predicates": names},
        ))
    # offset boxes: a side-s cube away from the origin whose quadruples are all
    # smooth, so they share little work and cost about the same.  A side-1
    # grid costs about as much as a family job (each builds the Igusa tables),
    # and the two classes hold both the median and the tail job.
    for k, side in enumerate([2] * 4 + [1] * 8):
        while True:
            corner = [rng.randint(3, 40) * rng.choice((1, -1)) for _ in range(4)]
            grid = _box(*(range(c, c + side) for c in corner))
            if all(smooth_quad(*q) for q in grid):
                break
        path = os.path.join(workdir, f"grid{k}.csv")
        with open(path, "w") as fh:
            fh.write("a,b,c,d\n")
            fh.writelines(",".join(map(str, q)) + "\n" for q in grid)
        names, pargv = predicates()
        jobs.append(Job(
            prefix + ("scholten", "search", "--csv", path) + pargv,
            f"search:offset-side={side}", "search", {"grid": grid, "predicates": names},
        ))
    # families whose orbit members are all smooth, so each computes a class
    # key for every member
    for _ in range(12):
        quad = _nondegenerate_pairs(rng, 30)
        while not all(smooth_quad(x, y, *quad[2:]) for x, y in orbit(*quad[:2])):
            quad = _nondegenerate_pairs(rng, 30)
        jobs.append(Job(
            ("scholten", "family", "--params=" + ",".join(map(str, quad))),
            "family", "family", {"quad": quad},
        ))
    return jobs


def _box(*ranges):
    if len(ranges) == 1:
        ranges = ranges * 4
    return [tuple(q) for q in itertools.product(*ranges)]


def orbit(a: int, b: int) -> set[tuple[int, int]]:
    """The two-torsion orbit of (a, b): (s - r, t - r) over orderings of the
    roots (r, s, t) of x(x - a)(x - b)."""
    return {(s - r, t - r) for r, s, t in itertools.permutations((0, a, b))}


def _pair(rng: random.Random, bound: int) -> tuple[int, int]:
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        if a and b and a != b:
            return a, b


def _nondegenerate_pairs(rng: random.Random, bound: int) -> tuple[int, int, int, int]:
    return _pair(rng, bound) + _pair(rng, bound)


def smooth_quad(a: int, b: int, c: int, d: int) -> bool:
    """Whether ((a-b)u-(c-d))(au-c)(bu-d), u = x^2, gives a smooth sextic:
    both pairs nondegenerate, lam = ad - bc nonzero, and three distinct
    nonzero roots u."""
    if not (a and b and a != b and c and d and c != d) or a * d == b * c:
        return False
    roots = {Fraction(c - d, a - b), Fraction(c, a), Fraction(d, b)}
    return len(roots) == 3 and 0 not in roots


def _draw_smooth_quad(rng: random.Random, bound: int) -> tuple[int, int, int, int]:
    while True:
        quad = _nondegenerate_pairs(rng, bound)
        if smooth_quad(*quad):
            return quad


# -- certify -----------------------------------------------------------------------

# (prime bound, jobs per pass): cost grows roughly as bound^2
_VERIFY_BOUNDS = ((500, 3), (800, 9), (1500, 1), (3000, 1))

# Conductors factor the discriminant 16 a^2 b^2 (a-b)^2 by trial division, so
# their cost follows the largest prime factor of ab(a-b).  Curves are drawn
# with |a|, |b| <= 10^6 and that factor inside this band, which fixes the
# cost of a conductor while the seed still picks the curve.
_FACTOR_BAND = (100_000, 150_000)


def _certify_jobs(rng: random.Random, workdir: str, serial: bool) -> list[Job]:
    jobs = []
    for bound, count in _VERIFY_BOUNDS:
        for _ in range(count):
            quad = _draw_smooth_quad(rng, 40)
            jobs.append(Job(
                ("scholten", "verify", "--params=" + ",".join(map(str, quad)),
                 "--primes", str(bound)),
                f"verify:p<={bound}", "verify", {"quad": quad, "bound": bound},
            ))
    for _ in range(4):
        a, b = _banded_pair(rng)
        jobs.append(Job(
            ("scan", "supersingular", "--a", str(a), "--b", str(b), "--bound", "1000"),
            "scan:p<=1000", "scan", {"a": a, "b": b, "bound": 1000},
        ))
    for _ in range(8):
        a, b = _banded_pair(rng)
        jobs.append(Job(
            ("analyze-curve", "--a", str(a), "--b", str(b), "--primes", "3..60"),
            "analyze:p<=60", "analyze", {"a": a, "b": b},
        ))
    for _ in range(6):
        a, b = _banded_pair(rng)
        deg = rng.randint(1, 12)
        jobs.append(Job(
            ("check", "global2", "--a", str(a), "--b", str(b), "--deg-phi", str(deg),
             "--bound", "1000"),
            "global2:p<=1000", "global2", {"a": a, "b": b, "deg": deg, "bound": 1000},
        ))
    # the 11 dearest jobs are verify jobs and the median job is an
    # analyze-curve job
    for _ in range(6):
        p = rng.choice(_LARGE_PRIMES)
        curves = [_pair(rng, 50) for _ in range(rng.randint(2, 3))]
        jobs.append(Job(
            ("check", "main1", "--curves=" + ";".join(f"{a},{b}" for a, b in curves),
             "--p", str(p)),
            "main1:p~1e4", "main", {"curves": curves, "p": p},
        ))
    for _ in range(4):
        p = rng.choice(_LARGE_PRIMES)
        products = [([_pair(rng, 50), _pair(rng, 50)], rng.choice((1, 2, 3, 4)))
                    for _ in range(2)]
        argv = ["check", "main2"]
        for factors, deg in products:
            argv += ["--product=" + "|".join(f"{a},{b}" for a, b in factors) + f"@{deg}"]
        argv += ["--p", str(p), "--unramified"]
        jobs.append(Job(
            tuple(argv), "main2:p~1e4", "main",
            {"curves": [ab for fs, _ in products for ab in fs], "p": p,
             "products": [fs for fs, _ in products]},
        ))
    return jobs


def _banded_pair(rng: random.Random) -> tuple[int, int]:
    lo, hi = _FACTOR_BAND
    while True:
        a, b = _pair(rng, 10**6)
        if lo <= max(max(prime_factors(x), default=1) for x in (a, b, a - b)) <= hi:
            return a, b


def prime_factors(n: int) -> set[int]:
    """The primes dividing n, by trial division."""
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


_LARGE_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093)


# -- skew --------------------------------------------------------------------------

# #E(F_q) = 4 and 8 cost a few to a few tens of ms for every curve, so the seed
# draws them from all small (a, b, q).  The cost of #E = 12 and 16 varies by
# up to 2x between curves of one class (growth of lattice entries depends on
# the point order), so those come from a menu of curves that cost within
# about 10% of each other under both conventions; the seed picks from the
# menu with balanced draws.  Triples are (a, b, q).
_SKEW_MENU = {
    12: ((4, 6, 7), (6, -10, 7), (6, -3, 7), (-5, -4, 7), (-5, 3, 7), (-4, -5, 7)),
    16: ((-12, -9, 11), (-12, 2, 11), (-9, -12, 11)),
}


def _skew_jobs(rng: random.Random, workdir: str, serial: bool) -> list[Job]:
    jobs = []

    def add(a, b, q, n, r=2, convention="minus"):
        argv = ["kgroup", "prove-skew", "--q", str(q), "--a", str(a), "--b", str(b),
                "--convention", convention]
        if r != 2:
            argv += ["--r", str(r)]
        jobs.append(Job(tuple(argv), f"skew:#E={n}" + (f",r={r}" if r != 2 else ""),
                        "skew", {"a": a, "b": b, "q": q, "r": r}))

    # the 11 dearest jobs are #E = 16 and 12, and the median job has #E = 8
    for _ in range(11):
        add(*_curve_with_order(rng, 4), 4, convention="both")
    for _ in range(10):
        add(*_curve_with_order(rng, 8), 8, convention=rng.choice(("minus", "plus")))
    for n, count in ((12, 10), (16, 1)):
        menu = [(*abq, conv) for abq in _SKEW_MENU[n] for conv in ("minus", "plus")]
        for a, b, q, conv in balanced(rng, menu, count):
            add(a, b, q, n, convention=conv)
    for _ in range(4):
        add(*_curve_with_order(rng, 8), 8, r=3, convention=rng.choice(("minus", "plus")))
    return jobs


def _curve_with_order(rng: random.Random, n: int) -> tuple[int, int, int]:
    while True:
        q = rng.choice((5, 7, 11, 13))
        a, b = _pair(rng, 12)
        if (a * b * (a - b)) % q and curve_order(a, b, q) == n:
            return a, b, q


def curve_order(a: int, b: int, p: int) -> int:
    """#E(F_p) for y^2 = x(x-a)(x-b), by enumeration of (x, y)."""
    squares = [0] * p
    for y in range(p):
        squares[y * y % p] += 1
    return 1 + sum(squares[x * (x - a) * (x - b) % p] for x in range(p))


# -- filtration ----------------------------------------------------------------------

# Per |G| class: (label, jobs per pass, menu of (invariant factors, rmax)).
# Every class appears in every seed and the seed picks from its menu with
# balanced draws; the menu entries of one class cost about the same (within
# about 20%; of the other groups of order 256 and rank at most 2, Z/4 x Z/64
# and Z/2 x Z/128 cost 10-35% more than the two in the menu and Z/256 about
# 15% less), so the seed changes the inputs but not the cost of a pass.
# The 11 dearest jobs have |G| = 256 and 128, and the median job |G| = 64.
_FILTRATION_CLASSES = (
    ("|G|=16", 4, (([16], 3), ([2, 8], 3), ([4, 4], 3), ([2, 2, 4], 3))),
    ("|G|=32", 3, (([32], 2), ([2, 16], 2), ([4, 8], 2))),
    ("|G|=64", 12, (([8, 8], 2), ([2, 32], 2))),
    ("|G|=128", 10, (([2, 64], 1), ([4, 32], 1), ([8, 16], 1), ([128], 2))),
    ("|G|=256", 1, (([8, 32], 1), ([16, 16], 1))),
    # prime order: every quotient must be Z/p
    ("|G|=p", 2, (([17], 3), ([31], 2), ([61], 1))),
)


def _filtration_jobs(rng: random.Random, workdir: str, serial: bool) -> list[Job]:
    jobs = []
    for label, count, menu in _FILTRATION_CLASSES:
        for inv, rmax in balanced(rng, menu, count):
            jobs.append(Job(
                ("filtration", "--group", ",".join(map(str, inv)), "--rmax", str(rmax)),
                label, "filtration", {"invariants": inv, "rmax": rmax},
            ))
    for _ in range(2):
        p = rng.choice((7, 11, 13, 17, 19, 23))
        a, b = _pair(rng, 12)
        while (a * b * (a - b)) % p == 0:
            a, b = _pair(rng, 12)
        jobs.append(Job(
            ("filtration", "--elliptic-p", str(p), "--a", str(a), "--b", str(b), "--rmax", "1"),
            "elliptic:p<=23", "filtration", {"elliptic_p": p, "a": a, "b": b, "rmax": 1},
        ))
    return jobs


def balanced(rng: random.Random, menu, count: int) -> list:
    """count picks from menu, each entry picked as often as any other (give
    or take one), so that which entries a seed draws hardly moves the mix."""
    picks: list = []
    while len(picks) < count:
        picks += rng.sample(list(menu), len(menu))
    return picks[:count]


_JOB_LISTS = {
    "search": _search_jobs,
    "certify": _certify_jobs,
    "skew": _skew_jobs,
    "filtration": _filtration_jobs,
}
