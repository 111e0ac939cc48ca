"""Command-line front end: batch analysis, searches, and JSON-lines output.

Exit codes: 0 success, 1 analysis-level failure (failed certificate, unmet
hypotheses, non-derivable target), 2 usage error, 3 I/O error.  Records are
one JSON object per line with a fixed field order; replays are byte-identical
up to the timing field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import __version__
from .elliptic import curve_from_pair, rational_points_mod_p
from .errors import (
    BudgetExceededError,
    CertificateError,
    DegenerateCurveError,
    InsufficientPrimesError,
)
from .exactnum import is_prime, primes_up_to
from .reduction import classify_reduction, conductor

if TYPE_CHECKING:
    from .scholten import Predicate

# Each handler imports the command module it runs, so a process loads only
# that one.  The three modules above that hold functools caches (elliptic,
# exactnum, reduction) must stay imported here: before each in-process job,
# perfbench/run.py clears the caches of the modules that importing this one
# loaded, and a cache module imported later would stay warm from job to job.


class UsageError(Exception):
    pass


@dataclass
class _Sink:
    """Records go to stdout or to the --output file.  The file is opened at
    the first record or when the command returns, so a run that stops
    before any record leaves an existing file as it was."""

    path: Optional[str]
    fh: object = None
    count: int = 0

    def stream(self):
        if self.fh is None:
            self.fh = open(self.path, "w") if self.path is not None else sys.stdout
        return self.fh

    def emit(self, kind: str, inputs: dict, outputs: dict, t0: float) -> None:
        record = {
            "kind": kind,
            "inputs": inputs,
            "outputs": outputs,
            "tool_version": __version__,
            "timing_ms": int((time.perf_counter() - t0) * 1000),
        }
        self.stream().write(json.dumps(record, separators=(",", ":")) + "\n")
        self.count += 1


# -- argument helpers -----------------------------------------------------------


def _int_list(spec: str, option: str, count: Optional[int] = None) -> list[int]:
    """The integers of a comma-separated list (blank entries skipped); a
    malformed entry or a wrong count is a usage error."""
    values = []
    for tok in spec.split(","):
        if not tok.strip():
            continue
        try:
            values.append(int(tok))
        except ValueError:
            raise UsageError(f"malformed {option} entry {tok!r}") from None
    if count is not None and len(values) != count:
        raise UsageError(f"{option} expects {count} integers, got {spec!r}")
    return values


def _parse_primes(spec: str) -> list[int]:
    spec = spec.strip()
    if ".." in spec:
        lo, hi = _int_list(spec.replace("..", ",", 1), "--primes", 2)
        if lo > hi:
            raise UsageError(f"--primes range {lo}..{hi} is empty")
        primes = [p for p in primes_up_to(hi) if p >= lo]
    elif "," in spec:
        primes = _int_list(spec, "--primes")
        bad = [p for p in primes if not is_prime(p)]
        if bad:
            raise UsageError(f"--primes lists non-primes {bad}")
    else:
        primes = primes_up_to(_int_list(spec, "--primes", 1)[0])
    if not primes:
        raise UsageError(f"--primes {spec} names no prime")
    return primes


def _int_where(test: Callable[[int], bool], wanted: str) -> Callable[[str], int]:
    """An argparse type for integers that pass test."""

    def parse(text: str) -> int:
        value = int(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def _int_at_least(lo: int) -> Callable[[str], int]:
    return _int_where(lambda value: value >= lo, f"an integer >= {lo}")


_prime = _int_where(is_prime, "a prime")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="isogeny-forge",
        description="reduction profiles, split-Jacobian certificates, symbol "
        "relation proofs, and filtration reports, as JSON lines",
    )
    top.add_argument("--output", help="output path (default stdout)")
    top.add_argument("--jobs", type=_int_at_least(1), default=os.cpu_count() or 1,
                     help="worker processes for searches")
    sub = top.add_subparsers(dest="command", required=True)

    ac = sub.add_parser("analyze-curve", help="per-prime reduction reports")
    ac.add_argument("--a", type=int, required=True)
    ac.add_argument("--b", type=int, required=True)
    ac.add_argument("--primes", required=True, help="N, lo..hi, or p1,p2,...")
    ac.set_defaults(run=_cmd_analyze_curve)

    sch = sub.add_parser("scholten", help="genus-2 split-Jacobian toolkit")
    schsub = sch.add_subparsers(dest="subcommand", required=True)
    b = schsub.add_parser("build")
    b.add_argument("--params", required=True, help="a,b,c,d")
    b.set_defaults(run=_cmd_scholten_build)
    f = schsub.add_parser("family")
    f.add_argument("--params", required=True, help="a,b,c,d")
    f.set_defaults(run=_cmd_scholten_family)
    v = schsub.add_parser("verify")
    v.add_argument("--params", required=True, help="a,b,c,d")
    v.add_argument("--primes", required=True, help="N, lo..hi, or p1,p2,...")
    v.add_argument("--e1", help="override first factor as a,b (negative control)")
    v.add_argument("--e2", help="override second factor as c,d")
    v.set_defaults(run=_cmd_scholten_verify)
    s = schsub.add_parser("search")
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", help="CSV grid with header a,b,c,d")
    src.add_argument("--box", type=_int_at_least(0), help="all |a|,|b|,|c|,|d| <= N")
    s.add_argument("--predicate", action="append", default=[],
                   help="split-jacobian[:BOUND] or max-one-supersingular:P")
    s.add_argument("--no-dedupe", action="store_true")
    s.add_argument("--limit", type=_int_at_least(0), default=0,
                   help="stop after N records (0: no limit)")
    s.set_defaults(run=_cmd_scholten_search)

    chk = sub.add_parser("check", help="hypothesis checkers")
    chksub = chk.add_subparsers(dest="subcommand", required=True)
    m1 = chksub.add_parser("main1")
    m1.add_argument("--curves", required=True, help="a,b;c,d;...")
    m1.add_argument("--p", type=_prime, required=True)
    m1.set_defaults(run=_cmd_check_main1)
    m2 = chksub.add_parser("main2")
    m2.add_argument("--product", action="append", required=True,
                    help="a,b|c,d@DEG (repeatable)")
    m2.add_argument("--p", type=_prime, required=True)
    m2.add_argument("--unramified", action="store_true")
    m2.add_argument("--all-good", action="store_true")
    m2.set_defaults(run=_cmd_check_main2)
    g2 = chksub.add_parser("global2")
    g2.add_argument("--a", type=int, required=True)
    g2.add_argument("--b", type=int, required=True)
    g2.add_argument("--deg-phi", type=_int_at_least(1), required=True)
    g2.add_argument("--bound", type=_int_at_least(0), required=True)
    g2.set_defaults(run=_cmd_check_global2)

    scan = sub.add_parser("scan", help="prime scans")
    scansub = scan.add_subparsers(dest="subcommand", required=True)
    ss = scansub.add_parser("supersingular")
    ss.add_argument("--a", type=int, required=True)
    ss.add_argument("--b", type=int, required=True)
    ss.add_argument("--bound", type=_int_at_least(0), required=True)
    ss.set_defaults(run=_cmd_scan_supersingular)

    kg = sub.add_parser("kgroup", help="symbol relation proofs")
    kgsub = kg.add_subparsers(dest="subcommand", required=True)
    ps = kgsub.add_parser("prove-skew")
    ps.add_argument("--q", type=_prime, required=True)
    ps.add_argument("--a", type=int, default=1)
    ps.add_argument("--b", type=int, default=-1)
    ps.add_argument("--r", type=_int_at_least(2), default=2)
    ps.add_argument("--convention", choices=["minus", "plus", "both"], default="minus")
    ps.add_argument("--per-target", action="store_true")
    ps.set_defaults(run=_cmd_kgroup_prove_skew)

    fl = sub.add_parser("filtration", help="augmentation filtration quotients")
    grp = fl.add_mutually_exclusive_group(required=True)
    grp.add_argument("--group", help="invariant factors, e.g. 2,4")
    grp.add_argument("--elliptic-p", type=_prime, help="use E(F_p)")
    fl.add_argument("--a", type=int, default=1)
    fl.add_argument("--b", type=int, default=-1)
    fl.add_argument("--rmax", type=_int_at_least(1), default=3)
    fl.set_defaults(run=_cmd_filtration)
    return top


# -- command implementations -------------------------------------------------------


def _cmd_analyze_curve(ns: argparse.Namespace, sink: _Sink) -> int:
    primes = _parse_primes(ns.primes)
    E = curve_from_pair(ns.a, ns.b)
    t0 = time.perf_counter()
    N = conductor(E)
    sink.emit(
        "conductor",
        {"a": E.a, "b": E.b},
        {"conductor": N},
        t0,
    )
    for p in primes:
        t0 = time.perf_counter()
        rep = classify_reduction(E, p)
        sink.emit(
            "reduction-report",
            {"a": E.a, "b": E.b, "p": p},
            {
                "kodaira": rep.kodaira_type,
                "v_delta_min": rep.v_delta_min,
                "conductor_exponent": rep.conductor_exponent,
                "actual_type": rep.actual_type,
                "potential_type": rep.potential_type,
            },
            t0,
        )
    return 0


def _cmd_scholten_build(ns: argparse.Namespace, sink: _Sink) -> int:
    from .scholten import build_scholten, torsion_orbit_report

    quad = _int_list(ns.params, "--params", 4)
    t0 = time.perf_counter()
    C = build_scholten(*quad)
    out = {"status": C.status}
    if C.is_smooth:
        out.update(lam=C.lam, sextic=list(C.curve.coeffs))
        orbit = torsion_orbit_report(C.params[0], C.params[1])
        out["orbit"] = [list(p) for p in orbit.pairs]
        out["orbit_pattern_mismatches"] = [list(p) for p in orbit.mismatched_patterns]
    sink.emit("scholten-build", {"params": list(quad)}, out, t0)
    return 0 if C.is_smooth else 1


def _cmd_scholten_family(ns: argparse.Namespace, sink: _Sink) -> int:
    from .scholten import scholten_family

    quad = _int_list(ns.params, "--params", 4)
    t0 = time.perf_counter()
    rep = scholten_family(*quad)
    sink.emit(
        "scholten-family",
        {"params": list(quad)},
        {
            "members": [list(m.params) for m in rep.members],
            "degenerate": [list(m.params) for m in rep.degenerate],
            "classes": [list(c) for c in rep.classes],
            "class_count": rep.class_count,
            "note": "geometric classes; twists are not separated",
        },
        t0,
    )
    return 0


def _cmd_scholten_verify(ns: argparse.Namespace, sink: _Sink) -> int:
    from .scholten import build_scholten, verify_split_jacobian

    quad = _int_list(ns.params, "--params", 4)
    primes = _parse_primes(ns.primes)
    e1, e2 = (_int_list(spec, f"--{k}", 2) if spec is not None else None
              for k, spec in (("e1", ns.e1), ("e2", ns.e2)))
    t0 = time.perf_counter()
    C = build_scholten(*quad)
    if not C.is_smooth:
        sink.emit("split-jacobian", {"params": list(quad)}, {"status": C.status}, t0)
        return 1
    e1, e2 = (curve_from_pair(*pair) if pair is not None else None for pair in (e1, e2))
    cert = verify_split_jacobian(C, primes, e1=e1, e2=e2)
    inputs = {"params": list(quad), "primes": ns.primes}
    if ns.e1 is not None:
        inputs["e1"] = ns.e1
    if ns.e2 is not None:
        inputs["e2"] = ns.e2
    sink.emit("split-jacobian", inputs, cert.to_record(), t0)
    return 0 if cert.verdict else 1


def _search_predicates(specs: Sequence[str]) -> list[Predicate]:
    from .scholten import at_most_one_supersingular, split_jacobian_ok

    preds = []
    for spec in specs:
        name, colon, arg = spec.partition(":")
        if name == "split-jacobian":
            bound = _int_list(arg, f"--predicate {name}", 1)[0] if colon else 50
            if bound < 0:
                raise UsageError(f"--predicate {name}: expected an integer >= 0, got {bound}")
            test = partial(split_jacobian_ok, bound=bound)
        elif name == "max-one-supersingular":
            if not arg:
                raise UsageError("max-one-supersingular needs :P")
            p = _int_list(arg, f"--predicate {name}", 1)[0]
            if p == 2 or not is_prime(p):
                raise UsageError(f"--predicate {name}: expected an odd prime, got {p}")
            test = partial(at_most_one_supersingular, p=p)
        else:
            raise UsageError(f"unknown predicate {name!r}")
        preds.append((spec, test))
    return preds


def _cmd_scholten_search(ns: argparse.Namespace, sink: _Sink) -> int:
    from .scholten import box_grid, parameter_search, quadruples_from_csv

    if ns.csv is not None:
        try:
            grid = quadruples_from_csv(ns.csv)
        except ValueError as e:
            raise UsageError(str(e)) from None
    else:
        grid = box_grid(ns.box)
    preds = _search_predicates(ns.predicate)
    limit = ns.limit
    t0 = time.perf_counter()
    for rec in parameter_search(grid, preds, not ns.no_dedupe, ns.jobs):
        sink.emit("scholten-search", {"params": list(rec.curve.params)}, rec.to_record(), t0)
        t0 = time.perf_counter()
        if limit and sink.count >= limit:
            break
    return 0


def _cmd_check_main1(ns: argparse.Namespace, sink: _Sink) -> int:
    from .checkers import main1_check

    curves = [curve_from_pair(*_int_list(tok, "--curves", 2))
              for tok in ns.curves.split(";") if tok]
    if not curves:
        raise UsageError("--curves names no curve")
    t0 = time.perf_counter()
    verdict = main1_check(curves, ns.p)
    sink.emit("check-main1", verdict.inputs, verdict.to_record(), t0)
    return 0 if verdict.met else 1


def _cmd_check_main2(ns: argparse.Namespace, sink: _Sink) -> int:
    from .checkers import main2_check

    products = []
    for spec in ns.product:
        body, _, deg = spec.partition("@")
        if not deg:
            raise UsageError(f"product spec needs @DEG: {spec!r}")
        factors = [curve_from_pair(*_int_list(tok, "--product", 2))
                   for tok in body.split("|") if tok]
        if not factors:
            raise UsageError(f"--product names no curve: {spec!r}")
        products.append((factors, _int_list(deg, "--product degree", 1)[0]))
    t0 = time.perf_counter()
    verdict = main2_check(
        products, ns.p, unramified=ns.unramified, all_good=ns.all_good
    )
    sink.emit("check-main2", verdict.inputs, verdict.to_record(), t0)
    return 0 if verdict.met else 1


def _cmd_check_global2(ns: argparse.Namespace, sink: _Sink) -> int:
    from .checkers import global2_prime_filter

    E = curve_from_pair(ns.a, ns.b)
    t0 = time.perf_counter()
    primes = global2_prime_filter(E, ns.deg_phi, ns.bound)
    N = conductor(E)  # memoized: computed once, by the filter
    sink.emit(
        "check-global2",
        {"a": E.a, "b": E.b, "deg_phi": ns.deg_phi, "bound": ns.bound},
        {"conductor": N, "primes": primes},
        t0,
    )
    return 0


def _cmd_scan_supersingular(ns: argparse.Namespace, sink: _Sink) -> int:
    from .checkers import supersingular_scan

    E = curve_from_pair(ns.a, ns.b)
    t0 = time.perf_counter()
    scan = supersingular_scan(E, ns.bound)
    sink.emit(
        "supersingular-scan", {"a": E.a, "b": E.b, "bound": ns.bound},
        scan.to_record(), t0,
    )
    return 0


def _cmd_kgroup_prove_skew(ns: argparse.Namespace, sink: _Sink) -> int:
    from .kgroup import MINUS, PLUS, SkewBilinear, check_skew_field, prove_skew

    q = ns.q
    check_skew_field(q)
    E = curve_from_pair(ns.a, ns.b)
    G = rational_points_mod_p(E, q)
    conventions = [MINUS, PLUS] if ns.convention == "both" else [ns.convention]
    code = 0
    t0 = time.perf_counter()
    bilinear = SkewBilinear(G, ns.r)  # built once for every convention
    for conv in conventions:
        rep = prove_skew(G, r=ns.r, convention=conv, bilinear=bilinear)
        sink.emit(
            "kgroup-skew",
            {"q": q, "a": E.a, "b": E.b, "r": ns.r, "convention": conv},
            rep.to_record(),
            t0,
        )
        if ns.per_target:
            for rec in rep.to_records():
                t1 = time.perf_counter()
                sink.emit("kgroup-skew-target", {"q": q, "convention": conv}, rec, t1)
        if not (rep.all_proved and rep.negative_control_certified):
            code = 1
        t0 = time.perf_counter()
    return code


def _cmd_filtration(ns: argparse.Namespace, sink: _Sink) -> int:
    from .pontryagin import FinAbGroup, aug_filtration, check_filtration_field

    if ns.group is not None:
        try:
            G = FinAbGroup.from_invariant_factors(_int_list(ns.group, "--group"))
        except ValueError as e:
            raise UsageError(f"--group: {e}") from None
        inputs = {"group": ns.group, "rmax": ns.rmax}
    else:
        p = ns.elliptic_p
        check_filtration_field(p)
        E = curve_from_pair(ns.a, ns.b)
        G = FinAbGroup.from_elliptic(rational_points_mod_p(E, p))
        inputs = {"elliptic_p": p, "a": ns.a, "b": ns.b, "rmax": ns.rmax}
    t0 = time.perf_counter()
    rep = aug_filtration(G, ns.rmax)
    sink.emit("filtration", inputs, rep.to_record(), t0)
    return 0 if rep.exactness_ok else 1


_PARSER = build_parser()  # built once per process; main() may be called repeatedly


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _PARSER.parse_args(argv)
    sink = _Sink(ns.output)
    try:
        try:
            code = ns.run(ns, sink)
            sink.stream()  # a command without records leaves an empty file
            return code
        finally:
            if ns.output is not None and sink.fh is not None:
                sink.fh.close()
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (DegenerateCurveError, InsufficientPrimesError, BudgetExceededError, ValueError) as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 1
    except CertificateError as e:
        print(f"certificate error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
