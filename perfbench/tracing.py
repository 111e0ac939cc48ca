"""Span tracing of the program's layers from outside the program.

install() replaces each traced function or method with a wrapper that records
a span (name, start, end, parent span, job id, info) and puts it back on
uninstall().  Every module-level binding of a traced function is patched, so
`scholten.ap_trace` is traced as well as `elliptic.ap_trace`.  Spans stay in
memory; the per-layer metrics are computed from them after each pass.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "isogeny_forge"

# (module, attribute path, span name, info taken from (args, result))
TARGETS = (
    ("genus2", "igusa_clebsch_of_sextic", "genus2.igusa", None),
    ("genus2", "absolute_invariants", "genus2.absolute", None),
    ("genus2", "HyperellipticCurve.absolute_igusa", "genus2.class_key", None),
    ("genus2", "sextic_discriminant", "genus2.disc", None),
    ("genus2", "hyperelliptic_point_count", "genus2.hcount", lambda a, r: a[1]),
    ("elliptic", "ap_trace", "elliptic.ap", lambda a, r: a[1]),
    ("elliptic", "WeierstrassModel.disc", "elliptic.model_disc", None),
    ("elliptic", "rational_points_mod_p", "elliptic.group", None),
    ("elliptic", "EllipticGroup.structure", "elliptic.structure", None),
    ("elliptic", "EllipticGroup.generators", "elliptic.generators", None),
    ("scholten", "build_scholten", "scholten.build", lambda a, r: r.is_smooth),
    ("scholten", "scholten_family", "scholten.family", None),
    ("scholten", "verify_split_jacobian", "scholten.verify",
     lambda a, r: (len(r.rows), len(r.skipped))),
    ("scholten", "parameter_search", "scholten.search", None),
    ("reduction", "tate_algorithm", "reduction.tate", lambda a, r: r.restarts),
    ("reduction", "conductor", "reduction.conductor", None),
    ("reduction", "potential_type", "reduction.potential", None),
    ("reduction", "classify_reduction", "reduction.classify", None),
    ("checkers", "main1_check", "checkers.main", None),
    ("checkers", "main2_check", "checkers.main", None),
    ("checkers", "supersingular_scan", "checkers.scan", lambda a, r: r.tested),
    ("exactnum", "factorize", "exactnum.factorize", None),
    ("exactnum", "ColumnLattice.__init__", "exactnum.lattice_new", None),
    ("exactnum", "ColumnLattice.add_generator", "exactnum.lattice_insert", None),
    ("exactnum", "ColumnLattice.reduce", "exactnum.lattice_reduce", None),
    ("exactnum", "ColumnLattice.basis_coordinates", "exactnum.lattice_coords", None),
    ("exactnum", "smith_normal_form_transforms", "exactnum.snf",
     lambda a, r: max(a[0].nrows, a[0].ncols)),
    ("kgroup", "assemble_skew_lattice", "kgroup.assemble", lambda a, r: len(r)),
    ("kgroup", "prove_member", "kgroup.member",
     lambda a, r: (r.member, max((abs(c).bit_length() for c in (r.coefficients or {}).values()),
                                 default=0))),
    ("kgroup", "prove_skew", "kgroup.prove_skew", None),
    ("pontryagin", "aug_filtration", "pontryagin.filtration", lambda a, r: len(a[0])),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, t0, t1, parent, job, info)
        self.job = -1
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original value)
        self.lattices: list = []  # ColumnLattice objects made during the current job
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                           self.job, None])
        self._stack.append(sid)
        self.spans[sid][1] = perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a root span (the benchmark's call into the CLI)."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, name, fn, info):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid)
                    yield item
        elif name == "exactnum.lattice_new":
            def wrapper(lattice, *args, **kwargs):
                fn(lattice, *args, **kwargs)
                tracer.lattices.append(lattice)
        else:
            def wrapper(*args, **kwargs):
                sid = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(sid)
                if info is not None:
                    tracer.spans[sid][5] = info(args, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        originals = {}
        self.missing = []
        for mod_name, path, name, info in TARGETS:
            owner = modules.get(f"{PACKAGE}.{mod_name}")
            head, _, attr = path.rpartition(".")
            if owner is not None and head:
                owner = getattr(owner, head, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            if isinstance(raw, property):
                self._set(owner, attr, property(self._wrap(name, raw.fget, info)))
                continue
            wrapped = self._wrap(name, raw, info)
            if head:
                self._set(owner, attr, wrapped)
            originals[id(raw)] = (raw, wrapped)
        # every module-level binding of a traced function, whatever its name
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        self._originals = {k: v[0] for k, v in originals.items()}

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def missed_bindings(self) -> list[str]:
        """Names in the package that still reach an untraced original."""
        out = []
        originals = set(self._originals)
        for mod_name, mod in _package_modules().items():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    out.append(f"{mod_name}.{attr}")
                if inspect.isclass(value) and value.__module__ == mod_name:
                    for cattr, cvalue in vars(value).items():
                        if id(cvalue) in originals:
                            out.append(f"{mod_name}.{attr}.{cattr}")
        return out

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- per-job bookkeeping ------------------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self.lattices.clear()

    def end_job(self) -> tuple[int, int]:
        """Largest bit length of lattice basis entries and of history
        coefficients over the lattices the job built."""
        basis_bits = history_bits = 0
        for lat in self.lattices:
            for row in lat.basis:
                basis_bits = max(basis_bits, max((abs(x).bit_length() for x in row), default=0))
            for hist in lat.history:
                history_bits = max(history_bits,
                                   max((abs(x).bit_length() for x in hist.values()), default=0))
        self.lattices.clear()
        return basis_bits, history_bits

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, job, info in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, job, info], default=str) + "\n")


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


# -- per-layer metrics ---------------------------------------------------------------------


def layer_metrics(spans: list, first: int, bits: list[tuple[int, int]], chi_misses: int,
                  records: int, search_records: int) -> dict[str, float]:
    """Per-layer counts, self times and ratios of the spans from index first on."""
    own = spans[first:]
    child_time = defaultdict(float)
    for name, t0, t1, parent, job, info in own:
        if parent is not None:
            child_time[parent] += t1 - t0
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for i, span in enumerate(own, start=first):
        name, t0, t1 = span[0], span[1], span[2]
        calls[name] += 1
        self_s[name] += (t1 - t0) - child_time[i]
        by_name[name].append(span)

    def parent_name(span):
        return spans[span[3]][0] if span[3] is not None else None

    def infos(name):
        return [s[5] for s in by_name[name]]

    hcount_terms = sum(infos("genus2.hcount"))
    ap_terms = sum(infos("elliptic.ap"))
    builds = infos("scholten.build")
    search_keys = sum(1 for s in by_name["genus2.class_key"]
                      if parent_name(s) == "scholten.search")
    family_keys = sum(1 for s in by_name["genus2.class_key"]
                      if parent_name(s) == "scholten.family")
    verify = infos("scholten.verify")
    members = infos("kgroup.member")
    snf_dims = infos("exactnum.snf")
    m = {
        "genus2.igusa_calls": calls["genus2.igusa"],
        "genus2.igusa_s": self_s["genus2.igusa"] + self_s["genus2.absolute"]
        + self_s["genus2.class_key"],
        "genus2.disc_calls": calls["genus2.disc"],
        "genus2.disc_s": self_s["genus2.disc"],
        "genus2.hcount_calls": calls["genus2.hcount"],
        "genus2.hcount_s": self_s["genus2.hcount"],
        "genus2.hcount_terms": hcount_terms,
        "genus2.hcount_ns_per_term": _ratio(self_s["genus2.hcount"] * 1e9, hcount_terms),
        "elliptic.ap_calls": calls["elliptic.ap"],
        "elliptic.ap_s": self_s["elliptic.ap"],
        "elliptic.ap_terms": ap_terms,
        "elliptic.ap_ns_per_term": _ratio(self_s["elliptic.ap"] * 1e9, ap_terms),
        "elliptic.model_disc_calls": calls["elliptic.model_disc"],
        "elliptic.chi_table_misses": chi_misses,
        "elliptic.group_s": self_s["elliptic.group"],
        "elliptic.structure_s": self_s["elliptic.structure"] + self_s["elliptic.generators"],
        "scholten.build_calls": len(builds),
        "scholten.smooth_ratio": _ratio(sum(builds), len(builds)),
        "scholten.class_keys": search_keys + family_keys,
        "scholten.records_per_key": _ratio(search_records, search_keys),
        "scholten.verify_self_s": self_s["scholten.verify"],
        "scholten.primes_used": sum(v[0] for v in verify),
        "scholten.primes_skipped": sum(v[1] for v in verify),
        "reduction.tate_calls": calls["reduction.tate"],
        "reduction.tate_s": self_s["reduction.tate"],
        "reduction.tate_restarts": sum(infos("reduction.tate")),
        "reduction.conductor_s": self_s["reduction.conductor"],
        "reduction.potential_s": self_s["reduction.potential"],
        "checkers.main_s": self_s["checkers.main"],
        "checkers.scan_s": self_s["checkers.scan"],
        "checkers.scan_primes_tested": sum(infos("checkers.scan")),
        "exactnum.factorize_s": self_s["exactnum.factorize"],
        "exactnum.lattice_inserts": calls["exactnum.lattice_insert"],
        "exactnum.lattice_insert_s": self_s["exactnum.lattice_insert"],
        "exactnum.lattice_reduces": calls["exactnum.lattice_reduce"],
        "exactnum.lattice_reduce_s": self_s["exactnum.lattice_reduce"],
        "exactnum.lattice_coords_s": self_s["exactnum.lattice_coords"],
        "exactnum.lattice_max_bits": max((b[0] for b in bits), default=0),
        "exactnum.history_max_bits": max((b[1] for b in bits), default=0),
        "exactnum.snf_calls": calls["exactnum.snf"],
        "exactnum.snf_s": self_s["exactnum.snf"],
        "exactnum.snf_max_dim": max(snf_dims, default=0),
        "kgroup.assemble_self_s": self_s["kgroup.assemble"],
        "kgroup.columns": sum(infos("kgroup.assemble")),
        "kgroup.member_queries": len(members),
        "kgroup.member_self_s": self_s["kgroup.member"],
        "kgroup.member_ratio": _ratio(sum(1 for ok, _ in members if ok), len(members)),
        "kgroup.cert_max_bits": max((b for _, b in members), default=0),
        "pontryagin.filtration_self_s": self_s["pontryagin.filtration"],
        "pontryagin.group_order": sum(infos("pontryagin.filtration")),
        "cli.self_s": self_s["cli.main"],
        "cli.records": records,
    }
    return m


def span_counts(spans: list, first: int) -> dict:
    """Span counts by name and by (name, parent name), for cross-checks."""
    out = defaultdict(int)
    for name, t0, t1, parent, job, info in spans[first:]:
        out[name] += 1
        out[(name, spans[parent][0] if parent is not None else None)] += 1
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
