"""The benchmark (perfbench/) reaches into the package by name.

Its tracer (perfbench/tracing.py) patches the package's layers from its
TARGETS table.  A target that no longer resolves is skipped there and listed
under `missing_targets`, and its per-layer metrics then read 0.  A test pins
that list, so a refactor that renames or deletes a traced function fails
here instead of silently emptying a metric.

Before each job, perfbench/run.py clears every functools cache of the
package modules that `import isogeny_forge.cli` loaded.  A test checks that
this import loads every module that defines one.

On the skew workload, perfbench/run.py cross-checks two traced counts: one
lattice insert per relation column, and one lattice reduce per membership
query.  On the filtration workload it cross-checks one traced
`exactnum.snf` span per quotient.  Tests make the same checks on one
prove-skew run and on two filtrations."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter

import pytest

import isogeny_forge
from isogeny_forge.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# deleted from the package; the tracer still lists it
KNOWN_MISSING = ["exactnum.ColumnLattice.basis_coordinates"]


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracing = _tracing()
    missing = []
    for mod_name, path, _, _ in tracing.TARGETS:
        # the lookup Tracer.install makes: the attribute itself, on its
        # module or class, not an inherited one
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        head, _, attr = path.rpartition(".")
        if head:
            owner = getattr(owner, head, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(f"{mod_name}.{path}")
        else:
            assert callable(raw) or isinstance(raw, property), (mod_name, path)
    assert missing == KNOWN_MISSING


def test_the_cli_import_loads_every_module_with_a_cache():
    # a module imported later would keep its tables warm from job to job, and
    # the benchmark would show a gain that a fresh CLI process never gets
    src = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_forge.__file__)))
    res = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, isogeny_forge.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert res.returncode == 0, res.stderr
    loaded = set(json.loads(res.stdout))
    cached = set()
    for info in pkgutil.iter_modules(isogeny_forge.__path__, "isogeny_forge."):
        module = importlib.import_module(info.name)
        if any(hasattr(value, "cache_clear") and getattr(value, "__module__", None) == info.name
               for value in vars(module).values()):
            cached.add(info.name)
    assert {"isogeny_forge.exactnum", "isogeny_forge.elliptic"} <= cached
    assert cached <= loaded, cached - loaded


def _install(tracer):
    """Install the tracer once every package module is loaded.  A module
    that a command imports while a tracer is installed binds that tracer's
    wrappers, and keeps them after uninstall(), so a later tracer would not
    see its calls."""
    for info in pkgutil.iter_modules(isogeny_forge.__path__, "isogeny_forge."):
        importlib.import_module(info.name)
    tracer.install()


def test_prove_skew_inserts_once_per_column_and_reduces_once_per_query(tmp_path):
    tracer = _tracing().Tracer()
    out = tmp_path / "skew.jsonl"
    _install(tracer)
    try:
        missed = tracer.missed_bindings()
        code = main(["--output", str(out), "kgroup", "prove-skew", "--q", "7",
                     "--convention", "both", "--r", "3"])
    finally:
        tracer.uninstall()
    assert code == 0 and missed == []
    records = [json.loads(line) for line in out.read_text().splitlines()]
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["kgroup.prove_skew"] == len(records) == 2
    assert calls["exactnum.lattice_insert"] == sum(r["outputs"]["generators"] for r in records)
    assert calls["exactnum.lattice_reduce"] == calls["kgroup.member"] > 0


# the degree-r block of a group with k generators has C(k + r - 1, r) columns
@pytest.mark.parametrize("group, rmax, sizes", [("2,4", "2", [2, 3]), ("2,2,4", "3", [3, 6, 10])],
                         ids=["2,4-2", "2,2,4-3"])
def test_filtration_makes_one_snf_span_per_quotient(tmp_path, group, rmax, sizes):
    tracer = _tracing().Tracer()
    out = tmp_path / "filtration.jsonl"
    _install(tracer)
    try:
        missed = tracer.missed_bindings()
        code = main(["--output", str(out), "filtration", "--group", group, "--rmax", rmax])
    finally:
        tracer.uninstall()
    assert code == 0 and missed == []
    [record] = [json.loads(line) for line in out.read_text().splitlines()]
    snf = [span for span in tracer.spans if span[0] == "exactnum.snf"]
    assert len(snf) == len(record["outputs"]["quotients"]) == int(rmax)
    # each quotient hands the routine its whole degree-r block
    assert [span[5] for span in snf] == sizes
