"""The benchmark tracer (perfbench/tracing.py) patches the package's layers by
name, from its TARGETS table.  A target that no longer resolves is skipped
there and listed under `missing_targets`, and its per-layer metrics then read
0.  This test pins that list, so a refactor that renames or deletes a traced
function fails here instead of silently emptying a metric."""

import importlib
import importlib.util
import os

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
