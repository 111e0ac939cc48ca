"""Product code keeps only what a command, demo or benchmark reaches.  A scan
of the source lists every module-level def and non-dunder method of the
package that no module of src/, demos/ or perfbench/ names; each one left is
pinned here with the reason it stays.  The group-ring, product-of-curves,
symbol-provenance, point-by-point skew, general character-sum and
general-sextic oracles live in the tests (tests/group_ring.py,
tests/product.py, tests/test_kgroup.py, tests/skew_oracles.py,
tests/char_sums.py, tests/sextics.py), as does
the checked constructor of a model from raw coefficients (tests/models.py)."""

import ast
import os
import re

import isogeny_forge

PACKAGE = os.path.dirname(os.path.abspath(isogeny_forge.__file__))
REPO = os.path.dirname(os.path.dirname(PACKAGE))

UNREFERENCED = {
    "WeierstrassModel.c6": "the invariant c6 beside c4 and the discriminant, with 1728 disc = c4^3 - c6^2",
}

# test oracles, a capability no caller needed, and lattice and symbol machinery
# sized for more than the E (x) E lattice; none may come back
MOVED = {
    "pontryagin_product", "zero_based_generator", "alternating_generator", "gr_generators",
    "ideal_power_lattice", "spans_same_lattice", "FinAbGroup.elements", "FinAbGroup.index",
    "FinAbGroup.vector", "relation_is_instance", "_chord_zero_set_matches",
    "bilinear_relations", "phi_r", "ColumnLattice._replay", "ColumnLattice._set_row",
    "ColumnLattice._sub_row", "_require_pair_slots", "SmithResult", "SmithResult.verify",
    "_mat_mul", "count_points", "is_supersingular_at", "EllipticGroup.on_curve",
    "invariant_factors_mod", "SymbolUniverse", "_curve_key", "SkewBilinear.serves",
    "RelationColumn.as_dict", "FormalSum", "product_zero", "embed", "project", "product_add",
    "DecompositionResult", "product_decompose", "WeierstrassModel.from_coeffs",
    "ColumnLattice.contains", "wr_vertical", "wr_line", "_column", "ColumnLattice._sparse",
    "_char_sum", "_chi_values", "resultant", "_det_bareiss", "_as_sextic",
    "HyperellipticCurve.point_count",
}

# the tracer names its targets as dotted strings ("EllipticGroup.structure")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _trees(top: str):
    for root, _, files in os.walk(os.path.join(REPO, top)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield ast.parse(fh.read(), path)


def _definitions(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> bare name of each module-level def and class, and of
    each non-dunder method of a module-level class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not re.fullmatch(r"__\w+__", m.name):
                    out[f"{node.name}.{m.name}"] = m.name
    return out


def _locals(fn) -> set[str]:
    """Names a function or lambda binds itself: its parameters and the names
    it assigns, less those it declares global or nonlocal.  Those of a def,
    class or lambda nested in it are its own."""
    a = fn.args
    bound = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
             if arg is not None}
    declared = set()
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _references(tree: ast.Module, strings: bool) -> set[str]:
    """Every name, attribute and import the tree names, less a name read
    where a function around it binds that name as its own local."""
    out = set()
    todo = [(tree, frozenset())]
    while todo:
        node, shadowed = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            shadowed = shadowed | _locals(node)
        if isinstance(node, ast.Name):
            if node.id not in shadowed:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.match(node.value)):
            out.update(node.value.split("."))
        todo.extend((child, shadowed) for child in ast.iter_child_nodes(node))
    return out


def test_product_names_are_reached_or_pinned():
    defined, referenced = {}, set()
    for top in ("src", "demos", "perfbench"):
        for tree in _trees(top):
            if top == "src":
                defined.update(_definitions(tree))
            referenced |= _references(tree, strings=top == "perfbench")
    unreferenced = {q for q, name in defined.items() if name not in referenced}
    assert unreferenced == set(UNREFERENCED)
    assert not MOVED & set(defined)


def test_no_module_imports_dataclasses_or_inspect():
    """Each command is one short process, and importing dataclasses (which
    imports inspect) costs about 7 ms of its start-up."""
    imported = set()
    for tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
    assert not imported & {"dataclasses", "inspect"}
