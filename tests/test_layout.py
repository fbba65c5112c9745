"""`src/` holds what something runs: every public top-level function or class
of a `cimwalk` module is referenced elsewhere in `src/`, listed in an
`__all__`, wrapped by perfbench's tracer, or kept below with its reason; and
one function owns the tree/single-cycle rule of shifts and splits."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cimwalk"
TRACER = ROOT / "perfbench" / "tracer.py"

# Public names that nothing in src/ calls, each kept for the reason given.
KEPT = {
    "v_structures": "named in README",
    "all_dags": "named in README",
    "all_mecs": "named in README",
    "imset_delta": "README's imset line lists deltas",
    "turn_edge_delta": "single-arc delta for deciding realizability before materialising",
    "add_edge_delta": "single-arc delta for deciding realizability before materialising",
    "certify_edge": "the single-pair certification API and the tests' exact reference",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _public_defs(trees: dict) -> list:
    """(module, name) of each top-level public function or class."""
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _references(trees: dict) -> set:
    """(module, enclosing top-level name or None, referenced name) for every
    name loaded or attribute read in src/; imports are not references."""
    out = set()
    for module, tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    out.add((module, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    out.add((module, owner, node.attr))
    return out


def _all_entries(trees: dict) -> set:
    """The strings of every `__all__` list, and no other string constant."""
    out = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                out.update(ast.literal_eval(node.value))
    return out


def _wrapped() -> set:
    """(module, name) of each function the tracer wraps, at its home module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    out = set()
    for _, owners, attr in tracer.WRAPPED:
        for owner in owners:
            func = getattr(importlib.import_module(f"cimwalk.{owner}"), attr)
            out.add((func.__module__.rpartition(".")[2], func.__name__))
    return out


def test_every_public_definition_is_run_listed_wrapped_or_kept():
    trees = _trees()
    refs = _references(trees)
    listed = _all_entries(trees)
    wrapped = _wrapped()
    uncalled = [
        f"{module}.{name}" for module, name in _public_defs(trees)
        if not any(ref == name and (m, owner) != (module, name) for m, owner, ref in refs)
        and name not in listed and (module, name) not in wrapped and name not in KEPT
    ]
    assert not uncalled, f"public names with no caller in src/: {uncalled}"


def test_every_kept_name_is_defined():
    defined = {name for _, name in _public_defs(_trees())}
    assert set(KEPT) <= defined, sorted(set(KEPT) - defined)


def test_only_moves_tree_paths_asks_whether_a_skeleton_is_a_tree_or_a_cycle():
    """Shifts and splits need a tree or single-cycle skeleton, and
    `moves._tree_paths` is the one place that checks it: it yields no path
    on any other skeleton, so no sweep's caller checks again."""
    callers = set()
    for module, tree in _trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("is_tree", "is_single_cycle")):
                    callers.add((module, getattr(top, "name", None), node.func.attr))
    assert {(module, owner) for module, owner, _ in callers if module != "graphs"} == {
        ("moves", "_tree_paths")}, sorted(callers)


def test_only_the_score_cache_computes_a_local_score():
    """Every local score in `src/` goes through `LocalScoreCache.local`, the
    one memo table keyed on (node, parent mask): no other code names
    `local_bic`."""
    users = set()
    for module, tree in _trees().items():
        for top in tree.body:
            for inner in top.body if isinstance(top, ast.ClassDef) else [top]:
                for node in ast.walk(inner):
                    if (isinstance(node, ast.Name) and node.id == "local_bic"
                            or isinstance(node, ast.Attribute) and node.attr == "local_bic"):
                        users.add((module, getattr(top, "name", None), getattr(inner, "name", None)))
    assert users == {("scoring", "LocalScoreCache", "local")}, sorted(users)
