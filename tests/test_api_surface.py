"""Every function, class, method and property in src/mmdim has a caller there.

A name that only the tests reach is an API kept for the tests alone: it
costs reading and upkeep, and a refactor must carry it along.  This test
walks the package with `ast`, gathers every `Name` and `Attribute` reference
and flags each definition whose name never appears among them.  Matching is
by bare name, so a method counts as used when any attribute of that name is
read anywhere in the package.
"""

import ast
from pathlib import Path

import mmdim

SRC = Path(mmdim.__file__).parent

# Definitions no code in src/mmdim calls, kept on purpose.
ALLOWED = {
    # the naive pair-by-pair oracle the greedy scan is compared against
    "bowen_distance",
    # supplies the acceptance tests' seeds for the unsquared map
    "strip_word_box",
    # the placement invariant the acceptance tests check
    "enlarged_box",
    # read by the benchmark's tracing to count built horseshoes
    "Block.horseshoe",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of every module-level function or
    class and every function defined directly in a class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(node) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unreferenced() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used: set[str] = set()
    for tree in trees.values():
        used |= _references(tree)
    flagged = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language, not by name
            if qualname in ALLOWED:
                continue
            if name not in used:
                flagged.append(f"{module}:{node.lineno} {qualname}")
    return flagged


def test_every_definition_is_referenced():
    assert unreferenced() == []


def test_allowed_names_are_still_defined():
    # an allowance outliving its definition would hide a later unused name
    defined = {
        qualname
        for path in SRC.glob("*.py")
        for qualname, _, _ in _definitions(ast.parse(path.read_text()))
    }
    assert ALLOWED <= defined
