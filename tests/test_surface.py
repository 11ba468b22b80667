"""Public surface: every public name in the package is needed by it, exported, or listed."""

import ast
from collections import Counter
from pathlib import Path

import skirmish

SRC = Path(skirmish.__file__).parent

# Public names that nothing in the package uses and `skirmish.__all__` does
# not export, kept because the benchmark's tracer or the tests pin them.  A
# name that gains a caller, or is deleted, must leave this list.
ORACLES = {
    "model.Instance.swapped",
    "montecarlo.win_threshold",
    "recurrence.fill_table",
    "series.TruncatedSeries",
    "series.TruncatedSeries.affine",
    "series.TruncatedSeries.inverse",
}


def _names(node):
    """How often each identifier is read under `node`, as a name or an attribute."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


def _public_definitions(module, tree):
    """(dotted name, node) of each public module-level function and class, and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{module}.{node.name}.{method.name}", method


def test_every_public_name_is_used_exported_or_an_oracle():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unneeded = {
        dotted
        for module, tree in trees.items()
        for dotted, node in _public_definitions(module, tree)
        # No read outside the definition's own body.
        if node.name not in skirmish.__all__ and used[node.name] == _names(node)[node.name]
    }
    assert unneeded == ORACLES
