"""Every top-level function, class and method of `crimecast` is referenced
somewhere in `src/` beyond its definition, or is listed below with the
reason it stays. A helper that loses its last caller fails here."""

import ast
from pathlib import Path

import crimecast

SRC = Path(crimecast.__file__).parent

# Kept though `src/` never reaches them: the benchmark wraps or iterates
# them, or an acceptance criterion calls them.
ALLOWED = {
    "geo.resolve_state": "bench/tracer.py times it; criterion 11 resolves the fixture's states with it",
    "series.PanelDataset.from_rows": "bench/tracer.py wraps it as the panel load span",
    "signals.Corpus.__iter__": "bench/test_worldgen.py and the tests iterate a corpus as ArticleRecord rows",
    "stattests.cohens_kappa": "bench/tracer.py counts it; criterion 11 scores the resolver with it",
}

# A dunder method is reached through syntax, not by its name: these are the
# builtins, operators and comparisons that reach it (`>`
# and `>=` reach `__lt__` and `__le__` reflected). Any other dunder is looked
# for by its own name, so it needs a place in ALLOWED; `__iter__` is one, as a
# `for` can run over any iterable. Construction hooks, of an instance or of a
# subclass, always run.
PROTOCOL = {
    "__len__": "len", "__str__": "str", "__repr__": "repr", "__hash__": "hash", "__add__": "Add", "__sub__": "Sub",
    "__eq__": "Eq", "__lt__": "Lt", "__le__": "LtE",
}
HOOKS = {"__init__", "__post_init__", "__init_subclass__"}


def definitions() -> list[tuple[str, str]]:
    """(qualified name, referenced name) of each top-level function, class and method."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{sub.name}", PROTOCOL.get(sub.name, sub.name))
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and sub.name not in HOOKS
                ]
    return found


def references() -> set[str]:
    """Every name, attribute, operator and comparison that `src/` uses."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.BinOp):
                used.add(type(node.op).__name__)
            elif isinstance(node, ast.Compare):
                used.update(type(op).__name__ for op in node.ops)
            elif isinstance(node, ast.FormattedValue):
                used.add("repr" if node.conversion == ord("r") else "str")
    return used


def test_every_definition_is_referenced_or_allowed():
    used = references()
    unreferenced = sorted(name for name, ref in definitions() if ref not in used)
    assert unreferenced == sorted(ALLOWED)

