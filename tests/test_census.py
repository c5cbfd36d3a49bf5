"""Census of ``src/redlab``: every module-level function and class has a
caller inside the package, or is public API listed in ``redlab.__all__``.

Code that only tests run (composed chains, oracles, test losses) belongs in
``tests/``, beside the tests that use it.
"""

import ast
import importlib
from pathlib import Path

import redlab

PACKAGE = Path(redlab.__file__).parent

# (module, name) kept in the package without a caller there, and why
EXCEPTIONS = {
    ("tensor", "softmax"): "perfbench/tracing.py times it by patching vars(tensor)",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _definitions(trees):
    return {(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _references(module, tree):
    """The (module, name) pairs ``tree`` reads.  A bare name resolves through
    the module's relative imports, or else to the module itself; ``alias.name``
    resolves through an imported sibling module."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(names.get(node.id, (module, node.id)))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            refs.add((modules[node.value.id], node.attr))
    return refs


def _public(module, name):
    owner = importlib.import_module(f"redlab.{module}")
    return name in redlab.__all__ and getattr(redlab, name) is getattr(owner, name)


def _uncalled():
    trees = _trees()
    refs = set().union(*(_references(m, t) for m, t in trees.items()))
    return {(m, n) for m, n in _definitions(trees) - refs if not _public(m, n)}


def test_every_definition_is_called_or_public():
    orphans = sorted(f"{m}.{n}" for m, n in _uncalled() - EXCEPTIONS.keys())
    assert orphans == [], f"no caller in src/redlab and not in redlab.__all__: {orphans}"


def test_each_exception_is_still_uncalled():
    """An exception whose name gained a caller, or left, comes off the list."""
    assert EXCEPTIONS.keys() <= _uncalled()
