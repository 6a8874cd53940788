"""Every name in the package and the benchmark has a caller.

The abstract syntax trees of ``src/roadsurf/*.py`` and ``bench/*.py`` are
walked for top-level functions, classes and assigned names (module
constants such as ``_SIGN``) and the methods of top-level classes, public
and single-underscore private alike; dunder names (``__init__``,
``__post_init__``) are called by the language and exempt.
Each must be named by a ``Name``, an ``Attribute`` or an import alias
somewhere in those files outside its own definition; the tests do not count
as callers.  A method that overrides one of a builtin or a library base
class (``argparse.ArgumentParser.error``) is called by that library and is
skipped.  Matching is by bare name, so the check can miss a dead name that
shares its spelling with a live one.
"""

import ast
import builtins
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "roadsurf").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _checked(name):
    return not (name.startswith("__") and name.endswith("__"))


def _library_bases(tree, node):
    """The classes a class statement derives from that are builtins or
    attributes of a module brought in by ``import``, such as
    ``argparse.ArgumentParser``."""
    modules = {alias.asname or alias.name: alias.name for stmt in tree.body
               if isinstance(stmt, ast.Import) for alias in stmt.names}
    for base in node.bases:
        if isinstance(base, ast.Name) and hasattr(builtins, base.id):
            yield getattr(builtins, base.id)
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id in modules):
            yield getattr(importlib.import_module(modules[base.value.id]), base.attr)


def _definitions(tree):
    """(name, first line, last line) of the top-level functions, classes and
    assigned names and of the methods of top-level classes, dunder names
    left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _checked(name.id):
                        yield name.id, node.lineno, node.end_lineno
        if not isinstance(node, kinds):
            continue
        if _checked(node.name):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            bases = list(_library_bases(tree, node))
            for item in node.body:
                if (isinstance(item, kinds[:2]) and _checked(item.name)
                        and not any(hasattr(base, item.name) for base in bases)):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
            if node.asname:
                yield node.asname, node.lineno


def unreferenced(paths):
    """``module:qualified.name`` of each checked definition in ``paths`` that
    nothing in ``paths`` names outside its own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    missing = []
    for path, tree in trees.items():
        for qualname, first, last in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if not any(ref_path != path or not first <= line <= last
                       for ref_path, line in refs.get(name, ())):
                missing.append(f"{path.parent.name}/{path.stem}:{qualname}")
    return missing


def test_every_public_name_has_a_caller():
    assert unreferenced(SOURCES) == []


def test_a_name_used_only_in_its_own_body_is_flagged(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import argparse, os\n"
        "def used():\n    return os.sep\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n    def __init__(self):\n        self._size()\n"
        "    def _size(self):\n        return 1\n"
        "    def spare(self):\n        return self._size()\n"
        "def _private():\n    pass\n"
        "def _helper():\n    return _helper()\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        pass\n"
        "def __getattr__(name):\n    pass\n"
        "LIVE, _SPARE = 1, 2\n_DEAD: int = LIVE\n_SELF = (1,\n         _SELF)\n__all__ = []\n"
        "print(used(), Box, Parser, _private)\n")
    assert unreferenced([source]) == [f"{tmp_path.name}/mod:recursive",
                                      f"{tmp_path.name}/mod:Box.spare",
                                      f"{tmp_path.name}/mod:_helper",
                                      f"{tmp_path.name}/mod:_SPARE",
                                      f"{tmp_path.name}/mod:_DEAD",
                                      f"{tmp_path.name}/mod:_SELF"]
