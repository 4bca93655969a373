"""Every name a ``repro`` module imports is used by that module, and
every module-level name it assigns is read somewhere.

An unused import is dead weight that outlives the code it served and
hides the module's real dependencies.  The check parses each
non-``__init__`` module under ``src/repro`` with :mod:`ast`; a name
counts as used when it appears as a name anywhere in the module, in a
string annotation, or in ``__all__``.  ``__init__`` modules are skipped:
their imports are the package's re-exports.

A module constant nobody reads is the same dead weight, and the reach
tool cannot see it: it counts calls, and a constant built at import runs
its constructor whether or not anything reads the result.  A
module-level name assigned under ``src/repro`` counts as read when some
``.py`` file of the repository's code, tests or tools names it, reads it
as an attribute, imports it with ``from ... import`` or lists it in
``__all__``.  Names are matched without their module, and dunder names
are Python's own.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
ROOT = Path(__file__).resolve().parents[2]
#: Where a read of a ``repro`` constant may live.
READERS = ("src", "bench", "benchmarks", "examples", "tests", "tools")


def _imported(tree):
    """``{bound name: line}`` of every import but ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _all_entries(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (e.value for e in node.value.elts if isinstance(e, ast.Constant))


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    strings = [
        node.value
        for annotation in _annotations(tree)
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    strings += _all_entries(tree)
    for text in strings:
        try:
            expr = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used |= {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )


def _assigned(tree):
    """``{name: line}`` of every name a module-level assignment binds."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    names[name.id] = node.lineno
    return names


def _read(tree):
    """Every name a module reads, as a name, an attribute, a ``from``
    import or an ``__all__`` entry."""
    read = set(_all_entries(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_constants(modules, readers):
    """``(module, line, name)`` of every module-level name assigned in
    ``modules`` that no file of ``readers`` reads."""
    read = set()
    for path in readers:
        read |= _read(ast.parse(path.read_text(), filename=str(path)))
    return sorted(
        (path, line, name)
        for path in modules
        for name, line in _assigned(ast.parse(path.read_text(), filename=str(path))).items()
        if name not in read
    )


def test_the_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List, Optional\n"
        "from collections import deque as dq\n"
        "x: 'Optional[int]' = None\n"
        "def f(a: List[int]) -> None:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(module) == [(2, "os"), (4, "dq")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 50
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_check_sees_an_unread_constant(tmp_path):
    module = tmp_path / "consts.py"
    module.write_text(
        "__all__ = ['EXPORTED']\n"
        "EXPORTED = 1\n"
        "UNREAD: int = 2\n"
        "NAMED, ATTRIBUTE = 3, 4\n"
        "IMPORTED = 5\n"
        "CITED = 6  # ``CITED`` in a comment or docstring is no read\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text(
        "from consts import IMPORTED\n"
        "import consts\n"
        "print(NAMED, consts.ATTRIBUTE, IMPORTED)\n"
        "'CITED'\n"
    )
    assert unread_constants([module], [module, reader]) == [
        (module, 3, "UNREAD"), (module, 6, "CITED"),
    ]


def test_every_module_constant_is_read():
    modules = sorted(PACKAGE.rglob("*.py"))
    readers = sorted(p for top in READERS for p in (ROOT / top).rglob("*.py"))
    assert len(readers) > len(modules) > 50
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path, line, name in unread_constants(modules, readers)
    ]
    assert not found, "module constants nothing reads:\n" + "\n".join(found)
