"""Every name a ``repro`` module imports is used by that module.

An unused import is dead weight that outlives the code it served and
hides the module's real dependencies.  The check parses each
non-``__init__`` module under ``src/repro`` with :mod:`ast`; a name
counts as used when it appears as a name anywhere in the module, in a
string annotation, or in ``__all__``.  ``__init__`` modules are skipped:
their imports are the package's re-exports.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent


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


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    strings = [
        node.value
        for annotation in _annotations(tree)
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            strings += [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
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
