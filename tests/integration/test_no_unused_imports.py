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

A parameter nothing outside the tests sets is the same dead weight once
more: a knob with one value in every run, plus whatever branches and
checks serve its other values.  Function defaults and the defaulted
``__init__`` fields of a ``@dataclass`` count as settable.  One is set
when a call outside ``tests/`` directories supplies it by keyword, by
position or through ``*``/``**`` to a callee of its name; the callee of
an ``__init__`` or a dataclass field is the class name.  A settable value
nothing sets fails the check unless :data:`DEFAULTS_ALLOWLIST` names it.
An allowlist line reads ``repro/path.py:Owner.param doc/path`` (``#``
starts a comment), where ``Owner`` is the function's qualified name, or
the class's for an ``__init__`` or a field; the line fails when the
package has no such parameter or the doc does not name both the callee
and the parameter.
"""

import ast
from pathlib import Path
from typing import NamedTuple, Optional

import repro

PACKAGE = Path(repro.__file__).parent
ROOT = Path(__file__).resolve().parents[2]
#: Where a read of a ``repro`` constant may live.
READERS = ("src", "bench", "benchmarks", "examples", "tests", "tools")
#: Settable values that no call outside the tests sets, each with the doc
#: or test that shows why it stays settable.
DEFAULTS_ALLOWLIST = Path(__file__).with_name("defaults_allowlist.txt")


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


class Settable(NamedTuple):
    path: Path
    line: int
    owner: str  # qualified name of the function, or the class of an __init__/field
    callee: str  # the name a call uses
    name: str
    position: Optional[int]  # positional index in a call, None if keyword-only

    def key(self, package):
        return f"{self.path.relative_to(package.parent).as_posix()}:{self.owner}.{self.name}"


def _decorated(node, name):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == name:
            return True
    return False


def _init_fields(cls):
    """``(line, name, has default)`` of every ``__init__`` field of a dataclass."""
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            if any(k.arg == "init" for k in value.keywords):
                continue
            has_default = any(k.arg in ("default", "default_factory") for k in value.keywords)
        else:
            has_default = value is not None
        yield stmt.lineno, stmt.target.id, has_default


def _settables(path, tree):
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                owner = ".".join(scope + [child.name])
                if _decorated(child, "dataclass"):
                    for position, (line, name, has_default) in enumerate(_init_fields(child)):
                        if has_default:
                            yield Settable(path, line, owner, child.name, name, position)
                yield from visit(child, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                method = isinstance(node, ast.ClassDef) and not _decorated(child, "staticmethod")
                init = method and child.name == "__init__"
                owner = ".".join(scope if init else scope + [child.name])
                callee = scope[-1] if init else child.name
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], start=first):
                    yield Settable(path, child.lineno, owner, callee, arg.arg, index - method)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield Settable(path, child.lineno, owner, callee, arg.arg, None)
                yield from visit(child, scope + [child.name])

    yield from visit(tree, [])


def _calls(paths):
    """``{callee name: [ast.Call]}`` over ``paths``."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _supplies(call, settable):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, settable.name) for k in call.keywords):
        return True
    return settable.position is not None and len(call.args) > settable.position


def unset_defaults(modules, callers):
    """Every :class:`Settable` of ``modules`` that no call in ``callers`` sets."""
    calls = _calls(callers)
    return [
        s
        for path in modules
        for s in _settables(path, ast.parse(path.read_text(), filename=str(path)))
        if not any(_supplies(call, s) for call in calls.get(s.callee, ()))
    ]


def _callers():
    """Every ``.py`` file of :data:`READERS` outside a ``tests`` directory."""
    return sorted(
        p for top in READERS for p in (ROOT / top).rglob("*.py")
        if "tests" not in p.relative_to(ROOT).parts
    )


def test_the_check_sees_an_unset_default(tmp_path):
    module = tmp_path / "knobs.py"
    module.write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a\n"
        "def g(x=0):\n"
        "    return x\n"
        "class Box:\n"
        "    def __init__(self, size=1, unused=2):\n"
        "        self.size = size\n"
        "    def put(self, item=None):\n"
        "        return item\n"
        "@dataclass\n"
        "class Config:\n"
        "    n: int\n"
        "    width: int = 4\n"
        "    depth: int = 5\n"
        "    count: int = field(default=0, init=False)\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import knobs\n"
        "knobs.f(0, 1, e=5)\n"
        "g(**{})\n"
        "box = knobs.Box(3)\n"
        "box.put(*[])\n"
        "Config(1, depth=2)\n"
    )
    found = [(s.owner, s.name) for s in unset_defaults([module], [caller])]
    assert found == [("f", "c"), ("f", "d"), ("Box", "unused"), ("Config", "width")]


def test_every_settable_value_is_set_outside_the_tests():
    modules = sorted(PACKAGE.rglob("*.py"))
    allowed = {}
    for raw in DEFAULTS_ALLOWLIST.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, doc = line.split()
            allowed[key] = doc
    settables = {
        s.key(PACKAGE): s
        for path in modules
        for s in _settables(path, ast.parse(path.read_text(), filename=str(path)))
    }
    stale = []
    for key, doc in sorted(allowed.items()):
        s = settables.get(key)
        text = (ROOT / doc).read_text() if (ROOT / doc).is_file() else ""
        if s is None:
            stale.append(f"allowlisted but not a settable value of repro: {key}")
        elif s.callee not in text or s.name not in text:
            stale.append(f"allowlisted with a doc that does not name it: {key} {doc}")
    assert not stale, "\n".join(stale)
    found = [
        f"{s.path.relative_to(PACKAGE.parent)}:{s.line}: {s.owner}({s.name}=)"
        for s in unset_defaults(modules, _callers())
        if s.key(PACKAGE) not in allowed
    ]
    assert not found, "settable values nothing outside the tests sets:\n" + "\n".join(found)
