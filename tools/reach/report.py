"""List the public functions of a package that no recorded run reached.

Reads the files ``sitecustomize.py`` wrote under a reach directory and
walks the AST of the package.  A function is *public* when neither its
name nor the name of a class around it starts with ``_``, so dunder
methods and functions nested in functions are not counted.  A *stub* --
an ``abstractmethod``, or a body that is only a docstring, ``pass``,
``...`` or ``raise NotImplementedError`` -- is skipped.

A public function that was not reached fails the report unless the
allowlist names it.  An allowlist line reads ``repro/path.py:Qualname
doc/path`` (``#`` starts a comment); the doc path is relative to the
root, and the line fails the report when that doc does not contain the
qualname or when the package has no such function.

    python tools/reach/report.py --reach REACH_DIR

exits 0 when every public function was reached or is allowlisted, 1
otherwise.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


class Function(NamedTuple):
    path: str  # relative to the package's parent, e.g. "repro/sim/kernel.py"
    qualname: str
    first_line: int  # the first decorator's line, as in ``co_firstlineno``
    n_lines: int

    @property
    def name(self) -> str:
        return f"{self.path}:{self.qualname}"


def _is_stub(node: ast.FunctionDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "abstractmethod":
            return True
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if getattr(exc, "id", None) == "NotImplementedError":
                continue
        return False
    return True


class _Collector(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.scope: List[str] = []
        self.found: List[Function] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        names = self.scope + [node.name]
        if not any(n.startswith("_") for n in names) and not _is_stub(node):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            self.found.append(Function(
                self.path, ".".join(names), first,
                node.end_lineno - first + 1,
            ))
        # functions nested in this one are not counted

    visit_AsyncFunctionDef = visit_FunctionDef


def public_functions(package: Path) -> List[Function]:
    """Every public, non-stub function of ``package``, in file order."""
    found: List[Function] = []
    for file in sorted(package.rglob("*.py")):
        rel = file.relative_to(package.parent).as_posix()
        collector = _Collector(rel)
        collector.visit(ast.parse(file.read_text(), filename=str(file)))
        found.extend(collector.found)
    return found


def reached_keys(reach_dir: Path, package_name: str) -> Set[Tuple[str, int]]:
    """``(path relative to the package's parent, first line)`` of every
    recorded call into a directory named ``package_name``."""
    keys: Set[Tuple[str, int]] = set()
    for dump in reach_dir.glob("reach-*.txt"):
        for row in dump.read_text().splitlines():
            filename, first_line, _name = row.split("\t")
            parts = Path(filename).parts
            if package_name not in parts:
                continue
            at = len(parts) - 1 - parts[::-1].index(package_name)
            keys.add(("/".join(parts[at:]), int(first_line)))
    return keys


def read_allowlist(path: Path) -> Dict[str, str]:
    """``{"repro/path.py:Qualname": "doc/path"}``."""
    entries: Dict[str, str] = {}
    if not path.exists():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, doc = line.split()
            entries[name] = doc
    return entries


def check(
    functions: List[Function], package_name: str, reach_dir: Path, allowlist: Path, root: Path
) -> Iterator[str]:
    """Yield one line per failure: an unreached public function that is
    not allowlisted, or an allowlist line that does not hold."""
    reached = reached_keys(reach_dir, package_name)
    allowed = read_allowlist(allowlist)
    names = {f.name for f in functions}
    for name, doc in sorted(allowed.items()):
        doc_path = root / doc
        qualname = name.split(":", 1)[1]
        if name not in names:
            yield f"allowlisted but not a public function of {package_name}: {name}"
        elif not doc_path.is_file() or qualname not in doc_path.read_text():
            yield f"allowlisted with a doc that does not name it: {name} {doc}"
    for f in functions:
        if (f.path, f.first_line) not in reached and f.name not in allowed:
            yield f"unreached: {f.name} (line {f.first_line}, {f.n_lines} lines)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reach", type=Path, required=True,
                        help="directory the hook wrote (REACH_OUT)")
    parser.add_argument("--package", type=Path, default=ROOT / "src" / "repro")
    parser.add_argument("--allowlist", type=Path, default=HERE / "allowlist.txt")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="directory the allowlist's doc paths are relative to")
    args = parser.parse_args(argv)
    if not any(args.reach.glob("reach-*.txt")):
        print(f"no reach-*.txt files under {args.reach}", file=sys.stderr)
        return 1
    functions = public_functions(args.package)
    failures = list(check(functions, args.package.name, args.reach, args.allowlist, args.root))
    print(f"{len(functions)} public functions in {args.package.name}, "
          f"{len(failures)} failures")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
