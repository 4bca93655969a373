"""The reach tool (``tools/reach``) on a small package of its own.

A script runs under the hook and calls some functions of a
``repro`` package built in ``tmp_path``, one of them only in a forked
child that leaves through ``os._exit`` and one only in a forked child
killed with ``SIGKILL``; the report must then name exactly the public
function nothing called, unless the allowlist names it with a doc that
documents it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reach"

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

MODULE = '''
import abc


def used():
    return 1


def unused():
    return 2


def forked_only():
    return 3


def killed_only():
    return 5


def _private():
    return 4


class Base(abc.ABC):
    @abc.abstractmethod
    def hook(self):
        """A stub: skipped."""

    def todo(self):
        raise NotImplementedError


class Thing:
    def __init__(self):
        self.n = used()

    @property
    def size(self):
        return self.n
'''

DRIVER = '''
import os
import signal

from repro import mod

mod.used()
print(mod.Thing().size)
pid = os.fork()
if pid == 0:
    mod.forked_only()
    os._exit(0)
os.waitpid(pid, 0)
pid = os.fork()
if pid == 0:
    mod.killed_only()
    os.kill(os.getpid(), signal.SIGKILL)
os.waitpid(pid, 0)
'''


@pytest.fixture
def tree(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    (tmp_path / "drive.py").write_text(textwrap.dedent(DRIVER))
    (tmp_path / "docs").mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=f"{TOOL}{os.pathsep}{tmp_path / 'src'}",
        REACH_OUT=str(tmp_path / "reach"),
    )
    subprocess.run([sys.executable, "drive.py"], cwd=tmp_path, env=env, check=True,
                   capture_output=True)
    return tmp_path


def report(tree, allowlist_lines=()):
    allowlist = tree / "allowlist.txt"
    allowlist.write_text("".join(f"{line}\n" for line in allowlist_lines))
    return subprocess.run(
        [sys.executable, str(TOOL / "report.py"), "--reach", str(tree / "reach"),
         "--package", str(tree / "src" / "repro"), "--allowlist", str(allowlist),
         "--root", str(tree)],
        capture_output=True, text=True,
    )


def test_hook_writes_one_file_per_process(tree):
    assert len(list((tree / "reach").glob("reach-*.txt"))) == 3


def test_report_fails_naming_only_the_unreached_public_function(tree):
    result = report(tree)
    assert result.returncode == 1, result.stdout + result.stderr
    failures = [line for line in result.stdout.splitlines() if line.startswith("unreached")]
    # forked_only and killed_only ran only in forked children, which
    # left through os._exit and SIGKILL: both count as reached.
    # Privates, dunders and stubs are not counted.
    assert [line.split()[1] for line in failures] == ["repro/mod.py:unused"]


def test_allowlisted_function_with_a_doc_that_names_it_passes(tree):
    (tree / "docs" / "api.md").write_text("`unused()` is kept for callers outside CI.\n")
    result = report(tree, ["repro/mod.py:unused docs/api.md  # a comment"])
    assert result.returncode == 0, result.stdout


def test_allowlist_doc_that_does_not_name_the_function_fails(tree):
    (tree / "docs" / "api.md").write_text("Nothing about it here.\n")
    result = report(tree, ["repro/mod.py:unused docs/api.md"])
    assert result.returncode == 1
    assert "does not name it: repro/mod.py:unused docs/api.md" in result.stdout


def test_allowlist_line_for_a_missing_function_fails(tree):
    (tree / "docs" / "api.md").write_text("unused gone\n")
    result = report(tree, ["repro/mod.py:unused docs/api.md", "repro/mod.py:gone docs/api.md"])
    assert result.returncode == 1
    assert "not a public function of repro: repro/mod.py:gone" in result.stdout
