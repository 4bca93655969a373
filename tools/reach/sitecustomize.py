"""Record which functions of the ``repro`` package a process calls.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that holds one, so putting this directory on ``PYTHONPATH`` loads
it into every interpreter a command starts, spawned children included.
With ``REACH_OUT`` set it installs a profile hook on the main thread and
on every thread started later.  The first ``call`` event of each code
object (generator resumptions included) that lives in a ``repro``
package directory appends one ``path<TAB>first line<TAB>name`` row to
the process's own file, ``REACH_OUT/reach-<pid>.txt``.

Rows are written as they are found, not at exit, so a forked child that
leaves through ``os._exit`` and a process killed with ``SIGKILL`` (the
kill-9 campaign's component process, a killed orchestrator) still leave
what they ran.  A forked child inherits what its parent saw, which is
already in the parent's file.

``sys.setprofile(None)`` anywhere switches the hook off for that thread:
pytest-benchmark does so around every benchmarked call unless it runs
with ``--benchmark-disable``.
"""

import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_MARKER = os.sep + "repro" + os.sep
_seen = set()
_fd = None
_fd_pid = None


def _record(code):
    global _fd, _fd_pid
    filename = code.co_filename
    if _MARKER not in filename and not filename.startswith("repro" + os.sep):
        return
    pid = os.getpid()
    if _fd_pid != pid:  # first row of this process, or of a forked child
        path = os.path.join(_OUT, f"reach-{pid}.txt")
        _fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        _fd_pid = pid
    os.write(_fd, f"{filename}\t{code.co_firstlineno}\t{code.co_name}\n".encode())


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            _record(code)


if _OUT:
    _OUT = os.path.abspath(_OUT)
    os.makedirs(_OUT, exist_ok=True)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
