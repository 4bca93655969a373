"""``python -m bench run`` and ``python -m bench compare``.

``run`` measures every workload of ``BENCHMARK.json`` at one seed, one
fresh process at a time (``bench/run.py``): an untraced process for the
end-to-end metrics, then a traced one for the per-layer metrics.  It
prints each process's table, writes the whole set as JSON with
``--out``, and exits nonzero when any iteration failed its oracle.
``--smoke`` runs tiny inputs, one iteration each.

``compare OLD.json NEW.json`` prints one verdict per workload and
end-to-end metric (see :mod:`bench.compare`) and exits nonzero on a
``worse`` verdict or a changed model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from bench.compare import compare

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
#: A measuring process that runs longer than this is killed.
CHILD_TIMEOUT_S = 180


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_set(names, seed: int, seconds: float, smoke: bool) -> dict:
    """Measure each workload untraced then traced; returns the set."""
    workloads = {}
    for name in names:
        entry = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            if smoke:
                cmd.append("--smoke")
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise SystemExit(f"bench: {name} --trace {trace} exited {proc.returncode}")
            print("\n".join(lines[:-2]), flush=True)
            entry["layers" if trace else "e2e"] = json.loads(lines[-2])
        workloads[name] = entry
    return {
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload at one seed")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--smoke", action="store_true", help="tiny inputs, one iteration each")
    run.add_argument("--out", help="write the set as JSON here")
    cmp = sub.add_parser("compare", help="compare two sets written by run --out")
    cmp.add_argument("old")
    cmp.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "compare":
        with open(args.old) as fh:
            old = json.load(fh)
        with open(args.new) as fh:
            new = json.load(fh)
        lines, ok = compare(old, new, spec)
        print("\n".join(lines))
        return 0 if ok else 1

    result = run_set(names, args.seed, spec["run_seconds"], args.smoke)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    failed = sum(e[k]["failed"] for e in result["workloads"].values() for k in e)
    print(f"bench: {len(names)} workloads, {failed} failed iteration(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
