"""Measure one workload: ``python3 bench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

Runs the program from its source tree (``src/``) and exits with code 2,
printing no result, when that tree is missing.  See
:mod:`bench.measure` for what is measured and printed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    # Replace this script's directory on the path: the package's own
    # module names must not shadow the standard library.
    sys.path[0:1] = [str(ROOT), str(SRC)]
    from bench.measure import main

    sys.exit(main())
