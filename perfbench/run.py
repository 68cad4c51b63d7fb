"""Run one workload of the tensorpls benchmark.

    python3 perfbench/run.py --workload {protocol,fit-large,score} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The workload runs in its own process with
the BLAS thread count pinned and the checkout's ``src`` on the import path;
its standard output is passed through, the last line being the result as
one JSON object. Exits non-zero, printing no result, when the checkout has
no ``src/tensorpls`` package, when an output check fails, or on timeout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: one client per workload on a 2-core machine, and the
# second core absorbs noise from the rest of the system.
BLAS_THREADS = 1
TIMEOUT_S = 170


def main() -> int:
    if not (ROOT / "src" / "tensorpls" / "__init__.py").is_file():
        print(f"error: no src/tensorpls package under {ROOT}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
