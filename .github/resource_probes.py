"""Budget-edge resource probes for ``verify-laws``.

Runs ``python -m adic_smith verify-laws --ring R --pair-bound 64
--triple-bound 32`` (both tuple bounds at the CLI's budget) for R = z4
and f2x, each in its own child process on this checkout's ``src/``, and
reads the child's peak RSS with ``os.wait4``.  Every probe must exit 0
and peak under LIMIT_MB.  Prints each probe's wall time and peak; exits
1 if any probe fails.

    python .github/resource_probes.py
"""

import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LIMIT_MB = 110
RINGS = ("z4", "f2x")


def probe(ring):
    """(exit code, wall seconds, peak RSS in MB) of one audit at the edge."""
    argv = [sys.executable, "-m", "adic_smith", "verify-laws", "--ring", ring,
            "--pair-bound", "64", "--triple-bound", "32"]
    env = {**os.environ, "PYTHONPATH": SRC}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, seconds, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main():
    failed = False
    for ring in RINGS:
        code, seconds, mb = probe(ring)
        ok = code == 0 and mb < LIMIT_MB
        failed |= not ok
        print(f"verify-laws --ring {ring}: exit {code}, {seconds:.2f} s, {mb:.1f} MB"
              f" ({'ok' if ok else f'FAIL: needs exit 0 and under {LIMIT_MB} MB'})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
