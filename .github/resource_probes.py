"""Resource probes: law audits at the budget edge, and a Q[x] Hermite cliff.

Runs ``python -m adic_smith verify-laws --ring R --pair-bound 64
--triple-bound 32`` (both tuple bounds at the CLI's budget) for R = z4
and f2x, each in its own child process on this checkout's ``src/``, and
reads the child's peak RSS with ``os.wait4``.  Every audit must exit 0
and peak under LIMIT_MB.

Then runs ``graded --levels 4`` on the Q[x] ideal (1/3*x^2 + 1/2,
x^3 - 2/5), whose one-row Hermite forms once swelled past a minute; it
must exit 0 within GRADED_LIMIT_S seconds.

Prints each probe's wall time and peak; exits 1 if any probe fails.

    python .github/resource_probes.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LIMIT_MB = 110
RINGS = ("z4", "f2x")
GRADED_LIMIT_S = 20
QX_DOC = {
    "rings": {"Qx": {"kind": "poly", "coeff": "rationals", "var": "x"}},
    "ideals": {"q": {"ring": "Qx", "generators": ["1/3*x^2 + 1/2", "x^3 - 2/5"]}},
}


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


def graded_probe():
    """(exit code or None on timeout, wall seconds) of the Q[x] graded run."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = os.path.join(tmp, "qx.json")
        with open(doc, "w") as f:
            json.dump(QX_DOC, f)
        argv = [sys.executable, "-m", "adic_smith", "graded", "--input", doc,
                "--ideal", "q", "--levels", "4"]
        env = {**os.environ, "PYTHONPATH": SRC}
        start = time.perf_counter()
        try:
            code = subprocess.run(argv, stdout=subprocess.DEVNULL, env=env,
                                  timeout=GRADED_LIMIT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
        return code, time.perf_counter() - start


def main():
    failed = False
    for ring in RINGS:
        code, seconds, mb = probe(ring)
        ok = code == 0 and mb < LIMIT_MB
        failed |= not ok
        print(f"verify-laws --ring {ring}: exit {code}, {seconds:.2f} s, {mb:.1f} MB"
              f" ({'ok' if ok else f'FAIL: needs exit 0 and under {LIMIT_MB} MB'})")
    code, seconds = graded_probe()
    ok = code == 0
    failed |= not ok
    print(f"graded --levels 4 on Q[x] (1/3*x^2 + 1/2, x^3 - 2/5): "
          f"{'timeout' if code is None else f'exit {code}'}, {seconds:.2f} s"
          f" ({'ok' if ok else f'FAIL: needs exit 0 within {GRADED_LIMIT_S} s'})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
