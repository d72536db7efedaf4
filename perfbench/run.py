"""Benchmark entry point: one workload, one seed, one timed or traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wide-ideals --seed 1 --seconds 20 --trace 0

The workload's documents and operations are generated from the seed into
``perfbench/_run/`` and handed to fresh ``worker.py`` processes, one at a
time, each running the source tree under ``src/`` with one thread.

``--trace 0`` starts the worker nine times: eight times for set-up alone
and once to set up, warm up and time whole passes for ``--seconds``
seconds.  It reports ``setup_s`` (median of the nine set-up times),
``pass_s`` and ``peak_rss_mb``.  ``--trace 1`` starts
one worker that wraps the program's layers (``tracer.py``) after its
warm-up pass and reports the per-layer metrics.  The last line of stdout
is one JSON object; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
# One run must end well within the 180 s a run may take.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process whose stdout is read line by line under a deadline."""

    def __init__(self, plan_path, mode, seconds, deadline):
        env = dict(os.environ)
        env.pop("ADIC_SMITH_THREADS", None)
        env["PYTHONPATH"] = SRC
        env["PYTHONHASHSEED"] = "0"
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, plan_path, mode, repr(seconds)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        self._buf = b""

    def readline(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = self.deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise WorkerError("worker ran past the run deadline")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise WorkerError(f"worker exited early with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode("utf-8")

    def ready(self) -> float:
        """Seconds from process start to the end of set-up."""
        if self.readline() != "ready":
            raise WorkerError("worker did not report ready")
        return time.perf_counter() - self.started

    def result(self):
        line = self.readline()
        if not line.startswith("result "):
            raise WorkerError("worker did not report a result")
        return json.loads(line[len("result "):])

    def finish(self):
        try:
            code = self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.stop()
            raise WorkerError("worker did not exit") from None
        self.proc.stdout.close()
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_worker(plan_path, mode, seconds, deadline):
    w = Worker(plan_path, mode, seconds, deadline)
    try:
        setup_s = w.ready()
        result = w.result() if mode != "setup" else None
        w.finish()
    except BaseException:
        w.stop()
        raise
    return setup_s, result


def write_plan(workload, seed):
    documents, ops = workloads.build(workload, seed)
    rundir = os.path.join(HERE, "_run", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(rundir)
    for name, doc in documents.items():
        with open(os.path.join(rundir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    plan_path = os.path.join(rundir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"documents": sorted(documents), "ops": ops}, fh, indent=1)
    return rundir, plan_path


def timed_metrics(plan_path, seconds, deadline):
    setups = [run_worker(plan_path, "setup", 0, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, res = run_worker(plan_path, "timed", seconds, deadline)
    setups.append(setup_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(res["pass_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    return res, metrics


def traced_metrics(plan_path, seconds, deadline):
    _, res = run_worker(plan_path, "traced", seconds, deadline)
    metrics = {name: (res["layers"][name], unit) for name, unit in tracer.METRICS.items()}
    metrics["trace.pass_s"] = (statistics.median(res["pass_s"]), "s")
    if not res["layer_counts_repeat"]:
        print("perfbench: per-layer counts differ between traced passes", file=sys.stderr)
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adic_smith", "__init__.py")):
        print(f"perfbench: no source tree at {SRC}/adic_smith", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    rundir, plan_path = write_plan(args.workload, args.seed)
    try:
        measure = traced_metrics if args.trace else timed_metrics
        res, metrics = measure(plan_path, args.seconds, deadline)
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for op_id, why in res["errors"]:
        print(f"perfbench: {op_id}: {why}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(res['pass_s'])} passes, "
        f"{res['attempted']} operations, {res['failed']} failed, "
        f"{len(res['errors'])} wrong or unexpected",
        file=sys.stderr,
    )
    for name, (value, unit) in metrics.items():
        print(f"perfbench:   {name} = {value:.6g} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not res["errors"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
