"""One workload process: set up, warm up, then timed or traced passes.

Started by ``run.py`` with the source tree on ``PYTHONPATH``::

    python3 perfbench/worker.py PLAN.json MODE SECONDS

MODE is ``setup`` (set up, report ready, exit), ``timed`` or ``traced``.
The documents named in the plan sit in the plan's directory.
The process prints ``ready`` on its own line once set-up is done, and in
the two measuring modes one ``result`` line with a JSON object at the end.
Everything the program writes to stdout and stderr is captured per
operation, so this process's own stdout carries only those two lines.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

# -- set-up ------------------------------------------------------------


def setup(plan):
    """Import the program, load every document, build the corpora.

    Returns the state the operations share: the engine modules and the
    element-table corpus modules of the ``agree`` operations."""
    from adic_smith import cli

    engine = {}
    for name in plan["documents"]:
        try:
            doc = cli.load_document(name)
        except Exception:  # noqa: BLE001 - the hostile documents fail here too
            continue
        engine[name] = doc.modules
    tables = {}
    if any(op["kind"] == "agree" for op in plan["ops"]):
        from adic_smith.oracle import FiniteCorpus

        for ring in sorted({op["ring"] for op in plan["ops"] if op["kind"] == "agree"}):
            corpus = FiniteCorpus(ring, workloads.CORPUS_MAX_ORDER)
            tables[ring] = dict(zip(corpus.labels, corpus.modules))
    return {"engine": engine, "tables": tables}


# -- operations --------------------------------------------------------


def _additive_factors(M):
    """Cyclic factor orders of a finite engine module as an abelian group:
    Z/(d) has order |d|, and F_2[x]/(p) is (Z/2)^deg p here."""
    out = []
    for d in M.invariant_factors():
        if isinstance(d, int):
            if abs(d) != 1:
                out.append(abs(d))
        else:
            out += [2] * (len(d) - 1)
    if M.free_rank():
        raise ValueError("engine module is not finite")
    return sorted(out)


def run_agree(op, state):
    """Tensor and hom of one corpus pair, by the engine and by the tables."""
    from adic_smith.fpmod import HomModule, tensor
    from adic_smith.oracle import hom_count, hom_torsion_structure, tensor_by_elements

    modules = state["engine"][op["document"]]
    A, B = modules[op["a"]], modules[op["b"]]
    TA, TB = state["tables"][op["ring"]][op["a"]], state["tables"][op["ring"]][op["b"]]
    engine_tensor = _additive_factors(tensor(A, B))
    engine_hom = _additive_factors(HomModule(A, B).module)
    table_tensor = tensor_by_elements(TA, TB)
    try:
        hom_order, hom_factors = hom_torsion_structure(TA, TB)
        hom_factors = sorted(hom_factors)
    except ValueError:
        # scalar action mixes table generators: only the order is known
        hom_order, hom_factors = hom_count(TA, TB), None
    return {
        "engine_tensor": engine_tensor,
        "engine_tensor_order": math.prod(engine_tensor),
        "engine_hom": engine_hom,
        "engine_hom_order": math.prod(engine_hom),
        "table_tensor": sorted(table_tensor.invariant_factor_orders()),
        "table_tensor_order": len(table_tensor.elements),
        "table_hom": hom_factors,
        "table_hom_order": hom_order,
    }


def run_cli(argv):
    from adic_smith import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_op(op, state):
    if op["kind"] == "cli":
        return run_cli(op["argv"])
    return run_agree(op, state)


class Outcomes:
    """Per-operation bookkeeping across the passes of one run."""

    def __init__(self, ops):
        self.first = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors = []  # (op id, reason) of wrong or unexpected outcomes

    def record(self, i, op, result, exc):
        """Count one attempt; judge the first output, and every later one
        by byte identity with the first."""
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            if not op["expect_fault"]:
                self.errors.append((op["id"], f"raised {exc}"))
            return
        key = repr(result)
        if self.first[i] is None:
            self.first[i] = key
            why = workloads.check(op, result)
        else:
            why = None if key == self.first[i] else "output differs from the first pass"
        if why is not None:
            self.failed += 1
            self.errors.append((op["id"], why))


def one_pass(ops, state, outcomes, on_op_start=None):
    """Run every operation once; returns the pass's wall time.  Outputs
    are judged after the clock stops."""
    results = []
    clock = time.perf_counter
    t_pass = clock()
    for op in ops:
        if on_op_start is not None:
            on_op_start()
        try:
            res, exc = run_op(op, state), None
        except Exception as e:  # noqa: BLE001 - a fault of the program is a failed operation
            res, exc = None, f"{type(e).__name__}: {e}"[:200]
        results.append((res, exc))
    elapsed = clock() - t_pass
    for i, (op, (res, exc)) in enumerate(zip(ops, results)):
        outcomes.record(i, op, res, exc)
    return elapsed


# -- measuring ---------------------------------------------------------


def measure(plan, state, seconds, traced):
    ops = plan["ops"]
    outcomes = Outcomes(ops)
    one_pass(ops, state, outcomes)  # untimed warm-up; its outputs are checked
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    pass_s, layer_passes = [], []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        pass_s.append(one_pass(ops, state, outcomes, tracer.begin_op if tracer else None))
        if tracer is not None:
            layer_passes.append(tracer.snapshot())
    out = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "errors": outcomes.errors,
        "pass_s": pass_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracing.summarize(layer_passes)
        out["layer_counts_repeat"] = tracing.counts_repeat(layer_passes)
    return out


def main(argv):
    plan_path, mode, seconds = argv[1], argv[2], float(argv[3])
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(os.path.dirname(os.path.abspath(plan_path)))  # documents sit beside the plan
    state = setup(plan)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0
    result = measure(plan, state, seconds, traced=(mode == "traced"))
    sys.stdout.write("result " + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
