"""Per-layer counters and spans, wrapped around the program from outside.

:meth:`Tracer.install` replaces public functions and methods of the
``adic_smith`` modules with wrappers that count calls and, for the timed
ones, add up the wall time of the outermost call (a call nested in one of
the same span is counted but not timed twice).  A module-level function
is replaced in every ``adic_smith`` module that imported it by name.  A
target the program no longer has is skipped, and its metrics read 0.

Only the traced run installs a tracer; the timed run never does.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, attribute path, span, timed?)
TARGETS = [
    ("tower", "truncate", "tower.truncate", True),
    ("tower", "SmithIdeal.mu", "tower.mu", True),
    ("tower", "SmithIdeal.tensor_power_of_ideal", "tower.tensor_power", False),
    ("fpmod", "tensor", "fpmod.tensor", True),
    ("fpmod", "FPModule.__init__", "fpmod.module", True),
    ("fpmod", "express_in", "fpmod.express_in", False),
    ("fpmod", "HomModule.__init__", "fpmod.hom", True),
    ("linalg", "smith_normal_form", "linalg.snf", True),
    ("linalg", "column_hermite", "linalg.hermite", True),
    ("linalg", "kron", "linalg.kron", False),
    ("linalg", "Matrix.__init__", "linalg.matrix", False),
    ("arrowcat", "pushout_product", "arrowcat.pushout_product", True),
    ("arrowcat", "ArrowMap.is_iso", "arrowcat.is_iso", False),
    ("almost", "almost_adic_check", "almost.adic_check", True),
    ("almost", "almost_iso_to_depth", "almost.iso_to_depth", False),
    ("monomial", "monomial_tower", "monomial.tower", True),
    ("oracle", "TensorTable.__init__", "oracle.tensor_table", True),
    ("oracle", "TableModule.__init__", "oracle.table_module", False),
    ("oracle", "hom_candidates", "oracle.hom_candidates", False),
    ("oracle", "hom_count", "oracle.hom", True),
    ("oracle", "enumerate_homs", "oracle.hom", True),
    ("oracle", "hom_torsion_structure", "oracle.hom", True),
    ("oracle", "check_monoidal_laws", "oracle.laws", True),
    ("cli", "load_document", "cli.load_document", True),
    ("cli", "emit", "cli.emit", True),
]

# Ring arithmetic: these methods of every ``rings.Ring`` subclass (the
# coefficient fields are not rings here and are not counted).
RING_METHODS = {"coerce_payload": "rings.coerce_payload", "mul": "rings.mul", "divmod_": "rings.divmod"}

# name -> unit; the order is the order of the report
METRICS = {
    "tower.truncate.calls": "count",
    "tower.truncate.s": "s",
    "tower.truncate.repeat_ratio": "ratio",
    "tower.mu.calls": "count",
    "tower.mu.s": "s",
    "tower.mu.tensor_gens": "count",
    "fpmod.tensor.calls": "count",
    "fpmod.tensor.s": "s",
    "fpmod.tensor.max_gens": "count",
    "fpmod.module.calls": "count",
    "fpmod.module.s": "s",
    "fpmod.express_in.calls": "count",
    "fpmod.hom.calls": "count",
    "fpmod.hom.s": "s",
    "linalg.snf.calls": "count",
    "linalg.snf.s": "s",
    "linalg.snf.max_cells": "count",
    "linalg.hermite.calls": "count",
    "linalg.hermite.s": "s",
    "linalg.kron.calls": "count",
    "linalg.kron.out_cells": "count",
    "linalg.matrix.calls": "count",
    "rings.coerce_payload.calls": "count",
    "rings.mul.calls": "count",
    "rings.divmod.calls": "count",
    "arrowcat.pushout_product.calls": "count",
    "arrowcat.pushout_product.s": "s",
    "arrowcat.is_iso.calls": "count",
    "almost.adic_check.s": "s",
    "almost.iso_to_depth.calls": "count",
    "monomial.tower.s": "s",
    "oracle.tensor_table.calls": "count",
    "oracle.tensor_table.s": "s",
    "oracle.table_module.calls": "count",
    "oracle.hom.assignments": "count",
    "oracle.hom.accept_ratio": "ratio",
    "oracle.hom.s": "s",
    "oracle.laws.s": "s",
    "cli.load_document.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "bytes",
}


class Span:
    __slots__ = ("calls", "s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.depth = 0


def _timed(fn, span, after):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span.calls += 1
        if span.depth:
            result = fn(*args, **kwargs)
        else:
            span.depth = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.s += clock() - t0
                span.depth = 0
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counted(fn, span, after):
    if after is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span.calls += 1
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    return wrapper


class Tracer:
    def __init__(self):
        self.spans = {}
        self.extra = dict.fromkeys(
            ("truncate_distinct", "tensor_gens", "tensor_max_gens", "snf_max_cells",
             "kron_out_cells", "hom_assignments", "homs_found", "emit_bytes"), 0)
        self._seen_levels = set()

    def reset(self):
        for span in self.spans.values():
            span.calls, span.s = 0, 0.0
        for key in self.extra:
            self.extra[key] = 0
        self._seen_levels = set()

    def begin_op(self):
        """Truncations are distinct per ideal object and level within one
        operation (each operation loads its own ideals)."""
        self.extra["truncate_distinct"] += len(self._seen_levels)
        self._seen_levels = set()

    def _span(self, name):
        return self.spans.setdefault(name, Span())

    # -- what each wrapper records beyond calls and time ---------------
    def _after(self, attr):
        x = self.extra

        def truncate(args, r):
            self._seen_levels.add((args[0], args[1]))

        def tensor_power(args, r):
            x["tensor_gens"] += r.ngens

        def tensor(args, r):
            x["tensor_max_gens"] = max(x["tensor_max_gens"], r.ngens)

        def snf(args, r):
            x["snf_max_cells"] = max(x["snf_max_cells"], args[0].m * args[0].n)

        def kron(args, r):
            x["kron_out_cells"] += r.m * r.n

        def candidates(args, r):
            n = 1
            for c in r:
                n *= len(c)
            x["hom_assignments"] += n

        def hom_count(args, r):
            x["homs_found"] += r

        def enumerate_homs(args, r):
            x["homs_found"] += len(r)

        def emit(args, r):
            x["emit_bytes"] += len(r.encode("utf-8"))

        return {
            "truncate": truncate,
            "tensor_power_of_ideal": tensor_power,
            "tensor": tensor,
            "smith_normal_form": snf,
            "kron": kron,
            "hom_candidates": candidates,
            "hom_count": hom_count,
            "enumerate_homs": enumerate_homs,
            "emit": emit,
        }.get(attr)

    def install(self):
        for mod_name in sorted({t[0] for t in TARGETS} | {"rings"}):
            try:
                importlib.import_module(f"adic_smith.{mod_name}")
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("adic_smith")]
        for mod_name, path, span_name, timed in TARGETS:
            mod = sys.modules.get(f"adic_smith.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                continue
            wrapper = (_timed if timed else _counted)(fn, self._span(span_name), self._after(attr))
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)
        rings = sys.modules.get("adic_smith.rings")
        base = getattr(rings, "Ring", None)
        for cls in list(vars(rings).values()) if rings else ():
            if not (isinstance(cls, type) and base is not None and issubclass(cls, base)):
                continue
            for attr, span_name in RING_METHODS.items():
                fn = vars(cls).get(attr)
                if fn is not None:
                    setattr(cls, attr, _counted(fn, self._span(span_name), None))

    def snapshot(self):
        """Metrics of the pass since the last reset."""
        self.begin_op()
        x = self.extra
        out = {}
        for name in METRICS:
            span_name, _, field = name.rpartition(".")
            if field in ("calls", "s"):
                out[name] = getattr(self.spans.get(span_name, Span()), field)
        out["tower.truncate.repeat_ratio"] = (
            out["tower.truncate.calls"] / x["truncate_distinct"] if x["truncate_distinct"] else 0.0
        )
        out["tower.mu.tensor_gens"] = x["tensor_gens"]
        out["fpmod.tensor.max_gens"] = x["tensor_max_gens"]
        out["linalg.snf.max_cells"] = x["snf_max_cells"]
        out["linalg.kron.out_cells"] = x["kron_out_cells"]
        out["oracle.hom.assignments"] = x["hom_assignments"]
        out["oracle.hom.accept_ratio"] = (
            x["homs_found"] / x["hom_assignments"] if x["hom_assignments"] else 0.0
        )
        out["cli.emit.bytes"] = x["emit_bytes"]
        return {name: out[name] for name in METRICS}


def _is_time(name):
    return METRICS[name] == "s"


def summarize(passes):
    """Counts from the first traced pass, times as the median over passes."""
    first = passes[0]
    return {
        name: statistics.median(p[name] for p in passes) if _is_time(name) else first[name]
        for name in METRICS
    }


def counts_repeat(passes):
    """Do all traced passes give identical counts?"""
    keys = [n for n in METRICS if not _is_time(n)]
    return all([p[n] for n in keys] == [passes[0][n] for n in keys] for p in passes)
