"""Command-line front end: JSON documents in, deterministic reports out.

A document names rings, modules, ideals and maps; a command picks them
up by name and emits one report, as JSON (sorted keys, stable byte
output) or as flat key = value lines.

Loading parses and checks the whole document, so any bad entry exits 2
whichever entry the command names.  Rings, modules and maps are built at
load.  An ideal is parsed and checked at load, but its ``SmithIdeal``
is built only when a command or a map first reads it, at most once per
command; a document's other ideals cost only their parse.

Each command imports only the engine it runs.  ``rings``, ``linalg``,
``fpmod``, ``arrowcat`` and ``tower`` load with this module, since every
document command needs them; ``almost`` loads in ``almost`` (and for its
``--depth`` budget), ``monomial`` in ``tower --engine monomial`` and
``oracle`` in ``verify-laws``.  Without cached bytecode (as under
``PYTHONDONTWRITEBYTECODE``) every import compiles its module, and the
three engines cost about 2 MB of peak memory and 20-30 ms in a process
that never runs them.

Exit status: 0 all checks passed, 1 a verdict failed, 2 the input or
invocation was bad, 3 the program itself failed (any other exception,
``MemoryError`` and ``RecursionError`` included, and an engine invariant
such as a non-mono ideal inclusion), reported as one ``internal error:``
line on stderr with nothing on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .rings import GF, json_key, json_object, ring_from_json
from .linalg import Matrix
from .fpmod import FPModule, FPMap
from .arrowcat import ArrowMap
from .tower import (
    GradedPiece,
    SmithIdeal,
    Tower,
    check_analytic_equivalence,
    check_complete,
    check_module_complete,
    ModuleTower,
    yekutieli_compare,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Law-audit bounds: the corpus order (oracle.MAX_ORDER, held here so
# that checking it compiles no oracle) and the tuple bounds.  At the
# edge, verify-laws on z4 or f2x takes 5-6 s and about 81 MB on a
# 2-core machine; at --pair-bound 128 it ran past 60 s.
MAX_ORDER = 64
MAX_PAIR_BOUND = 64
MAX_TRIPLE_BOUND = 32


class InputError(ValueError):
    """A document or invocation problem, reported with its JSON path."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


# -- document loading -------------------------------------------------


def _entry(ring, value, path):
    if isinstance(value, int) and not isinstance(value, bool):
        return ring.from_int(value)
    if isinstance(value, str):
        try:
            return ring.parse(value)
        except ValueError as e:
            raise InputError(path, str(e)) from None
    raise InputError(path, f"expected an integer or element string, got {value!r}")


def _matrix_rows(ring, rows, shape, path) -> Matrix:
    m, n = shape
    if not isinstance(rows, list) or len(rows) != m or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise InputError(path, f"expected a {m}x{n} matrix (list of rows)")
    data = [
        [_entry(ring, x, f"{path}[{i}][{j}]") for j, x in enumerate(r)]
        for i, r in enumerate(rows)
    ]
    return Matrix(ring, data, shape=shape)


def _relation_cols(ring, cols, ngens, path):
    if not isinstance(cols, list):
        raise InputError(path, "expected a list of relation columns")
    out = []
    for j, c in enumerate(cols):
        if not isinstance(c, list) or len(c) != ngens:
            raise InputError(f"{path}[{j}]", f"relation column needs {ngens} entries")
        out.append([_entry(ring, x, f"{path}[{j}][{i}]") for i, x in enumerate(c)])
    return out


class InputDocument:
    """A loaded document.  ``ideals`` maps each name to its checked spec
    (algebra, generators, ambient modulus or None), and ``ideal(name)``
    builds the ``SmithIdeal`` on first read.  ``maps`` maps each name to
    (source ideal name, target ideal name, ``ArrowMap``)."""

    __slots__ = ("rings", "modules", "ideals", "maps", "_built")

    def __init__(self, rings, modules, ideals):
        self.rings = rings
        self.modules = modules
        self.ideals = ideals
        self.maps = {}
        self._built = {}

    def ideal(self, name: str) -> SmithIdeal:
        if name not in self._built:
            ring, gens, ambient = self.ideals[name]
            self._built[name] = SmithIdeal(ring, gens, ambient_modulus=ambient)
        return self._built[name]

    def need(self, table: str, name, flag: str):
        if name is None:
            raise InputError(flag, f"command needs {flag} naming an entry of {table!r}")
        pool = getattr(self, table)
        if name not in pool:
            have = ", ".join(sorted(pool)) or "none"
            raise InputError(f"{table}.{name}", f"no such entry (have: {have})")
        return self.ideal(name) if table == "ideals" else pool[name]


def _well_defined_or_explain(src: FPModule, dst: FPModule, mat: Matrix, path: str):
    """FPMap check with a diagnostic that names the first bad column."""
    for j, col in enumerate((mat * src.rel).cols()):
        if not dst.is_zero_vec(col):
            raise InputError(path, f"matrix does not respect relation column {j}")
    return FPMap(src, dst, mat, check=False)


def load_document(path: str) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise InputError(path, f"cannot read: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(path, f"not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise InputError("$", "document must be a JSON object")
    for key in raw:
        if key not in ("rings", "modules", "ideals", "maps"):
            raise InputError(key, "unknown top-level section")

    def entries(section, what):
        """(name, spec, path) of every entry, each spec checked to be an object."""
        node = json_object(raw.get(section, {}), "a section", section)
        return [
            (name, json_object(spec, what, f"{section}.{name}"), f"{section}.{name}")
            for name, spec in node.items()
        ]

    rings = {}
    for name, spec, path in entries("rings", "a ring spec"):
        rings[name] = ring_from_json(spec, path)

    def ring_of(spec, path):
        rname = json_key(spec, "ring", str, "a ring name", path)
        if rname not in rings:
            raise InputError(f"{path}.ring", f"unknown ring {rname!r}")
        return rings[rname]

    modules = {}
    for name, spec, path in entries("modules", "a module spec"):
        ring = ring_of(spec, path)
        ngens = json_key(spec, "generators", int, "a nonnegative integer", path)
        if ngens < 0:
            raise InputError(f"{path}.generators", "expected a nonnegative integer")
        cols = _relation_cols(ring, spec.get("relations", []), ngens, f"{path}.relations")
        modules[name] = FPModule(ring, ngens, cols)

    # Building a SmithIdeal from a checked spec raises no input error:
    # its ring is one ``ring_from_json`` builds, so ``algebra_split``
    # accepts it, and its entries are payloads of that ring already.
    ideals = {}
    for name, spec, path in entries("ideals", "an ideal spec"):
        ring = ring_of(spec, path)
        gens_spec = json_key(spec, "generators", list, "a list of elements", path)
        gens = [_entry(ring, g, f"{path}.generators[{i}]") for i, g in enumerate(gens_spec)]
        amb = spec.get("ambient_modulus")
        ambient = _entry(ring, amb, f"{path}.ambient_modulus") if amb is not None else None
        ideals[name] = (ring, gens, ambient)

    doc = InputDocument(rings, modules, ideals)
    for name, spec, path in entries("maps", "a map spec"):
        src = json_key(spec, "source", str, "an ideal name", path)
        dst = json_key(spec, "target", str, "an ideal name", path)
        if src not in ideals or dst not in ideals:
            raise InputError(path, "source and target must name ideals")
        S, D = doc.ideal(src), doc.ideal(dst)
        ring = S.base
        top_mat = _matrix_rows(ring, spec.get("top"), (len(D.gens), len(S.gens)), f"{path}.top")
        bot_mat = _matrix_rows(ring, spec.get("bottom"), (1, 1), f"{path}.bottom")
        top = _well_defined_or_explain(S.I, D.I, top_mat, f"{path}.top")
        bottom = _well_defined_or_explain(S.ambient, D.ambient, bot_mat, f"{path}.bottom")
        try:
            doc.maps[name] = (src, dst, ArrowMap(S.j, D.j, top, bottom))
        except ValueError as e:
            raise InputError(path, str(e)) from None

    return doc


# -- report plumbing --------------------------------------------------


def _mat_json(m: Matrix):
    return [[m.ring.format_elem(x) for x in row] for row in m.rows]


def emit(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []
    _flatten(report, "", lines)
    return "\n".join(lines) + "\n"


def _flatten(obj, path, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{path}.{k}" if path else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{path}[{i}]", out)
    else:
        out.append(f"{path} = {json.dumps(obj)}")


# -- command handlers -------------------------------------------------


def _monomial_field(text: str):
    if text in ("Q", "q", "rationals"):
        from .rings import QQ

        return QQ
    if text and text[0] in ("F", "f") and text[1:].isdigit():
        try:
            return GF(int(text[1:]))
        except ValueError as e:
            raise InputError("--ring", str(e)) from None
    raise InputError("--ring", f"expected Q or F<p>, got {text!r}")


def _var_names(text: str):
    """The names of ``--vars``: distinct identifiers, comma-separated."""
    names = [v.strip() for v in text.split(",")]
    for name in names:
        if not name.isidentifier():
            raise InputError("--vars", f"not a variable name: {name!r}")
    if len(set(names)) != len(names):
        raise InputError("--vars", f"duplicate variable names in {text!r}")
    return names


def cmd_tower(args, doc):
    if args.engine == "monomial":
        from .monomial import MonomialLocalRing, TowerTooLarge, default_var_names, monomial_tower, parse_monomial

        if not args.ideal:
            raise InputError("--ideal", "monomial engine needs --ideal with comma-separated monomials")
        names = default_var_names(1) if args.vars is None else _var_names(args.vars)
        field = _monomial_field(args.ring or "F2")
        try:
            gens = [parse_monomial(g, names) for g in args.ideal.split(",")]
            Rm = MonomialLocalRing(field, len(names), gens, names)
            report = monomial_tower(Rm, args.levels)
        except TowerTooLarge as e:
            raise InputError("--levels", str(e)) from None
        except ValueError as e:
            raise InputError("--ideal", str(e)) from None
        report["command"] = "tower"
        report["ok"] = all(lv["retruncation_consistent"] for lv in report["levels"])
        return report, report["ok"]

    ideal = doc.need("ideals", args.ideal, "--ideal")
    tower = Tower(ideal, args.levels)
    levels = tower.describe()
    ok = all(lv.get("transition_epi", True) and lv["power_map_vanishes"] for lv in levels)
    report = {
        "command": "tower",
        "engine": "pid",
        "ideal": args.ideal,
        "levels": levels,
        "ok": ok,
    }
    if args.with_certificates:
        report["certificates"] = [
            {
                "level": lv.n,
                "ideal_relations": _mat_json(lv.arrow.dom.rel),
                "algebra_relations": _mat_json(lv.arrow.cod.rel),
                "localization_top": _mat_json(lv.loc.top.mat),
                "localization_bottom": _mat_json(lv.loc.bottom.mat),
            }
            for lv in tower.levels
        ]
    return report, ok


def cmd_graded(args, doc):
    tower = Tower(doc.need("ideals", args.ideal, "--ideal"), args.levels)
    pieces = [GradedPiece(tower, n) for n in range(args.levels + 1)]
    levels = [p.describe() for p in pieces]
    ok = all(
        lv["comparison_is_iso"] and lv["transition_kernel_ses_exact"] and lv["kernel_matches_graded"]
        for lv in levels
    )
    report = {"command": "graded", "ideal": args.ideal, "levels": levels, "ok": ok}
    if args.with_certificates:
        report["certificates"] = [
            {
                "level": p.n,
                "comparison": _mat_json(p.comparison.mat),
                "kernel_inclusion": _mat_json(p.kernel_incl.top.mat),
            }
            for p in pieces
        ]
    return report, ok


def _level_map_certificates(verdict):
    out = []
    for e, lv in zip(verdict.entries, verdict.maps):
        if lv is None:
            out.append({"level": e["level"], "descent_failure": e["obstruction"]["descent"]})
        else:
            out.append(
                {"level": e["level"], "top": _mat_json(lv.top.mat), "bottom": _mat_json(lv.bottom.mat)}
            )
    return out


def cmd_complete_check(args, doc):
    ideal = doc.need("ideals", args.ideal, "--ideal")
    verdict = check_complete(ideal, args.levels)
    report = {"command": "complete-check", "ideal": args.ideal}
    report.update(verdict.describe())
    if args.with_certificates:
        report["certificates"] = _level_map_certificates(verdict)
    return report, verdict.ok


def cmd_analytic_check(args, doc):
    src, dst, phi = doc.need("maps", args.map, "--map")
    verdict = check_analytic_equivalence(doc.ideal(src), doc.ideal(dst), phi, args.levels)
    report = {"command": "analytic-check", "map": args.map}
    report.update(verdict.describe())
    if args.with_certificates:
        report["certificates"] = _level_map_certificates(verdict)
    return report, verdict.ok


def cmd_adic_module(args, doc):
    ideal = doc.need("ideals", args.ideal, "--ideal")
    M = doc.need("modules", args.module, "--module")
    mt = ModuleTower(ideal, M, args.levels)
    verdict = check_module_complete(mt)
    ok = verdict.ok and all(mt.transitions_epi.values())
    report = {
        "command": "adic-module",
        "ideal": args.ideal,
        "module": args.module,
        "tower": mt.describe(),
        "completeness": verdict.describe(),
        "ok": ok,
    }
    if args.with_certificates:
        report["certificates"] = [
            {
                "level": n,
                "ideal_relations": _mat_json(a.dom.rel),
                "algebra_relations": _mat_json(a.cod.rel),
            }
            for n, a in enumerate(mt.levels)
        ]
    return report, ok


def cmd_yekutieli(args, doc):
    ideal = doc.need("ideals", args.ideal, "--ideal")
    if args.levels < 1:
        raise InputError("--levels", "needs at least one level")
    entries = yekutieli_compare(ideal, args.levels)
    ok = all(
        e["map_image_to_power_iso"] and e["map_power_to_limit_iso"] and e["composite_iso"]
        for e in entries
    )
    report = {
        "command": "yekutieli",
        "ideal": args.ideal,
        "level": args.levels,
        "powers": entries,
        "ok": ok,
    }
    return report, ok


def cmd_almost(args, doc):
    from .almost import AlmostContext, AlmostModule, almost_adic_check, almost_zero_to_depth

    K = args.depth
    ctx = AlmostContext(GF(2), K)
    R0 = ctx.ring(0)
    t = R0.gen
    if args.witness:
        RK = ctx.ring(K)
        ideal = SmithIdeal(RK, [ctx.lift(t, 0, K)])
        M = FPModule(RK, 2, [[RK.zero, RK.gen]])
        am = AlmostModule(ctx, K, M)
    else:
        ideal = SmithIdeal(R0, [t])
        am = AlmostModule(ctx, 0, FPModule(R0, 1))
    grid = almost_adic_check(ctx, ideal, am, args.levels, K)

    v_mod_t = AlmostModule(ctx, 0, FPModule.cyclic(R0, t))
    vz = almost_zero_to_depth(v_mod_t, K)
    v_not_almost_zero_at_1 = (K >= 1) and not vz.at(1)

    # succeeding at a depth must imply succeeding at every shallower one
    oks = [grid.ok_at_depth[e] for e in sorted(grid.ok_at_depth)]
    monotone = all(oks[i] or not oks[i + 1] for i in range(len(oks) - 1))
    ok = grid.exact_ok and all(oks) and v_not_almost_zero_at_1 and monotone
    report = {
        "command": "almost",
        "context": ctx.describe(),
        "witness": bool(args.witness),
        "module": am.describe(),
        "grid": grid.describe(),
        "v_mod_t_almost_zero": vz.describe(),
        "v_mod_t_not_almost_zero_at_depth_1": v_not_almost_zero_at_1,
        "depth_monotone": monotone,
        "ok": ok,
    }
    if args.with_certificates:
        report["certificates"] = {
            "multipliers": {
                str(e): ctx.ring(K).format_elem(ctx.multiplier(e, K)) for e in range(K + 1)
            }
        }
    return report, ok


def cmd_verify_laws(args, doc):
    from .oracle import LAW_NAMES, FiniteCorpus, check_monoidal_laws

    ring = args.ring or "z4"
    if ring not in ("z2", "z3", "z4", "f2x"):
        raise InputError("--ring", f"law corpora exist over z2, z3, z4, f2x; got {ring!r}")
    laws = "all" if args.laws in (None, "all") else tuple(x.strip() for x in args.laws.split(","))
    if laws != "all":
        unknown = [x for x in laws if x not in LAW_NAMES]
        if unknown:
            raise InputError("--laws", f"unknown laws {unknown}; have {', '.join(LAW_NAMES)}")
    corpus = FiniteCorpus(ring, args.max_order)
    report = check_monoidal_laws(
        corpus, laws=laws, pair_bound=args.pair_bound, triple_bound=args.triple_bound
    )
    report["command"] = "verify-laws"
    report["ok"] = report["all_pass"]
    return report, report["ok"]


HANDLERS = {
    "tower": cmd_tower,
    "graded": cmd_graded,
    "complete-check": cmd_complete_check,
    "analytic-check": cmd_analytic_check,
    "adic-module": cmd_adic_module,
    "yekutieli": cmd_yekutieli,
    "almost": cmd_almost,
    "verify-laws": cmd_verify_laws,
}

NEEDS_DOCUMENT = ("graded", "complete-check", "analytic-check", "adic-module", "yekutieli")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one (``parse_args`` leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="FILE", help="JSON document with rings/modules/ideals/maps")
    common.add_argument("--levels", type=int, default=4, metavar="N", help="tower depth (default 4)")
    common.add_argument("--depth", type=int, default=6, metavar="K", help="almost-layer depth bound (default 6)")
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--with-certificates", action="store_true", help="attach matrices to the report")
    common.add_argument("--engine", choices=("pid", "monomial"), default="pid")
    common.add_argument("--ideal", help="ideal name in the document, or monomial list for --engine monomial")
    common.add_argument("--module", help="module name in the document")
    common.add_argument("--map", help="map name in the document")
    common.add_argument("--vars", help="comma-separated variable names (monomial engine)")
    common.add_argument("--ring", help="Q or F<p> (monomial engine); corpus name (verify-laws)")
    common.add_argument("--max-order", type=int, default=16, help="corpus size bound (verify-laws)")
    common.add_argument("--laws", help="comma-separated law names, or all (verify-laws)")
    common.add_argument("--pair-bound", type=int, default=16, help=argparse.SUPPRESS)
    common.add_argument("--triple-bound", type=int, default=8, help=argparse.SUPPRESS)
    common.add_argument("--witness", action="store_true", help="run the torsion witness (almost)")

    parser = argparse.ArgumentParser(
        prog="adic-smith",
        description="Taylor towers, completion checks and coherence law audits for ideal inclusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("tower", "truncation tower of an ideal inclusion"),
        ("graded", "graded pieces, comparison isos and kernel shapes"),
        ("complete-check", "level-wise completeness of the truncation limit"),
        ("analytic-check", "does a map induce level isos"),
        ("adic-module", "tower of a module against an ideal, with consistency"),
        ("yekutieli", "three power routes at a truncation level"),
        ("almost", "exact vs almost completeness over the dyadic ladder"),
        ("verify-laws", "exhaustive coherence laws over a finite corpus"),
    ):
        sub.add_parser(name, parents=[common], help=blurb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command in NEEDS_DOCUMENT or (args.command == "tower" and args.engine == "pid"):
        if not args.input:
            sys.stderr.write(f"input error: --input: {args.command} needs a document\n")
            return EXIT_INPUT
    for flag, value, least in (
        ("--levels", args.levels, 0),
        ("--depth", args.depth, 0),
        ("--max-order", args.max_order, 1),
        ("--pair-bound", args.pair_bound, 1),
        ("--triple-bound", args.triple_bound, 1),
    ):
        if value < least:
            sys.stderr.write(f"input error: {flag}: must be >= {least}, got {value}\n")
            return EXIT_INPUT
    for flag, value, most in (
        ("--max-order", args.max_order, MAX_ORDER),
        ("--pair-bound", args.pair_bound, MAX_PAIR_BOUND),
        ("--triple-bound", args.triple_bound, MAX_TRIPLE_BOUND),
    ):
        if value > most:
            sys.stderr.write(f"input error: {flag}: must be <= {most}, got {value}\n")
            return EXIT_INPUT
    if args.command == "almost":
        from .almost import MAX_DEPTH

        if args.depth > MAX_DEPTH:
            sys.stderr.write(f"input error: --depth: must be <= {MAX_DEPTH}, got {args.depth}\n")
            return EXIT_INPUT
    if args.command != "tower" and args.engine == "monomial":
        sys.stderr.write("input error: --engine: only tower supports the monomial engine\n")
        return EXIT_INPUT
    try:
        doc = load_document(args.input) if args.input else None
        report, ok = HANDLERS[args.command](args, doc)
        text = emit(report, args.format)
    except ValueError as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    except Exception as e:
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
