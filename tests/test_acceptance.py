"""Gate suite: eleven end-to-end checks, one verdict line each.

Every check recomputes its expected values through an independent
route (closed forms, element tables, or the CLI as a black box) and
prints ``[criterion NN] PASS/FAIL`` with a short summary, so a full
run reads as an eleven-line report.  Values that look like magic numbers
(tuple counts, obstruction factor lists) were derived once from the
table oracles and are frozen here on purpose: a change in any engine
that shifts them should fail loudly.
"""

import contextlib
import io
import json
import random

import pytest

from adic_smith.almost import (
    AlmostContext,
    AlmostModule,
    almost_adic_check,
    almost_zero_to_depth,
)
from adic_smith import tower as tower_module
from adic_smith.arrowcat import (
    Arrow,
    adjoint_transpose,
    adjoint_transpose_back,
    adjunction_counit,
    adjunction_unit,
    all_arrow_maps,
    box_assoc,
    box_symmetry,
    box_unit_arrow,
    cok_box_comparison,
    cok_functor,
    ker_functor,
    ker_lax_comparison,
    pushout_product,
    tensor_arrows,
    tensor_arrows_assoc,
    tensor_arrows_symmetry,
    tensor_unit_arrow,
)
from adic_smith.cli import main as cli_main
from adic_smith.fpmod import FPMap, FPModule, HomModule, tensor
from adic_smith.linalg import Matrix, kernel_basis, matvec, smith_normal_form, solve_linear
from adic_smith.monomial import MonomialLocalRing, monomial_tower, parse_monomial
from adic_smith.oracle import (
    BoxTables,
    FiniteCorpus,
    _swap_map,
    all_table_arrows,
    check_monoidal_laws,
    cok_arrow,
    cokernel_table,
    count_arrow_squares,
    hom_candidates,
    hom_count,
    hom_torsion_structure,
    kernel_table,
    tensor_by_elements,
)
from adic_smith.rings import GF, QQ, IntegerRing, PolyRing
from adic_smith.tower import (
    GradedPiece,
    ModuleTower,
    SmithIdeal,
    Tower,
    check_complete,
    check_module_complete,
    truncation_composition,
    yekutieli_compare,
)

ZZ = IntegerRing()
F2x = PolyRing(GF(2), "x")
Qx = PolyRing(QQ, "x")
X = (0, 1)


def _verdict(num, label, ok):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {label}"
    print(line)
    assert ok, line


def _rand_poly(rng, ring=F2x, coeff_bound=1, max_deg=2):
    acc = ring.zero
    for i in range(rng.randint(0, max_deg) + 1):
        c = rng.randint(0, coeff_bound)
        if c:
            acc = ring.add(acc, ring.mul(ring.from_int(c), ring.pow(ring.gen, i)))
    return acc


# -- 1: certified diagonalization on 1000 random matrices -------------


def _check_certificate(ring, A, rng, sample):
    cert = smith_normal_form(A)
    ok = cert.U * A * cert.V == cert.D
    ok &= cert.U * cert.U_inv == Matrix.identity(ring, A.m)
    ok &= cert.V * cert.V_inv == Matrix.identity(ring, A.n)
    diag = cert.diagonal()
    for i in range(len(diag) - 1):
        if diag[i] != ring.zero:
            ok &= ring.divmod_(diag[i + 1], diag[i])[1] == ring.zero
        else:
            ok &= diag[i + 1] == ring.zero
    x0 = [sample(rng) for _ in range(A.n)]
    b = matvec(A, x0)
    sol = solve_linear(A, b, cert)
    ok &= sol is not None and matvec(A, sol) == b
    K = kernel_basis(A, cert)
    ok &= K.n == A.n - cert.rank
    for j in range(K.n):
        ok &= all(v == ring.zero for v in matvec(A, K.col(j)))
    return ok


def test_criterion_01_certified_smith_forms():
    rng = random.Random(977)
    bad = 0
    for _ in range(500):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        A = Matrix(ZZ, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        bad += not _check_certificate(ZZ, A, rng, lambda r: r.randint(-4, 4))
    for _ in range(500):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        A = Matrix(F2x, [[_rand_poly(rng) for _ in range(n)] for _ in range(m)])
        bad += not _check_certificate(F2x, A, rng, _rand_poly)
    _verdict(1, f"1000 random matrices, dims <= 12, {1000 - bad}/1000 certified", bad == 0)


# -- 2: exhaustive coherence laws over both finite corpora ------------

LAW_TUPLE_COUNTS = {
    "tensor_symmetry": 293,
    "tensor_assoc": 165,
    "box_symmetry": 293,
    "box_assoc": 165,
    "cok_monoidal": 293,
    "ker_lax": 293,
    "triangle_identities": 83,
    "embed_adjunctions": 135,
    "cok_ker_adjunction": 293,
}


def test_criterion_02_law_sweeps():
    ok = True
    checked = 0
    for ring in ("z4", "f2x"):
        corpus = FiniteCorpus(ring, 16)
        ok &= corpus.module_count() == 9
        rep = check_monoidal_laws(corpus, pair_bound=16, triple_bound=8)
        ok &= rep["arrow_pool"] == 83
        ok &= rep["all_pass"] is True
        for law, want in LAW_TUPLE_COUNTS.items():
            got = rep["laws"][law]
            ok &= got["tuples"] == want and got["failures"] == []
            checked += got["tuples"]
    _verdict(2, f"nine laws over z4 and f2x, {checked} tuples, zero failures", ok)


# -- 3: prime and variable towers at depth six ------------------------


def test_criterion_03_tower_fixtures():
    N = 6
    ok = True
    fixtures = [(SmithIdeal(ZZ, [p]), str(p), lambda n, p=p: str(p ** (n + 1))) for p in (2, 3, 5)]
    fixtures += [
        (SmithIdeal(R, [X]), "x", lambda n: "x" if n == 0 else f"x^{n + 1}")
        for R in (Qx, F2x)
    ]
    for ideal, gfac, bottom in fixtures:
        tower = Tower(ideal, N)
        for n, lv in enumerate(tower.describe()):
            ok &= lv["invariant_factors_algebra"] == [bottom(n)]
            ok &= lv["power_map_vanishes"] and lv.get("transition_epi", True)
        for n in range(N + 1):
            g = GradedPiece(tower, n).describe()
            ok &= g["graded_invariant_factors"] == [gfac]
            ok &= g["comparison_is_iso"]
        for y in yekutieli_compare(ideal, N):
            ok &= y["map_image_to_power_iso"] and y["map_power_to_limit_iso"] and y["composite_iso"]
    _verdict(3, "five towers at N=6: bottoms, graded pieces, power routes", ok)


# -- shared ideal corpus for 4 and 5 ----------------------------------

X4 = (0, 0, 0, 0, 1)


def ideal_corpus():
    return [
        SmithIdeal(ZZ, [2]),
        SmithIdeal(ZZ, [3]),
        SmithIdeal(ZZ, [5]),
        SmithIdeal(ZZ, [4]),
        SmithIdeal(ZZ, [6]),
        SmithIdeal(ZZ, [9]),
        SmithIdeal(F2x, [X]),
        SmithIdeal(Qx, [X]),
        SmithIdeal(Qx, [(0, 0, 1)]),
        SmithIdeal(ZZ, [2], ambient_modulus=8),
        SmithIdeal(ZZ, [3], ambient_modulus=27),
        SmithIdeal(F2x, [X], ambient_modulus=X4),
        SmithIdeal(F2x, [(0, 0, 1)], ambient_modulus=X4),
        SmithIdeal(ZZ, [0]),
    ]


def test_criterion_04_graded_exact_sequences():
    pairs = ideal_corpus()
    assert len(pairs) >= 12
    failures = 0
    for ideal in pairs:
        tower = Tower(ideal, 5)
        for n in range(6):
            g = GradedPiece(tower, n).describe()
            good = (
                g["transition_kernel_ses_exact"]
                and g["comparison_is_iso"]
                and g["kernel_matches_graded"]
            )
            failures += not good
    _verdict(
        4,
        f"{len(pairs)} ideal pairs x levels 0..5: kernel sequences and graded isos, "
        f"{failures} failures",
        failures == 0,
    )


def test_criterion_05_completeness_and_idempotence():
    ok = True
    pairs = ideal_corpus()
    for ideal in pairs:
        ok &= check_complete(ideal, 5).ok
        free = FPModule(ideal.base, 1)
        torsion = FPModule(ideal.base, 1, [[ideal.base.mul(g, g)] for g in ideal.gens])
        for M in (free, torsion):
            mt = ModuleTower(ideal, M, 5)
            ok &= check_module_complete(mt).ok
            ok &= all(mt.transitions_epi.values())
    for ideal in pairs:
        for m in range(6):
            for n in range(6):
                _, iso = truncation_composition(ideal, m, n)
                ok &= iso
    _verdict(5, "completeness at N=5 and truncation idempotence for all m,n <= 5", ok)


# -- 6: the analytic negative control through the CLI -----------------

NEGATIVE_DOC = {
    "rings": {"Z": {"kind": "integers"}},
    "ideals": {
        "p": {"ring": "Z", "generators": [2]},
        "p2": {"ring": "Z", "generators": [4]},
    },
    "maps": {"into_square": {"source": "p", "target": "p2", "top": [[1]], "bottom": [[2]]}},
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_06_negative_control(tmp_path):
    doc = tmp_path / "negative.json"
    doc.write_text(json.dumps(NEGATIVE_DOC))
    code, out, _ = run_cli(
        ["analytic-check", "--input", str(doc), "--map", "into_square", "--levels", "3"]
    )
    rep = json.loads(out) if out else {}
    first = rep.get("levels", [{}])[0].get("obstruction", {})
    ok = (
        code == 1
        and rep.get("ok") is False
        and rep.get("first_failure") == 0
        and first.get("algebra_source") == ["2"]
        and first.get("algebra_target") == ["4"]
    )
    _verdict(6, "(p) -> (p^2) rejected: exit 1, Z/2 vs Z/4 at the first level", ok)


# -- 7: the almost layer separates exact from almost ------------------


def test_criterion_07_almost_layer():
    N, K = 4, 6
    ctx = AlmostContext(GF(2), K)
    R0 = ctx.ring(0)
    ok = True

    base = almost_adic_check(ctx, SmithIdeal(R0, [R0.gen]), AlmostModule(ctx, 0, FPModule(R0, 1)), N, K)
    ok &= base.exact_ok and all(base.ok_at_depth.values())

    RK = ctx.ring(K)
    witness_ideal = SmithIdeal(RK, [ctx.lift(R0.gen, 0, K)])
    witness = AlmostModule(ctx, K, FPModule(RK, 2, [[RK.zero, RK.gen]]))
    sep = almost_adic_check(ctx, witness_ideal, witness, N, K)
    ok &= (not sep.exact_ok) and all(sep.ok_at_depth.values())

    vz = almost_zero_to_depth(AlmostModule(ctx, 0, FPModule(R0, 1, [[R0.gen]])), K)
    ok &= vz.at(0) and not vz.at(1)

    for grid in (base, sep):
        oks = [grid.ok_at_depth[e] for e in sorted(grid.ok_at_depth)]
        ok &= all(oks[i] or not oks[i + 1] for i in range(len(oks) - 1))
    _verdict(7, "grid at N=4, K=6: witness separates exact from almost; depths monotone", ok)


# -- 8: monomial backend against the single-variable engine -----------


def test_criterion_08_cross_engine():
    ok = True
    for field, R in ((GF(2), F2x), (QQ, Qx)):
        for power in (1, 2):
            gen_payload = R.pow(R.gen, power)
            pid_levels = Tower(SmithIdeal(R, [gen_payload]), 8).levels
            mono = MonomialLocalRing(field, 1, [parse_monomial("x" + ("" if power == 1 else f"^{power}"), ["x"])], ["x"])
            rep = monomial_tower(mono, 8)
            for lv, mlv in zip(pid_levels, rep["levels"]):
                ok &= mlv["algebra_dim"] == lv.arrow.cod.dim_over_field()
                ok &= mlv["ideal_dim"] == lv.arrow.dom.dim_over_field()
    xy = MonomialLocalRing(GF(2), 2, [parse_monomial("x", ["x", "y"]), parse_monomial("y", ["x", "y"])], ["x", "y"])
    rep = monomial_tower(xy, 4)
    ok &= [lv["algebra_dim"] for lv in rep["levels"]] == [1, 3, 6, 10, 15]
    ok &= [lv["graded_dim"] for lv in rep["levels"]] == [1, 2, 3, 4, 5]
    ok &= rep["levels"][-1]["transition_epi"] and all(
        lv["retruncation_consistent"] for lv in rep["levels"]
    )
    _verdict(8, "monomial engine matches the PID engine (r=1, N=8) and binomial table (r=2)", ok)


# -- 9: engine vs element tables on every corpus pair -----------------


def _engine_z4(lab):
    parts = [] if lab == "0" else [int(p) for p in lab.split("+")]
    cols = [[0] * i + [d] + [0] * (len(parts) - 1 - i) for i, d in enumerate(parts)]
    return FPModule(ZZ, len(parts), cols)


def _engine_f2x(lab):
    ann = {"k": X, "R": (0, 0, 1)}
    parts = [] if lab == "0" else [ann[p] for p in lab.split("+")]
    cols = [
        [F2x.zero] * i + [a] + [F2x.zero] * (len(parts) - 1 - i) for i, a in enumerate(parts)
    ]
    return FPModule(F2x, len(parts), cols)


def _additive_factors_z4(M):
    return sorted(abs(d) for d in M.invariant_factors() if d not in (1, -1))


def _additive_factors_f2x(M):
    out = []
    for p in M.invariant_factors():
        out += [2] * (len(p) - 1)
    return sorted(out)


def test_criterion_09_engine_oracle_agreement():
    mismatches = 0
    pairs = enum_checked = 0
    for name, eng, addfac in (("z4", _engine_z4, _additive_factors_z4), ("f2x", _engine_f2x, _additive_factors_f2x)):
        corpus = FiniteCorpus(name, 16)
        engines = {lab: eng(lab) for lab in corpus.labels}
        for la, Ma in zip(corpus.labels, corpus.modules):
            for lb, Mb in zip(corpus.labels, corpus.modules):
                pairs += 1
                T = tensor_by_elements(Ma, Mb)
                Te = tensor(engines[la], engines[lb])
                mismatches += addfac(Te) != sorted(T.invariant_factor_orders())

                H = HomModule(engines[la], engines[lb]).module
                engine_factors = addfac(H)
                engine_order = 1
                for f in engine_factors:
                    engine_order *= f
                total, factors = hom_torsion_structure(Ma, Mb)
                mismatches += sorted(factors) != engine_factors
                mismatches += total != engine_order

                cand = 1
                for pool in hom_candidates(Ma, Mb):
                    cand *= len(pool)
                if cand <= 1024:
                    enum_checked += 1
                    mismatches += hom_count(Ma, Mb) != engine_order
    _verdict(
        9,
        f"tensor and hom on {pairs} corpus pairs ({enum_checked} re-enumerated), "
        f"{mismatches} mismatches",
        mismatches == 0,
    )


# -- 10: the command line is deterministic and exits honestly ---------


def test_criterion_10_cli_contract(tmp_path, monkeypatch):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(NEGATIVE_DOC))
    d = str(doc)
    ok = True

    argv = ["tower", "--input", d, "--ideal", "p", "--levels", "4"]
    code, first, _ = run_cli(argv)
    ok &= code == 0
    _, again, _ = run_cli(argv)
    ok &= first == again
    _, third, _ = run_cli(argv)
    ok &= third == first

    exit_matrix = [
        (["complete-check", "--input", d, "--ideal", "p", "--levels", "3"], 0),
        (["verify-laws", "--ring", "z2", "--max-order", "4", "--pair-bound", "8"], 0),
        (["analytic-check", "--input", d, "--map", "into_square"], 1),
        (["almost", "--depth", "3", "--levels", "2", "--witness"], 1),
        (["tower", "--ideal", "p"], 2),
        (["graded", "--input", d, "--ideal", "missing"], 2),
        (["verify-laws", "--laws", "made_up"], 2),
    ]
    for argv, want in exit_matrix:
        code, _, _ = run_cli(argv)
        ok &= code == want

    # an engine fault is neither a verdict nor bad input: exit 3, one line
    def fault(*args, **kwargs):
        raise AssertionError("injected")

    with monkeypatch.context() as m:
        m.setattr(tower_module, "truncate", fault)
        code, out, err = run_cli(["tower", "--input", d, "--ideal", "p", "--levels", "2"])
    ok &= (code, out, err) == (3, "", "internal error: AssertionError: injected\n")

    for argv in (
        ["tower", "--input", d, "--ideal", "p", "--levels", "3"],
        ["yekutieli", "--input", d, "--ideal", "p", "--levels", "2"],
        ["almost", "--depth", "2", "--levels", "2"],
    ):
        _, out, _ = run_cli(argv)
        rep = json.loads(out)
        ok &= json.dumps(rep, sort_keys=True, indent=2) + "\n" == out
    _verdict(10, "byte-identical reruns, honest exit matrix, internal faults apart, JSON round-trips", ok)


# -- 11: the engine's arrow category against the oracle's tables ------


# (zero, one) of a corpus factor's names: 0 and 1, except the regular
# F_2[x]/(x^2)-module R, whose names are the pairs (a, b) for a + b*x
_FACTOR_UNITS = {"R": ((0, 0), (1, 0))}


def _unit_name(lab, i):
    """The name of the i-th unit tuple of the corpus module ``lab``."""
    units = [_FACTOR_UNITS.get(p, (0, 1)) for p in lab.split("+")]
    return tuple(one if j == i else zero for j, (zero, one) in enumerate(units))


def _unit_elements(M, lab, engine):
    """The table elements of the engine module's generators: the unit tuples."""
    index = {name: x for x, name in enumerate(M.names)}
    return [index[_unit_name(lab, i)] for i in range(engine.ngens)]


def _engine_arrow(a, labels, engines):
    """The table arrow a as an engine arrow: column i is the table image
    of the i-th unit tuple, whose name lists its engine coordinates."""
    src, dst = engines[labels[id(a.src)]], engines[labels[id(a.dst)]]
    cols = [a.dst.names[a.f[x]] for x in _unit_elements(a.src, labels[id(a.src)], src)]
    return Arrow(FPMap(src, dst, [[c[r] for c in cols] for r in range(dst.ngens)]))


def _scalar_index(ring):
    """An engine scalar as an element of the corpus ring: Z mod 4, or
    F_2[x] mod x^2, whose names are the pairs (a, b) for a + b*x."""
    index = {name: r for r, name in enumerate(ring.names)}
    if ring.name == "z4":
        return lambda c: index[c % 4]
    return lambda c: index[(tuple(c) + (0, 0))[:2]]


def _table_value(M, scalar, vec, images):
    """sum of vec[k] * images[k] in the table module M, for engine scalars."""
    y = M.zero
    for c, g in zip(vec, images):
        if c:
            y = M.add(y, M.act[scalar(c)][g])
    return y


def _symmetry_mismatches(sym, bab, bba, units_a, units_b, scalar):
    """How many of the top and bottom maps of the engine's box symmetry
    a box b -> b box a differ, on generators, from the oracle's swap."""
    a, b = bab.a, bab.b
    (x0, x1), (y0, y1) = units_a, units_b
    swap_u = _swap_map(bab.T01, a.src, b.dst, bba.T10)
    swap_v = _swap_map(bab.T10, a.dst, b.src, bba.T01)
    s11 = _swap_map(bab.T11, a.dst, b.dst, bba.T11)
    z01, z10 = bba.T01.module.zero, bba.T10.module.zero
    # engine generators of b box a, in block order: Y0 X1, then Y1 X0
    gens_ba = [bba.project(bba.T01.pairing(n, m), z10) for n in y0 for m in x1]
    gens_ba += [bba.project(z01, bba.T10.pairing(n, m)) for n in y1 for m in x0]
    want_top = [bba.project(z01, swap_u[bab.T01.pairing(m, n)]) for m in x0 for n in y1]
    want_top += [bba.project(swap_v[bab.T10.pairing(m, n)], z10) for m in x1 for n in y0]
    gens_11 = [bba.T11.pairing(n, m) for n in y1 for m in x1]
    want_bottom = [s11[bab.T11.pairing(m, n)] for m in x1 for n in y1]
    top = [_table_value(bba.P, scalar, c, gens_ba) for c in sym.top.mat.cols()]
    bottom = [_table_value(bba.T11.module, scalar, c, gens_11) for c in sym.bottom.mat.cols()]
    return (top != want_top) + (bottom != want_bottom)


def _holds(check):
    """check() is true; a structure map that cannot be built (a failed
    factorization, an ill-defined or non-commuting square) is false."""
    try:
        return bool(check())
    except (ValueError, AttributeError):
        return False


def _is_epi_table(a):
    return len(set(a.f.values())) == len(a.dst)


def _arrow_factors(addfac, e):
    return addfac(e.dom), addfac(e.cod)


def test_criterion_11_arrow_category_against_tables():
    mismatches = 0
    counts = {"pairs": 0, "triples": 0, "singles": 0, "hom_pairs": 0}
    corpora = (("z4", _engine_z4, _additive_factors_z4, ZZ), ("f2x", _engine_f2x, _additive_factors_f2x, F2x))
    for name, eng, addfac, base in corpora:
        corpus = FiniteCorpus(name, 16)
        scalar = _scalar_index(corpus.ring)
        engines = {lab: eng(lab) for lab in corpus.labels}
        labels = {id(M): lab for lab, M in zip(corpus.labels, corpus.modules)}
        pool = all_table_arrows(corpus, 16)
        arrows = [_engine_arrow(a, labels, engines) for a in pool]
        units = [
            tuple(_unit_elements(M, labels[id(M)], engines[labels[id(M)]]) for M in (a.src, a.dst))
            for a in pool
        ]
        orders = [a.order() for a in pool]
        boxes = {}

        def box_tables(a, b):
            key = (id(a), id(b))
            if key not in boxes:
                boxes[key] = BoxTables(a, b)
            return boxes[key]

        tensor_unit, box_unit = tensor_unit_arrow(base), box_unit_arrow(base)

        for a, e in zip(pool, arrows):
            counts["singles"] += 1
            mismatches += _holds(lambda: adjunction_unit(e).is_iso()) != a.is_injective()
            mismatches += _holds(lambda: adjunction_counit(e).is_iso()) != _is_epi_table(a)
            mismatches += ker_functor(e).dom.element_count() != len(kernel_table(a))
            mismatches += cok_functor(e).cod.element_count() != len(cokernel_table(a)[0])
            own = _arrow_factors(addfac, e)
            mismatches += _arrow_factors(addfac, tensor_arrows(e, tensor_unit)) != own
            mismatches += _arrow_factors(addfac, pushout_product(e, box_unit)) != own

        for a, ea, oa, ua in zip(pool, arrows, orders, units):
            for b, eb, ob, ub in zip(pool, arrows, orders, units):
                if oa * ob > 16:
                    continue
                counts["pairs"] += 1
                box = box_tables(a, b)
                mismatches += _arrow_factors(addfac, pushout_product(ea, eb)) != (
                    box.P.invariant_factor_orders(),
                    box.T11.module.invariant_factor_orders(),
                )
                for structure in (tensor_arrows_symmetry, cok_box_comparison):
                    mismatches += not _holds(lambda: structure(ea, eb).is_iso())
                try:
                    sym = box_symmetry(ea, eb)
                except ValueError:
                    mismatches += 1
                else:
                    mismatches += not sym.is_iso()
                    mismatches += _symmetry_mismatches(sym, box, box_tables(b, a), ua, ub, scalar)
                mismatches += not _holds(lambda: ker_lax_comparison(ea, eb).top is not None)

                if oa * ob <= 8:
                    counts["hom_pairs"] += 1
                    squares = all_arrow_maps(cok_functor(ea), eb)
                    want = count_arrow_squares(cok_arrow(a), b)
                    mismatches += len(squares) != want
                    mismatches += len(all_arrow_maps(ea, ker_functor(eb))) != want
                    for phi in squares:
                        back = lambda: adjoint_transpose_back(adjoint_transpose(phi, ea, eb), ea, eb) == phi
                        mismatches += not _holds(back)

                for c, ec, oc in zip(pool, arrows, orders):
                    if oa * ob * oc > 8:
                        continue
                    counts["triples"] += 1
                    for structure in (box_assoc, tensor_arrows_assoc):
                        mismatches += not _holds(lambda: structure(ea, eb, ec).is_iso())
    ok = mismatches == 0 and counts == {"pairs": 586, "triples": 330, "singles": 166, "hom_pairs": 154}
    _verdict(
        11,
        f"box, tensor, cok and ker on {counts['pairs']} arrow pairs, {counts['triples']} triples "
        f"and {counts['singles']} arrows of z4 and f2x, {mismatches} mismatches",
        ok,
    )
