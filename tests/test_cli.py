"""End-to-end command runs: exit codes, report bytes, diagnostics.

Everything goes through main(argv) in process; stdout must be valid
JSON that survives a sorted re-dump byte for byte, and every bad input
must name the JSON path or flag it came from on stderr.
"""

import io
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from adic_smith import cli
from adic_smith.almost import MAX_DEPTH, AlmostContext
from adic_smith.cli import main
from adic_smith.monomial import MONOMIAL_BUDGET, MONOMIAL_WORK
from adic_smith.oracle import LAW_NAMES, MAX_ORDER
from adic_smith.rings import GF, IntegerRing
from adic_smith.tower import SmithIdeal, Tower

GOOD_DOC = {
    "rings": {
        "Z": {"kind": "integers"},
        "F2x": {"kind": "poly", "coeff": {"fp": 2}, "var": "x"},
    },
    "modules": {
        "M": {"ring": "Z", "generators": 1, "relations": []},
        "T8": {"ring": "Z", "generators": 1, "relations": [[8]]},
    },
    "ideals": {
        "p2": {"ring": "Z", "generators": [2]},
        "p4": {"ring": "Z", "generators": [4]},
        "x": {"ring": "F2x", "generators": ["x"]},
    },
    "maps": {
        "same": {"source": "p2", "target": "p2", "top": [[1]], "bottom": [[1]]},
        "embed": {"source": "p2", "target": "p4", "top": [[1]], "bottom": [[2]]},
    },
}

# q4 -> q2 sends the relation 2*gen(4) = 0 to 2*gen(2) = 4, which is
# not zero in (2) over Z/8, so loading must refuse the top matrix.
BAD_MAP_DOC = {
    "rings": {"Z8": {"kind": "mod", "n": 8}},
    "ideals": {
        "q2": {"ring": "Z8", "generators": [2], "ambient_modulus": 8},
        "q4": {"ring": "Z8", "generators": [4], "ambient_modulus": 8},
    },
    "maps": {"bad": {"source": "q4", "target": "q2", "top": [[1]], "bottom": [[1]]}},
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "doc.json"
    p.write_text(json.dumps(GOOD_DOC))
    return str(p)


@pytest.fixture(scope="module")
def bad_map_doc(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli-bad") / "doc.json"
    p.write_text(json.dumps(BAD_MAP_DOC))
    return str(p)


# -- happy paths ------------------------------------------------------


def test_tower_pid(doc):
    code, out, _ = run_cli(["tower", "--input", doc, "--ideal", "p2", "--levels", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "tower" and rep["engine"] == "pid" and rep["ok"] is True
    # the document route must build the same ideal as the library route
    assert rep["levels"] == Tower(SmithIdeal(IntegerRing(), [2]), 3).describe()


def test_tower_certificates(doc):
    code, out, _ = run_cli(
        ["tower", "--input", doc, "--ideal", "p2", "--levels", "2", "--with-certificates"]
    )
    assert code == 0
    certs = json.loads(out)["certificates"]
    assert [c["level"] for c in certs] == [0, 1, 2]
    assert set(certs[1]) == {
        "level",
        "ideal_relations",
        "algebra_relations",
        "localization_top",
        "localization_bottom",
    }
    assert certs[1]["algebra_relations"] == [["4"]]


def test_tower_poly_ideal(doc):
    code, out, _ = run_cli(["tower", "--input", doc, "--ideal", "x", "--levels", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["levels"][1]["invariant_factors_algebra"] == ["x^2"]


def test_tower_monomial_engine():
    code, out, _ = run_cli(
        ["tower", "--engine", "monomial", "--ideal", "x,y", "--vars", "x,y",
         "--ring", "F2", "--levels", "2"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["engine"] == "monomial" and rep["ok"] is True
    assert [lv["algebra_dim"] for lv in rep["levels"]] == [1, 3, 6]
    assert rep["levels"][1]["basis"] == ["1", "x", "y"]


def test_tower_monomial_engine_defaults_to_x():
    code, out, _ = run_cli(["tower", "--engine", "monomial", "--ideal", "x^2", "--levels", "2"])
    assert code == 0
    rep = json.loads(out)
    assert [lv["algebra_dim"] for lv in rep["levels"]] == [2, 4, 6]
    assert rep["levels"][2]["basis"] == ["1", "x", "x^2", "x^3", "x^4", "x^5"]


def test_tower_monomial_engine_default_has_no_y():
    check_exit2(["tower", "--engine", "monomial", "--ideal", "x,y"],
                "input error: --ideal: unknown variable 'y' (have x)")


def test_both_spellings_of_z6_divide_alike(tmp_path):
    """The generator "4/4" is 1 in Z/6 whichever spelling names the ring,
    so the ideal is the unit ideal and level 0 has no invariant factors."""
    reports = []
    for i, ring in enumerate([{"kind": "mod", "n": 6},
                              {"kind": "quotient", "base": {"kind": "integers"}, "modulus": "6"}]):
        p = tmp_path / f"z6-{i}.json"
        p.write_text(json.dumps({"rings": {"Z6": ring}, "ideals": {"I": {"ring": "Z6", "generators": ["4/4"]}}}))
        code, out, _ = run_cli(["tower", "--input", str(p), "--ideal", "I", "--levels", "1"])
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(out)["levels"][0]["invariant_factors_algebra"] == []


def test_graded(doc):
    code, out, _ = run_cli(["graded", "--input", doc, "--ideal", "p2", "--levels", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert all(lv["comparison_is_iso"] for lv in rep["levels"])


def test_complete_check(doc):
    code, out, _ = run_cli(
        ["complete-check", "--input", doc, "--ideal", "p2", "--levels", "3",
         "--with-certificates"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["check"] == "complete" and rep["ok"] is True
    assert [c["level"] for c in rep["certificates"]] == [0, 1, 2, 3]
    assert all("top" in c and "bottom" in c for c in rep["certificates"])


def test_analytic_check_identity(doc):
    code, out, _ = run_cli(["analytic-check", "--input", doc, "--map", "same", "--levels", "2"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_adic_module(doc):
    code, out, _ = run_cli(
        ["adic-module", "--input", doc, "--ideal", "p2", "--module", "T8", "--levels", "3"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["completeness"]["check"] == "module-complete"


def test_yekutieli(doc):
    code, out, _ = run_cli(["yekutieli", "--input", doc, "--ideal", "p2", "--levels", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert all(e["composite_iso"] for e in rep["powers"])


def test_almost_base(doc):
    code, out, _ = run_cli(["almost", "--depth", "3", "--levels", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["grid"]["exact_ok"] is True
    assert rep["v_mod_t_not_almost_zero_at_depth_1"] is True
    assert rep["depth_monotone"] is True


def test_verify_laws_small():
    code, out, _ = run_cli(
        ["verify-laws", "--ring", "z2", "--max-order", "4", "--pair-bound", "8"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["all_pass"] is True
    assert set(rep["laws"]) == set(LAW_NAMES)


# -- failing verdicts (exit 1) ----------------------------------------


def test_analytic_check_embed_fails(doc):
    code, out, _ = run_cli(["analytic-check", "--input", doc, "--map", "embed", "--levels", "2"])
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False and rep["first_failure"] == 0
    obstruction = rep["levels"][0]["obstruction"]
    assert obstruction["algebra_source"] == ["2"]
    assert obstruction["algebra_target"] == ["4"]
    assert "descent" in rep["levels"][1]["obstruction"]


def test_almost_witness_separates():
    code, out, _ = run_cli(["almost", "--depth", "3", "--levels", "2", "--witness"])
    assert code == 1
    rep = json.loads(out)
    assert rep["witness"] is True
    assert rep["grid"]["exact_ok"] is False
    assert all(rep["grid"]["ok_at_depth"].values())
    assert rep["depth_monotone"] is True


# -- exit-code matrix for bad input (exit 2) --------------------------


def check_exit2(argv, needle):
    code, out, err = run_cli(argv)
    assert code == 2, (argv, out, err)
    assert needle in err, (needle, err)
    assert err.count("\n") == 1, err
    assert out == ""


def test_missing_document():
    check_exit2(["tower", "--ideal", "p2"], "needs a document")


def test_unreadable_file():
    check_exit2(["graded", "--input", "/no/such/file.json", "--ideal", "p2"], "cannot read")


def test_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    check_exit2(["graded", "--input", str(p), "--ideal", "p2"], "not valid JSON")


# A section or an entry of the wrong JSON type is refused with its path.
MALFORMED_DOCS = [
    ({"rings": {}, "widgets": {}}, "widgets: unknown top-level section"),
    ({"modules": {"M": 3}}, "modules.M: expected a module spec (an object), got 3"),
    ({"maps": 5}, "maps: expected a section (an object), got 5"),
    ({"ideals": {"I": []}}, "ideals.I: expected an ideal spec (an object), got []"),
    ({"rings": {"Z": {"kind": "integers"}}, "ideals": {"I": {"ring": "Z"}}},
     "ideals.I.generators: missing"),
    ({"rings": {"Z": {"kind": "integers"}}, "ideals": {"I": {"ring": ["Z"], "generators": [2]}}},
     "ideals.I.ring: expected a ring name"),
    ({"rings": {"Z": {"kind": "integers"}},
      "ideals": {"I": {"ring": "Z", "generators": [2, 3]}},
      "maps": {"f": {"source": "I", "target": "I", "top": [[1, 0], [0]], "bottom": [[1]]}}},
     "maps.f.top: expected a 2x2 matrix"),
    ({"rings": {"Z": {"kind": "integers"}},
      "modules": {"M": {"ring": "Z", "generators": 2, "relations": [[2, 0], [3]]}}},
     "modules.M.relations[1]: relation column needs 2 entries"),
]


def test_unknown_section(tmp_path):
    p = tmp_path / "extra.json"
    for document, needle in MALFORMED_DOCS:
        p.write_text(json.dumps(document))
        check_exit2(["graded", "--input", str(p), "--ideal", "p2"], needle)


def test_unknown_name_lists_choices(doc):
    check_exit2(
        ["graded", "--input", doc, "--ideal", "nope"],
        "ideals.nope: no such entry (have: p2, p4, x)",
    )


def test_bad_element_names_json_path(tmp_path):
    p = tmp_path / "badgen.json"
    p.write_text(
        json.dumps(
            {"rings": {"Z": {"kind": "integers"}},
             "ideals": {"bad": {"ring": "Z", "generators": ["spam"]}}}
        )
    )
    check_exit2(["graded", "--input", str(p), "--ideal", "bad"], "ideals.bad.generators[0]")


BAD_RING_DOCS = [
    ({"rings": {"R": {"kind": "field-of-one"}}}, "rings.R"),
    ({"rings": 5}, "rings: expected a section (an object), got 5"),
    ({"rings": {"R": {"kind": "poly", "coeff": {"fp": "x"}, "var": "x"}}},
     "rings.R.coeff.fp: expected an integer, got 'x'"),
    ({"rings": {"R": {"kind": "poly", "var": "x"}}}, "rings.R.coeff: expected"),
    ({"rings": {"R": {"kind": "quotient", "base": {"kind": "mod"}, "modulus": "2"}}},
     "rings.R.base.n: missing"),
]


def test_bad_ring_spec(tmp_path):
    p = tmp_path / "badring.json"
    for document, needle in BAD_RING_DOCS:
        p.write_text(json.dumps(document))
        check_exit2(["graded", "--input", str(p), "--ideal", "p"], needle)


@pytest.mark.parametrize(
    "ring,gen,needle",
    [
        ({"kind": "integers"}, "2^200000000", "ideals.I.generators[0]: exponent 200000000 is above the cap"),
        (
            {"kind": "poly", "coeff": {"fp": 3317044064679887385961981}, "var": "x"},
            "x",
            "rings.R: primality is certified only below",
        ),
    ],
)
def test_oversized_input_is_refused_on_one_line(tmp_path, ring, gen, needle):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"rings": {"R": ring}, "ideals": {"I": {"ring": "R", "generators": [gen]}}}))
    code, out, err = run_cli(["tower", "--input", str(p), "--ideal", "I"])
    assert (code, out) == (2, "")
    assert needle in err and err.count("\n") == 1, err


def test_large_prime_field_loads(tmp_path):
    p = tmp_path / "fp.json"
    ring = {"kind": "poly", "coeff": {"fp": 1000000000000000003}, "var": "x"}
    p.write_text(json.dumps({"rings": {"R": ring}, "ideals": {"I": {"ring": "R", "generators": ["x"]}}}))
    code, out, _ = run_cli(["tower", "--input", str(p), "--ideal", "I", "--levels", "2"])
    assert code == 0
    assert [lv["invariant_factors_algebra"] for lv in json.loads(out)["levels"]] == [["x"], ["x^2"], ["x^3"]]


def test_ill_defined_map_names_column(bad_map_doc):
    check_exit2(
        ["tower", "--input", bad_map_doc, "--ideal", "q2"],
        "maps.bad.top: matrix does not respect relation column 0",
    )


def test_monomial_engine_only_for_tower(doc):
    check_exit2(
        ["graded", "--engine", "monomial", "--input", doc, "--ideal", "p2"],
        "only tower supports the monomial engine",
    )


def test_monomial_engine_needs_ideal():
    check_exit2(["tower", "--engine", "monomial"], "--ideal")


def test_yekutieli_level_range(doc):
    check_exit2(
        ["yekutieli", "--input", doc, "--ideal", "p2", "--levels", "0"],
        "at least one level",
    )


# "@" stands for the document path.
NEGATIVE_LEVEL_RUNS = [
    ["tower", "--input", "@", "--ideal", "p2"],
    ["tower", "--engine", "monomial", "--ideal", "x^2", "--vars", "x"],
    ["graded", "--input", "@", "--ideal", "p2"],
    ["complete-check", "--input", "@", "--ideal", "p2"],
    ["analytic-check", "--input", "@", "--map", "same"],
    ["adic-module", "--input", "@", "--ideal", "p2", "--module", "T8"],
    ["yekutieli", "--input", "@", "--ideal", "p2"],
    ["almost"],
    ["verify-laws", "--ring", "z2"],
]


@pytest.mark.parametrize("argv", NEGATIVE_LEVEL_RUNS, ids=lambda a: a[0] + "-monomial" * ("monomial" in a))
def test_negative_levels_refused(doc, argv):
    argv = [doc if a == "@" else a for a in argv] + ["--levels", "-1"]
    check_exit2(argv, "input error: --levels: must be >= 0, got -1")


def test_negative_depth_refused():
    check_exit2(["almost", "--depth", "-1"], "input error: --depth: must be >= 0, got -1")


DEPTH_BOUND_RUNS = [
    (["--depth", "1000000", "--levels", "1"], f"input error: --depth: must be <= {MAX_DEPTH}, got 1000000"),
    (
        ["--depth", str(MAX_DEPTH + 1), "--witness", "--with-certificates"],
        f"input error: --depth: must be <= {MAX_DEPTH}, got {MAX_DEPTH + 1}",
    ),
    (
        ["--depth", str(MAX_DEPTH + 1), "--input", "/no/such/file.json"],
        f"input error: --depth: must be <= {MAX_DEPTH}, got {MAX_DEPTH + 1}",
    ),
]


@pytest.mark.parametrize(
    "extra,needle", DEPTH_BOUND_RUNS, ids=["above-budget", "witness-above-budget", "above-budget-before-document"]
)
def test_depth_above_budget_refused(extra, needle):
    """Depths past the ladder's budget exit 2 naming the flag, before
    anything is built or read."""
    start = time.perf_counter()
    check_exit2(["almost"] + extra, needle)
    assert time.perf_counter() - start < 1.0


def test_depth_budget_certificates_print():
    """The deepest certificate, u_K^(2^K) at K = MAX_DEPTH, converts to
    text within the interpreter's limit on int-to-str digits."""
    ctx = AlmostContext(GF(2), MAX_DEPTH)
    text = ctx.ring(MAX_DEPTH).format_elem(ctx.multiplier(0, MAX_DEPTH))
    assert text == f"u{MAX_DEPTH}^{2 ** MAX_DEPTH}"


def test_almost_witness_at_depth_20():
    """Depth costs its number of terms: the witness at depth 20, where t
    lifts to u_20^1048576, is quick."""
    start = time.perf_counter()
    code, out, _ = run_cli(["almost", "--depth", "20", "--levels", "3", "--witness"])
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert all(json.loads(out)["grid"]["ok_at_depth"].values())


CORPUS_BOUND_RUNS = [
    (["--max-order", "-3"], "--max-order: must be >= 1, got -3"),
    (["--max-order", "0"], "--max-order: must be >= 1, got 0"),
    (["--pair-bound", "0", "--triple-bound", "0"], "--pair-bound: must be >= 1, got 0"),
    (["--triple-bound", "0"], "--triple-bound: must be >= 1, got 0"),
    (["--max-order", "100"], f"--max-order: must be <= {MAX_ORDER}, got 100"),
    (["--pair-bound", "65"], "--pair-bound: must be <= 64, got 65"),
    (["--triple-bound", "33"], "--triple-bound: must be <= 32, got 33"),
    (["--pair-bound", "128", "--triple-bound", "64"], "--pair-bound: must be <= 64, got 128"),
]


@pytest.mark.parametrize(
    "extra,needle",
    CORPUS_BOUND_RUNS,
    ids=[
        "max-order-neg", "max-order-zero", "pair-triple-zero", "triple-zero", "max-order-above-guardrail",
        "pair-above-budget", "triple-above-budget", "pair-triple-above-budget",
    ],
)
def test_corpus_bounds_below_one_refused(extra, needle):
    """Bounds below 1, a corpus bound past the oracle's guardrail, and
    tuple bounds past the audit budget exit 2 naming the flag, at once."""
    start = time.perf_counter()
    check_exit2(["verify-laws", "--ring", "z2"] + extra, f"input error: {needle}")
    assert time.perf_counter() - start < 1.0


def test_monomial_tower_past_budget_names_levels():
    # the box below these pure powers has 10^10 cells
    check_exit2(
        ["tower", "--engine", "monomial", "--ideal", "x^100000,y^100000", "--vars", "x,y", "--levels", "0"],
        f"input error: --levels: the tower would hold more than {MONOMIAL_BUDGET} entries",
    )


MAXIMAL_60 = ",".join(f"v{i}" for i in range(60))
MAXIMAL_200 = ",".join(f"v{i}" for i in range(200))


@pytest.mark.parametrize("names,levels", [(MAXIMAL_60, "2"), (MAXIMAL_200, "1")], ids=["60-vars", "200-vars"])
def test_monomial_tower_past_work_budget_names_levels(names, levels):
    """The maximal ideal of many variables lists few entries but would
    take millions of divisibility tests (6 s at 60 variables, 25 s at
    200); the work budget refuses it before they are made."""
    start = time.perf_counter()
    check_exit2(
        ["tower", "--engine", "monomial", "--ideal", names, "--vars", names, "--levels", levels],
        f"input error: --levels: the tower would take more than {MONOMIAL_WORK} monomial tests and products",
    )
    assert time.perf_counter() - start < 1.0


# Runs the CLI on argv[1:] in a child and prints [exit code, peak RSS in
# KiB, stderr].  A process's ru_maxrss includes the memory of the process
# that forked it, as it stood at exec, so tests start this small
# interpreter rather than the CLI itself from the test process.
PEAK_RSS_PROBE = """
import json, os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "adic_smith", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
err = proc.stderr.read().decode()
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([proc.returncode, usage.ru_maxrss, err]))
"""


def test_monomial_work_refusal_comes_before_the_candidates_are_built():
    """The 200-variable maximal ideal is refused at its degree-2 tests;
    their 20,100 candidate monomials of 200 exponents each (about 30 MB)
    must not be built first.  A small tower peaks near 17 MB."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["tower", "--engine", "monomial", "--ideal", MAXIMAL_200, "--vars", MAXIMAL_200, "--levels", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kib, err = json.loads(proc.stdout)
    assert code == 2, err
    assert f"--levels: the tower would take more than {MONOMIAL_WORK} monomial tests" in err
    assert peak_kib / 1024 < 30, peak_kib  # ru_maxrss is in KiB on Linux


def test_max_order_budget_is_the_oracles():
    """The CLI holds the corpus bound itself, so checking --max-order
    compiles no oracle; it must be the oracle's own guardrail."""
    assert cli.MAX_ORDER == MAX_ORDER


def test_monomial_field_not_prime_names_ring():
    check_exit2(
        ["tower", "--engine", "monomial", "--ideal", "x^2", "--vars", "x", "--ring", "F4"],
        "input error: --ring: not a prime: 4",
    )


BAD_VARS_RUNS = [
    ("x,x", "input error: --vars: duplicate variable names in 'x,x'"),
    (",", "input error: --vars: not a variable name: ''"),
    ("x,2y", "input error: --vars: not a variable name: '2y'"),
]


@pytest.mark.parametrize("names,needle", BAD_VARS_RUNS, ids=["duplicate", "empty", "not-identifier"])
def test_monomial_bad_vars_names_vars(names, needle):
    check_exit2(["tower", "--engine", "monomial", "--ideal", "x^2", "--vars", names], needle)


@pytest.mark.parametrize("fault", [AssertionError("product left the ideal"), MemoryError()])
def test_internal_fault_exits_3_on_one_line(doc, monkeypatch, fault):
    from adic_smith import tower

    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(tower, "truncate", broken)
    code, out, err = run_cli(["tower", "--input", doc, "--ideal", "p2", "--levels", "2"])
    assert code == 3
    assert out == ""
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_non_mono_ideal_inclusion_is_an_internal_fault(doc, monkeypatch):
    """The sweep builds every ideal inclusion mono, so a failed mono
    certificate is a fault of the engine (exit 3), not bad input."""
    from adic_smith.fpmod import FPMap

    monkeypatch.setattr(FPMap, "is_injective", lambda self: False)
    code, out, err = run_cli(["tower", "--input", doc, "--ideal", "x", "--levels", "1"])
    assert (code, out, err) == (3, "", "internal error: AssertionError: ideal inclusion is not mono\n")


def test_verify_laws_bad_ring():
    check_exit2(["verify-laws", "--ring", "zz"], "law corpora exist over")


def test_verify_laws_bad_law():
    check_exit2(["verify-laws", "--ring", "z2", "--laws", "nope"], "unknown laws")


def test_unknown_command_is_usage_error():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_parser_built_once_and_reused(doc):
    """One parser serves every call, and a usage error leaves nothing
    behind in it: the valid run prints the same bytes after one."""
    cli.build_parser.cache_clear()
    valid = ["tower", "--input", doc, "--ideal", "p2", "--levels", "2"]
    alone = run_cli(valid)
    for bad in (["tower", "--levels", "two"], ["tower", "--frobnicate"], []):
        code, out, err = run_cli(bad)
        assert code == 2 and out == "" and err.startswith("usage: adic-smith"), (bad, err)
        assert run_cli(valid) == alone
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser.cache_info().misses == 1


# -- work per command -------------------------------------------------

L = 3
# argv (with "@" for the document) -> (truncations, pushout products,
# SmithIdeal constructions besides the document ideals the run reads).
# Each level is built once per command: the tower of j has L+1 levels at
# --levels L, and a check against the truncated ideal builds L+1 more.
WORK_PER_COMMAND = [
    (["tower", "--input", "@", "--ideal", "p2"], (L + 1, 0, 0)),
    (["graded", "--input", "@", "--ideal", "p2"], (L + 1, 0, 0)),
    (["complete-check", "--input", "@", "--ideal", "p2"], (2 * L + 2, 0, 1)),
    (["complete-check", "--input", "@", "--ideal", "p2", "--with-certificates"], (2 * L + 2, 0, 1)),
    (["analytic-check", "--input", "@", "--map", "embed", "--with-certificates"], (2 * L + 2, 0, 0)),
    (["adic-module", "--input", "@", "--ideal", "p2", "--module", "T8"], (2 * L + 2, 2 * L + 2, 1)),
    (["yekutieli", "--input", "@", "--ideal", "p2"], (1, 0, 1)),
]


def document_ideals_read(document, argv):
    """How many of the document's ideals a run builds: those its maps
    read at load, and the one ``--ideal`` names."""
    read = {end for m in document.get("maps", {}).values() for end in (m["source"], m["target"])}
    if "--ideal" in argv:
        read.add(argv[argv.index("--ideal") + 1])
    return len(read)


def count_ideals(monkeypatch):
    """A dict whose "ideal" entry counts SmithIdeal constructions from now on."""
    counts = {"ideal": 0}
    init = SmithIdeal.__init__

    def counted(*args, **kwargs):
        counts["ideal"] += 1
        return init(*args, **kwargs)

    monkeypatch.setattr(SmithIdeal, "__init__", counted)
    return counts


@pytest.mark.parametrize(
    "argv,expected",
    WORK_PER_COMMAND,
    ids=["tower", "graded", "complete", "complete-cert", "analytic-cert", "adic-module", "yekutieli"],
)
def test_each_level_built_once_per_command(doc, monkeypatch, argv, expected):
    from adic_smith import arrowcat, tower

    counts = count_ideals(monkeypatch)
    counts.update(truncate=0, pushout_product=0)

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(tower, "truncate", counted(tower.truncate, "truncate"))
    box = counted(arrowcat.pushout_product, "pushout_product")
    monkeypatch.setattr(tower, "pushout_product", box)
    monkeypatch.setattr(arrowcat, "pushout_product", box)
    code, out, err = run_cli([doc if a == "@" else a for a in argv] + ["--levels", str(L)])
    assert code in (0, 1) and out and not err, err
    got = (counts["truncate"], counts["pushout_product"], counts["ideal"] - document_ideals_read(GOOD_DOC, argv))
    assert got == expected


def test_tower_builds_only_the_ideal_it_reads(tmp_path, monkeypatch):
    """With no map to read them, the document's other ideals are parsed
    and checked but never built."""
    p = tmp_path / "nomaps.json"
    p.write_text(json.dumps({k: v for k, v in GOOD_DOC.items() if k != "maps"}))
    counts = count_ideals(monkeypatch)
    code, out, err = run_cli(["tower", "--input", str(p), "--ideal", "p2", "--levels", "2"])
    assert (code, err) == (0, "") and out
    assert counts["ideal"] == 1


# Every bad-ideal and bad-map document above, as (document, argv, needle).
BAD_IDEAL_AND_MAP_RUNS = [
    (document, ["graded", "--ideal", "p2"], needle)
    for document, needle in MALFORMED_DOCS
    if needle.startswith(("ideals.", "maps"))
] + [
    ({"rings": {"Z": {"kind": "integers"}}, "ideals": {"bad": {"ring": "Z", "generators": ["spam"]}}},
     ["graded", "--ideal", "bad"], "ideals.bad.generators[0]"),
    ({"rings": {"R": {"kind": "integers"}}, "ideals": {"I": {"ring": "R", "generators": ["2^200000000"]}}},
     ["tower", "--ideal", "I"], "ideals.I.generators[0]: exponent 200000000 is above the cap"),
    (BAD_MAP_DOC, ["tower", "--ideal", "q2"], "maps.bad.top: matrix does not respect relation column 0"),
]


@pytest.mark.parametrize("document,argv,needle", BAD_IDEAL_AND_MAP_RUNS)
def test_bad_entries_refused_when_another_ideal_is_named(tmp_path, document, argv, needle):
    """Loading checks every ideal and map, built or not: naming another,
    valid ideal gives the same exit 2 and the same message."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(document))
    reference = run_cli([argv[0], "--input", str(p)] + argv[1:])
    assert reference[:2] == (2, "") and needle in reference[2], reference
    other = dict(document, rings=dict(document.get("rings", {}), Zok={"kind": "integers"}))
    other["ideals"] = dict(document.get("ideals", {}), ok={"ring": "Zok", "generators": [3]})
    p.write_text(json.dumps(other))
    assert run_cli([argv[0], "--input", str(p), "--ideal", "ok"]) == reference


# -- output discipline ------------------------------------------------

ROUND_TRIP_RUNS = [
    ["tower", "--ideal", "p2", "--levels", "3"],
    ["graded", "--ideal", "p2", "--levels", "2"],
    ["yekutieli", "--ideal", "p2", "--levels", "2"],
    ["almost", "--depth", "2", "--levels", "2"],
]


@pytest.mark.parametrize("argv", ROUND_TRIP_RUNS, ids=lambda a: a[0])
def test_json_round_trip(doc, argv):
    argv = argv + ["--input", doc] if argv[0] != "almost" else argv
    _, out, _ = run_cli(argv)
    rep = json.loads(out)
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == out


def test_reports_are_deterministic(doc):
    argv = ["tower", "--input", doc, "--ideal", "p2", "--levels", "4"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    _, third, _ = run_cli(argv)
    assert first == second == third


def test_table_format_same_verdict(doc):
    code_j, out_j, _ = run_cli(["tower", "--input", doc, "--ideal", "p2", "--levels", "2"])
    code_t, out_t, _ = run_cli(
        ["tower", "--input", doc, "--ideal", "p2", "--levels", "2", "--format", "table"]
    )
    assert code_j == code_t == 0
    lines = out_t.splitlines()
    assert 'command = "tower"' in lines
    assert "ok = true" in lines
    # flat lines carry the same leaves the JSON does
    assert f"levels[1].invariant_factors_algebra[0] = \"4\"" in lines


# -- engine imports per command ---------------------------------------

ENGINES = {"adic_smith.oracle", "adic_smith.almost", "adic_smith.monomial"}

# Runs of one fresh interpreter each, and the engines each run loads.
# The document commands share one interpreter, which is checked after
# the import and after every command; none of them loads an engine.
ENGINE_RUNS = [
    ([["tower", "--input", "@", "--ideal", "p2"], ["graded", "--input", "@", "--ideal", "p2"],
      ["complete-check", "--input", "@", "--ideal", "p2"], ["yekutieli", "--input", "@", "--ideal", "p2"],
      ["adic-module", "--input", "@", "--ideal", "p2", "--module", "T8"],
      ["analytic-check", "--input", "@", "--map", "embed"]], set()),
    ([["verify-laws", "--ring", "z2", "--max-order", "2", "--laws", "box_symmetry"]], {"adic_smith.oracle"}),
    ([["almost", "--depth", "2"]], {"adic_smith.almost"}),
    ([["tower", "--engine", "monomial", "--ideal", "x^2,y^2", "--vars", "x,y"]], {"adic_smith.monomial"}),
]

ENGINE_PROBE = """
import contextlib, io, json, sys
from adic_smith import cli

def engines():
    return sorted(m for m in sys.modules if m in {engines!r})

seen = [("import", 0, engines())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append((argv[0], code, engines()))
print(json.dumps(seen))
"""


@pytest.mark.parametrize("runs,expected", ENGINE_RUNS, ids=["documents", "verify-laws", "almost", "monomial"])
def test_each_command_imports_only_its_engine(doc, runs, expected):
    src = str(Path(cli.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argvs = [[doc if a == "@" else a for a in argv] + ["--levels", "1"] for argv in runs]
    proc = subprocess.run(
        [sys.executable, "-c", ENGINE_PROBE.format(engines=sorted(ENGINES)), json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen[0] == ["import", 0, []]
    for command, code, loaded in seen[1:]:
        assert code in (0, 1), (command, proc.stderr)
        assert set(loaded) == expected, command
