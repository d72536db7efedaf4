"""The CLI exit contract under mutated documents.

Each example takes one report-deck document, mutates one node of it
(deletes it, gives it a value of another JSON type, or puts there a
value from another section of the document), and runs one document
command on it at ``--levels`` 0-3, in process.  Every run exits 0, 1 or
2, prints no traceback, prints nothing on stdout when it exits 2, and
prints the same bytes when run again.

Magnitude budgets (``--levels 100000``, huge exponents and moduli) are
the subject of the budget probes of ROADMAP item 3, not of this test:
the mutations here keep every number small.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from adic_smith.cli import main
from test_report_deck import DECK_DOC, LONG_DOC

DOCUMENTS = [DECK_DOC, LONG_DOC]

# Values of every JSON type, for retyping a node.
RETYPED = [None, True, False, 0, 1, -1, 2, 1.5, "", "x", "Z", [], [[]], [1], {}, {"ring": "Z"}]

COMMANDS = ["tower", "graded", "complete-check", "analytic-check", "adic-module", "yekutieli"]


def nodes(tree, path=()):
    """The path of every node below the root, depth first."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from nodes(value, path + (key,))


def value_at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def mutated_runs(draw):
    """(document, argv) of one mutated document and one command on it."""
    original = draw(st.sampled_from(DOCUMENTS))
    doc = copy.deepcopy(original)
    paths = list(nodes(doc))
    path = draw(st.sampled_from(paths))
    parent, key = value_at(doc, path[:-1]), path[-1]
    how = draw(st.sampled_from(["delete", "retype", "swap"]))
    if how == "delete":
        del parent[key]
    elif how == "retype":
        parent[key] = draw(st.sampled_from(RETYPED))
    else:
        others = [p for p in paths if p[0] != path[0]] or paths
        parent[key] = copy.deepcopy(value_at(original, draw(st.sampled_from(others))))
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--levels", str(draw(st.integers(0, 3)))]
    if command == "analytic-check":
        argv += ["--map", draw(st.sampled_from(sorted(original.get("maps", {"same": None}))))]
    else:
        argv += ["--ideal", draw(st.sampled_from(sorted(original["ideals"])))]
    if command == "adic-module":
        argv += ["--module", draw(st.sampled_from(sorted(original.get("modules", {"T8": None}))))]
    return doc, argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_mutated_documents_keep_the_exit_contract(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"

    @seed(20261020)
    @settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_runs())
    def check(case):
        doc, argv = case
        path.write_text(json.dumps(doc))
        argv = argv + ["--input", str(path)]
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err, (argv, err)
        if code == 2:
            assert out == "" and err.startswith("input error: "), (argv, out, err)
        assert run_cli(argv) == (code, out, err), argv

    check()
