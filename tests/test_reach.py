"""Every definition in ``src/`` answers to a command, a law audit or an
acceptance criterion.

The walk starts at every module-level statement of the package that is
not a definition (so ``cli.HANDLERS`` and ``oracle._LAWS``) and at every
name that ``tests/test_acceptance.py`` uses, and follows names to a fixed
point: a reached name reaches every function, class and method of that
name, and a reached definition adds the names its body uses.  A name
counts only where it is used as code (``ast.Name`` or ``ast.Attribute``
in a load), never in a string, a docstring or an import.  Dunder methods
count as reached, since Python calls them by protocol.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adic_smith"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names_used(nodes):
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
    return out


def _definitions_and_roots():
    """([(qualified name, name, nodes its body is)], root statements)."""
    defs, roots = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, _FUNCTIONS):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{path.stem}.{stmt.name}"
                body = [s for s in stmt.body if not isinstance(s, _FUNCTIONS)]
                defs.append((qual, stmt.name, body + stmt.bases + stmt.decorator_list))
                defs += [(f"{qual}.{s.name}", s.name, [s]) for s in stmt.body if isinstance(s, _FUNCTIONS)]
            else:
                roots.append(stmt)
    return defs, roots


def unreached():
    defs, roots = _definitions_and_roots()
    names = _names_used(roots) | _names_used([ast.parse(ACCEPTANCE.read_text())])
    reached, grew = set(), True
    while grew:
        grew = False
        for qual, name, body in defs:
            dunder = name.startswith("__") and name.endswith("__")
            if qual not in reached and (dunder or name in names):
                reached.add(qual)
                names |= _names_used(body)
                grew = True
    return [qual for qual, _, _ in defs if qual not in reached]


def test_every_definition_is_reached():
    missing = unreached()
    assert missing == [], f"{len(missing)} definitions no command, law audit or criterion reaches: {missing}"
