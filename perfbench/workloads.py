"""The three workloads: seeded inputs and independent output checks.

Nothing here imports ``adic_smith``.  Every expected value is computed
with the benchmark's own integer and polynomial arithmetic (closed forms
from the tower, module and corpus structure), so an operation passes only
when the program and this file agree by two unrelated computations.

A workload is a list of documents (JSON files the program reads) and a
list of operations.  An operation is a dict with an ``id``, a ``kind``
(``cli`` runs ``adic_smith.cli.main(argv)``, ``agree`` runs one
engine-versus-table comparison) and an ``expect`` entry that
:func:`check` judges the output against.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# Corpus modules of ``oracle-tables`` are built with this order bound, and
# engine/table pairs are kept while |M||N| stays within PAIR_BOUND.  The
# |M||N| = 128 and 256 pairs are left out: each costs 0.5-16 s in the
# element-table oracle and they would set the length of every pass.
CORPUS_MAX_ORDER = 16
PAIR_BOUND = 64


# -- integers and polynomials, computed apart from the program ---------
#
# A domain is either Z (``p is None`` and ``poly is False``) or K[x] with
# K = F_p or Q.  Polynomials are coefficient tuples, lowest degree first,
# with no trailing zeros; the zero polynomial is ().


class Domain:
    def __init__(self, poly: bool = False, p: int | None = None, var: str = "x"):
        self.poly = poly
        self.p = p
        self.var = var

    # coefficients
    def _c(self, c):
        return c % self.p if self.p else Fraction(c)

    def _strip(self, a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return tuple(a)

    def one(self):
        return (self._c(1),) if self.poly else 1

    def add(self, a, b):
        if not self.poly:
            return a + b
        if len(a) < len(b):
            a, b = b, a
        return self._strip(self._c(x + (b[i] if i < len(b) else 0)) for i, x in enumerate(a))

    def mul(self, a, b):
        if not self.poly:
            return a * b
        if not a or not b:
            return ()
        out = [self._c(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self._c(out[i + j] + x * y)
        return self._strip(out)

    def pow(self, a, n: int):
        out = self.one()
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def _inv(self, c):
        return pow(c, -1, self.p) if self.p else 1 / c

    def divmod(self, a, b):
        if not self.poly:
            return divmod(a, b)
        rem = list(a)
        q = [self._c(0)] * max(len(a) - len(b) + 1, 0)
        inv = self._inv(b[-1])
        while len(rem) >= len(b):
            c = self._c(rem[-1] * inv)
            d = len(rem) - len(b)
            q[d] = c
            for i, y in enumerate(b):
                rem[d + i] = self._c(rem[d + i] - c * y)
            rem = list(self._strip(rem))
        return self._strip(q), self._strip(rem)

    def normal(self, a):
        """Canonical associate: nonnegative integer, or monic polynomial."""
        if not self.poly:
            return abs(a)
        if not a:
            return ()
        inv = self._inv(a[-1])
        return tuple(self._c(c * inv) for c in a)

    def gcd(self, a, b):
        """Canonical gcd; gcd(0, b) is the canonical associate of b."""
        if not self.poly:
            return math.gcd(a, b)
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.normal(a)

    def exact_div(self, a, b):
        q, r = self.divmod(a, b)
        if (r != () if self.poly else r != 0):
            raise ArithmeticError("inexact division in the benchmark's own arithmetic")
        return q

    def is_unit(self, a) -> bool:
        return len(a) == 1 if self.poly else abs(a) == 1

    def fmt(self, a) -> str:
        """The element's text in the program's report syntax."""
        if not self.poly:
            return str(a)
        if not a:
            return "0"
        parts = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            neg = (not self.p) and c < 0
            mag = -c if neg else c
            if i == 0:
                body = str(mag)
            else:
                x = self.var if i == 1 else f"{self.var}^{i}"
                body = x if mag == 1 else f"{mag}*{x}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def factors(self, *values):
        """Report form of a direct sum of cyclic modules R/(v) whose
        values form a divisibility chain: units dropped, chain order."""
        return [self.fmt(self.normal(v)) for v in values if not self.is_unit(v)]

    # random inputs
    def rand_monic(self, rng, degree: int):
        top = self.p if self.p else 7
        lo = 0 if self.p else -3
        return tuple(self._c(rng.randrange(lo, top)) for _ in range(degree)) + (self._c(1),)


ZZ = Domain()


def _ring_doc(dom: Domain):
    if not dom.poly:
        return {"kind": "integers"}
    coeff = {"fp": dom.p} if dom.p else "rationals"
    return {"kind": "poly", "coeff": coeff, "var": dom.var}


# -- expected tower invariants -----------------------------------------
#
# For an ideal with generator gcd d inside A = R/(m) (m = 0 when there
# is no ambient modulus), level n of the tower has
#   algebra  A/I^{n+1}       ~ R/(a_n),  a_n = gcd(m, d^{n+1})
#   ideal    I/I^{n+1}       ~ R/(a_n / a_0')  with a_0' = gcd(m, d)
#   graded   I^n/I^{n+1}     ~ R/(a_n / gcd(m, d^n))


class IdealSpec:
    def __init__(self, dom: Domain, gens, modulus=None):
        self.dom = dom
        self.gens = list(gens)
        self.modulus = modulus
        d = () if dom.poly else 0
        for g in self.gens:
            d = dom.gcd(d, g)
        self.d = d

    def _m(self):
        return self.modulus if self.modulus is not None else (() if self.dom.poly else 0)

    def power_gcd(self, e: int):
        """gcd(m, d^e), the generator of I^e + (m)."""
        return self.dom.gcd(self._m(), self.dom.pow(self.d, e))

    def algebra(self, n):
        return self.power_gcd(n + 1)

    def ideal(self, n):
        return self.dom.exact_div(self.power_gcd(n + 1), self.power_gcd(1))

    def graded(self, n):
        return self.dom.exact_div(self.power_gcd(n + 1), self.power_gcd(n))

    def doc(self, ring_name):
        out = {"ring": ring_name, "generators": [self.dom.fmt(g) for g in self.gens]}
        if self.modulus is not None:
            out["ambient_modulus"] = self.dom.fmt(self.modulus)
        return out


def _tower_expect(spec: IdealSpec, levels: int):
    dom = spec.dom
    return {
        "levels": [
            {
                "algebra": dom.factors(spec.algebra(n)),
                "ideal": dom.factors(spec.ideal(n)),
                "graded": dom.factors(spec.graded(n)),
            }
            for n in range(levels + 1)
        ]
    }


def _module_tower_expect(spec: IdealSpec, e, levels: int):
    """Level n of the tower of M = R/(e) + R: both components are the
    level-n components tensored with M, so each is R/(gcd(v, e)) + R/(v)."""
    dom = spec.dom
    out = []
    for n in range(levels + 1):
        a, q = spec.algebra(n), spec.ideal(n)
        out.append(
            {
                "algebra": dom.factors(dom.gcd(a, e), a),
                "ideal": dom.factors(dom.gcd(q, e), q),
            }
        )
    return {"levels": out}


def _yekutieli_expect(spec: IdealSpec, levels: int):
    """I^n/I^{N+1} for n = 1..N, by each of the three routes."""
    dom = spec.dom
    top = spec.power_gcd(levels + 1)
    return {
        "routes": [dom.factors(dom.exact_div(top, spec.power_gcd(n))) for n in range(1, levels + 1)]
    }


# -- seeded ideal families ---------------------------------------------


def _coprime_cofactors(dom: Domain, rng, k: int, size: int):
    """k distinct cofactors of fixed size (integers in [2, size], or monic
    polynomials of degree ``size``) whose common gcd is a unit."""
    while True:
        if dom.poly:
            cs = [dom.rand_monic(rng, size) for _ in range(k)]
        else:
            cs = [rng.randint(2, size) for _ in range(k)]
        if len(set(cs)) < k:
            continue
        g = () if dom.poly else 0
        for c in cs:
            g = dom.gcd(g, c)
        if dom.is_unit(g):
            return cs


def _wide_ideal(dom: Domain, rng, k: int):
    """k generators d*c_i with a seeded common factor d of fixed size."""
    if dom.poly:
        d = dom.rand_monic(rng, 1)
        cs = _coprime_cofactors(dom, rng, k, 1 if (dom.p or 7) >= k else 2)
    else:
        d = rng.randint(2, 5)
        cs = _coprime_cofactors(dom, rng, k, 9)
    return IdealSpec(dom, [dom.mul(d, c) for c in cs])


class _Builder:
    """Collects one workload's documents and operations."""

    def __init__(self):
        self.documents = {}
        self.ops = []

    def document(self, name, doc):
        self.documents[name] = doc
        return name

    def cli(self, argv, check, expect=None, doc=None, expect_fault=False):
        op_id = f"{len(self.ops):02d}:{' '.join(argv)}"
        if doc is not None:
            argv = [argv[0], "--input", doc] + argv[1:]
        self.ops.append(
            {
                "id": op_id,
                "kind": "cli",
                "argv": argv,
                "check": check,
                "expect": expect or {},
                "expect_fault": expect_fault,
            }
        )

    def ideal_ops(self, doc, name, spec, commands):
        """Per command: (command, levels, extra flags)."""
        for cmd, levels, *flags in commands:
            argv = [cmd, "--ideal", name, "--levels", str(levels)] + flags
            if cmd in ("tower", "graded"):
                self.cli(argv, cmd, _tower_expect(spec, levels), doc)
            elif cmd == "yekutieli":
                self.cli(argv, cmd, _yekutieli_expect(spec, levels), doc)
            else:
                self.cli(argv, cmd, {}, doc)


def _ideal_doc(rings, ideals, modules=None):
    doc = {"rings": rings, "ideals": ideals}
    if modules:
        doc["modules"] = modules
    return doc


def wide_ideals(seed: int):
    """Ideals with 2-4 generators over Z, F_2[x] and F_3[x]; the levels
    make the k^(n+1)-generator tensor powers 32-256 generators wide, plus
    one unit ideal on four generators at 1024."""
    rng = random.Random(seed)
    b = _Builder()
    F2, F3 = Domain(True, 2), Domain(True, 3)
    rings = {"Z": _ring_doc(ZZ), "F2x": _ring_doc(F2), "F3x": _ring_doc(F3)}

    # The unit ideal (6, 10, 15, 4): every level is trivial, yet the tower
    # builds the 4^5-generator tensor power.  It stays fixed, because its
    # cost alone moves by half under a reordering of the generators.
    specs = {
        "unit4": ("Z", IdealSpec(ZZ, [6, 10, 15, 4])),
        "z4": ("Z", _wide_ideal(ZZ, rng, 4)),
        "z3": ("Z", _wide_ideal(ZZ, rng, 3)),
        "z2": ("Z", _wide_ideal(ZZ, rng, 2)),
        "f2a": ("F2x", _wide_ideal(F2, rng, 2)),
        "f2b": ("F2x", _wide_ideal(F2, rng, 3)),
        "f3a": ("F3x", _wide_ideal(F3, rng, 2)),
        "f3b": ("F3x", _wide_ideal(F3, rng, 3)),
    }
    e_z = rng.randint(2, 12)
    e_f3 = F3.rand_monic(rng, 1)
    modules = {
        "MZ": {"ring": "Z", "generators": 2, "relations": [[ZZ.fmt(e_z), 0]]},
        "MF3": {"ring": "F3x", "generators": 2, "relations": [[F3.fmt(e_f3), 0]]},
    }
    doc = b.document(
        "wide.json",
        _ideal_doc(rings, {n: s.doc(r) for n, (r, s) in specs.items()}, modules),
    )
    plan = {
        "unit4": [("tower", 4)],
        "z4": [("tower", 3, "--with-certificates"), ("complete-check", 2), ("graded", 2)],
        "z3": [("tower", 4), ("complete-check", 3), ("yekutieli", 3)],
        "z2": [("tower", 7), ("tower", 4, "--with-certificates"), ("graded", 6),
               ("complete-check", 5), ("yekutieli", 5)],
        "f2a": [("tower", 6), ("tower", 5, "--with-certificates"), ("complete-check", 4),
                ("graded", 5)],
        "f2b": [("tower", 3), ("graded", 2)],
        "f3a": [("tower", 6), ("complete-check", 4), ("yekutieli", 5)],
        "f3b": [("tower", 3, "--with-certificates"), ("graded", 3)],
    }
    for name, commands in plan.items():
        b.ideal_ops(doc, name, specs[name][1], commands)
    for ideal, module, e, levels in (("z2", "MZ", e_z, 5), ("z3", "MZ", e_z, 3), ("f3a", "MF3", e_f3, 4)):
        spec = specs[ideal][1]
        b.cli(
            ["adic-module", "--ideal", ideal, "--module", module, "--levels", str(levels)],
            "adic-module",
            _module_tower_expect(spec, e, levels),
            doc,
        )
    return b


# The three documents that ``cli.load_document`` does not type-check: each
# ends in a traceback instead of exit 2.  They do not depend on the seed.
HOSTILE_DOCUMENTS = {
    "hostile_module_node.json": {"modules": {"M": 3}},
    "hostile_field_spec.json": {
        "rings": {"R": {"kind": "poly", "coeff": {"fp": "x"}, "var": "x"}}
    },
    "hostile_maps_node.json": {"maps": 5},
}

# The negative control of the acceptance suite: (2) -> (4) is not an
# analytic equivalence, already at level 0 (Z/2 against Z/4).
NEGATIVE_DOCUMENT = {
    "rings": {"Z": {"kind": "integers"}},
    "ideals": {
        "p": {"ring": "Z", "generators": [2]},
        "p2": {"ring": "Z", "generators": [4]},
    },
    "maps": {"into_square": {"source": "p", "target": "p2", "top": [[1]], "bottom": [[2]]}},
}


def deep_towers(seed: int):
    """Principal ideals at 10-40 levels over Z, F_p[x], Q[x] and the
    quotients Z/(m), F_2[x]/(f); module towers; the negative control;
    monomial towers; almost ladders; and the hostile documents."""
    rng = random.Random(seed)
    b = _Builder()
    F2, F5, QX = Domain(True, 2), Domain(True, 5), Domain(True, None)

    # quotient ambients: Z/(m) with m = d^a * c, and F_2[x]/(f) with f = d^a * c
    zd = rng.choice([2, 3])
    zm = zd ** rng.randint(12, 14) * rng.choice([5, 7, 11])
    f2d = F2.rand_monic(rng, 1)
    f2m = F2.mul(F2.pow(f2d, rng.randint(10, 12)), (1, 1, 1))
    rings = {
        "Z": _ring_doc(ZZ),
        "F2x": _ring_doc(F2),
        "F5x": _ring_doc(F5),
        "Qx": _ring_doc(QX),
        "Zm": {"kind": "mod", "n": zm},
        "F2q": {"kind": "quotient", "base": _ring_doc(F2), "modulus": F2.fmt(f2m)},
    }
    specs = {
        "z": ("Z", IdealSpec(ZZ, [rng.randint(2, 30)])),
        "zamb": ("Z", IdealSpec(ZZ, [rng.randint(2, 6) * 6], modulus=rng.randint(2, 6) * 6 ** 8)),
        "f2": ("F2x", IdealSpec(F2, [F2.rand_monic(rng, 2)])),
        "f5": ("F5x", IdealSpec(F5, [F5.rand_monic(rng, 1)])),
        "q": ("Qx", IdealSpec(QX, [QX.rand_monic(rng, 1)])),
        "zm": ("Zm", IdealSpec(ZZ, [zd * rng.choice([1, 5, 7])], modulus=zm)),
        "f2q": ("F2q", IdealSpec(F2, [F2.mul(f2d, F2.rand_monic(rng, 1))], modulus=f2m)),
    }
    e_z = rng.randint(2, 12)
    e_f2 = F2.rand_monic(rng, 2)
    modules = {
        "MZ": {"ring": "Z", "generators": 2, "relations": [[ZZ.fmt(e_z), 0]]},
        "MF2": {"ring": "F2x", "generators": 2, "relations": [[F2.fmt(e_f2), 0]]},
    }
    ideal_docs = {}
    for n, (r, s) in specs.items():
        # the quotient rings carry their modulus in the ring, not the ideal
        d = s.doc(r)
        if r in ("Zm", "F2q"):
            d.pop("ambient_modulus")
        ideal_docs[n] = d
    doc = b.document("deep.json", _ideal_doc(rings, ideal_docs, modules))
    plan = {
        "z": [("tower", 40), ("tower", 12, "--with-certificates"), ("complete-check", 20)],
        "zamb": [("tower", 12), ("graded", 10)],
        "f2": [("tower", 30), ("graded", 12)],
        "f5": [("tower", 30), ("complete-check", 12)],
        "q": [("tower", 20), ("graded", 10)],
        "zm": [("tower", 20), ("complete-check", 16)],
        "f2q": [("tower", 20), ("graded", 12)],
    }
    for name, commands in plan.items():
        b.ideal_ops(doc, name, specs[name][1], commands)
    for ideal, module, e, levels in (("z", "MZ", e_z, 16), ("f2", "MF2", e_f2, 10)):
        b.cli(
            ["adic-module", "--ideal", ideal, "--module", module, "--levels", str(levels)],
            "adic-module",
            _module_tower_expect(specs[ideal][1], e, levels),
            doc,
        )
    for name, levels in (("z", 10), ("f5", 8)):
        b.cli(["yekutieli", "--ideal", name, "--levels", str(levels)], "yekutieli",
              _yekutieli_expect(specs[name][1], levels), doc)

    neg = b.document("negative.json", NEGATIVE_DOCUMENT)
    b.cli(["analytic-check", "--map", "into_square", "--levels", "3"], "negative-control", {}, neg)

    letters = list("abcdefghjkmnpqrstuvwyz")
    for r, field, levels in ((2, "F2", 14), (2, "Q", 12), (3, "F3", 8), (3, "F2", 7)):
        names = rng.sample(letters, r)
        b.cli(
            ["tower", "--engine", "monomial", "--ideal", ",".join(names), "--vars",
             ",".join(names), "--ring", field, "--levels", str(levels)],
            "monomial",
            {"variables": r},
        )
    for depth, levels, witness in ((8, 4, False), (10, 4, False), (8, 4, True), (10, 3, True)):
        argv = ["almost", "--depth", str(depth), "--levels", str(levels)]
        b.cli(argv + (["--witness"] if witness else []), "almost",
              {"witness": witness, "depth": depth, "levels": levels})

    for name, hostile in HOSTILE_DOCUMENTS.items():
        b.cli(["tower", "--ideal", "p", "--levels", "2"], "hostile", {},
              b.document(name, hostile), expect_fault=True)
    return b


# -- oracle-tables -----------------------------------------------------


def corpus_classes(ring: str, max_order: int):
    """(label, summand list) for every corpus module: multisets of the
    ring's cyclic summands with order product <= max_order, labelled the
    way ``FiniteCorpus`` labels them (summand names joined by '+')."""
    summands = {"z2": [(2, "2")], "z3": [(3, "3")], "z4": [(2, "2"), (4, "4")],
                "f2x": [(2, "k"), (4, "R")]}[ring]
    out = []

    def rec(start, acc, order):
        out.append(("+".join(summands[i][1] for i in acc) or "0", [summands[i] for i in acc]))
        for i in range(start, len(summands)):
            if order * summands[i][0] <= max_order:
                rec(i, acc + [i], order * summands[i][0])

    rec(0, [], 1)
    return out


def _order(summands):
    return math.prod(size for size, _ in summands)


def pair_factors(ring: str, A, B):
    """Additive cyclic factors of A (x) B, which equal those of Hom(A, B)
    for these summands: Z/gcd(a, b) per summand pair over z_m, and
    F_2[x]/(x^min) = (Z/2)^min per pair over f2x (k = x^1, R = x^2)."""
    out = []
    for a, _ in A:
        for b, _ in B:
            if ring == "f2x":
                out += [2] * min(a.bit_length() - 1, b.bit_length() - 1)
            else:
                g = math.gcd(a, b)
                if g > 1:
                    out.append(g)
    return sorted(out)


def _random_presentation(ring: str, summands, rng):
    """Relation columns of the direct sum, mixed by seeded unimodular row
    and column operations so the engine sees a non-diagonal presentation
    of the same module.  Entries are integers or F_2[x] strings."""
    n = len(summands)
    if ring == "f2x":
        dom = Domain(True, 2)
        diag = [(0, 1) if name == "k" else (0, 0, 1) for _, name in summands]
        mults = [(1,), (0, 1), (1, 1)]
    else:
        dom = ZZ
        diag = [size for size, _ in summands]
        mults = [1, -1, 2]
    zero = () if dom.poly else 0
    # rows[i][j]: entry i of relation column j
    rows = [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(mults)
        if rng.random() < 0.5:  # row i += c * row j (change of generators)
            rows[i] = [dom.add(x, dom.mul(c, y)) for x, y in zip(rows[i], rows[j])]
        else:  # column i += c * column j (change of relations)
            for r in rows:
                r[i] = dom.add(r[i], dom.mul(c, r[j]))
    return [[dom.fmt(rows[i][j]) if dom.poly else rows[i][j] for i in range(n)] for j in range(n)]


LAW_RINGS = ("z2", "z3", "z4", "f2x")
LAW_PAIR_BOUND = 16


def oracle_tables(seed: int):
    """verify-laws on the four corpora, and engine-versus-table agreement
    on tensor and hom for the z4 and f2x corpus pairs with |M||N| <= 64."""
    rng = random.Random(seed)
    b = _Builder()
    for ring in LAW_RINGS:
        classes = corpus_classes(ring, CORPUS_MAX_ORDER)
        pool = sum(
            math.prod(pair_factors(ring, A, B))
            for _, A in classes
            for _, B in classes
            if _order(A) * _order(B) <= LAW_PAIR_BOUND
        )
        b.cli(["verify-laws", "--ring", ring], "verify-laws", {"arrow_pool": pool})

    engine_rings = {"z4": {"kind": "integers"},
                    "f2x": {"kind": "poly", "coeff": {"fp": 2}, "var": "x"}}
    pairs = []
    for ring in ("z4", "f2x"):
        classes = corpus_classes(ring, CORPUS_MAX_ORDER)
        modules = {
            label: {"ring": "R", "generators": len(s), "relations": _random_presentation(ring, s, rng)}
            for label, s in classes
        }
        doc = b.document(f"corpus_{ring}.json", {"rings": {"R": engine_rings[ring]}, "modules": modules})
        for la, A in classes:
            for lb, B in classes:
                if _order(A) * _order(B) <= PAIR_BOUND:
                    factors = pair_factors(ring, A, B)
                    pairs.append((ring, doc, la, lb, factors))
    rng.shuffle(pairs)
    for ring, doc, la, lb, factors in pairs:
        b.ops.append(
            {
                "id": f"{len(b.ops):02d}:agree {ring} {la} {lb}",
                "kind": "agree",
                "ring": ring,
                "document": doc,
                "a": la,
                "b": lb,
                "check": "agree",
                "expect": {"factors": factors},
                "expect_fault": False,
            }
        )
    return b


BUILDERS = {"wide-ideals": wide_ideals, "deep-towers": deep_towers, "oracle-tables": oracle_tables}


def build(workload: str, seed: int):
    """(documents {file name: JSON object}, operations) for one run."""
    b = BUILDERS[workload](seed)
    return b.documents, b.ops


# -- checks ------------------------------------------------------------
#
# check(op, result) returns None when the output is right, else a short
# reason.  ``result`` is (exit code, stdout, stderr) for cli operations,
# and a dict of orders and factor lists for agreement operations.


def _all_true(entries, keys):
    return all(e.get(k) is True for e in entries for k in keys)


def _check_tower(rep, exp):
    lv = rep.get("levels", [])
    if len(lv) != len(exp["levels"]):
        return "wrong number of levels"
    for n, (got, want) in enumerate(zip(lv, exp["levels"])):
        if got.get("invariant_factors_algebra") != want["algebra"]:
            return f"level {n}: algebra factors {got.get('invariant_factors_algebra')} != {want['algebra']}"
        if got.get("invariant_factors_ideal") != want["ideal"]:
            return f"level {n}: ideal factors {got.get('invariant_factors_ideal')} != {want['ideal']}"
        if got.get("power_map_vanishes") is not True:
            return f"level {n}: power map does not vanish"
        if n and got.get("transition_epi") is not True:
            return f"level {n}: transition not epi"
    return None


def _check_graded(rep, exp):
    lv = rep.get("levels", [])
    if len(lv) != len(exp["levels"]):
        return "wrong number of levels"
    for n, (got, want) in enumerate(zip(lv, exp["levels"])):
        if got.get("graded_invariant_factors") != want["graded"]:
            return f"level {n}: graded factors {got.get('graded_invariant_factors')} != {want['graded']}"
    if not _all_true(lv, ("comparison_is_iso", "transition_kernel_ses_exact", "kernel_matches_graded")):
        return "a graded certificate failed"
    return None


def _check_complete(rep, exp):
    lv = rep.get("levels", [])
    if rep.get("first_failure") is not None or not lv or not _all_true(lv, ("ok",)):
        return "a level is not complete"
    return None


def _check_adic_module(rep, exp):
    lv = rep.get("tower", [])
    if len(lv) != len(exp["levels"]):
        return "wrong number of levels"
    for n, (got, want) in enumerate(zip(lv, exp["levels"])):
        if got.get("invariant_factors_algebra") != want["algebra"]:
            return f"level {n}: algebra factors {got.get('invariant_factors_algebra')} != {want['algebra']}"
        if got.get("invariant_factors_ideal") != want["ideal"]:
            return f"level {n}: ideal factors {got.get('invariant_factors_ideal')} != {want['ideal']}"
        if n and got.get("transition_epi") is not True:
            return f"level {n}: transition not epi"
    if rep.get("completeness", {}).get("ok") is not True:
        return "module tower is not complete"
    return None


def _check_yekutieli(rep, exp):
    powers = rep.get("powers", [])
    if len(powers) != len(exp["routes"]):
        return "wrong number of powers"
    for got, want in zip(powers, exp["routes"]):
        for route, m in got.get("routes", {}).items():
            if m.get("invariant_factors") != want or m.get("free_rank") != 0:
                return f"n={got.get('n')}: route {route} is {m.get('invariant_factors')}, want {want}"
        if len(got.get("routes", {})) != 3:
            return "a route is missing"
    if not _all_true(powers, ("map_image_to_power_iso", "map_power_to_limit_iso", "composite_iso")):
        return "a comparison map is not an iso"
    return None


def _check_monomial(rep, exp):
    r = exp["variables"]
    for lv in rep.get("levels", []):
        n = lv["level"]
        want = (math.comb(n + r, r), math.comb(n + r - 1, r - 1))
        if (lv.get("algebra_dim"), lv.get("graded_dim")) != want:
            return f"level {n}: dims {lv.get('algebra_dim')}, {lv.get('graded_dim')} != {want}"
        if lv.get("ideal_dim") != want[0] - 1 or lv.get("retruncation_consistent") is not True:
            return f"level {n}: ideal dim or re-truncation wrong"
    return None


def _check_almost(rep, exp):
    grid = rep.get("grid", {})
    levels = grid.get("levels", [])
    if len(levels) != exp["levels"] + 1:
        return "wrong number of levels"
    depths = [str(e) for e in range(exp["depth"] + 1)]
    for lv in levels:
        if sorted(lv.get("depths", {}), key=int) != depths:
            return f"level {lv.get('level')}: wrong depths"
        if not all(v.get("almost_iso") is True for v in lv["depths"].values()):
            return f"level {lv.get('level')}: not almost-iso at every depth"
    if exp["witness"]:
        if grid.get("exact_ok") is not False:
            return "the torsion witness is exactly complete"
    elif grid.get("exact_ok") is not True:
        return "the free module is not exactly complete"
    if rep.get("depth_monotone") is not True:
        return "depth verdicts are not monotone"
    return None


def _check_negative(rep, exp):
    first = rep.get("levels", [{}])[0]
    obstruction = first.get("obstruction", {})
    if rep.get("first_failure") != 0 or first.get("ok") is not False:
        return "the negative control did not fail at level 0"
    if obstruction.get("algebra_source") != ["2"] or obstruction.get("algebra_target") != ["4"]:
        return f"wrong level-0 obstruction {obstruction}"
    return None


def _check_laws(rep, exp):
    laws = rep.get("laws", {})
    if rep.get("all_pass") is not True or any(v.get("failures") for v in laws.values()):
        return "a law failed"
    if rep.get("arrow_pool") != exp["arrow_pool"]:
        return f"arrow pool {rep.get('arrow_pool')} != {exp['arrow_pool']}"
    if laws.get("triangle_identities", {}).get("tuples") != exp["arrow_pool"]:
        return "triangle identities do not cover the arrow pool"
    return None


REPORT_CHECKS = {
    "tower": _check_tower,
    "graded": _check_graded,
    "complete-check": _check_complete,
    "adic-module": _check_adic_module,
    "yekutieli": _check_yekutieli,
    "monomial": _check_monomial,
    "almost": _check_almost,
    "negative-control": _check_negative,
    "verify-laws": _check_laws,
}

def check(op, result):
    if op["kind"] == "agree":
        want = op["expect"]["factors"]
        order = math.prod(want)
        for key in ("engine_tensor", "table_tensor", "engine_hom", "table_hom"):
            got = result[key]
            if got is not None and got != want:
                return f"{key} factors {got} != {want}"
        for key in ("engine_tensor_order", "engine_hom_order", "table_tensor_order", "table_hom_order"):
            if result[key] != order:
                return f"{key} {result[key]} != {order}"
        return None

    code, out, err = result
    kind = op["check"]
    if kind == "hostile":
        if code != 2 or out or err.count("\n") != 1:
            return f"exit {code} with {err.count(chr(10))} message lines, want exit 2 and one line"
        return None
    # the negative controls fail their verdict: exit 1 is the right answer
    negative = kind == "negative-control" or (kind == "almost" and op["expect"]["witness"])
    want_code = 1 if negative else 0
    if code != want_code:
        return f"exit {code}, want {want_code}: {err.strip()[:200]}"
    try:
        rep = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    if want_code == 0 and rep.get("ok") is not True:
        return "report is not ok"
    if want_code == 1 and rep.get("ok") is not False:
        return "report does not carry the failed verdict"
    return REPORT_CHECKS[kind](rep, op["expect"])
