"""The table-based layer checked against itself and the matrix engine.

The tables never touch the engine, so any agreement below is between
two computations that share no code: closed-form gcd counts, hand-built
subgroup tables, and engine modules presented by diagonal relations.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import adic_smith
from adic_smith import oracle
from conftest import SMALL_RINGS, ZZ, poly_from_coeffs
from adic_smith.fpmod import FPModule, HomModule, tensor
from adic_smith.oracle import (
    LAW_NAMES,
    MAX_ORDER,
    BoxTables,
    FiniteCorpus,
    TableArrow,
    TableModule,
    TensorTable,
    all_table_arrows,
    check_monoidal_laws,
    cok_arrow,
    cokernel_table,
    corpus_ring,
    count_arrow_squares,
    enumerate_homs,
    hom_candidates,
    hom_count,
    hom_torsion_structure,
    ker_arrow,
    kernel_table,
    product_module,
    quotient_table,
    sub_table,
    tensor_by_elements,
)


def cyclic_table(ring, d):
    """Z/d as a one-factor product table over ``ring``."""
    return product_module(ring, [oracle._cyclic_factor(ring, d)])


def el(M, label):
    """The element of M whose name is ``label``."""
    return M.names.index(label)


def direct_sum_table(A, B):
    """A + B tabulated on index pairs, element u * len(B.names) + v being
    (u, v): the reference for the pushout product's pair-space quotient."""
    n = len(B.names)
    names = tuple(iproduct(range(len(A.names)), range(n)))
    els = [u * n + v for u in A.elements for v in B.elements]
    sum = {p: {q: A.sum[p // n][q // n] * n + B.sum[p % n][q % n] for q in els} for p in els}
    act = None
    if A.act is not None:
        act = [{p: A.act[r][p // n] * n + B.act[r][p % n] for p in els} for r in A.ring.elements]
    return TableModule(A.ring, names, sum, act, els)


Z4_LABELS = ("0", "2", "4", "2+2", "2+4", "2+2+2", "4+4", "2+2+4", "2+2+2+2")
F2X_LABELS = ("0", "k", "R", "k+k", "k+R", "k+k+k", "R+R", "k+k+R", "k+k+k+k")


# -- corpora ----------------------------------------------------------


def test_corpus_counts_and_labels():
    c4 = FiniteCorpus("z4", 16)
    assert c4.module_count() == 9
    assert c4.labels == Z4_LABELS
    cf = FiniteCorpus("f2x", 16)
    assert cf.module_count() == 9
    assert cf.labels == F2X_LABELS
    assert FiniteCorpus("z2", 4).labels == ("0", "2", "2+2")


def test_corpus_order_guardrail():
    with pytest.raises(ValueError, match="guardrail"):
        FiniteCorpus("z4", MAX_ORDER + 1)


def test_corpus_fingerprints_distinct():
    for name in ("z4", "f2x"):
        c = FiniteCorpus(name, 16)
        prints = [M.fingerprint() for M in c.modules]
        assert len(set(prints)) == len(prints)


def test_labels_match_invariant_factors():
    c = FiniteCorpus("z4", 16)
    for lab, M in zip(c.labels, c.modules):
        want = [] if lab == "0" else sorted(int(p) for p in lab.split("+"))
        assert sorted(M.invariant_factor_orders()) == want
    # additively every f2x module is elementary abelian, so the orders
    # only see the 2-rank: k contributes one factor of 2, R two.
    rank = {"k": 1, "R": 2}
    cf = FiniteCorpus("f2x", 16)
    for lab, M in zip(cf.labels, cf.modules):
        r = 0 if lab == "0" else sum(rank[p] for p in lab.split("+"))
        assert M.invariant_factor_orders() == [2] * r


def test_derived_presentation_recovers_elements():
    # coords are read off the table, so recombining them through the
    # generators must land back on the element it came from.
    for M in FiniteCorpus("z4", 16).modules:
        gens = list(M.gens)
        for x in M.elements:
            assert M.combine(M.coords[x], gens) == x
        for r in M.rels:
            assert M.combine(r, gens) == M.zero


def _schreier_relations(M):
    """coords(y) + e_i - coords(y + g_i) over every element y and every
    generator g_i: relations read off the addition table alone, which
    generate the whole relation lattice."""
    rels = set()
    for y in M.elements:
        for i, g in enumerate(M.gens):
            v = list(M.coords[y])
            v[i] += 1
            v = tuple(a - b for a, b in zip(v, M.coords[M.add(y, g)]))
            if any(v):
                rels.add(v)
    return sorted(rels)


def _all_generator_walk(M):
    """(gens, coords) by the breadth-first closure over every generator
    so far, each time a new generator joins."""
    gens, coords = [], {M.zero: ()}
    for x in M.elements:
        if x in coords:
            continue
        gens.append(x)
        k = len(gens)
        coords = {e: c + (0,) * (k - len(c)) for e, c in coords.items()}
        coords[x] = (0,) * (k - 1) + (1,)
        frontier = list(coords)
        while frontier:
            nxt = []
            for e in frontier:
                for i, g in enumerate(gens):
                    s = M.add(e, g)
                    if s not in coords:
                        c = list(coords[e])
                        c[i] += 1
                        coords[s] = tuple(c)
                        nxt.append(s)
            frontier = nxt
    return tuple(gens), coords


def _assert_same_presentation(M):
    gens, coords = _all_generator_walk(M)
    assert M.gens == gens
    assert list(M.coords.items()) == list(coords.items())
    assert M.elements == tuple(sorted(coords))
    k = len(gens)
    # one relation per generator, triangular, its diagonal the order of
    # that generator over the span of the earlier ones (the radix of its
    # mixed-radix coordinate)
    assert len(M.rels) == k
    for i, v in enumerate(M.rels):
        assert all(c == 0 for c in v[i + 1:])
        assert v[i] == 1 + max(c[i] for c in coords.values())
        assert M.combine(v, gens) == M.zero
    # and they span every Schreier relation: back-substitution clears each
    for v in _schreier_relations(M):
        v = list(v)
        for i in range(k - 1, -1, -1):
            q, r = divmod(v[i], M.rels[i][i])
            assert r == 0
            v = [a - q * b for a, b in zip(v, M.rels[i])]
        assert not any(v)


def test_one_walk_per_generator_matches_all_generator_walk(monkeypatch):
    for ring in ("z2", "z3", "z4", "f2x"):
        for M in FiniteCorpus(ring, 16).modules:
            _assert_same_presentation(M)
    derive = TableModule._derive_presentation
    built = []

    def derive_and_check(M):
        derive(M)
        _assert_same_presentation(M)
        built.append(len(M))

    monkeypatch.setattr(TableModule, "_derive_presentation", derive_and_check)
    assert check_monoidal_laws(FiniteCorpus("z2", 16))["all_pass"]
    assert len(built) > 1000 and max(built) > 8


def test_walk_relation_when_a_multiple_lands_in_the_span():
    # Z/9 with 3 and 6 named first: the walk takes 3 as its first
    # generator, then 1, whose triple 3 is the first generator again.
    # Corpus modules and the z2 tables never have such a relation.
    values = [0, 3, 6, 1, 2, 4, 5, 7, 8]
    index = {v: i for i, v in enumerate(values)}
    names = {v: (i, v) for i, v in enumerate(values)}
    M = TableModule(
        corpus_ring("zz"),
        tuple(names.values()),
        [[index[(a + b) % 9] for b in values] for a in values],
        None,
    )
    assert tuple(M.names[g] for g in M.gens) == (names[3], names[1])
    assert M.rels == ((3, 0), (-1, 3))
    _assert_same_presentation(M)


def test_order_of():
    A4 = cyclic_table(corpus_ring("z4"), 4)
    assert A4.orders[el(A4, (1,))] == 4
    assert A4.orders[el(A4, (2,))] == 2
    assert A4.orders[A4.zero] == 1


# -- subgroup and quotient tables -------------------------------------


def test_sub_and_quotient_tables():
    A4 = cyclic_table(corpus_ring("z4"), 4)
    S = sub_table(A4, [el(A4, (0,)), el(A4, (2,))])
    assert S.invariant_factor_orders() == [2]
    Q, label = quotient_table(A4, [el(A4, (2,))])
    assert len(Q) == 2 and A4.names[label[el(A4, (3,))]] == (1,)

    double = TableArrow(A4, A4, {el(A4, (k,)): el(A4, ((2 * k) % 4,)) for k in range(4)})
    assert sorted(A4.names[x] for x in kernel_table(double).elements) == [(0,), (2,)]
    C, _ = cokernel_table(double)
    assert C.invariant_factor_orders() == [2]


def test_direct_sum_table():
    A4 = cyclic_table(corpus_ring("z4"), 4)
    D = direct_sum_table(A4, A4)
    assert len(D) == 16
    assert sorted(D.invariant_factor_orders()) == [4, 4]


# -- index tables against arithmetic on names (property) ---------------

# factor kinds per ring: Z/d by its order d, and over F_2[x]/(x^2) the
# trivial module k and the regular module R
FACTOR_KINDS = {"zz": (1, 2, 3, 4), "z2": (2,), "z3": (3,), "z4": (2, 4), "f2x": ("k", "R")}


def _factor(ring, kind):
    """(oracle factor, add on names, scalar action of a ring name on names)."""
    if kind == "k":
        return oracle._f2x_trivial(ring), lambda a, b: (a + b) % 2, lambda r, a: (r[0] * a) % 2
    if kind == "R":
        return (
            oracle._f2x_regular(ring),
            lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2),
            lambda r, a: ((r[0] * a[0]) % 2, (r[0] * a[1] + r[1] * a[0]) % 2),
        )
    return oracle._cyclic_factor(ring, kind), lambda a, b: (a + b) % kind, lambda r, a: (r * a) % kind


@st.composite
def product_modules(draw, ring_name=None, max_order=16, min_factors=0):
    """(module, add on names, action on names) of a random product of
    min_factors to 3 factors over one ring, of order at most max_order."""
    ring_name = ring_name or draw(st.sampled_from(sorted(FACTOR_KINDS)))
    ring = corpus_ring(ring_name)
    kinds = draw(st.lists(st.sampled_from(FACTOR_KINDS[ring_name]), min_size=min_factors, max_size=3))
    parts = [_factor(ring, kind) for kind in kinds]
    while math.prod(len(p[0][0]) for p in parts) > max_order and len(parts) > min_factors:
        parts.pop()
    M = oracle.product_module(ring, [p[0] for p in parts])

    def add(x, y):
        return tuple(p[1](a, b) for p, a, b in zip(parts, x, y))

    def smul(r, x):
        return tuple(p[2](r, a) for p, a in zip(parts, x))

    return M, add, smul


def _span(zero, seeds, add):
    """Additive closure of the names ``seeds``, by arithmetic on names."""
    span, frontier = {zero}, [zero]
    while frontier:
        frontier = [y for y in {add(x, s) for x in frontier for s in seeds} if y not in span]
        span.update(frontier)
    return span


@settings(max_examples=60, deadline=None)
@given(product_modules())
def test_index_tables_match_arithmetic_on_names(case):
    M, add, smul = case
    for x in M.elements:
        assert M.orders[x] == min(
            o for o in range(1, len(M) + 1) if M.names[M.int_mul(o, x)] == M.names[M.zero]
        )
        for y in M.elements:
            assert M.names[M.sum[x][y]] == add(M.names[x], M.names[y])
        if not M.ring.is_integers:
            for r in M.ring.elements:
                assert M.names[M.act[r][x]] == smul(M.ring.names[r], M.names[x])


@settings(max_examples=60, deadline=None)
@given(product_modules(), st.data())
def test_sub_and_quotient_tables_are_closed(case, data):
    M, add, smul = case
    seeds = data.draw(st.lists(st.sampled_from(M.elements), max_size=3))
    scalars = [None] if M.ring.is_integers else M.ring.elements
    # the submodule the seeds generate is the additive span of their multiples
    rels = [x if r is None else M.act[r][x] for x in seeds for r in scalars]
    want = _span(M.names[M.zero], {M.names[x] for x in rels}, add)
    Q, proj = quotient_table(M, rels)
    assert {M.names[x] for x in M.elements if proj[x] == Q.zero} == want
    assert len(Q) * len(want) == len(M)
    S = sub_table(M, [x for x in M.elements if M.names[x] in want])
    for T in (S, Q):
        for x in T.elements:
            for y in T.elements:
                assert T.add(x, y) in T.elements
            for r in M.ring.elements or ():
                assert T.act[r][x] in T.elements
    for x in M.elements:
        assert proj[x] in Q.elements
        for y in M.elements:
            assert proj[M.add(x, y)] == Q.add(proj[x], proj[y])
        for r in M.ring.elements or ():
            assert proj[M.act[r][x]] == Q.act[r][proj[x]]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FACTOR_KINDS)).flatmap(
    lambda r: st.tuples(product_modules(r), product_modules(r, max_order=8))
))
def test_tensor_pairing_bilinear_and_balanced(case):
    (M, _, _), (N, _, _) = case
    TT = TensorTable(M, N)
    T = TT.module
    for x in M.elements:
        for y in N.elements:
            p = TT.pairing(x, y)
            for xx in M.elements:
                assert TT.pairing(M.add(x, xx), y) == T.add(p, TT.pairing(xx, y))
            for yy in N.elements:
                assert TT.pairing(x, N.add(y, yy)) == T.add(p, TT.pairing(x, yy))
            for r in M.ring.elements or ():
                assert TT.pairing(M.act[r][x], y) == TT.pairing(x, N.act[r][y]) == T.act[r][p]


def _arrow(data, M, N):
    return TableArrow(M, N, data.draw(st.sampled_from(enumerate_homs(M, N))))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FACTOR_KINDS)), st.data())
def test_box_quotient_is_the_direct_sum_quotient(ring_name, data):
    M0, M1, N0, N1 = (data.draw(product_modules(ring_name, 4, min_factors=1))[0] for _ in range(4))
    a, b = _arrow(data, M0, M1), _arrow(data, N0, N1)
    box = BoxTables(a, b)
    M01, M10 = box.T01.module, box.T10.module
    D = direct_sum_table(M01, M10)
    n = len(M10.names)
    W = [
        box.T01.pairing(gm, b.f[gn]) * n + M10.int_mul(-1, box.T10.pairing(a.f[gm], gn))
        for gm in a.src.gens
        for gn in b.src.gens
    ]
    Q, label = quotient_table(D, W)
    assert Q.elements == box.P.elements
    assert label == box.label
    for p in Q.elements:
        assert box.split(p) == D.names[p]
        assert box.project(*D.names[p]) == p
        for q in Q.elements:
            assert Q.add(p, q) == box.P.add(p, q)
        for r in M01.ring.elements or ():
            assert Q.act[r][p] == box.P.act[r][p]


def _block_arrows(a, b):
    """a (x) 1 on T01 and 1 (x) b on T10, both into T11, as tables."""
    ida = TableArrow(a.dst, a.dst, {y: y for y in a.dst.elements})
    idb = TableArrow(b.dst, b.dst, {y: y for y in b.dst.elements})
    return oracle.tensor_arrow_tables(a, idb)[2].f, oracle.tensor_arrow_tables(ida, b)[2].f


def test_box_arrow_is_a_module_map():
    # The arrow is read off coset representatives.  On all of P it must be
    # additive and commute with every scalar, and on each block it must be
    # the tensor arrow, which makes it well defined on the cosets.
    def pool_pairs(ring, bound, corpus_bound=16):
        pool = all_table_arrows(FiniteCorpus(ring, corpus_bound), bound)
        return [(a, b) for a in pool for b in pool if a.order() * b.order() <= bound]

    cases = {ring: pool_pairs(ring, 16) for ring in ("z3", "z4", "f2x")}
    # The pairs above never have a relation (m (x) b(n), -(a(m) (x) n))
    # with both parts of order 3 or 4, so they cannot tell its sign; the
    # pairs of maps Z/3 -> Z/3 (pair order 81) can.
    cases["z3, Z/3 -> Z/3"] = [
        (a, b) for a, b in pool_pairs("z3", 81, 3) if len(a.src) == len(b.src) == 3 == len(a.dst) == len(b.dst)
    ]
    for pairs in cases.values():
        for a, b in pairs:
            box = BoxTables(a, b)
            P, T, f = box.P, box.arrow.dst, box.arrow.f
            for p in P.elements:
                for q in P.elements:
                    assert f[P.add(p, q)] == T.add(f[p], f[q])
                for r in P.ring.elements:
                    assert f[P.act[r][p]] == T.act[r][f[p]]
            left, right = _block_arrows(a, b)
            assert all(f[box.inc1(u)] == left[u] for u in box.T01.module.elements)
            assert all(f[box.inc2(v)] == right[v] for v in box.T10.module.elements)
    assert {k: len(v) for k, v in cases.items()} == {"z3": 19, "z4": 293, "f2x": 293, "z3, Z/3 -> Z/3": 9}


def _closure_tensor(M, N):
    """(names, label, act) of M (x)_R N by closing its relation vectors in
    (Z/e)^(k*l) and numbering the cosets by their first vectors; act(r, v)
    is r acting on the M side of each generator pair."""
    k, l, e = len(M.gens), len(N.gens), math.gcd(M.exponent, N.exponent)
    terms = [[(a * l + j, c) for a, c in enumerate(v)] for v in M.rels for j in range(l)]
    terms += [[(i * l + b, c) for b, c in enumerate(v)] for v in N.rels for i in range(k)]
    for r in M.ring.elements or ():
        terms += [
            [(a * l + j, c) for a, c in enumerate(M.scalar_gen_coords(r, i))]
            + [(i * l + b, -c) for b, c in enumerate(N.scalar_gen_coords(r, j))]
            for i in range(k)
            for j in range(l)
        ]

    def vec(t):
        v = [0] * (k * l)
        for a, c in t:
            v[a] += c
        return tuple(c % e for c in v)

    def add(x, y):
        return tuple((a + b) % e for a, b in zip(x, y))

    sub = _span(vec([]), [vec(t) for t in terms], add)
    names, label = [], {}
    for x in iproduct(range(e), repeat=k * l):
        if x not in label:
            label.update({add(x, s): len(names) for s in sub})
            names.append(x)

    def act(r, v):
        return vec([
            (a * l + j, c * ca)
            for i in range(k)
            for j in range(l)
            for c in [v[i * l + j]]
            for a, ca in enumerate(M.scalar_gen_coords(r, i))
        ])

    return names, label, act


def _assert_tensor_is_the_closure(TT):
    M, N, T = TT._M, TT._N, TT.module
    names, label, act = _closure_tensor(M, N)
    e = math.gcd(M.exponent, N.exponent)
    assert T.names == tuple(names)
    for x in T.elements:
        assert T.sum[x] == [label[tuple((a + b) % e for a, b in zip(names[x], v))] for v in names]
        assert T.orders[x] == min(o for o in range(1, e + 1) if not label[tuple(o * a % e for a in names[x])])
        for r in M.ring.elements or ():
            assert T.act[r][x] == label[act(r, names[x])]
    for m in M.elements:
        for n in N.elements:
            cm, cn = M.coords[m], N.coords[n]
            assert TT.pairing(m, n) == label[tuple(a * b % e for a in cm for b in cn)]


def test_one_element_tables_match_the_generic_construction(monkeypatch):
    # Every one-element tensor table and every box with two one-element
    # blocks that a z2 audit builds, checked against the relation closure
    # and against the direct-sum quotient.  The closure is first checked
    # on every corpus pair, where it builds tables of up to 16 elements.
    c = FiniteCorpus("z2", 16)
    for M in c.modules:
        for N in c.modules:
            if len(M) * len(N) <= 16:
                _assert_tensor_is_the_closure(TensorTable(M, N))
    tensors, boxes = [], []
    tensor_init, box_init = TensorTable.__init__, BoxTables.__init__

    def record_tensor(self, M, N):
        tensor_init(self, M, N)
        if len(self.module) == 1:
            tensors.append(self)

    def record_box(self, a, b):
        box_init(self, a, b)
        if len(self.T01.module) == len(self.T10.module) == 1:
            boxes.append(self)

    monkeypatch.setattr(TensorTable, "__init__", record_tensor)
    monkeypatch.setattr(BoxTables, "__init__", record_box)
    assert check_monoidal_laws(c)["all_pass"]
    monkeypatch.undo()
    assert len(tensors) > 500 and len(boxes) > 300
    # derived zero modules too: the kernel of an injective arrow is a
    # one-element sub-table of a larger one
    assert any(len(TT._M.names) > 1 for TT in tensors if len(TT._M) == 1)
    assert any(len(box.a.src.names) > 1 for box in boxes if len(box.a.src) == 1)

    for TT in tensors:
        _assert_tensor_is_the_closure(TT)
    for box in boxes:
        a, b = box.a, box.b
        M01, M10, M11 = box.T01.module, box.T10.module, box.T11.module
        D, n = direct_sum_table(M01, M10), len(M10.names)
        W = [
            box.T01.pairing(gm, b.f[gn]) * n + M10.int_mul(-1, box.T10.pairing(a.f[gm], gn))
            for gm in a.src.gens
            for gn in b.src.gens
        ]
        Q, label = quotient_table(D, W)
        P = box.P
        assert (P.names, P.elements, P.orders, box.label) == (Q.names, Q.elements, Q.orders, label)
        assert P.sum == Q.sum
        for r in P.ring.elements:
            assert P.act[r] == Q.act[r]
        # the arrow is a (x) 1 on the T01 block plus 1 (x) b on the T10 block
        left, right = _block_arrows(a, b)
        assert box.arrow.src is P and box.arrow.dst is M11
        assert box.arrow.f == {p: M11.add(left[D.names[p][0]], right[D.names[p][1]]) for p in Q.elements}


# -- tensor and hom closed forms --------------------------------------


@pytest.mark.parametrize("a,b,g", [(2, 2, 2), (2, 4, 2), (4, 4, 4), (1, 4, 1)])
def test_tensor_matches_gcd(a, b, g):
    r = corpus_ring("z4")
    T = tensor_by_elements(cyclic_table(r, a), cyclic_table(r, b))
    assert len(T) == g
    assert T.invariant_factor_orders() == ([g] if g > 1 else [])


def test_tensor_pairing_bilinear():
    r = corpus_ring("z4")
    A2, A4 = cyclic_table(r, 2), cyclic_table(r, 4)
    TT = TensorTable(A2, A4)
    T = TT.module
    for x in A2.elements:
        for xx in A2.elements:
            for y in A4.elements:
                lhs = TT.pairing(A2.add(x, xx), y)
                rhs = T.add(TT.pairing(x, y), TT.pairing(xx, y))
                assert lhs == rhs
    # the image of generator x generator generates
    assert T.orders[TT.pairing(el(A2, (1,)), el(A4, (1,)))] == len(T)


def test_tensor_table_is_deterministic():
    # Inside a law audit one tensor table per corpus pair is shared, so
    # ker_lax's determinism check compares that table with itself; here
    # two independent builds must agree.
    pairs = {}
    for ring in ("z2", "z3", "z4", "f2x"):
        c = FiniteCorpus(ring, 16)
        pairs[ring] = 0
        for M in c.modules:
            for N in c.modules:
                if len(M) * len(N) > 64:
                    continue
                S, T = TensorTable(M, N), TensorTable(M, N)
                assert S is not T
                assert S.module.names == T.module.names
                assert all(S.pairing(m, n) == T.pairing(m, n) for m in M.elements for n in N.elements)
                pairs[ring] += 1
    assert pairs == {"z2": 22, "z3": 8, "z4": 60, "f2x": 60}


@pytest.mark.parametrize("a,b,g", [(2, 4, 2), (4, 2, 2), (4, 4, 4), (2, 2, 2)])
def test_hom_count_matches_gcd(a, b, g):
    r = corpus_ring("z4")
    assert hom_count(cyclic_table(r, a), cyclic_table(r, b)) == g
    Z = corpus_ring("zz")
    assert hom_count(cyclic_table(Z, a), cyclic_table(Z, b)) == g


# -- the hom search against the literal reference ---------------------


def _reference_homs(M, N):
    """Every candidate assignment, with each Schreier relation and each
    scalar equation checked on the full assignment."""
    rels = _schreier_relations(M)
    out = []
    for ys in iproduct(*hom_candidates(M, N)):
        ok = all(N.combine(v, ys) == N.zero for v in rels)
        if not M.ring.is_integers:
            ok = ok and all(
                N.act[r][ys[i]] == N.combine(M.scalar_gen_coords(r, i), ys)
                for r in M.ring.elements
                for i in range(len(M.gens))
            )
        if ok:
            out.append({x: N.combine(M.coords[x], ys) for x in M.elements})
    return out


# corpus pairs whose candidate product is at most 1024, per ring
HOM_REFERENCE_PAIRS = {"z2": 22, "z3": 9, "z4": 76, "f2x": 60}


@pytest.mark.parametrize("ring", sorted(HOM_REFERENCE_PAIRS))
def test_hom_search_matches_literal_reference(ring):
    c = FiniteCorpus(ring, 16)
    checked = []
    for la, M in zip(c.labels, c.modules):
        for lb, N in zip(c.labels, c.modules):
            if math.prod(len(p) for p in hom_candidates(M, N)) > 1024:
                continue
            ref = _reference_homs(M, N)
            assert enumerate_homs(M, N) == ref, (la, lb)
            assert hom_count(M, N) == len(ref), (la, lb)
            checked.append((la, lb))
    assert len(checked) == HOM_REFERENCE_PAIRS[ring]
    if ring == "f2x":
        # R's table generators are x and 1, and x * 1 = x, so the scalar
        # equations of R -> R+R mix generators.
        assert ("R", "R+R") in checked


def test_hom_torsion_structure_with_mixed_scalars():
    c = FiniteCorpus("f2x", 16)
    R, RR = (c.modules[c.labels.index(lab)] for lab in ("R", "R+R"))
    # Hom(R, R+R) = R+R and Hom(R+R, R) = R+R, additively (Z/2)^4.
    assert hom_torsion_structure(R, RR) == (16, [2, 2, 2, 2])
    assert hom_torsion_structure(RR, R) == (16, [2, 2, 2, 2])


# -- agreement with the matrix engine ---------------------------------


def _engine_from_label_z4(lab):
    parts = [] if lab == "0" else [int(p) for p in lab.split("+")]
    cols = [[0] * i + [d] + [0] * (len(parts) - 1 - i) for i, d in enumerate(parts)]
    return FPModule(ZZ, len(parts), cols)


def _engine_from_label_f2x(lab):
    F2x = SMALL_RINGS["F2x"]
    x = poly_from_coeffs(F2x, [0, 1])
    x2 = F2x.mul(x, x)
    ann = {"k": x, "R": x2}
    parts = [] if lab == "0" else [ann[p] for p in lab.split("+")]
    cols = [
        [F2x.zero] * i + [a] + [F2x.zero] * (len(parts) - 1 - i)
        for i, a in enumerate(parts)
    ]
    return FPModule(F2x, len(parts), cols)


@pytest.mark.parametrize("la", ["2", "4", "2+2", "2+4"])
@pytest.mark.parametrize("lb", ["2", "4", "2+4"])
def test_engine_agreement_z4(la, lb):
    c = FiniteCorpus("z4", 16)
    Ma = c.modules[c.labels.index(la)]
    Mb = c.modules[c.labels.index(lb)]
    Ea, Eb = _engine_from_label_z4(la), _engine_from_label_z4(lb)

    t_engine = sorted(abs(d) for d in tensor(Ea, Eb).invariant_factors() if d not in (1, -1))
    assert t_engine == sorted(d for d in tensor_by_elements(Ma, Mb).invariant_factor_orders())

    h_engine = len(list(HomModule(Ea, Eb).module.elements()))
    assert h_engine == hom_count(Ma, Mb)


@pytest.mark.parametrize("la", ["k", "R", "k+R"])
@pytest.mark.parametrize("lb", ["k", "R"])
def test_engine_agreement_f2x(la, lb):
    c = FiniteCorpus("f2x", 16)
    Ma = c.modules[c.labels.index(la)]
    Mb = c.modules[c.labels.index(lb)]
    Ea, Eb = _engine_from_label_f2x(la), _engine_from_label_f2x(lb)

    # factor orders are additive on the table side, so compare total
    # sizes: 2^deg per engine factor against the raw element count.
    t_size = 1
    for p in tensor(Ea, Eb).invariant_factors():
        if len(p) > 1:
            t_size *= 2 ** (len(p) - 1)
    assert t_size == len(tensor_by_elements(Ma, Mb))

    h_engine = len(list(HomModule(Ea, Eb).module.elements()))
    assert h_engine == hom_count(Ma, Mb)


# -- law sweeps -------------------------------------------------------


def test_law_names_fixed():
    assert LAW_NAMES == (
        "tensor_symmetry",
        "tensor_assoc",
        "box_symmetry",
        "box_assoc",
        "cok_monoidal",
        "ker_lax",
        "triangle_identities",
        "embed_adjunctions",
        "cok_ker_adjunction",
    )


def test_law_sweep_small_corpus():
    rep = check_monoidal_laws(FiniteCorpus("z2", 4), pair_bound=8, triple_bound=8)
    assert rep["ring"] == "z2"
    assert rep["arrow_pool"] == 15
    assert rep["all_pass"] is True
    tuples = {k: v["tuples"] for k, v in rep["laws"].items()}
    assert tuples == {
        "tensor_symmetry": 49,
        "tensor_assoc": 111,
        "box_symmetry": 49,
        "box_assoc": 111,
        "cok_monoidal": 49,
        "ker_lax": 49,
        "triangle_identities": 15,
        "embed_adjunctions": 25,
        "cok_ker_adjunction": 49,
    }
    assert all(v["failures"] == [] for v in rep["laws"].values())


def test_law_failures_reported_verbatim(monkeypatch):
    # Force every square check and every square count to fail; the laws
    # built on them then report each tuple, pairs, triples and the
    # (module, arrow) tuples of embed_adjunctions alike.
    monkeypatch.setattr(oracle, "_square_ok", lambda *a: False)
    monkeypatch.setattr(oracle, "count_arrow_squares", lambda a, b: -1)
    rep = check_monoidal_laws(FiniteCorpus("z2", 4), pair_bound=8, triple_bound=8)
    assert rep["all_pass"] is False
    assert {k: len(v["failures"]) for k, v in rep["laws"].items()} == {
        "tensor_symmetry": 49,
        "tensor_assoc": 111,
        "box_symmetry": 49,
        "box_assoc": 111,
        "cok_monoidal": 0,
        "ker_lax": 0,
        "triangle_identities": 0,
        "embed_adjunctions": 25,
        "cok_ker_adjunction": 0,
    }
    assert list(rep["laws"]["box_assoc"]["failures"][0]) == ["law", "a", "b", "c"]
    assert list(rep["laws"]["embed_adjunctions"]["failures"][0]) == ["law", "module_factors", "x"]
    assert hashlib.md5(json.dumps(rep).encode()).hexdigest() == "81639205cc24ea8382a916b032f23677"


def test_tables_are_shared_only_within_one_audit(monkeypatch):
    c = FiniteCorpus("z2", 8)
    first = check_monoidal_laws(c)
    assert oracle._audit.get() is None
    assert check_monoidal_laws(c) == first
    assert oracle._audit.get() is None

    seen = []

    def probe(a, b):
        # during the audit: corpus tables are shared, derived ones and the
        # public tensor_by_elements are not
        seen.append((
            oracle._tensor_table(a.src, b.dst) is oracle._tensor_table(a.src, b.dst),
            enumerate_homs(a.src, b.src) is enumerate_homs(a.src, b.src),
            cok_arrow(a) is cok_arrow(a) and ker_arrow(b) is ker_arrow(b),
            cok_arrow(cok_arrow(a)) is not cok_arrow(cok_arrow(a)),
            tensor_by_elements(a.src, b.src) is not tensor_by_elements(a.src, b.src),
            oracle._box_tables(a, b) is oracle._box_tables(a, b),
            oracle._box_tables(ker_arrow(a), b) is not oracle._box_tables(ker_arrow(a), b),
            BoxTables(a, b) is not oracle._box_tables(a, b),
        ))
        return True

    monkeypatch.setitem(oracle._LAWS, "cok_monoidal", (probe, "pairs"))
    rep = check_monoidal_laws(c, laws=("cok_monoidal",))
    assert rep["laws"]["cok_monoidal"]["tuples"] == len(seen) > 0
    assert all(all(s) for s in seen)
    assert oracle._audit.get() is None

    # after the call nothing is shared any more
    M, N = c.modules[1], c.modules[2]
    assert oracle._tensor_table(M, N) is not oracle._tensor_table(M, N)
    assert enumerate_homs(M, N) is not enumerate_homs(M, N)
    a = all_table_arrows(c, 16)[3]
    assert cok_arrow(a) is not cok_arrow(a)
    assert oracle._box_tables(a, a) is not oracle._box_tables(a, a)

    # a law that raises still ends the audit
    def broken(a, b):
        raise RuntimeError("law fault")

    monkeypatch.setitem(oracle._LAWS, "cok_monoidal", (broken, "pairs"))
    with pytest.raises(RuntimeError, match="law fault"):
        check_monoidal_laws(c, laws=("cok_monoidal",))
    assert oracle._audit.get() is None


def test_audit_holds_pool_pair_products_only_while_their_laws_run(monkeypatch):
    # Count the pushout products of pool pairs in the audit's tables after
    # every build.  box_assoc, run alone, holds each pool pair it reads;
    # the whole audit may hold those and the pair the box laws are on.
    built = oracle._box_tables
    held = []

    def counting(a, b):
        value = built(a, b)
        held.append(sum(key[0] is BoxTables for key in oracle._audit.get()[1]))
        return value

    monkeypatch.setattr(oracle, "_box_tables", counting)
    c = FiniteCorpus("z4", 16)
    check_monoidal_laws(c, laws=("box_assoc",))
    assoc_pairs = max(held)
    assert assoc_pairs == 77
    held.clear()
    check_monoidal_laws(c)
    assert 0 < max(held) <= assoc_pairs + 2


def test_hom_count_in_an_audit_is_the_shared_list_length(monkeypatch):
    # inside an audit hom_count of two corpus modules reads the shared
    # list; it must still count every map the search finds
    c = FiniteCorpus("z4", 8)
    checked = []

    def probe(a):
        if not checked:
            for M in c.modules:
                for N in c.modules:
                    assert hom_count(M, N) == sum(1 for _ in oracle._homs(M, N))
                    assert hom_count(M, N) == len(enumerate_homs(M, N))
                    checked.append((M, N))
            # a derived module is not shared: it is counted by the search
            K = ker_arrow(a).src
            assert hom_count(K, a.dst) == sum(1 for _ in oracle._homs(K, a.dst))
        return True

    monkeypatch.setitem(oracle._LAWS, "triangle_identities", (probe, "singles"))
    check_monoidal_laws(c, laws=("triangle_identities",))
    assert len(checked) == len(c.modules) ** 2


def test_law_subset_and_unknown_name():
    c = FiniteCorpus("z2", 4)
    rep = check_monoidal_laws(c, laws=("box_symmetry",), pair_bound=8)
    assert set(rep["laws"]) == {"box_symmetry"}
    with pytest.raises(ValueError, match="unknown laws"):
        check_monoidal_laws(c, laws=("nope",))


def test_square_counts_match_adjunction():
    # |Sq(cok a, b)| == |Sq(a, ker b)| is counted on raw tables here;
    # the pool indices just fix a reproducible sample.
    pool = all_table_arrows(FiniteCorpus("z2", 4), 8)
    assert len(pool) == 15
    frozen = {(3, 5): 1, (5, 7): 1, (2, 9): 4}
    for (i, j), n in frozen.items():
        assert count_arrow_squares(cok_arrow(pool[i]), pool[j]) == n
        assert count_arrow_squares(pool[i], ker_arrow(pool[j])) == n
    for a in pool[:6]:
        for b in pool[:6]:
            assert count_arrow_squares(cok_arrow(a), b) == count_arrow_squares(
                a, ker_arrow(b)
            )


def _nested_square_count(a, b):
    """Every (top, bottom) pair, checked element by element."""
    return sum(
        all(b.f[t[x]] == bo[a.f[x]] for x in a.src.elements)
        for t in enumerate_homs(a.src, b.src)
        for bo in enumerate_homs(a.dst, b.dst)
    )


def test_square_counts_match_nested_loop():
    pool = all_table_arrows(FiniteCorpus("z2", 4), 8)
    arrows = pool + [ker_arrow(a) for a in pool] + [cok_arrow(a) for a in pool]
    counts = [count_arrow_squares(a, b) for a in arrows for b in arrows]
    assert counts == [_nested_square_count(a, b) for a in arrows for b in arrows]
    assert len(counts) == 45**2 and max(counts) > 1


ENGINE_MODULES = ("adic_smith.linalg", "adic_smith.fpmod", "adic_smith.tower", "adic_smith.arrowcat")


def test_oracle_loads_no_engine_module():
    # A fresh interpreter, so modules the suite already imported do not count.
    src = str(Path(adic_smith.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, adic_smith.oracle; print(*sorted(sys.modules), sep='\\n')"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "adic_smith.oracle" in loaded
    assert loaded.isdisjoint(ENGINE_MODULES), sorted(loaded.intersection(ENGINE_MODULES))
    # the CLI holds its own copy of MAX_ORDER rather than the oracle reading the CLI's
    assert "adic_smith.cli" not in loaded
