"""Brute-force oracle layer: modules as literal element tables.

Nothing here touches the matrix engine.  A module is a finite set of
elements with tabulated addition and scalar action; tensors are built
by closing bilinearity and scalar-balancing relations over explicit
generator pairs; categorical laws are checked by enumerating every
arrow tuple under a size bound and reporting counts plus verbatim
counterexamples.  Deliberately slow and simple: the value is that an
agreement with the engine means two unrelated computations concur.

Module maps are found by one depth-first search over per-generator
image candidates (``_homs``).  It checks each relation and each scalar
equation as soon as its generators have images and prunes only the
branches that already fail one, so it stays exhaustive: every map is
found, in the order of the full candidate product.  Hom counts and the
torsion structure of Hom both come from it, for every pair of modules.

A table's presentation comes from one walk per generator: generators are
taken greedily in element order, each new one adds the cosets of the span
before it, and it contributes one relation, so the relations form a
triangular basis of the relation lattice.  A law audit builds the tables
that depend on corpus modules and pool arrows alone (their tensor tables,
hom lists, kernel and cokernel arrows) once per ``check_monoidal_laws``
call and drops them when it returns; tables of derived modules are built
per tuple, and ``tensor_by_elements`` always builds a fresh table.

Corpus rings are Z/2, Z/3, Z/4 and F_2[x]/(x^2); the integers are
also available as a scalar domain for plain abelian-group examples.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from itertools import product as iproduct

MAX_ORDER = 64

# Set by ``check_monoidal_laws`` for the length of one call, None outside:
# (its corpus modules and pool arrows, the tables built from them alone).
_audit = ContextVar("audit", default=None)


def _shared_in_audit(build):
    """``build``, except that inside a law audit a call whose arguments
    are all corpus modules or pool arrows is built once for the call."""

    @functools.wraps(build)
    def call(*args):
        audit = _audit.get()
        if audit is None or not audit[0].issuperset(args):
            return build(*args)
        memo = audit[1]
        key = (build, *args)
        if key not in memo:
            memo[key] = build(*args)
        return memo[key]

    return call


class TableRing:
    """Finite commutative ring by tables, or the integers (elements None)."""

    __slots__ = ("name", "elements", "zero", "one", "_add", "_mul")

    def __init__(self, name, elements, zero, one, add, mul):
        self.name = name
        self.elements = tuple(elements) if elements is not None else None
        self.zero = zero
        self.one = one
        self._add = add
        self._mul = mul

    @property
    def is_integers(self):
        return self.elements is None

    def add(self, a, b):
        return self._add(a, b)

    def mul(self, a, b):
        return self._mul(a, b)

    def __repr__(self):
        return f"TableRing({self.name})"


def corpus_ring(name: str) -> TableRing:
    if name in ("z2", "z3", "z4"):
        m = int(name[1:])
        return TableRing(name, range(m), 0, 1, lambda a, b: (a + b) % m, lambda a, b: (a * b) % m)
    if name == "f2x":
        els = [(0, 0), (1, 0), (0, 1), (1, 1)]
        return TableRing(
            "f2x",
            els,
            (0, 0),
            (1, 0),
            lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2),
            lambda a, b: ((a[0] * b[0]) % 2, (a[0] * b[1] + a[1] * b[0]) % 2),
        )
    if name == "zz":
        return TableRing("zz", None, 0, 1, lambda a, b: a + b, lambda a, b: a * b)
    raise ValueError(f"unknown oracle ring {name!r}")


class TableModule:
    """Element set with addition and scalar action, plus a derived
    presentation (generators, integer coordinates, relation vectors)
    recovered by walking the span of each generator in turn."""

    __slots__ = (
        "ring", "elements", "zero", "_add", "_smul",
        "gens", "coords", "rels", "exponent", "_orders",
    )

    def __init__(self, ring: TableRing, elements, add, smul):
        self.ring = ring
        self.elements = tuple(sorted(elements))
        self._add = add
        self._smul = smul
        self.zero = next(x for x in self.elements if add(x, x) == x)
        self._orders = {}
        for x in self.elements:
            y, o = x, 1
            while y != self.zero:
                y = add(y, x)
                o += 1
            self._orders[x] = o
        self.exponent = 1
        for o in self._orders.values():
            g = _gcd(self.exponent, o)
            self.exponent = self.exponent // g * o
        self._derive_presentation()

    # -- arithmetic ---------------------------------------------------
    def add(self, x, y):
        return self._add(x, y)

    def smul(self, r, x):
        return self._smul(r, x)

    def int_mul(self, k: int, x):
        k %= self._orders[x]
        y = self.zero
        for _ in range(k):
            y = self._add(y, x)
        return y

    def order_of(self, x) -> int:
        return self._orders[x]

    def combine(self, vec, images):
        """sum of vec[i] * images[i]; images under a zero coefficient
        are never read."""
        y = self.zero
        for c, g in zip(vec, images):
            if c:
                y = self._add(y, self.int_mul(c, g))
        return y

    # -- derived presentation -----------------------------------------
    def _derive_presentation(self):
        """Generators are taken greedily in element order.  The span of the
        earlier generators is a closed subgroup S, so a new generator x
        adds exactly the cosets S + j*x for 0 < j < o, where o is the order
        of x modulo S: coordinates are mixed radix, and the single relation
        o*e_x - coords(o*x) per generator is a triangular basis of the
        relation lattice."""
        gens, coords, rels = [], {self.zero: ()}, []
        for x in self.elements:
            if x in coords:
                continue
            gens.append(x)
            span = [(e, c + (0,)) for e, c in coords.items()]
            coords = dict(span)
            y, j = x, 1
            while y not in coords:
                for e, c in span:
                    coords[self._add(e, y)] = c[:-1] + (j,)
                y, j = self._add(y, x), j + 1
            rels.append(tuple(-c for c in coords[y][:-1]) + (j,))
        k = len(gens)
        self.gens = tuple(gens)
        self.coords = coords
        self.rels = tuple(v + (0,) * (k - len(v)) for v in rels)

    def scalar_gen_coords(self, r, i):
        """Coordinates of r * gens[i]."""
        return self.coords[self._smul(r, self.gens[i])]

    # -- invariants ---------------------------------------------------
    def torsion_counts(self):
        out = {}
        for d in range(1, self.exponent + 1):
            if self.exponent % d == 0:
                out[d] = sum(1 for x in self.elements if self.int_mul(d, x) == self.zero)
        return out

    def fingerprint(self):
        """Complete iso invariant on the corpus: size, d-torsion counts,
        and scalar-kernel sizes per ring element."""
        tor = tuple(sorted(self.torsion_counts().items()))
        if self.ring.is_integers:
            scal = ()
        else:
            scal = tuple(
                sum(1 for x in self.elements if self._smul(r, x) == self.zero)
                for r in self.ring.elements
            )
        return (len(self.elements), tor, scal)

    def invariant_factor_orders(self):
        return invariant_factors_from_torsion(len(self.elements), self.torsion_counts())

    def __len__(self):
        return len(self.elements)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def invariant_factors_from_torsion(order: int, counts: dict):
    """Cyclic factor orders of a finite abelian group from its
    d-torsion counts, prime by prime."""
    factors = []
    n, p = order, 2
    while n > 1:
        if n % p:
            p += 1
            continue
        layers = []
        j = 1
        while True:
            lo = counts.get(p ** (j - 1), None)
            hi = counts.get(p**j, None)
            if lo is None or hi is None or hi == lo:
                break
            ratio, e = hi // lo, 0
            while ratio > 1:
                ratio //= p
                e += 1
            layers.append(e)
            j += 1
        for j, dim in enumerate(layers):
            nxt = layers[j + 1] if j + 1 < len(layers) else 0
            for _ in range(dim - nxt):
                factors.append(p ** (j + 1))
        while n % p == 0:
            n //= p
    return sorted(factors)


# -- corpus construction ---------------------------------------------


def _cyclic_int_factor(d: int):
    """Z/d with integer-like scalar action (works over Z/m and Z)."""
    return {
        "elements": tuple(range(d)),
        "add": lambda a, b: (a + b) % d,
        "smul": lambda r, a: (r * a) % d,
    }


def _f2x_regular(ring: TableRing):
    return {
        "elements": ring.elements,
        "add": ring.add,
        "smul": ring.mul,
    }


def _f2x_trivial():
    return {
        "elements": (0, 1),
        "add": lambda a, b: (a + b) % 2,
        "smul": lambda r, a: (r[0] * a) % 2,
    }


def product_module(ring: TableRing, factors) -> TableModule:
    factors = list(factors)
    els = list(iproduct(*[f["elements"] for f in factors]))

    def add(x, y):
        return tuple([f["add"](a, b) for f, a, b in zip(factors, x, y)])

    def smul(r, x):
        return tuple([f["smul"](r, a) for f, a in zip(factors, x)])

    return TableModule(ring, els, add, smul)


def zero_table_module(ring: TableRing) -> TableModule:
    return product_module(ring, [])


def cyclic_table_module(ring: TableRing, d: int) -> TableModule:
    return product_module(ring, [_cyclic_int_factor(d)])


class FiniteCorpus:
    """All module iso classes over a corpus ring up to a size bound."""

    __slots__ = ("ring_name", "ring", "max_order", "modules", "labels")

    def __init__(self, ring_name: str, max_order: int):
        if max_order > MAX_ORDER:
            raise ValueError(f"corpus bound {max_order} exceeds the {MAX_ORDER} guardrail")
        self.ring_name = ring_name
        self.ring = corpus_ring(ring_name)
        self.max_order = max_order
        if ring_name in ("z2", "z3", "z4"):
            m = int(ring_name[1:])
            opts = [(d, _cyclic_int_factor(d), str(d)) for d in range(2, m + 1) if m % d == 0]
        elif ring_name == "f2x":
            opts = [(2, _f2x_trivial(), "k"), (4, _f2x_regular(self.ring), "R")]
        else:
            raise ValueError("corpus needs a finite ring")
        built = []
        for multi in _bounded_multisets([o[0] for o in opts], max_order):
            facs = [opts[i][1] for i in multi]
            label = "+".join(opts[i][2] for i in multi) or "0"
            built.append((label, product_module(self.ring, facs)))
        seen = {}
        for label, M in built:
            fp = M.fingerprint()
            if fp in seen:
                raise AssertionError(f"duplicate corpus class {label}")
            seen[fp] = True
        built.sort(key=lambda t: (len(t[1]), t[1].fingerprint()))
        self.labels = tuple(t[0] for t in built)
        self.modules = tuple(t[1] for t in built)

    def module_count(self) -> int:
        return len(self.modules)


def _bounded_multisets(sizes, bound):
    """Index multisets with product of sizes <= bound, deterministic."""
    out = []

    def rec(start, acc, prod):
        out.append(tuple(acc))
        for i in range(start, len(sizes)):
            if prod * sizes[i] <= bound:
                acc.append(i)
                rec(i, acc, prod * sizes[i])
                acc.pop()

    rec(0, [], 1)
    return out


# -- hom enumeration -------------------------------------------------


def hom_candidates(M: TableModule, N: TableModule):
    """Per-generator image candidates (additive order constraint)."""
    out = []
    for g in M.gens:
        o = M.order_of(g)
        out.append([y for y in N.elements if N.int_mul(o, y) == N.zero])
    return out


def _homs(M: TableModule, N: TableModule):
    """Image tuples of every module map M -> N, in the order of
    ``iproduct(*hom_candidates(M, N))``.

    Depth first over the candidates: each relation of M, and each scalar
    equation r*g_i = sum c_j g_j, is checked as soon as the last
    generator it involves has an image, and a partial assignment that
    fails one is not extended.  Every other branch is walked to the end.
    """
    cands = hom_candidates(M, N)
    k = len(cands)
    # eqs[d]: the equations (r, i, vec) whose last generator is d, read as
    # r*ys[i] == combine(vec, ys), or 0 == combine(vec, ys) for r None
    eqs = [[] for _ in range(k)]
    for v in M.rels:
        eqs[max(j for j, c in enumerate(v) if c)].append((None, None, v))
    if not M.ring.is_integers:
        for r in M.ring.elements:
            for i in range(k):
                v = M.scalar_gen_coords(r, i)
                eqs[max([i] + [j for j, c in enumerate(v) if c])].append((r, i, v))
    ys = [None] * k

    def walk(d):
        if d == k:
            yield tuple(ys)
            return
        for y in cands[d]:
            ys[d] = y
            if all(
                N.combine(v, ys) == (N.zero if r is None else N.smul(r, ys[i]))
                for r, i, v in eqs[d]
            ):
                yield from walk(d + 1)

    return walk(0)


@_shared_in_audit
def enumerate_homs(M: TableModule, N: TableModule):
    """All module maps M -> N as element tables (dicts).  Inside a law
    audit the list for two corpus modules is shared: do not mutate it."""
    return [{x: N.combine(M.coords[x], ys) for x in M.elements} for ys in _homs(M, N)]


def hom_count(M: TableModule, N: TableModule) -> int:
    return sum(1 for _ in _homs(M, N))


def hom_torsion_structure(M: TableModule, N: TableModule):
    """(order, cyclic factor orders) of Hom(M, N) as an abelian group.

    The d-torsion counts are read off the enumerated maps: d kills a map
    exactly when it kills the image of every generator, that is when the
    order of each image divides d.  The search is
    the exhaustive one of ``hom_count``, so this answers for every pair.
    """
    divisors = [d for d in range(1, N.exponent + 1) if N.exponent % d == 0]
    total, counts = 0, dict.fromkeys(divisors, 0)
    for ys in _homs(M, N):
        total += 1
        for d in divisors:
            counts[d] += all(d % N.order_of(y) == 0 for y in ys)
    exp = next(d for d in divisors if counts[d] == total)
    full = {d: counts[d] for d in divisors if exp % d == 0}
    return total, invariant_factors_from_torsion(total, full)


# -- tensor by relation closure --------------------------------------


class TensorTable:
    """M (x)_R N as a quotient of (Z/e)^(gM*gN) by the closed relation
    subgroup, with the bilinear pairing into it."""

    __slots__ = ("module", "pairing", "_M")

    def __init__(self, M: TableModule, N: TableModule):
        ring = M.ring
        k, l = len(M.gens), len(N.gens)
        e = _gcd(M.exponent, N.exponent)
        dim = k * l
        relvecs = set()

        def vec_from(mvec, j=None, i=None):
            v = [0] * dim
            if j is not None:
                for a in range(k):
                    v[a * l + j] = mvec[a] % e
            else:
                for b in range(l):
                    v[i * l + b] = mvec[b] % e
            return tuple(v)

        for mv in M.rels:
            for j in range(l):
                v = vec_from(mv, j=j)
                if any(v):
                    relvecs.add(v)
        for nv in N.rels:
            for i in range(k):
                v = vec_from(nv, i=i)
                if any(v):
                    relvecs.add(v)
        if not ring.is_integers:
            for r in ring.elements:
                for i in range(k):
                    for j in range(l):
                        v = [0] * dim
                        for a, c in enumerate(M.scalar_gen_coords(r, i)):
                            v[a * l + j] += c
                        for b, c in enumerate(N.scalar_gen_coords(r, j)):
                            v[i * l + b] -= c
                        v = tuple(c % e for c in v)
                        if any(v):
                            relvecs.add(v)

        def add(x, y):
            return tuple([(a + b) % e for a, b in zip(x, y)])

        label, reps = _cosets(iproduct(*[range(e)] * dim), add, (0,) * dim, relvecs)
        self._M = M

        def smul(r, x):
            v = [0] * dim
            for i in range(k):
                for j in range(l):
                    c = x[i * l + j]
                    if c:
                        for a, ca in enumerate(M.scalar_gen_coords(r, i)):
                            v[a * l + j] += c * ca
            return label[tuple(c % e for c in v)]

        self.module = TableModule(ring, reps, lambda x, y: label[add(x, y)], smul)

        def pairing(m, n):
            cm, cn = M.coords[m], N.coords[n]
            return label[tuple((cm[i] * cn[j]) % e for i in range(k) for j in range(l))]

        self.pairing = pairing


def tensor_by_elements(M: TableModule, N: TableModule) -> TableModule:
    return TensorTable(M, N).module


_tensor_table = _shared_in_audit(TensorTable)


# -- maps, subs and quotients as tables ------------------------------


class TableArrow:
    """A module map as an element table, kept with its endpoints."""

    __slots__ = ("src", "dst", "f")

    def __init__(self, src: TableModule, dst: TableModule, f: dict):
        self.src = src
        self.dst = dst
        self.f = f

    def order(self) -> int:
        return len(self.src) * len(self.dst)

    def is_injective(self) -> bool:
        return len(set(self.f.values())) == len(self.src)

    def __call__(self, x):
        return self.f[x]


def sub_table(M: TableModule, subset) -> TableModule:
    return TableModule(M.ring, subset, M._add, M._smul)


def _cosets(elements, add, zero, gens):
    """(label, reps): each element's coset representative modulo the
    subgroup ``gens`` generate, the first of its coset in ``elements``,
    and the representatives in that order."""
    sub = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for w in gens:
                y = add(x, w)
                if y not in sub:
                    sub.add(y)
                    nxt.append(y)
        frontier = nxt
    label = {}
    reps = []
    for x in elements:
        if x in label:
            continue
        reps.append(x)
        for s in sub:
            label[add(x, s)] = x
    return label, reps


def quotient_table(M: TableModule, rel_elements):
    """(Q, projection dict) of M by the subgroup the elements generate."""
    label, reps = _cosets(M.elements, M.add, M.zero, rel_elements)
    Q = TableModule(M.ring, reps, lambda a, b: label[M.add(a, b)], lambda r, a: label[M.smul(r, a)])
    return Q, label


def direct_sum_table(A: TableModule, B: TableModule) -> TableModule:
    els = list(iproduct(A.elements, B.elements))
    return TableModule(
        A.ring,
        els,
        lambda x, y: (A.add(x[0], y[0]), B.add(x[1], y[1])),
        lambda r, x: (A.smul(r, x[0]), B.smul(r, x[1])),
    )


def kernel_table(a: TableArrow) -> TableModule:
    return sub_table(a.src, [x for x in a.src.elements if a.f[x] == a.dst.zero])


def cokernel_table(a: TableArrow):
    return quotient_table(a.dst, [a.f[x] for x in a.src.elements])


# -- arrows and functors over tables ---------------------------------


def all_table_arrows(corpus: FiniteCorpus, max_arrow_order: int):
    """Every map between corpus modules, as arrows of bounded order."""
    pool = []
    for M in corpus.modules:
        for N in corpus.modules:
            if len(M) * len(N) > max_arrow_order:
                continue
            for f in enumerate_homs(M, N):
                pool.append(TableArrow(M, N, f))
    return pool


def identity_map(M: TableModule) -> dict:
    return {x: x for x in M.elements}


def compose_tables(g: dict, f: dict) -> dict:
    return {x: g[y] for x, y in f.items()}


@_shared_in_audit
def ker_arrow(a: TableArrow) -> TableArrow:
    K = kernel_table(a)
    return TableArrow(K, a.src, {x: x for x in K.elements})


@_shared_in_audit
def cok_arrow(a: TableArrow) -> TableArrow:
    C, lab = cokernel_table(a)
    return TableArrow(a.dst, C, {y: lab[y] for y in a.dst.elements})


class ArrowSquare:
    """Map of arrows: a pair of tables making the square commute."""

    __slots__ = ("source", "target", "top", "bottom")

    def __init__(self, source: TableArrow, target: TableArrow, top: dict, bottom: dict):
        self.source = source
        self.target = target
        self.top = top
        self.bottom = bottom

    def commutes(self) -> bool:
        return all(
            self.target.f[self.top[x]] == self.bottom[self.source.f[x]]
            for x in self.source.src.elements
        )

    def compose(self, other: "ArrowSquare") -> "ArrowSquare":
        return ArrowSquare(
            other.source,
            self.target,
            compose_tables(self.top, other.top),
            compose_tables(self.bottom, other.bottom),
        )

    def is_identity(self) -> bool:
        return all(self.top[x] == x for x in self.source.src.elements) and all(
            self.bottom[y] == y for y in self.source.dst.elements
        )


def count_arrow_squares(a: TableArrow, b: TableArrow) -> int:
    tops = enumerate_homs(a.src, b.src)
    bottoms = enumerate_homs(a.dst, b.dst)
    n = 0
    for t in tops:
        lhs = {x: b.f[t[x]] for x in a.src.elements}
        for bo in bottoms:
            if all(lhs[x] == bo[a.f[x]] for x in a.src.elements):
                n += 1
    return n


def tensor_arrow_tables(a: TableArrow, b: TableArrow):
    """(T0, T1, arrow) for the componentwise tensor of two arrows."""
    T0 = _tensor_table(a.src, b.src)
    T1 = _tensor_table(a.dst, b.dst)
    M1 = T1.module
    imgs = [T1.pairing(a.f[g], b.f[h]) for g, h in iproduct(a.src.gens, b.src.gens)]
    return T0, T1, TableArrow(T0.module, M1, {x: M1.combine(x, imgs) for x in T0.module.elements})


class BoxTables:
    """Pushout product of two table arrows, with its block structure."""

    __slots__ = ("a", "b", "T01", "T10", "T11", "D", "label", "P", "inc1", "inc2", "arrow")

    def __init__(self, a: TableArrow, b: TableArrow):
        self.a, self.b = a, b
        self.T01 = _tensor_table(a.src, b.dst)
        self.T10 = _tensor_table(a.dst, b.src)
        self.T11 = _tensor_table(a.dst, b.dst)
        M01, M10, M11 = self.T01.module, self.T10.module, self.T11.module
        D = direct_sum_table(M01, M10)
        W = []
        for gm in a.src.gens:
            for gn in b.src.gens:
                alpha = self.T01.pairing(gm, b.f[gn])
                beta = self.T10.pairing(a.f[gm], gn)
                W.append((alpha, M10.int_mul(M10.order_of(beta) - 1, beta)))
        P, lab = quotient_table(D, W)
        self.D, self.label, self.P = D, lab, P

        def inc1(u):
            return lab[(u, M10.zero)]

        def inc2(v):
            return lab[(M01.zero, v)]

        self.inc1, self.inc2 = inc1, inc2

        left = [self.T11.pairing(a.f[g], h) for g, h in iproduct(a.src.gens, b.dst.gens)]
        right = [self.T11.pairing(g, b.f[h]) for g, h in iproduct(a.dst.gens, b.src.gens)]
        f = {p: M11.add(M11.combine(p[0], left), M11.combine(p[1], right)) for p in P.elements}
        self.arrow = TableArrow(P, M11, f)


def _is_iso(src: TableModule, dst: TableModule, f: dict) -> bool:
    """f is a bijective module map src -> dst."""
    return (
        len(src) == len(dst)
        and len(set(f.values())) == len(src)
        and all(f[src.add(x, y)] == dst.add(f[x], f[y]) for x in src.elements for y in src.elements)
        and (
            src.ring.is_integers
            or all(f[src.smul(r, x)] == dst.smul(r, f[x]) for r in src.ring.elements for x in src.elements)
        )
    )


# -- canonical comparison maps ---------------------------------------


def _assoc_map(TL_outer: TensorTable, A: TableModule, B: TableModule, C: TableModule,
               TR_inner: TensorTable, TR_outer: TensorTable) -> dict:
    """((A x B) x C) -> (A x (B x C)) on pure generators, extended."""
    Rm = TR_outer.module
    imgs = [
        Rm.combine(u, [TR_outer.pairing(g, TR_inner.pairing(h, w)) for g, h in iproduct(A.gens, B.gens)])
        for u, w in iproduct(TL_outer._M.gens, C.gens)
    ]
    return {x: Rm.combine(x, imgs) for x in TL_outer.module.elements}


def _swap_map(Tab: TensorTable, A: TableModule, B: TableModule, Tba: TensorTable) -> dict:
    imgs = [Tba.pairing(h, g) for g, h in iproduct(A.gens, B.gens)]
    return {x: Tba.module.combine(x, imgs) for x in Tab.module.elements}


def _square_ok(src0, chi0, f_left, f_right, chi1) -> bool:
    return all(chi1[f_left[x]] == f_right[chi0[x]] for x in src0.elements)


def _describe_arrow(a: TableArrow):
    return {
        "src_factors": a.src.invariant_factor_orders(),
        "dst_factors": a.dst.invariant_factor_orders(),
        "map": str(sorted(a.f.items())),
    }


def _eta_square(a: TableArrow) -> ArrowSquare:
    ca = cok_arrow(a)
    kca = ker_arrow(ca)
    top = {x: a.f[x] for x in a.src.elements}
    bottom = identity_map(a.dst)
    return ArrowSquare(a, kca, top, bottom)


def _eps_square(b: TableArrow) -> ArrowSquare:
    kb = ker_arrow(b)
    ckb = cok_arrow(kb)
    top = identity_map(b.src)
    bottom = {c: b.f[c] for c in ckb.dst.elements}
    return ArrowSquare(ckb, b, top, bottom)


def cok_square(phi: ArrowSquare) -> ArrowSquare:
    cs = cok_arrow(phi.source)
    ct = cok_arrow(phi.target)
    top = phi.bottom
    bottom = {c: ct.f[phi.bottom[c]] for c in cs.dst.elements}
    return ArrowSquare(cs, ct, top, bottom)


def ker_square(phi: ArrowSquare) -> ArrowSquare:
    ks = ker_arrow(phi.source)
    kt = ker_arrow(phi.target)
    top = {x: phi.top[x] for x in ks.src.elements}
    return ArrowSquare(ks, kt, top, phi.top)


# -- laws: each a predicate on one tuple -----------------------------


def _tensor_symmetry(a, b):
    T0ab, T1ab, tab = tensor_arrow_tables(a, b)
    T0ba, T1ba, tba = tensor_arrow_tables(b, a)
    s0 = _swap_map(T0ab, a.src, b.src, T0ba)
    s1 = _swap_map(T1ab, a.dst, b.dst, T1ba)
    return (
        _is_iso(T0ab.module, T0ba.module, s0)
        and _is_iso(T1ab.module, T1ba.module, s1)
        and _square_ok(T0ab.module, s0, tab.f, tba.f, s1)
    )


def _tensor_assoc(a, b, c):
    T0ab, T1ab, ab = tensor_arrow_tables(a, b)
    L0, L1, left = tensor_arrow_tables(ab, c)
    T0bc, T1bc, bc = tensor_arrow_tables(b, c)
    R0, R1, right = tensor_arrow_tables(a, bc)
    chi0 = _assoc_map(L0, a.src, b.src, c.src, T0bc, R0)
    chi1 = _assoc_map(L1, a.dst, b.dst, c.dst, T1bc, R1)
    return (
        _is_iso(L0.module, R0.module, chi0)
        and _is_iso(L1.module, R1.module, chi1)
        and _square_ok(L0.module, chi0, left.f, right.f, chi1)
    )


def _box_symmetry(a, b):
    bab = BoxTables(a, b)
    bba = BoxTables(b, a)
    swap_u = _swap_map(bab.T01, a.src, b.dst, bba.T10)
    swap_v = _swap_map(bab.T10, a.dst, b.src, bba.T01)
    sP = {p: bba.label[(swap_v[p[1]], swap_u[p[0]])] for p in bab.P.elements}
    s11 = _swap_map(bab.T11, a.dst, b.dst, bba.T11)
    return _is_iso(bab.P, bba.P, sP) and _square_ok(bab.P, sP, bab.arrow.f, bba.arrow.f, s11)


def _box_assoc(a, b, c):
    AB = BoxTables(a, b)
    L = BoxTables(AB.arrow, c)
    BC = BoxTables(b, c)
    R = BoxTables(a, BC.arrow)
    P = R.P

    def block1(pgen, z):
        u, v = pgen
        us = [R.inc1(R.T01.pairing(g, BC.T11.pairing(h, z))) for g, h in iproduct(a.src.gens, b.dst.gens)]
        vs = [R.inc2(R.T10.pairing(g, BC.inc1(BC.T01.pairing(h, z)))) for g, h in iproduct(a.dst.gens, b.src.gens)]
        return P.add(P.combine(u, us), P.combine(v, vs))

    def block2(u11, z0):
        ws = [R.inc2(R.T10.pairing(g, BC.inc2(BC.T10.pairing(h, z0)))) for g, h in iproduct(a.dst.gens, b.dst.gens)]
        return P.combine(u11, ws)

    imgs1 = [block1(p, z) for p, z in iproduct(AB.P.gens, c.dst.gens)]
    imgs2 = [block2(u, z) for u, z in iproduct(AB.T11.module.gens, c.src.gens)]
    chi = {p: P.add(P.combine(p[0], imgs1), P.combine(p[1], imgs2)) for p in L.P.elements}
    kappa = _assoc_map(L.T11, a.dst, b.dst, c.dst, BC.T11, R.T11)
    return (
        _is_iso(L.P, R.P, chi)
        and _is_iso(L.T11.module, R.T11.module, kappa)
        and _square_ok(L.P, chi, L.arrow.f, R.arrow.f, kappa)
    )


def _cok_monoidal(a, b):
    C, _ = cokernel_table(BoxTables(a, b).arrow)
    ca, cb = cok_arrow(a), cok_arrow(b)
    Tcc = _tensor_table(ca.dst, cb.dst)
    imgs = [Tcc.pairing(ca.f[g], cb.f[h]) for g, h in iproduct(a.dst.gens, b.dst.gens)]
    return _is_iso(C, Tcc.module, {y: Tcc.module.combine(y, imgs) for y in C.elements})


def _ker_lax(a, b):
    bk = BoxTables(ker_arrow(a), ker_arrow(b))
    T0, _, tab = tensor_arrow_tables(a, b)
    if bk.T11.module.elements != T0.module.elements:
        raise AssertionError("tensor table construction is not deterministic")
    K = {z for z in T0.module.elements if tab.f[z] == tab.dst.zero}
    return all(bk.arrow.f[p] in K for p in bk.P.elements)


def _triangle_identities(a):
    eta = _eta_square(a)
    tri1 = _eps_square(cok_arrow(a)).compose(cok_square(eta))
    tri2 = ker_square(_eps_square(a)).compose(_eta_square(ker_arrow(a)))
    return eta.commutes() and tri1.commutes() and tri1.is_identity() and tri2.commutes() and tri2.is_identity()


def _embed_adjunctions(M, x):
    Z = zero_table_module(M.ring)
    idM = TableArrow(M, M, identity_map(M))
    L1M = TableArrow(Z, M, {Z.zero: M.zero})
    U0M = TableArrow(M, Z, {m: Z.zero for m in M.elements})
    return (
        count_arrow_squares(idM, x) == hom_count(M, x.src)
        and count_arrow_squares(L1M, x) == hom_count(M, x.dst)
        and count_arrow_squares(x, U0M) == hom_count(x.src, M)
        and count_arrow_squares(x, idM) == hom_count(x.dst, M)
    )


def _cok_ker_adjunction(a, b):
    return count_arrow_squares(cok_arrow(a), b) == count_arrow_squares(a, ker_arrow(b))


# name -> (predicate, the kind of tuple it runs over)
_LAWS = {
    "tensor_symmetry": (_tensor_symmetry, "pairs"),
    "tensor_assoc": (_tensor_assoc, "triples"),
    "box_symmetry": (_box_symmetry, "pairs"),
    "box_assoc": (_box_assoc, "triples"),
    "cok_monoidal": (_cok_monoidal, "pairs"),
    "ker_lax": (_ker_lax, "pairs"),
    "triangle_identities": (_triangle_identities, "singles"),
    "embed_adjunctions": (_embed_adjunctions, "module_arrows"),
    "cok_ker_adjunction": (_cok_ker_adjunction, "pairs"),
}
LAW_NAMES = tuple(_LAWS)


def _failure(law, t):
    if isinstance(t[0], TableModule):
        M, x = t
        return {"law": law, "module_factors": M.invariant_factor_orders(), "x": _describe_arrow(x)}
    return {"law": law, **{k: _describe_arrow(a) for k, a in zip("abc", t)}}


def check_monoidal_laws(corpus: FiniteCorpus, laws="all", pair_bound=16, triple_bound=8):
    """Exhaustive law verification over bounded arrow tuples.

    Never raises on a law failure: failures are reported verbatim.  For
    the length of the call, the hom lists and tensor tables of corpus
    modules and the kernel and cokernel arrows of pool arrows are built
    once and shared by every tuple; they are dropped when it returns."""
    selected = LAW_NAMES if laws == "all" else tuple(laws)
    bad = [x for x in selected if x not in LAW_NAMES]
    if bad:
        raise ValueError(f"unknown laws: {bad}")
    shared = set(corpus.modules)
    token = _audit.set((shared, {}))
    try:
        return _audit_laws(corpus, shared, selected, pair_bound, triple_bound)
    finally:
        _audit.reset(token)


def _audit_laws(corpus, shared, selected, pair_bound, triple_bound):
    pool = all_table_arrows(corpus, pair_bound)
    shared.update(pool)
    orders = [a.order() for a in pool]
    tuples = {
        "singles": [(a,) for a in pool],
        "pairs": [
            (a, b)
            for a, oa in zip(pool, orders)
            for b, ob in zip(pool, orders)
            if oa * ob <= pair_bound
        ],
        # Orders are >= 1, so a partial product above the bound stays above it.
        "triples": [
            (a, b, c)
            for a, oa in zip(pool, orders)
            for b, ob in zip(pool, orders)
            if oa * ob <= triple_bound
            for c, oc in zip(pool, orders)
            if oa * ob * oc <= triple_bound
        ],
        "module_arrows": [
            (M, x) for M in corpus.modules for x, ox in zip(pool, orders) if len(M) * ox <= pair_bound
        ],
    }
    report = {
        "ring": corpus.ring_name,
        "corpus_max_order": corpus.max_order,
        "pair_bound": pair_bound,
        "triple_bound": triple_bound,
        "arrow_pool": len(pool),
        "laws": {},
    }
    for law in selected:
        check, kind = _LAWS[law]
        fails = [_failure(law, t) for t in tuples[kind] if not check(*t)]
        report["laws"][law] = {"tuples": len(tuples[kind]), "failures": fails}
    report["all_pass"] = all(not v["failures"] for v in report["laws"].values())
    return report


# -- hom colimit -----------------------------------------------------


def hom_colimit_check(C: TableModule, chain):
    """For a finite chain of monos, is colim Hom(C, M_i) -> Hom(C, last)
    a bijection?  The colimit of the finite chain is its last term, so
    the content is that the union of the postcomposition images fills
    the whole hom set, with each stage mapping in injectively."""
    if not chain:
        raise ValueError("need a nonempty chain")
    for i, f in enumerate(chain):
        if not f.is_injective():
            raise ValueError(f"chain map {i} is not mono")
        if i and chain[i - 1].dst is not f.src:
            raise ValueError("chain does not compose")
    last = chain[-1].dst
    to_last = [None] * (len(chain) + 1)
    acc = identity_map(last)
    to_last[len(chain)] = acc
    for i in range(len(chain) - 1, -1, -1):
        acc = compose_tables(acc, chain[i].f)
        to_last[i] = acc
    stages = [chain[0].src] + [f.dst for f in chain]
    union = set()
    stage_counts = []
    injective = True
    for i, S in enumerate(stages):
        homs = enumerate_homs(C, S)
        imgs = {tuple(sorted(compose_tables(to_last[i], h).items())) for h in homs}
        if len(imgs) != len(homs):
            injective = False
        stage_counts.append({"stage": i, "hom_count": len(homs), "image_count": len(imgs)})
        union |= imgs
    total = hom_count(C, last)
    return {
        "stages": stage_counts,
        "colimit_hom_count": len(union),
        "hom_into_colimit": total,
        "injective_transitions": injective,
        "bijective": injective and len(union) == total,
    }
