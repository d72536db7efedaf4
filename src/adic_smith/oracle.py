"""Brute-force oracle layer: modules as literal element tables.

Nothing here touches the matrix engine.  A module is a finite set of
elements with tabulated addition and scalar action; tensors are built
by closing bilinearity and scalar-balancing relations over explicit
generator pairs; categorical laws are checked by enumerating every
arrow tuple under a size bound and reporting counts plus verbatim
counterexamples.  The value is that an agreement with the engine means
two unrelated computations concur.

Elements are integers: indices into a table's ``names``, the labels a
reader sees (tuples of residues for corpus modules, coset vectors for
tensors, index pairs for pushout products).  Addition is the lookup
``sum[x][y]`` and the scalar action ``act[r][x]``, the scalar ``r`` an
index into the ring's ``names``; over the integers there is no ``act``.
Derived tables are built from their parent's tables by index arithmetic
and keep its numbering.  A sub-table (a kernel) shares its parent's
names, rows and orders, so its elements are the parent's indices.  A
quotient (a cokernel) keeps the first element of each coset, so a map
defined on the parent can be read on them, and relabels the parent's
rows onto them.  A pushout product quotients the pairs (u, v) of its two
tensor tables' elements, numbered ``u * len(T10) + v``, without
tabulating their direct sum.  Corpus, quotient and pushout tables fill
their addition rows when they are built, and the last two fill a scalar
row when it is first read; a tensor table fills each row of ``sum`` and
``act`` when it is first read, and takes its element orders from its
coset vectors.  Every table derives its presentation when ``gens``,
``coords`` or ``rels`` is first read.

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
hom lists, kernel and cokernel arrows, and the pushout products of pool
pairs) once per ``check_monoidal_laws`` call and drops them when it
returns; tables of derived modules are built per tuple, and
``tensor_by_elements`` always builds a fresh table.  The pushout products
of pool pairs are dropped sooner, since there is one per pair: the two
laws that read every pool pair's, ``box_symmetry`` and ``cok_monoidal``,
run after the others, on a pair and its reverse together, and then drop
both products.  ``box_assoc`` reads some of the same products first, so
each is still built once, and an audit holds only those and the pair in
hand (about 80 MB at the CLI's tuple budget, against 140 MB for all).
A tensor with a zero factor, and a pushout product whose two blocks are
zero, are built as their one element directly, with the tables the
closure would give.

Corpus rings are Z/2, Z/3, Z/4 and F_2[x]/(x^2); the integers are
also available as a scalar domain for plain abelian-group examples.
"""

from __future__ import annotations

import functools
import math
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
        memo, key = audit[1], (build, *args)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build(*args)
            return value

    return call


class TableRing:
    """Finite commutative ring by index tables over its element names, or
    the integers (names None)."""

    __slots__ = ("name", "names", "elements", "is_integers", "add", "mul")

    def __init__(self, name, names, add, mul):
        self.name = name
        self.names = names
        self.elements = None if names is None else range(len(names))
        self.is_integers = names is None
        self.add = add
        self.mul = mul

    def __repr__(self):
        return f"TableRing({self.name})"


def corpus_ring(name: str) -> TableRing:
    if name in ("z2", "z3", "z4"):
        m = int(name[1:])
        els = tuple(range(m))
        return TableRing(
            name, els, [[(a + b) % m for b in els] for a in els], [[(a * b) % m for b in els] for a in els]
        )
    if name == "f2x":
        # a + b*x, with x^2 = 0
        els = ((0, 0), (1, 0), (0, 1), (1, 1))
        index = {x: i for i, x in enumerate(els)}
        return TableRing(
            "f2x",
            els,
            [[index[((a + c) % 2, (b + d) % 2)] for c, d in els] for a, b in els],
            [[index[(a * c % 2, (a * d + b * c) % 2)] for c, d in els] for a, b in els],
        )
    if name == "zz":
        return TableRing("zz", None, None, None)
    raise ValueError(f"unknown oracle ring {name!r}")


class _Lazy(dict):
    """A table whose entry for a key is ``fill(key)``, computed when first
    read and kept."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class TableModule:
    """Element set with addition and scalar action, plus a presentation
    (generators, integer coordinates, relation vectors) recovered by
    walking the span of each generator in turn when it is first read.

    ``names[x]`` labels element x; ``sum[x][y]`` and ``act[r][x]`` are the
    elements x + y and r * x (``act`` is None over the integers).  The
    module's elements are ``elements``, all of ``names`` by default, and
    ``orders[x]`` is computed from ``sum`` when not given."""

    __slots__ = (
        "ring", "names", "elements", "zero", "sum", "act",
        "gens", "coords", "rels", "exponent", "orders",
    )

    def __init__(self, ring: TableRing, names, sum, act, elements=None, orders=None):
        self.ring = ring
        self.names = names
        self.elements = els = tuple(range(len(names)) if elements is None else sorted(elements))
        self.sum = sum
        self.act = act
        if orders is None:
            zero = next(x for x in els if sum[x][x] == x)
            orders = {}
            for x in els:
                row, y, o = sum[x], x, 1
                while y != zero:
                    y = row[y]
                    o += 1
                orders[x] = o
        self.orders = orders
        for x in els:
            if orders[x] == 1:
                self.zero = x
                break
        self.exponent = math.lcm(*map(orders.__getitem__, els))

    def __getattr__(self, name):
        # gens, coords and rels are derived when first read
        if name in ("gens", "coords", "rels"):
            self._derive_presentation()
            return getattr(self, name)
        raise AttributeError(name)

    # -- arithmetic ---------------------------------------------------
    def add(self, x, y):
        return self.sum[x][y]

    def int_mul(self, k: int, x):
        row, y = self.sum[x], self.zero
        for _ in range(k % self.orders[x]):
            y = row[y]
        return y

    def combine(self, vec, images):
        """sum of vec[i] * images[i]; images under a zero coefficient
        are never read."""
        y, sum, orders = self.zero, self.sum, self.orders
        for c, g in zip(vec, images):
            if c:
                row = sum[g]
                for _ in range(c % orders[g]):
                    y = row[y]
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
            # layer j is S + j*x, listed in the order of S; its first
            # element is j*x, since S lists zero first
            row, span, prefixes = self.sum[x], list(coords), list(coords.values())
            coords = {e: c + (0,) for e, c in coords.items()}
            layer, j = [row[e] for e in span], 1
            while layer[0] not in coords:
                for e, c in zip(layer, prefixes):
                    coords[e] = c + (j,)
                layer, j = [row[e] for e in layer], j + 1
            rels.append(tuple(-c for c in coords[layer[0]][:-1]) + (j,))
        k = len(gens)
        self.gens = tuple(gens)
        self.coords = coords
        self.rels = tuple(v + (0,) * (k - len(v)) for v in rels)

    def scalar_gen_coords(self, r, i):
        """Coordinates of r * gens[i]."""
        return self.coords[self.act[r][self.gens[i]]]

    # -- invariants ---------------------------------------------------
    def torsion_counts(self):
        """d -> #{x : d * x = 0}, that is the elements whose order divides d."""
        return {
            d: sum(1 for x in self.elements if d % self.orders[x] == 0)
            for d in range(1, self.exponent + 1)
            if self.exponent % d == 0
        }

    def fingerprint(self):
        """Complete iso invariant on the corpus: size, d-torsion counts,
        and scalar-kernel sizes per ring element."""
        tor = tuple(sorted(self.torsion_counts().items()))
        if self.ring.is_integers:
            scal = ()
        else:
            scal = tuple(
                sum(1 for x in self.elements if self.act[r][x] == self.zero)
                for r in self.ring.elements
            )
        return (len(self.elements), tor, scal)

    def invariant_factor_orders(self):
        return invariant_factors_from_torsion(len(self.elements), self.torsion_counts())

    def __len__(self):
        return len(self.elements)


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
#
# A factor is (names, sum, act) over one ring, its names in sorted order,
# so that a product of factors lists its tuple names in sorted order.


def _cyclic_factor(ring: TableRing, d: int):
    """Z/d with integer-like scalar action (works over Z/m and Z)."""
    act = None
    if not ring.is_integers:
        act = [[(r * a) % d for a in range(d)] for r in ring.names]
    return tuple(range(d)), [[(a + b) % d for b in range(d)] for a in range(d)], act


def _f2x_regular(ring: TableRing):
    order = sorted(ring.elements, key=ring.names.__getitem__)
    pos = {x: i for i, x in enumerate(order)}
    return (
        tuple(ring.names[x] for x in order),
        [[pos[ring.add[x][y]] for y in order] for x in order],
        [[pos[row[x]] for x in order] for row in ring.mul],
    )


def _f2x_trivial(ring: TableRing):
    return (0, 1), [[0, 1], [1, 0]], [[(r[0] * a) % 2 for a in (0, 1)] for r in ring.names]


def product_module(ring: TableRing, factors) -> TableModule:
    """Direct product of the factors.  Each factor of size d sends element
    x of the product so far, with its element b, to x * d + b."""
    names, sum, act = [()], [[0]], None if ring.is_integers else [[0] for _ in ring.elements]
    for f_names, f_sum, f_act in factors:
        d = len(f_names)
        names = [x + (b,) for x in names for b in f_names]
        sum = [
            [s * d + t for s in row for t in f_row]
            for row in sum
            for f_row in f_sum
        ]
        if act is not None:
            act = [[s * d + t for s in row for t in f_row] for row, f_row in zip(act, f_act)]
    return TableModule(ring, tuple(names), sum, act)


def zero_table_module(ring: TableRing) -> TableModule:
    return product_module(ring, [])


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
            opts = [(d, _cyclic_factor(self.ring, d), str(d)) for d in range(2, m + 1) if m % d == 0]
        elif ring_name == "f2x":
            opts = [(2, _f2x_trivial(self.ring), "k"), (4, _f2x_regular(self.ring), "R")]
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
        o = M.orders[g]
        out.append([y for y in N.elements if o % N.orders[y] == 0])
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
                N.combine(v, ys) == (N.zero if r is None else N.act[r][ys[i]])
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
    """Number of module maps M -> N; inside a law audit, the length of
    the shared list for two corpus modules."""
    audit = _audit.get()
    if audit is not None and M in audit[0] and N in audit[0]:
        return len(enumerate_homs(M, N))
    return sum(1 for _ in _homs(M, N))


def hom_torsion_structure(M: TableModule, N: TableModule):
    """(order, cyclic factor orders) of Hom(M, N) as an abelian group.

    The d-torsion counts are read off the enumerated maps: d kills a map
    exactly when it kills the image of every generator, that is when the
    lcm of the images' orders divides d.  The search is
    the exhaustive one of ``hom_count``, so this answers for every pair.
    """
    divisors = [d for d in range(1, N.exponent + 1) if N.exponent % d == 0]
    total, counts = 0, dict.fromkeys(divisors, 0)
    for ys in _homs(M, N):
        total += 1
        o = math.lcm(*map(N.orders.__getitem__, ys))
        for d in divisors:
            counts[d] += d % o == 0
    exp = next(d for d in divisors if counts[d] == total)
    full = {d: counts[d] for d in divisors if exp % d == 0}
    return total, invariant_factors_from_torsion(total, full)


# -- tensor by relation closure --------------------------------------


class TensorTable:
    """M (x)_R N as a quotient of (Z/e)^(gM*gN) by the closed relation
    subgroup, with the bilinear pairing into it.  Its elements number the
    cosets in the order of their first vectors, which are its names."""

    __slots__ = ("module", "_M", "_N", "_e", "_label", "_names")

    def __init__(self, M: TableModule, N: TableModule):
        ring = M.ring
        k, l = len(M.gens), len(N.gens)
        e = math.gcd(M.exponent, N.exponent)
        dim = k * l
        if not dim:
            # no generator pairs: the one coset (), with nothing to close
            self._M, self._N, self._e, self._label, self._names = M, N, e, {(): 0}, ((),)
            act = None if ring.is_integers else [[0] for _ in ring.elements]
            self.module = TableModule(ring, self._names, [[0]], act, orders=[1])
            return
        # relations as (position, coefficient) terms: rel (x) n_j, m_i (x) rel,
        # and the balancing r*m_i (x) n_j - m_i (x) r*n_j
        terms = [[(a * l + j, c) for a, c in enumerate(v)] for v in M.rels for j in range(l)]
        terms += [[(i * l + b, c) for b, c in enumerate(v)] for v in N.rels for i in range(k)]
        if not ring.is_integers:
            terms += [
                [(a * l + j, c) for a, c in enumerate(M.scalar_gen_coords(r, i))]
                + [(i * l + b, -c) for b, c in enumerate(N.scalar_gen_coords(r, j))]
                for i in range(k)
                for j in range(l)
                for r in ring.elements
            ]
        relvecs = set()
        for t in terms:
            v = [0] * dim
            for a, c in t:
                v[a] += c
            v = tuple([c % e for c in v])
            if any(v):
                relvecs.add(v)

        zero = (0,) * dim
        sub, frontier = {zero}, [zero]
        while frontier:
            nxt = []
            for x in frontier:
                for w in relvecs:
                    y = tuple([(a + b) % e for a, b in zip(x, w)])
                    if y not in sub:
                        sub.add(y)
                        nxt.append(y)
            frontier = nxt
        label, names = {}, []
        for x in iproduct(range(e), repeat=dim):
            if x in label:
                continue
            c = len(names)
            names.append(x)
            for s in sub:
                label[tuple([(a + b) % e for a, b in zip(x, s)])] = c
        orders = []
        for v in names:
            o = 1
            while label[tuple([(o * a) % e for a in v])]:
                o += 1
            orders.append(o)
        self._M, self._N, self._e, self._label, self._names = M, N, e, label, tuple(names)
        sum = _Lazy(self._sum_row)
        # coset 0 is the zero vector's, and its row is the identity
        sum[0] = list(range(len(names)))
        act = None if ring.is_integers else _Lazy(self._act_row)
        self.module = TableModule(ring, self._names, sum, act, orders=orders)

    def _sum_row(self, x):
        e, label, names = self._e, self._label, self._names
        vx = names[x]
        return [label[tuple([(a + b) % e for a, b in zip(vx, vy)])] for vy in names]

    def _act_row(self, r):
        """r * x for every element x, by r acting on the M side of each
        generator pair."""
        M, e, l, label = self._M, self._e, len(self._N.gens), self._label
        # terms[i * l + j]: r * (m_i (x) n_j), as (position, coefficient) pairs
        terms = [
            [(a * l + j, c) for a, c in enumerate(M.scalar_gen_coords(r, i)) if c]
            for i in range(len(M.gens))
            for j in range(l)
        ]
        row = []
        for x in self._names:
            v = [0] * len(x)
            for c, t in zip(x, terms):
                if c:
                    for a, ca in t:
                        v[a] += c * ca
            row.append(label[tuple([c % e for c in v])])
        return row

    def pairing(self, m, n):
        cm, cn, e = self._M.coords[m], self._N.coords[n], self._e
        return self._label[tuple([(a * b) % e for a in cm for b in cn])]


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
    """The closed subset as a module: M's own names, rows and orders."""
    return TableModule(M.ring, M.names, M.sum, M.act, subset, M.orders)


def _subgroup(M: TableModule, gens):
    """The elements of M that sums of ``gens`` reach, zero first."""
    rows = [M.sum[w] for w in set(gens)]
    sub, frontier = [M.zero], [M.zero]
    seen = {M.zero}
    while frontier:
        nxt = []
        for x in frontier:
            for row in rows:
                y = row[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        sub += nxt
        frontier = nxt
    return sub


def quotient_table(M: TableModule, rel_elements):
    """(Q, projection dict) of M by the subgroup the elements generate.
    Each coset is named by its first element, and Q's tables are M's read
    through the projection."""
    sub = _subgroup(M, rel_elements)
    label, reps = {}, []
    for x in M.elements:
        if x in label:
            continue
        reps.append(x)
        row = M.sum[x]
        for s in sub:
            label[row[s]] = x
    sum = {}
    for x in reps:
        row = M.sum[x]
        sum[x] = {y: label[row[y]] for y in reps}
    act = None
    if M.act is not None:
        act = _Lazy(lambda r: {x: label[M.act[r][x]] for x in reps})
    return TableModule(M.ring, M.names, sum, act, reps), label


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
    return TableArrow(a.dst, C, lab)


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
    """Pairs (top, bottom) with b.f o top == bottom o a.f: each bottom is
    keyed by its values on a.f's image, and each top looks up b.f o top."""
    src, bf = a.src.elements, b.f
    image = [a.f[x] for x in src]
    keys = {}
    for bo in enumerate_homs(a.dst, b.dst):
        key = tuple([bo[y] for y in image])
        keys[key] = keys.get(key, 0) + 1
    return sum([keys.get(tuple([bf[t[x]] for x in src]), 0) for t in enumerate_homs(a.src, b.src)])


def _extend(T: TensorTable, images, target: TableModule) -> dict:
    """The map out of T's module sending generator pair i to images[i]."""
    return {x: target.combine(T.module.names[x], images) for x in T.module.elements}


def tensor_arrow_tables(a: TableArrow, b: TableArrow):
    """(T0, T1, arrow) for the componentwise tensor of two arrows."""
    T0 = _tensor_table(a.src, b.src)
    T1 = _tensor_table(a.dst, b.dst)
    imgs = [T1.pairing(a.f[g], b.f[h]) for g, h in iproduct(a.src.gens, b.src.gens)]
    return T0, T1, TableArrow(T0.module, T1.module, _extend(T0, imgs, T1.module))


class BoxTables:
    """Pushout product of two table arrows, with its block structure: P is
    the quotient of the pairs (u, v) of T01 and T10 elements, numbered
    u * len(T10) + v, by the pairs (m (x) b(n), -(a(m) (x) n))."""

    __slots__ = ("a", "b", "T01", "T10", "T11", "_n10", "label", "P", "arrow")

    def __init__(self, a: TableArrow, b: TableArrow):
        self.a, self.b = a, b
        self.T01 = _tensor_table(a.src, b.dst)
        self.T10 = _tensor_table(a.dst, b.src)
        self.T11 = _tensor_table(a.dst, b.dst)
        M01, M10, M11 = self.T01.module, self.T10.module, self.T11.module
        n10 = self._n10 = len(M10)
        ring = a.src.ring
        if len(M01) == 1 and n10 == 1:
            # both blocks are zero: P is the one pair (0, 0), mapped to zero
            self.label = {0: 0}
            act = None if ring.is_integers else [{0: 0} for _ in ring.elements]
            self.P = TableModule(ring, ((0, 0),), {0: {0: 0}}, act, (0,))
            self.arrow = TableArrow(self.P, M11, {0: M11.zero})
            return
        s01, s10 = M01.sum, M10.sum
        # (m (x) b(n), a(m) (x) -n) over generators m, n, the second being
        # -(a(m) (x) n) by bilinearity
        W = {
            (self.T01.pairing(gm, b.f[gn]), self.T10.pairing(a.f[gm], b.src.int_mul(-1, gn)))
            for gm in a.src.gens
            for gn in b.src.gens
        }
        zero = (M01.zero, M10.zero)
        seen, frontier = {zero}, [zero]
        while frontier:
            nxt = []
            for u, v in frontier:
                for s, t in W:
                    y = (s01[u][s], s10[v][t])
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        # the subgroup W generates, as the rows of its elements
        sub = [(s01[u], s10[v]) for u, v in seen]
        label, reps = {}, []
        for u in M01.elements:
            for v in M10.elements:
                p = u * n10 + v
                if p in label:
                    continue
                reps.append(p)
                for rs, rt in sub:
                    label[rs[u] * n10 + rt[v]] = p
        self.label = label
        sum = {}
        for p in reps:
            ru, rv = s01[p // n10], s10[p % n10]
            sum[p] = {q: label[ru[q // n10] * n10 + rv[q % n10]] for q in reps}
        act = None
        if not ring.is_integers:
            act01, act10 = M01.act, M10.act
            act = _Lazy(lambda r: {p: label[act01[r][p // n10] * n10 + act10[r][p % n10]] for p in reps})
        names = tuple(iproduct(range(len(M01)), range(n10)))
        self.P = TableModule(ring, names, sum, act, reps)

        left = [self.T11.pairing(a.f[g], h) for g, h in iproduct(a.src.gens, b.dst.gens)]
        right = [self.T11.pairing(g, b.f[h]) for g, h in iproduct(a.dst.gens, b.src.gens)]
        f = {}
        for p in reps:
            u, v = divmod(p, n10)
            f[p] = M11.add(M11.combine(M01.names[u], left), M11.combine(M10.names[v], right))
        self.arrow = TableArrow(self.P, M11, f)

    def split(self, p):
        """(u, v): the T01 and T10 elements of the pair p."""
        return divmod(p, self._n10)

    def project(self, u, v):
        """The element of P that the pair (u, v) lands on."""
        return self.label[u * self._n10 + v]

    def inc1(self, u):
        return self.project(u, self.T10.module.zero)

    def inc2(self, v):
        return self.project(self.T01.module.zero, v)


_box_tables = _shared_in_audit(BoxTables)


def _is_iso(src: TableModule, dst: TableModule, f: dict) -> bool:
    """f is a bijective module map src -> dst: a bijection that carries
    every row of src's addition table onto the row of dst at the image,
    and commutes with each scalar on src's generators, which for an
    additive map means everywhere (``_homs`` checks scalars the same way)."""
    els = src.elements
    images = [f[x] for x in els]
    if len(dst) != len(els) or len(set(images)) != len(els):
        return False
    rows = [(src.sum[x], dst.sum[y]) for x, y in zip(els, images)]
    if not all([f[row[x]] for x in els] == [image_row[y] for y in images] for row, image_row in rows):
        return False
    return src.ring.is_integers or all(
        f[src.act[r][g]] == dst.act[r][f[g]] for r in src.ring.elements for g in src.gens
    )


# -- canonical comparison maps ---------------------------------------


def _assoc_map(TL_outer: TensorTable, A: TableModule, B: TableModule, C: TableModule,
               TR_inner: TensorTable, TR_outer: TensorTable) -> dict:
    """((A x B) x C) -> (A x (B x C)) on pure generators, extended."""
    Rm = TR_outer.module
    AB = TL_outer._M
    imgs = [
        Rm.combine(AB.names[u], [TR_outer.pairing(g, TR_inner.pairing(h, w)) for g, h in iproduct(A.gens, B.gens)])
        for u, w in iproduct(AB.gens, C.gens)
    ]
    return _extend(TL_outer, imgs, Rm)


def _swap_map(Tab: TensorTable, A: TableModule, B: TableModule, Tba: TensorTable) -> dict:
    imgs = [Tba.pairing(h, g) for g, h in iproduct(A.gens, B.gens)]
    return _extend(Tab, imgs, Tba.module)


def _square_ok(src0, chi0, f_left, f_right, chi1) -> bool:
    return all(chi1[f_left[x]] == f_right[chi0[x]] for x in src0.elements)


def _describe_arrow(a: TableArrow):
    src, dst = a.src.names, a.dst.names
    return {
        "src_factors": a.src.invariant_factor_orders(),
        "dst_factors": a.dst.invariant_factor_orders(),
        "map": str(sorted((src[x], dst[y]) for x, y in a.f.items())),
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
    bab = _box_tables(a, b)
    bba = _box_tables(b, a)
    swap_u = _swap_map(bab.T01, a.src, b.dst, bba.T10)
    swap_v = _swap_map(bab.T10, a.dst, b.src, bba.T01)
    sP = {}
    for p in bab.P.elements:
        u, v = bab.split(p)
        sP[p] = bba.project(swap_v[v], swap_u[u])
    s11 = _swap_map(bab.T11, a.dst, b.dst, bba.T11)
    return _is_iso(bab.P, bba.P, sP) and _square_ok(bab.P, sP, bab.arrow.f, bba.arrow.f, s11)


def _box_assoc(a, b, c):
    AB = _box_tables(a, b)
    L = BoxTables(AB.arrow, c)
    BC = _box_tables(b, c)
    R = BoxTables(a, BC.arrow)
    P = R.P

    def block1(pgen, z):
        u, v = AB.split(pgen)
        us = [R.inc1(R.T01.pairing(g, BC.T11.pairing(h, z))) for g, h in iproduct(a.src.gens, b.dst.gens)]
        vs = [R.inc2(R.T10.pairing(g, BC.inc1(BC.T01.pairing(h, z)))) for g, h in iproduct(a.dst.gens, b.src.gens)]
        return P.add(P.combine(AB.T01.module.names[u], us), P.combine(AB.T10.module.names[v], vs))

    def block2(u11, z0):
        ws = [R.inc2(R.T10.pairing(g, BC.inc2(BC.T10.pairing(h, z0)))) for g, h in iproduct(a.dst.gens, b.dst.gens)]
        return P.combine(AB.T11.module.names[u11], ws)

    imgs1 = [block1(p, z) for p, z in iproduct(AB.P.gens, c.dst.gens)]
    imgs2 = [block2(u, z) for u, z in iproduct(AB.T11.module.gens, c.src.gens)]
    chi = {}
    for p in L.P.elements:
        u, v = L.split(p)
        chi[p] = P.add(P.combine(L.T01.module.names[u], imgs1), P.combine(L.T10.module.names[v], imgs2))
    kappa = _assoc_map(L.T11, a.dst, b.dst, c.dst, BC.T11, R.T11)
    return (
        _is_iso(L.P, R.P, chi)
        and _is_iso(L.T11.module, R.T11.module, kappa)
        and _square_ok(L.P, chi, L.arrow.f, R.arrow.f, kappa)
    )


def _cok_monoidal(a, b):
    C, _ = cokernel_table(_box_tables(a, b).arrow)
    ca, cb = cok_arrow(a), cok_arrow(b)
    Tcc = _tensor_table(ca.dst, cb.dst)
    imgs = [Tcc.pairing(ca.f[g], cb.f[h]) for g, h in iproduct(a.dst.gens, b.dst.gens)]
    return _is_iso(C, Tcc.module, {y: Tcc.module.combine(C.names[y], imgs) for y in C.elements})


def _ker_lax(a, b):
    bk = BoxTables(ker_arrow(a), ker_arrow(b))
    T0, _, tab = tensor_arrow_tables(a, b)
    if bk.T11.module.names != T0.module.names:
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


# name -> (predicate, the kind of tuple it runs over).  The "box_pairs"
# laws read the pushout products of pool pairs; they run over the pairs
# after every other law, one pair and its reverse at a time.
_LAWS = {
    "tensor_symmetry": (_tensor_symmetry, "pairs"),
    "tensor_assoc": (_tensor_assoc, "triples"),
    "box_symmetry": (_box_symmetry, "box_pairs"),
    "box_assoc": (_box_assoc, "triples"),
    "cok_monoidal": (_cok_monoidal, "box_pairs"),
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
    modules, and the kernel and cokernel arrows and pairwise pushout
    products of pool arrows, are built once and shared by every tuple;
    they are dropped when it returns, a pool pair's pushout products as
    soon as the laws that read them are done with the pair."""
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
    tuples["box_pairs"] = tuples["pairs"]
    failed = {}
    for law in selected:
        check, kind = _LAWS[law]
        if kind != "box_pairs":
            failed[law] = [t for t in tuples[kind] if not check(*t)]
    box_laws = [law for law in dict.fromkeys(selected) if _LAWS[law][1] == "box_pairs"]
    failed.update(_check_box_pairs(box_laws, tuples["pairs"]))
    for law in selected:
        kind = _LAWS[law][1]
        report["laws"][law] = {"tuples": len(tuples[kind]), "failures": [_failure(law, t) for t in failed[law]]}
    report["all_pass"] = all(not v["failures"] for v in report["laws"].values())
    return report


def _check_box_pairs(laws, pairs):
    """Each of ``laws``' failing pairs, in pair order.  The laws run on a
    pair and its reverse together, and then both pushout products leave
    the audit's tables, so at most two that no earlier law read are held."""
    memo = _audit.get()[1]
    checks = [_LAWS[law][0] for law in laws]
    position = {t: i for i, t in enumerate(pairs)}
    ok = [[True] * len(pairs) for _ in laws]
    for i, (a, b) in enumerate(pairs):
        j = position[b, a]
        if j < i:
            continue
        for check, passed in zip(checks, ok):
            passed[i] = check(a, b)
            if j != i:
                passed[j] = check(b, a)
        memo.pop((BoxTables, a, b), None)
        memo.pop((BoxTables, b, a), None)
    return {law: [t for t, good in zip(pairs, passed) if not good] for law, passed in zip(laws, ok)}
