"""Brute-force oracle layer: modules as literal element tables.

Nothing here touches the matrix engine.  A module is a finite set of
elements with tabulated addition and scalar action; tensors are built
by closing bilinearity and scalar-balancing relations over explicit
generator pairs; categorical laws are checked by enumerating every
arrow tuple under a size bound and reporting counts plus verbatim
counterexamples.  Deliberately slow and simple: the value is that an
agreement with the engine means two unrelated computations concur.

Corpus rings are Z/2, Z/3, Z/4 and F_2[x]/(x^2); the integers are
also available as a scalar domain for plain abelian-group examples.
"""

from __future__ import annotations

from itertools import product as iproduct

MAX_ORDER = 64


def _ekey(x):
    if isinstance(x, int):
        return (0, x)
    return (1, tuple(_ekey(c) for c in x))


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
    recovered by breadth-first span closure."""

    __slots__ = (
        "ring", "elements", "zero", "_add", "_smul",
        "gens", "coords", "rels", "exponent", "_orders",
    )

    def __init__(self, ring: TableRing, elements, add, smul):
        self.ring = ring
        self.elements = tuple(sorted(elements, key=_ekey))
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
        """sum of vec[i] * images[i]."""
        y = self.zero
        for c, g in zip(vec, images):
            y = self._add(y, self.int_mul(c, g))
        return y

    # -- derived presentation -----------------------------------------
    def _derive_presentation(self):
        gens, coords = [], {self.zero: ()}
        for x in self.elements:
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
                        s = self._add(e, g)
                        if s not in coords:
                            c = list(coords[e])
                            c[i] += 1
                            coords[s] = tuple(c)
                            nxt.append(s)
                frontier = nxt
        self.gens = tuple(gens)
        self.coords = coords
        k = len(gens)
        rels = set()
        for x in self.elements:
            for i, g in enumerate(gens):
                d = list(coords[x])
                d[i] += 1
                s = coords[self._add(x, g)]
                v = tuple(a - b for a, b in zip(d, s))
                if any(v):
                    rels.add(v)
        self.rels = tuple(sorted(rels))

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
        return tuple(f["add"](a, b) for f, a, b in zip(factors, x, y))

    def smul(r, x):
        return tuple(f["smul"](r, a) for f, a in zip(factors, x))

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


def _assignment_ok(M: TableModule, N: TableModule, ys) -> bool:
    for v in M.rels:
        if N.combine(v, ys) != N.zero:
            return False
    if not M.ring.is_integers:
        for r in M.ring.elements:
            for i in range(len(M.gens)):
                if N.smul(r, ys[i]) != N.combine(M.scalar_gen_coords(r, i), ys):
                    return False
    return True


def enumerate_homs(M: TableModule, N: TableModule):
    """All module maps M -> N as element tables (dicts)."""
    out = []
    for ys in iproduct(*hom_candidates(M, N)):
        if _assignment_ok(M, N, list(ys)):
            out.append({x: N.combine(M.coords[x], ys) for x in M.elements})
    return out


def hom_count(M: TableModule, N: TableModule) -> int:
    return sum(1 for ys in iproduct(*hom_candidates(M, N)) if _assignment_ok(M, N, list(ys)))


def hom_torsion_structure(M: TableModule, N: TableModule):
    """(order, cyclic factor orders) of Hom(M, N) as an abelian group.

    Valid when M's generators are independent (corpus modules: their
    only relations are the generator order relations), so maps factor
    per generator and d-torsion counts multiply.
    """
    if any(sum(1 for c in v if c) > 1 for v in M.rels):
        raise ValueError("torsion structure shortcut needs independent generators")
    per_gen = []
    for i, g in enumerate(M.gens):
        o = M.order_of(g)
        ok = []
        for y in N.elements:
            if N.int_mul(o, y) != N.zero:
                continue
            if not M.ring.is_integers:
                ys = [N.zero] * len(M.gens)
                ys[i] = y
                good = all(
                    N.smul(r, y) == N.combine(M.scalar_gen_coords(r, i), ys)
                    for r in M.ring.elements
                )
                # scalar coords touching other generators would need the
                # full product; corpus factors keep scalars diagonal
                if any(
                    M.scalar_gen_coords(r, i)[j] % M.order_of(M.gens[j])
                    for r in M.ring.elements
                    for j in range(len(M.gens))
                    if j != i
                ):
                    raise ValueError("scalar action mixes generators")
                if not good:
                    continue
            ok.append(y)
        per_gen.append(ok)
    total = 1
    for c in per_gen:
        total *= len(c)
    exp = 1
    counts = {}
    for d in range(1, max((N.exponent, 1)) + 1):
        if N.exponent % d:
            continue
        cnt = 1
        for c in per_gen:
            cnt *= sum(1 for y in c if N.int_mul(d, y) == N.zero)
        counts[d] = cnt
        if cnt == total:
            exp = d
            break
    full = {d: counts.get(d, total) for d in range(1, exp + 1) if exp % d == 0}
    return total, invariant_factors_from_torsion(total, full)


# -- tensor by relation closure --------------------------------------


class TensorTable:
    """M (x)_R N as a quotient of (Z/e)^(gM*gN) by the closed relation
    subgroup, with the bilinear pairing into it."""

    __slots__ = ("module", "pairing", "_M", "_N")

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

        if e == 1 or dim == 0:
            sub = {(0,) * dim}
        else:
            sub = {(0,) * dim}
            frontier = [(0,) * dim]
            while frontier:
                nxt = []
                for x in frontier:
                    for w in relvecs:
                        y = tuple((a + b) % e for a, b in zip(x, w))
                        if y not in sub:
                            sub.add(y)
                            nxt.append(y)
                frontier = nxt

        label = {}
        reps = []
        for x in iproduct(*[range(e)] * dim) if e > 1 else [(0,) * dim]:
            if x in label:
                continue
            reps.append(x)
            for s in sub:
                label[tuple((a + b) % e for a, b in zip(x, s))] = x

        self._M, self._N = M, N

        def add(x, y):
            return label[tuple((a + b) % e for a, b in zip(x, y))]

        def smul(r, x):
            v = [0] * dim
            for i in range(k):
                for j in range(l):
                    c = x[i * l + j]
                    if c:
                        for a, ca in enumerate(M.scalar_gen_coords(r, i)):
                            v[a * l + j] += c * ca
            return label[tuple(c % e for c in v)] if e > 1 else (0,) * dim

        self.module = TableModule(ring, reps, add, smul)

        def pairing(m, n):
            cm, cn = M.coords[m], N.coords[n]
            v = tuple((cm[i] * cn[j]) % e for i in range(k) for j in range(l)) if e > 1 else (0,) * dim
            return label[v] if e > 1 else (0,) * dim

        self.pairing = pairing


def tensor_by_elements(M: TableModule, N: TableModule) -> TableModule:
    return TensorTable(M, N).module


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


def quotient_table(M: TableModule, rel_elements):
    """(Q, projection dict) of M by the subgroup the elements generate."""
    sub = {M.zero}
    frontier = [M.zero]
    while frontier:
        nxt = []
        for x in frontier:
            for w in rel_elements:
                y = M.add(x, w)
                if y not in sub:
                    sub.add(y)
                    nxt.append(y)
        frontier = nxt
    label = {}
    reps = []
    for x in M.elements:
        if x in label:
            continue
        reps.append(x)
        for s in sub:
            label[M.add(x, s)] = x
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


def ker_arrow(a: TableArrow) -> TableArrow:
    K = kernel_table(a)
    return TableArrow(K, a.src, {x: x for x in K.elements})


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
    T0 = TensorTable(a.src, b.src)
    T1 = TensorTable(a.dst, b.dst)
    k, l = len(a.src.gens), len(b.src.gens)
    gen_imgs = [
        T1.pairing(a.f[a.src.gens[i]], b.f[b.src.gens[j]])
        for i in range(k)
        for j in range(l)
    ]
    M1 = T1.module
    f = {}
    for x in T0.module.elements:
        y = M1.zero
        for c, img in zip(x, gen_imgs):
            if c:
                y = M1.add(y, M1.int_mul(c, img))
        f[x] = y
    return T0, T1, TableArrow(T0.module, M1, f)


def pair_combine(dst: TableModule, vec, l: int, img_of_pair):
    """Sum of vec[(i,j)] * img_of_pair(i, j) in dst, indices flattened."""
    y = dst.zero
    for idx, c in enumerate(vec):
        if c:
            i, j = divmod(idx, l)
            y = dst.add(y, dst.int_mul(c, img_of_pair(i, j)))
    return y


class BoxTables:
    """Pushout product of two table arrows, with its block structure."""

    __slots__ = ("a", "b", "T01", "T10", "T11", "D", "label", "P", "inc1", "inc2", "arrow")

    def __init__(self, a: TableArrow, b: TableArrow):
        self.a, self.b = a, b
        self.T01 = TensorTable(a.src, b.dst)
        self.T10 = TensorTable(a.dst, b.src)
        self.T11 = TensorTable(a.dst, b.dst)
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

        left = {}
        for u in M01.elements:
            y = M11.zero
            l = len(b.dst.gens)
            for idx, c in enumerate(u):
                if c:
                    i, j = divmod(idx, l)
                    y = M11.add(y, M11.int_mul(c, self.T11.pairing(a.f[a.src.gens[i]], b.dst.gens[j])))
            left[u] = y
        right = {}
        for v in M10.elements:
            y = M11.zero
            l = len(b.src.gens)
            for idx, c in enumerate(v):
                if c:
                    i, j = divmod(idx, l)
                    y = M11.add(y, M11.int_mul(c, self.T11.pairing(a.dst.gens[i], b.f[b.src.gens[j]])))
            right[v] = y
        f = {p: M11.add(left[p[0]], right[p[1]]) for p in P.elements}
        self.arrow = TableArrow(P, M11, f)


def _is_linear_map(src: TableModule, dst: TableModule, f: dict) -> bool:
    for x in src.elements:
        for y in src.elements:
            if f[src.add(x, y)] != dst.add(f[x], f[y]):
                return False
    if not src.ring.is_integers:
        for r in src.ring.elements:
            for x in src.elements:
                if f[src.smul(r, x)] != dst.smul(r, f[x]):
                    return False
    return True


def _is_bijection(src: TableModule, dst: TableModule, f: dict) -> bool:
    return len(src) == len(dst) and len(set(f.values())) == len(src)


# -- canonical comparison maps ---------------------------------------


def _assoc_map(TL_outer: TensorTable, A: TableModule, B: TableModule, C: TableModule,
               TR_inner: TensorTable, TR_outer: TensorTable) -> dict:
    """((A x B) x C) -> (A x (B x C)) on pure generators, extended."""
    Rm = TR_outer.module
    lB, lC = len(B.gens), len(C.gens)
    f = {}
    for x in TL_outer.module.elements:
        y = Rm.zero
        for idx, coeff in enumerate(x):
            if not coeff:
                continue
            ui, wj = divmod(idx, lC)
            u = TL_outer._M.gens[ui]
            w = C.gens[wj]
            img = Rm.zero
            for idx2, c2 in enumerate(u):
                if not c2:
                    continue
                i, j = divmod(idx2, lB)
                img = Rm.add(img, Rm.int_mul(c2, TR_outer.pairing(A.gens[i], TR_inner.pairing(B.gens[j], w))))
            y = Rm.add(y, Rm.int_mul(coeff, img))
        f[x] = y
    return f


def _swap_map(Tab: TensorTable, A: TableModule, B: TableModule, Tba: TensorTable) -> dict:
    lB = len(B.gens)
    return {
        x: pair_combine(Tba.module, x, lB, lambda i, j: Tba.pairing(B.gens[j], A.gens[i]))
        for x in Tab.module.elements
    }


def _square_ok(src0, dst0, chi0, f_left, f_right, chi1) -> bool:
    return all(chi1[f_left[x]] == f_right[chi0[x]] for x in src0.elements)


def _describe_arrow(a: TableArrow):
    return {
        "src_factors": a.src.invariant_factor_orders(),
        "dst_factors": a.dst.invariant_factor_orders(),
        "map": str(sorted(a.f.items(), key=lambda t: _ekey(t[0]))),
    }


# -- law checks ------------------------------------------------------


def _law_tensor_symmetry(pairs):
    fails = []
    for a, b in pairs:
        T0ab, T1ab, tab = tensor_arrow_tables(a, b)
        T0ba, T1ba, tba = tensor_arrow_tables(b, a)
        s0 = _swap_map(T0ab, a.src, b.src, T0ba)
        s1 = _swap_map(T1ab, a.dst, b.dst, T1ba)
        ok = (
            _is_linear_map(T0ab.module, T0ba.module, s0)
            and _is_bijection(T0ab.module, T0ba.module, s0)
            and _is_linear_map(T1ab.module, T1ba.module, s1)
            and _is_bijection(T1ab.module, T1ba.module, s1)
            and _square_ok(T0ab.module, None, s0, tab.f, tba.f, s1)
        )
        if not ok:
            fails.append({"law": "tensor_symmetry", "a": _describe_arrow(a), "b": _describe_arrow(b)})
    return fails


def _law_tensor_assoc(triples):
    fails = []
    for a, b, c in triples:
        T0ab, T1ab, ab = tensor_arrow_tables(a, b)
        L0, L1, left = tensor_arrow_tables(ab, c)
        T0bc, T1bc, bc = tensor_arrow_tables(b, c)
        R0, R1, right = tensor_arrow_tables(a, bc)
        chi0 = _assoc_map(L0, a.src, b.src, c.src, T0bc, R0)
        chi1 = _assoc_map(L1, a.dst, b.dst, c.dst, T1bc, R1)
        ok = (
            _is_linear_map(L0.module, R0.module, chi0)
            and _is_bijection(L0.module, R0.module, chi0)
            and _is_linear_map(L1.module, R1.module, chi1)
            and _is_bijection(L1.module, R1.module, chi1)
            and _square_ok(L0.module, None, chi0, left.f, right.f, chi1)
        )
        if not ok:
            fails.append({"law": "tensor_assoc", "a": _describe_arrow(a), "b": _describe_arrow(b), "c": _describe_arrow(c)})
    return fails


def _law_box_symmetry(pairs):
    fails = []
    for a, b in pairs:
        bab = BoxTables(a, b)
        bba = BoxTables(b, a)
        swap_u = _swap_map(bab.T01, a.src, b.dst, bba.T10)
        swap_v = _swap_map(bab.T10, a.dst, b.src, bba.T01)
        sP = {p: bba.label[(swap_v[p[1]], swap_u[p[0]])] for p in bab.P.elements}
        s11 = _swap_map(bab.T11, a.dst, b.dst, bba.T11)
        ok = (
            _is_linear_map(bab.P, bba.P, sP)
            and _is_bijection(bab.P, bba.P, sP)
            and _square_ok(bab.P, None, sP, bab.arrow.f, bba.arrow.f, s11)
        )
        if not ok:
            fails.append({"law": "box_symmetry", "a": _describe_arrow(a), "b": _describe_arrow(b)})
    return fails


def _law_box_assoc(triples):
    fails = []
    for a, b, c in triples:
        AB = BoxTables(a, b)
        L = BoxTables(AB.arrow, c)
        BC = BoxTables(b, c)
        R = BoxTables(a, BC.arrow)
        lz1 = len(c.dst.gens)
        lz0 = len(c.src.gens)
        lb1 = len(b.dst.gens)
        lb0 = len(b.src.gens)

        def chi_pure_block1(pgen, z):
            u, v = pgen
            y = R.P.zero
            for idx, cc in enumerate(u):
                if cc:
                    i, j = divmod(idx, lb1)
                    w = R.inc1(R.T01.pairing(a.src.gens[i], BC.T11.pairing(b.dst.gens[j], z)))
                    y = R.P.add(y, R.P.int_mul(cc, w))
            for idx, cc in enumerate(v):
                if cc:
                    i, j = divmod(idx, lb0)
                    w = R.inc2(R.T10.pairing(a.dst.gens[i], BC.inc1(BC.T01.pairing(b.src.gens[j], z))))
                    y = R.P.add(y, R.P.int_mul(cc, w))
            return y

        def chi_pure_block2(u11, z0):
            y = R.P.zero
            for idx, cc in enumerate(u11):
                if cc:
                    i, j = divmod(idx, lb1)
                    w = R.inc2(R.T10.pairing(a.dst.gens[i], BC.inc2(BC.T10.pairing(b.dst.gens[j], z0))))
                    y = R.P.add(y, R.P.int_mul(cc, w))
            return y

        chi = {}
        for p in L.P.elements:
            t1, t2 = p
            y = R.P.zero
            for idx, cc in enumerate(t1):
                if cc:
                    pi, zj = divmod(idx, lz1)
                    y = R.P.add(y, R.P.int_mul(cc, chi_pure_block1(AB.P.gens[pi], c.dst.gens[zj])))
            for idx, cc in enumerate(t2):
                if cc:
                    ui, zk = divmod(idx, lz0)
                    y = R.P.add(y, R.P.int_mul(cc, chi_pure_block2(AB.T11.module.gens[ui], c.src.gens[zk])))
            chi[p] = y
        kappa = _assoc_map(L.T11, a.dst, b.dst, c.dst, BC.T11, R.T11)
        ok = (
            _is_linear_map(L.P, R.P, chi)
            and _is_bijection(L.P, R.P, chi)
            and _is_linear_map(L.T11.module, R.T11.module, kappa)
            and _is_bijection(L.T11.module, R.T11.module, kappa)
            and _square_ok(L.P, None, chi, L.arrow.f, R.arrow.f, kappa)
        )
        if not ok:
            fails.append({"law": "box_assoc", "a": _describe_arrow(a), "b": _describe_arrow(b), "c": _describe_arrow(c)})
    return fails


def _law_cok_monoidal(pairs):
    fails = []
    for a, b in pairs:
        box = BoxTables(a, b)
        C, _ = cokernel_table(box.arrow)
        ca = cok_arrow(a)
        cb = cok_arrow(b)
        Tcc = TensorTable(ca.dst, cb.dst)
        l = len(b.dst.gens)
        psi = {
            y: pair_combine(Tcc.module, y, l, lambda i, j: Tcc.pairing(ca.f[a.dst.gens[i]], cb.f[b.dst.gens[j]]))
            for y in C.elements
        }
        ok = _is_linear_map(C, Tcc.module, psi) and _is_bijection(C, Tcc.module, psi)
        if not ok:
            fails.append({"law": "cok_monoidal", "a": _describe_arrow(a), "b": _describe_arrow(b)})
    return fails


def _law_ker_lax(pairs):
    fails = []
    for a, b in pairs:
        ka = ker_arrow(a)
        kb = ker_arrow(b)
        bk = BoxTables(ka, kb)
        T0, _, tab = tensor_arrow_tables(a, b)
        if bk.T11.module.elements != T0.module.elements:
            raise AssertionError("tensor table construction is not deterministic")
        K = {z for z in T0.module.elements if tab.f[z] == tab.dst.zero}
        ok = all(bk.arrow.f[p] in K for p in bk.P.elements)
        if not ok:
            fails.append({"law": "ker_lax", "a": _describe_arrow(a), "b": _describe_arrow(b)})
    return fails


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


def _law_triangles(singles):
    fails = []
    for a in singles:
        eta = _eta_square(a)
        ca = cok_arrow(a)
        tri1 = _eps_square(ca).compose(cok_square(eta))
        kb = ker_arrow(a)
        tri2 = ker_square(_eps_square(a)).compose(_eta_square(kb))
        ok = (
            eta.commutes()
            and tri1.commutes()
            and tri1.is_identity()
            and tri2.commutes()
            and tri2.is_identity()
        )
        if not ok:
            fails.append({"law": "triangle_identities", "a": _describe_arrow(a)})
    return fails


def _law_embed_adjunctions(corpus, pool, pair_bound):
    Z = zero_table_module(corpus.ring)
    fails = []
    tuples = 0
    for M in corpus.modules:
        for x in pool:
            if len(M) * x.order() > pair_bound:
                continue
            tuples += 1
            L0M = TableArrow(M, M, identity_map(M))
            L1M = TableArrow(Z, M, {Z.zero: M.zero})
            U0M = TableArrow(M, Z, {m: Z.zero for m in M.elements})
            U1M = TableArrow(M, M, identity_map(M))
            ok = (
                count_arrow_squares(L0M, x) == hom_count(M, x.src)
                and count_arrow_squares(L1M, x) == hom_count(M, x.dst)
                and count_arrow_squares(x, U0M) == hom_count(x.src, M)
                and count_arrow_squares(x, U1M) == hom_count(x.dst, M)
            )
            if not ok:
                fails.append({"law": "embed_adjunctions", "module_factors": M.invariant_factor_orders(), "x": _describe_arrow(x)})
    return tuples, fails


def _law_cok_ker_adjunction(pairs):
    fails = []
    for a, b in pairs:
        if count_arrow_squares(cok_arrow(a), b) != count_arrow_squares(a, ker_arrow(b)):
            fails.append({"law": "cok_ker_adjunction", "a": _describe_arrow(a), "b": _describe_arrow(b)})
    return fails


LAW_NAMES = (
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


def check_monoidal_laws(corpus: FiniteCorpus, laws="all", pair_bound=16, triple_bound=8):
    """Exhaustive law verification over bounded arrow tuples.

    Never raises on a law failure: failures are reported verbatim."""
    selected = LAW_NAMES if laws == "all" else tuple(laws)
    bad = [x for x in selected if x not in LAW_NAMES]
    if bad:
        raise ValueError(f"unknown laws: {bad}")
    pool = all_table_arrows(corpus, pair_bound)
    orders = [a.order() for a in pool]
    pairs = [
        (a, b)
        for a, oa in zip(pool, orders)
        for b, ob in zip(pool, orders)
        if oa * ob <= pair_bound
    ]
    # Orders are >= 1, so a partial product above the bound stays above it.
    triples = [
        (a, b, c)
        for a, oa in zip(pool, orders)
        for b, ob in zip(pool, orders)
        if oa * ob <= triple_bound
        for c, oc in zip(pool, orders)
        if oa * ob * oc <= triple_bound
    ]
    singles = [a for a in pool]
    report = {
        "ring": corpus.ring_name,
        "corpus_max_order": corpus.max_order,
        "pair_bound": pair_bound,
        "triple_bound": triple_bound,
        "arrow_pool": len(pool),
        "laws": {},
    }
    for law in selected:
        if law == "tensor_symmetry":
            n, fails = len(pairs), _law_tensor_symmetry(pairs)
        elif law == "tensor_assoc":
            n, fails = len(triples), _law_tensor_assoc(triples)
        elif law == "box_symmetry":
            n, fails = len(pairs), _law_box_symmetry(pairs)
        elif law == "box_assoc":
            n, fails = len(triples), _law_box_assoc(triples)
        elif law == "cok_monoidal":
            n, fails = len(pairs), _law_cok_monoidal(pairs)
        elif law == "ker_lax":
            n, fails = len(pairs), _law_ker_lax(pairs)
        elif law == "triangle_identities":
            n, fails = len(singles), _law_triangles(singles)
        elif law == "embed_adjunctions":
            n, fails = _law_embed_adjunctions(corpus, pool, pair_bound)
        else:
            n, fails = len(pairs), _law_cok_ker_adjunction(pairs)
        report["laws"][law] = {"tuples": n, "failures": fails}
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
        imgs = {tuple(sorted(compose_tables(to_last[i], h).items(), key=lambda t: _ekey(t[0]))) for h in homs}
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
