"""The arrow category of finitely presented modules.

Objects are module maps f: X0 -> X1 (wrapped as :class:`Arrow`), maps
are commuting squares (:class:`ArrowMap`).  Two symmetric monoidal
products live side by side:

* ``tensor_arrows``: componentwise tensor, f tensor g: X0 Y0 -> X1 Y1;
* ``pushout_product``: f box g, from the pushout of
  X0 Y1 <- X0 Y0 -> X1 Y0 into X1 Y1.

``cok_functor`` (f goes to X1 -> coker f) is strong monoidal from box
to tensor; ``ker_functor`` (f goes to ker f -> X0) is its lax right
adjoint.  The structure isomorphisms (associators, symmetries, the
monoidality comparison, the adjunction unit and counit) are all built
as explicit ArrowMaps on generators, so every coherence law downstream
is checked by matrix equality.

Generator bookkeeping: tensor flattens (i, j) to i*gN + j, so iterated
tensor products of the same factors are literally equal presentations
and associators on the tensor side are identity matrices.  Pushout
sources are always materialized with the X0 Y1 block before the X1 Y0
block; box associators are then pure block permutations.
"""

from __future__ import annotations

from adic_smith.fpmod import (
    FPMap,
    FPModule,
    factor_through,
    pushout,
    tensor,
    tensor_map,
    tensor_swap,
)
from adic_smith.linalg import Matrix, hstack, vstack


class Arrow:
    """Object of the arrow category: a module map X0 -> X1."""

    __slots__ = ("f",)

    def __init__(self, f: FPMap):
        self.f = f

    @property
    def dom(self) -> FPModule:
        return self.f.src

    @property
    def cod(self) -> FPModule:
        return self.f.dst

    @property
    def algebra(self):
        return self.f.src.algebra

    def __eq__(self, other):
        return isinstance(other, Arrow) and other.f == self.f

    def __hash__(self):
        return hash(("arrow", self.f))

    def __repr__(self):
        return f"Arrow({self.dom!r} -> {self.cod!r})"


class ArrowMap:
    """Commuting square between arrows; commutation is certified."""

    __slots__ = ("source", "target", "top", "bottom")

    def __init__(self, source: Arrow, target: Arrow, top: FPMap, bottom: FPMap, check: bool = True):
        if top.src != source.dom or top.dst != target.dom:
            raise ValueError("top map endpoints do not match")
        if bottom.src != source.cod or bottom.dst != target.cod:
            raise ValueError("bottom map endpoints do not match")
        if check and not (target.f * top == bottom * source.f):
            raise ValueError("square does not commute")
        self.source = source
        self.target = target
        self.top = top
        self.bottom = bottom

    @classmethod
    def identity(cls, a: Arrow) -> "ArrowMap":
        return cls(a, a, FPMap.identity(a.dom), FPMap.identity(a.cod), check=False)

    def compose(self, other: "ArrowMap") -> "ArrowMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return ArrowMap(
            other.source,
            self.target,
            self.top * other.top,
            self.bottom * other.bottom,
            check=False,
        )

    def __mul__(self, other):
        if not isinstance(other, ArrowMap):
            return NotImplemented
        return self.compose(other)

    def __eq__(self, other):
        return (
            isinstance(other, ArrowMap)
            and other.source == self.source
            and other.target == self.target
            and other.top == self.top
            and other.bottom == self.bottom
        )

    def __hash__(self):
        return hash((self.source, self.target, self.top, self.bottom))

    def __repr__(self):
        return f"ArrowMap({self.source!r} => {self.target!r})"

    def is_iso(self) -> bool:
        return self.top.is_iso() and self.bottom.is_iso()

    def is_epi(self) -> bool:
        return self.top.is_surjective() and self.bottom.is_surjective()

    def is_mono(self) -> bool:
        return self.top.is_injective() and self.bottom.is_injective()

    def kernel(self):
        """(k: Arrow, incl: ArrowMap k -> source), componentwise kernels."""
        Kt, it = self.top.kernel()
        Kb, ib = self.bottom.kernel()
        induced = factor_through(self.source.f * it, ib)
        k = Arrow(induced)
        return k, ArrowMap(k, self.source, it, ib, check=False)


# -- embeddings of modules as arrows ----------------------------------


def embed(which: str, M: FPModule) -> Arrow:
    """L0(M) = (M = M), L1(M) = (0 -> M), U0(M) = (M -> 0), U1(M) = (M = M)."""
    Z = FPModule.zero(M.algebra)
    if which in ("L0", "U1"):
        return Arrow(FPMap.identity(M))
    if which == "L1":
        return Arrow(FPMap(Z, M, Matrix.zeros(M.base, M.ngens, 0), check=False))
    if which == "U0":
        return Arrow(FPMap(M, Z, Matrix.zeros(M.base, 0, M.ngens), check=False))
    raise ValueError(f"unknown embedding {which!r}")


def tensor_unit_arrow(algebra) -> Arrow:
    """Unit for the componentwise tensor: the identity arrow on A."""
    return embed("L0", FPModule.free(algebra, 1))


def box_unit_arrow(algebra) -> Arrow:
    """Unit for the pushout product: 0 -> A."""
    return embed("L1", FPModule.free(algebra, 1))


# -- the two products -------------------------------------------------


def tensor_arrows(a: Arrow, b: Arrow) -> Arrow:
    """Componentwise tensor; the two composite routes agree and are asserted."""
    if a.algebra != b.algebra:
        raise ValueError("tensor needs a common algebra")
    X0Y0 = tensor(a.dom, b.dom)
    X1Y1 = tensor(a.cod, b.cod)
    both = tensor_map(a.f, b.f, X0Y0, X1Y1)
    via_left = tensor_map(a.f, FPMap.identity(b.dom), X0Y0, tensor(a.cod, b.dom))
    via_right = tensor_map(FPMap.identity(a.cod), b.f, via_left.dst, X1Y1)
    if not (via_right * via_left == both):
        raise AssertionError("tensor route mismatch")
    return Arrow(both)


def pushout_product(a: Arrow, b: Arrow) -> Arrow:
    """a box b; source generators are the X0 Y1 block then the X1 Y0 block."""
    if a.algebra != b.algebra:
        raise ValueError("pushout product needs a common algebra")
    X0Y0 = tensor(a.dom, b.dom)
    X0Y1 = tensor(a.dom, b.cod)
    X1Y0 = tensor(a.cod, b.dom)
    X1Y1 = tensor(a.cod, b.cod)
    alpha = tensor_map(FPMap.identity(a.dom), b.f, X0Y0, X0Y1)
    beta = tensor_map(a.f, FPMap.identity(b.dom), X0Y0, X1Y0)
    P, in_left, in_right = pushout(alpha, beta)
    leg_left = tensor_map(a.f, FPMap.identity(b.cod), X0Y1, X1Y1)
    leg_right = tensor_map(FPMap.identity(a.cod), b.f, X1Y0, X1Y1)
    if not (leg_left * alpha == leg_right * beta):
        raise AssertionError("pushout cocone does not commute")
    induced = FPMap(P, X1Y1, hstack(leg_left.mat, leg_right.mat))
    return Arrow(induced)


def box_arrow_maps(phi: ArrowMap, psi: ArrowMap, src: Arrow, dst: Arrow) -> ArrowMap:
    """Functoriality of box on commuting squares: phi box psi from
    src = phi.source box psi.source to dst = phi.target box psi.target,
    both as built by ``pushout_product``."""
    tl = tensor_map(phi.top, psi.bottom)
    tr = tensor_map(phi.bottom, psi.top)
    top = FPMap(src.dom, dst.dom, _block_cols(tl.mat, tr.mat, dst.dom))
    bottom = tensor_map(phi.bottom, psi.bottom, src.cod, dst.cod)
    return ArrowMap(src, dst, top, bottom)


def _block_cols(A: Matrix, B: Matrix, dst: FPModule) -> Matrix:
    """Map out of a two-block pushout source: A on the first block of
    generators (padded below), B on the second (padded above)."""
    base = A.ring
    za = Matrix.zeros(base, B.m, A.n)
    zb = Matrix.zeros(base, A.m, B.n)
    left = vstack(A, za)
    right = vstack(zb, B)
    out = hstack(left, right)
    if out.m != dst.ngens:
        raise ValueError("block shape mismatch")
    return out


# -- structure isomorphisms -------------------------------------------


def tensor_arrows_symmetry(a: Arrow, b: Arrow) -> ArrowMap:
    return ArrowMap(
        tensor_arrows(a, b),
        tensor_arrows(b, a),
        tensor_swap(a.dom, b.dom),
        tensor_swap(a.cod, b.cod),
        check=False,
    )

def tensor_arrows_assoc(a: Arrow, b: Arrow, c: Arrow) -> ArrowMap:
    """(a tensor b) tensor c -> a tensor (b tensor c); identity matrices,
    since index flattening makes both sides the same presentation."""
    left = tensor_arrows(tensor_arrows(a, b), c)
    right = tensor_arrows(a, tensor_arrows(b, c))
    return ArrowMap(
        left,
        right,
        FPMap.identity(left.dom),
        FPMap.identity(left.cod),
    )


def box_symmetry(a: Arrow, b: Arrow) -> ArrowMap:
    """a box b -> b box a: swap within blocks, then swap the blocks."""
    left = pushout_product(a, b)
    right = pushout_product(b, a)
    base = a.dom.base
    gX0, gX1 = a.dom.ngens, a.cod.ngens
    gY0, gY1 = b.dom.ngens, b.cod.ngens
    n = gX0 * gY1 + gX1 * gY0
    rows = [[base.zero] * n for _ in range(n)]
    for i in range(gX0):
        for j in range(gY1):
            rows[gY0 * gX1 + j * gX0 + i][i * gY1 + j] = base.one
    for i in range(gX1):
        for j in range(gY0):
            rows[j * gX1 + i][gX0 * gY1 + i * gY0 + j] = base.one
    top = FPMap(left.dom, right.dom, Matrix(base, rows))
    return ArrowMap(left, right, top, tensor_swap(a.cod, b.cod))


def box_assoc(a: Arrow, b: Arrow, c: Arrow) -> ArrowMap:
    """(a box b) box c -> a box (b box c): a permutation of the three
    source blocks X0 Y1 Z1, X1 Y0 Z1, X1 Y1 Z0; identity on the target."""
    left = pushout_product(pushout_product(a, b), c)
    right = pushout_product(a, pushout_product(b, c))
    base = a.dom.base
    gX0, gX1 = a.dom.ngens, a.cod.ngens
    gY0, gY1 = b.dom.ngens, b.cod.ngens
    gZ0, gZ1 = c.dom.ngens, c.cod.ngens
    n = gX0 * gY1 * gZ1 + gX1 * gY0 * gZ1 + gX1 * gY1 * gZ0
    gQ = gY0 * gZ1 + gY1 * gZ0
    rows = [[base.zero] * n for _ in range(n)]
    for i in range(gX0):
        for j in range(gY1):
            for k in range(gZ1):
                src = (i * gY1 + j) * gZ1 + k
                rows[i * gY1 * gZ1 + j * gZ1 + k][src] = base.one
    off_l = gX0 * gY1 * gZ1
    off_r = gX0 * gY1 * gZ1
    for i in range(gX1):
        for j in range(gY0):
            for k in range(gZ1):
                src = off_l + (i * gY0 + j) * gZ1 + k
                rows[off_r + i * gQ + j * gZ1 + k][src] = base.one
    off_l2 = off_l + gX1 * gY0 * gZ1
    for i in range(gX1):
        for j in range(gY1):
            for k in range(gZ0):
                src = off_l2 + (i * gY1 + j) * gZ0 + k
                rows[off_r + i * gQ + gY0 * gZ1 + j * gZ0 + k][src] = base.one
    top = FPMap(left.dom, right.dom, Matrix(base, rows))
    return ArrowMap(left, right, top, FPMap.identity(left.cod))


# -- cok and ker ------------------------------------------------------


def cok_functor(a: Arrow) -> Arrow:
    _, proj = a.f.cokernel()
    return Arrow(proj)


def ker_functor(a: Arrow) -> Arrow:
    _, incl = a.f.kernel()
    return Arrow(incl)


def cok_arrow_map(phi: ArrowMap) -> ArrowMap:
    ca = cok_functor(phi.source)
    cb = cok_functor(phi.target)
    induced = FPMap(ca.cod, cb.cod, (cb.f * phi.bottom).mat)
    return ArrowMap(ca, cb, phi.bottom, induced)


def ker_arrow_map(phi: ArrowMap) -> ArrowMap:
    ka = ker_functor(phi.source)
    kb = ker_functor(phi.target)
    induced = factor_through(phi.top * ka.f, kb.f)
    return ArrowMap(ka, kb, induced, phi.top)


def adjunction_unit(a: Arrow) -> ArrowMap:
    """a -> ker(cok(a)); iso exactly when a is mono."""
    kc = ker_functor(cok_functor(a))
    top = factor_through(a.f, kc.f)
    return ArrowMap(a, kc, top, FPMap.identity(a.cod))


def adjunction_counit(b: Arrow) -> ArrowMap:
    """cok(ker(b)) -> b; iso exactly when b is epi."""
    ck = cok_functor(ker_functor(b))
    bottom = FPMap(ck.cod, b.cod, b.f.mat)
    return ArrowMap(ck, b, FPMap.identity(b.dom), bottom)


def cok_box_comparison(a: Arrow, b: Arrow) -> ArrowMap:
    """cok(a box b) -> cok(a) tensor cok(b); the strong monoidality map.

    Both bottoms are quotients of X1 tensor Y1 on the same generators,
    so the comparison is an identity matrix whose well-definedness and
    invertibility carry the content."""
    left = cok_functor(pushout_product(a, b))
    right = tensor_arrows(cok_functor(a), cok_functor(b))
    bottom = FPMap(left.cod, right.cod, Matrix.identity(a.dom.base, left.cod.ngens))
    return ArrowMap(left, right, FPMap.identity(left.dom), bottom)


def ker_lax_comparison(a: Arrow, b: Arrow) -> ArrowMap:
    """ker(a) box ker(b) -> ker(a tensor b); the lax structure map."""
    left = pushout_product(ker_functor(a), ker_functor(b))
    right = ker_functor(tensor_arrows(a, b))
    top = factor_through(left.f, right.f)
    return ArrowMap(left, right, top, FPMap.identity(left.cod))


# -- hom-set transposition under cok -| ker ---------------------------


def adjoint_transpose(phi: ArrowMap, a: Arrow, b: Arrow) -> ArrowMap:
    """Turn phi: cok(a) -> b into the adjoint a -> ker(b)."""
    return ker_arrow_map(phi) * adjunction_unit(a)


def adjoint_transpose_back(psi: ArrowMap, a: Arrow, b: Arrow) -> ArrowMap:
    """Turn psi: a -> ker(b) into the adjoint cok(a) -> b."""
    return adjunction_counit(b) * cok_arrow_map(psi)


# -- hom-set enumeration (engine side) --------------------------------


def all_module_maps(M: FPModule, N: FPModule):
    """Every map M -> N, via the hom module; finite cases only."""
    from adic_smith.fpmod import HomModule

    H = HomModule(M, N)
    return [H.to_map(c) for c in H.module.elements()]


def all_arrow_maps(a: Arrow, b: Arrow):
    """Every commuting square a -> b; finite cases only."""
    out = []
    for top in all_module_maps(a.dom, b.dom):
        for bottom in all_module_maps(a.cod, b.cod):
            if b.f * top == bottom * a.f:
                out.append(ArrowMap(a, b, top, bottom, check=False))
    return out
