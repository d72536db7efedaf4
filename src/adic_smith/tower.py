"""Ideal inclusions, their truncation towers, and completion checks.

A :class:`SmithIdeal` is an algebra A = R/(f) together with chosen ideal
generators; it derives the inclusion arrow j: I -> A and the ideal
powers I^n (spanned by all n-fold generator products).  The ambient
may itself carry an extra principal relation, so truncations A/I^{N+1}
stay inside the same class and towers can be re-truncated.

Level n of the tower is the arrow I/I^{n+1} -> A/I^{n+1}; transitions
are the canonical surjections, and every structural claim (transitions
epic, kernel of a transition against the graded piece I^n/I^{n+1},
re-truncation consistency, the three power-comparison routes) is
certified by explicit maps, never inferred.

Generator products are written in closed form.  I^n is spanned by the
products over the sorted multisets of n generator indices, and for
m <= n the product over c is the product over c[:m] times the product
over c[m:].  So ``SmithIdeal.product_coords(m, n)`` gives each n-fold
product one coordinate in the m-fold ones, and a single multiply-out
against the products themselves certifies the whole matrix.  Truncation
(m = 1), graded pieces (n against n+1) and route (c) of the power
comparison all take their coordinates from it.

Each product is computed once per ideal.  The ideal keeps one table
per degree, {sorted multiset c: reduced product over c}, built on first
use from the table one degree below: the product over c is the product
over c[:-1] times generator c[-1], reduced once.  ``power_products``
and ``product_coords`` both read these tables, so truncation, graded
pieces, the power routes and the almost layer's image-form levels all
share them, and a tower of N levels does one multiplication per
product instead of n for each n-fold product at every request.  An
ideal lives for one command, so the tables need no eviction.

A level's ``power_map_vanishes`` certifies that the composite
I^(tensor n+1) -> I -> I/I^{n+1} of mu_{n+1} with the truncation is zero.
A module map is zero exactly when it kills every generator, and the
generators of the tensor power go to the (n+1)-fold generator products,
which in a commutative ring depend only on the multiset of factors.  So
the check runs on the C(k+n, n+1) columns of ``product_coords(1, n+1)``,
never on the k^(n+1)-generator tensor power, which nothing builds.

Each command builds every level it reads once and hands it on.  A
:class:`Tower` holds levels 0..N with their transitions, and
:class:`GradedPiece` and :class:`ModuleTower` read levels and
transitions from it.  Checks that use no transitions (completeness,
analytic equivalence, the re-truncated side of the module check) build
the plain list ``tower_levels``.  The truncated ideal is made from a
level already in hand (``truncated_ideal(ideal, lv)``), and a verdict
keeps its per-level maps, so certificates are read off it.

The inverse limit is never materialized: completeness is always a
level-indexed verdict obtained by re-truncating the level-N data.
"""

from __future__ import annotations

from adic_smith.arrowcat import (
    Arrow,
    ArrowMap,
    box_arrow_maps,
    embed,
    pushout_product,
)
from adic_smith.fpmod import (
    FPMap,
    FPModule,
    are_isomorphic,
    is_exact_pair,
    quotient,
    submodule,
    tensor,
)
from adic_smith.linalg import Matrix
from adic_smith.rings import Ring, algebra_split


class SmithIdeal:
    """Ideal generators inside a cyclic algebra, with derived structure.

    ``ambient_modulus`` adds one principal relation to the rank-one
    ambient, so a truncation A/I^{N+1} is again a SmithIdeal and towers
    compose.  Generators are stored reduced.  The relations of I, like
    those of every power I^n, are the syzygies of one row of generators
    modulo the ambient relation, which ``submodule`` takes by the
    extended-gcd sweep, never by a Smith form.  That sweep builds the
    inclusion mono by construction; construction still certifies it
    (one more sweep), and a failure is an engine fault
    (``AssertionError``), not bad input.  Closure under products needs
    no check: the algebra A = R/(f) is cyclic over R, so the R-span of
    the generators is already an ideal (g_i g_j is g_i times the
    generator g_j).

    Generator products are carried up by degree and kept for the life
    of the ideal (see the module docstring); construction computes none.
    """

    __slots__ = ("algebra", "base", "modulus", "ambient", "gens", "gen_mat", "I", "incl", "_products")

    def __init__(self, algebra: Ring, gens, ambient_modulus=None):
        base, modulus = algebra_split(algebra)
        ambient = FPModule(algebra, 1, [] if ambient_modulus is None else [[ambient_modulus]])
        gens = [ambient.reduce_vec([base.coerce_payload(g)])[0] for g in gens]
        self.algebra = algebra
        self.base = base
        self.modulus = modulus
        self.ambient = ambient
        self.gens = tuple(gens)
        self.gen_mat = Matrix(base, [list(gens)], shape=(1, len(gens)))
        self.I, self.incl = submodule(ambient, self.gen_mat)
        if not self.incl.is_injective():
            raise AssertionError("ideal inclusion is not mono")
        self._products = []

    @property
    def j(self) -> Arrow:
        return Arrow(self.incl)

    # -- powers -------------------------------------------------------
    def _product_table(self, n: int):
        """{sorted index multiset c: reduced product over c} for |c| = n,
        in the order of the sorted multisets.  Degree n is built once,
        on first use, from degree n-1: the product over c is the product
        over c[:-1] times generator c[-1], reduced."""
        if n < 0:
            raise ValueError("product degree must be >= 0")
        table = self._products
        base, gens, reduce_vec = self.base, self.gens, self.ambient.reduce_vec
        if not table:
            table.append({(): reduce_vec([base.one])[0]})
        while len(table) <= n:
            table.append(
                {
                    c + (t,): reduce_vec([base.mul(p, gens[t])])[0]
                    for c, p in table[-1].items()
                    for t in range(c[-1] if c else 0, len(gens))
                }
            )
        return table[n]

    def power_products(self, n: int):
        """All n-fold products of the generators, reduced; I^0 gives [1].
        The order is that of the sorted index multisets."""
        return list(self._product_table(n).values())

    def product_coords(self, m: int, n: int) -> Matrix:
        """X with power_products(m) X = power_products(n) modulo the
        ambient relation, for 0 <= m <= n.

        The column of a sorted multiset c has one nonzero entry, the
        reduced product over c[m:], in the row of c[:m].  One
        multiply-out certifies the whole matrix.
        """
        if not 0 <= m <= n:
            raise ValueError("product coordinates need 0 <= m <= n")
        base = self.base
        heads, tails, prods = self._product_table(m), self._product_table(n - m), self._product_table(n)
        row = {c: i for i, c in enumerate(heads)}
        rows = [[base.zero] * len(prods) for _ in row]
        for j, c in enumerate(prods):
            rows[row[c[:m]]][j] = tails[c[m:]]
        X = Matrix(base, rows, shape=(len(row), len(prods)))
        G = Matrix(base, [list(heads.values())], shape=(1, len(row)))
        for x, p in zip((G * X).rows[0], prods.values()):
            if not self.ambient.is_zero_vec([base.sub(x, p)]):
                raise AssertionError("generator products do not multiply out")
        return X

    def power(self, n: int):
        """(I^n as a submodule of the ambient, inclusion)."""
        prods = self.power_products(n)
        return submodule(self.ambient, Matrix(self.base, [prods], shape=(1, len(prods))))

    def __repr__(self):
        gs = ", ".join(self.base.format_elem(g) for g in self.gens)
        return f"SmithIdeal(({gs}) in {self.algebra!r})"


class TowerLevel:
    """Level n: the arrow I/I^{n+1} -> A/I^{n+1} plus the map from j."""

    __slots__ = ("n", "arrow", "loc", "power_map_vanishes")

    def __init__(self, n: int, arrow: Arrow, loc: ArrowMap, power_map_vanishes: bool):
        self.n = n
        self.arrow = arrow
        self.loc = loc
        self.power_map_vanishes = power_map_vanishes

    def describe(self):
        return {
            "level": self.n,
            "invariant_factors_ideal": _factors(self.arrow.dom),
            "invariant_factors_algebra": _factors(self.arrow.cod),
            "power_map_vanishes": self.power_map_vanishes,
        }


def _factors(M: FPModule):
    return [M.base.format_elem(d) for d in M.invariant_factors()]


def truncate(ideal: SmithIdeal, n: int) -> TowerLevel:
    """P^n: quotient both components by I^{n+1}; ``power_map_vanishes``
    is checked on the generator products (see the module docstring)."""
    if n < 0:
        raise ValueError("truncation level must be >= 0")
    base = ideal.base
    k = len(ideal.gens)
    prods = ideal.power_products(n + 1)
    H = Matrix(base, [prods], shape=(1, len(prods)))
    Abar, proj = quotient(ideal.ambient, H)
    Itop, incl_top = submodule(Abar, ideal.gen_mat)
    arrow = Arrow(incl_top)
    top_loc = FPMap(ideal.I, Itop, Matrix.identity(base, k))
    loc = ArrowMap(ideal.j, arrow, top_loc, proj)
    X = ideal.product_coords(1, n + 1)
    vanishes = all(Itop.is_zero_vec(c) for c in X.cols())
    return TowerLevel(n, arrow, loc, vanishes)


def identity_on_generators(source: Arrow, target: Arrow) -> ArrowMap:
    """The square whose top and bottom maps are identity matrices on the
    generators; both maps and the square are certified, and a failure
    raises ValueError."""
    base = source.dom.base
    top = FPMap(source.dom, target.dom, Matrix.identity(base, source.dom.ngens))
    bottom = FPMap(source.cod, target.cod, Matrix.identity(base, source.cod.ngens))
    return ArrowMap(source, target, top, bottom)


def transition_map(upper: TowerLevel, lower: TowerLevel) -> ArrowMap:
    """The canonical surjection P^n -> P^{n-1} (identity on generators)."""
    return identity_on_generators(upper.arrow, lower.arrow)


def tower_levels(ideal: SmithIdeal, N: int):
    """Levels 0..N alone, for checks that use no transitions."""
    if N < 0:
        raise ValueError("tower bound must be >= 0")
    return [truncate(ideal, n) for n in range(N + 1)]


class Tower:
    """Levels 0..N with certified epic transitions."""

    __slots__ = ("ideal", "N", "levels", "transitions", "transitions_epi")

    def __init__(self, ideal: SmithIdeal, N: int):
        self.ideal = ideal
        self.N = N
        self.levels = tower_levels(ideal, N)
        self.transitions = {}
        self.transitions_epi = {}
        for n in range(1, N + 1):
            tr = transition_map(self.levels[n], self.levels[n - 1])
            if not (tr * self.levels[n].loc == self.levels[n - 1].loc):
                raise AssertionError("transition does not commute with localization")
            self.transitions[n] = tr
            self.transitions_epi[n] = tr.is_epi()

    def describe(self):
        out = []
        for lv in self.levels:
            d = lv.describe()
            if lv.n >= 1:
                d["transition_epi"] = self.transitions_epi[lv.n]
            out.append(d)
        return out


def truncated_ideal(ideal: SmithIdeal, lv: TowerLevel) -> SmithIdeal:
    """The data of ``lv``, a level of ``ideal``, as a SmithIdeal again
    (the Lambda surrogate): the same generators in A/I^{n+1}."""
    rel = lv.arrow.cod.rel
    return SmithIdeal(ideal.algebra, ideal.gens, ambient_modulus=rel.rows[0][0] if rel.n else None)


def localization_to_truncation(ideal: SmithIdeal, trunc: SmithIdeal) -> ArrowMap:
    """The canonical map j -> (truncated j), identity on generators."""
    return identity_on_generators(ideal.j, trunc.j)


# -- graded pieces ----------------------------------------------------


class GradedPiece:
    """I^n/I^{n+1} with its two certificates: the comparison from
    (A/I) tensor I^n, and the kernel-of-transition short exact sequence.
    Levels n and n-1 and the transition between them come from ``tower``,
    which must reach level n."""

    __slots__ = (
        "n",
        "module",
        "comparison",
        "comparison_is_iso",
        "transition",
        "kernel_arrow",
        "kernel_incl",
        "ses_exact",
        "kernel_shape",
        "kernel_matches_graded",
    )

    def __init__(self, tower: Tower, n: int):
        ideal = tower.ideal
        In, _ = ideal.power(n)
        gr, _ = quotient(In, ideal.product_coords(n, n + 1))
        self.n = n
        self.module = gr

        # Level 0 of the tower is I/I -> A/I.
        T = tensor(tower.levels[0].arrow.cod, In)
        self.comparison = FPMap(T, gr, Matrix.identity(ideal.base, In.ngens))
        self.comparison_is_iso = self.comparison.is_iso()

        if n >= 1:
            tr = tower.transitions[n]
            epi = tower.transitions_epi[n]
        else:
            upper = tower.levels[0].arrow
            z = embed("U0", FPModule.zero(ideal.algebra))
            tr = ArrowMap(upper, z, FPMap.zero(upper.dom, z.dom), FPMap.zero(upper.cod, z.cod))
            epi = tr.is_epi()
        self.transition = tr
        k, incl = tr.kernel()
        self.kernel_arrow = k
        self.kernel_incl = incl
        self.ses_exact = (
            incl.is_mono()
            and epi
            and is_exact_pair(incl.top, tr.top)
            and is_exact_pair(incl.bottom, tr.bottom)
        )
        # At n >= 1 the componentwise kernel is the identity embed of the
        # graded piece; at n = 0 the kernel is all of P^0, the shifted
        # embed (0 -> A/I).
        if n >= 1:
            self.kernel_shape = "identity_embed"
            self.kernel_matches_graded = (
                k.f.is_iso()
                and are_isomorphic(k.dom, gr)
                and are_isomorphic(k.cod, gr)
            )
        else:
            self.kernel_shape = "shifted_embed"
            self.kernel_matches_graded = k.dom.is_zero_module() and are_isomorphic(k.cod, gr)

    def describe(self):
        return {
            "level": self.n,
            "graded_invariant_factors": _factors(self.module),
            "comparison_is_iso": self.comparison_is_iso,
            "transition_kernel_ses_exact": self.ses_exact,
            "kernel_shape": self.kernel_shape,
            "kernel_matches_graded": self.kernel_matches_graded,
        }


# -- towers of modules ------------------------------------------------


class ModuleTower:
    """Levels P^n(j) box (0 -> M) = (I/I^{n+1} (x) M -> A/I^{n+1} (x) M)."""

    __slots__ = ("ideal", "M", "N", "tower", "levels", "transitions", "transitions_epi")

    def __init__(self, ideal: SmithIdeal, M: FPModule, N: int):
        if M.algebra != ideal.algebra:
            raise ValueError("module and ideal need a common algebra")
        self.ideal = ideal
        self.M = M
        self.N = N
        LM = embed("L1", M)
        self.tower = Tower(ideal, N)
        self.levels = [pushout_product(lv.arrow, LM) for lv in self.tower.levels]
        self.transitions = {}
        self.transitions_epi = {}
        idLM = ArrowMap.identity(LM)
        for n in range(1, N + 1):
            tr = box_arrow_maps(self.tower.transitions[n], idLM, self.levels[n], self.levels[n - 1])
            self.transitions[n] = tr
            self.transitions_epi[n] = tr.is_epi()

    def describe(self):
        out = []
        for n, a in enumerate(self.levels):
            d = {
                "level": n,
                "invariant_factors_ideal": _factors(a.dom),
                "invariant_factors_algebra": _factors(a.cod),
            }
            if n >= 1:
                d["transition_epi"] = self.transitions_epi[n]
            out.append(d)
        return out


# -- verdicts ---------------------------------------------------------


class LevelVerdict:
    """Per-level pass/fail evidence with an overall flag, and the
    certified map of each level (None where there is none)."""

    __slots__ = ("kind", "entries", "maps", "ok", "first_failure")

    def __init__(self, kind: str, entries, maps):
        self.kind = kind
        self.entries = list(entries)
        self.maps = list(maps)
        fails = [e["level"] for e in self.entries if not e["ok"]]
        self.ok = not fails
        self.first_failure = fails[0] if fails else None

    def describe(self):
        return {
            "check": self.kind,
            "ok": self.ok,
            "first_failure": self.first_failure,
            "levels": self.entries,
        }


def _level_map_verdict(kind: str, src_levels, dst_levels, phi: ArrowMap) -> LevelVerdict:
    """Is P^n(phi), the map phi induces between the two level-n
    truncations, an isomorphism at every level?  It does not exist when
    phi does not descend (the bottom must carry I^{n+1} into I'^{n+1})."""
    entries, maps = [], []
    for up_s, up_d in zip(src_levels, dst_levels):
        n = up_s.n
        try:
            bottom = FPMap(up_s.arrow.cod, up_d.arrow.cod, phi.bottom.mat)
            top = FPMap(up_s.arrow.dom, up_d.arrow.dom, phi.top.mat)
            lv = ArrowMap(up_s.arrow, up_d.arrow, top, bottom)
        except ValueError as err:
            maps.append(None)
            entries.append({"level": n, "ok": False, "obstruction": {"descent": str(err)}})
            continue
        maps.append(lv)
        iso = lv.is_iso()
        e = {"level": n, "ok": iso}
        if not iso:
            e["obstruction"] = {
                "ideal_source": _factors(lv.source.dom),
                "ideal_target": _factors(lv.target.dom),
                "algebra_source": _factors(lv.source.cod),
                "algebra_target": _factors(lv.target.cod),
            }
        entries.append(e)
    return LevelVerdict(kind, entries, maps)


def check_analytic_equivalence(src: SmithIdeal, dst: SmithIdeal, phi: ArrowMap, N: int) -> LevelVerdict:
    """Is P^n(phi) an isomorphism for every n <= N?"""
    if phi.source != src.j or phi.target != dst.j:
        raise ValueError("map endpoints must be the two ideal inclusions")
    return _level_map_verdict("analytic-equivalence", tower_levels(src, N), tower_levels(dst, N), phi)


def check_complete(ideal: SmithIdeal, N: int) -> LevelVerdict:
    """Level-wise completeness: re-truncating the level-N data at each
    m <= N reproduces P^m(j) by a certified iso."""
    levels = tower_levels(ideal, N)
    trunc = truncated_ideal(ideal, levels[N])
    loc = localization_to_truncation(ideal, trunc)
    return _level_map_verdict("complete", levels, tower_levels(trunc, N), loc)


def truncation_composition(ideal: SmithIdeal, m: int, n: int):
    """(comparison ArrowMap P^m(P^n(j)) -> P^{min(m,n)}(j), iso flag)."""
    trunc = truncated_ideal(ideal, truncate(ideal, n))
    outer = truncate(trunc, m)
    direct = truncate(ideal, min(m, n))
    cmp_map = identity_on_generators(outer.arrow, direct.arrow)
    return cmp_map, cmp_map.is_iso()


def check_module_complete(mt: ModuleTower) -> LevelVerdict:
    """Tower-of-module consistency: levels built from the truncated
    ideal agree with the levels of ``mt``, built from j itself,
    certified per level."""
    LM = embed("L1", mt.M)
    trunc = truncated_ideal(mt.ideal, mt.tower.levels[mt.N])
    entries, maps = [], []
    for n, (direct, lv) in enumerate(zip(mt.levels, tower_levels(trunc, mt.N))):
        redone = pushout_product(lv.arrow, LM)
        try:
            cmp_map = identity_on_generators(redone, direct)
            entry = {"level": n, "ok": cmp_map.is_iso()}
        except ValueError as err:
            cmp_map = None
            entry = {"level": n, "ok": False, "obstruction": {"comparison": str(err)}}
        maps.append(cmp_map)
        entries.append(entry)
    return LevelVerdict("module-complete", entries, maps)


# -- power comparison routes ------------------------------------------


def yekutieli_compare(ideal: SmithIdeal, N: int):
    """Three routes to I^n at truncation level N, for n = 1, ..., N,
    with certified maps; one entry per n.

    (a) the image of I^n inside A/I^{N+1};
    (b) the n-th power of the truncated ideal (image of I in A/I^{N+1});
    (c) the truncated quotient I^n/I^{N+1} built inside I^n itself.
    """
    if N < 1:
        raise ValueError("power routes need N >= 1")
    base = ideal.base
    lvN = truncate(ideal, N)
    Abar = lvN.arrow.cod
    trunc = truncated_ideal(ideal, lvN)

    def entry(n):
        prods_a = ideal.power_products(n)
        route_a, _ = submodule(Abar, Matrix(base, [prods_a], shape=(1, len(prods_a))))
        route_b, _ = trunc.power(n)
        In, _ = ideal.power(n)
        route_c, _ = quotient(In, ideal.product_coords(n, N + 1))

        k = route_a.ngens
        map_ab = FPMap(route_a, route_b, Matrix.identity(base, k))
        map_bc = FPMap(route_b, route_c, Matrix.identity(base, k))
        composite = map_bc * map_ab
        return {
            "n": n,
            "level": N,
            "routes": {
                "power_image": route_a.describe(),
                "truncated_power": route_b.describe(),
                "quotient_limit": route_c.describe(),
            },
            "map_image_to_power_iso": map_ab.is_iso(),
            "map_power_to_limit_iso": map_bc.is_iso(),
            "composite_iso": composite.is_iso(),
        }

    return [entry(n) for n in range(1, N + 1)]
