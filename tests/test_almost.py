"""Almost layer: ladder arithmetic, annihilation profiles, the grid.

The ladder identifications are pinned down as payloads first (u_d is a
2^d-th root of t, so t lifts to u_d^(2^d)), then the depth-indexed
verdicts are frozen for the standard witnesses:

* V/(t) is killed by t but by no deeper uniformizer, so its
  almost-zero profile is true at depth 0 and false below;
* a module defined at depth d and killed by u_d is almost zero at
  every depth up to d, since shallower multipliers are u_d-powers.
"""

import pytest

from adic_smith.rings import GF, PolyRing, SparsePolyRing
from adic_smith.fpmod import FPMap, FPModule, submodule
from adic_smith.linalg import Matrix
from adic_smith.almost import (
    AlmostContext,
    AlmostModule,
    almost_adic_check,
    almost_iso_to_depth,
    almost_zero_to_depth,
    module_at_depth,
)
from adic_smith.tower import SmithIdeal


@pytest.fixture
def ctx():
    return AlmostContext(GF(2), 4)


def test_ladder_rings_and_payloads(ctx):
    R0 = ctx.ring(0)
    assert R0.variable == "t"
    assert ctx.ring(2).variable == "u2"
    # t = u_d^(2^d); ladder payloads are (exponent, coefficient) terms
    assert ctx.lift(R0.gen, 0, 3) == ((8, 1),)
    assert ctx.ring(3).format_elem(ctx.lift(R0.gen, 0, 3)) == "u3^8"
    assert ctx.multiplier(0, 2) == ((4, 1),)
    assert ctx.multiplier(1, 3) == ((4, 1),)
    assert ctx.multiplier(2, 2) == ctx.ring(2).gen
    with pytest.raises(ValueError, match="depths >= e"):
        ctx.multiplier(3, 1)
    with pytest.raises(ValueError, match="down the ladder"):
        ctx.lift(R0.gen, 2, 0)
    with pytest.raises(ValueError, match="outside"):
        ctx.ring(9)


def test_depth_of_recognizes_ladder_rings(ctx):
    assert ctx.depth_of(ctx.ring(0)) == 0
    assert ctx.depth_of(ctx.ring(3)) == 3
    with pytest.raises(ValueError, match="not on this ladder"):
        ctx.depth_of(PolyRing(GF(2), "s"))


def test_depth_of_builds_no_other_ladder_ring():
    # depth_of is a lookup: at the depth budget it builds nothing below
    deep = AlmostContext(GF(2), 14000)
    assert deep.depth_of(deep.ring(14000)) == 14000
    assert list(deep._rings) == [14000]
    # an equal ring built elsewhere is read off its variable and checked
    assert deep.depth_of(SparsePolyRing(GF(2), "u9000")) == 9000
    assert deep.depth_of(SparsePolyRing(GF(2), "t")) == 0
    assert sorted(deep._rings) == [0, 9000, 14000]
    for other in (SparsePolyRing(GF(3), "u5"), PolyRing(GF(2), "u5"), SparsePolyRing(GF(2), "u05"),
                  SparsePolyRing(GF(2), "u0"), SparsePolyRing(GF(2), "u14001")):
        with pytest.raises(ValueError, match="not on this ladder"):
            deep.depth_of(other)


def test_module_at_depth_stretches_relations(ctx):
    R0 = ctx.ring(0)
    M = FPModule.cyclic(R0, R0.gen)
    M2 = module_at_depth(ctx, M, 0, 2)
    # t-torsion becomes u_2^4-torsion
    assert M2.invariant_factors() == [((4, 1),)]
    assert M2.dim_over_field() == 4
    # t, lifted to u_2^4, still kills the stretched module
    assert FPMap.scalar(M2, ctx.lift(R0.gen, 0, 2)).is_zero_map()


def test_almost_zero_profile_of_v_mod_t(ctx):
    R0 = ctx.ring(0)
    am = AlmostModule(ctx, 0, FPModule.cyclic(R0, R0.gen))
    v = almost_zero_to_depth(am, 2)
    assert v.describe() == {
        "check": "almost-zero",
        "depths": {"0": True, "1": False, "2": False},
    }
    assert [e for e, ok in v.entries.items() if ok] == [0]


def test_almost_zero_profile_at_defining_depth(ctx):
    R2 = ctx.ring(2)
    am = AlmostModule(ctx, 2, FPModule.cyclic(R2, R2.gen))
    v = almost_zero_to_depth(am, 3)
    assert v.entries == {0: True, 1: True, 2: True, 3: False}


def test_depth_pin_enforced(ctx):
    R2 = ctx.ring(2)
    with pytest.raises(ValueError, match="stated depth"):
        AlmostModule(ctx, 1, FPModule.cyclic(R2, R2.gen))


def test_almost_iso_of_ideal_inclusion(ctx):
    R0 = ctx.ring(0)
    V = FPModule.free(R0, 1)
    _, incl = submodule(V, Matrix(R0, [[R0.gen]]))
    v = almost_iso_to_depth(ctx, incl, 2)
    assert v.at(0) == {
        "almost_injective": True,
        "almost_surjective": True,
        "almost_iso": True,
    }
    assert not v.at(1)["almost_surjective"]
    assert v.at(1)["almost_injective"]
    assert [e for e, ok in v.entries.items() if ok["almost_iso"]] == [0]


def test_adic_grid_base_case():
    ctx = AlmostContext(GF(2), 6)
    R0 = ctx.ring(0)
    I = SmithIdeal(R0, [R0.gen])
    g = almost_adic_check(ctx, I, AlmostModule(ctx, 0, FPModule.free(R0, 1)), 2, 2)
    assert g.exact_ok
    assert g.ok_at_depth == {0: True, 1: True, 2: True}
    d = g.describe()
    assert d["check"] == "almost-adic"
    assert all(lv["exact_iso"] for lv in d["levels"])


def test_adic_grid_witness_separates_exact_from_almost():
    ctx = AlmostContext(GF(2), 6)
    K = 3
    RK = ctx.ring(K)
    tK = ctx.lift(ctx.ring(0).gen, 0, K)
    I = SmithIdeal(RK, [tK])
    # free rank one plus a u_K-torsion summand
    W = FPModule(RK, 2, [[RK.zero, RK.gen]])
    g = almost_adic_check(ctx, I, AlmostModule(ctx, K, W), 2, K)
    assert not g.exact_ok
    assert g.ok_at_depth == {0: True, 1: True, 2: True, 3: True}


def test_adic_grid_depth_monotone():
    # deeper success implies shallower success, on both grids above
    ctx = AlmostContext(GF(2), 6)
    R0 = ctx.ring(0)
    I = SmithIdeal(R0, [R0.gen])
    M = FPModule.cyclic(R0, R0.gen)
    g = almost_adic_check(ctx, I, AlmostModule(ctx, 0, M), 1, 3)
    oks = [g.ok_at_depth[e] for e in sorted(g.ok_at_depth)]
    assert all(oks[i] or not oks[i + 1] for i in range(len(oks) - 1))


def test_context_validation():
    with pytest.raises(ValueError, match=">= 0"):
        AlmostContext(GF(2), -1)
    ctx = AlmostContext(GF(2), 1)
    assert ctx.describe()["max_depth"] == 1
