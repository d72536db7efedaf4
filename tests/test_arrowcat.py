"""Arrow category engine checks on small hand-verified cases.

The independent set-level recomputation of the same laws lives in the
oracle layer and its tests; here the engine's own structure maps are
exercised directly: embeddings, both products, the cok/ker adjunction
with its triangle identities, and the transposition bijection.
"""

import pytest

from conftest import ZZ
from adic_smith.fpmod import FPMap, FPModule
from adic_smith.arrowcat import (
    Arrow,
    ArrowMap,
    adjoint_transpose,
    adjoint_transpose_back,
    adjunction_counit,
    adjunction_unit,
    all_arrow_maps,
    box_arrow_maps,
    box_assoc,
    box_symmetry,
    box_unit_arrow,
    cok_arrow_map,
    cok_box_comparison,
    cok_functor,
    embed,
    ker_functor,
    ker_lax_comparison,
    pushout_product,
    tensor_arrows,
    tensor_arrows_assoc,
    tensor_arrows_symmetry,
    tensor_unit_arrow,
)

Z2 = FPModule.cyclic(ZZ, 2)
Z4 = FPModule.cyclic(ZZ, 4)
Z8 = FPModule.cyclic(ZZ, 8)


def mono_2_in_4():
    return Arrow(FPMap(Z2, Z4, [[2]]))


def mono_2_in_8():
    return Arrow(FPMap(Z2, Z8, [[4]]))


def epi_4_onto_2():
    return Arrow(FPMap(Z4, Z2, [[1]]))


# -- embeddings -------------------------------------------------------


def test_embeddings_shapes():
    a = embed("L0", Z4)
    assert a.dom == Z4 and a.cod == Z4 and a.f.is_injective() and a.f.is_surjective()
    b = embed("L1", Z4)
    assert b.dom.is_zero_module() and b.cod == Z4 and b.f.is_injective()
    c = embed("U0", Z4)
    assert c.cod.is_zero_module() and c.f.is_surjective()
    assert embed("U1", Z4) == embed("L0", Z4)
    with pytest.raises(ValueError, match="embedding"):
        embed("L2", Z4)


def test_embedding_cok_ker_exchanges():
    M = Z4
    # cok(L1 M) = L0 M restricted to the interesting component
    c = cok_functor(embed("L1", M))
    assert c.cod.structure() == M.structure()
    assert c.f.is_surjective() and c.f.is_injective()
    k = ker_functor(embed("U0", M))
    assert k.dom.structure() == M.structure()


# -- products ---------------------------------------------------------


def test_tensor_arrows_componentwise():
    a = mono_2_in_4()
    t = tensor_arrows(a, a)
    assert t.dom.structure() == (0, (2,))
    assert t.cod.structure() == (0, (4,))
    # 1 tensor 1 goes to 2 tensor 2 = 4 . (1 tensor 1) = 0
    assert t.f(t.dom.gen(0)) == (0,)


def test_pushout_product_frozen_small():
    a = mono_2_in_4()
    box = pushout_product(a, a)
    assert box.dom.structure() == (0, (2, 2))
    assert box.cod.structure() == (0, (4,))
    assert not box.f.is_injective()
    C, _ = box.f.cokernel()
    assert C.structure() == (0, (2,))


def test_units():
    a = mono_2_in_4()
    u_box = pushout_product(box_unit_arrow(ZZ), a)
    assert u_box.dom.structure() == a.dom.structure()
    assert u_box.cod.structure() == a.cod.structure()
    u_tensor = tensor_arrows(tensor_unit_arrow(ZZ), a)
    assert u_tensor.dom.structure() == a.dom.structure()
    assert u_tensor.cod.structure() == a.cod.structure()


def test_symmetries_are_isos_and_involutive():
    a = mono_2_in_4()
    b = mono_2_in_8()
    s = tensor_arrows_symmetry(a, b)
    assert s.is_iso()
    assert s.source == tensor_arrows(a, b) and s.target == tensor_arrows(b, a)
    back = tensor_arrows_symmetry(b, a)
    assert back * s == ArrowMap.identity(tensor_arrows(a, b))
    sb = box_symmetry(a, b)
    assert sb.is_iso()
    assert box_symmetry(b, a) * sb == ArrowMap.identity(pushout_product(a, b))


def test_associators_are_isos():
    a = mono_2_in_4()
    b = mono_2_in_8()
    c = epi_4_onto_2()
    t = tensor_arrows_assoc(a, b, c)
    assert t.is_iso()
    x = box_assoc(a, b, c)
    assert x.is_iso()
    assert x.source == pushout_product(pushout_product(a, b), c)
    assert x.target == pushout_product(a, pushout_product(b, c))


# -- cok -| ker -------------------------------------------------------


def test_unit_iso_exactly_on_monos():
    mono = mono_2_in_4()
    assert adjunction_unit(mono).is_iso()
    not_mono = Arrow(FPMap.scalar(Z4, 2))
    assert not not_mono.f.is_injective()
    assert not adjunction_unit(not_mono).is_iso()


def test_counit_iso_exactly_on_epis():
    epi = epi_4_onto_2()
    assert adjunction_counit(epi).is_iso()
    not_epi = Arrow(FPMap.scalar(Z4, 2))
    assert not adjunction_counit(not_epi).is_iso()


@pytest.mark.parametrize(
    "make",
    [mono_2_in_4, mono_2_in_8, epi_4_onto_2, lambda: Arrow(FPMap.scalar(Z8, 2))],
)
def test_triangle_identities(make):
    a = make()
    ca = cok_functor(a)
    tri1 = adjunction_counit(ca) * cok_arrow_map(adjunction_unit(a))
    assert tri1 == ArrowMap.identity(ca)
    ka = ker_functor(a)
    tri2 = ker_arrow_map_tri(a, ka)
    assert tri2 == ArrowMap.identity(ka)


def ker_arrow_map_tri(a, ka):
    from adic_smith.arrowcat import ker_arrow_map

    return ker_arrow_map(adjunction_counit(a)) * adjunction_unit(ka)


def test_cok_box_comparison_iso():
    a = mono_2_in_4()
    b = mono_2_in_8()
    cmp_ = cok_box_comparison(a, b)
    assert cmp_.is_iso()
    assert cmp_.target == tensor_arrows(cok_functor(a), cok_functor(b))


def test_ker_lax_comparison_lands_in_kernel():
    a = mono_2_in_4()
    b = Arrow(FPMap.scalar(Z4, 2))
    cmp_ = ker_lax_comparison(a, b)
    big = tensor_arrows(a, b)
    target_incl = ker_functor(big)
    # composing into the ambient tensor agrees with the left leg
    assert target_incl.f * cmp_.top == cmp_.bottom * cmp_.source.f


def test_transpose_round_trip_and_bijection():
    a = mono_2_in_4()
    b = Arrow(FPMap(Z2, Z8, [[4]]))
    ca = cok_functor(a)
    kb = ker_functor(b)
    down = all_arrow_maps(ca, b)
    up = all_arrow_maps(a, kb)
    assert len(down) == len(up)
    seen = set()
    for phi in down:
        psi = adjoint_transpose(phi, a, b)
        assert psi.source == a and psi.target == kb
        back = adjoint_transpose_back(psi, a, b)
        assert back == phi
        seen.add((psi.top, psi.bottom))
    assert len(seen) == len(down)


def test_square_count_frozen():
    a = mono_2_in_4()
    assert len(all_arrow_maps(a, a)) == 4


def test_box_functorial_on_squares():
    a = mono_2_in_4()
    b = mono_2_in_8()
    ida = ArrowMap.identity(a)
    idb = ArrowMap.identity(b)
    ab = pushout_product(a, b)
    boxed = box_arrow_maps(ida, idb, ab, ab)
    assert boxed == ArrowMap.identity(ab)
    # composition preserved on a nonidentity square
    phi = ArrowMap(a, a, FPMap.scalar(Z2, 3), FPMap.scalar(Z4, 3))
    lhs = box_arrow_maps(phi, idb, ab, ab) * box_arrow_maps(phi, idb, ab, ab)
    rhs = box_arrow_maps(phi * phi, idb * idb, ab, ab)
    assert lhs == rhs


def test_kernel_cokernel_of_squares():
    a = Arrow(FPMap.scalar(Z8, 2))
    b = Arrow(FPMap.scalar(Z8, 2))
    phi = ArrowMap(a, b, FPMap.scalar(Z8, 4), FPMap.scalar(Z8, 4))
    k, incl = phi.kernel()
    assert incl.target == a
    assert k.dom.structure() == (0, (4,))
