"""Truncation towers, graded pieces, completeness, and comparisons.

Frozen values below were computed independently from the closed forms
for principal ideals in Z and k[x]: truncating (p) at level n gives
(p)/(p^{n+1}) inside Z/p^{n+1}, so the two components are Z/p^n and
Z/p^{n+1} and every graded piece is Z/p; likewise with x for k[x].
"""

import pytest

from conftest import SMALL_RINGS, ZZ, poly_from_coeffs
from adic_smith.fpmod import FPMap, FPModule, are_isomorphic
from adic_smith.arrowcat import ArrowMap
from adic_smith.tower import (
    ModuleTower,
    SmithIdeal,
    Tower,
    check_analytic_equivalence,
    check_complete,
    check_module_complete,
    graded_piece,
    ker_tower_kernel_is_shifted_embed,
    localization_to_truncation,
    truncate,
    truncated_ideal,
    truncation_composition,
    yekutieli_compare,
)

F2X = SMALL_RINGS["F2x"]
QX = SMALL_RINGS["Qx"]


def x_pow(ring, n):
    return poly_from_coeffs(ring, [0] * n + [1])


# -- ideal construction -----------------------------------------------


def test_ideal_basics():
    I = SmithIdeal(ZZ, [2])
    assert I.j.is_mono()
    assert I.gens == (2,)
    assert len(I.power_products(3)) == 1 and I.power_products(3)[0] == 8
    assert not I.power_vanishes(4)
    assert I.ambient_relation() is None


def test_generators_stored_reduced():
    I = SmithIdeal(ZZ, [10], ambient_modulus=8)
    assert I.gens == (2,)
    assert I.ambient_relation() == 8
    neg = Tower(SmithIdeal(ZZ, [-2]), 2)
    assert neg.level(1).arrow.cod.invariant_factors() == [4]


def test_two_nilpotence_predicates_differ():
    I = SmithIdeal(ZZ, [2], ambient_modulus=8)
    assert I.power_vanishes(3)
    assert not I.is_nilpotent(3)
    free = SmithIdeal(ZZ, [2])
    assert not free.power_vanishes(3)
    assert not free.is_nilpotent(3)


def test_unit_and_zero_ideal_edges():
    unit = Tower(SmithIdeal(ZZ, [1]), 2)
    assert unit.level(2).arrow.cod.is_zero_module()
    assert all(unit.transitions_epi.values())
    zero = Tower(SmithIdeal(ZZ, []), 2)
    assert zero.level(1).arrow.dom.is_zero_module()
    assert zero.level(1).arrow.cod.structure() == (1, ())
    assert all(zero.transitions_epi.values())


# -- power_map_vanishes against the tensor-power reference ------------

# Every ideal this file builds towers of, plus three with several generators.
CORPUS = [
    (ZZ, [2], None),
    (ZZ, [10], 8),
    (ZZ, [-2], None),
    (ZZ, [2], 8),
    (ZZ, [1], None),
    (ZZ, [], None),
    (ZZ, [3], None),
    (ZZ, [5], None),
    (ZZ, [4], None),
    (ZZ, [3], 27),
    (ZZ, [4, 6], None),
    (ZZ, [6, 10, 15], None),
    (ZZ, [6, 10, 15, 4], None),
    (F2X, [x_pow(F2X, 1)], None),
    (QX, [x_pow(QX, 1)], None),
]


@pytest.mark.parametrize("ring,gens,amb", CORPUS)
def test_power_map_vanishes_matches_mu_reference(ring, gens, amb):
    I = SmithIdeal(ring, gens, ambient_modulus=amb)
    for n in range(4):
        lv = truncate(I, n)
        assert lv.power_map_vanishes == (lv.loc.top * I.mu(n + 1)).is_zero_map(), n


def test_towers_and_graded_pieces_never_build_tensor_powers(monkeypatch):
    """Tower and GradedPiece stay off mu_n: on four generators the
    4^(n+1)-generator tensor power at these levels does not fit in memory."""

    def refuse(self, n):
        raise AssertionError("mu called")

    monkeypatch.setattr(SmithIdeal, "mu", refuse)
    # (6, 10, 15, 4) is the unit ideal: every level is zero.
    tw = Tower(SmithIdeal(ZZ, [6, 10, 15, 4]), 6)
    for d in tw.describe():
        assert d["invariant_factors_ideal"] == [] and d["invariant_factors_algebra"] == []
        assert d["power_map_vanishes"] and d.get("transition_epi", True)
    # (12, 20, 30, 8) = (2): I^5/I^6 = (32)/(64) is Z/2.
    g = graded_piece(SmithIdeal(ZZ, [12, 20, 30, 8]), 5)
    assert g.module.invariant_factors() == [2]
    assert g.comparison_is_iso and g.ses_exact and g.kernel_matches_graded


# -- towers -----------------------------------------------------------


def test_tower_of_two_in_z_frozen():
    tw = Tower(SmithIdeal(ZZ, [2]), 3)
    assert tw.describe() == [
        {
            "level": 0,
            "invariant_factors_ideal": [],
            "invariant_factors_algebra": ["2"],
            "power_map_vanishes": True,
        },
        {
            "level": 1,
            "invariant_factors_ideal": ["2"],
            "invariant_factors_algebra": ["4"],
            "power_map_vanishes": True,
            "transition_epi": True,
        },
        {
            "level": 2,
            "invariant_factors_ideal": ["4"],
            "invariant_factors_algebra": ["8"],
            "power_map_vanishes": True,
            "transition_epi": True,
        },
        {
            "level": 3,
            "invariant_factors_ideal": ["8"],
            "invariant_factors_algebra": ["16"],
            "power_map_vanishes": True,
            "transition_epi": True,
        },
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_towers_bottom_values(p):
    tw = Tower(SmithIdeal(ZZ, [p]), 4)
    for n in range(5):
        lv = tw.level(n)
        assert lv.arrow.cod.invariant_factors() == [p ** (n + 1)]
        assert lv.arrow.dom.invariant_factors() == ([p**n] if n else [])
        assert lv.power_map_vanishes
    assert all(tw.transitions_epi.values())


@pytest.mark.parametrize("ring_key", ["F2x", "Qx"])
def test_variable_ideal_towers(ring_key):
    ring = SMALL_RINGS[ring_key]
    tw = Tower(SmithIdeal(ring, [x_pow(ring, 1)]), 3)
    for n in range(4):
        lv = tw.level(n)
        assert lv.arrow.cod.invariant_factors() == [x_pow(ring, n + 1)]
        assert lv.arrow.dom.invariant_factors() == ([x_pow(ring, n)] if n else [])
    assert all(tw.transitions_epi.values())


def test_tower_stabilizes_under_ambient_relation():
    tw = Tower(SmithIdeal(ZZ, [2], ambient_modulus=8), 3)
    d = tw.describe()
    # once I^{n+1} = 0 the levels repeat
    assert d[2]["invariant_factors_algebra"] == ["8"]
    assert d[3]["invariant_factors_algebra"] == ["8"]
    assert d[3]["invariant_factors_ideal"] == ["4"]


def test_localization_commutes_by_construction():
    I = SmithIdeal(ZZ, [3])
    tw = Tower(I, 2)
    for n in range(3):
        loc = tw.level(n).loc
        assert loc.source == I.j
        assert loc.bottom.is_surjective()


# -- graded pieces ----------------------------------------------------


def test_graded_pieces_of_two_in_z():
    I = SmithIdeal(ZZ, [2])
    for n in range(4):
        g = graded_piece(I, n)
        assert g.module.invariant_factors() == [2]
        assert g.comparison_is_iso
        assert g.ses_exact
        assert g.kernel_matches_graded
        assert g.kernel_shape == ("identity_embed" if n else "shifted_embed")


def test_graded_pieces_over_polynomials():
    I = SmithIdeal(F2X, [x_pow(F2X, 1)])
    g = graded_piece(I, 2)
    assert g.module.dim_over_field() == 1
    assert g.comparison_is_iso and g.ses_exact and g.kernel_matches_graded


def test_graded_piece_with_ambient_relation():
    I = SmithIdeal(ZZ, [2], ambient_modulus=8)
    g = graded_piece(I, 1)
    assert g.module.invariant_factors() == [2]
    assert g.ses_exact and g.comparison_is_iso
    # above the vanishing degree the graded piece is zero
    g3 = graded_piece(I, 3)
    assert g3.module.is_zero_module()


def test_kernel_after_ker_functor_is_shifted():
    I = SmithIdeal(ZZ, [2])
    assert ker_tower_kernel_is_shifted_embed(I, 1)
    assert ker_tower_kernel_is_shifted_embed(I, 2)


# -- completeness and idempotence -------------------------------------


def test_check_complete_small():
    assert check_complete(SmithIdeal(ZZ, [2]), 4).ok
    assert check_complete(SmithIdeal(F2X, [x_pow(F2X, 1)]), 3).ok
    v = check_complete(SmithIdeal(ZZ, [3], ambient_modulus=27), 3)
    assert v.ok and v.first_failure is None
    assert [e["level"] for e in v.entries] == [0, 1, 2, 3]


def test_truncated_ideal_round_trip():
    I = SmithIdeal(ZZ, [2])
    T = truncated_ideal(I, 3)
    assert T.ambient_relation() == 16
    loc = localization_to_truncation(I, T)
    assert loc.bottom.is_surjective()


def test_truncation_composition_is_min():
    I = SmithIdeal(ZZ, [2])
    for m in range(4):
        for n in range(4):
            _, iso = truncation_composition(I, m, n)
            assert iso, (m, n)


def test_truncation_composition_polynomial():
    I = SmithIdeal(F2X, [x_pow(F2X, 1)])
    for m, n in [(1, 3), (3, 1), (2, 2)]:
        assert truncation_composition(I, m, n)[1]


# -- analytic equivalence ---------------------------------------------


def make_square(src, dst, top, bottom):
    return ArrowMap(
        src.j,
        dst.j,
        FPMap(src.I, dst.I, [[top]]),
        FPMap(src.ambient, dst.ambient, [[bottom]]),
    )


def test_analytic_equivalence_of_equal_ideals():
    A = SmithIdeal(ZZ, [2])
    B = SmithIdeal(ZZ, [2])
    v = check_analytic_equivalence(A, B, make_square(A, B, 1, 1), 3)
    assert v.ok and v.first_failure is None


def test_analytic_negative_control_frozen():
    J4 = SmithIdeal(ZZ, [4])
    J2 = SmithIdeal(ZZ, [2])
    v = check_analytic_equivalence(J4, J2, make_square(J4, J2, 2, 1), 2)
    d = v.describe()
    assert not d["ok"]
    assert d["first_failure"] == 0
    assert d["levels"][0]["obstruction"]["algebra_source"] == ["4"]
    assert d["levels"][0]["obstruction"]["algebra_target"] == ["2"]
    assert d["levels"][1]["obstruction"]["ideal_source"] == ["4"]
    assert d["levels"][1]["obstruction"]["ideal_target"] == ["2"]


def test_analytic_descent_failure_reported():
    J2 = SmithIdeal(ZZ, [2])
    J4 = SmithIdeal(ZZ, [4])
    # bottom x -> 2x carries (2) into (4) but not (4) into (16)
    v = check_analytic_equivalence(J2, J4, make_square(J2, J4, 1, 2), 2)
    assert not v.ok
    assert "descent" in v.entries[1]["obstruction"]


# -- module towers ----------------------------------------------------


def test_module_tower_frozen():
    I = SmithIdeal(ZZ, [2])
    mt = ModuleTower(I, FPModule.cyclic(ZZ, 6), 3)
    d = mt.describe()
    assert [e["invariant_factors_algebra"] for e in d] == [["2"]] * 4
    assert [e["invariant_factors_ideal"] for e in d] == [[], ["2"], ["2"], ["2"]]
    assert all(e.get("transition_epi", True) for e in d)


def test_module_tower_free_module():
    I = SmithIdeal(ZZ, [3])
    mt = ModuleTower(I, FPModule.free(ZZ, 2), 2)
    lv = mt.levels[2]
    assert lv.cod.structure() == (0, (27, 27))


def test_check_module_complete():
    I = SmithIdeal(ZZ, [2])
    assert check_module_complete(I, FPModule.cyclic(ZZ, 6), 3).ok
    assert check_module_complete(I, FPModule.free(ZZ, 1), 2).ok


# -- yekutieli routes -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_yekutieli_routes_integer(n):
    I = SmithIdeal(ZZ, [2])
    out = yekutieli_compare(I, n, 4)
    assert out["map_image_to_power_iso"]
    assert out["map_power_to_limit_iso"]
    assert out["composite_iso"]
    for r in out["routes"].values():
        assert r["size"] == 2 ** (5 - n)


def test_yekutieli_routes_polynomial():
    I = SmithIdeal(F2X, [x_pow(F2X, 1)])
    out = yekutieli_compare(I, 2, 3)
    assert out["composite_iso"]
    assert all(r["dim_over_coefficients"] == 2 for r in out["routes"].values())


def test_yekutieli_rejects_bad_range():
    I = SmithIdeal(ZZ, [2])
    with pytest.raises(ValueError, match="1 <= n <= N"):
        yekutieli_compare(I, 0, 3)
    with pytest.raises(ValueError, match="1 <= n <= N"):
        yekutieli_compare(I, 4, 3)
