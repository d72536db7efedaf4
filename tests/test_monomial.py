"""Monomial towers: exponent combinatorics, frozen dimension tables,
and the single-variable cross-check against the certified PID engine."""

import pytest

from conftest import SMALL_RINGS, poly_from_coeffs
from adic_smith.monomial import (
    MonomialLocalRing,
    hilbert_graded_dims,
    minimalize,
    monomial_tower,
    parse_monomial,
    quotient_basis,
    transition_is_epi,
)
from adic_smith.tower import GradedPiece, SmithIdeal, Tower


def test_minimalize_antichain():
    assert minimalize([(2, 0), (0, 2), (2, 1)]) == [(2, 0), (0, 2)]
    assert minimalize([(1, 1), (1, 1)]) == [(1, 1)]
    assert minimalize([]) == []
    # deg-lex order: earlier variables first within a degree
    assert minimalize([(0, 2), (1, 1), (2, 0)]) == [(2, 0), (1, 1), (0, 2)]


def test_power_gens_of_maximal_ideal():
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    assert R.power_gens(0) == [(0, 0)]
    assert R.power_gens(1) == [(1, 0), (0, 1)]
    assert R.power_gens(2) == [(2, 0), (1, 1), (0, 2)]
    assert R.power_gens(3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_membership_and_unit_ideal():
    R = MonomialLocalRing("Q", 2, [(2, 0), (0, 1)])
    assert R.contains((2, 0)) and R.contains((3, 1)) and not R.contains((1, 0))
    assert not R.is_unit_ideal()
    assert MonomialLocalRing("Q", 2, [(0, 0)]).is_unit_ideal()


def test_cofinite_guard():
    R = MonomialLocalRing("Q", 2, [(1, 1)])
    assert not R.is_cofinite()
    with pytest.raises(ValueError, match="infinite-dimensional"):
        quotient_basis(R, 1)
    assert MonomialLocalRing("Q", 2, [(1, 0), (0, 1)]).is_cofinite()
    assert MonomialLocalRing("Q", 1, [(3,)]).is_cofinite()


def test_standard_monomial_bases():
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    assert quotient_basis(R, 0) == [(0, 0)]
    assert quotient_basis(R, 1) == [(0, 0), (1, 0), (0, 1)]
    assert quotient_basis(R, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    unit = MonomialLocalRing("Q", 1, [(0,)])
    assert quotient_basis(unit, 3) == []


def test_binomial_dimension_table():
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    rep = monomial_tower(R, 4)
    assert [lv["algebra_dim"] for lv in rep["levels"]] == [1, 3, 6, 10, 15]
    assert [lv["graded_dim"] for lv in rep["levels"]] == [1, 2, 3, 4, 5]
    assert [lv["ideal_dim"] for lv in rep["levels"]] == [0, 2, 5, 9, 14]
    assert all(lv["transition_epi"] for lv in rep["levels"])
    assert all(lv["retruncation_consistent"] for lv in rep["levels"])
    assert rep["ideal"] == ["x", "y"]


def test_transition_epi_is_basis_inclusion():
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    b1, b2 = quotient_basis(R, 1), quotient_basis(R, 2)
    assert transition_is_epi(b1, b2)
    assert transition_is_epi([], b1)
    # x^2 lies in I^2, so it is not in the level-1 basis and has no preimage
    assert not transition_is_epi(b1 + [(2, 0)], b1)
    assert not transition_is_epi(b2, b1)


def test_three_variable_dimensions():
    R = MonomialLocalRing("Q", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    dims = [len(quotient_basis(R, n)) for n in range(4)]
    # C(n+3, 3)
    assert dims == [1, 4, 10, 20]
    assert hilbert_graded_dims(R, 3) == [1, 3, 6, 10]


def test_mixed_degree_ideal_dims():
    R = MonomialLocalRing("Q", 2, [(2, 0), (0, 1)])
    rep = monomial_tower(R, 2)
    # A/I has basis 1, x; generally dim A/I^{n+1} = (n+1)(n+2)
    assert rep["levels"][0]["algebra_dim"] == 2
    assert rep["levels"][0]["basis"] == ["1", "x"]
    assert [lv["algebra_dim"] for lv in rep["levels"]] == [2, 6, 12]
    assert [lv["graded_dim"] for lv in rep["levels"]] == [2, 4, 6]


@pytest.mark.parametrize("ring_key,label", [("Qx", "Q"), ("F2x", "F2")])
@pytest.mark.parametrize("power", [1, 2])
def test_single_variable_matches_pid_engine(ring_key, label, power):
    ring = SMALL_RINGS[ring_key]
    x_to = lambda k: poly_from_coeffs(ring, [0] * k + [1])
    pid = SmithIdeal(ring, [x_to(power)])
    mono = MonomialLocalRing(label, 1, [(power,)], names=("x",))
    N = 8 if power == 1 else 4
    tower = Tower(pid, N)
    rep = monomial_tower(mono, N)
    for n in range(N + 1):
        lv = tower.levels[n]
        mlv = rep["levels"][n]
        assert lv.arrow.cod.dim_over_field() == mlv["algebra_dim"], n
        assert lv.arrow.dom.dim_over_field() == mlv["ideal_dim"], n
        assert GradedPiece(tower, n).module.dim_over_field() == mlv["graded_dim"], n


def test_parse_and_format_round_trip():
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    names = R.names
    assert parse_monomial("x^2*y", names) == (2, 1)
    assert parse_monomial("1", names) == (0, 0)
    assert parse_monomial("y*y*x", names) == (1, 2)
    for m in [(0, 0), (1, 0), (2, 3), (0, 5)]:
        assert parse_monomial(R.format_monomial(m), names) == m
    with pytest.raises(ValueError, match="unknown variable"):
        parse_monomial("z", names)
    with pytest.raises(ValueError, match="bad exponent"):
        parse_monomial("x^q", names)


def test_input_validation():
    with pytest.raises(ValueError, match="at least one variable"):
        MonomialLocalRing("Q", 0, [])
    with pytest.raises(ValueError, match="bad exponent vector"):
        MonomialLocalRing("Q", 2, [(1,)])
    with pytest.raises(ValueError, match="bad exponent vector"):
        MonomialLocalRing("Q", 2, [(-1, 0)])
    with pytest.raises(ValueError, match="level"):
        quotient_basis(MonomialLocalRing("Q", 1, [(1,)]), -1)
