"""Monomial towers: exponent combinatorics, frozen dimension tables,
the single-variable cross-check against the certified PID engine, and
the order-function walk against the box enumeration it replaced."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SMALL_RINGS, poly_from_coeffs
from adic_smith import monomial
from adic_smith.monomial import (
    MonomialLocalRing,
    TowerTooLarge,
    minimalize,
    monomial_tower,
    parse_monomial,
    transition_is_epi,
)
from adic_smith.tower import GradedPiece, SmithIdeal, Tower


def test_minimalize_antichain():
    assert minimalize([(2, 0), (0, 2), (2, 1)]) == [(2, 0), (0, 2)]
    assert minimalize([(1, 1), (1, 1)]) == [(1, 1)]
    assert minimalize([]) == []
    # deg-lex order: earlier variables first within a degree
    assert minimalize([(0, 2), (1, 1), (2, 0)]) == [(2, 0), (1, 1), (0, 2)]


def power_gens(R, n):
    """Minimal generators of I^n, by n products with I; I^0 is (1)."""
    p = [(0,) * R.r]
    for _ in range(n):
        p = R.times_ideal(p)
    return p


def basis(R, n):
    """The standard monomials of A/I^{n+1}, read off the tower report."""
    return [parse_monomial(m, R.names) for m in monomial_tower(R, n)["levels"][n]["basis"]]


def test_power_gens_of_maximal_ideal():
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    assert power_gens(R, 0) == [(0, 0)]
    assert power_gens(R, 1) == [(1, 0), (0, 1)]
    assert power_gens(R, 2) == [(2, 0), (1, 1), (0, 2)]
    assert power_gens(R, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_membership_and_unit_ideal():
    R = MonomialLocalRing("Q", 2, [(2, 0), (0, 1)])
    # x lies outside I, so it stays in the basis of A/I; x^2 and y lie in I
    assert basis(R, 0) == [(0, 0), (1, 0)]
    assert not R.is_unit_ideal()
    assert MonomialLocalRing("Q", 2, [(0, 0)]).is_unit_ideal()


def test_cofinite_guard():
    R = MonomialLocalRing("Q", 2, [(1, 1)])
    assert not R.is_cofinite()
    with pytest.raises(ValueError, match="infinite-dimensional"):
        monomial_tower(R, 1)
    assert MonomialLocalRing("Q", 2, [(1, 0), (0, 1)]).is_cofinite()
    assert MonomialLocalRing("Q", 1, [(3,)]).is_cofinite()


def test_standard_monomial_bases():
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    assert basis(R, 0) == [(0, 0)]
    assert basis(R, 1) == [(0, 0), (1, 0), (0, 1)]
    assert basis(R, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    unit = MonomialLocalRing("Q", 1, [(0,)])
    assert basis(unit, 3) == []


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
    b1, b2 = basis(R, 1), basis(R, 2)
    assert transition_is_epi(b1, b2)
    assert transition_is_epi([], b1)
    # x^2 lies in I^2, so it is not in the level-1 basis and has no preimage
    assert not transition_is_epi(b1 + [(2, 0)], b1)
    assert not transition_is_epi(b2, b1)


def test_three_variable_dimensions():
    R = MonomialLocalRing("Q", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    levels = monomial_tower(R, 3)["levels"]
    # C(n+3, 3)
    assert [lv["algebra_dim"] for lv in levels] == [1, 4, 10, 20]
    assert [lv["graded_dim"] for lv in levels] == [1, 3, 6, 10]


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
    with pytest.raises(ValueError, match="tower bound"):
        monomial_tower(MonomialLocalRing("Q", 1, [(1,)]), -1)


# -- the walk against the box enumeration -----------------------------
#
# A self-contained copy of the engine before the order-function walk:
# every level enumerates the box below the pure powers of I^{n+1} and
# tests each monomial against every minimal generator.


def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ref_deglex(m):
    return (sum(m), tuple(-e for e in m))


def _ref_minimalize(gens):
    out = []
    for g in sorted(set(gens), key=_ref_deglex):
        if not any(_ref_divides(h, g) for h in out):
            out.append(g)
    return out


def _ref_power_gens(r, gens, n):
    if n == 0:
        return [(0,) * r]
    return _ref_minimalize(
        tuple(sum(gens[t][i] for t in combo) for i in range(r))
        for combo in combinations_with_replacement(range(len(gens)), n)
    )


def _ref_format(names, m):
    if sum(m) == 0:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, m) if e)


def _ref_quotient_basis(r, gens, n):
    pgens = _ref_power_gens(r, gens, n + 1)
    if any(sum(g) == 0 for g in pgens):
        return []
    caps = []
    for i in range(r):
        pure = [g[i] for g in pgens if g[i] > 0 and all(g[j] == 0 for j in range(r) if j != i)]
        if not pure:
            raise ValueError("quotient is infinite-dimensional: no pure power of variable %d" % (i + 1))
        caps.append(min(pure))
    out = [m for m in product(*[range(c) for c in caps]) if not any(_ref_divides(g, m) for g in pgens)]
    return sorted(out, key=_ref_deglex)


def _ref_hilbert(r, gens, N):
    dims = []
    for n in range(N + 1):
        lower = _ref_power_gens(r, gens, n)
        dims.append(sum(1 for m in _ref_quotient_basis(r, gens, n) if any(_ref_divides(g, m) for g in lower)))
    return dims


def _ref_tower(r, gens, names, N):
    graded = _ref_hilbert(r, gens, N)
    cap = _ref_power_gens(r, gens, N + 1)
    levels, lower = [], []
    for n in range(N + 1):
        basis = _ref_quotient_basis(r, gens, n)
        upper = _ref_power_gens(r, gens, n + 1)
        levels.append({
            "level": n,
            "algebra_dim": len(basis),
            "ideal_dim": sum(1 for m in basis if any(_ref_divides(g, m) for g in gens)),
            "graded_dim": graded[n],
            "basis": [_ref_format(names, m) for m in basis],
            "transition_epi": set(lower) <= set(basis),
            "retruncation_consistent": _ref_minimalize(upper + cap) == upper,
        })
        lower = basis
    return {"engine": "monomial", "variables": list(names), "ideal": [_ref_format(names, g) for g in gens],
            "levels": levels}


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except ValueError as e:
        return "error", str(e)


@st.composite
def small_ideals(draw):
    """1-3 variables, a few random generators, a pure power of each
    variable or not, and now and then the unit ideal."""
    r = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * r), max_size=4))
    caps = draw(st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=r, max_size=r))
    gens += [tuple(c if j == i else 0 for j in range(r)) for i, c in enumerate(caps) if c is not None]
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * r)
    return r, gens, draw(st.integers(0, 4))


@settings(max_examples=150, deadline=None)
@given(small_ideals())
def test_order_walk_matches_box_enumeration(case):
    r, raw, N = case
    R = MonomialLocalRing("F2", r, raw)
    gens = _ref_minimalize(raw)
    assert list(R.gens) == gens
    assert [power_gens(R, n) for n in range(N + 2)] == [_ref_power_gens(r, gens, n) for n in range(N + 2)]
    # the reference tower lists the box enumeration's bases and graded
    # dimensions, and its errors, level by level
    assert _outcome(monomial_tower, R, N) == _outcome(_ref_tower, r, gens, R.names, N)


def test_budget_counts_levels_and_listed_monomials(monkeypatch):
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    # N = 4: 5 levels listing 1 + 3 + 6 + 10 + 15 basis monomials
    monkeypatch.setattr(monomial, "MONOMIAL_BUDGET", 40)
    assert len(monomial_tower(R, 4)["levels"]) == 5
    monkeypatch.setattr(monomial, "MONOMIAL_BUDGET", 39)
    with pytest.raises(TowerTooLarge, match="more than 39 entries"):
        monomial_tower(R, 4)
    with pytest.raises(TowerTooLarge):
        monomial_tower(MonomialLocalRing("Q", 1, [(0,)]), 39)
    assert issubclass(TowerTooLarge, ValueError)


def test_work_budget_counts_rejected_tests_and_products(monkeypatch):
    R = MonomialLocalRing("Q", 2, [(1, 0), (0, 1)])
    # N = 1: the walk tests the monomial 1 against no generator,
    # 2 of degree 1 and the 3 rejected ones of degree 2 against both
    # (10 tests); the links form I from 1 and I^2 from I (2 + 4 products).
    monkeypatch.setattr(monomial, "MONOMIAL_WORK", 16)
    assert len(monomial_tower(R, 1)["levels"]) == 2
    monkeypatch.setattr(monomial, "MONOMIAL_WORK", 15)
    with pytest.raises(TowerTooLarge, match="more than 15 monomial tests and products"):
        monomial_tower(R, 1)
    # the walk alone makes 10, so it refuses at 9, before the degree-2 tests
    monkeypatch.setattr(monomial, "MONOMIAL_WORK", 9)
    with pytest.raises(TowerTooLarge):
        monomial._order_walk(R, 1)
