"""Truncation towers, graded pieces, completeness, and comparisons.

Frozen values below were computed independently from the closed forms
for principal ideals in Z and k[x]: truncating (p) at level n gives
(p)/(p^{n+1}) inside Z/p^{n+1}, so the two components are Z/p^n and
Z/p^{n+1} and every graded piece is Z/p; likewise with x for k[x].
"""

import hashlib
import json
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SMALL_RINGS, ZZ, poly_from_coeffs
from adic_smith.fpmod import FPMap, FPModule, are_isomorphic, quotient, tensor
from adic_smith.arrowcat import ArrowMap, ker_arrow_map
from adic_smith.linalg import Matrix, hstack, solve_matrix
from adic_smith.rings import GF, PolyRing, QuotientRing
from adic_smith.tower import (
    GradedPiece,
    ModuleTower,
    SmithIdeal,
    Tower,
    check_analytic_equivalence,
    check_complete,
    check_module_complete,
    localization_to_truncation,
    tower_levels,
    truncate,
    truncated_ideal,
    truncation_composition,
    yekutieli_compare,
)

F2X = SMALL_RINGS["F2x"]
QX = SMALL_RINGS["Qx"]


def x_pow(ring, n):
    return poly_from_coeffs(ring, [0] * n + [1])


def tensor_power(I, n):
    """I tensor ... tensor I, n factors."""
    T = I.I
    for _ in range(n - 1):
        T = tensor(T, I.I)
    return T


def mu(I, n):
    """The multiplication mu_n: I^(tensor n) -> I.  Tensor generator
    (t_1, ..., t_n) sits at flat index sum t_i k^(n-i), the order of
    itertools.product, and goes to the product over its sorted indices,
    whose coordinates are a column of ``product_coords(1, n)``."""
    k = len(I.gens)
    X = I.product_coords(1, n)
    col = {c: j for j, c in enumerate(combinations_with_replacement(range(k), n))}
    cols = [X.col(col[tuple(sorted(t))]) for t in product(range(k), repeat=n)]
    return FPMap(tensor_power(I, n), I.I, Matrix.from_cols(I.base, cols, k))


def power_vanishes(I, n):
    return I.power(n)[0].is_zero_module()


# -- ideal construction -----------------------------------------------


def test_ideal_basics():
    I = SmithIdeal(ZZ, [2])
    assert I.j.f.is_injective()
    assert I.gens == (2,)
    assert len(I.power_products(3)) == 1 and I.power_products(3)[0] == 8
    assert not power_vanishes(I, 4)
    assert I.ambient.rel.n == 0


def test_generators_stored_reduced():
    I = SmithIdeal(ZZ, [10], ambient_modulus=8)
    assert I.gens == (2,)
    assert I.ambient.rel.rows == ((8,),)
    neg = Tower(SmithIdeal(ZZ, [-2]), 2)
    assert neg.levels[1].arrow.cod.invariant_factors() == [4]


def test_two_nilpotence_predicates_differ():
    I = SmithIdeal(ZZ, [2], ambient_modulus=8)
    # I^3 = 0, yet mu_3 is not onto
    assert power_vanishes(I, 3)
    assert not mu(I, 3).is_surjective()
    free = SmithIdeal(ZZ, [2])
    assert not power_vanishes(free, 3)
    assert not mu(free, 3).is_surjective()


def test_unit_and_zero_ideal_edges():
    unit = Tower(SmithIdeal(ZZ, [1]), 2)
    assert unit.levels[2].arrow.cod.is_zero_module()
    assert all(unit.transitions_epi.values())
    zero = Tower(SmithIdeal(ZZ, []), 2)
    assert zero.levels[1].arrow.dom.is_zero_module()
    assert zero.levels[1].arrow.cod.structure() == (1, ())
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
        assert lv.power_map_vanishes == (lv.loc.top * mu(I, n + 1)).is_zero_map(), n


def test_towers_and_graded_pieces_never_build_tensor_powers():
    """Tower and GradedPiece stay off mu_n: on four generators the
    4^(n+1)-generator tensor power at these levels does not fit in memory."""
    # (6, 10, 15, 4) is the unit ideal: every level is zero.
    tw = Tower(SmithIdeal(ZZ, [6, 10, 15, 4]), 6)
    for d in tw.describe():
        assert d["invariant_factors_ideal"] == [] and d["invariant_factors_algebra"] == []
        assert d["power_map_vanishes"] and d.get("transition_epi", True)
    # (12, 20, 30, 8) = (2): I^5/I^6 = (32)/(64) is Z/2.
    g = GradedPiece(Tower(SmithIdeal(ZZ, [12, 20, 30, 8]), 5), 5)
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
        lv = tw.levels[n]
        assert lv.arrow.cod.invariant_factors() == [p ** (n + 1)]
        assert lv.arrow.dom.invariant_factors() == ([p**n] if n else [])
        assert lv.power_map_vanishes
    assert all(tw.transitions_epi.values())


@pytest.mark.parametrize("ring_key", ["F2x", "Qx"])
def test_variable_ideal_towers(ring_key):
    ring = SMALL_RINGS[ring_key]
    tw = Tower(SmithIdeal(ring, [x_pow(ring, 1)]), 3)
    for n in range(4):
        lv = tw.levels[n]
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
        loc = tw.levels[n].loc
        assert loc.source == I.j
        assert loc.bottom.is_surjective()


# -- graded pieces ----------------------------------------------------


def test_graded_pieces_of_two_in_z():
    tw = Tower(SmithIdeal(ZZ, [2]), 3)
    for n in range(4):
        g = GradedPiece(tw, n)
        assert g.module.invariant_factors() == [2]
        assert g.comparison_is_iso
        assert g.ses_exact
        assert g.kernel_matches_graded
        assert g.kernel_shape == ("identity_embed" if n else "shifted_embed")


def test_graded_pieces_over_polynomials():
    I = SmithIdeal(F2X, [x_pow(F2X, 1)])
    g = GradedPiece(Tower(I, 2), 2)
    assert g.module.dim_over_field() == 1
    assert g.comparison_is_iso and g.ses_exact and g.kernel_matches_graded


def test_graded_piece_with_ambient_relation():
    I = SmithIdeal(ZZ, [2], ambient_modulus=8)
    tw = Tower(I, 3)
    g = GradedPiece(tw, 1)
    assert g.module.invariant_factors() == [2]
    assert g.ses_exact and g.comparison_is_iso
    # above the vanishing degree the graded piece is zero
    g3 = GradedPiece(tw, 3)
    assert g3.module.is_zero_module()


def test_kernel_after_ker_functor_is_shifted():
    # after the kernel functor, the transition kernel is the embed
    # (0 -> graded piece)
    tw = Tower(SmithIdeal(ZZ, [2]), 2)
    for n in (1, 2):
        k, _ = ker_arrow_map(tw.transitions[n]).kernel()
        assert k.dom.is_zero_module()
        assert are_isomorphic(k.cod, GradedPiece(tw, n).module)


# -- completeness and idempotence -------------------------------------


def test_check_complete_small():
    assert check_complete(SmithIdeal(ZZ, [2]), 4).ok
    assert check_complete(SmithIdeal(F2X, [x_pow(F2X, 1)]), 3).ok
    v = check_complete(SmithIdeal(ZZ, [3], ambient_modulus=27), 3)
    assert v.ok and v.first_failure is None
    assert [e["level"] for e in v.entries] == [0, 1, 2, 3]


def test_truncated_ideal_round_trip():
    I = SmithIdeal(ZZ, [2])
    T = truncated_ideal(I, truncate(I, 3))
    assert T.ambient.rel.rows == ((16,),)
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
    assert check_module_complete(ModuleTower(I, FPModule.cyclic(ZZ, 6), 3)).ok
    assert check_module_complete(ModuleTower(I, FPModule.free(ZZ, 1), 2)).ok


# -- yekutieli routes -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_yekutieli_routes_integer(n):
    I = SmithIdeal(ZZ, [2])
    out = yekutieli_compare(I, 4)[n - 1]
    assert out["n"] == n and out["level"] == 4
    assert out["map_image_to_power_iso"]
    assert out["map_power_to_limit_iso"]
    assert out["composite_iso"]
    for r in out["routes"].values():
        assert r["size"] == 2 ** (5 - n)


def test_yekutieli_routes_polynomial():
    I = SmithIdeal(F2X, [x_pow(F2X, 1)])
    out = yekutieli_compare(I, 3)[1]
    assert out["composite_iso"]
    assert all(r["dim_over_coefficients"] == 2 for r in out["routes"].values())


def test_yekutieli_rejects_bad_range():
    I = SmithIdeal(ZZ, [2])
    with pytest.raises(ValueError, match="N >= 1"):
        yekutieli_compare(I, 0)
    with pytest.raises(ValueError, match="N >= 1"):
        yekutieli_compare(I, -1)
    assert [e["n"] for e in yekutieli_compare(I, 3)] == [1, 2, 3]


# -- closed-form product coordinates ----------------------------------


def reference_coords(I, m, prods):
    """Coordinates of ``prods`` in the m-fold generator products, from an
    SNF solve modulo the ambient relation."""
    G = Matrix(I.base, [I.power_products(m)])
    B = Matrix(I.base, [prods], shape=(1, len(prods)))
    X = solve_matrix(hstack(G, I.ambient.rel), B)
    assert X is not None
    return Matrix(I.base, X.rows[: G.n], shape=(G.n, len(prods)))


f2x_elems = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(
    lambda cs: poly_from_coeffs(F2X, cs)
)
ideal_cases = st.one_of(
    st.tuples(
        st.just(ZZ),
        st.lists(st.integers(-12, 12), min_size=1, max_size=3),
        st.sampled_from([None, 8, 12, 27]),
    ),
    st.tuples(st.just(F2X), st.lists(f2x_elems, min_size=1, max_size=3), st.just(None)),
)


@st.composite
def coords_cases(draw):
    """(ideal case, m, n) with 0 <= m <= n <= 4.  Three generators stop
    at n = 2, because building I^m runs into coefficient blow-up in the
    Hermite form of its syzygies: I^4 of (7, 10, 9) over Z does not
    finish in minutes, and I^3 of (x^2+x, x^3, x^2+1) over F_2[x] takes
    a second."""
    case = draw(ideal_cases)
    n = draw(st.integers(0, 4 if len(case[1]) <= 2 else 2))
    return case, draw(st.integers(0, n)), n


@given(coords_cases())
@settings(max_examples=100, deadline=None)
def test_product_coords_match_snf_reference(drawn):
    case, m, n = drawn
    ring, gens, amb = case
    I = SmithIdeal(ring, gens, ambient_modulus=amb)
    Im, _ = I.power(m)
    X_ref = reference_coords(I, m, I.power_products(n))
    assert quotient(Im, I.product_coords(m, n))[0] == quotient(Im, X_ref)[0]
    k = len(I.gens)
    if n >= 1 and k**n <= 27:
        ordered = []
        for t in product(I.gens, repeat=n):
            p = I.base.one
            for g in t:
                p = I.base.mul(p, g)
            ordered.append(p)
        mu_ref = FPMap(tensor_power(I, n), I.I, reference_coords(I, 1, ordered))
        assert mu(I, n).mat == mu_ref.mat


def test_product_coords_range():
    I = SmithIdeal(ZZ, [4, 6])
    with pytest.raises(ValueError):
        I.product_coords(2, 1)
    with pytest.raises(ValueError):
        I.product_coords(-1, 1)
    with pytest.raises(ValueError):
        truncate(I, -1)
    with pytest.raises(ValueError):
        truncated_ideal(I, truncate(I, -1))
    with pytest.raises(ValueError):
        tower_levels(I, -1)


# -- carried generator products against the from-scratch reference ---

F3Q = QuotientRing(PolyRing(GF(3), "x"), x_pow(PolyRing(GF(3), "x"), 4))


def scratch_product(I, combo):
    """The reduced product over ``combo``, multiplied out from 1."""
    p = I.base.one
    for t in combo:
        p = I.base.mul(p, I.gens[t])
    return I.ambient.reduce_vec([p])[0]


def _poly(ring, coeffs):
    return ring.coerce_payload(tuple(coeffs))


_small_int = st.integers(-12, 12)
_f2_poly = st.lists(st.integers(0, 1), max_size=4).map(lambda cs: _poly(F2X, cs))
_f3_poly = st.lists(st.integers(0, 2), max_size=4).map(lambda cs: _poly(F3Q.base, cs))
_q_coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_q_poly = st.lists(_q_coeff, max_size=3).map(lambda cs: _poly(QX, cs))
# (algebra, generator strategy, ambient moduli to draw from)
PRODUCT_RINGS = [
    (ZZ, _small_int, [None, 8, 12, 27]),
    (QuotientRing(ZZ, 72), _small_int, [None, 12, 5]),
    (F2X, _f2_poly, [None, _poly(F2X, [0, 1, 1, 1]), x_pow(F2X, 5)]),
    (F3Q, _f3_poly, [None, _poly(F3Q.base, [0, 0, 1]), _poly(F3Q.base, [1, 1])]),
    (QX, _q_poly, [None, _poly(QX, [Fraction(1, 3), 0, Fraction(-2, 5), 1])]),
]


@st.composite
def carried_cases(draw):
    """(ideal, m, n) with 1-4 generators and 0 <= m <= n <= 6."""
    ring, elems, moduli = draw(st.sampled_from(PRODUCT_RINGS))
    gens = draw(st.lists(elems, min_size=1, max_size=4))
    n = draw(st.integers(0, 6))
    return SmithIdeal(ring, gens, ambient_modulus=draw(st.sampled_from(moduli))), draw(st.integers(0, n)), n


@given(carried_cases())
@settings(max_examples=150, deadline=None)
def test_carried_products_match_scratch_products(drawn):
    """Products carried up from degree n-1 equal products multiplied out
    from 1, in the order of the sorted index multisets, whichever degree
    is asked for first."""
    I, m, n = drawn
    k = len(I.gens)
    X = I.product_coords(m, n)
    row = {c: i for i, c in enumerate(combinations_with_replacement(range(k), m))}
    combos = list(combinations_with_replacement(range(k), n))
    ref = [[I.base.zero] * len(combos) for _ in row]
    for j, c in enumerate(combos):
        ref[row[c[:m]]][j] = scratch_product(I, c[m:])
    assert X.rows == tuple(map(tuple, ref))
    for d in range(n + 1):
        expected = [scratch_product(I, c) for c in combinations_with_replacement(range(k), d)]
        assert I.power_products(d) == expected, d


def test_graded_rels_of_unit_ideals_frozen():
    """(6, 10, 15, 4) over Z and (x^2+x, x^3, x^2+1) over F_2[x] are unit
    ideals: every I^n/I^{n+1} is zero on its C(n+k-1, n) generators."""
    for I, top in (
        (SmithIdeal(ZZ, [6, 10, 15, 4]), 6),
        (SmithIdeal(F2X, [F2X.parse(g) for g in ("x^2+x", "x^3", "x^2+1")]), 2),
    ):
        tw = Tower(I, top)
        for n in range(top + 1):
            rel = GradedPiece(tw, n).module.rel
            assert rel == Matrix.identity(I.base, len(I.power_products(n))), n


# md5 of repr(rel.rows) of GradedPiece(Tower(I, N), n).module, n = 0, 1, ...,
# frozen before the closed-form coordinates replaced the SNF solve.
FROZEN_GRADED_RELS = [
    ((ZZ, [12, 20, 30, 8], None), [
        "c540d446083377cd19bbd65cd2800318",
        "c2eda921b0531c5af29a66bf1e2c0ced",
        "772485a36c50fc654d07e2c7c9ce0c99",
        "5dbcf5da9c82593e32bf027e182d5534",
        "680296a4e12ec7852c8de0795dfc6960",
        "c792b39a9d4e099eb4076d7accf1c6ad",
    ]),
    ((ZZ, [3, 6], 27), [
        "30ec29213690f5ab5e33caa64d9149b9",
        "446b261c33f077bf316dee58763d341b",
        "cef1c408fe8c3c1958b6d6f62dcac4dd",
        "708132f9136d27c5d18447b1c9fdd96a",
        "0fc1e030cb6c9824cbadfdd5bc6789ce",
    ]),
    ((F2X, ["x^2+x", "x^3"], None), [
        "6a15d043330e81dc8e95b1bfcec78982",
        "5fdebb7de0e0d617a60f845ce7ae0269",
        "db66efcbe78d21f0c9a3fdee85e3bf06",
        "d0d4833a05acf4189398c44d486bad8a",
    ]),
]


@pytest.mark.parametrize("spec,digests", FROZEN_GRADED_RELS, ids=["z2w", "z3-mod27", "f2x"])
def test_graded_rels_frozen(spec, digests):
    ring, gens, amb = spec
    gens = [ring.parse(g) if isinstance(g, str) else g for g in gens]
    tw = Tower(SmithIdeal(ring, gens, ambient_modulus=amb), len(digests) - 1)
    for n, digest in enumerate(digests):
        rel = GradedPiece(tw, n).module.rel
        assert hashlib.md5(repr(rel.rows).encode()).hexdigest() == digest, n


# md5 of the formatted relations of SmithIdeal.power(n)[0] (the syzygy
# lattice of the n-fold generator products, in Hermite form), n = 0, 1, ...,
# frozen before polynomial arithmetic moved to native accumulation.  The
# two Z ideals share their digests: (12, 20, 30, 8) is 2 (6, 10, 15, 4),
# and scaling a row does not change its syzygies.
Z4_POWER_RELS = [
    "c676ed1d3bec334e54b7133560eb6275",
    "6cbd37fb301e6c785758f0c5ff72fc4f",
    "b57d2394151322a8c2665f7bbbee18d7",
    "b0d384c5d2a782479138c5cb4641cdd0",
    "80b7e7d45d48d965bb3d43dc5b218480",
    "20b0f44c180a69f5b4606fcc4b2b3e37",
    "d637f24361f3f2c9ad388705568e384c",
    "418bb0e6ba8fb75cea824c99ae67aa0e",
]
FROZEN_POWER_RELS = [
    ((ZZ, [6, 10, 15, 4]), Z4_POWER_RELS),
    ((ZZ, [12, 20, 30, 8]), Z4_POWER_RELS),
    ((ZZ, [7, 10, 9]), [
        "c676ed1d3bec334e54b7133560eb6275",
        "96c4803ee98432ecc938b055a0cab1b3",
        "96276d03fdbadc135a6cb2273a858784",
        "c9dc8039666104650fb3d04a21822ea8",
    ]),
    ((F2X, ["x^2+x", "x^3", "x^2+1"]), [
        "c676ed1d3bec334e54b7133560eb6275",
        "a246d1ebc794fc7047d1dc4b79336bb9",
        "6b1e9cfd36bb71268256353c90d4f8d9",
        "288d328a8a6da1437651d35a0fdf90aa",
    ]),
    ((QX, ["x^2-1", "x^3-x", "x^2+x"]), [
        "c676ed1d3bec334e54b7133560eb6275",
        "d07ea155789be21153968b2aaa962247",
        "9b133e0a918148c13ba91886246e1bcd",
        "eb3f07174dd14477563414e9cb974de9",
        "cabebae1148a3d6da3b116c8e4ce9f41",
        "a5e8b2bf59dcfa6c472d356606f02bc3",
        "181452f0fa7ee79a68efe25396c86355",
    ]),
]


@pytest.mark.parametrize("spec,digests", FROZEN_POWER_RELS, ids=["z4", "z2w", "z3", "f2x", "qx"])
def test_power_rels_frozen(spec, digests):
    ring, gens = spec
    I = SmithIdeal(ring, [ring.parse(g) if isinstance(g, str) else g for g in gens])
    for n, digest in enumerate(digests):
        rel = I.power(n)[0].rel
        text = json.dumps([[ring.format_elem(x) for x in r] for r in rel.rows])
        assert hashlib.md5(text.encode()).hexdigest() == digest, n
