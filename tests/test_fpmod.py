"""Finitely presented modules against brute-force set-level oracles.

Every structural operation (kernel, image, cokernel, tensor, hom,
pushout) is rechecked on small finite modules by enumerating
elements and comparing raw sets, plus frozen gcd/lcm closed forms for
cyclic modules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_RINGS, ZZ, poly_from_coeffs
from adic_smith import fpmod, linalg
from adic_smith.linalg import Matrix, column_hermite, kernel_basis, matvec, solve_linear
from adic_smith.linalg import smith_normal_form as linalg_smith
from adic_smith.fpmod import (
    FPMap,
    FPModule,
    HomModule,
    are_isomorphic,
    base_change,
    factor_through,
    is_exact_pair,
    pushout,
    quotient,
    submodule,
    tensor,
    tensor_map,
    tensor_swap,
)
from adic_smith.rings import GF, PolyRing, QuotientRing

F2X = SMALL_RINGS["F2x"]


def x_pow(n):
    return poly_from_coeffs(F2X, [0] * n + [1])


def add_vec(M, v, w):
    return M.reduce_vec([M.base.add(a, b) for a, b in zip(v, w)])


def image_set(f):
    return {f(v) for v in f.src.elements()}


def kernel_set(f):
    zero = tuple([f.dst.base.zero] * f.dst.ngens)
    return {f.src.reduce_vec(v) for v in f.src.elements() if f(v) == zero}


# -- presentations and invariants -------------------------------------


def test_cyclic_invariants():
    assert FPModule.cyclic(ZZ, 12).invariant_factors() == [12]
    assert FPModule.cyclic(ZZ, 1).is_zero_module()
    assert FPModule.cyclic(ZZ, 0).structure() == (1, ())
    assert FPModule.free(ZZ, 3).structure() == (3, ())
    assert FPModule.zero(ZZ).is_zero_module()


def test_diagonal_presentation_invariants():
    M = FPModule(ZZ, 2, [[4, 0], [0, 6]])
    assert M.invariant_factors() == [2, 12]
    assert M.element_count() == 24
    assert len(M.elements()) == 24


def test_invariant_factors_chain():
    M = FPModule(ZZ, 3, [[2, 0, 0], [0, 6, 0], [0, 0, 15]])
    f = M.invariant_factors()
    for a, b in zip(f, f[1:]):
        assert b % a == 0


def test_presentation_canonical_under_redundancy():
    # same lattice, different generating columns
    A = FPModule(ZZ, 2, [[2, 0], [0, 3]])
    B = FPModule(ZZ, 2, [[2, 0], [0, 3], [2, 3], [4, 6], [0, 0]])
    assert A == B
    assert hash(A) == hash(B)


def test_reduce_vec_is_canonical():
    M = FPModule(ZZ, 2, [[4, 0], [2, 6]])
    for v in M.elements():
        assert M.reduce_vec(v) == v
        for j in range(M.rel.n):
            shifted = [a + b for a, b in zip(v, M.rel.col(j))]
            assert M.reduce_vec(shifted) == v


def test_polynomial_module_dimension():
    M = FPModule.cyclic(F2X, x_pow(3))
    assert M.dim_over_field() == 3
    assert M.element_count() == 8
    N = FPModule(F2X, 2, [[x_pow(2), F2X.zero], [F2X.zero, x_pow(1)]])
    assert N.dim_over_field() == 3


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), max_size=4),
)
def test_presentation_order_irrelevant(g, cols):
    cols = [c[:g] for c in cols]
    M = FPModule(ZZ, g, cols)
    N = FPModule(ZZ, g, list(reversed(cols)) + [[0] * g])
    assert M == N
    assert M.structure() == N.structure()


# -- Hermite answers against a Smith reference ------------------------

HERMITE_BASES = {"ZZ": ZZ, "F2x": F2X, "Qx": SMALL_RINGS["Qx"]}


def base_entries(key):
    """Canonical payloads of the base ring ``key``: small integers, or
    polynomials of degree at most 2 (Q[x] with fractional coefficients)."""
    base = HERMITE_BASES[key]
    if key == "ZZ":
        return st.integers(-6, 6)
    coeff = st.integers(0, 1) if key == "F2x" else st.fractions(-2, 2, max_denominator=3)
    return st.lists(coeff, max_size=3).map(lambda cs: base.coerce_payload(tuple(cs)))


def base_units(key):
    base = HERMITE_BASES[key]
    if key == "ZZ":
        return st.sampled_from([1, -1])
    if key == "F2x":
        return st.just(base.one)
    return st.fractions(-2, 2, max_denominator=3).filter(bool).map(lambda c: base.coerce_payload((c,)))


@st.composite
def presentations(draw):
    """(module, probe vectors): 0-4 generators over
    Z, F_2[x] or Q[x], with or without a quotient modulus, the columns
    mixing random, zero, duplicate and unit columns.  The probes are
    random vectors and R-combinations of the raw columns."""
    key = draw(st.sampled_from(sorted(HERMITE_BASES)))
    base, entry = HERMITE_BASES[key], base_entries(key)
    g = draw(st.integers(0, 4))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "duplicate", "unit"]), max_size=5)):
        if kind == "random":
            cols.append(draw(st.lists(entry, min_size=g, max_size=g)))
        elif kind == "zero" or (kind == "duplicate" and not cols) or (kind == "unit" and not g):
            cols.append([base.zero] * g)
        elif kind == "duplicate":
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            col = [base.zero] * g
            col[draw(st.integers(0, g - 1))] = draw(base_units(key))
            cols.append(col)
    modulus = draw(st.one_of(st.none(), entry.filter(lambda d: d != base.zero)))
    algebra = base if modulus is None else QuotientRing(base, modulus)
    M = FPModule(algebra, g, cols)
    raw = cols + [[modulus if i == k else base.zero for i in range(g)] for k in range(g) if modulus is not None]
    probes = draw(st.lists(st.lists(entry, min_size=g, max_size=g), max_size=3))
    for _ in range(2):
        coeffs = draw(st.lists(entry, min_size=len(raw), max_size=len(raw)))
        probes.append(matvec(Matrix.from_cols(base, raw, g), coeffs))
    return M, probes


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_hermite_answers_match_snf_reference(case):
    M, probes = case
    base, cert = M.base, M.rel_cert()
    diag = cert.diagonal()[: cert.rank]
    free = M.ngens - cert.rank
    factors = [d for d in diag if not base.is_unit(d)]
    assert M.free_rank() == free
    assert M.is_zero_module() == (free == 0 and not factors)
    if isinstance(base, PolyRing):
        assert M.dim_over_field() == (sum(len(d) - 1 for d in factors) if free == 0 else None)
    for v in probes:
        assert M.is_zero_vec(v) == (solve_linear(M.rel, v, cert) is not None)


SWEEP_BASES = dict(HERMITE_BASES, F3x=PolyRing(GF(3), "x"))


@st.composite
def one_row_matrices(draw):
    """(A, top): one row over Z, F_2[x], F_3[x] or Q[x] whose entries
    are random, zero or units, with a tail of 0-2 entries after the top
    ``top``, that tail sometimes all zero."""
    key = draw(st.sampled_from(sorted(SWEEP_BASES)))
    base = SWEEP_BASES[key]
    if key == "ZZ":
        entry = st.integers(-12, 12)
    else:
        coeff = {"F2x": st.integers(0, 1), "F3x": st.integers(0, 2)}.get(key, st.fractions(-2, 2, max_denominator=3))
        entry = st.lists(coeff, max_size=4).map(lambda cs: base.coerce_payload(tuple(cs)))
    entry = st.one_of(entry, st.just(base.zero), st.just(base.one))
    top = draw(st.integers(0, 5))
    tail = draw(st.one_of(st.lists(entry, max_size=2), st.integers(1, 2).map(lambda k: [base.zero] * k)))
    row = draw(st.lists(entry, min_size=top, max_size=top)) + tail
    return Matrix(base, [row], shape=(1, len(row))), top


@settings(max_examples=200, deadline=None)
@given(one_row_matrices())
def test_one_row_sweep_matches_snf_kernel(case):
    """The extended-gcd sweep spans the same lattice as the top rows of
    the SNF kernel: both give one reduced Hermite form."""
    A, top = case
    swept = FPModule(A.ring, top, fpmod._projected_kernel(A, top))
    K = kernel_basis(A)
    reference, _ = column_hermite(Matrix(A.ring, K.rows[:top], shape=(top, K.n)))
    assert swept.rel == reference


def test_hermite_questions_build_no_smith_form(monkeypatch):
    """Hermite questions build no SNF; a map predicate builds at most
    the one SNF of a kernel and the one Hermite form of a quotient.  A
    kernel into a one-generator target is a one-row syzygy sweep and
    builds no SNF at all."""
    calls, hermites = [], []

    def counted(A):
        calls.append((A.m, A.n))
        return linalg_smith(A)

    def counted_hermite(A):
        hermites.append((A.m, A.n))
        return linalg.column_hermite(A)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    monkeypatch.setattr(fpmod, "smith_normal_form", counted)
    Qx, A = SMALL_RINGS["Qx"], QuotientRing(F2X, x_pow(4))
    qx = poly_from_coeffs(Qx, [0, 1])
    maps = []
    for src, dst, mat in [
        (FPModule(ZZ, 2, [[4, 6], [0, 10]]), FPModule.cyclic(ZZ, 2), [[1, 1]]),
        (FPModule.cyclic(ZZ, 0), FPModule.free(ZZ, 2), [[3], [5]]),
        (FPModule.cyclic(A, x_pow(3)), FPModule.cyclic(A, x_pow(2)), [[x_pow(1)]]),
        (FPModule(Qx, 2, [[qx, qx]]), FPModule.cyclic(Qx, qx), [[1, 2]]),
    ]:
        f = FPMap(src, dst, mat, check=True)
        for M in (src, dst):
            M.free_rank(), M.is_zero_module()
        f.is_surjective()
        maps.append(f)
    with pytest.raises(ValueError, match="respect"):
        FPMap(FPModule.cyclic(ZZ, 2), FPModule.cyclic(ZZ, 4), [[1]])
    assert calls == []
    # the cokernel projections are built before counting starts
    pairs = [(f, quotient(f.dst, f.mat)[1]) for f in maps]
    monkeypatch.setattr(fpmod, "column_hermite", counted_hermite)
    for f, proj in pairs:
        kernel_snfs = 0 if f.dst.ngens == 1 else 1
        for predicate, args, snfs, forms in [
            (FPMap.is_injective, (f,), kernel_snfs, 0),
            (FPMap.is_surjective, (f,), 0, 1),
            (is_exact_pair, (f, proj), kernel_snfs, 1),
        ]:
            calls.clear(), hermites.clear()
            predicate(*args)
            assert (len(calls), len(hermites)) == (snfs, forms), predicate.__name__


# -- maps -------------------------------------------------------------


def test_map_well_definedness_enforced():
    src = FPModule.cyclic(ZZ, 2)
    dst = FPModule.cyclic(ZZ, 4)
    with pytest.raises(ValueError, match="respect"):
        FPMap(src, dst, [[1]])
    f = FPMap(src, dst, [[2]])
    assert f(src.gen(0)) == (2,)


def test_map_matrix_stored_reduced():
    M = FPModule.cyclic(ZZ, 4)
    f = FPMap(M, M, [[7]])
    g = FPMap(M, M, [[3]])
    assert f == g
    assert f.mat.rows[0][0] == 3


@pytest.mark.parametrize("ring_key", ["F2x", "Qx"])
def test_public_entries_coerce_payloads(ring_key):
    """Matrix does not coerce; FPModule, FPMap from rows, FPMap.scalar
    and FPMap.__call__ take plain ints and store canonical payloads."""
    R = SMALL_RINGS[ring_key]
    coeff = type(R.field.one)

    def canonical(x):
        return isinstance(x, tuple) and all(type(c) is coeff for c in x) and x == R.coerce_payload(x)

    M = FPModule(R, 2, [[0, 0]])
    f = FPMap(M, M, [[1, 0], [3, 1]])
    assert f.mat.rows == ((R.one, R.zero), (R.from_int(3), R.one))
    assert all(canonical(x) for r in f.mat.rows for x in r)
    assert all(canonical(x) for r in FPMap.scalar(M, 5).mat.rows for x in r)
    assert all(canonical(x) for x in f([1, 1]))
    with pytest.raises(ValueError):
        FPMap(M, M, [["x", 0], [0, 1]])
    with pytest.raises(ValueError):
        FPModule(R, 1, [["x"]])
    # Matrix trusts its rows, so the row path checks the shape itself
    for rows in ([[1, 0], [0]], [[1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(ValueError, match="2x2"):
            FPMap(M, M, rows)


def test_scalar_and_algebra_on_maps():
    M = FPModule(ZZ, 2, [[4, 0], [0, 4]])
    two = FPMap.scalar(M, 2)
    assert two * two == FPMap.scalar(M, 4)
    assert two(M.gen(0)) == (2, 0)


def test_kernel_image_cokernel_by_enumeration():
    M = FPModule(ZZ, 2, [[8, 0], [0, 2]])
    f = FPMap(M, M, [[2, 0], [0, 1]])
    K, ik = f.kernel()
    assert image_set(ik) == kernel_set(f)
    I, ii = submodule(M, f.mat)
    assert image_set(ii) == image_set(f)
    C, proj = f.cokernel()
    assert proj.is_surjective()
    # fibers of proj all have the size of the image
    fibers = {}
    for v in M.elements():
        fibers.setdefault(proj(v), set()).add(M.reduce_vec(v))
    assert all(len(s) == len(image_set(f)) for s in fibers.values())
    assert K.element_count() * I.element_count() == M.element_count()


def test_times_two_on_z8():
    M = FPModule.cyclic(ZZ, 8)
    f = FPMap.scalar(M, 2)
    K, _ = f.kernel()
    I, _ = submodule(M, f.mat)
    C, _ = f.cokernel()
    assert K.invariant_factors() == [2]
    assert I.invariant_factors() == [4]
    assert C.invariant_factors() == [2]


def test_injective_surjective_iso_flags():
    Z4 = FPModule.cyclic(ZZ, 4)
    Z2 = FPModule.cyclic(ZZ, 2)
    proj = FPMap(Z4, Z2, [[1]])
    incl = FPMap(Z2, Z4, [[2]])
    assert proj.is_surjective() and not proj.is_injective()
    assert incl.is_injective() and not incl.is_surjective()
    u = FPMap(Z4, Z4, [[3]])
    assert u.is_iso()
    # 3 * 3 = 1 mod 4: u is its own inverse
    assert u * u == FPMap.identity(Z4)


def test_exact_pair_positive_and_negative():
    Z2 = FPModule.cyclic(ZZ, 2)
    Z4 = FPModule.cyclic(ZZ, 4)
    i = FPMap(Z2, Z4, [[2]])
    p = FPMap(Z4, Z2, [[1]])
    assert is_exact_pair(i, p)
    z = FPMap.zero(Z2, Z4)
    assert (p * z).is_zero_map()
    assert not is_exact_pair(z, p)


def old_is_injective(f):
    K, _ = f.kernel()
    return K.is_zero_module()


def old_is_surjective(f):
    C, _ = f.cokernel()
    return C.is_zero_module()


def old_is_exact_pair(f, g):
    if not (g * f).is_zero_map():
        return False
    _, ik = g.kernel()
    _, ii = submodule(f.dst, f.mat)
    return factor_through(ik, ii) is not None


@st.composite
def map_pairs(draw):
    """(f, g) with f: A -> B and g: B -> C over Z, F_2[x] or Q[x], with
    or without a modulus, 0-3 generators each.  Each target takes the
    images of its source's relations among its own, so both maps are
    well defined.  g is random, the cokernel projection of f (exact), or
    a projection onto a coarser quotient (g f = 0, exact or not)."""
    key = draw(st.sampled_from(sorted(HERMITE_BASES)))
    base, entry = HERMITE_BASES[key], base_entries(key)
    modulus = draw(st.one_of(st.none(), entry.filter(lambda d: d != base.zero)))
    algebra = base if modulus is None else QuotientRing(base, modulus)
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def columns(n, most):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=most))

    def matrix(m, n):
        return Matrix(base, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)), shape=(m, n))

    def images(mat, cols):
        return [matvec(mat, c) for c in cols]

    rel_a, F = columns(a, 2), matrix(b, a)
    rel_b = columns(b, 2) + images(F, rel_a)
    f = FPMap(FPModule(algebra, a, rel_a), FPModule(algebra, b, rel_b), F)
    kind = draw(st.sampled_from(["random", "cokernel", "coarser"]))
    if kind == "random":
        c = draw(st.integers(1, 3))
        G = matrix(c, b)
        rel_c = columns(c, 2) + images(G, rel_b)
    else:
        c, G = b, Matrix.identity(base, b)
        rel_c = rel_b + [F.col(j) for j in range(a)] + (columns(b, 1) if kind == "coarser" else [])
    return f, FPMap(f.dst, FPModule(algebra, c, rel_c), G)


def small_elements(M):
    count = M.element_count()
    return M.elements() if count is not None and count <= 64 else None


@settings(max_examples=150, deadline=None)
@given(map_pairs())
def test_map_predicates_match_module_building_reference(pair):
    f, g = pair
    for h in (f, g):
        assert h.is_injective() == old_is_injective(h)
        assert h.is_surjective() == old_is_surjective(h)
        src, dst = small_elements(h.src), small_elements(h.dst)
        if src is not None and dst is not None:
            assert h.is_injective() == (len(kernel_set(h)) == 1)
            assert h.is_surjective() == (image_set(h) == set(dst))
    assert is_exact_pair(f, g) == old_is_exact_pair(f, g)
    if small_elements(f.dst) is not None and small_elements(f.src) is not None:
        assert is_exact_pair(f, g) == (image_set(f) == kernel_set(g))


def test_factorization_through_kernel():
    M = FPModule.cyclic(ZZ, 8)
    f = FPMap.scalar(M, 4)
    K, ik = f.kernel()
    # any map killed by f factors through ker(f)
    g = FPMap(FPModule.cyclic(ZZ, 4), M, [[2]])
    assert (f * g).is_zero_map()

    v = factor_through(g, ik)
    assert v is not None and ik * v == g


# -- pushouts ---------------------------------------------------------


def test_pushout_square_commutes():
    A = FPModule.cyclic(ZZ, 2)
    B = FPModule.cyclic(ZZ, 4)
    f = FPMap(A, B, [[2]])
    g = FPMap.identity(A)
    P, in_f, in_g = pushout(f, g)
    assert in_f * f == in_g * g
    assert P.structure() == (0, (4,))
    assert in_f.is_injective()


def test_pushout_universal_element_check():
    # gluing Z/4 and Z/4 along Z/2 in both
    A = FPModule.cyclic(ZZ, 2)
    B = FPModule.cyclic(ZZ, 4)
    f = FPMap(A, B, [[2]])
    P, in_f, in_g = pushout(f, f)
    assert P.element_count() == 8
    assert in_f * f == in_g * f


# -- quotients and submodules -----------------------------------------


def test_submodule_of_sum():
    M = FPModule(ZZ, 2, [[4, 0], [0, 4]])
    G = Matrix(ZZ, [[2], [2]])
    S, incl = submodule(M, G)
    assert S.invariant_factors() == [2]
    assert image_set(incl) == {M.reduce_vec((2 * k, 2 * k)) for k in range(4)}


def test_quotient_by_submodule():
    M = FPModule(ZZ, 2, [[4, 0], [0, 4]])
    Q, proj = quotient(M, Matrix(ZZ, [[2], [0]]))
    assert Q.element_count() == 8
    assert proj.is_surjective()


# -- tensor -----------------------------------------------------------


@pytest.mark.parametrize("a,b", [(2, 3), (4, 6), (8, 12), (5, 5), (1, 7)])
def test_tensor_of_cyclics_is_gcd(a, b):
    import math

    T = tensor(FPModule.cyclic(ZZ, a), FPModule.cyclic(ZZ, b))
    g = math.gcd(a, b)
    assert T.invariant_factors() == ([g] if g > 1 else [])


def test_tensor_of_poly_cyclics():
    T = tensor(FPModule.cyclic(F2X, x_pow(2)), FPModule.cyclic(F2X, x_pow(3)))
    assert T.dim_over_field() == 2


def test_tensor_with_free_is_power():
    M = FPModule.cyclic(ZZ, 6)
    F = FPModule.free(ZZ, 2)
    assert tensor(M, F).structure() == (0, (6, 6))


def test_tensor_swap_is_iso():
    M = FPModule.cyclic(ZZ, 4)
    N = FPModule(ZZ, 2, [[2, 0], [0, 8]])
    s = tensor_swap(M, N)
    t = tensor_swap(N, M)
    assert s.is_iso()
    assert t * s == FPMap.identity(tensor(M, N))


def test_tensor_map_elementwise():
    M = FPModule.cyclic(ZZ, 4)
    f = FPMap.scalar(M, 2)
    tf = tensor_map(f, FPMap.identity(M))
    T = tensor(M, M)
    for v in T.elements():
        doubled = T.reduce_vec([2 * x for x in v])
        assert tf(v) == doubled


# -- hom --------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(2, 4), (4, 6), (6, 9), (8, 8)])
def test_hom_of_cyclics_is_gcd(a, b):
    import math

    H = HomModule(FPModule.cyclic(ZZ, a), FPModule.cyclic(ZZ, b))
    assert H.module.element_count() == math.gcd(a, b)


def test_hom_roundtrip_and_separation():
    M = FPModule.cyclic(ZZ, 4)
    N = FPModule(ZZ, 2, [[2, 0], [0, 4]])
    H = HomModule(M, N)
    seen = set()
    for coords in H.module.elements():
        f = H.to_map(coords)
        key = tuple(tuple(r) for r in f.mat.rows)
        assert key not in seen
        seen.add(key)
    # every brute-force well-defined map appears
    count = 0
    for x in range(4):
        for y in range(8):
            try:
                FPMap(M, N, [[x], [y]])
            except ValueError:
                continue
            count += 1
    assert count >= len(seen)
    distinct = {
        tuple(tuple(r) for r in FPMap(M, N, [[x], [y]]).mat.rows)
        for x in range(4)
        for y in range(8)
        if _is_welldef(M, N, x, y)
    }
    assert distinct == seen


def _is_welldef(M, N, x, y):
    try:
        FPMap(M, N, [[x], [y]])
        return True
    except ValueError:
        return False


# -- base change and isomorphism type ---------------------------------


def test_base_change_scales_relations():
    M = FPModule(ZZ, 2, [[4, 0], [0, 6]])
    N = base_change(M, ZZ, lambda x: 3 * x)
    assert N.invariant_factors() == [6, 36]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2), min_size=0, max_size=3)
)
def test_unimodular_presentation_change_keeps_structure(cols):
    M = FPModule(ZZ, 2, cols)
    # generator swap is a unimodular change of presentation
    N = FPModule(ZZ, 2, [[c[1], c[0]] for c in cols])
    assert are_isomorphic(M, N)
    swap = FPMap(M, N, [[0, 1], [1, 0]])
    assert swap.is_iso()
