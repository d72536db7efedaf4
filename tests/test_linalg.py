"""Matrix layer: normal forms with certificates, solving, kernels.

The normal-form checks recompute everything from the certificate:
U*A*V = D entry by entry, invertibility of U and V from the tracked
inverses, and the divisibility chain from ring divisions.  Frozen
integer certificates pin the kernel's exact output, so a change of pivot
rule or sweep order shows up even when the result is still a valid
Smith form.  ``column_hermite`` is checked against ``_euclid_hermite``, a
copy of its Euclid loop from before one-row matrices took a gcd chain.
"""

import pytest
from hypothesis import given, settings, strategies as st

from adic_smith.linalg import (
    Matrix,
    block_diag,
    column_hermite,
    hstack,
    kernel_basis,
    kron,
    matvec,
    smith_normal_form,
    solve_linear,
    solve_matrix,
    vstack,
)
from adic_smith.rings import GF, QQ, IntegerRing, PolyRing, SparsePolyRing

from conftest import random_int_matrix, random_poly_matrix

ZZ = IntegerRing()
F2X = PolyRing(GF(2), "x")


def assert_snf_certificate(A, cert):
    ring = A.ring
    assert cert.U * A * cert.V == cert.D
    assert cert.U * cert.U_inv == Matrix.identity(ring, A.m)
    assert cert.V * cert.V_inv == Matrix.identity(ring, A.n)
    assert ring.is_unit(cert.det_u) and ring.is_unit(cert.det_v)
    diag = cert.diagonal()
    for i in range(A.m):
        for j in range(A.n):
            if i != j:
                assert cert.D.rows[i][j] == ring.zero
    for d1, d2 in zip(diag, diag[1:]):
        if d2 != ring.zero:
            assert d1 != ring.zero
            q, r = ring.divmod_(d2, d1)
            assert r == ring.zero


small = st.integers(min_value=-20, max_value=20)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_snf_certificate_integers(m, n, data):
    rows = [[data.draw(small) for _ in range(n)] for _ in range(m)]
    A = Matrix(ZZ, rows)
    assert_snf_certificate(A, smith_normal_form(A))


def test_snf_known_forms():
    A = Matrix(ZZ, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    cert = smith_normal_form(A)
    assert cert.diagonal() == [2, 2, 156]
    B = Matrix(ZZ, [[1, 0], [0, 0]])
    assert smith_normal_form(B).diagonal() == [1, 0]
    Z = Matrix.zeros(ZZ, 2, 3)
    assert smith_normal_form(Z).diagonal() == [0, 0]


def test_snf_poly_ring(rng):
    for _ in range(25):
        A = random_poly_matrix(rng, F2X, rng.randint(1, 4), rng.randint(1, 4), deg=2)
        assert_snf_certificate(A, smith_normal_form(A))


def test_solve_by_substitution(rng):
    hits = 0
    for _ in range(60):
        A = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=6)
        x = [rng.randint(-4, 4) for _ in range(A.n)]
        b = matvec(A, x)
        got = solve_linear(A, b)
        assert got is not None
        assert list(matvec(A, got)) == list(b)
        hits += 1
    assert hits == 60


def test_solve_reports_unsolvable():
    A = Matrix(ZZ, [[2, 0], [0, 2]])
    assert solve_linear(A, (1, 0)) is None
    assert solve_linear(A, (2, 4)) == (1, 2)


def test_solve_matrix_round_trip(rng):
    A = random_int_matrix(rng, 4, 3, bound=5)
    X = random_int_matrix(rng, 3, 2, bound=3)
    B = A * X
    Y = solve_matrix(A, B)
    assert Y is not None and A * Y == B


def test_kernel_by_substitution(rng):
    for _ in range(40):
        A = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), bound=6)
        K = kernel_basis(A)
        assert (A * K).is_zero()
        cert = smith_normal_form(A)
        assert K.n == A.n - cert.rank
        # members of the kernel must be reachable: spot-check one combo
        if K.n:
            v = matvec(K, [1] * K.n)
            assert all(c == 0 for c in matvec(A, v))


def test_kernel_completeness_small():
    # x + y + z = 0 over Z: kernel rank 2, and every small solution is
    # an integer combination of the basis columns
    A = Matrix(ZZ, [[1, 1, 1]])
    K = kernel_basis(A)
    assert K.n == 2
    sols = [
        (a, b, -a - b)
        for a in range(-2, 3)
        for b in range(-2, 3)
    ]
    for s in sols:
        got = solve_matrix(K, Matrix.from_cols(ZZ, [s], 3))
        assert got is not None


def test_column_hermite_preserves_column_span(rng):
    for _ in range(10):
        A = random_int_matrix(rng, 3, 4, bound=6)
        H, pivots = column_hermite(A)
        # spans agree: each column of H solvable from A and vice versa
        assert solve_matrix(A, H) is not None
        assert solve_matrix(H, A) is not None
        # column echelon form with the zero columns dropped: one pivot per
        # column, at the column's first nonzero row, rows strictly
        # increasing
        assert H.n == len(pivots)
        for j, (r, c) in enumerate(pivots):
            assert c == j
            assert [i for i in range(H.m) if H.rows[i][j] != 0][0] == r
        lead = [r for r, _ in pivots]
        assert lead == sorted(set(lead))
        for j, r in enumerate(lead):
            p = H.rows[r][j]
            assert ZZ.canonical_unit(p) == 1
            # entries left of a pivot are reduced modulo it
            assert all(0 <= H.rows[r][t] < p for t in range(j))


def _euclid_hermite(A):
    """The reduced column Hermite form by the Euclid loop of column
    operations that ``column_hermite`` ran on every shape before one-row
    matrices took a gcd chain."""
    ring = A.ring
    zero, one = ring.zero, ring.one
    m, n = A.m, A.n
    H = [list(r) for r in A.rows]

    def col_sub(j, t, q):
        for r in range(m):
            if H[r][t] != zero:
                H[r][j] = ring.sub(H[r][j], ring.mul(q, H[r][t]))

    def swap_cols(i, j):
        for r in range(m):
            H[r][i], H[r][j] = H[r][j], H[r][i]

    def scale_col(i, j):
        u = ring.canonical_unit(H[i][j])
        if u != one:
            for r in range(m):
                if H[r][j] != zero:
                    H[r][j] = ring.mul(u, H[r][j])

    pivots = []
    c = 0
    for r0 in range(m):
        if c >= n:
            break
        bj, best = -1, -1
        for j in range(c, n):
            if H[r0][j] != zero:
                s = ring.euclid_size(H[r0][j])
                if bj < 0 or s < best:
                    bj, best = j, s
        if bj < 0:
            continue
        if bj != c:
            swap_cols(bj, c)
        again = True
        while again:
            again = False
            for j in range(c + 1, n):
                if H[r0][j] == zero:
                    continue
                q, r = ring.divmod_(H[r0][j], H[r0][c])
                if q != zero:
                    col_sub(j, c, q)
                if r != zero:
                    swap_cols(j, c)
                    scale_col(r0, c)
                    again = True
        scale_col(r0, c)
        pivots.append((r0, c))
        c += 1
    for r0, cc in pivots:
        for j in range(cc):
            if H[r0][j] != zero:
                q, _ = ring.divmod_(H[r0][j], H[r0][cc])
                if q != zero:
                    col_sub(j, cc, q)
    return Matrix(ring, [r[:c] for r in H], shape=(m, c)), tuple(pivots)


def _dense(ring, coeff, deg):
    return st.lists(coeff, max_size=deg + 1).map(lambda cs: ring.coerce_payload(tuple(cs)))


def _sparse(ring, coeff, top):
    terms = st.lists(st.tuples(st.integers(0, top), coeff), max_size=3)
    return terms.map(lambda ts: ring.coerce_payload(tuple(ts)))


# ring -> (entry strategy, large-entry strategy, widest large row).  Q[x]
# rows stay narrow and low: the Euclid loop swells their coefficients
# (a 1x6 row with gcd 1 ran for minutes), and it is the reference here.
_F3X, _QX, _LADDER = PolyRing(GF(3), "x"), PolyRing(QQ, "x"), SparsePolyRing(GF(2), "u3")
_Q_COEFF = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))
HERMITE_RINGS = {
    "Z": (ZZ, st.integers(-20, 20), st.integers(-(10**30), 10**30), 12),
    "F2x": (F2X, _dense(F2X, st.integers(0, 1), 3), _dense(F2X, st.integers(0, 1), 12), 12),
    "F3x": (_F3X, _dense(_F3X, st.integers(0, 2), 3), _dense(_F3X, st.integers(0, 2), 8), 10),
    "Qx": (_QX, _dense(_QX, _Q_COEFF, 2), _dense(_QX, st.integers(-(10**6), 10**6), 2), 4),
    "ladder": (_LADDER, _sparse(_LADDER, st.just(1), 8), _sparse(_LADDER, st.just(1), 64), 12),
}


@st.composite
def hermite_cases(draw, name):
    """A matrix over the named ring: a zero row, a row with one nonzero
    entry, a row holding a unit, a wide row of large entries, or 2-3 rows."""
    ring, entry, large, widest = HERMITE_RINGS[name]
    shape = draw(st.sampled_from(["zero", "one-entry", "unit", "wide", "rows"]))
    if shape == "rows":
        m, n = draw(st.integers(2, 3)), draw(st.integers(0, 4))
        return Matrix(ring, [[draw(entry) for _ in range(n)] for _ in range(m)], shape=(m, n))
    if shape == "wide":
        row = draw(st.lists(large, min_size=1, max_size=widest))
    else:
        row = [ring.zero] * draw(st.integers(0 if shape == "zero" else 1, 6))
        if shape == "one-entry":
            row[draw(st.integers(0, len(row) - 1))] = draw(large.filter(lambda x: x != ring.zero))
        elif shape == "unit":
            row = [draw(entry) for _ in row]
            unit = ring.neg(ring.one) if draw(st.booleans()) else ring.one
            row[draw(st.integers(0, len(row) - 1))] = unit
    return Matrix(ring, [row], shape=(1, len(row)))


@pytest.mark.parametrize("name", HERMITE_RINGS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_column_hermite_matches_euclid_loop(name, data):
    A = data.draw(hermite_cases(name), "A")
    assert column_hermite(A) == _euclid_hermite(A)


def test_stacking_and_blocks():
    A = Matrix(ZZ, [[1, 2]])
    B = Matrix(ZZ, [[3, 4]])
    assert hstack(A, B).rows == ((1, 2, 3, 4),)
    assert vstack(A, B).rows == ((1, 2), (3, 4))
    D = block_diag(ZZ, [A, B])
    assert D.rows == ((1, 2, 0, 0), (0, 0, 3, 4))


def test_kron_shape_and_values():
    A = Matrix(ZZ, [[1, 2], [3, 4]])
    B = Matrix(ZZ, [[0, 1]])
    K = kron(A, B)
    assert (K.m, K.n) == (2, 4)
    assert K.rows == ((0, 1, 0, 2), (0, 3, 0, 4))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=25, deadline=None)
def test_matrix_mul_associative(m, n, k, data):
    A = Matrix(ZZ, [[data.draw(small) for _ in range(n)] for _ in range(m)])
    B = Matrix(ZZ, [[data.draw(small) for _ in range(k)] for _ in range(n)])
    C = Matrix(ZZ, [[data.draw(small) for _ in range(2)] for _ in range(k)])
    assert (A * B) * C == A * (B * C)


# -- frozen certificates ---------------------------------------------

# (A, (D, U, V, U_inv, V_inv, det_u, det_v)) for fixed integer matrices.
# Reports with --with-certificates print these matrices, so a change of
# pivot rule or sweep order must show up here, not only as a new report.
FROZEN_SNF = [
    (
        ((2, 4, 4), (-6, 6, 12), (10, 4, 16)),
        (
            ((2, 0, 0), (0, 2, 0), (0, 0, 156)),
            ((1, 0, 0), (32, -1, -7), (1221, -38, -267)),
            ((1, 44, -90), (0, 1, -2), (0, -23, 47)),
            ((1, 0, 0), (-3, -267, 7), (5, 38, -1)),
            ((1, 2, 2), (0, 47, 2), (0, 23, 1)),
            1,
            1,
        ),
    ),
    (
        ((10**30, 2**64 + 1), (-(3**40), 7)),
        (
            ((1, 0), (0, 224269350257001716714848637598803421217)),
            ((-2, 5270498306774157605), (7, -18446744073709551617)),
            ((0, 1), (1, 64076957216286204777407848665237681605)),
            ((18446744073709551617, 5270498306774157605), (7, 2)),
            ((-64076957216286204777407848665237681605, 1), (1, 0)),
            -1,
            -1,
        ),
    ),
    (
        ((0, 6, -4), (9, 0, 15)),
        (
            ((1, 0, 0), (0, 18, 0)),
            ((-4, -1), (15, 4)),
            ((0, -2, 5), (0, 1, -2), (1, 6, -3)),
            ((-4, -1), (15, 4)),
            ((-9, -24, 1), (2, 5, 0), (1, 2, 0)),
            -1,
            -1,
        ),
    ),
    (
        ((3,), (-5,), (7,)),
        (
            ((1,), (0,), (0,)),
            ((2, 1, 0), (-5, -3, 0), (-4, -1, 1)),
            ((1,),),
            ((3, 1, 0), (-5, -2, 0), (7, 2, 1)),
            ((1,),),
            -1,
            1,
        ),
    ),
    # tied pivot candidates: the first minimal entry in row-major order wins
    (
        ((4, 6, 4), (6, 4, 10), (-4, 8, 6)),
        (
            ((2, 0, 0), (0, 2, 0), (0, 0, 106)),
            ((-1, 1, 0), (4, -2, 1), (19, -10, 4)),
            ((1, -3, 37), (0, 0, 1), (0, 1, -12)),
            ((2, -4, 1), (3, -4, 1), (-2, 9, -2)),
            ((1, -1, 3), (0, 12, 1), (0, 1, 0)),
            1,
            -1,
        ),
    ),
    # empty shapes: 0x0 and 2x0
    ((), ((), (), (), (), (), 1, 1)),
    (((), ()), (((), ()), ((1, 0), (0, 1)), (), ((1, 0), (0, 1)), (), 1, 1)),
]


@pytest.mark.parametrize("rows,frozen", FROZEN_SNF)
def test_snf_certificates_are_frozen(rows, frozen):
    A = Matrix(ZZ, rows)
    cert = smith_normal_form(A)
    got = (cert.D.rows, cert.U.rows, cert.V.rows, cert.U_inv.rows, cert.V_inv.rows)
    assert got + (cert.det_u, cert.det_v) == frozen
    assert_snf_certificate(A, cert)
