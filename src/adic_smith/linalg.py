"""Dense exact matrices over the package rings, with certified normal forms.

The central object is ``smith_normal_form``: for A over a Euclidean ring
it returns U, V, their tracked inverses, and the diagonal D with

    U * A * V = D,    d_1 | d_2 | ... ,   d_i canonical associates.

Unimodularity is certified by the carried inverses (U * U_inv = I is an
exact identity, checked in tests).  ``solve_linear`` and ``kernel_basis`` are derived from the
certificate; both are verified by substitution wherever they are used.

Matrices store ring payloads row-major, and those payloads must already
be canonical (see ``rings``): nothing in this module coerces.  Values
from a caller are coerced where they enter the package, in ``FPModule``,
``FPMap``, ``SmithIdeal`` and the CLI parser; every payload built from
them by ring operations is canonical again.  Shapes follow the same
contract: rows are equal-length tuples, ``Matrix`` takes them as given,
and rows or columns from a caller are length-checked where they enter
(the same entry points, plus vector lengths in ``matvec``); products and
stacks check only that their operands fit.  Every Euclidean ring, Z
included, goes through the one ring-op kernel ``_snf_generic``; its pivot
rule is minimal euclidean size, first in row-major order.

``column_hermite`` gives the reduced column Hermite form, which is unique.
A one-row matrix, the presentation of every ideal and power I^n, gets it
from a gcd chain along the row; other shapes from a Euclid loop of
column operations.
"""

from __future__ import annotations

from adic_smith.rings import IntegerRing, Ring


class Matrix:
    __slots__ = ("ring", "m", "n", "rows")

    def __init__(self, ring: Ring, rows, shape=None):
        self.ring = ring
        self.rows = rows = tuple(map(tuple, rows))
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        self.m, self.n = shape

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, ring: Ring, k: int) -> "Matrix":
        one, zero = ring.one, ring.zero
        return cls(
            ring,
            [[one if i == j else zero for j in range(k)] for i in range(k)],
            shape=(k, k),
        )

    @classmethod
    def zeros(cls, ring: Ring, m: int, n: int) -> "Matrix":
        zero = ring.zero
        return cls(ring, [[zero] * n for _ in range(m)], shape=(m, n))

    @classmethod
    def from_cols(cls, ring: Ring, cols, m: int) -> "Matrix":
        """The m-row matrix whose columns are the sequence ``cols``."""
        return cls(ring, zip(*cols) if cols else [()] * m, shape=(m, len(cols)))

    @classmethod
    def diagonal(cls, ring: Ring, entries, m: int, n: int) -> "Matrix":
        A = [[ring.zero] * n for _ in range(m)]
        for i, d in enumerate(entries):
            A[i][i] = d
        return cls(ring, A, shape=(m, n))

    # -- basics -------------------------------------------------------
    def col(self, j: int):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.n)]

    def transpose(self) -> "Matrix":
        return Matrix.from_cols(self.ring, self.rows, self.n)

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(x == z for r in self.rows for x in r)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.rows == self.rows
            and other.n == self.n
        )

    def __hash__(self):
        return hash((self.ring, self.n, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.format_elem(x) for x in r) for r in self.rows
        )
        return f"Matrix({self.m}x{self.n} over {self.ring!r}: [{body}])"

    # -- arithmetic ---------------------------------------------------
    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix(
            self.ring,
            [[neg(a) for a in r] for r in self.rows],
            shape=(self.m, self.n),
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.ring != self.ring or other.m != self.n:
            raise ValueError(
                f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}"
            )
        ring = self.ring
        B = other.rows
        out = []
        if isinstance(ring, IntegerRing):
            for ra in self.rows:
                row = [0] * other.n
                for k, a in enumerate(ra):
                    if a:
                        Bk = B[k]
                        for j in range(other.n):
                            if Bk[j]:
                                row[j] += a * Bk[j]
                out.append(row)
        else:
            zero, add, mul = ring.zero, ring.add, ring.mul
            for ra in self.rows:
                row = [zero] * other.n
                for k, a in enumerate(ra):
                    if a != zero:
                        Bk = B[k]
                        for j in range(other.n):
                            if Bk[j] != zero:
                                row[j] = add(row[j], mul(a, Bk[j]))
                out.append(row)
        return Matrix(self.ring, out, shape=(self.m, other.n))


def matvec(A: Matrix, v):
    v = list(v)
    if len(v) != A.n:
        raise ValueError(f"length {len(v)} vector against {A.m}x{A.n}")
    ring = A.ring
    zero, add, mul = ring.zero, ring.add, ring.mul
    out = []
    for row in A.rows:
        acc = zero
        for a, x in zip(row, v):
            if a != zero and x != zero:
                acc = add(acc, mul(a, x))
        out.append(acc)
    return tuple(out)


def hstack(A: Matrix, B: Matrix) -> Matrix:
    if A.ring != B.ring or A.m != B.m:
        raise ValueError("hstack mismatch")
    return Matrix(A.ring, [ra + rb for ra, rb in zip(A.rows, B.rows)], shape=(A.m, A.n + B.n))


def vstack(A: Matrix, B: Matrix) -> Matrix:
    if A.ring != B.ring or A.n != B.n:
        raise ValueError("vstack mismatch")
    return Matrix(A.ring, A.rows + B.rows, shape=(A.m + B.m, A.n))


def block_diag(ring: Ring, blocks) -> Matrix:
    blocks = list(blocks)
    m = sum(b.m for b in blocks)
    n = sum(b.n for b in blocks)
    out = [[ring.zero] * n for _ in range(m)]
    i0 = j0 = 0
    for b in blocks:
        for i in range(b.m):
            out[i0 + i][j0 : j0 + b.n] = b.rows[i]
        i0 += b.m
        j0 += b.n
    return Matrix(ring, out, shape=(m, n))


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product; (i*B.m + k, j*B.n + l) entry is A[i,j] * B[k,l]."""
    if A.ring != B.ring:
        raise ValueError("kron ring mismatch")
    ring = A.ring
    zero, mul = ring.zero, ring.mul
    m, n = A.m * B.m, A.n * B.n
    out = [[zero] * n for _ in range(m)]
    for i in range(A.m):
        for j in range(A.n):
            a = A.rows[i][j]
            if a == zero:
                continue
            for k in range(B.m):
                Brow = B.rows[k]
                orow = out[i * B.m + k]
                for l in range(B.n):
                    if Brow[l] != zero:
                        orow[j * B.n + l] = mul(a, Brow[l])
    return Matrix(ring, out, shape=(m, n))


class SNFCertificate:
    """U*A*V = D with divisibility chain and tracked unimodular inverses."""

    __slots__ = ("ring", "D", "U", "V", "U_inv", "V_inv", "det_u", "det_v", "rank")

    def __init__(self, ring, D, U, V, U_inv, V_inv, det_u, det_v, rank):
        self.ring = ring
        self.D = D
        self.U = U
        self.V = V
        self.U_inv = U_inv
        self.V_inv = V_inv
        self.det_u = det_u
        self.det_v = det_v
        self.rank = rank

    def diagonal(self):
        return [self.D.rows[i][i] for i in range(min(self.D.m, self.D.n))]


def smith_normal_form(A: Matrix) -> SNFCertificate:
    ring = A.ring
    if not ring.is_euclidean:
        raise TypeError(f"SNF needs a Euclidean ring, got {ring!r}")
    D, U, V, Ui, Vi, du, dv, rank = _snf_generic(ring, A.m, A.n, A.rows)
    mk = lambda rows, m, n: Matrix(ring, rows, shape=(m, n))
    return SNFCertificate(
        ring,
        mk(D, A.m, A.n),
        mk(U, A.m, A.m),
        mk(V, A.n, A.n),
        mk(Ui, A.m, A.m),
        mk(Vi, A.n, A.n),
        du,
        dv,
        rank,
    )


def _snf_generic(ring: Ring, m, n, rows):
    """(D, U, V, U_inv, V_inv, det_u, det_v, rank) of an m x n payload matrix.

    Pivot rule: the nonzero entry of minimal euclidean size over the whole
    trailing block, first in row-major scan order, re-picked on every
    pass; scanning stops early on a unit.  The column is cleared before
    the row, so row clearing only ever touches the pivot row, and the
    pivot is forced to divide the trailing block before the step
    finishes; the divisibility chain falls out of that.  Re-picking per
    pass matters: anchoring on one pivot per step lets two trailing
    columns trade ever-larger entries.  Diagonal entries end as canonical
    associates, the unit folded into U.
    """
    zero, one = ring.zero, ring.one
    M = [list(r) for r in rows]
    U = [[one if i == j else zero for j in range(m)] for i in range(m)]
    Ui = [[one if i == j else zero for j in range(m)] for i in range(m)]
    V = [[one if i == j else zero for j in range(n)] for i in range(n)]
    Vi = [[one if i == j else zero for j in range(n)] for i in range(n)]
    det_u = [one]
    det_v = [one]
    unit_size = ring.euclid_size(one)
    add, sub, mul, neg = ring.add, ring.sub, ring.mul, ring.neg

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]
        det_u[0] = neg(det_u[0])

    def swap_cols(i, j):
        for r in range(m):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vi[i], Vi[j] = Vi[j], Vi[i]
        det_v[0] = neg(det_v[0])

    def row_sub(i, t, q):
        Mi, Mt = M[i], M[t]
        for c in range(n):
            if Mt[c] != zero:
                Mi[c] = sub(Mi[c], mul(q, Mt[c]))
        Uo, Ut = U[i], U[t]
        for c in range(m):
            if Ut[c] != zero:
                Uo[c] = sub(Uo[c], mul(q, Ut[c]))
        for r in range(m):
            if Ui[r][i] != zero:
                Ui[r][t] = add(Ui[r][t], mul(q, Ui[r][i]))

    def col_sub(j, t, q):
        for r in range(m):
            if M[r][t] != zero:
                M[r][j] = sub(M[r][j], mul(q, M[r][t]))
        for r in range(n):
            if V[r][t] != zero:
                V[r][j] = sub(V[r][j], mul(q, V[r][t]))
        Vt, Vj = Vi[t], Vi[j]
        for c in range(n):
            if Vj[c] != zero:
                Vt[c] = add(Vt[c], mul(q, Vj[c]))

    t = 0
    limit = min(m, n)
    while t < limit:
        bi = bj = -1
        best = -1
        for i in range(t, m):
            Mi = M[i]
            for j in range(t, n):
                if Mi[j] != zero:
                    s = ring.euclid_size(Mi[j])
                    if bi < 0 or s < best:
                        bi, bj, best = i, j, s
                        if s == unit_size:
                            break
            if best == unit_size and bi >= 0:
                break
        if bi < 0:
            break
        if bi != t:
            swap_rows(bi, t)
        if bj != t:
            swap_cols(bj, t)
        p = M[t][t]

        dirty = False
        for i in range(t + 1, m):
            a = M[i][t]
            if a != zero:
                q, r = ring.divmod_(a, p)
                if q != zero:
                    row_sub(i, t, q)
                if r != zero:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            b = M[t][j]
            if b != zero:
                q, r = ring.divmod_(b, p)
                if q != zero:
                    col_sub(j, t, q)
                if r != zero:
                    dirty = True
        if dirty:
            continue

        # cross is clear; fold in any row the pivot does not divide yet
        # (a unit pivot divides every entry, and every pivot divides 0)
        ok = True
        if ring.euclid_size(p) != unit_size:
            for i in range(t + 1, m):
                Mi = M[i]
                for j in range(t + 1, n):
                    if Mi[j] != zero and ring.divmod_(Mi[j], p)[1] != zero:
                        row_sub(t, i, neg(one))
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            t += 1

    rank = t

    for i in range(rank):
        u = ring.canonical_unit(M[i][i])
        if u != one:
            uinv = ring.unit_inverse(u)
            M[i][i] = mul(u, M[i][i])
            U[i] = [mul(u, x) for x in U[i]]
            for r in range(m):
                Ui[r][i] = mul(uinv, Ui[r][i])
            det_u[0] = mul(u, det_u[0])

    return M, U, V, Ui, Vi, det_u[0], det_v[0], rank


def solve_linear(A: Matrix, b, cert: SNFCertificate | None = None):
    """One x with A x = b (payload tuple), or None if b is outside the span."""
    if cert is None:
        cert = smith_normal_form(A)
    ring = A.ring
    if len(b) != A.m:
        raise ValueError("rhs length mismatch")
    c = matvec(cert.U, b)
    zero = ring.zero
    y = [zero] * A.n
    for i in range(A.m):
        if i < cert.rank:
            d = cert.D.rows[i][i]
            q, r = ring.divmod_(c[i], d)
            if r != zero:
                return None
            y[i] = q
        elif c[i] != zero:
            return None
    return matvec(cert.V, y)


def solve_matrix(A: Matrix, B: Matrix, cert: SNFCertificate | None = None):
    """X with A X = B, or None. One SNF, one solve per column of B."""
    if cert is None:
        cert = smith_normal_form(A)
    cols = []
    for j in range(B.n):
        x = solve_linear(A, B.col(j), cert)
        if x is None:
            return None
        cols.append(x)
    return Matrix.from_cols(A.ring, cols, A.n)


def kernel_basis(A: Matrix, cert: SNFCertificate | None = None) -> Matrix:
    """Columns freely generating {x : A x = 0}; count is n - rank."""
    if cert is None:
        cert = smith_normal_form(A)
    cols = [cert.V.col(j) for j in range(cert.rank, A.n)]
    return Matrix.from_cols(A.ring, cols, A.n)


def column_hermite(A: Matrix):
    """(H, pivots): H is the reduced column Hermite form of A with its
    zero columns dropped, so its columns are a basis of the column span
    of A; pivots lists, per column j of H, the (row, j) of its first
    nonzero entry, rows strictly increasing.

    Pivots are canonical associates; entries left of a pivot are reduced
    mod the pivot. Deterministic: same pivot rule as the SNF sweep.

    A one-row matrix, such as the relations of an ideal, of a power I^n
    or of a truncation over a one-generator ambient, has the form
    [canonical gcd of the row], or no column for a zero row.  It is read
    off a ``Ring.gcd`` chain, with no column operations: the reduced form
    is unique, so the Euclid loop below would reach the same column, at
    the price of swelling the other entries on the way (over Q[x] a 1x6
    row with gcd 1 took minutes).
    """
    ring = A.ring
    if not ring.is_euclidean:
        raise TypeError(f"Hermite form needs a Euclidean ring, got {ring!r}")
    zero, one = ring.zero, ring.one
    m, n = A.m, A.n
    if m == 1:
        g = zero
        for x in A.rows[0]:
            if x != zero:
                g = ring.gcd(g, x)
                if g == one:
                    break
        if g == zero:
            return Matrix(ring, [()], shape=(1, 0)), ()
        return Matrix(ring, [(g,)], shape=(1, 1)), ((0, 0),)
    H = [list(r) for r in A.rows]

    def col_sub(j, t, q):
        for r in range(m):
            if H[r][t] != zero:
                H[r][j] = ring.sub(H[r][j], ring.mul(q, H[r][t]))

    def swap_cols(i, j):
        for r in range(m):
            H[r][i], H[r][j] = H[r][j], H[r][i]

    def scale_col(i, j):
        """Make the entry (i, j) a canonical associate, a unimodular step."""
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
        bj = -1
        best = -1
        for j in range(c, n):
            if H[r0][j] != zero:
                s = ring.euclid_size(H[r0][j])
                if bj < 0 or s < best:
                    bj, best = j, s
        if bj < 0:
            continue
        if bj != c:
            swap_cols(bj, c)
        while True:
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
            if not again:
                break
        scale_col(r0, c)
        pivots.append((r0, c))
        c += 1

    for r0, cc in pivots:
        for j in range(cc):
            if H[r0][j] != zero:
                q, _ = ring.divmod_(H[r0][j], H[r0][cc])
                if q != zero:
                    col_sub(j, cc, q)

    # column echelon form: every column from len(pivots) on is zero
    return Matrix(ring, [r[:c] for r in H], shape=(m, c)), tuple(pivots)
