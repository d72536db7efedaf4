"""Finitely presented modules over the package algebras, with exact maps.

An algebra A is R/(f) for a Euclidean base R (Z or k[x]); ``algebra_split``
also accepts R itself (no modulus).  A module is kept
as an R-presentation

    M = R^g / colspan(rel),    rel an (g x r) matrix over R,

where the columns f*e_i are always materialized in ``rel`` whenever a
modulus is present.  Because A is a quotient of R, A-linear and R-linear
agree for such modules, so all structure (kernels, cokernels, tensor,
hom, pushouts) reduces to certified Smith/Hermite computations over R.

Presentations are canonical: ``rel`` is stored in reduced column Hermite
form with zero columns dropped, so equal submodule lattices give equal
``FPModule`` objects and element coordinates have unique reduced forms.
Maps are matrices on generators, stored with columns reduced, so map
equality is matrix equality.

Each question goes to one normal form.  The stored Hermite form answers
membership (``reduce_vec`` is zero exactly on the lattice; ``FPMap``
certifies well-definedness this way), the free rank (its columns are
independent), the zero test, the size and the k-dimension (its pivots
multiply to the product of the invariant factors).  Injectivity,
surjectivity and exactness test membership of kernel columns in a
relation lattice, or of the target in the span of the image.
The relation Smith form, built on first use, answers invariant
factors, isomorphism type and solves.

Kernel columns come from ``_projected_kernel``.  When the matrix has one
row, as for a submodule of a one-generator module (every ideal, every
power I^n and every truncation's ideal) or a map into one, they come
from an extended-gcd sweep along that row, with no Smith form.  A
matrix of more rows takes the kernel of its Smith form.
"""

from __future__ import annotations

from adic_smith.linalg import (
    Matrix,
    block_diag,
    column_hermite,
    hstack,
    kernel_basis,
    kron,
    matvec,
    smith_normal_form,
    solve_matrix,
    vstack,
)
from adic_smith.rings import IntegerRing, PolyRing, PrimeField, Ring, algebra_split, residues


class FPModule:
    """R-presented module over an algebra; see the module docstring.

    Membership, ``free_rank``, ``is_zero_module``, ``element_count`` and
    ``dim_over_field`` read the Hermite form ``rel``; ``invariant_factors``
    and the structure built on them read the Smith form ``rel_cert()``.
    """

    __slots__ = (
        "algebra",
        "base",
        "modulus",
        "ngens",
        "rel",
        "_pivots",
        "_rel_cert",
    )

    def __init__(self, algebra: Ring, ngens: int, rel_cols=()):
        """``rel_cols`` is a list of relation columns, whose entries are
        coerced, or a ``Matrix`` over the base ring, whose columns are
        canonical already (see ``linalg``) and are taken as they are."""
        base, modulus = algebra_split(algebra)
        if isinstance(rel_cols, Matrix):
            if rel_cols.ring != base or rel_cols.m != ngens:
                raise ValueError(f"relation matrix is not {ngens} rows over {base!r}")
            raw = rel_cols
        else:
            cols = [[base.coerce_payload(x) for x in c] for c in rel_cols]
            if any(len(c) != ngens for c in cols):
                raise ValueError(f"relation length mismatch, wanted {ngens}")
            raw = Matrix.from_cols(base, cols, ngens)
        if modulus is not None:
            raw = hstack(raw, Matrix.diagonal(base, [modulus] * ngens, ngens, ngens))
        self.algebra = algebra
        self.base = base
        self.modulus = modulus
        self.ngens = ngens
        self.rel, self._pivots = column_hermite(raw)
        self._rel_cert = None

    # -- constructors -------------------------------------------------
    @classmethod
    def free(cls, algebra: Ring, n: int) -> "FPModule":
        return cls(algebra, n)

    @classmethod
    def cyclic(cls, algebra: Ring, ann) -> "FPModule":
        """A/(ann) as a module; ann is a base-ring payload."""
        return cls(algebra, 1, [[ann]])

    @classmethod
    def zero(cls, algebra: Ring) -> "FPModule":
        return cls(algebra, 0)

    # -- cached normal forms ------------------------------------------
    def rel_cert(self):
        if self._rel_cert is None:
            self._rel_cert = smith_normal_form(self.rel)
        return self._rel_cert

    def snf_diagonal(self):
        return self.rel_cert().diagonal()

    # -- elements ------------------------------------------------------
    def gen(self, i: int):
        v = [self.base.zero] * self.ngens
        v[i] = self.base.one
        return tuple(v)

    def coerce_vec(self, v):
        v = [self.base.coerce_payload(x) for x in v]
        if len(v) != self.ngens:
            raise ValueError(f"length {len(v)} vector in {self.ngens}-generator module")
        return v

    def reduce_vec(self, v):
        """Unique reduced coordinates of v (canonical payloads) modulo the
        relation lattice."""
        base = self.base
        v = list(v)
        if len(v) != self.ngens:
            raise ValueError(f"length {len(v)} vector in {self.ngens}-generator module")
        H = self.rel.rows
        for i, j in self._pivots:
            q, r = base.divmod_(v[i], H[i][j])
            if q != base.zero:
                for s in range(i + 1, self.ngens):
                    if H[s][j] != base.zero:
                        v[s] = base.sub(v[s], base.mul(q, H[s][j]))
                v[i] = r
        return tuple(v)

    def is_zero_vec(self, v) -> bool:
        zero = self.base.zero
        return all(x == zero for x in self.reduce_vec(v))

    def elements(self):
        """All reduced coordinate tuples, or TypeError if infinite."""
        if len(self._pivots) != self.ngens:
            raise TypeError("module has a free direction; not enumerable")
        choices = [residues(self.base, self.rel.rows[i][j]) for i, j in self._pivots]
        out = [[]]
        for ch in choices:
            out = [v + [c] for v in out for c in ch]
        return [tuple(v) for v in out]

    def element_count(self):
        """Number of elements, or None when infinite (or not enumerable)."""
        if len(self._pivots) != self.ngens:
            return None
        base = self.base
        total = 1
        for i, j in self._pivots:
            d = self.rel.rows[i][j]
            if isinstance(base, IntegerRing):
                total *= abs(d)
            elif isinstance(base, PolyRing) and isinstance(base.field, PrimeField):
                total *= base.field.p ** base.degree(d)
            else:
                return None
        return total

    # -- structure ------------------------------------------------------
    def invariant_factors(self):
        """Nonunit nonzero diagonal of the relation SNF, divisibility order."""
        base = self.base
        return [
            d
            for d in self.snf_diagonal()
            if d != base.zero and not base.is_unit(d)
        ]

    def free_rank(self) -> int:
        return self.ngens - self.rel.n

    def structure(self):
        return (self.free_rank(), tuple(self.invariant_factors()))

    def is_zero_module(self) -> bool:
        one, H = self.base.one, self.rel.rows
        return self.rel.n == self.ngens and all(H[i][j] == one for i, j in self._pivots)

    def dim_over_field(self):
        """k-dimension when the base is k[x] and the module is torsion."""
        if not isinstance(self.base, PolyRing):
            raise TypeError("dimension counting needs a polynomial base")
        if self.free_rank() > 0:
            return None
        return sum(self.base.degree(self.rel.rows[i][j]) for i, j in self._pivots)

    def describe(self):
        base = self.base
        out = {
            "generators": self.ngens,
            "free_rank": self.free_rank(),
            "invariant_factors": [base.format_elem(d) for d in self.invariant_factors()],
        }
        count = self.element_count()
        if count is not None:
            out["size"] = count
        if isinstance(base, PolyRing):
            dim = self.dim_over_field()
            if dim is not None:
                out["dim_over_coefficients"] = dim
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FPModule)
            and other.algebra == self.algebra
            and other.ngens == self.ngens
            and other.rel == self.rel
        )

    def __hash__(self):
        return hash((self.algebra, self.ngens, self.rel))

    def __repr__(self):
        fr = self.free_rank()
        inv = ", ".join(self.base.format_elem(d) for d in self.invariant_factors())
        parts = []
        if fr:
            parts.append(f"free^{fr}")
        if inv:
            parts.append(f"torsion({inv})")
        body = " + ".join(parts) if parts else "0"
        return f"FPModule({body} over {self.algebra!r})"


class FPMap:
    """Map between FPModules, as a (dst.ngens x src.ngens) matrix over R.

    Columns are the generator images, stored in reduced form; the
    constructor certifies well-definedness (relations map into
    relations) unless ``check=False``.
    """

    __slots__ = ("src", "dst", "mat")

    def __init__(self, src: FPModule, dst: FPModule, mat, check: bool = True):
        if src.algebra != dst.algebra:
            raise ValueError("maps need a common algebra")
        if not isinstance(mat, Matrix):
            coerce = src.base.coerce_payload
            rows = [[coerce(x) for x in r] for r in mat]
            if len(rows) != dst.ngens or any(len(r) != src.ngens for r in rows):
                raise ValueError(
                    f"matrix rows are not {dst.ngens}x{src.ngens} for map "
                    f"{src.ngens} -> {dst.ngens} generators"
                )
            mat = Matrix(src.base, rows, shape=(dst.ngens, src.ngens))
        if (mat.m, mat.n) != (dst.ngens, src.ngens):
            raise ValueError(
                f"matrix {mat.m}x{mat.n} against map "
                f"{src.ngens} -> {dst.ngens} generators"
            )
        if check and not all(dst.is_zero_vec(c) for c in (mat * src.rel).cols()):
            raise ValueError("matrix does not respect the relations")
        self.src = src
        self.dst = dst
        self.mat = Matrix.from_cols(
            src.base, [dst.reduce_vec(mat.col(j)) for j in range(mat.n)], dst.ngens
        )

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, M: FPModule) -> "FPMap":
        return cls(M, M, Matrix.identity(M.base, M.ngens), check=False)

    @classmethod
    def zero(cls, src: FPModule, dst: FPModule) -> "FPMap":
        return cls(src, dst, Matrix.zeros(src.base, dst.ngens, src.ngens), check=False)

    @classmethod
    def scalar(cls, M: FPModule, a) -> "FPMap":
        """Multiplication by the algebra element with base payload a."""
        a = M.base.coerce_payload(a)
        return cls(
            M,
            M,
            Matrix.diagonal(M.base, [a] * M.ngens, M.ngens, M.ngens),
            check=False,
        )

    # -- behaviour ----------------------------------------------------
    def __call__(self, v):
        return self.dst.reduce_vec(matvec(self.mat, self.src.coerce_vec(v)))

    def compose(self, other: "FPMap") -> "FPMap":
        """self after other."""
        if other.dst != self.src:
            raise ValueError("composition mismatch")
        return FPMap(other.src, self.dst, self.mat * other.mat, check=False)

    def __mul__(self, other):
        if not isinstance(other, FPMap):
            return NotImplemented
        return self.compose(other)

    def __eq__(self, other):
        return (
            isinstance(other, FPMap)
            and other.src == self.src
            and other.dst == self.dst
            and other.mat == self.mat
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.mat))

    def __repr__(self):
        return f"FPMap({self.src!r} -> {self.dst!r})"

    def is_zero_map(self) -> bool:
        return self.mat.is_zero()

    # -- exactness ----------------------------------------------------
    def _kernel_cols(self) -> Matrix:
        return _projected_kernel(hstack(self.mat, self.dst.rel), self.src.ngens)

    def kernel(self):
        """(K, incl) with incl: K -> src exact onto the kernel."""
        return submodule(self.src, self._kernel_cols())

    def cokernel(self):
        """(C, proj) with proj: dst -> C the quotient by the image."""
        return quotient(self.dst, self.mat)

    def is_injective(self) -> bool:
        return all(self.src.is_zero_vec(c) for c in self._kernel_cols().cols())

    def is_surjective(self) -> bool:
        dst = self.dst
        return FPModule(dst.algebra, dst.ngens, hstack(dst.rel, self.mat)).is_zero_module()

    def is_iso(self) -> bool:
        return self.is_surjective() and self.is_injective()

def _solve_top(A: Matrix, B: Matrix, top: int):
    """Solve A [x; w] = b per column of B; return the x-rows, or None."""
    X = solve_matrix(A, B)
    if X is None:
        return None
    return Matrix(A.ring, X.rows[:top], shape=(top, X.n))


# -- subquotients -----------------------------------------------------


def submodule(M: FPModule, G: Matrix):
    """(S, incl) for the submodule of M spanned by the columns of G."""
    rel = _projected_kernel(hstack(G, M.rel), G.n)
    S = FPModule(M.algebra, G.n, rel)
    return S, FPMap(S, M, G, check=False)


def quotient(M: FPModule, H: Matrix):
    """(Q, proj) for M divided by the span of the columns of H."""
    Q = FPModule(M.algebra, M.ngens, hstack(M.rel, H))
    return Q, FPMap(M, Q, Matrix.identity(M.base, M.ngens), check=False)


def _projected_kernel(A: Matrix, top: int) -> Matrix:
    """Columns spanning the top ``top`` rows of the kernel of A: the
    extended-gcd sweep when A has one row, else the SNF kernel."""
    if A.m == 1:
        return _row_syzygies(A.ring, A.rows[0], top)
    Kb = kernel_basis(A)
    return Matrix(A.ring, Kb.rows[:top], shape=(top, Kb.n))


def _row_syzygies(ring: Ring, a, top: int) -> Matrix:
    """Column-echelon basis of {c : sum_{i<top} c_i a_i in (a_top, ...)}.

    Swept from the last entry up, with T_r = gcd(a_{r+1}, ..., a_{top-1},
    tail) and E_r its cofactors on rows r+1, ..., top-1 (``Ring.xgcd``,
    carried up the row).  Row r's column has pivot T_r / gcd(a_r, T_r)
    and entries -(a_r / gcd(a_r, T_r)) E_r below it; it is e_r when
    a_r = 0, and row r has no column when T_r = 0 != a_r.  This is the
    extended-gcd case of Havas, Majewski & Matthews (1998).
    """
    zero, one = ring.zero, ring.one
    T = zero
    for x in a[top:]:
        T = ring.gcd(T, x)
    E = [zero] * top
    cols = []
    for r in range(top - 1, -1, -1):
        ar = a[r]
        col = [zero] * top
        if ar == zero:
            col[r] = one
            cols.append(col)
            continue
        # row 0 is the last row swept, so its cofactors are never read
        if r:
            g, s, t = ring.xgcd(ar, T)
        else:
            g = ring.gcd(ar, T)
        if T != zero:
            col[r] = ring.divmod_(T, g)[0]
            if r + 1 < top:
                q = ring.neg(ring.divmod_(ar, g)[0])
                for i in range(r + 1, top):
                    if E[i] != zero:
                        col[i] = ring.mul(q, E[i])
            cols.append(col)
        if r:
            if t != one:
                E = [ring.mul(t, e) if e != zero else zero for e in E]
            E[r] = s
        T = g
    cols.reverse()
    return Matrix.from_cols(ring, cols, top)


def factor_through(u: FPMap, through: FPMap):
    """v with through * v = u, or None; meant for mono ``through``
    (kernel and image inclusions), where v is unique if it exists."""
    if u.dst != through.dst:
        raise ValueError("factorization needs a common target")
    big = hstack(through.mat, u.dst.rel)
    X = _solve_top(big, u.mat, through.src.ngens)
    if X is None:
        return None
    return FPMap(u.src, through.src, X)


def is_exact_pair(f: FPMap, g: FPMap) -> bool:
    """Does im(f) = ker(g) hold inside f.dst = g.src?

    Certified both ways: the composite vanishes, and every kernel
    column of g is zero modulo the image of f and the relations of f.dst.
    """
    if f.dst != g.src:
        raise ValueError("exactness needs composable maps")
    if not (g * f).is_zero_map():
        return False
    coker = FPModule(f.dst.algebra, f.dst.ngens, hstack(f.dst.rel, f.mat))
    return all(coker.is_zero_vec(c) for c in g._kernel_cols().cols())


def pushout(f: FPMap, g: FPMap):
    """(P, in_f, in_g) for the pushout of f: A -> B against g: A -> C.

    P = (B + C) / <(f a, -g a)>, in_f: B -> P, in_g: C -> P.
    """
    if f.src != g.src:
        raise ValueError("pushout needs a common source")
    B, C = f.dst, g.dst
    base = B.base
    rel = hstack(block_diag(base, [B.rel, C.rel]), vstack(f.mat, -g.mat))
    P = FPModule(B.algebra, B.ngens + C.ngens, rel)
    zbc = Matrix.zeros(base, C.ngens, B.ngens)
    zcb = Matrix.zeros(base, B.ngens, C.ngens)
    in_f = FPMap(B, P, vstack(Matrix.identity(base, B.ngens), zbc), check=False)
    in_g = FPMap(C, P, vstack(zcb, Matrix.identity(base, C.ngens)), check=False)
    return P, in_f, in_g


# -- tensor -----------------------------------------------------------


def tensor(M: FPModule, N: FPModule) -> FPModule:
    """M tensor N over the algebra; generator (i, j) sits at i*N.ngens + j."""
    if M.algebra != N.algebra:
        raise ValueError("tensor needs a common algebra")
    base = M.base
    IM = Matrix.identity(base, M.ngens)
    IN = Matrix.identity(base, N.ngens)
    rel = hstack(kron(M.rel, IN), kron(IM, N.rel))
    return FPModule(M.algebra, M.ngens * N.ngens, rel)


def tensor_map(f: FPMap, g: FPMap, src: FPModule | None = None, dst: FPModule | None = None) -> FPMap:
    if src is None:
        src = tensor(f.src, g.src)
    if dst is None:
        dst = tensor(f.dst, g.dst)
    return FPMap(src, dst, kron(f.mat, g.mat), check=False)


def tensor_swap(M: FPModule, N: FPModule, src: FPModule | None = None, dst: FPModule | None = None) -> FPMap:
    """The braiding M tensor N -> N tensor M."""
    if src is None:
        src = tensor(M, N)
    if dst is None:
        dst = tensor(N, M)
    base = M.base
    rows = [[base.zero] * (M.ngens * N.ngens) for _ in range(N.ngens * M.ngens)]
    for i in range(M.ngens):
        for j in range(N.ngens):
            rows[j * M.ngens + i][i * N.ngens + j] = base.one
    return FPMap(src, dst, Matrix(base, rows), check=False)


# -- hom --------------------------------------------------------------


class HomModule:
    """Hom(M, N) as an FPModule, with translation to FPMaps.

    A map is a (N.ngens x M.ngens) matrix X; its vectorization is
    vec(X)[j*N.ngens + i] = X[i][j].  Generators of ``module`` are the
    columns of ``G`` (vectorized matrices); two matrices give the same
    map exactly when their difference lies in colspan(I tensor N.rel).
    """

    __slots__ = ("src", "dst", "module", "G")

    def __init__(self, M: FPModule, N: FPModule):
        if M.algebra != N.algebra:
            raise ValueError("hom needs a common algebra")
        base = M.base
        gM, gN = M.ngens, N.ngens
        K = kron(M.rel.transpose(), Matrix.identity(base, gN))
        L = kron(Matrix.identity(base, M.rel.n), N.rel)
        G = _projected_kernel(hstack(K, L), gM * gN)
        T = kron(Matrix.identity(base, gM), N.rel)
        rel = _projected_kernel(hstack(G, T), G.n)
        self.src = M
        self.dst = N
        self.module = FPModule(M.algebra, G.n, rel)
        self.G = G

    def to_map(self, coords) -> FPMap:
        v = matvec(self.G, self.module.coerce_vec(coords))
        gN = self.dst.ngens
        rows = [
            [v[j * gN + i] for j in range(self.src.ngens)] for i in range(gN)
        ]
        mat = Matrix(self.src.base, rows, shape=(gN, self.src.ngens))
        return FPMap(self.src, self.dst, mat, check=False)


# -- base change ------------------------------------------------------


def base_change(M: FPModule, new_algebra: Ring, entry_map) -> FPModule:
    """Push the presentation through a base-ring map, entry by entry."""
    return FPModule(
        new_algebra,
        M.ngens,
        [[entry_map(x) for x in M.rel.col(j)] for j in range(M.rel.n)],
    )


# -- isomorphism type -------------------------------------------------


def are_isomorphic(M: FPModule, N: FPModule) -> bool:
    return M.algebra == N.algebra and M.structure() == N.structure()
