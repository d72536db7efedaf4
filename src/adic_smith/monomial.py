"""Monomial-ideal truncation towers over k[x_1 .. x_r].

Everything here is exponent combinatorics: a monomial is an exponent
tuple, an ideal is a finite antichain of minimal generators, and
membership is a divisibility test.  Quotients A/I^{n+1} get explicit
standard-monomial bases in degree-lex order, so towers over the
multivariate ring stay exact without any coefficient arithmetic.

Finiteness guard: a quotient basis exists only when the ideal contains
a pure power of every variable (or is the unit ideal).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _deglex_key(m):
    # total degree, then lex with earlier variables first
    return (sum(m), tuple(-e for e in m))


def minimalize(gens):
    """Antichain of minimal generators, deg-lex sorted."""
    gens = sorted(set(gens), key=_deglex_key)
    out = []
    for g in gens:
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return out


class MonomialLocalRing:
    """k[x_1..x_r] with a monomial ideal, held as minimal generators."""

    __slots__ = ("field", "r", "gens", "names")

    def __init__(self, field, r: int, gens, names=None):
        if r < 1:
            raise ValueError("need at least one variable")
        gens = [tuple(int(e) for e in g) for g in gens]
        for g in gens:
            if len(g) != r or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector for {r} variables: {g}")
        self.field = field
        self.r = r
        self.gens = tuple(minimalize(gens))
        self.names = tuple(names) if names else default_var_names(r)
        if len(self.names) != r:
            raise ValueError("variable name count mismatch")

    def is_unit_ideal(self) -> bool:
        return any(sum(g) == 0 for g in self.gens)

    def contains(self, m) -> bool:
        return any(_divides(g, m) for g in self.gens)

    def power_gens(self, n: int):
        """Minimal generators of I^n; I^0 is the unit ideal."""
        if n == 0:
            return [(0,) * self.r]
        prods = []
        for combo in combinations_with_replacement(range(len(self.gens)), n):
            s = [0] * self.r
            for t in combo:
                g = self.gens[t]
                for i in range(self.r):
                    s[i] += g[i]
            prods.append(tuple(s))
        return minimalize(prods)

    def is_cofinite(self) -> bool:
        """Does A/I have a finite monomial basis?"""
        if self.is_unit_ideal():
            return True
        for i in range(self.r):
            if not any(g[i] > 0 and all(g[j] == 0 for j in range(self.r) if j != i) for g in self.gens):
                return False
        return True

    def format_monomial(self, m) -> str:
        if sum(m) == 0:
            return "1"
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self):
        gs = ", ".join(self.format_monomial(g) for g in self.gens) or "0"
        return f"MonomialLocalRing({self.field!r}[{', '.join(self.names)}], ideal ({gs}))"


def default_var_names(r: int):
    if r <= 3:
        return tuple("xyz"[:r])
    return tuple(f"x{i + 1}" for i in range(r))


def _in_any(gens, m) -> bool:
    return any(_divides(g, m) for g in gens)


def _standard_monomials(r: int, gens):
    """Monomials outside the ideal spanned by ``gens``, deg-lex sorted.

    Raises when the complement is infinite, detected by a missing pure
    variable power among the generators.
    """
    if any(sum(g) == 0 for g in gens):
        return []
    caps = []
    for i in range(r):
        pure = [g[i] for g in gens if g[i] > 0 and all(g[j] == 0 for j in range(r) if j != i)]
        if not pure:
            raise ValueError("quotient is infinite-dimensional: no pure power of variable %d" % (i + 1))
        caps.append(min(pure))
    out = [m for m in product(*[range(c) for c in caps]) if not _in_any(gens, m)]
    out.sort(key=_deglex_key)
    return out


def quotient_basis(Rm: MonomialLocalRing, n: int):
    """Standard-monomial basis of A/I^{n+1}, deg-lex sorted."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return _standard_monomials(Rm.r, Rm.power_gens(n + 1))


def hilbert_graded_dims(Rm: MonomialLocalRing, N: int):
    """dim_k(I^n/I^{n+1}) for n = 0..N, by direct monomial counting."""
    dims = []
    for n in range(N + 1):
        lower = Rm.power_gens(n)
        basis = quotient_basis(Rm, n)
        dims.append(sum(1 for m in basis if _in_any(lower, m)))
    return dims


def transition_is_epi(lower_basis, upper_basis) -> bool:
    """Is A/I^{n+1} -> A/I^n onto, given the standard-monomial bases of
    the two levels?  The map sends a standard monomial to itself or to 0,
    so it is onto exactly when the lower basis lies inside the upper one."""
    upper = set(upper_basis)
    return all(m in upper for m in lower_basis)


def monomial_tower(Rm: MonomialLocalRing, N: int):
    """Tower-shaped report: per-level dimensions plus re-truncation checks.

    Level 0's transition goes to A/I^0 = 0, whose basis is empty."""
    if N < 0:
        raise ValueError("tower bound must be >= 0")
    graded = hilbert_graded_dims(Rm, N)
    cap = Rm.power_gens(N + 1)
    levels = []
    lower = []
    for n in range(N + 1):
        basis = quotient_basis(Rm, n)
        ideal_dim = sum(1 for m in basis if Rm.contains(m))
        retrunc = minimalize(list(Rm.power_gens(n + 1)) + list(cap)) == Rm.power_gens(n + 1)
        levels.append(
            {
                "level": n,
                "algebra_dim": len(basis),
                "ideal_dim": ideal_dim,
                "graded_dim": graded[n],
                "basis": [Rm.format_monomial(m) for m in basis],
                "transition_epi": transition_is_epi(lower, basis),
                "retruncation_consistent": retrunc,
            }
        )
        lower = basis
    return {
        "engine": "monomial",
        "variables": list(Rm.names),
        "ideal": [Rm.format_monomial(g) for g in Rm.gens],
        "levels": levels,
    }


def parse_monomial(text: str, names) -> tuple:
    """'x^2*y' -> (2, 1); '1' is the empty product."""
    text = text.strip()
    exps = [0] * len(names)
    if text in ("1", ""):
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            var, _, e = factor.partition("^")
            var, e = var.strip(), e.strip()
            if not e.isdigit():
                raise ValueError(f"bad exponent in {factor!r}")
            k = int(e)
        else:
            var, k = factor, 1
        if var not in names:
            raise ValueError(f"unknown variable {var!r} (have {', '.join(names)})")
        exps[names.index(var)] += k
    return tuple(exps)
