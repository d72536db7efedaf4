"""Monomial-ideal truncation towers over k[x_1 .. x_r], exact and free of
coefficient arithmetic: a monomial is an exponent tuple, an ideal a finite
antichain of minimal generators.  A tower is read off one walk, by degree
from 1, of the I-adic order function ord(m) = max{k : m in I^k} (Swanson
& Huneke, *Integral Closure of Ideals, Rings, and Modules*, 2006): ord(m)
= max over generators g | m of 1 + ord(m/g), or 0 when no generator
divides m.  The standard monomials of I^{N+1} are {ord <= N} (Bayer &
Stillman, J. Symbolic Comput. 14, 1992), closed under division, so a
quotient the walk never reached has ord > N.  Level n has the deg-lex
basis {ord <= n}; 1 <= ord <= n spans its ideal I/I^{n+1}, and ord = n
its graded piece I^n/I^{n+1}.

Guards: a quotient basis exists only when the ideal contains a pure power
of every variable (or is the unit ideal); a tower holding more than
MONOMIAL_BUDGET entries is refused while the walk runs, and one needing
more than MONOMIAL_WORK divisibility tests and generator products before
they are made.
"""

from __future__ import annotations

from collections import Counter
from operator import add, le, sub

# Entries a tower report may hold: one per level, and one per level that
# lists each standard monomial (levels k..N for order k).  The deck's
# largest tower, (x^3, y^2, xy) at N = 30, holds 26,815.
MONOMIAL_BUDGET = 250_000

# Divisibility tests of the walk (each candidate against each generator of
# degree at most its own, rejected candidates included) plus the products
# that form I^{n+1} from I^n for the re-truncation links.  The deck's
# costliest tower, (x^2, y^2, z^2, w^2, xyz) at N = 6, makes 21,460, and
# at N = 10 98,310 (0.3 s on a 2-core machine); the maximal ideal of 60
# variables at N = 2 would make 2.5 million (6.3 s).
MONOMIAL_WORK = 1_000_000


class TowerTooLarge(ValueError):
    """The tower would hold more than MONOMIAL_BUDGET entries, or take more
    than MONOMIAL_WORK tests and products to build."""


def _spend(work: int, more: int) -> int:
    """Add ``more`` steps to ``work``, refusing past MONOMIAL_WORK."""
    work += more
    if work > MONOMIAL_WORK:
        raise TowerTooLarge(f"the tower would take more than {MONOMIAL_WORK} monomial tests and products")
    return work


def _deglex_key(m):  # total degree, then lex with earlier variables first
    return (sum(m), tuple(-e for e in m))


def _has_divisor(trie, m, i=0) -> bool:
    """Does a monomial in ``trie`` (nested dicts by exponent of x_1, x_2, ..) divide m?"""
    return i == len(m) or any(e <= m[i] and _has_divisor(t, m, i + 1) for e, t in trie.items())


def _trie(monomials):
    root = {}
    for m in monomials:
        node = root
        for e in m:
            node = node.setdefault(e, {})
    return root


def minimalize(gens):
    """Antichain of minimal generators, deg-lex sorted.  A distinct divisor
    has lower degree, so each is looked up among the kept lower degrees."""
    out, trie, deg = [], {}, None
    for g in sorted(set(gens), key=_deglex_key):
        if sum(g) != deg:
            deg, trie = sum(g), _trie(out)
        if not _has_divisor(trie, g):
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
        self.field, self.r = field, r
        self.gens = tuple(minimalize(gens))
        self.names = tuple(names) if names else default_var_names(r)
        if len(self.names) != r:
            raise ValueError("variable name count mismatch")

    def is_unit_ideal(self) -> bool:
        return any(sum(g) == 0 for g in self.gens)

    def times_ideal(self, gens):
        """Minimal generators of the product of (gens) with I."""
        return minimalize(tuple(map(add, a, g)) for a in gens for g in self.gens)

    def missing_pure_power(self):
        """First variable index with no pure power among the generators, or None."""
        return next((i for i in range(self.r) if not any(0 < g[i] == sum(g) for g in self.gens)), None)

    def is_cofinite(self) -> bool:
        """Does A/I have a finite monomial basis?"""
        return self.is_unit_ideal() or self.missing_pure_power() is None

    def format_monomial(self, m) -> str:
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.names, m) if e) or "1"

    def __repr__(self):
        gs = ", ".join(self.format_monomial(g) for g in self.gens) or "0"
        return f"MonomialLocalRing({self.field!r}[{', '.join(self.names)}], ideal ({gs}))"


def default_var_names(r: int):
    return tuple("xyz"[:r]) if r <= 3 else tuple(f"x{i + 1}" for i in range(r))


def _order_walk(Rm: MonomialLocalRing, N: int):
    """({m: ord(m)} for the standard monomials of I^{N+1}, in deg-lex order;
    the divisibility tests it made).

    A monomial whose last variable is x_j (x_1 for 1) steps up x_j .. x_r
    only, so each is reached once and each degree comes out in deg-lex
    order.  Under the unit ideal 1 already has order above N."""
    if not Rm.is_cofinite():
        i = Rm.missing_pure_power() + 1
        raise ValueError("quotient is infinite-dimensional: no pure power of variable %d" % i)
    r, order, listed = Rm.r, {}, N + 1
    layer, degree = [((0,) * r, 0)], 0
    gens = [g for g in Rm.gens if sum(g) <= degree]
    work = _spend(0, len(gens))
    while layer:
        kept = []
        for c, j in layer:
            if listed > MONOMIAL_BUDGET:
                raise TowerTooLarge(f"the tower would hold more than {MONOMIAL_BUDGET} entries")
            o = 0
            for g in gens:
                if all(map(le, g, c)):
                    o = max(o, order.get(tuple(map(sub, c, g)), N) + 1)
            if o <= N:
                listed += N + 1 - o
                order[c] = o
                kept.append((c, j))
        degree += 1
        gens = [g for g in Rm.gens if sum(g) <= degree]
        # the next degree's tests are charged before its candidates are built
        work = _spend(work, sum(r - j for _, j in kept) * len(gens))
        layer = [(c[:k] + (c[k] + 1,) + c[k + 1:], k) for c, j in kept for k in range(j, r)]
    return order, work


def transition_is_epi(lower_basis, upper_basis) -> bool:
    """Is A/I^{n+1} -> A/I^n onto, given the standard-monomial bases of
    the two levels?  The map sends a standard monomial to itself or to 0,
    so it is onto exactly when the lower basis lies inside the upper one."""
    return set(lower_basis) <= set(upper_basis)


def monomial_tower(Rm: MonomialLocalRing, N: int):
    """Tower-shaped report: per-level dimensions plus re-truncation checks.

    Level 0's transition goes to A/I^0 = 0, whose basis is empty.  Level n
    re-truncates from level N when I^{N+1} lies in I^{n+1}, certified link
    by link: each generator of I^{k+1} has a divisor among those of I^k."""
    if N < 0:
        raise ValueError("tower bound must be >= 0")
    walk, work = _order_walk(Rm, N)
    names = {m: Rm.format_monomial(m) for m in walk}
    graded = Counter(walk.values())
    links, power = [], [(0,) * Rm.r]
    for _ in range(N + 1):
        work = _spend(work, len(power) * len(Rm.gens))
        power, trie = Rm.times_ideal(power), _trie(power)
        links.append(all(_has_divisor(trie, c) for c in power))
    levels, lower = [], []
    for n in range(N + 1):
        basis = [m for m, o in walk.items() if o <= n]
        levels.append({"level": n, "algebra_dim": len(basis), "ideal_dim": len(basis) - graded[0],
                       "graded_dim": graded[n], "basis": [names[m] for m in basis],
                       "transition_epi": transition_is_epi(lower, basis),
                       "retruncation_consistent": all(links[n + 1:])})
        lower = basis
    return {"engine": "monomial", "variables": list(Rm.names),
            "ideal": [Rm.format_monomial(g) for g in Rm.gens], "levels": levels}


def parse_monomial(text: str, names) -> tuple:
    """'x^2*y' -> (2, 1); '1' is the empty product."""
    text = text.strip()
    exps = [0] * len(names)
    if text in ("1", ""):
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        var, caret, e = factor.partition("^")
        var, e = var.strip(), e.strip() if caret else "1"
        if not e.isdigit():
            raise ValueError(f"bad exponent in {factor!r}")
        if var not in names:
            raise ValueError(f"unknown variable {var!r} (have {', '.join(names)})")
        exps[names.index(var)] += int(e)
    return tuple(exps)
