"""Depth-bounded almost mathematics over the dyadic root ladder.

The base is k[t] enlarged by square roots: depth d works in
V_d = k[u_d] with u_d = t^(1/2^d), so u_{d+1}^2 = u_d and the ideal
generated by all the u_d is idempotent in the limit.  Everything here
is finite evidence: a module lives at its defining depth, gets base
changed along the free ladder maps on demand, and every "almost"
verdict is indexed by the depths actually checked, never quantified
over all exponents.

Multipliers below the defining depth are evaluated without leaving the
ladder: testing depth e on a module defined at depth d > e multiplies
by the image u_d^(2^(d-e)) of u_e.
"""

from __future__ import annotations

from adic_smith.arrowcat import Arrow, embed, pushout_product
from adic_smith.fpmod import FPMap, FPModule, base_change, quotient, submodule
from adic_smith.linalg import Matrix, hstack
from adic_smith.rings import QuotientRing, SparsePolyRing, algebra_split
from adic_smith.tower import SmithIdeal, identity_on_generators, tower_levels

# Depth budget of the ``almost`` command, with or without --witness.
# Depth K lifts t to u_K^(2^K), one term of a ladder payload, so a run
# costs about its K + 1 depths times its levels, not 2^K.  Measured at
# --levels 3 on a 2-core machine with Python 3.11: depth 14000 takes
# 2.4-2.7 s and 83 MB, 3.4-3.8 s and 172 MB with --witness
# --with-certificates (4.8 s and 182 MB at --levels 4).  The certificates print the exponent 2^K, and Python
# by default refuses to convert an int of more than 4,300 digits to text,
# which K = 14285 would need; the budget stays below that.  Deeper
# requests are refused before anything is built.
MAX_DEPTH = 14000


class AlmostContext:
    """The ladder V_0 .. V_K with its identifications.

    Depth 0 uses the variable t; deeper levels use u1, u2, ...  The
    ladder map V_d -> V_e (e >= d) substitutes u_d = u_e^(2^(e-d)).
    """

    __slots__ = ("field", "K", "_rings", "_depths")

    def __init__(self, field, K: int):
        if K < 0:
            raise ValueError("depth bound must be >= 0")
        self.field = field
        self.K = K
        self._rings = {}
        self._depths = {}  # ring -> depth, for the rings built so far

    def ring(self, d: int) -> SparsePolyRing:
        if not 0 <= d <= self.K:
            raise ValueError(f"depth {d} outside 0..{self.K}")
        if d not in self._rings:
            R = self._rings[d] = SparsePolyRing(self.field, "t" if d == 0 else f"u{d}")
            self._depths[R] = d
        return self._rings[d]

    def lift(self, payload, d_from: int, d_to: int):
        """Image of a depth-d_from element at depth d_to >= d_from."""
        if d_to < d_from:
            raise ValueError("cannot move down the ladder")
        return self.ring(d_from).stretch(payload, 1 << (d_to - d_from))

    def multiplier(self, e: int, at_depth: int):
        """The image of u_e in V_{at_depth}; needs at_depth >= e."""
        if at_depth < e:
            raise ValueError("multiplier only exists at depths >= e")
        R = self.ring(at_depth)
        return R.stretch(R.gen, 1 << (at_depth - e))

    def depth_of(self, algebra) -> int:
        """The depth whose ring is the base of ``algebra``.  A ring not
        built here names its depth in its variable, checked against the
        ring built at that depth."""
        base, _ = algebra_split(algebra)
        if base in self._depths:
            return self._depths[base]
        var = base.variable or ""
        if var == "t":
            d = 0
        elif var[:1] == "u" and var[1:].isdecimal():
            d = int(var[1:])
        else:
            d = -1
        if 0 <= d <= self.K and self.ring(d) == base:
            return d
        raise ValueError(f"ring {base!r} is not on this ladder")

    def describe(self):
        return {
            "field": self.field.to_json(),
            "max_depth": self.K,
            "ideal": "all positive dyadic powers of t",
        }


def _stretch_algebra(ctx: AlmostContext, algebra, d_from: int, d_to: int):
    base, modulus = algebra_split(algebra)
    new_base = ctx.ring(d_to)
    if modulus is None:
        return new_base
    return QuotientRing(new_base, ctx.lift(modulus, d_from, d_to))


def module_at_depth(ctx: AlmostContext, M: FPModule, d_from: int, d_to: int) -> FPModule:
    if d_to == d_from:
        return M
    alg = _stretch_algebra(ctx, M.algebra, d_from, d_to)
    s = 1 << (d_to - d_from)
    R = ctx.ring(d_from)
    return base_change(M, alg, lambda p: R.stretch(p, s))


class AlmostModule:
    """A module pinned to its defining depth on the ladder."""

    __slots__ = ("ctx", "depth", "module")

    def __init__(self, ctx: AlmostContext, depth: int, module: FPModule):
        if ctx.depth_of(module.algebra) != depth:
            raise ValueError("module base does not sit at the stated depth")
        self.ctx = ctx
        self.depth = depth
        self.module = module

    def at_depth(self, e: int) -> FPModule:
        return module_at_depth(self.ctx, self.module, self.depth, e)

    def describe(self):
        return {"depth": self.depth, "module": self.module.describe()}


class DepthVerdict:
    """Per-depth evidence; entries map depth -> bool or dict of bools."""

    __slots__ = ("kind", "entries")

    def __init__(self, kind: str, entries):
        self.kind = kind
        self.entries = dict(entries)

    def at(self, e: int):
        return self.entries[e]

    def describe(self):
        return {
            "check": self.kind,
            "depths": {str(e): self.entries[e] for e in sorted(self.entries)},
        }


def almost_zero_to_depth(am: AlmostModule, K: int) -> DepthVerdict:
    """Is u_e * M = 0, for each depth e <= K?

    u_e * M = 0 exactly when u_e * g_i lies in the relation lattice for
    every generator g_i, so each depth asks ``is_zero_vec`` of those
    vectors, in the module moved to depth max(e, defining depth), and
    stops at the first that is not zero.  No map is built.
    """
    ctx = am.ctx
    entries = {}
    for e in range(K + 1):
        dd = max(e, am.depth)
        Md = am.at_depth(dd)
        u = ctx.multiplier(e, dd)
        zero = [Md.base.zero] * Md.ngens
        entries[e] = all(
            Md.is_zero_vec(zero[:i] + [u] + zero[i + 1 :]) for i in range(Md.ngens)
        )
    return DepthVerdict("almost-zero", entries)


def almost_iso_to_depth(ctx: AlmostContext, f: FPMap, K: int) -> DepthVerdict:
    """Kernel and cokernel u_e-annihilation of the base-changed map."""
    d0 = ctx.depth_of(f.src.algebra)
    ker0, _ = f.kernel()
    cok0, _ = f.cokernel()
    kz = almost_zero_to_depth(AlmostModule(ctx, d0, ker0), K)
    cz = almost_zero_to_depth(AlmostModule(ctx, d0, cok0), K)
    entries = {
        e: {
            "almost_injective": kz.at(e),
            "almost_surjective": cz.at(e),
            "almost_iso": kz.at(e) and cz.at(e),
        }
        for e in range(K + 1)
    }
    return DepthVerdict("almost-iso", entries)


class LevelDepthVerdict:
    """Grid over (tower level, depth): exact comparison plus the
    almost relaxation of the same comparison at every depth."""

    __slots__ = ("levels", "exact_ok", "ok_at_depth")

    def __init__(self, levels):
        self.levels = list(levels)
        self.exact_ok = all(lv["exact_iso"] for lv in self.levels)
        depths = sorted(self.levels[0]["depths"]) if self.levels else []
        self.ok_at_depth = {
            e: all(lv["depths"][e]["almost_iso"] for lv in self.levels) for e in depths
        }

    def describe(self):
        return {
            "check": "almost-adic",
            "exact_ok": self.exact_ok,
            "ok_at_depth": {str(e): v for e, v in sorted(self.ok_at_depth.items())},
            "levels": [
                {
                    "level": lv["level"],
                    "exact_iso": lv["exact_iso"],
                    "depths": {str(e): lv["depths"][e] for e in sorted(lv["depths"])},
                }
                for lv in self.levels
            ],
        }


def _scalar_block(M: FPModule, scalars) -> Matrix:
    out = Matrix.zeros(M.base, M.ngens, 0)
    for s in scalars:
        out = hstack(out, FPMap.scalar(M, s).mat)
    return out


def _image_form_level(ideal: SmithIdeal, M: FPModule, n: int) -> Arrow:
    """The arrow IM/I^{n+1}M -> M/I^{n+1}M."""
    Mbar, _ = quotient(M, _scalar_block(M, ideal.power_products(n + 1)))
    _, incl = submodule(Mbar, _scalar_block(M, ideal.gens))
    return Arrow(incl)


def almost_adic_check(ctx: AlmostContext, ideal: SmithIdeal, am: AlmostModule, N: int, K: int) -> LevelDepthVerdict:
    """Compare the two level constructions of the adic tower of M and
    relax the comparison almost-wise.

    Level n compares P^n(j) box (0 -> M), whose components are built
    from tensor products with I/I^{n+1} and A/I^{n+1}, against the
    image form IM/I^{n+1}M -> M/I^{n+1}M, via the multiplication map.
    Exact isomorphy can fail on torsion noise that u-multipliers kill;
    the grid records both readings.
    """
    M = am.module
    if ideal.algebra != M.algebra:
        raise ValueError("ideal and module need a common algebra")
    LM = embed("L1", M)
    levels = []
    for lv in tower_levels(ideal, N):
        box = pushout_product(lv.arrow, LM)
        cmp_map = identity_on_generators(box, _image_form_level(ideal, M, lv.n))
        tv = almost_iso_to_depth(ctx, cmp_map.top, K)
        bv = almost_iso_to_depth(ctx, cmp_map.bottom, K)
        depths = {
            e: {
                "almost_injective": tv.at(e)["almost_injective"] and bv.at(e)["almost_injective"],
                "almost_surjective": tv.at(e)["almost_surjective"] and bv.at(e)["almost_surjective"],
                "almost_iso": tv.at(e)["almost_iso"] and bv.at(e)["almost_iso"],
            }
            for e in range(K + 1)
        }
        levels.append({"level": lv.n, "exact_iso": cmp_map.is_iso(), "depths": depths})
    return LevelDepthVerdict(levels)
