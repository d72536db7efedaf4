"""Exact base rings and their elements.

Every ring in the package is one of

* ``IntegerRing``            -- Z
* ``PolyRing(field, var)``   -- k[x] for k = Q or F_p
* ``SparsePolyRing(field, var)`` -- k[x] again, with term-list payloads;
  the rings of the dyadic ladder (``almost.AlmostContext``)
* ``QuotientRing(base, f)``  -- R/(f) with R Euclidean (Z or k[x]); nested
  quotients are rejected.  Z/n is ``QuotientRing(ZZ, n)``, whichever of
  its two JSON spellings names it.

Arithmetic is done on raw *payloads* (int, tuple of coefficients, ...),
not on wrapper objects, so the linear-algebra layer can run tight loops.
All payloads are kept canonical at all times:

* polynomial coefficient tuples have no trailing zeros
* a Q coefficient is an ``int`` when it is integral and a
  ``fractions.Fraction`` with denominator > 1 otherwise, so each value
  has one type; ``Fraction(n, 1)`` is never a payload
* sparse polynomial payloads list their nonzero terms by exponent
* quotient payloads are reduced mod the canonical associate of the
  modulus (nonnegative for Z, monic for k[x])

``PolyRing`` arithmetic relies on that contract instead of checking it.
Coefficients are accumulated with Python's own ``+`` and ``*``, starting
from ``field.zero``, and each output coefficient is made canonical once
at the end: ``% p`` over F_p, and over Q a ``Fraction`` whose
denominator came out 1 becomes its numerator.  So Q[x] payloads with
integral coefficients run on Python ints, and meet ``Fraction`` only
where a value is not integral (a division by a leading coefficient
other than +-1, say).  ``add`` and ``sub`` reduce mod p only the
coefficients both operands have, and ``mul`` and ``divmod_`` skip zero
coefficients, but each still costs the degree.  The dyadic ladder lifts
t to u^(2^K), so its rings are ``SparsePolyRing``, whose operations cost
the number of terms.  Values from outside enter through
``coerce_payload``; the columns of a ``linalg.Matrix`` are canonical,
and ``fpmod.FPModule`` takes them as they are.

No floating point is used anywhere.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from bisect import insort
from itertools import product, takewhile
from math import gcd
from operator import not_

# Largest exponent ``Ring.pow`` accepts.  Documents reach it through
# "a^n"; with repeated squaring 2^1024 or x^1024 is instant, while the
# dense (x + 1)^1024 over Q takes about 2 s, so larger exponents are
# refused instead of hanging the run.
POW_EXPONENT_CAP = 1024

# Miller-Rabin with the first 13 primes as bases is exact below this
# bound (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017, extending Jaeschke, Math. Comp. 61, 1993); larger
# characteristics are refused rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic primality test; ValueError at or above _MR_EXACT_BELOW."""
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"primality is certified only below {_MR_EXACT_BELOW}")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rational(c):
    """The canonical Q payload of the rational c: an int when c is
    integral, else the Fraction itself."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _rationals(cs) -> list:
    """``_rational`` of each of cs, in one pass."""
    return [c if type(c) is int or c.denominator != 1 else c.numerator for c in cs]


class RationalField:
    """Q, as a coefficient field.  Payloads are ints when integral and
    Fractions with denominator > 1 otherwise (see the module docstring)."""

    zero = 0
    one = 1

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _rational(Fraction(1, a))

    def from_int(self, k: int):
        return k

    def coerce(self, c):
        if isinstance(c, (int, Fraction)):
            return _rational(c)
        raise ValueError(f"not a rational coefficient: {c!r}")

    def is_negative(self, c) -> bool:
        return c < 0

    def fmt(self, c) -> str:
        return str(c)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def to_json(self):
        return "rationals"


class PrimeField:
    """F_p, as a coefficient field. Payloads are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def from_int(self, k: int):
        return k % self.p

    def coerce(self, c):
        if isinstance(c, int):
            return c % self.p
        raise ValueError(f"not an F_{self.p} coefficient: {c!r}")

    def is_negative(self, c) -> bool:
        return False

    def fmt(self, c) -> str:
        return str(c)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def to_json(self):
        return {"fp": self.p}


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


class Ring:
    """What every ring shares: powers, and the gcds of a Euclidean ring.

    Each concrete ring supplies its own ``zero``, ``one``, ``add``,
    ``sub``, ``mul``, ``neg``, ``from_int``, ``coerce_payload``,
    ``exact_div`` and ``format_elem``; Z and k[x] also ``is_unit`` and
    ``unit_inverse``.  Nothing here stands in for them.
    """

    is_euclidean = False
    variable: str | None = None

    # -- arithmetic ---------------------------------------------------
    def is_zero(self, a) -> bool:
        return a == self.zero

    def pow(self, a, n: int):
        """a^n by repeated squaring, for 0 <= n <= POW_EXPONENT_CAP."""
        if n < 0:
            raise ValueError("negative exponent")
        if n > POW_EXPONENT_CAP:
            raise ValueError(f"exponent {n} is above the cap {POW_EXPONENT_CAP}")
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return out

    # -- Euclidean structure (Z and k[x] only) ------------------------
    def divmod_(self, a, b):
        raise TypeError(f"{self!r} is not Euclidean")

    def euclid_size(self, a) -> int:
        raise TypeError(f"{self!r} is not Euclidean")

    def canonical_unit(self, a):
        """Unit u such that u*a is the canonical associate of a."""
        raise TypeError(f"{self!r} is not Euclidean")

    def canonical_assoc(self, a):
        return self.mul(self.canonical_unit(a), a)

    def gcd(self, a, b):
        """The canonical gcd of a and b, without the cofactors of ``xgcd``."""
        while not self.is_zero(b):
            a, b = b, self.divmod_(a, b)[1]
        u = self.canonical_unit(a)
        return a if u == self.one else self.mul(u, a)

    def xgcd(self, a, b):
        """(g, s, t) with g = s*a + t*b and g the canonical gcd."""
        r0, r1 = a, b
        s0, s1 = self.one, self.zero
        t0, t1 = self.zero, self.one
        while not self.is_zero(r1):
            q, r = self.divmod_(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        u = self.canonical_unit(r0) if not self.is_zero(r0) else self.one
        if u == self.one:
            return r0, s0, t0
        return self.mul(u, r0), self.mul(u, s0), self.mul(u, t0)

    # -- misc ---------------------------------------------------------
    def parse(self, text: str):
        from adic_smith import exprparse

        return exprparse.parse_payload(text, self)


class IntegerRing(Ring):
    is_euclidean = True
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, k):
        return k

    def coerce_payload(self, x):
        if isinstance(x, int):
            return x
        raise ValueError(f"not an integer payload: {x!r}")

    def divmod_(self, a, b):
        return divmod(a, b)

    def gcd(self, a, b):
        return gcd(a, b)

    def euclid_size(self, a):
        return abs(a)

    def canonical_unit(self, a):
        return -1 if a < 0 else 1

    def is_unit(self, a):
        return a in (1, -1)

    def unit_inverse(self, u):
        if u not in (1, -1):
            raise ValueError(f"not a unit in Z: {u}")
        return u

    def exact_div(self, a, b):
        if b == 0:
            raise ValueError("division by zero")
        q, r = divmod(a, b)
        if r != 0:
            raise ValueError(f"{b} does not divide {a} in Z")
        return q

    def format_elem(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


def _strip(coeffs: list) -> tuple:
    """The coefficient list without trailing zeros, as a payload tuple.
    The run of zeros is measured once (``takewhile`` runs in C) and cut
    off with one slice."""
    if coeffs and not coeffs[-1]:
        del coeffs[len(coeffs) - len(list(takewhile(not_, reversed(coeffs)))) :]
    return tuple(coeffs)


class PolyRing(Ring):
    """k[x] with k = Q or F_p. Payloads are coefficient tuples
    (c0, c1, ..., cd) with cd != 0; the zero polynomial is ()."""

    is_euclidean = True

    def __init__(self, field, var: str):
        if not isinstance(field, (RationalField, PrimeField)):
            raise ValueError(f"unsupported coefficient field: {field!r}")
        if not var.isidentifier():
            raise ValueError(f"bad variable name: {var!r}")
        self.field = field
        self.variable = var
        # the modulus coefficient sums are reduced by; 0 over Q, whose
        # sums are made canonical by ``_rationals`` instead
        self._p = field.p if isinstance(field, PrimeField) else 0
        self.zero = ()
        self.one = (field.one,)
        self.gen = (field.zero, field.one)

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        p = self._p
        if p:
            for i, c in enumerate(b):
                out[i] = (out[i] + c) % p
        else:
            for i, c in enumerate(b):
                out[i] += c
            out = _rationals(out)
        return _strip(out) if len(a) == len(b) else tuple(out)

    def sub(self, a, b):
        n = len(a)
        out = list(a)
        if len(b) > n:
            out += self.neg(b[n:])
        p = self._p
        if p:
            for i, c in enumerate(b[:n]):
                out[i] = (out[i] - c) % p
        else:
            for i, c in enumerate(b[:n]):
                out[i] -= c
            out = _rationals(out)
        return _strip(out) if len(b) == n else tuple(out)

    def neg(self, a):
        p = self._p
        if p:
            return tuple([-c % p for c in a])
        return tuple([-c for c in a])

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [self.field.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                k = i
                for cb in b:
                    if cb:
                        out[k] += ca * cb
                    k += 1
        p = self._p
        if p:
            return tuple([c % p for c in out])
        return tuple(_rationals(out))

    def from_int(self, k):
        c = self.field.from_int(k)
        return (c,) if c != self.field.zero else ()

    def coerce_payload(self, x):
        if isinstance(x, tuple):
            f, p = self.field, self._p
            if p:
                out = [c % p if type(c) is int else f.coerce(c) for c in x]
            else:
                out = [c if type(c) is int else f.coerce(c) for c in x]
            return _strip(out)
        if isinstance(x, int):
            return self.from_int(x)
        raise ValueError(f"not a polynomial payload: {x!r}")

    def degree(self, a) -> int:
        if not a:
            raise ValueError("degree of zero polynomial")
        return self.euclid_size(a)

    def divmod_(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        if len(a) <= db:
            return (), a
        p = self._p
        inv = self.field.inv(b[-1])
        low = b[:db]
        rem = list(a)
        q = [self.field.zero] * (len(a) - db)
        for d in range(len(q) - 1, -1, -1):
            c = rem[d + db] * inv
            c = c % p if p else _rational(c)
            if c:
                q[d] = c
                k = d
                for cb in low:
                    if cb:
                        rem[k] -= c * cb
                    k += 1
        del rem[db:]
        rem = [c % p for c in rem] if p else _rationals(rem)
        return tuple(q), _strip(rem)

    def euclid_size(self, a):
        return len(a) - 1 if a else 0

    def canonical_unit(self, a):
        if not a:
            return self.one
        return (self.field.inv(a[-1]),)

    def is_unit(self, a):
        return len(a) == 1

    def unit_inverse(self, u):
        if not self.is_unit(u):
            raise ValueError(f"not a unit in {self!r}: {u!r}")
        return self.canonical_unit(u)

    def exact_div(self, a, b):
        q, r = self.divmod_(a, b)
        if r:
            raise ValueError("inexact polynomial division")
        return q

    def format_elem(self, a):
        return self._format_terms([(i, c) for i, c in enumerate(a) if c])

    def _format_terms(self, terms):
        """The element whose nonzero terms are ``terms``, (exponent,
        coefficient) pairs by increasing exponent, highest term first."""
        if not terms:
            return "0"
        f = self.field
        parts = []
        for i, c in reversed(terms):
            neg = f.is_negative(c)
            mag = f.neg(c) if neg else c
            if i == 0:
                body = f.fmt(mag)
            else:
                x = self.variable if i == 1 else f"{self.variable}^{i}"
                body = x if mag == f.one else f"{f.fmt(mag)}*{x}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __eq__(self, other):
        # a sparse ring never equals a dense one: their payloads differ
        return other is self or (
            type(other) is type(self)
            and other.field == self.field
            and other.variable == self.variable
        )

    def __hash__(self):
        return hash((type(self), self.field, self.variable))

    def __repr__(self):
        return f"{self.field!r}[{self.variable}]"


class SparsePolyRing(PolyRing):
    """k[x] with payloads ((e0, c0), (e1, c1), ...), e0 < e1 < ..., every
    ci != 0, so u^(2^K) is one term.  Products accumulate in a dict;
    division reads each quotient term off the remainder's leading
    exponent (after Johnson, SIGSAM Bull. 8(3), 1974, and Monagan &
    Pearce, J. Symbolic Comput. 46(7), 2011, whose heap is a sorted list
    here: ``bisect`` is loaded anyway, while importing ``heapq`` adds
    about 70 kB to the peak memory of every process)."""

    def __init__(self, field, var: str):
        super().__init__(field, var)
        self.one = ((0, field.one),)
        self.gen = ((1, field.one),)

    def _canonical(self, acc: dict) -> tuple:
        """The payload whose terms are ``acc``'s nonzero ones, reduced mod p
        or made canonical rationals."""
        p = self._p
        if p:
            return tuple(sorted([(e, r) for e, c in acc.items() if (r := c % p)]))
        return tuple(sorted([(e, _rational(c)) for e, c in acc.items() if c]))

    def add(self, a, b):
        if not a or not b:
            return a or b
        acc = dict(a)
        get = acc.get
        for e, c in b:
            acc[e] = get(e, 0) + c
        return self._canonical(acc)

    def sub(self, a, b):
        if not b:
            return a
        acc = dict(a)
        get = acc.get
        for e, c in b:
            acc[e] = get(e, 0) - c
        return self._canonical(acc)

    def neg(self, a):
        p = self._p
        if p:
            return tuple([(e, -c % p) for e, c in a])
        return tuple([(e, -c) for e, c in a])

    def mul(self, a, b):
        acc = {}
        get = acc.get
        for ea, ca in a:
            for eb, cb in b:
                e = ea + eb
                acc[e] = get(e, 0) + ca * cb
        return self._canonical(acc)

    def from_int(self, k):
        c = self.field.from_int(k)
        return ((0, c),) if c else ()

    def coerce_payload(self, x):
        if isinstance(x, int):
            return self.from_int(x)
        if not isinstance(x, tuple):
            raise ValueError(f"not a sparse polynomial payload: {x!r}")
        acc, coerce = {}, self.field.coerce
        for t in x:
            if type(t) is not tuple or len(t) != 2 or type(t[0]) is not int or t[0] < 0:
                raise ValueError(f"not a sparse polynomial payload: {x!r}")
            acc[t[0]] = acc.get(t[0], 0) + coerce(t[1])
        return self._canonical(acc)

    def divmod_(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db, lead = b[-1]
        if not a or a[-1][0] < db:
            return (), a
        p = self._p
        inv = self.field.inv(lead)
        low = b[:-1]
        if not low:
            # a one-term divisor splits a's terms at its degree
            k = 0
            while a[k][0] < db:
                k += 1
            if p:
                q = [(e - db, c * inv % p) for e, c in a[k:]]
            else:
                q = [(e - db, _rational(c * inv)) for e, c in a[k:]]
            return tuple(q), a[:k]
        rem = dict(a)
        # the remainder's exponents >= db, ascending; an exponent whose
        # term cancelled is skipped when it comes off the end
        pending = [e for e, _ in a if e >= db]
        q = []
        while pending:
            e = pending.pop()
            c = rem.pop(e, None)
            if c is None:
                continue
            c *= inv
            c = c % p if p else _rational(c)
            s = e - db
            q.append((s, c))
            for eb, cb in low:
                k = s + eb
                v = rem.get(k, 0) - c * cb
                if p:
                    v %= p
                if v:
                    if k >= db and k not in rem:
                        insort(pending, k)
                    rem[k] = v
                else:
                    del rem[k]
        q.reverse()
        return tuple(q), self._canonical(rem)

    def euclid_size(self, a):
        return a[-1][0] if a else 0

    def canonical_unit(self, a):
        if not a:
            return self.one
        return ((0, self.field.inv(a[-1][1])),)

    def is_unit(self, a):
        return len(a) == 1 and a[0][0] == 0

    def stretch(self, a, s: int):
        """Substitute x -> x^s (used for dyadic base change)."""
        if s < 1:
            raise ValueError(f"stretch factor must be >= 1: {s}")
        return tuple([(e * s, c) for e, c in a])

    def format_elem(self, a):
        return self._format_terms(a)


class QuotientRing(Ring):
    """R/(f) for Euclidean R. Payloads are reduced base payloads."""

    def __init__(self, base: Ring, modulus):
        if not base.is_euclidean:
            raise ValueError("quotient base must be Euclidean (Z or k[x])")
        modulus = base.coerce_payload(modulus)
        if base.is_zero(modulus):
            raise ValueError("zero modulus")
        self.base = base
        self.modulus = base.canonical_assoc(modulus)
        self.variable = base.variable
        self.zero = self.reduce(base.zero)
        self.one = self.reduce(base.one)

    def reduce(self, a):
        _, r = self.base.divmod_(a, self.modulus)
        return r

    def add(self, a, b):
        return self.reduce(self.base.add(a, b))

    def sub(self, a, b):
        return self.reduce(self.base.sub(a, b))

    def mul(self, a, b):
        return self.reduce(self.base.mul(a, b))

    def neg(self, a):
        return self.reduce(self.base.neg(a))

    def from_int(self, k):
        return self.reduce(self.base.from_int(k))

    def coerce_payload(self, x):
        return self.reduce(self.base.coerce_payload(x))

    def exact_div(self, a, b):
        """The least x with b*x = a: with g = gcd(b, f), the residue of
        (a/g) * (b/g)^-1 mod f/g.  Over Z that is the least nonnegative
        solution; over k[x] the one of degree below deg(f/g)."""
        base = self.base
        g, s, _ = base.xgcd(b, self.modulus)
        try:
            c = base.exact_div(a, g)
        except ValueError:
            raise ValueError(f"{b!r} does not divide {a!r} in {self!r}") from None
        # s*b + t*f = g, so s is an inverse of b/g mod f/g
        x = base.divmod_(base.mul(c, s), base.exact_div(self.modulus, g))[1]
        if self.mul(b, x) != self.coerce_payload(a):
            raise ValueError(f"{b!r} does not divide {a!r} in {self!r}")
        return x

    def format_elem(self, a):
        return self.base.format_elem(a)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, QuotientRing)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("quot", self.base, self.modulus))

    def __repr__(self):
        return f"{self.base!r}/({self.base.format_elem(self.modulus)})"


ZZ = IntegerRing()


def residues(base: Ring, d):
    """All canonical remainders mod a nonzero d over Z or F_p[x], in a fixed order.

    Over Z: 0, 1, ..., |d| - 1.  Over F_p[x]: every coefficient vector of
    length deg d, lexicographically, with the constant term varying
    slowest.  Element tables and report orders are built on this order.
    A ``SparsePolyRing`` raises TypeError: no table runs on the ladder.
    """
    if isinstance(base, IntegerRing):
        return list(range(abs(d))) or [0]
    if type(base) is PolyRing and isinstance(base.field, PrimeField):
        return [_strip(list(c)) for c in product(range(base.field.p), repeat=len(d) - 1)]
    raise TypeError(f"cannot enumerate residues over {base!r}")


def algebra_split(ring: Ring):
    """(Euclidean base R, modulus payload or None) for an algebra A = R/(f).

    A plain Euclidean ring is its own base, with no modulus.
    """
    if isinstance(ring, QuotientRing):
        return ring.base, ring.modulus
    if ring.is_euclidean:
        return ring, None
    raise ValueError(f"not a supported module algebra: {ring!r}")


def json_object(node, what: str, path: str) -> dict:
    """``node`` if it is a JSON object, else ValueError naming ``path``."""
    if not isinstance(node, dict):
        raise ValueError(f"{path}: expected {what} (an object), got {reprlib.repr(node)}")
    return node


def json_key(node: dict, key: str, types, what: str, path: str):
    """``node[key]`` if present and of one of ``types``, else ValueError
    naming ``path.key``.  JSON true/false never pass as integers."""
    if key not in node:
        raise ValueError(f"{path}.{key}: missing, expected {what}")
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{path}.{key}: expected {what}, got {reprlib.repr(value)}")
    return value


def _built(path: str, make, *args):
    """make(*args), with a ValueError it raises prefixed by ``path``."""
    try:
        return make(*args)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def ring_from_json(obj, path: str = "ring") -> Ring:
    """The ring a JSON spec names.  A malformed spec raises ValueError
    whose message starts with the JSON path of the offending node."""
    json_object(obj, "a ring spec", path)
    kind = json_key(obj, "kind", str, "a ring kind", path)
    if kind == "integers":
        return ZZ
    if kind == "mod":
        n = json_key(obj, "n", int, "an integer", path)
        if n < 2:
            raise ValueError(f"{path}: modulus must be >= 2: {n}")
        return QuotientRing(ZZ, n)
    if kind == "poly":
        coeff = obj.get("coeff")
        if coeff == "rationals":
            field = QQ
        else:
            spec = json_object(coeff, '"rationals" or {"fp": p}', f"{path}.coeff")
            field = _built(path, GF, json_key(spec, "fp", int, "an integer", f"{path}.coeff"))
        return _built(path, PolyRing, field, json_key(obj, "var", str, "a variable name", path))
    if kind == "quotient":
        base = ring_from_json(json_key(obj, "base", dict, "a ring spec", path), f"{path}.base")
        if isinstance(base, QuotientRing):
            raise ValueError(f"{path}.base: nested quotients are not supported")
        modulus = json_key(obj, "modulus", str, "an element string", path)
        return _built(path, QuotientRing, base, _built(f"{path}.modulus", base.parse, modulus))
    raise ValueError(f"{path}.kind: unknown ring kind {kind!r}")
