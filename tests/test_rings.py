"""Base-ring arithmetic against independent reimplementations.

Polynomial products are cross-checked by plain convolution on dense
coefficient lists, quotient reduction by long division, and xgcd by
its defining identities.  Every ``PolyRing`` operation is also checked
against ``Schoolbook``, a copy of the field-method arithmetic it replaced,
on dense and sparse payloads of up to 4,096 coefficients.
``SparsePolyRing``, the term-list ring of the dyadic ladder, is checked
against dense ``PolyRing`` on the same elements.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from adic_smith.rings import (
    GF,
    POW_EXPONENT_CAP,
    QQ,
    IntegerRing,
    PolyRing,
    QuotientRing,
    SparsePolyRing,
    is_prime,
    residues,
    ring_from_json,
)

from conftest import poly_from_coeffs

ZZ = IntegerRing()
F2X = PolyRing(GF(2), "x")
QX = PolyRing(QQ, "x")


ints = st.integers(min_value=-10**6, max_value=10**6)
coeff_lists = st.lists(st.integers(min_value=-4, max_value=4), max_size=6)


@given(ints, ints)
def test_integer_xgcd_identity(a, b):
    g, u, v = ZZ.xgcd(a, b)
    assert u * a + v * b == g
    assert ZZ.gcd(a, b) == g
    if a or b:
        assert g > 0 and a % g == 0 and b % g == 0
    else:
        assert g == 0


@given(ints, st.integers(min_value=-10**6, max_value=10**6).filter(bool))
def test_integer_divmod_is_euclidean(a, b):
    q, r = ZZ.divmod_(a, b)
    assert q * b + r == a
    assert ZZ.euclid_size(r) < ZZ.euclid_size(b) or r == 0


@given(st.integers(2, 60), ints, ints)
def test_mod_ring_matches_int_arithmetic(n, a, b):
    R = QuotientRing(ZZ, n)
    x, y = R.from_int(a), R.from_int(b)
    assert R.add(x, y) == (a + b) % n
    assert R.mul(x, y) == (a * b) % n
    assert R.sub(x, y) == (a - b) % n
    assert R.neg(x) == (-a) % n


def _convolve(field, xs, ys):
    out = [field.zero] * (len(xs) + len(ys) - 1 or 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return out


@pytest.mark.parametrize("ring", [F2X, QX], ids=["F2[x]", "Q[x]"])
@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_poly_mul_matches_convolution(ring, xs, ys):
    a = poly_from_coeffs(ring, xs)
    b = poly_from_coeffs(ring, ys)
    field = ring.field
    dense = _convolve(field, [field.from_int(c) for c in xs], [field.from_int(c) for c in ys])
    assert ring.mul(a, b) == ring.coerce_payload(tuple(dense))


class Schoolbook:
    """k[x] arithmetic as it was written before native accumulation: every
    coefficient goes through a field method, every result is stripped."""

    def __init__(self, field):
        self.f = field

    def strip(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == self.f.zero:
            coeffs.pop()
        return tuple(coeffs)

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self.f.add(out[i], c)
        return self.strip(out)

    def neg(self, a):
        return tuple(self.f.neg(c) for c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        f = self.f
        out = [f.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == f.zero:
                continue
            for j, cb in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(ca, cb))
        return self.strip(out)

    def divmod_(self, a, b):
        f = self.f
        rem = list(a)
        db, inv_lb = len(b) - 1, f.inv(b[-1])
        q = [f.zero] * max(len(a) - len(b) + 1, 0)
        while len(rem) >= len(b):
            while rem and rem[-1] == f.zero:
                rem.pop()
            if len(rem) < len(b):
                break
            c = f.mul(rem[-1], inv_lb)
            d = len(rem) - 1 - db
            q[d] = c
            for i, cb in enumerate(b):
                rem[d + i] = f.sub(rem[d + i], f.mul(c, cb))
        return self.strip(q), self.strip(rem)

    def coerce(self, x):
        return self.strip(self.f.coerce(c) for c in x)


NATIVE_FIELDS = {"F2": GF(2), "F3": GF(3), "F5": GF(5), "Q": QQ}


def _coefficient(field, rnd):
    """A canonical coefficient: over Q an int when integral."""
    if field == QQ:
        return QQ.coerce(Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)))
    return rnd.randrange(field.p)


@st.composite
def _payload(draw, field):
    """A canonical payload of up to 4,096 coefficients, dense or sparse
    (at most four nonzero terms below the top)."""
    n = draw(st.one_of(st.integers(0, 16), st.sampled_from([64, 1024, 4096]), st.integers(17, 4096)))
    sparse = n > 0 and draw(st.booleans())
    rnd = random.Random(draw(st.integers(0, 2**32)))
    if sparse:
        out = [field.zero] * n
        for _ in range(rnd.randint(0, 4)):
            out[rnd.randrange(n)] = _coefficient(field, rnd)
    else:
        out = [_coefficient(field, rnd) for _ in range(n)]
    while out and not out[-1]:
        out[-1] = _coefficient(field, rnd)
    return tuple(out)


def _schoolbook_steps(a, b):
    """Inner-loop steps of the schoolbook mul(a, b) and divmod_ both ways."""
    steps = sum(1 for c in a if c) * len(b)
    for x, y in ((a, b), (b, a)):
        steps += max(len(x) - len(y) + 1, 0) * len(y)
    return steps


def _q_canonical(c) -> bool:
    """The one type of a Q coefficient: an int when integral, else a
    Fraction with denominator > 1; never ``Fraction(n, 1)``, never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _canonical(field, a):
    if field == QQ:
        typed = all(_q_canonical(c) for c in a)
    else:
        typed = all(type(c) is int and 0 <= c < field.p for c in a)
    return typed and isinstance(a, tuple) and (not a or a[-1] != field.zero)


@pytest.mark.parametrize("name", NATIVE_FIELDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_native_poly_ops_match_schoolbook(name, data):
    field = NATIVE_FIELDS[name]
    ring, ref = PolyRing(field, "x"), Schoolbook(field)
    a, b = data.draw(_payload(field), "a"), data.draw(_payload(field), "b")
    assume(_schoolbook_steps(a, b) <= 20_000)
    results = [
        (ring.add(a, b), ref.add(a, b)),
        (ring.sub(a, b), ref.sub(a, b)),
        (ring.sub(b, a), ref.sub(b, a)),
        (ring.neg(a), ref.neg(a)),
        (ring.mul(a, b), ref.mul(a, b)),
        (ring.coerce_payload(a), ref.coerce(a)),
        (ring.add(a, ring.neg(a)), ()),
        (ring.sub(a, a), ()),
    ]
    for x, y in ((a, b), (b, a)):
        if y:
            results += list(zip(ring.divmod_(x, y), ref.divmod_(x, y)))
    for got, want in results:
        assert got == want
        assert _canonical(field, got)
    # values from outside: ints anywhere, Fractions over Q, trailing zeros
    raw = tuple(int(c) * 7 - 3 for c in a[:64]) + (0, 0)
    if field == QQ:
        raw += (Fraction(1, 3), 0)
    assert ring.coerce_payload(raw) == ref.coerce(raw)
    assert _canonical(field, ring.coerce_payload(raw))


class FractionQ:
    """Q with every value a ``Fraction``, as Q payloads were before
    integral coefficients became ints."""

    zero, one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def coerce(self, c):
        return Fraction(c)


def _fraction_xgcd(ref, a, b):
    """Ring.xgcd's answer, computed on the Fraction-only reference."""
    one = (Fraction(1),)
    r0, r1, s0, s1, t0, t1 = a, b, one, (), (), one
    while r1:
        q, r = ref.divmod_(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ref.sub(s0, ref.mul(q, s1))
        t0, t1 = t1, ref.sub(t0, ref.mul(q, t1))
    u = (1 / r0[-1],) if r0 else one
    return ref.mul(u, r0), ref.mul(u, s0), ref.mul(u, t0)


_q_value = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@given(st.lists(_q_value, max_size=8), st.lists(_q_value, max_size=8))
@settings(max_examples=150, deadline=None)
def test_q_payloads_match_fraction_reference(xs, ys):
    """Q[x] arithmetic gives the values of Fraction-only arithmetic, each
    coefficient of its one canonical type, never a float."""
    ref = Schoolbook(FractionQ())
    a, b = QX.coerce_payload(tuple(xs)), QX.coerce_payload(tuple(ys))
    fa, fb = ref.coerce(xs), ref.coerce(ys)
    assert a == fa and b == fb
    results = [
        (QX.add(a, b), ref.add(fa, fb)),
        (QX.sub(a, b), ref.sub(fa, fb)),
        (QX.mul(a, b), ref.mul(fa, fb)),
        (QX.neg(a), ref.neg(fa)),
        (a, fa),
    ]
    results += zip(QX.xgcd(a, b), _fraction_xgcd(ref, fa, fb))
    for x, y, fx, fy in ((a, b, fa, fb), (b, a, fb, fa)):
        if y:
            results += zip(QX.divmod_(x, y), ref.divmod_(fx, fy))
    for got, want in results:
        assert got == want
        assert _canonical(QQ, got)


def test_q_inverse_is_exact():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    assert QX.canonical_unit((0, 2)) == (Fraction(1, 2),)


@given(coeff_lists, coeff_lists.filter(lambda c: any(x % 2 for x in c)))
@settings(max_examples=60)
def test_poly_divmod_is_euclidean_over_f2(xs, ys):
    a = poly_from_coeffs(F2X, xs)
    b = poly_from_coeffs(F2X, ys)
    q, r = F2X.divmod_(a, b)
    assert F2X.add(F2X.mul(q, b), r) == a
    assert r == F2X.zero or F2X.euclid_size(r) < F2X.euclid_size(b)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_poly_xgcd_identity(xs, ys):
    a = poly_from_coeffs(QX, xs)
    b = poly_from_coeffs(QX, ys)
    g, u, v = QX.xgcd(a, b)
    assert QX.add(QX.mul(u, a), QX.mul(v, b)) == g
    assert QX.gcd(a, b) == g
    if a != QX.zero:
        q, r = QX.divmod_(a, g)
        assert r == QX.zero


def test_stretch_is_substitution():
    # x^2 + x under x -> x^4 becomes x^8 + x^4, on the ladder's term payloads
    R = SparsePolyRing(GF(2), "x")
    p = poly_from_coeffs(R, [0, 1, 1])
    s = R.stretch(p, 4)
    assert s == poly_from_coeffs(R, [0, 0, 0, 0, 1, 0, 0, 0, 1]) == ((4, 1), (8, 1))
    with pytest.raises(ValueError, match=">= 1"):
        R.stretch(p, 0)


def test_quotient_ring_reduction():
    R = QuotientRing(F2X, poly_from_coeffs(F2X, [0, 0, 1]))  # F2[x]/(x^2)
    x = R.coerce_payload(F2X.gen)
    assert R.mul(x, x) == R.zero
    assert R.add(R.one, R.one) == R.zero
    with pytest.raises(ValueError):
        QuotientRing(R, x)  # no towers of quotients


def test_quotient_ring_mod27():
    R = QuotientRing(ZZ, 27)
    assert R.mul(R.from_int(9), R.from_int(3)) == 0
    assert R.mul(R.from_int(2), R.exact_div(R.one, R.from_int(2))) == R.one
    with pytest.raises(ValueError, match="does not divide"):
        R.exact_div(R.one, R.from_int(3))


def _old_mod_exact_div(n, a, b):
    """Z/n division as the former residue-payload ring did it."""
    g = gcd(b, n)
    if a % g != 0:
        raise ValueError(f"{b} does not divide {a} in Z/{n}")
    m = n // g
    return ((a // g) * pow(b // g, -1, m)) % m if m > 1 else 0


def test_quotient_of_integers_divides_as_residues_did():
    """On every (a, b) of Z/(n), 2 <= n <= 60, a/b is the least solution."""
    for n in range(2, 61):
        R = QuotientRing(ZZ, n)
        for a in range(n):
            for b in range(n):
                try:
                    want = _old_mod_exact_div(n, a, b)
                except ValueError:
                    with pytest.raises(ValueError, match="does not divide"):
                        R.exact_div(a, b)
                else:
                    assert R.exact_div(a, b) == want, (n, a, b)


@st.composite
def _fp_quotient_pairs(draw):
    """(F_p[x]/(f), a, b) for p in {2, 3}, deg f in 1..5, a and b reduced."""
    base = PolyRing(GF(draw(st.sampled_from([2, 3]))), "x")
    p = base.field.p
    coeffs = lambda n: st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    deg = draw(st.integers(1, 5))
    R = QuotientRing(base, base.coerce_payload(tuple(draw(coeffs(deg))) + (1,)))
    a, b = (R.coerce_payload(tuple(draw(coeffs(deg)))) for _ in range(2))
    return R, a, b


@given(_fp_quotient_pairs())
@settings(max_examples=300, deadline=None)
def test_quotient_exact_div_least_solution(drawn):
    """x with b*x = a and deg x < deg(f/g), g = gcd(b, f), when g | a;
    ValueError otherwise."""
    R, a, b = drawn
    base = R.base
    g = base.gcd(b, R.modulus)
    if base.divmod_(a, g)[1]:
        with pytest.raises(ValueError, match="does not divide"):
            R.exact_div(a, b)
        return
    x = R.exact_div(a, b)
    assert R.mul(b, x) == a
    assert not x or base.degree(x) < base.degree(base.exact_div(R.modulus, g))


_zn_pairs = st.integers(2, 60).flatmap(
    lambda n: st.tuples(st.just(QuotientRing(ZZ, n)), st.integers(0, n - 1), st.integers(0, n - 1))
)


@given(st.one_of(_zn_pairs, _fp_quotient_pairs()))
@settings(max_examples=300, deadline=None)
def test_quotient_exact_div_by_unit_is_product_with_inverse(drawn):
    """For a unit b of R/(f), a/b is a * b^-1 mod f."""
    R, a, b = drawn
    g, s, _ = R.base.xgcd(b, R.modulus)
    assume(g == R.base.one)
    assert R.exact_div(a, b) == R.mul(a, R.coerce_payload(s))


@pytest.mark.parametrize("ring", [ZZ, QuotientRing(ZZ, 12), F2X, QX], ids=["ZZ", "Z12", "F2[x]", "Q[x]"])
def test_format_parse_round_trip(ring, rng):
    for _ in range(50):
        if ring is ZZ:
            a = rng.randint(-50, 50)
        elif isinstance(ring, QuotientRing):
            a = ring.from_int(rng.randint(0, 40))
        else:
            a = poly_from_coeffs(ring, [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
        assert ring.parse(ring.format_elem(a)) == a


def test_ring_json_builds_the_named_ring():
    z8 = QuotientRing(ZZ, 8)
    specs = [
        ({"kind": "integers"}, ZZ),
        ({"kind": "mod", "n": 8}, z8),
        ({"kind": "quotient", "base": {"kind": "integers"}, "modulus": "8"}, z8),
        ({"kind": "poly", "coeff": {"fp": 2}, "var": "x"}, F2X),
        ({"kind": "poly", "coeff": "rationals", "var": "y"}, PolyRing(QQ, "y")),
        ({"kind": "quotient", "base": {"kind": "poly", "coeff": {"fp": 2}, "var": "x"}, "modulus": "x^4"},
         QuotientRing(F2X, poly_from_coeffs(F2X, [0, 0, 0, 0, 1]))),
    ]
    for spec, ring in specs:
        assert ring_from_json(spec) == ring
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^ring: modulus must be >= 2: {n}$"):
            ring_from_json({"kind": "mod", "n": n})


def test_ring_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ring_from_json({"kind": "padic"})
    with pytest.raises(ValueError):
        ring_from_json("not a dict")


def test_gf_rejects_composites():
    with pytest.raises(ValueError):
        GF(9)
    assert GF(7).inv(3) == 5  # 3*5 = 15 = 1 mod 7


def _linear_pow(ring, a, n):
    out = ring.one
    for _ in range(n):
        out = ring.mul(out, a)
    return out


@pytest.mark.parametrize(
    "ring,text",
    [
        (ZZ, "-3"),
        (QuotientRing(ZZ, 12), "5"),
        (F2X, "x^2 + x + 1"),
        (QX, "1/2*x - 3"),
        (QuotientRing(ZZ, 1000), "7"),
        (QuotientRing(F2X, poly_from_coeffs(F2X, [1, 0, 1, 1])), "x + 1"),
    ],
)
def test_pow_by_squaring_matches_repeated_product(ring, text):
    a = ring.parse(text)
    for n in list(range(20)) + [63, 64, 100]:
        assert ring.pow(a, n) == _linear_pow(ring, a, n), n


def test_pow_exponent_cap():
    assert ZZ.pow(2, POW_EXPONENT_CAP) == 2**POW_EXPONENT_CAP
    with pytest.raises(ValueError, match="above the cap"):
        ZZ.pow(2, POW_EXPONENT_CAP + 1)
    with pytest.raises(ValueError, match="negative"):
        ZZ.pow(2, -1)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

    assert [n for n in range(-5, 5000) if is_prime(n)] == [n for n in range(-5, 5000) if trial(n)]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # Strong pseudoprimes to the first 4, 6, 9 and 12 prime bases.
    for n in (3215031751, 3474749660383, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(1000000000000000003)
    assert is_prime(2**61 - 1)
    assert not is_prime(1000000007 * 1000000009)
    assert GF(1000000000000000003).p == 1000000000000000003


def test_is_prime_refuses_above_certified_bound():
    # 3317044064679887385961981 is the least strong pseudoprime to the
    # first 13 prime bases, so the test is exact only below it.
    with pytest.raises(ValueError, match="certified only below"):
        GF(3317044064679887385961981)
    with pytest.raises(ValueError, match="certified only below"):
        GF(10**400)


# -- SparsePolyRing against dense PolyRing ----------------------------------

SPARSE_FIELDS = {"GF2": GF(2), "GF3": GF(3), "QQ": QQ}


def _dense(field, a):
    """The dense payload of a term payload."""
    out = [field.zero] * (a[-1][0] + 1 if a else 0)
    for e, c in a:
        out[e] = c
    return tuple(out)


def _sparse_canonical(field, a):
    """Exponents strictly increasing, no zero coefficients, and
    coefficients reduced: in [1, p) over F_p, over Q of their one
    canonical type (``_q_canonical``)."""
    exps = [e for e, _ in a]
    if not (isinstance(a, tuple) and all(type(t) is tuple and len(t) == 2 for t in a)):
        return False
    if not all(type(e) is int and e >= 0 for e in exps) or any(x >= y for x, y in zip(exps, exps[1:])):
        return False
    if field == QQ:
        return all(_q_canonical(c) and c != 0 for _, c in a)
    return all(type(c) is int and 0 < c < field.p for _, c in a)


def test_payload_helpers_pin_the_q_contract():
    assert _canonical(QQ, (3, Fraction(1, 2))) and _sparse_canonical(QQ, ((0, 3), (2, Fraction(1, 2))))
    for bad in (Fraction(3, 1), 0.5, 3.0):
        assert not _canonical(QQ, (bad,)) and not _sparse_canonical(QQ, ((0, bad),))


def _terms(field):
    """Term dicts: zero, units, and few terms at low or high exponents.
    Exponents stay lower over Q, whose gcds swell the coefficients."""
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
        top = 24
    else:
        coeff = st.integers(1, field.p - 1)
        top = 300
    return st.one_of(
        st.just({}),
        st.dictionaries(st.just(0), coeff, min_size=1),
        st.dictionaries(st.integers(0, 6), coeff, max_size=7),
        st.dictionaries(st.integers(0, top), coeff, max_size=4),
    )


@pytest.mark.parametrize("name", SPARSE_FIELDS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_ops_match_dense(name, data):
    field = SPARSE_FIELDS[name]
    S, D = SparsePolyRing(field, "u"), PolyRing(field, "u")
    a = S.coerce_payload(tuple(data.draw(_terms(field), "a").items()))
    b = S.coerce_payload(tuple(data.draw(_terms(field), "b").items()))
    da, db = _dense(field, a), _dense(field, b)
    assert D.coerce_payload(da) == da and D.coerce_payload(db) == db
    pairs = [
        (S.add(a, b), D.add(da, db)),
        (S.sub(a, b), D.sub(da, db)),
        (S.sub(b, a), D.sub(db, da)),
        (S.neg(a), D.neg(da)),
        (S.mul(a, b), D.mul(da, db)),
        (S.gcd(a, b), D.gcd(da, db)),
        (S.canonical_unit(a), D.canonical_unit(da)),
        (a, da),
        (b, db),
    ]
    pairs += zip(S.xgcd(a, b), D.xgcd(da, db))
    for x, y, dx, dy in ((a, b, da, db), (b, a, db, da)):
        if y:
            pairs += zip(S.divmod_(x, y), D.divmod_(dx, dy))
        else:
            with pytest.raises(ZeroDivisionError):
                S.divmod_(x, y)
    s = data.draw(st.sampled_from([1, 2, 4, 1024]), "s")
    stretched = [field.zero] * ((len(da) - 1) * s + 1) if da else []
    for i, c in enumerate(da):
        stretched[i * s] = c
    pairs.append((S.stretch(a, s), tuple(stretched)))
    if S.is_unit(a):
        pairs.append((S.unit_inverse(a), D.unit_inverse(da)))
    for got, want in pairs:
        assert _sparse_canonical(field, got)
        assert _dense(field, got) == want
    assert S.is_unit(a) == D.is_unit(da)
    assert S.euclid_size(a) == D.euclid_size(da)
    assert S.format_elem(a) == D.format_elem(da)
    if a:
        assert S.degree(a) == D.degree(da)
    assert S.parse(S.format_elem(a)) == a


def test_sparse_ring_is_not_the_dense_ring():
    S, D = SparsePolyRing(GF(2), "x"), PolyRing(GF(2), "x")
    assert S != D and D != S and S == SparsePolyRing(GF(2), "x")
    # terms are summed, reduced, stripped of zeros and sorted
    S3 = SparsePolyRing(GF(3), "x")
    assert S3.coerce_payload(((5, 4), (3, 5), (3, 1), (0, 2))) == ((0, 2), (5, 1))
    assert S3.coerce_payload(-4) == ((0, 2),)
    with pytest.raises(ValueError, match="sparse polynomial payload"):
        S.coerce_payload((0, 1))
    with pytest.raises(ValueError, match="not a unit"):
        S.unit_inverse(S.gen)
    with pytest.raises(ValueError, match="degree of zero"):
        S.degree(S.zero)
    with pytest.raises(TypeError, match="cannot enumerate"):
        residues(S, S.gen)
