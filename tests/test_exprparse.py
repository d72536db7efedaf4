"""Element-expression grammar: values, precedence, and diagnostics."""

import pytest
from hypothesis import given, strategies as st

from adic_smith.exprparse import ParseError, parse_payload
from adic_smith.rings import GF, QQ, IntegerRing, PolyRing, QuotientRing

from conftest import poly_from_coeffs

ZZ = IntegerRing()
F2X = PolyRing(GF(2), "x")
QX = PolyRing(QQ, "x")


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", 0),
        ("-7", -7),
        ("2+3*4", 14),
        ("(2+3)*4", 20),
        ("2^10", 1024),
        ("-2^2", -4),
        ("6/3", 2),
        ("1 - 2 - 3", -4),
    ],
)
def test_integer_expressions(text, value):
    assert parse_payload(text, ZZ) == value


def test_poly_expressions():
    assert parse_payload("x^2+1", F2X) == poly_from_coeffs(F2X, [1, 0, 1])
    assert parse_payload("(x+1)^2", F2X) == poly_from_coeffs(F2X, [1, 0, 1])
    assert parse_payload("x*x*x", QX) == poly_from_coeffs(QX, [0, 0, 0, 1])
    assert parse_payload("1/2 * x", QX) == QX.mul(QX.exact_div(QX.one, QX.from_int(2)), QX.gen)


def test_quotient_ring_expressions():
    R = QuotientRing(F2X, poly_from_coeffs(F2X, [0, 0, 0, 0, 1]))  # F2[x]/(x^4)
    assert R.mul(parse_payload("x^2", R), parse_payload("x^2", R)) == R.zero
    assert parse_payload("x^4", R) == R.zero


def test_mod_ring_expressions():
    R = QuotientRing(ZZ, 8)
    assert parse_payload("5+5", R) == 2
    assert parse_payload("2^3", R) == 0


@pytest.mark.parametrize(
    "text",
    ["", "2+", "x", "1/2", "(1", "2**3", "y+1", "$"],
)
def test_integer_rejects(text):
    with pytest.raises(ParseError):
        parse_payload(text, ZZ)


def test_unknown_variable_names_the_ring_variable():
    with pytest.raises(ParseError, match="ring variable"):
        parse_payload("y^2", F2X)


def test_error_positions_are_reported():
    with pytest.raises(ParseError, match="position 2"):
        parse_payload("1+&", ZZ)


def test_non_string_input():
    with pytest.raises(ParseError):
        parse_payload(5, ZZ)


@given(st.lists(st.integers(-5, 5), max_size=6))
def test_format_then_parse_round_trips(coeffs):
    a = poly_from_coeffs(QX, coeffs)
    assert parse_payload(QX.format_elem(a), QX) == a


@given(st.integers(-10**9, 10**9))
def test_parse_agrees_with_python_eval_on_integers(n):
    assert parse_payload(str(n), ZZ) == n
