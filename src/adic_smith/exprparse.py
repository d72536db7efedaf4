"""Recursive-descent parser for ring element expressions.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

NAME must be the ring's variable; '/' is exact division (so "1/2" is a
rational constant in Q[x] and an error in Z).  In a quotient R/(f) it
gives the least solution of b*x = a (``QuotientRing.exact_div``), so
"4/4" is 1 in Z/(6), though 4 is not a unit there.  Evaluation happens
during parsing, directly on ring payloads.
"""

from __future__ import annotations


class ParseError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} at position {i}")
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} at position {tok[2]} in {self.text!r}, got {tok[0]!r}"
            )
        return tok

    def parse(self):
        value = self.expr()
        tok = self.next()
        if tok[0] != "end":
            raise ParseError(f"trailing input at position {tok[2]} in {self.text!r}")
        return value

    def expr(self):
        ring = self.ring
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = ring.add(value, rhs) if op == "+" else ring.sub(value, rhs)
        return value

    def term(self):
        ring = self.ring
        value = self.factor()
        while self.peek() in ("*", "/"):
            op, _, at = self.next()
            rhs = self.factor()
            if op == "*":
                value = ring.mul(value, rhs)
            else:
                try:
                    value = ring.exact_div(value, rhs)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad division at position {at}: {exc}") from None
        return value

    def factor(self):
        ring = self.ring
        if self.peek() == "-":
            self.next()
            return ring.neg(self.factor())
        value = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.expect("int")
            value = ring.pow(value, tok[1])
        return value

    def atom(self):
        ring = self.ring
        kind, value, at = self.next()
        if kind == "int":
            return ring.from_int(value)
        if kind == "name":
            if ring.variable is None or value != ring.variable:
                raise ParseError(
                    f"unknown name {value!r} at position {at} (ring variable: {ring.variable!r})"
                )
            return ring.coerce_payload(_generator_payload(ring))
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {kind!r} at position {at} in {self.text!r}")


def _generator_payload(ring):
    from adic_smith.rings import PolyRing, QuotientRing

    if isinstance(ring, PolyRing):
        return ring.gen
    if isinstance(ring, QuotientRing) and isinstance(ring.base, PolyRing):
        return ring.base.gen
    raise ParseError(f"{ring!r} has no variable")


def parse_payload(text: str, ring):
    """Parse ``text`` in the ring's element grammar; returns a payload."""
    if not isinstance(text, str):
        raise ParseError(f"expected an element string, got {text!r}")
    return _Parser(text, ring).parse()
