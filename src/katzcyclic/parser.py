"""Recursive-descent parser for ring element expressions.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)?
    atom   := INT | VAR | '(' expr ')'

INT is a nonnegative decimal literal; VAR is the ring's variable name.
Exponents must be integers in [0, MAX_EXPONENT], since ``x^k`` costs k
ring multiplications, and a power may have degree at most MAX_DEGREE in
the variable, so that nested powers such as ``(x^256)^256`` cannot build
huge elements.  The degree of a power is checked, from its base's, before
any multiplication.  '/' is accepted only where the
ring can actually divide (fields, or division by a unit); in
characteristic p, integer literals reduce silently.
"""

from __future__ import annotations

import re

from .errors import NotInvertibleError, ParseError

MAX_EXPONENT = 256
MAX_DEGREE = 256

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


class _Parser:
    def __init__(self, text: str, ring):
        self.text = text
        self.ring = ring
        self.pos = 0
        self.tokens = []
        self._tokenize()
        self.idx = 0

    def _tokenize(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN.match(self.text, pos)
            if not m:
                stripped = self.text[pos:].lstrip()
                if stripped == "":
                    break
                bad = pos + (len(self.text) - pos - len(stripped))
                raise ParseError(f"unexpected character {self.text[bad]!r}", bad)
            if m.group(1) is not None:
                self.tokens.append(("int", int(m.group(1)), m.start(1)))
            elif m.group(2) is not None:
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()

    def _peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else (None, None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.idx += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, val, pos = self._peek()
        if kind is not None:
            raise ParseError(f"unexpected token {val!r}", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                rhs = self.term()
                value = self.ring.add(value, rhs) if val == "+" else self.ring.sub(value, rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val, pos = self._peek()
            if kind == "op" and val in "*/":
                self._next()
                rhs = self.factor()
                if val == "*":
                    value = self.ring.mul(value, rhs)
                else:
                    try:
                        value = self.ring.div(value, rhs)
                    except NotInvertibleError:
                        raise ParseError("division by a non-invertible element", pos) from None
            else:
                return value

    def factor(self):
        kind, val, _ = self._peek()
        if kind == "op" and val == "-":
            self._next()
            return self.ring.neg(self.factor())
        if kind == "op" and val == "+":
            self._next()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self._peek()
        if kind == "op" and val == "^":
            self._next()
            ekind, exp, epos = self._next()
            if ekind != "int":
                raise ParseError("exponent must be a nonnegative integer", epos)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds the maximum {MAX_EXPONENT}", epos)
            degree = exp * self.ring.degree(base)
            if degree > MAX_DEGREE:
                raise ParseError(f"power of degree {degree} exceeds the maximum {MAX_DEGREE}", epos)
            return self.ring.pow(base, exp)
        return base

    def atom(self):
        kind, val, pos = self._next()
        if kind == "int":
            return self.ring.from_int(val)
        if kind == "name":
            if val != self.ring.variable:
                raise ParseError(f"unknown symbol {val!r}", pos)
            return self.ring.var_element
        if kind == "op" and val == "(":
            value = self.expr()
            ckind, cval, cpos = self._next()
            if not (ckind == "op" and cval == ")"):
                raise ParseError("expected ')'", cpos)
            return value
        raise ParseError("expected a number, variable, or '('", pos)


def parse_element(text: str, ring):
    """Parse ``text`` into a canonical element of ``ring``."""
    return _Parser(text, ring).parse()
