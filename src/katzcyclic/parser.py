"""Recursive-descent parser for ring element expressions.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)?
    atom   := INT | VAR | '(' expr ')'

INT is a nonnegative decimal literal of at most MAX_LITERAL_DIGITS
digits; VAR is the ring's variable name or, in F_{p^e}[x] with e > 1,
g, the generator of F_{p^e} in which its coefficients print.
Parentheses and unary signs nest at most MAX_NESTING deep, far below
Python's recursion limit (each parenthesis costs five frames of the
descent, each sign one).  Three
bounds keep a power from building a huge element; each is checked from
the base and the exponent, before any multiplication:

* the exponent is an integer in [0, MAX_EXPONENT];
* the power's degree in the variable is at most MAX_DEGREE, so that
  nested powers such as ``(x^256)^256`` are refused;
* the power's size, the exponent times the length of the base's
  canonical string, is at most MAX_POWER_SIZE, so that nested powers of
  constants such as ``((2^256)^256)^256`` are refused.  The cap is
  Python's default limit on the digits of an int converted to a string,
  past which the canonical printer could not write a constant anyway.

'/' is accepted only where the ring can actually divide (fields, or
division by a unit); in characteristic p, integer literals reduce
silently.
"""

from __future__ import annotations

import re

from .errors import NotInvertibleError, ParseError, UnsupportedOperationError

MAX_EXPONENT = 256
MAX_DEGREE = 256
MAX_POWER_SIZE = 4300
MAX_LITERAL_DIGITS = 4300
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


class _Parser:
    def __init__(self, text: str, ring):
        self.text = text
        self.ring = ring
        self.depth = 0
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
            group = m.lastindex
            text, start = m.group(group), m.start(group)
            if group == 1:
                if len(text) > MAX_LITERAL_DIGITS:
                    raise ParseError(
                        f"integer literal exceeds the maximum {MAX_LITERAL_DIGITS} digits",
                        start,
                    )
                self.tokens.append(("int", int(text), start))
            elif group == 2:
                self.tokens.append(("name", text, start))
            else:
                self.tokens.append(("op", text, start))
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
        kind, val, pos = self._peek()
        if kind == "op" and val in "+-":
            self._next()
            self._enter(pos)
            value = self.factor()
            self.depth -= 1
            return self.ring.neg(value) if val == "-" else value
        return self.power()

    def _enter(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting exceeds the maximum depth {MAX_NESTING}", pos)

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
            if exp > 1:
                self._check_size(base, exp, epos)
            return self.ring.pow(base, exp)
        return base

    def _check_size(self, base, exp, pos):
        if base is self.ring.var_element:  # it prints as the variable's name
            size = exp * len(self.ring.variable)
        else:
            try:
                size = exp * len(self.ring.to_str(base))
            except UnsupportedOperationError:  # the base alone is too long to print
                raise ParseError(
                    f"power base exceeds the maximum size {MAX_POWER_SIZE}", pos
                ) from None
        if size > MAX_POWER_SIZE:
            raise ParseError(f"power of size {size} exceeds the maximum {MAX_POWER_SIZE}", pos)

    def atom(self):
        kind, val, pos = self._next()
        if kind == "int":
            return self.ring.from_int(val)
        if kind == "name":
            if val == self.ring.variable:
                return self.ring.var_element
            if val == "g" and self.ring.generator is not None:
                return self.ring.generator
            raise ParseError(f"unknown symbol {val!r}", pos)
        if kind == "op" and val == "(":
            self._enter(pos)
            value = self.expr()
            ckind, cval, cpos = self._next()
            if not (ckind == "op" and cval == ")"):
                raise ParseError("expected ')'", cpos)
            self.depth -= 1
            return value
        raise ParseError("expected a number, variable, or '('", pos)


def parse_element(text: str, ring):
    """Parse ``text`` into a canonical element of ``ring``."""
    return _Parser(text, ring).parse()
