"""Recursive-descent parser for ring element expressions.

Grammar (whitespace insensitive), in three levels:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | (INT | VAR | '(' expr ')') ('^' INT)?

INT is a nonnegative decimal literal of at most MAX_LITERAL_DIGITS
digits; VAR is the ring's variable name or, in F_{p^e}[x] with e > 1,
g, the generator of F_{p^e} in which its coefficients print.
Parentheses and unary signs nest at most MAX_NESTING deep, far below
Python's recursion limit (each parenthesis costs three frames of the
descent, each sign one).  Three bounds keep a power from building a
huge element; each is checked from the base and the exponent, before
any multiplication:

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

The text is split into tokens by one regular-expression pass with a
single capture group, and each token is told by its first character:
an ASCII letter or '_' starts a name and an operator stands for itself,
both kept as strings; a decimal digit starts an int; anything else is
an unexpected character.  A token's position in the text is worked out
only when an error reports it.

One grammar serves every ring; only the arithmetic under it differs.
In characteristic 0 (Q(x), Q[t] and the rings rescaled from them) a
value is a Z[x] coefficient tuple, taken through ``+``, ``-``, ``*``
(a constant factor only scales the other tuple), unary ``-`` and ``^``
on plain ints, and it becomes a ring element by the ring's
``from_integer_poly`` in three places only: at ``/``, at a power whose
caps need the ring's degree or canonical string (any base but the bare
variable), and once at the end.  F_q[x] runs on the ring's operations
throughout, because its caps read the reduced element: over F_5,
``(5*x^2+1)^200`` has a base of degree 0.
"""

from __future__ import annotations

import re
import string

from . import polys
from .errors import NotInvertibleError, ParseError, UnsupportedOperationError
from .fields import ZZ

MAX_EXPONENT = 256
MAX_DEGREE = 256
MAX_POWER_SIZE = 4300
MAX_LITERAL_DIGITS = 4300
MAX_NESTING = 100

# One token, captured after any whitespace: an operator (the commonest
# token, tried first), an integer, a name, or any other visible
# character (an error).
_TOKEN = re.compile(r"\s*([-+*/^()]|\d+|[A-Za-z_][A-Za-z_0-9]*|\S)")
_OPERATORS = frozenset("+-*/^()")
# What a token starts with when it is kept as it is: an operator or a name
_KEPT = _OPERATORS | frozenset(string.ascii_letters + "_")
_X = (0, 1)  # the variable, in Z[x]


def _tokenize(text: str) -> list:
    """The tokens of ``text``, ints for literals and strings for names and
    operators, then None for the end.  A token is told by its first
    character, and only a literal is replaced in the list: ``\\d``
    matches exactly the characters for which ``str.isdecimal`` holds."""
    tokens = _TOKEN.findall(text)
    for index, tok in enumerate(tokens):
        if tok[0] in _KEPT:
            continue
        if not tok[0].isdecimal():
            raise ParseError(f"unexpected character {tok!r}", _position(text, index))
        if len(tok) > MAX_LITERAL_DIGITS:
            raise ParseError(
                f"integer literal exceeds the maximum {MAX_LITERAL_DIGITS} digits",
                _position(text, index),
            )
        tokens[index] = int(tok)
    tokens.append(None)
    return tokens


def _position(text: str, index: int) -> int:
    """Where token ``index`` of ``text`` starts; the end of the text for
    the end token."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return m.start(1)
    return len(text)


class _Parser:
    """The grammar, with values taken through the ring's own operations."""

    def __init__(self, text: str, ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def _error(self, message: str, index: int) -> ParseError:
        return ParseError(message, _position(self.text, index))

    def parse(self):
        value = self.expr()
        tok = self.tokens[self.idx]
        if tok is not None:
            raise self._error(f"unexpected token {tok!r}", self.idx)
        return self.lift(value)

    def expr(self):
        value = self.term()
        tokens = self.tokens
        while True:
            tok = tokens[self.idx]
            if tok == "+":
                self.idx += 1
                value = self.add(value, self.term())
            elif tok == "-":
                self.idx += 1
                value = self.sub(value, self.term())
            else:
                return value

    def term(self):
        value = self.factor()
        tokens = self.tokens
        while True:
            tok = tokens[self.idx]
            if tok == "*":
                self.idx += 1
                value = self.mul(value, self.factor())
            elif tok == "/":
                at = self.idx
                self.idx += 1
                rhs = self.factor()
                try:
                    value = self.div(value, rhs)
                except NotInvertibleError:
                    raise self._error("division by a non-invertible element", at) from None
            else:
                return value

    def factor(self):
        """A signed factor, or an atom (an int, a name or a parenthesised
        expr) with its optional '^' exponent."""
        tokens = self.tokens
        at = self.idx
        tok = tokens[at]
        if type(tok) is int:
            self.idx = at + 1
            value = self.from_int(tok)
        elif tok == "+" or tok == "-":
            self._enter()
            value = self.factor()
            self.depth -= 1
            return self.neg(value) if tok == "-" else value
        elif tok == "(":
            self._enter()
            value = self.expr()
            if tokens[self.idx] != ")":
                raise self._error("expected ')'", self.idx)
            self.idx += 1
            self.depth -= 1
        elif tok is None or tok in _OPERATORS:
            raise self._error("expected a number, variable, or '('", at)
        else:
            self.idx = at + 1
            if tok == self.ring.variable:
                value = self.variable()
            elif tok == "g" and self.ring.generator is not None:
                value = self.ring.generator
            else:
                raise self._error(f"unknown symbol {tok!r}", at)
        if tokens[self.idx] != "^":
            return value
        at = self.idx + 1
        self.idx += 2
        exp = tokens[at]
        if type(exp) is not int:
            raise self._error("exponent must be a nonnegative integer", at)
        if exp > MAX_EXPONENT:
            raise self._error(f"exponent {exp} exceeds the maximum {MAX_EXPONENT}", at)
        return self.pow(value, exp, at)

    def _enter(self):
        """Step over a sign or '(' one level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting exceeds the maximum depth {MAX_NESTING}", self.idx)
        self.idx += 1

    def _check_caps(self, base, exp: int, at: int, degree: int, name_size: bool):
        """The degree and size caps on base^exp, base of ``degree``; its
        printed length is the variable's when ``name_size``."""
        degree *= exp
        if degree > MAX_DEGREE:
            raise self._error(f"power of degree {degree} exceeds the maximum {MAX_DEGREE}", at)
        if exp < 2:
            return
        if name_size:  # it prints as the variable's name
            size = exp * len(self.ring.variable)
        else:
            try:
                size = exp * len(self.ring.to_str(base))
            except UnsupportedOperationError:  # the base alone is too long to print
                raise self._error(
                    f"power base exceeds the maximum size {MAX_POWER_SIZE}", at
                ) from None
        if size > MAX_POWER_SIZE:
            raise self._error(f"power of size {size} exceeds the maximum {MAX_POWER_SIZE}", at)

    # -- arithmetic: the ring's own ------------------------------------
    def add(self, a, b):
        return self.ring.add(a, b)

    def sub(self, a, b):
        return self.ring.sub(a, b)

    def mul(self, a, b):
        return self.ring.mul(a, b)

    def div(self, a, b):
        return self.ring.div(a, b)

    def neg(self, a):
        return self.ring.neg(a)

    def from_int(self, n: int):
        return self.ring.from_int(n)

    def variable(self):
        return self.ring.var_element

    def pow(self, base, exp: int, at: int):
        ring = self.ring
        self._check_caps(base, exp, at, ring.degree(base), base is ring.var_element)
        return ring.pow(base, exp)

    def lift(self, value):
        return value


class _IntegerPolyParser(_Parser):
    """The grammar over a ring of characteristic 0: a value is a Z[x]
    coefficient tuple (lowest degree first, no trailing zeros) until it
    meets '/', a power of anything but the variable, or the end, where
    the ring's ``from_integer_poly`` makes it a ring element.  Ring
    elements are never tuples, so the two kinds of value stay apart."""

    def lift(self, value):
        return self.ring.from_integer_poly(value) if type(value) is tuple else value

    def add(self, a, b):
        if type(a) is tuple and type(b) is tuple:
            return polys.add(ZZ, a, b)
        return self.ring.add(self.lift(a), self.lift(b))

    def sub(self, a, b):
        if type(a) is tuple and type(b) is tuple:
            return polys.sub(ZZ, a, b)
        return self.ring.sub(self.lift(a), self.lift(b))

    def mul(self, a, b):
        if type(a) is tuple and type(b) is tuple:
            if len(b) == 1:
                a, b = b, a
            if len(a) == 1:
                # a nonzero constant times a tuple with no trailing zeros
                # leaves none, so the scaled tuple needs no normalize
                c = a[0]
                return tuple([c * v for v in b])
            return polys.mul(ZZ, a, b)
        return self.ring.mul(self.lift(a), self.lift(b))

    def div(self, a, b):
        return self.ring.div(self.lift(a), self.lift(b))

    def neg(self, a):
        return polys.neg(ZZ, a) if type(a) is tuple else self.ring.neg(a)

    def from_int(self, n: int):
        return (n,) if n else ()

    def variable(self):
        return _X

    def pow(self, base, exp: int, at: int):
        if type(base) is tuple and base == _X:
            # x^exp has degree exp and prints as the variable's name
            self._check_caps(base, exp, at, 1, True)
            return (0,) * exp + (1,)
        return super().pow(self.lift(base), exp, at)


def parse_element(text: str, ring):
    """Parse ``text`` into a canonical element of ``ring``."""
    parser = _IntegerPolyParser if ring.characteristic == 0 else _Parser
    return parser(text, ring).parse()
