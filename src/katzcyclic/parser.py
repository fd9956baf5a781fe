"""Parser for ring element expressions, one for every ring: a one-pass
reader for sums of integer monomials, and the recursive-descent grammar
below for everything else.

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
only when an error reports it.  Trailing blanks are stripped before the
pass, so it is linear in them; an error at the end still reports the
end of the whole text.

The grammar takes every value through the ring's own operations
(``from_int``, ``add``, ``sub``, ``mul``, ``div``, ``neg`` and
``pow``), so its caps read the ring's element: over F_5,
``(5*x^2+1)^200`` has a base of degree 0 and is accepted.

A cheaper reading comes first, in every ring.  Almost every entry the
program reads, in its corpora and its generated modules alike, is a
sum of signed monomials ``c``, ``c*v``, ``c*v^k``, ``v`` or ``v^k`` in
the ring's variable v, perhaps wrapped as ``INT*( ... )``, with a sign
after each '+' or '-' allowed, as in ``1 + -2*t^2``.  ``_monomial_sum``
reads such a text in one regular-expression pass, linear in its
length, into its Z[x] tuple, which enters the ring by
``from_integer_poly``.  That is the grammar's element: the grammar's
literals enter by ``from_int``, and in characteristic p reducing the
integer coefficients once at the end gives what reducing each literal
gives, since reduction mod p respects sums and products.

The reader raises nothing: for any other text it returns None and the
grammar reads the text instead, so every error keeps the grammar's
message and position.  It returns None also for a text that the grammar
would refuse at a cap, before any coefficient is summed away (so
``0*x^300`` is still refused).  The caps are the grammar's own: every
literal goes through ``_literal``, and the least refused exponent of the
variable is found once per variable by ``_power_error``:

* a literal of over MAX_LITERAL_DIGITS digits, coefficient or
  exponent, is refused by the tokenizer;
* ``v^k`` has degree k, so k over MAX_EXPONENT or MAX_DEGREE is refused;
* for k >= 2, ``v^k`` prints as the variable's name, of size
  k * len(v), so a size over MAX_POWER_SIZE is refused.

These caps read only the text's literals and the exponents of the bare
variable, never a reduced element, so they hold unreduced over F_q as
well: the grammar checks a cap only at '^', and the only base the
reader lets a '^' follow is the variable itself, of degree 1 in every
ring.

A sum or a product by a literal has no cap of its own in the grammar,
and one sign inside the wrapper's parentheses nests two levels deep, far
below MAX_NESTING, so nothing else can refuse such a text.
"""

from __future__ import annotations

import functools
import itertools
import re
import string

from .errors import NotInvertibleError, ParseError, UnsupportedOperationError

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


def _tokenize(text: str) -> list:
    """The tokens of ``text``, ints for literals and strings for names and
    operators, then None for the end.  A token is told by its first
    character, and only a literal is replaced in the list: ``\\d``
    matches exactly the characters for which ``str.isdecimal`` holds.
    The pass runs over the text without its trailing blanks, from each
    of which ``_TOKEN`` would scan the rest of the run and fail, a cost
    quadratic in the run; ``\\s`` matches exactly what ``str.rstrip``
    strips, so the tokens are the same."""
    tokens = _TOKEN.findall(text.rstrip())
    for index, tok in enumerate(tokens):
        if tok[0] in _KEPT:
            continue
        if not tok[0].isdecimal():
            raise ParseError(f"unexpected character {tok!r}", _position(text, index))
        value = _literal(tok)
        if value is None:
            raise ParseError(
                f"integer literal exceeds the maximum {MAX_LITERAL_DIGITS} digits",
                _position(text, index),
            )
        tokens[index] = value
    tokens.append(None)
    return tokens


def _literal(digits: str):
    """The int a decimal literal stands for; None past MAX_LITERAL_DIGITS
    digits, where the tokenizer refuses it."""
    return int(digits) if len(digits) <= MAX_LITERAL_DIGITS else None


def _power_error(exp: int, degree: int, length):
    """Why the grammar refuses base^exp, for a base of ``degree`` whose
    canonical string is ``length()`` characters long (called only when
    the size cap applies); None when no cap refuses it."""
    if exp > MAX_EXPONENT:
        return f"exponent {exp} exceeds the maximum {MAX_EXPONENT}"
    degree *= exp
    if degree > MAX_DEGREE:
        return f"power of degree {degree} exceeds the maximum {MAX_DEGREE}"
    if exp >= 2:
        size = exp * length()
        if size > MAX_POWER_SIZE:
            return f"power of size {size} exceeds the maximum {MAX_POWER_SIZE}"
    return None


def _position(text: str, index: int) -> int:
    """Where token ``index`` of ``text`` starts; the end of the text, its
    trailing blanks included, for the end token."""
    for i, m in enumerate(_TOKEN.finditer(text.rstrip())):
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
        return value

    def expr(self):
        value = self.term()
        tokens, ring = self.tokens, self.ring
        while True:
            tok = tokens[self.idx]
            if tok == "+":
                self.idx += 1
                value = ring.add(value, self.term())
            elif tok == "-":
                self.idx += 1
                value = ring.sub(value, self.term())
            else:
                return value

    def term(self):
        value = self.factor()
        tokens, ring = self.tokens, self.ring
        while True:
            tok = tokens[self.idx]
            if tok == "*":
                self.idx += 1
                value = ring.mul(value, self.factor())
            elif tok == "/":
                at = self.idx
                self.idx += 1
                rhs = self.factor()
                try:
                    value = ring.div(value, rhs)
                except NotInvertibleError:
                    raise self._error("division by a non-invertible element", at) from None
            else:
                return value

    def factor(self):
        """A signed factor, or an atom (an int, a name or a parenthesised
        expr) with its optional '^' exponent."""
        tokens, ring = self.tokens, self.ring
        at = self.idx
        tok = tokens[at]
        if type(tok) is int:
            self.idx = at + 1
            value = ring.from_int(tok)
        elif tok == "+" or tok == "-":
            self._enter()
            value = self.factor()
            self.depth -= 1
            return ring.neg(value) if tok == "-" else value
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
            if tok == ring.variable:
                value = ring.var_element
            elif tok == "g" and ring.generator is not None:
                value = ring.generator
            else:
                raise self._error(f"unknown symbol {tok!r}", at)
        if tokens[self.idx] != "^":
            return value
        at = self.idx + 1
        self.idx += 2
        exp = tokens[at]
        if type(exp) is not int:
            raise self._error("exponent must be a nonnegative integer", at)
        if value is ring.var_element:  # it prints as the variable's name
            length = functools.partial(len, ring.variable)
        else:
            length = functools.partial(self._printed_length, value, at)
        message = _power_error(exp, ring.degree(value), length)
        if message is not None:
            raise self._error(message, at)
        return ring.pow(value, exp)

    def _enter(self):
        """Step over a sign or '(' one level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting exceeds the maximum depth {MAX_NESTING}", self.idx)
        self.idx += 1

    def _printed_length(self, base, at: int) -> int:
        try:
            return len(self.ring.to_str(base))
        except UnsupportedOperationError:  # the base alone is too long to print
            raise self._error(
                f"power base exceeds the maximum size {MAX_POWER_SIZE}", at
            ) from None


# INT*( ... ) around a text without parentheses
_WRAPPED = re.compile(r"\s*(\d+)\s*\*\s*\(([^()]*)\)\s*")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@functools.lru_cache(maxsize=8)
def _monomial_reader(variable: str):
    """The pattern of one signed monomial in ``variable``, for ``findall``,
    and the least k for which the grammar refuses ``variable^k`` (each cap
    grows with k); None for a variable the tokenizer would not read as a
    name.  The pattern's groups are a '+' or '-', a sign after it, the
    coefficient and the exponent of a power of the variable, and a
    constant; or, when no monomial starts there, the rest of the text
    from the next visible character in a sixth group, which ends the
    pass.

    Each run of blanks is read by a single ``\\s*`` of an alternative, so
    a failed alternative gives the run back one blank at a time, and on
    a text that ends in a visible character the second alternative
    matches wherever the first fails: the pass is linear in the text."""
    if not _NAME.fullmatch(variable):
        return None
    v = re.escape(variable) + r"(?![A-Za-z_0-9])"
    pattern = re.compile(
        rf"\s*(?:([-+])\s*)?(?:([-+])\s*)?(?:(?:(\d+)\s*\*\s*)?{v}(?:\s*\^\s*(\d+))?|(\d+))"
        r"|\s*(\S[\s\S]*)"
    )
    length = functools.partial(len, variable)
    limit = next(k for k in itertools.count() if _power_error(k, 1, length) is not None)
    return pattern, limit


def _monomial_sum(text: str, variable: str):
    """The Z[x] tuple of ``text`` when it is a sum of monomials in
    ``variable`` that the grammar accepts, read as the module docstring
    says; None for any other text."""
    reader = _monomial_reader(variable)
    if reader is None:
        return None
    pattern, limit = reader
    scale = 1
    wrapped = _WRAPPED.fullmatch(text)
    if wrapped:
        digits, text = wrapped.groups()
        scale = _literal(digits)
        if scale is None:
            return None
    # With a '+' in front, every term follows a '+' or '-' and takes at
    # most one sign after it, as the grammar's first term may take one.
    terms = pattern.findall("+" + text.rstrip())
    if terms[-1][5]:  # the rest of the text, from where no monomial starts
        return None
    coeffs = {}
    for sign, unary, coeff, exp, const, _ in terms:
        if not sign:
            return None
        if const:
            c, degree = _literal(const), 0
        else:
            c = _literal(coeff) if coeff else 1
            degree = _literal(exp) if exp else 1
            if degree is None or degree >= limit:
                return None
        if c is None:
            return None
        if (sign == "-") != (unary == "-"):
            c = -c
        coeffs[degree] = coeffs.get(degree, 0) + c
    out = [0] * (max(coeffs) + 1)
    for degree, c in coeffs.items():
        out[degree] = scale * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def parse_element(text: str, ring):
    """Parse ``text`` into a canonical element of ``ring``."""
    coeffs = _monomial_sum(text, ring.variable)
    if coeffs is None:
        return _Parser(text, ring).parse()
    return ring.from_integer_poly(coeffs)
