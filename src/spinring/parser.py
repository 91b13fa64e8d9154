"""Text front end: polynomial expressions and ring presentation files.

Expression grammar (whitespace insensitive)::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational | rational '*' factors | rational factors | factors
    factors  := factor ('*' factor)*
    factor   := var ('^' nat)? | '(' expr ')'
    rational := int ('/' posint)?

The ``rational factors`` form is the one place where '*' may be omitted:
``3a0`` means ``3*a0``.  Writing two variables side by side (``a0 a1``) is
rejected, as is an exponent on a parenthesized group.  Coefficients are
rational literals only.  Parentheses nest at most ``MAX_NESTING`` deep.
Numbers are runs of decimal digits in any script; other digit characters,
such as superscripts, are rejected.

Ring files present a quotient ring in a small block format::

    ring <name>
    vars <v1> <v2> ...
    weights <w1> <w2> ...     (optional, default all 1)
    order grevlex|lex         (optional, default grevlex)
    ideal
      <one generator expression per line>
    end

Both parsers raise :class:`ParseError` with 1-based positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .groebner import Ideal
from .poly import Polynomial, RingContext, RingError

# deep enough for any hand-written expression, shallow enough that the
# recursive-descent parser stays far from the interpreter's recursion limit
MAX_NESTING = 100

# Every character falls in exactly one match.  \d is exactly what int()
# reads; a word that does not start with a letter or '_' (a superscript,
# say) is an unexpected character.
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>\w+)|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)", re.DOTALL)


class ParseError(RingError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None and line > 1:
            where = f" at line {line}, column {column}"
        elif column is not None:
            where = f" at column {column}"
        super().__init__(message + where)


class _Token(NamedTuple):
    kind: str  # num | name | op | end
    text: str
    offset: int


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset into text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, token = match.lastgroup, match.group()
        if kind == "bad" or kind == "name" and not (token[0].isalpha() or token[0] == "_"):
            raise ParseError(f"unexpected character {token[0]!r}", *_position(text, match.start()))
        if kind != "space":
            tokens.append(_Token(kind, token, match.start()))
    tokens.append(_Token("end", "end of input", len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str, context: RingContext):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.context = context
        self.depth = 0

    def error(self, message: str, token: _Token) -> ParseError:
        return ParseError(message, *_position(self.text, token.offset))

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def at(self, *symbols: str) -> bool:
        # no number or name is spelled like an operator
        return self.peek().text in symbols

    def accept(self, symbol: str) -> bool:
        """Step over the next token if it is the given operator."""
        found = self.at(symbol)
        self.pos += found
        return found

    def number(self, expected: str) -> int:
        token = self.advance()
        if token.kind != "num":
            raise self.error(f"expected {expected}, got {token.text}", token)
        try:
            return int(token.text)
        except ValueError:  # more digits than int() converts
            raise self.error("number too long", token) from None

    def expr(self) -> Polynomial:
        total = self.signed_term()
        while self.at("+", "-"):
            total = total + self.signed_term()
        return total

    def signed_term(self) -> Polynomial:
        sign = -1 if self.at("+", "-") and self.advance().text == "-" else 1
        return self.term() * sign

    def term(self) -> Polynomial:
        if self.peek().kind != "num":
            return self.factors()
        coeff = self.rational()
        # '*' may be left out before a variable, and only there
        if not self.accept("*") and self.peek().kind != "name":
            if self.at("("):
                raise self.error("missing '*' before '('", self.peek())
            return self.context.constant(coeff)
        return self.factors() * coeff

    def rational(self) -> Fraction:
        numerator = self.number("a number")
        if not self.accept("/"):
            return Fraction(numerator)
        token = self.peek()
        denominator = self.number("a denominator")
        if not denominator:
            raise self.error("malformed rational: zero denominator", token)
        return Fraction(numerator, denominator)

    def factors(self) -> Polynomial:
        result = self.factor()
        while self.accept("*"):
            result = result * self.factor()
        token = self.peek()
        if token.kind == "name" or token.text == "(":
            raise self.error(f"missing '*' before {token.text}", token)
        return result

    def factor(self) -> Polynomial:
        token = self.advance()
        if token.kind == "name":
            if token.text not in self.context.variables:
                raise self.error(f"unknown variable {token.text}", token)
            power = self.number("an integer exponent") if self.accept("^") else 1
            exps = tuple(power if name == token.text else 0 for name in self.context.variables)
            return self.context.monomial(1, exps)
        if token.text != "(":
            raise self.error(f"expected a term, got {token.text}", token)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("expression nested too deeply", token)
        inner = self.expr()
        self.depth -= 1
        if not self.accept(")"):
            line, column = _position(self.text, token.offset)
            here = _position(self.text, self.peek().offset)[1]
            raise ParseError(f"unbalanced parentheses: '(' at column {column} never closed", line, here)
        if self.at("^"):
            raise self.error("exponent on a parenthesized group is not supported", self.peek())
        return inner


def parse_polynomial(text: str, context: RingContext) -> Polynomial:
    """Parse one polynomial expression in the given context."""
    parser = _ExprParser(text, context)
    if parser.peek().kind == "end":
        raise ParseError("empty input", 1, 1)
    result = parser.expr()
    leftover = parser.peek()
    if leftover.text == ")":
        raise parser.error("unbalanced parentheses: ')' was never opened", leftover)
    if leftover.kind != "end":
        raise parser.error(f"unexpected {leftover.text}", leftover)
    return result


@dataclass(frozen=True)
class RingFile:
    """A parsed ring presentation: name, context, and the relation ideal."""

    name: str
    context: RingContext
    ideal: Ideal

    def render(self) -> str:
        """Canonical text form; parsing it back gives an equal RingFile."""
        lines = [f"ring {self.name}", "vars " + " ".join(self.context.variables)]
        if any(w != 1 for w in self.context.weights):
            lines.append("weights " + " ".join(str(w) for w in self.context.weights))
        lines.append(f"order {self.context.order}")
        lines.append("ideal")
        # a generator line that is only 'end' would close the block
        lines.extend(f"  ({g})" if str(g) == "end" else f"  {g}" for g in self.ideal.generators)
        lines.append("end")
        return "\n".join(lines) + "\n"


def parse_ring_file(text: str) -> RingFile:
    """Parse the block format documented in the module docstring."""
    # the nonblank lines as (line number, raw line, fields)
    lines = ((n, raw, raw.split()) for n, raw in enumerate(text.splitlines(), start=1) if raw.strip())

    def take(missing):
        for line in lines:
            return line
        raise ParseError(f"unexpected end of file: missing {missing}")

    lineno, _, fields = take("'ring' header")
    if fields[0] != "ring" or len(fields) != 2:
        raise ParseError(f"line {lineno}: expected 'ring <name>'")
    name = fields[1]
    lineno, _, fields = take("'vars' line")
    if fields[0] != "vars" or len(fields) < 2:
        raise ParseError(f"line {lineno}: expected 'vars <name>...'")
    variables = tuple(fields[1:])

    def check(lineno: int, **preamble) -> None:
        # a bad value is reported on the line that holds it
        try:
            RingContext(variables, **preamble)
        except RingError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None

    check(lineno)
    preamble = {}  # RingContext keywords: weights, order
    lineno, _, (keyword, *values) = take("'ideal' block")
    while keyword != "ideal":
        if keyword not in ("weights", "order"):
            raise ParseError(f"line {lineno}: expected 'weights', 'order', or 'ideal', got {keyword!r}")
        if keyword in preamble:
            raise ParseError(f"line {lineno}: duplicate {keyword} line")
        if keyword == "weights":
            try:
                preamble[keyword] = tuple(map(int, values))
            except ValueError:
                raise ParseError(f"line {lineno}: weights must be integers") from None
        elif len(values) != 1:
            raise ParseError(f"line {lineno}: expected 'order <tag>'")
        else:
            preamble[keyword] = values[0]
        check(lineno, **{keyword: preamble[keyword]})
        lineno, _, (keyword, *values) = take("'ideal' block")
    if values:
        raise ParseError(f"line {lineno}: 'ideal' takes no arguments")
    context = RingContext(variables, **preamble)
    generators = []
    lineno, raw, fields = take("'end'")
    while fields != ["end"]:
        try:
            # parse the raw line so reported columns match the file
            generator = parse_polynomial(raw, context)
        except ParseError as exc:
            raise ParseError(exc.message, lineno, exc.column) from None
        if generator.is_zero:
            raise ParseError(f"line {lineno}: generator is zero")
        generators.append(generator)
        lineno, raw, fields = take("'end'")
    for lineno, _, _ in lines:
        raise ParseError(f"line {lineno}: content after 'end'")
    return RingFile(name=name, context=context, ideal=Ideal(context, tuple(generators)))
