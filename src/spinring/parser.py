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

from dataclasses import dataclass
from fractions import Fraction

from .groebner import Ideal
from .poly import Polynomial, RingContext, RingError

# deep enough for any hand-written expression, shallow enough that the
# recursive-descent parser stays far from the interpreter's recursion limit
MAX_NESTING = 100


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


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch.isspace():
            column += 1
            i += 1
        elif ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(_Token("num", text[start:i], line, column))
            column += i - start
        elif ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, column))
            column += i - start
        elif ch in "+-*/^()":
            tokens.append(_Token("op", ch, line, column))
            column += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "end of input", line, column))
    return tokens


class _ExprParser:
    def __init__(self, tokens: list[_Token], context: RingContext):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at_op(self, *symbols: str) -> bool:
        token = self.peek()
        return token.kind == "op" and token.text in symbols

    def expr(self) -> Polynomial:
        sign = 1
        if self.at_op("+", "-"):
            sign = -1 if self.advance().text == "-" else 1
        total = self.term() * sign
        while self.at_op("+", "-"):
            sign = -1 if self.advance().text == "-" else 1
            total = total + self.term() * sign
        return total

    def term(self) -> Polynomial:
        token = self.peek()
        if token.kind == "num":
            coeff = self.rational()
            if self.at_op("*"):
                self.advance()
                return self.factors() * coeff
            if self.peek().kind == "name":
                # the only spot where '*' may be left out
                return self.factors() * coeff
            if self.at_op("("):
                nxt = self.peek()
                raise ParseError("missing '*' before '('", nxt.line, nxt.column)
            return self.context.constant(coeff)
        return self.factors()

    def rational(self) -> Fraction:
        numerator = int(self.advance().text)
        if not self.at_op("/"):
            return Fraction(numerator)
        self.advance()
        token = self.peek()
        if token.kind != "num":
            raise ParseError(f"expected a denominator, got {token.text}", token.line, token.column)
        self.advance()
        if int(token.text) == 0:
            raise ParseError("malformed rational: zero denominator", token.line, token.column)
        return Fraction(numerator, int(token.text))

    def factors(self) -> Polynomial:
        result = self.factor()
        while True:
            if self.at_op("*"):
                self.advance()
                result = result * self.factor()
            elif self.peek().kind == "name" or self.at_op("("):
                token = self.peek()
                raise ParseError(
                    f"missing '*' before {token.text}", token.line, token.column
                )
            else:
                return result

    def factor(self) -> Polynomial:
        token = self.peek()
        if token.kind == "name":
            self.advance()
            exps = [0] * self.context.nvars
            try:
                index = self.context.var_index(token.text)
            except RingError:
                raise ParseError(
                    f"unknown variable {token.text}", token.line, token.column
                ) from None
            exps[index] = self.exponent() if self.at_op("^") else 1
            return self.context.monomial(1, tuple(exps))
        if self.at_op("("):
            opener = self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("expression nested too deeply", opener.line, opener.column)
            inner = self.expr()
            self.depth -= 1
            if not self.at_op(")"):
                raise ParseError(
                    f"unbalanced parentheses: '(' at column {opener.column} never closed",
                    opener.line,
                    self.peek().column,
                )
            self.advance()
            if self.at_op("^"):
                token = self.peek()
                raise ParseError(
                    "exponent on a parenthesized group is not supported",
                    token.line,
                    token.column,
                )
            return inner
        raise ParseError(f"expected a term, got {token.text}", token.line, token.column)

    def exponent(self) -> int:
        self.advance()  # the '^'
        token = self.peek()
        if token.kind != "num":
            raise ParseError(
                f"expected an integer exponent, got {token.text}", token.line, token.column
            )
        self.advance()
        return int(token.text)


def parse_polynomial(text: str, context: RingContext) -> Polynomial:
    """Parse one polynomial expression in the given context."""
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError("empty input", 1, 1)
    parser = _ExprParser(tokens, context)
    result = parser.expr()
    leftover = parser.peek()
    if leftover.kind != "end":
        if leftover.kind == "op" and leftover.text == ")":
            raise ParseError("unbalanced parentheses: ')' was never opened", leftover.line, leftover.column)
        raise ParseError(f"unexpected {leftover.text}", leftover.line, leftover.column)
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
        lines.extend(f"  {g}" for g in self.ideal.generators)
        lines.append("end")
        return "\n".join(lines) + "\n"


def parse_ring_file(text: str) -> RingFile:
    """Parse the block format documented in the module docstring."""
    name = None
    variables: list[str] | None = None
    weights: list[int] | None = None
    order: str | None = None
    context: RingContext | None = None
    generators: list[Polynomial] = []
    stage = "ring"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if stage == "done":
            raise ParseError(f"line {lineno}: content after 'end'")
        if stage == "ring":
            if keyword != "ring" or len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'ring <name>'")
            name = fields[1]
            stage = "vars"
        elif stage == "vars":
            if keyword != "vars" or len(fields) < 2:
                raise ParseError(f"line {lineno}: expected 'vars <name>...'")
            variables = fields[1:]
            stage = "preamble"
        elif stage == "preamble":
            if keyword == "weights":
                if weights is not None:
                    raise ParseError(f"line {lineno}: duplicate weights line")
                try:
                    weights = [int(w) for w in fields[1:]]
                except ValueError:
                    raise ParseError(f"line {lineno}: weights must be integers") from None
            elif keyword == "order":
                if order is not None:
                    raise ParseError(f"line {lineno}: duplicate order line")
                if len(fields) != 2:
                    raise ParseError(f"line {lineno}: expected 'order <tag>'")
                order = fields[1]
            elif keyword == "ideal":
                if len(fields) != 1:
                    raise ParseError(f"line {lineno}: 'ideal' takes no arguments")
                try:
                    context = RingContext(
                        variables=tuple(variables),
                        weights=tuple(weights) if weights is not None else (),
                        order=order if order is not None else "grevlex",
                    )
                except RingError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                stage = "generators"
            else:
                raise ParseError(
                    f"line {lineno}: expected 'weights', 'order', or 'ideal', got {keyword!r}"
                )
        elif stage == "generators":
            if line == "end":
                stage = "done"
                continue
            try:
                # parse the raw line so reported columns match the file
                generator = parse_polynomial(raw, context)
            except ParseError as exc:
                raise ParseError(exc.message, lineno, exc.column) from None
            if generator.is_zero:
                raise ParseError(f"line {lineno}: generator is zero")
            generators.append(generator)
    if stage != "done":
        missing = {"ring": "'ring' header", "vars": "'vars' line", "preamble": "'ideal' block"}.get(
            stage, "'end'"
        )
        raise ParseError(f"unexpected end of file: missing {missing}")
    return RingFile(name=name, context=context, ideal=Ideal(context, tuple(generators)))
