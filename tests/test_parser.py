"""Expression and ring-file parsing, positions, and the print round trip."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinring import (
    GREVLEX,
    Ideal,
    ParseError,
    Polynomial,
    RingContext,
    RingError,
    parse_polynomial,
    parse_ring_file,
)
from spinring.parser import MAX_NESTING, RingFile

from oracles import monomials_up_to

EVEN = RingContext(("a0", "a1", "b0", "b1"))
XY = RingContext(("x", "y"))


def test_single_variable():
    assert parse_polynomial("a0", EVEN) == EVEN.variable("a0")


def test_coefficient_forms():
    b0 = EVEN.variable("b0")
    assert parse_polynomial("3*b0", EVEN) == 3 * b0
    assert parse_polynomial("3b0", EVEN) == 3 * b0
    assert parse_polynomial("3 b0", EVEN) == 3 * b0
    assert parse_polynomial("1/2*b0", EVEN) == Fraction(1, 2) * b0
    assert parse_polynomial("7", EVEN) == EVEN.constant(7)
    assert parse_polynomial("-7/3", EVEN) == EVEN.constant(Fraction(-7, 3))


def test_generator_expression():
    expected = (
        3 * EVEN.variable("b0") ** 2
        + 6 * EVEN.variable("a1") * EVEN.variable("b0")
        - EVEN.variable("a0") * EVEN.variable("b0")
    )
    assert parse_polynomial("3*b0^2 + 6*a1*b0 - a0*b0", EVEN) == expected


def test_leading_sign():
    assert parse_polynomial("-a0 + b0", EVEN) == EVEN.variable("b0") - EVEN.variable("a0")
    assert parse_polynomial("+a0", EVEN) == EVEN.variable("a0")


def test_parenthesized_group():
    a0, b0, a1 = (EVEN.variable(v) for v in ("a0", "b0", "a1"))
    assert parse_polynomial("3*(a0 + 2*b0)*a1", EVEN) == 3 * a0 * a1 + 6 * b0 * a1
    assert parse_polynomial("1/10*(a0 + 2*b0)", EVEN) == Fraction(1, 10) * a0 + Fraction(1, 5) * b0


def test_whitespace_insensitive():
    dense = parse_polynomial("3*a0^3+22*a0^2*b1", EVEN)
    spaced = parse_polynomial("  3 * a0 ^ 3 + 22 * a0 ^ 2 * b1 ", EVEN)
    assert dense == spaced


def test_exponent_zero():
    assert parse_polynomial("a0^0", EVEN) == EVEN.one()


# -- error positions ----------------------------------------------------------


def test_unknown_variable_column():
    with pytest.raises(ParseError, match="unknown variable c0 at column 6"):
        parse_polynomial("a0 + c0", EVEN)


def test_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("1/0*a0", EVEN)


def test_empty_input():
    with pytest.raises(ParseError, match="empty input"):
        parse_polynomial("   ", EVEN)


def test_unbalanced_open():
    with pytest.raises(ParseError, match="never closed"):
        parse_polynomial("(a0 + b0", EVEN)


def test_unbalanced_close():
    with pytest.raises(ParseError, match="never opened"):
        parse_polynomial("a0 + b0)", EVEN)


def test_juxtaposition_rejected():
    with pytest.raises(ParseError, match="missing '\\*'"):
        parse_polynomial("a0 a1", EVEN)
    with pytest.raises(ParseError, match="missing '\\*'"):
        parse_polynomial("3(a0)", EVEN)


def test_group_exponent_rejected():
    with pytest.raises(ParseError, match="parenthesized group"):
        parse_polynomial("(a0 + b0)^2", EVEN)


def test_bad_exponent():
    with pytest.raises(ParseError, match="integer exponent"):
        parse_polynomial("a0^-2", EVEN)


def test_trailing_garbage():
    with pytest.raises(ParseError, match="unexpected"):
        parse_polynomial("a0 / b0", EVEN)


def test_missing_denominator():
    with pytest.raises(ParseError, match="expected a denominator, got a0 at column 3"):
        parse_polynomial("1/a0", EVEN)


def test_missing_term():
    with pytest.raises(ParseError, match="expected a term, got end of input at column 5"):
        parse_polynomial("a0 +", EVEN)
    with pytest.raises(ParseError, match=r"expected a term, got \) at line 2, column 3"):
        parse_polynomial("a0 *\n  )", EVEN)


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_polynomial("a0 % b0", EVEN)


def test_non_ascii_digits():
    # numbers are runs of decimal digits, exactly what int() reads
    assert parse_polynomial("a0^\u0663", EVEN) == EVEN.variable("a0") ** 3
    with pytest.raises(ParseError, match="unexpected character '²' at column 4"):
        parse_polynomial("a0^²", EVEN)
    with pytest.raises(ParseError, match="unexpected character '½' at column 2"):
        parse_polynomial("3½*a0", EVEN)


def test_number_too_long():
    # int() converts at most 4300 digits
    with pytest.raises(ParseError, match="^number too long at column 4$"):
        parse_polynomial("a0^" + "7" * 4301, EVEN)


@example("½x")
@example("ⅷ")
@given(st.text(min_size=1, max_size=4))
def test_every_variable_name_parses(name):
    try:
        ctx = RingContext((name,))
    except RingError:
        return
    assert parse_polynomial(name, ctx) == ctx.variable(name)


@example("a0^²")
@example("²*a0")
@example("a0 + ¹/2")
@given(st.text())
def test_parse_polynomial_is_total(text):
    try:
        parse_polynomial(text, EVEN)
    except ParseError:
        pass


def test_nesting_limit():
    def nested(depth):
        return "(" * depth + "a0" + ")" * depth

    assert parse_polynomial(nested(MAX_NESTING), EVEN) == EVEN.variable("a0")
    for depth in (MAX_NESTING + 1, 2000):
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            parse_polynomial(nested(depth), EVEN)
        assert exc.value.column == MAX_NESTING + 1


# -- round trip ---------------------------------------------------------------


def coefficients():
    return st.fractions(min_value=-20, max_value=20, max_denominator=24)


@given(
    st.lists(
        st.tuples(st.sampled_from(monomials_up_to(4, 4)), coefficients()),
        max_size=6,
    )
)
def test_print_parse_round_trip(pairs):
    f = Polynomial(EVEN, dict(pairs))
    assert parse_polynomial(str(f), EVEN) == f


# -- ring files ---------------------------------------------------------------

SPIN_FILE = """\
ring evenspin
vars a0 a1 b0 b1
ideal
  a1*b1
  b0*b1
  3*a0^3 + 22*a0^2*b1
end
"""


def test_parse_ring_file():
    rf = parse_ring_file(SPIN_FILE)
    assert rf.name == "evenspin"
    assert rf.context == EVEN
    assert rf.context.order == GREVLEX
    assert rf.context.weights == (1, 1, 1, 1)
    assert len(rf.ideal.generators) == 3
    assert rf.ideal.generators[0] == EVEN.variable("a1") * EVEN.variable("b1")


def test_ring_file_weights_and_order():
    rf = parse_ring_file("ring w\nvars x y\nweights 1 3\norder lex\nideal\n  x^3 - y\nend\n")
    assert rf.context.weights == (1, 3)
    assert rf.context.order == "lex"
    assert rf.ideal.generators[0].is_homogeneous


def test_ring_file_preamble_in_either_order():
    a = parse_ring_file("ring w\nvars x y\norder lex\nweights 1 3\nideal\n  x\nend\n")
    b = parse_ring_file("ring w\nvars x y\nweights 1 3\norder lex\nideal\n  x\nend\n")
    assert a == b


def test_ring_file_render_round_trip():
    for text in (
        SPIN_FILE,
        "ring w\nvars x y\nweights 1 3\norder lex\nideal\n  x^3 - y\nend\n",
        "ring e\nvars end x\nideal\n  (end)\n  x^2\nend\n",
    ):
        rf = parse_ring_file(text)
        assert parse_ring_file(rf.render()) == rf
    # a lone generator 'end' is written so that it does not close the block
    ctx = RingContext(("end",))
    rf = RingFile("r", ctx, Ideal(ctx, (ctx.variable("end"),)))
    assert parse_ring_file(rf.render()) == rf


@pytest.mark.parametrize(
    "text,message",
    [
        ("vars x y\nideal\nend\n", "expected 'ring"),
        ("ring r\nideal\nend\n", "expected 'vars"),
        ("ring r\nvars x x\nideal\n  x\nend\n", "duplicate variable"),
        ("ring r\nvars x\nweights 1\nweights 1\nideal\nend\n", "duplicate weights"),
        ("ring r\nvars x\norder lex\norder lex\nideal\nend\n", "line 4: duplicate order line"),
        ("ring r\nvars x\norder\nideal\nend\n", "line 3: expected 'order <tag>'"),
        ("ring r\nvars x\nideal x\nend\n", "line 3: 'ideal' takes no arguments"),
        ("ring r\nvars x\nweights a\nideal\nend\n", "line 3: weights must be integers"),
        ("ring r\n\n", "unexpected end of file: missing 'vars' line"),
        ("ring r\nvars x\nweights 1\n", "unexpected end of file: missing 'ideal' block"),
        ("ring r\nvars x\nweights 1 2\nideal\n  x\nend\n", "weights do not match"),
        ("ring r\nvars x\norder deglex\nideal\n  x\nend\n", "unknown monomial order"),
        ("ring r\nvars x\nbogus\nideal\nend\n", "expected 'weights', 'order', or 'ideal'"),
        ("ring r\nvars x\nideal\n  x\n", "missing 'end'"),
        ("ring r\nvars x\nideal\n  x\nend\nx\n", "content after 'end'"),
        ("ring r\nvars x\nideal\n  0\nend\n", "generator is zero"),
        ("ring r\nvars ½x\nideal\nend\n", "bad variable name"),
        # a bad context value is reported on the line that holds it
        ("ring r\nvars x x\nideal\n  x\nend\n", "^line 2: duplicate variable name$"),
        ("ring r\n\nvars x ½x\nideal\nend\n", "^line 3: bad variable name '½x'$"),
        ("ring r\nvars x y\nweights 0 1\norder lex\nideal\n  x\nend\n", "^line 3: weights must be positive"),
        ("ring r\nvars x y\norder lex\nweights 1 2 3\nideal\n  x\nend\n", "^line 4: weights do not match"),
        ("ring r\nvars x\nweights 2\norder deglex\nideal\n  x\nend\n", "^line 4: unknown monomial order"),
    ],
)
def test_ring_file_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_ring_file(text)


def test_ring_file_blank_and_indented_lines():
    text = "\n  ring r\n\n\tvars x y\n   order lex\n\nideal\n\n      x^2\n  \n y - x\n   end  \n\n"
    rf = parse_ring_file(text)
    assert rf.name == "r"
    assert rf.context == RingContext(("x", "y"), order="lex")
    assert [str(g) for g in rf.ideal.generators] == ["x^2", "-x + y"]


def test_ring_file_generator_error_carries_line():
    text = "ring r\nvars x y\nideal\n  x + q\nend\n"
    with pytest.raises(ParseError, match="unknown variable q at line 4, column 7"):
        parse_ring_file(text)
