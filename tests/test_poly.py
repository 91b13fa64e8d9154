"""Polynomial arithmetic and monomial order tests."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinring import ContextMismatch, Polynomial, RingContext, RingError

from oracles import monomials_up_to

XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))
EVEN = RingContext(("a0", "a1", "b0", "b1"))


def coefficients():
    return st.fractions(min_value=-10, max_value=10, max_denominator=6)


def polynomials(ctx, max_degree=3, max_terms=5):
    term = st.tuples(st.sampled_from(monomials_up_to(ctx.nvars, max_degree)), coefficients())
    return st.lists(term, max_size=max_terms).map(lambda pairs: Polynomial(ctx, dict(pairs)))


# -- construction -------------------------------------------------------------


def test_zero_terms_are_pruned():
    f = Polynomial(XY, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert f == Polynomial(XY, {(0, 1): 2})
    assert len(f) == 1


def test_zero_polynomial():
    zero = XY.zero()
    assert zero.is_zero
    assert str(zero) == "0"
    assert zero.weighted_degree() == 0
    with pytest.raises(RingError):
        zero.leading_term()


def test_bad_exponents_rejected():
    with pytest.raises(RingError):
        Polynomial(XY, {(1,): 1})
    with pytest.raises(RingError):
        Polynomial(XY, {(1, -1): 1})


def test_context_validation():
    with pytest.raises(RingError):
        RingContext(())
    with pytest.raises(RingError):
        RingContext(("x", "x"))
    with pytest.raises(RingError):
        RingContext(("x",), weights=(0,))
    with pytest.raises(RingError):
        RingContext(("x",), order="deglex")
    # a name the expression parser could not read back
    for name in ("2x", "½x"):
        with pytest.raises(RingError, match="bad variable name"):
            RingContext((name,))


def test_unknown_variable():
    with pytest.raises(RingError, match="unknown variable 'q'"):
        XY.variable("q")


def test_weights_must_be_integers():
    with pytest.raises(RingError, match="weights must be positive integers"):
        RingContext(("x", "y"), weights=(1.5, 1))


def test_context_mixing_raises():
    with pytest.raises(ContextMismatch):
        XY.variable("x") + XYZ.variable("x")


# -- monomial orders ----------------------------------------------------------


def test_grevlex_degree_two_chain():
    # x^2 > x*y > y^2 > x*z > y*z > z^2 in three variables
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [XYZ.sort_key(m) for m in chain]
    assert keys == sorted(keys, reverse=True)


def test_grevlex_is_graded():
    assert XYZ.sort_key((0, 0, 3)) > XYZ.sort_key((1, 1, 0))


def test_lex_ignores_degree():
    lex = RingContext(("x", "y"), order="lex")
    assert lex.sort_key((1, 0)) > lex.sort_key((0, 3))


def test_sort_key_agrees_with_descending_key():
    # both keys order every monomial set the same way, under every order
    rng = random.Random(4242)
    for nvars in range(1, 5):
        names = tuple("xyzw"[:nvars])
        weights = tuple(rng.randint(1, 4) for _ in names)
        for ctx in (RingContext(names), RingContext(names, order="lex"), RingContext(names, weights)):
            descending = ctx.descending_key()
            for _ in range(25):
                monomials = list({tuple(rng.randint(0, 4) for _ in names) for _ in range(rng.randint(1, 12))})
                ascending = sorted(monomials, key=ctx.sort_key)
                assert ascending == sorted(monomials, key=descending)[::-1]
                f = Polynomial(ctx, dict.fromkeys(monomials, 1))
                assert f.monomials() == tuple(reversed(ascending))
                assert f.leading_monomial() == max(monomials, key=ctx.sort_key)


def test_leading_term_grevlex():
    f = EVEN.variable("a0") * EVEN.variable("a1") + EVEN.variable("a1") ** 2
    assert f.leading_term() == ((1, 1, 0, 0), Fraction(1))


def test_weighted_degree():
    ctx = RingContext(("x", "y"), weights=(1, 3))
    f = ctx.variable("x") ** 3 + ctx.variable("y")
    assert f.is_homogeneous
    assert f.weighted_degree() == 3
    g = f + ctx.one()
    assert not g.is_homogeneous
    assert g.weighted_degree() is None
    assert g.degree_support() == (0, 3)


# -- arithmetic ---------------------------------------------------------------


@given(polynomials(XYZ), polynomials(XYZ), polynomials(XYZ))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == XYZ.zero()


@given(polynomials(XYZ), coefficients())
def test_scalar_operations(f, c):
    assert c * f == f * c
    assert f + c == c + f
    assert (c - f) + f == XYZ.constant(c)


@given(polynomials(XY).filter(bool), polynomials(XY).filter(bool))
def test_leading_term_multiplicative(f, g):
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    pm, pc = (f * g).leading_term()
    assert pm == tuple(a + b for a, b in zip(fm, gm))
    assert pc == fc * gc


@settings(max_examples=60)
@given(
    st.integers(1, 3),
    st.data(),
)
def test_homogeneous_degrees_add(degree, data):
    def homogeneous(d):
        monos = [m for m in monomials_up_to(2, d) if sum(m) == d]
        term = st.tuples(st.sampled_from(monos), coefficients())
        return st.lists(term, min_size=1, max_size=3).map(
            lambda pairs: Polynomial(XY, dict(pairs))
        ).filter(bool)

    f = data.draw(homogeneous(degree))
    g = data.draw(homogeneous(2))
    assert (f * g).weighted_degree() == degree + 2


def test_pow():
    x, y = XY.variable("x"), XY.variable("y")
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    assert (x + y) ** 0 == XY.one()
    with pytest.raises(RingError):
        x ** -1


def test_monic():
    f = 3 * XY.variable("x") + 6 * XY.variable("y")
    assert f.monic() == XY.variable("x") + 2 * XY.variable("y")


# -- value semantics ----------------------------------------------------------


def test_immutable():
    f = XY.variable("x")
    with pytest.raises(AttributeError):
        f.context = XYZ


@given(polynomials(XY), polynomials(XY))
def test_hash_consistent_with_eq(f, g):
    if f == g:
        assert hash(f) == hash(g)
    assert len({f, g, f + XY.zero()}) <= 2


def test_copy_and_pickle():
    ctx = RingContext(("x", "y"), weights=(1, 3), order="lex")
    f = Fraction(-3, 7) * ctx.variable("x") ** 3 + ctx.variable("y") - 2
    f.leading_term()  # fill the caches, which a copy must not depend on
    hash(f)
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f
        assert hash(g) == hash(f)
        assert g.leading_term() == f.leading_term()
        with pytest.raises(AttributeError):
            g.context = XY


def test_equality_against_scalars():
    assert XY.constant(Fraction(5, 4)) == Fraction(5, 4)
    assert XY.zero() == 0
    assert XY.variable("x") != 1


# -- printing -----------------------------------------------------------------


@pytest.mark.parametrize(
    "poly,text",
    [
        (EVEN.zero(), "0"),
        (-EVEN.variable("a0"), "-a0"),
        (EVEN.constant(Fraction(5, 4)), "5/4"),
        (EVEN.variable("a0") * EVEN.variable("a1") - EVEN.variable("a1") * EVEN.variable("b0"), "a0*a1 - a1*b0"),
        (3 * EVEN.variable("a0") ** 3 + 22 * EVEN.variable("a0") ** 2 * EVEN.variable("b1"), "3*a0^3 + 22*a0^2*b1"),
        (Fraction(-1, 6) * EVEN.variable("a1") * EVEN.variable("b0"), "-1/6*a1*b0"),
        (EVEN.variable("b1") ** 4, "b1^4"),
        (EVEN.variable("a0") - 1, "a0 - 1"),
    ],
)
def test_canonical_printing(poly, text):
    assert str(poly) == text


def test_terms_iterate_descending():
    f = EVEN.variable("b0") ** 2 + EVEN.variable("a0") ** 2 + EVEN.variable("a1") * EVEN.variable("b0")
    assert [m for m, _ in f.terms()] == [(2, 0, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)]
