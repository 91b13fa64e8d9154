"""Buchberger engine: frozen examples, determinism, and oracle cross-checks.

The reduced monic basis is the canonical certificate everything downstream
trusts, so the tests here hammer on uniqueness (permute and rescale the
generators, shuffle reduction order) and on agreement with a brute-force
membership oracle that knows nothing about S-polynomials.
"""

import random
import time
from fractions import Fraction

import pytest

from spinring import (
    ContextMismatch,
    GroebnerBasis,
    Ideal,
    Polynomial,
    RingContext,
    RingError,
    buchberger,
    builtin,
    groebner_basis,
    is_member,
    normal_form,
    s_polynomial,
)
from spinring import groebner

from oracles import (
    brute_force_member,
    random_ideal,
    random_member,
    random_polynomial,
    reference_buchberger,
    reference_divide,
)

XY = RingContext(("x", "y"))
X, Y = XY.variable("x"), XY.variable("y")


def small_ideal() -> Ideal:
    return Ideal(XY, (X**2 - Y, X * Y - 1))


def test_small_example_frozen():
    gb = buchberger(small_ideal())
    assert [str(g) for g in gb] == ["x^2 - y", "x*y - 1", "y^2 - x"]


def test_s_polynomial_example():
    s = s_polynomial(X**2 - Y, X * Y - 1)
    assert s == X - Y**2
    assert str(s) == "-y^2 + x"


def test_s_polynomial_context_mismatch():
    other = RingContext(("x", "y"), order="lex")
    with pytest.raises(ContextMismatch):
        s_polynomial(X, other.variable("x"))


def test_s_polynomial_of_zero():
    with pytest.raises(RingError, match="zero polynomial"):
        s_polynomial(X, XY.zero())


def test_division_rejects_foreign_context_and_zero_basis():
    other = RingContext(("x", "y"), order="lex")
    with pytest.raises(ContextMismatch):
        normal_form(X, [other.variable("x")])
    with pytest.raises(ContextMismatch):
        is_member(other.variable("x"), small_ideal())
    with pytest.raises(RingError, match="zero basis element"):
        normal_form(X, [Y, XY.zero()])


def test_ideal_rejects_zero_generator():
    with pytest.raises(RingError, match="nonzero"):
        Ideal(XY, (X, XY.zero()))


def test_ideal_rejects_foreign_generator():
    other = RingContext(("x", "y"), order="lex")
    with pytest.raises(ContextMismatch):
        Ideal(XY, (other.variable("x"),))


def test_buchberger_requires_generators():
    with pytest.raises(RingError, match="at least one generator"):
        buchberger(Ideal(XY, ()))


def reduced_invariants(gb: GroebnerBasis) -> None:
    ctx = gb.context
    lms = gb.leading_monomials()
    assert list(lms) == sorted(lms, key=ctx.sort_key, reverse=True)
    for g in gb:
        assert g.leading_coefficient() == 1
    for i, g in enumerate(gb.elements):
        others = [h for j, h in enumerate(gb.elements) if j != i]
        assert normal_form(g, others) == g  # no term reducible elsewhere


def test_builtin_bases_are_reduced():
    for component in ("even", "odd"):
        reduced_invariants(groebner_basis(component))


def test_idempotent_on_own_elements():
    for ideal in (small_ideal(), builtin("even").ideal, builtin("odd").ideal):
        gb = buchberger(ideal)
        again = buchberger(Ideal(ideal.context, gb.elements))
        assert again == gb


def test_unique_under_permutation_and_rescaling():
    rng = random.Random(20260819)
    for ideal in (small_ideal(), builtin("even").ideal, builtin("odd").ideal):
        reference = buchberger(ideal)
        gens = list(ideal.generators)
        for _ in range(4):
            rng.shuffle(gens)
            scaled = tuple(g * rng.choice([2, -1, 3, -5, 7]) for g in gens)
            assert buchberger(Ideal(ideal.context, scaled)) == reference


def test_normal_form_confluent_under_basis_shuffle():
    rng = random.Random(7)
    gb = groebner_basis("even")
    ctx = gb.context
    for _ in range(30):
        f = random_polynomial(rng, ctx, max_degree=4, max_terms=6)
        reference = gb.normal_form(f)
        basis = list(gb.elements)
        for _ in range(5):
            rng.shuffle(basis)
            assert normal_form(f, basis) == reference


def test_normal_form_idempotent():
    rng = random.Random(13)
    gb = groebner_basis("even")
    for _ in range(30):
        f = random_polynomial(rng, gb.context, max_degree=4, max_terms=6)
        r = gb.normal_form(f)
        assert gb.normal_form(r) == r


def test_basis_elements_reduce_to_zero():
    for component in ("even", "odd"):
        ideal = builtin(component).ideal
        gb = groebner_basis(component)
        for g in ideal.generators:
            assert gb.contains(g)


def test_membership_agrees_with_brute_force():
    rng = random.Random(424242)
    for _ in range(20):
        ideal = random_ideal(rng)
        member = random_member(rng, ideal)
        assert is_member(member, ideal)
        assert brute_force_member(member, ideal)
        probe = random_polynomial(rng, ideal.context, max_degree=2, max_terms=3)
        assert is_member(probe, ideal) == brute_force_member(probe, ideal)


def test_principal_ideal_membership():
    rng = random.Random(99)
    g = X**2 + 3 * X * Y - Y
    ideal = Ideal(XY, (g,))
    for _ in range(10):
        f = random_polynomial(rng, XY, max_degree=3, max_terms=4)
        assert is_member(f * g, ideal)
    assert not is_member(X, ideal)


def test_normal_form_of_zero():
    gb = groebner_basis("even")
    assert gb.normal_form(gb.context.zero()).is_zero


def test_lex_order_eliminates():
    ctx = RingContext(("x", "y"), order="lex")
    x, y = ctx.variable("x"), ctx.variable("y")
    gb = buchberger(Ideal(ctx, (x**2 - y, x * y - 1)))
    assert [str(g) for g in gb] == ["x - y^2", "y^3 - 1"]
    assert gb.contains(x**2 - y)
    assert gb.contains(x * y - 1)


def test_engine_matches_reference_engine():
    # grevlex, lex and weighted grevlex: the same reduced bases, and the same
    # remainders, also when dividing by a non-Groebner list that holds
    # repeated leading monomials
    rng = random.Random(31337)
    orders = [("grevlex", ()), ("lex", ()), ("grevlex", (2, 1, 3))]
    for trial in range(300):
        order, weights = orders[trial % 3]
        nvars = rng.randint(2, 3)
        ctx = RingContext(tuple("xyz"[:nvars]), weights[:nvars], order)
        ideal = Ideal(ctx, tuple(random_polynomial(rng, ctx) for _ in range(rng.randint(1, 3))))
        gb = buchberger(ideal)
        assert gb.elements == reference_buchberger(ideal)
        f = random_polynomial(rng, ctx, max_degree=4, max_terms=6)
        for basis in (gb.elements, ideal.generators + gb.elements):
            assert normal_form(f, basis) == reference_divide(f, basis)[1]
    # rational coefficients, some numerators and denominators above 2^64,
    # and lists rescaled by a negative rational or holding a generator twice
    # up to such a factor: the completion's integer rows must clear every
    # denominator, content and sign.  A rational dividend per draw, with
    # its own generator so the ideals stay as they were, checks that the
    # division loop's factor turns its integer remainder back into the
    # rational one.
    rng = random.Random(2718)
    dividends = random.Random(27182)
    big = 2**64

    def rational(rng, ctx, **shape):
        terms = {}
        for m, c in random_polynomial(rng, ctx, **shape).terms():
            numerator = rng.randint(big, 4 * big) if rng.random() < 0.3 else rng.randint(1, 9)
            denominator = rng.randint(big, 4 * big) if rng.random() < 0.3 else rng.randint(1, 9)
            terms[m] = c * Fraction(numerator, denominator)
        return Polynomial(ctx, terms)

    for trial in range(60):
        order, weights = orders[trial % 3]
        nvars = rng.randint(2, 3)
        ctx = RingContext(tuple("xyz"[:nvars]), weights[:nvars], order)
        generators = [rational(rng, ctx) for _ in range(rng.randint(1, 3))]
        factor = -Fraction(rng.randint(1, 4 * big), rng.randint(1, 4 * big))
        if trial % 4 == 1:
            generators = [g * factor for g in generators]
        elif trial % 4 == 2:
            generators.append(generators[0] * factor)
        ideal = Ideal(ctx, tuple(generators))
        gb = buchberger(ideal)
        assert gb.elements == reference_buchberger(ideal)
        f = rational(dividends, ctx, max_degree=4, max_terms=6)
        for basis in (gb.elements, ideal.generators + gb.elements):
            assert normal_form(f, basis) == reference_divide(f, basis)[1]
        assert gb.normal_form(f) == reference_divide(f, gb.elements)[1]


def test_normal_form_of_large_power_is_fast():
    # x^3 = 1 in the toy ring; division must not cost quadratic time in the
    # exponent
    gb = buchberger(small_ideal())
    f = X**20000
    start = time.monotonic()
    assert gb.normal_form(f) == Y
    assert time.monotonic() - start < 2.0


def test_division_step_limit(monkeypatch):
    # x^N takes 5N/6 reduction steps in the toy ring, rounded down
    gb = buchberger(small_ideal())
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 100)
    assert gb.normal_form(X**121) == X
    with pytest.raises(RingError, match="^division exceeds the limit of 100 reduction steps$"):
        gb.normal_form(X**122)
    # completing cyclic-4 takes at most 4 steps in one S-pair reduction, so
    # a cap of 3 stops the pair loop itself
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 3)
    with pytest.raises(RingError, match="^division exceeds the limit of 3 reduction steps$"):
        buchberger(cyclic(4))
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 4)
    assert len(buchberger(cyclic(4))) == 7


def cyclic(n: int) -> Ideal:
    ctx = RingContext(tuple(f"x{i}" for i in range(n)))
    x = [ctx.variable(v) for v in ctx.variables]
    generators = []
    for d in range(1, n):
        total = ctx.zero()
        for i in range(n):
            term = ctx.one()
            for k in range(d):
                term = term * x[(i + k) % n]
            total = total + term
        generators.append(total)
    product = ctx.one()
    for v in x:
        product = product * v
    return Ideal(ctx, tuple(generators) + (product - 1,))


def test_cyclic_5_completes_quickly():
    ideal = cyclic(5)
    start = time.monotonic()
    gb = buchberger(ideal)
    assert time.monotonic() - start < 10.0
    assert len(gb) == 20
    reduced_invariants(gb)
    assert all(gb.contains(g) for g in ideal.generators)


def test_basis_is_computed_once_per_ideal():
    ideal = small_ideal()
    assert buchberger(ideal) is buchberger(ideal)
    assert is_member(X * Y - 1, ideal)
    assert buchberger(ideal) is ideal.reduced_basis
    # an equal ideal built separately completes on its own
    twin = small_ideal()
    assert twin == ideal
    assert buchberger(twin) == buchberger(ideal)
    assert buchberger(twin) is not buchberger(ideal)
