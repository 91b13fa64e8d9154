"""Quotient rings: standard monomials, integration, and exact linear algebra."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from spinring import (
    ContextMismatch,
    DegreeError,
    Ideal,
    NonArtinianError,
    PointNormalization,
    RingContext,
    RingError,
    build_quotient,
    buchberger,
    builtin,
    hilbert_function,
    boundary_sum,
    integrate,
    multiplication_matrix,
    pairing_matrix,
    parse_polynomial,
    quotient_ring,
    rank,
)

from spinring import groebner, quotient
from spinring.quotient import DimensionLimitError

from oracles import combinatorial_hilbert, plain_rank, random_polynomial


def monomial_quotient(ctx: RingContext, exponent_sets) -> "QuotientRing":
    gens = tuple(ctx.monomial(1, e) for e in exponent_sets)
    return build_quotient(buchberger(Ideal(ctx, gens)))


def weighted_ring():
    # weights 2 and 3: nothing has degree 1 or 6, and x^2*y spans degree 7
    return monomial_quotient(RingContext(("x", "y"), weights=(2, 3)), [(3, 0), (0, 2)])


def unit_ring():
    ctx = RingContext(("x",))
    return build_quotient(buchberger(Ideal(ctx, (ctx.one(),))))


def top_normalization(ring):
    witness = ring.context.monomial(1, ring.standard_monomials[ring.top_degree][0])
    return PointNormalization(witness=witness, value=Fraction(3, 2))


# -- graded structure of the builtin rings ------------------------------------


def test_even_standard_monomials():
    ring = quotient_ring("even")
    assert ring.top_degree == 3
    assert ring.standard_monomials[0] == ((0, 0, 0, 0),)
    assert ring.standard_monomials[1] == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert ring.standard_monomials[2] == ((2, 0, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    assert ring.standard_monomials[3] == ((0, 0, 0, 3),)
    assert hilbert_function(ring) == [1, 4, 4, 1]


def test_odd_standard_monomials():
    ring = quotient_ring("odd")
    assert ring.top_degree == 3
    assert ring.context.variables == ("a0", "a1", "b0")
    assert ring.standard_monomials[2] == ((2, 0, 0), (0, 1, 1), (0, 0, 2))
    assert ring.standard_monomials[3] == ((0, 0, 3),)
    assert hilbert_function(ring) == [1, 3, 3, 1]


def test_reduce_and_multiply():
    ring = quotient_ring("odd")
    a0 = ring.context.variable("a0")
    a1 = ring.context.variable("a1")
    square = ring.reduce(a1 * a1)
    assert square == ring.reduce(Fraction(-1, 12) * a0 * a1)
    assert str(square) == "-1/6*a1*b0"
    with pytest.raises(ContextMismatch):
        ring.reduce(quotient_ring("even").context.variable("a0"))


def test_coordinates_round_trip():
    ring = quotient_ring("even")
    f = parse_polynomial("a0^2 - 3*a1*b0 + 1/2*b1^2", ring.context)
    coords = ring.coordinates(f, 2)
    assert coords == [Fraction(1), Fraction(-3), Fraction(0), Fraction(1, 2)]
    rebuilt = sum(
        (c * ring.context.monomial(1, m) for c, m in zip(coords, ring.standard_monomials[2])),
        ring.context.zero(),
    )
    assert ring.reduce(rebuilt) == ring.reduce(f)


def test_coordinates_reject_wrong_degree():
    ring = quotient_ring("even")
    with pytest.raises(DegreeError):
        ring.coordinates(ring.context.variable("a0"), 2)


# -- Hilbert functions against the combinatorial oracle ------------------------


def test_hilbert_of_random_monomial_ideals():
    rng = random.Random(31415)
    for _ in range(15):
        nvars = rng.randint(2, 3)
        ctx = RingContext(tuple("xyz"[:nvars]))
        # pure powers first so the quotient is guaranteed finite
        exps = [tuple(rng.randint(2, 4) if i == j else 0 for i in range(nvars)) for j in range(nvars)]
        for _ in range(rng.randint(0, 3)):
            exps.append(tuple(rng.randint(0, 2) for _ in range(nvars)))
        exps = [e for e in exps if any(e)]
        ring = monomial_quotient(ctx, exps)
        lms = ring.basis.leading_monomials()
        assert hilbert_function(ring) == combinatorial_hilbert(lms, ctx)


def test_standard_monomials_match_box_scan():
    # the order-ideal walk lists exactly the monomials of the pure-power box
    # that no leading monomial divides, each degree descending in the order
    rng = random.Random(2718)
    orders = [("grevlex", ()), ("lex", ()), ("grevlex", (2, 1, 3))]
    for trial in range(30):
        order, weights = orders[trial % 3]
        nvars = rng.randint(2, 3)
        ctx = RingContext(tuple("xyz"[:nvars]), weights[:nvars], order)
        powers = tuple(ctx.variable(v) ** rng.randint(2, 4) for v in ctx.variables)
        extras = tuple(random_polynomial(rng, ctx, max_degree=3) for _ in range(rng.randint(0, 2)))
        ring = build_quotient(buchberger(Ideal(ctx, powers + extras)))
        lms = ring.basis.leading_monomials()
        bounds = [
            min((m[i] for m in lms if sum(m) == m[i]), default=0) for i in range(nvars)
        ]
        layers: dict[int, list] = {}
        for exps in itertools.product(*(range(b) for b in bounds)):
            if not any(all(a <= b for a, b in zip(m, exps)) for m in lms):
                layers.setdefault(ctx.degree(exps), []).append(exps)
        top = max(layers, default=0)
        expected = tuple(
            tuple(sorted(layers.get(d, ()), key=ctx.sort_key, reverse=True)) for d in range(top + 1)
        )
        assert ring.standard_monomials == expected


def test_dimension_limit(monkeypatch):
    assert quotient.MAX_DIMENSION >= 90**3
    ctx = RingContext(("x", "y", "z"))
    box = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    monkeypatch.setattr(quotient, "MAX_DIMENSION", 26)
    with pytest.raises(DimensionLimitError, match="limit of 26"):
        monomial_quotient(ctx, box)  # found by the walk
    with pytest.raises(DimensionLimitError):
        monomial_quotient(ctx, [(27, 0, 0), (0, 1, 0), (0, 0, 1)])  # found from a pure power
    heavy = RingContext(("x", "y"), weights=(2_000_000, 1))
    with pytest.raises(DimensionLimitError, match="top degree exceeds the limit of 26"):
        monomial_quotient(heavy, [(2, 0), (0, 2)])  # dimension 4, one piece per degree
    monkeypatch.setattr(quotient, "MAX_DIMENSION", 27)
    assert sum(hilbert_function(monomial_quotient(ctx, box))) == 27


def test_weighted_hilbert_has_explicit_gap():
    ctx = RingContext(("x", "y"), weights=(1, 3))
    x, y = ctx.variable("x"), ctx.variable("y")
    ring = build_quotient(buchberger(Ideal(ctx, (x**2, y**2))))
    assert hilbert_function(ring) == [1, 1, 0, 1, 1]
    assert ring.standard_monomials[2] == ()


def test_graded_questions_refuse_ungraded_quotient():
    # x is invertible in the toy ring x^2 = y, x*y = 1, so it has no grading
    toy = RingContext(("x", "y"))
    ideal = Ideal(toy, (parse_polynomial("x^2 - y", toy), parse_polynomial("x*y - 1", toy)))
    ring = build_quotient(buchberger(ideal))
    assert str(ring.reduce(parse_polynomial("x^5", toy))) == "y"
    x = toy.variable("x")
    norm = PointNormalization(witness=x, value=Fraction(1))
    message = "the quotient is not graded: basis element x^2 - y is not weighted-homogeneous"
    for question in (
        lambda: hilbert_function(ring),
        lambda: ring.dimension(1),
        lambda: ring.coordinates(x, 1),
        lambda: integrate(ring, x, norm),
        lambda: multiplication_matrix(ring, x, 1),
        lambda: pairing_matrix(ring, norm, 0),
    ):
        with pytest.raises(quotient.NotGradedError, match=re.escape(message)):
            question()
    assert issubclass(quotient.NotGradedError, RingError)


def test_non_artinian_detection_names_variable():
    ctx = RingContext(("x", "y", "z"))
    x, y = ctx.variable("x"), ctx.variable("y")
    with pytest.raises(NonArtinianError, match="no power of z"):
        monomial_quotient(ctx, ((2, 0, 0), (0, 2, 0)))
    with pytest.raises(NonArtinianError):
        build_quotient(buchberger(Ideal(ctx, (x * y,))))


def test_unit_ideal_gives_zero_ring():
    ctx = RingContext(("x",))
    ring = build_quotient(buchberger(Ideal(ctx, (ctx.one(),))))
    assert ring.top_degree == 0
    assert hilbert_function(ring) == [0]


# -- integration ---------------------------------------------------------------


def test_integrate_builtin_witnesses():
    for component, expected in (("even", Fraction(5, 4)), ("odd", Fraction(3, 16))):
        pres = builtin(component)
        ring = quotient_ring(component)
        norm = pres.point_normalization
        assert integrate(ring, norm.witness, norm) == expected


def test_integrate_even_a0_cubed():
    ring = quotient_ring("even")
    norm = builtin("even").point_normalization
    a0 = ring.context.variable("a0")
    assert integrate(ring, a0**3, norm) == Fraction(-55, 6)


def test_integrate_zero_class():
    ring = quotient_ring("even")
    norm = builtin("even").point_normalization
    assert integrate(ring, ring.context.zero(), norm) == Fraction(0)


def test_integrate_rejects_wrong_degree():
    ring = quotient_ring("even")
    norm = builtin("even").point_normalization
    a0 = ring.context.variable("a0")
    with pytest.raises(DegreeError, match="top degree is 3"):
        integrate(ring, a0, norm)
    with pytest.raises(DegreeError):
        integrate(ring, a0 + a0**3, norm)


def test_integrate_needs_one_dimensional_top():
    ctx = RingContext(("x", "y"))
    ring = monomial_quotient(ctx, [(2, 0), (1, 1), (0, 2)])
    x = ctx.variable("x")
    with pytest.raises(RingError, match="one-dimensional top piece, got dimension 2"):
        integrate(ring, x, PointNormalization(witness=x, value=Fraction(1)))


def test_integrate_rejects_degenerate_witness():
    ring = quotient_ring("even")
    a1, b1 = ring.context.variable("a1"), ring.context.variable("b1")
    dead = PointNormalization(witness=a1 * b1 * b1, value=Fraction(1))
    with pytest.raises(RingError, match="witness"):
        integrate(ring, b1**3, dead)


# -- multiplication and pairing matrices ---------------------------------------


def test_multiplication_by_one_is_identity():
    ring = quotient_ring("odd")
    one = ring.context.one()
    for d in range(ring.top_degree + 1):
        m = multiplication_matrix(ring, one, d)
        n = ring.dimension(d)
        assert m == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_even_boundary_multiplication_matrix():
    ring = quotient_ring("even")
    delta = boundary_sum("even")
    matrix = multiplication_matrix(ring, delta, 1)
    assert matrix == [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(11, 3), Fraction(15, 8), Fraction(11, 3), Fraction(0)],
        [Fraction(4, 3), Fraction(0), Fraction(7, 3), Fraction(0)],
        [Fraction(-24), Fraction(0), Fraction(0), Fraction(-23)],
    ]
    assert rank(matrix) == 4


def test_odd_boundary_multiplication_matrix():
    ring = quotient_ring("odd")
    delta = boundary_sum("odd")
    matrix = multiplication_matrix(ring, delta, 1)
    assert matrix == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(8), Fraction(17, 6), Fraction(7)],
        [Fraction(3), Fraction(0), Fraction(4)],
    ]
    assert rank(matrix) == 3


def test_multiplication_past_top_has_no_rows():
    ring = quotient_ring("even")
    a0 = ring.context.variable("a0")
    assert multiplication_matrix(ring, a0, 3) == []


def test_multiplication_matrix_rejects_bad_multiplier():
    ring = quotient_ring("even")
    a0 = ring.context.variable("a0")
    with pytest.raises(DegreeError):
        multiplication_matrix(ring, ring.context.zero(), 1)
    with pytest.raises(DegreeError):
        multiplication_matrix(ring, a0 + a0**2, 1)
    with pytest.raises(DegreeError):
        multiplication_matrix(ring, a0, 9)


def test_pairing_ranks():
    # the even degree-1 pairing is degenerate: two basis classes pair to zero
    # against all of degree 2, so the rank is 2 rather than full
    even = quotient_ring("even")
    norm = builtin("even").point_normalization
    assert rank(pairing_matrix(even, norm, 1)) == 2

    odd = quotient_ring("odd")
    assert rank(pairing_matrix(odd, builtin("odd").point_normalization, 1)) == 3


def test_pairing_against_top_is_perfect():
    for component in ("even", "odd"):
        ring = quotient_ring(component)
        norm = builtin(component).point_normalization
        assert rank(pairing_matrix(ring, norm, 0)) == 1
        assert rank(pairing_matrix(ring, norm, 3)) == 1


def test_pairing_entries_are_integrals():
    # entry (i, j) integrates the product of the monomials it pairs
    box = monomial_quotient(RingContext(("x", "y", "z")), [(12, 0, 0), (0, 12, 0), (0, 0, 12)])
    weighted = weighted_ring()
    cases = [(quotient_ring(c), builtin(c).point_normalization, range(4)) for c in ("even", "odd")]
    cases.append((box, top_normalization(box), (0, 1, 2, 16, 31, 32, 33)))
    cases.append((weighted, top_normalization(weighted), range(weighted.top_degree + 1)))
    for ring, norm, degrees in cases:
        ctx = ring.context
        for d in degrees:
            rows, cols = ring.standard_monomials[d], ring.standard_monomials[ring.top_degree - d]
            expected = [
                [integrate(ring, ctx.monomial(1, r) * ctx.monomial(1, c), norm) for c in cols] for r in rows
            ]
            assert pairing_matrix(ring, norm, d) == expected


def test_pairing_reads_each_entry_off_one_normal_form(monkeypatch):
    box = monomial_quotient(RingContext(("x", "y", "z")), [(12, 0, 0), (0, 12, 0), (0, 0, 12)])
    norm = top_normalization(box)
    calls = 0
    reduce = groebner._reduce_row

    def counting(*args):
        nonlocal calls
        calls += 1
        return reduce(*args)

    # the one division loop, which every normal form runs through
    monkeypatch.setattr(groebner, "_reduce_row", counting)
    matrix = pairing_matrix(box, norm, 2)
    assert (len(matrix), len(matrix[0])) == (6, 6)
    assert calls == 6 * 6 + 2  # the witness and the top monomial once each


def test_empty_piece_shapes():
    weighted = weighted_ring()
    assert weighted.standard_monomials[1] == ()
    # no source columns, one target row (y)
    assert multiplication_matrix(weighted, weighted.context.variable("x"), 1) == [[]]
    unit = unit_ring()
    x = unit.context.variable("x")
    assert pairing_matrix(unit, PointNormalization(witness=x, value=Fraction(1)), 0) == []
    assert hilbert_function(unit) == [0]


def test_degrees_without_a_piece_raise():
    unit = unit_ring()
    cases = [(quotient_ring(c), builtin(c).point_normalization) for c in ("even", "odd")]
    cases.append((unit, PointNormalization(witness=unit.context.variable("x"), value=Fraction(1))))
    for ring, norm in cases:
        for d in (-1, ring.top_degree + 1):
            assert ring.dimension(d) == 0  # the one reader that takes such a degree as empty
            message = f"^no graded piece in degree {d}$"
            with pytest.raises(DegreeError, match=message):
                ring.coordinates(ring.context.zero(), d)
            with pytest.raises(DegreeError, match=message):
                pairing_matrix(ring, norm, d)


# -- exact rank ----------------------------------------------------------------


def test_rank_matches_plain_elimination():
    rng = random.Random(2718)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rng.random() < 0.4:  # force dependent rows sometimes
            matrix.append([2 * x for x in matrix[0]])
        assert rank(matrix) == plain_rank(matrix)

    def entry(big):
        low = 2**64 + 1 if big else 1
        return Fraction(rng.choice([-1, 1]) * rng.randint(low, 9 * low), rng.randint(low, 4 * low))

    # sparse tall, wide and square matrices, with zero rows and columns and
    # rows that combine earlier ones; half of them have entries whose
    # numerators and denominators exceed 2^64
    for trial in range(36):
        short, long = rng.randint(1, 8), rng.randint(9, 30)
        rows, cols = [(long, short), (short, long), (long, long)][trial % 3]
        big = trial % 6 >= 3
        matrix = [[Fraction(0)] * cols for _ in range(rows)]
        # at least 80 % zeros
        for k in rng.sample(range(rows * cols), rng.randint(1, rows * cols // 5)):
            matrix[k // cols][k % cols] = entry(big)
        zero_col = rng.randrange(cols)
        for row in matrix:
            row[zero_col] = Fraction(0)
        matrix.insert(rng.randrange(rows + 1), [Fraction(0)] * cols)
        for _ in range(rng.randint(1, 4)):
            parts = rng.sample(matrix, min(len(matrix), rng.randint(2, 3)))
            weights = [entry(big) for _ in parts]
            matrix.append([sum(w * row[j] for w, row in zip(weights, parts)) for j in range(cols)])
        assert rank(matrix) == plain_rank(matrix)
    # the tall and wide multiplication matrices of the 12-box
    box = monomial_quotient(RingContext(("x", "y", "z")), [(12, 0, 0), (0, 12, 0), (0, 0, 12)])
    multiplier = parse_polynomial("x + 2*y - 3/2*z", box.context)
    for degree in (2, 7, 30):
        matrix = multiplication_matrix(box, multiplier, degree)
        assert rank(matrix) == plain_rank(matrix)


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank([[Fraction(0), Fraction(0)]]) == 0
    with pytest.raises(RingError, match="ragged"):
        rank([[Fraction(1)], [Fraction(1), Fraction(2)]])
    with pytest.raises(RingError, match="ragged"):
        rank([[], [Fraction(1)]])
