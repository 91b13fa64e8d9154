"""Acceptance suite: one test per recorded claim cluster, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test asserts the exact values first and prints only after
everything held.
"""

import random
import time
from fractions import Fraction

from spinring import (
    COMPONENTS,
    EXPECTED_HODGE,
    GRAPH_TYPES,
    ODD_CUBIC_RELATIONS,
    Ideal,
    RingContext,
    base_class,
    base_intersections,
    boundary_sum,
    buchberger,
    build_quotient,
    builtin,
    covering_degree_check,
    hilbert_function,
    hodge_diamond,
    integrate,
    is_member,
    lambda_class,
    multiplication_matrix,
    normal_form,
    parse_polynomial,
    pullback,
    quotient_ring,
    rank,
    strata,
    verify,
)

from oracles import (
    brute_force_member,
    combinatorial_hilbert,
    random_ideal,
    random_member,
    random_polynomial,
)


def report(number: int, label: str) -> None:
    print(f"criterion {number}: PASS - {label}")


def test_criterion_01_even_hilbert():
    assert hilbert_function(quotient_ring("even")) == [1, 4, 4, 1]
    report(1, "even quotient has graded dimensions 1 4 4 1")


def test_criterion_02_odd_hilbert():
    assert hilbert_function(quotient_ring("odd")) == [1, 3, 3, 1]
    report(2, "odd quotient has graded dimensions 1 3 3 1")


def test_criterion_03_euler_totals_and_hodge():
    even_total = sum(hilbert_function(quotient_ring("even")))
    odd_total = sum(hilbert_function(quotient_ring("odd")))
    assert even_total == 10
    assert odd_total == 8
    assert even_total + odd_total == 18
    diamond = hodge_diamond()
    assert diamond == EXPECTED_HODGE
    for p in range(4):
        for q in range(4):
            expected = {0: 2, 1: 7, 2: 7, 3: 2}[p] if p == q else 0
            assert diamond[p][q] == expected
    report(3, "totals 10 + 8 = 18 and diagonal hodge numbers 2, 7, 7, 2")


def test_criterion_04_odd_cubic_relations():
    ring = quotient_ring("odd")
    assert len(ODD_CUBIC_RELATIONS) == 7
    for text in ODD_CUBIC_RELATIONS:
        assert ring.reduce(parse_polynomial(text, ring.context)).is_zero
    report(4, "all 7 recorded cubic relations reduce to 0 in the odd quotient")


def test_criterion_05_lambda_squared_annihilates():
    for component in COMPONENTS:
        ring = quotient_ring(component)
        lam = lambda_class(component)
        for name in ("a0", "b0"):
            product = lam * lam * ring.context.variable(name)
            assert ring.reduce(product).is_zero
    report(5, "lambda^2 times each weight-one boundary class lies in both ideals")


def test_criterion_06_boundary_product_relation():
    relation = base_class("dirr*d1 + 12*d1^2")
    for component in COMPONENTS:
        ring = quotient_ring(component)
        assert ring.reduce(pullback(relation, component)).is_zero
    odd_expansion = pullback(relation, "odd")
    assert str(odd_expansion) == "2*a0*a1 + 48*a1^2 + 4*a1*b0"
    report(6, "dirr*d1 + 12*d1^2 pulls back into both ideals, odd expansion exact")


def test_criterion_07_lambda_d1_relation():
    for component in COMPONENTS:
        ring = quotient_ring(component)
        lam = lambda_class(component)
        d1 = pullback(base_class("d1"), component)
        dirr_d1 = pullback(base_class("dirr*d1"), component)
        assert ring.reduce(lam * d1 - Fraction(1, 12) * dirr_d1).is_zero
    report(7, "lambda*d1 - 1/12*dirr*d1 pulls back into both ideals")


def test_criterion_08_point_integrals():
    even = quotient_ring("even")
    even_norm = builtin("even").point_normalization
    a0, b1 = even.context.variable("a0"), even.context.variable("b1")
    assert integrate(even, a0**2 * b1, even_norm) == Fraction(5, 4)
    assert integrate(even, a0**3, even_norm) == Fraction(-55, 6)

    odd = quotient_ring("odd")
    odd_norm = builtin("odd").point_normalization
    oa0, oa1 = odd.context.variable("a0"), odd.context.variable("a1")
    assert integrate(odd, oa1 * oa0**2, odd_norm) == Fraction(3, 16)
    report(8, "integrals a0^2*b1 = 5/4, a1*a0^2 = 3/16, a0^3 = -55/6")


def test_criterion_09_covering_degrees():
    assert covering_degree_check("even") == (Fraction(5, 288), Fraction(-5, 24))
    assert covering_degree_check("odd") == (Fraction(1, 96), Fraction(-1, 8))
    base = base_intersections()
    degrees = [covering_degree_check(c)[0] / base[(0, 3)] for c in COMPONENTS]
    assert degrees == [Fraction(10), Fraction(6)]
    for c, d in zip(COMPONENTS, degrees):
        assert covering_degree_check(c)[1] == d * base[(1, 2)]
    assert sum(degrees) == 16
    report(9, "covering degrees 10 and 6 recovered from both integrals, sum 16")


def test_criterion_10_hard_lefschetz_ranks():
    even = quotient_ring("even")
    even_matrix = multiplication_matrix(even, boundary_sum("even"), 1)
    assert rank(even_matrix) == 4

    odd = quotient_ring("odd")
    odd_matrix = multiplication_matrix(odd, boundary_sum("odd"), 1)
    assert rank(odd_matrix) == 3
    report(10, "boundary-sum multiplication has full rank 4 (even) and 3 (odd)")


def test_criterion_11_engine_property_suite():
    start = time.monotonic()
    rng = random.Random(271828)

    for _ in range(50):
        ideal = random_ideal(rng)
        gb = buchberger(ideal)

        # uniqueness: permuted and rescaled generators give the same basis
        gens = list(ideal.generators)
        rng.shuffle(gens)
        scaled = tuple(g * rng.choice([2, -1, 3, -5]) for g in gens)
        assert buchberger(Ideal(ideal.context, scaled)) == gb

        # idempotence: the reduced basis is its own reduced basis
        assert buchberger(Ideal(ideal.context, gb.elements)) == gb

        # confluence: normal forms do not depend on basis order
        probe = random_polynomial(rng, ideal.context, max_degree=3, max_terms=4)
        reference = gb.normal_form(probe)
        basis = list(gb.elements)
        rng.shuffle(basis)
        assert normal_form(probe, basis) == reference

        # membership: engine agrees with the brute-force combination oracle
        member = random_member(rng, ideal)
        assert is_member(member, ideal)
        assert brute_force_member(member, ideal)
        assert is_member(probe, ideal) == brute_force_member(probe, ideal)

    for _ in range(15):
        nvars = rng.randint(2, 3)
        ctx = RingContext(tuple("xyz"[:nvars]))
        exps = [
            tuple(rng.randint(2, 4) if i == j else 0 for i in range(nvars))
            for j in range(nvars)
        ]
        for _ in range(rng.randint(0, 3)):
            extra = tuple(rng.randint(0, 2) for _ in range(nvars))
            if any(extra):
                exps.append(extra)
        gens = tuple(ctx.monomial(1, e) for e in exps)
        ring = build_quotient(buchberger(Ideal(ctx, gens)))
        assert hilbert_function(ring) == combinatorial_hilbert(
            ring.basis.leading_monomials(), ctx
        )

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"property suite took {elapsed:.1f}s"
    report(11, f"50-ideal property suite exact and fast ({elapsed:.1f}s)")


def test_criterion_12_strata_catalog():
    per_graph = [len(strata(graph=g)) for g in GRAPH_TYPES]
    grouped = (per_graph[0], per_graph[1] + per_graph[2], *per_graph[3:])
    assert grouped == (2, 8, 5, 6, 3, 6)
    assert len(strata()) == 30
    assert all(s.dimension == 0 for g in ("G6", "G7") for s in strata(graph=g))
    assert all(s.dimension == 3 for s in strata(graph="G1"))
    report(12, "strata counts 2, 8, 5, 6, 3, 6 with total 30 and correct dimensions")


def test_full_verification_under_five_seconds():
    start = time.monotonic()
    report_all = verify("all")
    elapsed = time.monotonic() - start
    assert report_all.passed
    assert len(report_all.checks) == 44
    assert elapsed < 5.0, f"verify('all') took {elapsed:.2f}s"
    print(f"verify all: PASS - 44 checks in {elapsed:.2f}s")
