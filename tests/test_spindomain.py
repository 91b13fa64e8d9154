"""Builtin presentations, boundary calculus, strata, and the verify report."""

from fractions import Fraction
from pathlib import Path

import pytest

from spinring import (
    COMPONENTS,
    EXPECTED_HODGE,
    GRAPH_NODE_COUNTS,
    GRAPH_TYPES,
    ODD_CUBIC_RELATIONS,
    RingError,
    base_class,
    base_context,
    base_intersections,
    boundary_product_relation,
    boundary_sum,
    builtin,
    covering_degree_check,
    groebner_basis,
    hilbert_function,
    hodge_diamond,
    lambda_class,
    lambda_d1_relation,
    lambda_on_base,
    parse_polynomial,
    pullback,
    quotient_ring,
    strata,
    verify,
)
from spinring import spindomain


# -- presentations -------------------------------------------------------------


def test_builtin_even_shape():
    pres = builtin("even")
    assert pres.context.variables == ("a0", "a1", "b0", "b1")
    assert len(pres.generators) == 9
    assert pres.expected_hilbert == (1, 4, 4, 1)
    assert pres.covering_degree == 10
    assert pres.display_names == ("α₀⁺", "α₁⁺", "β₀⁺", "β₁⁺")
    assert all(g.is_homogeneous for g in pres.generators)


def test_builtin_odd_shape():
    pres = builtin("odd")
    assert pres.context.variables == ("a0", "a1", "b0")
    assert len(pres.generators) == 5
    assert pres.expected_hilbert == (1, 3, 3, 1)
    assert pres.covering_degree == 6
    assert all(g.is_homogeneous for g in pres.generators)


def test_builtin_rejects_unknown_component():
    # the functions that read a component's data reach the check through builtin()
    calls = (
        builtin,
        lambda_class,
        boundary_sum,
        lambda c: pullback(base_class("d1"), c),
        covering_degree_check,
    )
    for call in calls:
        with pytest.raises(RingError, match="component"):
            call("both")


def test_describe_mentions_relation_count():
    assert "9 relations" in builtin("even").describe()
    assert "5 relations" in builtin("odd").describe()


def test_frozen_groebner_bases():
    assert [str(g) for g in groebner_basis("even")] == [
        "b1^4",
        "a0^3 + 4224*b1^3",
        "a1*b0^2",
        "b0^3",
        "a0*a1 - a1*b0",
        "a1^2 + 1/8*a1*b0",
        "a0*b0 - 8/3*a1*b0 - 4/3*b0^2",
        "a0*b1 + 24*b1^2",
        "a1*b1",
        "b0*b1",
    ]
    assert [str(g) for g in groebner_basis("odd")] == [
        "b0^4",
        "a0^3 - 64/5*b0^3",
        "a1*b0^2 + 3/10*b0^3",
        "a0*a1 - 2*a1*b0",
        "a1^2 + 1/6*a1*b0",
        "a0*b0 - 6*a1*b0 - 3*b0^2",
    ]


def test_hilbert_functions():
    assert hilbert_function(quotient_ring("even")) == [1, 4, 4, 1]
    assert hilbert_function(quotient_ring("odd")) == [1, 3, 3, 1]


# -- named classes and the base calculus ----------------------------------------


def test_lambda_class_formulas():
    assert str(lambda_class("even")) == "1/10*a0 + 2/5*a1 + 1/5*b0 + 2/5*b1"
    assert str(lambda_class("odd")) == "1/10*a0 + 2/5*a1 + 1/5*b0"


def test_boundary_sum_formulas():
    assert str(boundary_sum("even")) == "a0 + a1 + b0 + b1"
    assert str(boundary_sum("odd")) == "a0 + a1 + b0"


def test_ten_lambda_is_pullback_of_boundary():
    for component in COMPONENTS:
        lam = lambda_class(component)
        pulled = pullback(base_class("dirr + 2*d1"), component)
        assert 10 * lam == pulled


def test_lambda_annihilates_degree_one_boundaries():
    # in each quotient, lambda^2 kills the two weight-one boundary classes
    for component in COMPONENTS:
        ring = quotient_ring(component)
        lam = lambda_class(component)
        for name in ("a0", "b0"):
            cls = ring.context.variable(name)
            assert ring.reduce(lam * lam * cls).is_zero


def test_pullback_of_d1():
    even = pullback(base_class("d1"), "even")
    assert str(even) == "2*a1 + 2*b1"
    odd = pullback(base_class("d1"), "odd")
    assert str(odd) == "2*a1"


def test_pullback_is_a_ring_map():
    f = base_class("dirr*d1 - 3*d1^2")
    g = base_class("2*dirr + d1")
    for component in COMPONENTS:
        assert pullback(f * g, component) == pullback(f, component) * pullback(g, component)
        assert pullback(f + g, component) == pullback(f, component) + pullback(g, component)
    assert pullback(base_context().zero(), "even").is_zero


def test_pullback_rejects_foreign_context():
    a0 = builtin("even").context.variable("a0")
    with pytest.raises(RingError, match="base boundary"):
        pullback(a0, "even")


def test_base_relations_vanish_after_pullback():
    for component in COMPONENTS:
        ring = quotient_ring(component)
        assert ring.reduce(pullback(boundary_product_relation(), component)).is_zero
        assert ring.reduce(pullback(lambda_d1_relation(), component)).is_zero


def test_lambda_on_base_formula():
    assert str(lambda_on_base()) == "1/10*dirr + 1/5*d1"
    assert base_intersections() == {(0, 3): Fraction(1, 576), (1, 2): Fraction(-1, 48)}


def test_covering_degrees():
    assert covering_degree_check("even") == (Fraction(5, 288), Fraction(-5, 24))
    assert covering_degree_check("odd") == (Fraction(1, 96), Fraction(-1, 8))
    # each pair is (degree * 1/576, degree * -1/48) for degrees 10 and 6
    for component in COMPONENTS:
        d = builtin(component).covering_degree
        got = covering_degree_check(component)
        assert got[0] == d * base_intersections()[(0, 3)]
        assert got[1] == d * base_intersections()[(1, 2)]


def test_odd_cubic_relations_all_vanish():
    ring = quotient_ring("odd")
    assert len(ODD_CUBIC_RELATIONS) == 7
    for text in ODD_CUBIC_RELATIONS:
        f = parse_polynomial(text, ring.context)
        assert ring.reduce(f).is_zero


# -- strata catalog --------------------------------------------------------------


def test_strata_totals():
    assert len(strata()) == 30
    assert len(strata(component="even")) == 17
    assert len(strata(component="odd")) == 13


def test_strata_counts_per_graph():
    counts = {g: len(strata(graph=g)) for g in GRAPH_TYPES}
    assert counts == {"G1": 2, "G2": 4, "G3": 4, "G4": 5, "G5": 6, "G6": 3, "G7": 6}


def test_strata_dimensions_follow_node_counts():
    for s in strata():
        assert s.dimension == 3 - GRAPH_NODE_COUNTS[s.graph]
    zero_dim = [s for s in strata() if s.dimension == 0]
    assert {s.graph for s in zero_dim} == {"G6", "G7"}


def test_strata_filters_compose():
    even_g7 = strata(graph="G7", component="even")
    assert all(s.graph == "G7" and s.component == "even" for s in even_g7)
    assert len(even_g7) + len(strata(graph="G7", component="odd")) == len(strata(graph="G7"))


def test_strata_names_unique_per_component():
    seen = {(s.name, s.component) for s in strata()}
    assert len(seen) == 30


def test_strata_unknown_graph():
    with pytest.raises(RingError, match="unknown graph"):
        strata(graph="G9")


def test_stratum_notes():
    b1_minus = [s for s in strata(component="odd") if s.note and "vanishes" in s.note]
    assert len(b1_minus) == 1
    assert b1_minus[0].name == "B1-"


# -- Hodge diamond ----------------------------------------------------------------


def test_hodge_diamond_matches_expected():
    diamond = hodge_diamond()
    assert diamond == EXPECTED_HODGE
    assert diamond[0][0] == 2
    assert diamond[1][1] == 7
    assert diamond[2][2] == 7
    assert diamond[3][3] == 2
    assert diamond[1][0] == 0


# -- verification reports -----------------------------------------------------------


def test_verify_even():
    report = verify("even")
    assert report.passed
    assert len(report.checks) == 16
    assert report.failures == ()
    assert all(c.component == "even" for c in report.checks)


def test_verify_odd():
    report = verify("odd")
    assert report.passed
    assert len(report.checks) == 22
    cubic_ids = [c.check_id for c in report.checks if c.check_id.startswith("cubic_relation_")]
    assert len(cubic_ids) == 7


def test_verify_all():
    report = verify()
    assert report.passed
    assert len(report.checks) == 44
    assert report.to_text().splitlines()[-1] == "result: PASS (44 checks)"


def test_verify_text_is_deterministic():
    assert verify().to_text() == verify().to_text()
    assert verify("odd").to_text() == verify("odd").to_text()


def test_verify_document_shape():
    doc = verify("even").to_document()
    assert doc["schema_version"] == "1"
    assert doc["component"] == "even"
    assert doc["pass"] is True
    assert doc["total_checks"] == len(doc["checks"]) == 16
    assert doc["failed_checks"] == 0
    first = doc["checks"][0]
    assert set(first) == {"component", "check_id", "paper_anchor", "expected", "actual", "pass"}


def test_verify_annotations_and_appendix():
    report = verify()
    assert any("pairing" in note for note in report.annotations)
    assert any("seven strata" in note for note in report.annotations)
    assert any("B1-" in note for note in report.annotations)
    assert len(report.appendix) == 3
    assert all("genus-1" in line or "Hodge" in line for line in report.appendix)
    text = report.to_text()
    assert "notes:" in text
    assert "reference:" in text


def test_verify_check_ids_unique():
    report = verify()
    ids = [(c.component, c.check_id) for c in report.checks]
    assert len(ids) == len(set(ids))


def test_verify_computes_covering_integrals_once_per_component(monkeypatch):
    calls = []

    def counted(component):
        calls.append(component)
        return covering_degree_check(component)

    monkeypatch.setattr(spindomain, "covering_degree_check", counted)
    assert verify().passed
    assert calls == list(COMPONENTS)


def test_verify_rejects_unknown_component():
    with pytest.raises(RingError, match="component"):
        verify("spin")


# -- README -------------------------------------------------------------------------


def test_readme_library_snippet():
    # the snippet imports only top-level names, so it guards the package exports
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(snippet, names)
    assert names["integrate"](names["ring"], names["a0"] ** 3, names["norm"]) == Fraction(-55, 6)
    assert names["rank"](names["m"]) == 4
    assert names["report"].passed
