"""Built-in presentations of the two genus-2 spin-curve cohomology rings.

The moduli space of stable genus-2 spin curves has an even and an odd
component, and the rational cohomology of each is a quotient of a polynomial
ring on boundary divisor classes: four classes on the even side, three on
the odd side (the fourth boundary class vanishes there).  This module stores
those presentations as data, together with everything needed to check the
numeric claims made about them:

* the relation ideals as ring files, generators in their published order;
* the degree-2 Hodge class and the total boundary class of each component;
* the boundary calculus of the underlying space of stable curves, as formal
  polynomials in the two divisor symbols ``dirr`` and ``d1`` (the Hodge
  class is always eliminated there through 10*lambda2 = dirr + 2*d1),
  together with the pullback substitution into either component;
* point normalizations turning top-degree classes into rational numbers;
* the stratification of the whole space by stable-graph type;
* the Hodge diamond and Euler characteristics.

``verify`` replays every recorded claim against the engine and returns a
deterministic report with exact witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from .groebner import GroebnerBasis, Ideal, buchberger
from .parser import RingFile, parse_polynomial, parse_ring_file
from .poly import Exponents, Polynomial, RingContext, RingError
from .quotient import (
    PointNormalization,
    QuotientRing,
    build_quotient,
    hilbert_function,
    integrate,
    multiplication_matrix,
    pairing_matrix,
    rank,
)

EVEN = "even"
ODD = "odd"
ALL = "all"
COMPONENTS = (EVEN, ODD)

# Each component's presentation is a ring file with its generators in their
# published order.  Ring degree k corresponds to cohomological degree 2k;
# each boundary class has ring degree 1.
_EVEN_DATA = {
    "ring": """
        ring builtin-even
        vars a0 a1 b0 b1
        ideal
          a1*b1
          b0*b1
          a0*a1 - b0*a1
          a0*a1 + 8*a1^2
          a0*b1 + 24*b1^2
          4*b0^2 + 8*a1*b0 - 3*a0*b0
          a0^2*a1
          a0^2*b0
          3*a0^3 + 22*a0^2*b1
        end
    """,
    "display": ("α₀⁺", "α₁⁺", "β₀⁺", "β₁⁺"),
    "witness": "a0^2*b1",
    "witness_value": Fraction(5, 4),
    "hilbert": (1, 4, 4, 1),
    "covering_degree": 10,
    "generator_count": 9,
    "generator_degrees": "2,2,2,2,2,2,3,3,3",
    "a0_cubed": Fraction(-55, 6),
    "lambda2": "1/10*(a0 + 2*b0 + 4*b1 + 4*a1)",
    "boundary_sum": "a0 + a1 + b0 + b1",
    "d1_image": "2*a1 + 2*b1",
}

_ODD_DATA = {
    "ring": """
        ring builtin-odd
        vars a0 a1 b0
        ideal
          3*b0^2 + 6*a1*b0 - a0*b0
          2*a1*b0 - a1*a0
          12*a1^2 + a1*a0
          a0^2*b0
          3*a0^3 + 32*a1*a0^2
        end
    """,
    "display": ("α₀⁻", "α₁⁻", "β₀⁻"),
    "witness": "a1*a0^2",
    "witness_value": Fraction(3, 16),
    "hilbert": (1, 3, 3, 1),
    "covering_degree": 6,
    "generator_count": 5,
    "generator_degrees": "2,2,2,3,3",
    "product_expansion": "48*a1^2 + 2*a0*a1 + 4*a1*b0",
    "lambda2": "1/10*(a0 + 2*b0 + 4*a1)",
    "boundary_sum": "a0 + a1 + b0",
    "d1_image": "2*a1",
}

_DATA = {EVEN: _EVEN_DATA, ODD: _ODD_DATA}

# the seven codimension-3 consequences recorded for the odd ring, in their
# published order
ODD_CUBIC_RELATIONS = (
    "144*a1^3 - a1*a0^2",
    "54*b0^3 - 6*a0^2*b0 + 45*a1*a0^2",
    "12*a1^2*a0 + a1*a0^2",
    "24*a1^2*b0 + a1*a0^2",
    "a0*b0^2 + a1*a0^2",
    "4*b0^2*a1 - a0^2*a1",
    "2*a1*a0*b0 - a1*a0^2",
)


def _require_component(component: str) -> str:
    if component not in COMPONENTS:
        raise RingError(f"component must be one of {COMPONENTS}, got {component!r}")
    return component


@dataclass(frozen=True)
class SpinRingPresentation:
    """One component's cohomology ring presentation plus its frozen metadata.

    ``covering_degree`` is a derived constant (the number of even or odd
    theta-characteristics on a genus-2 curve); it is only consumed by the
    covering-degree cross-check, which flags it on mismatch rather than
    adjusting it.
    """

    component: str
    ring_file: RingFile
    point_normalization: PointNormalization
    expected_hilbert: tuple[int, ...]
    covering_degree: int
    display_names: tuple[str, ...]

    @property
    def context(self) -> RingContext:
        return self.ring_file.context

    @property
    def ideal(self) -> Ideal:
        return self.ring_file.ideal

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        return self.ideal.generators

    def describe(self) -> str:
        names = ", ".join(self.display_names)
        return f"Q[{names}], {self.context.order}, {len(self.generators)} relations"


@lru_cache(maxsize=None)
def builtin(component: str) -> SpinRingPresentation:
    """The built-in presentation of one component's cohomology ring."""
    data = _DATA[_require_component(component)]
    ring_file = parse_ring_file(data["ring"])
    witness = parse_polynomial(data["witness"], ring_file.context)
    return SpinRingPresentation(
        component=component,
        ring_file=ring_file,
        point_normalization=PointNormalization(witness=witness, value=data["witness_value"]),
        expected_hilbert=data["hilbert"],
        covering_degree=data["covering_degree"],
        display_names=data["display"],
    )


def groebner_basis(component: str) -> GroebnerBasis:
    # the presentation's ideal keeps its basis, so this completes once per builtin()
    return buchberger(builtin(component).ideal)


@lru_cache(maxsize=None)
def quotient_ring(component: str) -> QuotientRing:
    return build_quotient(groebner_basis(component))


def _class(component: str, key: str) -> Polynomial:
    context = builtin(component).context  # checks the component first
    return parse_polynomial(_DATA[component][key], context)


def lambda_class(component: str) -> Polynomial:
    """The degree-2 Hodge class, written in boundary classes."""
    return _class(component, "lambda2")


def boundary_sum(component: str) -> Polynomial:
    """The total boundary class, the sum of all boundary divisors.

    It is not ample: its cube integrates to -12835/2304 on the even ring and
    to -1169/768 on the odd one, and an ample class has a positive top power.
    """
    return _class(component, "boundary_sum")


# -- boundary calculus on the base space of stable curves --------------------
#
# The two components map onto the moduli space of stable genus-2 curves.  Its
# boundary calculus is carried as formal polynomials in the two divisor
# symbols dirr (irreducible one-nodal curves) and d1 (elliptic-tail curves);
# the Hodge class is eliminated via 10*lambda2 = dirr + 2*d1.


@lru_cache(maxsize=None)
def base_context() -> RingContext:
    return RingContext(variables=("dirr", "d1"))


def base_class(text: str) -> Polynomial:
    """Parse a formal expression in the base boundary symbols dirr, d1."""
    return parse_polynomial(text, base_context())


def lambda_on_base() -> Polynomial:
    return base_class("1/10*(dirr + 2*d1)")


def boundary_product_relation() -> Polynomial:
    """dirr*d1 + 12*d1^2, a class that vanishes on the base space."""
    return base_class("dirr*d1 + 12*d1^2")


def lambda_d1_relation() -> Polynomial:
    """lambda2*d1 - 1/12*dirr*d1 with lambda2 eliminated; vanishes on the base."""
    return lambda_on_base() * base_class("d1") - base_class("1/12*dirr*d1")


def base_intersections() -> dict[Exponents, Fraction]:
    """Known top intersection numbers on the base, keyed by (dirr, d1) exponents."""
    return {(0, 3): Fraction(1, 576), (1, 2): Fraction(-1, 48)}


def pullback(expr: Polynomial, component: str) -> Polynomial:
    """Substitute the component's boundary classes for dirr and d1.

    dirr pulls back to a0 + 2*b0 on both components; d1 pulls back to
    2*a1 + 2*b1 on the even one and to 2*a1 on the odd one, where the
    fourth boundary class is zero.
    """
    if expr.context != base_context():
        raise RingError("pullback expects an expression in the base boundary symbols")
    d1 = _class(component, "d1_image")
    dirr = parse_polynomial("a0 + 2*b0", d1.context)
    total = d1.context.zero()
    for (e_dirr, e_d1), coeff in expr.terms():
        total = total + dirr**e_dirr * d1**e_d1 * coeff
    return total


def covering_degree_check(component: str) -> tuple[Fraction, Fraction]:
    """Integrals of pullback(d1)^3 and pullback(dirr*d1^2) in the component.

    Against the base intersection numbers these measure the covering degree:
    each integral should equal degree times the corresponding base number.
    """
    ring = quotient_ring(component)
    normalization = builtin(component).point_normalization
    d1_cubed = pullback(base_class("d1^3"), component)
    dirr_d1_sq = pullback(base_class("dirr*d1^2"), component)
    return (
        integrate(ring, d1_cubed, normalization),
        integrate(ring, dirr_d1_sq, normalization),
    )


# -- stratification by stable-graph type -------------------------------------

GRAPH_TYPES = ("G1", "G2", "G3", "G4", "G5", "G6", "G7")
GRAPH_NODE_COUNTS = {"G1": 0, "G2": 1, "G3": 1, "G4": 2, "G5": 2, "G6": 3, "G7": 3}


@dataclass(frozen=True)
class Stratum:
    name: str
    graph: str
    component: str
    dimension: int
    description: str
    note: str | None = None


def _stratum(name, graph, component, description, note=None):
    return Stratum(
        name=name,
        graph=graph,
        component=component,
        dimension=3 - GRAPH_NODE_COUNTS[graph],
        description=description,
        note=note,
    )


STRATA: tuple[Stratum, ...] = (
    _stratum("S+", "G1", EVEN, "smooth curve with an even theta-characteristic"),
    _stratum("S-", "G1", ODD, "smooth curve with an odd theta-characteristic"),
    _stratum("A0+", "G2", EVEN, "irreducible one-nodal curve, no exceptional component, even spin structure"),
    _stratum("A0-", "G2", ODD, "irreducible one-nodal curve, no exceptional component, odd spin structure"),
    _stratum("B0+", "G2", EVEN, "irreducible one-nodal curve, exceptional line over the node, even spin structure"),
    _stratum("B0-", "G2", ODD, "irreducible one-nodal curve, exceptional line over the node, odd spin structure"),
    _stratum("A1+", "G3", EVEN, "two elliptic curves meeting at a point, no exceptional component, even spin structure"),
    _stratum("A1-", "G3", ODD, "two elliptic curves meeting at a point, no exceptional component, odd spin structure"),
    _stratum("B1+", "G3", EVEN, "two elliptic curves joined through an exceptional line, even spin structure"),
    _stratum(
        "B1-",
        "G3",
        ODD,
        "two elliptic curves joined through an exceptional line, odd spin structure",
        note="its divisor class vanishes; whether this locus coincides with A1- is left undetermined",
    ),
    _stratum("C+", "G4", EVEN, "irreducible curve with two nodes, even spin structure"),
    _stratum("C-", "G4", ODD, "irreducible curve with two nodes, odd spin structure"),
    _stratum("D+", "G4", EVEN, "rational irreducible curve with two nodes, blown up at one of them, even spin structure"),
    _stratum("D-", "G4", ODD, "rational irreducible curve with two nodes, blown up at one of them, odd spin structure"),
    _stratum("E", "G4", EVEN, "rational irreducible curve with two nodes, blown up at both, even spin structure"),
    _stratum("X+", "G5", EVEN, "smooth elliptic curve and a nodal curve linked by a rational bridge, even theta-characteristics on both"),
    _stratum("X-", "G5", ODD, "smooth elliptic curve and a nodal curve linked by a rational bridge, even on the elliptic curve, odd on the nodal one"),
    _stratum("Y+", "G5", EVEN, "smooth elliptic curve and a nodal curve linked by a rational bridge, odd theta-characteristics on both"),
    _stratum("Y-", "G5", ODD, "smooth elliptic curve and a nodal curve linked by a rational bridge, odd on the elliptic curve, even on the nodal one"),
    _stratum("Z+", "G5", EVEN, "nodal curve blown up at its node, linked to a smooth elliptic curve, even theta-characteristic on the elliptic curve"),
    _stratum("Z-", "G5", ODD, "nodal curve blown up at its node, linked to a smooth elliptic curve, odd theta-characteristic on the elliptic curve"),
    _stratum("L+", "G6", EVEN, "two rational curves meeting at three points, one intersection blown up, even spin structure"),
    _stratum("L-", "G6", ODD, "two rational curves meeting at three points, one intersection blown up, odd spin structure"),
    _stratum("M", "G6", EVEN, "two rational curves meeting at three points, all three intersections blown up, even spin structure"),
    _stratum("P+", "G7", EVEN, "two nodal genus-1 curves joined by a rational bridge, even theta-characteristics on both"),
    _stratum(
        "P-",
        "G7",
        ODD,
        "two nodal genus-1 curves joined by a rational bridge, one odd and one even theta-characteristic",
        note="the two mixed-parity labelings name the same point",
    ),
    _stratum("Q+", "G7", EVEN, "two nodal genus-1 curves joined by a rational bridge, odd theta-characteristics on both"),
    _stratum("R", "G7", EVEN, "two one-nodal curves, each blown up at its node, joined by a rational bridge, even spin structure"),
    _stratum("U+", "G7", EVEN, "one-nodal genus-1 curve and a blown-up one-nodal curve joined by a rational bridge, even theta-characteristic on the former"),
    _stratum("U-", "G7", ODD, "one-nodal genus-1 curve and a blown-up one-nodal curve joined by a rational bridge, odd theta-characteristic on the former"),
)


def strata(graph: str | None = None, component: str | None = None) -> tuple[Stratum, ...]:
    """The stratum catalog, optionally filtered, ordered by graph then name."""
    if graph is not None and graph not in GRAPH_TYPES:
        raise RingError(f"unknown graph type {graph!r}, expected one of {', '.join(GRAPH_TYPES)}")
    if component is not None:
        _require_component(component)
    rows = [s for s in STRATA if graph in (None, s.graph) and component in (None, s.component)]
    return tuple(sorted(rows, key=lambda s: (s.graph, s.name)))


# -- Hodge data ---------------------------------------------------------------


EXPECTED_HODGE = ((2, 0, 0, 0), (0, 7, 0, 0), (0, 0, 7, 0), (0, 0, 0, 2))


def hodge_diamond() -> tuple[tuple[int, ...], ...]:
    """Rows p = 0..3 of the Hodge numbers h^{p,q}, assembled from the two quotients: all
    cohomology is algebraic, so h^{k,k} adds the two degree-k dimensions, the rest is 0."""
    dims = {c: hilbert_function(quotient_ring(c)) for c in COMPONENTS}
    rows = []
    for p in range(4):
        row = [0, 0, 0, 0]
        row[p] = sum(d[p] if p < len(d) else 0 for d in dims.values())
        rows.append(tuple(row))
    return tuple(rows)


# -- verification -------------------------------------------------------------

# version of the JSON documents built from reports and by the command line
SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Check:
    check_id: str
    component: str
    paper_anchor: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    component: str
    checks: tuple[Check, ...]
    annotations: tuple[str, ...]
    appendix: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_text(self) -> str:
        lines = [f"verification report: component {self.component}"]
        shown = [c for c in (EVEN, ODD) if self.component in (c, ALL)]
        for c in shown:
            lines.append(f"ring {c}: {builtin(c).describe()}")
        lines.append("")
        width = max(len(c.check_id) for c in self.checks)
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = f"[{mark}] {c.component:<4} {c.check_id:<{width}}  {c.actual}"
            if not c.passed:
                line += f"  (expected {c.expected})"
            lines.append(line)
        if self.annotations:
            lines.append("")
            lines.append("notes:")
            lines.extend(f"  - {note}" for note in self.annotations)
        if self.appendix:
            lines.append("")
            lines.append("reference:")
            lines.extend(f"  - {note}" for note in self.appendix)
        lines.append("")
        if self.passed:
            lines.append(f"result: PASS ({len(self.checks)} checks)")
        else:
            lines.append(f"result: FAIL ({len(self.failures)} of {len(self.checks)} checks failed)")
        return "\n".join(lines)

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "component": self.component,
            "pass": self.passed,
            "total_checks": len(self.checks),
            "failed_checks": len(self.failures),
            "checks": [
                {
                    "component": c.component,
                    "check_id": c.check_id,
                    "paper_anchor": c.paper_anchor,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "annotations": list(self.annotations),
            "appendix": list(self.appendix),
        }


GENUS1_REFERENCE = (
    "genus-1 even component: the Hodge class equals 1/4*a0 (reference constant, no genus-1 presentation is built in)",
    "genus-1 odd component: the Hodge class equals 1/12*a0 (reference constant)",
    "the squares of the genus-1 Hodge classes vanish (reference constant)",
)


def _csv(values) -> str:
    return ",".join(map(str, values))


def _rows(rows) -> str:
    return ";".join(map(_csv, rows))


class _Facts:
    """The values one component's claims read, each computed at most once.

    Claim templates name the component's data entries and these attributes
    alike, as in ``{covering_degree}`` or ``{dim1}``.
    """

    def __init__(self, component: str):
        self.component = component
        self.data = _DATA[component]
        self.pres = builtin(component)
        self.ring = quotient_ring(component)
        self.lam = lambda_class(component)
        self.delta = boundary_sum(component)
        self.normalization = self.pres.point_normalization
        self.dim1 = self.ring.dimension(1)
        self.expected_hilbert = _csv(self.data["hilbert"])
        self.euler = sum(self.data["hilbert"])
        numbers = base_intersections()
        degree = self.data["covering_degree"]
        self.expected_covering = (degree * numbers[(0, 3)], degree * numbers[(1, 2)])

    def __getitem__(self, name: str):
        return self.data[name] if name in self.data else getattr(self, name)

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self.pres.context)

    def reduce(self, f: Polynomial) -> Polynomial:
        return self.ring.reduce(f)

    def integral(self, f: Polynomial) -> Fraction:
        return integrate(self.ring, f, self.normalization)

    @cached_property
    def hilbert(self) -> list[int]:
        return hilbert_function(self.ring)

    @cached_property
    def boundary_product(self) -> Polynomial:
        return pullback(boundary_product_relation(), self.component)

    @cached_property
    def expansion(self) -> Polynomial:
        return self.parse(self.data["product_expansion"])

    @cached_property
    def covering(self) -> tuple[Fraction, Fraction]:
        return covering_degree_check(self.component)

    @cached_property
    def inferred_degrees(self) -> tuple[Fraction, Fraction]:
        numbers = base_intersections()
        return (self.covering[0] / numbers[(0, 3)], self.covering[1] / numbers[(1, 2)])

    @cached_property
    def pairing_rank(self) -> int:
        return rank(pairing_matrix(self.ring, self.normalization, 1))


def _degrees(generators: tuple[Polynomial, ...]) -> str:
    return _csv(g.weighted_degree() if g.is_homogeneous else "mixed" for g in generators)


def _agreed(first, second):
    return first if first == second else f"{first} vs {second}"


def _lefschetz_rank(ring: QuotientRing, multiplier: Polynomial) -> str:
    matrix = multiplication_matrix(ring, multiplier, 1)
    cols = len(matrix[0]) if matrix else 0
    return f"{len(matrix)}x{cols} rank {rank(matrix)}"


def _strata_per_graph_class() -> str:
    # the one-node graphs G2 and G3 form one class
    counts = [len(strata(graph=g)) for g in GRAPH_TYPES]
    return _csv((counts[0], counts[1] + counts[2], *counts[3:]))


_EXPECTED_DIMENSIONS = _csv(f"{g}:{3 - GRAPH_NODE_COUNTS[g]}" for g in GRAPH_TYPES)


def _strata_dimensions() -> str:
    dims = {g: sorted({s.dimension for s in strata(graph=g)}) for g in GRAPH_TYPES}
    return _csv(f"{g}:{'/'.join(map(str, d))}" for g, d in dims.items())


class _Claim(NamedTuple):
    """One row of the claim table.

    ``anchor`` and ``expected`` are ``str.format_map`` templates over the facts of the
    row's component; ``witness`` computes the actual value from the same facts.  Rows
    of ``ALL`` get the facts of both components as a dict.
    """

    check_id: str
    anchor: str
    expected: str
    witness: Callable
    components: tuple[str, ...] = COMPONENTS


# every recorded claim in report order; a membership claim expects "0"
_CLAIMS = (
    _Claim("presentation_generator_count", "the {component} ideal is presented by {generator_count} generators", "{generator_count}", lambda f: len(f.pres.generators)),
    _Claim("presentation_generator_degrees", "all generators homogeneous, quadrics then cubics", "{generator_degrees}", lambda f: _degrees(f.pres.generators)),
    _Claim("hilbert_function", "betti numbers of the {component} ring are {expected_hilbert}", "{expected_hilbert}", lambda f: _csv(f.hilbert)),
    _Claim("euler_characteristic", "e({component}) = {euler}", "{euler}", lambda f: sum(f.hilbert)),
    _Claim("lambda_sq_times_a0", "lambda2^2 * a0 = 0", "0", lambda f: f.reduce(f.lam * f.lam * f.parse("a0"))),
    _Claim("lambda_sq_times_b0", "lambda2^2 * b0 = 0", "0", lambda f: f.reduce(f.lam * f.lam * f.parse("b0"))),
    _Claim("boundary_product_pullback", "dirr*d1 + 12*d1^2 pulls back into the ideal", "0", lambda f: f.reduce(f.boundary_product)),
    _Claim("boundary_product_expansion", "pullback(dirr*d1 + 12*d1^2, odd) = {product_expansion}", "{expansion}", lambda f: f.boundary_product, (ODD,)),
    _Claim("lambda_d1_consequence", "lambda2 * d1 = 1/12 * dirr*d1 after pullback", "0", lambda f: f.reduce(pullback(lambda_d1_relation(), f.component))),
    _Claim("lambda_boundary_decomposition", "10*lambda2 = dirr + 2*d1 after pullback, before any reduction", "0", lambda f: f.lam * 10 - pullback(base_class("dirr + 2*d1"), f.component)),
    _Claim("point_normalization_value", "integral of {normalization.witness} = {normalization.value}", "{normalization.value}", lambda f: f.integral(f.normalization.witness)),
    _Claim("a0_cubed_integral", "integral of a0^3 = {a0_cubed}", "{a0_cubed}", lambda f: f.integral(f.parse("a0^3")), (EVEN,)),
    _Claim("cubic_display_consequence", "a0*b1^2 = -1/24*a0^2*b1 read in degree-consistent form", "0", lambda f: f.reduce(f.parse("a0*b1^2 + 1/24*a0^2*b1")), (EVEN,)),
    *(
        _Claim(f"cubic_relation_{index}", f"{text} = 0", "0", lambda f, text=text: f.reduce(f.parse(text)), (ODD,))
        for index, text in enumerate(ODD_CUBIC_RELATIONS, start=1)
    ),
    _Claim("covering_d1_cubed", "integral of pullback(d1^3) = {covering_degree} * 1/576", "{expected_covering[0]}", lambda f: f.covering[0]),
    _Claim("covering_dirr_d1_sq", "integral of pullback(dirr*d1^2) = {covering_degree} * (-1/48)", "{expected_covering[1]}", lambda f: f.covering[1]),
    _Claim("covering_degree_inferred", "both integrals infer the stored covering degree {covering_degree}", "{covering_degree}", lambda f: _agreed(*f.inferred_degrees)),
    _Claim("lefschetz_rank", "multiplication by the total boundary is an isomorphism from degree 1 to degree 2", "{dim1}x{dim1} rank {dim1}", lambda f: _lefschetz_rank(f.ring, f.delta)),
    _Claim("euler_characteristic_sum", "e(even) + e(odd) = 18", "18", lambda f: sum(sum(facts.hilbert) for facts in f.values()), (ALL,)),
    _Claim("hodge_diamond", "diagonal hodge numbers 2,7,7,2, all off-diagonal entries 0", _rows(EXPECTED_HODGE), lambda f: _rows(hodge_diamond()), (ALL,)),
    _Claim("covering_degree_sum", "the two covering degrees sum to 16", "16", lambda f: sum(facts.inferred_degrees[0] for facts in f.values()), (ALL,)),
    _Claim("strata_graph_counts", "strata per graph class: 2, 8 (one-node), 5, 6, 3, 6", "2,8,5,6,3,6", lambda f: _strata_per_graph_class(), (ALL,)),
    _Claim("strata_total_count", "30 strata in total", "30", lambda f: len(strata()), (ALL,)),
    _Claim("strata_graph_dimensions", "stratum dimension is 3 minus the node count of its graph", _EXPECTED_DIMENSIONS, lambda f: _strata_dimensions(), (ALL,)),
)

# the notes a report carries for each component, in report order
_NOTES = {
    EVEN: (
        "the recorded consequence a0*b1^2 = -1/24*a0^2*b1 is checked in its degree-consistent "
        "form a0*b1^2 + 1/24*a0^2*b1 in the even ideal; the original display mixes degrees",
        "measured top pairing between degrees 1 and 2 on the even ring has rank "
        "{pairing_rank} of a possible {dim1}: a1 and b0 pair to zero with all of degree 2",
    ),
    ALL: (
        "the stratum source text says 'seven strata' for both G6 and G7 but lists 3 and 6 "
        "general members; the catalog follows the explicit lists",
        "B1- is kept as a stratum even though its divisor class vanishes; whether it "
        "coincides with A1- is left undetermined",
    ),
}


def verify(component: str = ALL) -> VerificationReport:
    """Re-check every recorded claim for one component, or everything.

    Failures become report entries, never exceptions; the ordering of checks
    and notes is fixed, so two runs emit identical reports.
    """
    shown = (*COMPONENTS, ALL) if component == ALL else (_require_component(component),)
    facts = {c: _Facts(c) for c in shown if c != ALL}
    checks, annotations = [], []
    for c in shown:
        f = facts if c == ALL else facts[c]
        for row in _CLAIMS:
            if c in row.components:
                anchor, expected = row.anchor.format_map(f), row.expected.format_map(f)
                actual = str(row.witness(f))
                checks.append(Check(row.check_id, c, anchor, expected, actual, expected == actual))
        annotations.extend(note.format_map(f) for note in _NOTES.get(c, ()))
    return VerificationReport(
        component=component,
        checks=tuple(checks),
        annotations=tuple(annotations),
        appendix=GENUS1_REFERENCE,
    )
