"""Finite-dimensional graded quotient rings and exact linear algebra on them.

``build_quotient`` turns a Groebner basis into a quotient ring presented by
its standard monomials (the monomials outside the leading-term ideal),
grouped by weighted degree.  The quotient must be Artinian, i.e. finite
dimensional; that holds exactly when the leading-term ideal contains a pure
power of every variable, and the offending variable is named when it does
not.  Graded quantities (Hilbert functions, coordinates in a graded piece,
integrals and the matrices) exist only when the ideal is weighted-
homogeneous; asked of any other quotient they raise :class:`NotGradedError`,
while normal forms work on every quotient.

Integration against a point normalization turns top-degree classes into
rational numbers: fix one witness monomial with a known value, then any
top-degree class integrates to its normal-form coordinate relative to the
witness.  Pairings are read off multiplication into the one-dimensional top
piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .groebner import GroebnerBasis
from .poly import ContextMismatch, Exponents, Polynomial, RingError, monomial_divides, primitive


# Largest quotient dimension build_quotient enumerates; x^90, y^90, z^90
# (dimension 729 000) still fits.
MAX_DIMENSION = 1_000_000


class NonArtinianError(RingError):
    """The quotient is infinite dimensional."""


class DimensionLimitError(RingError):
    """The quotient is finite but larger than MAX_DIMENSION."""


class DegreeError(RingError):
    """An operation received a class of the wrong (or mixed) degree."""


class NotGradedError(RingError):
    """A graded quantity was asked of a quotient whose ideal is not weighted-homogeneous."""


@dataclass(frozen=True)
class PointNormalization:
    """A witness class of top degree together with its assigned rational value."""

    witness: Polynomial
    value: Fraction


@dataclass(frozen=True)
class QuotientRing:
    """Polynomial ring modulo an ideal, presented by its Groebner basis.

    ``standard_monomials[d]`` lists the degree-d monomial basis of the
    quotient in descending monomial order; degrees above ``top_degree`` are
    all zero.  Graded questions read a piece through ``_piece``, which checks
    that the grading and the piece exist.
    """

    basis: GroebnerBasis
    standard_monomials: tuple[tuple[Exponents, ...], ...]

    @property
    def context(self):
        return self.basis.context

    @property
    def top_degree(self) -> int:
        return len(self.standard_monomials) - 1

    def reduce(self, f: Polynomial) -> Polynomial:
        if f.context != self.context:
            raise ContextMismatch("class does not live in this quotient's ring")
        return self.basis.normal_form(f)

    @cached_property
    def _inhomogeneous(self) -> Polynomial | None:
        return next((g for g in self.basis if not g.is_homogeneous), None)

    def _piece(self, degree: int) -> tuple[Exponents, ...]:
        # graded quantities exist only when the reduced basis is weighted-homogeneous
        if self._inhomogeneous is not None:
            raise NotGradedError(
                f"the quotient is not graded: basis element {self._inhomogeneous} is not weighted-homogeneous"
            )
        if not 0 <= degree <= self.top_degree:
            raise DegreeError(f"no graded piece in degree {degree}")
        return self.standard_monomials[degree]

    def dimension(self, degree: int) -> int:
        try:
            return len(self._piece(degree))
        except DegreeError:
            return 0

    def coordinates(self, f: Polynomial, degree: int) -> list[Fraction]:
        """Coordinates of f's normal form in the degree-d standard basis."""
        piece = self._piece(degree)
        reduced = self.reduce(f)
        stray = [d for d in reduced.degree_support() if d != degree]
        if stray:
            raise DegreeError(
                f"class has components in degrees {stray}, expected pure degree {degree}"
            )
        return [reduced.coefficient(m) for m in piece]


def build_quotient(basis: GroebnerBasis) -> QuotientRing:
    """Standard-monomial presentation of the quotient by ``basis``'s ideal."""
    ctx = basis.context
    leads = basis.leading_monomials()
    bounds = []
    for i, name in enumerate(ctx.variables):
        pure = [m[i] for m in leads if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            raise NonArtinianError(
                f"no power of {name} lies in the leading-term ideal, quotient is infinite dimensional"
            )
        bounds.append(min(pure))
    # x_i^e is standard for every e below its bound, so the largest bound is
    # a lower bound for the dimension
    if max(bounds) > MAX_DIMENSION:
        raise DimensionLimitError(f"quotient dimension exceeds the limit of {MAX_DIMENSION}")
    # Walk the order ideal up from 1.  Every standard monomial but 1 has one
    # parent, itself divided by its last variable with a nonzero exponent,
    # and the parent is standard too; so multiplying each standard monomial
    # by its last variable and the ones after it reaches each exactly once.
    # A leading monomial that divides a child but not its parent has the
    # child's exponent in the variable just raised.
    raised: list[dict[int, list[Exponents]]] = [{} for _ in ctx.variables]
    for m in leads:
        for i, e in enumerate(m):
            raised[i].setdefault(e, []).append(m)
    # each walked monomial carries its weighted degree: a child's is its
    # parent's plus the weight of the variable raised
    nvars, weights = ctx.nvars, ctx.weights
    one = (0,) * nvars
    walk = [] if one in leads else [(one, 0, 0)]
    for exps, last, degree in walk:  # grows while it is walked
        for i in range(last, nvars):
            child = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
            if not any(monomial_divides(m, child) for m in raised[i].get(child[i], ())):
                walk.append((child, i, degree + weights[i]))
        if len(walk) > MAX_DIMENSION:
            raise DimensionLimitError(f"quotient dimension exceeds the limit of {MAX_DIMENSION}")
    by_degree: dict[int, list[Exponents]] = {}
    for exps, _, degree in walk:
        by_degree.setdefault(degree, []).append(exps)
    # one piece is stored per degree, so a large weight costs as much as a
    # large dimension; the unit ideal leaves one empty piece in degree 0
    top = max(by_degree, default=0)
    if top > MAX_DIMENSION:
        raise DimensionLimitError(f"quotient top degree exceeds the limit of {MAX_DIMENSION}")
    layers = tuple(
        tuple(sorted(by_degree.get(d, ()), key=ctx.descending_key())) for d in range(top + 1)
    )
    return QuotientRing(basis=basis, standard_monomials=layers)


def hilbert_function(quotient: QuotientRing) -> list[int]:
    """Dimensions of the graded pieces from degree 0 through the top degree."""
    return [len(quotient._piece(d)) for d in range(quotient.top_degree + 1)]


def integrate(quotient: QuotientRing, f: Polynomial, normalization: PointNormalization) -> Fraction:
    """Rational value of a top-degree class, scaled so the witness hits its value.

    The top graded piece must be one dimensional.  Zero integrates to zero;
    anything whose normal form has a component outside the top degree is an
    error rather than silently truncated.
    """
    top = quotient.top_degree
    piece = quotient._piece(top)
    if len(piece) != 1:
        raise RingError(f"integration needs a one-dimensional top piece, got dimension {len(piece)}")
    witness = quotient.reduce(normalization.witness)
    anchor = piece[0]
    scale = witness.coefficient(anchor)
    if witness.is_zero or not scale or witness.degree_support() != (top,):
        raise RingError("degenerate point normalization: witness does not span the top degree")
    reduced = quotient.reduce(f)
    if reduced.is_zero:
        return Fraction(0)
    if reduced.degree_support() != (top,):
        raise DegreeError(
            f"class of degrees {list(reduced.degree_support())} is not integrable, "
            f"top degree is {top}"
        )
    return reduced.coefficient(anchor) / scale * normalization.value


def multiplication_matrix(
    quotient: QuotientRing, multiplier: Polynomial, from_degree: int
) -> list[list[Fraction]]:
    """Matrix of multiplication by a homogeneous class on a graded piece.

    Columns run over the degree-``from_degree`` standard basis, rows over the
    target-degree basis, both in their stored order.  A target degree past
    the top yields a matrix with no rows.
    """
    source = quotient._piece(from_degree)
    if multiplier.is_zero or not multiplier.is_homogeneous:
        raise DegreeError("multiplier must be homogeneous and nonzero")
    target = from_degree + multiplier.weighted_degree()
    if target > quotient.top_degree:
        return []
    # a graded ideal keeps the image of each column in the target degree
    images = [quotient.reduce(multiplier * quotient.context.monomial(1, m)) for m in source]
    return [[image.coefficient(t) for image in images] for t in quotient._piece(target)]


def pairing_matrix(
    quotient: QuotientRing, normalization: PointNormalization, degree: int
) -> list[list[Fraction]]:
    """Multiplication pairing of degree d against the complementary degree.

    Entry (i, j) integrates the product of the i-th degree-d standard
    monomial with the j-th standard monomial of degree top - d: row i is the
    one row of multiplication by the i-th monomial into the top piece, times
    the integral of the top piece's monomial.
    """
    ctx = quotient.context
    top = quotient.top_degree
    rows = quotient._piece(degree)
    if not rows:
        return []
    scale = integrate(quotient, ctx.monomial(1, quotient._piece(top)[0]), normalization)
    return [
        [x * scale for x in multiplication_matrix(quotient, ctx.monomial(1, r), top - degree)[0]]
        for r in rows
    ]


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank over the rationals by sparse fraction-free elimination.

    Each row keeps only its nonzero entries, scaled to integers.  While the
    row is nonzero it is reduced at its last nonzero column: with no pivot
    row there it becomes one, else it is replaced by the integer combination
    a*row - b*pivot that cancels that entry.  Dividing out each row's content
    keeps the integers small, and the work follows the nonzeros.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in matrix:
        if len(row) != len(matrix[0]):
            raise RingError("ragged matrix")
        entries = {j: Fraction(x) for j, x in enumerate(row) if x}
        scale = lcm(*(x.denominator for x in entries.values()))
        current = {j: x.numerator * (scale // x.denominator) for j, x in entries.items()}
        while current:
            col = max(current)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = primitive(current)
                break
            g = gcd(pivot[col], current[col])
            a, b = pivot[col] // g, current[col] // g
            current = {j: a * x for j, x in current.items()}
            # the pivot's columns are at most col, so col cancels and the
            # next column to reduce lies to its left
            for j, x in pivot.items():
                value = current.get(j, 0) - b * x
                if value:
                    current[j] = value
                else:
                    del current[j]
            current = primitive(current)
    return len(pivots)
