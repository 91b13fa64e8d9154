"""Buchberger's algorithm with a deterministic reduction strategy.

The ideal of relations is handed in as a plain generator list; ``buchberger``
completes it to the reduced monic Groebner basis, which is unique for the
ideal and the monomial order, so repeated runs (and runs on permuted or
rescaled generator lists) return bit-identical results; each ``Ideal``
object computes its basis once and keeps it.  Division follows a
fixed rule: reduce by the basis element whose leading monomial is largest
among those dividing the current term, breaking ties by basis index.

Division is fraction-free.  One loop, ``_reduce_row``, runs every S-pair
reduction, interreduction and normal form on integer term dicts, and
reports the factor it scaled its input by, so a normal form over the
rationals is read off its integer remainder.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from typing import Sequence

from .poly import (
    ContextMismatch,
    Exponents,
    Polynomial,
    RingContext,
    RingError,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    primitive,
)

# Most reduction steps one division may take.  x^N in the toy ring of the
# README takes 5N/6 steps; no division in a Buchberger run on katsura-5 or
# cyclic-5 takes more than 111.
MAX_REDUCTION_STEPS = 1_000_000


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal, all generators nonzero and in one context."""

    context: RingContext
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if not isinstance(g, Polynomial) or g.context != self.context:
                raise ContextMismatch("ideal generators must share the ideal's context")
            if g.is_zero:
                raise RingError("ideal generators must be nonzero")

    @cached_property
    def reduced_basis(self) -> "GroebnerBasis":
        """The reduced monic Groebner basis, computed on first use and kept."""
        return _complete(self)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic Groebner basis, elements sorted descending by leading monomial."""

    context: RingContext
    elements: tuple[Polynomial, ...]

    def leading_monomials(self) -> tuple[Exponents, ...]:
        return tuple(g.leading_monomial() for g in self.elements)

    @cached_property
    def _rows(self) -> list[tuple]:
        """The elements' rows in the division rule's order, built on first use."""
        return _reducers(self.elements, self.context.descending_key())

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.context != self.context:
            raise ContextMismatch("division basis must share the context of the dividend")
        return _normal_form(f, self._rows)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial: cancel the leading terms via the lcm of the leading monomials."""
    if f.context != g.context:
        raise ContextMismatch("s_polynomial needs both operands in one context")
    if f.is_zero or g.is_zero:
        raise RingError("s_polynomial of the zero polynomial is undefined")
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    lcm = monomial_lcm(fm, gm)
    left = f.context.monomial(1 / fc, tuple(map(sub, lcm, fm)))
    right = f.context.monomial(1 / gc, tuple(map(sub, lcm, gm)))
    return left * f - right * g


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under division by basis; unique when basis is a Groebner basis.

    Each step looks at the leading term of the working polynomial: if some
    basis leading monomial divides it, reduce by the basis element with the
    largest such leading monomial (ties broken by basis index); otherwise the
    term moves to the remainder.
    """
    for g in basis:
        if g.context != f.context:
            raise ContextMismatch("division basis must share the context of the dividend")
        if g.is_zero:
            raise RingError("division by a zero basis element")
    return _normal_form(f, _reducers(basis, f.context.descending_key()))


def _normal_form(f: Polynomial, reducers: list[tuple]) -> Polynomial:
    # f times the lcm of its denominators is an integer row; the rational
    # remainder is the integer one over that scale times _reduce_row's factor
    scale = lcm(*(c.denominator for c in f._terms.values()))
    work = {m: c.numerator * (scale // c.denominator) for m, c in f._terms.items()}
    remainder, factor = _reduce_row(work, reducers, f.context.descending_key())
    scale *= factor
    return Polynomial._make(f.context, {m: c / scale for m, c in remainder.items()})


def buchberger(ideal: Ideal) -> GroebnerBasis:
    """The ideal's reduced monic Groebner basis, completed once per Ideal object."""
    return ideal.reduced_basis


# A fraction-free row: leading monomial, positive leading coefficient, and
# the primitive integer term dict holding both.
_Row = tuple[Exponents, int, dict[Exponents, int]]


def _complete(ideal: Ideal) -> GroebnerBasis:
    """Complete the ideal's generators to the reduced monic Groebner basis.

    Pairs go in the normal strategy: smallest leading-monomial lcm first,
    ties broken by pair index.  A pair is skipped when its leading monomials
    are coprime, or by Buchberger's chain criterion: some other element's
    leading monomial divides the lcm, and neither of its pairs with the two
    is still queued (Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, ch. 2, "Improvements on Buchberger's Algorithm").

    The pair loop is fraction-free.  Each row is an integer term dict made
    primitive with a positive leading coefficient, and rows that are
    rational multiples of each other are one row.  The S-polynomials, their
    reductions and the interreduction stay on integers (``_s_row``,
    ``_reduce_row``); the rows become monic rationals once, at the end of
    ``_reduce_basis``.
    """
    if not ideal.generators:
        raise RingError("buchberger needs at least one generator")
    ctx = ideal.context
    key = ctx.descending_key()
    rows: list[_Row] = []
    leads: list[Exponents] = []
    reducers: list[tuple] = []  # (lead key, index, row): the division rule's order
    heap: list[tuple] = []  # (lcm key, i, j) with i < j
    queued: set[tuple[int, int]] = set()  # the pairs in the heap, both ways round

    def add_row(row: _Row) -> None:
        k, lead = len(rows), row[0]
        for i, other in enumerate(leads):
            pair_lcm = monomial_lcm(other, lead)
            if pair_lcm != monomial_mul(other, lead):
                heappush(heap, (ctx.sort_key(pair_lcm), i, k))
                queued.update(((i, k), (k, i)))
        rows.append(row)
        leads.append(lead)
        insort(reducers, (key(lead), k, row))

    # generators equal up to a rational factor give one row
    for row in {frozenset(r[2].items()): r for r in (_row(g._terms, key) for g in ideal.generators)}.values():
        add_row(row)
    while heap:
        _, i, j = heappop(heap)
        queued.difference_update(((i, j), (j, i)))
        pair_lcm = monomial_lcm(leads[i], leads[j])
        if any(
            k != i and k != j and (i, k) not in queued and (j, k) not in queued and monomial_divides(m, pair_lcm)
            for k, m in enumerate(leads)
        ):
            continue
        remainder, _ = _reduce_row(_s_row(rows[i], rows[j], pair_lcm), reducers, key)
        if remainder:
            add_row(_row(remainder, key))
    return GroebnerBasis(ctx, _reduce_basis(ctx, rows))


def _row(terms: dict, key) -> _Row:
    """The row of a nonzero term dict with rational or integer values: scaled
    to coprime integers with a positive leading coefficient."""
    lead = min(terms, key=key)
    scale = lcm(*(c.denominator for c in terms.values()))
    if terms[lead] < 0:
        scale = -scale
    terms = primitive({m: c.numerator * (scale // c.denominator) for m, c in terms.items()})
    return lead, terms[lead], terms


def _s_row(f: _Row, g: _Row, pair_lcm: Exponents) -> dict[Exponents, int]:
    """The S-polynomial of f and g times a positive integer: (c_g/d)*(lcm/m_f)*f
    - (c_f/d)*(lcm/m_g)*g, with c_f, c_g the leading coefficients and d their gcd."""
    d = gcd(f[1], g[1])
    work: dict[Exponents, int] = {}
    for (lead, _, terms), factor in ((f, g[1] // d), (g, -f[1] // d)):
        shift = tuple(map(sub, pair_lcm, lead))
        for m, c in terms.items():
            m = tuple(map(add, m, shift))
            work[m] = work.get(m, 0) + factor * c
    return {m: c for m, c in work.items() if c}


def _reducers(basis: Sequence[Polynomial], key) -> list[tuple]:
    """(lead key, index, row) per element: the division rule's order."""
    return sorted((key(row[0]), i, row) for i, row in enumerate(_row(g._terms, key) for g in basis))


def _reduce_row(work: dict[Exponents, int], reducers: list[tuple], key) -> tuple[dict[Exponents, int], Fraction]:
    # The one division loop; it consumes work.  A heap of the working dict's
    # monomials yields the leading term, and cancelled monomials are skipped
    # when popped.  The first reducer, in the division rule's order, whose
    # leading monomial divides the term is used.  A step cancels the leading
    # term c*x by work := a*work - b*shift*g, where g has leading term
    # c_g*lead and a = c_g/d, b = c/d with d = gcd(c_g, c).  Terms already
    # moved to the remainder are scaled by a too, and the content of the
    # whole is divided out after each step that scaled, so the integers stay
    # small.  Returns the remainder and the factor that the loop scaled
    # everything by: the product of the a's over the contents divided out.
    factor = Fraction(1)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    remainder: dict[Exponents, int] = {}
    steps, limit = 0, MAX_REDUCTION_STEPS
    while heap:
        exps = heappop(heap)[1]
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for _, _, (lead, lead_coeff, terms) in reducers:
            if all(map(le, lead, exps)):
                break
        else:
            remainder[exps] = coeff
            continue
        steps += 1
        if steps > limit:
            raise RingError(f"division exceeds the limit of {limit} reduction steps")
        d = gcd(lead_coeff, coeff)
        a, b = lead_coeff // d, coeff // d
        if a != 1:
            for part in (work, remainder):
                for m in part:
                    part[m] *= a
        shift = tuple(map(sub, exps, lead))
        for m, c in terms.items():
            if m != lead:
                m, c = tuple(map(add, m, shift)), b * c
                old = work.get(m)
                if old is None:
                    work[m] = -c
                    heappush(heap, (key(m), m))
                elif old == c:
                    del work[m]
                else:
                    work[m] = old - c
        if a != 1:
            factor *= a
            content = gcd(*work.values(), *remainder.values())
            if content > 1:
                factor /= content
                for part in (work, remainder):
                    for m in part:
                        part[m] //= content
    return remainder, factor


def _reduce_basis(ctx: RingContext, rows: list[_Row]) -> tuple[Polynomial, ...]:
    # minimal: drop any row whose leading monomial another one divides;
    # ascending scan keeps the divisor and drops the multiple
    key = ctx.descending_key()
    minimal: list[_Row] = []
    for row in sorted(rows, key=lambda r: key(r[0]), reverse=True):
        if not any(monomial_divides(other[0], row[0]) for other in minimal):
            minimal.append(row)
    # reduced: every row fully reduced against the others, then made monic
    # once; reduction keeps each leading term, so reversing gives descending order
    reducers = sorted((key(row[0]), i, row) for i, row in enumerate(minimal))
    reduced = []
    for row in minimal:
        terms, _ = _reduce_row(dict(row[2]), [r for r in reducers if r[2] is not row], key)
        lead = terms[row[0]]
        reduced.append(Polynomial._make(ctx, {m: Fraction(c, lead) for m, c in terms.items()}))
    return tuple(reversed(reduced))


def is_member(f: Polynomial, ideal: Ideal) -> bool:
    """Ideal membership through the reduced Groebner basis."""
    if f.context != ideal.context:
        raise ContextMismatch("membership test needs the ideal's context")
    return ideal.reduced_basis.contains(f)
