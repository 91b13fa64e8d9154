"""Buchberger's algorithm with a deterministic reduction strategy.

The ideal of relations is handed in as a plain generator list; ``buchberger``
completes it to the reduced monic Groebner basis, which is unique for the
ideal and the monomial order, so repeated runs (and runs on permuted or
rescaled generator lists) return bit-identical results.  Division follows a
fixed rule: reduce by the basis element whose leading monomial is largest
among those dividing the current term, breaking ties by basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .poly import (
    ContextMismatch,
    Exponents,
    Polynomial,
    RingContext,
    RingError,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


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


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic Groebner basis, elements sorted descending by leading monomial."""

    context: RingContext
    elements: tuple[Polynomial, ...]

    def leading_monomials(self) -> tuple[Exponents, ...]:
        return tuple(g.leading_monomial() for g in self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.elements)

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
    left = f.context.monomial(1 / fc, monomial_div(lcm, fm))
    right = f.context.monomial(1 / gc, monomial_div(lcm, gm))
    return left * f - right * g


def _check_basis(f: Polynomial, basis: Sequence[Polynomial]) -> None:
    for g in basis:
        if g.context != f.context:
            raise ContextMismatch("division basis must share the context of the dividend")
        if g.is_zero:
            raise RingError("division by a zero basis element")


def divide(f: Polynomial, basis: Sequence[Polynomial]) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: f = sum(q[i]*basis[i]) + r with no term of r
    divisible by any basis leading monomial.

    Each step looks at the leading term of the working polynomial: if some
    basis leading monomial divides it, reduce by the basis element with the
    largest such leading monomial (ties broken by basis index); otherwise the
    term moves to the remainder.  The fixed rule keeps quotients deterministic
    even when the basis is not a Groebner basis.
    """
    _check_basis(f, basis)
    ctx = f.context
    leads = [g.leading_term() for g in basis]
    # (order key, -index) picks the largest leading monomial, then lowest index
    choice_key = [(ctx.sort_key(m), -i) for i, (m, _) in enumerate(leads)]
    quotients = [ctx.zero() for _ in basis]
    remainder = ctx.zero()
    work = f
    while not work.is_zero:
        exps, coeff = work.leading_term()
        best = None
        for i, (m, _) in enumerate(leads):
            if monomial_divides(m, exps) and (best is None or choice_key[i] > choice_key[best]):
                best = i
        if best is None:
            tip = ctx.monomial(coeff, exps)
            remainder = remainder + tip
            work = work - tip
        else:
            m, c = leads[best]
            factor = ctx.monomial(coeff / c, monomial_div(exps, m))
            quotients[best] = quotients[best] + factor
            work = work - factor * basis[best]
    return quotients, remainder


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under division by basis; unique when basis is a Groebner basis."""
    _, remainder = divide(f, basis)
    return remainder


def buchberger(ideal: Ideal) -> GroebnerBasis:
    """Complete the ideal's generators to the reduced monic Groebner basis.

    Pair selection is the normal strategy: the pair whose leading-monomial
    lcm is smallest in the monomial order goes first, ties broken by pair
    index.  Pairs with coprime leading monomials are discarded outright,
    since their S-polynomials always reduce to zero.
    """
    if not ideal.generators:
        raise RingError("buchberger needs at least one generator")
    ctx = ideal.context
    basis: list[Polynomial] = []
    for g in ideal.generators:
        g = g.monic()
        if g not in basis:
            basis.append(g)
    pairs = {(i, j) for j in range(1, len(basis)) for i in range(j)}
    while pairs:
        i, j = min(
            pairs,
            key=lambda p: (
                ctx.sort_key(monomial_lcm(basis[p[0]].leading_monomial(), basis[p[1]].leading_monomial())),
                p,
            ),
        )
        pairs.discard((i, j))
        fm = basis[i].leading_monomial()
        gm = basis[j].leading_monomial()
        if monomial_lcm(fm, gm) == monomial_mul(fm, gm):
            continue
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero:
            continue
        basis.append(remainder.monic())
        k = len(basis) - 1
        pairs.update((i2, k) for i2 in range(k))
    return GroebnerBasis(ctx, _reduce_basis(ctx, basis))


def _reduce_basis(ctx: RingContext, basis: list[Polynomial]) -> tuple[Polynomial, ...]:
    # minimal: drop any element whose leading monomial another one divides;
    # ascending scan keeps the divisor and drops the multiple
    ordered = sorted(basis, key=lambda g: ctx.sort_key(g.leading_monomial()))
    minimal: list[Polynomial] = []
    for g in ordered:
        lm = g.leading_monomial()
        if not any(monomial_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    # reduced: every element fully reduced against the others, then monic
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        h = normal_form(g, others) if others else g
        reduced.append(h.monic())
    reduced.sort(key=lambda g: ctx.sort_key(g.leading_monomial()), reverse=True)
    return tuple(reduced)


def is_member(f: Polynomial, ideal: Ideal) -> bool:
    """Ideal membership through the reduced Groebner basis."""
    if f.context != ideal.context:
        raise ContextMismatch("membership test needs the ideal's context")
    return buchberger(ideal).contains(f)
