"""Independent oracles and generators for the engine property tests.

Everything here deliberately avoids the package's Groebner machinery:
membership is decided by brute-force linear algebra over a truncated
monomial basis, Hilbert counts come from direct divisibility filtering, and
rank comes from plain Fraction Gaussian elimination.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from spinring import Ideal, Polynomial, RingContext


def monomials_up_to(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree at most max_degree, deterministic order."""
    return [
        exps
        for exps in itertools.product(range(max_degree + 1), repeat=nvars)
        if sum(exps) <= max_degree
    ]


class LinearSpan:
    """Incremental row-reduced span of exact vectors."""

    def __init__(self):
        self.rows: dict[int, list[Fraction]] = {}

    def _reduced(self, vector) -> list[Fraction]:
        vector = [Fraction(x) for x in vector]
        for col, row in self.rows.items():
            c = vector[col]
            if c:
                vector = [a - c * b for a, b in zip(vector, row)]
        return vector

    def add(self, vector) -> bool:
        vector = self._reduced(vector)
        pivot = next((i for i, x in enumerate(vector) if x), None)
        if pivot is None:
            return False
        inv = 1 / vector[pivot]
        vector = [x * inv for x in vector]
        for col, row in self.rows.items():
            c = row[pivot]
            if c:
                self.rows[col] = [a - c * b for a, b in zip(row, vector)]
        self.rows[pivot] = vector
        return True

    def contains(self, vector) -> bool:
        return not any(self._reduced(vector))

    @property
    def rank(self) -> int:
        return len(self.rows)


def _vector(f: Polynomial, index: dict) -> list[Fraction]:
    v = [Fraction(0)] * len(index)
    for exps, coeff in f.terms():
        v[index[exps]] = coeff
    return v


def brute_force_member(f: Polynomial, ideal: Ideal, saturation_degree: int = 6) -> bool:
    """Membership by saturating monomial multiples of the generators.

    Spans every product monomial*generator of total degree at most
    saturation_degree and asks whether f lies in the linear span.  Sound
    always; complete whenever a membership certificate fits inside the
    saturation degree, which holds comfortably for the small random ideals
    the tests draw.
    """
    ctx = f.context
    basis = monomials_up_to(ctx.nvars, saturation_degree)
    index = {exps: i for i, exps in enumerate(basis)}
    span = LinearSpan()
    for g in ideal.generators:
        g_degree = max(sum(exps) for exps, _ in g.terms())
        for m in monomials_up_to(ctx.nvars, saturation_degree - g_degree):
            span.add(_vector(ctx.monomial(1, m) * g, index))
    return span.contains(_vector(f, index))


def combinatorial_hilbert(monomial_exponents, ctx: RingContext) -> list[int]:
    """Graded dimensions of a quotient by a monomial ideal, by direct counting.

    Requires a pure power of each variable among the generators so the count
    is finite.
    """

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    bounds = []
    for i in range(ctx.nvars):
        pure = [m[i] for m in monomial_exponents if all(e == 0 for j, e in enumerate(m) if j != i)]
        assert pure, "oracle needs a pure power of every variable"
        bounds.append(min(pure))
    counts: dict[int, int] = {}
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not any(divides(m, exps) for m in monomial_exponents):
            degree = ctx.degree(exps)
            counts[degree] = counts.get(degree, 0) + 1
    top = max(counts) if counts else 0
    return [counts.get(d, 0) for d in range(top + 1)]


def plain_rank(matrix) -> int:
    """Rank by ordinary Fraction Gaussian elimination, no cleverness."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    span = LinearSpan()
    return sum(1 for row in rows if span.add(row))


def random_polynomial(
    rng: random.Random,
    ctx: RingContext,
    max_degree: int = 2,
    max_terms: int = 4,
) -> Polynomial:
    """A nonzero polynomial with small integer coefficients."""
    monos = monomials_up_to(ctx.nvars, max_degree)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            coeff = rng.randint(-6, 6)
            terms[rng.choice(monos)] = Fraction(coeff)
        f = Polynomial(ctx, terms)
        if not f.is_zero:
            return f


def random_ideal(rng: random.Random) -> Ideal:
    """An ideal with 1..3 generators of degree <= 2 in 2 or 3 variables."""
    nvars = rng.randint(2, 3)
    ctx = RingContext(tuple("xyz"[:nvars]))
    generators = tuple(random_polynomial(rng, ctx) for _ in range(rng.randint(1, 3)))
    return Ideal(ctx, generators)


def random_member(rng: random.Random, ideal: Ideal) -> Polynomial:
    """A combination of the generators with monomial coefficients of degree <= 2."""
    ctx = ideal.context
    monos = monomials_up_to(ctx.nvars, 2)
    total = ctx.zero()
    for g in ideal.generators:
        total = total + ctx.monomial(rng.randint(-3, 3), rng.choice(monos)) * g
    return total


# -- reference engine ---------------------------------------------------------
#
# The straightforward Groebner engine the fast kernel must agree with: naive
# division that rebuilds the working polynomial and the quotients at every
# step, and Buchberger's algorithm over every pair, with the normal selection
# strategy and no criterion at all.
# Slow, but short enough to check by eye.


def reference_divide(f: Polynomial, basis) -> tuple[list[Polynomial], Polynomial]:
    """Division with the engine's selection rule: reduce the leading term by
    the basis element with the largest dividing leading monomial, ties broken
    by the lowest index; otherwise move the term to the remainder."""
    ctx = f.context
    leads = [g.leading_term() for g in basis]
    choice_key = [(ctx.sort_key(m), -i) for i, (m, _) in enumerate(leads)]
    quotients = [ctx.zero() for _ in basis]
    remainder = ctx.zero()
    work = f
    while not work.is_zero:
        exps, coeff = work.leading_term()
        best = None
        for i, (m, _) in enumerate(leads):
            divides = all(a <= b for a, b in zip(m, exps))
            if divides and (best is None or choice_key[i] > choice_key[best]):
                best = i
        if best is None:
            tip = ctx.monomial(coeff, exps)
            remainder = remainder + tip
            work = work - tip
        else:
            m, c = leads[best]
            factor = ctx.monomial(coeff / c, tuple(a - b for a, b in zip(exps, m)))
            quotients[best] = quotients[best] + factor
            work = work - factor * basis[best]
    return quotients, remainder


def reference_buchberger(ideal: Ideal) -> tuple[Polynomial, ...]:
    """Reduced monic Groebner basis, sorted descending by leading monomial."""
    ctx = ideal.context

    def lead(g):
        return g.leading_term()[0]

    def nf(f, basis):
        return reference_divide(f, basis)[1]

    basis: list[Polynomial] = []
    for g in ideal.generators:
        g = g * (1 / g.leading_term()[1])
        if g not in basis:
            basis.append(g)
    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(lead(basis[i]), lead(basis[j])))

    # the normal strategy: the pair with the smallest lcm first
    pairs = {(i, j) for j in range(1, len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=lambda p: (ctx.sort_key(lcm(*p)), p))
        pairs.discard((i, j))
        (fm, fc), (gm, gc) = basis[i].leading_term(), basis[j].leading_term()
        lcm_ij = lcm(i, j)
        left = ctx.monomial(1 / fc, tuple(a - b for a, b in zip(lcm_ij, fm)))
        right = ctx.monomial(1 / gc, tuple(a - b for a, b in zip(lcm_ij, gm)))
        remainder = nf(left * basis[i] - right * basis[j], basis)
        if not remainder.is_zero:
            basis.append(remainder * (1 / remainder.leading_term()[1]))
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal: list[Polynomial] = []
    for g in sorted(basis, key=lambda g: ctx.sort_key(lead(g))):
        if not any(all(a <= b for a, b in zip(lead(h), lead(g))) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        h = nf(g, minimal[:i] + minimal[i + 1 :])
        reduced.append(h * (1 / h.leading_term()[1]))
    return tuple(sorted(reduced, key=lambda g: ctx.sort_key(lead(g)), reverse=True))
