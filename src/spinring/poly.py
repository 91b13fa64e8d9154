"""Exact sparse polynomial arithmetic over the rationals.

Every polynomial lives in a fixed :class:`RingContext` naming the variables,
assigning each a positive integer weight, and fixing a monomial order.  All
coefficients are :class:`fractions.Fraction` values, so arithmetic is exact.
Polynomials are immutable: operations return fresh objects and never mutate
their operands, which keeps sharing safe and makes results hashable.

Monomials are plain exponent tuples, one entry per context variable, handled
by the module-level helpers below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import le, mul
from typing import Callable, Iterator, Mapping, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]
# the coefficient of every absent monomial; a Fraction is immutable, so one is shared
_ZERO = Fraction(0)

GREVLEX = "grevlex"
LEX = "lex"
MONOMIAL_ORDERS = (GREVLEX, LEX)


class RingError(ValueError):
    """Base class for engine errors."""


class ContextMismatch(RingError):
    """Operands belong to different ring contexts."""


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    """True when the monomial with exponents ``a`` divides the one with ``b``."""
    return all(map(le, a, b))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def primitive(row: dict) -> dict:
    """An integer dict, a matrix row or a polynomial's terms, divided by the
    gcd of its values."""
    content = gcd(*row.values())
    return {k: x // content for k, x in row.items()} if content > 1 else row


@dataclass(frozen=True)
class RingContext:
    """Variable names, weights, and monomial order for one polynomial ring.

    Contexts compare by value, so two contexts with the same data are
    interchangeable, while rings over different variable sets can never be
    mixed by accident.  The default order is graded reverse lexicographic
    with the declared variable order; ``weights`` defaults to all ones.
    """

    variables: tuple[str, ...]
    weights: tuple[int, ...] = ()
    order: str = GREVLEX

    def __post_init__(self) -> None:
        if not self.variables:
            raise RingError("a ring context needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise RingError("duplicate variable name")
        for name in self.variables:
            # the names the expression parser reads: a letter or '_', then word characters
            if not (name[:1].isalpha() or name[:1] == "_") or not all(ch.isalnum() or ch == "_" for ch in name):
                raise RingError(f"bad variable name {name!r}")
        if not self.weights:
            object.__setattr__(self, "weights", (1,) * len(self.variables))
        if len(self.weights) != len(self.variables):
            raise RingError("weights do not match variables")
        if any(not isinstance(w, int) or w < 1 for w in self.weights):
            raise RingError("weights must be positive integers")
        if self.order not in MONOMIAL_ORDERS:
            raise RingError(f"unknown monomial order {self.order!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise RingError(f"unknown variable {name!r}") from None

    def degree(self, exps: Exponents) -> int:
        return sum(map(mul, self.weights, exps))

    def sort_key(self, exps: Exponents) -> tuple:
        """Key ascending in the monomial order; the leading monomial is the max."""
        return tuple([-k for k in self.descending_key()(exps)])

    def descending_key(self) -> Callable[[Exponents], tuple]:
        """The one definition of the orders: a key descending in the order, so
        ``min`` and a min-heap find the leading monomial first.  grevlex: higher
        weighted degree wins, then the monomial whose trailing variables carry
        less weight.  Fetch the key once per loop, not per call."""
        if self.order == LEX:
            return lambda exps: tuple([-e for e in exps])
        weights = self.weights
        return lambda exps: (-sum(map(mul, weights, exps)),) + exps[::-1]

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: Fraction(value)})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.var_index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def monomial(self, coeff: Scalar, exps: Exponents) -> "Polynomial":
        return Polynomial(self, {tuple(exps): Fraction(coeff)})


class Polynomial:
    """Immutable sparse polynomial: a map from exponent tuples to Fractions."""

    __slots__ = ("context", "_terms", "_hash", "_lead")

    def __new__(cls, context: RingContext, terms: Mapping[Exponents, Scalar]) -> "Polynomial":
        cleaned: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != context.nvars or any(not isinstance(e, int) or e < 0 for e in exps):
                raise RingError(f"bad exponent tuple {exps!r} for {context.nvars} variables")
            coeff = Fraction(coeff)
            if coeff:
                cleaned[exps] = coeff
        return cls._make(context, cleaned)

    @classmethod
    def _make(cls, context: RingContext, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap a fresh term dict the engine built itself, unchecked: no zero coefficients."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "context", context)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_hash", None)
        object.__setattr__(poly, "_lead", None)  # cached leading term
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the checked constructor
        return type(self), (self.context, self._terms)

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: Exponents) -> Fraction:
        return self._terms.get(tuple(exps), _ZERO)

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in descending monomial order (the canonical ordering)."""
        for exps in sorted(self._terms, key=self.context.descending_key()):
            yield exps, self._terms[exps]

    def monomials(self) -> tuple[Exponents, ...]:
        return tuple(exps for exps, _ in self.terms())

    def leading_term(self) -> tuple[Exponents, Fraction]:
        if self._lead is None:
            if not self._terms:
                raise RingError("zero polynomial has no leading term")
            exps = min(self._terms, key=self.context.descending_key())
            object.__setattr__(self, "_lead", (exps, self._terms[exps]))
        return self._lead

    def leading_monomial(self) -> Exponents:
        return self.leading_term()[0]

    def leading_coefficient(self) -> Fraction:
        return self.leading_term()[1]

    def degree_support(self) -> tuple[int, ...]:
        """Sorted weighted degrees present among the terms."""
        return tuple(sorted({self.context.degree(e) for e in self._terms}))

    def weighted_degree(self) -> int | None:
        """The common weighted degree, or None when terms disagree.

        The zero polynomial reports degree 0.  Inhomogeneous input returns
        None; use :meth:`degree_support` to see the degrees present.
        """
        support = self.degree_support()
        if not support:
            return 0
        if len(support) == 1:
            return support[0]
        return None

    @property
    def is_homogeneous(self) -> bool:
        return len(self.degree_support()) <= 1

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.context != self.context:
                raise ContextMismatch(
                    f"cannot mix rings over {self.context.variables} and {other.context.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.constant(other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return Polynomial._make(self.context, {e: c for e, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.context, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            if not factor:
                return self.context.zero()
            return Polynomial._make(self.context, {e: c * factor for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = monomial_mul(e1, e2)
                terms[exps] = terms.get(exps, 0) + c1 * c2
        return Polynomial._make(self.context, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise RingError("polynomial powers take non-negative integer exponents")
        result = self.context.one()
        for _ in range(exponent):
            result = result * self
        return result

    def monic(self) -> "Polynomial":
        """Scale so the leading coefficient is 1."""
        _, lead = self.leading_term()
        return self * (1 / lead)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.context.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            value = hash((self.context, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", value)
        return self._hash

    # -- printing -----------------------------------------------------------

    def _format_term(self, exps: Exponents, coeff: Fraction) -> str:
        parts = []
        for name, e in zip(self.context.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        if not parts:
            return str(coeff)
        if coeff == 1:
            return "*".join(parts)
        if coeff == -1:
            return "-" + "*".join(parts)
        return "*".join([str(coeff)] + parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self.terms():
            piece = self._format_term(exps, abs(coeff) if chunks else coeff)
            if not chunks:
                chunks.append(piece)
            elif coeff < 0:
                chunks.append("- " + piece)
            else:
                chunks.append("+ " + piece)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"
