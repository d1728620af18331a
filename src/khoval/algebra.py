"""Frobenius algebra of the deformed link homology theory.

The coefficient ring is Z[t] with deg(t) = -4.  The algebra is the free rank-2
module on v+ (degree +1) and v- (degree -1), which is Z[t][X]/(X^2 - t) under
v+ = 1, v- = X.  Structure maps:

    m(v+,v+) = v+        Delta(v+) = v+ (x) v- + v- (x) v+
    m(v+,v-) = v-        Delta(v-) = v- (x) v- + t * v+ (x) v+
    m(v-,v-) = t * v+
    unit: 1 -> v+        counit: v+ -> 0, v- -> 1

A circle label is an int: PLUS = 0 for v+ and MINUS = 1 for v-, so v+ sorts
first and a label l has q-degree 1 - 2*l.

Setting t = 0 recovers the undeformed theory; t = 1 gives the Lee deformation.
Both are ring maps, so the Z[t] tables are reduced once per `Theory` at import
and the structure maps are lookups into them: sums and products of reduced
coefficients stay reduced, and `Theory.reduce` is needed only where a caller's
coefficient enters.

A `Ring` bundles one theory's multiply and comultiply tables with the ring's
`one`, and its `negated` twin with every entry negated, built with it.
`RINGS[th]` holds the reduced `TPoly` tables of all three theories.  Over Z
(Khovanov and Lee) every reduced entry is a constant, so `INT_RINGS[th]`
holds the same tables with `int` coefficients, built once at import by
`Ring.integral`, which refuses an entry that still involves t.  Homology and
Lee's cubes read `INT_RINGS`.

The units of Z[t] are two shared objects, `RINGS[th].one` and
`RINGS[th].negated.one` (the same for every theory): every entry of `RINGS`
and of its negated twins, and every `Theory.reduce` result, that equals 1
or -1 is one of them, so a caller tests a `TPoly` for a unit by identity
and runs no `TPoly.__eq__`.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import KhovalError, TheoryError

__all__ = [
    "TPoly",
    "LaurentPoly",
    "PLUS",
    "MINUS",
    "LABELS",
    "LABEL_NAMES",
    "Theory",
    "Ring",
    "RINGS",
    "INT_RINGS",
]

PLUS = 0
MINUS = 1
LABELS = (PLUS, MINUS)
LABEL_NAMES = ("v+", "v-")


class TPoly:
    """A polynomial in t with integer coefficients, stored sparsely.

    Immutable; zero coefficients are never stored.  Exponents are
    non-negative (the ring is Z[t], not Laurent).  Arithmetic returns the
    operand's own class, and polynomials of different classes never compare
    equal.
    """

    __slots__ = ("_terms",)
    VAR = "t"
    LAURENT = False

    def __init__(self, terms: Mapping[int, int] | int = 0):
        if isinstance(terms, int):
            terms = {0: terms} if terms else {}
        clean = {}
        for exp, coeff in terms.items():
            if exp < 0 and not self.LAURENT:
                raise ValueError(f"negative {self.VAR}-exponent {exp}")
            if coeff:
                clean[int(exp)] = int(coeff)
        self._terms = clean

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def _of(self, terms: dict[int, int]) -> "TPoly":
        out = object.__new__(type(self))  # `terms` is clean already: no check
        out._terms = terms
        return out

    def __add__(self, other: "TPoly") -> "TPoly":
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            if total := terms.get(exp, 0) + coeff:
                terms[exp] = total
            else:
                del terms[exp]
        return self._of(terms)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __neg__(self) -> "TPoly":
        return self._of({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "TPoly | int") -> "TPoly":
        if isinstance(other, int):
            return type(self)({e: c * other for e, c in self._terms.items()})
        terms: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        return type(self)(terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            terms = self._terms
            return terms.get(0) == other and len(terms) == 1 if other else not terms
        if not isinstance(other, TPoly):
            return NotImplemented
        return type(self) is type(other) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def specialize(self, t_value: int) -> int:
        """Evaluate at an integer value of the variable."""
        return sum(c * t_value ** e for e, c in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in sorted(self._terms.items()):
            if exp == 0:
                body = str(abs(coeff))
            else:
                mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
                body = f"{mag}{self.VAR}" if exp == 1 else f"{mag}{self.VAR}^{exp}"
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"


class LaurentPoly(TPoly):
    """Sparse Laurent polynomial in q with integer coefficients."""

    __slots__ = ()
    VAR = "q"
    LAURENT = True


class Theory(enum.Enum):
    """Coefficient specialization selecting one of the three theories."""

    KHOVANOV = "khovanov"
    BAR_NATAN = "bar_natan"
    LEE = "lee"

    @classmethod
    def from_name(cls, name: str) -> "Theory":
        key = name.strip().lower().replace("-", "_")
        for th in cls:
            if th.value == key:
                return th
        raise TheoryError(f"unknown theory {name!r}")

    def reduce(self, p: TPoly) -> TPoly:
        """Normalize a Z[t] coefficient into this theory's ring; a unit is the shared one."""
        if self is Theory.BAR_NATAN:
            return _shared(p)
        if self is Theory.KHOVANOV:
            return _shared(TPoly(p.coefficient(0)))
        return _shared(TPoly(p.specialize(1)))  # Lee: t = 1


class Ring:
    """One theory's structure tables: `multiply[x][y]` maps a label, and
    `comultiply[x]` a label pair, to its coefficient; `one` is the ring's 1.

    `negated` is the twin with every entry and `one` negated, built with the
    ring, so a piece of sign -1 reads its coefficients already signed; a
    negated unit is the shared one.
    """

    __slots__ = ("multiply", "comultiply", "one", "negated")

    def __init__(self, multiply: tuple, comultiply: tuple, one: TPoly | int,
                 negated: "Ring | None" = None):
        self.multiply, self.comultiply, self.one = multiply, comultiply, one
        self.negated = negated or self._mapped(lambda c: _shared(-c), _shared(-one), self)

    @property
    def zero(self) -> TPoly | int:
        return type(self.one)(0)

    def _mapped(self, f, one: TPoly | int, negated: "Ring | None" = None) -> "Ring":
        """The ring whose entries are `f` of these, with the given `one`."""

        def table(raw: Mapping) -> Mapping:
            return MappingProxyType({key: f(c) for key, c in raw.items()})

        return Ring(tuple(tuple(map(table, row)) for row in self.multiply),
                    tuple(map(table, self.comultiply)), one, negated)

    def integral(self) -> "Ring":
        """The same tables over `int`; a coefficient that involves t is an error."""

        def constant(p: TPoly) -> int:
            if p != p.coefficient(0):
                raise KhovalError(f"coefficient {p} is not an integer")
            return p.coefficient(0)

        return self._mapped(constant, 1)


# -- the structure tables, reduced once per theory -----------------------------

_ONE, _MINUS_ONE = TPoly(1), TPoly(-1)
_UNITS = {1: _ONE, -1: _MINUS_ONE}


def _shared(p):
    """A `TPoly` equal to 1 or -1 as the shared `_ONE` or `_MINUS_ONE`; else p itself."""
    if type(p) is TPoly and len(terms := p._terms) == 1 and 0 in terms:
        return _UNITS.get(terms[0], p)
    return p


_T = TPoly({1: 1})
_ZT_MULTIPLY = (
    ({PLUS: _ONE}, {MINUS: _ONE}),
    ({MINUS: _ONE}, {PLUS: _T}),
)
_ZT_COMULTIPLY = (
    {(PLUS, MINUS): _ONE, (MINUS, PLUS): _ONE},
    {(MINUS, MINUS): _ONE, (PLUS, PLUS): _T},
)


def _reduced(raw: dict, th: Theory) -> Mapping:
    return MappingProxyType(
        {key: r for key, poly in raw.items() if (r := th.reduce(poly))}
    )


RINGS = {th: Ring(tuple(tuple(_reduced(raw, th) for raw in row) for row in _ZT_MULTIPLY),
                  tuple(_reduced(raw, th) for raw in _ZT_COMULTIPLY), _ONE) for th in Theory}
INT_RINGS = {th: RINGS[th].integral() for th in (Theory.KHOVANOV, Theory.LEE)}
