"""Frobenius algebra of the deformed link homology theory.

The coefficient ring is Z[t] with deg(t) = -4.  The algebra is the free rank-2
module on v+ (degree +1) and v- (degree -1), which is Z[t][X]/(X^2 - t) under
v+ = 1, v- = X.  Structure maps:

    m(v+,v+) = v+        Delta(v+) = v+ (x) v- + v- (x) v+
    m(v+,v-) = v-        Delta(v-) = v- (x) v- + t * v+ (x) v+
    m(v-,v-) = t * v+
    unit: 1 -> v+        counit: v+ -> 0, v- -> 1

Setting t = 0 recovers the undeformed theory; t = 1 gives the Lee deformation.
A single implementation over Z[t] serves all three: a `Theory` is just a
coefficient normalization applied after each operation.
"""

from __future__ import annotations

import enum
from typing import Iterator, Mapping

from .errors import TheoryError

__all__ = [
    "TPoly",
    "Label",
    "Theory",
    "multiply",
    "comultiply",
    "unit",
    "counit",
    "tube",
    "specialize",
]


class TPoly:
    """A polynomial in t with integer coefficients, stored sparsely.

    Immutable; zero coefficients are never stored.  Exponents are
    non-negative (the ring is Z[t], not Laurent).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | int = 0):
        if isinstance(terms, int):
            terms = {0: terms} if terms else {}
        clean = {}
        for exp, coeff in terms.items():
            if exp < 0:
                raise ValueError(f"negative t-exponent {exp}")
            if coeff:
                clean[int(exp)] = int(coeff)
        self._terms = clean

    @classmethod
    def t_power(cls, exp: int, coeff: int = 1) -> "TPoly":
        return cls({exp: coeff})

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

    def __add__(self, other: "TPoly") -> "TPoly":
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            terms[exp] = terms.get(exp, 0) + coeff
        return TPoly(terms)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __neg__(self) -> "TPoly":
        return TPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "TPoly | int") -> "TPoly":
        if isinstance(other, int):
            return TPoly({e: c * other for e, c in self._terms.items()})
        terms: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        return TPoly(terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = TPoly(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def specialize(self, t_value: int) -> int:
        """Evaluate at an integer value of t."""
        return sum(c * t_value ** e for e, c in self._terms.items())

    def min_q_shift(self) -> int:
        """Most negative q-contribution of any term (deg t = -4)."""
        if not self._terms:
            return 0
        return -4 * max(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in sorted(self._terms.items()):
            if exp == 0:
                body = str(abs(coeff))
            else:
                mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
                body = f"{mag}t" if exp == 1 else f"{mag}t^{exp}"
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"TPoly({self._terms!r})"


TPOLY_ZERO = TPoly(0)
TPOLY_ONE = TPoly(1)
TPOLY_T = TPoly.t_power(1)


class Label(enum.Enum):
    """Basis label of a circle: v+ or v-.  The enum value is the q-degree."""

    PLUS = 1
    MINUS = -1

    @property
    def q_degree(self) -> int:
        return self.value

    def __lt__(self, other: "Label") -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self.value > other.value  # v+ sorts first

    def __str__(self) -> str:
        return "v+" if self is Label.PLUS else "v-"


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
        """Normalize a Z[t] coefficient into this theory's ring."""
        if self is Theory.BAR_NATAN:
            return p
        if self is Theory.KHOVANOV:
            return TPoly(p.coefficient(0))
        return TPoly(p.specialize(1))  # Lee: t = 1


# Structure maps are returned as sparse dicts with TPoly coefficients:
# multiply/tube map to {Label: TPoly}, comultiply to {(Label, Label): TPoly}.

def multiply(x: Label, y: Label, th: Theory = Theory.BAR_NATAN) -> dict[Label, TPoly]:
    """Product of two circle labels (the merge map)."""
    if x is Label.PLUS and y is Label.PLUS:
        raw = {Label.PLUS: TPOLY_ONE}
    elif x is Label.MINUS and y is Label.MINUS:
        raw = {Label.PLUS: TPOLY_T}
    else:
        raw = {Label.MINUS: TPOLY_ONE}
    return _reduce_map(raw, th)


def comultiply(x: Label, th: Theory = Theory.BAR_NATAN) -> dict[tuple[Label, Label], TPoly]:
    """Coproduct of a circle label (the split map)."""
    if x is Label.PLUS:
        raw = {
            (Label.PLUS, Label.MINUS): TPOLY_ONE,
            (Label.MINUS, Label.PLUS): TPOLY_ONE,
        }
    else:
        raw = {
            (Label.MINUS, Label.MINUS): TPOLY_ONE,
            (Label.PLUS, Label.PLUS): TPOLY_T,
        }
    return _reduce_map(raw, th)


def unit(th: Theory = Theory.BAR_NATAN) -> dict[Label, TPoly]:
    """Image of 1 under the unit map (a birth)."""
    return {Label.PLUS: TPOLY_ONE}


def counit(x: Label, th: Theory = Theory.BAR_NATAN) -> TPoly:
    """Counit (a death): v+ -> 0, v- -> 1."""
    return TPOLY_ONE if x is Label.MINUS else TPOLY_ZERO


def tube(x: Label, th: Theory = Theory.BAR_NATAN) -> dict[Label, TPoly]:
    """The genus-adding map m o Delta: v+ -> 2v-, v- -> 2t v+."""
    out: dict[Label, TPoly] = {}
    for (a, b), c1 in comultiply(x, th).items():
        for lbl, c2 in multiply(a, b, th).items():
            _accumulate(out, lbl, c1 * c2)
    return _reduce_map(out, th)


def xmult(x: Label, th: Theory = Theory.BAR_NATAN) -> dict[Label, TPoly]:
    """Multiplication by X = v-:  v+ -> v-,  v- -> t v+."""
    return multiply(x, Label.MINUS, th)


def specialize(p: TPoly, t_value: int) -> int:
    """Polynomial evaluation at an integer t."""
    return p.specialize(t_value)


def _accumulate(mapping: dict, key, poly: TPoly) -> None:
    cur = mapping.get(key)
    total = poly if cur is None else cur + poly
    if total.is_zero():
        mapping.pop(key, None)
    else:
        mapping[key] = total


def _reduce_map(raw: dict, th: Theory) -> dict:
    out = {}
    for key, poly in raw.items():
        reduced = th.reduce(poly)
        if not reduced.is_zero():
            out[key] = reduced
    return out
