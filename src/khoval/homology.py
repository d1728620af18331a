"""Integral cohomology via Smith normal form, plus the Jones-polynomial oracle.

`homology` builds the whole cube complex once with `int` coefficients,
one vertex at a time: `integer_differential` numbers the generators in
`CubeComplex.generators` order and takes each column from the cube's own
edge pieces, applied by `cube.apply_pieces` over the integer structure
tables `algebra.INT_RINGS`, so no `TPoly` is built.  It then cancels every
+-1 entry with the unit-pivot kernel of `reduce.eliminate`.
The residual complex is homotopy equivalent to the original and has only
non-unit entries; Smith normal form over arbitrary-precision integers of
each residual block gives ranks and invariant factors.  For the undeformed
theory the blocks are keyed by (i, q); at t = 1 the q-grading collapses and
blocks are keyed by i alone.

`kauffman_jones` is an independent computation path for the graded Euler
characteristic: a Kauffman bracket state sum in the variable A with writhe
correction (-A^3)^(-w), then the substitution A^2 = -1/q.  It shares nothing
with the cohomology path except the parsed diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import INT_RINGS, LABELS, PLUS, LaurentPoly, Theory
from .cube import CubeComplex, Generator, apply_pieces
from .diagram import LinkDiagram
from .errors import CapExceededError, KhovalError, TheoryError
from .reduce import eliminate

__all__ = [
    "LaurentPoly",
    "HomologyGroup",
    "smith_normal_form",
    "integer_differential",
    "homology",
    "graded_euler",
    "kauffman_jones",
]


@dataclass(frozen=True)
class HomologyGroup:
    """Z^free_rank plus cyclic torsion in invariant-factor order."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


# -- Smith normal form ----------------------------------------------------------


def smith_normal_form(dense: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors d1 | d2 | ... and the rank, in exact arithmetic.

    Diagonalizes a copy of the matrix by unimodular row and column
    operations, pivoting on an entry of minimal absolute value.
    """
    A = [row[:] for row in dense]
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    while t < min(m, n):
        # minimal-absolute-value pivot in the trailing submatrix
        entries = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        p = A[t][t]
        # clear row and column t; remainders force a re-pivot
        dirty = False
        for i in range(t + 1, m):
            q = A[i][t] // p
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[t])]
            dirty = dirty or bool(A[i][t])
        for j in range(t + 1, n):
            q = A[t][j] // p
            if q:
                for row in A:
                    row[j] -= q * row[t]
            dirty = dirty or bool(A[t][j])
        if dirty:
            continue
        # divisibility: the pivot must divide every remaining entry
        offender = next(
            (i for i in range(t + 1, m) if any(A[i][j] % p for j in range(t + 1, n))),
            None,
        )
        if offender is not None:
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
            continue
        t += 1
    factors = tuple(abs(A[i][i]) for i in range(min(m, n)) if A[i][i])
    return factors, len(factors)


# -- homology --------------------------------------------------------------------


def integer_differential(c: CubeComplex) -> tuple[dict, dict]:
    """The cube's degrees {k: (i, q)} and integer columns {k: {h: coeff}}.

    Generators are numbered by their position in `c.generators()`: the
    labelling of a vertex's circles, read as a binary number (v+ = 0), plus
    the vertex's offset.  Khovanov and Lee only.
    """
    ring = INT_RINGS[c.theory]
    counts = [c.circles(mask).count for mask in range(1 << c.n)]
    offsets = list(itertools.accumulate((1 << k for k in counts), initial=0))
    position = {labels: pos for k in set(counts)
                for pos, labels in enumerate(itertools.product(LABELS, repeat=k))}
    degrees: dict[int, tuple[int, int]] = {}
    diff: dict[int, dict[int, int]] = {}
    for mask, k in enumerate(counts):
        edges = [c.edge(mask, j) for j in range(c.n) if not (mask >> j) & 1]
        i, top = c.degrees(Generator(mask, (PLUS,) * k))
        for index, labels in enumerate(itertools.product(LABELS, repeat=k), offsets[mask]):
            degrees[index] = (i, top - 2 * sum(labels))
            diff[index] = {offsets[h.mask] + position[h.labels]: v
                           for h, v in apply_pieces(edges, labels, ring).items()}
    return degrees, diff


def homology(c: CubeComplex) -> dict:
    """Blockwise integral cohomology: {(i, q): group} or {i: group} for Lee."""
    if c.theory is Theory.BAR_NATAN:
        raise TheoryError(
            "homology over Z[t] is not supported; use theory khovanov or lee"
        )
    graded = c.theory is Theory.KHOVANOV
    degrees, diff = integer_differential(c)
    eliminate(degrees, diff)

    def succ(k):
        return (k[0] + 1, k[1]) if graded else k + 1

    def pred(k):
        return (k[0] - 1, k[1]) if graded else k - 1

    blocks: dict = {}
    for g, (i, q) in degrees.items():
        blocks.setdefault((i, q) if graded else i, []).append(g)
    ranks: dict = {}
    torsions: dict = {}
    for k, basis in blocks.items():
        targets = {h: r for r, h in enumerate(sorted({h for g in basis for h in diff[g]}))}
        if not targets:
            continue
        dense = [[0] * len(basis) for _ in targets]
        for col, g in enumerate(basis):
            for h, v in diff[g].items():
                dense[targets[h]][col] = v
        factors, ranks[k] = smith_normal_form(dense)
        torsions[succ(k)] = tuple(f for f in factors if f > 1)

    out: dict = {}
    for k, basis in blocks.items():
        free = len(basis) - ranks.get(k, 0) - ranks.get(pred(k), 0)
        group = HomologyGroup(free, torsions.get(k, ()))
        if not group.is_zero():
            out[k] = group
    return out


def graded_euler(c: CubeComplex) -> LaurentPoly:
    """Alternating sum of graded cochain ranks (no homology computation)."""
    if c.theory is not Theory.KHOVANOV:
        raise TheoryError("graded Euler characteristic needs theory khovanov")
    terms: dict[int, int] = {}
    for g in c.generators():
        i, q = c.degrees(g)
        terms[q] = terms.get(q, 0) + (1 if i % 2 == 0 else -1)
    return LaurentPoly(terms)


# -- the independent Jones oracle -------------------------------------------------


def kauffman_jones(d: LinkDiagram, cap: int = 12) -> LaurentPoly:
    """Unnormalized Jones polynomial by Kauffman bracket state sum.

    Normalized so the unknot evaluates to q + 1/q.  Uses its own smoothing
    joins and union-find, the bracket variable A, the writhe correction
    (-A^3)^(-writhe), and finally the substitution A^2 = -1/q.
    """
    if d.n > cap:
        raise CapExceededError(f"diagram has {d.n} crossings, oracle cap is {cap}")
    n = d.n
    writhe = d.n_plus - d.n_minus
    crossings = [c.arcs for c in d.crossings]
    arcs = sorted(d.arc_ids())
    index = {a: i for i, a in enumerate(arcs)}

    delta = {2: -1, -2: -1}  # -A^2 - A^-2
    delta_pows: list[dict[int, int]] = [{0: 1}]

    def delta_pow(k: int) -> dict[int, int]:
        while len(delta_pows) <= k:
            prev = delta_pows[-1]
            nxt: dict[int, int] = {}
            for e1, c1 in prev.items():
                for e2, c2 in delta.items():
                    nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
            delta_pows.append(nxt)
        return delta_pows[k]

    bracket: dict[int, int] = {}
    for state in range(1 << n):
        parent = list(range(len(arcs)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(x: int, y: int) -> None:
            rx, ry = find(index[x]), find(index[y])
            if rx != ry:
                parent[rx] = ry

        for j, (a0, a1, a2, a3) in enumerate(crossings):
            if (state >> j) & 1:  # B-smoothing
                union(a0, a1)
                union(a2, a3)
            else:  # A-smoothing
                union(a0, a3)
                union(a1, a2)
        for lp in d.loops:
            for i in range(len(lp) - 1):
                union(lp[i], lp[i + 1])
        components = {find(i) for i in range(len(arcs))}
        k = len(components)
        sigma = n - 2 * ((state).bit_count())
        for e, coeff in delta_pow(k).items():
            exp = sigma + e
            bracket[exp] = bracket.get(exp, 0) + coeff

    sign = -1 if writhe % 2 else 1
    result: dict[int, int] = {}
    for exp, coeff in bracket.items():
        e = exp - 3 * writhe
        if e % 2:
            raise KhovalError("odd A-exponent in writhe-corrected bracket")
        half = e // 2
        q_coeff = sign * coeff * (1 if half % 2 == 0 else -1)
        q_exp = -half
        result[q_exp] = result.get(q_exp, 0) + q_coeff
    return LaurentPoly(result)
