"""Integral cohomology via Smith normal form, plus the Jones-polynomial oracle.

`homology` reduces the cube complex one layer at a time (`reduced_complex`):
layer p is the vertices with p bits set, and both the Khovanov and the Lee
differential go from layer p to layer p + 1.  A cancelled pair changes only
the map out of its source's layer (Bar-Natan, math/0606318, Lemma 3.2), so
only layer p's generators that layer p - 1's pivots left standing get `int`
columns, in one sweep per layer: `integer_differential` yields them one at
a time and `reduce.eliminate` reduces each and cancels its first +-1 entry
against layer p + 1 before the next is built.  Lee's columns come in
ascending q, so the entries that its q-raising term brings in land on
rows that no pivot holds yet: at T(2,9) its fill falls from 109,035
entries in cube order to 60,345.  The generators `eliminate` cancels are
the next layer's skip list and are struck from the residue of the layer
below; only the survivors get their (i, q), read off their numbers by
`CubeIndex.degree`.  A column is integer offsets into the label tables
(`cube.label_table` over `algebra.INT_RINGS`, one per `diagram.edge_key`,
kept in `cube._TABLES`), with the edge sign inline: no `TPoly`, no
per-generator `Generator`.
The residual complex is homotopy equivalent to the original and has only
non-unit entries; Smith normal form over arbitrary-precision integers of
each residual block gives ranks and invariant factors.  For the undeformed theory the blocks are keyed by
(i, q); at t = 1 the q-grading collapses and Lee's blocks are (i, None),
reported by i alone.  `graded_euler` counts each vertex's generators by
binomials from the same per-vertex (i, top q, circle count), read off
`CubeComplex.vertex`, the one home of the q formula.

`kauffman_jones` is an independent computation path for the graded Euler
characteristic: a Kauffman bracket state sum in the variable A with writhe
correction (-A^3)^(-w), then the substitution A^2 = -1/q.  It shares nothing
with the cohomology path except the parsed diagram.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from operator import itemgetter
from typing import Iterator, NamedTuple

from . import cube
from .algebra import INT_RINGS, LaurentPoly, Theory
from .cube import CubeComplex, label_table
from .diagram import LinkDiagram, edge_key
from .errors import CapExceededError, KhovalError, TheoryError
from .reduce import eliminate

__all__ = [
    "LaurentPoly",
    "HomologyGroup",
    "smith_normal_form",
    "CubeIndex",
    "integer_differential",
    "reduced_complex",
    "homology",
    "graded_euler",
    "kauffman_jones",
]


class HomologyGroup(NamedTuple):
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


class CubeIndex:
    """One cube's vertices and generator numbering, shared by all its layers.

    `vertices[mask]` is the vertex's (i, top, k) (`CubeComplex.vertex`):
    its cohomological degree, the q-degree of its all-v+ generator and its
    circle count; a labelling with m v- labels sits at q = top - 2m.
    Generators are numbered by their position in `c.generators()`: the
    labelling read as a binary number (v+ = 0, circle 0 the most significant
    bit) plus the vertex's offset.  `layers[p]` lists the masks with p bits
    set, for p in range(n + 1).  It resolves every vertex (one dart walk
    each, into `LinkDiagram.resolutions`, where `integer_differential`
    reads both ends of each edge).
    """

    def __init__(self, c: CubeComplex):
        self.cube = c
        self.vertices = [c.vertex(mask) for mask in range(1 << c.n)]
        self.layers: list[list[int]] = [[] for _ in range(c.n + 1)]
        for mask in range(1 << c.n):
            self.layers[mask.bit_count()].append(mask)
        self.offsets = list(itertools.accumulate((1 << k for _, _, k in self.vertices), initial=0))

    def degree(self, g: int) -> tuple[int, int]:
        """Generator g's (i, q): its vertex by its offset, q by the v- bits of its labelling."""
        mask = bisect_right(self.offsets, g) - 1
        i, top, _ = self.vertices[mask]
        return i, top - 2 * (g - self.offsets[mask]).bit_count()


def integer_differential(index: CubeIndex, p: int, skip=()) -> Iterator[tuple[int, dict]]:
    """Layer p's integer columns, one (g, {h: coeff}) pair at a time, skipping those in `skip`.

    A column is its labelling's signed images in the label tables of its
    vertex's edges (ascending crossing order), shifted by the target's
    offset, and is built as it is drawn; the refusals (a Bar-Natan cube, a
    layer off the cube, a non-planar edge) come at the call.  A vertex's
    labellings of m v- labels (`_by_weight(k)[m]`) are one run at q = top -
    2m; Lee's runs are sorted stably by q, Khovanov's stay in cube order, as
    its q-blocks never meet (sorted, its T(2,11) ran 4-8 % slower).
    """
    c, offsets = index.cube, index.offsets
    if p not in range(c.n + 1):
        raise KhovalError(f"layer {p} is not in the cube's layers 0..{c.n}")
    ring = _integer_ring(c)
    lee, resolutions, tables = c.theory is Theory.LEE, c.diagram.resolutions, cube._TABLES
    runs = []  # (q for Lee, offset, edge rows, labelling indices)
    for mask in index.layers[p]:
        src, rows = resolutions[mask], []
        for j in range(c.n):
            if not (mask >> j) & 1:
                tgt = mask | 1 << j
                key = edge_key(c.diagram, mask, j, src, resolutions[tgt])
                table = tables.get((ring, key)) or label_table(ring, key)  # never empty
                # `CubeComplex.edge_sign` inline: through the method, homology ran 1 % slower
                sign = -1 if (mask >> (j + 1)).bit_count() & 1 else 1
                rows.append((offsets[tgt], sign, table))
        (_, top, k), base = index.vertices[mask], offsets[mask]
        if lee:
            runs += [(top - 2 * m, base, rows, xs) for m, xs in enumerate(_by_weight(k))]
        else:
            runs.append((0, base, rows, range(1 << k)))
    if lee:
        runs.sort(key=itemgetter(0))

    def columns() -> Iterator[tuple[int, dict]]:
        for _, base, rows, xs in runs:
            for x in xs:
                if (g := base + x) not in skip:
                    # distinct targets: each edge reaches its own vertex, a row distinct labellings
                    col = {}  # a loop, not a comprehension: 5 % faster on CPython 3.11
                    for off, sign, table in rows:
                        for t, v in table[x]:
                            col[off + t] = sign * v
                    yield g, col
    return columns()


@functools.cache
def _by_weight(k: int) -> tuple[tuple[int, ...], ...]:
    """The labelling indices of k circles grouped by their number m of v- labels, ascending."""
    groups: list[list[int]] = [[] for _ in range(k + 1)]
    for x in range(1 << k):
        groups[x.bit_count()].append(x)
    return tuple(map(tuple, groups))


def _integer_ring(c: CubeComplex):
    """The cube's ring over `int`; Bar-Natan's Z[t] has none."""
    if (ring := INT_RINGS.get(c.theory)) is None:
        raise TheoryError("homology over Z[t] is not supported; use theory khovanov or lee")
    return ring


def reduced_complex(c: CubeComplex) -> tuple[dict, dict]:
    """The cube complex with every unit entry cancelled: degrees {g: (i, q)} and columns.

    `eliminate` sweeps each layer's columns with the next layer's
    generators as targets.  The targets it cancels get no column in the
    next layer, and the sources it cancels leave the residue of the layer
    below, which then moves into the result.  Only the survivors get degrees.
    A Bar-Natan cube is refused with `TheoryError` before any vertex is resolved.
    """
    _integer_ring(c)
    index = CubeIndex(c)
    diff: dict = {}
    residue: dict = {}  # layer p - 1's residual columns, into layer p
    cancelled: set = set()  # what layer p - 1's pivots cancelled: its sources, layer p's targets
    for p in range(c.n + 1):
        columns, cancelled = eliminate(integer_differential(index, p, cancelled))
        for col in residue.values():
            for h in [h for h in col if h in cancelled]:
                del col[h]
        diff.update(residue)
        residue = columns
    diff.update(residue)
    return {g: index.degree(g) for g in diff}, diff


def homology(c: CubeComplex) -> dict:
    """Blockwise integral cohomology: {(i, q): group}, or {i: group} from Lee's (i, None) blocks."""
    graded = c.theory is Theory.KHOVANOV
    degrees, diff = reduced_complex(c)
    blocks: dict = {}
    for g, (i, q) in degrees.items():
        blocks.setdefault((i, q if graded else None), []).append(g)
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
        torsions[k[0] + 1, k[1]] = tuple(f for f in factors if f > 1)

    out: dict = {}
    for (i, q), basis in blocks.items():
        free = len(basis) - ranks.get((i, q), 0) - ranks.get((i - 1, q), 0)
        group = HomologyGroup(free, torsions.get((i, q), ()))
        if not group.is_zero():
            out[(i, q) if graded else i] = group
    return out


def graded_euler(c: CubeComplex) -> LaurentPoly:
    """Alternating sum of graded cochain ranks (no homology computation).

    A vertex with k circles has C(k, m) generators at q = top - 2m.
    """
    if c.theory is not Theory.KHOVANOV:
        raise TheoryError("graded Euler characteristic needs theory khovanov")
    terms: dict[int, int] = {}
    for i, top, k in map(c.vertex, range(1 << c.n)):
        sign = -1 if i % 2 else 1
        for m in range(k + 1):
            terms[top - 2 * m] = terms.get(top - 2 * m, 0) + sign * math.comb(k, m)
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

    bracket: dict[int, int] = {}
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

    for state in range(1 << n):
        parent[:] = range(len(arcs))
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
        k = len({find(i) for i in range(len(arcs))})
        sigma = n - 2 * state.bit_count()
        # delta^k = (-A^2 - A^-2)^k = (-1)^k sum_m C(k, m) A^(2k - 4m)
        for m in range(k + 1):
            exp = sigma + 2 * k - 4 * m
            bracket[exp] = bracket.get(exp, 0) + (-1) ** k * math.comb(k, m)

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
