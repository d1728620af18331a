"""Independent test oracles: brute-force circle tracing and field-rank homology.

These deliberately avoid the library's union-find and elimination code
paths: circles are counted by breadth-first search on an adjacency structure,
and ranks are computed by Gaussian elimination over the rationals or a prime
field from dense block matrices.  Universal coefficients then cross-validate
integral torsion.  A dense Smith normal form with its transforms gives
integral kernels and image membership.  A chain map applied term by term,
one `CochainElement` sum per generator, is the reference for
`ChainMapRep.apply`, the differential summed edge by edge from fresh
resolutions is the reference for `CubeComplex.differential_of`, and the R2
maps in closed form, also from fresh resolutions, are the reference for the
R2 maps that `khoval.cobordism` builds from the bigon's Gaussian elimination.
Euler's formula over the crossing slots, without the library's face walk,
tells whether a PD code can be drawn in the plane.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from khoval.algebra import MINUS, PLUS, RINGS, Theory, TPoly
from khoval.cube import CubeComplex, Generator, transfer_labels
from khoval.diagram import resolve, transfer
from khoval.moves import apply_esi_info


def apply_termwise(f, x):
    """A chain map applied as a sum of scaled images, one element per term."""
    acc = f.target.element()
    for g, coeff in x.terms.items():
        acc = acc + f.of_generator(g).scale(coeff)
    return acc


def differential_termwise(c: CubeComplex, g: Generator) -> dict[Generator, TPoly]:
    """d(g) summed edge by edge, without the cube's edge pieces.

    Each crossing j that is 0-smoothed at g carries the labels along the
    plan between the two resolutions, times (-1)^(1-bits after position j).
    """
    acc: dict[Generator, TPoly] = defaultdict(TPoly)
    for j in range(c.n):
        if (g.mask >> j) & 1:
            continue
        tgt = g.mask | (1 << j)
        plan = transfer(resolve(c.diagram, g.mask), resolve(c.diagram, tgt))
        sign = (-1) ** bin(g.mask >> (j + 1)).count("1")
        for labels, poly in transfer_labels(plan, g.labels, RINGS[c.theory]):
            acc[Generator(tgt, labels)] += poly * sign
    return {h: p for h, p in acc.items() if not p.is_zero()}


def r2_termwise(event, src: CubeComplex, tgt: CubeComplex, g: Generator) -> dict[Generator, TPoly]:
    """The R2 map on g in closed form, without pieces or the bigon reduction.

    The pair is crossings (ia, ib) of the poked diagram, (0, 1) for an
    addition.  Its through slice (ia 0-smoothed, ib 1-smoothed) is the
    diagram without the pair: a copy along the arc map, with the Koszul
    sign of moving the pair to the front.  Its circle slice (ia 1-smoothed,
    ib 0-smoothed) holds the bigon's circle: an addition gives it v+ by a
    cup, and a removal caps it (keeping v-) with sign -1.
    """
    _, info = apply_esi_info(src.diagram, event)
    p, th = info.pieces, src.theory
    hints = {a: (b,) for a, b in info.arc_map.items()}
    src_res = resolve(src.diagram, g.mask)
    acc: dict[Generator, TPoly] = defaultdict(TPoly)
    if info.variant == "add":
        # on the circle slice each poked strand reaches both of its cut ends
        ends = {p["u1"]: (p["u1"], p["u3"]), p["o1"]: (p["o1"], p["o3"])}
        side_hints = {a: ends[b] for a, b in info.arc_map.items()}
        for bits, slice_hints in ((0b10, hints), (0b01, side_hints)):
            mask = g.mask << 2 | bits
            tgt_res = resolve(tgt.diagram, mask)
            cup = {tgt_res.circle_of[p["u2"]]: PLUS} if bits == 0b01 else None
            plan = transfer(src_res, tgt_res, slice_hints)
            for labels, poly in transfer_labels(plan, g.labels, RINGS[th], cup):
                acc[Generator(mask, labels)] += poly
    else:
        ia, ib = info.positions
        bits = ((g.mask >> ia) & 1, (g.mask >> ib) & 1)
        if bits == (0, 1):  # the through slice
            sign, one = 1, ib
        elif bits == (1, 0) and g.labels[src_res.circle_of[p["u2"]]] == MINUS:  # capped
            sign, one = -1, ia
        else:
            return {}
        # moving the pair to the front passes the 1-bits below its one 1-bit
        sign *= (-1) ** bin(g.mask & ((1 << one) - 1)).count("1")
        rest = [j for j in range(src.n) if j not in (ia, ib)]
        mask = sum(((g.mask >> j) & 1) << k for k, j in enumerate(rest))
        plan = transfer(src_res, resolve(tgt.diagram, mask), hints)
        for labels, poly in transfer_labels(plan, g.labels, RINGS[th]):
            acc[Generator(mask, labels)] += poly * sign
    return {h: q for h, q in acc.items() if not q.is_zero()}


def block_basis(c: CubeComplex) -> dict:
    """Basis generators per block: keyed (i, q) graded, or i for Lee."""
    graded = c.theory is Theory.KHOVANOV
    blocks: dict = {}
    for g in c.generators():
        i, q = c.degrees(g)
        blocks.setdefault((i, q) if graded else i, []).append(g)
    for basis in blocks.values():
        basis.sort()
    return blocks


def block_matrix(
    c: CubeComplex, source: list[Generator], target: list[Generator]
) -> list[list[int]]:
    """The dense integer matrix of the differential from `source` to `target`."""
    index = {g: r for r, g in enumerate(target)}
    dense = [[0] * len(source) for _ in range(len(target))]
    for col, g in enumerate(source):
        for tgt, poly in c.differential_of(g).terms.items():
            r = index.get(tgt)
            if r is not None:
                assert set(poly.terms) <= {0}, "non-constant coefficient"
                dense[r][col] = poly.coefficient(0)
    return dense


def snf_with_transforms(dense: list[list[int]]):
    """Diagonalize by unimodular row/column operations.

    Returns (diagonal factors d1 | d2 | ..., U, V) with  U * A * V  diagonal.
    """
    A = [row[:] for row in dense]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        for M in (A, U):
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]

    def add_col(i, j, q):
        for row in A + V:
            row[i] += q * row[j]

    t = 0
    while t < min(m, n):
        # minimal-absolute-value pivot in the trailing submatrix
        entries = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        # clear row and column t; remainders force a re-pivot
        dirty = False
        for i in range(t + 1, m):
            q = A[i][t] // A[t][t]
            if q:
                add_row(i, t, -q)
            dirty = dirty or bool(A[i][t])
        for j in range(t + 1, n):
            q = A[t][j] // A[t][t]
            if q:
                add_col(j, t, -q)
            dirty = dirty or bool(A[t][j])
        if dirty:
            continue
        # divisibility: the pivot must divide every remaining entry
        offender = next(
            (i for i in range(t + 1, m) if any(A[i][j] % A[t][t] for j in range(t + 1, n))),
            None,
        )
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if A[t][t] < 0:
            add_row(t, t, -2)  # negate row t
        t += 1

    factors = [A[i][i] for i in range(min(m, n)) if A[i][i]]
    return factors, U, V


def kernel_basis(dense: list[list[int]]) -> list[list[int]]:
    """An integral basis of ker(A), as column vectors."""
    m = len(dense)
    n = len(dense[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    factors, _, V = snf_with_transforms(dense)
    rank = len(factors)
    return [[V[i][j] for i in range(n)] for j in range(rank, n)]


def in_image(dense: list[list[int]], vector: list[int]) -> bool:
    """Whether an integer vector lies in the column span of A over Z."""
    m = len(dense)
    if m == 0:
        return all(v == 0 for v in vector)
    factors, U, _ = snf_with_transforms(dense)
    rank = len(factors)
    w = [sum(U[i][k] * vector[k] for k in range(m)) for i in range(m)]
    for i in range(m):
        if i < rank:
            if w[i] % factors[i]:
                return False
        elif w[i]:
            return False
    return True


def bfs_circle_count(d, bits) -> int:
    """Count circles of a resolution by BFS over arc adjacency."""
    adj: dict[int, set[int]] = defaultdict(set)
    arcs = set(d.arc_ids())
    joins_by_bit = {0: ((0, 3), (1, 2)), 1: ((0, 1), (2, 3))}
    for c, bit in zip(d.crossings, bits):
        for s1, s2 in joins_by_bit[bit]:
            a, b = c.arcs[s1], c.arcs[s2]
            adj[a].add(b)
            adj[b].add(a)
    for lp in d.loops:
        for i in range(len(lp)):
            a, b = lp[i], lp[(i + 1) % len(lp)]
            adj[a].add(b)
            adj[b].add(a)
    seen: set[int] = set()
    circles = 0
    for start in sorted(arcs):
        if start in seen:
            continue
        circles += 1
        frontier = [start]
        seen.add(start)
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return circles


def rank_over_field(dense: list[list[int]], p: int | None = None) -> int:
    """Rank by Gaussian elimination over Q (p=None) or GF(p)."""
    if not dense or not dense[0]:
        return 0
    if p is None:
        mat = [[Fraction(v) for v in row] for row in dense]
    else:
        mat = [[v % p for v in row] for row in dense]
    rows, cols = len(mat), len(mat[0])
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = (
            Fraction(1) / mat[rank][col] if p is None else pow(mat[rank][col], -1, p)
        )
        mat[rank] = [v * inv if p is None else (v * inv) % p for v in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                if p is None:
                    mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
                else:
                    mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def field_homology_dims(cube: CubeComplex, p: int | None = None) -> dict:
    """dim of every homology block with field coefficients."""
    assert cube.theory in (Theory.KHOVANOV, Theory.LEE)
    graded = cube.theory is Theory.KHOVANOV
    blocks = block_basis(cube)

    def succ(key):
        return (key[0] + 1, key[1]) if graded else key + 1

    ranks = {}
    for key, basis in blocks.items():
        nxt = blocks.get(succ(key), [])
        dense = block_matrix(cube, basis, nxt)
        ranks[key] = rank_over_field(dense, p) if nxt else 0
    dims = {}
    for key, basis in blocks.items():
        prev = (key[0] - 1, key[1]) if graded else key - 1
        dim = len(basis) - ranks.get(key, 0) - ranks.get(prev, 0)
        if dim:
            dims[key] = dim
    return dims


def uct_dims_from_integral(groups: dict, p: int, graded: bool) -> dict:
    """Expected GF(p) dims from integral homology via universal coefficients."""
    dims: dict = defaultdict(int)
    for key, group in groups.items():
        tors_p = sum(1 for t in group.torsion if t % p == 0)
        dims[key] += group.free_rank + tors_p
        prev = (key[0] - 1, key[1]) if graded else key - 1
        dims[prev] += tors_p
    return {k: v for k, v in dims.items() if v}


def is_planar(d) -> bool:
    """Whether the crossings of `d` embed in the plane in their slot order, by Euler's formula.

    The darts are the crossing slots.  A face is an orbit of the step "go to
    the far end of the dart's arc, then to the next slot counterclockwise";
    a connected piece with n crossings (4-valent, so 2n edges) is planar
    exactly when it has n + 2 faces.
    """
    ends = defaultdict(list)
    for i, c in enumerate(d.crossings):
        for s, a in enumerate(c.arcs):
            ends[a].append((i, s))
    other = {}
    for x, y in ends.values():
        other[x], other[y] = y, x
    unseen, faces = set(other), 0
    while unseen:
        faces += 1
        dart = unseen.pop()
        while True:
            i, s = other[dart]
            dart = (i, (s + 1) % 4)
            if dart not in unseen:
                break
            unseen.remove(dart)
    pieces, todo = 0, set(range(d.n))
    while todo:
        pieces += 1
        frontier = [todo.pop()]
        while frontier:
            i = frontier.pop()
            for s in range(4):
                j = other[(i, s)][0]
                if j in todo:
                    todo.remove(j)
                    frontier.append(j)
    return faces == d.n + 2 * pieces
