"""Independent test oracles: brute-force circle tracing and field-rank homology.

These deliberately avoid the library's dart walks and elimination code
paths: circles are counted by breadth-first search on an adjacency structure
or found by a union-find over the arcs each smoothing joins, connected
pieces by a union-find over the crossings each arc joins, and ranks are
computed by Gaussian elimination over the rationals or a prime field from
dense block matrices.  Universal coefficients then cross-validate
integral torsion.  A dense Smith normal form with its transforms gives
integral kernels and image membership.  A chain map applied term by term,
one `CochainElement` sum per generator, is the reference for
`ChainMapRep.apply`, the differential summed edge by edge from fresh
resolutions is the reference for `CubeComplex.differential_of`, and the R2
maps in closed form, also from fresh resolutions, are the reference for the
R2 maps that `khoval.cobordism` builds from the bigon's Gaussian elimination.
Euler's formula over the crossing slots, without the library's face walk,
tells whether a PD code can be drawn in the plane.  Khovanov's closed form
for the (2, n) torus knots is the reference for `homology` beyond the
golden file's sizes, and the graded Euler characteristic summed generator
by generator is the reference for `graded_euler`'s binomial counts.
Eager unit-pivot elimination through a row index, each pivot cancelled at
once in every column that hits it, is the reference for the pivots,
residue and insertion order of `reduce.eliminate`'s column reduction.
The two-stage layer step, every column of a layer built into one dict
before an in-place elimination pass visits them, is the reference for the
degrees, columns and insertion orders of `homology.reduced_complex`'s
streamed sweep.  A circle-transfer plan read through multi-image hints
(`transfer_multi`: each arc to every arc that replaces it, each circle's
arcs gathered from `circle_of`) is the reference for `diagram.transfer`,
which reads the rewrite's arc map, one image per arc; the R2 closed form,
the edge-by-edge differential and the edge label tables read it too.  Each
cube edge's label table carried labelling by labelling with
`transfer_labels` through the `transfer_multi` plan of the edge's two
fresh resolutions, over label tuples and a tuple-to-index dict, is the
reference for the bit arithmetic of `cube.label_table`.
`transfer_labels` builds each target labeling slot by slot from a plan;
pieces applied through it and summed term by term (`apply_pieces_termwise`)
are the reference for the compiled label actions of `cube.apply_pieces`.  The
genus-adding map m o Delta, composed from a theory's multiply and
comultiply tables, checks the tube identities.  The two-pass constructor
(`two_pass_diagram`: each arc's dart list built first, `far` filled from it
in a second loop, every strand walked as an orbit under a turn table) is
the reference for the tables and refusals of `LinkDiagram`'s one pass.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from fractions import Fraction

from khoval.algebra import INT_RINGS, LABELS, MINUS, PLUS, RINGS, LaurentPoly, Theory, TPoly
from khoval.cube import CubeComplex, Generator, label_table
from khoval.diagram import ResolvedDiagram, Transfer, edge_key, resolve
from khoval.errors import KhovalError, OrientationError, ParseError
from khoval.homology import CubeIndex
from khoval.moves import apply_esi_info


def tube(x: int, th: Theory) -> dict[int, TPoly]:
    """The genus-adding map m o Delta on a label, composed from the theory's tables."""
    out: dict[int, TPoly] = {}
    for (a, b), c1 in RINGS[th].comultiply[x].items():
        for lbl, c2 in RINGS[th].multiply[a][b].items():
            out[lbl] = out.get(lbl, TPoly(0)) + c1 * c2
    return {lbl: c for lbl, c in out.items() if c}


def transfer_multi(
    src: ResolvedDiagram,
    tgt: ResolvedDiagram,
    hints: dict[int, tuple[int, ...]] | None = None,
) -> Transfer:
    """The circle-transfer plan from `src` to `tgt` under multi-image hints.

    Each source circle, its arcs gathered from `circle_of`, reaches the
    target circles of its arcs, each arc read through `hints` (arc -> the
    arcs that replace it, () for an arc that dies; an arc without a hint
    stands for itself).  A target reached from two source circles is a
    merge, a source reaching two targets a split; more than one of these is
    refused.  The library's `transfer` takes one image per arc.
    """
    circles: list[list[int]] = [[] for _ in range(src.count)]
    for a, s in src.circle_of.items():
        circles[s].append(a)
    circle_of = tgt.circle_of
    hits: list[list[int]] = [[] for _ in range(tgt.count)]
    dead = []
    split = None
    for s, circ in enumerate(circles):
        reached = {circle_of.get(b) for a in circ for b in (hints or {}).get(a, (a,))}
        reached.discard(None)
        if not reached:
            dead.append(s)
            continue
        if len(reached) > 2 or (len(reached) == 2 and split is not None):
            raise KhovalError("circle transfer is not a single merge or split")
        if len(reached) == 2:
            split = (s, tuple(sorted(reached)))
        for t in reached:
            hits[t].append(s)
    copies = []
    merge = None
    new = []
    for t, srcs in enumerate(hits):
        if not srcs:
            new.append(t)
        elif len(srcs) > 2:
            raise KhovalError("more than two circles merged at once")
        elif len(srcs) == 2:
            if merge is not None or split is not None:
                raise KhovalError("circle transfer is not a single merge or split")
            merge = ((srcs[0], srcs[1]), t)
        elif split is None or srcs[0] != split[0]:
            copies.append((srcs[0], t))
    return Transfer(tuple(copies), merge, split, tuple(dead), tuple(new), tgt.count)


def transfer_labels(
    plan: Transfer,
    labels: tuple[int, ...],
    ring,
    fixed: dict[int, int] | None = None,
) -> list[tuple[tuple[int, ...], TPoly | int]]:
    """Carry a labeling along a circle-transfer plan: [(target labels, coeff)].

    Copied circles keep their label, a merge multiplies and a split
    comultiplies in `ring`.  `fixed` labels the plan's new target circles;
    labels of dead source circles are dropped, so the caller accounts for them.
    """
    base: list[int | None] = [None] * plan.count
    for s, t in plan.copies:
        base[t] = labels[s]
    if plan.new:
        if fixed is None or any(t not in fixed for t in plan.new):
            raise KhovalError("circle transfer left target circles unlabeled")
        for t in plan.new:
            base[t] = fixed[t]
    if plan.merge is not None:
        (s1, s2), t = plan.merge
        out = []
        for lbl, poly in ring.multiply[labels[s1]][labels[s2]].items():
            base[t] = lbl
            out.append((tuple(base), poly))
        return out
    if plan.split is not None:
        s, (t1, t2) = plan.split
        out = []
        for (l1, l2), poly in ring.comultiply[labels[s]].items():
            base[t1] = l1
            base[t2] = l2
            out.append((tuple(base), poly))
        return out
    return [(tuple(base), ring.one)]


def apply_pieces_termwise(cube: CubeComplex, pieces, labels: tuple[int, ...]) -> dict:
    """The summed terms of `cube.apply_pieces`, each piece carried by `transfer_labels`.

    A piece whose dying circles do not all carry their kept labels gives
    nothing; a sign -1 negates each coefficient, and a dot multiplies its
    circle's label by X = v-.  The terms are summed one by one.
    """
    ring = cube.ring
    acc: dict = defaultdict(lambda: ring.zero)
    for p in pieces:
        if p.deaths and any(labels[s] != keep for s, keep in p.deaths.items()):
            continue
        terms = transfer_labels(p.plan, labels, ring, p.births)
        for c in p.dots:
            terms = [(lbls[:c] + (x,) + lbls[c + 1:], poly * extra) for lbls, poly in terms
                     for x, extra in ring.multiply[lbls[c]][MINUS].items()]
        for lbls, poly in terms:
            acc[Generator(p.mask, lbls)] += poly * p.sign
    return {g: c for g, c in acc.items() if c}


def apply_termwise(f, x):
    """A chain map applied as a sum of scaled images, one element per term."""
    acc = f.target.element()
    for g, coeff in x.terms.items():
        acc = acc + f.of_generator(g).scale(coeff)
    return acc


def differential_termwise(c: CubeComplex, g: Generator) -> dict[Generator, TPoly]:
    """d(g) summed edge by edge, without the cube's edge rows and label tables.

    Each crossing j that is 0-smoothed at g carries the labels along the
    plan between the two resolutions, times (-1)^(1-bits after position j).
    """
    acc: dict[Generator, TPoly] = defaultdict(TPoly)
    for j in range(c.n):
        if (g.mask >> j) & 1:
            continue
        tgt = g.mask | (1 << j)
        plan = transfer_multi(resolve(c.diagram, g.mask), resolve(c.diagram, tgt))
        sign = (-1) ** bin(g.mask >> (j + 1)).count("1")
        for labels, poly in transfer_labels(plan, g.labels, RINGS[c.theory]):
            acc[Generator(tgt, labels)] += poly * sign
    return {h: p for h, p in acc.items() if not p.is_zero()}


def label_table_termwise(d, mask: int, j: int, ring) -> list[tuple[tuple[int, int], ...]]:
    """The label table of the cube edge flipping crossing j at `mask`, over `ring`.

    Each source labelling, in `itertools.product` order, goes to its
    ((target index, coeff), ...) carried by `transfer_labels` through the
    general plan between the edge's two resolutions, resolved afresh.
    """
    plan = transfer_multi(resolve(d, mask), resolve(d, mask | 1 << j))
    index = {lbls: t for t, lbls in enumerate(itertools.product(LABELS, repeat=plan.count))}
    return [tuple((index[lbls], v) for lbls, v in transfer_labels(plan, labels, ring))
            for labels in itertools.product(LABELS, repeat=resolve(d, mask).count)]


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
            plan = transfer_multi(src_res, tgt_res, slice_hints)
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
        plan = transfer_multi(src_res, resolve(tgt.diagram, mask), hints)
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
    """The dense integer matrix of the differential from `source` to `target`.

    Lee's coefficients are `int`; Khovanov's are constant `TPoly`s.
    """
    index = {g: r for r, g in enumerate(target)}
    dense = [[0] * len(source) for _ in range(len(target))]
    for col, g in enumerate(source):
        for tgt, coeff in c.differential_of(g).terms.items():
            r = index.get(tgt)
            if r is not None:
                if not isinstance(coeff, int):
                    assert set(coeff.terms) <= {0}, "non-constant coefficient"
                    coeff = coeff.coefficient(0)
                dense[r][col] = coeff
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


# the slot pairs each smoothing joins
SMOOTHING_JOINS = {0: ((0, 3), (1, 2)), 1: ((0, 1), (2, 3))}


class _DSU:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, a: int) -> int:
        parent = self.parent
        root = parent.setdefault(a, a)
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def resolve_union_find(d, mask: int) -> ResolvedDiagram:
    """The resolution at `mask` by a union-find over the arcs each smoothing joins."""
    dsu = _DSU()
    for a in d.arc_ids():
        dsu.find(a)
    for j, c in enumerate(d.crossings):
        for s1, s2 in SMOOTHING_JOINS[(mask >> j) & 1]:
            dsu.union(c.arcs[s1], c.arcs[s2])
    for lp in d.loops:
        for a, b in zip(lp, lp[1:]):
            dsu.union(a, b)
    groups: dict[int, list[int]] = {}
    for a in d.arc_ids():
        groups.setdefault(dsu.find(a), []).append(a)
    circles = sorted(tuple(sorted(g)) for g in groups.values())
    circle_of = {a: i for i, circ in enumerate(circles) for a in circ}
    darts = [circle_of[a] for c in d.crossings for a in c.arcs]
    return ResolvedDiagram(len(circles), darts, ((), circles))


def pieces_union_find(d) -> set[frozenset[int]]:
    """The connected pieces of `d` as sets of arcs, by a union-find over `ends`.

    Each crossing arc joins the crossings of its tail and head darts; a
    crossing-free circle is a piece of its own.
    """
    dsu = _DSU()
    for (i, _), (j, _) in d.ends.values():
        dsu.union(i, j)
    groups: dict[int, set[int]] = {}
    for a, ((i, _), _) in d.ends.items():
        groups.setdefault(dsu.find(i), set()).add(a)
    return {frozenset(g) for g in groups.values()} | {frozenset(lp) for lp in d.loops}


def bfs_circle_count(d, mask: int) -> int:
    """Count circles of a resolution by BFS over arc adjacency."""
    adj: dict[int, set[int]] = defaultdict(set)
    arcs = set(d.arc_ids())
    for j, c in enumerate(d.crossings):
        for s1, s2 in SMOOTHING_JOINS[(mask >> j) & 1]:
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


def graded_euler_termwise(c: CubeComplex) -> LaurentPoly:
    """The graded Euler characteristic summed generator by generator, from `c.degrees`."""
    terms: dict[int, int] = {}
    for g in c.generators():
        i, q = c.degrees(g)
        terms[q] = terms.get(q, 0) + (1 if i % 2 == 0 else -1)
    return LaurentPoly(terms)


def torus2_khovanov(n: int) -> dict:
    """Khovanov homology of the positive (2, n) torus knot, n odd, in closed form.

    {(i, q): (free rank, torsion)} from Khovanov (math/9908171, section
    6.2): Z at (0, n - 2) and (0, n); Z at (i, n + 2i - 2) for even i in
    2..n-1; Z/2 at (i, n + 2i - 2) and Z at (i, n + 2i) for odd i in 3..n.
    """
    assert n % 2 == 1 and n >= 3
    groups = {(0, n - 2): (1, ()), (0, n): (1, ())}
    for i in range(2, n + 1):
        if i % 2 == 0:
            groups[i, n + 2 * i - 2] = (1, ())
        else:
            groups[i, n + 2 * i - 2] = (0, (2,))
            groups[i, n + 2 * i] = (1, ())
    return groups


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


def eliminate_row_index(degrees: dict, diff: dict) -> None:
    """Unit-pivot elimination with a row index, cancelling each pivot at once everywhere.

    The reference for `reduce.eliminate`: columns are visited in insertion
    order, each cancels its first unit entry, and the cancellation updates
    every column that hits the pivot's target on the spot, found through a
    row index (each hit generator to the columns that hit it).  Passes
    repeat until no unit entry is left.
    """
    rows: dict = defaultdict(set)
    for g, col in diff.items():
        for h in col:
            rows[h].add(g)

    def add_scaled(x: dict, source: dict, scale) -> None:
        col = diff[x]
        for k, v in source.items():
            cur = col.get(k)
            total = scale * v if cur is None else cur + scale * v
            if total:
                col[k] = total
                rows[k].add(x)
            elif cur is not None:
                del col[k]
                rows[k].discard(x)

    def cancel(g, h, lam) -> None:
        rho = diff.pop(g)
        del rho[h]
        for k in rho:
            rows[k].discard(g)
        for k in diff.pop(h, ()):
            rows[k].discard(h)
        for y in rows.pop(g, ()):
            del diff[y][g]
        hitters = rows.pop(h)
        hitters.discard(g)
        del degrees[g], degrees[h]
        for x in hitters:
            add_scaled(x, rho, -lam * diff[x].pop(h))

    order = list(diff)
    while order:
        for g in order:
            col = diff.get(g)
            if not col:
                continue
            for h, c in col.items():
                if c == 1 or c == -1:
                    cancel(g, h, c)
                    break
        survivors = [g for g in order if g in diff]
        if len(survivors) == len(order):
            break
        order = survivors


def reduced_complex_two_stage(c: CubeComplex) -> tuple[dict, dict]:
    """`homology.reduced_complex` in two stages per layer: all columns, then elimination.

    The reference for the streamed layer sweep: each layer's columns are
    first built into one dict (`layer_columns`), then eliminated in place
    by `eliminate_in_place`, so a column is built before any pivot of its
    layer is chosen.  Degrees are read for the survivors only.
    """
    index = CubeIndex(c)
    diff: dict = {}
    residue: dict = {}
    cancelled: set = set()
    for p in range(c.n + 1):
        columns = layer_columns(index, p, cancelled)
        cancelled = eliminate_in_place(columns)
        for col in residue.values():
            for h in [h for h in col if h in cancelled]:
                del col[h]
        diff.update(residue)
        residue = columns
    diff.update(residue)
    return {g: index.degree(g) for g in diff}, diff


def layer_columns(index, p: int, skip=()) -> dict:
    """Layer p's integer columns {g: {h: coeff}} in one dict, skipping the generators in `skip`.

    Each edge's label table over the integer ring, signed and shifted by its
    target's offset; Lee's columns in ascending q (cube order within each
    q), Khovanov's in cube order.
    """
    c, offsets = index.cube, index.offsets
    ring = INT_RINGS[c.theory]
    runs = []
    for mask in index.layers[p]:
        rows = []
        for j in range(c.n):
            if not (mask >> j) & 1:
                tgt = mask | 1 << j
                key = edge_key(c.diagram, mask, j, c.circles(mask), c.circles(tgt))
                sign = -1 if (mask >> (j + 1)).bit_count() & 1 else 1
                rows.append((offsets[tgt], sign, label_table(ring, key)))
        _, top, k = index.vertices[mask]
        for x in range(1 << k):
            q = top - 2 * x.bit_count() if c.theory is Theory.LEE else 0
            runs.append((q, offsets[mask] + x, rows, x))
    runs.sort(key=lambda run: run[0])
    return {g: {off + t: sign * v for off, sign, table in rows for t, v in table[x]}
            for _, g, rows, x in runs if g not in skip}


def eliminate_in_place(diff: dict) -> set:
    """Cancel unit entries of `diff` in place, pass by pass; return the cancelled generators.

    Each pass visits the columns in insertion order: a column first takes
    the updates of the pivots chosen before it, in pivot order, then
    cancels its first unit entry.  The pass ends by updating its survivors
    and dropping the cancelled generators' columns.
    """
    order = list(diff)
    cancelled: set = set()
    while True:
        pivots: list = []  # (g, h, -lam, rho) in the order chosen
        number: dict = {}  # each cancelled generator to its pivot's number
        for g in order:
            col = diff[g]
            if not col or g in number:
                continue
            _apply_pivots(col, pivots, number)
            for h, c in col.items():
                if c == 1 or c == -1:
                    del col[h]
                    number[g] = number[h] = len(pivots)
                    pivots.append((g, h, -c, col))
                    break
        if not pivots:
            return cancelled
        order = [g for g in order if g not in number]
        for g in order:
            _apply_pivots(diff[g], pivots, number)
        for g in number:
            diff.pop(g, None)
        cancelled.update(number)


def _apply_pivots(col: dict, pivots: list, number: dict) -> None:
    """Apply to `col` each pivot that hits it, in pivot order, through a heap of pivot numbers."""
    heap = sorted(number[k] for k in col if k in number)
    while heap:
        g, h, scale, rho = pivots[heapq.heappop(heap)]
        col.pop(g, None)
        c = col.pop(h, None)
        if c is None:
            continue
        scale *= c
        for k, v in rho.items():
            total = col.get(k, 0) + scale * v
            if total:
                if k not in col and k in number:
                    heapq.heappush(heap, number[k])
                col[k] = total
            else:
                col.pop(k, None)


def two_pass_diagram(crossings, loops=()) -> tuple:
    """(far, ends, signs, crossings as (id, arcs) pairs, arc ids) of a diagram, in two passes.

    The ids are checked and each crossing arc's two darts listed first, then
    `far` is filled from the lists; each strand is an orbit under the turn
    s -> s ^ 2, walked out of every slot 2 and then out of the slot 3 of the
    last crossing of a strand that only passes over.  Refusals are those of
    `LinkDiagram`, with its messages, for ids that are ints.
    """
    raw = [(cid, tuple(arcs)) for cid, arcs in crossings]
    loops = [tuple(lp) for lp in loops]
    darts: dict[int, list[int]] = {}
    cids = set()
    for i, (cid, arcs) in enumerate(raw):
        if len(arcs) != 4:
            raise ParseError(f"crossing {cid} does not have 4 arcs")
        if cid in cids:
            raise ParseError(f"duplicate crossing id {cid}")
        cids.add(cid)
        for s, a in enumerate(arcs):
            if a < 1:
                raise ParseError(f"arc id {a} is not a positive integer")
            darts.setdefault(a, []).append(4 * i + s)
    for a, at in darts.items():
        if len(at) != 2:
            raise ParseError(f"arc {a} appears {len(at)} times (expected 2)")
    seen = set()
    for lp in loops:
        if not lp:
            raise ParseError("empty loop")
        for a in lp:
            if a < 1:
                raise ParseError(f"arc id {a} is not a positive integer")
            if a in darts or a in seen:
                raise ParseError(f"loop arc {a} reused")
            seen.add(a)
    far = [0] * (4 * len(raw))
    for x, y in darts.values():
        far[x], far[y] = y, x
    n = len(raw)
    signs = [0] * n
    ends: dict = {}
    turn = [x ^ 2 for x in range(4 * n)]
    for start in [4 * i + 2 for i in range(n)] + [4 * i + 3 for i in reversed(range(n))]:
        if raw[start >> 2][1][start & 3] in ends:
            continue
        orbit = [start]
        while (x := turn[far[orbit[-1]]]) != start:
            orbit.append(x)
        for x in orbit:
            i, s, j, t = x >> 2, x & 3, far[x] >> 2, far[x] & 3
            if t == 2:
                raise OrientationError(
                    f"arc {raw[i][1][s]} oriented inconsistently: its strand enters "
                    f"crossing {raw[j][0]} by slot 2"
                )
            ends[raw[i][1][s]] = (i, s), (j, t)
            if t & 1:
                signs[j] = 2 - t
    return far, ends, signs, raw, frozenset([*darts, *seen])
