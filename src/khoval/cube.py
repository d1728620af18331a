"""The cube of modules: cochain groups, gradings, and the signed differential.

Vertices of the cube are bitmasks (bit j = smoothing of crossing j), resolved
on first use and kept on the diagram (`LinkDiagram.resolutions`), so cubes of
every theory on one still share them and a movie pays only for the vertices
its element reaches.  A generator is a vertex together with one int label
(PLUS = 0 for v+, MINUS = 1 for v-) per circle of its resolution, circles
being listed in canonical order (increasing smallest arc id).

The differential has one description, read alike by every reader.  The edge
flipping crossing j at a vertex has a row (`CubeComplex.edge_row`, derived
on each call and kept nowhere): its target, its `diagram.edge_key` (four
circle ids read off both ends' dart arrays at crossing j) and the sign
(-1)^(number of 1-bits after the flipped position), which makes every
square face anticommute.  A key's label table over a ring (`label_table`)
lists, for each labelling of the source circles by its index in
`itertools.product` order, its image's ((target index, coeff), ...); an
edge of sign -1 reads the table over the ring's `negated` twin.  A key
names circle positions, not a diagram (Bar-Natan's cobordisms are local,
math/0606318), so the tables are kept once per process in `_TABLES`,
keyed by (ring, key), and shared by every still, cube and reader.  A
process keeps every table it builds, as one call on a still already did:
T(2,11)'s 65 keys hold 3.5 MiB over Khovanov's integer ring and 4.2 MiB
over Lee's, T(2,13)'s 90 keys 17.6 MiB and 21.9 MiB (`tracemalloc`).
Each cube keeps, per edge it reads, the target, table and target
labellings (`_edges`): the movie and R3 maps read most edges again.
`differential_of`, `_edge_op` (the R2 bigon's unit edges, R3's Psi and
`check_faces`) and `homology` (over `INT_RINGS`, with an inline `int`
sign) read these tables.

A linear map on a cube is an op: a function from a generator to its image
as a list of terms [(generator, coeff)], with no zero coefficient, which
may name one generator twice.  `apply_linear` carries terms through ops in
turn and is the one place that sums an op's terms; an op built from other ops
carries their terms through `_carry`, unsummed, and an op's list is never
changed once returned (`cobordism.ChainMapRep` memoizes ops and shares
their lists).  The movie maps' ops are sums of `Piece`s, signed dotted
cobordisms that carry labels along a circle-transfer plan; `apply_pieces`
lists their terms and `_piece_op` makes the op of a table `vertex(mask) ->
pieces`, computed once per vertex into a table kept on the source still
(`cobordism` keys it by event in `LinkDiagram.maps`), so ops of every
theory between the same stills build it once.  So a table is applied on
two paths.  Composite maps (R2, R3) and `ChainMapRep.of_generator` use the
op, each generator's image listed once and memoized where it recurs.  The
movie sweep maps a whole element through a Morse or R1 table in one pass
(`_apply_table`): each term's pieces act, scaled and summed as they come,
with no op call, term list or `_carry` pass per term, into the same dict.
Routing `_piece_op` through that pass made the R3 benchmark 6-7 % slower,
so the two stay apart, and the tests check each against the other.

`_bigon_reduction` is Bar-Natan's Gaussian elimination lemma
(math/0606318) on an R2 bigon's two unit edges, read off the cube's own
edges: the R2 maps in `cobordism` and the R3 cone in `r3` are built from it.
Both also carry vertices one to one along the arc map by one rule,
`_carry_rule`, which refuses a plan that merges, splits, births or kills.

Coefficients are kept in the cube's ring, `CubeComplex.ring`: for Lee
`algebra.INT_RINGS[LEE]`, so Lee's coefficients are `int`; for Khovanov and
Bar-Natan `algebra.RINGS[theory]`, over `TPoly`, whose tables are already
reduced.  A caller's Z[t] coefficient is reduced where it enters, in
`CubeComplex.element` and `CochainElement.scale` (for Lee, to its `int` at
t = 1), and a caller's generator whose labels do not fit its vertex is
refused there.  A piece of sign -1 reads the `negated` twin too, so
applying a map negates no coefficient, and every unit is one of two shared
`TPoly`s (`algebra`), so `_carry` and `_times` test a `TPoly` for a unit by
identity and an `int` by value.  Terms' and `generators_at`'s `Generator`s
are made by `tuple.__new__`; a piece's label action is compiled when made
(`_label_action`).

The gradings have one home, `CubeComplex.vertex`: a vertex's cohomological
degree i = |v| - n_minus, the q-degree of its all-v+ labelling, i + k +
(n_plus - n_minus) for k circles, and k.  A labelling with m v- labels sits
at q = top - 2m, and a coefficient t^k lowers q by 4k.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import Iterator, NamedTuple

from .algebra import INT_RINGS, LABEL_NAMES, LABELS, MINUS, PLUS, RINGS, Ring, TPoly, Theory
from .diagram import LinkDiagram, ResolvedDiagram, Transfer, edge_key, resolve, transfer
from .errors import CapExceededError, KhovalError, MoveError, TheoryError

__all__ = [
    "Generator",
    "CochainElement",
    "CubeComplex",
    "CheckReport",
    "label_table",
    "Piece",
    "CUP",
    "DOTTED_CUP",
    "CAP",
    "DOTTED_CAP",
    "apply_pieces",
    "apply_linear",
    "build_cube",
    "check_d_squared",
    "check_faces",
]

DEFAULT_CAP = 16
_LABEL_SET = frozenset(LABELS)

# Lee's ring is Z, as t = 1 and its tables' entries are constants
_RINGS = {**RINGS, Theory.LEE: INT_RINGS[Theory.LEE]}
# the shared units of Z[t], the same objects in every theory's tables
_ONE, _MINUS_ONE = RINGS[Theory.BAR_NATAN].one, RINGS[Theory.BAR_NATAN].negated.one


class Generator(NamedTuple):
    """A cube vertex (bitmask) with a labeling of its circles."""

    mask: int
    labels: tuple[int, ...]

    def __str__(self) -> str:
        lab = "(x)".join(LABEL_NAMES[l] for l in self.labels) or "1"
        return f"[{self.mask:b}|{lab}]"


class CheckReport(NamedTuple):
    ok: bool
    detail: str = ""


class CubeComplex:
    """The theory's cube of modules on a diagram; `circles` resolves on first use."""

    def __init__(
        self,
        diagram: LinkDiagram,
        theory: Theory = Theory.KHOVANOV,
        cap: int = DEFAULT_CAP,
    ):
        if not isinstance(theory, Theory):
            raise TheoryError(f"unknown theory {theory!r}")
        if diagram.n > cap:
            raise CapExceededError(
                f"diagram has {diagram.n} crossings, cap is {cap}"
            )
        self.diagram = diagram
        self.theory = theory
        self.ring = _RINGS[theory]
        self.n = diagram.n
        self.n_plus = diagram.n_plus
        self.n_minus = diagram.n_minus
        self._resolutions = diagram.resolutions
        self._edges: dict[tuple[int, int], tuple] = {}  # (target mask, table, target labellings)

    # -- structure ---------------------------------------------------------

    def edge_row(self, mask: int, j: int) -> tuple[int, tuple[int, int, int, int, int], int]:
        """The edge flipping crossing j at `mask`: (target mask, edge key, sign), kept nowhere."""
        if not (0 <= j < self.n and 0 <= mask < 1 << self.n):
            raise KhovalError(f"edge ({mask}, {j}) is not on the cube of {self.n} crossings")
        if (mask >> j) & 1:
            raise KhovalError("edge must start at a 0-bit")
        tgt = mask | (1 << j)
        key = edge_key(self.diagram, mask, j, self.circles(mask), self.circles(tgt))
        return tgt, key, self.edge_sign(mask, j)

    def _edge_image(self, mask: int, j: int, x: int) -> list:
        """The image [(generator, coeff)] along the edge flipping crossing j of the labelling
        of `mask` of index x, read in the edge's table (over the `negated` ring for sign -1);
        the edge's target, table and target labellings are kept on the cube (`_edges`)."""
        if (edge := self._edges.get((mask, j))) is None:
            tgt, key, sign = self.edge_row(mask, j)
            table = label_table(self.ring if sign == 1 else self.ring.negated, key)
            targets = _labellings(key[0] - 1 if key[1] != key[2] else key[0] + 1)
            edge = self._edges[mask, j] = tgt, table, targets
        tgt, table, targets = edge
        new = tuple.__new__
        return [(new(Generator, (tgt, targets[t])), v) for t, v in table[x]]

    def edge_sign(self, mask: int, j: int) -> int:
        """(-1)^(sum of vertex coordinates after position j)."""
        return -1 if (mask >> (j + 1)).bit_count() & 1 else 1

    def circles(self, mask: int) -> ResolvedDiagram:
        """The resolution at a vertex, computed on first use and kept on the diagram."""
        res = self._resolutions.get(mask)
        if res is None:
            res = self._resolutions[mask] = resolve(self.diagram, mask)
        return res

    # -- generators and degrees ---------------------------------------------

    def generators_at(self, mask: int) -> Iterator[Generator]:
        k, new = self.circles(mask).count, tuple.__new__
        for labels in map(_labellings(k).__getitem__, range(1 << k)):  # itertools.product order
            yield new(Generator, (mask, labels))

    def generators(self) -> Iterator[Generator]:
        for mask in range(1 << self.n):
            yield from self.generators_at(mask)

    def check_generator(self, g: Generator) -> None:
        """Refuse a generator whose labels are not one PLUS or MINUS per circle of its vertex."""
        mask, labels = g
        if len(labels) != self.circles(mask).count or not _LABEL_SET.issuperset(labels):
            raise KhovalError("generator does not live on this cube")

    def vertex(self, mask: int) -> tuple[int, int, int]:
        """(i, q of the all-v+ labelling, circle count k) of a vertex: the cube's one grading."""
        i, k = mask.bit_count() - self.n_minus, self.circles(mask).count
        return i, k + i + self.n_plus - self.n_minus, k

    def degrees(self, g: Generator) -> tuple[int, int]:
        """(cohomological degree, q-degree) of a generator: m v- labels lower q by 2m."""
        self.check_generator(g)
        i, top, _ = self.vertex(g.mask)
        return i, top - 2 * sum(g.labels)

    def element(self, terms: dict[Generator, TPoly] | None = None) -> "CochainElement":
        """An element with the given Z[t] coefficients, reduced into the cube's ring."""
        terms = terms or {}
        for g in terms:
            self.check_generator(g)
        return CochainElement(self, _nonzero({g: self._coefficient(p) for g, p in terms.items()}))

    def _coefficient(self, p: TPoly | int) -> TPoly | int:
        """A Z[t] coefficient or an integer in the cube's ring; for Lee, its `int` at t = 1."""
        if self.theory is Theory.LEE:
            return p if isinstance(p, int) else p.specialize(1)
        return self.theory.reduce(TPoly(p) if isinstance(p, int) else p)

    def basis_element(self, g: Generator) -> "CochainElement":
        self.check_generator(g)
        return CochainElement(self, {g: self.ring.one})

    # -- differential --------------------------------------------------------

    def differential_of(self, g: Generator) -> "CochainElement":
        """d(g): the terms of its edges, summed."""
        self.check_generator(g)
        return CochainElement(self, apply_linear(self._differential(g)))

    def _differential(self, g: Generator) -> list:
        """The differential's op: a fitting generator's edge terms, in crossing order."""
        mask, labels = g
        x = _INDEX[labels]
        return [term for j in range(self.n) if not (mask >> j) & 1
                for term in self._edge_image(mask, j, x)]

    def differential(self, x: "CochainElement") -> "CochainElement":
        if x.cube is not self:
            raise KhovalError("cochain element lives on a different cube")
        return CochainElement(self, apply_linear(x.terms.items(), self._differential))


class CochainElement:
    """A sparse Z[t]-combination of generators on one cube."""

    __slots__ = ("cube", "terms")

    def __init__(self, cube: CubeComplex, terms: dict[Generator, TPoly]):
        """`terms` holds no zero coefficient: `apply_linear` drops them."""
        self.cube = cube
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CochainElement") -> "CochainElement":
        if other.cube is not self.cube:
            raise KhovalError("cannot add elements on different cubes")
        return CochainElement(self.cube, apply_linear([*self.terms.items(), *other.terms.items()]))

    def __sub__(self, other: "CochainElement") -> "CochainElement":
        return self + other.scale(-1)

    def scale(self, factor: TPoly | int) -> "CochainElement":
        """The element times a Z[t] factor, reduced into the cube's ring."""
        factor = self.cube._coefficient(factor)
        return CochainElement(self.cube, _nonzero({g: p * factor for g, p in self.terms.items()}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CochainElement):
            return NotImplemented
        return self.cube is other.cube and self.terms == other.terms

    def degree(self) -> tuple[int, int]:
        """The common (i, q) of all terms; error if inhomogeneous or zero.

        A coefficient monomial t^k contributes -4k to the q-degree; an `int`
        coefficient is t^0.
        """
        degs = set()
        for g, poly in self.terms.items():
            i, q = self.cube.degrees(g)
            for exp, _ in ((0, poly),) if isinstance(poly, int) else poly.items():
                degs.add((i, q - 4 * exp))
        if len(degs) != 1:
            raise KhovalError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for g in sorted(self.terms, key=lambda g: (g.mask, g.labels)):
            bits.append(f"({self.terms[g]})*{g}")
        return " + ".join(bits)


# -- the differential's label tables ---------------------------------------------


class _Labellings(dict):
    """The labellings of k circles by index in `itertools.product` order (`_labellings(k)`),
    each made on first read: index x's labels are its k binary digits, circle 0 the most
    significant, so a vertex of many circles costs only the labellings its maps reach."""

    def __init__(self, k: int):
        self.k = k

    def __missing__(self, x: int) -> tuple[int, ...]:
        labels = self[x] = tuple([x >> b & 1 for b in range(self.k - 1, -1, -1)])
        return labels


class _Index(dict):
    """Each labelling read so far -> its index in `itertools.product` order, the inverse
    of `_Labellings`; read only with labels that fit their vertex (`check_generator`)."""

    def __missing__(self, labels: tuple[int, ...]) -> int:
        x = 0
        for label in labels:
            x = x << 1 | label
        self[labels] = x
        return x


_labellings, _INDEX = functools.cache(_Labellings), _Index()


_TABLES: dict[tuple, tuple] = {}  # (ring, edge key) -> its label table, for the process


def label_table(ring: Ring, key: tuple[int, int, int, int, int]) -> tuple:
    """An edge key's label table over a ring, kept for the process (`_TABLES`): source
    index -> ((target index, coeff), ...), a tuple, as every reader shares it.

    `key` is (k, s1, s2, t1, t2) (`diagram.edge_key`); circle c of m is bit
    m - 1 - c of an index.  A merge reads the bits of s1 < s2 and writes
    their product at t1, a split reads s1 and writes its coproduct at t1 <
    t2; the other bits keep their order.  Per source index x, `index[x]` is
    its other bits moved and `code[x]` its read bits' entry in `outs`, and
    its row is written out as the literal of that entry's zero, one or two
    terms; a ring entry of more terms is refused with `KhovalError`, and
    nothing is kept.  A table is keyed by the ring object, so Khovanov, Lee
    and each ring's `negated` twin have tables of their own.
    """
    if (table := _TABLES.get((ring, key))) is not None:
        return table
    k, s1, s2, t1, t2 = key
    count = k - 1 if s1 != s2 else k + 1
    p1, p2 = count - 1 - t1, count - 1 - t2
    if s1 != s2:  # outs[2 * label of s1 + label of s2]
        outs = [[(l << p1, v) for l, v in ring.multiply[a][b].items()]
                for a in LABELS for b in LABELS]
    else:  # outs[label of s1]
        outs = [[(a << p1 | b << p2, v) for (a, b), v in ring.comultiply[x].items()]
                for x in LABELS]
    if any(len(out) > 2 for out in outs):
        raise KhovalError("a label table's ring entry has more than two terms")
    read = {k - 1 - s1: 2, k - 1 - s2: 1}  # a split's one bit has weight 1
    moved = iter([1 << b for b in range(count) if b != p1 and b != p2])
    index, code = [0], [0]
    for b in range(k):
        m, w = (0, read[b]) if b in read else (next(moved), 0)
        index, code = index + [x | m for x in index], code + [c + w for c in code]
    rows = []
    append = rows.append
    for x, c in zip(index, code):
        out = outs[c]
        if not out:
            append(())
        elif len(out) == 1:
            (o1, v1), = out
            append(((x | o1, v1),))
        else:
            (o1, v1), (o2, v2) = out
            append(((x | o1, v1), (x | o2, v2)))
    table = _TABLES[ring, key] = tuple(rows)
    return table


# A cup gives its new circle v+ and a dotted cup X.v+ = v-.  A cap weighs
# eps(l) and a dotted cap eps(X.l); in every theory each is 1 on one label and
# 0 on the other, so a death keeps the terms whose dying circle has that label.
CUP, DOTTED_CUP = PLUS, MINUS
CAP, DOTTED_CAP = MINUS, PLUS  # eps(v-) = eps(X.v+) = 1, eps(v+) = eps(X.v-) = 0


class Piece:
    """One signed dotted cobordism from a source vertex to the vertex `mask`.

    Circles move along `plan`; `births` labels its new target circles (CUP or
    DOTTED_CUP), `deaths` gives each dead source circle the label it keeps
    (CAP or DOTTED_CAP), and `dots` lists the target circles multiplied by X.
    `action` is its label action (`_label_action`), compiled when it is made.
    """

    __slots__ = ("mask", "sign", "plan", "births", "deaths", "dots", "action")

    def __init__(
        self,
        mask: int,
        sign: int,
        plan: Transfer,
        births: dict[int, int] | None = None,
        deaths: dict[int, int] | None = None,
        dots: tuple[int, ...] = (),
    ):
        if plan.dead and not set(plan.dead) <= (deaths or {}).keys():
            raise KhovalError("a circle vanished without a death rule")
        if plan.new and not set(plan.new) <= (births or {}).keys():
            raise KhovalError("circle transfer left target circles unlabeled")
        self.mask, self.sign, self.plan = mask, sign, plan
        self.births, self.deaths, self.dots = births, deaths, dots
        self.action = _label_action(self)


_BOTH = (PLUS, MINUS)  # appended to a labeling, so an index can read a birth's label


def _label_action(p: Piece) -> tuple:
    """A piece's label action on labelings of its k source circles: (dead, kept, i, j, getter).

    A labeling goes on when `dead(labels) == kept` (dead None: no death).
    The target labeling is `getter(labels + (PLUS, MINUS) + result)`: a
    copied circle reads its source's index, a new circle its birth label at
    k or k + 1, and a merged or split circle the result of the merge (read
    at source circles i and j in `ring.multiply`) or split (circle i, j None,
    in `ring.comultiply`) at k + 2 on; with neither, i is None and there is
    no result.  The plan gives k: its copied and dead circles, and two more
    for a merge or one for a split.
    """
    plan = p.plan
    k = len(plan.copies) + len(plan.dead) + (2 if plan.merge else 1 if plan.split else 0)
    index = [0] * plan.count
    for s, t in plan.copies:
        index[t] = s
    for t in plan.new:
        index[t] = k + p.births[t]
    i = j = None
    if plan.merge is not None:
        (i, j), t = plan.merge
        index[t] = k + 2
    elif plan.split is not None:
        i, (t1, t2) = plan.split
        index[t1], index[t2] = k + 2, k + 3
    if len(index) > 1:
        getter = itemgetter(*index)
    else:  # an itemgetter of one index reads no tuple: a slice does
        getter = itemgetter(slice(index[0], index[0] + 1) if index else slice(0))
    dead = itemgetter(*p.deaths) if p.deaths else None
    return dead, dead and dead(p.deaths), i, j, getter


def apply_pieces(cube: CubeComplex, pieces, labels: tuple[int, ...]) -> list:
    """The terms of the labels of a source vertex under the sum of its pieces, in `cube.ring`.

    Each piece reads the label action compiled when it was made
    (`_label_action`), and one of sign -1 reads the ring's `negated` tables,
    so no coefficient is negated here.  Each term's `Generator` is made by
    `tuple.__new__`.
    """
    out = []
    ring, new, padded = cube.ring, tuple.__new__, labels + _BOTH
    for p in pieces:
        dead, kept, i, j, getter = p.action
        if dead is not None and dead(labels) != kept:
            continue
        signed = ring if p.sign == 1 else ring.negated
        if i is None:
            terms = ((getter(padded), signed.one),)
        elif j is None:
            terms = [(getter(padded + pair), poly)
                     for pair, poly in signed.comultiply[labels[i]].items()]
        else:
            terms = [(getter(padded + (label,)), poly)
                     for label, poly in signed.multiply[labels[i]][labels[j]].items()]
        for c in p.dots:  # X acts by multiplication with v-
            terms = [(lbls[:c] + (x,) + lbls[c + 1:], _times(poly, extra)) for lbls, poly in terms
                     for x, extra in ring.multiply[lbls[c]][MINUS].items()]
        mask = p.mask
        out += [(new(Generator, (mask, lbls)), poly) for lbls, poly in terms]
    return out


def _apply_table(cube: CubeComplex, table: dict, vertex, terms) -> dict[Generator, TPoly]:
    """Terms [(generator, coeff)] carried through the pieces `vertex(mask)` and summed
    as they come, in `cube.ring`: `apply_linear` of `_piece_op`'s op, in one pass.

    Each mask's pieces are computed once into `table`, as `_piece_op` keeps
    them; each piece acts as in `apply_pieces`, each image is scaled as in
    `_carry` and summed in the same order, so the result is the same dict,
    term order included, without an op call, a term list or `_carry` per term.
    """
    acc: dict[Generator, TPoly] = {}
    ring, new, get = cube.ring, tuple.__new__, acc.get
    for (mask, labels), coeff in terms:
        if (pieces := table.get(mask)) is None:
            pieces = table[mask] = vertex(mask)
        unit = coeff is _ONE or coeff.__class__ is int and coeff == 1
        padded = labels + _BOTH
        for p in pieces:
            dead, kept, i, j, getter = p.action
            if dead is not None and dead(labels) != kept:
                continue
            signed = ring if p.sign == 1 else ring.negated
            if i is None:
                images = ((getter(padded), signed.one),)
            elif j is None:
                images = [(getter(padded + pair), poly)
                          for pair, poly in signed.comultiply[labels[i]].items()]
            else:
                images = [(getter(padded + (label,)), poly)
                          for label, poly in signed.multiply[labels[i]][labels[j]].items()]
            for c in p.dots:
                images = [(lbls[:c] + (x,) + lbls[c + 1:], _times(poly, extra))
                          for lbls, poly in images
                          for x, extra in ring.multiply[lbls[c]][MINUS].items()]
            for lbls, poly in images:
                g = new(Generator, (p.mask, lbls))
                if not unit:
                    poly = _times(poly, coeff)
                if (cur := get(g)) is None:
                    acc[g] = poly
                elif total := cur + poly:
                    acc[g] = total
                else:
                    del acc[g]
    return acc


def apply_linear(terms, *ops) -> dict[Generator, TPoly]:
    """Terms [(generator, coeff)] carried through each op in turn (`_carry`), then summed.

    The one place that sums ops' terms (`_apply_table` sums a piece table's
    own): with no op the terms are only summed, dropping each key whose sum is zero.
    """
    acc: dict[Generator, TPoly] = {}
    for g, coeff in _carry(terms, *ops):
        cur = acc.get(g)
        if cur is None:
            acc[g] = coeff
        elif total := cur + coeff:
            acc[g] = total
        else:
            del acc[g]
    return acc


def _carry(terms, *ops) -> list:
    """Terms [(generator, coeff)] carried through each op in turn by its linear extension,
    unsummed: an op made of ops returns these.  A coefficient 1 (the shared `TPoly` by
    identity, an `int` by value) carries an image as it is."""
    for op in ops:
        carried = []
        for g, coeff in terms:
            if coeff is _ONE or coeff.__class__ is int and coeff == 1:
                carried += op(g)
            else:
                carried += [(h, _times(poly, coeff)) for h, poly in op(g)]
        terms = carried
    return terms


def _times(a, b):
    """a * b in one ring.  Over Z[t] most factors are the shared units, tested
    by identity, not by `TPoly.__eq__`: a 1 returns the other factor and two
    -1s make the shared 1, so a sign makes no coefficient.  `int`s (Lee's
    ring) multiply as they are."""
    if a.__class__ is int:
        return a * b
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return _ONE if a is _MINUS_ONE and b is _MINUS_ONE else a * b


def _piece_op(cube: CubeComplex, vertex, entry: dict, key):
    """The op sending a generator through the pieces `vertex(mask)`, in `cube.ring`.

    Each mask's pieces are computed once into the table `entry[key]`, where
    `entry` is kept on the source still, so ops of every theory share it.
    """
    table = entry.setdefault(key, {})

    def op(g: Generator) -> list:
        if (pieces := table.get(g.mask)) is None:
            pieces = table[g.mask] = vertex(g.mask)
        return apply_pieces(cube, pieces, g.labels)

    return op


def _edge_op(cube: CubeComplex, j: int):
    """The op along the differential's edges that flip crossing j."""
    return lambda g: cube._edge_image(g.mask, j, _INDEX[g.labels])


def _bigon_reduction(cube: CubeComplex, inner: set[int], zi: int, wi: int, entry: dict, key):
    """Gaussian elimination of an R2 bigon's two unit edges: (f, g, h).

    The circle slice (zi 1-smoothed, wi 0-smoothed) carries the bigon's
    circle O of `inner` arcs; the edges into and out of it are units on
    O = v- and O = v+.  h inverts both, by a cap on O and by a cup giving
    O = v+ (one piece per vertex, in the table `entry[key]`), and is stored
    with the sign it is applied with, the lemma's -h: each piece carries the
    opposite of its edge's sign, so f, g and the R3 cone apply h as it is and
    negate no image.  f projects onto the through slice (wi 1-smoothed): 1
    there, d h on the circle slice; g includes it back as 1 + h d.  So f g = 1
    and g f = 1 + d h + h d.  Each is an op, and f and g carry h's terms
    unsummed (`_carry`).
    """
    hints = dict.fromkeys(inner)  # the inner arcs die
    arc, z, w = next(iter(inner)), 1 << zi, 1 << wi

    def vertex(mask: int) -> tuple[Piece, ...]:
        if mask & (z | w) == z:  # circle slice -> lower slice: a cap on O
            res = cube.circles(mask)
            plan = transfer(res, cube.circles(mask ^ z), hints)
            sign = -cube.edge_sign(mask ^ z, zi)
            return (Piece(mask ^ z, sign, plan, deaths={res.circle_of[arc]: CAP}),)
        if mask & (z | w) == z | w:  # upper slice -> circle slice: a cup on O
            res = cube.circles(mask ^ w)
            plan = transfer(cube.circles(mask), res, hints)
            sign = -cube.edge_sign(mask ^ w, wi)
            return (Piece(mask ^ w, sign, plan, {res.circle_of[arc]: CUP}),)
        return ()

    h = _piece_op(cube, vertex, entry, key)
    into_through, out_of_through, one = _edge_op(cube, wi), _edge_op(cube, zi), cube.ring.one

    def f(g: Generator) -> list:
        xy = g.mask & (z | w)
        if xy == z:
            return _carry(h(g), into_through)
        return [(g, one)] if xy == w else []

    def g_(t: Generator) -> list:
        return [*_carry(out_of_through(t), h), (t, one)]

    return f, g_, h


def _carry_rule(src: CubeComplex, tgt: CubeComplex, hints: dict, target):
    """The rule `vertex(mask) -> pieces` of a carry: each vertex of `src` goes to the one
    vertex and sign `target(mask)` of `tgt`, its circles carried one to one along the arc
    map `hints`.  A plan with a merge, split, birth or death is refused."""

    def vertex(mask: int) -> tuple[Piece, ...]:
        tgt_mask, sign = target(mask)
        plan = transfer(src.circles(mask), tgt.circles(tgt_mask), hints)
        if plan.merge is not None or plan.split is not None or plan.new or plan.dead:
            raise MoveError("the rewrite changed the circles of a resolution")
        return (Piece(tgt_mask, sign, plan),)

    return vertex


def _nonzero(terms: dict[Generator, TPoly]) -> dict[Generator, TPoly]:
    return {g: p for g, p in terms.items() if p}


def koszul_to_front(mask: int, front: tuple[int, ...], n: int) -> tuple[int, int]:
    """Reorder crossings so `front` comes first; return (new mask, Koszul sign)."""
    order = [*front, *(j for j in range(n) if j not in front)]
    ones = [(p, old) for p, old in enumerate(order) if mask >> old & 1]
    inversions = sum(a > b for (_, a), (_, b) in itertools.combinations(ones, 2))
    return sum(1 << p for p, _ in ones), -1 if inversions & 1 else 1


# -- module-level operation wrappers -------------------------------------------


def build_cube(
    d: LinkDiagram,
    th: Theory = Theory.KHOVANOV,
    cap: int = DEFAULT_CAP,
) -> CubeComplex:
    return CubeComplex(d, th, cap=cap)


def check_d_squared(c: CubeComplex) -> CheckReport:
    """Evaluate d o d on every basis generator; report the first violation."""
    for g in c.generators():
        dd = c.differential(c.differential_of(g))
        if not dd.is_zero():
            return CheckReport(False, f"d(d({g})) = {dd}")
    return CheckReport(True, "d o d = 0 on all basis generators")


def check_faces(c: CubeComplex) -> CheckReport:
    """Check every 2-face: edge signs anticommute and the two signed paths cancel."""

    along = [_edge_op(c, j) for j in range(c.n)]
    for mask in range(1 << c.n):
        free = [j for j in range(c.n) if not (mask >> j) & 1]
        for j, k in itertools.combinations(free, 2):
            sign_jk = c.edge_sign(mask, j) * c.edge_sign(mask | (1 << j), k)
            sign_kj = c.edge_sign(mask, k) * c.edge_sign(mask | (1 << k), j)
            if sign_jk != -sign_kj:
                return CheckReport(
                    False, f"edge signs fail to anticommute at {mask:b},{j},{k}"
                )
            for g in c.generators_at(mask):
                jk, kj = (apply_linear([(g, c.ring.one)], along[a], along[b])
                          for a, b in ((j, k), (k, j)))
                if jk != {h: -p for h, p in kj.items()}:
                    return CheckReport(
                        False,
                        f"face at vertex {mask:b}, crossings {j},{k} does not "
                        f"anticommute on {g}",
                    )
    return CheckReport(True, "all 2-faces anticommute")
