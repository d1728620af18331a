"""The cube of modules: cochain groups, gradings, and the signed differential.

Vertices of the cube are bitmasks (bit j = smoothing of crossing j), resolved
on first use and kept on the diagram (`LinkDiagram.resolutions`), as are the
edge pieces (`LinkDiagram.edges`), so cubes of every theory on one still
share them and a movie pays only for the vertices its element reaches.  A
generator is a vertex together with one int label (PLUS = 0 for v+, MINUS =
1 for v-) per circle of its resolution, circles being listed in canonical
order (increasing smallest arc id).

A linear map on a cube is an op: a function from a generator to its summed
image {generator: coeff}, with no zero coefficient.  Most ops are sums of
`Piece`s, signed dotted cobordisms that carry labels along a circle-transfer
plan with `transfer_labels`; `apply_pieces` applies them and `_piece_op`
makes the op of a table `vertex(mask) -> pieces`, computed once per vertex
into a table kept on the source still (`cobordism` keys it by event in
`LinkDiagram.maps`), so ops of every theory between the same stills build
it once.  The differential is a sum of edge pieces: the edge flipping
crossing j at a vertex is a saddle piece (its plan, one merge or one split,
memoized by its `diagram.edge_key`: four circle ids of crossing j's arcs at
both ends) with the sign (-1)^(number of 1-bits after the flipped position),
which makes every square face anticommute; `_edge_op` is the op along the
edges of one crossing.  The movie chain maps add births, deaths and dots.
`apply_linear` carries terms through ops in turn and sums them once at the
end; `cobordism.ChainMapRep` composes a chain map's ops with it.
`_bigon_reduction` is Bar-Natan's Gaussian elimination lemma
(math/0606318) on an R2 bigon's two unit edges, read off the cube's own
edges: the R2 maps in `cobordism` and the R3 cone in `r3` are built from it.

Coefficients are kept in the cube's ring, `CubeComplex.ring =
algebra.RINGS[theory]`: its structure tables are already reduced, and t -> 0
and t -> 1 are ring maps, so sums and products of their entries stay
reduced.  A caller's coefficient is reduced where it enters, in
`CubeComplex.element` and `CochainElement.scale`.  `apply_pieces` reads the
cube's ring; `transfer_labels` takes the ring, not the theory.  `homology`
builds no piece: it reads each edge's `diagram.edge_key` and carries labels
by bit arithmetic over `algebra.INT_RINGS`.

Cohomological degree of a generator is |v| - n_minus; its q-degree is the sum
of label degrees (1 - 2*l for label l) plus (|v| - n_minus) + (n_plus -
n_minus), and a coefficient t^k lowers q by 4k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .algebra import LABEL_NAMES, LABELS, MINUS, PLUS, RINGS, Ring, TPoly, Theory
from .diagram import LinkDiagram, ResolvedDiagram, Transfer, _edge_plan, edge_key, resolve, transfer
from .errors import CapExceededError, KhovalError, TheoryError

__all__ = [
    "Generator",
    "CochainElement",
    "CubeComplex",
    "CheckReport",
    "transfer_labels",
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


class Generator(NamedTuple):
    """A cube vertex (bitmask) with a labeling of its circles."""

    mask: int
    labels: tuple[int, ...]

    def __str__(self) -> str:
        lab = "(x)".join(LABEL_NAMES[l] for l in self.labels) or "1"
        return f"[{self.mask:b}|{lab}]"


@dataclass(frozen=True)
class CheckReport:
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
        self.ring = RINGS[theory]
        self.n = diagram.n
        self.n_plus = diagram.n_plus
        self.n_minus = diagram.n_minus
        self._resolutions = diagram.resolutions

    # -- structure ---------------------------------------------------------

    def edge(self, mask: int, j: int) -> "Piece":
        """The signed saddle piece of the differential flipping crossing j at `mask`,
        built on first use and kept on the diagram."""
        edges, key = self.diagram.edges, (mask, j)
        piece = edges.get(key)
        if piece is None:
            if not (0 <= j < self.n and 0 <= mask < 1 << self.n):
                raise KhovalError(f"edge ({mask}, {j}) is not on the cube of {self.n} crossings")
            if (mask >> j) & 1:
                raise KhovalError("edge must start at a 0-bit")
            tgt, crossing = mask | (1 << j), self.diagram.crossings[j]
            plan = _edge_plan(*edge_key(self.circles(mask), self.circles(tgt), crossing, mask))
            piece = edges[key] = Piece(tgt, self.edge_sign(mask, j), plan)
        return piece

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
        k = self.circles(mask).count
        for labels in itertools.product(LABELS, repeat=k):
            yield Generator(mask, labels)

    def generators(self) -> Iterator[Generator]:
        for mask in range(1 << self.n):
            yield from self.generators_at(mask)

    def degrees(self, g: Generator) -> tuple[int, int]:
        """(cohomological degree, q-degree) of a generator."""
        k = len(g.labels)
        if k != self.circles(g.mask).count:
            raise KhovalError("generator does not live on this cube")
        i = g.mask.bit_count() - self.n_minus
        q = k - 2 * sum(g.labels) + i + (self.n_plus - self.n_minus)
        return i, q

    def element(self, terms: dict[Generator, TPoly] | None = None) -> "CochainElement":
        """An element with the given Z[t] coefficients, reduced into the theory."""
        reduce = self.theory.reduce
        return CochainElement(self, _nonzero({g: reduce(p) for g, p in (terms or {}).items()}))

    def basis_element(self, g: Generator) -> "CochainElement":
        return CochainElement(self, {g: TPoly(1)})

    # -- differential --------------------------------------------------------

    def differential_of(self, g: Generator) -> "CochainElement":
        mask = g.mask
        edges = [self.edge(mask, j) for j in range(self.n) if not (mask >> j) & 1]
        return CochainElement(self, apply_pieces(self, edges, g.labels))

    def differential(self, x: "CochainElement") -> "CochainElement":
        if x.cube is not self:
            raise KhovalError("cochain element lives on a different cube")
        return CochainElement(
            self, apply_linear(x.terms.items(), lambda g: self.differential_of(g).terms)
        )


class CochainElement:
    """A sparse Z[t]-combination of generators on one cube."""

    __slots__ = ("cube", "terms")

    def __init__(self, cube: CubeComplex, terms: dict[Generator, TPoly]):
        """`terms` holds no zero coefficient: sums drop them in `_accumulate`."""
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
        """The element times a Z[t] factor, reduced into the cube's theory."""
        if isinstance(factor, int):
            factor = TPoly(factor)
        factor = self.cube.theory.reduce(factor)
        return CochainElement(self.cube, _nonzero({g: p * factor for g, p in self.terms.items()}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CochainElement):
            return NotImplemented
        return self.cube is other.cube and self.terms == other.terms

    def degree(self) -> tuple[int, int]:
        """The common (i, q) of all terms; error if inhomogeneous or zero.

        A coefficient monomial t^k contributes -4k to the q-degree.
        """
        degs = set()
        for g, poly in self.terms.items():
            i, q = self.cube.degrees(g)
            for exp, _ in poly.items():
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


_ONE = TPoly(1)


def transfer_labels(
    plan: Transfer,
    labels: tuple[int, ...],
    ring: Ring,
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
    """

    __slots__ = ("mask", "sign", "plan", "births", "deaths", "dots")

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
        self.mask, self.sign, self.plan = mask, sign, plan
        self.births, self.deaths, self.dots = births, deaths, dots


def apply_pieces(cube: CubeComplex, pieces, labels: tuple[int, ...]) -> dict[Generator, TPoly]:
    """The image of the labels of a source vertex under the sum of its pieces, in `cube.ring`."""
    acc: dict[Generator, TPoly] = {}
    for p in pieces:
        if p.deaths and any(labels[s] != keep for s, keep in p.deaths.items()):
            continue
        terms = transfer_labels(p.plan, labels, cube.ring, p.births)
        for c in p.dots:  # X acts by multiplication with v-
            terms = [(lbls[:c] + (x,) + lbls[c + 1:], _times(poly, extra)) for lbls, poly in terms
                     for x, extra in cube.ring.multiply[lbls[c]][MINUS].items()]
        for lbls, poly in terms:
            _accumulate(acc, Generator(p.mask, lbls), poly if p.sign == 1 else -poly)
    return acc


def apply_linear(terms, *ops) -> dict[Generator, TPoly]:
    """Terms [(generator, coeff)] carried through each op in turn, then summed.

    An op maps a generator to its image {generator: coeff} and acts by its
    linear extension; with no op the terms are only summed.
    """
    for op in ops:
        carried = []
        for g, coeff in terms:
            image = op(g).items()
            carried.extend(image if coeff == 1 else [(h, _times(poly, coeff)) for h, poly in image])
        terms = carried
    acc: dict[Generator, TPoly] = {}
    for g, coeff in terms:
        _accumulate(acc, g, coeff)
    return acc


def _times(a, b):
    """a * b; most factors are 1, whose products cost more than the test."""
    return b if a == 1 else a if b == 1 else a * b


def _piece_op(cube: CubeComplex, vertex, entry: dict, key):
    """The op sending a generator through the pieces `vertex(mask)`, in `cube.ring`.

    Each mask's pieces are computed once into the table `entry[key]`, where
    `entry` is kept on the source still, so ops of every theory share it.
    """
    table = entry.setdefault(key, {})

    def op(g: Generator) -> dict[Generator, TPoly]:
        if (pieces := table.get(g.mask)) is None:
            pieces = table[g.mask] = vertex(g.mask)
        return apply_pieces(cube, pieces, g.labels)

    return op


def _edge_op(cube: CubeComplex, j: int):
    """The op along the differential's edges that flip crossing j."""
    return lambda g: apply_pieces(cube, (cube.edge(g.mask, j),), g.labels)


def _negated(terms: dict) -> list:
    return [(g, -p) for g, p in terms.items()]


def _bigon_reduction(cube: CubeComplex, inner: set[int], zi: int, wi: int, entry: dict, key):
    """Gaussian elimination of an R2 bigon's two unit edges: (f, g, h).

    The circle slice (zi 1-smoothed, wi 0-smoothed) carries the bigon's
    circle O of `inner` arcs; the edges into and out of it are units on
    O = v- and O = v+.  h inverts both with their signs, by a cap on O and
    by a cup giving O = v+ (one piece per vertex, in the table `entry[key]`);
    f projects onto the through slice (wi 1-smoothed), g includes it back:
    f g = 1 and 1 - g f = d h + h d.  Each is an op.
    """
    hints = {a: () for a in inner}
    arc, z, w = next(iter(inner)), 1 << zi, 1 << wi

    def vertex(mask: int) -> tuple[Piece, ...]:
        if mask & (z | w) == z:  # circle slice -> lower slice: a cap on O
            res = cube.circles(mask)
            plan = transfer(res, cube.circles(mask ^ z), hints)
            sign = cube.edge_sign(mask ^ z, zi)
            return (Piece(mask ^ z, sign, plan, deaths={res.circle_of[arc]: CAP}),)
        if mask & (z | w) == z | w:  # upper slice -> circle slice: a cup on O
            res = cube.circles(mask ^ w)
            plan = transfer(cube.circles(mask), res, hints)
            sign = cube.edge_sign(mask ^ w, wi)
            return (Piece(mask ^ w, sign, plan, {res.circle_of[arc]: CUP}),)
        return ()

    h = _piece_op(cube, vertex, entry, key)
    into_through, out_of_through = _edge_op(cube, wi), _edge_op(cube, zi)

    def f(g: Generator):
        xy = g.mask & (z | w)
        if xy == z:
            return apply_linear(_negated(h(g)), into_through)
        return {g: _ONE} if xy == w else {}

    def g_(t: Generator):
        image = apply_linear(_negated(out_of_through(t)), h)
        image[t] = _ONE  # t is on the through slice, the rest on the circle slice
        return image

    return f, g_, h


def _nonzero(terms: dict[Generator, TPoly]) -> dict[Generator, TPoly]:
    return {g: p for g, p in terms.items() if p}


def _accumulate(acc: dict, key, poly: TPoly | int) -> None:
    """acc[key] += poly, dropping the key when the sum is zero."""
    cur = acc.get(key)
    total = poly if cur is None else cur + poly
    if not total:
        acc.pop(key, None)
    else:
        acc[key] = total


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
                jk, kj = (apply_linear([(g, _ONE)], along[a], along[b]) for a, b in ((j, k), (k, j)))
                if jk != {h: -p for h, p in kj.items()}:
                    return CheckReport(
                        False,
                        f"face at vertex {mask:b}, crossings {j},{k} does not "
                        f"anticommute on {g}",
                    )
    return CheckReport(True, "all 2-faces anticommute")
