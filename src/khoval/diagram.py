"""Oriented link diagrams in PD notation, their resolutions, and circle tracing.

A diagram is a list of crossings plus a list of crossing-free loops.  Each
crossing is a 4-tuple of arc ids in PD convention: slot 0 holds the incoming
under-strand, slots 1..3 follow counterclockwise.  Crossing-free circles
cannot be expressed by crossings, so they are stored as cyclic tuples of
synthetic arc ids (at least one arc each); this makes them addressable by
saddle and death events.

A dart is a crossing slot, numbered 4 * crossing index + slot, and
`LinkDiagram.far` maps each dart to the other dart of its arc.  Strands,
faces and the circles of a resolution are orbits of one rule, "go to the far
end of the arc, then turn at that crossing": a strand turns to slot s ^ 2
(walked by the constructor) and a face to slot s + 1 (`_orbit`), a circle
to slot s ^ 3 at a 0-smoothed and s ^ 1 at a 1-smoothed crossing
(`resolve`, by the mask bit itself).  A resolution is the circle id of each dart (`ResolvedDiagram.darts`): the
cube's differential reads a crossing's four ids from it (`edge_key`), and the
one arc view that circle transfers read, each arc's circle (`circle_of`), is
derived from it when first asked.

Orientation is not stored in the code: the constructor walks every strand
once.  Slot 0 is always entered, so walking out of every slot 2 orients each
strand that passes under somewhere; a strand that only passes over is walked
last, entering the last of its crossings (in crossing order) by slot 1.  The
walk records each crossing arc's tail and head dart (`LinkDiagram.ends`),
which the face table and the moves read.  The crossing sign is +1 exactly
when the over-strand enters at slot 1.  With this convention the standard
right-trefoil code ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)`` has three positive
crossings.

Smoothings: the 0-smoothing of a crossing joins slots (0,3) and (1,2) --- the
orientation-respecting smoothing at a positive crossing --- and the
1-smoothing joins (0,1) and (2,3).

Faces are data: `LinkDiagram.faces()` gives every arc its right face, its
left face and its connected piece.  `parse_pd` refuses a code whose n
crossings in p pieces do not have n + 2p faces (Euler's formula), and the
saddle, R2 and R3 moves read their planarity rules from the same table.

A diagram also keeps what is computed from it and not from a theory: the
arc-ordered starts of its resolution walks, its resolutions and, per
event, the structure of the chain maps read from it (`LinkDiagram`), so
cubes, homology and maps of every theory on one still build each once.  An
edge's row is derived again where it is read (`CubeComplex.edge_row`); its
label table depends only on the ring and `edge_key`, not on the still, and
is kept once per process (`cube.label_table`).
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import KhovalError, MoveError, OrientationError, ParseError

__all__ = [
    "Crossing",
    "Faces",
    "LinkDiagram",
    "ResolvedDiagram",
    "Transfer",
    "parse_pd",
    "serialize_pd",
    "resolve",
    "transfer",
    "edge_key",
]

# SMOOTHING_PARTNER[bit][s]: the slot that smoothing `bit` joins to slot s.
SMOOTHING_PARTNER = ((3, 2, 1, 0), (1, 0, 3, 2))


class Crossing(NamedTuple):
    """A PD crossing: id, four arc ids (slot 0 = incoming under), and sign."""

    cid: int
    arcs: tuple[int, int, int, int]
    sign: int


class LinkDiagram:
    """An oriented link diagram: crossings plus crossing-free loops.

    Construction is one pass over the crossings, then one walk of every
    strand; signs are always derived, never trusted from the caller.  The
    pass checks every id (one that is not an `int`, a bool included, is a
    `ParseError`), pairs the darts of each arc and fills the tables that the
    rewrites read in place of scanning the still: the largest arc and
    crossing ids, and where each crossing id and loop arc is
    (`crossing_by_id`, `loop_of_arc`).  `far[x]` is the other dart of dart
    x's arc (darts 4 * crossing index + slot).  `ends[arc]` is a crossing
    arc's (tail, head) darts, each a (crossing index, slot): the arc leaves
    its tail and enters its head.  Two dicts keep what cubes and
    chain maps of every theory read again, filled on demand: `resolutions`
    maps each vertex mask resolved so far to its `ResolvedDiagram`
    (`CubeComplex.circles`), and `maps`, keyed by event, what the chain maps
    read from this still build: the rewrite and the piece tables
    (`cobordism`).  Edge label tables are kept per process, not per still.
    """

    __slots__ = ("crossings", "loops", "n_plus", "n_minus", "far", "ends", "resolutions",
                 "maps", "_max_arc", "_max_cid", "_position", "_loop_of", "_faces", "_starts")

    def __init__(self, crossings: Iterable[tuple[int, Sequence[int]]] = (),
                 loops: Iterable[Sequence[int]] = ()):
        position: dict[int, int] = {}  # crossing id -> position, in crossing order
        first: dict[int, int] = {}  # crossing arc -> its first dart
        arcs_of, flat, far = [], [], []  # flat[x] is dart x's arc
        for cid, arcs in crossings:
            if type(cid) is not int:
                raise ParseError(f"crossing id {cid!r} is not an integer")
            arcs = tuple(arcs)
            if len(arcs) != 4:
                raise ParseError(f"crossing {cid} does not have 4 arcs")
            if cid in position:
                raise ParseError(f"duplicate crossing id {cid}")
            position[cid] = len(arcs_of)
            arcs_of.append(arcs)
            for a in arcs:
                if type(a) is not int or a < 1:
                    raise ParseError(f"arc id {a!r} is not a positive integer")
                x = len(far)
                y = first.setdefault(a, x)
                far.append(y)  # a first end is its own far end until the second comes
                if y != x:  # a third end spoils the pair, and the count below refuses it
                    far[y] = x if far[y] == y else -1
            flat += arcs
        if 2 * len(first) != len(far) or -1 in far:
            a = next(a for a in first if flat.count(a) != 2)
            raise ParseError(f"arc {a} appears {flat.count(a)} times (expected 2)")
        loop_of: dict[int, int] = {}  # loop arc -> its loop's index
        self.loops: tuple[tuple[int, ...], ...] = tuple(map(tuple, loops))
        for k, lp in enumerate(self.loops):
            if not lp:
                raise ParseError("empty loop")
            for a in lp:
                if type(a) is not int or a < 1:
                    raise ParseError(f"arc id {a!r} is not a positive integer")
                if a in first or a in loop_of:
                    raise ParseError(f"loop arc {a} reused")
                loop_of[a] = k
        # every strand walked once, as the module docstring orders the walks:
        # it leaves dart x, enters far[x] and leaves again by far[x] ^ 2; not
        # `_orbit`, whose turn table and dart list made the constructor 10 % slower
        signs, ends = [0] * len(arcs_of), {}
        for start in [*range(2, len(far), 4), *range(len(far) - 1, 0, -4)]:
            if flat[start] in ends:
                continue
            x = start
            while True:
                if (t := (y := far[x]) & 3) == 2:
                    raise OrientationError(f"arc {flat[x]} oriented inconsistently: its strand "
                                           f"enters crossing {[*position][y >> 2]} by slot 2")
                ends[flat[x]] = (x >> 2, x & 3), (y >> 2, t)
                if t & 1:
                    signs[y >> 2] = 2 - t  # the over-strand enters by slot 1: +1, by slot 3: -1
                if (x := y ^ 2) == start:
                    break
        self.ends: dict[int, tuple[tuple[int, int], tuple[int, int]]] = ends
        self.crossings: tuple[Crossing, ...] = tuple(
            map(tuple.__new__, repeat(Crossing), zip(position, arcs_of, signs)))
        self.far = far
        self.n_plus = signs.count(1)
        self.n_minus = len(arcs_of) - self.n_plus
        self._position, self._loop_of = position, loop_of
        self._max_arc = max(max(first, default=0), max(loop_of, default=0))
        self._max_cid = max(position, default=0)
        self._faces: Faces | None = None  # built by the first `faces()` call
        self._starts: tuple | None = None  # built by the first `resolve`
        self.resolutions: dict[int, ResolvedDiagram] = {}
        self.maps: dict = {}

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def free_loops(self) -> int:
        return len(self.loops)

    def is_empty(self) -> bool:
        return not self.crossings and not self.loops

    def arc_ids(self) -> frozenset[int]:
        return frozenset([*self.ends, *self._loop_of])

    def max_arc_id(self) -> int:
        return self._max_arc

    def max_crossing_id(self) -> int:
        return self._max_cid

    def crossing_by_id(self, cid: int) -> tuple[int, Crossing]:
        if (idx := self._position.get(cid)) is None:
            raise MoveError(f"no crossing with id {cid}")
        return idx, self.crossings[idx]

    def faces(self) -> Faces:
        """The face table (see `Faces`), built on first request and kept."""
        if self._faces is not None:
            return self._faces
        far = self.far
        # a face is an orbit of "go to the far end of the dart's arc, then to
        # the next slot counterclockwise", named by its first dart
        turn = [x - x % 4 + (x + 1) % 4 for x in range(len(far))]
        face: list[tuple[int, int] | None] = [None] * len(far)
        for start in range(len(far)):
            if face[start] is None:
                name = divmod(start, 4)
                for x in _orbit(far, turn, start):
                    face[x] = name
        # a piece is the crossings reached along arcs, named by its first crossing
        pieces = [-1] * self.n
        for first in range(self.n):
            todo = [first] * (pieces[first] < 0)
            while todo:
                if pieces[i := todo.pop()] < 0:
                    pieces[i] = first
                    todo.extend(x >> 2 for x in far[4 * i:4 * i + 4])
        right, left, piece = {}, {}, {}
        for a, ((i, s), (j, t)) in self.ends.items():
            # the walk from the tail dart runs along the arc with its face on the right
            right[a], left[a], piece[a] = face[4 * i + s], face[4 * j + t], pieces[i]
        for k, lp in enumerate(self.loops):
            for a in lp:
                right[a], left[a], piece[a] = (~k, 0), (~k, 1), ~k
        self._faces = Faces(right, left, piece)
        return self._faces

    def _circle_starts(self) -> tuple[list[int], tuple]:
        """(each dart's arc id, where `resolve` starts its walks), built on first use and kept.

        The starts follow the arc ids up: a dart of each crossing arc, or a
        crossing-free loop as its sorted arcs at its smallest id.  So a
        resolution's circles are met in canonical order, each at its smallest arc.
        """
        if self._starts is None:
            arcs = [a for c in self.crossings for a in c.arcs]
            start = {a: x for x, a in enumerate(arcs)}  # each arc to one of its darts
            for lp in self.loops:
                lp = tuple(sorted(lp))
                start[lp[0]] = lp
            self._starts = arcs, [start[a] for a in sorted(start)]
        return self._starts

    def loop_of_arc(self, arc: int) -> int | None:
        return self._loop_of.get(arc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        # the signs follow from the ids and arcs, so whole crossings can be compared
        return self.crossings == other.crossings and self.loops == other.loops

    def __hash__(self) -> int:
        return hash((self.crossings, self.loops))

    def __repr__(self) -> str:
        return f"LinkDiagram({serialize_pd(self)!r})"


class Faces(NamedTuple):
    """A diagram's faces as data: each arc's right and left face and its piece.

    A face is named by one of its darts (crossing index, slot); the k-th
    crossing-free circle is piece ~k with faces (~k, 0) and (~k, 1).  Arcs of
    two pieces can always meet, as one piece can be drawn inside any face of
    the other.
    """

    right: dict[int, tuple[int, int]]  # arc -> the face on its right, along its orientation
    left: dict[int, tuple[int, int]]  # arc -> the face on its left
    piece: dict[int, int]  # arc -> its connected piece

    def can_band(self, a: int, b: int) -> bool:
        """Whether an oriented band can join arcs a and b: through a face on one side of both."""
        return self.piece[a] != self.piece[b] or (
            self.right[a] == self.right[b] or self.left[a] == self.left[b])

    def can_poke(self, a: int, b: int) -> bool:
        """Whether arc b can poke over arc a: through the face right of a and left of b."""
        return self.piece[a] != self.piece[b] or self.right[a] == self.left[b]


class ResolvedDiagram:
    """A complete resolution: `darts[x]` is the circle through dart x, of `count` circles.

    Circles are numbered in canonical order, by smallest arc id; the cube's
    differential reads only `count` and `darts` (`edge_key`).  `circle_of`
    (arc -> circle), which `transfer` and the movie maps read, is derived on
    first use and kept, in one pass over `starts`:
    `LinkDiagram._circle_starts()`, where a tuple is a whole circle (a
    crossing-free loop) taking the next id; a crossing-free diagram's starts
    are only its loops.
    """

    __slots__ = ("count", "darts", "_starts", "_circle_of")

    def __init__(self, count: int, darts: list[int], starts: tuple):
        self.count, self.darts, self._starts, self._circle_of = count, darts, starts, None

    @property
    def circle_of(self) -> dict[int, int]:
        if self._circle_of is None:
            arcs, starts = self._starts
            darts, circle_of, count = self.darts, {}, 0
            for start in starts:  # they meet the circles in id order
                if type(start) is tuple:
                    circle_of.update(dict.fromkeys(start, count))
                    count += 1
                else:
                    circle_of[arcs[start]] = i = darts[start]
                    count = max(count, i + 1)
            self._circle_of = circle_of
        return self._circle_of

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResolvedDiagram):
            return NotImplemented
        return (self.count, self.darts, self.circle_of) == (other.count, other.darts, other.circle_of)


class Transfer(NamedTuple):
    """How the circles of one resolution become the circles of another.

    `copies` pairs each carried-over source circle with its target circle;
    `merge` is ((s1, s2), t) and `split` is (s, (t1, t2)), at most one of
    them set; `dead` lists the source circles that reach no target circle
    and `new` the target circles that no source circle reaches.  `count` is
    the number of target circles.
    """

    copies: tuple[tuple[int, int], ...]
    merge: tuple[tuple[int, int], int] | None
    split: tuple[int, tuple[int, int]] | None
    dead: tuple[int, ...]
    new: tuple[int, ...]
    count: int


# -- parsing -----------------------------------------------------------------

_X_TOKEN = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)$")
_L_TOKEN = re.compile(r"L(\d+)$")


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD notation: `X(a,b,c,d)` tokens plus `L<k>` loop tokens.

    Each `L<k>` token declares one crossing-free loop (k is a label and must
    be unique).  The empty string is the empty diagram.  A code that cannot
    be drawn in the plane in its slot order is a `ParseError`.
    """
    crossings = []
    loop_labels = []
    for token in text.split():
        m = _X_TOKEN.match(token)
        if m:
            crossings.append(tuple(int(g) for g in m.groups()))
            continue
        m = _L_TOKEN.match(token)
        if m:
            label = int(m.group(1))
            if label in loop_labels:
                raise ParseError(f"duplicate loop token L{label}")
            loop_labels.append(label)
            continue
        raise ParseError(f"malformed token {token!r}")
    raw = [(i + 1, arcs) for i, arcs in enumerate(crossings)]
    next_arc = max((a for _, arcs in raw for a in arcs), default=0) + 1
    loops = []
    for _ in loop_labels:
        loops.append((next_arc, next_arc + 1))
        next_arc += 2
    d = LinkDiagram(raw, loops)
    faces = d.faces()
    count = len({*faces.right.values(), *faces.left.values()})
    if count != d.n + 2 * len(set(faces.piece.values())):
        raise ParseError(f"the PD code is not planar: {count} faces, not n + 2 * pieces")
    return d


def serialize_pd(d: LinkDiagram) -> str:
    """Canonical PD text; loop arc ids are not representable and renumber."""
    parts = [f"X({c.arcs[0]},{c.arcs[1]},{c.arcs[2]},{c.arcs[3]})" for c in d.crossings]
    parts.extend(f"L{i}" for i in range(d.free_loops))
    return " ".join(parts)


# -- orbits of darts -------------------------------------------------------------

def _orbit(far: list[int], turn: list[int], start: int) -> list[int]:
    """The darts from `start` on under "go to the far end of the arc, then turn".

    Each dart is left along its arc; `turn[x]` is the dart that a curve
    arriving at dart x leaves by.  The walk ends back at `start`.
    """
    out = [start]
    while (x := turn[far[out[-1]]]) != start:
        out.append(x)
    return out


# -- resolutions ---------------------------------------------------------------

def resolve(d: LinkDiagram, mask: int) -> ResolvedDiagram:
    """The complete resolution selected by `mask`: the circle id of every dart.

    `mask` is an int with bit j for crossing j.  Each circle through a
    crossing is an orbit that turns from slot s to s ^ 3 at a 0-smoothed and
    s ^ 1 at a 1-smoothed crossing (the rows of `SMOOTHING_PARTNER`), walked
    once from the first of its arcs in `LinkDiagram._circle_starts` and
    writing its id on both darts of each arc; a crossing-free loop takes its
    id where the starts meet it.  So ids come out in canonical order, with
    no arc list built.  Not `_orbit`: a turn table per call costs more at
    2^n calls per cube.  A crossing-free diagram's one vertex takes its
    sorted loops as its starts, with no `_circle_starts` built: a movie of
    births and saddles resolves many such stills once each, and building
    their starts cost the benchmark's movie ops about 3 % (median op time).
    """
    if mask < 0 or mask >> d.n:
        raise KhovalError(f"vertex {mask} is not on the cube of {d.n} crossings")
    if not d.crossings:  # the one vertex, resolved once: its circles are the loops
        loops = tuple(sorted(map(tuple, map(sorted, d.loops))))
        return ResolvedDiagram(len(loops), [], ((), loops))
    far, starts = d.far, d._starts or d._circle_starts()
    darts: list = [None] * len(far)
    count = 0
    for start in starts[1]:
        if type(start) is tuple:  # a crossing-free loop
            count += 1
        elif darts[start] is None:
            x = start
            while darts[x] is None:  # of the darts it leaves by, only start is marked before
                y = far[x]
                darts[x] = darts[y] = count
                x = y ^ 1 if mask >> (y >> 2) & 1 else y ^ 3
            count += 1
    return ResolvedDiagram(count, darts, starts)


def transfer(
    src: ResolvedDiagram,
    tgt: ResolvedDiagram,
    hints: dict[int, int | None] | None = None,
) -> Transfer:
    """The circle-transfer plan from `src` to `tgt`.

    A source circle reaches the target circles that contain its arcs, each
    arc read through `hints`, the rewrite's arc map (arc -> its one image,
    None for an arc that dies; an arc without a hint stands for itself).  A
    target reached from two source circles is a merge, a source reaching two
    targets a split; more than one of these is refused.  The movie maps use
    this general plan; a cube edge is read off four circle ids at the
    flipped crossing instead (`edge_key`).
    """
    circle_of, image = tgt.circle_of, (hints or {}).get
    reached: list[set] = [set() for _ in range(src.count)]
    for a, s in src.circle_of.items():
        reached[s].add(circle_of.get(image(a, a)))
    hits: list[list[int]] = [[] for _ in range(tgt.count)]
    dead = []
    split = None
    for s, targets in enumerate(reached):
        targets.discard(None)
        if not targets:
            dead.append(s)
            continue
        if len(targets) > 2 or (len(targets) == 2 and split is not None):
            raise KhovalError("circle transfer is not a single merge or split")
        if len(targets) == 2:
            split = (s, tuple(sorted(targets)))
        for t in targets:
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


def edge_key(
    d: LinkDiagram, mask: int, j: int, src: ResolvedDiagram, tgt: ResolvedDiagram
) -> tuple[int, int, int, int, int]:
    """The key (src.count, s1, s2, t1, t2) of the cube edge from vertex `mask` that flips crossing j.

    Read off the resolutions' `darts` at 4j + slot.  The 0-smoothing joins
    slots 0-3 and 1-2, so the source circles s1 <= s2 of slots 0 and 1 merge
    when they differ; the 1-smoothing joins 0-1 and 2-3, so the target
    circles t1 <= t2 of slots 0 and 2 split off one source circle when they
    differ.  The edge's label table over a ring (`cube.label_table`) is a
    function of its key; an edge that does neither is a `MoveError`.
    """
    x = 4 * j
    s1, s2, t1, t2 = src.darts[x], src.darts[x + 1], tgt.darts[x], tgt.darts[x + 2]
    if s1 == s2 and t1 == t2:
        raise MoveError(f"crossing {d.crossings[j].cid} at vertex {mask} neither merges two "
                        "circles nor splits one (the PD code is not planar)")
    if s1 > s2:
        s1, s2 = s2, s1
    if t1 > t2:
        t1, t2 = t2, t1
    return src.count, s1, s2, t1, t2
