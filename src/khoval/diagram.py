"""Oriented link diagrams in PD notation, their resolutions, and circle tracing.

A diagram is a list of crossings plus a list of crossing-free loops.  Each
crossing is a 4-tuple of arc ids in PD convention: slot 0 holds the incoming
under-strand, slots 1..3 follow counterclockwise.  Crossing-free circles
cannot be expressed by crossings, so they are stored as cyclic tuples of
synthetic arc ids (at least one arc each); this makes them addressable by
saddle and death events.

Orientation is not stored in the code: the constructor walks every strand
once.  A strand that enters a crossing by slot s leaves it by slot s ^ 2, and
slot 0 is always entered, so walking out of every slot 2 orients each strand
that passes under somewhere; a strand that only passes over is walked last,
entering the last of its crossings (in crossing order) by slot 1.  The walk
records each crossing arc's tail and head dart (`LinkDiagram.ends`), which
the face table and the moves read.  The crossing sign is +1 exactly when the
over-strand enters at slot 1.  With this convention the standard
right-trefoil code ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)`` has three positive
crossings.

Smoothings: the 0-smoothing of a crossing joins slots (0,3) and (1,2) --- the
orientation-respecting smoothing at a positive crossing --- and the
1-smoothing joins (0,1) and (2,3).

Faces are data: `LinkDiagram.faces()` gives every arc its right face, its
left face and its connected piece.  `parse_pd` refuses a code whose n
crossings in p pieces do not have n + 2p faces (Euler's formula), and the
saddle, R2 and R3 moves read their planarity rules from the same table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    "edge_transfer",
]

# Slot pairs joined by each smoothing.
SMOOTHING_JOINS = {
    0: ((0, 3), (1, 2)),
    1: ((0, 1), (2, 3)),
}


@dataclass(frozen=True)
class Crossing:
    """A PD crossing: id, four arc ids (slot 0 = incoming under), and sign."""

    cid: int
    arcs: tuple[int, int, int, int]
    sign: int


class LinkDiagram:
    """An oriented link diagram: crossings plus crossing-free loops.

    Construction validates arc incidences and walks every strand; signs are
    always derived, never trusted from the caller.  `ends[arc]` is a crossing
    arc's (tail, head) darts, each a (crossing index, slot): the arc leaves
    its tail and enters its head.
    """

    __slots__ = ("crossings", "loops", "n_plus", "n_minus", "ends", "_arc_ids", "_faces")

    def __init__(
        self,
        crossings: Iterable[tuple[int, tuple[int, int, int, int]]] = (),
        loops: Iterable[Sequence[int]] = (),
    ):
        raw = [(int(cid), tuple(int(a) for a in arcs)) for cid, arcs in crossings]
        loop_list = tuple(tuple(int(a) for a in lp) for lp in loops)
        darts = self._validate_ids(raw, loop_list)
        signs, self.ends = _walk(raw, darts)
        self.crossings: tuple[Crossing, ...] = tuple(
            Crossing(cid, arcs, signs[idx]) for idx, (cid, arcs) in enumerate(raw)
        )
        self.loops: tuple[tuple[int, ...], ...] = loop_list
        self.n_plus = sum(1 for c in self.crossings if c.sign > 0)
        self.n_minus = len(self.crossings) - self.n_plus
        self._arc_ids = frozenset(darts).union(*loop_list)
        self._faces: Faces | None = None  # built by the first `faces()` call

    @staticmethod
    def _validate_ids(raw, loop_list) -> dict[int, list[tuple[int, int]]]:
        """Check the ids; return each crossing arc's two darts."""
        darts: dict[int, list[tuple[int, int]]] = {}
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
                darts.setdefault(a, []).append((i, s))
        for a, at in darts.items():
            if len(at) != 2:
                raise ParseError(f"arc {a} appears {len(at)} times (expected 2)")
        seen_loop_arcs = set()
        for lp in loop_list:
            if not lp:
                raise ParseError("empty loop")
            for a in lp:
                if a < 1:
                    raise ParseError(f"arc id {a} is not a positive integer")
                if a in darts or a in seen_loop_arcs:
                    raise ParseError(f"loop arc {a} reused")
                seen_loop_arcs.add(a)
        return darts

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
        return self._arc_ids

    def max_arc_id(self) -> int:
        return max(self._arc_ids, default=0)

    def max_crossing_id(self) -> int:
        return max((c.cid for c in self.crossings), default=0)

    def crossing_by_id(self, cid: int) -> tuple[int, Crossing]:
        for idx, c in enumerate(self.crossings):
            if c.cid == cid:
                return idx, c
        raise MoveError(f"no crossing with id {cid}")

    def faces(self) -> Faces:
        """The face table (see `Faces`), built on first request and kept."""
        if self._faces is not None:
            return self._faces
        far, pieces = {}, _DSU()
        for tail, head in self.ends.values():
            far[tail], far[head] = head, tail
            pieces.union(tail[0], head[0])
        # a face is an orbit of the darts (crossing, slot) under "go to the far
        # end of the dart's arc, then to the next slot counterclockwise"
        face: dict[tuple[int, int], tuple[int, int]] = {}  # dart -> its face's first dart
        for start in far:
            dart = start
            while dart not in face:
                face[dart] = start
                i, s = far[dart]
                dart = (i, (s + 1) % 4)
        right, left, piece = {}, {}, {}
        for a, (tail, head) in self.ends.items():
            # the walk from the tail dart runs along the arc with its face on the right
            right[a], left[a], piece[a] = face[tail], face[head], pieces.find(tail[0])
        for k, lp in enumerate(self.loops):
            for a in lp:
                right[a], left[a], piece[a] = (~k, 0), (~k, 1), ~k
        self._faces = Faces(right, left, piece)
        return self._faces

    def loop_of_arc(self, arc: int) -> int | None:
        for i, lp in enumerate(self.loops):
            if arc in lp:
                return i
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        return (
            tuple((c.cid, c.arcs) for c in self.crossings)
            == tuple((c.cid, c.arcs) for c in other.crossings)
            and self.loops == other.loops
        )

    def __hash__(self) -> int:
        return hash(
            (tuple((c.cid, c.arcs) for c in self.crossings), self.loops)
        )

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


@dataclass(frozen=True)
class ResolvedDiagram:
    """A complete resolution: the partition of arcs into circles.

    Circles are stored as sorted arc tuples, listed in increasing order of
    their smallest arc id (the canonical circle order used everywhere).
    """

    circles: tuple[tuple[int, ...], ...]
    circle_of: dict[int, int]

    @property
    def count(self) -> int:
        return len(self.circles)


@dataclass(frozen=True)
class Transfer:
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


# -- the strand walk ------------------------------------------------------------

def _walk(raw, darts) -> tuple[list[int], dict[int, tuple[tuple[int, int], tuple[int, int]]]]:
    """Orient every strand by walking it: (crossing signs, arc -> (tail, head) darts).

    A strand entering a crossing by slot s leaves it by slot s ^ 2.  Every
    strand through a slot 2 is walked out of it first; a strand that only
    passes over is walked out of the slot 3 of its last crossing.  A strand
    that would enter a crossing by slot 2 is an `OrientationError`.
    """
    n = len(raw)
    signs = [0] * n
    ends: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for i, s in [(i, 2) for i in range(n)] + [(i, 3) for i in reversed(range(n))]:
        # leave crossing i by slot s, and on until the strand closes
        while (a := raw[i][1][s]) not in ends:
            x, y = darts[a]
            j, t = head = y if x == (i, s) else x
            if t == 2:
                raise OrientationError(
                    f"arc {a} oriented inconsistently: its strand enters crossing "
                    f"{raw[j][0]} by slot 2"
                )
            ends[a] = (i, s), head
            if t & 1:
                signs[j] = 2 - t  # the over-strand enters by slot 1: +1, by slot 3: -1
            i, s = j, t ^ 2
    return signs, ends


# -- resolutions ---------------------------------------------------------------

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


def resolve(d: LinkDiagram, v: Sequence[int] | int) -> ResolvedDiagram:
    """Compute the circles of the complete resolution selected by `v`.

    `v` is a bit per crossing in crossing order (or an int bitmask with bit j
    for crossing j).
    """
    bits = _as_bits(v, d.n)
    dsu = _DSU()
    for a in d.arc_ids():
        dsu.find(a)
    for c, bit in zip(d.crossings, bits):
        for s1, s2 in SMOOTHING_JOINS[bit]:
            dsu.union(c.arcs[s1], c.arcs[s2])
    for lp in d.loops:
        for i in range(len(lp) - 1):
            dsu.union(lp[i], lp[i + 1])
    groups: dict[int, list[int]] = {}
    for a in d.arc_ids():
        groups.setdefault(dsu.find(a), []).append(a)
    circles = tuple(sorted((tuple(sorted(g)) for g in groups.values())))
    circle_of = {}
    for i, circ in enumerate(circles):
        for a in circ:
            circle_of[a] = i
    return ResolvedDiagram(circles, circle_of)


def _as_bits(v: Sequence[int] | int, n: int) -> tuple[int, ...]:
    if isinstance(v, int):
        if v < 0 or v >> n:
            raise KhovalError(f"vertex {v} is not on the cube of {n} crossings")
        return tuple((v >> j) & 1 for j in range(n))
    bits = tuple(int(b) for b in v)
    if len(bits) != n:
        raise KhovalError(f"vertex length {len(bits)} != crossing count {n}")
    if any(b not in (0, 1) for b in bits):
        raise KhovalError("vertex bits must be 0 or 1")
    return bits


def transfer(
    src: ResolvedDiagram,
    tgt: ResolvedDiagram,
    hints: dict[int, tuple[int, ...]] | None = None,
) -> Transfer:
    """The circle-transfer plan from `src` to `tgt`.

    A source circle reaches the target circles that contain its arcs, each
    arc read through `hints` (arc -> the arcs that replace it; an arc without
    a hint stands for itself).  A target reached from two source circles is
    a merge, a source reaching two targets a split; more than one of these
    is refused.
    """
    circle_of = tgt.circle_of
    hits: list[list[int]] = [[] for _ in range(tgt.count)]
    dead = []
    split = None
    for s, circ in enumerate(src.circles):
        if hints:
            reached = {circle_of.get(b) for a in circ for b in hints.get(a, (a,))}
        else:
            reached = {circle_of.get(a) for a in circ}
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


def edge_transfer(src: ResolvedDiagram, tgt: ResolvedDiagram) -> Transfer:
    """The plan along a cube edge: exactly one merge or one split."""
    plan = transfer(src, tgt)
    if (plan.merge is None) == (plan.split is None):
        raise MoveError(
            "crossing change neither merges two circles nor splits one "
            "(the PD code is not planar)"
        )
    return plan
