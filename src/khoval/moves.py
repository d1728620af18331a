"""Elementary string interactions: Morse moves and Reidemeister moves on PD codes.

Each move rewrites a diagram into a new one and reports an arc correspondence
(`arc_map`) used downstream to track circles across the move: untouched arcs
keep their ids, and consumed arcs point at a representative arc of the circle
they land in.  Fresh ids are assigned deterministically (max existing id + 1,
in creation order), so replaying a movie always produces the same ids.

Conventions baked into the rewrites:

* Reidemeister moves prepend their new crossings, so the active crossings of
  an `add` move occupy the first positions of the crossing order (the local
  chain-map formulas assume this).
* A positive kink on arc a with pieces p, l, r is the crossing X(p,l,l,r);
  the negative kink is X(p,r,l,l).
* An R2 poke of arc `o` over arc `u` creates X(u1,o1,u2,o2), X(u2,o3,u3,o2)
  with pieces u -> u1,u2,u3 and o -> o1,o2,o3 (closed loops alias u1 = u3).
  Two arcs of one crossing-free circle are refused: the template's code
  for them is never planar.
* The braid-like R3 reverses, for each of the three strands of a triangle
  face, the order of its two crossings; signs are preserved.  The R1 kinks
  on a side stay on its strand, between the two crossings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from .diagram import LinkDiagram
from .errors import MoveError, ParseError, UnsupportedMoveError

__all__ = ["ESI", "MoveInfo", "apply_esi", "apply_esi_info"]

ESI_KINDS = ("birth", "death", "saddle", "r1", "r2", "r3")


def _json_id(value, event: dict) -> int:
    """An arc, crossing or circle id of a movie event: a JSON integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"malformed movie event {event!r}: id {value!r} is not an integer")
    return value


@dataclass(frozen=True)
class ESI:
    """One elementary string interaction, addressing ids in the current still."""

    kind: str
    variant: str | None = None
    arc: int | None = None
    arcs: tuple[int, ...] | None = None
    crossing: int | None = None
    crossings: tuple[int, ...] | None = None
    circle: int | None = None

    def __post_init__(self):
        if self.kind not in ESI_KINDS:
            raise ParseError(f"unknown ESI kind {self.kind!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "ESI":
        if not isinstance(obj, dict) or "op" not in obj:
            raise ParseError(f"malformed movie event {obj!r}")
        op = obj["op"]
        try:
            if op == "birth":
                return cls("birth")
            if op == "death":
                return cls("death", circle=_json_id(obj["circle"], obj))
            if op == "saddle":
                a, b = obj["arcs"]
                return cls("saddle", arcs=(_json_id(a, obj), _json_id(b, obj)))
            if op == "r1":
                variant = obj["variant"]
                if variant in ("add_pos", "add_neg"):
                    return cls("r1", variant=variant, arc=_json_id(obj["arc"], obj))
                if variant == "remove":
                    return cls("r1", variant="remove", crossing=_json_id(obj["crossing"], obj))
                raise ParseError(f"unknown r1 variant {variant!r}")
            if op == "r2":
                variant = obj["variant"]
                if variant == "add":
                    a, b = obj["arcs"]
                    return cls("r2", variant="add", arcs=(_json_id(a, obj), _json_id(b, obj)))
                if variant == "remove":
                    c1, c2 = obj["crossings"]
                    crossings = (_json_id(c1, obj), _json_id(c2, obj))
                    return cls("r2", variant="remove", crossings=crossings)
                raise ParseError(f"unknown r2 variant {variant!r}")
            if op == "r3":
                c1, c2, c3 = obj["crossings"]
                return cls(
                    "r3",
                    variant=obj.get("variant", "braid"),
                    crossings=tuple(_json_id(c, obj) for c in (c1, c2, c3)),
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed movie event {obj!r}: {exc}") from exc
        raise ParseError(f"unknown ESI op {op!r}")

    def to_json(self) -> dict:
        out: dict[str, Any] = {"op": self.kind}
        if self.kind == "death":
            out["circle"] = self.circle
        elif self.kind == "saddle":
            out["arcs"] = list(self.arcs)
        elif self.kind == "r1":
            out["variant"] = self.variant
            if self.variant == "remove":
                out["crossing"] = self.crossing
            else:
                out["arc"] = self.arc
        elif self.kind == "r2":
            out["variant"] = self.variant
            if self.variant == "remove":
                out["crossings"] = list(self.crossings)
            else:
                out["arcs"] = list(self.arcs)
        elif self.kind == "r3":
            out["crossings"] = list(self.crossings)
            out["variant"] = self.variant
        return out


@dataclass
class MoveInfo:
    """Everything a chain map needs to know about one applied move."""

    kind: str
    variant: str | None
    arc_map: dict[int, int]  # old arc -> representative new arc
    created_arcs: list[int] = field(default_factory=list)
    created_crossings: list[int] = field(default_factory=list)
    # birth: created loop arcs are in created_arcs
    victim_arcs: tuple[int, ...] = ()  # death: arcs of the dying circle
    saddle_arcs: tuple[int, int] | None = None
    # r1: the kink loop arc, the strand representative in the new diagram,
    # kink sign, and (for removals) the position of the crossing.
    loop_arc: int | None = None
    strand_arc: int | None = None
    positive: bool | None = None
    positions: tuple[int, ...] = ()
    # r2: piece arcs in template roles (aliases allowed); r3: triangle roles
    # (see `r3.triangle`) and the ids of the R1 kinks its sides carry
    pieces: dict[str, int] = field(default_factory=dict)
    kinks: tuple[int, ...] = ()


def apply_esi(d: LinkDiagram, event: ESI) -> LinkDiagram:
    """Rewrite a diagram by one elementary string interaction."""
    return apply_esi_info(d, event)[0]


def apply_esi_info(d: LinkDiagram, event: ESI) -> tuple[LinkDiagram, MoveInfo]:
    kind = event.kind
    if kind == "birth":
        return _apply_birth(d)
    if kind == "death":
        return _apply_death(d, event.circle)
    if kind == "saddle":
        a, b = event.arcs
        return _apply_saddle(d, a, b)
    if kind == "r1":
        if event.variant == "add_pos":
            return _apply_r1_add(d, event.arc, positive=True)
        if event.variant == "add_neg":
            return _apply_r1_add(d, event.arc, positive=False)
        if event.variant == "remove":
            return _apply_r1_remove(d, event.crossing)
        raise MoveError(f"unknown r1 variant {event.variant!r}")
    if kind == "r2":
        if event.variant == "add":
            a, b = event.arcs
            return _apply_r2_add(d, a, b)
        if event.variant == "remove":
            c1, c2 = event.crossings
            return _apply_r2_remove(d, c1, c2)
        raise MoveError(f"unknown r2 variant {event.variant!r}")
    if kind == "r3":
        return _apply_r3(d, event.crossings, event.variant)
    raise MoveError(f"unknown ESI kind {kind!r}")


# -- helpers -------------------------------------------------------------------


def _fresh_arcs(d: LinkDiagram, k: int) -> list[int]:
    base = d.max_arc_id()
    return [base + i + 1 for i in range(k)]


def _raw(d: LinkDiagram) -> list[tuple[int, list[int]]]:
    return [(c.cid, list(c.arcs)) for c in d.crossings]


def _build(raw, loops) -> LinkDiagram:
    return LinkDiagram(
        [(cid, tuple(arcs)) for cid, arcs in raw],
        [tuple(lp) for lp in loops],
    )


def _rotate(lp: tuple[int, ...], a: int) -> list[int]:
    k = lp.index(a)
    return list(lp[k:]) + list(lp[:k])


def _require_arc(d: LinkDiagram, a: int) -> None:
    if a not in d.arc_ids():
        raise MoveError(f"arc {a} does not exist in the current still")


# -- Morse moves ---------------------------------------------------------------


def _apply_birth(d: LinkDiagram) -> tuple[LinkDiagram, MoveInfo]:
    f1, f2 = _fresh_arcs(d, 2)
    new = _build(_raw(d), list(d.loops) + [(f1, f2)])
    info = MoveInfo("birth", None, {}, created_arcs=[f1, f2])
    return new, info


def _apply_death(d: LinkDiagram, circle: int) -> tuple[LinkDiagram, MoveInfo]:
    li = d.loop_of_arc(circle)
    if li is None:
        raise MoveError(
            f"death needs a crossing-free circle; id {circle} is not on one"
        )
    loops = [lp for i, lp in enumerate(d.loops) if i != li]
    new = _build(_raw(d), loops)
    info = MoveInfo("death", None, {}, victim_arcs=d.loops[li])
    return new, info


def _apply_saddle(d: LinkDiagram, a: int, b: int) -> tuple[LinkDiagram, MoveInfo]:
    if a == b:
        raise MoveError("saddle arcs must be distinct")
    _require_arc(d, a)
    _require_arc(d, b)
    la, lb = d.loop_of_arc(a), d.loop_of_arc(b)
    raw = _raw(d)
    loops = [lp for lp in d.loops]
    arc_map: dict[int, int] = {}

    if la is None and lb is None:
        ta, sa = d.arc_tail(a)
        ha, sha = d.arc_head(a)
        tb, sb = d.arc_tail(b)
        hb, shb = d.arc_head(b)
        u, w = _fresh_arcs(d, 2)
        raw[ta][1][sa] = u  # tail of a -> u -> head of b
        raw[hb][1][shb] = u
        raw[tb][1][sb] = w  # tail of b -> w -> head of a
        raw[ha][1][sha] = w
        arc_map = {a: u, b: w}
        created = [u, w]
    elif la is not None and lb is not None:
        if la == lb:
            lp = _rotate(d.loops[la], a)
            j = lp.index(b)
            alpha, beta = _fresh_arcs(d, 2)
            circle1 = [alpha] + lp[j + 1 :]
            circle2 = [beta] + lp[1:j]
            loops = [x for i, x in enumerate(loops) if i != la]
            loops.extend([tuple(circle1), tuple(circle2)])
            arc_map = {a: alpha, b: beta}
            created = [alpha, beta]
        else:
            lpa = _rotate(d.loops[la], a)
            lpb = _rotate(d.loops[lb], b)
            alpha, beta = _fresh_arcs(d, 2)
            merged = [alpha] + lpb[1:] + [beta] + lpa[1:]
            loops = [x for i, x in enumerate(loops) if i not in (la, lb)]
            loops.append(tuple(merged))
            arc_map = {a: alpha, b: beta}
            created = [alpha, beta]
    else:
        x, y, ly = (a, b, lb) if la is None else (b, a, la)
        tx, sx = d.arc_tail(x)
        hx, shx = d.arc_head(x)
        (w,) = _fresh_arcs(d, 1)
        raw[tx][1][sx] = w
        raw[hx][1][shx] = w
        arc_map = {x: w}
        for z in d.loops[ly]:
            arc_map[z] = w
        loops = [lp for i, lp in enumerate(loops) if i != ly]
        created = [w]

    new = _build(raw, loops)
    info = MoveInfo("saddle", None, arc_map, created_arcs=created, saddle_arcs=(a, b))
    return new, info


# -- Reidemeister 1 ------------------------------------------------------------


def _apply_r1_add(
    d: LinkDiagram, a: int, positive: bool
) -> tuple[LinkDiagram, MoveInfo]:
    _require_arc(d, a)
    la = d.loop_of_arc(a)
    cid = d.max_crossing_id() + 1
    raw = _raw(d)
    loops = [lp for lp in d.loops]
    if la is None:
        p, loop_arc, r = _fresh_arcs(d, 3)
        ta, sa = d.arc_tail(a)
        ha, sha = d.arc_head(a)
        raw[ta][1][sa] = p
        raw[ha][1][sha] = r
        arc_map = {a: p}
        created = [p, loop_arc, r]
        strand = p
    else:
        strand, loop_arc = _fresh_arcs(d, 2)
        arc_map = {z: strand for z in d.loops[la]}
        loops = [lp for i, lp in enumerate(loops) if i != la]
        created = [strand, loop_arc]
        p, r = strand, strand
    arcs = (p, loop_arc, loop_arc, r) if positive else (p, r, loop_arc, loop_arc)
    raw.insert(0, (cid, list(arcs)))
    new = _build(raw, loops)
    info = MoveInfo(
        "r1",
        "add_pos" if positive else "add_neg",
        arc_map,
        created_arcs=created,
        created_crossings=[cid],
        loop_arc=loop_arc,
        strand_arc=strand,
        positive=positive,
    )
    return new, info


# kink patterns: repeated-arc slots -> (positive?, p slot, r slot)
_KINK_PATTERNS = {
    (1, 2): (True, 0, 3),
    (0, 3): (True, 1, 2),
    (2, 3): (False, 0, 1),
    (0, 1): (False, 3, 2),
}


def _apply_r1_remove(d: LinkDiagram, cid: int) -> tuple[LinkDiagram, MoveInfo]:
    idx, c = d.crossing_by_id(cid)
    # a kinked unknot X(m,l,l,m) matches two patterns; take the first in order
    for (s1, s2), (positive, p_slot, r_slot) in _KINK_PATTERNS.items():
        if c.arcs[s1] == c.arcs[s2]:
            loop_arc = c.arcs[s1]
            break
    else:
        raise MoveError(f"crossing {cid} is not a kink")
    p, r = c.arcs[p_slot], c.arcs[r_slot]
    raw = [(ci, arcs) for ci, arcs in _raw(d) if ci != cid]
    loops = [lp for lp in d.loops]
    if p == r:
        f1, f2 = _fresh_arcs(d, 2)
        loops.append((f1, f2))
        arc_map = {p: f1}
        created = [f1, f2]
        strand = f1
    else:
        (f,) = _fresh_arcs(d, 1)
        for _, arcs in raw:
            for s, x in enumerate(arcs):
                if x in (p, r):
                    arcs[s] = f
        arc_map = {p: f, r: f}
        created = [f]
        strand = f
    new = _build(raw, loops)
    info = MoveInfo(
        "r1",
        "remove",
        arc_map,
        created_arcs=created,
        loop_arc=loop_arc,
        strand_arc=strand,
        positive=positive,
        positions=(idx,),
    )
    return new, info


# -- Reidemeister 2 ------------------------------------------------------------


def _r2_pieces(d, arc, loop_idx, fresh):
    """Cut one strand for an R2 poke: returns (p1, p2, p3, slot updates, consumed)."""
    if loop_idx is None:
        p1, p2, p3 = fresh(3)
        t, st = d.arc_tail(arc)
        h, sh = d.arc_head(arc)
        return p1, p2, p3, [(t, st, p1), (h, sh, p3)], {arc: p1}
    # closed: the long way around is a single piece
    pw, p2 = fresh(2)
    consumed = {z: pw for z in d.loops[loop_idx]}
    return pw, p2, pw, [], consumed


def _apply_r2_add(d: LinkDiagram, a: int, b: int) -> tuple[LinkDiagram, MoveInfo]:
    """Poke arc b over arc a (parallel finger template)."""
    if a == b:
        raise MoveError("r2 arcs must be distinct")
    _require_arc(d, a)
    _require_arc(d, b)
    la, lb = d.loop_of_arc(a), d.loop_of_arc(b)
    if la is not None and la == lb:
        raise MoveError("r2 arcs on one crossing-free circle give no planar poke")
    raw = _raw(d)
    loops = list(d.loops)
    fresh_pool = _fresh_arcs(d, 6)

    def fresh(k: int) -> list[int]:
        return [fresh_pool.pop(0) for _ in range(k)]

    u1, u2, u3, upd_u, cons_u = _r2_pieces(d, a, la, fresh)
    o1, o2, o3, upd_o, cons_o = _r2_pieces(d, b, lb, fresh)
    arc_map = {**cons_u, **cons_o}
    for li in sorted({x for x in (la, lb) if x is not None}, reverse=True):
        del loops[li]
    created = sorted({u1, u2, u3, o1, o2, o3})
    for idx, slot, new_arc in upd_u + upd_o:
        raw[idx][1][slot] = new_arc
    cid_a = d.max_crossing_id() + 1
    cid_b = cid_a + 1
    raw.insert(0, (cid_b, [u2, o3, u3, o2]))
    raw.insert(0, (cid_a, [u1, o1, u2, o2]))
    new = _build(raw, loops)
    info = MoveInfo(
        "r2",
        "add",
        arc_map,
        created_arcs=created,
        created_crossings=[cid_a, cid_b],
        pieces={"u1": u1, "u2": u2, "u3": u3, "o1": o1, "o2": o2, "o3": o3},
    )
    return new, info


def _match_r2_pair(d: LinkDiagram, c1: int, c2: int):
    """Find the (cA, cB) role assignment of a removable R2 pair."""
    i1, x1 = d.crossing_by_id(c1)
    i2, x2 = d.crossing_by_id(c2)
    for (ia, ca), (ib, cb) in (((i1, x1), (i2, x2)), ((i2, x2), (i1, x1))):
        u2 = ca.arcs[2]
        o2 = ca.arcs[3]
        if cb.arcs[0] == u2 and cb.arcs[3] == o2 and u2 != o2:
            if ca.sign + cb.sign != 0:
                raise MoveError(
                    f"crossings {c1},{c2} match the R2 pattern but have equal signs"
                )
            return ia, ca, ib, cb
    raise MoveError(f"crossings {c1},{c2} do not form a removable R2 pair")


def _apply_r2_remove(
    d: LinkDiagram, c1: int, c2: int
) -> tuple[LinkDiagram, MoveInfo]:
    ia, ca, ib, cb = _match_r2_pair(d, c1, c2)
    u1, o1, u2, o2 = ca.arcs
    _, o3, u3, _ = cb.arcs
    raw = [(ci, arcs) for ci, arcs in _raw(d) if ci not in (ca.cid, cb.cid)]
    loops = list(d.loops)
    arc_map: dict[int, int] = {}
    created: list[int] = []

    # Chain-fuse the four outer pieces along the relations u1~u3 and o1~o3.
    # A piece aliased across the two relations sits in the middle of a chain;
    # a chain that closes up becomes a crossing-free circle.
    next_id = d.max_arc_id()
    links: dict[int, set[int]] = {}
    for x, y in ((u1, u3), (o1, o3)):
        links.setdefault(x, set()).add(y)
        links.setdefault(y, set()).add(x)
    seen: set[int] = set()
    for start in sorted(links):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            z = frontier.pop()
            for nxt in links[z]:
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        seen |= component
        # a chain closes into a circle iff every piece has both occurrences
        # inside the removed pair, i.e. none survives in the remaining crossings
        outer_ends = [
            z
            for z in component
            if any(z in arcs for _, arcs in raw)
        ]
        if not outer_ends:
            next_id += 1
            f1 = next_id
            next_id += 1
            f2 = next_id
            loops.append((f1, f2))
            for z in component:
                arc_map[z] = f1
            created.extend([f1, f2])
        else:
            next_id += 1
            f = next_id
            for _, arcs in raw:
                for s, x in enumerate(arcs):
                    if x in component:
                        arcs[s] = f
            for z in component:
                arc_map[z] = f
            created.append(f)
    new = _build(raw, loops)
    info = MoveInfo(
        "r2",
        "remove",
        arc_map,
        created_arcs=created,
        positions=(ia, ib),
        pieces={"u1": u1, "u2": u2, "u3": u3, "o1": o1, "o2": o2, "o3": o3},
    )
    return new, info


# -- Reidemeister 3 ------------------------------------------------------------


def _apply_r3(
    d: LinkDiagram, cids: tuple[int, int, int], variant: str | None
) -> tuple[LinkDiagram, MoveInfo]:
    if variant not in (None, "braid"):
        raise UnsupportedMoveError(f"r3 variant {variant!r} is not implemented")
    from .r3 import triangle  # loaded by the first triangle move, not by every import

    sides, roles = triangle(d, cids)
    new_arcs = [list(c.arcs) for c in d.crossings]
    fresh = itertools.count(d.max_arc_id() + 1)
    arc_map: dict[int, int] = {}
    kinks: list[int] = []
    for p, s, q, t, arcs, side_kinks in sides:
        # the strand leaves P by slot s, passes its kinks and enters Q by slot
        # t; it now runs through Q first, then its kinks, then P
        x = next(fresh)
        y = next(fresh) if side_kinks else x
        arc_map[arcs[0]], arc_map[arcs[-1]] = x, y
        new_arcs[q][t] = d.crossings[p].arcs[s ^ 2]
        new_arcs[q][t ^ 2] = x
        new_arcs[p][s ^ 2] = y
        new_arcs[p][s] = d.crossings[q].arcs[t ^ 2]
        if side_kinks:
            new_arcs[side_kinks[0]][d.crossings[side_kinks[0]].arcs.index(arcs[0])] = x
            new_arcs[side_kinks[-1]][d.crossings[side_kinks[-1]].arcs.index(arcs[-1])] = y
            kinks.extend(d.crossings[k].cid for k in side_kinks)

    new = _build([(c.cid, arcs) for c, arcs in zip(d.crossings, new_arcs)], list(d.loops))
    if any(a.sign != b.sign for a, b in zip(new.crossings, d.crossings)):
        raise MoveError("r3 rewiring changed a crossing sign; not a valid move")
    positions = tuple(d.crossing_by_id(cid)[0] for cid in cids)
    created = sorted(set(arc_map.values()))
    return new, MoveInfo("r3", "braid", arc_map, created_arcs=created, positions=positions,
                         pieces=roles, kinks=tuple(kinks))
