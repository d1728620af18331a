"""Elementary string interactions: Morse moves and Reidemeister moves on PD codes.

Each move rewrites a diagram into a new one and reports an arc correspondence
(`arc_map`) used downstream to track circles across the move: untouched arcs
keep their ids, and consumed arcs point at a representative arc of the circle
they land in.  Fresh ids are assigned deterministically (max existing id + 1,
in creation order), so replaying a movie always produces the same ids.

Every (kind, variant) of event is one row of the table `_FORMS`: the `ESI`
field that holds its ids, whether they are arc or crossing ids, how many it
takes, and its rewrite.  Checking an event, reading and writing its JSON,
renaming its ids and applying it all read that table.

Conventions baked into the rewrites:

* Reidemeister moves prepend their new crossings, so the active crossings of
  an `add` move occupy the first positions of the crossing order (the local
  chain-map formulas assume this).
* R1 and R2 additions cut an arc into pieces (p, m, r) (`_cut`); on a
  crossing-free circle the rest of the circle is one piece, p = r.  Their
  removals fuse the pieces that meet again (`_fuse`); a chain of pieces that
  no remaining crossing holds closes into a crossing-free circle.
* A positive kink on arc a with pieces p, l, r is the crossing X(p,l,l,r);
  the negative kink is X(p,r,l,l).
* Every still stays planar, by the still's face table (`LinkDiagram.faces`):
  a saddle joins two arcs of one piece only through a face on one side of both.
* An R2 poke of arc `o` over arc `u` creates X(u1,o1,u2,o2), X(u2,o3,u3,o2)
  with pieces u -> u1,u2,u3 and o -> o1,o2,o3.  The finger runs in the face
  on the right of `u`, which must be on the left of `o` when both arcs lie
  in one piece; so two arcs of one crossing-free circle are refused.
* The braid-like R3 reverses, for each of the three strands of a triangle
  face, the order of its two crossings; signs are preserved.  The R1 kinks
  on a side stay on its strand, between the two crossings.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, NamedTuple

from .diagram import LinkDiagram
from .errors import MoveError, ParseError, UnsupportedMoveError

__all__ = ["ESI", "MoveInfo", "apply_esi", "apply_esi_info"]


class _Form(NamedTuple):
    """How one (kind, variant) of event names its ids, and its rewrite."""

    field: str | None  # the `ESI` field that holds the ids; a birth takes none
    crossing_ids: bool  # crossing ids, else arc ids (a death's circle is an arc id)
    count: int  # one id is an int in its field, more are a tuple
    rewrite: Callable[..., tuple[LinkDiagram, "MoveInfo"]]  # (still, *ids)

    def ids(self, event: "ESI") -> tuple[int, ...]:
        """The event's ids, in the order the rewrite takes them, read from this form's field."""
        value = getattr(event, self.field) if self.field else ()
        return (value,) if self.count == 1 else value

    def keywords(self, ids) -> dict[str, Any]:
        """The `ESI` keyword that holds these ids."""
        if self.field is None:
            return {}
        return {self.field: ids[0] if self.count == 1 else tuple(ids)}


def _form(kind, variant) -> _Form:
    """The row of an event's (kind, variant); an unknown kind is a `ParseError`."""
    form = _FORMS.get((kind, variant))
    if form is None:
        if all(k != kind for k, _ in _FORMS):
            raise ParseError(f"unknown ESI kind {kind!r}")
        raise UnsupportedMoveError(f"{kind} variant {variant!r} is not implemented")
    return form


class _ESIFields(NamedTuple):
    kind: str
    variant: str | None = None
    arc: int | None = None
    arcs: tuple[int, ...] | None = None
    crossing: int | None = None
    crossings: tuple[int, ...] | None = None
    circle: int | None = None


class ESI(_ESIFields):
    """One elementary string interaction, addressing ids in the current still.

    Its (kind, variant) is a row of `_FORMS`, which names the one id field it
    fills; a missing, stray or malformed id field is a `ParseError`, and so
    is a JSON key other than `op`, `variant` and that field.  Every way of
    making one checks this: the constructor, `from_json`, `renamed`,
    `_replace` and `_make`.  It hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self._checked(_form(self.kind, self.variant))

    def _checked(self, form: _Form) -> "ESI":
        """This event, if it fills its form's id field, and no other, with integer ids."""
        ids = form.ids(self)
        filled = 5 - (self.arc, self.arcs, self.crossing, self.crossings, self.circle).count(None)
        if (
            filled != (form.field is not None)  # the form's id field, and no other
            or type(ids) is not tuple
            or len(ids) != form.count
            or not set(map(type, ids)) <= {int}  # an id is an int, not a bool
        ):
            raise ParseError(f"malformed movie event {self}: it takes {form.count} integer ids"
                             + (f" in {form.field!r}" if form.field else ""))
        return self

    @classmethod
    def _make(cls, iterable) -> "ESI":  # and so `_replace`, which makes its copy here
        return cls(*iterable)

    @property
    def ids(self) -> tuple[int, ...]:
        """The ids, in the order the rewrite takes them, read from the form's id field."""
        return _FORMS[self.kind, self.variant].ids(self)

    def renamed(self, arc_map: dict[int, int], crossing_map: dict[int, int]) -> "ESI":
        """The same event on other ids, read through `arc_map` or `crossing_map`."""
        form = _FORMS[self.kind, self.variant]
        names = crossing_map if form.crossing_ids else arc_map
        return self._replace(**form.keywords([names[x] for x in form.ids(self)]))

    @classmethod
    def from_json(cls, obj: dict) -> "ESI":
        """The event of a JSON object: `op`, `variant` and its form's id field, no other key."""
        if not isinstance(obj, dict) or "op" not in obj:
            raise ParseError(f"malformed movie event {obj!r}")
        kind = obj["op"]
        try:
            variant = obj.get("variant", _ONLY_VARIANT.get(kind))
            form = _form(kind, variant)
            if len(obj) > 1 + ("variant" in obj) + (form.field in obj):
                stray = min(obj.keys() - {"op", "variant", form.field}, key=str)
                raise ParseError(f"malformed movie event {obj!r}: unknown key {stray!r}")
            value = obj.get(form.field)
            ids = (value,) if form.count == 1 else value
            return _ESIFields.__new__(cls, kind, variant, **form.keywords(ids))._checked(form)
        except (TypeError, UnsupportedMoveError) as exc:
            raise ParseError(f"malformed movie event {obj!r}: {exc}") from exc

    def to_json(self) -> dict:
        form = _FORMS[self.kind, self.variant]
        out: dict[str, Any] = {"op": self.kind}
        if self.variant is not None:
            out["variant"] = self.variant
        if form.field:
            ids = form.ids(self)
            out[form.field] = list(ids) if form.count > 1 else ids[0]
        return out


class _MoveFields(NamedTuple):
    kind: str
    variant: str | None
    arc_map: dict[int, int]  # old arc -> representative new arc
    created_arcs: list[int]
    created_crossings: list[int]
    # birth: created loop arcs are in created_arcs
    victim_arcs: tuple[int, ...]  # death: arcs of the dying circle
    # r1: the kink loop arc, the strand representative in the new diagram,
    # kink sign, and (for removals) the position of the crossing.
    loop_arc: int | None
    strand_arc: int | None
    positive: bool | None
    positions: tuple[int, ...]
    # r2: piece arcs in template roles (aliases allowed); r3: triangle roles
    # (see `r3.triangle`) and the ids of the R1 kinks its sides carry
    pieces: dict[str, int]
    kinks: tuple[int, ...]


class MoveInfo(_MoveFields):
    """What a chain map needs to know about one applied move; each owns its lists and dict."""

    __slots__ = ()

    def __new__(cls, kind, variant, arc_map, created_arcs=None, created_crossings=None,
                victim_arcs=(), loop_arc=None, strand_arc=None, positive=None, positions=(),
                pieces=None, kinks=()):
        return tuple.__new__(cls, (  # filled through `_replace`, a replay ran 17 % slower
            kind, variant, arc_map, [] if created_arcs is None else created_arcs,
            [] if created_crossings is None else created_crossings, victim_arcs, loop_arc,
            strand_arc, positive, positions, {} if pieces is None else pieces, kinks))


def apply_esi(d: LinkDiagram, event: ESI) -> LinkDiagram:
    """Rewrite a diagram by one elementary string interaction."""
    return apply_esi_info(d, event)[0]


def apply_esi_info(d: LinkDiagram, event: ESI) -> tuple[LinkDiagram, MoveInfo]:
    """The rewritten diagram and what a chain map needs to know about the move."""
    form = _FORMS[event.kind, event.variant]
    return form.rewrite(d, *form.ids(event))


# -- helpers -------------------------------------------------------------------


def _fresh_arcs(d: LinkDiagram, k: int) -> list[int]:
    base = d.max_arc_id()
    return [base + i + 1 for i in range(k)]


def _raw(d: LinkDiagram) -> list[tuple[int, list[int]]]:
    return [(c.cid, list(c.arcs)) for c in d.crossings]


def _require_arc(d: LinkDiagram, a: int) -> int | None:
    """The index of arc a's crossing-free loop, None for a crossing arc; no arc a is a `MoveError`."""
    if (li := d.loop_of_arc(a)) is None and a not in d.ends:
        raise MoveError(f"arc {a} does not exist in the current still")
    return li


# -- Morse moves ---------------------------------------------------------------


def _apply_birth(d: LinkDiagram) -> tuple[LinkDiagram, MoveInfo]:
    f1, f2 = _fresh_arcs(d, 2)
    info = MoveInfo("birth", None, {}, created_arcs=[f1, f2])
    return LinkDiagram(_raw(d), [*d.loops, (f1, f2)]), info


def _apply_death(d: LinkDiagram, circle: int) -> tuple[LinkDiagram, MoveInfo]:
    if (li := d.loop_of_arc(circle)) is None:
        raise MoveError(f"death needs a crossing-free circle; id {circle} is not on one")
    loops = [lp for i, lp in enumerate(d.loops) if i != li]
    return LinkDiagram(_raw(d), loops), MoveInfo("death", None, {}, victim_arcs=d.loops[li])


def _apply_saddle(d: LinkDiagram, a: int, b: int) -> tuple[LinkDiagram, MoveInfo]:
    if a == b:
        raise MoveError("saddle arcs must be distinct")
    la, lb = _require_arc(d, a), _require_arc(d, b)
    raw, loops = _raw(d), list(d.loops)
    if la is None and lb is None:
        # a band from a crossing-free circle can always be drawn: only here is a face needed
        if not d.faces().can_band(a, b):
            raise MoveError(
                f"saddle arcs {a}, {b} give no planar band: they share no face on the same side"
            )
        u, w = created = _fresh_arcs(d, 2)
        (ta, sa), (ha, sha) = d.ends[a]
        (tb, sb), (hb, shb) = d.ends[b]
        raw[ta][1][sa] = raw[hb][1][shb] = u  # tail of a -> u -> head of b
        raw[tb][1][sb] = raw[ha][1][sha] = w  # tail of b -> w -> head of a
        arc_map = {a: u, b: w}
    elif la is not None and lb is not None:
        # u and w replace a and b on their circles, and each runs on where the other did
        u, w = created = _fresh_arcs(d, 2)
        arc_map = {a: u, b: w}
        succ = {arc_map.get(x, x): arc_map.get(y, y)
                for lp in (d.loops[la], d.loops[lb]) for x, y in zip(lp, lp[1:] + lp[:1])}
        succ[u], succ[w] = succ[w], succ[u]
        loops = [lp for lp in loops if a not in lp and b not in lp]
        for start in (u, w) if la == lb else (u,):  # one circle splits, two merge
            cycle = [start]
            while succ[cycle[-1]] != start:
                cycle.append(succ[cycle[-1]])
            loops.append(tuple(cycle))
    else:  # the crossing arc x absorbs the circle
        x, ly = (a, lb) if la is None else (b, la)
        (tx, sx), (hx, shx) = d.ends[x]
        (w,) = created = _fresh_arcs(d, 1)
        raw[tx][1][sx] = raw[hx][1][shx] = w
        arc_map = dict.fromkeys((x, *d.loops[ly]), w)
        del loops[ly]
    return LinkDiagram(raw, loops), MoveInfo("saddle", None, arc_map, created_arcs=created)


# -- Reidemeister 1 and 2: cutting arcs and fusing pieces -------------------------


def _cut(d: LinkDiagram, raw, arc: int, fresh, done=()) -> tuple[int, int, int, dict[int, int]]:
    """Cut `arc` into pieces (p, m, r) for a new local picture, with its arc map.

    p takes the arc's tail slot in `raw`, r its head slot, and m is the new
    middle piece.  On a crossing-free circle the rest of the circle is one
    piece, p = r, and every arc of the circle maps to it; the caller drops
    the circle from the loops.  An arc in `done`, the arcs this move has
    already cut, is refused: one circle cannot be cut twice.
    """
    if arc in done:
        raise MoveError(f"arc {arc} was already cut by this move: a circle is cut once")
    if (li := d.loop_of_arc(arc)) is None:
        p, m, r = next(fresh), next(fresh), next(fresh)
        (t, st), (h, sh) = d.ends[arc]
        raw[t][1][st], raw[h][1][sh] = p, r
        return p, m, r, {arc: p}
    p, m = next(fresh), next(fresh)
    return p, m, p, dict.fromkeys(d.loops[li], p)


def _fuse(d: LinkDiagram, raw, removed: tuple[int, ...], loops: list,
          relations) -> tuple[dict[int, int], list[int]]:
    """Fuse the pieces that a removed local picture left open; returns (arc map, fresh arcs).

    Each relation (x, y) makes pieces x and y one arc.  A chain of related
    pieces becomes one fresh arc in the remaining crossings `raw`, `d`'s
    crossings without the positions `removed`: it is written at each piece's
    darts (`d.ends`) that a remaining crossing holds.  A chain that none of
    them holds closes into a crossing-free circle of two fresh arcs,
    appended to `loops`.
    """
    fresh = itertools.count(d.max_arc_id() + 1)
    chains: list[set[int]] = []
    for pair in relations:
        chain = set(pair).union(*(c for c in chains if not c.isdisjoint(pair)))
        chains = [c for c in chains if c.isdisjoint(chain)] + [chain]
    arc_map: dict[int, int] = {}
    created: list[int] = []
    for chain in sorted(chains, key=min):
        f = next(fresh)
        held = False
        for x in chain:
            for p, s in d.ends[x]:
                if p not in removed:
                    raw[p - sum(r < p for r in removed)][1][s], held = f, True
        if held:
            created.append(f)
        else:
            loops.append((f, next(fresh)))
            created.extend(loops[-1])
        arc_map.update(dict.fromkeys(chain, f))
    return arc_map, created


def _apply_r1_add(d: LinkDiagram, a: int, positive: bool) -> tuple[LinkDiagram, MoveInfo]:
    _require_arc(d, a)
    raw = _raw(d)
    p, loop_arc, r, arc_map = _cut(d, raw, a, itertools.count(d.max_arc_id() + 1))
    cid = d.max_crossing_id() + 1
    raw.insert(0, (cid, [p, loop_arc, loop_arc, r] if positive else [p, r, loop_arc, loop_arc]))
    new = LinkDiagram(raw, [lp for lp in d.loops if lp[0] not in arc_map])
    info = MoveInfo(
        "r1",
        "add_pos" if positive else "add_neg",
        arc_map,
        created_arcs=sorted({p, loop_arc, r}),
        created_crossings=[cid],
        loop_arc=loop_arc,
        strand_arc=p,
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
    raw = [(ci, arcs) for ci, arcs in _raw(d) if ci != cid]
    loops = list(d.loops)
    # on a kinked unknot p = r, and the strand closes into a circle
    arc_map, created = _fuse(d, raw, (idx,), loops, [(c.arcs[p_slot], c.arcs[r_slot])])
    info = MoveInfo(
        "r1",
        "remove",
        arc_map,
        created_arcs=created,
        loop_arc=loop_arc,
        strand_arc=created[0],
        positive=positive,
        positions=(idx,),
    )
    return LinkDiagram(raw, loops), info


def _apply_r2_add(d: LinkDiagram, a: int, b: int) -> tuple[LinkDiagram, MoveInfo]:
    """Poke arc b over arc a (parallel finger template)."""
    if a == b:
        raise MoveError("r2 arcs must be distinct")
    _require_arc(d, a)
    _require_arc(d, b)
    if not d.faces().can_poke(a, b):
        raise MoveError(
            f"r2 arcs {a}, {b} give no planar poke: the face right of {a} is not left of {b}"
        )
    raw = _raw(d)
    fresh = itertools.count(d.max_arc_id() + 1)
    u1, u2, u3, cut_u = _cut(d, raw, a, fresh)
    o1, o2, o3, cut_o = _cut(d, raw, b, fresh, done=cut_u)
    arc_map = {**cut_u, **cut_o}
    cid_a = d.max_crossing_id() + 1
    cid_b = cid_a + 1
    raw[:0] = [(cid_a, [u1, o1, u2, o2]), (cid_b, [u2, o3, u3, o2])]
    new = LinkDiagram(raw, [lp for lp in d.loops if lp[0] not in arc_map])
    info = MoveInfo(
        "r2",
        "add",
        arc_map,
        created_arcs=sorted({u1, u2, u3, o1, o2, o3}),
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
    # a piece aliased across the two relations sits in the middle of a chain
    arc_map, created = _fuse(d, raw, (ia, ib), loops, [(u1, u3), (o1, o3)])
    info = MoveInfo(
        "r2",
        "remove",
        arc_map,
        created_arcs=created,
        positions=(ia, ib),
        pieces={"u1": u1, "u2": u2, "u3": u3, "o1": o1, "o2": o2, "o3": o3},
    )
    return LinkDiagram(raw, loops), info


# -- Reidemeister 3 ------------------------------------------------------------


def _apply_r3(d: LinkDiagram, *cids: int) -> tuple[LinkDiagram, MoveInfo]:
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

    new = LinkDiagram([(c.cid, arcs) for c, arcs in zip(d.crossings, new_arcs)], list(d.loops))
    if any(a.sign != b.sign for a, b in zip(new.crossings, d.crossings)):
        raise MoveError("r3 rewiring changed a crossing sign; not a valid move")
    positions = tuple(d.crossing_by_id(cid)[0] for cid in cids)
    created = sorted(set(arc_map.values()))
    return new, MoveInfo("r3", "braid", arc_map, created_arcs=created, positions=positions,
                         pieces=roles, kinks=tuple(kinks))


# -- the event table ---------------------------------------------------------------

_FORMS: dict[tuple[str, str | None], _Form] = {
    ("birth", None): _Form(None, False, 0, _apply_birth),
    ("death", None): _Form("circle", False, 1, _apply_death),
    ("saddle", None): _Form("arcs", False, 2, _apply_saddle),
    ("r1", "add_pos"): _Form("arc", False, 1, partial(_apply_r1_add, positive=True)),
    ("r1", "add_neg"): _Form("arc", False, 1, partial(_apply_r1_add, positive=False)),
    ("r1", "remove"): _Form("crossing", True, 1, _apply_r1_remove),
    ("r2", "add"): _Form("arcs", False, 2, _apply_r2_add),
    ("r2", "remove"): _Form("crossings", True, 2, _apply_r2_remove),
    ("r3", "braid"): _Form("crossings", True, 3, _apply_r3),
}

# a kind with a single variant may leave it out of its JSON (an r3 is braid-like)
_ONLY_VARIANT = {k: v for k, v in _FORMS if sum(k == kk for kk, _ in _FORMS) == 1}
