"""Movie presentations of link cobordisms and their chain-level evaluation.

A movie is a sequence of elementary string interactions starting from the
empty diagram (or from a trivial knot, for punctured evaluations).  Each
event induces a chain map between the cube complexes of consecutive stills:
birth and death have q-degree +1, a saddle -1, and the Reidemeister moves
are degree-0 homotopy equivalences.

Every map is a chain of ops (`cube`: a generator to its image's terms) that
`ChainMapRep` composes.  Morse and R1 maps are one op each, made by
`cube._piece_op` from a table `vertex(mask) -> pieces`, computed once per
source vertex: a signed sum of dotted cobordisms (`cube.Piece`: a
circle-transfer plan read through the move's arc hints, with cups, caps and
dots).  Birth, death and saddle share one Morse table.  The R1 tables act
on a crossing moved to the front of the crossing order, so they carry the
Koszul sign of that reordering: positive R1 addition is a dotted cup minus
a cup with a dot on the strand, negative R1 removal a dotted cap minus a
cap with a dot on the strand.  R2 is two ops: the Gaussian elimination of
the poked cube's bigon (`cube._bigon_reduction`) and one carry table
between its through slice and the cube without the pair, again with the
Koszul sign.  The R3 map is Bar-Natan's cone formula on the triangle
crossings (`r3.triangle_map`, one op built from the same reduction); kinks
on the triangle's sides come off by R1 ops before it and go back on by R1
ops after.  No map resolves more of a cube than the vertices it reaches.

Only the ring depends on the theory: all else a map builds is kept on the
still it reads from, its resolutions and label tables and, per event, an
entry (`_event`) with the rewrite, its arc hints and every piece table, so
maps of every theory between two stills rewrite, resolve and plan once.
`ChainMapRep.apply` is the linear extension of the ops and `of_generator`
one generator's image, computed on each call: no caller asks for one twice.
One sweep (`_sweep`, over the stills `Movie.replay` took from the entries)
carries an element per theory: `bn_and_kj` a Bar-Natan and a Khovanov
element; `eval_movie` is the one-theory sweep.

Evaluating a closed movie on 1 gives the endomorphism of the ground ring:
its absolute value is the deformed invariant (a polynomial in t), whose
value at t = 0 is the undeformed integer invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .algebra import LABELS, PLUS, TPoly, Theory
from .cube import (
    CAP,
    CUP,
    DEFAULT_CAP,
    DOTTED_CAP,
    DOTTED_CUP,
    CochainElement,
    CubeComplex,
    Generator,
    Piece,
    _bigon_reduction,
    _piece_op,
    apply_linear,
    build_cube,
    koszul_to_front,
)
from .diagram import LinkDiagram, transfer
from .errors import (
    KhovalError,
    MoveError,
    NonMonomialError,
    ParseError,
    TheoryError,
    ValidationError,
)
from .moves import ESI, MoveInfo, apply_esi, apply_esi_info

__all__ = [
    "ChainMapRep",
    "Movie",
    "MovieReport",
    "esi_chain_map",
    "r3_equivalence",
    "eval_movie",
    "bn_invariant",
    "bn_and_kj",
    "kj_number",
    "punctured_eval",
    "connected_sum",
    "concatenate",
    "trivial_surface_movie",
    "punctured_from_empty",
    "punctured_to_empty",
    "torus_with_detour_movie",
    "canonical_movies",
    "movie_to_json",
    "movie_from_json",
]

ESI_Q_DEGREE = {"birth": 1, "death": 1, "saddle": -1, "r1": 0, "r2": 0, "r3": 0}


class ChainMapRep:
    """A chain map between two cube complexes: its ops (see `cube`) applied in turn.

    `apply` is the linear extension: an element's terms go through the ops
    together and are summed once by `cube.apply_linear`; `of_generator` is
    one generator's image, refusing one that does not fit its vertex of the
    source.  Every op after the first is memoized, as its inputs recur; only
    the cube vertices the images reach are resolved.
    """

    def __init__(self, source: CubeComplex, target: CubeComplex, q_degree: int, first, *rest):
        self.source = source
        self.target = target
        self.q_degree = q_degree
        self._ops = (first, *map(cache, rest))

    def of_generator(self, g: Generator) -> CochainElement:
        self.source.check_generator(g)
        return CochainElement(self.target, apply_linear([(g, self.source.ring.one)], *self._ops))

    def apply(self, x: CochainElement) -> CochainElement:
        if x.cube is not self.source:
            raise KhovalError("element does not live on the map's source")
        return CochainElement(self.target, apply_linear(x.terms.items(), *self._ops))


# -- the chain maps: ops, most of them a table of pieces per source vertex ---------


class _Event(dict):
    """An event's entry in its source still's `maps`: the rewrite (`target`, `info`), its
    arc hints for `transfer` (`hints`: each arc of the arc map to its one image), and by
    key the piece tables of the event's maps, shared by every theory."""

    __slots__ = ("target", "info", "hints")

    def __init__(self, target: LinkDiagram, info: MoveInfo):  # starts with no table
        self.target, self.info = target, info
        self.hints = {a: (b,) for a, b in info.arc_map.items()}


def _event(still: LinkDiagram, event: ESI) -> _Event:
    """The event's entry on `still`, rewriting it on first use."""
    entry = still.maps.get(event)
    if entry is None:
        entry = still.maps[event] = _Event(*apply_esi_info(still, event))
    return entry


def esi_chain_map(
    event: ESI,
    src: CubeComplex,
    tgt: CubeComplex,
    th: Theory | None = None,
) -> ChainMapRep:
    """The chain map induced by one elementary string interaction; `th` is the cubes' theory."""
    if th is not None and not isinstance(th, Theory):
        raise TheoryError(f"unknown theory {th!r}")
    th = th or src.theory
    if src.theory is not th or tgt.theory is not th:
        raise KhovalError("cube theories do not match the requested theory")
    if (entry := _event(src.diagram, event)).target != tgt.diagram:
        raise MoveError("target cube was not built from the rewritten diagram")
    return _event_map(event, entry, src, tgt)


def _event_map(event: ESI, entry: _Event, src: CubeComplex, tgt: CubeComplex) -> ChainMapRep:
    """The chain map of an event from `src`'s still, whose `entry` holds its rewrite and tables."""
    kind, info = event.kind, entry.info
    if kind == "r2":
        return ChainMapRep(src, tgt, 0, *_r2_ops(src, tgt, entry))
    if kind == "r3":
        return ChainMapRep(src, tgt, 0, *_r3_ops(src, tgt, entry))
    if kind in ("birth", "death", "saddle"):
        vertex = _morse(src, tgt, entry)
    elif info.variant == "remove":  # the rewrite knows only these kinds
        vertex = _r1_remove(src, tgt, entry)
    else:
        vertex = _r1_add(src, tgt, entry.hints, info.loop_arc, info.strand_arc, info.positive)
    return ChainMapRep(src, tgt, ESI_Q_DEGREE[kind], _piece_op(tgt, vertex, entry, kind))


def _morse(src, tgt, entry: _Event):
    """Birth, death or saddle: a cup, a cap or a saddle at every vertex."""
    info, hints = entry.info, entry.hints

    def vertex(mask: int) -> tuple[Piece, ...]:
        src_res, tgt_res = src.circles(mask), tgt.circles(mask)
        births = {tgt_res.circle_of[info.created_arcs[0]]: CUP} if info.kind == "birth" else None
        deaths = {src_res.circle_of[info.victim_arcs[0]]: CAP} if info.kind == "death" else None
        return (Piece(mask, 1, transfer(src_res, tgt_res, hints), births, deaths),)

    return vertex


def _r1_add(src, tgt, hints, loop_arc: int, strand_arc: int, positive: bool, position: int = 0):
    """The R1 addition of a kink that becomes crossing `position` of the target.

    A negative kink is 1-smoothed and born by a cup; a positive one is
    0-smoothed: a dotted cup minus a cup with a dot on the strand.
    """

    def vertex(mask: int) -> tuple[Piece, ...]:
        low = mask & ((1 << position) - 1)
        tgt_mask = low | (0 if positive else 1 << position) | (mask ^ low) << 1
        sign = koszul_to_front(tgt_mask, (position,), tgt.n)[1] if position else 1
        tgt_res = tgt.circles(tgt_mask)
        plan = transfer(src.circles(mask), tgt_res, hints)
        kink = tgt_res.circle_of[loop_arc]
        if not positive:
            return (Piece(tgt_mask, sign, plan, {kink: CUP}),)
        strand = tgt_res.circle_of[strand_arc]
        return (Piece(tgt_mask, sign, plan, {kink: DOTTED_CUP}),
                Piece(tgt_mask, -sign, plan, {kink: CUP}, dots=(strand,)))

    return vertex


def _r1_remove(src, tgt, entry: _Event):
    """The R1 removal, from the kink's 0-smoothing when positive, else its 1-smoothing.

    A positive kink dies by a cap; a negative one by a dotted cap minus a
    cap with a dot on the strand.
    """
    info, hints = entry.info, entry.hints
    positive, idx = info.positive, info.positions[0]

    def vertex(mask: int) -> tuple[Piece, ...]:
        rmask, sign = koszul_to_front(mask, (idx,), src.n)
        if rmask & 1 != (0 if positive else 1):
            return ()
        tgt_mask = rmask >> 1
        src_res, tgt_res = src.circles(mask), tgt.circles(tgt_mask)
        plan = transfer(src_res, tgt_res, hints)
        kink = src_res.circle_of[info.loop_arc]
        if positive:
            return (Piece(tgt_mask, sign, plan, deaths={kink: CAP}),)
        strand = tgt_res.circle_of[info.strand_arc]
        return (Piece(tgt_mask, sign, plan, deaths={kink: DOTTED_CAP}),
                Piece(tgt_mask, -sign, plan, deaths={kink: CAP}, dots=(strand,)))

    return vertex


def _r2_ops(src: CubeComplex, tgt: CubeComplex, entry: _Event):
    """The two ops of the R2 map, by the Gaussian elimination of the poked cube's bigon.

    The carry takes a vertex of the bare cube to the poked cube's through
    slice (the pair's first crossing 0-smoothed, its second 1-smoothed) or
    back, along the arc hints, with the Koszul sign of moving the pair to
    the front.  Addition (the pair at positions 0, 1) is g after the carry,
    removal the carry after f (`cube._bigon_reduction`).
    """
    info, hints = entry.info, entry.hints
    add = info.variant == "add"
    zi, wi = (0, 1) if add else info.positions
    inner = {info.pieces["u2"], info.pieces["o2"]}
    f, g, _ = _bigon_reduction(tgt if add else src, inner, zi, wi, entry, "h")

    def carry(mask: int) -> tuple[Piece, ...]:
        if add:
            tgt_mask, sign = mask << 2 | 0b10, 1
        else:
            tgt_mask, sign = koszul_to_front(mask, info.positions, src.n)
            tgt_mask >>= 2
        return (Piece(tgt_mask, sign, transfer(src.circles(mask), tgt.circles(tgt_mask), hints)),)

    carried = _piece_op(tgt, carry, entry, "r2")
    return (carried, g) if add else (f, carried)


# -- the R3 map -------------------------------------------------------------------


def _r3_ops(src: CubeComplex, tgt: CubeComplex, entry: _Event, back: bool = False) -> list:
    """The ops of the R3 map of the event of `entry`, or with `back` of the same rule run back.

    Kinks on the sides come off by R1, the bare triangle moves by
    `r3.triangle_map`, and the kinks go back on by R1, the last removed first.
    A removal is that R1 event's map, whose entry keeps the bare still; the
    bare still keeps the table of the addition that undoes it.
    """
    from .r3 import triangle_map  # loaded with the first r3 move, as in `moves`

    info = entry.info
    first = [info.pieces[k] for k in ("top", "middle", "bottom")]
    arcs = [first, [info.arc_map[a] for a in first]][::-1 if back else 1]
    removals, additions, cubes = [], [], [src, tgt]
    for side, cid in itertools.product((0, 1), info.kinks):
        removal = ESI("r1", variant="remove", crossing=cid)
        removed = _event(cubes[side].diagram, removal)
        bare, step = CubeComplex(removed.target, src.theory, cap=src.n), removed.info
        arcs[side] = [step.arc_map.get(a, a) for a in arcs[side]]
        if side == 0:
            removals.append(_piece_op(bare, _r1_remove(cubes[0], bare, removed), removed, "r1"))
        else:  # the addition that undoes this removal
            hints: dict[int, list[int]] = {}
            for old, new in step.arc_map.items():
                hints.setdefault(new, []).append(old)
            vertex = _r1_add(bare, cubes[1], hints, step.loop_arc, min(step.arc_map),
                             step.positive, step.positions[0])
            additions.append(_piece_op(cubes[1], vertex, removed.target.maps, ("undo", removal)))
        cubes[side] = bare
    *positions, c = (cubes[0].diagram.crossing_by_id(src.diagram.crossings[p].cid)[0]
                     for p in (*info.positions, info.pieces["c"]))
    triangle = triangle_map(cubes[0], cubes[1], positions, c, set(arcs[0]), set(arcs[1]),
                            entry, back)
    return [*removals, triangle, *additions[::-1]]


def r3_equivalence(event: ESI, src: CubeComplex, tgt: CubeComplex) -> tuple[ChainMapRep, ...]:
    """The triangle move's map and the same rule run back from the target."""
    if event.kind != "r3" or (entry := _event(src.diagram, event)).target != tgt.diagram:
        raise MoveError("target cube was not built from the r3-rewritten diagram")
    return (ChainMapRep(src, tgt, 0, *_r3_ops(src, tgt, entry)),
            ChainMapRep(tgt, src, 0, *_r3_ops(tgt, src, entry, back=True)))


# -- movies ----------------------------------------------------------------------


@dataclass(frozen=True)
class MovieReport:
    ok: bool
    index: int | None = None
    reason: str | None = None


class Movie:
    """An ordered list of ESIs replayed from the empty (or unknot) diagram."""

    def __init__(self, events, initial: str = "empty"):
        if initial not in ("empty", "unknot"):
            raise ParseError(f"unknown initial still {initial!r}")
        self.events: tuple[ESI, ...] = tuple(events)
        self.initial = initial
        self._replay: tuple[list[LinkDiagram], list[_Event], MovieReport] | None = None

    def initial_diagram(self) -> LinkDiagram:
        return LinkDiagram() if self.initial == "empty" else LinkDiagram([], [(1, 2)])

    def replay(self):
        """(stills up to failure, each event's entry on its source still, validation report).

        Failure indices are 1-based: event 1 is the first event.
        """
        if self._replay is None:
            stills = [self.initial_diagram()]
            entries: list[_Event] = []
            report = MovieReport(True)
            for k, event in enumerate(self.events):
                try:
                    entry = _event(stills[-1], event)
                except KhovalError as exc:
                    report = MovieReport(False, k + 1, str(exc))
                    break
                stills.append(entry.target)
                entries.append(entry)
            self._replay = (stills, entries, report)
        return self._replay

    def stills(self) -> list[LinkDiagram]:
        stills, _, report = self.replay()
        if not report.ok:
            raise ValidationError(report.index, report.reason)
        return stills

    def validate(self) -> MovieReport:
        return self.replay()[2]

    def is_closed(self) -> bool:
        return self.stills()[-1].is_empty()

    def __eq__(self, other):
        if not isinstance(other, Movie):
            return NotImplemented
        return self.events == other.events and self.initial == other.initial

    def __repr__(self):
        return f"Movie({len(self.events)} events, initial={self.initial!r})"


def _sweep(m: Movie, theories: tuple[Theory, ...], start_label: int | None = None,
           cap: int = DEFAULT_CAP):
    """Yield one element per theory: at the start, then after each event.

    Each event's pieces are computed once, into its entry on the source
    still, and applied in every theory's ring.  A zero element builds no more
    maps, but every still is still checked against the cap.
    """
    if start_label is not None and (type(start_label) is not int or start_label not in LABELS):
        raise KhovalError(f"start label must be PLUS (0) or MINUS (1), not {start_label!r}")
    stills, entries = m.stills(), m.replay()[1]
    if m.initial == "empty":
        if start_label is not None:
            raise KhovalError("a movie from the empty diagram starts at 1")
        start = Generator(0, ())
    else:
        start = Generator(0, (PLUS if start_label is None else start_label,))
    xs = [build_cube(stills[0], th, cap=cap).basis_element(start) for th in theories]
    yield xs
    for event, entry, still in zip(m.events, entries, stills[1:]):
        xs = [_event_map(event, entry, x.cube, cube).apply(x) if x.terms
              else CochainElement(cube, {})
              for x, cube in zip(xs, [build_cube(still, th, cap=cap) for th in theories])]
        yield xs


def eval_movie(
    m: Movie,
    th: Theory = Theory.BAR_NATAN,
    start_label: int | None = None,
    cap: int = DEFAULT_CAP,
) -> CochainElement:
    """Thread the initial element through all ESI chain maps."""
    for (x,) in _sweep(m, (th,), start_label, cap):
        pass
    return x


def _empty_value(x: CochainElement) -> TPoly | int:
    """The coefficient of an element on the empty diagram, in its cube's ring."""
    return x.terms.get(Generator(0, ()), x.cube.ring.zero)


def _closed_values(m: Movie, theories: tuple[Theory, ...], cap: int = DEFAULT_CAP) -> list:
    """The closed movie's value in each theory, from one sweep: an `int` for Lee."""
    if not m.is_closed() or m.initial != "empty":
        raise MoveError("movie is not a closed empty-to-empty movie")
    for xs in _sweep(m, theories, cap=cap):
        pass
    return [_empty_value(x) for x in xs]


def _abs_monomial(value: TPoly | int, what: str) -> TPoly | int:
    """|value| of a value that must be a monomial in t (or zero); Lee's values are `int`."""
    if isinstance(value, int):
        return abs(value)
    if value.is_zero():
        return TPoly(0)
    if not value.is_monomial():
        raise NonMonomialError(f"{what} evaluated to a non-monomial: {value}")
    ((exp, coeff),) = value.items()
    return TPoly({exp: abs(coeff)})


def bn_invariant(m: Movie, cap: int = DEFAULT_CAP) -> TPoly:
    """The deformed invariant: |closed-movie evaluation|, a monomial in t."""
    return _abs_monomial(_closed_values(m, (Theory.BAR_NATAN,), cap)[0], "closed movie")


def bn_and_kj(m: Movie, cap: int = DEFAULT_CAP) -> tuple[TPoly, int]:
    """BN and KJ from one sweep that carries a deformed and a plain element.

    KJ is the plain element's value, an evaluation in the Khovanov ring of
    its own, cross-checked against BN at t = 0.
    """
    deformed, undeformed = _closed_values(m, (Theory.BAR_NATAN, Theory.KHOVANOV), cap)
    bn = _abs_monomial(deformed, "closed movie")
    plain = abs(undeformed.coefficient(0))
    if plain != abs(bn.specialize(0)):
        raise KhovalError(
            "internal error: t=0 specialization disagrees with the plain evaluation"
        )
    return bn, plain


def kj_number(m: Movie, cap: int = DEFAULT_CAP) -> int:
    """The undeformed integer invariant; cross-checked against t = 0."""
    return bn_and_kj(m, cap)[1]


def lee_value(m: Movie, cap: int = DEFAULT_CAP) -> int:
    """Closed-movie evaluation at t = 1."""
    return _closed_values(m, (Theory.LEE,), cap)[0]


def _is_unknot_still(d: LinkDiagram) -> bool:
    return d.n == 0 and d.free_loops == 1


def punctured_eval(
    m: Movie,
    x: int | None = None,
    th: Theory = Theory.BAR_NATAN,
    cap: int = DEFAULT_CAP,
):
    """Evaluate a punctured movie: unknot -> empty on a label, or empty -> unknot on 1.

    The movie's initial still decides which: a value in the theory's ring
    from the unknot (a `TPoly`, an `int` for Lee), the element on the final
    unknot from the empty diagram.
    """
    if m.initial == "unknot":
        if not m.stills()[-1].is_empty():
            raise MoveError("to_empty movie must run from the unknot to the empty diagram")
        if x is None:
            raise MoveError("to_empty evaluation needs a starting label")
        return _empty_value(eval_movie(m, th, start_label=x, cap=cap))
    if not _is_unknot_still(m.stills()[-1]):
        raise MoveError("from_empty movie must run from the empty diagram to the unknot")
    if x is not None:
        raise MoveError("a from_empty movie starts at 1 and takes no label")
    return eval_movie(m, th, cap=cap)


def connected_sum(
    m1: Movie, m2: Movie, th: Theory = Theory.BAR_NATAN, cap: int = DEFAULT_CAP
) -> TPoly | int:
    """Compose punctured evaluations: m1 (empty->unknot) then m2 (unknot->empty)."""
    if m1.initial != "empty" or m2.initial != "unknot":
        raise MoveError("a connected sum needs an empty-to-unknot movie, then unknot-to-empty")
    element = punctured_eval(m1, th=th, cap=cap)
    total = element.cube.ring.zero
    for g, coeff in element.terms.items():
        (label,) = g.labels
        total = total + coeff * punctured_eval(m2, label, th, cap)
    return _abs_monomial(total, "connected sum")


# -- concatenation -----------------------------------------------------------------


def concatenate(m1: Movie, m2: Movie) -> Movie:
    """Glue a movie ending at the unknot to one starting there."""
    if m2.initial != "unknot":
        raise MoveError("second movie must start at the unknot")
    final = m1.stills()[-1]
    if not _is_unknot_still(final):
        raise MoveError("first movie must end at a trivial-knot still")
    lp = final.loops[0]
    if len(lp) != 2:
        raise MoveError("gluing needs a two-arc final circle")
    arc_map = {1: lp[0], 2: lp[1]}
    cross_map: dict[int, int] = {}
    d_concat = final
    d_solo = m2.initial_diagram()
    events = list(m1.events)
    for e in m2.events:
        try:
            e_t = e.renamed(arc_map, cross_map)
        except KeyError as exc:
            raise MoveError(f"cannot translate event {e}: unknown id {exc}") from exc
        d_concat, info_c = apply_esi_info(d_concat, e_t)
        d_solo, info_s = apply_esi_info(d_solo, e)
        if len(info_c.created_arcs) != len(info_s.created_arcs):
            raise MoveError("concatenation lost arc correspondence")
        for a_s, a_c in zip(info_s.created_arcs, info_c.created_arcs):
            arc_map[a_s] = a_c
        for c_s, c_c in zip(info_s.created_crossings, info_c.created_crossings):
            cross_map[c_s] = c_c
        events.append(e_t)
    return Movie(events, m1.initial)


# -- canonical movies ----------------------------------------------------------------


def _tubes(d: LinkDiagram, genus: int) -> tuple[list[ESI], LinkDiagram]:
    """`genus` tubes on the unique free loop of `d`, each a split and a merge back."""
    events: list[ESI] = []
    for _ in range(genus):
        lp = d.loops[0]
        if len(lp) < 2:
            raise MoveError("tube needs a circle with two addressable arcs")
        split = ESI("saddle", arcs=(lp[0], lp[1]))
        d = apply_esi(d, split)
        merge = ESI("saddle", arcs=(d.loops[-2][0], d.loops[-1][0]))
        d = apply_esi(d, merge)
        events += [split, merge]
    return events, d


def _from_empty(genus: int) -> tuple[list[ESI], LinkDiagram]:
    """The events of `punctured_from_empty(genus)` and the unknot they end at."""
    if genus < 0:
        raise KhovalError("genus must be non-negative")
    birth = ESI("birth")
    events, d = _tubes(apply_esi(LinkDiagram(), birth), genus)
    return [birth, *events], d


def trivial_surface_movie(genus: int) -> Movie:
    """The standard closed surface of a given genus: birth, tubes, death."""
    events, d = _from_empty(genus)
    return Movie([*events, ESI("death", circle=min(d.loops[0]))])


def punctured_from_empty(genus: int) -> Movie:
    """Trivial genus-g surface with the puncture at the end: empty -> unknot."""
    return Movie(_from_empty(genus)[0])


def punctured_to_empty(genus: int) -> Movie:
    """Trivial genus-g surface with the puncture at the start: unknot -> empty."""
    events, d = _tubes(LinkDiagram([], [(1, 2)]), genus)
    return Movie([*events, ESI("death", circle=min(d.loops[0]))], initial="unknot")


def torus_with_detour_movie() -> Movie:
    """The torus movie with an R2 poke and its removal inserted in the middle."""
    events, d = [], LinkDiagram()

    def step(event: ESI) -> MoveInfo:
        nonlocal d
        d, info = apply_esi_info(d, event)
        events.append(event)
        return info

    step(ESI("birth"))
    step(ESI("saddle", arcs=d.loops[0][:2]))
    poke = step(ESI("r2", variant="add", arcs=(d.loops[-2][0], d.loops[-1][0])))
    step(ESI("r2", variant="remove", crossings=tuple(poke.created_crossings)))
    step(ESI("saddle", arcs=(d.loops[-2][0], d.loops[-1][0])))
    step(ESI("death", circle=min(d.loops[0])))
    return Movie(events)


def canonical_movies() -> dict[str, Movie]:
    movies = {
        "sphere": trivial_surface_movie(0),
        "torus": trivial_surface_movie(1),
        "torus_r2_detour": torus_with_detour_movie(),
    }
    for g in range(2, 6):
        movies[f"genus{g}"] = trivial_surface_movie(g)
    return movies


# -- JSON ------------------------------------------------------------------------------


def movie_to_json(m: Movie) -> dict:
    out: dict = {"movie": [e.to_json() for e in m.events]}
    if m.initial != "empty":
        out["initial"] = m.initial
    return out


def movie_from_json(obj: dict) -> Movie:
    if not isinstance(obj, dict) or not isinstance(obj.get("movie"), list):
        raise ParseError("movie file must be an object with a 'movie' list")
    return Movie([ESI.from_json(e) for e in obj["movie"]], obj.get("initial", "empty"))
