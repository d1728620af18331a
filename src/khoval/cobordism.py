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
circle-transfer plan read through the rewrite's arc map, with cups, caps and
dots).  Birth, death and saddle share one Morse table, and one R1 rule
(`_r1`) serves additions and removals, of R1 events and of R3's side kinks,
with the Koszul sign of moving the kink to the front of the crossing order.
R2 is two ops: the Gaussian elimination of the poked cube's bigon
(`cube._bigon_reduction`) and one carry table (`cube._carry_rule`) between
its through slice and the cube without the pair, again with the Koszul
sign.  The R3 map is Bar-Natan's cone formula on the triangle crossings
(`r3.triangle_map`, one op built from the same reduction and carry rule);
kinks on the triangle's sides come off by R1 ops before it and go back on
by R1 ops after.  No map resolves more of a cube than the vertices it
reaches.

Only the ring depends on the theory: all else a map builds is kept on the
still it reads from, its resolutions and, per event, an entry (`_event`)
with the rewrite and every piece table, so maps of every theory between two
stills rewrite, resolve and plan once; the label tables of the cube edges
are kept once per process (`cube.label_table`).  `ChainMapRep.apply` is the
linear extension of the ops and `of_generator` one generator's image,
computed on each call: no caller asks for one twice.  One sweep (`_sweep`,
over the stills `Movie.replay` took from the entries) carries an element per
theory: `bn_and_kj` a Bar-Natan and a Khovanov element; `eval_movie` is the
one-theory sweep.  The sweep builds an R2 or R3 map per theory, but for a
Morse or R1 event it builds the rule `vertex(mask) -> pieces` once (`_vertex`)
and maps every theory's element through the event's table in one pass
(`cube._apply_table`), making no `ChainMapRep` or op: per-term work, not
planning, dominates a movie.

Evaluating a closed movie on 1 gives the endomorphism of the ground ring:
its absolute value is the deformed invariant (a polynomial in t), whose
value at t = 0 is the undeformed integer invariant.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple

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
    _apply_table,
    _bigon_reduction,
    _carry_rule,
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
    """An event's entry in its source still's `maps`: the rewrite (`target`, `info`, whose
    arc map is the hints for `transfer`), and by key the piece tables of the event's maps,
    shared by every theory."""

    __slots__ = ("target", "info")

    def __init__(self, target: LinkDiagram, info: MoveInfo):  # starts with no table
        self.target, self.info = target, info


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
    return _event_map(entry, src, tgt)


def _event_map(entry: _Event, src: CubeComplex, tgt: CubeComplex) -> ChainMapRep:
    """The chain map of the event whose `entry` on `src`'s still holds its rewrite and tables."""
    kind = entry.info.kind
    if kind == "r2":
        return ChainMapRep(src, tgt, 0, *_r2_ops(src, tgt, entry))
    if kind == "r3":
        return ChainMapRep(src, tgt, 0, *_r3_ops(src, tgt, entry))
    return ChainMapRep(src, tgt, ESI_Q_DEGREE[kind],
                       _piece_op(tgt, _vertex(entry, src, tgt), entry, kind))


def _vertex(entry: _Event, src: CubeComplex, tgt: CubeComplex):
    """The rule `vertex(mask) -> pieces` of a Morse or R1 event, whose table is `entry[kind]`;
    it reads only the stills' resolutions, so the cubes of any one theory serve all."""
    info = entry.info
    if info.kind != "r1":
        return _morse(src, tgt, info)
    add = info.variant != "remove"
    return _r1(src, tgt, info.arc_map, info.loop_arc, info.strand_arc, info.positive,
               0 if add else info.positions[0], add)


def _morse(src, tgt, info: MoveInfo):
    """Birth, death or saddle: a cup, a cap or a saddle at every vertex."""

    def vertex(mask: int) -> tuple[Piece, ...]:
        src_res, tgt_res = src.circles(mask), tgt.circles(mask)
        births = {tgt_res.circle_of[info.created_arcs[0]]: CUP} if info.kind == "birth" else None
        deaths = {src_res.circle_of[info.victim_arcs[0]]: CAP} if info.kind == "death" else None
        return (Piece(mask, 1, transfer(src_res, tgt_res, info.arc_map), births, deaths),)

    return vertex


def _r1(src, tgt, arc_map: dict, kink_arc: int, strand_arc: int, positive: bool,
        position: int, add: bool):
    """R1 at the kink that is crossing `position` of the kinked still: added to the bare
    still `src` when `add`, else removed from the kinked still `src`.

    The map runs through the kink's 0-smoothing when it is positive, else its
    1-smoothing (a removal sends the other to 0).  The kink is born by a cup or
    dies by a cap, but a positive addition is a dotted cup minus a cup with a
    dot on the strand, and a negative removal a dotted cap minus a cap with a
    dot on the strand.  The Koszul sign of moving the kink to the front is -1
    when it is 1-smoothed after an odd number of 1-smoothed crossings.
    """
    bit, low = (not positive) << position, (1 << position) - 1
    plain, dotted = (CUP, DOTTED_CUP) if add else (CAP, DOTTED_CAP)

    def vertex(mask: int) -> tuple[Piece, ...]:
        if add:
            kinked = tgt_mask = mask & low | bit | (mask & ~low) << 1
        elif mask & 1 << position != bit:
            return ()
        else:
            kinked, tgt_mask = mask, mask & low | mask >> 1 & ~low
        sign = -1 if bit and (kinked & low).bit_count() & 1 else 1
        src_res, tgt_res = src.circles(mask), tgt.circles(tgt_mask)
        plan = transfer(src_res, tgt_res, arc_map)
        kink = (tgt_res if add else src_res).circle_of[kink_arc]

        def piece(sign: int, label: int, dots=()) -> Piece:  # the kink born or dying on `label`
            ends = {kink: label}
            return Piece(tgt_mask, sign, plan, ends if add else None, None if add else ends, dots)

        if positive != add:
            return (piece(sign, plain),)
        return (piece(sign, dotted), piece(-sign, plain, (tgt_res.circle_of[strand_arc],)))

    return vertex


def _r2_ops(src: CubeComplex, tgt: CubeComplex, entry: _Event):
    """The two ops of the R2 map, by the Gaussian elimination of the poked cube's bigon.

    The carry takes a vertex of the bare cube to the poked cube's through
    slice (the pair's first crossing 0-smoothed, its second 1-smoothed) or
    back, along the arc map, with the Koszul sign of moving the pair to
    the front.  Addition (the pair at positions 0, 1) is g after the carry,
    removal the carry after f (`cube._bigon_reduction`).
    """
    info = entry.info
    add = info.variant == "add"
    zi, wi = (0, 1) if add else info.positions
    inner = {info.pieces["u2"], info.pieces["o2"]}
    f, g, _ = _bigon_reduction(tgt if add else src, inner, zi, wi, entry, "h")

    def target(mask: int) -> tuple[int, int]:
        if add:
            return mask << 2 | 0b10, 1
        tgt_mask, sign = koszul_to_front(mask, info.positions, src.n)
        return tgt_mask >> 2, sign

    carried = _piece_op(tgt, _carry_rule(src, tgt, info.arc_map, target), entry, "r2")
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
            removals.append(_piece_op(bare, _vertex(removed, cubes[0], bare), removed, "r1"))
        else:  # the addition that undoes this removal: the fused kink's ends p and r
            # lie on one circle in every smoothing, so either one is the fused arc's image
            undo = {new: old for old, new in step.arc_map.items()}
            vertex = _r1(bare, cubes[1], undo, step.loop_arc, min(step.arc_map),
                         step.positive, step.positions[0], True)
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


class MovieReport(NamedTuple):
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
    still, and applied in every theory's ring: a Morse or R1 event's by one
    rule for all theories and one pass per element, an R2 or R3 event's by
    each theory's `ChainMapRep`.  A zero element builds no more maps, but
    every still is still checked against the cap.
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
    for entry, still in zip(entries, stills[1:]):
        cubes = [build_cube(still, th, cap=cap) for th in theories]
        if (kind := entry.info.kind) in ("r2", "r3") or not any(x.terms for x in xs):
            xs = [_event_map(entry, x.cube, cube).apply(x) if x.terms
                  else CochainElement(cube, {}) for x, cube in zip(xs, cubes)]
        else:
            vertex, table = _vertex(entry, xs[0].cube, cubes[0]), entry.setdefault(kind, {})
            xs = [CochainElement(cube, _apply_table(cube, table, vertex, x.terms.items()))
                  for x, cube in zip(xs, cubes)]
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
    """The movie of a JSON object: a `movie` list and an optional `initial`, no other key."""
    if not isinstance(obj, dict) or not isinstance(obj.get("movie"), list):
        raise ParseError("movie file must be an object with a 'movie' list")
    if stray := obj.keys() - {"movie", "initial"}:
        raise ParseError(f"movie file has an unknown key {min(stray, key=str)!r}")
    return Movie([ESI.from_json(e) for e in obj["movie"]], obj.get("initial", "empty"))
