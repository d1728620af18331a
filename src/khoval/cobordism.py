"""Movie presentations of link cobordisms and their chain-level evaluation.

A movie is a sequence of elementary string interactions starting from the
empty diagram (or from a trivial knot, for punctured evaluations).  Each
event induces a chain map between the cube complexes of consecutive stills:
birth and death have q-degree +1, a saddle -1, and the Reidemeister moves
are degree-0 homotopy equivalences.

Morse and R1 maps are tables `vertex(mask) -> pieces`, computed once per
source vertex: a signed sum of dotted cobordisms (`cube.Piece`: a
circle-transfer plan read through the move's arc hints, with cups, caps and
dots), applied by `cube.apply_pieces`.  Birth, death and saddle share one
Morse table.  The R1 tables act on a crossing moved to the front of the
crossing order, so they carry the Koszul sign of that reordering: positive
R1 addition is a dotted cup minus a cup with a dot on the strand, negative
R1 removal a dotted cap minus a cap with a dot on the strand.  R2 is the
Gaussian elimination of the poked cube's bigon (`cube._bigon_reduction`)
and one carry table between its through slice and the cube without the
pair, again with the Koszul sign.  The R3 map is Bar-Natan's cone formula
on the triangle crossings (`r3.triangle_map`, built from the same
reduction); kinks on the triangle's sides come off by R1 before it and go
back on after.  No map resolves more of a cube than the vertices it reaches.
`eval_movie` reuses the rewrites that `Movie.replay` recorded; the public
`esi_chain_map` redoes the rewrite and checks it against the target cube.

Evaluating a closed movie on 1 gives the endomorphism of the ground ring:
its absolute value is the deformed invariant (a polynomial in t), whose
value at t = 0 is the undeformed integer invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .algebra import PLUS, TPoly, Theory
from .cube import (
    CAP,
    CUP,
    DEFAULT_CAP,
    DOTTED_CAP,
    DOTTED_CUP,
    _ONE,
    CochainElement,
    CubeComplex,
    Generator,
    Piece,
    _bigon_reduction,
    _piece_op,
    apply_linear,
    apply_pieces,
    build_cube,
    koszul_to_front,
)
from .diagram import LinkDiagram, transfer
from .errors import (
    KhovalError,
    MoveError,
    NonMonomialError,
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
    "validate_movie",
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
    """A chain map between two cube complexes, applied generator by generator.

    Images are memoized, and only the cube vertices they reach are resolved.
    """

    def __init__(
        self,
        source: CubeComplex,
        target: CubeComplex,
        q_degree: int,
        fn: Callable[[Generator], CochainElement],
    ):
        self.source = source
        self.target = target
        self.q_degree = q_degree
        self._fn = fn
        self._memo: dict[Generator, CochainElement] = {}

    def of_generator(self, g: Generator) -> CochainElement:
        out = self._memo.get(g)
        if out is None:
            out = self._fn(g)
            self._memo[g] = out
        return out

    def apply(self, x: CochainElement) -> CochainElement:
        if x.cube is not self.source:
            raise KhovalError("element does not live on the map's source")
        return CochainElement(
            self.target, apply_linear(x.terms.items(), lambda g: self.of_generator(g).terms.items())
        )


# -- the chain maps: a table of pieces per source vertex ------------------------


def _hint_tuples(arc_map: dict[int, int]) -> dict[int, tuple[int, ...]]:
    return {a: (b,) for a, b in arc_map.items()}


def esi_chain_map(
    event: ESI,
    src: CubeComplex,
    tgt: CubeComplex,
    th: Theory | None = None,
) -> ChainMapRep:
    """The chain map induced by one elementary string interaction."""
    th = th or src.theory
    if src.theory is not th or tgt.theory is not th:
        raise KhovalError("cube theories do not match the requested theory")
    rewritten, info = apply_esi_info(src.diagram, event)
    if rewritten != tgt.diagram:
        raise MoveError("target cube was not built from the rewritten diagram")
    return _event_map(event, info, src, tgt)


def _event_map(event: ESI, info: MoveInfo, src: CubeComplex, tgt: CubeComplex) -> ChainMapRep:
    """The chain map of an event whose rewrite `info` is already known."""
    kind = event.kind
    if kind in ("r2", "r3"):
        return ChainMapRep(src, tgt, 0, (_r2_fn if kind == "r2" else _r3_fn)(src, tgt, info))
    if kind in ("birth", "death", "saddle"):
        vertex = _morse(src, tgt, info)
    elif kind == "r1" and info.variant == "remove":
        vertex = _r1_remove(src, tgt, info)
    elif kind == "r1":
        hints = _hint_tuples(info.arc_map)
        vertex = _r1_add(src, tgt, hints, info.loop_arc, info.strand_arc, info.positive)
    else:
        raise MoveError(f"unknown ESI kind {kind!r}")
    return _piece_map(src, tgt, ESI_Q_DEGREE[kind], vertex)


def _piece_map(src: CubeComplex, tgt: CubeComplex, q_degree: int, vertex) -> ChainMapRep:
    """The chain map sending a generator through the pieces `vertex(mask)` of its vertex."""
    vertex = cache(vertex)

    def fn(g: Generator) -> CochainElement:
        return CochainElement(tgt, apply_pieces(vertex(g.mask), g.labels, tgt.ring))

    return ChainMapRep(src, tgt, q_degree, fn)


def _morse(src, tgt, info: MoveInfo):
    """Birth, death or saddle: a cup, a cap or a saddle at every vertex."""
    hints = _hint_tuples(info.arc_map)

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


def _r1_remove(src, tgt, info: MoveInfo):
    """The R1 removal, from the kink's 0-smoothing when positive, else its 1-smoothing.

    A positive kink dies by a cap; a negative one by a dotted cap minus a
    cap with a dot on the strand.
    """
    hints = _hint_tuples(info.arc_map)
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


def _r2_fn(src: CubeComplex, tgt: CubeComplex, info: MoveInfo):
    """The R2 map by the Gaussian elimination of the poked cube's bigon.

    The carry takes a vertex of the bare cube to the poked cube's through
    slice (the pair's first crossing 0-smoothed, its second 1-smoothed) or
    back, along the arc hints, with the Koszul sign of moving the pair to
    the front.  Addition (the pair at positions 0, 1) is g after the carry,
    removal the carry after f (`cube._bigon_reduction`).
    """
    hints = _hint_tuples(info.arc_map)
    add = info.variant == "add"
    zi, wi = (0, 1) if add else info.positions
    f, g, _ = _bigon_reduction(tgt if add else src, {info.pieces["u2"], info.pieces["o2"]}, zi, wi)

    @cache
    def carry(mask: int) -> tuple[Piece, ...]:
        if add:
            tgt_mask, sign = mask << 2 | 0b10, 1
        else:
            tgt_mask, sign = koszul_to_front(mask, info.positions, src.n)
            tgt_mask >>= 2
        return (Piece(tgt_mask, sign, transfer(src.circles(mask), tgt.circles(tgt_mask), hints)),)

    ops = (_piece_op(tgt, carry), g) if add else (f, _piece_op(tgt, carry))
    return lambda x: CochainElement(tgt, apply_linear([(x, _ONE)], *ops))


# -- the R3 map -------------------------------------------------------------------


def _r3_fn(src: CubeComplex, tgt: CubeComplex, info: MoveInfo, back: bool = False):
    """The R3 map of a move, or with `back` the same rule from its target to its source.

    Kinks on the sides come off by R1, the bare triangle moves by
    `r3.triangle_map`, and the kinks go back on by R1.
    """
    from .r3 import triangle_map  # loaded with the first r3 move, as in `moves`

    first = [info.pieces[k] for k in ("top", "middle", "bottom")]
    arcs = [first, [info.arc_map[a] for a in first]][::-1 if back else 1]
    maps, cubes, k = [], [src, tgt], len(info.kinks)
    for side, cid in itertools.product((0, 1), info.kinks):
        d, step = apply_esi_info(cubes[side].diagram, ESI("r1", variant="remove", crossing=cid))
        bare = CubeComplex(d, src.theory, cap=src.n)
        arcs[side] = [step.arc_map.get(a, a) for a in arcs[side]]
        if side == 0:
            maps.append(_piece_map(cubes[0], bare, 0, _r1_remove(cubes[0], bare, step)))
        else:  # the addition that undoes this removal, applied last
            hints: dict[int, list[int]] = {}
            for old, new in step.arc_map.items():
                hints.setdefault(new, []).append(old)
            add = _r1_add(bare, cubes[1], hints, step.loop_arc, min(step.arc_map),
                          step.positive, step.positions[0])
            maps.insert(k, _piece_map(bare, cubes[1], 0, add))
        cubes[side] = bare
    *positions, c = (cubes[0].diagram.crossing_by_id(src.diagram.crossings[p].cid)[0]
                     for p in (*info.positions, info.pieces["c"]))
    triangle = triangle_map(cubes[0], cubes[1], positions, c, set(arcs[0]), set(arcs[1]))
    if not k:
        return triangle
    maps.insert(k, ChainMapRep(cubes[0], cubes[1], 0, triangle))

    def fn(g: Generator) -> CochainElement:
        x = maps[0].of_generator(g)
        for m in maps[1:]:
            x = m.apply(x)
        return x

    return fn


def r3_equivalence(event: ESI, src: CubeComplex, tgt: CubeComplex) -> tuple[ChainMapRep, ...]:
    """The triangle move's map and the same rule run back from the target."""
    rewritten, info = apply_esi_info(src.diagram, event)
    if event.kind != "r3" or rewritten != tgt.diagram:
        raise MoveError("target cube was not built from the r3-rewritten diagram")
    fwd, bwd = _r3_fn(src, tgt, info), _r3_fn(tgt, src, info, back=True)
    return ChainMapRep(src, tgt, 0, fwd), ChainMapRep(tgt, src, 0, bwd)


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
            raise KhovalError(f"unknown initial still {initial!r}")
        self.events: tuple[ESI, ...] = tuple(events)
        self.initial = initial
        self._replay: tuple[list[LinkDiagram], list[MoveInfo], MovieReport] | None = None

    def initial_diagram(self) -> LinkDiagram:
        if self.initial == "empty":
            return LinkDiagram()
        return LinkDiagram([], [(1, 2)])

    def replay(self):
        """(stills up to failure, move infos, validation report).

        Failure indices are 1-based: event 1 is the first event.
        """
        if self._replay is None:
            stills = [self.initial_diagram()]
            infos: list[MoveInfo] = []
            report = MovieReport(True)
            for k, event in enumerate(self.events):
                try:
                    d, info = apply_esi_info(stills[-1], event)
                except KhovalError as exc:
                    report = MovieReport(False, k + 1, str(exc))
                    break
                stills.append(d)
                infos.append(info)
            self._replay = (stills, infos, report)
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


def validate_movie(m: Movie) -> MovieReport:
    return m.validate()


def eval_movie(
    m: Movie,
    th: Theory = Theory.BAR_NATAN,
    start_label: int | None = None,
    cap: int = DEFAULT_CAP,
) -> CochainElement:
    """Thread the initial element through all ESI chain maps."""
    stills, infos, report = m.replay()
    if not report.ok:
        raise ValidationError(report.index, report.reason)
    cube = build_cube(stills[0], th, cap=cap)
    if m.initial == "empty":
        if start_label is not None:
            raise KhovalError("a movie from the empty diagram starts at 1")
        x = cube.basis_element(Generator(0, ()))
    else:
        label = PLUS if start_label is None else start_label
        x = cube.basis_element(Generator(0, (label,)))
    for event, info, still in zip(m.events, infos, stills[1:]):
        nxt = build_cube(still, th, cap=cap)
        x = _event_map(event, info, cube, nxt).apply(x)
        cube = nxt
    return x


def _closed_value(m: Movie, th: Theory, cap: int = DEFAULT_CAP) -> TPoly:
    if not m.is_closed() or m.initial != "empty":
        raise MoveError("movie is not a closed empty-to-empty movie")
    x = eval_movie(m, th, cap=cap)
    return x.terms.get(Generator(0, ()), TPoly(0))


def _abs_monomial(value: TPoly, what: str) -> TPoly:
    """|value| of a value that must be a monomial in t (or zero)."""
    if value.is_zero():
        return TPoly(0)
    if not value.is_monomial():
        raise NonMonomialError(f"{what} evaluated to a non-monomial: {value}")
    ((exp, coeff),) = value.items()
    return TPoly({exp: abs(coeff)})


def bn_invariant(m: Movie, cap: int = DEFAULT_CAP) -> TPoly:
    """The deformed invariant: |closed-movie evaluation|, a monomial in t."""
    return _abs_monomial(_closed_value(m, Theory.BAR_NATAN, cap), "closed movie")


def bn_and_kj(m: Movie, cap: int = DEFAULT_CAP) -> tuple[TPoly, int]:
    """BN and KJ from one deformed and one plain evaluation.

    KJ is the plain evaluation, cross-checked against BN at t = 0.
    """
    bn = bn_invariant(m, cap)
    plain = abs(_closed_value(m, Theory.KHOVANOV, cap).coefficient(0))
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
    return _closed_value(m, Theory.LEE, cap).coefficient(0)


def _is_unknot_still(d: LinkDiagram) -> bool:
    return d.n == 0 and d.free_loops == 1


def punctured_eval(
    m: Movie,
    x: int | None = None,
    direction: str = "to_empty",
    th: Theory = Theory.BAR_NATAN,
    cap: int = DEFAULT_CAP,
):
    """Evaluate a punctured movie: unknot -> empty on a label, or empty -> unknot on 1."""
    if direction == "to_empty":
        if m.initial != "unknot" or not m.stills()[-1].is_empty():
            raise MoveError("to_empty movie must run from the unknot to the empty diagram")
        if x is None:
            raise MoveError("to_empty evaluation needs a starting label")
        out = eval_movie(m, th, start_label=x, cap=cap)
        return out.terms.get(Generator(0, ()), TPoly(0))
    if direction == "from_empty":
        if m.initial != "empty" or not _is_unknot_still(m.stills()[-1]):
            raise MoveError("from_empty movie must run from the empty diagram to the unknot")
        if x is not None:
            raise MoveError("a from_empty movie starts at 1 and takes no label")
        return eval_movie(m, th, cap=cap)
    raise MoveError(f"unknown punctured direction {direction!r}")


def connected_sum(
    m1: Movie, m2: Movie, th: Theory = Theory.BAR_NATAN, cap: int = DEFAULT_CAP
) -> TPoly:
    """Compose punctured evaluations: m1 (empty->unknot) then m2 (unknot->empty)."""
    element = punctured_eval(m1, direction="from_empty", th=th, cap=cap)
    final = m1.stills()[-1]
    if not _is_unknot_still(final):
        raise MoveError("m1 must end at a trivial-knot still")
    total = TPoly(0)
    for g, coeff in element.terms.items():
        (label,) = g.labels
        total = total + coeff * punctured_eval(m2, label, "to_empty", th, cap)
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
    events = [ESI("birth")]
    d = apply_esi(LinkDiagram(), events[0])
    lp = d.loops[0]
    split = ESI("saddle", arcs=(lp[0], lp[1]))
    d = apply_esi(d, split)
    events.append(split)
    a = d.loops[-2][0]
    b = d.loops[-1][0]
    poke = ESI("r2", variant="add", arcs=(a, b))
    d, info = apply_esi_info(d, poke)
    events.append(poke)
    unpoke = ESI("r2", variant="remove", crossings=tuple(info.created_crossings))
    d = apply_esi(d, unpoke)
    events.append(unpoke)
    a = d.loops[-2][0]
    b = d.loops[-1][0]
    merge = ESI("saddle", arcs=(a, b))
    d = apply_esi(d, merge)
    events.append(merge)
    events.append(ESI("death", circle=min(d.loops[0])))
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
    from .errors import ParseError

    if not isinstance(obj, dict) or not isinstance(obj.get("movie"), list):
        raise ParseError("movie file must be an object with a 'movie' list")
    events = [ESI.from_json(e) for e in obj["movie"]]
    initial = obj.get("initial", "empty")
    if initial not in ("empty", "unknot"):
        raise ParseError(f"unknown initial still {initial!r}")
    return Movie(events, initial)
