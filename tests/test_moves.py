"""Rewriting rules for the six elementary string interactions."""

import itertools
import json
from pathlib import Path

import pytest

from khoval import moves
from khoval.algebra import Theory
from khoval.cobordism import Movie, canonical_movies, movie_from_json
from khoval.corpus import PD_CODES
from khoval.cube import build_cube, check_d_squared
from khoval.diagram import Faces, LinkDiagram, parse_pd, resolve
from khoval.errors import MoveError, ParseError, UnsupportedMoveError
from khoval.moves import ESI, apply_esi, apply_esi_info

from oracles import is_planar
from test_cobordism import kinked_detour_movie

MOVIES = Path(__file__).parent.parent / "movies"


def unknot():
    return parse_pd("L0")


def trefoil():
    return parse_pd(PD_CODES["trefoil"])


# -- Morse moves --------------------------------------------------------------


def test_birth_on_empty():
    d = apply_esi(LinkDiagram(), ESI("birth"))
    assert d.n == 0 and d.free_loops == 1


def test_birth_then_death_roundtrip():
    d0 = LinkDiagram()
    d1, info = apply_esi_info(d0, ESI("birth"))
    circle = min(d1.loops[0])
    d2 = apply_esi(d1, ESI("death", circle=circle))
    assert d2 == d0


def test_death_requires_free_circle():
    d = trefoil()
    with pytest.raises(MoveError):
        apply_esi(d, ESI("death", circle=1))
    with pytest.raises(MoveError):
        apply_esi(LinkDiagram(), ESI("death", circle=1))


def test_saddle_arcs_must_be_distinct():
    d = apply_esi(LinkDiagram(), ESI("birth"))
    a = d.loops[0][0]
    with pytest.raises(MoveError):
        apply_esi(d, ESI("saddle", arcs=(a, a)))


def test_saddle_split_then_merge_counts():
    d = apply_esi(LinkDiagram(), ESI("birth"))
    a, b = d.loops[0]
    d = apply_esi(d, ESI("saddle", arcs=(a, b)))
    assert d.free_loops == 2
    x, y = d.loops[0][0], d.loops[1][0]
    d = apply_esi(d, ESI("saddle", arcs=(x, y)))
    assert d.free_loops == 1
    assert len(d.loops[0]) == 2  # merged circle stays splittable


def test_saddle_on_crossing_arcs_preserves_orientability():
    d = trefoil()
    d2 = apply_esi(d, ESI("saddle", arcs=(1, 3)))
    assert d2.n == 3  # crossings untouched, arcs respliced
    assert resolve(d2, 0).count >= 1


def test_saddle_between_loop_and_crossing_arc():
    d = parse_pd(PD_CODES["trefoil"] + " L0")
    loop_arc = d.loops[0][0]
    d2 = apply_esi(d, ESI("saddle", arcs=(1, loop_arc)))
    assert d2.free_loops == 0
    assert d2.n == 3


def test_saddle_on_a_crossing_free_circle_builds_no_face_table():
    # a band from a crossing-free circle can always be drawn, so only a saddle
    # between two crossing arcs reads the face table
    trefoil_arcs = [(c.cid, c.arcs) for c in trefoil().crossings]
    for arcs in ((7, 9), (7, 8), (1, 7), (9, 2)):
        d = LinkDiagram(trefoil_arcs, [(7, 8), (9, 10)])
        apply_esi(d, ESI("saddle", arcs=arcs))
        assert d._faces is None, arcs
    d = LinkDiagram(trefoil_arcs, [(7, 8)])
    apply_esi(d, ESI("saddle", arcs=(1, 3)))
    assert d._faces is not None


# -- Reidemeister 1 -------------------------------------------------------------


def test_r1_add_positive_on_loop():
    d, info = apply_esi_info(unknot(), ESI("r1", variant="add_pos", arc=1))
    assert d.n == 1 and d.free_loops == 0
    assert d.n_plus == 1 and d.n_minus == 0
    # the 0-resolution of a positive kink has the extra circle
    assert resolve(d, 0).count == 2
    assert resolve(d, 1).count == 1


def test_r1_add_negative_on_loop():
    d, info = apply_esi_info(unknot(), ESI("r1", variant="add_neg", arc=1))
    assert d.n_plus == 0 and d.n_minus == 1
    assert resolve(d, 0).count == 1
    assert resolve(d, 1).count == 2


def test_r1_add_then_remove_roundtrip_structure():
    base = trefoil()
    d, info = apply_esi_info(base, ESI("r1", variant="add_pos", arc=2))
    assert d.n == 4
    d2, _ = apply_esi_info(
        d, ESI("r1", variant="remove", crossing=info.created_crossings[0])
    )
    assert d2.n == 3
    assert [c.sign for c in d2.crossings] == [1, 1, 1]


def test_r1_remove_rejects_non_kink():
    with pytest.raises(MoveError):
        apply_esi(trefoil(), ESI("r1", variant="remove", crossing=1))


def test_r1_remove_refuses_a_crossing_id_that_does_not_exist():
    with pytest.raises(MoveError, match="no crossing with id 9"):
        apply_esi(trefoil(), ESI("r1", variant="remove", crossing=9))


def test_r1_remove_kinked_unknot_gives_loop():
    d, info = apply_esi_info(unknot(), ESI("r1", variant="add_neg", arc=1))
    d2, _ = apply_esi_info(
        d, ESI("r1", variant="remove", crossing=info.created_crossings[0])
    )
    assert d2.n == 0 and d2.free_loops == 1
    assert len(d2.loops[0]) == 2


# -- Reidemeister 2 -------------------------------------------------------------


def test_r2_add_two_loops():
    d = parse_pd("L0 L1")
    d2, info = apply_esi_info(d, ESI("r2", variant="add", arcs=(1, 3)))
    assert d2.n == 2 and d2.free_loops == 0
    assert d2.n_plus == 1 and d2.n_minus == 1
    assert len(info.created_crossings) == 2


def test_r2_add_rejects_same_arc():
    with pytest.raises(MoveError):
        apply_esi(parse_pd("L0"), ESI("r2", variant="add", arcs=(1, 1)))


def test_r2_add_remove_roundtrip_counts():
    d = parse_pd("L0 L1")
    d2, info = apply_esi_info(d, ESI("r2", variant="add", arcs=(1, 3)))
    d3, _ = apply_esi_info(
        d2, ESI("r2", variant="remove", crossings=tuple(info.created_crossings))
    )
    assert d3.n == 0 and d3.free_loops == 2


def test_r2_add_over_knot_arc():
    d = parse_pd(PD_CODES["trefoil"] + " L0")
    loop_arc = d.loops[0][0]
    d2, info = apply_esi_info(d, ESI("r2", variant="add", arcs=(2, loop_arc)))
    assert d2.n == 5
    assert d2.n_plus - d2.n_minus == 3  # writhe unchanged by an R2 pair
    d3, _ = apply_esi_info(
        d2, ESI("r2", variant="remove", crossings=tuple(info.created_crossings))
    )
    assert d3.n == 3 and d3.free_loops == 1


def test_r2_remove_rejects_non_pair():
    d, info = apply_esi_info(trefoil(), ESI("r1", variant="add_pos", arc=1))
    with pytest.raises(MoveError):
        apply_esi(d, ESI("r2", variant="remove", crossings=(1, 2)))


# -- Reidemeister 3 -------------------------------------------------------------


def braid_with_kinked_closure():
    base = parse_pd(PD_CODES["braid_closure"])
    d = apply_esi(base, ESI("r1", variant="add_pos", arc=1))
    return apply_esi(d, ESI("r1", variant="add_neg", arc=2))


def test_r3_braid_rewrite():
    d = braid_with_kinked_closure()
    d2, info = apply_esi_info(d, ESI("r3", crossings=(1, 2, 3), variant="braid"))
    assert d2.n == d.n
    assert [c.sign for c in d2.crossings] == [c.sign for c in d.crossings]
    assert len(info.created_arcs) == 3


def test_r3_reapplies_after_disambiguation():
    # undoing an r3 immediately is ambiguous (two arcs join the same crossing
    # pair and the matcher refuses to guess); a kink on one candidate
    # disambiguates the triangle again
    d = braid_with_kinked_closure()
    d2 = apply_esi(d, ESI("r3", crossings=(1, 2, 3), variant="braid"))
    with pytest.raises(MoveError):
        apply_esi(d2, ESI("r3", crossings=(1, 2, 3), variant="braid"))
    d3 = apply_esi(d2, ESI("r1", variant="add_pos", arc=3))
    d4 = apply_esi(d3, ESI("r3", crossings=(1, 2, 3), variant="braid"))
    assert d4.n == d3.n
    assert [c.sign for c in d4.crossings] == [c.sign for c in d3.crossings]


def test_r3_records_triangle_roles():
    d = braid_with_kinked_closure()
    _, info = apply_esi_info(d, ESI("r3", crossings=(1, 2, 3), variant="braid"))
    # arc 5 passes over at both ends, arc 6 under at both; crossing 3 is off arc 5
    assert info.pieces == {"c": d.crossing_by_id(3)[0], "top": 5, "middle": 4, "bottom": 6}
    assert info.kinks == ()


def test_r3_carries_the_kinks_on_its_sides():
    # a kink on arc 4, a side of the triangle, rides along with its strand
    d = apply_esi(parse_pd(PD_CODES["braid_closure"]), ESI("r1", variant="add_pos", arc=1))
    d, kink = apply_esi_info(d, ESI("r1", variant="add_neg", arc=4))
    (cid,) = kink.created_crossings
    d2, info = apply_esi_info(d, ESI("r3", crossings=(1, 2, 3), variant="braid"))
    assert info.kinks == (cid,)
    idx, before = d.crossing_by_id(cid)
    after = d2.crossings[idx]
    assert after.cid == cid and after.sign == before.sign
    assert after.arcs[2:] == before.arcs[2:]  # the same loop, in the same slots
    assert [c.sign for c in d2.crossings] == [c.sign for c in d.crossings]


def test_r3_refuses_a_triangle_that_is_not_a_face():
    # with arc 2 kinked and arc 4 poked by a finger, only arc 1 joins
    # crossings 1 and 3 directly, and arcs 1, 5, 6 do not bound a face
    d = apply_esi(parse_pd(PD_CODES["braid_closure"]), ESI("r1", variant="add_pos", arc=2))
    d = LinkDiagram([(c.cid, c.arcs) for c in d.crossings], [(20, 21)])
    d = apply_esi(d, ESI("r2", variant="add", arcs=(4, 20)))
    with pytest.raises(MoveError, match="face"):
        apply_esi(d, ESI("r3", crossings=(1, 2, 3), variant="braid"))


def test_r3_rejects_non_triangle():
    with pytest.raises(MoveError):
        apply_esi(trefoil(), ESI("r3", crossings=(1, 2, 3), variant="braid"))
    # the bare braid closure is ambiguous: closure arcs also join the triple
    with pytest.raises(MoveError):
        apply_esi(
            parse_pd(PD_CODES["braid_closure"]),
            ESI("r3", crossings=(1, 2, 3), variant="braid"),
        )


def test_r3_refuses_a_repeated_crossing():
    with pytest.raises(MoveError, match="three distinct crossings"):
        apply_esi(trefoil(), ESI("r3", crossings=(1, 1, 2), variant="braid"))


def test_r3_unknown_variant():
    d = braid_with_kinked_closure()
    with pytest.raises(UnsupportedMoveError):
        apply_esi(d, ESI("r3", crossings=(1, 2, 3), variant="cyclic"))


# -- determinism ------------------------------------------------------------------


def test_fresh_ids_are_deterministic():
    d1, i1 = apply_esi_info(LinkDiagram(), ESI("birth"))
    d2, i2 = apply_esi_info(LinkDiagram(), ESI("birth"))
    assert d1 == d2 and i1.created_arcs == i2.created_arcs == [1, 2]


# every (kind, variant): the event, its JSON, and the event with arc ids
# renamed by +100 and crossing ids by +200 (a death's circle is an arc id)
EVERY_FORM = [
    (ESI("birth"), {"op": "birth"}, ESI("birth")),
    (ESI("death", circle=3), {"op": "death", "circle": 3}, ESI("death", circle=103)),
    (ESI("saddle", arcs=(1, 2)), {"op": "saddle", "arcs": [1, 2]},
     ESI("saddle", arcs=(101, 102))),
    (ESI("r1", variant="add_pos", arc=4), {"op": "r1", "variant": "add_pos", "arc": 4},
     ESI("r1", variant="add_pos", arc=104)),
    (ESI("r1", variant="add_neg", arc=5), {"op": "r1", "variant": "add_neg", "arc": 5},
     ESI("r1", variant="add_neg", arc=105)),
    (ESI("r1", variant="remove", crossing=2), {"op": "r1", "variant": "remove", "crossing": 2},
     ESI("r1", variant="remove", crossing=202)),
    (ESI("r2", variant="add", arcs=(5, 6)), {"op": "r2", "variant": "add", "arcs": [5, 6]},
     ESI("r2", variant="add", arcs=(105, 106))),
    (ESI("r2", variant="remove", crossings=(1, 2)),
     {"op": "r2", "variant": "remove", "crossings": [1, 2]},
     ESI("r2", variant="remove", crossings=(201, 202))),
    (ESI("r3", crossings=(1, 2, 3), variant="braid"),
     {"op": "r3", "variant": "braid", "crossings": [1, 2, 3]},
     ESI("r3", crossings=(201, 202, 203), variant="braid")),
]


def test_esi_schema_covers_every_form():
    assert {(e.kind, e.variant) for e, _, _ in EVERY_FORM} == set(moves._FORMS)
    arc_map = {k: 100 + k for k in range(1, 10)}
    crossing_map = {k: 200 + k for k in range(1, 10)}
    for event, obj, renamed in EVERY_FORM:
        assert event.to_json() == obj
        assert ESI.from_json(obj) == event
        assert event.renamed(arc_map, crossing_map) == renamed
    # an r3 may leave out its only variant
    assert ESI.from_json({"op": "r3", "crossings": [1, 2, 3]}) == EVERY_FORM[-1][0]


@pytest.mark.parametrize("build", [
    lambda: ESI("saddle"),
    lambda: ESI("death"),
    lambda: ESI("r2", variant="add", arcs=(1,)),
    lambda: ESI("r2", variant="add", arcs=[1, 3]),
    lambda: ESI("r3", crossings=(1, 2), variant="braid"),
    lambda: ESI("r1", variant="add_pos", arc=(1,)),
    lambda: ESI("r1", variant="remove", arc=1),
    lambda: ESI("saddle", arcs=(1, True)),
    lambda: ESI("birth", circle=1),
], ids=["saddle", "death", "r2-one-arc", "r2-list", "r3-two", "r1-tuple", "r1rm-arc",
        "bool-id", "birth-id"])
def test_malformed_events_are_parse_errors(build):
    with pytest.raises(ParseError):
        apply_esi(parse_pd("L0 L1"), build())


@pytest.mark.parametrize("obj, key", [
    ({"op": "r1", "variant": "remove", "crossing": 2, "arc": 5}, "arc"),
    ({"op": "birth", "x": 1}, "x"),
    ({"op": "saddle", "arcs": [1, 2], "circle": 3}, "circle"),
], ids=["r1-remove-arc", "birth-x", "saddle-circle"])
def test_from_json_refuses_a_key_its_form_does_not_read(obj, key):
    # a key the form does not read is refused, not ignored
    with pytest.raises(ParseError, match=f"unknown key '{key}'"):
        ESI.from_json(obj)


# a Hopf link beside a kinked unknot: pokes between the pieces need no shared face
SPLIT = PD_CODES["hopf"] + " X(5,6,6,5)"


def test_r2_poke_is_refused_exactly_when_it_cannot_be_drawn(monkeypatch):
    cases = []
    for code in [*PD_CODES.values(), SPLIT]:
        d = parse_pd(code)
        for a, b in itertools.permutations(sorted(d.arc_ids()), 2):
            event = ESI("r2", variant="add", arcs=(a, b))
            try:
                cases.append((d, event, apply_esi(d, event)))
            except MoveError:
                cases.append((d, event, None))
    accepted = sum(poked is not None for _, _, poked in cases)
    monkeypatch.setattr(Faces, "can_poke", lambda faces, a, b: True)
    for d, event, poked in cases:
        a, b = event.arcs
        if d.loop_of_arc(a) is not None and d.loop_of_arc(a) == d.loop_of_arc(b):
            assert poked is None
            with pytest.raises(MoveError, match="already cut"):  # one circle, cut twice
                apply_esi(d, event)
            continue
        template = apply_esi(d, event)
        if poked is None:
            assert not is_planar(template), (d, event)
        else:
            assert poked == template and is_planar(poked), (d, event)
            assert check_d_squared(build_cube(poked, Theory.KHOVANOV)).ok, (d, event)
    assert 0 < accepted < len(cases)


def test_saddle_is_refused_exactly_when_it_cannot_be_drawn(monkeypatch):
    cases = []
    for code in [*PD_CODES.values(), SPLIT, PD_CODES["trefoil"] + " L0"]:
        d = parse_pd(code)
        for a, b in itertools.permutations(sorted(d.arc_ids()), 2):
            event = ESI("saddle", arcs=(a, b))
            try:
                cases.append((d, event, apply_esi(d, event)))
            except MoveError:
                cases.append((d, event, None))
    accepted = sum(banded is not None for _, _, banded in cases)
    monkeypatch.setattr(Faces, "can_band", lambda faces, a, b: True)
    for d, event, banded in cases:
        unchecked = apply_esi(d, event)
        if banded is None:
            assert not is_planar(unchecked), (d, event)
        else:
            assert banded == unchecked and is_planar(banded), (d, event)
    assert 0 < accepted < len(cases)


# -- every event keeps the sign of each crossing it does not name (ROADMAP item 12) ---------
# (not a Hypothesis property until item 12 lands: a few random movies break it)


def flipped_signs(m: Movie) -> list[tuple[int, int]]:
    """(event number, crossing id) of each sign an event changes at a crossing it does not
    name; an R1 or R2 removal names the crossings it removes."""
    stills, flips = m.stills(), []
    for k, (event, before, after) in enumerate(zip(m.events, stills, stills[1:]), 1):
        named = {event.crossing, *(event.crossings or ())}
        signs = {c.cid: c.sign for c in after.crossings}
        flips += [(k, c.cid) for c in before.crossings
                  if c.cid not in named and signs.get(c.cid, c.sign) != c.sign]
    return flips


def test_every_event_keeps_the_signs_of_the_crossings_it_does_not_name():
    movies = {path.name: movie_from_json(json.loads(path.read_text()))
              for path in sorted(MOVIES.glob("*.json"))}
    movies.update(canonical_movies())
    for genus, kinks in ((1, 6), (3, 4), (1, 14)):
        movies[f"kinked detour {genus}, {kinks}"] = kinked_detour_movie(genus, kinks)
    assert len(movies) == 17 and all(not flipped_signs(m) for m in movies.values()), [
        (name, flipped_signs(m)) for name, m in movies.items()]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="an over-only strand is "
                   "oriented by convention, not as the move carried it (ROADMAP item 12, cause a)")
@pytest.mark.parametrize("events", [
    [ESI("birth"), ESI("r1", variant="add_pos", arc=1), ESI("r2", variant="add", arcs=(3, 4)),
     ESI("saddle", arcs=(8, 10))],
    [ESI("birth"), ESI("r1", variant="add_neg", arc=1), ESI("r2", variant="add", arcs=(4, 3)),
     ESI("saddle", arcs=(9, 7))],
    [ESI("birth"), ESI("birth"), ESI("r1", variant="add_pos", arc=1),
     ESI("r2", variant="add", arcs=(3, 5)), ESI("r1", variant="remove", crossing=1)],
], ids=["saddle-swaps-2-and-3", "saddle-swaps-1-and-2", "r1-removal-swaps-2-and-3"])
def test_a_move_that_reverses_an_over_only_strand_keeps_the_other_signs(events):
    assert flipped_signs(Movie(events)) == []
