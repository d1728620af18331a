"""Edge-case hardening: foreign R2 pairs, knotted R3, detours, random movies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khoval.algebra import TPoly, Theory
from khoval.cobordism import (
    Movie,
    bn_invariant,
    concatenate,
    connected_sum,
    esi_chain_map,
    punctured_to_empty,
    trivial_surface_movie,
)
from khoval.cube import build_cube, check_d_squared
from khoval.diagram import Faces, LinkDiagram, parse_pd, resolve, serialize_pd
from khoval.errors import KhovalError, MoveError
from khoval.homology import HomologyGroup, graded_euler, homology, kauffman_jones
from khoval.moves import ESI, apply_esi, apply_esi_info

from oracles import bfs_circle_count, is_planar
from test_cube import assert_edge_plans_match_the_general_plan
from test_diagram import assert_pieces_match_the_union_find, assert_resolutions_match_the_union_find

ALL_THEORIES = list(Theory)

# the closure of a positive 3-braid word with a stacked triangle: a trefoil
TREFOIL_BRAID = "X(2,1,4,5) X(3,5,6,3) X(6,4,7,8) X(8,7,1,2)"
# an R2 pair in the mirrored orientation our add-template never produces
ANTIPARALLEL_PAIR = "X(1,3,2,4) X(2,3,1,4)"


def _chain_law_holds(d, event, th) -> bool:
    src = build_cube(d, th)
    tgt = build_cube(apply_esi(d, event), th)
    f = esi_chain_map(event, src, tgt, th)
    return all(
        f.apply(src.differential_of(g)) == tgt.differential(f.of_generator(g))
        for g in src.generators()
    )


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_foreign_r2_pair_removal(th):
    d = parse_pd(ANTIPARALLEL_PAIR)
    assert sorted(c.sign for c in d.crossings) == [-1, 1]
    assert _chain_law_holds(d, ESI("r2", variant="remove", crossings=(1, 2)), th)


def test_foreign_r2_pair_is_two_unknots():
    groups = homology(build_cube(parse_pd(ANTIPARALLEL_PAIR), Theory.KHOVANOV))
    assert groups == {
        (0, -2): HomologyGroup(1),
        (0, 0): HomologyGroup(2),
        (0, 2): HomologyGroup(1),
    }


def test_knotted_braid_closure_is_trefoil():
    d = parse_pd(TREFOIL_BRAID)
    groups = homology(build_cube(d, Theory.KHOVANOV))
    expected = homology(
        build_cube(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"), Theory.KHOVANOV)
    )
    assert groups == expected
    assert graded_euler(build_cube(d, Theory.KHOVANOV)) == kauffman_jones(d)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_r3_on_knotted_closure(th):
    # a knotted closure: the triangle's bigon face B and face A both carry
    # differentials into the rest of the cube
    d = parse_pd(TREFOIL_BRAID)
    event = ESI("r3", crossings=(1, 2, 3), variant="braid")
    d2 = apply_esi(d, event)
    assert _chain_law_holds(d, event, th)
    if th is Theory.KHOVANOV:
        assert homology(build_cube(d2, th)) == homology(build_cube(d, th))


def test_same_loop_parallel_poke_rejected_as_nonplanar():
    # both feet on one crossing-free circle: the move itself refuses the poke
    with pytest.raises(MoveError, match="planar"):
        apply_esi(parse_pd("L0"), ESI("r2", variant="add", arcs=(1, 2)))


def _torus_with_r1_detour(variant: str) -> Movie:
    events = [ESI("birth")]
    d = apply_esi(LinkDiagram(), events[0])
    e = ESI("r1", variant=variant, arc=d.loops[0][0])
    events.append(e)
    d, info = apply_esi_info(d, e)
    e = ESI("r1", variant="remove", crossing=info.created_crossings[0])
    events.append(e)
    d = apply_esi(d, e)
    lp = d.loops[0]
    e = ESI("saddle", arcs=(lp[0], lp[1]))
    events.append(e)
    d = apply_esi(d, e)
    e = ESI("saddle", arcs=(d.loops[-2][0], d.loops[-1][0]))
    events.append(e)
    d = apply_esi(d, e)
    events.append(ESI("death", circle=min(d.loops[0])))
    return Movie(events)


@pytest.mark.parametrize("variant", ["add_pos", "add_neg"])
def test_torus_with_r1_detour(variant):
    assert bn_invariant(_torus_with_r1_detour(variant)) == TPoly(2)


def test_concatenate_through_crossing_events():
    # second punctured piece contains an R2 poke/unpoke before closing off
    events = []
    d = LinkDiagram([], [(1, 2)])
    e = ESI("saddle", arcs=(1, 2))
    events.append(e)
    d = apply_esi(d, e)
    a, b = d.loops[-2][0], d.loops[-1][0]
    e = ESI("r2", variant="add", arcs=(a, b))
    events.append(e)
    d, info = apply_esi_info(d, e)
    e = ESI("r2", variant="remove", crossings=tuple(info.created_crossings))
    events.append(e)
    d = apply_esi(d, e)
    e = ESI("saddle", arcs=(d.loops[-2][0], d.loops[-1][0]))
    events.append(e)
    d = apply_esi(d, e)
    events.append(ESI("death", circle=min(d.loops[0])))
    m2 = Movie(events, initial="unknot")
    from khoval.cobordism import punctured_from_empty

    m1 = punctured_from_empty(1)
    assert connected_sum(m1, m2) == TPoly(0)  # torus # torus
    assert bn_invariant(concatenate(m1, m2)) == TPoly(0)


def test_torus_knot_family_tables():
    # frozen integral tables for the (2,5) and (2,7) torus knots; alternating
    # knots are homologically thin, and the Euler characteristic telescopes to
    # the closed-form Jones polynomial q^(n-2) + q^n + q^(n+2) - q^(3n)
    from khoval.corpus import torus2_pd
    from khoval.homology import HomologyGroup as H

    expected = {
        5: {
            (0, 3): H(1), (0, 5): H(1), (2, 7): H(1), (3, 9): H(0, (2,)),
            (3, 11): H(1), (4, 11): H(1), (5, 13): H(0, (2,)), (5, 15): H(1),
        },
        7: {
            (0, 5): H(1), (0, 7): H(1), (2, 9): H(1), (3, 11): H(0, (2,)),
            (3, 13): H(1), (4, 13): H(1), (5, 15): H(0, (2,)), (5, 17): H(1),
            (6, 17): H(1), (7, 19): H(0, (2,)), (7, 21): H(1),
        },
    }
    from khoval.homology import LaurentPoly

    for n, table in expected.items():
        d = parse_pd(torus2_pd(n))
        cube = build_cube(d, Theory.KHOVANOV)
        groups = homology(cube)
        assert groups == table, n
        diagonals = {q - 2 * i for (i, q) in groups}
        assert diagonals == {n - 2, n}, n
        jones = LaurentPoly({n - 2: 1, n: 1, n + 2: 1, 3 * n: -1})
        assert graded_euler(cube) == jones == kauffman_jones(d), n
        lee = homology(build_cube(d, Theory.LEE))
        assert sum(g.free_rank for g in lee.values()) == 2, n


@pytest.mark.parametrize("n", [2, 4, 6])
def test_torus_link_family_is_planar(n):
    # for even n the closed 2-braid is a two-component link; its code once
    # numbered the arcs as one component and failed as non-planar
    from khoval.corpus import torus2_pd

    from khoval.homology import LaurentPoly

    d = parse_pd(torus2_pd(n))
    closed_form = LaurentPoly({n - 2: 1, n: 1, n + 2: 1, 3 * n: 1})
    assert graded_euler(build_cube(d, Theory.KHOVANOV)) == closed_form
    assert kauffman_jones(d) == closed_form
    lee = homology(build_cube(d, Theory.LEE))
    assert sum(g.free_rank for g in lee.values()) == 4


def test_torus2_three_is_the_trefoil():
    from khoval.corpus import torus2_pd

    a = homology(build_cube(parse_pd(torus2_pd(3)), Theory.KHOVANOV))
    b = homology(
        build_cube(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"), Theory.KHOVANOV)
    )
    assert a == b


# -- randomized movie property tests ----------------------------------------------


@st.composite
def random_movies(draw):
    """A short random valid movie built by replaying choices against stills."""
    events = []
    d = LinkDiagram()
    n_events = draw(st.integers(2, 8))
    for _ in range(n_events):
        choices = ["birth"]
        arcs = sorted(d.arc_ids())
        if len(arcs) >= 2 and d.n <= 3:
            choices += ["saddle", "r2add"]
        if arcs and d.n <= 3:
            choices.append("r1add")
        if d.loops:
            choices.append("death")
        kink_slots = ((1, 2), (0, 3), (2, 3), (0, 1))
        kinks = [
            c.cid
            for c in d.crossings
            if any(c.arcs[s1] == c.arcs[s2] for s1, s2 in kink_slots)
        ]
        if kinks:
            choices.append("r1rm")
        kind = draw(st.sampled_from(sorted(choices)))
        if kind == "birth":
            e = ESI("birth")
        elif kind == "death":
            lp = draw(st.sampled_from(sorted(min(x) for x in d.loops)))
            e = ESI("death", circle=lp)
        elif kind in ("saddle", "r2add"):
            a = draw(st.sampled_from(arcs))
            b = draw(st.sampled_from([x for x in arcs if x != a]))
            if kind == "saddle":
                e = ESI("saddle", arcs=(a, b))
            else:
                e = ESI("r2", variant="add", arcs=(a, b))
            try:
                apply_esi(d, e)
            except MoveError:  # a saddle or poke that cannot be drawn in the plane
                e = ESI("birth")
        elif kind == "r1add":
            a = draw(st.sampled_from(arcs))
            variant = draw(st.sampled_from(["add_pos", "add_neg"]))
            e = ESI("r1", variant=variant, arc=a)
        else:
            e = ESI("r1", variant="remove", crossing=draw(st.sampled_from(kinks)))
        d = apply_esi(d, e)
        events.append(e)
    return Movie(events)


@given(random_movies())
@settings(max_examples=40, deadline=None)
def test_random_movie_stills_are_sane(m):
    assert m.validate().ok
    for still in m.stills():
        assert is_planar(still)
        # parse/serialize round trip preserves incidence and signs
        d2 = parse_pd(serialize_pd(still))
        assert [c.arcs for c in d2.crossings] == [c.arcs for c in still.crossings]
        assert [c.sign for c in d2.crossings] == [c.sign for c in still.crossings]
        # circle counts agree with the BFS oracle on every vertex
        if still.n <= 4:
            for mask in range(1 << still.n):
                assert resolve(still, mask).count == bfs_circle_count(still, mask)


@given(random_movies())
@settings(max_examples=25, deadline=None)
def test_random_movie_stills_match_the_union_find_oracles(m):
    for k, still in enumerate(m.stills()):
        assert_pieces_match_the_union_find(still, k)
        if still.n <= 6:
            assert_resolutions_match_the_union_find(still, k)


@given(random_movies())
@settings(max_examples=15, deadline=None)
def test_random_movie_complexes_are_complexes(m):
    # every still is planar, so every cube along the movie is a complex
    still = m.stills()[-1]
    if still.n <= 4:
        assert check_d_squared(build_cube(still, Theory.BAR_NATAN)).ok


@given(random_movies())
@settings(max_examples=25, deadline=None)
def test_random_movie_edge_plans_match_the_general_plan(m):
    for still in m.stills():
        if still.n <= 6:
            assert_edge_plans_match_the_general_plan(still)


def test_nonplanar_saddle_chain_is_rejected_at_cube_time(monkeypatch):
    # twisted saddles make a self-crossing circle code X(a,b,a,b); validation
    # refuses the first saddle that cannot be drawn, and with that rule off the
    # cube build still reports the count-preserving crossing change
    events = [
        ESI("birth"),
        ESI("saddle", arcs=(2, 1)),
        ESI("r1", variant="add_pos", arc=3),
        ESI("saddle", arcs=(5, 6)),
        ESI("saddle", arcs=(4, 8)),
        ESI("saddle", arcs=(9, 7)),
        ESI("saddle", arcs=(11, 10)),
    ]
    report = Movie(events).validate()
    assert (report.ok, report.index) == (False, 4) and "planar" in report.reason
    monkeypatch.setattr(Faces, "can_band", lambda faces, a, b: True)
    stills = Movie(events).stills()
    first = next(k for k, d in enumerate(stills) if not is_planar(d))
    assert first == report.index and events[first - 1].kind == "saddle"
    with pytest.raises(KhovalError, match="not planar"):
        check_d_squared(build_cube(stills[-1], Theory.BAR_NATAN))
