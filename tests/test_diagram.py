"""PD parsing, orientation/sign conventions, resolutions, and circle-transfer plans."""

import random

import pytest

from khoval.diagram import (
    LinkDiagram,
    ResolvedDiagram,
    parse_pd,
    resolve,
    serialize_pd,
    transfer,
)
from khoval.errors import KhovalError, OrientationError, ParseError
from khoval.corpus import PD_CODES, torus2_pd
from khoval.moves import ESI, apply_esi

from oracles import (
    bfs_circle_count,
    is_planar,
    pieces_union_find,
    resolve_union_find,
    transfer_multi,
)

TREFOIL = PD_CODES["trefoil"]


# -- parsing --------------------------------------------------------------------


def test_parse_empty():
    d = parse_pd("")
    assert d.n == 0 and d.free_loops == 0 and d.is_empty()


def test_parse_one_loop_token():
    d = parse_pd("L0")
    assert d.n == 0 and d.free_loops == 1


def test_parse_multiple_loop_tokens():
    d = parse_pd("L0 L1 L7")
    assert d.free_loops == 3


def test_parse_trefoil_signs_all_positive():
    # hand trace of the standard right trefoil with sequential arcs: at each
    # crossing the over-strand enters at slot 1, so every sign is +1
    d = parse_pd(TREFOIL)
    assert [c.sign for c in d.crossings] == [1, 1, 1]
    assert d.n_plus == 3 and d.n_minus == 0


def test_parse_malformed_token():
    with pytest.raises(ParseError):
        parse_pd("X(1,2,3)")
    with pytest.raises(ParseError):
        parse_pd("Y(1,2,3,4)")
    with pytest.raises(ParseError):
        parse_pd("L0 L0")


def test_parse_arc_count_violation():
    with pytest.raises(ParseError):
        parse_pd("X(1,2,3,4)")  # every arc appears once
    with pytest.raises(ParseError):
        parse_pd("X(1,1,1,2) X(2,3,3,4)")  # arc 1 appears three times


@pytest.mark.parametrize("crossings, loops, reason", [
    ([(1, (1, 2, 3))], [], "crossing 1 does not have 4 arcs"),
    ([(1, (1, 2, 2, 1)), (1, (3, 4, 4, 3))], [], "duplicate crossing id 1"),
    ([(1, (0, 1, 1, 0))], [], "arc id 0 is not a positive integer"),
    ([], [()], "empty loop"),
    ([], [(0, 1)], "arc id 0 is not a positive integer"),
    ([(1, (1.9, 4, 2, 5)), (2, (3, 6, 4, 1)), (3.7, (5, 2, 6, 3))], [],
     "arc id 1.9 is not a positive integer"),
    ([(1, (1, 4, 2, 5)), (2, (3, 6, 4, 1)), (3.7, (5, 2, 6, 3))], [],
     "crossing id 3.7 is not an integer"),
    ([(True, (1, 2, 2, 1))], [], "crossing id True is not an integer"),
    ([("1", (1, 2, 2, 1))], [], "crossing id '1' is not an integer"),
    ([(1, (True, 2, 2, True))], [], "arc id True is not a positive integer"),
    ([(1, ("1", 2, 2, "1"))], [], "arc id '1' is not a positive integer"),
    ([(1, ("a", 2, 2, "a"))], [], "arc id 'a' is not a positive integer"),
    ([], [(1.0, 2)], "arc id 1.0 is not a positive integer"),
    ([], [(1, False)], "arc id False is not a positive integer"),
    ([], [("2", 3)], "arc id '2' is not a positive integer"),
], ids=["three arcs", "repeated id", "arc 0", "empty loop", "loop arc 0", "float arc",
        "float crossing id", "bool crossing id", "string crossing id", "bool arc",
        "numeric string arc", "letter arc", "float loop arc", "bool loop arc", "string loop arc"])
def test_link_diagram_refuses_bad_ids(crossings, loops, reason):
    # the constructor's own refusals, which no `parse_pd` token reaches: an
    # id is an int, not a float, bool or string, as in `ESI`
    with pytest.raises(ParseError, match=reason):
        LinkDiagram(crossings, loops)


def test_parse_orientation_inconsistency():
    # arc 1 is the incoming under-strand of both crossings: two heads
    with pytest.raises(OrientationError):
        parse_pd("X(1,3,2,4) X(1,4,2,3)")


def test_dart_table_orients_every_crossing_arc(corpus):
    for name, d in corpus.items():
        darts = {(i, s): a for i, c in enumerate(d.crossings) for s, a in enumerate(c.arcs)}
        assert set(d.ends) == set(darts.values()), name
        tails = {tail: a for a, (tail, _) in d.ends.items()}
        heads = {head: a for a, (_, head) in d.ends.items()}
        # each arc leaves one of its two darts and enters the other
        assert tails.keys() | heads.keys() == darts.keys() == tails.keys() ^ heads.keys(), name
        assert all(darts[x] == a for x, a in [*tails.items(), *heads.items()]), name
        for i, c in enumerate(d.crossings):
            assert (i, 0) in heads and (i, 2) in tails, (name, i)
            for s in range(4):
                # the strand entering by slot s leaves by slot s ^ 2
                assert ((i, s) in heads) == ((i, s ^ 2) in tails), (name, i, s)
            assert (c.sign == 1) == (d.ends[c.arcs[1]][1] == (i, 1)), (name, i)


@pytest.mark.parametrize("code, signs", [
    ("X(13,15,14,16) X(14,17,13,16) X(5,7,6,17) X(6,7,5,15)", [1, -1, -1, 1]),
    # the same crossings in another order: the strand's last crossing is X(5,7,6,17)
    ("X(13,15,14,16) X(6,7,5,15) X(14,17,13,16) X(5,7,6,17)", [-1, -1, 1, 1]),
])
def test_a_strand_that_only_passes_over_enters_its_last_crossing_by_slot_1(code, signs):
    # arcs 7, 15, 16, 17 pass over at all four crossings and never under
    d = parse_pd(code)
    assert d.ends[7][1] == (3, 1)
    assert [c.sign for c in d.crossings] == signs


# the trefoil with arc 2 poked over arc 1 through no shared face: 5 faces, not 7
NON_PLANAR = "X(7,10,8,11) X(8,12,9,11) X(9,4,10,5) X(3,6,4,7) X(5,12,6,3)"


def test_parse_refuses_a_code_that_is_not_planar():
    with pytest.raises(ParseError, match="not planar"):
        parse_pd(NON_PLANAR)
    with pytest.raises(ParseError, match="not planar"):
        parse_pd("X(1,2,1,2) L0")  # a self-crossing circle with one face
    d = LinkDiagram([(i + 1, x) for i, x in enumerate(
        [(7, 10, 8, 11), (8, 12, 9, 11), (9, 4, 10, 5), (3, 6, 4, 7), (5, 12, 6, 3)])])
    assert not is_planar(d)  # the constructor itself takes the code at face value


def test_face_table_is_built_on_first_request(corpus):
    for name, d in corpus.items():
        rebuilt = LinkDiagram([(c.cid, c.arcs) for c in d.crossings], d.loops)
        assert rebuilt._faces is None
        faces = rebuilt.faces()
        assert rebuilt.faces() is faces
        count = len({*faces.right.values(), *faces.left.values()})
        assert count == d.n + 2 * len(set(faces.piece.values())) and is_planar(d), name
        assert set(faces.right) == set(faces.left) == set(faces.piece) == d.arc_ids()


def test_face_table_counts_a_loop_as_a_piece():
    faces = parse_pd(TREFOIL + " L0 L1").faces()
    assert len({*faces.right.values(), *faces.left.values()}) == 9
    assert len(set(faces.piece.values())) == 3
    loop_arcs = [a for a in faces.piece if a > 6]
    assert len({faces.piece[a] for a in loop_arcs}) == 2
    for a in loop_arcs:
        partner = next(b for b in loop_arcs if b != a and faces.piece[b] == faces.piece[a])
        assert faces.right[a] == faces.right[partner] != faces.left[partner]
        assert faces.can_band(a, partner) and not faces.can_poke(a, partner)
        assert all(faces.can_band(a, b) and faces.can_poke(a, b) for b in range(1, 7))


def test_roundtrip_serialization(corpus):
    for name, d in corpus.items():
        d2 = parse_pd(serialize_pd(d))
        assert d2.n == d.n
        assert d2.free_loops == d.free_loops
        assert [c.sign for c in d2.crossings] == [c.sign for c in d.crossings]
        # same incidence structure up to loop-arc renumbering
        assert [c.arcs for c in d2.crossings] == [c.arcs for c in d.crossings]


def test_sign_invariant_under_global_reversal(corpus):
    # reversing every component turns X(a,b,c,d) into X(c,d,a,b); signs persist
    for name, d in corpus.items():
        if d.n == 0:
            continue
        reversed_code = " ".join(
            f"X({c.arcs[2]},{c.arcs[3]},{c.arcs[0]},{c.arcs[1]})" for c in d.crossings
        )
        reversed_code += " " + " ".join(f"L{i}" for i in range(d.free_loops))
        d2 = parse_pd(reversed_code)
        assert [c.sign for c in d2.crossings] == [c.sign for c in d.crossings], name


# -- resolutions ------------------------------------------------------------------


def test_resolve_unknot():
    d = parse_pd("L0")
    assert resolve(d, 0).count == 1


def test_resolve_trefoil_extremes():
    # frozen from the hand trace and confirmed by the BFS oracle below:
    # the all-0 resolution has 2 circles, the all-1 resolution 3
    d = parse_pd(TREFOIL)
    assert resolve(d, 0b000).count == 2
    assert resolve(d, 0b111).count == 3


def test_resolve_against_bfs_oracle(corpus):
    for name, d in corpus.items():
        for mask in range(1 << d.n):
            got = resolve(d, mask).count
            want = bfs_circle_count(d, mask)
            assert got == want, (name, mask)


def arc_sets(r) -> list[set[int]]:
    """Each circle's arcs, by circle id, read from `circle_of`."""
    circles: list[set[int]] = [set() for _ in range(r.count)]
    for a, i in r.circle_of.items():
        circles[i].add(a)
    return circles


def assert_resolution_matches(got, want, where):
    """Two resolutions agree: count, every dart's circle id, each circle's arcs and circle_of."""
    assert (got.count, got.darts) == (want.count, want.darts), where
    assert arc_sets(got) == arc_sets(want), where
    assert got.circle_of == want.circle_of, where


def assert_resolutions_match_the_union_find(d, name):
    """`resolve` equals the union-find resolution on every vertex of `d`."""
    for mask in range(1 << d.n):
        assert_resolution_matches(resolve(d, mask), resolve_union_find(d, mask), (name, mask))


def test_torus2_pd_refuses_zero_crossings():
    with pytest.raises(KhovalError, match="need at least one crossing"):
        torus2_pd(0)


def test_resolve_matches_the_union_find_oracle(corpus):
    # the kinked unknots have one arc with both darts on their one crossing
    assert {"unknot_pos_kink", "unknot_neg_kink"} <= corpus.keys()
    kinked = apply_esi(parse_pd(TREFOIL), ESI("r1", variant="add_pos", arc=1))
    diagrams = {
        **corpus,
        **{f"T(2,{n})": parse_pd(torus2_pd(n)) for n in range(1, 9)},
        "kinked trefoil": apply_esi(kinked, ESI("r1", variant="add_neg", arc=4)),
        # loops beside crossings, their arcs after every crossing arc (as parse_pd
        # numbers them) or before, one given unsorted
        "trefoil L1": parse_pd(f"{TREFOIL} L1"),
        "figure8 L1 L2": parse_pd(f"{PD_CODES['figure8']} L1 L2"),
        "trefoil, loops (5, 1) and (3,)": LinkDiagram(
            [(i, tuple(a + 10 for a in c.arcs)) for i, c in enumerate(parse_pd(TREFOIL).crossings)],
            [(5, 1), (3,)]),
    }
    for name, d in diagrams.items():
        assert_resolutions_match_the_union_find(d, name)
    # the arc view is derived on first read and kept
    r = resolve(diagrams["trefoil, loops (5, 1) and (3,)"], 0b111)
    assert r.circle_of is r.circle_of
    assert (r.count, *arc_sets(r)[:2]) == (5, {1, 5}, {3})
    # past 64 crossings, so the walk rests on no fixed-width table
    d = parse_pd(torus2_pd(71))
    rng = random.Random(71)
    for mask in [0, (1 << 71) - 1, *(rng.getrandbits(71) for _ in range(5))]:
        assert_resolution_matches(resolve(d, mask), resolve_union_find(d, mask), mask)


def assert_pieces_match_the_union_find(d, name):
    """The face table's pieces partition the arcs as a union-find over `ends` does."""
    groups: dict[int, set[int]] = {}
    for a, p in d.faces().piece.items():
        groups.setdefault(p, set()).add(a)
    assert {frozenset(g) for g in groups.values()} == pieces_union_find(d), name


def test_face_pieces_match_the_union_find_oracle(corpus):
    split = parse_pd(TREFOIL + " X(11,13,12,14) X(14,12,13,11) X(21,21,22,22) L0")
    assert len(set(split.faces().piece.values())) == 4
    for name, d in {**corpus, "split": split}.items():
        assert_pieces_match_the_union_find(d, name)


def test_resolve_refuses_an_int_vertex_off_the_cube():
    d = parse_pd(TREFOIL)
    assert resolve(d, 0b111).count == 3
    for mask in (-1, 1 << 3, 1 << 10):
        with pytest.raises(KhovalError, match="not on the cube"):
            resolve(d, mask)
    assert resolve(parse_pd("L0"), 0).count == 1
    with pytest.raises(KhovalError):
        resolve(parse_pd("L0"), 1)


def test_single_bit_flip_changes_circles_by_one(corpus):
    for name, d in corpus.items():
        for mask in range(1 << d.n):
            base = resolve(d, mask).count
            for j in range(d.n):
                assert abs(resolve(d, mask ^ 1 << j).count - base) == 1, (name, mask, j)


def test_resolution_partitions_arcs(corpus):
    for name, d in corpus.items():
        # every arc on one circle, and every circle id holding an arc
        circles = arc_sets(resolve(d, 0))
        seen = [a for circ in circles for a in circ]
        assert sorted(seen) == sorted(d.arc_ids())
        assert len(set(seen)) == len(seen) and all(circles), name


def _resolved(*circles):
    circles = sorted(tuple(sorted(c)) for c in circles)
    return ResolvedDiagram(len(circles), [], ((), circles))


def test_transfer_plan_fields():
    # (1,2) dies, (3,4) is copied, (5,6) and (7,8) merge, (9,10) is born
    plan = transfer(
        _resolved((1, 2), (3, 4), (5, 6), (7, 8)),
        _resolved((13, 14), (5, 6, 7, 8), (9, 10)),
        {3: 13, 4: 14},
    )
    # target order: (5,6,7,8), (9,10), (13,14)
    assert plan.copies == ((1, 2),)
    assert plan.merge == ((2, 3), 0)
    assert plan.split is None
    assert plan.dead == (0,)
    assert plan.new == (1,)
    assert plan.count == 3
    # an arc hinted to None dies with its circle, whatever id the target reuses
    plan = transfer(_resolved((1, 2), (3,)), _resolved((1, 3)), {1: None, 2: None})
    assert (plan.copies, plan.dead, plan.new) == (((1, 0),), (0,), ())
    # the oracle's multi-image hint naming two arcs on different target circles is a split
    plan = transfer_multi(_resolved((1, 2)), _resolved((3,), (4,)), {1: (3, 4)})
    assert plan.split == (0, (0, 1)) and plan.copies == () and plan.merge is None


def test_transfer_refuses_two_surgeries():
    two_merges = (_resolved((1,), (2,), (3,), (4,)), _resolved((1, 2), (3, 4)))
    merge_and_split = (_resolved((1,), (2,), (3, 4)), _resolved((1, 2), (3,), (4,)))
    three_way = (_resolved((1,), (2,), (3,)), _resolved((1, 2, 3),))
    for src, tgt in (two_merges, merge_and_split):
        with pytest.raises(KhovalError, match="not a single merge or split"):
            transfer(src, tgt)
    with pytest.raises(KhovalError, match="more than two circles merged"):
        transfer(*three_way)


def test_diagram_rejects_loop_arc_reuse():
    with pytest.raises(ParseError):
        LinkDiagram([], [(1, 2), (2, 3)])
    with pytest.raises(ParseError):
        LinkDiagram([(1, (1, 2, 2, 1))], [(1,)])
