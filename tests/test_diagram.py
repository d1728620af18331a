"""PD parsing, orientation/sign conventions, resolutions, and circle-transfer plans."""

import itertools

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
from khoval.corpus import PD_CODES

from oracles import bfs_circle_count, is_planar

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
    assert resolve(d, ()).count == 1


def test_resolve_trefoil_extremes():
    # frozen from the hand trace and confirmed by the BFS oracle below:
    # the all-0 resolution has 2 circles, the all-1 resolution 3
    d = parse_pd(TREFOIL)
    assert resolve(d, (0, 0, 0)).count == 2
    assert resolve(d, (1, 1, 1)).count == 3


def test_resolve_against_bfs_oracle(corpus):
    for name, d in corpus.items():
        for bits in itertools.product((0, 1), repeat=d.n):
            got = resolve(d, bits).count
            want = bfs_circle_count(d, bits)
            assert got == want, (name, bits)


def test_resolve_vertex_length_mismatch():
    d = parse_pd(TREFOIL)
    with pytest.raises(Exception):
        resolve(d, (0, 0))


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
        for bits in itertools.product((0, 1), repeat=d.n):
            base = resolve(d, bits).count
            for j in range(d.n):
                flipped = list(bits)
                flipped[j] ^= 1
                assert abs(resolve(d, flipped).count - base) == 1, (name, bits, j)


def test_resolution_partitions_arcs(corpus):
    for name, d in corpus.items():
        r = resolve(d, (0,) * d.n)
        seen = [a for circ in r.circles for a in circ]
        assert sorted(seen) == sorted(d.arc_ids())
        assert len(set(seen)) == len(seen)


def _resolved(*circles):
    circles = tuple(sorted(tuple(sorted(c)) for c in circles))
    return ResolvedDiagram(circles, {a: i for i, c in enumerate(circles) for a in c})


def test_transfer_plan_fields():
    # (1,2) dies, (3,4) is copied, (5,6) and (7,8) merge, (9,10) is born
    plan = transfer(
        _resolved((1, 2), (3, 4), (5, 6), (7, 8)),
        _resolved((13, 14), (5, 6, 7, 8), (9, 10)),
        {3: (13,), 4: (14,)},
    )
    # target order: (5,6,7,8), (9,10), (13,14)
    assert plan.copies == ((1, 2),)
    assert plan.merge == ((2, 3), 0)
    assert plan.split is None
    assert plan.dead == (0,)
    assert plan.new == (1,)
    assert plan.count == 3
    # a hint naming two arcs on different target circles is a split
    plan = transfer(_resolved((1, 2)), _resolved((3,), (4,)), {1: (3, 4)})
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
