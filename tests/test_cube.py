"""Cube of modules: gradings, the signed differential, and its structural laws."""

import itertools
from dataclasses import replace

import pytest

from khoval.algebra import MINUS, PLUS, RINGS, TPoly, Theory, counit, xmult
from khoval.cube import (
    CAP,
    CUP,
    DOTTED_CAP,
    DOTTED_CUP,
    Generator,
    Piece,
    apply_pieces,
    build_cube,
    check_d_squared,
    check_faces,
    transfer_labels,
)
from khoval.corpus import PD_CODES
from khoval.diagram import LinkDiagram, ResolvedDiagram, parse_pd, resolve, transfer
from khoval.errors import CapExceededError, KhovalError, MoveError
from khoval.moves import ESI, apply_esi

from oracles import differential_termwise

P, M = PLUS, MINUS
ALL_THEORIES = list(Theory)


def test_empty_diagram_cube():
    c = build_cube(parse_pd(""), Theory.KHOVANOV)
    gens = list(c.generators())
    assert gens == [Generator(0, ())]
    assert c.degrees(gens[0]) == (0, 0)


def test_unknot_cube_two_generators():
    c = build_cube(parse_pd("L0"), Theory.KHOVANOV)
    degs = sorted(c.degrees(g) for g in c.generators())
    assert degs == [(0, -1), (0, 1)]


def test_trefoil_cube_shape():
    d = parse_pd(PD_CODES["trefoil"])
    c = build_cube(d, Theory.KHOVANOV)
    assert 1 << c.n == 8
    edges = sum(1 for m in range(8) for j in range(3) if not (m >> j) & 1)
    assert edges == 12
    for mask in range(8):
        k = c.circles(mask).count
        assert sum(1 for g in c.generators_at(mask)) == 2 ** k


def test_crossing_cap():
    d = parse_pd(PD_CODES["trefoil"])
    with pytest.raises(CapExceededError):
        build_cube(d, Theory.KHOVANOV, cap=2)


# -- lazy resolutions ------------------------------------------------------------


def test_circles_equal_resolve_on_corpus(corpus):
    for name, d in corpus.items():
        c = build_cube(d, Theory.KHOVANOV)
        for mask in range(1 << c.n):
            assert c.circles(mask) == resolve(d, mask), (name, mask)


def test_circles_are_cached(resolve_calls):
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    first = c.circles(5)
    assert c.circles(5) is first
    assert resolve_calls == [1]


def test_build_resolves_nothing(resolve_calls, corpus):
    for d in corpus.values():
        build_cube(d, Theory.BAR_NATAN)
    assert resolve_calls == [0]
    with pytest.raises(CapExceededError):
        build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV, cap=2)
    assert resolve_calls == [0]


def test_circles_rejects_vertex_off_the_cube():
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    for mask in (-1, 8):
        with pytest.raises(KhovalError):
            c.circles(mask)


# -- gradings -----------------------------------------------------------------


def test_degrees_positive_kink():
    # the 0-resolution of a positive kink has two circles; v+ (x) v+ sits in
    # bidegree (0, 3); on the 1-resolution v+ sits in (1, 3)
    d = apply_esi(parse_pd("L0"), ESI("r1", variant="add_pos", arc=1))
    c = build_cube(d, Theory.KHOVANOV)
    assert c.circles(0).count == 2
    assert c.degrees(Generator(0, (P, P))) == (0, 3)
    assert c.degrees(Generator(1, (P,))) == (1, 3)


def test_degrees_negative_kink():
    d = apply_esi(parse_pd("L0"), ESI("r1", variant="add_neg", arc=1))
    c = build_cube(d, Theory.KHOVANOV)
    # vertex (1) of a negative kink: i = 1 - n_minus = 0
    g = next(iter(c.generators_at(1)))
    assert c.degrees(g)[0] == 0


def test_foreign_generator_rejected():
    c = build_cube(parse_pd("L0"), Theory.KHOVANOV)
    with pytest.raises(KhovalError):
        c.degrees(Generator(0, (P, P)))


# -- differential --------------------------------------------------------------


def test_differential_of_zero_and_no_edges():
    c = build_cube(parse_pd("L0"), Theory.BAR_NATAN)
    zero = c.element()
    assert c.differential(zero).is_zero()
    for g in c.generators():
        assert c.differential_of(g).is_zero()


def test_differential_positive_kink_merge():
    # the kink edge merges the kink circle with the strand circle
    d = apply_esi(parse_pd("L0"), ESI("r1", variant="add_pos", arc=1))
    c = build_cube(d, Theory.BAR_NATAN)
    # circle order at mask 0: kink circle vs strand circle by smallest arc
    out = c.differential_of(Generator(0, (M, M)))
    assert list(out.terms.values()) == [TPoly({1: 1})]  # m(v-,v-) = t v+
    ((g, _),) = out.terms.items()
    assert g.mask == 1 and g.labels == (P,)
    out = c.differential_of(Generator(0, (P, M)))
    assert list(out.terms.items()) == [(Generator(1, (M,)), TPoly(1))]


def test_differential_is_degree_1_0(corpus):
    for name, d in corpus.items():
        c = build_cube(d, Theory.BAR_NATAN)
        for g in c.generators():
            i, q = c.degrees(g)
            out = c.differential_of(g)
            for h, poly in out.terms.items():
                ih, qh = c.degrees(h)
                assert ih == i + 1, name
                for exp, _ in poly.items():
                    assert qh - 4 * exp == q, name


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_d_squared_zero_corpus(corpus, th):
    for name, d in corpus.items():
        rep = check_d_squared(build_cube(d, th))
        assert rep.ok, (name, th, rep.detail)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_faces_commute_and_anticommute(corpus, th):
    for name, d in corpus.items():
        rep = check_faces(build_cube(d, th))
        assert rep.ok, (name, th, rep.detail)


def test_corrupted_edge_sign_breaks_d_squared():
    d = parse_pd(PD_CODES["trefoil"])
    c = build_cube(d, Theory.KHOVANOV)

    edge_sign = c.edge_sign

    def corrupted(mask, j):
        sign = edge_sign(mask, j)
        return -sign if (mask, j) == (0, 1) else sign

    c.edge_sign = corrupted
    assert not check_d_squared(c).ok


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_differential_matches_the_termwise_oracle(corpus, th):
    for name, d in corpus.items():
        c = build_cube(d, th)
        for g in c.generators():
            assert c.differential_of(g).terms == differential_termwise(c, g), (name, g)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_check_faces_fails_on_a_corrupted_edge(th):
    d = parse_pd(PD_CODES["figure8"])
    c = build_cube(d, th)
    edge_sign = c.edge_sign
    c.edge_sign = lambda mask, j: -edge_sign(mask, j) if (mask, j) == (0, 1) else edge_sign(mask, j)
    assert "signs fail to anticommute" in check_faces(c).detail

    # the same sign error inside one edge piece, and a plan that sends the
    # copied circle where the merged one goes
    piece = build_cube(d, th).edge(0, 0)
    assert piece.plan.copies == ((2, 1),) and piece.plan.merge == ((0, 1), 0)
    wrong_plan = replace(piece.plan, copies=((2, 0),), merge=((0, 1), 1))
    for bad in (Piece(piece.mask, -piece.sign, piece.plan), Piece(piece.mask, piece.sign, wrong_plan)):
        c = build_cube(d, th)
        edge = c.edge
        c.edge = lambda mask, j: bad if (mask, j) == (0, 0) else edge(mask, j)
        rep = check_faces(c)
        assert not rep.ok and "does not anticommute" in rep.detail


def test_edge_piece_resolves_only_its_endpoints(resolve_calls):
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    piece = c.edge(0b010, 0)
    assert (piece.mask, piece.sign) == (0b011, -1)
    assert c.edge(0b010, 0) is piece
    assert resolve_calls == [2]


# -- edge pieces: the plan of each edge ------------------------------------------


def test_edge_piece_trefoil_first_crossing():
    # from vertex 000, crossing 0: both circles of the oriented resolution merge into one
    d = parse_pd(PD_CODES["trefoil"])
    eff = build_cube(d, Theory.KHOVANOV).edge(0, 0).plan
    assert eff.merge is not None and eff.split is None
    assert eff.merge[0] == (0, 1)
    assert resolve(d, (1, 0, 0)).count == 1


def test_edge_piece_split():
    d = parse_pd(PD_CODES["trefoil"])
    # from (1,1,0): flipping the last crossing goes 2 -> 3 circles
    base = resolve(d, (1, 1, 0)).count
    tgt = resolve(d, (1, 1, 1)).count
    eff = build_cube(d, Theory.KHOVANOV).edge(0b011, 2).plan
    if tgt == base + 1:
        assert eff.split is not None and eff.merge is None
    else:
        assert eff.merge is not None and eff.split is None


def test_edge_piece_classification_matches_counts(corpus):
    for name, d in corpus.items():
        c = build_cube(d, Theory.KHOVANOV)
        for bits in itertools.product((0, 1), repeat=d.n):
            for j in range(d.n):
                if bits[j] == 1:
                    continue
                eff = c.edge(sum(b << i for i, b in enumerate(bits)), j).plan
                delta = (
                    resolve(d, tuple(bits[:j]) + (1,) + tuple(bits[j + 1 :])).count
                    - resolve(d, bits).count
                )
                assert (eff.split if delta == 1 else eff.merge) is not None
                assert (eff.merge if delta == 1 else eff.split) is None
                # untouched circles correspond bijectively
                assert len(eff.copies) == resolve(d, bits).count - (
                    2 if eff.merge is not None else 1
                )


def test_edge_piece_refuses_a_non_planar_edge():
    # a self-crossing circle X(a,b,a,b): one circle stays one circle
    # (`parse_pd` refuses the code, so it is built directly)
    d = LinkDiagram([(1, (1, 2, 1, 2))])
    with pytest.raises(MoveError, match="not planar"):
        build_cube(d, Theory.KHOVANOV).edge(0, 0)


def test_transfer_labels_needs_a_label_for_every_new_circle():
    # the circle (3,4) of the target is new
    plan = transfer(resolve(parse_pd("L0"), 0), resolve(parse_pd("L0 L1"), 0))
    assert plan.new == (1,)
    for th in ALL_THEORIES:
        assert transfer_labels(plan, (M,), RINGS[th], {1: P}) == [((M, P), TPoly(1))]
        with pytest.raises(KhovalError, match="unlabeled"):
            transfer_labels(plan, (M,), RINGS[th])


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_death_weights_and_dotted_births(th):
    # eps(v+) = 0, eps(v-) = 1, eps(X.v+) = 1, eps(X.v-) = 0, read off the
    # structure tables and through a piece that caps the only circle
    def eps(label, dotted):
        image = xmult(label, th) if dotted else {label: TPoly(1)}
        return sum((counit(l, th) * c for l, c in image.items()), TPoly(0))

    weights = {(P, False): 0, (M, False): 1, (P, True): 1, (M, True): 0}
    unknot, empty = resolve(parse_pd("L0"), 0), resolve(parse_pd(""), 0)
    death = transfer(unknot, empty)
    for (label, dotted), weight in weights.items():
        assert eps(label, dotted) == weight
        cap = Piece(0, 1, death, deaths={0: DOTTED_CAP if dotted else CAP})
        image = apply_pieces((cap,), (label,), RINGS[th])
        assert image == ({Generator(0, ()): TPoly(1)} if weight else {})
    # a cup gives v+, a dotted cup X.v+ = v-, and a dot then acts by X
    birth = transfer(empty, unknot)
    assert xmult(P, th) == {M: TPoly(1)}
    assert apply_pieces((Piece(0, 1, birth, {0: CUP}),), (), RINGS[th]) == {Generator(0, (P,)): TPoly(1)}
    assert apply_pieces((Piece(0, -1, birth, {0: DOTTED_CUP}),), (), RINGS[th]) == {
        Generator(0, (M,)): TPoly(-1)
    }
    dotted = apply_pieces((Piece(0, 1, birth, {0: DOTTED_CUP}, dots=(0,)),), (), RINGS[th])
    assert dotted == {Generator(0, (l,)): c for l, c in xmult(M, th).items()}


def test_piece_refuses_a_circle_vanishing_without_a_death_rule():
    src = ResolvedDiagram(((1, 2), (3, 4)), {1: 0, 2: 0, 3: 1, 4: 1})
    tgt = ResolvedDiagram(((3, 4),), {3: 0, 4: 0})
    plan = transfer(src, tgt)
    assert plan.dead == (0,)
    assert Piece(0, 1, plan, deaths={0: CAP}).plan is plan
    with pytest.raises(KhovalError, match="vanished without a death rule"):
        Piece(0, 1, plan)


# -- elements --------------------------------------------------------------------


def test_element_homogeneous_degree():
    c = build_cube(parse_pd("L0"), Theory.BAR_NATAN)
    plus = c.basis_element(Generator(0, (P,)))
    minus = c.basis_element(Generator(0, (M,)))
    assert plus.degree() == (0, 1)
    # t * v+ has q-degree 1 - 4 = -3, matching v- shifted by t... it does not
    # match v-, so the mixed element is inhomogeneous
    mixed = plus + minus
    with pytest.raises(KhovalError):
        mixed.degree()
    shifted = plus.scale(TPoly({1: 1})) + minus  # t*v+ and v- differ in q
    with pytest.raises(KhovalError):
        shifted.degree()
    assert plus.scale(TPoly({1: 2})).degree() == (0, -3)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_caller_coefficients_are_reduced_on_entry(th):
    c = build_cube(parse_pd("L0"), th)
    g = Generator(0, (M,))
    t = TPoly({1: 1})
    x = c.element({g: t})
    if th is Theory.KHOVANOV:
        assert x.is_zero()
    elif th is Theory.LEE:
        assert x == c.element({g: TPoly(1)})
    else:
        assert x.terms == {g: t}
    assert c.basis_element(g).scale(t) == x
    for p in x.terms.values():
        assert th.reduce(p) == p
    assert c.basis_element(g).scale(0).terms == {}
    if th is Theory.KHOVANOV:
        assert c.basis_element(g).scale(t).terms == {}


def test_generator_order_and_format_pin_v_plus_as_zero():
    # v+ sorts first: generator order, pivot order and printed output rely on it
    c = build_cube(parse_pd(PD_CODES["two_unknots"]), Theory.KHOVANOV)
    assert c.circles(0).count == 2
    assert list(c.generators_at(0)) == [
        Generator(0, labels) for labels in ((P, P), (P, M), (M, P), (M, M))
    ]
    assert (P, M) == (0, 1)
    assert str(Generator(5, (P, M))) == "[101|v+(x)v-]"
    assert c.degrees(Generator(0, (P, P))) == (0, 2)


def test_debug_json_is_serializable():
    import json

    d = parse_pd(PD_CODES["trefoil"])
    c = build_cube(d, Theory.KHOVANOV)
    dump = json.loads(json.dumps(c.debug_json()))
    assert len(dump["vertices"]) == 8
    assert len(dump["edges"]) == 12
    assert {e["kind"] for e in dump["edges"]} == {"merge", "split"}
    assert dump["n_plus"] == 3
