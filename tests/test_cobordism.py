"""ESI chain maps, their contract laws, and movie evaluation."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from khoval.algebra import LABELS, MINUS, PLUS, RINGS, TPoly, Theory
from khoval.cobordism import (
    Movie,
    _event,
    _sweep,
    bn_and_kj,
    bn_invariant,
    canonical_movies,
    concatenate,
    connected_sum,
    esi_chain_map,
    eval_movie,
    kj_number,
    lee_value,
    movie_from_json,
    movie_to_json,
    punctured_eval,
    punctured_from_empty,
    punctured_to_empty,
    r3_equivalence,
    torus_with_detour_movie,
    trivial_surface_movie,
)
from khoval.corpus import MIRRORED_BRAID, PD_CODES, _rmove_instances
from khoval.cube import CochainElement, Generator, Piece, apply_linear, apply_pieces, build_cube
from khoval.diagram import LinkDiagram, parse_pd, resolve
from khoval.errors import (
    CapExceededError,
    KhovalError,
    MoveError,
    NonMonomialError,
    ParseError,
    TheoryError,
    ValidationError,
)
from khoval.moves import ESI, apply_esi, apply_esi_info

from oracles import (
    apply_pieces_termwise,
    apply_termwise,
    block_basis,
    block_matrix,
    in_image,
    kernel_basis,
    r2_termwise,
)
from test_hardening import TREFOIL_BRAID, random_movies

P, M = PLUS, MINUS
ALL_THEORIES = list(Theory)


# -- elementary map values ---------------------------------------------------------


def test_birth_map_is_unit():
    src = build_cube(LinkDiagram(), Theory.BAR_NATAN)
    tgt = build_cube(LinkDiagram([], [(1, 2)]), Theory.BAR_NATAN)
    f = esi_chain_map(ESI("birth"), src, tgt)
    out = f.of_generator(Generator(0, ()))
    assert out.terms == {Generator(0, (P,)): TPoly(1)}
    assert f.q_degree == 1


def test_death_map_is_counit():
    src = build_cube(LinkDiagram([], [(1, 2)]), Theory.BAR_NATAN)
    tgt = build_cube(LinkDiagram(), Theory.BAR_NATAN)
    f = esi_chain_map(ESI("death", circle=1), src, tgt)
    assert f.of_generator(Generator(0, (P,))).is_zero()
    assert f.of_generator(Generator(0, (M,))).terms == {Generator(0, ()): TPoly(1)}


def test_saddle_merge_is_multiplication():
    two = parse_pd("L0 L1")
    src = build_cube(two, Theory.BAR_NATAN)
    merged, _ = apply_esi_info(two, ESI("saddle", arcs=(1, 3)))
    tgt = build_cube(merged, Theory.BAR_NATAN)
    f = esi_chain_map(ESI("saddle", arcs=(1, 3)), src, tgt)
    out = f.of_generator(Generator(0, (M, M)))
    assert list(out.terms.values()) == [TPoly({1: 1})]  # m(v-,v-) = t v+
    ((g, _),) = out.terms.items()
    assert g.labels == (P,)
    assert f.q_degree == -1


def test_saddle_split_is_comultiplication():
    one = LinkDiagram([], [(1, 2)])
    src = build_cube(one, Theory.BAR_NATAN)
    split, _ = apply_esi_info(one, ESI("saddle", arcs=(1, 2)))
    tgt = build_cube(split, Theory.BAR_NATAN)
    f = esi_chain_map(ESI("saddle", arcs=(1, 2)), src, tgt)
    out = f.of_generator(Generator(0, (P,)))
    assert out.terms == {
        Generator(0, (P, M)): TPoly(1),
        Generator(0, (M, P)): TPoly(1),
    }


def test_chain_map_rejects_wrong_target():
    src = build_cube(LinkDiagram(), Theory.BAR_NATAN)
    with pytest.raises(MoveError):
        esi_chain_map(ESI("birth"), src, src)


def test_chain_map_refuses_cubes_of_another_theory():
    # cubes of two theories, or of one theory other than the requested one
    birth = ESI("birth")
    after = apply_esi(LinkDiagram(), birth)
    src = build_cube(LinkDiagram(), Theory.KHOVANOV)
    for tgt, th in [(build_cube(after, Theory.LEE), None),
                    (build_cube(after, Theory.KHOVANOV), Theory.LEE)]:
        with pytest.raises(KhovalError, match="cube theories do not match"):
            esi_chain_map(birth, src, tgt, th)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_of_generator_refuses_a_generator_that_does_not_fit_its_vertex(th):
    # the unknot's one vertex has one circle; a refused generator is refused on every call
    event = ESI("r1", variant="add_pos", arc=1)
    unknot = parse_pd("L0")
    f = esi_chain_map(event, build_cube(unknot, th), build_cube(apply_esi(unknot, event), th), th)
    for g in (Generator(0, (P, P, P)), Generator(0, ()), Generator(0, (2,))):
        for _ in range(2):
            with pytest.raises(KhovalError, match="does not live on this cube"):
                f.of_generator(g)
    assert not f.of_generator(Generator(0, (P,))).is_zero()
    with pytest.raises(KhovalError, match="not on the cube"):
        f.of_generator(Generator(1, (P,)))


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_apply_refuses_an_element_of_another_cube(th):
    event = ESI("r1", variant="add_pos", arc=1)
    unknot = parse_pd("L0")
    f = esi_chain_map(event, build_cube(unknot, th), build_cube(apply_esi(unknot, event), th), th)
    with pytest.raises(KhovalError, match="does not live on the map's source"):
        f.apply(build_cube(unknot, th).basis_element(Generator(0, (P,))))


# -- the R-move contract corpus ------------------------------------------------------


def move_instances():
    """(name, diagram, event) for one instance of every implemented move."""
    unknot = parse_pd("L0")
    two = parse_pd("L0 L1")
    trefoil = parse_pd(PD_CODES["trefoil"])
    tre_loop = parse_pd(PD_CODES["trefoil"] + " L0")
    out = []
    out.append(("r1+ unknot", unknot, ESI("r1", variant="add_pos", arc=1)))
    out.append(("r1- unknot", unknot, ESI("r1", variant="add_neg", arc=1)))
    out.append(("r1+ trefoil", trefoil, ESI("r1", variant="add_pos", arc=2)))
    out.append(("r1- trefoil", trefoil, ESI("r1", variant="add_neg", arc=5)))
    kinked, info = apply_esi_info(unknot, ESI("r1", variant="add_pos", arc=1))
    out.append(
        ("r1 rm kink", kinked,
         ESI("r1", variant="remove", crossing=info.created_crossings[0]))
    )
    buried, info = apply_esi_info(trefoil, ESI("r1", variant="add_neg", arc=1))
    buried2, _ = apply_esi_info(buried, ESI("r1", variant="add_pos", arc=2))
    out.append(
        ("r1 rm buried", buried2,
         ESI("r1", variant="remove", crossing=info.created_crossings[0]))
    )
    out.append(("r2 two loops", two, ESI("r2", variant="add", arcs=(1, 3))))
    out.append(("r2 over trefoil", tre_loop, ESI("r2", variant="add", arcs=(2, 7))))
    poked, info = apply_esi_info(two, ESI("r2", variant="add", arcs=(1, 3)))
    out.append(
        ("r2 rm loops", poked,
         ESI("r2", variant="remove", crossings=tuple(info.created_crossings)))
    )
    poked2, info = apply_esi_info(tre_loop, ESI("r2", variant="add", arcs=(2, 7)))
    out.append(
        ("r2 rm trefoil", poked2,
         ESI("r2", variant="remove", crossings=tuple(info.created_crossings)))
    )
    base = parse_pd(PD_CODES["braid_closure"])
    d1 = apply_esi(base, ESI("r1", variant="add_pos", arc=1))
    d2 = apply_esi(d1, ESI("r1", variant="add_neg", arc=2))
    out.append(("r3 braid", d2, ESI("r3", crossings=(1, 2, 3), variant="braid")))
    knotted = parse_pd(TREFOIL_BRAID)
    out.append(("r3 knotted", knotted, ESI("r3", crossings=(1, 2, 3), variant="braid")))
    return out


def removal_behind_a_kink():
    """Two poked loops with a kink outside the bigon: the pair sits at positions (1, 2)."""
    poked, info = apply_esi_info(parse_pd("L0 L1"), ESI("r2", variant="add", arcs=(1, 3)))
    kinked = apply_esi(poked, ESI("r1", variant="add_pos", arc=info.pieces["u1"]))
    return kinked, ESI("r2", variant="remove", crossings=tuple(info.created_crossings))


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_r2_maps_match_the_closed_form(th):
    cases = [(name, d, event) for name, d, event in move_instances() if event.kind == "r2"]
    d, event = removal_behind_a_kink()
    assert apply_esi_info(d, event)[1].positions == (1, 2)
    cases.append(("r2 rm behind a kink", d, event))
    for name, d, event in cases:
        src, tgt = build_cube(d, th), build_cube(apply_esi(d, event), th)
        f = esi_chain_map(event, src, tgt, th)
        for g in src.generators():
            assert f.of_generator(g).terms == r2_termwise(event, src, tgt, g), (name, th, g)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_chain_map_law_exhaustive(th):
    for name, d, event in move_instances():
        src = build_cube(d, th)
        tgt = build_cube(apply_esi(d, event), th)
        f = esi_chain_map(event, src, tgt, th)
        for g in src.generators():
            assert f.apply(src.differential_of(g)) == tgt.differential(
                f.of_generator(g)
            ), (name, th, g)


def _shared_image(f, gens):
    """Two generators whose images share a target generator, or None."""
    seen = {}
    for g in gens:
        for h, poly in f.of_generator(g).terms.items():
            if h in seen:
                return seen[h], (g, poly), h
            seen[h] = (g, poly)
    return None


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_apply_matches_termwise_sum(th):
    rng = random.Random(11)
    cancelled = 0
    for name, d, event in move_instances():
        src = build_cube(d, th)
        f = esi_chain_map(event, src, build_cube(apply_esi(d, event), th), th)
        gens = list(src.generators())
        for _ in range(6):
            x = src.element({
                g: TPoly({rng.randrange(2): rng.choice((-3, -1, 1, 2))})
                for g in rng.sample(gens, rng.randint(1, min(len(gens), 8)))
            })
            assert f.apply(x) == apply_termwise(f, x), (name, th)
        shared = _shared_image(f, gens)
        if shared is not None:
            # coefficients chosen so that the shared target cancels to zero
            (g1, p1), (g2, p2), h = shared
            x = src.element({g1: p2, g2: p1 * -1})
            out = f.apply(x)
            assert h not in out.terms, (name, th)
            assert out == apply_termwise(f, x), (name, th)
            cancelled += 1
    assert cancelled


@pytest.mark.parametrize("th", [Theory.KHOVANOV, Theory.BAR_NATAN])
def test_q_degree_shift_law(th):
    # every homogeneous generator maps to elements shifted by the declared degree
    for name, d, event in move_instances():
        src = build_cube(d, th)
        tgt = build_cube(apply_esi(d, event), th)
        f = esi_chain_map(event, src, tgt, th)
        assert f.q_degree == 0
        for g in src.generators():
            out = f.of_generator(g)
            if out.is_zero():
                continue
            i, q = src.degrees(g)
            oi, oq = out.degree()
            assert (oi, oq) == (i, q), (name, th, g)


def test_morse_q_degree_of_saddles_and_morse_moves():
    # birth, death, saddle shift q by +1, +1, -1
    m = trivial_surface_movie(1)
    stills = m.stills()
    th = Theory.BAR_NATAN
    cubes = [build_cube(s, th) for s in stills]
    shift = {"birth": 1, "death": 1, "saddle": -1}
    for event, src, tgt in zip(m.events, cubes, cubes[1:]):
        f = esi_chain_map(event, src, tgt, th)
        assert f.q_degree == shift[event.kind]
        for g in src.generators():
            out = f.of_generator(g)
            if out.is_zero():
                continue
            i, q = src.degrees(g)
            assert out.degree() == (i, q + shift[event.kind])


# -- homology-level inverses ----------------------------------------------------------


def _induces_identity(comp, cube) -> bool:
    """Whether an endo-chain-map of a plain-theory cube is the identity on homology."""
    blocks = block_basis(cube)
    for key, basis in blocks.items():
        succ = blocks.get((key[0] + 1, key[1]), [])
        prev = blocks.get((key[0] - 1, key[1]), [])
        d_out = block_matrix(cube, basis, succ)
        d_in = block_matrix(cube, prev, basis)
        index = {g: i for i, g in enumerate(basis)}
        if succ:
            cycles = kernel_basis(d_out)
        else:
            cycles = [
                [1 if i == j else 0 for i in range(len(basis))]
                for j in range(len(basis))
            ]
        for vec in cycles:
            z = cube.element(
                {g: TPoly(vec[i]) for i, g in enumerate(basis) if vec[i]}
            )
            delta = comp(z) - z
            diff_vec = [0] * len(basis)
            for g, poly in delta.terms.items():
                if g not in index:
                    return False
                diff_vec[index[g]] = poly.coefficient(0)
            if prev:
                if not in_image(d_in, diff_vec):
                    return False
            elif any(diff_vec):
                return False
    return True


def _assert_value_identified(a, b):
    """Generators of two cubes coincide by (mask, labels) value as a chain iso.

    Holds after an add-then-remove roundtrip: arc ids differ but circle counts
    and the differential agree positionally.
    """
    assert 1 << a.n == 1 << b.n
    for mask in range(1 << a.n):
        assert a.circles(mask).count == b.circles(mask).count
    for g in a.generators():
        assert a.differential_of(g).terms == b.differential_of(g).terms


def test_rmove_pairs_are_mutually_inverse_on_homology():
    th = Theory.KHOVANOV
    unknot = parse_pd("L0")
    two = parse_pd("L0 L1")
    trefoil = parse_pd(PD_CODES["trefoil"])
    pairs = []
    for d, add in [
        (unknot, ESI("r1", variant="add_pos", arc=1)),
        (unknot, ESI("r1", variant="add_neg", arc=1)),
        (trefoil, ESI("r1", variant="add_pos", arc=4)),
        (two, ESI("r2", variant="add", arcs=(1, 3))),
    ]:
        d2, info = apply_esi_info(d, add)
        if add.kind == "r1":
            remove = ESI("r1", variant="remove", crossing=info.created_crossings[0])
        else:
            remove = ESI(
                "r2", variant="remove", crossings=tuple(info.created_crossings)
            )
        pairs.append((d, add, d2, remove))
    for d, add, d2, remove in pairs:
        src = build_cube(d, th)
        tgt = build_cube(d2, th)
        back = build_cube(apply_esi(d2, remove), th)
        _assert_value_identified(src, back)
        f = esi_chain_map(add, src, tgt, th)
        g = esi_chain_map(remove, tgt, back, th)

        def round_trip(x, f=f, g=g, src=src):
            out = g.apply(f.apply(x))
            return src.element(dict(out.terms))  # value-identify back onto src

        def other_way(x, f=f, g=g, tgt=tgt):
            out = f.apply(src.element(dict(g.apply(x).terms)))
            return out

        assert _induces_identity(round_trip, src), add
        assert _induces_identity(other_way, tgt), remove


def test_r3_equivalence_mutually_inverse_on_homology():
    th = Theory.KHOVANOV
    base = parse_pd(PD_CODES["braid_closure"])
    d1 = apply_esi(base, ESI("r1", variant="add_pos", arc=1))
    d2 = apply_esi(d1, ESI("r1", variant="add_neg", arc=2))
    d3 = apply_esi(d2, ESI("r3", crossings=(1, 2, 3), variant="braid"))
    src = build_cube(d2, th)
    tgt = build_cube(d3, th)
    f, g = r3_equivalence(ESI("r3", crossings=(1, 2, 3), variant="braid"), src, tgt)
    # both are chain maps
    for h in src.generators():
        assert f.apply(src.differential_of(h)) == tgt.differential(f.of_generator(h))
    for h in tgt.generators():
        assert g.apply(tgt.differential_of(h)) == src.differential(g.of_generator(h))
    assert _induces_identity(lambda x: g.apply(f.apply(x)), src)
    assert _induces_identity(lambda x: f.apply(g.apply(x)), tgt)


BRAID_R3 = ESI("r3", crossings=(1, 2, 3), variant="braid")


def braid_kinked_on(arcs, variants, extra_loops=0, base=PD_CODES["braid_closure"]) -> LinkDiagram:
    """The closed braid s1 s2 s1 with R1 kinks on two of its arcs from crossing 1 to 3.

    With the kinks on arcs 1 and 2 the triangle's sides are bare; arc 4 is
    a side, so a kink there is carried by the move (the r3 benchmark's
    seeds give all three choices).  `base` may be its mirror,
    `corpus.MIRRORED_BRAID`, whose triangle has B as its 0-face.
    """
    d = parse_pd(base)
    for arc, variant in zip(arcs, variants):
        d = apply_esi(d, ESI("r1", variant=variant, arc=arc))
    top = d.max_arc_id()
    loops = [(top + 2 * k + 1, top + 2 * k + 2) for k in range(extra_loops)]
    return LinkDiagram([(c.cid, c.arcs) for c in d.crossings], [*d.loops, *loops])


# (kinked arcs, base): the braid's triangle has B as its 1-face, its mirror's as its 0-face
R3_TRIANGLES = [pytest.param(arcs, base, id=f"{name}arcs{k}")
                for name, base in (("", PD_CODES["braid_closure"]), ("mirrored-", MIRRORED_BRAID))
                for k, arcs in enumerate([(1, 2), (1, 4), (2, 4)])]


@pytest.mark.parametrize("arcs, base", R3_TRIANGLES)
@pytest.mark.parametrize("variants", [("add_pos", "add_neg"), ("add_neg", "add_pos")])
@pytest.mark.parametrize("th", ALL_THEORIES)
def test_r3_benchmark_triangles_are_degree_zero_chain_maps(arcs, base, variants, th):
    d = braid_kinked_on(arcs, variants, base=base)
    src = build_cube(d, th)
    tgt = build_cube(apply_esi(d, BRAID_R3), th)
    f, g = r3_equivalence(BRAID_R3, src, tgt)
    for rep, a, b in ((f, src, tgt), (g, tgt, src)):
        for x in a.generators():
            image = rep.of_generator(x)
            assert rep.apply(a.differential_of(x)) == b.differential(image), (th, x)
            i, q = a.degrees(x)
            for y, poly in image.terms.items():
                yi, yq = b.degrees(y)
                assert yi == i, (th, x)
                assert th is Theory.LEE or all(yq - 4 * e == q for e, _ in poly.items())


def test_r3_with_a_carried_kink_is_inverse_on_homology():
    for base in (PD_CODES["braid_closure"], MIRRORED_BRAID):
        d = braid_kinked_on((1, 4), ("add_pos", "add_neg"), base=base)
        src = build_cube(d, Theory.KHOVANOV)
        tgt = build_cube(apply_esi(d, BRAID_R3), Theory.KHOVANOV)
        f, g = r3_equivalence(BRAID_R3, src, tgt)
        assert _induces_identity(lambda x: g.apply(f.apply(x)), src), base
        assert _induces_identity(lambda x: f.apply(g.apply(x)), tgt), base


def test_r3_equivalence_refuses_a_target_that_is_not_the_r3_rewrite():
    src = build_cube(braid_kinked_on((1, 2), ("add_pos", "add_neg")), Theory.KHOVANOV)
    with pytest.raises(MoveError, match="not built from the r3-rewritten diagram"):
        r3_equivalence(BRAID_R3, src, src)
    # an event of another kind is refused before any rewrite
    kink = ESI("r1", variant="add_pos", arc=min(src.diagram.arc_ids()))
    tgt = build_cube(apply_esi(src.diagram, kink), Theory.KHOVANOV)
    with pytest.raises(MoveError, match="not built from the r3-rewritten diagram"):
        r3_equivalence(kink, src, tgt)


def test_r3_kink_chain_reaches_the_triangle_once_per_bare_generator(monkeypatch):
    # the r3 benchmark triangle with a kink carried on arc 4: images of many
    # source generators share bare generators, and the memo of each op after
    # the first sends each of those through the triangle once
    import khoval.r3 as r3

    triangle_map = r3.triangle_map
    calls = []

    def counting(*args):
        op = triangle_map(*args)

        def counted(g):
            calls.append(g)
            return op(g)

        return counted

    monkeypatch.setattr(r3, "triangle_map", counting)
    d = braid_kinked_on((1, 4), ("add_pos", "add_neg"))
    for th in ALL_THEORIES:
        calls.clear()
        src, tgt = build_cube(d, th), build_cube(apply_esi(d, BRAID_R3), th)
        f = esi_chain_map(BRAID_R3, src, tgt, th)
        for g in src.generators():
            f.of_generator(g)
        assert len(calls) == len(set(calls)) == 108, th


def kink_removal():
    """A positive kink on the unknot and the event that removes it."""
    kinked, info = apply_esi_info(parse_pd("L0"), ESI("r1", variant="add_pos", arc=1))
    return kinked, ESI("r1", variant="remove", crossing=info.created_crossings[0])


# name -> (source still, event), each call on stills of its own
SHARING_CASES = {
    "r3 bare sides": lambda: (braid_kinked_on((1, 2), ("add_pos", "add_neg")), BRAID_R3),
    "r3 carried kink": lambda: (braid_kinked_on((1, 4), ("add_pos", "add_neg")), BRAID_R3),
    "r2 add": lambda: (parse_pd("L0 L1"), ESI("r2", variant="add", arcs=(1, 3))),
    "r2 remove": removal_behind_a_kink,
    "r1 add positive": lambda: (parse_pd(PD_CODES["trefoil"]), ESI("r1", variant="add_pos", arc=2)),
    "r1 add negative": lambda: (parse_pd(PD_CODES["trefoil"]), ESI("r1", variant="add_neg", arc=5)),
    "r1 remove": kink_removal,
    "saddle": lambda: (parse_pd("L0 L1"), ESI("saddle", arcs=(1, 3))),
}


def _copy(d: LinkDiagram) -> LinkDiagram:
    return LinkDiagram([(c.cid, c.arcs) for c in d.crossings], d.loops)


@pytest.mark.parametrize("name", SHARING_CASES)
def test_maps_of_every_theory_between_two_stills_share_their_structure(monkeypatch, name):
    # only the ring differs between theories: after the first theory's map,
    # a map between the same two stills rewrites, resolves, plans and builds
    # no vertex or piece, and its images equal those of a map built afresh on
    # content-equal copies of both stills, so no ring leaks through a table
    import khoval.cobordism as cobordism
    import khoval.cube as cube
    import khoval.r3 as r3

    calls = []

    def count(module, fn):
        wrapped = getattr(module, fn)

        def counted(*args, **kwargs):
            calls.append(fn)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, fn, counted)

    for module, fn in [(cobordism, "apply_esi_info"), (cobordism, "transfer"),
                       (cobordism, "koszul_to_front"), (cube, "transfer"), (cube, "resolve"),
                       (r3, "transfer"), (r3, "koszul_to_front")]:
        count(module, fn)
    count(cube.Piece, "__init__")
    piece_op = cube._piece_op

    def counted_vertices(c, vertex, entry, key):
        return piece_op(c, lambda mask: calls.append("vertex") or vertex(mask), entry, key)

    for module in (cobordism, cube, r3):
        monkeypatch.setattr(module, "_piece_op", counted_vertices)
    d, event = SHARING_CASES[name]()
    target = apply_esi(d, event)
    for k, th in enumerate(ALL_THEORIES):
        calls.clear()
        src, tgt = build_cube(d, th), build_cube(target, th)
        f = esi_chain_map(event, src, tgt, th)
        images = {g: f.of_generator(g).terms for g in src.generators()}
        assert bool(calls) == (k == 0), (th, sorted(set(calls)))
        fresh = esi_chain_map(event, build_cube(_copy(d), th), build_cube(_copy(target), th), th)
        for g, image in images.items():
            assert fresh.of_generator(g).terms == image, (th, g)


def test_two_events_from_one_still_keep_tables_of_their_own():
    # two kinks on different arcs of one still: each map reads its own
    # event's tables, and equals its map on a fresh copy of the still
    d = parse_pd(PD_CODES["trefoil"])
    for th in ALL_THEORIES:
        for event in (ESI("r1", variant="add_pos", arc=2), ESI("r1", variant="add_pos", arc=5)):
            target = apply_esi(d, event)
            f = esi_chain_map(event, build_cube(d, th), build_cube(target, th), th)
            fresh = esi_chain_map(event, build_cube(_copy(d), th), build_cube(target, th), th)
            for g in f.source.generators():
                assert f.of_generator(g).terms == fresh.of_generator(g).terms, (th, event, g)


def test_equal_events_hash_alike_and_a_renamed_event_is_a_key_of_its_own():
    # an event hashes as the tuple of its fields, so the ids enter it; the
    # two deaths below read the same still, so both entries live in its `maps`
    obj = {"op": "r2", "variant": "add", "arcs": [1, 3]}
    a, b = ESI.from_json(obj), ESI.from_json(json.loads(json.dumps(obj)))
    assert a is not b and a == b and hash(a) == hash(b)
    d = parse_pd("L0 L1")
    death = ESI("death", circle=1)
    renamed = death.renamed({1: 3}, {})
    assert renamed == ESI("death", circle=3) and hash(renamed) == hash(ESI("death", circle=3))
    assert hash(renamed) != hash(death)  # the ids enter the hash
    assert hash(death._replace(circle=3)) == hash(renamed)  # the checked replace
    first, second = _event(d, death), _event(d, renamed)
    assert d.maps == {death: first, renamed: second}
    assert first.target != second.target
    assert _event(d, ESI.from_json(death.to_json())) is first


def _integral(terms: dict) -> bool:
    return all(type(c) is int for c in terms.values())


def test_lee_is_integral_end_to_end():
    # Lee's ring is Z: every element of a sweep, every image of a map and
    # every differential on both cubes holds `int` coefficients only
    for m, label in corpus_sweeps():
        for (x,) in _sweep(m, (Theory.LEE,), label):
            assert _integral(x.terms), (m, x)
    cases = [(d, event) for _, d, event in move_instances()]
    cases += [(braid_kinked_on(arcs, ("add_pos", "add_neg")), BRAID_R3) for arcs in ((1, 2), (1, 4))]
    for d, event in cases:
        src, tgt = build_cube(d, Theory.LEE), build_cube(apply_esi(d, event), Theory.LEE)
        f = esi_chain_map(event, src, tgt)
        for g in src.generators():
            assert _integral(f.of_generator(g).terms), (event, g)
            assert _integral(src.differential_of(g).terms), (event, g)
        for h in tgt.generators():
            assert _integral(tgt.differential_of(h).terms), (event, h)


@pytest.mark.parametrize("name", ["r2 add", "r2 remove", "r3 bare sides"])
def test_r2_and_r3_maps_negate_no_coefficient(monkeypatch, name):
    # pieces of sign -1 read the ring's negated tables and the bigon's h is
    # stored with its sign, so no image is negated; over Z (Khovanov's
    # constant `TPoly`s, Lee's `int`s) no coefficient is made at all, and
    # Bar-Natan makes only the t-powers of products with m(v-, v-) = t v+
    made, negated = [], []
    init, of, neg = TPoly.__init__, TPoly._of, TPoly.__neg__

    def counting_init(self, *args):
        init(self, *args)
        made.append(self)

    def counting_of(self, terms):
        made.append(out := of(self, terms))
        return out

    def counting_neg(self):
        negated.append(self)
        return neg(self)

    for th in ALL_THEORIES:
        d, event = SHARING_CASES[name]()
        target = apply_esi(d, event)
        made.clear()
        monkeypatch.setattr(TPoly, "__init__", counting_init)
        monkeypatch.setattr(TPoly, "_of", counting_of)
        monkeypatch.setattr(TPoly, "__neg__", counting_neg)
        src = build_cube(d, th)
        f = esi_chain_map(event, src, build_cube(target, th), th)
        images = [f.of_generator(g) for g in src.generators()]
        monkeypatch.undo()
        assert images and not negated, (th, len(negated))
        if th is not Theory.BAR_NATAN:
            assert made == [], (th, made)
        else:
            assert all(p.is_monomial() and p.coefficient(0) == 0 for p in made), made
            assert made, "the counters see what is made: each map here multiplies by t"


@pytest.mark.parametrize("arcs, variants", [
    ((4, 1), ("add_neg", "add_pos")),  # the r3 benchmark's input at seed 1
    ((1, 2, 3, 7), ("add_pos", "add_neg") * 2),  # the CI report's triangle
], ids=["5 crossings", "7 crossings"])
def test_an_r3_map_compares_no_coefficient(monkeypatch, arcs, variants):
    # the ring's 1 and -1 are shared objects, tested by identity, so applying
    # an R3 map runs no `TPoly.__eq__` in any theory
    d = braid_kinked_on(arcs, variants)
    target = apply_esi(d, BRAID_R3)
    compared = []
    eq = TPoly.__eq__

    def counting(self, other):
        compared.append(other)
        return eq(self, other)

    for th in ALL_THEORIES:
        src, tgt = build_cube(d, th), build_cube(target, th)
        monkeypatch.setattr(TPoly, "__eq__", counting)
        f = esi_chain_map(BRAID_R3, src, tgt, th)
        images = [f.of_generator(g) for g in src.generators()]
        monkeypatch.undo()
        assert d.n == len(arcs) + 3 and images and compared == [], (th, len(compared))
    monkeypatch.setattr(TPoly, "__eq__", counting)
    assert TPoly(1) == 1 and compared == [1], "the counter sees a comparison"


def _recording_pieces(monkeypatch) -> list:
    """Every `Piece` made from now on, until the monkeypatch is undone."""
    made, init = [], Piece.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Piece, "__init__", recording)
    return made


def assert_compiled_actions_match_transfer_labels(pieces):
    """On every labeling of its source circles and in every theory's ring, a
    piece applied through its compiled label action gives the image of the
    piece carried by the `transfer_labels` reference."""
    rings = [build_cube(LinkDiagram(), th) for th in ALL_THEORIES]  # apply_pieces reads the ring
    assert pieces
    for p in pieces:
        plan = p.plan
        k = len(plan.copies) + len(plan.dead) + (2 if plan.merge else 1 if plan.split else 0)
        for labels in itertools.product(LABELS, repeat=k):
            for cube in rings:
                expected = apply_pieces_termwise(cube, (p,), labels)
                image = apply_linear(apply_pieces(cube, (p,), labels))
                assert image == expected, (p, labels, cube.theory)


def test_compiled_label_actions_match_transfer_labels_on_the_corpus_movies(monkeypatch):
    pieces = _recording_pieces(monkeypatch)
    paths = sorted((Path(__file__).resolve().parent.parent / "movies").glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        m = movie_from_json(json.loads(path.read_text()))
        bn_and_kj(m)
        lee_value(m)
    monkeypatch.undo()
    assert_compiled_actions_match_transfer_labels(pieces)


@pytest.mark.parametrize("name", SHARING_CASES)
def test_compiled_label_actions_match_transfer_labels_on_every_move(monkeypatch, name):
    pieces = _recording_pieces(monkeypatch)
    d, event = SHARING_CASES[name]()
    target = apply_esi(d, event)
    for th in ALL_THEORIES:
        src, tgt = build_cube(d, th), build_cube(target, th)
        f = esi_chain_map(event, src, tgt, th)
        for g in src.generators():
            f.of_generator(g)
            src.differential_of(g)
    monkeypatch.undo()
    assert_compiled_actions_match_transfer_labels(pieces)


@given(random_movies())
@settings(max_examples=15, deadline=None)
def test_compiled_label_actions_match_transfer_labels_on_random_movie_stills(m):
    # each event's map on every generator of its source still, and every edge
    # of the stills; the monkeypatch is undone by hand, as Hypothesis runs
    # this body many times inside one test
    with pytest.MonkeyPatch.context() as monkeypatch:
        pieces = _recording_pieces(monkeypatch)
        stills = m.stills()
        for event, src_d, tgt_d in zip(m.events, stills, stills[1:]):
            if src_d.n > 3 or tgt_d.n > 3:
                continue
            src, tgt = build_cube(src_d, Theory.BAR_NATAN), build_cube(tgt_d, Theory.BAR_NATAN)
            f = esi_chain_map(event, src, tgt)
            for g in src.generators():
                f.of_generator(g)
                src.differential_of(g)
    if pieces:
        assert_compiled_actions_match_transfer_labels(pieces)


def _x_action(cube, arc: int):
    """Multiplication by X on the circle through `arc`."""

    def act(x):
        terms = []
        for gen, coeff in x.terms.items():
            k = cube.circles(gen.mask).circle_of[arc]
            for label, poly in RINGS[cube.theory].multiply[gen.labels[k]][M].items():
                labels = gen.labels[:k] + (label,) + gen.labels[k + 1 :]
                terms.append((Generator(gen.mask, labels), poly * coeff))
        return CochainElement(cube, apply_linear(terms))

    return act


def _is_boundary(cube, x, blocks) -> bool:
    if x.is_zero():
        return True
    ((i, q),) = {cube.degrees(g) for g in x.terms}
    basis = blocks[(i, q)]
    index = {g: k for k, g in enumerate(basis)}
    vec = [0] * len(basis)
    for g, poly in x.terms.items():
        vec[index[g]] = poly.coefficient(0)
    prev = blocks.get((i - 1, q), [])
    return in_image(block_matrix(cube, prev, basis), vec) if prev else not any(vec)


def _commutes_with_x(fmap, src, tgt, arc: int) -> bool:
    """Whether f X = X f on Khovanov homology, X acting at `arc` on both sides."""
    x_src, x_tgt = _x_action(src, arc), _x_action(tgt, arc)
    src_blocks, tgt_blocks = block_basis(src), block_basis(tgt)
    for key, basis in src_blocks.items():
        succ = src_blocks.get((key[0] + 1, key[1]), [])
        if succ:
            cycles = kernel_basis(block_matrix(src, basis, succ))
        else:
            cycles = [[int(i == j) for i in range(len(basis))] for j in range(len(basis))]
        for vec in cycles:
            z = src.element({g: TPoly(c) for g, c in zip(basis, vec) if c})
            if not _is_boundary(tgt, fmap(x_src(z)) - x_tgt(fmap(z)), tgt_blocks):
                return False
    return True


def _components(d: LinkDiagram) -> list[set[int]]:
    """The arcs of each component."""
    parent = {a: a for a in d.arc_ids()}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for c in d.crossings:
        for s, t in ((0, 2), (1, 3)):
            parent[find(c.arcs[s])] = find(c.arcs[t])
    for lp in d.loops:
        for a in lp:
            parent[find(a)] = find(lp[0])
    out: dict[int, set[int]] = {}
    for a in d.arc_ids():
        out.setdefault(find(a), set()).add(a)
    return list(out.values())


def test_r3_commutes_with_the_x_action_on_homology():
    # two disjoint circles make rank-2 blocks; X acts at an arc outside the
    # triangle on each component
    d = braid_kinked_on((1, 2), ("add_pos", "add_neg"), extra_loops=2)
    d2, info = apply_esi_info(d, BRAID_R3)
    src, tgt = build_cube(d, Theory.KHOVANOV), build_cube(d2, Theory.KHOVANOV)
    f = esi_chain_map(BRAID_R3, src, tgt)
    kept = (d.arc_ids() & d2.arc_ids()) - set(info.arc_map)
    components = _components(d)
    assert len(components) == 4
    for arcs in components:
        arc = min(arcs & kept)
        assert _commutes_with_x(f.apply, src, tgt, arc), arc
    # a map that swaps two generators of a rank-2 block (the labels of the
    # two disjoint circles) is caught
    o1, o2 = d.loops[-2][0], d.loops[-1][0]

    def swapped(x):
        acc = {}
        for gen, coeff in f.apply(x).terms.items():
            res = tgt.circles(gen.mask)
            k1, k2 = res.circle_of[o1], res.circle_of[o2]
            labels = list(gen.labels)
            labels[k1], labels[k2] = labels[k2], labels[k1]
            acc[Generator(gen.mask, tuple(labels))] = coeff
        return CochainElement(tgt, acc)

    assert not _commutes_with_x(swapped, src, tgt, o1)


def test_sixteen_crossing_r3_resolves_only_reached_vertices(resolve_calls):
    d = braid_kinked_on((1, 2), ("add_pos", "add_neg"))
    for k in range(11):
        # kinks away from the triangle, whose sides are arcs 4, 5 and 6
        arcs = sorted(d.arc_ids() - {4, 5, 6})
        variant = ("add_pos", "add_neg")[k % 2]
        d = apply_esi(d, ESI("r1", variant=variant, arc=arcs[3 * k % len(arcs)]))
    assert d.n == 16
    d2, info = apply_esi_info(d, BRAID_R3)
    assert not info.kinks
    src, tgt = build_cube(d, Theory.BAR_NATAN), build_cube(d2, Theory.BAR_NATAN)
    f = esi_chain_map(BRAID_R3, src, tgt)
    # every smoothing of the triangle, each kink smoothed so that its loop
    # merges into the strand (positive kinks 1-smoothed, negative 0-smoothed)
    rest = sum(1 << j for j, c in enumerate(d.crossings) if c.sign > 0 and j not in info.positions)
    masks = [rest | sum(((t >> k) & 1) << p for k, p in enumerate(info.positions)) for t in range(8)]
    resolve_calls[0] = 0
    for mask in masks:
        for x in src.generators_at(mask):
            assert f.apply(src.differential_of(x)) == tgt.differential(f.of_generator(x))
    # the map moves only the three triangle bits and the law adds one edge:
    # at most 8 * 17 vertices around each chosen one, on each cube
    assert resolve_calls[0] <= 2 * len(masks) * 8 * 17


def test_r1_remove_after_add_is_strict_identity():
    th = Theory.BAR_NATAN
    unknot = parse_pd("L0")
    for variant in ("add_pos", "add_neg"):
        add = ESI("r1", variant=variant, arc=1)
        d2, info = apply_esi_info(unknot, add)
        remove = ESI("r1", variant="remove", crossing=info.created_crossings[0])
        src = build_cube(unknot, th)
        mid = build_cube(d2, th)
        back = build_cube(apply_esi(d2, remove), th)
        _assert_value_identified(src, back)
        f = esi_chain_map(add, src, mid, th)
        g = esi_chain_map(remove, mid, back, th)
        for h in src.generators():
            assert g.apply(f.of_generator(h)).terms == {h: TPoly(1)}, variant


# -- movie machinery -------------------------------------------------------------------


def test_sphere_movie():
    m = trivial_surface_movie(0)
    assert m.validate().ok
    assert bn_invariant(m) == TPoly(0)
    assert kj_number(m) == 0


def test_torus_movie_values_and_still_counts():
    m = trivial_surface_movie(1)
    counts = [s.free_loops for s in m.stills()]
    assert counts == [0, 1, 2, 1, 0]
    assert bn_invariant(m) == TPoly(2)
    assert kj_number(m) == 2
    assert lee_value(m) == 2


@pytest.mark.parametrize(
    "genus,expected",
    [(0, {}), (1, {0: 2}), (2, {}), (3, {1: 8}), (4, {}), (5, {2: 32})],
)
def test_trivial_surface_values(genus, expected):
    assert bn_invariant(trivial_surface_movie(genus)) == TPoly(expected)


def test_closed_movie_degree_is_euler_characteristic():
    # the composite is graded of degree chi = 2 - 2g: a coefficient t^k on the
    # empty generator means total degree -4k
    for genus in (1, 3, 5):
        m = trivial_surface_movie(genus)
        out = eval_movie(m, Theory.BAR_NATAN)
        ((g, poly),) = out.terms.items()
        ((exp, _),) = poly.items()
        assert -4 * exp == 2 - 2 * genus


def test_monomial_law_on_corpus_movies():
    for name, m in canonical_movies().items():
        value = bn_invariant(m)
        if value.is_zero():
            continue
        assert value.is_monomial()
        ((exp, coeff),) = value.items()
        assert coeff > 0


def test_specialization_law_on_corpus_movies():
    for name, m in canonical_movies().items():
        assert kj_number(m) == abs(bn_invariant(m).specialize(0)), name


def test_detour_equals_plain_torus():
    assert bn_invariant(torus_with_detour_movie()) == bn_invariant(
        trivial_surface_movie(1)
    )


def kinked_detour_movie(genus: int, kinks: int) -> Movie:
    """A trivial genus-g movie whose first tube carries an R2 poke and R1 kinks.

    The kinks alternate in sign; every move is undone in reverse order, so
    the largest still has `kinks + 2` crossings.
    """
    state = {"d": LinkDiagram()}
    events = []

    def step(event):
        state["d"], info = apply_esi_info(state["d"], event)
        events.append(event)
        return info

    step(ESI("birth"))
    for tube in range(genus):
        loop = state["d"].loops[0]
        step(ESI("saddle", arcs=(loop[0], loop[1])))
        if tube == 0:
            first, second = state["d"].loops
            poke = step(ESI("r2", variant="add", arcs=(first[0], second[0])))
            created = []
            for k in range(kinks):
                arcs = sorted(state["d"].arc_ids())
                variant = ("add_pos", "add_neg")[k % 2]
                info = step(ESI("r1", variant=variant, arc=arcs[5 * k % len(arcs)]))
                created.append(info.created_crossings[0])
            for c in reversed(created):
                step(ESI("r1", variant="remove", crossing=c))
            step(ESI("r2", variant="remove", crossings=tuple(poke.created_crossings)))
        first, second = state["d"].loops
        step(ESI("saddle", arcs=(first[0], second[0])))
    step(ESI("death", circle=min(state["d"].loops[0])))
    return Movie(events)


def kink_to_empty() -> Movie:
    """unknot -> positive kink -> unknot -> empty: a punctured movie through R1."""
    events = [ESI("r1", variant="add_pos", arc=1), ESI("r1", variant="remove", crossing=1)]
    d = LinkDiagram([], [(1, 2)])
    for event in events:
        d = apply_esi(d, event)
    return Movie(events + [ESI("death", circle=min(d.loops[0]))], initial="unknot")


@pytest.mark.parametrize("genus,expected", [(1, TPoly(2)), (3, TPoly({1: 8}))])
def test_sixteen_crossing_detour_resolves_only_reached_vertices(monkeypatch, genus, expected):
    import khoval.cube

    resolved = []  # (still, vertex) of every resolution a cube computes

    def recording(d, v):
        resolved.append((id(d), v))
        return resolve(d, v)

    monkeypatch.setattr(khoval.cube, "resolve", recording)
    m = kinked_detour_movie(genus, 14)
    assert max(s.n for s in m.stills()) == 16
    bn, kj = bn_and_kj(m)
    lee = lee_value(m)
    assert bn == expected
    assert kj == bn.specialize(0)
    assert abs(lee) == bn.specialize(1)
    # BN, KJ and Lee share the stills' resolutions: each reached (still,
    # vertex) is resolved once, where whole stills would cost 2^16 each
    assert len(set(resolved)) == len(resolved) == {1: 66, 3: 70}[genus]


@pytest.mark.parametrize("genus", [1, 3])
def test_sixteen_crossing_detour_plans_once_per_source_vertex(monkeypatch, genus):
    import khoval.cobordism as cobordism
    import khoval.cube as cube
    from khoval.diagram import transfer

    plans = []  # the source resolution of every transfer call
    bigon_plans = []  # (source, target) resolution of every plan of R2's bigon

    def counting(src_res, tgt_res, hints=None):
        plans.append(src_res)
        return transfer(src_res, tgt_res, hints)

    def bigon_counting(src_res, tgt_res, hints=None):
        bigon_plans.append((id(src_res), id(tgt_res)))
        return transfer(src_res, tgt_res, hints)

    # (theory, event, vertex) of every generator a map is applied to: the sweep
    # maps Morse and R1 events through their piece table, one per event, and
    # R2 events through `ChainMapRep.apply`, whose source still is the source
    # of one event
    applied = []
    apply, apply_table = cobordism.ChainMapRep.apply, cobordism._apply_table

    def recording(rep, x):
        applied.extend((rep.source.theory, id(rep.source.diagram), g.mask) for g in x.terms)
        return apply(rep, x)

    def recording_table(c, table, vertex, terms):
        applied.extend((c.theory, id(table), g.mask) for g, _ in terms)
        return apply_table(c, table, vertex, terms)

    monkeypatch.setattr(cobordism, "transfer", counting)
    monkeypatch.setattr(cube, "transfer", bigon_counting)
    monkeypatch.setattr(cobordism.ChainMapRep, "apply", recording)
    monkeypatch.setattr(cobordism, "_apply_table", recording_table)
    bn_and_kj(kinked_detour_movie(genus, 14))
    # the bigon's h table is shared by both theories too: one plan per pair
    assert len(set(bigon_plans)) == len(bigon_plans) == 2
    # a source resolution is one (still, vertex), shared by both theories, and
    # a still is the source of one event: one plan per (event, source vertex)
    # across the deformed and the plain evaluation together
    assert len({id(s) for s in plans}) == len(plans)
    assert {th for th, _, _ in applied} == {Theory.BAR_NATAN, Theory.KHOVANOV}
    reached = {(d, mask) for _, d, mask in applied}
    assert len(plans) <= len(reached) < len(set(applied)) < len(applied)


def assert_sweep_matches_one_theory_runs(m: Movie, start_label=None):
    """One sweep's BN and plain elements, after every event, equal `eval_movie`
    of the movie up to that event, and each equals the event's own
    `esi_chain_map` applied to the element before it, generator by generator."""
    theories = (Theory.BAR_NATAN, Theory.KHOVANOV)
    before = None
    for k, xs in enumerate(_sweep(m, theories, start_label)):
        prefix = Movie(m.events[:k], m.initial)
        for th, x in zip(theories, xs):
            assert x.cube.theory is th and x.cube.diagram is m.stills()[k]
            assert x.terms == eval_movie(prefix, th, start_label).terms, (k, th)
        if before is not None:
            for x, y in zip(before, xs):
                assert apply_termwise(esi_chain_map(m.events[k - 1], x.cube, y.cube), x) == y, k
        before = xs


def corpus_sweeps():
    """(movie, start label): the movie files, the canonical movies, a kinked
    detour, and two punctured movies on both labels."""
    movies_dir = Path(__file__).resolve().parent.parent / "movies"
    for path in sorted(movies_dir.glob("*.json")):
        yield movie_from_json(json.loads(path.read_text())), None
    for m in canonical_movies().values():
        yield m, None
    yield kinked_detour_movie(1, 4), None
    for label in (P, M):
        yield punctured_to_empty(2), label
        yield kink_to_empty(), label


def test_sweep_matches_one_theory_runs_on_corpus_movies():
    for m, label in corpus_sweeps():
        assert_sweep_matches_one_theory_runs(m, label)


@given(random_movies())
@settings(max_examples=25, deadline=None)
def test_sweep_matches_one_theory_runs_on_random_movies(m):
    assert_sweep_matches_one_theory_runs(m)


def assert_sweep_matches_chain_map_apply(m: Movie, start_label=None):
    """After every event, each theory's swept element is the event's
    `esi_chain_map` applied to the element before it: the same terms and
    coefficients in the same dict order.  The sweep maps Morse and R1 events
    in one pass through their piece tables (`cube._apply_table`), the chain
    map through its memoized per-generator op, so each checks the other."""
    before = None
    for k, xs in enumerate(_sweep(m, ALL_THEORIES, start_label)):
        if before is not None:
            for x, y in zip(before, xs):
                th = x.cube.theory
                image = esi_chain_map(m.events[k - 1], x.cube, y.cube, th).apply(x)
                assert list(image.terms.items()) == list(y.terms.items()), (k, th)
        before = xs


def test_sweep_matches_chain_map_apply_on_corpus_movies():
    for m, label in corpus_sweeps():
        assert_sweep_matches_chain_map_apply(m, label)
    for genus, kinks in ((2, 7), (3, 14)):
        assert_sweep_matches_chain_map_apply(kinked_detour_movie(genus, kinks))


@given(random_movies())
@settings(max_examples=25, deadline=None)
def test_sweep_matches_chain_map_apply_on_random_movies(m):
    assert_sweep_matches_chain_map_apply(m)


def assert_bar_natan_is_graded_lee(bn: CochainElement, lee: CochainElement):
    """Every Bar-Natan coefficient is one monomial c*t^e, (i, q(g) - 4e) is one
    degree for all terms, and the Lee element, over `int`, is the Bar-Natan
    one at t = 1."""
    for g, poly in bn.terms.items():
        assert poly.is_monomial(), (g, poly)
    if bn.terms:
        bn.degree()  # raises unless every term has the same (i, q(g) - 4e)
    assert _integral(lee.terms), lee
    assert {g: p.specialize(1) for g, p in bn.terms.items()} == lee.terms


def assert_sweep_is_graded_lee(m: Movie, start_label=None):
    for bn, lee in _sweep(m, (Theory.BAR_NATAN, Theory.LEE), start_label):
        assert_bar_natan_is_graded_lee(bn, lee)


def test_bar_natan_elements_are_graded_lee_elements_on_corpus_movies():
    # the premise of evaluating Bar-Natan's theory over Lee's integer tables
    for m, label in corpus_sweeps():
        assert_sweep_is_graded_lee(m, label)


@given(random_movies())
@settings(max_examples=25, deadline=None)
def test_bar_natan_elements_are_graded_lee_elements_on_random_movies(m):
    assert_sweep_is_graded_lee(m)


def test_bar_natan_move_images_are_graded_lee_images():
    # the R3 map is not in the movies above: every move's image of every generator
    for _, d, event in _rmove_instances():
        maps = []
        for th in (Theory.BAR_NATAN, Theory.LEE):
            src, tgt = build_cube(d, th), build_cube(apply_esi(d, event), th)
            maps.append(esi_chain_map(event, src, tgt))
        for g in maps[0].source.generators():
            assert_bar_natan_is_graded_lee(*(f.of_generator(g) for f in maps))


def test_zero_element_builds_no_maps_but_every_still_meets_the_cap(monkeypatch):
    import khoval.cobordism as cobordism

    # the plain element of a genus-2 tube pair is 0 (v+ -> 2v- -> 2t v+ at
    # t = 0); a kink comes and goes after it
    m = punctured_from_empty(2)
    d = m.stills()[-1]
    kink, info = ESI("r1", variant="add_pos", arc=d.loops[0][0]), None
    d, info = apply_esi_info(d, kink)
    unkink = ESI("r1", variant="remove", crossing=info.created_crossings[0])
    d = apply_esi(d, unkink)
    m = Movie([*m.events, kink, unkink, ESI("death", circle=min(d.loops[0]))])
    built = []  # the kind of every map built: an R2 or R3 map, or a Morse or R1 rule
    event_map, vertex = cobordism._event_map, cobordism._vertex

    def counting(entry, *args):
        built.append(entry.info.kind)
        return event_map(entry, *args)

    def counting_vertex(entry, *args):
        built.append(entry.info.kind)
        return vertex(entry, *args)

    monkeypatch.setattr(cobordism, "_event_map", counting)
    monkeypatch.setattr(cobordism, "_vertex", counting_vertex)
    assert eval_movie(m, Theory.KHOVANOV).is_zero()
    assert built == ["birth", "saddle", "saddle", "saddle", "saddle"]
    with pytest.raises(CapExceededError):
        eval_movie(m, Theory.KHOVANOV, cap=0)
    built.clear()
    assert bn_and_kj(m) == (TPoly(0), 0)
    assert built.count("r1") == 2  # the BN element is 4t v+ then, not 0
    with pytest.raises(CapExceededError):
        bn_and_kj(m, cap=0)


def test_punctured_and_connected_sum_respect_the_cap():
    kinked = kink_to_empty()
    assert punctured_eval(kinked, M) == TPoly(1)
    with pytest.raises(CapExceededError):
        punctured_eval(kinked, M, cap=0)
    with pytest.raises(CapExceededError):
        connected_sum(punctured_from_empty(1), kinked, cap=0)


def test_punctured_sphere_counit():
    m = punctured_to_empty(0)
    assert punctured_eval(m, M) == TPoly(1)
    assert punctured_eval(m, P) == TPoly(0)


@pytest.mark.parametrize("half", [0, 1, 2])
def test_punctured_even_genus_on_minus(half):
    m = punctured_to_empty(2 * half)
    value = punctured_eval(m, M)
    want = TPoly({half: 4 ** half})
    assert value == want or value == -want


def test_punctured_even_genus_on_plus_vanishes():
    m = punctured_to_empty(2)
    assert punctured_eval(m, P) == TPoly(0)


def test_punctured_from_empty_torus():
    element = punctured_eval(punctured_from_empty(1))
    ((g, poly),) = element.terms.items()
    assert g.labels == (M,) and poly == TPoly(2)


def test_connected_sum_values():
    torus = punctured_from_empty(1)
    assert connected_sum(torus, punctured_to_empty(1)) == TPoly(0)
    assert connected_sum(torus, punctured_to_empty(2)) == TPoly({1: 8})
    assert connected_sum(torus, punctured_to_empty(0)) == bn_invariant(
        trivial_surface_movie(1)
    )


def test_lee_connected_sum_is_bar_natan_at_t_1():
    # Lee's value is an `int`, whose absolute value the connected sum takes as it is
    for g1, g2, lee in [(1, 0, 2), (1, 1, 0), (2, 1, 8)]:
        m1, m2 = punctured_from_empty(g1), punctured_to_empty(g2)
        assert connected_sum(m1, m2, th=Theory.LEE) == lee, (g1, g2)
        assert connected_sum(m1, m2).specialize(1) == lee, (g1, g2)


def test_connected_sum_refuses_movies_in_the_wrong_order():
    for m1, m2 in [(punctured_to_empty(1), punctured_to_empty(1)),
                   (punctured_from_empty(1), punctured_from_empty(1)),
                   (punctured_to_empty(1), punctured_from_empty(1))]:
        with pytest.raises(MoveError, match="connected sum needs"):
            connected_sum(m1, m2)


def test_connected_sum_matches_concatenation():
    for g1, g2 in [(1, 1), (1, 2), (2, 1), (0, 3)]:
        m1 = punctured_from_empty(g1)
        m2 = punctured_to_empty(g2)
        assert connected_sum(m1, m2) == bn_invariant(concatenate(m1, m2)), (g1, g2)


def test_punctured_identity_factorisations():
    # the closed value factors through either puncturing of the same surface
    for genus in (1, 2, 3):
        closed = bn_invariant(trivial_surface_movie(genus))
        via_end = punctured_eval(punctured_from_empty(genus))
        total = TPoly(0)
        for g, coeff in via_end.terms.items():
            (label,) = g.labels
            if label == M:
                total = total + coeff  # counit keeps only the v- part
        assert total == closed or total == -closed
        via_start = punctured_eval(punctured_to_empty(genus), P)
        assert via_start == closed or via_start == -closed


# -- validation and i/o -----------------------------------------------------------------


def test_validate_movie_reports_failure_index():
    # event indices are 1-based: a death on the empty diagram fails at event 1
    m = Movie([ESI("death", circle=1)])
    rep = m.validate()
    assert not rep.ok and rep.index == 1


def test_validate_self_saddle():
    m = Movie([ESI("birth"), ESI("saddle", arcs=(1, 1))])
    rep = m.validate()
    assert not rep.ok and rep.index == 2


def test_eval_rejects_invalid_movie():
    m = Movie([ESI("death", circle=1)])
    with pytest.raises(ValidationError):
        eval_movie(m, Theory.BAR_NATAN)


def test_bn_requires_closed_movie():
    with pytest.raises(MoveError):
        bn_invariant(Movie([ESI("birth")]))


def test_punctured_shape_checks():
    with pytest.raises(MoveError, match="must run from the empty diagram to the unknot"):
        punctured_eval(trivial_surface_movie(1), M)
    with pytest.raises(MoveError, match="needs a starting label"):
        punctured_eval(punctured_to_empty(1))
    open_end = Movie(punctured_to_empty(1).events[:-1], initial="unknot")
    with pytest.raises(MoveError, match="from the unknot to the empty diagram"):
        punctured_eval(open_end, P)


def test_a_movie_from_the_empty_diagram_takes_no_start_label():
    with pytest.raises(KhovalError, match="starts at 1"):
        eval_movie(trivial_surface_movie(1), start_label=P)


def test_a_negative_genus_is_refused():
    with pytest.raises(KhovalError, match="genus must be non-negative"):
        trivial_surface_movie(-1)


def test_concatenate_refuses_movies_that_do_not_meet_at_the_unknot():
    with pytest.raises(MoveError, match="second movie must start at the unknot"):
        concatenate(punctured_from_empty(1), trivial_surface_movie(0))
    with pytest.raises(MoveError, match="first movie must end at a trivial-knot still"):
        concatenate(trivial_surface_movie(0), punctured_to_empty(0))


@pytest.mark.parametrize("label", [-1, 2, True, False, 1.0, "v-"])
def test_start_label_must_be_plus_or_minus(monkeypatch, label):
    import khoval.cobordism as cobordism

    def unreachable(*args, **kwargs):
        raise AssertionError("a cube was built before the label was checked")

    monkeypatch.setattr(cobordism, "build_cube", unreachable)
    for genus in (0, 1):
        m = punctured_to_empty(genus)
        with pytest.raises(KhovalError, match="start label"):
            punctured_eval(m, label)
        with pytest.raises(KhovalError, match="start label"):
            eval_movie(m, Theory.KHOVANOV, start_label=label)


def test_punctured_from_empty_refuses_a_label():
    m = punctured_from_empty(1)
    for label in (P, M):
        with pytest.raises(MoveError, match="takes no label"):
            punctured_eval(m, label)


def test_an_unknown_initial_still_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown initial still 'x'"):
        Movie([], initial="x")
    with pytest.raises(ParseError, match="unknown initial still 'x'"):
        movie_from_json({"movie": [], "initial": "x"})


@pytest.mark.parametrize("extra,stray", [
    ({"extra": 5}, "extra"),
    ({"intial": "unknot"}, "intial"),  # a typo would evaluate from the empty diagram
    ({"initial": "unknot", "events": [], "Movie": []}, "Movie"),
])
def test_a_movie_key_other_than_movie_and_initial_is_a_parse_error(extra, stray):
    with pytest.raises(ParseError, match=f"unknown key {stray!r}"):
        movie_from_json({"movie": [], **extra})
    assert movie_from_json({"movie": [], "initial": "unknot"}) == Movie([], "unknot")


@pytest.mark.parametrize("theory", ["lee", None, 3])
def test_a_theory_that_is_not_a_theory_member_is_refused(theory):
    with pytest.raises(TheoryError, match="unknown theory"):
        build_cube(parse_pd(PD_CODES["trefoil"]), theory)
    with pytest.raises(TheoryError, match="unknown theory"):
        eval_movie(trivial_surface_movie(1), theory)


@pytest.mark.parametrize("theory", ["lee", 3])
def test_esi_chain_map_refuses_a_theory_that_is_not_a_theory_member(theory):
    src = build_cube(LinkDiagram(), Theory.LEE)
    tgt = build_cube(apply_esi(src.diagram, ESI("birth")), Theory.LEE)
    with pytest.raises(TheoryError, match=f"unknown theory {theory!r}"):
        esi_chain_map(ESI("birth"), src, tgt, theory)


def test_movie_json_roundtrip():
    for name, m in canonical_movies().items():
        assert movie_from_json(movie_to_json(m)) == m
    m2 = punctured_to_empty(2)
    assert movie_from_json(movie_to_json(m2)) == m2


def test_eval_deterministic():
    m = torus_with_detour_movie()
    a = eval_movie(m, Theory.BAR_NATAN)
    b = eval_movie(m, Theory.BAR_NATAN)
    assert a.terms == b.terms
