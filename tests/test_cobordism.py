"""ESI chain maps, their contract laws, and movie evaluation."""

import random

import pytest

from khoval.algebra import MINUS, PLUS, TPoly, Theory, xmult
from khoval.cobordism import (
    Movie,
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
    validate_movie,
)
from khoval.corpus import PD_CODES
from khoval.cube import CochainElement, Generator, _accumulate, build_cube
from khoval.diagram import LinkDiagram, parse_pd
from khoval.errors import (
    CapExceededError,
    KhovalError,
    MoveError,
    NonMonomialError,
    ValidationError,
)
from khoval.moves import ESI, apply_esi, apply_esi_info

from oracles import (
    apply_termwise,
    block_basis,
    block_matrix,
    in_image,
    kernel_basis,
    r2_termwise,
)
from test_hardening import TREFOIL_BRAID

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


def braid_kinked_on(arcs, variants, extra_loops=0) -> LinkDiagram:
    """The closed braid s1 s2 s1 with R1 kinks on two of its arcs from crossing 1 to 3.

    With the kinks on arcs 1 and 2 the triangle's sides are bare; arc 4 is
    a side, so a kink there is carried by the move (the r3 benchmark's
    seeds give all three choices).
    """
    d = parse_pd(PD_CODES["braid_closure"])
    for arc, variant in zip(arcs, variants):
        d = apply_esi(d, ESI("r1", variant=variant, arc=arc))
    top = d.max_arc_id()
    loops = [(top + 2 * k + 1, top + 2 * k + 2) for k in range(extra_loops)]
    return LinkDiagram([(c.cid, c.arcs) for c in d.crossings], [*d.loops, *loops])


@pytest.mark.parametrize("arcs", [(1, 2), (1, 4), (2, 4)])
@pytest.mark.parametrize("variants", [("add_pos", "add_neg"), ("add_neg", "add_pos")])
@pytest.mark.parametrize("th", ALL_THEORIES)
def test_r3_benchmark_triangles_are_degree_zero_chain_maps(arcs, variants, th):
    d = braid_kinked_on(arcs, variants)
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
    d = braid_kinked_on((1, 4), ("add_pos", "add_neg"))
    src = build_cube(d, Theory.KHOVANOV)
    tgt = build_cube(apply_esi(d, BRAID_R3), Theory.KHOVANOV)
    f, g = r3_equivalence(BRAID_R3, src, tgt)
    assert _induces_identity(lambda x: g.apply(f.apply(x)), src)
    assert _induces_identity(lambda x: f.apply(g.apply(x)), tgt)


def _x_action(cube, arc: int):
    """Multiplication by X on the circle through `arc`."""

    def act(x):
        acc = {}
        for gen, coeff in x.terms.items():
            k = cube.circles(gen.mask).circle_of[arc]
            for label, poly in xmult(gen.labels[k], cube.theory).items():
                labels = gen.labels[:k] + (label,) + gen.labels[k + 1 :]
                _accumulate(acc, Generator(gen.mask, labels), poly * coeff)
        return CochainElement(cube, acc)

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
    assert validate_movie(m).ok
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
def test_sixteen_crossing_detour_resolves_only_reached_vertices(
    resolve_calls, genus, expected
):
    m = kinked_detour_movie(genus, 14)
    assert max(s.n for s in m.stills()) == 16
    bn, kj = bn_and_kj(m)
    lee = lee_value(m)
    assert bn == expected
    assert kj == bn.specialize(0)
    assert abs(lee) == bn.specialize(1)
    # three evaluations; resolving whole stills would cost 2^16 per still
    assert resolve_calls[0] <= 3 * 4 * len(m.events)


@pytest.mark.parametrize("genus", [1, 3])
def test_sixteen_crossing_detour_plans_once_per_source_vertex(monkeypatch, genus):
    import khoval.cobordism as cobordism
    from khoval.diagram import transfer

    plans = []  # (source resolution, target resolution) of every transfer call

    def counting(src_res, tgt_res, hints=None):
        plans.append((src_res, tgt_res))
        return transfer(src_res, tgt_res, hints)

    applied = []  # (map, generator) of every generator a map is applied to
    of_generator = cobordism.ChainMapRep.of_generator

    def recording(rep, g):
        applied.append((rep, g))
        return of_generator(rep, g)

    monkeypatch.setattr(cobordism, "transfer", counting)
    monkeypatch.setattr(cobordism.ChainMapRep, "of_generator", recording)
    bn_and_kj(kinked_detour_movie(genus, 14))
    # one plan per source vertex and target slice (two slices for an R2 addition)
    assert len({(id(s), id(t)) for s, t in plans}) == len(plans)
    per_source: dict[int, int] = {}
    for s, _ in plans:
        per_source[id(s)] = per_source.get(id(s), 0) + 1
    assert max(per_source.values()) <= 2
    vertices = {(id(rep.source), g.mask) for rep, g in applied}
    assert len(per_source) <= len(vertices) < len(applied)
    assert len(plans) < len(applied)


def test_punctured_and_connected_sum_respect_the_cap():
    kinked = kink_to_empty()
    assert punctured_eval(kinked, M, "to_empty") == TPoly(1)
    with pytest.raises(CapExceededError):
        punctured_eval(kinked, M, "to_empty", cap=0)
    with pytest.raises(CapExceededError):
        connected_sum(punctured_from_empty(1), kinked, cap=0)


def test_punctured_sphere_counit():
    m = punctured_to_empty(0)
    assert punctured_eval(m, M, "to_empty") == TPoly(1)
    assert punctured_eval(m, P, "to_empty") == TPoly(0)


@pytest.mark.parametrize("half", [0, 1, 2])
def test_punctured_even_genus_on_minus(half):
    m = punctured_to_empty(2 * half)
    value = punctured_eval(m, M, "to_empty")
    want = TPoly({half: 4 ** half})
    assert value == want or value == -want


def test_punctured_even_genus_on_plus_vanishes():
    m = punctured_to_empty(2)
    assert punctured_eval(m, P, "to_empty") == TPoly(0)


def test_punctured_from_empty_torus():
    element = punctured_eval(punctured_from_empty(1), direction="from_empty")
    ((g, poly),) = element.terms.items()
    assert g.labels == (M,) and poly == TPoly(2)


def test_connected_sum_values():
    torus = punctured_from_empty(1)
    assert connected_sum(torus, punctured_to_empty(1)) == TPoly(0)
    assert connected_sum(torus, punctured_to_empty(2)) == TPoly({1: 8})
    assert connected_sum(torus, punctured_to_empty(0)) == bn_invariant(
        trivial_surface_movie(1)
    )


def test_connected_sum_matches_concatenation():
    for g1, g2 in [(1, 1), (1, 2), (2, 1), (0, 3)]:
        m1 = punctured_from_empty(g1)
        m2 = punctured_to_empty(g2)
        assert connected_sum(m1, m2) == bn_invariant(concatenate(m1, m2)), (g1, g2)


def test_punctured_identity_factorisations():
    # the closed value factors through either puncturing of the same surface
    for genus in (1, 2, 3):
        closed = bn_invariant(trivial_surface_movie(genus))
        via_end = punctured_eval(punctured_from_empty(genus), direction="from_empty")
        total = TPoly(0)
        for g, coeff in via_end.terms.items():
            (label,) = g.labels
            if label == M:
                total = total + coeff  # counit keeps only the v- part
        assert total == closed or total == -closed
        via_start = punctured_eval(punctured_to_empty(genus), P, "to_empty")
        assert via_start == closed or via_start == -closed


# -- validation and i/o -----------------------------------------------------------------


def test_validate_movie_reports_failure_index():
    # event indices are 1-based: a death on the empty diagram fails at event 1
    m = Movie([ESI("death", circle=1)])
    rep = validate_movie(m)
    assert not rep.ok and rep.index == 1


def test_validate_self_saddle():
    m = Movie([ESI("birth"), ESI("saddle", arcs=(1, 1))])
    rep = validate_movie(m)
    assert not rep.ok and rep.index == 2


def test_eval_rejects_invalid_movie():
    m = Movie([ESI("death", circle=1)])
    with pytest.raises(ValidationError):
        eval_movie(m, Theory.BAR_NATAN)


def test_bn_requires_closed_movie():
    with pytest.raises(MoveError):
        bn_invariant(Movie([ESI("birth")]))


def test_punctured_shape_checks():
    with pytest.raises(MoveError):
        punctured_eval(trivial_surface_movie(1), M, "to_empty")
    with pytest.raises(MoveError):
        punctured_eval(punctured_to_empty(1), direction="from_empty")


def test_punctured_from_empty_refuses_a_label():
    m = punctured_from_empty(1)
    for label in (P, M):
        with pytest.raises(MoveError, match="takes no label"):
            punctured_eval(m, label, "from_empty")


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
