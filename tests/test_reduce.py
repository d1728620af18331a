"""Gaussian elimination: the unit-pivot kernel and the R2 bigon reduction of R2 and R3."""

import importlib
import random

import pytest

from khoval.algebra import RINGS, Theory
from khoval.corpus import PD_CODES, torus2_pd
from khoval.cube import CochainElement, Generator, _bigon_reduction, apply_linear, build_cube
from khoval.diagram import LinkDiagram, parse_pd, transfer
from khoval.homology import homology, reduced_complex
from khoval.moves import ESI, apply_esi, apply_esi_info
from khoval.reduce import _reduce, eliminate

from oracles import eliminate_row_index, r2_termwise, transfer_labels


def diagram(name):
    """A corpus diagram, T(2,n), or the trefoil or figure-eight with a positive and a negative kink."""
    if name.startswith("T(2,"):
        return parse_pd(torus2_pd(int(name[4:-1])))
    if name == "trefoil_kinked":
        d = apply_esi(parse_pd(PD_CODES["trefoil"]), ESI("r1", variant="add_pos", arc=1))
        return apply_esi(d, ESI("r1", variant="add_neg", arc=4))
    if name == "figure8_kinked":
        d = apply_esi(parse_pd(PD_CODES["figure8"]), ESI("r1", variant="add_pos", arc=2))
        return apply_esi(d, ESI("r1", variant="add_neg", arc=7))
    return parse_pd(PD_CODES[name])


def finger(name):
    """The diagram next to a circle, and the R2 finger that pokes the circle over it."""
    d = diagram(name)
    top = d.max_arc_id()
    d = LinkDiagram([(c.cid, c.arcs) for c in d.crossings], [*d.loops, (top + 1, top + 2)])
    return d, ESI("r2", variant="add", arcs=(min(d.arc_ids()), top + 1))


def poked(name, th):
    """The poked diagram's cube and its bigon reduction."""
    d, add = finger(name)
    d, info = apply_esi_info(d, add)
    cube = build_cube(d, th)
    # the finger's crossings come first; the circle slice 1-smoothes the first
    return cube, _bigon_reduction(cube, {info.pieces["u2"], info.pieces["o2"]}, 0, 1, {}, "h")


def element(cube, terms, *ops):
    """The terms [(generator, coeff)] carried through the maps `ops` in turn."""
    return CochainElement(cube, apply_linear(terms, *ops))


@pytest.mark.parametrize("name", ["unknot", "hopf", "trefoil", "figure8", "trefoil_kinked"])
@pytest.mark.parametrize("th", [Theory.KHOVANOV, Theory.BAR_NATAN, Theory.LEE])
def test_reduction_is_strict_retraction(name, th):
    # f g = 1 on the through slice; f h = 0, h g = 0 and h h = 0 everywhere
    cube, (f, g, h) = poked(name, th)
    zero = cube.element()
    for x in cube.generators():
        if x.mask & 0b11 == 0b10:
            assert element(cube, g(x), f) == cube.basis_element(x), (th, x)
            assert element(cube, g(x), h) == zero, (th, x)
        assert element(cube, h(x), f) == zero, (th, x)
        assert element(cube, h(x), h) == zero, (th, x)


@pytest.mark.parametrize("name", ["hopf", "trefoil"])
def test_reduction_maps_are_chain_maps(name):
    # 1 - g f = d h + h d for the homotopy h, which the reduction stores
    # with its sign as -h; so g f commutes with d
    for th in Theory:
        cube, (f, g, stored) = poked(name, th)
        for x in cube.generators():
            gf = element(cube, f(x), g)
            dh = cube.differential(element(cube, stored(x))).scale(-1)
            hd = element(cube, cube.differential_of(x).terms.items(), stored).scale(-1)
            assert cube.basis_element(x) - gf == dh + hd, (th, x)


@pytest.mark.parametrize("name", ["hopf", "trefoil", "figure8"])
def test_bigon_reduction_is_the_r2_equivalence(name):
    # f and g agree with the closed-form R2 removal and addition maps, read
    # through the identification of the through slice with the diagram
    # without the bigon
    d, add = finger(name)
    poked_d, info = apply_esi_info(d, add)
    remove = ESI("r2", variant="remove", crossings=tuple(info.created_crossings))
    back, back_info = apply_esi_info(poked_d, remove)
    for th in Theory:
        before, cube, after = (build_cube(x, th) for x in (d, poked_d, back))
        f, g, _ = _bigon_reduction(cube, {info.pieces["u2"], info.pieces["o2"]}, 0, 1, {}, "h")

        def carry(x, a, b, mask, arc_map):
            plan = transfer(a.circles(x.mask), b.circles(mask), {k: (v,) for k, v in arc_map.items()})
            return [(Generator(mask, lab), p) for lab, p in transfer_labels(plan, x.labels, RINGS[th])]

        for x in cube.generators():
            image = element(after, f(x),
                            lambda t: carry(t, cube, after, t.mask >> 2, back_info.arc_map))
            assert image.terms == r2_termwise(remove, cube, after, x), (th, x)
        for e in before.generators():
            through = carry(e, before, cube, e.mask << 2 | 0b10, info.arc_map)
            image = element(cube, through, g)
            assert image.terms == r2_termwise(add, before, cube, e), (th, e)


def test_reduction_preserves_free_rank():
    # the undeformed reduced complex of the trefoil has the homology ranks;
    # every target has a column, and the kernel leaves what the row-index
    # oracle leaves, in the same insertion order
    cube = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    degrees = {g: cube.degrees(g) for g in cube.generators()}
    diff = {
        g: {h: p.coefficient(0) for h, p in cube.differential_of(g).terms.items()}
        for g in degrees
    }
    degrees, diff = assert_eliminates_like_the_oracle(degrees, diff)
    groups = homology(cube)
    free = sum(g.free_rank for g in groups.values())
    torsion_pairs = sum(len(g.torsion) for g in groups.values())
    # survivors = free generators plus one pair per torsion factor
    assert len(degrees) == free + 2 * torsion_pairs
    # the residual differential stays inside the residual basis, without units
    for col in diff.values():
        assert set(col) <= set(degrees)
        assert all(c not in (1, -1) for c in col.values())


@pytest.mark.parametrize("th", [Theory.KHOVANOV, Theory.LEE])
@pytest.mark.parametrize("name", sorted(PD_CODES) + ["T(2,5)", "T(2,9)", "figure8_kinked"])
def test_eliminate_matches_the_row_index_oracle_on_every_layer_block(monkeypatch, name, th):
    # each layer block that homology hands the kernel (targets without
    # columns) comes out as the oracle leaves it
    c = build_cube(diagram(name), th)
    gens = list(c.generators())
    blocks = []

    def both(columns):
        # the block: the layer's columns and every generator of the next layer
        p, diff = len(blocks), dict(columns)
        targets = [k for k, g in enumerate(gens) if g.mask.bit_count() == p + 1]
        degrees = {k: c.degrees(gens[k]) for k in [*diff, *targets]}
        blocks.append(degrees)
        survivors, diff = assert_eliminates_like_the_oracle(degrees, diff)
        return diff, set(degrees) - set(survivors)

    # the package's `homology` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("khoval.homology"), "eliminate", both)
    reduced_complex(c)
    assert len(blocks) == c.n + 1


@pytest.mark.parametrize("seed", range(40))
def test_eliminate_matches_the_row_index_oracle_on_random_graded_matrices(seed):
    # sparse columns from degree i into degree i + 1, with no d o d = 0, so
    # the pivots' updates reach each other's columns in many orders
    rng = random.Random(seed)
    degrees = {g: rng.randrange(4) for g in rng.sample(range(200), 60)}
    diff = {g: {h: rng.choice((-2, -1, 1, 1, 2, 3)) for h in degrees
                if degrees[h] == i + 1 and rng.random() < 0.3}
            for g, i in degrees.items()}
    assert_eliminates_like_the_oracle(degrees, diff)


@pytest.mark.parametrize("th, visits", [(Theory.KHOVANOV, 332), (Theory.LEE, 360)])
def test_eliminate_reduces_only_the_columns_a_pivot_hits(monkeypatch, th, visits):
    # `_reduce` runs at exactly the visits where the column holds a
    # generator already cancelled, counted here on a copy of each layer by
    # the kernel's passes with every visited column reduced; the columns
    # left are the same
    reduce_module = importlib.import_module("khoval.reduce")
    calls, counted = [0], [0]

    def counting(col, pivots, number):
        assert not number.keys().isdisjoint(col)
        calls[0] += 1
        _reduce(col, pivots, number)

    def both(columns):
        diff = dict(columns)
        want = {g: dict(col) for g, col in diff.items()}
        counted[0] += reduce_every_visit(want)
        survivors, cancelled = eliminate(diff.items())
        assert [(g, list(col.items())) for g, col in survivors.items()] == \
            [(g, list(col.items())) for g, col in want.items()]
        return survivors, cancelled

    monkeypatch.setattr(reduce_module, "_reduce", counting)
    monkeypatch.setattr(importlib.import_module("khoval.homology"), "eliminate", both)
    reduced_complex(build_cube(diagram("T(2,7)"), th))
    assert calls == counted == [visits]


def reduce_every_visit(diff: dict) -> int:
    """The kernel's passes on `diff`, in place, reducing every column they visit.

    Returns the number of visits whose column holds a generator that the
    pass has cancelled already.
    """
    order, hits = list(diff), 0
    while True:
        pivots: list = []
        number: dict = {}
        for g in order:
            col = diff[g]
            if not col or g in number:
                continue
            hits += not number.keys().isdisjoint(col)
            _reduce(col, pivots, number)
            for h, c in col.items():
                if c in (1, -1):
                    del col[h]
                    number[g] = number[h] = len(pivots)
                    pivots.append((g, h, -c, col))
                    break
        if not pivots:
            return hits
        order = [g for g in order if g not in number]
        for g in order:
            hits += not number.keys().isdisjoint(diff[g])
            _reduce(diff[g], pivots, number)
        for g in number:
            diff.pop(g, None)


def assert_eliminates_like_the_oracle(degrees: dict, diff: dict) -> tuple[dict, dict]:
    """Run `eliminate` on the pairs of `diff` and return the surviving `degrees` and columns.

    The row-index oracle, on copies, drops from its degrees exactly the
    generators `eliminate` returns as cancelled and leaves the columns that
    it returns, equal and in equal order.
    """
    want_degrees, want_diff = dict(degrees), {g: dict(col) for g, col in diff.items()}
    eliminate_row_index(want_degrees, want_diff)
    columns, cancelled = eliminate(iter(diff.items()))
    assert cancelled == set(degrees) - set(want_degrees)
    survivors = {g: q for g, q in degrees.items() if g not in cancelled}
    assert list(survivors.items()) == list(want_degrees.items())
    assert [(g, list(col.items())) for g, col in columns.items()] == \
        [(g, list(col.items())) for g, col in want_diff.items()]
    return survivors, columns
