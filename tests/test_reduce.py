"""Gaussian elimination: the unit-pivot kernel and the R2 bigon reduction of R2 and R3."""

import pytest

from khoval.algebra import RINGS, Theory
from khoval.corpus import PD_CODES
from khoval.cube import (CochainElement, Generator, _bigon_reduction, apply_linear, build_cube,
                         transfer_labels)
from khoval.diagram import LinkDiagram, parse_pd, transfer
from khoval.homology import homology
from khoval.moves import ESI, apply_esi, apply_esi_info
from khoval.reduce import eliminate

from oracles import r2_termwise


def diagram(name):
    """A corpus diagram, or the trefoil with a positive and a negative kink."""
    if name != "trefoil_kinked":
        return parse_pd(PD_CODES[name])
    d = apply_esi(parse_pd(PD_CODES["trefoil"]), ESI("r1", variant="add_pos", arc=1))
    return apply_esi(d, ESI("r1", variant="add_neg", arc=4))


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
    return cube, _bigon_reduction(cube, {info.pieces["u2"], info.pieces["o2"]}, 0, 1)


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
    # 1 - g f = d h + h d, so g f commutes with d
    for th in Theory:
        cube, (f, g, h) = poked(name, th)
        for x in cube.generators():
            gf = element(cube, f(x), g)
            dh = cube.differential(element(cube, h(x)))
            hd = element(cube, cube.differential_of(x).terms.items(), h)
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
        f, g, _ = _bigon_reduction(cube, {info.pieces["u2"], info.pieces["o2"]}, 0, 1)

        def carry(x, a, b, mask, arc_map):
            plan = transfer(a.circles(x.mask), b.circles(mask), {k: (v,) for k, v in arc_map.items()})
            return [(Generator(mask, lab), p) for lab, p in transfer_labels(plan, x.labels, RINGS[th])]

        for x in cube.generators():
            image = element(after, f(x), lambda t: carry(t, cube, after, t.mask >> 2, back_info.arc_map))
            assert image.terms == r2_termwise(remove, cube, after, x), (th, x)
        for e in before.generators():
            through = carry(e, before, cube, e.mask << 2 | 0b10, info.arc_map)
            assert element(cube, through, g).terms == r2_termwise(add, before, cube, e), (th, e)


def test_reduction_preserves_free_rank():
    # the undeformed reduced complex of the trefoil has the homology ranks
    cube = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    degrees = {g: cube.degrees(g) for g in cube.generators()}
    diff = {
        g: {h: p.coefficient(0) for h, p in cube.differential_of(g).terms.items()}
        for g in degrees
    }
    eliminate(degrees, diff)
    groups = homology(cube)
    free = sum(g.free_rank for g in groups.values())
    torsion_pairs = sum(len(g.torsion) for g in groups.values())
    # survivors = free generators plus one pair per torsion factor
    assert len(degrees) == free + 2 * torsion_pairs
    # the residual differential stays inside the residual basis, without units
    for col in diff.values():
        assert set(col) <= set(degrees)
        assert all(c not in (1, -1) for c in col.values())
