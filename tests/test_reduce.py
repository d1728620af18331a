"""Gaussian elimination of complexes: equivalences are strict retractions."""

import pytest

from khoval.algebra import TPoly, Theory
from khoval.corpus import PD_CODES
from khoval.cube import build_cube
from khoval.diagram import parse_pd
from khoval.homology import homology
from khoval.moves import ESI, apply_esi
from khoval.reduce import BasedComplex, match_reduced, reduce_cube


def elem_apply(mapping, element):
    out = {}
    for g, c in element.items():
        for h, c2 in mapping.get(g, {}).items():
            cur = out.get(h, TPoly(0)) + c * c2
            if cur.is_zero():
                out.pop(h, None)
            else:
                out[h] = cur
    return out


def diagram(name):
    """A corpus diagram, or the trefoil with a positive and a negative kink."""
    if name != "trefoil_kinked":
        return parse_pd(PD_CODES[name])
    d = apply_esi(parse_pd(PD_CODES["trefoil"]), ESI("r1", variant="add_pos", arc=1))
    return apply_esi(d, ESI("r1", variant="add_neg", arc=4))


@pytest.mark.parametrize("name", ["unknot", "hopf", "trefoil", "figure8", "trefoil_kinked"])
@pytest.mark.parametrize("th", [Theory.KHOVANOV, Theory.BAR_NATAN, Theory.LEE])
def test_reduction_is_strict_retraction(name, th):
    cube = build_cube(diagram(name), th)
    red = reduce_cube(cube)
    # the reduced differential stays inside the reduced basis
    for col in red.reduced.diff.values():
        assert set(col) <= set(red.reduced.degrees)
    # project o include = identity on the reduced complex
    for g in red.reduced.degrees:
        assert elem_apply(red.project, red.include[g]) == {g: TPoly(1)}


@pytest.mark.parametrize("name", ["hopf", "trefoil"])
def test_reduction_maps_are_chain_maps(name):
    for th in Theory:
        cube = build_cube(parse_pd(PD_CODES[name]), th)
        red = reduce_cube(cube)
        full = BasedComplex.from_cube(cube)
        # include commutes: d_full o G = G o d_reduced
        for g in red.reduced.degrees:
            lhs = elem_apply(full.diff, red.include[g])
            rhs = elem_apply(red.include, red.reduced.diff.get(g, {}))
            assert lhs == rhs, (th, g)
        # project commutes: d_reduced o F = F o d_full
        for g in full.degrees:
            lhs = elem_apply(red.reduced.diff, red.project.get(g, {}))
            rhs = elem_apply(red.project, full.diff.get(g, {}))
            assert lhs == rhs, (th, g)


def test_reduction_preserves_free_rank():
    # the undeformed reduced complex of the trefoil has the homology ranks
    cube = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    red = reduce_cube(cube)
    groups = homology(cube)
    free = sum(g.free_rank for g in groups.values())
    torsion_pairs = sum(len(g.torsion) for g in groups.values())
    # survivors = free generators plus one pair per torsion factor
    assert len(red.reduced.degrees) == free + 2 * torsion_pairs


def test_match_reduced_identity_case():
    cube = build_cube(parse_pd(PD_CODES["unknot"]), Theory.BAR_NATAN)
    red = reduce_cube(cube)
    u = match_reduced(red.reduced, red.reduced)
    assert u is not None
    assert all(s == t and sign == 1 for s, (t, sign) in u.items())


def test_match_reduced_rejects_shape_mismatch():
    a = reduce_cube(build_cube(parse_pd("L0"), Theory.BAR_NATAN)).reduced
    b = reduce_cube(build_cube(parse_pd("L0 L1"), Theory.BAR_NATAN)).reduced
    assert match_reduced(a, b) is None
