"""Smith normal form, integral homology with its dual-path oracle, and Jones."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khoval.algebra import INT_RINGS, MINUS, PLUS, RINGS, Ring, Theory, TPoly
from khoval.corpus import PD_CODES, torus2_pd
from khoval.cube import build_cube
from khoval.diagram import parse_pd
from khoval.errors import CapExceededError, KhovalError, TheoryError
from khoval.homology import (
    HomologyGroup,
    LaurentPoly,
    graded_euler,
    homology,
    integer_differential,
    kauffman_jones,
    smith_normal_form,
)
from khoval.moves import ESI, apply_esi

from oracles import (
    differential_termwise,
    field_homology_dims,
    in_image,
    kernel_basis,
    rank_over_field,
    snf_with_transforms,
    uct_dims_from_integral,
)


# -- Smith normal form ------------------------------------------------------------


def test_snf_zero_matrix():
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
    assert smith_normal_form([[0, 0], [0, 0], [0, 0]]) == ((), 0)


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]]) == ((1, 1), 2)


def test_snf_hand_example():
    # row/col ops take diag(2,3) to diag(1,6)
    assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)


def test_snf_rectangular():
    assert smith_normal_form([[2, 4, 4]]) == ((2,), 1)
    assert smith_normal_form([[2], [4], [4]]) == ((2,), 1)


matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_snf_divisibility_chain_and_rank(rows):
    factors, rank = smith_normal_form(rows)
    assert rank == len(factors)
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert rank == rank_over_field(rows, p=None)


@given(matrices, st.randoms())
@settings(max_examples=60, deadline=None)
def test_snf_invariant_under_permutation(rows, rng):
    factors, rank = smith_normal_form(rows)
    shuffled = [row[:] for row in rows]
    rng.shuffle(shuffled)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    shuffled = [[row[c] for c in cols] for row in shuffled]
    assert smith_normal_form(shuffled) == (factors, rank)


def test_kernel_and_image_helpers():
    a = [[1, 1, 0], [0, 0, 2]]
    for vec in kernel_basis(a):
        assert all(
            sum(a[r][c] * vec[c] for c in range(3)) == 0 for r in range(2)
        )
    assert in_image([[2], [0]], [4, 0])
    assert not in_image([[2], [0]], [3, 0])
    assert not in_image([[2], [0]], [0, 1])


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_snf_transforms_diagonalize(rows):
    factors, U, V = snf_with_transforms(rows)
    m, n = len(rows), len(rows[0])
    # S = U * A * V must be the diagonal of invariant factors
    UA = [
        [sum(U[i][k] * rows[k][j] for k in range(m)) for j in range(n)]
        for i in range(m)
    ]
    S = [
        [sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)]
        for i in range(m)
    ]
    for i in range(m):
        for j in range(n):
            want = factors[i] if i == j and i < len(factors) else 0
            assert S[i][j] == want


def test_kernel_basis_of_zero_rows():
    # a map with empty target has everything in its kernel
    vecs = kernel_basis([])
    assert vecs == []


# -- homology: frozen tables validated by the dual-path oracle ----------------------


def Z(rank=1, *torsion):
    return HomologyGroup(rank, tuple(torsion))


EXPECTED_KHOVANOV = {
    "empty": {(0, 0): Z()},
    "unknot": {(0, -1): Z(), (0, 1): Z()},
    "two_unknots": {(0, -2): Z(), (0, 0): Z(2), (0, 2): Z()},
    "hopf": {(0, 0): Z(), (0, 2): Z(), (2, 4): Z(), (2, 6): Z()},
    "trefoil": {(0, 1): Z(), (0, 3): Z(), (2, 5): Z(), (3, 7): Z(0, 2), (3, 9): Z()},
    "figure8": {
        (-2, -5): Z(),
        (-1, -3): Z(0, 2),
        (-1, -1): Z(),
        (0, -1): Z(),
        (0, 1): Z(),
        (1, 1): Z(),
        (2, 3): Z(0, 2),
        (2, 5): Z(),
    },
}


@pytest.mark.parametrize("name", sorted(EXPECTED_KHOVANOV))
def test_integral_homology_tables(name):
    d = parse_pd(PD_CODES[name])
    groups = homology(build_cube(d, Theory.KHOVANOV))
    assert groups == EXPECTED_KHOVANOV[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_KHOVANOV) + ["trefoil_kinked"])
def test_homology_against_field_rank_oracle(name):
    # free ranks from rational Gaussian elimination; torsion via universal
    # coefficients over GF(2) and GF(3), both independent of the SNF path;
    # the kinked trefoil is a non-reduced diagram
    if name == "trefoil_kinked":
        d = apply_esi(parse_pd(PD_CODES["trefoil"]), ESI("r1", variant="add_pos", arc=1))
        d = apply_esi(d, ESI("r1", variant="add_neg", arc=4))
    else:
        d = parse_pd(PD_CODES[name])
    cube = build_cube(d, Theory.KHOVANOV)
    groups = homology(cube)
    rational = field_homology_dims(cube, p=None)
    assert rational == {
        k: g.free_rank for k, g in groups.items() if g.free_rank
    }
    for p in (2, 3):
        assert field_homology_dims(cube, p=p) == uct_dims_from_integral(
            groups, p, graded=True
        )


INTEGRAL = [Theory.KHOVANOV, Theory.LEE]


@pytest.mark.parametrize("th", INTEGRAL)
def test_integer_columns_match_the_termwise_oracle(corpus, th):
    # the constant terms of the Z[t] differential summed edge by edge,
    # keyed by position in c.generators()
    for name, d in corpus.items():
        c = build_cube(d, th)
        gens = list(c.generators())
        position = {g: k for k, g in enumerate(gens)}
        degrees, diff = integer_differential(c)
        assert degrees == {k: c.degrees(g) for k, g in enumerate(gens)}, name
        assert diff == {
            k: {position[h]: p.coefficient(0) for h, p in differential_termwise(c, g).items()}
            for k, g in enumerate(gens)
        }, name


@pytest.mark.parametrize("th", INTEGRAL)
def test_integer_rings_reduce_the_zt_tables(th):
    def reduced(table):
        return {key: r for key, p in table.items() if (r := th.reduce(p))}

    zt, ints = RINGS[Theory.BAR_NATAN], INT_RINGS[th]
    assert ints.one == 1
    for x in (PLUS, MINUS):
        assert {k: TPoly(v) for k, v in ints.comultiply[x].items()} == reduced(zt.comultiply[x])
        for y in (PLUS, MINUS):
            product = ints.multiply[x][y]
            assert all(type(v) is int for v in product.values())
            assert {k: TPoly(v) for k, v in product.items()} == reduced(zt.multiply[x][y])


def test_integer_ring_refuses_a_coefficient_in_t():
    with pytest.raises(KhovalError, match="not an integer"):
        Ring((({PLUS: TPoly({1: 1})},),), (), 1).integral()
    with pytest.raises(KhovalError, match="not an integer"):
        RINGS[Theory.BAR_NATAN].integral()


@pytest.mark.parametrize("th", INTEGRAL)
@pytest.mark.parametrize("pd", [PD_CODES["trefoil"], torus2_pd(5)], ids=["trefoil", "T(2,5)"])
def test_homology_builds_no_polynomial(monkeypatch, pd, th):
    # the columns come straight from the integer tables, not through
    # `differential_of` and a `TPoly` per term
    c = build_cube(parse_pd(pd), th)
    calls = [0]
    init = TPoly.__init__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TPoly, "__init__", counting)
    assert homology(c)
    assert calls[0] == 0


def test_homology_rejects_deformed_theory():
    cube = build_cube(parse_pd("L0"), Theory.BAR_NATAN)
    with pytest.raises(TheoryError):
        homology(cube)


def test_lee_homology_free_rank_counts_components():
    # total rank at t=1 is 2^(number of components); validated over Q and GF(p)
    for name, components in [("unknot", 1), ("trefoil", 1), ("hopf", 2),
                             ("figure8", 1)]:
        cube = build_cube(parse_pd(PD_CODES[name]), Theory.LEE)
        groups = homology(cube)
        assert sum(g.free_rank for g in groups.values()) == 2 ** components, name
        rational = field_homology_dims(cube, p=None)
        assert rational == {k: g.free_rank for k, g in groups.items() if g.free_rank}
        for p in (2, 3):
            assert field_homology_dims(cube, p=p) == uct_dims_from_integral(
                groups, p, graded=False
            ), (name, p)


def test_homology_invariant_under_moves(corpus):
    # one instance per implemented move kind relating corpus diagrams
    pairs = []
    unknot = parse_pd("L0")
    pairs.append((unknot, apply_esi(unknot, ESI("r1", variant="add_pos", arc=1))))
    pairs.append((unknot, apply_esi(unknot, ESI("r1", variant="add_neg", arc=1))))
    two = parse_pd("L0 L1")
    pairs.append((two, apply_esi(two, ESI("r2", variant="add", arcs=(1, 3)))))
    tre = parse_pd(PD_CODES["trefoil"] + " L0")
    pairs.append((tre, apply_esi(tre, ESI("r2", variant="add", arcs=(1, 7)))))
    base = parse_pd(PD_CODES["braid_closure"])
    d1 = apply_esi(base, ESI("r1", variant="add_pos", arc=1))
    d1 = apply_esi(d1, ESI("r1", variant="add_neg", arc=2))
    pairs.append((d1, apply_esi(d1, ESI("r3", crossings=(1, 2, 3), variant="braid"))))
    for before, after in pairs:
        h1 = homology(build_cube(before, Theory.KHOVANOV))
        h2 = homology(build_cube(after, Theory.KHOVANOV))
        assert h1 == h2


def test_alternating_sum_identity(corpus):
    # sum of (-1)^i cochain ranks equals sum of (-1)^i homology free ranks per q
    for name, d in corpus.items():
        cube = build_cube(d, Theory.KHOVANOV)
        groups = homology(cube)
        from_homology: dict[int, int] = {}
        for (i, q), g in groups.items():
            from_homology[q] = from_homology.get(q, 0) + (-1) ** i * g.free_rank
        euler = graded_euler(cube)
        assert LaurentPoly(from_homology) == euler, name


# -- Jones ---------------------------------------------------------------------------


def test_jones_unknot_anchor():
    assert kauffman_jones(parse_pd("L0")) == LaurentPoly({1: 1, -1: 1})


def test_jones_disjoint_union_multiplicative():
    one = kauffman_jones(parse_pd("L0"))
    two = kauffman_jones(parse_pd("L0 L1"))
    assert two == one * one


def test_jones_trefoil_matches_euler():
    d = parse_pd(PD_CODES["trefoil"])
    cube = build_cube(d, Theory.KHOVANOV)
    assert graded_euler(cube) == kauffman_jones(d)
    assert graded_euler(cube) == LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})


def test_jones_equals_euler_on_corpus(corpus):
    for name, d in corpus.items():
        cube = build_cube(d, Theory.KHOVANOV)
        assert graded_euler(cube) == kauffman_jones(d), name


def test_jones_cap():
    with pytest.raises(CapExceededError):
        kauffman_jones(parse_pd(PD_CODES["trefoil"]), cap=2)


def test_graded_euler_needs_plain_theory():
    with pytest.raises(TheoryError):
        graded_euler(build_cube(parse_pd("L0"), Theory.BAR_NATAN))


def test_laurent_str():
    assert str(LaurentPoly({1: 1, -1: 1})) == "q^-1 + q"
    assert str(LaurentPoly({-2: 1, 0: 2, 2: 1})) == "q^-2 + 2 + q^2"
    assert str(LaurentPoly(0)) == "0"
    assert str(LaurentPoly({9: -1, 1: 1})) == "q - q^9"
