"""Smith normal form, integral homology with its dual-path oracle, and Jones."""

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khoval.algebra import INT_RINGS, MINUS, PLUS, RINGS, Ring, Theory, TPoly
from khoval.corpus import PD_CODES, torus2_pd
from khoval.cube import build_cube, label_table
from khoval.diagram import edge_key, parse_pd, serialize_pd
from khoval.errors import CapExceededError, KhovalError, TheoryError
from khoval.homology import (
    CubeIndex,
    HomologyGroup,
    LaurentPoly,
    graded_euler,
    homology,
    integer_differential,
    kauffman_jones,
    reduced_complex,
    smith_normal_form,
)
from khoval.moves import ESI, apply_esi
from khoval.reduce import eliminate

from oracles import (
    differential_termwise,
    field_homology_dims,
    graded_euler_termwise,
    in_image,
    kernel_basis,
    label_table_termwise,
    rank_over_field,
    snf_with_transforms,
    torus2_khovanov,
    uct_dims_from_integral,
)


def test_homology_group_str():
    assert [str(HomologyGroup(0)), str(HomologyGroup(1)), str(HomologyGroup(2, (2,)))] == \
        ["0", "Z", "Z^2 + Z/2"]


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


def whole_complex(c):
    """The cube's integer columns, assembled from its layers."""
    index = CubeIndex(c)
    diff = {}
    for p in range(c.n + 1):
        diff.update(integer_differential(index, p))
    return diff


@pytest.mark.parametrize("th", INTEGRAL)
def test_integer_columns_match_the_termwise_oracle(corpus, th):
    # the constant terms of the Z[t] differential summed edge by edge,
    # keyed by position in c.generators(); the degrees are
    # test_cube_index_degree_is_the_generators_degree's
    for name, d in corpus.items():
        c = build_cube(d, th)
        gens = list(c.generators())
        position = {g: k for k, g in enumerate(gens)}
        diff = whole_complex(c)
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


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_torus_knot_homology_matches_the_closed_form(n):
    groups = homology(build_cube(parse_pd(torus2_pd(n)), Theory.KHOVANOV))
    assert {k: (g.free_rank, g.torsion) for k, g in groups.items()} == torus2_khovanov(n)


def test_integer_columns_skip_the_given_generators():
    # a skipped generator gets no column; the others are unchanged, and
    # without a skip list every generator of the layer gets one
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    index = CubeIndex(c)
    diff = integer_differential(index, 1)
    assert list(diff) == [k for k, g in enumerate(c.generators()) if g.mask.bit_count() == 1]
    skip = set(list(diff)[::2])
    kept = integer_differential(index, 1, skip)
    assert kept == {g: col for g, col in diff.items() if g not in skip}
    assert list(kept) == sorted(kept)


def test_lee_columns_come_in_ascending_q():
    # Lee's columns are inserted in ascending q and in cube order within
    # each q (Khovanov's, whose q-blocks never meet, in cube order), with
    # or without a skip list
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.LEE)
    index = CubeIndex(c)
    diff = integer_differential(index, 1)
    layer = [(c.degrees(g)[1], k) for k, g in enumerate(c.generators()) if g.mask.bit_count() == 1]
    assert list(diff) == [k for _, k in sorted(layer)] == [5, 7, 13, 4, 6, 12]
    skip = set(list(diff)[::2])
    kept = integer_differential(index, 1, skip)
    assert kept == {g: col for g, col in diff.items() if g not in skip}
    assert list(kept) == [g for g in diff if g not in skip]


@pytest.mark.parametrize("p", [-2, -1, 4, 5])
def test_integer_columns_refuse_a_layer_outside_the_cube(p):
    # a negative p would otherwise read a layer from the end of the list
    index = CubeIndex(build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV))
    with pytest.raises(KhovalError, match="not in the cube's layers"):
        integer_differential(index, p)


@pytest.mark.parametrize("th", INTEGRAL)
def test_cube_index_degree_is_the_generators_degree(corpus, th):
    # the vertex found by bisecting the offsets, q by the labelling's popcount
    names = [*(f"T(2,{n})" for n in range(1, 10)), "figure8_kinked"]
    for name, d in [*corpus.items(), *((name, shuffle_diagram(name)) for name in names)]:
        c = build_cube(d, th)
        index = CubeIndex(c)
        assert [index.degree(k) for k in range(index.offsets[-1])] == \
            [c.degrees(g) for g in c.generators()], name


@pytest.mark.parametrize("th", INTEGRAL)
@pytest.mark.parametrize("diagram, plans, carried", [("T(2,7)", 27, 770), ("figure8_kinked", 27, 362)])
def test_homology_builds_one_label_table_per_edge_plan(monkeypatch, tables, th, diagram, plans,
                                                      carried):
    # each distinct edge key gets one label table over the integer ring, with
    # a row per labelling of its source circles, kept for the process over
    # one whole `homology` call, its layers sharing the tables (19 of the
    # kinked figure-eight's keys sit on edges of two or more layers), and a
    # second call, on a freshly parsed copy of the still, builds none; the
    # columns are offsets into those tables, with no applier of pieces
    d = shuffle_diagram(diagram)
    c = build_cube(d, th)
    keys = {edge_key(d, mask, j, c.circles(mask), c.circles(mask | 1 << j))
            for mask in range(1 << c.n) for j in range(c.n) if not (mask >> j) & 1}
    indices, applied = [], []
    cube_module = importlib.import_module("khoval.cube")
    init, apply_pieces = CubeIndex.__init__, cube_module.apply_pieces

    def recording(self, cube):
        init(self, cube)
        indices.append(self)

    def counting(*args):
        applied.append(args)
        return apply_pieces(*args)

    monkeypatch.setattr(CubeIndex, "__init__", recording)
    monkeypatch.setattr(cube_module, "apply_pieces", counting)
    homology(c)
    [index] = indices
    assert index.cube is c and {ring for ring, _ in tables} == {INT_RINGS[th]}
    assert {key for _, key in tables} == keys and len(tables) == len(keys) == plans
    assert sum(map(len, tables.values())) == sum(2 ** k for k, *_ in keys) == carried
    assert applied == []
    built = dict(tables)
    homology(build_cube(parse_pd(serialize_pd(d)), th))
    assert tables.keys() == built.keys()
    assert all(tables[k] is table for k, table in built.items())


@pytest.mark.parametrize("th", INTEGRAL)
@pytest.mark.parametrize("name", [*PD_CODES, *(f"T(2,{n})" for n in range(1, 10)), "figure8_kinked"])
def test_label_tables_match_the_transfer_labels_reference(th, name):
    # row by row, in order: the column entries' insertion order picks the
    # pivots; each key's table against the general plan of its first edge
    d = shuffle_diagram(name)
    c, ring = build_cube(d, th), INT_RINGS[th]
    seen = set()
    for mask in range(1 << c.n):
        for j in range(c.n):
            if (mask >> j) & 1:
                continue
            key = edge_key(d, mask, j, c.circles(mask), c.circles(mask | 1 << j))
            if key not in seen:
                seen.add(key)
                table = label_table(ring, key)
                assert [table[x] for x in range(1 << key[0])] == \
                    label_table_termwise(d, mask, j, ring), key


def shuffle_diagram(name):
    """A corpus diagram, T(2,n), or the figure-eight with a positive and a negative kink."""
    if name.startswith("T(2,"):
        return parse_pd(torus2_pd(int(name[4:-1])))
    if name == "figure8_kinked":
        d = apply_esi(parse_pd(PD_CODES["figure8"]), ESI("r1", variant="add_pos", arc=2))
        return apply_esi(d, ESI("r1", variant="add_neg", arc=7))
    return parse_pd(PD_CODES[name])


def assert_reduced(degrees, diff):
    """Every column entry is a generator of `degrees` (a dict or a set), and none is a unit."""
    for col in diff.values():
        assert set(col) <= set(degrees)
        assert all(v not in (1, -1) for v in col.values())


@pytest.mark.parametrize("th", INTEGRAL)
@pytest.mark.parametrize("name", sorted(PD_CODES) + ["T(2,5)", "figure8_kinked"])
def test_homology_does_not_depend_on_the_elimination_order(monkeypatch, name, th):
    # each layer's columns re-inserted in a seeded shuffled order change the
    # pivots, not the groups; each block's residue and the final residue have
    # no unit entry and stay in the surviving basis (a generator a later
    # layer cancels as a source leaves the residue of the layer below)
    c = build_cube(shuffle_diagram(name), th)
    expected = homology(c)
    rng = random.Random(f"{name} {th.value}")
    homology_module = importlib.import_module("khoval.homology")
    gens = list(c.generators())
    layers, blocks, residues = [], [], []

    def shuffled(index, p, skip=()):
        diff = integer_differential(index, p, skip)
        order = list(diff)
        rng.shuffle(order)
        # the block: the layer's columns and every generator of the next layer
        layers.append({*diff, *(k for k, g in enumerate(gens) if g.mask.bit_count() == p + 1)})
        return {g: diff[g] for g in order}

    def recording(diff):
        block = layers[-1]
        cancelled = eliminate(diff)
        assert cancelled <= block
        assert_reduced(block - cancelled, diff)
        blocks.append(block)
        return cancelled

    def final(cube):
        residues.append(reduced_complex(cube))
        return residues[-1]

    monkeypatch.setattr(homology_module, "integer_differential", shuffled)
    monkeypatch.setattr(homology_module, "eliminate", recording)
    monkeypatch.setattr(homology_module, "reduced_complex", final)
    assert homology(c) == expected
    assert len(blocks) == c.n + 1
    [(degrees, diff)] = residues
    assert set(diff) == set(degrees)
    assert_reduced(degrees, diff)


KINKED_BASES = {"T(2,5)": ("add_pos", "add_neg"),
                "trefoil": ("add_pos", "add_neg", "add_pos", "add_neg"),
                "figure8": ("add_pos", "add_neg", "add_pos")}


def kinked_base(name):
    """A base diagram brought to 7 crossings by R1 kinks on seeded arcs."""
    d, rng = shuffle_diagram(name), random.Random(name)
    for variant in KINKED_BASES[name]:
        d = apply_esi(d, ESI("r1", variant=variant, arc=rng.choice(sorted(d.arc_ids()))))
    return d


ORDER_CASES = [*sorted(PD_CODES), *(f"T(2,{n})" for n in range(3, 10, 2)),
               *(f"{name}+R1" for name in KINKED_BASES)]


def order_case(name):
    return kinked_base(name[:-3]) if name.endswith("+R1") else shuffle_diagram(name)


def visit_in(monkeypatch, order):
    """Make `reduced_complex` insert each layer's columns by `order(index, g)`, stably."""
    homology_module = importlib.import_module("khoval.homology")

    def reordered(index, p, skip=()):
        diff = integer_differential(index, p, skip)
        return {g: diff[g] for g in sorted(diff, key=lambda g: order(index, g))}

    monkeypatch.setattr(homology_module, "integer_differential", reordered)


def ascending_q(index, g):
    return index.degree(g)[1]


def cube_order(index, g):
    return g


@pytest.mark.parametrize("name", ORDER_CASES)
def test_khovanov_residue_does_not_depend_on_the_q_order(monkeypatch, name):
    # Khovanov's differential keeps q, so its q-blocks never meet: its
    # columns in ascending q (cube order within each q) make the same
    # pivots as in cube order and leave the same residue, each column's
    # entries in the same order; so its columns stay in cube order
    degrees, diff = reduced_complex(build_cube(order_case(name), Theory.KHOVANOV))
    with monkeypatch.context() as m:
        visit_in(m, ascending_q)
        q_degrees, q_diff = reduced_complex(build_cube(order_case(name), Theory.KHOVANOV))
    assert degrees == q_degrees
    assert {g: list(col.items()) for g, col in diff.items()} == \
        {g: list(col.items()) for g, col in q_diff.items()}


@pytest.mark.parametrize("name", ORDER_CASES)
def test_lee_homology_does_not_depend_on_the_q_order(monkeypatch, name):
    # Lee's pivots change with the visiting order, its groups do not: the
    # ascending q of `integer_differential` against cube order
    groups = homology(build_cube(order_case(name), Theory.LEE))
    visit_in(monkeypatch, cube_order)
    assert homology(build_cube(order_case(name), Theory.LEE)) == groups


def test_integer_columns_refuse_a_bar_natan_cube():
    # Z[t] has no integer ring: a TheoryError, before any vertex is resolved
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.BAR_NATAN)
    with pytest.raises(TheoryError, match="not supported"):
        reduced_complex(c)
    assert c.diagram.resolutions == {}
    with pytest.raises(TheoryError, match="not supported"):
        integer_differential(CubeIndex(c), 0)


@pytest.mark.parametrize("th", INTEGRAL)
def test_homology_streams_the_cube_by_layers(monkeypatch, th):
    # every block handed to `eliminate` holds one layer's columns and the
    # next layer's generators; exactly the generators that no pivot of the
    # layer below cancels as a target get a column (both theories leave 14
    # of T(2,7)'s generators, so both build 2190 - (2190 - 14) / 2 columns)
    c = build_cube(parse_pd(torus2_pd(7)), th)
    gens = list(c.generators())
    total = len(gens)
    homology_module = importlib.import_module("khoval.homology")
    built, cancelled, spans = set(), set(), []

    def recording(diff):
        sources = set(diff)
        targets = {h for col in diff.values() for h in col}
        built.update(sources)
        spans.append({c.degrees(gens[k])[0] for k in sources | targets})
        returned = eliminate(diff)
        cancelled.update(returned - sources)
        return returned

    monkeypatch.setattr(homology_module, "eliminate", recording)
    degrees, _ = reduced_complex(c)
    assert total == 2190
    assert len(spans) == c.n + 1
    for p, span in enumerate(spans):
        i = p - c.n_minus
        assert span <= {i, i + 1}
    assert built == set(range(total)) - cancelled
    assert len(built) == 1102
    assert len(degrees) == 14


@pytest.mark.parametrize("th", INTEGRAL)
def test_homology_reads_degrees_for_the_survivors_only(monkeypatch, th):
    # one `CubeIndex.degree` per residual generator, none per cancelled one
    # (the 14 of test_homology_streams_the_cube_by_layers)
    calls = [0]
    degree = CubeIndex.degree

    def counting(self, g):
        calls[0] += 1
        return degree(self, g)

    monkeypatch.setattr(CubeIndex, "degree", counting)
    homology(build_cube(parse_pd(torus2_pd(7)), th))
    assert calls[0] == 14


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


@pytest.mark.parametrize("pd", list(PD_CODES.values()) + [torus2_pd(n) for n in range(1, 10)],
                         ids=list(PD_CODES) + [f"T(2,{n})" for n in range(1, 10)])
def test_graded_euler_counts_match_the_generator_sum(pd):
    cube = build_cube(parse_pd(pd), Theory.KHOVANOV)
    assert graded_euler(cube) == graded_euler_termwise(cube)


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
