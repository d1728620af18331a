"""Cube of modules: gradings, the signed differential, and its structural laws."""

import itertools

import pytest

from khoval.algebra import INT_RINGS, MINUS, PLUS, RINGS, Ring, TPoly, Theory
from khoval.cube import (
    CAP,
    CUP,
    DOTTED_CAP,
    DOTTED_CUP,
    Generator,
    Piece,
    _INDEX,
    _labellings,
    apply_linear,
    apply_pieces,
    build_cube,
    check_d_squared,
    check_faces,
    label_table,
)
from khoval.corpus import PD_CODES, torus2_pd
from khoval.diagram import LinkDiagram, ResolvedDiagram, parse_pd, resolve, serialize_pd, transfer
from khoval.errors import CapExceededError, KhovalError, MoveError
from khoval.homology import homology
from khoval.moves import ESI, apply_esi

from oracles import differential_termwise, label_table_termwise
from test_reduce import diagram

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


def test_cubes_of_every_theory_share_the_diagram_resolutions(resolve_calls):
    d = parse_pd(PD_CODES["trefoil"])
    cubes = [build_cube(d, th) for th in Theory]
    for mask in range(8):
        first = cubes[0].circles(mask)
        assert all(c.circles(mask) is first for c in cubes[1:])
    assert build_cube(d, Theory.LEE).circles(5) is cubes[0].circles(5)
    assert resolve_calls == [8]
    assert sorted(d.resolutions) == list(range(8))


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


# the trefoil's vertex 0 has 2 circles: too many labels, too few, and labels
# that are neither PLUS nor MINUS do not fit it
MISFITS = [Generator(0, (P, P, P, P)), Generator(0, (P,)), Generator(0, (P, 2))]


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_element_refuses_a_generator_that_does_not_fit_its_vertex(th):
    c = build_cube(parse_pd(PD_CODES["trefoil"]), th)
    assert c.element({Generator(0, (P, M)): TPoly(1)}).terms == {Generator(0, (P, M)): c.ring.one}
    for g in MISFITS:
        with pytest.raises(KhovalError, match="does not live on this cube"):
            c.element({Generator(0, (P, M)): TPoly(1), g: TPoly(1)})


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_basis_element_refuses_a_generator_that_does_not_fit_its_vertex(th):
    c = build_cube(parse_pd(PD_CODES["trefoil"]), th)
    assert c.basis_element(Generator(0, (M, M))).terms == {Generator(0, (M, M)): c.ring.one}
    for g in MISFITS:
        with pytest.raises(KhovalError, match="does not live on this cube"):
            c.basis_element(g)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_differential_of_refuses_a_generator_that_does_not_fit_its_vertex(th):
    c = build_cube(parse_pd(PD_CODES["trefoil"]), th)
    assert len(c.differential_of(Generator(0, (P, P))).terms) == 3
    for g in MISFITS:
        with pytest.raises(KhovalError, match="does not live on this cube"):
            c.differential_of(g)
    with pytest.raises(KhovalError, match="not on the cube"):
        c.differential_of(Generator(8, ()))


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_an_element_of_another_cube_is_refused(th):
    # two cubes of one still share its resolutions and tables, not their elements
    d = parse_pd(PD_CODES["trefoil"])
    c, other = build_cube(d, th), build_cube(d, th)
    g = next(c.generators())
    with pytest.raises(KhovalError, match="lives on a different cube"):
        c.differential(other.basis_element(g))
    with pytest.raises(KhovalError, match="cannot add elements on different cubes"):
        c.basis_element(g) + other.basis_element(g)


def test_differential_checks_its_element_once_not_each_term(monkeypatch):
    # `element` refuses misfits where they enter; d of an element then reads
    # each term's edges with no second check, and equals d term by term
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    x = c.element({g: TPoly(1) for g in c.generators_at(0b010)})
    want = apply_linear([(g, c.ring.one) for g in x.terms],
                        lambda g: c.differential_of(g).terms.items())
    checked = []
    monkeypatch.setattr(type(c), "check_generator", lambda self, g: checked.append(g))
    assert c.differential(x).terms == want and checked == []


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

    # the same sign error inside one edge's row, and a row whose key sends the
    # copied circle where the merged one goes: merged into target circle 1,
    # circle 2 copied to target circle 0; each fault is one cube's edge row
    tgt, key, sign = build_cube(d, th).edge_row(0, 0)
    assert key == (3, 0, 1, 0, 0)
    for bad in ((tgt, key, -sign), (tgt, (3, 0, 1, 1, 1), sign)):
        c = build_cube(parse_pd(PD_CODES["figure8"]), th)
        edge_row = c.edge_row
        c.edge_row = lambda mask, j, bad=bad: bad if (mask, j) == (0, 0) else edge_row(mask, j)
        rep = check_faces(c)
        assert not rep.ok and "does not anticommute" in rep.detail


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_an_edge_at_a_vertex_of_many_circles_reads_one_whole_table(tables, th):
    # T(2,11) with crossing 0 alone 0-smoothed: 10 circles, split into 11
    # along its one edge; the edge's one table, the only one the process
    # builds, has a row for each of the 2^10 labellings and equals the
    # table carried through the general plan
    d = parse_pd(torus2_pd(11))
    c = build_cube(d, th)
    mask = (1 << 11) - 2
    assert c.circles(mask).count == 10
    for labels in [(P,) * 10, (M, P) * 5]:
        g = Generator(mask, labels)
        assert c.differential_of(g).terms == differential_termwise(c, g)
    ((ring, key), table), = tables.items()
    assert list(table) == label_table_termwise(d, mask, 0, ring)


def test_label_table_refuses_a_ring_entry_of_more_than_two_terms(tables):
    # every ring of the package has entries of at most two terms, each
    # row written out as a literal of zero, one or two; a third term is
    # refused, and no table is kept
    ints = INT_RINGS[Theory.LEE]
    wide = Ring(ints.multiply, ({(P, M): 1, (M, P): 1, (P, P): 1}, ints.comultiply[M]), 1)
    with pytest.raises(KhovalError, match="more than two terms"):
        label_table(wide, (1, 0, 0, 0, 1))
    assert tables == {}
    assert label_table(ints, (1, 0, 0, 0, 1)) == (((0b01, 1), (0b10, 1)), ((0b11, 1), (0b00, 1)))
    assert list(tables) == [(ints, (1, 0, 0, 0, 1))]


def edge_tables(c):
    """(edge key, sign) -> the table object cube c read for it, over every edge c has read."""
    read = {}
    for (mask, j), (_, table, _) in c._edges.items():
        _, key, sign = c.edge_row(mask, j)
        assert read.setdefault((key, sign), table) is table
    return read


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_two_stills_read_one_table_per_shared_key(tables, th):
    # a key names circle positions, not a diagram: the trefoil's and the
    # figure-eight's cubes read one table object for each key they share
    cubes = [build_cube(parse_pd(PD_CODES[name]), th) for name in ("trefoil", "figure8")]
    for c in cubes:
        for g in c.generators():
            c.differential_of(g)
    trefoil, figure8 = map(edge_tables, cubes)
    shared = trefoil.keys() & figure8.keys()
    assert shared and all(trefoil[k] is figure8[k] for k in shared)
    assert len(tables) == len(trefoil.keys() | figure8.keys())


def test_khovanov_and_lee_never_share_a_table(tables):
    # tables are keyed by the ring object: Khovanov's and Lee's cubes and
    # homology each build their own, and a merge of two v- labels tells
    # them apart (0 in Khovanov, v+ in Lee)
    d = parse_pd(torus2_pd(5))
    for th in (Theory.KHOVANOV, Theory.LEE):
        c = build_cube(d, th)
        for g in c.generators():
            c.differential_of(g)
        homology(build_cube(d, th))
    assert len({id(table) for table in tables.values()}) == len(tables)
    rings = {ring for ring, _ in tables}
    khovanov = {RINGS[Theory.KHOVANOV], RINGS[Theory.KHOVANOV].negated, INT_RINGS[Theory.KHOVANOV]}
    lee = {INT_RINGS[Theory.LEE], INT_RINGS[Theory.LEE].negated}
    assert rings == khovanov | lee
    merge = (2, 0, 1, 0, 0)
    assert label_table(INT_RINGS[Theory.KHOVANOV], merge)[0b11] == ()
    assert label_table(INT_RINGS[Theory.LEE], merge)[0b11] == ((0, 1),)


@pytest.mark.parametrize("ring", [*(RINGS[th] for th in Theory), *INT_RINGS.values()])
def test_a_negated_ring_gets_a_table_of_its_own(tables, ring):
    # an edge of sign -1 reads the `negated` twin's table: another object,
    # each coefficient negated
    for key in [(2, 0, 1, 0, 0), (1, 0, 0, 0, 1), (3, 0, 2, 1, 1), (3, 1, 1, 0, 3)]:
        table, negated = label_table(ring, key), label_table(ring.negated, key)
        assert negated is not table and negated is label_table(ring.negated, key)
        assert negated == tuple(tuple((t, -v) for t, v in row) for row in table)
    assert len(tables) == 8


def test_a_label_table_cannot_be_changed(tables):
    # every reader in the process shares a table, so it is a tuple of
    # tuples: no reader can change a row, add one or replace an entry
    table = label_table(INT_RINGS[Theory.LEE], (2, 0, 1, 0, 0))
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    assert all(type(term) is tuple for row in table for term in row)
    with pytest.raises(TypeError):
        table[0] = ()
    with pytest.raises(AttributeError):
        table.append(())
    with pytest.raises(TypeError):
        table[1][0] = (0, 1)


def test_labelling_indices_are_product_order():
    for k in range(12):
        for x, labels in enumerate(itertools.product((P, M), repeat=k)):
            assert _INDEX[labels] == x and _labellings(k)[x] == labels
    assert _labellings(11) is _labellings(11)
    many = _labellings(20)  # made on first read: no vertex here has 20 circles
    assert many[5] == (P,) * 17 + (M, P, M) and len(many) == 1


def test_edge_row_resolves_only_its_endpoints(resolve_calls):
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    row = c.edge_row(0b010, 0)
    assert (row[0], row[2]) == (0b011, -1)
    assert c.edge_row(0b010, 0) == row  # derived again from the resolutions kept
    assert resolve_calls == [2]


# -- edge rows: the key of each edge -------------------------------------------


def test_edge_row_trefoil_first_crossing():
    # from vertex 000, crossing 0: both circles of the oriented resolution merge into one
    d = parse_pd(PD_CODES["trefoil"])
    _, (k, s1, s2, t1, t2), _ = build_cube(d, Theory.KHOVANOV).edge_row(0, 0)
    assert s1 != s2 and t1 == t2  # a merge, not a split
    assert (s1, s2) == (0, 1)
    assert resolve(d, 0b001).count == 1


def test_edge_row_split():
    d = parse_pd(PD_CODES["trefoil"])
    # from 0b011: flipping the last crossing goes 2 -> 3 circles
    base = resolve(d, 0b011).count
    tgt = resolve(d, 0b111).count
    _, (_, s1, s2, t1, t2), _ = build_cube(d, Theory.KHOVANOV).edge_row(0b011, 2)
    if tgt == base + 1:
        assert s1 == s2 and t1 != t2
    else:
        assert s1 != s2 and t1 == t2


def test_edge_row_classification_matches_counts(corpus):
    for name, d in corpus.items():
        c = build_cube(d, Theory.KHOVANOV)
        for mask in range(1 << d.n):
            for j in range(d.n):
                if (mask >> j) & 1:
                    continue
                _, key, _ = c.edge_row(mask, j)
                k, s1, s2, t1, t2 = key
                delta = resolve(d, mask | 1 << j).count - resolve(d, mask).count
                assert (t1 != t2) == (delta == 1)  # a split
                assert (s1 != s2) == (delta == -1)  # a merge
                # untouched circles correspond bijectively: with the flipped
                # crossing's circles all v+, the labellings of the others
                # reach as many distinct target labellings
                table, read = label_table(c.ring, key), 1 << k - 1 - s1 | 1 << k - 1 - s2
                reached = {table[x][0][0] for x in range(1 << k) if not x & read}
                assert len(reached) == 2 ** (k - (2 if s1 != s2 else 1))


def assert_edge_plans_match_the_general_plan(d):
    """Every edge's label table is the table carried through its general plan, one object per key.

    The reference (`label_table_termwise`) carries each labelling through
    `transfer` of the edge's two fresh resolutions, once per distinct plan
    and sign.  The key is the source circle count and the circles of the
    flipped crossing's arcs: the source circles of slots 0 and 1, the
    target circles of slots 0 and 2; edges of one key and one sign read one
    table object.
    """
    c = build_cube(d, Theory.KHOVANOV)
    tables, references, rows = {}, {}, {}
    for mask in range(1 << c.n):
        for j in range(c.n):
            if not (mask >> j) & 1:
                src, tgt = c.circles(mask), c.circles(mask | 1 << j)
                _, edge, sign = c.edge_row(mask, j)
                ring = c.ring if sign == 1 else c.ring.negated
                table = label_table(ring, edge)
                plan = transfer(resolve(d, mask), resolve(d, mask | 1 << j))
                if (plan, sign) not in references:
                    references[plan, sign] = label_table_termwise(d, mask, j, ring)
                if id(table) not in rows:
                    rows[id(table)] = [table[x] for x in range(1 << src.count)]
                assert rows[id(table)] == references[plan, sign], (serialize_pd(d), mask, j)
                a0, a1, a2, _ = d.crossings[j].arcs
                key = (src.count, src.circle_of[a0], src.circle_of[a1],
                       tgt.circle_of[a0], tgt.circle_of[a2])
                assert tables.setdefault((key, sign), table) is table, (serialize_pd(d), mask, j)


EDGE_PLAN_DIAGRAMS = [*PD_CODES, *(f"T(2,{n})" for n in range(1, 10)), "trefoil_kinked",
                      "figure8_kinked"]


@pytest.mark.parametrize("name", EDGE_PLAN_DIAGRAMS)
def test_edge_plans_match_the_general_plan(name):
    assert_edge_plans_match_the_general_plan(diagram(name))


def test_edge_row_refuses_a_non_planar_edge(tables):
    # a self-crossing circle X(a,b,a,b): one circle stays one circle
    # (`parse_pd` refuses the code, so it is built directly); the edge is
    # refused every time, before any row or table is stored
    d = LinkDiagram([(1, (1, 2, 1, 2))])
    for _ in range(2):
        with pytest.raises(MoveError, match="not planar") as refused:
            build_cube(d, Theory.KHOVANOV).edge_row(0, 0)
        assert "crossing 1 at vertex 0" in str(refused.value)
    assert tables == {}


@pytest.mark.parametrize("th", [Theory.KHOVANOV, Theory.LEE])
def test_homology_refuses_a_non_planar_edge(tables, th):
    # homology reads the edge key itself: the same refusal, and no table stored
    d = LinkDiagram([(1, (1, 2, 1, 2))])
    with pytest.raises(MoveError, match="not planar") as refused:
        homology(build_cube(d, th))
    assert "crossing 1 at vertex 0" in str(refused.value)
    assert tables == {}


def test_edge_row_refuses_an_edge_off_the_cube():
    c = build_cube(parse_pd(PD_CODES["trefoil"]), Theory.KHOVANOV)
    for mask, j in [(0, 3), (0, -1), (-1, 0), (8, 0)]:
        with pytest.raises(KhovalError, match="not on the cube of 3 crossings"):
            c.edge_row(mask, j)
    with pytest.raises(KhovalError, match="must start at a 0-bit"):
        c.edge_row(1, 0)


def test_a_piece_needs_a_label_for_every_new_circle():
    # the circle (3,4) of the target is new
    plan = transfer(resolve(parse_pd("L0"), 0), resolve(parse_pd("L0 L1"), 0))
    assert plan.new == (1,)
    for th in ALL_THEORIES:
        c = build_cube(parse_pd("L0"), th)
        assert apply_pieces(c, (Piece(0, 1, plan, {1: P}),), (M,)) == [(Generator(0, (M, P)), 1)]
    for births in (None, {0: P}):
        with pytest.raises(KhovalError, match="unlabeled"):
            Piece(0, 1, plan, births)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_death_weights_and_dotted_births(th):
    # eps(v+) = 0, eps(v-) = 1, eps(X.v+) = 1, eps(X.v-) = 0, read off the
    # structure tables and through a piece that caps the only circle
    xmult = RINGS[th].multiply[M]  # X = v-, and m is commutative

    def eps(label, dotted):
        image = xmult[label] if dotted else {label: TPoly(1)}
        return image.get(M, TPoly(0))  # the counit is 1 on v- and 0 on v+

    weights = {(P, False): 0, (M, False): 1, (P, True): 1, (M, True): 0}
    unknot, empty = build_cube(parse_pd("L0"), th), build_cube(parse_pd(""), th)
    death = transfer(unknot.circles(0), empty.circles(0))
    for (label, dotted), weight in weights.items():
        assert eps(label, dotted) == weight
        cap = Piece(0, 1, death, deaths={0: DOTTED_CAP if dotted else CAP})
        image = apply_pieces(unknot, (cap,), (label,))
        assert image == ([(Generator(0, ()), TPoly(1))] if weight else [])
    # a cup gives v+, a dotted cup X.v+ = v-, and a dot then acts by X
    birth = transfer(empty.circles(0), unknot.circles(0))
    assert xmult[P] == {M: TPoly(1)}
    cup = apply_pieces(empty, (Piece(0, 1, birth, {0: CUP}),), ())
    assert cup == [(Generator(0, (P,)), TPoly(1))]
    assert apply_pieces(empty, (Piece(0, -1, birth, {0: DOTTED_CUP}),), ()) == [
        (Generator(0, (M,)), TPoly(-1))
    ]
    dotted = apply_pieces(empty, (Piece(0, 1, birth, {0: DOTTED_CUP}, dots=(0,)),), ())
    assert dotted == [(Generator(0, (l,)), c) for l, c in xmult[M].items()]


def test_a_piece_compiles_its_label_action_once_when_it_is_made(monkeypatch):
    # the action is kept on the piece and read by every application, in every ring
    import khoval.cube as cube_module

    compiled, label_action = [], cube_module._label_action
    monkeypatch.setattr(cube_module, "_label_action",
                        lambda p: compiled.append(p) or label_action(p))
    d = parse_pd(PD_CODES["hopf"])
    piece = Piece(1, 1, transfer(resolve(d, 0), resolve(d, 1)))  # the saddle along edge (0, 0)
    assert piece.plan.merge is not None and compiled == [piece] and type(piece.action) is tuple
    action = piece.action
    for th in Theory:
        c = build_cube(d, th)
        assert c._edge_image(0, 0, 0b10) == [(Generator(1, (M,)), c.ring.one)], th
        for _ in range(3):
            assert apply_pieces(c, (piece,), (M, P)) == [(Generator(1, (M,)), c.ring.one)], th
            assert compiled == [piece] and piece.action is action


def test_piece_refuses_a_circle_vanishing_without_a_death_rule():
    src = ResolvedDiagram(2, [], ((), ((1, 2), (3, 4))))
    tgt = ResolvedDiagram(1, [], ((), ((3, 4),)))
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
    for p in x.terms.values():  # Lee's ring is Z: its coefficients are `int`
        assert type(p) is int if th is Theory.LEE else th.reduce(p) == p
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
