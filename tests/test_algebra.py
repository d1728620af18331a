"""Structure-map tables, Frobenius laws, and gradings of the coefficient algebra."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from khoval.algebra import (
    INT_RINGS,
    LABELS,
    LaurentPoly,
    MINUS,
    PLUS,
    RINGS,
    TPoly,
    Theory,
)
from khoval.cube import CAP, CUP
from oracles import tube

P, M = PLUS, MINUS
ALL_THEORIES = list(Theory)


# a birth is the unit 1 -> v+, a death the counit, 1 on v- and 0 on v+
UNIT = {CUP: TPoly(1)}


def counit(a):
    return TPoly(1) if a == CAP else TPoly(0)


def qdeg(label):
    return 1 - 2 * label


def tp(*pairs):
    return TPoly(dict(pairs))


# -- the defining tables -------------------------------------------------------


def test_multiplication_table_deformed():
    assert RINGS[Theory.BAR_NATAN].multiply[P][P] == {P: TPoly(1)}
    assert RINGS[Theory.BAR_NATAN].multiply[P][M] == {M: TPoly(1)}
    assert RINGS[Theory.BAR_NATAN].multiply[M][P] == {M: TPoly(1)}
    assert RINGS[Theory.BAR_NATAN].multiply[M][M] == {P: tp((1, 1))}


def test_multiplication_specializations():
    assert RINGS[Theory.KHOVANOV].multiply[M][M] == {}
    assert RINGS[Theory.LEE].multiply[M][M] == {P: TPoly(1)}


def test_comultiplication_table():
    assert RINGS[Theory.BAR_NATAN].comultiply[P] == {(P, M): TPoly(1), (M, P): TPoly(1)}
    assert RINGS[Theory.BAR_NATAN].comultiply[M] == {(M, M): TPoly(1), (P, P): tp((1, 1))}
    assert RINGS[Theory.KHOVANOV].comultiply[M] == {(M, M): TPoly(1)}
    assert RINGS[Theory.LEE].comultiply[M] == {(M, M): TPoly(1), (P, P): TPoly(1)}


def test_unit_counit():
    assert UNIT == {P: TPoly(1)}
    assert counit(P) == TPoly(0)
    assert counit(M) == TPoly(1)


def test_tube_values():
    assert tube(P, Theory.BAR_NATAN) == {M: TPoly(2)}
    assert tube(M, Theory.BAR_NATAN) == {P: tp((1, 2))}
    assert tube(M, Theory.KHOVANOV) == {}
    assert tube(M, Theory.LEE) == {P: TPoly(2)}


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_structure_tables_are_reduced(th):
    # each theory's tables are reduced once, so every entry is already reduced
    coeffs = []
    for a in LABELS:
        coeffs.extend(RINGS[th].comultiply[a].values())
        for b in LABELS:
            coeffs.extend(RINGS[th].multiply[a][b].values())
    # Khovanov's t = 0 drops m(v-, v-) and the t term of Delta(v-)
    assert len(coeffs) == (6 if th is Theory.KHOVANOV else 8)
    for c in coeffs:
        assert th.reduce(c) == c, (th, c)


def test_units_of_z_t_are_shared_objects():
    # every 1 and -1 in the Z[t] tables, their negated twins and reduced
    # coefficients is one of two objects, so a unit is tested by identity
    one, minus_one = RINGS[Theory.BAR_NATAN].one, RINGS[Theory.BAR_NATAN].negated.one
    assert (one, minus_one) == (TPoly(1), TPoly(-1))
    seen = []
    for ring in RINGS.values():
        for twin in (ring, ring.negated):
            seen.append(twin.one)
            for a in LABELS:
                seen.extend(twin.comultiply[a].values())
                for b in LABELS:
                    seen.extend(twin.multiply[a][b].values())
    for th in ALL_THEORIES:
        seen += [th.reduce(TPoly(1)), th.reduce(TPoly(-1)), th.reduce(TPoly({0: -1, 1: 2}))]
    units = [c for c in seen if c in (1, -1)]
    assert len(units) > len(ALL_THEORIES) * 2 * 6
    assert all(c is (one if c == 1 else minus_one) for c in units), units
    # t + 1 is no unit and stays itself; at t = 0 it is the shared 1
    p = TPoly({0: 1, 1: 1})
    assert Theory.BAR_NATAN.reduce(p) is p and Theory.KHOVANOV.reduce(p) is one


@pytest.mark.parametrize("ring", [*RINGS.values(), *INT_RINGS.values()])
def test_negated_twin_holds_every_entry_negated(ring):
    # a piece of sign -1 reads the twin, built with the ring, in place of negating
    twin = ring.negated
    assert twin.negated is ring and twin.one == -ring.one and type(twin.one) is type(ring.one)
    for a in LABELS:
        assert twin.comultiply[a] == {key: -c for key, c in ring.comultiply[a].items()}
        for b in LABELS:
            assert twin.multiply[a][b] == {key: -c for key, c in ring.multiply[a][b].items()}
    assert ring.zero == 0 and not ring.zero and type(ring.zero) is type(ring.one)


def test_specialize():
    assert TPoly(2).specialize(0) == 2
    assert tp((1, 8)).specialize(0) == 0
    assert tp((1, 8)).specialize(1) == 8
    assert tp((0, 3), (2, -5)).specialize(2) == 3 - 20


# -- algebra laws on all basis inputs ------------------------------------------


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_associativity(th):
    for a in LABELS:
        for b in LABELS:
            for c in LABELS:
                left = {}
                for lbl, p1 in RINGS[th].multiply[a][b].items():
                    for lbl2, p2 in RINGS[th].multiply[lbl][c].items():
                        left[lbl2] = left.get(lbl2, TPoly(0)) + p1 * p2
                right = {}
                for lbl, p1 in RINGS[th].multiply[b][c].items():
                    for lbl2, p2 in RINGS[th].multiply[a][lbl].items():
                        right[lbl2] = right.get(lbl2, TPoly(0)) + p1 * p2
                left = {k: v for k, v in left.items() if not v.is_zero()}
                right = {k: v for k, v in right.items() if not v.is_zero()}
                assert left == right, (a, b, c, th)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_coassociativity(th):
    for a in LABELS:
        left = {}
        for (x, y), p1 in RINGS[th].comultiply[a].items():
            for (u, v), p2 in RINGS[th].comultiply[x].items():
                key = (u, v, y)
                left[key] = left.get(key, TPoly(0)) + p1 * p2
        right = {}
        for (x, y), p1 in RINGS[th].comultiply[a].items():
            for (u, v), p2 in RINGS[th].comultiply[y].items():
                key = (x, u, v)
                right[key] = right.get(key, TPoly(0)) + p1 * p2
        left = {k: v for k, v in left.items() if not v.is_zero()}
        right = {k: v for k, v in right.items() if not v.is_zero()}
        assert left == right, (a, th)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_frobenius_relation(th):
    # Delta o m == (m (x) id) o (id (x) Delta) on every basis pair
    for a in LABELS:
        for b in LABELS:
            left = {}
            for lbl, p1 in RINGS[th].multiply[a][b].items():
                for (x, y), p2 in RINGS[th].comultiply[lbl].items():
                    left[(x, y)] = left.get((x, y), TPoly(0)) + p1 * p2
            right = {}
            for (x, y), p1 in RINGS[th].comultiply[b].items():
                for lbl, p2 in RINGS[th].multiply[a][x].items():
                    right[(lbl, y)] = right.get((lbl, y), TPoly(0)) + p1 * p2
            left = {k: v for k, v in left.items() if not v.is_zero()}
            right = {k: v for k, v in right.items() if not v.is_zero()}
            assert left == right, (a, b, th)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_unit_counit_laws(th):
    # m o (unit (x) id) = id  and  (counit (x) id) o Delta = id
    for a in LABELS:
        out = {}
        for lbl, p1 in UNIT.items():
            for lbl2, p2 in RINGS[th].multiply[lbl][a].items():
                out[lbl2] = out.get(lbl2, TPoly(0)) + p1 * p2
        assert {k: v for k, v in out.items() if not v.is_zero()} == {a: TPoly(1)}
        out = {}
        for (x, y), p1 in RINGS[th].comultiply[a].items():
            out[y] = out.get(y, TPoly(0)) + p1 * counit(x)
        assert {k: v for k, v in out.items() if not v.is_zero()} == {a: TPoly(1)}


def _q_of_output(mapping, arity: int) -> set[int]:
    """q-degrees of all monomials in a structure-map output (deg t = -4)."""
    degs = set()
    for key, poly in mapping.items():
        labels = key if isinstance(key, tuple) else (key,)
        base = sum(qdeg(l) for l in labels)
        for exp, _ in poly.items():
            degs.add(base - 4 * exp)
    return degs


@pytest.mark.parametrize("th", [Theory.BAR_NATAN, Theory.KHOVANOV])
def test_degree_law(th):
    # homogeneous theories: m and Delta have degree -1, unit and counit +1
    for a in LABELS:
        for b in LABELS:
            out = _q_of_output(RINGS[th].multiply[a][b], 2)
            assert out <= {qdeg(a) + qdeg(b) - 1}
        out = _q_of_output(RINGS[th].comultiply[a], 1)
        assert out <= {qdeg(a) - 1}
    assert _q_of_output(UNIT, 0) == {1}
    for a in LABELS:
        eps = counit(a)
        for exp, _ in eps.items():
            assert qdeg(a) + (1 - 4 * exp) == 0 or eps.is_zero()


def test_deformed_specializes_to_plain():
    # setting t = 0 in every deformed structure map gives the plain theory
    for a in LABELS:
        for b in LABELS:
            bn = RINGS[Theory.BAR_NATAN].multiply[a][b]
            kh = RINGS[Theory.KHOVANOV].multiply[a][b]
            assert {k: TPoly(v.coefficient(0)) for k, v in bn.items()
                    if v.coefficient(0)} == kh
        bn = RINGS[Theory.BAR_NATAN].comultiply[a]
        kh = RINGS[Theory.KHOVANOV].comultiply[a]
        assert {k: TPoly(v.coefficient(0)) for k, v in bn.items()
                if v.coefficient(0)} == kh


# -- polynomial arithmetic -----------------------------------------------------


polys = st.dictionaries(st.integers(0, 6), st.integers(-50, 50), max_size=5).map(TPoly)


@given(polys, polys)
def test_tpoly_commutative(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(polys, polys, polys)
def test_tpoly_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, st.integers(-3, 3))
def test_tpoly_specialize_is_ring_hom(a, t):
    b = TPoly({1: 2, 0: -1})
    assert (a * b).specialize(t) == a.specialize(t) * b.specialize(t)
    assert (a + b).specialize(t) == a.specialize(t) + b.specialize(t)


laurents = st.dictionaries(st.integers(-6, 6), st.integers(-50, 50), max_size=5).map(LaurentPoly)


@given(polys, polys, laurents, laurents)
def test_sums_and_negations_store_no_zero_and_keep_their_class(a, b, c, d):
    for x, y in ((a, b), (c, d)):
        cls = type(x)
        for r in (x + y, x - y, -x, y + x, x + (-x)):
            assert type(r) is cls
            assert 0 not in r.terms.values()
            assert r == cls(r.terms) and hash(r) == hash(cls(r.terms))
        assert (x + (-x)).is_zero() and x + (-x) == 0
        span = range(-6 if cls.LAURENT else 0, 7)
        assert x + y == cls({e: x.coefficient(e) + y.coefficient(e) for e in span})


def test_products_store_no_zero_and_keep_their_class(monkeypatch):
    one_plus_t, one_minus_t, p3, q_inv = (TPoly({0: 1, 1: 1}), TPoly({0: 1, 1: -1}),
                                          TPoly({0: 3, 2: -1}), LaurentPoly({-1: 2}))
    q = LaurentPoly({-1: 1, 1: 1})

    def refused(self, terms=0):
        raise AssertionError("a product went through the validating constructor")

    # both factors are clean: no product runs the constructor's checks
    monkeypatch.setattr(TPoly, "__init__", refused)
    product = one_plus_t * one_minus_t  # (1 + t)(1 - t) = 1 - t^2
    assert product.terms == {0: 1, 2: -1} and product.coefficient(1) == 0
    for p in (p3, q_inv):
        for zero in (p * 0, 0 * p):
            assert type(zero) is type(p) and zero.terms == {} and not zero and zero == 0
    assert type(q * q) is LaurentPoly and (q * q).terms == {-2: 1, 0: 2, 2: 1}
    assert type(q * q_inv) is LaurentPoly and type(q * 3) is LaurentPoly


def test_a_product_of_mixed_classes_is_checked_by_the_constructor():
    # only factors of one class skip the checks: a TPoly times a Laurent
    # polynomial with a negative exponent is refused, not stored
    with pytest.raises(ValueError, match="negative t-exponent -1"):
        TPoly({0: 1}) * LaurentPoly({-1: 1})
    product = TPoly({0: 1, 1: 2}) * LaurentPoly({0: 3, 1: -6})
    assert type(product) is TPoly and product.terms == {0: 3, 2: -12}
    assert type(LaurentPoly({-1: 1}) * TPoly({1: 1})) is LaurentPoly


@pytest.mark.parametrize("seed", range(5))
def test_products_equal_the_validating_constructors(seed):
    # products skip the constructor's checks; on random operands, cancelling
    # ones included, each is what the constructor makes of the termwise sum
    rng = random.Random(seed)
    for cls, low in ((TPoly, 0), (LaurentPoly, -4)):
        def operand():
            return cls({rng.randrange(low, 5): rng.randrange(-3, 4) for _ in range(rng.randrange(4))})

        for _ in range(60):
            a, b, k = operand(), operand(), rng.randrange(-3, 4)
            terms: dict = {}
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
            for got, want in ((a * b, cls(terms)),
                              (a * k, cls({e: c * k for e, c in a.terms.items()}))):
                assert type(got) is cls and got == want and got.terms == want.terms, (a, b, k)
                assert 0 not in got.terms.values() and hash(got) == hash(want)


def test_tpoly_equals_int():
    for value in (0, 1, -1, 7):
        p = TPoly(value)
        assert p == value
        assert all(p != other for other in (0, 1, -1, 7, 2) if other != value)
    for p in (TPoly({1: 1}), TPoly({0: 1, 1: 1}), TPoly({2: -1}), LaurentPoly({-1: 1})):
        assert all(p != other for other in (0, 1, -1, 7))
    assert LaurentPoly({0: 3}) == 3 and LaurentPoly() == 0


def test_tpoly_str():
    assert str(TPoly(0)) == "0"
    assert str(TPoly(2)) == "2"
    assert str(TPoly({1: 8})) == "8*t"
    assert str(TPoly({2: 32})) == "32*t^2"
    assert str(TPoly({0: 1, 1: -4})) == "1 - 4*t"
    assert str(TPoly({1: 1})) == "t"


def test_tpoly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        TPoly({-1: 2})


def test_laurent_poly_is_tpoly_in_q():
    q_inv = LaurentPoly({-1: 1})
    assert str(q_inv) == "q^-1"
    assert repr(q_inv) == "LaurentPoly({-1: 1})"
    assert TPoly(1) != LaurentPoly(1)
    assert LaurentPoly(1) != TPoly(1)
    assert LaurentPoly(3) == 3
    for value in (q_inv + q_inv, q_inv - q_inv, -q_inv, q_inv * 2, 2 * q_inv,
                  q_inv * LaurentPoly({1: 1})):
        assert type(value) is LaurentPoly
    assert q_inv * LaurentPoly({1: 1}) == LaurentPoly(1)
    for value in (TPoly(1) + TPoly(2), TPoly(2) * TPoly({1: 1}), -TPoly(1)):
        assert type(value) is TPoly
