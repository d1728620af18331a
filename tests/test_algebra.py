"""Structure-map tables, Frobenius laws, and gradings of the coefficient algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from khoval.algebra import (
    LABELS,
    LaurentPoly,
    MINUS,
    PLUS,
    TPoly,
    Theory,
    comultiply,
    counit,
    multiply,
    tube,
    unit,
    xmult,
)

P, M = PLUS, MINUS
ALL_THEORIES = list(Theory)


def qdeg(label):
    return 1 - 2 * label


def tp(*pairs):
    return TPoly(dict(pairs))


# -- the defining tables -------------------------------------------------------


def test_multiplication_table_deformed():
    assert multiply(P, P, Theory.BAR_NATAN) == {P: TPoly(1)}
    assert multiply(P, M, Theory.BAR_NATAN) == {M: TPoly(1)}
    assert multiply(M, P, Theory.BAR_NATAN) == {M: TPoly(1)}
    assert multiply(M, M, Theory.BAR_NATAN) == {P: tp((1, 1))}


def test_multiplication_specializations():
    assert multiply(M, M, Theory.KHOVANOV) == {}
    assert multiply(M, M, Theory.LEE) == {P: TPoly(1)}


def test_comultiplication_table():
    assert comultiply(P, Theory.BAR_NATAN) == {(P, M): TPoly(1), (M, P): TPoly(1)}
    assert comultiply(M, Theory.BAR_NATAN) == {(M, M): TPoly(1), (P, P): tp((1, 1))}
    assert comultiply(M, Theory.KHOVANOV) == {(M, M): TPoly(1)}
    assert comultiply(M, Theory.LEE) == {(M, M): TPoly(1), (P, P): TPoly(1)}


def test_unit_counit():
    for th in ALL_THEORIES:
        assert unit(th) == {P: TPoly(1)}
        assert counit(P, th) == TPoly(0)
        assert counit(M, th) == TPoly(1)


def test_tube_values():
    assert tube(P, Theory.BAR_NATAN) == {M: TPoly(2)}
    assert tube(M, Theory.BAR_NATAN) == {P: tp((1, 2))}
    assert tube(M, Theory.KHOVANOV) == {}
    assert tube(M, Theory.LEE) == {P: TPoly(2)}


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_structure_tables_are_reduced(th):
    # each theory's tables are reduced once, so every entry is already reduced
    coeffs = [counit(a, th) for a in LABELS]
    for a in LABELS:
        for table in (comultiply(a, th), xmult(a, th), tube(a, th)):
            coeffs.extend(table.values())
        for b in LABELS:
            coeffs.extend(multiply(a, b, th).values())
    assert len(coeffs) >= 10
    for c in coeffs:
        assert th.reduce(c) == c, (th, c)


def test_specialize():
    assert TPoly(2).specialize(0) == 2
    assert tp((1, 8)).specialize(0) == 0
    assert tp((1, 8)).specialize(1) == 8
    assert tp((0, 3), (2, -5)).specialize(2) == 3 - 20


# -- algebra laws on all basis inputs ------------------------------------------


def _mul_elem(x, th):
    """Multiply a {label: TPoly} element by extending the basis table."""

    def on_pair(a, b):
        return multiply(a, b, th)

    return on_pair


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_associativity(th):
    for a in LABELS:
        for b in LABELS:
            for c in LABELS:
                left = {}
                for lbl, p1 in multiply(a, b, th).items():
                    for lbl2, p2 in multiply(lbl, c, th).items():
                        left[lbl2] = left.get(lbl2, TPoly(0)) + p1 * p2
                right = {}
                for lbl, p1 in multiply(b, c, th).items():
                    for lbl2, p2 in multiply(a, lbl, th).items():
                        right[lbl2] = right.get(lbl2, TPoly(0)) + p1 * p2
                left = {k: v for k, v in left.items() if not v.is_zero()}
                right = {k: v for k, v in right.items() if not v.is_zero()}
                assert left == right, (a, b, c, th)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_coassociativity(th):
    for a in LABELS:
        left = {}
        for (x, y), p1 in comultiply(a, th).items():
            for (u, v), p2 in comultiply(x, th).items():
                key = (u, v, y)
                left[key] = left.get(key, TPoly(0)) + p1 * p2
        right = {}
        for (x, y), p1 in comultiply(a, th).items():
            for (u, v), p2 in comultiply(y, th).items():
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
            for lbl, p1 in multiply(a, b, th).items():
                for (x, y), p2 in comultiply(lbl, th).items():
                    left[(x, y)] = left.get((x, y), TPoly(0)) + p1 * p2
            right = {}
            for (x, y), p1 in comultiply(b, th).items():
                for lbl, p2 in multiply(a, x, th).items():
                    right[(lbl, y)] = right.get((lbl, y), TPoly(0)) + p1 * p2
            left = {k: v for k, v in left.items() if not v.is_zero()}
            right = {k: v for k, v in right.items() if not v.is_zero()}
            assert left == right, (a, b, th)


@pytest.mark.parametrize("th", ALL_THEORIES)
def test_unit_counit_laws(th):
    # m o (unit (x) id) = id  and  (counit (x) id) o Delta = id
    for a in LABELS:
        out = {}
        for lbl, p1 in unit(th).items():
            for lbl2, p2 in multiply(lbl, a, th).items():
                out[lbl2] = out.get(lbl2, TPoly(0)) + p1 * p2
        assert {k: v for k, v in out.items() if not v.is_zero()} == {a: TPoly(1)}
        out = {}
        for (x, y), p1 in comultiply(a, th).items():
            out[y] = out.get(y, TPoly(0)) + p1 * counit(x, th)
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
            out = _q_of_output(multiply(a, b, th), 2)
            assert out <= {qdeg(a) + qdeg(b) - 1}
        out = _q_of_output(comultiply(a, th), 1)
        assert out <= {qdeg(a) - 1}
    assert _q_of_output(unit(th), 0) == {1}
    for a in LABELS:
        eps = counit(a, th)
        for exp, _ in eps.items():
            assert qdeg(a) + (1 - 4 * exp) == 0 or eps.is_zero()


def test_deformed_specializes_to_plain():
    # setting t = 0 in every deformed structure map gives the plain theory
    for a in LABELS:
        for b in LABELS:
            bn = multiply(a, b, Theory.BAR_NATAN)
            kh = multiply(a, b, Theory.KHOVANOV)
            assert {k: TPoly(v.coefficient(0)) for k, v in bn.items()
                    if v.coefficient(0)} == kh
        bn = comultiply(a, Theory.BAR_NATAN)
        kh = comultiply(a, Theory.KHOVANOV)
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
