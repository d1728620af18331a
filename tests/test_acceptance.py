"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (integer / polynomial equality); the timed
criteria assert their stated wall-clock budgets.
"""

import itertools
import time

import pytest

from khoval.algebra import MINUS, PLUS, TPoly, Theory, tube
from khoval.cobordism import (
    bn_invariant,
    canonical_movies,
    connected_sum,
    esi_chain_map,
    kj_number,
    lee_value,
    punctured_eval,
    punctured_from_empty,
    punctured_to_empty,
    r3_equivalence,
    torus_with_detour_movie,
    trivial_surface_movie,
)
from khoval.corpus import corpus_diagrams
from khoval.cube import build_cube, check_d_squared, check_faces
from khoval.diagram import parse_pd
from khoval.homology import graded_euler, kauffman_jones
from khoval.moves import ESI, apply_esi

from test_cobordism import _induces_identity, move_instances

P, M = PLUS, MINUS


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_genus_values():
    """Trivial genus-g movies: 0 for even g, 2^g t^((g-1)/2) for odd g; < 1 s."""
    start = time.perf_counter()
    expected = {
        0: TPoly(0),
        1: TPoly(2),
        2: TPoly(0),
        3: TPoly({1: 8}),
        4: TPoly(0),
        5: TPoly({2: 32}),
    }
    for genus, want in expected.items():
        assert bn_invariant(trivial_surface_movie(genus)) == want, genus
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report("1 genus 0..5 deformed values", f"{elapsed*1000:.0f} ms, exact")


def test_criterion_2_torus_integer_value():
    """KJ = 2 for the trivial torus, 0 for the sphere and genus-2; < 1 s."""
    start = time.perf_counter()
    assert kj_number(trivial_surface_movie(1)) == 2
    assert kj_number(trivial_surface_movie(0)) == 0
    assert kj_number(trivial_surface_movie(2)) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("2 torus/sphere/genus-2 integer values", f"{elapsed*1000:.0f} ms, exact")


def test_criterion_3_tube_identities_and_punctured_lemma():
    """tube(v+) = 2v-, tube(v-) = 2t v+; punctured genus-2m on v- = +-(4t)^m."""
    assert tube(P, Theory.BAR_NATAN) == {M: TPoly(2)}
    assert tube(M, Theory.BAR_NATAN) == {P: TPoly({1: 2})}
    for m in (0, 1, 2):
        got = punctured_eval(punctured_to_empty(2 * m), M, "to_empty")
        want = TPoly({m: 4 ** m})
        assert got == want or got == -want, m
    _report("3 tube identities and punctured values", "m = 0,1,2, exact")


def test_criterion_4_connected_sum_law():
    """torus # torus = genus-2 value = 0; torus # genus-2 = 8t."""
    torus = punctured_from_empty(1)
    assert connected_sum(torus, punctured_to_empty(1)) == TPoly(0)
    assert bn_invariant(trivial_surface_movie(2)) == TPoly(0)
    assert connected_sum(torus, punctured_to_empty(2)) == TPoly({1: 8})
    _report("4 connected-sum composition", "exact")


def test_criterion_5_d_squared_and_faces():
    """d o d = 0 and face (anti)commutativity on the whole corpus; < 10 s."""
    start = time.perf_counter()
    diagrams = corpus_diagrams()
    for name, d in diagrams.items():
        for th in Theory:
            cube = build_cube(d, th)
            assert check_d_squared(cube).ok, (name, th)
            assert check_faces(cube).ok, (name, th)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(
        "5 d^2 = 0 and face laws",
        f"{len(diagrams)} diagrams x 3 theories, {elapsed:.2f} s",
    )


def test_criterion_6_jones_cross_validation():
    """Graded Euler characteristic equals the bracket oracle coefficientwise; < 10 s."""
    start = time.perf_counter()
    diagrams = corpus_diagrams()
    for name, d in diagrams.items():
        cube = build_cube(d, Theory.KHOVANOV)
        assert graded_euler(cube) == kauffman_jones(d), name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report("6 Jones dual-path agreement", f"{len(diagrams)} diagrams, {elapsed:.2f} s")


def test_criterion_7_rmove_contract_suite():
    """Chain-map law, degree 0, and homology-inverse pairs for all R-moves; < 60 s."""
    start = time.perf_counter()
    # chain-map law + degree for every implemented instance, all theories
    for name, d, event in move_instances():
        if event.kind not in ("r1", "r2", "r3"):
            continue
        for th in Theory:
            src = build_cube(d, th)
            tgt = build_cube(apply_esi(d, event), th)
            f = esi_chain_map(event, src, tgt, th)
            assert f.q_degree == 0
            for g in src.generators():
                assert f.apply(src.differential_of(g)) == tgt.differential(
                    f.of_generator(g)
                ), (name, th)
                if th is not Theory.LEE:
                    out = f.of_generator(g)
                    if not out.is_zero():
                        assert out.degree() == src.degrees(g), (name, th)
    # homology-level mutual inverses (delegated assertions)
    from test_cobordism import (
        test_rmove_pairs_are_mutually_inverse_on_homology as pairs_test,
        test_r3_equivalence_mutually_inverse_on_homology as r3_test,
    )

    pairs_test()
    r3_test()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report("7 R-move contract suite", f"{elapsed:.2f} s")


def test_criterion_8_specialization_law():
    """KJ equals |deformed value at t = 0| for all corpus movies; Lee torus = 2."""
    for name, movie in canonical_movies().items():
        assert kj_number(movie) == abs(bn_invariant(movie).specialize(0)), name
    assert lee_value(trivial_surface_movie(1)) == 2
    _report("8 specialization law", "all corpus movies, exact")


def test_criterion_9_sign_indeterminacy():
    """The torus movie with an R2 detour yields the same normalized value 2."""
    detour = bn_invariant(torus_with_detour_movie())
    plain = bn_invariant(trivial_surface_movie(1))
    assert detour == plain == TPoly(2)
    _report("9 sign-indeterminacy robustness", "detour = plain = 2, exact")
