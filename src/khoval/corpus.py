"""The built-in diagram and movie corpus used by the `verify` command.

Small hand-checkable diagrams covering both crossing signs, plus every still
of the canonical surface movies.  The verify suites replay the library's
structural laws at runtime: d o d = 0 and face anticommutativity for all
three theories, the two Jones computation paths, chain-map laws for one
instance of every implemented move, and the closed-surface values.
"""

from __future__ import annotations

from .algebra import MINUS, TPoly, Theory
from .cobordism import (
    bn_invariant,
    canonical_movies,
    esi_chain_map,
    kj_number,
    punctured_eval,
    punctured_to_empty,
)
from .cube import DEFAULT_CAP, build_cube, check_d_squared, check_faces
from .diagram import LinkDiagram, parse_pd, serialize_pd
from .errors import KhovalError
from .homology import graded_euler, kauffman_jones
from .moves import ESI, apply_esi, apply_esi_info

__all__ = ["PD_CODES", "MIRRORED_BRAID", "torus2_pd", "corpus_diagrams", "verify_all"]


def torus2_pd(n: int) -> str:
    """PD code of the closure of the positive 2-braid with n crossings.

    For odd n this is the (2, n) torus knot, its 2n arcs numbered along the
    knot (n = 3 gives the same code as the trefoil entry up to relabeling).
    For even n it is the (2, n) torus link: each of the two components has n
    arcs, numbered along it.
    """
    if n < 1:
        raise KhovalError("need at least one crossing")

    def arc(k: int, strand: int) -> int:
        if n % 2:
            return (k + strand * n - 1) % (2 * n) + 1
        return strand * n + (k - 1) % n + 1

    toks = []
    for c in range(1, n + 1):
        a0, b0, a1, b1 = arc(c, 0), arc(c, 1), arc(c + 1, 0), arc(c + 1, 1)
        if c % 2 == 1:
            toks.append(f"X({b0},{a0},{b1},{a1})")
        else:
            toks.append(f"X({a0},{b0},{a1},{b1})")
    return " ".join(toks)


PD_CODES = {
    "empty": "",
    "unknot": "L0",
    "two_unknots": "L0 L1",
    "hopf": "X(1,3,2,4) X(4,2,3,1)",
    "trefoil": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
    "figure8": "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)",
    "braid_closure": "X(2,1,4,5) X(3,5,6,3) X(6,4,1,2)",
    "torus_link_2_4": torus2_pd(4),
}
# the braid closure with each crossing's slots rotated by one: its mirror, whose
# three crossings are negative, so its R3 triangle's 0-smoothed face is B (`r3`)
MIRRORED_BRAID = "X(1,4,5,2) X(5,6,3,3) X(4,1,2,6)"


def corpus_diagrams() -> dict[str, LinkDiagram]:
    out = {name: parse_pd(code) for name, code in PD_CODES.items()}
    out["unknot_pos_kink"] = apply_esi(
        out["unknot"], ESI("r1", variant="add_pos", arc=1)
    )
    out["unknot_neg_kink"] = apply_esi(
        out["unknot"], ESI("r1", variant="add_neg", arc=1)
    )
    seen = {serialize_pd(d) for d in out.values()}
    for name, movie in canonical_movies().items():
        for k, still in enumerate(movie.stills()):
            key = serialize_pd(still)
            if key not in seen:
                seen.add(key)
                out[f"{name}_still{k}"] = still
    return out


# -- runtime verification suites ---------------------------------------------------


def _suite_complex_laws(cap: int) -> tuple[bool, str]:
    for name, d in corpus_diagrams().items():
        for th in Theory:
            cube = build_cube(d, th, cap=cap)
            rep = check_d_squared(cube)
            if not rep.ok:
                return False, f"{name}/{th.value}: {rep.detail}"
            rep = check_faces(cube)
            if not rep.ok:
                return False, f"{name}/{th.value}: {rep.detail}"
    return True, "d o d = 0 and face anticommutativity on the corpus"


def _suite_jones(cap: int) -> tuple[bool, str]:
    for name, d in corpus_diagrams().items():
        cube = build_cube(d, Theory.KHOVANOV, cap=cap)
        if graded_euler(cube) != kauffman_jones(d):
            return False, f"{name}: graded Euler != Kauffman bracket"
    return True, "graded Euler characteristic matches the bracket oracle"


def _rmove_instances():
    unknot = parse_pd(PD_CODES["unknot"])
    trefoil = parse_pd(PD_CODES["trefoil"])
    two = parse_pd(PD_CODES["two_unknots"])
    yield "r1 add_pos", unknot, ESI("r1", variant="add_pos", arc=1)
    yield "r1 add_neg", trefoil, ESI("r1", variant="add_neg", arc=2)
    kinked, info = apply_esi_info(unknot, ESI("r1", variant="add_pos", arc=1))
    yield "r1 remove", kinked, ESI(
        "r1", variant="remove", crossing=info.created_crossings[0]
    )
    yield "r2 add", two, ESI("r2", variant="add", arcs=(1, 3))
    poked, info = apply_esi_info(two, ESI("r2", variant="add", arcs=(1, 3)))
    yield "r2 remove", poked, ESI(
        "r2", variant="remove", crossings=tuple(info.created_crossings)
    )
    for name, code in (("r3 braid", PD_CODES["braid_closure"]), ("r3 mirrored", MIRRORED_BRAID)):
        d = apply_esi(parse_pd(code), ESI("r1", variant="add_pos", arc=1))
        d = apply_esi(d, ESI("r1", variant="add_neg", arc=2))
        yield name, d, ESI("r3", crossings=(1, 2, 3), variant="braid")


def _suite_chain_maps(cap: int) -> tuple[bool, str]:
    for name, d, event in _rmove_instances():
        for th in Theory:
            src = build_cube(d, th, cap=cap)
            tgt = build_cube(apply_esi(d, event), th, cap=cap)
            f = esi_chain_map(event, src, tgt, th)
            for g in src.generators():
                if f.apply(src.differential_of(g)) != tgt.differential(
                    f.of_generator(g)
                ):
                    return False, f"{name}/{th.value}: chain-map law fails at {g}"
    return True, "chain-map law for one instance of every implemented move"


def _suite_movies(cap: int) -> tuple[bool, str]:
    from .cobordism import trivial_surface_movie, torus_with_detour_movie

    expected = {0: TPoly(0), 1: TPoly(2), 2: TPoly(0), 3: TPoly({1: 8}),
                4: TPoly(0), 5: TPoly({2: 32})}
    for genus, want in expected.items():
        got = bn_invariant(trivial_surface_movie(genus))
        if got != want:
            return False, f"genus {genus}: BN = {got}, expected {want}"
    if kj_number(trivial_surface_movie(1)) != 2:
        return False, "torus KJ != 2"
    if bn_invariant(torus_with_detour_movie()) != TPoly(2):
        return False, "detour torus BN != 2"
    for m_half in range(3):
        got = punctured_eval(punctured_to_empty(2 * m_half), MINUS)
        want = TPoly({m_half: 4 ** m_half})
        if got != want and got != -want:
            return False, f"punctured genus {2*m_half}: {got}"
    return True, "closed and punctured surface values"


def verify_all(cap: int = DEFAULT_CAP) -> list[tuple[str, bool, str]]:
    suites = [
        ("complex-laws", _suite_complex_laws),
        ("jones-oracle", _suite_jones),
        ("chain-maps", _suite_chain_maps),
        ("surface-values", _suite_movies),
    ]
    results = []
    for name, fn in suites:
        try:
            ok, detail = fn(cap)
        except KhovalError as exc:
            ok, detail = False, f"error: {exc}"
        results.append((name, ok, detail))
    return results
