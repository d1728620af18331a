"""Gaussian elimination of based chain complexes: one unit-pivot kernel.

`eliminate` is the Gaussian elimination lemma of Bar-Natan, "Fast Khovanov
homology computations" (math/0606318).  Cancelling a differential entry of
coefficient +-1 between two basis generators yields a smaller complex
homotopy equivalent to the original.  The kernel works on column-sparse
differentials {g: {h: c}} with `int` or `TPoly` coefficients and keeps a row
index (for each h, the columns that hit it), so a cancellation touches only
the columns it changes.  Generators are visited in (degree, generator)
order; each column cancels its unit entry whose row has the fewest hits, and
passes repeat until no unit entry is left.

`homology` runs the kernel on the whole cube and hands the non-unit residue
to the Smith normal form.  `reduce_complex` also tracks the projection and
inclusion maps of the equivalence; the projection is a strict retraction:
project o include = identity on the reduced complex.  This is used to
construct triangle-move chain maps: reduce both cubes, match the reduced
complexes by a signed block bijection, and conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .algebra import TPoly
from .cube import CubeComplex, Generator, _accumulate

__all__ = ["BasedComplex", "Reduction", "eliminate", "reduce_cube", "match_reduced"]

Element = dict[Generator, TPoly]

# Signed block bijections `match_reduced` tries before giving up.
MAX_TRIES = 200000


@dataclass
class BasedComplex:
    """Finite free complex with a chosen basis and sparse differential columns."""

    degrees: dict[Generator, tuple[int, int]]
    diff: dict[Generator, Element]

    @classmethod
    def from_cube(cls, cube: CubeComplex) -> "BasedComplex":
        degrees = {}
        diff = {}
        for g in cube.generators():
            degrees[g] = cube.degrees(g)
            diff[g] = dict(cube.differential_of(g).terms)
        return cls(degrees, diff)

    def is_zero_differential(self) -> bool:
        return all(not col for col in self.diff.values())


@dataclass
class Reduction:
    """A homotopy equivalence between an original complex and its reduction."""

    reduced: BasedComplex
    project: dict[Generator, Element]  # original generator -> reduced element
    include: dict[Generator, Element]  # reduced generator -> original element


def _add_scaled(target: dict, source: dict, scale, key=None, index=None) -> None:
    """target += scale * source, dropping zeros; `index[k]` tracks `key` in k's row."""
    for k, v in source.items():
        cur = target.get(k)
        total = scale * v if cur is None else cur + scale * v
        if total:
            target[k] = total
            if cur is None and index is not None:
                index[k].add(key)
        elif cur is not None:
            del target[k]
            if index is not None:
                index[k].discard(key)


def eliminate(degrees: dict, diff: dict, track: bool = False):
    """Cancel unit entries of the complex (degrees, diff), in place, until none is left.

    `diff` maps every generator to its column {target: coefficient}; the
    residual complex is left in `degrees` and `diff`.  With `track`, returns
    (project, include) as in `Reduction`, with `TPoly` coefficients;
    otherwise (None, None).
    """
    rows: dict = {g: set() for g in degrees}
    for g, col in diff.items():
        for h in col:
            rows[h].add(g)
    if track:
        one = TPoly(1)
        originals = list(degrees)
        project_rows = {g: {g: one} for g in degrees}  # reduced h -> {original: coeff}
        include = {g: {g: one} for g in degrees}

    def cancel(g, h, lam) -> None:
        # g -> h with coefficient lam = +-1, its own inverse; rho = d(g) - lam*h
        rho = diff.pop(g)
        del rho[h]
        for k in rho:
            rows[k].discard(g)
        for k in diff.pop(h):
            rows[k].discard(h)
        for y in rows.pop(g):
            del diff[y][g]
        hitters = rows.pop(h)
        hitters.discard(g)
        del degrees[g], degrees[h]
        if track:
            g_image = include.pop(g)
            del include[h]
        for x in hitters:
            col = diff[x]
            scale = -lam * col.pop(h)
            _add_scaled(col, rho, scale, x, rows)
            if track:
                _add_scaled(include[x], g_image, scale)
        if track:
            h_row = project_rows.pop(h)
            del project_rows[g]
            for k, v in rho.items():
                _add_scaled(project_rows[k], h_row, -lam * v)

    order = sorted(diff, key=lambda g: (degrees[g], g))
    while order:
        for g in order:
            col = diff.get(g)
            if not col:
                continue
            best = lam = None
            for h, c in col.items():
                if (c == 1 or c == -1) and (best is None or len(rows[h]) < len(rows[best])):
                    best, lam = h, c
            if best is not None:
                cancel(g, best, lam)
        survivors = [g for g in order if g in diff]
        if len(survivors) == len(order):
            break
        order = survivors

    if not track:
        return None, None
    project: dict = {g: {} for g in originals}
    for k, row in project_rows.items():
        for o, c in row.items():
            project[o][k] = c
    return project, include


def reduce_cube(cube: CubeComplex) -> Reduction:
    return reduce_complex(BasedComplex.from_cube(cube))


def reduce_complex(cx: BasedComplex) -> Reduction:
    degrees = dict(cx.degrees)
    diff = {g: dict(col) for g, col in cx.diff.items()}
    project, include = eliminate(degrees, diff, track=True)
    return Reduction(BasedComplex(degrees, diff), project, include)


# -- matching reduced complexes ---------------------------------------------------


def match_reduced(
    src: BasedComplex,
    tgt: BasedComplex,
    degree_key=None,
) -> dict[Generator, tuple[Generator, int]] | None:
    """A signed bijection u with u o d = d o u, or None if none is found.

    Generators are paired within blocks of equal degree; `degree_key` projects
    the stored (i, q) when only part of it is preserved (q is meaningless
    after the t = 1 specialization).
    """
    degree_key = degree_key or (lambda deg: deg)
    src_blocks: dict = {}
    tgt_blocks: dict = {}
    for g, deg in src.degrees.items():
        src_blocks.setdefault(degree_key(deg), []).append(g)
    for g, deg in tgt.degrees.items():
        tgt_blocks.setdefault(degree_key(deg), []).append(g)
    if set(src_blocks) != set(tgt_blocks):
        return None
    for key in src_blocks:
        if len(src_blocks[key]) != len(tgt_blocks[key]):
            return None
        src_blocks[key].sort()
        tgt_blocks[key].sort()

    keys = sorted(src_blocks)
    if src.is_zero_differential() and tgt.is_zero_differential():
        return {
            s: (t, 1)
            for key in keys
            for s, t in zip(src_blocks[key], tgt_blocks[key])
        }

    def commutes(u: dict) -> bool:
        # u(d_src(g)) must equal d_tgt(u(g)) for every reduced source generator
        for g, (tg, sign) in u.items():
            lhs: Element = {}
            for h, p in src.diff.get(g, {}).items():
                th, s2 = u[h]
                _accumulate(lhs, th, p * s2)
            rhs = {k: v * sign for k, v in tgt.diff.get(tg, {}).items()}
            if lhs != rhs:
                return False
        return True

    block_options = []
    for key in keys:
        size = len(src_blocks[key])
        options = [
            list(zip(perm, signs))
            for perm in permutations(tgt_blocks[key])
            for signs in product((1, -1), repeat=size)
        ]
        block_options.append(options)

    tries = 0
    for combo in product(*block_options):
        tries += 1
        if tries > MAX_TRIES:
            return None
        u: dict[Generator, tuple[Generator, int]] = {}
        for key, choice in zip(keys, combo):
            for s, (t, sign) in zip(src_blocks[key], choice):
                u[s] = (t, sign)
        if commutes(u):
            return u
    return None
