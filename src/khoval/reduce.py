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
to the Smith normal form.  The same lemma, on the two unit edges of an R2
bigon (`cube._bigon_reduction`), gives the R2 chain maps and the R3 cone in
`khoval.r3`.
"""

from __future__ import annotations

__all__ = ["eliminate"]


def _add_scaled(target: dict, source: dict, scale, key, index) -> None:
    """target += scale * source, dropping zeros; `index[k]` tracks `key` in k's row."""
    for k, v in source.items():
        cur = target.get(k)
        total = scale * v if cur is None else cur + scale * v
        if total:
            target[k] = total
            if cur is None:
                index[k].add(key)
        elif cur is not None:
            del target[k]
            index[k].discard(key)


def eliminate(degrees: dict, diff: dict) -> None:
    """Cancel unit entries of the complex (degrees, diff), in place, until none is left.

    `diff` maps every generator to its column {target: coefficient}; the
    residual complex is left in `degrees` and `diff`.
    """
    rows: dict = {g: set() for g in degrees}
    for g, col in diff.items():
        for h in col:
            rows[h].add(g)

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
        for x in hitters:
            col = diff[x]
            _add_scaled(col, rho, -lam * col.pop(h), x, rows)

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
