"""Gaussian elimination of based chain complexes: one unit-pivot kernel.

`eliminate` is the Gaussian elimination lemma of Bar-Natan, "Fast Khovanov
homology computations" (math/0606318).  Cancelling a differential entry of
coefficient +-1 between two basis generators yields a smaller complex
homotopy equivalent to the original.  The kernel works on column-sparse
differentials {g: {h: c}} with `int` or `TPoly` coefficients and keeps a row
index (for each h that some column hits, the columns that hit it), so a
cancellation touches only the columns it changes.  A target may have no
column: `homology` hands it one layer of the cube at a time, that layer's
columns with the next layer's generators as targets, and passes the
non-unit residue to the Smith normal form.  Columns are visited in the
caller's insertion order (cube order, for homology); each cancels its
first unit entry, and passes repeat until no unit entry is left.  The
pivots depend on that order, the homology of the residue does not.

The same lemma, on the two unit edges of an R2 bigon
(`cube._bigon_reduction`), gives the R2 chain maps and the R3 cone in
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

    `degrees` holds every generator; `diff` maps generators to their columns
    {target: coefficient}, and a target without a column has a zero one.
    The columns are visited in insertion order, each cancelling its first
    unit entry.  The residual complex is left in `degrees` and `diff`.
    """
    rows: dict = {}
    for g, col in diff.items():
        for h in col:
            hit = rows.get(h)
            if hit is None:
                rows[h] = {g}
            else:
                hit.add(g)

    def cancel(g, h, lam) -> None:
        # g -> h with coefficient lam = +-1, its own inverse; rho = d(g) - lam*h
        rho = diff.pop(g)
        del rho[h]
        for k in rho:
            rows[k].discard(g)
        for k in diff.pop(h, ()):
            rows[k].discard(h)
        for y in rows.pop(g, ()):
            del diff[y][g]
        hitters = rows.pop(h)
        hitters.discard(g)
        del degrees[g], degrees[h]
        for x in hitters:
            col = diff[x]
            _add_scaled(col, rho, -lam * col.pop(h), x, rows)

    order = list(diff)
    while order:
        for g in order:
            col = diff.get(g)
            if not col:
                continue
            for h, c in col.items():
                if c == 1 or c == -1:
                    cancel(g, h, c)
                    break
        survivors = [g for g in order if g in diff]
        if len(survivors) == len(order):
            break
        order = survivors
