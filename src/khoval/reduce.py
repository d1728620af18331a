"""Gaussian elimination of based chain complexes: one unit-pivot kernel.

`eliminate` is the Gaussian elimination lemma of Bar-Natan, "Fast Khovanov
homology computations" (math/0606318).  Cancelling a differential entry of
coefficient +-1 between two basis generators yields a smaller complex
homotopy equivalent to the original.  The kernel works on column-sparse
differentials {g: {h: c}} with `int` coefficients, and returns the set of
generators it cancelled, sources and targets; a caller that needs the
survivors' degrees reads them off its own numbering.  A target may have no
column: `homology` hands it one layer of the cube at a time, that layer's
columns with the next layer's generators as targets, and passes the
non-unit residue to the Smith normal form.  Columns are reduced left to
right, as in persistent homology, with no row index: visited in the
caller's insertion order (cube order, for homology), each first takes the
updates of the pivots chosen before it, in pivot order, then cancels its
first unit entry.  A pass ends by updating its survivors and dropping the
cancelled generators; passes repeat until no unit entry is left.  Each
column gets the updates that eager elimination gives it, in the same order,
so the residue and its insertion order are the same.  The pivots depend on
the visiting order, the homology of the residue does not.

The same lemma, on the two unit edges of an R2 bigon
(`cube._bigon_reduction`), gives the R2 chain maps and the R3 cone in
`khoval.r3`.
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["eliminate"]


def eliminate(diff: dict) -> set:
    """Cancel unit entries of `diff`, in place, until none is left; return the cancelled generators.

    `diff` maps generators to their columns {target: coefficient}, and a
    target without a column has a zero one.  The returned set holds both
    ends of every cancelled entry; `diff` keeps only the surviving columns.
    """
    order = list(diff)
    cancelled: set = set()
    while True:
        pivots: list = []  # (g, h, -lam, rho) in the order chosen; rho = d(g) - lam*h
        number: dict = {}  # the cancelled generators, sources and targets, to their pivot's number
        for g in order:
            col = diff[g]
            if not col or g in number:
                continue
            _reduce(col, pivots, number)
            for h, c in col.items():
                if c == 1 or c == -1:  # lam = +-1 is its own inverse
                    del col[h]
                    number[g] = number[h] = len(pivots)
                    pivots.append((g, h, -c, col))
                    break
        if not pivots:
            return cancelled
        order = [g for g in order if g not in number]
        for g in order:
            _reduce(diff[g], pivots, number)
        for g in number:
            diff.pop(g, None)
        cancelled.update(number)


def _reduce(col: dict, pivots: list, number: dict) -> None:
    """Apply to `col` each pivot (g, h, -lam, rho) that hits it, in pivot order.

    A pivot drops the entry at g and trades the entry c at h for -lam * c * rho.
    An entry that a pivot brings in belongs to a later pivot or to none, so a
    heap of pivot numbers visits the hits in order (a repeat finds them gone).
    """
    heap = sorted(number[k] for k in col if k in number)
    while heap:
        g, h, scale, rho = pivots[heappop(heap)]
        col.pop(g, None)
        c = col.pop(h, None)
        if c is None:
            continue
        scale *= c
        for k, v in rho.items():
            cur = col.get(k)
            if cur is None:
                col[k] = scale * v
                if k in number:
                    heappush(heap, number[k])
            elif total := cur + scale * v:
                col[k] = total
            else:
                del col[k]
