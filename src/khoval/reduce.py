"""Gaussian elimination of based chain complexes: one unit-pivot kernel.

`eliminate` is the Gaussian elimination lemma of Bar-Natan, "Fast Khovanov
homology computations" (math/0606318).  Cancelling a differential entry of
coefficient +-1 between two basis generators yields a smaller complex
homotopy equivalent to the original.  The kernel takes a stream of
(g, {h: c}) columns with `int` coefficients and returns the surviving
columns and the generators it cancelled, sources and targets; a caller
that needs degrees reads them off its own numbering.  A target may have no
column: `homology` streams one layer of the cube at a time, with the next
layer's generators as targets, and passes the non-unit residue to the
Smith normal form.  Columns are reduced left to right, as in persistent
homology, with no row index: in the order they come (Lee's ascending q,
the filtration order of persistence algorithms), each takes the updates of
the pivots chosen before it, in pivot order, and cancels its first unit
entry before the next is drawn.  The first pass ends by updating its
survivors and dropping the cancelled generators; passes over the
survivors repeat until no unit entry is left: a pass whose update
changed no survivor is the last, as each survivor was scanned for a unit
as it is.  A pivot changes only the columns holding one of its
generators, so a column with no generator cancelled so far skips the
update (on T(2,7), 332 visits to Khovanov's 1,102 columns update, 360
for Lee).  Each column gets the updates that eager elimination gives it,
in the same order, so the residue and its insertion order are the same.
The pivots depend on the visiting order, the homology of the residue
does not.

The same lemma, on the two unit edges of an R2 bigon
(`cube._bigon_reduction`), gives the R2 chain maps and the R3 cone in
`khoval.r3`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

__all__ = ["eliminate"]


def eliminate(columns) -> tuple[dict, set]:
    """Cancel the unit entries of the (g, {h: coeff}) pairs `columns` yields, until none is left.

    A target without a column has a zero one.  Returns the surviving columns,
    reduced in place, in the order they came, and the cancelled generators,
    both ends of every cancelled entry.  A column updates (`_reduce`) only
    if it holds a generator cancelled so far, tested at both calls: one call
    per column, returning at once on a miss, made the homology benchmark's
    `solve_s` about 2 % slower.
    """
    diff: dict = {}
    cancelled: set = set()
    while True:
        pivots: list = []  # (g, h, -lam, rho) in the order chosen; rho = d(g) - lam*h
        number: dict = {}  # the cancelled generators, sources and targets, to their pivot's number
        misses = number.keys().isdisjoint  # True: no pivot so far changes the column
        for g, col in columns:
            diff[g] = col  # a later pass sets each key to its own column again
            if not col or g in number:
                continue
            if not misses(col):
                _reduce(col, pivots, number)
            for h, c in col.items():
                if c == 1 or c == -1:  # lam = +-1 is its own inverse
                    del col[h]
                    number[g] = number[h] = len(pivots)
                    pivots.append((g, h, -c, col))
                    break
        if not pivots:
            return diff, cancelled
        diff = {g: col for g, col in diff.items() if g not in number}
        stale = [col for col in diff.values() if not misses(col)]
        for col in stale:
            _reduce(col, pivots, number)
        cancelled.update(number)
        if not stale:  # every survivor was scanned for a unit as it is now
            return diff, cancelled
        columns = list(diff.items())


def _reduce(col: dict, pivots: list, number: dict) -> None:
    """Apply to `col` each pivot (g, h, -lam, rho) that hits it, in pivot order.

    A pivot drops the entry at g and trades the entry c at h for -lam * c * rho.
    An entry that a pivot brings in belongs to a later pivot or to none, so a
    heap of pivot numbers visits the hits in order (a repeat finds them gone).
    """
    heap = []  # a loop: a comprehension is one more call per update on CPython 3.11
    for k in col:
        if k in number:
            heap.append(number[k])
    heapify(heap)
    while heap:
        g, h, scale, rho = pivots[heappop(heap)]
        if g in col:
            del col[g]
        if h not in col:
            continue
        scale *= col.pop(h)
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
