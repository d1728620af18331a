"""The R3 triangle: finding its face, and its chain map by Bar-Natan's cone formula.

Bar-Natan (math/0410495, section 4.3) builds R3 from the cone on one
triangle crossing and the R2 equivalence of the bigon one of its smoothings
leaves.  That equivalence is `cube._bigon_reduction`, the Gaussian
elimination lemma (math/0606318) on the bigon's two unit edges, which also
gives the R2 maps.  `moves` rewrites the diagram along `triangle`;
`cobordism` adds the R1 moves for kinks on the sides.
"""

from __future__ import annotations

from functools import cache

from .cube import (CochainElement, Generator, Piece, _bigon_reduction, _negated, _piece_op,
                   apply_linear, koszul_to_front)
from .diagram import SMOOTHING_JOINS, LinkDiagram, transfer
from .errors import MoveError


def _sides(d: LinkDiagram, tri: set[int]) -> list[tuple]:
    """Every strand segment from one triangle crossing to another, across R1 kinks.

    Each is (start position, start slot, end position, end slot, its arcs in
    order, the positions of its kinks), oriented along the strand.
    """
    out, ends = [], d.ends
    for first, ((p, slot), (q, t)) in ends.items():
        if p not in tri:
            continue
        arcs, kinks = [first], []
        while q not in tri:
            c = d.crossings[q].arcs
            loop = [s for s in range(4) if c.count(c[s]) == 2]
            if len(loop) != 2 or t in loop:
                break
            kinks.append(q)  # an R1 kink: leave it by its fourth slot, past the loop
            arcs.append(c[6 - t - sum(loop)])
            q, t = ends[arcs[-1]][1]
        if q in tri and q != p:
            out.append((p, slot, q, t, arcs, kinks))
    return out


def triangle(d: LinkDiagram, cids) -> tuple[list[tuple], dict[str, int]]:
    """The braid-like triangle face on three crossings: its sides and roles.

    A side may pass R1 kinks, which the move carries along; two bare arcs
    joining one pair of crossings are refused as ambiguous.  Roles: "top",
    "middle" and "bottom" are the first arcs of the sides that pass over at
    two, one and none of their ends, "c" the position of the crossing off
    the top strand.
    """
    tri = {d.crossing_by_id(c)[0] for c in cids}
    if len(tri) != 3:
        raise MoveError("r3 needs three distinct crossings")
    by_pair: dict[frozenset, list[tuple]] = {}
    for side in _sides(d, tri):
        by_pair.setdefault(frozenset((side[0], side[2])), []).append(side)
    if len(by_pair) != 3 or any(sum(not side[5] for side in v) > 1 for v in by_pair.values()):
        raise MoveError("the three crossings do not form a triangle")

    # the face: one side of each pair and the kinks on them bound it, nothing else
    table = d.faces()
    side_of = {a: (pair, k) for pair, v in by_pair.items()
               for k, (*_, arcs, kinks) in enumerate(v)
               for a in [*arcs, *(a for q in kinks for a in d.crossings[q].arcs)]}
    around: dict[tuple, set] = {}
    for on in (table.right, table.left):
        for a, f in on.items():
            around.setdefault(f, set()).add(side_of.get(a))
    faces = [v for v in around.values() if None not in v and len(dict(v)) == 3 == len(v)]
    if len(faces) != 1:
        raise MoveError("the three crossings do not bound a triangle face")
    sides = [by_pair[pair][k] for pair, k in faces[0]]
    by_level = {(side[1] % 2) + (side[3] % 2): side for side in sides}
    if sorted(by_level) != [0, 1, 2]:
        raise MoveError("triangle is not braid-like (no top/middle/bottom strand)")
    (c,) = tri - {by_level[2][0], by_level[2][2]}
    roles = {"c": c, **{k: by_level[n][4][0] for n, k in enumerate(("bottom", "middle", "top"))}}
    return sorted(sides, key=lambda side: side[4][0]), roles


def _closing_bits(d: LinkDiagram, positions, inner: set[int]) -> int:
    """The smoothings (bits at `positions`) that close the triangle into a circle."""
    bits = 0
    for p in positions:
        slots = {s for s, a in enumerate(d.crossings[p].arcs) if a in inner}
        bits |= next(bit for bit, joins in SMOOTHING_JOINS.items() if slots in map(set, joins)) << p
    return bits


def triangle_map(src, tgt, positions, c: int, inner: set[int], tgt_inner: set[int]):
    """Bar-Natan's R3 map on a bare triangle (math/0410495, section 4.3).

    Smoothing c, the crossing off the top strand, splits each cube into
    faces A and B.  On B, c joins two sides into an R2 bigon with the top
    strand, reduced by (f, g, h) to the same diagram on both sides; A is the
    same tangle on both sides with the bigon crossings exchanged (a -> a',
    with the exchange's Koszul sign, negated when B is the 1-face: the sign
    that makes f Psi = f' Psi', Psi the signed edge along c).  The cone lemma
    gives a -> a' - h'(Psi' a'), b -> g'(f b) when B is the 1-face, and
    a -> a', b -> g'(f b) - (Psi h b)' when it is the 0-face.
    """
    # the target's triangle sits in the opposite quadrants: the same smoothings close it
    close = _closing_bits(src.diagram, positions, inner)
    bc = 1 << c
    b_face = close & bc
    z = close & ~bc  # the bigon crossing 1-smoothed on the circle slice
    w = sum(1 << p for p in positions) & ~bc & ~z
    zi, wi = z.bit_length() - 1, w.bit_length() - 1
    hints = {a: () for a in inner}

    @cache
    def carry_pieces(mask: int) -> tuple[Piece, ...]:
        tgt_mask, sign = mask, 1
        if mask & bc != b_face:
            tgt_mask = mask & ~(z | w) | (z if mask & w else 0) | (w if mask & z else 0)
            sign = koszul_to_front(mask, (zi, wi), src.n)[1]
            sign *= koszul_to_front(tgt_mask, (wi, zi), src.n)[1] * (-1 if b_face else 1)
        plan = transfer(src.circles(mask), tgt.circles(tgt_mask), hints)
        if plan.merge is not None or plan.split is not None or plan.new or plan.dead:
            raise MoveError("the r3 rewrite changed the circles of a resolution")
        return (Piece(tgt_mask, sign, plan),)

    carry = _piece_op(tgt, carry_pieces)
    f_src, _, h_src = _bigon_reduction(src, inner, zi, wi)
    _, g_tgt, h_tgt = _bigon_reduction(tgt, tgt_inner, zi, wi)
    psi_src = _piece_op(src, lambda mask: (src.edge(mask, c),))
    psi_tgt = _piece_op(tgt, lambda mask: (tgt.edge(mask, c),))

    def fn(g: Generator) -> CochainElement:
        if g.mask & bc != b_face:  # face A
            image = list(carry(g))
            if b_face:
                image += _negated(apply_linear(image, psi_tgt, h_tgt))
        else:  # face B: f onto the through slice, carried over, then g'
            image = list(apply_linear(f_src(g), carry, g_tgt).items())
            if not b_face:
                image += _negated(apply_linear(h_src(g), psi_src, carry))
        return CochainElement(tgt, apply_linear(image))

    return fn
