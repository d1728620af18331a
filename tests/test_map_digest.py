"""Chain-map images and move rewrites against their digests in `tests/data/`."""

import hashlib
from collections import Counter
from pathlib import Path

import khoval.cobordism as cobordism
import khoval.cube as cube
import khoval.r3 as r3
from khoval.diagram import transfer
from khoval.moves import ESI

from make_map_digest import map_lines
from make_rewrite_digest import rewrite_lines
from oracles import transfer_multi

DATA = Path(__file__).resolve().parent / "data"


def _digest(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def test_chain_map_images_match_the_digest():
    assert _digest(map_lines()) == (DATA / "map_digest.txt").read_text().strip()


def test_rewrites_match_the_digest():
    assert _digest(rewrite_lines()) == (DATA / "rewrite_digest.txt").read_text().strip()


def test_single_image_hints_give_the_multi_image_plans(monkeypatch):
    """At every vertex the map-digest instances reach, `transfer` under one image per arc
    plans as the multi-image oracle does under the hints that name every image: each arc's
    image as a 1-tuple, () for an arc that dies, and for the addition that undoes an R3
    side kink's removal each fused arc to every arc fused into it."""
    undo = {}  # id of an undo addition's arc map -> (that map, its multi-image hints)
    plans = Counter()
    r1 = cobordism._r1

    def recording_r1(src, tgt, arc_map, kink_arc, strand_arc, positive, position, add):
        entry = None
        if add:
            kink = tgt.diagram.crossings[position].cid
            entry = tgt.diagram.maps.get(ESI("r1", variant="remove", crossing=kink))
        if entry is not None and entry.target is src.diagram:  # the bare still it left
            fused: dict[int, list[int]] = {}
            for old, new in entry.info.arc_map.items():
                fused.setdefault(new, []).append(old)
            undo[id(arc_map)] = arc_map, fused
        return r1(src, tgt, arc_map, kink_arc, strand_arc, positive, position, add)

    def checking(src, tgt, hints=None):
        plan = transfer(src, tgt, hints)
        if id(hints) in undo:
            plans["undo"] += 1
            multi = undo[id(hints)][1]
        else:
            plans["arc map" if hints else "none"] += 1
            multi = {a: () if b is None else (b,) for a, b in (hints or {}).items()}
        assert plan == transfer_multi(src, tgt, multi), (plan, multi)
        return plan

    monkeypatch.setattr(cobordism, "_r1", recording_r1)
    for module in (cobordism, cube, r3):
        monkeypatch.setattr(module, "transfer", checking)
    for _ in map_lines():
        pass
    # every kind of hint was met: the undo additions' fused arcs among them
    assert plans["undo"] and plans["arc map"] and plans["none"], plans
