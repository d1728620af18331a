"""Print every still and move record of a fixed set of movies, one line per event.

The movies are the files under `movies/`, `canonical_movies()`, the kinked
detour movies at genus 1-3 with 0-4 kinks, the twelve kink placements of
the R3 benchmark triangle (the braid closure, its two R1 kinks, then the
triangle move), the single moves of `move_instances`, and the punctured
`kink_to_empty`, which kinks and unkinks a crossing-free circle.  Each line
is `instance | event k | still | loops | signs | faces | fields`: the still is
`serialize_pd` of the rewritten diagram, the loops its crossing-free circles
with their arc ids, the signs its crossings' signs in crossing order, the
faces each face as (the sorted arcs that have it on their right, the sorted
arcs that have it on their left), sorted, since a face's name is one of its
darts and may change with the walk that finds it, and the fields every
`MoveInfo` field in declaration order (a dict as its sorted items, since
nothing reads its order).
`tests/data/rewrite_digest.txt` holds the sha256 of this output; when the
rewrites are meant to change, regenerate it with

    PYTHONPATH=src python tests/make_rewrite_digest.py | sha256sum | cut -d' ' -f1 > tests/data/rewrite_digest.txt

and say why in the change.
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from khoval.cobordism import canonical_movies, movie_from_json  # noqa: E402
from khoval.corpus import PD_CODES  # noqa: E402
from khoval.diagram import LinkDiagram, parse_pd, serialize_pd  # noqa: E402
from khoval.moves import ESI, apply_esi_info  # noqa: E402
from test_cobordism import (  # noqa: E402
    BRAID_R3,
    kink_to_empty,
    kinked_detour_movie,
    move_instances,
)

# the arcs from crossing 1 to crossing 3 that the r3 benchmark puts its two kinks on
KINK_ARCS = (1, 2, 4)


def instances():
    """(name, initial diagram, events) of every movie the digest replays."""
    for path in sorted((ROOT / "movies").glob("*.json")):
        m = movie_from_json(json.loads(path.read_text()))
        yield f"file {path.name}", m.initial_diagram(), m.events
    for name, m in canonical_movies().items():
        yield f"canonical {name}", m.initial_diagram(), m.events
    for genus, kinks in itertools.product(range(1, 4), range(5)):
        yield f"detour({genus},{kinks})", LinkDiagram(), kinked_detour_movie(genus, kinks).events
    for arcs in itertools.permutations(KINK_ARCS, 2):
        for variants in (("add_pos", "add_neg"), ("add_neg", "add_pos")):
            kinks = [ESI("r1", variant=v, arc=a) for a, v in zip(arcs, variants)]
            yield f"r3 {arcs} {variants}", parse_pd(PD_CODES["braid_closure"]), [*kinks, BRAID_R3]
    for name, d, event in move_instances():
        yield name, d, [event]
    yield "kink to empty", kink_to_empty().initial_diagram(), kink_to_empty().events


def _sorted(value):
    return sorted(value.items()) if isinstance(value, dict) else value


def _faces(d):
    """Each face of `d` as (arcs with it on their right, arcs with it on their left)."""
    table = d.faces()
    sides: dict = {}
    for k, on in enumerate((table.right, table.left)):
        for a, f in on.items():
            sides.setdefault(f, ([], []))[k].append(a)
    return sorted((sorted(r), sorted(l)) for r, l in sides.values())


def rewrite_lines():
    """Every rewrite, as `instance | event k | still | loops | signs | faces | fields`."""
    for name, d, events in instances():
        for k, event in enumerate(events):
            d, info = apply_esi_info(d, event)
            fields = " ".join(
                f"{f.name}={_sorted(getattr(info, f.name))!r}" for f in dataclasses.fields(info)
            )
            signs = [c.sign for c in d.crossings]
            yield (f"{name} | event {k + 1} | {serialize_pd(d)} | {d.loops} | {signs}"
                   f" | {_faces(d)} | {fields}")


if __name__ == "__main__":
    for line in rewrite_lines():
        print(line)
