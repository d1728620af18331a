"""Print every chain-map image of a fixed set of move instances, one line each.

The instances are the moves of `move_instances`, an R2 removal whose pair
sits behind a kink, every event of two kinked detour movies, and the twelve
kink placements of the R3 benchmark triangle in both directions of
`r3_equivalence`.  A movie event gives the images of the generators its
evaluation reaches, every other instance the image of each generator of its
source cube.  Each line is `instance | theory | generator -> image`.
`tests/data/map_digest.txt` holds the sha256 of this output; when the maps
are meant to change, regenerate it with

    PYTHONPATH=src python tests/make_map_digest.py | sha256sum | cut -d' ' -f1 > tests/data/map_digest.txt

and say why in the change.
"""

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from khoval.algebra import Theory  # noqa: E402
from khoval.cobordism import esi_chain_map, r3_equivalence  # noqa: E402
from khoval.cube import Generator, build_cube  # noqa: E402
from khoval.moves import apply_esi  # noqa: E402
from test_cobordism import (  # noqa: E402
    BRAID_R3,
    braid_kinked_on,
    kinked_detour_movie,
    move_instances,
    removal_behind_a_kink,
)

# the arcs from crossing 1 to crossing 3 that the r3 benchmark puts its two kinks on
KINK_ARCS = (1, 2, 4)


def map_lines():
    """Every image, as `instance | theory | generator -> image`."""
    for th in Theory:
        behind = ("r2 rm behind a kink", *removal_behind_a_kink())
        for name, d, event in [*move_instances(), behind]:
            src, tgt = build_cube(d, th), build_cube(apply_esi(d, event), th)
            f = esi_chain_map(event, src, tgt, th)
            for g in src.generators():
                yield f"{name} | {th.value} | {g} -> {f.of_generator(g)}"
        for genus, kinks in ((1, 6), (3, 4)):
            movie = kinked_detour_movie(genus, kinks)
            stills = movie.stills()
            x = build_cube(stills[0], th).basis_element(Generator(0, ()))
            for k, (event, still) in enumerate(zip(movie.events, stills[1:])):
                f = esi_chain_map(event, x.cube, build_cube(still, th), th)
                name = f"detour({genus},{kinks}) event {k + 1}"
                for g in sorted(x.terms):
                    yield f"{name} | {th.value} | {g} -> {f.of_generator(g)}"
                x = f.apply(x)
        for arcs in itertools.permutations(KINK_ARCS, 2):
            for variants in (("add_pos", "add_neg"), ("add_neg", "add_pos")):
                d = braid_kinked_on(arcs, variants)
                src, tgt = build_cube(d, th), build_cube(apply_esi(d, BRAID_R3), th)
                for way, rep in zip(("fwd", "bwd"), r3_equivalence(BRAID_R3, src, tgt)):
                    name = f"r3 {arcs} {variants} {way}"
                    for g in rep.source.generators():
                        yield f"{name} | {th.value} | {g} -> {rep.of_generator(g)}"


if __name__ == "__main__":
    for line in map_lines():
        print(line)
