"""Regenerate `tests/data/cli_golden.json` from the current program.

Run `PYTHONPATH=src python tests/make_cli_golden.py`; it writes one
{"argv", "code", "stdout"} record per command of `golden_commands`.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
THEORIES = ("bar-natan", "khovanov", "lee")

sys.path.insert(0, str(ROOT / "tests"))

from khoval.cli import main  # noqa: E402
from khoval.cobordism import (  # noqa: E402
    Movie,
    movie_from_json,
    movie_to_json,
    punctured_from_empty,
    punctured_to_empty,
)
from khoval.corpus import PD_CODES, torus2_pd  # noqa: E402
from test_cobordism import kink_to_empty, kinked_detour_movie  # noqa: E402


# the torus with an R2 pair removed from behind a kink, at crossing positions (1, 2)
TORUS_R2_BEHIND_A_KINK = movie_from_json({"movie": [
    {"op": "birth"},
    {"op": "saddle", "arcs": [1, 2]},
    {"op": "r2", "variant": "add", "arcs": [3, 4]},
    {"op": "r1", "variant": "add_pos", "arc": 7},
    {"op": "r2", "variant": "remove", "crossings": [1, 2]},
    {"op": "r1", "variant": "remove", "crossing": 3},
    {"op": "saddle", "arcs": [12, 15]},
    {"op": "death", "circle": 13},
]})


def _inline(m: Movie) -> str:
    return json.dumps(movie_to_json(m), sort_keys=True)


def golden_commands() -> list[list[str]]:
    """The commands the golden file records."""
    cmds = []
    for code in list(PD_CODES.values()) + [torus2_pd(5), torus2_pd(7)]:
        for th in ("khovanov", "lee"):
            cmds.append(["homology", code, "--theory", th, "--format", "json"])
    movies = [str(p.relative_to(ROOT)) for p in sorted((ROOT / "movies").glob("*.json"))]
    movies += [_inline(kinked_detour_movie(1, 6)), _inline(kinked_detour_movie(3, 4)),
               _inline(TORUS_R2_BEHIND_A_KINK)]
    for movie in movies:
        cmds.append(["movie", movie, "--format", "json"])
        cmds.append(["movie", movie, "--theory", "khovanov", "--format", "json"])
        cmds.append(["movie", movie, "--theory", "lee", "--format", "json"])
    for th in THEORIES:
        for m in [punctured_to_empty(g) for g in range(4)] + [kink_to_empty()]:
            for label in ("v+", "v-"):
                cmds.append(["movie", _inline(m), "--punctured", "--label", label,
                             "--theory", th, "--format", "json"])
        for g in range(4):
            cmds.append(["movie", _inline(punctured_from_empty(g)), "--punctured",
                         "--theory", th, "--format", "json"])
    cmds.append(["verify"])
    return cmds


def write_golden() -> None:
    os.chdir(ROOT)
    records = []
    for argv in golden_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        records.append({"argv": argv, "code": code, "stdout": out.getvalue()})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    write_golden()
