"""Every chain-map image of `make_map_digest` against `tests/data/map_digest.txt`."""

import hashlib
from pathlib import Path

from make_map_digest import map_lines

DIGEST = Path(__file__).resolve().parent / "data" / "map_digest.txt"


def test_chain_map_images_match_the_digest():
    text = "".join(line + "\n" for line in map_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST.read_text().strip()
