"""Chain-map images and move rewrites against their digests in `tests/data/`."""

import hashlib
from pathlib import Path

from make_map_digest import map_lines
from make_rewrite_digest import rewrite_lines

DATA = Path(__file__).resolve().parent / "data"


def _digest(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def test_chain_map_images_match_the_digest():
    assert _digest(map_lines()) == (DATA / "map_digest.txt").read_text().strip()


def test_rewrites_match_the_digest():
    assert _digest(rewrite_lines()) == (DATA / "rewrite_digest.txt").read_text().strip()
