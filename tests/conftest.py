import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import khoval.cube
from khoval.corpus import corpus_diagrams
from khoval.diagram import resolve


@pytest.fixture(scope="session")
def corpus():
    return corpus_diagrams()


@pytest.fixture
def resolve_calls(monkeypatch):
    """A one-element list counting the resolutions cubes compute."""
    calls = [0]

    def counting(d, v):
        calls[0] += 1
        return resolve(d, v)

    monkeypatch.setattr(khoval.cube, "resolve", counting)
    return calls
