"""Each still built in one pass, against the two-pass constructor and linear scans."""

import random
import re

import pytest
from hypothesis import given, settings

from khoval.diagram import Crossing, LinkDiagram
from khoval.errors import KhovalError, MoveError
from khoval.moves import apply_esi_info

from make_rewrite_digest import instances
from oracles import two_pass_diagram
from test_hardening import random_movies


def assert_one_pass_matches(d: LinkDiagram, label) -> None:
    """`d`'s tables against the two-pass constructor's, and its lookups against linear scans."""
    far, ends, signs, raw, arc_ids = two_pass_diagram(
        [(c.cid, list(c.arcs)) for c in d.crossings], d.loops)
    assert d.far == far, label
    assert list(d.ends.items()) == list(ends.items()), label  # in the walk's order
    assert [c.sign for c in d.crossings] == signs, label
    assert (d.n_plus, d.n_minus) == (signs.count(1), signs.count(-1)), label
    assert [(c.cid, c.arcs) for c in d.crossings] == raw, label
    assert all(type(c) is Crossing and type(c.arcs) is tuple for c in d.crossings), label
    assert d.arc_ids() == arc_ids, label
    assert d.max_arc_id() == max(arc_ids, default=0), label
    assert d.max_crossing_id() == max((c.cid for c in d.crossings), default=0), label
    for i, c in enumerate(d.crossings):
        assert d.crossing_by_id(c.cid) == (i, c), label
    for a in [*arc_ids, 0, d.max_arc_id() + 1]:
        expected = next((k for k, lp in enumerate(d.loops) if a in lp), None)
        assert d.loop_of_arc(a) == expected, (label, a)
    for cid in (0, d.max_crossing_id() + 1):
        with pytest.raises(MoveError, match=f"no crossing with id {cid}$"):
            d.crossing_by_id(cid)


def test_corpus_stills_match_the_two_pass_constructor(corpus):
    for name, d in corpus.items():
        assert_one_pass_matches(d, name)


def test_rewrite_digest_stills_match_the_two_pass_constructor():
    stills = 0
    for name, d, events in instances():
        assert_one_pass_matches(d, name)
        for k, event in enumerate(events):
            d = apply_esi_info(d, event)[0]
            assert_one_pass_matches(d, (name, k + 1))
            stills += 1
    assert stills > 300


@given(random_movies())
@settings(max_examples=25, deadline=None)
def test_random_movie_stills_match_the_two_pass_constructor(m):
    for k, still in enumerate(m.stills()):
        assert_one_pass_matches(still, k)


def _outcome(build, crossings, loops):
    """What `build` gives: its error's type and message, or the diagram's tables."""
    try:
        d = build(crossings, loops)
    except KhovalError as exc:
        return type(exc), str(exc)
    if isinstance(d, LinkDiagram):
        return (d.far, list(d.ends.items()), [c.sign for c in d.crossings],
                [(c.cid, c.arcs) for c in d.crossings], d.arc_ids())
    far, ends, signs, raw, arc_ids = d
    return far, list(ends.items()), signs, raw, arc_ids


@pytest.mark.parametrize("crossings, loops", [
    ([(1, (1, 2, 3, 4))], []),
    ([(1, (1, 1, 1, 2)), (2, (2, 3, 3, 4))], []),
    ([(1, (1, 2, 2, 1)), (2, (3, 3, 4, 4)), (3, (5, 5, 6, 6))], [(7, 6)]),
    ([], [(1, 2), (3, 1)]),
    ([(1, (1, 3, 2, 4)), (2, (1, 4, 2, 3))], []),
], ids=["arc seen once", "arc seen three times", "crossing arc on a loop", "loop arc reused",
        "strand enters by slot 2"])
def test_malformed_codes_are_refused_as_the_two_pass_constructor_refuses(crossings, loops):
    kind, message = _outcome(two_pass_diagram, crossings, loops)
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as got:
        LinkDiagram(crossings, loops)
    assert type(got.value) is kind


def test_random_codes_get_the_two_pass_outcome():
    # each arc twice, shuffled, at times with one slot or crossing id spoiled:
    # most codes are refused, by the arc counts or the strand walk
    rng = random.Random(36)
    refused = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        arcs = [a for a in range(1, 2 * n + 1) for _ in (0, 1)]
        rng.shuffle(arcs)
        if rng.random() < 0.3:
            arcs[rng.randrange(4 * n)] = rng.randint(0, 2 * n + 1)
        cids = [rng.randint(1, n) if rng.random() < 0.1 else i + 1 for i in range(n)]
        crossings = [(cid, arcs[4 * i:4 * i + 4]) for i, cid in enumerate(cids)]
        loops = [(2 * n + 2 * k + 1, rng.choice([2 * n + 2 * k + 2, rng.randint(1, 2 * n + 2)]))
                 for k in range(rng.randint(0, 2))]
        expected = _outcome(two_pass_diagram, crossings, loops)
        assert _outcome(LinkDiagram, crossings, loops) == expected, (crossings, loops)
        refused += len(expected) == 2
    assert 0 < refused < 3000
