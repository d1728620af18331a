"""The seven value types are named tuples that keep the dataclass contract.

Each keeps its field names, order and defaults, its repr, equality of equal
values with equal hashes, and immutability.  `ESI` checks its ids on every
path that makes one, and `MoveInfo` gives each instance its own lists and
dict.
"""

import pytest

from khoval.cobordism import MovieReport
from khoval.cube import CheckReport
from khoval.diagram import Crossing, LinkDiagram, Transfer
from khoval.errors import ParseError
from khoval.homology import HomologyGroup
from khoval.moves import ESI, MoveInfo, apply_esi_info

# (a factory making one value afresh, its repr as the dataclasses printed it)
VALUES = [
    (lambda: Crossing(1, (1, 4, 2, 5), 1), "Crossing(cid=1, arcs=(1, 4, 2, 5), sign=1)"),
    (lambda: Transfer(((0, 1),), ((1, 2), 0), None, (3,), (), 2),
     "Transfer(copies=((0, 1),), merge=((1, 2), 0), split=None, dead=(3,), new=(), count=2)"),
    (lambda: ESI("saddle", arcs=(1, 3)),
     "ESI(kind='saddle', variant=None, arc=None, arcs=(1, 3), crossing=None, crossings=None,"
     " circle=None)"),
    (lambda: ESI("r1", variant="remove", crossing=2),
     "ESI(kind='r1', variant='remove', arc=None, arcs=None, crossing=2, crossings=None,"
     " circle=None)"),
    (lambda: MoveInfo("r2", "add", {1: 5}, created_arcs=[5, 6], pieces={"u1": 5}),
     "MoveInfo(kind='r2', variant='add', arc_map={1: 5}, created_arcs=[5, 6],"
     " created_crossings=[], victim_arcs=(), loop_arc=None, strand_arc=None, positive=None,"
     " positions=(), pieces={'u1': 5}, kinks=())"),
    (lambda: MoveInfo("birth", None, {}),
     "MoveInfo(kind='birth', variant=None, arc_map={}, created_arcs=[], created_crossings=[],"
     " victim_arcs=(), loop_arc=None, strand_arc=None, positive=None, positions=(), pieces={},"
     " kinks=())"),
    (lambda: CheckReport(True), "CheckReport(ok=True, detail='')"),
    (lambda: MovieReport(False, 2, "no arc"), "MovieReport(ok=False, index=2, reason='no arc')"),
    (lambda: HomologyGroup(1, (2,)), "HomologyGroup(free_rank=1, torsion=(2,))"),
]
IDS = [want.split("(")[0] + str(k) for k, (_, want) in enumerate(VALUES)]


@pytest.mark.parametrize("make, want", VALUES, ids=IDS)
def test_repr_is_the_dataclass_repr(make, want):
    assert repr(make()) == want


@pytest.mark.parametrize("make, want", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(make, want):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if isinstance(a, MoveInfo):  # its lists and dicts make it unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("make, want", VALUES, ids=IDS)
def test_values_are_immutable(make, want):
    value = make()
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict either
    assert repr(value) == want


def test_values_differ_by_field():
    assert HomologyGroup(1) != HomologyGroup(1, (2,))
    assert ESI("death", circle=1) != ESI("death", circle=2)
    assert hash(ESI("death", circle=1)) != hash(ESI("death", circle=2))
    assert MoveInfo("birth", None, {}) != MoveInfo("birth", None, {}, created_arcs=[1])


def _message(make):
    with pytest.raises(ParseError) as info:
        make()
    return str(info.value)


# (keywords of a malformed event, the id field its form reads, the same
# event as JSON, or None where JSON cannot say it: a stray key is refused by
# name, and JSON's lists become tuples)
MALFORMED = [
    ({"kind": "death", "arc": 3}, "circle", None),  # a stray id field
    ({"kind": "death", "circle": True}, "circle", {"op": "death", "circle": True}),  # a bool
    ({"kind": "death"}, "circle", {"op": "death"}),  # a missing id field
    ({"kind": "saddle", "arcs": [1, 2]}, "arcs", None),  # a list, not a tuple
    ({"kind": "saddle", "arcs": (1,)}, "arcs", {"op": "saddle", "arcs": [1]}),  # too few ids
    ({"kind": "r2", "variant": "add", "arcs": (1, 2), "circle": 3}, "arcs", None),  # two fields
]


@pytest.mark.parametrize("keywords, field, obj", MALFORMED, ids=[str(k) for k, _, _ in MALFORMED])
def test_a_malformed_event_is_refused_on_every_path_that_makes_one(keywords, field, obj):
    want = _message(lambda: ESI(**keywords))
    assert want.startswith("malformed movie event ESI(kind=")
    assert want.endswith(f"integer ids in {field!r}")
    values = [keywords.get(name, ESI._field_defaults.get(name)) for name in ESI._fields]
    assert _message(lambda: ESI(*values)) == want
    assert _message(lambda: ESI._make(values)) == want
    # the same fields reached from a well-formed event by the checked replace
    assert _message(lambda: ESI("birth")._replace(**keywords)) == want
    if obj is not None:
        assert _message(lambda: ESI.from_json(obj)) == want


def test_renamed_and_replace_check_the_new_ids():
    death, saddle = ESI("death", circle=1), ESI("saddle", arcs=(1, 2))
    want = ("malformed movie event ESI(kind='death', variant=None, arc=None, arcs=None,"
            " crossing=None, crossings=None, circle=True): it takes 1 integer ids in 'circle'")
    assert _message(lambda: death.renamed({1: True}, {})) == want
    assert _message(lambda: death._replace(circle=True)) == want
    assert _message(lambda: ESI.from_json({"op": "death", "circle": True})) == want
    floated = _message(lambda: saddle.renamed({1: 3, 2: 3.0}, {}))
    assert floated.endswith("arcs=(3, 3.0), crossing=None, crossings=None, circle=None): it takes 2"
                            " integer ids in 'arcs'")
    assert _message(lambda: death._replace(kind="saddle")).endswith("2 integer ids in 'arcs'")
    assert death._replace(circle=4) == ESI("death", circle=4)
    assert saddle.renamed({1: 5, 2: 6}, {}).ids == (5, 6)


def test_move_infos_never_share_a_list_or_a_dict():
    made = [MoveInfo("birth", None, {}) for _ in range(2)]
    d = LinkDiagram()
    for _ in range(2):
        d, info = apply_esi_info(d, ESI("birth"))
        made.append(info)
    containers = [getattr(info, name) for info in made
                  for name in ("arc_map", "created_arcs", "created_crossings", "pieces")]
    assert len({id(c) for c in containers}) == len(containers)
    for info in made:
        assert (type(info.created_arcs), type(info.created_crossings), type(info.pieces)) == \
            (list, list, dict)
    given = [7]
    assert MoveInfo("birth", None, {}, created_arcs=given).created_arcs is given
