"""The report writers against independent renderings.  `json_text` against
the standard library's `json.dumps(obj, sort_keys=True, indent=2)` (the
oracle in oracles.py): the same text on nested report values and on the
report of every golden command, on bools among ints, on int lists at both
edges of the writer's table of small-int texts, and on lists of
records (dicts with one key set) whose dict values are shared, within one
list, across lists at other depths and outside any list; the same
TypeError on what json cannot encode, and a TypeError on what json encodes
but no report holds: floats, non-str keys, and values whose type subclasses
dict, list, str or int (an IntEnum), since the writer takes exact built-in
types only.  The `--format text` renderer against `nested_text`, the
renderer it replaced, on the report of every golden command."""

import math
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import cli
from factorbench.cli import main
from factorbench.core import _INT_TEXT, json_text
from oracles import nested_text, stdlib_json_text
from test_golden import FILE_INPUTS, GOLDEN


class Level(IntEnum):
    LOW = -3
    HIGH = 10**30


STRINGS = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€ \ud800😀')),
)
NUMBERS = st.one_of(
    st.integers(),
    st.sampled_from([10**30, -(10**30), 0, -1]),
)
# What a report or a Cayley file holds: str keys; str, int, bool and None leaves.
LEAVES = st.one_of(STRINGS, NUMBERS, st.booleans(), st.none())


@st.composite
def _records(draw, kids):
    """A list of dicts with one key set, each dict's keys inserted in its own
    order, so the writer takes its records path."""
    keys = draw(st.lists(STRINGS, min_size=1, max_size=4, unique=True))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(keys))
        out.append({k: draw(kids) for k in order})
    return out


def _containers(kids):
    return st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.lists(STRINGS, max_size=4),
        st.dictionaries(STRINGS, kids, max_size=4),
        _records(kids),
        st.lists(st.builds(dict), min_size=1, max_size=3),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_nested_values_match_the_stdlib(obj):
    assert json_text(obj) == stdlib_json_text(obj)


@st.composite
def _aliased_reports(draw):
    """One dict object held by several records of one list, by records of a
    second list two levels deeper, and elsewhere in the report: as a plain
    value and as an item of a list that is not records."""
    shared = draw(st.dictionaries(STRINGS, VALUES, min_size=1, max_size=3))
    keys = draw(st.lists(STRINGS, min_size=1, max_size=3, unique=True))

    def records():
        return [
            {k: shared if draw(st.booleans()) else draw(VALUES) for k in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(1, 4)))
        ]

    return {
        "top": records(),
        "deeper": {"rows": [{"inner": records(), "n": 1}, {"inner": [], "n": 2}]},
        "plain": shared,
        "mixed": [shared, 0, shared],
    }


@settings(max_examples=150, deadline=None)
@given(_aliased_reports())
def test_aliased_record_values_match_the_stdlib(report):
    assert json_text(report) == stdlib_json_text(report)


def test_records_share_text_only_at_one_depth():
    # the same dict as a field of records at three indents, and a records
    # list whose dicts are all one object
    shared = {"b": [1, {"c": None}], "a": "x"}
    row = {"lengths": shared, "element": "g"}
    report = {"elements": [row, {"element": "h", "lengths": shared}],
              "nested": [{"elements": [row, row]}], "shared": shared, "same": [row, row, row]}
    assert json_text(report) == stdlib_json_text(report)
    assert json_text([{}, {}, {}]) == stdlib_json_text([{}, {}, {}]) == "[\n  {},\n  {},\n  {}\n]"


@pytest.mark.parametrize(
    "rows",
    [
        [{"a": 1}, {"a": 2, "b": 3}],
        [{"a": 1, "b": 2}, {"b": 3}],
        [{"a": 1}, {"b": 2}],
        [{"a": 1}, {}],
        [{}, {"a": 1}],
        [{"a": 1, "b": 2}, {"b": 3, "a": 4}, {"a": 5, "c": 6}],
    ],
    ids=["superset", "subset", "disjoint", "empty-last", "empty-first", "last-differs"],
)
def test_dicts_with_other_key_sets_are_not_records(rows):
    # only a list whose dicts all hold the first dict's keys is written as
    # records; any other list of dicts writes each dict with its own keys
    assert json_text(rows) == stdlib_json_text(rows)


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_reports_match_the_stdlib(command, tmp_path, capsys, monkeypatch):
    argv = command.split()
    for i, arg in enumerate(argv):
        if arg in FILE_INPUTS:
            path = tmp_path / "input"
            path.write_text(FILE_INPUTS[arg](), encoding="utf-8")
            argv[i] = str(path)
    reports = []
    monkeypatch.setattr(cli, "json_text", lambda obj: reports.append(obj) or json_text(obj))
    assert main(argv) == 0
    [report] = reports
    assert capsys.readouterr().out == stdlib_json_text(report) + "\n"


def test_golden_text_reports_match_the_oracle(tmp_path, capsys, monkeypatch):
    reports = []
    render = cli._render_text

    def spy(data, indent=0):
        if indent == 0:
            reports.append(data)
        return render(data, indent)

    monkeypatch.setattr(cli, "_render_text", spy)
    for command in GOLDEN:
        argv = command.split() + ["--format", "text"]
        for i, arg in enumerate(argv):
            if arg in FILE_INPUTS:
                path = tmp_path / "input"
                path.write_text(FILE_INPUTS[arg](), encoding="utf-8")
                argv[i] = str(path)
        reports.clear()
        assert main(argv) == 0, command
        [report] = reports
        assert capsys.readouterr().out == nested_text(report) + "\n", command
    # The one divergence: an empty container inside a list, which the oracle
    # writes as a bare "-" and a blank line.  Report lists hold ints, strs,
    # non-empty dicts and two-letter adian edges, never an empty container.
    data = {"a": [[], {}]}
    assert render(data) == "a:\n  - []\n  - {}"
    assert nested_text(data) == "a:\n  -\n\n  -\n"


class Name(str):
    pass


SHARED_FLOAT = {"finite": [0], "period": 0.5}


class Row(list):
    pass


@pytest.mark.parametrize("obj", [[True, 1, 0]], ids=["bools-and-ints"])
def test_subclasses_and_bools_match_the_stdlib(obj):
    # bools subclass int, but the list path joins exact ints only, so each
    # bool takes the writer's True/False checks
    assert json_text(obj) == stdlib_json_text(obj)


LAST = max(_INT_TEXT)


@pytest.mark.parametrize(
    "obj",
    [
        [-1],
        [0],
        [LAST],
        [LAST + 1],
        [0, LAST, LAST + 1, -1, 0],
        [10**6, 3],
        [2, 2**70],
        [-(2**70), -LAST],
        [True, 0, LAST, LAST + 1, False, -1],
    ],
    ids=["minus-one", "zero", "last", "past-last", "both-sides", "million", "2**70", "negative",
         "bools-among-ints"],
)
def test_int_lists_match_the_stdlib_at_the_text_table_edges(obj):
    # ints from 0 to LAST take their text from a dict, every other int (-1
    # included, which a list would answer with its last entry) goes through
    # int.__repr__, and bools are not exact ints, so they bypass both
    assert -1 not in _INT_TEXT and LAST + 1 not in _INT_TEXT
    assert json_text(obj) == stdlib_json_text(obj)
    assert json_text({"counts": obj}) == stdlib_json_text({"counts": obj})


@pytest.mark.parametrize(
    "obj",
    [
        object(),
        [1, {"a": {1, 2}}],
        {"a": 1, 2: "b"},
        {None: 1, "a": 2},
        {(1, 2): 0},
        {"x": [0, 1.5, b"bytes"]},
    ],
    ids=["object", "set", "str-and-int-keys", "none-and-str-keys", "tuple-key", "bytes"],
)
def test_what_json_cannot_encode_raises_type_error(obj):
    with pytest.raises(TypeError):
        stdlib_json_text(obj)
    with pytest.raises(TypeError):
        json_text(obj)


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        math.nan,
        math.inf,
        -math.inf,
        [0, 2.5],
        {1: "a"},
        {1.5: "a"},
        {True: "a"},
        {None: "a"},
        {Level.LOW: "a"},
        OrderedDict([("b", [1, 2]), ("a", {"c": None})]),
        {"rows": Row([1, "a", Row([2])])},
        {Name("key"): Name("value"), "names": [Name("x"), "y"]},
        {"level": Level.HIGH, "levels": [1, Level.LOW, 2]},
        [{1: "a"}, {1: "b"}],
        [OrderedDict([("a", 1)]), OrderedDict([("a", 2)])],
        [{"a": 1}, OrderedDict([("a", 2)])],
        [{"lengths": SHARED_FLOAT, "x": 1}, {"x": 2, "lengths": SHARED_FLOAT}],
    ],
    ids=[
        "float", "nan", "inf", "-inf", "float-in-list",
        "int-key", "float-key", "bool-key", "none-key", "intenum-key",
        "ordered-dict", "list-subclass", "str-subclass", "intenum",
        "int-key-records", "ordered-dict-records", "ordered-dict-among-records",
        "float-in-shared-record-value",
    ],
)
def test_json_text_refuses_what_reports_never_hold(obj):
    stdlib_json_text(obj)  # json encodes each of these
    with pytest.raises(TypeError):
        json_text(obj)
