"""The report writers against independent renderings.  `json_text` against
the standard library's `json.dumps(obj, sort_keys=True, indent=2)` (the
oracle in oracles.py): the same text on nested report values and on the
report of every golden command, and on bools among ints; the same
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
from factorbench.core import json_text
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


def _containers(kids):
    return st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.lists(STRINGS, max_size=4),
        st.dictionaries(STRINGS, kids, max_size=4),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_nested_values_match_the_stdlib(obj):
    assert json_text(obj) == stdlib_json_text(obj)


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


class Row(list):
    pass


@pytest.mark.parametrize("obj", [[True, 1, 0]], ids=["bools-and-ints"])
def test_subclasses_and_bools_match_the_stdlib(obj):
    # bools subclass int, but the list path joins exact ints only, so each
    # bool takes the writer's True/False checks
    assert json_text(obj) == stdlib_json_text(obj)


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
    ],
    ids=[
        "float", "nan", "inf", "-inf", "float-in-list",
        "int-key", "float-key", "bool-key", "none-key", "intenum-key",
        "ordered-dict", "list-subclass", "str-subclass", "intenum",
    ],
)
def test_json_text_refuses_what_reports_never_hold(obj):
    stdlib_json_text(obj)  # json encodes each of these
    with pytest.raises(TypeError):
        json_text(obj)
