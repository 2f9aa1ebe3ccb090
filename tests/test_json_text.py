"""The report writer `json_text` against the standard library's
`json.dumps(obj, sort_keys=True, indent=2)` (the oracle in oracles.py): the
same text on nested values, on the report of every golden command, and the
same TypeError on what json cannot encode."""

import math
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbench import cli
from factorbench.cli import main
from factorbench.core import json_text
from oracles import stdlib_json_text
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
    st.sampled_from([10**30, -(10**30), 0, -1, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.sampled_from(Level),
)
LEAVES = st.one_of(STRINGS, NUMBERS, st.booleans(), st.none())
# Keys of one dict are all str, all None, or numbers and bools, which sort together.
NUMBER_KEYS = st.one_of(st.integers(), st.floats(), st.booleans(), st.sampled_from(Level))


def _containers(kids):
    return st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.lists(STRINGS, max_size=4),
        st.dictionaries(STRINGS, kids, max_size=4),
        st.dictionaries(NUMBER_KEYS, kids, max_size=4),
        st.dictionaries(st.none(), kids, max_size=1),
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
