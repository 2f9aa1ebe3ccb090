import builtins
import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorbench as fb
from factorbench import cli, corpus, factorization, presentations
from factorbench.cli import main
from factorbench.core import json_text
from factorbench.presentations import EMPTY_LITERAL
from conftest import run_python
from oracles import class_count_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_from_file(tmp_path, capsys, n3):
    path = tmp_path / "n3.json"
    fb.save_cayley(n3, path)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    body = report["report"]
    assert body["classifiers"] == {"atomic": True, "bf": False, "ff": False, "hf": False}
    assert body["kappa"] == 2
    assert body["atoms"] == ["a"]
    assert report["version"] == fb.__version__
    assert len(report["input_digest"]) == 64


def test_analyze_trivial(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--trivial")
    assert code == 0
    report = json.loads(out)
    assert report["input_digest"] == hashlib.sha256(b"trivial").hexdigest()
    body = report["report"]
    assert (body["size"], body["atoms"], body["units"], body["kappa"]) == (1, [], ["1"], 0)


def test_present_verify_exits_two_on_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(presentations, "_normal_form", lambda s: s[:1])
    code, out, err = run_cli(capsys, "present", "verify", "--family", "ladder", "--samples", "50")
    assert code == 2 and err == ""
    report = json.loads(out)["report"]
    assert report["ok"] is False and report["cancellation_failures"] > 0


def test_report_counts_are_the_counts_of_their_representatives(tmp_path, capsys):
    # Two reports with several atom classes that the golden digests do not cover.
    path = tmp_path / "pc6.json"
    fb.save_cayley(fb.build_reduced_power_monoid(fb.cyclic(6)), path)
    for argv in (["--in", str(path)], ["--null", "22"]):
        H = fb.load_cayley(path) if argv[0] == "--in" else fb.null_monoid(22)
        code, out, _ = run_cli(capsys, "analyze", *argv)
        assert code == 0
        checked = 0
        for entry in json.loads(out)["report"]["elements"]:
            for cls in entry["minimal_classes"]:
                text = cls["representative"]
                word = () if text == EMPTY_LITERAL else tuple(map(H.names.index, text.split("*")))
                expected = class_count_vector(H.atom_class_of, len(H.atom_classes), word)
                assert tuple(cls["counts"]) == expected, (argv, entry["element"], text)
                checked += 1
        assert checked > H.size, argv
        assert len(H.atom_classes) > 1, argv


def test_analyze_reads_the_cayley_file_once(tmp_path, capsys, monkeypatch, n3):
    # the input digest must describe the very bytes that were parsed
    path = tmp_path / "n3.json"
    fb.save_cayley(n3, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    real_open, opens = builtins.open, []

    def counting_open(file, *args, **kwargs):
        if file == str(path):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    assert len(opens) == 1
    assert json.loads(out)["input_digest"] == digest


def test_analyze_instance_flags(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--cyclic", "4")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["properties"]["group"] is True
    assert body["kappa"] == 0


def test_analyze_describes_each_distinct_length_set_once(capsys, monkeypatch):
    # a group's identity has the length set {0} and every other element the
    # empty set: two descriptions for 144 elements, and the 143 non-identity
    # elements share one lengths dict
    describe, described, reports = factorization.LengthSet.describe, [], []

    def counting_describe(self):
        described.append(self)
        return describe(self)

    monkeypatch.setattr(factorization.LengthSet, "describe", counting_describe)
    monkeypatch.setattr(cli, "json_text", lambda obj: reports.append(obj) or json_text(obj))
    code, out, _ = run_cli(capsys, "analyze", "--cyclic", "144")
    assert code == 0
    assert [ls.finite_part for ls in described] == [(0,), ()]
    assert all(ls.is_empty() for ls in described[1:])
    [report] = reports
    elements = report["report"]["elements"]
    assert len(elements) == 144
    assert len({id(e["lengths"]) for e in elements[1:]}) == 1
    assert elements[1]["lengths"] is not elements[0]["lengths"]
    assert json.loads(out)["report"]["elements"][143]["lengths"] == {
        "finite": [], "threshold": 0, "period": 0, "residues": [],
    }
    described.clear()
    code, _, _ = run_cli(capsys, "factorize", "g", "--cyclic", "144")
    assert code == 0 and len(described) == 1


def test_analyze_prints_every_field_of_the_flag_records(capsys):
    # the records hold exactly what the classifiers and factoriality blocks show
    code, out, _ = run_cli(capsys, "analyze", "--null", "1")
    assert code == 0
    body = json.loads(out)["report"]
    assert set(body["classifiers"]) == set(factorization.ArithmeticFlags._fields)
    assert set(body["factoriality"]) == set(factorization.FactorialFlags._fields)


def test_factorize(capsys):
    code, out, _ = run_cli(capsys, "factorize", "0", "--null", "1", "--max-len", "3")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["factorizations"] == ["a*a", "a*a*a"]
    assert body["lengths"]["period"] == 1


def test_powerset(capsys):
    code, out, _ = run_cli(capsys, "powerset", "--cyclic", "3")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["atomicity_criterion"] is True
    assert (body["kappa"], body["bound"], body["attains_bound"]) == (2, 2, True)
    assert body["reduced"] is True


def test_present_nf(capsys):
    code, out, _ = run_cli(
        capsys, "present", "nf", "y*x*y*z*w", "--family", "ladder"
    )
    assert code == 0
    assert json.loads(out)["report"]["normal_form"] == "x*z"


def test_present_congruent(capsys):
    code, out, _ = run_cli(
        capsys,
        "present",
        "congruent",
        "x",
        "y*x*y",
        "--family",
        "sandwich-power",
        "--n",
        "1",
    )
    assert code == 0
    body = json.loads(out)["report"]
    assert body["status"] == "equivalent"
    assert body["chain_length"] == 1


def test_present_lengths(capsys):
    code, out, _ = run_cli(
        capsys, "present", "lengths", "x*z", "--family", "ladder", "--max-len", "9"
    )
    assert code == 0
    body = json.loads(out)["report"]
    assert body["lengths"] == [2, 5, 8]
    assert body["complete"] is True


def test_present_verify(capsys):
    code, out, _ = run_cli(
        capsys,
        "present",
        "verify",
        "--family",
        "ladder",
        "--samples",
        "300",
        "--max-len",
        "8",
    )
    assert code == 0
    body = json.loads(out)["report"]
    assert body["ok"] is True and body["cancellation_failures"] == 0


def test_analyze_full_transformation(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--full-transformation", "2")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["size"] == 4


def test_present_from_file(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("gens: x y; rel: x*x = y*x*x*y")
    code, out, _ = run_cli(capsys, "present", "adian", "--in", str(path))
    assert code == 0
    assert json.loads(out)["report"]["is_adian"] is True


def test_ints_small(capsys):
    code, out, _ = run_cli(
        capsys, "ints", "--limit", "500", "--prime-bound", "30"
    )
    assert code == 0
    body = json.loads(out)["report"]
    assert body["ok"] is True and body["non_unique"] == []


def test_ints_reports_only_the_least_n_with_two_classes(capsys, monkeypatch):
    monkeypatch.setattr(cli, "integer_class_table", lambda limit: 12)
    code, out, _ = run_cli(capsys, "ints", "--limit", "30", "--prime-bound", "10")
    body = json.loads(out)["report"]
    assert code == 2 and body["non_unique"] == [12] and body["ok"] is False


def test_ints_prime_bound_above_limit(capsys):
    for argv in (["--limit", "10", "--prime-bound", "100"], ["--limit", "1"]):
        code, out, err = run_cli(capsys, "ints", *argv)
        assert code == 1 and out == "", argv
        assert "admits the prime 97, above --limit" in err, argv
    code, out, _ = run_cli(capsys, "ints", "--limit", "8", "--prime-bound", "10")
    assert code == 0 and json.loads(out)["report"]["primes_checked"] == 4


def test_ints_at_a_limit_beyond_the_all_pairs_scan(capsys):
    # 62 primes against 10^5 elements: the all-pairs scan would walk about
    # 1.2 million pairs for each of them
    code, out, _ = run_cli(capsys, "ints", "--limit", "100000", "--prime-bound", "300")
    body = json.loads(out)["report"]
    assert code == 0 and body["prime_failures"] == [] and body["primes_checked"] == 62


@pytest.mark.parametrize(
    "argv, command, leftovers",
    [
        (["present", "nf", "x*z", "y*y", "--family", "ladder"], "present nf", "y*y"),
        (["present", "verify", "--family", "ladder", "--budget", "5"], "present verify",
         "--budget 5"),
        (["ints", "--limit", "5", "extra"], "ints", "extra"),
        (["corpus", "--max-len", "2"], "corpus", "--max-len 2"),
    ],
)
def test_leftover_arguments_get_the_usage_of_their_command(capsys, argv, command, leftovers):
    # argparse hands a subparser's leftovers back to the top-level parser,
    # whose usage line names no command
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: factorbench {command} "), err
    assert err.endswith(f"factorbench {command}: error: unrecognized arguments: {leftovers}\n")


def test_corpus_scan(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--max-order", "2")
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True


def test_corpus_scans_every_table_of_order_four(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--max-order", "4")
    assert code == 0
    assert json.loads(out)["report"]["violations"] == []


def test_reports_are_byte_identical(tmp_path, capsys, n3):
    path = tmp_path / "n3.json"
    fb.save_cayley(n3, path)
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for target in (out_a, out_b):
        run_cli(capsys, "analyze", "--in", str(path), "--out", str(target))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_reports_identical_across_processes(tmp_path, n3):
    # different hash seeds must not leak set-iteration order into reports
    path = tmp_path / "n3.json"
    fb.save_cayley(n3, path)
    outputs = []
    for seed in ("1", "2"):
        proc = run_python("-m", "factorbench.cli", "analyze", "--in", str(path), PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_usage_errors_leave_the_shared_parser_as_built(tmp_path, capsys):
    # the parser is built once per process; after usage errors (exit 2) a
    # valid command must give the bytes a fresh process gives
    argv = ["present", "lengths", "x*x", "--family", "sandwich-power", "--max-len", "8"]
    for bad in (
        ["present", "lengths", "x*x", "--budget", "many"],
        ["present", "lengths", "x*x", "--family", "ladder", "--in", "p.txt"],
        ["present", "--max-len", "8"],
        ["present", "lengths", "x*x", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    fresh = run_python("-m", "factorbench.cli", *argv)
    assert fresh.returncode == 0, fresh.stderr
    assert out.read_bytes() == fresh.stdout.encode()


def test_deep_factorize_stops_at_the_word_cap(tmp_path):
    # --max-len far beyond the interpreter's recursion limit: the search must
    # end in the typed word-cap error, not in a RecursionError traceback
    path = tmp_path / "n3xc2.json"
    fb.save_cayley(fb.direct_product(fb.null_monoid(1), fb.cyclic(2)), path)
    proc = run_python("-m", "factorbench.cli", "factorize", "(0,1)", "--in", str(path),
                      "--max-len", "3000")
    assert proc.returncode == 1
    assert "more than 1000000 prefixes examined" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_layer_cap_ends_analyze_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(factorization, "LAYER_CAP", 1)
    code, out, err = run_cli(capsys, "analyze", "--cyclic", "5")
    assert (code, out) == (1, "")
    assert err == "factorbench: layer iteration exceeded 1 steps\n"


def test_memory_error_ends_with_exit_1_and_one_line(capsys, monkeypatch):
    def exhausted(ns):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "analyze", exhausted)
    code, out, err = run_cli(capsys, "analyze", "--cyclic", "5")
    assert (code, out) == (1, "")
    assert err == "factorbench: out of memory\n"
    assert "Traceback" not in err


def test_text_format_renders_same_data(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--cyclic", "3", "--format", "text")
    assert code == 0
    assert "group: True" in out and "kappa: 0" in out


# sha256 of the --format text report: a list of dicts and empty lists
# (analyze), a nested dict (present) and an empty report list (corpus)
TEXT_GOLDEN = {
    "analyze --null 2": "1c3f7d49620e1d0ac5e27ffac6b3f86f82a9fd5ff48782efac696f82ce387c34",
    "present congruent x*x x*x*x --family sandwich-power --n 2": "d501b13a91447f0e27d1ae2d84bb071cdc98dbee301f23454d3e3fa0a02d9aa8",
    "corpus --max-order 2": "8f658f1d3cda2423a18e7af4801cea694d6b92eca3820d61da70e58a67626d00",
}


@pytest.mark.parametrize("command", list(TEXT_GOLDEN))
def test_text_format_digest(command, capsys):
    code, out, err = run_cli(capsys, *command.split(), "--format", "text")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TEXT_GOLDEN[command]


def test_error_paths(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(capsys, "analyze", "--in", "/nonexistent.json")
    assert code == 1 and "factorbench" in err
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1  # no instance given
    code, _, err = run_cli(capsys, "analyze", "--cyclic", "100000")
    assert code == 1 and "above the cap" in err
    code, _, err = run_cli(capsys, "factorize", "zz", "--null", "1")
    assert code == 1 and err == "factorbench: no element named 'zz'\n"
    for argv, message in (
        (["present", "congruent", "x", "--family", "ladder"], "arguments are required: WORD"),
        (["present", "nf", "x*z", "y*y", "--family", "ladder"], "unrecognized arguments: y*y"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "", argv
        assert message in captured.err, argv
    custom = tmp_path / "pres.txt"
    custom.write_text("gens: x y; rel: x*x = y*x*x*y")
    for source in (["--family", "sandwich-power"], ["--in", str(custom)]):
        code, out, err = run_cli(capsys, "present", "verify", *source)
        assert code == 1 and out == "", source
        assert "verify is only decided for the ladder family" in err, source
    code, _, err = run_cli(capsys, "present", "verify", "--family", "ladder", "--samples", "-5")
    assert code == 1 and out == "" and "--samples -5 is below 0" in err
    code, out, _ = run_cli(capsys, "present", "verify", "--family", "ladder", "--samples", "0")
    assert code == 0 and json.loads(out)["report"]["samples"] == 0
    monkeypatch.setattr(corpus, "ENUMERATION_CAP", 100)
    code, out, err = run_cli(capsys, "corpus", "--max-order", "4")
    assert code == 1 and out == ""
    assert err == "factorbench: order 4: 101 cell values tried, above the cap 100, after 9 tables\n"
    code, out, err = run_cli(capsys, "corpus", "--max-order", "-1")
    assert code == 1 and out == "" and "--max-order -1 is below 0" in err
    code, out, err = run_cli(
        capsys, "present", "congruent", "x", "y", "--family", "sandwich-power", "--budget", "0"
    )
    assert code == 1 and out == "" and "--budget 0 is below 1" in err
    for argv, message in (
        (["ints", "--limit", "-3", "--prime-bound", "1"], "--limit -3 is below 1"),
        (["ints", "--limit", "0", "--prime-bound", "0"], "--limit 0 is below 1"),
        (["ints", "--prime-bound", "-1"], "--prime-bound -1 is below 0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and message in err, argv
    # size flags that would allocate before any budget applies are refused
    for argv in (
        ["present", "adian", "--family", "sandwich-power", "--n", "1000000000000"],
        ["ints", "--limit", "10000000000000"],
        ["ints", "--limit", "10", "--prime-bound", "10000000000000"],
        ["present", "lengths", "x*z", "--family", "ladder", "--max-len", "1000000000"],
        ["analyze", "--gl", "1000000", "2"],
        ["present", "verify", "--family", "ladder", "--max-len", "1000000000000"],
        ["present", "verify", "--family", "ladder", "--samples", "1000001"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("factorbench: ") and err.count("\n") == 1, argv
    code, _, err = run_cli(capsys, "ints", "--limit", "1000001")
    assert code == 1 and "--limit 1000001 is above the cap 1000000" in err
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-command"])
    assert exc.value.code != 0


@pytest.mark.parametrize(
    "argv",
    [
        ["present", "nf", "x*z", "--family", "ladder", "--n", "-3"],
        ["present", "adian", "--family", "sandwich-power", "--n", "0"],
    ],
)
def test_n_below_one_exits_1_naming_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"factorbench: --n {argv[-1]} is below 1\n"


def test_conflicting_sources_are_usage_errors(tmp_path, capsys):
    custom = tmp_path / "pres.txt"
    custom.write_text("gens: x y; rel: x*x = y*x*x*y")
    for argv in (
        ["analyze", "--cyclic", "2", "--null", "1"],
        ["factorize", "0", "--two-zero", "--trivial"],
        ["powerset", "--in", str(custom), "--gl", "1", "2"],
        ["present", "adian", "--in", str(custom), "--family", "ladder"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err, argv


def test_commands_refuse_flags_they_do_not_read(capsys):
    unread = {
        ("analyze", "--cyclic", "3"): ("--max-len", "--budget", "--seed"),
        ("powerset", "--cyclic", "3"): ("--max-len", "--budget", "--seed"),
        ("ints", "--limit", "10", "--prime-bound", "5"): ("--max-len", "--budget", "--seed"),
        ("corpus", "--max-order", "1"): ("--max-len", "--budget", "--seed"),
        ("factorize", "0", "--null", "1"): ("--budget", "--seed"),
        ("present", "adian", "--family", "ladder"): ("--max-len", "--budget", "--seed", "--samples"),
        ("present", "nf", "x", "--family", "ladder"): ("--max-len", "--budget", "--seed", "--samples"),
        ("present", "congruent", "x", "y", "--family", "ladder"): ("--max-len", "--seed", "--samples"),
        ("present", "lengths", "x", "--family", "ladder"): ("--seed", "--samples"),
        ("present", "verify", "--family", "ladder"): ("--budget",),
    }
    for argv, flags in unread.items():
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "1"])
            assert exc.value.code == 2, (argv, flag)
            assert "unrecognized arguments" in capsys.readouterr().err


N3_TABLE = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({"table": 5}), "a table must be a list of rows"),
        (json.dumps({"table": [0]}), "a table must be a list of rows"),
        (json.dumps({"table": [[0]], "names": 5}), "names must be a list of 1 strings, not int"),
        ('{"table": ' + "[" * 100_000 + "]" * 100_000 + "}", "nests too deeply"),
        (json.dumps({"table": N3_TABLE, "names": [1, 2, 3]}), "name 0 is 1, not a string"),
        (json.dumps({"table": N3_TABLE, "names": "1a0"}), "names must be a list of 3 strings, not str"),
        (json.dumps({"table": N3_TABLE, "names": {"1": 0, "a": 1, "0": 2}}), "names must be a list of 3 strings, not dict"),
        (json.dumps({"table": N3_TABLE, "names": [None, True, 3.5]}), "name 0 is None, not a string"),
        (json.dumps({"table": N3_TABLE, "names": ["1", "e", "0"]}), "name 1 is 'e', reserved for the empty word"),
        (json.dumps({"table": N3_TABLE, "names": ["1", "a", ""]}), "name 2 is '', not a letter of a word literal"),
        (json.dumps({"table": N3_TABLE, "names": ["1", "a*b", "0"]}), "name 1 is 'a*b', not a letter of a word literal"),
        (json.dumps({"table": N3_TABLE, "names": [" 1", "a", "0"]}), "name 0 is ' 1', not a letter of a word literal"),
        ("[]", "expected an object with a 'table' key"),
        ('{"names": ["1"]}', "expected an object with a 'table' key"),
    ],
    ids=[
        "table-int", "row-int", "names-int", "deep-nesting",
        "names-ints", "names-str", "names-object", "names-scalars",
        "name-e", "name-empty", "name-star", "name-padded",
        "array", "no-table",
    ],
)
def test_malformed_cayley_file_exits_one(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 1 and out == "" and err.startswith("factorbench: ")
    assert message in err


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-1, 10**30, -(10**30), 2**63]),
    st.floats(),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=20,
)
ENTRIES = st.integers(-2, 4) | JSON_SCALARS
TABLES = st.lists(st.lists(ENTRIES, max_size=4) | JSON_SCALARS, max_size=4)
NAMES = st.one_of(JSON_VALUES, st.lists(st.text(max_size=2) | st.integers(0, 3), max_size=5))
CAYLEY_DOCS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({"table": TABLES | JSON_VALUES}, optional={"names": NAMES}),
)


@settings(max_examples=300, deadline=None)
@given(CAYLEY_DOCS)
def test_analyze_on_arbitrary_json_ends_in_report_or_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--in", path])
    assert code in (0, 1)
    assert (code == 0) == (out.getvalue() != "")


# -- fuzz over present, ints and factorize ----------------------------------

# Each case carries at most one fault: a size flag set to -1, 0 or 10**12,
# a budget or sample count below range, an odd word literal, a broken
# presentation file, or one of the usage errors of a wrong word count and a
# flag the action does not read.  Everything else is drawn in range, so most
# cases get past the checks and into the work.
IN_RANGE = {
    "--n": st.integers(1, 4),
    "--max-len": st.integers(0, 8),
    "--budget": st.integers(1, 300),
    "--samples": st.integers(0, 50),
    "--seed": st.integers(0, 9),
}
ODD_VALUES = {
    "--max-len": st.sampled_from([-1, 10**12]),
    "--n": st.sampled_from([-1, 0, 10**12]),
    "--budget": st.sampled_from([-1, 0]),
    "--samples": st.just(-1),
}
ODD_WORDS = st.sampled_from(["", "a**b", "*", "q", "x*q", "e*x"])
ODD_GENS = st.sampled_from([["e"], ["x", "x"], []])
FAMILY_GENS = {"sandwich-power": ["x", "y"], "sandwich-xyx": ["x", "y"], "ladder": ["w", "x", "y", "z"]}
# Each action: the number of words it takes and the flags it reads (every
# action also reads --n).
PRESENT_ACTIONS = {
    "adian": (0, ()),
    "nf": (1, ()),
    "congruent": (2, ("--budget",)),
    "lengths": (1, ("--max-len", "--budget")),
    "verify": (0, ("--samples", "--max-len", "--seed")),
}
USAGE_FAULTS = ("count", "unread")


def words_over(gens):
    return st.just("e") | st.lists(st.sampled_from(gens), min_size=1, max_size=6).map("*".join)


def admits(action, fault):
    count, reads = PRESENT_ACTIONS[action]
    if fault == "word":
        return count > 0
    return fault not in ODD_VALUES or fault in ("--n", *reads)


@st.composite
def present_cases(draw):
    fault = draw(st.sampled_from([None, "word", "gens", "rel", "source", *USAGE_FAULTS, *ODD_VALUES]))
    action = draw(st.sampled_from([a for a in PRESENT_ACTIONS if admits(a, fault)]))
    count, reads = PRESENT_ACTIONS[action]
    reads = ("--n", *reads)
    source = draw(st.sampled_from([*FAMILY_GENS, "file"]))
    if source == "file":
        gens = draw(st.lists(st.sampled_from(["x", "y", "a1", "b2"]), min_size=1, max_size=3, unique=True))
        rels = draw(st.lists(st.tuples(words_over(gens), words_over(gens)), max_size=3))
        if fault == "gens":
            gens = gens + draw(ODD_GENS)
        if fault == "rel":
            rels.append((draw(ODD_WORDS), "e"))
        text = "; ".join(["gens: " + " ".join(gens)] + [f"rel: {lhs} = {rhs}" for lhs, rhs in rels])
        argv = ["present", action, "--in", "FILE"]
    else:
        gens, text = FAMILY_GENS[source], None
        argv = ["present", action, "--family", source]
    if fault == "count":
        count = draw(st.sampled_from([c for c in (count - 1, count + 1) if c >= 0]))
    words = draw(st.lists(words_over(gens), min_size=count, max_size=count))
    if fault == "word":
        words[draw(st.integers(0, len(words) - 1))] = draw(ODD_WORDS)
    argv[2:2] = words
    if fault == "source":
        argv, text = argv[: 2 + len(words)], None
    values = {flag: draw(IN_RANGE[flag]) for flag in reads}
    if fault in ODD_VALUES:
        values[fault] = draw(ODD_VALUES[fault])
    if fault == "unread":
        flag = draw(st.sampled_from([f for f in IN_RANGE if f not in reads]))
        values[flag] = draw(IN_RANGE[flag])
    for flag, value in values.items():
        argv += [flag, str(value)]
    return argv, text, fault in USAGE_FAULTS


@st.composite
def other_cases(draw):
    odd = st.sampled_from([-1, 0, 10**12])
    if draw(st.booleans()):
        sizes = st.integers(1, 60) | odd
        argv = ["ints", "--limit", str(draw(sizes)), "--prime-bound", str(draw(sizes))]
    else:
        sizes = st.integers(1, 4) | odd  # null_monoid(k) has k**len words of each length
        element = draw(st.sampled_from(["0", "1", "a", "g", "g^2", "zz", ""]))
        flag = draw(st.sampled_from(["--cyclic", "--null"]))
        argv = ["factorize", element, flag, str(draw(sizes)), "--max-len", str(draw(sizes))]
    return argv, None, False


# Argument texts argparse must reject with its usage error, in one case of four.
USAGE_ERRORS = st.sampled_from([[]] * 9 + [["--max-len", "1.5"], ["--budget", "x"], ["--bogus"]])


@settings(max_examples=400, deadline=None)
@given(present_cases() | other_cases(), USAGE_ERRORS)
def test_other_commands_end_in_report_or_error(case, usage_error):
    argv, text, usage_fault = case
    argv = argv + usage_error
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "pres.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv[argv.index("FILE")] = path
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2 and (usage_error or usage_fault)
                code = None
    if code is None:
        assert out.getvalue() == ""
    else:
        assert not usage_fault
        assert code in (0, 1, 2)
        assert (code in (0, 2)) == (out.getvalue() != "")
        assert (code == 1) == err.getvalue().startswith("factorbench: ")
