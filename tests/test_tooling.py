"""Repository checks: the oracles stay independent of the package and each
is named in a test, the scripts run end to end, every command line and the
library tour in the README run, the README lists exactly the flags each
command declares, the error types match what the benchmark reads and what
the code raises, the benchmark's span metrics name functions and classes
that exist, every public definition and private function in src/ is used
outside itself, every public member of a class in src/ is read in src/ or
scripts/, the CLI starts without dataclasses, inspect or fractions, no
record field shadows a tuple method, no function body in src/ holds an
import, and no line in src/ is wider than 100 characters."""

import argparse
import ast
import json
import re
import shlex

import pytest

import factorbench as fb
from factorbench import factorization
from factorbench.cli import build_parser, main
from factorbench.errors import CapExceeded
from conftest import ROOT, run_python


def test_oracles_import_no_factorbench_module():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not {m for m in modules if m.split(".")[0] == "factorbench"}


def test_every_public_oracle_is_named_in_a_test():
    # an oracle that no test names checks nothing
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    oracles = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    tests = [*(ROOT / "tests").glob("test_*.py"), ROOT / "tests" / "conftest.py"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in tests)
    assert len(oracles) > 40
    assert not [name for name in oracles if not re.search(rf"\b{name}\b", text)]


@pytest.mark.parametrize(
    "script, args",
    [("run_corpus.py", ["--max-order", "2"]), ("kappa_survey.py", ["--max-cyclic", "9"])],
)
def test_script_exits_zero(script, args):
    proc = _run_script(script, *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_corpus_refuses_order_six():
    proc = _run_script("run_corpus.py", "--max-order", "6")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith("run_corpus: order 6: 1000001 cell values tried, above the cap"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_command_lines_exit_zero(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    cayley = re.search(r"### Cayley table files\n\n```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "monoid.json"
    path.write_text(cayley, encoding="utf-8")
    lines = [line.split("#")[0] for line in block.splitlines()]
    assert lines
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "factorbench", line
        argv = [str(path) if arg == "monoid.json" else arg for arg in argv[1:]]
        assert main(argv) == 0, line
        capsys.readouterr()


def test_readme_library_tour_gives_the_values_it_states():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    assert values["fb.property_battery(H).acyclic"] is False
    flags = values["fb.classify_arithmetic(H)"]
    assert (flags.atomic, flags.bf, flags.ff, flags.hf) == (True, False, False, False)
    assert values["fb.minimal_catalog(H).kappa"] == 2
    prime, (powerful, conflict) = values["fb.is_prime(H, 1), fb.is_powerful(H, 1)"]
    assert prime == (True, None) and powerful is False and conflict is not None
    report = values["fb.kappa_report(fb.cyclic(5))"]
    assert (report.kappa, report.bound, report.attains_bound) == (4, 4, True)
    assert values["fb.is_powerful(ints, 2)"] == (True, None)


def test_readme_lists_the_flags_of_each_command():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"### Flags by command\n(.*?)\n###", readme, re.S).group(1)
    documented = {
        match.group(1): set(re.findall(r"`(--[a-z-]+)", match.group(2)))
        for match in re.finditer(r"^- `(\w+(?: [a-z]+)?)[^`]*`: (.*?)(?=^- |^$)", section, re.S | re.M)
    }
    assert documented == _declared_flags(build_parser())


def test_benchmark_reads_the_cap_errors_the_code_raises(monkeypatch):
    # perfbench counts a cap error by class name (tracer) and accepts its
    # exit by message (checker); both are read here, never imported
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    checker = ast.parse((ROOT / "perfbench" / "checker.py").read_text(encoding="utf-8"))
    cap_errors = ast.literal_eval(_assigned(tracer, "CAP_ERRORS"))
    cap_messages = re.compile(ast.literal_eval(_assigned(checker, "CAP_MESSAGES").args[0]))
    assert "CapExceeded" in cap_errors
    assert "CapExceeded" in _error_classes()

    monkeypatch.setattr(factorization, "LAYER_CAP", 1)
    monkeypatch.setattr(factorization, "WORD_CAP", 10)
    caps = [
        lambda: fb.enumerate_factorizations(fb.null_monoid(2), 3, 12),
        lambda: factorization.AtomAnalysis(fb.cyclic(5)).length_sets,
    ]
    for cap in caps:
        with pytest.raises(CapExceeded) as info:
            cap()
        assert cap_messages.search(str(info.value)), str(info.value)


def test_benchmark_span_metrics_name_public_definitions():
    # the tracer finds a span by the name in <layer>.<name>.s|calls|rejected,
    # so a renamed function or class would leave its metric silently empty
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("s", "calls", "rejected"):
            spans.add((parts[0], parts[1]))
    assert len(spans) > 10
    public = {}
    for layer in {layer for layer, _ in spans}:
        tree = ast.parse((ROOT / "src" / "factorbench" / f"{layer}.py").read_text(encoding="utf-8"))
        public[layer] = {
            stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        }
    assert not {f"{layer}.{name}" for layer, name in spans if name not in public[layer]}


def test_every_error_class_is_raised_in_src():
    raised = set()
    for path in (ROOT / "src" / "factorbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert _error_classes() <= raised, _error_classes() - raised


def _definitions_and_names():
    """The top-level functions and classes of src/ as (module, name,
    is_function), and every name that src/ or scripts/ uses outside the
    definition of that name."""
    sources = list((ROOT / "src" / "factorbench").glob("*.py"))
    sources += (ROOT / "scripts").glob("*.py")
    defined, named = set(), set()
    for path in sources:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if path.parent.name == "factorbench":
                    defined.add((path.stem, own, isinstance(stmt, ast.FunctionDef)))
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name and name != own:
                    named.add(name)
    return defined, named


def test_every_public_definition_is_named_outside_itself():
    # a top-level function or class that no other part of src/ or scripts/
    # names is surface that only tests reach: move it to the oracles
    defined, named = _definitions_and_names()
    public = {(module, name) for module, name, _ in defined if not name.startswith("_")}
    assert not {f"{module}.{name}" for module, name in public if name not in named}


def test_every_private_function_is_named_outside_itself():
    # a private top-level function that nothing else in src/ or scripts/
    # names is dead, or kept alive only by its test
    defined, named = _definitions_and_names()
    private = {(module, name) for module, name, func in defined if func and name.startswith("_")}
    assert len(private) > 30
    assert not {f"{module}.{name}" for module, name in private if name not in named}


def test_every_public_member_is_read_in_src_or_scripts():
    # the member-level twin of the check above: a public method, dataclass
    # field or self. attribute that src/ and scripts/ never load as an
    # attribute or pass as a keyword is surface that only tests reach.
    # errors.py classes carry data for the caller, and LadderVerification's
    # fields reach the report through _asdict.
    sources = list((ROOT / "src" / "factorbench").glob("*.py"))
    sources += (ROOT / "scripts").glob("*.py")
    members, read = set(), set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                read.add(node.arg)
        if path.parent.name != "factorbench" or path.stem == "errors":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name == "LadderVerification":
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    members.add((cls.name, stmt.name))
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    members.add((cls.name, stmt.target.id))
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                ):
                    members.add((cls.name, node.attr))
    unread = {f"{cls}.{name}" for cls, name in members if not name.startswith("_") and name not in read}
    assert not unread


def _error_classes():
    tree = ast.parse((ROOT / "src" / "factorbench" / "errors.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _assigned(tree, name):
    return next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    )


def _declared_flags(parser, prefix=""):
    """The option strings of each leaf command, keyed like 'analyze' or
    'present nf'."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {}
    for name, sub in subparsers.choices.items():
        if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions):
            declared.update(_declared_flags(sub, f"{prefix}{name} "))
        else:
            flags = {flag for action in sub._actions for flag in action.option_strings}
            declared[prefix + name] = flags - {"-h", "--help"}
    return declared


def _run_script(script, *args):
    return run_python(str(ROOT / "scripts" / script), *args)


def test_package_main_prints_the_version():
    # `python -m factorbench` runs __main__.py, which no in-process test reaches
    proc = run_python("-m", "factorbench", "--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0.1.0\n", "")


def test_cli_start_up_imports_every_layer_and_no_dataclasses_or_fractions():
    # the start-up that every CLI call pays: -I ignores PYTHONPATH, so the
    # child puts src/ on sys.path itself.  The benchmark's tracer wraps the
    # six layers from sys.modules, so they stay imported eagerly.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import factorbench.cli as cli;"
        " cli.build_parser(); print(*sys.modules)"
    )
    proc = run_python("-I", "-c", code, str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect", "fractions"} & loaded
    layers = ("cli", "core", "factorization", "power", "presentations", "corpus")
    assert {f"factorbench.{layer}" for layer in layers} <= loaded


def test_no_record_field_shadows_a_tuple_method():
    # the result records are NamedTuples: a field named count or index would
    # hide the tuple method of that name
    records = {
        name: obj
        for module in (fb.core, fb.factorization, fb.power, fb.presentations)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
    }
    assert set(records) == {
        "PropertyReport", "LengthSet", "ArithmeticFlags", "MinimalCatalog", "FactorialFlags",
        "KappaReport", "AdianCheck", "CongruenceResult", "LadderVerification", "LengthProbe",
    }
    assert not [name for name, cls in records.items() if {"count", "index"} & set(cls._fields)]


def test_no_src_function_body_imports():
    # every import sits at the head of its module, so the module heads give
    # the whole import graph and no cycle hides inside a function
    nested = {
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "factorbench").glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert not nested


def test_no_src_line_is_wider_than_100_characters():
    # the size of src/ is tracked in lines, so joining lines must not pass
    # for a reduction
    wide = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "factorbench").glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not wide
