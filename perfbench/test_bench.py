"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import factorbench  # noqa: E402
import factorbench.cli as cli  # noqa: E402


def _fingerprint(workload, seed, n_rounds=2):
    return [(r.kind, r.argv, r.infile) for batch in islice(gen.rounds(workload, seed), n_rounds)
            for r in batch]


def _first(workload, kind, seed=0):
    for batch in gen.rounds(workload, seed):
        for req in batch:
            if req.kind == kind:
                return req


def _call(req, tmp_path):
    argv = list(req.argv)
    if req.infile is not None:
        path = tmp_path / "input.txt"
        path.write_text(req.infile)
        argv = [str(path) if a == gen.IN else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _fingerprint(workload, 7) == _fingerprint(workload, 7)
    assert _fingerprint(workload, 7) != _fingerprint(workload, 8)


def test_generator_does_not_import_factorbench():
    for name in ("gen.py", "checker.py"):
        assert "factorbench" not in re.sub(r'""".*?"""|#.*', "", (HERE / name).read_text(), flags=re.S)


def test_relabel_keeps_identity_and_product():
    rng = gen.random.Random(1)
    T = gen.product_of(gen.gl23(), gen.cyclic(2))
    R = gen.relabel(T, rng)
    index = {name: i for i, name in enumerate(R.names)}
    assert R.names[0] == "1"
    for x in range(T.n):
        for y in range(T.n):
            assert R.names[R.table[index[T.names[x]]][index[T.names[y]]]] == T.names[T.table[x][y]]


def _corrupt(report_text, edit):
    doc = json.loads(report_text)
    edit(doc["report"])
    return json.dumps(doc)


def _flip_group(rep):
    rep["properties"]["group"] = not rep["properties"]["group"]


def _break_chain(rep):
    rep["chain"][1] = rep["chain"][1] + "*x"


def _wrong_kappa(rep):
    rep["kappa"] += 1
    rep["minimal_length_union"].append(rep["kappa"])


def _add_atom(rep):
    rep["atoms"] = rep["atoms"] + ["1"]


@pytest.mark.parametrize("workload,kind,edit", [
    ("sweep", "sweep.analyze_small", _flip_group),
    ("tables", "tables.transformation", _add_atom),
    ("rewrite", "rewrite.congruent", _break_chain),
    ("catalog", "catalog.analyze_power", _wrong_kappa),
])
def test_checker_accepts_real_report_and_rejects_corrupted_one(tmp_path, workload, kind, edit):
    req = _first(workload, kind)
    if kind == "rewrite.congruent":  # a chain with an inner word to corrupt
        req = next(r for b in gen.rounds(workload, 0) for r in b
                   if r.kind == kind and len(r.expect["u"]) and r.expect["u"] != r.expect["v"])
    code, out, err = _call(req, tmp_path)
    assert checker.check(req, code, out, err) == ("ok", "")
    outcome, reason = checker.check(req, code, _corrupt(out, edit), err)
    assert outcome == "failed", reason


def test_checker_refutation_and_cap_errors():
    gens, rels = gen.family_relations("sandwich-power", 2)
    req = gen.Request("rewrite.separated", ["present", "congruent"], None,
                      {"u": ("x", "x"), "v": ("x", "x", "x"), "gens": gens, "relations": rels,
                       "built": "separated"})
    good = {"command": "present", "report": {"status": "refuted", "functional": {"x": 1, "y": 0}}}
    bad = {"command": "present", "report": {"status": "refuted", "functional": {"x": 0, "y": 1}}}
    assert checker.check(req, 0, json.dumps(good), "")[0] == "ok"
    assert checker.check(req, 0, json.dumps(bad), "")[0] == "failed"
    capped = "factorbench: more than 1000000 prefixes examined\n"
    assert checker.check(req, 1, "", capped)[0] == "undecided"
    assert checker.check(req, 1, "", "factorbench: something else\n")[0] == "failed"


def test_ladder_normal_form_matches_known_contraction():
    assert checker.ladder_normal_form("yxyzw") == "xz"
    assert checker.ladder_normal_form("yyxyyzww") == "xz"
    assert checker.ladder_normal_form("xyz") == "xyz"


def _namespaces():
    return {key: dict(vars(mod)) for key, mod in sys.modules.items()
            if key == "factorbench" or key.startswith("factorbench.")}


def test_tracer_restores_every_wrapped_name():
    before = _namespaces()
    init = factorbench.core.FiniteMonoid.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert factorbench.cli.property_battery is not before["factorbench.cli"]["property_battery"]
        assert factorbench.corpus.small_monoids is not before["factorbench.corpus"]["small_monoids"]
        assert factorbench.core.FiniteMonoid.__init__ is not init
        assert len(tracer._patches) > 50
    finally:
        tracer.restore()
    after = _namespaces()
    assert after.keys() == before.keys()
    for key in before:
        assert all(after[key][a] is before[key][a] for a in before[key]), key
    assert factorbench.core.FiniteMonoid.__init__ is init


def test_self_times_sum_to_traced_request_time(tmp_path):
    reqs = [_first("sweep", "sweep.analyze_small"), _first("sweep", "sweep.corpus"),
            _first("catalog", "catalog.powerset"), _first("rewrite", "rewrite.verify")]
    tracer = Tracer()
    tracer.install()
    wall = 0.0
    try:
        for i, req in enumerate(reqs):
            tracer.current_request = i
            t0 = time.perf_counter()
            _call(req, tmp_path)
            wall += time.perf_counter() - t0
    finally:
        tracer.restore()
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert [tracer.names[tracer.name_of[i]] for i in roots] == ["cli.main"] * len(reqs)
    assert sorted(set(tracer.request)) == list(range(len(reqs)))
    root_ns = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(tracer.self_times()) == root_ns
    summary = tracer.summary()
    layer_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(root_ns / 1e9, rel=1e-9)
    assert root_ns / 1e9 <= wall <= root_ns / 1e9 * 1.05 + 0.01
    assert summary["corpus.candidates"] == 1 + 2**4 + 3**9
    assert summary["corpus.small_monoids.yielded"] < summary["corpus.candidates"]


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert run.tail(xs) == (90, 90.0)
    assert run.tail(xs[:20]) == (50, 10.0)
    with pytest.raises(ValueError):
        run.tail(xs[:10])


def test_speed_scale_uses_readings_during_or_nearest_to_a_request():
    sampler = run.Sampler()
    sampler.at = [float(i) for i in range(20)]
    sampler.cost = [run.REFERENCE_S] * 10 + [2 * run.REFERENCE_S] * 10
    assert sampler.scale(10.5, 19.5) == 0.5  # nine readings inside
    assert sampler.scale(2.5, 2.6) == 1.0  # the eight nearest, all from the fast half
    assert sampler.scale(19.5, 25.0) == 0.5  # past the last reading
    sampler.cost[:] = [run.REFERENCE_S] * 16 + [2 * run.REFERENCE_S] * 4
    assert sampler.scale(13.1, 13.2) == pytest.approx(0.8)  # 10..17: six fast, two slow


def test_benchmark_json_follows_the_contract():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    records = [{"seconds": 0.01 * (i + 1), "wall_s": 0.01 * (i + 1), "cpu_s": 0.01 * (i + 1),
                "outcome": "ok", "reason": "",
                "round": i % 3, "peak_rss_mb": 30.0} for i in range(30)]
    metrics, _ = run.end_to_end(records, 0.05)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
