"""The verdict rule of scripts/bench_pairs.py on synthetic paired runs, and
its count of source lines."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR about 0.04


@pytest.mark.parametrize(
    "change, better, expected",
    [
        ([v * 0.5 for v in PARENT], "lower", ("better", 10)),
        ([v * 0.5 for v in PARENT], "higher", ("worse", 0)),
        ([v * 2.0 for v in PARENT], "higher", ("better", 10)),
        ([v * 2.0 for v in PARENT], "lower", ("worse", 0)),
        # nine of ten pairs agree: still a move
        ([0.5] * 9 + [1.5], "lower", ("better", 9)),
        # eight of ten pairs agree: unresolved however large the gap
        ([0.5] * 8 + [1.5] * 2, "lower", ("unresolved", 8)),
        # every pair agrees but the medians differ by less than the IQR
        ([v - 0.01 for v in PARENT], "lower", ("unresolved", 10)),
    ],
)
def test_verdict_on_ten_pairs(change, better, expected):
    assert bench_pairs.verdict(PARENT, change, better) == expected


def test_three_pairs_need_all_three():
    # below ten pairs nothing moves, however large the gap
    parent = [1.0, 1.1, 0.9]
    assert bench_pairs.verdict(parent, [0.5, 0.5, 0.5], "lower") == ("unresolved", 3)
    assert bench_pairs.verdict(parent, [0.5, 0.5, 1.2], "lower") == ("unresolved", 2)
    assert bench_pairs.verdict(parent, [1.5, 1.6, 1.4], "lower") == ("unresolved", 0)


def test_summary_pairs_runs_by_seed():
    metrics = [{"name": "request_s.p50", "better": "lower"}]

    def run(side, seed, value, failed=0):
        return {
            "side": side,
            "meta": {"workload": "rewrite", "seed": seed},
            "result": {"failed": failed, "metrics": {"request_s.p50": {"value": value}}},
        }

    runs = []
    for i, (p, c) in enumerate(zip(PARENT, [v / 4 for v in PARENT])):
        pair = [run("parent", 61 + i, p), run("change", 61 + i, c)]
        runs += pair if i % 2 == 0 else pair[::-1]
    runs.append(run("parent", 99, 5.0, failed=1))  # no partner: counted as failed, not paired
    summary = bench_pairs.summarize(runs, metrics)
    entry = summary["rewrite"]["request_s.p50"]
    assert entry["verdict"] == "better" and entry["change_better_pairs"] == 10
    assert entry["ratio"] == 0.25
    assert entry["parent_median"] == pytest.approx(1.0)
    assert summary["rewrite"]["failed"] == 1


def test_plan_parsing():
    assert bench_pairs.parse_plan("rewrite:61-70") == ("rewrite", list(range(61, 71)))
    assert bench_pairs.parse_plan("sweep:5") == ("sweep", [5])


def test_src_lines_counts_the_package_modules_of_each_tree(tmp_path):
    sizes = {}
    for side, modules in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                          ("change", {"a.py": "x = 1\n"})):
        package = tmp_path / side / "src" / "factorbench"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text, encoding="utf-8")
        (package / "notes.txt").write_text("not\ncounted\n", encoding="utf-8")
        (tmp_path / side / "scripts").mkdir()
        (tmp_path / side / "scripts" / "tool.py").write_text("not counted\n", encoding="utf-8")
        sizes[side] = bench_pairs.src_lines(tmp_path / side)
    assert sizes == {"parent": 3, "change": 1}
