#!/usr/bin/env python3
"""Compare two commits on the benchmark in alternated pairs and write BENCH_<n>.json.

Each side is exported with `git archive` into its own directory, so both run
from committed files only, and the lines of each side's src/factorbench/*.py
go into the report next to the numbers.  For every (workload, seed) of the
plan, the two sides run `perfbench/run.py --workload W --seed S --seconds 25
--trace 0` back to back; the side that runs first alternates from one pair to
the next.

A metric of a workload moves ('better' or 'worse') when there are at least ten
pairs, the medians of the two sides differ by more than the interquartile range
of the parent's runs and at least 9 in 10 of the pairs move the same way;
otherwise it is 'unresolved'.  Fewer than ten pairs cannot tell a move of a few
percent from noise, so they only show that nothing moved beyond its bound.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --plan rewrite:61-70 --plan tables:61-63 --out BENCH_9.json
"""

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 25
RUN_TIMEOUT_S = 900


def verdict(parent: list[float], change: list[float], better: str) -> tuple[str, int]:
    """The verdict on one metric from paired runs (parent[i] and change[i] ran
    back to back), and the number of pairs in which the change was better."""
    sign = 1 if better == "lower" else -1
    gains = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    better_pairs = sum(g > 0 for g in gains)
    worse_pairs = sum(g < 0 for g in gains)
    if len(gains) < 10:
        return "unresolved", better_pairs
    need = -(-9 * len(gains) // 10)  # ceil(0.9 n)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    spread = iqr(parent)
    if gap > spread and better_pairs >= need:
        return "better", better_pairs
    if -gap > spread and worse_pairs >= need:
        return "worse", better_pairs
    return "unresolved", better_pairs


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: medians, ratio, parent IQR, pairs
    won by the change and the verdict; plus the failed requests of both sides."""
    summary = {}
    for workload in dict.fromkeys(r["meta"]["workload"] for r in runs):
        mine = [r for r in runs if r["meta"]["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["meta"]["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [sides for sides in by_seed.values() if len(sides) == 2]
        entry = {}
        for m in metrics:
            parent = [p["parent"][m["name"]]["value"] for p in pairs]
            change = [p["change"][m["name"]]["value"] for p in pairs]
            call, won = verdict(parent, change, m["better"])
            pm, cm = statistics.median(parent), statistics.median(change)
            entry[m["name"]] = {
                "parent_median": pm,
                "change_median": cm,
                "ratio": round(cm / pm, 4) if pm else None,
                "parent_iqr": iqr(parent),
                "change_better_pairs": won,
                "verdict": call,
            }
        entry["failed"] = sum(r["result"]["failed"] for r in mine)
        summary[workload] = entry
    return summary


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def src_lines(tree: Path) -> int:
    """The lines of src/factorbench/*.py in a tree, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "factorbench").glob("*.py"))


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    head = json.loads(lines[0])
    return {"meta": head["meta"], "reports_digest": head["reports_digest"],
            "result": json.loads(lines[-1])}


def parse_plan(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", metavar="REV")
    parser.add_argument("--change", default="HEAD", metavar="REV")
    parser.add_argument("--plan", action="append", required=True, metavar="WORKLOAD:FIRST-LAST",
                        help="a workload and its seeds, one pair per seed; repeatable")
    parser.add_argument("--out", required=True, metavar="FILE")
    args = parser.parse_args()
    plan = [parse_plan(p) for p in args.plan]
    revs = {side: git("rev-parse", rev).decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, tree in trees.items():
            export(revs[side], tree)
        sizes = {side: src_lines(tree) for side, tree in trees.items()}
        for workload, seeds in plan:
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_side(trees[side], workload, seed)
                    runs.append({"side": side, **run})
                    value = run["result"]["metrics"]["request_s.p50"]["value"]
                    print(f"{workload} seed {seed} {side}: request_s.p50 {value:.5f}", flush=True)

    protocol = (
        "; ".join(f"{w} seeds {s[0]}-{s[-1]} ({len(s)} pairs)" for w, s in plan)
        + "; parent and change run back to back for each (workload, seed), the side that runs"
        " first alternating from one pair to the next; each side in its own checkout of"
        " committed files. A move is 'better' or 'worse' when there are at least ten pairs,"
        " the medians differ by more than the parent's interquartile range and at least 9 in"
        " 10 pairs agree, otherwise 'unresolved'; 'failed' counts failed requests of both sides"
    )
    meta = runs[0]["meta"]
    report = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "host": f"{platform.system()}, {meta['nproc']} CPUs, Python {meta['python']}; request"
                " times are CPU seconds scaled by the reference loop of perfbench/run.py",
        "protocol": protocol,
        "parent": revs["parent"],
        "change": git("log", "-1", "--format=%s (%H)", revs["change"]).decode().strip(),
        "src_lines": sizes,
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
