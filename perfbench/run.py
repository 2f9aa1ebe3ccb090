"""factorbench benchmark: seeded CLI workloads, checked reports, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

The benchmark imports factorbench from ./src and drives `cli.main(argv)` in
this one process as a closed loop: one client, no threads, the next request
sent when the previous one has returned.  Requests come in rounds from
gen.py (see its docstring); every run holds whole rounds, as many as are
expected to end within --seconds of wall time.  Every report is checked by
checker.py, outside the timed region.

Request and set-up times are CPU seconds scaled to a fixed machine speed
(see "machine speed" below); CPU and wall times are kept alongside.
--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  --trace 1
runs every request twice in a row, untraced and then with the tracer
installed, and reports the per-layer metrics of the traced runs (means per
request, in wall seconds) plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results, per-request report digests and (for
--trace 1) the spans go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEADLINE_S = 30  # per request; a request past it is cut off and counts as failed
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

import checker  # noqa: E402  (sibling modules; no factorbench import)
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402


class Deadline(BaseException):
    """Raised inside a request that outlived DEADLINE_S.  A BaseException,
    so the CLI's own error handlers do not swallow it."""


# -- machine speed ----------------------------------------------------------------
#
# On a shared machine the same work can take twice as long from one second to
# the next, and 1.6 times as long for minutes at a time (both measured while
# this benchmark was written), which no run length averages away.  Request
# times are therefore CPU seconds of this process (time spent descheduled
# does not count), scaled to a fixed machine speed: every SAMPLE_EVERY_S of
# wall time a timer interrupts the process and times a fixed piece of
# pure-Python work, the reference loop, and a request's CPU time is scaled by
# REFERENCE_S / (the mean reference-loop time over the request).  A long
# request is scaled by the readings taken while it ran; a short one by the
# MIN_READINGS readings nearest to it.  The result is the time the request
# would take on a machine that runs the reference loop in REFERENCE_S.  A
# change to factorbench moves scaled times exactly as it moves CPU times; a
# change in the machine's speed moves the reference loop too and cancels.
# CPU and wall times are kept in every record as cpu_s and wall_s.

SAMPLE_EVERY_S = 0.025
REFERENCE_ITERATIONS = 3000
REFERENCE_S = 0.0005  # about the reference loop's time on an idle 2-CPU host
MIN_READINGS = 8


def reference_loop() -> float:
    """CPU seconds taken by fixed interpreter-bound work: dict and integer
    operations, like the CLI's own.  It allocates no object the garbage
    collector tracks, so it never sets off a collection."""
    t0 = time.process_time()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        k = i * 7919 % 1021
        counts[k] = counts.get(k, 0) + 1
        acc += (k ^ acc) & 7
    return time.process_time() - t0


class Sampler:
    """The SIGALRM timer behind the per-request deadline and, when
    `measure` is set, the machine-speed readings."""

    def __init__(self, measure: bool = True):
        self.measure = measure
        self.at: list[float] = []  # perf_counter() of each reading
        self.cost: list[float] = []  # reference-loop CPU seconds of each reading
        self.handler_cpu = 0.0  # CPU seconds spent taking readings
        self.deadline: float | None = None  # perf_counter() past which the request is cut off

    def _tick(self, signum, frame):
        if self.measure:
            c0 = time.process_time()
            self.cost.append(reference_loop())
            self.at.append(time.perf_counter())
            self.handler_cpu += time.process_time() - c0
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise Deadline()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def cpu(self) -> float:
        """CPU seconds of this process, not counting the readings."""
        return time.process_time() - self.handler_cpu

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean reading taken in [t0, t1], or, if
        fewer than MIN_READINGS fall there, over the MIN_READINGS readings
        nearest to it."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        while hi - lo < MIN_READINGS and (lo > 0 or hi < len(self.at)):
            if hi < len(self.at) and (lo == 0 or self.at[hi] - t1 < t0 - self.at[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return REFERENCE_S / statistics.fmean(self.cost[lo:hi])


# -- set-up ---------------------------------------------------------------------

# The set-up process times itself: the CPU time of importing factorbench and
# building the CLI parser (the interpreter's own start-up is not
# factorbench's), scaled by reference-loop readings taken in that process
# just before and after, which see the same CPU as the import.
_READY = f"""
import sys, time
REFERENCE_ITERATIONS = {REFERENCE_ITERATIONS}
{inspect.getsource(reference_loop)}
before = [reference_loop() for _ in range(5)]
sys.path.insert(0, sys.argv[1])
c0 = time.process_time()
import factorbench.cli
factorbench.cli.build_parser()
cpu = time.process_time() - c0
readings = before + [reference_loop() for _ in range(5)]
print("ready", cpu * {REFERENCE_S!r} * len(readings) / sum(readings), flush=True)
"""


def _spawn_ready() -> float:
    """Scaled CPU seconds a fresh interpreter spends importing factorbench
    and building the CLI parser."""
    with subprocess.Popen([sys.executable, "-I", "-c", _READY, str(SRC)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.communicate(timeout=60)
    word, _, seconds = out.strip().partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {err.strip()[-500:]}")
    return float(seconds)


def measure_setup() -> float:
    _spawn_ready()  # compiles the bytecode cache once, untimed
    return statistics.median(_spawn_ready() for _ in range(SETUP_REPEATS))


# -- the closed loop ---------------------------------------------------------------


class Loop:
    """Runs requests one at a time against cli.main and records each one."""

    def __init__(self, cli, workload: str, sampler: Sampler, tracer: Tracer | None = None):
        self.cli = cli
        self.sampler = sampler
        self.tracer = tracer
        self.infile = OUT / f"input-{workload}-{os.getpid()}.txt"
        self.records: list[dict] = []
        self.report_bytes = 0

    def run(self, req: gen.Request, round_no: int) -> dict:
        argv = list(req.argv)
        if req.infile is not None:
            self.infile.write_text(req.infile, encoding="utf-8")
            argv = [str(self.infile) if a == gen.IN else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        if self.tracer is not None:
            self.tracer.current_request = len(self.records)
        code, crash = None, ""
        sampler = self.sampler
        sampler.deadline = time.perf_counter() + DEADLINE_S
        t0, c0 = time.perf_counter(), sampler.cpu()
        try:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            finally:
                sampler.deadline = None
                t1, c1 = time.perf_counter(), sampler.cpu()
        except Deadline:
            crash = f"passed the {DEADLINE_S} s deadline"
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed request, not a crashed benchmark
            crash = traceback.format_exc(limit=3)
        text = out.getvalue()
        if crash:
            outcome, reason = "failed", crash
        else:
            outcome, reason = checker.check(req, code, text, err.getvalue())
        self.report_bytes += len(text.encode())
        record = {
            "kind": req.kind,
            "round": round_no,
            "start": t0,
            "end": t1,
            "cpu_s": c1 - c0,
            "wall_s": t1 - t0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "outcome": outcome,
            "reason": reason,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        }
        self.records.append(record)
        return record

    def scale_times(self) -> None:
        """Set each record's `seconds`, its scaled CPU time; called after
        the run, when the readings that follow the last request exist."""
        for r in self.records:
            r["seconds"] = r["cpu_s"] * self.sampler.scale(r["start"], r["end"])


def run_rounds(workload: str, seed: int, seconds: float, loop: Loop, traced: Loop | None = None):
    """Run whole rounds, reports checked, while the next round is expected
    to end within `seconds` of the start (a round is expected to take the
    mean time of the rounds before it); at least one round.  With `traced`,
    each request runs untraced on `loop` and then again on `traced` with its
    tracer installed, so both runs of a request see about the same machine
    state and their difference is the tracing overhead."""
    t_start = time.perf_counter()
    for round_no, batch in enumerate(gen.rounds(workload, seed)):
        elapsed = time.perf_counter() - t_start
        if round_no and elapsed * (round_no + 1) / round_no > seconds:
            return
        for req in batch:
            loop.run(req, round_no)
            if traced is not None:
                traced.tracer.install()
                try:
                    traced.run(req, round_no)
                finally:
                    traced.tracer.restore()


# -- metrics ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it, by the nearest-rank rule, and its value."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = max(1, -(-p * n // 100))  # ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    raise ValueError(f"{n} samples are too few for a tail with {TAIL_BEYOND} beyond it")


def requests_per_s(records: list[dict]) -> float:
    """Completed requests per second of request time, per round (every round
    holds the same mix), and the median over rounds: a round that ran while
    the machine was slow moves the median less than it moves the mean."""
    rounds: dict[int, list[dict]] = {}
    for r in records:
        rounds.setdefault(r["round"], []).append(r)
    return statistics.median(
        sum("deadline" not in r["reason"] for r in rs) / sum(r["seconds"] for r in rs)
        for rs in rounds.values())


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, dict]:
    times = [r["seconds"] for r in records]
    p, tail_value = tail(times)
    metrics = {
        "setup_s": setup_s,
        "request_s.p50": statistics.median(times),
        "request_s.tail": tail_value,
        "requests_per_s": requests_per_s(records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    extra = {
        "wall_request_s.p50": statistics.median(r["wall_s"] for r in records),
        "cpu_request_s.p50": statistics.median(r["cpu_s"] for r in records),
        "failed_frac": sum(r["outcome"] == "failed" for r in records) / len(records),
        "undecided_frac": sum(r["outcome"] == "undecided" for r in records) / len(records),
        "tail_percentile": p,
        "samples": len(records),
    }
    return metrics, extra


def per_layer(tracer: Tracer, traced: list[dict], untraced: list[dict], report_bytes: int) -> dict:
    n = len(traced)
    s = tracer.summary()
    congruent_calls = s.get("presentations.congruent_bounded.calls", 0)
    candidates = s.get("corpus.candidates", 0)
    out = {key: value / n for key, value in s.items()}
    out["cli.report_bytes"] = report_bytes / n
    out["presentations.decided_frac"] = (
        s.get("presentations.decided", 0) / congruent_calls if congruent_calls else 0.0)
    out["corpus.accept_frac"] = (
        s.get("corpus.small_monoids.yielded", 0) / candidates if candidates else 0.0)
    out["trace.request_s"] = statistics.fmean(r["wall_s"] for r in traced)
    out["trace.untraced_request_s"] = statistics.fmean(r["wall_s"] for r in untraced)
    out["trace.overhead_s"] = out["trace.request_s"] - out["trace.untraced_request_s"]
    return out


# -- metadata --------------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(args, extra: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": DEADLINE_S,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        **extra,
    }


# -- main ------------------------------------------------------------------------------


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_all(args) -> int:
    """Run every workload in its own process and pass its output through."""
    status = 0
    for workload in gen.WORKLOADS:
        print(f"== {workload}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def measure(args, sampler: Sampler):
    """Set-up time, then the closed loop; the metrics, extra facts and
    records of the run, or Nones if factorbench cannot be imported from SRC."""
    setup_s = measure_setup() if args.trace == 0 else None
    sys.path.insert(0, str(SRC))
    import factorbench.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "factorbench":
        print(f"imported factorbench from {cli.__file__}, not {SRC}", file=sys.stderr)
        return None, None, None

    loop = Loop(cli, args.workload, sampler)
    if args.trace == 0:
        run_rounds(args.workload, args.seed, args.seconds, loop)
        loop.scale_times()
        records = loop.records
        metrics, extra = end_to_end(records, setup_s)
    else:
        traced = Loop(cli, args.workload, sampler, Tracer())
        run_rounds(args.workload, args.seed, args.seconds, loop, traced)
        records = traced.records + loop.records
        metrics = per_layer(traced.tracer, traced.records, loop.records, traced.report_bytes)
        extra = {"samples": len(traced.records), "spans": len(traced.tracer.start)}
        traced.tracer.write(stem(args).with_suffix(".spans.csv.gz"))
    loop.infile.unlink(missing_ok=True)
    return metrics, extra, records


def stem(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "factorbench" / "__init__.py").is_file():
        print(f"factorbench sources not found under {SRC}", file=sys.stderr)
        return 2
    units = load_spec()[args.trace]
    OUT.mkdir(exist_ok=True)
    sampler = Sampler(measure=args.trace == 0)
    sampler.start()
    try:
        metrics, extra, records = measure(args, sampler)
    finally:
        sampler.stop()
    if metrics is None:
        return 2

    metrics = {name: metrics.get(name, 0.0) for name in units}
    meta = metadata(args, extra)
    failed = [r for r in records if r["outcome"] == "failed"]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    digest = hashlib.sha256("".join(r["digest"] for r in records).encode()).hexdigest()
    stem(args).with_suffix(".json").write_text(json.dumps(
        {"meta": meta, "reports_digest": digest, "result": result, "requests": records}, indent=1))

    print(json.dumps({"meta": meta, "reports_digest": digest}))
    for r in failed[:5]:
        print(f"FAILED {r['kind']}: {r['reason'].strip()[:300]}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    for name, unit in (("wall_request_s.p50", "s"), ("cpu_request_s.p50", "s"), ("failed_frac", "fraction"),
                       ("undecided_frac", "fraction")):
        if name in extra:
            print(f"{name:48s} {extra[name]:14.6g} {unit}")
    if args.trace == 0:
        print(f"request_s.tail is p{extra['tail_percentile']} of {extra['samples']} requests")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
