#!/usr/bin/env python3
"""Benchmark of graded-sqm: one workload for a fixed time, every output checked.

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``, nothing is installed.  Load is one closed loop: this process runs
one child at a time and starts the next when the last has ended.  A run
makes passes over the workload, each in an order drawn from ``--seed``, and
keeps starting calls while they fit in ``--seconds``; between calls it
times a few fresh interpreters that import the package and build the
workload's models (``setup_s``).  Each child's wall time and peak RSS come
from ``os.wait4``; each report is checked against ``expected.json``.
Times are reported in seconds at a fixed reference speed: a reference child
that uses nothing from this repository runs between the timed children and
measures how fast the shared machine is at that moment (see
``REFERENCE_CODE``).  The end-to-end metrics are built from each
invocation's median over the run: ``wall_s`` is the sum of the medians (one
pass), ``peak_rss_mb`` the largest; ``call_p50_s`` is the median call with
every invocation weighing the same.  Raw times are printed and recorded too.

With ``--trace 1`` the run makes one untraced pass, then replays the
workload in-process under spans (see ``tracing.py``) and reports per-layer
numbers instead.  Results and spans are written to ``.bench_out/``.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

from checks import load_expected, mismatches, summarize
from tracing import Tracer, pass_layers, replay, traced_spectrum_layers
from workloads import CALL_BUDGET_S, EXCLUDED, WORKLOADS, model_selectors

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread (at most nproc): eigensolves are then deterministic, so
# spectrum reports repeat byte for byte, and a run does not compete with
# itself for the two cores of the reference machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 7

# The speed reference: a fixed child that uses nothing from this repository
# (interpreter start-up, the numpy import, a bytecode loop, a small dense
# eigensolve).  The shared host's speed drifts by 20-40 % within minutes and
# by 10 % within seconds, for every kind of work alike, so raw wall times of
# runs minutes apart spread wider than any useful bound.  A reference child
# runs before every timed child and once after the last; each timed child's
# wall time is scaled by REFERENCE_S over the mean of the two reference
# times around it.  The end-to-end times are therefore seconds at the
# reference speed, the speed at which the reference child takes REFERENCE_S
# (its median on a 2-core x86-64 host); raw times are recorded beside them.
REFERENCE_CODE = """\
import numpy
s = 0
for i in range(300000):
    s += i * i % 7
a = numpy.arange(160 * 160, dtype=float).reshape(160, 160) % 7
numpy.linalg.eigvalsh(a + a.T)
"""
REFERENCE_S = 0.25
STARTUP_PROBES = 5
HARD_LIMIT_S = 150.0  # no call starts, and every call is killed, past this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
    "report_bytes": "B",
}
PER_LAYER = {
    "models.build_s": "s",
    "cli.startup_s": "s",
    "cli.render_s": "s",
    "verify.report_rows": "count",
    "verify.relations_s": "s",
    "verify.centrality_s": "s",
    "verify.rank_s": "s",
    "verify.orbits_s": "s",
    "verify.counts_s": "s",
    "verify.brackets": "count",
    "verify.brackets_per_s": "1/s",
    "verify.tensor_zero_s": "s",
    "clifford.product_s": "s",
    "clifford.products": "count",
    "sqm_block.product_s": "s",
    "verify.spectrum_s": "s",
    "sqm_block.realize_s": "s",
    "sqm_block.kernel_s": "s",
    "verify.spectrum_dense_bytes": "B",
    "verify.failed_rows": "count",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": BLAS_THREADS,
    }


class Clock:
    """The run's soft deadline (start new passes) and hard limit (kill calls)."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard = self.start + HARD_LIMIT_S

    def budget(self) -> float:
        return min(CALL_BUDGET_S, self.hard - time.perf_counter())


def run_child(argv: list[str], budget_s: float, stdout=subprocess.DEVNULL) -> dict:
    """Run one child to completion or until budget_s; wall time and peak RSS."""
    if budget_s <= 0:
        return {"wall_s": 0.0, "rss_mb": 0.0, "exit": None, "timed_out": True, "stderr": ""}
    err_path = OUT / "child.stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=err, env=child_env(), cwd=ROOT
        )
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill() -> None:
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(budget_s, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        with lock:
            state["reaped"] = True
        timer.cancel()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
        "timed_out": state["killed"],
        "stderr": err_path.read_text(errors="replace"),
    }


def run_invocation(inv, seed: int, expected: dict, clock: Clock) -> dict:
    """One child for one invocation, its report checked against expected."""
    report = OUT / "report.json"
    report.unlink(missing_ok=True)
    if inv.kind == "mutant":
        argv = [sys.executable, str(BENCH / "mutants.py"), inv.selector, inv.mutation, str(seed), str(report)]
    else:
        argv = [
            sys.executable, "-m", "graded_sqm", inv.kind, "--model", inv.selector,
            *inv.cli_options(), "--format", "json", "--out", str(report),
        ]
    call = run_child(argv, clock.budget())
    problems = []
    if call["timed_out"]:
        problems.append("killed: over its time budget")
    if "Traceback (most recent call last)" in call["stderr"]:
        problems.append("traceback on stderr")
    summary = None
    call["report_bytes"] = 0
    if report.exists():
        call["report_bytes"] = report.stat().st_size
        try:
            summary = summarize(inv.kind, json.loads(report.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        report.unlink()
    problems += mismatches(expected.get(inv.key), call["exit"], summary)
    del call["stderr"]
    return {"key": inv.key, **call, "problems": problems}


def ordered(workload: str, seed: int, pass_index: int, invocations) -> list:
    order = list(invocations)
    random.Random(f"{seed}:{workload}:{pass_index}").shuffle(order)
    return order


def run_pass(workload, seed, pass_index, invocations, expected, clock) -> dict:
    t0 = time.perf_counter()
    calls = [run_invocation(inv, seed, expected, clock) for inv in ordered(workload, seed, pass_index, invocations)]
    return {"wall_s": time.perf_counter() - t0, "calls": calls}


def warm_up() -> None:
    """Fill the bytecode cache before anything is timed."""
    run_child([sys.executable, "-c", "import graded_sqm.cli"], CALL_BUDGET_S)


class SpeedReference:
    """Reference children around the timed ones; see REFERENCE_CODE."""

    def __init__(self):
        self.problems: list[str] = []
        self.last = self.sample()

    def sample(self) -> float:
        call = run_child([sys.executable, "-c", REFERENCE_CODE], CALL_BUDGET_S)
        if call["exit"] != 0 or call["timed_out"]:
            self.problems.append("reference child failed")
        return call["wall_s"]

    def scale(self, call: dict) -> dict:
        """Called right after a timed child ends: adds its time at reference speed."""
        before, self.last = self.last, self.sample()
        call["ref_s"] = (before + self.last) / 2
        call["scaled_s"] = call["wall_s"] * REFERENCE_S / call["ref_s"]
        return call


class SetupSampler:
    """Times fresh interpreters that import the package and build the models.

    The samples are spread evenly over the run, between calls, instead of
    being taken back to back, so that they see the machine the calls see.
    """

    def __init__(self, selectors: list[str], clock: Clock, seconds: float, speed: SpeedReference):
        self.selectors = selectors
        self.clock = clock
        self.speed = speed
        self.due = [clock.start + seconds * i / SETUP_REPS for i in range(SETUP_REPS)]
        self.samples: list[dict] = []

    def sample(self) -> None:
        code = "import sys, graded_sqm\nfor s in sys.argv[1:]:\n    graded_sqm.build_from_selector(s)"
        call = self.speed.scale(run_child([sys.executable, "-c", code, *self.selectors], self.clock.budget()))
        ok = call["exit"] == 0 and not call["timed_out"]
        self.samples.append({"key": "setup", **call, "problems": [] if ok else ["setup child failed"]})

    def between_calls(self) -> None:
        """Take the next sample if it is due."""
        if len(self.samples) < SETUP_REPS and time.perf_counter() >= self.due[len(self.samples)]:
            self.sample()

    def finish(self) -> list[dict]:
        while len(self.samples) < SETUP_REPS:
            self.sample()
        return self.samples


def time_cli_startup(clock: Clock) -> dict:
    """Child start until graded_sqm.cli is imported (CLOCK_MONOTONIC is shared)."""
    probe = OUT / "probe.out"
    with open(probe, "wb") as out:
        t0 = time.monotonic()
        call = run_child(
            [sys.executable, "-c", "import time, graded_sqm.cli\nprint(time.monotonic())"],
            clock.budget(),
            stdout=out,
        )
    try:
        call["startup_s"] = float(probe.read_text()) - t0
        problems = [] if call["exit"] == 0 else ["startup probe failed"]
    except ValueError:
        call["startup_s"], problems = 0.0, ["startup probe printed no time"]
    return {"key": "cli-startup", **call, "problems": problems}


def percentile_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with 10 samples above it."""
    out = {"p50": statistics.median(values), "n": len(values)}
    rank = len(values) - 10
    if rank > len(values) // 2:
        out[f"p{math.floor(100 * rank / len(values))}"] = sorted(values)[rank - 1]
    return out


def median_of(unit: str, values: list) -> float | int:
    """Median; counts and byte totals stay whole numbers."""
    return statistics.median_low(values) if unit in ("count", "B") else statistics.median(values)


def invocation_median(by_key: dict[str, list[dict]]) -> float:
    """Median call time with every invocation weighing the same.

    All calls are pooled, each weighted by one over its invocation's call
    count, so the invocations that got an extra call in the run's last,
    partial pass do not shift it.  Pooling lets invocations of similar
    length (the start-up-bound small calls) share their samples.
    """
    weighted = sorted((c["scaled_s"], 1.0 / len(calls)) for calls in by_key.values() for c in calls)
    half = sum(w for _, w in weighted) / 2
    seen = 0.0
    for wall, weight in weighted:
        seen += weight
        if seen >= half * (1 - 1e-9):
            return wall
    raise ValueError("no calls")


def measure(workload: str, seed: int, seconds: float, invocations, expected) -> dict:
    """Calls in seeded passes until the deadline; metrics from per-invocation medians.

    The first pass always runs whole.  After it, a call starts only if its
    median so far still fits before the deadline, so the run's time is spent
    on calls rather than lost to a pass that no longer fits.  Each time is
    taken at reference speed (see REFERENCE_CODE), and each metric is built
    from every invocation's median over the run: a burst of machine noise
    during one call then moves one sample, not the result.
    """
    clock = Clock(seconds)
    warm_up()
    speed = SpeedReference()
    sampler = SetupSampler(model_selectors(workload), clock, seconds, speed)
    by_key: dict[str, list[dict]] = {inv.key: [] for inv in invocations}
    whole_passes = []
    complete = True
    while complete:
        this_pass = []
        for inv in ordered(workload, seed, len(whole_passes), invocations):
            samples = by_key[inv.key]
            if samples and time.perf_counter() + statistics.median(
                c["wall_s"] for c in samples
            ) + REFERENCE_S > clock.deadline:
                complete = False
                break
            sampler.between_calls()
            this_pass.append(speed.scale(run_invocation(inv, seed, expected, clock)))
        if complete:
            whole_passes.append(sum(c["wall_s"] for c in this_pass))
        for call in this_pass:
            by_key[call["key"]].append(call)
    setup = sampler.finish()
    calls = [c for samples in by_key.values() for c in samples]
    typical = {
        key: {
            "scaled_s": statistics.median(c["scaled_s"] for c in samples),
            "rss_mb": statistics.median(c["rss_mb"] for c in samples),
            "report_bytes": median_of("B", [c["report_bytes"] for c in samples]),
        }
        for key, samples in by_key.items()
    }
    metrics = {
        "setup_s": statistics.median(s["scaled_s"] for s in setup),
        "wall_s": sum(t["scaled_s"] for t in typical.values()),
        "call_p50_s": invocation_median(by_key),
        "peak_rss_mb": max(t["rss_mb"] for t in typical.values()),
        "report_bytes": sum(t["report_bytes"] for t in typical.values()),
    }
    stats = {  # the samples behind the metrics, as median, high percentile and count
        "setup samples, s at reference speed": [s["scaled_s"] for s in setup],
        "calls, s at reference speed": [c["scaled_s"] for c in calls],
        "setup samples, raw s": [s["wall_s"] for s in setup],
        "whole passes, raw s": whole_passes,
        "calls, raw s": [c["wall_s"] for c in calls],
        "reference child, raw s": [c["ref_s"] for c in setup + calls],
    }
    failed_refs = [{"key": "reference", "problems": [p]} for p in speed.problems]
    return {
        "metrics": metrics,
        "stats": {name: percentile_summary(values) for name, values in stats.items()},
        "typical": typical,
        "attempts": setup + calls + failed_refs,
        "passes": len(whole_passes),
        "calls": len(calls),
    }


def trace(workload: str, seed: int, seconds: float, invocations, expected) -> dict:
    clock = Clock(seconds)
    warm_up()
    untraced = run_pass(workload, seed, 0, invocations, expected, clock)
    probes = [time_cli_startup(clock) for _ in range(STARTUP_PROBES)]
    attempts = untraced["calls"] + probes

    tracer = Tracer()
    passes = []
    with traced_spectrum_layers(tracer):
        while True:
            first_span = len(tracer.spans)
            t0 = time.perf_counter()
            results = []
            for inv in ordered(workload, seed, len(passes), invocations):
                tracer.invocation += 1
                try:
                    res = replay(inv, seed, tracer)
                except Exception:  # a crash fails this invocation, not the run
                    attempts.append({"key": inv.key, "traced": True, "problems": [traceback.format_exc()]})
                    continue
                problems = mismatches(expected.get(inv.key), res["exit"], res["summary"])
                if not res["replay_consistent"]:
                    problems.append("replayed zero tests disagree with the check")
                attempts.append({"key": inv.key, "traced": True, "problems": problems})
                results.append(res)
            passes.append({"wall_s": time.perf_counter() - t0, **pass_layers(tracer, first_span, results)})
            if time.perf_counter() + statistics.median(p["wall_s"] for p in passes) > clock.deadline:
                break

    metrics = {
        name: median_of(unit, [p[name] for p in passes])
        for name, unit in PER_LAYER.items()
        if name != "cli.startup_s"
    }
    metrics["cli.startup_s"] = statistics.median(p["startup_s"] for p in probes)
    traced_wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "attempts": attempts,
        "passes": len(passes),
        "overhead": {
            "untraced_pass_s": untraced["wall_s"],
            "traced_pass_s": traced_wall,
            "overhead_s": traced_wall - untraced["wall_s"],
            "note": (
                "the untraced pass runs each invocation in a child process, the traced "
                "pass in-process with the relation-pair replays added; the difference is "
                "span cost plus replay work minus child start-up, not span cost alone"
            ),
        },
        "spans": tracer.spans,
    }


def print_report(workload: str, seed: int, trace_on: bool, result: dict, units: dict) -> None:
    attempts = result["attempts"]
    failed = [a for a in attempts if a["problems"]]
    calls = f"  calls {result['calls']}" if "calls" in result else ""
    print(f"workload {workload}  seed {seed}  trace {int(trace_on)}  whole passes {result['passes']}{calls}")
    for name, unit in units.items():
        value = result["metrics"][name]
        print(f"  {name:28s} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    for name, stats in result.get("stats", {}).items():
        print(f"    {name}: " + ", ".join(f"{k} {v:.6g}" for k, v in stats.items()))
    print(f"  {'failed_frac':28s} {len(failed) / len(attempts):.6g}  ({len(failed)} of {len(attempts)})")
    for a in failed:
        print(f"  FAILED {a['key']}: {'; '.join(a['problems'])}")
    if trace_on:
        o = result["overhead"]
        print(
            f"  tracing overhead {o['overhead_s']:.4g} s per pass "
            f"(traced {o['traced_pass_s']:.4g} s, untraced {o['untraced_pass_s']:.4g} s): {o['note']}"
        )
    print(f"  machine {json.dumps(machine_facts(), sort_keys=True)}")


def result_line(result: dict, units: dict) -> dict:
    """The object printed as the last line of stdout."""
    failed = sum(1 for a in result["attempts"] if a["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(result["attempts"]),
        "failed": failed,
        "metrics": {n: {"value": result["metrics"][n], "unit": u} for n, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graded_sqm" / "__init__.py").is_file():
        print(f"error: no graded_sqm package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before the traced replay imports numpy
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    invocations = WORKLOADS[args.workload]
    expected = load_expected()
    if args.trace:
        result = trace(args.workload, args.seed, args.seconds, invocations, expected)
        units = PER_LAYER
    else:
        result = measure(args.workload, args.seed, args.seconds, invocations, expected)
        units = END_TO_END
    print_report(args.workload, args.seed, bool(args.trace), result, units)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "excluded": EXCLUDED,
        **result,
    }
    name = f"{'trace' if args.trace else 'result'}-{args.workload}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result_line(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
