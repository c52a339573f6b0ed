#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from a checkout:  python3 bench/selftest.py

1. expected.json agrees with the values the acceptance suite pins
   (criteria 5 to 8) wherever the two overlap.
2. A smoke pass per workload, one small invocation each, untraced and
   traced: every metric named in BENCHMARK.json is reported with its unit,
   and nothing fails.
3. A deliberately wrong expected value makes the run report a failure.
4. Every generated mutation is detected, for seeds 0..9 on every mutants
   invocation and for seeds 0..49 with every mutation kind on small models.

Exit status 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run
from checks import load_expected
from mutants import KINDS, mutate, mutation_rng
from workloads import WORKLOADS, Invocation

SMOKE = {
    "verify-ladder": Invocation("verify", "minimal:n=3", ("--rank", "--orbits", "--counts")),
    "verify-wide": Invocation("verify", "n5cl26", ("--rank", "--orbits")),
    "spectrum": Invocation("spectrum", "minimal:n=3", fock=8),
    "mutants": Invocation("mutant", "maximal:n=4", mutation="z-times-minus-1"),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def test_expected_matches_acceptance(expected: dict) -> None:
    def verify(sel: str, flags: str = "--rank --orbits --counts") -> dict:
        return expected[f"verify {sel} {flags}"]

    problems = []
    for n in range(2, 7):
        if set(verify(f"minimal:n={n}")["ranks"].values()) != {1}:
            problems.append(f"minimal:n={n} ranks")
        if set(verify(f"next:n={n}")["ranks"].values()) != {2 if n % 2 else 1}:
            problems.append(f"next:n={n} ranks")
    for sel, n, flags in (
        ("maximal:n=2", 2, None), ("maximal:n=3", 3, None), ("maximal:n=4", 4, None),
        ("n4cl12", 4, None),
        ("n5cl28", 5, "--rank --orbits"), ("n5cl26", 5, "--rank --orbits"),
    ):
        got = verify(sel, flags) if flags else verify(sel)
        charges = 1 << (n - 1)  # all central elements independent: full total rank
        if set(got["ranks"].values()) != {1 << (n - 2)} or got["total_rank"] != charges * (charges - 1) // 2:
            problems.append(f"{sel} ranks")
    if not verify("n4cl10")["ranks"]["1100"] < 4:
        problems.append("n4cl10 degree 1100 not rank-deficient")
    orbits = {2: [4, 4], 3: [16], 4: [16, 16], 5: [64]}
    for n, want in orbits.items():
        if verify(f"next:n={n}")["orbits"] != want:
            problems.append(f"next:n={n} orbits")
    counts = {
        "minimal:n=2": 4, "minimal:n=3": 8, "minimal:n=4": 16,
        "next:n=2": 4, "next:n=3": 16, "next:n=4": 16,
        "maximal:n=2": 4, "maximal:n=3": 16, "maximal:n=4": 256,
    }
    for sel, want in counts.items():
        if verify(sel)["generated_operators"] != want:
            problems.append(f"{sel} generated operators")
    fock = expected["spectrum minimal:n=3 --fock 8"]
    if fock["zero_modes"] != 4 or fock["multiplicities"][0] != 4 or set(fock["multiplicities"][1:]) != {8}:
        problems.append("minimal:n=3 Fock degeneracies")
    every = {inv.key for invs in WORKLOADS.values() for inv in invs}
    if set(expected) != every:
        problems.append(f"expected.json keys differ from the workloads: {sorted(set(expected) ^ every)}")
    check(not problems, f"expected.json agrees with acceptance criteria 5-8 {problems or ''}")


def benchmark_metrics() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def test_smoke(expected: dict) -> None:
    end_to_end, per_layer = benchmark_metrics()
    for workload, inv in SMOKE.items():
        for traced, units in ((False, end_to_end), (True, per_layer)):
            step = run.trace if traced else run.measure
            line = run.result_line(step(workload, 1, 0.1, (inv,), expected), run.PER_LAYER if traced else run.END_TO_END)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            check(
                got == units and line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                f"smoke {workload} trace {int(traced)}: metrics {'match' if got == units else 'DIFFER'}, "
                f"{line['failed']} of {line['attempted']} failed",
            )


def test_wrong_expectation_fails(expected: dict) -> None:
    for workload, field, value in (("verify-ladder", "orbits", [3]), ("mutants", "detected", False)):
        inv = SMOKE[workload]
        wrong = copy.deepcopy(expected)
        wrong[inv.key][field] = value
        for traced in (False, True):
            step = run.trace if traced else run.measure
            line = run.result_line(step(workload, 1, 0.1, (inv,), wrong), run.PER_LAYER if traced else run.END_TO_END)
            check(
                not line["correct"] and line["failed"] >= 1,
                f"wrong expected {field} on {inv.key} (trace {int(traced)}) reports a failure",
            )


def test_mutations_detected() -> None:
    from graded_sqm import build_from_selector, check_centrality, check_defining_relations

    missed = []
    tried = 0
    cases = [(inv.selector, inv.mutation, range(10)) for inv in WORKLOADS["mutants"]]
    cases += [(sel, kind, range(50)) for sel in ("maximal:n=4", "n4cl10", "next:n=3") for kind in KINDS]
    models = {}
    for sel, kind, seeds in cases:
        model = models.setdefault(sel, build_from_selector(sel))
        for seed in seeds:
            broken, what = mutate(model, kind, mutation_rng(seed, sel, kind))
            tried += 1
            if check_defining_relations(broken).overall and check_centrality(broken).overall:
                missed.append((sel, kind, seed, what))
    check(not missed, f"{tried} seeded mutations all detected {missed or ''}")


def main() -> int:
    if not (run.SRC / "graded_sqm" / "__init__.py").is_file():
        print(f"error: no graded_sqm package under {run.SRC}", file=sys.stderr)
        return 2
    for var in run.BLAS_VARS:
        os.environ[var] = run.BLAS_THREADS
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    expected = load_expected()
    test_expected_matches_acceptance(expected)
    test_smoke(expected)
    test_wrong_expectation_fails(expected)
    test_mutations_detected()
    print(f"{'all self-tests passed' if not failures else f'{len(failures)} self-test(s) FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
