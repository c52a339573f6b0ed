"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass.  Every tolerance is pinned here; the algebraic criteria are exact."""

import itertools
import json
import time

import numpy as np

from graded_sqm.clifford import (
    PauliOperator,
    anticommutes,
    commutes,
    gamma,
    gamma_tilde,
)
from graded_sqm.cli import main
from graded_sqm.grading import dot
from graded_sqm.realizations import FockRealization, spectrum
from graded_sqm.verify import (
    central_rank,
    check_centrality,
    check_defining_relations,
    count_generated_operators,
    orbit_decomposition,
)
from test_verify import mutate_model

RELATION_MODEL_SET = (
    [f"minimal:n={n}" for n in range(2, 8)]
    + [f"next:n={n}" for n in range(2, 7)]
    + [f"maximal:n={n}" for n in range(2, 6)]
    + ["n4cl12", "n4cl10", "n5cl28", "n5cl26"]
)

# supercharge / central / subspace-dimension counts, ranks 2..10
CENSUS_TABLE = {
    2: (2, 1, 1),
    3: (4, 6, 2),
    4: (8, 28, 4),
    5: (16, 120, 8),
    6: (32, 496, 16),
    7: (64, 2016, 32),
    8: (128, 8128, 64),
    9: (256, 32640, 128),
    10: (512, 130816, 256),
}


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_census_table(capsys, tmp_path):
    out = tmp_path / "census.json"
    t0 = time.time()
    code = main(["census", "--format", "json", "--out", str(out)])
    elapsed = time.time() - t0
    rows = {r["n"]: r for r in json.loads(out.read_text())}
    ok = code == 0 and elapsed < 1.0
    for n, (nq, nz, dz) in CENSUS_TABLE.items():
        ok = ok and (
            rows[n]["supercharges"],
            rows[n]["central_elements"],
            rows[n]["central_subspace_dim"],
        ) == (nq, nz, dz)
    with capsys.disabled():
        announce(1, ok, f"census table n=2..10 exact via CLI in {elapsed:.2f}s (< 1s)")


def test_criterion_2_defining_relations(capsys, models):
    t0 = time.time()
    failures = []
    for sel in RELATION_MODEL_SET:
        rep = check_defining_relations(models(sel))
        if not rep.overall:
            failures.append((sel, rep.failures()[:2]))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    with capsys.disabled():
        announce(
            2,
            ok,
            f"defining relations exact on {len(RELATION_MODEL_SET)} models in "
            f"{elapsed:.1f}s (< 60s){'; failures: ' + repr(failures) if failures else ''}",
        )


def test_criterion_3_centrality(capsys, models):
    t0 = time.time()
    failures = []
    for sel in RELATION_MODEL_SET:
        rep = check_centrality(models(sel))
        if not rep.overall:
            failures.append((sel, rep.failures()[:2]))
    elapsed = time.time() - t0
    ok = not failures
    with capsys.disabled():
        announce(
            3,
            ok,
            f"centrality exact (zero tolerance) on {len(RELATION_MODEL_SET)} models "
            f"in {elapsed:.1f}s{'; failures: ' + repr(failures) if failures else ''}",
        )


def test_criterion_4_commutation_dichotomies(capsys, models):
    bad = []
    checked = 0
    for sel in RELATION_MODEL_SET:
        m = models(sel)
        factors = {a: q.clifford for a, q in m.supercharges.items()}
        minimal = m.spec.family == "minimal"
        for a, b in itertools.combinations(m.odd_degrees, 2):
            if minimal:
                # four-case split on (inner product, last components)
                expect_commute = (dot(a, b) == 0) != (a.bits[-1] == b.bits[-1])
            else:
                expect_commute = dot(a, b) == 1
            holds = (
                commutes(factors[a], factors[b])
                if expect_commute
                else anticommutes(factors[a], factors[b])
            )
            checked += 1
            if not holds:
                bad.append((sel, str(a), str(b)))
    ok = not bad
    with capsys.disabled():
        announce(
            4,
            ok,
            f"factor commutation dichotomies hold exhaustively over {checked} pairs"
            f"{'; failures: ' + repr(bad[:3]) if bad else ''}",
        )


def test_criterion_5_rank_profile(capsys, models):
    t0 = time.time()
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    for n in range(2, 8):
        rep = central_rank(models(f"minimal:n={n}"))
        expect(all(e.rank == 1 for e in rep.entries), f"minimal:n={n} rank != 1")
    for n in range(2, 7):
        rep = central_rank(models(f"next:n={n}"))
        want = 2 if n % 2 else 1
        expect(all(e.rank == want for e in rep.entries), f"next:n={n} rank != {want}")
    for n in range(2, 6):
        rep = central_rank(models(f"maximal:n={n}"))
        expect(rep.all_independent, f"maximal:n={n} not independent")
        expect(
            all(e.rank == 1 << (n - 2) for e in rep.entries),
            f"maximal:n={n} per-degree rank != 2^(n-2)",
        )
    for sel, n in (("n4cl12", 4), ("n5cl28", 5), ("n5cl26", 5)):
        rep = central_rank(models(sel))
        expect(rep.all_independent, f"{sel} not independent")
        expect(
            all(e.rank == 1 << (n - 2) for e in rep.entries),
            f"{sel} per-degree rank != 2^(n-2)",
        )
    rep = central_rank(models("n4cl10"))
    by_degree = {e.degree: e for e in rep.entries}
    entry = by_degree["1100"]
    expect(entry.rank < 4, "n4cl10 degree-1100 subspace not rank-deficient")
    pair = {"Z[0100,1000]", "Z[0010,1110]"}
    expect(
        any(pair == set(c) for c in entry.classes),
        "n4cl10 dependent pair not detected as one proportionality class",
    )
    elapsed = time.time() - t0
    ok = not problems and elapsed < 10.0
    with capsys.disabled():
        announce(
            5,
            ok,
            f"rank profiles exact in {elapsed:.1f}s (< 10s)"
            f"{'; problems: ' + repr(problems[:3]) if problems else ''}",
        )


def test_criterion_6_spectral_degeneracy(capsys, models):
    t0 = time.time()
    problems = []
    fock = FockRealization(8)
    expectations = {"minimal:n=3": (4, 8), "next:n=3": (8, 16), "maximal:n=3": (8, 16)}
    for sel, (zero_mult, excited_mult) in expectations.items():
        rep = spectrum(models(sel), fock)
        if not rep.ok:
            problems.append((sel, rep.problems))
            continue
        zero = [c for c in rep.clusters if abs(c.value) <= 1e-9]
        excited = [c for c in rep.clusters if c.value > 1e-9]
        if not (zero and zero[0].multiplicity == zero_mult == rep.zero_modes):
            problems.append((sel, "zero modes", rep.zero_modes))
        if not all(c.multiplicity == excited_mult for c in excited):
            problems.append((sel, "excited", [c.multiplicity for c in excited]))
        if not all(abs(c.value - round(c.value)) <= 1e-9 for c in rep.clusters):
            problems.append((sel, "not integer clusters"))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 10.0
    with capsys.disabled():
        announce(
            6,
            ok,
            f"Fock W=x N=8 degeneracies (4/8, 8/16, 8/16) within 1e-9 in "
            f"{elapsed:.1f}s (< 10s){'; problems: ' + repr(problems) if problems else ''}",
        )


def test_criterion_7_reducibility(capsys, models):
    want = {2: (4, 4), 3: (16,), 4: (16, 16), 5: (64,)}
    got = {n: orbit_decomposition(models(f"next:n={n}")).component_sizes for n in want}
    ok = got == want
    with capsys.disabled():
        announce(
            7,
            ok,
            f"orbit components for the 2^(n+1)-dimensional family: {got}"
            + ("" if ok else f" expected {want}"),
        )


def test_criterion_8_generated_operator_counts(capsys, models):
    expectations = {
        "minimal:n=2": 4,
        "minimal:n=3": 8,
        "minimal:n=4": 16,
        "next:n=2": 4,
        "next:n=3": 16,
        "next:n=4": 16,
        "maximal:n=2": 4,
        "maximal:n=3": 16,
        "maximal:n=4": 256,
    }
    got = {sel: count_generated_operators(models(sel)) for sel in expectations}
    ok = got == expectations
    with capsys.disabled():
        announce(
            8,
            ok,
            f"generated-operator counts exact: {sorted(got.values())}"
            + ("" if ok else f" expected {expectations}"),
        )


def test_criterion_9_negative_controls(capsys, models):
    rng = np.random.default_rng(20240809)
    pool = [
        "minimal:n=2",
        "minimal:n=3",
        "minimal:n=4",
        "next:n=2",
        "next:n=3",
        "maximal:n=2",
        "maximal:n=3",
        "n4cl12",
        "n4cl10",
    ]
    trials = 24
    undetected = []
    for t in range(trials):
        sel = pool[t % len(pool)]
        broken = mutate_model(models(sel), rng)
        rel = check_defining_relations(broken)
        cen = check_centrality(broken)
        if rel.overall and cen.overall:
            undetected.append((t, sel))
    ok = not undetected
    with capsys.disabled():
        announce(
            9,
            ok,
            f"{trials} random single-site mutations (one bit of x or z, or k + 1..3) all detected"
            + ("" if ok else f"; missed: {undetected}"),
        )


def test_criterion_10_monomial_vs_dense_oracle(capsys):
    rng = np.random.default_rng(1234)
    words = 0
    max_dev = 0.0
    while words < 1000:
        m = int(rng.integers(1, 5))  # dimension 2, 4, 8, 16
        gens = [gamma(j, m) for j in range(1, m + 1)] + [
            gamma_tilde(j, m) for j in range(1, m + 1)
        ]
        dense = [g.to_dense() for g in gens]
        op = PauliOperator.identity(1 << m)
        mat = np.eye(1 << m, dtype=complex)
        for i in rng.integers(0, len(gens), size=int(rng.integers(1, 9))):
            op = op @ gens[i]
            mat = mat @ dense[i]
        dev = float(np.abs(op.to_dense() - mat).max())
        max_dev = max(max_dev, dev)
        words += 1
    ok = max_dev == 0.0
    with capsys.disabled():
        announce(
            10,
            ok,
            f"Pauli-string vs dense oracle on {words} random words (dim <= 16): "
            f"max abs deviation {max_dev}",
        )
