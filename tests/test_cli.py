import csv
import json
import os
import random
import subprocess
import sys
import textwrap
import threading
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import graded_sqm
from graded_sqm.cli import FORMATS, MAX_CONFIG_BYTES, main, make_grid_realization, parse_polynomial
from graded_sqm.models import Model, build_from_selector
from graded_sqm.realizations import MAX_FOCK_LEVELS, FockRealization, GridRealization
from graded_sqm.sqm_block import canonical_blocks
from graded_sqm.verify import PairCheck, RelationReport

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def central_times_last_supercharge(model: Model) -> Model:
    """The model with its first stored central element's Clifford factor
    multiplied by that of the last supercharge: no multiple of the identity,
    so the central element no longer commutes with every supercharge."""
    cents = dict(model.centrals)
    key = next(iter(cents))
    q = model.supercharges[model.odd_degrees[-1]]
    cents[key] = replace(cents[key], clifford=cents[key].clifford @ q.clifford)
    return Model(model.spec, model.odd_degrees, model.hamiltonian, model.supercharges, cents)


class TestCensus:
    def test_markdown_golden(self, capsys):
        code, out, _ = run(capsys, "census", "--format", "markdown")
        assert code == 0
        assert out == (GOLDEN / "census.md").read_text()

    def test_csv_golden(self, capsys):
        code, out, _ = run(capsys, "census", "--format", "csv")
        assert code == 0
        assert out == (GOLDEN / "census.csv").read_text()

    def test_json_values(self, capsys):
        code, out, _ = run(capsys, "census", "--format", "json")
        rows = {r["n"]: r for r in json.loads(out)}
        assert code == 0
        assert rows[2]["supercharges"] == 2
        assert rows[6]["central_elements"] == 496
        assert rows[7]["central_elements"] == 2016

    def test_subrange(self, capsys):
        code, out, _ = run(capsys, "census", "--n-from", "3", "--n-to", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "3,4,6,2"

    def test_range_guard(self, capsys):
        code, _, err = run(capsys, "census", "--n-to", "11")
        assert code == 2
        assert "census range" in err


class TestVerifyCommand:
    def test_passing_model_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["defining_relations"]["overall"] is True
        assert doc["centrality"]["overall"] is True

    @pytest.mark.parametrize("sel", ["next:n=+3", "next:n=\u0663", "next:n=3_0"])
    def test_rank_of_ascii_digits_only(self, capsys, sel):
        # int() would read these as n=3 and n=30
        code, out, err = run(capsys, "verify", "--model", sel)
        assert (code, out) == (2, "")
        assert "bad rank" in err

    def test_centrality_rows_are_aggregated(self, capsys):
        # one row for H and every central element; one row per (Z, Q) pair
        # made this report 22.5 MB, and one per left operator 0.4 MB
        code, out, _ = run(capsys, "verify", "--model", "next:n=7", "--format", "json")
        assert code == 0
        assert len(out.encode()) < 10_000
        rows = json.loads(out)["centrality"]["centrality_results"]
        assert rows == [
            {
                "kind": "graded", "left": "H and 2016 of 2016 central elements", "ok": True,
                "residual": None, "right": "64 supercharges and every later central element",
            }
        ]

    def test_centrality_markdown_counts_brackets(self, capsys, monkeypatch):
        # next:n=4 decides 8 + 28 + 28 * 8 + 28 * 27 / 2 = 638 centrality
        # brackets, whatever fails: a central element times a supercharge's
        # Clifford factor fails 19 of them
        code, out, _ = run(capsys, "verify", "--model", "next:n=4")
        assert code == 0
        lines = out.splitlines()
        assert "overall: **PASS** (64/64 checks)" in lines
        assert "overall: **PASS** (638/638 checks)" in lines
        broken = central_times_last_supercharge(build_from_selector("next:n=4"))
        monkeypatch.setattr("graded_sqm.models.build_from_selector", lambda selector: broken)
        code, out, _ = run(capsys, "verify", "--model", "next:n=4")
        assert code == 1
        lines = out.splitlines()
        assert "overall: **FAIL** (62/64 checks)" in lines
        assert "overall: **FAIL** (619/638 checks)" in lines

    def test_rank_flag_reports_dependency(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "n4cl10", "--rank")
        assert code == 0
        assert "dependencies present" in out
        assert "Z[0100,1000]" in out

    def test_orbits_and_counts(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "next:n=2", "--orbits", "--counts")
        assert code == 0
        assert "2 component(s)" in out
        assert "count: 4" in out

    def test_rank_cap_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "minimal:n=9")
        assert code == 2
        assert "limited to" in err

    def test_bad_selector(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "bogus:n=3")
        assert code == 2

    def test_missing_model(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        broken = RelationReport(
            "minimal:n=2",
            "defining-relations",
            2,
            pair_results=(PairCheck("Q[01]", "Q[01]", "anticommutator", False, "boom"),),
        )
        monkeypatch.setattr("graded_sqm.verify.check_defining_relations", lambda m: broken)
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=2")
        assert code == 1
        assert "FAIL" in out

    def test_non_monomial_block_exits_2(self, capsys, monkeypatch):
        # the exact checks accept only blocks i**k S**s Q**e, the Hamiltonian's too
        q, h, _ = canonical_blocks()
        m = build_from_selector("minimal:n=2")
        a = m.odd_degrees[0]
        charges = {**m.supercharges, a: replace(m.supercharges[a], block=q + h)}
        hamiltonian = replace(m.hamiltonian, block=h + q)
        for parts in [(m.hamiltonian, charges), (hamiltonian, m.supercharges)]:
            # the model refuses the block where it is made, inside the CLI's build
            monkeypatch.setattr(
                "graded_sqm.models.build",
                lambda spec, parts=parts: Model(m.spec, m.odd_degrees, *parts, m.centrals),
            )
            for command in (["verify", "--rank"], ["spectrum", "--fock", "4"]):
                code, out, err = run(capsys, command[0], "--model", "minimal:n=2", *command[1:])
                assert (code, out) == (2, "")
                assert "not a monomial" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=2", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "check,left,right,kind,status,residual"

    def test_csv_rows_have_six_fields(self, capsys, monkeypatch):
        # a passing model writes one row per check section; a failing
        # central element's label holds a comma, and a quoted field keeps
        # each row at the header's width
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 3 and {len(row) for row in rows} == {6}
        broken = central_times_last_supercharge(build_from_selector("minimal:n=3"))
        monkeypatch.setattr("graded_sqm.models.build_from_selector", lambda selector: broken)
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=3", "--format", "csv")
        assert code == 1
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 1 + 3 + 6 and {len(row) for row in rows} == {6}
        assert ["centrality", "Z[001,010]", "Q[010]"] in [row[:3] for row in rows]

    @pytest.mark.parametrize(
        "flags,status",
        [(["--fock", "4"], "pass"), (["--grid", "--W", "x+1"], "FAIL")],
        ids=["fock-pass", "grid-fail"],
    )
    def test_csv_reports_the_spectrum(self, capsys, flags, status):
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=2", *flags, "--format", "csv")
        assert code == (0 if status == "pass" else 1)
        rows = list(csv.reader(out.splitlines()))
        assert {len(row) for row in rows} == {6}
        *relations, last = rows[1:]
        assert all(row[4] == "pass" for row in relations)
        assert last[:2] == ["spectrum", "H"] and last[4] == status
        assert (last[5] == "") == (status == "pass")
        code, doc, _ = run(capsys, "verify", "--model", "minimal:n=2", *flags, "--format", "json")
        assert last[5] == "; ".join(json.loads(doc)["spectrum"]["problems"])

    @pytest.mark.parametrize("flag", ["--rank", "--orbits", "--counts"])
    def test_csv_refuses_sections_it_cannot_hold(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--model", "minimal:n=2", flag, "--format", "csv")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_verify_with_spectrum_section(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=3", "--fock", "6")
        assert code == 0
        assert "## spectrum" in out

    def test_maximal_rank4_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "maximal:n=4")
        assert code == 0
        assert "result: PASS" in out

    def test_jobs_flag_and_key_are_gone(self, capsys, tmp_path):
        args = ("verify", "--model", "minimal:n=3", "--rank")
        code, out, err = run(capsys, *args, "--jobs", "4")
        assert (code, out) == (2, "")
        assert "--jobs" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 4\n")
        code, out, err = run(capsys, *args, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "'jobs'" in err

    def test_rank5_counts(self, capsys):
        for sel in ("n5cl26", "n5cl28"):
            code, out, _ = run(capsys, "verify", "--model", sel, "--counts")
            assert code == 0
            assert "count: 65536" in out

    def test_counts_heading_uses_the_normalized_selector(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", " Next:n=2 ", "--counts")
        assert code == 0
        assert "## defining-relations — next:n=2\n" in out
        assert "## generated-operators — next:n=2\n\ncount: 4\n" in out

    @pytest.mark.parametrize(
        "flags",
        [("--grid", "--points", "40"), ("--fock", "65536"), ("--points", "41")],
        ids=["even-grid", "fock-work", "points-without-grid"],
    )
    def test_refused_realization_runs_no_exact_check(self, capsys, monkeypatch, flags):
        def refuse(model):
            pytest.fail("an exact check ran before the realization was refused")

        monkeypatch.setattr("graded_sqm.verify.check_defining_relations", refuse)
        args = ("--model", "maximal:n=8", "--rank", "--orbits", "--counts", *flags)
        code, out, _ = run(capsys, "verify", *args)
        assert (code, out) == (2, "")

    def test_json_golden(self, capsys):
        args = ("--model", "minimal:n=3", "--rank", "--orbits", "--counts", "--format", "json")
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert out == (GOLDEN / "verify_minimal_n3_rank_orbits_counts.json").read_text()

    def test_maximal_rank8_reports_exact_ints(self, capsys):
        # 127 qubits: the node count 2**128 and the generated-operator count
        # 2**128 must print as exact integers, not as floats
        args = ("verify", "--model", "maximal:n=8", "--rank", "--orbits", "--counts")
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["generated_operators"] == 1 << 128
        assert doc["orbits"]["num_nodes"] == 1 << 128
        assert doc["orbits"]["component_sizes"] == [1 << 128]
        assert (doc["rank"]["total_rank"], doc["rank"]["total_count"]) == (8128, 8128)
        code, out, _ = run(capsys, *args, "--format", "markdown")
        assert code == 0
        assert f"count: {1 << 128}\n" in out
        assert f"over {1 << 128} tensor-basis lines: sizes [{1 << 128}]" in out


class TestSpectrumCommand:
    def test_fock_golden(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "minimal:n=3", "--fock", "8", "--format", "markdown"
        )
        assert code == 0
        assert out == (GOLDEN / "spectrum_minimal_n3_fock8.md").read_text()

    def test_fock_json_golden(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "maximal:n=3", "--fock", "8", "--format", "json"
        )
        assert code == 0
        assert out == (GOLDEN / "spectrum_maximal_n3_fock8.json").read_text()

    def test_maximal_rank8_multiplicities_are_exact_ints(self, capsys):
        args = ("spectrum", "--model", "maximal:n=8", "--fock", "8")
        zero, excited = 1 << 127, 1 << 128
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_dim"] == 18 << 127
        assert [c["multiplicity"] for c in doc["clusters"]] == [zero] + [excited] * 7
        code, out, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:3] == [f"0,{zero},reported", f"1,{excited},reported"]
        code, out, _ = run(capsys, *args, "--format", "markdown")
        assert code == 0
        assert f"| 0 | {zero} |" in out and f"| 7 | {excited} |" in out

    @pytest.mark.parametrize("w", ["x", "x^3"])
    @pytest.mark.parametrize("points", [40, 41, 200, 201])
    def test_even_grids_are_refused(self, capsys, monkeypatch, points, w):
        # an even grid breaks the doubler pairing the multiplicity check
        # counts on, so it is a usage error, found before any matrix is built
        if points % 2 == 0:
            def refuse(self):
                pytest.fail("a ladder matrix was built for an even grid")

            monkeypatch.setattr(GridRealization, "lowering_matrix", refuse)
            monkeypatch.setattr(GridRealization, "word_matrix", refuse)
        grid = ("--grid", "--points", str(points), "--spacing", "0.05", "--W", w)
        code, out, err = run(capsys, "spectrum", "--model", "minimal:n=2", *grid)
        if points % 2:
            assert code == 0 and "result: **PASS**" in out
        else:
            assert (code, out) == (2, "")
            assert "only on odd grids" in err

    def test_grid_markdown_states_the_multiplicity_it_checks(self, capsys):
        # the lattice doubles every excited grid level and adds artifacts to
        # the zero cluster, and the expected line states the counts the check
        # uses; the JSON keeps the count per level and the physical zero count
        grid = ("spectrum", "--model", "minimal:n=2", "--grid", "--points", "101", "--spacing", "0.1")
        code, out, _ = run(capsys, *grid)
        assert code == 0
        assert (
            "expected: zero multiplicity 4 (2 + 2 discretization artifacts), "
            "excited multiplicity 8 (4 x 2 lattice copies)\n"
        ) in out
        rows = [line.split(" | ") for line in out.splitlines() if line.startswith("| ")]
        assert rows[0] == ["| energy", "multiplicity |"]
        assert [int(m.rstrip(" |")) for _, m in rows[1:]] == [4] + [8] * len(rows[2:])
        code, out, _ = run(capsys, *grid, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["expected_excited"] == 4 and "lattice_copies" not in doc
        assert (doc["expected_zero"], doc["artifact_modes"]) == (2, 2)

    def test_grid_cubic_zero_modes(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "minimal:n=2", "--grid", "--W", "x^3"
        )
        assert code == 0
        assert "zero modes: 2" in out

    @pytest.mark.parametrize(
        "w,code,zero",
        # W = 0 vanishes on every site, so each kernel vector lives on one
        # sublattice with neighbour overlap 0 up to rounding: no zero mode at
        # any size.  x^2 - 9 fails at every size; the zero modes of each W are
        # those the grids have always given.
        [("0", 0, (0, 0, 0, 0)), ("x", 0, (2, 2, 2, 2)), ("-x", 0, (2, 2, 2, 2)),
         ("x^3", 0, (2, 2, 2, 2)), ("x^2-9", 1, (0, 4, 4, 4))],
    )
    def test_grid_zero_modes_do_not_depend_on_rounding(self, capsys, w, code, zero):
        for (points, spacing), want in zip((("41", "0.25"), ("101", "0.1"), ("201", "0.05"), ("401", "0.025")), zero):
            status, out, _ = run(
                capsys, "spectrum", "--model", "minimal:n=2", "--grid", "--points", points,
                "--spacing", spacing, "--W", w, "--format", "json",
            )
            assert (status, json.loads(out)["zero_modes"]) == (code, want), points

    def test_next_rank2_fock(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "next:n=2", "--fock", "8", "--format", "csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        reported = {float(v): int(m) for v, m, status in rows if status == "reported"}
        assert reported[0.0] == 4
        assert all(reported[float(k)] == 8 for k in range(1, 8))

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "minimal:n=2", "--fock", "4", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "energy,multiplicity,status"

    def test_defaults_to_fock(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "minimal:n=2")
        assert code == 0
        assert "fock(cutoff=8" in out
        # the parser's default cutoff is the report of --fock 8, in every format
        for fmt in FORMATS:
            assert run(capsys, "spectrum", "--model", "minimal:n=2", "--format", fmt) == run(
                capsys, "spectrum", "--model", "minimal:n=2", "--fock", "8", "--format", fmt
            )
        # --grid wins over that default, and a typed --fock 8 still conflicts with it
        code, out, _ = run(capsys, "spectrum", "--model", "minimal:n=2", "--grid")
        assert code == 0 and "on grid(points=201" in out
        code, out, err = run(capsys, "spectrum", "--model", "minimal:n=2", "--fock", "8", "--grid")
        assert (code, out) == (2, "") and "not allowed with argument --fock/--cutoff" in err
        # verify has no default realization: no spectrum section
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=2")
        assert code == 0 and "spectrum" not in out

    def test_maximal_rank5_diagonalizes_the_block_only(self, capsys):
        # total dimension 589824: the dense Kronecker product would need
        # terabytes, the Hamiltonian block is 18 x 18
        code, out, _ = run(
            capsys, "spectrum", "--model", "maximal:n=5", "--fock", "8", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["zero_modes"] == 32768
        assert [c["multiplicity"] for c in doc["clusters"]] == [32768] + [65536] * 7

    def test_byte_guard_admits_a_small_block_of_a_large_model(self, capsys):
        # total dimension 2162688 but a 66 x 66 Hamiltonian block
        code, out, _ = run(
            capsys, "spectrum", "--model", "maximal:n=5", "--fock", "32", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_dim"] == 32768 * 66
        assert doc["zero_modes"] == 32768
        clusters = [*doc["clusters"], *doc["excluded"]]
        assert all(c["multiplicity"] % 32768 == 0 for c in clusters)
        assert sum(c["multiplicity"] for c in clusters) == doc["total_dim"]

    def test_byte_guard_refuses_before_building_the_block(self, capsys, monkeypatch, tmp_path):
        # a dense 40002 x 40002 complex block would take 25.6 GB, but the
        # exact Fock path builds none, so only its own work bounds it
        out = str(tmp_path / "report.json")
        proc = TestNumpyFree.run_fresh(
            f"""
            import sys

            from graded_sqm import cli

            argv = ["spectrum", "--model", "minimal:n=2", "--fock", "20000", "--format", "json"]
            assert cli.main([*argv, "--out", {out!r}]) == 0
            assert "numpy" not in sys.modules, "an exact Fock spectrum imported numpy"
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(Path(out).read_text())["clusters"]) == 20000

        def refuse(*args):
            pytest.fail("realize called past the work guard")

        def refuse_exact(*args):
            pytest.fail("a Fock level was read past the work guard")

        monkeypatch.setattr("graded_sqm.sqm_block.realize", refuse)
        monkeypatch.setattr(FockRealization, "word_matrix", refuse)
        monkeypatch.setattr(FockRealization, "kernel_levels", refuse_exact)
        # levels 0..cutoff: this cutoff is one level over the budget
        cutoff = str(MAX_FOCK_LEVELS)
        code, _, err = run(capsys, "spectrum", "--model", "minimal:n=2", "--fock", cutoff)
        assert code == 2
        assert "reduce the cutoff" in err

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_fock_cutoff_is_refused_where_it_is_made(self, capsys, monkeypatch, command):
        # one error line from the realization's constructor, ahead of any
        # exact check and of any Fock level
        def refuse(*args):
            pytest.fail("an exact check ran or a Fock level was read past the refused cutoff")

        monkeypatch.setattr("graded_sqm.verify.check_defining_relations", refuse)
        monkeypatch.setattr(FockRealization, "kernel_levels", refuse)
        code, out, err = run(capsys, command, "--model", "minimal:n=2", "--fock", str(MAX_FOCK_LEVELS))
        assert (code, out) == (2, "")
        assert err == f"error: Fock levels {MAX_FOCK_LEVELS + 1} are over {MAX_FOCK_LEVELS}; reduce the cutoff\n"

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_byte_guard_refuses_a_grid_before_building_it(self, capsys, monkeypatch, command):
        # 10**9 points: every float array of the grid would take 8 GB
        def refuse(*args, **kwargs):
            pytest.fail("GridRealization.from_function called past the byte guard")

        monkeypatch.setattr(GridRealization, "from_function", refuse)
        code, _, err = run(
            capsys, command, "--model", "minimal:n=2",
            "--grid", "--points", "1000000000", "--W", "x^3",
        )
        assert code == 2
        assert "bytes" in err and "reduce the grid size" in err and "cutoff" not in err

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize(
        "flag,key,value",
        [("--points", "grid.points", "51"), ("--spacing", "spacing", "0.1"), ("--W", "W", "x^3")],
    )
    def test_grid_options_need_grid(self, capsys, tmp_path, command, flag, key, value):
        for fock in ((), ("--fock", "8")):
            code, out, err = run(capsys, command, "--model", "minimal:n=2", *fock, flag, value)
            assert (code, out) == (2, "")
            assert "only with --grid" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = minimal:n=2\nrealization = fock\n{key} = {value}\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "only with --grid" in err

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def exhausted(model, realization):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr("graded_sqm.realizations.spectrum", exhausted)
        code, _, err = run(capsys, "spectrum", "--model", "minimal:n=2")
        assert code == 2
        assert err == "error: out of memory: cannot allocate\n"

    def test_bare_memory_error_has_no_dangling_colon(self, capsys, monkeypatch):
        def exhausted(model, realization):
            raise MemoryError

        monkeypatch.setattr("graded_sqm.realizations.spectrum", exhausted)
        assert run(capsys, "spectrum", "--model", "minimal:n=2") == (2, "", "error: out of memory\n")

    def test_negative_superpotential_as_a_separate_value(self, capsys):
        # argparse reads a separate value starting with "-" as an option
        grid = ("spectrum", "--model", "minimal:n=2", "--grid", "--points", "101", "--spacing", "0.1")
        glued = run(capsys, *grid, "--W=-x")
        assert glued[0] in (0, 1) and glued[1]
        assert run(capsys, *grid, "--W", "-x") == glued
        assert run(capsys, *grid, "--W", "-2*x^3 + x") == run(capsys, *grid, "--W=-2*x^3 + x")

    @pytest.mark.parametrize(
        "grid",
        [("--points", "101", "--spacing", "1e-200", "--W", "x"),
         ("--points", "401", "--spacing", "0.1", "--W", "x^200")],
        ids=["tiny-spacing", "steep-W"],
    )
    def test_overflowing_grid_levels_exit_2(self, capsys, grid):
        # the squared singular values would pass about 1.8e308 and the JSON
        # report would hold "value": Infinity
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "spectrum", "--model", "minimal:n=2", "--grid", *grid, "--format", "json"
            )
        assert (code, out, caught) == (2, "", [])
        assert err.startswith("error: grid levels overflow float64") and err.count("\n") == 1

    def test_overflowing_polynomial_prints_only_its_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "spectrum", "--model", "minimal:n=2", "--grid", "--W", "x^999999"
            )
        assert (code, out, caught) == (2, "", [])
        assert err == "error: superpotential values must be finite\n"

    @pytest.mark.parametrize("w", ["0", "x"])
    def test_grid_of_infinite_extent_is_one_error_line(self, capsys, w):
        # the outer coordinates (points - 1)/2 x spacing overflow: refused
        # before a coordinate is computed, with no numpy warning
        grid = ("--grid", "--points", "5", "--spacing", "1e308", "--W", w)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "spectrum", "--model", "minimal:n=2", *grid)
        assert (code, out, caught) == (2, "", [])
        assert err == (
            "error: grid extent (points - 1)/2 x spacing overflows float64 at spacing 1e+308; "
            "reduce the spacing\n"
        )

    def test_zero_cluster_multiplicity_verdict(self, capsys):
        # W = x^2 - 4 has no normalizable zero mode, but the grid's
        # near-zero levels form a cluster of 8
        code, out, _ = run(capsys, "spectrum", "--model", "minimal:n=2", "--grid", "--W", "x^2-4")
        assert code == 1
        assert out.endswith("result: **FAIL**\n- zero cluster multiplicity 8, expected 0\n")

    def test_conflicting_realizations(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "--model", "minimal:n=2", "--fock", "4", "--grid"
        )
        assert code == 2


class TestConfigAndOutput:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = minimal:n=2\nformat = json\n# comment\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_a_hash_inside_a_value_is_part_of_it(self, capsys, monkeypatch, tmp_path):
        # a # starts a comment only at the start of a line or after
        # whitespace, so these values mean what they mean as flags
        monkeypatch.chdir(tmp_path)
        np.savetxt("table#1.txt", ((np.arange(21) - 10) * 0.1) ** 3)
        flags = ["--model", "minimal:n=2", "--grid", "--points", "21", "--spacing", "0.1"]
        flags += ["--W", "@table#1.txt", "--format", "json", "--out", "run#3.json"]
        written = run(capsys, "spectrum", *flags)
        report = Path("run#3.json").read_text()
        assert "W=table:table#1.txt)" in report
        Path("run#3.json").unlink()
        Path("run.cfg").write_text(
            "# a grid spectrum\nmodel = minimal:n=2  # the smallest\nrealization = grid\n"
            "points = 21\nspacing = 0.1\nW = @table#1.txt\nformat = json\nout = run#3.json #here\n"
        )
        assert run(capsys, "spectrum", "--config", "run.cfg") == written
        assert Path("run#3.json").read_text() == report
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run#3.json", "run.cfg", "table#1.txt"]

    def test_cli_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=minimal:n=2\nformat=json\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--format", "markdown")
        assert code == 0
        assert out.startswith("## defining-relations")

    def test_config_booleans(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=next:n=2\norbits=true\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "component(s)" in out

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model minimal:n=2\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2

    def test_config_line_without_equals(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = minimal:n=2\norbits\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: bad config line 'orbits' (expected key=value)\n"

    def test_realization_config_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model=minimal:n=2\nrealization=grid\ngrid.points=121\ngrid.spacing=0.1\nW=x^3\n"
        )
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert "grid(points=121" in out

    @pytest.mark.parametrize("spacing", ["inf", "nan"])
    def test_non_finite_spacing_exits_2(self, capsys, tmp_path, spacing):
        # a table superpotential never evaluates W on the grid, so only the
        # spacing check stands between an infinite spacing and a zero derivative
        table = tmp_path / "w.txt"
        np.savetxt(table, np.linspace(-1.0, 1.0, 21) ** 3)
        flags = ("--model", "minimal:n=2", "--grid", "--points", "21", "--W", f"@{table}")
        code, _, err = run(capsys, "spectrum", *flags, "--spacing", spacing)
        assert code == 2
        assert "grid spacing must be finite and positive" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model=minimal:n=2\nrealization=grid\npoints=21\nspacing={spacing}\nW=x\n")
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 2
        assert "grid spacing must be finite and positive" in err

    @pytest.mark.parametrize(
        "config,flags,cutoff",
        [
            ("realization = fock\n", (), 8),
            ("cutoff = 12\nrealization = fock\n", (), 12),
            ("realization = fock\ncutoff = 12\n", (), 12),
            ("realization = fock\n", ("--fock", "20"), 20),
        ],
        ids=["default", "cutoff-before", "cutoff-after", "command-line"],
    )
    def test_fock_realization_runs_a_spectrum_in_verify(self, capsys, tmp_path, config, flags, cutoff):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = minimal:n=2\n" + config)
        code, out, _ = run(capsys, "verify", "--config", str(cfg), *flags)
        assert f"## spectrum — minimal:n=2 on fock(cutoff={cutoff}, W=x)" in out
        assert (code, out) == run(capsys, "verify", "--model", "minimal:n=2", "--fock", str(cutoff))[:2]

    def test_config_may_start_with_a_byte_order_mark(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = minimal:n=2\nformat = json\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
        flags = ("--model", "minimal:n=2", "--format", "json")
        want = run(capsys, "verify", *flags)
        assert want[0] == 0 and run(capsys, "verify", "--config", str(cfg)) == want

    def test_fock_cutoff_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=minimal:n=3\nrealization=fock\ncutoff=6\n")
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert "fock(cutoff=6" in out

    @pytest.mark.parametrize(
        "command,flags,config",
        [
            pytest.param(
                "verify",
                ["--model", "n4cl10", "--rank", "--orbits", "--counts", "--format", "json"],
                "model = n4cl10\nrank = yes\norbits = on\ncounts = 1\nformat = json\n",
                id="verify-switches",
            ),
            pytest.param(
                "verify",
                ["--model", "next:n=2", "--fock", "4", "--format", "csv"],
                "Model = next:n=2\nrank = false\ncounts = off\nfock = 4\nFORMAT = csv\n",
                id="verify-false-switches",
            ),
            pytest.param(
                "census",
                ["--n-from", "3", "--n-to", "5", "--format", "csv"],
                "n-from = 3\nn_to = 5\nformat = csv\n",
                id="census",
            ),
            pytest.param(
                "spectrum",
                ["--model", "minimal:n=3", "--fock", "6"],
                "model = minimal:n=3\nrealization = fock\ncutoff = 6\n",
                id="spectrum-cutoff",
            ),
            pytest.param(
                "spectrum",
                ["--model", "minimal:n=2", "--grid", "--points", "41", "--spacing", "0.1",
                 "--W", "x^3", "--format", "json"],
                "model=minimal:n=2\nrealization=grid\ngrid.points=41\ngrid.spacing=0.1\n"
                "W=x^3\nformat=json\n",
                id="spectrum-grid-aliases",
            ),
            pytest.param(
                "spectrum",
                ["--model", "next:n=2", "--grid", "--points", "21", "--spacing", "0.2", "--W=-x"],
                "model = next:n=2\ngrid = true\npoints = 21\nspacing = 0.2\nw = -x\n",
                id="spectrum-grid",
            ),
        ],
    )
    def test_config_gives_the_output_of_its_flags(self, capsys, tmp_path, command, flags, config):
        code, out, _ = run(capsys, command, *flags)
        assert code == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert run(capsys, command, "--config", str(cfg))[:2] == (code, out)

    @pytest.mark.parametrize(
        "command,line",
        [
            ("verify", "format = yaml"),
            ("spectrum", "fock = 2.5"),
            ("verify", "rank = maybe"),
            ("verify", "rnak = true"),
            ("spectrum", "rank = true"),
            ("spectrum", "rank = false"),
            ("census", "realization = fock"),
            ("verify", "config = other.cfg"),
        ],
    )
    def test_bad_config_value_exits_2(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = minimal:n=2\n{line}\n" if command != "census" else line)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "error" in err

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "census", "--format", "json", "--out", str(dest)
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())[0]["n"] == 2


@contextmanager
def other_side_opened_after(fifo: Path, mode: str, seconds: float = 10.0):
    """Open ``fifo`` in ``mode`` after ``seconds`` unless the block is done
    by then: a call that waits on the FIFO then fails, where it would hang."""
    done = threading.Event()

    def open_other_side():
        if not done.wait(seconds):
            with open(fifo, mode):
                pass

    opener = threading.Thread(target=open_other_side, daemon=True)
    opener.start()
    try:
        yield
    finally:
        done.set()
        opener.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
class TestInputAndOutputFiles:
    """Only regular files are read, each up to its bound, and no input or
    output file can hold a call: each refusal is one line and exit 2."""

    def flags(self, which: str, path: str) -> tuple[str, ...]:
        if which == "config":
            return ("verify", "--config", path)
        return ("spectrum", "--model", "minimal:n=2", "--grid", "--points", "5", "--W", f"@{path}")

    @pytest.mark.parametrize(
        "which,what", [("config", "config"), ("table", "superpotential table")], ids=["config", "table"]
    )
    @pytest.mark.parametrize("target", ["fifo", "/dev/zero", "directory"])
    def test_only_a_regular_file_is_read(self, capsys, tmp_path, which, what, target):
        if target == "fifo":
            path = tmp_path / "fifo"
            os.mkfifo(path)
        elif target == "directory":
            path = tmp_path
        elif os.path.exists(target):
            path = Path(target)
        else:
            pytest.skip(f"no {target}")
        with other_side_opened_after(path, "wb") if target == "fifo" else nullcontext():
            got = run(capsys, *self.flags(which, str(path)))
        assert got == (2, "", f"error: {what} {str(path)!r} is not a regular file\n")

    def test_config_is_read_up_to_its_bound(self, capsys, tmp_path):
        body = "model = minimal:n=2\nformat = json\n"
        want = run(capsys, "verify", "--model", "minimal:n=2", "--format", "json")
        cfg = tmp_path / "run.cfg"
        for size in (MAX_CONFIG_BYTES, MAX_CONFIG_BYTES + 1):
            cfg.write_text("#" * (size - len(body) - 1) + "\n" + body)
            assert cfg.stat().st_size == size
            got = run(capsys, "verify", "--config", str(cfg))
            if size == MAX_CONFIG_BYTES:
                assert want[0] == 0 and got == want
            else:
                assert got == (2, "", f"error: config {str(cfg)!r} is over {MAX_CONFIG_BYTES} bytes\n")

    def test_out_to_a_fifo_with_no_reader_is_refused(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with other_side_opened_after(fifo, "rb"):
            code, out, err = run(capsys, "census", "--out", str(fifo))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 6] ") and err.endswith(f"{str(fifo)!r}\n")
        assert err.count("\n") == 1

    def test_out_to_a_regular_file_gets_the_report(self, capsys, tmp_path):
        code, want, _ = run(capsys, "verify", "--model", "minimal:n=2", "--format", "csv")
        dest = tmp_path / "report.csv"
        dest.write_text("an older and much longer report\n" * 100)
        flags = ("verify", "--model", "minimal:n=2", "--format", "csv", "--out", str(dest))
        assert run(capsys, *flags) == (code, "", "")
        assert dest.read_bytes() == want.encode()


class TestSuperpotentialParsing:
    def test_simple_forms(self):
        assert parse_polynomial("x") == [(1.0, 1)]
        assert parse_polynomial("x^3") == [(1.0, 3)]
        assert parse_polynomial("-x") == [(-1.0, 1)]
        assert parse_polynomial("2*x^3 - x") == [(2.0, 3), (-1.0, 1)]
        assert parse_polynomial("0.5*x^2 + 3") == [(0.5, 2), (3.0, 0)]

    def test_bad_expressions(self):
        for expr in ("", "y", "x**3", "x^", "\u0663x", "x^\u0663"):
            with pytest.raises(ValueError):
                parse_polynomial(expr)

    def test_table_file(self, tmp_path):
        x = (np.arange(51) - 25) * 0.1
        path = tmp_path / "w.txt"
        np.savetxt(path, x**3)
        r = make_grid_realization(51, 0.1, str(path))
        assert r.w_values == pytest.approx(x**3)

    def test_polynomial_wins_over_a_file_of_its_name(self, capsys, monkeypatch, tmp_path):
        # beside a file named x, --W x is still the oscillator; @x is the table
        monkeypatch.chdir(tmp_path)
        x = (np.arange(51) - 25) * 0.1
        np.savetxt("x", x**3)
        r = make_grid_realization(51, 0.1, "x")
        assert r.label == "x" and r.w_values == pytest.approx(x)
        r = make_grid_realization(51, 0.1, "@x")
        assert r.label == "table:x" and r.w_values == pytest.approx(x**3)
        grid = ("spectrum", "--model", "minimal:n=2", "--grid", "--points", "51", "--spacing", "0.1")
        code, out, _ = run(capsys, *grid, "--W", "x")
        assert code == 0 and "W=x)" in out
        code, out, _ = run(capsys, *grid, "--W", "@x")
        assert "W=table:x)" in out

    def test_table_length_mismatch(self, tmp_path):
        path = tmp_path / "w.txt"
        np.savetxt(path, np.zeros(10))
        with pytest.raises(ValueError):
            make_grid_realization(51, 0.1, str(path))


    @pytest.mark.parametrize(
        "w",
        ["x" * 300, "x^", "\u0663x", "x^\u0663"],
        ids=["name-too-long", "dangling-power", "non-ascii-coefficient", "non-ascii-power"],
    )
    def test_unparseable_w_reports_the_parse_error(self, capsys, w):
        # a W too long to be a file name is no file, not an OS error; float()
        # and int() read the Arabic-Indic digit three as 3, but a W polynomial,
        # like a selector's rank, takes ASCII digits only
        grid = ("spectrum", "--model", "minimal:n=2", "--grid", "--points", "5")
        code, out, err = run(capsys, *grid, "--W", w)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse superpotential term {'+' + w!r} in {w!r}\n"

    @pytest.mark.parametrize(
        "command,settings,flag,kind",
        [
            ("spectrum", [("fock", "\u0668")], "--fock/--cutoff", "int"),
            ("spectrum", [("grid", "true"), ("points", "\u0664\u0661")], "--points/--grid.points", "int"),
            ("spectrum", [("grid", "true"), ("spacing", "\u0660.\u0662\u0665")], "--spacing/--grid.spacing", "float"),
            ("census", [("n-from", "\u0663")], "--n-from", "int"),
            ("spectrum", [("fock", "1_0")], "--fock/--cutoff", "int"),
            ("spectrum", [("grid", "true"), ("spacing", "1_0")], "--spacing/--grid.spacing", "float"),
            ("census", [("n-from", "1_0")], "--n-from", "int"),
        ],
        ids=["fock-arabic", "points-arabic", "spacing-arabic", "n-from-arabic",
             "fock-underscore", "spacing-underscore", "n-from-underscore"],
    )
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_numbers_are_ascii_without_underscores(self, capsys, tmp_path, command, settings, flag, kind, via):
        # int() and float() read any Unicode digit and a _ between digits; a
        # number flag, like a selector's rank and a W polynomial, does not
        if command == "spectrum":
            settings = [("model", "minimal:n=2"), *settings]
        if via == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings), encoding="utf-8")
            argv = ["--config", str(cfg)]
        else:
            argv = [a for k, v in settings for a in ([f"--{k}"] if v == "true" else [f"--{k}", v])]
        code, out, err = run(capsys, command, *argv)
        value = settings[-1][1]
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: invalid {kind} value: {value!r}\n")
        assert "Traceback" not in err

    def test_table_over_the_byte_guard_is_refused(self, capsys, monkeypatch, tmp_path):
        # the table is read up to its own byte bound and no further
        guard = 1000
        monkeypatch.setattr("graded_sqm.cli.MAX_TABLE_BYTES", guard)
        body = "0\n" * 5
        path = tmp_path / "w.txt"
        grid = ("spectrum", "--model", "minimal:n=2", "--grid", "--points", "5", "--W", f"@{path}")
        path.write_text("#" * (guard - len(body) - 1) + "\n" + body)
        assert path.stat().st_size == guard
        assert run(capsys, *grid)[0] == 0
        path.write_text("#" * (guard - len(body)) + "\n" + body)
        code, out, err = run(capsys, *grid)
        assert (code, out) == (2, "")
        assert err == f"error: superpotential table {str(path)!r} is over {guard} bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_table_is_refused(self, capsys):
        code, out, err = run(capsys, "spectrum", "--model", "minimal:n=2", "--grid", "--W", "@/dev/zero")
        assert (code, out) == (2, "")
        assert err == "error: superpotential table '/dev/zero' is not a regular file\n"

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("warn", ["default", "error"])
    @pytest.mark.parametrize("text", ["", "# no values\n"], ids=["empty", "comments"])
    def test_empty_table_is_one_error_line(self, tmp_path, command, warn, text):
        # a table with no values is a usage error, with no numpy warning on
        # stderr, also when warnings are errors
        path = tmp_path / "w.txt"
        path.write_text(text)
        src = str(Path(graded_sqm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        argv = [command, "--model", "minimal:n=2", "--grid", "--points", "5", "--W", f"@{path}"]
        proc = subprocess.run(
            [sys.executable, "-W", warn, "-m", "graded_sqm", *argv],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: superpotential table {str(path)!r} has 0 values, expected 5"
        ]


class TestClosedStdout:
    # the child waits for a line on stdin, so its stdout has no reader left
    # when it writes the report
    CHILD = """
import sys
from graded_sqm import cli, verify
from graded_sqm.verify import PairCheck, RelationReport
if sys.argv[1] == "verify":
    row = PairCheck("Q[01]", "Q[01]", "anticommutator", False, "boom")
    broken = RelationReport("minimal:n=2", "defining-relations", 2, pair_results=(row,))
    verify.check_defining_relations = lambda model: broken
sys.stdin.readline()
sys.exit(cli.main(sys.argv[1:]))
"""

    @pytest.mark.parametrize(
        "argv, status", [(["census"], 0), (["verify", "--model", "minimal:n=2"], 1)]
    )
    def test_reader_that_stops_early_is_not_an_error(self, argv, status):
        src = str(Path(graded_sqm.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, *argv],
            env={**os.environ, "PYTHONPATH": path},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        proc.stdin.write(b"\n")
        proc.stdin.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (status, b"")


class TestAsciiLocale:
    """A report is UTF-8 whatever the locale: its headers hold an em dash."""

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--model", "minimal:n=2"], ["spectrum", "--model", "next:n=3", "--fock", "6"]],
        ids=["verify", "spectrum"],
    )
    def test_markdown_under_the_c_locale_is_the_utf8_report(self, tmp_path, argv):
        src = str(Path(graded_sqm.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        reports = []
        for utf8, env in [
            ("1", {}),
            ("0", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}),
        ]:
            out = tmp_path / f"utf8-{utf8}.md"
            for target in (["--out", str(out)], []):
                proc = subprocess.run(
                    [sys.executable, "-X", f"utf8={utf8}", "-m", "graded_sqm", *argv, *target],
                    env={**os.environ, "PYTHONPATH": path, **env},
                    capture_output=True,
                )
                assert (proc.returncode, proc.stderr) == (0, b"")
                reports.append(out.read_bytes() if target else proc.stdout)
        assert "—".encode() in reports[0]
        assert reports == [reports[0]] * 4

    def test_a_utf8_config_is_read_under_the_c_locale(self, tmp_path):
        # a config file is UTF-8 too, whatever the locale: here in a comment
        cfg = tmp_path / "utf.cfg"
        cfg.write_text("model = minimal:n=2  # minimal — smallest\nformat = csv\n", encoding="utf-8")
        src = str(Path(graded_sqm.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        reports = []
        for utf8, env in [
            ("1", {}),
            ("0", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}),
        ]:
            proc = subprocess.run(
                [sys.executable, "-X", f"utf8={utf8}", "-m", "graded_sqm", "verify", "--config", str(cfg)],
                env={**os.environ, "PYTHONPATH": path, **env},
                capture_output=True,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            reports.append(proc.stdout)
        assert reports[0].startswith(b"check,left,right,kind,status,residual\n")
        assert reports[1] == reports[0]


class TestNumpyFree:
    @staticmethod
    def run_fresh(script: str) -> subprocess.CompletedProcess:
        # a fresh interpreter, so that no earlier test has imported numpy
        src = str(Path(graded_sqm.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )

    def test_exact_path_never_imports_numpy(self, tmp_path):
        out = str(tmp_path / "report.csv")
        proc = self.run_fresh(
            f"""
            import sys

            import graded_sqm
            from graded_sqm import cli

            model = graded_sqm.build_from_selector("next:n=4")
            assert graded_sqm.check_defining_relations(model).overall
            assert graded_sqm.check_centrality(model).overall
            graded_sqm.central_rank(model)
            graded_sqm.orbit_decomposition(model)
            graded_sqm.count_generated_operators(model)
            out = {out!r}
            argv = ["verify", "--model", "next:n=4", "--format", "csv", "--out", out]
            assert cli.main(argv) == 0
            assert cli.main(["census", "--out", out]) == 0
            assert "numpy" not in sys.modules, "the exact path imported numpy"
            assert cli.main(["spectrum", "--model", "next:n=4", "--fock", "8", "--out", out]) == 0
            assert cli.main(["verify", "--model", "next:n=4", "--fock", "6", "--out", out]) == 0
            assert "numpy" not in sys.modules, "an exact Fock spectrum imported numpy"
            grid = ["--grid", "--points", "41", "--spacing", "0.25", "--W", "x"]
            assert cli.main(["spectrum", "--model", "minimal:n=2", *grid, "--out", out]) == 0
            assert "numpy" in sys.modules
            """
        )
        assert proc.returncode == 0, proc.stderr

    def test_fock_spectra_run_with_numpy_blocked(self, tmp_path):
        out = str(tmp_path / "report.md")
        proc = self.run_fresh(
            f"""
            import sys

            sys.modules["numpy"] = None  # any import of numpy now raises
            from graded_sqm import cli

            out = {out!r}
            assert cli.main(["spectrum", "--model", "next:n=4", "--fock", "8", "--out", out]) == 0
            assert cli.main(["verify", "--model", "next:n=4", "--fock", "6", "--out", out]) == 0
            """
        )
        assert proc.returncode == 0, proc.stderr


class TestStartup:
    """What a call loads: the package resolves its names lazily, and a
    command imports only the modules it runs."""

    @staticmethod
    def loaded(script: str) -> set[str]:
        """The graded_sqm modules, and numpy if loaded, after a fresh
        interpreter runs the script."""
        report = "import json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('graded_sqm')"
        report += " or m == 'numpy']))\n"
        proc = TestNumpyFree.run_fresh(textwrap.dedent(script) + report)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_import_loads_no_submodule(self):
        assert self.loaded("import graded_sqm\n") == {"graded_sqm"}

    def test_verify_loads_no_realization(self, tmp_path):
        out = str(tmp_path / "report.json")
        loaded = self.loaded(
            f"""
            from graded_sqm import cli

            argv = ["verify", "--model", "next:n=4", "--rank", "--orbits", "--counts"]
            assert cli.main([*argv, "--format", "json", "--out", {out!r}]) == 0
            """
        )
        assert "graded_sqm.verify" in loaded
        assert "graded_sqm.realizations" not in loaded and "numpy" not in loaded

    @staticmethod
    def added(argv: list[str]) -> set[str]:
        """The modules a fresh interpreter adds while the CLI runs argv to exit 0."""
        script = f"""
            import json, sys
            before = set(sys.modules)
            from graded_sqm import cli

            assert cli.main({argv!r}) == 0
            print(json.dumps(sorted(set(sys.modules) - before)))
            """
        proc = TestNumpyFree.run_fresh(textwrap.dedent(script))
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--model", "next:n=4", "--rank", "--orbits", "--counts", "--format", "json"],
            ["--model", "minimal:n=3"],
        ],
        ids=["next4-every-section", "minimal3-checks"],
    )
    def test_verify_loads_no_dataclasses_block_algebra_or_views(self, tmp_path, argv):
        # the exact checks read the model's packed tables: no module that
        # defines an operator object is imported, nor dataclasses
        added = self.added(["verify", *argv, "--out", str(tmp_path / "report")])
        assert not added & {"dataclasses", "graded_sqm.sqm_block", "graded_sqm.operators"}
        assert {m for m in added if m.startswith("graded_sqm")} == {
            "graded_sqm", "graded_sqm.cli", "graded_sqm.grading", "graded_sqm.models",
            "graded_sqm.verify",
        }

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["spectrum", "--model", "next:n=4", "--fock", "8"], set()),
            (
                ["spectrum", "--model", "minimal:n=2", "--grid", "--points", "41",
                 "--spacing", "0.25", "--W", "x"],
                {"numpy"},
            ),
            (["verify", "--model", "next:n=4", "--fock", "8"], {"graded_sqm.verify"}),
        ],
        ids=["fock-spectrum", "grid-spectrum", "verify-fock"],
    )
    def test_spectrum_loads_no_dataclasses_or_block_algebra(self, tmp_path, argv, extra):
        # the realizations are plain classes and the spectrum reads the
        # ladder pair alone, so neither dataclasses nor the word algebra loads
        added = self.added([*argv, "--out", str(tmp_path / "report")])
        assert not added & {"dataclasses", "graded_sqm.sqm_block"}
        assert {m for m in added if m.startswith("graded_sqm") or m == "numpy"} == {
            "graded_sqm", "graded_sqm.cli", "graded_sqm.grading", "graded_sqm.models",
            "graded_sqm.realizations", *extra,
        }

    def test_fock_spectrum_loads_realizations_without_numpy(self, tmp_path):
        out = str(tmp_path / "report.md")
        loaded = self.loaded(
            f"""
            from graded_sqm import cli

            assert cli.main(["spectrum", "--model", "next:n=4", "--fock", "8", "--out", {out!r}]) == 0
            """
        )
        assert "graded_sqm.realizations" in loaded and "numpy" not in loaded
        assert "graded_sqm.verify" not in loaded

    def test_grid_spectrum_loads_no_exact_engine(self, tmp_path):
        out = str(tmp_path / "report.md")
        loaded = self.loaded(
            f"""
            from graded_sqm import cli

            grid = ["--grid", "--points", "41", "--spacing", "0.25", "--W", "x"]
            assert cli.main(["spectrum", "--model", "minimal:n=2", *grid, "--out", {out!r}]) == 0
            """
        )
        assert "graded_sqm.realizations" in loaded and "numpy" in loaded
        assert "graded_sqm.verify" not in loaded

    def test_census_loads_no_model(self, tmp_path):
        out = str(tmp_path / "census.md")
        loaded = self.loaded(
            f"""
            from graded_sqm import cli

            assert cli.main(["census", "--out", {out!r}]) == 0
            """
        )
        assert loaded == {"graded_sqm", "graded_sqm.cli", "graded_sqm.grading"}

    def test_operator_objects_resolve_from_operators_only(self):
        from graded_sqm import models, operators, sqm_block, verify

        for module, name in [
            (models, "GradedOperator"), (verify, "TensorSum"), (verify, "TensorTerm"),
            (verify, "graded_bracket_terms"),
        ]:
            assert hasattr(operators, name)
            with pytest.raises(AttributeError):
                getattr(module, name)
        # the benchmark's tracer wraps these where verify looks them up
        assert verify.realize is sqm_block.realize
        assert verify.ground_state_pair is sqm_block.ground_state_pair

    def test_every_public_name_resolves_to_its_module(self):
        import importlib

        assert len(set(graded_sqm.__all__)) == len(graded_sqm.__all__)
        for name in graded_sqm.__all__:
            module = importlib.import_module(f"graded_sqm.{graded_sqm._MODULE_OF[name]}")
            assert getattr(graded_sqm, name) is getattr(module, name), name
        with pytest.raises(AttributeError):
            graded_sqm.no_such_name

    def test_graded_operator_stays_a_dataclass(self, models):
        import dataclasses

        q = next(iter(models("minimal:n=2").supercharges.values()))
        p = dataclasses.replace(q, block=q.block * -1)
        assert type(p) is type(q) and p.block == q.block * -1
        assert (p.clifford, p.degree, p.role) == (q.clifford, q.degree, q.role)


class TestInputSweep:
    """Seeded random command lines and config files: every call ends with
    exit 0, 1 or 2 and raises nothing, and a config file gives the status
    and stdout of the flags it stands for."""

    KEYS = {
        "census": ["n-from", "n_to", "format", "FORMAT"],
        "verify": ["rank", "orbits", "counts", "format", "fock", "cutoff"],
        "spectrum": ["format", "fock", "cutoff", "realization"],
    }
    GRID_KEYS = ["points", "grid.points", "spacing", "grid.spacing", "W", "w"]
    FOREIGN_KEYS = ["rnak", "jobs", "colour", "rank", "n-from", "grid", "model", "realization"]
    SWITCHES = {"census": set(), "verify": {"rank", "orbits", "counts", "grid"}, "spectrum": {"grid"}}
    ALIASES = {"cutoff": "fock", "grid.points": "points", "grid.spacing": "spacing", "w": "W"}
    SELECTORS = (
        [f"{family}:n={n}" for family in ("minimal", "next", "maximal") for n in (2, 3, 4)]
        + ["n4cl10", "n4cl12"]
    )
    BAD_SELECTORS = [
        "bogus:n=3", "minimal", "minimal:n=x", "next:n=", "maximal;n=3", "n4cl11", "",
        "minimal:n=1", "minimal:n=9", "next:n=0", "maximal:n=9", "minimal:n=-2",
    ]
    SUPERPOTENTIALS = ["x", "-x", "x^3", "2*x^3 - x", "0.5*x^2 + x", "3", "x^2", "x^40", "-2*x^5"]
    BAD_SUPERPOTENTIALS = [
        "y", "x**3", "x^", "", "+", "x -", "1e3*x", "@no-such-table.txt", "\u0663x", "x^\u0663",
    ]

    @classmethod
    def value(cls, rng: random.Random, key: str) -> str:
        """A good value for the key, or one time in six a bad one."""
        good = rng.random() < 5 / 6
        key = cls.ALIASES.get(key.lower(), key).lower().replace("_", "-")
        if key == "model":
            return rng.choice(cls.SELECTORS if good else cls.BAD_SELECTORS)
        if key == "format":
            return rng.choice(["markdown", "json", "csv"] if good else ["yaml", "JSON", ""])
        if key == "fock":
            return str(rng.randint(1, 64)) if good else rng.choice(["0", "-3", "2.5", "abc", "\u0668", "1_0"])
        if key == "points":
            return str(rng.randint(3, 64)) if good else rng.choice(["0", "2", "-5", "x", "\u0668", "1_0"])
        if key == "spacing":
            good_spacing = f"{rng.uniform(0.05, 0.5):.3f}"
            bad_spacing = ["0", "-0.1", "inf", "nan", "abc", "\u0660.\u0662\u0665"]
            return good_spacing if good else rng.choice(bad_spacing)
        if key == "w":
            return rng.choice(cls.SUPERPOTENTIALS if good else cls.BAD_SUPERPOTENTIALS)
        if key in ("n-from", "n-to"):
            return str(rng.randint(2, 10)) if good else rng.choice(["1", "11", "x", "\u0668", "1_0"])
        if key == "realization":
            return rng.choice(["fock", "grid"] if good else ["dense"])
        booleans = ["true", "false", "yes", "no", "on", "off", "1", "0", "True", "OFF"]
        return rng.choice(booleans if good else ["maybe", "", "2"])

    @classmethod
    def as_flags(cls, command: str, settings: list[tuple[str, str]]) -> list[str]:
        """The flags a config file of these settings stands for, translated
        without the CLI's own code."""
        switches = cls.SWITCHES[command]
        flags = []
        for key, value in settings:
            name = cls.ALIASES.get(key.lower(), key.lower()).replace("_", "-")
            if name == "realization" and "grid" in switches and value in ("fock", "grid"):
                # fock is the default cutoff, ahead of every flag so that a cutoff wins
                flags = flags + ["--grid"] if value == "grid" else ["--fock=8", *flags]
            elif name in switches and value.lower() in ("true", "yes", "on", "1"):
                flags.append(f"--{name}")
            elif name not in switches or value.lower() not in ("false", "no", "off", "0"):
                flags.append(f"--{name}={value}")
        return flags

    def test_seeded_inputs(self, capsys, tmp_path):
        rng = random.Random(20261018)
        cfg = tmp_path / "run.cfg"
        statuses = []
        for case in range(200):
            command = rng.choice(["verify", "verify", "spectrum", "spectrum", "census"])
            settings = [(key, self.value(rng, key)) for key in rng.sample(self.KEYS[command], 2)]
            if command != "census":
                if rng.random() < 0.95:
                    settings.append((rng.choice(["model", "Model"]), self.value(rng, "model")))
                if rng.random() < 0.4:
                    if rng.random() < 0.8:  # mostly without a conflicting cutoff
                        settings = [s for s in settings if s[0] not in ("fock", "cutoff")]
                    settings.append(rng.choice([("grid", "true"), ("realization", "grid")]))
                    for key in rng.sample(self.GRID_KEYS, rng.randint(0, 3)):
                        settings.append((key, self.value(rng, key)))
            if rng.random() < 0.1:
                key = rng.choice(self.FOREIGN_KEYS)
                settings.append((key, self.value(rng, key)))
            rng.shuffle(settings)
            flags = self.as_flags(command, settings)
            code, out, _ = run(capsys, command, *flags)
            assert code in (0, 1, 2), (case, flags)
            body = "".join(f"{k} = {v}\n" for k, v in settings)
            cfg.write_text("# seeded case\n" + body, encoding="utf-8")
            assert run(capsys, command, "--config", str(cfg))[:2] == (code, out), (case, settings)
            statuses.append(code)
        assert {0, 1, 2} <= set(statuses)
