import json
from pathlib import Path

import numpy as np
import pytest

import graded_sqm.cli as cli
from graded_sqm.cli import main, make_grid_realization, parse_polynomial
from graded_sqm.verify import PairCheck, RelationReport

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            pair_results=(PairCheck("Q[01]", "Q[01]", "anticommutator", False, "boom"),),
        )
        monkeypatch.setattr(cli, "check_defining_relations", lambda m: broken)
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=2")
        assert code == 1
        assert "FAIL" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=2", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "check,left,right,kind,status,residual"

    def test_verify_with_spectrum_section(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "minimal:n=3", "--fock", "6")
        assert code == 0
        assert "## spectrum" in out

    def test_maximal_rank4_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "maximal:n=4")
        assert code == 0
        assert "result: PASS" in out

    def test_jobs_flag_is_ignored(self, capsys, tmp_path):
        args = ("verify", "--model", "minimal:n=3", "--rank", "--format", "json")
        _, plain, _ = run(capsys, *args)
        code, with_jobs, _ = run(capsys, *args, "--jobs", "4")
        assert code == 0
        assert with_jobs == plain
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 4\n")
        _, with_config, _ = run(capsys, *args, "--config", str(cfg))
        assert with_config == plain

    def test_rank5_counts(self, capsys):
        for sel in ("n5cl26", "n5cl28"):
            code, out, _ = run(capsys, "verify", "--model", sel, "--counts")
            assert code == 0
            assert "count: 65536" in out


class TestSpectrumCommand:
    def test_fock_golden(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "minimal:n=3", "--fock", "8", "--format", "markdown"
        )
        assert code == 0
        assert out == (GOLDEN / "spectrum_minimal_n3_fock8.md").read_text()

    def test_grid_cubic_zero_modes(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "minimal:n=2", "--grid", "--W", "x^3"
        )
        assert code == 0
        assert "zero modes: 2" in out

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

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def exhausted(model, realization):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli, "spectrum", exhausted)
        code, _, err = run(capsys, "spectrum", "--model", "minimal:n=2")
        assert code == 2
        assert "out of memory" in err

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

    def test_realization_config_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model=minimal:n=2\nrealization=grid\ngrid.points=121\ngrid.spacing=0.1\nW=x^3\n"
        )
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert "grid(points=121" in out

    def test_fock_cutoff_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=minimal:n=3\nrealization=fock\ncutoff=6\n")
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert "fock(cutoff=6" in out

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "census", "--format", "json", "--out", str(dest)
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())[0]["n"] == 2


class TestSuperpotentialParsing:
    def test_simple_forms(self):
        assert parse_polynomial("x") == [(1.0, 1)]
        assert parse_polynomial("x^3") == [(1.0, 3)]
        assert parse_polynomial("-x") == [(-1.0, 1)]
        assert parse_polynomial("2*x^3 - x") == [(2.0, 3), (-1.0, 1)]
        assert parse_polynomial("0.5*x^2 + 3") == [(0.5, 2), (3.0, 0)]

    def test_bad_expressions(self):
        for expr in ("", "y", "x**3", "x^"):
            with pytest.raises(ValueError):
                parse_polynomial(expr)

    def test_table_file(self, tmp_path):
        x = (np.arange(51) - 25) * 0.1
        path = tmp_path / "w.txt"
        np.savetxt(path, x**3)
        r = make_grid_realization(51, 0.1, str(path))
        assert r.w_values == pytest.approx(x**3)

    def test_table_length_mismatch(self, tmp_path):
        path = tmp_path / "w.txt"
        np.savetxt(path, np.zeros(10))
        with pytest.raises(ValueError):
            make_grid_realization(51, 0.1, str(path))
