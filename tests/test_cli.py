"""End-to-end CLI runs on small configurations."""

import csv
import errno
import json
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmdual import Field, GridSpec, parse_config, read_field, write_field
from helmdual import cli, search
from helmdual.cli import main, run_experiment

SOLVE_CFG = """
mode = solve
grid.points_per_axis = 48
descent.multistart_count = 5
descent.max_iters = 1500
seed = 20240601
"""

COMPARE_CFG = """
mode = compare
grid.points_per_axis = 48
descent.multistart_count = 3
descent.max_iters = 1500
bump.center = 3.0, 3.0
bump.radius = 1.2
bump.amplitude = 0.3
seed = 20240601
"""

# 3d compact bump with absorption; about a second
FARFIELD_CFG = """
mode = farfield
grid.dimension = 3
grid.box_length = 16.0
grid.points_per_axis = 48
grid.shell_epsilon = 1.0
exponents.p = 5.0
coefficient.kind = compact_bump
coefficient.center = 9.2, 8.7, 8.4
coefficient.radius = 1.6
coefficient.amplitude = 2.0
coefficient.periodic = false
descent.multistart_count = 2
farfield.direction_count = 84
seed = 1
"""


# a 3d sine Q on 192^3 points: one grid array is 54 MiB, more than a
# 384 MiB address space leaves once numpy and helmdual are imported
OOM_CFG = """
mode = solve
grid.dimension = 3
grid.box_length = 6.0
grid.points_per_axis = 192
exponents.p = 5.0
coefficient.kind = sine_product
descent.multistart_count = 1
seed = 1
"""
OOM_CAP = 384 * 2 ** 20


def _die(job):
    """A multistart job that kills its worker process without a reply."""
    os._exit(3)


def run_cli(tmp_path, name, cfg_text, mode, seed=None):
    cfg_file = tmp_path / f"{name}.cfg"
    cfg_file.write_text(cfg_text)
    out_dir = tmp_path / name
    argv = [mode, "--config", str(cfg_file), "--out", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    status = main(argv)
    return status, out_dir


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def assert_error_record(out, error):
    """A run that failed with `error`: its error.json, and a manifest of every other file."""
    assert json.loads((out / "error.json").read_text())["error"] == error
    manifest = {r[0] for r in read_rows(out / "manifest.csv")[1:]}
    assert manifest == {p.name for p in out.iterdir()} - {"manifest.csv"}
    assert {"effective_config.cfg", "error.json"} <= manifest


class TestSolveMode:
    def test_artifacts_and_exit(self, tmp_path):
        status, out = run_cli(tmp_path, "solve", SOLVE_CFG, "solve")
        assert status == 0
        rows = read_rows(out / "solutions.csv")
        assert rows[0][0] == "index"
        assert len(rows) >= 3  # header plus at least two distinct solutions
        for row in rows[1:]:
            assert float(row[1]) > 0.0

        manifest = {r[0] for r in read_rows(out / "manifest.csv")[1:]}
        written = {p.name for p in out.iterdir()} - {"manifest.csv"}
        assert manifest == written

        field = read_field((out / "v_000.hlmf").read_bytes())
        assert field.grid.points_per_axis == 48
        assert (out / "effective_config.cfg").exists()

    def test_reproducible_csv_bytes(self, tmp_path):
        _, out1 = run_cli(tmp_path, "solve_a", SOLVE_CFG, "solve")
        _, out2 = run_cli(tmp_path, "solve_b", SOLVE_CFG, "solve")
        assert (out1 / "solutions.csv").read_bytes() == (out2 / "solutions.csv").read_bytes()
        assert (out1 / "v_000.hlmf").read_bytes() == (out2 / "v_000.hlmf").read_bytes()

    def test_position_column(self, tmp_path):
        _, out = run_cli(tmp_path, "periodic", SOLVE_CFG, "solve")
        rows = read_rows(out / "solutions.csv")
        col = rows[0].index("position")
        ground = min(float(row[1]) for row in rows[1:])
        for row in rows[1:]:
            cells = [int(x) for x in row[col].split()]
            assert len(cells) == 2 and all(0 <= c < 8 for c in cells)  # 8 points per unit cell
            if float(row[1]) <= ground * (1.0 + 1e-9):
                # a ground state peaks on a maximum of Q = 1 + 0.5 sin sin
                assert row[col] in ("2 2", "6 6")
        bump = SOLVE_CFG.replace("mode = solve", "mode = solve\ncoefficient.kind = compact_bump\n"
                                 "coefficient.radius = 1.5\ncoefficient.periodic = false")
        _, out = run_cli(tmp_path, "compact", bump, "solve")
        rows = read_rows(out / "solutions.csv")
        assert len(rows) > 1 and all(row[col] == "" for row in rows[1:])

    def test_periodic_without_unit_shifts(self, tmp_path):
        # 64 points over L = 6: no whole number of points per unit cell
        cfg = SOLVE_CFG.replace("points_per_axis = 48", "points_per_axis = 64")
        status, out = run_cli(tmp_path, "no_shifts", cfg, "solve")
        assert status != 0
        assert "GridMismatchError" in (out / "error.json").read_text()
        assert (out / "manifest.csv").exists() and not (out / "solutions.csv").exists()

    def test_periodic_key_ignored_for_compact_bump(self, tmp_path):
        # a compact bump is never declared unit-periodic: the default
        # `coefficient.periodic = true` runs as `false` does
        cfg = ("mode = solve\ngrid.points_per_axis = 48\ncoefficient.kind = compact_bump\n"
               "descent.multistart_count = 2\nseed = 12345\n")
        (status, out), (status_false, out_false) = [
            run_cli(tmp_path, name, cfg + extra, "solve")
            for name, extra in (("default", ""), ("false", "coefficient.periodic = false\n"))]
        assert status == status_false == 0
        for name in ("solutions.csv", "starts.csv"):
            assert (out / name).read_bytes() == (out_false / name).read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        _, out1 = run_cli(tmp_path, "seeded", SOLVE_CFG, "solve", seed=777)
        cfg_text = (out1 / "effective_config.cfg").read_text()
        assert "seed = 777" in cfg_text

    def test_dedup_threshold_past_the_float_range(self, tmp_path):
        # at 1e270 the dedup radius to the power p' overflows a float; every
        # pair then gets the exact norm, and the run ends as it does at 1e200
        runs = [run_cli(tmp_path, f"dedup_{t}", SOLVE_CFG + f"descent.dedup_rel_threshold = {t}\n", "solve")
                for t in ("1e200", "1e270")]
        assert [status for status, _ in runs] == [0, 0]
        rows = [read_rows(out / "solutions.csv") for _, out in runs]
        assert len(rows[0]) == 2 and rows[1] == rows[0]


class TestCompareMode:
    def test_zero_amplitude_gap_within_noise(self, tmp_path):
        cfg = COMPARE_CFG.replace("bump.amplitude = 0.3", "bump.amplitude = 0.0")
        status, out = run_cli(tmp_path, "compare0", cfg, "compare")
        assert status == 0
        rows = read_rows(out / "compare.csv")
        header, data = rows[0], rows[1]
        gap = float(data[header.index("gap")])
        c_inf = float(data[header.index("c_inf_est")])
        assert abs(gap) <= 1e-7 * abs(c_inf)

    def test_bumped_coefficient_lowers_level(self, tmp_path):
        status, out = run_cli(tmp_path, "compare", COMPARE_CFG, "compare")
        assert status == 0
        rows = read_rows(out / "compare.csv")
        header, data = rows[0], rows[1]
        assert int(data[header.index("transplant_check")]) == 1
        c_est = float(data[header.index("c_est")])
        c_inf = float(data[header.index("c_inf_est")])
        assert c_est <= c_inf + 1e-3 * abs(c_inf)


class TestFarfieldMode:
    def test_artifacts_and_exit(self, tmp_path):
        status, out = run_cli(tmp_path, "farfield", FARFIELD_CFG, "farfield")
        assert status == 0
        for name in ("solutions.csv", "farfield_summary.csv", "u_best.hlmf"):
            assert (out / name).is_file()
        rows = read_rows(out / "farfield_summary.csv")
        header, data = rows[0], rows[1]
        assert int(data[header.index("trend_nonincreasing")]) == 1
        field = read_field((out / "u_best.hlmf").read_bytes(), 1.0)
        assert field.grid.points_per_axis == 48
        manifest = {r[0] for r in read_rows(out / "manifest.csv")[1:]}
        assert manifest == {p.name for p in out.iterdir()} - {"manifest.csv"}


class TestErrors:
    def test_config_error_exit_code(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("gird.n = 64\n")
        assert main(["solve", "--config", str(cfg_file)]) == 2

    def test_odd_grid_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "odd.cfg"
        cfg_file.write_text("mode = solve\ngrid.points_per_axis = 7\n")
        out = tmp_path / "odd"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_inadmissible_p_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "low_p.cfg"
        cfg_file.write_text("mode = solve\nexponents.p = 3.0\n")
        out = tmp_path / "low_p"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_starts_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "no_starts.cfg"
        cfg_file.write_text(
            "mode = solve\ngrid.points_per_axis = 48\ndescent.multistart_count = 0\n"
        )
        out = tmp_path / "no_starts"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, source):
        # SeedSequence takes no negative seed; a --seed override meets the same rule
        cfg_file = tmp_path / "seed.cfg"
        cfg_file.write_text(f"mode = solve\ngrid.points_per_axis = 48\nseed = {-1 if source == 'config' else 3}\n")
        out = tmp_path / "seed"
        argv = ["solve", "--config", str(cfg_file), "--out", str(out)]
        assert main(argv + (["--seed", "-1"] if source == "flag" else [])) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "must be nonnegative, got -1" in err
        # the line of the file's seed only when the value came from the file
        assert ("line 3:" in err) == (source == "config")

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_worker_count_is_config_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("HELMDUAL_THREADS", value)
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text("mode = solve\ngrid.points_per_axis = 48\ndescent.multistart_count = 1\n")
        out = tmp_path / "workers"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: HELMDUAL_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["descent.tol_residual = nan"])
    def test_bad_descent_value_is_config_error(self, tmp_path, line):
        cfg_file = tmp_path / "bad_descent.cfg"
        cfg_file.write_text(f"mode = solve\ngrid.points_per_axis = 48\n{line}\n")
        out = tmp_path / "bad_descent"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["bump.center = 1.0, 2.0, 3.0", "bump.radius = -1.0"])
    def test_unbuildable_bump_is_config_error(self, tmp_path, line):
        cfg_file = tmp_path / "bad_bump.cfg"
        cfg_file.write_text(f"mode = compare\ngrid.points_per_axis = 48\n{line}\n")
        out = tmp_path / "bad_bump"
        assert main(["compare", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["coefficient.radius = inf", "coefficient.amplitude = -1"])
    def test_unbuildable_coefficient_bump_is_config_error(self, tmp_path, capsys, line):
        # the compact-bump coefficient is built at parse time, as the bump of compare is
        cfg_file = tmp_path / "bad_coefficient.cfg"
        cfg_file.write_text(f"mode = solve\ngrid.points_per_axis = 48\ncoefficient.kind = compact_bump\n{line}\n")
        out = tmp_path / "bad_coefficient"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: line 4: " in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "farfield.r_min = 7.5",  # above the default r_max = 0.46 L = 7.36
        "farfield.r_max = 8.5",  # beyond L/2
        "farfield.r_min = 5.0\nfarfield.r_max = 4.0",
    ])
    def test_bad_farfield_window_is_config_error(self, tmp_path, capsys, lines):
        # rejected before any solve: exit 2, no output directory, the key's line
        cfg_file = tmp_path / "window.cfg"
        cfg_file.write_text(FARFIELD_CFG + lines + "\n")
        out = tmp_path / "window"
        assert main(["farfield", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()
        line_no = FARFIELD_CFG.count("\n") + 1
        assert f"line {line_no}: need 0 < r_min < r_max <= L/2" in capsys.readouterr().err

    def test_too_few_farfield_directions_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "directions.cfg"
        cfg_file.write_text(FARFIELD_CFG.replace("direction_count = 84", "direction_count = 10"))
        out = tmp_path / "directions"
        assert main(["farfield", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()
        line_no = FARFIELD_CFG.splitlines().index("farfield.direction_count = 84") + 1
        assert f"line {line_no}: 10 sampled directions cannot fit the 84 monomials" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["5e-324", "1e-300"])
    def test_box_length_without_a_spectrum_is_config_error(self, tmp_path, capsys, length):
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(f"mode = solve\ngrid.box_length = {length}\n")
        out = tmp_path / "tiny"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: line 2: box_length" in capsys.readouterr().err

    def test_bad_farfield_window_at_run_time_writes_record(self, tmp_path):
        # a config built in code skips the parser; the check raises a typed error
        cfg = parse_config(FARFIELD_CFG)
        cfg.farfield_r_min = 7.5
        cfg.output_dir = str(tmp_path / "window_run")
        assert run_experiment(cfg) == 1
        out = tmp_path / "window_run"
        assert "DomainError" in (out / "error.json").read_text()
        manifest = {r[0] for r in read_rows(out / "manifest.csv")[1:]}
        assert manifest == {p.name for p in out.iterdir()} - {"manifest.csv"}
        assert "error.json" in manifest

    @pytest.mark.parametrize("value", [-1.0, 0.0])
    def test_bad_coefficient_writes_record(self, tmp_path, value):
        # a nonpositive constant coefficient is a run-time domain error
        cfg_file = tmp_path / "bad_q.cfg"
        cfg_file.write_text(
            "mode = solve\ngrid.points_per_axis = 48\n"
            f"coefficient.kind = constant\ncoefficient.value = {value!r}\n"
        )
        out = tmp_path / "bad_q"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert {p.name for p in out.iterdir()} == {
            "effective_config.cfg", "error.json", "manifest.csv",
        }
        assert "DomainError" in (out / "error.json").read_text()
        manifest = {r[0] for r in read_rows(out / "manifest.csv")[1:]}
        assert manifest == {"effective_config.cfg", "error.json"}

    def test_run_error_writes_record(self, tmp_path):
        # resonant box with eps = 0 fails inside the run, not at parse time
        cfg_file = tmp_path / "resonant.cfg"
        cfg_file.write_text(
            "mode = solve\ngrid.box_length = 6.283185307179586\n"
            "grid.points_per_axis = 48\n"
        )
        out = tmp_path / "resonant"
        status = main(["solve", "--config", str(cfg_file), "--out", str(out)])
        assert status == 1
        assert_error_record(out, "ShellResonanceError")

    @pytest.mark.parametrize("name", ["runs#3", " runs", "runs "])
    def test_output_dir_the_config_cannot_carry_is_config_error(self, tmp_path, capsys,
                                                                 monkeypatch, name):
        # effective_config.cfg would read back as another directory
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text("mode = solve\ngrid.points_per_axis = 48\ndescent.multistart_count = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--config", str(cfg_file), "--out", name]) == 2
        assert list(tmp_path.iterdir()) == [cfg_file]
        assert "config error: output.dir" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing"
        assert main(["solve", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]) == 2
        assert "config error: cannot read the config file" in capsys.readouterr().err
        assert not out.exists()  # so no manifest.csv either

    def test_missing_coefficient_file_writes_record(self, tmp_path):
        cfg_file = tmp_path / "file_q.cfg"
        cfg_file.write_text(
            "mode = solve\ngrid.points_per_axis = 48\ncoefficient.kind = file\n"
            f"coefficient.path = {tmp_path / 'missing.hlmf'}\n"
        )
        out = tmp_path / "file_q"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert json.loads((out / "error.json").read_text())["error"] == "FieldFileError"
        manifest = {r[0] for r in read_rows(out / "manifest.csv")[1:]}
        assert manifest == {"effective_config.cfg", "error.json"}

    def test_dead_worker_writes_record(self, tmp_path, monkeypatch):
        # a worker that exits without a reply breaks the pool: a typed run error
        monkeypatch.setenv("HELMDUAL_THREADS", "2")
        monkeypatch.setattr(search, "_solve_one", _die)
        cfg_file = tmp_path / "dies.cfg"
        cfg_file.write_text("mode = solve\ngrid.points_per_axis = 48\ndescent.multistart_count = 2\n")
        out = tmp_path / "dies"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert json.loads((out / "error.json").read_text())["error"] == "WorkerPoolError"
        manifest = {r[0] for r in read_rows(out / "manifest.csv")[1:]}
        assert manifest == {"effective_config.cfg", "error.json"}

    def test_out_of_memory_writes_record(self, tmp_path):
        # the child's own address space is capped: the allocation that does not
        # fit is a typed run error with its record, not a raw traceback
        cfg_file = tmp_path / "oom.cfg"
        cfg_file.write_text(OOM_CFG)
        out = tmp_path / "oom"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "helmdual.cli", "solve", "--config", str(cfg_file), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (OOM_CAP, OOM_CAP)),
        )
        assert proc.returncode == 1, proc.stderr
        assert "error: OutOfMemoryError: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert_error_record(out, "OutOfMemoryError")

    @pytest.mark.parametrize("mode", ["solve", "compare", "farfield", "selftest"])
    def test_bare_memory_error_detail_is_not_blank(self, tmp_path, monkeypatch, mode):
        # numpy's failed allocations carry a message; a bare MemoryError() does not,
        # and its record still says which mode ran out and that an allocation failed
        def oom(cfg, out):
            raise MemoryError()

        monkeypatch.setitem(cli._MODE_RUNNERS, mode, oom)
        status, out = run_cli(tmp_path, "bare_oom", "", mode)
        assert status == 1
        assert_error_record(out, "OutOfMemoryError")
        detail = json.loads((out / "error.json").read_text())["detail"]
        assert detail == f"the {mode} run ran out of memory: allocation failed"

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_output_path_at_a_file_is_output_error(self, tmp_path, capsys, below):
        # the directory cannot be made, so no record can go there: exit 2 before any work
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = taken / "sub" if below else taken
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text("mode = solve\ngrid.points_per_axis = 48\ndescent.multistart_count = 1\n")
        assert main(["solve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "output error: cannot make the output directory" in capsys.readouterr().err
        assert taken.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg", "taken"]

    def test_failed_artifact_write_writes_record(self, tmp_path, monkeypatch, capsys):
        # a full disk during the field dumps: a typed error, and the record still goes out
        def full(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

        monkeypatch.setattr(Path, "write_bytes", full)
        cfg = "mode = solve\ngrid.points_per_axis = 48\ndescent.multistart_count = 1\n"
        status, out = run_cli(tmp_path, "full_disk", cfg, "solve")
        assert status == 1
        assert_error_record(out, "OutputError")
        assert "v_000.hlmf" in json.loads((out / "error.json").read_text())["detail"]
        assert not list(out.glob("*.hlmf"))
        assert "error: OutputError: cannot write v_000.hlmf" in capsys.readouterr().err

    def test_failed_record_write_still_exits(self, tmp_path, monkeypatch, capsys):
        # no file can be written at all: the messages go to stderr, exit 1, no traceback
        def full(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

        cfg_file = tmp_path / "no_space.cfg"
        cfg_file.write_text("mode = selftest\n")
        monkeypatch.setattr(Path, "write_text", full)
        out = tmp_path / "no_space"
        assert main(["selftest", "--config", str(cfg_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: OutputError: cannot write effective_config.cfg" in err
        assert "error: OutputError: cannot write error.json" in err
        assert list(out.iterdir()) == []  # the first write failed: the mode never ran

    def test_no_solution_writes_record(self, tmp_path):
        # one descent step per start: every start fails, so the run has no record
        cfg = "mode = solve\ngrid.points_per_axis = 48\ndescent.multistart_count = 2\ndescent.max_iters = 1\n"
        status, out = run_cli(tmp_path, "no_solution", cfg, "solve")
        assert status == 1
        assert_error_record(out, "NoSolutionFoundError")
        assert {p.name for p in out.iterdir()} == {"effective_config.cfg", "error.json", "manifest.csv"}

    def test_bump_outside_the_box_writes_record(self, tmp_path):
        # compare's bump at x = 0.5 with radius 1.2 leaves the box [0, 6]
        cfg = "mode = compare\ngrid.points_per_axis = 48\nbump.center = 0.5, 3.0\n"
        status, out = run_cli(tmp_path, "overflow", cfg, "compare")
        assert status == 1
        assert_error_record(out, "SupportOverflowError")

    @pytest.mark.parametrize("lines, error", [
        # L = 6 < 2 pi: the lattice spacing 2 pi / L is wider than the unit sphere
        ("grid.box_length = 6.0\ngrid.points_per_axis = 32\ncoefficient.center = 3.2, 2.9\n"
         "coefficient.radius = 1.2\n", "InterpolationDegenerateError"),
        # a radius window 0.02 wide leaves fewer than 3 shells of 8 points
        ("grid.box_length = 16.0\ngrid.points_per_axis = 64\ncoefficient.center = 9.2, 8.7\n"
         "farfield.r_min = 5.0\nfarfield.r_max = 5.02\n", "InsufficientShellsError"),
    ], ids=["interpolation", "shells"])
    def test_farfield_check_failure_writes_record(self, tmp_path, lines, error):
        cfg = ("mode = farfield\ngrid.dimension = 2\ngrid.shell_epsilon = 1.0\nexponents.p = 7.0\n"
               "coefficient.kind = compact_bump\ncoefficient.amplitude = 2.0\n"
               "coefficient.periodic = false\ndescent.multistart_count = 1\nseed = 1\n" + lines)
        status, out = run_cli(tmp_path, "farfield_fails", cfg, "farfield")
        assert status == 1
        assert_error_record(out, error)
        # the search's outputs are kept; the check failed after them
        assert {"solutions.csv", "u_best.hlmf"} <= {p.name for p in out.iterdir()}

    @pytest.mark.parametrize("corrupt, error", [
        (lambda data: b"HLMX" + data[4:], "BadMagicError"),
        (lambda data: data[:4] + struct.pack("<I", 99) + data[8:], "VersionMismatchError"),
        (lambda data: data[:-8], "TruncatedPayloadError"),
    ], ids=["magic", "version", "truncated"])
    def test_bad_coefficient_file_writes_record(self, tmp_path, corrupt, error):
        grid = GridSpec(2, 6.0, 48)
        path = tmp_path / "q.hlmf"
        path.write_bytes(corrupt(write_field(Field(grid, np.ones(grid.shape)))))
        cfg = f"mode = solve\ngrid.points_per_axis = 48\ncoefficient.kind = file\ncoefficient.path = {path}\n"
        status, out = run_cli(tmp_path, "bad_file", cfg, "solve")
        assert status == 1
        assert_error_record(out, error)
