"""Experiment orchestration: solve / compare / farfield / selftest.

Artifacts are plain CSV plus HLMF field dumps, every file listed in a
manifest, and the effective configuration echoed next to them so a run can
be reproduced from its output directory alone.  Identical configuration and
seed give byte-identical CSVs at a fixed BLAS thread count; no timestamps
are written.  The environment variable HELMDUAL_THREADS caps the
multistart worker count (default 1, sequential; results do not depend on the
worker count).
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .asymptotic import BumpDescriptor, build_asymptotic_coefficient, bump_profile, compare_levels
from .dual_functional import Coefficient, Exponents, FunctionalContext, sine_product
from .errors import DomainError, FieldFileError, HelmdualError
from .farfield import decay_and_expansion_check, equal_area_directions, farfield_amplitude
from .kernel import Field, GridSpec
from .search import multistart_search, unit_periodic
from .selftest import run_selftest

FLOAT_FORMAT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FORMAT % x
    return str(x)


def build_grid(cfg: cfgmod.RunConfig) -> GridSpec:
    return GridSpec(
        dimension=cfg.grid_dimension,
        box_length=cfg.grid_box_length,
        points_per_axis=cfg.grid_points_per_axis,
        shell_epsilon=cfg.grid_shell_epsilon,
    )


def build_coefficient(cfg: cfgmod.RunConfig, grid: GridSpec) -> Coefficient:
    kind = cfg.coefficient_kind
    if kind == "constant":
        values = np.full(grid.shape, cfg.coefficient_value)
    elif kind == "sine_product":
        values = sine_product(grid, cfg.coefficient_offset, cfg.coefficient_amplitude)
    elif kind == "compact_bump":
        center = cfg.coefficient_center or (grid.box_length / 2.0,) * grid.dimension
        values = bump_profile(grid, BumpDescriptor(center, cfg.coefficient_radius, cfg.coefficient_amplitude))
    elif kind == "file":
        try:
            data = Path(cfg.coefficient_path).read_bytes()
        except OSError as exc:
            raise FieldFileError(f"cannot read the coefficient file: {exc}") from exc
        field = cfgmod.read_field(data, grid.shell_epsilon)
        if field.grid != grid:
            raise cfgmod.ConfigTypeError("coefficient file grid does not match the run grid")
        values = field.values
    else:  # pragma: no cover - guarded by config validation
        raise DomainError(f"unknown coefficient kind {kind!r}")
    periodic = cfg.coefficient_periodic and kind in ("constant", "sine_product", "file")
    return Coefficient.build(Field(grid, values), cfg.exponents_p, periodic=periodic)


def build_context(cfg: cfgmod.RunConfig) -> FunctionalContext:
    grid = build_grid(cfg)
    exps = Exponents(cfg.grid_dimension, cfg.exponents_p)
    return FunctionalContext(grid, exps, build_coefficient(cfg, grid))


def _workers() -> int:
    raw = os.environ.get("HELMDUAL_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


class _OutputDir:
    """Collects artifacts and writes the manifest at the end of a mode."""

    def __init__(self, path: Path):
        self.path = path
        self.path.mkdir(parents=True, exist_ok=True)
        self.artifacts = []

    def write_bytes(self, name: str, data: bytes):
        (self.path / name).write_bytes(data)
        self.artifacts.append(name)

    def write_text(self, name: str, text: str):
        (self.path / name).write_text(text)
        self.artifacts.append(name)

    def write_csv(self, name: str, header, rows):
        with open(self.path / name, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
        self.artifacts.append(name)

    def finish(self):
        with open(self.path / "manifest.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["artifact"])
            for name in sorted(self.artifacts):
                writer.writerow([name])


def _solution_rows(records):
    rows = []
    for i, rec in enumerate(records):
        rows.append([
            i, rec.level, rec.dual_residual, rec.primal_residual,
            rec.iterations, rec.newton_steps,
            " ".join(str(s) for s in rec.orbit_shift), rec.sign, rec.start_index,
        ])
    return rows


_SOLUTION_HEADER = [
    "index", "level", "dual_residual", "primal_residual",
    "iterations", "newton_steps", "orbit_shift", "sign", "start_index",
]


def _position(ctx, rec) -> str:
    """Grid index of the peak of |u| modulo the unit cell; blank unless Q is
    unit-periodic on a grid with unit shifts."""
    if not unit_periodic(ctx):
        return ""
    peak = np.unravel_index(np.argmax(np.abs(rec.u_star.values)), ctx.grid.shape)
    return " ".join(str(int(i) % ctx.grid.unit_shift_points) for i in peak)


def _run_solve(cfg, out: _OutputDir) -> int:
    ctx = build_context(cfg)
    result = multistart_search(ctx, cfgmod.descent_config(cfg), workers=_workers())
    out.write_csv(
        "solutions.csv", _SOLUTION_HEADER + ["position"],
        [row + [_position(ctx, rec)] for row, rec in zip(_solution_rows(result.records), result.records)],
    )
    out.write_csv(
        "starts.csv", ["start", "status", "detail"],
        [[i, status, detail] for i, (status, detail) in enumerate(result.outcomes)],
    )
    for i, rec in enumerate(result.records):
        out.write_bytes(f"v_{i:03d}.hlmf", cfgmod.write_field(rec.v_star))
        out.write_bytes(f"u_{i:03d}.hlmf", cfgmod.write_field(rec.u_star))
    return 0 if result.records else 1


def _run_compare(cfg, out: _OutputDir) -> int:
    grid = build_grid(cfg)
    exps = Exponents(cfg.grid_dimension, cfg.exponents_p)
    q_inf = build_coefficient(cfg, grid)
    center = cfg.bump_center or (grid.box_length / 2.0,) * grid.dimension
    bump = BumpDescriptor(center=tuple(center), radius=cfg.bump_radius, amplitude=cfg.bump_amplitude)
    pair = build_asymptotic_coefficient(q_inf, bump)
    report = compare_levels(pair, exps, cfgmod.descent_config(cfg), workers=_workers())
    out.write_csv(
        "compare.csv",
        ["c_est", "c_inf_est", "gap", "transplant_check", "transplant_level",
         "chain_j_q", "chain_j_inf_tw", "chain_j_inf_w"],
        [[report.c_est, report.c_inf_est, report.gap, int(report.transplant_check),
          report.transplant_level, *report.level_chain]],
    )
    out.write_csv("solutions_q.csv", _SOLUTION_HEADER, _solution_rows(report.records_q))
    out.write_csv("solutions_inf.csv", _SOLUTION_HEADER, _solution_rows(report.records_inf))
    ok = report.transplant_check and report.c_est <= report.c_inf_est + 1e-3 * abs(report.c_inf_est)
    return 0 if ok else 1


def _run_farfield(cfg, out: _OutputDir) -> int:
    ctx = build_context(cfg)
    result = multistart_search(ctx, cfgmod.descent_config(cfg), workers=_workers())
    rec = result.records[0]
    out.write_csv("solutions.csv", _SOLUTION_HEADER, _solution_rows(result.records))
    out.write_bytes("u_best.hlmf", cfgmod.write_field(rec.u_star))

    dirs = equal_area_directions(ctx.grid.dimension, cfg.farfield_direction_count)
    samples = farfield_amplitude(ctx, rec.u_star, dirs)
    eps = ctx.grid.shell_epsilon
    checked = samples
    if eps > 0.0:
        checked = farfield_amplitude(ctx, rec.u_star, dirs, wavenumber=complex(np.sqrt(1 + 1j * eps)))
    report = decay_and_expansion_check(
        ctx, rec.u_star, checked,
        r_min=cfg.farfield_r_min,
        r_max=cfg.farfield_r_max,
    )
    out.write_csv(
        "farfield_amplitude.csv",
        [f"xi_{i}" for i in range(ctx.grid.dimension)] + ["re_g", "im_g"],
        [[*d, val.real, val.imag] for d, val in zip(samples.directions, samples.values)],
    )
    out.write_csv(
        "farfield_decay.csv", ["shell_radius", "mean_abs_u"],
        list(zip(report.shell_radii, report.shell_means)),
    )
    out.write_csv(
        "farfield_expansion.csv", ["R", "expansion_error"],
        list(zip(report.expansion_radii, report.expansion_errors)),
    )
    out.write_csv(
        "farfield_summary.csv",
        ["decay_exponent", "target_exponent", "trend_nonincreasing",
         "interpolation_residual", "attenuation_rate"],
        [[report.decay_exponent, report.target_exponent, int(report.trend_nonincreasing),
          report.interpolation_residual, report.attenuation_rate]],
    )
    lo = 0.8 * report.target_exponent
    hi = 1.2 * report.target_exponent
    ok = (not report.degenerate and lo <= report.decay_exponent <= hi
          and report.trend_nonincreasing)
    return 0 if ok else 1


def _run_selftest(cfg, out: _OutputDir) -> int:
    results = run_selftest(report=print)
    out.write_csv(
        "selftest.csv", ["suite", "passed", "detail"],
        [[name, int(ok), detail] for name, ok, detail in results],
    )
    return 0 if all(ok for _, ok, _ in results) else 1


_MODE_RUNNERS = {
    "solve": _run_solve,
    "compare": _run_compare,
    "farfield": _run_farfield,
    "selftest": _run_selftest,
}


def run_experiment(cfg: cfgmod.RunConfig) -> int:
    """Execute one mode; returns the process exit status (0 = all checks pass)."""
    effective = cfgmod.serialize_config(cfg)
    out = _OutputDir(Path(cfg.output_dir))
    out.write_text("effective_config.cfg", effective)
    try:
        status = _MODE_RUNNERS[cfg.mode](cfg, out)
    except HelmdualError as exc:
        out.write_text(
            "error.json",
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}, indent=2) + "\n",
        )
        out.finish()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    out.finish()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="helmdual",
        description="Dual variational solver for the nonlinear Helmholtz equation",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in cfgmod.MODES:
        mode_parser = sub.add_parser(mode)
        mode_parser.add_argument("--config", type=Path, default=None,
                                 help="flat key = value configuration file")
        mode_parser.add_argument("--out", type=Path, default=None,
                                 help="output directory (overrides output.dir)")
        mode_parser.add_argument("--seed", type=int, default=None,
                                 help="RNG seed (overrides the config seed)")
    args = parser.parse_args(argv)

    try:
        try:
            text = args.config.read_text() if args.config else ""
        except (OSError, UnicodeDecodeError) as exc:
            raise cfgmod.ConfigError(f"cannot read the config file: {exc}") from exc
        cfg = cfgmod.parse_config(text, mode_override=args.mode)
        if args.out is not None:
            cfg.output_dir = str(args.out)
        if args.seed is not None:
            cfg.seed = args.seed
        # the effective config must read back as this run, before any output exists
        cfgmod.serialize_config(cfg)
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
