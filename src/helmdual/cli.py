"""Experiment orchestration: solve / compare / farfield / selftest.

Artifacts are plain CSV plus HLMF field dumps, every file listed in a
manifest, and the effective configuration echoed next to them so a run can
be reproduced from its output directory alone.  Identical configuration and
seed give byte-identical CSVs at a fixed BLAS thread count; no timestamps
are written.  The environment variable HELMDUAL_THREADS caps the
multistart worker count (default 1, sequential; results do not depend on the
worker count); a value that is not a positive integer is a config error.

An output directory that cannot be made (the path, or one of its parents,
is an existing file) ends the run before any work with exit status 2 and a
message on stderr; an artifact that cannot be written (a full disk, for
example) ends it as an OutputError in error.json, when that can still be
written, with exit status 1.  A run that asks for more memory than the
process can allocate ends the same way, as an OutOfMemoryError.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .asymptotic import build_asymptotic_coefficient, bump_profile, compare_levels
from .dual_functional import FunctionalContext, sine_product
from .errors import DomainError, FieldFileError, HelmdualError, OutOfMemoryError, OutputError
from .farfield import decay_and_expansion_check, equal_area_directions, farfield_amplitude
from .kernel import Field, GridSpec
from .search import grid_field, multistart_search, primal_field
from .selftest import run_selftest

FLOAT_FORMAT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FORMAT % x
    return str(x)


def build_context(cfg: cfgmod.RunConfig) -> FunctionalContext:
    """The context of the configured grid, coefficient and p.  `coefficient.periodic`
    declares Q unit-periodic for every kind but `compact_bump`, which never is."""
    grid = GridSpec(
        dimension=cfg.grid_dimension,
        box_length=cfg.grid_box_length,
        points_per_axis=cfg.grid_points_per_axis,
        shell_epsilon=cfg.grid_shell_epsilon,
    )
    kind = cfg.coefficient_kind
    if kind == "constant":
        values = np.full(grid.shape, cfg.coefficient_value)
    elif kind == "sine_product":
        values = sine_product(grid, cfg.coefficient_offset, cfg.coefficient_amplitude)
    elif kind == "compact_bump":
        values = bump_profile(grid, cfgmod.coefficient_bump(cfg))
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
    periodic = cfg.coefficient_periodic and kind != "compact_bump"
    return FunctionalContext(Field(grid, values), cfg.exponents_p, periodic=periodic)


def _workers() -> int:
    """The multistart worker count HELMDUAL_THREADS sets: a positive integer, 1 when unset."""
    raw = os.environ.get("HELMDUAL_THREADS", "1")
    if not (raw.isascii() and raw.isdecimal() and int(raw) > 0):
        raise cfgmod.ConfigError(f"HELMDUAL_THREADS = {raw!r} is not a positive integer")
    return int(raw)


def _write_rows(path: Path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


class _OutputDir:
    """Collects artifacts and writes the manifest at the end of a mode.

    An OSError from making the directory or writing a file is an
    OutputError; a file whose write failed is removed, so the manifest
    still lists every file in the directory.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot make the output directory {str(path)!r}: {exc}") from exc
        self.artifacts = []

    def _write(self, name: str, write):
        target = self.path / name
        try:
            write(target)
        except OSError as exc:
            with contextlib.suppress(OSError):
                target.unlink(missing_ok=True)
            raise OutputError(f"cannot write {name}: {exc}") from exc

    def write_bytes(self, name: str, data: bytes):
        self._write(name, lambda target: target.write_bytes(data))
        self.artifacts.append(name)

    def write_text(self, name: str, text: str):
        self._write(name, lambda target: target.write_text(text))
        self.artifacts.append(name)

    def write_csv(self, name: str, header, rows):
        self._write(name, lambda target: _write_rows(target, header, rows))
        self.artifacts.append(name)

    def finish(self):
        self._write("manifest.csv", lambda target: _write_rows(
            target, ["artifact"], [[name] for name in sorted(self.artifacts)]))


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


def _position(ctx, u: Field) -> str:
    """Grid index of the peak of |u| modulo the unit cell; blank unless Q is
    declared unit-periodic."""
    if not ctx.periodic:
        return ""
    peak = np.unravel_index(np.argmax(np.abs(u.values)), ctx.grid.shape)
    return " ".join(str(int(i) % ctx.grid.unit_shift_points) for i in peak)


def _run_solve(cfg, out: _OutputDir) -> int:
    ctx = build_context(cfg)
    result = multistart_search(ctx, cfgmod.descent_config(cfg), workers=_workers())
    positions = []
    for i, rec in enumerate(result.records):  # one u per record, for its file and its peak
        out.write_bytes(f"v_{i:03d}.hlmf", cfgmod.write_field(grid_field(ctx, rec)))
        u = primal_field(ctx, rec)
        positions.append(_position(ctx, u))
        out.write_bytes(f"u_{i:03d}.hlmf", cfgmod.write_field(u))
    out.write_csv(
        "solutions.csv", _SOLUTION_HEADER + ["position"],
        [row + [position] for row, position in zip(_solution_rows(result.records), positions)],
    )
    out.write_csv(
        "starts.csv", ["start", "status", "detail"],
        [[i, status, detail] for i, (status, detail) in enumerate(result.outcomes)],
    )
    return 0 if result.records else 1


def _run_compare(cfg, out: _OutputDir) -> int:
    pair = build_asymptotic_coefficient(build_context(cfg), cfgmod.compare_bump(cfg))
    report = compare_levels(pair, cfgmod.descent_config(cfg), workers=_workers())
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
    out.write_csv("solutions.csv", _SOLUTION_HEADER, _solution_rows(result.records))
    u = primal_field(ctx, result.records[0])  # the best record's u: the one grid field from here on
    out.write_bytes("u_best.hlmf", cfgmod.write_field(u))

    dirs = equal_area_directions(ctx.grid.dimension, cfg.farfield_direction_count)
    samples = farfield_amplitude(ctx, u, dirs)
    eps = ctx.grid.shell_epsilon
    checked = samples
    if eps > 0.0:
        checked = farfield_amplitude(ctx, u, dirs, wavenumber=complex(np.sqrt(1 + 1j * eps)))
    report = decay_and_expansion_check(
        ctx, u, checked,
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
    """Execute one mode; returns the process exit status (0 = all checks pass,
    1 = a failed check or a run error, 2 = no usable output directory)."""
    effective = cfgmod.serialize_config(cfg)
    try:
        out = _OutputDir(Path(cfg.output_dir))
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    try:
        out.write_text("effective_config.cfg", effective)
        try:
            status = _MODE_RUNNERS[cfg.mode](cfg, out)
        except MemoryError as exc:
            # a bare MemoryError has no message, and an exception instance is always true
            raise OutOfMemoryError(
                f"the {cfg.mode} run ran out of memory: {str(exc) or 'allocation failed'}") from exc
        out.finish()
    except HelmdualError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        try:
            out.write_text(
                "error.json",
                json.dumps({"error": type(exc).__name__, "detail": str(exc)}, indent=2) + "\n",
            )
            out.finish()
        except OutputError as record_exc:  # the directory takes no record either
            print(f"error: OutputError: {record_exc}", file=sys.stderr)
        return 1
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
        overrides = {}
        if args.out is not None:
            overrides["output_dir"] = str(args.out)
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = cfgmod.parse_config(text, mode_override=args.mode, **overrides)
        # the effective config must read back as this run, before any output exists
        cfgmod.serialize_config(cfg)
        _workers()
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
