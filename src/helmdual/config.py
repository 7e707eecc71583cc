"""Run configuration (flat key = value text) and the HLMF binary field format.

The config format is deliberately flat and diff-friendly: one `key = value`
per line, `#` comments, dotted key names, unknown keys rejected with the
offending line.  `serialize_config` emits every effective value so a run's
provenance round-trips exactly.

Field files: 24-byte little-endian header (magic "HLMF", u32 version,
u32 dimension, u32 points per axis, f64 box length) followed by the
row-major float64 payload; write/read is bit-exact.
"""

import re
import struct
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    ConfigTypeError,
    FieldFileError,
    MissingRequiredError,
    ShellResonanceError,
    TruncatedPayloadError,
    UnknownKeyError,
    VersionMismatchError,
)
from .asymptotic import BumpDescriptor
from .dual_functional import Exponents
from .farfield import check_direction_floor, radius_window, sampled_directions
from .kernel import Field, GridSpec
from .search import DescentConfig

MAGIC = b"HLMF"
VERSION = 1
_HEADER = struct.Struct("<4sIIId")

MODES = ("solve", "compare", "farfield", "selftest")
COEFFICIENT_KINDS = ("constant", "sine_product", "compact_bump", "file")


@dataclass
class RunConfig:
    mode: str
    grid_dimension: int = 2
    grid_box_length: float = 6.0
    grid_points_per_axis: int = 96
    grid_shell_epsilon: float = 0.0
    exponents_p: float = 7.0
    coefficient_kind: str = "sine_product"
    coefficient_value: float = 1.0
    coefficient_offset: float = 1.0
    coefficient_amplitude: float = 0.5
    coefficient_center: tuple = ()
    coefficient_radius: float = 1.6
    coefficient_path: str = ""
    coefficient_periodic: bool = True
    descent_tol_residual: float = 1e-8
    descent_max_iters: int = 2000
    descent_dedup_rel_threshold: float = 1e-2
    descent_multistart_count: int = 20
    bump_center: tuple = ()
    bump_radius: float = 1.2
    bump_amplitude: float = 0.3
    farfield_direction_count: int = 200
    farfield_r_min: float = 0.0
    farfield_r_max: float = 0.0
    seed: int = 0
    output_dir: str = "out"


def _key_of(field_name: str) -> str:
    head, _, tail = field_name.partition("_")
    return f"{head}.{tail}" if tail and head in (
        "grid", "exponents", "coefficient", "descent", "bump", "farfield", "output"
    ) else field_name


_SCHEMA = {_key_of(f.name): f for f in dataclass_fields(RunConfig)}


def _parse_value(raw: str, py_type, key: str, line_no: int):
    raw = raw.strip()
    try:
        if py_type is int:
            return int(raw)
        if py_type is float:
            return float(raw)
        if py_type is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if py_type is tuple:
            if not raw:
                return ()
            return tuple(float(part) for part in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigTypeError(
            f"line {line_no}: value {raw!r} for key {key!r} is not a valid {py_type.__name__}"
        ) from exc


def parse_config(text: str, mode_override: str | None = None, **overrides) -> RunConfig:
    """Parse flat `key = value` lines into a validated RunConfig; `overrides`
    (the CLI's `output_dir` and `seed`) replace the file's values by field
    name before validation, so both sources meet the same rules."""
    values = {}
    lines = {}  # key -> line number, for the range errors
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigTypeError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise UnknownKeyError(f"line {line_no}: unknown key {key!r}")
        entry = _SCHEMA[key]
        declared = entry.type if isinstance(entry.type, type) else type(entry.default)
        values[entry.name] = _parse_value(raw, declared, key, line_no)
        lines[key] = line_no

    if mode_override is not None:
        values["mode"] = mode_override
    for name, value in overrides.items():
        values[name] = value
        lines.pop(_key_of(name), None)  # an error about it names no line of the file
    if "mode" not in values:
        raise MissingRequiredError("required key 'mode' missing")
    cfg = RunConfig(**values)
    _validate(cfg, lines)
    return cfg


def _validate(cfg: RunConfig, lines: dict):
    """Range rules; each ConfigTypeError names the line of the key it is about."""
    if cfg.mode not in MODES:
        raise _at_line(lines, ("mode",), f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.coefficient_kind not in COEFFICIENT_KINDS:
        raise _at_line(lines, ("coefficient.kind",),
                       f"coefficient.kind must be one of {COEFFICIENT_KINDS}, got {cfg.coefficient_kind!r}")
    if cfg.coefficient_kind == "file" and not cfg.coefficient_path:
        raise MissingRequiredError("coefficient.path required when coefficient.kind = file")
    # the domain objects own their range rules, and their messages name the
    # offending field first; a resonant box is a run-time failure.  Both bumps
    # are built whatever the mode and kind, the far-field window and direction
    # floor in far-field mode only
    grid_keys = ("grid.dimension", "grid.box_length", "grid.points_per_axis", "grid.shell_epsilon")
    descent_keys = ("descent.tol_residual", "descent.dedup_rel_threshold",
                    "descent.max_iters", "descent.multistart_count", "seed")
    coefficient_keys = ("coefficient.center", "coefficient.radius", "coefficient.amplitude")
    bump_keys = ("bump.center", "bump.radius", "bump.amplitude")
    builders = [
        (grid_keys, lambda: GridSpec(cfg.grid_dimension, cfg.grid_box_length,
                                     cfg.grid_points_per_axis, cfg.grid_shell_epsilon)),
        (("exponents.p",), lambda: Exponents(cfg.grid_dimension, cfg.exponents_p)),
        (descent_keys, lambda: descent_config(cfg)),
        (coefficient_keys, lambda: coefficient_bump(cfg).check_dimension(cfg.grid_dimension)),
        (bump_keys, lambda: compare_bump(cfg).check_dimension(cfg.grid_dimension)),
    ]
    if cfg.mode == "farfield":
        builders += [
            (("farfield.r_min", "farfield.r_max"),
             lambda: radius_window(cfg.grid_box_length, cfg.grid_box_length / cfg.grid_points_per_axis,
                                   cfg.farfield_r_min, cfg.farfield_r_max)),
            (("farfield.direction_count",),
             lambda: check_direction_floor(cfg.grid_dimension, sampled_directions(cfg.farfield_direction_count))),
        ]
    for keys, build in builders:
        try:
            build()
        except ShellResonanceError:
            pass
        except ValueError as exc:
            raise _at_line(lines, _named_first(keys, str(exc)), str(exc)) from exc


def _named_first(keys: tuple, message: str) -> tuple:
    """keys reordered by where a message first names their field (`p`, `box_length`),
    unnamed keys last in their given order."""
    def first(key):
        found = re.search(rf"\b{re.escape(key.rpartition('.')[2])}\b", message)
        return found.start() if found else len(message)
    return tuple(sorted(keys, key=first))


def _at_line(lines: dict, keys: tuple, message: str) -> ConfigTypeError:
    """A ConfigTypeError naming the line of the first of `keys` the file sets."""
    line = next((lines[k] for k in keys if k in lines), 0)
    return ConfigTypeError(f"line {line}: {message}" if line else message)


def coefficient_bump(cfg: RunConfig) -> BumpDescriptor:
    """The bump of `coefficient.kind = compact_bump`, centred in the box unless
    `coefficient.center` says otherwise.  `sine_product` reads
    `coefficient.amplitude` too, so for any other kind the bump takes
    amplitude 0, and only its center and radius are a bump's."""
    amplitude = cfg.coefficient_amplitude if cfg.coefficient_kind == "compact_bump" else 0.0
    return BumpDescriptor(_center(cfg, cfg.coefficient_center), cfg.coefficient_radius, amplitude)


def compare_bump(cfg: RunConfig) -> BumpDescriptor:
    """The bump that `compare` adds to the periodic background, centred in the
    box unless `bump.center` says otherwise."""
    return BumpDescriptor(_center(cfg, cfg.bump_center), cfg.bump_radius, cfg.bump_amplitude)


def _center(cfg: RunConfig, center: tuple) -> tuple:
    return center or (cfg.grid_box_length / 2.0,) * cfg.grid_dimension


def descent_config(cfg: RunConfig) -> DescentConfig:
    """The descent tolerances and budgets of a run."""
    return DescentConfig(
        tol_residual=cfg.descent_tol_residual,
        max_iters=cfg.descent_max_iters,
        dedup_rel_threshold=cfg.descent_dedup_rel_threshold,
        multistart_count=cfg.descent_multistart_count,
        rng_seed=cfg.seed,
    )


def serialize_config(cfg: RunConfig) -> str:
    """Emit every effective value; parse(serialize(cfg)) == cfg.

    A string value that one config line cannot carry (a `#`, a line break,
    or blanks at either end, which the parser cuts or strips) raises
    ConfigTypeError instead of being written as a different value.
    """
    lines = []
    for f in dataclass_fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ", ".join(repr(x) for x in value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        elif isinstance(value, str):
            if "#" in value or "".join(value.splitlines()) != value or value != value.strip():
                raise ConfigTypeError(
                    f"{_key_of(f.name)} = {value!r} does not fit one config line: "
                    "it holds a '#', a line break or blanks at an end"
                )
            rendered = value
        else:
            rendered = str(value)
        lines.append(f"{_key_of(f.name)} = {rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# binary field files
# ---------------------------------------------------------------------------


def write_field(field: Field) -> bytes:
    grid = field.grid
    header = _HEADER.pack(
        MAGIC, VERSION, grid.dimension, grid.points_per_axis, grid.box_length
    )
    # one allocation: the header and the values joined straight from their buffers
    return b"".join((header, memoryview(np.ascontiguousarray(field.values, dtype="<f8"))))


def read_field(data: bytes, shell_epsilon: float = 0.0) -> Field:
    """Reconstruct a Field; the header does not carry the absorption
    parameter, so pass shell_epsilon when reading onto a regularized grid.
    Every malformed input raises a FieldFileError, including a header whose
    grid GridSpec rejects or whose lattice is resonant at shell_epsilon."""
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError(f"file shorter than the {_HEADER.size}-byte header")
    magic, version, dimension, n, box_length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionMismatchError(f"unsupported version {version}")
    if dimension not in (2, 3):
        raise FieldFileError(f"unsupported dimension {dimension}")
    expected = (n ** dimension) * 8
    payload = memoryview(data)[_HEADER.size:]  # a view: the one copy is the conversion below
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"payload holds {len(payload) // 8} values, header promises {n ** dimension}"
        )
    if len(payload) > expected:
        raise FieldFileError(f"{len(payload) - expected} trailing bytes after payload")
    try:
        grid = GridSpec(
            dimension=dimension,
            box_length=box_length,
            points_per_axis=n,
            shell_epsilon=shell_epsilon,
        )
    except (ValueError, ShellResonanceError) as exc:
        raise FieldFileError(f"bad header: {exc}") from exc
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(grid.shape)
    try:
        return Field(grid, values)  # the one scan for non-finite values
    except ValueError as exc:
        raise FieldFileError("payload holds non-finite values") from exc
