"""Config text format and HLMF binary round trips."""

import struct

import numpy as np
import pytest

from helmdual import (
    BadMagicError,
    ConfigTypeError,
    Field,
    FieldFileError,
    GridSpec,
    MissingRequiredError,
    RunConfig,
    TruncatedPayloadError,
    UnknownKeyError,
    VersionMismatchError,
    parse_config,
    read_field,
    serialize_config,
    write_field,
)


class TestParse:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config("mode = solve\n")
        assert cfg.mode == "solve"
        assert cfg.grid_points_per_axis == 96
        assert cfg.descent_tol_residual == 1e-8
        assert cfg.coefficient_kind == "sine_product"

    def test_comments_and_blanks(self):
        cfg = parse_config("""
# experiment alpha
mode = solve   # inline comment
grid.points_per_axis = 48
""")
        assert cfg.grid_points_per_axis == 48

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(UnknownKeyError) as err:
            parse_config("mode = solve\ngird.n = 64\n")
        assert "gird.n" in str(err.value)
        assert "line 2" in str(err.value)

    def test_type_error_names_key_and_line(self):
        with pytest.raises(ConfigTypeError) as err:
            parse_config("mode = solve\ngrid.points_per_axis = soup\n")
        assert "grid.points_per_axis" in str(err.value)
        assert "line 2" in str(err.value)

    def test_missing_mode(self):
        with pytest.raises(MissingRequiredError):
            parse_config("grid.points_per_axis = 32\n")

    def test_mode_override(self):
        cfg = parse_config("grid.points_per_axis = 32\n", mode_override="farfield")
        assert cfg.mode == "farfield"

    def test_invalid_mode_and_kind(self):
        with pytest.raises(ConfigTypeError):
            parse_config("mode = dance\n")
        with pytest.raises(ConfigTypeError):
            parse_config("mode = solve\ncoefficient.kind = tartan\n")
        with pytest.raises(MissingRequiredError):
            parse_config("mode = solve\ncoefficient.kind = file\n")

    @pytest.mark.parametrize("line", [
        "grid.points_per_axis = 7",
        "grid.points_per_axis = 0",
        "grid.box_length = nan",
        "grid.shell_epsilon = -1.0",
        "grid.dimension = 4",
        "exponents.p = 3.0",
        "grid.box_length = 6.283185307179586\nexponents.p = 3.0",
        "descent.multistart_count = 0",
        "descent.max_iters = 0",
        "descent.tol_residual = -1e-8",
        "descent.armijo_shrink = 1.0",
        "descent.anderson_depth = -1",
        "descent.tol_residual = nan",
        "descent.step_init = nan",
        "descent.dedup_rel_threshold = nan",
        "grid.dimension = 3\nexponents.p = 5.0\ncoefficient.center = 9.2, 8.7",
        "coefficient.center = 1.0, 2.0, 3.0, 4.0",
        "bump.center = 1.0, 2.0, 3.0",
        "coefficient.radius = 0.0",
        "bump.radius = -1.0",
        "bump.radius = nan",
        "bump.amplitude = -0.3",
    ])
    def test_unbuildable_values_rejected(self, line):
        with pytest.raises(ConfigTypeError):
            parse_config(f"mode = solve\n{line}\n")

    def test_resonant_box_parses(self):
        # the shell resonance is reported by the run, with error.json
        cfg = parse_config("mode = solve\ngrid.box_length = 6.283185307179586\n")
        assert cfg.grid_box_length == 6.283185307179586

    def test_vector_values(self):
        cfg = parse_config("mode = compare\nbump.center = 3.0, 2.5\n")
        assert cfg.bump_center == (3.0, 2.5)

    def test_roundtrip(self):
        cfg = parse_config(
            "mode = compare\nbump.center = 3.0, 2.5\nseed = 17\n"
            "descent.tol_residual = 1e-7\ncoefficient.periodic = false\n"
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_roundtrip_default(self):
        cfg = RunConfig(mode="selftest")
        assert parse_config(serialize_config(cfg)) == cfg


class TestFieldFile:
    def test_bitexact_roundtrip(self):
        grid = GridSpec(2, 6.0, 16)
        rng = np.random.default_rng(0)
        field = Field(grid, rng.standard_normal(grid.shape))
        blob = write_field(field)
        back = read_field(blob)
        assert back.grid == grid
        assert back.values.tobytes() == field.values.tobytes()

    def test_bad_magic(self):
        grid = GridSpec(2, 6.0, 16)
        blob = write_field(Field(grid, np.zeros(grid.shape)))
        with pytest.raises(BadMagicError):
            read_field(b"NOPE" + blob[4:])

    def test_version_mismatch(self):
        grid = GridSpec(2, 6.0, 16)
        blob = bytearray(write_field(Field(grid, np.zeros(grid.shape))))
        blob[4] = 99
        with pytest.raises(VersionMismatchError):
            read_field(bytes(blob))

    @pytest.mark.parametrize("n, box_length", [
        (15, 6.0),            # odd points per axis
        (0, 6.0),             # nonpositive points per axis
        (16, float("nan")),   # NaN box length
        (16, -6.0),           # nonpositive box length
    ])
    def test_bad_header_values(self, n, box_length):
        blob = struct.pack("<4sIIId", b"HLMF", 1, 2, n, box_length) + bytes(8 * n * n)
        with pytest.raises(FieldFileError):
            read_field(blob)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_payload(self, bad):
        values = np.zeros((16, 16))
        values[3, 5] = bad
        blob = struct.pack("<4sIIId", b"HLMF", 1, 2, 16, 6.0) + values.astype("<f8").tobytes()
        with pytest.raises(FieldFileError):
            read_field(blob)

    def test_truncated_payload(self):
        grid = GridSpec(2, 6.0, 16)
        blob = write_field(Field(grid, np.zeros(grid.shape)))
        with pytest.raises(TruncatedPayloadError):
            read_field(blob[:-8])
        with pytest.raises(TruncatedPayloadError):
            read_field(blob[:10])

    def test_trailing_bytes_rejected(self):
        grid = GridSpec(2, 6.0, 16)
        blob = write_field(Field(grid, np.zeros(grid.shape)))
        with pytest.raises(FieldFileError):
            read_field(blob + b"\x00" * 8)

    def test_epsilon_override(self):
        grid = GridSpec(2, 2.0 * np.pi, 16, shell_epsilon=0.5)
        field = Field(grid, np.ones(grid.shape))
        back = read_field(write_field(field), shell_epsilon=0.5)
        assert back.grid == grid
