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

from conftest import traced_peak


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

    # step_init and armijo_shrink are not descent keys: the descent has no damped line search;
    # the Armijo constant, the Anderson depth and the fit degree are module constants, and
    # the divergence floor and the shell count are not settable
    @pytest.mark.parametrize("line", [
        "gird.n = 64",
        "descent.step_init = 1.0",
        "descent.armijo_shrink = 0.5",
        "descent.armijo_c = 0.0001",
        "descent.anderson_depth = -1",
        "descent.divergence_floor = nan",
        "farfield.fit_degree = 6",
        "farfield.shell_count = 8",
    ])
    def test_unknown_key_names_key_and_line(self, line):
        with pytest.raises(UnknownKeyError) as err:
            parse_config(f"mode = solve\n{line}\n")
        assert line.partition(" = ")[0] in str(err.value)
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

    def test_field_overrides_are_validated_in_place_of_the_file_values(self):
        # the CLI's --seed and --out: a bad file value is replaced, a bad override rejected
        cfg = parse_config("mode = solve\nseed = -1\n", seed=4, output_dir="runs")
        assert (cfg.seed, cfg.output_dir) == (4, "runs")
        with pytest.raises(ConfigTypeError, match="nonnegative"):
            parse_config("mode = solve\nseed = 4\n", seed=-1)

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
        "grid.box_length = inf",
        "grid.shell_epsilon = -1.0",
        "grid.shell_epsilon = nan",
        "grid.shell_epsilon = inf",
        "grid.dimension = 4",
        "exponents.p = 3.0",
        "grid.box_length = 6.283185307179586\nexponents.p = 3.0",
        "descent.multistart_count = 0",
        "descent.max_iters = 0",
        "descent.tol_residual = -1e-8",
        "descent.tol_residual = nan",
        "descent.dedup_rel_threshold = nan",
        "grid.dimension = 3\nexponents.p = 5.0\ncoefficient.center = 9.2, 8.7",
        "coefficient.center = 1.0, 2.0, 3.0, 4.0",
        "bump.center = 1.0, 2.0, 3.0",
        "coefficient.radius = 0.0",
        "bump.radius = -1.0",
        "bump.radius = nan",
        "bump.amplitude = -0.3",
        "bump.radius = inf",
        "bump.amplitude = inf",
        "coefficient.kind = compact_bump\ncoefficient.radius = inf",
        "coefficient.kind = compact_bump\ncoefficient.amplitude = -1",
    ])
    def test_unbuildable_values_rejected(self, line):
        # the last line of each case is the rejected one, after mode on line 1;
        # the message names its line, then its key or field
        line_no = line.count("\n") + 2
        key = line.splitlines()[-1].partition(" = ")[0]
        with pytest.raises(ConfigTypeError, match=rf"^line {line_no}: ") as err:
            parse_config(f"mode = solve\n{line}\n")
        rest = str(err.value).partition(": ")[2]
        assert rest.startswith((key, key.rpartition(".")[2]))

    @pytest.mark.parametrize("lines, line_no", [
        ("exponents.p = 3.0\ngrid.box_length = 6.0", 2),
        ("grid.box_length = 1e-300\ngrid.points_per_axis = 8", 2),
        ("grid.points_per_axis = 8\ngrid.box_length = 1e-300", 3),
        ("descent.tol_residual = nan\ndescent.max_iters = 5", 2),
        ("coefficient.kind = tartan", 2),
    ], ids=["p_before_box", "box_before_points", "points_before_box", "tolerance_first", "kind"])
    def test_range_error_names_the_rejected_key_line(self, lines, line_no):
        # not the first line of the object's keys, but the line of the key its message names
        with pytest.raises(ConfigTypeError, match=rf"^line {line_no}: "):
            parse_config(f"mode = solve\n{lines}\n")

    def test_invalid_mode_names_its_line(self):
        with pytest.raises(ConfigTypeError, match=r"^line 3: mode must be one of"):
            parse_config("# a run\ngrid.points_per_axis = 48\nmode = dance\n")

    @pytest.mark.parametrize("value", ["runs/#3", " runs", "runs ", "runs\nmore", "a\rb", "a\x85b", "\u2028"])
    @pytest.mark.parametrize("field", ["output_dir", "coefficient_path"])
    def test_string_the_config_cannot_carry_is_rejected(self, field, value):
        # a '#' starts a comment, a line break ends the line, edge blanks are stripped
        cfg = parse_config("mode = solve\n")
        setattr(cfg, field, value)
        with pytest.raises(ConfigTypeError, match="does not fit one config line"):
            serialize_config(cfg)

    @pytest.mark.parametrize("line", [
        "farfield.r_min = 2.8",  # above the default r_max = 0.46 L = 2.76
        "farfield.r_max = 3.5",  # beyond L/2
        "farfield.r_min = -1.0",
        "farfield.r_max = nan",
        "farfield.r_min = 2.0\nfarfield.r_max = 1.5",
    ])
    def test_bad_farfield_window_rejected(self, line):
        with pytest.raises(ConfigTypeError, match=r"^line 2: need 0 < r_min < r_max"):
            parse_config(f"mode = farfield\n{line}\n")
        # only the far-field mode runs the check
        parse_config(f"mode = solve\n{line}\n")

    @pytest.mark.parametrize("dimension, count", [
        (2, 26), (2, 0), (2, -7), (3, 82), (3, 10), (3, 0),
    ])
    def test_too_few_farfield_directions_rejected(self, dimension, count):
        # the run samples the count rounded up to an even number, at least 2;
        # below comb(FIT_DEGREE + N, N) monomials (28 in 2d, 84 in 3d) the fit is underdetermined
        p = 7.0 if dimension == 2 else 5.0
        text = (f"mode = farfield\ngrid.dimension = {dimension}\nexponents.p = {p}\n"
                f"farfield.direction_count = {count}\n")
        sampled = max(2, count + count % 2)
        with pytest.raises(ConfigTypeError, match=rf"^line 4: {sampled} sampled directions cannot fit"):
            parse_config(text)
        # only the far-field mode runs the check
        parse_config(text.replace("mode = farfield", "mode = solve"))

    @pytest.mark.parametrize("dimension, count", [(2, 27), (2, 28), (3, 83), (3, 84)])
    def test_farfield_directions_at_the_monomial_count_parse(self, dimension, count):
        # an odd count is rounded up to the even count the run samples
        p = 7.0 if dimension == 2 else 5.0
        cfg = parse_config(f"mode = farfield\ngrid.dimension = {dimension}\nexponents.p = {p}\n"
                           f"farfield.direction_count = {count}\n")
        assert cfg.farfield_direction_count == count

    @pytest.mark.parametrize("length", ["5e-324", "1e-300", "1e-100"])
    def test_box_length_without_a_spectrum_rejected(self, length):
        # the spacing underflows, or the lattice frequencies overflow the symbol
        with pytest.raises(ConfigTypeError, match="box_length"):
            parse_config(f"mode = solve\ngrid.box_length = {length}\n")

    def test_farfield_window_below_default_r_max_parses(self):
        cfg = parse_config("mode = farfield\nfarfield.r_min = 2.7\n")
        assert (cfg.farfield_r_min, cfg.farfield_r_max) == (2.7, 0.0)

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
        (16, float("inf")),   # infinite box length
        (16, -6.0),           # nonpositive box length
    ])
    def test_bad_header_values(self, n, box_length):
        blob = struct.pack("<4sIIId", b"HLMF", 1, 2, n, box_length) + bytes(8 * n * n)
        with pytest.raises(FieldFileError):
            read_field(blob)

    @pytest.mark.parametrize("box_length", [5e-324, 1e-300])
    def test_box_length_without_a_spectrum(self, box_length):
        blob = struct.pack("<4sIIId", b"HLMF", 1, 2, 16, box_length) + bytes(8 * 16 * 16)
        with pytest.raises(FieldFileError, match="bad header"):
            read_field(blob)

    def test_resonant_header_is_field_file_error(self):
        # L = 2 pi puts |m| = 1 on the unit shell; without absorption the header has no grid
        blob = struct.pack("<4sIIId", b"HLMF", 1, 2, 16, 2.0 * np.pi) + bytes(8 * 16 * 16)
        with pytest.raises(FieldFileError, match="bad header"):
            read_field(blob)
        assert read_field(blob, shell_epsilon=0.5).grid.box_length == 2.0 * np.pi

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

    def test_read_holds_the_file_and_one_array(self):
        # the payload is read through a view and converted once, and the header's
        # grid checks its resonance on the half spectrum, and the finiteness
        # check forms no mask: 1.01 fields above the file's bytes, where the
        # sliced payload beside a whole-lattice |k|^2 - 1 and its abs took 3.0
        grid = GridSpec(2, 6.0, 256)
        blob = write_field(Field(grid, np.random.default_rng(1).standard_normal(grid.shape)))
        read_field(blob)  # imports, outside the trace
        back, peak = traced_peak(read_field, blob)
        assert back.values.tobytes() == blob[struct.calcsize("<4sIIId"):]
        assert peak <= 1.3 * 8 * grid.size

    def test_epsilon_override(self):
        grid = GridSpec(2, 2.0 * np.pi, 16, shell_epsilon=0.5)
        field = Field(grid, np.ones(grid.shape))
        back = read_field(write_field(field), shell_epsilon=0.5)
        assert back.grid == grid
