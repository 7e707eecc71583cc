"""Property tests of the two file formats: HLMF decoding under malformed input,
and the config text round trip over generated valid configs."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helmdual import ConfigTypeError, DomainError, Field, FieldFileError, GridSpec, RunConfig
from helmdual.config import COEFFICIENT_KINDS, MODES, parse_config, read_field, serialize_config, write_field
from helmdual.farfield import FIT_DEGREE, radius_window

PROPERTY = settings(max_examples=150, deadline=None, database=None)
HEADER = struct.Struct("<4sIIId")
U32 = st.integers(0, 2**32 - 1)
# spacing underflows (5e-324, 1e-300), not finite, nonpositive, resonant at n >= 2 (2 pi)
SPECIAL_LENGTHS = [5e-324, 1e-300, math.inf, math.nan, -0.0, 0.0, -6.0, 6.0, 1e300, 2.0 * math.pi]


def decode(data: bytes):
    """read_field(data) with every warning an error: a Field, or None for a FieldFileError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            field = read_field(data)
        except FieldFileError:
            return None
    # whatever decodes is exactly what the bytes say
    assert write_field(field) == data
    return field


@st.composite
def field_blobs(draw):
    """write_field of a random field on a small valid grid."""
    dimension = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([2, 4, 8, 16] if dimension == 2 else [2, 4, 8]))
    grid = GridSpec(dimension, draw(st.sampled_from([6.0, 8.0, 16.0])), n)
    values = np.random.default_rng(draw(U32)).standard_normal(grid.shape)
    return write_field(Field(grid, values))


@PROPERTY
@given(field_blobs(), st.data())
def test_truncated_file_is_field_file_error(blob, data):
    cut = data.draw(st.integers(0, len(blob) - 1))
    assert decode(blob[:cut]) is None


@PROPERTY
@given(field_blobs(), st.data())
def test_flipped_bytes_decode_or_raise(blob, data):
    flipped = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(blob) - 1))
        flipped[at] ^= data.draw(st.integers(1, 255))
    decode(bytes(flipped))


@PROPERTY
@given(
    magic=st.one_of(st.just(b"HLMF"), st.binary(min_size=4, max_size=4)),
    version=st.one_of(st.just(1), U32),
    dimension=st.one_of(st.integers(0, 4), U32),
    n=st.one_of(st.sampled_from([0, 1, 2, 4, 15, 16]), U32),
    box_length=st.one_of(st.sampled_from(SPECIAL_LENGTHS), st.floats()),
    data=st.data(),
)
def test_generated_header_decodes_or_raises(magic, version, dimension, n, box_length, data):
    # a payload that fits the header, where the header can be read that far
    if dimension in (2, 3) and n <= 64 and n ** dimension <= 4096 and data.draw(st.booleans()):
        count = n ** dimension
        payload = np.random.default_rng(data.draw(U32)).standard_normal(count).astype("<f8").tobytes()
    else:
        payload = data.draw(st.binary(max_size=512))
    decode(HEADER.pack(magic, version, dimension, n, box_length) + payload)


@PROPERTY
@given(
    dimension=st.sampled_from([2, 3]),
    n=st.sampled_from([2, 4, 8, 16]),
    box_length=st.one_of(st.sampled_from(SPECIAL_LENGTHS), st.floats()),
)
def test_generated_box_length_decodes_or_raises(dimension, n, box_length):
    # a well-formed file but for its box length
    payload = np.ones(n ** dimension).astype("<f8").tobytes()
    field = decode(HEADER.pack(b"HLMF", 1, dimension, n, box_length) + payload)
    if box_length in (5e-324, 1e-300) or not box_length > 0.0 or math.isinf(box_length):
        assert field is None


def _text():
    """Any string, with comment marks, line breaks and blanks drawn often."""
    special = st.sampled_from("# \t\n\r\x0b\x0c\x1c\x85\u2028\u3000")
    return st.text(st.one_of(st.characters(blacklist_categories=("Cs",)), special), max_size=12)


def _fits_line(s):
    """Whether one config line carries s: no comment mark, no line break, no edge blanks."""
    return "#" not in s and len(s.splitlines()) <= 1 and s == s.strip()


def _floats(**kwargs):
    return st.floats(allow_nan=False, **kwargs)


def _bump_floats(**kwargs):
    """A bump's radius or amplitude: finite, as `BumpDescriptor` requires."""
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def valid_configs(draw):
    """A RunConfig that passes validation, drawn field by field from its rules."""
    mode = draw(st.sampled_from(MODES))
    dimension = draw(st.sampled_from([2, 3]))
    n = 2 * draw(st.integers(1, 32 if dimension == 2 else 12))
    box_length = draw(_floats(min_value=0.5, max_value=64.0))
    if dimension == 2:
        p = draw(_floats(min_value=6.0, max_value=1e6, exclude_min=True))
    else:
        p = draw(_floats(min_value=4.0, max_value=6.0, exclude_min=True, exclude_max=True))
    kind = draw(st.sampled_from(COEFFICIENT_KINDS))
    path = draw(_text())
    assume(path or kind != "file")
    centers = st.one_of(st.just(()), st.tuples(*[_floats()] * dimension))
    r_min = draw(st.one_of(st.just(0.0), _floats()))
    r_max = draw(st.one_of(st.just(0.0), _floats()))
    least = -2**31
    if mode == "farfield":
        try:
            radius_window(box_length, box_length / n, r_min, r_max)
        except DomainError:
            assume(False)
        least = math.comb(FIT_DEGREE + dimension, dimension)
    return RunConfig(
        mode=mode,
        grid_dimension=dimension,
        grid_box_length=box_length,
        grid_points_per_axis=n,
        grid_shell_epsilon=draw(st.one_of(st.just(0.0), _floats(min_value=0.0, max_value=1e6))),
        exponents_p=p,
        coefficient_kind=kind,
        coefficient_value=draw(_floats()),
        coefficient_offset=draw(_floats()),
        # a bump's amplitude for compact_bump, any float for sine_product
        coefficient_amplitude=draw(_bump_floats(min_value=0.0) if kind == "compact_bump" else _floats()),
        coefficient_center=draw(centers),
        coefficient_radius=draw(_bump_floats(min_value=0.0, exclude_min=True)),
        coefficient_path=path,
        coefficient_periodic=draw(st.booleans()),
        descent_tol_residual=draw(_floats(min_value=0.0, exclude_min=True)),
        descent_max_iters=draw(st.integers(1, 2**31)),
        descent_dedup_rel_threshold=draw(_floats(min_value=0.0, exclude_min=True)),
        descent_multistart_count=draw(st.integers(1, 2**31)),
        bump_center=draw(centers),
        bump_radius=draw(_bump_floats(min_value=0.0, exclude_min=True)),
        bump_amplitude=draw(_bump_floats(min_value=0.0)),
        farfield_direction_count=draw(st.integers(least, 2**31)),
        farfield_r_min=r_min,
        farfield_r_max=r_max,
        seed=draw(st.integers(0, 2**70)),  # SeedSequence takes no negative seed
        output_dir=draw(_text()),
    )


@PROPERTY
@given(valid_configs())
def test_config_round_trip(cfg):
    # a string one line cannot carry is a ConfigTypeError; everything else round-trips
    if _fits_line(cfg.coefficient_path) and _fits_line(cfg.output_dir):
        assert parse_config(serialize_config(cfg)) == cfg
    else:
        with pytest.raises(ConfigTypeError, match="does not fit one config line"):
            serialize_config(cfg)
