"""Property tests on random supports: K's window grid against the torus pair
and its pruned passes against the unpruned window pair, R against numpy's real
pair, and the homogeneity of the fibering map; the integer powers against `**`."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helmdual import Field, FunctionalContext, GridSpec, helmholtz_multiplier
from helmdual.dual_functional import abs_power, odd_power
from conftest import real_resolvent, window_pair

PROPERTY = settings(max_examples=60, deadline=None, database=None)
# Worst case seen over 400 random supports: 1.5e-15 (sandwich, relative to
# max|ref|) and 1.6e-16 (symmetry, relative to ||u|| ||Kv|| + ||v|| ||Ku||).
BOUND = 1e-14


@st.composite
def support_contexts(draw, full=False):
    """Q > 0 on a random block of the L = 8 torus, with random holes; with
    `full`, Q > 0 at every point.

    Per axis the block is an index run of random start and length that wraps
    around the periodic edge when it passes n; runs of one point and runs
    spanning the whole axis are drawn often.
    """
    dimension = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([16, 24, 32] if dimension == 2 else [12, 16]))
    runs = []
    for _ in range(dimension):
        length = n if full else draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
        start = 0 if full else draw(st.integers(0, n - 1))
        runs.append((start + np.arange(length)) % n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSpec(dimension=dimension, box_length=8.0, points_per_axis=n)
    q = np.zeros(grid.shape)
    q[np.ix_(*runs)] = rng.uniform(0.2, 2.0, [len(r) for r in runs])
    holes = rng.random(grid.shape) < (0.0 if full else draw(st.sampled_from([0.0, 0.3, 0.7])))
    if np.any(q[~holes] > 0.0):
        q[holes] = 0.0
    p = 7.0 if dimension == 2 else 5.0
    return FunctionalContext(Field(grid, q), p), rng


@PROPERTY
@given(support_contexts())
def test_k_is_the_torus_sandwich(drawn):
    ctx, rng = drawn
    v = rng.standard_normal(ctx.grid.shape)
    q = ctx.q_root
    ref = ctx.restrict(q * np.fft.ifftn(helmholtz_multiplier(ctx.grid) * np.fft.fftn(q * v)).real)
    got = ctx.apply_k_support(ctx.restrict(v))
    assert np.max(np.abs(got - ref)) <= BOUND * np.max(np.abs(ref))


@PROPERTY
@given(support_contexts())
def test_pruned_k_is_the_window_pair(drawn):
    # K's transforms skip the lines that hold exact zeros or reach no point of
    # the box, holes inside the box included: the unpruned window pair bit for bit
    ctx, rng = drawn
    vs = rng.standard_normal(ctx.q_support.size)
    assert ctx.apply_k_support(vs).tobytes() == window_pair(ctx, vs).tobytes()


@PROPERTY
@given(support_contexts())
def test_resolvent_is_the_real_pair(drawn):
    ctx, rng = drawn
    vs = rng.standard_normal(ctx.q_support.size)
    assert ctx.resolvent_array(vs).tobytes() == real_resolvent(ctx, ctx.extend(vs)).tobytes()


@PROPERTY
@given(support_contexts())
def test_k_is_symmetric(drawn):
    ctx, rng = drawn
    u, v = rng.standard_normal((2, ctx.q_support.size))
    ku, kv = ctx.apply_k_support(u), ctx.apply_k_support(v)
    scale = np.linalg.norm(u) * np.linalg.norm(kv) + np.linalg.norm(v) * np.linalg.norm(ku)
    assert abs(u @ kv - v @ ku) <= BOUND * scale


@PROPERTY
@given(st.one_of(support_contexts(), support_contexts(full=True)), st.floats(-3.0, 3.0))
def test_fibering_is_homogeneous(drawn, log_s):
    # t_{s v} = t_v / s, and the fibering level does not see the scale s in [1e-3, 1e3]
    ctx, rng = drawn
    s = 10.0 ** log_s
    v = Field(ctx.grid, ctx.extend(rng.standard_normal(ctx.q_support.size)))
    assume(ctx.quadratic_form(v) > 0.0)
    t, level = ctx.fibering_scale(v), ctx.nehari_energy(v)
    assert abs(s * ctx.fibering_scale(s * v) - t) <= 1e-12 * t
    assert abs(ctx.nehari_energy(s * v) - level) <= 1e-12 * level


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=16), st.integers(2, 12))
def test_integer_power_matches_pow(values, k):
    # repeated squaring rounds once per product: within k ulp of `**` where the
    # result is normal, and 0, +-0, NaN and overflow as `**` gives them
    x = np.array(values)
    a = np.abs(x)
    with np.errstate(all="ignore"):
        got, want = abs_power(x, float(k)), a ** float(k)
        odd = odd_power(x, float(k))
        size = k * np.log2(a)  # log2 of |x|^k, without its rounding
    assert got.tobytes() == np.abs(odd).tobytes()
    # overflow: only a band of a few ulp around the largest float may round either way
    exact = (a == 0.0) | ~np.isfinite(a) | (size > 1024.0 + 1e-9)
    assert np.array_equal(got[exact], want[exact], equal_nan=True)
    signed = exact & ~np.isnan(a)
    assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))
    normal = np.isfinite(want) & (want >= np.finfo(float).tiny) & (size < 1024.0 - 1e-9)
    assert np.all(np.abs(got[normal] - want[normal]) <= k * np.spacing(want[normal]))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=16),
       st.floats(0.05, 12.0).filter(lambda e: e != int(e)))
def test_other_powers_are_pow(values, exponent):
    x = np.array(values)
    with np.errstate(all="ignore"):
        assert abs_power(x, exponent).tobytes() == (np.abs(x) ** exponent).tobytes()
