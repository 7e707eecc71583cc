"""Property tests of the position layers: the landscape levels and the pruned orbit test."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdual import Field, FunctionalContext, GridSpec, orbit_distance
from helmdual.dual_functional import sine_product
from helmdual.search import _landscape, _placed, _profile, _within_orbit, initial_field
from conftest import make_sine_context

PROPERTY = settings(max_examples=40, deadline=None, database=None)
CTX = make_sine_context(n=48)  # L = 6, 8 points per unit cell
FLAT_CTX = make_sine_context(n=48, periodic=False)  # the same Q declared non-periodic


def periodic_context(kind, rng, n=48, p=7.0):
    """A unit-periodic Q on the n=48, L=6 grid.

    "sine" is the standard 1 + 0.5 sin sin; "modes" a positive trigonometric
    polynomial with every mode |m_i| <= 3; "zeros" the positive part of such
    a polynomial, which vanishes on part of every cell.
    """
    grid = GridSpec(dimension=2, box_length=6.0, points_per_axis=n)
    if kind == "sine":
        q = sine_product(grid)
    else:
        mesh = grid.unit_cell_mesh()
        q = np.zeros(grid.shape)
        for m in itertools.product(range(-3, 4), repeat=2):
            if any(m):
                phase = 2.0 * np.pi * (m[0] * mesh[0] + m[1] * mesh[1]) + rng.uniform(0.0, 2.0 * np.pi)
                q += rng.normal() * np.cos(phase)
        q = 1.0 + 0.9 * q / np.abs(q).max() if kind == "modes" else np.maximum(q, 0.0)
    return FunctionalContext(Field(grid, q), p, periodic=True)


@PROPERTY
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    cell_shift=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    sign=st.sampled_from([1.0, -1.0]),
    factor=st.floats(0.5, 2.0),
    related=st.booleans(),
    periodic=st.booleans(),
)
def test_pruned_orbit_test_matches_orbit_distance(seed, cell_shift, sign, factor, related, periodic):
    # w is a signed cell translate of v, moved off it by factor times the radius,
    # or an unrelated field; the pruned test must decide as the exact minimum,
    # orbit_distance, does.  initial_field draws a bump with random low-mode
    # texture, which no grid symmetry maps to itself.  The orbit group of the Q
    # declared non-periodic is the identity, so there is no cell shift, and the
    # exact minimum is over the two signs only
    ctx = CTX if periodic else FLAT_CTX
    if not periodic:
        cell_shift = (0, 0)
    rng = np.random.default_rng(seed)
    pc = ctx.exponents.p_conj
    v = initial_field(ctx, rng)
    radius = 1e-2 * v.lp_norm(pc)
    offset = initial_field(ctx, rng).values
    offset *= factor * radius / ctx.lp_norm(offset, pc)
    shift_pts = ctx.grid.unit_shift_points
    base = v.values if related else initial_field(ctx, rng).values
    rolled = np.roll(base, tuple(c * shift_pts for c in cell_shift), axis=(0, 1))
    w = Field(ctx.grid, sign * rolled + offset)
    expected = orbit_distance(ctx, v, w) <= radius
    # the dedup compares grid arrays for a unit-periodic Q, support vectors otherwise
    on_support = (lambda f: f.values) if periodic else (lambda f: ctx.restrict(f.values))
    assert _within_orbit(ctx, on_support(v), on_support(w), radius) == expected


@settings(max_examples=12, deadline=None, database=None)
@given(kind=st.sampled_from(["sine", "modes", "zeros"]), seed=st.integers(0, 2 ** 32 - 1))
def test_landscape_levels_match_placements(kind, seed):
    rng = np.random.default_rng(seed)
    ctx = periodic_context(kind, rng)
    assert ctx.full_support == (kind != "zeros")
    profile = _profile(ctx, ctx.dual_to_primal(initial_field(ctx, rng)).values)
    level = _landscape(ctx, profile)
    cell = ctx.grid.unit_shift_points
    for shift in itertools.product(range(cell), repeat=2):
        placed = _placed(ctx, profile, shift)
        if placed is None:
            assert level(shift) == np.inf
        else:
            assert abs(level(shift) - placed[2]) <= 1e-13 * placed[2]
