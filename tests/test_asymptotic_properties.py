"""Property tests of the transplant on random backgrounds, bumps and fields."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdual import BumpDescriptor, Field, FunctionalContext, GridSpec, build_asymptotic_coefficient, transplant

PROPERTY = settings(max_examples=60, deadline=None, database=None)
L = 8.0


@st.composite
def pairs(draw):
    """A background Q_inf on the L = 8 torus with a bump that fits in the box.

    Q_inf is positive everywhere, or vanishes on a random part of the grid.
    """
    dimension = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([16, 32] if dimension == 2 else [12, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSpec(dimension=dimension, box_length=L, points_per_axis=n)
    q_inf = rng.uniform(0.2, 2.0, grid.shape)
    holes = rng.random(grid.shape) < draw(st.sampled_from([0.0, 0.5]))
    if np.any(q_inf[~holes] > 0.0):
        q_inf[holes] = 0.0
    p = 7.0 if dimension == 2 else 5.0
    radius = draw(st.floats(0.3, 2.0))
    center = tuple(draw(st.floats(radius, L - radius)) for _ in range(dimension))
    bump = BumpDescriptor(center, radius, draw(st.floats(0.0, 3.0)))
    pair = build_asymptotic_coefficient(FunctionalContext(Field(grid, q_inf), p), bump)
    return pair, Field(grid, rng.standard_normal(grid.shape))


@PROPERTY
@given(pairs())
def test_transplant_carries_the_sandwiched_field(drawn):
    # Q^{1/p} v = Q_inf^{1/p} w at every point, so both quadratic forms see one field
    pair, w = drawn
    v = transplant(pair, w)
    lhs = pair.ctx.q_root * v.values
    rhs = pair.ctx_inf.q_root * w.values
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs))


@PROPERTY
@given(pairs())
def test_transplant_does_not_grow_the_dual_norm(drawn):
    pair, w = drawn
    pc = pair.ctx.exponents.p_conj
    assert transplant(pair, w).lp_norm(pc) <= w.lp_norm(pc)
