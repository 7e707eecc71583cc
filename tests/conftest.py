import tracemalloc

import numpy as np
import pytest

from helmdual import BumpDescriptor, Field, FunctionalContext, GridSpec, helmholtz_multiplier
from helmdual.asymptotic import bump_profile
from helmdual.dual_functional import sine_product
from helmdual.selftest import mode_field, random_field  # noqa: F401  (shared with the tests)


def make_sine_context(n=48, L=6.0, p=7.0, eps=0.0, dimension=2, periodic=True):
    """Standard oscillating coefficient 1 + 0.5 prod sin(2 pi x_j), >= 0.5.

    periodic=False samples the same Q but declares it non-periodic, which
    turns off everything that uses its unit-cell translations: recentering,
    the placement and the cell shifts of the orbit dedup.  The snap still
    runs, over the whole box instead of the unit cell.
    """
    grid = GridSpec(dimension=dimension, box_length=L, points_per_axis=n, shell_epsilon=eps)
    return FunctionalContext(Field(grid, sine_product(grid)), p, periodic=periodic)


def make_constant_context(n=32, L=None, p=7.0, dimension=2, value=1.0, eps=0.0):
    """Q = const on a box whose lattice carries |k|^2 = 2 modes (L = pi sqrt 2)."""
    if L is None:
        L = np.pi * np.sqrt(2.0)
    grid = GridSpec(dimension=dimension, box_length=L, points_per_axis=n, shell_epsilon=eps)
    return FunctionalContext(Field(grid, np.full(grid.shape, value)), p)


def make_bump_context(n=32, L=8.0, p=7.0, radius=1.5, dimension=2, eps=0.0):
    """Compactly supported bump Q = exp(1 - 1/(1 - |x - c|^2/radius^2)) off the box center."""
    grid = GridSpec(dimension=dimension, box_length=L, points_per_axis=n, shell_epsilon=eps)
    center = (0.55 * L,) + (0.5 * L,) * (dimension - 1)
    q = bump_profile(grid, BumpDescriptor(center=center, radius=radius, amplitude=1.0))
    return FunctionalContext(Field(grid, q), p)


def make_spanning_bump_context():
    """A bump of radius 3.4 centred in L = 6 on n = 48 points: Q vanishes at 205 of
    the 2,304 points, near the corners, but the support's box spans the grid."""
    grid = GridSpec(dimension=2, box_length=6.0, points_per_axis=48)
    q = bump_profile(grid, BumpDescriptor(center=(3.0, 3.0), radius=3.4, amplitude=0.5))
    return FunctionalContext(Field(grid, q), 7.0)


def spans_grid(ctx):
    """Whether the support's box is the whole grid."""
    return ctx.box == tuple(slice(0, n) for n in ctx.grid.shape)


def window_pair(ctx, vs):
    """K on support vectors as one unpruned fftn/ifftn pair on `_k_window`'s window."""
    spectrum, _, flat = ctx._k_window
    spec = np.zeros(spectrum.shape, dtype=complex)
    spec.reshape(-1)[flat] = ctx.q_support * vs
    spec = np.fft.ifftn(spectrum * np.fft.fftn(spec))
    return ctx.q_support * spec.reshape(-1).real[flat]


def real_resolvent(ctx, v):
    """R(Q^{1/p} v) as numpy's unpruned real pair: sigma on the half spectrum.
    `axes` goes with `s`: `s` alone is deprecated since numpy 2.0."""
    shape = ctx.grid.shape
    sigma = helmholtz_multiplier(ctx.grid)[..., : shape[-1] // 2 + 1]
    return np.fft.irfftn(sigma * np.fft.rfftn(ctx.q_root * v), s=shape, axes=tuple(range(len(shape))))


def full_mesh(grid):
    """The N whole-grid coordinate arrays, for oracles that need them unbroadcast."""
    return np.broadcast_arrays(*grid.open_mesh())


def traced_peak(call, *args):
    """call(*args) and the peak of the memory it traced above what was traced on
    entry.  tracemalloc sees numpy's buffers exactly, with no page rounding, so
    the peak repeats from run to run."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return result, peak


def dft_matrix(grid):
    """Dense DFT matrix W of the grid in row-major order: W f.ravel() = fftn(f).ravel()."""
    n = grid.points_per_axis
    coords = np.stack([m.ravel() for m in np.meshgrid(
        *([np.arange(n)] * grid.dimension), indexing="ij")], axis=1)
    return np.exp(-2j * np.pi * coords @ coords.T / n)


@pytest.fixture(scope="session")
def sine_ctx():
    return make_sine_context()


@pytest.fixture(scope="session")
def const_ctx():
    return make_constant_context()
