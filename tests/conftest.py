import numpy as np
import pytest

from helmdual import Coefficient, Exponents, Field, FunctionalContext, GridSpec


def make_sine_context(n=48, L=6.0, p=7.0, eps=0.0, dimension=2):
    """Standard oscillating coefficient 1 + 0.5 prod sin(2 pi x_j), >= 0.5."""
    grid = GridSpec(dimension=dimension, box_length=L, points_per_axis=n, shell_epsilon=eps)
    mesh = grid.unit_cell_mesh()
    q = 1.0 + 0.5 * np.prod([np.sin(2.0 * np.pi * m) for m in mesh], axis=0)
    coeff = Coefficient.build(Field(grid, q), p, periodic=True)
    return FunctionalContext(grid, Exponents(dimension, p), coeff)


def make_constant_context(n=32, L=None, p=7.0, dimension=2, value=1.0, eps=0.0):
    """Q = const on a box whose lattice carries |k|^2 = 2 modes (L = pi sqrt 2)."""
    if L is None:
        L = np.pi * np.sqrt(2.0)
    grid = GridSpec(dimension=dimension, box_length=L, points_per_axis=n, shell_epsilon=eps)
    coeff = Coefficient.build(Field(grid, np.full(grid.shape, value)), p, periodic=False)
    return FunctionalContext(grid, Exponents(dimension, p), coeff)


def make_bump_context(n=32, L=8.0, p=7.0, radius=1.5, dimension=2, eps=0.0):
    """Compactly supported bump Q = exp(1 - 1/(1 - |x - c|^2/radius^2)) off the box center."""
    grid = GridSpec(dimension=dimension, box_length=L, points_per_axis=n, shell_epsilon=eps)
    center = [0.55 * L] + [0.5 * L] * (dimension - 1)
    s2 = sum((m - c) ** 2 for m, c in zip(grid.coordinate_mesh(), center)) / radius ** 2
    q = np.where(s2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - s2)), 0.0)
    coeff = Coefficient.build(Field(grid, q), p, periodic=False)
    return FunctionalContext(grid, Exponents(dimension, p), coeff)


def mode_field(grid, m, kind="cos"):
    mesh = grid.coordinate_mesh()
    phase = sum(2.0 * np.pi * mi * x / grid.box_length for mi, x in zip(m, mesh))
    return Field(grid, np.cos(phase) if kind == "cos" else np.sin(phase))


def random_field(ctx_or_grid, rng, scale=1.0):
    grid = getattr(ctx_or_grid, "grid", ctx_or_grid)
    return Field(grid, scale * rng.standard_normal(grid.shape))


@pytest.fixture(scope="session")
def sine_ctx():
    return make_sine_context()


@pytest.fixture(scope="session")
def const_ctx():
    return make_constant_context()
