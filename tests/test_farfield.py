"""Far-field amplitudes, decay fits, and expansion-error diagnostics."""

import dataclasses
import gc
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helmdual import farfield, kernel, selftest
from helmdual import (
    BumpDescriptor,
    DescentConfig,
    DomainError,
    Field,
    FunctionalContext,
    GridMismatchError,
    GridSpec,
    InsufficientShellsError,
    InterpolationDegenerateError,
    SphereSamples,
    decay_and_expansion_check,
    equal_area_directions,
    farfield_amplitude,
    multistart_search,
    odd_power,
)
from helmdual.asymptotic import bump_profile
from helmdual.cli import build_context, main
from helmdual.config import parse_config
from helmdual.farfield import (
    BLOCK_ALIGN,
    FIT_DEGREE,
    _box_transform,
    _monomial_design,
    _row_blocks,
    _sphere_interpolant,
    radius_window,
)
from conftest import full_mesh, spans_grid, traced_peak

TESTS = Path(__file__).resolve().parent
FARFIELD3D = TESTS.parent / "perfbench" / "configs" / "farfield3d.cfg"  # the far-field run at n = 64


def compact_context(dimension=2, n=64, L=16.0, p=None, eps=0.0, radius=2.0, center=None):
    p = p or (7.0 if dimension == 2 else 5.0)
    grid = GridSpec(dimension, L, n, shell_epsilon=eps)
    c = center or (L / 2.0,) * dimension
    q = bump_profile(grid, BumpDescriptor(center=c, radius=radius, amplitude=1.0))
    return FunctionalContext(Field(grid, q), p)


OTHER_GRIDS = [GridSpec(2, 12.0, 64), GridSpec(2, 16.0, 32)]  # against compact_context()'s L = 16, n = 64


class TestDirections:
    @pytest.mark.parametrize("dimension,count", [(2, 16), (2, 33), (3, 100)])
    def test_unit_and_antipodal(self, dimension, count):
        dirs = equal_area_directions(dimension, count)
        norms = np.linalg.norm(dirs, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        half = len(dirs) // 2
        np.testing.assert_array_equal(dirs[half:], -dirs[:half])

    def test_sphere_samples_validate(self):
        with pytest.raises(ValueError):
            SphereSamples(np.array([[1.0, 1.0]]), np.array([0j]))


class TestAmplitude:
    def test_zero_field(self):
        ctx = compact_context()
        zero = Field(ctx.grid, np.zeros(ctx.grid.shape))
        samples = farfield_amplitude(ctx, zero, equal_area_directions(2, 16))
        assert np.max(np.abs(samples.values)) == 0.0

    def test_conjugate_antisymmetry(self):
        ctx = compact_context()
        rng = np.random.default_rng(0)
        u = Field(ctx.grid, rng.standard_normal(ctx.grid.shape))
        samples = farfield_amplitude(ctx, u, equal_area_directions(2, 32))
        assert selftest.conjugate_antisymmetry(samples) <= 1e-12  # tighter than ANTISYMMETRY_TOL

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_against_direct_quadrature_oracle(self, dimension):
        # both routes (interpolant transform vs Riemann sum) converge to the
        # same integral only for smooth sources, so use a smooth bump u
        n = 64 if dimension == 2 else 48
        ctx = compact_context(dimension=dimension, n=n)
        mesh = ctx.grid.open_mesh()
        r2 = sum((m - 8.0) ** 2 for m in mesh)
        u = Field(ctx.grid, np.exp(-r2 / 2.0) * (1.0 + 0.3 * (mesh[0] - 8.0)))
        dirs = equal_area_directions(dimension, 12)
        samples = farfield_amplitude(ctx, u, dirs)

        source = ctx.q * odd_power(u.values, ctx.exponents.p - 1.0)
        mesh = ctx.grid.open_mesh()
        center = ctx.grid.box_length / 2.0
        const = -0.25j * (2.0 * np.pi) ** (-(dimension - 1))
        for d, val in zip(dirs, samples.values):
            phase = sum(di * (m - center) for di, m in zip(d, mesh))
            direct = const * ctx.grid.weight * np.sum(source * np.exp(-1j * phase))
            assert abs(val - direct) <= 1e-5 * max(np.abs(samples.values).max(), 1e-12)

    def test_point_source_nearly_isotropic(self):
        # a narrow centered source radiates with direction-independent |g|
        ctx = compact_context(radius=0.9)
        mesh = ctx.grid.open_mesh()
        r2 = sum((m - 8.0) ** 2 for m in mesh)
        u = Field(ctx.grid, np.exp(-r2 / 0.18))
        samples = farfield_amplitude(ctx, u, equal_area_directions(2, 64))
        mags = np.abs(samples.values)
        assert (mags.max() - mags.min()) <= 0.05 * mags.max()

    def test_coarse_grid_rejected(self):
        grid = GridSpec(2, 6.0, 8)
        q = np.ones(grid.shape)
        ctx = FunctionalContext(Field(grid, q), 7.0)
        with pytest.raises(InterpolationDegenerateError):
            farfield_amplitude(ctx, Field(grid, q), equal_area_directions(2, 8))

    @pytest.mark.parametrize("grid", OTHER_GRIDS, ids=["same_shape", "other_shape"])
    def test_field_from_another_grid_is_grid_mismatch(self, grid):
        u = Field(grid, np.random.default_rng(6).standard_normal(grid.shape))
        with pytest.raises(GridMismatchError):
            farfield_amplitude(compact_context(), u, equal_area_directions(2, 16))


def synthetic_expansion_field(grid, k_plus=1.0):
    """Field built exactly from the leading-order expansion with a smooth
    polynomial amplitude; returns (field, matching SphereSamples)."""
    mesh = full_mesh(grid)
    center = grid.box_length / 2.0
    r = np.sqrt(sum((m - center) ** 2 for m in mesh))
    rs = np.maximum(r, grid.spacing / 2.0)
    xhat = np.stack([(m - center) for m in mesh], axis=-1) / rs[..., None]
    dim = grid.dimension

    def amplitude(x):
        out = 0.05 + 0.02 * x[..., 0] + 0.01j * x[..., 0] * x[..., 1]
        if dim == 3:
            out = out + 0.015 * x[..., 2] ** 2
        return out

    g_grid = amplitude(xhat)
    u_vals = -2.0 * (2.0 * np.pi / rs) ** ((dim - 1) / 2.0) * np.real(
        np.exp(1j * (k_plus * rs - (dim - 1) * np.pi / 4.0)) * g_grid
    )
    dirs = equal_area_directions(dim, 96)
    return Field(grid, u_vals), SphereSamples(dirs, amplitude(dirs))


def looped_box_transform(ctx, source, wavevectors):
    """Reference: one wavevector at a time, contracting the axes in order."""
    grid = ctx.grid
    n, L = grid.points_per_axis, grid.box_length
    coeffs = np.fft.fftn(source) / grid.size
    lattice = grid.axis_frequencies
    parity = 1.0 - 2.0 * (np.abs(np.rint(lattice * L / (2.0 * np.pi)).astype(int)) % 2)
    nyquist = abs(lattice[n // 2])

    def axis_factor(k_axis):
        z = (lattice - k_axis) * (L / 2.0)
        small = np.abs(z) < 1e-8
        z_safe = np.where(small, 1.0, z)
        sinc = np.where(small, 1.0 - z * z / 6.0, np.sin(z_safe) / z_safe).astype(complex)
        z_m = (nyquist - k_axis) * (L / 2.0)
        sinc[n // 2] = 0.5 * (sinc[n // 2] + np.sin(z_m) / z_m)
        return L * parity * sinc

    out = np.empty(len(wavevectors), dtype=complex)
    for j, k in enumerate(wavevectors):
        acc = coeffs
        for axis in range(grid.dimension):
            acc = np.tensordot(acc, axis_factor(k[axis]), axes=([0], [0]))
        out[j] = acc
    return out


def full_support_context(dimension, n, L=8.0):
    """Q > 0 at every grid point, declared non-periodic: the box spans the grid."""
    grid = GridSpec(dimension, L, n)
    mesh = full_mesh(grid)
    q = 1.0 + 0.5 * np.prod([np.cos(2.0 * np.pi * m / L) for m in mesh], axis=0)
    p = 7.0 if dimension == 2 else 5.0
    return FunctionalContext(Field(grid, q), p)


def check_against_loop(ctx, wavenumber):
    """_box_transform of a random source on ctx's box against the per-wavevector loop."""
    dimension, n = ctx.grid.dimension, ctx.grid.points_per_axis
    box = ctx.box
    source = ctx.q * np.random.default_rng(3).standard_normal(ctx.grid.shape)
    dirs = equal_area_directions(dimension, 24)
    # one wavevector on the lattice, where the per-axis sinc takes its series branch
    on_lattice = np.zeros((1, dimension))
    on_lattice[0, 0] = ctx.grid.axis_frequencies[1]
    wavevectors = np.concatenate([wavenumber * dirs, on_lattice])
    got = _box_transform(ctx, source[box], wavevectors)
    want = looped_box_transform(ctx, source, wavevectors)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestBoxTransform:
    @pytest.mark.parametrize("dimension, n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("wavenumber", [1.0, np.sqrt(1.0 + 0.3j)])
    def test_batched_matches_per_wavevector_loop(self, dimension, n, wavenumber):
        check_against_loop(compact_context(dimension, n=n, L=8.0), wavenumber)

    @pytest.mark.parametrize("dimension, n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("wavenumber", [1.0, np.sqrt(1.0 + 0.3j)])
    def test_full_support_matches_loop(self, dimension, n, wavenumber):
        ctx = full_support_context(dimension, n)
        assert spans_grid(ctx)
        check_against_loop(ctx, wavenumber)

    @pytest.mark.parametrize("dimension, n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("wavenumber", [1.0, np.sqrt(1.0 + 0.3j)])
    def test_support_at_last_index_matches_loop(self, dimension, n, wavenumber):
        # center L - 1 and radius 2 on the first axis: the box runs up to index n - 1
        ctx = compact_context(dimension, n=n, L=8.0, center=(7.0,) + (4.0,) * (dimension - 1))
        assert ctx.box[0].stop == n and ctx.box[0].start > 0
        check_against_loop(ctx, wavenumber)

    @pytest.mark.parametrize("dimension, n, count", [(2, 64, 40), (3, 32, 100)])
    def test_compact_support_transforms_no_grid_array(self, dimension, n, count, monkeypatch):
        ctx = compact_context(dimension, n=n)
        u = Field(ctx.grid, np.random.default_rng(1).standard_normal(ctx.grid.shape))
        dirs = equal_area_directions(dimension, count)
        assert not spans_grid(ctx) and len(dirs) != n
        shapes = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            def recorded(a, *args, _transform=getattr(np.fft, name), **kwargs):
                shapes.append(np.shape(a))
                return _transform(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, recorded)
        farfield_amplitude(ctx, u, dirs)
        farfield_amplitude(ctx, u, dirs, wavenumber=np.sqrt(1.0 + 1.0j))
        assert shapes
        assert ctx.grid.shape not in shapes


def monomial_fit(directions, values, degree):
    """The least-squares fit over every monomial of total degree <= degree: the
    design the harmonic basis replaces, and its fitted values at `directions`."""
    exponents = [e for e in itertools.product(range(degree + 1), repeat=directions.shape[1])
                 if sum(e) <= degree]

    def design(d):
        return np.stack([np.prod([d[:, axis] ** k for axis, k in enumerate(e)], axis=0)
                         for e in exponents], axis=1)

    fit_re, *_ = np.linalg.lstsq(design(directions), values.real, rcond=None)
    fit_im, *_ = np.linalg.lstsq(design(directions), values.imag, rcond=None)
    return lambda d: design(d) @ fit_re + 1j * (design(d) @ fit_im)


def power_table_design(directions, degree):
    """The design from per-axis power tables: each column one product of a power
    of x_1 and a power of x_2 (3d), or a copied power of x_1 (2d), then the
    columns times x_N where the degree allows."""
    count, dim = directions.shape
    powers = np.empty((dim - 1, degree + 1, count))
    powers[:, 0] = 1.0
    for k in range(1, degree + 1):
        np.multiply(powers[:, k - 1], directions[:, :-1].T, out=powers[:, k])
    columns = []
    for e in itertools.product(range(degree + 1), repeat=dim - 1):
        if sum(e) > degree:
            continue
        columns.append(powers[0, e[0]] if dim == 2 else powers[0, e[0]] * powers[1, e[1]])
        if sum(e) < degree:
            columns.append(columns[-1] * directions[:, -1])
    return np.array(columns).T


class TestMonomialDesign:
    @pytest.mark.parametrize("dimension, count", [(2, 28), (2, 2048), (3, 84), (3, 2048)])
    def test_is_the_power_table_design(self, dimension, count):
        # the powers of the leading axes are design columns: the same products, bit for bit
        dirs = np.random.default_rng(count + dimension).standard_normal((count, dimension))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for degree in (2, 6):
            assert _monomial_design(dirs, degree).tobytes() == power_table_design(dirs, degree).tobytes()

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_matches_explicit_powers(self, dimension):
        dirs = equal_area_directions(dimension, 50)
        degree = 6
        design = _monomial_design(dirs, degree)
        # the last exponent is at most 1; the last index runs fastest
        exponents = [e for e in itertools.product(range(degree + 1), repeat=dimension)
                     if sum(e) <= degree and e[-1] <= 1]
        assert len(exponents) == (49 if dimension == 3 else 13)
        assert design.shape == (dirs.shape[0], len(exponents))
        for col, e in enumerate(exponents):
            want = np.prod([dirs[:, axis] ** k for axis, k in enumerate(e)], axis=0)
            assert np.max(np.abs(design[:, col] - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)

    @pytest.mark.parametrize("dimension, count", [(2, 28), (2, 96), (3, 84), (3, 200)])
    def test_fit_matches_all_monomials_fit(self, dimension, count, monkeypatch):
        # on the sphere the harmonic basis spans what all the monomials span, so
        # the check fits the same function as the full monomial least squares
        ctx = compact_context(dimension=dimension, n=48)
        u, _ = synthetic_expansion_field(ctx.grid)
        rng = np.random.default_rng(count)
        dirs = equal_area_directions(dimension, count)
        values = rng.standard_normal(len(dirs)) + 1j * rng.standard_normal(len(dirs))
        fits = []
        blocked = farfield._sphere_interpolant
        monkeypatch.setattr(farfield, "_sphere_interpolant",
                            lambda d, fit, degree: fits.append(fit) or blocked(d, fit, degree))
        decay_and_expansion_check(ctx, u, SphereSamples(dirs, values))
        # the check streams its ball: one call per block, all with the one fit
        fit = fits[0]
        assert all(f is fit for f in fits)
        assert fit.shape == (_monomial_design(dirs, 6).shape[1], 2)
        points = rng.standard_normal((2000, dimension))
        points /= np.linalg.norm(points, axis=1)[:, None]
        want = monomial_fit(dirs, values, 6)(points)
        got = blocked(points, fit, 6)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestDecayAndExpansion:
    def test_zero_field_flagged_degenerate(self):
        ctx = compact_context()
        zero = Field(ctx.grid, np.zeros(ctx.grid.shape))
        report = decay_and_expansion_check(
            ctx, zero, SphereSamples(equal_area_directions(2, 8), np.zeros(8, complex))
        )
        assert report.degenerate

    def test_synthetic_expansion_machine_level(self):
        ctx = compact_context(dimension=3, n=48)
        u, samples = synthetic_expansion_field(ctx.grid)
        report = decay_and_expansion_check(ctx, u, samples)
        assert np.max(report.expansion_errors) <= selftest.EXPANSION_TOL
        assert report.trend_nonincreasing
        assert report.interpolation_residual <= 1e-10

    def test_core_mismatch_decays_like_one_over_radius(self):
        # adding a compact blob near the center leaves a fixed defect, so
        # the ball-averaged error must fall off as 1/R
        ctx = compact_context(dimension=2, n=96)
        u, samples = synthetic_expansion_field(ctx.grid)
        mesh = ctx.grid.open_mesh()
        blob = 0.3 * np.exp(-sum((m - 8.0) ** 2 for m in mesh) / 0.5)
        u = Field(ctx.grid, u.values + blob)
        report = decay_and_expansion_check(ctx, u, samples)
        assert report.trend_nonincreasing
        ratio = report.expansion_errors[0] / report.expansion_errors[-1]
        expected = report.expansion_radii[-1] / report.expansion_radii[0]
        assert abs(ratio - expected) <= 0.2 * expected

    def test_free_space_kernel_decay_exponent(self):
        ctx = compact_context(dimension=3, n=48)
        mesh = ctx.grid.open_mesh()
        r = np.sqrt(sum((m - 8.0) ** 2 for m in mesh))
        psi = selftest.fundamental_solution_psi(np.maximum(r, 1e-3))
        report = decay_and_expansion_check(
            ctx, Field(ctx.grid, psi),
            SphereSamples(equal_area_directions(3, 84), np.zeros(84, complex)),
            shell_count=6,
        )
        assert abs(report.decay_exponent - 1.0) <= selftest.PSI_DECAY_TOL

    @pytest.mark.parametrize("dimension, count", [(2, 26), (3, 82)])
    def test_fewer_samples_than_monomials(self, dimension, count):
        # equal_area_directions rounds the count up to even: 26 < 28 and 82 < 84
        ctx = compact_context(dimension=dimension, n=48)
        u, _ = synthetic_expansion_field(ctx.grid)
        dirs = equal_area_directions(dimension, count)
        with pytest.raises(DomainError, match="monomials"):
            decay_and_expansion_check(ctx, u, SphereSamples(dirs, np.zeros(len(dirs), complex)))

    @pytest.mark.parametrize("dimension, n", [(2, 64), (3, 32)])
    def test_shell_means_bit_identical_to_whole_grid_masks(self, dimension, n):
        # shells cut from the annulus sum the same elements in the same order
        ctx = compact_context(dimension=dimension, n=n)
        grid = ctx.grid
        u = Field(grid, np.random.default_rng(8).standard_normal(grid.shape))
        dirs = equal_area_directions(dimension, 96)
        report = decay_and_expansion_check(ctx, u, SphereSamples(dirs, np.ones(len(dirs), complex)))
        r_min, r_max = radius_window(grid.box_length, grid.spacing)
        radius = np.sqrt(sum((m - grid.box_length / 2.0) ** 2 for m in grid.open_mesh()))
        edges = np.linspace(r_min, r_max, 9)
        masks = [(radius >= lo) & (radius < hi) for lo, hi in zip(edges[:-1], edges[1:])]
        want = [float(np.abs(u.values[mask]).mean()) for mask in masks if mask.sum() >= 8]
        assert len(want) >= 3
        assert report.shell_means.tobytes() == np.asarray(want).tobytes()

    def test_insufficient_shells(self):
        ctx = compact_context(dimension=2, n=64)
        rng = np.random.default_rng(5)
        u = Field(ctx.grid, rng.standard_normal(ctx.grid.shape))
        with pytest.raises(InsufficientShellsError):
            decay_and_expansion_check(
                ctx, u,
                SphereSamples(equal_area_directions(2, 8), np.zeros(8, complex)),
                r_min=0.05, r_max=0.3, shell_count=5,
            )

    @pytest.mark.parametrize("grid", OTHER_GRIDS, ids=["same_shape", "other_shape"])
    def test_field_from_another_grid_is_grid_mismatch(self, grid):
        # on the same shape the check would read u's values against the wrong radii
        u, samples = synthetic_expansion_field(grid)
        with pytest.raises(GridMismatchError):
            decay_and_expansion_check(compact_context(), u, samples)


def whole_grid_decay(ctx, u, samples, r_min=None, r_max=None, shell_count=8):
    """(shell_radii, shell_means, expansion_radii, expansion_errors) of the decay
    check from whole-grid arrays: the whole-grid radius, the shell masks over
    one selection of the annulus, and the ball as flat indices with their
    radii, in the check's blocks of interpolant rows."""
    grid = ctx.grid
    dim = grid.dimension
    k_plus = np.sqrt(1.0 + 1j * grid.shell_epsilon)
    r_min, r_max = radius_window(grid.box_length, grid.spacing, r_min, r_max)
    center = grid.box_length / 2.0
    radius = np.sqrt(sum((m - center) ** 2 for m in grid.open_mesh()))
    edges = np.linspace(r_min, r_max, shell_count + 1)
    annulus = (radius >= edges[0]) & (radius < edges[-1])
    r_ann, u_ann = radius[annulus], u.values[annulus]
    shell_radii, shell_means = [], []
    for i in range(shell_count):
        mask = (r_ann >= edges[i]) & (r_ann < edges[i + 1])
        if mask.sum() >= 8:
            shell_radii.append(0.5 * (edges[i] + edges[i + 1]))
            shell_means.append(float(np.abs(u_ann[mask]).mean()))
    parts = np.stack([samples.values.real, samples.values.imag], axis=1)
    fit, *_ = np.linalg.lstsq(_monomial_design(samples.directions, FIT_DEGREE), parts, rcond=None)
    ball = np.flatnonzero((radius >= max(2.0 * grid.spacing, 1e-9)) & (radius <= r_max))
    r_pts = radius.reshape(-1)[ball]
    mismatch = np.empty(ball.size)
    for start, stop in _row_blocks(ball.size, dim, FIT_DEGREE):
        r_blk = r_pts[start:stop]
        pts = np.stack([grid.axis_coordinates[i] - center
                        for i in np.unravel_index(ball[start:stop], grid.shape)], axis=1)
        pts /= r_blk[:, None]
        leading = -2.0 * (2.0 * np.pi / r_blk) ** ((dim - 1) / 2.0) * np.real(
            np.exp(1j * (k_plus * r_blk - (dim - 1) * np.pi / 4.0)) * _sphere_interpolant(pts, fit, FIT_DEGREE)
        )
        np.square(u.values.reshape(-1)[ball[start:stop]] - leading, out=mismatch[start:stop])
    expansion_radii = np.linspace(r_min + 0.25 * (r_max - r_min), r_max, max(4, shell_count // 2 + 3))
    errors = [grid.weight * float(mismatch[r_pts <= R].sum()) / R for R in expansion_radii]
    return np.asarray(shell_radii), np.asarray(shell_means), expansion_radii, np.asarray(errors)


class TestStreamedDecay:
    """The check streams the grid in slabs; its report is the whole-grid code's bit for bit."""

    @pytest.mark.parametrize("window", ["default", "grid_radii"])
    @pytest.mark.parametrize("shell_count", [6, 8])
    @pytest.mark.parametrize("eps", [0.0, 1.0])
    @pytest.mark.parametrize("dimension, n", [(2, 64), (3, 32)])
    def test_report_is_the_whole_grid_report(self, dimension, n, eps, shell_count, window):
        ctx = compact_context(dimension=dimension, n=n, eps=eps)
        grid = ctx.grid
        u, samples = synthetic_expansion_field(grid, k_plus=np.sqrt(1.0 + 1j * eps))
        u = Field(grid, u.values + 1e-3 * np.random.default_rng(n).standard_normal(grid.shape))
        edges = (None, None)
        if window == "grid_radii":
            # distances of grid points from the center: 4 and 12 points along axis 0
            x = np.abs(grid.axis_coordinates - grid.box_length / 2.0)
            edges = (x[n // 2 + 4], x[n // 2 + 12])
        report = decay_and_expansion_check(ctx, u, samples, *edges, shell_count=shell_count)
        got = (report.shell_radii, report.shell_means, report.expansion_radii, report.expansion_errors)
        want = whole_grid_decay(ctx, u, samples, *edges, shell_count=shell_count)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert len(report.shell_means) >= 3

    def test_several_slabs_and_blocks_in_2d(self):
        # n = 256: slabs of 128 and 14 rows, and the ball in 7 blocks of interpolant rows
        ctx = compact_context(dimension=2, n=256, eps=1.0)
        u, samples = synthetic_expansion_field(ctx.grid, k_plus=np.sqrt(1.0 + 1.0j))
        report = decay_and_expansion_check(ctx, u, samples)
        want = whole_grid_decay(ctx, u, samples)
        assert report.shell_means.tobytes() == want[1].tobytes()
        assert report.expansion_errors.tobytes() == want[3].tobytes()

    def test_slabs_are_the_whole_grid_radius(self):
        # a point's share of the block budget that makes slabs of 3 rows
        grid = GridSpec(3, 16.0, 32)
        point_bytes = kernel.BLOCK_BYTES // (3 * 32 * 32)
        radius = np.sqrt(sum((m - 8.0) ** 2 for m in grid.open_mesh()))
        slabs = [(rows, r.copy()) for rows, r in grid.radius_slabs(8.0, point_bytes)]
        assert [rows for rows, _ in slabs] == kernel.row_slices(32, point_bytes * 32 * 32)
        assert [rows for rows, _ in slabs] == [slice(a, min(32, a + 3)) for a in range(0, 32, 3)]
        assert np.concatenate([r for _, r in slabs]).tobytes() == radius.tobytes()


def blocked_and_whole(dimension, n):
    """One synthetic report with the blocked sphere interpolant and one whose
    interpolant values come from a whole-ball design built here; returns what
    the blocked test compares.

    The check asks `_sphere_interpolant` once for the sampled directions and
    then once per block of its ball; the recorded calls, joined in order, are
    those directions.  The blocks are half the shipped DESIGN_BYTES: rows of
    the 13-column 2d design are narrow, so the n = 256 ball fills only 2
    blocks of the full size."""
    farfield.DESIGN_BYTES //= 2
    ctx = compact_context(dimension=dimension, n=n)
    u, samples = synthetic_expansion_field(ctx.grid)
    blocked = farfield._sphere_interpolant
    calls = []

    def recorded(directions, fit, degree):
        calls.append((directions, fit, degree))
        return blocked(directions, fit, degree)

    def whole(directions, fit, degree):
        return (_monomial_design(directions, degree) @ fit).view(complex)[:, 0]

    farfield._sphere_interpolant = recorded
    report_blocked = decay_and_expansion_check(ctx, u, samples)
    fit, degree = calls[0][1:]
    g_whole = whole(np.concatenate([d for d, _, _ in calls]), fit, degree)
    # the whole design's values, served to the second report block by block
    pieces = iter(np.split(g_whole, np.cumsum([len(d) for d, _, _ in calls])[:-1]))
    farfield._sphere_interpolant = lambda directions, fit, degree: next(pieces)
    report_whole = decay_and_expansion_check(ctx, u, samples)
    farfield._sphere_interpolant = blocked
    design = farfield._monomial_design
    blocks = []
    farfield._monomial_design = lambda d, degree: blocks.append(len(d)) or design(d, degree)
    g_blocked = np.concatenate([blocked(*args) for args in calls])
    farfield._monomial_design = design
    # a rest of a few rows, which BLAS would sum in another kernel (one row goes
    # to gemv): `_row_blocks` joins it to the last block, so the blocks' values
    # are the whole design's
    rng = np.random.default_rng(dimension)
    full = _row_blocks(10 ** 9, dimension, degree)[0][1]
    short_tails = []
    for extra in (1, 2, 3, BLOCK_ALIGN - 1):
        dirs = rng.standard_normal((3 * full + extra, dimension))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        split = [blocked(dirs[a:b], fit, degree) for a, b in _row_blocks(len(dirs), dimension, degree)]
        short_tails.append(np.concatenate(split).tobytes() == whole(dirs, fit, degree).tobytes())
    return {
        "blocks": len(blocks),
        "calls": len(calls),
        "one_fit": all(f is fit for _, f, _ in calls),
        "g_equal": g_blocked.tobytes() == g_whole.tobytes(),
        "errors_equal": report_blocked.expansion_errors.tobytes()
        == report_whole.expansion_errors.tobytes(),
        "short_tails_equal": short_tails,
    }


def report_bytes_by_block_size(dimension, n):
    """The bytes of every FarfieldReport field at the shipped DESIGN_BYTES, at half
    and at twice it, with the number of blocks each streamed the ball in.

    The field is the synthetic expansion with absorption plus noise, so the
    expansion errors are far from zero."""
    ctx = compact_context(dimension=dimension, n=n, eps=1.0)
    u, samples = synthetic_expansion_field(ctx.grid, k_plus=np.sqrt(1.0 + 1.0j))
    u = Field(ctx.grid, u.values + 1e-3 * np.random.default_rng(n).standard_normal(ctx.grid.shape))
    shipped = farfield.DESIGN_BYTES
    blocked = farfield._sphere_interpolant
    out = []
    for block_bytes in (shipped, shipped // 2, 2 * shipped):
        calls = []
        farfield.DESIGN_BYTES = block_bytes
        farfield._sphere_interpolant = lambda *args: calls.append(1) or blocked(*args)
        report = decay_and_expansion_check(ctx, u, samples)
        fields = [np.asarray(getattr(report, f.name)).tobytes().hex()
                  for f in dataclasses.fields(report)]
        out.append({"blocks": len(calls), "fields": fields})
    farfield.DESIGN_BYTES = shipped
    farfield._sphere_interpolant = blocked
    return out


def one_blas_thread(call):
    """The JSON result of `call`, a test_farfield expression, in a fresh interpreter
    with one BLAS thread.

    A threaded BLAS splits a matrix-vector product's rows at points that
    depend on the row count, and a row at a split can round differently (the
    whole design alone does so between one and two threads); with one BLAS
    thread every row's sum is fixed, so blocked results are compared there."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(TESTS), str(TESTS.parent / "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    code = f"import json, test_farfield; print(json.dumps(test_farfield.{call}))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_selftest_synthetic_field_is_the_mesh_formula(monkeypatch):
    # the self-test builds its field over the open mesh; the values are the
    # coordinate-mesh formula's bit for bit, and the check still passes
    fields = []
    check = selftest.decay_and_expansion_check
    monkeypatch.setattr(selftest, "decay_and_expansion_check",
                        lambda ctx, u, *args, **kwargs: fields.append(u) or check(ctx, u, *args, **kwargs))
    ok, _ = selftest.check_farfield_synthetic()
    assert ok
    grid = fields[0].grid
    mesh = full_mesh(grid)
    center = grid.box_length / 2.0
    rs = np.maximum(np.sqrt(sum((m - center) ** 2 for m in mesh)), grid.spacing / 2)
    xhat = np.stack([(m - center) for m in mesh], axis=-1) / rs[..., None]
    g_grid = 0.05 + 0.02 * xhat[..., 0] + 0.01j * xhat[..., 1] * xhat[..., 2]
    want = -2.0 * (2 * np.pi / rs) * np.real(np.exp(1j * (rs - np.pi / 2)) * g_grid)
    assert fields[0].values.tobytes() == want.tobytes()


class TestBlockedInterpolant:
    @pytest.mark.parametrize("dimension, n", [(2, 256), (3, 48)])
    def test_bit_identical_to_whole_design(self, dimension, n):
        result = one_blas_thread(f"blocked_and_whole({dimension}, {n})")
        assert result["blocks"] >= 3
        # each streamed block is one design block, all with the one fit
        assert result["calls"] == result["blocks"]
        assert result["one_fit"]
        assert result["g_equal"]
        assert result["errors_equal"]
        assert all(result["short_tails_equal"])

    @pytest.mark.parametrize("dimension, n", [(2, 256), (3, 48)])
    def test_report_does_not_depend_on_block_size(self, dimension, n):
        # every field of the report, bit for bit, with DESIGN_BYTES halved and doubled
        shipped, half, double = one_blas_thread(f"report_bytes_by_block_size({dimension}, {n})")
        assert half["blocks"] > shipped["blocks"] > double["blocks"] >= 1
        assert half["fields"] == shipped["fields"] == double["fields"]

    def test_bad_window_is_domain_error(self):
        ctx = compact_context(dimension=2, n=64)
        u, samples = synthetic_expansion_field(ctx.grid)
        for r_min, r_max in ((7.5, None), (-1.0, 5.0), (3.0, 2.0), (1.0, 8.5), (np.nan, 5.0)):
            with pytest.raises(DomainError):
                decay_and_expansion_check(ctx, u, samples, r_min=r_min, r_max=r_max)

    def test_window_defaults(self):
        # None and 0 both take the default edge
        default = (0.18 * 16.0, 0.46 * 16.0)
        assert radius_window(16.0, 0.25) == radius_window(16.0, 0.25, 0.0, 0.0) == default
        assert radius_window(16.0, 1.0) == (4.0, 0.46 * 16.0)
        assert radius_window(16.0, 0.25, 7.0) == (7.0, 0.46 * 16.0)

    def test_traced_peak_is_bounded(self):
        # the whole-ball design over the 64^3 ball took about 100 MB here
        ctx = compact_context(dimension=3, n=64)
        u, samples = synthetic_expansion_field(ctx.grid)
        tracemalloc.start()
        try:
            decay_and_expansion_check(ctx, u, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20


def farfield3d_context(n=48):
    """The benchmark's 3d far-field config (compact bump, eps = 1, p = 5) at n points per axis."""
    grid = GridSpec(3, 16.0, n, shell_epsilon=1.0)
    q = bump_profile(grid, BumpDescriptor(center=(9.2, 8.7, 8.4), radius=1.6, amplitude=2.0))
    return FunctionalContext(Field(grid, q), 5.0)


class TestGridArrays:
    """Traced memory of a compact-support run, in grid arrays of 8 grid.size bytes.

    Each call's peak is taken above what was traced on entry (`traced_peak`);
    the run's fixtures are built before tracing starts.
    """

    def test_compact_context_holds_q_and_little_else(self):
        farfield3d_context(n=16).apply_k_support(np.ones(1))  # imports, outside the trace
        grid = GridSpec(3, 16.0, 48, shell_epsilon=1.0)
        tracemalloc.start()
        try:
            ctx = farfield3d_context()
            ctx.apply_k_support(np.ones(ctx.q_support.size))  # builds K's window
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # Q and q_S on the support, its mask and K's window spectrum (0.05): 0.06
        # grid arrays, where the context that kept Q on the grid held 1.06
        assert retained <= 0.08 * 8 * grid.size
        # Q and the symbols stay readable, formed per call, sigma on the half spectrum only
        assert ctx.half_sigma().shape == grid.half_k_squared().shape == (48, 48, 25)
        assert ctx.q_root.shape == ctx.q.shape == grid.k_squared.shape == grid.shape
        assert ctx.restrict(ctx.q).tobytes() == ctx.q_on_support.tobytes()

    def test_compact_context_at_the_benchmark_size_keeps_q_on_its_support(self):
        # n = 64: the built context holds support vectors and the support's mask,
        # 0.01 grid arrays, where the whole-grid Q alone was 1.00
        farfield3d_context(n=16)  # imports, outside the trace
        tracemalloc.start()
        try:
            ctx = farfield3d_context(n=64)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 0.05 * 8 * ctx.grid.size

    def test_resolvent_and_primal_residual_peaks(self):
        ctx = farfield3d_context()
        unit = 8 * ctx.grid.size
        v = Field(ctx.grid, ctx.extend(np.random.default_rng(3).standard_normal(ctx.q_support.size)))
        ctx.primal_residual(ctx.dual_to_primal(v))  # window and imports, outside the trace
        u, peak = traced_peak(ctx.dual_to_primal, v)
        # the half spectrum (1.04), which takes the result, and one block of at
        # most about 256 KiB (12 rows, 0.26 here) with its symbol: 1.37, against
        # 2.13 when the symbol was formed on the whole half spectrum and the
        # result took an array of its own
        assert peak <= 1.4 * unit
        _, peak = traced_peak(ctx.primal_residual, u)
        # the same pair, with the symbol s + eps^2/s formed a block at a time: 1.33
        assert peak <= 1.35 * unit

    def test_resolvent_peak_at_the_benchmark_size(self):
        # n = 64, the far-field benchmark's grid: the half spectrum (1.03) and a
        # block of 7 of its 64 rows, 1.19 grid arrays (1.20 with blocks of 8),
        # where the result in an array of its own peaked at 2.10 and the
        # complex pair at 3.07
        ctx = farfield3d_context(n=64)
        unit = 8 * ctx.grid.size
        vs = np.random.default_rng(4).standard_normal(ctx.q_support.size)
        ctx.resolvent_array(vs)  # window and imports, outside the trace
        _, peak = traced_peak(ctx.resolvent_array, vs)
        assert peak <= 1.3 * unit

    def test_primal_residual_peak_at_the_benchmark_size(self):
        # the primal check's pair over the whole grid, and its norms of the
        # points off the support in place: 1.17 grid arrays, where it was 2.13
        ctx = farfield3d_context(n=64)
        unit = 8 * ctx.grid.size
        u = ctx.dual_to_primal(Field(ctx.grid, ctx.extend(
            np.random.default_rng(5).standard_normal(ctx.q_support.size))))
        ctx.primal_residual(u)  # imports, outside the trace
        _, peak = traced_peak(ctx.primal_residual, u)
        assert peak <= 1.3 * unit

    def test_multistart_finishes_only_the_kept_records(self):
        # starts hand back support vectors, and the two kept records are finished
        # after the dedup, one at a time: u in its half spectrum, where its primal
        # check runs, and nothing else, 1.92 grid arrays; 4.15 when each record
        # kept u while the next one was checked, 6.16 when every start built
        # both grid fields and its primal check
        cfg = DescentConfig(multistart_count=2, rng_seed=12345)
        ctx = farfield3d_context(n=32)
        ctx.apply_k_support(np.ones(ctx.q_support.size))  # builds K's window
        # initial_field's mode bookkeeping leaves small tuples on the interpreter's
        # free lists; a full collection empties those, and a traced run that refills
        # them reads 0.15-0.35 grid arrays more.  Two warm-up runs fill the lists,
        # and with the collector off none is emptied before the traced run
        gc.disable()
        try:
            for _ in range(2):
                multistart_search(farfield3d_context(n=16), cfg)  # imports, outside the trace
            result, peak = traced_peak(multistart_search, ctx, cfg)
        finally:
            gc.enable()
        assert len(result.records) == 2
        assert peak <= 2.1 * 8 * ctx.grid.size

    def test_expansion_check_streams_its_ball(self):
        # one block of the interpolant's design is about DESIGN_BYTES, 1.19 grid
        # arrays at n = 48 by itself; the rest is the ball's squared mismatch and
        # rank, and one slab: 0.94 grid arrays, where a whole-grid radius, the
        # ball's flat indices and radii took 1.45
        ctx = farfield3d_context()
        unit = 8 * ctx.grid.size
        u, samples = synthetic_expansion_field(ctx.grid, k_plus=np.sqrt(1.0 + 1.0j))
        decay_and_expansion_check(ctx, u, samples)  # imports, outside the trace
        _, peak = traced_peak(decay_and_expansion_check, ctx, u, samples)
        assert peak <= farfield.DESIGN_BYTES + 1.0 * unit

    def test_selftest_synthetic_suite_builds_its_fields_by_slabs(self):
        # one 48^3 field at a time (u, then psi) and the expansion check's peak
        # above it: 2.78 MiB, where the bump's grid Q and a whole-grid radius
        # kept beside u took 4.45; the radius and every other temporary is one slab
        selftest.check_farfield_synthetic()  # imports, outside the trace
        (ok, _), peak = traced_peak(selftest.check_farfield_synthetic)
        assert ok
        assert peak <= 3.3 * 2 ** 20

    def test_selftest_peaks_at_its_synthetic_suite(self):
        # the whole battery after a warm-up call: the far-field suite's one field
        # and check set the peak, 2.80 MiB, where it was 4.47
        selftest.run_selftest(report=None)  # imports and cached windows, outside the trace
        results, peak = traced_peak(selftest.run_selftest, None)
        assert all(ok for _, ok, _ in results)
        assert peak <= 3.3 * 2 ** 20

    def test_bump_context_builds_q_on_the_bump_box(self):
        # the far-field config's context at n = 64: the grid Q, its support mask
        # (a bool grid array) and the bump built on its box, 1.14 grid arrays;
        # 3.14 when the bump's distances and mask took the whole grid
        cfg = parse_config(FARFIELD3D.read_text(), mode_override="farfield")
        build_context(parse_config(FARFIELD3D.read_text().replace("= 64", "= 16"), mode_override="farfield"))
        ctx, peak = traced_peak(build_context, cfg)
        assert ctx.grid.points_per_axis == 64
        assert peak <= 1.2 * 8 * ctx.grid.size

    def test_support_ball_forms_one_grid_q(self):
        # Q on the grid once per axis, multiplied in place by that axis's
        # coordinates: 1.03 grid arrays at n = 64, where a product of its own
        # per axis took 2.03
        ctx = farfield3d_context(n=64)
        _, peak = traced_peak(lambda: ctx.support_ball)
        assert peak <= 1.1 * 8 * ctx.grid.size

    def test_window_spectrum_forms_sigma_on_the_rows_it_reads(self):
        # every axis of the far-field box is cut, so sigma is formed on 33^3 of the
        # 64^3 points: 0.28 grid arrays, where sigma on the grid took 2.00
        ctx = farfield3d_context(n=64)
        _, peak = traced_peak(lambda: ctx._k_window)
        assert peak <= 0.3 * 8 * ctx.grid.size

    def test_far_field_run_holds_u_and_one_working_set(self, tmp_path):
        # the whole in-process far-field run at n = 64: u in its half spectrum
        # (1.03 grid arrays) and the largest working set on top of it, the
        # expansion check's (its ball's mismatch and rank, one slab and one
        # design block): 2.37 grid arrays, where 3.34 was the bump's whole-grid
        # build, and each record's u while the next one was checked
        small = tmp_path / "small.cfg"  # imports, outside the trace
        small.write_text(FARFIELD3D.read_text().replace("= 64", "= 32"))
        assert main(["farfield", "--config", str(small), "--out", str(tmp_path / "warm")]) == 0
        status, peak = traced_peak(main, ["farfield", "--config", str(FARFIELD3D),
                                          "--seed", "12345", "--out", str(tmp_path / "run")])
        assert status == 0
        assert peak <= 2.5 * 8 * 64 ** 3
