"""Far-field amplitudes, decay fits, and expansion-error diagnostics."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helmdual import farfield
from helmdual import (
    Coefficient,
    DomainError,
    Exponents,
    Field,
    FunctionalContext,
    GridSpec,
    InsufficientShellsError,
    InterpolationDegenerateError,
    SphereSamples,
    decay_and_expansion_check,
    equal_area_directions,
    farfield_amplitude,
    odd_power,
)
from helmdual.dual_functional import pruned_fftn
from helmdual.kernel import fundamental_solution_psi
from helmdual.farfield import BLOCK_ALIGN, _box_transform, _monomial_design, radius_window

TESTS = Path(__file__).resolve().parent


def compact_context(dimension=2, n=64, L=16.0, p=None, eps=0.0, radius=2.0, center=None):
    p = p or (7.0 if dimension == 2 else 5.0)
    grid = GridSpec(dimension, L, n, shell_epsilon=eps)
    mesh = grid.coordinate_mesh()
    c = center or (L / 2.0,) * dimension
    r2 = sum((m - ci) ** 2 for m, ci in zip(mesh, c))
    s2 = r2 / radius ** 2
    q = np.where(s2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-12, 1.0 - s2)), 0.0)
    coeff = Coefficient.build(Field(grid, q), p, periodic=False)
    return FunctionalContext(grid, Exponents(dimension, p), coeff)


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
        half = len(samples.values) // 2
        err = np.abs(samples.values[half:] + np.conj(samples.values[:half])).max()
        assert err <= 1e-12 * np.abs(samples.values).max()

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_against_direct_quadrature_oracle(self, dimension):
        # both routes (interpolant transform vs Riemann sum) converge to the
        # same integral only for smooth sources, so use a smooth bump u
        n = 64 if dimension == 2 else 48
        ctx = compact_context(dimension=dimension, n=n)
        mesh = ctx.grid.coordinate_mesh()
        r2 = sum((m - 8.0) ** 2 for m in mesh)
        u = Field(ctx.grid, np.exp(-r2 / 2.0) * (1.0 + 0.3 * (mesh[0] - 8.0)))
        dirs = equal_area_directions(dimension, 12)
        samples = farfield_amplitude(ctx, u, dirs)

        source = ctx.coefficient.field.values * odd_power(u.values, ctx.exponents.p - 1.0)
        mesh = ctx.grid.coordinate_mesh()
        center = ctx.grid.box_length / 2.0
        const = -0.25j * (2.0 * np.pi) ** (-(dimension - 1))
        for d, val in zip(dirs, samples.values):
            phase = sum(di * (m - center) for di, m in zip(d, mesh))
            direct = const * ctx.grid.weight * np.sum(source * np.exp(-1j * phase))
            assert abs(val - direct) <= 1e-5 * max(np.abs(samples.values).max(), 1e-12)

    def test_point_source_nearly_isotropic(self):
        # a narrow centered source radiates with direction-independent |g|
        ctx = compact_context(radius=0.9)
        mesh = ctx.grid.coordinate_mesh()
        r2 = sum((m - 8.0) ** 2 for m in mesh)
        u = Field(ctx.grid, np.exp(-r2 / 0.18))
        samples = farfield_amplitude(ctx, u, equal_area_directions(2, 64))
        mags = np.abs(samples.values)
        assert (mags.max() - mags.min()) <= 0.05 * mags.max()

    def test_coarse_grid_rejected(self):
        grid = GridSpec(2, 6.0, 8)
        q = np.ones(grid.shape)
        coeff = Coefficient.build(Field(grid, q), 7.0, periodic=False)
        ctx = FunctionalContext(grid, Exponents(2, 7.0), coeff)
        with pytest.raises(InterpolationDegenerateError):
            farfield_amplitude(ctx, Field(grid, q), equal_area_directions(2, 8))


def synthetic_expansion_field(grid, k_plus=1.0):
    """Field built exactly from the leading-order expansion with a smooth
    polynomial amplitude; returns (field, matching SphereSamples)."""
    mesh = grid.coordinate_mesh()
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
    coeffs = pruned_fftn(source, ctx.box) / grid.size
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
    mesh = grid.coordinate_mesh()
    q = 1.0 + 0.5 * np.prod([np.cos(2.0 * np.pi * m / L) for m in mesh], axis=0)
    p = 7.0 if dimension == 2 else 5.0
    coeff = Coefficient.build(Field(grid, q), p, periodic=False)
    return FunctionalContext(grid, Exponents(dimension, p), coeff)


def check_against_loop(ctx, wavenumber):
    """_box_transform of a random source on ctx's box against the per-wavevector loop."""
    dimension, n = ctx.grid.dimension, ctx.grid.points_per_axis
    box = ctx.box or (slice(0, n),) * dimension
    source = ctx.coefficient.field.values * np.random.default_rng(3).standard_normal(ctx.grid.shape)
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
        assert ctx.box is None
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
        assert ctx.box is not None and len(dirs) != n
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


class TestMonomialDesign:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_matches_explicit_powers(self, dimension):
        dirs = equal_area_directions(dimension, 50)
        degree = 6
        design = _monomial_design(dirs, degree)
        exponents = [e for e in itertools.product(range(degree + 1), repeat=dimension)
                     if sum(e) <= degree]
        assert design.shape == (dirs.shape[0], len(exponents))
        for col, e in enumerate(exponents):
            want = np.prod([dirs[:, axis] ** k for axis, k in enumerate(e)], axis=0)
            assert np.max(np.abs(design[:, col] - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


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
        assert np.max(report.expansion_errors) <= 1e-16
        assert report.trend_nonincreasing
        assert report.interpolation_residual <= 1e-10

    def test_core_mismatch_decays_like_one_over_radius(self):
        # adding a compact blob near the center leaves a fixed defect, so
        # the ball-averaged error must fall off as 1/R
        ctx = compact_context(dimension=2, n=96)
        u, samples = synthetic_expansion_field(ctx.grid)
        mesh = ctx.grid.coordinate_mesh()
        blob = 0.3 * np.exp(-sum((m - 8.0) ** 2 for m in mesh) / 0.5)
        u = Field(ctx.grid, u.values + blob)
        report = decay_and_expansion_check(ctx, u, samples)
        assert report.trend_nonincreasing
        ratio = report.expansion_errors[0] / report.expansion_errors[-1]
        expected = report.expansion_radii[-1] / report.expansion_radii[0]
        assert abs(ratio - expected) <= 0.2 * expected

    def test_free_space_kernel_decay_exponent(self):
        ctx = compact_context(dimension=3, n=48)
        mesh = ctx.grid.coordinate_mesh()
        r = np.sqrt(sum((m - 8.0) ** 2 for m in mesh))
        psi = fundamental_solution_psi(np.maximum(r, 1e-3), 3)
        report = decay_and_expansion_check(
            ctx, Field(ctx.grid, psi),
            SphereSamples(equal_area_directions(3, 84), np.zeros(84, complex)),
            shell_count=6,
        )
        assert abs(report.decay_exponent - 1.0) <= 0.15

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
        radius = np.sqrt(sum((m - grid.box_length / 2.0) ** 2 for m in grid.coordinate_mesh()))
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


def blocked_and_whole(dimension, n):
    """One synthetic report with the blocked sphere interpolant and one with a
    whole-ball design built here; returns what the blocked test compares."""
    ctx = compact_context(dimension=dimension, n=n)
    u, samples = synthetic_expansion_field(ctx.grid)
    blocked = farfield._sphere_interpolant
    calls = []

    def recorded(directions, fit_re, fit_im, degree):
        calls.append((directions, fit_re, fit_im, degree))
        return blocked(directions, fit_re, fit_im, degree)

    def whole(directions, fit_re, fit_im, degree):
        design = _monomial_design(directions, degree)
        return design @ fit_re + 1j * (design @ fit_im)

    farfield._sphere_interpolant = recorded
    report_blocked = decay_and_expansion_check(ctx, u, samples)
    farfield._sphere_interpolant = whole
    report_whole = decay_and_expansion_check(ctx, u, samples)
    farfield._sphere_interpolant = blocked
    (args,) = calls
    design = farfield._monomial_design
    blocks = []
    farfield._monomial_design = lambda d, degree: blocks.append(len(d)) or design(d, degree)
    g_blocked = blocked(*args)
    farfield._monomial_design = design
    # a last block of a few rows, which BLAS would sum in another kernel
    rng = np.random.default_rng(dimension)
    short_tails = []
    for extra in (1, 2, 3, BLOCK_ALIGN - 1):
        dirs = rng.standard_normal((3 * blocks[0] + extra, dimension))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        short_tails.append(blocked(dirs, *args[1:]).tobytes() == whole(dirs, *args[1:]).tobytes())
    return {
        "blocks": len(blocks),
        "g_equal": g_blocked.tobytes() == whole(*args).tobytes(),
        "errors_equal": report_blocked.expansion_errors.tobytes()
        == report_whole.expansion_errors.tobytes(),
        "short_tails_equal": short_tails,
    }


class TestBlockedInterpolant:
    @pytest.mark.parametrize("dimension, n", [(2, 256), (3, 48)])
    def test_bit_identical_to_whole_design(self, dimension, n):
        # a threaded BLAS splits a matrix-vector product's rows at points that
        # depend on the row count, and a row at a split can round differently
        # (the whole design alone does so between one and two threads);
        # with one BLAS thread every row's sum is fixed, so compare there
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(TESTS), str(TESTS.parent / "src"),
                                               os.environ.get("PYTHONPATH", "")]))
        code = ("import json, test_farfield; "
                f"print(json.dumps(test_farfield.blocked_and_whole({dimension}, {n})))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert result["blocks"] >= 3
        assert result["g_equal"]
        assert result["errors_equal"]
        assert all(result["short_tails_equal"])

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
