"""Grid, field, and resolvent-operator behavior."""

import warnings

import numpy as np
import pytest

from helmdual import (
    DomainError,
    Field,
    GridSpec,
    GridMismatchError,
    ShellResonanceError,
    helmholtz_multiplier,
)
from helmdual.kernel import (
    fundamental_solution_psi, helmholtz_symbol, resolvent_apply, spectral_laplacian,
)
from conftest import mode_field, random_field

SQRT2_BOX = np.pi * np.sqrt(2.0)  # lattice |k|^2 = 2 |m|^2, no unit-shell point


class TestGridSpec:
    def test_basic_properties(self):
        g = GridSpec(2, 6.0, 32)
        assert g.spacing == 6.0 / 32
        assert g.weight == (6.0 / 32) ** 2
        assert g.shape == (32, 32)
        assert g.size == 1024
        assert g.delta_min > 0
        assert g.unit_shift_points is None  # 32 not divisible by L = 6
        assert GridSpec(2, 6.0, 48).unit_shift_points == 8

    @pytest.mark.parametrize("dimension, n", [(2, 48), (3, 16)])
    def test_k_squared_bit_identical_to_full_mesh(self, dimension, n):
        g = GridSpec(dimension, 6.0, n)
        mesh = np.meshgrid(*([g.axis_frequencies] * dimension), indexing="ij")
        want = sum(km ** 2 for km in mesh)
        assert g.k_squared.shape == g.shape
        assert g.k_squared.tobytes() == want.tobytes()

    def test_resonant_grid_rejected(self):
        # L = 2 pi puts |m| = 1 modes exactly on the unit shell
        with pytest.raises(ShellResonanceError):
            GridSpec(2, 2.0 * np.pi, 16)

    def test_resonant_grid_allowed_with_absorption(self):
        g = GridSpec(2, 2.0 * np.pi, 16, shell_epsilon=0.5)
        assert g.delta_min == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(4, 6.0, 16)
        with pytest.raises(ValueError):
            GridSpec(2, 6.0, 15)
        with pytest.raises(ValueError):
            GridSpec(2, -1.0, 16)
        with pytest.raises(ValueError):
            GridSpec(2, 6.0, 16, shell_epsilon=-0.1)

    @pytest.mark.parametrize("dimension, box_length, n, eps", [
        (2, 5e-324, 16, 0.0),   # the spacing underflows to 0
        (2, 1e-300, 64, 0.0),   # |k| overflows
        (3, 1e-75, 64, 0.0),    # |k|^2 is finite, its square is not
        (2, 6.0, 16, 1e200),    # eps^2 overflows
    ])
    def test_unrepresentable_spectrum_rejected(self, dimension, box_length, n, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                GridSpec(dimension, box_length, n, shell_epsilon=eps)

    def test_small_box_with_finite_spectrum_accepted(self):
        g = GridSpec(2, 1e-70, 16)
        assert np.isfinite(helmholtz_multiplier(g)).all()


class TestField:
    def test_arithmetic_and_grid_guard(self):
        g = GridSpec(2, 6.0, 16)
        rng = np.random.default_rng(0)
        a = random_field(g, rng)
        b = random_field(g, rng)
        np.testing.assert_array_equal((a + b).values, a.values + b.values)
        np.testing.assert_array_equal((a - b).values, a.values - b.values)
        np.testing.assert_array_equal((2.0 * a).values, 2.0 * a.values)
        np.testing.assert_array_equal((-a).values, -a.values)
        other = GridSpec(2, 6.0, 32)
        with pytest.raises(GridMismatchError):
            a + random_field(other, rng)

    def test_finiteness_and_shape(self):
        g = GridSpec(2, 6.0, 16)
        with pytest.raises(ValueError):
            Field(g, np.full(g.shape, np.nan))
        with pytest.raises(ValueError):
            Field(g, np.zeros((4, 4)))
        flat = Field(g, np.zeros(g.size))
        assert flat.values.shape == g.shape


class TestMultiplier:
    def test_known_values(self):
        g = GridSpec(2, SQRT2_BOX, 16)
        sigma = helmholtz_multiplier(g)
        assert abs(sigma[0, 0] - (-1.0)) < 1e-15          # k = 0
        assert abs(sigma[1, 0] - 1.0) < 5e-15             # |k|^2 = 2
        assert np.all(np.isfinite(sigma))

    def test_regularized_value(self):
        g = GridSpec(2, 2.0 * np.pi, 8, shell_epsilon=0.5)
        sigma = helmholtz_multiplier(g)
        # |m| = (1,1): |k|^2 = 2, delta = 1, sigma = 1/(1 + 0.25)
        assert abs(sigma[1, 1] - 0.8) < 1e-14

    def test_symmetry_and_decay(self):
        g = GridSpec(2, 6.0, 32)
        sigma = helmholtz_multiplier(g)
        flipped = sigma[
            np.ix_((-np.arange(32)) % 32, (-np.arange(32)) % 32)
        ]
        np.testing.assert_array_equal(sigma, flipped)
        assert abs(sigma[16, 16]) < abs(sigma[1, 0])


    @pytest.mark.parametrize("dimension, eps", [(2, 0.0), (2, 0.5), (3, 1.0)])
    def test_bit_identical_to_quotient_formula(self, dimension, eps):
        g = GridSpec(dimension, 16.0 if eps else 6.0, 16, shell_epsilon=eps)
        shifted = g.k_squared - 1.0
        want = shifted / (shifted ** 2 + eps ** 2)
        assert helmholtz_multiplier(g).tobytes() == want.tobytes()


class TestSymbol:
    """The symbol s + eps^2/s of the operator that sigma inverts."""

    def test_zero_eps_is_the_shifted_lattice_bitwise(self):
        g = GridSpec(3, 6.0, 16)
        shifted = g.k_squared - 1.0
        assert np.any(shifted < 0.0) and np.any(shifted > 0.0)  # both signs of the zero
        assert helmholtz_symbol(shifted, 0.0).tobytes() == shifted.tobytes()

    def test_inverts_sigma_and_drops_the_removed_mode(self):
        # L = 2 pi puts the |m| = 1 modes on the unit shell, where sigma = 0
        g = GridSpec(2, 2.0 * np.pi, 16, shell_epsilon=0.5)
        shifted = g.k_squared - 1.0
        symbol = helmholtz_symbol(shifted, 0.5)
        on_shell = shifted == 0.0
        assert on_shell.sum() == 4
        assert np.all(symbol[on_shell] == 0.0)
        assert np.all(helmholtz_multiplier(g)[on_shell] == 0.0)
        product = helmholtz_multiplier(g)[~on_shell] * symbol[~on_shell]
        assert np.max(np.abs(product - 1.0)) <= 1e-15


class TestResolvent:
    def test_eigenfunction(self):
        g = GridSpec(2, SQRT2_BOX, 16)
        f = mode_field(g, (1, 0))
        out = resolvent_apply(f)
        # sigma(|k|^2 = 2) = 1: the mode passes through unchanged
        assert np.max(np.abs(out.values - f.values)) < 5e-15

    def test_zero_mode(self):
        g = GridSpec(2, 6.0, 16)
        f = Field(g, np.full(g.shape, 3.0))
        out = resolvent_apply(f)
        assert np.max(np.abs(out.values + 3.0)) < 1e-13

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_against_dense_dft_oracle(self, dimension):
        g = GridSpec(dimension, 6.0, 8)
        rng = np.random.default_rng(42)
        f = random_field(g, rng)
        sigma = helmholtz_multiplier(g)

        # brute-force DFT: out = W^H diag(sigma) W f / size
        npts = g.size
        coords = np.stack([m.ravel() for m in np.meshgrid(
            *([np.arange(8)] * dimension), indexing="ij")], axis=1)
        phase = np.exp(-2j * np.pi * coords @ coords.T / 8)
        fhat = phase @ f.values.ravel()
        out_flat = (phase.conj().T @ (sigma.ravel() * fhat)).real / npts

        out = resolvent_apply(f)
        scale = np.max(np.abs(out_flat))
        assert np.max(np.abs(out.values.ravel() - out_flat)) <= 1e-12 * scale

    def test_symmetry_invariant(self):
        g = GridSpec(2, 6.0, 32)
        rng = np.random.default_rng(3)
        for _ in range(5):
            f, h = random_field(g, rng), random_field(g, rng)
            lhs = f.inner(resolvent_apply(h))
            rhs = h.inner(resolvent_apply(f))
            assert abs(lhs - rhs) <= 1e-11 * f.lp_norm(2) * h.lp_norm(2)

    def test_translation_equivariance(self):
        g = GridSpec(2, 6.0, 32)
        rng = np.random.default_rng(5)
        f = random_field(g, rng)
        for shift in [(8, 0), (0, 16), (8, 8)]:
            rolled = Field(g, np.roll(np.roll(f.values, shift[0], 0), shift[1], 1))
            a = resolvent_apply(rolled).values
            b = np.roll(np.roll(resolvent_apply(f).values, shift[0], 0), shift[1], 1)
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(f.values))

    def test_spectral_identity(self):
        g = GridSpec(2, 6.0, 32)
        rng = np.random.default_rng(7)
        f = random_field(g, rng)
        rf = resolvent_apply(f)
        back = (-spectral_laplacian(rf).values) - rf.values
        assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_resonance_propagates(self):
        # bypass construction-time validation to exercise the operator's own guard
        resonant = GridSpec.__new__(GridSpec)
        object.__setattr__(resonant, "dimension", 2)
        object.__setattr__(resonant, "box_length", 2.0 * np.pi)
        object.__setattr__(resonant, "points_per_axis", 16)
        object.__setattr__(resonant, "shell_epsilon", 0.0)
        with pytest.raises(ShellResonanceError):
            helmholtz_multiplier(resonant)


class TestLaplacian:
    def test_eigenfunction(self):
        g = GridSpec(2, 6.0, 32)
        f = mode_field(g, (2, 1))
        k2 = (2 * np.pi / 6.0) ** 2 * 5
        out = spectral_laplacian(f)
        assert np.max(np.abs(out.values + k2 * f.values)) < 1e-12 * k2

    def test_annihilates_constants(self):
        g = GridSpec(2, 6.0, 16)
        out = spectral_laplacian(Field(g, np.full(g.shape, 4.2)))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_matches_finite_differences_at_second_order(self):
        errors = {}
        for n in (32, 64):
            g = GridSpec(2, 6.0, n)
            mesh = g.coordinate_mesh()
            bump = np.exp(-((mesh[0] - 3.0) ** 2 + (mesh[1] - 3.0) ** 2) / 0.5)
            u = Field(g, bump)
            spectral = spectral_laplacian(u).values
            h = g.spacing
            fd = (
                np.roll(bump, 1, 0) + np.roll(bump, -1, 0)
                + np.roll(bump, 1, 1) + np.roll(bump, -1, 1) - 4 * bump
            ) / h ** 2
            errors[n] = np.max(np.abs(spectral - fd))
        ratio = errors[32] / errors[64]
        assert 2.5 < ratio < 6.0  # second-order convergence of the FD oracle


class TestFundamentalSolution:
    def test_three_d_closed_form(self):
        assert abs(fundamental_solution_psi(np.pi / 2, 3)) < 1e-16
        expected = 1.0 / (8.0 * np.pi ** 2)
        assert abs(fundamental_solution_psi(2 * np.pi, 3) - expected) < 1e-15 * expected

    def test_domain_error(self):
        with pytest.raises(DomainError):
            fundamental_solution_psi(0.0, 3)
        with pytest.raises(DomainError):
            fundamental_solution_psi(-1.0, 2)
