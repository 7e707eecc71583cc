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
from helmdual import kernel, selftest as battery
from helmdual.kernel import helmholtz_symbol, row_slices
from conftest import dft_matrix, make_constant_context, mode_field, random_field, traced_peak

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

    @pytest.mark.parametrize("dimension, box_length, n", [
        (2, 6.0, 48), (2, 6.0, 256), (2, 16.0, 64), (2, 2.0 * np.pi, 16),
        (2, SQRT2_BOX, 32), (3, 6.0, 16), (3, 16.0, 48), (3, 7.3, 10),
    ])
    def test_delta_min_is_the_whole_lattice_minimum(self, dimension, box_length, n):
        g = GridSpec(dimension, box_length, n, shell_epsilon=0.5)
        assert g.delta_min == float(np.abs(g.k_squared - 1.0).min())

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


@pytest.mark.parametrize("budget", [None, 1000])
@pytest.mark.parametrize("rows, row_bytes", [
    (1, 8), (7, 8), (48, 8 * 48), (48, 8 * 48 * 48), (48, 96 * 48 * 48), (64, 8 * 64 * 64),
    (64, 16 * 64 * 33), (256, 8 * 256 * 256), (5, 1 << 18), (5, (1 << 18) + 1), (9, 3 << 18),
])
def test_row_slices_partition_the_rows(rows, row_bytes, budget, monkeypatch):
    # in order, each row exactly once, and each slice within the budget (read
    # on each call) or a single row; as few slices as that allows, all of one
    # size but a shorter last one
    if budget is not None:
        monkeypatch.setattr(kernel, "BLOCK_BYTES", budget)
    slices = row_slices(rows, row_bytes)
    assert [i for span in slices for i in range(rows)[span]] == list(range(rows))
    sizes = [span.stop - span.start for span in slices]
    assert all(size * row_bytes <= kernel.BLOCK_BYTES or size == 1 for size in sizes)
    assert len(sizes) == -(-rows // max(1, kernel.BLOCK_BYTES // row_bytes))
    assert all(size == sizes[0] for size in sizes[:-1]) and sizes[-1] <= sizes[0]


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
        for bad in (np.nan, np.inf, -np.inf):
            values = np.zeros(g.shape)
            values[3, 5] = bad
            with pytest.raises(ValueError):
                Field(g, values)
        with pytest.raises(ValueError):
            Field(g, np.zeros((4, 4)))
        flat = Field(g, np.zeros(g.size))
        assert flat.values.shape == g.shape

    def test_finiteness_check_forms_no_mask(self):
        # two reductions, no whole-grid bool mask (0.125 of the field)
        g = GridSpec(2, 6.0, 256)
        values = np.random.default_rng(0).standard_normal(g.shape)
        Field(g, values)  # imports, outside the trace
        field, peak = traced_peak(Field, g, values)
        assert field.values is values
        assert peak < 0.01 * values.nbytes


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

    @pytest.mark.parametrize("dimension, eps", [(2, 0.0), (3, 1.0)])
    def test_half_rows_are_slices_of_the_lattice(self, dimension, eps):
        # the symbol and |k|^2 on axis-0 rows of the half spectrum, as `_real_pair`
        # forms them a block at a time: the slices of the whole-lattice arrays bit for bit
        g = GridSpec(dimension, 16.0 if eps else 6.0, 16, shell_epsilon=eps)
        half = (Ellipsis, slice(0, 9))
        for rows in (slice(None), slice(0, 5), slice(5, 10), slice(15, 20)):
            want_k2 = g.k_squared[rows][half]
            assert g.half_k_squared(rows).tobytes() == want_k2.tobytes()
            want = helmholtz_multiplier(g)[rows][half]
            assert helmholtz_multiplier(g, g.half_frequencies(rows)).tobytes() == want.tobytes()


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
    """R as the solver runs it: `dual_to_primal` on a context with Q = 1."""

    def test_eigenfunction(self):
        ctx = make_constant_context(n=16, L=SQRT2_BOX)
        f = mode_field(ctx.grid, (1, 0))
        out = ctx.dual_to_primal(f)
        # sigma(|k|^2 = 2) = 1: the mode passes through unchanged
        assert np.max(np.abs(out.values - f.values)) < 5e-15

    def test_zero_mode(self):
        ctx = make_constant_context(n=16, L=6.0)
        f = Field(ctx.grid, np.full(ctx.grid.shape, 3.0))
        out = ctx.dual_to_primal(f)
        assert np.max(np.abs(out.values + 3.0)) < 1e-13

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_against_dense_dft_oracle(self, dimension):
        ctx = make_constant_context(n=8, L=6.0, dimension=dimension, p=7.0 if dimension == 2 else 5.0)
        g = ctx.grid
        rng = np.random.default_rng(42)
        f = random_field(g, rng)
        sigma = helmholtz_multiplier(g)

        # brute-force DFT: out = W^H diag(sigma) W f / size
        phase = dft_matrix(g)
        fhat = phase @ f.values.ravel()
        out_flat = (phase.conj().T @ (sigma.ravel() * fhat)).real / g.size

        out = ctx.dual_to_primal(f)
        scale = np.max(np.abs(out_flat))
        assert np.max(np.abs(out.values.ravel() - out_flat)) <= 1e-12 * scale

    def test_symmetry_invariant(self):
        ctx = make_constant_context(n=32, L=6.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            defect, scale = battery.symmetry_defect(ctx.dual_to_primal, random_field(ctx, rng),
                                                    random_field(ctx, rng))
            assert defect <= battery.SYMMETRY_TOL * scale

    def test_translation_equivariance(self):
        ctx = make_constant_context(n=32, L=6.0)
        rng = np.random.default_rng(5)
        f = random_field(ctx, rng)
        for shift in [(8, 0), (0, 16), (8, 8)]:
            assert battery.translation_defect(ctx.dual_to_primal, f, shift) <= battery.EQUIVARIANCE_TOL

    def test_spectral_identity(self):
        ctx = make_constant_context(n=32, L=6.0)
        f = random_field(ctx, np.random.default_rng(7))
        assert battery.inverse_identity_error(ctx.dual_to_primal, f) <= battery.IDENTITY_TOL


class TestFundamentalSolution:
    def test_three_d_closed_form(self):
        # tighter than the selftest suite's PSI_TOL
        err_zero, err_value = battery.psi_closed_form_errors()
        assert err_zero < 1e-16
        assert err_value < 1e-15 / (8.0 * np.pi ** 2)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            battery.fundamental_solution_psi(0.0)
        with pytest.raises(DomainError):
            battery.fundamental_solution_psi(np.array([1.0, -1.0]))
