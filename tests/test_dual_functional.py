"""Dual energy, derivative, fibering, and duality-chain identities."""

import numpy as np
import pytest

from helmdual import (
    Coefficient,
    Exponents,
    Field,
    GridSpec,
    NotInUPlusError,
    ZeroFieldError,
    odd_power,
    spectral_laplacian,
)
from conftest import (
    make_bump_context,
    make_constant_context,
    make_sine_context,
    mode_field,
    random_field,
)

SQRT2_BOX = np.pi * np.sqrt(2.0)


class TestExponents:
    def test_window_2d(self):
        e = Exponents(2, 7.0)
        assert e.lower_bound == 6.0
        assert e.upper_bound == np.inf
        assert abs(e.p_conj - 7.0 / 6.0) < 1e-15
        with pytest.raises(ValueError):
            Exponents(2, 6.0)

    def test_window_3d(self):
        e = Exponents(3, 5.0)
        assert e.lower_bound == 4.0
        assert e.upper_bound == 6.0
        with pytest.raises(ValueError):
            Exponents(3, 6.5)
        with pytest.raises(ValueError):
            Exponents(3, 4.0)

    def test_conjugate_identity(self):
        e = Exponents(2, 7.0)
        assert abs(1.0 / e.p + 1.0 / e.p_conj - 1.0) < 1e-15
        assert 1.0 < e.p_conj < 2.0


class TestCoefficient:
    def test_rejects_negative_and_zero(self):
        g = GridSpec(2, 6.0, 16)
        with pytest.raises(ValueError):
            Coefficient.build(Field(g, -np.ones(g.shape)), 7.0)
        with pytest.raises(ValueError):
            Coefficient.build(Field(g, np.zeros(g.shape)), 7.0)

    def test_periodicity_enforced(self):
        g = GridSpec(2, 6.0, 48)
        mesh = g.coordinate_mesh()
        aperiodic = 1.0 + 0.1 * mesh[0]
        with pytest.raises(ValueError):
            Coefficient.build(Field(g, aperiodic), 7.0, periodic=True)
        exact = 1.0 + 0.5 * np.prod([np.sin(2 * np.pi * m) for m in g.unit_cell_mesh()], axis=0)
        coeff = Coefficient.build(Field(g, exact), 7.0, periodic=True)
        shift = g.unit_shift_points
        for axis in range(2):
            np.testing.assert_array_equal(
                np.roll(coeff.field.values, shift, axis=axis), coeff.field.values
            )

    def test_root_cached(self):
        ctx = make_sine_context(n=48)
        np.testing.assert_allclose(
            ctx.coefficient.q_root.values ** 7.0, ctx.coefficient.field.values, rtol=1e-12
        )


class TestApplyK:
    def test_eigenfunction_with_unit_coefficient(self, const_ctx):
        v = mode_field(const_ctx.grid, (1, 0))
        out = const_ctx.apply_k(v)
        assert np.max(np.abs(out.values - v.values)) < 5e-14

    def test_zero(self, const_ctx):
        out = const_ctx.apply_k(Field(const_ctx.grid, np.zeros(const_ctx.grid.shape)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_symmetry(self, sine_ctx):
        rng = np.random.default_rng(12)
        for _ in range(5):
            v, w = random_field(sine_ctx, rng), random_field(sine_ctx, rng)
            lhs = v.inner(sine_ctx.apply_k(w))
            rhs = w.inner(sine_ctx.apply_k(v))
            assert abs(lhs - rhs) <= 1e-11 * v.lp_norm(2) * w.lp_norm(2)


class TestSupport:
    def test_bump_support(self):
        ctx = make_bump_context()
        inside = ctx.coefficient.field.values > 0.0
        assert 0 < ctx.support.size == inside.sum() < ctx.grid.size
        assert not ctx.full_support

    def test_extend_restrict_round_trip(self):
        ctx = make_bump_context()
        inside = ctx.coefficient.field.values > 0.0
        x = np.random.default_rng(20).standard_normal(ctx.grid.shape)
        vs = ctx.restrict(x)
        assert vs.shape == (ctx.support.size,)
        back = ctx.extend(vs)
        assert back.shape == ctx.grid.shape
        np.testing.assert_array_equal(back[inside], x[inside])
        assert np.all(back[~inside] == 0.0)

    def test_apply_k_is_the_sandwich(self):
        ctx = make_bump_context()
        v = np.random.default_rng(21).standard_normal(ctx.grid.shape)
        q = ctx.q_root
        ref = q * np.fft.ifftn(ctx.sigma * np.fft.fftn(q * v)).real
        got = ctx.apply_k_array(v)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        np.testing.assert_array_equal(ctx.restrict(got), ctx.apply_k_support(ctx.restrict(v)))

    def test_full_support_maps_are_views(self, sine_ctx):
        assert sine_ctx.full_support
        x = np.random.default_rng(22).standard_normal(sine_ctx.grid.shape)
        vs = sine_ctx.restrict(x)
        assert vs.shape == (sine_ctx.grid.size,)
        assert np.shares_memory(vs, x)
        assert np.shares_memory(sine_ctx.extend(vs), x)
        np.testing.assert_array_equal(
            sine_ctx.extend(sine_ctx.apply_k_support(vs)), sine_ctx.apply_k_array(x)
        )


def cos_power_integral(p_conj, box_measure):
    """High-resolution oracle for int |cos(x1 + x2)|^{p'} over the box:
    the integrand depends on u = x1 + x2 only, so the box integral equals
    box_measure times the period average of |cos|^{p'}."""
    u = np.linspace(0.0, 2.0 * np.pi, 2_000_001)
    mean = np.trapezoid(np.abs(np.cos(u)) ** p_conj, u) / (2.0 * np.pi)
    return box_measure * mean


class TestEnergy:
    def test_zero_and_even(self, sine_ctx):
        zero = Field(sine_ctx.grid, np.zeros(sine_ctx.grid.shape))
        assert sine_ctx.energy(zero) == 0.0
        rng = np.random.default_rng(1)
        v = random_field(sine_ctx, rng)
        assert sine_ctx.energy(-v) == sine_ctx.energy(v)

    def test_scaling_identity(self, sine_ctx):
        rng = np.random.default_rng(2)
        v = random_field(sine_ctx, rng)
        pc = sine_ctx.exponents.p_conj
        mass = sine_ctx.dual_mass(v.values)
        quad = sine_ctx.quadratic_form(v)
        for s in (2.0, 3.0):
            expected = s ** pc / pc * mass - 0.5 * s ** 2 * quad
            assert abs(sine_ctx.energy(s * v) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_unit_coefficient_cosine_level(self):
        # Q = 1, v = cos(x1 + x2) on the 2 pi box: K v = v, so
        # J = (1/p') int |cos|^{p'} - Vol/4.  The 2 pi box carries unit-shell
        # lattice points, so a tiny absorption stands in for the principal value.
        eps = 1e-8
        ctx = make_constant_context(n=256, L=2.0 * np.pi, eps=eps)
        v = mode_field(ctx.grid, (1, 1))
        vol = ctx.grid.box_length ** 2
        pc = ctx.exponents.p_conj
        expected = cos_power_integral(pc, vol) / pc - vol / 4.0
        assert abs(ctx.energy(v) - expected) <= 1e-4 * abs(expected)


class TestGradient:
    def test_zero_field(self, sine_ctx):
        zero = Field(sine_ctx.grid, np.zeros(sine_ctx.grid.shape))
        assert np.max(np.abs(sine_ctx.gradient(zero).values)) == 0.0

    def test_constant_field_algebra(self):
        ctx = make_constant_context(n=16)
        c = 0.7
        v = Field(ctx.grid, np.full(ctx.grid.shape, c))
        g = ctx.gradient(v)
        pc = ctx.exponents.p_conj
        expected = c ** (pc - 1.0) + c  # K v = -v on constants
        assert np.max(np.abs(g.values - expected)) < 1e-13

    def test_oddness(self, sine_ctx):
        rng = np.random.default_rng(3)
        v = random_field(sine_ctx, rng)
        np.testing.assert_array_equal(
            sine_ctx.gradient(-v).values, -sine_ctx.gradient(v).values
        )

    def test_matches_central_differences(self, sine_ctx):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(3):
            base = random_field(sine_ctx, rng)
            v = Field(sine_ctx.grid, np.sign(base.values + 1e-12) * (0.1 + np.abs(base.values)))
            w = random_field(sine_ctx, rng, scale=0.5)
            fd = (sine_ctx.energy(v + h * w) - sine_ctx.energy(v - h * w)) / (2.0 * h)
            pairing = sine_ctx.gradient(v).inner(w)
            assert abs(fd - pairing) <= 1e-5 * max(abs(fd), 1e-12)


class TestQuadraticFormAndFibering:
    def test_cosine_value(self, const_ctx):
        v = mode_field(const_ctx.grid, (1, 0))
        vol = const_ctx.grid.box_length ** 2
        assert abs(const_ctx.quadratic_form(v) - vol / 2.0) <= 1e-12 * vol

    def test_constant_not_in_cone(self, const_ctx):
        c = Field(const_ctx.grid, np.full(const_ctx.grid.shape, 2.0))
        vol = const_ctx.grid.box_length ** 2
        assert abs(const_ctx.quadratic_form(c) + 4.0 * vol) <= 1e-12 * vol
        with pytest.raises(NotInUPlusError):
            const_ctx.fibering_scale(c)

    def test_zero_cases(self, const_ctx):
        zero = Field(const_ctx.grid, np.zeros(const_ctx.grid.shape))
        assert const_ctx.quadratic_form(zero) == 0.0
        with pytest.raises(ZeroFieldError):
            const_ctx.fibering_scale(zero)

    def test_scale_homogeneity(self, sine_ctx):
        rng = np.random.default_rng(5)
        v = random_field(sine_ctx, rng)
        t = sine_ctx.fibering_scale(v)
        assert abs(sine_ctx.fibering_scale(2.0 * v) - t / 2.0) <= 1e-12 * t

    def test_cosine_scale_against_quadrature(self):
        ctx = make_constant_context(n=256)
        v = mode_field(ctx.grid, (1, 0))
        pc = ctx.exponents.p_conj
        vol = ctx.grid.box_length ** 2
        # 1d oracle for int |cos(k x)|^{p'} with k aligned to the first axis
        u = np.linspace(0.0, 2.0 * np.pi, 2_000_001)
        mass = vol * np.trapezoid(np.abs(np.cos(u)) ** pc, u) / (2.0 * np.pi)
        expected = (mass / (vol / 2.0)) ** (1.0 / (2.0 - pc))
        assert abs(ctx.fibering_scale(v) - expected) <= 1e-4 * expected

    def test_fibering_maximizes(self, sine_ctx):
        rng = np.random.default_rng(6)
        for _ in range(3):
            v = random_field(sine_ctx, rng)
            v = (1.0 / v.lp_norm(sine_ctx.exponents.p_conj)) * v
            t = sine_ctx.fibering_scale(v)
            peak = sine_ctx.energy(t * v)
            for s in np.geomspace(t / 10.0, 10.0 * t, 50):
                assert peak - sine_ctx.energy(float(s) * v) >= -1e-12


class TestNehariEnergy:
    def test_scale_invariance_and_positivity(self, sine_ctx):
        rng = np.random.default_rng(7)
        v = random_field(sine_ctx, rng)
        level = sine_ctx.nehari_energy(v)
        assert level > 0.0
        assert abs(sine_ctx.nehari_energy(3.0 * v) - level) <= 1e-12 * level

    def test_matches_projected_energy(self, sine_ctx):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_field(sine_ctx, rng)
            if sine_ctx.quadratic_form(v) <= 0:
                continue
            t = sine_ctx.fibering_scale(v)
            direct = sine_ctx.energy(t * v)
            assert abs(sine_ctx.nehari_energy(v) - direct) <= 1e-12 * max(1.0, abs(direct))


class TestDualToPrimal:
    def test_eigenmode(self, const_ctx):
        v = mode_field(const_ctx.grid, (1, 0))
        u = const_ctx.dual_to_primal(v)
        assert np.max(np.abs(u.values - v.values)) < 5e-14

    def test_zero(self, const_ctx):
        zero = Field(const_ctx.grid, np.zeros(const_ctx.grid.shape))
        assert np.max(np.abs(const_ctx.dual_to_primal(zero).values)) == 0.0

    def test_transform_identity(self, sine_ctx):
        rng = np.random.default_rng(9)
        v = random_field(sine_ctx, rng)
        u = sine_ctx.dual_to_primal(v)
        lhs = np.fft.fftn((-spectral_laplacian(u) - u).values)
        rhs = np.fft.fftn(sine_ctx.q_root * v.values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


class TestPrimalResidual:
    def test_zero_field(self, sine_ctx):
        zero = Field(sine_ctx.grid, np.zeros(sine_ctx.grid.shape))
        assert sine_ctx.primal_residual(zero) == 0.0

    def test_cosine_against_quadrature(self):
        ctx = make_constant_context(n=64)
        u = mode_field(ctx.grid, (1, 0))
        pc = ctx.exponents.p_conj
        p = ctx.exponents.p
        # (-Delta - 1) u = u for the |k|^2 = 2 mode, so the defect is
        # cos - |cos|^{p-2} cos; compare against direct quadrature of the
        # closed-form integrand.
        vals = np.cos(2.0 * np.pi * ctx.grid.coordinate_mesh()[0] / ctx.grid.box_length)
        defect = vals - odd_power(vals, p - 1.0)
        w = ctx.grid.weight
        res = (w * np.sum(np.abs(defect) ** pc)) ** (1.0 / pc)
        scale = ((w * np.sum(np.abs(vals) ** pc)) ** (1.0 / pc)
                 + (w * np.sum(np.abs(vals) ** ((p - 1.0) * pc))) ** (1.0 / pc))
        expected = res / scale
        assert expected > 1e-2  # genuinely nonzero defect
        assert abs(ctx.primal_residual(u) - expected) <= 1e-10 * expected


class TestMonotoneOperatorInequality:
    def test_scalar_form(self):
        pc = 7.0 / 6.0
        rng = np.random.default_rng(10)
        a = rng.uniform(1e-3, 1e3, size=100_000)
        b = rng.uniform(1e-3, 1e3, size=100_000)
        lhs = (a ** (pc - 1.0) - b ** (pc - 1.0)) * (a - b)
        rhs = (pc - 1.0) * (a - b) ** 2 * (a + b) ** (pc - 2.0)
        assert float((lhs - rhs).min()) >= -1e-12

    def test_field_form(self, sine_ctx):
        pc = sine_ctx.exponents.p_conj
        rng = np.random.default_rng(11)
        worst = np.inf
        for _ in range(20):
            v = random_field(sine_ctx, rng)
            w = random_field(sine_ctx, rng)
            diff = v.values - w.values
            lhs = sine_ctx.inner(
                odd_power(v.values, pc - 1.0) - odd_power(w.values, pc - 1.0), diff
            )
            rhs = (pc - 1.0) * sine_ctx.lp_norm(diff, pc) ** 2 * sine_ctx.lp_norm(
                np.abs(v.values) + np.abs(w.values), pc
            ) ** (pc - 2.0)
            worst = min(worst, lhs - rhs)
        assert worst >= -1e-12


class TestMountainPassGeometry:
    def test_small_sphere_positive(self, sine_ctx):
        rng = np.random.default_rng(13)
        pc = sine_ctx.exponents.p_conj
        for _ in range(10):
            v = random_field(sine_ctx, rng)
            v = (0.1 / v.lp_norm(pc)) * v
            assert sine_ctx.energy(v) > 0.0

    def test_large_scale_negative_on_positive_span(self, sine_ctx):
        pc = sine_ctx.exponents.p_conj
        span = mode_field(sine_ctx.grid, (1, 0)) + mode_field(sine_ctx.grid, (0, 1), "sin")
        quad = sine_ctx.quadratic_form(span)
        assert quad > 0.0
        mass = sine_ctx.dual_mass(span.values)
        s_zero = (2.0 * mass / (pc * quad)) ** (1.0 / (2.0 - pc))
        assert sine_ctx.energy(float(2.0 * s_zero) * span) <= 0.0
