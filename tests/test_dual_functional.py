"""Dual energy, derivative, fibering, and duality-chain identities."""

import numpy as np
import pytest

from helmdual import (
    Coefficient,
    DescentConfig,
    DomainError,
    Exponents,
    Field,
    FunctionalContext,
    GridSpec,
    HelmdualError,
    NotInUPlusError,
    RunConfig,
    SphereSamples,
    ZeroFieldError,
    equal_area_directions,
    odd_power,
)
from helmdual.cli import build_coefficient
from helmdual.dual_functional import sine_product
from helmdual.kernel import fundamental_solution_psi, spectral_laplacian
from conftest import (
    make_bump_context,
    make_constant_context,
    make_sine_context,
    mode_field,
    random_field,
)

SQRT2_BOX = np.pi * np.sqrt(2.0)


def sandwich(ctx, v):
    """The unpruned K: q R(q v) with one full fftn/ifftn pair."""
    q = ctx.q_root
    return q * np.fft.ifftn(ctx.sigma * np.fft.fftn(q * v)).real


def edge_context(dimension, axis, n=16):
    """Q > 0 on a block that wraps around both ends of `axis`, so the
    support's box spans that axis and no other."""
    grid = GridSpec(dimension=dimension, box_length=8.0, points_per_axis=n)
    block = [slice(5, 9)] * dimension
    block[axis] = np.r_[0:2, n - 2:n]
    q = np.zeros(grid.shape)
    q[np.ix_(*[np.arange(n)[b] for b in block])] = 1.0
    q *= 1.0 + np.random.default_rng(23).random(grid.shape)
    p = 7.0 if dimension == 2 else 5.0
    return FunctionalContext(grid, Exponents(dimension, p), Coefficient.build(Field(grid, q), p))


def _context_with(dimension, p):
    grid = GridSpec(2, 6.0, 16)
    coeff = Coefficient.build(Field(grid, np.ones(grid.shape)), 7.0)
    return FunctionalContext(grid, Exponents(dimension, p), coeff)


@pytest.mark.parametrize("build", [
    lambda: GridSpec(4, 6.0, 16),
    lambda: GridSpec(2, 6.0, 15),
    lambda: Field(GridSpec(2, 6.0, 16), np.zeros((4, 4))),
    lambda: Field(GridSpec(2, 6.0, 16), np.full((16, 16), np.nan)),
    lambda: Exponents(2, 6.0),
    lambda: _context_with(3, 5.0),
    lambda: _context_with(2, 8.0),
    lambda: DescentConfig(tol_residual=0.0),
    lambda: DescentConfig(multistart_count=0),
    lambda: SphereSamples(np.array([[1.0, 1.0]]), np.zeros(1)),
    lambda: SphereSamples(np.array([[1.0, 0.0]]), np.zeros(2)),
    lambda: equal_area_directions(4, 8),
    lambda: build_coefficient(RunConfig(mode="solve", coefficient_kind="tartan"), GridSpec(2, 6.0, 16)),
    lambda: fundamental_solution_psi(1.0, 2),
], ids=["grid_dimension", "grid_points", "field_shape", "field_finite", "exponents_window",
        "context_dimension", "context_p", "descent_tolerance", "descent_starts",
        "sphere_directions", "sphere_values", "directions_dimension", "coefficient_kind",
        "psi_dimension"])
def test_constructor_errors_are_typed(build):
    # DomainError is a HelmdualError for the CLI and a ValueError for callers
    with pytest.raises(DomainError) as err:
        build()
    assert isinstance(err.value, HelmdualError)
    assert isinstance(err.value, ValueError)


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
        coeff = Coefficient.build(Field(g, sine_product(g)), 7.0, periodic=True)
        shift = g.unit_shift_points
        for axis in range(2):
            np.testing.assert_array_equal(
                np.roll(coeff.field.values, shift, axis=axis), coeff.field.values
            )

    @pytest.mark.parametrize("n", [48, 96])
    def test_sine_product_samples(self, n):
        # the folded unit-cell mesh on a grid with unit shifts
        g = GridSpec(2, 6.0, n)
        folded = 1.0 + 0.5 * np.prod([np.sin(2.0 * np.pi * m) for m in g.unit_cell_mesh()], axis=0)
        assert np.array_equal(sine_product(g), folded)
        cfg = RunConfig(mode="solve", grid_points_per_axis=n)
        assert np.array_equal(build_coefficient(cfg, g).field.values, folded)
        # the plain mesh on a grid without them (6 does not divide n + 2)
        g = GridSpec(2, 6.0, n + 2)
        plain = 1.0 + 0.5 * np.prod([np.sin(2.0 * np.pi * m) for m in g.coordinate_mesh()], axis=0)
        assert np.array_equal(sine_product(g), plain)

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

    @pytest.mark.parametrize("shape", [{}, {"n": 24, "p": 5.0, "dimension": 3}])
    def test_windowed_k_is_the_sandwich(self, shape):
        ctx = make_bump_context(**shape)
        assert ctx.box is not None
        v = np.random.default_rng(24).standard_normal(ctx.grid.shape)
        ref = ctx.restrict(sandwich(ctx, v))
        got = ctx.apply_k_support(ctx.restrict(v))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dimension,axis", [(2, 0), (2, 1), (3, 1)])
    def test_box_spanning_an_axis(self, dimension, axis):
        ctx = edge_context(dimension, axis)
        n = ctx.grid.points_per_axis
        assert [b == slice(0, n) for b in ctx.box] == [d == axis for d in range(dimension)]
        v = np.random.default_rng(25).standard_normal(ctx.grid.shape)
        ref = ctx.restrict(sandwich(ctx, v))
        got = ctx.apply_k_support(ctx.restrict(v))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape,box,window", [
        ({}, (12, 11), (24, 24)),
        ({"n": 24, "p": 5.0, "dimension": 3}, (9, 9, 9), (18, 18, 18)),
    ])
    def test_compact_support_k_is_one_small_fft_pair(self, shape, box, window, monkeypatch):
        # window size per axis: the smallest 2*3*5-smooth integer >= 2 w - 1, at most n
        ctx = make_bump_context(**shape)
        assert tuple(b.stop - b.start for b in ctx.box) == box
        ctx.apply_k_support(np.ones(ctx.support.size))  # builds the window
        assert ctx._k_window[0].shape == window
        calls = []
        for name in ("fftn", "ifftn"):
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, a.shape))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        ctx.apply_k_support(np.ones(ctx.support.size))
        assert calls == [("fftn", window), ("ifftn", window)]

    def test_full_support_k_is_bit_identical(self, sine_ctx):
        assert sine_ctx.box is None
        v = np.random.default_rng(26).standard_normal(sine_ctx.grid.shape)
        np.testing.assert_array_equal(
            sine_ctx.apply_k_support(sine_ctx.restrict(v)), sine_ctx.restrict(sandwich(sine_ctx, v))
        )

    def test_pruned_dual_to_primal_is_bit_identical(self):
        ctx = make_bump_context()
        v = np.random.default_rng(27).standard_normal(ctx.grid.shape)
        ref = np.fft.ifftn(ctx.sigma * np.fft.fftn(ctx.q_root * v)).real
        np.testing.assert_array_equal(ctx.dual_to_primal(Field(ctx.grid, v)).values, ref)

    @pytest.mark.parametrize("kind", ["bump", "sine"])
    def test_k_results_do_not_alias(self, kind, sine_ctx):
        ctx = make_bump_context() if kind == "bump" else sine_ctx
        rng = np.random.default_rng(28)
        first = ctx.apply_k_support(rng.standard_normal(ctx.support.size))
        kept = first.copy()
        ctx.apply_k_support(rng.standard_normal(ctx.support.size))
        np.testing.assert_array_equal(first, kept)

    def test_full_support_k_is_one_fft_pair(self, sine_ctx, monkeypatch):
        calls = []
        for name in ("fftn", "ifftn"):
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        sine_ctx.apply_k_support(np.ones(sine_ctx.support.size))
        assert calls == ["fftn", "ifftn"]

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

    @pytest.mark.parametrize("make", [
        lambda: make_bump_context(n=32),
        lambda: make_bump_context(n=16, L=8.0, dimension=3, p=5.0),
        lambda: make_sine_context(n=48),
    ], ids=["compact_2d", "compact_3d", "full_2d"])
    def test_bit_identical_to_whole_grid_formula(self, make):
        # Q |u|^{p-2} u on the support, extended by zero, against the product over the grid
        ctx = make()
        pc, p = ctx.exponents.p_conj, ctx.exponents.p
        rng = np.random.default_rng(4)
        for u in (random_field(ctx, rng), ctx.dual_to_primal(random_field(ctx, rng))):
            spec = np.fft.fftn(u.values) * (ctx.grid.k_squared - 1.0)
            lhs = np.fft.ifftn(spec).real
            rhs = ctx.coefficient.field.values * odd_power(u.values, p - 1.0)
            want = ctx.lp_norm(lhs - rhs, pc) / (ctx.lp_norm(lhs, pc) + ctx.lp_norm(rhs, pc))
            assert ctx.primal_residual(u) == want


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
