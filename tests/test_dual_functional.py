"""Dual energy, derivative, fibering, and duality-chain identities."""

import math
import tracemalloc

import numpy as np
import pytest

from helmdual import (
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
    helmholtz_multiplier,
    multistart_search,
    odd_power,
    primal_field,
)
from helmdual import dual_functional, kernel
from helmdual import selftest as battery
from helmdual.cli import build_context
from helmdual.dual_functional import sine_product
from conftest import (
    dft_matrix,
    full_mesh,
    make_bump_context,
    make_constant_context,
    make_sine_context,
    make_spanning_bump_context,
    mode_field,
    random_field,
    real_resolvent,
    spans_grid,
    traced_peak,
    window_pair,
)

SQRT2_BOX = np.pi * np.sqrt(2.0)


def sandwich(ctx, v):
    """The unpruned K: q R(q v) with one full fftn/ifftn pair."""
    q = ctx.q_root
    return q * np.fft.ifftn(helmholtz_multiplier(ctx.grid) * np.fft.fftn(q * v)).real


def complex_resolvent(ctx, v):
    """R(Q^{1/p} v) as the unpruned complex pair on the grid."""
    return np.fft.ifftn(helmholtz_multiplier(ctx.grid) * np.fft.fftn(ctx.q_root * v)).real


def assert_resolvent(ctx, got, v):
    """got is R(Q^{1/p} v): numpy's real pair bit for bit, the complex pair to rounding."""
    assert got.tobytes() == real_resolvent(ctx, v).tobytes()
    want = complex_resolvent(ctx, v)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def holed_context(dimension, n=24, seed=31):
    """Q > 0 at a random 60% of a block off the grid's corner: the support's
    box holds zeros inside it, on whole lines as well as single points."""
    grid = GridSpec(dimension=dimension, box_length=8.0, points_per_axis=n)
    rng = np.random.default_rng(seed)
    q = np.zeros(grid.shape)
    block = (slice(3, 14),) + (slice(6, 15),) * (dimension - 1)
    q[block] = rng.random(q[block].shape) * (rng.random(q[block].shape) < 0.6)
    q[(slice(3, 14), 7) + (slice(None),) * (dimension - 2)] = 0.0  # one empty plane
    p = 7.0 if dimension == 2 else 5.0
    return FunctionalContext(Field(grid, q), p)


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
    return FunctionalContext(Field(grid, q), p)


def whole_grid_window(ctx):
    """K's window spectrum from sigma on the whole grid: each cut axis contracts
    the rows k <= n/2 of the array it is given, then one FFT over the cut axes."""
    kernel = helmholtz_multiplier(ctx.grid)
    cut = []
    for axis, (span, n) in enumerate(zip(ctx.box, ctx.grid.shape)):
        w = span.stop - span.start
        m = min(n, dual_functional._smooth_size(max(1, 2 * w - 2)))
        if m == n:
            continue
        cut.append(axis)
        d = np.arange(m)
        d = np.where(d <= m // 2, d, d - m)
        k = np.arange(n // 2 + 1)
        fold = np.where((k == 0) | (k == n // 2), 1.0, 2.0) / n
        rows = np.cos((2.0 * np.pi / n) * (np.outer(d, k) % n)) * fold
        rows[np.abs(d) >= w] = 0.0
        half = np.moveaxis(kernel, axis, 0)[:n // 2 + 1]
        kernel = np.moveaxis(np.einsum("ij,j...->i...", rows, half), 0, axis)
    return np.fft.fftn(kernel, axes=cut).real if cut else kernel


WINDOW_CONTEXTS = [
    lambda: make_bump_context(),
    lambda: make_bump_context(n=24, p=5.0, dimension=3),
    lambda: make_bump_context(n=32, L=16.0, p=5.0, dimension=3, radius=1.6, eps=1.0),
    lambda: edge_context(2, 0),
    lambda: edge_context(3, 1),
    lambda: holed_context(3),
    lambda: make_spanning_bump_context(),
    lambda: make_sine_context(n=48, periodic=False),
]
WINDOW_IDS = ["bump_2d", "bump_3d", "farfield_3d", "edge_2d_axis0", "edge_3d_axis1", "holed_3d",
              "spanning", "full"]


@pytest.mark.parametrize("build", [
    lambda: GridSpec(4, 6.0, 16),
    lambda: GridSpec(2, 6.0, 15),
    lambda: Field(GridSpec(2, 6.0, 16), np.zeros((4, 4))),
    lambda: Field(GridSpec(2, 6.0, 16), np.full((16, 16), np.nan)),
    lambda: Exponents(2, 6.0),
    lambda: DescentConfig(tol_residual=0.0),
    lambda: DescentConfig(multistart_count=0),
    lambda: SphereSamples(np.array([[1.0, 1.0]]), np.zeros(1)),
    lambda: SphereSamples(np.array([[1.0, 0.0]]), np.zeros(2)),
    lambda: equal_area_directions(4, 8),
    lambda: build_context(RunConfig(mode="solve", coefficient_kind="tartan")),
    lambda: DescentConfig(rng_seed=-1),
    lambda: battery.fundamental_solution_psi(0.0),
], ids=["grid_dimension", "grid_points", "field_shape", "field_finite", "exponents_window",
        "descent_tolerance", "descent_starts", "sphere_directions", "sphere_values",
        "directions_dimension", "coefficient_kind", "descent_seed", "psi_radius"])
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
            FunctionalContext(Field(g, -np.ones(g.shape)), 7.0)
        with pytest.raises(ValueError):
            FunctionalContext(Field(g, np.zeros(g.shape)), 7.0)

    def test_periodicity_enforced(self):
        g = GridSpec(2, 6.0, 48)
        aperiodic = 1.0 + 0.1 * full_mesh(g)[0]
        with pytest.raises(ValueError):
            FunctionalContext(Field(g, aperiodic), 7.0, periodic=True)
        ctx = FunctionalContext(Field(g, sine_product(g)), 7.0, periodic=True)
        shift = g.unit_shift_points
        for axis in range(2):
            np.testing.assert_array_equal(np.roll(ctx.q, shift, axis=axis), ctx.q)

    @pytest.mark.parametrize("n", [48, 96])
    def test_sine_product_samples(self, n):
        # the folded unit-cell mesh on a grid with unit shifts; the open mesh
        # multiplies as the whole-grid product does
        g = GridSpec(2, 6.0, n)
        cell = np.broadcast_arrays(*g.unit_cell_mesh())
        folded = 1.0 + 0.5 * np.prod([np.sin(2.0 * np.pi * m) for m in cell], axis=0)
        assert np.array_equal(sine_product(g), folded)
        cfg = RunConfig(mode="solve", grid_points_per_axis=n)
        assert np.array_equal(build_context(cfg).q, folded)
        # the plain mesh on a grid without them (6 does not divide n + 2)
        g = GridSpec(2, 6.0, n + 2)
        plain = 1.0 + 0.5 * np.prod([np.sin(2.0 * np.pi * m) for m in full_mesh(g)], axis=0)
        assert np.array_equal(sine_product(g), plain)

    @pytest.mark.parametrize("make", [make_bump_context, make_sine_context], ids=["bump", "sine"])
    def test_root_bit_identical_to_whole_grid_power(self, make):
        # the root is taken on Q > 0 only; 0^{1/p} is 0 exactly
        ctx = make()
        want = ctx.q ** (1.0 / ctx.exponents.p)
        assert ctx.q_root.tobytes() == want.tobytes()

    def test_root_cached(self):
        ctx = make_sine_context(n=48)
        np.testing.assert_allclose(ctx.q_root ** 7.0, ctx.q, rtol=1e-12)


class TestApplyK:
    def test_eigenfunction_with_unit_coefficient(self, const_ctx):
        v = mode_field(const_ctx.grid, (1, 0))
        out = const_ctx.apply_k(v)
        assert np.max(np.abs(out.values - v.values)) < 5e-14

    def test_zero(self, const_ctx):
        out = const_ctx.apply_k(Field(const_ctx.grid, np.zeros(const_ctx.grid.shape)))
        assert np.max(np.abs(out.values)) == 0.0


class TestSupport:
    def test_bump_support(self):
        ctx = make_bump_context()
        inside = ctx.q > 0.0
        assert 0 < ctx.q_support.size == inside.sum() < ctx.grid.size
        assert not ctx.full_support

    def test_extend_restrict_round_trip(self):
        ctx = make_bump_context()
        inside = ctx.q > 0.0
        x = np.random.default_rng(20).standard_normal(ctx.grid.shape)
        vs = ctx.restrict(x)
        assert vs.shape == (ctx.q_support.size,)
        back = ctx.extend(vs)
        assert back.shape == ctx.grid.shape
        np.testing.assert_array_equal(back[inside], x[inside])
        assert np.all(back[~inside] == 0.0)

    def test_apply_k_is_the_sandwich(self):
        ctx = make_bump_context()
        v = np.random.default_rng(21).standard_normal(ctx.grid.shape)
        q = ctx.q_root
        ref = q * np.fft.ifftn(helmholtz_multiplier(ctx.grid) * np.fft.fftn(q * v)).real
        got = ctx.apply_k_array(v)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        np.testing.assert_array_equal(ctx.restrict(got), ctx.apply_k_support(ctx.restrict(v)))

    @pytest.mark.parametrize("shape", [{}, {"n": 24, "p": 5.0, "dimension": 3}])
    def test_windowed_k_is_the_sandwich(self, shape):
        ctx = make_bump_context(**shape)
        assert not spans_grid(ctx)
        v = np.random.default_rng(24).standard_normal(ctx.grid.shape)
        ref = ctx.restrict(sandwich(ctx, v))
        got = ctx.apply_k_support(ctx.restrict(v))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_windowed_k_against_dense_dft_oracle(self, dimension):
        # K = Q^{1/p} W^H diag(sigma) W Q^{1/p} / n^N with W the grid's dense DFT
        ctx = make_bump_context(n=8, dimension=dimension, p=7.0 if dimension == 2 else 5.0)
        ctx.apply_k_support(np.ones(ctx.q_support.size))  # builds the window
        assert all(m < n for m, n in zip(ctx._k_window[0].shape, ctx.grid.shape))
        v = np.random.default_rng(30).standard_normal(ctx.grid.size)
        q = ctx.q_root.reshape(-1)
        w = dft_matrix(ctx.grid)
        sigma = helmholtz_multiplier(ctx.grid).reshape(-1)
        want = q * (w.conj().T @ (sigma * (w @ (q * v)))).real / ctx.grid.size
        got = ctx.apply_k(Field(ctx.grid, v)).values.reshape(-1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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
        ({}, (12, 11), (24, 20)),
        ({"n": 24, "p": 5.0, "dimension": 3}, (9, 9, 9), (16, 16, 16)),
        ({"radius": 6.0}, (32, 32), (32, 32)),  # full support: the passes of fftn and ifftn
    ])
    def test_compact_support_k_is_one_small_fft_pair(self, shape, box, window, monkeypatch):
        # window size per axis: the smallest 2*3*5-smooth integer >= max(1, 2 w - 2), at most n;
        # each transform runs one 1-d pass per axis, last first: the forward pass
        # over axis d on the lines whose earlier axes lie in the box, the inverse
        # pass over axis d on the lines whose later axes lie in the box; a box
        # that spans the grid is one more input, with no line skipped
        ctx = make_bump_context(**shape)
        assert tuple(b.stop - b.start for b in ctx.box) == box
        assert ctx.full_support == (box == ctx.grid.shape)
        ctx.apply_k_support(np.ones(ctx.q_support.size))  # builds the window
        assert ctx._k_window[0].shape == window
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn"):
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, a.shape, kwargs.get("axis")))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        ctx.apply_k_support(np.ones(ctx.q_support.size))
        dim = len(window)
        forward = [("fft", box[:d] + window[d:], d) for d in reversed(range(dim))]
        inverse = [("ifft", window[:d + 1] + box[d + 1:], d) for d in reversed(range(dim))]
        assert calls == forward + inverse

    def test_full_support_k_is_bit_identical(self, sine_ctx):
        assert spans_grid(sine_ctx)
        v = np.random.default_rng(26).standard_normal(sine_ctx.grid.shape)
        np.testing.assert_array_equal(
            sine_ctx.apply_k_support(sine_ctx.restrict(v)), sine_ctx.restrict(sandwich(sine_ctx, v))
        )

    @pytest.mark.parametrize("make", [
        lambda: make_bump_context(),
        lambda: make_bump_context(n=24, p=5.0, dimension=3),
        lambda: edge_context(2, 0),
        lambda: edge_context(2, 1),
        lambda: edge_context(3, 1),
        lambda: holed_context(2),
        lambda: holed_context(3),
    ], ids=["bump_2d", "bump_3d", "edge_2d_axis0", "edge_2d_axis1", "edge_3d_axis1",
            "holed_2d", "holed_3d"])
    def test_pruned_k_is_the_window_pair(self, make):
        # the forward passes skip the window's lines outside the box, which hold
        # exact zeros, and the inverse passes the lines that reach no point of
        # the box: K is the unpruned window pair bit for bit
        ctx = make()
        assert not spans_grid(ctx)
        rng = np.random.default_rng(32)
        for _ in range(3):
            vs = rng.standard_normal(ctx.q_support.size)
            assert ctx.apply_k_support(vs).tobytes() == window_pair(ctx, vs).tobytes()

    @pytest.mark.parametrize("make", WINDOW_CONTEXTS, ids=WINDOW_IDS)
    def test_window_spectrum_is_the_whole_grid_construction(self, make):
        # sigma formed only on the rows k <= n/2 of each cut axis gives the
        # spectrum of sigma formed on the whole grid, bit for bit
        ctx = make()
        assert ctx._k_window[0].tobytes() == whole_grid_window(ctx).tobytes()

    @pytest.mark.parametrize("make", WINDOW_CONTEXTS, ids=WINDOW_IDS)
    def test_support_ball_is_the_whole_grid_formula(self, make):
        # the centroid's sums run over the whole grid in numpy's pairwise order
        ctx = make()
        q = ctx.q.copy()
        centroid = np.array([float((q * xa).sum() / q.sum()) for xa in ctx.grid.open_mesh()])
        dist2 = sum((x - c) ** 2 for x, c in zip(full_mesh(ctx.grid), centroid))
        got_centroid, got_radius = ctx.support_ball
        assert got_centroid.tobytes() == centroid.tobytes()
        assert got_radius == float(np.sqrt(dist2[q > 0.0].max()))
        assert ctx.q.tobytes() == q.tobytes()  # Q itself is left as it was

    def test_spanning_box_with_zeros_is_the_whole_grid_pair(self):
        # Q vanishes near the corners, but the box spans the grid: the window is
        # the grid, K is the plain whole-grid complex pair and R the plain real
        # pair, bit for bit
        ctx = make_spanning_bump_context()
        assert spans_grid(ctx) and ctx.q_support.size == 2099 and ctx.grid.size == 2304
        assert ctx._k_window[0].shape == ctx.grid.shape
        v = np.random.default_rng(33).standard_normal(ctx.grid.shape)
        vs = ctx.restrict(v)
        assert ctx.apply_k_support(vs).tobytes() == ctx.restrict(sandwich(ctx, v)).tobytes()
        assert_resolvent(ctx, ctx.resolvent_array(vs), v)

    def test_pruned_dual_to_primal_is_bit_identical(self):
        ctx = make_bump_context()
        v = np.random.default_rng(27).standard_normal(ctx.grid.shape)
        assert_resolvent(ctx, ctx.dual_to_primal(Field(ctx.grid, v)).values, v)

    @pytest.mark.parametrize("make", [
        lambda: make_bump_context(),
        lambda: make_bump_context(n=16, L=8.0, dimension=3, p=5.0),
        lambda: make_sine_context(n=48),
    ], ids=["compact_2d", "compact_3d", "full_2d"])
    def test_weighted_resolvent_is_bit_identical(self, make):
        # R(Q^{1/p} v) of the support vector v, as dual_to_primal and the snap take
        # it: Q^{1/p} v scattered from the support into the box's lines, and a
        # half spectrum pruned to the box
        ctx = make()
        v = np.random.default_rng(28).standard_normal(ctx.grid.shape)
        assert_resolvent(ctx, ctx.resolvent_array(ctx.restrict(v)), v)
        assert_resolvent(ctx, ctx.dual_to_primal(Field(ctx.grid, v)).values, v)

    @pytest.mark.parametrize("kind", ["bump", "sine"])
    def test_k_results_do_not_alias(self, kind, sine_ctx):
        ctx = make_bump_context() if kind == "bump" else sine_ctx
        rng = np.random.default_rng(28)
        first = ctx.apply_k_support(rng.standard_normal(ctx.q_support.size))
        kept = first.copy()
        ctx.apply_k_support(rng.standard_normal(ctx.q_support.size))
        np.testing.assert_array_equal(first, kept)

    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "not_periodic"])
    def test_full_support_context_holds_q_support_and_a_mask(self, periodic):
        # traced in grid arrays of 8 grid.size bytes, with Q built before the trace:
        # q_S (1) and the support's mask on its box (1/8), and at the peak also
        # the grid's mask (1/8) or the periodicity check's roll: no index array
        grid = GridSpec(dimension=3, box_length=6.0, points_per_axis=48)
        q = Field(grid, sine_product(grid))
        FunctionalContext(q, 5.0, periodic=periodic)  # imports, outside the trace
        unit = 8 * grid.size
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            ctx = FunctionalContext(q, 5.0, periodic=periodic)
            retained, peak = (m - entry for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert ctx.full_support and ctx.support.shape == grid.shape
        assert peak <= 1.5 * unit
        assert retained <= 1.2 * unit

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
        for s in (2.0, 3.0):
            assert battery.scaling_defect(sine_ctx, v, s) <= battery.IDENTITY_TOL

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


class TestNehariEnergy:
    def test_matches_projected_energy(self, sine_ctx):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_field(sine_ctx, rng)
            if sine_ctx.quadratic_form(v) > 0:
                assert battery.fibering_defect(sine_ctx, v) <= battery.IDENTITY_TOL


class TestRealPair:
    """`_real_pair` is numpy's `irfftn(symbol * rfftn(s))` bit for bit, with the
    symbol taken and the `irfft` run one block of axis-0 rows at a time: the
    slices of `kernel.row_slices` at a row of the half spectrum."""

    @pytest.mark.parametrize("blocks", ["default", "five"])
    @pytest.mark.parametrize("support", ["full", "compact"])
    @pytest.mark.parametrize("dimension, n", [(2, 48), (2, 96), (3, 32), (3, 64)])
    def test_is_numpys_real_pair(self, dimension, n, support, blocks, monkeypatch):
        shape = (n,) * dimension
        half_shape = shape[:-1] + (n // 2 + 1,)
        row_bytes = 16 * math.prod(half_shape[1:])
        if blocks == "five":
            # a budget of ceil(n/5) rows: five blocks, the last one shorter at every n here
            monkeypatch.setattr(kernel, "BLOCK_BYTES", row_bytes * -(-n // 5))
        rng = np.random.default_rng(n + dimension)
        if support == "full":
            box = tuple(slice(0, n) for _ in shape)
        else:
            box = tuple(slice(n // 4 + a, n // 2 + 3 * a) for a in range(dimension))
        s = np.zeros(shape)
        s[box] = rng.standard_normal(s[box].shape)
        symbol = rng.standard_normal(half_shape)
        taken = []

        def symbol_rows(rows):
            taken.append(rows)
            return symbol[rows]

        got = dual_functional._real_pair(s[box[:-1]], box, shape, symbol_rows)
        axes = tuple(range(dimension))
        want = np.fft.irfftn(symbol * np.fft.rfftn(s), s=shape, axes=axes)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        # the result lives in the half spectrum's own memory
        assert got.base.shape == half_shape and got.base.dtype == complex
        assert taken == kernel.row_slices(n, row_bytes)
        if blocks == "five":
            sizes = [len(range(n)[rows]) for rows in taken]
            assert len(sizes) == 5 and sizes[-1] < sizes[0]
        else:
            # blocks within BLOCK_BYTES of the half spectrum, one block for a 2d grid here
            assert max(rows.stop - rows.start for rows in taken) * row_bytes <= kernel.BLOCK_BYTES
            assert (len(taken) == 1) == (dimension == 2)

    @pytest.mark.parametrize("blocks", ["default", "five"])
    @pytest.mark.parametrize("dimension, n", [(2, 48), (2, 96), (3, 32), (3, 64)])
    def test_in_place_is_the_real_pair(self, dimension, n, blocks, monkeypatch):
        # u in the first bytes of its own half spectrum, transformed there a
        # block of rows at a time from the last block: the whole-grid real pair
        # bit for bit, in the same bytes
        shape = (n,) * dimension
        half_shape = shape[:-1] + (n // 2 + 1,)
        if blocks == "five":
            monkeypatch.setattr(kernel, "BLOCK_BYTES", 16 * math.prod(half_shape[1:]) * -(-n // 5))
        rng = np.random.default_rng(n + dimension)
        u = rng.standard_normal(shape)
        symbol = rng.standard_normal(half_shape)
        full = tuple(slice(0, n) for _ in shape)
        want = dual_functional._real_pair(u, full, shape, lambda rows: symbol[rows])
        half = dual_functional._half_spectrum(shape)
        dual_functional._real_view(half, shape)[...] = u
        got = dual_functional._real_pair_in_place(half, shape, lambda rows: symbol[rows])
        assert got.tobytes() == want.tobytes()
        assert got.base is half

    def test_full_support_symbol_is_a_view_of_the_window(self, sine_ctx):
        kernel = sine_ctx._k_window[0]
        assert np.shares_memory(sine_ctx.half_sigma(slice(3, 9)), kernel)
        assert sine_ctx.half_sigma(slice(3, 9)).tobytes() == sine_ctx.half_sigma()[3:9].tobytes()

    def test_compact_symbol_rows_are_slices_of_the_half_symbol(self):
        ctx = make_bump_context(n=16, L=8.0, dimension=3, p=5.0)
        assert ctx.half_sigma().shape == (16, 16, 9)
        assert ctx.half_sigma(slice(4, 7)).tobytes() == ctx.half_sigma()[4:7].tobytes()


class TestProlong:
    """`prolong` interpolates a grid array onto the grid of twice the points
    per axis by zero-padding its spectrum, the coarse Nyquist lines split."""

    @pytest.mark.parametrize("shape", [(8, 8), (24, 24), (6, 6, 6), (12, 12, 12)])
    def test_exact_at_the_coarse_points(self, shape):
        # white noise fills every coarse frequency, the Nyquist lines included
        coarse = np.random.default_rng(sum(shape)).standard_normal(shape)
        fine = dual_functional.prolong(coarse, tuple(2 * m for m in shape))
        assert fine.shape == tuple(2 * m for m in shape) and fine.dtype == np.float64
        np.testing.assert_allclose(fine[(slice(None, None, 2),) * len(shape)], coarse, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(16, 16), (48, 48), (12, 12, 12)])
    def test_reproduces_a_band_limited_field(self, shape):
        # a real field with no frequency |k_d| >= m/2 on the fine grid comes back
        # from its even points on every fine point
        n = shape[0]
        rng = np.random.default_rng(n)
        band = np.abs(np.fft.fftfreq(n, 1.0 / n)) < n // 4
        half = dual_functional._half_spectrum(shape)
        low = np.ix_(*[np.flatnonzero(band)] * (len(shape) - 1), np.arange(n // 4))
        half[low] = rng.standard_normal(half[low].shape) + 1j * rng.standard_normal(half[low].shape)
        field = np.fft.irfftn(half, s=shape, axes=tuple(range(len(shape))))
        even = field[(slice(None, None, 2),) * len(shape)]
        scale = np.abs(field).max()
        np.testing.assert_allclose(dual_functional.prolong(even, shape), field, rtol=0, atol=1e-13 * scale)

    def test_nyquist_line_is_split(self):
        # the coarse Nyquist mode cos(pi x / H), H the coarse spacing, alternates
        # in sign; its interpolant is the same cosine, which vanishes at the odd
        # fine points, midway between the coarse ones
        coarse = np.cos(np.pi * np.arange(8))[:, None] * np.ones((8, 8))
        for values in (coarse, coarse.T):
            fine = dual_functional.prolong(values, (16, 16))
            np.testing.assert_allclose(fine[::2, ::2], values, rtol=0, atol=1e-15)
            assert np.abs(fine[1::2, 1::2]).max() < 1e-15


class TestDualToPrimal:
    def test_eigenmode(self, const_ctx):
        v = mode_field(const_ctx.grid, (1, 0))
        u = const_ctx.dual_to_primal(v)
        assert np.max(np.abs(u.values - v.values)) < 5e-14

    def test_zero(self, const_ctx):
        zero = Field(const_ctx.grid, np.zeros(const_ctx.grid.shape))
        assert np.max(np.abs(const_ctx.dual_to_primal(zero).values)) == 0.0

    @pytest.mark.parametrize("kind", ["bump_3d", "sine"])
    def test_contiguous_real_result(self, kind, sine_ctx):
        # a float64 array in the memory of its own half spectrum, shared with no
        # other call, and the values of the unpruned real pair bit for bit
        ctx = make_bump_context(n=16, L=8.0, dimension=3, p=5.0) if kind == "bump_3d" else sine_ctx
        shape = ctx.grid.shape
        v = random_field(ctx, np.random.default_rng(29)).values
        results = (ctx.resolvent_array(ctx.restrict(v)), ctx.dual_to_primal(Field(ctx.grid, v)).values)
        for got in results:
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.base.dtype == complex and got.base.base is None
            assert got.base.shape == shape[:-1] + (shape[-1] // 2 + 1,)
            assert_resolvent(ctx, got, v)
        assert not np.shares_memory(*results)

    def test_transform_identity(self, sine_ctx):
        v = random_field(sine_ctx, np.random.default_rng(9))
        assert battery.transform_identity_error(sine_ctx, v) <= battery.IDENTITY_TOL


class TestPrimalResidual:
    @pytest.mark.parametrize("make", [
        lambda: make_bump_context(n=32),
        lambda: make_bump_context(n=32, L=16.0, dimension=3, p=5.0, radius=1.6, eps=1.0),
        lambda: make_sine_context(n=48),
    ], ids=["compact_2d", "compact_3d", "full_2d"])
    def test_support_check_is_the_public_check(self, make):
        # the check of R(Q^{1/p} v) in u's own half spectrum is the check of a
        # copy of u, and the public check leaves its field as it was
        ctx = make()
        vs = np.random.default_rng(40).standard_normal(ctx.q_support.size)
        u = ctx.dual_to_primal(Field(ctx.grid, ctx.extend(vs)))
        before = u.values.tobytes()
        assert ctx.primal_residual_support(vs) == ctx.primal_residual(u)
        assert u.values.tobytes() == before

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
        vals = np.cos(2.0 * np.pi * full_mesh(ctx.grid)[0] / ctx.grid.box_length)
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
    def test_matches_whole_grid_formula(self, make):
        # the reference: a complex FFT pair and three whole-grid norms; the real
        # pair and the sums split at the support round differently, by design
        ctx = make()
        pc, p = ctx.exponents.p_conj, ctx.exponents.p
        rng = np.random.default_rng(4)
        for u in (random_field(ctx, rng), ctx.dual_to_primal(random_field(ctx, rng))):
            spec = np.fft.fftn(u.values) * (ctx.grid.k_squared - 1.0)
            lhs = np.fft.ifftn(spec).real
            rhs = ctx.q * odd_power(u.values, p - 1.0)
            want = ctx.lp_norm(lhs - rhs, pc) / (ctx.lp_norm(lhs, pc) + ctx.lp_norm(rhs, pc))
            assert abs(ctx.primal_residual(u) - want) <= 1e-13 * want

    def test_regularized_record_meets_its_own_equation(self):
        # with eps > 0 the run inverts s + eps^2/s, not s = |k|^2 - 1: the record's
        # primal residual is at the level of its dual residual, not O(eps)
        ctx = make_bump_context(n=32, L=16.0, dimension=3, p=5.0, radius=1.6, eps=1.0)
        cfg = DescentConfig(multistart_count=2, rng_seed=12345)
        records = multistart_search(ctx, cfg).records
        assert records
        for rec in records:
            assert rec.dual_residual <= cfg.tol_residual
            assert rec.primal_residual <= 2.0 * rec.dual_residual
        # against -Delta - 1 the same field is off by O(eps)
        u = primal_field(ctx, records[0]).values
        spec = np.fft.fftn(u) * (ctx.grid.k_squared - 1.0)
        lhs = np.fft.ifftn(spec).real
        rhs = ctx.q * odd_power(u, ctx.exponents.p - 1.0)
        pc = ctx.exponents.p_conj
        assert ctx.lp_norm(lhs - rhs, pc) / (ctx.lp_norm(lhs, pc) + ctx.lp_norm(rhs, pc)) > 1e-2

    def test_compact_support_makes_no_complex_transform(self, monkeypatch):
        # (-Delta - 1) u is one real pair: one rfft, one irfft, and every complex
        # pass between them on the half spectrum; nothing complex of grid size
        ctx = make_bump_context(n=16, L=8.0, dimension=3, p=5.0)
        assert not spans_grid(ctx)
        u = ctx.dual_to_primal(random_field(ctx, np.random.default_rng(5)))
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            def spy(a, *args, _name=name, _call=getattr(np.fft, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _call(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, spy)
        assert ctx.primal_residual(u) > 0.0
        names = [name for name, _ in calls]
        assert names[0] == "rfft" and names[-1] == "irfft"
        assert names.count("rfft") == names.count("irfft") == 1
        half = ctx.grid.shape[:-1] + (ctx.grid.points_per_axis // 2 + 1,)
        assert set(names[1:-1]) <= {"fft", "ifft"}
        assert all(shape == half for _, shape in calls[1:])


class TestReverseHoelder:
    @staticmethod
    def one_shot(pc, a, b):
        lhs = (a ** (pc - 1.0) - b ** (pc - 1.0)) * (a - b)
        rhs = (pc - 1.0) * (a - b) ** 2 * (a + b) ** (pc - 2.0)
        return float((lhs - rhs).min())

    @pytest.mark.parametrize("length", [
        1, battery.SAMPLE_CHUNK - 1, battery.SAMPLE_CHUNK, 3 * battery.SAMPLE_CHUNK + 17, 100_000,
    ])
    def test_chunked_slack_is_the_one_shot_minimum(self, length):
        pc = 7.0 / 6.0
        rng = np.random.default_rng(length)
        a, b = rng.uniform(1e-3, 1e3, size=(2, length))
        assert battery.reverse_hoelder_slack(pc, a, b) == self.one_shot(pc, a, b)
        # a = b has slack 0, below every other sample's: the last chunk is taken
        a[-1] = b[-1]
        assert battery.reverse_hoelder_slack(pc, a, b) == self.one_shot(pc, a, b) == 0.0

    def test_suite_keeps_its_temporaries_chunk_sized(self):
        # the two 100,000-sample draws are 1.6 MB; every temporary is one chunk
        battery.check_reverse_hoelder()  # imports, outside the trace
        (ok, _), peak = traced_peak(battery.check_reverse_hoelder)
        assert ok
        assert peak <= 2.5 * 2 ** 20


class TestMountainPassGeometry:
    def test_small_sphere_positive(self, sine_ctx):
        rng = np.random.default_rng(13)
        for _ in range(10):
            assert battery.sphere_energy(sine_ctx, random_field(sine_ctx, rng), 0.1) > 0.0

    def test_large_scale_negative_on_positive_span(self, sine_ctx):
        span = mode_field(sine_ctx.grid, (1, 0)) + mode_field(sine_ctx.grid, (0, 1), "sin")
        assert battery.far_energy(sine_ctx, span) <= 0.0
