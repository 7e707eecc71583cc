"""Descent, orbit bookkeeping, and multistart behavior at desk scale."""

from collections import Counter

import numpy as np
import pytest

from helmdual import dual_functional, search
from helmdual import (
    DescentConfig,
    DivergedError,
    Field,
    FunctionalContext,
    GridMismatchError,
    MaxIterationsError,
    NotInUPlusError,
    descent_direction,
    find_critical_point,
    initial_field,
    multistart_search,
    orbit_distance,
    ps_boundedness_check,
)
from helmdual.search import KREFRESH, _AndersonWindow, _project_scored
from conftest import make_bump_context, make_sine_context, random_field

MINI_CFG = DescentConfig(multistart_count=5, rng_seed=20240601, max_iters=1500)


@pytest.fixture(scope="module")
def mini_ctx():
    return make_sine_context(n=48)


@pytest.fixture(scope="module")
def mini_result(mini_ctx):
    return multistart_search(mini_ctx, MINI_CFG)


class TestDescentDirection:
    def test_zero_gradient(self, mini_ctx):
        zero = Field(mini_ctx.grid, np.zeros(mini_ctx.grid.shape))
        assert np.max(np.abs(descent_direction(mini_ctx, zero).values)) == 0.0

    def test_pairing_identity(self, mini_ctx):
        rng = np.random.default_rng(0)
        p = mini_ctx.exponents.p
        for _ in range(3):
            v = random_field(mini_ctx, rng)
            g = mini_ctx.gradient(v)
            d = descent_direction(mini_ctx, v)
            target = g.lp_norm(p) ** p
            assert abs(g.inner(d) - target) <= 1e-12 * target

    def test_norm_identity(self, mini_ctx):
        rng = np.random.default_rng(1)
        p = mini_ctx.exponents.p
        pc = mini_ctx.exponents.p_conj
        v = random_field(mini_ctx, rng)
        g = mini_ctx.gradient(v)
        d = descent_direction(mini_ctx, v)
        target = g.lp_norm(p) ** (p - 1.0)
        assert abs(d.lp_norm(pc) - target) <= 1e-12 * target


class TestFindCriticalPoint:
    def test_constant_seed_rejected(self, mini_ctx):
        c = Field(mini_ctx.grid, np.full(mini_ctx.grid.shape, 1.0))
        with pytest.raises(NotInUPlusError):
            find_critical_point(mini_ctx, c, MINI_CFG)

    def test_zero_seed_rejected(self, mini_ctx):
        zero = Field(mini_ctx.grid, np.zeros(mini_ctx.grid.shape))
        with pytest.raises(NotInUPlusError):
            find_critical_point(mini_ctx, zero, MINI_CFG)

    def test_already_critical_returns_immediately(self, mini_ctx, mini_result):
        rec = mini_result.records[0]
        rerun = find_critical_point(mini_ctx, rec.v_star, MINI_CFG)
        assert rerun.iterations == 0
        assert rerun.dual_residual <= MINI_CFG.tol_residual

    def test_divergence_floor_branch(self, mini_ctx):
        rng = np.random.default_rng(2)
        v0 = initial_field(mini_ctx, rng)
        # the constrained level is always positive, so a floor above it
        # exercises the divergence branch of the dichotomy deterministically
        cfg = DescentConfig(multistart_count=1, rng_seed=0, max_iters=50,
                            divergence_floor=1e6)
        with pytest.raises(DivergedError):
            find_critical_point(mini_ctx, v0, cfg)

    def test_monotone_energy_along_descent(self, mini_result):
        for rec in mini_result.records:
            diffs = np.diff(rec.j_values)
            assert diffs.max(initial=-np.inf) <= 1e-12

    def test_record_contents(self, mini_ctx, mini_result):
        for rec in mini_result.records:
            assert rec.level > 0.0
            assert rec.dual_residual <= MINI_CFG.tol_residual
            assert rec.primal_residual <= 1e-6
            assert rec.iterations <= MINI_CFG.max_iters
            assert len(rec.iterate_snapshots) >= 1
            assert rec.j_values.shape == rec.grad_norms.shape == rec.v_norms.shape

    def test_compact_coefficient_solution_lives_on_support(self):
        ctx = make_bump_context()
        cfg = DescentConfig(multistart_count=1, max_iters=1500)
        v0 = initial_field(ctx, np.random.default_rng(11))
        assert np.any(v0.values[ctx.coefficient.field.values == 0.0])
        rec = find_critical_point(ctx, v0, cfg)
        assert np.all(rec.v_star.values[ctx.coefficient.field.values == 0.0] == 0.0)
        assert ctx.dual_residual(rec.v_star) <= cfg.tol_residual
        for snap in rec.iterate_snapshots:
            assert snap.grid == ctx.grid

    def test_dual_to_primal_residual_chain(self, mini_result):
        # small dual residual forces a small primal residual; the recorded
        # proportionality constant for this configuration is 1e2, with a
        # 1e-12 floor where the primal residual bottoms out on rounding
        for rec in mini_result.records:
            assert rec.primal_residual <= 1e2 * max(rec.dual_residual, 1e-12)


class TestProjectScored:
    @pytest.mark.parametrize("ctx", [
        make_sine_context(n=48),
        make_sine_context(n=16, L=4.0, p=5.0, dimension=3),
    ], ids=["2d", "3d"])
    def test_matches_public_methods(self, ctx):
        rng = np.random.default_rng(8)
        p, pc = ctx.exponents.p, ctx.exponents.p_conj
        for _ in range(3):
            w = initial_field(ctx, rng)
            kw = ctx.apply_k_array(w.values)
            v, kv, level, res, grad_norm, v_norm, g = _project_scored(ctx, w.values, kw)

            t = ctx.fibering_scale(w)
            vf = Field(ctx.grid, v)
            g_ref = ctx.gradient(vf)
            np.testing.assert_allclose(v, t * w.values, rtol=1e-12, atol=0)
            np.testing.assert_allclose(kv, t * kw, rtol=1e-12, atol=0)
            assert level == pytest.approx(ctx.nehari_energy(w), rel=1e-12, abs=0)
            assert res == pytest.approx(ctx.dual_residual(vf), rel=1e-12, abs=0)
            assert grad_norm == pytest.approx(g_ref.lp_norm(p), rel=1e-12, abs=0)
            assert v_norm == pytest.approx(vf.lp_norm(pc), rel=1e-12, abs=0)
            assert np.max(np.abs(g - g_ref.values)) <= 1e-12 * np.max(np.abs(g_ref.values))

    def test_ceiling(self, mini_ctx):
        w = initial_field(mini_ctx, np.random.default_rng(10)).values
        kw = mini_ctx.apply_k_array(w)
        full = _project_scored(mini_ctx, w, kw)
        level = full[2]
        assert _project_scored(mini_ctx, w, kw, ceiling=np.nextafter(level, -np.inf)) is None
        for ceiling in (level, np.nextafter(level, np.inf)):
            capped = _project_scored(mini_ctx, w, kw, ceiling=ceiling)
            assert capped is not None
            for got, want in zip(capped, full):
                np.testing.assert_array_equal(got, want)

    def test_inputs_untouched(self, mini_ctx):
        w = initial_field(mini_ctx, np.random.default_rng(9)).values
        kw = mini_ctx.apply_k_array(w)
        w0, kw0 = w.copy(), kw.copy()
        _project_scored(mini_ctx, w, kw)
        np.testing.assert_array_equal(w, w0)
        np.testing.assert_array_equal(kw, kw0)

    def test_none_outside_u_plus(self, mini_ctx):
        zero = np.zeros(mini_ctx.grid.shape)
        assert _project_scored(mini_ctx, zero, mini_ctx.apply_k_array(zero)) is None
        const = Field(mini_ctx.grid, np.full(mini_ctx.grid.shape, 1.0))
        assert mini_ctx.quadratic_form(const) <= 0.0
        assert _project_scored(mini_ctx, const.values, mini_ctx.apply_k_array(const.values)) is None
        assert _project_scored(mini_ctx, const.values, -mini_ctx.apply_k_array(const.values)) is not None

    def test_descent_power_and_residual_calls(self, mini_ctx, monkeypatch):
        # outside the polish a descent step makes one odd_power call (the Picard
        # image); candidates are scored by _project_scored, and dual_residual_arrays
        # is reached only on the cached-image refresh and termination paths
        counts = Counter()
        phase = ["descent"]
        power, residual, polish = (dual_functional.odd_power,
                                   FunctionalContext.dual_residual_arrays, search._newton_polish)

        def counted_power(*args):
            counts[phase[0], "odd_power"] += 1
            return power(*args)

        def counted_residual(*args, **kwargs):
            counts[phase[0], "dual_residual_arrays"] += 1
            return residual(*args, **kwargs)

        def counted_polish(*args, **kwargs):
            phase[0] = "polish"
            try:
                return polish(*args, **kwargs)
            finally:
                phase[0] = "descent"

        for module in (dual_functional, search):
            monkeypatch.setattr(module, "odd_power", counted_power)
        monkeypatch.setattr(FunctionalContext, "dual_residual_arrays", counted_residual)
        monkeypatch.setattr(search, "_newton_polish", counted_polish)

        v0 = initial_field(mini_ctx, np.random.default_rng(MINI_CFG.rng_seed))
        rec = find_critical_point(mini_ctx, v0, MINI_CFG)
        steps = len(rec.j_values) - 1
        refreshes = steps // KREFRESH
        assert steps > 2 * KREFRESH
        # Picard images, plus one J'(v) per refresh and J'(v), Q|u|^{p-2}u at the end
        assert counts["descent", "odd_power"] <= steps + refreshes + 2
        assert counts["descent", "dual_residual_arrays"] <= 1


class TestAndersonWindow:
    def test_matches_explicit_lstsq_across_restarts(self):
        rng = np.random.default_rng(5)
        depth, size = 4, 300
        window = _AndersonWindow(depth, size)
        history = []  # the images pushed since the last restart
        restarts = 0
        for step in range(6 * depth):
            scale = 10.0 ** rng.uniform(-2, 2)
            v, gv, kgv = (scale * rng.standard_normal(size) for _ in range(3))
            if len(history) == depth + 1:
                history = history[-1:]  # a full window restarts from its newest image
                restarts += 1
            window.push(v, gv, kgv)
            history.append((v, gv, kgv))
            assert window.cols == len(history) - 1  # 1 column right after a restart
            if len(history) < 2:
                assert window.candidate() is None
                continue
            residuals = np.stack([g - x for x, g, _ in history], axis=1)
            delta = residuals[:, 1:] - residuals[:, :-1]
            expected, *_ = np.linalg.lstsq(delta, residuals[:, -1], rcond=None)
            gamma = window.gamma()
            assert gamma.shape == expected.shape
            assert np.linalg.norm(gamma - expected) <= 1e-10 * np.linalg.norm(expected)
            # the mixed images are the same theta-combination of the stored images
            theta = np.zeros(len(history))
            theta[-1] = 1.0
            theta[1:] -= expected
            theta[:-1] += expected
            v_cand, kv_cand = window.candidate()
            for got, column in ((v_cand, 1), (kv_cand, 2)):
                want = sum(t * entry[column] for t, entry in zip(theta, history))
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert restarts >= 3

    def test_repeated_column_stays_finite(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(200), rng.standard_normal(200)
        zero = np.zeros(200)
        window = _AndersonWindow(3, 200)
        for f in (a, b, a, b, a, b, a):  # every difference is +-(b - a); the fifth push restarts
            window.push(zero, f, f)
        gamma = window.gamma()
        assert np.all(np.isfinite(gamma))
        # the truncated solve still gives the least-squares fit of f
        delta = np.stack([a - b, b - a, a - b], axis=1)
        expected, *_ = np.linalg.lstsq(delta, a, rcond=None)
        np.testing.assert_allclose(delta @ gamma, delta @ expected, rtol=0, atol=1e-10)
        assert all(np.all(np.isfinite(x)) for x in window.candidate())

    def test_depth_zero_never_mixes(self, mini_ctx, monkeypatch):
        calls = []
        original = _AndersonWindow.gamma

        def counted(self):
            calls.append(self.cols)
            return original(self)

        monkeypatch.setattr(_AndersonWindow, "gamma", counted)
        v0 = initial_field(mini_ctx, np.random.default_rng(7))
        for depth in (0, 1):
            calls.clear()
            cfg = DescentConfig(multistart_count=1, max_iters=40, anderson_depth=depth)
            try:
                find_critical_point(mini_ctx, v0, cfg)
            except MaxIterationsError:
                pass
            if depth == 0:
                assert calls == []
            else:
                assert calls and set(calls) == {1}


class TestOrbitDistance:
    def test_translate_is_zero(self, mini_ctx, mini_result):
        v = mini_result.records[0].v_star
        shift = mini_ctx.grid.unit_shift_points
        w = Field(mini_ctx.grid, np.roll(v.values, shift, axis=0))
        assert orbit_distance(mini_ctx, v, w) <= 1e-12

    def test_sign_flip_is_zero(self, mini_ctx, mini_result):
        v = mini_result.records[0].v_star
        assert orbit_distance(mini_ctx, v, -v) <= 1e-12

    def test_symmetry(self, mini_ctx):
        rng = np.random.default_rng(3)
        v, w = random_field(mini_ctx, rng), random_field(mini_ctx, rng)
        d_vw = orbit_distance(mini_ctx, v, w)
        d_wv = orbit_distance(mini_ctx, w, v)
        assert abs(d_vw - d_wv) <= 1e-12 * max(d_vw, 1.0)

    def test_grid_guards(self, mini_ctx):
        rng = np.random.default_rng(4)
        v = random_field(mini_ctx, rng)
        other = make_sine_context(n=96)
        with pytest.raises(GridMismatchError):
            orbit_distance(mini_ctx, v, random_field(other, rng))


class TestMultistart:
    def test_outcomes_accounted(self, mini_result):
        assert len(mini_result.outcomes) == MINI_CFG.multistart_count
        for status, _ in mini_result.outcomes:
            assert status in ("converged", "max_iters", "diverged", "not_in_u_plus")

    def test_records_distinct(self, mini_ctx, mini_result):
        pc = mini_ctx.exponents.p_conj
        recs = mini_result.records
        for i, a in enumerate(recs):
            for b in recs[i + 1:]:
                scale = max(a.v_star.lp_norm(pc), b.v_star.lp_norm(pc))
                assert orbit_distance(mini_ctx, a.v_star, b.v_star) > (
                    MINI_CFG.dedup_rel_threshold * scale
                )

    def test_level_estimate_is_minimum(self, mini_result):
        assert mini_result.level_estimate == min(r.level for r in mini_result.records)

    def test_deterministic_for_fixed_seed(self, mini_ctx, mini_result):
        again = multistart_search(mini_ctx, MINI_CFG)
        assert len(again.records) == len(mini_result.records)
        for a, b in zip(again.records, mini_result.records):
            assert a.level == b.level
            np.testing.assert_array_equal(a.v_star.values, b.v_star.values)

    def test_worker_count_does_not_change_results(self, mini_ctx, mini_result):
        cfg = DescentConfig(multistart_count=3, rng_seed=MINI_CFG.rng_seed,
                            max_iters=MINI_CFG.max_iters)
        seq = multistart_search(mini_ctx, cfg, workers=1)
        par = multistart_search(mini_ctx, cfg, workers=2)
        assert [r.level for r in par.records] == [r.level for r in seq.records]
        for a, b in zip(par.records, seq.records):
            np.testing.assert_array_equal(a.v_star.values, b.v_star.values)

    def test_worker_count_does_not_change_compact_results(self):
        ctx = make_bump_context()
        cfg = DescentConfig(multistart_count=3, rng_seed=MINI_CFG.rng_seed,
                            max_iters=MINI_CFG.max_iters)
        seq = multistart_search(ctx, cfg, workers=1)
        par = multistart_search(ctx, cfg, workers=2)
        assert seq.records
        assert [r.level for r in par.records] == [r.level for r in seq.records]
        for a, b in zip(par.records, seq.records):
            assert a.v_star.values.tobytes() == b.v_star.values.tobytes()

    def test_translated_duplicates_collapse(self, mini_ctx, mini_result):
        # feeding a lattice translate back into the dedup must not create
        # a second record
        pc = mini_ctx.exponents.p_conj
        v = mini_result.records[0].v_star
        shift = mini_ctx.grid.unit_shift_points
        w = Field(mini_ctx.grid, np.roll(v.values, (2 * shift, shift), axis=(0, 1)))
        scale = max(v.lp_norm(pc), w.lp_norm(pc))
        assert orbit_distance(mini_ctx, v, w) <= MINI_CFG.dedup_rel_threshold * scale


class TestPalaisSmaleBound:
    def test_zero_iterate(self, mini_ctx):
        zero = Field(mini_ctx.grid, np.zeros(mini_ctx.grid.shape))
        assert ps_boundedness_check(mini_ctx, [zero], C=1.0)

    def test_solver_trajectories(self, mini_ctx, mini_result):
        for rec in mini_result.records:
            assert ps_boundedness_check(mini_ctx, rec.iterate_snapshots, rec.bound_constant)
            # exhaustive scalar variant over every recorded iterate norm
            pc = mini_ctx.exponents.p_conj
            bound = max(1.0, rec.bound_constant / (1.0 / pc - 0.5))
            assert np.all(rec.v_norms ** (pc - 1.0) <= bound)

    def test_constructed_violation(self, mini_ctx):
        big = Field(mini_ctx.grid, np.full(mini_ctx.grid.shape, 50.0))
        assert not ps_boundedness_check(mini_ctx, [big], C=1e-6)
