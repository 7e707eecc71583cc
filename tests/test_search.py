"""Descent, orbit bookkeeping, and multistart behavior at desk scale."""

import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from helmdual import dual_functional, search
from helmdual import (
    BumpDescriptor,
    DescentConfig,
    Field,
    FunctionalContext,
    GridMismatchError,
    GridSpec,
    MaxIterationsError,
    NotInUPlusError,
    build_asymptotic_coefficient,
    compare_levels,
    find_critical_point,
    grid_field,
    initial_field,
    multistart_search,
    orbit_distance,
    primal_field,
    ps_boundedness_check,
)
from helmdual import selftest as battery
from helmdual.cli import build_context
from helmdual.config import descent_config, parse_config
from helmdual.search import KREFRESH, SNAP_AFTER, _AndersonWindow, _project_scored
from conftest import (
    make_bump_context,
    make_constant_context,
    make_sine_context,
    make_spanning_bump_context,
    random_field,
    spans_grid,
)

MINI_CFG = DescentConfig(multistart_count=5, rng_seed=20240601, max_iters=1500)


def _bumped_sine_context(center):
    """mini_ctx's sine Q plus compare's bump at center: full support, not periodic."""
    ctx = make_sine_context(n=48)
    return build_asymptotic_coefficient(ctx, BumpDescriptor(center, 1.2, 0.3)).ctx


@pytest.fixture(scope="module")
def mini_ctx():
    return make_sine_context(n=48)


@pytest.fixture(scope="module")
def mini_result(mini_ctx):
    return multistart_search(mini_ctx, MINI_CFG)


def mesh_initial_field(ctx, rng):
    """initial_field as it was written over coordinate meshes: the bit-for-bit reference."""
    grid = ctx.grid
    n, L, dim = grid.points_per_axis, grid.box_length, grid.dimension
    if ctx.periodic:
        center = rng.uniform(0.0, L, size=dim)
        width = max(L / 7.0, 3.0 * grid.spacing)
    else:
        q = ctx.q
        mesh = grid.open_mesh()
        total = q.sum()
        centroid = np.array([float((q * m).sum() / total) for m in mesh])
        dist2 = sum((m - c) ** 2 for m, c in zip(mesh, centroid))
        support_radius = float(np.sqrt(dist2[q > 0].max()))
        center = centroid + rng.normal(scale=L / 32.0, size=dim)
        width = max(support_radius / 2.0, 3.0 * grid.spacing)
    mesh = grid.open_mesh()
    dist2 = np.zeros(grid.shape)
    for axis in range(dim):
        d = np.abs(mesh[axis] - center[axis])
        d = np.minimum(d, L - d)
        dist2 = dist2 + d ** 2
    envelope = np.exp(-dist2 / (2.0 * width ** 2))
    spectrum = np.zeros(grid.shape, dtype=complex)
    modes = [m for m in itertools.product(range(-3, 4), repeat=dim) if any(m) and m > tuple(-x for x in m)]
    for (a, b), m in zip(rng.normal(size=(len(modes), 2)), modes):
        spectrum[tuple(mi % n for mi in m)] = a - 1j * b
        spectrum[tuple((-mi) % n for mi in m)] = a + 1j * b
    return envelope * (np.fft.ifftn(spectrum).real * grid.size)


class TestInitialField:
    @pytest.mark.parametrize("make", [
        lambda: make_sine_context(n=48),
        lambda: make_bump_context(n=32),
        lambda: make_bump_context(n=24, L=8.0, dimension=3, p=5.0),
        lambda: make_sine_context(n=6),  # modes 3 and -3 share a row: the later one stays
    ], ids=["periodic_2d", "compact_2d", "compact_3d", "aliased_rows"])
    def test_bit_identical_to_mesh_formula(self, make):
        # on the support's box (the grid, for full support) the values are the
        # mesh formula's bit for bit, and the field is zero outside the box
        ctx = make()
        box = ctx.box
        for seed in range(3):
            got = initial_field(ctx, np.random.default_rng(seed)).values
            want = mesh_initial_field(ctx, np.random.default_rng(seed))
            assert got[box].tobytes() == want[box].tobytes()
            outside = got.copy()
            outside[box] = 0.0
            assert not np.any(outside)

    @pytest.mark.parametrize("make", [
        lambda: make_bump_context(n=32),
        lambda: make_bump_context(n=24, L=8.0, dimension=3, p=5.0),
    ], ids=["compact_2d", "compact_3d"])
    def test_compact_support_transforms_no_grid_array(self, make, monkeypatch):
        # the pruned inverse transform touches mode rows and box slices only
        ctx = make()
        assert not spans_grid(ctx)
        shapes = []
        for name in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn"):
            def spy(a, *args, _call=getattr(np.fft, name), **kwargs):
                shapes.append(np.shape(a))
                return _call(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, spy)
        initial_field(ctx, np.random.default_rng(0))
        assert len(shapes) == ctx.grid.dimension  # one 1-d pass per axis
        assert all(np.prod(shape) < ctx.grid.size for shape in shapes)

    def test_support_ball_taken_once_per_context(self, monkeypatch):
        # the centroid's whole-grid products over the open mesh run on the first start only
        ctx = make_bump_context(n=24, L=8.0, dimension=3, p=5.0)
        meshes = []

        def spy(grid, _call=GridSpec.open_mesh):
            meshes.append(grid)
            return _call(grid)

        monkeypatch.setattr(GridSpec, "open_mesh", spy)
        first = initial_field(ctx, np.random.default_rng(0))
        second = initial_field(ctx, np.random.default_rng(0))
        assert meshes == [ctx.grid]
        assert first.values.tobytes() == second.values.tobytes()


class TestWithinOrbitOnSupport:
    @pytest.mark.parametrize("make", [
        lambda: make_bump_context(n=32),
        lambda: make_bump_context(n=16, L=8.0, dimension=3, p=5.0),
    ], ids=["compact_2d", "compact_3d"])
    def test_agrees_with_whole_grid_formula(self, make):
        # a Q that is not unit-periodic has the identity as its only shift;
        # the test on support vectors must decide as the grid's exact formula does
        ctx = make()
        assert not spans_grid(ctx) and not ctx.periodic
        pc = ctx.exponents.p_conj
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = Field(ctx.grid, ctx.extend(rng.standard_normal(ctx.q_support.size)))
            noise = ctx.extend(rng.standard_normal(ctx.q_support.size)) * 10.0 ** rng.uniform(-3.0, 0.5)
            for sign in (1.0, -1.0):
                w = Field(ctx.grid, sign * v.values + noise)
                exact = min(ctx.lp_norm(v.values - s * w.values, pc) for s in (1.0, -1.0))
                for factor in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0):
                    radius = factor * exact
                    on_support = ctx.restrict(v.values), ctx.restrict(w.values)
                    assert (search._within_orbit(ctx, *on_support, radius) <= radius) == (exact <= radius)


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
        rerun = find_critical_point(mini_ctx, grid_field(mini_ctx, rec), MINI_CFG)
        assert rerun.iterations == 0
        assert rerun.dual_residual <= MINI_CFG.tol_residual

    def test_monotone_energy_along_descent(self, mini_result):
        assert battery.level_increase(mini_result.records) <= battery.MONOTONE_TOL

    def test_recorded_levels_match_fresh_energy(self, monkeypatch):
        # start 4 of the reference solve takes Anderson mixes with large
        # coefficients, whose combined K image drifts from K of the mixed point.
        # It descends on the same Q declared non-periodic, with the snap turned
        # off: a snapped start settles in fewer than 2 KREFRESH steps
        ctx = make_sine_context(n=96, L=6.0, p=7.0, periodic=False)
        monkeypatch.setattr(search, "_snap", lambda ctx, v: None)
        cfg = DescentConfig(multistart_count=20, rng_seed=12345)
        seed = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.multistart_count)[4]
        v0 = initial_field(make_sine_context(n=96, L=6.0, p=7.0), np.random.default_rng(seed))
        scored = []  # (level, fresh energy) of every projected candidate, in call order
        project = search._project_scored

        def scoring(*args, **kwargs):
            out = project(*args, **kwargs)
            if out is not None:
                scored.append((out[2], ctx.nehari_energy(Field(ctx.grid, ctx.extend(out[0])))))
            return out

        monkeypatch.setattr(search, "_project_scored", scoring)
        rec = find_critical_point(ctx, v0, cfg)
        # each recorded level is the next one scored with exactly that level
        pending = iter(scored)
        accepted = [next((fresh for lev, fresh in pending if lev == level), None)
                    for level in rec.j_values]
        assert None not in accepted
        assert len(accepted) == len(rec.j_values) > 2 * KREFRESH
        for level, fresh in zip(rec.j_values, accepted):
            assert abs(level - fresh) <= 1e-10 * fresh

    def test_record_contents(self, mini_ctx, mini_result):
        for rec in mini_result.records:
            assert rec.level > 0.0
            assert rec.dual_residual <= MINI_CFG.tol_residual
            assert rec.primal_residual <= battery.PRIMAL_TOL
            assert rec.iterations <= MINI_CFG.max_iters
            assert rec.j_values.shape == rec.grad_norms.shape == rec.v_norms.shape
            assert len(rec.v_norms) >= 1

    def test_compact_coefficient_solution_lives_on_support(self):
        ctx = make_bump_context()
        cfg = DescentConfig(multistart_count=1, max_iters=1500)
        v0 = initial_field(ctx, np.random.default_rng(11))
        assert np.any(v0.values[ctx.q == 0.0])
        rec = find_critical_point(ctx, v0, cfg)
        # the descent returns its support vector; the primal check comes with
        # finishing, and the grid fields of v and u are built on demand
        assert rec.v.shape == ctx.q_support.shape
        assert rec.primal_residual is None
        assert primal_field(ctx, rec).values.tobytes() == ctx.resolvent_array(rec.v).tobytes()
        values = grid_field(ctx, rec).values
        assert np.all(values[ctx.q == 0.0] == 0.0)
        assert ctx.dual_residual_arrays(values, ctx.apply_k_array(values)) <= cfg.tol_residual

    def test_dual_to_primal_residual_chain(self, mini_result):
        # small dual residual forces a small primal residual; the recorded
        # proportionality constant for this configuration is 1e2, with a
        # 1e-12 floor where the primal residual bottoms out on rounding
        for rec in mini_result.records:
            assert rec.primal_residual <= 1e2 * max(rec.dual_residual, 1e-12)


class TestStallExit:
    """The typed exit when no candidate passes the gate.

    Every projection after a start's seed reports a level of +inf.  On step 1
    the window holds one image and there is no previous iterate, so only the
    projected Picard image is scored, and it fails the gate.
    """

    @staticmethod
    def _stall(monkeypatch, stalled_start):
        project, find = search._project_scored, search.find_critical_point
        state = {"start": -1, "calls": 0}

        def counted_find(*args, **kwargs):
            state["start"] += 1
            state["calls"] = 0
            return find(*args, **kwargs)

        def no_descent(*args, **kwargs):
            out = project(*args, **kwargs)
            state["calls"] += 1
            if out is not None and state["calls"] > 1 and state["start"] == stalled_start:
                out = out._replace(level=np.inf)
            return out

        monkeypatch.setattr(search, "find_critical_point", counted_find)
        monkeypatch.setattr(search, "_project_scored", no_descent)
        return state

    def test_find_critical_point_raises(self, mini_ctx, monkeypatch):
        state = self._stall(monkeypatch, stalled_start=0)
        v0 = initial_field(mini_ctx, np.random.default_rng(3))
        with pytest.raises(MaxIterationsError, match="line search stalled") as err:
            search.find_critical_point(mini_ctx, v0, MINI_CFG)
        assert err.value.iterations == 0
        assert state["calls"] == 2  # the seed's projection and the Picard image

    def test_multistart_reports_max_iters(self, mini_ctx, mini_result, monkeypatch):
        self._stall(monkeypatch, stalled_start=0)
        result = multistart_search(mini_ctx, replace(MINI_CFG, multistart_count=2))
        status, detail = result.outcomes[0]
        assert status == "max_iters"
        assert detail.startswith("line search stalled")
        # the other start is untouched
        assert result.outcomes[1] == mini_result.outcomes[1] == ("converged", "")


class TestLadder:
    """The order of the step ladder: the snap, the Anderson mix, the heavy ball, the Picard step."""

    RUNGS = ("_snap_rung", "_anderson_rung", "_heavy_ball_rung", "_picard_rung")

    def test_rung_order(self, mini_ctx, monkeypatch):
        # mini_ctx's Q declared non-periodic: its snap searches the whole box
        ctx = make_sine_context(n=48, periodic=False)
        calls = []  # (step, rung, accepted, projections made inside the rung)
        scored = [0]
        project = search._project_scored

        def counted_project(*args, **kwargs):
            scored[0] += 1
            return project(*args, **kwargs)

        def spy(name, rung):
            def wrapper(*args):
                step = sum(accepted for _, _, accepted, _ in calls)
                before = scored[0]
                out = rung(*args)
                calls.append((step, name, out is not None, scored[0] - before))
                return out
            return wrapper

        for name in self.RUNGS:
            monkeypatch.setattr(search, name, spy(name, getattr(search, name)))
        monkeypatch.setattr(search, "_project_scored", counted_project)
        v0 = initial_field(mini_ctx, np.random.default_rng(MINI_CFG.rng_seed))
        rec = find_critical_point(ctx, v0, MINI_CFG)

        assert [(step, accepted) for step, name, accepted, _ in calls if name == "_snap_rung"] == [
            (SNAP_AFTER, True)]
        assert sum(accepted for _, _, accepted, _ in calls) == rec.iterations
        for k in range(rec.iterations):
            step = [(name, accepted, made) for at, name, accepted, made in calls if at == k]
            names = [name for name, _, _ in step]
            if k == SNAP_AFTER:
                assert names == ["_snap_rung"]
                continue
            # a rung is tried only when the rungs before it failed, and the last one tried passes
            assert names == list(self.RUNGS[1:1 + len(names)])
            assert [accepted for _, accepted, _ in step] == [False] * (len(names) - 1) + [True]
        # on the first step and the step after the snap the window holds one image, so
        # nothing is mixed, and the heavy ball has no previous point: it is skipped
        for rung in ("_anderson_rung", "_heavy_ball_rung"):
            assert [at for at, name, _, made in calls if name == rung and not made] == [0, SNAP_AFTER + 1]
        accepted = Counter(name for _, name, ok, _ in calls if ok)
        assert accepted["_heavy_ball_rung"] > 0 and accepted["_picard_rung"] > 0


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
            assert res == pytest.approx(ctx.dual_residual_arrays(v, ctx.apply_k_array(v)), rel=1e-12, abs=0)
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
        # a descent step makes one odd_power call and one K (the Picard image, or
        # the profile and the placement of the snap); candidates are scored by
        # _project_scored from cached images, and dual_residual_arrays is reached
        # only on the cached-image refresh and termination paths.  The descent
        # runs on mini_ctx's Q declared non-periodic: its snap searches the whole
        # box, and it still takes more than 2 KREFRESH steps
        ctx = make_sine_context(n=48, periodic=False)
        counts = Counter()
        mixes = []
        power, residual = dual_functional.odd_power, FunctionalContext.dual_residual_arrays
        apply_k, candidate = FunctionalContext.apply_k_support, _AndersonWindow.candidate

        def counted_k(self, vs):
            counts["K"] += 1
            if mixes and vs is mixes[-1]:
                counts["rescore"] += 1
            return apply_k(self, vs)

        def kept_candidate(self):
            mixed = candidate(self)
            if mixed is not None:
                mixes[:] = [mixed[0]]
            return mixed

        def counted_power(*args):
            counts["odd_power"] += 1
            return power(*args)

        def counted_residual(*args, **kwargs):
            counts["dual_residual_arrays"] += 1
            return residual(*args, **kwargs)

        for module in (dual_functional, search):
            monkeypatch.setattr(module, "odd_power", counted_power)
        monkeypatch.setattr(FunctionalContext, "dual_residual_arrays", counted_residual)
        monkeypatch.setattr(FunctionalContext, "apply_k_support", counted_k)
        monkeypatch.setattr(_AndersonWindow, "candidate", kept_candidate)

        v0 = initial_field(mini_ctx, np.random.default_rng(MINI_CFG.rng_seed))
        rec = find_critical_point(ctx, v0, MINI_CFG)
        steps = len(rec.j_values) - 1
        refreshes = steps // KREFRESH
        assert steps > 2 * KREFRESH
        # Picard images, plus one J'(v) per refresh and J'(v), Q|u|^{p-2}u at the end
        assert counts["odd_power"] <= steps + refreshes + 2
        assert counts["dual_residual_arrays"] <= 1
        # the seed's projection, one per step (Picard image or snap placement),
        # one per refresh and per Anderson re-score, and the final check: the
        # heavy ball adds none
        assert counts["K"] == 1 + steps + refreshes + counts["rescore"] + 1


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
        for i, f in enumerate((a, b, a, b, a, b, a)):  # every difference is +-(b - a)
            window.push(zero, f, f)
            # from the third push on each difference is dependent: the window
            # restarts from the previous image, with the new difference alone
            assert window.cols == min(i, 1)
        gamma = window.gamma()
        assert np.all(np.isfinite(gamma))
        # the least-squares fit of f on the one column a - b
        delta = (a - b)[:, None]
        expected, *_ = np.linalg.lstsq(delta, a, rcond=None)
        np.testing.assert_allclose(gamma, expected, rtol=1e-12)
        assert all(np.all(np.isfinite(x)) for x in window.candidate())

    @staticmethod
    def orthonormality_defect(window):
        q = window.q[:window.cols]
        return np.linalg.norm(q @ q.T - np.eye(len(q)))

    def test_orthonormal_after_every_push(self):
        # a difference nearly in the span of the others cancels in the first
        # Gram-Schmidt pass; the DGKS test sends it through a second one
        rng = np.random.default_rng(8)
        depth, size = 4, 400
        window = _AndersonWindow(depth, size)
        zero = np.zeros(size)
        residuals, differences = [], []
        second_passes = 0
        for step in range(5 * depth):
            if len(differences) >= 2 and step % 3 == 0:
                coeffs = rng.standard_normal(len(differences))
                d = np.stack(differences, axis=1) @ coeffs + 1e-9 * rng.standard_normal(size)
                f = residuals[-1] + d
                # one classical pass alone leaves this column far from orthogonal
                q = window.q[:window.cols]
                w = d - (q @ d) @ q
                assert np.linalg.norm(w) < np.linalg.norm(d) / np.sqrt(2.0)
                assert np.linalg.norm(q @ w) > 1e-12 * np.linalg.norm(w)
                second_passes += 1
            else:
                f = 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(size)
            if window.cols == depth:
                residuals, differences = residuals[-1:], []  # the restart
            window.push(zero, f, f)
            if residuals:
                differences.append(f - residuals[-1])
            residuals.append(f)
            assert self.orthonormality_defect(window) <= 1e-12
            if differences:
                # Q R is still the matrix of differences
                delta = np.stack(differences, axis=1)
                rebuilt = window.q[:window.cols].T @ window.r[:window.cols, :window.cols]
                assert np.linalg.norm(rebuilt - delta) <= 1e-12 * np.linalg.norm(delta)
        assert second_passes >= 3

    @pytest.mark.parametrize("repeated", [False, True], ids=["full_rank", "rank_deficient"])
    def test_dependent_column_restarts_the_window(self, repeated, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal(200), rng.standard_normal(200)
        window = _AndersonWindow(3, 200)
        zero = np.zeros(200)
        for f in ((a, b, a) if repeated else rng.standard_normal((3, 200))):
            window.push(zero, f, f)
            if window.cols:
                window.gamma()
        # pushes a, b, a: the second difference a - b is minus the first, so the
        # window restarts and keeps it alone; no column is zeroed, and no mix needs lstsq
        assert window.cols == (1 if repeated else 2)
        assert np.all(np.diagonal(window.r)[:window.cols] > 0.0)
        if repeated:
            assert window.r[0, 0] == np.linalg.norm(a - b)
        assert calls == []

    def test_vanishing_difference_keeps_only_the_newest_image(self):
        # a residual repeated exactly: the zero difference restarts the window
        # with no column, so no mix is offered until the next push
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, 200))
        window = _AndersonWindow(3, 200)
        zero = np.zeros(200)
        for f in (a, b, b):
            window.push(zero, f, f)
        assert window.cols == 0 and window.candidate() is None
        window.push(zero, a, a)
        assert window.cols == 1
        assert all(np.all(np.isfinite(x)) for x in window.candidate())


class TestPositionLandscape:
    """The snap runs for every Q whose support's box spans the grid, the placement
    only for a unit-periodic Q."""

    def test_compact_coefficient_never_places(self, monkeypatch):
        shifts = []
        placed = search._placed

        def counted(ctx, profile, shift):
            shifts.append(shift)
            return placed(ctx, profile, shift)

        monkeypatch.setattr(search, "_placed", counted)
        cfg = DescentConfig(multistart_count=2, rng_seed=MINI_CFG.rng_seed, max_iters=1500)
        result = multistart_search(make_bump_context(), cfg)
        assert result.records
        assert shifts == []

    def test_levels_nonincreasing_across_snap(self, mini_ctx, monkeypatch):
        # the unit cell of the periodic Q, the whole box of the sine Q plus a bump
        # (at the box centre and off it), and no snap on a compact support
        contexts = [(mini_ctx, 1), (_bumped_sine_context((3.0, 3.0)), 1),
                    (_bumped_sine_context((4.2, 2.1)), 1), (make_bump_context(), 0)]
        snap = search._snap
        for ctx, snap_count in contexts:
            snaps = []

            def kept(*args):
                snaps.append(snap(*args))
                return snaps[-1]

            monkeypatch.setattr(search, "_snap", kept)
            v0 = initial_field(ctx, np.random.default_rng(MINI_CFG.rng_seed))
            rec = find_critical_point(ctx, v0, MINI_CFG)
            assert len(snaps) == snap_count
            if snaps:
                # the snap was accepted as step SNAP_AFTER + 1, with a strict decrease
                assert rec.j_values[SNAP_AFTER + 1] == snaps[0][2] < rec.j_values[SNAP_AFTER]
            assert battery.level_increase([rec]) <= battery.MONOTONE_TOL

    def test_spanning_box_with_zeros_snaps(self, monkeypatch):
        # Q vanishes near the corners, but its box spans the grid: each start snaps once
        ctx = make_spanning_bump_context()
        assert spans_grid(ctx) and not ctx.full_support
        snaps = []
        snap = search._snap

        def kept(*args):
            snaps.append(snap(*args))
            return snaps[-1]

        monkeypatch.setattr(search, "_snap", kept)
        for seed in range(2):
            rec = find_critical_point(ctx, initial_field(ctx, np.random.default_rng(seed)), MINI_CFG)
            assert len(snaps) == seed + 1
            assert rec.dual_residual <= MINI_CFG.tol_residual
            assert battery.level_increase([rec]) <= battery.MONOTONE_TOL

    def test_placed_records_descend_within_the_snap_budget(self, mini_ctx, mini_result):
        # the descent of every start takes each placed start to the tolerance
        # before its snap could move it
        placed = [rec for rec in mini_result.records if rec.start_index == -1]
        assert placed
        for rec in placed:
            assert rec.newton_steps == 0
            assert rec.iterations <= SNAP_AFTER
            fresh = mini_ctx.dual_residual_arrays(rec.v, mini_ctx.apply_k_support(rec.v))
            assert fresh <= MINI_CFG.tol_residual

    def test_placed_starts_out_of_budget_are_dropped(self, mini_ctx, monkeypatch):
        # two steps are too few for the placed starts off the ground orbit
        monkeypatch.setattr(search, "SNAP_AFTER", 2)
        out_of_budget = []
        descend = search.find_critical_point

        def counted(ctx, v0, cfg):
            try:
                return descend(ctx, v0, cfg)
            except MaxIterationsError:
                out_of_budget.append(cfg.max_iters)
                raise

        monkeypatch.setattr(search, "find_critical_point", counted)
        result = multistart_search(mini_ctx, MINI_CFG)
        assert out_of_budget and set(out_of_budget) == {2}
        assert result.records
        assert all(rec.start_index >= 0 for rec in result.records)

    def test_critical_shifts_of_a_cosine(self):
        # cos x + cos y on a 16-point cell: one minimum, one maximum, two saddles
        x = 2.0 * np.pi * np.arange(16) / 16
        landscape = np.cos(x)[:, None] + np.cos(x)[None, :]
        mask = search._critical_shifts(landscape)
        assert sorted(map(tuple, np.argwhere(mask).tolist())) == [(0, 0), (0, 8), (8, 0), (8, 8)]
        clusters = search._cluster_centres(mask)
        assert [centre for _, centre in clusters] == [(0, 0), (0, 8), (8, 0), (8, 8)]

    def test_cluster_centre_wraps(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[7, 0] = mask[0, 0] = mask[0, 1] = mask[3, 3] = True
        clusters = search._cluster_centres(mask)
        assert [(sorted(c), centre) for c, centre in clusters] == [
            ([(0, 0), (0, 1), (7, 0)], (0, 0)),
            ([(3, 3)], (3, 3)),
        ]


# a compact bump whose support's box is smaller than the grid: 293 of 2,304 points
COMPACT_CFG = """\
mode = solve
grid.dimension = 2
grid.box_length = 6.0
grid.points_per_axis = 48
exponents.p = 7.0
coefficient.kind = compact_bump
coefficient.center = 3.0, 3.0
coefficient.radius = 1.2
coefficient.periodic = false
descent.multistart_count = 4
seed = 3
"""


@pytest.fixture(scope="module")
def compact_run():
    cfg = parse_config(COMPACT_CFG)
    ctx = build_context(cfg)
    return ctx, multistart_search(ctx, descent_config(cfg))


class TestFinishRecords:
    """Starts return support vectors; the kept records get the primal check of u,
    and `grid_field` and `primal_field` build a record's grid fields of v and u
    on each call."""

    def test_negative_record_keeps_the_signed_zeros(self, compact_run):
        ctx, result = compact_run
        rec = result.records[0]
        assert rec.sign == -1
        off = (ctx.q == 0.0).reshape(-1)
        assert off.sum() == 2011
        # -Field(extend(v)) writes -0.0 off the support, where extend(-v) writes +0.0
        values = grid_field(ctx, rec).values.reshape(-1)
        assert np.all(values[off] == 0.0) and np.all(np.signbit(values[off]))
        assert values.tobytes() == (-Field(ctx.grid, ctx.extend(rec.v))).values.tobytes()
        # u is the sign times R of the unshifted v
        assert primal_field(ctx, rec).values.tobytes() == (-ctx.resolvent_array(rec.v)).tobytes()

    def test_periodic_u_is_the_moved_resolvent_of_v(self, mini_ctx, mini_result):
        shift_pts = mini_ctx.grid.unit_shift_points
        moved = [rec for rec in mini_result.records if any(rec.orbit_shift)]
        assert moved
        for rec in moved:
            shift = tuple(c * shift_pts for c in rec.orbit_shift)
            u = rec.sign * np.roll(mini_ctx.resolvent_array(rec.v), shift, axis=(0, 1))
            assert primal_field(mini_ctx, rec).values.tobytes() == u.tobytes()

    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "compact"])
    def test_one_primal_check_per_returned_record(self, periodic, mini_ctx, monkeypatch):
        ctx = mini_ctx if periodic else build_context(parse_config(COMPACT_CFG))
        cfg = MINI_CFG if periodic else descent_config(parse_config(COMPACT_CFG))
        checked = []
        primal = dual_functional.FunctionalContext.primal_residual_support

        def counted(self, vs):
            checked.append(vs)
            return primal(self, vs)

        monkeypatch.setattr(dual_functional.FunctionalContext, "primal_residual_support", counted)
        result = multistart_search(ctx, cfg)
        assert len(checked) == len(result.records)
        if not periodic:  # four starts converge onto one orbit
            assert [status for status, _ in result.outcomes] == ["converged"] * 4
            assert len(result.records) == 1

    def test_level_ties_break_on_the_field_bytes(self, compact_run):
        # one level, fields that differ only in the sign of their zeros off the support
        ctx, result = compact_run
        minus = replace(result.records[0])
        plus = replace(minus, v=-minus.v, sign=1)
        ordered = search._by_level(ctx, [minus, plus])
        assert grid_field(ctx, minus).values.tobytes() > grid_field(ctx, plus).values.tobytes()
        assert ordered[0] is plus and ordered[1] is minus

    def test_records_sorted_by_level_then_field_bytes(self, mini_ctx, mini_result):
        keys = [(rec.level, grid_field(mini_ctx, rec).values.tobytes()) for rec in mini_result.records]
        assert keys == sorted(keys)
        # a tie broken by the bytes: the ground record next to its translate by one
        # cell, which has its level to the bit (the run's own records no longer tie)
        ground = mini_result.records[0]
        cells = int(round(mini_ctx.grid.box_length))
        moved = replace(ground, orbit_shift=tuple((s + 1) % cells for s in ground.orbit_shift))
        ties = [(rec.level, grid_field(mini_ctx, rec).values.tobytes()) for rec in (ground, moved)]
        assert ties[0][0] == ties[1][0] and ties[0][1] != ties[1][1]
        ordered = search._by_level(mini_ctx, [moved, ground] if ties[0] < ties[1] else [ground, moved])
        assert [(rec.level, grid_field(mini_ctx, rec).values.tobytes()) for rec in ordered] == sorted(ties)


class TestOrbitDistance:
    def test_translate_is_zero(self, mini_ctx, mini_result):
        v = grid_field(mini_ctx, mini_result.records[0])
        shift = mini_ctx.grid.unit_shift_points
        w = Field(mini_ctx.grid, np.roll(v.values, shift, axis=0))
        assert orbit_distance(mini_ctx, v, w) <= 1e-12

    def test_sign_flip_is_zero(self, mini_ctx, mini_result):
        v = grid_field(mini_ctx, mini_result.records[0])
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

    def test_orbit_group_of_the_context(self, mini_ctx):
        # round(L) unit-cell shifts of n/L points for a unit-periodic Q; the
        # identity, one shift whose cell is the whole box, for any other Q
        contexts = mini_ctx, make_sine_context(n=48, periodic=False), make_constant_context()
        assert [(ctx.cells, ctx.cell_points) for ctx in contexts] == [(6, 8), (1, 48), (1, 32)]

    @pytest.mark.parametrize("make", [
        make_constant_context,                          # L = pi sqrt 2: no unit shifts
        lambda: make_sine_context(n=48, periodic=False),
    ], ids=["constant", "sine_not_periodic"])
    def test_identity_group_takes_the_signs_alone(self, make):
        # a Q that is not declared periodic has the identity as its only shift,
        # on a grid with unit shifts or without: a cell translate of v is
        # another orbit, and the distance is the minimum over the two signs
        ctx = make()
        pc = ctx.exponents.p_conj
        v = random_field(ctx, np.random.default_rng(5))
        for w in (random_field(ctx, np.random.default_rng(6)), Field(ctx.grid, np.roll(v.values, 8, axis=0))):
            assert orbit_distance(ctx, v, w) == min((v - w).lp_norm(pc), (v + w).lp_norm(pc)) > 0.0
        assert orbit_distance(ctx, v, -v) == 0.0


class TestDedupExactNorms:
    def test_no_more_exact_norms_than_the_gram_floors_allow(self, monkeypatch):
        # the dedup's pruned search takes an exact p'-norm only where the Gram
        # floor does not rule the pair out: on the reference solve and the n = 96
        # compare at seed 12345 it takes no more than the 19 and 39 of the test
        # it replaced, which stopped at the first exact norm within the radius
        taken = Counter()
        within = search._within_orbit
        norm = FunctionalContext.lp_norm

        def counted_within(*args):
            taken["open"] += 1
            try:
                return within(*args)
            finally:
                taken["open"] -= 1

        def counted_norm(self, values, q):
            taken["exact"] += taken["open"]
            return norm(self, values, q)

        monkeypatch.setattr(search, "_within_orbit", counted_within)
        monkeypatch.setattr(FunctionalContext, "lp_norm", counted_norm)
        ctx = make_sine_context(n=96)
        cfg = DescentConfig(multistart_count=20, rng_seed=12345)
        assert len(multistart_search(ctx, cfg).records) == 8
        solve = taken.pop("exact")
        pair = build_asymptotic_coefficient(ctx, BumpDescriptor(center=(3.0, 3.0), radius=1.2, amplitude=0.3))
        compare_levels(pair, cfg)
        assert solve <= 19 and taken["exact"] <= 39


class TestMultistart:
    def test_outcomes_accounted(self, mini_result):
        assert len(mini_result.outcomes) == MINI_CFG.multistart_count
        for status, _ in mini_result.outcomes:
            assert status in ("converged", "max_iters", "not_in_u_plus")

    def test_records_distinct(self, mini_ctx, mini_result):
        assert battery.orbits_distinct(mini_ctx, mini_result.records, MINI_CFG.dedup_rel_threshold)

    def test_level_estimate_is_minimum(self, mini_result):
        assert mini_result.level_estimate == min(r.level for r in mini_result.records)

    def test_deterministic_for_fixed_seed(self, mini_ctx, mini_result):
        again = multistart_search(mini_ctx, MINI_CFG)
        assert len(again.records) == len(mini_result.records)
        for a, b in zip(again.records, mini_result.records):
            assert a.level == b.level
            np.testing.assert_array_equal(grid_field(mini_ctx, a).values, grid_field(mini_ctx, b).values)

    def test_worker_count_does_not_change_results(self, mini_ctx, mini_result):
        cfg = DescentConfig(multistart_count=3, rng_seed=MINI_CFG.rng_seed,
                            max_iters=MINI_CFG.max_iters)
        seq = multistart_search(mini_ctx, cfg, workers=1)
        par = multistart_search(mini_ctx, cfg, workers=2)
        assert [r.level for r in par.records] == [r.level for r in seq.records]
        for a, b in zip(par.records, seq.records):
            np.testing.assert_array_equal(grid_field(mini_ctx, a).values, grid_field(mini_ctx, b).values)
        # placed records are built in the parent after the pool returns
        assert any(r.start_index == -1 for r in seq.records)
        assert [grid_field(mini_ctx, r).values.tobytes() for r in par.records] == [
            grid_field(mini_ctx, r).values.tobytes() for r in seq.records]

    def test_worker_count_does_not_change_compact_results(self):
        ctx = make_bump_context()
        cfg = DescentConfig(multistart_count=3, rng_seed=MINI_CFG.rng_seed,
                            max_iters=MINI_CFG.max_iters)
        seq = multistart_search(ctx, cfg, workers=1)
        par = multistart_search(ctx, cfg, workers=2)
        assert seq.records
        assert [r.level for r in par.records] == [r.level for r in seq.records]
        for a, b in zip(par.records, seq.records):
            assert grid_field(ctx, a).values.tobytes() == grid_field(ctx, b).values.tobytes()

    def test_translated_duplicates_collapse(self, mini_ctx, mini_result):
        # feeding a lattice translate back into the dedup must not create
        # a second record
        pc = mini_ctx.exponents.p_conj
        v = grid_field(mini_ctx, mini_result.records[0])
        shift = mini_ctx.grid.unit_shift_points
        w = Field(mini_ctx.grid, np.roll(v.values, (2 * shift, shift), axis=(0, 1)))
        scale = max(v.lp_norm(pc), w.lp_norm(pc))
        assert orbit_distance(mini_ctx, v, w) <= MINI_CFG.dedup_rel_threshold * scale


class TestCoarseStarts:
    """A random start on a full-support Q descends on the half grid first (`_coarse`)."""

    @pytest.mark.parametrize("make", [
        make_bump_context,                              # compact support
        make_spanning_bump_context,                     # the box spans the grid, with zeros
        lambda: make_sine_context(n=30),                # n % 4 == 2
        lambda: make_sine_context(n=30, periodic=False),
        lambda: make_sine_context(n=12, L=4.0),         # 3 points a cell: no unit shift at n/2 = 6
    ], ids=["compact", "spanning", "n_30", "n_30_not_periodic", "no_unit_shift_at_half"])
    def test_no_coarse_grid(self, make):
        assert search._coarse(make()) is None

    @pytest.mark.parametrize("periodic", [True, False])
    def test_coarse_context_samples_q_at_the_even_points(self, periodic):
        ctx = make_sine_context(n=48, periodic=periodic)
        coarse = search._coarse(ctx)
        assert coarse.grid == GridSpec(2, 6.0, 24)
        assert coarse.periodic == periodic and coarse.exponents == ctx.exponents
        assert coarse.q.tobytes() == np.ascontiguousarray(ctx.q[::2, ::2]).tobytes()

    def test_start_descends_on_both_grids(self, mini_ctx, monkeypatch):
        # the even points of the start descend on n = 24, and the prolonged
        # critical point is the start of the descent on n = 48
        find = search.find_critical_point
        calls = []

        def recorded(ctx, v0, cfg):
            calls.append((ctx.grid.points_per_axis, v0.copy()))
            return find(ctx, v0, cfg)

        monkeypatch.setattr(search, "find_critical_point", recorded)
        coarse = search._coarse(mini_ctx)
        seed = np.random.SeedSequence(MINI_CFG.rng_seed).spawn(1)[0]
        status, record = search._solve_one((mini_ctx, coarse, MINI_CFG, 0, seed))
        assert status == "converged" and record.start_index == 0
        (n_first, v_first), (n_second, v_second) = calls
        start = initial_field(mini_ctx, np.random.default_rng(seed)).values
        assert (n_first, n_second) == (24, 48)
        assert v_first.tobytes() == np.ascontiguousarray(start[::2, ::2]).reshape(-1).tobytes()
        found = find(coarse, v_first, MINI_CFG)
        assert v_second.tobytes() == dual_functional.prolong(coarse.extend(found.v), (48, 48)).reshape(-1).tobytes()
        # the record's steps are those on the run's grid
        assert record.iterations == len(record.j_values) - 1 < found.iterations

    def test_failed_coarse_descent_fails_the_start(self, mini_ctx, mini_result, monkeypatch):
        find = search.find_critical_point
        grids = []

        def first_coarse_fails(ctx, v0, cfg):
            grids.append(ctx.grid.points_per_axis)
            if grids == [24]:
                raise MaxIterationsError("no convergence on the half grid", residual=1e-3)
            return find(ctx, v0, cfg)

        monkeypatch.setattr(search, "find_critical_point", first_coarse_fails)
        result = multistart_search(mini_ctx, replace(MINI_CFG, multistart_count=2))
        assert result.outcomes[0] == ("max_iters", "no convergence on the half grid (residual=1.000e-03)")
        assert result.outcomes[1] == mini_result.outcomes[1] == ("converged", "")
        # start 0 never reaches the run's grid; start 1 descends on both
        assert grids[:3] == [24, 24, 48]

    def test_budget_exit_names_its_grid_and_residual_once(self, mini_ctx):
        # the n = 48 sine solve at seed 12345 with 40 steps: start 0 runs out
        # of steps on the half grid
        seed = np.random.SeedSequence(12345).spawn(1)[0]
        job = (mini_ctx, search._coarse(mini_ctx), DescentConfig(max_iters=40), 0, seed)
        assert search._solve_one(job) == (
            "max_iters", "no convergence within 40 iterations on the n = 24 grid (residual=3.635e-06)")

    def test_constant_q_starts_converge(self):
        # the constant-Q starts that crawled along a sub-grid translation valley
        # (4 of 10 at max_iters = 2,000 on n = 32 alone) converge from the half grid
        ctx = make_constant_context()
        result = multistart_search(ctx, DescentConfig(multistart_count=10, rng_seed=12345))
        assert result.outcomes == [("converged", "")] * 10
        assert all(rec.iterations <= DescentConfig().max_iters for rec in result.records)
        assert abs(result.level_estimate - 2.326125848803) <= 1e-9


class TestPalaisSmaleBound:
    def test_zero_iterate(self, mini_ctx):
        assert ps_boundedness_check(mini_ctx, [0.0], C=1.0)

    def test_solver_trajectories(self, mini_ctx, mini_result):
        for rec in mini_result.records:
            assert ps_boundedness_check(mini_ctx, rec.v_norms, rec.bound_constant)

    def test_constructed_violation(self, mini_ctx):
        big = Field(mini_ctx.grid, np.full(mini_ctx.grid.shape, 50.0))
        assert not ps_boundedness_check(mini_ctx, [big.lp_norm(mini_ctx.exponents.p_conj)], C=1e-6)
