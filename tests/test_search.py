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
    MaxIterationsError,
    NotInUPlusError,
    build_asymptotic_coefficient,
    find_critical_point,
    initial_field,
    multistart_search,
    orbit_distance,
    ps_boundedness_check,
)
from helmdual.search import KREFRESH, SNAP_AFTER, _AndersonWindow, _project_scored
from conftest import make_bump_context, make_sine_context, random_field

MINI_CFG = DescentConfig(multistart_count=5, rng_seed=20240601, max_iters=1500)


def _bumped_sine_context(center):
    """mini_ctx's sine Q plus compare's bump at center: full support, not periodic."""
    ctx = make_sine_context(n=48)
    pair = build_asymptotic_coefficient(ctx.coefficient, BumpDescriptor(center, 1.2, 0.3))
    return FunctionalContext(ctx.grid, ctx.exponents, pair.coefficient)


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
    if ctx.coefficient.periodic:
        center = rng.uniform(0.0, L, size=dim)
        width = max(L / 7.0, 3.0 * grid.spacing)
    else:
        q = ctx.coefficient.field.values
        mesh = grid.coordinate_mesh()
        total = q.sum()
        centroid = np.array([float((q * m).sum() / total) for m in mesh])
        dist2 = sum((m - c) ** 2 for m, c in zip(mesh, centroid))
        support_radius = float(np.sqrt(dist2[q > 0].max()))
        center = centroid + rng.normal(scale=L / 32.0, size=dim)
        width = max(support_radius / 2.0, 3.0 * grid.spacing)
    mesh = grid.coordinate_mesh()
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
    ], ids=["periodic_2d", "compact_2d", "compact_3d"])
    def test_bit_identical_to_mesh_formula(self, make):
        # on the support's box (the grid, for full support) the values are the
        # mesh formula's bit for bit, and the field is zero outside the box
        ctx = make()
        box = ctx.box or (slice(None),) * ctx.grid.dimension
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
        assert ctx.box is not None
        shapes = []
        for name in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn"):
            def spy(a, *args, _call=getattr(np.fft, name), **kwargs):
                shapes.append(np.shape(a))
                return _call(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, spy)
        initial_field(ctx, np.random.default_rng(0))
        assert len(shapes) == ctx.grid.dimension  # one 1-d pass per axis
        assert all(np.prod(shape) < ctx.grid.size for shape in shapes)


class TestWithinOrbitOnSupport:
    @pytest.mark.parametrize("make", [
        lambda: make_bump_context(n=32),
        lambda: make_bump_context(n=16, L=8.0, dimension=3, p=5.0),
    ], ids=["compact_2d", "compact_3d"])
    def test_agrees_with_whole_grid_formula(self, make):
        # a Q that is not unit-periodic has the identity as its only shift;
        # the test on support vectors must decide as the grid's exact formula does
        ctx = make()
        assert ctx.box is not None and not search.unit_periodic(ctx)
        pc = ctx.exponents.p_conj
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = Field(ctx.grid, ctx.extend(rng.standard_normal(ctx.support.size)))
            noise = ctx.extend(rng.standard_normal(ctx.support.size)) * 10.0 ** rng.uniform(-3.0, 0.5)
            for sign in (1.0, -1.0):
                w = Field(ctx.grid, sign * v.values + noise)
                exact = min(ctx.lp_norm(v.values - s * w.values, pc) for s in (1.0, -1.0))
                for factor in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0):
                    radius = factor * exact
                    assert search._within_orbit(ctx, v, w, radius) == (exact <= radius)


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

    def test_monotone_energy_along_descent(self, mini_result):
        for rec in mini_result.records:
            diffs = np.diff(rec.j_values)
            assert diffs.max(initial=-np.inf) <= 1e-12

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
            assert rec.primal_residual <= 1e-6
            assert rec.iterations <= MINI_CFG.max_iters
            assert rec.j_values.shape == rec.grad_norms.shape == rec.v_norms.shape
            assert len(rec.v_norms) >= 1

    def test_compact_coefficient_solution_lives_on_support(self):
        ctx = make_bump_context()
        cfg = DescentConfig(multistart_count=1, max_iters=1500)
        v0 = initial_field(ctx, np.random.default_rng(11))
        assert np.any(v0.values[ctx.coefficient.field.values == 0.0])
        rec = find_critical_point(ctx, v0, cfg)
        assert np.all(rec.v_star.values[ctx.coefficient.field.values == 0.0] == 0.0)
        assert ctx.dual_residual(rec.v_star) <= cfg.tol_residual

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
                out = out[:2] + (np.inf,) + out[3:]
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
        for f in (a, b, a, b, a, b, a):  # every difference is +-(b - a); the fifth push restarts
            window.push(zero, f, f)
        gamma = window.gamma()
        assert np.all(np.isfinite(gamma))
        # the truncated solve still gives the least-squares fit of f
        delta = np.stack([a - b, b - a, a - b], axis=1)
        expected, *_ = np.linalg.lstsq(delta, a, rcond=None)
        np.testing.assert_allclose(delta @ gamma, delta @ expected, rtol=0, atol=1e-10)
        assert all(np.all(np.isfinite(x)) for x in window.candidate())


class TestPositionLandscape:
    """The snap runs for every Q with full support, the placement only for a unit-periodic Q."""

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
            assert np.diff(rec.j_values).max() <= 1e-12

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
            assert status in ("converged", "max_iters", "not_in_u_plus")

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
        # placed records are built in the parent after the pool returns
        assert any(r.start_index == -1 for r in seq.records)
        assert [r.v_star.values.tobytes() for r in par.records] == [
            r.v_star.values.tobytes() for r in seq.records]

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
        assert ps_boundedness_check(mini_ctx, [0.0], C=1.0)

    def test_solver_trajectories(self, mini_ctx, mini_result):
        for rec in mini_result.records:
            assert ps_boundedness_check(mini_ctx, rec.v_norms, rec.bound_constant)

    def test_constructed_violation(self, mini_ctx):
        big = Field(mini_ctx.grid, np.full(mini_ctx.grid.shape, 50.0))
        assert not ps_boundedness_check(mini_ctx, [big.lp_norm(mini_ctx.exponents.p_conj)], C=1e-6)
