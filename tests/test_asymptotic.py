"""Perturbed-coefficient construction and transplant identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helmdual import (
    BumpDescriptor,
    DescentConfig,
    DomainError,
    Field,
    GridMismatchError,
    GridSpec,
    HypothesisViolatedError,
    SupportOverflowError,
    build_asymptotic_coefficient,
    compare_levels,
    transplant,
)
from helmdual import asymptotic
from helmdual.asymptotic import bump_profile
from helmdual.selftest import IDENTITY_TOL, orbits_distinct, transplant_identity_error
from conftest import make_sine_context, random_field


@pytest.fixture(scope="module")
def ctx():
    return make_sine_context(n=48)


@pytest.fixture(scope="module")
def pair(ctx):
    bump = BumpDescriptor(center=(3.0, 3.0), radius=1.2, amplitude=0.3)
    return build_asymptotic_coefficient(ctx, bump)


class TestBuild:
    def test_zero_amplitude_is_identity(self, ctx):
        bump = BumpDescriptor(center=(3.0, 3.0), radius=1.2, amplitude=0.0)
        pair = build_asymptotic_coefficient(ctx, bump)
        np.testing.assert_array_equal(pair.ctx.q, pair.ctx_inf.q)

    def test_ordering_and_support(self, ctx, pair):
        q = pair.ctx.q
        q_inf = pair.ctx_inf.q
        assert np.all(q >= q_inf)
        mesh = ctx.grid.open_mesh()
        outside = sum((m - 3.0) ** 2 for m in mesh) > pair.bump.radius ** 2
        assert np.max(np.abs((q - q_inf)[outside])) == 0.0
        assert np.max(q - q_inf) > 0.0

    def test_profile_peak(self, ctx, pair):
        profile = bump_profile(ctx.grid, pair.bump)
        # center sits on a grid point of the L = 6, n = 48 lattice
        center_idx = tuple(int(3.0 / ctx.grid.spacing) for _ in range(2))
        assert abs(profile[center_idx] - pair.bump.amplitude) < 1e-14

    @pytest.mark.parametrize("dimension, n, L, center, radius", [
        (2, 48, 6.0, (3.0, 3.0), 1.2),
        (2, 48, 6.0, (3.0, 3.0), 1.25),       # the ball's edge runs through grid points
        (2, 32, 8.0, (4.4, 4.0), 1.5),
        (3, 64, 16.0, (9.2, 8.7, 8.4), 1.6),  # the far-field bump
        (3, 16, 8.0, (4.0, 4.25, 3.9), 2.0),
        (2, 16, 8.0, (4.25, 4.25), 0.1),      # meets no grid point
    ])
    def test_profile_is_the_whole_grid_formula(self, dimension, n, L, center, radius):
        grid = GridSpec(dimension, L, n)
        bump = BumpDescriptor(center=center, radius=radius, amplitude=0.7)
        s2 = sum((m - c) ** 2 for m, c in zip(grid.open_mesh(), center)) / radius ** 2
        want = np.zeros(grid.shape)
        want[s2 < 1.0] = bump.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[s2 < 1.0]))
        assert bump_profile(grid, bump).tobytes() == want.tobytes()

    def test_perturbed_q_is_the_background_plus_the_bump(self, ctx, pair):
        assert pair.ctx.q.tobytes() == (ctx.q + bump_profile(ctx.grid, pair.bump)).tobytes()

    def test_support_overflow(self, ctx):
        with pytest.raises(SupportOverflowError):
            build_asymptotic_coefficient(
                ctx,
                BumpDescriptor(center=(0.5, 3.0), radius=1.0, amplitude=0.1),
            )

    def test_parameter_validation(self, ctx):
        with pytest.raises(ValueError):
            build_asymptotic_coefficient(
                ctx, BumpDescriptor((3.0, 3.0), 1.0, -0.1)
            )
        with pytest.raises(ValueError):
            build_asymptotic_coefficient(
                ctx, BumpDescriptor((3.0, 3.0), -1.0, 0.1)
            )

    @pytest.mark.parametrize("center", [(8.0, 8.0), (8.0, 8.0, 8.0, 8.0)])
    def test_center_of_the_wrong_length_is_domain_error(self, center):
        # on a 3d grid numpy raised a shape mismatch (2 entries) or an IndexError (4)
        with pytest.raises(DomainError, match="center has"):
            bump_profile(GridSpec(3, 16.0, 16), BumpDescriptor(center, 1.6, 1.0))

    @pytest.mark.parametrize("radius, amplitude", [
        (-1.0, 1.0),       # built the radius-1 bump
        (0.0, 1.0),        # built an all-zero profile, warning of a division by zero
        (math.nan, 1.0),
        (math.inf, 1.0),   # built the amplitude on every grid point
        (1.0, -0.1),
        (1.0, math.nan),
        (1.0, math.inf),
    ])
    def test_malformed_radius_or_amplitude_is_domain_error(self, radius, amplitude):
        with pytest.raises(DomainError, match="radius" if amplitude == 1.0 else "amplitude"):
            BumpDescriptor((3.0, 3.0), radius, amplitude)


class TestTransplant:
    def test_equal_coefficients_identity(self, ctx):
        bump = BumpDescriptor(center=(3.0, 3.0), radius=1.2, amplitude=0.0)
        pair = build_asymptotic_coefficient(ctx, bump)
        rng = np.random.default_rng(0)
        w = random_field(ctx, rng)
        v = transplant(pair, w)
        positive = pair.ctx_inf.q > 0
        np.testing.assert_allclose(v.values[positive], w.values[positive], rtol=1e-15)

    def test_pointwise_identity_and_quadratic_forms(self, ctx, pair):
        rng = np.random.default_rng(1)
        w = random_field(ctx, rng)
        v = transplant(pair, w)
        assert transplant_identity_error(pair, w, v) <= IDENTITY_TOL

        # identical sandwiched fields give identical quadratic forms
        qf_q = pair.ctx.quadratic_form(v)
        qf_inf = pair.ctx_inf.quadratic_form(w)
        assert abs(qf_q - qf_inf) <= 1e-12 * max(1.0, abs(qf_inf))

    def test_norm_shrinks_on_bump(self, ctx, pair):
        rng = np.random.default_rng(2)
        pc = ctx.exponents.p_conj
        w = random_field(ctx, rng)
        v = transplant(pair, w)
        assert v.lp_norm(pc) < w.lp_norm(pc)

    def test_hypothesis_violation(self, ctx, pair):
        broken = build_asymptotic_coefficient(
            ctx, BumpDescriptor((3.0, 3.0), 1.2, 0.3)
        )
        # swap the roles so Q < Q_inf somewhere
        broken.ctx, broken.ctx_inf = broken.ctx_inf, broken.ctx
        rng = np.random.default_rng(3)
        with pytest.raises(HypothesisViolatedError):
            transplant(broken, random_field(ctx, rng))

    @pytest.mark.parametrize("grid", [GridSpec(2, 4.0, 48), GridSpec(2, 6.0, 24)],
                             ids=["same_shape", "other_shape"])
    def test_field_from_another_grid_is_grid_mismatch(self, pair, grid):
        w = Field(grid, np.random.default_rng(4).standard_normal(grid.shape))
        with pytest.raises(GridMismatchError):
            transplant(pair, w)


class TestCompareLevels:
    def test_tables_list_each_orbit_once(self, pair):
        # the n = 48 compare config of CI: the descent from the transplanted
        # background ground state lands on start 0's orbit, so it is not listed
        # again, and c_est is start 0's level
        cfg = DescentConfig(multistart_count=4, rng_seed=12345)
        report = compare_levels(pair, cfg)
        assert orbits_distinct(pair.ctx, report.records_q, cfg.dedup_rel_threshold)
        assert orbits_distinct(pair.ctx_inf, report.records_inf, cfg.dedup_rel_threshold)
        assert [rec.start_index for rec in report.records_q] == [0]
        assert report.c_est == min(rec.level for rec in report.records_q)

    @pytest.mark.parametrize("fail, status", [
        (lambda cfg, v0: (replace(cfg, max_iters=1), v0), "max_iters"),
        (lambda cfg, v0: (cfg, Field(v0.grid, np.zeros(v0.grid.shape))), "not_in_u_plus"),
    ], ids=["budget", "zero_start"])
    def test_failed_transplant_is_dropped(self, pair, monkeypatch, fail, status):
        # the transplanted start (index -2) runs through the runner of every
        # start; made to fail there, by a budget of one step or a zero start, it
        # is dropped: compare lists the multistart's records alone and keeps
        # every level of the run whose transplant descends
        cfg = DescentConfig(multistart_count=2, rng_seed=12345)
        kept = compare_levels(pair, cfg)
        runner = asymptotic._descend
        seen = []

        def failing(ctx, coarse, v0, cfg, index):
            if index == -2:
                cfg, v0 = fail(cfg, v0)
            outcome = runner(ctx, coarse, v0, cfg, index)
            seen.append((index, outcome[0]))
            return outcome

        monkeypatch.setattr(asymptotic, "_descend", failing)
        report = compare_levels(pair, cfg)
        assert seen == [(-2, status)]
        assert [rec.start_index for rec in report.records_q] == [rec.start_index for rec in kept.records_q] == [0]
        assert [rec.v.tobytes() for rec in report.records_q] == [rec.v.tobytes() for rec in kept.records_q]
        assert (report.c_est, report.c_inf_est, report.level_chain) == (kept.c_est, kept.c_inf_est, kept.level_chain)
        assert report.outcomes_q == kept.outcomes_q
