"""Acceptance criteria, one test per criterion, each printing a PASS line.

Heavy runs (the reference multistart, the level comparison, the far-field
experiment) are module-scoped fixtures shared by the criteria that assert on
them; their wall-clock budgets are asserted alongside the numerics.  The
identities and their bounds are `helmdual.selftest`'s; a criterion draws more
inputs than the selftest suite of the same identity.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from helmdual import (
    BumpDescriptor,
    DescentConfig,
    Field,
    FunctionalContext,
    GridSpec,
    build_asymptotic_coefficient,
    compare_levels,
    decay_and_expansion_check,
    equal_area_directions,
    farfield_amplitude,
    grid_field,
    multistart_search,
    primal_field,
    ps_boundedness_check,
    transplant,
)
from helmdual import selftest as battery
from helmdual.asymptotic import bump_profile
from conftest import make_constant_context, make_sine_context, random_field

REFERENCE_SEED = 12345


def _report(number, name):
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_run():
    """Standard configuration: N=2, p=7, L=6, n=96, Q = 1 + 0.5 sin sin."""
    ctx = make_sine_context(n=96, L=6.0, p=7.0)
    cfg = DescentConfig(multistart_count=20, rng_seed=REFERENCE_SEED,
                        tol_residual=1e-8, max_iters=2000)
    t0 = time.time()
    result = multistart_search(ctx, cfg)
    elapsed = time.time() - t0
    return ctx, cfg, result, elapsed


@pytest.fixture(scope="module")
def compare_run():
    ctx = make_sine_context(n=96, L=6.0, p=7.0)
    bump = BumpDescriptor(center=(3.0, 3.0), radius=1.2, amplitude=0.3)
    pair = build_asymptotic_coefficient(ctx, bump)
    cfg = DescentConfig(multistart_count=20, rng_seed=REFERENCE_SEED)
    t0 = time.time()
    report = compare_levels(pair, cfg)
    elapsed = time.time() - t0
    return ctx, pair, report, elapsed


@pytest.fixture(scope="module")
def farfield_run():
    grid = GridSpec(3, 16.0, 64, shell_epsilon=1.0)
    # an off-center source decoheres shell phases
    q = bump_profile(grid, BumpDescriptor(center=(9.2, 8.7, 8.4), radius=1.6, amplitude=2.0))
    ctx = FunctionalContext(Field(grid, q), 5.0)
    cfg = DescentConfig(multistart_count=2, rng_seed=REFERENCE_SEED)
    t0 = time.time()
    result = multistart_search(ctx, cfg)
    rec = result.records[0]
    u = primal_field(ctx, rec)
    dirs = equal_area_directions(3, 200)
    samples = farfield_amplitude(ctx, u, dirs)
    attenuated = farfield_amplitude(
        ctx, u, dirs, wavenumber=complex(np.sqrt(1.0 + 1.0j))
    )
    report = decay_and_expansion_check(ctx, u, attenuated)
    elapsed = time.time() - t0
    return ctx, rec, samples, report, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_operator_exactness():
    t0 = time.time()
    # R as the solver runs it: dual_to_primal on a context with Q = 1
    ctx = make_constant_context(n=32, L=6.0)
    worst = battery.resolvent_eigen_error(ctx.dual_to_primal, ctx.grid, kinds=("cos", "sin"))
    assert worst <= battery.EIGEN_TOL
    rel = battery.inverse_identity_error(ctx.dual_to_primal, random_field(ctx, np.random.default_rng(1)))
    assert rel <= battery.IDENTITY_TOL

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(1, f"operator exactness (eig {worst:.1e}, identity {rel:.1e}, {elapsed:.1f}s)")


def test_criterion_02_k_symmetry():
    t0 = time.time()
    ctx = make_sine_context(n=48)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        defect, scale = battery.symmetry_defect(ctx.apply_k, random_field(ctx, rng), random_field(ctx, rng))
        worst = max(worst, defect / scale)
    assert worst <= battery.SYMMETRY_TOL
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(2, f"K symmetry ({worst:.1e}, {elapsed:.1f}s)")


def test_criterion_03_gradient_correctness():
    t0 = time.time()
    ctx = make_sine_context(n=48)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        base = random_field(ctx, rng)
        v = Field(ctx.grid, np.sign(base.values + 1e-12) * (0.1 + np.abs(base.values)))
        worst = max(worst, battery.gradient_error(ctx, v, random_field(ctx, rng, scale=0.5)))
    assert worst <= battery.GRADIENT_TOL
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(3, f"gradient vs central differences ({worst:.1e}, {elapsed:.1f}s)")


def test_criterion_04_fibering_maximum():
    ctx = make_sine_context(n=48)
    rng = np.random.default_rng(4)
    pc = ctx.exponents.p_conj
    checked = 0
    worst_slack = np.inf
    while checked < 10:
        v = random_field(ctx, rng)
        v = (1.0 / v.lp_norm(pc)) * v
        if ctx.quadratic_form(v) <= 0.0:
            continue
        checked += 1
        worst_slack = min(worst_slack, battery.fibering_slack(ctx, v, 50))
        assert battery.fibering_defect(ctx, v) <= battery.IDENTITY_TOL
    assert worst_slack >= -battery.SLACK_TOL
    _report(4, f"fibering maximum (slack {worst_slack:.1e})")


def test_criterion_05_reverse_hoelder():
    ctx = make_sine_context(n=48)
    pc = ctx.exponents.p_conj
    rng = np.random.default_rng(5)
    a = rng.uniform(1e-3, 1e3, size=100_000)
    b = rng.uniform(1e-3, 1e3, size=100_000)
    scalar_slack = battery.reverse_hoelder_slack(pc, a, b)
    assert scalar_slack >= -battery.SLACK_TOL

    field_slack = min(battery.reverse_hoelder_field_slack(ctx, random_field(ctx, rng), random_field(ctx, rng))
                      for _ in range(100))
    assert field_slack >= -battery.SLACK_TOL
    _report(5, f"reverse Hoelder (scalar {scalar_slack:.1e}, field {field_slack:.1e})")


def test_criterion_06_reference_solver_run(reference_run):
    ctx, cfg, result, elapsed = reference_run
    assert elapsed < 300.0

    converged = [status for status, _ in result.outcomes]
    assert converged.count("converged") == 20

    for rec in result.records:
        assert rec.dual_residual <= 1e-8
        assert rec.iterations <= 2000
        assert rec.level > 0.0
    assert battery.level_increase(result.records) <= battery.MONOTONE_TOL

    assert len(result.records) >= 2  # geometrically distinct pairs
    assert battery.orbits_distinct(ctx, result.records, cfg.dedup_rel_threshold)

    _report(6, (f"solver run (20/20 converged, {len(result.records)} distinct, "
                f"c={result.level_estimate:.9f}, {elapsed:.0f}s)"))


def test_reference_run_places_every_level(reference_run):
    # the three levels are the minimum, saddle and maximum of one bump's
    # position landscape; the placement puts the ground state's profile at
    # each, and the descent of every start takes it to the tolerance
    _, _, result, _ = reference_run
    assert [status for status, _ in result.outcomes].count("converged") == 20
    assert abs(result.level_estimate - 0.183934971713) <= 1e-9
    levels = np.unique(np.round([rec.level for rec in result.records], 6))
    np.testing.assert_array_equal(levels, [0.183935, 0.183947, 0.183958])
    assert len(result.records) >= 4
    placed = [rec for rec in result.records if rec.start_index == -1]
    assert placed
    for rec in placed:
        assert rec.dual_residual <= 1e-8
        assert rec.primal_residual <= battery.PRIMAL_TOL


def test_criterion_07_primal_consistency(reference_run):
    _, _, result, _ = reference_run
    worst = max(rec.primal_residual for rec in result.records)
    assert worst <= battery.PRIMAL_TOL
    _report(7, f"primal consistency (worst residual {worst:.1e})")


def test_criterion_08_palais_smale_bound(reference_run):
    ctx, _, result, _ = reference_run
    for rec in result.records:
        assert ps_boundedness_check(ctx, rec.v_norms, rec.bound_constant)
    _report(8, "Palais-Smale norm bound on all trajectories")


def test_criterion_09_asymptotic_comparison(compare_run):
    ctx, pair, report, elapsed = compare_run
    assert elapsed < 600.0
    assert battery.level_excess(report) <= battery.LEVEL_TOL
    assert report.transplant_check
    w = grid_field(pair.ctx_inf, report.records_inf[0])
    assert battery.transplant_identity_error(pair, w, transplant(pair, w)) <= battery.IDENTITY_TOL
    # energy chain J_Q(t_v v) <= J_inf(t_v w) <= J_inf(w)
    assert battery.level_chain_slack(report) >= -battery.CHAIN_TOL

    _report(9, (f"level comparison (c {report.c_est:.6f} <= c_inf {report.c_inf_est:.6f}, "
                f"transplant ok, {elapsed:.0f}s)"))


def test_compare_tables_list_each_orbit_once(compare_run):
    # the transplant record (start index -2) goes through the perturbed side's dedup
    _, pair, report, _ = compare_run
    threshold = DescentConfig().dedup_rel_threshold
    assert battery.orbits_distinct(pair.ctx, report.records_q, threshold)
    assert battery.orbits_distinct(pair.ctx_inf, report.records_inf, threshold)
    assert report.c_est == min(rec.level for rec in report.records_q)


def test_criterion_10_farfield(farfield_run):
    ctx, rec, samples, report, elapsed = farfield_run
    assert elapsed < 300.0
    assert not report.degenerate
    assert 0.8 * report.target_exponent <= report.decay_exponent <= 1.2 * report.target_exponent
    tail = report.expansion_errors[-3:]
    assert np.all(np.diff(tail) <= 1e-12 * max(1.0, tail.max()))

    # conjugate antisymmetry of the reported amplitude for the real solution
    assert battery.conjugate_antisymmetry(samples) <= battery.ANTISYMMETRY_TOL

    _report(10, (f"far field (exponent {report.decay_exponent:.3f}, "
                 f"errors decreasing, {elapsed:.0f}s)"))


def test_criterion_11_selftest_cli(tmp_path):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "helmdual.cli", "selftest", "--out", str(tmp_path / "selftest")],
        capture_output=True,
        text=True,
        timeout=1200,
    )
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 1200.0
    assert (tmp_path / "selftest" / "selftest.csv").exists()
    _report(11, f"CLI selftest exit 0 ({elapsed:.0f}s)")
