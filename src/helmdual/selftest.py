"""Desk-scale invariant suites behind the CLI selftest mode.

Each suite re-checks the computable identities and inequalities the library
is built on: operator symmetry and exactness, fibering and level algebra,
descent monotonicity and Palais-Smale norm bounds, transplant identities,
far-field structure, and the persistence round trips.  Every check is
deterministic (fixed seeds) and sized to finish on a laptop in well under
a minute per suite.
"""

import numpy as np

from . import config as cfgmod
from .asymptotic import BumpDescriptor, build_asymptotic_coefficient, bump_profile, compare_levels, transplant
from .dual_functional import Coefficient, Exponents, FunctionalContext, odd_power, sine_product
from .errors import (
    BadMagicError,
    MissingRequiredError,
    NotInUPlusError,
    TruncatedPayloadError,
    UnknownKeyError,
)
from .farfield import decay_and_expansion_check, equal_area_directions, farfield_amplitude, SphereSamples
from .kernel import Field, GridSpec, fundamental_solution_psi, helmholtz_symbol
from .search import (
    DescentConfig,
    find_critical_point,
    multistart_search,
    orbit_distance,
    ps_boundedness_check,
)


def _context(n=48, L=6.0, p=7.0, eps=0.0, dimension=2):
    grid = GridSpec(dimension=dimension, box_length=L, points_per_axis=n, shell_epsilon=eps)
    coeff = Coefficient.build(Field(grid, sine_product(grid)), p, periodic=True)
    return FunctionalContext(grid, Exponents(dimension, p), coeff)


def _resolvent(grid):
    """R as the solver applies it: `dual_to_primal` with Q = 1 on a 2d grid."""
    coeff = Coefficient.build(Field(grid, np.ones(grid.shape)), 7.0)
    return FunctionalContext(grid, Exponents(2, 7.0), coeff).dual_to_primal


def _random_field(ctx, rng, scale=1.0):
    return Field(ctx.grid, scale * rng.standard_normal(ctx.grid.shape))


def _mode_field(grid, m, kind="cos"):
    mesh = grid.open_mesh()
    phase = sum(2 * np.pi * mi * x / grid.box_length for mi, x in zip(m, mesh))
    return Field(grid, np.cos(phase) if kind == "cos" else np.sin(phase))


def check_kernel_operator():
    grid = GridSpec(2, 6.0, 16)
    resolve = _resolvent(grid)
    worst = 0.0
    half = grid.points_per_axis // 2
    for mx in range(-half, half):
        for my in range(-half, half):
            if mx == 0 and my == 0:
                continue
            k2 = (2 * np.pi / 6.0) ** 2 * (mx * mx + my * my)
            sigma = 1.0 / (k2 - 1.0)
            f = _mode_field(grid, (mx, my))
            out = resolve(f)
            # Rayleigh scaling factor; orthogonal FFT dust is covered by the
            # residual identity below
            factor = f.inner(out) / f.inner(f)
            worst = max(worst, abs(factor - sigma) / abs(sigma))
    ok = worst <= 1e-13
    detail = f"eigenfunction error {worst:.2e}"

    rng = np.random.default_rng(11)
    f = Field(grid, rng.standard_normal(grid.shape))
    g = Field(grid, rng.standard_normal(grid.shape))
    sym = abs(f.inner(resolve(g)) - g.inner(resolve(f)))
    ok &= sym <= 1e-11 * f.lp_norm(2) * g.lp_norm(2)

    shifted = Field(grid, np.roll(f.values, 5, axis=0))
    equiv = np.max(np.abs(
        resolve(shifted).values - np.roll(resolve(f).values, 5, axis=0)
    )) / np.max(np.abs(f.values))
    ok &= equiv <= 1e-14

    # -Delta - 1 as the symbol primal_residual applies
    symbol = helmholtz_symbol(grid.k_squared - 1.0, grid.shell_epsilon)
    back = np.fft.ifftn(symbol * np.fft.fftn(resolve(f).values)).real
    ident = np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))
    ok &= ident <= 1e-12
    return ok, detail + f", symmetry {sym:.2e}, identity {ident:.2e}"


def check_kernel_psi():
    err_zero = abs(fundamental_solution_psi(np.pi / 2))
    err_value = abs(fundamental_solution_psi(2 * np.pi) - 1.0 / (8 * np.pi ** 2))
    ok = err_zero < 1e-15 and err_value < 1e-15
    return ok, f"psi errors {err_zero:.1e}, {err_value:.1e}"


def check_dual_identities():
    ctx = _context(n=48)
    rng = np.random.default_rng(5)
    v = _random_field(ctx, rng)
    w = _random_field(ctx, rng)
    sym = abs(v.inner(ctx.apply_k(w)) - w.inner(ctx.apply_k(v)))
    ok = sym <= 1e-11 * v.lp_norm(2) * w.lp_norm(2)

    j1 = ctx.energy(2.0 * v)
    pc = ctx.exponents.p_conj
    j_pred = 2.0 ** pc / pc * ctx.dual_mass(v.values) - 0.5 * 4.0 * ctx.quadratic_form(v)
    ok &= abs(j1 - j_pred) <= 1e-12 * max(1.0, abs(j1))
    ok &= ctx.energy(-v) == ctx.energy(v)

    base = np.abs(v.values) + 0.1
    v2 = Field(ctx.grid, np.sign(v.values + 1e-9) * base)
    g = ctx.gradient(v2)
    h = 1e-5
    direction = _random_field(ctx, rng, scale=0.5)
    fd = (ctx.energy(v2 + h * direction) - ctx.energy(v2 - h * direction)) / (2 * h)
    pairing = g.inner(direction)
    rel = abs(fd - pairing) / max(abs(fd), 1e-30)
    ok &= rel <= 1e-5
    return ok, f"K symmetry {sym:.2e}, gradient fd rel {rel:.2e}"


def check_fibering():
    ctx = _context(n=48)
    rng = np.random.default_rng(9)
    worst_slack = np.inf
    for _ in range(3):
        v = _random_field(ctx, rng)
        if ctx.quadratic_form(v) <= 0:
            continue
        t = ctx.fibering_scale(v)
        ok_scale = abs(ctx.fibering_scale(2.0 * v) - t / 2.0) <= 1e-12 * t
        peak = ctx.energy(t * v)
        for s in np.geomspace(t / 10, 10 * t, 25):
            worst_slack = min(worst_slack, peak - ctx.energy(float(s) * v))
        nehari = ctx.nehari_energy(v)
        ok_level = abs(nehari - peak) <= 1e-12 * max(1.0, abs(peak))
        ok_inv = abs(ctx.nehari_energy(3.0 * v) - nehari) <= 1e-12 * abs(nehari)
        if not (ok_scale and ok_level and ok_inv and nehari > 0):
            return False, "fibering algebra failed"
    try:
        ctx.fibering_scale(Field(ctx.grid, np.ones(ctx.grid.shape)))
        return False, "constant field accepted into U^+"
    except NotInUPlusError:
        pass
    return worst_slack >= -1e-12, f"fibering max slack {worst_slack:.2e}"


def check_reverse_hoelder():
    ctx = _context(n=48)
    pc = ctx.exponents.p_conj
    rng = np.random.default_rng(3)
    a = rng.uniform(1e-3, 1e3, size=100_000)
    b = rng.uniform(1e-3, 1e3, size=100_000)
    lhs = (a ** (pc - 1) - b ** (pc - 1)) * (a - b)
    rhs = (pc - 1) * (a - b) ** 2 * (a + b) ** (pc - 2)
    scalar_slack = float((lhs - rhs).min())

    worst = np.inf
    for _ in range(20):
        v = _random_field(ctx, rng)
        w = _random_field(ctx, rng)
        diff = v.values - w.values
        lhs_f = ctx.inner(odd_power(v.values, pc - 1) - odd_power(w.values, pc - 1), diff)
        rhs_f = (pc - 1) * ctx.lp_norm(diff, pc) ** 2 * ctx.lp_norm(
            np.abs(v.values) + np.abs(w.values), pc
        ) ** (pc - 2)
        worst = min(worst, lhs_f - rhs_f)
    ok = scalar_slack >= -1e-12 and worst >= -1e-12
    return ok, f"scalar slack {scalar_slack:.2e}, field slack {worst:.2e}"


def check_mountain_pass():
    ctx = _context(n=48)
    rng = np.random.default_rng(21)
    rho = 0.1
    pc = ctx.exponents.p_conj
    min_j = np.inf
    for _ in range(10):
        v = _random_field(ctx, rng)
        v = (rho / v.lp_norm(pc)) * v
        min_j = min(min_j, ctx.energy(v))
    ok = min_j > 0

    span = _mode_field(ctx.grid, (1, 0)) + _mode_field(ctx.grid, (0, 1))
    qf = ctx.quadratic_form(span)
    mass = ctx.dual_mass(span.values)
    if qf <= 0:
        return False, "test span not positive definite"
    s_zero = (2.0 * mass / (pc * qf)) ** (1.0 / (2.0 - pc))
    ok &= ctx.energy(float(2 * s_zero) * span) <= 0.0
    return ok, f"min J on sphere {min_j:.3e}, large-scale J <= 0 ok"


def check_primal_chain():
    ctx = _context(n=48)
    rng = np.random.default_rng(17)
    v = _random_field(ctx, rng)
    u = ctx.dual_to_primal(v)
    lhs = helmholtz_symbol(ctx.grid.k_squared - 1.0, ctx.grid.shell_epsilon) * np.fft.fftn(u.values)
    rhs = np.fft.fftn(ctx.q_root * v.values)
    rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
    return rel <= 1e-12, f"transform identity rel {rel:.2e}"


def check_search_mini():
    ctx = _context(n=48)
    cfg = DescentConfig(multistart_count=5, rng_seed=20240601, max_iters=1500)
    result = multistart_search(ctx, cfg)
    converged = sum(1 for status, _ in result.outcomes if status == "converged")
    ok = converged >= 4 and result.level_estimate > 0
    mono = 0.0
    for rec in result.records:
        if len(rec.j_values) > 1:
            mono = max(mono, float(np.max(np.diff(rec.j_values))))
        ok &= rec.dual_residual <= cfg.tol_residual
        ok &= rec.primal_residual <= 1e-6
        ok &= ps_boundedness_check(ctx, rec.v_norms, rec.bound_constant)
    ok &= mono <= 1e-12
    for i, a in enumerate(result.records):
        for b in result.records[i + 1:]:
            scale = max(a.v_star.lp_norm(ctx.exponents.p_conj), b.v_star.lp_norm(ctx.exponents.p_conj))
            ok &= orbit_distance(ctx, a.v_star, b.v_star) > cfg.dedup_rel_threshold * scale
    detail = (f"{converged}/5 converged, {len(result.records)} distinct, "
              f"c={result.level_estimate:.6f}, max J increase {mono:.1e}")

    rec = result.records[0]
    rerun = find_critical_point(ctx, rec.v_star, cfg)
    ok &= rerun.iterations == 0
    return ok, detail


def check_asymptotic_mini():
    ctx = _context(n=48)
    bump = BumpDescriptor(center=(3.0, 3.0), radius=1.2, amplitude=0.3)
    pair = build_asymptotic_coefficient(ctx.coefficient, bump)
    q = pair.coefficient.field.values
    q_inf = pair.coefficient_inf.field.values
    ok = bool(np.all(q >= q_inf))
    mesh = ctx.grid.open_mesh()
    outside = sum((m - 3.0) ** 2 for m in mesh) > bump.radius ** 2
    ok &= bool(np.all(q[outside] == q_inf[outside]))

    rng = np.random.default_rng(2)
    w = Field(ctx.grid, rng.standard_normal(ctx.grid.shape))
    v = transplant(pair, w)
    lhs = pair.coefficient.q_root.values * v.values
    rhs = pair.coefficient_inf.q_root.values * w.values
    ident = np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-300)
    ok &= ident <= 1e-12
    ok &= v.lp_norm(ctx.exponents.p_conj) <= w.lp_norm(ctx.exponents.p_conj)

    cfg = DescentConfig(multistart_count=4, rng_seed=7, max_iters=1500)
    report = compare_levels(pair, ctx.exponents, cfg)
    ok &= report.transplant_check
    ok &= report.c_est <= report.c_inf_est + 1e-3 * abs(report.c_inf_est)
    chain_ok = (report.level_chain[0] <= report.level_chain[1] + 1e-10
                and report.level_chain[1] <= report.level_chain[2] + 1e-10)
    ok &= chain_ok
    return ok, (f"transplant ident {ident:.1e}, c={report.c_est:.6f} <= "
                f"c_inf={report.c_inf_est:.6f}")


def check_farfield_synthetic():
    grid = GridSpec(3, 16.0, 48, shell_epsilon=0.0)
    exps = Exponents(3, 5.0)
    mesh = grid.open_mesh()
    center = grid.box_length / 2.0
    r2 = sum((m - center) ** 2 for m in mesh)
    q = bump_profile(grid, BumpDescriptor(center=(center,) * 3, radius=1.5, amplitude=1.0))
    coeff = Coefficient.build(Field(grid, q), exps.p, periodic=False)
    ctx = FunctionalContext(grid, exps, coeff)

    # expansion-built field with a smooth amplitude reproduces itself
    dirs = equal_area_directions(3, 120)
    gvals = (0.05 + 0.02 * dirs[:, 0] + 0.01j * dirs[:, 1] * dirs[:, 2])
    r = np.sqrt(r2)
    rs = np.maximum(r, grid.spacing / 2)
    x, y, z = ((m - center) / rs for m in mesh)
    g_grid = 0.05 + 0.02 * x + 0.01j * y * z
    u_vals = -2.0 * (2 * np.pi / rs) * np.real(np.exp(1j * (rs - np.pi / 2)) * g_grid)
    u = Field(grid, u_vals)
    report = decay_and_expansion_check(ctx, u, SphereSamples(dirs, gvals))
    ok = report.expansion_errors[-1] <= 1e-16 and report.trend_nonincreasing

    # sampled free-space kernel decays like 1/r
    psi_vals = fundamental_solution_psi(np.maximum(r, 1e-3))
    report2 = decay_and_expansion_check(
        ctx, Field(grid, psi_vals), SphereSamples(dirs, np.zeros(len(dirs), complex)),
        shell_count=6,
    )
    ok &= abs(report2.decay_exponent - 1.0) <= 0.15
    return ok, (f"synthetic err {report.expansion_errors[-1]:.1e}, "
                f"psi exponent {report2.decay_exponent:.3f}")


def check_farfield_antisymmetry():
    # compactly supported coefficient for a far-field-style source
    grid = GridSpec(2, 16.0, 64)
    q = bump_profile(grid, BumpDescriptor(center=(8.0, 8.0), radius=2.0, amplitude=1.0))
    coeff = Coefficient.build(Field(grid, q), 7.0, periodic=False)
    ctx = FunctionalContext(grid, Exponents(2, 7.0), coeff)
    rng = np.random.default_rng(4)
    u = Field(grid, rng.standard_normal(grid.shape))
    dirs = equal_area_directions(2, 32)
    samples = farfield_amplitude(ctx, u, dirs)
    half = len(dirs) // 2
    anti = np.abs(samples.values[half:] + np.conj(samples.values[:half])).max()
    scale = max(np.abs(samples.values).max(), 1e-300)
    ok = anti <= 1e-10 * scale
    return ok, f"conjugate antisymmetry {anti / scale:.2e}"


def check_config_io():
    cfg = cfgmod.RunConfig(mode="solve")
    ok = cfgmod.parse_config(cfgmod.serialize_config(cfg)) == cfg
    try:
        cfgmod.parse_config("gird.n = 64\nmode = solve\n")
        return False, "unknown key accepted"
    except UnknownKeyError:
        pass
    try:
        cfgmod.parse_config("grid.points_per_axis = watermelon\nmode = solve\n")
        return False, "bad int accepted"
    except cfgmod.ConfigTypeError:
        pass
    try:
        cfgmod.parse_config("grid.points_per_axis = 32\n")
        return False, "missing mode accepted"
    except MissingRequiredError:
        pass

    grid = GridSpec(2, 6.0, 16)
    rng = np.random.default_rng(8)
    field = Field(grid, rng.standard_normal(grid.shape))
    blob = cfgmod.write_field(field)
    back = cfgmod.read_field(blob)
    ok &= np.array_equal(back.values, field.values) and back.grid == grid
    try:
        cfgmod.read_field(b"XXXX" + blob[4:])
        return False, "bad magic accepted"
    except BadMagicError:
        pass
    try:
        cfgmod.read_field(blob[:-8])
        return False, "short payload accepted"
    except TruncatedPayloadError:
        pass
    return ok, "round trips and error cases ok"


SUITES = [
    ("kernel.operator", check_kernel_operator),
    ("kernel.fundamental_solution", check_kernel_psi),
    ("dual.identities", check_dual_identities),
    ("dual.fibering", check_fibering),
    ("dual.reverse_hoelder", check_reverse_hoelder),
    ("dual.mountain_pass", check_mountain_pass),
    ("dual.primal_chain", check_primal_chain),
    ("search.mini_multistart", check_search_mini),
    ("asymptotic.compare", check_asymptotic_mini),
    ("farfield.synthetic", check_farfield_synthetic),
    ("farfield.antisymmetry", check_farfield_antisymmetry),
    ("config.io", check_config_io),
]


def run_selftest(report=print):
    """Run every suite; returns list of (name, ok, detail)."""
    results = []
    for name, check in SUITES:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
        if report is not None:
            report(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return results
