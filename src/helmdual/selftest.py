"""The invariant battery: one function per computable identity of the dual
method, and the desk-scale suites of the CLI selftest mode built on them.

Each identity function takes its inputs (an operator, a grid, fields,
records) and returns the measured defect or slack; each bound is one module
constant below.  The suites and the tests call the same functions, each with
its own grids, seeds and sample counts: a suite is sized to run in a fraction
of a second, an acceptance criterion draws more inputs.  Every suite is
deterministic (fixed seeds).
"""

import numpy as np

from . import config as cfgmod
from .asymptotic import (CHAIN_TOL, BumpDescriptor, build_asymptotic_coefficient, bump_profile,
                         compare_levels, transplant)
from .dual_functional import FunctionalContext, odd_power, sine_product
from .errors import (
    BadMagicError,
    DomainError,
    MissingRequiredError,
    NotInUPlusError,
    TruncatedPayloadError,
    UnknownKeyError,
)
from .farfield import SphereSamples, decay_and_expansion_check, equal_area_directions, farfield_amplitude
from .kernel import Field, GridSpec, helmholtz_symbol
from .search import DescentConfig, find_critical_point, grid_field, multistart_search, _same_orbit

EIGEN_TOL = 1e-13         # Rayleigh quotient of R on a lattice mode against sigma, relative
SYMMETRY_TOL = 1e-11      # |<f, A g> - <g, A f>| against ||f||_2 ||g||_2
EQUIVARIANCE_TOL = 1e-14  # R of a grid translate against the translate of R f, by max |f|
IDENTITY_TOL = 1e-12      # identities exact to rounding (spectral, scaling, fibering, transplant), relative
SLACK_TOL = 1e-12         # inequalities hold down to a slack of -SLACK_TOL (fibering max, reverse Hoelder)
GRADIENT_TOL = 1e-5       # central difference of J against <J'(v), w>, relative
FD_STEP = 1e-5            # the step of that central difference
MONOTONE_TOL = 1e-12      # largest increase of J between accepted descent steps
PRIMAL_TOL = 1e-6         # primal residual of a converged record
PSI_TOL = 1e-15           # closed-form values of the free-space kernel, absolute
# CHAIN_TOL, the slack of each link of the transplant level chain, is
# asymptotic's, whose transplant check reads it
LEVEL_TOL = 1e-3          # c <= c_inf up to LEVEL_TOL |c_inf|
DECAY_WINDOW = (0.8, 1.2)  # fitted far-field decay exponent over its target, lowest and highest
EXPANSION_TOL = 1e-16     # expansion error of a field built from its own far-field amplitude
PSI_DECAY_TOL = 0.15      # fitted decay exponent of the sampled free-space kernel against 1
ANTISYMMETRY_TOL = 1e-10  # far-field amplitude g(-x) + conj g(x) against max |g|
SAMPLE_CHUNK = 8192       # samples per chunk of the reverse Hoelder slack


def mode_field(grid, m, kind="cos"):
    """The real lattice mode cos or sin of 2 pi m . x / L."""
    mesh = grid.open_mesh()
    phase = sum(2.0 * np.pi * mi * x / grid.box_length for mi, x in zip(m, mesh))
    return Field(grid, np.cos(phase) if kind == "cos" else np.sin(phase))


def random_field(ctx_or_grid, rng, scale=1.0):
    """Independent normal values, times `scale`, on a grid or a context's grid."""
    grid = getattr(ctx_or_grid, "grid", ctx_or_grid)
    return Field(grid, scale * rng.standard_normal(grid.shape))


def fundamental_solution_psi(r):
    """Real part of the outgoing free-space fundamental solution of -Delta - 1
    in dimension 3, cos(r)/(4 pi r): the normalization for which
    (-Delta - 1) Psi = delta.  The solver works with the lattice multiplier;
    this checks the far-field decay fit.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("fundamental_solution_psi requires r > 0")
    out = np.cos(arr) / (4.0 * np.pi * arr)
    return float(out) if np.ndim(r) == 0 else out


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def resolvent_eigen_error(resolve, grid, kinds=("cos",)):
    """Largest relative error of the Rayleigh quotient <f, R f> / <f, f> against
    sigma = 1/(|k|^2 - 1) over the nonzero lattice modes f of a 2d grid with
    eps = 0, of each kind in `kinds`; a sine mode that samples to zero (the
    Nyquist line) is no grid mode and is skipped.  <= EIGEN_TOL."""
    n = grid.points_per_axis
    scale = (2.0 * np.pi / grid.box_length) ** 2
    worst = 0.0
    for mx in range(-n // 2, n // 2):
        for my in range(-n // 2, n // 2):
            if mx == 0 and my == 0:
                continue
            sigma = 1.0 / (scale * (mx * mx + my * my) - 1.0)
            for kind in kinds:
                f = mode_field(grid, (mx, my), kind)
                norm = f.inner(f)
                if norm < 1e-12 * grid.box_length ** 2:
                    continue
                worst = max(worst, abs(f.inner(resolve(f)) / norm - sigma) / abs(sigma))
    return worst


def symmetry_defect(apply, f, g):
    """|<f, A g> - <g, A f>| for an operator A on fields, and the scale
    ||f||_2 ||g||_2: the defect is at most SYMMETRY_TOL times the scale."""
    return abs(f.inner(apply(g)) - g.inner(apply(f))), f.lp_norm(2) * g.lp_norm(2)


def translation_defect(apply, f, shift):
    """max |A(f_y) - (A f)_y| / max |f| for the translate f_y of f by `shift`
    grid points along the leading axes.  <= EQUIVARIANCE_TOL."""
    axes = tuple(range(len(shift)))
    moved = apply(Field(f.grid, np.roll(f.values, shift, axis=axes))).values
    return np.max(np.abs(moved - np.roll(apply(f).values, shift, axis=axes))) / np.max(np.abs(f.values))


def inverse_identity_error(resolve, f):
    """(-Delta - 1) R f = f in real space, with -Delta - 1 the symbol that
    `primal_residual` applies: max |(-Delta - 1) R f - f| / max |f|.
    <= IDENTITY_TOL."""
    grid = f.grid
    symbol = helmholtz_symbol(grid.k_squared - 1.0, grid.shell_epsilon)
    back = np.fft.ifftn(symbol * np.fft.fftn(resolve(f).values)).real
    return np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))


def transform_identity_error(ctx, v):
    """The primal chain u = R(Q^{1/p} v) compared as spectra: the symbol of
    -Delta - 1 times fftn(u) against fftn(Q^{1/p} v), by the largest entry of
    the latter.  <= IDENTITY_TOL."""
    u = ctx.dual_to_primal(v)
    lhs = helmholtz_symbol(ctx.grid.k_squared - 1.0, ctx.grid.shell_epsilon) * np.fft.fftn(u.values)
    rhs = np.fft.fftn(ctx.q_root * v.values)
    return np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))


def scaling_defect(ctx, v, s):
    """J(s v) against s^{p'}/p' ||v||_{p'}^{p'} - s^2/2 <v, K v>, by
    max(1, |J(s v)|).  <= IDENTITY_TOL."""
    pc = ctx.exponents.p_conj
    j = ctx.energy(s * v)
    predicted = s ** pc / pc * ctx.dual_mass(v.values) - 0.5 * s ** 2 * ctx.quadratic_form(v)
    return abs(j - predicted) / max(1.0, abs(j))


def gradient_error(ctx, v, w):
    """The central difference of J at v along w (step FD_STEP) against
    <J'(v), w>, relative to the difference.  <= GRADIENT_TOL."""
    fd = (ctx.energy(v + FD_STEP * w) - ctx.energy(v - FD_STEP * w)) / (2.0 * FD_STEP)
    return abs(fd - ctx.gradient(v).inner(w)) / max(abs(fd), 1e-30)


def fibering_slack(ctx, v, count):
    """min of J(t_v v) - J(s v) over `count` geometric scales s in
    [t_v / 10, 10 t_v]: t_v maximizes J on the ray through v in U^+.
    >= -SLACK_TOL."""
    t = ctx.fibering_scale(v)
    peak = ctx.energy(t * v)
    return min(peak - ctx.energy(float(s) * v) for s in np.geomspace(t / 10.0, 10.0 * t, count))


def fibering_defect(ctx, v):
    """Largest relative defect of the fibering algebra for v in U^+:
    t_{2v} = t_v / 2, N(v) = J(t_v v) and N(3 v) = N(v) for the level
    N = `nehari_energy`; inf unless N(v) > 0.  <= IDENTITY_TOL."""
    t = ctx.fibering_scale(v)
    peak = ctx.energy(t * v)
    level = ctx.nehari_energy(v)
    if not level > 0.0:
        return np.inf
    return max(abs(ctx.fibering_scale(2.0 * v) - t / 2.0) / t,
               abs(level - peak) / max(1.0, abs(peak)),
               abs(ctx.nehari_energy(3.0 * v) - level) / level)


def reverse_hoelder_slack(pc, a, b):
    """min of (a^{p'-1} - b^{p'-1})(a - b) - (p'-1)(a - b)^2 (a + b)^{p'-2}
    over positive arrays a, b.  >= -SLACK_TOL.

    Taken over chunks of SAMPLE_CHUNK samples, so its temporaries stay
    chunk-sized: the minimum of the chunk minima is the same float."""

    def slack(a, b):
        lhs = (a ** (pc - 1.0) - b ** (pc - 1.0)) * (a - b)
        rhs = (pc - 1.0) * (a - b) ** 2 * (a + b) ** (pc - 2.0)
        return (lhs - rhs).min()

    return float(np.min([slack(a[i:i + SAMPLE_CHUNK], b[i:i + SAMPLE_CHUNK])
                         for i in range(0, len(a), SAMPLE_CHUNK)]))


def reverse_hoelder_field_slack(ctx, v, w):
    """The field form: <|v|^{p'-2} v - |w|^{p'-2} w, v - w> minus
    (p'-1) ||v - w||_{p'}^2 || |v| + |w| ||_{p'}^{p'-2}.  >= -SLACK_TOL."""
    pc = ctx.exponents.p_conj
    diff = v.values - w.values
    lhs = ctx.inner(odd_power(v.values, pc - 1.0) - odd_power(w.values, pc - 1.0), diff)
    rhs = (pc - 1.0) * ctx.lp_norm(diff, pc) ** 2 * ctx.lp_norm(
        np.abs(v.values) + np.abs(w.values), pc
    ) ** (pc - 2.0)
    return lhs - rhs


def sphere_energy(ctx, v, rho):
    """J at v scaled to ||.||_{p'} = rho: positive for a small rho, the near
    side of the mountain pass."""
    return ctx.energy((rho / v.lp_norm(ctx.exponents.p_conj)) * v)


def far_energy(ctx, v):
    """J(2 s_0 v) for the zero s_0 > 0 of J on the ray through v in U^+: at
    most 0, the far side of the mountain pass."""
    pc = ctx.exponents.p_conj
    quad = ctx.quadratic_form(v)
    if not quad > 0.0:
        raise NotInUPlusError("the mountain-pass ray needs a positive quadratic form")
    s_zero = (2.0 * ctx.dual_mass(v.values) / (pc * quad)) ** (1.0 / (2.0 - pc))
    return ctx.energy(float(2.0 * s_zero) * v)


def ps_boundedness_check(ctx: FunctionalContext, v_norms, C: float) -> bool:
    """Palais-Smale norm bound on iterate norms ||v||_{p'} (a record's v_norms):
    every one satisfies ||v||_{p'}^{p'-1} <= max(1, C / (1/p' - 1/2))."""
    pc = ctx.exponents.p_conj
    bound = max(1.0, C / (1.0 / pc - 0.5))
    return bool(np.all(np.asarray(v_norms, dtype=float) ** (pc - 1.0) <= bound))


def level_increase(records):
    """Largest increase of J between accepted steps of the records' descents,
    0 if J never increases.  <= MONOTONE_TOL."""
    return max([0.0] + [float(np.max(np.diff(rec.j_values)))
                        for rec in records if len(rec.j_values) > 1])


def orbits_distinct(ctx, records, threshold):
    """No two records lie in one orbit by the dedup's decision (`search._same_orbit`
    at `threshold`); True for fewer than two records."""
    return not any(_same_orbit(ctx, a, b, threshold)
                   for i, a in enumerate(records) for b in records[i + 1:])


def transplant_identity_error(pair, w, v):
    """Q^{1/p} v = Q_inf^{1/p} w for v = transplant(pair, w): the largest
    difference by the largest entry of the right side.  <= IDENTITY_TOL."""
    lhs = pair.ctx.q_root * v.values
    rhs = pair.ctx_inf.q_root * w.values
    return np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-300)


def level_chain_slack(report):
    """Smallest slack of J_Q(t v) <= J_inf(t w) <= J_inf(w) and of its two
    ends, for a `compare_levels` report.  >= -CHAIN_TOL."""
    j_q, j_inf_t, j_inf = report.level_chain
    return min(j_inf_t - j_q, j_inf - j_inf_t, j_inf - j_q)


def level_excess(report):
    """(c - c_inf) / |c_inf| for a `compare_levels` report.  <= LEVEL_TOL."""
    return (report.c_est - report.c_inf_est) / abs(report.c_inf_est)


def decay_in_window(report):
    """Whether the fitted decay exponent of a `decay_and_expansion_check`
    report lies in DECAY_WINDOW times its target exponent."""
    lo, hi = DECAY_WINDOW
    return lo * report.target_exponent <= report.decay_exponent <= hi * report.target_exponent


def conjugate_antisymmetry(samples):
    """max |g(-x) + conj g(x)| / max |g| over the antipodal pairs of
    `equal_area_directions` (its second half negates its first), for the
    far-field amplitude g of a real field.  <= ANTISYMMETRY_TOL."""
    values = samples.values
    half = len(values) // 2
    return np.abs(values[half:] + np.conj(values[:half])).max() / max(np.abs(values).max(), 1e-300)


def psi_closed_form_errors():
    """|Psi(pi/2)| and |Psi(2 pi) - 1/(8 pi^2)|.  Each < PSI_TOL."""
    return (abs(fundamental_solution_psi(np.pi / 2)),
            abs(fundamental_solution_psi(2 * np.pi) - 1.0 / (8 * np.pi ** 2)))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _context():
    """The reference periodic problem: the sine Q on a 2d n = 48, L = 6 grid, p = 7."""
    grid = GridSpec(2, 6.0, 48)
    return FunctionalContext(Field(grid, sine_product(grid)), 7.0, periodic=True)


def _resolvent(grid):
    """R as the solver applies it: `dual_to_primal` with Q = 1 on a 2d grid."""
    return FunctionalContext(Field(grid, np.ones(grid.shape)), 7.0).dual_to_primal


def check_kernel_operator():
    grid = GridSpec(2, 6.0, 16)
    resolve = _resolvent(grid)
    worst = resolvent_eigen_error(resolve, grid)
    rng = np.random.default_rng(11)
    f, g = random_field(grid, rng), random_field(grid, rng)
    sym, scale = symmetry_defect(resolve, f, g)
    ident = inverse_identity_error(resolve, f)
    ok = (worst <= EIGEN_TOL and sym <= SYMMETRY_TOL * scale
          and translation_defect(resolve, f, (5,)) <= EQUIVARIANCE_TOL and ident <= IDENTITY_TOL)
    return ok, f"eigenfunction error {worst:.2e}, symmetry {sym:.2e}, identity {ident:.2e}"


def check_kernel_psi():
    err_zero, err_value = psi_closed_form_errors()
    return max(err_zero, err_value) < PSI_TOL, f"psi errors {err_zero:.1e}, {err_value:.1e}"


def check_dual_identities():
    ctx = _context()
    rng = np.random.default_rng(5)
    v, w = random_field(ctx, rng), random_field(ctx, rng)
    sym, scale = symmetry_defect(ctx.apply_k, v, w)
    ok = sym <= SYMMETRY_TOL * scale
    ok &= scaling_defect(ctx, v, 2.0) <= IDENTITY_TOL
    ok &= ctx.energy(-v) == ctx.energy(v)
    v2 = Field(ctx.grid, np.sign(v.values + 1e-9) * (np.abs(v.values) + 0.1))
    rel = gradient_error(ctx, v2, random_field(ctx, rng, scale=0.5))
    ok &= rel <= GRADIENT_TOL
    return ok, f"K symmetry {sym:.2e}, gradient fd rel {rel:.2e}"


def check_fibering():
    ctx = _context()
    rng = np.random.default_rng(9)
    worst_slack, worst = np.inf, 0.0
    for _ in range(3):
        v = random_field(ctx, rng)
        if ctx.quadratic_form(v) <= 0:
            continue
        worst_slack = min(worst_slack, fibering_slack(ctx, v, 25))
        worst = max(worst, fibering_defect(ctx, v))
    try:
        ctx.fibering_scale(Field(ctx.grid, np.ones(ctx.grid.shape)))
        return False, "constant field accepted into U^+"
    except NotInUPlusError:
        pass
    return worst_slack >= -SLACK_TOL and worst <= IDENTITY_TOL, f"fibering max slack {worst_slack:.2e}"


def check_reverse_hoelder():
    ctx = _context()
    rng = np.random.default_rng(3)
    a = rng.uniform(1e-3, 1e3, size=100_000)
    b = rng.uniform(1e-3, 1e3, size=100_000)
    scalar = reverse_hoelder_slack(ctx.exponents.p_conj, a, b)
    field = min(reverse_hoelder_field_slack(ctx, random_field(ctx, rng), random_field(ctx, rng))
                for _ in range(20))
    return scalar >= -SLACK_TOL and field >= -SLACK_TOL, f"scalar slack {scalar:.2e}, field slack {field:.2e}"


def check_mountain_pass():
    ctx = _context()
    rng = np.random.default_rng(21)
    min_j = min(sphere_energy(ctx, random_field(ctx, rng), 0.1) for _ in range(10))
    span = mode_field(ctx.grid, (1, 0)) + mode_field(ctx.grid, (0, 1))
    ok = min_j > 0 and far_energy(ctx, span) <= 0.0
    return ok, f"min J on sphere {min_j:.3e}, large-scale J <= 0 ok"


def check_primal_chain():
    ctx = _context()
    rel = transform_identity_error(ctx, random_field(ctx, np.random.default_rng(17)))
    return rel <= IDENTITY_TOL, f"transform identity rel {rel:.2e}"


def check_search_mini():
    ctx = _context()
    cfg = DescentConfig(multistart_count=5, rng_seed=20240601, max_iters=1500)
    result = multistart_search(ctx, cfg)
    converged = sum(1 for status, _ in result.outcomes if status == "converged")
    mono = level_increase(result.records)
    ok = converged >= 4 and result.level_estimate > 0 and mono <= MONOTONE_TOL
    for rec in result.records:
        ok &= rec.dual_residual <= cfg.tol_residual
        ok &= rec.primal_residual <= PRIMAL_TOL
        ok &= ps_boundedness_check(ctx, rec.v_norms, rec.bound_constant)
    ok &= orbits_distinct(ctx, result.records, cfg.dedup_rel_threshold)
    detail = (f"{converged}/5 converged, {len(result.records)} distinct, "
              f"c={result.level_estimate:.6f}, max J increase {mono:.1e}")

    rerun = find_critical_point(ctx, grid_field(ctx, result.records[0]), cfg)
    ok &= rerun.iterations == 0
    return ok, detail


def check_asymptotic_mini():
    ctx = _context()
    bump = BumpDescriptor(center=(3.0, 3.0), radius=1.2, amplitude=0.3)
    pair = build_asymptotic_coefficient(ctx, bump)
    q, q_inf = pair.ctx.q, pair.ctx_inf.q
    ok = bool(np.all(q >= q_inf))
    mesh = ctx.grid.open_mesh()
    outside = sum((m - 3.0) ** 2 for m in mesh) > bump.radius ** 2
    ok &= bool(np.all(q[outside] == q_inf[outside]))

    w = random_field(ctx, np.random.default_rng(2))
    v = transplant(pair, w)
    ident = transplant_identity_error(pair, w, v)
    ok &= ident <= IDENTITY_TOL
    ok &= v.lp_norm(ctx.exponents.p_conj) <= w.lp_norm(ctx.exponents.p_conj)

    cfg = DescentConfig(multistart_count=4, rng_seed=7, max_iters=1500)
    report = compare_levels(pair, cfg)
    ok &= report.transplant_check
    ok &= level_excess(report) <= LEVEL_TOL and level_chain_slack(report) >= -CHAIN_TOL
    return ok, (f"transplant ident {ident:.1e}, c={report.c_est:.6f} <= "
                f"c_inf={report.c_inf_est:.6f}")


def check_farfield_synthetic():
    grid = GridSpec(3, 16.0, 48, shell_epsilon=0.0)
    mesh = grid.open_mesh()
    center = grid.box_length / 2.0
    ctx = FunctionalContext(Field(grid, bump_profile(
        grid, BumpDescriptor(center=(center,) * 3, radius=1.5, amplitude=1.0))), 5.0)
    # the radius a slab of axis-0 rows at a time, at the dozen floats a point of
    # u forms (one row at n = 48): one 3d field is built at a time, and no
    # whole-grid radius is kept
    point_bytes = 96

    # expansion-built field with a smooth amplitude reproduces itself
    dirs = equal_area_directions(3, 120)
    gvals = (0.05 + 0.02 * dirs[:, 0] + 0.01j * dirs[:, 1] * dirs[:, 2])
    u = np.empty(grid.shape)
    for rows, r in grid.radius_slabs(center, point_bytes):
        rs = np.maximum(r, grid.spacing / 2)
        x, y, z = ((m - center) / rs for m in (mesh[0][rows], *mesh[1:]))
        g_grid = 0.05 + 0.02 * x + 0.01j * y * z
        u[rows] = -2.0 * (2 * np.pi / rs) * np.real(np.exp(1j * (rs - np.pi / 2)) * g_grid)
    report = decay_and_expansion_check(ctx, Field(grid, u), SphereSamples(dirs, gvals))
    del u
    ok = report.expansion_errors[-1] <= EXPANSION_TOL and report.trend_nonincreasing

    # sampled free-space kernel decays like 1/r
    psi = np.empty(grid.shape)
    for rows, r in grid.radius_slabs(center, point_bytes):
        psi[rows] = fundamental_solution_psi(np.maximum(r, 1e-3))
    report2 = decay_and_expansion_check(
        ctx, Field(grid, psi), SphereSamples(dirs, np.zeros(len(dirs), complex)),
        shell_count=6,
    )
    ok &= abs(report2.decay_exponent - 1.0) <= PSI_DECAY_TOL
    return ok, (f"synthetic err {report.expansion_errors[-1]:.1e}, "
                f"psi exponent {report2.decay_exponent:.3f}")


def check_farfield_antisymmetry():
    # compactly supported coefficient for a far-field-style source
    grid = GridSpec(2, 16.0, 64)
    q = bump_profile(grid, BumpDescriptor(center=(8.0, 8.0), radius=2.0, amplitude=1.0))
    ctx = FunctionalContext(Field(grid, q), 7.0)
    u = random_field(grid, np.random.default_rng(4))
    anti = conjugate_antisymmetry(farfield_amplitude(ctx, u, equal_area_directions(2, 32)))
    return anti <= ANTISYMMETRY_TOL, f"conjugate antisymmetry {anti:.2e}"


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
    field = random_field(grid, np.random.default_rng(8))
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
