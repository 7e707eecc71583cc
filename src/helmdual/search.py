"""Critical-point search on the Nehari constraint.

The descent iterates v <- t_w w with w = v - s d(v), where the default
direction is the duality-residual d = v - |Kv|^{p-2} Kv (the fixed-point
residual of the critical equation; its pairing with J'(v) is pointwise
nonnegative, so it is always a descent direction).  Steps pass a monotone
Armijo gate: either sufficient energy decrease, or, once energy differences
fall below resolution, an energy plateau combined with strict residual
decrease.  The accepted-step energies are therefore nonincreasing to within
1e-13, which is the computable analogue of descent along a pseudo-gradient
flow.

Two accelerations wrap the plain iteration without weakening the gate:

* Anderson extrapolation over a short history of Picard images (combinations
  reuse the cached linear images of K, so no extra transforms).  The
  least-squares mix works on a QR factorization of the residual differences
  that grows by one column per step and restarts from the newest image when
  the window is full (Walker & Ni, SIAM J. Numer. Anal. 2011): a new column
  costs a few passes over the grid, and the solve itself is on the small
  triangular factor;
* once the descent has settled (the residual under the polish gate and
  improving by less than SETTLE_FRACTION over SETTLE_WINDOW steps), a
  Levenberg-regularized Newton-GMRES polish of the smooth residual
  r(v) = v - |Kv|^{p-2} Kv.  Each GMRES solve stops at the Eisenstat-Walker
  forcing tolerance max(1e-10, min(1e-2, mu)), with mu = ||r|| / ||v|| the
  Levenberg shift (Eisenstat & Walker, SIAM J. Sci. Comput. 1996).  The
  polish is accepted only if it reaches the requested dual-residual
  tolerance; otherwise the pre-polish state is restored and descent
  resumes.  Polish steps solve the critical equation directly and are
  exempt from the flow-monotonicity guarantee (they move the energy by
  O(residual) at most); the recorded trajectory is the descent phase.

The iterate lives on the support of Q (see dual_functional): every power,
norm, Anderson column and Krylov vector has one entry per support point, and
the grid is touched only inside the FFT pair of K.

Every run ends in exactly one of three ways: a converged SolutionRecord,
DivergedError (energy under the configured floor), or MaxIterationsError.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergedError,
    GridMismatchError,
    MaxIterationsError,
    NoSolutionFoundError,
    NotInUPlusError,
)
from .dual_functional import FunctionalContext, odd_power
from .kernel import Field

PLATEAU_SLACK = 1e-13        # allowed energy non-decrease, below the 1e-12 contract
RESIDUAL_SHRINK = 0.999      # required residual progress on plateau steps
SETTLE_WINDOW = 50           # iterations over which "stalled" is judged
SETTLE_FRACTION = 0.5        # residual must improve by less than this to count as settled
POLISH_ENTRY_RES = 1e-4      # residual gate for the first polish attempt
POLISH_COOLDOWN = 50         # descent steps between polish attempts
KREFRESH = 20                # accepted steps between fresh transforms of the cached K image


@dataclass
class DescentConfig:
    """Tolerances and budgets of the constrained descent."""

    tol_residual: float = 1e-8
    max_iters: int = 2000
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    step_init: float = 1.0
    dedup_rel_threshold: float = 1e-2
    multistart_count: int = 20
    rng_seed: int = 0
    divergence_floor: float = -1e9
    anderson_depth: int = 6

    def __post_init__(self):
        if not (self.tol_residual > 0 and self.step_init > 0 and self.dedup_rel_threshold > 0):
            raise ValueError("tolerances and step sizes must be positive")
        if not (0 < self.armijo_c < 1 and 0 < self.armijo_shrink < 1):
            raise ValueError("armijo parameters must lie in (0, 1)")
        if self.max_iters <= 0 or self.multistart_count <= 0:
            raise ValueError("iteration and start counts must be positive")
        if self.anderson_depth < 0:
            raise ValueError("anderson_depth must be nonnegative")


@dataclass
class SolutionRecord:
    """Converged dual critical point with its primal partner and diagnostics."""

    v_star: Field
    u_star: Field
    level: float
    dual_residual: float
    primal_residual: float
    iterations: int
    orbit_shift: tuple
    sign: int
    j_values: np.ndarray
    grad_norms: np.ndarray
    v_norms: np.ndarray
    bound_constant: float
    iterate_snapshots: list
    newton_steps: int = 0
    start_index: int = -1


@dataclass
class MultistartResult:
    records: list
    level_estimate: float
    outcomes: list  # one (status, detail) pair per start


def descent_direction(ctx: FunctionalContext, v: Field) -> Field:
    """Duality-mapped gradient d = |g|^{p-2} g with g = J'(v).

    Satisfies <g, d> = ||g||_p^p and ||d||_{p'} = ||g||_p^{p-1}; used as the
    line-search fallback direction (the primary direction is the
    duality-residual of the critical equation, see module docstring).
    """
    g = ctx.gradient(v)
    return Field(ctx.grid, odd_power(g.values, ctx.exponents.p - 1.0))


# ---------------------------------------------------------------------------
# internal solver machinery (array level)
# ---------------------------------------------------------------------------


def _project_scored(ctx, w, kw, ceiling=None):
    """Fibering projection v = t_w w onto the Nehari constraint, scored in the same pass.

    Returns (v, kv, level, residual, ||J'(v)||_p, ||v||_{p'}, J'(v)), or None
    outside U^+ or when the level exceeds `ceiling` (checked before J'(v) is
    built).  The projected point shares every power with w up to a scalar
    factor: with a = |w|^{p'-1}, the mass is sum a |w|, J'(v) = t^{p'-1}
    sign(w) a - t Kw and ||v||_{p'} = t ||w||_{p'}, so |w|^{p'-1} and |J'(v)|^p
    are the only powers over the vector.  The inputs are left untouched.
    """
    pc, p = ctx.exponents.p_conj, ctx.exponents.p
    qf = ctx.weight * float(np.vdot(w, kw))
    if not np.isfinite(qf) or qf <= 0.0:
        return None
    g = np.abs(w)
    g **= pc - 1.0
    np.copysign(g, w, out=g)
    m = ctx.weight * float(np.vdot(g, w))
    if m == 0.0:
        return None
    t = (m / qf) ** (1.0 / (2.0 - pc))
    level = (1.0 / pc - 0.5) * t ** pc * m
    if ceiling is not None and level > ceiling:
        return None
    kv = t * kw
    g *= t ** (pc - 1.0)
    g -= kv
    power = np.abs(g)
    power **= p
    grad_norm = float((ctx.weight * power.sum()) ** (1.0 / p))
    del power
    v_norm = t * m ** (1.0 / pc)
    return t * w, kv, level, grad_norm / v_norm ** (pc - 1.0), grad_norm, v_norm, g


def _gmres(apply_a, b, maxk, rtol):
    """Unrestarted GMRES with Givens rotations on flat float64 arrays."""
    n0 = np.linalg.norm(b)
    if n0 == 0.0:
        return np.zeros_like(b)
    basis = [b / n0]
    hess = np.zeros((maxk + 1, maxk))
    cs = np.zeros(maxk)
    sn = np.zeros(maxk)
    resid = np.zeros(maxk + 1)
    resid[0] = n0
    k_used = 0
    for k in range(maxk):
        w = apply_a(basis[k])
        for j in range(k + 1):
            hess[j, k] = np.dot(basis[j], w)
            w = w - hess[j, k] * basis[j]
        hess[k + 1, k] = np.linalg.norm(w)
        basis.append(w / hess[k + 1, k] if hess[k + 1, k] > 1e-300 else 0.0 * w)
        for j in range(k):
            t = cs[j] * hess[j, k] + sn[j] * hess[j + 1, k]
            hess[j + 1, k] = -sn[j] * hess[j, k] + cs[j] * hess[j + 1, k]
            hess[j, k] = t
        denom = np.hypot(hess[k, k], hess[k + 1, k])
        if denom == 0.0:
            k_used = k
            break
        cs[k] = hess[k, k] / denom
        sn[k] = hess[k + 1, k] / denom
        hess[k, k] = denom
        hess[k + 1, k] = 0.0
        resid[k + 1] = -sn[k] * resid[k]
        resid[k] = cs[k] * resid[k]
        k_used = k + 1
        if abs(resid[k + 1]) <= rtol * n0:
            break
    y = np.linalg.solve(hess[:k_used, :k_used], resid[:k_used])
    return sum(y[j] * basis[j] for j in range(k_used))


def _newton_polish(ctx, v, kv, tol, max_steps=40):
    """Levenberg-regularized Newton-GMRES on r(v) = v - |Kv|^{p-2} Kv.

    Accepts steps on the Euclidean norm of r (the quantity Newton models);
    declares success only when the scale-invariant dual residual meets tol.
    Picard sweeps before each step and on exit restore the exact power
    structure of the iterate's tails, without which rounding noise under the
    (p'-1)-th root would floor the dual residual.
    """
    p = ctx.exponents.p
    steps = 0
    enter_norm = ctx.lp_norm(v, ctx.exponents.p_conj)
    fails = 0
    for _ in range(max_steps):
        picard = odd_power(kv, p - 1.0)
        projected = _project_scored(ctx, picard, ctx.apply_k_support(picard))
        if projected is not None and projected[3] <= tol:
            return projected[0], projected[1], steps, True
        if ctx.dual_residual_arrays(v, kv) <= tol:
            return v, kv, steps, True

        r = v - picard
        rn0 = np.linalg.norm(r)
        damping = np.abs(kv) ** (p - 2.0) * (p - 1.0)
        mu = rn0 / max(np.linalg.norm(v), 1e-300)

        def apply_a(w):
            return (1.0 + mu) * w - damping * ctx.apply_k_support(w)

        # Eisenstat-Walker forcing: solve loosely far from the root, tightly near it
        step = _gmres(apply_a, r, maxk=120, rtol=max(1e-10, min(1e-2, mu)))
        s, ok = 1.0, False
        for _bt in range(12):
            vn = v - s * step
            if ctx.lp_norm(vn, ctx.exponents.p_conj) < 0.3 * enter_norm:
                s *= 0.5
                continue
            kvn = ctx.apply_k_support(vn)
            rn = np.linalg.norm(vn - odd_power(kvn, p - 1.0))
            if rn < rn0 * (1.0 - 0.1 * s):
                v, kv = vn, kvn
                ok = True
                steps += 1
                break
            s *= 0.5
        if not ok:
            fails += 1
            if fails >= 2:
                break
        else:
            fails = 0
    picard = odd_power(kv, p - 1.0)
    projected = _project_scored(ctx, picard, ctx.apply_k_support(picard))
    if projected is not None and projected[3] <= tol:
        return projected[0], projected[1], steps, True
    return v, kv, steps, ctx.dual_residual_arrays(v, kv) <= tol


class _AndersonWindow:
    """Up to depth + 1 Picard images with a QR factorization of their residual differences.

    Residuals f_j = G(v_j) - v_j enter through their differences
    Delta = [f_1 - f_0, ...] = Q R (Walker & Ni, SIAM J. Numer. Anal. 2011).
    Q is stored by rows, one orthonormal vector each.  A new difference
    is orthogonalized by two classical Gram-Schmidt passes.  When the window
    is full it restarts: every column is dropped and only the newest image is
    kept, so the next push leaves 2 images and 1 column.  A column that is
    numerically dependent on the others gets a zero Q vector and a zero row in
    R, so Q R = Delta still holds and the truncated mix stays finite.  The
    images G(v_j) and K G(v_j) sit in a ring buffer, so the mixed candidate is
    one matrix-vector product per image.
    """

    def __init__(self, depth, size):
        self.depth = depth
        self.images = np.zeros((2, depth + 1, size))
        self.pushes = 0
        self.q = np.zeros((depth, size))
        self.r = np.zeros((depth, depth))
        self.cols = 0
        self.last = None
        # lstsq(Delta, f, rcond=None) truncates at eps * size; R has Delta's singular values
        self.rcond = np.finfo(float).eps * size

    def push(self, v, gv, kgv):
        """Add the Picard image gv = G(v) and its transform kgv."""
        slot = self.pushes % (self.depth + 1)
        self.images[0, slot] = gv
        self.images[1, slot] = kgv
        self.pushes += 1
        f = self.images[0, slot] - v
        if self.last is not None and self.depth > 0:
            if self.cols == self.depth:
                self.cols = 0  # restart: keep only the previous image
            self._append(f - self.last)
        self.last = f

    def _append(self, d):
        k = self.cols
        q = self.q[:k]
        h = q @ d
        w = d - h @ q
        h2 = q @ w
        w -= h2 @ q
        self.r[:k, k] = h + h2
        norm = np.linalg.norm(w)
        if norm > self.rcond * np.linalg.norm(d):
            self.q[k] = w / norm
            self.r[k, k] = norm
        else:
            self.q[k] = 0.0
            self.r[k, k] = 0.0
        self.cols = k + 1

    def gamma(self):
        """Coefficients minimizing ||Delta gamma - f|| for the newest residual f."""
        k = self.cols
        gamma, *_ = np.linalg.lstsq(self.r[:k, :k], self.q[:k] @ self.last, rcond=self.rcond)
        return gamma

    def candidate(self):
        """Mixed image sum_j theta_j G(v_j) and its transform; None below two images."""
        count = self.cols + 1  # images held since the last restart
        if count < 2:
            return None
        gamma = self.gamma()
        # image j of the window (oldest first) sits in ring slot (pushes - count + j) mod (depth + 1)
        slots = (self.pushes - count + np.arange(count)) % (self.depth + 1)
        theta = np.zeros(self.depth + 1)
        theta[slots[-1]] = 1.0
        theta[slots[1:]] -= gamma
        theta[slots[:-1]] += gamma
        return theta @ self.images[0], theta @ self.images[1]


class _SnapshotReservoir:
    """Deterministically thinned trajectory snapshots with bounded memory."""

    def __init__(self, grid):
        field_bytes = grid.size * 8
        self.cap = max(4, min(32, 4_000_000 // max(field_bytes, 1)))
        self.stride = 1
        self.items = []

    def offer(self, index, values):
        if index % self.stride != 0:
            return
        self.items.append((index, values.copy()))
        if len(self.items) > self.cap:
            self.items = self.items[::2]
            self.stride *= 2


def find_critical_point(ctx: FunctionalContext, v0: Field, cfg: DescentConfig) -> SolutionRecord:
    """Run the constrained descent from v0 until the dual residual meets tol.

    Raises NotInUPlusError when the projected seed is inadmissible,
    DivergedError when the energy crosses cfg.divergence_floor, and
    MaxIterationsError when the budget runs out.  The descent starts from v0
    restricted to the support of Q, which has the same quadratic form and a
    smaller norm, hence a lower fibering level.
    """
    pc = ctx.exponents.p_conj
    p = ctx.exponents.p
    v = ctx.restrict(np.asarray(ctx._own(v0), dtype=float))
    if not np.any(v):
        raise NotInUPlusError("zero initial field is inadmissible")
    projected = _project_scored(ctx, v, ctx.apply_k_support(v))
    if projected is None:
        raise NotInUPlusError("initial field has nonpositive quadratic form")
    v, kv, level, res, grad_norm, v_norm, g = projected

    j_values = [level]
    grad_norms = [grad_norm]
    v_norms = [v_norm]
    snapshots = _SnapshotReservoir(ctx.grid)
    snapshots.offer(0, v)

    anderson = _AndersonWindow(cfg.anderson_depth, v.size)
    iterations = 0
    newton_steps = 0
    res_window = [res]
    polish_gate = POLISH_ENTRY_RES
    cooldown = 0

    def _record(jv, gn, vn):
        j_values.append(jv)
        grad_norms.append(gn)
        v_norms.append(vn)

    def _passes(candidate, bound):
        """Monotone gate: energy at most bound, or a plateau with residual progress."""
        level_new, res_new = candidate[2], candidate[3]
        return level_new <= bound or (
            level_new <= level + plateau and res_new <= RESIDUAL_SHRINK * res
        )

    def _finish(v_fin, kv_fin, res_fin):
        level_fin = ctx.energy_arrays(v_fin, kv_fin)
        vf = Field(ctx.grid, ctx.extend(v_fin))
        u = ctx.dual_to_primal(vf)
        bound_constant = max(
            max(2.0 * j for j in j_values),
            max(grad_norms),
            1e-300,
        )
        return SolutionRecord(
            v_star=vf,
            u_star=u,
            level=level_fin,
            dual_residual=res_fin,
            primal_residual=ctx.primal_residual(u),
            iterations=iterations,
            orbit_shift=(0,) * ctx.grid.dimension,
            sign=1,
            j_values=np.asarray(j_values),
            grad_norms=np.asarray(grad_norms),
            v_norms=np.asarray(v_norms),
            bound_constant=bound_constant,
            iterate_snapshots=[Field(ctx.grid, ctx.extend(arr)) for _, arr in snapshots.items],
            newton_steps=newton_steps,
        )

    while True:
        if res <= cfg.tol_residual:
            kv = ctx.apply_k_support(v)  # fresh transform before declaring victory
            res = ctx.dual_residual_arrays(v, kv)
            if res <= cfg.tol_residual:
                return _finish(v, kv, res)
        if level < cfg.divergence_floor:
            raise DivergedError(
                f"energy {level:.3e} fell under the divergence floor",
                iterations=iterations, level=level,
            )
        if iterations >= cfg.max_iters:
            raise MaxIterationsError(
                f"no convergence within {cfg.max_iters} iterations "
                f"(residual {res:.3e})",
                iterations=iterations, residual=res, level=level,
            )

        # -- Newton polish once the descent has settled ----------------------
        settled = len(res_window) > SETTLE_WINDOW and res > SETTLE_FRACTION * res_window[-SETTLE_WINDOW]
        if cooldown > 0:
            cooldown -= 1
        elif res <= polish_gate and settled:
            v_try, kv_try, steps, ok = _newton_polish(ctx, v, kv, cfg.tol_residual)
            newton_steps += steps
            iterations += max(steps, 1)
            if ok:
                projected = _project_scored(ctx, v_try, ctx.apply_k_support(v_try))
                if projected is not None and projected[3] <= cfg.tol_residual:
                    return _finish(projected[0], projected[1], projected[3])
            # restore the pre-polish state and demand real progress before retrying
            polish_gate = res / 4.0
            cooldown = POLISH_COOLDOWN
            continue

        # -- one descent step -------------------------------------------------
        picard = odd_power(kv, p - 1.0)
        image = _project_scored(ctx, picard, ctx.apply_k_support(picard))
        if image is None:
            raise MaxIterationsError(
                "iteration left the admissible cone",
                iterations=iterations, residual=res, level=level,
            )
        gv, kgv = image[0], image[1]
        anderson.push(v, gv, kgv)

        plateau = PLATEAU_SLACK * max(1.0, abs(level))
        accepted = None

        mixed = anderson.candidate()
        if mixed is not None:
            # strict energy decrease, or the plateau branch; a level above
            # level + plateau fails both, so such a candidate is not scored further
            candidate = _project_scored(ctx, *mixed, ceiling=level + plateau)
            if candidate is not None and _passes(candidate, np.nextafter(level, -np.inf)):
                accepted = candidate

        if accepted is None:
            # damped Picard line search; w = (1-s) v + s G(v) reuses cached images,
            # and the full step s = 1 is the projected image G(v), already scored
            slope = max(ctx.inner(g, v - gv), 0.0)
            s = min(cfg.step_init, 1.0)
            for _bt in range(60):
                if s == 1.0:
                    candidate = image
                else:
                    candidate = _project_scored(ctx, (1.0 - s) * v + s * gv, (1.0 - s) * kv + s * kgv)
                if candidate is not None and _passes(candidate, level - cfg.armijo_c * s * slope):
                    accepted = candidate
                    break
                s *= cfg.armijo_shrink

        if accepted is None:
            # duality-map fallback direction (requires a fresh transform per trial);
            # its pairing with J'(v) is ||J'(v)||_p
            d = odd_power(g, p - 1.0)
            dn = ctx.lp_norm(d, pc)
            if dn > 0.0:
                d /= dn
                s = min(cfg.step_init, 1.0)
                for _bt in range(40):
                    w = v - s * d
                    candidate = _project_scored(ctx, w, ctx.apply_k_support(w))
                    if candidate is not None and _passes(candidate, level - cfg.armijo_c * s * grad_norm):
                        accepted = candidate
                        break
                    s *= cfg.armijo_shrink

        if accepted is None:
            raise MaxIterationsError(
                f"line search stalled at residual {res:.3e}",
                iterations=iterations, residual=res, level=level,
            )
        v, kv, level, res, grad_norm, v_norm, g = accepted

        iterations += 1
        if iterations % KREFRESH == 0:
            kv = ctx.apply_k_support(v)
            g = ctx.gradient_arrays(v, kv)  # v and its norm are unchanged
            grad_norm = ctx.lp_norm(g, p)
            res = grad_norm / v_norm ** (pc - 1.0)
        _record(level, grad_norm, v_norm)
        snapshots.offer(iterations, v)
        res_window.append(res)
        if len(res_window) > SETTLE_WINDOW + 1:
            res_window.pop(0)


# ---------------------------------------------------------------------------
# orbits, seeding, multistart
# ---------------------------------------------------------------------------


def orbit_distance(ctx: FunctionalContext, v: Field, w: Field) -> float:
    """Min over integer lattice shifts and sign of ||v - (+-w)(. - y)||_{p'}.

    Zero exactly when w is a signed unit-cell translate of v.  Requires the
    grid to support unit translations (points_per_axis divisible by L).
    """
    if v.grid != w.grid:
        raise GridMismatchError("orbit distance needs fields on the same grid")
    shift_pts = v.grid.unit_shift_points
    if shift_pts is None:
        raise GridMismatchError("grid does not support unit-cell translations")
    pc = ctx.exponents.p_conj
    cells = int(round(v.grid.box_length))
    best = np.inf
    wv = w.values
    for shifts in itertools.product(range(cells), repeat=v.grid.dimension):
        rolled = wv
        for axis, cell_shift in enumerate(shifts):
            if cell_shift:
                rolled = np.roll(rolled, cell_shift * shift_pts, axis=axis)
        for sign in (1.0, -1.0):
            dist = ctx.lp_norm(v.values - sign * rolled, pc)
            if dist < best:
                best = dist
    return float(best)


def mass_centroid(ctx: FunctionalContext, v: Field) -> np.ndarray:
    """Circular centroid of the |v|^{p'} mass over the torus, in [0, L)^N."""
    weight = np.abs(v.values) ** ctx.exponents.p_conj
    total = weight.sum()
    L = ctx.grid.box_length
    if total == 0.0:
        return np.full(ctx.grid.dimension, L / 2.0)
    mesh = ctx.grid.coordinate_mesh()
    out = np.empty(ctx.grid.dimension)
    for axis in range(ctx.grid.dimension):
        phase = np.sum(weight * np.exp(2j * np.pi * mesh[axis] / L))
        out[axis] = (np.angle(phase) / (2.0 * np.pi) * L) % L
    return out


def recenter(ctx: FunctionalContext, record: SolutionRecord) -> SolutionRecord:
    """Shift the representative by whole unit cells so its mass centroid
    lands nearest the box center, and normalize the sign at the peak."""
    grid = ctx.grid
    shift_pts = grid.unit_shift_points
    if shift_pts is not None and ctx.coefficient.periodic:
        centroid = mass_centroid(ctx, record.v_star)
        cells = int(round(grid.box_length))
        shift_cells = tuple(
            int(np.rint((grid.box_length / 2.0 - c))) % cells for c in centroid
        )
        if any(shift_cells):
            v = record.v_star.values
            u = record.u_star.values
            for axis, cell_shift in enumerate(shift_cells):
                if cell_shift:
                    v = np.roll(v, cell_shift * shift_pts, axis=axis)
                    u = np.roll(u, cell_shift * shift_pts, axis=axis)
            record.v_star = Field(grid, v)
            record.u_star = Field(grid, u)
        record.orbit_shift = shift_cells
    peak = np.unravel_index(np.argmax(np.abs(record.v_star.values)), grid.shape)
    if record.v_star.values[peak] < 0.0:
        record.v_star = -record.v_star
        record.u_star = -record.u_star
        record.sign = -1
    return record


def initial_field(ctx: FunctionalContext, rng: np.random.Generator) -> Field:
    """Random low-mode trigonometric polynomial under a Gaussian bump.

    The bump center is uniform over the box for periodic coefficients and
    jittered around the coefficient's support centroid otherwise, so seeds
    land where the nonlinearity is active.
    """
    grid = ctx.grid
    n = grid.points_per_axis
    L = grid.box_length
    dim = grid.dimension

    if ctx.coefficient.periodic:
        center = rng.uniform(0.0, L, size=dim)
        width = max(L / 7.0, 3.0 * grid.spacing)
    else:
        q = ctx.coefficient.field.values
        mesh = grid.coordinate_mesh()
        total = q.sum()
        centroid = np.array([float((q * m).sum() / total) for m in mesh])
        support = q > 0
        dist2 = sum((m - c) ** 2 for m, c in zip(mesh, centroid))
        support_radius = float(np.sqrt(dist2[support].max())) if support.any() else L / 4.0
        center = centroid + rng.normal(scale=L / 32.0, size=dim)
        width = max(support_radius / 2.0, 3.0 * grid.spacing)

    mesh = grid.coordinate_mesh()
    dist2 = np.zeros(grid.shape)
    for axis in range(dim):
        d = np.abs(mesh[axis] - center[axis])
        d = np.minimum(d, L - d)
        dist2 = dist2 + d ** 2
    envelope = np.exp(-dist2 / (2.0 * width ** 2))

    # Hermitian low-mode spectrum => real trig polynomial in one transform
    spectrum = np.zeros(grid.shape, dtype=complex)
    modes = [m for m in itertools.product(range(-3, 4), repeat=dim) if any(m) and m > tuple(-x for x in m)]
    coeffs = rng.normal(size=(len(modes), 2))
    for (a, b), m in zip(coeffs, modes):
        idx = tuple(mi % n for mi in m)
        neg = tuple((-mi) % n for mi in m)
        spectrum[idx] = a - 1j * b
        spectrum[neg] = a + 1j * b
    trig = np.fft.ifftn(spectrum).real * grid.size

    return Field(grid, envelope * trig)


def _solve_one(args):
    ctx, cfg, index, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    v0 = initial_field(ctx, rng)
    try:
        record = find_critical_point(ctx, v0, cfg)
        record.start_index = index
        return index, "converged", record
    except NotInUPlusError as exc:
        return index, "not_in_u_plus", str(exc)
    except DivergedError as exc:
        return index, "diverged", f"{exc} (iterations={exc.iterations})"
    except MaxIterationsError as exc:
        return index, "max_iters", f"{exc} (residual={exc.residual:.3e})"


def multistart_search(ctx: FunctionalContext, cfg: DescentConfig, workers: int = 1):
    """Seeded multistart descent with orbit deduplication.

    Returns a MultistartResult whose records are geometrically distinct
    (pairwise orbit distance above the configured threshold), sorted by
    (level, lexicographic field bytes).  Deterministic for a fixed seed
    regardless of the worker count.
    """
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.multistart_count)
    jobs = [(ctx, cfg, i, seeds[i]) for i in range(cfg.multistart_count)]

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_solve_one, jobs))
    else:
        raw = [_solve_one(job) for job in jobs]
    raw.sort(key=lambda item: item[0])

    outcomes = [(status, detail if isinstance(detail, str) else "") for _, status, detail in raw]
    records = [detail for _, status, detail in raw if status == "converged"]
    if not records:
        raise NoSolutionFoundError(
            f"all {cfg.multistart_count} starts failed: "
            + ", ".join(status for status, _ in outcomes)
        )

    records = [recenter(ctx, rec) for rec in records]
    records.sort(key=lambda rec: (rec.level, rec.v_star.values.tobytes()))

    can_dedup = ctx.grid.unit_shift_points is not None
    distinct = []
    for rec in records:
        duplicate = False
        for kept in distinct:
            scale = max(
                rec.v_star.lp_norm(ctx.exponents.p_conj),
                kept.v_star.lp_norm(ctx.exponents.p_conj),
            )
            if can_dedup and ctx.coefficient.periodic:
                dist = orbit_distance(ctx, rec.v_star, kept.v_star)
            else:
                dist = min(
                    (rec.v_star - kept.v_star).lp_norm(ctx.exponents.p_conj),
                    (rec.v_star + kept.v_star).lp_norm(ctx.exponents.p_conj),
                )
            if dist <= cfg.dedup_rel_threshold * scale:
                duplicate = True
                break
        if not duplicate:
            distinct.append(rec)

    return MultistartResult(
        records=distinct,
        level_estimate=min(rec.level for rec in distinct),
        outcomes=outcomes,
    )


def ps_boundedness_check(ctx: FunctionalContext, iterates, C: float) -> bool:
    """Palais-Smale norm bound: every iterate satisfies
    ||v||_{p'}^{p'-1} <= max(1, C / (1/p' - 1/2))."""
    pc = ctx.exponents.p_conj
    bound = max(1.0, C / (1.0 / pc - 0.5))
    for v in iterates:
        if v.lp_norm(pc) ** (pc - 1.0) > bound:
            return False
    return True
