"""Critical-point search on the Nehari constraint.

The descent iterates v <- t_w w from the Picard image w = G(v) = |Kv|^{p-2} Kv,
whose step v - G(v) is the duality-residual of the critical equation (its
pairing with J'(v) is pointwise nonnegative, so it is always a descent
direction).  Steps pass a monotone Armijo gate: either sufficient energy
decrease, or, once energy differences fall below resolution, an energy
plateau combined with strict residual decrease.  The accepted-step energies
are therefore nonincreasing to within 1e-13, which is the computable
analogue of descent along a pseudo-gradient flow.

Each step takes the first rung of a fixed ladder whose candidate passes
that gate (`_passes`); every rung returns a scored point (`_Point`) or None:

1. `_snap_rung`, once per start, at step SNAP_AFTER, for a Q whose
   support's box spans the grid: the profile placed at its best position
   (the snap, below), if it passes the gate with a strict decrease.  The
   Anderson window restarts and the heavy ball forgets its previous point.
   Otherwise the step goes on to `_step`, which projects and scores the
   Picard image G(v) once and pushes it to the Anderson window;
2. `_anderson_rung`: Anderson extrapolation over a short history of Picard
   images (combinations reuse the cached linear images of K, so no extra
   transforms).  The least-squares mix works on a QR factorization of the
   residual differences that grows by one column per step and restarts
   from the newest image when the window is full (Walker & Ni, SIAM J.
   Numer. Anal. 2011).  A new column costs one classical Gram-Schmidt pass
   over the vector, and a second only when the Daniel-Gragg-Kaufman-Stewart
   test asks for it; the solve is a back substitution on the small
   triangular factor.  A mix that passes the gate with a residual above the
   iterate's is scored again on a fresh transform, because a mix with large
   coefficients cancels and its combined image drifts from K of the mix;
3. `_heavy_ball_rung`: w = G(v) + MOMENTUM (v - v_prev) (Polyak 1964), with
   the Picard map G in the role of the preconditioned gradient, as in
   Petviashvili-type iterations.  Its image K G(v) + MOMENTUM (Kv - Kv_prev)
   comes from cached images.  It has no v_prev on a start's first step and
   on the step after a snap;
4. `_picard_rung`: the plain step G(v), already scored.  It and the heavy
   ball must pass the Armijo bound J(v) - ARMIJO_C <J'(v), v - G(v)>.

A descent ends in one of three MaxIterationsErrors (`_failure`, whose
message names the grid): a step where no rung passes ("line search
stalled"), a Picard image outside U^+ ("iteration left the admissible
cone") and the step budget.  Every KREFRESH accepted steps the point's
cached image is taken again on a fresh transform (`_refreshed`), and a
residual below the tolerance is confirmed on one before the descent returns.

For a Q with full support, the level of one bump profile depends on where
it sits: in the unit cell for a Q declared unit-periodic (`ctx.periodic`),
whose solutions come as Z^N translates of bumps, and in the whole box
otherwise (for a periodic background plus a bump, in or out of the bump's
well).  That position landscape is shallow (about 1e-4 relative in the
cell), so plain descent spends most of its steps drifting along it.  Two
steps handle the position directly.  Both place the profile phi = |u|^{p-2} u
of the primal u = R(Q^{1/p} v) at a grid shift y, as w_y = Q^{(p-1)/p} phi(. - y)
on the support.  The landscape level of w_y, its fibering level, needs only
the quadratic form and the mass: by Parseval the form is a sum of
sigma |F(Q phi(. - y))|^2 over one real forward FFT, and the mass a
correlation of Q with |phi|^{p'}, taken once.  Levels within LEVEL_TIE
(relative) of each other are ties, here and in the critical shifts, so a
symmetric pair of shifts is not resolved by rounding.  A chosen shift is
scored in full by the fibering projection like any candidate:

* the snap (`_snap`), the search of the first rung: the shifts of the unit
  cell (unit-periodic Q) or of the whole box (any other Q) are searched
  coarse to fine (stride extent/4, then halving around the best shift; a
  tie keeps the earlier shift), and the placement at the lowest level is
  the rung's candidate.  A Q whose support's box is smaller than the grid
  never snaps;
* the placement, for a unit-periodic Q only: after orbit dedup, the first
  (lowest) record's landscape is evaluated at every shift of the unit cell.
  Its discrete critical shifts (extrema over all neighbours, or saddles,
  where the ring of neighbours in a coordinate plane changes sign at least 4
  times) fall into small clusters; the centre of each cluster away from
  shift 0 is placed and taken to the tolerance by the same descent as any
  start, within SNAP_AFTER steps, so before its snap could move it; each
  success joins the dedup as a record of its own.  By Lusternik-Schnirelmann
  theory a profile has at least cat(T^N) = N + 1 critical positions, so this
  finds the saddle and maximum positions that random starts reach only by
  chance.

The random starts run on the half grid first when there is one (`_coarse`:
Q > 0 everywhere, n divisible by 4 and, for a unit-periodic Q, unit shifts
at n/2), with Q sampled at the even grid points.  Each start is drawn on
the run's grid, and its even points descend to the tolerance.  Those
records are deduplicated on the half grid, and each distinct one, carried
to the run's grid by trigonometric interpolation (`prolong`), starts one
descent there under its start's index (nested iteration, the first half of
full multigrid: Briggs, Henson & McCormick, A Multigrid Tutorial, ch. 3).
Spectral levels converge fast in n, so that descent is short: 2 steps on
the reference solve.  A start that fails on either grid has that status; a
start merged on the half grid is "converged" and has no record of its own.
Everything after (dedup, recentering, the placement, the primal check)
runs on the run's grid.  One runner (`_descend`) takes each descent of a
start, random, lifted, placed or the transplant of `compare`, on one grid,
and it alone maps the descent's errors to the start's status.

The orbit distance is the minimum over the shifts of the context's orbit
group (`FunctionalContext.cells`: the unit-cell shifts of a unit-periodic
Q, the identity alone for any other Q) and both signs, and one pruned
search (`_within_orbit`) computes it.  A lower bound on every such distance
comes from the L2 distances, which one Gram matrix of cell blocks gives for
all shifts at once, and exact p'-norms are taken in ascending order of the
bound until it rules out the rest.  The dedup runs the search with its
radius, and `orbit_distance` with none.  The dedup compares the support
vectors v, extended to the grid for a unit-periodic Q.

The iterate lives on the support of Q (see dual_functional): every power,
norm and Anderson column has one entry per support point, and the grid is
touched only inside the FFT pair of K.  A start stops at the
critical point: its record holds the support vector v, and a worker hands
back nothing the size of the grid.  `recenter` picks the orbit's
representative (a unit-cell shift for a unit-periodic Q and the sign of the
peak) and keeps no grid array, and only the records the dedup keeps are
finished (`finish_records`): u = R(Q^{1/p} v) from the unshifted v and its
primal check in u's own half spectrum, one record at a time, and u is
dropped.  A record keeps no grid field.  The grid field of v has one
formula (`grid_field`), built where it is used (the solve's writer, the
transplant of `compare`, the self-test's rerun), which also breaks ties:
records sort by level, and the bytes of their grid fields are built only
when levels tie.  The primal partner u, moved by the record's shift and
sign, has one too (`primal_field`), built where it is used: once per record
by the solve's writer, which also reads its peak, once by the placement
and once by the far-field run.

Every run ends in exactly one of two ways: a converged SolutionRecord or
MaxIterationsError.  The energy cannot run away below zero: every level the
descent compares is a fibering level (1/p' - 1/2) t^{p'} ||w||_{p'}^{p'} > 0.
A placed record has start_index -1, and its trajectory and iterations are
those of its descent from the placed start; the transplant of `compare`
has start_index -2.
"""

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    MaxIterationsError,
    NoSolutionFoundError,
    NotInUPlusError,
    WorkerPoolError,
)
from .dual_functional import FunctionalContext, abs_power, odd_power, prolong
from .kernel import Field

PLATEAU_SLACK = 1e-13        # allowed energy non-decrease, below the 1e-12 contract
RESIDUAL_SHRINK = 0.999      # required residual progress on plateau steps
KREFRESH = 20                # accepted steps between fresh transforms of the cached K image
MOMENTUM = 0.4               # heavy-ball weight beta; stronger momentum merges orbits
ARMIJO_C = 1e-4              # sufficient-decrease constant of the heavy-ball and Picard bound
ANDERSON_DEPTH = 6           # residual-difference columns before the Anderson window restarts
DGKS_ETA = 2.0 ** -0.5       # a Gram-Schmidt pass keeping less of the column's norm is repeated
SNAP_AFTER = 5               # accepted steps before a start snaps to its best position
LEVEL_TIE = 1e-13            # relative difference of landscape levels that counts as a tie


@dataclass
class DescentConfig:
    """Tolerances and budgets of the constrained descent."""

    tol_residual: float = 1e-8
    max_iters: int = 2000
    dedup_rel_threshold: float = 1e-2
    multistart_count: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("tol_residual", "dedup_rel_threshold", "max_iters", "multistart_count"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed (the run's seed) must be nonnegative, got {self.rng_seed!r}")


@dataclass
class SolutionRecord:
    """Converged dual critical point with its primal partner and diagnostics.

    `find_critical_point` fills in the descent's support vector `v` (the
    values on the support of Q), its level, dual residual and trajectory.
    `recenter` picks the orbit's representative (`orbit_shift`, `sign`), and
    `finish_records` adds the `primal_residual` of the primal partner u;
    until then it is None.  A record keeps no grid array: the grid field of
    v is `grid_field(ctx, record)` and u is `primal_field(ctx, record)`,
    each built on each call.  The runner of every start (`_descend`) sets
    `start_index`: the random start's index, on either grid, -1 for a record
    of the placement and -2 for the transplant of `compare`.  `iterations`
    count the record's own descent: from its start, or for a random start
    with a half grid, on the run's grid from its prolonged critical point.
    `newton_steps` is always 0; the field and its CSV column are kept
    because the CSV schema is public.
    """

    v: np.ndarray
    level: float
    dual_residual: float
    iterations: int
    orbit_shift: tuple
    j_values: np.ndarray
    grad_norms: np.ndarray
    v_norms: np.ndarray
    bound_constant: float
    sign: int = 1
    newton_steps: int = 0
    start_index: int = -1
    primal_residual: float = None


@dataclass
class MultistartResult:
    records: list
    level_estimate: float
    outcomes: list  # one (status, detail) pair per start


# ---------------------------------------------------------------------------
# internal solver machinery (array level)
# ---------------------------------------------------------------------------


class _Point(NamedTuple):
    """A point of the descent on the Nehari constraint, scored: v, its image
    kv = K v, the level J(v), the dual residual res, ||J'(v)||_p, ||v||_{p'}
    and J'(v)."""

    v: np.ndarray
    kv: np.ndarray
    level: float
    res: float
    grad_norm: float
    v_norm: float
    g: np.ndarray


def _project_scored(ctx, w, kw, ceiling=None):
    """Fibering projection v = t_w w onto the Nehari constraint, scored in the same pass.

    Returns the _Point of v, or None outside U^+ or when the level exceeds
    `ceiling` (checked before J'(v) is built).  The projected point shares
    every power with w up to a scalar factor: with a = |w|^{p'-1}, the mass
    is sum a |w|, J'(v) = t^{p'-1} sign(w) a - t Kw and ||v||_{p'} =
    t ||w||_{p'}, so |w|^{p'-1} and |J'(v)|^p are the only powers over the
    vector.  The inputs are left untouched.
    """
    pc, p = ctx.exponents.p_conj, ctx.exponents.p
    qf = ctx.weight * float(np.vdot(w, kw))
    if not np.isfinite(qf) or qf <= 0.0:
        return None
    g = abs_power(w, pc - 1.0)
    np.copysign(g, w, out=g)
    m = ctx.weight * float(np.vdot(g, w))
    if m == 0.0:
        return None
    t, level = ctx.fibering(m, qf)
    if ceiling is not None and level > ceiling:
        return None
    kv = t * kw
    g *= t ** (pc - 1.0)
    g -= kv
    power = abs_power(g, p)
    grad_norm = float((ctx.weight * power.sum()) ** (1.0 / p))
    del power
    v_norm = t * m ** (1.0 / pc)
    return _Point(t * w, kv, level, grad_norm / v_norm ** (pc - 1.0), grad_norm, v_norm, g)


class _AndersonWindow:
    """Up to depth + 1 Picard images with a QR factorization of their residual differences.

    Residuals f_j = G(v_j) - v_j enter through their differences
    Delta = [f_1 - f_0, ...] = Q R (Walker & Ni, SIAM J. Numer. Anal. 2011).
    Q is stored by rows, one orthonormal vector each.  A new difference d
    is orthogonalized by one classical Gram-Schmidt pass, and by a second
    only when the first leaves ||w|| < ||d|| / sqrt(2), the test of Daniel,
    Gragg, Kaufman & Stewart (Math. Comp. 30, 1976) for a cancellation that
    the first pass cannot be trusted with.  The window restarts when it is
    full or when a new difference d_k is numerically dependent on its
    columns, that is when its diagonal |r_kk| would not exceed
    rcond ||d_k||, rcond being lstsq's truncation threshold: every column is
    dropped and only the previous image is kept, so the push leaves 2
    images and 1 column (1 image and no column when the difference is
    exactly zero).  So each |r_kk| exceeds rcond ||d_k||, which is positive,
    and the mix solves R gamma = Q^T f by back substitution.  The images
    G(v_j) and K G(v_j) sit in a ring buffer, so the mixed candidate is one
    matrix-vector product per image.
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
        if self.last is not None:
            d = f - self.last
            if self.cols == self.depth or not self._append(d):
                self.cols = 0  # restart: keep only the previous image
                self._append(d)
        self.last = f

    def _append(self, d):
        """Add the column d to Q R; False, adding nothing, when d is numerically
        dependent on the columns: its new diagonal would not exceed rcond ||d||."""
        k = self.cols
        q = self.q[:k]
        h = q @ d
        w = d - h @ q
        norm, d_norm = np.linalg.norm(w), np.linalg.norm(d)
        if norm < d_norm * DGKS_ETA:  # cancellation: orthogonalize once more
            h2 = q @ w
            w -= h2 @ q
            h += h2
            norm = np.linalg.norm(w)
        if not norm > self.rcond * d_norm:
            return False
        self.r[:k, k] = h
        self.q[k] = w / norm
        self.r[k, k] = norm
        self.cols = k + 1
        return True

    def gamma(self):
        """Coefficients minimizing ||Delta gamma - f|| for the newest residual f."""
        k = self.cols
        r = self.r[:k, :k]
        rhs = self.q[:k] @ self.last
        gamma = np.zeros(k)
        for i in reversed(range(k)):
            gamma[i] = (rhs[i] - r[i, i + 1:] @ gamma[i + 1:]) / r[i, i]
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


# ---------------------------------------------------------------------------
# the position landscape of a periodic coefficient
# ---------------------------------------------------------------------------


def _profile(ctx, u):
    """phi = |u|^{p-2} u of the primal grid field u, with the weight Q^{(p-1)/p} on the support."""
    p = ctx.exponents.p
    return odd_power(u, p - 1.0), ctx.q_support ** (p - 1.0)


def _placed(ctx, profile, shift):
    """The profile placed at grid shift y, w_y = Q^{(p-1)/p} phi(. - y) on the support.

    At y = 0 and u = R(Q^{1/p} v) this is the Picard image |Kv|^{p-2} Kv.
    Returns _project_scored of w_y: its level is the landscape at y.
    """
    phi, weight = profile
    w = weight * ctx.restrict(np.roll(phi, shift, axis=tuple(range(phi.ndim))))
    return _project_scored(ctx, w, ctx.apply_k_support(w))


def _landscape(ctx, profile):
    """The level of _placed(ctx, profile, y) as a function of the shift y, one real FFT each.

    The source of w_y in the FFT pair of K is f_y = Q phi(. - y), so by
    Parseval the quadratic form is h^N/n^N sum_k sigma(k) |F f_y(k)|^2, and
    the mass is h^N sum Q |phi(. - y)|^{p'}.  Both are invariant under
    translating the whole integrand by y, so Q(. + y) replaces phi(. - y):
    |phi|^{p'} is taken once, and each shift costs one roll of Q, one
    `rfftn` (sigma is real and even, so the interior columns of the last
    axis count twice) and two sums.  Returns level(shift), inf outside U^+.
    """
    pc = ctx.exponents.p_conj
    phi = profile[0]
    axes = tuple(range(phi.ndim))
    mass = np.abs(phi) ** pc
    q = ctx.q
    n = ctx.grid.points_per_axis
    sigma = ctx.half_sigma() * (ctx.weight / ctx.grid.size)
    sigma[..., 1 : n // 2] *= 2.0
    sigma = np.repeat(sigma, 2, axis=-1)  # weights of the (real, imag) float pairs

    def level(shift):
        q_y = np.roll(q, tuple(-s for s in shift), axis=axes)
        spec = np.fft.rfftn(q_y * phi).view(float)
        spec *= spec
        spec *= sigma
        qf = float(spec.sum())
        q_y *= mass
        m = ctx.weight * float(q_y.sum())
        if not np.isfinite(qf) or qf <= 0.0 or m == 0.0:
            return np.inf
        return ctx.fibering(m, qf)[1]

    return level


def _snap(ctx, v):
    """Lowest placement of v's profile over the unit cell or the whole box, coarse to fine.

    v is a support vector, and its profile comes from u = R(Q^{1/p} v), one
    `resolvent_array` over the support's box, which spans the grid here
    (`find_critical_point` snaps only then).  The shifts range over the cell
    of the context's orbit group (`ctx.cell_points` per axis): the unit cell
    for a unit-periodic Q, the whole box otherwise.  Shifts on
    the stride extent/4 lattice first, then the neighbours of the best shift
    at half the stride, down to stride 1 (32 shifts for a 16-point cell in
    2d), on the landscape levels; a level within LEVEL_TIE of the best so far
    is a tie and keeps the earlier shift.  Returns the scored placement at
    the best shift, or None when no shift is in U^+.
    """
    extent = ctx.cell_points
    dim = ctx.grid.dimension
    profile = _profile(ctx, ctx.resolvent_array(v))
    level = _landscape(ctx, profile)
    stride = max(extent // 4, 1)
    shifts = itertools.product(range(0, extent, stride), repeat=dim)
    best_shift, best = None, np.inf
    while True:
        for shift in shifts:
            here = level(shift)
            if here < best * (1.0 - LEVEL_TIE):
                best_shift, best = shift, here
        if best_shift is None:
            return None
        if stride == 1:
            return _placed(ctx, profile, best_shift)
        stride //= 2
        shifts = [tuple((c + stride * d) % extent for c, d in zip(best_shift, step))
                  for step in itertools.product((-1, 0, 1), repeat=dim) if any(step)]


def _critical_shifts(landscape):
    """Boolean mask of the discrete critical points of a periodic landscape array.

    A point is critical when it lies strictly below or strictly above all of
    its 3^N - 1 neighbours, or when, in some coordinate plane, the ring of its
    8 neighbours changes sign relative to it at least 4 times (a saddle).
    Differences within rounding of the landscape count as ties: they carry
    no sign, and a ring's sign changes are counted between its signed
    neighbours, so a level line through a grid point makes no saddle.
    """
    dim = landscape.ndim
    axes = tuple(range(dim))
    tie = LEVEL_TIE * np.abs(landscape[np.isfinite(landscape)]).max(initial=0.0)

    def sign(step):
        rise = np.roll(landscape, tuple(-s for s in step), axis=axes) - landscape
        return np.where(np.abs(rise) > tie, np.sign(rise), 0.0)

    signs = {s: sign(s) for s in itertools.product((-1, 0, 1), repeat=dim) if any(s)}
    every = np.array(list(signs.values()))
    critical = np.all(every > 0, axis=0) | np.all(every < 0, axis=0)
    ring = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))
    for a, b in itertools.combinations(axes, 2):
        around = []
        for da, db in ring:
            step = [0] * dim
            step[a], step[b] = da, db
            around.append(signs[tuple(step)])
        around = np.array(around)
        for _ in ring:  # a tie takes the sign before it on the ring
            around = np.where(around == 0.0, np.roll(around, 1, axis=0), around)
        critical |= np.sum(around != np.roll(around, 1, axis=0), axis=0) >= 4
    return critical


def _cluster_centres(mask):
    """One index per cluster of True entries, neighbours meaning periodic Chebyshev distance 1.

    Each cluster gives its member nearest the cluster's mean position (the
    first such member in row-major order on a tie).
    """
    shape = np.array(mask.shape)

    def offset(a, b):
        return (np.subtract(b, a) + shape // 2) % shape - shape // 2

    unseen = [tuple(int(i) for i in index) for index in np.argwhere(mask)]
    clusters = []
    while unseen:
        cluster = [unseen.pop(0)]
        for member in cluster:  # the loop also visits members appended below
            near = [q for q in unseen if np.abs(offset(member, q)).max() <= 1]
            unseen = [q for q in unseen if q not in near]
            cluster.extend(near)
        offsets = np.array([offset(cluster[0], q) for q in cluster])
        spread = ((offsets - offsets.mean(axis=0)) ** 2).sum(axis=1)
        clusters.append((cluster, cluster[int(np.argmin(spread))]))
    return clusters


def _place(ctx, record, cfg):
    """Records descended from the record's profile placed at the critical shifts of its landscape.

    The landscape is the level of every placement over the unit cell.
    Critical shifts come in small clusters around each critical point of the
    continuous landscape, and a cluster member off the point's symmetry lines
    descends slowly onto an orbit its centre reaches in a few steps.  So each
    cluster is placed once, at its centre, and the cluster of shift 0 (the
    record itself) is skipped.  Each placed start runs through the runner of
    every start (`_descend`, start index -1) with a budget of
    SNAP_AFTER steps, which ends where its snap would begin, so no placed
    start is snapped off its position; a start that has not met the
    tolerance by then is dropped.
    """
    cell = ctx.cell_points
    profile = _profile(ctx, primal_field(ctx, record).values)
    level = _landscape(ctx, profile)
    shifts = itertools.product(range(cell), repeat=ctx.grid.dimension)
    landscape = np.reshape([level(shift) for shift in shifts], (cell,) * ctx.grid.dimension)
    placed = []
    for cluster, shift in _cluster_centres(_critical_shifts(landscape)):
        if (0,) * ctx.grid.dimension in cluster:
            continue  # the record itself
        start = _placed(ctx, profile, shift)
        if start is None:
            continue  # an infinite peak of the landscape: outside U^+
        status, found = _descend(ctx, start.v, replace(cfg, max_iters=SNAP_AFTER), -1)
        if status == "converged":  # a start not at the tolerance within its budget is dropped
            placed.append(found)
    return placed


# ---------------------------------------------------------------------------
# the step ladder
# ---------------------------------------------------------------------------


def _ceiling(point):
    """The highest level the gate lets through from point: its level plus the plateau slack."""
    return point.level + PLATEAU_SLACK * max(1.0, abs(point.level))


def _passes(candidate, point, bound):
    """The monotone gate from point: a candidate with level at most bound, or on the
    plateau (level at most `_ceiling`) with residual progress.  None never passes."""
    return candidate is not None and (candidate.level <= bound or (
        candidate.level <= _ceiling(point) and candidate.res <= RESIDUAL_SHRINK * point.res))


def _failure(ctx, point, iterations, reason):
    """The MaxIterationsError of a descent that ends at point after `iterations` steps."""
    return MaxIterationsError(f"{reason} on the n = {ctx.grid.points_per_axis} grid",
                              iterations=iterations, residual=point.res, level=point.level)


def _snap_rung(ctx, point):
    """Rung 1, once per start: the snap's placement, if it passes the gate with a strict decrease."""
    snapped = _snap(ctx, point.v)
    return snapped if _passes(snapped, point, np.nextafter(point.level, -np.inf)) else None


def _anderson_rung(ctx, point, window):
    """Rung 2: the Anderson mix of the window, if it passes the gate with a strict decrease
    or on the plateau.  A mix that passes with a residual above the point's is scored
    again on a fresh transform: a mix with large coefficients cancels, and its combined
    image drifts from K of the mixed point.  A level above `_ceiling` fails both
    branches of the gate, so such a mix is not scored further."""
    mixed = window.candidate()
    if mixed is None:
        return None
    bound = np.nextafter(point.level, -np.inf)
    candidate = _project_scored(ctx, *mixed, ceiling=_ceiling(point))
    if _passes(candidate, point, bound) and candidate.res > point.res:
        candidate = _project_scored(ctx, mixed[0], ctx.apply_k_support(mixed[0]), ceiling=_ceiling(point))
    return candidate if _passes(candidate, point, bound) else None


def _heavy_ball_rung(ctx, point, prev, image, armijo):
    """Rung 3: w = G(v) + MOMENTUM (v - v_prev) from the previous accepted point prev, its
    image from cached images, written over prev's arrays; None without a prev."""
    if prev is None:
        return None
    w = np.subtract(point.v, prev.v, out=prev.v)
    w *= MOMENTUM
    w += image.v
    kw = np.subtract(point.kv, prev.kv, out=prev.kv)
    kw *= MOMENTUM
    kw += image.kv
    candidate = _project_scored(ctx, w, kw, ceiling=_ceiling(point))
    return candidate if _passes(candidate, point, armijo) else None


def _picard_rung(point, image, armijo):
    """Rung 4: the full Picard step, the projected image G(v), already scored."""
    return image if _passes(image, point, armijo) else None


def _step(ctx, point, window, prev, iterations):
    """Rungs 2 to 4 from point: the first candidate that passes the gate.

    The Picard image G(v) = |Kv|^{p-2} Kv is projected and scored once, and
    pushed to the Anderson window before the mix.  The heavy ball and the
    Picard step share the Armijo bound J(v) - ARMIJO_C <J'(v), v - G(v)>.
    Raises the cone exit when the image leaves U^+, and the stall exit when
    no rung passes.
    """
    picard = odd_power(point.kv, ctx.exponents.p - 1.0)
    image = _project_scored(ctx, picard, ctx.apply_k_support(picard))
    if image is None:
        raise _failure(ctx, point, iterations, "iteration left the admissible cone")
    window.push(point.v, image.v, image.kv)
    accepted = _anderson_rung(ctx, point, window)
    if accepted is None:
        armijo = point.level - ARMIJO_C * max(ctx.inner(point.g, point.v - image.v), 0.0)
        accepted = _heavy_ball_rung(ctx, point, prev, image, armijo) or _picard_rung(point, image, armijo)
    if accepted is None:
        raise _failure(ctx, point, iterations, "line search stalled")
    return accepted


def _refreshed(ctx, point):
    """The point with a fresh transform kv = K v, and J'(v) and the residual from it;
    v and its norm are unchanged."""
    kv = ctx.apply_k_support(point.v)
    g = ctx.gradient_arrays(point.v, kv)
    grad_norm = ctx.lp_norm(g, ctx.exponents.p)
    res = grad_norm / point.v_norm ** (ctx.exponents.p_conj - 1.0)
    return point._replace(kv=kv, res=res, grad_norm=grad_norm, g=g)


def _record(ctx, point, scores):
    """The SolutionRecord of the converged point, with the (level, ||J'||_p, ||v||_{p'})
    `scores` of the start and of each accepted step."""
    j_values, grad_norms, v_norms = zip(*scores)
    return SolutionRecord(
        v=point.v,
        level=ctx.energy_arrays(point.v, point.kv),
        dual_residual=point.res,
        iterations=len(scores) - 1,
        orbit_shift=(0,) * ctx.grid.dimension,
        j_values=np.asarray(j_values),
        grad_norms=np.asarray(grad_norms),
        v_norms=np.asarray(v_norms),
        bound_constant=max(2.0 * max(j_values), max(grad_norms), 1e-300),
    )


def find_critical_point(ctx: FunctionalContext, v0, cfg: DescentConfig) -> SolutionRecord:
    """Run the constrained descent from v0 until the dual residual meets tol.

    v0 is a Field, or the vector of its values on the support of Q
    (`ctx.restrict`).  Returns the record of the critical point on the
    support, without its grid fields or primal check (`finish_records`
    adds them).  Raises NotInUPlusError when the projected seed is
    inadmissible and MaxIterationsError when the budget runs out or a step
    stalls or leaves the cone (`_failure`).  The descent starts from v0
    restricted to the support of Q, which has the same quadratic form and a
    smaller norm, hence a lower fibering level.  Each step takes the first
    rung of the ladder that passes the gate: the snap (`_snap_rung`, at step
    SNAP_AFTER only), then `_step`'s Anderson mix, heavy ball and Picard
    step.
    """
    v = ctx.restrict(ctx._own(v0)) if isinstance(v0, Field) else v0
    if not np.any(v):
        raise NotInUPlusError("zero initial field is inadmissible")
    point = _project_scored(ctx, v, ctx.apply_k_support(v))
    if point is None:
        raise NotInUPlusError("initial field has nonpositive quadratic form")
    scores = [(point.level, point.grad_norm, point.v_norm)]
    window, prev = _AndersonWindow(ANDERSON_DEPTH, v.size), None
    # the box spans the grid: the profile can move over the whole box
    snaps = ctx.box == tuple(slice(0, n) for n in ctx.grid.shape)
    for iterations in itertools.count():
        if point.res <= cfg.tol_residual:  # confirm on a fresh transform before declaring victory
            kv = ctx.apply_k_support(point.v)
            point = point._replace(kv=kv, res=ctx.dual_residual_arrays(point.v, kv))
            if point.res <= cfg.tol_residual:
                return _record(ctx, point, scores)
        if iterations >= cfg.max_iters:
            raise _failure(ctx, point, iterations, f"no convergence within {cfg.max_iters} iterations")
        snapped = _snap_rung(ctx, point) if snaps and iterations == SNAP_AFTER else None
        if snapped is not None:  # the window and the heavy ball's prev describe the old position
            point, window, prev = snapped, _AndersonWindow(ANDERSON_DEPTH, v.size), None
        else:
            point, prev = _step(ctx, point, window, prev, iterations), point
        if (iterations + 1) % KREFRESH == 0:
            point = _refreshed(ctx, point)
        scores.append((point.level, point.grad_norm, point.v_norm))


# ---------------------------------------------------------------------------
# orbits, seeding, multistart
# ---------------------------------------------------------------------------


def _cell_roll(ctx, values, cell_shift):
    """values(. - y) for the shift y = cell_shift cells of the context's orbit
    group (`ctx.cell_points` grid points per cell): one copy, none at y = 0."""
    if not any(cell_shift):
        return values
    return np.roll(values, tuple(c * ctx.cell_points for c in cell_shift), axis=tuple(range(values.ndim)))


def orbit_distance(ctx: FunctionalContext, v: Field, w: Field) -> float:
    """Min over the shifts y of the context's orbit group and both signs of
    ||v - (+-w)(. - y)||_{p'}, for fields on the context's grid.

    The group is the unit-cell shifts for a unit-periodic Q and the identity
    alone for any other Q (`FunctionalContext.cells`), so the distance is
    zero exactly when w is a signed member of v's orbit, on any grid.  It is
    the dedup's own pruned search (`_within_orbit`) with no radius: the
    exact norm is taken only where a lower bound does not rule the pair out.
    """
    return float(_within_orbit(ctx, ctx._own(v), ctx._own(w)))


def _within_orbit(ctx, v, w, radius=np.inf):
    """The pruned search of the orbit distance: an exact ||v - s w_y||_{p'} at or
    below a finite radius, or else the least exact distance it takes.

    The shifts y are those of the context's orbit group and s runs over both
    signs.  v and w are grid arrays, or, for a Q whose group is the identity
    alone (one cell), the fields' vectors on the support of Q, off which both
    vanish.  The dedup (`_same_orbit`) asks whether the result is at most
    its radius; `orbit_distance` runs the search with no radius, and the
    result is the exact minimum.
    For p' < 2 and |x| <= M = max|v| + max|w|, |x|^{p'} >= |x|^2 M^{p'-2}, so
    h^N ||v - s w_y||_2^2 M^{p'-2} bounds ||v - s w_y||_{p'}^{p'} from below.
    The squared L2 distances of all cells^N shifts y and both signs s come
    from ||v||^2 + ||w||^2 - 2 s <v, w_y>, and one Gram matrix of the cell
    blocks of v and w gives every <v, w_y>.  The expanded square is lowered by
    a bound on its rounding, 4 m eps (||v||^2 + ||w||^2) for vectors of m
    entries, which no BLAS blocking or thread count exceeds.  The pairs are
    taken in ascending order of that floor, and the search stops at the first
    floor above the smaller of the radius and the least exact distance so
    far, or at the first exact distance at or below a finite radius.  So the
    pair that attains the minimum is never pruned.
    """
    pc = ctx.exponents.p_conj
    dim = ctx.grid.dimension
    cells = ctx.cells

    def blocks(values):  # one row per cell, in row-major cell order
        if cells == 1:  # the whole vector, a support vector or a grid array
            return values.reshape(1, -1)
        split = values.reshape((cells, ctx.cell_points) * dim)
        return split.transpose(tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))).reshape(
            cells ** dim, ctx.cell_points ** dim)

    gram = blocks(v) @ blocks(w).T
    index = np.indices((cells,) * dim).reshape(dim, -1)  # cells, and cell shifts in product order
    # block i of w_y is block i - y of w, so <v, w_y> = sum_i gram[i, i - y]
    partner = np.ravel_multi_index((index[:, None, :] - index[:, :, None]) % cells, (cells,) * dim)
    inner = gram[np.arange(cells ** dim), partner].sum(axis=1)
    norms = float(np.sum(v * v)) + float(np.sum(w * w))
    slack = 4.0 * v.size * np.finfo(float).eps * norms
    peak = max(float(np.abs(v).max() + np.abs(w).max()), np.finfo(float).tiny)
    squares = np.maximum(norms - 2.0 * np.stack([inner, -inner], axis=1) - slack, 0.0)
    floors = (ctx.weight * squares * peak ** (pc - 2.0)).ravel()
    best = np.inf
    for k in np.argsort(floors, kind="stable"):
        # the relative margin covers the rounding of the floors and of the exact norms
        try:
            limit = min(best, radius) ** pc * (1.0 + 1e-12)
        except OverflowError:  # a bound beyond every float: the pair gets the exact norm
            limit = np.inf
        if floors[k] > limit:
            break
        shift, sign = divmod(int(k), 2)
        rolled = _cell_roll(ctx, w, tuple(int(c) for c in index[:, shift]))
        best = min(best, ctx.lp_norm(v - (1.0, -1.0)[sign] * rolled, pc))
        if best <= radius < np.inf:
            break
    return best


def mass_centroid(ctx: FunctionalContext, v: Field) -> np.ndarray:
    """Circular centroid of the |v|^{p'} mass over the torus, in [0, L)^N."""
    weight = np.abs(v.values) ** ctx.exponents.p_conj
    total = weight.sum()
    L = ctx.grid.box_length
    if total == 0.0:
        return np.full(ctx.grid.dimension, L / 2.0)
    mesh = ctx.grid.open_mesh()
    out = np.empty(ctx.grid.dimension)
    for axis in range(ctx.grid.dimension):
        phase = np.sum(weight * np.exp(2j * np.pi * mesh[axis] / L))
        out[axis] = (np.angle(phase) / (2.0 * np.pi) * L) % L
    return out


def recenter(ctx: FunctionalContext, record: SolutionRecord) -> SolutionRecord:
    """Choose the representative of the record's orbit: the whole unit cells
    that bring its mass centroid nearest the box center (a unit-periodic Q
    only), and the sign that makes its peak positive.

    Sets `orbit_shift` and `sign` and keeps no grid array.  For a
    unit-periodic Q the peak is read off the moved grid field; for any other
    Q, off the support vector.
    """
    values = record.v
    if ctx.periodic:
        values = ctx.extend(values)
        centroid = mass_centroid(ctx, Field(ctx.grid, values))
        middle = ctx.grid.box_length / 2.0
        record.orbit_shift = tuple(int(np.rint(middle - c)) % ctx.cells for c in centroid)
        values = _cell_roll(ctx, values, record.orbit_shift)
    if values.reshape(-1)[np.argmax(np.abs(values))] < 0.0:
        record.sign = -1
    return record


def grid_field(ctx: FunctionalContext, rec: SolutionRecord) -> Field:
    """A recentered record's grid field sign * extend(v)(. - y), y its orbit
    shift: -0.0 off the support when the sign is -1.  extend is a view of v
    on full support, and so is the roll at y = 0; any other array is fresh
    and negated in place.  Built on each call and kept by no record."""
    values = _cell_roll(ctx, ctx.extend(rec.v), rec.orbit_shift)
    if rec.sign < 0:
        values = np.negative(values, out=None if np.may_share_memory(values, rec.v) else values)
    return Field(ctx.grid, values)


def primal_field(ctx: FunctionalContext, rec: SolutionRecord) -> Field:
    """A recentered record's primal partner sign * u(. - y), u = R(Q^{1/p} v)
    formed from the unshifted support vector v and y its orbit shift: a new
    array, moved and negated in place where it can be.  Built on each call
    and kept by no record."""
    u = _cell_roll(ctx, ctx.resolvent_array(rec.v), rec.orbit_shift)
    if rec.sign < 0:
        np.negative(u, out=u)
    return Field(ctx.grid, u)


def finish_records(ctx: FunctionalContext, records: list) -> list:
    """Add the primal residual to each recentered record of `find_critical_point`.

    u = R(Q^{1/p} v) is formed from the unshifted support vector v and
    checked in its own half spectrum (`primal_residual_support`), so one u
    and no other grid array is live, and u is dropped: `primal_field`
    builds it, moved by the record's orbit shift and sign, where it is
    used.  Returns records.
    """
    for rec in records:
        rec.primal_residual = ctx.primal_residual_support(rec.v)
    return records


@functools.lru_cache
def _mode_table(n, dim):
    """The mode rows of `initial_field` and where each of its modes goes, as arrays.

    The modes m in {-3, ..., 3}^N whose first nonzero entry is positive (one
    of each pair +-m), in `itertools.product` order, get one random
    coefficient each.  The rows are the sorted grid indices m mod n of the
    offsets -3..3, and slots[j] holds the flat indices of +m_j and -m_j in
    the table of those rows: assigned in that order, an index that repeats
    (n < 8) keeps the last value, as one assignment per mode and sign did.
    """
    rows = np.flatnonzero(np.bincount(np.arange(-3, 4) % n, minlength=n))
    modes = np.indices((7,) * dim).reshape(dim, -1) - 3
    first = modes[np.argmax(modes != 0, axis=0), np.arange(modes.shape[1])]
    modes = modes[:, first > 0]
    slots = [np.ravel_multi_index(np.searchsorted(rows, sign * modes % n), (rows.size,) * dim)
             for sign in (1, -1)]
    slots = np.stack(slots, axis=1)
    rows.setflags(write=False)
    slots.setflags(write=False)
    return rows, slots


def initial_field(ctx: FunctionalContext, rng: np.random.Generator) -> Field:
    """Random low-mode trigonometric polynomial under a Gaussian bump, on the
    support's box and zero outside it.

    The bump center is uniform over the box for periodic coefficients and
    jittered around the coefficient's support centroid otherwise
    (`FunctionalContext.support_ball`, taken once per context), so seeds
    land where the nonlinearity is active.  Distances are sums over the
    box's slices of the grid's open mesh, or over the support points alone,
    so no whole-grid coordinate mesh is built.  The polynomial is a pruned
    `ifftn` of its Hermitian spectrum: one 1-d `ifft` per axis, last axis
    first as `ifftn` runs them, over the 7 mode rows (0..3, n-3..n-1) of
    the axes not yet transformed, each transformed axis cut to the box
    (`ctx.box`, the support's bounding box, which may be the whole grid).
    Every line is one that `ifftn` transforms, so the values on the box are
    the whole-grid mesh formula's, bit for bit.  The descent starts from the
    values on the support only.
    """
    grid = ctx.grid
    n = grid.points_per_axis
    L = grid.box_length
    dim = grid.dimension
    box = ctx.box

    if ctx.periodic:
        center = rng.uniform(0.0, L, size=dim)
        width = max(L / 7.0, 3.0 * grid.spacing)
    else:
        centroid, support_radius = ctx.support_ball
        center = centroid + rng.normal(scale=L / 32.0, size=dim)
        width = max(support_radius / 2.0, 3.0 * grid.spacing)

    dist2 = 0.0
    axes = np.meshgrid(*(grid.axis_coordinates[span] for span in box), indexing="ij", sparse=True)
    for axis in range(dim):
        d = np.abs(axes[axis] - center[axis])
        d = np.minimum(d, L - d)
        dist2 = dist2 + d ** 2
    envelope = np.exp(-dist2 / (2.0 * width ** 2))

    # Hermitian low-mode spectrum => real trig polynomial, kept on its mode rows
    rows, slots = _mode_table(n, dim)
    a, b = rng.normal(size=(slots.shape[0], 2)).T
    trig = np.zeros((rows.size,) * dim, dtype=complex)
    trig.reshape(-1)[slots.reshape(-1)] = np.stack([a - 1j * b, a + 1j * b], axis=1).reshape(-1)
    for axis in reversed(range(dim)):
        lines = np.zeros(trig.shape[:axis] + (n,) + trig.shape[axis + 1:], dtype=complex)
        lines[(slice(None),) * axis + (rows,)] = trig
        trig = np.fft.ifft(lines, axis=axis)[(slice(None),) * axis + (box[axis],)]
    trig = trig.real * grid.size

    values = np.zeros(grid.shape)
    np.multiply(envelope, trig, out=values[box])
    return Field(grid, values)


def _coarse(ctx):
    """The half-grid context of the random starts' first descent, or None.

    There is one when Q > 0 everywhere, n is divisible by 4 (so n/2 is even)
    and, for a Q declared unit-periodic, the half grid keeps unit shifts.
    Its Q is the context's Q at the even grid points, which every
    coefficient kind gives, and it keeps the context's p and periodicity.
    """
    grid = ctx.grid
    n = grid.points_per_axis
    if not ctx.full_support or n % 4:
        return None
    half = replace(grid, points_per_axis=n // 2)
    if ctx.periodic and half.unit_shift_points is None:
        return None
    even = ctx.q[(slice(None, None, 2),) * grid.dimension]
    return FunctionalContext(Field(half, even), ctx.exponents.p, periodic=ctx.periodic)


def _descend(ctx, v0, cfg, index):
    """The one runner of a start, random, placed, lifted or transplanted, on the
    grid of ctx: (status, record or detail).

    v0 is a Field or a support vector.  The status is "converged" with the
    record, its `start_index` set to index, or "not_in_u_plus" or
    "max_iters" with the failure's detail: for `max_iters` the error's
    message, which names its reason and grid, and the residual it ended at.
    No other code catches `find_critical_point`'s errors.
    """
    try:
        record = find_critical_point(ctx, v0, cfg)
    except NotInUPlusError as exc:
        return "not_in_u_plus", str(exc)
    except MaxIterationsError as exc:
        return "max_iters", f"{exc} (residual={exc.residual:.3e})"
    record.start_index = index
    return "converged", record


def _solve_one(args):
    """One random start: its v0 drawn on the run's grid by `initial_field` from its seed,
    and run by `_descend` on the half grid `coarse` (its even points) when there is one."""
    ctx, coarse, cfg, index, seed_seq = args
    stage, step = (coarse, 2) if coarse is not None else (ctx, 1)
    points = (slice(None, None, step),) * ctx.grid.dimension  # every grid point, or the even ones
    # the start's values on the support only: its grid field is freed before the first step
    v0 = stage.restrict(initial_field(ctx, np.random.default_rng(seed_seq)).values[points])
    return _descend(stage, v0, cfg, index)


def _by_level(ctx, records):
    """records sorted by (level, bytes of the grid field), the bytes built only on a tie of levels."""
    ties = Counter(rec.level for rec in records)
    return sorted(records, key=lambda rec: (
        rec.level, grid_field(ctx, rec).values.tobytes() if ties[rec.level] > 1 else b""))


def _same_orbit(ctx, a, b, threshold):
    """The dedup's decision on the records a and b: a lies within
    threshold * max(||a||_{p'}, ||b||_{p'}) of b's orbit (`_within_orbit` at
    that radius).  The test runs over both signs and every cell shift, so it
    compares the support vectors v, extended to the grid for a unit-periodic Q."""
    radius = threshold * max(ctx.lp_norm(rec.v, ctx.exponents.p_conj) for rec in (a, b))
    v, w = (ctx.extend(rec.v) if ctx.periodic else rec.v for rec in (a, b))
    return _within_orbit(ctx, v, w, radius) <= radius


def _admit(ctx, cfg, records, kept):
    """Recenter `records`, sort them by level, and append to `kept` each one farther
    than the dedup threshold from every kept record.  Returns kept."""
    for rec in _by_level(ctx, [recenter(ctx, rec) for rec in records]):
        if not any(_same_orbit(ctx, rec, other, cfg.dedup_rel_threshold) for other in kept):
            kept.append(rec)
    return kept


def multistart_search(ctx: FunctionalContext, cfg: DescentConfig, workers: int = 1):
    """Seeded multistart descent with orbit deduplication.

    Returns a MultistartResult whose records are geometrically distinct
    (pairwise orbit distance above the configured threshold), sorted by
    (level, lexicographic field bytes).  Deterministic for a fixed seed
    regardless of the worker count.  A worker process that dies (killed, or
    out of memory) raises WorkerPoolError.  With a half grid (`_coarse`,
    built once and sent with each start like the context), the starts'
    half-grid records are deduplicated there, and each distinct one descends
    on n once, in this process, under its start's index.  Only the final
    records are finished (`finish_records`).
    """
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.multistart_count)
    coarse = _coarse(ctx)
    jobs = [(ctx, coarse, cfg, i, seeds[i]) for i in range(cfg.multistart_count)]

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                raw = list(pool.map(_solve_one, jobs))
        except BrokenProcessPool as exc:
            raise WorkerPoolError(f"a multistart worker process died: {exc}") from exc
    else:
        raw = [_solve_one(job) for job in jobs]

    outcomes = list(raw)
    if coarse is not None:  # each distinct half-grid orbit descends once on n, under its start's index
        kept = _admit(coarse, cfg, [detail for status, detail in raw if status == "converged"], [])
        raw = [_descend(ctx, ctx.restrict(prolong(coarse.extend(rec.v), ctx.grid.shape)), cfg, rec.start_index)
               for rec in kept]
        for rec, outcome in zip(kept, raw):
            outcomes[rec.start_index] = outcome
    records = [detail for status, detail in raw if status == "converged"]
    if not records:
        raise NoSolutionFoundError(f"no start converged on the n = {ctx.grid.points_per_axis} grid: "
                                   + ", ".join(status for status, _ in outcomes))

    distinct = _admit(ctx, cfg, records, [])
    if ctx.periodic:
        distinct = _by_level(ctx, _admit(ctx, cfg, _place(ctx, distinct[0], cfg), distinct))

    return MultistartResult(
        records=finish_records(ctx, distinct),
        level_estimate=min(rec.level for rec in distinct),
        outcomes=[(status, detail if isinstance(detail, str) else "") for status, detail in outcomes],
    )
