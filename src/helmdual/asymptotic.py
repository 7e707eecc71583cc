"""Asymptotically periodic coefficients: construction, transplant, level gap.

A periodic background Q_inf is perturbed by a compactly supported
nonnegative bump, the finite-box surrogate of a perturbation vanishing at
infinity.  Since Q >= Q_inf pointwise, any dual field w admissible for the
background transplants to v = (Q_inf/Q)^{1/p} w on the perturbed side with
the same resolvent quadratic form and a no-larger norm, which forces the
perturbed minimax level to sit at or below the background one.  The
comparison below evaluates that chain numerically next to two identically
seeded multistart searches.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisViolatedError, SupportOverflowError
from .dual_functional import FunctionalContext
from .kernel import Field, GridSpec
from .search import DescentConfig, _admit, _descend, finish_records, grid_field, multistart_search

CHAIN_TOL = 1e-10  # slack of each link of the transplant level chain; the invariant battery reads it too


@dataclass(frozen=True)
class BumpDescriptor:
    """Compactly supported smooth perturbation: center, radius, amplitude."""

    center: tuple
    radius: float
    amplitude: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.center):
            raise DomainError(f"center entries must be finite, got {self.center!r}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be finite and positive, got {self.radius!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise DomainError(f"amplitude must be finite and nonnegative, got {self.amplitude!r}")

    def check_dimension(self, dimension: int):
        """A DomainError unless the center has one entry per axis of a `dimension`-d grid."""
        if len(self.center) != dimension:
            raise DomainError(f"center has {len(self.center)} entries; the grid has dimension {dimension}")


@dataclass
class AsymptoticPair:
    """The context of Q = Q_inf + bump with the context of its periodic background."""

    ctx: FunctionalContext
    ctx_inf: FunctionalContext
    bump: BumpDescriptor


@dataclass
class CompareReport:
    c_est: float
    c_inf_est: float
    gap: float
    transplant_check: bool
    transplant_level: float
    level_chain: tuple  # (J_Q(t_v v), J_inf(t_v w), J_inf(w))
    records_q: list
    records_inf: list
    outcomes_q: list
    outcomes_inf: list


def bump_profile(grid: GridSpec, bump: BumpDescriptor) -> np.ndarray:
    """Smooth compactly supported profile amplitude * exp(1 - 1/(1 - (r/radius)^2)).

    The bump is built on the box of grid slices that can meet its ball and
    written into a zeroed grid array.  A point lies in the ball when
    s2 = sum_i (x_i - c_i)^2 / radius^2 < 1, and every term of that rounded
    sum is at most the sum, so the slices along axis i that hold a point of
    the ball are those with (x_i - c_i)^2 / radius^2 < 1: on the box each
    value is the whole-grid formula's bit for bit.
    """
    bump.check_dimension(grid.dimension)
    out = np.zeros(grid.shape)
    box = []
    for c in bump.center:
        meets = np.flatnonzero((grid.axis_coordinates - c) ** 2 / bump.radius ** 2 < 1.0)
        if meets.size == 0:
            return out
        box.append(slice(int(meets[0]), int(meets[-1]) + 1))
    mesh = np.meshgrid(*(grid.axis_coordinates[span] for span in box), indexing="ij", sparse=True)
    s2 = sum((m - c) ** 2 for m, c in zip(mesh, bump.center))
    s2 /= bump.radius ** 2
    inside = s2 < 1.0
    out[tuple(box)][inside] = bump.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def build_asymptotic_coefficient(ctx_inf: FunctionalContext, bump: BumpDescriptor) -> AsymptoticPair:
    """Attach a compact nonnegative bump to the coefficient of a periodic background."""
    grid = ctx_inf.grid
    values = bump_profile(grid, bump)  # a center of the wrong length is a DomainError
    for c in bump.center:
        if c - bump.radius < 0.0 or c + bump.radius > grid.box_length:
            raise SupportOverflowError(
                f"bump support [{c - bump.radius}, {c + bump.radius}] leaves the box"
            )
    values += ctx_inf.q
    q = Field(grid, values)
    return AsymptoticPair(ctx=FunctionalContext(q, ctx_inf.exponents.p), ctx_inf=ctx_inf, bump=bump)


def transplant(pair: AsymptoticPair, w: Field) -> Field:
    """Carry a background dual field to the perturbed problem.

    v = (Q_inf/Q)^{1/p} w, zero where Q_inf vanishes; pointwise this makes
    Q^{1/p} v = Q_inf^{1/p} w, so both quadratic forms coincide exactly and
    ||v||_{p'} <= ||w||_{p'}.
    """
    q, q_inf = pair.ctx.q, pair.ctx_inf.q
    if np.any(q < q_inf):
        raise HypothesisViolatedError("transplant requires Q >= Q_inf pointwise")
    p = pair.ctx.exponents.p
    ratio = np.zeros_like(q)
    positive = q_inf > 0.0
    ratio[positive] = (q_inf[positive] / q[positive]) ** (1.0 / p)
    return Field(w.grid, ratio * pair.ctx_inf._own(w))


def compare_levels(pair: AsymptoticPair, cfg: DescentConfig, workers: int = 1) -> CompareReport:
    """Estimate the perturbed and background levels with identical budgets.

    Both searches run from the same seed sequence.  The best background
    solution w is additionally transplanted; its fibering level on the
    perturbed side is verified against J_inf(w), and one extra descent from
    the transplant (the same mechanism the level comparison rests on) runs
    through the runner of every start (`search._descend`, on the run's grid)
    with start index -2.  If it converges, it is recentered and deduplicated
    against the perturbed records like a multistart record, and it joins
    them, and is finished, only if it is a new orbit; a transplant that
    fails is dropped.  c_est is the lowest level of the records listed.
    """
    ctx_q, ctx_inf = pair.ctx, pair.ctx_inf

    result_inf = multistart_search(ctx_inf, cfg, workers=workers)
    result_q = multistart_search(ctx_q, cfg, workers=workers)

    best_inf = result_inf.records[0]
    w = grid_field(ctx_inf, best_inf)
    v = transplant(pair, w)

    j_inf_w = ctx_inf.energy(w)
    t_v = ctx_q.fibering_scale(v)
    j_q_tv = ctx_q.energy(t_v * v)
    j_inf_tw = ctx_inf.energy(t_v * w)
    transplant_level = ctx_q.nehari_energy(v)
    transplant_check = transplant_level <= j_inf_w + CHAIN_TOL

    status, transplant_rec = _descend(ctx_q, v, cfg, -2)
    records_q = _admit(ctx_q, cfg, [transplant_rec] if status == "converged" else [], list(result_q.records))
    finish_records(ctx_q, records_q[len(result_q.records):])

    c_est = min(rec.level for rec in records_q)
    c_inf_est = result_inf.level_estimate
    return CompareReport(
        c_est=c_est,
        c_inf_est=c_inf_est,
        gap=c_inf_est - c_est,
        transplant_check=transplant_check,
        transplant_level=transplant_level,
        level_chain=(j_q_tv, j_inf_tw, j_inf_w),
        records_q=records_q,
        records_inf=result_inf.records,
        outcomes_q=result_q.outcomes,
        outcomes_inf=result_inf.outcomes,
    )
