"""Far-field structure of primal solutions.

For a compactly supported source h = Q |u|^{p-2} u the solution radiates an
outgoing wave whose leading term at distance r from the box center is

    u(x) ~ -2 (2 pi / r)^{(N-1)/2} Re[ exp(i(r - (N-1) pi/4)) g(x/|x|) ],

with direction-dependent amplitude g(xi) = -(i/4) (2 pi)^{-(N-1)} hhat(xi),
where hhat is the plain box Fourier integral of h (phases measured from the
box center; the constant is the unitary-transform normalization, which makes
the formula match the outgoing free-space kernel exactly in both dimensions).

With absorption eps > 0 the operator's outgoing wavenumber is
k+ = sqrt(1 + i eps); the checks below use exp(i k+ r) in the leading term
and evaluate the amplitude at k+ xi, which reduces to the formula above as
eps -> 0.  The decay fit removes the known attenuation exp(-Im k+ r) and
compares only the power of r, so it stays constant-free.

h vanishes off the support of Q, so the amplitude is a contraction over the
support's box in real space (`_box_transform`), and the decay check builds
its radius over the grid's open mesh: neither forms a whole-grid coordinate
mesh or transforms a whole-grid array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientShellsError, InterpolationDegenerateError
from .dual_functional import FunctionalContext, odd_power
from .kernel import Field

MIN_BANDWIDTH = 2.0  # required max lattice |k| relative to the unit sphere
BLOCK_BYTES = 4 << 20  # design bytes per block of ball points in the expansion check
BLOCK_ALIGN = 64       # block rows come in multiples of this, so BLAS rounds each row alike
FIT_DEGREE = 6         # total degree of the monomials fitted to the sampled amplitudes


@dataclass
class SphereSamples:
    """Complex far-field amplitudes at unit directions (antipodally paired)."""

    directions: np.ndarray  # (M, N), unit rows
    values: np.ndarray      # (M,), complex

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=float)
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise DomainError("directions must be unit vectors to 1e-12")
        self.directions = dirs
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (dirs.shape[0],):
            raise DomainError("one amplitude per direction required")


def equal_area_directions(dimension: int, count: int) -> np.ndarray:
    """Antipodally symmetric, approximately equal-area unit directions.

    Uniform angles on the circle for N = 2; a symmetrized Fibonacci spiral
    on the sphere for N = 3.  count is rounded up to an even number.
    """
    half = max(1, (count + 1) // 2)
    if dimension == 2:
        theta = np.pi * np.arange(half) / half
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif dimension == 3:
        idx = np.arange(half) + 0.5
        phi = np.pi * (1.0 + np.sqrt(5.0)) * idx
        cos_t = 1.0 - idx / half  # upper hemisphere, mirrored below
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t ** 2))
        dirs = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    else:
        raise DomainError("dimension must be 2 or 3")
    return np.concatenate([dirs, -dirs], axis=0)


def _box_transform(ctx: FunctionalContext, source: np.ndarray, wavevectors: np.ndarray) -> np.ndarray:
    """Fourier integral of the trigonometric interpolant of a source over the box.

    Evaluates int_box s(x) exp(-i k (x - center)) dx at arbitrary (complex)
    wavevectors through the Dirichlet-kernel interpolation of the lattice
    transform; spectrally accurate for sources supported inside the box.
    `source` holds s on the support's box (`ctx.box`, or the whole grid when
    it spans the grid); s vanishes off it.

    With the interpolant's coefficients c = fftn(s)/n^N the integral is
    sum_m c_m prod_d A_d(m_d, k_d) for per-axis integrals A_d, which is
    sum_x s(x) prod_d B_d(x_d, k_d) with B_d = fft(A_d, axis=0)/n: one 1-d
    FFT of an (n, J) matrix per axis, cut to the box's rows, and a
    contraction over the box alone.
    """
    grid = ctx.grid
    n = grid.points_per_axis
    L = grid.box_length
    box = ctx.box or (slice(0, n),) * grid.dimension
    lattice = grid.axis_frequencies
    # per-axis integral: int_0^L e^{i(k_m - k)x} e^{ikL/2} dx
    #                  = L sinc((k_m - k)L/2) e^{i k_m L/2} = L sinc(.) (-1)^m
    m_int = np.rint(lattice * L / (2.0 * np.pi)).astype(int)
    parity = 1.0 - 2.0 * (np.abs(m_int) % 2)
    nyquist = abs(lattice[n // 2])

    def axis_factor(axis):
        """(w, J) matrix B_d over the box's rows on this axis, one column per wavevector."""
        k_axis = wavevectors[:, axis]
        z = (lattice[:, None] - k_axis) * (L / 2.0)  # complex when k is complex
        small = np.abs(z) < 1e-8
        z_safe = np.where(small, 1.0, z)
        sinc = np.where(small, 1.0 - z * z / 6.0, np.sin(z_safe) / z_safe).astype(complex)
        # split the unpaired Nyquist coefficient across +-n/2 (real interpolant)
        z_m = (nyquist - k_axis) * (L / 2.0)
        sinc[n // 2] = 0.5 * (sinc[n // 2] + np.sin(z_m) / z_m)
        sinc *= (L / n) * parity[:, None]
        return np.fft.fft(sinc, axis=0)[box[axis]]

    # contract one axis at a time over all wavevectors; the last axis first,
    # as one matrix product on the contiguous source
    last = axis_factor(grid.dimension - 1)
    acc = (source.reshape(-1, last.shape[0]) @ last).reshape(*source.shape[:-1], -1)
    for axis in range(grid.dimension - 2, -1, -1):
        acc = np.einsum("...ij,ij->...j", acc, axis_factor(axis))
    return acc


def farfield_amplitude(
    ctx: FunctionalContext,
    u: Field,
    directions: np.ndarray,
    wavenumber: complex = 1.0,
) -> SphereSamples:
    """Far-field amplitude of the source h = Q |u|^{p-2} u at unit directions.

    With the default wavenumber 1 this is
    g(xi) = -(i/4) (2 pi)^{-(N-1)} int h(x) exp(-i xi x) dx; a complex
    wavenumber evaluates the transform at k+ xi for absorption-aware checks.
    The conjugate antisymmetry g(-xi) = -conj(g(xi)) holds for real u and
    real wavenumber.  h vanishes off the support of Q, so it is formed on
    the support's box only and no whole-grid array is transformed.
    """
    grid = ctx.grid
    k_max = np.pi * grid.points_per_axis / grid.box_length
    if k_max < MIN_BANDWIDTH or 2.0 * np.pi / grid.box_length > 1.0:
        raise InterpolationDegenerateError(
            f"grid resolves |k| only to {k_max:.2f} with spacing "
            f"{2 * np.pi / grid.box_length:.2f}; too coarse near the unit sphere"
        )
    dirs = np.asarray(directions, dtype=float)
    box = ctx.box or (slice(0, grid.points_per_axis),) * grid.dimension
    source = ctx.coefficient.field.values[box] * odd_power(u.values[box], ctx.exponents.p - 1.0)
    transform = _box_transform(ctx, source, wavenumber * dirs)
    constant = -0.25j * (2.0 * np.pi) ** (-(grid.dimension - 1))
    return SphereSamples(directions=dirs, values=constant * transform)


# ---------------------------------------------------------------------------
# decay and expansion diagnostics
# ---------------------------------------------------------------------------


@dataclass
class FarfieldReport:
    degenerate: bool
    decay_exponent: float
    target_exponent: float
    shell_radii: np.ndarray
    shell_means: np.ndarray
    expansion_radii: np.ndarray
    expansion_errors: np.ndarray
    trend_nonincreasing: bool
    interpolation_residual: float
    attenuation_rate: float


def _monomial_design(directions: np.ndarray, degree: int) -> np.ndarray:
    """All monomials of total degree <= degree in the direction components;
    restricted to the unit sphere these span the harmonics up to that degree.

    Columns come from per-axis power tables, one multiply each, written into
    one preallocated array; the result is its Fortran-ordered transpose.
    """
    count, dim = directions.shape
    powers = np.empty((dim, degree + 1, count))
    powers[:, 0] = 1.0
    for k in range(1, degree + 1):
        np.multiply(powers[:, k - 1], directions.T, out=powers[:, k])
    out = np.empty((math.comb(degree + dim, dim), count))
    col = 0
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            if dim == 2:
                np.multiply(powers[0, a], powers[1, b], out=out[col])
                col += 1
                continue
            pair = powers[0, a] * powers[1, b]
            for c in range(degree + 1 - a - b):
                np.multiply(pair, powers[2, c], out=out[col])
                col += 1
    return out.T


def _sphere_interpolant(directions, fit_re, fit_im, degree: int) -> np.ndarray:
    """The fitted amplitude at unit directions, from one monomial design of about
    BLOCK_BYTES per block of rows.  With one BLAS thread each value is bit-identical
    to the whole design's product (a block of a few rows would reach another kernel)."""
    count, dim = directions.shape
    row_bytes = 8 * (math.comb(degree + dim, dim) + dim * (degree + 1))  # design row, power tables
    rows = max(1, BLOCK_BYTES // (row_bytes * BLOCK_ALIGN)) * BLOCK_ALIGN
    # blocks start at multiples of BLOCK_ALIGN; the last one takes any shorter rest
    starts = [s for s in range(rows, count, rows) if count - s >= BLOCK_ALIGN]
    out = np.empty(count, dtype=complex)
    for start, stop in zip([0] + starts, starts + [count]):
        block = _monomial_design(directions[start:stop], degree)
        out[start:stop] = block @ fit_re + 1j * (block @ fit_im)
    return out


def radius_window(L: float, spacing: float, r_min=None, r_max=None) -> tuple:
    """The check's (r_min, r_max); an edge given as None or 0 takes its default,
    max(0.18 L, 4 h) or 0.46 L.  Raises DomainError unless 0 < r_min < r_max <= L/2."""
    r_min = r_min or max(0.18 * L, 4.0 * spacing)
    r_max = r_max or 0.46 * L
    if not (0.0 < r_min < r_max <= 0.5 * L):
        raise DomainError(f"need 0 < r_min < r_max <= L/2, got {r_min!r}, {r_max!r} with L = {L!r}")
    return r_min, r_max


def decay_and_expansion_check(
    ctx: FunctionalContext,
    u: Field,
    samples: SphereSamples,
    r_min: float | None = None,
    r_max: float | None = None,
    shell_count: int = 8,
) -> FarfieldReport:
    """Shell-decay fit and leading-term expansion error around the box center.

    The decay exponent comes from regressing log(mean_shell |u|) + beta r on
    log r, beta = Im sqrt(1 + i eps) being the known absorption rate.  The
    expansion error at radius R is the ball average
    (1/R) int_{B_R} |u - leading|^2 with the sampled amplitudes interpolated
    smoothly across the sphere; the report flags whether the error is
    nonincreasing over the tabulated radii.  The interpolant is evaluated over
    the ball in blocks (`_sphere_interpolant`), so its memory does not grow with it.

    The shells are cut from one selection of the annulus r_min <= r < r_max,
    in the grid's element order, so each shell mean sums the elements a
    whole-grid shell mask selects, in the same order; the annulus copies are
    released before the ball, and the ball's offsets become unit directions
    in place.
    """
    grid = ctx.grid
    dim = grid.dimension
    L = grid.box_length
    k_plus = np.sqrt(1.0 + 1j * grid.shell_epsilon)
    beta = float(k_plus.imag)
    r_min, r_max = radius_window(L, grid.spacing, r_min, r_max)

    if not np.any(u.values):
        return FarfieldReport(
            degenerate=True,
            decay_exponent=float("nan"),
            target_exponent=(dim - 1) / 2.0,
            shell_radii=np.array([]),
            shell_means=np.array([]),
            expansion_radii=np.array([]),
            expansion_errors=np.array([]),
            trend_nonincreasing=False,
            interpolation_residual=float("nan"),
            attenuation_rate=beta,
        )

    center = L / 2.0
    radius = np.sqrt(sum((m - center) ** 2 for m in grid.open_mesh()))

    edges = np.linspace(r_min, r_max, shell_count + 1)
    # the shells cut from the annulus r_min <= r < r_max keep the grid's element order
    annulus = (radius >= edges[0]) & (radius < edges[-1])
    r_ann, u_ann = radius[annulus], u.values[annulus]
    del annulus
    shell_radii, shell_means = [], []
    for i in range(shell_count):
        mask = (r_ann >= edges[i]) & (r_ann < edges[i + 1])
        if mask.sum() < 8:
            continue
        shell_radii.append(0.5 * (edges[i] + edges[i + 1]))
        shell_means.append(float(np.abs(u_ann[mask]).mean()))
    del r_ann, u_ann  # released before the ball
    if len(shell_radii) < 3:
        raise InsufficientShellsError(
            f"only {len(shell_radii)} usable shells between r={r_min} and {r_max}"
        )
    shell_radii = np.asarray(shell_radii)
    shell_means = np.asarray(shell_means)

    corrected = np.log(shell_means) + beta * shell_radii
    design = np.stack([np.ones_like(shell_radii), np.log(shell_radii)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, corrected, rcond=None)
    decay_exponent = float(-coeffs[1])

    # smooth interpolation of the sampled amplitudes across the sphere
    monomials = math.comb(FIT_DEGREE + dim, dim)
    if samples.values.size < monomials:
        raise DomainError(
            f"{samples.values.size} sampled directions cannot fit the {monomials} "
            f"monomials of degree {FIT_DEGREE} in {dim}d"
        )
    design_s = _monomial_design(samples.directions, FIT_DEGREE)
    fit_re, *_ = np.linalg.lstsq(design_s, samples.values.real, rcond=None)
    fit_im, *_ = np.linalg.lstsq(design_s, samples.values.imag, rcond=None)
    reproduced = design_s @ fit_re + 1j * (design_s @ fit_im)
    scale = np.abs(samples.values).max()
    interp_residual = float(np.abs(reproduced - samples.values).max() / scale) if scale > 0 else 0.0

    ball = (radius >= max(2.0 * grid.spacing, 1e-9)) & (radius <= r_max)
    pts = np.stack([grid.axis_coordinates[i] - center for i in np.nonzero(ball)], axis=1)
    r_pts = radius[ball]
    pts /= r_pts[:, None]  # unit directions, in place
    g_pts = _sphere_interpolant(pts, fit_re, fit_im, FIT_DEGREE)
    leading = -2.0 * (2.0 * np.pi / r_pts) ** ((dim - 1) / 2.0) * np.real(
        np.exp(1j * (k_plus * r_pts - (dim - 1) * np.pi / 4.0)) * g_pts
    )
    mismatch = (u.values[ball] - leading) ** 2

    expansion_radii = np.linspace(r_min + 0.25 * (r_max - r_min), r_max, max(4, shell_count // 2 + 3))
    expansion_errors = np.array([
        grid.weight * float(mismatch[r_pts <= R].sum()) / R for R in expansion_radii
    ])
    tail = expansion_errors[-3:]
    trend = bool(np.all(np.diff(tail) <= 1e-12 * max(1.0, tail.max())))

    return FarfieldReport(
        degenerate=False,
        decay_exponent=decay_exponent,
        target_exponent=(dim - 1) / 2.0,
        shell_radii=shell_radii,
        shell_means=shell_means,
        expansion_radii=expansion_radii,
        expansion_errors=expansion_errors,
        trend_nonincreasing=trend,
        interpolation_residual=interp_residual,
        attenuation_rate=beta,
    )
