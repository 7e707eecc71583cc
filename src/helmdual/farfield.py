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
support's box in real space (`_box_transform`): it forms no whole-grid
coordinate mesh and transforms no whole-grid array.  The decay check
streams the grid twice in slabs of axis-0 rows (`GridSpec.radius_slabs`,
about `kernel.BLOCK_BYTES` each) and forms no whole-grid array either.
Besides u, its working set is the larger of its two passes.  The first
holds u on the annulus with a one-byte shell index, and the one-byte rank
of each ball point among the expansion radii.  The second holds the ball's
squared mismatch (one float per ball point, about 0.41 grid arrays in 3d),
the ranks, one slab's table of offsets, radii and values, and one design
block (`_row_blocks`, about DESIGN_BYTES: 2,048 rows of 49 columns in 3d,
0.5 grid arrays at n = 64).  In all it peaks at about 1.2 grid arrays
above u at n = 64.  No value depends on the slab size; BLAS sees the
design blocks, so their boundaries stay.

The check fits the sampled amplitudes by the sphere harmonics of degree at
most FIT_DEGREE, written as the monomials whose last exponent is 0 or 1
(`_monomial_design`): on the unit sphere these span what all the monomials
of that degree span, with 49 columns instead of 84 in 3d (13 instead of 28
in 2d), and the design has full column rank.  The real and imaginary parts
are one least-squares solve with two right-hand sides.  The number of
directions must reach the count of all the monomials of that degree, the
direction floor that the config checks too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientShellsError, InterpolationDegenerateError
from .dual_functional import FunctionalContext, odd_power
from .kernel import Field

MIN_BANDWIDTH = 2.0  # required max lattice |k| relative to the unit sphere
DESIGN_BYTES = 1 << 20  # design bytes per block of ball points in the expansion check
BLOCK_ALIGN = 64       # block rows come in multiples of this, so BLAS rounds each row alike
FIT_DEGREE = 6         # total degree of the sphere harmonics fitted to the sampled amplitudes


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
    `source` holds s on the support's box (`ctx.box`, which may be the whole
    grid); s vanishes off it.

    With the interpolant's coefficients c = fftn(s)/n^N the integral is
    sum_m c_m prod_d A_d(m_d, k_d) for per-axis integrals A_d, which is
    sum_x s(x) prod_d B_d(x_d, k_d) with B_d = fft(A_d, axis=0)/n: one 1-d
    FFT of an (n, J) matrix per axis, cut to the box's rows, and a
    contraction over the box alone.
    """
    grid = ctx.grid
    n = grid.points_per_axis
    L = grid.box_length
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
        return np.fft.fft(sinc, axis=0)[ctx.box[axis]]

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
    the support's box only, with Q placed on the box through the support's
    mask, and no whole-grid array is formed or transformed.
    """
    grid = ctx.grid
    k_max = np.pi * grid.points_per_axis / grid.box_length
    if k_max < MIN_BANDWIDTH or 2.0 * np.pi / grid.box_length > 1.0:
        raise InterpolationDegenerateError(
            f"grid resolves |k| only to {k_max:.2f} with spacing "
            f"{2 * np.pi / grid.box_length:.2f}; too coarse near the unit sphere"
        )
    dirs = np.asarray(directions, dtype=float)
    q = np.zeros(ctx.support.shape)
    q[ctx.support] = ctx.q_on_support
    source = q * odd_power(ctx._own(u)[ctx.box], ctx.exponents.p - 1.0)
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


def _basis_size(dim: int, degree: int) -> int:
    """Columns of `_monomial_design`: (degree + 1)^2 in 3d, 2 degree + 1 in 2d."""
    return math.comb(degree + dim - 1, dim - 1) + math.comb(degree + dim - 2, dim - 1)


def _monomial_design(directions: np.ndarray, degree: int) -> np.ndarray:
    """The monomials of total degree <= degree whose last exponent is 0 or 1,
    at unit directions: a basis of the sphere harmonics up to that degree.

    On the unit sphere x_N^2 = 1 - (x_1^2 + ... + x_{N-1}^2), so every
    monomial of degree <= degree is a combination of these, and they are as
    many as the harmonics: 49 of the 84 monomials in 3d, 13 of 28 in 2d.
    Columns run over the leading exponents in lexicographic order, each
    monomial m followed by m x_N when its degree allows.  They are written
    into one preallocated array, whose transpose (Fortran-ordered) is the
    result, one multiply each: the powers of the leading axes, built by
    repeated multiplication from a column of ones, are columns of the design
    themselves, and every other column is a product of them, or of a column
    and x_N.
    """
    count, dim = directions.shape
    out = np.empty((_basis_size(dim, degree), count))
    out[0] = 1.0
    if dim == 2:
        for a in range(1, degree + 1):
            np.multiply(out[2 * a - 2], directions[:, 0], out=out[2 * a])
        np.multiply(out[:-1:2], directions[:, -1], out=out[1::2])
        return out.T
    # the block of x_1^a: x_1^a x_2^b, then x_1^a x_2^b x_3, for b = 0..degree - a
    # (no x_3 factor at b = degree - a); the first block holds the powers of x_2
    starts = np.cumsum([0] + [2 * (degree - a) + 1 for a in range(degree)])
    for b in range(1, degree + 1):
        np.multiply(out[2 * b - 2], directions[:, 1], out=out[2 * b])
    for a in range(1, degree + 1):
        np.multiply(out[starts[a - 1]], directions[:, 0], out=out[starts[a]])
    for a, start in enumerate(starts):
        block = out[start: start + 2 * (degree - a) + 1]
        if a:
            np.multiply(out[start], out[2: 2 * (degree - a) + 1: 2], out=block[2::2])
        np.multiply(block[:-1:2], directions[:, -1], out=block[1::2])
    return out.T


def _row_blocks(count: int, dim: int, degree: int) -> list:
    """(start, stop) of the blocks of `count` design rows of about DESIGN_BYTES each.

    Blocks start at multiples of BLOCK_ALIGN; the last one takes any shorter
    rest, so a block that is passed on alone is one block again.
    """
    # a design row and (N - 1)(degree + 1) values more: the count that sizes the
    # blocks, and so the rows of each BLAS call
    row_bytes = 8 * (_basis_size(dim, degree) + (dim - 1) * (degree + 1))
    rows = max(1, DESIGN_BYTES // (row_bytes * BLOCK_ALIGN)) * BLOCK_ALIGN
    starts = [s for s in range(rows, count, rows) if count - s >= BLOCK_ALIGN]
    return list(zip([0] + starts, starts + [count]))


def _sphere_interpolant(directions, fit, degree: int) -> np.ndarray:
    """The fitted amplitude at unit directions: their harmonic design times the
    (real, imaginary) columns of `fit`, read as complex.  Callers pass one
    block of `_row_blocks` at most, so each product sees that block's rows."""
    return (_monomial_design(directions, degree) @ fit).view(complex)[:, 0]


def radius_window(L: float, spacing: float, r_min=None, r_max=None) -> tuple:
    """The check's (r_min, r_max); an edge given as None or 0 takes its default,
    max(0.18 L, 4 h) or 0.46 L.  Raises DomainError unless 0 < r_min < r_max <= L/2."""
    r_min = r_min or max(0.18 * L, 4.0 * spacing)
    r_max = r_max or 0.46 * L
    if not (0.0 < r_min < r_max <= 0.5 * L):
        raise DomainError(f"need 0 < r_min < r_max <= L/2, got {r_min!r}, {r_max!r} with L = {L!r}")
    return r_min, r_max


def _ball_points(grid, values: np.ndarray, center: float, r_lo: float, r_hi: float):
    """The points with r_lo <= r <= r_hi, one slab of `GridSpec.radius_slabs` at
    a time, in the grid's element order: for each slab an array whose rows
    are x_1 - center, ..., x_N - center, r and u.

    The rows are written into one table over the slab and its columns in the
    ball taken at once; the offsets past the first axis are the same on
    every slab."""
    dim = grid.dimension
    offsets = grid.axis_coordinates - center
    table = None
    # a point forms its radius, its table column and the ball's copy of it
    for rows, r in grid.radius_slabs(center, 8 * (2 * dim + 5)):
        if table is None:
            table = np.empty((dim + 2,) + r.shape)
            for axis, x in enumerate(grid.open_mesh()[1:], 1):
                table[axis] = x - center
        here = table[:, : r.shape[0]]
        here[0] = offsets[rows].reshape((-1,) + (1,) * (dim - 1))
        here[dim] = r
        here[dim + 1] = values[rows]
        inside = (r >= r_lo) & (r <= r_hi)
        yield np.compress(inside.reshape(-1), here.reshape(dim + 2, -1), axis=1)


def _in_blocks(pieces, blocks):
    """The columns of the consecutive arrays `pieces`, cut into the (start, stop)
    `blocks` that partition them: one new array per block, in order, and no
    piece is held longer than its last block."""
    pending = []
    for start, stop in blocks:
        parts, need = [], stop - start
        while need:
            piece = pending.pop() if pending else next(pieces)
            parts.append(piece[:, :need])
            if piece.shape[1] > need:
                pending.append(piece[:, need:])
            need -= parts[-1].shape[1]
        yield np.concatenate(parts, axis=1)


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
    smoothly across the sphere by the harmonics of degree <= FIT_DEGREE
    (module docstring); the report flags whether the error is
    nonincreasing over the tabulated radii.

    The grid is streamed twice, a slab of axis-0 rows at a time
    (`GridSpec.radius_slabs`), and no whole-grid radius is formed.  The
    first pass keeps u on the annulus r_min <= r < r_max with the index of
    its shell (a small integer), in the grid's element order, so each shell
    mean sums the elements a whole-grid shell mask selects, in the same
    order; the annulus is released before the second pass.  The first pass
    also keeps the rank of each ball point, the index of the first expansion
    radius R_j with r <= R_j: the radii increase, so r <= R_j is rank <= j.
    The second pass cuts the ball's points into the blocks of `_row_blocks`
    and gives each block its unit directions, its interpolant
    (`_sphere_interpolant`), its leading term and its squared mismatch,
    written into one ball-sized array.  The sum over r <= R_j runs over the
    points of rank <= j, in the grid's order: no value depends on the block
    or slab size.
    """
    grid = ctx.grid
    values = ctx._own(u)
    dim = grid.dimension
    L = grid.box_length
    k_plus = np.sqrt(1.0 + 1j * grid.shell_epsilon)
    beta = float(k_plus.imag)
    r_min, r_max = radius_window(L, grid.spacing, r_min, r_max)

    if not np.any(values):
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
    r_lo = max(2.0 * grid.spacing, 1e-9)  # the ball leaves out the points near the center
    edges = np.linspace(r_min, r_max, shell_count + 1)
    expansion_radii = np.linspace(r_min + 0.25 * (r_max - r_min), r_max, max(4, shell_count // 2 + 3))
    u_ann, shell, rank = [], [], []
    # slabs of about kernel.BLOCK_BYTES of radius
    for rows, r in grid.radius_slabs(center, 8):
        annulus = (r >= edges[0]) & (r < edges[-1])
        u_ann.append(values[rows][annulus])
        # the shell of r: the number of inner edges at or below it
        shell.append(np.searchsorted(edges[1:], r[annulus], side="right").astype(np.min_scalar_type(shell_count)))
        # the rank of r: the first expansion radius at or above it
        r_ball = r[(r >= r_lo) & (r <= r_max)]
        rank.append(np.searchsorted(expansion_radii, r_ball).astype(np.min_scalar_type(expansion_radii.size)))
    del r, annulus, r_ball  # the last slab's arrays
    u_ann, shell, rank = np.concatenate(u_ann), np.concatenate(shell), np.concatenate(rank)
    shell_radii, shell_means = [], []
    for i in range(shell_count):
        mask = shell == i
        if np.count_nonzero(mask) < 8:
            continue
        shell_radii.append(0.5 * (edges[i] + edges[i + 1]))
        shell_means.append(float(np.abs(u_ann[mask]).mean()))
    del u_ann, shell, mask  # released before the ball
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

    # smooth interpolation of the sampled amplitudes across the sphere; the
    # floor counts all monomials of the degree, as the config's does
    monomials = math.comb(FIT_DEGREE + dim, dim)
    if samples.values.size < monomials:
        raise DomainError(
            f"{samples.values.size} sampled directions cannot fit the {monomials} "
            f"monomials of degree {FIT_DEGREE} in {dim}d"
        )
    parts = np.stack([samples.values.real, samples.values.imag], axis=1)
    fit, *_ = np.linalg.lstsq(_monomial_design(samples.directions, FIT_DEGREE), parts, rcond=None)
    reproduced = _sphere_interpolant(samples.directions, fit, FIT_DEGREE)
    scale = np.abs(samples.values).max()
    interp_residual = float(np.abs(reproduced - samples.values).max() / scale) if scale > 0 else 0.0

    mismatch = np.empty(rank.size)
    blocks = _row_blocks(rank.size, dim, FIT_DEGREE) if rank.size else []
    ball = _in_blocks(_ball_points(grid, values, center, r_lo, r_max), blocks)
    for (start, stop), block in zip(blocks, ball):
        pts, r_blk, u_blk = block[:dim].T, block[dim], block[dim + 1]
        pts /= r_blk[:, None]  # unit directions, in place
        g_blk = _sphere_interpolant(pts, fit, FIT_DEGREE)
        leading = -2.0 * (2.0 * np.pi / r_blk) ** ((dim - 1) / 2.0) * np.real(
            np.exp(1j * (k_plus * r_blk - (dim - 1) * np.pi / 4.0)) * g_blk
        )
        np.square(u_blk - leading, out=mismatch[start:stop])
    del ball  # and its slab table

    expansion_errors = np.array([
        grid.weight * float(mismatch[rank <= j].sum()) / R for j, R in enumerate(expansion_radii)
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
