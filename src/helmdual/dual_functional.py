"""Dual energy functional for -Delta u - u = Q |u|^{p-2} u on the torus.

The unknown is the dual variable v in L^{p'}; with K v = Q^{1/p} R(Q^{1/p} v)
the energy reads

    J(v) = ||v||_{p'}^{p'} / p' - (1/2) int v K v,

its derivative is |v|^{p'-2} v - K v, and critical points map to primal
solutions through u = R(Q^{1/p} v).  For v in the admissible cone U^+
(positive quadratic form) the ray {s v} has a unique energy maximizer
s = t_v, which turns the mountain-pass search into minimization of the
scale-invariant level (1/p' - 1/2) t_v^{p'} ||v||_{p'}^{p'}.

Norms use the exact torus quadrature (uniform weight h^N), so trigonometric
identities used in tests hold to rounding.

K vanishes off the support S = {Q > 0}, and the critical equation
|v|^{p'-2} v = K v then forces v = 0 there, so the search carries v as a
vector over S (`restrict` / `extend`) and touches a grid only inside the FFT
pairs below.  When Q > 0 everywhere S is the whole grid and both maps are
views.  R is applied here only, so its checks run the solver's operator:
with Q = 1, `dual_to_primal` and `apply_k` are R itself.

K is one FFT pair on a window grid around the bounding box of S (`box`).
R is the circular convolution with the torus kernel r = ifftn(sigma), and
between two points of a box of w_d points per axis only the 2 w_d - 1
differences |d_i| <= w_d - 1 occur.  On a window of M_d points per axis the
differences d and d - M_d share a slot; at M_d = 2 w_d - 2 only w_d - 1 and
-(w_d - 1) do, and r takes one value there, since sigma is even along every
axis.  So K convolves on a window grid of M_d >= max(1, 2 w_d - 2) points per
axis (the smallest 2*3*5-smooth size, or n_d itself when that is not
smaller) with r cut to those differences: the
zero-padded convolution of Hockney & Eastwood, here with the torus kernel
itself, so the operator is the same to rounding.  A window axis of n_d points
keeps sigma as it is, so on full support the window is the grid with sigma
itself.  K runs on `_pair`, a complex FFT pair whose forward passes skip
the lines that hold exact zeros and whose inverse passes skip the lines that
reach no point of the box (Markel 1971); on a box that spans the window
nothing is skipped, and the passes are those of `fftn` and `ifftn`.  `_pair`
is the one transform pruned to a box, since there the pruning pays: without
it the 3d far-field run took 82.7 ms rather than 73.0 (median of 16
alternating runs, slower in all 16).

`resolvent_array` (`dual_to_primal`, the snap, `search.finish_records`)
needs R on the whole grid.  Its source is real, so it runs on `_real_pair`,
the passes of `rfftn` and `irfftn` (Sorensen et al. 1987) over every line
of the grid, in the source's own half spectrum: q_S v is scattered through
the support's mask into the real view of a zeroed half spectrum, and the
lines off the support's box are zero lines, which transform to exact
zeros.  sigma is taken on the half spectrum only, a block of rows at a time
(`kernel.row_slices`, about `kernel.BLOCK_BYTES` of half spectrum per
block): a view of the window spectrum on full support, formed per block
otherwise.  The result is written back into the half spectrum's own bytes,
so R holds one array about the size of one real grid array, and a block.
Pruning R's passes to the box, as K's are, saved about 1 ms of each
compact-support call, three calls per 3d far-field run, and took a second
routine.

So a context keeps Q on its support (`q_on_support`), S as a boolean mask
on its box, q_S = Q_S^{1/p} and the window spectrum.  Every move between
support vectors and grid arrays goes through that mask (`restrict`,
`extend`, and the scatters of K and R into their boxes), in row-major
order.  On full support that is all it needs: Q, sigma and Q^{1/p} on the
grid are views of the grid's Q, the window spectrum and q_S.  On compact
support they are whole-grid arrays that no hot path reads, so `q`,
`half_sigma` and `q_root` form them per call: the 3d far-field context
holds nothing the size of its grid.

The primal check `primal_residual` works on the whole grid, since u = R(.)
does not vanish off S.  It applies the operator that R inverts, the symbol
s + eps^2/s with s = |k|^2 - 1 (`kernel.helmholtz_symbol`; -Delta - 1 at
eps = 0), as R's `_real_pair` run in u's own half spectrum, and forms
Q |u|^{p-2} u on S only: off S the defect is the operator's image itself,
so one power pass over the grid serves two of its three norms.
`primal_residual_support` checks u = R(Q^{1/p} v) in the half spectrum
where R left it, so the check holds one array about the size of one real
grid array, and a block; the public check copies u into a fresh half
spectrum first.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridMismatchError, NotInUPlusError, ZeroFieldError
from .kernel import Field, GridSpec, helmholtz_multiplier, helmholtz_symbol, row_slices


def _smooth_size(m: int) -> int:
    """Smallest 2*3*5-smooth integer >= m (for m >= 1): a fast FFT length."""
    while True:
        rest = m
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return m
        m += 1


def _pair(spectrum: np.ndarray, box: tuple, index, source: np.ndarray) -> np.ndarray:
    """K's transform pair: ifftn(spectrum * fftn(s)) as a new complex array, exact
    on `box`, where s holds `source` at the flat `index` (a mask, or
    slice(None)) and zeros elsewhere, and every nonzero of s lies in `box`.

    Both transforms run as `fftn` and `ifftn` do, one `fft` or `ifft` pass
    per axis, last axis first, and each pass is pruned to the box
    (Markel 1971).  The forward pass over axis d runs only on the lines whose
    earlier axes lie in the box: the others hold exact zeros.  The inverse
    pass over axis d runs only on the lines whose later axes lie in the box:
    no other line reaches a value on the box, and values off it are left half
    transformed.
    """
    spec = np.zeros(spectrum.shape, dtype=complex)
    spec.reshape(-1)[index] = source
    for d in reversed(range(spec.ndim)):
        block = spec[box[:d]]
        np.fft.fft(block, axis=d, out=block)
    spec *= spectrum
    for d in reversed(range(spec.ndim)):
        block = spec[(slice(None),) * (d + 1) + box[d + 1:]]
        np.fft.ifft(block, axis=d, out=block)
    return spec


def _half_spectrum(shape: tuple) -> np.ndarray:
    """The zeroed complex half spectrum of a real transform over a grid of
    `shape`, the last axis cut to n/2 + 1."""
    return np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)


def _real_view(half: np.ndarray, shape: tuple) -> np.ndarray:
    """The real grid array of `shape` in the first bytes of the half spectrum `half`."""
    return half.reshape(-1).view(float)[: math.prod(shape)].reshape(shape)


def _real_pair(half: np.ndarray, shape: tuple, symbol) -> np.ndarray:
    """irfftn(symbol * rfftn(u)) for the real grid array u held in the first bytes
    of its own half spectrum `half` (`_real_view`), written back into those
    bytes as a C-contiguous real array, where symbol(rows) is the symbol on
    the axis-0 rows `rows` of the half spectrum.

    The passes are those of `rfftn` and `irfftn`, in their order, over every
    line, so the result is theirs bit for bit; a line of zeros transforms to
    exact zeros.  The `rfft`, the product with the symbol and the `irfft` run
    one block of axis-0 rows at a time (`kernel.row_slices` at a row of the
    half spectrum), so the symbol is formed a block at a time.  The `rfft`
    takes the blocks from the last to the first: a block's n/2 + 1 complex
    values per line start at or after its n real ones, so its output never
    reaches an earlier block's input.  The complex passes over axes
    N-2, ..., 0 and back run in place, and the `irfft` writes each block's n
    real values per line where the block's lines of n/2 + 1 complex values
    begin: a block's result ends before the next block's input starts.  numpy
    copies a block's own input, which its output overlaps, so nothing the
    size of the grid is formed.
    """
    u = _real_view(half, shape)
    blocks = row_slices(len(half), half[0].nbytes)
    for rows in reversed(blocks):
        np.fft.rfft(u[rows], out=half[rows])
    for d in reversed(range(len(shape) - 1)):
        np.fft.fft(half, axis=d, out=half)
    for rows in blocks:
        half[rows] *= symbol(rows)
    for d in range(len(shape) - 1):
        np.fft.ifft(half, axis=d, out=half)
    for rows in blocks:
        np.fft.irfft(half[rows], n=shape[-1], out=u[rows])
    return u


def prolong(values: np.ndarray, shape: tuple) -> np.ndarray:
    """Trigonometric interpolation of the real grid array `values` (m points per
    axis) onto the grid of `shape` (n = 2m points per axis), as a new array.

    One real pair: the `rfftn` of `values` is copied into the zeroed half
    spectrum of the fine grid (`_half_spectrum`), each frequency to the same
    frequency, and `irfftn` returns to the fine grid; the spectrum is scaled by
    2^N, the ratio of the two grids' point counts.  The coarse Nyquist line
    m/2 of an axis stands for both frequencies +m/2 and -m/2 there, so it is
    split in half between them: between the rows m/2 and n - m/2 of every axis
    but the last, and on the last, whose negative half the real transform
    leaves implied, halved in place.  So the interpolant takes the coarse
    values at the even fine points (to rounding), and a field with no
    frequency |k_d| >= m/2 on any axis comes back from its even points whole
    (zero-padding the spectrum; Trefethen, Spectral Methods in MATLAB, ch. 3).
    """
    dim = values.ndim
    coarse = np.fft.rfftn(values)
    coarse *= 2.0 ** dim
    coarse[..., -1] *= 0.5
    fine, source = [], []
    for axis, (m, n) in enumerate(zip(values.shape[:-1], shape[:-1])):
        coarse[(slice(None),) * axis + (m // 2,)] *= 0.5
        fine.append(np.r_[0 : m // 2 + 1, n - m // 2 : n])
        source.append(np.r_[0 : m // 2 + 1, m // 2 : m])
    last = np.arange(values.shape[-1] // 2 + 1)
    half = _half_spectrum(shape)
    half[np.ix_(*fine, last)] = coarse[np.ix_(*source, last)]
    return np.fft.irfftn(half, s=shape, axes=tuple(range(dim)))


def abs_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """|x|^exponent as a new array; an integer exponent k >= 2 by repeated squaring.

    The binary digits of k are read from the bottom: |x| is squared once per
    digit and multiplied into the result at each 1, so |x|^6 is
    |x|^2 |x|^4, three multiplications in place of a `pow` per entry.  Each
    product rounds once, so the result is within k ulp of `np.abs(x) ** k`
    wherever that is normal; 0, NaN and overflow to inf come out as they do
    from `**`.  Any other exponent is the plain `**`.
    """
    base = np.abs(values)
    k = int(exponent)
    if k != exponent or k < 2:
        base **= exponent
        return base
    out = None
    while True:
        if k & 1:
            out = base if out is None else np.multiply(out, base, out=out)
        k >>= 1
        if not k:
            return out
        base = base * base if base is out else np.multiply(base, base, out=base)


def odd_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """sign(x) |x|^exponent with the continuous extension 0 at x = 0."""
    out = abs_power(values, exponent)
    return np.copysign(out, values, out=out)


def sine_product(grid: GridSpec, offset: float = 1.0, amplitude: float = 0.5) -> np.ndarray:
    """The oscillating coefficient offset + amplitude prod_j sin(2 pi x_j).

    On a grid with unit shifts it is sampled on the folded unit-cell mesh,
    which makes the samples exactly unit-periodic; otherwise on the plain
    mesh.  Both are open: the per-axis sines multiply by broadcasting.
    """
    mesh = grid.unit_cell_mesh() if grid.unit_shift_points is not None else grid.open_mesh()
    return offset + amplitude * math.prod(np.sin(2.0 * np.pi * m) for m in mesh)


@dataclass(frozen=True)
class Exponents:
    """Nonlinearity power p with its conjugate and admissibility window."""

    dimension: int
    p: float

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise DomainError("dimension must be 2 or 3")
        lo, hi = self.lower_bound, self.upper_bound
        if not (lo < self.p < hi):
            raise DomainError(
                f"p = {self.p} outside the admissible window ({lo}, {hi}) "
                f"for dimension {self.dimension}"
            )

    @property
    def lower_bound(self) -> float:
        n = self.dimension
        return 2.0 * (n + 1) / (n - 1)

    @property
    def upper_bound(self) -> float:
        n = self.dimension
        return 2.0 * n / (n - 2) if n >= 3 else np.inf

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)


class FunctionalContext:
    """The pair (Q, p) on Q's grid, with cached spectral data.

    Q must be nonnegative and not identically zero; `periodic` declares it
    unit-periodic, which needs a grid with unit shifts and is checked.  It
    is the setting of Z^N orbits, recentering and the position landscape.

    The group that Q's orbits are taken over is stated once, as `cells`
    shifts per axis of `cell_points` grid points each: round(L) unit-cell
    shifts of n/L points for a unit-periodic Q, and the identity, one shift
    whose cell is the whole box of n points, for any other Q.
    """

    def __init__(self, q: Field, p: float, periodic: bool = False):
        grid = q.grid
        vals = q.values
        if np.any(vals < 0.0):
            raise DomainError("coefficient must be nonnegative")
        positive = vals > 0.0
        if not positive.any():
            raise DomainError("coefficient must not vanish identically")
        self.cells, self.cell_points = 1, grid.points_per_axis  # the orbit group: the identity
        if periodic:
            shift = grid.unit_shift_points
            if shift is None:
                raise GridMismatchError(
                    "unit-periodic coefficient needs points_per_axis divisible by box_length"
                )
            for axis in range(grid.dimension):
                if not np.array_equal(np.roll(vals, shift, axis=axis), vals):
                    raise DomainError(f"coefficient not unit-periodic along axis {axis}")
            self.cells, self.cell_points = round(grid.box_length), shift  # the unit-cell shifts
        self.grid = grid
        self.exponents = Exponents(grid.dimension, p)
        self.periodic = periodic
        self.weight = grid.weight
        # the support's bounding box, from the slices along each axis that meet
        # it (Q == 0 is rejected above, so the support is never empty)
        axes = range(grid.dimension)
        meets = (np.flatnonzero(positive.any(axis=tuple(b for b in axes if b != a))) for a in axes)
        self.box = tuple(slice(int(idx[0]), int(idx[-1]) + 1) for idx in meets)
        # the support as a mask on its box: a copy, so the grid's mask is freed
        self.support = positive[self.box].copy()
        self.full_support = self.support.size == grid.size and bool(self.support.all())
        # Q on the support only: a view of the grid's values on full support
        self.q_on_support = self.restrict(vals)
        self.q_support = self.q_on_support ** (1.0 / p)

    @property
    def q(self) -> np.ndarray:
        """Q on the grid, 0 off the support: a view of `q_on_support` on full
        support, a new array otherwise."""
        return self.extend(self.q_on_support)

    def half_sigma(self, rows: slice = slice(None)) -> np.ndarray:
        """The resolvent symbol on the axis-0 rows `rows` (all by default) of the
        half spectrum of a real transform (`kernel.helmholtz_multiplier`): a
        view of K's window spectrum when no window axis is cut, a new array
        otherwise."""
        kernel = self._k_window[0]
        if kernel.shape == self.grid.shape:
            return kernel[rows, ..., : kernel.shape[-1] // 2 + 1]
        return helmholtz_multiplier(self.grid, self.grid.half_frequencies(rows))

    @property
    def q_root(self) -> np.ndarray:
        """Q^{1/p} on the grid, 0 off the support: a view of `q_support` on full
        support, a new array otherwise."""
        return self.extend(self.q_support)

    # -- quadrature helpers ------------------------------------------------

    def lp_norm(self, values: np.ndarray, q: float) -> float:
        return float((self.weight * np.sum(abs_power(values, q))) ** (1.0 / q))

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.weight * np.sum(a * b))

    def dual_mass(self, values: np.ndarray) -> float:
        """||v||_{p'}^{p'} without the final root."""
        return float(self.weight * np.sum(abs_power(values, self.exponents.p_conj)))

    # -- the support of Q --------------------------------------------------

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Grid values at the support points in row-major order (a view on full support)."""
        if self.full_support:
            return values.reshape(-1)
        return values[self.box][self.support]

    def extend(self, vs: np.ndarray) -> np.ndarray:
        """Support vector back on the grid, zero off the support (a view on full support)."""
        if self.full_support:
            return vs.reshape(self.grid.shape)
        out = np.zeros(self.grid.shape)
        out[self.box][self.support] = vs
        return out

    @cached_property
    def support_ball(self):
        """Centroid of Q over the grid, and the largest distance from it to a
        support point: where a start on a non-periodic Q is centred, and how
        wide its bump is.

        Each sum runs over the whole grid, in numpy's pairwise order, which
        the start fields depend on: a sum over the support points alone
        rounds differently.  For each axis Q is formed on the grid and
        multiplied in place by that axis's coordinates, so one grid array is
        live on compact support (a product of its own on full support, where
        Q is a view of the context's).  It is taken once."""
        grid = self.grid
        total = self.q.sum()
        centroid = []
        for xa in grid.open_mesh():
            q = self.q
            q = np.multiply(q, xa, out=None if self.full_support else q)
            centroid.append(float(q.sum() / total))
            del q  # before the next axis forms Q again
        centroid = np.array(centroid)
        mesh = np.meshgrid(*(grid.axis_coordinates[span] for span in self.box), indexing="ij", sparse=True)
        dist2 = sum((x - c) ** 2 for x, c in zip(mesh, centroid))
        return centroid, float(np.sqrt(dist2[self.support].max()))

    # -- array-level core (hot path for the solver) -------------------------

    def resolvent_array(self, vs: np.ndarray) -> np.ndarray:
        """R(Q^{1/p} v) on the grid for a support vector v, as a new C-contiguous
        real array in the memory of its own half spectrum: q_S v is scattered
        through the support's mask into the zeroed half spectrum's real view,
        and one `_real_pair` runs there with sigma on the half spectrum.

        On compact support sigma is formed one block of rows at a time, so
        the half spectrum and one block are live at most.
        """
        shape = self.grid.shape
        half = _half_spectrum(shape)
        _real_view(half, shape)[self.box][self.support] = self.q_support * vs
        return _real_pair(half, shape, self.half_sigma)

    @cached_property
    def _k_window(self):
        """Spectrum of the windowed torus kernel, the support's box on the window
        (slice(0, w_d) per axis) and the support's flat mask on the window,
        for K on the support's box (module docstring).

        A cut axis keeps r(d) for |d| <= w - 1; an axis whose window is the
        whole axis keeps sigma as it is.  sigma depends on k only through the
        squares k_i^2, so it is even along each axis and r(d) = sum_k sigma(k)
        prod_i cos(2 pi k_i d_i / n) / n^N, where each axis can run over
        0 <= k_i <= n/2 only, counting 0 < k_i < n/2 twice: one cosine matrix
        per cut axis, applied without forming r on the grid, then one FFT over
        the cut axes.  So sigma is formed only on the rows k_i <= n/2 of each
        cut axis (`helmholtz_multiplier` on those per-axis frequencies, the
        slice of the whole-lattice sigma bit for bit): 33^3 of the 64^3 points
        for the far-field bump, 0.28 grid arrays at the first build where
        sigma on the grid took 2.  The einsum contraction stays off BLAS, so
        the window does not depend on the BLAS thread count.  With no cut
        axis the spectrum is sigma itself, read-only, and on full support the
        mask is slice(None), so K's scatter and gather are views.
        """
        grid = self.grid
        widths = [span.stop - span.start for span in self.box]
        shape = [min(n, _smooth_size(max(1, 2 * w - 2))) for w, n in zip(widths, grid.shape)]
        cut = [axis for axis, (m, n) in enumerate(zip(shape, grid.shape)) if m < n]
        # sigma on the rows k_i <= n/2 of each cut axis, the only ones they read
        k = grid.axis_frequencies
        kernel = helmholtz_multiplier(grid, [k[: k.size // 2 + 1] if axis in cut else k
                                             for axis in range(grid.dimension)])
        for axis in cut:
            m, n, w = shape[axis], grid.shape[axis], widths[axis]
            d = np.arange(m)
            d = np.where(d <= m // 2, d, d - m)
            j = np.arange(n // 2 + 1)
            fold = np.where((j == 0) | (j == n // 2), 1.0, 2.0) / n
            rows = np.cos((2.0 * np.pi / n) * (np.outer(d, j) % n)) * fold
            rows[np.abs(d) >= w] = 0.0
            kernel = np.moveaxis(np.einsum("ij,j...->i...", rows, np.moveaxis(kernel, axis, 0)), 0, axis)
        if cut:
            kernel = np.fft.fftn(kernel, axes=cut).real.copy()
        kernel.setflags(write=False)
        local_box = tuple(slice(0, span.stop - span.start) for span in self.box)
        if self.full_support:
            return kernel, local_box, slice(None)
        mask = np.zeros(shape, dtype=bool)
        mask[local_box] = self.support
        return kernel, local_box, mask.reshape(-1)

    def apply_k_support(self, vs: np.ndarray) -> np.ndarray:
        """K on support vectors: q_S R(extend(q_S v))|_S, as one `_pair` on the
        window grid of `_k_window` (the grid itself on full support)."""
        spectrum, box, flat = self._k_window
        spec = _pair(spectrum, box, flat, self.q_support * vs)
        return self.q_support * spec.reshape(-1).real[flat]

    def apply_k_array(self, values: np.ndarray) -> np.ndarray:
        return self.extend(self.apply_k_support(self.restrict(values)))

    def gradient_arrays(self, v: np.ndarray, kv: np.ndarray) -> np.ndarray:
        return odd_power(v, self.exponents.p_conj - 1.0) - kv

    def energy_arrays(self, v: np.ndarray, kv: np.ndarray) -> float:
        pc = self.exponents.p_conj
        return self.dual_mass(v) / pc - 0.5 * self.inner(v, kv)

    def dual_residual_arrays(self, v: np.ndarray, kv: np.ndarray) -> float:
        """Scale-invariant residual ||J'(v)||_p / ||v||_{p'}^{p'-1}."""
        gnorm = self.lp_norm(self.gradient_arrays(v, kv), self.exponents.p)
        vnorm = self.lp_norm(v, self.exponents.p_conj)
        return gnorm / vnorm ** (self.exponents.p_conj - 1.0) if vnorm != 0.0 else gnorm

    # -- public operations ---------------------------------------------------

    def _own(self, v: Field) -> np.ndarray:
        if v.grid != self.grid:
            raise GridMismatchError("field lives on a different grid")
        return v.values

    def apply_k(self, v: Field) -> Field:
        """Coefficient-sandwiched resolvent Q^{1/p} R(Q^{1/p} v); symmetric."""
        return Field(self.grid, self.apply_k_array(self._own(v)))

    def energy(self, v: Field) -> float:
        vals = self._own(v)
        return self.energy_arrays(vals, self.apply_k_array(vals))

    def gradient(self, v: Field) -> Field:
        """Derivative |v|^{p'-2} v - K v, an element of L^p."""
        vals = self._own(v)
        return Field(self.grid, self.gradient_arrays(vals, self.apply_k_array(vals)))

    def quadratic_form(self, v: Field) -> float:
        """int v K v; positive sign is membership in the admissible cone U^+."""
        vals = self._own(v)
        return self.inner(vals, self.apply_k_array(vals))

    def fibering(self, mass: float, form: float):
        """Scale t_v = (mass/form)^{1/(2-p')} and level (1/p' - 1/2) t_v^{p'} mass of a
        field with mass ||v||_{p'}^{p'} and quadratic form int v K v."""
        if mass == 0.0:
            raise ZeroFieldError("fibering scale undefined for the zero field")
        if form <= 0.0:
            raise NotInUPlusError(f"quadratic form {form:.3e} <= 0; field not in U^+")
        pc = self.exponents.p_conj
        t = (mass / form) ** (1.0 / (2.0 - pc))
        return t, (1.0 / pc - 0.5) * t ** pc * mass

    def _fibered(self, v: Field):
        vals = self._own(v)
        return self.fibering(self.dual_mass(vals), self.inner(vals, self.apply_k_array(vals)))

    def fibering_scale(self, v: Field) -> float:
        """Unique maximizer t_v of s -> J(s v), t_v^{2-p'} = ||v||^{p'} / int v K v."""
        return float(self._fibered(v)[0])

    def nehari_energy(self, v: Field) -> float:
        """Scale-invariant fibering level (1/p' - 1/2) t_v^{p'} ||v||_{p'}^{p'}."""
        return float(self._fibered(v)[1])

    def dual_to_primal(self, v: Field) -> Field:
        """Primal reconstruction u = R(Q^{1/p} v), from v on the support: no
        whole-grid Q^{1/p} is formed."""
        return Field(self.grid, self.resolvent_array(self.restrict(self._own(v))))

    def primal_residual(self, u: Field) -> float:
        """Relative size of A u - Q |u|^{p-2} u in L^{p'}, A the operator that R inverts.

        A has the symbol s + eps^2/s, s = |k|^2 - 1 (`kernel.helmholtz_symbol`),
        which is -Delta - 1 at eps = 0; with eps > 0 it is the regularized
        operator the run solves.  Relative to the magnitude of the two
        balanced terms; the absolute norm is returned for u = 0 (where it
        vanishes anyway).  u is copied into a fresh half spectrum, where
        `_primal_check` runs, so u itself is left as it was.
        """
        vals = self._own(u)
        half = _half_spectrum(self.grid.shape)
        _real_view(half, self.grid.shape)[...] = vals
        return self._primal_check(half)

    def primal_residual_support(self, vs: np.ndarray) -> float:
        """`primal_residual` of u = R(Q^{1/p} v) for a support vector v, run in
        u's own half spectrum: u is formed by `resolvent_array` and not kept."""
        return self._primal_check(self.resolvent_array(vs).base)

    def _primal_check(self, half: np.ndarray) -> float:
        """`primal_residual` of the grid array u held in the first bytes of its own
        half spectrum `half` (`_real_view`), which the pair overwrites.

        The nonlinearity rhs is formed from u on the support S of Q first; A u
        is one `_real_pair` in u's half spectrum, with the symbol formed a
        block of the half spectrum at a time.  Off S the rhs vanishes, so
        ||lhs - rhs|| and ||lhs|| share the sum of |lhs|^{p'} over the points
        off S, taken in one pass over the grid, and the rest of all three
        norms are sums over S.  On full support that pass is empty and the
        three sums are the whole-grid ones.
        """
        p, pc = self.exponents.p, self.exponents.p_conj
        grid = self.grid
        rhs = self.q_on_support * odd_power(self.restrict(_real_view(half, grid.shape)), p - 1.0)
        lhs = _real_pair(half, grid.shape, lambda rows: helmholtz_symbol(
            grid.half_k_squared(rows) - 1.0, grid.shell_epsilon))
        lhs_s = self.restrict(lhs)
        off = 0.0
        if not self.full_support:
            # lhs_s is a copy here, so lhs can take the powers in place
            power = np.abs(lhs, out=lhs)
            power **= pc
            power[self.box][self.support] = 0.0
            off = power.sum()

        def norm(values, rest=0.0):
            return float((self.weight * (np.sum(np.abs(values) ** pc) + rest)) ** (1.0 / pc))

        res = norm(lhs_s - rhs, off)
        scale = norm(lhs_s, off) + norm(rhs)
        if scale == 0.0:
            return res
        return res / scale
