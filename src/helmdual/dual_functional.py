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
vector over S (`restrict` / `extend`) and touches the grid only inside the
FFT pair of R.  When Q > 0 everywhere S is the whole grid and both maps are
views.

K is one FFT pair on a window grid around the bounding box of S (`box`).
R is the circular convolution with the torus kernel r = ifftn(sigma), and
between two points of a box of w_d points per axis only the 2 w_d - 1
differences |d_i| <= w_d - 1 occur.  So K convolves on a window grid of
M_d >= 2 w_d - 1 points per axis (the smallest 2*3*5-smooth size, or n_d
itself when that is not smaller) with r cut to those differences: the
zero-padded convolution of Hockney & Eastwood, here with the torus kernel
itself, so the operator is the same to rounding.  A window axis of n_d points
keeps sigma as it is, so on full support the window is the grid with sigma
itself.  `dual_to_primal` needs R on the whole grid and prunes its forward
transform to the box (`pruned_fftn`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridMismatchError, NotInUPlusError, ZeroFieldError
from .kernel import Field, GridSpec, helmholtz_multiplier


def pruned_fftn(values: np.ndarray, box) -> np.ndarray:
    """fftn(values) for values that vanish outside `box`, as a new complex array.

    `box` is a tuple of per-axis slices, or None for the whole grid (one
    plain `fftn`).  Axes run last to first, as in `fftn`; the pass over axis
    d transforms only the lines whose earlier axes lie in the box, since
    every other line still holds exact zeros.
    """
    if box is None:
        return np.fft.fftn(values)
    spec = np.zeros(values.shape, dtype=complex)
    spec[box] = values[box]
    for d in reversed(range(values.ndim)):
        block = spec[box[:d]]
        np.fft.fftn(block, axes=(d,), out=block)
    return spec


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


def odd_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """sign(x) |x|^exponent with the continuous extension 0 at x = 0."""
    out = np.abs(values)
    out **= exponent
    return np.copysign(out, values, out=out)


def sine_product(grid: GridSpec, offset: float = 1.0, amplitude: float = 0.5) -> np.ndarray:
    """The oscillating coefficient offset + amplitude prod_j sin(2 pi x_j).

    On a grid with unit shifts it is sampled on the folded unit-cell mesh,
    which makes the samples exactly unit-periodic; otherwise on the plain mesh.
    """
    mesh = grid.unit_cell_mesh() if grid.unit_shift_points is not None else grid.coordinate_mesh()
    return offset + amplitude * np.prod([np.sin(2.0 * np.pi * m) for m in mesh], axis=0)


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


@dataclass
class Coefficient:
    """Nonnegative bounded coefficient Q with its cached root Q^{1/p}."""

    field: Field
    q_root: Field
    p: float
    periodic: bool = False

    @classmethod
    def build(cls, q: Field, p: float, periodic: bool = False) -> "Coefficient":
        vals = q.values
        if np.any(vals < 0.0):
            raise DomainError("coefficient must be nonnegative")
        if not np.any(vals > 0.0):
            raise DomainError("coefficient must not vanish identically")
        if periodic:
            shift = q.grid.unit_shift_points
            if shift is None:
                raise GridMismatchError(
                    "unit-periodic coefficient needs points_per_axis divisible by box_length"
                )
            for axis in range(q.grid.dimension):
                if not np.array_equal(np.roll(vals, shift, axis=axis), vals):
                    raise DomainError(f"coefficient not unit-periodic along axis {axis}")
        return cls(field=q, q_root=Field(q.grid, vals ** (1.0 / p)), p=p, periodic=periodic)


class FunctionalContext:
    """Grid, exponents and coefficient bundled with cached spectral data."""

    def __init__(self, grid: GridSpec, exponents: Exponents, coefficient: Coefficient):
        if coefficient.field.grid != grid:
            raise GridMismatchError("coefficient sampled on a different grid")
        if exponents.dimension != grid.dimension:
            raise DomainError("exponents and grid disagree on the dimension")
        if coefficient.p != exponents.p:
            raise DomainError("coefficient root cached for a different p")
        self.grid = grid
        self.exponents = exponents
        self.coefficient = coefficient
        self.sigma = helmholtz_multiplier(grid)
        self.q_root = coefficient.q_root.values
        self.weight = grid.weight
        # Coefficient.build rejects Q == 0, so the support is never empty
        self.support = np.flatnonzero(self.q_root > 0.0)
        self.full_support = self.support.size == grid.size
        self.q_support = self.restrict(self.q_root)
        # per-axis index range of the support; None when it spans the grid
        box = tuple(slice(int(idx.min()), int(idx.max()) + 1)
                    for idx in np.unravel_index(self.support, grid.shape))
        spans = all(b.stop - b.start == n for b, n in zip(box, grid.shape))
        self.box = None if spans else box

    # -- quadrature helpers ------------------------------------------------

    def lp_norm(self, values: np.ndarray, q: float) -> float:
        return float((self.weight * np.sum(np.abs(values) ** q)) ** (1.0 / q))

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.weight * np.sum(a * b))

    def dual_mass(self, values: np.ndarray) -> float:
        """||v||_{p'}^{p'} without the final root."""
        return float(self.weight * np.sum(np.abs(values) ** self.exponents.p_conj))

    # -- the support of Q --------------------------------------------------

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Grid values at the support points, as a flat vector (a view on full support)."""
        flat = values.reshape(-1)
        return flat if self.full_support else flat[self.support]

    def extend(self, vs: np.ndarray) -> np.ndarray:
        """Support vector back on the grid, zero off the support (a view on full support)."""
        if self.full_support:
            return vs.reshape(self.grid.shape)
        out = np.zeros(self.grid.size)
        out[self.support] = vs
        return out.reshape(self.grid.shape)

    # -- array-level core (hot path for the solver) -------------------------

    def resolvent_array(self, values: np.ndarray) -> np.ndarray:
        """R(values) on the grid, from one complex array allocated per call.

        `values` must vanish outside the support's box, which prunes the
        forward transform (`pruned_fftn`); on a box that spans the grid this
        is one `fftn` and one `ifftn`.
        """
        spec = pruned_fftn(values, self.box)
        spec *= self.sigma
        return np.fft.ifftn(spec, out=spec).real

    @cached_property
    def _k_window(self):
        """Spectrum of the windowed torus kernel, and the window index of each
        support point, for K on the support's box (module docstring).

        A cut axis keeps r(d) for |d| <= w - 1; an axis whose window is the
        whole axis keeps sigma as it is.  sigma depends on k only through the
        squares k_i^2, so it is even along each axis and r(d) = sum_k sigma(k)
        prod_i cos(2 pi k_i d_i / n) / n^N, where each axis can run over
        0 <= k_i <= n/2 only, counting 0 < k_i < n/2 twice: one cosine matrix
        per cut axis, applied without forming r on the grid, then one FFT over
        the cut axes.  The einsum contraction stays off BLAS, so the window
        does not depend on the BLAS thread count.  On full support the
        spectrum is sigma itself and the index slice(None), a view.
        """
        box = self.box or tuple(slice(0, n) for n in self.grid.shape)
        kernel = self.sigma
        shape, cut = [], []
        for axis, (span, n) in enumerate(zip(box, self.grid.shape)):
            w = span.stop - span.start
            m = min(n, _smooth_size(2 * w - 1))
            shape.append(m)
            if m == n:
                continue
            cut.append(axis)
            d = np.arange(m)
            d = np.where(d <= m // 2, d, d - m)
            k = np.arange(n // 2 + 1)
            fold = np.where((k == 0) | (k == n // 2), 1.0, 2.0) / n
            rows = np.cos((2.0 * np.pi / n) * (np.outer(d, k) % n)) * fold
            rows[np.abs(d) >= w] = 0.0
            half = np.moveaxis(kernel, axis, 0)[:n // 2 + 1]
            kernel = np.moveaxis(np.einsum("ij,j...->i...", rows, half), 0, axis)
        if cut:
            kernel = np.fft.fftn(kernel, axes=cut).real.copy()
        if self.full_support:
            return kernel, slice(None)
        local = np.unravel_index(self.support, self.grid.shape)
        flat = np.ravel_multi_index(tuple(i - span.start for i, span in zip(local, box)), shape)
        return kernel, flat

    def apply_k_support(self, vs: np.ndarray) -> np.ndarray:
        """K on support vectors: q_S R(extend(q_S v))|_S, as one FFT pair on
        the window grid of `_k_window` (the grid itself on full support)."""
        spectrum, flat = self._k_window
        spec = np.zeros(spectrum.shape, dtype=complex)
        spec.reshape(-1)[flat] = self.q_support * vs
        np.fft.fftn(spec, out=spec)
        spec *= spectrum
        np.fft.ifftn(spec, out=spec)
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

    def dual_residual(self, v: Field) -> float:
        vals = self._own(v)
        return self.dual_residual_arrays(vals, self.apply_k_array(vals))

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
        """Primal reconstruction u = R(Q^{1/p} v)."""
        vals = self._own(v)
        return Field(self.grid, self.resolvent_array(self.q_root * vals))

    def primal_residual(self, u: Field) -> float:
        """Relative size of -Delta u - u - Q |u|^{p-2} u in L^{p'}.

        Relative to the magnitude of the two balanced terms; the absolute
        norm is returned for u = 0 (where it vanishes anyway).  The
        nonlinearity is formed on the support of Q and extended by zero: off
        the support the whole-grid product is +-0, so the difference and
        all three norms are the whole-grid formula's, bit for bit.
        """
        vals = self._own(u)
        pc = self.exponents.p_conj
        spec = np.fft.fftn(vals)
        spec *= self.grid.k_squared - 1.0
        lhs = np.fft.ifftn(spec, out=spec).real
        q = self.restrict(self.coefficient.field.values)
        rhs = self.extend(q * odd_power(self.restrict(vals), self.exponents.p - 1.0))
        res = self.lp_norm(lhs - rhs, pc)
        scale = self.lp_norm(lhs, pc) + self.lp_norm(rhs, pc)
        if scale == 0.0:
            return float(res)
        return float(res / scale)
