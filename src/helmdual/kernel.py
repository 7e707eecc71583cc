"""The periodic box, its sampled fields and the symbols of the Helmholtz resolvent.

The operator (-Delta - 1)^{-1} acts as the Fourier multiplier

    sigma(k) = (|k|^2 - 1) / ((|k|^2 - 1)^2 + eps^2)

on the discrete frequency lattice k = 2 pi m / L, m in [-n/2, n/2)^N
(`helmholtz_multiplier`).  With eps = 0 this is the principal-value symbol
1/(|k|^2 - 1) and the construction requires every lattice point to stay off
the unit shell; eps > 0 is the limiting-absorption regularization used for
far-field experiments.  Only the real part of the outgoing fundamental
solution enters, matching the dual variational formulation.
`helmholtz_symbol` is the symbol of the operator that sigma inverts.

This module applies neither symbol: `FunctionalContext` (dual_functional)
runs R and K for the solver, and the checks of R run that same operator.
A `GridSpec` keeps its per-axis coordinates and frequencies and the float
`delta_min`, nothing the size of the grid: |k|^2 (`k_squared`, or
`half_k_squared` on rows of a real transform's half spectrum, both `squared_norm`)
and the symbols are formed where they are used.  Every pass that streams
the grid cuts its axis-0 rows with `row_slices`.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridMismatchError, ShellResonanceError

RESONANCE_TOL = 1e-9
BLOCK_BYTES = 1 << 18  # bytes a streamed pass forms per slice of axis-0 rows (`row_slices`)


def row_slices(rows: int, row_bytes: int) -> list:
    """`rows` >= 1 axis-0 rows in order, as the fewest slices that each form at most
    BLOCK_BYTES at `row_bytes` a row or are one row, all of one size but a
    shorter last one.  BLOCK_BYTES is read on each call."""
    count = -(-rows // max(1, BLOCK_BYTES // row_bytes))
    step = -(-rows // count)
    return [slice(a, min(rows, a + step)) for a in range(0, rows, step)]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice on [0, L)^N.

    dimension       N, 2 or 3
    box_length      finite L > 0
    points_per_axis even n
    shell_epsilon   finite eps >= 0, absorption parameter of the resolvent symbol

    The spacing L/n must be positive, and the resolvent symbol's denominator
    (|k|^2 - 1)^2 + eps^2 finite at every lattice frequency.
    """

    dimension: int
    box_length: float
    points_per_axis: int
    shell_epsilon: float = 0.0

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {self.dimension}")
        if not 0.0 < self.box_length < np.inf:
            raise DomainError(f"box_length must be positive and finite, got {self.box_length!r}")
        n = self.points_per_axis
        if n <= 0 or n % 2 != 0:
            raise DomainError("points_per_axis must be a positive even integer")
        eps = self.shell_epsilon
        if not 0.0 <= eps < np.inf:
            raise DomainError(f"shell_epsilon must be nonnegative and finite, got {eps!r}")
        if not self.spacing > 0.0:
            raise DomainError(f"box_length {self.box_length!r} over {n} points has no spacing")
        # the symbol squares |k|^2 - 1, which peaks at the Nyquist corner N (pi/h)^2
        k2 = self.dimension * (math.pi / self.spacing) * (math.pi / self.spacing)
        if not math.isfinite((k2 - 1.0) * (k2 - 1.0) + eps * eps):
            raise DomainError(
                f"box_length {self.box_length!r} with {n} points and shell_epsilon {eps!r} "
                "overflows the resolvent symbol"
            )
        if eps == 0.0 and self.delta_min <= RESONANCE_TOL:
            raise ShellResonanceError(
                f"lattice touches the unit shell: min ||k|^2 - 1| = {self.delta_min:.3e} "
                f"(L={self.box_length}, n={n}); use shell_epsilon > 0 or change the box"
            )

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def weight(self) -> float:
        """Quadrature weight h^N of the uniform trapezoid rule."""
        return self.spacing ** self.dimension

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dimension

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dimension

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        x = np.arange(self.points_per_axis) * self.spacing
        x.setflags(write=False)
        return x

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        k.setflags(write=False)
        return k

    @property
    def k_squared(self) -> np.ndarray:
        """|k|^2 over the frequency lattice, as a new array on each call: no
        whole-grid symbol is kept on the grid."""
        return squared_norm([self.axis_frequencies] * self.dimension)

    def half_frequencies(self, rows: slice = slice(None)) -> list:
        """The per-axis frequencies of the axis-0 rows `rows` (all by default) of
        the half spectrum of a real transform, the last axis cut to its n/2 + 1
        nonnegative frequencies."""
        k = self.axis_frequencies
        return [k[rows]] + [k] * (self.dimension - 2) + [k[: k.size // 2 + 1]]

    def half_k_squared(self, rows: slice = slice(None)) -> np.ndarray:
        """|k|^2 on the axis-0 rows `rows` (all by default) of the half spectrum
        of a real transform (`half_frequencies`): that slice of `k_squared` bit
        for bit (`squared_norm`), as a new array on each call."""
        return squared_norm(self.half_frequencies(rows))

    @cached_property
    def delta_min(self) -> float:
        """Distance of the frequency lattice to the unit shell, min ||k|^2 - 1|,
        taken in place over the half spectrum: fftfreq negates a frequency
        exactly, so its negative has the same |k|^2 bit for bit."""
        shifted = self.half_k_squared()
        shifted -= 1.0
        return float(np.abs(shifted, out=shifted).min())

    def open_mesh(self) -> list:
        """Per-axis coordinate vectors shaped to broadcast against each other.

        An elementwise expression over them equals the same expression over
        the full coordinate mesh bit for bit (a sum `(0 + a) + b + c` rounds
        in the same order), without building N whole-grid arrays.
        """
        return np.meshgrid(*([self.axis_coordinates] * self.dimension), indexing="ij", sparse=True)

    def radius_slabs(self, center: float, point_bytes: int):
        """(rows, r) per `row_slices` slab at the caller's `point_bytes` a point, r
        the distance to (center, ..., center) on those rows in one buffer that
        the next slab overwrites: that slice of the whole-grid radius over
        `open_mesh` bit for bit, the squares summed by broadcasting."""
        squares = [(m - center) ** 2 for m in self.open_mesh()]
        n = self.points_per_axis
        slabs = row_slices(n, point_bytes * (self.size // n))
        buffer = np.empty((slabs[0].stop,) + self.shape[1:])
        for rows in slabs:
            r = buffer[: rows.stop - rows.start]
            np.add(sum(squares[1:-1], squares[0][rows]), squares[-1], out=r)
            yield rows, np.sqrt(r, out=r)

    def unit_cell_mesh(self) -> list:
        """`open_mesh` folded into [0, 1) per axis, bit-identical across unit
        cells; sampling unit-periodic expressions on it makes them exactly
        invariant under unit-cell rolls."""
        ppu = self.unit_shift_points
        if ppu is None:
            raise GridMismatchError("grid does not support unit-cell translations")
        folded = (np.arange(self.points_per_axis) % ppu) * self.spacing
        return np.meshgrid(*([folded] * self.dimension), indexing="ij", sparse=True)

    @property
    def unit_shift_points(self):
        """Grid points per unit translation, or None when L does not divide n."""
        L = self.box_length
        if abs(L - round(L)) > 1e-12:
            return None
        Li = int(round(L))
        if Li <= 0 or self.points_per_axis % Li != 0:
            return None
        return self.points_per_axis // Li


@dataclass
class Field:
    """Real scalar sampled on a GridSpec, row-major with the last axis fastest."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.shape == (self.grid.size,):
            vals = vals.reshape(self.grid.shape)
        if vals.shape != self.grid.shape:
            raise DomainError(f"values shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        self.values = vals

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)

    def lp_norm(self, q: float) -> float:
        """Discrete L^q norm with the grid quadrature weight."""
        return float((self.grid.weight * np.sum(np.abs(self.values) ** q)) ** (1.0 / q))

    def inner(self, other: "Field") -> float:
        """Quadrature of the pointwise product."""
        self._check_same_grid(other)
        return float(self.grid.weight * np.sum(self.values * other.values))


def squared_norm(axes) -> np.ndarray:
    """sum_i a_i^2 over the grid that the per-axis vectors `axes` span, as a new array.

    The squares are shaped along their own axes and summed by broadcasting,
    axis 0 first, which rounds as the same sum over the full mesh, so a cut
    axis (rows of the half spectrum of a real transform) gives the slice of
    the whole-grid values bit for bit.
    """
    dim = len(axes)
    return sum(np.square(a).reshape((1,) * i + (-1,) + (1,) * (dim - 1 - i)) for i, a in enumerate(axes))


def helmholtz_multiplier(grid: GridSpec, axes: list = None) -> np.ndarray:
    """Resolvent symbol sigma over the frequency lattice (module docstring), or,
    given per-axis frequency vectors `axes` that are slices of the grid's,
    over the lattice they span (`squared_norm`), such as rows of a real
    transform's half spectrum (`GridSpec.half_frequencies`): that slice of
    the whole-lattice sigma bit for bit.  For eps = 0 `GridSpec` already
    keeps every lattice point off the unit shell."""
    shifted = grid.k_squared if axes is None else squared_norm(axes)
    shifted -= 1.0
    out = shifted ** 2
    out += grid.shell_epsilon ** 2
    return np.divide(shifted, out, out=out)


def helmholtz_symbol(shifted: np.ndarray, eps: float) -> np.ndarray:
    """The symbol s + eps^2/s of the operator that sigma inverts, at s = |k|^2 - 1.

    It is 0 where s = 0, since sigma = s/(s^2 + eps^2) removes that mode.
    At eps = 0 the added term is a signed zero, so the symbol is s bit for
    bit: -Delta - 1.
    """
    extra = np.zeros_like(shifted)
    np.divide(eps * eps, shifted, out=extra, where=shifted != 0.0)
    extra += shifted
    return extra

