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
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError, NotInUPlusError, ZeroFieldError
from .kernel import Field, GridSpec, helmholtz_multiplier


def odd_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """sign(x) |x|^exponent with the continuous extension 0 at x = 0."""
    out = np.abs(values)
    out **= exponent
    return np.copysign(out, values, out=out)


@dataclass(frozen=True)
class Exponents:
    """Nonlinearity power p with its conjugate and admissibility window."""

    dimension: int
    p: float

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        lo, hi = self.lower_bound, self.upper_bound
        if not (lo < self.p < hi):
            raise ValueError(
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
            raise ValueError("exponents and grid disagree on the dimension")
        if coefficient.p != exponents.p:
            raise ValueError("coefficient root cached for a different p")
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
        return np.fft.ifftn(self.sigma * np.fft.fftn(values)).real

    def apply_k_support(self, vs: np.ndarray) -> np.ndarray:
        """K on support vectors: q_S R(extend(q_S v))|_S."""
        return self.q_support * self.restrict(self.resolvent_array(self.extend(self.q_support * vs)))

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

    def fibering_scale(self, v: Field) -> float:
        """Unique maximizer t_v of s -> J(s v), t_v^{2-p'} = ||v||^{p'} / int v K v."""
        vals = self._own(v)
        m = self.dual_mass(vals)
        if m == 0.0:
            raise ZeroFieldError("fibering scale undefined for the zero field")
        qf = self.inner(vals, self.apply_k_array(vals))
        if qf <= 0.0:
            raise NotInUPlusError(f"quadratic form {qf:.3e} <= 0; field not in U^+")
        return float((m / qf) ** (1.0 / (2.0 - self.exponents.p_conj)))

    def nehari_energy(self, v: Field) -> float:
        """Scale-invariant fibering level (1/p' - 1/2) t_v^{p'} ||v||_{p'}^{p'}."""
        pc = self.exponents.p_conj
        t = self.fibering_scale(v)
        return float((1.0 / pc - 0.5) * t ** pc * self.dual_mass(self._own(v)))

    def dual_to_primal(self, v: Field) -> Field:
        """Primal reconstruction u = R(Q^{1/p} v)."""
        vals = self._own(v)
        return Field(self.grid, self.resolvent_array(self.q_root * vals))

    def primal_residual(self, u: Field) -> float:
        """Relative size of -Delta u - u - Q |u|^{p-2} u in L^{p'}.

        Relative to the magnitude of the two balanced terms; the absolute
        norm is returned for u = 0 (where it vanishes anyway).
        """
        vals = self._own(u)
        pc = self.exponents.p_conj
        lhs = np.fft.ifftn((self.grid.k_squared - 1.0) * np.fft.fftn(vals)).real
        rhs = self.coefficient.field.values * odd_power(vals, self.exponents.p - 1.0)
        res = self.lp_norm(lhs - rhs, pc)
        scale = self.lp_norm(lhs, pc) + self.lp_norm(rhs, pc)
        if scale == 0.0:
            return float(res)
        return float(res / scale)
