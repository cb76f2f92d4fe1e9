"""Classical reference dynamics: Hamiltonian flow, Liouville densities by
the method of characteristics, Monte Carlo ensembles and density metrics.

Everything here stays on the classical side (ordinary differential
equations and pushforwards of probability densities); it shares no code
with the quantum backend beyond the grid geometry, which is what makes it
a usable correctness oracle for the emulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import BlowUpError, DensityGrid, GridSpec, position_moments
from .kvn import ClassicalHamiltonian
from .phasepoly import PhasePolynomial

INTEGRATORS = ("leapfrog", "rk4")


@dataclass
class FlowMap:
    """Numerical flow of Hamilton's equations for a separable Hamiltonian.

    leapfrog alternates the exact kick (momentum update from grad V) and
    drift (position update from grad T) flows and is symplectic; rk4 is the
    generic fourth-order scheme on dx/dt = J grad H, kept as a cross-check.
    """

    hamiltonian: ClassicalHamiltonian
    integrator: str = "leapfrog"
    dt: float = 1e-3
    _grad_v: list[PhasePolynomial] = field(init=False, repr=False)
    _grad_t: list[PhasePolynomial] = field(init=False, repr=False)

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        h = self.hamiltonian
        self._grad_v = [h.V.partial_derivative(j) for j in range(h.n)]
        self._grad_t = [h.T.partial_derivative(h.n + j) for j in range(h.n)]

    # -- single steps on a (2n, M) state -------------------------------------

    def _kick(self, x: np.ndarray, dt: float) -> None:
        n = self.hamiltonian.n
        for j, grad in enumerate(self._grad_v):
            x[n + j] -= dt * grad.evaluate_array(x)

    def _drift(self, x: np.ndarray, dt: float) -> None:
        drifts = [grad.evaluate_array(x) for grad in self._grad_t]
        for j, d in enumerate(drifts):
            x[j] += dt * d

    def _leapfrog(self, x: np.ndarray, steps: list[float]) -> None:
        """Kick-drift-kick steps with each step's closing half-kick merged
        into the next step's opening one: K(a/2) D(a) K((a+b)/2) D(b) K(b/2).

        Kicks commute with each other (grad V reads positions only), so the
        merge is exact up to roundoff (Hairer, Lubich & Wanner, Geometric
        Numerical Integration, 2006, first-same-as-last Stormer-Verlet).
        """
        pending = 0.0
        for h in steps:
            self._kick(x, pending + h / 2.0)
            self._drift(x, h)
            pending = h / 2.0
        self._kick(x, pending)

    def _vector_field(self, x: np.ndarray) -> np.ndarray:
        # H is separable, so J grad H = (grad T, -grad V).
        n = self.hamiltonian.n
        out = np.empty_like(x)
        for j in range(n):
            out[j] = self._grad_t[j].evaluate_array(x)
            out[n + j] = -self._grad_v[j].evaluate_array(x)
        return out

    def _rk4_step(self, x: np.ndarray, dt: float) -> None:
        k1 = self._vector_field(x)
        k2 = self._vector_field(x + 0.5 * dt * k1)
        k3 = self._vector_field(x + 0.5 * dt * k2)
        k4 = self._vector_field(x + dt * k3)
        x += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def _step_sizes(self, t: float) -> list[float]:
        """Signed step sizes summing to t: whole dt steps, plus one shorter
        last step only when |t| is not a whole multiple of dt.

        A remainder within rounding of t / dt (1e-12 relative, far above
        the error of the division) is not a step: summing
        ``remaining -= dt`` would turn t = 2.5, dt = 1e-3 into 2501 steps,
        the last one 1.6e-13 long.
        """
        span = abs(t)
        ratio = span / self.dt
        whole = round(ratio)
        if whole and math.isclose(ratio, whole, rel_tol=1e-12):
            sizes = [self.dt] * whole
        else:
            whole = math.floor(ratio)
            sizes = [self.dt] * whole + [span - whole * self.dt]
        return [math.copysign(h, t) for h in sizes]

    # -- public flow ---------------------------------------------------------

    def flow_array(self, points: np.ndarray, t: float) -> np.ndarray:
        """Advance an array of phase-space points (shape (..., 2n)) by t.

        Negative t integrates backward. The final step is shortened so the
        trajectory lands on t exactly. Complex input stays complex (for
        complex-step derivatives); anything else is integrated in float64.
        """
        dim = 2 * self.hamiltonian.n
        points = np.asarray(points)
        if points.shape[-1] != dim:
            raise ValueError(f"points must have last axis {dim}")
        dtype = points.dtype if np.issubdtype(points.dtype, np.complexfloating) else float
        x = np.array(points.reshape(-1, dim).T, dtype=dtype, order="C")
        if t != 0.0:
            steps = self._step_sizes(t)
            if self.integrator == "leapfrog":
                self._leapfrog(x, steps)
            else:
                for h in steps:
                    self._rk4_step(x, h)
            if not np.all(np.isfinite(x)):
                bad = np.argwhere(~np.isfinite(x).all(axis=0).reshape(points.shape[:-1]))
                raise BlowUpError(
                    f"flow produced non-finite values at sample indices {bad[:10].tolist()}"
                )
        return np.ascontiguousarray(x.T).reshape(points.shape)


@dataclass
class ClassicalEnsemble:
    """Uniformly weighted phase-space samples, shape (count, 2n)."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValueError("ensemble needs at least one sample of shape (2n,)")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("ensemble contains non-finite samples")

    @classmethod
    def gaussian(
        cls, mean, cov, count: int, seed: int
    ) -> "ClassicalEnsemble":
        rng = np.random.default_rng(seed)
        return cls(rng.multivariate_normal(np.asarray(mean), np.asarray(cov), size=count))

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def cov(self) -> np.ndarray:
        return np.cov(self.samples.T, bias=True)


def ensemble_evolve(map: FlowMap, ensemble: ClassicalEnsemble, t: float) -> ClassicalEnsemble:
    """Transport every sample along the flow; the count is preserved."""
    return ClassicalEnsemble(map.flow_array(ensemble.samples, t))


def liouville_density_grid(
    map: FlowMap, rho0: Callable[[np.ndarray], np.ndarray], t: float, spec: GridSpec
) -> DensityGrid:
    """Liouville solution by characteristics, rho(x, t) = rho0(flow(x, -t)),
    at every grid cell center (the flow preserves phase-space volume); the
    grid needs one axis per phase-space coordinate."""
    origins = map.flow_array(spec.mesh(), -t)
    values = np.asarray(rho0(origins), dtype=float)
    return DensityGrid(spec, values)


def gaussian_density(mean, cov) -> Callable[[np.ndarray], np.ndarray]:
    """Multivariate normal density as a vectorized callable on (..., d)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = len(mean)
    prec = np.linalg.inv(cov)
    norm = 1.0 / np.sqrt((2 * np.pi) ** d * np.linalg.det(cov))

    def density(points: np.ndarray) -> np.ndarray:
        diff = np.asarray(points, dtype=float) - mean
        quad = np.einsum("...i,ij,...j->...", diff, prec, diff)
        return norm * np.exp(-0.5 * quad)

    return density


@dataclass(frozen=True)
class DensityComparison:
    """Total-variation distance plus first/second moment discrepancies."""

    total_variation: float
    first_moment_error: np.ndarray
    second_moment_error_norm: float


def compare_densities(a: DensityGrid, b: DensityGrid) -> DensityComparison:
    """Compare two densities sampled on the same grid."""
    if a.spec != b.spec:
        raise ValueError("densities live on different grids")
    tv = 0.5 * float(np.sum(np.abs(a.values - b.values)) * a.spec.cell_volume)
    mean_a, cov_a = position_moments(a)
    mean_b, cov_b = position_moments(b)
    second_a = cov_a + np.outer(mean_a, mean_a)
    second_b = cov_b + np.outer(mean_b, mean_b)
    return DensityComparison(
        total_variation=tv,
        first_moment_error=mean_a - mean_b,
        second_moment_error_norm=float(np.linalg.norm(second_a - second_b)),
    )
