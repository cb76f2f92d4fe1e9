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

# Points a flow advances together through all of its steps. A chunk's
# rows and evaluator temporaries (128 KiB each) stay in a core's
# L2 cache. Flowing the 256^2 quartic mesh back by t = 1 in a fresh process
# took 0.35-0.41 s at this size with about 500 page faults; 2^15 points
# took 3.4 times as long, faulting in about 450,000 pages (glibc returns
# freed temporaries of that size to the system at every step), and 2^13
# 1.4-2 times as long from per-call overhead.
FLOW_CHUNK = 2 ** 14


@dataclass
class FlowMap:
    """Numerical flow of Hamilton's equations for a separable Hamiltonian.

    Leapfrog alternates the exact kick (momentum update from grad V) and
    drift (position update from grad T) flows and is symplectic. Each is a
    list of shears: row ``target`` becomes ``update(row, h * gradient)``.
    """

    hamiltonian: ClassicalHamiltonian
    dt: float = 1e-3
    _kicks: list[tuple[int, PhasePolynomial, np.ufunc]] = field(init=False, repr=False)
    _drifts: list[tuple[int, PhasePolynomial, np.ufunc]] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        h = self.hamiltonian
        self._kicks = [(h.n + j, h.V.partial_derivative(j), np.subtract) for j in range(h.n)]
        self._drifts = [(j, h.T.partial_derivative(h.n + j), np.add) for j in range(h.n)]

    def _shears(self, steps: list[float]):
        """Kick-drift-kick steps as ``(shears, h)`` pairs, generated, with
        each closing half-kick merged into the next opening one:
        K(a/2) D(a) K((a+b)/2) D(b) K(b/2).

        No gradient reads the rows its own list updates (grad V reads
        positions, grad T momenta), so the shears of a list commute and the
        merge is exact up to roundoff (Hairer, Lubich & Wanner, Geometric
        Numerical Integration, 2006, first-same-as-last Stormer-Verlet).
        """
        pending = 0.0
        for h in steps:
            yield self._kicks, pending + h / 2.0
            yield self._drifts, h
            pending = h / 2.0
        yield self._kicks, pending

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
        # one float object repeated: the list holds 8 bytes per step
        step = math.copysign(self.dt, t)
        if whole and math.isclose(ratio, whole, rel_tol=1e-12):
            return [step] * whole
        whole = math.floor(ratio)
        sizes = [step] * (whole + 1)
        sizes[-1] = math.copysign(span - whole * self.dt, t)
        return sizes

    def _flow_columns(self, x: np.ndarray, t: float, shape: tuple, start: int = 0) -> None:
        """Advance the columns of a (2n, M) array in place by t.

        The columns go FLOW_CHUNK at a time, each chunk through every
        shear before the next, so no shear makes a temporary of M values.
        The arithmetic per point does not depend on the chunking. Raises
        BlowUpError naming the first non-finite columns of a chunk by their
        index in ``shape``, column 0 being flat index ``start``.
        """
        if t == 0.0:
            return
        steps = self._step_sizes(t)
        for a in range(0, x.shape[1], FLOW_CHUNK):
            chunk = x[:, a:a + FLOW_CHUNK]
            rows = list(chunk)
            for shears, h in self._shears(steps):
                for target, gradient, update in shears:
                    d = gradient.evaluate_array(rows)
                    d *= h
                    update(rows[target], d, out=rows[target])
            bad = np.flatnonzero(~np.isfinite(chunk).all(axis=0))
            if bad.size:
                index = np.stack(np.unravel_index(start + a + bad[:10], shape), axis=-1)
                raise BlowUpError(
                    f"flow produced non-finite values at sample indices {index.tolist()}"
                )

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
        self._flow_columns(x, t, points.shape[:-1] or (1,))
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
    grid needs one axis per phase-space coordinate.

    The cells go FLOW_CHUNK at a time, in C order: each chunk's centres
    are flowed back and read off by rho0 before the next is built, so
    beside the result no array of one value per cell is ever held.
    """
    dim = 2 * map.hamiltonian.n
    if spec.num_modes != dim:
        raise ValueError(f"the grid has {spec.num_modes} axes, the flow {dim} coordinates")
    xs = spec.positions()
    values = np.empty(spec.shape)
    flat = values.reshape(-1)
    for start in range(0, flat.size, FLOW_CHUNK):
        cells = np.unravel_index(np.arange(start, min(start + FLOW_CHUNK, flat.size)), spec.shape)
        x = np.stack([xs[index] for index in cells])
        map._flow_columns(x, -t, spec.shape, start)
        flat[start:start + x.shape[1]] = rho0(np.ascontiguousarray(x.T))
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
