"""Exact Gaussian backend for quadratic KvN generators.

A quadratic generator moves Gaussian states to Gaussian states, so the
state is represented exactly by its quadrature mean vector and covariance
matrix (ordering X_1..X_m, P_1..P_m). Evolution integrates the linear
Heisenberg flow of the quadratures with a single matrix exponential; no
grid, no product formula, no discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kvn import KvNHamiltonian


@dataclass
class GaussianState:
    """Mean vector (length 2m) and covariance (2m x 2m) of m qumodes."""

    num_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = self.num_modes
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.mean.shape != (2 * m,):
            raise ValueError(f"mean must have length {2 * m}")
        if self.cov.shape != (2 * m, 2 * m):
            raise ValueError(f"covariance must be {2 * m} x {2 * m}")
        if not np.allclose(self.cov, self.cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(self.cov).min() <= 0:
            raise ValueError("covariance must be positive definite")

    @classmethod
    def from_position_density(
        cls, mean: np.ndarray, cov: np.ndarray
    ) -> "GaussianState":
        """State of the real Gaussian wavefunction whose squared modulus is
        N(mean, cov) over the position quadratures.

        The momentum quadratures then have zero mean, covariance
        cov^-1 / 4 and no position-momentum correlations (minimum
        uncertainty; the vacuum is the cov = I/2 case).
        """
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        m = len(mean)
        full_mean = np.concatenate([mean, np.zeros(m)])
        full_cov = np.zeros((2 * m, 2 * m))
        full_cov[:m, :m] = cov
        full_cov[m:, m:] = np.linalg.inv(cov) / 4.0
        return cls(m, full_mean, full_cov)

    def position_mean(self) -> np.ndarray:
        return self.mean[: self.num_modes].copy()

    def position_cov(self) -> np.ndarray:
        return self.cov[: self.num_modes, : self.num_modes].copy()


def _heisenberg_generator(h: KvNHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Linear part A and drift b of the quadrature mean flow du/dt = A u + b.

    For a term sign * (c0 + sum_k c_k X_k) * P_j the commutator algebra
    gives dX_j/dt = sign * (c0 + sum_k c_k X_k) and dP_k/dt =
    -sign * c_k P_j; covariance transport uses the same A.
    """
    m = h.num_modes
    a = np.zeros((2 * m, 2 * m))
    b = np.zeros(2 * m)
    for term in h.terms:
        if term.factor.degree() > 1:
            raise ValueError(
                "Gaussian backend requires a quadratic KvN generator; "
                f"found a factor of degree {term.factor.degree()}"
            )
        j = term.mode
        for expo, coeff in term.factor.terms.items():
            c = term.sign * float(coeff)
            if sum(expo) == 0:
                b[j] += c
            else:
                k = next(i for i, e in enumerate(expo) if e)
                a[j, k] += c
                a[m + k, m + j] -= c
    return a, b


def evolve_gaussian(state: GaussianState, h: KvNHamiltonian, t: float) -> GaussianState:
    """Transport mean and covariance by the exact linear flow for time t."""
    # Imported here, its only use: scipy.linalg adds about 6 MB and 0.05 s
    # to every process that imports this module.
    from scipy.linalg import expm

    if h.num_modes != state.num_modes:
        raise ValueError(
            f"generator over {h.num_modes} modes applied to a "
            f"{state.num_modes}-mode state"
        )
    a, b = _heisenberg_generator(h)
    dim = 2 * state.num_modes
    affine = np.zeros((dim + 1, dim + 1))
    affine[:dim, :dim] = a * t
    affine[:dim, dim] = b * t
    propagator = expm(affine)
    e = propagator[:dim, :dim]
    drift = propagator[:dim, dim]
    mean = e @ state.mean + drift
    cov = e @ state.cov @ e.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(state.num_modes, mean, cov)
