"""Exact Gaussian backend for quadratic KvN generators.

A term sign * (c0 + sum_k c_k X_k) * P_j of a quadratic generator moves
only the position quadrature X_j, by an affine function of the positions
alone, so the flow of the position quadratures X_1..X_m is closed on
itself: dX/dt = A X + b. It carries the Gaussian density N(mean, cov)
over the positions to another Gaussian, whose mean and covariance a
single matrix exponential gives: no grid, no product formula, no
discretization error.
"""

from __future__ import annotations

import numpy as np

from .kvn import KvNHamiltonian


def evolve_gaussian(
    kvn: KvNHamiltonian, mean: np.ndarray, cov: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of N(mean, cov) over the position quadratures,
    transported by the generator's exact linear flow for time t."""
    # Imported here, its only use: scipy.linalg adds about 6 MB and 0.05 s
    # to every process that imports this module.
    from scipy.linalg import expm

    m = kvn.num_modes
    if len(mean) != m:
        raise ValueError(f"generator over {m} modes applied to a {len(mean)}-mode state")
    # [[A, b], [0, 0]]: column m holds the drift b of the constant factors
    generator = np.zeros((m + 1, m + 1))
    for term in kvn.terms:
        if term.factor.degree() > 1:
            raise ValueError(
                "Gaussian backend requires a quadratic KvN generator; "
                f"found a factor of degree {term.factor.degree()}"
            )
        for expo, coeff in term.factor.terms.items():
            k = next((i for i, e in enumerate(expo) if e), m)
            generator[term.mode, k] += term.sign * float(coeff)
    propagator = expm(generator * t)
    e = propagator[:m, :m]
    cov = e @ cov @ e.T
    return e @ mean + propagator[:m, m], 0.5 * (cov + cov.T)
