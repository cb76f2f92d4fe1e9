"""Experiment configuration: a single versioned JSON file drives every run.

No environment variables, no hidden defaults that change results: two runs
with the same config file produce byte-identical outputs. Validation
happens up front and reports the offending field together with the
violated structural assumption (cross terms, degree bound, backend
compatibility), so a bad config never reaches the numerics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import CoverageError, GridSpec, GridSpecError, check_coverage
from .kvn import (
    ClassicalHamiltonian,
    DegreeError,
    KvNHamiltonian,
    SeparationError,
    build_kvn,
    validate_separation,
)
from .phasepoly import parse_polynomial

CONFIG_VERSION = 1

# The config field behind each GridSpec parameter (each qumode carries one
# of the 2n phase-space coordinates).
_GRID_FIELDS = {
    "num_modes": "hamiltonian.n",
    "points_per_mode": "grid.points_per_mode",
    "half_extent": "grid.half_extent",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class VerifyThresholds:
    tv: float = 0.05
    first_moment: float = 0.05

    def __post_init__(self):
        for name, value in (
            ("verify.tv_threshold", self.tv),
            ("verify.moment_threshold", self.first_moment),
        ):
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name}: must be positive and finite, got {value}")


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    hamiltonian: polynomial literal over 2n variables plus n; must split
    into V(positions) + T(momenta) of degree at most four.
    initial_density: Gaussian mean/covariance over the 2n coordinates.
    grid: points per qumode and half extent (each coordinate gets one
    qumode). evolution: time, Trotter steps and product-formula order.
    backend: "grid" or "gaussian"; the Gaussian backend is exact but only
    defined when the KvN generator is quadratic.
    """

    n: int
    hamiltonian_text: str
    hamiltonian: ClassicalHamiltonian
    kvn: KvNHamiltonian
    mean: np.ndarray
    covariance: np.ndarray
    points_per_mode: int
    half_extent: float
    t: float
    n_steps: int
    order: int
    backend: str
    num_samples: int
    seed: int
    outputs: Path
    verify: VerifyThresholds = field(default_factory=VerifyThresholds)

    @property
    def num_modes(self) -> int:
        return 2 * self.n


def _require(data: dict, key: str, section: str) -> object:
    if key not in data:
        raise ConfigError(f"{section}: missing required field {key!r}")
    return data[key]


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    version = data.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"version: unsupported config version {version}, expected {CONFIG_VERSION}"
        )

    ham = _require(data, "hamiltonian", "config")
    n = int(_require(ham, "n", "hamiltonian"))
    if n < 1:
        raise ConfigError("hamiltonian.n: must be a positive integer")
    text = str(_require(ham, "H", "hamiltonian"))
    try:
        raw = parse_polynomial(text, 2 * n)
    except ValueError as exc:
        raise ConfigError(f"hamiltonian.H: {exc}") from exc
    try:
        hamiltonian = validate_separation(raw, n)
    except SeparationError as exc:
        raise ConfigError(
            f"hamiltonian.H: {exc} (the position/momentum separation "
            "H = V(x1..xn) + T(x{n+1}..x{2n}) is required)"
        ) from exc
    except DegreeError as exc:
        raise ConfigError(
            f"hamiltonian.H: {exc} (V and T are restricted to quartic polynomials)"
        ) from exc
    kvn = build_kvn(hamiltonian)

    density = _require(data, "initial_density", "config")
    mean = np.asarray(_require(density, "mean", "initial_density"), dtype=float)
    cov = np.asarray(_require(density, "covariance", "initial_density"), dtype=float)
    if mean.shape != (2 * n,):
        raise ConfigError(f"initial_density.mean: expected {2 * n} entries")
    if cov.shape != (2 * n, 2 * n):
        raise ConfigError(f"initial_density.covariance: expected a {2 * n}x{2 * n} matrix")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ConfigError("initial_density.covariance: must be symmetric")
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise ConfigError("initial_density.covariance: must be positive definite")

    grid = data.get("grid", {})
    points = int(grid.get("points_per_mode", 128))
    half_extent = float(grid.get("half_extent", 8.0))
    try:
        spec = GridSpec(2 * n, points, half_extent)
    except GridSpecError as exc:
        raise ConfigError(f"{_GRID_FIELDS[exc.param]}: {exc}") from exc
    try:
        check_coverage(spec, mean, cov)
    except CoverageError as exc:
        raise ConfigError(f"grid.half_extent: {exc}") from exc

    evolution = _require(data, "evolution", "config")
    t = float(_require(evolution, "t", "evolution"))
    if not np.isfinite(t):
        raise ConfigError("evolution.t: must be finite")
    n_steps = int(evolution.get("n_steps", 100))
    if n_steps < 1:
        raise ConfigError("evolution.n_steps: must be a positive integer")
    order = int(evolution.get("order", 1))
    if order not in (1, 2):
        raise ConfigError("evolution.order: must be 1 or 2")

    backend = str(data.get("backend", "grid"))
    if backend not in ("grid", "gaussian"):
        raise ConfigError('backend: must be "grid" or "gaussian"')
    if backend == "gaussian" and not kvn.is_quadratic():
        raise ConfigError(
            "backend: the gaussian backend requires an at most quadratic KvN "
            "generator (quadratic Hamiltonian); use the grid backend"
        )

    sampling = data.get("sampling", {})
    num_samples = int(sampling.get("num_samples", 0))
    if num_samples < 0:
        raise ConfigError("sampling.num_samples: must be nonnegative")
    seed = int(sampling.get("seed", 0))

    outputs = Path(str(data.get("outputs", "out")))

    verify_data = data.get("verify", {})
    verify = VerifyThresholds(
        tv=float(verify_data.get("tv_threshold", 0.05)),
        first_moment=float(verify_data.get("moment_threshold", 0.05)),
    )

    return ExperimentConfig(
        n=n,
        hamiltonian_text=text,
        hamiltonian=hamiltonian,
        kvn=kvn,
        mean=mean,
        covariance=cov,
        points_per_mode=points,
        half_extent=half_extent,
        t=t,
        n_steps=n_steps,
        order=order,
        backend=backend,
        num_samples=num_samples,
        seed=seed,
        outputs=outputs,
        verify=verify,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
