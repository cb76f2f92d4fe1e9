"""Experiment configuration: a single versioned JSON file drives every run.

No environment variables, no hidden defaults that change results: two runs
with the same config file produce byte-identical outputs. Validation
happens up front and reports the offending field together with the
violated structural assumption (cross terms, degree bound, backend
compatibility), so a bad config never reaches the numerics.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import MAX_MODES, MEMORY_CAP_BYTES, GridSpec, GridSpecError, check_gaussian
from .kvn import (
    ClassicalHamiltonian,
    DegreeError,
    KvNHamiltonian,
    SeparationError,
    build_kvn,
    validate_separation,
)
from .phasepoly import parse_polynomial
from .synth import trotter_circuit

CONFIG_VERSION = 1
BACKENDS = ("grid", "gaussian")

# The config field behind each parameter named in the errors of GridSpec and
# check_gaussian (each qumode carries one of the 2n phase-space coordinates).
_GRID_FIELDS = {
    "num_modes": "hamiltonian.n",
    "points_per_mode": "grid.points_per_mode",
    "half_extent": "grid.half_extent",
    "mean": "initial_density.mean",
    "cov": "initial_density.covariance",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class VerifyThresholds:
    tv: float
    first_moment: float


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    hamiltonian: polynomial literal over 2n variables plus n; must split
    into V(positions) + T(momenta) of degree at most four.
    initial_density: Gaussian mean/covariance over the 2n coordinates.
    spec: the validated grid (each coordinate gets one qumode).
    evolution: time, Trotter steps and product-formula order.
    backend: "grid" or "gaussian"; the Gaussian backend is exact but only
    defined when the KvN generator is quadratic.
    """

    hamiltonian: ClassicalHamiltonian
    kvn: KvNHamiltonian
    mean: np.ndarray
    covariance: np.ndarray
    spec: GridSpec
    t: float
    n_steps: int
    order: int
    backend: str
    num_samples: int
    seed: int
    outputs: Path
    verify: VerifyThresholds

    @property
    def num_modes(self) -> int:
        return self.spec.num_modes

    @property
    def points_per_mode(self) -> int:
        return self.spec.points_per_mode

    @property
    def half_extent(self) -> float:
        return self.spec.half_extent


def check_backend(backend: str, kvn: KvNHamiltonian) -> None:
    """The grid backend runs any generator, the exact Gaussian one only a quadratic."""
    if backend not in BACKENDS:
        raise ConfigError('backend: must be "grid" or "gaussian"')
    if backend == "gaussian" and not kvn.is_quadratic():
        raise ConfigError(
            "backend: the gaussian backend requires an at most quadratic KvN "
            "generator (quadratic Hamiltonian); use the grid backend"
        )


_REQUIRED = object()


def _read(data: dict, path: str, kind, default=_REQUIRED):
    """The field at the dotted ``path``, checked by ``kind(value, path)``. A
    missing section reads as ``{}``; only a field without default is required."""
    name, _, key = path.rpartition(".")
    section = data.get(name, {}) if name else data
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be a JSON object")
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{name or 'config'}: missing required field {key!r}")
        return default
    return kind(section[key], path)


def _integer(value, name: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: must be an integer")
    return value


def _number(value, name: str) -> float:
    # abs(value) <= max also rejects NaN and never converts a huge int.
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name}: must be a finite number")
    return float(value)


def _positive(value, name: str) -> float:
    if _number(value, name) <= 0:
        raise ConfigError(f"{name}: must be positive")
    return float(value)


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name}: must be a string")
    return value


def _array(value, name: str) -> np.ndarray:
    """A list, or a list of equal-length lists, of numbers (not booleans,
    which NumPy would read as 0 and 1); check_gaussian judges the shape."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf" or any(
            isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
        raise ConfigError(f"{name}: must be a list of numbers or of equal-length lists")
    return array.astype(float)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    version = _read(data, "version", _integer, CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"version: unsupported config version {version}, expected {CONFIG_VERSION}"
        )

    n = _read(data, "hamiltonian.n", _integer)
    if not 1 <= n <= MAX_MODES // 2:
        raise ConfigError(
            f"hamiltonian.n: must be between 1 and {MAX_MODES // 2} (the grid "
            f"holds at most {MAX_MODES} qumodes, one per coordinate), got {n}"
        )
    try:
        raw = parse_polynomial(_read(data, "hamiltonian.H", _string), 2 * n)
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

    mean = _read(data, "initial_density.mean", _array)
    cov = _read(data, "initial_density.covariance", _array)
    try:
        spec = GridSpec(
            2 * n,
            _read(data, "grid.points_per_mode", _integer, 128),
            _read(data, "grid.half_extent", _number, 8.0),
        )
        check_gaussian(spec, mean, cov)
    except GridSpecError as exc:
        raise ConfigError(f"{_GRID_FIELDS[exc.param]}: {exc}") from exc

    t = _read(data, "evolution.t", _number)
    n_steps = _read(data, "evolution.n_steps", _integer, 100)
    if n_steps < 1:
        raise ConfigError("evolution.n_steps: must be a positive integer")
    order = _read(data, "evolution.order", _integer, 1)
    if order not in (1, 2):
        raise ConfigError("evolution.order: must be 1 or 2")
    # The circuit holds one 8-byte reference per gate; a step's gate count
    # does not depend on its length.
    try:
        per_step = len(trotter_circuit(kvn, 1.0, 1, order))
    except OverflowError as exc:  # a coefficient beyond the float range
        raise ConfigError(f"hamiltonian.H: a KvN coefficient is too large ({exc})") from exc
    if 8 * per_step * n_steps > MEMORY_CAP_BYTES:
        raise ConfigError(
            f"evolution.n_steps: {n_steps} steps of {per_step} gates exceed the "
            f"memory cap of {MEMORY_CAP_BYTES} bytes at 8 bytes per gate"
        )
    # Building one step of the run's own length checks that every gate
    # strength (t / n_steps times a term's coefficients) is finite; n_steps
    # is bounded above whenever there are gates, so t / n_steps is a float.
    if per_step:
        try:
            trotter_circuit(kvn, t / n_steps, 1, order)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(
                f"evolution.t: t / n_steps = {t / n_steps!r} makes a gate strength "
                f"non-finite ({exc})"
            ) from exc

    backend = _read(data, "backend", _string, "grid")
    check_backend(backend, kvn)

    num_samples = _read(data, "sampling.num_samples", _integer, 0)
    if num_samples < 0:
        raise ConfigError("sampling.num_samples: must be nonnegative")
    if 8 * 2 * n * num_samples > MEMORY_CAP_BYTES:
        raise ConfigError(
            f"sampling.num_samples: {num_samples} samples of {2 * n} coordinates exceed "
            f"the memory cap of {MEMORY_CAP_BYTES} bytes at 8 bytes per coordinate"
        )
    seed = _read(data, "sampling.seed", _integer, 0)
    if seed < 0:
        raise ConfigError("sampling.seed: must be nonnegative")

    return ExperimentConfig(
        hamiltonian=hamiltonian,
        kvn=kvn,
        mean=mean,
        covariance=cov,
        spec=spec,
        t=t,
        n_steps=n_steps,
        order=order,
        backend=backend,
        num_samples=num_samples,
        seed=seed,
        outputs=Path(_read(data, "outputs", _string, "out")),
        verify=VerifyThresholds(
            tv=_read(data, "verify.tv_threshold", _positive, 0.05),
            first_moment=_read(data, "verify.moment_threshold", _positive, 0.05),
        ),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
