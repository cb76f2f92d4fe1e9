"""Spectral grid backend: multi-qumode wavefunctions on a uniform
position grid.

Each qumode carries one coordinate axis sampled at N points (power of
two) spanning [-half_extent, +half_extent), with momentum values
2*pi*fftfreq(N, dx) reached by the unitary FFT of that axis. Every gate is
defined here as a short list of diagonal ops: an op names, per axis it
touches, the basis it needs (position or momentum) and holds a
broadcast-shaped phase table. Ops diagonal in (x, p) are exact for the
continuum generator up to periodic wrap-around.

    D, P, V, Q on mode m      one table in x_m
    CZ(j, k)                  one table in (x_j, x_k)
    CX(j, k)                  one table in (x_j, p_k)
    R(theta), F, FDAG         x-shear, p-phase, x-shear on their mode

The rotation uses the exact shear split

    R(theta) = exp(i tan(theta/2) X^2/2) exp(i sin(theta) P^2/2)
               exp(i tan(theta/2) X^2/2),

applied with |theta| <= pi/2 (larger angles split into halves, which also
covers the tan singularity at theta = pi). The Fourier gate is R(pi/2)
times the constant metaplectic phase, folded into its last table; this
keeps the quadrature exchange relations X -> P -> -X faithful on any
adequate grid, independent of the dx/dp ratio. The middle shear spreads
the state spatially by its momentum extent, so a rotated or
Fourier-transformed mode needs the box to contain the supports of both its
quadratures, with margin.

A gate list runs as one compiled plan (``apply_gate`` is the plan of a
single gate):

1. adjacent gates that commute exactly are fused: same-kind additive
   gates on the same modes add their parameters and vanish when the sum
   is exactly zero, and an adjacent F/FDAG pair on one mode cancels;
2. each distinct fused gate is lowered to its ops once per call, so a
   repetitive product-formula circuit builds only a handful of tables;
3. the executor tracks the basis of every axis and transforms an axis
   only when the next op needs the other basis, so consecutive ops in the
   momentum of one axis share one FFT pair; every axis ends in position.

Fusion and basis tracking change results by roundoff only (about 1e-13
relative against gate-by-gate execution) and never change the synthesized
circuit itself. A state that is not finite after a plan raises
BlowUpError.

The grid is an emulation device: extent and resolution are engineering
choices, not part of the compiled circuits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.fft as sfft

from .kvn import KvNTerm
from .synth import Gate, GateKind, GateSequence

MEMORY_CAP_BYTES = 2 * 1024 ** 3
MAX_MODES = 4
# Width, in cells, of the face layer whose mass ``boundary_mass`` reports.
BOUNDARY_CELLS = 2


class BlowUpError(RuntimeError):
    """A computation produced non-finite values."""


class GridSpecError(ValueError):
    """Invalid grid input; ``param`` names a GridSpec field, or the ``mean``
    or ``cov`` of a Gaussian put on the grid."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


@dataclass(frozen=True)
class GridSpec:
    """Uniform multi-qumode position grid."""

    num_modes: int
    points_per_mode: int = 128
    half_extent: float = 8.0

    def __post_init__(self):
        if not 1 <= self.num_modes <= MAX_MODES:
            raise GridSpecError(
                "num_modes",
                f"num_modes must be between 1 and {MAX_MODES}, got {self.num_modes}",
            )
        n = self.points_per_mode
        if n < 16 or n & (n - 1):
            raise GridSpecError(
                "points_per_mode",
                f"points_per_mode must be a power of two >= 16, got {n}",
            )
        if not 0 < self.half_extent < np.inf:
            raise GridSpecError(
                "half_extent",
                f"half_extent must be positive and finite, got {self.half_extent}",
            )
        # dx first: dp divides by it
        if not 0 < self.dx < np.inf or not self.dp < np.inf:
            raise GridSpecError(
                "half_extent",
                f"half_extent {self.half_extent} gives a non-finite grid spacing",
            )
        state_bytes = 16 * n ** self.num_modes
        if state_bytes > MEMORY_CAP_BYTES:
            raise GridSpecError(
                "points_per_mode",
                f"state of {state_bytes} bytes exceeds the memory cap of "
                f"{MEMORY_CAP_BYTES} bytes",
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.points_per_mode

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / (self.points_per_mode * self.dx)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_mode,) * self.num_modes

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.num_modes

    def positions(self) -> np.ndarray:
        n = self.points_per_mode
        return (np.arange(n) - n // 2) * self.dx

    def mesh(self) -> np.ndarray:
        """Cell centres, shape ``shape + (num_modes,)``."""
        xs = self.positions()
        return np.stack(np.meshgrid(*([xs] * self.num_modes), indexing="ij"), axis=-1)

    def momenta_fft_order(self) -> np.ndarray:
        return 2.0 * np.pi * sfft.fftfreq(self.points_per_mode, d=self.dx)

    def axis_view(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Reshape a 1-D per-axis array for broadcasting over the grid."""
        shape = [1] * self.num_modes
        shape[axis] = self.points_per_mode
        return values.reshape(shape)


@dataclass
class GridState:
    """Complex amplitudes on the grid, L2-normalized with weight dx^d."""

    spec: GridSpec
    psi: np.ndarray

    def __post_init__(self):
        if self.psi.shape != self.spec.shape:
            raise ValueError(
                f"amplitude shape {self.psi.shape} does not match grid {self.spec.shape}"
            )

    def norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.psi) ** 2) * self.spec.cell_volume)
        )

    def copy(self) -> "GridState":
        return GridState(self.spec, self.psi.copy())


@dataclass
class DensityGrid:
    """Real nonnegative values sampled at the grid cell centers."""

    spec: GridSpec
    values: np.ndarray

    def total(self) -> float:
        return float(np.sum(self.values) * self.spec.cell_volume)


def check_gaussian(spec: GridSpec, mean: np.ndarray, cov: np.ndarray) -> None:
    """Raise GridSpecError unless N(mean, cov) is a finite Gaussian over the
    grid's axes whose 2-sigma box the grid holds."""
    d = spec.num_modes
    if mean.shape != (d,) or not np.all(np.isfinite(mean)):
        raise GridSpecError("mean", f"mean must be {d} finite numbers")
    if cov.shape != (d, d) or not np.all(np.isfinite(cov)):
        raise GridSpecError("cov", f"covariance must be a finite {d}x{d} matrix")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise GridSpecError("cov", "covariance must be symmetric")
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise GridSpecError("cov", "covariance must be positive definite")
    reach = np.abs(mean) + 2 * np.sqrt(np.diag(cov))
    if np.any(reach > spec.half_extent):
        raise GridSpecError(
            "half_extent",
            "grid does not contain the 2-sigma box of the requested Gaussian "
            f"(it reaches {float(reach.max())!r} > half_extent {spec.half_extent!r})",
        )


def prepare_gaussian(
    spec: GridSpec, mean: Sequence[float], cov: np.ndarray
) -> GridState:
    """Discretize the Gaussian wavefunction with |psi|^2 = N(mean, cov).

    psi(x) is proportional to exp(-(x-mean)^T cov^-1 (x-mean) / 4), sampled
    at cell centers and renormalized on the grid. Raises the errors of
    check_gaussian; warns when 5 sigma spills over the grid.
    """
    d = spec.num_modes
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    check_gaussian(spec, mean, cov)
    if np.any(np.abs(mean) + 5 * np.sqrt(np.diag(cov)) > spec.half_extent):
        warnings.warn(
            "grid covers less than 5 sigma of the requested Gaussian; "
            "expect boundary artifacts",
            stacklevel=2,
        )
    prec = np.linalg.inv(cov)
    xs = spec.positions()
    quad = np.zeros(spec.shape, dtype=float)
    for i in range(d):
        di = spec.axis_view(xs - mean[i], i)
        for j in range(d):
            dj = spec.axis_view(xs - mean[j], j)
            quad = quad + prec[i, j] * di * dj
    psi = np.exp(-0.25 * quad).astype(np.complex128)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * spec.cell_volume)
    return GridState(spec, psi)


# -- compiled gate execution ---------------------------------------------------


# Kinds whose adjacent gates on the same modes compose by adding parameters.
_ADDITIVE = frozenset({
    GateKind.MOMENTUM_DISPLACEMENT,
    GateKind.QUADRATIC_PHASE,
    GateKind.CUBIC_PHASE,
    GateKind.QUARTIC_PHASE,
    GateKind.ROTATION,
    GateKind.CONTROLLED_Z,
    GateKind.CONTROLLED_X,
})
_FOURIER_PAIR = frozenset({GateKind.FOURIER, GateKind.FOURIER_INVERSE})

# The Fourier gate is the quarter rotation times this constant metaplectic
# phase, which makes F^4 the exact identity and F fix the vacuum (the usual
# DFT convention).
_METAPLECTIC = {GateKind.FOURIER: np.exp(-0.25j * np.pi),
                GateKind.FOURIER_INVERSE: np.exp(0.25j * np.pi)}


class _Op(NamedTuple):
    """Multiply by ``table`` once every axis in ``needs`` is in the basis
    given by its flag (True: momentum, False: position)."""

    needs: tuple[tuple[int, bool], ...]
    table: np.ndarray


def _fft(psi: np.ndarray, axis: int) -> np.ndarray:
    return sfft.fft(psi, axis=axis, norm="ortho", workers=-1, overwrite_x=True)


def _ifft(psi: np.ndarray, axis: int) -> np.ndarray:
    return sfft.ifft(psi, axis=axis, norm="ortho", workers=-1, overwrite_x=True)


def fuse_gates(gates: Iterable[Gate]) -> list[Gate]:
    """Merge neighbours that commute exactly; the product is unchanged.

    Adjacent gates of one additive kind on the same modes become one gate
    with the summed parameter (none when the sum is exactly zero), and an
    adjacent F/FDAG pair on one mode cancels. A merge can expose a new
    neighbour, so the surviving gates are kept on a stack.
    """
    kept: list[Gate] = []
    for gate in gates:
        if kept and kept[-1].modes == gate.modes:
            last = kept[-1]
            if last.kind is gate.kind and gate.kind in _ADDITIVE:
                total = last.param + gate.param
                if total == 0.0:
                    kept.pop()
                else:
                    kept[-1] = Gate(gate.kind, gate.modes, total)
                continue
            if {last.kind, gate.kind} == _FOURIER_PAIR:
                kept.pop()
                continue
        kept.append(gate)
    return kept


def _rotation_ops(spec: GridSpec, axis: int, theta: float) -> list[_Op]:
    """R(theta) as x-shear, p-phase, x-shear, with |theta| <= pi/2 per
    split; larger angles run as two half rotations."""
    theta = float(np.arctan2(np.sin(theta), np.cos(theta)))  # wrap to (-pi, pi]
    if abs(theta) < 1e-300:
        return []
    if abs(theta) > np.pi / 2 + 1e-12:
        half = _rotation_ops(spec, axis, theta / 2)
        return half + half
    x = spec.axis_view(spec.positions(), axis)
    p = spec.axis_view(spec.momenta_fft_order(), axis)
    shear = _Op(((axis, False),), np.exp(0.5j * np.tan(theta / 2) * x * x))
    kick = _Op(((axis, True),), np.exp(0.5j * np.sin(theta) * p * p))
    return [shear, kick, shear]


def _lower(spec: GridSpec, gate: Gate) -> list[_Op]:
    """The grid semantics of one gate: a list of diagonal phase ops."""
    kind, s = gate.kind, gate.param
    m = gate.modes[0]
    x = spec.axis_view(spec.positions(), m)
    if kind is GateKind.MOMENTUM_DISPLACEMENT:
        return [_Op(((m, False),), np.exp(1j * s * x))]
    if kind is GateKind.QUADRATIC_PHASE:
        return [_Op(((m, False),), np.exp(0.5j * s * x * x))]
    if kind is GateKind.CUBIC_PHASE:
        return [_Op(((m, False),), np.exp((1j / 3.0) * s * x ** 3))]
    if kind is GateKind.QUARTIC_PHASE:
        return [_Op(((m, False),), np.exp(1j * s * x ** 4))]
    if kind is GateKind.CONTROLLED_Z:
        k = gate.modes[1]
        xk = spec.axis_view(spec.positions(), k)
        return [_Op(((m, False), (k, False)), np.exp(1j * s * (x * xk)))]
    if kind is GateKind.CONTROLLED_X:
        k = gate.modes[1]
        pk = spec.axis_view(spec.momenta_fft_order(), k)
        return [_Op(((m, False), (k, True)), np.exp(-1j * s * x * pk))]
    if kind is GateKind.ROTATION:
        return _rotation_ops(spec, m, s)
    if kind in _METAPLECTIC:
        sign = 1.0 if kind is GateKind.FOURIER else -1.0
        ops = _rotation_ops(spec, m, sign * np.pi / 2)
        last = ops[-1]
        ops[-1] = _Op(last.needs, last.table * _METAPLECTIC[kind])
        return ops
    raise ValueError(f"unknown gate kind {kind}")  # pragma: no cover - enum is exhaustive


def _run_plan(state: GridState, gates: Iterable[Gate]) -> GridState:
    """Execute a gate list as one compiled plan on a copy of the state.

    The gates are fused, each distinct fused gate is lowered once (the
    tables live only for this call), and every axis changes basis only
    when the next op needs the other one; all axes end in position.
    """
    spec = state.spec
    psi = state.psi.copy()
    tables: dict[Gate, list[_Op]] = {}
    in_momentum = [False] * spec.num_modes
    for gate in fuse_gates(gates):
        ops = tables.get(gate)
        if ops is None:
            ops = tables[gate] = _lower(spec, gate)
        for needs, table in ops:
            for axis, momentum in needs:
                if in_momentum[axis] != momentum:
                    psi = _fft(psi, axis) if momentum else _ifft(psi, axis)
                    in_momentum[axis] = momentum
            psi *= table
    for axis, momentum in enumerate(in_momentum):
        if momentum:
            psi = _ifft(psi, axis)
    if not np.isfinite(psi).all():
        raise BlowUpError("grid state has non-finite amplitudes")
    return GridState(spec, psi)


def apply_gate(state: GridState, gate: Gate) -> GridState:
    """Apply one gate; returns a new state, norm preserved to roundoff."""
    if max(gate.modes) >= state.spec.num_modes:
        raise ValueError(
            f"gate modes {gate.modes} out of range for {state.spec.num_modes} qumodes"
        )
    return _run_plan(state, (gate,))


def apply_sequence(state: GridState, seq: GateSequence) -> GridState:
    """Apply a gate sequence (leftmost first); returns a new state.

    Raises BlowUpError when the result is not finite.
    """
    if seq.num_modes != state.spec.num_modes:
        raise ValueError(
            f"sequence over {seq.num_modes} modes applied to a "
            f"{state.spec.num_modes}-mode state"
        )
    return _run_plan(state, seq)


def exact_controlled_shift(state: GridState, term: KvNTerm, s: float) -> GridState:
    """Reference action of exp(-i s sign factor(X) P_mode).

    Implemented per momentum fiber of the target axis, so coordinate
    ``mode`` is translated by s * sign * factor(x_rest) exactly (up to
    periodic wrap-around). Serves as the synthesis-correctness oracle.
    """
    spec = state.spec
    if term.num_modes != spec.num_modes:
        raise ValueError(
            f"term over {term.num_modes} modes applied to a "
            f"{spec.num_modes}-mode state"
        )
    axes = [spec.axis_view(spec.positions(), i) for i in range(spec.num_modes)]
    g = term.sign * term.factor.evaluate_array(axes)
    p = spec.axis_view(spec.momenta_fft_order(), term.mode)
    psi = _fft(state.psi.copy(), term.mode)
    psi *= np.exp(-1j * s * g * p)
    psi = _ifft(psi, term.mode)
    return GridState(spec, psi)


# -- measurements and exports ------------------------------------------------


def born_density(state: GridState) -> DensityGrid:
    """|psi|^2 on the grid; integrates to 1 for a normalized state."""
    return DensityGrid(state.spec, np.abs(state.psi) ** 2)


def position_expectation(state: GridState, mode: int) -> float:
    rho = np.abs(state.psi) ** 2
    x = state.spec.axis_view(state.spec.positions(), mode)
    return float(np.sum(rho * x) * state.spec.cell_volume)


def momentum_expectation(state: GridState, mode: int) -> float:
    phi = _fft(state.psi.copy(), mode)
    rho = np.abs(phi) ** 2
    p = state.spec.axis_view(state.spec.momenta_fft_order(), mode)
    return float(np.sum(rho * p) * state.spec.cell_volume)


def position_moments(density: DensityGrid) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of a grid density."""
    spec = density.spec
    d = spec.num_modes
    xs = spec.positions()
    w = density.values * spec.cell_volume
    total = float(np.sum(w))
    mean = np.empty(d)
    for i in range(d):
        mean[i] = np.sum(w * spec.axis_view(xs, i)) / total
    cov = np.empty((d, d))
    for i in range(d):
        di = spec.axis_view(xs - mean[i], i)
        for j in range(i, d):
            dj = spec.axis_view(xs - mean[j], j)
            cov[i, j] = cov[j, i] = np.sum(w * di * dj) / total
    return mean, cov


def boundary_mass(state: GridState) -> float:
    """Probability mass within BOUNDARY_CELLS cells of any grid face."""
    rho = np.abs(state.psi) ** 2 * state.spec.cell_volume
    interior = rho[(slice(BOUNDARY_CELLS, -BOUNDARY_CELLS),) * state.spec.num_modes]
    return float(np.sum(rho) - np.sum(interior))


def measure_positions(state: GridState, num_samples: int, seed: int) -> np.ndarray:
    """Draw position-basis samples by inverse CDF over the flattened grid.

    Deterministic for a fixed seed; returns an array of cell-center
    coordinates with shape (num_samples, num_modes).
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    spec = state.spec
    probs = (np.abs(state.psi) ** 2).ravel() * spec.cell_volume
    probs = np.maximum(probs, 0.0)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.random(num_samples)
    flat = np.searchsorted(cdf, u, side="right")
    flat = np.minimum(flat, probs.size - 1)
    idx = np.unravel_index(flat, spec.shape)
    xs = spec.positions()
    return np.stack([xs[i] for i in idx], axis=-1)


def density_to_csv(density: DensityGrid) -> str:
    """One row per grid cell: coordinates then the density value."""
    spec = density.spec
    d = spec.num_modes
    header = ",".join(f"x{i + 1}" for i in range(d)) + ",density"
    xs = spec.positions()
    lines = [header]
    for idx in np.ndindex(spec.shape):
        coords = ",".join(repr(float(xs[k])) for k in idx)
        lines.append(f"{coords},{float(density.values[idx])!r}")
    return "\n".join(lines) + "\n"


def moments_to_csv(
    mean: np.ndarray, cov: np.ndarray, metrics: dict[str, float] | None = None
) -> str:
    """Rows: kind,label1,label2,value for means, covariances and metrics."""
    d = len(mean)
    lines = ["kind,label1,label2,value"]
    for i in range(d):
        lines.append(f"mean,x{i + 1},,{float(mean[i])!r}")
    for i in range(d):
        for j in range(d):
            lines.append(f"cov,x{i + 1},x{j + 1},{float(cov[i, j])!r}")
    for key, value in (metrics or {}).items():
        lines.append(f"metric,{key},,{float(value)!r}")
    return "\n".join(lines) + "\n"


def samples_to_csv(samples: np.ndarray) -> str:
    d = samples.shape[1]
    header = ",".join(f"x{i + 1}" for i in range(d))
    lines = [header]
    for row in samples:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
