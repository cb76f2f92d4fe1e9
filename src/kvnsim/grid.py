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

A gate list runs as one plan (``apply_gate`` is the plan of a single
gate), compiled first and then executed. The compiler makes every static
decision and emits a flat list of steps: transform one axis, multiply by
an array, or apply a composed block. The executor is one loop over those
steps, so the work of a plan can be counted without running it:

1. gates that commute exactly are fused: a gate meets the latest kept
   gate that shares a mode with it, past gates on disjoint modes; two
   same-kind additive gates on the same modes add their parameters and
   vanish when the sum is exactly zero, and an F/FDAG pair on one mode
   cancels;
2. each distinct fused gate is lowered to its ops once per call, so a
   repetitive product-formula circuit builds only a handful of tables;
3. the compiler tracks the basis of every axis and transforms an axis
   only when the next op needs the other basis, so consecutive ops in the
   momentum of one axis share one FFT pair; every axis ends in position;
4. a single-axis block -- a maximal stretch of ops in which only one axis
   k changes basis, every other axis it touches keeps one basis, and at
   least one axis stays untouched -- acts on k as one N x N matrix per
   fiber of its other touched axes, the same for every index of the
   untouched ones. A block scan restarts past the first ops of a block
   when it then reaches further (``_blocks``), and blocks X, Y, Z on axes
   k, j, k that hold the same fixed bases run as X, Z, Y, since Y and Z
   commute exactly, so X then Z is one block (``_commuted``). A block
   composes when (a) its ops and entry basis recur in the plan, (b) it
   holds more than N/8 transforms, which cost well over one batched
   matmul, and (c) one state and the distinct blocks' matrices, all that
   a plan holds, fit under MEMORY_CAP_BYTES. Its matrices are built once
   per call, while compiling: the same scheduler compiles the block's ops
   from its entry and fixed bases, and the executor runs those steps in
   place on the identity. Every occurrence is then one matmul, a chunk of
   fibers at a time, after the one switch each fixed axis needs. On the 4-mode
   coupled-quartic plan (20 steps) each step runs one block on x3 and one
   on x4: 40 matmuls by 2 distinct matrices replace 1,520 of the 1,604
   transforms on the state, none of x3 or x4 is left, and 2 builds take
   76 transforms; the state moves by about 2e-14 relative. 2-axis plans
   are never reordered, and their product formulas repeat only blocks of
   at most 3 transforms, below the bar for N >= 32, so none composes;
5. when the process may run on more than one CPU, each stretch of
   transforms and multiplies between composed blocks whose work (grid
   points times steps) reaches SLAB_MIN_WORK runs as one slab step: the
   state is cut into two halves along an axis the stretch never
   transforms, and the calling thread and one worker thread each run the
   stretch on one half, with the tables sliced to it. Every 1-D transform
   and every multiply touches only its own half, so slab execution is
   bitwise equal to serial execution. A block's build runs the same way,
   halved along the lowest of its fixed axes and its column axis, which
   its steps never transform; the matmuls that apply a composed block
   stay serial, since splitting them between the two threads measured no
   gain.

Fusion, reordering, basis tracking and composed blocks change results by
roundoff only (about 1e-13 relative against gate-by-gate execution) and
never change the synthesized circuit itself. A plan runs on the caller's
state itself, and a state that is not finite after it raises BlowUpError.

Transforms are numpy's, written in place with ``out=`` so that a slab
transforms its own half of the state and nothing else; they release the
GIL, which lets the two slabs run at once. This module imports no scipy:
numpy's FFT is bitwise equal to ``scipy.fft`` at N = 16, 64, 256 and
1024 and within about 2e-16 relative at N = 32 and 128, and momenta come
from ``np.fft.fftfreq``, bitwise equal to scipy's.

The CSV writers return ASCII bytes as one bytearray, which they grow
TEXT_CHUNK cells (or SAMPLE_ROWS sample rows) at a time. density_to_csv
returns any range of cells, so a 32^4 density, 42 MB of text next to
17 MB of amplitudes, can be written a piece at a time. Every value
prints as its repr, but no Python call formats one: ``floattext``, a
numpy port of Schubfach (Giulietti, 2020), finds the shortest round-trip
digits of a whole chunk in uint64 arithmetic, table lookups lay them
into fixed NUL-padded slots of a uint64 row matrix beside the cached
coordinate text, and one bytes.translate deletes the NULs. The writers
import it on first use, so commands that write no CSV never compile it.
The text is repr's byte for byte; tests compare random bit patterns of
every class, every power of two, the notation switches and the
non-finite values. On the benchmark's 32^4 density the writer takes
about 0.35 s (2 vCPUs).

The grid is an emulation device: extent and resolution are engineering
choices, not part of the compiled circuits.
"""

from __future__ import annotations

import functools
import os
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .kvn import KvNTerm
from .synth import Gate, GateKind, GateSequence

MEMORY_CAP_BYTES = 2 * 1024 ** 3
MAX_MODES = 4
# Width, in cells, of the face layer whose mass ``boundary_mass`` reports.
BOUNDARY_CELLS = 2
# Bytes of samples.csv text per coordinate, at most: the longest float repr,
# -2.2250738585072014e-308, has 24 characters, plus one separator.
FLOAT_TEXT_BYTES = 25
# Values the float-text kernel formats per call in density_to_csv: its
# temporaries and the row matrix take about 200 bytes per value.
TEXT_CHUNK = 2048
# Sample rows that samples_to_csv formats per group (TEXT_CHUNK values at
# four coordinates).
SAMPLE_ROWS = 512
# A stretch runs as two slabs only when its work, grid points times steps,
# reaches this. Whole shipped-style plans on 2 vCPUs, slabbed and serial
# in alternating pairs: slabs lost on 64^2 plans (56-step stretches, work
# 229,376) and 16^4 ones (at most 8 steps, 524,288), and won on 128^2
# (56 steps, 917,504), 256^2, 512^2 and 32^4 plans.
SLAB_MIN_WORK = 3 * 2 ** 18


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
        try:
            volume = self.cell_volume
        except OverflowError:  # a float power raises rather than give inf
            volume = np.inf
        if not 0 < volume < np.inf:
            raise GridSpecError(
                "half_extent",
                f"half_extent {self.half_extent} gives a cell volume of {volume!r} "
                f"over {self.num_modes} modes",
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

    def momenta_fft_order(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_mode, d=self.dx)

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
    check_gaussian, and GridSpecError("cov") when the sampled norm is zero
    or not finite; warns when 5 sigma spills over the grid.
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
            quad += prec[i, j] * di * dj
    quad *= -0.25
    np.exp(quad, out=quad)
    # The norm and the scaling in floats give the bits of the complex ones
    # (numpy divides a complex by a real as a product with its reciprocal),
    # and the peak is quad beside the result: 1.5 results, not 2.
    norm = float(np.sqrt(np.sum(np.square(quad)) * spec.cell_volume))
    if not 0 < norm < np.inf:
        raise GridSpecError("cov", f"too narrow for the grid: the sampled norm is {norm!r}")
    quad *= 1.0 / norm
    return GridState(spec, quad.astype(np.complex128))


# -- compiled gate execution ---------------------------------------------------


# Kinds whose adjacent gates on the same modes compose by adding parameters;
# not R, whose shear splits R(a) R(b) and R(a + b) differ by aliasing.
_ADDITIVE = frozenset({
    GateKind.MOMENTUM_DISPLACEMENT,
    GateKind.QUADRATIC_PHASE,
    GateKind.CUBIC_PHASE,
    GateKind.QUARTIC_PHASE,
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
    """The unitary FFT of one axis, written into psi (which may be a view);
    returns psi."""
    return np.fft.fft(psi, axis=axis, norm="ortho", out=psi)


def _ifft(psi: np.ndarray, axis: int) -> np.ndarray:
    """The unitary inverse FFT of one axis, written into psi; returns psi."""
    return np.fft.ifft(psi, axis=axis, norm="ortho", out=psi)


def fuse_gates(gates: Iterable[Gate]) -> list[Gate]:
    """Merge gates that commute exactly; the product is unchanged.

    A gate meets the latest kept gate that shares a mode with it, past
    kept gates on disjoint modes, which commute with it. When that gate is
    on the same modes and of the same additive kind, the two become one
    gate, in the earlier one's place, with the summed parameter (none when
    the sum is exactly zero); when the two are an F/FDAG pair on one mode,
    both go. A removal exposes the gate before it to the next gate.
    """
    kept: list[Gate] = []
    for gate in gates:
        modes, i = set(gate.modes), len(kept) - 1
        while i >= 0 and modes.isdisjoint(kept[i].modes):
            i -= 1
        if i >= 0 and kept[i].modes == gate.modes:
            met = kept[i]
            if met.kind is gate.kind and gate.kind in _ADDITIVE:
                total = met.param + gate.param
                if total == 0.0:
                    del kept[i]
                else:
                    kept[i] = Gate(gate.kind, gate.modes, total)
                continue
            if {met.kind, gate.kind} == _FOURIER_PAIR:
                del kept[i]
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


def _lower_plan(spec: GridSpec, gates: Iterable[Gate]) -> list[_Op]:
    """Fuse the gates, lower each distinct fused gate once and order the
    ops by ``_commuted``; the op list holds every table, so their ids stay
    stable while it lives."""
    tables: dict[Gate, list[_Op]] = {}
    ops: list[_Op] = []
    for gate in fuse_gates(gates):
        lowered = tables.get(gate)
        if lowered is None:
            lowered = tables[gate] = _lower(spec, gate)
        ops.extend(lowered)
    return _commuted(spec.num_modes, ops)


class _Block(NamedTuple):
    """Plan ops ``start:stop`` in which only ``axis`` changes basis: it
    enters in ``entry`` and leaves in ``exit`` after ``transforms`` FFTs.
    Every other axis the ops touch keeps the basis given in ``fixed``
    (ascending axes), and at least one axis is untouched. Blocks with the
    same ``key`` have the same operator."""

    start: int
    stop: int
    axis: int
    entry: bool
    exit: bool
    transforms: int
    fixed: tuple[tuple[int, bool], ...]
    key: tuple


class _Scan(NamedTuple):
    """The stretch of ops ``start:stop`` that one block scan took: its
    ``block``, if its axis changed basis, the bases every axis is left in,
    and the ``restarts``: ``(op, bases before it)`` just after each op of
    the block's head, before its axis first moved, that touched another
    axis."""

    stop: int
    block: _Block | None
    bases: list[bool]
    restarts: list[tuple[int, list[bool]]]


def _scan(num_modes: int, ops: Sequence[_Op], start: int, bases: list[bool]) -> _Scan:
    """Grow one block from op ``start``, with the axes in ``bases``.

    The block ends before an op that would move a second axis, or an axis
    it holds fixed, to the other basis, and before it would touch every
    axis; the last op of ``ops`` must touch every axis. The first op of a
    block that touches a fixed axis may need it in the other basis: that
    switch is done once, before the block, which is exact because no
    earlier op of the block touches the axis.
    """
    in_momentum, entry = list(bases), list(bases)
    axis, held, switches, head = None, {}, [0] * num_modes, []
    for i in range(start, len(ops)):
        needs = ops[i].needs
        moving = [a for a, momentum in needs if a != axis and held.get(a, momentum) != momentum]
        touched = held.keys() | {a for a, _ in needs} | {axis} - {None}
        if len(moving) > (axis is None) or (i > start and len(touched) == num_modes):
            break
        if moving:
            axis = moving[0]
            del held[axis]
        for a, momentum in needs:
            if a != axis:
                held.setdefault(a, momentum)
            switches[a] += in_momentum[a] != momentum
            in_momentum[a] = momentum
        if axis is None:
            head.append((i + 1, list(in_momentum), {a for a, _ in needs}))
    if axis is None:
        return _Scan(i, None, in_momentum, [])
    key = (axis, entry[axis], *(id(table) for _, table in ops[start:i]))
    block = _Block(start, i, axis, entry[axis], in_momentum[axis], switches[axis],
                   tuple(sorted(held.items())), key)
    return _Scan(i, block, in_momentum,
                 [(after, before) for after, before, axes in head if axes - {axis}])


def _blocks(num_modes: int, ops: Sequence[_Op]) -> list[_Block]:
    """The plan's maximal single-axis blocks that transform their axis.

    Blocks are scanned greedily, each from the op that ended the last. A
    block's head is its ops before its axis first changes basis. When a
    scan restarted just after a head op that touches another axis (say, a
    kick on an axis that a later op needs in the other basis) reaches
    further, it is taken, and the ops before the restart run outside any
    block; they switch no basis of the block's axis, so the block keeps
    every transform.
    """
    blocks: list[_Block] = []
    # an op that touches every axis closes the last block
    ops = [*ops, _Op(tuple((a, False) for a in range(num_modes)), None)]
    start, bases = 0, [False] * num_modes
    while start < len(ops) - 1:
        scan = _scan(num_modes, ops, start, bases)
        while True:
            rescans = (_scan(num_modes, ops, after, before) for after, before in scan.restarts)
            further = next((again for again in rescans if again.stop > scan.stop), None)
            if further is None:
                break
            scan = further
        if scan.block:
            blocks.append(scan.block)
        start, bases = scan.stop, scan.bases
    return blocks


def _commuted(num_modes: int, ops: list[_Op]) -> list[_Op]:
    """The ops with every adjacent run of blocks X, Y, Z, where X and Z
    act on one axis, Y on another and all three hold the same fixed axes
    in the same bases, run as X, Z, Y.

    Such Y and Z are both diagonal in the fixed axes and act on different
    axes, so they commute exactly; Y leaves X's axis alone, so Z enters in
    the basis X leaves, and X then Z scan as one block. The runs are found
    in one pass. 2-axis plans keep their order: the product formulas' blocks
    there hold at most 3 transforms, too few to compose for N >= 32, so a
    new order would only move their results by roundoff.
    """
    if num_modes < 3:
        return ops
    blocks = _blocks(num_modes, ops)
    out: list[_Op] = []
    done, i = 0, 0
    while i + 2 < len(blocks):
        x, y, z = blocks[i:i + 3]
        if (x.stop == y.start and y.stop == z.start and x.axis == z.axis != y.axis
                and x.fixed == y.fixed == z.fixed):
            out += ops[done:x.stop] + ops[z.start:z.stop] + ops[y.start:y.stop]
            done = z.stop
            i += 3
        else:
            i += 1
    return out + ops[done:]


def _composed_blocks(spec: GridSpec, ops: Sequence[_Op]) -> dict[int, _Block]:
    """The blocks the plan runs as matrices, by their first op.

    A block composes when its key occurs at least twice (a block that runs
    once costs about as much to build as to run), when its transforms cost
    well over one matmul, and while one state and the distinct blocks'
    matrices fit under MEMORY_CAP_BYTES: all that a plan, which runs on
    the caller's state, holds.
    """
    n = spec.points_per_mode
    blocks = _blocks(spec.num_modes, ops)
    repeats = Counter(block.key for block in blocks)
    room = MEMORY_CAP_BYTES - 16 * n ** spec.num_modes
    sized: set[tuple] = set()
    composed: dict[int, _Block] = {}
    for block in blocks:
        # Cost per state point on a 2-vCPU Xeon, in ns: one length-N
        # transform 3.3 (N=16), 6.8 (32), 8-10 (64-256), one multiply about
        # 2, and one batched matmul by N x N matrices 10 (N=16), 12 (32),
        # 13 (64), 17 (128), 27 (256). With their multiplies, more than N/8
        # transforms cost 1.6 (N=16) to 12 (N=256) times one matmul; the
        # margin pays for the build and for a transpose.
        if repeats[block.key] < 2 or 8 * block.transforms <= n:
            continue
        if block.key not in sized:
            size = 16 * n ** (len(block.fixed) + 2)
            if size > room:
                continue
            room -= size
            sized.add(block.key)
        composed[block.start] = block
    return composed


def _block_matrices(spec: GridSpec, block: _Block, steps: list) -> np.ndarray:
    """A block's operator as one N x N matrix per fiber of its fixed axes,
    shape ``(N,) * len(block.fixed) + (N, N)``: the block's own steps,
    scheduled from its entry and fixed bases, run in place on the identity,
    as one slab step when the process may run on more than one CPU: the
    steps transform only the block's axis, so the build is bitwise equal to
    a serial one."""
    n, k = spec.points_per_mode, block.axis
    fixed = [axis for axis, _ in block.fixed]
    untouched = [a for a in range(spec.num_modes) if a != k and a not in fixed]
    matrices = np.zeros((n,) * len(fixed) + (n, n), dtype=complex)
    matrices[..., range(n), range(n)] = 1.0
    # A view with the grid's axes: the fixed axes and k in place, the
    # column index on the first untouched axis, the others of length one.
    labels = fixed + [k] + untouched
    view = matrices.reshape(matrices.shape + (1,) * (len(untouched) - 1))
    if _cpus() > 1:
        # the first full-length axis of the view that no step transforms
        steps = _as_slab(spec, steps, min(fixed + untouched[:1]), matrices.size)
    _execute(steps, view.transpose(np.argsort(labels)))
    return matrices


def _apply_block(psi: np.ndarray, matrices: np.ndarray, block: _Block) -> None:
    """Apply a block's operator to psi in place, one chunk of about 1 MB
    along the first axis other than the block's at a time.

    A chunk is a reshape view when its fixed axes come first, followed by
    the block's axis and then the untouched axes, or by the untouched axes
    and then the block's axis; any other layout costs one transpose.
    """
    k, n = block.axis, matrices.shape[-1]
    fixed = [axis for axis, _ in block.fixed]
    untouched = [a for a in range(psi.ndim) if a != k and a not in fixed]
    k_last = k > untouched[-1]
    order = fixed + (untouched + [k] if k_last else [k] + untouched)
    along = 1 if k == 0 else 0
    step = max(1, n * 2 ** 20 // psi.nbytes)
    index = [slice(None)] * psi.ndim
    for start in range(0, n, step):
        index[along] = slice(start, start + step)
        part = psi[tuple(index)].transpose(order)
        mats = matrices[start:start + step] if fixed and fixed[0] == along else matrices
        fibers = mats.size // (n * n)
        mats = mats.reshape(fibers, n, n)
        if k_last:
            out = np.matmul(part.reshape(fibers, -1, n), mats.transpose(0, 2, 1))
        else:
            out = np.matmul(mats, part.reshape(fibers, n, -1))
        part[...] = out.reshape(part.shape)


def _schedule(ops: Sequence[_Op], in_momentum: list[bool],
              composed: dict[int, _Block], matrices: dict[tuple, np.ndarray]) -> list:
    """The steps of ``ops`` from the bases ``in_momentum``, which it leaves
    as the ops do. An op takes the switches its axes need, then its table;
    a composed block, keyed by its first op, takes the switches of its
    fixed axes, then one step with its ``matrices``."""
    steps: list = []
    i = 0
    while i < len(ops):
        block = composed.get(i)
        for axis, momentum in block.fixed if block else ops[i].needs:
            if in_momentum[axis] != momentum:
                steps.append((axis, momentum))
                in_momentum[axis] = momentum
        if block:
            steps.append((block, matrices[block.key]))
            in_momentum[block.axis] = block.exit
            i = block.stop
        else:
            steps.append(ops[i].table)
            i += 1
    return steps


def _compile(spec: GridSpec, gates: Iterable[Gate]) -> list:
    """Compile a gate list into the steps that ``_execute`` runs.

    A step is an ``(axis, momentum)`` pair, which transforms the axis to
    momentum (True) or position (False); an array, which multiplies the
    state; or a ``(block, matrices)`` pair, which applies a composed block.
    The gates are fused, each distinct fused gate is lowered once, every
    axis changes basis only when the next op needs the other one, and all
    axes end in position. Each distinct block's matrices are built here,
    once, and shared by every step that applies the block.
    """
    ops = _lower_plan(spec, gates)
    composed = _composed_blocks(spec, ops)
    matrices: dict[tuple, np.ndarray] = {}
    for block in composed.values():
        if block.key not in matrices:
            bases = [False] * spec.num_modes
            bases[block.axis] = block.entry
            for axis, momentum in block.fixed:
                bases[axis] = momentum
            matrices[block.key] = _block_matrices(
                spec, block, _schedule(ops[block.start:block.stop], bases, {}, {}))
    in_momentum = [False] * spec.num_modes
    steps = _schedule(ops, in_momentum, composed, matrices)
    return steps + [(axis, False) for axis, momentum in enumerate(in_momentum) if momentum]


class _Slab(NamedTuple):
    """A stretch of transforms and multiplies that never transforms
    ``axis``, run on the two halves of that axis at once: ``parts[i]`` is
    the stretch with every table that spans ``axis`` sliced to half i."""

    axis: int
    parts: tuple[list, list]


def _slabs(spec: GridSpec, steps: list) -> list:
    """The steps with each stretch of transforms and multiplies whose work
    reaches SLAB_MIN_WORK made one slab step.

    A stretch ends before a composed block, which runs serially in BLAS,
    and before a transform of its slab axis. That axis is axis 0, unless
    the stretch's first transform is on axis 0; then it is axis 1. Every
    transform and multiply of a slab step touches only its own half, so
    the result is bitwise that of the serial steps.
    """
    out: list = []
    stretch: list = []
    axis = None  # the stretch's slab axis, set by its first transform
    for step in steps:
        if isinstance(step, np.ndarray):
            stretch.append(step)
            continue
        block = isinstance(step[0], _Block)
        if block or step[0] == axis:
            out += _as_slab(spec, stretch, axis)
            stretch, axis = [], None
        if block:
            out.append(step)
            continue
        if axis is None:
            axis = 1 if step[0] == 0 else 0
        stretch.append(step)
    return out + _as_slab(spec, stretch, axis)


def _as_slab(spec: GridSpec, stretch: list, axis: int | None,
             points: int | None = None) -> list:
    """One stretch as a slab step along ``axis`` (axis 0 when it has no
    transform), on an array of ``points`` values (the state's by default);
    a stretch whose work, points times steps, is below SLAB_MIN_WORK, or
    with no such axis, runs whole."""
    axis = axis or 0
    work = len(stretch) * (points or spec.points_per_mode ** spec.num_modes)
    if work < SLAB_MIN_WORK or axis >= spec.num_modes:
        return stretch
    half = spec.points_per_mode // 2
    parts = []
    for start in (0, half):
        index = (slice(None),) * axis + (slice(start, start + half),)
        # views: a table of length one on the axis serves both halves
        parts.append([step[index] if isinstance(step, np.ndarray) and step.shape[axis] > 1
                      else step for step in stretch])
    return [_Slab(axis, tuple(parts))]


@functools.cache
def _worker(pid: int):
    """The one thread that runs the second half of every slab step in
    process ``pid``: a child forked after the first slab step inherits the
    pool but not its thread, so it makes its own. The pool is made on the
    first slab step, so loading this module imports no concurrent.futures
    and a command that runs no plan starts no thread."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="kvnsim-slab")


def _execute_in(errstate: dict, steps: Sequence, psi: np.ndarray) -> None:
    # numpy keeps its floating-point error state per thread (per context),
    # so the worker takes the caller's
    with np.errstate(**errstate):
        _execute(steps, psi)


def _run_slab(slab: _Slab, psi: np.ndarray) -> None:
    """Run a slab step's parts at once: the first half in the calling
    thread, the second in the worker. numpy's transforms and multiplies
    release the GIL."""
    half = psi.shape[slab.axis] // 2
    lower, upper = (psi[(slice(None),) * slab.axis + (slice(start, start + half),)]
                    for start in (0, half))
    done = _worker(os.getpid()).submit(_execute_in, np.geterr(), slab.parts[1], upper)
    try:
        _execute(slab.parts[0], lower)
    finally:
        done.result()


def _execute(steps: Sequence, psi: np.ndarray) -> None:
    """Run compiled steps on psi in place."""
    for step in steps:
        if isinstance(step, np.ndarray):
            psi *= step
        elif isinstance(step, _Slab):
            _run_slab(step, psi)
        elif isinstance(step[0], _Block):
            _apply_block(psi, step[1], step[0])
        else:
            axis, momentum = step
            (_fft if momentum else _ifft)(psi, axis)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def apply_gate(state: GridState, gate: Gate) -> None:
    """Apply one gate to the state in place, norm preserved to roundoff."""
    apply_sequence(state, GateSequence(state.spec.num_modes, (gate,)))


def apply_sequence(state: GridState, seq: GateSequence) -> None:
    """Apply a gate sequence (leftmost first) to the state in place.

    The compiled steps run on ``state.psi`` itself, in two slabs at once
    when the process has more than one CPU. Raises BlowUpError when the
    result is not finite; after any error ``state.psi`` may hold partly
    evolved values.
    """
    if seq.num_modes != state.spec.num_modes:
        raise ValueError(
            f"sequence over {seq.num_modes} modes applied to a "
            f"{state.spec.num_modes}-mode state"
        )
    steps = _compile(state.spec, seq)
    if _cpus() > 1:
        steps = _slabs(state.spec, steps)
    _execute(steps, state.psi)
    if not np.isfinite(state.psi).all():
        raise BlowUpError("grid state has non-finite amplitudes")


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
    p = spec.axis_view(spec.momenta_fft_order(), term.mode)
    # The factor spans only the axes it reads. The phase is built one index
    # of axis 0 at a time, from read-only full-shape views of its two
    # factors, so no full-size phase ever exists beside the state's copy.
    g = np.broadcast_to(-1j * s * (term.sign * term.factor.evaluate_array(axes)), spec.shape)
    p = np.broadcast_to(p, spec.shape)
    psi = _fft(state.psi.copy(), term.mode)
    for i in range(spec.points_per_mode):
        psi[i] *= np.exp(g[i] * p[i])
    return GridState(spec, _ifft(psi, term.mode))


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
    """Mean vector and covariance matrix of a grid density.

    Each product is formed in one work buffer, in the order of
    ``np.sum(w * di * dj)``, so the sums are bitwise the plain expressions'.
    """
    spec = density.spec
    d = spec.num_modes
    xs = spec.positions()
    w = density.values * spec.cell_volume
    work = np.empty_like(w)
    total = float(np.sum(w))
    mean = np.empty(d)
    for i in range(d):
        mean[i] = np.sum(np.multiply(w, spec.axis_view(xs, i), out=work)) / total
    cov = np.empty((d, d))
    for i in range(d):
        di = spec.axis_view(xs - mean[i], i)
        for j in range(i, d):
            dj = spec.axis_view(xs - mean[j], j)
            np.multiply(w, di, out=work)
            cov[i, j] = cov[j, i] = np.sum(np.multiply(work, dj, out=work)) / total
    return mean, cov


def boundary_mass(density: DensityGrid) -> float:
    """Probability mass within BOUNDARY_CELLS cells of any grid face.

    The shell is summed directly, one axis at a time: the cells counted for
    axis a lie in its first or last BOUNDARY_CELLS layers and in the
    interior of every earlier axis, so no cell counts twice and nothing is
    subtracted (a total minus the interior is mostly roundoff, and can read
    negative). Each slice is summed as a contiguous copy: numpy sums a
    strided view in another order, which can move the last digit.
    """
    inner = slice(BOUNDARY_CELLS, -BOUNDARY_CELLS)
    total = 0.0
    for axis in range(density.spec.num_modes):
        for edge in (slice(None, BOUNDARY_CELLS), slice(-BOUNDARY_CELLS, None)):
            total += float(np.sum(density.values[(inner,) * axis + (edge,)].copy()))
    return total * density.spec.cell_volume


def measure_positions(density: DensityGrid, num_samples: int, seed: int) -> np.ndarray:
    """Draw position samples from a grid density by inverse CDF over the
    flattened grid.

    Deterministic for a fixed seed; returns an array of cell-center
    coordinates with shape (num_samples, num_modes).
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    spec = density.spec
    cdf = np.cumsum(density.values.ravel() * spec.cell_volume)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    flat = np.searchsorted(cdf, rng.random(num_samples), side="right")
    np.minimum(flat, cdf.size - 1, out=flat)
    # one coordinate at a time, last axis first: in C order the flat index
    # modulo N is the last axis's index, and the quotient indexes the rest
    xs = spec.positions()
    samples, index = np.empty((num_samples, spec.num_modes)), np.empty_like(flat)
    for axis in reversed(range(spec.num_modes)):
        np.divmod(flat, spec.points_per_mode, out=(flat, index))
        samples[:, axis] = xs[index]
    return samples


def density_to_csv(density: DensityGrid, start: int = 0, stop: int | None = None) -> bytearray:
    """One row per grid cell, in C order: coordinates then the density value.

    Returns the ASCII bytes of cells [start, stop), all by default, after
    the header row when start is 0 (an empty range is empty), so
    consecutive ranges join into the file.
    The cells are written TEXT_CHUNK at a time into one matrix of uint64
    words, a row per cell: the text of each coordinate, formatted once per
    axis value, then the density value's, both NUL-padded
    (``floattext.float_text``). Deleting the NULs of the matrix gives the
    rows' text, which is appended to the result, so the text is held once.
    """
    # compiled on first use: commands that write no CSV never load it
    from .floattext import FLOAT_WORDS, NEWLINE, float_cells, float_text

    spec = density.spec
    d = spec.num_modes
    values = np.ascontiguousarray(density.values, dtype=np.float64).ravel()
    stop = values.size if stop is None else min(stop, values.size)
    header = (",".join(f"x{i + 1}" for i in range(d)) + ",density\n").encode()
    out = bytearray(header if start == 0 < stop else b"")
    cells = float_cells(spec.positions(), b",")
    width = cells.shape[1]
    n = spec.points_per_mode
    matrix = np.zeros((TEXT_CHUNK, d * width + FLOAT_WORDS), np.uint64)
    cell = np.arange(TEXT_CHUNK)
    changing = []
    for axis in range(d):
        stride = n ** (d - 1 - axis)  # cell i sits at index i // stride % n of the axis
        columns = matrix[:, axis * width:(axis + 1) * width]
        if stride * n <= TEXT_CHUNK:  # a pattern that every chunk repeats
            np.take(cells, (cell + start) // stride % n, axis=0, out=columns, mode="clip")
        else:
            changing.append((stride, columns))
    for first in range(start, stop, TEXT_CHUNK):
        rows = matrix[:min(TEXT_CHUNK, stop - first)]
        for stride, columns in changing:
            index = (cell[:len(rows)] + first) // stride % n
            np.take(cells, index, axis=0, out=columns[:len(rows)], mode="clip")
        float_text(values[first:first + len(rows)], rows[:, d * width:])
        rows[:, -1] |= NEWLINE
        out += rows.tobytes().translate(None, b"\0")
    return out


def moments_to_csv(
    mean: np.ndarray, cov: np.ndarray, metrics: dict[str, float] | None = None
) -> bytearray:
    """Rows: kind,label1,label2,value for means, covariances and metrics."""
    d = len(mean)
    out = bytearray(b"kind,label1,label2,value\n")
    for i in range(d):
        out += f"mean,x{i + 1},,{float(mean[i])!r}\n".encode()
    for i in range(d):
        for j in range(d):
            out += f"cov,x{i + 1},x{j + 1},{float(cov[i, j])!r}\n".encode()
    for key, value in (metrics or {}).items():
        out += f"metric,{key},,{float(value)!r}\n".encode()
    return out


def samples_to_csv(samples: np.ndarray) -> bytearray:
    """A header, then one row per sample; returns the file's ASCII bytes.

    Rows are formatted SAMPLE_ROWS at a time, as density_to_csv formats
    cells, so no more than one group's text is held beside the result.
    """
    from .floattext import COMMA, FLOAT_WORDS, NEWLINE, float_text

    d = samples.shape[1]
    out = bytearray((",".join(f"x{i + 1}" for i in range(d)) + "\n").encode())
    ends = np.array([COMMA] * (d - 1) + [NEWLINE], np.uint64)
    matrix = np.zeros((SAMPLE_ROWS, d, FLOAT_WORDS), np.uint64)
    for start in range(0, len(samples), SAMPLE_ROWS):
        group = np.ascontiguousarray(samples[start:start + SAMPLE_ROWS], dtype=np.float64)
        rows = matrix[:len(group)]
        float_text(group.ravel(), rows.reshape(-1, FLOAT_WORDS))
        rows[:, :, -1] |= ends
        out += rows.tobytes().translate(None, b"\0")
    return out
