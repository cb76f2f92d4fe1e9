"""Lowering of KvN generators to elementary continuous-variable gates.

Every generator has the shape s * g(X) * P_t with g a polynomial of degree
at most three in position quadratures of other qumodes. Lowering rules:

    degree 0:  exp(-i s P_t)          -> F_t, D_t(s), F_t^dag
    degree 1:  exp(-i s X_c P_t)      -> CX_{c,t}(s)
    degree 2+: exp(-i s X^alpha P_t)  -> F_t [ per expansion term v:
                   CX conjugation with weights h, inner phase gate of
                   degree a on mode t ] F_t^dag

where a = degree + 1, so the inner gate is a cubic phase gate (strength
adjusted for V(s) = exp(i s X^3 / 3)) or a quartic one, and synthesis
emits no P, R or CZ gate. Conjugations with zero weight are omitted.

Gate sequences serialize one gate per line as ``KIND mode[,mode] param``
with shortest round-trip decimals; Fourier gates carry no parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .expansion import expansion_coefficients
from .kvn import KvNHamiltonian, KvNTerm


class GateKind(str, Enum):
    MOMENTUM_DISPLACEMENT = "D"
    QUADRATIC_PHASE = "P"
    CUBIC_PHASE = "V"
    QUARTIC_PHASE = "Q"
    ROTATION = "R"
    CONTROLLED_Z = "CZ"
    CONTROLLED_X = "CX"
    FOURIER = "F"
    FOURIER_INVERSE = "FDAG"


_PARAMETERLESS = {GateKind.FOURIER, GateKind.FOURIER_INVERSE}
_TWO_MODE = {GateKind.CONTROLLED_Z, GateKind.CONTROLLED_X}


@dataclass(frozen=True)
class Gate:
    """One elementary gate: kind, qumode indices, real strength.

    Generator conventions: D(s) = exp(i s X), P(s) = exp(i s X^2 / 2),
    V(s) = exp(i s X^3 / 3), Q(s) = exp(i s X^4), R(s) = exp(i s (X^2+P^2)/2),
    CZ(s) = exp(i s X_j X_k), CX(s) = exp(-i s X_j P_k) with modes (j, k),
    F = R(pi/2).
    """

    kind: GateKind
    modes: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        expected = 2 if self.kind in _TWO_MODE else 1
        if len(self.modes) != expected:
            raise ValueError(
                f"{self.kind.value} acts on {expected} mode(s), got {self.modes}"
            )
        if expected == 2 and self.modes[0] == self.modes[1]:
            raise ValueError(f"{self.kind.value} requires two distinct modes")
        if any(m < 0 for m in self.modes):
            raise ValueError(f"negative mode index in {self.modes}")
        if self.kind in _PARAMETERLESS:
            if self.param is not None:
                raise ValueError(f"{self.kind.value} takes no parameter")
        else:
            if self.param is None or not math.isfinite(self.param):
                raise ValueError(f"{self.kind.value} needs a finite parameter")

    def inverse(self) -> "Gate":
        if self.kind is GateKind.FOURIER:
            return Gate(GateKind.FOURIER_INVERSE, self.modes)
        if self.kind is GateKind.FOURIER_INVERSE:
            return Gate(GateKind.FOURIER, self.modes)
        return Gate(self.kind, self.modes, -self.param)


@dataclass(frozen=True)
class GateSequence:
    """Ordered gate list; the leftmost gate is applied first."""

    num_modes: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for g in self.gates:
            if max(g.modes) >= self.num_modes:
                raise ValueError(
                    f"gate {g.kind.value} on modes {g.modes} exceeds "
                    f"{self.num_modes} qumodes"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __add__(self, other: "GateSequence") -> "GateSequence":
        if self.num_modes != other.num_modes:
            raise ValueError("cannot concatenate sequences over different mode counts")
        return GateSequence(self.num_modes, self.gates + other.gates)

    def inverse(self) -> "GateSequence":
        return GateSequence(
            self.num_modes, tuple(g.inverse() for g in reversed(self.gates))
        )


def _inner_phase_gate(mode: int, degree: int, strength: float) -> Gate:
    """Gate implementing exp(i * strength * X^degree), degree 3 or 4, on one mode."""
    if degree == 3:
        return Gate(GateKind.CUBIC_PHASE, (mode,), 3.0 * strength)
    if degree == 4:
        return Gate(GateKind.QUARTIC_PHASE, (mode,), strength)
    raise ValueError(f"no phase gate of degree {degree}")


def _synthesize_monomial(exponents: dict[int, int], strength: float, target: int) -> list[Gate]:
    """Gates for exp(-i * strength * prod_c X_c^e_c * P_target)."""
    degree = sum(exponents.values())
    if degree == 0:
        return [
            Gate(GateKind.FOURIER, (target,)),
            Gate(GateKind.MOMENTUM_DISPLACEMENT, (target,), strength),
            Gate(GateKind.FOURIER_INVERSE, (target,)),
        ]
    if degree == 1:
        (control, _), = exponents.items()
        return [Gate(GateKind.CONTROLLED_X, (control, target), strength)]
    controls = sorted(exponents)
    padded = [exponents[c] for c in controls] + [0] * (3 - len(controls))
    gates: list[Gate] = [Gate(GateKind.FOURIER, (target,))]
    a = degree + 1
    for term in expansion_coefficients(*padded):
        conjugation = [
            Gate(GateKind.CONTROLLED_X, (controls[i - 1], target), float(h))
            for i, h in enumerate(term.weights)
            if i >= 1 and i - 1 < len(controls) and h != 0
        ]
        gates.extend(conjugation)
        gates.append(
            _inner_phase_gate(target, a, strength * float(term.coefficient))
        )
        gates.extend(g.inverse() for g in reversed(conjugation))
    gates.append(Gate(GateKind.FOURIER_INVERSE, (target,)))
    return gates


def synthesize_term(term: KvNTerm, s: float) -> GateSequence:
    """Compile exp(-i * s * sign * factor(X) * P_mode) into elementary gates.

    Monomials of the factor commute with each other (they share the same
    momentum quadrature), so a multi-term factor is lowered monomial by
    monomial with no splitting error.
    """
    if not math.isfinite(s):
        raise ValueError("gate strength must be finite")
    num_modes = term.num_modes
    if s == 0.0 or term.factor.is_zero:
        return GateSequence(num_modes)
    gates: list[Gate] = []
    for expo, coeff in term.factor.sorted_terms():
        exponents = {i: e for i, e in enumerate(expo) if e}
        strength = s * term.sign * float(coeff)
        gates.extend(_synthesize_monomial(exponents, strength, term.mode))
    return GateSequence(num_modes, tuple(gates))


def trotter_circuit(
    h: KvNHamiltonian, t: float, n_steps: int, order: int = 1
) -> GateSequence:
    """Product-formula circuit for evolution under the KvN generator.

    order 1 concatenates the per-term circuits with step t/n_steps; order 2
    is the symmetric (Strang) arrangement, a forward half-sweep followed by
    the reversed half-sweep in every step.
    """
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    if n_steps < 1:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    num_modes = h.num_modes
    if t == 0.0 or not h.terms:
        return GateSequence(num_modes)
    dt = t / n_steps
    if order == 1:
        step: list[Gate] = []
        for term in h.terms:
            step.extend(synthesize_term(term, dt).gates)
    else:
        half: list[list[Gate]] = [
            list(synthesize_term(term, dt / 2).gates) for term in h.terms
        ]
        step = [g for gates in half for g in gates]
        step += [g for gates in reversed(half) for g in gates]
    return GateSequence(num_modes, tuple(step) * n_steps)


# -- serialization -----------------------------------------------------------


def serialize_gates(seq: GateSequence) -> str:
    """One gate per line: ``KIND mode[,mode] param``."""
    lines = []
    for g in seq:
        modes = ",".join(str(m) for m in g.modes)
        if g.param is None:
            lines.append(f"{g.kind.value} {modes}")
        else:
            lines.append(f"{g.kind.value} {modes} {g.param!r}")
    return "\n".join(lines)

