"""Counts computed from a synthesized gate list.

They explain the grid backend's cost and repeat exactly for a given
circuit, so a change in them is a change in the work, not noise.
"""

from __future__ import annotations

from collections import Counter

from kvnsim.synth import Gate, GateKind, GateSequence

# One FFT pair per gate: CX acts in the target's momentum basis, and F/FDAG
# are quarter rotations whose middle shear is one momentum-diagonal phase.
# Synthesis emits no R gate, so its angle-dependent count is left out.
_FFT_PAIRS = {GateKind.CONTROLLED_X: 1, GateKind.FOURIER: 1, GateKind.FOURIER_INVERSE: 1}
# Kinds whose gates on the same modes compose by adding their parameters.
_ADDITIVE = {
    GateKind.MOMENTUM_DISPLACEMENT,
    GateKind.QUADRATIC_PHASE,
    GateKind.CUBIC_PHASE,
    GateKind.QUARTIC_PHASE,
    GateKind.ROTATION,
    GateKind.CONTROLLED_Z,
    GateKind.CONTROLLED_X,
}
_FOURIER_PAIR = {GateKind.FOURIER, GateKind.FOURIER_INVERSE}


def fused_length(seq: GateSequence) -> int:
    """Gate count after merging neighbours that commute exactly.

    Adjacent gates of one additive kind on the same modes become one gate
    with the summed parameter (none when the sum is exactly zero), and an
    adjacent F/FDAG pair on one mode cancels. A merge can expose a new
    neighbour, so the scan keeps the surviving gates on a stack.
    """
    kept: list[Gate] = []
    for gate in seq:
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
    return len(kept)


def circuit_counts(seq: GateSequence) -> dict[str, int]:
    """``synth.*`` counts: gates, gates by kind, FFT pairs, fusable gates."""
    kinds = Counter(g.kind for g in seq)
    counts = {"synth.gates": len(seq)}
    for kind, n in sorted(kinds.items(), key=lambda item: item[0].value):
        counts[f"synth.gates.{kind.value}"] = n
    counts["synth.fft_pairs"] = sum(_FFT_PAIRS.get(k, 0) * n for k, n in kinds.items())
    counts["synth.fusable_gates"] = len(seq) - fused_length(seq)
    return counts
