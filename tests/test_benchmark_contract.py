"""The kvnsim names the benchmark in ``perfbench/`` imports or wraps.

The benchmark runs only under ``python -m pytest perfbench``; these checks
make a change that renames, rebinds or re-signs one of its names fail the
main suite as well.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from kvnsim import cli
from kvnsim.config import ExperimentConfig, config_from_dict
from kvnsim.grid import TEXT_CHUNK, GridSpec, apply_gate, prepare_gaussian
from kvnsim.oracle import (
    ClassicalEnsemble,
    FlowMap,
    ensemble_evolve,
    gaussian_density,
    liouville_density_grid,
)
from kvnsim.phasepoly import PhasePolynomial
from kvnsim.synth import Gate, GateKind, GateSequence, trotter_circuit

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
TRACING_PY = WORKLOADS_PY.with_name("tracing.py")


def layer_spans() -> dict[str, tuple[str, ...]]:
    """The ``LAYER_SPANS`` literal of the benchmark's workloads module."""
    tree = ast.parse(WORKLOADS_PY.read_text())
    (value,) = (node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYER_SPANS"])
    return ast.literal_eval(value)


def counted_spans() -> list[str]:
    """The span names in the ``COUNTERS`` literal of the benchmark's tracer."""
    tree = ast.parse(TRACING_PY.read_text())
    (value,) = (node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["COUNTERS"])
    return [ast.literal_eval(key) for key in value.keys]


# spans the tracer opens itself or around a method, not around a cli binding
UNBOUND_SPANS = {"cli.import", "phasepoly.PhasePolynomial.evaluate_array"}


def test_cli_binds_the_entry_points_the_launcher_patches():
    assert callable(cli.main)
    assert cli.load_config.__module__ == "kvnsim.config"


@pytest.mark.parametrize(
    "span", sorted({s for spans in layer_spans().values() for s in spans} - UNBOUND_SPANS)
)
def test_cli_binds_each_traced_function_under_its_span_name(span):
    # the tracer wraps the public functions of kvnsim modules that cli
    # binds, and names each span after its defining module and __name__
    module, name = span.split(".")
    own = getattr(importlib.import_module(f"kvnsim.{module}"), name)
    assert getattr(cli, name) is own
    assert own.__module__ == f"kvnsim.{module}" and own.__name__ == name
    assert inspect.isfunction(own)


@pytest.mark.parametrize("span", counted_spans())
def test_cli_binds_each_counted_function(span):
    # the tracer counts only calls made through cli's namespace
    module, name = span.split(".")
    assert getattr(cli, name) is getattr(importlib.import_module(f"kvnsim.{module}"), name)


def test_export_bytes_sum_to_the_density_file(tmp_path, monkeypatch):
    # the tracer records len() of each density_to_csv result as
    # grid.export_bytes; the pieces must add up to the file
    lengths, own = [], cli.density_to_csv

    def traced(*args, **kwargs):
        result = own(*args, **kwargs)
        lengths.append(len(result))
        return result

    monkeypatch.setattr(cli, "density_to_csv", traced)
    monkeypatch.setattr(cli, "CSV_PIECE_CELLS", 2 * TEXT_CHUNK)
    config = {
        "version": 1,
        "hamiltonian": {"n": 1, "H": "1/2 * x2^2 + 1/2 * x1^2"},
        "initial_density": {"mean": [1.0, 0.0], "covariance": [[0.5, 0.0], [0.0, 0.5]]},
        "grid": {"points_per_mode": 128, "half_extent": 8.0},
        "evolution": {"t": 1.0, "n_steps": 4, "order": 2},
        "backend": "grid",
        "sampling": {"num_samples": 10, "seed": 0},
        "outputs": str(tmp_path / "out"),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert cli.main(["evolve", "--config", str(path)]) == 0
    assert len(lengths) == 4
    assert sum(lengths) == (tmp_path / "out" / "density.csv").stat().st_size


def test_gate_costs_keep_the_state_finite_and_normalised():
    # perfbench/run.py's gate_costs calls apply_gate 16 times (one warm-up
    # and 15 timed) for the first gate of each kind in the workload's
    # circuit, all on one prepared state, and discards the results: the
    # state is evolved in place by every call. Here at coupled4's smoke size.
    cfg = config_from_dict({
        "version": 1,
        "hamiltonian": {
            "n": 2,
            "H": "1/2 * x3^2 + 1/2 * x4^2 + 1/2 * x1^2 + 1/2 * x2^2 + 1/20 * x1^2 * x2^2",
        },
        "initial_density": {"mean": [1.0, 0.5, 0.0, 0.0], "covariance": (0.5 * np.eye(4)).tolist()},
        "grid": {"points_per_mode": 16, "half_extent": 8.0},
        "evolution": {"t": 1.0, "n_steps": 4, "order": 2},
        "backend": "grid",
        "outputs": "out",
    })
    spec = GridSpec(cfg.num_modes, cfg.points_per_mode, cfg.half_extent)
    state = prepare_gaussian(spec, cfg.mean, cfg.covariance)
    firsts = {}
    for gate in trotter_circuit(cfg.kvn, cfg.t, cfg.n_steps, cfg.order):
        firsts.setdefault(gate.kind.value, gate)
    assert sorted(firsts) == ["CX", "F", "FDAG", "Q"]
    for gate in firsts.values():
        for _ in range(16):
            apply_gate(state, gate)
    assert np.isfinite(state.psi).all()
    norm = np.sqrt(np.sum(np.abs(state.psi) ** 2) * spec.cell_volume)
    assert abs(norm - 1.0) <= 1e-12


def test_counted_signatures():
    # perfbench/tracing.py binds these parameters by name
    assert list(inspect.signature(liouville_density_grid).parameters) == [
        "map", "rho0", "t", "spec"]
    assert list(inspect.signature(PhasePolynomial.evaluate_array).parameters) == [
        "self", "coords"]
    assert list(inspect.signature(FlowMap).parameters) == ["hamiltonian", "dt"]


def test_imported_names_keep_their_signatures():
    for fn, params in (
        (FlowMap.flow_array, ["self", "points", "t"]),
        (gaussian_density, ["mean", "cov"]),
        (ClassicalEnsemble, ["samples"]),
        (ensemble_evolve, ["map", "ensemble", "t"]),
        (GridSpec, ["num_modes", "points_per_mode", "half_extent"]),
        (apply_gate, ["state", "gate"]),
        (prepare_gaussian, ["spec", "mean", "cov"]),
        (config_from_dict, ["data"]),
        (trotter_circuit, ["h", "t", "n_steps", "order"]),
        (Gate, ["kind", "modes", "param"]),
    ):
        assert list(inspect.signature(fn).parameters) == params, fn
    assert isinstance(GateSequence(1), GateSequence)


def test_gate_kinds_and_config_fields_it_reads():
    # perfbench/circuit.py names every kind; its counts use the values
    assert {k.name: k.value for k in GateKind} == {
        "MOMENTUM_DISPLACEMENT": "D", "QUADRATIC_PHASE": "P", "CUBIC_PHASE": "V",
        "QUARTIC_PHASE": "Q", "ROTATION": "R", "CONTROLLED_Z": "CZ",
        "CONTROLLED_X": "CX", "FOURIER": "F", "FOURIER_INVERSE": "FDAG",
    }
    fields = {name for name, _ in inspect.getmembers(ExperimentConfig)}
    fields |= set(ExperimentConfig.__dataclass_fields__)
    assert fields >= {
        "hamiltonian", "kvn", "mean", "covariance", "t", "n_steps", "order", "seed",
        "num_modes", "points_per_mode", "half_extent",
    }
