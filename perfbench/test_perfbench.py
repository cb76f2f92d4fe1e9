"""Self-tests of the benchmark: smoke runs at tiny sizes, circuit counts at
full size, and the refusal to run without the kvnsim sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from circuit import circuit_counts, fused_length  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from kvnsim.config import config_from_dict  # noqa: E402
from kvnsim.synth import Gate, GateKind, GateSequence, trotter_circuit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0


def _circuit(name: str):
    cfg = config_from_dict(WORKLOADS[name].base)
    return cfg, trotter_circuit(cfg.kvn, cfg.t, cfg.n_steps, cfg.order)


def test_quartic_counts_match_the_seed_values():
    cfg, circuit = _circuit("quartic-verify")
    counts = circuit_counts(circuit)
    assert counts == {
        "synth.gates": 6400, "synth.gates.CX": 4000, "synth.gates.F": 400,
        "synth.gates.FDAG": 400, "synth.gates.Q": 1600, "synth.fft_pairs": 4800,
        "synth.fusable_gates": 6400 - 4801,
    }
    assert counts == WORKLOADS["quartic-verify"].expected_counts(cfg.n_steps)


def test_coupled4_counts_match_the_seed_values():
    cfg, circuit = _circuit("coupled4-evolve")
    counts = circuit_counts(circuit)
    assert cfg.n_steps == 20
    assert (counts["synth.gates"], counts["synth.gates.CX"], counts["synth.fft_pairs"]) == (
        2400, 1760, 1920)
    assert counts["synth.gates"] - counts["synth.fusable_gates"] == 1721
    assert counts == WORKLOADS["coupled4-evolve"].expected_counts(cfg.n_steps)


def test_fusion_merges_only_exact_neighbours():
    cx = GateKind.CONTROLLED_X
    seq = GateSequence(3, (
        Gate(GateKind.QUARTIC_PHASE, (1,), 0.5),
        Gate(cx, (0, 1), 0.25),
        Gate(GateKind.FOURIER, (2,)),
        Gate(GateKind.FOURIER_INVERSE, (2,)),  # cancels F, exposing the CX
        Gate(cx, (0, 1), -0.25),               # sums to zero: both CX vanish
        Gate(GateKind.QUARTIC_PHASE, (1,), 0.5),  # now merges with the first Q
        Gate(cx, (2, 1), 1.0),                 # other control: kept
        Gate(cx, (0, 1), 1.0),
    ))
    assert fused_length(seq) == 3


def test_self_time_excludes_child_spans():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "b", "parent": 0, "start": 5.0, "end": 7.0},
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "identities", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
