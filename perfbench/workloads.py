"""The benchmark's workloads: the inputs a seed generates, and the checks
each run's outputs must pass.

Each workload is one ``kvnsim`` command. The program sees only the
generated config: the seed perturbs the initial mean slightly and picks
``sampling.seed``, which leaves the amount of work unchanged.
"""

from __future__ import annotations

import copy
import csv
import random
import re
from dataclasses import dataclass
from pathlib import Path

# The values of configs/quartic.json when the benchmark was defined, kept
# here so that a later change to the shipped config does not change the
# workload.
QUARTIC = {
    "version": 1,
    "hamiltonian": {"n": 1, "H": "1/2 * x2^2 + 1/2 * x1^2 + 1/40 * x1^4"},
    "initial_density": {"mean": [1.0, 0.0], "covariance": [[0.5, 0.0], [0.0, 0.5]]},
    "grid": {"points_per_mode": 256, "half_extent": 16.0},
    "evolution": {"t": 1.0, "n_steps": 200, "order": 2},
    "backend": "grid",
    "sampling": {"num_samples": 2000, "seed": 11},
    "outputs": "out/quartic",
    "verify": {"tv_threshold": 0.05, "moment_threshold": 0.05},
}

COUPLED4 = {
    "version": 1,
    "hamiltonian": {
        "n": 2,
        "H": "1/2 * x3^2 + 1/2 * x4^2 + 1/2 * x1^2 + 1/2 * x2^2 + 1/20 * x1^2 * x2^2",
    },
    "initial_density": {
        "mean": [1.0, 0.5, 0.0, 0.0],
        "covariance": [[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)],
    },
    "grid": {"points_per_mode": 32, "half_extent": 8.0},
    "evolution": {"t": 1.0, "n_steps": 20, "order": 2},
    "backend": "grid",
    "sampling": {"num_samples": 2000, "seed": 0},
    "outputs": "out/coupled4",
}

MEAN_JITTER = 0.05
NORM_TOL = 1e-10
# Tolerance on moment_err by points per mode. At the full 32 points it is
# about 2e-3, the grid's own Trotter and discretisation error (the
# moment-matched ensemble adds about 1e-4); the smoke size's 16 points
# resolve the moments only to about 2e-2.
MOMENT_TOL = {32: 1e-2, 16: 5e-2}
ENSEMBLE_SIZE = 20000

# Spans behind each per-layer time metric; a metric is the summed inclusive
# duration of its spans.
LAYER_SPANS = {
    "cli.import_s": ("cli.import",),
    "config.load_s": ("config.load_config",),
    "synth.trotter_circuit_s": ("synth.trotter_circuit",),
    "grid.prepare_s": ("grid.prepare_gaussian",),
    "grid.apply_sequence_s": ("grid.apply_sequence",),
    "grid.measure_s": (
        "grid.born_density",
        "grid.position_moments",
        "grid.boundary_mass",
        "grid.measure_positions",
    ),
    "grid.export_s": ("grid.density_to_csv", "grid.moments_to_csv", "grid.samples_to_csv"),
    "oracle.liouville_s": ("oracle.liouville_density_grid",),
    "oracle.compare_s": ("oracle.compare_densities",),
    "phasepoly.evaluate_array_s": ("phasepoly.PhasePolynomial.evaluate_array",),
    "weyl.key_decomposition_s": ("weyl.verify_key_decomposition",),
    "weyl.product_rule_s": ("weyl.verify_liouvillian_product_rule",),
}

_GRID_LAYERS = (
    "config.load_s",
    "synth.trotter_circuit_s",
    "grid.prepare_s",
    "grid.apply_sequence_s",
    "grid.measure_s",
    "grid.export_s",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base: dict | None
    # Circuit counts of one Trotter step, then the fused count's constant:
    # neighbour fusion leaves per_step_fused * n_steps + 1 gates.
    per_step: dict[str, int]
    per_step_fused: int
    layers: tuple[str, ...]

    def make_config(self, seed: int, smoke: bool) -> dict | None:
        if self.base is None:
            return None
        rng = random.Random(seed)
        config = copy.deepcopy(self.base)
        density = config["initial_density"]
        density["mean"] = [m + rng.uniform(-MEAN_JITTER, MEAN_JITTER) for m in density["mean"]]
        config["sampling"]["seed"] = rng.randrange(2 ** 31)
        if smoke:
            config["grid"]["points_per_mode"] = 64 if config["hamiltonian"]["n"] == 1 else 16
            config["evolution"]["n_steps"] = 4
        return config

    def cli_args(self, config_path: Path, out_dir: Path) -> list[str]:
        if self.base is None:
            return [self.command]
        return [self.command, "--config", str(config_path), "--out", str(out_dir)]

    def expected_spans(self) -> list[str]:
        return [s for layer in ("cli.import_s", *self.layers) for s in LAYER_SPANS[layer]]

    def expected_counts(self, n_steps: int) -> dict[str, int]:
        counts = {k: v * n_steps for k, v in self.per_step.items()}
        counts["synth.fusable_gates"] = counts["synth.gates"] - (self.per_step_fused * n_steps + 1)
        return counts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quartic-verify", "verify", QUARTIC,
            {"synth.gates": 32, "synth.gates.CX": 20, "synth.gates.F": 2,
             "synth.gates.FDAG": 2, "synth.gates.Q": 8, "synth.fft_pairs": 24},
            24,
            (*_GRID_LAYERS, "oracle.liouville_s", "oracle.compare_s", "phasepoly.evaluate_array_s"),
        ),
        Workload(
            "coupled4-evolve", "evolve", COUPLED4,
            {"synth.gates": 120, "synth.gates.CX": 88, "synth.gates.F": 4,
             "synth.gates.FDAG": 4, "synth.gates.Q": 24, "synth.fft_pairs": 96},
            86,
            _GRID_LAYERS,
        ),
        Workload(
            "identities", "identities", None, {}, 0,
            ("weyl.key_decomposition_s", "weyl.product_rule_s"),
        ),
    )
}


# -- output checks ---------------------------------------------------------


def read_moments(path: Path) -> tuple[list[float], list[list[float]], dict[str, float]]:
    """Means, covariance and metric rows of a ``moments.csv``."""
    means: list[float] = []
    cov: dict[tuple[str, str], float] = {}
    metrics: dict[str, float] = {}
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            value = float(row["value"])
            if row["kind"] == "mean":
                means.append(value)
            elif row["kind"] == "cov":
                cov[row["label1"], row["label2"]] = value
            elif row["kind"] == "metric":
                metrics[row["label1"]] = value
    d = len(means)
    matrix = [[cov[f"x{i + 1}", f"x{j + 1}"] for j in range(d)] for i in range(d)]
    return means, matrix, metrics


def reference_moments(config: dict):
    """First and second moments of a seeded, moment-matched Monte Carlo
    ensemble transported by ``oracle.ensemble_evolve``.

    Antithetic draws, whitened so the initial sample mean and covariance are
    exact, leave mostly the ensemble's nonlinear sampling error, which is far
    below the grid's own error; plain sampling at this size is not.
    """
    import numpy as np
    from kvnsim.config import config_from_dict
    from kvnsim.oracle import ClassicalEnsemble, FlowMap, ensemble_evolve

    cfg = config_from_dict(config)
    dim = len(cfg.mean)
    z = np.random.default_rng(cfg.seed).standard_normal((ENSEMBLE_SIZE // 2, dim))
    z = np.concatenate([z, -z])
    z = z @ np.linalg.inv(np.linalg.cholesky(z.T @ z / len(z))).T
    start = ClassicalEnsemble(cfg.mean + z @ np.linalg.cholesky(cfg.covariance).T)
    samples = ensemble_evolve(FlowMap(cfg.hamiltonian), start, cfg.t).samples
    return samples.mean(axis=0), samples.T @ samples / len(samples)


def moment_error(moments_csv: Path, reference) -> float:
    """Relative error of the position moments (means and second moments)."""
    import numpy as np

    means, cov, _ = read_moments(moments_csv)
    mean = np.asarray(means)
    second = np.asarray(cov) + np.outer(mean, mean)
    ref_mean, ref_second = reference
    diff = np.sqrt(np.sum((mean - ref_mean) ** 2) + np.sum((second - ref_second) ** 2))
    return float(diff / np.sqrt(np.sum(ref_mean ** 2) + np.sum(ref_second ** 2)))


def total_variation(out_dir: Path, config: dict) -> float:
    """TV distance between density.csv and reference_density.csv."""
    import numpy as np

    grid = np.loadtxt(out_dir / "density.csv", delimiter=",", skiprows=1)
    ref = np.loadtxt(out_dir / "reference_density.csv", delimiter=",", skiprows=1)
    if grid.shape != ref.shape or not np.array_equal(grid[:, :-1], ref[:, :-1]):
        raise ValueError("density.csv and reference_density.csv cover different cells")
    dx = 2.0 * config["grid"]["half_extent"] / config["grid"]["points_per_mode"]
    dim = grid.shape[1] - 1
    return 0.5 * float(np.sum(np.abs(grid[:, -1] - ref[:, -1]))) * dx ** dim


_PRINTED_TV = re.compile(r"^total variation: (\S+) ", re.M)
_IDENTITIES = re.compile(r"^(\d+)/(\d+) identities PASS$", re.M)


def check(workload: Workload, config: dict | None, code: int, stdout: str,
          out_dir: Path, reference) -> tuple[list[str], dict[str, float]]:
    """Problems found in one invocation's outputs, and its quality readings."""
    problems: list[str] = []
    readings: dict[str, float] = {}
    if code != 0:
        return [f"exit code {code}"], readings
    if workload.base is None:
        match = _IDENTITIES.search(stdout)
        if not match or match[1] != match[2] or int(match[2]) < 1:
            problems.append("output does not read 'N/N identities PASS'")
        return problems, readings

    if not (out_dir / "moments.csv").is_file():
        return ["moments.csv not written"], readings
    _, _, metrics = read_moments(out_dir / "moments.csv")
    readings["grid.norm_error"] = metrics["norm_error"]
    readings["grid.boundary_mass"] = metrics["boundary_mass"]
    if workload.command == "verify":
        if not (out_dir / "reference_density.csv").is_file():
            return problems + ["reference_density.csv not written"], readings
        try:
            tv = total_variation(out_dir, config)
        except ValueError as exc:
            return problems + [str(exc)], readings
        readings["tv"] = tv
        threshold = config["verify"]["tv_threshold"]
        printed = _PRINTED_TV.search(stdout)
        if not printed or abs(float(printed[1]) - tv) > 5e-7:
            problems.append(f"printed total variation does not match the CSVs ({tv:.3e})")
        if not tv <= threshold:
            problems.append(f"tv {tv:.3e} above the config threshold {threshold}")
    else:
        if not metrics["norm_error"] <= NORM_TOL:
            problems.append(f"norm_error {metrics['norm_error']:.3e} above {NORM_TOL}")
        err = moment_error(out_dir / "moments.csv", reference)
        readings["moment_err"] = err
        tolerance = MOMENT_TOL[config["grid"]["points_per_mode"]]
        if not err <= tolerance:
            problems.append(f"moment_err {err:.3e} above {tolerance}")
        cells = config["grid"]["points_per_mode"] ** (2 * config["hamiltonian"]["n"])
        rows = (out_dir / "density.csv").read_bytes().count(b"\n") - 1
        if rows != cells:
            problems.append(f"density.csv has {rows} rows, expected {cells}")
    return problems, readings
