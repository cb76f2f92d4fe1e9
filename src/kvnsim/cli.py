"""Command-line driver: identities, synth, evolve, verify.

    kvnsim identities
        Run the symbolic proof battery (controlled-shift lowering for every
        catalog generator plus the Liouville product rule). Exit 1 on any
        failure.
    kvnsim synth --config c.json [--dump-kvn]
        Print the KvN term listing and the serialized circuits for one
        Trotter step and for the full evolution.
    kvnsim evolve --config c.json [--out DIR] [--backend grid|gaussian]
        Run the evolution and write density.csv, moments.csv, samples.csv.
    kvnsim verify --config c.json [--out DIR]
        Evolve, then compare the resulting density against the classical
        Liouville density on the same grid, which a worker thread computes
        while the evolution runs. Exit 3 when a threshold in the config is
        exceeded or a reading is not a number.

Exit codes: 0 success, 1 identity failure, 2 config error, 3 verification
threshold breach, 4 numerical blow-up.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import BACKENDS, ConfigError, ExperimentConfig, check_backend, load_config
from .expansion import admissible_exponent_triples
from .gaussian import evolve_gaussian
from .grid import (
    MEMORY_CAP_BYTES,
    TEXT_CHUNK,
    DensityGrid,
    GridSpecError,
    apply_sequence,
    born_density,
    boundary_mass,
    density_to_csv,
    measure_positions,
    moments_to_csv,
    position_moments,
    prepare_gaussian,
    samples_to_csv,
)
from .oracle import BlowUpError, FlowMap, compare_densities, gaussian_density, liouville_density_grid
from .phasepoly import PhasePolynomial
from .synth import serialize_gates, trotter_circuit
from .weyl import verify_key_decomposition, verify_liouvillian_product_rule

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_THRESHOLD = 3
EXIT_BLOWUP = 4

# Cells of density text formatted and written per piece, about 2.7 MB of
# text: a file's text is never held whole (a 32^4 density is 42 MB of it).
CSV_PIECE_CELLS = 32 * TEXT_CHUNK


def _product_rule_battery() -> list[tuple[str, bool]]:
    """Deterministic Liouville product-rule checks on assorted polynomials."""
    rng = np.random.default_rng(20240801)
    checks: list[tuple[str, bool]] = []

    def random_poly(num_vars: int, degree: int) -> PhasePolynomial:
        terms = {}
        for _ in range(4):
            expo = [0] * num_vars
            for _ in range(rng.integers(0, degree + 1)):
                expo[rng.integers(0, num_vars)] += 1
            terms[tuple(expo)] = int(rng.integers(-5, 6))
        return PhasePolynomial(num_vars, terms)

    for n in (1, 2, 3):
        for k in range(8):
            h = random_poly(2 * n, 3)
            f = random_poly(2 * n, 3)
            g = random_poly(2 * n, 3)
            ok = verify_liouvillian_product_rule(h, f, g)
            checks.append((f"product rule n={n} case {k}", ok))
    return checks


def cmd_identities(_args) -> int:
    failures = 0
    for triple in admissible_exponent_triples():
        proof = verify_key_decomposition(*triple)
        print(proof.to_text())
        if not proof.passed:
            failures += 1
    battery = _product_rule_battery()
    for label, ok in battery:
        print(f"{label}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures += 1
    total = len(admissible_exponent_triples()) + len(battery)
    print(f"{total - failures}/{total} identities PASS")
    return EXIT_OK if failures == 0 else EXIT_IDENTITY


def cmd_synth(args) -> int:
    config = load_config(args.config)
    if args.dump_kvn:
        print("KvN generator terms:")
        print(config.kvn.dump())
        print()
    step = trotter_circuit(config.kvn, config.t, config.n_steps, config.order)
    single = trotter_circuit(config.kvn, config.t / config.n_steps, 1, config.order) \
        if config.t != 0.0 else step
    print(f"# one {['', 'first', 'second'][config.order]}-order step "
          f"({len(single)} gates)")
    print(serialize_gates(single))
    print(f"# full circuit: {config.n_steps} steps, {len(step)} gates")
    print(serialize_gates(step))
    return EXIT_OK


@dataclass
class EvolutionResult:
    density: DensityGrid
    mean: np.ndarray
    cov: np.ndarray
    metrics: dict[str, float]
    samples: np.ndarray | None


def _run_evolution(config: ExperimentConfig) -> EvolutionResult:
    spec = config.spec
    samples = None
    if config.backend == "gaussian":
        mean, cov = evolve_gaussian(config.kvn, config.mean, config.covariance, config.t)
        # as check_gaussian rejects such a covariance on the grid backend
        if not np.isfinite(cov).all() or np.linalg.eigvalsh(cov).min() <= 0:
            raise ConfigError(
                "initial_density.covariance: too narrow for its evolution to "
                f"t = {config.t!r}: the evolved covariance is not finite and "
                "positive definite"
            )
        # sampled by the reference's cell sweep, at t = 0: no flow
        rho = gaussian_density(mean, cov)
        density = liouville_density_grid(FlowMap(config.hamiltonian), rho, 0.0, spec)
        total = density.total()
        if not 0 < total < np.inf:
            # as prepare_gaussian rejects such a state on the grid backend
            raise ConfigError(
                "initial_density.covariance: too narrow for the grid: the evolved "
                f"density sampled at the cell centres totals {total!r}"
            )
        if config.num_samples:
            rng = np.random.default_rng(config.seed)
            samples = rng.multivariate_normal(mean, cov, size=config.num_samples)
    else:
        try:
            state = prepare_gaussian(spec, config.mean, config.covariance)
        except GridSpecError as exc:
            raise ConfigError.from_grid(exc) from exc
        circuit = trotter_circuit(config.kvn, config.t, config.n_steps, config.order)
        # the plan runs on the prepared state's array, which nothing else
        # holds, and the measure stage holds only the density
        apply_sequence(state, circuit)
        density = born_density(state)
        del state
        mean, cov = position_moments(density)
        if config.num_samples:
            samples = measure_positions(density, config.num_samples, config.seed)
    metrics = {
        "boundary_mass": boundary_mass(density),
        "norm_error": abs(float(np.sqrt(density.total())) - 1.0),
    }
    return EvolutionResult(density, mean, cov, metrics, samples)


def _make_output_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"outputs: cannot create the directory {out_dir}: {exc}") from exc


def _write_file(path: Path, pieces: Iterable[bytes]) -> None:
    """Write the pieces to the file, holding one at a time; a file that
    cannot be written is a config error of the outputs."""
    try:
        with open(path, "wb") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"outputs: cannot write {path}: {exc}") from exc


def _write_density(density: DensityGrid, path: Path) -> None:
    """Write the density's CSV one piece of CSV_PIECE_CELLS cells at a time."""
    _write_file(path, (density_to_csv(density, start, start + CSV_PIECE_CELLS)
                       for start in range(0, density.values.size, CSV_PIECE_CELLS)))


def _write_outputs(result: EvolutionResult, out_dir: Path) -> None:
    _write_density(result.density, out_dir / "density.csv")
    _write_file(out_dir / "moments.csv", [moments_to_csv(result.mean, result.cov, result.metrics)])
    if result.samples is not None:
        _write_file(out_dir / "samples.csv", [samples_to_csv(result.samples)])


def _configure(args) -> ExperimentConfig:
    """Load the config and apply the command-line overrides."""
    config = load_config(args.config)
    if args.out:
        config.outputs = Path(args.out)
    if args.backend:
        check_backend(args.backend, config.kvn)
        config.backend = args.backend
    return config


def cmd_evolve(args) -> int:
    config = _configure(args)
    _make_output_dir(config.outputs)
    result = _run_evolution(config)
    _write_outputs(result, config.outputs)
    mean_text = ", ".join(f"{m:.6g}" for m in result.mean)
    print(f"wrote {config.outputs}/density.csv moments.csv"
          + (" samples.csv" if result.samples is not None else ""))
    print(f"position means: [{mean_text}]")
    print(f"boundary mass: {result.metrics['boundary_mass']:.3e}")
    return EXIT_OK


def _check_reference_steps(t: float, dt: float) -> None:
    """Raise ConfigError unless the reference flow's list of steps of dt
    spanning t, ceil(|t| / dt) of them, fits the memory cap at 8 bytes each."""
    if abs(t) / dt > MEMORY_CAP_BYTES // 8:  # so is its ceiling; inf included
        raise ConfigError(
            f"evolution.t: {abs(t) / dt:.4g} reference flow steps of dt = {dt!r} "
            f"exceed the memory cap of {MEMORY_CAP_BYTES} bytes at 8 bytes per step"
        )


def cmd_verify(args) -> int:
    """Evolve and compare with the Liouville reference, which one worker
    thread computes while the grid runs: it needs only the config, and
    its flow, mostly numpy calls that release the GIL, fills the core the
    grid leaves idle. Its CSV is formatted here, after the grid's: the
    formatter's short numpy calls and bytes.translate hold the GIL for
    much of their time, so in the worker they would slow the grid to gain
    at most the formatting's own 0.04 s on a 256^2 grid. An evolution
    error wins over a reference error."""
    from concurrent.futures import ThreadPoolExecutor

    config = _configure(args)
    flow = FlowMap(config.hamiltonian)
    _check_reference_steps(config.t, flow.dt)
    _make_output_dir(config.outputs)
    rho0 = gaussian_density(config.mean, config.covariance)
    errstate = np.geterr()

    def reference() -> DensityGrid:
        # numpy keeps its floating-point error state per thread (per
        # context), so the worker takes the caller's
        with np.errstate(**errstate):
            return liouville_density_grid(flow, rho0, config.t, config.spec)

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="kvnsim-reference") as pool:
        pending = pool.submit(reference)
        result = _run_evolution(config)
        _write_outputs(result, config.outputs)
        reference_density = pending.result()
    _write_density(reference_density, config.outputs / "reference_density.csv")
    comparison = compare_densities(result.density, reference_density)
    moment_err = float(np.linalg.norm(comparison.first_moment_error))
    print(f"total variation: {comparison.total_variation:.6f} "
          f"(threshold {config.verify.tv})")
    print(f"first-moment error: {moment_err:.6f} "
          f"(threshold {config.verify.first_moment})")
    print(f"second-moment error norm: {comparison.second_moment_error_norm:.6f}")
    # a NaN reading breaches its threshold
    within = (
        comparison.total_variation <= config.verify.tv
        and moment_err <= config.verify.first_moment
    )
    if not within:
        print("verification FAILED: threshold exceeded")
        return EXIT_THRESHOLD
    print("verification PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvnsim",
        description="Compile classical polynomial Hamiltonian dynamics to "
        "continuous-variable circuits and emulate them numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run the symbolic proof battery")
    p_id.set_defaults(func=cmd_identities)

    for name, func, help_text in (
        ("synth", cmd_synth, "print KvN terms and synthesized circuits"),
        ("evolve", cmd_evolve, "run the evolution and write CSV outputs"),
        ("verify", cmd_verify, "evolve and compare against the classical oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        if name == "synth":
            p.add_argument(
                "--dump-kvn", action="store_true", help="print the KvN term listing"
            )
        else:
            p.add_argument("--out", help="output directory (overrides config)")
            p.add_argument(
                "--backend", choices=BACKENDS,
                help="backend override",
            )
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
