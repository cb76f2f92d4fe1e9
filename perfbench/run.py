"""kvnsim benchmark: one workload through the real CLI, in fresh processes.

    python3 perfbench/run.py --workload quartic-verify --seed 1 --seconds 10 --trace 0

Run from anywhere; the repository root is this file's parent directory.
The load is a closed loop with one client: the next invocation starts when
the previous one has exited, and invocations repeat until ``--seconds``
have passed (at least one). Every invocation's outputs are checked.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one extra traced invocation (see README.md). The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
``--smoke`` shrinks the grids and step counts for a quick self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from tracing import self_times
from workloads import LAYER_SPANS, WORKLOADS, check, reference_moments

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
LAUNCH = HERE / "launch.py"
TRACED = HERE / "tracing.py"

SETUP_SAMPLES = 7
GATE_REPS = 15

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "config.load_s": "s",
    "synth.trotter_circuit_s": "s",
    "synth.gates": "count",
    "synth.gates.CX": "count",
    "synth.gates.Q": "count",
    "synth.gates.F": "count",
    "synth.gates.FDAG": "count",
    "synth.fft_pairs": "count",
    "synth.fusable_gates": "count",
    "grid.prepare_s": "s",
    "grid.apply_sequence_s": "s",
    "grid.gate_ms.CX": "ms",
    "grid.gate_ms.Q": "ms",
    "grid.gate_ms.F": "ms",
    "grid.gate_ms.FDAG": "ms",
    "grid.measure_s": "s",
    "grid.export_s": "s",
    "grid.export_bytes": "bytes",
    "grid.norm_error": "ratio",
    "grid.boundary_mass": "prob",
    "oracle.liouville_s": "s",
    "oracle.flow_point_steps": "count",
    "oracle.compare_s": "s",
    "phasepoly.evaluate_array_s": "s",
    "phasepoly.evaluate_array_calls": "count",
    "weyl.key_decomposition_s": "s",
    "weyl.product_rule_s": "s",
    "weyl.checks": "count",
    "tv": "prob",
    "moment_err": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


@dataclass
class Invocation:
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    code: int
    stdout: str


def spawn(script: Path, args: list[str], cwd: Path) -> Invocation:
    """Run one child to completion; time it and take its own peak RSS.

    ``os.wait4`` returns the rusage of this child alone, unlike
    RUSAGE_CHILDREN, which keeps the maximum over every child so far.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(script), *args], stdout=out, stderr=err, cwd=cwd, env=env
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    setup = None
    for line in err_path.read_text(errors="replace").splitlines():
        if line.startswith("perfbench-setup "):
            setup = float(line.split()[1]) - start
    return Invocation(
        wall_s=end - start,
        setup_s=setup,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        code=code,
        stdout=out_path.read_text(errors="replace"),
    )


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = found.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        # scipy.fft resolves the grid backend's workers=-1 to this count.
        "fft_workers": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, smoke: bool, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.out_dir = run_dir / "out"
        self.config = workload.make_config(seed, smoke)
        self.config_path = run_dir / "config.json"
        if self.config is not None:
            self.config_path.write_text(json.dumps(self.config, indent=1))
        self.reference = (
            reference_moments(self.config) if workload.command == "evolve" else None
        )
        self.args = workload.cli_args(self.config_path, self.out_dir)
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []

    def invoke(self, script: Path, prefix: list[str] = ()) -> tuple[Invocation, dict]:
        """One checked CLI invocation, counted as one attempted operation."""
        inv = spawn(script, [*prefix, *self.args], self.run_dir)
        problems, readings = check(
            self.workload, self.config, inv.code, inv.stdout, self.out_dir, self.reference
        )
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        for problem in problems:
            self.fail(problem)
        return inv, readings

    def fail(self, problem: str) -> None:
        """Count the latest invocation as failed."""
        self.failed_ops.add(self.attempted)
        self.problems.append(f"invocation {self.attempted}: {problem}")

    def setup_probe(self) -> float:
        inv = spawn(LAUNCH, ["--setup-only", *self.args], self.run_dir)
        if inv.code != 0 or inv.setup_s is None:
            raise BenchmarkError(f"set-up probe failed with exit code {inv.code}")
        return inv.setup_s

    def timed(self, seconds: float) -> tuple[list[Invocation], list[dict]]:
        """Untraced invocations until ``seconds`` have passed."""
        self.setup_probe()  # not recorded: fills the bytecode and file caches
        runs, readings = [], []
        deadline = time.monotonic() + seconds
        while not runs or time.monotonic() < deadline:
            inv, read = self.invoke(LAUNCH)
            if inv.code == 0 and inv.setup_s is None:
                raise BenchmarkError("the CLI never reported set-up; see launch.py")
            runs.append(inv)
            readings.append(read)
        return runs, readings


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    runs, readings = run.timed(seconds)
    setups = [r.setup_s for r in runs if r.setup_s is not None]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.setup_probe())
    walls = [r.wall_s for r in runs]
    metrics = {
        # The 90th percentile, not the median: see "End-to-end metrics" in
        # README.md for the measurements behind the choice.
        "wall_s": statistics.quantiles(walls, n=10, method="inclusive")[-1]
        if len(walls) > 1 else walls[0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    extra = {"samples": {"wall_s": walls, "setup_s": setups,
                         "peak_rss_mb": [r.peak_rss_mb for r in runs]}}
    for name in ("tv", "moment_err"):
        values = [r[name] for r in readings if name in r]
        if values:
            extra[name] = statistics.median(values)
    return metrics, extra


def gate_costs(config: dict, circuit) -> dict[str, float]:
    """Median ms of ``apply_gate`` (with its state copy) per gate kind, on
    the first gate of each kind in the workload's circuit."""
    from kvnsim.config import config_from_dict
    from kvnsim.grid import GridSpec, apply_gate, prepare_gaussian

    cfg = config_from_dict(config)
    spec = GridSpec(cfg.num_modes, cfg.points_per_mode, cfg.half_extent)
    state = prepare_gaussian(spec, cfg.mean, cfg.covariance)
    firsts = {}
    for gate in circuit:
        firsts.setdefault(gate.kind.value, gate)
    costs = {}
    for kind, gate in firsts.items():
        apply_gate(state, gate)
        times = []
        for _ in range(GATE_REPS):
            start = time.perf_counter()
            apply_gate(state, gate)
            times.append(time.perf_counter() - start)
        costs[f"grid.gate_ms.{kind}"] = 1e3 * statistics.median(times)
    return costs


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    runs, _ = run.timed(seconds)
    spans_path = run.run_dir / "spans.json"
    inv, readings = run.invoke(TRACED, [str(spans_path)])
    if not spans_path.is_file():
        raise BenchmarkError(f"the traced invocation wrote no spans (exit code {inv.code})")
    trace = json.loads(spans_path.read_text())
    traces = WORK / "traces"
    traces.mkdir(exist_ok=True)
    shutil.copy(spans_path, traces / f"{run.workload.name}-{trace['run_id']}.json")
    spans = trace["spans"]
    calls = Counter(s["name"] for s in spans)
    missing = [name for name in run.workload.expected_spans() if not calls[name]]
    if missing:
        raise BenchmarkError("expected spans never fired: " + ", ".join(missing))

    metrics = dict.fromkeys(PER_LAYER, 0)
    for metric, names in LAYER_SPANS.items():
        metrics[metric] = sum(s["end"] - s["start"] for s in spans if s["name"] in names)
    metrics["phasepoly.evaluate_array_calls"] = calls["phasepoly.PhasePolynomial.evaluate_array"]
    metrics["weyl.checks"] = (calls["weyl.verify_key_decomposition"]
                              + calls["weyl.verify_liouvillian_product_rule"])
    metrics["grid.export_bytes"] = sum(s.get("bytes", 0) for s in spans)
    metrics["oracle.flow_point_steps"] = sum(s.get("point_steps", 0) for s in spans)
    metrics.update(readings)

    root = next(s["id"] for s in spans if s["name"] == "cli.main")
    covered = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] in (None, root) and s["id"] != root)
    metrics["trace.wall_s"] = inv.wall_s
    metrics["trace.overhead_s"] = inv.wall_s - statistics.median(r.wall_s for r in runs)
    metrics["trace.coverage"] = covered / inv.wall_s

    if run.config is not None:
        from circuit import circuit_counts
        from kvnsim.config import config_from_dict
        from kvnsim.synth import trotter_circuit

        cfg = config_from_dict(run.config)
        circuit = trotter_circuit(cfg.kvn, cfg.t, cfg.n_steps, cfg.order)
        counts = circuit_counts(circuit)
        for name, want in run.workload.expected_counts(cfg.n_steps).items():
            if counts.get(name) != want:
                run.fail(f"{name} is {counts.get(name)}, expected {want}")
        metrics.update({k: v for k, v in counts.items() if k in PER_LAYER})
        metrics.update(gate_costs(run.config, circuit))

    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    extra = {"run_id": trace["run_id"], "untraced_invocations": len(runs), "spans": table}
    return {k: metrics[k] for k in PER_LAYER}, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids and step counts")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kvnsim" / "cli.py").is_file():
        print(f"perfbench: no kvnsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    run_dir.mkdir()
    try:
        run = Run(workload, args.seed, args.smoke, run_dir)
        measure = per_layer if args.trace else end_to_end
        metrics, extra = measure(run, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    env = environment()
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "problems": run.problems, **extra, "result": result}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' * args.smoke}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {run.attempted} invocations, "
          f"{len(run.failed_ops)} failed; record in {(results / name).relative_to(ROOT)}")
    for key, value in metrics.items():
        print(f"{key:32s} {value:>16.6g} {units[key]}")
    if "samples" in extra:
        walls = extra["samples"]["wall_s"]
        print(f"{'wall_s (median)':32s} {statistics.median(walls):>16.6g} s "
              f"({len(walls)} invocations)")
    for key in ("tv", "moment_err"):
        if key in extra:
            print(f"{key:32s} {extra[key]:>16.6g} {PER_LAYER[key]} (median reading)")
    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
