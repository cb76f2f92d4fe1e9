"""Spans around the calls into each kvnsim layer, recorded in-process.

As a script it runs one CLI command traced and writes the spans as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json verify --config c.json

The spans wrap every public kvnsim function that ``kvnsim.cli`` calls
through its own namespace, plus ``PhasePolynomial.evaluate_array``; nothing
under ``src/`` is changed. Spans stay in memory until the command returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import uuid
from contextlib import contextmanager


def _csv_bytes(bound, result) -> dict:
    return {"bytes": len(result)}


def _flow_point_steps(bound, result) -> dict:
    """Grid points times integrator steps, counted as FlowMap.flow_array
    counts them (the last step is shortened to land on t)."""
    dt, remaining, steps = bound.arguments["map"].dt, abs(bound.arguments["t"]), 0
    while remaining > 0.0:
        remaining -= min(dt, remaining)
        steps += 1
    return {"point_steps": result.values.size * steps}


# Counts recorded at the same boundaries as the spans.
COUNTERS = {
    "grid.density_to_csv": _csv_bytes,
    "grid.moments_to_csv": _csv_bytes,
    "grid.samples_to_csv": _csv_bytes,
    "oracle.liouville_density_grid": _flow_point_steps,
}


class Tracer:
    """Spans with name, start, end and parent; all share one run id."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter:
                record.update(counter(signature.bind(*args, **kwargs), result))
            return result

        return traced


def install(tracer: Tracer, cli, phase_polynomial) -> None:
    """Wrap the public kvnsim functions bound in the cli module's namespace."""
    for attr, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                or not module.startswith("kvnsim.") or module == cli.__name__):
            continue
        name = f"{module.removeprefix('kvnsim.')}.{value.__name__}"
        setattr(cli, attr, tracer.wrap(name, value))
    phase_polynomial.evaluate_array = tracer.wrap(
        "phasepoly.PhasePolynomial.evaluate_array", phase_polynomial.evaluate_array
    )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from kvnsim import cli
        from kvnsim.phasepoly import PhasePolynomial
    install(tracer, cli, PhasePolynomial)
    with tracer.span("cli.main"):
        code = cli.main(cli_argv)
    with open(out_path, "w") as handle:
        json.dump({"run_id": tracer.run_id, "exit_code": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
