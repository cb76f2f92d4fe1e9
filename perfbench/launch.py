"""Run one kvnsim CLI command and report when its set-up finished.

    PYTHONPATH=src python3 perfbench/launch.py [--setup-only] verify --config c.json

Set-up ends once ``kvnsim.cli`` is imported and ``load_config`` has
returned (at the import, for a command without a config). That moment is
written to stderr as ``perfbench-setup <time.monotonic()>``; the monotonic
clock is system-wide on Linux, so the parent compares it with the time it
spawned this process. ``--setup-only`` exits right after it.
"""

from __future__ import annotations

import sys
import time

SETUP_MARK = "perfbench-setup"


class _SetupDone(Exception):
    pass


def _mark() -> None:
    print(f"{SETUP_MARK} {time.monotonic()!r}", file=sys.stderr, flush=True)


def main(argv: list[str]) -> int:
    setup_only = argv[:1] == ["--setup-only"]
    if setup_only:
        argv = argv[1:]
    from kvnsim import cli

    if "--config" not in argv:
        _mark()
        return 0 if setup_only else cli.main(argv)

    load = cli.load_config

    def load_config(path):
        config = load(path)
        _mark()
        if setup_only:
            raise _SetupDone
        return config

    cli.load_config = load_config
    try:
        return cli.main(argv)
    except _SetupDone:
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
