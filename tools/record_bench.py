#!/usr/bin/env python
"""Snapshot benchmark ``--json`` output into tracked ``BENCH_*.json`` files.

The benchmark scripts under ``benchmarks/`` can dump their measurements as
JSON (``--json PATH``); this tool runs a named benchmark configuration and
records that dump — plus the interpreter/platform it was measured on — as a
``BENCH_<name>.json`` file at the repository root, intended to be committed.
Tracked snapshots give reviewers a known-good reference measurement next to
the code that produced it, and give CI a file to diff structure against.

Usage::

    python tools/record_bench.py --list
    python tools/record_bench.py fig7_distributed
    python tools/record_bench.py all            # every registered snapshot
    python tools/record_bench.py optimizer_micro --before parent.json

``--before PATH`` is for a change that claims a speed-up: PATH is the same
benchmark's ``--json`` dump measured on the parent commit, and the snapshot
then keeps both, as ``measurements.before`` and ``measurements.after``.

Absolute timings in a snapshot are machine-specific — the stable parts are
the structure, the speedup ratios and the pass/fail ``failures`` list (a
recorded snapshot must have recorded ``failures: []``; the tool refuses to
write one that failed its own bars).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Registered snapshot configurations: name -> (script, extra argv).
#: Each records to ``BENCH_<name>.json`` at the repository root.  Tracked
#: snapshots must be cheap to refresh: smoke variants where the full run is
#: long, the full run where it takes seconds.
SNAPSHOTS: Dict[str, Dict[str, List[str]]] = {
    "fig7_distributed": {
        "script": ["benchmarks/bench_fig7_scalability.py"],
        "args": ["--smoke", "--executor", "distributed"],
    },
    # The full run (six data-model artifacts at e2e scale) takes ~2 s.
    "serialization_micro": {
        "script": ["benchmarks/bench_serialization_micro.py"],
        "args": [],
    },
    # The full sweep (up to 10^4 nodes) takes under ten seconds.
    "optimizer_micro": {
        "script": ["benchmarks/bench_optimizer_micro.py"],
        "args": [],
    },
}


def record(name: str, output: Optional[Path] = None, before: Optional[Path] = None) -> Path:
    """Run one registered benchmark and write its tracked snapshot.

    Returns the snapshot path.  Raises ``RuntimeError`` if the benchmark
    exits non-zero or reports bar failures — a failing measurement must
    not become the committed reference.  ``before`` names a dump of the same
    benchmark measured on the parent commit, kept beside the fresh one.
    """
    config = SNAPSHOTS[name]
    destination = output or (REPO_ROOT / f"BENCH_{name}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    with tempfile.TemporaryDirectory(prefix="record-bench-") as tmp:
        dump = Path(tmp) / "bench.json"
        command = [
            sys.executable,
            *config["script"],
            *config["args"],
            "--json",
            str(dump),
        ]
        print(f"[{name}] running: {' '.join(command[1:])}", flush=True)
        proc = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: benchmark exited {proc.returncode}")
        measurements = json.loads(dump.read_text(encoding="utf-8"))
    if measurements.get("failures"):
        raise RuntimeError(
            f"{name}: refusing to snapshot a failing run: {measurements['failures']}"
        )
    if before is not None:
        measurements = {
            "before": json.loads(before.read_text(encoding="utf-8")),
            "after": measurements,
        }
    snapshot = {
        "benchmark": name,
        "command": [*config["script"], *config["args"]],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "measurements": measurements,
    }
    destination.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"[{name}] wrote {destination.relative_to(REPO_ROOT)}", flush=True)
    return destination


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record benchmark --json output as tracked BENCH_*.json snapshots."
    )
    parser.add_argument(
        "name",
        nargs="?",
        default=None,
        help=f"snapshot to record: {', '.join(sorted(SNAPSHOTS))}, or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered snapshots and exit"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the snapshot somewhere other than BENCH_<name>.json "
        "(single snapshot only)",
    )
    parser.add_argument(
        "--before",
        type=Path,
        default=None,
        metavar="PATH",
        help="--json dump of the same benchmark measured on the parent commit; "
        "the snapshot keeps it as 'before' and the fresh run as 'after' "
        "(single snapshot only)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name, config in sorted(SNAPSHOTS.items()):
            print(f"{name}: {' '.join([*config['script'], *config['args']])}")
        return 0
    if args.name is None:
        parser.error("name a snapshot (or 'all'); --list shows the registry")
    names = sorted(SNAPSHOTS) if args.name == "all" else [args.name]
    unknown = [name for name in names if name not in SNAPSHOTS]
    if unknown:
        parser.error(f"unknown snapshot(s): {unknown}; --list shows the registry")
    if (args.output is not None or args.before is not None) and len(names) != 1:
        parser.error("--output and --before only apply to a single snapshot")
    for name in names:
        record(name, output=args.output, before=args.before)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
