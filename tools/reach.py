#!/usr/bin/env python3
"""Which ``src/repro`` functions do the system's own entry points execute?

    python tools/reach.py [DIR]

Runs the e2e workloads, script benchmarks, paper-figure tests, examples and
the CI serve/submit round trip (about 7 min on 2 cores), each under a
generated ``sitecustomize.py`` whose hook (:func:`record`) notes the first
call of every ``src/`` code object in every thread and child process.  Then
prints each unreached definition (a never-constructed class is one row) with
why it stays: a reason from ``reach_keep.txt``, or the dunder/abstract rule.
Exits 1 if one has no reason.  ``DIR`` keeps the per-process dumps; a run on
a ``DIR`` that already holds dumps only reports.
"""

import argparse
import ast
import atexit
import fnmatch
import functools
import importlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PY = sys.executable
HOOK = """import sys
sys.path.insert(0, {tools!r})
import reach
sys.path.pop(0)
reach.record({out!r}, {label!r}, {src!r})
"""

#: One def or class.  ``auto`` is "dunder", "abstract" or "": the reason a
#: definition stays without being listed in ``reach_keep.txt``.
Unit = namedtuple("Unit", "file name lines parent members auto is_class")


def record(out_dir: str, label: str, src: str) -> None:
    """Profile hook: collect ``file:firstline`` of every src/ code object called."""
    prefix = src + os.sep
    seen = set()
    hits = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in seen:
            seen.add(code)
            if code.co_filename.startswith(prefix):
                hits.add(f"{code.co_filename[len(prefix):]}:{code.co_firstlineno}")

    def dump():
        # The periodic thread and the exit hooks can dump at once: each
        # writer gets its own temporary file, so no open() truncates a file
        # another writer is about to move into place.
        path = os.path.join(out_dir, f"{label}@{os.getpid()}.json")
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(sorted(hits.copy()), handle)
        os.replace(tmp, path)

    def dump_periodically():
        # A killed worker never reaches atexit.
        while True:
            time.sleep(0.5)
            dump()

    def arm():
        # Forked workers inherit no threads, so the child re-arms itself.
        sys.setprofile(profile)
        threading.setprofile(profile)
        threading.Thread(target=dump_periodically, daemon=True).start()

    real_exit = os._exit

    def exit_after_dump(code):
        # Forked children leave through os._exit, which skips atexit.
        dump()
        real_exit(code)

    os._exit = exit_after_dump
    atexit.register(dump)
    os.register_at_fork(after_in_child=arm)
    arm()


class _Benchmark:
    """Stands in for pytest-benchmark's fixture, which would replace the profiler."""

    def pedantic(self, fn, **options):
        return fn()


def paper_figures() -> int:
    """Call the figure/table benchmark tests directly, every parametrized case."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    names = sorted(
        path.stem
        for path in ROOT.glob("benchmarks/bench_*.py")
        if path.stem.startswith(("bench_fig", "bench_tab"))
    )
    failed = 0
    for module in map(importlib.import_module, names):
        for name, test in sorted(vars(module).items()):
            # Figure 7c's executor runs are the bench:fig7_scalability entry point.
            if not name.startswith("test_") or name.startswith("test_fig7c"):
                continue
            if test.__module__ != module.__name__:
                continue
            marks = [mark for mark in getattr(test, "pytestmark", []) if mark.name == "parametrize"]
            cases = [{mark.args[0]: value} for mark in marks for value in mark.args[1]]
            for case in cases or [{}]:
                try:
                    test(_Benchmark(), **case)
                except Exception:  # report every failing test, not just the first
                    failed += 1
                    traceback.print_exc()
    return 1 if failed else 0


def serve_round_trip(env, log) -> int:
    """CI serve-smoke: a daemon with default admission, two concurrent verified submits, SIGTERM."""
    serve = subprocess.Popen(
        [PY, "-m", "repro", "serve", "--port", "0", "--max-workers", "2",
         "--max-concurrent-runs", "2"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    # The first line is "repro service listening on HOST:PORT".
    address = serve.stdout.readline().rsplit(" ", 1)[-1].strip()
    submit = [PY, "-m", "repro", "submit", "--address", address, "--workload", "census",
              "--iterations", "2", "--scale", "0.25", "--seed", "7", "--verify-inline"]
    runs = [
        subprocess.Popen(submit, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        for _ in range(2)
    ]
    codes = [run.wait() for run in runs]
    serve.send_signal(signal.SIGTERM)
    log.write(serve.communicate(timeout=120)[0])
    return max(codes + [serve.returncode])


def entry_points():
    """Label -> argv to run, or a callable ``(env, log) -> exit code``."""
    points = {}
    for workload in ("census_reuse", "mnist_churn", "synth1k_optimizer", "wide_distributed"):
        points[f"e2e:{workload}"] = [PY, "benchmarks/e2e/run.py", "--workload", workload,
                                     "--seed", "7", "--seconds", "1", "--trace", "1"]
    for bench in ("fig7_scalability", "optimizer_micro", "serialization_micro"):
        points[f"bench:{bench}"] = [PY, f"benchmarks/bench_{bench}.py", "--smoke"]
    points["bench:paper_figures"] = [
        PY, "-c",
        "import sys; sys.path.insert(0, 'tools'); import reach; sys.exit(reach.paper_figures())",
    ]
    for path in sorted((ROOT / "examples").glob("*.py")):
        points[f"example:{path.stem}"] = [PY, f"examples/{path.name}"]
    points["example:distributed_lifecycle --remote"] = [PY, "examples/distributed_lifecycle.py", "--remote"]
    points["serve+submit"] = serve_round_trip
    return points


def run(out_dir: Path) -> None:
    """Run every entry point under the hook; dumps land in ``out_dir``."""
    for index, (label, command) in enumerate(entry_points().items()):
        hook_dir = out_dir / "hooks" / str(index)
        hook_dir.mkdir(parents=True)
        hook = HOOK.format(tools=str(ROOT / "tools"), out=str(out_dir), label=label, src=str(SRC))
        (hook_dir / "sitecustomize.py").write_text(hook)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC.parent)]))
        started = time.perf_counter()
        with open(out_dir / f"log{index}.txt", "w") as log:
            if callable(command):
                code = command(env, log)
            else:
                code = subprocess.run(command, cwd=ROOT, env=env, stdout=log,
                                      stderr=subprocess.STDOUT).returncode
        print(f"{label:<40} exit {code}  {time.perf_counter() - started:6.1f} s", flush=True)
    time.sleep(1.0)  # let orphaned workers write their last dump


def definitions():
    """Every def/class under src/repro, keyed ``file:firstline``."""
    units = {}

    def auto_reason(node):
        if isinstance(node, ast.ClassDef):
            return ""
        if node.name.startswith("__") and node.name.endswith("__"):
            return "dunder"
        decorators = {getattr(d, "id", getattr(d, "attr", "")) for d in node.decorator_list}
        body = [s for s in node.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
        stub = all(
            isinstance(s, ast.Pass) or (isinstance(s, ast.Raise) and "NotImplementedError" in ast.dump(s))
            for s in body
        )
        return "abstract" if "abstractmethod" in decorators or stub else ""

    def visit(node, rel, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, rel, prefix, parent)
                continue
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            is_class = isinstance(child, ast.ClassDef)
            key = f"{rel}:{first}"
            name = prefix + child.name
            lines = child.end_lineno - first + 1
            units[key] = Unit(rel, name, lines, parent, [], auto_reason(child), is_class)
            if parent is not None:
                units[parent].members.append(key)
            visit(child, rel, f"{name}." if is_class else f"{name}.<locals>.", key)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.relative_to(SRC).as_posix(), "", None)
    return units


def keep_reasons():
    """``reach_keep.txt``: "reason: pattern ...", continued on indented lines."""
    keep = {}
    why = ""
    for line in (ROOT / "tools" / "reach_keep.txt").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if not line[0].isspace():
            why, line = line.split(": ", 1)
        keep.setdefault(why, []).extend(line.split())
    return keep


def report(out_dir: Path) -> int:
    units = definitions()
    keep = keep_reasons()
    reached = set()
    for dump in out_dir.glob("*@*.json"):
        try:
            reached.update(json.loads(dump.read_text()))
        except ValueError as exc:
            raise SystemExit(f"unreadable reach dump {dump}: {exc}") from None
    functions = [key for key, unit in units.items() if not unit.is_class]

    @functools.lru_cache(maxsize=None)
    def dead(key):
        unit = units[key]
        if unit.is_class:
            # Never constructed: an own __init__ that never ran, and no method that did.
            has_init = any(units[k].name.endswith(".__init__") for k in unit.members)
            return has_init and all(map(dead, unit.members))
        return key not in reached

    def covered(key):
        # Inside an unreached definition that has its own row.
        parent = units[key].parent
        return parent is not None and (dead(parent) or covered(parent))

    def reason(unit):
        qualified = f"{unit.file}:{unit.name}"
        for why, patterns in keep.items():
            if any(fnmatch.fnmatchcase(qualified, pattern) for pattern in patterns):
                return why
        return unit.auto

    rows = [
        (unit.file, unit.name + " (class)" * unit.is_class, unit.lines, reason(unit))
        for key, unit in units.items()
        if dead(key) and not covered(key)
    ]
    print(f"\n{'file':<28} {'unreached definition':<48} {'lines':>5}  keep")
    for rel, name, lines, why in sorted(rows):
        print(f"{rel:<28} {name:<48} {lines:>5}  {why or '-'}")
    loose = [row for row in rows if not row[3]]
    print(
        f"\nreached {sum(key in reached for key in functions)} of {len(functions)} functions; "
        f"unreached {len(rows)} definitions ({sum(row[2] for row in rows)} lines), "
        f"{len(loose)} without a keep reason ({sum(row[2] for row in loose)} lines)"
    )
    return 1 if loose else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dumps", nargs="?", help="keep the per-process dumps here; reuse them if present")
    args = parser.parse_args(argv)
    out_dir = Path(args.dumps or tempfile.mkdtemp(prefix="reach-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    if not any(out_dir.glob("*@*.json")):
        run(out_dir)
    return report(out_dir)


if __name__ == "__main__":
    sys.exit(main())
