"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload svc-bulk --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1            # all four, one process each

Every run prints a report (each metric with its unit, the attempted and
failed operation counts, the seed and a host stamp), then, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs half the
time traced and half untraced and measures the per-layer metrics and the
tracing overhead instead. The report shows every metric the workload
measured; the JSON line holds those that ``BENCHMARK.json`` names for the
mode (``end_to_end`` or ``per_layer``), and a named metric the run did not
measure is a failed check. A run exits with code 1 when a check fails or
an operation failed (it still prints its result), and with code 2,
printing no result, when the program is not in ``src/`` next to this
directory or ``BENCHMARK.json`` is not in the directory above this one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 3
#: Bound on one setup sample; a slower one is a failed run.
SETUP_TIMEOUT_S = 120


def _import_program() -> str | None:
    """Import the program from the checkout's ``src``; an error, or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program at {SRC / 'repro'}"
    # This directory comes off the path so its modules never shadow others.
    sys.path[:] = [str(SRC), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


def host_stamp() -> str:
    import numpy

    from repro.coding.backends import get_backend

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} backend={get_backend().name}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_setup(args: argparse.Namespace, work_dir: Path) -> tuple[float, list[str]]:
    """Median wall time of fresh processes doing the workload's set-up."""
    samples, problems = [], []
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed),
               "--setup-sample", str(work_dir)]
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - started)
        if child.returncode != 0:
            problems.append(f"setup sample exited {child.returncode}: "
                            f"{child.stderr.strip()[-400:]}")
    return statistics.median(samples), problems


def manifest_metrics(trace: int) -> list[str]:
    """Names of the metrics ``BENCHMARK.json`` gates in this mode."""
    manifest = json.loads(MANIFEST.read_text())
    return [metric["name"]
            for metric in manifest["per_layer" if trace else "end_to_end"]]


def run_workload(args: argparse.Namespace) -> int:
    """One workload in this process; 1 when a check or an operation failed.

    No failure is expected. A phase with a failed operation is the last
    one, and the run skips the end-state checks and metrics, since they
    would read a state the failure left unknown.
    """
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    metrics: dict[str, tuple[float, str]] = {}
    try:
        workload.prepare()
        if args.trace:
            # Traced first, so the traced restart recovers over the same
            # prior history as an untraced set-up; then untraced, after a
            # restart that rebinds every traced function.
            tracer = Tracer()
            workload.install(tracer)
            try:
                workload.open(tracer)
                traced = workload.measure(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = [traced]
            if not traced.failed:
                workload.open()
                untraced = workload.measure(args.seconds / 2)
                phases.append(untraced)
                metrics.update(workload.layer_metrics(tracer, traced))
                metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s, "1/s")
                metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
                metrics["trace.slowdown"] = (
                    (traced.cpu_s / traced.ops) / (untraced.cpu_s / untraced.ops),
                    "x")
            trace_file = tracer.dump(
                HERE / "_work" / "traces" / f"{args.workload}-seed{args.seed}.npz")
            absent = tracer.absent
        else:
            setup_s, problems = time_setup(args, work_dir)
            workload.problems += problems
            workload.open()
            timed = workload.measure(args.seconds)
            phases = [timed]
            metrics["setup_s"] = (setup_s, "s")
            metrics["ops_per_s"] = (timed.ops_per_s, "1/s")
            metrics.update(workload.end_to_end(timed))
        failed = sum(phase.failed for phase in phases)
        if not failed:
            finished = workload.finish()
            if not args.trace:
                metrics.update(finished)
                metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(phase.ops + phase.failed for phase in phases)
    gated = manifest_metrics(args.trace)
    workload.problems += [f"metric {name} was not measured"
                          for name in gated if name not in metrics]
    correct = not workload.problems
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host: {host_stamp()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if args.trace:
        print(f"spans: {len(tracer.starts)} written to "
              f"{trace_file.relative_to(ROOT)}")
        for target in absent:
            print(f"absent layer: {target}")
    for phase in phases:
        if phase.failure:
            print(f"FAILED: {phase.failure}")
    for problem in workload.problems[:20]:
        print(f"PROBLEM: {problem}")
    print(f"attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in gated if name in metrics},
    }))
    return 0 if correct and not failed else 1


def setup_sample(args: argparse.Namespace) -> int:
    """One set-up in this fresh process (timed by the parent run)."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.setup_sample))
    try:
        problems = workload.setup_sample()
    finally:
        workload.close()
    for problem in problems:
        print(problem, file=sys.stderr)
    return 3 if problems else 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh process."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
        child = subprocess.run(command, cwd=ROOT)
        status = status or child.returncode
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", metavar="WORK_DIR",
                        help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = _import_program()
    if error is None and not MANIFEST.is_file():
        error = f"no {MANIFEST.name} at {ROOT}"
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.setup_sample:
        return setup_sample(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
