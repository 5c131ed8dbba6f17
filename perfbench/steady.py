"""Steadiness check: two sets of runs of every workload, against the bounds.

Usage, from the repository root::

    python3 perfbench/steady.py                      # 2 sets x 10 runs each
    python3 perfbench/steady.py --runs 5 --workload svc-bulk

Each run is ``perfbench/run.py`` in a fresh process with its own seed. For
every workload and end-to-end metric this prints each set's median and
quartiles, the spread (interquartile distance over the median), and the
gap between the two sets' medians in the metric's worse direction, next to
the bound ``BENCHMARK.json`` gives it. The spread of ``setup_s`` is shown
but not held to its bound; the share of failed operations must be the
same in both sets. Exits 1 when any of this does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Sets of runs compared, and the first set's first seed; set ``s`` (from
#: 0) uses seeds ``SEED_BASE + 1000 s`` onward.
SETS = 2
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                           timeout=600)
    # Code 1 is a run that printed its result but failed a check.
    if child.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(command)} exited {child.returncode}:\n"
                           f"{child.stderr[-2000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(bench: dict, results: dict) -> bool:
    """Print the spread table; True when every figure is within bounds."""
    ok = True
    for workload, sets in results.items():
        print(f"\n== {workload}  ({len(sets[0])} runs per set)")
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in sets
        ]
        if len(set(shares)) != 1:
            ok = False
        print(f"   failed share per set: {shares}")
        print(f"   {'metric':<26} {'set':>3} {'q1':>11} {'median':>11} "
              f"{'q3':>11} {'spread':>7} {'gap':>7} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if any(name not in r["metrics"] for runs in sets for r in runs):
                print(f"   {name:<26} missing from some runs  MISSING")
                ok = False
                continue
            medians = []
            for number, runs in enumerate(sets, start=1):
                q1, median, q3 = summarize(
                    [r["metrics"][name]["value"] for r in runs])
                medians.append(median)
                spread = (q3 - q1) / median
                gap = ""
                verdict = "ok"
                if spread > metric["bound"] and name != "setup_s":
                    verdict = "SPREAD"
                if number > 1:
                    change = (medians[-1] - medians[0]) / medians[0]
                    worse = change if metric["better"] == "lower" else -change
                    gap = f"{worse:+.1%}"
                    if worse > metric["bound"]:
                        verdict = "GAP" if verdict == "ok" else verdict + "+GAP"
                if verdict != "ok":
                    ok = False
                print(f"   {name:<26} {number:>3} {q1:>11.5g} {median:>11.5g} "
                      f"{q3:>11.5g} {spread:>7.1%} {gap:>7} "
                      f"{metric['bound']:>6.0%}  {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append",
        help="limit to this workload (repeatable); any workload run.py "
             "knows, not only those in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    chosen = args.workload or workloads
    results: dict[str, list[list[dict]]] = {
        workload: [[] for _ in range(SETS)] for workload in chosen
    }
    for set_index in range(SETS):
        for run in range(args.runs):
            seed = SEED_BASE + 1000 * set_index + run
            for workload in chosen:
                result = run_once(workload, seed, args.seconds, 0)
                results[workload][set_index].append(result)
                print(f"set {set_index + 1} run {run + 1} {workload} seed "
                      f"{seed}: correct={result['correct']}", flush=True)
                if not result["correct"]:
                    print(f"   incorrect result: {result}", flush=True)
    ok = report(bench, results)
    print("\nsteady: " + ("OK" if ok else "NOT STEADY"))
    return 0 if ok and all(
        r["correct"] for sets in results.values() for runs in sets for r in runs
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
