"""The repository's end-to-end benchmark (see ``perfbench/README.md``).

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/steady.py`` repeats
runs and reports their spread against the bounds in ``BENCHMARK.json``.
"""
