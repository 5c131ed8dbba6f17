"""E15 — the TCP service in the loop: loopback throughput + accounting.

The protocol/transport split promises that moving ABD from the simulated
network onto real asyncio TCP sockets changes *performance*, not
*semantics*. This bench drives a loopback cluster (real frames, real
kernel TCP stack, journals on disk) and checks both halves:

* **Semantics** — the live Definition-2 at-rest charge equals the
  simulated deployment's at equal ``(f, D)`` (``(2f+1) D`` bits for
  replication), reads return the freshest acknowledged write, and the
  recorded history passes the strong-regularity checker.
* **Performance** — sequential write and read throughput over loopback
  TCP (each write is two quorum round-trips carrying a full replica
  block; each read is one), at D = 16 B (operations per second) and at
  D = 64 KiB (MB/s, where the wire codec and the journal carry the
  bytes), summarised in ``benchmarks/results/BENCH_service_loopback.json``
  and gated against the committed baseline by
  ``scripts/check_bench_regression.py``.

Two entry points:

* ``pytest benchmarks/bench_service_loopback.py`` — the semantic
  assertions on a small workload;
* ``python benchmarks/bench_service_loopback.py [--quick]`` — the timed
  run (quick: 60 writes + 60 reads at 16 B, 40 + 40 at 64 KiB; full:
  400 + 400 at each size).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import tempfile
import time

from repro.analysis import format_table
from repro.analysis.benchgate import metric, write_bench_summary
from repro.msgnet import MsgABDSystem
from repro.service import LoopbackCluster, merge_histories
from repro.spec import check_strong_regularity

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

F = 1
DATA = 16  # D = 128 bits
BULK = 64 * 1024  # the bulk point: D = 64 KiB


def value_of(index: int, size: int = DATA) -> bytes:
    return bytes([33 + index % 90]) * size


async def run_workload(writes: int, reads: int, size: int = DATA) -> dict:
    """Timed sequential writes then reads against a loopback cluster."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
        async with LoopbackCluster(F, size, tmp) as cluster:
            client = cluster.client("w0", timeout=10.0)

            started = time.perf_counter()
            for index in range(writes):
                await client.write(value_of(index, size))
            write_s = time.perf_counter() - started

            started = time.perf_counter()
            last = None
            for _ in range(reads):
                last = await client.read()
            read_s = time.perf_counter() - started

            at_rest_bits = cluster.server_storage_bits()
            history = client.history()
            await client.close()

    sim = MsgABDSystem(f=F, data_size_bytes=size)
    sim.add_writer("w0", value_of(0, size))
    sim.run()

    return {
        "size": size,
        "writes": writes,
        "reads": reads,
        "write_s": write_s,
        "read_s": read_s,
        "writes_per_s": writes / write_s,
        "reads_per_s": reads / read_s,
        "write_mb_per_s": writes * size / write_s / 1e6,
        "read_mb_per_s": reads * size / read_s / 1e6,
        "last_read": last,
        "at_rest_bits": at_rest_bits,
        "sim_at_rest_bits": sim.server_storage_bits(),
        "regular": check_strong_regularity(history).ok,
    }


def check(payload: dict) -> None:
    """The semantic half — asserted in every mode."""
    size = payload["size"]
    assert payload["last_read"] == value_of(payload["writes"] - 1, size)
    assert payload["at_rest_bits"] == payload["sim_at_rest_bits"] \
        == (2 * F + 1) * size * 8
    assert payload["regular"]


def render(*payloads: dict) -> str:
    rows = [
        [f"{op} ({rtt} quorum RTT)", p["size"], p[f"{op}s"],
         f"{p[f'{op}s_per_s']:.0f} ops/s", f"{p[f'{op}_mb_per_s']:.2f} MB/s"]
        for p in payloads for op, rtt in (("write", 2), ("read", 1))
    ]
    table = format_table(
        ["operation", "D (bytes)", "count", "loopback throughput", "MB/s"],
        rows,
    )
    storage = "; ".join(
        f"D={p['size']}: {p['at_rest_bits']} bits "
        f"(== simulated deployment: {p['sim_at_rest_bits']})"
        for p in payloads
    )
    return (
        f"E15: loopback TCP service — f={F}, "
        f"n={2 * F + 1} in-loop servers\n\n{table}\n\n"
        f"at-rest storage: {storage}; histories strongly regular"
    )


def test_loopback_service(benchmark, record_table):
    payload = benchmark.pedantic(
        lambda: asyncio.run(run_workload(writes=12, reads=12)),
        rounds=1, iterations=1,
    )
    check(payload)
    record_table("e15_service_loopback", render(payload))


def test_history_across_clients(record_table):
    async def two_clients() -> bool:
        with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
            async with LoopbackCluster(F, DATA, tmp) as cluster:
                writer = cluster.client("w0")
                reader = cluster.client("r0")
                await asyncio.gather(
                    *(writer.write(value_of(i)) for i in range(1)),
                    reader.read(),
                )
                history = merge_histories([writer, reader])
                await writer.close()
                await reader.close()
        return check_strong_regularity(history).ok

    assert asyncio.run(two_clients())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small op counts (CI smoke run)",
    )
    args = parser.parse_args(argv)
    writes, reads = (60, 60) if args.quick else (400, 400)
    bulk_ops = 40 if args.quick else 400
    payload = asyncio.run(run_workload(writes, reads))
    bulk = asyncio.run(run_workload(bulk_ops, bulk_ops, BULK))
    for point in (payload, bulk):
        check(point)

    text = render(payload, bulk)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "_quick" if args.quick else ""
    out = [
        {key: value for key, value in point.items() if key != "last_read"}
        for point in (payload, bulk)  # bytes: not JSON, asserted above
    ]
    (RESULTS_DIR / f"e15_service_loopback{suffix}.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n"
    )
    (RESULTS_DIR / f"e15_service_loopback{suffix}.txt").write_text(
        text + "\n"
    )
    write_bench_summary(
        "service_loopback",
        {
            "writes_per_s": metric(
                round(payload["writes_per_s"], 1), "ops/s"
            ),
            "reads_per_s": metric(
                round(payload["reads_per_s"], 1), "ops/s"
            ),
            "bulk_write_mb_per_s": metric(
                round(bulk["write_mb_per_s"], 2), "MB/s"
            ),
            "bulk_read_mb_per_s": metric(
                round(bulk["read_mb_per_s"], 2), "MB/s"
            ),
        },
        RESULTS_DIR,
        quick=args.quick,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
