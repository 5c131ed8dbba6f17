"""The benchmark's four workloads.

Each workload drives the program only through its public entry points:
``repro.service.LoopbackCluster``/``ServiceClient`` for the TCP service,
``repro.analysis.run_sweep`` and ``run_keyspace_sweep`` (``workers=1``)
for the simulator. A run goes through the same steps on every workload:

1. ``prepare`` makes the inputs that are not timed (the service's prior
   history, written through the service itself);
2. ``setup_sample`` is what one fresh process does before its first timed
   operation; ``run.py`` times it in several child processes;
3. ``open`` brings the workload up in this process (restart over the
   prior history, or build the inputs) and runs an untimed warm-up;
4. ``measure`` runs whole rounds of a fixed shape until the time is up;
5. ``finish`` checks the end state and returns the exact metrics.

Every workload is closed-loop: a client sends its next request only after
the reply to the previous one.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.spans import Tracer, rebind

#: Crash budget of the service cluster: n = 2f + 1 = 3 replicas.
SERVICE_F = 1

#: Service figures come from whole windows of this length. The host's
#: speed drifts by up to a third for seconds at a time, and mostly upward,
#: so a run reports each figure at the slower quartile of its windows:
#: the 25th percentile of window throughputs and the 75th percentile of
#: the windows' latency percentiles.
WINDOW_S = 1.0


@dataclass
class Phase:
    """What one timed phase did."""

    #: Operations completed, and operations that failed.
    ops: int = 0
    failed: int = 0
    #: The first failure, as text.
    failure: str = ""
    ops_per_s: float = 0.0
    writes: int = 0
    wall_s: float = 0.0
    #: Process CPU time of the phase.
    cpu_s: float = 0.0
    #: Completed operations per second of each round or window.
    round_rates: list[float] = field(default_factory=list)
    #: Service operations: (return time in ns, latency in ms).
    write_ms: list[tuple[int, float]] = field(default_factory=list)
    read_ms: list[tuple[int, float]] = field(default_factory=list)
    started_ns: int = 0
    #: Span-index window of the phase when traced.
    spans: tuple[int, int] = (0, 0)
    resends: int = 0
    journal_bytes: int = 0
    records: list = field(default_factory=list)

    def windows(self, window_s: float) -> list[tuple[list[float], list[float]]]:
        """Write and read latencies of each whole ``window_s`` of the phase."""
        count = max(1, int(self.wall_s // window_s))
        windows = [([], []) for _ in range(count)]
        for column, samples in enumerate((self.write_ms, self.read_ms)):
            for returned, latency in samples:
                index = int((returned - self.started_ns) / 1e9 // window_s)
                if index < count:
                    windows[index][column].append(latency)
        return windows

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failure = self.failure or message


def _ms(seconds: float, per: int) -> float:
    return seconds * 1e3 / per


def role_metrics(
    roles: dict[str, tuple[str, ...]], totals: dict[str, tuple[int, float]],
    phase: Phase,
) -> dict[str, tuple[float, str]]:
    """The layer metrics every workload reports, one per role a layer plays.

    Both kinds of workload move messages between clients and base objects
    (``transport``), run the register algorithm's own steps (``protocol``)
    and keep the base objects' state (``state``); ``roles`` names the
    layers that play each role here. ``residual`` is the phase's wall time
    that no traced layer covers. Every figure is per completed operation.
    """
    def self_s(layers: tuple[str, ...]) -> float:
        return sum(totals.get(layer, (0, 0.0))[1] for layer in layers)

    metrics = {
        f"layer.{role}_ms_per_op": (_ms(self_s(layers), phase.ops), "ms")
        for role, layers in roles.items()
    }
    layered = sum(seconds for _calls, seconds in totals.values())
    metrics["layer.residual_ms_per_op"] = (
        _ms(phase.wall_s - layered, phase.ops), "ms")
    return metrics


def _start_trace(tracer: Tracer | None) -> int:
    """Open a timed phase's trace window: counters restart, spans marked."""
    if tracer is None:
        return 0
    tracer.counters.clear()
    return tracer.mark()


# ------------------------------------------------------------------ service


#: Service layers: (layer, function or method, optional tally).
SERVICE_LAYERS = (
    ("service.wire.encode", "repro.service.wire:encode_payload", "bytes"),
    ("service.wire.decode", "repro.service.wire:decode_payload", None),
    ("service.framing.write", "repro.service.framing:write_frame", None),
    ("service.journal.append", "repro.service.journal:ReplicaJournal.append",
     None),
    ("service.journal.load", "repro.service.journal:ReplicaJournal.load", None),
    ("msgnet.protocol.server", "repro.msgnet.protocol:ServerProtocol.handle",
     None),
    ("msgnet.protocol.client", "repro.msgnet.protocol:WriteOperation.start",
     None),
    ("msgnet.protocol.client",
     "repro.msgnet.protocol:WriteOperation.on_message", None),
    ("msgnet.protocol.client", "repro.msgnet.protocol:ReadOperation.start",
     None),
    ("msgnet.protocol.client",
     "repro.msgnet.protocol:ReadOperation.on_message", None),
)


class ServiceWorkload:
    """A 3-replica loopback TCP cluster restarted over a prior history.

    Write ``i`` (``i >= 1``) stores ``i`` as 8 big-endian bytes followed by
    a seed-derived filler, so every read names the write it returned and
    the value can be checked byte for byte; index 0 is the all-zero
    initial value.
    """

    name = ""
    roles = {
        "transport": ("service.wire.encode", "service.wire.decode",
                      "service.framing.write"),
        "protocol": ("msgnet.protocol.server", "msgnet.protocol.client"),
        "state": ("service.journal.append",),
    }
    data_size = 0
    history_writes = 0
    fillers = 1
    warmup_ops = 0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.state_dir = work_dir / "state"
        rng = np.random.default_rng(seed)
        self._fillers = [
            rng.bytes(self.data_size - 8) for _ in range(self.fillers)
        ]
        self.loop = asyncio.new_event_loop()
        self.cluster = None
        self.clients: list = []
        self.written = 0
        self.write_log: list[tuple[int, int, int]] = []
        self.read_log: list[tuple[int, int, int]] = []
        self.problems: list[str] = []
        self.recover_s: float | None = None
        #: Largest replica bits seen at any timed operation's return.
        self.peak_bits = 0

    # ----------------------------------------------------------- values

    def value(self, index: int) -> bytes:
        return index.to_bytes(8, "big") + self._fillers[index % self.fillers]

    def index_of(self, value: bytes) -> int:
        index = int.from_bytes(value[:8], "big")
        if index == 0:
            return 0 if value == bytes(self.data_size) else -1
        return index if value == self.value(index) else -1

    # A timed operation that times out waiting for its quorum is counted as
    # failed and ends the phase: whether it took effect is unknown, so no
    # later read could be checked against it.

    async def _write(self, client, phase: Phase | None = None) -> None:
        from repro.errors import QuorumTimeout

        index = self.written + 1
        invoked = time.monotonic_ns()
        try:
            await client.write(self.value(index))
        except QuorumTimeout as error:
            if phase is None:
                raise
            phase.fail(f"write {index}: {error}")
            return
        returned = time.monotonic_ns()
        self.written = index
        self.write_log.append((index, invoked, returned))
        if phase is not None:
            self._sample_storage()
            phase.ops += 1
            phase.writes += 1
            phase.write_ms.append((returned, (returned - invoked) / 1e6))

    async def _read(self, client, phase: Phase | None = None) -> None:
        from repro.errors import QuorumTimeout

        invoked = time.monotonic_ns()
        try:
            value = await client.read()
        except QuorumTimeout as error:
            if phase is None:
                raise
            phase.fail(f"read: {error}")
            return
        returned = time.monotonic_ns()
        self.read_log.append((self.index_of(value), invoked, returned))
        if phase is not None:
            self._sample_storage()
            phase.ops += 1
            phase.read_ms.append((returned, (returned - invoked) / 1e6))

    def _sample_storage(self) -> None:
        self.peak_bits = max(self.peak_bits, self.cluster.server_storage_bits())

    # --------------------------------------------------------- lifecycle

    def _new_cluster(self):
        from repro.service import LoopbackCluster

        return LoopbackCluster(SERVICE_F, self.data_size, self.state_dir)

    def prepare(self) -> None:
        """Write the prior history through a fresh cluster, then stop it."""
        shutil.rmtree(self.state_dir, ignore_errors=True)

        async def history() -> None:
            cluster = self._new_cluster()
            await cluster.start()
            client = cluster.client("h")
            await client.connect()
            for _ in range(self.history_writes):
                await self._write(client)
            await client.close()
            await cluster.drain()

        self.loop.run_until_complete(history())

    def setup_sample(self) -> list[str]:
        """Restart over the prior history and serve the first read."""

        async def restart() -> list[str]:
            cluster = self._new_cluster()
            await cluster.start()
            client = cluster.client("probe")
            await client.connect()
            value = await client.read()
            await client.close()
            await cluster.drain()
            if self.index_of(value) != self.history_writes:
                return [f"first read after restart returned write "
                        f"{self.index_of(value)}, expected the last prior "
                        f"write {self.history_writes}"]
            return []

        return self.loop.run_until_complete(restart())

    def open(self, tracer: Tracer | None = None) -> None:
        """(Re)start the cluster, serve the first read, warm up."""
        self.loop.run_until_complete(self._open(tracer))

    async def _open(self, tracer: Tracer | None) -> None:
        await self._stop()
        mark = tracer.mark() if tracer is not None else 0
        self.cluster = self._new_cluster()
        await self.cluster.start()
        if tracer is not None:
            totals = tracer.layer_totals(since=mark)
            self.recover_s = totals.get("service.journal.load", (0, 0.0))[1]
        self.clients = [self.cluster.client(name) for name in self.client_names]
        for client in self.clients:
            await client.connect()
        # The first read of the reader must see the last acknowledged write.
        await self._read(self.clients[-1])
        await self._warm_up()
        await asyncio.sleep(0.05)  # trailing third-replica replies

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.cluster is not None:
            await self.cluster.drain()
            self.cluster = None

    def _journal_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.state_dir.glob("*.jsonl"))

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        phase = Phase()
        resent_before = sum(c.stats.resent_messages for c in self.clients)
        journal_before = self._journal_bytes()
        gc.collect()
        start_span = _start_trace(tracer)
        cpu_started = time.process_time()
        phase.started_ns = time.monotonic_ns()
        rounds = max(1, round(seconds * self.rounds_per_s))
        self.loop.run_until_complete(self._timed(rounds, phase))
        phase.wall_s = (time.monotonic_ns() - phase.started_ns) / 1e9
        phase.cpu_s = time.process_time() - cpu_started
        phase.round_rates = [
            (len(writes) + len(reads)) / WINDOW_S
            for writes, reads in phase.windows(WINDOW_S)
        ]
        phase.ops_per_s = float(np.percentile(phase.round_rates, 25))
        # Let the slowest replica's replies to the last operation land, so
        # per-operation counts cover whole operations.
        self.loop.run_until_complete(asyncio.sleep(0.05))
        phase.spans = (start_span, tracer.mark() if tracer is not None else 0)
        phase.resends = sum(c.stats.resent_messages for c in self.clients) \
            - resent_before
        phase.journal_bytes = self._journal_bytes() - journal_before
        return phase

    def finish(self) -> dict[str, tuple[float, str]]:
        at_rest = self.cluster.server_storage_bits()
        self.problems += checks.check_at_rest_bits(
            at_rest, SERVICE_F, self.data_size
        )
        self.loop.run_until_complete(self._stop())
        self.problems += checks.check_single_writer_reads(
            self.write_log, self.read_log
        )
        disk = sum(
            path.stat().st_size for path in self.state_dir.rglob("*")
            if path.is_file()
        )
        data_bits = 8 * self.data_size
        return {
            # One writer, so the floor is at c = 1.
            "peak_bits_per_floor_bit": (
                self.peak_bits / checks.theorem1_floor_bits(
                    SERVICE_F, 1, data_bits), "bit/bit"),
            "settled_bits_per_data_bit": (at_rest / data_bits, "bit/bit"),
            "disk_bytes_per_user_byte": (
                disk / (self.written * self.data_size), "B/B"
            ),
        }

    def end_to_end(self, phase: Phase) -> dict[str, tuple[float, str]]:
        metrics = {}
        windows = phase.windows(WINDOW_S)
        for column, kind in enumerate(("write", "read")):
            for q in (50, 90):
                per_window = [np.percentile(window[column], q)
                              for window in windows if window[column]]
                metrics[f"{kind}_p{q}_ms"] = (
                    float(np.percentile(per_window, 75)), "ms")
        return metrics

    def close(self) -> None:
        if not self.loop.is_closed():
            self.loop.run_until_complete(self._stop())
            self.loop.close()

    # ------------------------------------------------------------ tracing

    def install(self, tracer: Tracer) -> None:
        def tally_bytes(_args, result):
            tracer.count("service.wire.bytes", len(result))

        for layer, target, tally in SERVICE_LAYERS:
            tracer.patch(layer, target, tally_bytes if tally else None)

    def layer_metrics(
        self, tracer: Tracer, phase: Phase
    ) -> dict[str, tuple[float, str]]:
        totals = tracer.layer_totals(*phase.spans)
        ops, writes = phase.ops, phase.writes
        present = {layer for layer, (calls, _s) in totals.items() if calls}
        metrics: dict[str, tuple[float, str]] = {}

        def self_s(layer: str) -> float:
            return totals.get(layer, (0, 0.0))[1]

        if "service.wire.encode" in present:
            metrics["service.wire.encode_ms_per_op"] = (
                _ms(self_s("service.wire.encode"), ops), "ms")
            metrics["service.wire.bytes_per_op"] = (
                tracer.counters.get("service.wire.bytes", 0.0) / ops, "B")
        if "service.wire.decode" in present:
            metrics["service.wire.decode_ms_per_op"] = (
                _ms(self_s("service.wire.decode"), ops), "ms")
        if "service.framing.write" in present:
            metrics["service.framing.frames_per_op"] = (
                totals["service.framing.write"][0] / ops, "count")
            metrics["service.framing.write_ms_per_op"] = (
                _ms(self_s("service.framing.write"), ops), "ms")
        if "service.journal.append" in present:
            metrics["service.journal.append_ms_per_write"] = (
                _ms(self_s("service.journal.append"), writes), "ms")
        metrics["service.journal.bytes_per_write"] = (
            phase.journal_bytes / writes, "B")
        if self.recover_s:
            metrics["service.journal.recover_s"] = (self.recover_s, "s")
        if "msgnet.protocol.server" in present:
            metrics["msgnet.protocol.server_ms_per_op"] = (
                _ms(self_s("msgnet.protocol.server"), ops), "ms")
        if "msgnet.protocol.client" in present:
            metrics["msgnet.protocol.client_ms_per_op"] = (
                _ms(self_s("msgnet.protocol.client"), ops), "ms")
        metrics["service.client.resends_per_op"] = (phase.resends / ops, "count")
        metrics.update(role_metrics(self.roles, totals, phase))
        return metrics


class SvcBulk(ServiceWorkload):
    """One client alternating 64 KiB writes and reads."""

    name = "svc-bulk"
    data_size = 64 * 1024
    history_writes = 300
    fillers = 64
    warmup_ops = 40
    client_names = ("c0",)
    #: Write-read pairs per second of ``--seconds`` (about the reference
    #: host's rate, so a run lasts about that long there).
    rounds_per_s = 95

    async def _warm_up(self) -> None:
        for _ in range(self.warmup_ops // 2):
            await self._write(self.clients[0])
            await self._read(self.clients[0])

    async def _timed(self, rounds: int, phase: Phase) -> None:
        client = self.clients[0]
        for _ in range(rounds):
            for operation in (self._write, self._read):
                if phase.failed:
                    return
                await operation(client, phase)


class SvcSmall(ServiceWorkload):
    """One writer and one reader running concurrently at 16 B values."""

    name = "svc-small"
    data_size = 16
    history_writes = 2000
    fillers = 1
    warmup_ops = 200
    client_names = ("writer", "reader")
    #: Writes per second of ``--seconds``; the reader reads until the
    #: writer is done.
    rounds_per_s = 530

    async def _warm_up(self) -> None:
        writer, reader = self.clients
        for _ in range(self.warmup_ops // 2):
            await self._write(writer)
            await self._read(reader)

    async def _timed(self, rounds: int, phase: Phase) -> None:
        writer, reader = self.clients
        writing = True

        async def write_all() -> None:
            nonlocal writing
            for _ in range(rounds):
                if phase.failed:
                    break
                await self._write(writer, phase)
            writing = False

        async def read_while_writing() -> None:
            while writing and not phase.failed:
                await self._read(reader, phase)

        await asyncio.gather(write_all(), read_while_writing())


# -------------------------------------------------------------- simulator


SIM_LAYERS = (
    ("workloads.make_value", "repro.workloads.generators:make_value"),
    ("storage.ledger", "repro.storage.cost:StorageLedger.on_trigger"),
    ("storage.ledger", "repro.storage.cost:StorageLedger.on_apply"),
    ("storage.ledger", "repro.storage.cost:StorageLedger.on_deliver"),
    ("storage.ledger", "repro.storage.cost:StorageLedger.on_bo_crash"),
    ("storage.tracker", "repro.storage.cost:PeakTracker.__call__"),
    ("sim.scheduler", "repro.sim.schedulers:FairScheduler.next_action"),
    ("sim.scheduler", "repro.sim.failures:FailurePlan.next_action"),
    ("sim.kernel", "repro.sim.kernel:Simulation.run"),
    ("registers.step", "repro.sim.kernel:Simulation.step_client"),
    ("sim.build", "repro.sim.kernel:Simulation.__init__"),
    ("sim.build", "repro.sim.kernel:Simulation.add_client"),
    ("sim.build", "repro.registers.base:RegisterProtocol.__init__"),
    ("sim.build", "repro.registers.abd:ABDRegister.__init__"),
    ("coding.gf", "repro.coding.gf256:gf_matmul"),
)

#: Keyspace-only layers (the popularity vector and key routing).
KEYSPACE_LAYERS = (
    ("keyspace.popularity", "repro.workloads.generators:skew_weights"),
    ("keyspace.popularity", "repro.workloads.generators:cumulative_weights"),
    ("keyspace.route", "repro.workloads.generators:sample_keys"),
    ("keyspace.route", "repro.keyspace.hashing:HashRing.shard_of"),
)


class SimWorkload:
    """A serial sweep (``workers=1``) repeated in identical rounds."""

    name = ""
    layers = SIM_LAYERS
    roles = {
        "transport": ("sim.scheduler", "sim.kernel"),
        "protocol": ("registers.step",),
        "state": ("storage.ledger", "storage.tracker"),
    }

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.problems: list[str] = []
        self.last_records: list = []
        self.untraced_cell_ms: list[float] = []

    def prepare(self) -> None:
        pass

    def setup_sample(self) -> list[str]:
        self.open()
        return self.problems

    def open(self, tracer: Tracer | None = None) -> None:
        self.build_inputs()
        self.warm_up()

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        phase = Phase()
        start_span = _start_trace(tracer)
        cpu_started = time.process_time()
        for _ in range(max(1, round(seconds / self.round_s))):
            gc.collect()
            round_started = time.perf_counter()
            records, issued = self.run_round()
            elapsed = time.perf_counter() - round_started
            phase.wall_s += elapsed
            completed = sum(r.completed_writes + r.completed_reads
                            for r in records)
            phase.ops += completed
            if completed < issued:
                phase.fail(f"{issued - completed} of {issued} operations "
                           "did not complete", issued - completed)
            phase.round_rates.append(completed / elapsed)
            phase.records = records
        phase.cpu_s = time.process_time() - cpu_started
        phase.ops_per_s = statistics.median(phase.round_rates)
        phase.spans = (start_span, tracer.mark() if tracer is not None else 0)
        if tracer is None:
            self.untraced_cell_ms = [r.wall_clock_s * 1e3 for r in records]
        self.last_records = records
        return phase

    def finish(self) -> dict[str, tuple[float, str]]:
        records = self.last_records
        return {
            "peak_bits_per_floor_bit": (
                self.peak_bits(records) / self.floor_bits(records), "bit/bit"),
            "settled_bits_per_data_bit": (
                self.settled_bits(records) / self.data_bits(records),
                "bit/bit"),
        }

    def end_to_end(self, phase: Phase) -> dict[str, tuple[float, str]]:
        return {}

    def close(self) -> None:
        pass

    # ------------------------------------------------------------ tracing

    def install(self, tracer: Tracer) -> None:
        def tally_gf(args, result):
            tracer.count("coding.gf.bytes",
                         args[0].nbytes + args[1].nbytes + result.nbytes)

        def tally_runs(_args, _result):
            tracer.count("sim.runs", 1)

        tallies = {
            "repro.coding.gf256:gf_matmul": tally_gf,
            "repro.sim.kernel:Simulation.__init__": tally_runs,
        }
        for layer, target in self.layers:
            tracer.patch(layer, target, tallies.get(target))

        def counting_decode(original):
            def decode(cache, blocks):
                hits = cache.hits
                value = original(cache, blocks)
                tracer.count("coding.decode_cache.lookups", 1)
                tracer.count("coding.decode_cache.hits", cache.hits - hits)
                return value
            return decode

        tracer.hook("repro.coding.oracles:DecodeShareCache.decode",
                    counting_decode)

    def layer_metrics(
        self, tracer: Tracer, phase: Phase
    ) -> dict[str, tuple[float, str]]:
        totals = tracer.layer_totals(*phase.spans)
        ops = phase.ops
        present = {layer for layer, (calls, _s) in totals.items() if calls}
        metrics: dict[str, tuple[float, str]] = {}
        per_op = {
            "workloads.make_value": "workloads.make_value_ms_per_op",
            "storage.ledger": "storage.ledger_ms_per_op",
            "storage.tracker": "storage.tracker_ms_per_op",
            "sim.scheduler": "sim.scheduler_ms_per_op",
            "sim.kernel": "sim.kernel_ms_per_op",
            "registers.step": "registers.step_ms_per_op",
            "coding.gf": "coding.gf_ms_per_op",
            "keyspace.route": "keyspace.route_ms_per_op",
        }
        for layer, metric in per_op.items():
            if layer in present:
                metrics[metric] = (_ms(totals[layer][1], ops), "ms")
        rounds_traced = len(phase.round_rates)
        runs = tracer.counters.get("sim.runs", 0.0)
        if runs:
            metrics["sim.runs"] = (runs / rounds_traced, "count")
            metrics["sim.build_ms_per_run"] = (
                _ms(totals["sim.build"][1], int(runs)), "ms")
        if "coding.gf" in present:
            metrics["coding.gf_bytes_per_op"] = (
                tracer.counters.get("coding.gf.bytes", 0.0) / ops, "B")
        lookups = tracer.counters.get("coding.decode_cache.lookups", 0.0)
        if lookups:
            metrics["coding.decode_cache_hit_ratio"] = (
                tracer.counters["coding.decode_cache.hits"] / lookups, "ratio")
        if "keyspace.popularity" in present:
            cells = len(phase.records) * rounds_traced
            metrics["keyspace.popularity_ms_per_cell"] = (
                _ms(totals["keyspace.popularity"][1], cells), "ms")
        records = phase.records
        metrics["sim.actions_per_op"] = (
            sum(r.steps for r in records)
            / sum(r.completed_writes + r.completed_reads for r in records),
            "count")
        if self.untraced_cell_ms:
            metrics["analysis.cell_ms_p50"] = (
                statistics.median(self.untraced_cell_ms), "ms")
        metrics.update(role_metrics(self.roles, totals, phase))
        return metrics


class SweepBulk(SimWorkload):
    """Five registers at f=2, k=4, c = 1..8, D = 64 KiB, two scenarios."""

    name = "sweep-bulk"
    round_s = 3.6  # one round's length on the reference host
    registers = ("abd", "cas", "safe", "coded-only", "adaptive")
    f, k, data_size = 2, 4, 64 * 1024
    concurrencies = tuple(range(1, 9))
    readers = 2
    churn_waves = 2

    def build_inputs(self) -> None:
        from repro.analysis import Scenario, SweepGrid

        self.grid = SweepGrid.cartesian(
            registers=self.registers, fs=[self.f], ks=[self.k],
            cs=self.concurrencies, data_sizes=[self.data_size], seed=self.seed,
        )
        self.scenarios = (
            Scenario("burst", readers=self.readers),
            Scenario("churn", pattern="churn", ops_per_client=self.churn_waves,
                     bo_crashes=self.f),
        )

    def warm_up(self) -> None:
        from repro.analysis import SweepGrid, run_sweep

        grid = SweepGrid.cartesian(
            registers=["adaptive"], fs=[self.f], ks=[self.k], cs=[2],
            data_sizes=[self.data_size], seed=self.seed,
        )
        run_sweep(grid, scenarios=self.scenarios, workers=1)

    def issued(self, record) -> tuple[int, int]:
        """(writes, reads) the cell's scenario issues at its c."""
        if record.scenario == "burst":
            return record.c, self.readers
        return self.churn_waves * record.c, self.churn_waves * record.c

    def run_round(self) -> tuple[list, int]:
        from repro.analysis import run_sweep

        result = run_sweep(self.grid, scenarios=self.scenarios, workers=1)
        records = result.records
        issued_total = 0
        for r in records:
            where = f"{r.scenario}/{r.register} c={r.c}"
            writes, reads = self.issued(r)
            issued_total += writes + reads
            self.problems += checks.check_completed(
                where, writes + reads, r.completed_writes + r.completed_reads)
            self.problems += checks.check_floor(
                where, r.register, r.peak_storage_bits, r.f, r.c, r.data_bits)
            self.problems += checks.check_adaptive_settled(
                where, r.register, r.final_bo_state_bits, r.f, r.k, r.c,
                r.data_bits)
            if r.register == "abd":
                self.problems += checks.check_abd_settled(
                    where, r.final_bo_state_bits, 2 * r.f + 1 - r.bo_crashes,
                    r.data_bits)
        if len(records) != len(self.grid) * len(self.scenarios):
            self.problems.append(f"{len(records)} records for "
                                 f"{len(self.grid) * len(self.scenarios)} cells")
        return records, issued_total

    @staticmethod
    def peak_bits(records) -> int:
        return sum(r.peak_storage_bits for r in records)

    @staticmethod
    def floor_bits(records) -> int:
        return sum(checks.theorem1_floor_bits(r.f, r.c, r.data_bits)
                   for r in records)

    @staticmethod
    def settled_bits(records) -> int:
        return sum(r.final_bo_state_bits for r in records)

    @staticmethod
    def data_bits(records) -> int:
        return sum(r.data_bits for r in records)


class KeyspaceHot(SimWorkload):
    """A million keys on 128 shards under hot-key skew, 16 B values."""

    name = "keyspace-hot"
    round_s = 13.5
    layers = SIM_LAYERS + KEYSPACE_LAYERS
    registers = ("adaptive", "coded-only")
    shape = dict(keys=(1_000_000,), shards=(128,), f=1, k=2,
                 data_size_bytes=16, waves=8, wave_size=384,
                 reads_per_wave=64, hot_keys=8, hot_weight=0.9)

    def build_inputs(self) -> None:
        from repro.analysis import keyspace_grid

        self.specs = keyspace_grid(
            skews=("hotspot",), registers=self.registers, seed=self.seed,
            **self.shape,
        )

    def warm_up(self) -> None:
        from repro.analysis import keyspace_grid, run_keyspace_sweep

        small = dict(self.shape, keys=(10_000,), shards=(8,), waves=1,
                     wave_size=48, reads_per_wave=8)
        run_keyspace_sweep(
            keyspace_grid(skews=("hotspot",), registers=self.registers,
                          seed=self.seed, **small),
            workers=1,
        )

    def run_round(self) -> tuple[list, int]:
        from repro.analysis import run_keyspace_sweep
        from repro.keyspace import run_keyspace

        captured = []

        def capture(spec, **kwargs):
            outcome = run_keyspace(spec, **kwargs)
            captured.append(outcome)
            return outcome

        changed = rebind(run_keyspace, capture)
        try:
            result = run_keyspace_sweep(self.specs, workers=1)
        finally:
            for module, attr in changed:
                setattr(module, attr, run_keyspace)
        records = result.records
        issued_total = 0
        for spec, r in zip(self.specs, records):
            issued_total += spec.waves * (spec.wave_size + spec.reads_per_wave)
            self.problems += checks.check_completed(
                r.register, spec.waves * (spec.wave_size + spec.reads_per_wave),
                r.completed_writes + r.completed_reads)
        if len(captured) == len(records):
            for outcome in captured:
                self.problems += self.check_shards(outcome)
        else:
            self.problems.append(
                f"captured {len(captured)} keyspace runs for {len(records)} "
                "records, so the per-shard checks could not run")
        self.outcomes = captured
        by_register = {r.register: r for r in records}
        self.problems += checks.check_adaptive_below_coded(
            by_register["adaptive"].aggregate_peak_bo_state_bits,
            by_register["coded-only"].aggregate_peak_bo_state_bits,
        )
        return records, issued_total

    @staticmethod
    def check_shards(outcome) -> list[str]:
        spec = outcome.spec
        problems = []
        for stats in outcome.shard_stats:
            if not stats.waves_active:
                continue
            where = f"{spec.register} shard {stats.shard}"
            problems += checks.check_completed(
                where, stats.write_ops + stats.read_ops,
                stats.completed_writes + stats.completed_reads)
            problems += checks.check_floor(
                where, spec.register, stats.peak_storage_bits, spec.f,
                stats.max_c, spec.data_size_bits)
            problems += checks.check_adaptive_settled(
                where, spec.register, stats.final_bo_state_bits, spec.f,
                spec.k, stats.max_c, spec.data_size_bits)
        return problems

    @staticmethod
    def peak_bits(records) -> int:
        return sum(r.aggregate_peak_storage_bits for r in records)

    def floor_bits(self, records) -> int:
        """Theorem 1 floors of every shard at its realized c."""
        return sum(
            checks.theorem1_floor_bits(
                outcome.spec.f, stats.max_c, outcome.spec.data_size_bits)
            for outcome in self.outcomes for stats in outcome.shard_stats
        )

    @staticmethod
    def settled_bits(records) -> int:
        return sum(r.aggregate_final_bits for r in records)

    @staticmethod
    def data_bits(records) -> int:
        return sum(r.active_shards * r.data_bits for r in records)


WORKLOADS = {
    workload.name: workload
    for workload in (SvcBulk, SvcSmall, SweepBulk, KeyspaceHot)
}
