"""The benchmark's correctness checkers reject deliberately broken inputs."""

from __future__ import annotations

import time

from perfbench import checks
from perfbench.spans import Tracer

D = 64 * 1024 * 8  # bits


def sequential_writes(count: int, start: int = 0) -> list[tuple[int, int, int]]:
    """Writes 1..count, each taking [10i, 10i + 5) ns after ``start``."""
    return [(i, start + 10 * i, start + 10 * i + 5) for i in range(1, count + 1)]


def test_reads_of_the_latest_or_an_overlapping_write_pass():
    writes = sequential_writes(3)
    reads = [
        (3, 40, 45),  # after write 3 completed: returns it
        (2, 28, 32),  # overlaps write 3 [30, 35): write 2 or 3 allowed
        (3, 28, 32),
        (0, 1, 2),    # before any write: the initial value
    ]
    assert checks.check_single_writer_reads(writes, reads) == []


def test_stale_read_is_rejected():
    writes = sequential_writes(3)
    problems = checks.check_single_writer_reads(writes, [(2, 40, 45)])
    assert len(problems) == 1 and "stale" in problems[0]


def test_acknowledged_write_missing_after_restart_is_rejected():
    history = sequential_writes(5)  # acknowledged before the restart
    first_read_after_restart = (4, 1_000, 1_010)
    problems = checks.check_single_writer_reads(
        history, [first_read_after_restart])
    assert problems and "write 5 completed" in problems[0]
    lost_everything = (0, 1_000, 1_010)
    assert checks.check_single_writer_reads(history, [lost_everything])


def test_read_of_an_unwritten_or_future_value_is_rejected():
    writes = sequential_writes(2)
    assert checks.check_single_writer_reads(writes, [(-1, 40, 45)])
    assert checks.check_single_writer_reads(writes, [(2, 11, 14)])


def test_theorem1_floor_matches_the_formula():
    # f = 2, c = 1: min(3 D/2, D/2 + 1) = D/2 + 1.
    assert checks.theorem1_floor_bits(2, 1, D) == D // 2 + 1
    # f = 2, c = 8: min(3 D/2, 8 (D/2 + 1)) = 3 D/2.
    assert checks.theorem1_floor_bits(2, 8, D) == 3 * D // 2


def test_cell_below_its_floor_is_rejected():
    floor = checks.theorem1_floor_bits(2, 3, D)
    assert checks.check_floor("cell", "adaptive", floor, 2, 3, D) == []
    assert checks.check_floor("cell", "adaptive", floor - 1, 2, 3, D)
    # The safe register is below the floor by design.
    assert checks.check_floor("cell", "safe", floor - 1, 2, 3, D) == []


def test_adaptive_cell_above_its_section5_bound_is_rejected():
    bound = checks.adaptive_settled_bound_bits(2, 4, 8, D)
    assert bound == 3 * 8 * D // 4
    assert checks.check_adaptive_settled("cell", "adaptive", bound, 2, 4, 8, D) == []
    assert checks.check_adaptive_settled(
        "cell", "adaptive", bound + 1, 2, 4, 8, D)
    assert checks.check_adaptive_settled(
        "cell", "coded-only", bound + 1, 2, 4, 8, D) == []


def test_incomplete_operation_is_rejected():
    assert checks.check_completed("cell", 10, 10) == []
    assert checks.check_completed("cell", 10, 9)


def test_state_checks_reject_wrong_bit_counts():
    assert checks.check_at_rest_bits(3 * 16 * 8, 1, 16) == []
    assert checks.check_at_rest_bits(2 * 16 * 8, 1, 16)
    assert checks.check_abd_settled("cell", 3 * D, 3, D) == []
    assert checks.check_abd_settled("cell", 5 * D, 3, D)
    assert checks.check_adaptive_below_coded(1, 2) == []
    assert checks.check_adaptive_below_coded(2, 2)


def test_tracer_self_time_excludes_children_and_reports_absent_layers():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        traced_inner()
        traced_inner()

    tracer.wrap("outer", outer)()
    totals = tracer.layer_totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert totals["inner"][1] >= 0.04
    assert totals["outer"][1] < 0.01
    assert tracer.patch("missing", "perfbench.checks:no_such_function") is False
    assert tracer.patch("missing", "perfbench.no_such_module:f") is False
    assert len(tracer.absent) == 2
