"""Correctness checkers, computed apart from the program under test.

Every checker takes plain recorded data (indices, nanosecond times, bit
counts) and returns a list of problem strings; an empty list means the
output is correct. The paper's bounds are re-derived here from their
formulas rather than read back from the program's own overlay fields, so a
program that miscomputes a bound cannot also pass its own check.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

#: Registers Theorem 1 covers. The safe register of Appendix E stays
#: below the floor by design (safeness lets a concurrent read return v0).
REGULAR_REGISTERS = ("abd", "cas", "coded-only", "adaptive")


def theorem1_floor_bits(f: int, c: int, data_bits: int) -> int:
    """Theorem 1: ``min((f+1) D/2, c (D/2 + 1))`` bits at concurrency ``c``."""
    return min((f + 1) * data_bits // 2, c * (data_bits // 2 + 1))


def adaptive_settled_bound_bits(f: int, k: int, c: int, data_bits: int) -> int:
    """Section 5: ``(min(f, c) + 1) (2f + k) / k * D`` bits once settled."""
    return (min(f, c) + 1) * (2 * f + k) * data_bits // k


def check_single_writer_reads(
    writes: Sequence[tuple[int, int, int]],
    reads: Sequence[tuple[int, int, int]],
) -> list[str]:
    """Single-writer regularity from recorded invoke/return times.

    ``writes`` holds ``(index, invoke_ns, return_ns)`` for each write in
    the order the one writer issued them, indices ``1, 2, ...``; index 0
    is the initial value. ``reads`` holds ``(index_read, invoke_ns,
    return_ns)``, where ``index_read`` is the write whose value the read
    returned (``-1`` for a value no write produced).

    A read may return the last write that completed before it began, or
    any write that overlapped it. Anything older is a stale read (after a
    restart: an acknowledged write lost); anything newer was never
    invoked before the read returned.
    """
    problems: list[str] = []
    for position, (index, _invoke, _return) in enumerate(writes, start=1):
        if index != position:
            problems.append(f"write {position} recorded as index {index}")
            return problems
    invokes = [invoke for _index, invoke, _return in writes]
    returns = [ret for _index, _invoke, ret in writes]
    for number, (got, invoked, returned) in enumerate(reads):
        # Writes are sequential, so both bounds are monotone in time.
        oldest = bisect_left(returns, invoked)  # completed before the read
        newest = bisect_left(invokes, returned)  # invoked before it returned
        if got < 0:
            problems.append(f"read {number} returned a value no write wrote")
        elif got < oldest:
            problems.append(
                f"read {number} is stale: returned write {got}, but write "
                f"{oldest} completed before the read began"
            )
        elif got > newest:
            problems.append(
                f"read {number} returned write {got}, which was not yet "
                f"invoked (newest possible {newest})"
            )
    return problems


def check_at_rest_bits(measured_bits: int, f: int, data_bytes: int) -> list[str]:
    """Replicated ABD at rest holds exactly ``(2f + 1) D`` bits."""
    expected = (2 * f + 1) * data_bytes * 8
    if measured_bits != expected:
        return [f"at-rest replica bits {measured_bits} != (2f+1)D = {expected}"]
    return []


def check_completed(where: str, issued: int, completed: int) -> list[str]:
    """Every issued operation completed."""
    if completed != issued:
        return [f"{where}: {completed} of {issued} issued operations completed"]
    return []


def check_floor(
    where: str, register: str, peak_bits: int, f: int, c: int, data_bits: int
) -> list[str]:
    """A regular register's peak storage is at least its Theorem 1 floor."""
    if register not in REGULAR_REGISTERS:
        return []
    floor = theorem1_floor_bits(f, c, data_bits)
    if peak_bits < floor:
        return [f"{where}: peak {peak_bits} bits below the Theorem 1 floor "
                f"{floor} at c={c}"]
    return []


def check_adaptive_settled(
    where: str, register: str, final_bits: int, f: int, k: int, c: int,
    data_bits: int,
) -> list[str]:
    """The adaptive register settles within its Section 5 bound."""
    if register != "adaptive":
        return []
    bound = adaptive_settled_bound_bits(f, k, c, data_bits)
    if final_bits > bound:
        return [f"{where}: settled at {final_bits} bits, above the Section 5 "
                f"bound {bound} at c={c}"]
    return []


def check_abd_settled(
    where: str, final_bits: int, live_objects: int, data_bits: int
) -> list[str]:
    """ABD settles at one full copy per live base object."""
    expected = live_objects * data_bits
    if final_bits != expected:
        return [f"{where}: ABD settled at {final_bits} bits, expected "
                f"{live_objects} live copies = {expected}"]
    return []


def check_adaptive_below_coded(
    adaptive_peak_bits: int, coded_peak_bits: int
) -> list[str]:
    """Under hot-key skew adaptive's aggregate peak is below coded-only's."""
    if adaptive_peak_bits >= coded_peak_bits:
        return [f"adaptive aggregate peak {adaptive_peak_bits} bits is not "
                f"below coded-only's {coded_peak_bits}"]
    return []
