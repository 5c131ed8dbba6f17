"""Replica journal: the crash-recovery substrate, CheckpointError semantics."""

import json
import struct
import zlib

import pytest

from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import CheckpointError, JournalError
from repro.registers.timestamps import Timestamp
from repro.service.journal import (
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    ReplicaJournal,
    replica_signature,
)

SIG = replica_signature("s0", 0, 1, 8, "replication")


def block(tag: bytes, op_uid: int):
    payload = tag * 8
    return CodeBlock(
        payload=payload, index=0,
        source=BlockSource(op_uid, 0), size_bits=len(payload) * 8,
    )


def journal_with(path, entries):
    journal = ReplicaJournal(path, SIG)
    journal.open_for_append()
    for num, client, blk in entries:
        journal.append(Timestamp(num, client), blk)
    journal.close()
    return journal


def header_bytes(version=JOURNAL_VERSION, signature=SIG):
    return JOURNAL_MAGIC + struct.pack(">H", version) + signature.encode()


def record_bytes(body: bytes) -> bytes:
    """A record with valid length and CRCs around an arbitrary body."""
    head = struct.pack(">II", len(body), zlib.crc32(body))
    return head + struct.pack(">I", zlib.crc32(head)) + body


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        journal = journal_with(tmp_path / "j.jsonl", [
            (1, "w0", block(b"a", 1)),
            (2, "w1", block(b"b", 2)),
        ])
        entries = journal.load()
        assert [ts for ts, _ in entries] == [
            Timestamp(1, "w0"), Timestamp(2, "w1"),
        ]
        assert entries[1][1] == block(b"b", 2)
        assert type(entries[1][1].payload) is bytes

    def test_missing_file_loads_empty(self, tmp_path):
        assert ReplicaJournal(tmp_path / "absent.jsonl", SIG).load() == []

    def test_recovered_is_maximum_entry(self, tmp_path):
        journal = journal_with(tmp_path / "j.jsonl", [
            (1, "w0", block(b"a", 1)),
            (3, "w1", block(b"c", 3)),
            (2, "w0", block(b"b", 2)),  # out of order on purpose
        ])
        ts, blk = journal.recovered()
        assert ts == Timestamp(3, "w1")
        assert blk == block(b"c", 3)

    def test_recovered_none_when_empty(self, tmp_path):
        journal = ReplicaJournal(tmp_path / "j.jsonl", SIG)
        assert journal.open_for_append() is None  # header only
        journal.close()
        assert journal.recovered() is None

    def test_reopen_appends_after_existing_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1))])
        second = ReplicaJournal(path, SIG)
        second.open_for_append()
        second.append(Timestamp(2, "w1"), block(b"b", 2))
        second.close()
        assert len(second.load()) == 2


class TestCompaction:
    def test_reopen_keeps_only_the_recovery_point(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [
            (num, "w0", block(bytes([num]), num)) for num in range(1, 9)
        ])
        journal = ReplicaJournal(path, SIG)
        recovered = journal.open_for_append()
        journal.close()
        assert recovered == (Timestamp(8, "w0"), block(b"\x08", 8))
        assert journal.load() == [recovered]

    def test_refused_journal_is_not_rewritten(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1))])
        before = path.read_bytes()
        other = replica_signature("s1", 1, 1, 8, "replication")
        with pytest.raises(JournalError):
            ReplicaJournal(path, other).open_for_append()
        assert path.read_bytes() == before


class TestCrashArtifacts:
    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1)),
                            (2, "w1", block(b"b", 2))])
        data = path.read_bytes()
        record = (len(data) - len(header_bytes())) // 2
        # Cut inside the second body, then inside its length/CRC prefix.
        for cut in (10, record - 3):
            path.write_bytes(data[:-cut])  # SIGKILL mid-append
            entries = ReplicaJournal(path, SIG).load()
            assert [ts for ts, _ in entries] == [Timestamp(1, "w0")]

    def test_open_for_append_trims_partial_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1))])
        with open(path, "ab") as handle:
            handle.write(record_bytes(b"torn write")[:-4])
        journal = ReplicaJournal(path, SIG)
        journal.open_for_append()
        journal.append(Timestamp(3, "w2"), block(b"c", 3))
        journal.close()
        # The torn record is gone; the new record parses cleanly.
        assert [ts for ts, _ in journal.load()] == [
            Timestamp(1, "w0"), Timestamp(3, "w2"),
        ]


class TestCorruption:
    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1)),
                            (2, "w1", block(b"b", 2))])
        data = bytearray(path.read_bytes())
        data[len(header_bytes()) + 12] ^= 0x01  # inside the first body
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="CRC"):
            ReplicaJournal(path, SIG).load()

    def test_damaged_length_is_refused_not_read_as_torn_tail(self, tmp_path):
        # A length pointing past the end of the file must not make the
        # later, acknowledged records vanish as if torn.
        path = tmp_path / "j.jsonl"
        journal_with(path, [(n, "w0", block(b"a", n)) for n in (1, 2, 3)])
        data = bytearray(path.read_bytes())
        data[len(header_bytes())] ^= 0x80  # high byte of the first length
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="CRC"):
            ReplicaJournal(path, SIG).load()

    def test_corrupt_final_record_raises(self, tmp_path):
        # Complete but damaged is corruption, not a torn tail.
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1))])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="CRC"):
            ReplicaJournal(path, SIG).load()

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(record_bytes(b"no header before me") * 8)
        with pytest.raises(JournalError, match="missing header"):
            ReplicaJournal(path, SIG).load()

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(header_bytes(version=JOURNAL_VERSION + 1))
        with pytest.raises(JournalError, match="version"):
            ReplicaJournal(path, SIG).load()

    def test_v1_jsonl_journal_refused_by_version(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({
            "journal": "repro-replica-journal",
            "journal_version": 1,
            "signature": SIG,
        }, sort_keys=True) + "\n")
        with pytest.raises(JournalError, match="version 1"):
            ReplicaJournal(path, SIG).open_for_append()

    def test_foreign_signature_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1))])
        other = replica_signature("s1", 1, 1, 8, "replication")
        with pytest.raises(JournalError, match="different replica"):
            ReplicaJournal(path, other).load()

    def test_malformed_entry_fields_raise(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal_with(path, [(1, "w0", block(b"a", 1))])
        with open(path, "ab") as handle:
            # Valid CRCs around bodies that are not a (ts, block) pair.
            handle.write(record_bytes(b"!!!"))
            handle.write(record_bytes(b""))
        with pytest.raises(JournalError, match="malformed"):
            ReplicaJournal(path, SIG).load()

    def test_journal_error_is_checkpoint_error(self):
        # Journal-aware callers can catch either failure domain.
        assert issubclass(JournalError, CheckpointError)


class TestSignature:
    @pytest.mark.parametrize("change", [
        {"name": "s1"}, {"index": 1}, {"f": 2},
        {"data_size_bytes": 16}, {"scheme": "rs"},
    ])
    def test_every_config_field_is_pinned(self, change):
        base = dict(name="s0", index=0, f=1, data_size_bytes=8,
                    scheme="replication")
        assert replica_signature(**base) != replica_signature(
            **{**base, **change}
        )
