"""Append-only binary replica journal: crash recovery for one server.

Each write a server applies is appended and flushed **before** its state
changes and its ack leaves the process (see ``ServerProtocol.on_apply``),
so a SIGKILLed server restarts at the last state any client could have
seen acknowledged. Layout (big-endian)::

    header = magic  version:u16  signature:64 ASCII hex
    record = length:u32  crc32(body):u32  crc32(first 8 bytes):u32  body
    body   = wire.encode_ts_block(ts, block)

A record cut short by the end of the file (never acknowledged) is
tolerated; a CRC mismatch, a malformed body, or a header that is missing,
of another version or of another replica configuration raises
:class:`~repro.errors.JournalError`. A replica's state is one ``(ts,
block)`` pair, so :meth:`ReplicaJournal.open_for_append` compacts the
file to that one record at every start.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from repro.coding.oracles import CodeBlock
from repro.errors import JournalError, WireError
from repro.registers.timestamps import Timestamp
from repro.service.statedir import atomic_write
from repro.service.wire import decode_ts_block, encode_ts_block

#: Journal file format version (independent of the wire schema).
JOURNAL_VERSION = 2

#: Magic bytes opening every replica journal.
JOURNAL_MAGIC = b"repro-replica-journal"

_HEADER = struct.Struct(f">{len(JOURNAL_MAGIC)}sH64s")
_RECORD = struct.Struct(">III")  # body length, body CRC32, CRC32 of those
#: How a version-1 (JSONL) journal begins.
_V1_PREFIX = b'{"journal": "repro-replica-journal"'

Entry = tuple[Timestamp, CodeBlock]


def replica_signature(
    name: str, index: int, f: int, data_size_bytes: int, scheme: str
) -> str:
    """SHA-256 over the replica configuration a journal belongs to: two
    servers share it iff replaying one's journal into the other is sound."""
    payload = dict(name=name, index=index, f=f,
                   data_size_bytes=data_size_bytes, scheme=scheme)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _record(ts: Timestamp, block: CodeBlock) -> bytes:
    """One applied write as a record: length, body CRC32, their CRC32, body."""
    body = encode_ts_block(ts, block)
    head = struct.pack(">II", len(body), zlib.crc32(body))
    return head + struct.pack(">I", zlib.crc32(head)) + body


class ReplicaJournal:
    """One replica's journal, written by its server process alone. Records
    are flushed, not fsynced: they survive SIGKILL, not power loss."""

    def __init__(self, path: str | Path, signature: str) -> None:
        self.path = Path(path)
        self.signature = signature
        self._handle = None

    # ------------------------------------------------------------- reading

    def records(self) -> Iterator[Entry]:
        """Stream the applied writes, validated (none if no file yet)."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            if not (header := handle.read(_HEADER.size)):
                return
            self._check_header(header)
            offset = _HEADER.size
            # Ends at EOF or a torn record; a length is used once its CRC holds.
            while len(prefix := handle.read(_RECORD.size)) == _RECORD.size:
                length, crc, head_crc = _RECORD.unpack(prefix)
                body = handle.read(length) \
                    if zlib.crc32(prefix[:8]) == head_crc else None
                if body is not None and len(body) < length:
                    return
                if body is None or zlib.crc32(body) != crc:
                    raise JournalError(f"{self.path}@{offset}: corrupt "
                                       f"journal record (CRC mismatch)")
                try:
                    entry = decode_ts_block(body)
                except WireError as error:
                    raise JournalError(f"{self.path}@{offset}: malformed "
                                       f"journal record: {error}") from error
                yield entry
                offset += _RECORD.size + length

    def load(self) -> list[Entry]:
        """Every applied write in the journal, validated, in order."""
        return list(self.records())

    def recovered(self) -> Entry | None:
        """The highest journaled write, streamed one record at a time.

        Apply order makes it the last record; the maximum is taken anyway,
        since recovery must not depend on an invariant a crash may break.
        """
        return max(self.records(), key=itemgetter(0), default=None)

    def _check_header(self, header: bytes) -> None:
        magic, version, signature = _HEADER.unpack(
            header.ljust(_HEADER.size, b"\0"))
        if header.startswith(_V1_PREFIX):
            version = 1
        elif magic != JOURNAL_MAGIC:
            raise JournalError(
                f"{self.path}: not a replica journal (missing header)")
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: unsupported journal version {version} "
                f"(this build reads version {JOURNAL_VERSION})")
        if signature != self.signature.encode("ascii"):
            raise JournalError(
                f"{self.path}: journal was written by a different replica "
                f"configuration; refusing to recover from it")

    # ------------------------------------------------------------- writing

    def open_for_append(self) -> Entry | None:
        """Compact to the recovery point, open for appending, return it.

        The rewrite (header + the recovered record) goes through a
        ``.tmp`` and a rename: a crash mid-compaction leaves the original
        journal, and the stale ``.tmp`` is overwritten next time.
        """
        entry = self.recovered()
        header = _HEADER.pack(
            JOURNAL_MAGIC, JOURNAL_VERSION, self.signature.encode("ascii"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.path, header + (_record(*entry) if entry else b""))
        self._handle = open(self.path, "ab")
        return entry

    def append(self, ts: Timestamp, block: CodeBlock) -> None:
        """Persist one applied write (flushed before this returns)."""
        self._handle.write(_record(ts, block))
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
