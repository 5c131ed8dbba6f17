"""Binary wire codec for protocol payloads, one fixed schema per tag.

A payload ``(tag, request_id, *fields)`` round-trips losslessly (blocks
keep the source tag and bit size the storage ledger meters). Layout
(big-endian; ``str`` = ``u16`` length + UTF-8)::

    payload = tag:u8  rid  fields                (the tag indexes SCHEMAS)
    rid     = count:u8  (0x00 i64 | 0x01 str)*   (decodes to a tuple)
    ts      = num:i64  client:str
    block   = index:u32  op_uid:i64  source_index:u32  size_bits:u64
              length:u32  raw payload bytes

Journal records hold :func:`encode_ts_block`: the very ``ts`` + ``block``
bytes of a write frame. Decoding checks tag, arity, every length and that
no bytes trail (else :class:`~repro.errors.WireError`); payloads decode to
``bytes``.
"""

from __future__ import annotations

import struct

from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import WireError
from repro.msgnet import protocol
from repro.registers.timestamps import Timestamp

#: ``(tag, field kinds after the request id)``; a tag's wire code is its
#: position here.
SCHEMAS = (
    (protocol.READ_TS, ()),
    (protocol.REPLY_TS, ("ts",)),
    (protocol.WRITE, ("ts", "block")),
    (protocol.REPLY_ACK, ()),
    (protocol.READ, ()),
    (protocol.REPLY_VALUE, ("ts", "block")),
    (protocol.STATUS, ()),
    (protocol.REPLY_STATUS, ("ts", "int", "int")),
    (protocol.PING, ()),
    (protocol.REPLY_PONG, ()),
)
_CODES = {tag: code for code, (tag, _kinds) in enumerate(SCHEMAS)}

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_BLOCK = struct.Struct(">IqIQI")  # index, op_uid, source index, bits, length


def _parts(kinds, values):
    """The encoded pieces of ``values``, one field kind each."""
    for kind, value in zip(kinds, values):
        if kind == "int":
            yield _I64.pack(value)
        elif kind == "str":
            raw = value.encode("utf-8")
            yield _U16.pack(len(raw)) + raw
        elif kind == "ts":
            yield from _parts(("int", "str"), (value.num, value.client))
        elif kind == "rid":
            yield _U8.pack(len(value))
            for item in value:
                item_kind = "str" if isinstance(item, str) else "int"
                yield _U8.pack(item_kind == "str")
                yield from _parts((item_kind,), (item,))
        else:
            yield _BLOCK.pack(value.index, value.source.op_uid,
                              value.source.index, value.size_bits,
                              len(value.payload))
            yield value.payload


def _encode(kinds, values) -> bytes:
    try:
        return b"".join(_parts(kinds, values))
    except (struct.error, AttributeError, TypeError,
            UnicodeEncodeError) as error:
        raise WireError(f"cannot encode on the wire: {error}") from error


def encode_payload(payload: tuple) -> bytes:
    """One protocol payload -> its binary frame body."""
    tag = payload[0] if isinstance(payload, tuple) and payload else None
    code = _CODES.get(tag) if isinstance(tag, str) else None
    if code is None:
        raise WireError(f"unknown wire tag in {payload!r:.80}")
    kinds = ("rid", *SCHEMAS[code][1])
    if len(payload) != 1 + len(kinds):
        raise WireError(f"{tag!r} takes a request id and {len(kinds) - 1} "
                        f"field(s), got {payload!r:.80}")
    return _U8.pack(code) + _encode(kinds, payload[1:])


def encode_ts_block(ts: Timestamp, block: CodeBlock) -> bytes:
    """One replica state ``(ts, block)`` -> bytes (a journal record body)."""
    return _encode(("ts", "block"), (ts, block))


class _Reader:
    """A bounds-checked cursor over one encoded payload."""

    def __init__(self, data) -> None:
        self.data, self.pos = bytes(data), 0

    def take(self, size: int) -> bytes:
        end = self.pos + size
        if end > len(self.data):
            raise WireError(f"truncated: needs {end} of {len(self.data)} B")
        chunk, self.pos = self.data[self.pos:end], end
        return chunk

    def unpack(self, fmt: struct.Struct):
        values = fmt.unpack(self.take(fmt.size))
        return values[0] if len(values) == 1 else values

    def field(self, kind: str):
        if kind == "int":
            return self.unpack(_I64)
        if kind == "str":
            return self.take(self.unpack(_U16)).decode("utf-8")
        if kind == "ts":
            return Timestamp(self.field("int"), self.field("str"))
        if kind == "rid":
            return tuple(self.field(self.rid_item_kind())
                         for _ in range(self.unpack(_U8)))
        index, op_uid, source_index, size_bits, size = self.unpack(_BLOCK)
        return CodeBlock(self.take(size), index,
                         BlockSource(op_uid, source_index), size_bits)

    def rid_item_kind(self) -> str:
        code = self.unpack(_U8)
        if code > 1:
            raise WireError(f"unknown request-id item kind {code}")
        return ("int", "str")[code]

    def fields(self, kinds) -> tuple:
        try:
            values = tuple(self.field(kind) for kind in kinds)
        except UnicodeDecodeError as error:
            raise WireError(f"string is not UTF-8: {error}") from error
        if self.pos != len(self.data):
            raise WireError(f"{len(self.data) - self.pos} trailing byte(s)")
        return values


def decode_payload(data: bytes) -> tuple:
    """Binary frame body -> protocol payload (:class:`WireError` on junk)."""
    reader = _Reader(data)
    code = reader.unpack(_U8)
    if code >= len(SCHEMAS):
        raise WireError(f"unknown wire tag code {code}")
    tag, kinds = SCHEMAS[code]
    return (tag, *reader.fields(("rid", *kinds)))


def decode_ts_block(data: bytes) -> tuple[Timestamp, CodeBlock]:
    """Bytes from :func:`encode_ts_block` -> ``(ts, block)``."""
    return _Reader(data).fields(("ts", "block"))
