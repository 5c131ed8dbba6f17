"""Wire codec + framing: lossless byte round-trips, loud failures."""

import asyncio
import logging
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coding.oracles import BlockSource, CodeBlock
from repro.errors import WireError
from repro.msgnet.protocol import READ, READ_TS, REPLY_TS, REPLY_VALUE, WRITE
from repro.registers.base import INITIAL_OP_UID
from repro.registers.timestamps import TS_ZERO, Timestamp
from repro.service.framing import (
    MAX_FRAME_BYTES,
    pack_frame,
    read_frame,
    write_frame,
)
from repro.service.wire import (
    SCHEMAS,
    decode_payload,
    decode_ts_block,
    encode_payload,
    encode_ts_block,
)


def block(payload=b"abcd", index=1):
    return CodeBlock(
        payload=payload, index=index,
        source=BlockSource(5, index), size_bits=len(payload) * 8,
    )


class TestCodec:
    def test_timestamp_roundtrip_preserves_ordering(self):
        wire = encode_payload((REPLY_TS, (0, 1), Timestamp(3, "w")))
        decoded = decode_payload(wire)
        assert decoded[2] == Timestamp(3, "w")
        assert decoded[2] > Timestamp(2, "z")  # still totally ordered

    def test_block_roundtrip_preserves_metering_fields(self):
        original = block()
        decoded = decode_payload(
            encode_payload((REPLY_VALUE, (7, 1), TS_ZERO, original))
        )
        assert decoded[3] == original
        assert decoded[3].size_bits == original.size_bits
        assert decoded[3].source == original.source

    def test_request_ids_stay_tuples(self):
        # Quorum rounds compare request ids with ==; a list would never
        # equal the tuple the machine issued.
        decoded = decode_payload(encode_payload((READ_TS, (42, 2))))
        assert decoded == (READ_TS, (42, 2))
        assert isinstance(decoded[1], tuple)

    def test_full_write_payload_roundtrip(self):
        payload = (WRITE, (3, 2), Timestamp(9, "w1"), block(b"\x01" * 16, 0))
        assert decode_payload(encode_payload(payload)) == payload

    def test_block_payload_travels_raw(self):
        payload = (WRITE, (3, 2), Timestamp(9, "w1"), block(b"\x07" * 65536))
        wire = encode_payload(payload)
        assert len(wire) < 65536 + 64  # a small header, no inflation
        decoded = decode_payload(memoryview(wire))
        assert type(decoded[3].payload) is bytes

    def test_frames_and_journal_share_the_ts_block_encoding(self):
        ts, blk = Timestamp(4, "w"), block()
        pair = encode_ts_block(ts, blk)
        assert encode_payload((WRITE, (1, 2), ts, blk)).endswith(pair)
        assert decode_ts_block(pair) == (ts, blk)

    def test_unknown_tag_raises(self):
        # Refused on encode (not in the vocabulary) and on decode (a tag
        # code past the table).
        with pytest.raises(WireError, match="unknown wire tag"):
            encode_payload(("alien", (0, 1)))
        with pytest.raises(WireError, match="unknown wire tag"):
            decode_payload(bytes([len(SCHEMAS)]) + b"\x00")

    def test_junk_bytes_raise(self):
        with pytest.raises(WireError):
            decode_payload(b"\xde\xad\xbe\xef")

    def test_non_tuple_toplevel_raises(self):
        with pytest.raises(WireError):
            encode_payload([READ_TS, (0, 1)])
        with pytest.raises(WireError):
            encode_payload(READ_TS)

    def test_unencodable_object_raises(self):
        with pytest.raises(WireError):
            encode_payload((REPLY_TS, (0, 1), object()))
        with pytest.raises(WireError):
            encode_payload((READ, (0.5, 1)))

    def test_arity_is_checked(self):
        with pytest.raises(WireError, match="field"):
            encode_payload((WRITE, (0, 2), Timestamp(1, "w")))
        with pytest.raises(WireError, match="trailing"):
            decode_payload(encode_payload((READ, (0, 1))) + b"\x00")

    def test_out_of_range_integers_raise(self):
        with pytest.raises(WireError):
            encode_payload((READ, (2 ** 63, 1)))
        with pytest.raises(WireError):
            encode_payload((WRITE, (0, 2), TS_ZERO, block(index=-1)))


# ------------------------------------------------------------- properties

I64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
TEXT = st.text(max_size=24)
RIDS = st.lists(st.one_of(I64, TEXT), max_size=4).map(tuple)
TIMESTAMPS = st.builds(Timestamp, I64, TEXT)


def _payload_bytes(max_size):
    """Small arbitrary payloads, plus seeded ones up to ``max_size``."""
    seeded = st.integers(0, max_size).map(
        lambda size: random.Random(size).randbytes(size)
    )
    return st.one_of(st.binary(max_size=64), seeded)


def _blocks(max_size):
    return st.builds(
        lambda payload, index, op_uid, source_index, bits: CodeBlock(
            payload, index, BlockSource(op_uid, source_index), bits
        ),
        _payload_bytes(max_size),
        st.integers(0, 2 ** 32 - 1),
        st.one_of(st.just(INITIAL_OP_UID), I64),
        st.integers(0, 2 ** 32 - 1),
        st.integers(0, 2 ** 64 - 1),
    )


def _payloads(max_size):
    fields = {"int": I64, "ts": TIMESTAMPS, "block": _blocks(max_size)}
    return st.sampled_from(SCHEMAS).flatmap(
        lambda schema: st.tuples(
            st.just(schema[0]), RIDS, *(fields[kind] for kind in schema[1])
        )
    )


def assert_well_typed(payload):
    """A decoded payload has its tag's shape and only protocol types."""
    tag, rid, *fields = payload
    kinds = dict(SCHEMAS)[tag]
    assert isinstance(rid, tuple)
    assert all(type(item) in (int, str) for item in rid)
    assert len(fields) == len(kinds)
    for kind, value in zip(kinds, fields):
        if kind == "int":
            assert type(value) is int
        elif kind == "ts":
            assert type(value.num) is int and type(value.client) is str
        else:
            assert type(value.payload) is bytes
            assert all(type(x) is int for x in (
                value.index, value.size_bits,
                value.source.op_uid, value.source.index,
            ))


def decodes_or_refuses(data):
    try:
        payload = decode_payload(data)
    except WireError:
        return
    assert_well_typed(payload)


PROPERTY = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCodecProperties:
    @PROPERTY
    @given(_payloads(max_size=1 << 20))
    def test_every_tag_round_trips(self, payload):
        decoded = decode_payload(encode_payload(payload))
        assert decoded == payload
        assert_well_typed(decoded)

    @PROPERTY
    @given(_payloads(max_size=64))
    def test_every_strict_prefix_is_refused(self, payload):
        wire = encode_payload(payload)
        for cut in range(len(wire)):
            with pytest.raises(WireError):
                decode_payload(wire[:cut])

    @PROPERTY
    @given(_payloads(max_size=4096), st.data())
    def test_byte_flips_refuse_or_stay_well_typed(self, payload, data):
        wire = bytearray(encode_payload(payload))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(wire) - 1))
            wire[at] ^= data.draw(st.integers(1, 255))
        decodes_or_refuses(bytes(wire))

    @PROPERTY
    @given(st.binary(max_size=256))
    def test_random_bytes_refuse_or_stay_well_typed(self, data):
        decodes_or_refuses(data)


# ----------------------------------------------------------------- framing


async def frames_from(*chunks: bytes) -> list[bytes | None]:
    """Feed raw bytes to a reader; collect frames until EOF/None."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    frames = []
    while True:
        frame = await read_frame(reader)
        frames.append(frame)
        if frame is None:
            return frames


class TestFraming:
    def test_roundtrip(self, run):
        body = encode_payload((READ_TS, (0, 1)))
        assert run(frames_from(pack_frame(body))) == [body, None]

    def test_two_frames_stay_separate(self, run):
        assert run(frames_from(pack_frame(b"one"), pack_frame(b"two"))) == [
            b"one", b"two", None,
        ]

    def test_clean_eof_returns_none(self, run):
        assert run(frames_from()) == [None]

    def test_eof_inside_header_raises(self, run):
        with pytest.raises(WireError):
            run(frames_from(b"\x00\x00"))

    def test_eof_inside_body_raises(self, run):
        with pytest.raises(WireError):
            run(frames_from(pack_frame(b"full")[:-2]))

    def test_oversized_announcement_raises(self, run):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError):
            run(frames_from(header))

    def test_oversized_pack_raises(self):
        class Huge(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(WireError):
            pack_frame(Huge())

    def test_write_frame_is_readable(self, run):
        async def loop_through():
            reader = asyncio.StreamReader()

            class Sink:
                def write(self, data):
                    reader.feed_data(data)

                async def drain(self):
                    pass

            await write_frame(Sink(), b"payload")
            reader.feed_eof()
            return await read_frame(reader)

        assert run(loop_through()) == b"payload"


# ------------------------------------------------------ a server under junk


def _evil_write(index, payload=b"evil-val"):
    """A well-framed write at a far-future ts carrying the given block."""
    return encode_payload((WRITE, (0, 2), Timestamp(99, "evil"), CodeBlock(
        payload=payload, index=index,
        source=BlockSource(0, index), size_bits=len(payload) * 8,
    )))


JUNK = {
    "junk bytes": lambda index: b"\xde\xad\xbe\xef",
    "unknown tag code": lambda index: bytes([len(SCHEMAS)]) + b"\x00",
    "truncated block": lambda index: _evil_write(index)[:-3],
    "wrong-index block": lambda index: _evil_write(index + 1),
    "short block": lambda index: _evil_write(index, b"raw"),
    "reply tag": lambda index: encode_payload((REPLY_TS, (0, 1), TS_ZERO)),
}


class TestServerUnderJunk:
    @pytest.mark.parametrize("kind", sorted(JUNK))
    def test_junk_is_counted_and_state_is_untouched(
        self, kind, loopback, run, caplog
    ):
        async def scenario():
            async with loopback() as cluster:
                writer = cluster.client("w0")
                await writer.write(b"honest-1")
                for server in cluster.servers.values():
                    reader, conn = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    conn.write(pack_frame(JUNK[kind](server.config.index)))
                    await conn.drain()
                    # Only this connection is closed, without a reply.
                    assert await read_frame(reader) is None
                    conn.close()
                rejected = [s.rejected_frames for s in cluster.servers.values()]
                honest = cluster.client("r0")
                value = await honest.read()
                await writer.write(b"honest-2")  # still writable after
                after = await honest.read()
                await writer.close()
                await honest.close()
                return rejected, value, after

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            rejected, value, after = run(scenario())
        assert rejected == [1, 1, 1]
        assert (value, after) == (b"honest-1", b"honest-2")
        assert not [r for r in caplog.records if r.name == "asyncio"]
