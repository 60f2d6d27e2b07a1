"""Decoder fuzz: every network-facing decoder takes arbitrary bytes.

Brokers read these payloads straight off TCP, so each decoder must either
return a value or raise :class:`~repro.errors.CodecError` — never another
exception type, and never a value that breaks when it is used.  Two uses
are pinned here:

* a decoded wire message re-encodes (a broker forwards what it consumed);
* a decoded match digest round-trips: ``from_bytes(d.to_bytes()) == d``.

Decoded event values are deliberately not compared: a NaN price decodes
legally and NaN != NaN.  Digests are compared structurally (epoch,
checksum, ids) through ``MatchDigest.__eq__``.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.broker import decode_event, decode_message, encode_message
from repro.broker.messages import MessageType
from repro.errors import CodecError
from repro.matching import stock_trade_schema, uniform_schema
from repro.matching.digest import MatchDigest

SCHEMAS = {"stock": stock_trade_schema(), "uniform": uniform_schema(3)}

payloads = st.binary(max_size=512)
#: Ids cluster near zero so small unordered and duplicate lists come up
#: often; the full u64 range covers the wrap-around edges.
ids = st.one_of(st.integers(0, 64), st.integers(0, 2**64 - 1))


@st.composite
def framed_digests(draw):
    """Digest payloads whose length fields agree with their bodies, so the
    decoder gets past framing and has to judge the ids themselves."""
    header = draw(st.binary(min_size=16, max_size=16))  # epoch + checksum
    if draw(st.booleans()):
        listed = draw(st.lists(ids, max_size=8))
        return (
            bytes((0,))
            + header
            + len(listed).to_bytes(4, "big")
            + b"".join(i.to_bytes(8, "big") for i in listed)
        )
    base = draw(ids)
    bitmap = draw(st.binary(max_size=64))
    return (
        bytes((1,))
        + header
        + base.to_bytes(8, "big")
        + len(bitmap).to_bytes(4, "big")
        + bitmap
    )


def decode_or_reject(payload: bytes):
    """The decoded message, or ``None`` when it was rejected with the typed
    error.  A decoded message must re-encode: forwarding does exactly that."""
    try:
        message = decode_message(payload)
    except CodecError:
        return None
    encode_message(message)
    return message


def check_digest(payload: bytes) -> None:
    try:
        digest = MatchDigest.from_bytes(payload)
    except CodecError:
        return
    assert MatchDigest.from_bytes(digest.to_bytes()) == digest


def string_field(text: bytes) -> bytes:
    return len(text).to_bytes(2, "big") + text


class TestMessageDecoder:
    @given(payload=payloads)
    def test_raw_bytes(self, payload):
        decode_or_reject(payload)

    @given(message_type=st.sampled_from(list(MessageType)), body=payloads)
    def test_every_type_byte(self, message_type, body):
        """A valid type byte sends the rest to that message's own decoder."""
        decode_or_reject(bytes((message_type,)) + body)

    @given(
        event_data=st.binary(max_size=64),
        digest=st.one_of(framed_digests(), payloads),
    )
    def test_broker_event_digest_section(self, event_data, digest):
        """A well-framed broker event whose trailing digest section is
        forged: decoding either rejects the digest or yields a message the
        broker can forward."""
        payload = (
            bytes((MessageType.BROKER_EVENT,))
            + string_field(b"B0")
            + string_field(b"P1")
            + len(event_data).to_bytes(4, "big")
            + event_data
            + len(digest).to_bytes(4, "big")
            + digest
        )
        message = decode_or_reject(payload)
        if message is not None:
            assert decode_message(encode_message(message)).digest == message.digest


class TestEventDecoder:
    @given(schema=st.sampled_from(sorted(SCHEMAS)), data=payloads)
    def test_raw_bytes(self, schema, data):
        try:
            decode_event(SCHEMAS[schema], data)
        except CodecError:
            pass


class TestDigestDecoder:
    @given(payload=payloads)
    def test_raw_bytes(self, payload):
        check_digest(payload)

    @given(payload=framed_digests())
    def test_framed_payloads_round_trip(self, payload):
        check_digest(payload)
