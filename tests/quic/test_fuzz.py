"""Robustness: parsers must fail cleanly (EncodingError), never crash.

A user-space QUIC endpoint is exposed to arbitrary datagrams; every byte
sequence must either parse or raise the library's encoding error — any other
exception is a bug. A connection goes further: it drops what it cannot
decode and closes, with the RFC 9000 §20 error code, on decoded frames that
break a protocol rule. Hypothesis drives the parsers with random and with
mutated-valid inputs.
"""

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import EncodingError, FlowControlError, ProtocolError
from repro.quic.connection import Connection
from repro.quic.frames import ConnectionCloseFrame, StreamFrame, parse_frames
from repro.quic.packet import PacketType, QuicPacket
from repro.quic.varint import decode_varint


@given(st.binary(min_size=0, max_size=400))
def test_frame_parser_never_crashes(data):
    try:
        frames = parse_frames(data)
    except EncodingError:
        return
    assert isinstance(frames, list)


@given(st.binary(min_size=0, max_size=100))
def test_packet_decoder_never_crashes(data):
    try:
        packet = QuicPacket.decode(data)
    except EncodingError:
        return
    assert packet.packet_number >= 0


@given(st.binary(min_size=0, max_size=20), st.integers(min_value=0, max_value=30))
def test_varint_decoder_never_crashes(data, offset):
    try:
        value, end = decode_varint(data, offset)
    except EncodingError:
        return
    assert 0 <= value
    assert offset < end <= len(data)


@st.composite
def mutated_packet(draw):
    """A valid encoded packet with one byte flipped."""
    pn = draw(st.integers(min_value=0, max_value=1000))
    data = draw(st.binary(min_size=1, max_size=200))
    encoded = bytearray(
        QuicPacket(PacketType.ONE_RTT, pn, [StreamFrame(0, 0, data)]).encode()
    )
    index = draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    flip = draw(st.integers(min_value=1, max_value=255))
    encoded[index] ^= flip
    return bytes(encoded)


@given(mutated_packet())
def test_connection_survives_mutated_packets(data):
    conn = Connection("server")
    conn.on_datagram(data, 0)  # must never raise
    # Either it parsed (possibly into nonsense frames) or was counted as bad.
    assert conn.packets_received + conn.decode_errors >= 0


#: A 1-RTT packet carrying ``StreamFrame(0, 2**40, b"x")``: it decodes, but
#: writes far past the advertised stream window.
PAST_FLOW_CONTROL = (
    b"C" + bytes(11) + b"\x00\x0e\x00\xc0\x00\x01" + bytes(5) + b"\x01x" + bytes(16)
)


@given(st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=10))
@example([PAST_FLOW_CONTROL])
def test_connection_survives_random_garbage(blobs):
    conn = Connection("server")
    for blob in blobs:
        conn.on_datagram(blob, 0)
    assert conn.decode_errors <= len(blobs)


def _close_code(conn: Connection) -> int:
    built = conn.build_packet(0)
    closes = [f for f in built.packet.frames if isinstance(f, ConnectionCloseFrame)]
    assert len(closes) == 1
    return closes[0].error_code


def test_flow_control_violation_closes_with_its_code():
    assert PAST_FLOW_CONTROL == QuicPacket(
        PacketType.ONE_RTT, 0, [StreamFrame(0, 2**40, b"x")]
    ).encode()
    conn = Connection("server")
    conn.on_datagram(PAST_FLOW_CONTROL, 0)
    assert conn.packets_received == 1
    assert _close_code(conn) == 0x3  # FLOW_CONTROL_ERROR


def test_conflicting_final_size_closes_with_protocol_violation():
    conn = Connection("server")
    frames = [StreamFrame(0, 0, b"ab", fin=True), StreamFrame(0, 0, b"abc", fin=True)]
    conn.on_datagram(QuicPacket(PacketType.ONE_RTT, 0, frames).encode(), 0)
    assert _close_code(conn) == 0xA  # PROTOCOL_VIOLATION


def test_error_codes_follow_rfc9000():
    assert FlowControlError.error_code == 0x3
    assert EncodingError.error_code == 0x7
    assert ProtocolError.error_code == 0xA
