"""The TCP wire codec: exact round trips, typed rejections, and payload
sections sized by the message accounting."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.aggregates.extrema import ExtremaProtocol
from repro.aggregates.push_sum import PushSumProtocol
from repro.core.tournament import PullWindow, TournamentProtocol, lane_rows
from repro.exceptions import ReproError
from repro.gossip.messages import BITS_HEADER, BITS_PER_VALUE, id_bits
from repro.net.codec import (
    LENGTH,
    MAX_FRAME_BYTES,
    FrameError,
    decode_reply,
    decode_request,
    encode,
)

PAYLOADS = {
    "none": None,
    "float": 0.1,
    "one-tuple": (2.5,),
    "two-tuple": (-1.0, 1e300),
    "nineteen-tuple": tuple(float(v) / 3.0 for v in range(19)),
    "float32": np.float32(0.1),
    "float64": np.float64(1.0 / 3.0),
    "infinities": (math.inf, -math.inf),
    "negative-zero": -0.0,
    "nan": math.nan,
}


def _bits(value):
    """A value with every float replaced by its IEEE-754 bytes."""
    if isinstance(value, float):
        return struct.pack("!d", value)
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    return value


def _expected(value):
    """What a payload decodes to: numpy floats arrive as Python floats."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, tuple):
        return tuple(float(item) for item in value)
    return value


def _roundtrip(message, decode, req_id=7):
    frame = encode(req_id, message)
    (length,) = LENGTH.unpack_from(frame)
    assert length == len(frame) - LENGTH.size
    got_id, decoded = decode(frame[LENGTH.size:])
    assert got_id == req_id
    return decoded


def _assert_exact(decoded, expected):
    assert _bits(decoded) == _bits(expected)
    for key, value in decoded.items():
        assert type(value) is type(expected[key])


# -- round trips -------------------------------------------------------------


@pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS.keys())
def test_push_and_payload_reply_roundtrip_bit_for_bit(payload):
    push = {"kind": "push", "src": 3, "round": 17, "payload": payload}
    _assert_exact(_roundtrip(push, decode_request),
                  dict(push, payload=_expected(payload)))
    reply = {"payload": payload}
    _assert_exact(_roundtrip(reply, decode_reply), {"payload": _expected(payload)})


@pytest.mark.parametrize(
    "frame",
    [
        {"kind": "push", "src": 0, "round": 4, "payload": (0.5, -0.0),
         "sus": [2, 5, 31]},
        {"kind": "push", "src": 1, "round": 0, "payload": None, "sus": []},
        {"kind": "pull", "src": 31, "round": 2**32 - 1},
        {"kind": "ping", "src": 9},
        {"kind": "ping-req", "src": 2, "target": 30, "timeout_s": 0.05},
    ],
    ids=["push-sus", "push-empty-sus", "pull", "ping", "ping-req"],
)
def test_request_kinds_roundtrip(frame):
    _assert_exact(_roundtrip(frame, decode_request), frame)


@pytest.mark.parametrize("ok", [True, False])
def test_ok_reply_roundtrips(ok):
    assert _roundtrip({"ok": ok}, decode_reply, req_id=2**32 - 1) == {"ok": ok}


# -- typed rejections --------------------------------------------------------


@pytest.mark.parametrize(
    "message",
    [
        {"kind": "gossip", "src": 0},
        {"kind": "pull", "src": 0, "round": 1, "x": 2},
        {"kind": "pull", "src": 0},
        {"kind": "ping", "src": 0, "sus": [1]},
        {"kind": "ping-req", "src": 0, "target": 1, "timeout_s": 1},
        {"kind": "push", "src": 0, "round": 0, "payload": 1.0, "sus": (1,)},
        {"kind": "pull", "src": -1, "round": 0},
        {"ok": 1},
        {"ok": True, "payload": None},
        {"x": 1},
    ],
    ids=["unknown-kind", "extra-key", "missing-key", "sus-on-ping",
         "int-timeout", "tuple-digest", "negative-src", "int-ok",
         "two-replies", "not-a-frame"],
)
def test_malformed_frames_raise_the_typed_error(message):
    with pytest.raises(FrameError):
        encode(0, message)
    assert issubclass(FrameError, ReproError)


@pytest.mark.parametrize(
    "payload",
    ["abc", {"a": 1.0}, ((1.0,), 2.0), [1.0, 2.0], 1, True, (1.0, 2),
     np.arange(2.0)],
    ids=["str", "dict", "nested", "list", "int", "bool", "int-in-tuple",
         "ndarray"],
)
def test_non_float_payloads_raise_the_typed_error(payload):
    with pytest.raises(FrameError):
        encode(0, {"kind": "push", "src": 0, "round": 0, "payload": payload})
    with pytest.raises(FrameError):
        encode(0, {"payload": payload})


def test_a_frame_over_the_cap_is_refused_before_writing():
    values = (1.0,) * (MAX_FRAME_BYTES // 8)
    with pytest.raises(FrameError):
        encode(0, {"payload": values})


def _body(message):
    return encode(5, message)[LENGTH.size:]


@pytest.mark.parametrize(
    "body,decode",
    [
        (b"", decode_request),
        (b"\x00\x00\x00\x05\x63", decode_request),
        (_body({"kind": "pull", "src": 1, "round": 2})[:-1], decode_request),
        (_body({"kind": "pull", "src": 1, "round": 2}) + b"\x00", decode_request),
        (_body({"payload": (1.0, 2.0)})[:-8], decode_reply),
        (_body({"ok": True}), decode_request),
        (_body({"kind": "ping", "src": 1}), decode_reply),
        (_body({"ok": True})[:-1] + b"\x02", decode_reply),
        # a scalar payload that claims two values
        (_body({"payload": (1.0, 2.0)})[:5] + b"\x01" + _body({"payload": (1.0, 2.0)})[6:],
         decode_reply),
    ],
    ids=["empty", "unknown-kind-byte", "short-body", "trailing-byte",
         "short-payload", "reply-as-request", "request-as-reply", "ok-byte",
         "shape-count-mismatch"],
)
def test_malformed_bodies_raise_the_typed_error(body, decode):
    with pytest.raises(FrameError):
        decode(body)


# -- the payload section is what the accounting charges ----------------------


def _payload_section_bits(frame_with, frame_without):
    """Bits a payload adds to a frame: the fixed header is the same."""
    return 8 * (len(encode(0, frame_with)) - len(encode(0, frame_without)))


def _value_bits(protocol, payload):
    """The value bits of ``message_bits``: all but framing and sender id."""
    return protocol.message_bits(payload) - BITS_HEADER - id_bits(protocol.n)


N = 16
_VALUES = np.random.default_rng(4).random(N)


@pytest.mark.parametrize(
    "protocol,lanes",
    [
        (ExtremaProtocol(_VALUES), 1),
        (ExtremaProtocol(np.stack([_VALUES, -_VALUES], axis=1),
                         mode=("min", "max")), 2),
        (TournamentProtocol(lane_rows(_VALUES, np.float64),
                            [PullWindow(1, lambda pulls: pulls.rows()[0])]), 1),
        (TournamentProtocol(lane_rows(np.stack([_VALUES] * 3, axis=1), np.float64),
                            [PullWindow(1, lambda pulls: pulls.rows()[0])]), 3),
    ],
    ids=["extrema-1", "extrema-2", "tournament-1", "tournament-3"],
)
def test_pull_response_payload_is_the_charged_value_bits(protocol, lanes):
    payload = protocol.serve_pull(3, 5, 0)
    bits = _payload_section_bits({"payload": payload}, {"payload": None})
    assert bits == _value_bits(protocol, payload) == lanes * BITS_PER_VALUE


def test_push_sum_push_payload_is_the_charged_value_bits():
    protocol = PushSumProtocol(_VALUES, rounds=3)
    payload = protocol.act(2, 0).payload
    push = {"kind": "push", "src": 2, "round": 0}
    bits = _payload_section_bits(dict(push, payload=payload),
                                 dict(push, payload=None))
    assert bits == _value_bits(protocol, payload) == 2 * BITS_PER_VALUE
