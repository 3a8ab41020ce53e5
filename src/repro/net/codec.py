"""The wire format of :class:`~repro.net.transport.TcpTransport`.

A fixed binary codec for the frames the asyncio runner and the SWIM
detector exchange, so nothing read off a socket is ever unpickled.  A
frame is a big-endian ``u32`` body length followed by the body: the
request id (``u32``, echoed by the reply so the caller's future resolves
by id), one kind byte, and the kind's fields:

============  ====  ==================================================
kind          byte  fields after the kind byte
============  ====  ==================================================
``push``      1     src u32, round u32, payload
``push`` +sus 2     src u32, round u32, digest size u16, payload,
                    digest (one u32 node id each)
``pull``      3     src u32, round u32
``ping``      4     src u32
``ping-req``  5     src u32, target u32, timeout_s f64
``ok`` reply  6     ok u8 (0 or 1)
payload reply 7     payload
============  ====  ==================================================

A payload is a shape byte (0 ``None``, 1 one float, 2 a tuple of floats)
and a value count ``u16``, then the *payload section*: the values as
big-endian float64 — exactly the 64 bits per value that
``message_bits`` charges (:data:`~repro.gossip.messages.BITS_PER_VALUE`).
numpy floating scalars travel as float64 and decode as Python floats.

Anything else — an unknown kind, a missing or extra key, an int, str,
dict or nested payload, a body over :data:`MAX_FRAME_BYTES` — raises
:class:`FrameError` before a byte is written (encoding) or as soon as the
body is read (decoding).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.exceptions import ReproError

#: Largest frame body either side writes or accepts, in bytes.
MAX_FRAME_BYTES = 1 << 16

#: The big-endian ``u32`` body length in front of every frame.
LENGTH = struct.Struct("!I")

Body = Union[bytes, bytearray, memoryview]

PUSH, PUSH_SUS, PULL, PING, PING_REQ, REPLY_OK, REPLY_PAYLOAD = range(1, 8)
_NONE, _SCALAR, _TUPLE = range(3)

# Fixed parts of each body: request id, kind byte, then the kind's fields
# (a payload's shape byte and count close the fixed part of its kind).
_HEAD = struct.Struct("!IB")
_PUSH = struct.Struct("!IBIIBH")
_PUSH_SUS = struct.Struct("!IBIIHBH")
_PULL = struct.Struct("!IBII")
_PING = struct.Struct("!IBI")
_PING_REQ = struct.Struct("!IBIId")
_REPLY_OK = struct.Struct("!IBB")
_REPLY_PAYLOAD = struct.Struct("!IBBH")

#: The keys each request kind carries, "kind" included.
_REQUEST_KEYS = {
    "push": frozenset({"kind", "src", "round", "payload"}),
    "pull": frozenset({"kind", "src", "round"}),
    "ping": frozenset({"kind", "src"}),
    "ping-req": frozenset({"kind", "src", "target", "timeout_s"}),
}


class FrameError(ReproError):
    """A frame the codec cannot encode, or bytes that are not a frame."""


def _values(payload: Any) -> Tuple[int, Tuple[Any, ...]]:
    """A payload's shape code and its values."""
    if payload is None:
        return _NONE, ()
    if isinstance(payload, (float, np.floating)):
        return _SCALAR, (payload,)
    if type(payload) is tuple:
        for value in payload:
            if not isinstance(value, (float, np.floating)):
                raise FrameError(
                    f"payload tuples carry floats only, got {type(value).__name__}"
                )
        return _TUPLE, payload
    raise FrameError(
        f"a payload is None, a float or a flat tuple of floats, "
        f"got {type(payload).__name__}"
    )


def _pack(head: struct.Struct, tail: str, *fields: Any) -> bytes:
    """The length-prefixed frame of the ``head`` then the ``tail`` fields."""
    try:
        body = struct.pack(head.format + tail, *fields) if tail else head.pack(*fields)
    except struct.error as exc:
        raise FrameError(f"frame field out of range: {exc}") from None
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"a {len(body)}-byte frame body exceeds {MAX_FRAME_BYTES}")
    return LENGTH.pack(len(body)) + body


def encode(req_id: int, message: Mapping[str, Any]) -> bytes:
    """The length-prefixed frame of a request or reply dict."""
    if "kind" not in message:
        if message.keys() == {"ok"}:
            ok = message["ok"]
            if type(ok) is not bool:
                raise FrameError(f"'ok' must be a bool, got {type(ok).__name__}")
            return _pack(_REPLY_OK, "", req_id, REPLY_OK, ok)
        if message.keys() == {"payload"}:
            shape, values = _values(message["payload"])
            return _pack(
                _REPLY_PAYLOAD, f"{len(values)}d",
                req_id, REPLY_PAYLOAD, shape, len(values), *values,
            )
        raise FrameError(f"not a request or reply: keys {sorted(message)}")
    kind = message["kind"]
    keys = message.keys()
    if kind == "push" and "sus" in keys:
        keys = keys - {"sus"}
    if not isinstance(kind, str) or keys != _REQUEST_KEYS.get(kind):
        raise FrameError(f"not a {kind!r} frame: keys {sorted(message)}")
    if kind == "push":
        shape, values = _values(message["payload"])
        if "sus" not in message:
            return _pack(
                _PUSH, f"{len(values)}d",
                req_id, PUSH, message["src"], message["round"],
                shape, len(values), *values,
            )
        digest = message["sus"]
        if type(digest) is not list:
            raise FrameError(
                f"a suspicion digest is a list of node ids, "
                f"got {type(digest).__name__}"
            )
        return _pack(
            _PUSH_SUS, f"{len(values)}d{len(digest)}I",
            req_id, PUSH_SUS, message["src"], message["round"], len(digest),
            shape, len(values), *values, *digest,
        )
    if kind == "pull":
        return _pack(_PULL, "", req_id, PULL, message["src"], message["round"])
    if kind == "ping":
        return _pack(_PING, "", req_id, PING, message["src"])
    timeout_s = message["timeout_s"]
    if not isinstance(timeout_s, float):
        raise FrameError(
            f"'timeout_s' must be a float, got {type(timeout_s).__name__}"
        )
    return _pack(
        _PING_REQ, "", req_id, PING_REQ, message["src"], message["target"],
        timeout_s,
    )


def _payload(body: Body, head: struct.Struct, shape: int, count: int) -> Any:
    """The payload whose section starts right after ``head`` in ``body``."""
    if shape == _NONE and count == 0:
        return None
    values = struct.unpack_from(f"!{count}d", body, head.size)
    if shape == _SCALAR and count == 1:
        return values[0]
    if shape == _TUPLE:
        return values
    raise FrameError(f"payload shape {shape} with {count} values")


def _exact(body: Body, size: int) -> None:
    if len(body) != size:
        raise FrameError(f"a {len(body)}-byte body where the kind needs {size}")


def _decode(body: Body) -> Tuple[int, int, Dict[str, Any]]:
    req_id, kind = _HEAD.unpack_from(body)
    if kind == PUSH:
        _, _, src, round_index, shape, count = _PUSH.unpack_from(body)
        _exact(body, _PUSH.size + 8 * count)
        return req_id, kind, {
            "kind": "push", "src": src, "round": round_index,
            "payload": _payload(body, _PUSH, shape, count),
        }
    if kind == PUSH_SUS:
        _, _, src, round_index, size, shape, count = _PUSH_SUS.unpack_from(body)
        _exact(body, _PUSH_SUS.size + 8 * count + 4 * size)
        digest: List[int] = list(
            struct.unpack_from(f"!{size}I", body, _PUSH_SUS.size + 8 * count)
        )
        return req_id, kind, {
            "kind": "push", "src": src, "round": round_index,
            "payload": _payload(body, _PUSH_SUS, shape, count), "sus": digest,
        }
    if kind == PULL:
        _, _, src, round_index = _PULL.unpack(body)
        return req_id, kind, {"kind": "pull", "src": src, "round": round_index}
    if kind == PING:
        _, _, src = _PING.unpack(body)
        return req_id, kind, {"kind": "ping", "src": src}
    if kind == PING_REQ:
        _, _, src, target, timeout_s = _PING_REQ.unpack(body)
        return req_id, kind, {
            "kind": "ping-req", "src": src, "target": target,
            "timeout_s": timeout_s,
        }
    if kind == REPLY_OK:
        _, _, ok = _REPLY_OK.unpack(body)
        if ok > 1:
            raise FrameError(f"'ok' byte {ok}")
        return req_id, kind, {"ok": bool(ok)}
    if kind == REPLY_PAYLOAD:
        _, _, shape, count = _REPLY_PAYLOAD.unpack_from(body)
        _exact(body, _REPLY_PAYLOAD.size + 8 * count)
        return req_id, kind, {"payload": _payload(body, _REPLY_PAYLOAD, shape, count)}
    raise FrameError(f"unknown frame kind byte {kind}")


def _decode_as(body: Body, replies: bool) -> Tuple[int, Dict[str, Any]]:
    try:
        req_id, kind, message = _decode(body)
    except struct.error as exc:
        raise FrameError(f"malformed frame body: {exc}") from None
    if (kind >= REPLY_OK) != replies:
        raise FrameError(f"frame kind byte {kind} on the wrong side of a call")
    return req_id, message


def decode_request(body: Body) -> Tuple[int, Dict[str, Any]]:
    """``(request id, frame)`` of one request body (length prefix stripped)."""
    return _decode_as(body, replies=False)


def decode_reply(body: Body) -> Tuple[int, Dict[str, Any]]:
    """``(request id, reply)`` of one reply body (length prefix stripped)."""
    return _decode_as(body, replies=True)


__all__ = [
    "FrameError",
    "LENGTH",
    "MAX_FRAME_BYTES",
    "decode_reply",
    "decode_request",
    "encode",
]
