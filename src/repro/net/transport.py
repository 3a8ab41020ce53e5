"""Transports: how one node's frame reaches another node.

Two implementations behind one asyncio interface:

* :class:`ChannelTransport` — in-process: a call runs the destination's
  registered handler directly.  No serialization, no sockets; the fast
  path for tests and for the equivalence suite, where only the *message
  pattern* matters.
* :class:`TcpTransport` — loopback TCP: every node runs a real server
  on ``127.0.0.1`` and calls are length-prefixed frames of the fixed
  binary codec (:mod:`repro.net.codec`) over pooled connections, matched
  to their replies by request id.  The deployment-realistic path
  (serialization boundaries, kernel buffers, connection refusal on dead
  peers); nothing read off a socket is unpickled.

Both support killing a node — ``mode="refuse"`` fails callers immediately
(the TCP analogue: connection refused), ``mode="silent"`` swallows the
frame so the caller's deadline expires (a hung process) — which is how
:mod:`repro.net.runner` reinterprets ``CrashRestart`` faults as transport
faults.

This module is the *only* place in the repository allowed to read the
event-loop clock (``loop.time()``): per-RPC latencies are a transport
property, measured here on the wire (TCP: from a frame's write to the
read of its reply; channels: around the peer's handler, after the call's
one yield), so they leave out the loop's pass through the round's other
calls, and exposed via :attr:`Transport.latencies_s` so
benchmarks can report p99 RPC latency without protocol or runner code
ever touching a clock.  The ``wallclock`` lint rule enforces exactly this
containment.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.exceptions import ReproError
from repro.net.codec import (
    LENGTH,
    MAX_FRAME_BYTES,
    FrameError,
    decode_reply,
    decode_request,
    encode,
)

#: A registered per-node frame handler: ``handler(dst, frame)`` returns the
#: reply dict, or an awaitable of it when answering has to wait (an
#: ``async def`` handler, the runner's indirect probe).  A dict reply is
#: sent at once; only an awaitable one is answered from a task.
Handler = Callable[
    [int, Dict[str, Any]], Union[Dict[str, Any], Awaitable[Dict[str, Any]]]
]


class PeerUnreachable(ReproError):
    """The destination node is down and refusing frames (fail-fast path)."""


class Transport:
    """Base class: node registry, kill/revive state, latency recording."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("a transport needs at least 2 nodes")
        self.n = n
        self._handlers: Dict[int, Handler] = {}
        self._down: Set[int] = set()
        self._silent: Set[int] = set()
        #: Completed-call latencies on the wire in seconds (loop clock).
        self.latencies_s: List[float] = []
        self.calls = 0
        self.refused = 0

    # -- lifecycle ---------------------------------------------------------
    def register(self, node: int, handler: Handler) -> None:
        """Install ``node``'s frame handler (idempotent re-registration)."""
        self._check_node(node)
        self._handlers[node] = handler

    async def start(self) -> None:
        """Bring the transport up (listeners, ports).  Idempotent."""

    async def stop(self) -> None:
        """Tear the transport down and release resources."""

    # -- fault surface -----------------------------------------------------
    def kill(self, node: int, mode: str = "refuse") -> None:
        """Take ``node`` off the network.

        ``"refuse"`` makes calls to it raise :class:`PeerUnreachable`
        immediately — a crashed process whose port is closed.  ``"silent"``
        accepts the frame and never answers — a hung process; callers only
        notice through their RPC deadline, which is what the SWIM
        suspicion-latency tests exercise.
        """
        self._check_node(node)
        if mode not in ("refuse", "silent"):
            raise ValueError(f"unknown kill mode {mode!r}")
        self._down.add(node)
        if mode == "silent":
            self._silent.add(node)
        else:
            self._silent.discard(node)

    def revive(self, node: int) -> None:
        self._check_node(node)
        self._down.discard(node)
        self._silent.discard(node)

    def is_down(self, node: int) -> bool:
        return node in self._down

    @property
    def down(self) -> Set[int]:
        """The currently killed nodes (a copy)."""
        return set(self._down)

    # -- calls -------------------------------------------------------------
    async def call(self, src: int, dst: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Deliver ``frame`` to ``dst`` and await its reply."""
        self._check_node(src)
        self._check_node(dst)
        self.calls += 1
        if dst in self._down:
            if dst in self._silent:
                # A hung peer: park forever; the caller's deadline fires.
                await asyncio.Event().wait()
            self.refused += 1
            raise PeerUnreachable(f"node {dst} is down")
        return await self._deliver(src, dst, frame)

    async def _deliver(self, src: int, dst: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} out of range [0, {self.n})")

    def _handler_for(self, dst: int) -> Handler:
        handler = self._handlers.get(dst)
        if handler is None:
            raise PeerUnreachable(f"node {dst} has no registered handler")
        return handler


class ChannelTransport(Transport):
    """In-process transport: a call runs the peer's handler directly.

    One cooperative yield per call keeps scheduling fair (a node cannot
    starve the loop by serving a burst of frames synchronously), but there
    is no serialization — payloads cross by reference, exactly like the
    vectorized engine.  Handlers run inside the caller's task (an
    awaitable reply is awaited there), so per-call work is serialized by
    the event loop and protocol state needs no locks.
    """

    async def _deliver(self, src: int, dst: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        await asyncio.sleep(0)
        loop = asyncio.get_running_loop()
        started = loop.time()
        reply = self._handler_for(dst)(dst, frame)
        if not isinstance(reply, dict):
            reply = await reply
        self.latencies_s.append(loop.time() - started)
        return reply


def _frames(
    buffer: bytearray, decode: Callable[[bytes], Tuple[int, Dict[str, Any]]]
) -> List[Tuple[int, Dict[str, Any]]]:
    """Cut every complete frame off the front of ``buffer`` and decode it.

    Raises :class:`~repro.net.codec.FrameError` on a malformed body or a
    length prefix over :data:`~repro.net.codec.MAX_FRAME_BYTES`, without
    waiting for that frame's bytes.
    """
    frames = []
    offset = 0
    while len(buffer) - offset >= LENGTH.size:
        (length,) = LENGTH.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            raise FrameError(f"length prefix {length} exceeds {MAX_FRAME_BYTES}")
        end = offset + LENGTH.size + length
        if len(buffer) < end:
            break
        frames.append(decode(bytes(buffer[offset + LENGTH.size:end])))
        offset = end
    del buffer[:offset]
    return frames


class _Client(asyncio.Protocol):
    """One pooled (src, dst) connection: requests out, replies in by id.

    A reply read for a waiting caller appends the time since its request
    was written to ``latencies``."""

    def __init__(self, latencies: List[float]) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        # request id -> (the caller's future, the loop time of the write)
        self._pending: Dict[int, Tuple["asyncio.Future[Dict[str, Any]]", float]] = {}
        self._next_id = 0
        self._latencies = latencies
        self.closed = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        try:
            replies = _frames(self._buffer, decode_reply)
        except FrameError:
            self.close()
            return
        now = asyncio.get_running_loop().time()
        for req_id, reply in replies:
            # A reply whose caller's deadline already fired finds no future.
            future, written = self._pending.pop(req_id, (None, now))
            if future is not None and not future.done():
                future.set_result(reply)
                self._latencies.append(now - written)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed = True
        pending, self._pending = self._pending, {}
        for future, _ in pending.values():
            if not future.done():
                future.set_exception(ConnectionResetError("connection closed"))

    async def request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        req_id = self._next_id
        self._next_id = (req_id + 1) & 0xFFFFFFFF
        data = encode(req_id, frame)
        if self.closed or self._transport is None:
            raise ConnectionResetError("connection closed")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[req_id] = (future, loop.time())
        self._transport.write(data)
        try:
            return await future
        finally:
            self._pending.pop(req_id, None)

    def close(self) -> None:
        self.closed = True
        if self._transport is not None:
            self._transport.close()


class _Server(asyncio.Protocol):
    """One accepted connection to ``node``: each request is answered under
    its id as soon as it is read, or, when the handler returns an
    awaitable, from a task of its own once that resolves."""

    def __init__(self, owner: "TcpTransport", node: int) -> None:
        self._owner = owner
        self._node = node
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._tasks: Set["asyncio.Task[None]"] = set()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._owner._server_conns.add(self)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        try:
            requests = _frames(self._buffer, decode_request)
        except FrameError:
            # Malformed input ends this connection and nothing else.
            self.close()
            return
        owner, node = self._owner, self._node
        for req_id, frame in requests:
            if node in owner._down:
                # refuse: drop the connection; silent: swallow the frame.
                if node in owner._silent:
                    continue
                self.close()
                return
            try:
                reply = owner._handler_for(node)(node, frame)
                if not isinstance(reply, dict):
                    task = asyncio.get_running_loop().create_task(
                        self._answer(req_id, reply)
                    )
                    self._tasks.add(task)
                    task.add_done_callback(self._tasks.discard)
                    continue
                data = encode(req_id, reply)
            except Exception as exc:
                self._fail(exc)
                return
            self._transport.write(data)

    async def _answer(self, req_id: int, pending: Awaitable[Dict[str, Any]]) -> None:
        try:
            data = encode(req_id, await pending)
        except Exception as exc:
            self._fail(exc)
            return
        if self._transport is not None and not self._transport.is_closing():
            self._transport.write(data)

    def _fail(self, exc: Exception) -> None:
        # A reply that cannot be sent closes the connection, so the caller
        # fails fast instead of waiting out its deadline.
        self.close()
        asyncio.get_running_loop().call_exception_handler({
            "message": f"node {self._node} could not answer a frame",
            "exception": exc,
            "protocol": self,
        })

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._owner._server_conns.discard(self)

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    async def retire(self) -> None:
        """Close the connection and cancel its handlers still waiting."""
        self.close()
        tasks = tuple(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


class TcpTransport(Transport):
    """Loopback TCP transport: one server per node, pooled clients.

    Frames are the fixed binary codec of :mod:`repro.net.codec` behind a
    4-byte big-endian length prefix, spoken by one ``asyncio.Protocol``
    pair; nothing read off a socket is unpickled.  Each (src, dst) pair
    keeps one pooled connection; every request carries an id its reply
    echoes, so concurrent calls on a pair resolve their own futures with
    no lock.  A malformed or oversized frame closes that connection and
    nothing else.
    """

    def __init__(self, n: int, host: str = "127.0.0.1") -> None:
        super().__init__(n)
        self.host = host
        self._servers: Dict[int, asyncio.AbstractServer] = {}
        self._ports: Dict[int, int] = {}
        self._pool: Dict[Tuple[int, int], _Client] = {}
        self._server_conns: Set[_Server] = set()
        self._started = False

    async def start(self) -> None:
        if self._started:
            return
        loop = asyncio.get_running_loop()
        for node in range(self.n):
            server = await loop.create_server(
                functools.partial(_Server, self, node), host=self.host, port=0
            )
            self._servers[node] = server
            self._ports[node] = server.sockets[0].getsockname()[1]
        self._started = True

    def port_of(self, node: int) -> int:
        self._check_node(node)
        return self._ports[node]

    async def _connection(self, key: Tuple[int, int]) -> _Client:
        pooled = self._pool.get(key)
        if pooled is not None and not pooled.closed:
            return pooled
        _, client = await asyncio.get_running_loop().create_connection(
            functools.partial(_Client, self.latencies_s), self.host, self._ports[key[1]]
        )
        # A concurrent call on the pair may have dialled first; keep one.
        pooled = self._pool.get(key)
        if pooled is not None and not pooled.closed:
            client.close()
            return pooled
        self._pool[key] = client
        return client

    async def _deliver(self, src: int, dst: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        if not self._started:
            raise ReproError("TcpTransport.call before start()")
        key = (src, dst)
        try:
            client = await self._connection(key)
            return await client.request(frame)
        except OSError as exc:
            # Refused, or closed on us: a killed ("refuse") peer drops the
            # connection after reading the frame.
            pooled = self._pool.get(key)
            if pooled is not None and pooled.closed:
                del self._pool[key]
            self.refused += 1
            raise PeerUnreachable(f"node {dst} is unreachable: {exc}") from exc

    def kill(self, node: int, mode: str = "refuse") -> None:
        super().kill(node, mode=mode)
        if mode == "refuse":
            # Drop the peer's pooled inbound connections so the very next
            # frame fails fast instead of waiting on a half-open stream.
            for key in [k for k in self._pool if k[1] == node]:
                self._pool.pop(key).close()

    async def stop(self) -> None:
        for client in self._pool.values():
            client.close()
        self._pool.clear()
        for server in self._servers.values():
            server.close()
        # Close the accepted connections and cancel their in-flight
        # handlers ourselves rather than leave them to loop teardown.
        await asyncio.gather(*(conn.retire() for conn in tuple(self._server_conns)))
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        self._started = False
        # Let the closed transports' connection_lost callbacks run (they
        # release the sockets) before a caller closes the loop.
        await asyncio.sleep(0)


def resolve_transport(transport: Optional[object], n: int) -> Tuple[Transport, bool]:
    """Normalize a transport argument; returns ``(transport, owned)``.

    ``None`` builds a fresh :class:`ChannelTransport` owned by the run
    (started and stopped around it); the strings ``"channel"`` / ``"tcp"``
    build the named transport; an existing :class:`Transport` instance is
    used as-is and *not* stopped by the run, so sessions can keep kill
    state (dead peers stay dead) across several protocol runs.
    """
    if transport is None or transport == "channel":
        return ChannelTransport(n), True
    if transport == "tcp":
        return TcpTransport(n), True
    if isinstance(transport, Transport):
        if transport.n != n:
            raise ValueError(
                f"transport has {transport.n} nodes but the run has {n}"
            )
        return transport, False
    raise ValueError(f"unknown transport {transport!r}")
