"""Transports: how one node's frame reaches another node.

Two implementations behind one asyncio interface:

* :class:`ChannelTransport` — in-process: a call awaits the destination's
  registered handler directly.  No serialization, no sockets; the fast
  path for tests and for the equivalence suite, where only the *message
  pattern* matters.
* :class:`TcpTransport` — loopback TCP: every node runs a real
  ``asyncio.start_server`` stream server on ``127.0.0.1`` and calls are
  length-prefixed pickled frames over pooled connections.  The deployment-
  realistic path (serialization boundaries, kernel buffers, connection
  refusal on dead peers).

Both support killing a node — ``mode="refuse"`` fails callers immediately
(the TCP analogue: connection refused), ``mode="silent"`` swallows the
frame so the caller's deadline expires (a hung process) — which is how
:mod:`repro.net.runner` reinterprets ``CrashRestart`` faults as transport
faults.

This module is the *only* place in the repository allowed to read the
event-loop clock (``loop.time()``): per-RPC latencies are a transport
property, measured here and exposed via :attr:`Transport.latencies_s` so
benchmarks can report p99 RPC latency without protocol or runner code
ever touching a clock.  The ``wallclock`` lint rule enforces exactly this
containment.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.exceptions import ReproError

#: A registered per-node frame handler: ``handler(dst, frame) -> reply``.
Handler = Callable[[int, Dict[str, Any]], Awaitable[Dict[str, Any]]]


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
        #: Completed-call round-trip latencies in seconds (loop clock).
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
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.calls += 1
        if dst in self._down:
            if dst in self._silent:
                # A hung peer: park forever; the caller's deadline fires.
                await asyncio.Event().wait()
            self.refused += 1
            raise PeerUnreachable(f"node {dst} is down")
        reply = await self._deliver(src, dst, frame)
        self.latencies_s.append(loop.time() - started)
        return reply

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
    """In-process transport: a call awaits the peer's handler directly.

    One cooperative yield per call keeps scheduling fair (a node cannot
    starve the loop by serving a burst of frames synchronously), but there
    is no serialization — payloads cross by reference, exactly like the
    vectorized engine.  Handlers run inside the caller's await, so per-call
    work is serialized by the event loop and protocol state needs no locks.
    """

    async def _deliver(self, src: int, dst: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        await asyncio.sleep(0)
        return await self._handler_for(dst)(dst, frame)


class TcpTransport(Transport):
    """Loopback TCP transport: one stream server per node, pooled clients.

    Frames are pickled dicts behind a 4-byte big-endian length prefix.
    Each (src, dst) pair keeps one pooled connection guarded by a lock —
    requests on a pair are serialized, pairs proceed concurrently — which
    matches the one-outstanding-call-per-partner pattern of synchronous
    gossip rounds while exercising real sockets end to end.
    """

    _LEN = struct.Struct("!I")

    def __init__(self, n: int, host: str = "127.0.0.1") -> None:
        super().__init__(n)
        self.host = host
        self._servers: Dict[int, asyncio.AbstractServer] = {}
        self._ports: Dict[int, int] = {}
        self._pool: Dict[
            Tuple[int, int],
            Tuple[asyncio.StreamReader, asyncio.StreamWriter],
        ] = {}
        self._locks: Dict[Tuple[int, int], asyncio.Lock] = {}
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._started = False

    async def start(self) -> None:
        if self._started:
            return
        for node in range(self.n):
            server = await asyncio.start_server(
                self._serve_connection(node), host=self.host, port=0
            )
            self._servers[node] = server
            self._ports[node] = server.sockets[0].getsockname()[1]
        self._started = True

    def port_of(self, node: int) -> int:
        self._check_node(node)
        return self._ports[node]

    def _serve_connection(
        self, node: int
    ) -> Callable[[asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]]:
        async def serve(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            task = asyncio.current_task()
            if task is not None:
                self._conn_tasks.add(task)
            try:
                while True:
                    frame = await self._read_frame(reader)
                    if frame is None:
                        break
                    if node in self._down:
                        # refuse: drop the connection; silent: swallow.
                        if node in self._silent:
                            continue
                        break
                    reply = await self._handler_for(node)(node, frame)
                    await self._write_frame(writer, reply)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            except asyncio.CancelledError:
                # stop() retires handlers by cancellation; ending the task
                # *cancelled* would make the stream machinery re-raise from
                # its done-callback at loop teardown, so finish cleanly.
                pass
            finally:
                if task is not None:
                    self._conn_tasks.discard(task)
                writer.close()

        return serve

    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> Optional[Dict[str, Any]]:
        try:
            header = await reader.readexactly(self._LEN.size)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        (length,) = self._LEN.unpack(header)
        body = await reader.readexactly(length)
        return pickle.loads(body)

    async def _write_frame(
        self, writer: asyncio.StreamWriter, frame: Dict[str, Any]
    ) -> None:
        body = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        writer.write(self._LEN.pack(len(body)) + body)
        await writer.drain()

    async def _connection(
        self, src: int, dst: int
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        key = (src, dst)
        pooled = self._pool.get(key)
        if pooled is not None and not pooled[1].is_closing():
            return pooled
        reader, writer = await asyncio.open_connection(self.host, self._ports[dst])
        self._pool[key] = (reader, writer)
        return reader, writer

    async def _deliver(self, src: int, dst: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        if not self._started:
            raise ReproError("TcpTransport.call before start()")
        key = (src, dst)
        lock = self._locks.setdefault(key, asyncio.Lock())
        async with lock:
            try:
                reader, writer = await self._connection(src, dst)
                await self._write_frame(writer, frame)
                reply = await self._read_frame(reader)
            except (ConnectionError, OSError) as exc:
                self._pool.pop(key, None)
                self.refused += 1
                raise PeerUnreachable(f"node {dst} is unreachable: {exc}") from exc
        if reply is None:
            # The server closed on us: a killed ("refuse") peer dropped the
            # connection after reading the frame.
            self._pool.pop(key, None)
            self.refused += 1
            raise PeerUnreachable(f"node {dst} closed the connection")
        return reply

    def kill(self, node: int, mode: str = "refuse") -> None:
        super().kill(node, mode=mode)
        if mode == "refuse":
            # Drop the peer's pooled inbound connections so the very next
            # frame fails fast instead of waiting on a half-open stream.
            for key in [k for k in self._pool if k[1] == node]:
                self._pool.pop(key)[1].close()

    async def stop(self) -> None:
        for _, writer in self._pool.values():
            writer.close()
        self._pool.clear()
        for server in self._servers.values():
            server.close()
        # Retire the per-connection handler tasks ourselves: left to the
        # event loop's shutdown they would die *cancelled* mid-read, and
        # Python 3.11's stream done-callback re-raises that as loud
        # "Exception in callback" noise.
        if self._conn_tasks:
            tasks = tuple(self._conn_tasks)
            await asyncio.wait(tasks, timeout=0.2)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._conn_tasks.clear()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        self._started = False


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
