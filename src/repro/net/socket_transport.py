"""Real-socket transport: the 4-method transport seam over TCP/Unix sockets.

:class:`SocketTransport` implements the same tiny seam as
:class:`~repro.sim.asyncio_runtime.InMemoryTransport` — ``open`` / ``put`` /
``get`` / ``close`` moving ``(sender, message)`` pairs — but every cross-node
pair travels through a real stream socket: length-prefixed frames
(:mod:`repro.net.framing`) carrying the pickled tuple-bundle message payload,
authenticated per ordered node pair with the HMAC-SHA256 keys of
:mod:`repro.crypto.hmac_channel`'s derivation.  It backs two deployments:

* **single process, real sockets** — one transport hosting *all* node
  endpoints on one event loop (each endpoint gets its own listener and its
  own per-peer connections), dropped into :class:`AsyncioRuntime` unchanged.
  This is the loopback mesh the parity tests use: the same DORA epoch runs
  on in-memory queues and on real TCP and must certify the same value;
* **one process per node** — each OS process hosts exactly one endpoint
  (``local_ids=[node_id]``) and dials its peers by address.  This is what
  ``python -m repro cluster`` deploys (:mod:`repro.oracle.cluster`).

Transport contract: the one :class:`InMemoryTransport` states (regression
tests assert both agree).  What a real network adds: ``put`` never blocks on
it — remote sends are queued on a per-peer channel, self-delivery goes
straight to the local inbox — and a message for an unreachable peer, or one
no frame could carry, is **dropped and counted** like a ``put`` after
``close`` (``dropped_unreachable`` / ``dropped_oversize`` /
``dropped_after_close``): the seam is best-effort, exactly like the crash
fault model, and teardown races must not crash a node.  ``close`` tears down
every task, socket and Unix path the transport created.

Wire.  Each time a channel's flush callback runs, everything queued for its
peer leaves as one sealed DATA frame of length-prefixed message blobs
(:func:`~repro.net.framing.join_blobs`): one sequence number, one HMAC, one
``write`` per batch, nothing held back for more traffic.  Two payload-pure
caches keep the pickle off the per-message path: a broadcast is pickled once
(``Message._wire``) and equal authenticated bytes are unpickled once
(:data:`_LOADED`), so every receiver of one content shares one message.

Security model.  Frames are authenticated (tamper ⇒
:class:`~repro.errors.AuthenticationError`, replay ⇒
:class:`~repro.errors.ReplayError`, both counted and the connection dropped
— a Byzantine peer cannot crash an honest node).  No payload byte is parsed
before the tag and the replay window pass; the batch is then split with
every length checked against the verified payload, and each first-seen blob
is unpickled and validated.  Holders of a pairwise key are trusted exactly
as the paper's authenticated-channel assumption trusts them.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import random
import time
from collections import deque
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.crypto.hmac_channel import ChannelKeyring
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    FrameError,
    ReplayError,
    TransportClosedError,
    TransportError,
)
from repro.net.framing import (
    ChannelCodec,
    DATA_HEADER_BYTES,
    FrameDecoder,
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    NONCE_BYTES,
    decode_ack,
    decode_hello,
    encode_ack,
    encode_frame,
    encode_hello,
    join_blobs,
    split_blobs,
    verify_ack,
    verify_hello,
)
from repro.net.inbox import Inbox
from repro.net.message import Message

#: A listen/dial address: ``("tcp", host, port)`` or ``("unix", path)``.
Address = Tuple[Any, ...]

#: Exclusive upper bound on the round field :func:`loads_message` accepts.
MAX_WIRE_ROUND = 2**32


def normalise_address(address: Sequence[Any]) -> Address:
    """Validate and canonicalise one address tuple (JSON lists accepted)."""
    parts = tuple(address)
    if len(parts) == 3 and parts[0] == "tcp":
        return ("tcp", str(parts[1]), int(parts[2]))
    if len(parts) == 2 and parts[0] == "unix":
        return ("unix", str(parts[1]))
    raise ConfigurationError(f"malformed transport address {address!r}")


def backoff_delay(base: float, cap: float, failures: int, rng: random.Random) -> float:
    """Capped exponential backoff with jitter for redial scheduling.

    ``failures`` counts consecutive connect failures (>= 1).  The raw delay
    doubles per failure from ``base`` and saturates at ``cap``; the jitter
    factor (drawn from ``rng``, uniform in ``[0.5, 1.5)``) decorrelates the
    redial storms of many senders that lost the same peer at the same
    moment.  With a seeded ``rng`` the sequence is fully deterministic.
    """
    exponent = min(max(failures, 1) - 1, 62)  # clamp before 2**k overflows
    raw = min(cap, base * (2.0 ** exponent))
    return raw * (0.5 + rng.random())


def dumps_message(message: Message) -> bytes:
    """Serialise one message for the wire (pickled 4-tuple).

    The flat-tuple bundle payloads (:mod:`repro.core.bundling`) pickle
    compactly and round-trip exactly — including float bit patterns, which
    the certificate parity checks rely on.  The bytes are memoised on the
    message (``_wire``), so a broadcast is pickled once, not once per
    :class:`_Sender` channel; sealing stays per channel and per frame.
    """
    wire = getattr(message, "_wire", None)
    if wire is None:
        wire = pickle.dumps(
            (message.protocol, message.mtype, message.round, message.payload),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        object.__setattr__(message, "_wire", wire)
    return wire


#: Authenticated wire bytes -> the :class:`Message` they unpickle to.  Equal
#: bytes unpickle to equal-typed values, so there is no admission walk.  Sized
#: like ``bundling._DECODED`` (an n = 7 epoch has ~50 distinct contents):
#: entry count and bytes per entry capped, overflow starts over.
_LOADED: Dict[bytes, Message] = {}
_LOADED_CAP = 512
_LOADED_MAX_BYTES = 8192


def loads_message(payload: bytes) -> Message:
    """Deserialise one wire payload back into a :class:`Message`.

    Only ever called on authenticated payload bytes; still validates the
    shape so a buggy (not just hostile) peer yields a typed error, and
    bounds the round so a hostile one cannot reach ``math.log2`` with a
    negative number or mint round-memo entries without end.  Every
    first-seen byte string is unpickled and validated; a repeat returns the
    message the first one built (:data:`_LOADED`).
    """
    message = _LOADED.get(payload)
    if message is not None:
        return message
    try:
        parts = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - wrap into the typed hierarchy
        raise FrameError(f"undecodable message payload: {error!r}") from error
    if (
        not isinstance(parts, tuple)
        or len(parts) != 4
        or not isinstance(parts[0], str)
        or not isinstance(parts[1], str)
        or not (
            parts[2] is None
            or (type(parts[2]) is int and 0 <= parts[2] < MAX_WIRE_ROUND)
        )
    ):
        raise FrameError(f"malformed message tuple {parts!r}")
    message = Message(parts[0], parts[1], parts[2], parts[3])
    if len(payload) <= _LOADED_MAX_BYTES:
        if len(_LOADED) >= _LOADED_CAP:
            _LOADED.clear()
        _LOADED[payload] = message
    return message


class _Sender:
    """One ordered channel ``local_id -> peer``: outbox, connection, dial task.

    ``put`` schedules one :meth:`_flush` loop callback, and everything
    queued by the time it runs leaves as one frame — concurrent ``put``
    callers can interleave *messages* but never *bytes within a frame*, and
    per-channel FIFO holds across frame boundaries.
    """

    def __init__(self, transport: "SocketTransport", local_id: int, peer: int) -> None:
        self.transport = transport
        self.local_id = local_id
        self.peer = peer
        self.outbox: deque[Message] = deque()
        self.writer: Optional[asyncio.StreamWriter] = None
        self.codec: Optional[ChannelCodec] = None
        self.backoff_until = 0.0
        #: Consecutive connect/write failures since the last good handshake;
        #: drives the exponential redial backoff.
        self.failures = 0
        # Deterministic per-channel jitter: distinct (local, peer) channels
        # de-synchronise even with the same transport-level seed.
        self._backoff_rng = random.Random(
            (transport.backoff_seed << 16) ^ (local_id << 8) ^ peer
        )
        #: A ``_flush`` callback is scheduled or the dial task alive: either
        #: takes what ``put`` appends.
        self.busy = False
        self.task: Optional[asyncio.Task] = None

    # -- connection management -----------------------------------------
    async def _dial(self) -> None:
        transport = self.transport
        address = transport.address_of(self.peer)
        # One deadline over connect + HELLO + HELLO-ACK (no task per step).
        async with asyncio.timeout(transport.dial_timeout):
            if address[0] == "unix":
                reader, writer = await asyncio.open_unix_connection(address[1])
            else:
                reader, writer = await asyncio.open_connection(address[1], address[2])
            try:
                key = transport.keyring(self.local_id).key_for(self.peer)
                nonce = os.urandom(NONCE_BYTES)
                hello = encode_hello(key, self.local_id, self.peer, transport.epoch, nonce)
                writer.write(encode_frame(hello, transport.max_frame_bytes))
                prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
                length = int.from_bytes(prefix, "big")
                if length > transport.max_frame_bytes:
                    raise FrameError(f"oversized HELLO-ACK ({length} bytes)")
                peer_epoch, ack_nonce, tag = decode_ack(await reader.readexactly(length))
                verify_ack(
                    key, self.local_id, self.peer, peer_epoch, nonce, ack_nonce, tag
                )
            except BaseException:
                writer.close()
                raise
        self.writer = writer
        self.codec = ChannelCodec(key, nonce, ack_nonce)
        # A completed handshake proves the peer is back: restart the
        # backoff schedule from its base for the next outage.
        self.failures = 0
        self.backoff_until = 0.0

    def _disconnect(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.writer = self.codec = None

    async def _connect_with_retries(self) -> bool:
        transport = self.transport
        if time.monotonic() < self.backoff_until:
            return False
        for attempt in range(transport.dial_retries):
            try:
                await self._dial()
                return True
            except Exception:  # noqa: BLE001 - unreachable peer, typed drop below
                if attempt + 1 < transport.dial_retries:
                    await asyncio.sleep(transport.dial_retry_delay)
        self._note_failure()
        return False

    def _note_failure(self) -> None:
        """Hang up and schedule the next redial: exponential, capped, jittered."""
        self._disconnect()
        self.failures += 1
        delay = backoff_delay(
            self.transport.redial_backoff,
            self.transport.redial_backoff_max,
            self.failures,
            self._backoff_rng,
        )
        self.backoff_until = time.monotonic() + delay

    # -- the send path --------------------------------------------------
    def _flush(self) -> None:
        """Loop callback: write what is queued now, or hand it to the task."""
        if self.writer is not None:
            self._write()
        self.busy = bool(self.outbox)
        if self.busy:  # channel down, or its write buffer full
            self.task = asyncio.create_task(self._run())

    def _write(self) -> None:
        """Everything queued, in order, one frame per ``max_frame_bytes``, until
        the write buffer passes its high-water mark (``drain()`` would wait)."""
        transport, outbox, wire = self.transport, self.outbox, self.writer.transport
        high_water = wire.get_write_buffer_limits()[1]
        while outbox and wire.get_write_buffer_size() <= high_water:
            # Split only where the next blob would pass the frame cap; a
            # lone blob past it costs itself only.
            blobs: List[bytes] = []
            room = transport.max_frame_bytes - DATA_HEADER_BYTES
            while outbox:
                blob = dumps_message(outbox[0])
                if blobs and LENGTH_PREFIX_BYTES + len(blob) > room:
                    break
                room -= LENGTH_PREFIX_BYTES + len(blob)
                blobs.append(blob)
                outbox.popleft()
            if room < 0:  # only a lone first blob can overdraw the frame
                transport.dropped_oversize += 1
                continue
            body = self.codec.seal(join_blobs(blobs))
            frame = encode_frame(body, transport.max_frame_bytes)
            wire.write(transport._maybe_corrupt(self.local_id, self.peer, frame))
            if wire.is_closing():  # the peer hung up, or this write failed
                self._note_failure()
                transport.dropped_unreachable += len(blobs)
                return
            transport.frames_sent += 1
            transport.messages_sent += len(blobs)

    async def _run(self) -> None:
        """The dial task lives while the outbox waits on an ``await`` — connect
        + handshake, the retry sleep, ``drain()`` — and ``put`` keeps coalescing."""
        transport, outbox = self.transport, self.outbox
        try:
            while outbox:
                if self.writer is None and not await self._connect_with_retries():
                    transport.dropped_unreachable += len(outbox)
                    outbox.clear()
                    return
                self._write()
                writer = self.writer
                if outbox and writer is not None:  # over the high-water mark
                    try:
                        await writer.drain()
                    except Exception:  # noqa: BLE001 - peer died with bytes buffered
                        if self.writer is writer:  # not our own reset_connection
                            self._note_failure()
        finally:
            self.task, self.busy = None, False

    def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
        self.outbox.clear()
        self._disconnect()


class SocketTransport:
    """Authenticated socket transport for the asyncio runtime and the cluster.

    Parameters
    ----------
    addresses:
        ``node_id -> ("tcp", host, port) | ("unix", path)`` listen addresses
        for *every* endpoint this transport may talk to.  ``None`` means
        "auto": :meth:`open` binds one ephemeral localhost TCP listener per
        hosted id (single-process mesh mode).
    local_ids:
        The ids this transport hosts (one per cluster node process; ``None``
        = whatever :meth:`open` is called with, the runtime mesh case).
    num_channel_ids:
        Size of the pairwise-key id space (defaults to covering the largest
        known id; the cluster passes ``n + 1`` so the supervisor id gets
        keys too).
    master_secret:
        Channel-key master secret — the persistent PKI handout: every
        process derives the identical pairwise keys from it.
    epoch:
        Epoch tag carried in this transport's handshakes (see
        :meth:`advance_epoch`).
    redial_backoff / redial_backoff_max / backoff_seed:
        Redial scheduling for unreachable peers: after every failed connect
        cycle (or mid-write disconnect) the next attempt is pushed out by a
        capped exponential backoff — base ``redial_backoff`` seconds
        doubling per consecutive failure up to ``redial_backoff_max`` —
        with deterministic jitter seeded from ``backoff_seed`` and the
        channel's ``(local, peer)`` pair (:func:`backoff_delay`).  A
        successful handshake resets the schedule, so a recovered peer is
        redialled promptly after its next outage.
    """

    def __init__(
        self,
        addresses: Optional[Mapping[int, Sequence[Any]]] = None,
        *,
        local_ids: Optional[Sequence[int]] = None,
        num_channel_ids: Optional[int] = None,
        master_secret: bytes = b"repro-delphi-master-secret",
        epoch: int = 0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        dial_timeout: float = 2.0,
        dial_retries: int = 5,
        dial_retry_delay: float = 0.2,
        redial_backoff: float = 0.5,
        redial_backoff_max: float = 8.0,
        backoff_seed: int = 0,
    ) -> None:
        self._addresses: Dict[int, Address] = {}
        if addresses is not None:
            for node_id, address in addresses.items():
                self._addresses[int(node_id)] = normalise_address(address)
        self._auto_addresses = addresses is None
        self.local_ids: Optional[Tuple[int, ...]] = (
            tuple(local_ids) if local_ids is not None else None
        )
        self._num_channel_ids = num_channel_ids
        self.master_secret = master_secret
        self.epoch = epoch
        self.max_frame_bytes = max_frame_bytes
        self.dial_timeout = dial_timeout
        self.dial_retries = dial_retries
        self.dial_retry_delay = dial_retry_delay
        self.redial_backoff = redial_backoff
        self.redial_backoff_max = redial_backoff_max
        self.backoff_seed = backoff_seed
        # Live state (built in open()).
        self._inboxes: Dict[int, Inbox] = {}
        self._servers: Dict[int, asyncio.AbstractServer] = {}
        self._senders: Dict[Tuple[int, int], _Sender] = {}
        self._inbound: Set[_Inbound] = set()
        self._keyrings: Dict[int, ChannelKeyring] = {}
        self._unix_paths: List[str] = []
        self._closed = True
        # Observability counters (cumulative across open/close cycles).
        self.frames_sent = 0
        self.frames_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.dropped_after_close = 0
        self.dropped_unreachable = 0
        self.dropped_oversize = 0
        self.auth_failures = 0
        self.replay_rejections = 0
        self.frame_errors = 0
        self.frames_corrupted = 0
        self.connections_reset = 0
        #: Armed wire-level corruptions: ``(local, peer) -> frames left``.
        self._corrupt_pending: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def address_of(self, node_id: int) -> Address:
        """The listen address of ``node_id``."""
        try:
            return self._addresses[node_id]
        except KeyError:
            raise TransportError(f"no known address for node {node_id}") from None

    @property
    def addresses(self) -> Dict[int, Address]:
        """The current address map (auto mode fills it during ``open``)."""
        return dict(self._addresses)

    def keyring(self, local_id: int) -> ChannelKeyring:
        ring = self._keyrings.get(local_id)
        if ring is None:
            known = set(self._addresses) | set(self._keyrings) | {local_id}
            size = self._num_channel_ids or (max(known) + 1)
            ring = self._keyrings[local_id] = ChannelKeyring(
                node_id=local_id, num_nodes=size, master_secret=self.master_secret
            )
        return ring

    def wire_counters(self) -> Dict[str, int]:
        """What a run report carries (cluster report, chaos ``observed``)."""
        names = ("frames_sent", "frames_received", "messages_sent", "messages_received")
        names += ("auth_failures", "replay_rejections", "dropped_unreachable")
        return {name: getattr(self, name) for name in names}

    def advance_epoch(self, epoch: int) -> None:
        """Tag future handshakes with ``epoch`` (existing connections keep
        flowing; only *reconnects* re-handshake, carrying the new tag)."""
        self.epoch = epoch

    # ------------------------------------------------------------------
    # Wire-level fault hooks (driven by repro.net.chaos.ChaosTransport)
    # ------------------------------------------------------------------
    def corrupt_next_frame(self, sender: int, target: int, count: int = 1) -> None:
        """Arm bit-flip corruption on the ``sender -> target`` channel.

        The next ``count`` sealed frames get one bit flipped *after* the
        HMAC seal, so the receiver's :meth:`ChannelCodec.open` rejects them
        with :class:`AuthenticationError` and drops the connection — the
        sender's subsequent write fails and the redial/backoff machinery
        must recover the channel.  This is how chaos campaigns prove the
        authenticated channel actually protects the protocol layer.
        """
        key = (sender, target)
        self._corrupt_pending[key] = self._corrupt_pending.get(key, 0) + count

    def reset_connection(self, sender: int, target: int) -> bool:
        """Sever the live ``sender -> target`` connection mid-stream.

        Returns ``True`` when a connection existed to reset.  The sender's
        next frame triggers a fresh dial + handshake — also out of a redial
        backoff, which is forgotten (the caller knows something the channel
        does not: a chaos schedule, or a JOIN from a respawned peer) — with
        no backoff penalty: unlike a *failed* connect, a reset does not
        advance the failure count.  Exercises the epoch-tagged reconnect.
        """
        channel = self._senders.get((sender, target))
        if channel is None:
            return False
        channel.backoff_until = 0.0
        if channel.writer is None:
            return False
        channel._disconnect()  # noqa: SLF001 - same-module channel teardown
        self.connections_reset += 1
        return True

    def _maybe_corrupt(self, sender: int, target: int, frame: bytes) -> bytes:
        """Apply one armed corruption to ``frame`` (length prefix kept
        intact so the receiver reads a complete-but-tampered body)."""
        key = (sender, target)
        pending = self._corrupt_pending.get(key, 0)
        if pending <= 0:
            return frame
        self._corrupt_pending[key] = pending - 1
        self.frames_corrupted += 1
        return frame[:-1] + bytes([frame[-1] ^ 0x01])

    # ------------------------------------------------------------------
    # The transport seam
    # ------------------------------------------------------------------
    async def open(self, node_ids: Sequence[int]) -> None:
        """Start one listener per hosted id and fresh inboxes."""
        hosted = list(self.local_ids) if self.local_ids is not None else list(node_ids)
        self._closed = False
        self._inboxes = {node_id: Inbox() for node_id in hosted}
        for node_id in hosted:
            await self._listen(node_id)

    async def _listen(self, node_id: int) -> None:
        loop, accept = asyncio.get_running_loop(), partial(_Inbound, self, node_id)
        auto = self._auto_addresses
        address = ("tcp", "127.0.0.1", 0) if auto else self.address_of(node_id)
        if address[0] == "unix":
            path = address[1]
            if os.path.exists(path):
                os.unlink(path)
            server = await loop.create_unix_server(accept, path=path)
            self._unix_paths.append(path)
        else:
            server = await loop.create_server(accept, host=address[1], port=address[2])
            if auto:  # bound to an ephemeral port: publish it
                port = server.sockets[0].getsockname()[1]
                self._addresses[node_id] = ("tcp", "127.0.0.1", port)
        self._servers[node_id] = server

    async def put(self, target: int, item: Tuple[int, Message]) -> None:
        """Enqueue one ``(sender, message)`` pair for ``target``.

        Never blocks on the network: remote sends are queued on the per-peer
        channel.  Silently drops (and counts) after ``close``.
        """
        if self._closed:
            self.dropped_after_close += 1
            return
        sender, message = item
        if target == sender:
            # Local self-delivery: no network, no authentication, no delay.
            inbox = self._inboxes.get(target)
            if inbox is None:
                self.dropped_after_close += 1
                return
            inbox.put(item)
            return
        if sender not in self._inboxes:
            raise TransportError(
                f"cannot send as node {sender}: not hosted by this transport"
            )
        key = (sender, target)
        channel = self._senders.get(key)
        if channel is None:
            self.address_of(target)  # raise now if the peer is unknown
            channel = self._senders[key] = _Sender(self, sender, target)
        channel.outbox.append(message)
        if not channel.busy:
            channel.busy = True
            asyncio.get_running_loop().call_soon(channel._flush)  # noqa: SLF001

    async def get(self, node_id: int) -> Tuple[int, Message]:
        """Dequeue the next ``(sender, message)`` pair for ``node_id``.

        Raises :class:`~repro.errors.TransportClosedError` once the
        transport is closed, also for a ``get`` already waiting.
        """
        inbox = self._inboxes.get(node_id)
        if inbox is None:
            raise TransportClosedError(f"transport closed (get for node {node_id})")
        return await inbox.get()

    def pending(self) -> int:
        """Messages enqueued locally but not yet consumed."""
        return sum(inbox.qsize() for inbox in self._inboxes.values())

    async def flush(self, timeout: float = 2.0) -> bool:
        """Wait, at most ``timeout`` seconds, until what ``put`` queued has
        left this process (no outbox holds a message, no live channel's write
        buffer a byte) or was dropped and counted.  ``close`` discards both: a
        process whose last act is a send calls this first.  ``True`` if so."""
        deadline = time.monotonic() + timeout
        while any(
            channel.outbox
            or (channel.writer and channel.writer.transport.get_write_buffer_size())
            for channel in self._senders.values()
        ):
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def close(self) -> None:
        """Tear down every task, connection, listener and Unix path."""
        if self._closed and not self._servers and not self._senders:
            return
        self._closed = True
        senders = list(self._senders.values())
        self._senders = {}
        tasks = [channel.task for channel in senders if channel.task is not None]
        for channel in senders:
            channel.close()
        await asyncio.gather(*tasks, return_exceptions=True)
        for connection in list(self._inbound):
            connection.transport.abort()
        servers = list(self._servers.values())
        self._servers = {}
        for server in servers:
            server.close()
        for server in servers:
            await server.wait_closed()
        for inbox in self._inboxes.values():
            inbox.close()
        for path in self._unix_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._unix_paths = []


class _Inbound(asyncio.Protocol):
    """One accepted connection.  Whatever a ``recv`` returns is reassembled,
    verified and delivered inside :meth:`data_received`: no stream buffer and
    no reader task between the kernel and the inbox."""

    def __init__(self, owner: SocketTransport, local_id: int) -> None:
        self.owner = owner
        self.local_id = local_id
        self.decoder = FrameDecoder(owner.max_frame_bytes)
        self.codec: Optional[ChannelCodec] = None
        self.peer = -1

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport, self.inbox = transport, self.owner._inboxes[self.local_id]
        self.owner._inbound.add(self)
        # A dialer that never sends its HELLO must not hold this socket for
        # the life of the transport; the deadline lifts once it has.
        self.deadline = asyncio.get_running_loop().call_later(
            self.owner.dial_timeout, self._reject, FrameError("no HELLO in time")
        )

    def data_received(self, data: bytes) -> None:
        owner = self.owner
        try:
            for body in self.decoder.feed(data):
                if self.codec is None:
                    self._handshake(body)
                    continue
                # Tag and replay window first; then the batch is split and
                # every blob validated before any of it is delivered.
                payload = self.codec.open(body)  # AuthenticationError / ReplayError
                messages = [loads_message(blob) for blob in split_blobs(payload)]
                owner.frames_received += 1
                owner.messages_received += len(messages)
                for message in messages:  # close() aborts us: the inbox is live
                    self.inbox.put((self.peer, message))
        except Exception as error:  # noqa: BLE001 - a broken peer must not crash us
            self._reject(error)

    def _handshake(self, body: bytes) -> None:
        owner, local_id = self.owner, self.local_id
        sender, peer_epoch, nonce, tag = decode_hello(body)
        key = owner.keyring(local_id).key_for(sender)
        verify_hello(key, sender, local_id, peer_epoch, nonce, tag)
        ack_nonce = os.urandom(NONCE_BYTES)
        ack = encode_ack(key, sender, local_id, owner.epoch, nonce, ack_nonce)
        self.transport.write(encode_frame(ack, owner.max_frame_bytes))
        self.peer, self.codec = sender, ChannelCodec(key, nonce, ack_nonce)
        self.deadline.cancel()

    def _reject(self, error: Exception) -> None:
        """Count ``error`` under its type and hang up."""
        if isinstance(error, ReplayError):
            self.owner.replay_rejections += 1
        elif isinstance(error, AuthenticationError):
            self.owner.auth_failures += 1
        else:
            self.owner.frame_errors += 1  # FrameError, or a HELLO that never came
        self.transport.close()

    def eof_received(self) -> None:
        if self.decoder.partial:
            self._reject(FrameError("stream ended mid-frame"))

    def connection_lost(self, error: Optional[Exception]) -> None:
        self.deadline.cancel()
        self.owner._inbound.discard(self)
        if error is not None:  # reset under us, as a failed read was
            self.owner.frame_errors += 1
