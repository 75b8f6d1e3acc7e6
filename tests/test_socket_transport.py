"""Tests for the real-socket transport: framing over live connections, HMAC
tamper/replay rejection, concurrent writer interleaving, close semantics, the
put-after-close seam contract shared with InMemoryTransport, and the
InMemory-vs-Socket DORA parity run."""

import asyncio
import math
import os
import pickle
import random
import socket as socket_module
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.analysis.parameters import derive_parameters
from repro.core.dora import DoraNode
from repro.crypto.hmac_channel import ChannelKeyring
from repro.errors import (
    AuthenticationError,
    FrameError,
    ReplayError,
    TransportClosedError,
    TransportError,
)
from repro.crypto.signatures import SignatureScheme
from repro.net.framing import (
    ChannelCodec,
    FrameDecoder,
    LENGTH_PREFIX_BYTES,
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
from repro.net import socket_transport
from repro.net.chaos import ChaosTransport, WireFaults
from repro.net.message import Message
from repro.net.network import DelayWindow
from repro.net.socket_transport import (
    SocketTransport,
    backoff_delay,
    dumps_message,
    loads_message,
)
from repro.oracle.service import EpochNode, OracleService
from repro.sim.asyncio_runtime import AsyncioRuntime, InMemoryTransport


def run(coroutine):
    return asyncio.run(coroutine)


async def until(predicate, timeout=5.0, interval=0.01):
    """Poll ``predicate`` until true (returns True) or timeout (False)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def msg(mtype="PING", payload=None, round=0, protocol="p"):
    return Message(protocol, mtype, round, payload)


def _unused_port():
    """A localhost TCP port nothing listens on (bound once, then released)."""
    with socket_module.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def data_frame(codec, *messages):
    """One sealed DATA frame carrying ``messages`` — the only place the raw
    clients below spell the wire grammar, and they spell it with the helper
    the sender uses."""
    return encode_frame(codec.seal(join_blobs([dumps_message(m) for m in messages])))


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestMessageCodec:
    def test_round_trip_preserves_all_fields(self):
        message = Message("epoch:3/dora", "REPORT", 2, [1.5, ("a", 0.25)])
        clone = loads_message(dumps_message(message))
        assert clone == message

    def test_float_bit_patterns_survive(self):
        message = msg(payload=[0.1 + 0.2, 1e-308, -0.0])
        clone = loads_message(dumps_message(message))
        assert [v.hex() for v in clone.payload] == [v.hex() for v in message.payload]

    def test_malformed_payload_is_typed(self):
        with pytest.raises(FrameError):
            loads_message(b"not a pickle")
        with pytest.raises(FrameError):
            loads_message(pickle.dumps(("only", "three", "parts")))

    @pytest.mark.parametrize("round", [-1, -(2**40), 2**32, 2**70, True, False, 1.0])
    def test_hostile_round_is_a_frame_error(self, round):
        with pytest.raises(FrameError):
            loads_message(pickle.dumps(("p", "T", round, None)))

    def test_rounds_a_peer_chooses_do_not_grow_the_round_memo(self):
        from repro.net import message as message_module

        for round in range(0, 50_000):
            assert loads_message(pickle.dumps(("p", "T", round, None))).round == round
        assert len(message_module._ROUND_BITS) <= message_module._ROUND_BITS_CAP
        assert loads_message(pickle.dumps(("p", "T", 2**32 - 1, None))).round == 2**32 - 1

    def test_wire_bytes_are_memoised_and_payload_pure(self):
        message = Message("epoch:3/dora", "REPORT", 2, [1.5, ("a", 0.25)])
        wire = dumps_message(message)
        assert dumps_message(message) is wire
        # Copies carry no memo: a re-payloaded message pickles its own bytes.
        assert not hasattr(pickle.loads(pickle.dumps(message)), "_wire")
        other = message.with_payload("equivocated")
        assert not hasattr(other, "_wire")
        assert loads_message(dumps_message(other)).payload == "equivocated"
        assert loads_message(wire) == message


# ----------------------------------------------------------------------
# Basic delivery (auto TCP mesh and explicit unix addresses)
# ----------------------------------------------------------------------
class TestSocketDelivery:
    def test_tcp_round_trip_and_self_delivery(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            await transport.put(1, (0, msg(payload="over-tcp")))
            await transport.put(0, (0, msg(payload="to-self")))
            sender, message = await asyncio.wait_for(transport.get(1), 5)
            assert (sender, message.payload) == (0, "over-tcp")
            sender, message = await asyncio.wait_for(transport.get(0), 5)
            assert (sender, message.payload) == (0, "to-self")
            await transport.close()

        run(scenario())

    def test_unix_round_trip_and_socket_cleanup(self, tmp_path):
        addresses = {
            i: ("unix", str(tmp_path / f"n{i}.sock")) for i in range(2)
        }

        async def scenario():
            transport = SocketTransport(addresses=addresses)
            await transport.open([0, 1])
            await transport.put(0, (1, msg(payload="over-unix")))
            sender, message = await asyncio.wait_for(transport.get(0), 5)
            assert (sender, message.payload) == (1, "over-unix")
            await transport.close()

        run(scenario())
        leaked = [path for path in tmp_path.iterdir() if path.suffix == ".sock"]
        assert leaked == []

    def test_put_as_unhosted_sender_is_typed(self):
        async def scenario():
            transport = SocketTransport(local_ids=[0], addresses={0: ("tcp", "127.0.0.1", 0)})
            # Hosting only node 0 on an explicit address map: sending *as*
            # node 7 is a caller bug, not a network condition.
            await transport.open([0])
            with pytest.raises(TransportError):
                await transport.put(0, (7, msg()))
            await transport.close()

        run(scenario())

    def test_frame_dribbled_over_real_socket_reassembles(self):
        """A peer that writes a frame one byte at a time (pathological TCP
        segmentation) still delivers exactly one intact message."""

        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            host, port = transport.addresses[1][1], transport.addresses[1][2]
            key = ChannelKeyring(
                node_id=0, num_nodes=2, master_secret=transport.master_secret
            ).key_for(1)
            reader, writer = await asyncio.open_connection(host, port)
            nonce = os.urandom(NONCE_BYTES)
            writer.write(encode_frame(encode_hello(key, 0, 1, 0, nonce)))
            await writer.drain()
            prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
            body = await reader.readexactly(int.from_bytes(prefix, "big"))
            peer_epoch, ack_nonce, tag = decode_ack(body)
            verify_ack(key, 0, 1, peer_epoch, nonce, ack_nonce, tag)
            codec = ChannelCodec(key, nonce, ack_nonce)
            frame = data_frame(codec, msg(payload="dribbled"))
            for index in range(0, len(frame), 3):
                writer.write(frame[index : index + 3])
                await writer.drain()
                await asyncio.sleep(0.001)
            sender, message = await asyncio.wait_for(transport.get(1), 5)
            assert (sender, message.payload) == (0, "dribbled")
            writer.close()
            await transport.close()

        run(scenario())


# ----------------------------------------------------------------------
# Authentication: tamper and replay over live connections
# ----------------------------------------------------------------------
def _hello(transport, sender, receiver):
    """``(key, nonce, HELLO frame)`` for a hand-made dial of ``receiver``."""
    key = ChannelKeyring(
        node_id=sender, num_nodes=2, master_secret=transport.master_secret
    ).key_for(receiver)
    nonce = os.urandom(NONCE_BYTES)
    return key, nonce, encode_frame(encode_hello(key, sender, receiver, 0, nonce))


async def _authenticated_raw_client(transport, sender, receiver):
    """Dial ``receiver`` as ``sender`` by hand; returns (codec, writer)."""
    codec, _reader, writer = await _raw_connection(transport, sender, receiver)
    return codec, writer


async def _raw_connection(transport, sender, receiver):
    """The same dial, keeping the reader: returns (codec, reader, writer)."""
    address = transport.addresses[receiver]
    key, nonce, hello = _hello(transport, sender, receiver)
    reader, writer = await asyncio.open_connection(address[1], address[2])
    writer.write(hello)
    await writer.drain()
    prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
    body = await reader.readexactly(int.from_bytes(prefix, "big"))
    peer_epoch, ack_nonce, tag = decode_ack(body)
    verify_ack(key, sender, receiver, peer_epoch, nonce, ack_nonce, tag)
    return ChannelCodec(key, nonce, ack_nonce), reader, writer


class TestAuthentication:
    def test_tampered_frame_rejected_and_counted(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            codec, writer = await _authenticated_raw_client(transport, 0, 1)
            writer.write(data_frame(codec, msg(payload="good")))
            tampered = bytearray(data_frame(codec, msg(payload="evil"), msg(payload="twin")))
            tampered[-1] ^= 0xFF
            writer.write(bytes(tampered))
            await writer.drain()
            sender, message = await asyncio.wait_for(transport.get(1), 5)
            assert message.payload == "good"
            assert await until(lambda: transport.auth_failures == 1)
            # The tampered payload never reached the inbox.
            assert transport.pending() == 0
            writer.close()
            await transport.close()

        run(scenario())

    def test_replayed_frame_rejected_and_counted(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            codec, writer = await _authenticated_raw_client(transport, 0, 1)
            frame = data_frame(codec, msg(payload="once"))
            writer.write(frame)
            writer.write(frame)  # byte-identical replay
            await writer.drain()
            sender, message = await asyncio.wait_for(transport.get(1), 5)
            assert message.payload == "once"
            assert await until(lambda: transport.replay_rejections == 1)
            assert transport.pending() == 0
            writer.close()
            await transport.close()

        run(scenario())

    def test_replayed_handshake_cannot_resume_old_session(self):
        """Replaying a whole recorded connection fails: the listener's fresh
        ACK nonce re-keys the data tags, so recorded DATA frames die."""

        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            key = ChannelKeyring(
                node_id=0, num_nodes=2, master_secret=transport.master_secret
            ).key_for(1)
            nonce = os.urandom(NONCE_BYTES)
            hello = encode_frame(encode_hello(key, 0, 1, 0, nonce))
            # Original session.
            address = transport.addresses[1]
            reader, writer = await asyncio.open_connection(address[1], address[2])
            writer.write(hello)
            await writer.drain()
            prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
            body = await reader.readexactly(int.from_bytes(prefix, "big"))
            peer_epoch, ack_nonce, tag = decode_ack(body)
            verify_ack(key, 0, 1, peer_epoch, nonce, ack_nonce, tag)
            codec = ChannelCodec(key, nonce, ack_nonce)
            recorded = data_frame(codec, msg(payload="secret"))
            writer.write(recorded)
            await writer.drain()
            await asyncio.wait_for(transport.get(1), 5)
            writer.close()
            # Replay the recorded HELLO + DATA verbatim on a new connection.
            reader, writer = await asyncio.open_connection(address[1], address[2])
            writer.write(hello)
            await writer.drain()
            prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
            await reader.readexactly(int.from_bytes(prefix, "big"))
            writer.write(recorded)
            await writer.drain()
            assert await until(lambda: transport.auth_failures == 1)
            assert transport.pending() == 0
            writer.close()
            await transport.close()

        run(scenario())

    def test_garbage_handshake_does_not_crash_listener(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            address = transport.addresses[1]
            _reader, writer = await asyncio.open_connection(address[1], address[2])
            writer.write(encode_frame(b"\x01 this is not a hello"))
            await writer.drain()
            assert await until(
                lambda: transport.auth_failures + transport.frame_errors == 1
            )
            writer.close()
            # The listener survived: a legitimate peer still gets through.
            await transport.put(1, (0, msg(payload="still-alive")))
            sender, message = await asyncio.wait_for(transport.get(1), 5)
            assert message.payload == "still-alive"
            await transport.close()

        run(scenario())

    def test_codec_rejections_are_typed(self):
        key = os.urandom(32)
        tx = ChannelCodec(key, b"d" * 16, b"l" * 16)
        rx = ChannelCodec(key, b"d" * 16, b"l" * 16)
        body = tx.seal(b"payload")
        assert rx.open(body) == b"payload"
        with pytest.raises(ReplayError):
            rx.open(body)
        tampered = bytearray(tx.seal(b"payload2"))
        tampered[-1] ^= 1
        with pytest.raises(AuthenticationError):
            rx.open(bytes(tampered))
        with pytest.raises(FrameError):
            rx.open(b"\x03short")
        # ReplayError must be catchable as AuthenticationError too.
        assert issubclass(ReplayError, AuthenticationError)


# ----------------------------------------------------------------------
# Coalesced frames: one sealed frame per peer per sender wake
# ----------------------------------------------------------------------
wire_messages = st.builds(
    Message,
    st.sampled_from(["p", "epoch:3/dora", "group:1/delphi"]),
    st.sampled_from(["PING", "BUNDLE", "REPORT"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    st.recursive(
        st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
        lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3),
        max_leaves=6,
    ),
)


def _pair(tmp_path, **sender_options):
    """Two one-endpoint transports over unix sockets: 0 dials 1."""
    addresses = {i: ("unix", str(tmp_path / f"n{i}.sock")) for i in range(2)}
    sender_side = SocketTransport(addresses=addresses, local_ids=[0], **sender_options)
    return sender_side, SocketTransport(addresses=addresses, local_ids=[1])


def _record_frames(transport):
    """Every frame the transport writes, as it leaves ``_maybe_corrupt``."""
    frames, corrupt = [], transport._maybe_corrupt

    def recording(sender, target, frame):
        frames.append(corrupt(sender, target, frame))
        return frames[-1]

    transport._maybe_corrupt = recording
    return frames


class TestCoalescedFrames:
    @given(messages=st.lists(wire_messages, min_size=1, max_size=8))
    def test_split_inverts_join_over_messages(self, messages):
        payload = join_blobs([dumps_message(message) for message in messages])
        clones = [loads_message(blob) for blob in split_blobs(payload)]
        assert clones == messages
        assert [repr(c.payload) for c in clones] == [repr(m.payload) for m in messages]

    def test_messages_queued_together_share_one_frame(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            for index in range(5):  # no await that yields: one sender wake
                await transport.put(1, (0, msg(payload=index)))
            received = [await asyncio.wait_for(transport.get(1), 5) for _ in range(5)]
            assert [message.payload for _sender, message in received] == list(range(5))
            assert (transport.frames_sent, transport.messages_sent) == (1, 5)
            assert (transport.frames_received, transport.messages_received) == (1, 5)
            await transport.put(1, (0, msg(payload="alone")))  # a batch of one
            assert (await asyncio.wait_for(transport.get(1), 5))[1].payload == "alone"
            assert (transport.frames_sent, transport.messages_sent) == (2, 6)
            assert transport.wire_counters() == {
                "frames_sent": 2,
                "frames_received": 2,
                "messages_sent": 6,
                "messages_received": 6,
                "auth_failures": 0,
                "replay_rejections": 0,
                "dropped_unreachable": 0,
            }
            await transport.close()

        run(scenario())

    def test_flush_waits_for_the_sender_tasks_before_close(self, tmp_path):
        """``put`` only queues and ``close`` cancels the sender tasks, so a
        send that is a process's last act needs ``flush`` in between."""
        addresses = {i: ("unix", str(tmp_path / f"{i}.sock")) for i in (0, 1)}

        async def scenario():
            receiver = SocketTransport(addresses, local_ids=[1])
            await receiver.open([1])
            sender = SocketTransport(addresses, local_ids=[0])
            await sender.open([0])
            assert await sender.flush() is True  # nothing queued: at once
            await sender.put(1, (0, msg(payload="last words")))
            assert await sender.flush() is True  # dialled, sealed, written
            await sender.close()
            received = await asyncio.wait_for(receiver.get(1), 5)
            assert received[1].payload == "last words"
            await receiver.close()

        run(scenario())

    def test_flush_is_bounded_when_a_peer_cannot_be_reached(self, tmp_path):
        addresses = {i: ("unix", str(tmp_path / f"{i}.sock")) for i in (0, 1)}

        async def scenario():
            sender = SocketTransport(
                addresses, local_ids=[0], dial_retries=100, dial_retry_delay=0.05
            )
            await sender.open([0])
            await sender.put(1, (0, msg(payload="nobody listens")))
            started = time.monotonic()
            assert await sender.flush(timeout=0.2) is False
            assert 0.2 <= time.monotonic() - started < 2.0
            await sender.close()

        run(scenario())

    def test_fifo_across_frame_boundaries_and_no_frame_past_the_cap(self):
        """Concurrent putters on one channel, a cap a few messages wide:
        batches split at the cap, arrival order is put order, and every
        frame on the wire respects ``max_frame_bytes``."""
        cap, total = 600, 120

        async def scenario():
            transport = SocketTransport(max_frame_bytes=cap)
            frames = _record_frames(transport)
            await transport.open([0, 1])
            order = []

            async def blast(tag):
                for index in range(total // 3):
                    order.append((tag, index))
                    await transport.put(1, (0, msg(payload=(tag, index, "x" * (index % 50)))))
                    if index % 5 == 0:
                        await asyncio.sleep(0)

            await asyncio.gather(blast("a"), blast("b"), blast("c"))
            received = [await asyncio.wait_for(transport.get(1), 10) for _ in range(total)]
            assert [message.payload[:2] for _sender, message in received] == order
            assert transport.messages_sent == total
            assert 1 < transport.frames_sent < total  # split, yet shared
            assert len(frames) == transport.frames_sent
            assert all(len(frame) - LENGTH_PREFIX_BYTES <= cap for frame in frames)
            assert transport.frame_errors == transport.dropped_oversize == 0
            await transport.close()

        run(scenario())

    def test_oversize_message_is_dropped_alone_and_the_channel_kept(self):
        async def scenario():
            transport = SocketTransport(max_frame_bytes=2048)
            await transport.open([0, 1])
            await transport.put(1, (0, msg(payload="first")))
            assert (await asyncio.wait_for(transport.get(1), 5))[1].payload == "first"
            channel = transport._senders[(0, 1)]
            writer = channel.writer
            await transport.put(1, (0, msg(payload="before")))
            await transport.put(1, (0, msg(payload="x" * 5000)))
            await transport.put(1, (0, msg(payload="after")))
            received = [await asyncio.wait_for(transport.get(1), 5) for _ in range(2)]
            assert [message.payload for _sender, message in received] == ["before", "after"]
            assert transport.dropped_oversize == 1
            # Same connection, no failure recorded, nothing else lost.
            assert channel.writer is writer and channel.failures == 0
            assert channel.backoff_until == 0.0
            assert transport.dropped_unreachable == transport.frame_errors == 0
            assert transport.messages_sent == 3
            await transport.close()

        run(scenario())

    def test_corrupted_batch_is_rejected_whole_then_the_channel_recovers(self, tmp_path):
        sender_side, receiver_side = _pair(
            tmp_path, redial_backoff=0.01, redial_backoff_max=0.02
        )

        async def scenario():
            await receiver_side.open([1])
            await sender_side.open([0])
            sender_side.corrupt_next_frame(0, 1)
            for index in range(4):
                await sender_side.put(1, (0, msg(payload=("doomed", index))))
            assert await until(lambda: receiver_side.auth_failures == 1)
            assert sender_side.frames_corrupted == 1
            assert receiver_side.pending() == 0  # not one message of the batch
            assert receiver_side.messages_received == 0
            # The receiver dropped the connection; the next write fails, the
            # channel backs off and redials.  Keep offering numbered messages:
            # whatever gets through after that arrives in order.
            arrived = []
            for index in range(400):
                await sender_side.put(1, (0, msg(payload=("later", index))))
                await asyncio.sleep(0.005)
                while receiver_side.pending():
                    arrived.append((await receiver_side.get(1))[1].payload)
                if len(arrived) >= 10:
                    break
            assert len(arrived) >= 10
            assert all(tag == "later" for tag, _index in arrived)
            indices = [index for _tag, index in arrived]
            assert indices == sorted(indices) and len(set(indices)) == len(indices)
            await sender_side.close()
            await receiver_side.close()

        run(scenario())

    def test_a_batch_lost_to_an_unreachable_peer_counts_every_message(self):
        async def scenario():
            port = _unused_port()
            transport = SocketTransport(
                addresses={0: ("tcp", "127.0.0.1", 0), 1: ("tcp", "127.0.0.1", port)},
                local_ids=[0],
                dial_retries=1,
                redial_backoff=30.0,
                redial_backoff_max=30.0,
            )
            await transport.open([0])
            for index in range(3):  # lost to the failed dial
                await transport.put(1, (0, msg(payload=index)))
            assert await until(lambda: transport.dropped_unreachable == 3)
            for index in range(4):  # lost to the backoff window
                await transport.put(1, (0, msg(payload=index)))
            assert await until(lambda: transport.dropped_unreachable == 7)
            assert transport.messages_sent == transport.frames_sent == 0
            await transport.close()

        run(scenario())

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x00\x00\x00\x09short",  # length past the end
            b"\x00\x00",  # truncated length
            b"\x00\x00\x00\x00",  # zero-length blob
            b"",  # empty batch
        ],
    )
    def test_authenticated_but_hostile_batch_drops_the_connection(self, payload):
        """A key holder's malformed batch costs a counter and its
        connection; a good blob in front of the bad part is not delivered."""

        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            codec, writer = await _authenticated_raw_client(transport, 0, 1)
            good = join_blobs([dumps_message(msg(payload="good"))])
            writer.write(encode_frame(codec.seal(good + payload if payload else payload)))
            writer.write(data_frame(codec, msg(payload="behind")))
            await writer.drain()
            assert await until(lambda: transport.frame_errors == 1)
            assert transport.pending() == 0 and transport.messages_received == 0
            assert transport.auth_failures == transport.replay_rejections == 0
            writer.close()
            await transport.close()

        run(scenario())

    def test_valid_blob_before_a_malformed_message_is_not_delivered(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            codec, writer = await _authenticated_raw_client(transport, 0, 1)
            bad = pickle.dumps(("p", "T", -1, None))
            writer.write(
                encode_frame(codec.seal(join_blobs([dumps_message(msg()), bad])))
            )
            await writer.drain()
            assert await until(lambda: transport.frame_errors == 1)
            assert transport.pending() == 0
            writer.close()
            await transport.close()

        run(scenario())


class TestHandshakeDeadline:
    def test_silent_dialer_is_dropped_after_dial_timeout(self):
        async def scenario():
            transport = SocketTransport(dial_timeout=0.1)
            await transport.open([0, 1])
            address = transport.addresses[1]
            reader, writer = await asyncio.open_connection(address[1], address[2])
            assert await until(lambda: len(transport._inbound) == 1)
            assert await until(lambda: transport.frame_errors == 1)
            assert await until(lambda: not transport._inbound)
            assert await asyncio.wait_for(reader.read(), 5) == b""  # hung up on
            writer.close()
            await transport.close()

        run(scenario())

    def test_deadline_lifts_once_the_hello_is_in(self):
        async def scenario():
            transport = SocketTransport(dial_timeout=0.1)
            await transport.open([0, 1])
            codec, writer = await _authenticated_raw_client(transport, 0, 1)
            await asyncio.sleep(0.3)  # an idle but authenticated channel
            writer.write(data_frame(codec, msg(payload="late but welcome")))
            await writer.drain()
            sender, message = await asyncio.wait_for(transport.get(1), 5)
            assert (sender, message.payload) == (0, "late but welcome")
            assert transport.frame_errors == 0
            writer.close()
            await transport.close()

        run(scenario())

    def test_dial_has_one_deadline_over_the_whole_handshake(self):
        """A listener that accepts and then says nothing: the dial gives up
        after ``dial_timeout`` and the batch is counted as unreachable."""

        async def scenario():
            async def mute(reader, writer):
                await reader.read()  # until the dialer gives up
                writer.close()

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport = SocketTransport(
                addresses={0: ("tcp", "127.0.0.1", 0), 1: ("tcp", "127.0.0.1", port)},
                local_ids=[0],
                dial_timeout=0.1,
                dial_retries=1,
            )
            await transport.open([0])
            started = time.monotonic()
            await transport.put(1, (0, msg()))
            await transport.put(1, (0, msg()))
            assert await until(lambda: transport.dropped_unreachable == 2)
            assert time.monotonic() - started < 2.0
            assert transport._senders[(0, 1)].writer is None
            await transport.close()
            server.close()
            await server.wait_closed()

        run(scenario())


# ----------------------------------------------------------------------
# A frame is decoded where it is read and written where it is queued
# ----------------------------------------------------------------------
class TestDecodedWhereItIsRead:
    def test_hello_and_data_dribbled_a_byte_at_a_time_arrive_once_in_order(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            address = transport.addresses[1]
            key, nonce, hello = _hello(transport, 0, 1)
            reader, writer = await asyncio.open_connection(address[1], address[2])

            async def dribble(data):
                for index in range(len(data)):
                    writer.write(data[index : index + 1])
                    await writer.drain()
                    if index % 16 == 0:
                        await asyncio.sleep(0)  # let the listener see a short read

            await dribble(hello)
            prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
            body = await reader.readexactly(int.from_bytes(prefix, "big"))
            peer_epoch, ack_nonce, tag = decode_ack(body)
            verify_ack(key, 0, 1, peer_epoch, nonce, ack_nonce, tag)
            codec = ChannelCodec(key, nonce, ack_nonce)
            await dribble(data_frame(codec, msg(payload=0), msg(payload=1)))
            await dribble(data_frame(codec, msg(payload=2)))
            received = [await asyncio.wait_for(transport.get(1), 5) for _ in range(3)]
            assert [(s, m.payload) for s, m in received] == [(0, 0), (0, 1), (0, 2)]
            await asyncio.sleep(0.05)
            assert transport.pending() == 0  # once each
            assert (transport.frames_received, transport.messages_received) == (2, 3)
            assert transport.frame_errors == transport.auth_failures == 0
            writer.close()
            await transport.close()

        run(scenario())

    def test_data_in_the_same_read_as_the_hello_is_delivered(self, monkeypatch):
        """The dialer normally waits for the ACK; one that knows the
        listener's nonce need not, and its frames behind the HELLO count."""
        ack_nonce = b"\x07" * NONCE_BYTES
        monkeypatch.setattr(
            socket_transport, "os", SimpleNamespace(urandom=lambda size: ack_nonce[:size])
        )

        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            address = transport.addresses[1]
            key, nonce, hello = _hello(transport, 0, 1)
            codec = ChannelCodec(key, nonce, ack_nonce)
            burst = hello + data_frame(codec, msg(payload="a")) + data_frame(codec, msg(payload="b"))
            # Handed to the protocol as one read, exactly as one recv would.
            with socket_module.create_connection(address[1:]) as raw:
                raw.sendall(burst)
                received = [await asyncio.wait_for(transport.get(1), 5) for _ in range(2)]
            assert [(s, m.payload) for s, m in received] == [(0, "a"), (0, "b")]
            assert transport.frames_received == 2 and transport.frame_errors == 0
            await transport.close()

        run(scenario())

    @pytest.mark.parametrize(
        "fault, counter",
        [
            ("garbage", "frame_errors"),
            ("tampered", "auth_failures"),
            ("replayed", "replay_rejections"),
            ("cut", "frame_errors"),
        ],
    )
    def test_each_bad_frame_costs_its_counter_and_its_connection_only(self, fault, counter):
        counters = ("frame_errors", "auth_failures", "replay_rejections")

        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            codec, reader, writer = await _raw_connection(transport, 0, 1)
            good = data_frame(codec, msg(payload="good"))
            writer.write(good)
            if fault == "garbage":  # authenticated length, unauthenticated noise
                writer.write(encode_frame(b"\x02" + os.urandom(60)))
            elif fault == "tampered":
                bad = bytearray(data_frame(codec, msg(payload="evil")))
                bad[-1] ^= 0x01
                writer.write(bytes(bad))
            elif fault == "replayed":
                writer.write(good)
            else:  # the stream ends inside a frame
                writer.write(data_frame(codec, msg(payload="never whole"))[:-5])
                writer.write_eof()
            await writer.drain()
            assert (await asyncio.wait_for(transport.get(1), 5))[1].payload == "good"
            assert await until(lambda: getattr(transport, counter) == 1)
            assert [getattr(transport, name) for name in counters].count(0) == 2
            assert await asyncio.wait_for(reader.read(), 5) == b""  # hung up on
            assert transport.pending() == 0 and transport.messages_received == 1
            writer.close()
            assert await until(lambda: not transport._inbound)
            # The listener still serves: a fresh dial is greeted and heard.
            codec, writer = await _authenticated_raw_client(transport, 0, 1)
            writer.write(data_frame(codec, msg(payload="next")))
            assert (await asyncio.wait_for(transport.get(1), 5))[1].payload == "next"
            assert getattr(transport, counter) == 1
            writer.close()
            await transport.close()

        run(scenario())


class _StalledListener:
    """A listener that completes the handshake by hand and then reads only
    when told to: the peer a sender meets under backpressure."""

    def __init__(self, path, master_secret):
        self.path, self.master_secret = path, master_secret
        self.read_now, self.hung_up = asyncio.Event(), asyncio.Event()
        self.messages = []
        self.frames = 0

    async def start(self):
        listener = socket_module.socket(socket_module.AF_UNIX)
        listener.setsockopt(socket_module.SOL_SOCKET, socket_module.SO_RCVBUF, 4096)
        listener.bind(self.path)
        self.server = await asyncio.start_unix_server(self._serve, sock=listener)

    async def _serve(self, reader, writer):
        try:
            prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
            body = await reader.readexactly(int.from_bytes(prefix, "big"))
            sender, epoch, nonce, tag = decode_hello(body)
            key = ChannelKeyring(
                node_id=1, num_nodes=2, master_secret=self.master_secret
            ).key_for(sender)
            verify_hello(key, sender, 1, epoch, nonce, tag)
            ack_nonce = os.urandom(NONCE_BYTES)
            writer.write(encode_frame(encode_ack(key, sender, 1, 0, nonce, ack_nonce)))
            codec, decoder = ChannelCodec(key, nonce, ack_nonce), FrameDecoder()
            await self.read_now.wait()
            while chunk := await reader.read(1 << 16):
                for frame in decoder.feed(chunk):
                    self.frames += 1
                    self.messages += [
                        loads_message(blob) for blob in split_blobs(codec.open(frame))
                    ]
        finally:
            writer.close()
            self.hung_up.set()

    async def stop(self):
        """After the sender closed: wait for the EOF, then stop listening."""
        await asyncio.wait_for(self.hung_up.wait(), 5)
        self.server.close()
        await self.server.wait_closed()


class TestWrittenWhereItIsQueued:
    def _sender(self, tmp_path):
        addresses = {i: ("unix", str(tmp_path / f"n{i}.sock")) for i in range(2)}
        return SocketTransport(addresses=addresses, local_ids=[0])

    def test_outbox_keeps_coalescing_while_the_peer_does_not_read(self, tmp_path):
        puts = 10_000

        async def scenario():
            sender = self._sender(tmp_path)
            listener = _StalledListener(sender.address_of(1)[1], sender.master_secret)
            await listener.start()
            await sender.open([0])
            for index in range(puts):
                await sender.put(1, (0, msg(payload=(index, "x" * 1000))))
                if index % 10 == 0:
                    await asyncio.sleep(0)  # a flush per ten puts, were the peer reading
            channel = sender._senders[(0, 1)]
            assert channel.task is not None  # parked in drain(), not writing
            assert len(channel.outbox) > puts // 2  # and the outbox holds the rest
            assert sender.frames_sent < puts // 100
            assert await sender.flush(0.05) is False
            listener.read_now.set()
            assert await sender.flush(10.0) is True
            assert await until(lambda: len(listener.messages) == puts, timeout=10)
            assert [m.payload[0] for m in listener.messages] == list(range(puts))  # FIFO
            assert sender.messages_sent == puts and listener.frames == sender.frames_sent
            assert sender.frames_sent < puts // 100  # the backlog left as a few frames
            assert sender.dropped_unreachable == sender.dropped_oversize == 0
            await sender.close()
            await listener.stop()

        run(scenario())

    def test_flush_means_flushed_not_merely_handed_to_asyncio(self, tmp_path):
        """One frame larger than the kernel will take: the outbox is empty
        at once, the write buffer is not — ``flush`` must wait for that."""

        async def scenario():
            sender = self._sender(tmp_path)
            listener = _StalledListener(sender.address_of(1)[1], sender.master_secret)
            await listener.start()
            await sender.open([0])
            await sender.put(1, (0, msg(payload="y" * 2_000_000)))
            assert await until(lambda: sender.frames_sent == 1)
            channel = sender._senders[(0, 1)]
            assert not channel.outbox  # everything queued was written ...
            assert channel.writer.transport.get_write_buffer_size() > 0  # ... into a buffer
            assert await sender.flush(0.2) is False
            listener.read_now.set()
            assert await sender.flush(10.0) is True
            assert channel.writer.transport.get_write_buffer_size() == 0
            assert await until(lambda: len(listener.messages) == 1, timeout=10)
            await sender.close()
            await listener.stop()

        run(scenario())


# ----------------------------------------------------------------------
# The bytes table in front of the pickle
# ----------------------------------------------------------------------
class TestLoadedTable:
    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(socket_transport, "_LOADED", {})

    def test_equal_bytes_share_one_message_and_one_unpickle(self, monkeypatch):
        loads = []
        wire = dumps_message(msg(payload=(1, 2.5, "x")))
        other_wire = dumps_message(msg(payload=(1, 2.5, "y")))
        monkeypatch.setattr(
            socket_transport,
            "pickle",
            SimpleNamespace(loads=lambda data: loads.append(data) or pickle.loads(data)),
        )
        first = loads_message(wire)
        assert loads_message(bytes(bytearray(wire))) is first  # equal, not identical
        assert loads == [wire]
        assert loads_message(other_wire) is not first and len(loads) == 2

    def test_float_bit_patterns_survive_a_hit(self):
        for payload in ([0.0], [-0.0], [0.1 + 0.2], [1e-308], [1], [1.0], [True]):
            wire = dumps_message(msg(payload=payload))
            for clone in (loads_message(wire), loads_message(wire)):  # miss, hit
                assert repr(clone.payload) == repr(payload)
                assert type(clone.payload[0]) is type(payload[0])
        # -0.0 / 0.0 and 1 / 1.0 / True are distinct bytes: distinct entries.
        assert len(socket_transport._LOADED) == 7

    def test_entry_count_is_capped_and_overflow_starts_over(self):
        cap = socket_transport._LOADED_CAP
        for index in range(3 * cap):
            assert loads_message(pickle.dumps(("p", "T", 0, index))).payload == index
            assert len(socket_transport._LOADED) <= cap
        assert 0 < len(socket_transport._LOADED) <= cap

    def test_oversized_bytes_are_decoded_but_not_kept(self):
        big = dumps_message(msg(payload="x" * (socket_transport._LOADED_MAX_BYTES + 1)))
        first = loads_message(big)
        assert first.payload == loads_message(big).payload
        assert loads_message(big) is not first
        assert socket_transport._LOADED == {}

    def test_malformed_bytes_are_rejected_every_time_and_never_kept(self):
        for bad in (b"not a pickle", pickle.dumps(("p", "T", -1, None))):
            for _ in range(2):
                with pytest.raises(FrameError):
                    loads_message(bad)
        assert socket_transport._LOADED == {}

    def test_malformed_bundle_is_rejected_once_per_content(self, bundle_codec_calls):
        """Every receiver of one malformed content gets the same message, so
        the ``False`` memo on it answers all of them after one decode."""
        from repro.core.bundling import shared_decode

        _encoded, decoded = bundle_codec_calls
        wire = pickle.dumps(("delphi", "BUNDLE", 0, ((0, (1,)),)))
        receivers = [loads_message(bytes(bytearray(wire))) for _ in range(6)]
        assert all(shared_decode(message) is None for message in receivers)
        assert len(decoded) == 1


# ----------------------------------------------------------------------
# Concurrency and close semantics
# ----------------------------------------------------------------------
class TestConcurrencyAndClose:
    def test_concurrent_writers_interleave_messages_not_bytes(self):
        """Many tasks sending as two nodes to one target: every message
        arrives intact, and per-sender FIFO order is preserved."""

        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1, 2])
            per_sender = 40

            async def blast(sender):
                for index in range(per_sender):
                    await transport.put(
                        1, (sender, msg(mtype="N", payload=(sender, index)))
                    )
                    if index % 7 == 0:
                        await asyncio.sleep(0)

            await asyncio.gather(blast(0), blast(2))
            received = {0: [], 2: []}
            for _ in range(2 * per_sender):
                sender, message = await asyncio.wait_for(transport.get(1), 10)
                assert message.payload[0] == sender
                received[sender].append(message.payload[1])
            assert received[0] == list(range(per_sender))
            assert received[2] == list(range(per_sender))
            await transport.close()

        run(scenario())

    def test_close_mid_read_raises_typed_error(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            waiter = asyncio.create_task(transport.get(1))
            await asyncio.sleep(0.05)
            assert not waiter.done()
            await transport.close()
            with pytest.raises(TransportClosedError):
                await asyncio.wait_for(waiter, 5)

        run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            await transport.close()
            await transport.close()

        run(scenario())


# ----------------------------------------------------------------------
# The seam contract both transports share
# ----------------------------------------------------------------------
class TestSeamContract:
    """The put-after-close / get-after-close contract is transport-agnostic:
    late sends drop silently (counted), late reads raise the typed error."""

    def test_in_memory_put_after_close_drops_and_counts(self):
        async def scenario():
            transport = InMemoryTransport()
            await transport.open([0, 1])
            await transport.close()
            await transport.put(1, (0, msg(payload="late")))
            assert transport.dropped_after_close == 1
            with pytest.raises(TransportClosedError):
                await transport.get(1)

        run(scenario())

    def test_socket_put_after_close_drops_and_counts(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            await transport.close()
            await transport.put(1, (0, msg(payload="late")))
            assert transport.dropped_after_close == 1
            with pytest.raises(TransportClosedError):
                await transport.get(1)

        run(scenario())

    def test_chaos_put_after_close_drops_and_counts(self):
        """Closing the chaos wrapper stops its fault clock: a late put under
        an all-run delay window reaches the closed inner transport, which
        drops and counts it, instead of starting a delivery task."""

        async def scenario():
            window = DelayWindow(start=0.0, end=math.inf, extra=30.0)
            transport = ChaosTransport(InMemoryTransport(), WireFaults(delays=(window,)))
            await transport.open([0, 1])
            await transport.close()
            await transport.put(1, (0, msg(payload="late")))
            assert transport.inner.dropped_after_close == 1
            assert transport.pending() == 0 and transport.frames_delayed == 0
            assert asyncio.all_tasks() == {asyncio.current_task()}
            with pytest.raises(TransportClosedError):
                await transport.get(1)

        run(scenario())

    def test_fresh_transports_agree_before_open(self):
        async def scenario():
            for transport in (InMemoryTransport(), SocketTransport()):
                await transport.put(0, (0, msg()))
                assert transport.dropped_after_close == 1
                with pytest.raises(TransportClosedError):
                    await transport.get(0)

        run(scenario())


# ----------------------------------------------------------------------
# InMemory vs Socket parity: the same DORA epoch, identical certificates
# ----------------------------------------------------------------------
def _dora_epoch_values(transport, inputs=(100.0, 100.2, 100.3, 100.4)):
    """One DORA epoch on the given transport; returns the certified values.

    The default inputs sit within one epsilon of each other, so every honest
    node must round to the same grid point on *any* schedule — making the
    certificate value schedule-independent and the parity comparison exact.
    """
    params = derive_parameters(n=4, epsilon=1.0, delta_max=8.0, max_rounds=6)
    scheme = SignatureScheme(num_nodes=4, master_secret=b"transport-parity")
    nodes = {
        node_id: EpochNode(
            DoraNode(
                node_id=node_id, params=params, value=inputs[node_id], scheme=scheme
            ),
            epoch=0,
        )
        for node_id in range(4)
    }
    runtime = AsyncioRuntime(nodes, timeout=30.0, transport=transport)
    runtime.run()
    certificates = {
        node_id: node.certificate for node_id, node in nodes.items()
    }
    assert all(cert is not None for cert in certificates.values())
    assert all(
        cert.signer_count >= params.t + 1 for cert in certificates.values()
    )
    return {node_id: cert.value for node_id, cert in certificates.items()}


class TestTransportParity:
    def test_one_decode_per_content_one_pickle_per_broadcast(
        self, monkeypatch, bundle_codec_calls
    ):
        """Clock-free counts of what a socket epoch pays per *content*, not
        per receiver: receivers of the same wire bytes share one message, so
        decodes, pickle.dumps and pickle.loads all track distinct contents,
        and a sender's queued messages share a frame."""
        from repro.core import delphi

        encoded, decoded = bundle_codec_calls
        deliveries, sent, pickled, unpickled = [], {}, [], []
        process, dumps = delphi.DelphiNode._process_bundle, socket_transport.dumps_message

        def counting_process(node, sender, incoming):
            deliveries.append(sender)
            return process(node, sender, incoming)

        def counting_dumps(message):
            sent[id(message)] = message  # held, so ids stay distinct
            return dumps(message)

        def counting_pickle(*args, **kwargs):
            pickled.append(args[0])
            return pickle.dumps(*args, **kwargs)

        def counting_unpickle(data):
            unpickled.append(data)
            return pickle.loads(data)

        monkeypatch.setattr(delphi.DelphiNode, "_process_bundle", counting_process)
        monkeypatch.setattr(socket_transport, "dumps_message", counting_dumps)
        monkeypatch.setattr(socket_transport, "_LOADED", {})
        monkeypatch.setattr(
            socket_transport,
            "pickle",
            SimpleNamespace(
                dumps=counting_pickle,
                loads=counting_unpickle,
                HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
            ),
        )

        transport = SocketTransport()
        socket_values = _dora_epoch_values(transport)

        distinct = len(set(encoded))
        assert 0 < len(decoded) <= distinct
        assert len(deliveries) >= 3 * distinct
        # One pickle per cross-node physical message, one unpickle per
        # distinct byte string, however many channels carried it.
        assert len(pickled) == len(sent)
        wire = {dumps(message) for message in sent.values()}
        assert 0 < len(unpickled) <= len(wire)
        assert len(unpickled) == len(set(unpickled))
        assert transport.messages_sent >= 2 * len(sent)
        assert transport.messages_received >= 3 * len(unpickled)
        assert 0 < transport.frames_sent <= transport.messages_sent
        # Inputs a few epsilon apart make a node answer several deliveries
        # before it yields: what it queued for a peer then shares a frame.
        spread = SocketTransport()
        _dora_epoch_values(spread, inputs=(100.0, 102.5, 105.0, 107.5))
        assert spread.messages_received <= spread.messages_sent
        assert 0 < 2 * spread.frames_sent < spread.messages_sent
        monkeypatch.undo()
        assert socket_values == _dora_epoch_values(InMemoryTransport())

    def test_same_epoch_identical_certificates(self):
        memory_values = _dora_epoch_values(InMemoryTransport())
        socket_values = _dora_epoch_values(SocketTransport())
        assert memory_values == socket_values
        assert set(socket_values.values()) == {100.0}

    def test_oracle_service_transport_factory_parity(self):
        """The service-level seam: the same workload/seed over in-memory and
        socket transports certifies identical values epoch after epoch."""

        class TightFeed:
            def epoch_inputs(self, n):
                return [100.0 + 0.05 * index for index in range(n)]

        params = derive_parameters(n=4, epsilon=1.0, delta_max=8.0, max_rounds=6)

        def values(transport_factory):
            service = OracleService(
                params,
                TightFeed(),
                engine="asyncio",
                seed=11,
                transport_factory=transport_factory,
                workload_name="tight",
            )
            return [service.run_epoch().value for _ in range(2)]

        memory = values(None)
        socket = values(lambda epoch: SocketTransport(epoch=epoch))
        assert memory == socket


# ----------------------------------------------------------------------
# Redial backoff: capped exponential schedule with deterministic jitter
# ----------------------------------------------------------------------
class _HalfRng:
    """Stand-in rng whose jitter factor is exactly 1.0 (0.5 + 0.5)."""

    def random(self):
        return 0.5


class TestRedialBackoff:
    def test_backoff_doubles_then_saturates(self):
        rng = _HalfRng()
        delays = [backoff_delay(0.5, 8.0, failures, rng) for failures in range(1, 8)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_zero_failures_treated_as_first(self):
        assert backoff_delay(0.5, 8.0, 0, _HalfRng()) == 0.5

    def test_huge_failure_count_does_not_overflow(self):
        # 2**failures would overflow a float for large counts; the exponent
        # clamp keeps the arithmetic finite and the result at the cap.
        assert backoff_delay(0.5, 8.0, 10**6, _HalfRng()) == 8.0

    def test_jitter_bounded_and_seed_deterministic(self):
        first = [backoff_delay(0.5, 8.0, k, random.Random(42)) for k in range(1, 6)]
        second = [backoff_delay(0.5, 8.0, k, random.Random(42)) for k in range(1, 6)]
        assert first == second  # same seed -> identical schedule
        rng = random.Random(7)
        for failures in range(1, 10):
            raw = min(8.0, 0.5 * 2.0 ** (failures - 1))
            delay = backoff_delay(0.5, 8.0, failures, rng)
            assert 0.5 * raw <= delay < 1.5 * raw

    def test_failures_accumulate_then_reset_on_recovery(self):
        """An unreachable peer pushes the channel's redial schedule out
        exponentially; the first completed handshake after the peer returns
        resets it to the base."""

        async def scenario():
            port = _unused_port()
            addresses = {
                0: ("tcp", "127.0.0.1", 0),
                1: ("tcp", "127.0.0.1", port),  # nothing listening yet
            }
            sender_side = SocketTransport(
                addresses=addresses,
                local_ids=[0],
                dial_timeout=0.5,
                dial_retries=1,
                dial_retry_delay=0.0,
                redial_backoff=0.02,
                redial_backoff_max=0.1,
                backoff_seed=7,
            )
            await sender_side.open([0])

            await sender_side.put(1, (0, msg(payload="lost-1")))
            key = (0, 1)
            assert await until(
                lambda: key in sender_side._senders
                and sender_side._senders[key].failures == 1
            )
            channel = sender_side._senders[key]
            assert channel.backoff_until > 0.0

            # Wait out the backoff window, fail again: the count grows.
            assert await until(lambda: time.monotonic() >= channel.backoff_until)
            await sender_side.put(1, (0, msg(payload="lost-2")))
            assert await until(lambda: channel.failures == 2)

            # Peer comes up at the advertised address; messages dropped
            # during backoff are gone (fire-and-forget transport), so keep
            # offering fresh ones until one lands.
            receiver_side = SocketTransport(addresses=addresses, local_ids=[1])
            await receiver_side.open([1])
            delivered = None
            for attempt in range(200):
                await sender_side.put(1, (0, msg(payload=f"retry-{attempt}")))
                try:
                    delivered = await asyncio.wait_for(receiver_side.get(1), 0.05)
                    break
                except asyncio.TimeoutError:
                    continue
            assert delivered is not None
            sender_id, message = delivered
            assert sender_id == 0
            assert message.payload.startswith("retry-")
            # Handshake succeeded: the schedule restarts from the base.
            assert channel.failures == 0
            assert channel.backoff_until == 0.0

            await sender_side.close()
            await receiver_side.close()

        run(scenario())

    def test_reset_connection_forgets_a_redial_backoff(self, tmp_path):
        """A frame offered during the backoff window is dropped; a caller
        that knows the peer is back (the supervisor, holding its JOIN)
        resets the channel and the very next frame dials and lands."""
        addresses = {i: ("unix", str(tmp_path / f"{i}.sock")) for i in (0, 1)}

        async def scenario():
            sender_side = SocketTransport(
                addresses, local_ids=[0], dial_retries=1, redial_backoff=30.0
            )
            await sender_side.open([0])
            await sender_side.put(1, (0, msg(payload="nobody home")))
            assert await until(lambda: sender_side.dropped_unreachable == 1)
            receiver_side = SocketTransport(addresses, local_ids=[1])
            await receiver_side.open([1])
            await sender_side.put(1, (0, msg(payload="still backing off")))
            assert await until(lambda: sender_side.dropped_unreachable == 2)
            assert sender_side.reset_connection(0, 1) is False  # nothing live
            await sender_side.put(1, (0, msg(payload="greeting")))
            received = await asyncio.wait_for(receiver_side.get(1), 5)
            assert received[1].payload == "greeting"
            assert sender_side.connections_reset == 0
            await sender_side.close()
            await receiver_side.close()

        run(scenario())
