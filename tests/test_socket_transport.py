"""Tests for the real-socket transport: framing over live connections, HMAC
tamper/replay rejection, concurrent writer interleaving, close semantics, the
put-after-close seam contract shared with InMemoryTransport, and the
InMemory-vs-Socket DORA parity run."""

import asyncio
import os
import pickle
import random
import socket as socket_module
import time
from types import SimpleNamespace

import pytest

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
    encode_frame,
    encode_hello,
    verify_ack,
)
from repro.net.message import Message
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
            frame = encode_frame(codec.seal(dumps_message(msg(payload="dribbled"))))
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
async def _authenticated_raw_client(transport, sender, receiver):
    """Dial ``receiver`` as ``sender`` by hand; returns (codec, writer)."""
    address = transport.addresses[receiver]
    key = ChannelKeyring(
        node_id=sender, num_nodes=2, master_secret=transport.master_secret
    ).key_for(receiver)
    reader, writer = await asyncio.open_connection(address[1], address[2])
    nonce = os.urandom(NONCE_BYTES)
    writer.write(encode_frame(encode_hello(key, sender, receiver, 0, nonce)))
    await writer.drain()
    prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
    body = await reader.readexactly(int.from_bytes(prefix, "big"))
    peer_epoch, ack_nonce, tag = decode_ack(body)
    verify_ack(key, sender, receiver, peer_epoch, nonce, ack_nonce, tag)
    return ChannelCodec(key, nonce, ack_nonce), writer


class TestAuthentication:
    def test_tampered_frame_rejected_and_counted(self):
        async def scenario():
            transport = SocketTransport()
            await transport.open([0, 1])
            codec, writer = await _authenticated_raw_client(transport, 0, 1)
            writer.write(encode_frame(codec.seal(dumps_message(msg(payload="good")))))
            tampered = bytearray(codec.seal(dumps_message(msg(payload="evil"))))
            tampered[-1] ^= 0xFF
            writer.write(encode_frame(bytes(tampered)))
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
            sealed = codec.seal(dumps_message(msg(payload="once")))
            writer.write(encode_frame(sealed))
            writer.write(encode_frame(sealed))  # byte-identical replay
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
            recorded = encode_frame(codec.seal(dumps_message(msg(payload="secret"))))
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
            transport.open([0, 1])
            transport.close()
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
def _dora_epoch_values(transport):
    """One DORA epoch on the given transport; returns the certified values.

    Inputs sit within one epsilon of each other, so every honest node must
    round to the same grid point on *any* schedule — making the certificate
    value schedule-independent and the parity comparison exact.
    """
    params = derive_parameters(n=4, epsilon=1.0, delta_max=8.0, max_rounds=6)
    scheme = SignatureScheme(num_nodes=4, master_secret=b"transport-parity")
    inputs = [100.0, 100.2, 100.3, 100.4]
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
        """Across real sockets every receiver unpickles its own message, so
        neither count can lean on the receivers sharing one object."""
        from repro.core import delphi
        from repro.net import socket_transport

        encoded, decoded = bundle_codec_calls
        deliveries, sent, pickled = [], {}, []
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

        monkeypatch.setattr(delphi.DelphiNode, "_process_bundle", counting_process)
        monkeypatch.setattr(socket_transport, "dumps_message", counting_dumps)
        monkeypatch.setattr(
            socket_transport,
            "pickle",
            SimpleNamespace(
                dumps=counting_pickle,
                loads=pickle.loads,
                HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
            ),
        )

        transport = SocketTransport()
        socket_values = _dora_epoch_values(transport)

        distinct = len(set(encoded))
        assert 0 < len(decoded) <= distinct
        assert len(deliveries) >= 3 * distinct
        # One pickle per cross-node physical message, one frame per channel.
        assert len(pickled) == len(sent)
        assert transport.frames_sent >= 2 * len(sent)
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
                parity_engine=None,
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
            probe = socket_module.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
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
