"""Tests for the client-facing oracle gateway stack: the HTTP/WebSocket
wire layer, the tick-buffer workload, the gateway endpoints and certificate
stream over real sockets, and the slow-consumer backpressure contract
(bounded send queues, eviction, exact drop accounting)."""

import asyncio
import json
import threading

import pytest

from repro.errors import ConfigurationError, GatewayError, LivenessTimeout
from repro.net.http_ws import (
    MAX_HEAD_BYTES,
    OP_BINARY,
    OP_CLOSE,
    OP_PING,
    OP_TEXT,
    WSParser,
    encode_ws_frame,
    parse_request_head,
    parse_response_head,
    read_head,
    render_request,
    render_response,
    websocket_accept,
)
from repro.oracle.clients import GatewaySubscriber, http_request
from repro.oracle.gateway import OracleGateway, build_gateway
from repro.workloads.sensors import SensorGridWorkload
from repro.workloads.ticks import TickBufferWorkload


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


class _BytesReader:
    """Feed read_head from a canned byte string in fixed-size chunks."""

    def __init__(self, data, chunk=1024):
        self.data = data
        self.chunk = chunk

    async def read(self, n):
        del n
        piece, self.data = self.data[: self.chunk], self.data[self.chunk :]
        return piece


# ----------------------------------------------------------------------
# HTTP/WebSocket wire layer
# ----------------------------------------------------------------------
class TestHttpHeads:
    def test_request_head_round_trip(self):
        raw = render_request(
            "POST", "/ticks", "h:1", b'{"values":[1]}', extra_headers={"X-A": "b"}
        )
        head, overrun = run(read_head(_BytesReader(raw)))
        method, target, headers = parse_request_head(head)
        assert (method, target) == ("POST", "/ticks")
        assert headers["host"] == "h:1"
        assert headers["x-a"] == "b"
        assert overrun == b'{"values":[1]}'

    def test_response_head_round_trip(self):
        raw = render_response(404, "Not Found", b'{"error":"x"}')
        head, overrun = run(read_head(_BytesReader(raw, chunk=7)))
        status, headers = parse_response_head(head)
        assert status == 404
        assert headers["content-length"] == "13"
        assert headers["connection"] == "close"
        # Chunked reads stop at the first chunk containing the blank line:
        # the overrun is whatever body prefix that chunk over-read.
        assert b'{"error":"x"}'.startswith(overrun)

    def test_oversized_head_rejected_before_buffering(self):
        raw = b"GET / HTTP/1.1\r\n" + b"X-Pad: " + b"a" * MAX_HEAD_BYTES
        with pytest.raises(GatewayError):
            run(read_head(_BytesReader(raw)))

    def test_truncated_head_is_typed(self):
        with pytest.raises(GatewayError):
            run(read_head(_BytesReader(b"GET / HTTP/1.1\r\nHost: x\r\n")))

    def test_malformed_request_line_rejected(self):
        with pytest.raises(GatewayError):
            parse_request_head(b"NOT-HTTP\r\n\r\n")
        with pytest.raises(GatewayError):
            parse_request_head(b"GET /x SPDY/3\r\n\r\n")

    def test_malformed_header_line_rejected(self):
        with pytest.raises(GatewayError):
            parse_request_head(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")


class TestWebSocketWire:
    def test_accept_key_matches_rfc6455_example(self):
        # The worked example from RFC 6455 section 1.3.
        assert (
            websocket_accept("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize("size", [0, 5, 125, 126, 65535, 65536, 70000])
    def test_masked_frame_round_trip_across_length_encodings(self, size):
        payload = bytes(i % 251 for i in range(size))
        frame = encode_ws_frame(OP_BINARY, payload, mask=b"\x01\x02\x03\x04")
        parser = WSParser(require_mask=True)
        # Dribble the frame in 7-byte chunks: the parser must reassemble.
        messages = []
        for index in range(0, len(frame), 7):
            messages.extend(parser.feed(frame[index : index + 7]))
        assert messages == [(OP_BINARY, payload)]

    def test_unmasked_frame_round_trip(self):
        frame = encode_ws_frame(OP_TEXT, b"hello")
        assert WSParser(require_mask=False).feed(frame) == [(OP_TEXT, b"hello")]

    def test_mask_direction_enforced_both_ways(self):
        with pytest.raises(GatewayError):
            WSParser(require_mask=True).feed(encode_ws_frame(OP_TEXT, b"x"))
        with pytest.raises(GatewayError):
            WSParser(require_mask=False).feed(
                encode_ws_frame(OP_TEXT, b"x", mask=b"abcd")
            )

    def test_payload_cap_enforced_from_header(self):
        parser = WSParser(require_mask=False, max_payload=16)
        frame = encode_ws_frame(OP_BINARY, b"y" * 17)
        with pytest.raises(GatewayError):
            # Header alone declares 17 bytes: rejected before buffering.
            parser.feed(frame[:4])

    def test_fragmented_frames_rejected(self):
        frame = bytearray(encode_ws_frame(OP_TEXT, b"frag"))
        frame[0] &= 0x7F  # clear FIN
        with pytest.raises(GatewayError):
            WSParser(require_mask=False).feed(bytes(frame))

    def test_unknown_opcode_rejected(self):
        frame = bytearray(encode_ws_frame(OP_TEXT, b"x"))
        frame[0] = 0x80 | 0x3  # reserved non-control opcode
        with pytest.raises(GatewayError):
            WSParser(require_mask=False).feed(bytes(frame))

    def test_oversized_control_frame_rejected_at_encode(self):
        with pytest.raises(GatewayError):
            encode_ws_frame(OP_PING, b"p" * 126)


# ----------------------------------------------------------------------
# Tick-buffer workload
# ----------------------------------------------------------------------
class _ConstantFeed:
    def __init__(self, value=10.0):
        self.value = value
        self.calls = 0

    def epoch_inputs(self, num_nodes):
        self.calls += 1
        return [self.value] * num_nodes


class TestTickBufferWorkload:
    def test_epoch_from_ticks_uses_newest_and_never_mixes(self):
        feed = _ConstantFeed()
        ticks = TickBufferWorkload(feed)
        assert ticks.push([1.0, 2.0, 3.0, 4.0, 5.0]) == 5
        inputs = ticks.epoch_inputs(3)
        assert inputs == [3.0, 4.0, 5.0]  # newest 3, no feed values mixed in
        assert feed.calls == 0
        assert ticks.epochs_from_ticks == 1
        assert ticks.ticks_consumed == 3
        assert ticks.ticks_discarded == 2  # the stale older ticks

    def test_too_few_ticks_falls_back_entirely_to_feed(self):
        feed = _ConstantFeed(7.5)
        ticks = TickBufferWorkload(feed)
        ticks.push([1.0, 2.0])
        assert ticks.epoch_inputs(3) == [7.5, 7.5, 7.5]
        assert ticks.epochs_from_feed == 1
        assert ticks.pending == 0  # pool drained either way

    def test_rejects_nonfinite_and_unparseable(self):
        ticks = TickBufferWorkload(_ConstantFeed())
        assert ticks.push([float("nan"), float("inf"), "bogus", None, 1.0]) == 1
        assert ticks.ticks_rejected == 4
        assert ticks.ticks_accepted == 1

    def test_bounds_enforced(self):
        ticks = TickBufferWorkload(_ConstantFeed(), bounds=(0.0, 100.0))
        assert ticks.push([-1.0, 50.0, 101.0]) == 1

    def test_median_window_rejects_outliers(self):
        ticks = TickBufferWorkload(_ConstantFeed(), max_spread=10.0)
        assert ticks.push([100.0, 101.0, 99.0]) == 3
        # 200 is far beyond max_spread/2 from the median: a hostile tick
        # cannot drag the epoch hull open (which would abort the service).
        assert ticks.push([200.0]) == 0
        assert ticks.push([104.0]) == 1
        assert ticks.ticks_rejected == 1

    def test_bounded_pool_discards_oldest(self):
        ticks = TickBufferWorkload(_ConstantFeed(), max_pending=3)
        ticks.push([1.0, 2.0, 3.0, 4.0, 5.0])
        assert ticks.pending == 3
        assert ticks.ticks_discarded == 2
        assert ticks.epoch_inputs(3) == [3.0, 4.0, 5.0]  # newest data won

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            TickBufferWorkload(_ConstantFeed(), max_pending=0)
        with pytest.raises(ConfigurationError):
            TickBufferWorkload(_ConstantFeed(), max_spread=-1.0)
        with pytest.raises(ConfigurationError):
            TickBufferWorkload(_ConstantFeed(), bounds=(5.0, 5.0))

    def test_stats_snapshot_is_json_safe(self):
        ticks = TickBufferWorkload(_ConstantFeed())
        ticks.push([1.0, 2.0])
        snapshot = ticks.stats()
        json.dumps(snapshot)
        assert snapshot["pending"] == 2
        assert snapshot["received"] == 2


# ----------------------------------------------------------------------
# Gateway endpoints and stream over real sockets
# ----------------------------------------------------------------------
def _gateway(**overrides):
    options = dict(engine="fast", seed=3, queue_limit=16)
    options.update(overrides)
    return build_gateway("sensors", 4, **options)


class TestGatewayEndpoints:
    def test_healthz_metrics_and_queries(self):
        async def scenario():
            gateway = _gateway()
            host, port = await gateway.start()
            status, body = await http_request(host, port, "GET", "/healthz")
            assert (status, body["status"]) == (200, "ok")
            assert body["reasons"] == []
            status, body = await http_request(host, port, "GET", "/certs/latest")
            assert status == 404  # nothing served yet
            await gateway.run_epochs(2)
            status, body = await http_request(host, port, "GET", "/healthz")
            assert body["epochs_served"] == 2
            status, latest = await http_request(host, port, "GET", "/certs/latest")
            assert (status, latest["seq"]) == (200, 1)
            status, page = await http_request(
                host, port, "GET", "/certs?since=1&limit=5"
            )
            assert [e["seq"] for e in page["certificates"]] == [1]
            status, metrics = await http_request(host, port, "GET", "/metrics")
            assert metrics["certs_published"] == 2
            assert metrics["ticks"]["received"] == 0
            json.dumps(metrics)  # the whole snapshot must be JSON-safe
            await gateway.close()

        run(scenario())

    def test_tick_ingestion_feeds_epochs(self):
        async def scenario():
            gateway = _gateway()
            host, port = await gateway.start()
            status, body = await http_request(
                host, port, "POST", "/ticks", {"values": [20.0, 20.1, 20.2, 20.3]}
            )
            assert (status, body["accepted"]) == (200, 4)
            reports = await gateway.run_epochs(1)
            # 4 coherent ticks pending >= n=4: the epoch is client-fed.
            assert gateway.ticks.epochs_from_ticks == 1
            assert 19.0 <= reports[0].value <= 21.0
            await gateway.close()

        run(scenario())

    def test_bad_requests_are_400_and_counted(self):
        async def scenario():
            gateway = _gateway()
            host, port = await gateway.start()
            status, body = await http_request(host, port, "POST", "/ticks", {"no": 1})
            assert status == 400
            status, _body = await http_request(host, port, "GET", "/certs?since=x")
            assert status == 400
            status, _body = await http_request(host, port, "GET", "/nope")
            assert status == 404
            status, _body = await http_request(host, port, "DELETE", "/metrics")
            assert status == 405
            for length in (b"abc", b"-1", b"99999999999"):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /ticks HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + length + b"\r\n\r\n"
                )
                head, _overrun = await read_head(reader)
                assert parse_response_head(head)[0] == 400, length
                writer.close()
            assert gateway.bad_requests == 5
            assert gateway.handler_errors == 0
            await gateway.close()

        run(scenario())

    def test_history_index_is_bounded(self):
        async def scenario():
            gateway = _gateway(history_limit=2)
            host, port = await gateway.start()
            await gateway.run_epochs(4)
            status, page = await http_request(
                host, port, "GET", "/certs?since=0&limit=100"
            )
            assert [e["seq"] for e in page["certificates"]] == [2, 3]
            await gateway.close()

        run(scenario())

    def test_configuration_validation(self):
        service = _gateway().service
        with pytest.raises(ConfigurationError):
            OracleGateway(service, queue_limit=0)
        with pytest.raises(ConfigurationError):
            run(_gateway().run_epochs(0))


class TestGatewayDegradation:
    """The /healthz tri-state contract: a wedged or dead epoch runner is a
    503, skipped epochs and an open tick breaker degrade, and handler bugs
    reached by poisoned frames are counted instead of silently swallowed."""

    def test_stalled_epoch_runner_is_unhealthy_then_recovers(self):
        async def scenario():
            gateway = _gateway()
            gateway.service.epoch_timeout = 0.05  # stall budget = 0.075s
            release = threading.Event()
            real_run_epoch = gateway.service.run_epoch

            def wedged():
                release.wait(5.0)
                return real_run_epoch()

            gateway.service.run_epoch = wedged
            host, port = await gateway.start()
            task = asyncio.create_task(gateway.run_epochs(1))
            assert await until(lambda: gateway._epoch_started_at is not None)
            await asyncio.sleep(0.15)  # sail past epoch_timeout * 1.5
            status, body = await http_request(host, port, "GET", "/healthz")
            assert (status, body["status"]) == (503, "unhealthy")
            assert any("epoch stalled" in reason for reason in body["reasons"])
            gateway.service.epoch_timeout = 30.0  # un-wedge and finish
            release.set()
            await task
            status, body = await http_request(host, port, "GET", "/healthz")
            assert (status, body["status"]) == (200, "ok")
            await gateway.close()

        run(scenario())

    def test_dead_epoch_runner_is_unhealthy_not_silently_ok(self):
        """Regression for the /healthz blind spot: the runner dying used to
        leave /healthz reporting 200 ok forever."""

        async def scenario():
            gateway = _gateway()

            def dead():
                raise RuntimeError("executor died")

            gateway.service.run_epoch = dead
            host, port = await gateway.start()
            with pytest.raises(RuntimeError):
                await gateway.run_epochs(3)
            status, body = await http_request(host, port, "GET", "/healthz")
            assert (status, body["status"]) == (503, "unhealthy")
            assert "RuntimeError: executor died" in body["failure"]
            assert any("epoch runner failed" in r for r in body["reasons"])
            await gateway.close()

        run(scenario())

    def test_skipped_epochs_degrade_but_keep_serving(self):
        async def scenario():
            gateway = _gateway()
            real_run_epoch = gateway.service.run_epoch
            calls = {"n": 0}

            def flaky():
                calls["n"] += 1
                if calls["n"] == 1:
                    gateway.service._epoch += 1  # advance-then-fail, like the real one
                    raise LivenessTimeout("transient stall")
                return real_run_epoch()

            gateway.service.run_epoch = flaky
            host, port = await gateway.start()
            reports = await gateway.run_epochs(2)
            assert len(reports) == 1  # epoch 0 skipped, epoch 1 certified
            status, body = await http_request(host, port, "GET", "/healthz")
            assert (status, body["status"]) == (200, "degraded")
            assert any("skipped" in reason for reason in body["reasons"])
            assert body["epochs_skipped"] == 1
            _status, metrics = await http_request(host, port, "GET", "/metrics")
            assert metrics["epochs_skipped"] == 1  # single-counted
            assert metrics["epochs_failed"] == 1
            await gateway.close()

        run(scenario())

    def test_external_health_source_merges_by_severity(self):
        async def scenario():
            gateway = _gateway()
            verdict = {"status": "ok", "reasons": []}
            gateway.health_source = lambda: (verdict["status"], verdict["reasons"])
            host, port = await gateway.start()
            status, body = await http_request(host, port, "GET", "/healthz")
            assert (status, body["status"]) == (200, "ok")
            verdict.update(status="degraded", reasons=["epochs skipped: [2]"])
            status, body = await http_request(host, port, "GET", "/healthz")
            assert (status, body["status"]) == (200, "degraded")
            verdict.update(status="unhealthy", reasons=["invariant violated"])
            status, body = await http_request(host, port, "GET", "/healthz")
            assert (status, body["status"]) == (503, "unhealthy")
            assert "invariant violated" in body["reasons"]
            await gateway.close()

        run(scenario())

    def test_poisoned_frame_counts_handler_error_not_bad_request(self):
        """A request that parses but explodes deeper in (here: a handler that
        raises ZeroDivisionError) must land in handler_errors with a 500 —
        and the gateway must keep serving."""

        async def scenario():
            gateway = _gateway()
            gateway.history = lambda **_query: 1 / 0
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /certs HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            head, _overrun = await read_head(reader)
            status, _headers = parse_response_head(head)
            assert status == 500
            writer.close()
            assert gateway.handler_errors == 1
            assert gateway.bad_requests == 0  # distinct from 400 accounting
            status, metrics = await http_request(host, port, "GET", "/metrics")
            assert (status, metrics["handler_errors"]) == (200, 1)
            await gateway.close()

        run(scenario())


class TestGatewayStream:
    def test_every_subscriber_receives_every_certificate(self):
        async def scenario():
            gateway = _gateway()
            host, port = await gateway.start()
            subscribers = [GatewaySubscriber(host, port) for _ in range(6)]
            for subscriber in subscribers:
                await subscriber.connect()
            reports = await gateway.run_epochs(3)
            expected = [report.value for report in reports]
            for subscriber in subscribers:
                got = [await subscriber.recv(timeout=5.0) for _ in range(3)]
                assert [entry["value"] for entry in got] == expected
                assert [entry["seq"] for entry in got] == [0, 1, 2]
            for subscriber in subscribers:
                await subscriber.close()
            assert await until(lambda: not gateway._subscribers)
            await gateway.close()

        run(scenario())

    def test_since_query_replays_backlog_before_live_frames(self):
        async def scenario():
            gateway = _gateway()
            host, port = await gateway.start()
            await gateway.run_epochs(2)
            late = GatewaySubscriber(host, port, since=0)
            await late.connect()
            backlog = [await late.recv(timeout=5.0) for _ in range(2)]
            assert [entry["seq"] for entry in backlog] == [0, 1]
            await gateway.run_epochs(1)
            live = await late.recv(timeout=5.0)
            assert live["seq"] == 2
            await late.close()
            await gateway.close()

        run(scenario())

    def test_ws_ticks_and_ping_on_the_stream_connection(self):
        async def scenario():
            gateway = _gateway()
            host, port = await gateway.start()
            subscriber = GatewaySubscriber(host, port)
            await subscriber.connect()
            await subscriber.send_ticks([20.0, 20.1, 20.2, 20.3])
            assert await until(lambda: gateway.ticks.pending == 4)
            await subscriber.ping()
            await gateway.run_epochs(1)
            entry = await subscriber.recv(timeout=5.0)  # pong swallowed
            assert entry["seq"] == 0
            assert gateway.ticks.epochs_from_ticks == 1
            await subscriber.close()
            await gateway.close()

        run(scenario())

    def test_bad_websocket_upgrade_refused(self):
        async def scenario():
            gateway = _gateway()
            host, port = await gateway.start()
            status, _body = await http_request(
                host, port, "GET", "/ws"
            )  # no upgrade headers: routed as plain HTTP, unknown path
            assert status == 404
            await gateway.close()

        run(scenario())


# ----------------------------------------------------------------------
# Backpressure: bounded queues, eviction, exact drop accounting
# ----------------------------------------------------------------------
class _JammedWriter:
    """A StreamWriter stand-in whose socket window never opens again.

    Emulates a stalled TCP consumer deterministically (kernel socket
    buffers are far too large for a handful of small frames to jam a real
    loopback connection in-test): writes vanish, ``drain`` never completes,
    ``close`` still tears down the real connection.
    """

    def __init__(self, inner):
        self.inner = inner

    def write(self, data):
        del data

    async def drain(self):
        await asyncio.Event().wait()  # blocks until the drain task is cancelled

    def close(self):
        self.inner.close()


class TestBackpressure:
    def test_stalled_subscriber_evicted_others_unharmed(self):
        """A subscriber that never drains must be evicted once its bounded
        queue overflows, with its undelivered messages counted exactly —
        while every healthy subscriber still receives the full stream."""

        async def scenario():
            queue_limit = 3
            gateway = _gateway(queue_limit=queue_limit)
            host, port = await gateway.start()
            healthy = [GatewaySubscriber(host, port) for _ in range(3)]
            for subscriber in healthy:
                await subscriber.connect()
            stalled = GatewaySubscriber(host, port)
            await stalled.connect()
            # Jam the server-side writer of the stalled subscription: its
            # drain task will hang on the first frame with the window shut.
            assert await until(lambda: len(gateway._subscribers) == 4)
            jammed = max(gateway._subscribers)  # connected last
            gateway._subscribers[jammed].writer = _JammedWriter(
                gateway._subscribers[jammed].writer
            )

            epochs = 6  # > queue_limit + 1: guaranteed overflow
            reports = await gateway.run_epochs(epochs)
            assert await until(lambda: gateway.evictions == 1)

            # Healthy subscribers: the complete stream, in order.
            for subscriber in healthy:
                got = [await subscriber.recv(timeout=5.0) for _ in range(epochs)]
                assert [entry["seq"] for entry in got] == list(range(epochs))
                assert [entry["value"] for entry in got] == [
                    report.value for report in reports
                ]

            # Exact drop accounting: publish #1 went to the drain task's
            # hand (blocked mid-drain), #2..#4 filled the 3-slot queue, #5
            # overflowed -> eviction counted 1 (in hand) + 3 (queued) + 1
            # (overflowing) = 5 drops; publish #6 found it already gone.
            metrics = gateway.metrics()
            assert metrics["evictions"] == 1
            assert metrics["send_drops"] == queue_limit + 2
            assert metrics["certs_delivered"] == 3 * epochs
            assert metrics["active_subscribers"] == 3

            # The evicted connection is actually closed: the client hits EOF.
            ended = await stalled.recv(timeout=5.0)
            assert ended is None

            for subscriber in healthy:
                await subscriber.close()
            await gateway.close()

        run(scenario())

    def test_publish_to_closed_peer_drops_quietly(self):
        async def scenario():
            gateway = _gateway()
            host, port = await gateway.start()
            subscriber = GatewaySubscriber(host, port)
            await subscriber.connect()
            await gateway.run_epochs(1)
            assert (await subscriber.recv(timeout=5.0))["seq"] == 0
            # Kill the socket without a close frame (crashed client).
            subscriber.writer.transport.abort()
            assert await until(lambda: not gateway._subscribers, timeout=5.0)
            # Publishing with no subscribers must not raise.
            await gateway.run_epochs(1)
            assert gateway.certs_published == 2
            await gateway.close()

        run(scenario())
