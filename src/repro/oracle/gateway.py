"""Client-facing oracle API gateway: HTTP/WebSocket front end for the service.

The paper's oracle network only matters to clients who can consume its
certified values, so this module wraps :class:`OracleService` (and, through
its transport seam, the process cluster of :mod:`repro.oracle.cluster`) in
an asyncio gateway
built on ``asyncio.start_server`` plus the stdlib-only HTTP/WebSocket layer
of :mod:`repro.net.http_ws` — no new runtime dependencies:

* **certificate stream** — WebSocket subscribers (``GET /ws``) receive every
  SMR-certified epoch value as a JSON text frame the moment the service
  commits it.  Each connection owns a **bounded send queue**; a subscriber
  that cannot keep up (queue overflow) is **evicted** — its connection is
  closed, its undelivered messages are counted in ``send_drops`` and the
  eviction in ``evictions`` — so one stalled client can never stall the
  stream for every other subscriber;
* **queries** — ``GET /certs/latest`` and ``GET /certs?since=S&limit=L``
  read a bounded in-memory certificate index (``history_limit`` newest
  epochs) without touching the service;
* **tick ingestion** — ``POST /ticks`` (or a ``{"op": "ticks"}`` WebSocket
  text frame) pushes raw workload ticks that are validated, buffered and
  batched into ``epoch_inputs`` by
  :class:`~repro.workloads.ticks.TickBufferWorkload`;
* **observability** — ``GET /metrics`` exports a JSON snapshot: certs
  published/delivered, active subscribers, queue depths, eviction/drop
  counters, tick-buffer counters and p50/p99 delivery latency measured from
  certificate publication to each subscriber's socket flush.

The service's epochs run on a worker thread (`run_in_executor`) so the event
loop keeps serving clients while an epoch computes; certificates hop back to
the loop through the pump coroutine that awaits each epoch.  ``python -m
repro gateway`` serves one live gateway; ``python -m repro loadgen``
(:mod:`repro.oracle.loadgen`) load-tests it with thousands of concurrent
subscribers.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigurationError, GatewayError
from repro.net.http_ws import (
    MAX_HEAD_BYTES,
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    WSParser,
    encode_ws_frame,
    parse_request_head,
    read_head,
    render_response,
    websocket_accept,
)
from repro.oracle.service import EpochReport, OracleService, SkippedEpoch, build_service
from repro.workloads.ticks import TickBufferWorkload

#: Default bound on each subscriber's send queue (certificates in flight).
DEFAULT_QUEUE_LIMIT = 64

#: Default bound on the in-memory certificate index.
DEFAULT_HISTORY_LIMIT = 1024

#: Bound on the delivery-latency reservoir (newest samples win).
LATENCY_RESERVOIR = 65536

#: Cap on a plain-HTTP request body (tick batches are small).
MAX_BODY_BYTES = 1024 * 1024

#: How far past the service's ``epoch_timeout`` a running epoch may stretch
#: before ``/healthz`` declares the runner wedged (the margin absorbs
#: executor-thread scheduling slack on a loaded host).
EPOCH_STALL_FACTOR = 1.5


def summarise_latencies(samples: Iterable[float], scale: float = 1.0) -> Dict[str, Any]:
    """Count, nearest-rank p50/p99 and maximum of ``samples``, each times
    ``scale`` (1000 turns seconds into the milliseconds the keys promise)."""
    ordered = sorted(samples)
    if not ordered:
        return {"samples": 0, "p50_ms": None, "p99_ms": None, "max_ms": None}
    count = len(ordered)
    return {
        "samples": count,
        "p50_ms": ordered[min(count - 1, int(0.50 * count))] * scale,
        "p99_ms": ordered[min(count - 1, int(0.99 * count))] * scale,
        "max_ms": ordered[-1] * scale,
    }


class _Subscriber:
    """One WebSocket subscription: bounded queue + drain task + counters."""

    __slots__ = (
        "subscriber_id",
        "writer",
        "queue",
        "task",
        "enqueued",
        "delivered",
        "evicted",
    )

    def __init__(
        self, subscriber_id: int, writer: asyncio.StreamWriter, limit: int
    ) -> None:
        self.subscriber_id = subscriber_id
        self.writer = writer
        self.queue: "asyncio.Queue[Tuple[float, bytes]]" = asyncio.Queue(maxsize=limit)
        self.task: Optional[asyncio.Task] = None
        #: Messages accepted into the queue / flushed to the socket.
        self.enqueued = 0
        self.delivered = 0
        self.evicted = False


class OracleGateway:
    """Serve one :class:`OracleService` to HTTP/WebSocket clients.

    Parameters
    ----------
    service:
        The oracle service whose certificate stream is published.  Its
        workload should be (but does not have to be) a
        :class:`TickBufferWorkload` so ``POST /ticks`` has somewhere to go.
    host / port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    queue_limit:
        Per-subscriber send-queue bound; overflow evicts the subscriber.
    history_limit:
        Bound on the queryable certificate index.

    Request heads and bodies are capped at :data:`MAX_HEAD_BYTES` and
    :data:`MAX_BODY_BYTES`.
    """

    def __init__(
        self,
        service: OracleService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        history_limit: int = DEFAULT_HISTORY_LIMIT,
    ) -> None:
        if queue_limit <= 0 or history_limit <= 0:
            raise ConfigurationError("queue_limit and history_limit must be positive")
        self.service = service
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.ticks: Optional[TickBufferWorkload] = (
            service.workload if isinstance(service.workload, TickBufferWorkload) else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._subscribers: Dict[int, _Subscriber] = {}
        self._connection_tasks: set = set()
        self._history: Deque[Dict[str, Any]] = deque(maxlen=history_limit)
        self._latencies: Deque[float] = deque(maxlen=LATENCY_RESERVOIR)
        self._next_subscriber_id = 0
        self._closed = False
        self._failure: Optional[str] = None
        self._serving = False
        #: Wall-clock start of the epoch currently running on the executor
        #: (``None`` between epochs) — the stalled-epoch detector's input.
        self._epoch_started_at: Optional[float] = None
        #: Optional external health contributor (the cluster supervisor wires
        #: one in when it fronts a live cluster with this gateway): a
        #: callable returning ``(status, reasons)`` merged into /healthz.
        self.health_source: Optional[Callable[[], Tuple[str, List[str]]]] = None
        # Observability counters (all monotonic).
        self.certs_published = 0
        self.certs_delivered = 0
        self.send_drops = 0
        self.evictions = 0
        self.subscribers_total = 0
        self.requests_served = 0
        self.bad_requests = 0
        self.handler_errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns ``(host, port)`` actually bound."""
        if self._server is not None:
            raise GatewayError("gateway already started")
        self._closed = False
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def close(self) -> None:
        """Tear down the listener, every subscriber and every in-flight
        request handler."""
        if self._closed and self._server is None:
            return
        self._closed = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass
        subscribers = list(self._subscribers.values())
        self._subscribers = {}
        for subscriber in subscribers:
            self._shutdown_subscriber(subscriber)
        tasks = [s.task for s in subscribers if s.task is not None]
        tasks.extend(self._connection_tasks)
        self._connection_tasks = set()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def run_epochs(
        self,
        epochs: int,
        *,
        interval: float = 0.0,
        progress: Optional[Callable[[str], None]] = None,
    ) -> List[EpochReport]:
        """Serve ``epochs`` consecutive epochs, publishing each certificate.

        Each epoch runs on a worker thread so the event loop keeps serving
        clients, through the service's watchdog
        (:meth:`~repro.oracle.service.OracleService.run_epoch_resilient`):
        recoverable failures retry then skip-and-account (degrading
        ``/healthz``).  Any other failure (e.g. an invariant violation
        triggered by hostile ticks) is recorded and re-raised after marking
        the gateway unhealthy.
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        say = progress or (lambda message: None)
        loop = asyncio.get_running_loop()
        self._serving = True
        reports: List[EpochReport] = []
        try:
            for _ in range(epochs):
                self._epoch_started_at = time.monotonic()
                try:
                    outcome = await loop.run_in_executor(
                        None, self.service.run_epoch_resilient
                    )
                except Exception as error:
                    self._failure = f"{type(error).__name__}: {error}"
                    raise
                finally:
                    self._epoch_started_at = None
                if isinstance(outcome, SkippedEpoch):
                    # The service's own epochs_skipped counter already
                    # accounts this skip; /healthz and /metrics read it.
                    say(
                        f"[gateway] epoch {outcome.epoch}: SKIPPED "
                        f"({outcome.reason})"
                    )
                    continue
                reports.append(outcome)
                self.publish(outcome)
                say(
                    f"[gateway] epoch {outcome.epoch}: value={outcome.value:.6g} "
                    f"-> {len(self._subscribers)} subscribers"
                )
                if interval > 0:
                    await asyncio.sleep(interval)
        finally:
            self._serving = False
        return reports

    # ------------------------------------------------------------------
    # Publishing and backpressure
    # ------------------------------------------------------------------
    def publish(self, report: EpochReport) -> Dict[str, Any]:
        """Index one epoch report and fan it out to every subscriber."""
        entry = {
            "type": "certificate",
            "seq": self.certs_published,
            "epoch": report.epoch,
            "value": report.value,
            "signers": list(report.certificate.aggregate.signers),
            "input_range": report.input_range,
            "published_at": time.time(),
        }
        self.certs_published += 1
        self._history.append(entry)
        frame = encode_ws_frame(
            OP_TEXT, json.dumps(entry, separators=(",", ":")).encode("utf-8")
        )
        published = time.perf_counter()
        for subscriber in list(self._subscribers.values()):
            try:
                subscriber.queue.put_nowait((published, frame))
                subscriber.enqueued += 1
            except asyncio.QueueFull:
                # Slow consumer: the overflowing message plus everything
                # still queued (or in the drain task's hand) is dropped.
                self.send_drops += subscriber.enqueued - subscriber.delivered + 1
                self._evict(subscriber)
        return entry

    def _evict(self, subscriber: _Subscriber) -> None:
        if self._subscribers.pop(subscriber.subscriber_id, None) is None:
            return
        subscriber.evicted = True
        self.evictions += 1
        self._shutdown_subscriber(subscriber)

    def _shutdown_subscriber(self, subscriber: _Subscriber) -> None:
        if subscriber.task is not None:
            subscriber.task.cancel()
        try:
            subscriber.writer.close()
        except Exception:  # pragma: no cover - already-broken socket
            pass

    async def _drain_subscriber(self, subscriber: _Subscriber) -> None:
        """Per-subscriber sender loop: flush queued frames in order."""
        try:
            while True:
                published, frame = await subscriber.queue.get()
                subscriber.writer.write(frame)
                await subscriber.writer.drain()
                subscriber.delivered += 1
                self.certs_delivered += 1
                self._latencies.append(time.perf_counter() - published)
        except asyncio.CancelledError:
            raise
        except Exception:
            # Peer went away mid-write: drop the subscription quietly (the
            # undelivered remainder is counted like an eviction's).
            if self._subscribers.pop(subscriber.subscriber_id, None) is not None:
                self.send_drops += subscriber.enqueued - subscriber.delivered
                try:
                    subscriber.writer.close()
                except Exception:  # pragma: no cover
                    pass

    # ------------------------------------------------------------------
    # Metrics and queries
    # ------------------------------------------------------------------
    def latency_snapshot(self) -> Dict[str, Any]:
        """Delivery-latency summary (seconds -> milliseconds) so far."""
        return summarise_latencies(self._latencies, scale=1000.0)

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """The ``/healthz`` verdict: ``(http_status, body)``.

        * **unhealthy** (503) — the epoch runner died (its exception is in
          ``failure``; a dead executor thread surfaces the same way) or the
          running epoch has stalled past ``epoch_timeout * 1.5``;
        * **degraded** (200) — serving, but the tick-pool circuit breaker is
          open or epochs have been skipped (the external ``health_source``
          can contribute both degraded and unhealthy reasons);
        * **ok** (200) — none of the above.
        """
        reasons: List[str] = []
        degraded: List[str] = []
        if self._failure is not None:
            reasons.append(f"epoch runner failed: {self._failure}")
        started = self._epoch_started_at
        if started is not None:
            budget = self.service.epoch_timeout * EPOCH_STALL_FACTOR
            elapsed = time.monotonic() - started
            if elapsed > budget:
                reasons.append(
                    f"epoch stalled: running for {elapsed:.1f}s, budget "
                    f"{budget:.1f}s (epoch_timeout * {EPOCH_STALL_FACTOR})"
                )
        if self.ticks is not None and self.ticks.breaker_open:
            degraded.append("tick-pool circuit breaker open")
        skipped = self.service.epochs_skipped
        if skipped:
            degraded.append(f"{skipped} epochs skipped")
        if self.health_source is not None:
            source_status, source_reasons = self.health_source()
            if source_status == "unhealthy":
                reasons.extend(source_reasons)
            elif source_status == "degraded":
                degraded.extend(source_reasons)
        if reasons:
            status, http_status = "unhealthy", 503
        elif degraded:
            status, http_status = "degraded", 200
        else:
            status, http_status = "ok", 200
        return http_status, {
            "status": status,
            "reasons": reasons + degraded,
            "serving": self._serving,
            "failure": self._failure,
            "epochs_served": self.certs_published,
            "epochs_skipped": skipped,
        }

    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` JSON body."""
        depths = [s.queue.qsize() for s in self._subscribers.values()]
        body: Dict[str, Any] = {
            "serving": self._serving,
            "failure": self._failure,
            "health": self.health()[1]["status"],
            "certs_published": self.certs_published,
            "certs_delivered": self.certs_delivered,
            "active_subscribers": len(self._subscribers),
            "subscribers_total": self.subscribers_total,
            "evictions": self.evictions,
            "send_drops": self.send_drops,
            "queue_limit": self.queue_limit,
            "queue_depth_max": max(depths) if depths else 0,
            "queue_depth_mean": (sum(depths) / len(depths)) if depths else 0.0,
            "history_size": len(self._history),
            "requests_served": self.requests_served,
            "bad_requests": self.bad_requests,
            "handler_errors": self.handler_errors,
            "epochs_skipped": self.service.epochs_skipped,
            "epochs_failed": self.service.epochs_failed,
            "delivery_latency": self.latency_snapshot(),
        }
        if self.ticks is not None:
            body["ticks"] = self.ticks.stats()
        return body

    def history(self, since: int = 0, limit: int = 100) -> List[Dict[str, Any]]:
        """Certificate-index slice: entries with ``seq >= since``."""
        limit = max(0, min(limit, len(self._history)))
        entries = [entry for entry in self._history if entry["seq"] >= since]
        return entries[:limit]

    def push_ticks(self, values: Any) -> Dict[str, int]:
        """Ingest one client tick batch; returns acceptance counts."""
        if self.ticks is None:
            raise GatewayError("this gateway's workload does not accept ticks")
        if not isinstance(values, (list, tuple)) or not values:
            raise GatewayError("tick payload must be a non-empty list of numbers")
        accepted = self.ticks.push(values)
        return {"received": len(values), "accepted": accepted}

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connection_tasks.add(task)
        task.add_done_callback(self._connection_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head, overrun = await read_head(reader, MAX_HEAD_BYTES)
            method, target, headers = parse_request_head(head)
            parsed = urlparse(target)
            if headers.get("upgrade", "").lower() == "websocket":
                await self._serve_websocket(
                    reader, writer, parsed, headers, overrun
                )
                return
            body = await self._read_body(reader, headers, overrun)
            self.requests_served += 1
            response = self._route(method, parsed, body)
            writer.write(response)
            await writer.drain()
        except asyncio.CancelledError:
            raise
        except GatewayError as error:
            self.bad_requests += 1
            await self._try_error(writer, 400, str(error))
        except Exception:  # noqa: BLE001 - a broken client must not crash us
            # Not a malformed-request rejection (those are GatewayError ->
            # 400) but a handler bug or poisoned input reaching code that
            # did not expect it: counted separately so /metrics surfaces
            # what this except would otherwise swallow silently.
            self.handler_errors += 1
            await self._try_error(writer, 500, "internal gateway error")
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    async def _try_error(
        self, writer: asyncio.StreamWriter, status: int, detail: str
    ) -> None:
        try:
            writer.write(self._json_response(status, {"error": detail}))
            await writer.drain()
        except Exception:  # pragma: no cover - peer already gone
            pass

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str], overrun: bytes
    ) -> bytes:
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            raise GatewayError("Content-Length must be an integer") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise GatewayError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        body = bytearray(overrun)
        while len(body) < length:
            chunk = await reader.read(length - len(body))
            if not chunk:
                raise GatewayError("connection closed before the body completed")
            body.extend(chunk)
        return bytes(body[:length])

    @staticmethod
    def _json_response(status: int, payload: Any) -> bytes:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error", 405: "Method Not Allowed", 503: "Service Unavailable"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return render_response(status, reasons.get(status, "OK"), body)

    def _route(self, method: str, parsed, body: bytes) -> bytes:
        path = parsed.path.rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            http_status, body_payload = self.health()
            return self._json_response(http_status, body_payload)
        if method == "GET" and path == "/metrics":
            return self._json_response(200, self.metrics())
        if method == "GET" and path == "/certs/latest":
            if not self._history:
                return self._json_response(404, {"error": "no certificate served yet"})
            return self._json_response(200, self._history[-1])
        if method == "GET" and path == "/certs":
            query = parse_qs(parsed.query)
            try:
                since = int(query.get("since", ["0"])[0])
                limit = int(query.get("limit", ["100"])[0])
            except ValueError:
                raise GatewayError("since/limit must be integers") from None
            return self._json_response(
                200, {"certificates": self.history(since=since, limit=limit)}
            )
        if method == "POST" and path == "/ticks":
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise GatewayError("tick body must be JSON") from None
            values = payload.get("values") if isinstance(payload, dict) else None
            return self._json_response(200, self.push_ticks(values))
        if path in ("/healthz", "/metrics", "/certs", "/certs/latest", "/ticks"):
            return self._json_response(405, {"error": f"method {method} not allowed"})
        return self._json_response(404, {"error": f"unknown path {parsed.path!r}"})

    # ------------------------------------------------------------------
    # WebSocket subscriptions
    # ------------------------------------------------------------------
    async def _serve_websocket(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        parsed,
        headers: Dict[str, str],
        overrun: bytes,
    ) -> None:
        key = headers.get("sec-websocket-key")
        if not key or parsed.path.rstrip("/") != "/ws":
            raise GatewayError("malformed WebSocket upgrade request")
        writer.write(
            render_response(
                101,
                "Switching Protocols",
                b"",
                extra_headers={
                    "Upgrade": "websocket",
                    "Connection": "Upgrade",
                    "Sec-WebSocket-Accept": websocket_accept(key),
                },
                content_type="text/plain",
            )
        )
        await writer.drain()
        subscriber = _Subscriber(self._next_subscriber_id, writer, self.queue_limit)
        self._next_subscriber_id += 1
        self._subscribers[subscriber.subscriber_id] = subscriber
        self.subscribers_total += 1
        subscriber.task = asyncio.ensure_future(self._drain_subscriber(subscriber))
        # Optional backlog: ?since=S replays the index before live frames.
        query = parse_qs(parsed.query)
        if "since" in query:
            try:
                since = int(query["since"][0])
            except ValueError:
                since = 0
            now = time.perf_counter()
            for entry in self.history(since=since, limit=len(self._history)):
                frame = encode_ws_frame(
                    OP_TEXT, json.dumps(entry, separators=(",", ":")).encode("utf-8")
                )
                try:
                    subscriber.queue.put_nowait((now, frame))
                    subscriber.enqueued += 1
                except asyncio.QueueFull:
                    break
        parser = WSParser(require_mask=True)
        try:
            pending = overrun
            while True:
                if pending:
                    messages = parser.feed(pending)
                    pending = b""
                else:
                    chunk = await reader.read(65536)
                    if not chunk:
                        return
                    messages = parser.feed(chunk)
                for opcode, payload in messages:
                    if opcode == OP_CLOSE:
                        return
                    if opcode == OP_PING:
                        writer.write(encode_ws_frame(OP_PONG, payload))
                        await writer.drain()
                        continue
                    if opcode == OP_TEXT:
                        self._handle_ws_text(payload)
        finally:
            survivor = self._subscribers.pop(subscriber.subscriber_id, None)
            if survivor is not None:
                self._shutdown_subscriber(survivor)

    def _handle_ws_text(self, payload: bytes) -> None:
        try:
            command = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise GatewayError("WebSocket text frames must carry JSON") from None
        if not isinstance(command, dict):
            raise GatewayError("WebSocket command must be a JSON object")
        if command.get("op") == "ticks":
            self.push_ticks(command.get("values"))
            return
        raise GatewayError(f"unknown WebSocket op {command.get('op')!r}")


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_gateway(
    workload: str,
    n: int,
    *,
    engine: str = "fast",
    seed: int = 0,
    churn: int = 0,
    parity: bool = False,
    host: str = "127.0.0.1",
    port: int = 0,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    history_limit: int = DEFAULT_HISTORY_LIMIT,
    epsilon: Optional[float] = None,
    delta_max: Optional[float] = None,
    max_rounds: Optional[int] = 6,
    epoch_timeout: float = 30.0,
) -> OracleGateway:
    """Assemble a gateway over a fresh tick-fed :class:`OracleService`.

    The service is :func:`repro.oracle.service.build_service`'s, with the
    named workload wrapped in a :class:`TickBufferWorkload` (coherence
    window = the derived ``delta_max``) so clients can feed epochs.
    Defaults to the deterministic fast engine with parity off — the gateway
    is a serving layer, and the perf/parity harnesses cover correctness.
    """
    service = build_service(
        workload,
        n,
        engine=engine,
        seed=seed,
        churn=churn,
        parity=parity,
        epsilon=epsilon,
        delta_max=delta_max,
        max_rounds=max_rounds,
        epoch_timeout=epoch_timeout,
    )
    service.workload = TickBufferWorkload(
        service.workload, max_spread=service.params.delta_max
    )
    return OracleGateway(
        service,
        host=host,
        port=port,
        queue_limit=queue_limit,
        history_limit=history_limit,
    )
