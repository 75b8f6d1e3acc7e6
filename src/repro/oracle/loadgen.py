"""Gateway load generator: thousands of live subscribers against one gateway.

``python -m repro loadgen`` answers the acceptance question for the
gateway — *does the client-facing layer hold up under heavy traffic?* — by
standing up a real :class:`~repro.oracle.gateway.OracleGateway` (or dialing
an external one) and driving it with:

* ``subscribers`` concurrent WebSocket clients
  (:class:`~repro.oracle.clients.GatewaySubscriber`), each expected to
  receive **every** certificate of the run;
* ``stalled`` additional subscribers that connect and then never read —
  the slow-consumer population that the gateway must evict rather than let
  stall the stream;
* ``publishers`` tick publishers pushing quote batches around the latest
  certified value (exercising the ingestion path without dragging the
  certificate hull open).

The report records delivery counters and *client-side* latency percentiles
(each certificate carries its ``published_at`` wall-clock stamp; subscriber
and gateway share a clock in the self-hosted case), and the hard invariant
the CI smoke job asserts: **zero certificate loss for non-evicted
subscribers**.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.oracle.clients import GatewaySubscriber, http_request
from repro.oracle.gateway import OracleGateway, build_gateway, summarise_latencies

try:  # pragma: no cover - absent on non-POSIX platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None


def raise_fd_limit(wanted: int) -> int:
    """Best-effort bump of ``RLIMIT_NOFILE`` toward ``wanted``.

    ~10³ subscribers cost ~2×10³ descriptors (client + server end per
    connection); the default soft limit of 1024 would make the run fail
    with ``EMFILE`` long before the gateway itself is stressed.  Returns
    the soft limit actually in effect.
    """
    if resource is None:
        return wanted
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= wanted:
        return soft
    target = wanted if hard == resource.RLIM_INFINITY else min(wanted, hard)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
        return target
    except (ValueError, OSError):
        return soft


@dataclass
class LoadgenReport:
    """Everything one load run measured (JSON-safe via :meth:`as_dict`)."""

    workload: str
    engine: str
    n: int
    epochs: int
    subscribers: int
    stalled: int
    publishers: int
    wall_seconds: float = 0.0
    certs_published: int = 0
    certs_expected: int = 0
    certs_received: int = 0
    certs_lost: int = 0
    incomplete_subscribers: int = 0
    evictions: int = 0
    send_drops: int = 0
    ticks_accepted: int = 0
    epochs_from_ticks: int = 0
    fd_limit: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    gateway_metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def certs_per_sec(self) -> Optional[float]:
        """Deliveries per wall second (``None`` for a zero-length run)."""
        if self.wall_seconds <= 0:
            return None
        return self.certs_received / self.wall_seconds

    def latency_summary(self) -> Dict[str, Any]:
        return summarise_latencies(self.latencies_ms)

    def histogram(self, buckets: int = 40) -> Dict[str, Any]:
        """Fixed-width latency histogram (the CI artifact)."""
        ordered = sorted(self.latencies_ms)
        if not ordered:
            return {"samples": 0, "buckets": []}
        low, high = ordered[0], ordered[-1]
        width = (high - low) / buckets or 1e-9
        counts = [0] * buckets
        for value in ordered:
            counts[min(buckets - 1, int((value - low) / width))] += 1
        return {
            "samples": len(ordered),
            "low_ms": low,
            "high_ms": high,
            "bucket_width_ms": width,
            "counts": counts,
        }

    def as_dict(self) -> Dict[str, Any]:
        """Every field but the raw latency samples (their summary stands in
        for them), plus the derived delivery rate."""
        body = {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(self)
            if spec_field.name != "latencies_ms"
        }
        body["certs_per_sec"] = self.certs_per_sec
        body["delivery_latency"] = self.latency_summary()
        return body


class _SubscriberDriver:
    """One healthy load subscriber: drain the stream, record latencies."""

    def __init__(self, host: str, port: int) -> None:
        self.client = GatewaySubscriber(host, port)
        self.received = 0
        self.latencies_ms: List[float] = []
        self.task: Optional[asyncio.Task] = None

    async def pump(self) -> None:
        try:
            while True:
                entry = await self.client.recv(timeout=60.0)
                if entry is None:
                    return
                self.received += 1
                stamp = entry.get("published_at")
                if isinstance(stamp, (int, float)):
                    self.latencies_ms.append(
                        max(0.0, (time.time() - stamp) * 1000.0)
                    )
        except (asyncio.CancelledError, asyncio.TimeoutError):
            pass
        except Exception:  # noqa: BLE001 - eviction closes the socket under us
            pass


async def _publish_ticks(
    host: str, port: int, *, n: int, stop: asyncio.Event, base_value: float
) -> int:
    """One tick publisher: quote batches around the feed's current level."""
    accepted = 0
    batch = 0
    while not stop.is_set():
        # Tight spread around the base value keeps the batch coherent with
        # the median-window filter while still exercising validation.
        values = [base_value + 0.01 * ((batch + k) % 7 - 3) for k in range(n)]
        try:
            status, body = await http_request(
                host, port, "POST", "/ticks", {"values": values}, timeout=10.0
            )
            if status == 200 and isinstance(body, dict):
                accepted += int(body.get("accepted", 0))
        except Exception:  # noqa: BLE001 - gateway shutting down mid-run
            return accepted
        batch += 1
        try:
            await asyncio.wait_for(stop.wait(), 0.05)
        except asyncio.TimeoutError:
            pass
    return accepted


async def run_loadgen_async(
    *,
    workload: str = "bitcoin",
    engine: str = "fast",
    n: int = 7,
    epochs: int = 3,
    subscribers: int = 1000,
    stalled: int = 0,
    publishers: int = 0,
    seed: int = 0,
    queue_limit: int = 64,
    host: str = "127.0.0.1",
    port: int = 0,
    gateway: Optional[OracleGateway] = None,
    progress: Optional[Any] = None,
) -> LoadgenReport:
    """Drive one load run; self-hosts a gateway unless one is supplied."""
    if subscribers < 0 or stalled < 0 or publishers < 0:
        raise ConfigurationError("subscriber/publisher counts must be non-negative")
    if epochs <= 0:
        raise ConfigurationError(f"epochs must be positive, got {epochs}")
    say = progress or (lambda message: None)
    fd_limit = raise_fd_limit(2 * (subscribers + stalled + publishers) + 256)
    own_gateway = gateway is None
    if gateway is None:
        gateway = build_gateway(
            workload,
            n,
            engine=engine,
            seed=seed,
            host=host,
            port=port,
            queue_limit=queue_limit,
        )
        await gateway.start()
    host, port = gateway.host, gateway.port
    report = LoadgenReport(
        workload=workload,
        engine=engine,
        n=n,
        epochs=epochs,
        subscribers=subscribers,
        stalled=stalled,
        publishers=publishers,
        fd_limit=fd_limit,
    )
    drivers: List[_SubscriberDriver] = []
    stalled_clients: List[GatewaySubscriber] = []
    stop_publishing = asyncio.Event()
    publisher_tasks: List[asyncio.Task] = []
    started = time.perf_counter()
    try:
        say(f"[loadgen] connecting {subscribers} subscribers ({stalled} stalled)...")
        for start in range(0, subscribers, 100):
            batch = [
                _SubscriberDriver(host, port)
                for _ in range(min(100, subscribers - start))
            ]
            await asyncio.gather(*(driver.client.connect() for driver in batch))
            for driver in batch:
                driver.task = asyncio.ensure_future(driver.pump())
            drivers.extend(batch)
        for _ in range(stalled):
            client = GatewaySubscriber(host, port)
            await client.connect()
            stalled_clients.append(client)  # connected, never reads
        if publishers:
            base_value = EPOCH_BASE_VALUES.get(workload, 100.0)
            publisher_tasks = [
                asyncio.ensure_future(
                    _publish_ticks(
                        host, port, n=n, stop=stop_publishing, base_value=base_value
                    )
                )
                for _ in range(publishers)
            ]
        say(f"[loadgen] serving {epochs} epochs on {host}:{port}...")
        await gateway.run_epochs(epochs, progress=progress)
        stop_publishing.set()
        # Drain: every healthy subscriber should see every certificate the
        # gateway published (a skipped epoch publishes none).
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            if all(driver.received >= gateway.certs_published for driver in drivers):
                break
            await asyncio.sleep(0.05)
        report.wall_seconds = time.perf_counter() - started
        if publisher_tasks:
            accepted = await asyncio.gather(*publisher_tasks, return_exceptions=True)
            report.ticks_accepted = sum(
                value for value in accepted if isinstance(value, int)
            )
    finally:
        stop_publishing.set()
        for driver in drivers:
            if driver.task is not None:
                driver.task.cancel()
        await asyncio.gather(
            *(driver.task for driver in drivers if driver.task is not None),
            return_exceptions=True,
        )
        await asyncio.gather(
            *(driver.client.close() for driver in drivers), return_exceptions=True
        )
        await asyncio.gather(
            *(client.close() for client in stalled_clients), return_exceptions=True
        )
        report.gateway_metrics = gateway.metrics()
        if own_gateway:
            await gateway.close()
    published = report.certs_published = gateway.certs_published
    report.certs_expected = published * len(drivers)
    report.certs_received = sum(driver.received for driver in drivers)
    report.certs_lost = sum(max(0, published - driver.received) for driver in drivers)
    report.incomplete_subscribers = sum(
        1 for driver in drivers if driver.received < published
    )
    report.evictions = gateway.evictions
    report.send_drops = gateway.send_drops
    if gateway.ticks is not None:
        stats = gateway.ticks.stats()
        report.epochs_from_ticks = stats["epochs_from_ticks"]
    for driver in drivers:
        report.latencies_ms.extend(driver.latencies_ms)
    return report


#: Rough current level of each workload's feed, for publisher quotes.
EPOCH_BASE_VALUES: Dict[str, float] = {
    "bitcoin": 40000.0,
    "sensors": 20.0,
    "drone": 0.0,
}


def run_loadgen(**options: Any) -> LoadgenReport:
    """Synchronous wrapper around :func:`run_loadgen_async`."""
    return asyncio.run(run_loadgen_async(**options))


def write_histogram(report: LoadgenReport, path: str) -> None:
    """Write the latency-histogram artifact the CI smoke job uploads."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "schema": "repro-loadgen-histogram/1",
                "workload": report.workload,
                "subscribers": report.subscribers,
                "epochs": report.epochs,
                "latency": report.latency_summary(),
                "histogram": report.histogram(),
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
