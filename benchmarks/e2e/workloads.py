"""The four workloads: set-up, timed rounds, correctness gate, layer metrics.

A workload runs *rounds* — whole calls into one public entry point — in
blocks, with the calibration kernel of :mod:`calibration` timed between
blocks, until the next block would no longer fit into the requested seconds
(always at least one).  Throughput is the median over blocks of operations
per cal, so a longer run buys steadier numbers, never different work.  With
a :class:`Tracer` the same rounds run behind the timing proxies of
:mod:`tracing`; traced and untraced runs never share a process (see
``worker.py``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.parameters import derive_parameters
from repro.core.delphi import DelphiNode
from repro.crypto.hmac_channel import ChannelKeyring
from repro.crypto.signatures import SignatureScheme
from repro.experiments.cells import build_inputs, build_network
from repro.experiments.spec import ScenarioSpec
from repro.net.framing import NONCE_BYTES, ChannelCodec, encode_frame
from repro.net.socket_transport import SocketTransport, dumps_message, loads_message
from repro.oracle.clients import GatewaySubscriber
from repro.oracle.gateway import OracleGateway
from repro.oracle.service import build_service
from repro.protocols.sharded_delphi import ShardedDelphiNode, sharded_parameters_of
from repro.protocols.topology import FlatTopology
from repro.runner import ProtocolRunResult, run_delphi, run_protocol, run_sharded_delphi
from repro.sim.asyncio_runtime import InMemoryTransport
from repro.sim.runtime import SimulationConfig

# ``repro.faults`` exports a function called ``campaign`` that shadows the
# submodule as an attribute; the traced run patches the module itself.
fault_campaign = importlib.import_module("repro.faults.campaign")

from calibration import calibrate
from tracing import NodeProxy, TopologyProxy, Tracer, TransportProxy, median, percentile

#: The seed at which each simulator workload must reproduce its recorded
#: fingerprint: an engine or protocol change that moves it is not a pure
#: speed-up.
DEFAULT_SEED = 1

#: Cross-node messages kept for the codec micro-measurements.
CODEC_SAMPLE = 2000

#: Extra epochs on the in-memory transport (traced live run only).
INMEM_EPOCHS = 30

_TOLERANCE = 1e-9


class Block(NamedTuple):
    """Consecutive rounds, with the cal measured right before and after."""

    rounds: int
    ops: int
    wall_s: float
    cpu_s: float
    cal_s: float

    @property
    def ops_per_cal(self) -> float:
        return self.ops / self.wall_s * self.cal_s


def fingerprint(result: ProtocolRunResult) -> str:
    """The perf suite's canonical-JSON SHA-256 of one protocol run."""
    projection = {
        "outputs": {str(k): v for k, v in sorted(result.outputs.items())},
        "runtime_seconds": result.runtime_seconds,
        "megabytes": result.total_megabytes,
        "message_count": result.message_count,
        "events_processed": result.events_processed,
    }
    blob = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


class Workload:
    """Common round loop; subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.blocks: List[Block] = []

    @property
    def rounds(self) -> int:
        return sum(block.rounds for block in self.blocks)

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext()

    def _run_rounds(
        self,
        seconds: float,
        run: Callable[[Any], int],
        prepare: Callable[[], Any] = lambda: None,
    ) -> None:
        """Time ``run(prepare())`` (only ``run``) in blocks of about a
        twentieth of ``seconds``, a cal between blocks, until the next block
        would overrun ``seconds``; ``run`` returns the operations it
        completed."""
        started = time.perf_counter()
        longest = 0.0
        before = calibrate()
        while True:
            block_started = time.perf_counter()
            rounds, ops, wall, cpu = 0, 0, 0.0, 0.0
            while rounds == 0 or wall < seconds / 20:
                # Every round starts from the same collector state: what the
                # previous round left behind is reclaimed outside the timing
                # (the fast engine pauses the collector while it runs).
                gc.collect()
                prepared = prepare()
                with self.span("round"):
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    ops += run(prepared)
                    wall += time.perf_counter() - wall0
                    cpu += time.process_time() - cpu0
                rounds += 1
            after = calibrate()
            self.blocks.append(Block(rounds, ops, wall, cpu, (before + after) / 2))
            before = after
            longest = max(longest, time.perf_counter() - block_started)
            if time.perf_counter() - started + longest > seconds:
                return

    # Hooks ------------------------------------------------------------
    def setup(self) -> None:
        """Finish every lazy import and warm-up; charged to ``setup_s``."""
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def verify(self) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, problems)``; any problem fails the gate."""
        raise NotImplementedError

    def exact(self) -> Dict[str, Any]:
        """Results that must not differ between a traced and an untraced run."""
        return {}

    def layer_metrics(self) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""


# ----------------------------------------------------------------------
# The two simulator workloads.


class SimWorkload(Workload):
    """One protocol cell on the fast engine, per round."""

    protocol = ""
    n = 0
    extras: Dict[str, Any] = {}
    #: A small cell of the same shape, run once during set-up.
    warmup_n = 0
    warmup_extras: Dict[str, Any] = {}
    #: Validity relaxation is composed over this many agreement levels.
    levels = 1
    #: :func:`fingerprint` of the run at :data:`DEFAULT_SEED`.
    recorded_fingerprint = ""
    #: The public entry point (untraced rounds) and the node class it builds
    #: (traced rounds wrap the same nodes and call ``run_protocol``).
    entry: Callable[..., ProtocolRunResult]
    node_cls: Callable[..., Any]

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, tracer)
        self.result: Optional[ProtocolRunResult] = None

    def _spec(self, warmup: bool = False) -> ScenarioSpec:
        return ScenarioSpec(
            protocol=self.protocol,
            n=self.warmup_n if warmup else self.n,
            testbed="aws",
            seed=self.seed,
            extras=self.warmup_extras if warmup else self.extras,
        )

    def _params(self, spec: ScenarioSpec) -> Any:
        raise NotImplementedError

    def _topology(self, spec: ScenarioSpec, params: Any) -> Any:
        return FlatTopology(spec.n)

    def _prepare(self, spec: ScenarioSpec) -> Tuple[Any, ...]:
        """Fresh inputs, network and parameters (a network is single-use)."""
        network, compute = build_network(spec)
        return spec, self._params(spec), build_inputs(spec), network, compute

    def _execute(self, prepared: Tuple[Any, ...]) -> ProtocolRunResult:
        spec, params, inputs, network, compute = prepared
        config = SimulationConfig(engine="fast")
        if self.tracer is None:
            return self.entry(params, inputs, network=network, compute=compute, config=config)
        handlers = self.tracer.counter("protocols.handler")
        nodes = {
            node_id: NodeProxy(
                self.node_cls(node_id=node_id, params=params, value=float(inputs[node_id])),
                handlers,
            )
            for node_id in range(spec.n)
        }
        topology = TopologyProxy(
            self._topology(spec, params), self.tracer.counter("protocols.topology")
        )
        return run_protocol(
            self.protocol, nodes, network, None, compute, config, None, topology=topology
        )

    def setup(self) -> None:
        self._execute(self._prepare(self._spec(warmup=True)))

    def measure(self, seconds: float) -> None:
        def run(prepared: Tuple[Any, ...]) -> int:
            self.result = self._execute(prepared)
            return self.result.events_processed

        self._run_rounds(seconds, run, lambda: self._prepare(self._spec()))

    def verify(self) -> Tuple[int, int, List[str]]:
        # Every round replays the same spec, so the last result stands for all.
        spec = self._spec()
        result = self.result
        inputs = build_inputs(spec)
        rho0 = spec.rho0 if spec.rho0 is not None else spec.epsilon
        relaxation = self.levels * (max(rho0, max(inputs) - min(inputs)) + spec.epsilon)
        low, high = min(inputs) - relaxation, max(inputs) + relaxation
        floor = min(result.output_values, default=0.0)
        failed = 0
        for node in range(spec.n):
            value = result.outputs.get(node)
            if (
                value is None
                or not low - _TOLERANCE <= value <= high + _TOLERANCE
                or value - floor > spec.epsilon + _TOLERANCE
            ):
                failed += 1
        problems = [f"{failed} of {spec.n} decisions missing or outside agreement/validity"] if failed else []
        found = fingerprint(result)
        if self.seed == DEFAULT_SEED and found != self.recorded_fingerprint:
            problems.append(
                f"fingerprint {found} differs from the recorded {self.recorded_fingerprint}"
            )
        return spec.n * self.rounds, failed * self.rounds, problems

    def exact(self) -> Dict[str, Any]:
        return {"fingerprint": fingerprint(self.result)}

    def layer_metrics(self) -> Dict[str, float]:
        result = self.result
        rounds = self.rounds
        handlers = self.tracer.counter("protocols.handler")
        topology = self.tracer.counter("protocols.topology")
        run_s = median([block.wall_s / block.rounds for block in self.blocks])
        handler_s = handlers.busy_ns / 1e9 / rounds
        topology_s = topology.busy_ns / 1e9 / rounds
        self_s = run_s - handler_s - topology_s
        return {
            "sim.events": result.events_processed,
            "sim.latency_s": result.runtime_seconds,
            "sim.run_s": run_s,
            "sim.cpu_s": median([block.cpu_s / block.rounds for block in self.blocks]),
            "sim.self_s": self_s,
            "sim.self_ns_per_event": _per(self_s * 1e9, result.events_processed),
            "protocols.handler_calls": handlers.calls / rounds,
            "protocols.handler_s": handler_s,
            "protocols.handler_ns_per_call": _per(handlers.busy_ns, handlers.calls),
            "protocols.useful_call_ratio": _per(handlers.useful, handlers.calls),
            "protocols.outbound_msgs": handlers.items / rounds,
            "protocols.topology_calls": topology.calls / rounds,
            "protocols.topology_s": topology_s,
            "net.messages": result.message_count,
            "net.megabytes": result.total_megabytes,
            "net.bytes_per_message": _per(result.total_megabytes * 1e6, result.message_count),
        }


class DelphiN40Aws(SimWorkload):
    name = "delphi-n40-aws"
    protocol = "delphi"
    n = 40
    warmup_n = 7
    # The committed ``delphi-n40-aws`` entry of benchmarks/perf_baseline.json.
    recorded_fingerprint = "ccc89a3fa28a5d06e34e35c5287935e875f74f3775a69eff6a2bf061a84c8da4"
    entry = staticmethod(run_delphi)
    node_cls = DelphiNode

    def _params(self, spec: ScenarioSpec) -> Any:
        return derive_parameters(
            n=spec.n,
            epsilon=spec.epsilon,
            rho0=spec.rho0,
            delta_max=spec.delta_max,
            max_rounds=spec.max_rounds,
        )



class ShardedN64Aws(SimWorkload):
    name = "sharded-n64-aws"
    protocol = "sharded-delphi"
    n = 64
    # The hash ring is pinned so that ``--seed`` moves the network only, as
    # on the flat workload; different rings differ by several percent in
    # events and in cost per event.
    extras = {"group_size": 16, "topology_seed": DEFAULT_SEED}
    # More than one group, so the warm-up reaches the representative round.
    warmup_n = 16
    warmup_extras = {"group_size": 4}
    levels = 2
    # Recorded when this benchmark was defined (no committed artifact has it).
    recorded_fingerprint = "8bb2db6f99a13a7dded0c1cc497e6887c0a65c72616f0a03ee7090e988f6531c"
    entry = staticmethod(run_sharded_delphi)
    node_cls = ShardedDelphiNode

    def _params(self, spec: ScenarioSpec) -> Any:
        return sharded_parameters_of(spec)

    def _topology(self, spec: ScenarioSpec, params: Any) -> Any:
        return params.topology


# ----------------------------------------------------------------------
# The fault-campaign workload.


class FaultsSmoke(Workload):
    """One round = the smoke campaign at one seed, on both engines."""

    name = "faults-smoke"

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, tracer)
        self.results: List[fault_campaign.CampaignResult] = []
        self._unpatched = fault_campaign.run_cell_engine
        self._cell_events = 0  # traced runs only
        self._first_pass_events = 0

    def _campaign(self, seed: int, **changes: Any) -> fault_campaign.FaultCampaign:
        return dataclasses.replace(fault_campaign.smoke_campaign(), seeds=(seed,), **changes)

    def _traced_cell_engine(self, spec: ScenarioSpec, engine: str, *args: Any, **kwargs: Any):
        with self.tracer.span("cell", engine=engine, protocol=spec.protocol, n=spec.n):
            outcome = self._unpatched(spec, engine, *args, **kwargs)
        if outcome.projection is not None:
            self._cell_events += outcome.projection["events_processed"]
        return outcome

    def setup(self) -> None:
        if self.tracer is not None:
            # run_fault_cell resolves run_cell_engine through its module at
            # call time, which is the seam the spans hook into.
            fault_campaign.run_cell_engine = self._traced_cell_engine
        fault_campaign.run_campaign(self._campaign(self.seed, sizes=(4,)))
        self._cell_events = 0

    def measure(self, seconds: float) -> None:
        def run(_prepared: None) -> int:
            campaign = self._campaign(self.seed + len(self.results))
            result = fault_campaign.run_campaign(campaign)
            if not self.results:
                self._first_pass_events = self._cell_events
            self.results.append(result)
            return 2 * len(result)

        self._run_rounds(seconds, run)

    def _summary(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for result in self.results:
            for key, count in result.summary.items():
                totals[key] = totals.get(key, 0) + count
        return totals

    def verify(self) -> Tuple[int, int, List[str]]:
        summary = self._summary()
        # A verdict covers both engine runs of its cell.  Stalls only occur
        # where the fault spec waives liveness; they are not failures.
        failed = 2 * (summary["violations"] + summary["engine_mismatches"])
        problems = [f"campaign verdicts: {summary}"] if failed else []
        return 2 * summary["cells"], failed, problems

    def exact(self) -> Dict[str, Any]:
        # Round count is wall-clock dependent, so only the first pass (same
        # seed in both runs) is comparable.
        return {"first_pass": [verdict.as_dict() for verdict in self.results[0].verdicts]}

    def layer_metrics(self) -> Dict[str, float]:
        spans = self.tracer.durations_ms
        summary = self._summary()
        # Later passes use other seeds and their number depends on the
        # clock; the first pass repeats exactly.
        first = self.results[0].summary
        fast = median(spans("cell", engine="fast"))
        reference = median(spans("cell", engine="reference"))
        return {
            "faults.fast_cell_ms_p50": fast,
            "faults.reference_cell_ms_p50": reference,
            "faults.reference_to_fast_ratio": _per(reference, fast),
            "faults.delphi_cell_ms_p50": median(spans("cell", protocol="delphi")),
            "faults.fin_cell_ms_p50": median(spans("cell", protocol="fin")),
            "faults.events": self._first_pass_events,
            "faults.stalled_cells": first["stalled"],
            "faults.violations": summary["violations"],
            "faults.engine_mismatches": summary["engine_mismatches"],
        }

    def close(self) -> None:
        fault_campaign.run_cell_engine = self._unpatched


# ----------------------------------------------------------------------
# The live oracle-stack workload.


class LiveN7Sockets(Workload):
    """One round = one certified epoch delivered to every subscriber.

    Closed loop, one epoch in flight: the next epoch starts only after
    every subscriber has received the previous certificate.  Load comes
    from this process only: ``min(nproc, 4)`` WebSocket subscriber
    connections on the gateway's own event loop and one executor thread
    for the service's epochs.
    """

    name = "live-n7-sockets"
    n = 7
    warmup_epochs = 2

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, tracer)
        self.loop = asyncio.new_event_loop()
        self.executor = ThreadPoolExecutor(max_workers=1)
        self.loop.set_default_executor(self.executor)
        self.transports: List[SocketTransport] = []
        self.sample: List[Any] = []
        #: One entry per epoch served: ``(phase, report, arrivals)`` with one
        #: ``(certificate, perf_counter, time.time)`` arrival per subscriber.
        self.epochs: List[Tuple[str, Any, List[Tuple[Dict[str, Any], float, float]]]] = []
        self.readers: List[asyncio.Task] = []
        self.subscribers: List[GatewaySubscriber] = []
        self.gateway: Optional[OracleGateway] = None

    # The ``epoch -> transport`` seam of OracleService -------------------
    def _transport(self, epoch: int, socket: bool = True) -> Any:
        if socket:
            transport: Any = SocketTransport(epoch=epoch)
            self.transports.append(transport)
        else:
            transport = InMemoryTransport()
        if self.tracer is None:
            return transport
        return TransportProxy(
            transport, self.tracer, "net" if socket else "inmem", self.sample, CODEC_SAMPLE
        )

    def _traced(self, name: str, call: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            # The epoch runs on the executor thread; the round that caused
            # it is open on the loop's thread.
            with self.tracer.span(name, parent=self._round):
                return call(*args, **kwargs)

        return traced

    async def _read(self, subscriber: GatewaySubscriber, inbox: asyncio.Queue) -> None:
        while True:
            certificate = await subscriber.recv(timeout=2 * self.service.epoch_timeout)
            inbox.put_nowait((certificate, time.perf_counter(), time.time()))
            if certificate is None:
                return

    async def _start(self) -> None:
        self.service = build_service(
            "bitcoin", self.n, engine="asyncio", seed=self.seed, parity=False
        )
        self.service.transport_factory = self._transport
        self.gateway = OracleGateway(self.service, queue_limit=4096)
        if self.tracer is not None:
            # Instance attributes shadow the methods that run_epochs looks up
            # on the service and on itself.
            self.service.run_epoch = self._traced("epoch", self.service.run_epoch)
            self.gateway.publish = self._traced("publish", self.gateway.publish)
        host, port = await self.gateway.start()
        self.inboxes: List[asyncio.Queue] = []
        for _ in range(min(os.cpu_count() or 1, 4)):
            subscriber = GatewaySubscriber(host, port)
            await subscriber.connect()
            self.subscribers.append(subscriber)
            self.inboxes.append(asyncio.Queue())
            self.readers.append(
                asyncio.ensure_future(self._read(subscriber, self.inboxes[-1]))
            )

    async def _epoch(self, phase: str) -> None:
        (report,) = await self.gateway.run_epochs(1)
        arrivals = await asyncio.wait_for(
            asyncio.gather(*(inbox.get() for inbox in self.inboxes)),
            timeout=self.service.epoch_timeout,
        )
        self.epochs.append((phase, report, list(arrivals)))

    def _serve(self, phase: str) -> int:
        self._round = self.tracer.current() if self.tracer else None
        self.loop.run_until_complete(self._epoch(phase))
        return 1

    def setup(self) -> None:
        self.loop.run_until_complete(self._start())
        for _ in range(self.warmup_epochs):
            self._serve("warmup")

    def measure(self, seconds: float) -> None:
        self._run_rounds(seconds, lambda _prepared: self._serve("socket"))
        if self.tracer is not None:
            # What the wire costs: the same epochs on the default in-memory
            # transport (the factory's second parameter selects it).
            self.service.transport_factory = lambda epoch: self._transport(epoch, False)
            for _ in range(INMEM_EPOCHS):
                self._serve("inmem")

    def verify(self) -> Tuple[int, int, List[str]]:
        scheme, threshold = self.service.scheme, self.service.params.t + 1
        # run_epochs is not resilient here: a failed or skipped epoch raises
        # and ends the run without a result.
        failed = 0
        problems = []
        for seq, (_phase, report, arrivals) in enumerate(self.epochs):
            certificate = report.certificate
            if not scheme.verify_aggregate(
                certificate.value, certificate.aggregate, threshold=threshold
            ):
                failed += 1
                problems.append(f"epoch {report.epoch}: certificate does not verify")
            for index, (received, _perf, _wall) in enumerate(arrivals):
                # Arrival k at every subscriber must be certificate k.
                if (
                    received is None
                    or received["seq"] != seq
                    or received["epoch"] != report.epoch
                    or received["value"] != report.value
                ):
                    failed += 1
                    problems.append(
                        f"subscriber {index}: expected seq {seq}, got {received}"
                    )
        return len(self.epochs) * (1 + len(self.subscribers)), failed, problems

    def _phase(self, phase: str) -> List[Tuple[Any, List[Tuple[Dict[str, Any], float, float]]]]:
        return [(report, arrivals) for tag, report, arrivals in self.epochs if tag == phase]

    def _codec_metrics(self) -> Dict[str, float]:
        """Direct calls on the wire codec, over the sampled messages."""
        messages = self.sample
        if not messages:
            return {}
        key = ChannelKeyring(node_id=0, num_nodes=self.n).key_for(1)
        sealer = ChannelCodec(key, bytes(NONCE_BYTES), bytes(NONCE_BYTES))
        opener = ChannelCodec(key, bytes(NONCE_BYTES), bytes(NONCE_BYTES))

        def timed_us(call: Callable[[Any], Any], items: Sequence[Any]) -> Tuple[List[Any], float]:
            started = time.perf_counter()
            results = [call(item) for item in items]
            return results, (time.perf_counter() - started) * 1e6 / len(items)

        payloads, dumps_us = timed_us(dumps_message, messages)
        _decoded, loads_us = timed_us(loads_message, payloads)
        bodies, seal_us = timed_us(sealer.seal, payloads)
        _opened, open_us = timed_us(opener.open, bodies)
        wire_bytes = sum(len(encode_frame(body)) for body in bodies) / len(bodies)
        model_bytes = sum(message.size_bits() for message in messages) / 8 / len(messages)
        return {
            "net.dumps_us_per_msg": dumps_us,
            "net.loads_us_per_msg": loads_us,
            "net.seal_us_per_frame": seal_us,
            "net.open_us_per_frame": open_us,
            "net.wire_bytes_per_msg": wire_bytes,
            "net.wire_to_model_bytes_ratio": _per(wire_bytes, model_bytes),
        }

    def _crypto_metrics(self, repeats: int = 2000) -> Dict[str, float]:
        """Direct calls on the signature scheme the service uses."""
        scheme = SignatureScheme(num_nodes=self.n)
        threshold = self.service.params.t + 1
        value = self.epochs[-1][1].value

        def timed_us(call: Callable[[], Any]) -> Tuple[Any, float]:
            started = time.perf_counter()
            for _ in range(repeats):
                result = call()
            return result, (time.perf_counter() - started) * 1e6 / repeats

        _signature, sign_us = timed_us(lambda: scheme.sign(0, value))
        signatures = [scheme.sign(node, value) for node in range(threshold)]
        aggregate, aggregate_us = timed_us(lambda: scheme.aggregate(value, signatures))
        _ok, verify_us = timed_us(
            lambda: scheme.verify_aggregate(value, aggregate, threshold=threshold)
        )
        return {
            "crypto.sign_us": sign_us,
            "crypto.aggregate_us": aggregate_us,
            "crypto.verify_aggregate_us": verify_us,
        }

    def layer_metrics(self) -> Dict[str, float]:
        socket = self._phase("socket")
        epochs = len(socket)
        # Epoch spans in serving order: warm-up, then socket, then in-memory.
        epoch_ms = self.tracer.durations_ms("epoch")
        socket_ms = epoch_ms[self.warmup_epochs : self.warmup_epochs + epochs]
        inmem_ms = epoch_ms[self.warmup_epochs + epochs :]
        first_arrivals = [arrivals[0][1] for _report, arrivals in socket]
        intervals = [
            (after - before) * 1e3 for before, after in zip(first_arrivals, first_arrivals[1:])
        ]
        deliveries = [
            (wall - received["published_at"]) * 1e3
            for _report, arrivals in socket
            for received, _perf, wall in arrivals
        ]
        puts = self.tracer.counter("net.put")
        gets = self.tracer.counter("net.get")
        gateway = self.gateway.metrics()
        return {
            "oracle.epoch_ms_p50": median(socket_ms),
            "oracle.epoch_ms_p90": percentile(socket_ms, 0.9),
            "oracle.epoch_inmem_ms_p50": median(inmem_ms),
            "net.wire_ms_per_epoch": median(socket_ms) - median(inmem_ms),
            "oracle.cert_interval_ms_p50": median(intervals),
            "oracle.cert_interval_ms_p90": percentile(intervals, 0.9),
            "oracle.publish_us_p50": median(self.tracer.durations_ms("publish")) * 1e3,
            "oracle.deliver_ms_p50": median(deliveries),
            "oracle.deliver_ms_p90": percentile(deliveries, 0.9),
            "oracle.events_per_epoch": _per(
                sum(report.events_processed for report, _arrivals in socket), epochs
            ),
            "oracle.stale_messages": sum(report.stale_messages for report, _arrivals in socket),
            "oracle.skipped_epochs": gateway["epochs_skipped"],
            "oracle.send_drops": gateway["send_drops"],
            "oracle.evictions": gateway["evictions"],
            "oracle.certs_delivered": gateway["certs_delivered"],
            "net.transport_open_ms_p50": median(self.tracer.durations_ms("net.open")),
            "net.transport_close_ms_p50": median(self.tracer.durations_ms("net.close")),
            "net.put_calls_per_epoch": _per(puts.calls, epochs),
            "net.put_ms_per_epoch": _per(puts.busy_ns / 1e6, epochs),
            "net.get_calls_per_epoch": _per(gets.calls, epochs),
            "net.frames_sent_per_epoch": _per(
                sum(t.frames_sent for t in self.transports), len(self.transports)
            ),
            "net.auth_failures": sum(t.auth_failures for t in self.transports),
            "net.frame_errors": sum(t.frame_errors for t in self.transports),
            "net.connections_reset": sum(t.connections_reset for t in self.transports),
            "net.dropped_after_close": sum(t.dropped_after_close for t in self.transports),
            **self._codec_metrics(),
            **self._crypto_metrics(),
        }

    async def _stop(self) -> None:
        for subscriber in self.subscribers:
            await subscriber.close()
        if self.gateway is not None:
            await self.gateway.close()
        for reader in self.readers:
            reader.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self._stop())
        finally:
            self.executor.shutdown(wait=True)
            self.loop.close()


WORKLOADS = {
    cls.name: cls for cls in (DelphiN40Aws, ShardedN64Aws, FaultsSmoke, LiveN7Sockets)
}
