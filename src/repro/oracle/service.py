"""Epoch-pipelined oracle service: the paper's long-lived oracle network.

Section V's end goal is not a one-shot agreement instance but a service: an
oracle network that *repeatedly* agrees on streaming data (Bitcoin ticks,
CPS sensor readings, drone observations) and hands attested certificates to
an SMR chain, epoch after epoch.  :class:`OracleService` is that serving
layer:

* **streaming workloads** — any workload exposing ``epoch_inputs(n)``
  (:func:`repro.workloads.make_epoch_workload`) feeds one input per node
  per epoch;
* **persistent identities / PKI** — one
  :class:`~repro.crypto.signatures.SignatureScheme` is created for the
  service's lifetime and shared by every epoch's nodes, so certificates
  from different epochs are attested by the same key material;
* **epoch-tagged messages** — every protocol message is wrapped in an
  ``epoch:<k>/`` namespace (:class:`EpochNode`); a straggler delivery from
  a previous epoch is counted and dropped instead of corrupting state;
* **node churn** — a bounded set of nodes (≤ t) can be offline per epoch
  (crash-restart between epochs): they are modelled as crashed for that
  epoch and come back, same identity and keys, the next;
* **certificate stream** — each epoch's honest certificates are submitted
  to one persistent :class:`~repro.oracle.smr.SMRChannel`; the first valid
  entry per epoch is the consumed report;
* **engines** — epochs run on the real-concurrency asyncio engine
  (:class:`~repro.sim.asyncio_runtime.AsyncioRuntime`) or either
  deterministic simulation engine, selected per service;
* **parity** — with ``parity=True`` every epoch is certified a second way,
  one check per engine kind.  An asyncio epoch gets the **schedule
  replay** (``"schedule"``): every node's recorded inbound sequence is
  re-fed to a fresh node, which must reproduce the live run
  byte-identically — the state machines are runtime-agnostic, so a
  divergence means the engine delivered unfaithfully.  (A value comparison
  with a simulator run proves little there: approximate agreement is
  schedule-dependent.)  A fast or reference epoch is re-run on the other
  deterministic engine, which must certify the identical value
  (``"exact"``).  Either failure raises
  :class:`~repro.errors.EquivalenceError`;
* **epoch watchdog** — :meth:`OracleService.serve` runs every epoch
  through :meth:`OracleService.run_epoch_resilient`: a timed-out or
  uncertified epoch is retried, then skipped and accounted;
* **invariants** — a
  :class:`~repro.faults.monitors.CertificateStreamMonitor` observes every
  epoch (rounded-output spread, grid alignment, signer threshold, relaxed
  hull validity) and aborts the service on a violation.

``python -m repro serve`` is the CLI surface; the perf suite's
``oracle-service`` basket entry runs the same service fast-vs-reference so
the trajectory gate covers the serving layer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.strategies import CrashStrategy
from repro.analysis.parameters import DelphiParameters
from repro.core.dora import DoraCertificate, DoraNode, certificate_validator
from repro.crypto.signatures import SignatureScheme
from repro.errors import (
    CertificateShortfall,
    ConfigurationError,
    EquivalenceError,
    LivenessTimeout,
)
from repro.faults.monitors import CertificateStreamMonitor
from repro.net.chaos import ChaosTransport, WireFaults
from repro.net.latency import UniformLatency
from repro.net.message import Message
from repro.net.network import AsynchronousNetwork, DelayWindow, DeliveryPolicy
from repro.oracle.smr import SMRChannel
from repro.protocols.base import Namespace, Outbound, ProtocolNode, peel
from repro.sim.asyncio_runtime import AsyncioRuntime, InMemoryTransport
from repro.sim.events import DELIVER_EVENT
from repro.sim.observers import SimObserver
from repro.sim.runtime import ComputeModel, SimulationConfig, SimulationRuntime
from repro.workloads import epoch_parameters, make_epoch_workload

#: Engines the service can run epochs on.
KNOWN_SERVICE_ENGINES = ("asyncio", "fast", "reference")

#: Multiplier decorrelating per-epoch seeds from the service seed.
_EPOCH_SEED_STRIDE = 100_003


class ScheduleRecorder(SimObserver):
    """Records every node's inbound delivery sequence during one epoch run.

    Because each protocol node is a pure state machine of its inbound
    sequence, re-feeding the recorded sequence to a fresh node must
    reproduce the run byte-identically — the soundness basis of the parity
    harness's schedule replay.
    """

    def __init__(self) -> None:
        self.inbound: Dict[int, List[Tuple[int, Message]]] = {}

    def on_event(
        self,
        time: float,
        kind: int,
        node_id: int,
        sender: int,
        message: Optional[Message],
    ) -> None:
        if kind == DELIVER_EVENT and message is not None:
            self.inbound.setdefault(node_id, []).append((sender, message))


class EpochNode(ProtocolNode):
    """Wraps one epoch's :class:`DoraNode` in an ``epoch:<k>/`` namespace.

    Outbound messages are re-tagged with the epoch namespace; inbound
    messages from any *other* epoch (stragglers across an epoch boundary on
    a shared transport) unwrap to ``None`` and are dropped, counted in
    :attr:`stale_messages`.
    """

    #: Namespace prefix of an epoch: ``epoch:<k>/``.
    TAG = "epoch:"

    def __init__(self, inner: DoraNode, epoch: int) -> None:
        super().__init__(inner.node_id, inner.n, inner.t)
        self.inner = inner
        self.epoch = epoch
        self.stale_messages = 0
        self._namespace = Namespace(f"{self.TAG}{epoch}")

    @classmethod
    def build(
        cls,
        epoch: int,
        node_id: int,
        params: DelphiParameters,
        value: float,
        scheme: SignatureScheme,
    ) -> "EpochNode":
        """The epoch's node around its own new :class:`DoraNode`."""
        inner = DoraNode(node_id=node_id, params=params, value=float(value), scheme=scheme)
        return cls(inner, epoch)

    @staticmethod
    def epoch_of(message: Message) -> Optional[int]:
        """The ``k`` of an ``epoch:<k>/...`` message (``None`` if untagged or
        malformed), read from the same memoised :func:`peel` as
        :meth:`on_message`."""
        head, _inner = peel(message)
        if head is None or not head.startswith(EpochNode.TAG):
            return None
        try:
            return int(head[len(EpochNode.TAG):])
        except ValueError:
            return None

    def on_start(self) -> List[Outbound]:
        outbound = self._namespace.wrap_all(self.inner.on_start())
        self._sync()
        return outbound

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        # The same memoised peel the engine's ``processing_cost`` call made.
        unwrapped = self._namespace.unwrap(message)
        if unwrapped is None:
            self.stale_messages += 1
            return []
        outbound = self._namespace.wrap_all(self.inner.on_message(sender, unwrapped))
        self._sync()
        return outbound

    def _sync(self) -> None:
        # Mirror the inner node's decision into this wrapper's own output
        # slots (the fast engine reads the `_has_output` attribute directly,
        # so a property delegate would be invisible to it).
        if self.inner.has_output and not self._has_output:
            self._decide(self.inner.output)

    def processing_cost(self, message: Message) -> float:
        unwrapped = self._namespace.unwrap(message)
        if unwrapped is None:
            return 0.0
        return self.inner.processing_cost(unwrapped)

    @property
    def certificate(self) -> Optional[DoraCertificate]:
        return self.inner.certificate

    @property
    def rounded_value(self) -> Optional[float]:
        return self.inner.rounded_value


def _submissions(
    nodes: Dict[int, ProtocolNode], offline: Tuple[int, ...]
) -> List[Tuple[int, DoraCertificate]]:
    """The epoch's ``(node, certificate)`` chain submissions: every online
    node that certified, in id order."""
    return [
        (node_id, node.certificate)
        for node_id, node in nodes.items()
        if node_id not in offline and node.certificate is not None
    ]


@dataclass(frozen=True)
class EpochReport:
    """One served epoch: the consumed certificate plus run statistics."""

    epoch: int
    value: float
    certificate: DoraCertificate
    honest_outputs: Dict[int, float]
    input_range: float
    wall_seconds: float
    events_processed: int
    #: Simulated (deterministic engines) or wall (asyncio) run time and the
    #: run's traffic; not in :meth:`as_dict`, which fingerprints hash.
    runtime_seconds: float
    megabytes: float
    offline_nodes: Tuple[int, ...]
    stale_messages: int
    #: ``"exact"`` — the other deterministic engine certified the same
    #: value; ``"schedule"`` — the schedule replay reproduced the asyncio
    #: run byte-identically; ``None`` — parity was off.  A failed check
    #: raises instead.
    parity: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe projection (used by artifacts and fingerprints)."""
        entry: Dict[str, Any] = {
            "epoch": self.epoch,
            "value": self.value,
            "signers": list(self.certificate.aggregate.signers),
            "honest_outputs": {
                str(node): value for node, value in sorted(self.honest_outputs.items())
            },
            "input_range": self.input_range,
            "events_processed": self.events_processed,
            "offline_nodes": list(self.offline_nodes),
            "stale_messages": self.stale_messages,
        }
        if self.parity is not None:
            entry["parity"] = self.parity
        return entry


@dataclass(frozen=True)
class SkippedEpoch:
    """An epoch the watchdog gave up on — explicitly accounted,
    never silently dropped (the stream's epoch numbers stay contiguous
    because the skipped number is consumed)."""

    epoch: int
    reason: str
    attempts: int

    def as_dict(self) -> Dict[str, Any]:
        return {"epoch": self.epoch, "reason": self.reason, "attempts": self.attempts}


@dataclass
class ServiceResult:
    """Everything a ``serve`` run produced, with throughput accounting."""

    workload: str
    engine: str
    n: int
    reports: List[EpochReport] = field(default_factory=list)
    skipped: List[SkippedEpoch] = field(default_factory=list)
    wall_seconds: float = 0.0
    chain_entries: int = 0
    chain_validations: int = 0

    @property
    def epochs(self) -> int:
        return len(self.reports)

    @property
    def epochs_per_sec(self) -> Optional[float]:
        if self.wall_seconds <= 0:
            return None
        return self.epochs / self.wall_seconds

    @property
    def certs_per_sec(self) -> Optional[float]:
        if self.wall_seconds <= 0:
            return None
        return self.chain_entries / self.wall_seconds

    @property
    def events_processed(self) -> int:
        return sum(report.events_processed for report in self.reports)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "engine": self.engine,
            "n": self.n,
            "epochs": self.epochs,
            "wall_seconds": self.wall_seconds,
            "epochs_per_sec": self.epochs_per_sec,
            "certs_per_sec": self.certs_per_sec,
            "events_processed": self.events_processed,
            "chain_entries": self.chain_entries,
            "chain_validations": self.chain_validations,
            "reports": [report.as_dict() for report in self.reports],
            "skipped": [skip.as_dict() for skip in self.skipped],
        }


class OracleService:
    """Runs DORA epoch-by-epoch over a streaming workload.

    Parameters
    ----------
    params:
        Delphi/DORA configuration shared by every epoch.
    workload:
        Any object with ``epoch_inputs(n) -> list[float]``; each call must
        advance the stream one epoch.
    engine:
        ``"asyncio"`` (real concurrency), ``"fast"`` or ``"reference"``.
    seed:
        Service seed; per-epoch network seeds derive from it.
    churn:
        Nodes offline per epoch (crash-restart), rotated round-robin;
        must not exceed ``t``.  ``churn_plan`` overrides with an explicit
        ``epoch -> offline ids`` mapping.
    parity:
        Certify every epoch a second way: the schedule replay for the
        asyncio engine, the other deterministic engine for fast and
        reference (see the module docstring).
    network_factory:
        ``epoch -> AsynchronousNetwork`` for the deterministic engines and
        parity replays; defaults to a LAN-like jittered network seeded per
        epoch.
    latency / epoch_timeout:
        Asyncio-engine delivery latency in seconds (``None`` = as fast as
        the loop allows), added to every cross-node message by wrapping the
        epoch's transport in a :class:`~repro.net.chaos.ChaosTransport`
        with one all-run delay window; and the per-epoch wall-clock budget.
    transport_factory:
        ``epoch -> transport`` for the asyncio engine; each epoch runs over
        the returned transport instead of the default in-memory queues.
        Passing ``lambda epoch: SocketTransport(...)`` runs every epoch
        over real authenticated sockets (the transport-parity tests do
        exactly this).  Deterministic engines ignore it.

    Every epoch is watched by a :class:`CertificateStreamMonitor`.
    """

    def __init__(
        self,
        params: DelphiParameters,
        workload: Any,
        *,
        engine: str = "asyncio",
        seed: int = 0,
        churn: int = 0,
        churn_plan: Optional[Mapping[int, Sequence[int]]] = None,
        parity: bool = False,
        network_factory: Optional[Callable[[int], AsynchronousNetwork]] = None,
        compute: Optional[ComputeModel] = None,
        latency: Optional[float] = None,
        epoch_timeout: float = 30.0,
        transport_factory: Optional[Callable[[int], Any]] = None,
        workload_name: str = "custom",
        epoch_retries: int = 0,
        retry_backoff: float = 0.1,
    ) -> None:
        if engine not in KNOWN_SERVICE_ENGINES:
            raise ConfigurationError(
                f"unknown service engine {engine!r} "
                f"(known: {', '.join(KNOWN_SERVICE_ENGINES)})"
            )
        if churn < 0 or churn > params.t:
            raise ConfigurationError(
                f"churn must be in [0, t={params.t}] to preserve liveness, got {churn}"
            )
        if epoch_retries < 0:
            raise ConfigurationError(
                f"epoch_retries must be >= 0, got {epoch_retries}"
            )
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.params = params
        self.workload = workload
        self.workload_name = workload_name
        self.engine = engine
        self.seed = seed
        self.churn = churn
        self.churn_plan = dict(churn_plan) if churn_plan is not None else None
        self.parity = parity
        self.network_factory = network_factory
        self.compute = compute
        self.latency = latency
        self.epoch_timeout = epoch_timeout
        self.transport_factory = transport_factory
        # Persistent service state: the PKI and the SMR chain outlive epochs.
        self.scheme = SignatureScheme(num_nodes=params.n)
        self.chain = SMRChannel(validator=certificate_validator(self.scheme, params.t + 1))
        self.monitor = CertificateStreamMonitor(params)
        self._epoch = 0
        # Epoch-watchdog (graceful-degradation) knobs and accounting.
        self.epoch_retries = epoch_retries
        self.retry_backoff = retry_backoff
        self.epochs_failed = 0
        self.epochs_skipped = 0

    # ------------------------------------------------------------------
    def _epoch_seed(self, epoch: int) -> int:
        return self.seed * _EPOCH_SEED_STRIDE + epoch

    def _network(self, epoch: int) -> AsynchronousNetwork:
        if self.network_factory is not None:
            return self.network_factory(epoch)
        epoch_seed = self._epoch_seed(epoch)
        return AsynchronousNetwork(
            num_nodes=self.params.n,
            latency=UniformLatency(low=0.001, high=0.01, seed=epoch_seed),
            policy=DeliveryPolicy(seed=epoch_seed),
        )

    def offline_nodes(self, epoch: int) -> Tuple[int, ...]:
        """Nodes down (crash-restart) for the given epoch."""
        if self.churn_plan is not None:
            offline = tuple(sorted(self.churn_plan.get(epoch, ())))
        elif self.churn > 0:
            n = self.params.n
            offline = tuple(
                sorted((epoch * self.churn + index) % n for index in range(self.churn))
            )
        else:
            offline = ()
        if len(offline) > self.params.t:
            raise ConfigurationError(
                f"epoch {epoch}: {len(offline)} offline nodes exceed the "
                f"fault budget t={self.params.t}"
            )
        return offline

    # ------------------------------------------------------------------
    def _run_epoch_on_engine(
        self,
        engine: str,
        epoch: int,
        inputs: Sequence[float],
        offline: Tuple[int, ...],
        scheme: SignatureScheme,
        observers: Sequence[Any],
    ) -> Tuple[Dict[int, ProtocolNode], Any]:
        """One epoch's protocol run; returns the nodes and the run result."""
        nodes: Dict[int, ProtocolNode] = {
            node_id: EpochNode.build(epoch, node_id, self.params, inputs[node_id], scheme)
            for node_id in range(self.params.n)
        }
        byzantine = {node_id: CrashStrategy() for node_id in offline}
        if engine == "asyncio":
            transport = (
                self.transport_factory(epoch)
                if self.transport_factory is not None
                else InMemoryTransport()
            )
            if self.latency is not None:
                delay = DelayWindow(0.0, math.inf, self.latency)
                transport = ChaosTransport(transport, WireFaults(delays=(delay,)))
            runtime = AsyncioRuntime(
                nodes,
                timeout=self.epoch_timeout,
                byzantine=byzantine,
                observers=observers,
                transport=transport,
            )
            return nodes, runtime.run()
        runtime = SimulationRuntime(
            nodes=nodes,
            network=self._network(epoch),
            byzantine=byzantine,
            compute=self.compute,
            config=SimulationConfig(engine=engine),
            observers=observers,
        )
        return nodes, runtime.run()

    def _parity_value(
        self, epoch: int, inputs: Sequence[float], offline: Tuple[int, ...]
    ) -> Optional[float]:
        """The value the *other* deterministic engine certifies for the epoch
        (``None`` if it certifies none), with an identically derived (but
        separate) scheme and a throwaway chain."""
        twin = "reference" if self.engine == "fast" else "fast"
        scheme = SignatureScheme(num_nodes=self.params.n)
        chain = SMRChannel(validator=certificate_validator(scheme, self.params.t + 1))
        nodes, _result = self._run_epoch_on_engine(
            twin, epoch, inputs, offline, scheme, observers=()
        )
        try:
            certificate = chain.consume(_submissions(nodes, offline))
        except CertificateShortfall:
            # The primary certified, so this is an engine divergence for the
            # caller to raise, not a liveness failure for the watchdog.
            return None
        return float(certificate.value)

    def _replay_schedule(
        self,
        epoch: int,
        inputs: Sequence[float],
        recorder: ScheduleRecorder,
        live_nodes: Dict[int, ProtocolNode],
        offline: Tuple[int, ...],
    ) -> None:
        """Re-feed every honest node's recorded inbound sequence to a fresh
        node and require it to reproduce the live run byte-identically.

        Sound because protocol nodes are pure state machines of their
        inbound sequence; a divergence means the asyncio engine corrupted,
        duplicated or fabricated a delivery — a real faithfulness bug.
        """
        fresh_scheme = SignatureScheme(num_nodes=self.params.n)
        for node_id in range(self.params.n):
            if node_id in offline:
                continue
            fresh = EpochNode.build(
                epoch, node_id, self.params, inputs[node_id], fresh_scheme
            )
            fresh.on_start()
            for sender, message in recorder.inbound.get(node_id, ()):
                fresh.on_message(sender, message)
            live = live_nodes[node_id]
            live_cert = live.certificate
            fresh_cert = fresh.certificate
            same = (
                fresh.has_output == live.has_output
                and fresh.rounded_value == live.rounded_value
                and (live_cert is None) == (fresh_cert is None)
                and (
                    live_cert is None
                    or (
                        fresh_cert.value == live_cert.value
                        and fresh_cert.aggregate.signers
                        == live_cert.aggregate.signers
                    )
                )
            )
            if not same:
                raise EquivalenceError(
                    f"epoch {epoch}: schedule replay of node {node_id} diverged "
                    f"from the {self.engine} run (replayed "
                    f"{fresh.rounded_value!r}/{fresh_cert and fresh_cert.value!r} "
                    f"vs live {live.rounded_value!r}/"
                    f"{live_cert and live_cert.value!r}) — the runtime did not "
                    "execute the state machines faithfully"
                )

    # ------------------------------------------------------------------
    def run_epoch(self) -> EpochReport:
        """Serve one epoch: draw inputs, agree, attest, submit, cross-check."""
        epoch = self._epoch
        self._epoch += 1
        inputs = [float(value) for value in self.workload.epoch_inputs(self.params.n)]
        if len(inputs) != self.params.n:
            raise ConfigurationError(
                f"workload produced {len(inputs)} inputs for n={self.params.n}"
            )
        offline = self.offline_nodes(epoch)
        online_honest = [i for i in range(self.params.n) if i not in offline]
        honest_inputs = [inputs[i] for i in online_honest]
        self.monitor.begin_epoch(epoch, honest_inputs)
        observers: List[Any] = [self.monitor]
        recorder: Optional[ScheduleRecorder] = None
        if self.parity and self.engine == "asyncio":
            recorder = ScheduleRecorder()
            observers.append(recorder)

        started = time.perf_counter()
        nodes, result = self._run_epoch_on_engine(
            self.engine, epoch, inputs, offline, self.scheme, tuple(observers)
        )
        certificate = self.chain.consume(_submissions(nodes, offline))
        self.monitor.check_certificate(epoch, certificate)
        # Serving latency of the primary run only; the parity check below
        # is verification overhead, not part of the epoch's service time.
        wall = time.perf_counter() - started

        parity: Optional[str] = None
        if recorder is not None:
            self._replay_schedule(epoch, inputs, recorder, nodes, offline)
            parity = "schedule"
        elif self.parity:
            twin_value = self._parity_value(epoch, inputs, offline)
            if twin_value != float(certificate.value):
                raise EquivalenceError(
                    f"epoch {epoch}: {self.engine} engine certified "
                    f"{certificate.value!r} but the other deterministic engine "
                    f"certified {twin_value!r}"
                )
            parity = "exact"

        honest_outputs = {
            node_id: nodes[node_id].rounded_value
            for node_id in online_honest
            if nodes[node_id].rounded_value is not None
        }
        return EpochReport(
            epoch=epoch,
            value=float(certificate.value),
            certificate=certificate,
            honest_outputs=honest_outputs,
            input_range=max(honest_inputs) - min(honest_inputs),
            wall_seconds=wall,
            events_processed=result.events_processed,
            runtime_seconds=result.runtime_seconds,
            megabytes=result.trace.total_megabytes,
            offline_nodes=offline,
            stale_messages=sum(node.stale_messages for node in nodes.values()),
            parity=parity,
        )

    def run_epoch_resilient(self) -> "EpochReport | SkippedEpoch":
        """Serve one epoch with the epoch watchdog: bounded retry, then skip.

        A *recoverable* epoch failure — the run timed out before certifying
        (:class:`LivenessTimeout`) or finished without ``t + 1`` signatures
        (:class:`CertificateShortfall`) — is retried up to ``epoch_retries``
        times with exponential backoff.  Each retry reuses the same epoch
        number but draws *fresh* workload inputs (the stream has moved on;
        replaying stale inputs would re-certify old data as current).  On
        exhaustion the epoch is explicitly skipped and accounted — the
        service stays up instead of aborting the stream.  Everything else
        (invariant violations, engine bugs) still raises: chaos must be
        survived, corruption must not.
        """
        epoch = self._epoch
        last_error: Optional[Exception] = None
        for attempt in range(self.epoch_retries + 1):
            try:
                return self.run_epoch()
            except (LivenessTimeout, CertificateShortfall) as error:
                self.epochs_failed += 1
                last_error = error
                # run_epoch already advanced the counter; retries reuse the
                # failed epoch's number so the stream stays contiguous.
                self._epoch = epoch
                if attempt < self.epoch_retries and self.retry_backoff > 0:
                    time.sleep(self.retry_backoff * (2 ** attempt))
        self.epochs_skipped += 1
        self._epoch = epoch + 1
        return SkippedEpoch(
            epoch=epoch,
            reason=f"{type(last_error).__name__}: {last_error}",
            attempts=self.epoch_retries + 1,
        )

    def serve(
        self,
        epochs: int,
        progress: Optional[Callable[[str], None]] = None,
    ) -> ServiceResult:
        """Serve ``epochs`` consecutive epochs and return the full result.

        Each epoch runs through :meth:`run_epoch_resilient`, so recoverable
        failures retry and then skip-and-account instead of aborting the
        stream; the skips are in :attr:`ServiceResult.skipped`.
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        say = progress or (lambda message: None)
        result = ServiceResult(
            workload=self.workload_name, engine=self.engine, n=self.params.n
        )
        # The chain is service-lifetime state; report only this call's delta.
        entries_before = sum(1 for entry in self.chain.entries if entry.valid)
        validations_before = self.chain.validations
        started = time.perf_counter()
        for _ in range(epochs):
            report = self.run_epoch_resilient()
            if isinstance(report, SkippedEpoch):
                result.skipped.append(report)
                say(
                    f"[serve] epoch {report.epoch}: SKIPPED after "
                    f"{report.attempts} attempts ({report.reason})"
                )
                continue
            result.reports.append(report)
            parity = "" if report.parity is None else f" parity={report.parity}"
            offline = (
                f" offline={list(report.offline_nodes)}" if report.offline_nodes else ""
            )
            say(
                f"[serve] epoch {report.epoch}: value={report.value:.6g} "
                f"signers={report.certificate.signer_count} "
                f"({report.wall_seconds:.2f}s, {report.events_processed} events)"
                f"{offline}{parity}"
            )
        result.wall_seconds = time.perf_counter() - started
        result.chain_entries = (
            sum(1 for entry in self.chain.entries if entry.valid) - entries_before
        )
        result.chain_validations = self.chain.validations - validations_before
        return result


def build_service(
    workload: str,
    n: int,
    *,
    engine: str = "asyncio",
    seed: int = 0,
    churn: int = 0,
    parity: bool = True,
    epsilon: Optional[float] = None,
    delta_max: Optional[float] = None,
    max_rounds: Optional[int] = 6,
    latency_seconds: Optional[float] = None,
    epoch_timeout: float = 30.0,
    epoch_retries: int = 0,
    retry_backoff: float = 0.1,
    network_factory: Optional[Callable[[int], AsynchronousNetwork]] = None,
) -> OracleService:
    """Assemble an :class:`OracleService` for a named workload.

    Delphi parameters default to the workload's calibrated entry in
    :data:`repro.workloads.EPOCH_WORKLOADS`.
    """
    feed = make_epoch_workload(workload, seed=seed)
    params = epoch_parameters(
        workload, n, epsilon=epsilon, delta_max=delta_max, max_rounds=max_rounds
    )
    return OracleService(
        params,
        feed,
        engine=engine,
        seed=seed,
        churn=churn,
        parity=parity,
        latency=latency_seconds,
        epoch_timeout=epoch_timeout,
        epoch_retries=epoch_retries,
        retry_backoff=retry_backoff,
        network_factory=network_factory,
        workload_name=workload,
    )
