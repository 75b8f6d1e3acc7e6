"""Multi-process oracle cluster: one OS process per DORA node, real sockets.

``python -m repro cluster`` turns the epoch-pipelined oracle service into an
actual deployment: a supervisor process spawns ``n`` node processes, each
hosting exactly one :class:`~repro.net.socket_transport.SocketTransport`
endpoint (TCP or Unix-domain), and the cluster agrees epoch after epoch over
authenticated sockets.  A SIGKILLed node process genuinely crashes mid-epoch
— its kernel sockets die with it — and a respawned process rejoins the live
cluster through the epoch-tagged reconnect handshake.

Roles
-----
* **Node process** (:func:`run_node`, ``repro cluster-node``): derives its
  keys and per-epoch input deterministically from the shared config (the
  *persistent PKI handout*: both the signing scheme and the pairwise channel
  keys reconstruct from master secrets, so a restarted process has the same
  identity), JOINs the supervisor, then runs one
  :class:`~repro.oracle.service.EpochNode` per epoch, reporting its
  certificate and waiting for the supervisor's COMMIT before advancing.
* **Supervisor process** (:class:`ClusterSupervisor`, ``repro cluster`` and
  ``repro chaos``): hosts endpoint ``n``, spawns/restarts the children,
  collects per-epoch certificates into the
  :class:`~repro.oracle.smr.SMRChannel`, validates them with
  :class:`~repro.faults.monitors.CertificateStreamMonitor`, and broadcasts
  COMMIT — the cluster's epoch barrier.  It is the one cluster run: an epoch
  that certifies nothing within ``epoch_timeout`` is skipped and accounted
  (the nodes are released with ``EPOCH(k+1)``), a monitor breach winds the
  run down, a :class:`~repro.oracle.chaos.ChaosSchedule` (empty by default)
  supplies process and wire faults, and every run returns the same verdict:
  a deterministic section (schedule, per-epoch outcomes, violations, ``ok``)
  and an ``observed`` one (timings, values, restarts, transport counters).

Control plane (all over the same authenticated transport):

========  =========  ====================================================
mtype     direction  payload
========  =========  ====================================================
JOIN      node→sup   epoch the node believes it is in (0 when fresh;
                     repeated until greeted)
EPOCH     sup→node   current epoch — the start barrier and rejoin catch-up
CERT      node→sup   ``[epoch, rounded_value, DoraCertificate]``
COMMIT    sup→all    ``[epoch, value, AggregateSignature]``
SHUTDOWN  sup→all    ``None``
========  =========  ====================================================

Crash-recovery walkthrough (the integration test's exact scenario): the
supervisor SIGKILLs node ``x`` just after COMMIT of epoch ``k-1``; peers'
sends to ``x`` fail and are dropped (counted, with redial backoff) — a
textbook crash fault within the ``t`` budget, so the remaining nodes still
gather ``t+1`` signatures for epoch ``k``.  The respawned ``x`` re-derives
its keys, JOINs, is greeted with ``EPOCH(k)`` (over a freshly dialled
channel — the old one points at the dead incarnation), fast-forwards its
workload feed, and — having missed epoch ``k``'s early rounds — adopts the
epoch via the supervisor's COMMIT after verifying the aggregate signature
itself.  From epoch ``k+1`` on it participates normally.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.parameters import DelphiParameters
from repro.core.dora import DoraCertificate, certificate_validator
from repro.crypto.signatures import AggregateSignature, SignatureScheme
from repro.domains import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, domain, optional
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    LivenessTimeout,
    ProtocolViolation,
    TransportClosedError,
)
from repro.faults.monitors import CertificateStreamMonitor, ClusterLivenessMonitor
from repro.net.chaos import ChaosTransport, WireFaults
from repro.net.message import Message
from repro.net.network import JsonSpec
from repro.net.socket_transport import SocketTransport
from repro.oracle.chaos import ChaosSchedule
from repro.oracle.service import EpochNode, EpochReport
from repro.oracle.smr import SMRChannel
from repro.protocols.base import BROADCAST, Outbound
from repro.workloads import epoch_parameters, epoch_workload_entry, make_epoch_workload

#: Protocol tag of the cluster control plane.
CLUSTER_PROTOCOL = "cluster"

JOIN = "JOIN"
EPOCH = "EPOCH"
CERT = "CERT"
COMMIT = "COMMIT"
SHUTDOWN = "SHUTDOWN"

#: Seconds a node waits for its greeting before it JOINs again: either half
#: of the exchange can be lost (a JOIN inside a loss window, a greeting
#: dropped with its channel), and the supervisor counts a repeat once.
JOIN_RETRY_SECONDS = 1.0


# ----------------------------------------------------------------------
# Shared configuration (the persistent PKI handout)
# ----------------------------------------------------------------------
@dataclass
class ClusterConfig(JsonSpec):
    """Everything a node or supervisor process needs, JSON-serialisable
    (``to_dict``/``from_dict`` and the ``write``/``load`` file pair are
    :class:`~repro.net.network.JsonSpec`'s).

    The two master secrets *are* the PKI handout: every process re-derives
    the identical signing keys (:class:`SignatureScheme`) and pairwise
    channel keys (:class:`~repro.crypto.hmac_channel.ChannelKeyring`) from
    them, so identity survives any number of crash-restarts.
    """

    n: int
    workload: str
    seed: int = 0
    epochs: int = 3
    epsilon: Optional[float] = None
    rho0: Optional[float] = None
    delta_max: Optional[float] = None
    max_rounds: Optional[int] = 6
    #: ``node_id -> ["tcp", host, port] | ["unix", path]``; id ``n`` is the
    #: supervisor's endpoint.
    addresses: Dict[int, List[Any]] = field(default_factory=dict)
    sign_secret_hex: str = ""
    channel_secret_hex: str = ""
    epoch_timeout: float = 30.0
    join_timeout: float = 30.0
    #: Seconds the supervisor keeps draining extra CERTs after the first
    #: valid one, so every alive node's certificate lands in the report.
    epoch_grace: float = 1.0
    #: Pause between epochs.  Pacing gives a respawned process time to rejoin
    #: while the run is still live: spawn to JOIN (the report's ``boots``) is
    #: ~0.35 s alone, ~1.3 s for seven at once on the 2-core build box (1.2 s
    #: and 4.2 s while ``import repro`` pulled scipy in); 0 = back-to-back.
    epoch_interval: float = 0.0
    runtime_dir: str = "."
    #: Wire-level chaos for node processes: ``{"seed": int, "wire": {...}}``
    #: (the :class:`~repro.net.chaos.WireFaults` dict form).  ``None`` runs
    #: the transport bare.  The supervisor's own transport is never wrapped
    #: — the control plane stays reliable so the audit itself cannot be the
    #: thing that fails.
    chaos: Optional[Dict[str, Any]] = None
    #: How many times a node may *resync* (re-JOIN and re-offer its CERT)
    #: after an epoch deadline instead of dying with ``LivenessTimeout``, so
    #: a node stranded by a partition, a SIGSTOP pause or a skipped epoch
    #: degrades gracefully rather than crashing.
    epoch_resyncs: int = 3

    def __post_init__(self) -> None:
        epoch_workload_entry(self.workload)
        self._coerce(
            n=domain("[2, inf)", lambda n: n >= 2, int), epochs=AT_LEAST_ONE,
            epsilon=optional(POSITIVE), rho0=optional(POSITIVE),
            delta_max=optional(POSITIVE), epoch_timeout=POSITIVE, join_timeout=POSITIVE,
            epoch_grace=NON_NEGATIVE, epoch_interval=NON_NEGATIVE,
        )
        self.addresses = {int(k): list(v) for k, v in self.addresses.items()}

    # -- derived values -------------------------------------------------
    @property
    def supervisor_id(self) -> int:
        return self.n

    @property
    def sign_secret(self) -> bytes:
        return bytes.fromhex(self.sign_secret_hex)

    @property
    def channel_secret(self) -> bytes:
        return bytes.fromhex(self.channel_secret_hex)

    def params(self) -> DelphiParameters:
        return epoch_parameters(
            self.workload,
            self.n,
            epsilon=self.epsilon,
            rho0=self.rho0,
            delta_max=self.delta_max,
            max_rounds=self.max_rounds,
        )

    def scheme(self) -> SignatureScheme:
        return SignatureScheme(num_nodes=self.n, master_secret=self.sign_secret)

    def make_transport(self, local_id: int, **kwargs: Any) -> SocketTransport:
        return SocketTransport(
            self.addresses,
            local_ids=[local_id],
            num_channel_ids=self.n + 1,
            master_secret=self.channel_secret,
            **kwargs,
        )


def build_cluster_config(
    workload: str,
    n: int,
    *,
    epochs: int = 3,
    seed: int = 0,
    transport: str = "unix",
    runtime_dir: os.PathLike = ".",
    host: str = "127.0.0.1",
    base_port: int = 9500,
    epsilon: Optional[float] = None,
    delta_max: Optional[float] = None,
    max_rounds: Optional[int] = 6,
    epoch_timeout: float = 30.0,
    epoch_interval: float = 0.0,
    secret_seed: Optional[bytes] = None,
) -> ClusterConfig:
    """Assemble a runnable config: addresses plus freshly drawn secrets.

    ``transport="unix"`` lays the sockets out in ``runtime_dir``;
    ``transport="tcp"`` assigns ``base_port + node_id`` on ``host`` (the
    docker-compose recipe templates per-service hostnames instead).
    ``secret_seed`` pins the secrets for reproducible deployments; the
    default draws them from ``os.urandom``.
    """
    if transport not in ("unix", "tcp"):
        raise ConfigurationError(f"transport must be 'unix' or 'tcp', got {transport!r}")
    directory = Path(runtime_dir)
    addresses: Dict[int, List[Any]] = {}
    for node_id in range(n + 1):
        if transport == "unix":
            addresses[node_id] = ["unix", str(directory / f"node-{node_id}.sock")]
        else:
            addresses[node_id] = ["tcp", host, base_port + node_id]
    if secret_seed is not None:
        import hashlib

        sign_secret = hashlib.sha256(b"sign|" + secret_seed).digest()
        channel_secret = hashlib.sha256(b"channel|" + secret_seed).digest()
    else:
        sign_secret = os.urandom(32)
        channel_secret = os.urandom(32)
    return ClusterConfig(
        n=n,
        workload=workload,
        seed=seed,
        epochs=epochs,
        epsilon=epsilon,
        delta_max=delta_max,
        max_rounds=max_rounds,
        addresses=addresses,
        sign_secret_hex=sign_secret.hex(),
        channel_secret_hex=channel_secret.hex(),
        epoch_timeout=epoch_timeout,
        epoch_interval=epoch_interval,
        runtime_dir=str(directory),
    )


class EpochInputFeed:
    """Deterministic per-epoch inputs, fast-forwardable to any epoch.

    Every process owns one; because the feed is a pure function of
    ``(workload, seed)``, a restarted node that jumps to epoch ``k`` draws
    exactly the input it would have drawn had it never crashed.
    """

    def __init__(self, workload: str, seed: int, n: int) -> None:
        self._feed = make_epoch_workload(workload, seed=seed)
        self._n = n
        self._cache: List[List[float]] = []

    def inputs(self, epoch: int) -> List[float]:
        while len(self._cache) <= epoch:
            self._cache.append(
                [float(value) for value in self._feed.epoch_inputs(self._n)]
            )
        return self._cache[epoch]


# ----------------------------------------------------------------------
# Node process
# ----------------------------------------------------------------------
async def _get_before(
    transport: Any, node_id: int, deadline: float, protocol: Optional[str] = None
) -> Optional[Tuple[int, Message]]:
    """The next ``(sender, message)`` for ``node_id`` before ``deadline``
    (monotonic), or ``None`` once it passes — silence is an outcome the
    caller handles (resync, or a typed ``LivenessTimeout``), not a bare
    ``TimeoutError``.  With ``protocol``, other protocols' traffic is skipped."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None
    try:
        async with asyncio.timeout(remaining):
            while True:
                received = await transport.get(node_id)
                if protocol is None or received[1].protocol == protocol:
                    return received
    except TimeoutError:
        return None


async def run_node(
    config: ClusterConfig, node_id: int, *, log: Any = None
) -> Dict[int, float]:
    """One oracle node process: JOIN, then agree epoch after epoch.

    Returns the ``epoch -> committed value`` map this process witnessed
    (useful to in-process tests; the OS process exit code is what the
    supervisor watches).
    """
    if not 0 <= node_id < config.n:
        raise ConfigurationError(f"node id {node_id} outside [0, {config.n})")

    def say(text: str) -> None:
        if log is not None:
            print(text, file=log, flush=True)

    params = config.params()
    scheme = config.scheme()
    threshold = params.t + 1
    supervisor = config.supervisor_id
    peers = list(range(config.n))
    feed = EpochInputFeed(config.workload, config.seed, config.n)
    transport: Any = config.make_transport(node_id)
    chaos = config.chaos or {}
    wire = WireFaults.from_dict(chaos.get("wire") or {})
    if wire.active:
        # Wire-level chaos is injected on the node's own sender side; the
        # supervisor's transport stays bare (see ClusterConfig.chaos).
        transport = ChaosTransport(
            transport, wire, seed=int(chaos.get("seed", config.seed))
        )

    async def send(outbound: Sequence[Outbound]) -> None:
        """Deliver a protocol step's outbound batch, expanding BROADCAST."""
        for target, message in outbound:
            for peer in peers if target == BROADCAST else (target,):
                await transport.put(peer, (node_id, message))

    async def tell(mtype: str, epoch: int, payload: Any) -> None:
        """One control-plane message to the supervisor."""
        message = Message(CLUSTER_PROTOCOL, mtype, epoch, payload)
        await transport.put(supervisor, (node_id, message))

    await transport.open([node_id])
    committed: Dict[int, float] = {}
    #: Early messages for epochs we have not entered yet.
    future: Dict[int, List[Tuple[int, Message]]] = {}
    try:
        epoch: Optional[int] = None
        deadline = time.monotonic() + config.join_timeout
        rejoin_at = 0.0
        while epoch is None:
            if time.monotonic() >= rejoin_at:
                await tell(JOIN, 0, 0)
                rejoin_at = time.monotonic() + JOIN_RETRY_SECONDS
            received = await _get_before(transport, node_id, min(deadline, rejoin_at))
            if received is None:
                if time.monotonic() < deadline:
                    continue
                raise LivenessTimeout(
                    f"node {node_id}: no EPOCH greeting within "
                    f"{config.join_timeout}s of JOIN"
                )
            sender, message = received
            if message.protocol == CLUSTER_PROTOCOL:
                if message.mtype == EPOCH:
                    epoch = int(message.payload)
                elif message.mtype == SHUTDOWN:
                    return committed
            else:
                tag = EpochNode.epoch_of(message)
                if tag is not None:
                    future.setdefault(tag, []).append((sender, message))
        say(f"node {node_id}: joined at epoch {epoch}")

        while epoch < config.epochs:
            inputs = feed.inputs(epoch)
            node = EpochNode.build(epoch, node_id, params, inputs[node_id], scheme)
            transport.advance_epoch(epoch)
            await send(node.on_start())
            for sender, message in future.pop(epoch, []):
                await send(node.on_message(sender, message))
            reported = False
            advance_to: Optional[int] = None
            resyncs_used = 0
            deadline = time.monotonic() + config.epoch_timeout
            while advance_to is None:
                if node.certificate is not None and not reported:
                    reported = True
                    await tell(
                        CERT, epoch, [epoch, node.rounded_value, node.certificate]
                    )
                received = await _get_before(transport, node_id, deadline)
                if received is None:
                    if resyncs_used < config.epoch_resyncs:
                        # Graceful degradation: instead of dying, re-JOIN so
                        # the supervisor re-greets us with the live epoch
                        # (we may have been partitioned or SIGSTOPped past
                        # a COMMIT), and re-offer our certificate.
                        resyncs_used += 1
                        reported = False
                        await tell(JOIN, epoch, epoch)
                        deadline = time.monotonic() + config.epoch_timeout
                        say(
                            f"node {node_id}: epoch {epoch} stalled, resync "
                            f"{resyncs_used}/{config.epoch_resyncs}"
                        )
                        continue
                    raise LivenessTimeout(
                        f"node {node_id}: epoch {epoch} saw no COMMIT within "
                        f"{config.epoch_timeout}s "
                        f"(after {resyncs_used} resyncs)"
                    )
                sender, message = received
                if message.protocol == CLUSTER_PROTOCOL:
                    if message.mtype == SHUTDOWN:
                        say(f"node {node_id}: shutdown at epoch {epoch}")
                        return committed
                    if message.mtype == COMMIT:
                        commit_epoch, value, aggregate = message.payload
                        commit_epoch = int(commit_epoch)
                        if commit_epoch < epoch:
                            continue  # stale re-broadcast
                        if not isinstance(aggregate, AggregateSignature) or (
                            not scheme.verify_aggregate(
                                value, aggregate, threshold=threshold
                            )
                        ):
                            raise ProtocolViolation(
                                f"node {node_id}: COMMIT for epoch {commit_epoch} "
                                "carries an invalid aggregate signature"
                            )
                        committed[commit_epoch] = float(value)
                        advance_to = commit_epoch + 1
                    elif message.mtype == EPOCH:
                        target = int(message.payload)
                        if target > epoch:
                            advance_to = target
                    continue
                tag = EpochNode.epoch_of(message)
                if tag is None or tag == epoch:
                    await send(node.on_message(sender, message))
                elif tag > epoch:
                    future.setdefault(tag, []).append((sender, message))
                # tag < epoch: a straggler from a committed epoch; drop.
            say(
                f"node {node_id}: epoch {epoch} done "
                f"(own certificate: {node.certificate is not None})"
            )
            epoch = advance_to
        return committed
    except TransportClosedError:
        return committed
    finally:
        await transport.close()


# ----------------------------------------------------------------------
# Supervisor process
# ----------------------------------------------------------------------
@dataclass
class CrashPlan:
    """SIGKILL ``node`` ``after`` seconds into ``epoch``; respawn ``restart_delay``
    seconds later (mid-epoch, so it rejoins a live, working cluster)."""

    node: int
    epoch: int
    after: float = 0.05
    restart_delay: float = 0.3


class ClusterSupervisor:
    """Spawns, kills, pauses, restarts and audits an n-process oracle cluster.

    The one cluster run, for ``repro cluster`` (``--no-spawn`` included) and
    ``repro chaos`` alike.  Every epoch ends in one of three outcomes:
    *certified*; *skipped* — no valid certificate within ``epoch_timeout``,
    accounted with the liveness monitor, and the nodes released with
    ``EPOCH(epoch+1)``; or *violation* — an
    :class:`~repro.errors.InvariantViolation` is recorded and winds the run
    down (a stall is survivable, corruption is not).  The ``schedule``'s
    kills and pauses and a ``crash`` plan all go through
    :meth:`_inject_kill` / :meth:`_inject_pause` here, on the barrier clock,
    because this class owns ``self.processes``; the schedule's wire faults
    travel to the nodes in ``config.chaos`` (the supervisor's own transport
    stays bare, so the audit channel cannot be the thing that fails).
    Certified epochs are published to an optional ``gateway`` front, whose
    ``/healthz`` reads the run through ``health_source``.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        schedule: Optional[ChaosSchedule] = None,
        spawn: bool = True,
        crash: Optional[CrashPlan] = None,
        progress: Any = None,
        gateway: Any = None,
    ) -> None:
        if schedule is None:
            schedule = ChaosSchedule(seed=config.seed)
        schedule.validate(config)
        if crash is not None:
            if not 0 <= crash.node < config.n:
                raise ConfigurationError(f"crash node {crash.node} outside the cluster")
            if not 0 <= crash.epoch < config.epochs:
                raise ConfigurationError(
                    f"crash epoch {crash.epoch} outside [0, {config.epochs})"
                )
        if schedule.wire.active:
            config.chaos = {"seed": schedule.seed, "wire": schedule.wire.to_dict()}
        self.config = config
        self.schedule = schedule
        self.spawn = spawn
        self.crash = crash
        self.progress = progress
        self.gateway = gateway
        if gateway is not None:
            gateway.health_source = self._health_source
        self.params = config.params()
        self.scheme = config.scheme()
        self.chain = SMRChannel(
            validator=certificate_validator(self.scheme, self.params.t + 1)
        )
        self.monitor = CertificateStreamMonitor(self.params)
        # Per-epoch certify budget: the supervisor itself gives up at
        # epoch_timeout, so anything certifying beyond timeout + grace +
        # pacing (+ slack) means the accounting itself broke.
        self.liveness = ClusterLivenessMonitor(
            epochs=config.epochs,
            deadline=config.epoch_timeout
            + config.epoch_grace
            + config.epoch_interval
            + 1.0,
        )
        self.feed = EpochInputFeed(config.workload, config.seed, config.n)
        self.processes: Dict[int, subprocess.Popen] = {}
        self.fault_events: List[Dict[str, Any]] = []
        self.restarts: List[Dict[str, int]] = []
        self.rejoins: List[Dict[str, int]] = []
        #: ``{"node", "boot_seconds"}`` per spawn: ``_spawn_node`` to its JOIN.
        self.boots: List[Dict[str, Any]] = []
        #: Observed values of each certified epoch (value, signers, senders).
        self.details: List[Dict[str, Any]] = []
        self.violations: List[Dict[str, str]] = []
        #: CERTs dropped for their shape (count-and-drop: the sender is
        #: authenticated, not trusted).
        self.malformed_certs = 0
        self._spawned_at: Dict[int, float] = {}
        self._config_path: Optional[Path] = None
        #: The supervisor's own endpoint, for the duration of the run.
        self._transport: Any = None
        self._epoch = 0
        self._started = False
        #: Nodes whose current incarnation has JOINed and sent no CERT since:
        #: a JOIN from one of them repeats one already greeted.
        self._joined: set = set()
        self._down: set = set()
        #: Barrier clock: process-fault times count from here.
        self._zero = 0.0
        self._injectors: List[asyncio.Task] = []
        self._fired: set = set()
        self._paused: Dict[int, subprocess.Popen] = {}

    # -- helpers ---------------------------------------------------------
    def _say(self, text: str) -> None:
        if self.progress is not None:
            self.progress(text)

    def _spawn_node(self, node_id: int) -> subprocess.Popen:
        directory = Path(self.config.runtime_dir)
        directory.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        log_path = directory / f"node-{node_id}.log"
        self._spawned_at[node_id] = time.monotonic()
        with open(log_path, "ab") as log_file:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "cluster-node",
                    "--config",
                    str(self._config_path),
                    "--node-id",
                    str(node_id),
                ],
                stdout=log_file,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=str(directory),
            )
        return process

    def _note_join(self, node_id: int) -> None:
        """Record a JOIN; the first one after a spawn closes that boot."""
        self._joined.add(node_id)
        spawned_at = self._spawned_at.pop(node_id, None)
        if spawned_at is not None:
            self.boots.append(
                {"node": node_id, "boot_seconds": time.monotonic() - spawned_at}
            )

    # -- the control plane -------------------------------------------------
    async def _control(self, deadline: float) -> Optional[Tuple[int, Message]]:
        """The next control-plane ``(sender, message)`` before ``deadline``.
        Every supervisor-side wait is this call; anything that is not cluster
        traffic is skipped."""
        return await _get_before(
            self._transport, self.config.supervisor_id, deadline, CLUSTER_PROTOCOL
        )

    async def _tell(self, node_id: int, mtype: str, epoch: int, payload: Any) -> None:
        message = Message(CLUSTER_PROTOCOL, mtype, epoch, payload)
        await self._transport.put(node_id, (self.config.supervisor_id, message))

    async def _broadcast(self, mtype: str, epoch: int, payload: Any = None) -> None:
        for node_id in range(self.config.n):
            await self._tell(node_id, mtype, epoch, payload)

    async def _greet(self, node_id: int, epoch: int) -> None:
        """Answer a JOIN: tell the node which epoch to (re)start from."""
        if self._started:
            # A new incarnation, whoever restarted it: our channel still
            # points at the old one, and the first write on a dead connection
            # is lost finding that out — with no broadcast since the crash,
            # that write would be this greeting.  Dial afresh.  A repeated
            # JOIN lost its greeting: dial afresh too, but count it once.
            self._transport.reset_connection(self.config.supervisor_id, node_id)
            if node_id not in self._joined:
                self.liveness.on_rejoin(node_id)
                self.rejoins.append({"node": node_id, "epoch": epoch})
                self._say(
                    f"# cluster: node {node_id} rejoined, greeted with epoch {epoch}"
                )
        self._note_join(node_id)
        await self._tell(node_id, EPOCH, epoch, epoch)

    # -- health for a fronting gateway -----------------------------------
    def _health_source(self) -> Tuple[str, List[str]]:
        if self.violations:
            return (
                "unhealthy",
                [f"monitor violation: {v['detail']}" for v in self.violations],
            )
        skipped = sorted(
            epoch
            for epoch, outcome in self.liveness.outcomes.items()
            if outcome == "skipped"
        )
        if skipped:
            return ("degraded", [f"epochs skipped: {skipped}"])
        return ("ok", [])

    def _note_violation(self, violation: InvariantViolation) -> None:
        self.violations.append(
            {"monitor": violation.monitor, "detail": violation.detail}
        )

    # -- the run ---------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Drive the whole cluster; returns the JSON-safe verdict.

        A ``gateway`` is started first and closed last: it serves clients on
        the run's own event loop for the whole run.

        Raises
        ------
        LivenessTimeout
            If some node never JOINs the startup barrier.
        """

        async def fronted() -> Dict[str, Any]:
            if self.gateway is None:
                return await self._run_async()
            host, port = await self.gateway.start()
            self._say(f"# cluster: gateway front listening on {host}:{port}")
            try:
                return await self._run_async()
            finally:
                await self.gateway.close()

        return asyncio.run(fronted())

    async def _run_async(self) -> Dict[str, Any]:
        config = self.config
        directory = Path(config.runtime_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self._config_path = directory / "cluster.json"
        config.write(self._config_path)
        transport = self._transport = config.make_transport(config.supervisor_id)
        await transport.open([config.supervisor_id])
        started_wall = time.monotonic()
        epochs: List[Dict[str, Any]] = []
        exit_codes: Dict[int, Optional[int]] = {}
        try:
            if self.spawn:
                for node_id in range(config.n):
                    self.processes[node_id] = self._spawn_node(node_id)
            await self._startup_barrier()
            self._zero = time.monotonic()
            self._start_schedule()
            for epoch in range(config.epochs):
                self._epoch = epoch
                crash = self.crash
                if crash is not None and crash.epoch == epoch:
                    # An epoch-anchored plan is a barrier-clock kill whose
                    # time is only known now, as its epoch opens — and which
                    # happens even if that epoch is over before ``after`` is.
                    at = time.monotonic() - self._zero + crash.after
                    self._start_fault(
                        self._inject_kill(crash.node, at, crash.restart_delay),
                        fired=True,
                    )
                try:
                    epochs.append(await self._run_epoch(epoch))
                except InvariantViolation as violation:
                    self._note_violation(violation)
                    self._say(f"  epoch {epoch}: VIOLATION {violation}")
                    epochs.append({"epoch": epoch, "outcome": "violation"})
                    break
            await self._settle_faults()
            await self._await_rejoins()
            await self._broadcast(SHUTDOWN, 0)
            # ``put`` only queues and ``close`` cancels the sender tasks: with
            # no children to reap (--no-spawn) nothing else would wait for the
            # final COMMIT and SHUTDOWN to leave.
            await transport.flush()
            exit_codes = await self._reap_children()
        finally:
            await self._settle_faults(abandon=True)
            self._resume_paused()
            self._kill_children()
            await transport.close()
            self._sweep_sockets()
        try:
            self.liveness.finalize()
        except InvariantViolation as violation:
            self._note_violation(violation)
        liveness = self.liveness.summary()
        observed = {
            "wall_seconds": time.monotonic() - started_wall,
            "epoch_details": self.details,
            "fault_events": self.fault_events,
            "restarts": self.restarts,
            "rejoins": self.rejoins,
            "boots": self.boots,
            "exit_codes": {str(node): code for node, code in exit_codes.items()},
            "malformed_certs": self.malformed_certs,
            "chain_entries": len(self.chain.entries),
            "chain_validations": self.chain.validations,
            "distinct_valid_payloads": self.chain.distinct_valid_payloads,
            "transport": transport.wire_counters(),
            "liveness": liveness,
            "margins": self.liveness.margin_channels(),
        }
        if self.gateway is not None:
            observed["gateway"] = self.gateway.metrics()
        return {
            "kind": "chaos-verdict",
            "seed": self.schedule.seed,
            "n": config.n,
            "t": self.params.t,
            "workload": config.workload,
            "epochs_planned": config.epochs,
            "schedule": self.schedule.to_dict(),
            "epochs": epochs,
            "violations": self.violations,
            "ok": not self.violations and not liveness["unaccounted"],
            "observed": observed,
        }

    # -- barrier, rejoin -----------------------------------------------------
    async def _startup_barrier(self) -> None:
        """Wait for every node's JOIN, then release them into epoch 0."""
        config = self.config
        deadline = time.monotonic() + config.join_timeout
        while len(self._joined) < config.n:
            received = await self._control(deadline)
            if received is None:
                missing = sorted(set(range(config.n)) - self._joined)
                raise LivenessTimeout(
                    f"cluster barrier: nodes {missing} never joined within "
                    f"{config.join_timeout}s"
                )
            if received[1].mtype == JOIN:
                self._note_join(received[0])
        self._started = True
        await self._broadcast(EPOCH, 0, 0)
        self._say(f"# cluster: all {config.n} nodes joined")

    async def _await_rejoins(self) -> None:
        """After the final epoch: wait for the JOIN of every killed node's
        replacement (interpreter boot can outlast short runs) and greet it
        with the terminal epoch so it exits cleanly — otherwise SHUTDOWN
        would race its connect and orphan it."""
        if not self.spawn:
            return
        deadline = time.monotonic() + self.config.join_timeout
        while self.liveness.unrejoined():
            received = await self._control(deadline)
            if received is None:
                self._say(
                    f"# cluster: nodes {self.liveness.unrejoined()} never "
                    f"rejoined within {self.config.join_timeout}s"
                )
                return
            if received[1].mtype == JOIN:
                await self._greet(received[0], self.config.epochs)

    # -- process faults ------------------------------------------------------
    def _start_schedule(self) -> None:
        """Start the schedule's kills and pauses as timers on the barrier
        clock (called once, as the barrier releases epoch 0)."""
        for kill in self.schedule.kills:
            self._start_fault(self._inject_kill(kill.node, kill.at, kill.restart_delay))
        for pause in self.schedule.pauses:
            self._start_fault(self._inject_pause(pause.node, pause.at, pause.duration))

    def _start_fault(self, injector: Any, *, fired: bool = False) -> None:
        task = asyncio.create_task(injector)
        self._injectors.append(task)
        if fired:
            self._fired.add(task)

    async def _sleep_until(self, at: float) -> None:
        """Sleep to ``at`` seconds on the barrier clock, then mark the calling
        injector as fired (see :meth:`_settle_faults`)."""
        delay = self._zero + at - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        self._fired.add(asyncio.current_task())

    async def _settle_faults(self, *, abandon: bool = False) -> None:
        """End of run: an injector that has fired is awaited through its
        respawn or resume (its node must be back before SHUTDOWN); one still
        sleeping toward its ``at`` is cancelled.  ``abandon`` (teardown)
        cancels both."""
        for task in self._injectors:
            if abandon or task not in self._fired:
                task.cancel()
        outcomes = await asyncio.gather(*self._injectors, return_exceptions=True)
        self._injectors.clear()
        for outcome in outcomes:
            if isinstance(outcome, Exception):  # not a cancellation: a failed spawn
                self._say(f"# cluster: fault injector failed: {outcome!r}")

    def _note_fault(self, kind: str, node: int) -> None:
        self.fault_events.append({"kind": kind, "node": node, "epoch": self._epoch})

    async def _inject_kill(self, node: int, at: float, restart_delay: float) -> None:
        """SIGKILL ``node`` at ``at``; respawn it ``restart_delay`` later."""
        await self._sleep_until(at)
        process = self.processes.get(node)
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGKILL)
            process.wait()
        self._down.add(node)
        self._joined.discard(node)  # its next JOIN is a new incarnation
        self.liveness.on_kill(node)
        self._note_fault("kill", node)
        self._say(f"# cluster: SIGKILLed node {node} (epoch {self._epoch})")
        await asyncio.sleep(restart_delay)
        if self.spawn:
            self.processes[node] = self._spawn_node(node)
            self.restarts.append({"node": node, "epoch": self._epoch})
            self._say(f"# cluster: respawned node {node}")
        self._down.discard(node)

    async def _inject_pause(self, node: int, at: float, duration: float) -> None:
        """SIGSTOP ``node`` at ``at``; SIGCONT it ``duration`` later."""
        await self._sleep_until(at)
        process = self.processes.get(node)
        if process is None or process.poll() is not None:
            self._note_fault("pause-noop", node)
            return
        process.send_signal(signal.SIGSTOP)
        self._paused[node] = process
        # A stopped node misses its epoch like a crashed one; counting it
        # in _down keeps the grace drain from waiting on it.
        self._down.add(node)
        self._note_fault("pause", node)
        self._say(f"# cluster: SIGSTOPped node {node} (epoch {self._epoch})")
        await asyncio.sleep(duration)
        if self._paused.pop(node, None) is process and process.poll() is None:
            process.send_signal(signal.SIGCONT)
            self._note_fault("resume", node)
            self._say(f"# cluster: SIGCONTed node {node}")
        self._down.discard(node)

    def _resume_paused(self) -> None:
        """Teardown backstop: a SIGSTOPped child ignores SIGTERM *and*
        keeps its sockets bound — resume it so the normal teardown works."""
        for process in self._paused.values():
            if process.poll() is None:
                process.send_signal(signal.SIGCONT)
        self._paused.clear()

    # -- one epoch -----------------------------------------------------------
    async def _run_epoch(self, epoch: int) -> Dict[str, Any]:
        """Collect one epoch's certificates, validate, COMMIT, publish — or
        skip the epoch and release the nodes.  Returns the epoch's
        deterministic verdict entry; a monitor breach raises
        :class:`~repro.errors.InvariantViolation`."""
        config = self.config
        self.liveness.begin_epoch(epoch, time.monotonic())
        self.monitor.begin_epoch(epoch, self.feed.inputs(epoch))
        self._transport.advance_epoch(epoch)
        mark = len(self.chain.entries)
        cert_senders: List[int] = []
        consumed: Optional[DoraCertificate] = None
        deadline = time.monotonic() + config.epoch_timeout
        # Until a certificate is consumed the deadline is the epoch budget;
        # from then on it is the grace drain, which ends early once every
        # node expected alive has reported.
        while consumed is None or not (
            set(range(config.n)) - self._down <= set(cert_senders)
        ):
            received = await self._control(deadline)
            if received is None:
                if consumed is not None:
                    break
                # The reason is deterministic; who did send a certificate is
                # not, so it goes to the progress line only.
                reason = f"no valid certificate within {config.epoch_timeout}s"
                self.liveness.on_skipped(epoch, reason)
                await self._broadcast(EPOCH, epoch + 1, epoch + 1)
                self._say(
                    f"  epoch {epoch}: SKIPPED ({reason}; certificates from "
                    f"{sorted(cert_senders)})"
                )
                return {"epoch": epoch, "outcome": "skipped", "reason": reason}
            sender, message = received
            if message.mtype == JOIN:
                # A (re)joining node: greet it with the current epoch so it
                # fast-forwards its feed and state to the live cluster.
                await self._greet(sender, epoch)
                continue
            if message.mtype != CERT:
                continue
            self._joined.discard(sender)  # greeted: a later JOIN is news
            payload = message.payload
            if not (
                isinstance(payload, (list, tuple))
                and len(payload) == 3
                and type(payload[0]) is int
                and (payload[1] is None or isinstance(payload[1], (int, float)))
            ):
                self.malformed_certs += 1
                continue
            cert_epoch, rounded, certificate = payload
            if cert_epoch != epoch:
                continue  # stale certificate from a committed epoch
            self.chain.submit(sender, certificate)
            if sender not in cert_senders:
                cert_senders.append(sender)
            if rounded is not None:
                self.monitor.on_decide(sender, float(rounded), time.monotonic())
            if consumed is None:
                entry = self.chain.first_valid(since=mark)
                if entry is not None:
                    consumed = entry.payload
                    deadline = min(deadline, time.monotonic() + config.epoch_grace)
        self.monitor.check_certificate(epoch, consumed)
        if config.epoch_interval > 0 and epoch + 1 < config.epochs:
            # Pace the run by *withholding the COMMIT*: every node sits
            # waiting for it in this epoch, so nothing but JOINs (greeted with
            # this epoch — they adopt via the imminent COMMIT) can arrive that
            # matters; a late duplicate CERT changes nothing.  A respawned
            # interpreter gets this long to boot and rejoin mid-run.
            pace = time.monotonic() + config.epoch_interval
            while (received := await self._control(pace)) is not None:
                if received[1].mtype == JOIN:
                    await self._greet(received[0], epoch)
        await self._broadcast(COMMIT, epoch, [epoch, consumed.value, consumed.aggregate])
        self.liveness.on_certified(epoch, time.monotonic())
        self._say(
            f"  epoch {epoch}: value={consumed.value:.6g} "
            f"signers={consumed.signer_count} certs_from={sorted(cert_senders)}"
        )
        self.details.append(
            {
                "epoch": epoch,
                "value": float(consumed.value),
                "signers": consumed.signer_count,
                "cert_senders": sorted(cert_senders),
            }
        )
        if self.gateway is not None:
            inputs = self.feed.inputs(epoch)
            self.gateway.publish(
                EpochReport(
                    epoch=epoch,
                    value=float(consumed.value),
                    certificate=consumed,
                    honest_outputs={},
                    input_range=max(inputs) - min(inputs),
                    wall_seconds=0.0,
                    events_processed=0,
                    runtime_seconds=0.0,
                    megabytes=0.0,
                    offline_nodes=(),
                    stale_messages=0,
                )
            )
        return {"epoch": epoch, "outcome": "certified"}

    # -- teardown --------------------------------------------------------
    @staticmethod
    def _collect_exits(
        pending: Dict[int, subprocess.Popen],
        exit_codes: Dict[int, Optional[int]],
    ) -> None:
        """Move every already-exited child from ``pending`` to ``exit_codes``."""
        for node_id, process in list(pending.items()):
            code = process.poll()
            if code is not None:
                exit_codes[node_id] = code
                del pending[node_id]

    async def _reap_children(
        self, timeout: float = 10.0, term_grace: float = 2.0
    ) -> Dict[int, Optional[int]]:
        """Wait for clean child exits after the final COMMIT + SHUTDOWN.

        Polls with ``asyncio.sleep`` rather than the blocking
        ``Popen.wait`` — the event loop must stay live here, because the
        sender tasks are still flushing those very COMMIT/SHUTDOWN frames
        the children are waiting for.  Stragglers are escalated SIGTERM →
        SIGKILL *collectively*: every straggler gets its SIGTERM at once and
        shares one ``term_grace`` window, then every survivor gets SIGKILL —
        so a cluster of k wedged children (a SIGSTOPped node, a child
        ignoring SIGTERM) costs ``term_grace`` once, not ``k`` serial waits.
        """
        exit_codes: Dict[int, Optional[int]] = {}
        deadline = time.monotonic() + timeout
        pending = dict(self.processes)
        while pending and time.monotonic() < deadline:
            self._collect_exits(pending, exit_codes)
            if pending:
                await asyncio.sleep(0.05)
        self._collect_exits(pending, exit_codes)
        if pending:
            for process in pending.values():
                process.terminate()
            grace_deadline = time.monotonic() + term_grace
            while pending and time.monotonic() < grace_deadline:
                self._collect_exits(pending, exit_codes)
                if pending:
                    await asyncio.sleep(0.05)
            for node_id, process in pending.items():
                # SIGKILL cannot be ignored (and also fells a SIGSTOPped
                # child SIGTERM never reached), so this wait is immediate.
                process.kill()
                exit_codes[node_id] = process.wait()
        return exit_codes

    def _kill_children(self) -> None:
        """Last-resort teardown: no child may outlive the supervisor."""
        for process in self.processes.values():
            if process.poll() is None:
                process.kill()
                process.wait()

    def _sweep_sockets(self) -> int:
        """Remove Unix socket files a SIGKILLed child had no chance to
        unlink (the kernel does not clean bound paths up on process death).
        Tolerates paths — or the whole runtime directory — already being
        gone; returns how many socket files were actually removed."""
        removed = 0
        for address in self.config.addresses.values():
            if address and address[0] == "unix":
                try:
                    os.unlink(address[1])
                    removed += 1
                except FileNotFoundError:
                    pass  # never created, or the directory was swept whole
                except OSError:
                    pass
        return removed
