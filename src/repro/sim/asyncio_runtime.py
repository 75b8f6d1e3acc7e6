"""Asyncio-based runtime: the repo's real-concurrency engine.

The two deterministic engines in :mod:`repro.sim.runtime` /
:mod:`repro.sim.fastpath` are what the tests and benchmarks use, but the
same protocol nodes can also be executed on real concurrency: each node
becomes an asyncio task with an inbox, and messages travel through a
pluggable transport (in-memory queues or real sockets).  The transport is
the engine's only delivery plane: latency, partition, delay and loss all
enter by wrapping it in a :class:`~repro.net.chaos.ChaosTransport`.  This
mirrors the paper's tokio-based Rust implementation and is the engine the
epoch-pipelined oracle service (:mod:`repro.oracle.service`) serves on.

Contract differences vs the deterministic engines:

* **No determinism.**  Delivery order depends on event-loop scheduling; the
  run is still *correct* (the protocols are asynchronous by design) but two
  runs may produce different (epsilon-close) outputs.  The oracle service's
  parity harness replays each epoch through the fast engine to cross-check.
* **Wall-clock time.**  Observer hooks, decision times and the result's
  ``runtime_seconds`` report seconds since the run started (the asyncio
  loop clock), not simulated time.
* **Fail fast.**  An exception escaping a node (or an
  :class:`~repro.errors.InvariantViolation` raised by an observer) aborts
  the whole run instead of hanging; a wall-clock timeout raises
  :class:`~repro.errors.LivenessTimeout` carrying the partial outputs.

Liveness/leak guarantees (regression-tested in ``tests/test_sim_asyncio.py``):

* every node task is cancelled and drained, and the transport closed, on
  shutdown — with a delaying transport too, ``run()`` returns with **zero**
  pending tasks on the loop;
* nodes that decide during ``on_start()`` (before their node loop processes
  a single message) are counted, so trivially-deciding runs terminate
  immediately instead of sleeping until the timeout.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adversary.base import AdversaryStrategy
from repro.errors import (
    LivenessTimeout,
    ReproError,
    SimulationError,
    TransportClosedError,
)
from repro.net.inbox import Inbox
from repro.net.message import HMAC_TAG_BITS, Message, MessageTrace
from repro.protocols.base import BROADCAST, ProtocolNode
from repro.sim.events import DELIVER_EVENT, START_EVENT
from repro.sim.observers import SimObserver, event_observers
from repro.sim.runtime import SimulationResult


class InMemoryTransport:
    """The default transport: one FIFO :class:`~repro.net.inbox.Inbox` per node.

    The transport seam is deliberately tiny, so the socket transport
    (:class:`~repro.net.socket_transport.SocketTransport` — each node a real
    process, as in the paper's tokio deployment) slots in without touching
    the runtime.  The contract every transport implements:

    * ``open(node_ids)`` — async; (re)create the endpoints this transport
      hosts;
    * ``put(target, (sender, message))`` — async, never blocks on the
      network.  **After ``close``, ``put`` silently drops the pair and
      counts it in ``dropped_after_close``** (best-effort semantics: late
      sends racing teardown — or aimed at a crashed peer — are exactly the
      crash fault model and must not raise);
    * ``get(node_id)`` — async; next ``(sender, message)`` pair.  After
      ``close`` it raises :class:`~repro.errors.TransportClosedError`
      (the runtime cancels node loops *before* closing, so only external
      callers — e.g. the cluster node loop — ever observe it);
    * ``close()`` — async; idempotent; releases every resource.

    In-memory queues deliver at once; delays come from wrapping the
    transport in a :class:`~repro.net.chaos.ChaosTransport`.  A socket
    transport has real ones.
    """

    def __init__(self) -> None:
        self._inboxes: Dict[int, Inbox] = {}
        self._closed = True
        #: ``put`` calls dropped because the transport was already closed.
        self.dropped_after_close = 0

    async def open(self, node_ids: Sequence[int]) -> None:
        """(Re)create one empty inbox per node; called at run start."""
        self._inboxes = {node_id: Inbox() for node_id in node_ids}
        self._closed = False

    async def put(self, target: int, item: Tuple[int, Message]) -> None:
        """Enqueue one ``(sender, message)`` pair for ``target``.

        Silently drops (and counts) the pair when the transport is closed —
        see the class docstring for why this is the seam's contract.
        """
        if self._closed:
            self.dropped_after_close += 1
            return
        self._inboxes[target].put(item)

    async def get(self, node_id: int) -> Tuple[int, Message]:
        """Dequeue the next ``(sender, message)`` pair for ``node_id``."""
        if self._closed:
            raise TransportClosedError(f"transport closed (get for node {node_id})")
        return await self._inboxes[node_id].get()

    def pending(self) -> int:
        """Messages enqueued but not yet consumed (drained on close)."""
        return sum(queue.qsize() for queue in self._inboxes.values())

    async def close(self) -> None:
        """Drop all inboxes and what they hold; a parked ``get`` fails."""
        for inbox in self._inboxes.values():
            inbox.close()
        self._inboxes = {}
        self._closed = True


class AsyncioRuntime:
    """Runs protocol nodes as concurrent asyncio tasks.

    Parameters
    ----------
    nodes:
        Mapping of node id to protocol node (ids need not be contiguous).
    timeout:
        Wall-clock timeout for the whole run, in seconds.  Hitting it raises
        :class:`~repro.errors.LivenessTimeout` with the partial outputs.
    byzantine:
        Optional mapping of node id to
        :class:`~repro.adversary.base.AdversaryStrategy` — the same
        corruption seam the deterministic engines use, so fault plans run on
        real concurrency too.
    observers:
        :class:`~repro.sim.observers.SimObserver` instances; ``on_event`` /
        ``on_decide`` / ``on_run_end`` fire at the same semantic points as in
        the deterministic engines, with wall-clock (run-relative) times.
        The PR-3 invariant monitors work unchanged; a monitor raising
        :class:`~repro.errors.InvariantViolation` aborts the run.
    transport:
        Transport seam; defaults to :class:`InMemoryTransport`.  Any object
        implementing the four-method contract documented there works, which
        is how :class:`~repro.net.socket_transport.SocketTransport` plugs in.
        It is also the only delivery plane of this engine: latency,
        partition, delay and loss windows enter by wrapping the transport
        in a :class:`~repro.net.chaos.ChaosTransport`.
    """

    def __init__(
        self,
        nodes: Dict[int, ProtocolNode],
        timeout: float = 60.0,
        byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
        observers: Optional[Sequence[SimObserver]] = None,
        transport: Optional[Any] = None,
    ) -> None:
        if not nodes:
            raise SimulationError("at least one node is required")
        if timeout <= 0:
            raise SimulationError(f"timeout must be positive, got {timeout}")
        self.nodes = nodes
        self._everyone = tuple(nodes)
        self.timeout = timeout
        self.byzantine: Dict[int, AdversaryStrategy] = dict(byzantine or {})
        for node_id, strategy in self.byzantine.items():
            if node_id not in self.nodes:
                raise SimulationError(f"cannot corrupt unknown node {node_id}")
            strategy.attach(self.nodes[node_id])
        self.observers: tuple = tuple(observers or ())
        self._event_observers = event_observers(self.observers)
        self.transport = transport if transport is not None else InMemoryTransport()
        self.trace = MessageTrace()
        self._timed: Dict[int, AdversaryStrategy] = {
            node_id: strategy
            for node_id, strategy in self.byzantine.items()
            if getattr(strategy, "wants_time", False)
        }
        # Run state (created fresh inside _run).
        self._decided_nodes: set = set()
        self._decision_times: Dict[int, float] = {}
        self._events_processed = 0
        self._all_decided: Optional[asyncio.Event] = None
        self._failure: Optional[asyncio.Future] = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    @property
    def honest_nodes(self) -> List[int]:
        """Identifiers of nodes not under adversarial control."""
        return sorted(node_id for node_id in self.nodes if node_id not in self.byzantine)

    def _handler(self, node_id: int):
        return self.byzantine.get(node_id, self.nodes[node_id])

    def _now(self) -> float:
        return asyncio.get_running_loop().time() - self._started_at

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the protocol on a fresh event loop and block until every
        honest node decides (or the timeout / a failure aborts the run)."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> SimulationResult:
        """Coroutine form of :meth:`run`, for callers that already own an
        event loop (tests that audit ``asyncio.all_tasks`` after the run,
        or embedders driving several runtimes on one loop).

        Guarantees that *no* task spawned by this run is left pending when
        it returns, on every exit path (success, failure, timeout).
        """
        loop = asyncio.get_running_loop()
        self._started_at = loop.time()
        self._all_decided = asyncio.Event()
        self._failure = loop.create_future()
        self._decided_nodes = set()
        self._decision_times = {}
        self._events_processed = 0
        await self.transport.open(list(self.nodes))

        node_tasks = [
            asyncio.create_task(self._node_loop(node_id)) for node_id in self.nodes
        ]
        waiter = asyncio.create_task(self._all_decided.wait())
        try:
            # Kick off every node.  A node may decide right here, inside
            # on_start(), before its node loop ever runs — count it, or a
            # trivially-deciding run would sleep until the timeout.
            if not self.honest_nodes:
                self._all_decided.set()
            for node_id, node in self.nodes.items():
                handler = self._handler(node_id)
                if node_id in self._timed:
                    handler.now = self._now()
                outbound = handler.on_start()
                self._events_processed += 1
                self._observe_event(START_EVENT, node_id, -1, None)
                self._note_decision(node_id)
                if outbound:
                    await self._dispatch(node_id, outbound)

            done, _pending = await asyncio.wait(
                [waiter, self._failure],
                timeout=self.timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if self._failure.done():
                self._raise_failure()
            if waiter not in done:
                raise LivenessTimeout(
                    f"run did not complete within {self.timeout}s wall-clock "
                    f"({len(self._decided_nodes)}/{len(self.honest_nodes)} "
                    "honest nodes decided)",
                    outputs=self._partial_outputs(),
                    pending_nodes=[
                        node_id
                        for node_id in self.honest_nodes
                        if node_id not in self._decided_nodes
                    ],
                )
        finally:
            await self._shutdown(node_tasks, waiter)

        result = SimulationResult(
            outputs=self._partial_outputs(),
            decision_times=dict(self._decision_times),
            runtime_seconds=self._now(),
            events_processed=self._events_processed,
            trace=self.trace,
            honest_nodes=self.honest_nodes,
            byzantine_nodes=sorted(self.byzantine),
        )
        for observer in self.observers:
            observer.on_run_end(result)
        return result

    async def _shutdown(self, node_tasks: List[asyncio.Task], waiter: asyncio.Task) -> None:
        """Cancel and drain every task this run spawned, then close the
        transport (which drains the deliveries it still holds)."""
        for task in [*node_tasks, waiter]:
            task.cancel()
        await asyncio.gather(*node_tasks, waiter, return_exceptions=True)
        if self._failure is not None and not self._failure.done():
            self._failure.cancel()
        await self.transport.close()

    def _raise_failure(self) -> None:
        error = self._failure.exception() if self._failure.done() else None
        if error is None:  # pragma: no cover - defensive
            raise SimulationError("asyncio run failed without an exception")
        if isinstance(error, ReproError):
            raise error
        if not isinstance(error, Exception):
            # KeyboardInterrupt / SystemExit keep their own semantics (the
            # run still aborted promptly and was drained by _shutdown).
            raise error
        raise SimulationError(f"node task failed: {error!r}") from error

    def _partial_outputs(self) -> Dict[int, Any]:
        return {
            node_id: self.nodes[node_id].output
            for node_id in self.honest_nodes
            if self.nodes[node_id].has_output
        }

    # ------------------------------------------------------------------
    def _note_decision(self, node_id: int) -> None:
        """Idempotently record an honest node's first decision."""
        if node_id in self.byzantine or node_id in self._decided_nodes:
            return
        node = self.nodes[node_id]
        if not node.has_output:
            return
        self._decided_nodes.add(node_id)
        now = self._now()
        self._decision_times[node_id] = now
        for observer in self.observers:
            observer.on_decide(node_id, node.output, now)
        if len(self._decided_nodes) == len(self.honest_nodes):
            assert self._all_decided is not None
            self._all_decided.set()

    def _observe_event(
        self, kind: int, node_id: int, sender: int, message: Optional[Message]
    ) -> None:
        if self._event_observers:
            now = self._now()
            for observer in self._event_observers:
                observer.on_event(now, kind, node_id, sender, message)

    def _fail(self, error: BaseException) -> None:
        if self._failure is not None and not self._failure.done():
            self._failure.set_exception(error)

    # ------------------------------------------------------------------
    async def _node_loop(self, node_id: int) -> None:
        handler = self._handler(node_id)
        timed = node_id in self._timed
        get, decided = self.transport.get, self._decided_nodes
        try:
            while True:
                sender, message = await get(node_id)
                if timed:
                    handler.now = self._now()
                outbound = handler.on_message(sender, message)
                self._events_processed += 1
                self._observe_event(DELIVER_EVENT, node_id, sender, message)
                if node_id not in decided:  # looked for until there is one
                    self._note_decision(node_id)
                if outbound:  # most deliveries emit nothing
                    await self._dispatch(node_id, outbound)
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 - abort the whole run
            self._fail(error)

    async def _dispatch(self, sender: int, outbound: List[Tuple[int, Message]]) -> None:
        put, everyone = self.transport.put, self._everyone
        for destination, message in outbound:
            targets = everyone if destination == BROADCAST else (destination,)
            # Every remote copy is one authenticated envelope on the trace,
            # accounted in one update; the self-copy is local and is not.
            copies = len(targets) - (sender in targets)
            if copies:
                bits = copies * (message.size_bits() + HMAC_TAG_BITS)
                self.trace.merge_counts(copies, bits, {sender: bits})
            for target in targets:
                await put(target, (sender, message))
