"""Tier-1 vehicle for the cluster run loop: a whole cluster on one event loop.

The multi-process tests (``-m slow``) are the only ones that deliver real
signals, but everything else about a run — barrier, epochs, COMMIT, skip,
kill bookkeeping, rejoin, SHUTDOWN, teardown — needs no second process:
``ClusterSupervisor._run_async()`` runs beside ``run_node`` coroutines over
real Unix sockets in ``tmp_path``, with or without a chaos schedule.  Two shapes are used:

* **no-spawn** — the ``--no-spawn`` deployment itself: the supervisor spawns
  nothing, the nodes are tasks "started elsewhere";
* **task children** — ``_spawn_node`` is replaced so that each child is a
  :class:`TaskChild`, a ``Popen``-shaped handle on a ``run_node`` task whose
  SIGKILL cancels it.  The supervisor's own spawn / kill / respawn / rejoin
  / reap path then runs unchanged, crash recovery included.

Each liveness bug the merged loop fixed has its reproduction here; the
module docstrings of the tests say what the parent did.
"""

import asyncio
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import LivenessTimeout
from repro.net.message import Message
from repro.oracle.chaos import (
    ChaosSchedule,
    KillSpec,
    PauseSpec,
    deterministic_view,
)
from repro.oracle import cluster
from repro.oracle.cluster import (
    CERT,
    CLUSTER_PROTOCOL,
    EPOCH,
    JOIN,
    SHUTDOWN,
    ClusterSupervisor,
    CrashPlan,
    build_cluster_config,
    run_node,
)

N = 4
#: No test below should come near this; it turns a hang into a failure.
HANG = 20.0


def _config(runtime_dir, **overrides):
    settings = dict(
        epochs=3,
        seed=7,
        runtime_dir=runtime_dir,
        secret_seed=b"in-process",
        epoch_timeout=5.0,
    )
    settings.update(overrides)
    return build_cluster_config("sensors", N, **settings)


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HANG))


async def _no_spawn_run(supervisor, others=()):
    """The supervisor beside one ``run_node`` task per node id not taken by
    ``others`` (extra coroutines playing the remaining endpoints)."""
    config = supervisor.config
    taken = {node_id for node_id, _ in others}
    nodes = {
        node_id: asyncio.create_task(run_node(config, node_id))
        for node_id in range(config.n)
        if node_id not in taken
    }
    extras = [asyncio.create_task(coroutine) for _, coroutine in others]
    result = await supervisor._run_async()
    outcomes = await asyncio.gather(*nodes.values(), return_exceptions=True)
    await asyncio.gather(*extras)
    return result, dict(zip(nodes, outcomes))


class TaskChild:
    """``Popen``-shaped handle on an in-process ``run_node`` task.

    SIGKILL cancels the task, whose ``finally`` closes its transport — the
    listener goes away and every connection dies, which is what the kernel
    does to a killed process's sockets.
    """

    def __init__(self, config, node_id):
        self.task = asyncio.create_task(run_node(config, node_id))
        self.killed = False

    def poll(self):
        if self.killed:
            return -signal.SIGKILL
        if not self.task.done():
            return None
        return 0 if self.task.exception() is None else 1

    def send_signal(self, signum):
        assert signum == signal.SIGKILL, "only a kill can be played by a task"
        self.killed = True
        self.task.cancel()

    def kill(self):
        self.send_signal(signal.SIGKILL)

    terminate = kill

    def wait(self):
        return self.poll()


def _with_task_children(supervisor):
    """Make ``supervisor`` spawn :class:`TaskChild` instead of processes;
    returns the list every incarnation is appended to."""
    incarnations = []

    def spawn(node_id):
        supervisor._spawned_at[node_id] = time.monotonic()  # as _spawn_node does
        child = TaskChild(supervisor.config, node_id)
        incarnations.append((node_id, child))
        return child

    supervisor._spawn_node = spawn
    return incarnations


def _final_commits(supervisor):
    """``node -> committed map`` of every node's final incarnation."""
    return {node: child.task.result() for node, child in supervisor.processes.items()}


# ----------------------------------------------------------------------
# B1 / B2: shutdown and starvation
# ----------------------------------------------------------------------
class TestNoSpawnRun:
    def test_every_node_hears_the_final_commit_and_shutdown(self, tmp_path):
        """B1.  ``put`` only queues; the parent had no children to reap, so
        it closed its transport (cancelling the sender tasks) with the last
        COMMIT and SHUTDOWN still queued, and all four nodes died at
        ``epoch_timeout`` one epoch short."""
        supervisor = ClusterSupervisor(_config(tmp_path), spawn=False)
        started = time.monotonic()
        verdict, outcomes = _run(_no_spawn_run(supervisor))
        assert time.monotonic() - started < 2.0
        report = verdict["observed"]
        values = {entry["epoch"]: entry["value"] for entry in report["epoch_details"]}
        assert sorted(values) == [0, 1, 2]
        assert outcomes == {node: values for node in range(N)}
        assert report["exit_codes"] == {} and report["boots"] == []
        assert report["malformed_certs"] == 0
        assert report["transport"]["dropped_unreachable"] == 0
        assert not list(tmp_path.glob("*.sock")), "leaked unix sockets"

    def test_a_node_nobody_greets_times_out_typed(self, tmp_path):
        """B2, JOIN wait.  The parent let ``asyncio.wait_for`` raise a bare
        ``TimeoutError`` past the ``LivenessTimeout`` written for this."""
        config = _config(tmp_path)
        config.join_timeout = 0.3
        with pytest.raises(LivenessTimeout, match="no EPOCH greeting"):
            _run(run_node(config, 0))

    @pytest.mark.parametrize("resyncs", [0, 2])
    def test_a_node_starved_mid_epoch_resyncs_then_times_out_typed(
        self, tmp_path, resyncs
    ):
        """B2, epoch wait.  Greeted, then silence: the node re-JOINs
        ``epoch_resyncs`` times (the branch written for exactly this stall,
        which the parent's uncaught ``TimeoutError`` bypassed) and then dies
        with ``LivenessTimeout`` naming the epoch."""
        config = _config(tmp_path, epoch_timeout=0.2)
        config.epoch_resyncs = resyncs
        heard = []

        async def scenario():
            supervisor = config.make_transport(config.supervisor_id)
            await supervisor.open([config.supervisor_id])
            node = asyncio.create_task(run_node(config, 0))
            try:
                sender, message = await supervisor.get(config.supervisor_id)
                heard.append((sender, message.mtype, message.payload))
                greeting = Message(CLUSTER_PROTOCOL, EPOCH, 0, 0)
                await supervisor.put(0, (config.supervisor_id, greeting))
                return await asyncio.gather(node, return_exceptions=True)
            finally:
                while supervisor.pending():
                    sender, message = await supervisor.get(config.supervisor_id)
                    heard.append((sender, message.mtype, message.payload))
                await supervisor.close()

        (outcome,) = _run(scenario())
        assert isinstance(outcome, LivenessTimeout), repr(outcome)
        assert f"epoch 0 saw no COMMIT within 0.2s (after {resyncs} resyncs)" in str(
            outcome
        )
        assert heard == [(0, JOIN, 0)] * (1 + resyncs)


    def test_a_message_for_a_later_epoch_waits_for_that_epoch(
        self, tmp_path, monkeypatch
    ):
        """``run_node`` routes protocol traffic by its ``epoch:<k>/`` tag, read
        by ``EpochNode``: a later epoch's message is held until the node
        enters that epoch (whether it came before the greeting or during an
        earlier epoch), an untagged one goes to the current epoch's node,
        and a malformed tag is dropped before the greeting."""
        config = _config(tmp_path)
        delivered = []

        class RecordingEpochNode(cluster.EpochNode):
            def on_message(self, sender, message):
                if message.mtype == "PING":  # not the node's own broadcasts
                    delivered.append((self.epoch, message.protocol))
                return super().on_message(sender, message)

        monkeypatch.setattr(cluster, "EpochNode", RecordingEpochNode)

        def control(mtype, epoch=None):
            return Message(CLUSTER_PROTOCOL, mtype, epoch, epoch)

        script = [
            Message("epoch:1/dora", "PING", None, None),  # before the greeting
            Message("epoch:x/dora", "PING", None, None),
            control(EPOCH, 0),
            Message("epoch:2/dora", "PING", None, None),  # during epoch 0
            Message("dora", "PING", None, None),
            control(EPOCH, 1),
            control(EPOCH, 2),
            control(SHUTDOWN),
        ]

        async def scenario():
            supervisor = config.make_transport(config.supervisor_id)
            await supervisor.open([config.supervisor_id])
            node = asyncio.create_task(run_node(config, 0))
            try:
                _sender, join = await supervisor.get(config.supervisor_id)
                assert join.mtype == JOIN
                for message in script:  # one channel: delivered in this order
                    await supervisor.put(0, (config.supervisor_id, message))
                return await node
            finally:
                await supervisor.close()

        assert _run(scenario()) == {}
        assert delivered == [(0, "dora"), (1, "epoch:1/dora"), (2, "epoch:2/dora")]


# ----------------------------------------------------------------------
# B3: a malformed CERT
# ----------------------------------------------------------------------
MALFORMED_CERTS = [
    None,
    [0, 25.0],
    [0, 25.0, None, None],
    ["0", 25.0, None],
    [0, "25.0", None],
    {"epoch": 0},
]


class TestMalformedCert:
    def test_a_malformed_cert_costs_a_counter_and_nothing_else(self, tmp_path):
        """B3.  The parent unpacked ``message.payload`` unchecked: one
        ``CERT`` carrying ``None`` from an authenticated endpoint ended the
        run with ``TypeError`` — no report, no verdict."""
        config = _config(tmp_path)
        config.epoch_grace = 0.1  # the rogue never certifies; don't wait long
        rogue_id = N - 1

        async def rogue():
            transport = config.make_transport(rogue_id)
            await transport.open([rogue_id])

            async def tell(mtype, payload):
                message = Message(CLUSTER_PROTOCOL, mtype, 0, payload)
                await transport.put(config.supervisor_id, (rogue_id, message))

            try:
                await tell(JOIN, 0)
                for payload in MALFORMED_CERTS:
                    await tell(CERT, payload)
                # Well-formed but worthless: the chain's validator, not the
                # shape check, is what refuses a non-certificate.
                await tell(CERT, [0, None, "not a certificate"])
                while (await transport.get(rogue_id))[1].mtype != SHUTDOWN:
                    pass
            finally:
                await transport.close()

        supervisor = ClusterSupervisor(config, spawn=False)
        verdict, outcomes = _run(_no_spawn_run(supervisor, others=[(rogue_id, rogue())]))
        report = verdict["observed"]
        assert report["malformed_certs"] == len(MALFORMED_CERTS)
        assert [entry["outcome"] for entry in verdict["epochs"]] == ["certified"] * 3
        # n - t = 3 honest nodes carry every epoch.  The rogue's one
        # well-formed CERT is an (invalid) chain entry of epoch 0.
        senders = [entry["cert_senders"] for entry in report["epoch_details"]]
        assert senders == [[0, 1, 2, 3], [0, 1, 2], [0, 1, 2]]
        assert report["chain_entries"] == 3 * 3 + 1
        assert all(sorted(outcome) == [0, 1, 2] for outcome in outcomes.values())


# ----------------------------------------------------------------------
# One supervisor, one policy, one verdict
# ----------------------------------------------------------------------
def _chaos_run(runtime_dir, schedule=ChaosSchedule(seed=7), **overrides):
    supervisor = ClusterSupervisor(
        _config(runtime_dir, **overrides), schedule=schedule, spawn=False
    )
    verdict, outcomes = _run(_no_spawn_run(supervisor))
    return supervisor, verdict, outcomes


def _listener(config, node_id, heard):
    """An endpoint that JOINs and then only listens (never certifies),
    recording every control message until SHUTDOWN."""

    async def listen():
        transport = config.make_transport(node_id)
        await transport.open([node_id])
        try:
            join = Message(CLUSTER_PROTOCOL, JOIN, 0, 0)
            await transport.put(config.supervisor_id, (node_id, join))
            while not heard[node_id] or heard[node_id][-1][0] != SHUTDOWN:
                _sender, message = await transport.get(node_id)
                heard[node_id].append((message.mtype, message.payload))
        finally:
            await transport.close()

    return listen()


#: What each listener hears in a 2-epoch run that never certifies.
RELEASED_TWICE = [
    (EPOCH, 0),  # the barrier
    (EPOCH, 1),  # released from skipped epoch 0
    (EPOCH, 2),  # ... and from skipped epoch 1
    (SHUTDOWN, None),
]


class TestChaosControllerRun:
    """The supervisor with a schedule (the ``repro chaos`` shape) and
    without one (``repro cluster``): the same policy and the same verdict."""

    def test_empty_schedule_certifies_every_epoch_deterministically(self, tmp_path):
        views = []
        for run_dir in ("first", "second"):
            _controller, verdict, outcomes = _chaos_run(tmp_path / run_dir)
            assert verdict["ok"] and verdict["violations"] == []
            assert verdict["epochs"] == [
                {"epoch": epoch, "outcome": "certified"} for epoch in range(3)
            ]
            observed = verdict["observed"]
            assert [d["epoch"] for d in observed["epoch_details"]] == [0, 1, 2]
            assert observed["fault_events"] == [] and observed["malformed_certs"] == 0
            assert observed["liveness"]["unaccounted"] == []
            assert all(sorted(outcome) == [0, 1, 2] for outcome in outcomes.values())
            views.append(json.dumps(deterministic_view(verdict), sort_keys=True))
        assert views[0] == views[1]

    def test_every_run_returns_the_one_verdict_shape(self, tmp_path):
        """A plain run and a scheduled one return the same keys: a
        deterministic section and the supervisor's accounting under
        ``observed`` — there is no second report shape."""
        plain = ClusterSupervisor(_config(tmp_path / "plain"), spawn=False)
        report, _ = _run(_no_spawn_run(plain))
        _supervisor, verdict, _ = _chaos_run(tmp_path / "chaos")
        for result in (report, verdict):
            assert set(result) == {
                "kind", "seed", "n", "t", "workload", "epochs_planned", "schedule",
                "epochs", "violations", "ok", "observed",
            }  # fmt: skip
            assert set(result["observed"]) == {
                "wall_seconds", "epoch_details", "fault_events", "restarts",
                "rejoins", "boots", "exit_codes", "malformed_certs",
                "chain_entries", "chain_validations", "distinct_valid_payloads",
                "transport", "liveness", "margins",
            }  # fmt: skip
        assert report["schedule"] == ChaosSchedule(seed=7).to_dict()
        assert report["observed"]["distinct_valid_payloads"] == 3

    def test_an_epoch_nobody_certifies_is_skipped_and_the_nodes_released(
        self, tmp_path
    ):
        """Four endpoints that JOIN and then only listen: every epoch runs
        out its budget, is skipped *and accounted*, and each node is
        released with ``EPOCH(k+1)`` instead of the run aborting."""
        config = _config(tmp_path, epochs=2, epoch_timeout=0.2)
        heard = {node_id: [] for node_id in range(N)}
        controller = ClusterSupervisor(
            config, schedule=ChaosSchedule(seed=3), spawn=False
        )
        listeners = [(i, _listener(config, i, heard)) for i in range(N)]
        verdict, _ = _run(_no_spawn_run(controller, others=listeners))
        reason = "no valid certificate within 0.2s"
        assert verdict["epochs"] == [
            {"epoch": epoch, "outcome": "skipped", "reason": reason}
            for epoch in range(2)
        ]
        assert verdict["ok"]  # skipped is accounted; nothing is unaccounted
        assert verdict["observed"]["liveness"]["skipped"] == {"0": reason, "1": reason}
        assert verdict["observed"]["epoch_details"] == []
        assert controller._health_source()[0] == "degraded"
        assert heard == {node_id: RELEASED_TWICE for node_id in range(N)}

    def test_a_plain_run_skips_a_stalled_epoch_and_releases_the_nodes(
        self, tmp_path
    ):
        """``repro cluster`` and the ``--no-spawn`` deployment: the parent's
        plain supervisor raised ``LivenessTimeout`` on the first stalled
        epoch and the nodes never heard ``SHUTDOWN``.  Now a plain run skips
        both epochs, releases the nodes and shuts them down."""
        config = _config(tmp_path, epochs=2, epoch_timeout=0.2)
        heard = {node_id: [] for node_id in range(N)}
        supervisor = ClusterSupervisor(config, spawn=False)
        listeners = [(i, _listener(config, i, heard)) for i in range(N)]
        verdict, _ = _run(_no_spawn_run(supervisor, others=listeners))
        assert [entry["outcome"] for entry in verdict["epochs"]] == ["skipped"] * 2
        assert verdict["ok"] and verdict["violations"] == []
        assert heard == {node_id: RELEASED_TWICE for node_id in range(N)}


    def test_run_fronts_a_gateway_from_start_to_close(self, tmp_path):
        """``run()`` starts the gateway, publishes every certified epoch to
        it, lets ``/healthz`` read the run, and closes it at the end."""
        from repro.oracle.gateway import build_gateway

        gateway = build_gateway("sensors", N, engine="fast", seed=7, port=0)
        supervisor = ClusterSupervisor(_config(tmp_path), gateway=gateway)
        _with_task_children(supervisor)
        verdict = supervisor.run()
        assert verdict["ok"]
        metrics = verdict["observed"]["gateway"]
        assert metrics["certs_published"] == 3 and metrics["health"] == "ok"
        assert [entry["epoch"] for entry in gateway.history()] == [0, 1, 2]
        assert gateway.health_source == supervisor._health_source
        assert gateway._server is None  # closed


# ----------------------------------------------------------------------
# One kill path, one clock
# ----------------------------------------------------------------------
class TestOneKillPath:
    def _crash_run(self, supervisor):
        incarnations = _with_task_children(supervisor)
        result = _run(supervisor._run_async())
        return result, incarnations

    def test_crash_plan_and_kill_spec_account_the_same_fault(self, tmp_path):
        """An epoch-anchored ``CrashPlan`` is resolved onto the barrier clock
        as its epoch opens, and from there *is* a ``KillSpec``: same
        injector, same bookkeeping, same rejoin wait."""
        plain = ClusterSupervisor(
            _config(tmp_path / "plan", epoch_interval=0.4),
            crash=CrashPlan(node=1, epoch=0, after=0.05, restart_delay=0.1),
        )
        chaos = ClusterSupervisor(
            _config(tmp_path / "spec", epoch_interval=0.4),
            schedule=ChaosSchedule(kills=(KillSpec(node=1, at=0.05, restart_delay=0.1),)),
        )
        for supervisor in (plain, chaos):
            # The peers' own channels to node 1 lose a write finding out it
            # died, which can cost the respawn its first full epoch.
            supervisor.config.epoch_grace = 0.2
        (plain_verdict, plain_children), (verdict, chaos_children) = (
            self._crash_run(plain),
            self._crash_run(chaos),
        )
        report = plain_verdict["observed"]
        assert plain.fault_events == chaos.fault_events == [
            {"kind": "kill", "node": 1, "epoch": 0}
        ]
        assert report["restarts"] == verdict["observed"]["restarts"] == [
            {"node": 1, "epoch": 0}
        ]
        assert report["rejoins"] == verdict["observed"]["rejoins"] == [
            {"node": 1, "epoch": 0}
        ]
        for supervisor, children in ((plain, plain_children), (chaos, chaos_children)):
            assert [node for node, _child in children] == [0, 1, 2, 3, 1]
            assert children[1][1].killed and not children[4][1].killed
            assert supervisor.liveness.kills == [1]
            assert supervisor.liveness.unrejoined() == []
            assert supervisor._down == set()
            commits = _final_commits(supervisor)
            # The respawn adopted the epoch it rejoined in via COMMIT.
            assert all(sorted(done) == [0, 1, 2] for done in commits.values())
        for codes in (report["exit_codes"], verdict["observed"]["exit_codes"]):
            assert codes == {"0": 0, "1": 0, "2": 0, "3": 0}
        assert sorted(b["node"] for b in report["boots"]) == [0, 1, 1, 2, 3]
        assert plain_verdict["ok"] and verdict["ok"]

    @pytest.mark.parametrize(
        "after, restart_delay",
        [
            pytest.param(0.3, 0.05, id="greeting-is-the-first-write"),
            pytest.param(0.0, 0.1, id="greeting-falls-in-the-redial-backoff"),
        ],
    )
    def test_a_kill_in_the_last_epoch_still_gets_its_greeting(
        self, tmp_path, after, restart_delay
    ):
        """B5 — the ``cluster-smoke`` CI command line in miniature: no pacing
        after the last epoch, so the respawn JOINs into the rejoin wait.

        Killed *after* the last COMMIT, no broadcast comes between the kill
        and that JOIN, and the ``EPOCH`` greeting was the first write on a
        channel that still pointed at the dead incarnation.  Killed *before*
        it, the COMMIT is that write, its failure starts a redial backoff,
        and the greeting arrived inside the window.  Either way it was lost
        (dropped and counted, invisibly), the respawn never logged "joined",
        and the run ended by SIGTERMing it after the 10 s reap."""
        config = _config(tmp_path, epochs=2)
        supervisor = ClusterSupervisor(
            config,
            crash=CrashPlan(node=1, epoch=1, after=after, restart_delay=restart_delay),
        )
        started = time.monotonic()
        verdict, children = self._crash_run(supervisor)
        report = verdict["observed"]
        assert time.monotonic() - started < 5.0
        assert report["restarts"] == [{"node": 1, "epoch": 1}]
        # Greeted with the terminal epoch (or, on a slow box, the last one's
        # COMMIT still to come): nothing left to run, exit cleanly.
        assert [entry["node"] for entry in report["rejoins"]] == [1]
        assert report["exit_codes"] == {"0": 0, "1": 0, "2": 0, "3": 0}
        # (Past the last COMMIT the first incarnation has already exited;
        # the channel to it is just as stale as to a killed one.)
        assert [node for node, _child in children] == [0, 1, 2, 3, 1]
        assert set(children[-1][1].task.result()) <= {1}

    @pytest.mark.parametrize("lost", ["greeting", "join"])
    def test_a_respawn_whose_greeting_exchange_is_lost_joins_again(
        self, tmp_path, lost
    ):
        """The greeting residue.  A node sent one JOIN and then waited out
        ``join_timeout``, so losing either half of the exchange stranded it:
        the respawn never rejoined the run and ended by ``LivenessTimeout``
        (or by the SHUTDOWN it could only hear in its greeting wait).

        ``greeting``: the supervisor's greeting to the respawn is bit-flipped
        on the wire (the transport's own fault hook), so node 1 drops it with
        the connection.  ``join``: every node process loses what it sends the
        supervisor in its first 0.5 s, a loss window each respawn re-enters
        at zero, so the first JOIN of every incarnation is lost — at the
        parent, the startup barrier never completed.  Now the node JOINs
        again each ``JOIN_RETRY_SECONDS`` until greeted, and a repeated JOIN
        is the same incarnation: one ``rejoins`` entry, one ``on_rejoin``."""
        config = _config(tmp_path, epochs=5, epoch_interval=0.5)
        config.join_timeout = 4.0
        supervisor = ClusterSupervisor(
            config, crash=CrashPlan(node=1, epoch=0, after=0.05, restart_delay=0.1)
        )
        supervisor.config.epoch_grace = 0.2
        if lost == "join":
            loss = {"start": 0.0, "end": 0.5, "probability": 1.0, "receivers": [N]}
            config.chaos = {"seed": 0, "wire": {"losses": [loss]}}
        else:
            greet = supervisor._greet

            async def greet_through_a_bit_flip(node_id, epoch):
                if supervisor._started and not supervisor.rejoins:
                    supervisor._transport.corrupt_next_frame(N, node_id)
                await greet(node_id, epoch)

            supervisor._greet = greet_through_a_bit_flip
        verdict, children = self._crash_run(supervisor)
        report = verdict["observed"]
        assert report["restarts"] == [{"node": 1, "epoch": 0}]
        assert [entry["node"] for entry in report["rejoins"]] == [1]
        assert supervisor.liveness._rejoined == {1: 1}
        assert report["exit_codes"] == {"0": 0, "1": 0, "2": 0, "3": 0}
        assert [node for node, _child in children] == [0, 1, 2, 3, 1]
        # The respawn was greeted in time to commit the run's last epoch.
        assert config.epochs - 1 in children[-1][1].task.result()

    def test_a_fired_kill_is_awaited_a_sleeping_one_cancelled(self, tmp_path):
        """B4.  The parent waited 1 s for injectors, then set a flag that
        suppressed the respawn of a kill that had already fired — and then
        waited the whole ``join_timeout`` for the node it had just declined
        to respawn (``restarts: []``, ``unrejoined: [1]``, ``ok: True``).

        The fired kill is due at the barrier itself: its injector then runs
        at the supervisor's first wait of epoch 0, which no epoch can finish
        without, so the kill is recorded in epoch 0 however fast epochs run
        (any ``at > 0`` races an n = 4 in-process epoch)."""
        config = _config(tmp_path, epochs=2)
        config.join_timeout = 8.0
        schedule = ChaosSchedule(
            kills=(
                KillSpec(node=1, at=0.0, restart_delay=1.2),  # outlasts the epochs
                KillSpec(node=2, at=60.0),  # never reached
            ),
            pauses=(PauseSpec(node=3, at=60.0),),
        )
        controller = ClusterSupervisor(config, schedule=schedule)
        started = time.monotonic()
        verdict, children = self._crash_run(controller)
        wall = time.monotonic() - started
        assert 1.2 <= wall < 1.2 + 2.0, f"{wall:.2f}s: not restart_delay + boot"
        observed = verdict["observed"]
        assert observed["fault_events"] == [{"kind": "kill", "node": 1, "epoch": 0}]
        assert observed["restarts"] == [{"node": 1, "epoch": 1}]
        assert observed["liveness"]["unrejoined"] == []
        assert observed["exit_codes"] == {"0": 0, "1": 0, "2": 0, "3": 0}
        assert [node for node, _child in children] == [0, 1, 2, 3, 1]
        assert verdict["ok"]


class TestRealSignals:
    """The two injectors against real (stub) children: what a ``TaskChild``
    cannot play.  The slow tier does this to whole clusters."""

    def _supervisor(self, tmp_path):
        supervisor = ClusterSupervisor(_config(tmp_path), spawn=False)
        supervisor._zero = time.monotonic()
        return supervisor

    @staticmethod
    def _child():
        return subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])

    @staticmethod
    def _state(process):
        stat = Path(f"/proc/{process.pid}/stat").read_text()
        return stat.rsplit(")", 1)[1].split()[0]

    def test_kill_and_respawn(self, tmp_path):
        supervisor = self._supervisor(tmp_path)
        victim, replacement = self._child(), self._child()
        supervisor.processes[1] = victim
        supervisor.spawn = True
        supervisor._spawn_node = lambda node_id: replacement
        try:
            asyncio.run(supervisor._inject_kill(1, at=0.0, restart_delay=0.05))
            assert victim.poll() == -signal.SIGKILL
            assert supervisor.processes[1] is replacement
            assert supervisor.restarts == [{"node": 1, "epoch": 0}]
            assert supervisor.liveness.unrejoined() == [1]  # until it JOINs
        finally:
            supervisor._kill_children()
            victim.kill()

    def test_pause_stops_then_resumes(self, tmp_path):
        supervisor = self._supervisor(tmp_path)
        child = supervisor.processes[2] = self._child()
        seen = []

        async def scenario():
            pause = asyncio.create_task(supervisor._inject_pause(2, 0.0, 0.3))
            await asyncio.sleep(0.1)
            seen.append((self._state(child), set(supervisor._down)))
            await pause

        try:
            asyncio.run(scenario())
            assert seen == [("T", {2})]  # stopped, and not waited on meanwhile
            assert self._state(child) in "SR" and supervisor._down == set()
            kinds = [event["kind"] for event in supervisor.fault_events]
            assert kinds == ["pause", "resume"]
        finally:
            supervisor._kill_children()


# ----------------------------------------------------------------------
# The `repro cluster` command reads the verdict
# ----------------------------------------------------------------------
class TestClusterCli:
    @pytest.mark.parametrize("silent", [False, True], ids=["certifying", "silent"])
    def test_cluster_exits_1_when_an_epoch_is_skipped(
        self, tmp_path, monkeypatch, capsys, silent
    ):
        """The command runs the one supervisor (here in-process, beside
        ``run_node`` tasks or beside listeners that never certify) and exits
        1 if any epoch was skipped, as ``repro serve`` does."""
        from repro.experiments.cli import main

        config = _config(tmp_path, epochs=2, epoch_timeout=0.2 if silent else 5.0)
        heard = {node_id: [] for node_id in range(N)}
        listeners = [(i, _listener(config, i, heard)) for i in range(N)] if silent else []

        def run_in_process(supervisor):
            return _run(_no_spawn_run(supervisor, others=listeners))[0]

        monkeypatch.setattr(ClusterSupervisor, "run", run_in_process)
        path = config.write(tmp_path / "shared.json")
        code = main(["cluster", "--config", str(path), "--no-spawn", "--quiet"])
        out = capsys.readouterr().out
        if silent:
            assert code == 1
            assert "0/2 epochs certified, 2 skipped" in out
            assert out.count("SKIPPED (no valid certificate within 0.2s)") == 2
        else:
            assert code == 0
            assert "2/2 epochs certified, 0 skipped" in out
            assert out.count("certs_from=[0, 1, 2, 3]") == 2
