"""Tier-2 integration tests: a real multi-process oracle cluster.

Each test spawns genuine ``python -m repro cluster-node`` OS processes
communicating over Unix-domain sockets, so these are marked ``slow`` and
deselected from the default (tier-1) run — CI runs them in a dedicated job
with ``-m slow``.

The crash test is the acceptance scenario for this tier: SIGKILL one node
mid-epoch, and assert that the survivors certify every epoch (a skipped one
fails the test), the node rejoins the live cluster, the certificate stream
passes the :class:`CertificateStreamMonitor` (the verdict is not ``ok``
otherwise), and the run leaves no orphaned children and no leaked sockets
behind.
"""

import os
from pathlib import Path

import pytest

from repro.oracle.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    CrashPlan,
    build_cluster_config,
)

pytestmark = pytest.mark.slow


def _orphaned_cluster_processes(config_path: Path):
    """PIDs of any still-running ``cluster-node`` process using our config."""
    marker = str(config_path).encode()
    orphans = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b"cluster-node" in cmdline and marker in cmdline:
            orphans.append(int(entry.name))
    return orphans


def _assert_clean_teardown(supervisor, tmp_path):
    assert not list(tmp_path.glob("*.sock")), "leaked unix sockets"
    for node_id, process in supervisor.processes.items():
        assert process.poll() is not None, f"node {node_id} still running"
    config_path = tmp_path / "cluster.json"
    assert _orphaned_cluster_processes(config_path) == []


def test_cluster_three_epochs_all_nodes_certify(tmp_path):
    config = build_cluster_config(
        "sensors",
        4,
        epochs=3,
        seed=7,
        transport="unix",
        runtime_dir=tmp_path,
        secret_seed=b"integration-basic",
    )
    supervisor = ClusterSupervisor(config)
    verdict = supervisor.run()
    report = verdict["observed"]

    assert verdict["ok"], verdict["violations"]
    assert [entry["outcome"] for entry in verdict["epochs"]] == ["certified"] * 3
    assert [entry["epoch"] for entry in report["epoch_details"]] == [0, 1, 2]
    for entry in report["epoch_details"]:
        # t+1 = 2 signatures minimum; with no faults all 4 report.
        assert entry["signers"] >= 2
        assert entry["cert_senders"] == [0, 1, 2, 3]
    assert report["restarts"] == []
    # One measured boot (spawn -> JOIN) per node process.
    assert sorted(entry["node"] for entry in report["boots"]) == [0, 1, 2, 3]
    assert all(0 < entry["boot_seconds"] < 30 for entry in report["boots"])
    assert report["chain_entries"] >= 3
    assert all(code == 0 for code in report["exit_codes"].values())
    assert report["transport"]["auth_failures"] == 0
    _assert_clean_teardown(supervisor, tmp_path)


def test_cluster_crash_recovery_mid_epoch(tmp_path):
    """SIGKILL node 1 just after epoch 1 opens; the survivors certify every
    epoch and the restarted process rejoins the still-running cluster."""
    config = build_cluster_config(
        "sensors",
        4,
        epochs=5,
        seed=3,
        transport="unix",
        runtime_dir=tmp_path,
        # Pace epochs so the respawned interpreter (~0.4 s boot) rejoins while
        # the cluster is still live, not after it has wound down.
        epoch_interval=1.0,
        secret_seed=b"integration-crash",
    )
    crash = CrashPlan(node=1, epoch=1, after=0.05, restart_delay=0.3)
    supervisor = ClusterSupervisor(config, crash=crash)
    verdict = supervisor.run()
    report = verdict["observed"]

    # Liveness through the fault: every epoch certified, on time, and no
    # monitor breach.  A skipped epoch fails here.
    assert verdict["ok"], verdict["violations"]
    assert verdict["epochs"] == [
        {"epoch": epoch, "outcome": "certified"} for epoch in range(5)
    ]
    for entry in report["epoch_details"]:
        assert entry["signers"] >= 2

    # The kill really happened, and the node really came back.
    assert report["restarts"] == [{"node": 1, "epoch": 1}]
    assert any(entry["node"] == 1 for entry in report["rejoins"])
    # ... as a second process: its respawn booted and was timed too.
    assert sorted(entry["node"] for entry in report["boots"]) == [0, 1, 1, 2, 3]

    # Epoch 0 predates the crash: all four participated.
    assert report["epoch_details"][0]["cert_senders"] == [0, 1, 2, 3]
    # The survivor quorum alone carried at least one mid-crash epoch.
    assert any(
        entry["cert_senders"] == [0, 2, 3] for entry in report["epoch_details"][1:3]
    )

    # Final incarnations all exited cleanly (the SIGKILLed incarnation was
    # replaced by its respawn before the final reap).
    assert all(code == 0 for code in report["exit_codes"].values())
    assert report["transport"]["auth_failures"] == 0
    assert report["transport"]["replay_rejections"] == 0
    _assert_clean_teardown(supervisor, tmp_path)


def test_cluster_config_round_trips_through_json(tmp_path):
    config = build_cluster_config(
        "sensors",
        4,
        epochs=2,
        seed=1,
        transport="tcp",
        runtime_dir=tmp_path,
        base_port=9700,
        secret_seed=b"integration-config",
    )
    path = tmp_path / "cluster.json"
    config.write(path)
    clone = ClusterConfig.load(path)
    assert clone.to_dict() == config.to_dict()
    assert list(clone.addresses[0]) == ["tcp", "127.0.0.1", 9700]
    # The supervisor (id n) gets its own address too.
    assert clone.addresses[config.n][2] == 9700 + config.n
