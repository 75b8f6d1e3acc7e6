"""Command-line interface for the experiment harness: ``python -m repro``.

Subcommands:

``repro list-scenarios``
    Show every registered preset sweep with its description and cell count.

``repro sweep NAME``
    Execute a preset sweep (parallel by default, cached by spec hash) and
    print the protocol-by-n report table; ``--json``/``--csv`` write the
    artifact files, ``--dry-run`` prints the expanded grid without running.

``repro run``
    Execute one ad-hoc scenario assembled from flags and print its metrics
    as JSON.

``repro perf``
    The fingerprint gate: run the scenario basket on the fast and on the
    reference engine and assert byte-identical results; ``--check`` also
    compares each fingerprint with the committed table (exit 1 on a
    mismatch).  Measures no wall time — that is ``benchmarks/e2e/run.py``.

``repro faults``
    Run a fault-injection campaign (protocol × fault case × schedule × n) on
    both engines with runtime invariant monitors attached, assert engine
    equivalence under faults, and write a JSON verdict artifact.
    ``--replay PINS`` re-runs every pin in a pin file (a violation bundle or
    a committed corpus) and exits non-zero when any replay departs from its
    record (stale-corpus check).

``repro fuzz``
    Coverage-guided adversarial-schedule search: mutate fault schedules
    (corruptions, network-fault windows, seeds, workloads) toward invariant
    near-misses using the monitors' margin channels as fitness, greedily
    shrink the winners, and emit a deterministic near-miss leaderboard
    artifact; ``--update-corpus`` promotes shrunk schedules into the
    committed adversarial corpus replayed by tier-1.

``repro sharded-smoke``
    Run one large two-level ``sharded-delphi`` cell (default n=1000,
    groups of 32) on the fast engine with the hierarchical
    epsilon-agreement monitor attached; prints a verdict JSON and exits
    non-zero unless the monitor stays green.  ``--reference`` replays the
    cell on the reference engine and asserts byte-identical results.

``repro serve``
    Run the epoch-pipelined oracle service: agree on a streaming workload
    (bitcoin/sensors/drone) epoch after epoch on the chosen engine
    (asyncio = real concurrency, fast/reference = deterministic), with
    persistent PKI, node churn, certificate-stream invariants, and a
    parity check of every epoch (on by default: the schedule replay on
    asyncio, the other deterministic engine on fast/reference).  Prints
    per-epoch certificates and epochs/sec / certs/sec throughput; exits 1
    if the epoch watchdog skipped any epoch.

``repro cluster``
    Deploy the oracle service as a real multi-process cluster: a supervisor
    spawns one OS process per node, the mesh talks over authenticated
    TCP/Unix sockets, and ``--crash-node`` SIGKILLs a node mid-epoch to
    exercise crash recovery.  ``--no-spawn`` waits for externally started
    node processes instead (the docker-compose recipe).  An epoch that
    certifies nothing is skipped and the run goes on; prints one line per
    epoch and exits 1 if any epoch was skipped or the verdict is not ok.

``repro cluster-node``
    Run one oracle node process against a shared cluster config (spawned by
    ``repro cluster``, or started by docker-compose).

``repro chaos``
    Soak a live multi-process cluster (optionally with a gateway front)
    under a seeded chaos schedule: repeated SIGKILL/respawn, SIGSTOP/SIGCONT
    pauses and wire-level faults (loss windows, partitions, corruption),
    with every epoch audited by the liveness monitor — certified within
    budget or explicitly skipped-and-accounted.  Writes a
    ``CHAOS_<seed>.json`` verdict whose deterministic section is
    byte-identical across same-seed runs; exits non-zero on any monitor
    violation or unaccounted epoch.  ``--soak`` loops freshly-seeded
    iterations until a wall-clock budget is spent.

``repro gateway``
    Serve the oracle to clients: an HTTP/WebSocket gateway over the oracle
    service, streaming SMR certificates to WebSocket subscribers with
    per-client bounded queues (slow consumers are evicted, not allowed to
    stall the stream), answering ``/certs`` queries from a bounded
    certificate index, ingesting client ticks into epochs, and exporting a
    ``/metrics`` JSON snapshot.

``repro loadgen``
    Load-test a gateway with thousands of concurrent WebSocket subscribers
    (plus optional stalled clients and tick publishers); reports certs/sec,
    p50/p99 delivery latency and the zero-loss invariant for non-evicted
    subscribers, with an optional latency-histogram artifact.

Examples
--------
::

    PYTHONPATH=src python -m repro list-scenarios
    PYTHONPATH=src python -m repro sweep smoke --workers 4 --json out/smoke.json
    PYTHONPATH=src python -m repro sweep fig6a --dry-run
    PYTHONPATH=src python -m repro run --protocol delphi --n 7 --delta-max 16 --testbed aws
    PYTHONPATH=src python -m repro perf --quick --check benchmarks/perf_baseline.json
    PYTHONPATH=src python -m repro perf --scenario delphi-n160-aws
    PYTHONPATH=src python -m repro faults --campaign smoke --output fault-artifacts
    PYTHONPATH=src python -m repro faults --replay fault-artifacts/bundles/VIOLATION_xyz.json
    PYTHONPATH=src python -m repro fuzz --budget 200 --protocol delphi --seed 0
    PYTHONPATH=src python -m repro fuzz --budget 50 --min-margin 0.85 --output out
    PYTHONPATH=src python -m repro sharded-smoke --n 1000 --group-size 32 --output out/sharded_smoke.json
    PYTHONPATH=src python -m repro serve --workload bitcoin --epochs 10 --engine asyncio
    PYTHONPATH=src python -m repro serve --workload sensors --epochs 5 --churn 1 --json out/serve.json
    PYTHONPATH=src python -m repro chaos --workload sensors --n 7 --epochs 6 --standard --seed 5
    PYTHONPATH=src python -m repro chaos --n 4 --epochs 4 --kill 1:2.0 --pause 2:4.0:1.0 --loss 0.2:6.0:8.0
    PYTHONPATH=src python -m repro gateway --workload bitcoin --epochs 5 --port 8080
    PYTHONPATH=src python -m repro loadgen --subscribers 1000 --epochs 3 --json out/load.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro._version import __version__
from repro.errors import ConfigurationError, ReproError

from repro.experiments.executor import SweepExecutor, stderr_progress
from repro.experiments.presets import SCALES, list_presets, preset
from repro.experiments.spec import (
    KNOWN_ADVERSARIES,
    KNOWN_PROTOCOLS,
    KNOWN_TESTBEDS,
    KNOWN_WORKLOADS,
    ScenarioSpec,
)
from repro.net.network import write_json
from repro.oracle.service import KNOWN_SERVICE_ENGINES as SERVICE_ENGINES
from repro.protocols.registry import PROTOCOLS
from repro.workloads import EPOCH_WORKLOADS as SERVICE_WORKLOADS

#: Default on-disk result cache used by the CLI.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Metrics the report table can render (ExperimentRecord numeric fields).
TABLE_METRICS = (
    "runtime_seconds",
    "megabytes",
    "message_count",
    "output_spread",
    "validity_margin",
)


# ----------------------------------------------------------------------
# The command table's rows and the flag groups they share.  A group is a
# function taking the command's own defaults, not an argparse ``parents=``
# parser: parent actions are shared by reference, so one child's
# ``set_defaults`` would silently rewrite its siblings'.


def _command(
    subparsers: Any,
    name: str,
    handler: Callable[[argparse.Namespace], int],
    help: str,
    *,
    quiet: bool = True,
    **kwargs: Any,
) -> argparse.ArgumentParser:
    """One row of the command table: a subparser bound to its handler, with
    the ``--quiet`` every command that reports progress takes."""
    parser = subparsers.add_parser(name, help=help, **kwargs)
    parser.set_defaults(handler=handler)
    if quiet:
        parser.add_argument(
            "--quiet", action="store_true", help="suppress progress lines"
        )
    return parser


def _json_flag(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--json", dest="json_path", help=f"write {what} as JSON")


def _artifact_flags(parser: argparse.ArgumentParser, artifact: str) -> None:
    parser.add_argument(
        "--output", default=".", help=f"directory for the {artifact} artifact"
    )
    parser.add_argument(
        "--no-artifact", action="store_true", help="print results without writing a file"
    )


def _oracle_flags(
    parser: argparse.ArgumentParser,
    *,
    workload: str,
    n: int,
    epochs: int,
    seed: Optional[int] = 0,
    engine: Optional[str] = None,
) -> None:
    """What every live-stack command asks first: which workload, how many
    oracles, how many epochs, which seed — and, where the command runs the
    service in-process, on which engine."""
    parser.add_argument(
        "--workload",
        choices=sorted(SERVICE_WORKLOADS),
        default=workload,
        help="streaming workload feeding per-epoch inputs (default: %(default)s)",
    )
    parser.add_argument(
        "--n", type=int, default=n, help="oracle network size (default: %(default)s)"
    )
    parser.add_argument(
        "--epochs", type=int, default=epochs, help="epochs to run (default: %(default)s)"
    )
    parser.add_argument(
        "--seed", type=int, default=seed, help="master seed (default: %(default)s)"
    )
    if engine is not None:
        parser.add_argument(
            "--engine",
            choices=SERVICE_ENGINES,
            default=engine,
            help="epoch execution engine (default: %(default)s)",
        )


#: The dests :func:`_tuning_flags` declares, for :func:`_flags`.
_TUNING = ("epsilon", "delta_max", "max_rounds")


def _tuning_flags(parser: argparse.ArgumentParser) -> None:
    """Overrides of the workload's calibrated Delphi parameters."""
    parser.add_argument(
        "--epsilon", type=float, default=None, help="override the workload's epsilon"
    )
    parser.add_argument(
        "--delta-max", type=float, default=None, help="override the workload's Delta"
    )
    parser.add_argument("--max-rounds", type=int, default=6)


def _pacing_flags(
    parser: argparse.ArgumentParser,
    *,
    epoch_timeout: Optional[float] = None,
    epoch_interval: Optional[float] = None,
) -> None:
    """The per-epoch wall-clock budget and the pause between epochs, for the
    commands that have the one, the other or both."""
    if epoch_timeout is not None:
        parser.add_argument(
            "--epoch-timeout",
            type=float,
            default=epoch_timeout,
            help="wall-clock budget per epoch in seconds (default: %(default)s)",
        )
    if epoch_interval is not None:
        parser.add_argument(
            "--epoch-interval",
            type=float,
            default=epoch_interval,
            help="pause between epochs in seconds; pacing lets a respawned "
            "process rejoin while the run is still live (default: %(default)s)",
        )


#: The dests :func:`_cluster_flags` declares that ``build_cluster_config``
#: takes under the same name (``runtime_dir`` gets a default first).
_MESH = ("transport", "epoch_timeout", "epoch_interval")


def _cluster_flags(
    parser: argparse.ArgumentParser, *, epoch_timeout: float, epoch_interval: float
) -> None:
    """The multi-process commands: where the node mesh lives, how it is paced."""
    parser.add_argument(
        "--transport",
        choices=("unix", "tcp"),
        default="unix",
        help="socket family for the node mesh (default: unix)",
    )
    parser.add_argument(
        "--runtime-dir",
        default=None,
        help="directory for sockets, the config handout and node logs "
        "(default: a fresh temporary directory)",
    )
    _pacing_flags(parser, epoch_timeout=epoch_timeout, epoch_interval=epoch_interval)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Delphi reproduction experiment harness: run declarative "
            "protocol sweeps in parallel with per-cell result caching."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = _command(
        subparsers,
        "list-scenarios",
        _cmd_list,
        "list the registered preset sweeps",
        quiet=False,
    )
    list_parser.add_argument(
        "--scale", choices=SCALES, default="quick", help="scale used for cell counts"
    )

    sweep = _command(subparsers, "sweep", _cmd_sweep, "execute a preset sweep")
    sweep.add_argument("name", help="preset name (see list-scenarios)")
    sweep.add_argument("--scale", choices=SCALES, default="quick")
    sweep.add_argument("--workers", type=int, default=None, help="worker process count")
    sweep.add_argument(
        "--chunk",
        type=int,
        default=None,
        help=(
            "cells per worker submission (default: auto from the grid size; "
            "1 = one submission per cell)"
        ),
    )
    sweep.add_argument(
        "--serial", action="store_true", help="run in-process instead of the worker pool"
    )
    sweep.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"per-cell result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    sweep.add_argument(
        "--force", action="store_true", help="recompute cells even when cached"
    )
    sweep.add_argument(
        "--dry-run", action="store_true", help="print the expanded grid, run nothing"
    )
    _json_flag(sweep, "full results")
    sweep.add_argument("--csv", dest="csv_path", help="write per-cell rows as CSV")
    sweep.add_argument(
        "--metric",
        default="runtime_seconds",
        help="metric rendered in the report table (default: runtime_seconds)",
    )

    run = _command(
        subparsers, "run", _cmd_run, "execute one ad-hoc scenario", quiet=False
    )
    run.add_argument("--protocol", choices=KNOWN_PROTOCOLS, default="delphi")
    run.add_argument("--n", type=int, default=7)
    run.add_argument("--epsilon", type=float, default=1.0)
    run.add_argument("--rho0", type=float, default=None)
    run.add_argument("--delta-max", type=float, default=16.0)
    run.add_argument("--max-rounds", type=int, default=6)
    run.add_argument("--testbed", choices=KNOWN_TESTBEDS, default="lan")
    run.add_argument("--workload", choices=KNOWN_WORKLOADS, default="spread")
    run.add_argument("--delta", type=float, default=4.0, help="honest input range")
    run.add_argument("--centre", type=float, default=100.0, help="input range centre")
    run.add_argument("--adversary", choices=KNOWN_ADVERSARIES, default="none")
    run.add_argument("--num-byzantine", type=int, default=0)
    run.add_argument("--seed", type=int, default=0)

    perf = _command(
        subparsers, "perf", _cmd_perf, "run the fast-vs-reference fingerprint gate"
    )
    perf.add_argument(
        "--quick", action="store_true", help="run only the quick (CI smoke) scenarios"
    )
    perf.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        help="run only the named scenario (repeatable; see the basket in repro.perf)",
    )
    perf.add_argument(
        "--check",
        dest="baseline_path",
        help="compare with a committed fingerprint table and exit 1 on a mismatch",
    )

    faults = _command(
        subparsers,
        "faults",
        _cmd_faults,
        "run a fault-injection campaign with runtime invariant monitors",
    )
    faults.add_argument(
        "--campaign", default="smoke", help="campaign name (see --list)"
    )
    faults.add_argument(
        "--list", action="store_true", help="list the registered campaigns"
    )
    faults.add_argument(
        "--dry-run", action="store_true", help="print the expanded matrix, run nothing"
    )
    _artifact_flags(faults, "FAULTS_<campaign>.json verdict")
    faults.add_argument(
        "--replay",
        dest="bundle_path",
        help="re-run every pin in a pin file (violation bundle or corpus)",
    )

    fuzz = _command(
        subparsers,
        "fuzz",
        _cmd_fuzz,
        "coverage-guided adversarial-schedule search: mutate fault "
        "schedules toward invariant near-misses, shrink the winners",
    )
    fuzz.add_argument(
        "--budget", type=int, default=200, help="engine runs to spend (default: 200)"
    )
    fuzz.add_argument(
        "--protocol",
        action="append",
        dest="protocols",
        choices=KNOWN_PROTOCOLS,
        help="protocol to search (repeatable; default: delphi fin)",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="search seed (determinism)")
    fuzz.add_argument(
        "--min-margin",
        type=float,
        default=0.9,
        help=(
            "near-miss threshold on the normalised margin: runs whose worst "
            "channel ratio is below this are kept and mutated (default: 0.9)"
        ),
    )
    fuzz.add_argument(
        "--corpus",
        default="tests/data/adversarial_corpus.json",
        help="persistent corpus seeded into the search (default: %(default)s)",
    )
    fuzz.add_argument(
        "--no-corpus", action="store_true", help="search from scratch, ignore the corpus"
    )
    fuzz.add_argument(
        "--update-corpus",
        action="store_true",
        help="promote shrunk winners into the corpus file",
    )
    fuzz.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default="fast",
        help="simulation engine the search runs on (default: fast)",
    )
    _artifact_flags(fuzz, "FUZZ_seed<seed>.json leaderboard")

    sharded = _command(
        subparsers,
        "sharded-smoke",
        _cmd_sharded_smoke,
        "run one large two-level sharded-delphi cell on the fast engine "
        "with the hierarchical agreement monitor attached",
    )
    sharded.add_argument("--n", type=int, default=1000, help="total node count")
    sharded.add_argument(
        "--group-size", type=int, default=32, help="consistent-hash group size"
    )
    sharded.add_argument("--testbed", choices=KNOWN_TESTBEDS, default="lan")
    sharded.add_argument("--epsilon", type=float, default=1.0)
    sharded.add_argument("--delta-max", type=float, default=16.0)
    sharded.add_argument("--seed", type=int, default=0)
    sharded.add_argument(
        "--reference",
        action="store_true",
        help="also run the reference engine and assert fingerprint parity",
    )
    sharded.add_argument(
        "--output",
        default=None,
        help="write the verdict JSON to this path (default: stdout only)",
    )

    serve = _command(
        subparsers,
        "serve",
        _cmd_serve,
        "run the epoch-pipelined oracle service over a streaming workload",
        description="The default engine, asyncio, is the real-concurrency one; "
        "--epoch-timeout and --latency apply to it alone.",
    )
    _oracle_flags(serve, workload="bitcoin", n=7, epochs=10, engine="asyncio")
    serve.add_argument(
        "--churn",
        type=int,
        default=0,
        help="nodes offline per epoch (crash-restart rotation, <= t)",
    )
    serve.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the per-epoch parity check (asyncio: byte-exact schedule "
        "replay; fast/reference: the other deterministic engine must certify "
        "the same value)",
    )
    _tuning_flags(serve)
    serve.add_argument(
        "--latency",
        type=float,
        default=None,
        help="asyncio per-message delivery latency in seconds (default: none)",
    )
    _pacing_flags(serve, epoch_timeout=30.0)
    _json_flag(serve, "the full result")

    cluster = _command(
        subparsers,
        "cluster",
        _cmd_cluster,
        "deploy a multi-process oracle cluster over real sockets",
    )
    _oracle_flags(cluster, workload="sensors", n=4, epochs=3)
    _cluster_flags(cluster, epoch_timeout=30.0, epoch_interval=0.0)
    cluster.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (tcp transport only)"
    )
    cluster.add_argument(
        "--base-port",
        type=int,
        default=9500,
        help="first TCP port; node k listens on base+k (tcp transport only)",
    )
    cluster.add_argument(
        "--config",
        dest="config_path",
        default=None,
        help="use an existing cluster config instead of generating one "
        "(the docker-compose recipe shares one config between services)",
    )
    cluster.add_argument(
        "--write-config",
        dest="write_config",
        default=None,
        help="write the generated config JSON to this path and exit",
    )
    cluster.add_argument(
        "--no-spawn",
        action="store_true",
        help="do not spawn node processes; wait for externally started "
        "cluster-node processes (docker-compose mode)",
    )
    cluster.add_argument(
        "--crash-node",
        type=int,
        default=None,
        help="SIGKILL this node mid-run to exercise crash recovery",
    )
    cluster.add_argument(
        "--crash-epoch",
        type=int,
        default=1,
        help="epoch in which to inject the crash (default: 1)",
    )
    _tuning_flags(cluster)
    _json_flag(cluster, "the run's verdict")

    cluster_node = _command(
        subparsers,
        "cluster-node",
        _cmd_cluster_node,
        "run one oracle node process of a cluster (spawned by 'cluster')",
        quiet=False,
    )
    cluster_node.add_argument(
        "--config", required=True, help="path to the shared cluster config JSON"
    )
    cluster_node.add_argument(
        "--node-id", type=int, required=True, help="this process's node id"
    )

    chaos = _command(
        subparsers,
        "chaos",
        _cmd_chaos,
        "soak a live multi-process cluster under a seeded chaos "
        "schedule (SIGKILL/SIGSTOP + wire faults) with liveness auditing",
        description="Needs --n >= 4.  --seed defaults to the --schedule file's "
        "own seed, else 0.",
    )
    _oracle_flags(chaos, workload="sensors", n=4, epochs=4, seed=None)
    _cluster_flags(chaos, epoch_timeout=15.0, epoch_interval=1.0)
    chaos.add_argument(
        "--schedule",
        dest="schedule_path",
        default=None,
        help="load the chaos schedule from this JSON file",
    )
    chaos.add_argument(
        "--standard",
        action="store_true",
        help="use the built-in standard schedule: 2 SIGKILLs, one SIGSTOP "
        "pause, one partition window, one 20%% loss window",
    )
    chaos.add_argument(
        "--kill",
        action="append",
        dest="kills",
        metavar="NODE:AT[:RESTART]",
        help="SIGKILL the node AT seconds after the barrier, respawn it "
        "RESTART seconds later (repeatable; default restart 0.5)",
    )
    chaos.add_argument(
        "--pause",
        action="append",
        dest="pauses",
        metavar="NODE:AT[:DURATION]",
        help="SIGSTOP the node AT seconds after the barrier, SIGCONT it "
        "DURATION seconds later (repeatable; default duration 1.0)",
    )
    chaos.add_argument(
        "--loss",
        action="append",
        dest="losses",
        metavar="PROB:START:END",
        help="probabilistic frame-loss window on the node wire clocks "
        "(repeatable)",
    )
    _artifact_flags(chaos, "CHAOS_<seed>.json verdict")
    chaos.add_argument(
        "--gateway-port",
        type=int,
        default=None,
        help="serve a gateway front on this port during the run "
        "(0 = ephemeral); certified epochs are published to it and its "
        "/healthz reflects the chaos run",
    )
    chaos.add_argument(
        "--soak",
        action="store_true",
        help="loop freshly-seeded iterations of the schedule until "
        "--soak-budget is spent",
    )
    chaos.add_argument(
        "--soak-budget",
        type=float,
        default=120.0,
        help="soak wall-clock budget in seconds (default: 120)",
    )

    gateway = _command(
        subparsers,
        "gateway",
        _cmd_gateway,
        "serve the oracle to HTTP/WebSocket clients (certificate stream, "
        "queries, tick ingestion, /metrics)",
        description="The workload feeds an epoch only when too few client ticks "
        "are pending.  The default engine is fast: the gateway is the serving "
        "layer, and the parity/cluster harnesses cover the others.",
    )
    _oracle_flags(gateway, workload="bitcoin", n=7, epochs=10, engine="fast")
    gateway.add_argument(
        "--churn", type=int, default=0, help="nodes offline per epoch (<= t)"
    )
    gateway.add_argument("--host", default="127.0.0.1", help="bind host")
    gateway.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral, printed)"
    )
    gateway.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="per-subscriber send-queue bound; overflow evicts the "
        "subscriber (default: 64)",
    )
    gateway.add_argument(
        "--history-limit",
        type=int,
        default=1024,
        help="certificate-index bound for /certs queries (default: 1024)",
    )
    _pacing_flags(gateway, epoch_interval=1.0)
    _tuning_flags(gateway)

    loadgen = _command(
        subparsers,
        "loadgen",
        _cmd_loadgen,
        "load-test the gateway with concurrent WebSocket subscribers "
        "and tick publishers",
        description="The workload, engine and size are those of the gateway the "
        "load generator hosts itself.",
    )
    _oracle_flags(loadgen, workload="bitcoin", n=7, epochs=3, engine="fast")
    loadgen.add_argument(
        "--subscribers",
        type=int,
        default=1000,
        help="healthy WebSocket subscribers (default: 1000)",
    )
    loadgen.add_argument(
        "--stalled",
        type=int,
        default=0,
        help="additional subscribers that never read (eviction load)",
    )
    loadgen.add_argument(
        "--publishers",
        type=int,
        default=0,
        help="concurrent tick publishers (default: 0)",
    )
    loadgen.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="gateway per-subscriber queue bound (default: 64)",
    )
    _json_flag(loadgen, "the full load report")
    loadgen.add_argument(
        "--histogram",
        dest="histogram_path",
        help="write the delivery-latency histogram artifact to this path",
    )
    loadgen.add_argument(
        "--max-lost",
        type=int,
        default=0,
        help="tolerated certificates lost by non-evicted subscribers "
        "before exiting 1 (default: 0 — strict zero-loss)",
    )
    return parser


# ----------------------------------------------------------------------
# What the handlers share.


def _progress(args: argparse.Namespace) -> Optional[Callable[[str], None]]:
    """Where a command's progress lines go: stderr, or nowhere with ``--quiet``."""
    return None if args.quiet else stderr_progress


def _flags(args: argparse.Namespace, *names: str) -> Dict[str, Any]:
    """The named flags as keyword arguments, for the builders whose
    parameters are spelt like the flags that set them."""
    return {name: getattr(args, name) for name in names}


def _write_json(path: str, payload: Any, announce_on: Any = None) -> None:
    """Write ``payload`` as sorted, indented JSON, creating the directory,
    and announce the path (on stdout unless the command's stdout is data)."""
    print(f"wrote {write_json(path, payload)}", file=announce_on)


def _print_listing(kind: str, rows: Sequence[Any]) -> None:
    """The ``(name, description, cell count)`` table of ``list-scenarios`` and
    ``faults --list``, followed by the protocol table."""
    width = max(len(name) for name, _d, _c in rows)
    print(f"{kind.ljust(width)}  cells  description")
    for name, description, count in rows:
        print(f"{name.ljust(width)}  {count:>5}  {description}")
    print()
    width = max(len(name) for name in PROTOCOLS)
    print(f"{'protocol'.ljust(width)}  agreement     description")
    for row in PROTOCOLS.values():
        print(f"{row.name.ljust(width)}  {row.agreement:<12}  {row.description}")


def _cmd_list(args: argparse.Namespace) -> int:
    _print_listing("preset", list_presets(scale=args.scale))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.metric not in TABLE_METRICS:
        raise ConfigurationError(
            f"unknown metric {args.metric!r} (known: {', '.join(TABLE_METRICS)})"
        )
    sweep = preset(args.name, scale=args.scale)
    cells = sweep.cells()
    if args.dry_run:
        print(f"# sweep {sweep.name}: {len(cells)} cells ({args.scale} scale)")
        for index, spec in enumerate(cells):
            print(
                f"  [{index + 1:>3}] {spec.label:<16} kind={spec.kind} n={spec.n} "
                f"testbed={spec.testbed} seed={spec.seed} hash={spec.spec_hash()}"
            )
        return 0
    executor = SweepExecutor(
        cache_dir=None if args.no_cache else args.cache_dir,
        max_workers=args.workers,
        parallel=False if args.serial else None,
        chunk_size=args.chunk,
        progress=_progress(args),
    )
    result = executor.run(sweep, force=args.force)
    fresh = len(result) - result.cached_count
    print(f"# sweep {result.name}: {len(result)} cells ({result.cached_count} cached, {fresh} computed)")
    collector = result.to_collector()
    if collector.records:
        print(collector.render_table(args.metric))
    else:  # workload-analysis sweeps have no protocol table; dump metrics
        for cell in result:
            print(f"## {cell.label} ({cell.spec_hash})")
            print(json.dumps(cell.metrics, indent=2, sort_keys=True))
    if args.json_path:
        print(f"wrote {result.write_json(args.json_path)}")
    if args.csv_path:
        print(f"wrote {result.write_csv(args.csv_path)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # Every flag of ``run`` is the ScenarioSpec field of the same name.
    fields = vars(args).keys() - {"command", "handler"}
    spec = ScenarioSpec(**_flags(args, *fields))
    executor = SweepExecutor(cache_dir=None, progress=None)
    cell = executor.run_one(spec)
    print(json.dumps(cell.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import compare_to_baseline, load_baseline, run_suite

    # Validate the table before the (slow) suite so a bad path fails fast.
    committed = load_baseline(args.baseline_path) if args.baseline_path else None
    fingerprints = run_suite(quick=args.quick, names=args.scenarios, progress=_progress(args))
    for name, fingerprint in fingerprints.items():
        print(f"{name}: {fingerprint} identical on fast and reference")
    if committed is None:
        return 0
    failures = compare_to_baseline(fingerprints, committed)
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        print(f"fingerprint gate failed against {args.baseline_path}", file=sys.stderr)
        return 1
    print(f"{len(fingerprints)} fingerprint(s) match {args.baseline_path}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.campaign import (
        campaign,
        list_campaigns,
        load_pins,
        replay_pin,
        run_campaign,
    )

    if args.list:
        _print_listing("campaign", list_campaigns())
        return 0

    if args.bundle_path:
        pins = load_pins(args.bundle_path)
        if not pins:
            raise ConfigurationError(f"{args.bundle_path}: no pins to replay")
        verdicts, stale = [], 0
        for pin in pins:
            verdict, problems = replay_pin(pin)
            verdicts.append(verdict.as_dict())
            stale += bool(problems)
            for line in problems or ["replayed as pinned"]:
                print(f"{pin['label']}: {line}", file=sys.stderr)
        print(json.dumps(verdicts, indent=2, sort_keys=True))
        # Non-zero exactly when a pin is stale: runs are deterministic, so a
        # replay that departs from its record means the record is out of date.
        return 1 if stale else 0

    selected = campaign(args.campaign)
    cells = selected.cells()
    if args.dry_run:
        print(f"# campaign {selected.name}: {len(cells)} cells x 2 engines")
        for index, spec in enumerate(cells):
            print(
                f"  [{index + 1:>3}] {spec.label:<16} protocol={spec.protocol} "
                f"n={spec.n} seed={spec.seed} hash={spec.spec_hash()}"
            )
        return 0

    bundle_dir = None if args.no_artifact else str(Path(args.output) / "bundles")
    result = run_campaign(selected, bundle_dir=bundle_dir, progress=_progress(args))
    summary = result.summary
    print(
        f"# campaign {result.name}: {summary['cells']} cells x 2 engines — "
        f"{summary['ok']} ok, {summary['stalled']} stalled (liveness waived), "
        f"{summary['violations']} violations, "
        f"{summary['engine_mismatches']} engine mismatches"
    )
    for verdict in result.verdicts:
        if verdict.status in ("violation", "engine-mismatch"):
            entry = verdict.as_dict()
            print(f"!! {entry['label']} protocol={entry['protocol']} n={entry['n']}: {entry['status']}")
            if "violation" in entry:
                print(f"   {entry['violation']['monitor']}: {entry['violation']['detail']}")
            if "bundle" in entry:
                print(f"   repro bundle: {entry['bundle']}")
    if not args.no_artifact:
        path = result.write_json(str(Path(args.output) / f"FAULTS_{result.name}.json"))
        print(f"wrote {path}")
    return 0 if result.passed else 1


def _cmd_sharded_smoke(args: argparse.Namespace) -> int:
    import time

    from repro.faults.campaign import run_cell_engine
    from repro.protocols.sharded_delphi import sharded_topology_of

    spec = ScenarioSpec(
        protocol="sharded-delphi",
        n=args.n,
        epsilon=args.epsilon,
        delta_max=args.delta_max,
        testbed=args.testbed,
        seed=args.seed,
        name=f"sharded-smoke-n{args.n}",
        extras={"group_size": args.group_size},
    )
    topology = sharded_topology_of(spec)
    say = _progress(args) or (lambda message: None)
    say(
        f"sharded-smoke: n={spec.n} groups={topology.num_groups} "
        f"(size {args.group_size}) on the fast engine"
    )
    started = time.perf_counter()
    outcome = run_cell_engine(spec, "fast")
    elapsed = time.perf_counter() - started
    verdict = {
        "schema": "repro-sharded-smoke/1",
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash(),
        "n": spec.n,
        "num_groups": topology.num_groups,
        "group_size": args.group_size,
        "status": outcome.status,
        "wall_seconds": round(elapsed, 3),
        "margins": outcome.margins,
        "margin_ratios": outcome.margin_ratios,
    }
    if outcome.violation is not None:
        verdict["violation"] = outcome.violation
    if outcome.projection is not None:
        projection = dict(outcome.projection)
        # Per-node maps and id lists bloat the artifact at n=1000; keep counts.
        outputs = projection.pop("outputs", {})
        values = [float(value) for value in outputs.values()]
        projection["decided"] = len(projection.pop("decided", outputs))
        projection["honest"] = len(projection.pop("honest", ()))
        projection["byzantine"] = len(projection.pop("byzantine", ()))
        if values:
            projection["output_spread"] = max(values) - min(values)
        verdict["metrics"] = projection
    if args.reference:
        say("sharded-smoke: replaying on the reference engine")
        reference = run_cell_engine(spec, "reference")
        verdict["engines_equivalent"] = (
            outcome.comparable() == reference.comparable()
        )
        if not verdict["engines_equivalent"]:
            verdict["status"] = "engine-mismatch"
    print(json.dumps(verdict, indent=2, sort_keys=True))
    if args.output:
        _write_json(args.output, verdict, announce_on=sys.stderr)
    return 0 if verdict["status"] == "ok" else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.faults.campaign import load_pins, pin_hash, write_pins
    from repro.faults.search import fuzz_schedules

    corpus = [] if args.no_corpus else load_pins(args.corpus)
    result = fuzz_schedules(
        protocols=tuple(args.protocols) if args.protocols else ("delphi", "fin"),
        budget=args.budget,
        seed=args.seed,
        min_margin=args.min_margin,
        engine=args.engine,
        corpus=corpus,
        progress=_progress(args),
    )
    print(
        f"# fuzz seed={result.seed}: {result.runs} runs "
        f"({result.cache_hits} cache hits, {result.shrink_runs} shrink runs), "
        f"{len(result.violations)} violations, "
        f"{len(result.corpus_candidates)} corpus candidates"
    )
    for protocol in result.protocols:
        best = result.best_margins.get(protocol, {})
        base = result.baseline_margins.get(protocol, {})
        for channel in sorted(best):
            marker = (
                " (beats baseline)"
                if channel in base and best[channel] < base[channel]
                else ""
            )
            print(f"  {protocol}/{channel}: best {best[channel]:.6g}{marker}")
    if not args.no_artifact:
        path = result.write_json(
            str(Path(args.output) / f"FUZZ_seed{result.seed}.json")
        )
        print(f"wrote {path}")
    known_hashes = {pin_hash(pin) for pin in corpus}
    if args.update_corpus and result.corpus_candidates:
        path = write_pins(args.corpus, corpus + result.corpus_candidates)
        promoted = [pin_hash(pin) for pin in result.corpus_candidates]
        fresh = [key for key in promoted if key not in known_hashes]
        print(f"promoted {len(fresh)} new schedules into {path}")
        known_hashes.update(promoted)
    # A violation whose shrunk schedule is not already a committed corpus
    # entry is new and un-triaged: fail so CI surfaces it.
    new_violations = [
        v for v in result.violations if v["spec_hash"] not in known_hashes
    ]
    if new_violations:
        for violation in new_violations:
            print(
                f"!! new invariant violation: {violation['violation']['monitor']} "
                f"({violation['spec_hash']}) — triage and commit to the corpus",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.oracle.service import build_service

    service = build_service(
        args.workload,
        args.n,
        parity=not args.no_parity,
        latency_seconds=args.latency,
        **_flags(args, "engine", "seed", "churn", "epoch_timeout"),
        **_flags(args, *_TUNING),
    )
    result = service.serve(args.epochs, progress=_progress(args))
    epochs_per_sec = result.epochs_per_sec or 0.0
    certs_per_sec = result.certs_per_sec or 0.0
    parity_checked = sum(1 for report in result.reports if report.parity is not None)
    print(
        f"# serve {result.workload} engine={result.engine} n={result.n}: "
        f"{result.epochs} epochs in {result.wall_seconds:.2f}s "
        f"({epochs_per_sec:.2f} epochs/sec, {certs_per_sec:.2f} certs/sec, "
        f"{result.events_processed} events)"
    )
    print(
        f"# chain: {result.chain_entries} valid certificates, "
        f"{result.chain_validations} validations; parity checks: "
        f"{parity_checked}/{result.epochs}; skipped epochs: {len(result.skipped)}"
    )
    lines = {
        skip.epoch: f"  epoch {skip.epoch:>3}: SKIPPED after {skip.attempts} "
        f"attempt(s) ({skip.reason})"
        for skip in result.skipped
    }
    for report in result.reports:
        line = (
            f"  epoch {report.epoch:>3}: value={report.value:.6g} "
            f"signers={report.certificate.signer_count}"
        )
        if report.offline_nodes:
            line += f" offline={list(report.offline_nodes)}"
        if report.parity is not None:
            line += f" parity={report.parity}"
        lines[report.epoch] = line
    for epoch in sorted(lines):
        print(lines[epoch])
    if args.json_path:
        _write_json(args.json_path, result.as_dict())
    return 1 if result.skipped else 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import tempfile

    from repro.oracle.cluster import (
        ClusterConfig,
        ClusterSupervisor,
        CrashPlan,
        build_cluster_config,
    )

    if args.config_path is not None:
        config = ClusterConfig.load(args.config_path)
    else:
        runtime_dir = args.runtime_dir or tempfile.mkdtemp(prefix="repro-cluster-")
        config = build_cluster_config(
            args.workload,
            args.n,
            runtime_dir=runtime_dir,
            **_flags(args, "epochs", "seed", "host", "base_port", *_MESH, *_TUNING),
        )
    if args.write_config:
        print(f"wrote {config.write(args.write_config)}")
        return 0
    crash = None
    if args.crash_node is not None:
        crash = CrashPlan(node=args.crash_node, epoch=args.crash_epoch)
    supervisor = ClusterSupervisor(
        config, spawn=not args.no_spawn, crash=crash, progress=_progress(args)
    )
    verdict = supervisor.run()
    _print_cluster_verdict("cluster", verdict)
    if args.json_path:
        _write_json(args.json_path, verdict)
    certified = all(entry["outcome"] == "certified" for entry in verdict["epochs"])
    return 0 if verdict["ok"] and certified else 1


def _print_cluster_verdict(command: str, verdict: Dict[str, Any]) -> None:
    """Print a cluster run's summary line, one line per epoch and one per
    violation (``repro cluster`` and ``repro chaos`` alike)."""
    observed = verdict["observed"]
    details = {detail["epoch"]: detail for detail in observed["epoch_details"]}
    outcomes = [entry["outcome"] for entry in verdict["epochs"]]
    print(
        f"# {command} seed={verdict['seed']} n={verdict['n']} "
        f"workload={verdict['workload']}: "
        f"{outcomes.count('certified')}/{verdict['epochs_planned']} epochs "
        f"certified, {outcomes.count('skipped')} skipped, "
        f"{len(verdict['violations'])} violations, "
        f"{len(observed['restarts'])} restarts in "
        f"{observed['wall_seconds']:.2f}s, ok={verdict['ok']}"
    )
    for entry in verdict["epochs"]:
        line = f"  epoch {entry['epoch']:>3}: "
        if entry["outcome"] == "certified":
            detail = details[entry["epoch"]]
            line += (
                f"value={detail['value']:.6g} signers={detail['signers']} "
                f"certs_from={detail['cert_senders']}"
            )
        else:
            line += entry["outcome"].upper() + (
                f" ({entry['reason']})" if "reason" in entry else ""
            )
        print(line)
    for violation in verdict["violations"]:
        print(f"!! {violation['monitor']}: {violation['detail']}")


def _cmd_cluster_node(args: argparse.Namespace) -> int:
    import asyncio

    from repro.oracle.cluster import ClusterConfig, run_node

    config = ClusterConfig.load(args.config)
    committed = asyncio.run(run_node(config, args.node_id, log=sys.stderr))
    print(
        f"node {args.node_id}: committed {len(committed)} epochs "
        f"{sorted(committed)}",
        file=sys.stderr,
    )
    return 0


def _parse_timed_spec(text: str, flag: str, least: int, most: int) -> List[float]:
    """Parse a ``NODE:AT[:EXTRA]`` / ``PROB:START:END`` style CLI value of
    ``least`` to ``most`` colon-separated numbers."""
    parts = text.split(":")
    try:
        if not least <= len(parts) <= most:
            raise ValueError
        return [float(part) for part in parts]
    except ValueError:
        count = str(most) if least == most else f"{least}-{most}"
        raise ConfigurationError(
            f"malformed --{flag} {text!r} (expected {count} colon-separated numbers)"
        ) from None


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile
    import time

    from repro.net.chaos import WireFaults
    from repro.net.network import LossWindow
    from repro.oracle.chaos import (
        ChaosSchedule,
        KillSpec,
        PauseSpec,
        standard_schedule,
        write_verdict,
    )
    from repro.oracle.cluster import ClusterSupervisor, build_cluster_config

    if args.n < 4:
        raise ConfigurationError(f"chaos runs need n >= 4, got {args.n}")
    if args.schedule_path is not None:
        schedule = ChaosSchedule.load(args.schedule_path)
    elif args.standard:
        schedule = standard_schedule(args.n)
    else:
        kills = tuple(
            KillSpec(int(f[0]), f[1], *(f[2:3]))
            for f in (_parse_timed_spec(s, "kill", 2, 3) for s in args.kills or ())
        )
        pauses = tuple(
            PauseSpec(int(f[0]), f[1], *(f[2:3]))
            for f in (_parse_timed_spec(s, "pause", 2, 3) for s in args.pauses or ())
        )
        losses = tuple(
            LossWindow(start=f[1], end=f[2], probability=f[0])
            for f in (_parse_timed_spec(s, "loss", 3, 3) for s in args.losses or ())
        )
        schedule = ChaosSchedule(
            kills=kills, pauses=pauses, wire=WireFaults(losses=losses)
        )
    seed = args.seed if args.seed is not None else schedule.seed
    runtime_root = Path(args.runtime_dir or tempfile.mkdtemp(prefix="repro-chaos-"))
    started = time.monotonic()
    failed: List[int] = []
    iteration = 0
    while True:
        iter_schedule = schedule.with_seed(seed + iteration)
        iter_dir = runtime_root / f"iter-{iteration}" if args.soak else runtime_root
        config = build_cluster_config(
            args.workload,
            args.n,
            seed=iter_schedule.seed,
            runtime_dir=iter_dir,
            **_flags(args, "epochs", *_MESH),
        )
        gateway = None
        if args.gateway_port is not None:
            from repro.oracle.gateway import build_gateway

            gateway = build_gateway(
                args.workload,
                args.n,
                engine="fast",
                seed=iter_schedule.seed,
                port=args.gateway_port,
            )
        verdict = ClusterSupervisor(
            config, schedule=iter_schedule, progress=_progress(args), gateway=gateway
        ).run()
        _print_cluster_verdict("chaos", verdict)
        if not args.no_artifact:
            print(f"wrote {write_verdict(args.output, verdict)}")
        if not verdict["ok"]:
            failed.append(verdict["seed"])
        iteration += 1
        if not args.soak or time.monotonic() - started >= args.soak_budget:
            break
    if args.soak:
        print(
            f"# soak: {iteration} iterations in "
            f"{time.monotonic() - started:.1f}s, {len(failed)} failed"
            + (f" (seeds {failed})" if failed else "")
        )
    return 1 if failed else 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.oracle.gateway import build_gateway

    async def serve() -> None:
        gateway = build_gateway(
            args.workload,
            args.n,
            **_flags(args, "engine", "seed", "churn", "host", "port"),
            **_flags(args, "queue_limit", "history_limit", *_TUNING),
        )
        host, port = await gateway.start()
        print(f"# gateway {args.workload} n={args.n} listening on {host}:{port}")
        try:
            await gateway.run_epochs(
                args.epochs, interval=args.epoch_interval, progress=_progress(args)
            )
            metrics = gateway.metrics()
            print(
                f"# served {metrics['certs_published']} certificates to "
                f"{metrics['subscribers_total']} subscribers "
                f"({metrics['evictions']} evictions, "
                f"{metrics['send_drops']} dropped sends, "
                f"{metrics['epochs_skipped']} epochs skipped)"
            )
        finally:
            await gateway.close()

    asyncio.run(serve())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.oracle.loadgen import run_loadgen, write_histogram

    report = run_loadgen(
        progress=_progress(args),
        **_flags(args, "workload", "engine", "n", "epochs", "seed", "queue_limit"),
        **_flags(args, "subscribers", "stalled", "publishers"),
    )
    latency = report.latency_summary()
    certs_per_sec = report.certs_per_sec
    print(
        f"# loadgen {report.workload} n={report.n}: {report.epochs} epochs to "
        f"{report.subscribers} subscribers (+{report.stalled} stalled, "
        f"{report.publishers} publishers) in {report.wall_seconds:.2f}s"
    )
    print(
        f"# delivered {report.certs_received}/{report.certs_expected} certificates "
        + (f"({certs_per_sec:,.0f} certs/sec) " if certs_per_sec else "")
        + f"lost={report.certs_lost} evictions={report.evictions} "
        f"drops={report.send_drops}"
    )
    if latency["samples"]:
        print(
            f"# delivery latency: p50 {latency['p50_ms']:.2f}ms, "
            f"p99 {latency['p99_ms']:.2f}ms, max {latency['max_ms']:.2f}ms "
            f"({latency['samples']} samples)"
        )
    if report.publishers:
        print(
            f"# ticks: {report.ticks_accepted} accepted, "
            f"{report.epochs_from_ticks}/{report.epochs} epochs fed from ticks"
        )
    if args.json_path:
        _write_json(args.json_path, report.as_dict())
    if args.histogram_path:
        write_histogram(report, args.histogram_path)
        print(f"wrote {args.histogram_path}")
    if report.certs_lost > args.max_lost:
        print(
            f"loadgen failed: {report.certs_lost} certificates lost by "
            f"non-evicted subscribers (tolerated: {args.max_lost})",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except ReproError as error:
        # Covers configuration mistakes and designed runtime failures such
        # as the perf suite's EquivalenceError — clean message, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
