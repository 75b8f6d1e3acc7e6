"""What the benchmark declares: workloads, end-to-end and per-layer metrics.

This module is the single source of the names; ``BENCHMARK.json`` at the
repo root is :func:`benchmark_json` written out (the self-test asserts they
are equal) and the runner prints exactly these names.  It imports nothing
from ``repro`` so the runner can load it before ``src/`` is on the path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 20

#: ``(name, why)`` — one line each; the README has the long form.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "delphi-n40-aws",
        "the paper's AWS oracle cell (Fig. 6a) at n=40: flat Delphi on the fast engine; "
        "node handlers take most of the loop, the engine the rest",
    ),
    (
        "sharded-n64-aws",
        "same engine and Delphi core behind a non-flat topology and group/reps "
        "namespace wrapping, at ~3.5x the per-event cost of the flat run",
    ),
    (
        "faults-smoke",
        "set-up-dominated: smoke fault campaign passes on both engines at n in {4,7}; "
        "construction, reference engine, observers and fault plane do the work",
    ),
    (
        "live-n7-sockets",
        "bypasses both simulator engines: asyncio engine over real authenticated "
        "sockets, DORA signatures, SMR and gateway fan-out to WebSocket subscribers",
    ),
)

#: ``(name, unit, better, bound)`` — reported by every workload, never 0.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("ops_per_cal", "1/cal", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: ``(name, unit, better)`` — printed by the traced run on every workload;
#: a metric reads 0 on a workload that never enters that layer.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # sim: the engines (fast / reference) as seen from around run_*.
    ("sim.events", "count", "lower"),
    ("sim.latency_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.cpu_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.self_ns_per_event", "ns", "lower"),
    ("sim.trace_overhead_pct", "%", "lower"),
    # protocols: node handlers and topology, through the timing proxies.
    ("protocols.handler_calls", "count", "lower"),
    ("protocols.handler_s", "s", "lower"),
    ("protocols.handler_ns_per_call", "ns", "lower"),
    ("protocols.useful_call_ratio", "ratio", "higher"),
    ("protocols.outbound_msgs", "count", "lower"),
    ("protocols.topology_calls", "count", "lower"),
    ("protocols.topology_s", "s", "lower"),
    # net: modelled traffic (sim runs) and the real wire (live run).
    ("net.messages", "count", "lower"),
    ("net.megabytes", "MB", "lower"),
    ("net.bytes_per_message", "B", "lower"),
    ("net.wire_ms_per_epoch", "ms", "lower"),
    ("net.transport_open_ms_p50", "ms", "lower"),
    ("net.transport_close_ms_p50", "ms", "lower"),
    ("net.put_calls_per_epoch", "count", "lower"),
    ("net.put_ms_per_epoch", "ms", "lower"),
    ("net.get_calls_per_epoch", "count", "lower"),
    ("net.frames_sent_per_epoch", "count", "lower"),
    ("net.auth_failures", "count", "lower"),
    ("net.frame_errors", "count", "lower"),
    ("net.connections_reset", "count", "lower"),
    ("net.dropped_after_close", "count", "lower"),
    ("net.dumps_us_per_msg", "us", "lower"),
    ("net.loads_us_per_msg", "us", "lower"),
    ("net.seal_us_per_frame", "us", "lower"),
    ("net.open_us_per_frame", "us", "lower"),
    ("net.wire_bytes_per_msg", "B", "lower"),
    ("net.wire_to_model_bytes_ratio", "ratio", "lower"),
    # faults: spans around run_cell_engine.
    ("faults.fast_cell_ms_p50", "ms", "lower"),
    ("faults.reference_cell_ms_p50", "ms", "lower"),
    ("faults.reference_to_fast_ratio", "ratio", "lower"),
    ("faults.delphi_cell_ms_p50", "ms", "lower"),
    ("faults.fin_cell_ms_p50", "ms", "lower"),
    ("faults.events", "count", "lower"),
    ("faults.stalled_cells", "count", "lower"),
    ("faults.violations", "count", "lower"),
    ("faults.engine_mismatches", "count", "lower"),
    # oracle: service epochs, gateway publish and subscriber delivery.
    ("oracle.epoch_ms_p50", "ms", "lower"),
    ("oracle.epoch_ms_p90", "ms", "lower"),
    ("oracle.epoch_inmem_ms_p50", "ms", "lower"),
    ("oracle.cert_interval_ms_p50", "ms", "lower"),
    ("oracle.cert_interval_ms_p90", "ms", "lower"),
    ("oracle.publish_us_p50", "us", "lower"),
    ("oracle.deliver_ms_p50", "ms", "lower"),
    ("oracle.deliver_ms_p90", "ms", "lower"),
    ("oracle.events_per_epoch", "count", "lower"),
    ("oracle.stale_messages", "count", "lower"),
    ("oracle.skipped_epochs", "count", "lower"),
    ("oracle.send_drops", "count", "lower"),
    ("oracle.evictions", "count", "lower"),
    ("oracle.certs_delivered", "count", "higher"),
    # crypto: direct calls on SignatureScheme(num_nodes=7).
    ("crypto.sign_us", "us", "lower"),
    ("crypto.aggregate_us", "us", "lower"),
    ("crypto.verify_aggregate_us", "us", "lower"),
    # host: the untraced reference run in host seconds, and what
    # normalises rows across boxes and kernels.
    ("host.ops_per_s", "1/s", "higher"),
    ("host.cpu_us_per_op", "us", "lower"),
    ("host.cal_ms", "ms", "lower"),
    ("host.spin_s", "s", "lower"),
    ("host.nproc", "count", "higher"),
)


def workload_names() -> List[str]:
    return [name for name, _why in WORKLOADS]


def benchmark_json() -> Dict[str, Any]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
