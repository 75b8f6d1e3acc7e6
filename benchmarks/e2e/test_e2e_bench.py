"""Self-test of the benchmark harness (collected by tier-1, a few seconds).

Covers what the numbers rest on: the percentile and self-time arithmetic,
the transparency of the three timing proxies (a traced run computes what
the untraced run computes), and that the names the command prints are the
names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import gc
import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import declared  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    Tracer,
    TransportProxy,
    covered_ns,
    median,
    percentile,
)

from repro.oracle.service import build_service  # noqa: E402
from repro.sim.asyncio_runtime import InMemoryTransport  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TinyDelphi(workloads.DelphiN40Aws):
    """The headline workload's code path at a size a unit test can afford."""

    name = "tiny-delphi"
    n = 10


class TinySharded(workloads.ShardedN64Aws):
    name = "tiny-sharded"
    n = 24
    extras = {"group_size": 6}


def test_percentile_and_median_follow_the_rank_convention():
    sample = [float(value) for value in range(1, 121)]  # 120 samples
    assert percentile(sample, 0.5) == 61.0
    assert percentile(sample, 0.9) == 109.0  # eleven samples beyond it
    assert percentile(list(reversed(sample)), 0.9) == 109.0
    assert median([3.0]) == 3.0
    assert median([]) == 0.0  # a layer the workload never entered


def test_self_time_is_duration_minus_the_union_of_children():
    assert covered_ns([(10, 30), (20, 50), (70, 200)], start=0, end=100) == 70
    tracer = Tracer("self-time")
    with tracer.span("parent") as parent:
        with tracer.span("child"):
            time.sleep(0.01)
        with tracer.span("child"):
            time.sleep(0.01)
    spans = {span["id"]: span for span in tracer.with_self_times()}
    children = [span for span in spans.values() if span["parent"] == parent["id"]]
    assert len(children) == 2
    total = parent["end_ns"] - parent["start_ns"]
    covered = sum(child["end_ns"] - child["start_ns"] for child in children)
    assert spans[parent["id"]]["self_ns"] == total - covered
    assert all(child["self_ns"] == child["end_ns"] - child["start_ns"] for child in children)


def test_span_store_survives_more_threads_than_cores():
    tracer = Tracer("stress")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work() -> None:
            for _ in range(300):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(span["id"] for span in tracer.spans) == list(range(8 * 300 * 2))
    by_id = {span["id"]: span for span in tracer.spans}
    for span in tracer.spans:
        if span["name"] == "inner":
            assert by_id[span["parent"]]["name"] == "outer"
        else:
            assert span["parent"] is None


@pytest.mark.parametrize("tiny", [TinyDelphi, TinySharded])
def test_node_and_topology_proxies_are_transparent(tiny):
    plain = tiny(seed=5)
    traced = tiny(seed=5, tracer=Tracer(tiny.name))
    for workload in (plain, traced):
        workload.setup()
        workload.measure(0.0)
        attempted, failed, problems = workload.verify()
        assert (attempted, failed, problems) == (tiny.n, 0, [])
    assert traced.exact() == plain.exact()
    assert traced.result.outputs == plain.result.outputs
    layers = traced.layer_metrics()
    assert layers["sim.events"] == plain.result.events_processed
    assert layers["protocols.handler_calls"] >= layers["sim.events"]
    assert (layers["protocols.topology_calls"] > 0) == (tiny is TinySharded)
    accounted = layers["sim.self_s"] + layers["protocols.handler_s"] + layers["protocols.topology_s"]
    assert accounted == pytest.approx(layers["sim.run_s"], rel=0.01)


def test_transport_proxy_is_transparent():
    def certified(tracer):
        service = build_service("bitcoin", 7, engine="asyncio", seed=3, parity=False)
        sample = []
        if tracer is not None:
            service.transport_factory = lambda epoch: TransportProxy(
                InMemoryTransport(), tracer, "inmem", sample, 50
            )
        return [service.run_epoch() for _ in range(2)], sample

    plain, _ = certified(None)
    tracer = Tracer("transport")
    traced, sample = certified(tracer)
    assert [r.value for r in traced] == [r.value for r in plain]
    assert [r.events_processed for r in traced] == [r.events_processed for r in plain]
    assert len(sample) == 50
    assert tracer.counter("inmem.put").calls > 0
    assert len(tracer.durations_ms("inmem.open")) == 2
    assert len(tracer.durations_ms("inmem.close")) == 2


def test_declared_names_are_well_formed_and_match_benchmark_json():
    names = (
        declared.workload_names()
        + [name for name, *_ in declared.END_TO_END]
        + [name for name, *_ in declared.PER_LAYER]
    )
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(len(why) <= 200 and "\n" not in why for _name, why in declared.WORKLOADS)
    assert all(0 < bound <= 0.25 for *_rest, bound in declared.END_TO_END)
    assert len(declared.PER_LAYER) <= 128
    assert set(workloads.WORKLOADS) == set(declared.workload_names())
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == declared.benchmark_json()


def test_the_command_prints_exactly_the_declared_metrics(capsys, monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, TinyDelphi.name, TinyDelphi)
    monkeypatch.setattr(worker, "OUT", tmp_path)
    reports = {}
    try:
        for traced in (False, True):
            argv = ["--workload", TinyDelphi.name, "--seed", "5", "--seconds", "0",
                    "--spawned-at", repr(time.monotonic())]  # fmt: skip
            assert worker.main(argv + (["--traced"] if traced else [])) == 0
            reports[traced] = json.loads(capsys.readouterr().out.splitlines()[-1])
    finally:
        gc.unfreeze()
    assert (tmp_path / f"trace-{TinyDelphi.name}.json").is_file()
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())

    line = run.result_line(reports[False], traced=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == TinyDelphi.n and line["failed"] == 0
    assert list(line["metrics"]) == [metric["name"] for metric in committed["end_to_end"]]
    assert all(metric["value"] > 0 for metric in line["metrics"].values())

    merged = run.merge_traced(reports[True], reports[False])
    line = run.result_line(merged, traced=True)
    assert line["correct"]
    assert list(line["metrics"]) == [metric["name"] for metric in committed["per_layer"]]
    assert line["metrics"]["oracle.epoch_ms_p50"]["value"] == 0.0  # layer not entered
    assert line["metrics"]["sim.events"]["value"] > 0

    reports[False]["exact"] = {"fingerprint": "something else"}
    assert not run.result_line(run.merge_traced(reports[True], reports[False]), True)["correct"]
