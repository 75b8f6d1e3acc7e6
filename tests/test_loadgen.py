"""Tests for the gateway load generator: report accounting, fd-limit
handling, live end-to-end runs (healthy + stalled populations, tick
publishers), the histogram artifact and the ``repro loadgen`` CLI."""

import asyncio
import json
import time

import pytest

import repro.oracle.loadgen as loadgen_module
from repro.errors import ConfigurationError, LivenessTimeout
from repro.experiments.cli import main
from repro.oracle.loadgen import (
    LoadgenReport,
    raise_fd_limit,
    run_loadgen_async,
    write_histogram,
)
from repro.oracle.service import OracleService


def run(coroutine):
    return asyncio.run(coroutine)


def small_report(**overrides):
    options = dict(
        workload="sensors",
        engine="fast",
        n=4,
        epochs=2,
        subscribers=8,
        stalled=0,
        publishers=0,
    )
    options.update(overrides)
    return LoadgenReport(**options)


class TestLoadgenReport:
    def test_zero_wall_seconds_rate_is_none(self):
        report = small_report()
        assert report.certs_per_sec is None
        assert json.loads(json.dumps(report.as_dict()))["certs_per_sec"] is None

    def test_rate_and_latency_summary(self):
        report = small_report(wall_seconds=2.0, certs_received=16)
        report.latencies_ms = [float(value) for value in range(1, 101)]
        assert report.certs_per_sec == 8.0
        latency = report.latency_summary()
        assert latency["samples"] == 100
        assert latency["p50_ms"] == 51.0  # nearest-rank on 1..100
        assert latency["p99_ms"] == 100.0
        assert latency["max_ms"] == 100.0

    def test_empty_latency_summary_and_histogram(self):
        report = small_report()
        assert report.latency_summary() == {
            "samples": 0,
            "p50_ms": None,
            "p99_ms": None,
            "max_ms": None,
        }
        assert report.histogram() == {"samples": 0, "buckets": []}

    def test_histogram_buckets_cover_all_samples(self):
        report = small_report()
        report.latencies_ms = [0.0, 1.0, 2.0, 3.0, 10.0, 10.0]
        histogram = report.histogram(buckets=5)
        assert histogram["samples"] == 6
        assert sum(histogram["counts"]) == 6
        assert histogram["low_ms"] == 0.0
        assert histogram["high_ms"] == 10.0
        assert len(histogram["counts"]) == 5

    def test_identical_samples_histogram_single_bucket(self):
        report = small_report()
        report.latencies_ms = [5.0, 5.0, 5.0]
        histogram = report.histogram(buckets=4)
        assert sum(histogram["counts"]) == 3


class TestFdLimit:
    def test_already_sufficient_limit_untouched(self):
        assert raise_fd_limit(1) >= 1

    def test_returns_effective_limit(self):
        # Asking for slightly more than we have either succeeds (returns
        # the target) or is refused by the hard limit (returns the old
        # soft limit) — both are valid, both must be >= the old soft.
        import resource

        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        assert raise_fd_limit(soft) == soft
        assert raise_fd_limit(soft + 1) >= soft


class TestRunLoadgen:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            run(run_loadgen_async(subscribers=-1))
        with pytest.raises(ConfigurationError):
            run(run_loadgen_async(epochs=0, subscribers=1))

    def test_small_run_zero_loss(self):
        report = run(
            run_loadgen_async(
                workload="sensors", n=4, epochs=2, subscribers=20, seed=3
            )
        )
        assert report.certs_published == 2
        assert report.certs_expected == 40
        assert report.certs_received == 40
        assert report.certs_lost == 0
        assert report.incomplete_subscribers == 0
        assert report.evictions == 0
        assert report.certs_per_sec is not None and report.certs_per_sec > 0
        latency = report.latency_summary()
        assert latency["samples"] == 40
        assert latency["p99_ms"] >= latency["p50_ms"] >= 0.0
        assert report.gateway_metrics["certs_published"] == 2
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["certs_lost"] == 0

    def test_a_skipped_epoch_is_not_lost_certificates(self, monkeypatch):
        """A watchdog-skipped epoch publishes no certificate, so nobody can
        miss it.  Counted against ``epochs`` instead, it read as 5 lost
        certificates, and the drain waited its whole 30 s for them."""
        real_run_epoch = OracleService.run_epoch
        state = {"failed": False}

        def fail_once(self):
            if not state["failed"]:
                state["failed"] = True
                raise LivenessTimeout("transient stall")
            return real_run_epoch(self)

        monkeypatch.setattr(OracleService, "run_epoch", fail_once)
        started = time.monotonic()
        report = run(
            run_loadgen_async(
                workload="sensors", engine="fast", n=4, epochs=3, subscribers=5
            )
        )
        assert time.monotonic() - started < 10.0
        assert report.gateway_metrics["epochs_skipped"] == 1
        assert report.certs_published == 2
        assert report.certs_expected == report.certs_received == 10
        assert report.certs_lost == 0 and report.incomplete_subscribers == 0

    def test_publishers_feed_ticks_without_hurting_delivery(self):
        report = run(
            run_loadgen_async(
                workload="sensors",
                n=4,
                epochs=2,
                subscribers=5,
                publishers=2,
                seed=3,
            )
        )
        assert report.certs_lost == 0
        assert report.ticks_accepted > 0

    def test_stalled_population_does_not_cost_healthy_subscribers(self):
        report = run(
            run_loadgen_async(
                workload="sensors",
                n=4,
                epochs=2,
                subscribers=10,
                stalled=3,
                seed=3,
            )
        )
        # The hard CI invariant: stalled clients may or may not be evicted
        # (kernel socket buffers can absorb a short run), but healthy
        # subscribers never lose a certificate either way.
        assert report.certs_lost == 0
        assert report.incomplete_subscribers == 0
        assert report.certs_received == 20


class TestHistogramArtifact:
    def test_write_histogram_schema(self, tmp_path):
        report = small_report()
        report.latencies_ms = [1.0, 2.0, 3.0]
        path = tmp_path / "histogram.json"
        write_histogram(report, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-loadgen-histogram/1"
        assert payload["latency"]["samples"] == 3
        assert sum(payload["histogram"]["counts"]) == 3


class TestLoadgenCli:
    def test_cli_end_to_end_with_artifacts(self, tmp_path, capsys):
        out = tmp_path / "load.json"
        histogram = tmp_path / "latency.json"
        code = main(
            [
                "loadgen",
                "--workload",
                "sensors",
                "--n",
                "4",
                "--epochs",
                "2",
                "--subscribers",
                "10",
                "--seed",
                "3",
                "--quiet",
                "--json",
                str(out),
                "--histogram",
                str(histogram),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "delivered 20/20 certificates" in stdout
        payload = json.loads(out.read_text())
        assert payload["certs_lost"] == 0
        assert json.loads(histogram.read_text())["schema"] == (
            "repro-loadgen-histogram/1"
        )

    def test_cli_max_lost_gate_fails_run(self, capsys, monkeypatch):
        def fake_run_loadgen(**options):
            report = small_report(subscribers=options.get("subscribers", 8))
            report.wall_seconds = 1.0
            report.certs_received = 14
            report.certs_expected = 16
            report.certs_lost = 2
            return report

        monkeypatch.setattr(loadgen_module, "run_loadgen", fake_run_loadgen)
        code = main(
            ["loadgen", "--workload", "sensors", "--subscribers", "8", "--quiet"]
        )
        assert code == 1
        assert "certificates lost" in capsys.readouterr().err

    def test_cli_max_lost_gate_tolerates_when_raised(self, monkeypatch):
        def fake_run_loadgen(**options):
            report = small_report()
            report.wall_seconds = 1.0
            report.certs_lost = 2
            return report

        monkeypatch.setattr(loadgen_module, "run_loadgen", fake_run_loadgen)
        code = main(
            [
                "loadgen",
                "--workload",
                "sensors",
                "--quiet",
                "--max-lost",
                "5",
            ]
        )
        assert code == 0

    def test_cli_rejects_bad_counts(self, capsys):
        code = main(["loadgen", "--subscribers", "-1", "--quiet"])
        assert code == 2
