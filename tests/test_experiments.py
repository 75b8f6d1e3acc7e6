"""Tests for the declarative experiment harness (``repro.experiments``).

Covers the acceptance properties of the subsystem: stable spec hashing,
deterministic grid expansion and per-cell seeding, result caching keyed on
the spec hash, parallel-equals-serial execution, artifact writers, and the
``python -m repro`` CLI.
"""

from __future__ import annotations

import csv
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    PRESETS,
    ScenarioSpec,
    SweepExecutor,
    SweepSpec,
    list_presets,
    preset,
    run_cell,
)
from repro.experiments.cli import main as cli_main

#: A tiny, fast protocol configuration reused across tests.
TINY = ScenarioSpec(
    protocol="delphi", n=4, epsilon=1.0, delta_max=4.0, max_rounds=3, delta=2.0
)


def tiny_sweep(name: str = "tiny") -> SweepSpec:
    return SweepSpec(
        name=name,
        base=TINY,
        axes={"protocol": ["delphi", "fin"], "n": [4, 5]},
    )


class TestScenarioSpec:
    def test_hash_is_stable(self):
        assert TINY.spec_hash() == TINY.replace().spec_hash()
        assert TINY.spec_hash() == ScenarioSpec.from_dict(TINY.to_dict()).spec_hash()

    def test_hash_changes_with_any_field(self):
        base = TINY.spec_hash()
        assert TINY.replace(n=5).spec_hash() != base
        assert TINY.replace(seed=1).spec_hash() != base
        assert TINY.replace(extras={"minutes": 10}).spec_hash() != base

    def test_replace_routes_unknown_keys_to_extras(self):
        spec = TINY.replace(delta=3.0, minutes=42)
        assert spec.delta == 3.0
        assert spec.extras["minutes"] == 42

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="nope")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(protocol="nope")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(testbed="nope")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n=4, num_byzantine=4)


class TestSweepSpec:
    def test_grid_expansion(self):
        cells = tiny_sweep().cells()
        assert len(cells) == 4
        assert {(cell.protocol, cell.n) for cell in cells} == {
            ("delphi", 4), ("delphi", 5), ("fin", 4), ("fin", 5)
        }

    def test_derived_seeds_are_deterministic_and_coordinate_local(self):
        first = tiny_sweep().cells()
        second = tiny_sweep().cells()
        assert [cell.seed for cell in first] == [cell.seed for cell in second]
        # Adding an axis value must not reseed existing cells.
        wider = SweepSpec(
            name="tiny", base=TINY, axes={"protocol": ["delphi", "fin"], "n": [4, 5, 6]}
        ).cells()
        narrow = {(c.protocol, c.n): c.seed for c in first}
        wide = {(c.protocol, c.n): c.seed for c in wider}
        for coordinates, seed in narrow.items():
            assert wide[coordinates] == seed

    def test_variants_and_explicit_cells(self):
        sweep = SweepSpec(
            name="v",
            base=TINY,
            axes={"n": [4, 5]},
            variants=[{"name": "a", "delta": 1.0}, {"name": "b", "delta": 2.0}],
        )
        cells = sweep.cells()
        assert len(cells) == 4
        assert {cell.label for cell in cells} == {"a", "b"}
        explicit_only = SweepSpec(name="e", explicit=[TINY]).cells()
        assert explicit_only == [TINY]


class TestCells:
    def test_protocol_cell_metrics(self):
        metrics = run_cell(TINY)
        assert metrics["all_decided"] is True
        assert metrics["output_spread"] <= TINY.epsilon + 1e-9
        assert metrics["message_count"] > 0
        assert metrics["runtime_seconds"] > 0

    def test_workloads_and_testbeds(self):
        for workload in ("spread", "bitcoin", "sensors", "normal"):
            metrics = run_cell(TINY.replace(workload=workload, centre=50.0))
            assert metrics["decided_count"] == TINY.n, workload
        aws = run_cell(TINY.replace(testbed="aws"))
        cps = run_cell(TINY.replace(testbed="cps"))
        assert aws["runtime_seconds"] != cps["runtime_seconds"]

    def test_adversary_cell(self):
        metrics = run_cell(TINY.replace(n=4, adversary="crash", num_byzantine=1))
        assert metrics["num_byzantine"] == 1
        assert metrics["all_decided"] is True
        # Three crashes at n = 7 (t = 2): no honest node decides, and the
        # cell reports the stall instead of failing on an empty output set.
        for protocol in ("delphi", "fin"):
            spec = ScenarioSpec(protocol=protocol, n=7, adversary="crash", num_byzantine=3)
            stalled = run_cell(spec)
            assert stalled["all_decided"] is False, protocol
            assert stalled["decided_count"] == 0, protocol
            assert stalled["validity_margin"] == 0.0, protocol


class TestExecutor:
    def test_parallel_equals_serial(self):
        sweep = tiny_sweep()
        serial = SweepExecutor(parallel=False, progress=None).run(sweep)
        parallel = SweepExecutor(parallel=True, max_workers=2, progress=None).run(sweep)
        assert len(serial) == len(parallel) == 4
        assert serial.metrics_by_hash() == parallel.metrics_by_hash()

    def test_caching_skips_computed_cells(self, tmp_path):
        cache = str(tmp_path / "cache")
        executor = SweepExecutor(cache_dir=cache, parallel=False, progress=None)
        first = executor.run(tiny_sweep())
        assert first.cached_count == 0
        assert len(os.listdir(cache)) == 4
        second = executor.run(tiny_sweep())
        assert second.cached_count == 4
        assert first.metrics_by_hash() == second.metrics_by_hash()
        forced = executor.run(tiny_sweep(), force=True)
        assert forced.cached_count == 0
        assert forced.metrics_by_hash() == first.metrics_by_hash()

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        cache = str(tmp_path / "cache")
        executor = SweepExecutor(cache_dir=cache, parallel=False, progress=None)
        first = executor.run([TINY])
        path = os.path.join(cache, f"{TINY.spec_hash()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        second = executor.run([TINY])
        assert second.cached_count == 0
        assert second.metrics_by_hash() == first.metrics_by_hash()

    def test_progress_lines(self):
        lines = []
        SweepExecutor(parallel=False, progress=lines.append).run([TINY])
        assert len(lines) == 1
        assert "delphi" in lines[0] and TINY.spec_hash() in lines[0]


class TestExecutorChunking:
    def test_chunked_parallel_equals_serial(self):
        sweep = tiny_sweep()
        serial = SweepExecutor(parallel=False, progress=None).run(sweep)
        chunked = SweepExecutor(
            parallel=True, max_workers=2, chunk_size=3, progress=None
        ).run(sweep)
        assert len(chunked) == len(serial) == 4
        assert chunked.metrics_by_hash() == serial.metrics_by_hash()

    def test_chunk_larger_than_grid(self):
        sweep = tiny_sweep()
        serial = SweepExecutor(parallel=False, progress=None).run(sweep)
        one_shot = SweepExecutor(
            parallel=True, max_workers=2, chunk_size=100, progress=None
        ).run(sweep)
        assert one_shot.metrics_by_hash() == serial.metrics_by_hash()

    def test_chunked_results_stay_in_grid_order(self):
        executor = SweepExecutor(
            parallel=True, max_workers=2, chunk_size=2, progress=None
        )
        result = executor.run(tiny_sweep())
        expected = [spec.spec_hash() for spec in tiny_sweep().cells()]
        assert [cell.spec_hash for cell in result] == expected

    def test_chunked_runs_fill_the_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        executor = SweepExecutor(
            cache_dir=cache, parallel=True, max_workers=2, chunk_size=2, progress=None
        )
        executor.run(tiny_sweep())
        assert len(os.listdir(cache)) == 4
        again = SweepExecutor(cache_dir=cache, parallel=False, progress=None)
        assert again.run(tiny_sweep()).cached_count == 4

    def test_auto_chunk_scales_with_grid(self):
        executor = SweepExecutor(progress=None)
        assert executor._effective_chunk(pending=4, workers=4) == 1
        assert executor._effective_chunk(pending=160, workers=4) == 10
        # Huge grids are capped so progress stays responsive.
        assert executor._effective_chunk(pending=100_000, workers=4) == 16

    def test_explicit_chunk_wins_over_auto(self):
        executor = SweepExecutor(chunk_size=5, progress=None)
        assert executor._effective_chunk(pending=100_000, workers=4) == 5

    def test_chunk_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CHUNK", "7")
        assert SweepExecutor(progress=None).chunk_size == 7
        monkeypatch.setenv("REPRO_SWEEP_CHUNK", "junk")
        with pytest.raises(ConfigurationError):
            SweepExecutor(progress=None)

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(chunk_size=0, progress=None)


class TestArtifacts:
    def test_json_and_csv_writers(self, tmp_path):
        result = SweepExecutor(parallel=False, progress=None).run(tiny_sweep())
        json_path = result.write_json(str(tmp_path / "out" / "sweep.json"))
        with open(json_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["sweep"] == "tiny"
        assert len(payload["cells"]) == 4
        assert all("metrics" in cell and "spec" in cell for cell in payload["cells"])

        csv_path = result.write_csv(str(tmp_path / "sweep.csv"))
        with open(csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert {"runtime_seconds", "megabytes", "protocol", "n"} <= set(rows[0])

    def test_to_collector_renders_table(self):
        result = SweepExecutor(parallel=False, progress=None).run(tiny_sweep())
        collector = result.to_collector()
        assert len(collector.records) == 4
        table = collector.render_table("runtime_seconds")
        assert "delphi" in table and "fin" in table

    def test_metric_lookup(self):
        result = SweepExecutor(parallel=False, progress=None).run(tiny_sweep())
        assert result.metric("delphi", 4, "all_decided") is True
        with pytest.raises(KeyError):
            result.metric("delphi", 99, "all_decided")


class TestPresets:
    def test_registry_lists_all_presets(self):
        rows = list_presets()
        assert {name for name, _d, _c in rows} == set(PRESETS)
        assert all(count >= 1 for _n, _d, count in rows)

    def test_smoke_grid_is_at_least_12_cells(self):
        assert len(preset("smoke").cells()) >= 12

    def test_figure_presets_expand(self):
        assert len(preset("fig6a").cells()) == 12
        assert len(preset("fig6c").cells()) == 12
        assert len(preset("fig7-aws").cells()) == 9
        assert len(preset("fig4").cells()) == 1

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError):
            preset("nope")


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output and "fig6a" in output

    def test_sweep_dry_run(self, capsys):
        assert cli_main(["sweep", "smoke", "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "12 cells" in output
        assert output.count("hash=") == 12

    def test_sweep_executes_and_writes_artifacts(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        json_path = str(tmp_path / "out.json")
        argv = [
            "sweep", "faults", "--serial", "--quiet",
            "--cache-dir", cache, "--json", json_path,
        ]
        assert cli_main(argv) == 0
        output = capsys.readouterr().out
        assert "10 cells (0 cached, 10 computed)" in output
        assert os.path.exists(json_path)
        # Re-run: every cell must come from the cache.
        assert cli_main(argv) == 0
        output = capsys.readouterr().out
        assert "10 cells (10 cached, 0 computed)" in output

    def test_run_single_scenario(self, capsys):
        argv = [
            "run", "--protocol", "delphi", "--n", "4", "--delta-max", "4",
            "--max-rounds", "3", "--delta", "2",
        ]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["all_decided"] is True

    def test_unknown_preset_is_a_clean_error(self, capsys):
        assert cli_main(["sweep", "nope", "--dry-run"]) == 2
        assert "unknown preset" in capsys.readouterr().err
