"""Tests for the fingerprint gate (``python -m repro perf``)."""

import json
import re
from pathlib import Path

import pytest

import repro.perf.suite as suite_module
from repro.errors import ConfigurationError, EquivalenceError
from repro.experiments.cli import main as cli_main
from repro.perf.suite import (
    BASELINE_SCHEMA,
    SCENARIOS,
    PerfScenario,
    compare_to_baseline,
    load_baseline,
    run_scenario,
    run_suite,
    select_scenarios,
)

COMMITTED_BASELINE = str(
    Path(__file__).resolve().parent.parent / "benchmarks" / "perf_baseline.json"
)

#: Flags `repro perf` had before it became the fingerprint gate only.
REMOVED_FLAGS = (
    ["--skip-reference"],
    ["--output", "somewhere"],
    ["--no-artifact"],
    ["--profile"],
    ["--compare", "old.json"],
    ["--regression-threshold", "0.2"],
    ["--summary", "summary.md"],
    ["--sharding-table"],
)


def tiny_scenario(name="tiny-delphi", quick=True):
    """A real but very small simulation scenario (fractions of a second)."""
    from repro.analysis.parameters import derive_parameters
    from repro.core.delphi import DelphiNode
    from repro.net.latency import UniformLatency
    from repro.net.network import AsynchronousNetwork, DeliveryPolicy
    from repro.sim.runtime import SimulationConfig, SimulationRuntime

    def run(engine):
        n = 5
        params = derive_parameters(n=n, epsilon=1.0, delta_max=4.0, max_rounds=3)
        nodes = {
            i: DelphiNode(node_id=i, params=params, value=99.0 + i * 0.5)
            for i in range(n)
        }
        runtime = SimulationRuntime(
            nodes=nodes,
            network=AsynchronousNetwork(
                num_nodes=n,
                latency=UniformLatency(seed=1),
                policy=DeliveryPolicy(reorder=True, seed=1),
            ),
            config=SimulationConfig(engine=engine),
        )
        result = runtime.run()
        return {
            "outputs": {str(k): v for k, v in sorted(result.outputs.items())},
            "events": result.events_processed,
            "bits": result.trace.total_bits,
        }

    return PerfScenario(name=name, quick=quick, run=run)


def diverging_scenario(name="tiny-diverging"):
    """A scenario whose two engines deliberately disagree."""
    return PerfScenario(name=name, quick=True, run=lambda engine: {"engine": engine})


@pytest.fixture
def tiny_basket(monkeypatch):
    """Swap the scenario table for one tiny scenario; returns its fingerprint."""
    monkeypatch.setattr(suite_module, "SCENARIOS", (tiny_scenario(),))
    return run_scenario(tiny_scenario())


def write_baseline(tmp_path, **payload):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": BASELINE_SCHEMA, **payload}))
    return str(path)


class TestBasket:
    def test_basket_covers_required_scenarios(self):
        names = {scenario.name for scenario in SCENARIOS}
        assert {"delphi-n40-aws", "delphi-n160-aws", "abraham-n40-aws"} <= names
        assert any("smr" in name for name in names)

    def test_quick_subset_excludes_n160(self):
        quick_names = {scenario.name for scenario in select_scenarios(quick=True)}
        assert "delphi-n160-aws" not in quick_names
        assert "delphi-n40-aws" in quick_names

    def test_select_by_name(self):
        chosen = select_scenarios(names=["abraham-n40-aws"])
        assert [scenario.name for scenario in chosen] == ["abraham-n40-aws"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            select_scenarios(names=["no-such-scenario"])


class TestRunScenario:
    def test_both_engines_agree_on_one_fingerprint(self):
        engines = []
        scenario = tiny_scenario()
        recording = PerfScenario(
            name=scenario.name,
            quick=True,
            run=lambda engine: engines.append(engine) or scenario.run(engine),
        )
        fingerprint = run_scenario(recording)
        assert engines == ["fast", "reference"]
        assert len(fingerprint) == 64
        assert fingerprint == run_scenario(scenario)

    def test_diverging_engines_raise(self):
        with pytest.raises(EquivalenceError, match="tiny-diverging"):
            run_scenario(diverging_scenario())


class TestCommittedFingerprints:
    """Both engines reproduce the fingerprint committed for each scenario."""

    TIER1 = (
        "delphi-n40-aws",
        "oracle-smr-e3-n13-aws",
        "oracle-service-e4-n7-churn",
        "oracle-gateway-n7",
    )
    SLOW = ("abraham-n40-aws", "delphi-n160-aws", "sharded-delphi-n1000")

    @pytest.mark.parametrize(
        "name", [*TIER1, *(pytest.param(name, marks=pytest.mark.slow) for name in SLOW)]
    )
    def test_committed_fingerprint_reproduces(self, name):
        (scenario,) = select_scenarios(names=[name])
        assert run_scenario(scenario) == load_baseline(COMMITTED_BASELINE)[name]

    def test_every_scenario_is_covered(self):
        assert {*self.TIER1, *self.SLOW} == {scenario.name for scenario in SCENARIOS}


class TestBaseline:
    def test_fingerprint_gate_exact_match(self, tiny_basket):
        ran = {"tiny-delphi": tiny_basket}
        assert compare_to_baseline(ran, {"tiny-delphi": tiny_basket}) == []
        (failure,) = compare_to_baseline(ran, {"tiny-delphi": "0" * 64})
        assert "tiny-delphi" in failure and "0" * 64 in failure

    def test_scenario_missing_from_baseline_fails(self, tiny_basket):
        (failure,) = compare_to_baseline({"tiny-delphi": tiny_basket}, {})
        assert "tiny-delphi" in failure

    def test_committed_scenarios_that_did_not_run_are_skipped(self, tiny_basket):
        committed = {"tiny-delphi": tiny_basket, "other": "0" * 64}
        assert compare_to_baseline({"tiny-delphi": tiny_basket}, committed) == []

    def test_load_returns_fingerprint_table(self, tmp_path, tiny_basket):
        path = write_baseline(
            tmp_path, recorded="2026-10-01", fingerprints={"tiny-delphi": tiny_basket}
        )
        assert load_baseline(path) == {"tiny-delphi": tiny_basket}

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope", "fingerprints": {}}))
        with pytest.raises(ConfigurationError, match="schema"):
            load_baseline(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_baseline(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("text", ["{not json", "[]", '"repro-perf-baseline/1"'])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_baseline(str(path))

    def test_unknown_keys_rejected_by_name(self, tmp_path):
        """An old-shape file must not look as if its floors were enforced."""
        path = write_baseline(
            tmp_path, fingerprints={}, events_per_sec={}, max_regression=2.0
        )
        with pytest.raises(ConfigurationError, match="events_per_sec, max_regression"):
            load_baseline(path)

    @pytest.mark.parametrize("table", [None, ["not", "a", "table"]])
    def test_fingerprints_must_be_a_table(self, tmp_path, table):
        payload = {} if table is None else {"fingerprints": table}
        with pytest.raises(ConfigurationError, match="fingerprints"):
            load_baseline(write_baseline(tmp_path, **payload))

    def test_committed_name_outside_the_scenario_table_rejected(self, tmp_path):
        path = write_baseline(tmp_path, fingerprints={"no-such-scenario": "0" * 64})
        with pytest.raises(ConfigurationError, match="no-such-scenario"):
            load_baseline(path)

    def test_committed_baseline_loads_and_names_match_basket(self):
        with open(COMMITTED_BASELINE) as handle:
            assert set(json.load(handle)) == {"schema", "recorded", "fingerprints"}
        committed = load_baseline(COMMITTED_BASELINE)
        assert set(committed) == {scenario.name for scenario in SCENARIOS}


class TestPerfCli:
    def test_perf_cli_single_scenario(self, capsys):
        code = cli_main(
            [
                "perf",
                "--scenario",
                "oracle-smr-e3-n13-aws",
                "--quiet",
                "--check",
                COMMITTED_BASELINE,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "oracle-smr-e3-n13-aws" in captured.out
        assert "1 fingerprint(s) match" in captured.out
        assert captured.err == ""

    def test_run_suite_smoke_with_tiny_basket(self, tiny_basket):
        messages = []
        assert run_suite(quick=True, progress=messages.append) == {
            "tiny-delphi": tiny_basket
        }
        assert len(messages) == 2  # one progress line per engine

    def test_writes_no_file(self, tmp_path, monkeypatch, tiny_basket):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["perf", "--quiet"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_matching_table_exits_zero(self, tmp_path, capsys, tiny_basket):
        path = write_baseline(tmp_path, fingerprints={"tiny-delphi": tiny_basket})
        assert cli_main(["perf", "--quiet", "--check", path]) == 0
        assert tiny_basket in capsys.readouterr().out

    def test_fingerprint_mismatch_exits_one(self, tmp_path, capsys, tiny_basket):
        path = write_baseline(tmp_path, fingerprints={"tiny-delphi": "0" * 64})
        assert cli_main(["perf", "--quiet", "--check", path]) == 1
        assert "tiny-delphi" in capsys.readouterr().err

    def test_scenario_without_committed_fingerprint_exits_one(
        self, tmp_path, capsys, tiny_basket
    ):
        path = write_baseline(tmp_path, fingerprints={})
        assert cli_main(["perf", "--quiet", "--check", path]) == 1
        assert "tiny-delphi" in capsys.readouterr().err

    def test_bad_table_exits_two_before_running_anything(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(suite_module, "SCENARIOS", (diverging_scenario(),))
        path = write_baseline(tmp_path, fingerprints={}, events_per_sec={})
        assert cli_main(["perf", "--quiet", "--check", path]) == 2
        assert "events_per_sec" in capsys.readouterr().err

    def test_engine_disagreement_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(suite_module, "SCENARIOS", (diverging_scenario(),))
        assert cli_main(["perf", "--quiet"]) == 2
        assert "different results" in capsys.readouterr().err

    def test_perf_has_exactly_four_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["perf", "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--quick", "--scenario", "--check", "--quiet"}

    @pytest.mark.parametrize("flag", REMOVED_FLAGS, ids=lambda flag: flag[0])
    def test_removed_flag_is_an_argparse_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["perf", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
