"""Tests for the coverage-guided adversarial-schedule search
(:mod:`repro.faults.search`): mutator validity properties (hypothesis),
search determinism, shrinker behaviour, corpus persistence and the
``repro fuzz`` CLI."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.experiments.cli import main as cli_main
from repro.experiments.spec import ScenarioSpec
from repro.faults.campaign import PINS_SCHEMA, load_pins, make_pin, replay_pin, write_pins
from repro.faults.search import (
    FUZZ_SCHEMA,
    MUTATORS,
    ScheduleSearch,
    _base_spec,
    fuzz_schedules,
    mutate,
)
from repro.faults.spec import FaultSpec, fault_spec_of
from repro.protocols.base import byzantine_bound

# ----------------------------------------------------------------------
# Mutator validity properties.  Mutations are pure spec->spec transforms,
# so these properties run without touching the simulation engines.

mutator_walks = st.lists(
    st.integers(min_value=0, max_value=len(MUTATORS) - 1), min_size=1, max_size=8
)
rng_seeds = st.integers(min_value=0, max_value=2**32 - 1)
protocols = st.sampled_from(["delphi", "fin"])


def apply_walk(protocol, walk, rng_seed):
    """Apply a fixed mutator sequence, returning every intermediate spec."""
    rng = random.Random(rng_seed)
    spec = _base_spec(protocol)
    trail = [spec]
    for index in walk:
        _name, mutator = MUTATORS[index]
        spec = mutator(rng, spec)
        trail.append(spec)
    return trail


class TestMutatorProperties:
    @given(protocol=protocols, walk=mutator_walks, rng_seed=rng_seeds)
    @settings(max_examples=60)
    def test_mutants_round_trip_through_json(self, protocol, walk, rng_seed):
        """Every mutant survives the ScenarioSpec and FaultSpec JSON codecs
        with an identical spec hash (what the corpus and cache key on)."""
        for spec in apply_walk(protocol, walk, rng_seed):
            rebuilt = ScenarioSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert rebuilt.spec_hash() == spec.spec_hash()
            faults = fault_spec_of(spec) or FaultSpec()
            assert FaultSpec.from_dict(
                json.loads(json.dumps(faults.to_dict()))
            ).to_dict() == faults.to_dict()

    @given(protocol=protocols, walk=mutator_walks, rng_seed=rng_seeds)
    @settings(max_examples=60)
    def test_mutants_respect_the_corruption_budget(self, protocol, walk, rng_seed):
        """Mutants never opt out of the Byzantine model: allow_over_budget
        stays off and the corrupted set stays within t = (n-1)//3."""
        for spec in apply_walk(protocol, walk, rng_seed):
            faults = fault_spec_of(spec) or FaultSpec()
            assert not faults.allow_over_budget
            corrupted = faults.corrupted_ids(spec.n)  # must not raise
            assert len(corrupted) <= byzantine_bound(spec.n)

    @given(protocol=protocols, walk=mutator_walks, rng_seed=rng_seeds)
    @settings(max_examples=60)
    def test_same_seed_gives_byte_identical_mutants(self, protocol, walk, rng_seed):
        """Mutation is a pure function of (rng seed, input spec): replaying
        the same walk yields byte-identical JSON at every step."""
        first = apply_walk(protocol, walk, rng_seed)
        second = apply_walk(protocol, walk, rng_seed)
        for a, b in zip(first, second):
            assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
                b.to_dict(), sort_keys=True
            )

    @given(walk=mutator_walks, rng_seed=rng_seeds)
    @settings(max_examples=60)
    def test_mutants_keep_the_liveness_and_budget_flags(self, walk, rng_seed):
        """No mutator may reset ``expect_termination``/``allow_over_budget``:
        a waived-liveness cell whose mutant silently expects termination
        again would report its stall as a false violation."""
        from repro.faults.spec import CorruptionSpec

        flagged = FaultSpec(
            corruptions=(
                CorruptionSpec("bogus-report", nodes=(2,), activation_time=0.05),
            ),
            allow_over_budget=True,
            expect_termination=False,
        )
        rng = random.Random(rng_seed)
        spec = _base_spec("delphi").replace(n=7, faults=flagged.to_dict())
        for index in walk:
            spec = MUTATORS[index][1](rng, spec)
            faults = fault_spec_of(spec)
            assert faults.expect_termination is False
            assert faults.allow_over_budget is True
            assert not faults.terminating()
            for group in faults.corruptions:
                if group.strategy == "bogus-report":
                    assert group.nodes == (2,)  # retiming keeps the target

    @given(protocol=protocols, rng_seed=rng_seeds)
    @settings(max_examples=30)
    def test_driver_mutate_changes_the_spec_or_returns_it(self, protocol, rng_seed):
        spec = _base_spec(protocol)
        mutated = mutate(random.Random(rng_seed), spec)
        # Either a genuinely different schedule or (rarely) an unchanged
        # spec after exhausting attempts — never a half-mutated invalid one.
        fault_spec_of(mutated)
        mutated.spec_hash()


# ----------------------------------------------------------------------
# Search engine behaviour (small budgets: each unit costs one engine run).


class TestScheduleSearch:
    def test_fuzz_is_deterministic_for_a_seed(self):
        runs = [
            fuzz_schedules(
                protocols=("delphi",), budget=8, seed=3, min_margin=0.95
            ).to_payload()
            for _ in range(2)
        ]
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(
            runs[1], sort_keys=True
        )
        assert runs[0]["schema"] == FUZZ_SCHEMA
        assert runs[0]["runs"] == 8

    def test_different_seeds_explore_differently(self):
        a = fuzz_schedules(protocols=("delphi",), budget=8, seed=0).to_payload()
        b = fuzz_schedules(protocols=("delphi",), budget=8, seed=11).to_payload()
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_margins_are_finite_and_leaderboard_ranked(self):
        result = fuzz_schedules(protocols=("delphi",), budget=10, seed=1)
        assert result.leaderboard, "search kept no near-misses"
        fitnesses = [entry["fitness"] for entry in result.leaderboard]
        assert fitnesses == sorted(fitnesses)
        for entry in result.leaderboard:
            for value in entry["margins"].values():
                assert math.isfinite(value)

    def test_budget_is_an_engine_run_ceiling(self):
        search = ScheduleSearch(protocols=("delphi",), budget=5, seed=0)
        result = search.run()
        assert result.runs == 5
        assert search.runs == 5

    def test_shrinker_drops_inert_fault_windows(self):
        """A delay window entirely past the run horizon changes nothing;
        the shrinker must strip it while preserving the fitness bar."""
        from repro.net.network import DelayWindow

        search = ScheduleSearch(protocols=("delphi",), budget=1, seed=0)
        spec = _base_spec("delphi").replace(
            workload="bitcoin",
            faults=FaultSpec(
                delays=(DelayWindow(start=50.0, end=51.0, extra=0.05),)
            ).to_dict(),
        )
        evaluation = search.evaluate(spec, count_budget=False)
        assert evaluation.violation is None
        shrunk = search.shrink(evaluation)
        shrunk_faults = fault_spec_of(shrunk.spec) or FaultSpec()
        assert not shrunk_faults.delays
        assert shrunk.fitness <= evaluation.fitness

    def test_shrinker_keeps_violations_on_the_same_monitor(self):
        """Shrinking a violating schedule may simplify it but must keep the
        same monitor firing."""
        from repro.faults.spec import CorruptionSpec, register_strategy

        def breaker(ctx):
            from repro.adversary.base import HonestWithInput
            from repro.analysis.parameters import derive_parameters
            from repro.core.delphi import DelphiNode

            params = derive_parameters(
                n=ctx.scenario.n,
                epsilon=ctx.scenario.epsilon,
                rho0=ctx.scenario.rho0,
                delta_max=ctx.scenario.delta_max,
                max_rounds=ctx.scenario.max_rounds,
            )
            return HonestWithInput(DelphiNode(ctx.node_id, params, value=999.0))

        register_strategy("test-search-breaker", breaker)
        try:
            spec = _base_spec("delphi").replace(
                n=7,
                seed=5,
                faults=FaultSpec(
                    corruptions=(
                        CorruptionSpec("test-search-breaker", count=3),
                    ),
                    allow_over_budget=True,
                    expect_termination=False,
                ).to_dict(),
            )
            search = ScheduleSearch(protocols=("delphi",), budget=1, seed=0)
            evaluation = search.evaluate(spec, count_budget=False)
            assert evaluation.violation is not None
            monitor = evaluation.violation["monitor"]
            shrunk = search.shrink(evaluation)
            assert shrunk.violation is not None
            assert shrunk.violation["monitor"] == monitor
        finally:
            from repro.faults.spec import STRATEGY_FACTORIES

            STRATEGY_FACTORIES.pop("test-search-breaker", None)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            ScheduleSearch(protocols=("delphi",), budget=0)
        with pytest.raises(ConfigurationError):
            ScheduleSearch(protocols=())


# ----------------------------------------------------------------------
# Corpus persistence + replay drift detection.


class TestCorpusPersistence:
    @staticmethod
    def _pin():
        search = ScheduleSearch(protocols=("delphi",), budget=1, seed=0)
        evaluation = search.evaluate(_base_spec("delphi"), count_budget=False)
        pin = make_pin(
            evaluation.spec, "delphi-epsilon_margin",
            status=evaluation.status, margins=dict(evaluation.margins),
        )
        return evaluation, pin

    def test_save_load_round_trip_dedupes_by_hash(self, tmp_path):
        evaluation, pin = self._pin()
        path = tmp_path / "corpus.json"
        # A copy whose stored hash is wrong still dedupes: the hash is
        # derived from the spec.
        write_pins(str(path), [pin, dict(pin, spec_hash="stale")])
        loaded = load_pins(str(path))
        assert len(loaded) == 1
        assert loaded[0]["spec"] == evaluation.spec.to_dict()
        assert json.loads(path.read_text())["schema"] == PINS_SCHEMA

    def test_missing_corpus_is_empty(self, tmp_path):
        assert load_pins(str(tmp_path / "absent.json")) == []

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/1", "entries": []}))
        with pytest.raises(ConfigurationError):
            load_pins(str(path))

    def test_replay_detects_margin_drift(self, tmp_path):
        _evaluation, pin = self._pin()
        _verdict, problems = replay_pin(pin)
        assert problems == []
        tampered = dict(pin, margins={"epsilon_margin": -1.0})
        _verdict, problems = replay_pin(tampered)
        assert problems and "margins drifted" in problems[0]
        stale = dict(pin, status="violation")
        _verdict, problems = replay_pin(stale)
        assert any("status drifted" in p for p in problems)


# ----------------------------------------------------------------------
# CLI.


class TestFuzzCli:
    def test_cli_writes_deterministic_leaderboard(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = cli_main(
                [
                    "fuzz",
                    "--budget",
                    "6",
                    "--protocol",
                    "delphi",
                    "--seed",
                    "2",
                    "--no-corpus",
                    "--quiet",
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
        artifact_a = (out_a / "FUZZ_seed2.json").read_bytes()
        artifact_b = (out_b / "FUZZ_seed2.json").read_bytes()
        assert artifact_a == artifact_b
        payload = json.loads(artifact_a)
        assert payload["schema"] == FUZZ_SCHEMA
        assert payload["budget"] == 6

    def test_cli_update_corpus_promotes_shrunk_schedules(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        code = cli_main(
            [
                "fuzz",
                "--budget",
                "25",
                "--protocol",
                "delphi",
                "--seed",
                "0",
                "--corpus",
                str(corpus_path),
                "--update-corpus",
                "--no-artifact",
                "--quiet",
            ]
        )
        assert code == 0
        entries = load_pins(str(corpus_path))
        assert entries, "no schedules promoted"
        for entry in entries:
            assert entry["status"] != "violation"
            assert entry["origin"] == "fuzz-seed-0"
            assert replay_pin(entry)[1] == []  # what tier-1 will check
