"""Pinned-schedule regression tests: replay every committed pin on both
engines with the runtime invariant monitors attached.

Two committed pin files (schema ``repro-fault-pins/1``, one loader, one
replay check — :func:`repro.faults.campaign.replay_pin`):

* ``tests/data/fault_corpus.json`` — hand-written regression seeds that
  historically exposed liveness bugs, among them the FIN ACS early-vote
  stall seeds.  Most record no status, so they must stay ``ok``; the FIN
  election-cap seeds record ``stalled``, which their loss window allows.
  Any other replay means a fixed bug silently regressed.
* ``tests/data/adversarial_corpus.json`` — the fuzzer's shrunk near-misses
  (:mod:`repro.faults.search`), with their status and margins recorded;
  the margins must reproduce exactly.  ``repro fuzz --update-corpus``
  rewrites this file and only this one.

``docs/TESTING.md`` ("Pins") covers how to add either kind.
"""

import math
from pathlib import Path

import pytest

from repro.faults.campaign import (
    load_pins,
    pin_hash,
    replay_pin,
    run_cell_engine,
    smoke_campaign,
)

DATA = Path(__file__).parent / "data"
SEEDS = load_pins(str(DATA / "fault_corpus.json"))
FUZZED = load_pins(str(DATA / "adversarial_corpus.json"))


def test_corpus_schema():
    labels = [pin["label"] for pin in SEEDS]
    assert len(labels) == len(set(labels)), "duplicate seed labels"
    assert any("fin-early-vote-stall" in label for label in labels), (
        "the FIN ACS early-vote stall seeds must stay in the corpus"
    )
    for family in ("fin-decided-silence", "fin-election-cap"):
        assert sum(family in label for label in labels) == 2, family


def test_corpus_schema_and_coverage():
    hashes = [pin_hash(pin) for pin in FUZZED]
    assert len(hashes) == len(set(hashes)), "duplicate fuzzed schedules"
    # The fuzzer must have contributed at least 3 shrunk near-misses, each
    # naming the channel it was saved for, with every margin finite.
    assert len([p for p in FUZZED if p["origin"].startswith("fuzz-seed-")]) >= 3
    for pin in FUZZED:
        assert pin["channel"] in pin["margins"]
        assert all(math.isfinite(value) for value in pin["margins"].values())


@pytest.mark.parametrize("pin", [pytest.param(p, id=p["label"]) for p in SEEDS + FUZZED])
def test_corpus_seed_stays_green(pin):
    verdict, problems = replay_pin(pin)
    assert problems == [], (
        f"{pin['label']}: {problems} violation={verdict.fast.violation}"
    )


def test_fuzzed_epsilon_margin_beats_the_fixed_smoke_matrix():
    """The acceptance bar for the search: a committed fuzz-found schedule
    drives the epsilon-agreement margin strictly below anything the fixed
    smoke campaign observes on the same protocol (delphi).  Fast engine
    only — the per-pin replay test above already pins both engines."""
    smoke_best = math.inf
    for spec in smoke_campaign().cells():
        if spec.protocol != "delphi":
            continue
        margin = run_cell_engine(spec, "fast").margins.get("epsilon_margin")
        if margin is not None:
            smoke_best = min(smoke_best, margin)
    corpus_best = min(
        pin["margins"]["epsilon_margin"]
        for pin in FUZZED
        if pin["spec"]["protocol"] == "delphi" and "epsilon_margin" in pin["margins"]
    )
    assert corpus_best < smoke_best, (
        f"corpus best epsilon margin {corpus_best} does not beat the fixed "
        f"smoke matrix's {smoke_best}"
    )
