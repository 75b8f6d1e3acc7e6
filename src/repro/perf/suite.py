"""The fingerprint gate: seven scenarios, two engines, one committed table.

Each :class:`PerfScenario` describes one simulation workload.  Running a
scenario executes it once per engine (``fast`` first, then ``reference``),
with fresh, identically seeded networks and nodes per run, and reduces every
run to a canonical *fingerprint* — a SHA-256 over the sorted-JSON projection
of the protocol outputs, simulated runtime, traffic totals and event count.
Identical fingerprints mean the two engines produced byte-identical results;
a mismatch raises :class:`~repro.errors.EquivalenceError` (the fast path's
correctness guarantee is broken).  ``benchmarks/perf_baseline.json`` pins
each scenario's fingerprint; they are machine-independent and must never
change for a pure performance PR.

Nothing here reads a clock.  Wall time is measured and gated in
``benchmarks/e2e`` only (repeats, calibration, alternating pairs).

The basket covers the paper's hot spots:

* ``delphi-n40-aws`` / ``delphi-n160-aws`` — Fig. 6a's AWS oracle sweep at
  a medium and the largest system size;
* ``sharded-delphi-n1000`` — the two-level sharded variant at n=1000
  (groups of 32), the scale-out cell flat Delphi's O(n^2) broadcasts
  cannot reach;
* ``abraham-n40-aws`` — one round-heavy baseline protocol;
* ``oracle-smr-e3-n13-aws`` — three epochs of the oracle service (the one
  in-process oracle round: agree, DORA attestation, SMR channel) over the
  AWS testbed's network and compute models, simulated time and traffic
  included;
* ``oracle-service-e4-n7-churn`` — four epochs of the epoch-pipelined
  oracle service (persistent PKI, epoch-tagged messages, rotating one-node
  churn, certificate-stream monitors) — the serving layer itself;
* ``oracle-gateway-n7`` — three epochs of the client-facing gateway
  streamed to 50 live WebSocket subscribers over real sockets.  The
  fingerprint covers the certified values and delivery totals, which are
  identical across engines.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, EquivalenceError
from repro.experiments.cells import build_inputs, run_spec
from repro.experiments.spec import ScenarioSpec
from repro.oracle.gateway import build_gateway
from repro.oracle.loadgen import run_loadgen_async
from repro.oracle.service import OracleService, build_service
from repro.sim.runtime import SimulationConfig
from repro.testbed.aws import AwsTestbed
from repro.workloads import epoch_parameters
from repro.workloads.bitcoin import BitcoinPriceFeed

#: Schema tag expected at the top of a baseline file.
BASELINE_SCHEMA = "repro-perf-baseline/1"


def _fingerprint(projection: Any) -> str:
    """SHA-256 over the canonical JSON of a result projection."""
    blob = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PerfScenario:
    """One entry of the basket (the module docstring says why each is there).

    ``run`` executes the scenario under the given engine name and returns
    its fingerprint projection: JSON-safe, and free of anything that may
    differ between two correct runs (wall time, object identities).
    ``quick`` marks scenarios included in the CI smoke basket.
    """

    name: str
    quick: bool
    run: Callable[[str], Dict[str, Any]]


# ----------------------------------------------------------------------
# Scenario implementations.


def _protocol(spec: ScenarioSpec) -> Callable[[str], Dict[str, Any]]:
    """One protocol run of ``spec`` through ``cells.run_spec``."""

    def runner(engine: str) -> Dict[str, Any]:
        result, _derived = run_spec(
            spec, build_inputs(spec), config=SimulationConfig(engine=engine)
        )
        return {
            "outputs": {str(k): v for k, v in sorted(result.outputs.items())},
            "runtime_seconds": result.runtime_seconds,
            "megabytes": result.total_megabytes,
            "message_count": result.message_count,
            "events_processed": result.events_processed,
        }

    return runner


def _oracle_smr(engine: str) -> Dict[str, Any]:
    """``oracle-smr-e3-n13-aws``: three oracle-service epochs on the AWS testbed."""
    n = 13
    testbed = AwsTestbed(num_nodes=n, seed=11)
    service = OracleService(
        epoch_parameters("bitcoin", n),
        BitcoinPriceFeed(seed=11),
        engine=engine,
        network_factory=lambda epoch: testbed.network(),
        compute=testbed.compute(),
    )
    result = service.serve(3)
    chain = [
        [entry.position, entry.submitter, float(entry.payload.value), entry.valid]
        for entry in service.chain.entries
    ]
    return {
        "epochs": [
            {
                **report.as_dict(),
                "runtime_seconds": report.runtime_seconds,
                "megabytes": report.megabytes,
            }
            for report in result.reports
        ],
        "chain": chain,
        "validations": result.chain_validations,
    }


def _oracle_service(engine: str) -> Dict[str, Any]:
    """``oracle-service-e4-n7-churn``: four epochs, rotating one-node churn."""
    # Parity is off here because the suite itself runs the scenario on
    # both engines and fingerprints the results — the stronger check.
    service = build_service("bitcoin", 7, engine=engine, seed=7, churn=1, parity=False)
    result = service.serve(4)
    return {
        "reports": [report.as_dict() for report in result.reports],
        "chain_entries": result.chain_entries,
        "chain_validations": result.chain_validations,
    }


def _oracle_gateway(engine: str) -> Dict[str, Any]:
    """``oracle-gateway-n7``: three epochs streamed to 50 WebSocket subscribers."""
    n, epochs, subscribers = 7, 3, 50

    async def drive():
        # Generous queue bound and no tick publishers: nothing
        # timing-dependent (evictions, tick-fed epochs) may leak into
        # the fingerprinted projection.
        gateway = build_gateway("bitcoin", n, engine=engine, seed=7, queue_limit=4096)
        await gateway.start()
        try:
            report = await run_loadgen_async(
                workload="bitcoin",
                engine=engine,
                n=n,
                epochs=epochs,
                subscribers=subscribers,
                publishers=0,
                gateway=gateway,
            )
            certificates = [
                {key: value for key, value in entry.items() if key != "published_at"}
                for entry in gateway.history(since=0, limit=epochs)
            ]
        finally:
            await gateway.close()
        return report, certificates

    report, certificates = asyncio.run(drive())
    return {
        "certificates": certificates,
        "subscribers": subscribers,
        "delivered": report.certs_received,
        "lost": report.certs_lost,
    }


#: The basket, in execution order.
SCENARIOS: Tuple[PerfScenario, ...] = (
    PerfScenario(
        name="delphi-n40-aws",
        quick=True,
        run=_protocol(ScenarioSpec(protocol="delphi", n=40, testbed="aws", seed=1)),
    ),
    PerfScenario(
        name="delphi-n160-aws",
        quick=False,
        run=_protocol(ScenarioSpec(protocol="delphi", n=160, testbed="aws", seed=1)),
    ),
    PerfScenario(
        name="sharded-delphi-n1000",
        quick=False,
        run=_protocol(
            ScenarioSpec(
                protocol="sharded-delphi",
                n=1000,
                testbed="aws",
                seed=1,
                extras={"group_size": 32},
            )
        ),
    ),
    PerfScenario(
        name="abraham-n40-aws",
        quick=True,
        run=_protocol(ScenarioSpec(protocol="abraham", n=40, testbed="aws", seed=2)),
    ),
    PerfScenario(name="oracle-smr-e3-n13-aws", quick=True, run=_oracle_smr),
    PerfScenario(name="oracle-service-e4-n7-churn", quick=True, run=_oracle_service),
    PerfScenario(name="oracle-gateway-n7", quick=True, run=_oracle_gateway),
)


def run_scenario(
    scenario: PerfScenario, progress: Optional[Callable[[str], None]] = None
) -> str:
    """Run one scenario on the fast and on the reference engine and return
    the fingerprint both produced.

    Raises
    ------
    EquivalenceError
        If the two engines disagree.
    """
    say = progress or (lambda message: None)
    say(f"[perf] {scenario.name}: fast engine ...")
    fast = _fingerprint(scenario.run("fast"))
    say(f"[perf] {scenario.name}: reference engine (equivalence oracle) ...")
    reference = _fingerprint(scenario.run("reference"))
    if fast != reference:
        raise EquivalenceError(
            f"scenario {scenario.name!r}: fast and reference engines produced "
            f"different results (fast {fast[:16]} != reference {reference[:16]})"
        )
    return fast


def select_scenarios(
    quick: bool = False, names: Optional[Sequence[str]] = None
) -> List[PerfScenario]:
    """The basket subset selected by CLI flags."""
    if names:
        known = {scenario.name: scenario for scenario in SCENARIOS}
        missing = [name for name in names if name not in known]
        if missing:
            raise ConfigurationError(
                f"unknown perf scenario(s) {', '.join(missing)} "
                f"(known: {', '.join(known)})"
            )
        return [known[name] for name in names]
    return [scenario for scenario in SCENARIOS if scenario.quick or not quick]


def run_suite(
    quick: bool = False,
    names: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, str]:
    """Run the selected basket; scenario name -> engine-agreed fingerprint."""
    return {
        scenario.name: run_scenario(scenario, progress=progress)
        for scenario in select_scenarios(quick=quick, names=names)
    }


def load_baseline(path: str) -> Dict[str, str]:
    """Load a committed baseline file and return its ``fingerprints`` table.

    Raises
    ------
    ConfigurationError
        On a missing or malformed file, a wrong schema, an unknown top-level
        key (named — an old-shape file with ``events_per_sec`` must not make
        anyone believe a floor is still enforced), or a fingerprint recorded
        for a name that is not in the scenario table.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ConfigurationError(f"cannot read baseline file {path}: {error}")
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != BASELINE_SCHEMA:
        raise ConfigurationError(
            f"baseline file {path} has schema {schema!r}, expected {BASELINE_SCHEMA!r}"
        )
    unknown = sorted(set(payload) - {"schema", "recorded", "fingerprints"})
    if unknown:
        raise ConfigurationError(
            f"baseline file {path}: unknown key(s) {', '.join(unknown)}"
        )
    fingerprints = payload.get("fingerprints")
    if not isinstance(fingerprints, dict):
        raise ConfigurationError(f"baseline file {path} has no fingerprints table")
    strangers = sorted(set(fingerprints) - {scenario.name for scenario in SCENARIOS})
    if strangers:
        raise ConfigurationError(
            f"baseline file {path} names {', '.join(strangers)}, "
            "which the scenario table does not have"
        )
    return fingerprints


def compare_to_baseline(
    fingerprints: Dict[str, str], committed: Dict[str, str]
) -> List[str]:
    """One line per scenario that ran and does not reproduce its committed
    fingerprint; empty means the gate passes.

    A scenario that ran without a committed entry fails (a new scenario
    lands together with its fingerprint).  Committed scenarios that did not
    run are skipped: ``--quick`` and ``--scenario`` run a subset.
    """
    return [
        f"{name}: fingerprint {fingerprint} != committed {committed.get(name)}"
        for name, fingerprint in fingerprints.items()
        if committed.get(name) != fingerprint
    ]
