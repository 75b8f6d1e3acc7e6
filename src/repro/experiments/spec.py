"""Declarative experiment descriptions: scenarios, sweeps and spec hashing.

A :class:`ScenarioSpec` is one *cell* of the paper's evaluation grid — one
protocol, at one system size, under one network model, one adversary and one
workload, with one seed — expressed as plain data.  A :class:`SweepSpec`
expands a base scenario along named axes (a cartesian grid) and/or a list of
per-series variants into the full list of cells.

Because a cell result is a pure function of its spec, the spec's canonical
hash (:meth:`ScenarioSpec.spec_hash`) doubles as the cache key used by
:class:`repro.experiments.executor.SweepExecutor` to skip already-computed
cells on re-run, and guarantees parallel and serial execution produce
identical results.

Example
-------
>>> from repro.experiments import ScenarioSpec, SweepSpec
>>> sweep = SweepSpec(
...     name="demo",
...     base=ScenarioSpec(protocol="delphi", epsilon=1.0, delta_max=16.0),
...     axes={"n": [5, 7, 10], "protocol": ["delphi", "fin"]},
... )
>>> len(sweep.cells())
6
"""

from __future__ import annotations

import hashlib
import itertools
import json
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.domains import AT_LEAST_ONE, FINITE, NON_NEGATIVE, POSITIVE, coerce, optional
from repro.errors import ConfigurationError
from repro.protocols.registry import PROTOCOLS

#: Scenario kinds with a registered cell function (see ``cells.py``).
KNOWN_KINDS = ("protocol", "bitcoin_range", "drone_iou")

#: Protocols the protocol cell can run, from the protocol table.
KNOWN_PROTOCOLS = tuple(PROTOCOLS)

#: Network/compute models a cell can run under.
KNOWN_TESTBEDS = ("lan", "aws", "cps", "ideal")

#: Input workloads for protocol cells.
KNOWN_WORKLOADS = ("spread", "bitcoin", "drone", "sensors", "normal")

#: Byzantine strategies a cell can attach to corrupted nodes.
KNOWN_ADVERSARIES = ("none", "crash", "delay", "equivocate", "random-bit", "spam")

#: Version token mixed into every spec hash.  Bump whenever a change outside
#: the spec itself alters cell results for the same spec (e.g. the PR-2 move
#: to per-pair block-drawn RNG streams), so stale on-disk caches are
#: invalidated instead of silently mixing old- and new-scheme numbers.
RESULT_SCHEME_VERSION = 2


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment cell, fully described as data.

    Parameters
    ----------
    name:
        Series label used in reports (defaults to the protocol name).
    kind:
        Which registered cell function runs this spec: ``"protocol"`` runs a
        protocol instance through the simulator; ``"bitcoin_range"`` and
        ``"drone_iou"`` are workload-analysis cells (Figs. 4 and 5).
    protocol, n, epsilon, rho0, delta_max, max_rounds:
        Protocol configuration.  ``rho0 = None`` follows the paper's static
        choice ``rho0 = epsilon``.
    testbed:
        ``"aws"`` (geo-distributed WAN model), ``"cps"`` (Raspberry-Pi
        cluster model), ``"lan"`` (small jittered network, the test suite's
        default) or ``"ideal"`` (the runner's built-in defaults).
    workload:
        Where honest inputs come from: ``"spread"`` (deterministic inputs
        spread across ``delta`` around ``centre``), ``"bitcoin"``,
        ``"drone"``, ``"sensors"`` or ``"normal"``.
    delta, centre:
        The realised honest input range and its centre (spread workload),
        also recorded as parameters for the other workloads.
    adversary, num_byzantine, adversarial_delay:
        Fault injection: strategy name, how many (highest-id) nodes are
        corrupted, and the extra network delay the adversary may add.
    seed:
        Master seed; every random component (network jitter, workload noise,
        adversary randomness) derives deterministically from it.
    extras:
        Free-form kind-specific parameters (e.g. ``minutes`` for the
        bitcoin-range cell).  Hashed along with everything else.
    """

    name: str = ""
    kind: str = "protocol"
    protocol: str = "delphi"
    n: int = 7
    epsilon: float = 1.0
    rho0: Optional[float] = None
    delta_max: float = 16.0
    max_rounds: Optional[int] = 6
    testbed: str = "lan"
    workload: str = "spread"
    delta: float = 4.0
    centre: float = 100.0
    adversary: str = "none"
    num_byzantine: int = 0
    adversarial_delay: float = 0.0
    seed: int = 0
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise ConfigurationError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "protocol" and self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if self.testbed not in KNOWN_TESTBEDS:
            raise ConfigurationError(f"unknown testbed {self.testbed!r}")
        if self.workload not in KNOWN_WORKLOADS:
            raise ConfigurationError(f"unknown workload {self.workload!r}")
        if self.adversary not in KNOWN_ADVERSARIES:
            raise ConfigurationError(f"unknown adversary {self.adversary!r}")
        domains = dict(
            n=AT_LEAST_ONE, epsilon=POSITIVE, rho0=optional(POSITIVE), centre=FINITE,
            delta_max=POSITIVE, delta=NON_NEGATIVE, adversarial_delay=NON_NEGATIVE,
        )
        coerce(self, domains, store=False)  # not stored: 16.0 for 16 moves spec_hash
        if not 0 <= self.num_byzantine < self.n:
            raise ConfigurationError("num_byzantine must be in [0, n)")
        if self.extras.get("faults"):
            # Parsed to be refused now, not when a cell runs; not stored, so
            # spec_hash is unchanged.  Imported here: repro.faults imports
            # this module.
            from repro.faults.spec import fault_spec_of

            fault_spec_of(self)

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable series label."""
        return self.name or self.protocol

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe) used for hashing and artifacts."""
        data = asdict(self)
        data["extras"] = dict(self.extras)
        return data

    def canonical_json(self) -> str:
        """Canonical serialisation: sorted keys, no whitespace."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable content hash of the spec — the executor's cache key.

        Includes :data:`RESULT_SCHEME_VERSION` so result-affecting changes
        to the simulator (not visible in the spec) invalidate old caches.
        """
        blob = f"v{RESULT_SCHEME_VERSION}:{self.canonical_json()}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def replace(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced.

        Keys that are not dataclass fields are merged into ``extras`` so
        sweep axes can carry kind-specific parameters.
        """
        known = {f.name for f in fields(self)}
        direct = {key: value for key, value in overrides.items() if key in known}
        extra = {key: value for key, value in overrides.items() if key not in known}
        if extra:
            merged = dict(self.extras)
            merged.update(extra)
            direct["extras"] = merged
        return replace(self, **direct)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`."""
        return cls().replace(**dict(data))


def _derived_seed(sweep_name: str, assignment: Mapping[str, Any]) -> int:
    """Deterministic per-cell seed from the cell's own grid coordinates.

    Depends only on the sweep name and the axis/variant values of the cell
    (not on grid order), so adding an axis value never reseeds existing
    cells and parallel and serial execution see identical seeds.
    """
    blob = json.dumps(
        {"sweep": sweep_name, "cell": {k: repr(v) for k, v in sorted(assignment.items())}},
        sort_keys=True,
    )
    return zlib.crc32(blob.encode("utf-8")) & 0x7FFFFFFF


@dataclass
class SweepSpec:
    """A full experiment grid: a base scenario expanded along axes/variants.

    ``cells()`` yields ``product(axes) x variants`` scenarios (plus any
    explicitly listed ``cells`` passed in).  ``axes`` maps a
    :class:`ScenarioSpec` field name (or an ``extras`` key) to the values it
    sweeps over; ``variants`` is a list of override dicts for non-product
    series (e.g. Fig. 6a's two Delphi input ranges next to one-config
    baselines).

    Per-cell seeding: if neither the axes nor a variant sets ``seed``, each
    cell receives a deterministic seed derived from the sweep name and the
    cell's own coordinates (see :func:`_derived_seed`); pass
    ``derive_seeds=False`` to inherit the base seed everywhere instead.
    """

    name: str
    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    variants: Sequence[Mapping[str, Any]] = ()
    explicit: Sequence[ScenarioSpec] = ()
    description: str = ""
    derive_seeds: bool = True

    def cells(self) -> List[ScenarioSpec]:
        """Expand the sweep into its ordered list of scenario cells."""
        if self.explicit and not self.axes and not self.variants:
            return list(self.explicit)
        axis_names = list(self.axes)
        axis_values = [list(self.axes[name]) for name in axis_names]
        variants: List[Mapping[str, Any]] = list(self.variants) or [{}]
        expanded: List[ScenarioSpec] = []
        for combo in itertools.product(*axis_values) if axis_names else [()]:
            assignment = dict(zip(axis_names, combo))
            for variant in variants:
                overrides = dict(assignment)
                overrides.update(variant)
                if self.derive_seeds and "seed" not in overrides:
                    overrides["seed"] = _derived_seed(
                        self.name, {**overrides, "base_seed": self.base.seed}
                    )
                expanded.append(self.base.replace(**overrides))
        expanded.extend(self.explicit)
        return expanded

    def __len__(self) -> int:
        return len(self.cells())
