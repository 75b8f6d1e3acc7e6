"""Declarative protocol-runner registry.

Historically ``experiments/cells.py`` dispatched on hard-coded
``spec.protocol in ("delphi", "dora")`` string checks, and the spec
validator, monitors, campaign presets, fuzz search, and CLI each carried
their own private protocol tables.  This module is the single source of
truth: a :class:`ProtocolRunner` entry names the protocol, classifies
its agreement property (which drives monitor construction), and runs it
for a :class:`ScenarioSpec` — ``run(spec, inputs, **env)`` derives the
protocol's own parameters from the spec and calls the public
``repro.runner.run_<protocol>`` helper, handing ``env`` (``network``,
``byzantine``, ``compute``, ``config``, ``observers``) through untouched.
New protocols plug in with one :func:`register_protocol` call instead of
edits at four call sites.

Entries import :mod:`repro.runner` lazily: it imports ``repro.protocols``
(a module-level import here would be circular), and this module is
re-exported from ``repro.protocols`` and must not drag the simulation
stack into every ``import repro.protocols``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Agreement classifications; monitors are built per kind.
EPSILON_AGREEMENT = "epsilon"
EXACT_AGREEMENT = "exact"
HIERARCHICAL_AGREEMENT = "hierarchical"

_AGREEMENT_KINDS = (EPSILON_AGREEMENT, EXACT_AGREEMENT, HIERARCHICAL_AGREEMENT)


@dataclass(frozen=True)
class ProtocolRunner:
    """One registered protocol.

    ``run(spec, inputs, **env)`` executes the protocol and returns a
    ``ProtocolRunResult``; ``derived`` optionally reports derived
    parameters (levels, rounds, topology shape) for the metrics dict.
    """

    name: str
    description: str
    agreement: str
    run: Callable[..., Any]
    derived: Optional[Callable[[Any], Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        if self.agreement not in _AGREEMENT_KINDS:
            raise ConfigurationError(
                f"unknown agreement kind {self.agreement!r}; "
                f"expected one of {_AGREEMENT_KINDS}"
            )


_REGISTRY: Dict[str, ProtocolRunner] = {}


def register_protocol(runner: ProtocolRunner, replace: bool = False) -> ProtocolRunner:
    """Register a protocol runner; ``replace=True`` overrides an entry."""
    if runner.name in _REGISTRY and not replace:
        raise ConfigurationError(f"protocol {runner.name!r} already registered")
    _REGISTRY[runner.name] = runner
    return runner


def get_protocol(name: str) -> ProtocolRunner:
    """Resolve a registered protocol or raise ``ConfigurationError``."""
    runner = _REGISTRY.get(name)
    if runner is None:
        raise ConfigurationError(
            f"unknown protocol {name!r} (known: {', '.join(protocol_names())})"
        )
    return runner


def is_known_protocol(name: str) -> bool:
    return name in _REGISTRY


def protocol_names() -> Tuple[str, ...]:
    """All registered protocol names, in registration order."""
    return tuple(_REGISTRY)


def protocols_by_agreement(kind: str) -> Tuple[str, ...]:
    return tuple(name for name, r in _REGISTRY.items() if r.agreement == kind)


def agreement_kind(name: str) -> Optional[str]:
    runner = _REGISTRY.get(name)
    return runner.agreement if runner is not None else None


def list_protocols() -> Tuple[ProtocolRunner, ...]:
    return tuple(_REGISTRY.values())


# ----------------------------------------------------------------------
# Built-in entries: spec -> the protocol's own parameters -> repro.runner.


def delphi_parameters(spec: Any):
    """The :class:`DelphiParameters` a scenario spec describes."""
    from repro.analysis.parameters import derive_parameters

    return derive_parameters(
        n=spec.n,
        epsilon=spec.epsilon,
        rho0=spec.rho0,
        delta_max=spec.delta_max,
        max_rounds=spec.max_rounds,
    )


def _delphi_derived(spec: Any) -> Dict[str, Any]:
    params = delphi_parameters(spec)
    return {"levels": params.level_count, "rounds": params.rounds}


def _runner(name: str) -> Callable[..., Any]:
    """``repro.runner.<name>``, imported at call time (see the module docstring)."""
    import repro.runner as runner_module

    return getattr(runner_module, name)


def _epsilon_rounds(spec: Any) -> Dict[str, Any]:
    """What the round-based baselines (abraham, dolev) take from a spec."""
    return {"epsilon": spec.epsilon, "delta_max": spec.delta_max, "rounds": spec.max_rounds}


def _sharded_parameters(spec: Any):
    from repro.protocols.sharded_delphi import sharded_parameters_of

    return sharded_parameters_of(spec)


def _sharded_derived(spec: Any) -> Dict[str, Any]:
    params = _sharded_parameters(spec)
    return {
        "num_groups": params.topology.num_groups,
        "group_sizes": [len(group) for group in params.topology.groups],
        "representatives": list(params.topology.representatives),
    }


register_protocol(
    ProtocolRunner(
        name="delphi",
        description="Delphi approximate agreement (Algorithm 2, bundled checkpoints)",
        agreement=EPSILON_AGREEMENT,
        run=lambda spec, inputs, **env: _runner("run_delphi")(
            delphi_parameters(spec), inputs, **env
        ),
        derived=_delphi_derived,
    )
)
register_protocol(
    ProtocolRunner(
        name="dora",
        description="DORA oracle agreement over the Delphi core",
        agreement=EPSILON_AGREEMENT,
        run=lambda spec, inputs, **env: _runner("run_dora")(
            delphi_parameters(spec), inputs, **env
        ),
        derived=_delphi_derived,
    )
)
register_protocol(
    ProtocolRunner(
        name="abraham",
        description="Abraham et al. synchronous approximate agreement baseline",
        agreement=EPSILON_AGREEMENT,
        run=lambda spec, inputs, **env: _runner("run_abraham")(
            spec.n, inputs, **_epsilon_rounds(spec), **env
        ),
    )
)
register_protocol(
    ProtocolRunner(
        name="dolev",
        description="Dolev et al. approximate agreement baseline",
        agreement=EPSILON_AGREEMENT,
        run=lambda spec, inputs, **env: _runner("run_dolev")(
            spec.n, inputs, **_epsilon_rounds(spec), **env
        ),
    )
)
register_protocol(
    ProtocolRunner(
        name="fin",
        description="FIN exact binary agreement baseline",
        agreement=EXACT_AGREEMENT,
        run=lambda spec, inputs, **env: _runner("run_fin")(spec.n, inputs, **env),
    )
)
register_protocol(
    ProtocolRunner(
        name="hbbft",
        description="HoneyBadgerBFT-style exact agreement baseline",
        agreement=EXACT_AGREEMENT,
        run=lambda spec, inputs, **env: _runner("run_hbbft")(spec.n, inputs, **env),
    )
)
register_protocol(
    ProtocolRunner(
        name="sharded-delphi",
        description=(
            "Two-level Delphi: per-group instances, an inter-group round "
            "among representatives, final value fanned back down"
        ),
        agreement=HIERARCHICAL_AGREEMENT,
        run=lambda spec, inputs, **env: _runner("run_sharded_delphi")(
            _sharded_parameters(spec), inputs, **env
        ),
        derived=_sharded_derived,
    )
)
