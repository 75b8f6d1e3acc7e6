"""Reproduction of *Delphi: Efficient Asynchronous Approximate Agreement for
Distributed Oracles* (Bandarupalli et al., DSN 2024).

The package is organised as a layered system:

``repro.sim``
    Deterministic discrete-event simulation runtime that drives protocol
    nodes under adversarial (asynchronous) message scheduling.

``repro.net``
    Network substrate: messages with exact size accounting, authenticated
    channels, latency and bandwidth models.

``repro.crypto``
    HMAC-authenticated channels, hashing, simulated (threshold) signatures
    and common coins used by the baseline protocols.

``repro.adversary``
    Byzantine fault-injection strategies (crash, equivocation, arbitrary
    values, delays) and adaptive corruption.

``repro.protocols``
    Agreement building blocks: weak Binary-Value broadcast, the BinAA
    binary approximate-agreement protocol (Algorithm 1), Bracha reliable
    broadcast, binary Byzantine agreement, and the baseline protocols the
    paper compares against (Abraham et al., Dolev et al., FIN, HoneyBadger).

``repro.core``
    The paper's primary contribution: the multi-level checkpointed Delphi
    protocol (Algorithm 2), its weighted cross-level aggregation, the
    message-bundling optimisation and the DORA oracle-reporting extension.

``repro.distributions``
    Input distributions, extreme-value theory used to derive the
    maximum-range parameter ``Delta`` and distribution fitting.

``repro.workloads``
    Synthetic workload generators for the paper's two applications: a
    Bitcoin price oracle network and drone-based object localisation.

``repro.testbed``
    Models of the paper's two testbeds (geo-distributed AWS and a
    Raspberry-Pi CPS cluster) used to convert message traces into
    simulated runtimes and bandwidth.

``repro.analysis``
    Parameter derivation, range analysis, analytic complexity formulas
    (Tables I-III) and experiment reporting helpers.

``repro.experiments``
    Declarative experiment harness: scenario/sweep specs, a parallel
    executor with spec-hash result caching, JSON/CSV artifacts, the
    paper's figures as named presets and the ``python -m repro`` CLI.
"""

from repro._version import __version__
from repro.analysis.parameters import DelphiParameters
from repro.core.delphi import DelphiNode, DelphiOutput
from repro.core.dora import DoraNode
from repro.protocols.binaa import BinAANode
from repro.runner import ProtocolRunResult, run_delphi, run_protocol

__all__ = [
    "__version__",
    "BinAANode",
    "DelphiNode",
    "DelphiOutput",
    "DelphiParameters",
    "DoraNode",
    "ProtocolRunResult",
    "run_delphi",
    "run_protocol",
]
