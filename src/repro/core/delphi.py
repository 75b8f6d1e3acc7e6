"""The Delphi protocol node (Algorithm 2).

A Delphi node runs one BinAA instance per checkpoint per level, inputs 1 to
the two checkpoints closest to its own value at every level and 0 to every
other checkpoint, and — once every instance has completed its ``r_max``
iterations — aggregates the agreed checkpoint weights into its output with
the multi-level weighted average of :mod:`repro.core.aggregation`.

Two paper optimisations are built in:

* **Message bundling (Section III-C)** — all sub-protocol traffic a node
  produces while processing one event is sent as a single physical message
  (:mod:`repro.core.bundling`), and the all-zero region of checkpoints at
  each level shares a single BinAA engine (:mod:`repro.core.checkpoints`),
  so both the message count and the per-message size match the paper's
  ``~O(n^2)`` per-round communication.
* **Lazy checkpoint splitting** — a checkpoint leaves the shared all-zero
  block only when divergent information about it arrives, carrying the
  shared history with it, which is exactly equivalent to having run a
  dedicated instance from the start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.analysis.parameters import DelphiParameters
from repro.core.aggregation import LevelAggregate, aggregate_level, cross_level_output
from repro.core.bundling import Bundle, encode_bundle_sized, shared_decode
from repro.core.checkpoints import LevelState
from repro.net.message import Message
from repro.protocols.base import Outbound, ProtocolNode
from repro.protocols.binaa import BinAAEngine, SubMessage

PROTOCOL = "delphi"
BUNDLE = "BUNDLE"


@dataclass(frozen=True)
class DelphiOutput:
    """A Delphi node's decision together with its per-level breakdown."""

    value: float
    level_aggregates: Tuple[LevelAggregate, ...]

    def __float__(self) -> float:  # pragma: no cover - convenience
        return self.value


class _PendingEngines:
    """Count of a node's still-running BinAA engines.

    Every engine's ``on_complete`` is this counter's :meth:`done`, which
    points at the counter and not at the node, so node -> levels ->
    engine -> counter stays acyclic and a finished run is freed by refcount.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def done(self) -> None:
        self.count -= 1


class DelphiNode(ProtocolNode):
    """One node of the Delphi protocol.

    Parameters
    ----------
    node_id:
        This node's identifier.
    params:
        Static protocol configuration (see
        :class:`~repro.analysis.parameters.DelphiParameters`).
    value:
        The node's input ``v_i`` (its oracle/sensor measurement).
    scalar_output:
        When true (the default) the node's :attr:`output` is the plain float
        the application consumes; when false it is a :class:`DelphiOutput`
        carrying the per-level breakdown used by the analysis benchmarks.
    """

    def __init__(
        self,
        node_id: int,
        params: DelphiParameters,
        value: float,
        scalar_output: bool = True,
    ) -> None:
        super().__init__(node_id, params.n, params.t)
        self.params = params
        self.value = float(value)
        self.scalar_output = scalar_output
        self._levels: Dict[int, LevelState] = {}
        self._started = False
        self._round_trips = 0
        # Engines still running across all levels; decremented whenever a
        # handled sub-message completes an engine, so the per-event "has
        # everything terminated?" check is a single integer comparison.
        self._pending = _PendingEngines()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _new_engine(self) -> BinAAEngine:
        engine = BinAAEngine(n=self.n, t=self.t, rounds=self.params.rounds)
        # Completion feeds the pending-engine counter (split clones inherit
        # the callback), so termination checks never rescan collections.
        engine.on_complete = self._pending.done
        return engine

    def _setup_levels(self) -> Bundle:
        bundle = Bundle()
        for level in self.params.levels:
            separator = self.params.separator(level)
            own = tuple(self.params.nearest_checkpoints(level, self.value))
            state = LevelState(
                level=level,
                separator=separator,
                default_engine=self._new_engine(),
                own_checkpoints=own,
            )
            self._levels[level] = state
            self._pending.count += 1  # the default engine
            # Own checkpoints are explicit from the start with input 1.
            for index in own:
                state.register_explicit(index, self._new_engine())
                self._pending.count += 1
            exclude = state.exclude_key()
            for index in own:
                subs = state.explicit[index].start(1)
                bundle.add_explicit(level, exclude, index, subs)
            default_subs = state.default_engine.start(0)
            bundle.add_default(level, exclude, default_subs)
        return bundle

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def on_start(self) -> List[Outbound]:
        if self._started:
            raise ProtocolError("Delphi node already started")
        self._started = True
        bundle = self._setup_levels()
        return self._emit(bundle)

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        if message.protocol != PROTOCOL or message.mtype != BUNDLE:
            return []
        if not self._started or self._has_output:
            return []
        incoming = shared_decode(message)
        if incoming is None:
            # Malformed (Byzantine) bundle: discard entirely.
            return []
        outgoing = self._process_bundle(sender, incoming)
        if not self._pending.count and not self._has_output:
            self._maybe_decide()
        if outgoing is None:
            return []
        return self._emit(outgoing)

    # ------------------------------------------------------------------
    # Bundle processing
    # ------------------------------------------------------------------
    def _process_bundle(self, sender: int, incoming: Bundle) -> Optional[Bundle]:
        # Everything that depends on the payload alone was computed once per
        # distinct content by decode_bundle (the plan rows), and our explicit
        # set is a frozenset LevelState keeps current, so this path performs
        # no per-delivery sorts and both coverage tests are set against set.
        # The outgoing bundle is allocated lazily: the overwhelming majority
        # of deliveries emit nothing (``None`` is returned instead).
        outgoing: Optional[Bundle] = None
        levels = self._levels
        for (
            level, divergent_set, divergent, explicit_pairs, default_subs, excluded_by_sender
        ) in incoming.plan:
            state = levels.get(level)
            if state is None:
                continue
            explicit_map = state.explicit

            # 1. Split every checkpoint the sender no longer covers with its
            #    default block, so our shared block's history stays uniform.
            #    One subset test skips the whole scan in the common case
            #    where every divergent checkpoint is already explicit.
            if not divergent_set <= state.explicit_set:
                for index in divergent:
                    if index not in explicit_map:
                        engine = state.split(index)
                        if engine.output is None:
                            self._pending.count += 1

            # 2. Explicit sub-messages go to their dedicated engines.  The
            #    explicit set no longer changes below, so our exclude key is
            #    read only when something is emitted.
            for index, sub in explicit_pairs:
                emitted = explicit_map[index].handle(sender, sub)
                if emitted:
                    if outgoing is None:
                        outgoing = Bundle()
                    outgoing.add_explicit(level, state.exclude_key(), index, emitted)

            # 3. Default sub-messages go to our default engine and to every
            #    explicit engine the sender still covers with its default.
            if default_subs:
                default_engine = state.default_engine
                for sub in default_subs:
                    emitted = default_engine.handle(sender, sub)
                    if emitted:
                        if outgoing is None:
                            outgoing = Bundle()
                        outgoing.add_default(level, state.exclude_key(), emitted)
                if state.explicit_set <= excluded_by_sender:
                    # The sender tracks every one of our explicit
                    # checkpoints itself: its default covers none of them.
                    continue
                for index, engine in state.sorted_engines():
                    if index in excluded_by_sender:
                        continue
                    for sub in default_subs:
                        emitted = engine.handle(sender, sub)
                        if emitted:
                            if outgoing is None:
                                outgoing = Bundle()
                            outgoing.add_explicit(level, state.exclude_key(), index, emitted)
        return outgoing

    def _emit(self, bundle: Bundle) -> List[Outbound]:
        if not bundle.levels:
            # The common mid-round case: nothing to say this step.
            return []
        payload, payload_bits = encode_bundle_sized(bundle)
        if not payload:
            return []
        self._round_trips += 1
        # The codec accumulated the payload's exact wire size while
        # encoding, so the message is constructed pre-sized.
        return [
            self.broadcast(Message.sized(PROTOCOL, BUNDLE, None, payload, payload_bits))
        ]

    # ------------------------------------------------------------------
    # Aggregation (Algorithm 2, lines 13-24)
    # ------------------------------------------------------------------
    def _maybe_decide(self) -> None:
        # O(1) incremental check; the full terminated scan below runs once,
        # as a belt-and-braces guard on the counter bookkeeping.
        if self._pending.count or self._has_output:
            return
        if not all(state.terminated for state in self._levels.values()):
            return
        aggregates = []
        for level in self.params.levels:
            state = self._levels[level]
            weights = state.checkpoint_weights()
            checkpoint_values = {
                index: state.checkpoint_value(index) for index in weights
            }
            aggregates.append(
                aggregate_level(
                    level=level,
                    checkpoint_values=checkpoint_values,
                    weights=weights,
                    own_input=self.value,
                    eps_prime=self.params.eps_prime,
                )
            )
        value = cross_level_output(aggregates)
        if self.scalar_output:
            self._decide(value)
        else:
            self._decide(DelphiOutput(value=value, level_aggregates=tuple(aggregates)))

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and benchmarks
    # ------------------------------------------------------------------
    def level_state(self, level: int) -> LevelState:
        """The per-level state (for white-box tests)."""
        if level not in self._levels:
            raise ConfigurationError(f"unknown level {level}")
        return self._levels[level]

    @property
    def levels(self) -> Dict[int, LevelState]:
        """All per-level state, keyed by level index."""
        return self._levels

    @property
    def output_value(self) -> Optional[float]:
        """The scalar output regardless of ``scalar_output`` mode."""
        if not self.has_output:
            return None
        if isinstance(self.output, DelphiOutput):
            return self.output.value
        return float(self.output)
