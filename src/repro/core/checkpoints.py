"""Checkpoint and level bookkeeping for Delphi.

Delphi divides the input space into *checkpoints*: at level ``l`` the
checkpoints are the integer multiples of the separator ``rho_l = 2^l rho0``.
Every checkpoint has its own BinAA instance, and a node inputs 1 to the two
checkpoints closest to its own value and 0 to every other checkpoint
(Algorithm 2, lines 10-11).

Running a literal BinAA instance per checkpoint over the whole system range
``[s, e]`` would be infeasible, and Section III-C of the paper bundles the
messages of the (overwhelmingly many) all-zero checkpoints together.  This
module implements the state-level counterpart of that optimisation:

* checkpoints a node has explicit information about (its own 1-inputs, plus
  any checkpoint another node has diverged on) each get their own
  :class:`~repro.protocols.binaa.BinAAEngine`;
* all remaining checkpoints at a level share a single *default engine* whose
  input is 0.  Because every honest node inputs 0 to those checkpoints, the
  shared engine's history is identical to what each individual instance
  would have seen, so sharing is lossless.  When divergent information about
  a specific checkpoint arrives, that checkpoint is *split*: the default
  engine is cloned (carrying the full shared history) and becomes the
  checkpoint's explicit engine.

The explicit set changes only on splits (rare) but is consulted on every
delivered bundle (hot), so the projections the receive path needs — the
explicit index set, the exclude tuple and the index-sorted engine list —
are cached here and refreshed on mutation, and termination is memoised once
reached (engines never lose their output).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.protocols.binaa import BinAAEngine, SubMessage

#: A checkpoint is identified by its level and its integer index ``k``
#: (the checkpoint's value is ``k * rho_l``).
CheckpointId = Tuple[int, int]


@dataclass
class LevelState:
    """All BinAA state a single node holds for one Delphi level.

    Attributes
    ----------
    level:
        Level index ``l``.
    separator:
        Checkpoint spacing ``rho_l`` at this level.
    default_engine:
        The shared engine representing every checkpoint without explicit
        state (all honest inputs 0).
    explicit:
        Engines for checkpoints with explicit state, keyed by checkpoint
        index.  Mutate only through :meth:`register_explicit` /
        :meth:`split` so the projection caches stay coherent.
    own_checkpoints:
        The indices this node input 1 to.
    explicit_set:
        The explicit indices as a ``frozenset`` (cached like the rest).
    """

    level: int
    separator: float
    default_engine: BinAAEngine
    explicit: Dict[int, BinAAEngine] = field(default_factory=dict)
    own_checkpoints: Tuple[int, ...] = ()
    _exclude_cache: Optional[Tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )
    _sorted_engines_cache: Optional[List[Tuple[int, BinAAEngine]]] = field(
        default=None, repr=False, compare=False
    )
    _terminated_memo: bool = field(default=False, repr=False, compare=False)
    explicit_set: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._invalidate()

    # ------------------------------------------------------------------
    def is_explicit(self, index: int) -> bool:
        """Whether checkpoint ``index`` has its own engine at this node."""
        return index in self.explicit

    def exclude_key(self) -> Tuple[int, ...]:
        """Sorted tuple of explicit checkpoint indices (cached)."""
        key = self._exclude_cache
        if key is None:
            key = self._exclude_cache = tuple(sorted(self.explicit))
        return key

    def explicit_indices(self) -> List[int]:
        """Sorted list of explicit checkpoint indices."""
        return list(self.exclude_key())

    def sorted_engines(self) -> List[Tuple[int, BinAAEngine]]:
        """The explicit engines as index-sorted ``(index, engine)`` pairs
        (cached; the receive path walks this once per default block)."""
        pairs = self._sorted_engines_cache
        if pairs is None:
            explicit = self.explicit
            pairs = self._sorted_engines_cache = [
                (index, explicit[index]) for index in self.exclude_key()
            ]
        return pairs

    def _invalidate(self) -> None:
        self.explicit_set = frozenset(self.explicit)
        self._exclude_cache = None
        self._sorted_engines_cache = None

    def register_explicit(self, index: int, engine: BinAAEngine) -> BinAAEngine:
        """Install a pre-built explicit engine for checkpoint ``index``."""
        if index in self.explicit:
            raise ProtocolError(
                f"checkpoint {index} at level {self.level} is already explicit"
            )
        self.explicit[index] = engine
        self._invalidate()
        if engine.output is None:
            self._terminated_memo = False
        return engine

    def split(self, index: int) -> BinAAEngine:
        """Split checkpoint ``index`` out of the default block.

        The new explicit engine is a clone of the default engine, which
        carries the full message history the checkpoint shared with the
        default block up to this point.  Splitting an already explicit
        checkpoint is an error (callers check first).
        """
        return self.register_explicit(index, self.default_engine.clone())

    def ensure_explicit(self, index: int) -> BinAAEngine:
        """Return the explicit engine for ``index``, splitting it if needed."""
        engine = self.explicit.get(index)
        if engine is not None:
            return engine
        return self.split(index)

    # ------------------------------------------------------------------
    @property
    def terminated(self) -> bool:
        """Whether every engine at this level has completed all rounds.

        Memoised once true: engines never lose their output, so the scan
        runs at most once per termination (not once per event).
        """
        if self._terminated_memo:
            return True
        if self.default_engine.output is None:
            return False
        for engine in self.explicit.values():
            if engine.output is None:
                return False
        self._terminated_memo = True
        return True

    def checkpoint_weights(self) -> Dict[int, float]:
        """Final weights of the explicit checkpoints (only meaningful once
        :attr:`terminated` is true)."""
        weights: Dict[int, float] = {}
        for index, engine in self.explicit.items():
            if engine.output is not None:
                weights[index] = engine.output
        return weights

    @property
    def default_weight(self) -> Optional[float]:
        """Final weight of the shared default block (0 in every honest run)."""
        return self.default_engine.output

    def checkpoint_value(self, index: int) -> float:
        """Value ``mu^l_k = k * rho_l`` of checkpoint ``index``."""
        return index * self.separator
