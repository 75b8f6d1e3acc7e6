"""Delphi parameter derivation (Algorithm 2's setup block).

Delphi is configured by three global parameters:

* ``epsilon`` — the agreement distance the application needs,
* ``rho0`` — the level-0 separator (the paper statically sets
  ``rho0 = epsilon`` to minimise the validity relaxation),
* ``delta_max`` — an upper bound ``Delta`` on the honest input range, derived
  from the input distribution and a statistical security parameter
  ``lambda`` (see :mod:`repro.distributions.extreme_value`).

From those, Algorithm 2 derives::

    l_max      = log2(Delta / rho0)          # number of levels above level 0
    eps_prime  = epsilon / (4 * Delta * l_max * n)   # per-checkpoint agreement
    r_max      = log2(1 / eps_prime)          # BinAA iterations per checkpoint

:class:`DelphiParameters` performs exactly that derivation, exposes the
per-level separators ``rho_l = 2^l * rho0`` and checkpoint helpers, and
optionally caps ``r_max`` for simulation-scale runs (the cap is recorded so
experiment reports can state the deviation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.domains import POSITIVE, coerce
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DelphiParameters:
    """Static configuration of one Delphi instance.

    Attributes
    ----------
    n, t:
        System size and fault budget (``n > 3t``).
    epsilon:
        Target agreement distance between honest outputs.
    rho0:
        Separator between adjacent checkpoints at level 0.
    delta_max:
        Assumed upper bound ``Delta`` on the honest input range.
    max_rounds:
        Optional cap on the number of BinAA iterations per checkpoint.  The
        uncapped value follows Algorithm 2; capping trades a slightly larger
        per-checkpoint disagreement for simulation speed and is reported by
        :attr:`rounds_capped`.
    max_levels:
        Optional cap on the number of levels, analogous to ``max_rounds``.
    """

    n: int
    t: int
    epsilon: float
    rho0: float
    delta_max: float
    max_rounds: Optional[int] = None
    max_levels: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n <= 3 * self.t:
            raise ConfigurationError(f"Delphi requires n > 3t, got n={self.n}, t={self.t}")
        positive = dict.fromkeys(("epsilon", "rho0", "delta_max"), POSITIVE)
        coerce(self, positive, store=False)
        if self.delta_max < self.rho0:
            raise ConfigurationError(
                "delta_max must be at least rho0 "
                f"(got delta_max={self.delta_max}, rho0={self.rho0})"
            )
        try:  # l_max = log2(delta_max / rho0) and r_max = log2(1 / eps') finite
            self.rounds_uncapped
        except (OverflowError, ZeroDivisionError):
            raise ConfigurationError(
                f"DelphiParameters: epsilon={self.epsilon}, rho0={self.rho0}, "
                f"delta_max={self.delta_max} give no finite level or round count"
            ) from None

    # ------------------------------------------------------------------
    # Derived quantities (Algorithm 2, line 2)
    # ------------------------------------------------------------------
    @property
    def level_count_uncapped(self) -> int:
        """``l_max + 1``: the number of levels Algorithm 2 prescribes."""
        return int(math.ceil(math.log2(self.delta_max / self.rho0))) + 1

    @property
    def level_count(self) -> int:
        """Number of levels actually run (after the optional cap)."""
        if self.max_levels is None:
            return self.level_count_uncapped
        return max(1, min(self.level_count_uncapped, self.max_levels))

    @property
    def levels(self) -> List[int]:
        """Level indices ``0 .. l_max``."""
        return list(range(self.level_count))

    @property
    def eps_prime(self) -> float:
        """Per-checkpoint agreement target ``epsilon'`` (Algorithm 2 line 2)."""
        l_max = max(1, self.level_count_uncapped - 1)
        return self.epsilon / (4.0 * self.delta_max * l_max * self.n)

    @property
    def rounds_uncapped(self) -> int:
        """``r_max = ceil(log2(1/eps'))`` BinAA iterations per checkpoint."""
        return max(1, int(math.ceil(math.log2(1.0 / self.eps_prime))))

    @property
    def rounds(self) -> int:
        """BinAA iterations actually run (after the optional cap)."""
        if self.max_rounds is None:
            return self.rounds_uncapped
        return max(1, min(self.rounds_uncapped, self.max_rounds))

    @property
    def rounds_capped(self) -> bool:
        """Whether the configured cap reduced the paper-prescribed rounds."""
        return self.rounds < self.rounds_uncapped

    # ------------------------------------------------------------------
    # Checkpoint geometry
    # ------------------------------------------------------------------
    def separator(self, level: int) -> float:
        """``rho_l = 2^l * rho0``, the checkpoint spacing at ``level``."""
        if level < 0 or level >= self.level_count:
            raise ConfigurationError(f"level {level} outside [0, {self.level_count})")
        return self.rho0 * (2 ** level)

    def checkpoint_value(self, level: int, index: int) -> float:
        """The value ``mu^l_k = k * rho_l`` of checkpoint ``index`` at ``level``."""
        return index * self.separator(level)

    def nearest_checkpoints(self, level: int, value: float) -> List[int]:
        """The two checkpoint indices closest to ``value`` at ``level``.

        These are the checkpoints a node inputs 1 to (Algorithm 2, line 11).
        """
        rho = self.separator(level)
        lower = math.floor(value / rho)
        return [int(lower), int(lower) + 1]

    def checkpoints_within(self, level: int, value: float, distance: float) -> List[int]:
        """All checkpoint indices at ``level`` within ``distance`` of ``value``."""
        rho = self.separator(level)
        low = int(math.ceil((value - distance) / rho))
        high = int(math.floor((value + distance) / rho))
        return list(range(low, high + 1))

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Summary dictionary used by reports and benchmark logs."""
        return {
            "n": self.n,
            "t": self.t,
            "epsilon": self.epsilon,
            "rho0": self.rho0,
            "delta_max": self.delta_max,
            "levels": self.level_count,
            "levels_uncapped": self.level_count_uncapped,
            "rounds": self.rounds,
            "rounds_uncapped": self.rounds_uncapped,
            "eps_prime": self.eps_prime,
        }


def derive_parameters(
    n: int,
    epsilon: float,
    delta_max: float,
    rho0: Optional[float] = None,
    t: Optional[int] = None,
    max_rounds: Optional[int] = None,
    max_levels: Optional[int] = None,
) -> DelphiParameters:
    """Convenience constructor following the paper's static choices.

    ``rho0`` defaults to ``epsilon`` (Section IV-D: "we statically set
    rho0 = epsilon") and ``t`` defaults to the maximum tolerable
    ``floor((n - 1) / 3)``.
    """
    if t is None:
        t = (n - 1) // 3
    if rho0 is None:
        rho0 = epsilon
    return DelphiParameters(
        n=n,
        t=t,
        epsilon=epsilon,
        rho0=rho0,
        delta_max=delta_max,
        max_rounds=max_rounds,
        max_levels=max_levels,
    )
