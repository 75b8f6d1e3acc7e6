"""Weighted aggregation of checkpoint weights (Algorithm 2, lines 13-24).

After every BinAA instance terminates, a Delphi node turns the agreed-upon
checkpoint weights into its output in two steps:

1. **Per-level aggregation** — each level ``l`` gets a representative value
   ``V_l`` (the weight-weighted average of its checkpoint values) and a
   level weight ``w_l`` (the maximum checkpoint weight at that level).  If
   every checkpoint at the level has weight 0, the level falls back to
   ``(V_l, w_l) = (v_i, eps_prime)`` so the final division is always
   defined.

2. **Cross-level aggregation** — the level weights are differenced,
   ``w'_0 = w_0^2`` and ``w'_l = w_l * |w_l - w_{l-1}|``, which zeroes out
   the contribution of every level above the first level whose weight
   saturates at 1 (the "differentiation" trick of Section III-B.2), and the
   output is the ``w'``-weighted average of the ``V_l``.

All functions are pure so the validity and agreement lemmas (IV.2-IV.4) can
be property-tested directly on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ProtocolError


@dataclass(frozen=True)
class LevelAggregate:
    """Per-level aggregation result: representative value and weight."""

    level: int
    value: float
    weight: float
    fallback: bool


def aggregate_level(
    level: int,
    checkpoint_values: Dict[int, float],
    weights: Dict[int, float],
    own_input: float,
    eps_prime: float,
) -> LevelAggregate:
    """Aggregate one level's checkpoint weights (Algorithm 2, lines 14-20).

    Parameters
    ----------
    level:
        Level index (used only for reporting).
    checkpoint_values:
        Mapping of checkpoint index to its value ``mu^l_k``.
    weights:
        Mapping of checkpoint index to its agreed weight ``w^l_k``; indices
        missing from this mapping are treated as weight 0.
    own_input:
        The node's own input ``v_i`` (the fallback representative value).
    eps_prime:
        The fallback weight when every checkpoint has weight 0.
    """
    positive = {
        index: weight
        for index, weight in weights.items()
        if weight > 0.0 and index in checkpoint_values
    }
    if not positive:
        return LevelAggregate(level=level, value=own_input, weight=eps_prime, fallback=True)
    total_weight = sum(positive.values())
    weighted_value = sum(
        weight * checkpoint_values[index] for index, weight in positive.items()
    )
    value = weighted_value / total_weight
    # The weighted average lies in the convex hull of the positive-weight
    # checkpoints by construction; only float underflow (denormal weights
    # whose products round to zero) can push it out, so clamp it back.
    hull = [checkpoint_values[index] for index in positive]
    value = min(max(value, min(hull)), max(hull))
    return LevelAggregate(
        level=level,
        value=value,
        weight=max(positive.values()),
        fallback=False,
    )


def cross_level_weights(level_weights: Sequence[float]) -> List[float]:
    """Differenced level weights ``w'_l`` (Algorithm 2, lines 21-23).

    ``w'_0 = w_0^2`` and ``w'_l = w_l * |w_l - w_{l-1}|`` for ``l >= 1``.
    """
    if not level_weights:
        raise ProtocolError("at least one level is required")
    primed = [level_weights[0] ** 2]
    for index in range(1, len(level_weights)):
        primed.append(level_weights[index] * abs(level_weights[index] - level_weights[index - 1]))
    return primed


def cross_level_output(aggregates: Sequence[LevelAggregate]) -> float:
    """Final Delphi output: the ``w'``-weighted average of level values
    (Algorithm 2, line 24).

    Raises
    ------
    ProtocolError
        If the sum of differenced weights is zero, which Theorem IV.1 shows
        cannot happen when the honest range is within ``delta_max``; hitting
        it indicates a mis-configuration (``delta_max`` too small).
    """
    if not aggregates:
        raise ProtocolError("at least one level aggregate is required")
    primed = cross_level_weights([aggregate.weight for aggregate in aggregates])
    total = sum(primed)
    if total <= 0.0:
        raise ProtocolError(
            "sum of cross-level weights is zero; the honest input range likely "
            "exceeds the configured delta_max"
        )
    weighted = sum(
        weight * aggregate.value for weight, aggregate in zip(primed, aggregates)
    )
    return weighted / total


def round_to_epsilon(value: float, epsilon: float) -> float:
    """Round ``value`` to the nearest integer multiple of ``epsilon``.

    Used by the DORA extension (Section V): after approximate agreement,
    honest outputs land on at most two adjacent multiples of ``epsilon``,
    which is what makes ``t + 1`` matching signatures collectable.
    """
    if epsilon <= 0:
        raise ProtocolError("epsilon must be positive")
    return round(value / epsilon) * epsilon
