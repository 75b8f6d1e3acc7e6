"""Synthetic Bitcoin price-feed workload (Section VI-A).

The paper collected per-minute Bitcoin prices from ten exchanges for two
weeks, observed that the per-minute *range* across exchanges is best fitted
by a Frechet distribution with shape ``alpha = 4.41`` and scale ``29.3``
dollars, and configured Delphi from that fit (``Delta = 2000$``,
``rho0 = epsilon = 2$``).

Live exchange data is not available offline, so this module substitutes a
generator that reproduces the statistical properties the paper extracts from
the real data:

* a global Bitcoin mid-price follows a geometric random walk around a
  configurable base price (volatility only matters for realism, not for the
  protocol, which consumes one minute at a time);
* each exchange quotes the mid-price plus an idiosyncratic offset scaled so
  that the cross-exchange range per minute follows the paper's fitted
  Frechet(4.41, 29.3) law;
* each oracle node queries one (or the median of several) exchanges, exactly
  as described in the paper.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: The ten exchanges named in the paper.
EXCHANGES = (
    "Binance",
    "Coinbase",
    "Crypto.com",
    "Gate.io",
    "Huobi",
    "Mexc",
    "Poloniex",
    "Bybit",
    "Kucoin",
    "Kraken",
)

#: Frechet fit the paper reports for the per-minute cross-exchange range.
PAPER_FRECHET_ALPHA = 4.41
PAPER_FRECHET_SCALE = 29.3


@dataclass(frozen=True)
class ExchangeQuote:
    """One exchange's quote at one minute."""

    minute: int
    exchange: str
    price: float


class BitcoinPriceFeed:
    """Generates per-minute exchange quotes and per-node oracle inputs.

    Parameters
    ----------
    base_price:
        Starting mid-price in USD (the paper quotes ~40 000 $).
    volatility_per_minute:
        Standard deviation of the mid-price's per-minute log return.
    range_alpha, range_scale:
        Frechet parameters of the per-minute cross-exchange range; defaults
        are the paper's fitted values.
    exchanges:
        Exchange names (defaults to the paper's ten).
    seed:
        Seed for reproducible synthetic data.
    """

    def __init__(
        self,
        base_price: float = 40_000.0,
        volatility_per_minute: float = 5e-4,
        range_alpha: float = PAPER_FRECHET_ALPHA,
        range_scale: float = PAPER_FRECHET_SCALE,
        exchanges: Sequence[str] = EXCHANGES,
        seed: int = 0,
    ) -> None:
        if base_price <= 0:
            raise ConfigurationError("base_price must be positive")
        if range_alpha <= 1 or range_scale <= 0:
            raise ConfigurationError("range parameters must be positive (alpha > 1)")
        self.base_price = base_price
        self.volatility = volatility_per_minute
        self.range_alpha = range_alpha
        self.range_scale = range_scale
        self.exchanges = tuple(exchanges)
        self._rng = np.random.default_rng(seed)
        self._mid_price = base_price
        self._minute = 0

    # ------------------------------------------------------------------
    def _draw_range(self) -> float:
        """One per-minute cross-exchange range drawn from the Frechet fit."""
        uniform = float(self._rng.uniform(1e-12, 1.0))
        return self.range_scale * (-math.log(uniform)) ** (-1.0 / self.range_alpha)

    def next_minute(self) -> List[ExchangeQuote]:
        """Advance one minute and return every exchange's quote."""
        self._minute += 1
        log_return = float(self._rng.normal(0.0, self.volatility))
        self._mid_price *= math.exp(log_return)
        spread = self._draw_range()
        # Place exchange offsets uniformly inside the drawn range so that the
        # realised max-min equals the drawn spread.
        offsets = self._rng.uniform(-0.5, 0.5, size=len(self.exchanges))
        if len(offsets) > 1:
            span = offsets.max() - offsets.min()
            if span > 0:
                offsets = (offsets - offsets.min()) / span - 0.5
        quotes = [
            ExchangeQuote(
                minute=self._minute,
                exchange=name,
                price=float(self._mid_price + offset * spread),
            )
            for name, offset in zip(self.exchanges, offsets)
        ]
        return quotes

    # ------------------------------------------------------------------
    def node_inputs(
        self, num_nodes: int, exchanges_per_node: int = 1
    ) -> List[float]:
        """One minute of oracle inputs: node ``i`` queries ``exchanges_per_node``
        exchanges (round-robin assignment) and reports their median."""
        if num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if exchanges_per_node <= 0:
            raise ConfigurationError("exchanges_per_node must be positive")
        quotes = self.next_minute()
        prices = [quote.price for quote in quotes]
        inputs: List[float] = []
        for node in range(num_nodes):
            chosen = [
                prices[(node + offset) % len(prices)]
                for offset in range(exchanges_per_node)
            ]
            inputs.append(float(statistics.median(chosen)))
        return inputs

    def epoch_inputs(self, num_nodes: int) -> List[float]:
        """One *epoch* of oracle inputs for the streaming oracle service.

        An epoch is one reporting minute: the feed advances and every node
        queries its exchange, exactly as :meth:`node_inputs` — this alias is
        the uniform per-epoch hook shared by all workloads (see
        :func:`repro.workloads.make_epoch_workload`).
        """
        return self.node_inputs(num_nodes)

    def observed_ranges(self, num_nodes: int, minutes: int) -> List[float]:
        """Per-minute input ranges over a simulated observation window (the
        data behind Fig. 4)."""
        if minutes <= 0:
            raise ConfigurationError("minutes must be positive")
        ranges: List[float] = []
        for _ in range(minutes):
            inputs = self.node_inputs(num_nodes)
            ranges.append(max(inputs) - min(inputs))
        return ranges

    @property
    def minute(self) -> int:
        """Minutes generated so far."""
        return self._minute
