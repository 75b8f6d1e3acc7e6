"""Distribution fitting for observed ranges and detection quality.

The paper's Figs. 4 and 5 fit candidate probability distributions to (a) the
observed per-minute Bitcoin price range across exchanges and (b) the IoU of
object detections, and pick the best fit (Frechet for the price range, Gamma
for the IoU) to configure Delphi.  This module reproduces that analysis with
:mod:`scipy.stats` maximum-likelihood fits scored by the Kolmogorov-Smirnov
statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError

#: Candidate distributions: the names used in the paper's figures, mapped to
#: the :mod:`scipy.stats` attribute that implements each law.
CANDIDATES: Dict[str, str] = {
    "frechet": "invweibull",  # scipy's name for the Frechet law
    "gumbel": "gumbel_r",
    "gamma": "gamma",
    "lognormal": "lognorm",
    "normal": "norm",
    "pareto": "pareto",
}


@dataclass(frozen=True)
class FitResult:
    """One candidate distribution's maximum-likelihood fit and its score."""

    name: str
    parameters: Tuple[float, ...]
    ks_statistic: float
    p_value: float

    @property
    def shape(self) -> Optional[float]:
        """Shape parameter for shape-scale families (``None`` otherwise)."""
        if len(self.parameters) >= 3:
            return float(self.parameters[0])
        return None

    @property
    def scale(self) -> float:
        """Scale parameter of the fit."""
        return float(self.parameters[-1])

    @property
    def location(self) -> float:
        """Location parameter of the fit."""
        return float(self.parameters[-2])


def fit_distributions(
    samples: Sequence[float], candidates: Optional[Sequence[str]] = None
) -> List[FitResult]:
    """Fit every candidate distribution to ``samples``, best fit first."""
    values = np.asarray(list(samples), dtype=float)
    if values.size < 10:
        raise AnalysisError("need at least 10 samples to fit a distribution")
    names = list(candidates) if candidates is not None else list(CANDIDATES)
    for name in names:
        if name not in CANDIDATES:
            raise AnalysisError(f"unknown candidate distribution {name!r}")
    # Imported here, at its only use: scipy.stats costs ~0.7 s and ~65 MB that
    # no simulator run, cluster node or gateway should pay at ``import repro``.
    try:
        from scipy import stats
    except ImportError as exc:
        raise AnalysisError("fitting distributions needs scipy") from exc
    results: List[FitResult] = []
    for name in names:
        family = getattr(stats, CANDIDATES[name])
        try:
            parameters = family.fit(values)
            ks_statistic, p_value = stats.kstest(values, family.cdf, args=parameters)
        except Exception:  # pragma: no cover - scipy numeric corner cases
            continue
        results.append(
            FitResult(
                name=name,
                parameters=tuple(float(p) for p in parameters),
                ks_statistic=float(ks_statistic),
                p_value=float(p_value),
            )
        )
    if not results:
        raise AnalysisError("no candidate distribution could be fitted")
    results.sort(key=lambda result: result.ks_statistic)
    return results


def best_fit(
    samples: Sequence[float], candidates: Optional[Sequence[str]] = None
) -> FitResult:
    """The single best-fitting candidate (lowest KS statistic)."""
    return fit_distributions(samples, candidates)[0]


def histogram(
    samples: Sequence[float], bins: int = 30
) -> Tuple[List[float], List[int]]:
    """Bin centres and counts, the raw material of Figs. 4 and 5."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise AnalysisError("cannot histogram an empty sample")
    counts, edges = np.histogram(values, bins=bins)
    centres = ((edges[:-1] + edges[1:]) / 2.0).tolist()
    return centres, counts.tolist()
