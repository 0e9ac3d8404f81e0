"""Coverage semantics of multiple sampling monitors on one path.

Section 5.2 of the paper discusses how the contributions of several sampling
devices along the same path should be accounted for:

* with **packet marking** ("cascade" accounting), a packet sampled upstream
  is marked and never re-counted, so the monitored fractions add up -- this
  is the semantics Linear program 3 uses (``sum_e r_e >= δ_p``);
* with **independent sampling** and no coordination, each device samples
  independently, so the probability that a packet is captured at least once
  is ``1 - prod_e (1 - r_e)``;
* the conservative **monitor-once** reading of [Suh et al.] counts a flow
  only at the single best monitor on its path, i.e. ``max_e r_e``.

These functions *evaluate* a placement (devices + rates) under each
semantics, so the optimistic additive model used by the MILP can be compared
against the two more pessimistic readings -- the paper's first "future work"
item (getting "a tighter bound on the actual monitoring ratio achieved by
several measurement points on one path").
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Mapping

from repro.topology.pop import LinkKey, link_key
from repro.traffic.demands import TrafficMatrix


class CoverageSemantics(str, enum.Enum):
    """How the sampling rates along one path combine into a coverage ratio."""

    ADDITIVE = "additive"          # packet marking / cascade, capped at 1
    INDEPENDENT = "independent"    # 1 - prod(1 - r_e)
    MONITOR_ONCE = "monitor_once"  # max_e r_e


def path_coverage(rates_on_path: Iterable[float], semantics: CoverageSemantics) -> float:
    """Monitored fraction of one path given the device rates along it."""
    rates = [min(1.0, max(0.0, r)) for r in rates_on_path]
    if not rates:
        return 0.0
    if semantics is CoverageSemantics.ADDITIVE:
        return min(1.0, sum(rates))
    if semantics is CoverageSemantics.INDEPENDENT:
        missed = 1.0
        for rate in rates:
            missed *= 1.0 - rate
        return 1.0 - missed
    return max(rates)


def evaluate_coverage(
    traffic: TrafficMatrix,
    sampling_rates: Mapping[LinkKey, float],
    semantics: CoverageSemantics = CoverageSemantics.ADDITIVE,
) -> float:
    """Global monitored fraction of a traffic matrix under a given semantics.

    Parameters
    ----------
    traffic:
        The (possibly multi-routed) traffic matrix.
    sampling_rates:
        Mapping link -> sampling rate of the device installed on it; links
        absent from the mapping carry no device.
    semantics:
        How per-device rates combine along a path.
    """
    rates = {link_key(*l): r for l, r in sampling_rates.items()}
    total = traffic.total_volume
    if total <= 0:
        return 1.0
    monitored = 0.0
    for t in traffic:
        for route in t.routes:
            on_path = [rates[l] for l in route.links if l in rates]
            monitored += path_coverage(on_path, semantics) * route.volume
    return monitored / total


def compare_semantics(
    traffic: TrafficMatrix,
    sampling_rates: Mapping[LinkKey, float],
) -> Dict[str, float]:
    """Achieved coverage under all three semantics, for reporting.

    The additive (marking) value is always an upper bound on the independent
    value, which in turn upper-bounds the monitor-once value.
    """
    return {
        semantics.value: evaluate_coverage(traffic, sampling_rates, semantics)
        for semantics in CoverageSemantics
    }
