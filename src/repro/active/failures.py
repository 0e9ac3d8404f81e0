"""Link-failure detection with active probes.

Section 6 motivates beacon placement by failure detection: "a failure is
detected when consecutive probes do not use the same path in the network".
This module closes the loop on that motivation: given a deployed probe set
and the selected beacons, it simulates link failures and reports which ones
the probing system detects (some probe's path is broken) and how well it can
localize them (the candidate set of failed links is the intersection of the
broken probes' paths minus the links still carried by working probes).

The simulator is deliberately simple -- single link failures, deterministic
shortest-path re-probing -- but it exercises the full active-monitoring
pipeline (probe computation, beacon placement, detection) and is used by the
tests to check that a beacon placement covering every link really does detect
every single-link failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

import networkx as nx

from repro.active.probes import Probe, ProbeSet
from repro.topology.pop import LinkKey, POPTopology, link_key


@dataclass
class FailureDetectionResult:
    """Outcome of simulating one link failure.

    Attributes
    ----------
    failed_link:
        The link that was brought down.
    detected:
        True when at least one emitted probe's original path used the link
        (the probe either re-routes or fails, which the beacons notice).
    broken_probes:
        Probes whose original path traversed the failed link.
    disconnected_probes:
        Broken probes whose endpoints are no longer connected at all.
    suspected_links:
        Localization output: links that belong to *every* broken probe's path
        and to no unbroken probe's path.  The failed link is always a member
        when the failure is detected.
    """

    failed_link: LinkKey
    detected: bool
    broken_probes: List[Probe] = field(default_factory=list)
    disconnected_probes: List[Probe] = field(default_factory=list)
    suspected_links: Set[LinkKey] = field(default_factory=set)

    @property
    def localized_exactly(self) -> bool:
        """True when the suspect set is exactly the failed link."""
        return self.suspected_links == {self.failed_link}


def _emitted_probes(probe_set: ProbeSet, beacons: Iterable[Hashable]) -> List[Probe]:
    """Probes that the selected beacons can actually emit."""
    chosen = set(beacons)
    return [p for p in probe_set if chosen & set(p.endpoints)]


def simulate_link_failure(
    pop: POPTopology,
    probe_set: ProbeSet,
    beacons: Iterable[Hashable],
    failed_link: LinkKey,
) -> FailureDetectionResult:
    """Simulate the failure of one link and the probing system's reaction.

    Raises
    ------
    ValueError
        If the failed link does not exist in the topology.
    """
    failed = link_key(*failed_link)
    if not pop.graph.has_edge(*failed):
        raise ValueError(f"link {failed!r} does not exist in POP {pop.name!r}")

    emitted = _emitted_probes(probe_set, beacons)
    broken = [p for p in emitted if failed in p.links]
    unbroken = [p for p in emitted if failed not in p.links]

    # Which broken probes lose connectivity entirely?
    degraded = pop.graph.copy()
    degraded.remove_edge(*failed)
    disconnected = [
        p for p in broken if not nx.has_path(degraded, p.source, p.target)
    ]

    # Localization: links common to every broken probe, minus links observed
    # healthy by an unbroken probe.
    if broken:
        suspects: Set[LinkKey] = set(broken[0].links)
        for probe in broken[1:]:
            suspects &= set(probe.links)
        healthy: Set[LinkKey] = set()
        for probe in unbroken:
            healthy |= set(probe.links)
        suspects -= healthy
    else:
        suspects = set()

    return FailureDetectionResult(
        failed_link=failed,
        detected=bool(broken),
        broken_probes=broken,
        disconnected_probes=disconnected,
        suspected_links=suspects,
    )


def detection_coverage(
    pop: POPTopology,
    probe_set: ProbeSet,
    beacons: Iterable[Hashable],
    links: Optional[Sequence[LinkKey]] = None,
) -> Dict[str, float]:
    """Fraction of single-link failures the deployment detects / localizes.

    Parameters
    ----------
    pop, probe_set, beacons:
        The deployed active-monitoring system.
    links:
        Links whose failure is simulated; defaults to the probe set's covered
        links (failures on uncovered links are undetectable by construction).

    Returns
    -------
    dict
        ``detection_rate``, ``exact_localization_rate`` and
        ``mean_suspect_set_size`` over the simulated failures.
    """
    beacons = list(beacons)
    if links is None:
        links = sorted(probe_set.covered_links)
    if not links:
        return {
            "detection_rate": 1.0,
            "exact_localization_rate": 1.0,
            "mean_suspect_set_size": 0.0,
        }
    detected = 0
    exact = 0
    suspect_sizes: List[int] = []
    for link in links:
        result = simulate_link_failure(pop, probe_set, beacons, link)
        if result.detected:
            detected += 1
            suspect_sizes.append(len(result.suspected_links))
            if result.localized_exactly:
                exact += 1
    total = len(links)
    return {
        "detection_rate": detected / total,
        "exact_localization_rate": exact / total,
        "mean_suspect_set_size": (
            sum(suspect_sizes) / len(suspect_sizes) if suspect_sizes else 0.0
        ),
    }
