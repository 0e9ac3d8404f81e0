"""PPM(k) problem definition and placement results.

The *Partial Passive Monitoring* problem PPM(k), Section 4.1 of the paper:

    INSTANCE  ``k in (0, 1]``, a graph ``G = (V, E)`` and a set
    ``D = {(p_i, v_i)}`` of weighted paths (traffics); ``V = sum_i v_i`` is
    the total carried bandwidth.

    SOLUTION  A subset ``E' ⊆ E`` of links such that the traffics crossing a
    selected link carry at least ``k * V`` bandwidth.

    MEASURE   ``|E'|``.

``PPM(1)`` -- monitor everything -- is the plain Passive Monitoring problem,
equivalent to Minimum Set Cover (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.covering.partial_cover import PartialCoverInstance
from repro.covering.set_cover import SetCoverInstance
from repro.flows.mecf import MECFInstance
from repro.topology.pop import LinkKey, link_key
from repro.traffic.demands import TrafficMatrix


@dataclass
class PlacementResult:
    """Outcome of a passive-monitoring placement algorithm.

    Attributes
    ----------
    monitored_links:
        Links on which a tap device is installed.
    coverage:
        Achieved fraction of the total traffic volume crossing a monitored
        link.
    target_coverage:
        The requested fraction ``k``.
    method:
        Identifier of the algorithm that produced the result (``"greedy"``,
        ``"ilp"``, ``"mecf"``, ...).
    objective:
        Objective value; equals ``num_devices`` for the pure placement
        problems and the total cost for the cost-aware variants.
    fixed_links:
        Links that were imposed (already installed) rather than chosen.
    """

    monitored_links: List[LinkKey]
    coverage: float
    target_coverage: float
    method: str
    objective: float
    fixed_links: List[LinkKey] = field(default_factory=list)

    @property
    def num_devices(self) -> int:
        """Number of monitoring devices installed (fixed ones included)."""
        return len(self.monitored_links)

    @property
    def num_new_devices(self) -> int:
        """Devices added on top of the pre-existing (fixed) ones."""
        fixed = {link_key(*l) for l in self.fixed_links}
        return sum(1 for l in self.monitored_links if link_key(*l) not in fixed)

    @property
    def meets_target(self) -> bool:
        """True when the achieved coverage reaches the target (within 1e-9)."""
        return self.coverage >= self.target_coverage - 1e-9

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlacementResult(method={self.method!r}, devices={self.num_devices}, "
            f"coverage={self.coverage:.3f}/{self.target_coverage:.3f})"
        )


class PPMProblem:
    """An instance of the Partial Passive Monitoring problem PPM(k).

    Parameters
    ----------
    traffic:
        The routed traffic matrix (single- or multi-routed; for PPM the union
        of a traffic's route links is what a monitor can intercept).
    coverage:
        Required fraction ``k`` of the total volume, in ``(0, 1]``.
    candidate_links:
        Optional restriction of the links on which a device may be installed;
        defaults to every link crossed by some traffic.
    """

    def __init__(
        self,
        traffic: TrafficMatrix,
        coverage: float = 1.0,
        candidate_links: Optional[Iterable[LinkKey]] = None,
    ) -> None:
        if not 0.0 < coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {coverage}")
        if len(traffic) == 0:
            raise ValueError("the traffic matrix is empty")
        self.traffic = traffic
        self.coverage = coverage
        if candidate_links is None:
            self.candidate_links: List[LinkKey] = traffic.links
        else:
            self.candidate_links = [link_key(*l) for l in candidate_links]
            if not self.candidate_links:
                raise ValueError("candidate_links must not be empty")

    # -- basic quantities ----------------------------------------------------
    @property
    def total_volume(self) -> float:
        """Total bandwidth ``V`` carried by the POP."""
        return self.traffic.total_volume

    @property
    def required_volume(self) -> float:
        """Volume that must be monitored, ``k * V``."""
        return self.coverage * self.total_volume

    def link_loads(self) -> Dict[LinkKey, float]:
        """Load of every candidate link."""
        loads = self.traffic.link_loads()
        return {l: loads.get(l, 0.0) for l in self.candidate_links}

    def achieved_coverage(self, links: Iterable[LinkKey]) -> float:
        """Coverage fraction obtained by monitoring ``links``."""
        return self.traffic.coverage(links)

    def is_feasible_selection(self, links: Iterable[LinkKey], tol: float = 1e-9) -> bool:
        """True when monitoring ``links`` reaches the coverage target."""
        return self.achieved_coverage(links) >= self.coverage - tol

    @property
    def is_feasible(self) -> bool:
        """True when monitoring every candidate link reaches the target."""
        return self.is_feasible_selection(self.candidate_links)

    # -- conversions to the combinatorial substrates ---------------------------
    def to_mecf_instance(self) -> MECFInstance:
        """Express the problem as the MECF instance of Theorem 2."""
        candidates = set(self.candidate_links)
        return MECFInstance(
            traffic_edges={t.traffic_id: t.links & candidates for t in self.traffic},
            traffic_volumes={t.traffic_id: t.volume for t in self.traffic},
            coverage=self.coverage,
        )

    def to_set_cover(self) -> SetCoverInstance:
        """Express PPM(1) as the Minimum Set Cover instance of Theorem 1.

        Only meaningful when ``coverage == 1``; the subsets are candidate
        links, the elements are traffics.
        """
        candidates = set(self.candidate_links)
        subsets: Dict[LinkKey, Set[Hashable]] = {l: set() for l in self.candidate_links}
        for traffic in self.traffic:
            for link in traffic.links & candidates:
                subsets[link].add(traffic.traffic_id)
        return SetCoverInstance(universe={t.traffic_id for t in self.traffic}, subsets=subsets)

    def to_partial_cover(self) -> PartialCoverInstance:
        """Express PPM(k) as a weighted Minimum Partial Cover instance."""
        cover = self.to_set_cover()
        return PartialCoverInstance(
            universe=cover.universe,
            subsets=cover.subsets,
            coverage=self.coverage,
            element_weights={t.traffic_id: t.volume for t in self.traffic},
        )

    def make_result(
        self,
        links: Iterable[LinkKey],
        method: str,
        objective: Optional[float] = None,
        fixed_links: Iterable[LinkKey] = (),
    ) -> PlacementResult:
        """Package a set of selected links into a :class:`PlacementResult`."""
        selected = [link_key(*l) for l in links]
        fixed = [link_key(*l) for l in fixed_links]
        return PlacementResult(
            monitored_links=selected,
            coverage=self.achieved_coverage(selected),
            target_coverage=self.coverage,
            method=method,
            objective=float(len(selected)) if objective is None else float(objective),
            fixed_links=fixed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PPMProblem(k={self.coverage:.2f}, traffics={len(self.traffic)}, "
            f"candidate_links={len(self.candidate_links)})"
        )
