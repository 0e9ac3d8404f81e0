"""Measurement campaigns: steer the routing towards the installed monitors.

The paper's conclusion lists, as a perspective, "solutions for measurement
campaign, where the operator of a POP or an AS can modify the routing
strategy in order to maximize the monitoring ratio, given a set of already
installed measurement points.  For this last perspective, the flow-based
model is expected to apply perfectly."

This module implements that extension.  Each demand may be routed along any
of a small set of admissible paths (by default the k shortest paths between
its endpoints); the operator chooses, for the duration of the campaign, which
admissible path each demand follows -- or how it is split across them -- so
that the volume crossing the already-installed monitors is maximized.

Two variants are provided:

* :func:`optimize_routing_for_monitoring` with ``integral=False`` (default):
  demands may be split fractionally across their admissible paths; the
  problem is an LP.
* with ``integral=True``: each demand must follow exactly one path (the
  realistic single-path IGP setting); the problem becomes a MIP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import networkx as nx

from repro.optim import Model, lin_sum
from repro.topology.pop import LinkKey, POPTopology, link_key
from repro.traffic.demands import Route, Traffic, TrafficMatrix


@dataclass
class CampaignResult:
    """Outcome of a measurement-campaign routing optimization.

    Attributes
    ----------
    traffic:
        The re-routed traffic matrix (same demands, new paths / splits).
    monitored_volume:
        Volume crossing at least one monitored link under the new routing.
    baseline_volume:
        Volume that was monitored under the original routing.
    total_volume:
        Total demand volume (unchanged by re-routing).
    path_choices:
        For every demand, the list of ``(path nodes, volume)`` actually used.
    """

    traffic: TrafficMatrix
    monitored_volume: float
    baseline_volume: float
    total_volume: float
    path_choices: Dict[Hashable, List[Tuple[Tuple[Hashable, ...], float]]] = field(
        default_factory=dict
    )

    @property
    def coverage(self) -> float:
        """Monitored fraction achieved by the campaign routing."""
        return self.monitored_volume / self.total_volume if self.total_volume else 1.0

    @property
    def baseline_coverage(self) -> float:
        """Monitored fraction under the original routing."""
        return self.baseline_volume / self.total_volume if self.total_volume else 1.0

    @property
    def gain(self) -> float:
        """Coverage improvement brought by re-routing."""
        return self.coverage - self.baseline_coverage


def k_shortest_paths(
    pop: POPTopology,
    source: Hashable,
    destination: Hashable,
    k: int = 3,
    weight: Optional[str] = None,
) -> List[List[Hashable]]:
    """The ``k`` shortest simple paths between two nodes (Yen's algorithm)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    generator = nx.shortest_simple_paths(pop.graph, source, destination, weight=weight)
    paths: List[List[Hashable]] = []
    for path in generator:
        paths.append(list(path))
        if len(paths) >= k:
            break
    return paths


def optimize_routing_for_monitoring(
    pop: POPTopology,
    traffic: TrafficMatrix,
    monitored_links: Iterable[LinkKey],
    k_paths: int = 3,
    integral: bool = False,
    max_stretch: float = 2.0,
    backend: str = "auto",
) -> CampaignResult:
    """Re-route demands to maximize the volume seen by installed monitors.

    Parameters
    ----------
    pop:
        The POP topology the demands are routed on.
    traffic:
        The current traffic matrix; only the demand endpoints and volumes are
        used, the current paths serve as the baseline.
    monitored_links:
        Links carrying an installed measurement point.
    k_paths:
        Number of admissible (shortest simple) paths per demand.
    integral:
        When True every demand must follow a single admissible path (MIP);
        when False it may be split fractionally (LP).
    max_stretch:
        Admissible paths longer than ``max_stretch`` times the shortest path
        (in hops) are discarded, so the campaign cannot degrade the routing
        quality arbitrarily.
    backend:
        Optimization backend.

    Raises
    ------
    ValueError
        If a demand endpoint is missing from the topology or ``max_stretch``
        is below 1.
    """
    if max_stretch < 1.0:
        raise ValueError("max_stretch must be at least 1")
    monitored = {link_key(*l) for l in monitored_links}
    baseline_volume = traffic.monitored_volume(monitored)

    # Enumerate admissible paths per demand.
    admissible: Dict[Hashable, List[Tuple[Hashable, ...]]] = {}
    for t in traffic:
        if t.source not in pop.graph or t.destination not in pop.graph:
            raise ValueError(
                f"demand {t.traffic_id!r}: endpoints are not nodes of POP {pop.name!r}"
            )
        paths = k_shortest_paths(pop, t.source, t.destination, k=k_paths)
        shortest_len = len(paths[0]) - 1
        kept = [tuple(p) for p in paths if (len(p) - 1) <= max_stretch * shortest_len]
        admissible[t.traffic_id] = kept or [tuple(paths[0])]

    model = Model("measurement-campaign", sense="max")
    vartype = "binary" if integral else "continuous"
    # share[t, i]: fraction of demand t routed on its i-th admissible path.
    share: Dict[Tuple[Hashable, int], object] = {}
    monitored_flag: Dict[Tuple[Hashable, int], bool] = {}
    for j, t in enumerate(traffic):
        paths = admissible[t.traffic_id]
        for i, path in enumerate(paths):
            share[(t.traffic_id, i)] = model.add_var(f"share[{j},{i}]", lb=0.0, ub=1.0, vartype=vartype)
            links = {link_key(u, v) for u, v in zip(path[:-1], path[1:])}
            monitored_flag[(t.traffic_id, i)] = bool(links & monitored)
        model.add_constr(
            lin_sum(share[(t.traffic_id, i)] for i in range(len(paths))) == 1,
            name=f"route[{j}]",
        )

    model.set_objective(
        lin_sum(
            traffic[t_id].volume * var
            for (t_id, i), var in share.items()
            if monitored_flag[(t_id, i)]
        )
    )
    model.solve(backend=backend, raise_on_infeasible=True)

    # Build the re-routed traffic matrix.
    rerouted = TrafficMatrix()
    path_choices: Dict[Hashable, List[Tuple[Tuple[Hashable, ...], float]]] = {}
    for t in traffic:
        paths = admissible[t.traffic_id]
        routes: List[Route] = []
        chosen: List[Tuple[Tuple[Hashable, ...], float]] = []
        for i, path in enumerate(paths):
            fraction = model.value(share[(t.traffic_id, i)])
            volume = fraction * t.volume
            if volume > 1e-9:
                routes.append(Route(path, volume))
                chosen.append((path, volume))
        if not routes:  # numerical corner case: keep the first admissible path
            routes = [Route(paths[0], t.volume)]
            chosen = [(paths[0], t.volume)]
        rerouted.add(Traffic(traffic_id=t.traffic_id, routes=routes))
        path_choices[t.traffic_id] = chosen

    return CampaignResult(
        traffic=rerouted,
        monitored_volume=rerouted.monitored_volume(monitored),
        baseline_volume=baseline_volume,
        total_volume=traffic.total_volume,
        path_choices=path_choices,
    )
