"""Synthetic non-uniform demand matrices.

Section 4.4 explains how the paper builds its traffic matrices: real matrices
were not available, so demands are generated randomly, *but not uniformly* --
"we randomly pick some preferred pairs of high traffic (for example between
two backbone routers or between one backbone router and one access router
that would host a popular web site)", reflecting the strong geographic skew
observed in [Bhattacharyya et al. 2001].

:func:`generate_demands` reproduces that recipe: every ordered pair of
eligible endpoints receives a small base volume, and a handful of preferred
pairs receive a volume one order of magnitude larger.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.topology.pop import NodeRole, POPTopology
from repro.traffic.demands import TrafficMatrix
from repro.traffic.routing import RoutingConfig, route_demands


@dataclass
class DemandConfig:
    """Parameters of the random demand generator.

    Attributes
    ----------
    pair_fraction:
        Fraction of all ordered endpoint pairs that carry traffic.
    preferred_pairs:
        Number of "preferred" high-volume pairs.
    base_volume_range:
        ``(low, high)`` uniform range of the ordinary pair volumes.
    preferred_volume_range:
        ``(low, high)`` uniform range of the preferred pair volumes (typically
        an order of magnitude above the base range).
    include_routers:
        When True, backbone and access routers are eligible traffic endpoints
        in addition to the virtual customer/peer nodes, matching the paper's
        examples of preferred pairs "between two backbone routers".
    """

    pair_fraction: float = 1.0
    preferred_pairs: int = 4
    base_volume_range: Tuple[float, float] = (1.0, 10.0)
    preferred_volume_range: Tuple[float, float] = (50.0, 100.0)
    include_routers: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.pair_fraction <= 1.0:
            raise ValueError("pair_fraction must be in (0, 1]")
        if self.preferred_pairs < 0:
            raise ValueError("preferred_pairs must be non-negative")
        for low, high in (self.base_volume_range, self.preferred_volume_range):
            if not 0 < low <= high < math.inf:
                raise ValueError("volume ranges must satisfy 0 < low <= high < inf")


def eligible_endpoints(pop: POPTopology, include_routers: bool = False) -> List[Hashable]:
    """Endpoints between which traffic may flow.

    By default these are the virtual nodes (customers, peers, remote POPs),
    i.e. "the traffic entering and leaving the POP"; with
    ``include_routers=True`` the physical routers are added as well.
    """
    endpoints = pop.virtual_nodes
    if include_routers or not endpoints:
        endpoints = endpoints + pop.routers
    return endpoints


def generate_demands(
    pop: POPTopology,
    config: Optional[DemandConfig] = None,
    seed: Optional[int] = None,
) -> Dict[Tuple[Hashable, Hashable], float]:
    """Generate a random non-uniform demand matrix for a POP.

    Returns a mapping ``(ingress, egress) -> volume`` over ordered pairs of
    eligible endpoints.  Deterministic for a given ``seed``.
    """
    config = config or DemandConfig()
    rng = random.Random(seed)
    endpoints = eligible_endpoints(pop, include_routers=config.include_routers)
    if len(endpoints) < 2:
        raise ValueError(f"POP {pop.name!r} has fewer than two eligible traffic endpoints")

    pairs = [(u, v) for u in endpoints for v in endpoints if u != v]
    if config.pair_fraction < 1.0:
        count = max(1, int(round(config.pair_fraction * len(pairs))))
        pairs = rng.sample(pairs, count)

    demands: Dict[Tuple[Hashable, Hashable], float] = {}
    low, high = config.base_volume_range
    for pair in pairs:
        demands[pair] = rng.uniform(low, high)

    preferred_count = min(config.preferred_pairs, len(pairs))
    plow, phigh = config.preferred_volume_range
    for pair in rng.sample(pairs, preferred_count):
        demands[pair] = rng.uniform(plow, phigh)
    return demands


def generate_traffic_matrix(
    pop: POPTopology,
    demand_config: Optional[DemandConfig] = None,
    routing_config: Optional[RoutingConfig] = None,
    seed: Optional[int] = None,
) -> TrafficMatrix:
    """Generate demands and route them in one call.

    This is the convenience entry point used by the experiment harness and
    the examples: it produces exactly the kind of instance the paper's
    simulations run on (random non-uniform demands, asymmetric shortest-path
    routing).
    """
    demands = generate_demands(pop, config=demand_config, seed=seed)
    routing = routing_config or RoutingConfig(tie_break_seed=seed or 0)
    return route_demands(pop, demands, config=routing)
