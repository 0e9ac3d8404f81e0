"""Routing of a demand matrix over a POP.

The paper assumes, "as in [Nguyen & Thiran]", that traffic follows shortest
paths from the router where it enters the POP to the router where it leaves
it, and -- contrary to [Bejerano & Rastogi] -- does *not* assume symmetric
routing: the path from ``u`` to ``v`` may differ from the path from ``v`` to
``u``.  Section 5 additionally considers multi-routed traffics produced by
load balancing, i.e. several weighted shortest paths per ingress/egress pair.

This module turns a demand dictionary ``(src, dst) -> volume`` into a
:class:`~repro.traffic.demands.TrafficMatrix` under those policies.

Paths are found with one shortest-path search per distinct ingress, not one
per demand: a breadth-first search for hop counts, or Dijkstra's algorithm
when :attr:`RoutingConfig.weight` names an edge attribute.  The distances of
each ingress live, for one :func:`route_demands` call, in a list indexed by
node position, and a demand's equal-cost paths are read off by walking back
from its egress over the neighbours exactly one edge closer to the ingress.
A demand's candidate paths are every shortest simple path, each once, sorted
on ``[repr(n) for n in path]`` and capped at ``max_paths``: the list, order
and cap of a per-demand ``networkx.all_shortest_paths`` search (which lists
a path once more per zero-weight edge at the ingress), so the single-path
tie-break draws the same numbers and picks the same routes.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.topology.pop import POPTopology
from repro.traffic.demands import Route, Traffic, TrafficMatrix

#: Per node position, the ``(neighbour position, edge weight)`` pairs.
Adjacency = Sequence[Sequence[Tuple[int, float]]]


@dataclass
class RoutingConfig:
    """Routing policy parameters.

    Attributes
    ----------
    multipath:
        When True, demands are split equally over all shortest paths (ECMP),
        producing the multi-routed traffics of Section 5.  When False each
        demand follows a single shortest path.
    symmetric:
        When True the path chosen for ``(u, v)`` is reused (reversed) for
        ``(v, u)``.  The paper's simulations use asymmetric routing, the
        default here.
    weight:
        Edge attribute used as the routing metric; ``None`` means hop count.
        An edge without the attribute weighs 1.
    max_paths:
        Upper bound on the number of ECMP paths kept per demand (ties beyond
        this count are dropped deterministically).
    tie_break_seed:
        Seed for the deterministic tie-break applied when several shortest
        paths exist and ``multipath`` is False.
    """

    multipath: bool = False
    symmetric: bool = False
    weight: Optional[str] = None
    max_paths: int = 4
    tie_break_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_paths < 1:
            raise ValueError("max_paths must be at least 1")


def _adjacency(pop: POPTopology, position: Mapping[Hashable, int], weight: Optional[str]) -> Adjacency:
    """The POP's adjacency in ``position`` order, weighted by ``weight`` (hop count if None)."""
    adjacency: List[List[Tuple[int, float]]] = []
    for node in position:
        row = []
        for other, data in pop.graph.adj[node].items():
            cost = 1 if weight is None else data.get(weight, 1)
            if not 0 <= cost < math.inf:
                raise ValueError(
                    f"edge ({node!r}, {other!r}) has {weight} {cost!r}; "
                    "routing weights must be finite and non-negative"
                )
            row.append((position[other], cost))
        adjacency.append(row)
    return adjacency


def _distances(adjacency: Adjacency, source: int, weighted: bool) -> List[float]:
    """Distance from node position ``source`` to every node position.

    Hop counts by breadth-first search, or weight sums by Dijkstra's
    algorithm when ``weighted``; ``math.inf`` marks an unreachable node.
    """
    dist: List[float] = [math.inf] * len(adjacency)
    dist[source] = 0
    if not weighted:
        queue = deque([source])
        while queue:
            u = queue.popleft()
            step = dist[u] + 1
            for v, _ in adjacency[u]:
                if step < dist[v]:
                    dist[v] = step
                    queue.append(v)
        return dist
    heap: List[Tuple[float, int]] = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, cost in adjacency[u]:
            if d + cost < dist[v]:
                dist[v] = d + cost
                heapq.heappush(heap, (d + cost, v))
    return dist


def _walk_back(adjacency: Adjacency, dist: Sequence[float], source: int, target: int) -> List[List[int]]:
    """Every shortest simple path from ``source`` to a reachable ``target``.

    Depth-first from ``target`` over the neighbours ``v`` of each node ``u``
    with ``dist[v] + w(v, u) == dist[u]``; a node already on the path is not
    re-entered, so zero-weight edges cannot loop.
    """
    paths: List[List[int]] = []
    path = [target]
    branches = [iter(adjacency[target])]
    while branches:
        u = path[-1]
        for v, cost in branches[-1]:
            if dist[v] + cost == dist[u] and v not in path:
                break
        else:
            path.pop()
            branches.pop()
            continue
        if v == source:
            paths.append([source, *reversed(path)])
        else:
            path.append(v)
            branches.append(iter(adjacency[v]))
    return paths


def route_demands(
    pop: POPTopology,
    demands: Mapping[Tuple[Hashable, Hashable], float],
    config: Optional[RoutingConfig] = None,
) -> TrafficMatrix:
    """Route a demand matrix over the POP, producing a :class:`TrafficMatrix`.

    Each distinct ingress is searched once, and each demand's shortest paths
    are walked back from its egress over that ingress's distances (see the
    module docstring).  A demand's candidate paths are all its shortest
    simple paths sorted on ``[repr(n) for n in path]`` and capped at
    ``config.max_paths``; multipath routing splits the volume over them, and
    single-path routing draws one with a :class:`random.Random` seeded by
    ``config.tie_break_seed``, in demand order.

    Parameters
    ----------
    pop:
        Topology over which to route.
    demands:
        Mapping ``(ingress, egress) -> volume``; zero or negative volumes are
        skipped.
    config:
        Routing policy; defaults to single-path asymmetric shortest-path
        routing as in the paper's simulations.

    Raises
    ------
    ValueError
        If a demand endpoint is not a node of the POP, no path exists
        between a demand's endpoints, a volume is not finite, or a routing
        weight is negative or not finite.
    """
    config = config or RoutingConfig()
    rng = random.Random(config.tie_break_seed)
    matrix = TrafficMatrix()
    symmetric_cache: Dict[Tuple[Hashable, Hashable], Tuple[Hashable, ...]] = {}
    nodes = list(pop.graph)
    position = {node: i for i, node in enumerate(nodes)}
    adjacency = _adjacency(pop, position, config.weight)
    distances: Dict[int, List[float]] = {}

    for index, ((source, destination), volume) in enumerate(demands.items()):
        if volume <= 0:
            continue
        if source == destination:
            raise ValueError(f"demand {index}: source and destination are both {source!r}")
        for endpoint in (source, destination):
            if endpoint not in pop.graph:
                raise ValueError(f"demand endpoint {endpoint!r} is not a node of POP {pop.name!r}")

        ingress, egress = position[source], position[destination]
        dist = distances.get(ingress)
        if dist is None:
            dist = distances[ingress] = _distances(adjacency, ingress, config.weight is not None)
        if dist[egress] == math.inf:
            raise ValueError(f"no path between {source!r} and {destination!r} in POP {pop.name!r}")
        paths = [tuple([nodes[i] for i in path]) for path in _walk_back(adjacency, dist, ingress, egress)]
        if len(paths) > 1:
            paths.sort(key=lambda p: [repr(n) for n in p])
            del paths[config.max_paths :]

        traffic_id = (source, destination)
        if config.multipath and len(paths) > 1:
            share = volume / len(paths)
            routes = [Route(path, share) for path in paths]
        else:
            if config.symmetric and (destination, source) in symmetric_cache:
                chosen = symmetric_cache[(destination, source)][::-1]
            else:
                # Deterministic pseudo-random tie-break among equal-cost paths,
                # mimicking the arbitrary choices of a real routing protocol.
                chosen = paths[rng.randrange(len(paths))] if len(paths) > 1 else paths[0]
            symmetric_cache[(source, destination)] = chosen
            routes = [Route(chosen, volume)]
        matrix.add(Traffic(traffic_id=traffic_id, routes=routes))
    return matrix
