"""Traffic and traffic-matrix data model.

Definitions follow Section 4.1 of the paper:

* a **traffic** ``t`` is a path ``p_t`` between two nodes together with a
  bandwidth ``v_t`` (single-routed case), or a set of weighted paths between
  the same ingress/egress pair (multi-routed case of Section 5);
* the **load** of a link is the sum of the volumes of the traffics (routes)
  crossing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.topology.pop import LinkKey, link_key


@dataclass(frozen=True)
class Route:
    """A single weighted path of a traffic.

    Attributes
    ----------
    nodes:
        The sequence of nodes traversed, including ingress and egress.
    volume:
        Bandwidth carried along this path (must be positive and finite).
    """

    nodes: Tuple[Hashable, ...]
    volume: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a route needs at least two nodes")
        if not 0 < self.volume < math.inf:
            raise ValueError(f"route volume must be positive and finite, got {self.volume}")
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def links(self) -> Tuple[LinkKey, ...]:
        """The links traversed, as canonical keys."""
        return tuple(link_key(u, v) for u, v in zip(self.nodes[:-1], self.nodes[1:]))

    @property
    def source(self) -> Hashable:
        return self.nodes[0]

    @property
    def destination(self) -> Hashable:
        return self.nodes[-1]

    def uses_link(self, link: LinkKey) -> bool:
        """True when this route traverses ``link``."""
        return link_key(*link) in self.links


@dataclass
class Traffic:
    """A traffic: one or several weighted routes between the same endpoints.

    In the single-routed setting (Section 4) a traffic has exactly one route;
    in the multi-routed setting (Section 5) the ISP load-balances it over
    several routes whose volumes sum to the traffic volume.
    """

    traffic_id: Hashable
    routes: List[Route] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.routes:
            raise ValueError(f"traffic {self.traffic_id!r} has no route")
        sources = {r.source for r in self.routes}
        destinations = {r.destination for r in self.routes}
        if len(sources) != 1 or len(destinations) != 1:
            raise ValueError(
                f"traffic {self.traffic_id!r}: all routes must share the same endpoints"
            )

    @classmethod
    def single_path(cls, traffic_id: Hashable, nodes: Sequence[Hashable], volume: float) -> "Traffic":
        """Build a single-routed traffic from a node path and a volume."""
        return cls(traffic_id=traffic_id, routes=[Route(tuple(nodes), volume)])

    @property
    def source(self) -> Hashable:
        return self.routes[0].source

    @property
    def destination(self) -> Hashable:
        return self.routes[0].destination

    @property
    def volume(self) -> float:
        """Total bandwidth of the traffic across all its routes."""
        return sum(route.volume for route in self.routes)

    @property
    def is_multipath(self) -> bool:
        return len(self.routes) > 1

    @property
    def links(self) -> Set[LinkKey]:
        """Union of the links used by every route of the traffic."""
        out: Set[LinkKey] = set()
        for route in self.routes:
            out.update(route.links)
        return out

    def uses_link(self, link: LinkKey) -> bool:
        return link_key(*link) in self.links


class TrafficMatrix:
    """A collection of traffics flowing through a POP.

    The matrix is the object consumed by every placement algorithm in
    :mod:`repro.passive`: it knows the traffics, their routes and the
    resulting per-link loads.
    """

    def __init__(self, traffics: Iterable[Traffic] = ()) -> None:
        self._traffics: Dict[Hashable, Traffic] = {}
        for traffic in traffics:
            self.add(traffic)

    # -- construction -------------------------------------------------------
    def add(self, traffic: Traffic) -> None:
        """Add a traffic; duplicate identifiers are rejected."""
        if traffic.traffic_id in self._traffics:
            raise ValueError(f"duplicate traffic id {traffic.traffic_id!r}")
        self._traffics[traffic.traffic_id] = traffic

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._traffics)

    def __iter__(self) -> Iterator[Traffic]:
        return iter(self._traffics.values())

    def __contains__(self, traffic_id: Hashable) -> bool:
        return traffic_id in self._traffics

    def __getitem__(self, traffic_id: Hashable) -> Traffic:
        return self._traffics[traffic_id]

    @property
    def traffic_ids(self) -> List[Hashable]:
        return list(self._traffics)

    # -- aggregate queries ----------------------------------------------------
    @property
    def total_volume(self) -> float:
        """Total bandwidth carried by the POP, ``V`` in the paper."""
        return sum(t.volume for t in self)

    @property
    def links(self) -> List[LinkKey]:
        """All links crossed by at least one traffic.

        Iterates routes (not the per-traffic link *sets*) so the order is
        first-crossing order -- deterministic across processes.  Model
        builders index variables by this list, so a hash-seed-dependent
        order would make solver pivot sequences differ run to run.
        """
        seen: Set[LinkKey] = set()
        out: List[LinkKey] = []
        for traffic in self:
            for route in traffic.routes:
                for link in route.links:
                    if link not in seen:
                        seen.add(link)
                        out.append(link)
        return out

    def link_loads(self) -> Dict[LinkKey, float]:
        """Load of every link: sum of route volumes crossing it."""
        loads: Dict[LinkKey, float] = {}
        for traffic in self:
            for route in traffic.routes:
                for link in route.links:
                    loads[link] = loads.get(link, 0.0) + route.volume
        return loads

    def traffics_on_link(self, link: LinkKey) -> List[Traffic]:
        """Traffics having at least one route through ``link``."""
        key = link_key(*link)
        return [t for t in self if key in t.links]

    def monitored_volume(self, monitored_links: Iterable[LinkKey]) -> float:
        """Volume of the traffics crossing at least one monitored link.

        This is the coverage notion of Section 4 (a traffic is either
        monitored -- some link of its path carries a tap -- or not).  Each
        route's consecutive node pairs are looked up among the monitored
        links in both orientations, so no link key is built per hop.
        """
        hops: Set[Tuple[Hashable, Hashable]] = set()
        for u, v in monitored_links:
            hops.update(((u, v), (v, u)))
        return sum(
            t.volume
            for t in self
            if any(not hops.isdisjoint(zip(r.nodes, r.nodes[1:])) for r in t.routes)
        )

    def coverage(self, monitored_links: Iterable[LinkKey]) -> float:
        """Fraction of the total volume monitored by ``monitored_links``."""
        total = self.total_volume
        if total == 0:
            return 1.0
        return self.monitored_volume(monitored_links) / total

    def scaled(self, factor: float) -> "TrafficMatrix":
        """Return a copy of the matrix with every volume multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        scaled = TrafficMatrix()
        for traffic in self:
            routes = [Route(r.nodes, r.volume * factor) for r in traffic.routes]
            scaled.add(Traffic(traffic_id=traffic.traffic_id, routes=routes))
        return scaled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrafficMatrix({len(self)} traffics, total_volume={self.total_volume:g}, "
            f"{len(self.links)} loaded links)"
        )
