"""POP (Point of Presence) data model.

Section 2 of the paper describes an ISP POP as a two-level hierarchy:
backbone (core) routers interconnected among themselves and towards other
POPs / peers, and access routers hanging off the backbone and terminating
customer links.  Traffic enters and leaves the POP through *virtual* nodes
standing for the customers, peers and remote POPs ("the generated network
includes some virtual nodes that represent sources and targets of the traffic
and that are not considered as routers in the POP").

:class:`POPTopology` wraps a :class:`networkx.Graph` and keeps track of the
role of every node so that the traffic generator can build realistic ingress/
egress pairs and the experiment harness can report router counts the same way
the paper does (routers = backbone + access, excluding virtual endpoints).
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, Iterator, List, Tuple

import networkx as nx

#: Canonical (order-independent) representation of an undirected link.
LinkKey = Tuple[Hashable, Hashable]


class NodeRole(str, enum.Enum):
    """Role of a node inside the POP."""

    BACKBONE = "backbone"
    ACCESS = "access"
    CUSTOMER = "customer"
    PEER = "peer"
    REMOTE_POP = "remote_pop"

    @property
    def is_router(self) -> bool:
        """True for nodes physically located in the POP (backbone/access)."""
        return self in (NodeRole.BACKBONE, NodeRole.ACCESS)

    @property
    def is_virtual(self) -> bool:
        """True for traffic endpoints outside the POP."""
        return not self.is_router


def link_key(u: Hashable, v: Hashable) -> LinkKey:
    """Canonical key for an undirected link, independent of endpoint order."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


class POPTopology:
    """A POP topology with role-annotated nodes.

    Parameters
    ----------
    name:
        Human-readable identifier (used in reports and benchmarks).
    """

    def __init__(self, name: str = "pop") -> None:
        self.name = name
        self.graph = nx.Graph()

    # -- construction -------------------------------------------------------
    def add_router(self, node: Hashable, role: NodeRole) -> None:
        """Add a node with the given role.

        Adding an existing node updates its role.
        """
        if not isinstance(role, NodeRole):
            role = NodeRole(role)
        self.graph.add_node(node, role=role)

    def add_link(self, u: Hashable, v: Hashable, capacity: float = 1.0) -> None:
        """Add an undirected link between two existing nodes.

        Raises
        ------
        KeyError
            If either endpoint has not been added yet (roles must be known
            before links are created).
        ValueError
            For self-loops, which have no meaning in a POP.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        for node in (u, v):
            if node not in self.graph:
                raise KeyError(f"node {node!r} must be added with add_router before linking")
        self.graph.add_edge(u, v, capacity=float(capacity))

    # -- queries -------------------------------------------------------------
    def role(self, node: Hashable) -> NodeRole:
        """Role of ``node``."""
        return self.graph.nodes[node]["role"]

    def nodes_with_role(self, *roles: NodeRole) -> List[Hashable]:
        """All nodes having one of the given roles, in insertion order."""
        wanted = set(roles)
        return [n for n, data in self.graph.nodes(data=True) if data["role"] in wanted]

    @property
    def routers(self) -> List[Hashable]:
        """Physical routers of the POP (backbone + access)."""
        return self.nodes_with_role(NodeRole.BACKBONE, NodeRole.ACCESS)

    @property
    def backbone_routers(self) -> List[Hashable]:
        return self.nodes_with_role(NodeRole.BACKBONE)

    @property
    def access_routers(self) -> List[Hashable]:
        return self.nodes_with_role(NodeRole.ACCESS)

    @property
    def virtual_nodes(self) -> List[Hashable]:
        """Traffic endpoints: customers, peers and remote POPs."""
        return self.nodes_with_role(NodeRole.CUSTOMER, NodeRole.PEER, NodeRole.REMOTE_POP)

    @property
    def num_routers(self) -> int:
        """Router count as reported in the paper (virtual nodes excluded)."""
        return len(self.routers)

    @property
    def num_links(self) -> int:
        """Total number of links, including attachment links of virtual nodes."""
        return self.graph.number_of_edges()

    @property
    def links(self) -> List[LinkKey]:
        """Every link as a canonical key."""
        return [link_key(u, v) for u, v in self.graph.edges()]

    def router_links(self) -> List[LinkKey]:
        """Links whose both endpoints are physical routers."""
        return [
            link_key(u, v)
            for u, v in self.graph.edges()
            if self.role(u).is_router and self.role(v).is_router
        ]

    def is_connected(self) -> bool:
        """True when the topology is a single connected component."""
        return self.graph.number_of_nodes() > 0 and nx.is_connected(self.graph)

    def degree(self, node: Hashable) -> int:
        return self.graph.degree[node]

    def neighbors(self, node: Hashable) -> Iterator[Hashable]:
        return self.graph.neighbors(node)

    def copy(self) -> "POPTopology":
        """Deep-ish copy (graph copied, node objects shared)."""
        clone = POPTopology(self.name)
        clone.graph = self.graph.copy()
        return clone

    def summary(self) -> Dict[str, int]:
        """Counters used by reports: routers, links, endpoints."""
        return {
            "backbone_routers": len(self.backbone_routers),
            "access_routers": len(self.access_routers),
            "routers": self.num_routers,
            "virtual_endpoints": len(self.virtual_nodes),
            "links": self.num_links,
            "router_links": len(self.router_links()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return (
            f"POPTopology({self.name!r}, routers={s['routers']}, "
            f"links={s['links']}, endpoints={s['virtual_endpoints']})"
        )
