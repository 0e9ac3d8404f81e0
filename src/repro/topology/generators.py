"""Random POP topology generators.

The generator follows the two-level hierarchical structure of Section 2
(Figure 2): a backbone mesh, access routers multi-homed onto the backbone,
customer endpoints attached to access routers, and peer / remote-POP
endpoints attached to backbone routers.  Presets reproduce the router counts
used in the paper's evaluation:

========  ========  ======  =================================
Preset    Backbone  Access  Used for
========  ========  ======  =================================
``pop10``        4       6  Figure 7 (27 links, 132 traffics)
``pop15``        5      10  Figures 8 and 9
``pop29``        8      21  Figure 10
``pop80``       16      64  Figure 11
========  ========  ======  =================================

Link counts and traffic counts depend on the random attachment process; the
defaults are tuned so the generated instances have the same order of
magnitude as those reported in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.topology.pop import NodeRole, POPTopology


@dataclass
class POPGeneratorConfig:
    """Parameters of the random POP generator.

    Attributes
    ----------
    n_backbone:
        Number of backbone (core) routers.
    n_access:
        Number of access routers.
    n_customers:
        Number of customer endpoints (virtual nodes attached to access
        routers).
    n_peers:
        Number of peer / remote-POP endpoints (virtual nodes attached to
        backbone routers).
    backbone_extra_edge_prob:
        Probability of adding each non-ring backbone-backbone link; the
        backbone always starts from a ring so the POP is connected.
    access_homing:
        Number of backbone routers each access router is connected to
        (multi-homing degree, at least 1).
    customer_homing:
        Number of access routers each customer is connected to.
    capacity_backbone / capacity_access / capacity_attachment:
        Link capacities (arbitrary units, only used by capacity-aware
        extensions).
    """

    n_backbone: int = 4
    n_access: int = 6
    n_customers: int = 8
    n_peers: int = 3
    backbone_extra_edge_prob: float = 0.5
    access_homing: int = 2
    customer_homing: int = 1
    capacity_backbone: float = 10.0
    capacity_access: float = 2.5
    capacity_attachment: float = 1.0

    def __post_init__(self) -> None:
        if self.n_backbone < 1:
            raise ValueError("a POP needs at least one backbone router")
        if self.n_access < 0 or self.n_customers < 0 or self.n_peers < 0:
            raise ValueError("router and endpoint counts must be non-negative")
        if not 0.0 <= self.backbone_extra_edge_prob <= 1.0:
            raise ValueError("backbone_extra_edge_prob must be a probability")
        if self.access_homing < 1:
            raise ValueError("access routers must connect to at least one backbone router")
        if self.customer_homing < 1:
            raise ValueError("customers must connect to at least one access router")

    @property
    def n_routers(self) -> int:
        return self.n_backbone + self.n_access


#: Paper-sized presets (router counts matching Figures 7-11).
PAPER_PRESETS: Dict[str, POPGeneratorConfig] = {
    "pop10": POPGeneratorConfig(
        n_backbone=4, n_access=6, n_customers=9, n_peers=3, access_homing=2, customer_homing=1
    ),
    "pop15": POPGeneratorConfig(
        n_backbone=5, n_access=10, n_customers=36, n_peers=8, access_homing=2, customer_homing=1
    ),
    "pop29": POPGeneratorConfig(
        n_backbone=8, n_access=21, n_customers=30, n_peers=8, access_homing=2, customer_homing=2
    ),
    "pop80": POPGeneratorConfig(
        n_backbone=16, n_access=64, n_customers=80, n_peers=16, access_homing=2, customer_homing=2
    ),
}


def generate_pop(
    config: POPGeneratorConfig,
    seed: Optional[int] = None,
    name: str = "pop",
) -> POPTopology:
    """Generate a random POP following the two-level hierarchy of Figure 2.

    The construction is:

    1. backbone routers arranged in a ring (guaranteeing connectivity) plus
       random chords with probability ``backbone_extra_edge_prob``;
    2. access routers each multi-homed to ``access_homing`` distinct backbone
       routers;
    3. customer endpoints attached to ``customer_homing`` access routers;
    4. peer / remote-POP endpoints attached to one backbone router each.

    The generator is deterministic for a given ``seed``.
    """
    rng = random.Random(seed)
    pop = POPTopology(name=name)

    backbone = [f"bb{i}" for i in range(config.n_backbone)]
    access = [f"ar{i}" for i in range(config.n_access)]
    customers = [f"cust{i}" for i in range(config.n_customers)]
    peers = [f"peer{i}" for i in range(config.n_peers)]

    for node in backbone:
        pop.add_router(node, NodeRole.BACKBONE)
    for node in access:
        pop.add_router(node, NodeRole.ACCESS)
    for node in customers:
        pop.add_router(node, NodeRole.CUSTOMER)
    for node in peers:
        pop.add_router(node, NodeRole.PEER)

    # 1. Backbone ring + random chords.
    if config.n_backbone > 1:
        for i in range(config.n_backbone):
            pop.add_link(backbone[i], backbone[(i + 1) % config.n_backbone], config.capacity_backbone)
    for i in range(config.n_backbone):
        for j in range(i + 2, config.n_backbone):
            # Skip pairs already linked by the ring (wrap-around neighbour).
            if i == 0 and j == config.n_backbone - 1:
                continue
            if rng.random() < config.backbone_extra_edge_prob:
                pop.add_link(backbone[i], backbone[j], config.capacity_backbone)

    # 2. Access routers multi-homed to the backbone.
    for node in access:
        homing = min(config.access_homing, config.n_backbone)
        for target in rng.sample(backbone, homing):
            pop.add_link(node, target, config.capacity_access)

    # 3. Customers attached to access routers (or to the backbone when the
    #    POP has no access layer).
    attachment_pool = access if access else backbone
    for node in customers:
        homing = min(config.customer_homing, len(attachment_pool))
        for target in rng.sample(attachment_pool, homing):
            pop.add_link(node, target, config.capacity_attachment)

    # 4. Peers / remote POPs attached to backbone routers.
    for node in peers:
        pop.add_link(node, rng.choice(backbone), config.capacity_backbone)

    return pop


def paper_pop(preset: str, seed: Optional[int] = None) -> POPTopology:
    """Generate a POP from one of the paper-sized presets.

    Parameters
    ----------
    preset:
        One of ``"pop10"``, ``"pop15"``, ``"pop29"``, ``"pop80"``.
    seed:
        Seed forwarded to :func:`generate_pop`.
    """
    if preset not in PAPER_PRESETS:
        raise KeyError(f"unknown preset {preset!r}; available: {sorted(PAPER_PRESETS)}")
    return generate_pop(PAPER_PRESETS[preset], seed=seed, name=preset)
