"""Setup and exploitation cost models for sampling-capable devices.

Section 5.3 associates two costs with a tap device installed on link ``e``:

* ``cost_i(e)`` -- the setup (installation) cost, paid once when the device
  is deployed;
* ``cost_e(e)`` -- the exploitation cost, driven by the sampling ratio the
  device runs at ("generally a nondecreasing concave function" of the rate;
  in Linear program 3 it multiplies the rate variable ``r_e`` directly, i.e.
  the MILP uses its linear upper envelope).

The cost functions "can be general"; this module offers the two families used
in the experiments -- uniform costs and capacity-scaled costs (monitoring a
faster link costs more) -- and a container mapping links to their cost pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.topology.pop import LinkKey, POPTopology, link_key


@dataclass
class LinkCostModel:
    """Per-link setup and exploitation costs.

    Attributes
    ----------
    setup:
        Mapping link -> installation cost ``cost_i(e)``.
    exploitation:
        Mapping link -> exploitation cost coefficient ``cost_e(e)`` (cost per
        unit of sampling ratio).
    default_setup / default_exploitation:
        Costs used for links absent from the explicit mappings.
    """

    setup: Dict[LinkKey, float] = field(default_factory=dict)
    exploitation: Dict[LinkKey, float] = field(default_factory=dict)
    default_setup: float = 1.0
    default_exploitation: float = 1.0

    def __post_init__(self) -> None:
        self.setup = {link_key(*l): float(c) for l, c in self.setup.items()}
        self.exploitation = {link_key(*l): float(c) for l, c in self.exploitation.items()}
        for name, mapping in (("setup", self.setup), ("exploitation", self.exploitation)):
            negative = [l for l, c in mapping.items() if c < 0]
            if negative:
                raise ValueError(f"{name} costs must be non-negative (bad links: {negative})")
        if self.default_setup < 0 or self.default_exploitation < 0:
            raise ValueError("default costs must be non-negative")

    def setup_cost(self, link: LinkKey) -> float:
        """Installation cost of a device on ``link``."""
        return self.setup.get(link_key(*link), self.default_setup)

    def exploitation_cost(self, link: LinkKey) -> float:
        """Exploitation cost coefficient of a device on ``link``."""
        return self.exploitation.get(link_key(*link), self.default_exploitation)

    def total_cost(self, links: Iterable[LinkKey], rates: Mapping[LinkKey, float]) -> float:
        """Total cost of a deployment: setup of every link + rate-weighted exploitation."""
        total = 0.0
        for link in links:
            canonical = link_key(*link)
            total += self.setup_cost(canonical)
            total += self.exploitation_cost(canonical) * rates.get(canonical, 0.0)
        return total


def uniform_costs(
    links: Iterable[LinkKey],
    setup: float = 1.0,
    exploitation: float = 1.0,
) -> LinkCostModel:
    """Same setup and exploitation cost on every link."""
    links = [link_key(*l) for l in links]
    return LinkCostModel(
        setup={l: setup for l in links},
        exploitation={l: exploitation for l in links},
        default_setup=setup,
        default_exploitation=exploitation,
    )


def capacity_scaled_costs(
    pop: POPTopology,
    setup_per_capacity: float = 1.0,
    exploitation_per_capacity: float = 0.5,
) -> LinkCostModel:
    """Costs proportional to link capacity.

    Monitoring devices able to tap OC-192 backbone links are far more
    expensive than those for access links (Section 1); scaling both costs by
    the link capacity captures that effect in the experiments.
    """
    setup: Dict[LinkKey, float] = {}
    exploitation: Dict[LinkKey, float] = {}
    for u, v, data in pop.graph.edges(data=True):
        capacity = float(data.get("capacity", 1.0))
        key = link_key(u, v)
        setup[key] = setup_per_capacity * capacity
        exploitation[key] = exploitation_per_capacity * capacity
    return LinkCostModel(setup=setup, exploitation=exploitation)
