"""Minimum Edge Cost Flow model of PPM(k) (Theorem 2).

Section 4.3 of the paper reduces the partial passive monitoring problem to a
Minimum Edge Cost Flow (MECF): a flow problem in which an arc is paid a fixed
cost as soon as it carries *any* positive flow.  The auxiliary graph is

* a source ``S`` and a sink ``T``;
* one vertex ``w_e`` per network link ``e``, fed by an arc ``S -> w_e`` of
  unbounded capacity and unit (binary) cost;
* one vertex ``w_t`` per traffic ``t``, drained by an arc ``w_t -> T`` of
  capacity ``v_t`` (the traffic volume) and zero cost;
* a zero-cost unbounded arc ``w_e -> w_t`` whenever traffic ``t`` traverses
  link ``e``.

Routing a flow of value ``k * sum_t v_t`` from ``S`` to ``T`` at minimum
(binary) cost selects a minimum set of links monitoring a fraction ``k`` of
the traffic.  The exact problem is solved as a MIP; the classical greedy
heuristics of the literature correspond to the *linear* relaxation where the
``S -> w_e`` arc costs ``1 / load(e)``, which this module also implements on
top of the ordinary min-cost flow solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.flows.min_cost_flow import FlowNetwork, successive_shortest_paths
from repro.optim import Model, lin_sum, selected

#: Identifier of a network link in the MECF instance (opaque, hashable).
EdgeId = Hashable
#: Identifier of a traffic in the MECF instance (opaque, hashable).
TrafficId = Hashable


@dataclass
class MECFInstance:
    """A PPM(k) instance expressed in MECF terms.

    Attributes
    ----------
    traffic_edges:
        Mapping traffic id -> set of link ids its path traverses.
    traffic_volumes:
        Mapping traffic id -> bandwidth (must be positive).
    coverage:
        Required fraction ``k`` of the total volume, in ``(0, 1]``.
    """

    traffic_edges: Dict[TrafficId, Set[EdgeId]]
    traffic_volumes: Dict[TrafficId, float]
    coverage: float

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {self.coverage}")
        missing = set(self.traffic_edges) - set(self.traffic_volumes)
        if missing:
            raise ValueError(f"volumes missing for traffics: {sorted(map(str, missing))}")
        if any(v <= 0 for v in self.traffic_volumes.values()):
            raise ValueError("traffic volumes must be positive")
        self.traffic_edges = {t: set(edges) for t, edges in self.traffic_edges.items()}

    @property
    def edges(self) -> List[EdgeId]:
        """All link ids appearing in at least one traffic path."""
        seen: Set[EdgeId] = set()
        out: List[EdgeId] = []
        for edges in self.traffic_edges.values():
            for e in edges:
                if e not in seen:
                    seen.add(e)
                    out.append(e)
        return out

    @property
    def total_volume(self) -> float:
        """Total bandwidth carried by the network, ``V = sum_t v_t``."""
        return sum(self.traffic_volumes[t] for t in self.traffic_edges)

    @property
    def required_volume(self) -> float:
        """Volume that must cross a monitored link, ``k * V``."""
        return self.coverage * self.total_volume

    def edge_load(self, edge: EdgeId) -> float:
        """Load of a link: total volume of the traffics traversing it."""
        return sum(
            self.traffic_volumes[t] for t, edges in self.traffic_edges.items() if edge in edges
        )

    def monitored_volume(self, selected_edges: Iterable[EdgeId]) -> float:
        """Volume of the traffics crossing at least one selected link."""
        selected = set(selected_edges)
        return sum(
            self.traffic_volumes[t]
            for t, edges in self.traffic_edges.items()
            if edges & selected
        )

    def is_feasible_selection(self, selected_edges: Iterable[EdgeId], tol: float = 1e-9) -> bool:
        """True when the selection monitors at least ``k * V``."""
        return self.monitored_volume(selected_edges) >= self.required_volume - tol


@dataclass
class MECFResult:
    """Solution of an MECF instance.

    Attributes
    ----------
    selected_edges:
        Links on which a monitor is installed (arcs ``S -> w_e`` paying their
        cost).
    monitored_volume:
        Volume of traffic crossing a selected link.
    flow_assignment:
        Mapping ``(edge, traffic) -> monitored volume of that traffic on that
        edge`` -- the ``f_t^e`` variables of Linear program 1.
    objective:
        Number of selected edges (the MECF cost).
    """

    selected_edges: List[EdgeId]
    monitored_volume: float
    flow_assignment: Dict[Tuple[EdgeId, TrafficId], float] = field(default_factory=dict)

    @property
    def objective(self) -> int:
        return len(self.selected_edges)


def build_mecf_instance(
    paths: Mapping[TrafficId, Sequence[EdgeId]],
    volumes: Mapping[TrafficId, float],
    coverage: float,
) -> MECFInstance:
    """Convenience constructor taking paths given as sequences of link ids."""
    return MECFInstance(
        traffic_edges={t: set(edges) for t, edges in paths.items()},
        traffic_volumes=dict(volumes),
        coverage=coverage,
    )


def build_auxiliary_network(instance: MECFInstance, edge_costs: Optional[Mapping[EdgeId, float]] = None) -> FlowNetwork:
    """Build the auxiliary flow network of Theorem 2.

    ``edge_costs`` overrides the cost of the ``S -> w_e`` arcs; the default is
    the unit cost of the binary MECF objective.  Passing ``1 / load(e)``
    produces the network whose ordinary min-cost flow reproduces the greedy
    heuristic (Section 4.3, "Heuristics").
    """
    network = FlowNetwork()
    total = instance.total_volume
    for edge in instance.edges:
        cost = 1.0 if edge_costs is None else edge_costs[edge]
        network.add_arc("S", ("edge", edge), capacity=total, cost=cost, key=edge)
    for traffic, edges in instance.traffic_edges.items():
        volume = instance.traffic_volumes[traffic]
        network.add_arc(("traffic", traffic), "T", capacity=volume, cost=0.0, key=traffic)
        for edge in edges:
            network.add_arc(
                ("edge", edge), ("traffic", traffic), capacity=volume, cost=0.0, key=(edge, traffic)
            )
    return network


def solve_mecf_exact(instance: MECFInstance, backend: str = "auto") -> MECFResult:
    """Solve MECF exactly through the arc-path MIP (Linear program 1).

    Variables ``f_t^e`` carry the volume of traffic ``t`` monitored on link
    ``e`` and binary ``x_e`` pay for opening the ``S -> w_e`` arc.
    """
    edges = instance.edges
    model = Model("mecf", sense="min")
    x = {e: model.add_var(f"x[{i}]", vartype="binary") for i, e in enumerate(edges)}
    f: Dict[Tuple[EdgeId, TrafficId], "object"] = {}
    for j, (traffic, tr_edges) in enumerate(instance.traffic_edges.items()):
        for e in tr_edges:
            f[(e, traffic)] = model.add_var(f"f[{j},{edges.index(e)}]", lb=0.0)

    edge_to_traffics: Dict[EdgeId, List[TrafficId]] = {e: [] for e in edges}
    for traffic, tr_edges in instance.traffic_edges.items():
        for e in tr_edges:
            edge_to_traffics[e].append(traffic)

    # Flow through w_e only when the arc S -> w_e is paid for.
    for e in edges:
        capacity = sum(instance.traffic_volumes[t] for t in edge_to_traffics[e])
        model.add_constr(
            lin_sum(f[(e, t)] for t in edge_to_traffics[e]) <= capacity * x[e],
            name=f"open[{edges.index(e)}]",
        )
    # Each traffic is monitored at most once (capacity of w_t -> T).
    for traffic, tr_edges in instance.traffic_edges.items():
        model.add_constr(
            lin_sum(f[(e, traffic)] for e in tr_edges) <= instance.traffic_volumes[traffic],
            name=f"cap[{traffic}]",
        )
    # The requested volume must be shipped.
    model.add_constr(
        lin_sum(f[key] for key in f) >= instance.required_volume,
        name="coverage",
    )
    model.set_objective(lin_sum(x[e] for e in edges))
    solution = model.solve(backend=backend, raise_on_infeasible=True)

    chosen = selected(solution, x)
    assignment = {
        key: solution.value(var.name) for key, var in f.items() if solution.value(var.name) > 1e-9
    }
    return MECFResult(
        selected_edges=chosen,
        monitored_volume=instance.monitored_volume(chosen),
        flow_assignment=assignment,
    )


def solve_mecf_relaxation(instance: MECFInstance) -> MECFResult:
    """Flow-based heuristic: min-cost flow with ``1 / load`` arc costs.

    This is the paper's reinterpretation of the classical greedy heuristics:
    replacing the binary cost of the ``S -> w_e`` arcs by the linear cost
    ``1 / load(e)`` makes cheap (heavily loaded) links attractive, and the
    links carrying positive flow in the resulting ordinary min-cost flow form
    the monitored set.
    """
    loads = {e: instance.edge_load(e) for e in instance.edges}
    costs = {e: (1.0 / load if load > 0 else float("inf")) for e, load in loads.items()}
    usable_costs = {e: c for e, c in costs.items() if c != float("inf")}
    network = build_auxiliary_network(instance, edge_costs=usable_costs)
    result = successive_shortest_paths(
        network, "S", "T", target_flow=instance.required_volume, allow_partial=False
    )
    selected: List[EdgeId] = []
    assignment: Dict[Tuple[EdgeId, TrafficId], float] = {}
    for (tail, head, key), flow in result.arc_flows.items():
        if tail == "S":
            selected.append(key)
        elif isinstance(tail, tuple) and tail[0] == "edge" and isinstance(head, tuple) and head[0] == "traffic":
            assignment[(tail[1], head[1])] = flow
    return MECFResult(
        selected_edges=selected,
        monitored_volume=instance.monitored_volume(selected),
        flow_assignment=assignment,
    )
