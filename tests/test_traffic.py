"""Tests for traffic demands, routing and generation.

:func:`route_demands` searches once per ingress; it is checked against
:func:`reference_route_demands`, the per-demand ``networkx.all_shortest_paths``
routing kept here as the oracle.  :meth:`TrafficMatrix.monitored_volume`
matches route hops against the monitored links; it is checked against
:func:`reference_monitored_volume`, which intersects link-key sets.
"""

import itertools
import random

import networkx as nx
import pytest

from repro.topology import NodeRole, POPTopology, paper_pop, synthetic_rocketfuel
from repro.topology.pop import link_key
from repro.traffic import (
    DemandConfig,
    Route,
    RoutingConfig,
    Traffic,
    TrafficMatrix,
    generate_demands,
    generate_traffic_matrix,
    route_demands,
    routing,
)
from repro.traffic.generation import eligible_endpoints

NAN = float("nan")
INF = float("inf")


def reference_shortest_paths(pop, source, destination, weight=None):
    """Every shortest path between two nodes, sorted on node representation.

    One networkx search per call; an unreachable destination gives ``[]``.
    """
    try:
        paths = nx.all_shortest_paths(pop.graph, source, destination, weight=weight)
        return sorted((list(p) for p in paths), key=lambda p: [repr(n) for n in p])
    except nx.NetworkXNoPath:
        return []


def reference_route_demands(pop, demands, config, paths_of=None):
    """Route ``demands`` with one :func:`reference_shortest_paths` per demand.

    ``paths_of(source, destination)`` may stand in for that call (a memo
    shared by several configs of one instance); it returns the uncapped list.
    """
    paths_of = paths_of or (lambda s, d: reference_shortest_paths(pop, s, d, config.weight))
    rng = random.Random(config.tie_break_seed)
    matrix = TrafficMatrix()
    symmetric_cache = {}
    for index, ((source, destination), volume) in enumerate(demands.items()):
        if volume <= 0:
            continue
        if source == destination:
            raise ValueError(f"demand {index}: source and destination are both {source!r}")
        for endpoint in (source, destination):
            if endpoint not in pop.graph:
                raise ValueError(f"demand endpoint {endpoint!r} is not a node of POP {pop.name!r}")
        paths = paths_of(source, destination)[: config.max_paths]
        if not paths:
            raise ValueError(f"no path between {source!r} and {destination!r} in POP {pop.name!r}")
        traffic_id = (source, destination)
        if config.multipath and len(paths) > 1:
            share = volume / len(paths)
            routes = [Route(tuple(path), share) for path in paths]
        else:
            if config.symmetric and (destination, source) in symmetric_cache:
                chosen = list(reversed(symmetric_cache[(destination, source)]))
            else:
                chosen = paths[rng.randrange(len(paths))] if len(paths) > 1 else paths[0]
            symmetric_cache[(source, destination)] = chosen
            routes = [Route(tuple(chosen), volume)]
        matrix.add(Traffic(traffic_id=traffic_id, routes=routes))
    return matrix


#: Routing policies every oracle comparison runs under.
ORACLE_CONFIGS = {
    "default": {},
    "multipath-1": {"multipath": True, "max_paths": 1},
    "multipath-2": {"multipath": True, "max_paths": 2},
    "multipath-8": {"multipath": True, "max_paths": 8},
    "symmetric": {"symmetric": True},
}


def routed(matrix):
    """Traffic ids in order, each with its routes' nodes and volumes."""
    return [(t.traffic_id, [(r.nodes, r.volume) for r in t.routes]) for t in matrix]


def assert_matches_oracle(monkeypatch, pop, demands, seed=0, weight=None):
    """Route under every :data:`ORACLE_CONFIGS` entry; compare and count searches."""
    search = routing._distances
    searched = []

    def counted(adjacency, source, weighted):
        searched.append(source)
        return search(adjacency, source, weighted)

    monkeypatch.setattr(routing, "_distances", counted)
    memo = {}

    def paths_of(source, destination):
        if (source, destination) not in memo:
            memo[source, destination] = reference_shortest_paths(pop, source, destination, weight)
        return memo[source, destination]

    ingresses = {source for (source, _), volume in demands.items() if volume > 0}
    for name, options in ORACLE_CONFIGS.items():
        config = RoutingConfig(weight=weight, tie_break_seed=seed, **options)
        searched.clear()
        got = route_demands(pop, demands, config)
        assert routed(got) == routed(reference_route_demands(pop, demands, config, paths_of)), name
        assert len(searched) == len(set(searched)) == len(ingresses), name


def reference_monitored_volume(matrix, monitored_links):
    """Volume of the traffics whose canonical link set meets the canonical selection."""
    selected = {link_key(*link) for link in monitored_links}
    return sum(t.volume for t in matrix if t.links & selected)


def assert_monitored_volume_matches_oracle(matrix, seed, draws=40):
    """Random selections of every size, each link in a random orientation."""
    rng = random.Random(seed)
    links = matrix.links
    for _ in range(draws):
        chosen = rng.sample(links, rng.randint(0, min(len(links), 30)))
        chosen = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen]
        # Bit-identical: the same traffics summed in the same order.
        assert matrix.monitored_volume(chosen) == reference_monitored_volume(matrix, chosen)


class TestRoute:
    def test_links_are_canonical(self):
        route = Route(("a", "b", "c"), 2.0)
        assert route.links == (link_key("a", "b"), link_key("b", "c"))
        assert route.source == "a"
        assert route.destination == "c"
        assert route.uses_link(("b", "a"))

    def test_invalid_routes_rejected(self):
        with pytest.raises(ValueError):
            Route(("a",), 1.0)
        with pytest.raises(ValueError):
            Route(("a", "b"), 0.0)

    @pytest.mark.parametrize("volume", [NAN, INF])
    def test_non_finite_volume_rejected(self, volume):
        with pytest.raises(ValueError, match="finite"):
            Route(("a", "b"), volume)


class TestTraffic:
    def test_single_path_constructor(self):
        traffic = Traffic.single_path("t", ["a", "b"], 3.0)
        assert traffic.volume == 3.0
        assert not traffic.is_multipath

    def test_multipath_volume_and_links(self):
        traffic = Traffic(
            traffic_id="t",
            routes=[Route(("a", "b", "c"), 1.0), Route(("a", "d", "c"), 2.0)],
        )
        assert traffic.volume == 3.0
        assert traffic.is_multipath
        assert link_key("a", "d") in traffic.links

    def test_routes_must_share_endpoints(self):
        with pytest.raises(ValueError):
            Traffic(traffic_id="t", routes=[Route(("a", "b"), 1.0), Route(("a", "c"), 1.0)])

    def test_empty_traffic_rejected(self):
        with pytest.raises(ValueError):
            Traffic(traffic_id="t", routes=[])


class TestTrafficMatrix:
    @pytest.fixture()
    def matrix(self):
        return TrafficMatrix(
            [
                Traffic.single_path("t1", ["a", "b", "c"], 2.0),
                Traffic.single_path("t2", ["b", "c", "d"], 3.0),
                Traffic.single_path("t3", ["a", "e"], 5.0),
            ]
        )

    def test_totals(self, matrix):
        assert matrix.total_volume == 10.0
        assert len(matrix) == 3
        assert "t1" in matrix
        assert matrix["t2"].volume == 3.0

    def test_link_loads(self, matrix):
        loads = matrix.link_loads()
        assert loads[link_key("b", "c")] == 5.0
        assert loads[link_key("a", "e")] == 5.0

    def test_traffics_on_link(self, matrix):
        crossing = matrix.traffics_on_link(("c", "b"))
        assert {t.traffic_id for t in crossing} == {"t1", "t2"}

    def test_monitored_volume_and_coverage(self, matrix):
        assert matrix.monitored_volume([("b", "c")]) == 5.0
        assert matrix.coverage([("b", "c"), ("a", "e")]) == pytest.approx(1.0)
        assert matrix.coverage([]) == 0.0

    def test_duplicate_id_rejected(self, matrix):
        with pytest.raises(ValueError):
            matrix.add(Traffic.single_path("t1", ["a", "b"], 1.0))

    def test_scaled(self, matrix):
        bigger = matrix.scaled(2.0)
        assert bigger.total_volume == 20.0
        assert matrix.total_volume == 10.0
        with pytest.raises(ValueError):
            matrix.scaled(0.0)


@pytest.fixture()
def diamond_pop():
    """A 4-node diamond with two equal-cost paths between a and c."""
    pop = POPTopology("diamond")
    for node in ("a", "b", "c", "d"):
        pop.add_router(node, NodeRole.BACKBONE)
    pop.add_link("a", "b")
    pop.add_link("b", "c")
    pop.add_link("a", "d")
    pop.add_link("d", "c")
    return pop


class TestRouting:
    def test_single_path_routing(self, diamond_pop):
        matrix = route_demands(diamond_pop, {("a", "c"): 4.0})
        traffic = matrix[("a", "c")]
        assert not traffic.is_multipath
        assert traffic.volume == 4.0
        assert len(traffic.routes[0].nodes) == 3

    def test_multipath_splits_volume(self, diamond_pop):
        matrix = route_demands(
            diamond_pop, {("a", "c"): 4.0}, RoutingConfig(multipath=True)
        )
        traffic = matrix[("a", "c")]
        assert traffic.is_multipath
        assert len(traffic.routes) == 2
        assert traffic.volume == pytest.approx(4.0)
        assert all(r.volume == pytest.approx(2.0) for r in traffic.routes)

    def test_symmetric_routing_reuses_reverse_path(self, diamond_pop):
        matrix = route_demands(
            diamond_pop,
            {("a", "c"): 1.0, ("c", "a"): 1.0},
            RoutingConfig(symmetric=True),
        )
        forward = matrix[("a", "c")].routes[0].nodes
        backward = matrix[("c", "a")].routes[0].nodes
        assert forward == tuple(reversed(backward))

    def test_zero_volume_demands_skipped(self, diamond_pop):
        matrix = route_demands(diamond_pop, {("a", "c"): 0.0, ("a", "b"): 1.0})
        assert len(matrix) == 1

    def test_unknown_endpoint_rejected(self, diamond_pop):
        with pytest.raises(ValueError):
            route_demands(diamond_pop, {("a", "zz"): 1.0})

    def test_same_endpoints_rejected(self, diamond_pop):
        with pytest.raises(ValueError):
            route_demands(diamond_pop, {("a", "a"): 1.0})

    def test_no_path_rejected(self):
        pop = POPTopology("disconnected")
        pop.add_router("a", NodeRole.BACKBONE)
        pop.add_router("b", NodeRole.BACKBONE)
        with pytest.raises(ValueError):
            route_demands(pop, {("a", "b"): 1.0})

    def test_max_paths_validation(self):
        with pytest.raises(ValueError):
            RoutingConfig(max_paths=0)

    @pytest.mark.parametrize("volume", [NAN, INF])
    def test_non_finite_demand_rejected(self, diamond_pop, volume):
        with pytest.raises(ValueError, match="finite"):
            route_demands(diamond_pop, {("a", "b"): 1.0, ("a", "c"): volume})


class TestRoutingOracle:
    """:func:`route_demands` against the per-demand networkx routing."""

    @pytest.mark.parametrize("include_routers", [False, True], ids=["virtual", "routers"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("preset", ["pop10", "pop15", "pop29"])
    def test_paper_pops(self, monkeypatch, preset, seed, include_routers):
        pop = paper_pop(preset, seed=seed)
        demands = generate_demands(pop, DemandConfig(include_routers=include_routers), seed=seed)
        assert_matches_oracle(monkeypatch, pop, demands, seed=seed)

    def test_rocketfuel_sample(self, monkeypatch):
        pop = synthetic_rocketfuel(seed=0)
        demands = generate_demands(pop, DemandConfig(pair_fraction=0.32), seed=0)
        sample = dict(itertools.islice(demands.items(), 2000))
        assert_matches_oracle(monkeypatch, pop, sample)


class TestMonitoredVolumeOracle:
    """:meth:`TrafficMatrix.monitored_volume` against link-key set intersection."""

    @pytest.mark.parametrize("multipath", [False, True], ids=["single", "multipath"])
    @pytest.mark.parametrize("preset", ["pop10", "pop15"])
    def test_paper_pops(self, preset, multipath):
        matrix = generate_traffic_matrix(
            paper_pop(preset, seed=0), routing_config=RoutingConfig(multipath=multipath), seed=0
        )
        assert_monitored_volume_matches_oracle(matrix, seed=0)

    def test_rocketfuel_sample(self):
        pop = synthetic_rocketfuel(seed=0)
        demands = generate_demands(pop, DemandConfig(pair_fraction=0.32), seed=0)
        sample = dict(itertools.islice(demands.items(), 2000))
        matrix = route_demands(pop, sample, RoutingConfig(multipath=True, tie_break_seed=0))
        assert_monitored_volume_matches_oracle(matrix, seed=0, draws=20)


@pytest.fixture()
def weighted_pop():
    """Five routers whose ``delay`` metric disagrees with hop count.

    ``a-c`` is one hop but costs 5, so the delay-shortest ``a -> c`` routes
    take two or three hops; ``c-d`` costs 0, so ``c`` and ``d`` are equally
    far from every other router and shortest paths may cross that edge
    either way; ``a-e`` has no ``delay`` and costs 1.
    """
    pop = POPTopology("weighted")
    for node in "abcde":
        pop.add_router(node, NodeRole.BACKBONE)
    delays = {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 5.0, ("c", "d"): 0.0,
              ("b", "d"): 1.0, ("d", "e"): 1.0, ("a", "e"): None}
    for (u, v), delay in delays.items():
        pop.add_link(u, v)
        if delay is not None:
            pop.graph.edges[u, v]["delay"] = delay
    return pop


class TestWeightedRouting:
    def test_delay_differs_from_hop_count(self, weighted_pop):
        demand = {("a", "c"): 3.0}
        hops = route_demands(weighted_pop, demand)[("a", "c")]
        delay = route_demands(weighted_pop, demand, RoutingConfig(weight="delay", multipath=True))
        assert [r.nodes for r in hops.routes] == [("a", "c")]
        assert [r.nodes for r in delay[("a", "c")].routes] == [
            ("a", "b", "c"), ("a", "b", "d", "c"), ("a", "e", "d", "c")
        ]

    def test_matches_oracle(self, monkeypatch, weighted_pop):
        # No demand enters at c or d: networkx yields each path from a source
        # once more per zero-cost neighbour of that source (next test).
        pairs = [(u, v) for u, v in itertools.permutations(weighted_pop.graph, 2) if u not in "cd"]
        demands = {pair: 1.0 + i for i, pair in enumerate(pairs)}
        assert_matches_oracle(monkeypatch, weighted_pop, demands, weight="delay")

    def test_zero_cost_ingress_paths_are_distinct(self, weighted_pop):
        config = RoutingConfig(weight="delay", multipath=True)
        traffic = route_demands(weighted_pop, {("c", "b"): 2.0}, config)[("c", "b")]
        assert [(r.nodes, r.volume) for r in traffic.routes] == [
            (("c", "b"), 1.0), (("c", "d", "b"), 1.0)
        ]

    @pytest.mark.parametrize("delay", [-1.0, NAN, INF])
    def test_invalid_weight_rejected(self, weighted_pop, delay):
        weighted_pop.graph.edges["a", "b"]["delay"] = delay
        with pytest.raises(ValueError, match="non-negative"):
            route_demands(weighted_pop, {("a", "c"): 1.0}, RoutingConfig(weight="delay"))


class TestDemandGeneration:
    def test_eligible_endpoints_default_to_virtual_nodes(self):
        pop = paper_pop("pop10", seed=0)
        endpoints = eligible_endpoints(pop)
        assert set(endpoints) <= set(pop.virtual_nodes)

    def test_endpoints_fall_back_to_routers(self):
        pop = POPTopology("no-virtual")
        pop.add_router("a", NodeRole.BACKBONE)
        pop.add_router("b", NodeRole.BACKBONE)
        pop.add_link("a", "b")
        endpoints = eligible_endpoints(pop)
        assert set(endpoints) == {"a", "b"}

    def test_demand_counts_and_determinism(self):
        pop = paper_pop("pop10", seed=1)
        d1 = generate_demands(pop, seed=1)
        d2 = generate_demands(pop, seed=1)
        d3 = generate_demands(pop, seed=2)
        assert d1 == d2
        assert d1 != d3
        n = len(pop.virtual_nodes)
        assert len(d1) == n * (n - 1)

    def test_preferred_pairs_create_skew(self):
        pop = paper_pop("pop10", seed=3)
        config = DemandConfig(preferred_pairs=5, base_volume_range=(1.0, 2.0),
                              preferred_volume_range=(100.0, 200.0))
        demands = generate_demands(pop, config=config, seed=3)
        volumes = sorted(demands.values(), reverse=True)
        assert volumes[0] >= 100.0
        assert volumes[4] >= 100.0
        assert volumes[5] <= 2.0

    def test_pair_fraction_limits_pairs(self):
        pop = paper_pop("pop10", seed=4)
        demands = generate_demands(pop, config=DemandConfig(pair_fraction=0.25), seed=4)
        n = len(pop.virtual_nodes)
        assert len(demands) == pytest.approx(0.25 * n * (n - 1), abs=1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DemandConfig(pair_fraction=0.0)
        with pytest.raises(ValueError):
            DemandConfig(preferred_pairs=-1)
        with pytest.raises(ValueError):
            DemandConfig(base_volume_range=(2.0, 1.0))

    @pytest.mark.parametrize(
        "ranges",
        [
            {"base_volume_range": (1.0, NAN)},
            {"base_volume_range": (NAN, 10.0)},
            {"base_volume_range": (1.0, INF)},
            {"preferred_volume_range": (50.0, INF)},
            {"preferred_volume_range": (INF, INF)},
        ],
    )
    def test_non_finite_volume_range_rejected(self, ranges):
        with pytest.raises(ValueError, match="inf"):
            DemandConfig(**ranges)

    def test_generate_traffic_matrix_end_to_end(self):
        pop = paper_pop("pop10", seed=5)
        matrix = generate_traffic_matrix(pop, seed=5)
        n = len(pop.virtual_nodes)
        assert len(matrix) == n * (n - 1)
        assert matrix.total_volume > 0
        # All paths must start and end at virtual endpoints.
        for traffic in matrix:
            assert pop.role(traffic.source).is_virtual
            assert pop.role(traffic.destination).is_virtual
