"""Reader / writer for Rocketfuel-style topology files.

The paper runs its simulations on "ISP topologies that are inferred by the
Rocketfuel tool" [Spring, Mahajan, Wetherall, SIGCOMM 2002].  The original
traces cannot be redistributed, but their most common exchange format -- the
"weights" edge list, one ``<node> <node> <weight>`` triple per line -- is
trivial to parse.  This module loads such files into a
:class:`~repro.topology.pop.POPTopology` (and writes them back), so that a
user who has real Rocketfuel maps can run every experiment of this library on
them instead of the synthetic POPs.

Node roles are inferred heuristically: Rocketfuel names backbone routers with
city-prefixed labels and external/customer routers with a trailing ``-ext``
or numeric AS suffix.  Any node matching ``*ext*`` is treated as a virtual
endpoint; nodes of degree 1 are treated as access routers; everything else is
backbone.  The heuristic only affects which endpoints the traffic generator
uses, not the optimization algorithms themselves.
"""

from __future__ import annotations

import os
import random
from typing import List, Optional, Tuple

from repro.topology.pop import NodeRole, POPTopology


def _infer_role(name: str, degree: int) -> NodeRole:
    """Heuristic role inference for a Rocketfuel node label."""
    lowered = name.lower()
    if "ext" in lowered or lowered.startswith(("cust", "peer")):
        return NodeRole.CUSTOMER
    if degree <= 1:
        return NodeRole.ACCESS
    return NodeRole.BACKBONE


def load_rocketfuel_weights(path: str, name: Optional[str] = None) -> POPTopology:
    """Load a Rocketfuel "weights" file into a :class:`POPTopology`.

    Each non-empty, non-comment line must contain ``node1 node2 weight``;
    the weight is stored as the link capacity.  Lines starting with ``#`` are
    ignored.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    ValueError
        If a line cannot be parsed.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    edges: List[Tuple[str, str, float]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'node node [weight]', got {line!r}")
            u, v = parts[0], parts[1]
            weight = float(parts[2]) if len(parts) >= 3 else 1.0
            if u == v:
                continue  # Rocketfuel dumps occasionally contain self-loops.
            edges.append((u, v, weight))

    # First pass to compute degrees, second pass to add role-annotated nodes.
    degree: dict = {}
    for u, v, _ in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1

    pop = POPTopology(name=name or os.path.basename(path))
    for node, deg in degree.items():
        pop.add_router(node, _infer_role(node, deg))
    for u, v, weight in edges:
        if not pop.graph.has_edge(u, v):
            pop.add_link(u, v, capacity=weight)
    return pop


def synthetic_rocketfuel(
    n_backbone: int = 30,
    access_per_backbone: int = 3,
    customers_per_access: int = 2,
    extra_chords: int = 15,
    seed: int = 0,
    name: Optional[str] = None,
) -> POPTopology:
    """Generate a synthetic ISP map with Rocketfuel-like structure.

    Real Rocketfuel traces cannot be redistributed, so benchmarks and smoke
    tests that need "ISP-scale" instances use this generator instead: a
    backbone ring with random chord links (the densely meshed core the
    Rocketfuel maps show), ``access_per_backbone`` access routers hanging
    off each backbone router, and ``customers_per_access`` customer
    endpoints per access router (the traffic generator's endpoints).
    Deterministic in ``seed``; customer labels carry the Rocketfuel
    ``ext`` marker so :func:`_infer_role` classifies them as virtual
    endpoints after a round-trip through the weights format.
    """
    if n_backbone < 3:
        raise ValueError(f"n_backbone must be >= 3 for a backbone ring, got {n_backbone}")
    rng = random.Random(seed)
    pop = POPTopology(name=name or f"rocketfuel-synth-{n_backbone}x{access_per_backbone}")

    backbone = [f"bb{i}.core" for i in range(n_backbone)]
    for node in backbone:
        pop.add_router(node, NodeRole.BACKBONE)
    for i in range(n_backbone):
        pop.add_link(backbone[i], backbone[(i + 1) % n_backbone], capacity=10.0)
    # A small backbone may not have ``extra_chords`` non-ring pairs left;
    # cap the target so the rejection loop always terminates.
    free_pairs = n_backbone * (n_backbone - 1) // 2 - n_backbone
    chords = 0
    while chords < min(extra_chords, free_pairs):
        u, v = rng.sample(range(n_backbone), 2)
        if not pop.graph.has_edge(backbone[u], backbone[v]):
            pop.add_link(backbone[u], backbone[v], capacity=10.0)
            chords += 1

    for i, core in enumerate(backbone):
        for a in range(access_per_backbone):
            acc = f"bb{i}.acc{a}"
            pop.add_router(acc, NodeRole.ACCESS)
            pop.add_link(core, acc, capacity=2.5)
            # Dual-home some access routers to a random second core: the
            # multipath structure is what makes placement non-trivial.
            if rng.random() < 0.3:
                other = backbone[rng.randrange(n_backbone)]
                if other != core and not pop.graph.has_edge(other, acc):
                    pop.add_link(other, acc, capacity=2.5)
            for c in range(customers_per_access):
                cust = f"bb{i}.acc{a}.ext{c}"
                pop.add_router(cust, NodeRole.CUSTOMER)
                pop.add_link(acc, cust, capacity=1.0)
    return pop


def save_rocketfuel_weights(pop: POPTopology, path: str) -> None:
    """Write a topology back to the Rocketfuel "weights" edge-list format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# topology {pop.name}: {pop.num_routers} routers, {pop.num_links} links\n")
        for u, v in pop.graph.edges():
            capacity = pop.graph.edges[u, v].get("capacity", 1.0)
            handle.write(f"{u} {v} {capacity:g}\n")
