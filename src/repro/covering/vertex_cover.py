"""Minimum Vertex Cover restricted to allowed vertices.

The beacon-placement ILP of Section 6 is exactly a minimum vertex cover of
the *probe graph*: vertices are routers, every probe ``(u, v)`` is an edge,
and a beacon must be placed on at least one endpoint of every probe, with the
additional restriction that beacons may only be placed on candidate nodes
``V_B``.  This module provides the standalone covering machinery; the
monitoring-specific wrapper lives in :mod:`repro.active.beacons`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.optim import Model, lin_sum, selected
from repro.optim.errors import InfeasibleError

Edge = Tuple[Hashable, Hashable]


@dataclass
class VertexCoverInstance:
    """Vertex cover instance with an optional restriction on usable vertices.

    Attributes
    ----------
    edges:
        Edges that must be covered.  Self-loops ``(u, u)`` force ``u`` into
        the cover.
    allowed:
        Vertices on which the cover may sit.  ``None`` means every endpoint is
        allowed.
    """

    edges: List[Edge]
    allowed: Optional[Set[Hashable]] = None

    def __post_init__(self) -> None:
        self.edges = [tuple(e) for e in self.edges]
        if self.allowed is not None:
            self.allowed = set(self.allowed)

    @property
    def vertices(self) -> Set[Hashable]:
        """Every vertex appearing in at least one edge."""
        out: Set[Hashable] = set()
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        return out

    def usable(self, vertex: Hashable) -> bool:
        """True when a cover vertex may be placed on ``vertex``."""
        return self.allowed is None or vertex in self.allowed

    @property
    def is_feasible(self) -> bool:
        """True when every edge has at least one usable endpoint."""
        return all(self.usable(u) or self.usable(v) for u, v in self.edges)

    def is_cover(self, selection: Iterable[Hashable]) -> bool:
        """Check that every edge has an endpoint in ``selection``."""
        chosen = set(selection)
        return all(u in chosen or v in chosen for u, v in self.edges)


def _check_feasible(instance: VertexCoverInstance) -> None:
    if not instance.is_feasible:
        bad = [e for e in instance.edges if not (instance.usable(e[0]) or instance.usable(e[1]))]
        raise InfeasibleError(
            f"{len(bad)} edge(s) have no allowed endpoint, e.g. {bad[0]!r}"
        )


def greedy_vertex_cover(instance: VertexCoverInstance) -> List[Hashable]:
    """Greedy maximum-degree vertex cover.

    Repeatedly picks the allowed vertex covering the largest number of not yet
    covered edges.  This is the "select the beacon that will generate the
    greatest number of probes first" greedy the paper proposes as an
    improvement over the baseline of [Nguyen & Thiran 2004].
    """
    _check_feasible(instance)
    uncovered: Set[int] = set(range(len(instance.edges)))
    incidence: Dict[Hashable, Set[int]] = {}
    for idx, (u, v) in enumerate(instance.edges):
        for vertex in (u, v):
            if instance.usable(vertex):
                incidence.setdefault(vertex, set()).add(idx)
    selection: List[Hashable] = []
    while uncovered:
        best_vertex = None
        best_gain = 0
        for vertex, incident in incidence.items():
            gain = len(incident & uncovered)
            if gain > best_gain:
                best_vertex, best_gain = vertex, gain
        if best_vertex is None:
            raise InfeasibleError("greedy vertex cover stalled with uncovered edges")
        selection.append(best_vertex)
        uncovered -= incidence.pop(best_vertex)
    return selection


def matching_vertex_cover(instance: VertexCoverInstance) -> List[Hashable]:
    """Classical 2-approximation via a maximal matching.

    Only valid when every vertex is allowed (``allowed is None``); with a
    restricted vertex set the matching argument breaks down and the function
    raises ``ValueError``.
    """
    if instance.allowed is not None:
        raise ValueError("matching-based 2-approximation requires an unrestricted vertex set")
    matched: Set[Hashable] = set()
    cover: List[Hashable] = []
    for u, v in instance.edges:
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            if u == v:
                cover.append(u)
            else:
                cover.extend((u, v))
    return cover


def build_vertex_cover_model(instance: VertexCoverInstance):
    """Build (without solving) the restricted vertex cover 0-1 ILP.

    Returns ``(model, y)`` where ``y`` maps each vertex to its binary
    variable.  Shared by :func:`exact_vertex_cover` and the ``repro
    lint-model`` CLI, which runs the static model analyzer over the
    lowered matrices.
    """
    _check_feasible(instance)
    model = Model("vertex-cover", sense="min")
    vertices = sorted(instance.vertices, key=repr)
    y = {v: model.add_var(f"y[{i}]", vartype="binary") for i, v in enumerate(vertices)}
    for v in vertices:
        if not instance.usable(v):
            model.add_constr(y[v] <= 0, name=f"forbidden[{v}]")
    for idx, (u, v) in enumerate(instance.edges):
        if u == v:
            model.add_constr(y[u] >= 1, name=f"probe[{idx}]")
        else:
            model.add_constr(y[u] + y[v] >= 1, name=f"probe[{idx}]")
    model.set_objective(lin_sum(y[v] for v in vertices))
    return model, y


def exact_vertex_cover(instance: VertexCoverInstance, backend: str = "auto") -> List[Hashable]:
    """Exact restricted vertex cover via the 0-1 ILP of Section 6.

    ``minimize sum_i y_i`` subject to ``y_u + y_v >= 1`` for every edge and
    ``y_i = 0`` for vertices outside the allowed set.
    """
    model, y = build_vertex_cover_model(instance)
    solution = model.solve(backend=backend, raise_on_infeasible=True)
    return selected(solution, y)
