"""Beacon placement: improved greedy and ILP (Section 6.1), plus the sweep
harness behind Figures 9, 10 and 11.

Given the probe set ``Φ``, the beacon placement problem is the 0-1 ILP

    minimize   sum_i y_i
    subject to y_i = 0                       for i not in V_B
               y_{φ_u} + y_{φ_v} >= 1        for every probe φ in Φ
               y_i in {0, 1}

i.e. a minimum vertex cover of the probe graph restricted to the candidate
beacons.  The paper also proposes an improved greedy ("select the beacon that
will generate the greatest number of probes first") and compares both to the
original selection heuristic of [Nguyen & Thiran].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from repro.covering.vertex_cover import (
    VertexCoverInstance,
    exact_vertex_cover,
    greedy_vertex_cover,
)
from repro.active.probes import ProbeSet, compute_probe_set, thiran_placement
from repro.topology.pop import POPTopology


@dataclass
class BeaconPlacementProblem:
    """Beacon placement instance: a probe set plus the candidate beacons."""

    probe_set: ProbeSet

    @property
    def candidate_beacons(self) -> Set[Hashable]:
        return set(self.probe_set.candidate_beacons)

    def to_vertex_cover(self) -> VertexCoverInstance:
        """The restricted vertex-cover instance underlying the ILP."""
        edges = [probe.endpoints for probe in self.probe_set]
        return VertexCoverInstance(edges=edges, allowed=self.candidate_beacons)

    def is_valid_placement(self, beacons: Iterable[Hashable]) -> bool:
        """Check every probe can be emitted by one of the selected beacons."""
        chosen = set(beacons)
        if not chosen <= self.candidate_beacons:
            return False
        return all(
            probe.endpoints[0] in chosen or probe.endpoints[1] in chosen
            for probe in self.probe_set
        )


@dataclass
class BeaconPlacementResult:
    """Beacons selected by one placement algorithm."""

    beacons: List[Hashable]
    method: str
    num_probes: int

    @property
    def num_beacons(self) -> int:
        return len(self.beacons)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BeaconPlacementResult(method={self.method!r}, beacons={self.num_beacons})"


def greedy_placement(problem: BeaconPlacementProblem) -> BeaconPlacementResult:
    """Improved greedy: pick the beacon emitting the most uncovered probes.

    This is the paper's own greedy ("rather than arbitrarily choosing
    beacons, we can select the beacon that will generate the greatest number
    of probes first, then remove these probes ... and so on").
    """
    cover = greedy_vertex_cover(problem.to_vertex_cover())
    return BeaconPlacementResult(beacons=cover, method="greedy", num_probes=len(problem.probe_set))


def ilp_placement(problem: BeaconPlacementProblem, backend: str = "auto") -> BeaconPlacementResult:
    """Optimal beacon placement through the 0-1 ILP of Section 6.1."""
    cover = exact_vertex_cover(problem.to_vertex_cover(), backend=backend)
    return BeaconPlacementResult(beacons=cover, method="ilp", num_probes=len(problem.probe_set))


def baseline_placement(problem: BeaconPlacementProblem) -> BeaconPlacementResult:
    """The original selection heuristic of [Nguyen & Thiran] ("Thiran")."""
    beacons = thiran_placement(problem.probe_set)
    return BeaconPlacementResult(beacons=beacons, method="thiran", num_probes=len(problem.probe_set))


def sweep_candidate_sizes(
    pop: POPTopology,
    sizes: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    backend: str = "auto",
) -> List[Dict[str, float]]:
    """Reproduce one run of the Figures 9-11 sweep on a POP.

    For each requested size of the candidate set ``V_B``, a random subset of
    the POP's routers of that size is drawn, the probe set is computed, and
    the three placement algorithms (Thiran baseline, improved greedy, ILP)
    are run.  One dictionary per size is returned with the number of beacons
    selected by each method.

    Parameters
    ----------
    pop:
        The POP topology.
    sizes:
        Candidate-set sizes to sweep; defaults to ``2, 4, ..., number of
        routers``.
    seed:
        Seed controlling which routers are candidates at each size.
    backend:
        Optimization backend for the ILP.
    """
    routers = pop.routers
    if len(routers) < 2:
        raise ValueError("the POP must have at least two routers to place beacons")
    if sizes is None:
        sizes = list(range(2, len(routers) + 1, 2))
        if sizes[-1] != len(routers):
            sizes.append(len(routers))
    rng = random.Random(seed)

    rows: List[Dict[str, float]] = []
    for size in sizes:
        if not 1 <= size <= len(routers):
            raise ValueError(f"candidate size {size} is out of range 1..{len(routers)}")
        candidates = rng.sample(routers, size)
        probe_set = compute_probe_set(pop, candidates)
        problem = BeaconPlacementProblem(probe_set)
        row: Dict[str, float] = {
            "candidates": float(size),
            "probes": float(len(probe_set)),
        }
        if len(probe_set) == 0:
            row.update({"thiran": 0.0, "greedy": 0.0, "ilp": 0.0})
        else:
            row["thiran"] = float(baseline_placement(problem).num_beacons)
            row["greedy"] = float(greedy_placement(problem).num_beacons)
            row["ilp"] = float(ilp_placement(problem, backend=backend).num_beacons)
        rows.append(row)
    return rows
