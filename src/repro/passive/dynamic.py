"""Dynamic traffic: PPME*(x, h, k) and the threshold controller (Section 5.4).

Once the tap devices are physically installed, migrating them at every
traffic fluctuation is not realistic -- but their *sampling rates* can be
re-tuned remotely.  With the ``x_e`` frozen, Linear program 3 loses its
binary variables and becomes an ordinary LP (equivalently a min-cost flow)
solvable in polynomial time: this is PPME*(x, h, k).

The paper proposes a simple maintenance strategy driven by a tolerance
threshold ``T < k``:

1. while the currently monitored fraction stays at least ``T``, do nothing;
2. when it drops below ``T``, re-solve PPME* with the new traffic volumes and
   update every sampling rate;
3. go back to 1.

:class:`DynamicMonitoringController` implements that loop over a synthetic
traffic drift process (:class:`TrafficDriftModel`), recording the coverage
time series and the re-optimization events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional

from repro.optim.errors import InfeasibleError
from repro.passive.costs import LinkCostModel
from repro.passive.sampling import (
    PathId,
    PPMESession,
    SamplingPlacement,
    SamplingProblem,
    _build_ppme_model,
    _extract_placement,
    _route_volumes,
)
from repro.topology.pop import LinkKey, link_key
from repro.traffic.demands import Route, Traffic, TrafficMatrix


def reoptimize_sampling_rates(
    problem: SamplingProblem,
    installed_links: Iterable[LinkKey],
    backend: str = "auto",
) -> SamplingPlacement:
    """Solve PPME*(x, h, k): recompute optimal sampling rates, devices fixed.

    The returned placement keeps exactly the installed links and only adjusts
    their rates; its ``setup_cost`` reflects the already-paid installations.

    Raises
    ------
    InfeasibleError
        When the installed devices cannot reach the objectives under the new
        traffic (the deployment itself must then be revised).
    """
    model, x, r, delta = _build_ppme_model(problem, installed_links=installed_links)
    model.solve(backend=backend, raise_on_infeasible=True)
    return _extract_placement(
        problem, model, x, r, delta, "ppme*", _route_volumes(problem.traffic)
    )


@dataclass
class TrafficDriftModel:
    """Multiplicative random-walk drift of traffic volumes.

    At every step each traffic volume is multiplied by a factor drawn
    uniformly in ``[1 - volatility, 1 + volatility]``; with probability
    ``burst_probability`` a traffic instead undergoes a burst, multiplying its
    volume by ``burst_factor``.  This produces the kind of "drastic change in
    the traffic throughput" that invalidates a static optimization.
    """

    volatility: float = 0.1
    burst_probability: float = 0.02
    burst_factor: float = 5.0
    min_volume: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 <= self.volatility < 1.0:
            raise ValueError("volatility must lie in [0, 1)")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst_probability must be a probability")
        if self.burst_factor <= 0:
            raise ValueError("burst_factor must be positive")

    def evolve(self, traffic: TrafficMatrix, rng: random.Random) -> TrafficMatrix:
        """Return a new matrix with every route volume perturbed one step."""
        evolved = TrafficMatrix()
        for old in traffic:
            routes = []
            for route in old.routes:
                if rng.random() < self.burst_probability:
                    factor = self.burst_factor
                else:
                    factor = 1.0 + rng.uniform(-self.volatility, self.volatility)
                routes.append(Route(route.nodes, max(self.min_volume, route.volume * factor)))
            evolved.add(Traffic(traffic_id=old.traffic_id, routes=routes))
        return evolved


@dataclass
class ControllerStep:
    """One step of the dynamic controller's simulation."""

    step: int
    coverage: float
    reoptimized: bool
    exploitation_cost: float


@dataclass
class ControllerReport:
    """Outcome of a :class:`DynamicMonitoringController` run."""

    steps: List[ControllerStep] = field(default_factory=list)

    @property
    def num_reoptimizations(self) -> int:
        return sum(1 for s in self.steps if s.reoptimized)

    @property
    def coverage_series(self) -> List[float]:
        return [s.coverage for s in self.steps]

    @property
    def min_coverage(self) -> float:
        return min(s.coverage for s in self.steps) if self.steps else 0.0

    @property
    def mean_exploitation_cost(self) -> float:
        if not self.steps:
            return 0.0
        return sum(s.exploitation_cost for s in self.steps) / len(self.steps)


class DynamicMonitoringController:
    """Threshold-based sampling-rate maintenance loop of Section 5.4.

    Parameters
    ----------
    installed_links:
        The frozen device positions (typically from an initial
        :func:`~repro.passive.sampling.solve_ppme` run).
    coverage:
        The objective ``k`` the rates are re-optimized for.
    tolerance:
        The threshold ``T < k`` under which a re-optimization is triggered.
    traffic_min_ratio:
        Per-traffic minimum ratio ``h_t`` forwarded to PPME*.
    costs:
        Cost model used by the re-optimizations.
    solver_options:
        Extra solver options (e.g. ``time_limit``) forwarded to every PPME*
        re-solve; see :data:`repro.optim.backend.BACKEND_OPTIONS`.

    Notes
    -----
    Re-optimizations run through a :class:`repro.passive.sampling.PPMESession`
    built lazily on the first trigger: the PPME* LP is lowered once and each
    subsequent trigger only patches the drifted traffic volumes into the
    constraint matrices (warm-starting the in-house simplex), instead of
    rebuilding ``SamplingProblem`` + model from scratch.
    """

    def __init__(
        self,
        installed_links: Iterable[LinkKey],
        coverage: float,
        tolerance: float,
        traffic_min_ratio: float | Mapping[Hashable, float] = 0.0,
        costs: Optional[LinkCostModel] = None,
        backend: str = "auto",
        solver_options: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if not 0.0 < tolerance <= coverage:
            raise ValueError("tolerance must satisfy 0 < T <= k")
        self.installed_links = [link_key(*l) for l in installed_links]
        self.coverage = coverage
        self.tolerance = tolerance
        self.traffic_min_ratio = traffic_min_ratio
        self.costs = costs
        self.backend = backend
        self.solver_options = dict(solver_options or {})
        self.current_rates: Dict[LinkKey, float] = {}
        self.current_fractions: Dict[PathId, float] = {}
        self._session: Optional[PPMESession] = None

    # -- coverage under fixed rates ------------------------------------------
    def achieved_coverage(self, traffic: TrafficMatrix) -> float:
        """Monitored fraction obtained with the *current* sampling rates.

        Each path's monitored fraction is the (capped) sum of the rates of the
        installed devices along it; the global fraction weights paths by their
        current volumes, which is exactly what drifts when traffic changes.
        """
        installed = set(self.installed_links)
        total = traffic.total_volume
        if total <= 0:
            return 1.0
        monitored = 0.0
        for t in traffic:
            for route in t.routes:
                rate_sum = sum(self.current_rates.get(l, 0.0) for l in route.links if l in installed)
                monitored += min(1.0, rate_sum) * route.volume
        return monitored / total

    def reoptimize(self, traffic: TrafficMatrix) -> SamplingPlacement:
        """Run PPME* for the given traffic and adopt the new rates.

        The first call lowers the LP once; later calls only patch the drifted
        volumes into the cached matrices and re-solve.
        """
        if self._session is None:
            problem = SamplingProblem(
                traffic=traffic,
                coverage=self.coverage,
                traffic_min_ratio=self.traffic_min_ratio,
                costs=self.costs,
                candidate_links=self.installed_links,
            )
            self._session = PPMESession(
                problem,
                self.installed_links,
                backend=self.backend,
                solver_options=self.solver_options,
            )
            placement = self._session.reoptimize()
        else:
            placement = self._session.reoptimize(traffic)
        self.current_rates = dict(placement.sampling_rates)
        self.current_fractions = dict(placement.path_fractions)
        return placement

    def run(
        self,
        initial_traffic: TrafficMatrix,
        drift: TrafficDriftModel,
        steps: int,
        seed: Optional[int] = None,
    ) -> ControllerReport:
        """Simulate ``steps`` drift steps of the maintenance loop.

        The controller re-optimizes at step 0 (initial deployment tuning) and
        afterwards only when the coverage drops below the tolerance threshold.
        """
        if steps < 1:
            raise ValueError("steps must be at least 1")
        rng = random.Random(seed)
        report = ControllerReport()
        traffic = initial_traffic

        placement = self.reoptimize(traffic)
        report.steps.append(
            ControllerStep(step=0, coverage=placement.coverage, reoptimized=True,
                           exploitation_cost=placement.exploitation_cost)
        )

        for step in range(1, steps):
            traffic = drift.evolve(traffic, rng)
            coverage = self.achieved_coverage(traffic)
            reoptimized = False
            exploitation = sum(
                (self.costs.exploitation_cost(l) if self.costs else 1.0) * rate
                for l, rate in self.current_rates.items()
            )
            if coverage < self.tolerance:
                try:
                    placement = self.reoptimize(traffic)
                    coverage = placement.coverage
                    exploitation = placement.exploitation_cost
                    reoptimized = True
                except InfeasibleError:
                    # The frozen deployment can no longer reach the target;
                    # keep the stale rates and report the degraded coverage,
                    # mirroring an operator alarm.
                    reoptimized = False
            report.steps.append(
                ControllerStep(step=step, coverage=coverage, reoptimized=reoptimized,
                               exploitation_cost=exploitation)
            )
        return report
