"""PPME(h, k): sampling-aware placement (Linear program 3).

When devices can sample (capture only a fraction of the packets on their
link), the placement problem of Section 5.3 becomes: choose the links to
equip (binary ``x_e``), the sampling ratio of each device (``r_e in [0,1]``)
and the monitored fraction of every path (``δ_p``), so that

* the fractions sampled along a path add up to at least the monitored
  fraction of that path (``sum_{e in p} r_e >= δ_p`` -- the "cascade"
  accounting where successive monitors contribute additively, enabled by
  packet marking);
* a device must be installed wherever sampling happens (``x_e >= r_e``);
* every traffic ``t`` is monitored at ratio at least ``h_t``;
* globally at least a fraction ``k`` of the total volume is monitored;

minimizing total setup plus exploitation cost
``sum_e cost_i(e) x_e + cost_e(e) r_e``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.optim import Model, lin_sum, selected
from repro.optim.errors import InfeasibleError
from repro.passive.costs import LinkCostModel, uniform_costs
from repro.topology.pop import LinkKey, link_key
from repro.traffic.demands import Route, Traffic, TrafficMatrix

#: A path is identified by (traffic id, route index within the traffic).
PathId = Tuple[Hashable, int]


@dataclass
class SamplingProblem:
    """An instance of PPME(h, k).

    Attributes
    ----------
    traffic:
        The (possibly multi-routed) traffic matrix.
    coverage:
        Global monitoring objective ``k`` in ``(0, 1]``.
    traffic_min_ratio:
        Per-traffic minimum monitoring ratio ``h_t``; either a single float
        applied to every traffic or a mapping traffic id -> ratio.  The paper
        notes ``h_t <= k``; this is not enforced (the MILP remains valid) but
        values above 1 are rejected.
    costs:
        Setup / exploitation cost model; defaults to unit costs.
    candidate_links:
        Links on which devices may be installed; defaults to all loaded links.
    """

    traffic: TrafficMatrix
    coverage: float = 0.95
    traffic_min_ratio: Union[float, Mapping[Hashable, float]] = 0.0
    costs: Optional[LinkCostModel] = None
    candidate_links: Optional[Iterable[LinkKey]] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {self.coverage}")
        if len(self.traffic) == 0:
            raise ValueError("the traffic matrix is empty")
        if self.costs is None:
            self.costs = uniform_costs(self.traffic.links)
        if self.candidate_links is None:
            self.candidate_links = self.traffic.links
        else:
            self.candidate_links = [link_key(*l) for l in self.candidate_links]
        for ratio in self.min_ratios().values():
            if not 0.0 <= ratio <= 1.0:
                raise ValueError(f"per-traffic minimum ratios must lie in [0, 1], got {ratio}")

    def min_ratios(self) -> Dict[Hashable, float]:
        """Per-traffic minimum monitoring ratio ``h_t`` as a dictionary."""
        if isinstance(self.traffic_min_ratio, Mapping):
            return {
                t.traffic_id: float(self.traffic_min_ratio.get(t.traffic_id, 0.0))
                for t in self.traffic
            }
        return {t.traffic_id: float(self.traffic_min_ratio) for t in self.traffic}

    def paths(self) -> Dict[PathId, Route]:
        """Every route of every traffic, keyed by (traffic id, route index)."""
        out: Dict[PathId, Route] = {}
        for traffic in self.traffic:
            for index, route in enumerate(traffic.routes):
                out[(traffic.traffic_id, index)] = route
        return out

    @property
    def total_volume(self) -> float:
        return self.traffic.total_volume


@dataclass
class SamplingPlacement:
    """Solution of PPME(h, k) or PPME*(x, h, k).

    Attributes
    ----------
    monitored_links:
        Links with an installed device (``x_e = 1``).
    sampling_rates:
        Sampling ratio ``r_e`` of each installed device.
    path_fractions:
        Monitored fraction ``δ_p`` of every path.
    setup_cost / exploitation_cost:
        The two components of the objective.
    coverage:
        Achieved global monitored fraction ``sum_p δ_p v_p / sum_p v_p``.
    traffic_coverage:
        Achieved monitored fraction per traffic.
    method:
        ``"ppme"`` for the full MILP, ``"ppme*"`` for the rate-only LP.
    """

    monitored_links: List[LinkKey]
    sampling_rates: Dict[LinkKey, float]
    path_fractions: Dict[PathId, float]
    setup_cost: float
    exploitation_cost: float
    coverage: float
    traffic_coverage: Dict[Hashable, float]
    method: str = "ppme"

    @property
    def num_devices(self) -> int:
        return len(self.monitored_links)

    @property
    def total_cost(self) -> float:
        return self.setup_cost + self.exploitation_cost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SamplingPlacement(method={self.method!r}, devices={self.num_devices}, "
            f"cost={self.total_cost:.3f}, coverage={self.coverage:.3f})"
        )


def _build_ppme_model(
    problem: SamplingProblem,
    installed_links: Optional[Iterable[LinkKey]] = None,
) -> Tuple[Model, Dict[LinkKey, object], Dict[LinkKey, object], Dict[PathId, object]]:
    """Build Linear program 3, optionally with the device positions frozen.

    When ``installed_links`` is given the problem becomes PPME*(x, h, k): the
    ``x_e`` are constants (1 on installed links, 0 elsewhere), only the
    sampling rates and monitored fractions remain free, and the model is a
    pure LP.
    """
    links = [link_key(*l) for l in problem.candidate_links]
    link_set = set(links)
    paths = problem.paths()
    costs = problem.costs
    frozen = None if installed_links is None else {link_key(*l) for l in installed_links}
    if frozen is not None and not frozen <= link_set:
        raise ValueError("installed links must be a subset of the candidate links")

    model = Model("ppme" if frozen is None else "ppme-star", sense="min")
    x: Dict[LinkKey, object] = {}
    r: Dict[LinkKey, object] = {}
    for i, link in enumerate(links):
        if frozen is None:
            x[link] = model.add_var(f"x[{i}]", vartype="binary")
        else:
            fixed_value = 1.0 if link in frozen else 0.0
            x[link] = model.add_var(f"x[{i}]", lb=fixed_value, ub=fixed_value)
        r[link] = model.add_var(f"r[{i}]", lb=0.0, ub=1.0)
    delta: Dict[PathId, object] = {
        path_id: model.add_var(f"delta[{j}]", lb=0.0, ub=1.0)
        for j, path_id in enumerate(paths)
    }

    # A path's monitored fraction is covered by the sampling rates along it.
    for path_id, route in paths.items():
        crossing = [l for l in route.links if l in link_set]
        if crossing:
            model.add_constr(
                lin_sum(r[l] for l in crossing) >= delta[path_id],
                name=f"sample[{path_id}]",
            )
        else:
            model.add_constr(delta[path_id] <= 0, name=f"sample[{path_id}]")

    # Sampling requires an installed device.
    for i, link in enumerate(links):
        model.add_constr(x[link] >= r[link], name=f"install[{i}]")

    # Per-traffic minimum monitoring ratio h_t.
    ratios = problem.min_ratios()
    for traffic in problem.traffic:
        h_t = ratios[traffic.traffic_id]
        if h_t <= 0:
            continue
        traffic_paths = [(traffic.traffic_id, i) for i in range(len(traffic.routes))]
        model.add_constr(
            lin_sum(paths[p].volume * delta[p] for p in traffic_paths)
            >= h_t * traffic.volume,
            name=f"traffic-min[{traffic.traffic_id}]",
        )

    # Global coverage objective k.
    model.add_constr(
        lin_sum(paths[p].volume * delta[p] for p in paths)
        >= problem.coverage * problem.total_volume,
        name="coverage",
    )

    model.set_objective(
        lin_sum(costs.setup_cost(l) * x[l] for l in links)
        + lin_sum(costs.exploitation_cost(l) * r[l] for l in links)
    )
    return model, x, r, delta


def _extract_placement(
    problem: SamplingProblem,
    model: Model,
    x: Mapping[LinkKey, object],
    r: Mapping[LinkKey, object],
    delta: Mapping[PathId, object],
    method: str,
) -> SamplingPlacement:
    paths = problem.paths()
    costs = problem.costs
    monitored = selected(model.solution, x)
    rates = {l: model.value(r[l]) for l in r if model.value(r[l]) > 1e-9}
    fractions = {p: model.value(delta[p]) for p in delta}

    traffic_cov: Dict[Hashable, float] = {}
    for traffic in problem.traffic:
        monitored_volume = sum(
            paths[(traffic.traffic_id, i)].volume * fractions[(traffic.traffic_id, i)]
            for i in range(len(traffic.routes))
        )
        traffic_cov[traffic.traffic_id] = monitored_volume / traffic.volume

    total_monitored = sum(paths[p].volume * fractions[p] for p in paths)
    setup = sum(costs.setup_cost(l) for l in monitored)
    exploitation = sum(costs.exploitation_cost(l) * rate for l, rate in rates.items())
    return SamplingPlacement(
        monitored_links=monitored,
        sampling_rates=rates,
        path_fractions=fractions,
        setup_cost=setup,
        exploitation_cost=exploitation,
        coverage=total_monitored / problem.total_volume,
        traffic_coverage=traffic_cov,
        method=method,
    )


def _traffic_signature(traffic: TrafficMatrix) -> Tuple:
    """Structural identity of a matrix: traffic ids and route node sequences.

    Two matrices with the same signature differ only in route *volumes*, which
    is exactly the case :class:`PPMESession` can re-solve incrementally.
    """
    return tuple(
        (t.traffic_id, tuple(tuple(route.nodes) for route in t.routes)) for t in traffic
    )


class PPMESession:
    """Incrementally re-solvable PPME*(x, h, k) for drifting traffic volumes.

    The Section 5.4 controller re-solves the *same* LP structure at every
    trigger: device positions are frozen, path sets are unchanged, only the
    route volumes move.  This class builds Linear program 3 once (lowered to
    sparse CSC matrices by the default lowering), keeps a
    :class:`repro.optim.SolverSession` over it, and on each
    :meth:`reoptimize` call patches only the volume-dependent data -- the
    coefficients and right-hand sides of the per-traffic and global coverage
    constraints, updated in place inside the sparse arrays -- before
    re-solving (warm-started from the previous factorized basis on the
    in-house revised simplex).

    If the traffic *structure* changes (new traffics or re-routed paths) the
    model is transparently rebuilt from scratch.
    """

    def __init__(
        self,
        problem: SamplingProblem,
        installed_links: Iterable[LinkKey],
        backend: str = "auto",
        solver_options: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.installed_links = [link_key(*l) for l in installed_links]
        self.backend = backend
        self.solver_options = dict(solver_options or {})
        self.rebuilds = 0
        self._build(problem)

    def _build(self, problem: SamplingProblem) -> None:
        self.problem = problem
        self.model, self._x, self._r, self._delta = _build_ppme_model(
            problem, installed_links=self.installed_links
        )
        self._session = self.model.session(backend=self.backend, **self.solver_options)
        self._signature = _traffic_signature(problem.traffic)
        self._min_ratios = problem.min_ratios()
        self.rebuilds += 1

    def _replace_problem(self, traffic: TrafficMatrix) -> SamplingProblem:
        base = self.problem
        return SamplingProblem(
            traffic=traffic,
            coverage=base.coverage,
            traffic_min_ratio=base.traffic_min_ratio,
            costs=base.costs,
            candidate_links=base.candidate_links,
        )

    def _patch_volumes(self, problem: SamplingProblem) -> None:
        """Push the new volumes into the lowered matrices (no re-lowering)."""
        session = self._session
        paths = problem.paths()
        for path_id, route in paths.items():
            session.update_constraint_coeff("coverage", self._delta[path_id], route.volume)
        session.update_constraint_rhs("coverage", problem.coverage * problem.total_volume)
        for traffic in problem.traffic:
            h_t = self._min_ratios[traffic.traffic_id]
            if h_t <= 0:
                continue
            name = f"traffic-min[{traffic.traffic_id}]"
            for index in range(len(traffic.routes)):
                path_id = (traffic.traffic_id, index)
                session.update_constraint_coeff(name, self._delta[path_id], paths[path_id].volume)
            session.update_constraint_rhs(name, h_t * traffic.volume)
        self.problem = problem

    def reoptimize(self, traffic: Optional[TrafficMatrix] = None) -> SamplingPlacement:
        """Re-solve PPME* (optionally under new volumes) and extract the plan.

        Raises
        ------
        InfeasibleError
            When the frozen deployment cannot reach the objectives under the
            given traffic.
        """
        if traffic is not None:
            if _traffic_signature(traffic) == self._signature:
                self._patch_volumes(self._replace_problem(traffic))
            else:
                self._build(self._replace_problem(traffic))
        self._session.solve(raise_on_infeasible=True)
        return _extract_placement(
            self.problem, self.model, self._x, self._r, self._delta, method="ppme*"
        )


def solve_ppme(problem: SamplingProblem, backend: str = "auto") -> SamplingPlacement:
    """Solve PPME(h, k) -- placement plus sampling rates -- exactly.

    Raises
    ------
    InfeasibleError
        When even sampling every link at 100% cannot satisfy the per-traffic
        or global objectives (for example a traffic whose path avoids every
        candidate link).
    """
    model, x, r, delta = _build_ppme_model(problem)
    model.solve(backend=backend, raise_on_infeasible=True)
    return _extract_placement(problem, model, x, r, delta, method="ppme")
