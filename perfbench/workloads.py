"""The benchmark's three workloads, drawn from the paper's experiments.

Each workload has five parts:

* ``prepare(seed)`` computes, once per process, HiGHS work the inputs need
  (the frozen PPME deployment).  It is excluded from every metric.
* ``generate(seed, wrap)`` makes the instance: topology, demands, routing.
* ``build(instance, wrap)`` constructs the session the timed solves run
  through, lowering included.  Generation plus a build is one set-up.
* ``solves(state, wrap)`` yields the timed calls of one pass, in order.  Each
  is one call into the problem layer's public entry point and returns an
  :class:`Answer`.
* ``references(state)`` answers the same inputs with HiGHS, in the same
  order, and says how long HiGHS took.

``wrap(name, fn)`` is the identity on untraced runs and records a span on
traced runs, so the benchmark's own calls into the topology, traffic and
passive layers show up in the trace.  Session construction needs no wrap:
the tracer patches the session classes' ``__init__``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.optim import scipy_backend
from repro.optim.errors import InfeasibleError
from repro.optim.solution import SolveStatus
from repro.passive.dynamic import TrafficDriftModel
from repro.passive.ilp import PPMSession, solve_ilp
from repro.passive.problem import PPMProblem
from repro.passive.sampling import PPMESession, SamplingProblem, solve_ppme
from repro.topology import paper_pop, synthetic_rocketfuel
from repro.traffic.generation import DemandConfig, generate_demands, generate_traffic_matrix
from repro.traffic.routing import RoutingConfig, route_demands

Wrap = Callable[[str, Callable[..., Any]], Callable[..., Any]]
T = TypeVar("T")

#: The pop10 instance both pop10 workloads run on: the first seed of the
#: Figure 7 experiment.  Across topology seeds 0-5 the in-house Figure 7
#: sweep takes 15.7-61.5 s because the branch-and-bound trees differ, which
#: no run length the benchmark can afford averages out; so the instance is
#: pinned and ``--seed`` drives what varies within it (see each workload).
POP10_INSTANCE_SEED = 0

#: Relative objective tolerance against HiGHS.
OBJECTIVE_RTOL = 1e-6


@dataclass(frozen=True)
class Answer:
    """What one solve concluded: a status name and, when optimal, a value."""

    status: str
    objective: Optional[float] = None
    detail: str = ""


def answer_from_solution(solution: Any) -> Answer:
    """Status and objective of a :class:`repro.optim.Solution`."""
    if solution.status is SolveStatus.OPTIMAL:
        return Answer("optimal", float(solution.objective))
    return Answer(solution.status.value)


def mismatch(got: Answer, ref: Answer) -> Optional[str]:
    """Why ``got`` disagrees with the HiGHS answer ``ref``; None when it agrees."""
    if ref.status == "optimal":
        if got.status != "optimal":
            return f"in-house {got.status} {got.detail}, HiGHS optimal".strip()
        if got.objective is None or ref.objective is None:
            return "optimal without an objective value"
        if abs(got.objective - ref.objective) > OBJECTIVE_RTOL * max(1.0, abs(ref.objective)):
            return f"objective {got.objective!r} vs HiGHS {ref.objective!r}"
        return None
    if ref.status == "infeasible":
        return None if got.status == "infeasible" else f"in-house {got.status}, HiGHS infeasible"
    # HiGHS proved nothing: only an in-house error or limit is a failure.
    return None if got.status in ("optimal", "infeasible") else f"in-house {got.status}"


def timed(fn: Callable[[], T]) -> Tuple[T, float]:
    """``fn()`` and the seconds it took."""
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


class Pop10Sweep:
    """Figure 7: the in-house ILP at paper coverages on the pinned pop10 POP."""

    name = "pop10-sweep"
    #: The Figure 7 coverages whose in-house solves take about a second
    #: (21, 41 and 235 nodes).  The full six-point sweep takes 16-33 s on a
    #: 2-vCPU x86 host (k=0.85 and k=0.95 explore 1,766 and 1,140 nodes),
    #: so a run could time it once only, and single passes differed by up
    #: to 25% between runs; these three repeat several times per run and
    #: report a median.
    coverages = (0.75, 0.90, 1.00)

    def prepare(self, seed: int) -> None:
        """Nothing to precompute with HiGHS."""

    def generate(self, seed: int, wrap: Wrap) -> Dict[str, Any]:
        pop = wrap("topology.generate", paper_pop)("pop10", seed=POP10_INSTANCE_SEED)
        matrix = wrap("traffic.generate", generate_traffic_matrix)(pop, seed=POP10_INSTANCE_SEED)
        # The seed orders the coverage targets within a pass; the work per
        # pass is the same three solves whatever the order.
        order = list(self.coverages)
        random.Random(seed).shuffle(order)
        return {"matrix": matrix, "coverages": order}

    def build(self, instance: Dict[str, Any], wrap: Wrap) -> Dict[str, Any]:
        """Nothing to build: solve_ilp lowers a session per solve, as the figure does."""
        return instance

    def solves(self, state: Dict[str, Any], wrap: Wrap) -> Iterator[Callable[[], Answer]]:
        entry = wrap("passive", solve_ilp)
        for k in state["coverages"]:
            # A fresh problem per solve: solve_ilp then lowers its own
            # session, as the figure code does.
            problem = PPMProblem(state["matrix"], coverage=k)

            def solve(problem: PPMProblem = problem) -> Answer:
                try:
                    result = entry(problem, backend="branch-and-bound")
                except InfeasibleError:
                    return Answer("infeasible")
                if not problem.is_feasible_selection(result.monitored_links):
                    return Answer("wrong-placement", detail="placement misses the coverage")
                return Answer("optimal", float(result.num_devices))

            yield solve

    def references(self, state: Dict[str, Any]) -> Tuple[List[Answer], float]:
        answers, highs_s = [], 0.0
        for k in state["coverages"]:
            session = PPMSession(PPMProblem(state["matrix"], coverage=k), backend="scipy", presolve="off")

            def solve(session: PPMSession = session) -> Answer:
                try:
                    session.solve()
                except InfeasibleError:
                    return Answer("infeasible")
                return answer_from_solution(session.model.solution)

            answer, seconds = timed(solve)
            answers.append(answer)
            highs_s += seconds
        return answers, highs_s


class Pop10Drift:
    """Section 5.4: PPME* re-optimised at every step of drifting traffic."""

    name = "pop10-drift"
    steps = 200
    coverage = 0.9
    drift = TrafficDriftModel(volatility=0.15, burst_probability=0.05)

    def prepare(self, seed: int) -> None:
        """Freeze the devices at the PPME optimum of the base traffic (HiGHS)."""
        pop = paper_pop("pop10", seed=POP10_INSTANCE_SEED)
        matrix = generate_traffic_matrix(pop, seed=POP10_INSTANCE_SEED)
        problem = SamplingProblem(traffic=matrix, coverage=self.coverage)
        self.installed = solve_ppme(problem, backend="scipy").monitored_links

    def generate(self, seed: int, wrap: Wrap) -> Dict[str, Any]:
        pop = wrap("topology.generate", paper_pop)("pop10", seed=POP10_INSTANCE_SEED)
        base = wrap("traffic.generate", generate_traffic_matrix)(pop, seed=POP10_INSTANCE_SEED)
        # Each step is one drift step away from the deployment-time traffic,
        # not a random walk: on walks the share of infeasible steps ranged
        # from 0 to 137 of 200 between seeds.  The steps are drawn once for
        # the pinned instance and the seed sets their order, which moves
        # every warm start but keeps the mix of re-solves and infeasibility
        # proofs the same from seed to seed.
        rng = random.Random(POP10_INSTANCE_SEED)
        traffic = [self.drift.evolve(base, rng) for _ in range(self.steps)]
        random.Random(seed).shuffle(traffic)
        problem = SamplingProblem(traffic=base, coverage=self.coverage)
        return {"problem": problem, "traffic": traffic}

    def build(self, instance: Dict[str, Any], wrap: Wrap) -> Dict[str, Any]:
        session = PPMESession(instance["problem"], self.installed, backend="simplex")
        return {**instance, "session": session}

    @staticmethod
    def _reoptimize(session: PPMESession, traffic: Any) -> Answer:
        try:
            session.reoptimize(traffic)
        except InfeasibleError:
            return Answer("infeasible")
        return answer_from_solution(session.model.solution)

    def solves(self, state: Dict[str, Any], wrap: Wrap) -> Iterator[Callable[[], Answer]]:
        session = state["session"]
        for traffic in state["traffic"]:
            yield lambda traffic=traffic: self._reoptimize(session, traffic)

    def references(self, state: Dict[str, Any]) -> Tuple[List[Answer], float]:
        session = PPMESession(
            state["problem"], self.installed, backend="scipy", solver_options={"presolve": "off"}
        )
        answers, highs_s = [], 0.0
        for traffic in state["traffic"]:
            answer, seconds = timed(lambda: self._reoptimize(session, traffic))
            answers.append(answer)
            highs_s += seconds
        return answers, highs_s


#: The instance isp-lp2 runs on, that of
#: ``benchmarks/test_bench_rocketfuel_colgen.py``.  Generated from seeds 11 to
#: 20 instead, the LP took 9,421 to 10,574 pivots and its calibrated solve time
#: spread 0.11 (interquartile range over median) between seeds, against 0.03
#: for repeated runs of one seed; so the instance is pinned, like pop10's.
ISP_INSTANCE_SEED = 0


class IspLp2:
    """The Internet-scale LP2 root relaxation, solved by column generation.

    The seed changes nothing: every pass solves the pinned instance, whose
    topology, demands, hot pairs and routing tie-breaks all derive from
    :data:`ISP_INSTANCE_SEED`.
    """

    name = "isp-lp2"
    pair_fraction = 0.32
    hot_endpoints = 40
    preferred_pairs = 400
    preferred_volume = (1000.0, 2000.0)
    coverage = 0.9

    def prepare(self, seed: int) -> None:
        """Nothing to precompute with HiGHS."""

    def generate(self, seed: int, wrap: Wrap) -> PPMProblem:
        return self.instance(ISP_INSTANCE_SEED, wrap)

    def instance(self, seed: int, wrap: Wrap) -> PPMProblem:
        """The LP2 problem generated from ``seed``."""
        pop = wrap("topology.generate", synthetic_rocketfuel)(seed=seed)
        demands = wrap("traffic.generate", generate_demands)(
            pop, config=DemandConfig(pair_fraction=self.pair_fraction), seed=seed
        )
        rng = random.Random(seed + 1)
        endpoints = sorted({u for u, _ in demands} | {v for _, v in demands}, key=str)
        hot = set(rng.sample(endpoints, self.hot_endpoints))
        hot_pairs = [p for p in demands if p[0] in hot and p[1] in hot]
        for pair in rng.sample(hot_pairs, min(self.preferred_pairs, len(hot_pairs))):
            demands[pair] = rng.uniform(*self.preferred_volume)
        matrix = wrap("traffic.generate", route_demands)(
            pop, demands, config=RoutingConfig(tie_break_seed=seed)
        )
        virtuals = set(pop.virtual_nodes)
        access = [l for l in matrix.links if l[0] in virtuals or l[1] in virtuals]
        return PPMProblem(matrix, coverage=self.coverage, candidate_links=access)

    def build(self, instance: PPMProblem, wrap: Wrap) -> Dict[str, Any]:
        return {"session": PPMSession(instance, backend="simplex")}

    def solves(self, state: Dict[str, Any], wrap: Wrap) -> Iterator[Callable[[], Answer]]:
        session = state["session"]

        def solve() -> Answer:
            try:
                session.solve()
            except InfeasibleError:
                return Answer("infeasible")
            return answer_from_solution(session.model.solution)

        yield solve

    def references(self, state: Dict[str, Any]) -> Tuple[List[Answer], float]:
        form = state["session"].model.to_standard_form()
        answer, seconds = timed(lambda: answer_from_solution(scipy_backend.solve_lp(form)))
        return [answer], seconds


WORKLOADS: Dict[str, Callable[[], Any]] = {
    cls.name: cls for cls in (Pop10Sweep, Pop10Drift, IspLp2)
}
