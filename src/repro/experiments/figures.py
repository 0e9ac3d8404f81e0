"""Per-figure experiment runners.

Every public function reproduces the data series behind one figure (or one
discussed-but-not-plotted experiment) of the paper.  Absolute numbers depend
on the synthetic topologies and traffic matrices -- the paper's own instances
are not available -- but the *shape* of each series (who wins, by what
factor, where the cost blows up) is the reproduction target and is asserted
by the test suite.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.active.beacons import sweep_candidate_sizes
from repro.passive.costs import uniform_costs
from repro.passive.dynamic import DynamicMonitoringController, TrafficDriftModel
from repro.passive.greedy import solve_greedy
from repro.passive.ilp import solve_ilp
from repro.passive.problem import PPMProblem
from repro.passive.sampling import SamplingProblem, solve_ppme
from repro.topology.generators import paper_pop
from repro.traffic.demands import Traffic, TrafficMatrix
from repro.traffic.generation import generate_traffic_matrix

#: Coverage sweep of Figures 7 and 8 (75% to 100% in 5% steps).
PAPER_COVERAGES: Tuple[float, ...] = (0.75, 0.80, 0.85, 0.90, 0.95, 1.00)


@dataclass
class ExperimentConfig:
    """Common knobs of the experiment runners.

    Attributes
    ----------
    seeds:
        Random seeds averaged over; the paper averages 20 simulations, the
        default here is smaller so the test-suite and benchmarks stay fast.
        Pass ``range(20)`` to match the paper exactly.
    backend:
        Optimization backend used for every exact solve.
    time_limit:
        Optional per-solve time limit in seconds for the placement MIPs.  The
        15-router partial-coverage instances can take minutes to *prove*
        optimal even though the incumbent is found quickly; a limit keeps the
        harness practical and is reported in EXPERIMENTS.md.
    mip_gap:
        Optional relative optimality gap for the placement MIPs.
    """

    seeds: Sequence[int] = tuple(range(5))
    backend: str = "auto"
    time_limit: Optional[float] = None
    mip_gap: Optional[float] = None

    def solver_options(self) -> Dict[str, float]:
        """Keyword options forwarded to the MIP solver (empty when unset)."""
        options: Dict[str, float] = {}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        if self.mip_gap is not None:
            options["mip_gap"] = self.mip_gap
        return options


# ---------------------------------------------------------------------------
# Figure 3: the worked example where the greedy is beaten by the optimum.
# ---------------------------------------------------------------------------

def figure3_worked_example() -> Dict[str, object]:
    """Reproduce the Figure 3 example: greedy installs 3 devices, optimum 2.

    The POP carries four traffics, two of weight 2 and two of weight 1.  The
    greedy first selects the most loaded link (load 4), and then needs two
    more devices, whereas two devices on the two links of load 3 monitor
    everything.
    """
    matrix = TrafficMatrix(
        [
            Traffic.single_path("t1", ["u3", "u1", "u2"], 2.0),
            Traffic.single_path("t2", ["u1", "u2", "u4"], 2.0),
            Traffic.single_path("t3", ["u5", "u3", "u1"], 1.0),
            Traffic.single_path("t4", ["u2", "u4", "u6"], 1.0),
        ]
    )
    problem = PPMProblem(matrix, coverage=1.0)
    greedy = solve_greedy(problem)
    ilp = solve_ilp(problem)
    return {
        "traffic_weights": [t.volume for t in matrix],
        "link_loads": dict(sorted(matrix.link_loads().items(), key=lambda kv: repr(kv[0]))),
        "greedy_devices": greedy.num_devices,
        "ilp_devices": ilp.num_devices,
        "greedy_links": greedy.monitored_links,
        "ilp_links": ilp.monitored_links,
    }


# ---------------------------------------------------------------------------
# Figure 6: non-uniform traffic load on a simple POP.
# ---------------------------------------------------------------------------

def figure6_traffic_skew(seed: int = 0) -> Dict[str, float]:
    """Quantify the non-uniformity of the generated traffic (Figure 6).

    The paper's Figure 6 draws a POP with edge thickness proportional to the
    traffic carried, illustrating that the random matrices are intentionally
    skewed.  The numeric counterpart reported here is the distribution of
    per-link loads: max/mean ratio and coefficient of variation, both well
    above what a uniform matrix would give.
    """
    pop = paper_pop("pop10", seed=seed)
    matrix = generate_traffic_matrix(pop, seed=seed)
    loads = list(matrix.link_loads().values())
    mean = statistics.fmean(loads)
    return {
        "links": float(len(loads)),
        "load_mean": mean,
        "load_max": max(loads),
        "load_min": min(loads),
        "max_over_mean": max(loads) / mean if mean else float("nan"),
        "coefficient_of_variation": (statistics.pstdev(loads) / mean) if mean else float("nan"),
    }


# ---------------------------------------------------------------------------
# Figures 7 and 8: passive device placement, greedy versus ILP.
# ---------------------------------------------------------------------------

def passive_placement_experiment(
    preset: str,
    coverages: Sequence[float] = PAPER_COVERAGES,
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, float]]:
    """Passive placement sweep on one POP preset (the Figure 7/8 engine).

    For every seed a POP and a traffic matrix are generated, and for every
    coverage target the greedy and the ILP are run; results are averaged over
    the seeds.  One row per coverage value is returned with the mean device
    counts.
    """
    config = config or ExperimentConfig()
    per_coverage: Dict[float, Dict[str, List[float]]] = {
        k: {"greedy": [], "ilp": []} for k in coverages
    }
    instance_stats: List[Tuple[int, int]] = []
    for seed in config.seeds:
        pop = paper_pop(preset, seed=seed)
        matrix = generate_traffic_matrix(pop, seed=seed)
        instance_stats.append((pop.num_links, len(matrix)))
        for coverage in coverages:
            problem = PPMProblem(matrix, coverage=coverage)
            per_coverage[coverage]["greedy"].append(float(solve_greedy(problem).num_devices))
            per_coverage[coverage]["ilp"].append(
                float(
                    solve_ilp(
                        problem, backend=config.backend, **config.solver_options()
                    ).num_devices
                )
            )
    rows: List[Dict[str, float]] = []
    for coverage in coverages:
        greedy_counts = per_coverage[coverage]["greedy"]
        ilp_counts = per_coverage[coverage]["ilp"]
        rows.append(
            {
                "coverage_percent": round(coverage * 100.0, 1),
                "greedy_devices": statistics.fmean(greedy_counts),
                "ilp_devices": statistics.fmean(ilp_counts),
                "greedy_over_ilp": statistics.fmean(greedy_counts) / statistics.fmean(ilp_counts),
                "links": statistics.fmean(s[0] for s in instance_stats),
                "traffics": statistics.fmean(s[1] for s in instance_stats),
            }
        )
    return rows


def figure7_passive_pop10(config: Optional[ExperimentConfig] = None) -> List[Dict[str, float]]:
    """Figure 7: devices placement on a 10-router POP, greedy versus ILP."""
    return passive_placement_experiment("pop10", config=config)


def figure8_passive_pop15(config: Optional[ExperimentConfig] = None) -> List[Dict[str, float]]:
    """Figure 8: devices placement on a 15-router POP, greedy versus ILP."""
    return passive_placement_experiment("pop15", config=config)


# ---------------------------------------------------------------------------
# Figures 9, 10, 11: beacon placement, Thiran / greedy / ILP.
# ---------------------------------------------------------------------------

def active_placement_experiment(
    preset: str,
    sizes: Optional[Sequence[int]] = None,
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, float]]:
    """Beacon placement sweep on one POP preset (the Figure 9/10/11 engine).

    For every seed a POP is generated and the candidate-set sweep of
    :func:`repro.active.beacons.sweep_candidate_sizes` is run; the number of
    beacons selected by each method is averaged per candidate-set size.
    """
    config = config or ExperimentConfig()
    accumulator: Dict[int, Dict[str, List[float]]] = {}
    for seed in config.seeds:
        pop = paper_pop(preset, seed=seed)
        rows = sweep_candidate_sizes(pop, sizes=sizes, seed=seed, backend=config.backend)
        for row in rows:
            bucket = accumulator.setdefault(
                int(row["candidates"]), {"thiran": [], "greedy": [], "ilp": [], "probes": []}
            )
            for key in ("thiran", "greedy", "ilp", "probes"):
                bucket[key].append(row[key])
    out: List[Dict[str, float]] = []
    for size in sorted(accumulator):
        bucket = accumulator[size]
        out.append(
            {
                "candidates": float(size),
                "probes": statistics.fmean(bucket["probes"]),
                "thiran_beacons": statistics.fmean(bucket["thiran"]),
                "greedy_beacons": statistics.fmean(bucket["greedy"]),
                "ilp_beacons": statistics.fmean(bucket["ilp"]),
            }
        )
    return out


def figure9_active_pop15(config: Optional[ExperimentConfig] = None) -> List[Dict[str, float]]:
    """Figure 9: beacons placement on a 15-router POP."""
    return active_placement_experiment("pop15", config=config)


def figure10_active_pop29(config: Optional[ExperimentConfig] = None) -> List[Dict[str, float]]:
    """Figure 10: beacons placement on a 29-router POP."""
    return active_placement_experiment("pop29", sizes=[4, 8, 12, 16, 20, 24, 29], config=config)


def figure11_active_pop80(config: Optional[ExperimentConfig] = None) -> List[Dict[str, float]]:
    """Figure 11: beacons placement on an 80-router POP."""
    return active_placement_experiment(
        "pop80", sizes=[10, 20, 30, 40, 50, 60, 70, 80], config=config
    )


# ---------------------------------------------------------------------------
# Section 5 experiments (no figure in the paper): PPME and the dynamic loop.
# ---------------------------------------------------------------------------

def ppme_sampling_experiment(
    preset: str = "pop10",
    coverage: float = 0.9,
    traffic_min_ratio: float = 0.05,
    setup_cost: float = 5.0,
    exploitation_cost: float = 1.0,
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, float]:
    """Cost-aware sampling placement (Linear program 3) on one preset.

    Reports the averaged number of devices, sampling budget and cost split of
    the PPME optimum, the quantities Section 5.3 optimizes.
    """
    config = config or ExperimentConfig()
    devices, setup, exploitation, rates = [], [], [], []
    for seed in config.seeds:
        pop = paper_pop(preset, seed=seed)
        matrix = generate_traffic_matrix(pop, seed=seed)
        costs = uniform_costs(matrix.links, setup=setup_cost, exploitation=exploitation_cost)
        problem = SamplingProblem(
            traffic=matrix,
            coverage=coverage,
            traffic_min_ratio=traffic_min_ratio,
            costs=costs,
        )
        placement = solve_ppme(problem, backend=config.backend)
        devices.append(float(placement.num_devices))
        setup.append(placement.setup_cost)
        exploitation.append(placement.exploitation_cost)
        rates.append(sum(placement.sampling_rates.values()))
    return {
        "coverage_target": coverage,
        "devices_mean": statistics.fmean(devices),
        "setup_cost_mean": statistics.fmean(setup),
        "exploitation_cost_mean": statistics.fmean(exploitation),
        "total_rate_mean": statistics.fmean(rates),
    }


def dynamic_controller_experiment(
    preset: str = "pop10",
    coverage: float = 0.9,
    tolerance: float = 0.85,
    steps: int = 30,
    volatility: float = 0.15,
    burst_probability: float = 0.05,
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, float]:
    """Threshold-controller simulation of Section 5.4.

    Deploys devices with PPME once, then lets the traffic drift and lets the
    controller re-optimize the sampling rates whenever coverage drops below
    the tolerance threshold.  Reports how often re-optimization fires and how
    far coverage dips.
    """
    config = config or ExperimentConfig()
    reopts, min_coverages, mean_costs = [], [], []
    for seed in config.seeds:
        pop = paper_pop(preset, seed=seed)
        matrix = generate_traffic_matrix(pop, seed=seed)
        problem = SamplingProblem(traffic=matrix, coverage=coverage)
        placement = solve_ppme(problem, backend=config.backend)
        # config.solver_options() is deliberately NOT forwarded here: the
        # controller's PPME* re-solves are LPs, and MIP options such as
        # time_limit/mip_gap would be rejected by the in-house simplex
        # backend.  Callers who need LP-solve options can pass
        # solver_options= to the controller for their chosen backend.
        controller = DynamicMonitoringController(
            placement.monitored_links,
            coverage=coverage,
            tolerance=tolerance,
            backend=config.backend,
        )
        drift = TrafficDriftModel(volatility=volatility, burst_probability=burst_probability)
        report = controller.run(matrix, drift, steps=steps, seed=seed)
        reopts.append(float(report.num_reoptimizations))
        min_coverages.append(report.min_coverage)
        mean_costs.append(report.mean_exploitation_cost)
    return {
        "steps": float(steps),
        "tolerance": tolerance,
        "reoptimizations_mean": statistics.fmean(reopts),
        "min_coverage_mean": statistics.fmean(min_coverages),
        "exploitation_cost_mean": statistics.fmean(mean_costs),
    }
