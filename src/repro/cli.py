"""Command-line interface.

Four subcommands cover the library's main workflows::

    python -m repro passive    --preset pop10 --coverage 0.95
    python -m repro active     --preset pop29 --candidates 15
    python -m repro figures    --seeds 3 --skip-large
    python -m repro lint-model --preset pop10 --formulation passive

``passive`` places tap devices on a generated POP (greedy and exact MIP),
``active`` computes probes and places beacons (baseline, greedy, ILP),
``figures`` regenerates the data series of the paper's evaluation figures,
and ``lint-model`` lowers the paper's placement programs *without solving
them* and runs the static model analyzer
(:mod:`repro.optim.analysis`) over the matrices, exiting non-zero on
error-severity findings.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.optim import Model

from repro.active import BeaconPlacementProblem, compute_probe_set, greedy_placement, ilp_placement
from repro.active.beacons import baseline_placement
from repro.experiments import (
    ExperimentConfig,
    figure3_worked_example,
    figure6_traffic_skew,
    figure7_passive_pop10,
    figure8_passive_pop15,
    figure9_active_pop15,
    figure10_active_pop29,
    figure11_active_pop80,
    format_table,
)
from repro.passive import PPMProblem, solve_greedy, solve_ilp
from repro.topology import PAPER_PRESETS, paper_pop
from repro.traffic import generate_traffic_matrix


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PAPER_PRESETS), default="pop10",
                        help="POP size preset (default: pop10)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")


def _cmd_passive(args: argparse.Namespace) -> int:
    pop = paper_pop(args.preset, seed=args.seed)
    matrix = generate_traffic_matrix(pop, seed=args.seed)
    problem = PPMProblem(matrix, coverage=args.coverage)
    print(f"{pop!r}, {len(matrix)} traffics, coverage target {args.coverage:.0%}")
    greedy = solve_greedy(problem)
    print(f"greedy: {greedy.num_devices} devices (coverage {greedy.coverage:.1%})")
    solver_options = {}
    if args.time_limit is not None:
        solver_options["time_limit"] = args.time_limit
    if args.fallback != "off":
        solver_options["fallback"] = args.fallback
    ilp = solve_ilp(problem, **solver_options)
    print(f"ilp   : {ilp.num_devices} devices (coverage {ilp.coverage:.1%})")
    for link in ilp.monitored_links:
        print(f"        {link[0]} -- {link[1]}")
    return 0


def _cmd_active(args: argparse.Namespace) -> int:
    pop = paper_pop(args.preset, seed=args.seed)
    routers = pop.routers
    count = min(args.candidates or len(routers), len(routers))
    candidates = routers[:count]
    probe_set = compute_probe_set(pop, candidates)
    problem = BeaconPlacementProblem(probe_set)
    print(f"{pop!r}, |V_B| = {count}, {len(probe_set)} probes")
    print(f"thiran baseline: {baseline_placement(problem).num_beacons} beacons")
    print(f"improved greedy: {greedy_placement(problem).num_beacons} beacons")
    ilp = ilp_placement(problem)
    print(f"exact ILP      : {ilp.num_beacons} beacons -> {sorted(map(str, ilp.beacons))}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    config = ExperimentConfig(seeds=tuple(range(args.seeds)))
    single = ExperimentConfig(seeds=(0,), time_limit=args.time_limit, mip_gap=0.02)
    example = figure3_worked_example()
    print(f"Figure 3: greedy {example['greedy_devices']} vs ILP {example['ilp_devices']}")
    skew = figure6_traffic_skew()
    print(f"Figure 6: max/mean load {skew['max_over_mean']:.2f}, CoV {skew['coefficient_of_variation']:.2f}")
    print(format_table(figure7_passive_pop10(config), title="Figure 7 (pop10, passive)"))
    if not args.skip_large:
        print(format_table(figure8_passive_pop15(single), title="Figure 8 (pop15, passive)"))
    print(format_table(figure9_active_pop15(config), title="Figure 9 (pop15, active)"))
    print(format_table(figure10_active_pop29(config), title="Figure 10 (pop29, active)"))
    if not args.skip_large:
        print(format_table(figure11_active_pop80(ExperimentConfig(seeds=(0,))),
                           title="Figure 11 (pop80, active)"))
    return 0


def _lint_models(preset: str, seed: int, coverage: float, formulation: str) -> List[Tuple[str, "Model"]]:
    """Build (without solving) the placement models selected for linting."""
    from repro.covering.vertex_cover import build_vertex_cover_model
    from repro.passive.ilp import PPMSession

    pop = paper_pop(preset, seed=seed)
    models: List[Tuple[str, "Model"]] = []
    if formulation in ("passive", "both"):
        matrix = generate_traffic_matrix(pop, seed=seed)
        problem = PPMProblem(matrix, coverage=coverage)
        models.append(("ppm-lp2", PPMSession(problem).model))
    if formulation in ("active", "both"):
        probe_set = compute_probe_set(pop, pop.routers)
        problem_b = BeaconPlacementProblem(probe_set)
        beacon_model, _ = build_vertex_cover_model(problem_b.to_vertex_cover())
        models.append(("beacon-ilp", beacon_model))
    return models


def _cmd_lint_model(args: argparse.Namespace) -> int:
    from repro.optim.analysis import analyze_form, has_errors
    from repro.optim.diagnostics import format_report

    exit_code = 0
    for label, model in _lint_models(args.preset, args.seed, args.coverage, args.formulation):
        form = model.to_standard_form()
        diagnostics = analyze_form(form)
        shape = (
            f"{form.num_vars} vars, "
            f"{form.b_ub.size} ub rows, {form.b_eq.size} eq rows"
        )
        print(f"-- {label} ({args.preset}, {shape})")
        print(format_report(diagnostics, label=label))
        if has_errors(diagnostics):
            exit_code = 1
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    passive = subparsers.add_parser("passive", help="place passive tap devices on a POP")
    _add_common(passive)
    passive.add_argument("--coverage", type=float, default=0.95,
                         help="fraction of the traffic to monitor (default: 0.95)")
    passive.add_argument("--time-limit", type=float, default=None,
                         help="optional MIP time limit in seconds")
    passive.add_argument("--fallback", choices=("off", "auto"), default="off",
                         help="fail over to another backend (then a greedy "
                              "heuristic) when the solver errors out "
                              "(default: off)")
    passive.set_defaults(func=_cmd_passive)

    active = subparsers.add_parser("active", help="compute probes and place beacons")
    _add_common(active)
    active.add_argument("--candidates", type=int, default=None,
                        help="size of the candidate beacon set (default: all routers)")
    active.set_defaults(func=_cmd_active)

    figures = subparsers.add_parser("figures", help="regenerate the paper's figure data")
    figures.add_argument("--seeds", type=int, default=3,
                         help="seeds averaged over (default: 3, paper uses 20)")
    figures.add_argument("--skip-large", action="store_true",
                         help="skip the slow 15-router passive and 80-router active runs")
    figures.add_argument("--time-limit", type=float, default=20.0,
                         help="per-MIP time limit for the Figure 8 solves (default: 20s)")
    figures.set_defaults(func=_cmd_figures)

    lint = subparsers.add_parser(
        "lint-model",
        help="run the static model analyzer over the placement programs",
    )
    _add_common(lint)
    lint.add_argument("--coverage", type=float, default=0.95,
                      help="coverage target for the passive LP2 model (default: 0.95)")
    lint.add_argument("--formulation", choices=("passive", "active", "both"), default="both",
                      help="which formulation(s) to lower and analyze (default: both)")
    lint.set_defaults(func=_cmd_lint_model)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
