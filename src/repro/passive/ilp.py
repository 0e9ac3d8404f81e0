"""MIP formulations of PPM(k): Linear programs 1 and 2, plus variants.

Section 4.3 of the paper gives two equivalent mixed-integer formulations of
the partial passive monitoring problem:

* **Linear program 1** (arc-path flow form): binary ``x_e`` opens the arc
  ``S -> w_e`` of the MECF auxiliary graph, continuous ``f_t^e`` carries the
  volume of traffic ``t`` monitored on link ``e``;
* **Linear program 2** (compact form): binary ``x_e`` places a device on link
  ``e``, continuous ``δ_t in [0, 1]`` is the fraction of traffic ``t``
  accounted as monitored, constrained by ``sum_{e in p_t} x_e >= δ_t``.

The compact formulation "also allows to compute an incremental solution"
(fix the already-installed devices and optimize only the rest) and, "with
only a slight modification", the best positioning of a *limited number* of
devices.  All those variants are implemented here.

The compact model is built exactly once per problem by :class:`PPMSession`
and lowered through the sparse path; the incremental / budget-limited
variants (``fixed_links``, ``max_devices``) are expressed as in-place bound,
objective-coefficient and right-hand-side patches against the lowered
matrices of a shared :class:`repro.optim.SolverSession` -- re-solving a
placement with a different set of installed devices never re-lowers the
model.
"""

from __future__ import annotations

import weakref
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from typing import TYPE_CHECKING

from repro.flows.mecf import solve_mecf_exact
from repro.optim import Model, lin_sum, selected
from repro.optim.errors import InfeasibleError
from repro.passive.problem import PPMProblem, PlacementResult
from repro.topology.pop import LinkKey, link_key

if TYPE_CHECKING:  # pragma: no cover - types only (colgen is imported lazily)
    from repro.optim.colgen import ColGenHints
    from repro.optim.model import StandardForm


def _crossing_links(problem: PPMProblem) -> List[List[LinkKey]]:
    """The candidate links each traffic crosses, in traffic order.

    One ``Traffic.links`` pass, each traffic's links kept in its set's
    iteration order; the model builders below share the result.
    """
    candidate_set = set(problem.candidate_links)
    return [[l for l in t.links if l in candidate_set] for t in problem.traffic]


def _link_traffic_incidence(
    problem: PPMProblem, crossing: Sequence[List[LinkKey]]
) -> Dict[LinkKey, List[Hashable]]:
    """Map each candidate link to the traffics crossing it."""
    incidence: Dict[LinkKey, List[Hashable]] = {l: [] for l in problem.candidate_links}
    for traffic, links in zip(problem.traffic, crossing):
        for link in links:
            incidence[link].append(traffic.traffic_id)
    return incidence


def _normalize_links(links: Iterable[LinkKey]) -> List[LinkKey]:
    return [link_key(*l) for l in links]


def _problem_signature(problem: PPMProblem) -> Tuple:
    """Everything of a :class:`PPMProblem` the compact model depends on.

    ``PPMProblem`` is a plain mutable object; the per-problem session cache
    keys on this signature so a caller that mutates ``coverage``,
    ``candidate_links`` or the traffic between calls gets a fresh lowering
    instead of a silently stale cached model.
    """
    return (
        problem.coverage,
        tuple(problem.candidate_links),
        tuple(
            (t.traffic_id, tuple((tuple(r.nodes), r.volume) for r in t.routes))
            for t in problem.traffic
        ),
    )


def _add_compact_core(
    model: Model, problem: PPMProblem, crossing: Sequence[List[LinkKey]]
) -> Tuple[Dict, Dict]:
    """Shared core of the compact formulation (Linear program 2).

    Adds the binary ``x_e`` per candidate link, the monitored fraction
    ``δ_t`` per traffic and the per-traffic monitor constraints
    (``sum_{e in p_t} x_e >= δ_t``) over ``crossing``, the
    :func:`_crossing_links` of ``problem``; returns ``(x, delta)``.  Both
    :class:`PPMSession` and :func:`solve_max_coverage` build on this.
    """
    links = problem.candidate_links
    x = {link: model.add_var(f"x[{i}]", vartype="binary") for i, link in enumerate(links)}
    traffics = list(problem.traffic)
    delta = {
        t.traffic_id: model.add_var(f"delta[{j}]", lb=0.0, ub=1.0)
        for j, t in enumerate(traffics)
    }
    for traffic, crossed in zip(traffics, crossing):
        if crossed:
            model.add_constr(
                lin_sum(x[l] for l in crossed) >= delta[traffic.traffic_id],
                name=f"monitor[{traffic.traffic_id}]",
            )
        else:
            model.add_constr(
                delta[traffic.traffic_id] <= 0, name=f"monitor[{traffic.traffic_id}]"
            )
    return x, delta


class LP2Column(NamedTuple):
    """One column of the compact formulation's variable universe.

    ``index`` is the column's position in the lowered
    :class:`~repro.optim.model.StandardForm` (all ``x`` columns in candidate
    -link order, then all ``delta`` columns in traffic order), which is what
    :class:`repro.optim.colgen.ColGenHints` indices refer to.
    """

    index: int
    name: str
    kind: str  # "x" (device on a link) or "delta" (monitored fraction)
    cost: float  # objective coefficient
    volume: float  # crossed volume for "x"; the traffic's volume for "delta"
    crossing: Tuple[Hashable, ...]  # traffic ids for "x"; candidate links for "delta"


def lp2_column_universe(
    problem: PPMProblem, crossing: Sequence[List[LinkKey]]
) -> Iterator[LP2Column]:
    """Lazily describe LP2's column universe, one column at a time.

    The generator never materializes any constraint matrix: each yielded
    :class:`LP2Column` carries just enough structure (crossed volume,
    incident traffics / links) for a column-generation driver to rank and
    admit columns incrementally.  Iteration order matches the lowered
    column order of :class:`PPMSession` (``x`` first, then ``delta``).
    ``crossing`` is the :func:`_crossing_links` of ``problem``.
    """
    links = problem.candidate_links
    incidence = _link_traffic_incidence(problem, crossing)
    volume_of = {t.traffic_id: t.volume for t in problem.traffic}
    for i, link in enumerate(links):
        crossed_by = tuple(incidence[link])
        yield LP2Column(
            index=i,
            name=f"x[{i}]",
            kind="x",
            cost=1.0,
            volume=float(sum(volume_of[tid] for tid in crossed_by)),
            crossing=crossed_by,
        )
    n_links = len(links)
    for j, (traffic, crossed) in enumerate(zip(problem.traffic, crossing)):
        yield LP2Column(
            index=n_links + j,
            name=f"delta[{j}]",
            kind="delta",
            cost=0.0,
            volume=float(traffic.volume),
            crossing=tuple(crossed),
        )


def _lp2_colgen_hints(
    problem: PPMProblem, form: "StandardForm", crossing: Sequence[List[LinkKey]]
) -> "ColGenHints":
    """Build :class:`repro.optim.colgen.ColGenHints` for an LP2 lowering.

    * **Initial columns**: the highest-volume monitorable traffics until
      their volume clears the coverage target, plus a
      greedy link cover of those traffics -- the heavy-hitter seed the
      paper's skewed Internet traffic makes effective.
    * **Expansion order**: monitorable ``delta`` columns by volume, then
      ``x`` columns by crossed volume, then the unmonitorable rest.
    * **Dual completion**: a dropped monitor row's dual is exactly
      ``v_t * y_coverage`` at LP2 optimality (it zeroes the reduced cost of
      the row's ``delta`` column), which keeps never-admitted traffic
      fractions priced out instead of flooding the master.
    """
    from repro.optim.colgen import ColGenHints

    columns = list(lp2_column_universe(problem, crossing))
    n_links = len(problem.candidate_links)
    x_cols, delta_cols = columns[:n_links], columns[n_links:]
    usable = [col for col in delta_cols if col.crossing]

    chosen: List[LP2Column] = []
    acc = 0.0
    target = problem.required_volume
    for col in sorted(usable, key=lambda c: -c.volume):
        chosen.append(col)
        acc += col.volume
        if acc >= target:
            break

    link_pos = {link: i for i, link in enumerate(problem.candidate_links)}
    gain = np.zeros(n_links)
    for col in chosen:
        for link in col.crossing:
            gain[link_pos[link]] += col.volume
    chosen_ids = {col.index for col in chosen}
    uncovered = set(chosen_ids)
    covers: Dict[int, List[int]] = {}
    for col in chosen:
        for link in col.crossing:
            covers.setdefault(link_pos[link], []).append(col.index)
    init_x: List[int] = []
    for i in np.argsort(-gain):
        if not uncovered:
            break
        hit = [j for j in covers.get(int(i), ()) if j in uncovered]
        if hit:
            init_x.append(int(i))
            uncovered.difference_update(hit)

    # Every monitorable flow crossing a seed link is observable from the
    # seed placement, so its delta is active at any optimum built on those
    # links -- admit them upfront instead of over several pricing rounds.
    seed_links = {problem.candidate_links[i] for i in init_x}
    observable = [
        col.index
        for col in usable
        if col.index not in chosen_ids
        and any(link in seed_links for link in col.crossing)
    ]

    unusable = [col for col in delta_cols if not col.crossing]
    expansion = [col.index for col in sorted(usable, key=lambda c: -c.volume)]
    expansion += [col.index for col in sorted(x_cols, key=lambda c: -c.volume)]
    expansion += [col.index for col in unusable]

    traffics = list(problem.traffic)
    monitor_rows = np.array(
        [form.row_map[f"monitor[{t.traffic_id}]"][1] for t in traffics],
        dtype=np.int64,
    )
    cov_row = int(form.row_map["coverage"][1])
    volumes = np.array([t.volume for t in traffics])

    def complete(y: np.ndarray, dropped: np.ndarray) -> None:
        # At LP2 optimality a slack monitor row's dual is v_t * y_cov: it
        # makes the reduced cost of the row's delta column exactly zero
        # (the lowered coverage row carries -v_t, the monitor row +1).
        y_cov = min(float(y[cov_row]), 0.0)
        mask = dropped[monitor_rows]
        y[monitor_rows[mask]] = volumes[mask] * y_cov

    return ColGenHints(
        initial_columns=tuple(init_x)
        + tuple(col.index for col in chosen)
        + tuple(observable),
        expansion_order=tuple(expansion),
        complete_duals=complete,
    )


class PPMSession:
    """Reusable PPM(k) compact-formulation session (Linear program 2).

    The model -- binary ``x_e`` per candidate link, monitored fraction
    ``δ_t`` per traffic, the per-traffic monitor constraints, the global
    coverage constraint and an (initially non-binding) device-budget row --
    is built and lowered exactly *once*.  Every placement variant the paper
    derives from the compact formulation is then a data patch against the
    lowered sparse matrices:

    * **incremental** (Section 4.3): fix ``x_e = 1`` for installed devices
      via bound patches and zero their objective coefficients (installed
      devices are sunk costs);
    * **budget-limited**: patch the right-hand side of the ``budget`` row.

    Re-solving with a different installed set therefore costs bound /
    objective / rhs updates plus the MILP solve itself, never a re-lowering.
    """

    def __init__(self, problem: PPMProblem, backend: str = "auto", **solver_options) -> None:
        self.problem = problem
        self.links = problem.candidate_links
        model = Model("ppm-lp2", sense="min")
        crossing = _crossing_links(problem)
        self._x, delta = _add_compact_core(model, problem, crossing)
        model.add_constr(
            lin_sum(t.volume * delta[t.traffic_id] for t in problem.traffic)
            >= problem.required_volume,
            name="coverage",
        )
        # Non-binding until a solve patches its right-hand side down.
        model.add_constr(lin_sum(self._x.values()) <= len(self.links), name="budget")
        model.set_objective(lin_sum(self._x.values()))
        self.model = model
        self._session = model.session(backend=backend, **solver_options)
        # Column-generation hints ride along on every session; they are
        # consumed only when the in-house solver decomposes the form
        # (Internet-scale instances), and reuse the crossing links.
        self._session.set_colgen_hints(
            _lp2_colgen_hints(problem, self._session.form, crossing)
        )

    @property
    def solves(self) -> int:
        """Number of solves performed through the shared lowered model."""
        return self._session.solves

    def solve(
        self,
        fixed_links: Iterable[LinkKey] = (),
        max_devices: Optional[int] = None,
    ) -> PlacementResult:
        """Re-solve the placement under the given incremental variant.

        Raises
        ------
        InfeasibleError
            When the coverage target cannot be met, possibly because of the
            device cap.
        ValueError
            When ``fixed_links`` contains non-candidate links.
        """
        fixed = set(_normalize_links(fixed_links))
        unknown_fixed = fixed - set(self.links)
        if unknown_fixed:
            raise ValueError(
                f"fixed links are not candidate links: {sorted(map(str, unknown_fixed))}"
            )
        if max_devices is not None and max_devices < len(fixed):
            raise InfeasibleError(
                f"max_devices={max_devices} is below the {len(fixed)} already-installed devices"
            )
        session = self._session
        for link, var in self._x.items():
            installed = link in fixed
            # Already-installed devices are constants equal to 1 in the
            # paper's incremental variant and are not paid for again.
            session.update_var_bounds(var, lb=1.0 if installed else 0.0, ub=1.0)
            session.update_objective_coeff(var, 0.0 if installed else 1.0)
        session.update_constraint_rhs(
            "budget", len(self.links) if max_devices is None else max_devices
        )
        solution = session.solve(raise_on_infeasible=True)
        chosen = selected(solution, self._x)
        return self.problem.make_result(
            chosen,
            method="ilp",
            objective=len(chosen),
            fixed_links=fixed,
        )


#: Per-problem cache of lowered PPM sessions, keyed by backend and options,
#: so repeated incremental solves (``solve_incremental``, ``expected_gain``)
#: against one problem reuse the same lowered matrices.  Each entry carries
#: the problem-data signature it was lowered from; a mutated problem (new
#: coverage, links or traffic) invalidates the entry instead of serving a
#: stale model.
_ppm_sessions: "weakref.WeakKeyDictionary[PPMProblem, Dict[tuple, Tuple[tuple, PPMSession]]]" = (
    weakref.WeakKeyDictionary()
)


def _ppm_session(problem: PPMProblem, backend: str, options: Mapping[str, object]) -> PPMSession:
    from repro.optim.backend import _resolve_backend

    # Key by the *resolved* backend: "auto" resolves at session construction,
    # so a cached session must not outlive a change in backend availability.
    resolved = _resolve_backend(backend, is_mip=True)
    key = (resolved, tuple(sorted(options.items())))
    signature = _problem_signature(problem)
    per_problem = _ppm_sessions.setdefault(problem, {})
    entry = per_problem.get(key)
    if entry is None or entry[0] != signature:
        # The session sees its problem through a weak proxy: a cached value
        # that referenced its own key would keep the entry, and the lowered
        # model, alive after the caller dropped the problem.
        session = PPMSession(weakref.proxy(problem), backend=resolved, **options)
        entry = per_problem[key] = (signature, session)
    return entry[1]


def solve_ilp(
    problem: PPMProblem,
    backend: str = "auto",
    fixed_links: Iterable[LinkKey] = (),
    max_devices: Optional[int] = None,
    **solver_options,
) -> PlacementResult:
    """Solve PPM(k) exactly with the compact formulation (Linear program 2).

    Parameters
    ----------
    problem:
        The PPM(k) instance.
    backend:
        Solver backend passed to :meth:`repro.optim.Model.solve`.
    fixed_links:
        Links whose device is already installed; the corresponding ``x_e`` are
        fixed to 1 and not paid for in the *incremental* objective (they are
        still counted in the returned placement).
    max_devices:
        Optional cap on the total number of devices (fixed ones included).
    solver_options:
        Extra options forwarded to the solver backend, e.g. ``time_limit`` or
        ``mip_gap`` for the large partial-coverage instances of Figure 8.

    The model is lowered once per (problem, backend, options) and cached, so
    successive calls with different ``fixed_links`` / ``max_devices`` --
    the paper's incremental placement workflow -- are in-place re-solves
    through a shared :class:`PPMSession`.

    Raises
    ------
    InfeasibleError
        When the coverage target cannot be met, possibly because of the
        device cap.
    """
    return _ppm_session(problem, backend, solver_options).solve(
        fixed_links=fixed_links, max_devices=max_devices
    )


def solve_arc_path_ilp(problem: PPMProblem, backend: str = "auto") -> PlacementResult:
    """Solve PPM(k) with the arc-path flow formulation (Linear program 1).

    This is a thin wrapper over :func:`repro.flows.mecf.solve_mecf_exact`,
    since Linear program 1 *is* the MIP encoding of the MECF instance of
    Theorem 2.
    """
    result = solve_mecf_exact(problem.to_mecf_instance(), backend=backend)
    return problem.make_result(result.selected_edges, method="ilp-arc-path")


def solve_incremental(
    problem: PPMProblem,
    existing_links: Iterable[LinkKey],
    backend: str = "auto",
) -> PlacementResult:
    """Best way to complete an existing deployment up to the coverage target.

    The devices in ``existing_links`` cannot move; the solver only decides
    where to put the additional ones (Section 4.3, incremental solution).
    Successive calls on the same problem (e.g. a growing deployment) reuse
    one lowered :class:`PPMSession` and only patch bounds and objective
    coefficients between solves.
    """
    return solve_ilp(problem, backend=backend, fixed_links=existing_links)


def solve_budget_limited(
    problem: PPMProblem,
    max_devices: int,
    backend: str = "auto",
    fixed_links: Iterable[LinkKey] = (),
) -> PlacementResult:
    """Reach the coverage target with at most ``max_devices`` devices.

    Raises :class:`~repro.optim.errors.InfeasibleError` when the budget is too
    small for the requested coverage; use :func:`solve_max_coverage` to get
    the best coverage achievable within a budget instead.
    """
    return solve_ilp(problem, backend=backend, fixed_links=fixed_links, max_devices=max_devices)


def solve_max_coverage(
    problem: PPMProblem,
    max_devices: int,
    backend: str = "auto",
    fixed_links: Iterable[LinkKey] = (),
) -> PlacementResult:
    """Maximize the monitored volume with a limited number of devices.

    This is the "best positioning of a limited number of monitoring devices"
    variant: the coverage constraint is dropped and the objective becomes the
    monitored volume ``sum_t v_t δ_t``.
    """
    if max_devices < 0:
        raise ValueError("max_devices must be non-negative")
    fixed = set(_normalize_links(fixed_links))
    unknown_fixed = fixed - set(problem.candidate_links)
    if unknown_fixed:
        raise ValueError(f"fixed links are not candidate links: {sorted(map(str, unknown_fixed))}")
    if max_devices < len(fixed):
        raise ValueError(
            f"max_devices={max_devices} is below the {len(fixed)} already-installed devices"
        )

    model = Model("ppm-max-coverage", sense="max")
    links = problem.candidate_links
    x, delta = _add_compact_core(model, problem, _crossing_links(problem))
    for link in fixed:
        x[link].lb = 1.0  # already-installed devices cannot move
    model.add_constr(lin_sum(x[l] for l in links) <= max_devices, name="budget")
    model.set_objective(lin_sum(t.volume * delta[t.traffic_id] for t in problem.traffic))
    solution = model.solve(backend=backend, raise_on_infeasible=True)

    return problem.make_result(
        selected(solution, x),
        method="ilp-max-coverage",
        objective=solution.objective,
        fixed_links=fixed,
    )


def expected_gain(
    problem: PPMProblem,
    existing_links: Iterable[LinkKey],
    new_devices: int,
    backend: str = "auto",
) -> Dict[str, float]:
    """Estimate the coverage gain of buying ``new_devices`` extra devices.

    The paper notes the incremental formulation "can be derived into the
    estimation of the expected gain in buying one or a set of new devices".
    Returns a dictionary with the coverage before, after, and the gain.
    """
    if new_devices < 0:
        raise ValueError("new_devices must be non-negative")
    existing = _normalize_links(existing_links)
    before = problem.achieved_coverage(existing)
    result = solve_max_coverage(
        problem,
        max_devices=len(set(existing)) + new_devices,
        backend=backend,
        fixed_links=existing,
    )
    return {
        "coverage_before": before,
        "coverage_after": result.coverage,
        "gain": result.coverage - before,
        "devices_before": float(len(set(existing))),
        "devices_after": float(result.num_devices),
    }
