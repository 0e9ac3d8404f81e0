"""Branch-and-bound driver for mixed-integer programs.

The driver turns the in-house LP simplex into an exact MILP solver: best-bound
node selection, reliability (pseudocost) branching with strong-branching
initialization, and rounding-based incumbent detection.  Branching quality is
the dominant node-count lever on the paper's fixed-charge placements: their
root relaxations are weak (a setup variable can sit at ``flow/capacity``,
far below 1), so the *most fractional* variable is systematically the wrong
one to branch on, while the variables whose child LPs actually move the dual
bound -- the ones pseudocosts learn to rank first -- pay the full setup cost.

The search is *incremental*: the :class:`~repro.optim.model.StandardForm` is
lowered once, every node only carries its own ``lb``/``ub`` arrays, and the
node LP solver receives those bounds directly (no per-node matrix rebuild).
Every node LP is solved by the in-house sparse revised simplex
(:class:`~repro.optim.simplex.SimplexSolver`), so the whole tree shares a
single canonicalization and sparse structure (bounds are implicit data in
the bounded-variable simplex, so per-node work is just bound patches), and
each child warm-starts from its parent's factorized basis -- typically a
handful of dual simplex pivots repair the branching bound change, with no
phase 1 and no re-canonicalization.

The tree search is preceded by a *cut-and-branch* root loop (see
:mod:`repro.optim.cuts`): up to :data:`_MAX_CUT_ROUNDS` rounds of implied
cardinality, cover and Gomory mixed-integer cut separation tighten the root
relaxation before any branching happens.  The loop runs when the form has
integer columns and a nonzero objective: at a zero objective (the
feasibility probe below) every point is optimal, so there is no bound to
tighten.  Cuts are only ever added at the root -- mid-tree rows would
invalidate the warm-start bases the nodes share -- and every cut is valid
for the full integer hull, so the rounding heuristic and feasibility checks
below need no changes.  After each optimal node LP with an incumbent in
hand, reduced-cost fixing tightens the node's integer bounds against it
before the children are pushed.

When every integer point has an integer objective (less the constant
offset) -- ``c`` is nonzero, every integer column costs a whole number and
every continuous column costs nothing, as in the paper's device-count
placements -- the search fathoms on that *integer grid*: an incumbent of
cost ``I`` leaves nothing to find in a node whose LP bound reaches
``I - 1 + 1e-6``, since every integer point there costs ``I`` or more.  The
incumbent is then held at its cost on the rounded integer point, never at
its LP value, which can sit off the grid by up to ``sum|c| * INT_TOL``.  A
limit exit reports its gap against the best open bound rounded up to the
grid, ``offset + ceil(bound - offset - 1e-6)``.  The form decides this once
per call, after the root cut rounds; no option selects it.  Off the grid a
node is fathomed once its bound comes within :data:`_GAP_TOL` of the
incumbent.

Options honored by this backend (see :func:`repro.optim.backend.solve_model`):

==============  ==========================================================
``max_nodes``   Limit on explored nodes; exceeding it returns the best
                incumbent with status ``NODE_LIMIT`` (open nodes are never
                silently discarded, so the reported bound/gap is correct).
``mip_gap``     Relative optimality gap; a node within ``mip_gap *
                |incumbent|`` of the incumbent is fathomed, mirroring the
                HiGHS ``mip_rel_gap`` option.
``max_iter``    Simplex iteration limit forwarded to every node LP solve; a
                node LP that runs out raises
                :class:`~repro.optim.errors.SolverError`.
``time_limit``  Wall-clock limit in seconds, enforced through a shared
                :class:`repro.optim.resilience.Deadline` that also bounds
                cut separation, strong-branching probes and the node LP
                pivots themselves; on expiry the best incumbent is returned
                with status ``TIME_LIMIT`` and an honest bound/gap.
==============  ==========================================================

Status contract for degenerate roots: when the root relaxation is unbounded
the MILP may be either unbounded or infeasible.  The driver probes with a
zero-objective (bounded) feasibility MILP over the same node: a feasible
probe proves ``UNBOUNDED``, an infeasible probe prunes the node (yielding
``INFEASIBLE`` at the root).  Only if the probe itself hits the node budget
does the driver fall back to reporting ``UNBOUNDED``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.optim import instrumentation as instr
from repro.optim.cuts import (
    append_cut_rows,
    reduced_cost_fixing,
    separate_cover_cuts,
    separate_gomory_cuts,
    separate_implied_cardinality_cuts,
)
from repro.optim.errors import InternalSolverError
from repro.optim.model import StandardForm
from repro.optim.resilience import Deadline
from repro.optim.simplex import SimplexSolver, _Basis, resolve_appended
from repro.optim.solution import Solution, SolveStatus

#: Tolerance under which a value is considered integral.
INT_TOL = 1e-6

#: Constraint-violation tolerance accepted by the rounding heuristic.
_FEAS_TOL = 1e-7

#: Total strong-branching child-LP probes allowed per ``solve_milp`` call.
#: Probes only run while a variable's pseudocosts are uninitialized, so the
#: budget is spent once near the root (two probes per integer variable) and
#: the rest of the tree branches on learned estimates for free.
_SB_PROBE_BUDGET = 200

#: Strong-branching probe cap per node, so a single node with many
#: fractional variables cannot drain the whole budget before the tree has
#: seen a second warm basis.
_SB_PROBES_PER_NODE = 8

#: Tolerance of the integer-grid cutoff: an LP bound up to this far above a
#: grid point still counts as that point, so LP round-off cannot fathom it.
_GRID_TOL = 1e-6

#: Absolute gap below the incumbent from which a node is fathomed (on an
#: integer-grid objective the gap is ``1 - _GRID_TOL`` instead).
_GAP_TOL = 1e-9

#: Root separation rounds of the cut-and-branch loop; 0 skips the loop.
_MAX_CUT_ROUNDS = 5


def _objective_on_grid(form: StandardForm) -> bool:
    """Whether every integer point of ``form`` costs a whole number plus the offset.

    True when ``c`` is nonzero, every integer column's coefficient is a
    whole number and every continuous column's coefficient is 0.
    """
    integral = np.asarray(form.integrality, dtype=bool)
    c_int = form.c[integral]
    return bool(
        np.any(form.c) and not np.any(form.c[~integral]) and np.all(c_int == np.round(c_int))
    )


def _feasible_point(form: StandardForm, x: np.ndarray) -> bool:
    """Check ``x`` against the *root* bounds and both constraint blocks."""
    if np.any(x < form.lb - _FEAS_TOL) or np.any(x > form.ub + _FEAS_TOL):
        return False
    if form.b_ub.size and np.any(form.A_ub.matvec(x) > form.b_ub + _FEAS_TOL):
        return False
    if form.b_eq.size and np.any(np.abs(form.A_eq.matvec(x) - form.b_eq) > _FEAS_TOL):
        return False
    return True


def _rounded_incumbents(
    form: StandardForm,
    x: np.ndarray,
    integral: np.ndarray,
    best_cost: float,
) -> Optional[Tuple[float, np.ndarray]]:
    """Try to turn a fractional node relaxation into a feasible incumbent.

    Rounds the integer variables of ``x`` to the nearest / floor / ceiling
    lattice point (clipped into the root bounds), keeps the continuous
    values, and accepts the cheapest candidate that satisfies every root
    constraint.  For the paper's covering-style placements the ceiling
    candidate is almost always feasible, which seeds branch and bound with
    a near-optimal cutoff at the root and shrinks the tree dramatically.
    Candidates are costed *before* the feasibility matvecs, so non-improving
    roundings only pay an O(n) dot product.
    """
    best: Optional[Tuple[float, np.ndarray]] = None
    for mode in (np.round, np.floor, np.ceil):
        cand = x.copy()
        lattice = np.clip(mode(x[integral]), form.lb[integral], form.ub[integral])
        if np.any(np.abs(lattice - np.round(lattice)) > INT_TOL):
            continue  # clipping into a fractional bound broke integrality
        cand[integral] = lattice
        cost = float(form.c @ cand) + form.objective_offset
        bar = best[0] if best is not None else best_cost
        if cost >= bar:
            continue
        if _feasible_point(form, cand):
            best = (cost, cand)
    return best


@dataclass(order=True)
class _Node:
    """A branch-and-bound node: the parent's LP bound plus extra bounds.

    ``branch_var`` / ``branch_up`` / ``parent_cost`` / ``branch_frac`` record
    how the node was created, so its LP solve can feed the observed objective
    degradation back into the pseudocost estimates.  ``parent_cost`` is NaN
    for the root and for children whose bound already comes from a
    strong-branching probe (the probe was the observation; re-recording the
    same child LP would double-weight it).
    """

    bound: float
    order: int = field(compare=True)
    lb: np.ndarray = field(compare=False, default=None)
    ub: np.ndarray = field(compare=False, default=None)
    warm_basis: Optional[_Basis] = field(compare=False, default=None)
    branch_var: int = field(compare=False, default=-1)
    branch_up: bool = field(compare=False, default=False)
    parent_cost: float = field(compare=False, default=math.nan)
    branch_frac: float = field(compare=False, default=0.0)


class _Pseudocosts:
    """Per-variable, per-direction objective-degradation estimates.

    Row 0 aggregates *down* branches (upper bound tightened to the floor),
    row 1 *up* branches.  Each observation is the child LP's objective
    increase divided by the fractional distance branched away -- the
    classic pseudocost normalization, which makes estimates transfer
    between nodes where the variable takes different fractional values.
    """

    def __init__(self, num_vars: int) -> None:
        self.sums = np.zeros((2, num_vars))
        self.counts = np.zeros((2, num_vars), dtype=np.int64)

    def observe(self, var: int, up: bool, degradation: float, frac: float) -> None:
        """Record one branching outcome (negative degradations clamp to 0)."""
        side = 1 if up else 0
        self.sums[side, var] += max(0.0, degradation) / max(frac, INT_TOL)
        self.counts[side, var] += 1

    def initialized(self, var: int) -> bool:
        """Whether both directions of ``var`` have at least one observation."""
        return bool(self.counts[0, var] > 0 and self.counts[1, var] > 0)

    def scores(self, candidates: np.ndarray, frac: np.ndarray) -> np.ndarray:
        """Product score of estimated down/up degradations per candidate.

        Directions without observations fall back to a unit pseudocost, so a
        fully uninformed score degenerates to ``frac * (1 - frac)`` -- exactly
        the classic most-fractional rule -- and information takes over
        smoothly as it arrives.
        """
        down_avg = np.ones(candidates.size)
        up_avg = np.ones(candidates.size)
        cnt_down = self.counts[0, candidates]
        cnt_up = self.counts[1, candidates]
        seen_down = cnt_down > 0
        seen_up = cnt_up > 0
        down_avg[seen_down] = self.sums[0, candidates[seen_down]] / cnt_down[seen_down]
        up_avg[seen_up] = self.sums[1, candidates[seen_up]] / cnt_up[seen_up]
        down_est = np.maximum(down_avg * frac, 1e-6)
        up_est = np.maximum(up_avg * (1.0 - frac), 1e-6)
        result: np.ndarray = down_est * up_est
        return result


def _fractional_indices(x: np.ndarray, integrality: np.ndarray) -> np.ndarray:
    """Indices of integer-constrained variables with fractional values."""
    integral = np.asarray(integrality, dtype=bool)
    distance = np.abs(x - np.round(x))
    return np.flatnonzero(integral & (distance > INT_TOL))


def _feasibility_form(form: StandardForm, lb: np.ndarray, ub: np.ndarray) -> StandardForm:
    """A view of ``form`` with node bounds and a zero objective."""
    return StandardForm(
        c=np.zeros_like(form.c),
        A_ub=form.A_ub,
        b_ub=form.b_ub,
        A_eq=form.A_eq,
        b_eq=form.b_eq,
        lb=lb,
        ub=ub,
        integrality=form.integrality,
        names=form.names,
    )


def _root_cut_loop(
    form: StandardForm,
    max_iter: Optional[int],
    deadline: Optional[Deadline],
) -> Tuple[StandardForm, SimplexSolver, Optional[_Basis]]:
    """Cut-and-branch root loop: tighten the root relaxation before branching.

    Each round separates implied-cardinality, cover and Gomory mixed-integer
    cuts against the root optimum, appends them to ``A_ub`` and re-solves
    the root over the extended form.  Only the first root solve is cold:
    every re-solve goes through :func:`repro.optim.simplex.resolve_appended`,
    the step column generation shares, which migrates the previous round's
    optimal basis across the appended rows (each cut starts with its slack
    basic).  Returns the extended form, the simplex session that solves the
    node LPs over it, and the root node's warm basis (the last root optimum,
    without its factorization; ``None`` when the root solve left no basis).
    Every cut is valid for the full integer hull, so the tree search
    (including its rounding heuristic) runs unchanged over the new form.
    """
    if deadline is not None and deadline.expired():
        return form, SimplexSolver(form, max_iter=max_iter or 100_000), None
    session, relax, warm = resolve_appended(form, None, max_iter=max_iter, deadline=deadline)
    for _ in range(_MAX_CUT_ROUNDS):
        if deadline is not None and deadline.expired():
            break  # whatever was separated so far still tightens the root
        if relax.status is not SolveStatus.OPTIMAL:
            break  # infeasible/unbounded roots are the main loop's business
        x_root = np.array([relax.values[name] for name in form.names])
        if _fractional_indices(x_root, form.integrality).size == 0:
            break  # root already integral: no point cutting
        new_cuts = separate_implied_cardinality_cuts(form, x_root, deadline=deadline)
        new_cuts += separate_cover_cuts(form, x_root, deadline=deadline)
        if warm is not None:
            basis, lp = warm
            new_cuts += separate_gomory_cuts(lp, basis, form, x_root, deadline=deadline)
        if not new_cuts:
            break
        form = append_cut_rows(form, new_cuts)
        instr.add("cuts_added", len(new_cuts))
        session, relax, warm = resolve_appended(form, warm, max_iter=max_iter, deadline=deadline)
    if warm is None:
        return form, session, None
    # The root node refactorizes the last root basis: every node of the tree
    # descends from the root's factor, and inheriting the cut rounds' update
    # file would make the whole tree refactorize sooner and keep more
    # factorizations alive.
    return form, session, replace(warm[0], factor=None)


def solve_milp(
    form: StandardForm,
    max_nodes: int = 100_000,
    mip_gap: Optional[float] = None,
    max_iter: Optional[int] = None,
    deadline: Optional[Deadline] = None,
) -> Solution:
    """Solve a mixed-integer program by branch and bound.

    Parameters
    ----------
    form:
        Problem in standard (minimization) form.  Node LP relaxations are
        always solved by the in-house simplex
        (:class:`repro.optim.simplex.SimplexSolver`, with per-node warm
        starts), whether or not SciPy is importable.
    max_nodes:
        Safety limit on the number of explored nodes.  The limit is checked
        *before* a node is popped, so hitting it never discards an open node
        and a ``NODE_LIMIT`` result reflects a resumable frontier.
    mip_gap:
        Optional relative gap; nodes within ``mip_gap * |incumbent|`` of the
        incumbent are fathomed (same semantics as HiGHS ``mip_rel_gap``).
    max_iter:
        Optional simplex iteration limit forwarded to every node LP solve.
    deadline:
        Optional already-running deadline shared with the caller (e.g. the
        backend dispatcher, which starts the clock before presolve, or
        ``Deadline(seconds)`` for a direct call).  It propagates into node
        LP pivots, root cut separation and strong-branching probes.

    Returns
    -------
    Solution
        Optimal solution, or a solution with status ``NODE_LIMIT`` (node
        budget exhausted) / ``TIME_LIMIT`` (wall-clock deadline expired)
        carrying the best incumbent found so far.  ``gap`` reports the
        final relative gap between the
        incumbent and the best open bound -- including, when ``mip_gap`` is
        set, subtrees fathomed by the relative-gap cutoff, so a gap-pruned
        "optimal" honestly reports how far from a proven optimum it may be.
        On an integer-grid objective that bound is first rounded up to the
        grid.
    """
    sign = -1.0 if form.maximize else 1.0
    # Cuts and strong-branching probes both tighten the objective bound,
    # which a zero objective (the feasibility probe) does not have.
    has_objective = bool(np.any(form.c))
    root_warm: Optional[_Basis] = None
    if _MAX_CUT_ROUNDS > 0 and has_objective and np.any(np.asarray(form.integrality, dtype=bool)):
        form, session, root_warm = _root_cut_loop(form, max_iter, deadline)
    else:
        session = SimplexSolver(form, max_iter=max_iter or 100_000)
    integral_mask = np.asarray(form.integrality, dtype=bool)
    on_grid = _objective_on_grid(form)

    def incumbent_at(cost: float, x: np.ndarray) -> float:
        """The cost an incumbent at ``x`` is held at: on the grid, its rounded point's."""
        if not on_grid:
            return cost
        return float(form.c[integral_mask] @ np.round(x[integral_mask])) + form.objective_offset

    def relaxation_cost(solution: Solution) -> float:
        """LP objective in minimization sense (undo the model-sense flip)."""
        if solution.objective is None:
            raise InternalSolverError(
                "node LP reported OPTIMAL without an objective value "
                f"(backend {solution.backend!r})"
            )
        return sign * solution.objective

    def cutoff() -> float:
        """Fathoming threshold against the incumbent (absolute + relative gap).

        On the grid a bound of ``I - 1 + 1e-6`` already rules out a better
        point.
        """
        if incumbent_cost == math.inf:
            return math.inf
        slack = _GAP_TOL
        if on_grid:
            slack = max(slack, 1.0 - _GRID_TOL)
        if mip_gap is not None:
            slack = max(slack, mip_gap * abs(incumbent_cost))
        return incumbent_cost - slack

    def feasibility_probe(lb: np.ndarray, ub: np.ndarray, budget: int) -> SolveStatus:
        """Zero-objective MILP deciding feasibility of a node's subtree.

        A zero objective is always bounded, so the probe terminates with
        ``OPTIMAL`` (feasible), ``INFEASIBLE``, or ``NODE_LIMIT`` /
        ``TIME_LIMIT`` (inconclusive) and never recurses into another probe.
        It inherits the caller's deadline and whatever remains of its node
        budget.
        """
        probe = solve_milp(
            _feasibility_form(form, lb, ub),
            max_nodes=max(budget, 1),
            max_iter=max_iter,
            deadline=deadline,
        )
        return probe.status

    root = _Node(
        bound=-math.inf, order=0, lb=form.lb.copy(), ub=form.ub.copy(), warm_basis=root_warm
    )
    pseudo = _Pseudocosts(form.c.size)
    # Strong branching probes exist to estimate objective degradation; with a
    # zero objective every degradation is zero, so skip probing and let the
    # score degenerate to most-fractional.
    sb_budget = _SB_PROBE_BUDGET if has_objective else 0
    counter = itertools.count(1)
    heap: List[_Node] = [root]
    incumbent: Optional[Dict[str, float]] = None
    incumbent_cost = math.inf
    nodes_explored = 0
    limit_hit = False
    deadline_hit = False
    # Best (lowest) minimization bound discarded by gap-based fathoming;
    # tracked only under mip_gap so the final Solution.gap reflects how far
    # from a proven optimum the pruning may have left the incumbent.
    gap_pruned_bound = math.inf

    while heap:
        if deadline is not None and deadline.expired():
            deadline_hit = True
            break
        if nodes_explored >= max_nodes:
            # Leave the frontier (including the node we were about to pop)
            # intact so NODE_LIMIT results carry a correct best bound.
            limit_hit = True
            break
        node = heapq.heappop(heap)
        if node.bound >= cutoff():
            if mip_gap is not None:
                gap_pruned_bound = min(gap_pruned_bound, node.bound)
            continue
        nodes_explored += 1
        instr.add("bb_nodes")

        relax, basis = session.solve(
            lb=node.lb, ub=node.ub, warm_basis=node.warm_basis, deadline=deadline
        )
        if relax.status is SolveStatus.INFEASIBLE:
            continue
        if relax.status is SolveStatus.UNBOUNDED:
            # The node's relaxation is unbounded: the MILP restricted to this
            # subtree is unbounded iff it is feasible.  Decide with a
            # bounded-objective feasibility probe.
            probe_status = feasibility_probe(node.lb, node.ub, max_nodes - nodes_explored)
            if probe_status is SolveStatus.INFEASIBLE:
                continue
            # Feasible (or inconclusive probe, where unbounded remains the
            # safest statement): the whole MILP is unbounded.
            return Solution(
                status=SolveStatus.UNBOUNDED,
                backend="branch-and-bound",
                iterations=nodes_explored,
            )
        if relax.status is SolveStatus.TIME_LIMIT:
            # The node LP itself ran out of wall clock.  The node proved
            # nothing -- push it back so the frontier (and hence the reported
            # best bound) stays correct, and stop the search honestly.
            heapq.heappush(heap, node)
            deadline_hit = True
            break
        if relax.status is not SolveStatus.OPTIMAL:
            # The simplex raises on non-convergence, so no other status is
            # expected here; fathoming such a node could turn a feasible
            # MILP into a reported INFEASIBLE or an unexplored subtree into
            # a claimed OPTIMAL.
            raise InternalSolverError(f"node LP solve returned status {relax.status.value!r}")

        cost = relaxation_cost(relax)
        if node.branch_var >= 0 and math.isfinite(node.parent_cost):
            pseudo.observe(node.branch_var, node.branch_up, cost - node.parent_cost, node.branch_frac)
        if cost >= cutoff():
            if mip_gap is not None:
                gap_pruned_bound = min(gap_pruned_bound, cost)
            continue

        x = np.array([relax.values[name] for name in form.names])
        fractional = _fractional_indices(x, form.integrality)
        if fractional.size == 0:
            incumbent_cost = incumbent_at(cost, x)
            incumbent = dict(relax.values)
            continue

        # Primal rounding heuristic: a feasible lattice point near the node
        # relaxation tightens the incumbent cutoff early (often at the root)
        # without affecting the exactness of the search.
        rounded = _rounded_incumbents(form, x, integral_mask, incumbent_cost)
        if rounded is not None:
            rounded_cost, cand = rounded
            incumbent_cost = incumbent_at(rounded_cost, cand)
            incumbent = {name: float(cand[i]) for i, name in enumerate(form.names)}

        # Reduced-cost fixing: with an incumbent in hand, nonbasic integer
        # variables whose reduced cost prices any move off their bound above
        # the remaining gap get their opposite bound pulled in, shrinking
        # both children (and sometimes fixing the variable outright).  At a
        # zero objective the cutoff sits below every node, so nothing moves.
        if incumbent_cost < math.inf:
            node.lb, node.ub, n_rc_fixed = reduced_cost_fixing(
                x, relax.reduced_costs, node.lb, node.ub, form.integrality, cutoff() - cost
            )
            if n_rc_fixed:
                instr.add("rc_fixings", n_rc_fixed)

        frac = x[fractional] - np.floor(x[fractional])

        # Reliability initialization: while a fractional variable has an
        # unobserved branching direction, measure it directly by solving the
        # two child LPs (warm-started off this node's basis, so each probe is
        # typically a handful of dual pivots).  Probe outcomes double as
        # exact child bounds: an infeasible or above-cutoff side is fathomed
        # without ever becoming a node, and a surviving side enters the heap
        # with its true LP bound and its own repaired basis.
        probe_results: Dict[int, List[Optional[Tuple[float, Optional[_Basis]]]]] = {}
        if sb_budget > 0:
            centrality = np.argsort(np.abs(frac - 0.5), kind="stable")
            needs_init = [
                int(j) for j in fractional[centrality] if not pseudo.initialized(int(j))
            ]
            for j in needs_init[:_SB_PROBES_PER_NODE]:
                if sb_budget <= 0:
                    break
                floor_j = math.floor(x[j] + INT_TOL)
                frac_j = x[j] - floor_j
                outcomes: List[Optional[Tuple[float, Optional[_Basis]]]] = [None, None]
                for up in (False, True):
                    probe_lb, probe_ub = node.lb.copy(), node.ub.copy()
                    if up:
                        probe_lb[j] = max(probe_lb[j], floor_j + 1)
                    else:
                        probe_ub[j] = min(probe_ub[j], floor_j)
                    if probe_lb[j] > probe_ub[j]:
                        outcomes[int(up)] = (math.inf, None)  # empty side
                        continue
                    child, child_basis = session.solve(
                        lb=probe_lb, ub=probe_ub, warm_basis=basis, deadline=deadline
                    )
                    sb_budget -= 1
                    instr.add("strong_branch_probes")
                    if child.status is SolveStatus.INFEASIBLE:
                        outcomes[int(up)] = (math.inf, None)
                        continue
                    if child.status is not SolveStatus.OPTIMAL:
                        continue  # limit hit: no information, side stays unobserved
                    child_cost = relaxation_cost(child)
                    distance = 1.0 - frac_j if up else frac_j
                    pseudo.observe(j, up, child_cost - cost, distance)
                    outcomes[int(up)] = (child_cost, child_basis)
                probe_results[j] = outcomes

        # Select the branching variable by pseudocost product score; a probe
        # that proved one side infeasible trumps everything (branching there
        # immediately halves the subtree).
        scores = pseudo.scores(fractional, frac)
        position = {int(j): k for k, j in enumerate(fractional)}
        for j, outcomes in probe_results.items():
            if any(o is not None and math.isinf(o[0]) for o in outcomes):
                scores[position[j]] = math.inf
        branch_var = int(fractional[int(np.argmax(scores))])
        floor_val = math.floor(x[branch_var] + INT_TOL)
        branch_frac = x[branch_var] - floor_val
        branch_outcomes = probe_results.get(branch_var)

        for up in (False, True):
            child_lb, child_ub = node.lb.copy(), node.ub.copy()
            if up:
                child_lb[branch_var] = max(child_lb[branch_var], floor_val + 1)
            else:
                child_ub[branch_var] = min(child_ub[branch_var], floor_val)
            if child_lb[branch_var] > child_ub[branch_var]:
                continue
            child_bound = cost
            child_warm = basis
            probed = False
            outcome = branch_outcomes[int(up)] if branch_outcomes is not None else None
            if outcome is not None:
                probe_cost, probe_basis = outcome
                if math.isinf(probe_cost):
                    continue  # probe proved this side infeasible
                if probe_cost >= cutoff():
                    if mip_gap is not None:
                        gap_pruned_bound = min(gap_pruned_bound, probe_cost)
                    continue
                child_bound = probe_cost
                if probe_basis is not None:
                    child_warm = probe_basis
                probed = True
            heapq.heappush(
                heap,
                _Node(
                    bound=child_bound,
                    order=next(counter),
                    lb=child_lb,
                    ub=child_ub,
                    warm_basis=child_warm,
                    branch_var=branch_var,
                    branch_up=up,
                    # Probed children already fed the pseudocosts; NaN stops
                    # their eventual node solve from re-recording the same
                    # observation.
                    parent_cost=math.nan if probed else cost,
                    branch_frac=1.0 - branch_frac if up else branch_frac,
                ),
            )

    if incumbent is None:
        if deadline_hit or limit_hit:
            # No incumbent: nothing bounds the gap, so it must not read as proven.
            if deadline_hit:
                instr.add("deadline_expiries")
            return Solution(
                status=SolveStatus.TIME_LIMIT if deadline_hit else SolveStatus.NODE_LIMIT,
                backend="branch-and-bound",
                iterations=nodes_explored,
                gap=math.inf,
            )
        return Solution(status=SolveStatus.INFEASIBLE, backend="branch-and-bound", iterations=nodes_explored)

    # Round integer variables exactly (they are within INT_TOL of integers).
    values = {}
    for i, name in enumerate(form.names):
        val = incumbent[name]
        if form.integrality[i]:
            val = float(round(val))
        values[name] = float(val)

    open_bounds = [nd.bound for nd in heap if nd.bound < cutoff()]
    if (deadline_hit or limit_hit) and open_bounds:
        status = SolveStatus.TIME_LIMIT if deadline_hit else SolveStatus.NODE_LIMIT
        if deadline_hit:
            instr.add("deadline_expiries")
    else:
        status = SolveStatus.OPTIMAL
    bound_candidates = list(open_bounds)
    if gap_pruned_bound < math.inf:
        bound_candidates.append(gap_pruned_bound)
    if bound_candidates:
        best_bound = min(bound_candidates)
        if on_grid and math.isfinite(best_bound):
            offset = form.objective_offset
            best_bound = offset + math.ceil(best_bound - offset - _GRID_TOL)
        gap = max(0.0, (incumbent_cost - best_bound) / max(abs(incumbent_cost), 1e-12))
    else:
        gap = 0.0

    objective = sign * incumbent_cost
    return Solution(
        status=status,
        objective=objective,
        values=values,
        backend="branch-and-bound",
        iterations=nodes_explored,
        gap=gap,
    )
