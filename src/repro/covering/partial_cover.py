"""Minimum Partial Cover: cover a fraction of the ground set.

Section 4.2 of the paper observes that the *unweighted* PPM(k) problem is
equivalent to the Minimum Partial Cover problem analysed by Slavik
[Slavik 1997]: select the fewest subsets so that at least a fraction ``k`` of
the elements is covered.  The weighted variant (elements carry traffic
volumes) is what PPM(k) actually is; both are supported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set

from repro.optim import Model, lin_sum, selected
from repro.optim.errors import InfeasibleError


@dataclass
class PartialCoverInstance:
    """An instance of (weighted) Minimum Partial Cover.

    Attributes
    ----------
    universe:
        Elements that may be covered.
    subsets:
        Mapping subset label -> set of elements.
    coverage:
        Required fraction ``k`` in ``(0, 1]`` of the total element weight.
    element_weights:
        Optional weight per element (defaults to 1, the unweighted problem).
    """

    universe: Set[Hashable]
    subsets: Dict[Hashable, Set[Hashable]]
    coverage: float
    element_weights: Dict[Hashable, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {self.coverage}")
        self.universe = set(self.universe)
        self.subsets = {label: set(items) & self.universe for label, items in self.subsets.items()}
        if not self.element_weights:
            self.element_weights = {u: 1.0 for u in self.universe}
        else:
            missing = self.universe - set(self.element_weights)
            if missing:
                raise ValueError(f"element weights missing for: {sorted(map(str, missing))}")
        if any(w < 0 for w in self.element_weights.values()):
            raise ValueError("element weights must be non-negative")

    @property
    def total_weight(self) -> float:
        """Total weight of the universe."""
        return sum(self.element_weights[u] for u in self.universe)

    @property
    def required_weight(self) -> float:
        """Weight that must be covered, ``k * total_weight``."""
        return self.coverage * self.total_weight

    def covered_weight(self, selection: Iterable[Hashable]) -> float:
        """Weight of the elements covered by a selection of subsets."""
        covered: Set[Hashable] = set()
        for label in selection:
            covered |= self.subsets[label]
        return sum(self.element_weights[u] for u in covered)

    def is_feasible_selection(self, selection: Iterable[Hashable], tol: float = 1e-9) -> bool:
        """True when the selection reaches the required covered weight."""
        return self.covered_weight(selection) >= self.required_weight - tol

    @property
    def is_feasible(self) -> bool:
        """True when selecting every subset reaches the coverage target."""
        return self.is_feasible_selection(self.subsets.keys())


def greedy_partial_cover(instance: PartialCoverInstance) -> List[Hashable]:
    """Greedy algorithm for partial cover.

    Repeatedly selects the subset bringing the largest *additional* covered
    weight until the coverage target is met.  This is the natural greedy
    analysed by Slavik for partial cover, and also exactly the "most loaded
    link first" heuristic of the paper once elements are traffics weighted by
    their bandwidth.
    """
    if not instance.is_feasible:
        raise InfeasibleError(
            "selecting every subset does not reach the requested coverage "
            f"({instance.coverage:.2%})"
        )
    covered: Set[Hashable] = set()
    covered_weight = 0.0
    target = instance.required_weight
    remaining = dict(instance.subsets)
    selection: List[Hashable] = []
    while covered_weight < target - 1e-12:
        best_label = None
        best_gain = 0.0
        for label, items in remaining.items():
            gain = sum(instance.element_weights[u] for u in items - covered)
            if gain > best_gain + 1e-12:
                best_label, best_gain = label, gain
        if best_label is None:
            # No subset adds weight yet the target is not reached: numerical
            # guard, should not happen thanks to the feasibility check above.
            raise InfeasibleError("greedy partial cover stalled before reaching the target")
        selection.append(best_label)
        covered |= remaining.pop(best_label)
        covered_weight += best_gain
    return selection


def exact_partial_cover(instance: PartialCoverInstance, backend: str = "auto") -> List[Hashable]:
    """Exact partial cover via a 0-1 ILP.

    Variables: ``x_c`` selects subset ``c``; ``y_u`` marks element ``u`` as
    covered.  ``y_u`` may only be 1 when a selected subset contains ``u``, and
    the selected elements must reach the coverage target.
    """
    if not instance.is_feasible:
        raise InfeasibleError(
            "selecting every subset does not reach the requested coverage "
            f"({instance.coverage:.2%})"
        )
    model = Model("partial-cover", sense="min")
    labels = list(instance.subsets)
    elements = list(instance.universe)
    x = {label: model.add_var(f"x[{i}]", vartype="binary") for i, label in enumerate(labels)}
    y = {u: model.add_var(f"y[{j}]", lb=0.0, ub=1.0) for j, u in enumerate(elements)}

    element_to_subsets: Dict[Hashable, List[Hashable]] = {u: [] for u in elements}
    for label, items in instance.subsets.items():
        for item in items:
            element_to_subsets[item].append(label)

    for u in elements:
        containing = element_to_subsets[u]
        if containing:
            model.add_constr(y[u] <= lin_sum(x[label] for label in containing), name=f"link[{u}]")
        else:
            model.add_constr(y[u] <= 0, name=f"link[{u}]")
    model.add_constr(
        lin_sum(instance.element_weights[u] * y[u] for u in elements) >= instance.required_weight,
        name="coverage",
    )
    model.set_objective(lin_sum(x[label] for label in labels))
    solution = model.solve(backend=backend, raise_on_infeasible=True)
    return selected(solution, x)
