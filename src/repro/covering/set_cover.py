"""Minimum Set Cover: greedy, LP-rounding and exact algorithms.

The Minimum Set Cover problem (MSC) is stated in Section 4.2 of the paper:
given a ground set ``S`` and a collection ``C`` of subsets of ``S``, find a
minimum-cardinality sub-collection covering every element.  PPM(1), the
"monitor all the traffic" problem, is equivalent to MSC (Theorem 1), and the
classical greedy achieves the essentially optimal ``ln|S| - ln ln|S| + O(1)``
approximation ratio [Slavik 1996, Feige 1998].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set

from repro.optim import Model, lin_sum, selected
from repro.optim.errors import InfeasibleError, InternalSolverError


@dataclass
class SetCoverInstance:
    """An instance of Minimum Set Cover.

    Attributes
    ----------
    universe:
        The ground set ``S`` of elements to cover.
    subsets:
        Mapping from subset label to the set of elements it contains.
    weights:
        Optional cost per subset (defaults to 1 for every subset, i.e. the
        cardinality objective used throughout the paper).
    """

    universe: Set[Hashable]
    subsets: Dict[Hashable, Set[Hashable]]
    weights: Dict[Hashable, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.universe = set(self.universe)
        self.subsets = {label: set(items) for label, items in self.subsets.items()}
        if not self.weights:
            self.weights = {label: 1.0 for label in self.subsets}
        else:
            missing = set(self.subsets) - set(self.weights)
            if missing:
                raise ValueError(f"weights missing for subsets: {sorted(map(str, missing))}")
        stray = set().union(*self.subsets.values()) - self.universe if self.subsets else set()
        if stray:
            raise ValueError(f"subsets contain elements outside the universe: {sorted(map(str, stray))}")

    @property
    def is_coverable(self) -> bool:
        """True when the union of all subsets equals the universe."""
        covered = set()
        for items in self.subsets.values():
            covered |= items
        return covered >= self.universe

    def cover_cost(self, selection: Iterable[Hashable]) -> float:
        """Total weight of a selection of subset labels."""
        return sum(self.weights[label] for label in selection)

    def is_cover(self, selection: Iterable[Hashable]) -> bool:
        """Check whether ``selection`` covers the whole universe."""
        covered: Set[Hashable] = set()
        for label in selection:
            covered |= self.subsets[label]
        return covered >= self.universe

    @classmethod
    def from_lists(
        cls,
        subsets: Mapping[Hashable, Iterable[Hashable]],
        universe: Optional[Iterable[Hashable]] = None,
    ) -> "SetCoverInstance":
        """Build an instance from any mapping of label -> iterable of items.

        When ``universe`` is omitted it defaults to the union of all subsets.
        """
        materialized = {label: set(items) for label, items in subsets.items()}
        if universe is None:
            universe = set().union(*materialized.values()) if materialized else set()
        return cls(universe=set(universe), subsets=materialized)


def greedy_set_cover(instance: SetCoverInstance) -> List[Hashable]:
    """Classical greedy algorithm for (weighted) set cover.

    At each step the subset minimizing ``weight / |newly covered elements|``
    is selected.  For unit weights this is the textbook greedy with the
    ``H(|S|) <= ln|S| + 1`` guarantee.

    Raises
    ------
    InfeasibleError
        If the union of all subsets does not cover the universe.
    """
    if not instance.is_coverable:
        raise InfeasibleError("the subsets do not cover the universe")
    uncovered = set(instance.universe)
    remaining = dict(instance.subsets)
    selection: List[Hashable] = []
    while uncovered:
        best_label = None
        best_ratio = float("inf")
        best_gain = 0
        for label, items in remaining.items():
            gain = len(items & uncovered)
            if gain == 0:
                continue
            ratio = instance.weights[label] / gain
            # Break ties towards larger absolute gain, then stable label order.
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12 and gain > best_gain
            ):
                best_label, best_ratio, best_gain = label, ratio, gain
        if best_label is None:  # unreachable: is_coverable was checked above
            raise InternalSolverError(
                "greedy set cover found no subset with positive gain on a coverable instance"
            )
        selection.append(best_label)
        uncovered -= remaining.pop(best_label)
    return selection


def exact_set_cover(instance: SetCoverInstance, backend: str = "auto") -> List[Hashable]:
    """Solve set cover exactly with the 0-1 ILP formulation.

    ``minimize sum_c w_c x_c`` subject to ``sum_{c ni u} x_c >= 1`` for every
    element ``u``.
    """
    if not instance.is_coverable:
        raise InfeasibleError("the subsets do not cover the universe")
    model = Model("set-cover", sense="min")
    labels = list(instance.subsets)
    x = {label: model.add_var(f"x[{i}]", vartype="binary") for i, label in enumerate(labels)}
    element_to_subsets: Dict[Hashable, List[Hashable]] = {u: [] for u in instance.universe}
    for label, items in instance.subsets.items():
        for item in items:
            element_to_subsets[item].append(label)
    for u, containing in element_to_subsets.items():
        model.add_constr(lin_sum(x[label] for label in containing) >= 1, name=f"cover[{u}]")
    model.set_objective(lin_sum(instance.weights[label] * x[label] for label in labels))
    solution = model.solve(backend=backend, raise_on_infeasible=True)
    return selected(solution, x)


def lp_rounding_set_cover(instance: SetCoverInstance, backend: str = "auto") -> List[Hashable]:
    """Deterministic LP-rounding ``f``-approximation for set cover.

    Solves the LP relaxation and keeps every subset whose fractional value is
    at least ``1/f``, where ``f`` is the maximum element frequency.  This is
    the classical frequency-based rounding and always yields a feasible
    cover.
    """
    if not instance.is_coverable:
        raise InfeasibleError("the subsets do not cover the universe")
    model = Model("set-cover-lp", sense="min")
    labels = list(instance.subsets)
    x = {label: model.add_var(f"x[{i}]", lb=0.0, ub=1.0) for i, label in enumerate(labels)}
    element_to_subsets: Dict[Hashable, List[Hashable]] = {u: [] for u in instance.universe}
    for label, items in instance.subsets.items():
        for item in items:
            element_to_subsets[item].append(label)
    frequency = max((len(v) for v in element_to_subsets.values()), default=1)
    for u, containing in element_to_subsets.items():
        model.add_constr(lin_sum(x[label] for label in containing) >= 1, name=f"cover[{u}]")
    model.set_objective(lin_sum(instance.weights[label] * x[label] for label in labels))
    solution = model.solve(backend=backend, raise_on_infeasible=True)
    threshold = 1.0 / frequency
    selection = [label for label in labels if solution.value(x[label].name) >= threshold - 1e-9]
    # The rounding is guaranteed feasible, but keep a defensive repair pass in
    # case of numerical slack on the LP solution.
    if not instance.is_cover(selection):
        uncovered = set(instance.universe)
        for label in selection:
            uncovered -= instance.subsets[label]
        for label in labels:
            if not uncovered:
                break
            if label not in selection and instance.subsets[label] & uncovered:
                selection.append(label)
                uncovered -= instance.subsets[label]
    return selection


def greedy_cover_bound(num_elements: int) -> float:
    """Upper bound on the greedy approximation ratio, ``H(n) <= ln n + 1``.

    Useful in tests and benchmarks to check the greedy stays within its
    theoretical guarantee.
    """
    import math

    if num_elements <= 0:
        return 1.0
    return math.log(num_elements) + 1.0
