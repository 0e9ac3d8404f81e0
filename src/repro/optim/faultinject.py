"""Deterministic fault injection for the solver resilience layer.

The recovery rungs of :mod:`repro.optim.simplex` and the backend failover
of :mod:`repro.optim.backend` exist to survive rare numerical and
environmental failures -- which makes them almost impossible to exercise
with honest inputs.  This module lets a test *script* those failures
deterministically: fail the Nth basis factorization, inject a NaN into the
Nth entering pivot column, poison the Nth stored Forrest-Tomlin spike (a
*persistent* corruption that survives inside the eta file until the next
refactorization), force the Nth warm-start dual repair to stall,
raise from a chosen backend, or jump the deadline clock forward after the
Nth expiry check.

Design constraints:

* **Zero overhead when inert.**  Hot-path call sites guard every hook with
  ``if faultinject.ACTIVE:`` -- a single module-attribute load -- so an
  un-instrumented solve pays one predictable branch per site and nothing
  else.  :data:`ACTIVE` is only ever True inside an :func:`inject` context.
* **Deterministic.**  A :class:`FaultPlan` names faults by per-site
  occurrence index (1-based), not by time or randomness, so the same plan
  against the same model drives the same recovery rung every run.
* **Real failure modes.**  The hooks raise the *caller's* exception types
  (:func:`maybe_fail` takes the class to raise) and corrupt real arrays, so
  an injected fault travels the exact code path a genuine LU breakdown or
  backend loss would.

Typical usage (see ``tests/test_optim_resilience.py``)::

    from repro.optim import faultinject

    plan = faultinject.FaultPlan(fail_factorizations=(1,))
    with faultinject.inject(plan) as armed:
        solution = model.solve(backend="branch-and-bound")
    # armed.fired["factorize"] == 1 -> the fault really triggered
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Type

import numpy as np

from repro.optim.errors import InternalSolverError

__all__ = [
    "ACTIVE",
    "BACKEND",
    "DEADLINE",
    "FACTORIZE",
    "FaultPlan",
    "PIVOT_FTRAN",
    "PRICING",
    "SPIKE",
    "WARM_REPAIR",
    "clock_skew",
    "corrupt_vector",
    "inject",
    "maybe_fail",
    "maybe_fail_backend",
    "should",
]

#: Fast-path flag: hot call sites check this before touching anything else.
ACTIVE = False

#: Instrumented sites (occurrence counters are kept per site name).
FACTORIZE = "factorize"        # _BasisFactor construction
PIVOT_FTRAN = "pivot-ftran"    # FTRAN of an entering column or of a dual iteration's bound flips
SPIKE = "spike"                # Forrest-Tomlin spike recorded by _BasisFactor.update
WARM_REPAIR = "warm-repair"    # warm-start dual repair attempt
DEADLINE = "deadline"          # Deadline expiry check
BACKEND = "backend"            # backend dispatch, keyed "backend:<name>"
PRICING = "pricing"            # column-generation reduced-cost pricing block


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of faults to inject while armed.

    All occurrence indices are 1-based and count events *within one*
    :func:`inject` context, so a plan composes with the instrumentation
    counters: on a small LP "fail factorization 1" makes the bound-shift
    rung answer, and "fail factorizations 1 and 2" fails both cold
    attempts, regardless of machine or timing.
    """

    #: Basis factorizations (by occurrence) that raise ``_SingularBasis``.
    fail_factorizations: Tuple[int, ...] = ()
    #: Pivot FTRANs (by occurrence) that get a NaN written in: entering
    #: columns, and the one summed FTRAN of a dual iteration's bound flips.
    corrupt_pivots: Tuple[int, ...] = ()
    #: Stored Forrest-Tomlin spikes (by occurrence) that get a NaN written
    #: in -- unlike a corrupted pivot the damage *persists* inside the eta
    #: file, so every later FTRAN/BTRAN through it is poisoned until the
    #: solve starts over on a fresh factorization.
    corrupt_spikes: Tuple[int, ...] = ()
    #: Warm-start dual repairs (by occurrence) forced to report a stall.
    stall_warm_repairs: Tuple[int, ...] = ()
    #: Column-generation pricing blocks (by occurrence) that get a NaN
    #: written into the freshly-computed reduced-cost slice; the pricing
    #: pass then raises ``SolverError``.
    corrupt_pricing: Tuple[int, ...] = ()
    #: Backend names whose dispatch raises while the plan is armed.
    fail_backends: Tuple[str, ...] = ()
    #: After this many deadline checks, the clock jumps forward once.
    jump_clock_after: Optional[int] = None
    #: Seconds the deadline clock jumps (default: far past any real budget).
    clock_jump: float = 1e9


class _ArmedPlan:
    """A :class:`FaultPlan` plus its per-site occurrence/fired counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.seen: Dict[str, int] = {}
        #: How many faults actually fired, per site -- tests assert on this
        #: so a plan that never triggered cannot silently pass.
        self.fired: Dict[str, int] = {}
        self.skew = 0.0

    def _count(self, site: str) -> int:
        n = self.seen.get(site, 0) + 1
        self.seen[site] = n
        return n

    def _record(self, site: str) -> None:
        self.fired[site] = self.fired.get(site, 0) + 1

    # -- per-site behaviour -------------------------------------------------
    def scheduled(self, site: str, occurrences: Tuple[int, ...]) -> bool:
        """Advance ``site``'s visit counter; True when this visit is scripted."""
        if self._count(site) in occurrences:
            self._record(site)
            return True
        return False

    def backend_fails(self, backend: str) -> bool:
        """True when the plan scripts ``backend`` to fail at dispatch."""
        self._count(f"{BACKEND}:{backend}")
        if backend in self.plan.fail_backends:
            self._record(f"{BACKEND}:{backend}")
            return True
        return False

    def clock_skew(self) -> float:
        """Seconds of deadline-clock skew, jumping once the scripted read hits."""
        after = self.plan.jump_clock_after
        if after is not None and self.skew == 0.0 and self._count(DEADLINE) >= after:
            self.skew = float(self.plan.clock_jump)
            self._record(DEADLINE)
        return self.skew


_armed: Optional[_ArmedPlan] = None


@contextmanager
def inject(plan: FaultPlan) -> Iterator[_ArmedPlan]:
    """Arm ``plan`` for the duration of the ``with`` block.

    Yields the armed plan so the caller can assert on :attr:`_ArmedPlan.fired`
    afterwards.  Nesting is rejected -- two overlapping plans would make the
    occurrence indices meaningless.
    """
    global ACTIVE, _armed
    if _armed is not None:
        raise InternalSolverError("fault-injection contexts cannot be nested")
    armed = _ArmedPlan(plan)
    _armed = armed
    ACTIVE = True
    try:
        yield armed
    finally:
        ACTIVE = False
        _armed = None


def maybe_fail(site: str, exc: Type[Exception]) -> None:
    """Raise ``exc`` when the armed plan scheduled a fault at this occurrence."""
    armed = _armed
    if armed is None:
        return
    occurrences: Tuple[int, ...]
    if site == FACTORIZE:
        occurrences = armed.plan.fail_factorizations
    else:  # pragma: no cover - defensive: unknown sites never fire
        occurrences = ()
    if armed.scheduled(site, occurrences):
        raise exc(f"fault injected at {site} #{armed.seen[site]}")


def maybe_fail_backend(backend: str, exc: Type[Exception]) -> None:
    """Raise ``exc`` when the armed plan fails dispatches to ``backend``."""
    armed = _armed
    if armed is not None and armed.backend_fails(backend):
        raise exc(f"fault injected: backend {backend!r} is down")


def should(site: str) -> bool:
    """True when the armed plan scheduled a behavioural fault here.

    Used for faults that change control flow without an exception, e.g.
    forcing a warm-repair stall.
    """
    armed = _armed
    if armed is None:
        return False
    if site == WARM_REPAIR:
        return armed.scheduled(site, armed.plan.stall_warm_repairs)
    return False  # pragma: no cover - defensive: unknown sites never fire


def corrupt_vector(site: str, vec: np.ndarray) -> np.ndarray:
    """Write a NaN into ``vec`` when this occurrence is scheduled.

    The corruption is in place (the solver owns the freshly-computed array),
    mimicking a factorization gone numerically wrong.
    """
    armed = _armed
    if armed is None:
        return vec
    if site == PIVOT_FTRAN and armed.scheduled(site, armed.plan.corrupt_pivots):
        if vec.size:
            vec[0] = np.nan
    elif site == SPIKE and armed.scheduled(site, armed.plan.corrupt_spikes):
        if vec.size:
            vec[0] = np.nan
    elif site == PRICING and armed.scheduled(site, armed.plan.corrupt_pricing):
        if vec.size:
            vec[0] = np.nan
    return vec


def clock_skew() -> float:
    """Current injected clock offset in seconds (0.0 when nothing is armed).

    Each call counts as one deadline check against
    :attr:`FaultPlan.jump_clock_after`.
    """
    armed = _armed
    if armed is None:
        return 0.0
    return armed.clock_skew()
