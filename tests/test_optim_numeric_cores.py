"""The solver and fault-injection suites on the dense-LU numeric cores.

``tests/test_optim_solvers.py`` and ``tests/test_optim_resilience.py`` run on
the default numeric core (the SuperLU factor when SciPy is importable).  This
module collects their test classes again under the ``numeric_core`` fixture
(``tests/conftest.py``), once on the dense LAPACK inverse -- the factor the
numpy-only platform uses -- and once more with the large-LP size rules
forced on it (devex pricing, and dual pivot rows built from rho's nonzero
rows where those hold at most a tenth of the stored entries), so every answer
and every recovery rung is proven on each factor path and on both pricing
rules.
"""

import pytest

from tests.test_optim_resilience import (  # noqa: F401 - collected again here
    TestBackendFailover,
    TestDeadline,
    TestDeadlinePropagation,
    TestFaultHarness,
    TestGreedyDegradation,
    TestRecoveryLadder,
    TestScipyStatusMapping,
    _clean_counters,
)
from tests.test_optim_solvers import (  # noqa: F401 - collected again here
    TestBackendRegistry,
    TestLinearPrograms,
    TestMilpStatusEdges,
    TestMixedIntegerPrograms,
    TestOptionPlumbing,
    TestSessionAfterFailedSolves,
    TestSolverSession,
    TestStandardFormSolvers,
)

pytestmark = pytest.mark.usefixtures("numeric_core")
