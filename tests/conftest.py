"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.optim import simplex
from repro.topology import paper_pop
from repro.traffic import TrafficMatrix, Traffic, generate_traffic_matrix
from repro.traffic.demands import Route


#: Numeric cores of the in-house simplex besides the default SuperLU factor
#: (which every unpatched test runs on when SciPy is importable), as
#: patches of its module state: the dense LAPACK inverse (the numpy-only
#: platform's factor), alone and with the size rules of _DEVEX_MIN_COLS
#: switched on at every size (the primal loop prices by devex, and the dual
#: loop builds sparse-enough pivot rows from rho's nonzero rows).
NUMERIC_CORES = {
    "dense-lu": {"_HAVE_SPLU": False},
    "dense-lu+devex": {"_HAVE_SPLU": False, "_DEVEX_MIN_COLS": 0},
}


@pytest.fixture(params=list(NUMERIC_CORES))
def numeric_core(request, monkeypatch):
    """Run the requesting test once per non-default numeric core."""
    for name, value in NUMERIC_CORES[request.param].items():
        monkeypatch.setattr(simplex, name, value)
    return request.param


@pytest.fixture(scope="session")
def small_pop():
    """A deterministic 10-router POP shared across tests."""
    return paper_pop("pop10", seed=7)


@pytest.fixture(scope="session")
def small_traffic(small_pop):
    """A deterministic traffic matrix routed on :func:`small_pop`."""
    return generate_traffic_matrix(small_pop, seed=7)


@pytest.fixture()
def figure3_matrix() -> TrafficMatrix:
    """The Figure 3 worked example: greedy needs 3 devices, optimum needs 2."""
    return TrafficMatrix(
        [
            Traffic.single_path("t1", ["u3", "u1", "u2"], 2.0),
            Traffic.single_path("t2", ["u1", "u2", "u4"], 2.0),
            Traffic.single_path("t3", ["u5", "u3", "u1"], 1.0),
            Traffic.single_path("t4", ["u2", "u4", "u6"], 1.0),
        ]
    )


@pytest.fixture()
def multipath_matrix() -> TrafficMatrix:
    """A small multi-routed matrix for the PPME (Section 5) tests."""
    return TrafficMatrix(
        [
            Traffic(
                traffic_id="m1",
                routes=[
                    Route(("a", "b", "c"), 3.0),
                    Route(("a", "d", "c"), 1.0),
                ],
            ),
            Traffic.single_path("m2", ["b", "c", "e"], 2.0),
            Traffic.single_path("m3", ["a", "d"], 4.0),
        ]
    )
