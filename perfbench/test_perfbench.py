"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest perfbench`` from the repository root; the tier-1
suite does not collect this directory.  Run as a script, the module prints
the counters and answers of one workload slice (used by the determinism
test)::

    python3 perfbench/test_perfbench.py pop10-sweep
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

# Only the standard library is imported here: run as a script, the module
# must isolate the environment before numpy and repro are imported.
import run  # noqa: E402

#: A short slice of each workload: Figure 7 at k=0.85 (1,766 nodes), the
#: first 20 drift steps, the whole isp-lp2 solve.
SLICES = {
    "pop10-sweep": lambda state: {**state, "coverages": [0.85]},
    "pop10-drift": lambda state: {**state, "traffic": state["traffic"][:20]},
    "isp-lp2": lambda state: state,
}


def slice_result(name: str) -> Dict[str, Any]:
    """Counters and answers of one workload slice, with its HiGHS check."""
    from workloads import WORKLOADS, mismatch

    workload = WORKLOADS[name]()
    with run.DiagnosticsCapture() as capture:
        workload.prepare(0)
        instance = workload.generate(0, run._identity)
        state = SLICES[name](workload.build(instance, run._identity))
        solves = run.run_pass(workload, state, run._identity, capture)
        references, _ = workload.references(state)
    return {
        "counters": [s.counters for s in solves],
        "answers": [[s.answer.status, s.answer.objective] for s in solves],
        "mismatches": [mismatch(s.answer, r) for s, r in zip(solves, references)],
    }


@pytest.mark.parametrize("name", sorted(SLICES))
def test_counters_identical_across_hash_seeds(name: str) -> None:
    """Deterministic counters repeat exactly under another PYTHONHASHSEED."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__)), name],
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
            stdout=subprocess.PIPE,
            text=True,
        )
        for hash_seed in (0, 12345)
    ]
    results: List[Dict[str, Any]] = []
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        results.append(json.loads(out.strip().splitlines()[-1]))
    first, second = results
    assert first["mismatches"] == [None] * len(first["answers"])
    assert first["answers"] == second["answers"]
    assert first["counters"] == second["counters"]
    assert all(c["lp_solves"] > 0 for c in first["counters"])


def test_isolation_guard_rejects_solves_without_inhouse_lp() -> None:
    """A timed call that never reaches the in-house simplex aborts the run."""
    from workloads import Answer

    class NoLp:
        name = "no-lp"

        def solves(self, state: Any, wrap: Any) -> Any:
            yield lambda: Answer("optimal", 1.0)

    with run.DiagnosticsCapture() as capture, pytest.raises(run.IsolationError):
        run.run_pass(NoLp(), None, run._identity, capture)


def test_calibration_samples_only_timed_segments() -> None:
    """Samples fall inside timed segments, are taken off their time, and the
    previous SIGALRM handler comes back."""
    from calibration import PERIOD_S, Calibration

    def busy() -> None:
        end = time.perf_counter() + 10 * PERIOD_S
        while time.perf_counter() < end:
            pass

    previous = signal.getsignal(signal.SIGALRM)
    calibration = Calibration(warm_up=1)
    with calibration:
        busy()
        assert calibration.chunks == {}
        _, seconds = calibration.time("solve", busy)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert calibration.chunks["solve"] >= 5
    assert seconds < 10 * PERIOD_S <= seconds + calibration.seconds["solve"]
    assert calibration.factor("solve") > 0


def test_diagnostics_are_counted_and_the_handler_restored() -> None:
    from repro.optim import diagnostics
    from repro.optim.analysis import WARNING, Diagnostic

    seen: List[str] = []
    previous = diagnostics.set_handler(lambda label, found: seen.append(label))
    try:
        with run.DiagnosticsCapture() as capture:
            diagnostics.report([Diagnostic(severity=WARNING, rule="r", message="m")], label="x")
        assert capture.count == 1 and seen == []
        diagnostics.report([Diagnostic(severity=WARNING, rule="r", message="m")], label="y")
        assert seen == ["y"]
    finally:
        diagnostics.set_handler(previous)


def test_mismatch_rules() -> None:
    from workloads import Answer, mismatch

    optimal = Answer("optimal", 10.0)
    assert mismatch(Answer("optimal", 10.0 + 5e-6), optimal) is None
    assert mismatch(Answer("optimal", 10.1), optimal) is not None
    assert mismatch(Answer("time_limit"), optimal) is not None
    assert mismatch(Answer("infeasible"), Answer("infeasible")) is None
    assert mismatch(Answer("optimal", 1.0), Answer("infeasible")) is not None


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_declared_metric(trace: int, kind: str) -> None:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pop10-drift", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert list(result["metrics"]) == [m["name"] for m in declared]


def test_fails_without_the_program(tmp_path: Path) -> None:
    """With only BENCHMARK.json and the benchmark's files it exits non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pop10-drift", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    run._isolate_environment()
    print(json.dumps(slice_result(sys.argv[1])))
