"""Benchmark of the in-house placement stack on the paper's own workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pop10-sweep --seed 0 --seconds 50 --trace 0

One process, one caller, no threads: the solves of a workload run back to
back (a closed loop).  A *round* sets the workload up (instance generation
plus session build) and then runs its timed solves, a *pass*, on that
set-up; rounds repeat until ``--seconds`` have passed.  Every timed solve
runs the in-house stack with SciPy masked, and its answer is compared with
HiGHS on the identical inputs after the timed rounds.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics: span times recorded around each layer's public functions
plus the ``repro.optim.instrumentation`` counters, per round.  It also writes
the span and counter totals to ``.perfbench/`` in the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: An untraced round repeats its set-up until the set-ups have taken this
#: long (once at least), so a set-up of milliseconds is sampled hundreds of
#: times a run, spread over the run like the passes; setup_s is their median.
SETUP_SECONDS_PER_ROUND = 0.25

#: Counters that are high-water marks: a pass reports their maximum.
PEAK_COUNTERS = ("peak_nnz", "spike_nnz_peak", "lagrangian_bound_gap")


#: ``timer(kind, fn)`` returns ``fn()`` and the seconds it took.
Timer = Callable[[str, Callable[[], Any]], Tuple[Any, float]]


class IsolationError(RuntimeError):
    """A timed solve did no in-house LP work, so it did not time this repo."""


def _isolate_environment() -> None:
    """Single-threaded numerics and the solver's default code paths.

    Must run before numpy or repro is imported: BLAS reads its thread count,
    and repro its ``REPRO_*`` switches, at import time.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def provenance(workload: str, seed: int) -> Dict[str, Any]:
    """Where and on what code a result was measured."""
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


class DiagnosticsCapture:
    """Counts ``repro.optim.diagnostics`` findings instead of printing them."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, label: str, found: Any) -> None:
        self.count += len(found)

    def __enter__(self) -> "DiagnosticsCapture":
        from repro.optim import diagnostics

        self._previous = diagnostics.set_handler(self)
        return self

    def __exit__(self, *exc: object) -> None:
        from repro.optim import diagnostics

        diagnostics.set_handler(self._previous)


@contextlib.contextmanager
def inhouse_only() -> Iterator[None]:
    """Hide SciPy from the solver stack, so no node LP falls back to HiGHS."""
    from repro.optim import scipy_backend

    available = scipy_backend.is_available
    scipy_backend.is_available = lambda: False
    try:
        yield
    finally:
        scipy_backend.is_available = available


def _identity(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


class PeakMemory:
    """Peak resident memory the process gains from the last :meth:`reset`.

    :meth:`reset` hands the heap that earlier work freed back to the system,
    resets the kernel's high-water mark (Linux 4.0 and later) and reads the
    resident size.  :meth:`peak_mb` is the high-water mark since then less
    that baseline, so neither the interpreter and its imports nor the work
    done before count.
    """

    baseline_kb = 0

    def reset(self) -> None:
        """Start measuring from the resident size now."""
        gc.collect()
        try:
            libc = ctypes.CDLL(None)
            libc.malloc_trim.argtypes = [ctypes.c_size_t]
            libc.malloc_trim.restype = ctypes.c_int
        except AttributeError:  # not glibc: freed heap stays in the baseline
            pass
        else:
            libc.malloc_trim(0)
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
        self.baseline_kb = _status_kb("VmRSS")

    def peak_mb(self) -> float:
        """Megabytes by which the high-water mark exceeds the baseline."""
        return (_status_kb("VmHWM") - self.baseline_kb) / 1024.0


@dataclass
class Solve:
    """One timed solve: its latency, answer, counters and warnings."""

    seconds: float
    answer: Any
    counters: Dict[str, int]
    warnings: int


def _plain_timer(kind: str, fn: Callable[[], Any]) -> Tuple[Any, float]:
    from workloads import timed

    return timed(fn)


def run_pass(
    workload: Any,
    state: Any,
    wrap: Any,
    capture: DiagnosticsCapture,
    keep_counters: bool = True,
    timer: Timer = _plain_timer,
) -> List[Solve]:
    """Run one pass of timed solves on ``state``.

    Without ``keep_counters`` the solves keep no counter snapshot: an
    untraced run reports none, and keeping them would grow the peak memory
    it measures by about half a megabyte per ``pop10-drift`` round.
    """
    from repro.optim import instrumentation as instr
    from workloads import Answer

    def guarded(call: Callable[[], Any]) -> Any:
        try:
            return call()
        except Exception as exc:  # a solve that raises is a failed solve, not a crash
            return Answer("error", detail=f"{type(exc).__name__}: {exc}")

    solves = []
    for call in workload.solves(state, wrap):
        instr.reset()
        warnings = capture.count
        with inhouse_only():
            answer, seconds = timer("solve", lambda: guarded(call))
        counters = instr.snapshot()
        if counters["lp_solves"] == 0:
            raise IsolationError(
                f"{workload.name}: a timed solve made no in-house LP solve "
                f"(answer {answer}); it was not served by this repository's simplex"
            )
        kept = counters if keep_counters else {}
        solves.append(Solve(seconds, answer, kept, capture.count - warnings))
    return solves


def set_up(
    workload: Any, seed: int, wrap: Any, min_seconds: float, timer: Timer = _plain_timer
) -> Tuple[Any, List[float]]:
    """Set the workload up once, and again until ``min_seconds`` of set-ups.

    Returns the last set-up's state and the time of every set-up.
    """
    state, times = None, []
    while not times or sum(times) < min_seconds:
        state = None  # the previous set-up's session goes before the next is built
        gc.collect()  # and its garbage is not this set-up's cost
        state, seconds = timer(
            "setup", lambda: workload.build(workload.generate(seed, wrap), wrap)
        )
        times.append(seconds)
    return state, times


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run workload ``name`` and return its metrics, answers and counts."""
    from calibration import Calibration
    from tracing import Tracer
    from workloads import WORKLOADS, mismatch

    workload = WORKLOADS[name]()
    untraced: List[List[Solve]] = []
    traced: List[List[Solve]] = []
    setups: List[float] = []
    tracer = Tracer() if trace else None
    with DiagnosticsCapture() as capture:
        workload.prepare(seed)
        calibration = Calibration()
        memory = PeakMemory()
        memory.reset()
        start = time.perf_counter()
        with calibration:
            while True:
                state = None
                state, times = set_up(
                    workload, seed, _identity, SETUP_SECONDS_PER_ROUND, calibration.time
                )
                setups.extend(times)
                gc.collect()
                untraced.append(
                    run_pass(
                        workload, state, _identity, capture, keep_counters=False, timer=calibration.time
                    )
                )
                if tracer is not None:
                    # Traced rounds alternate with untraced ones, so the tracing
                    # overhead is measured against rounds run at the same time.
                    # A traced round sets up once: its spans are per set-up.
                    state = None
                    with tracer:
                        state, _ = set_up(workload, seed, tracer.wrap, 0.0)
                        gc.collect()
                        traced.append(run_pass(workload, state, tracer.wrap, capture))
                if time.perf_counter() - start >= seconds:
                    break
        peak_rss_mb = memory.peak_mb()
        # Every round generated the same instance from the seed, so one
        # set of HiGHS answers checks them all.
        references, highs_s = workload.references(state)

    failures: List[str] = []
    for solves in untraced + traced:
        for solve, reference in zip(solves, references, strict=True):
            why = mismatch(solve.answer, reference)
            if why is not None:
                failures.append(why)
    wall = [sum(s.seconds for s in solves) for solves in untraced]
    latencies = [s.seconds for solves in untraced for s in solves]
    return {
        "setups": setups,
        "untraced": untraced,
        "traced": traced,
        "tracer": tracer,
        "references": references,
        "highs_s": highs_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_factor": calibration.factor("setup"),
        "pass_factor": calibration.factor("solve"),
        "wall": wall,
        "latencies": latencies,
        "failures": failures,
        "attempted": len(latencies) + sum(len(s) for s in traced),
    }


def end_to_end_metrics(run: Dict[str, Any]) -> Dict[str, float]:
    """The user-visible metrics of an untraced run; times in reference seconds."""
    return {
        # The mean pass, i.e. the timed solves' total wall time over the
        # passes: on a host whose speed switches between two levels for
        # seconds at a time, it spread less between runs than the median.
        "wall_s": statistics.fmean(run["wall"]) * run["pass_factor"],
        "setup_s": statistics.median(run["setups"]) * run["setup_factor"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(run: Dict[str, Any]) -> Dict[str, float]:
    """Per-round layer times and counters of the traced rounds."""
    traced: List[List[Solve]] = run["traced"]
    passes = len(traced)
    c: Dict[str, float] = {}
    for solves in traced:
        for solve in solves:
            for key, value in solve.counters.items():
                if key in PEAK_COUNTERS:
                    c[key] = max(c.get(key, 0), value)
                else:
                    c[key] = c.get(key, 0) + value
    for key in c:
        if key not in PEAK_COUNTERS:
            c[key] /= passes
    tracer = run["tracer"]

    def total(name: str) -> float:
        return tracer.span(name).total_s / passes

    def self_s(name: str) -> float:
        return tracer.span(name).self_s / passes

    def calls(name: str) -> float:
        return tracer.span(name).calls / passes

    untraced_wall = statistics.fmean(run["wall"])
    traced_wall = statistics.fmean(sum(s.seconds for s in solves) for solves in traced)
    return {
        "topology.generate_s": total("topology.generate"),
        "traffic.generate_s": total("traffic.generate"),
        "passive.session_build_s": total("passive.session_build"),
        "passive.self_s": self_s("passive"),
        "model.lower_s": total("model.lower"),
        "model.lowerings": calls("model.lower"),
        "backend.session_solve_self_s": self_s("backend.session_solve"),
        "backend.patch_s": total("backend.patch"),
        "backend.patch_calls": calls("backend.patch"),
        "presolve.s": total("presolve"),
        "presolve.calls": calls("presolve"),
        "presolve.rows_removed": c["presolve_rows_removed"],
        "presolve.cols_fixed": c["presolve_cols_fixed"],
        "simplex.self_s": self_s("simplex"),
        "simplex.lp_solves": c["lp_solves"],
        "simplex.canonicalizations": c["canonicalizations"],
        "simplex.canon_per_solve": _ratio(c["canonicalizations"], c["lp_solves"]),
        "simplex.pivots": c["pivots"],
        "simplex.dual_pivots": c["dual_pivots"],
        "simplex.degenerate_share": _ratio(c["degenerate_pivots"], c["pivots"]),
        "simplex.bound_flips": c["bound_flips"],
        "simplex.factorizations": c["factorizations"],
        "simplex.ft_updates": c["ft_updates"],
        "simplex.pricing_passes": c["pricing_passes"],
        "simplex.partial_scan_cols": c["partial_scan_cols"],
        "simplex.warm_repair_stalls": c["warm_repair_stalls"],
        "simplex.peak_nnz": c["peak_nnz"],
        "cuts.separate_s": total("cuts"),
        "cuts.added": c["cuts_added"],
        "cuts.rc_fixings": c["rc_fixings"],
        "bb.self_s": self_s("bb"),
        "bb.nodes": c["bb_nodes"],
        "bb.strong_branch_probes": c["strong_branch_probes"],
        "bb.lp_per_node": _ratio(c["lp_solves"], c["bb_nodes"]),
        "colgen.self_s": self_s("colgen"),
        "colgen.rounds": c["colgen_rounds"],
        "colgen.master_resolves": c["master_resolves"],
        "colgen.columns_priced": c["columns_priced"],
        "colgen.columns_added": c["columns_added"],
        "colgen.admit_ratio": _ratio(c["columns_added"], c["columns_priced"]),
        "colgen.rows_activated": c["colgen_rows_activated"],
        "sparse.rmatvec_range_calls": calls("sparse.rmatvec_range"),
        "sparse.rmatvec_range_s": total("sparse.rmatvec_range"),
        "resilience.rungs": sum(v for k, v in c.items() if k.startswith("recovery_")),
        "resilience.deadline_expiries": c["deadline_expiries"],
        "diagnostics.warnings": sum(s.warnings for solves in traced for s in solves) / passes,
        "yardstick.highs_s": run["highs_s"],
        "yardstick.inhouse_over_highs": _ratio(untraced_wall, run["highs_s"]),
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def _declared(kind: str) -> List[Dict[str, Any]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return list(spec[kind])


def _select(values: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _isolate_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(WORKLOADS)}")
    origin = provenance(args.workload, args.seed)
    print("perfbench provenance " + json.dumps(origin), flush=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except IsolationError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    failed = len(run["failures"])
    for why in run["failures"][:10]:
        print(f"perfbench mismatch: {why}")
    latencies = run["latencies"]
    print(
        f"perfbench {args.workload}: {run['attempted']} solves in {len(run['untraced'])} "
        f"untraced and {len(run['traced'])} traced rounds, {len(run['setups'])} set-ups"
    )
    # Printed, not gated: see "Metrics" in perfbench/README.md.
    ungated = {
        "fail_frac": (failed / run["attempted"], "ratio"),
        "wall_measured_s": (statistics.fmean(run["wall"]), "s"),
        "setup_measured_s": (statistics.median(run["setups"]), "s"),
        "pass_factor": (run["pass_factor"], "ratio"),
        "setup_factor": (run["setup_factor"], "ratio"),
        "solve_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
    }
    if len(latencies) >= 100:
        ungated["solve_ms_p90"] = (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms")
    for name, (value, unit) in ungated.items():
        print(f"perfbench {args.workload} {name} {value:.6g} {unit} (not gated)")

    if args.trace:
        values = per_layer_metrics(run)
        metrics = _select(values, _declared("per_layer"))
        tracer = run["tracer"]
        passes = len(run["traced"])
        ranked = sorted(tracer.stats.items(), key=lambda item: -item[1].self_s)
        traced_wall = statistics.fmean(sum(s.seconds for s in solves) for solves in run["traced"])
        print(
            f"perfbench self time per traced round (its pass {traced_wall:.3f} s): "
            + ", ".join(f"{n} {stats.self_s / passes:.3f} s" for n, stats in ranked[:6])
        )
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(
            json.dumps(
                {
                    "provenance": origin,
                    "passes": passes,
                    "spans": {
                        n: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                        for n, s in sorted(tracer.stats.items())
                    },
                    "counters_per_solve": [s.counters for s in run["traced"][0]],
                    "metrics": metrics,
                },
                indent=1,
            )
            + "\n"
        )
    else:
        metrics = _select(end_to_end_metrics(run), _declared("end_to_end"))
    for name, metric in metrics.items():
        print(f"perfbench {args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": run["attempted"], "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
