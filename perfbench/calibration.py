"""The host's speed, sampled by a fixed kernel while the timed code runs.

On a shared VM the same pass can take 1.8 s in one minute and 3.0 s in the
next, with identical pivot counts, and the speed also moves within a second.
A fixed calibration kernel is slowed by the same neighbours: it mixes
interpreter work (dict and integer updates) with short numpy vector
operations, the two kinds of work the solver stack does.

Inside ``with Calibration() as calibration:`` an interval timer fires every
:data:`PERIOD_S` of wall time.  When it fires during a segment timed by
:meth:`Calibration.time`, the signal handler runs one chunk of the kernel, so
the host is sampled during the very seconds being measured, in proportion to
them; a segment shorter than the period is sampled with that probability.
The segment's time is reported without the chunks' time.  Segments are timed
under a *kind* (set-ups, solves), and :meth:`Calibration.factor` converts the
measured seconds of a kind into *reference seconds*: the seconds the same
work takes on a host where one chunk takes :data:`REFERENCE_CHUNK_S`.

The kernel is the benchmark's own code, so a change to the program moves the
timed segments and not the calibration.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Wall time between two samples while a segment runs.
PERIOD_S = 0.025

#: Seconds one chunk takes on the reference host, a 2-vCPU x86 VM at its
#: faster speed; it only scales the reported values.
REFERENCE_CHUNK_S = 0.0022

#: Loop sizes of one chunk: about 1.1 ms of each kind of work on that host.
_PY_STEPS = 12_000
_NP_STEPS = 300
_NP_WIDTH = 256


class Calibration:
    """Chunks of the kernel run during timed segments, and their times."""

    def __init__(self, warm_up: int = 20) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.random((64, _NP_WIDTH))
        self._x = np.ones(_NP_WIDTH)
        self.chunks: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self._timing: Optional[str] = None
        self._previous: Any = None
        for _ in range(warm_up):
            self._chunk()

    def _chunk(self) -> float:
        start = time.perf_counter()
        table: dict = {}
        for i in range(_PY_STEPS):
            key = i & 511
            table[key] = table.get(key, 0) + i
        x = self._x
        for i in range(_NP_STEPS):
            x = self._rows[i & 63] * x + 1.0
            x *= 1.0 / (x.max() + 1.0)
        self._x = x
        return time.perf_counter() - start

    def _sample(self, signum: int, frame: Any) -> None:
        kind = self._timing
        if kind is None:
            return
        self._timing = None  # a late signal must not nest a chunk in this one
        try:
            self.seconds[kind] = self.seconds.get(kind, 0.0) + self._chunk()
            self.chunks[kind] = self.chunks.get(kind, 0) + 1
        finally:
            self._timing = kind

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, kind: str, fn: Callable[[], T]) -> Tuple[T, float]:
        """``fn()`` and its seconds, less the samples taken while it ran."""
        sampled = self.seconds.get(kind, 0.0)
        self._timing = kind
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            self._timing = None
            elapsed = time.perf_counter() - start
        return out, elapsed - (self.seconds.get(kind, 0.0) - sampled)

    def factor(self, kind: str) -> float:
        """Reference seconds per measured second of ``kind``, over its samples."""
        return REFERENCE_CHUNK_S / (self.seconds[kind] / self.chunks[kind])
