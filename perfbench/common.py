"""Pieces every workload shares: calibrated timing, round outcomes and
the workload API."""

from __future__ import annotations

import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Tuple


#: Iterations of the calibration loop, and the time it takes on the
#: reference host speed all timings are scaled to.
CALIBRATION_LOOPS = 50_000
CALIBRATION_REF_S = 0.005


def calibration_s() -> float:
    """Time one fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class timed:
    """Time a block, scaled to the reference host speed.

    Shared hosts change speed by tens of percent over seconds (CPU time
    moves with wall time, so it is not steal).  Each block is bracketed
    by two calibration loops and ``seconds`` is its wall time times
    ``CALIBRATION_REF_S`` over their mean, which cancels the drift; the
    loops themselves are not part of the block.  ``wall_s`` keeps the
    raw time.
    """

    def __enter__(self) -> "timed":
        self._before = calibration_s()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s = time.perf_counter() - self._start
        host_s = (self._before + calibration_s()) / 2.0
        self.seconds = self.wall_s * CALIBRATION_REF_S / host_s


@dataclass
class RoundOutcome:
    """What one round did, measured and checked.

    ``rate`` is the round's end-to-end throughput; ``op_s`` the timed
    seconds it covers, scaled to the reference speed (see :class:`timed`),
    and ``wall_s`` the same seconds unscaled.  ``counts`` holds values the program itself made
    (no tracer involved) that must repeat exactly when the round is
    replayed at the same seed; ``outputs`` holds result digests that
    must repeat the same way.
    """

    rate: float = 0.0
    op_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    counts: Dict[str, Any] = field(default_factory=dict)
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: Per-part rate samples (one per wave) for workloads with parts.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    faults_fired: int = 0

    def fail(self, what: str, reasons: List[str], ops: int = 1) -> None:
        """Record ``ops`` failed operations and report why on stderr."""
        self.failed += ops
        self.failures.append(what)
        print(f"check failed: {what}: {reasons[0]}"
              + (f" (+{len(reasons) - 1} more)" if len(reasons) > 1
                 else ""), file=sys.stderr)


class Workload:
    """One benchmark workload.

    ``setup(seed)`` builds what every round needs (timed as set-up);
    ``round(state, seed, index, paused)`` runs round ``index`` on
    inputs derived from ``(seed, index)`` and checks its outputs inside
    ``with paused():`` so a tracer does not record the checks.
    """

    name = ""
    #: Per-layer metrics this workload's traced pass must read as 0.
    predicted_zeros: Tuple[str, ...] = ()

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def round(self, state: Any, seed: int, index: int,
              paused: Callable[[], ContextManager[None]]) -> RoundOutcome:
        raise NotImplementedError

    def rate(self, rounds: List[RoundOutcome]) -> float:
        """The run's end-to-end rate: the median round rate."""
        return statistics.median(r.rate for r in rounds)

    def checks(self, seed: int) -> List[str]:
        """Run-level output checks outside any round; failure messages."""
        return []

    def layer_metrics(self, plains: List[RoundOutcome],
                      traced: RoundOutcome) -> Dict[str, float]:
        """Workload-specific per-layer metrics of a trace run, from its
        plain (untraced) passes and its last timed pass."""
        return {}


def geometric_mean(values: List[float]) -> float:
    """Geometric mean; 0 if any value is 0 (a part did no work)."""
    if not values or min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
