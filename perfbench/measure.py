"""Timing statistics, the calibration loop, the speed probe, memory and
set-up probes."""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import time
from typing import List, Optional, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; with fewer, one slow job decides the figure.
MIN_TAIL = 10

#: Cold set-ups measured per run; ``setup_s`` is their median.
SETUP_PROBES = 3

SETUP_READY = "perfbench-setup-ready"

#: Iterations of one speed probe: a short run of the calibration loop.
PROBE_LOOP = 100_000

#: Milliseconds one speed probe takes on the reference machine.  The
#: end-to-end times are reported for that machine: a time measured
#: while probes took ``p`` ms is scaled by ``REFERENCE_PROBE_MS / p``.
REFERENCE_PROBE_MS = 10.0

#: Seconds of in-process jobs between two speed probes.
PROBE_INTERVAL = 0.25

#: Speed probes taken right before and right after a timed stretch.
EDGE_PROBES = 3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, refused when its tail is too thin.

    Raises ValueError unless at least :data:`MIN_TAIL` samples lie
    strictly beyond the reported rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL}"
        )
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``ys`` against ``xs``."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("slope needs at least two distinct x values")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _loop_ms(iterations: int) -> float:
    """Wall time of a fixed pure-Python loop, in milliseconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1000.0


def calibration_ms() -> float:
    """Wall time of the calibration loop, in milliseconds.

    Reported before and after the workloads so that a reader can tell a
    slower machine from a slower program; never used to normalise.
    """
    return _loop_ms(1_500_000)


class SpeedProbe:
    """Samples how fast the machine runs while a stretch of jobs runs.

    On a shared host, other tenants' load makes the same pure-Python
    work take up to twice as long from one minute to the next.  A probe
    is a short fixed loop, timed between jobs (never inside one); the
    median of the samples around a stretch of jobs says how fast the
    machine ran meanwhile, and :meth:`factor` scales that stretch's
    times to the reference machine.  Program code never runs inside a
    probe, so a slower program still reads slower.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall seconds spent probing, to take out of a timed stretch.
        self.seconds = 0.0
        self._last: Optional[float] = None

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(count):
            self.samples.append(_loop_ms(PROBE_LOOP))
        self._last = time.perf_counter()
        self.seconds += self._last - start

    def between_jobs(self) -> None:
        """Sample if :data:`PROBE_INTERVAL` has passed since the last one."""
        if self._last is None or time.perf_counter() - self._last >= PROBE_INTERVAL:
            self.sample()

    def factor(self) -> float:
        """Reference seconds per measured second over the samples so far."""
        return REFERENCE_PROBE_MS / median(self.samples)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probe_seconds(script: str, workload: str, seed: int) -> float:
    """Process start to ready-to-run, in a fresh interpreter.

    The child imports the program, performs the workload's set-up,
    prints :data:`SETUP_READY` with the seconds its reference runs took,
    and exits; the time is taken here, from just before the child is
    spawned to the moment that line arrives, less those seconds, and
    scaled to the reference machine by speed probes taken just before
    and just after.
    """
    cmd = [
        sys.executable, script, "--workload", workload,
        "--seed", str(seed), "--setup-probe",
    ]
    probe = SpeedProbe()
    probe.sample(EDGE_PROBES)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=os.getcwd()
    )
    ready = None
    try:
        for line in proc.stdout:
            marker, _, excluded = line.partition(" ")
            if marker == SETUP_READY:
                ready = time.perf_counter() - start - float(excluded)
                break
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if ready is None or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    probe.sample(EDGE_PROBES)
    return ready * probe.factor()


def setup_probes(script: str, workload: str, seed: int) -> List[float]:
    return [
        setup_probe_seconds(script, workload, seed)
        for _ in range(SETUP_PROBES)
    ]
