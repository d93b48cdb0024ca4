"""Pure helpers of the benchmark: percentiles, span self time, spreads, host calibration.

Nothing here touches the program under test, so every function is
covered by ``perfbench/test_perfbench.py`` without running a workload.
"""

from __future__ import annotations

import math
import re
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Grammar every metric name printed by the benchmark must match.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ``ValueError`` if it breaks the grammar."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} does not match [A-Za-z0-9_.-]+")
    return name


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, always carried with its sample count."""

    q: float
    value: float
    count: int


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile (0–100, linear interpolation) with its count.

    An empty sample gives ``value=0.0`` and ``count=0`` so a caller can
    report "no samples" without a special case.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(float(value) for value in samples)
    if not ordered:
        return Percentile(q, 0.0, 0)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    value = ordered[low] + (ordered[high] - ordered[low]) * fraction
    return Percentile(q, value, len(ordered))


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), as
    the acceptance check does.  Zero when the median is zero.
    """
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return 0.0 if middle == 0 else (third - first) / abs(middle)


class Calibrator:
    """A fixed piece of work, independent of the program, timed between passes.

    The benchmark host shares its cores and memory bandwidth with other
    machines, and their load moves this process's speed by up to 1.8x
    for tens of seconds at a time.  Timing this kernel right before and
    after each pass measures the host's speed at that moment; dividing
    by it turns a measured time into *reference seconds*, the time the
    same work takes when the kernel runs in :attr:`NOMINAL_S`.  The mix
    — dictionary updates, many small array calls and a streaming pass
    over 32 MB — follows what the program spends its time on.  Because
    the kernel runs no program code, a slower program still reads
    slower.
    """

    #: Kernel time on an uncontended host of the kind the benchmark was
    #: tuned on (2 vCPUs, x86_64); the scale of a reference second.
    NOMINAL_S = 0.040

    def __init__(self) -> None:
        self._big = np.random.default_rng(0).random(4_000_000)
        self._small = [np.random.default_rng(i).random(64) for i in range(64)]

    def time(self) -> float:
        """Seconds one run of the kernel takes right now."""
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for index in range(60_000):
            key = index % 997
            counts[key] = counts.get(key, 0) + index
        total = 0.0
        for _ in range(30):
            for array in self._small:
                total += float(np.sort(array)[32] + array.mean())
        for _ in range(3):
            total += float(self._big.sum())
            np.cumsum(self._big[:1_000_000])
        return time.perf_counter() - started

    def scale(self, seconds: float, kernel_seconds: float) -> float:
        """``seconds`` measured while the kernel took ``kernel_seconds``, in reference seconds."""
        return seconds * self.NOMINAL_S / kernel_seconds


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span, or -1."""

    name: str
    start: float
    end: float
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self time per span name: duration minus what its children cover.

    Children are clipped to their parent's interval and their union is
    subtracted, so children that overlap each other (spans recorded from
    several threads) are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
        ]
        own = span.duration - covered_length(clipped)
        totals[span.name] = totals.get(span.name, 0.0) + max(own, 0.0)
    return totals


def root_coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the union of the root spans."""
    if end <= start:
        return 0.0
    roots = [
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.parent < 0
    ]
    return covered_length(roots) / (end - start)
