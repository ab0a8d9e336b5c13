"""Arithmetic the runner reports with: percentiles, time blocks, spread.

Kept free of any ``repro`` import — ``repro.api.middleware.percentile``
included: the benchmark's arithmetic must not move when the program's
metrics code is refactored (ROADMAP item 4 plans to). The span arithmetic
lives beside the tracer in ``spans.py``.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (numpy's default, "type 7")."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def blocks_by_start(offsets: Sequence[float], window: float, blocks: int = 8) -> list[list[int]]:
    """Sample indices per equal slice of the timed window, by start time.

    ``offsets`` are each sample's start measured from the window's start,
    in the unit of ``window``. A sample that starts on the deadline falls
    in the last slice; a slice one long operation spans stays empty.
    """
    slices: list[list[int]] = [[] for _ in range(blocks)]
    for index, offset in enumerate(offsets):
        slices[min(max(int(offset * blocks / window), 0), blocks - 1)].append(index)
    return slices


def quiet_quartile(per_block: Sequence[float | None], better: str) -> float:
    """The quartile of the per-block values on the quiet side.

    The machine this runs on slows for seconds to tens of seconds at a
    time, and only ever slows: interference adds latency, never removes
    it. So each timing is computed per block and the run reports the
    first quartile of the blocks for a lower-is-better metric (the third
    for higher-is-better): a slow phase covering up to ~3/4 of the window
    leaves it alone, while anything the program itself does in every
    block, tail included, stays in.
    """
    present = [value for value in per_block if value is not None]
    return percentile(present, 0.25 if better == "lower" else 0.75)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The same arithmetic the driver applies to ten runs of one workload:
    ``statistics.quantiles(values, n=4)`` gives the quartiles.
    """
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0
