"""MULTIFIT (Coffman, Garey & Johnson 1978) — bin-packing based baseline.

MULTIFIT searches for the smallest machine *capacity* ``C`` such that
first-fit-decreasing (FFD) bin packing places all jobs into at most ``m``
bins of capacity ``C``.  The capacity is bisected for a fixed number of
iterations ``k`` starting from Graham-style bounds; the classical
analysis gives a worst-case ratio of ``1.22 + 2^-k`` (later sharpened to
13/11).  The paper's related-work section describes MULTIFIT as the
technique the Hochbaum–Shmoys PTAS generalizes, so it is included both as
a baseline and as a didactic stepping stone.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.model.instance import Instance, time_order
from repro.model.schedule import Schedule


def ffd_pack(
    sizes: Sequence[int],
    capacity: int,
    num_bins: int,
    max_items: int | None = None,
) -> list[list[int]] | None:
    """First-fit-decreasing bin packing of all items into at most
    ``num_bins`` bins of size ``capacity``.

    Items go in non-increasing size (ties by index), each into the first
    bin with room for it and, when ``max_items`` is given, fewer than
    ``max_items`` items already.  Returns the bins (lists of item
    indices) or ``None`` when more than ``num_bins`` bins would be
    needed.  An item larger than the capacity makes the packing fail
    immediately.
    """
    bins: list[list[int]] = []
    space: list[int] = []
    cap = len(sizes) if max_items is None else max_items
    for j in time_order(sizes, descending=True):
        size = sizes[j]
        if size > capacity:
            return None
        for b in range(len(bins)):
            if space[b] >= size and len(bins[b]) < cap:
                bins[b].append(j)
                space[b] -= size
                break
        else:
            if len(bins) == num_bins:
                return None
            bins.append([j])
            space.append(capacity - size)
    return bins


def multifit(instance: Instance, iterations: int = 10) -> Schedule:
    """Binary search on the FFD capacity for ``iterations`` rounds.

    The initial interval is ``[CL, CU]`` with
    ``CL = max(avg load, max t)`` and ``CU = max(2 * avg load, max t)``
    (Coffman et al.'s bounds: FFD at capacity ``CU`` always succeeds).

    >>> inst = Instance([2, 3, 4, 6], num_machines=2)
    >>> multifit(inst).makespan
    8
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    times, m = instance.processing_times, instance.num_machines
    avg = instance.total_work / m
    cl = max(math.ceil(avg), instance.max_time)
    cu = max(math.ceil(2 * avg), instance.max_time)
    best = ffd_pack(times, cu, m)
    assert best is not None, "FFD must succeed at the upper capacity bound"
    best_capacity = cu
    for _ in range(iterations):
        if cl >= cu:
            break
        c = (cl + cu) // 2
        packed = ffd_pack(times, c, m)
        if packed is not None:
            best, best_capacity = packed, c
            cu = c
        else:
            cl = c + 1
    groups = best + [[] for _ in range(instance.num_machines - len(best))]
    schedule = Schedule(instance, groups)
    assert schedule.makespan <= best_capacity
    return schedule


def multifit_worst_case_ratio(iterations: int) -> float:
    """The classical guarantee ``1.22 + 2^-k`` after ``k`` iterations."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    return 1.22 + 2.0 ** (-iterations)
