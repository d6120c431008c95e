"""The :class:`Instance` type — an immutable ``P || Cmax`` problem instance.

An instance of the minimum-makespan scheduling problem on parallel
identical machines is fully described by

* the multiset of job processing times ``t_1, ..., t_n`` (positive
  integers, as assumed by the Hochbaum–Shmoys PTAS), and
* the number of identical machines ``m``.

The class performs eager validation and exposes the handful of aggregate
statistics (total work, longest job) that every algorithm in the library
needs, so they are computed exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


def _as_int(value: object, what: str) -> int:
    """Coerce *value* to a plain ``int``, rejecting non-integral input.

    Numpy integer scalars are accepted (they are ``Integral``), floats are
    accepted only when they are exactly integral (e.g. ``3.0``), everything
    else raises ``TypeError``.
    """
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got bool {value!r}")
    if isinstance(value, int):
        return value
    # Accept numpy integers and integral floats without importing numpy.
    try:
        as_int = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{what} must be an integer, got {value!r}") from exc
    if isinstance(value, float) and not value.is_integer():
        raise TypeError(f"{what} must be an integer, got float {value!r}")
    if not isinstance(value, float) and as_int != value:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return as_int


def time_order(times: Sequence[int], *, descending: bool = False) -> list[int]:
    """Indices of *times* sorted by time, ties broken by ascending index.

    The one job order of the library: descending for LPT, MULTIFIT's FFD
    and the PTAS short-job phase; ascending for the canonical
    coordinates that the result cache keys and the served ``ptas`` solve
    in, which must agree on every tie for twins to share an answer.
    """
    if descending:
        return sorted(range(len(times)), key=lambda j: (-times[j], j))
    return sorted(range(len(times)), key=lambda j: (times[j], j))


@dataclass(frozen=True)
class Instance:
    """An immutable ``P || Cmax`` problem instance.

    Parameters
    ----------
    processing_times:
        Sequence of positive integer processing times, one per job.  Job
        ``j`` (0-based) has processing time ``processing_times[j]``.
    num_machines:
        Number of identical parallel machines ``m >= 1``.

    Examples
    --------
    >>> inst = Instance([7, 3, 5, 5], num_machines=2)
    >>> inst.num_jobs
    4
    >>> inst.total_work
    20
    >>> inst.max_time
    7
    """

    processing_times: tuple[int, ...]
    num_machines: int
    # Cached aggregates, filled in __post_init__.
    total_work: int = field(init=False, repr=False, compare=False)
    max_time: int = field(init=False, repr=False, compare=False)

    def __init__(self, processing_times: Iterable[int], num_machines: int):
        times = tuple(_as_int(t, "processing time") for t in processing_times)
        if not times:
            raise ValueError("an instance must contain at least one job")
        for t in times:
            if t <= 0:
                raise ValueError(f"processing times must be positive, got {t}")
        m = _as_int(num_machines, "num_machines")
        if m < 1:
            raise ValueError(f"num_machines must be >= 1, got {m}")
        object.__setattr__(self, "processing_times", times)
        object.__setattr__(self, "num_machines", m)
        object.__setattr__(self, "total_work", sum(times))
        object.__setattr__(self, "max_time", max(times))

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """Number of jobs ``n``."""
        return len(self.processing_times)

    @property
    def average_load(self) -> float:
        """Total work divided by the number of machines (fractional)."""
        return self.total_work / self.num_machines

    def trivial_lower_bound(self) -> int:
        """Eq. (1) of the paper: ``max(ceil(sum t / m), max t)``.

        Every schedule has makespan at least the average machine load
        (rounded up, since times are integral) and at least the longest
        single job.
        """
        return max(math.ceil(self.total_work / self.num_machines), self.max_time)

    def trivial_upper_bound(self) -> int:
        """Eq. (2) of the paper: ``ceil(sum t / m) + max t``.

        List scheduling never exceeds this value (Graham's bound), so the
        optimum is certainly below it.
        """
        return math.ceil(self.total_work / self.num_machines) + self.max_time

    # ------------------------------------------------------------------
    # Convenience constructors / transforms
    # ------------------------------------------------------------------
    @classmethod
    def from_multiset(
        cls, size_counts: dict[int, int] | Sequence[tuple[int, int]], num_machines: int
    ) -> "Instance":
        """Build an instance from ``{processing_time: count}`` pairs.

        >>> Instance.from_multiset({5: 2, 9: 1}, num_machines=2).processing_times
        (5, 5, 9)
        """
        items = size_counts.items() if isinstance(size_counts, dict) else size_counts
        times: list[int] = []
        for size, count in sorted(items):
            c = _as_int(count, "count")
            if c < 0:
                raise ValueError(f"counts must be non-negative, got {c}")
            times.extend([_as_int(size, "processing time")] * c)
        return cls(times, num_machines)

    def with_machines(self, num_machines: int) -> "Instance":
        """Return a copy of this instance with a different machine count."""
        return Instance(self.processing_times, num_machines)

    def sorted_jobs_desc(self) -> list[int]:
        """Job indices sorted by non-increasing processing time.

        Ties are broken by ascending index, which keeps every consumer of
        this order (LPT, MULTIFIT, the PTAS short-job phase) deterministic.
        """
        return time_order(self.processing_times, descending=True)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instance(n={self.num_jobs}, m={self.num_machines}, "
            f"total={self.total_work}, max={self.max_time})"
        )
