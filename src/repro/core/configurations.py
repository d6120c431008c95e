"""Machine-configuration enumeration (Eq. 3).

A *machine configuration* is a vector ``s = (s_1, ..., s_d)`` stating how
many rounded long jobs of each class a single machine executes, subject
to the capacity constraint

    sum_c class_sizes[c] * s[c]  <=  T.

The DP recurrence (Eq. 4) subtracts configurations from the remaining job
vector, so the enumeration is also bounded componentwise by the job
counts ``N`` (a machine cannot run more jobs of a class than exist).

Because every rounded long-job size exceeds roughly ``T/k``, a feasible
configuration contains at most about ``k`` jobs, so the configuration set
is small (polynomial in ``k`` for fixed ``d``) even when the DP table is
huge — exactly the property the Hochbaum–Shmoys analysis uses.

:func:`enumerate_configurations` returns all non-zero feasible
configurations — what Alg. 2/3 call ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence


@dataclass(frozen=True)
class ConfigurationSet:
    """All feasible machine configurations for one DP invocation.

    Attributes
    ----------
    class_sizes:
        Rounded size of each class (ascending, matching
        :class:`~repro.core.rounding.RoundedInstance`).
    target:
        The capacity ``T`` every configuration must respect.
    configs:
        Non-zero feasible configurations, each a tuple of per-class
        counts.  Deterministically ordered (lexicographic).
    weights:
        ``weights[i]`` is the total rounded load of ``configs[i]``.
    """

    class_sizes: tuple[int, ...]
    target: int
    configs: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.configs)

    def fits(self, config: Sequence[int]) -> bool:
        """Check Eq. (3) for an arbitrary vector against this capacity."""
        weight = sum(s * size for s, size in zip(config, self.class_sizes))
        return weight <= self.target


def _enumerate(
    class_sizes: tuple[int, ...],
    caps: tuple[int, ...],
    target: int,
    max_jobs: int | None,
) -> list[tuple[int, ...]]:
    """DFS over per-class counts, pruning by remaining capacity.

    Classes are visited in order; since sizes are positive the remaining
    budget shrinks monotonically, so the recursion never explores an
    infeasible prefix.  ``max_jobs`` additionally bounds the total count
    (the integral-rounding guarantee fix; see ``enumerate_configurations``).
    """
    d = len(class_sizes)
    out: list[tuple[int, ...]] = []
    current = [0] * d

    def recurse(c: int, budget: int, jobs_left: int) -> None:
        if c == d:
            out.append(tuple(current))
            return
        size = class_sizes[c]
        limit = min(caps[c], budget // size, jobs_left)
        for count in range(limit + 1):
            current[c] = count
            recurse(c + 1, budget - count * size, jobs_left - count)
        current[c] = 0

    recurse(0, target, target if max_jobs is None else max_jobs)
    return out


@lru_cache(maxsize=4096)
def _enumerate_cached(
    class_sizes: tuple[int, ...],
    caps: tuple[int, ...],
    target: int,
    max_jobs: int | None,
) -> tuple[tuple[int, ...], ...]:
    configs = _enumerate(class_sizes, caps, target, max_jobs)
    return tuple(cfg for cfg in configs if any(cfg))


def enumerate_configurations(
    class_sizes: Sequence[int],
    caps: Sequence[int],
    target: int,
    max_jobs: int | None = None,
) -> ConfigurationSet:
    """All non-zero configurations ``0 <= s <= caps`` with weight
    ``<= target``.

    The zero configuration means "assign nothing to this machine"; the DP
    recurrence excludes it (Alg. 3, line 17 note), so it is dropped.

    ``max_jobs`` caps the *total* job count of a configuration.  The paper
    (Eq. 3) constrains weight only, but with integer rounding a long job
    can round below ``T/k``, letting a weight-only configuration carry so
    many long jobs that un-rounding overshoots the ``(1 + 1/k) T``
    guarantee.  Any true schedule of makespan ``<= T`` places at most
    ``k - 1`` long jobs per machine (each exceeds ``T/k`` strictly), so
    passing ``max_jobs = k - 1`` is lossless for the decision and restores
    the guarantee — see ``docs/algorithm.md`` ("the integrality gap").

    >>> cs = enumerate_configurations([6, 11], caps=[2, 3], target=30)
    >>> cs.configs
    ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1))
    >>> enumerate_configurations([6, 11], caps=[2, 3], target=30, max_jobs=1).configs
    ((0, 1), (1, 0))
    """
    sizes = tuple(int(s) for s in class_sizes)
    caps_t = tuple(int(c) for c in caps)
    if len(sizes) != len(caps_t):
        raise ValueError("class_sizes and caps must have equal length")
    for s in sizes:
        if s <= 0:
            raise ValueError(f"class sizes must be positive, got {s}")
    for c in caps_t:
        if c < 0:
            raise ValueError(f"caps must be non-negative, got {c}")
    if target < 0:
        raise ValueError(f"target must be non-negative, got {target}")
    if max_jobs is not None and max_jobs < 0:
        raise ValueError(f"max_jobs must be non-negative, got {max_jobs}")
    all_configs = _enumerate_cached(sizes, caps_t, int(target), max_jobs)
    weights = tuple(
        sum(count * size for count, size in zip(cfg, sizes)) for cfg in all_configs
    )
    return ConfigurationSet(sizes, int(target), all_configs, weights)


def configuration_count_bound(k: int, num_classes: int) -> int:
    """Loose analytic bound on ``|C|`` used in the paper's complexity
    discussion: at most ``k`` long jobs fit in a machine, spread over
    ``num_classes`` classes, giving ``<= (num_classes + 1)^k`` choices."""
    return (num_classes + 1) ** max(k, 1)
