"""Hierarchical tracing for the solver stack: spans, counters, summaries.

A :class:`Tracer` records a tree of :class:`Span` objects — one ``solve``
root, one ``probe`` per bisection iteration, ``round`` / ``enumerate`` /
``dp`` phases inside each probe, and one ``level`` span per wavefront
anti-diagonal batch — each with monotonic start/end timestamps
(:func:`time.perf_counter`) and tagged attributes (``T``, ``k``, engine,
worker count, …).  Alongside the tree the tracer keeps named counters
(probes, levels, configurations enumerated, rounding-cache reuses).

The taxonomy is closed: :data:`SPAN_KINDS` is the single source of truth,
mirrored by the checked-in JSON schema
(``src/repro/obs/trace_schema.json``) that CI validates every emitted
trace against.

Zero cost when off
------------------
Every instrumentation point in the solvers goes through a tracer, but the
default is the module singleton :data:`NULL_TRACER` whose ``span()``
returns one shared no-op context manager and whose ``count()`` does
nothing — a handful of nanoseconds per call, so un-traced solves (and the
tier-1 test suite) pay effectively nothing.  Hot loops additionally
branch on ``tracer.enabled`` to keep their fastest path (e.g. the numpy
whole-table sweep) untouched.

Tracers are cheap, single-use, and intentionally *not* thread-safe:
create one per solve (the service creates one per request) and read it
after the solve returns.  Spans must be opened and closed on the thread
driving the solve — worker threads/processes never open spans; their
work is covered by the enclosing ``level`` span.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator

#: The closed span taxonomy (see ``docs/observability.md``):
#:
#: * ``solve`` — one whole (parallel) PTAS run;
#: * ``probe`` — one bisection iteration (the unit of cancellation);
#: * ``round`` — long/short split + rounding for the probe's target;
#: * ``enumerate`` — machine-configuration enumeration (Eq. 3);
#: * ``dp`` — one DP table fill / decision solve;
#: * ``level`` — one wavefront anti-diagonal batch (Alg. 3 inner loop);
#: * ``run`` — one tile diagonal of the *batched* wavefront (a barrier's
#:   worth of block×level-run tiles; see ``repro.parallel.runs``);
#: * ``spec_round`` — one speculative-bisection round (its probes nest
#:   beneath it);
#: * ``backtrack`` — machine-configuration recovery from a filled table;
#: * ``reconstruct`` — un-rounding + LPT fill into the final schedule.
SPAN_KINDS = (
    "solve",
    "probe",
    "round",
    "enumerate",
    "dp",
    "level",
    "run",
    "spec_round",
    "backtrack",
    "reconstruct",
)

#: The solver's tracer counters (see ``docs/observability.md``):
#:
#: * ``probes`` — bisection probes;
#: * ``probes_ffd`` — probes a first-fit-decreasing packing decided;
#: * ``rounding_reuses`` — probes that reused the previous rounding;
#: * ``dp_reuses`` — probes answered by an earlier probe's table;
#: * ``configs_enumerated`` — machine configurations enumerated;
#: * ``levels`` / ``runs`` — wavefront levels and tile diagonals filled.
TRACE_COUNTERS = (
    "probes",
    "probes_ffd",
    "rounding_reuses",
    "dp_reuses",
    "configs_enumerated",
    "levels",
    "runs",
)


class Span:
    """One timed node of the trace tree.

    ``start``/``end`` are :func:`time.perf_counter` seconds (``end`` is
    ``None`` while the span is open); ``attrs`` are the tagged
    attributes; ``children`` are nested spans in open order.
    """

    __slots__ = ("kind", "attrs", "start", "end", "children")

    def __init__(self, kind: str, attrs: dict[str, Any], start: float) -> None:
        self.kind = kind
        self.attrs = attrs
        self.start = start
        self.end: float | None = None
        self.children: list["Span"] = []

    @property
    def duration(self) -> float:
        """Wall seconds from open to close (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attrs: Any) -> None:
        """Merge *attrs* into the span's attributes (late tagging —
        e.g. a probe learns ``feasible`` only after its DP returns)."""
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> list["Span"]:
        """All descendants (including self) of the given kind."""
        return [s for s in self.walk() if s.kind == kind]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.kind!r}, dur={self.duration:.6f}, "
            f"children={len(self.children)}, attrs={self.attrs!r})"
        )


class _NullSpan:
    """The shared do-nothing span handle returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """No-op."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is ``False`` so hot loops can skip instrumentation
    entirely (e.g. fall back to the fused numpy sweep).  Use the module
    singleton :data:`NULL_TRACER` rather than constructing new ones.
    """

    enabled = False

    def span(self, kind: str, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span handle."""
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        """No-op."""


#: Process-wide disabled tracer; the default everywhere a tracer is
#: accepted.  One shared instance so identity checks are cheap.
NULL_TRACER = NullTracer()


class _OpenSpan:
    """Context manager that opens a :class:`Span` on enter and closes it
    (restoring the tracer's stack) on exit."""

    __slots__ = ("_tracer", "_span", "_profile")

    def __init__(self, tracer: "Tracer", kind: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._span = Span(kind, attrs, 0.0)
        self._profile = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        if tracer._stack:
            tracer._stack[-1].children.append(span)
        else:
            tracer.roots.append(span)
        tracer._stack.append(span)
        profiler = tracer.profiler
        if profiler is not None and span.kind in profiler.kinds:
            self._profile = profiler.begin()
        span.start = tracer.clock()
        return span

    def __exit__(self, *exc: object) -> bool:
        span = self._span
        span.end = self._tracer.clock()
        if self._profile is not None:
            self._tracer.profiler.finish(self._profile, span)
        stack = self._tracer._stack
        if stack and stack[-1] is span:
            stack.pop()
        return False


class Tracer:
    """Collects a span tree plus counters for one solve.

    Parameters
    ----------
    clock:
        Monotonic timestamp source (seconds); default
        :func:`time.perf_counter`.
    profiler:
        Optional :class:`repro.obs.profile.SamplingProfiler`; while a
        span whose kind is in ``profiler.kinds`` (default: ``probe``) is
        open, the solving thread's stack is sampled, and if the span
        turns out slower than the profiler's threshold the hottest
        stacks are attached to its attributes.

    >>> tracer = Tracer()
    >>> with tracer.span("solve", algorithm="ptas") as solve:
    ...     with tracer.span("probe", target=14):
    ...         tracer.count("probes")
    >>> [s.kind for s in solve.walk()]
    ['solve', 'probe']
    >>> tracer.counters["probes"]
    1
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        profiler: "Any | None" = None,
    ) -> None:
        self.clock = clock
        self.profiler = profiler
        self.roots: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[Span] = []

    def span(self, kind: str, **attrs: Any) -> _OpenSpan:
        """Open a span of the given kind as a context manager.

        The span nests under whichever span is currently open on this
        tracer (or becomes a root).  The ``with`` target is the
        :class:`Span` itself, so late attributes can be attached via
        :meth:`Span.set`.
        """
        return _OpenSpan(self, kind, attrs)

    def add_span(self, kind: str, start: float, end: float, **attrs: Any) -> None:
        """Record an already-finished span, timed by the caller with
        :attr:`clock`, under the currently open span (or as a root).

        For hot loops that take their own timestamps instead of entering
        and leaving a context manager per span; the profiler does not
        sample such spans.
        """
        span = Span(kind, attrs, start)
        span.end = end
        (self._stack[-1].children if self._stack else self.roots).append(span)

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def walk(self) -> Iterator[Span]:
        """Yield every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, kind: str) -> list[Span]:
        """All recorded spans of the given kind."""
        return [s for s in self.walk() if s.kind == kind]

    def phase_summary(self) -> dict[str, dict[str, float | int]]:
        """Aggregate per-kind totals: ``{kind: {count, seconds}}``.

        ``seconds`` is the summed inclusive wall time of every closed
        span of that kind (the taxonomy never nests a kind inside
        itself, so inclusive sums do not double-count).  Open spans
        contribute their count but zero seconds.
        """
        summary: dict[str, dict[str, float | int]] = {}
        for span in self.walk():
            agg = summary.setdefault(span.kind, {"count": 0, "seconds": 0.0})
            agg["count"] += 1
            agg["seconds"] += span.duration
        return summary


def register_phase_metrics(metrics: Any) -> None:
    """Create every instrument :func:`publish_phase_summary` can touch:
    one ``trace.phase.<kind>.seconds`` histogram and ``trace.spans.<kind>``
    counter per :data:`SPAN_KINDS` entry, and one
    ``trace.counters.<name>`` counter per :data:`TRACE_COUNTERS` entry.

    A registry prepared this way reports each of them from the start,
    reading 0 until it is observed, so a reader can tell a phase that
    never ran from a name that does not exist.
    """
    for kind in SPAN_KINDS:
        metrics.histogram(f"trace.phase.{kind}.seconds")
        metrics.counter(f"trace.spans.{kind}")
    for name in TRACE_COUNTERS:
        metrics.counter(f"trace.counters.{name}")


def publish_phase_summary(tracer: Tracer, metrics: Any) -> dict[str, dict[str, float | int]]:
    """Publish a tracer's per-phase aggregates into a metrics registry.

    For every span kind, observes the solve's total seconds on the
    ``trace.phase.<kind>.seconds`` histogram and bumps the
    ``trace.spans.<kind>`` counter; tracer counters land under
    ``trace.counters.<name>``.  *metrics* is duck-typed against
    :class:`repro.service.metrics.MetricsRegistry` (``histogram(name)``
    / ``counter(name)``), keeping this module dependency-free.  Returns
    the summary it published.
    """
    summary = tracer.phase_summary()
    for kind, agg in sorted(summary.items()):
        metrics.histogram(f"trace.phase.{kind}.seconds").observe(float(agg["seconds"]))
        metrics.counter(f"trace.spans.{kind}").inc(int(agg["count"]))
    for name, value in sorted(tracer.counters.items()):
        metrics.counter(f"trace.counters.{name}").inc(int(value))
    return summary
