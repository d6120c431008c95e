"""repro.obs — zero-dependency solver observability (tracing + profiling).

The observability layer gives every solve a hierarchical trace::

    solve
    ├── spec_round (speculative_bisect: one multi-probe round)
    │   └── probe ...
    ├── probe (one per bisection iteration)
    │   ├── round        rounding of the probe's target
    │   ├── enumerate    machine-configuration enumeration (Eq. 3)
    │   └── dp           the decision DP
    │       ├── level    one wavefront anti-diagonal batch, or
    │       ├── run      one tile diagonal of the batched wavefront
    │       └── backtrack
    └── reconstruct      un-rounding + LPT fill

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span` /
  :data:`NULL_TRACER`, counters, per-phase summaries.
* :mod:`repro.obs.export` — Chrome trace-event JSON export
  (:func:`save_trace`) and round-trip loading (:func:`load_trace`);
  :func:`trace_to_payload` / :func:`payload_to_trace` are the in-memory
  halves, also used by :meth:`repro.store.ResultStore.archive_trace` to
  persist traces next to the results they explain.
* :mod:`repro.obs.schema` — validation against the checked-in schema
  (``trace_schema.json``); fails on unknown span kinds.
* :mod:`repro.obs.profile` — :class:`SamplingProfiler`, the slow-probe
  stack sampler.

Spans are threaded through the solvers by
:class:`repro.core.context.SolveContext`; see ``docs/observability.md``.
"""

from repro.obs.export import (
    TraceData,
    load_trace,
    payload_to_trace,
    save_trace,
    trace_to_payload,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.schema import TraceSchemaError, validate_trace, validate_trace_file
from repro.obs.trace import (
    NULL_TRACER,
    SPAN_KINDS,
    NullTracer,
    Span,
    Tracer,
    publish_phase_summary,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SPAN_KINDS",
    "SamplingProfiler",
    "TraceData",
    "save_trace",
    "load_trace",
    "trace_to_payload",
    "payload_to_trace",
    "validate_trace",
    "validate_trace_file",
    "TraceSchemaError",
    "publish_phase_summary",
]
