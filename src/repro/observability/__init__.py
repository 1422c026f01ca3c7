"""Route-decision tracing.

The paper's schemes are *local* algorithms: each hop may consult only
the current node's table and the packet header (§1, Algorithm 3).  This
package makes that locality auditable:

* :mod:`repro.observability.trace` — a :class:`RouteTrace` of
  :class:`TraceEvent` records, one per forwarding decision, carrying the
  node, the algorithm phase (zooming leg, search-tree round trip, ring
  walk, Voronoi descent, fallback), the table entry that fired, and the
  header fields before/after.  Replaying a trace reproduces the
  scheme's ``RouteResult`` path and cost exactly, so a trace is a
  machine-checkable provenance record of every routing claim.
* :mod:`repro.observability.catalog` — named fixture graphs and scheme
  constructors for the ``repro trace`` CLI command.

Tracing is opt-in and zero-overhead when off: schemes hold the shared
:data:`NULL_TRACER` singleton, whose ``enabled`` flag gates every
emission site with a single attribute check.  Build-time accounting
(per-kind seconds, hits and misses) is not here: it lives in the build
ledger, :class:`~repro.pipeline.context.BuildStats`.
"""

from repro.observability.trace import (
    NULL_TRACER,
    RecordingTracer,
    RouteTrace,
    TraceEvent,
    Tracer,
    format_trace,
    replay,
)

__all__ = [
    "NULL_TRACER",
    "RecordingTracer",
    "RouteTrace",
    "TraceEvent",
    "Tracer",
    "format_trace",
    "replay",
]
