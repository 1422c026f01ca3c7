"""In-memory span recorder for the traced run.

The benchmark wraps each call it makes into a layer in a span named
``<layer>/<operation>`` (``engine.batch/route_arrays``).  A span holds
its name, start, end, parent span and a group id shared by the spans of
one set-up, one batch or one edit.  Spans stay in memory until the run
writes them out.  With tracing off the workloads get :data:`NO_SPANS`,
whose ``span`` is a shared no-op context.

Calls the program makes into a layer too often for one span each (the
landmark build asks the metric about half a million questions) are
timed by :meth:`SpanRecorder.summed` instead: one *summed span* per
operation and enclosing span, holding the call count and the summed
call time, which is subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

FIELDS = ["name", "group", "parent", "start", "end", "calls", "busy"]


class Span:
    """One timed call, or (``calls`` > 1) a summed span of many.

    ``busy`` is the time the span covers: ``end - start`` for a plain
    span, the summed call time for a summed one.
    """

    __slots__ = ("name", "group", "parent", "start", "end", "calls", "busy")

    def __init__(self, name: str, group: str, parent: Optional[int], start: float):
        self.name = name
        self.group = group
        self.parent = parent
        self.start = start
        self.end = start
        self.calls = 1
        self.busy = 0.0

    @property
    def layer(self) -> str:
        return self.name.split("/", 1)[0]

    def as_list(self) -> list:
        return [getattr(self, field) for field in FIELDS]


class SpanRecorder:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._summed: Dict[Tuple[str, int], Span] = {}
        self._in_summed = False

    @contextlib.contextmanager
    def span(self, name: str, group: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = Span(name, group, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            record.busy = record.end - record.start
            self._open.pop()

    def summed(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls timed into summed spans named ``name``.

        A call made outside every open span, or from inside another
        summed call, is not timed (the outer call covers it).
        """

        def call(*args, **kwargs):
            if self._in_summed or not self._open:
                return fn(*args, **kwargs)
            self._in_summed = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._in_summed = False
                self._charge(name, start, end)

        return call

    def _charge(self, name: str, start: float, end: float) -> None:
        parent = self._open[-1]
        record = self._summed.get((name, parent))
        if record is None:
            record = Span(name, self.spans[parent].group, parent, start)
            record.calls = 0
            self._summed[(name, parent)] = record
            self.spans.append(record)
        record.end = end
        record.calls += 1
        record.busy += end - start

    def self_times(self) -> List[float]:
        """Each span's busy time minus the part its children cover."""
        own = [s.busy for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.busy
        return own

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            totals[s.layer] = totals.get(s.layer, 0.0) + own
        return totals

    def median_per_group(self, names, group_prefix: str) -> float:
        """Median over groups of the summed self time of ``names`` spans.

        ``names`` is one span name or a tuple of them.  Groups are those
        whose id starts with ``group_prefix`` and hold at least one such
        span; 0.0 when there are none.
        """
        names = (names,) if isinstance(names, str) else names
        per_group: Dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s.name in names and s.group.startswith(group_prefix):
                per_group[s.group] = per_group.get(s.group, 0.0) + own
        return statistics.median(per_group.values()) if per_group else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "fields": FIELDS,
            "spans": [s.as_list() for s in self.spans],
            "self_s_by_layer": self.self_by_layer(),
        }


class _NoSpans:
    """Tracing off: every span is the same no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str, group: str) -> contextlib.nullcontext:
        return self._null


NO_SPANS = _NoSpans()
