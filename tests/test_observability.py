"""Route-decision tracing (repro.observability) and the build ledger.

The load-bearing property: for every scheme, replaying a recorded trace
reproduces the returned ``RouteResult.path`` bit-for-bit and the per-leg
costs sum to ``RouteResult.cost`` — a trace is a proof that the route
was assembled only from per-node table decisions.
"""

from __future__ import annotations

import json

import pytest

from repro.core.params import SchemeParameters
from repro.graphs.generators import exponential_path, grid_2d
from repro.metric.graph_metric import GraphMetric
from repro.observability.catalog import (
    SCHEMES,
    resolve_graph,
    resolve_scheme,
)
from repro.observability.trace import (
    NULL_TRACER,
    RecordingTracer,
    RouteTrace,
    TraceEvent,
    Tracer,
    format_trace,
    replay,
)
from repro.pipeline.context import BuildContext, BuildStats
from repro.resilience.degraded import DegradedNetwork
from repro.resilience.failure_plan import EventKind, FailureEvent
from repro.resilience.router import ResilientRouter
from repro.runtime.simulator import Demand, TrafficSimulator
from repro.schemes.shortest_path import ShortestPathScheme


@pytest.fixture(scope="module", params=["grid5", "exp10"])
def small_metric(request):
    """Tiny fixtures where routing all ordered pairs is cheap."""
    if request.param == "grid5":
        return GraphMetric(grid_2d(5))
    return GraphMetric(exponential_path(10))


@pytest.fixture(scope="module")
def small_schemes(small_metric):
    """All six catalogued schemes built on the small fixture."""
    context = BuildContext()
    params = SchemeParameters(epsilon=0.5)
    return [
        context.scheme(cls, small_metric, params)
        for cls in SCHEMES.values()
    ]


# ---------------------------------------------------------------------------
# The replay property
# ---------------------------------------------------------------------------


class TestTraceReplay:
    def test_every_scheme_every_pair(self, small_metric, small_schemes):
        for scheme in small_schemes:
            for u in small_metric.nodes:
                for v in small_metric.nodes:
                    if u == v:
                        continue
                    result, trace = scheme.trace_route(u, v)
                    assert replay(trace).matches(result.path, result.cost), (
                        scheme.name,
                        u,
                        v,
                    )
                    assert trace.delivered_to == result.target
                    assert trace.header_bits == result.header_bits
                    assert trace.events, "a multi-hop route must decide"

    def test_traced_route_equals_plain_route(self, small_schemes):
        for scheme in small_schemes:
            n = scheme.metric.n
            plain = scheme.route(0, n - 1)
            traced, _ = scheme.trace_route(0, n - 1)
            assert traced.path == plain.path
            assert traced.cost == plain.cost
            again = scheme.route(0, n - 1)
            assert again.path == plain.path

    def test_tracer_restored_even_on_failure(self, small_schemes):
        scheme = small_schemes[0]
        assert scheme.tracer is NULL_TRACER
        with pytest.raises(Exception):
            scheme.trace_route(0, 10**9)
        assert scheme.tracer is NULL_TRACER

    def test_sampled_pairs_on_session_schemes(
        self, grid_metric, labeled_sf, nameind_sf, nameind_simple
    ):
        pairs = [(0, grid_metric.n - 1), (7, 22), (35, 3), (17, 18)]
        for scheme in (labeled_sf, nameind_sf, nameind_simple):
            for u, v in pairs:
                result, trace = scheme.trace_route(u, v)
                assert replay(trace).matches(result.path, result.cost)


# ---------------------------------------------------------------------------
# Trace data model
# ---------------------------------------------------------------------------


class TestTraceModel:
    def test_null_tracer_is_disabled_noop(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.event(node=0, phase="walk", nodes=(1,), cost=2.0)

    def test_recording_tracer_appends(self):
        trace = RouteTrace(scheme="t", source=0, destination=3)
        tracer = RecordingTracer(trace)
        assert tracer.enabled
        tracer.event(node=0, phase="walk", nodes=(1, 2), cost=2.0, level=1)
        tracer.event(node=2, phase="final", nodes=(3,), cost=1.0)
        assert trace.path == [0, 1, 2, 3]
        assert trace.cost == pytest.approx(3.0)
        assert trace.phases() == {"walk": 1, "final": 1}

    def test_json_roundtrip(self, small_schemes):
        scheme = small_schemes[0]
        _, trace = scheme.trace_route(0, scheme.metric.n - 1)
        data = json.loads(trace.to_json())
        assert data["path"] == trace.path
        assert data["source"] == trace.source
        assert len(data["events"]) == len(trace.events)
        for event_dict, event in zip(data["events"], trace.events):
            assert event_dict["node"] == event.node
            assert event_dict["phase"] == event.phase
            assert event_dict["nodes"] == list(event.nodes)

    def test_event_to_dict_omits_none_fields(self):
        bare = TraceEvent(node=1, phase="walk").to_dict()
        assert set(bare) == {"node", "phase", "nodes", "cost"}
        rich = TraceEvent(
            node=1, phase="walk", level=2, entry="x", header_after={"a": 1}
        ).to_dict()
        assert rich["level"] == 2 and rich["header_after"] == {"a": 1}

    def test_format_trace_is_readable(self, small_schemes):
        scheme = small_schemes[0]
        _, trace = scheme.trace_route(0, scheme.metric.n - 1)
        text = format_trace(trace)
        assert scheme.name in text
        assert len(text.splitlines()) == len(trace.events) + 1

    def test_replay_match_rejects_wrong_path_and_cost(self):
        trace = RouteTrace(scheme="t", source=0, destination=1)
        trace.events.append(TraceEvent(node=0, phase="walk", nodes=(1,), cost=1.0))
        assert replay(trace).matches([0, 1], 1.0)
        assert not replay(trace).matches([0, 2], 1.0)
        assert not replay(trace).matches([0, 1], 2.0)

    def test_subclass_tracer_interface(self):
        class Counting(Tracer):
            __slots__ = ("count",)
            enabled = True

            def __init__(self):
                self.count = 0

            def event(self, node, phase, **kwargs):
                self.count += 1

        scheme_metric = GraphMetric(grid_2d(3))
        scheme = ShortestPathScheme(scheme_metric)
        counter = Counting()
        scheme._tracer = counter
        scheme.route(0, 8)
        scheme._tracer = NULL_TRACER
        assert counter.count > 0


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_resolves_known_names(self):
        graph = resolve_graph("exp-path-16")
        assert graph.number_of_nodes() == 16
        assert resolve_scheme("shortest-path") is ShortestPathScheme

    def test_unknown_names_list_alternatives(self):
        with pytest.raises(ValueError, match="grid-8x8"):
            resolve_graph("nope")
        with pytest.raises(ValueError, match="nameind-sf"):
            resolve_scheme("nope")


# ---------------------------------------------------------------------------
# Build profiling
# ---------------------------------------------------------------------------


class TestBuildLedger:
    def test_timed_accumulates(self, monkeypatch):
        clock = iter([10.0, 10.25, 20.0, 20.25, 30.0, 30.5])
        monkeypatch.setattr(
            "repro.pipeline.context.time.perf_counter", lambda: next(clock)
        )
        stats = BuildStats()
        for _ in range(2):
            with stats.timed("build", "metric"):
                pass
        with stats.timed("disk_load", "scheme"):
            pass
        assert stats.build_seconds == {"metric": pytest.approx(0.5)}
        assert stats.disk_load_seconds == {"scheme": pytest.approx(0.5)}
        assert stats.disk_store_seconds == {}

    def test_timed_charges_a_raising_block(self):
        stats = BuildStats()
        with pytest.raises(RuntimeError):
            with stats.timed("build", "metric"):
                raise RuntimeError("builder failed")
        assert "metric" in stats.build_seconds

    def test_report_merges_counters_and_seconds(self):
        stats = BuildStats(build_seconds={"metric": 1.0})
        stats.record("metric", "misses")
        stats.record("metric", "hits")
        stats.record("pairs", "disk_hits")
        merged = stats.report()
        assert merged["total_build_seconds"] == pytest.approx(1.0)
        assert "substrate" not in merged
        assert merged["kinds"]["metric"] == {
            "build_seconds": 1.0,
            "hits": 1,
            "misses": 1,
            "disk_hits": 0,
        }
        assert merged["kinds"]["pairs"]["disk_hits"] == 1
        json.loads(json.dumps(merged))

    def test_since_counts_built_and_reused(self):
        stats = BuildStats()
        stats.record("metric", "misses")
        before = stats.snapshot()
        stats.record("metric", "hits")
        stats.record("scheme", "misses")
        stats.record("scheme", "disk_hits")
        stats.fold({"metric_row": (3, 2)})
        built, reused = stats.since(before)
        assert built == {"scheme": 1, "metric_row": 2}
        assert reused == {"metric": 1, "scheme": 1, "metric_row": 3}
        # The snapshot is independent of later counting.
        assert before.hits == {} and before.misses == {"metric": 1}

    def test_context_populates_ledger(self, tmp_path):
        context = BuildContext(cache_dir=str(tmp_path))
        metric = context.metric(grid_2d(4))
        context.hierarchy(metric)
        context.scheme(ShortestPathScheme, metric)
        report = context.profile_report()
        assert report["total_build_seconds"] > 0.0
        assert {"metric", "hierarchy", "scheme"} <= set(report["kinds"])
        assert report["kinds"]["metric"]["misses"] == 1
        # Second context over the same cache dir loads from disk.
        warm = BuildContext(cache_dir=str(tmp_path))
        warm.metric(grid_2d(4))
        row = warm.profile_report()["kinds"]["metric"]
        assert row["disk_hits"] == 1
        assert row.get("disk_load_seconds", 0.0) >= 0.0

    def test_unkeyable_scheme_path_is_timed(self, grid_metric):
        context = BuildContext()
        hierarchy = context.hierarchy(grid_metric)
        from repro.schemes.labeled_nonscalefree import (
            NonScaleFreeLabeledScheme,
        )

        context.scheme(
            NonScaleFreeLabeledScheme, grid_metric, hierarchy=hierarchy
        )
        assert context.stats.build_seconds.get("scheme", 0.0) > 0.0


# ---------------------------------------------------------------------------
# Simulator and resilient-router integration
# ---------------------------------------------------------------------------


class TestRuntimeTraces:
    def test_simulator_attaches_traces_on_request(self):
        metric = GraphMetric(grid_2d(4))
        simulator = TrafficSimulator(ShortestPathScheme(metric))
        demands = [Demand(0, 15, 0.0), Demand(5, 5, 1.0), Demand(3, 12, 2.0)]
        plain = simulator.run(demands)
        assert all(p.trace is None for p in plain.packets)
        traced = simulator.run(demands, trace=True)
        for packet, reference in zip(traced.packets, plain.packets):
            assert packet.path == reference.path
            assert packet.delivered_at == reference.delivered_at
            if packet.demand.source == packet.demand.target:
                assert packet.trace is None
            else:
                assert replay(packet.trace).matches(
                    packet.path, packet.trace.cost
                )

    def test_resilient_router_tags_fallback_activations(self):
        metric = GraphMetric(grid_2d(4))
        degraded = DegradedNetwork(metric)
        degraded.apply(FailureEvent(0.0, EventKind.LINK_DOWN, edge=(1, 2)))
        router = ResilientRouter(
            ShortestPathScheme(metric), degraded, policy="local-detour"
        )
        result, trace = router.trace_route(0, 3)
        assert result.delivered
        assert replay(trace).matches(result.path, result.cost)
        fallbacks = [e for e in trace.events if e.phase == "fallback"]
        assert len(fallbacks) == result.detours > 0
        assert all(e.entry == "local-detour" for e in fallbacks)
        assert all(not e.nodes and e.cost == 0.0 for e in fallbacks)

    def test_resilient_router_trace_without_failures(self):
        metric = GraphMetric(grid_2d(3))
        router = ResilientRouter(
            ShortestPathScheme(metric), DegradedNetwork(metric)
        )
        result, trace = router.trace_route(0, 8)
        assert replay(trace).matches(result.path, result.cost)
        assert trace.phases() == {"forward": len(result.path) - 1}
        assert router._tracer is NULL_TRACER
