"""Tests for the compiled batch routing engine (PR 9, E20 substrate).

The anchor property: for every scheme with a compiled lowering, the
batch engine's output is **bit-identical** to the interpreted
``route()`` — same path, same cost (exact float equality, not
approximate), same legs breakdown, same header bits, same delivered
node — and agrees with RouteTrace replay.  Also covers: a degraded
overlay rebuild, sharded == single-process, the determinism contract
(injection-index ordering), and BuildContext caching of compiled
artifacts.
"""

import dataclasses
import gc
import os
import random
import time

import pytest

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.engine import (
    BatchRouter,
    EngineError,
    EngineUnsupported,
    ShardedRouter,
    compile_scheme,
)
from repro.metric.graph_metric import GraphMetric
from repro.observability.trace import replay
from repro.pipeline.context import BuildContext
from repro.resilience import EventKind, FailureEvent
from repro.resilience.degraded import DegradedNetwork
from repro.resilience.repair import surviving_graph
from repro.schemes.base import RoutingScheme
from repro.schemes.cowen_landmark import CowenLandmarkScheme
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme
from repro.schemes.shortest_path import ShortestPathScheme


def _all_pairs(metric, limit=None, seed=0):
    nodes = list(metric.nodes)
    pairs = [(s, t) for s in nodes for t in nodes]
    if limit is not None and len(pairs) > limit:
        pairs = random.Random(seed).sample(pairs, limit)
    return pairs


def assert_bit_identical(scheme, pairs, metric=None, record_paths=True):
    """Compiled results must equal interpreted route() bit for bit."""
    metric = metric if metric is not None else scheme.metric
    router = BatchRouter(scheme.compile_tables(), metric=metric)
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    compiled = router.route_batch(sources, targets, record_paths=record_paths)
    for (s, t), got in zip(pairs, compiled):
        want = scheme.route(s, t)
        assert got.target == want.target, (s, t)
        assert got.cost == want.cost, (s, t, got.cost, want.cost)
        assert got.legs == want.legs, (s, t, got.legs, want.legs)
        assert got.header_bits == want.header_bits
        if record_paths:
            assert got.path == want.path, (s, t)
    return router


# ----------------------------------------------------------------------
# Bit-identity: every scheme x fixture
# ----------------------------------------------------------------------


class TestBitIdentity:
    def test_shortest_path_all_fixtures(self, any_metric):
        scheme = ShortestPathScheme(any_metric)
        assert_bit_identical(scheme, _all_pairs(any_metric, limit=600))

    def test_cowen(self, grid_metric, params):
        scheme = CowenLandmarkScheme(grid_metric, params)
        assert_bit_identical(scheme, _all_pairs(grid_metric))

    def test_cowen_geometric(self, geometric_metric, params):
        scheme = CowenLandmarkScheme(geometric_metric, params)
        assert_bit_identical(
            scheme, _all_pairs(geometric_metric, limit=600)
        )

    def test_labeled_nonsf(self, labeled_nonsf):
        assert_bit_identical(labeled_nonsf, _all_pairs(labeled_nonsf.metric))

    def test_labeled_sf(self, labeled_sf):
        assert_bit_identical(labeled_sf, _all_pairs(labeled_sf.metric))

    def test_nameind_simple(self, nameind_simple):
        assert_bit_identical(
            nameind_simple, _all_pairs(nameind_simple.metric)
        )

    def test_nameind_sf(self, nameind_sf):
        assert_bit_identical(nameind_sf, _all_pairs(nameind_sf.metric))

    def test_landmark(self, grid_metric, params):
        scheme = LandmarkNameIndependentScheme(grid_metric, params)
        assert_bit_identical(scheme, _all_pairs(grid_metric))

    def test_landmark_geometric(self, geometric_metric, params):
        scheme = LandmarkNameIndependentScheme(geometric_metric, params)
        assert_bit_identical(
            scheme, _all_pairs(geometric_metric, limit=600)
        )

    def test_landmark_nontrivial_naming(self, grid_metric, params):
        n = grid_metric.n
        naming = [(v * 7 + 3) % n for v in range(n)]
        scheme = LandmarkNameIndependentScheme(
            grid_metric, params, naming=naming
        )
        assert_bit_identical(scheme, _all_pairs(grid_metric))

    def test_weighted_metric(self, exponential_metric, params):
        scheme = ShortestPathScheme(exponential_metric)
        assert_bit_identical(scheme, _all_pairs(exponential_metric))
        landmark = LandmarkNameIndependentScheme(exponential_metric, params)
        assert_bit_identical(landmark, _all_pairs(exponential_metric))


class TestTraceReplay:
    """Compiled hop sequences must agree with RouteTrace replay."""

    def test_replay_agreement(self, labeled_sf, nameind_simple, params):
        grid = labeled_sf.metric
        schemes = [
            ShortestPathScheme(grid),
            labeled_sf,
            nameind_simple,
            LandmarkNameIndependentScheme(grid, params),
        ]
        pairs = _all_pairs(grid, limit=80, seed=4)
        for scheme in schemes:
            router = BatchRouter(scheme.compile_tables(), metric=grid)
            for s, t in pairs:
                want, trace = scheme.trace_route(s, t)
                got = router.route(s, t)
                rep = replay(trace)
                assert rep.matches(want.path, want.cost)
                assert got.path == rep.path
                assert got.cost == want.cost


class TestDegradedOverlay:
    """A scheme rebuilt on the surviving subgraph compiles bit-identical."""

    def test_degraded_rebuild(self, grid_metric, params):
        degraded = DegradedNetwork(grid_metric)
        for u, v in ((0, 1), (7, 8), (14, 20)):
            degraded.apply(
                FailureEvent(0.0, EventKind.LINK_DOWN, edge=(u, v))
            )
        metric = GraphMetric(surviving_graph(degraded))
        for scheme in (
            ShortestPathScheme(metric),
            LandmarkNameIndependentScheme(metric, params),
        ):
            assert_bit_identical(scheme, _all_pairs(metric), metric=metric)


# ----------------------------------------------------------------------
# Sharded serving mode
# ----------------------------------------------------------------------


def _assert_sharded_equal(single, multi):
    assert single.keys() == multi.keys()
    assert single["sweeps"] == multi["sweeps"]
    np.testing.assert_array_equal(single["target"], multi["target"])
    np.testing.assert_array_equal(single["cost"], multi["cost"])
    if single["legs"] is None:
        assert multi["legs"] is None
    else:
        np.testing.assert_array_equal(single["legs"], multi["legs"])
    assert ("zerohop" in single) == ("zerohop" in multi)
    if "zerohop" in single:
        np.testing.assert_array_equal(single["zerohop"], multi["zerohop"])


class TestShardedRouter:
    def _compare(self, tables, pairs, shards):
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        single = BatchRouter(tables).route_arrays(sources, targets)
        with ShardedRouter(tables, shards=shards) as sharded:
            multi = sharded.route_arrays(sources, targets)
        _assert_sharded_equal(single, multi)

    def test_sharded_matches_single_process(self, grid_metric, params):
        scheme = LandmarkNameIndependentScheme(grid_metric, params)
        pairs = _all_pairs(grid_metric, limit=200, seed=2)
        self._compare(scheme.compile_tables(), pairs, shards=2)

    def test_sharded_doubling_scheme(self, nameind_simple):
        pairs = _all_pairs(nameind_simple.metric, limit=120, seed=5)
        self._compare(nameind_simple.compile_tables(), pairs, shards=3)

    def test_single_shard_fallback(self, grid_metric):
        tables = ShortestPathScheme(grid_metric).compile_tables()
        pairs = _all_pairs(grid_metric, limit=60, seed=6)
        self._compare(tables, pairs, shards=1)

    def test_rejects_bad_shard_count(self, grid_metric):
        tables = ShortestPathScheme(grid_metric).compile_tables()
        with pytest.raises(ValueError):
            ShardedRouter(tables, shards=0)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_generated_batches_match_batch_router(
        self, shards, grid_metric, params
    ):
        """One long-lived router serves generated batches of 0..40
        pairs, including batches smaller than the pool: every output
        key, ``sweeps`` included, equals BatchRouter's."""
        tables = LandmarkNameIndependentScheme(
            grid_metric, params
        ).compile_tables()
        reference = BatchRouter(tables)
        node = st.integers(0, tables.n - 1)

        with ShardedRouter(tables, shards=shards) as router:

            @seed(20 + shards)
            @settings(max_examples=40, deadline=None)
            @given(pairs=st.lists(st.tuples(node, node), max_size=40))
            @example(pairs=[])
            @example(pairs=[(0, 35)])
            @example(pairs=[(3, 3), (35, 0)])
            def check(pairs):
                sources = [u for u, _ in pairs]
                targets = [v for _, v in pairs]
                _assert_sharded_equal(
                    reference.route_arrays(sources, targets),
                    router.route_arrays(sources, targets),
                )

            check()


# ----------------------------------------------------------------------
# Multi-router isolation (satellite 1: the aliasing bugfix)
# ----------------------------------------------------------------------


class TestMultiRouterIsolation:
    def test_second_router_does_not_alias_first(
        self, grid_metric, geometric_metric, params
    ):
        """Regression for the shards=1 aliasing bug: the serial fallback
        used to install its tables in module globals shared by every
        router in the process, so constructing a *second* router
        clobbered the first router's tables mid-flight.  Routers must
        answer from their own ``self.tables`` regardless of what other
        routers exist."""
        t_landmark = LandmarkNameIndependentScheme(
            grid_metric, params
        ).compile_tables()
        t_shortest = ShortestPathScheme(geometric_metric).compile_tables()
        pairs = _all_pairs(grid_metric, limit=80, seed=11)
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        want = BatchRouter(t_landmark).route_arrays(sources, targets)
        first = ShardedRouter(t_landmark, shards=1)
        second = ShardedRouter(t_shortest, shards=1)
        try:
            got = first.route_arrays(sources, targets)
        finally:
            second.close()
            first.close()
        _assert_sharded_equal(want, got)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_interleaved_routers_stay_bit_identical(
        self, shards, grid_metric, geometric_metric, params
    ):
        """Two live routers over different schemes and fixtures, served
        in alternating batches: every batch must stay bit-identical to
        its own BatchRouter, for serial and sharded modes alike."""
        tables = [
            LandmarkNameIndependentScheme(
                grid_metric, params
            ).compile_tables(),
            ShortestPathScheme(geometric_metric).compile_tables(),
        ]
        references = [BatchRouter(t) for t in tables]
        routers = [ShardedRouter(t, shards=shards) for t in tables]
        rng = random.Random(17)
        try:
            for _ in range(3):
                for router, reference, t in zip(
                    routers, references, tables
                ):
                    sources = [
                        rng.randrange(t.n) for _ in range(40)
                    ]
                    targets = [
                        rng.randrange(t.n) for _ in range(40)
                    ]
                    want = reference.route_arrays(sources, targets)
                    got = router.route_arrays(sources, targets)
                    _assert_sharded_equal(want, got)
        finally:
            for router in routers:
                router.close()


# ----------------------------------------------------------------------
# Worker-pool lifecycle (satellite 2: no stranded workers)
# ----------------------------------------------------------------------


def _assert_workers_dead(pids, timeout=5.0):
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        remaining = []
        for pid in alive:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            remaining.append(pid)
        alive = remaining
        if alive:
            time.sleep(0.05)
    assert not alive, f"shard workers still alive: {alive}"


class TestPoolLifecycle:
    def _capped(self, tables, max_sweeps):
        return dataclasses.replace(
            tables,
            scalars={**tables.scalars, "max_sweeps": max_sweeps},
        )

    def test_raising_route_does_not_strand_workers(self, grid_metric):
        """A worker-side EngineError (sweep cap exceeded inside a
        worker) must leave the pool serving and /dev/shm unchanged;
        close must still reap every worker."""
        tables = self._capped(
            ShortestPathScheme(grid_metric).compile_tables(), 1
        )
        router = ShardedRouter(tables, shards=2)
        try:
            pids = router.worker_pids()
            assert len(pids) == 2
            shm_before = set(os.listdir("/dev/shm"))
            with pytest.raises(EngineError):
                # Two pairs reach both workers; each walk takes several
                # hops of the 6x6 grid, so both exceed the cap.
                router.route_arrays([0, 5], [30, 35])
            assert set(os.listdir("/dev/shm")) == shm_before
            out = router.route_arrays([5, 7], [5, 7])
            np.testing.assert_array_equal(out["target"], [5, 7])
            assert sorted(router.worker_pids()) == sorted(pids)
        finally:
            router.close()
        _assert_workers_dead(pids)

    def test_driver_raise_unlinks_register_segment(self, grid_metric):
        """A raise in the driver (a batch smaller than the pool is
        routed in-process) leaves /dev/shm as it was."""
        tables = self._capped(
            ShortestPathScheme(grid_metric).compile_tables(), 0
        )
        router = ShardedRouter(tables, shards=2)
        try:
            shm_before = set(os.listdir("/dev/shm"))
            with pytest.raises(EngineError):
                router.route_arrays([0], [7])
            assert set(os.listdir("/dev/shm")) == shm_before
        finally:
            router.close()

    def test_finalizer_reaps_dropped_router(self, grid_metric):
        tables = ShortestPathScheme(grid_metric).compile_tables()
        router = ShardedRouter(tables, shards=2)
        router.route_arrays([0, 1], [7, 8])
        pids = router.worker_pids()
        name = router._segment.name
        assert pids and os.path.exists(os.path.join("/dev/shm", name))
        del router
        gc.collect()
        _assert_workers_dead(pids)
        assert not os.path.exists(os.path.join("/dev/shm", name))

    def test_close_is_idempotent(self, grid_metric):
        tables = ShortestPathScheme(grid_metric).compile_tables()
        router = ShardedRouter(tables, shards=2)
        pids = router.worker_pids()
        router.close()
        router.close()
        _assert_workers_dead(pids)


# ----------------------------------------------------------------------
# Input contract (satellite 3: validation shared with BatchRouter)
# ----------------------------------------------------------------------


class TestInputContract:
    @pytest.mark.parametrize("mode", ["batch", "sharded1", "sharded2"])
    def test_rejects_bad_inputs(self, grid_metric, mode):
        """Both routers reject malformed batches with the same errors,
        before any worker round runs."""
        tables = ShortestPathScheme(grid_metric).compile_tables()
        n = tables.n
        if mode == "batch":
            router = BatchRouter(tables)
        else:
            router = ShardedRouter(tables, shards=int(mode[-1]))
        try:
            with pytest.raises(ValueError, match="equal-length"):
                router.route_arrays([0, 1], [2])
            for bad_sources, bad_targets in (
                ([-1], [0]),
                ([0], [n]),
                ([n], [0]),
                ([0, 1], [1, -5]),
            ):
                with pytest.raises(
                    ValueError, match="node id out of range"
                ):
                    router.route_arrays(bad_sources, bad_targets)
        finally:
            if isinstance(router, ShardedRouter):
                router.close()


# ----------------------------------------------------------------------
# Determinism contract (satellite 2 regression)
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_injection_index_order(self, grid_metric, params):
        """Results come back in injection-index order: shuffling the
        batch permutes outputs identically — per-pair results do not
        depend on batch composition or position."""
        scheme = LandmarkNameIndependentScheme(grid_metric, params)
        router = BatchRouter(scheme.compile_tables(), metric=grid_metric)
        pairs = _all_pairs(grid_metric, limit=150, seed=7)
        base = router.route_batch(
            [s for s, _ in pairs], [t for _, t in pairs]
        )
        perm = list(range(len(pairs)))
        random.Random(13).shuffle(perm)
        shuffled = router.route_batch(
            [pairs[i][0] for i in perm], [pairs[i][1] for i in perm]
        )
        for slot, i in enumerate(perm):
            assert shuffled[slot] == base[i]

    def test_batch_equals_singleton(self, labeled_sf):
        router = BatchRouter(
            labeled_sf.compile_tables(), metric=labeled_sf.metric
        )
        pairs = _all_pairs(labeled_sf.metric, limit=40, seed=8)
        batch = router.route_batch(
            [s for s, _ in pairs], [t for _, t in pairs]
        )
        for (s, t), got in zip(pairs, batch):
            assert router.route(s, t) == got

    def test_repeated_runs_stable(self, grid_metric):
        router = BatchRouter(ShortestPathScheme(grid_metric).compile_tables())
        pairs = _all_pairs(grid_metric, limit=100, seed=9)
        a = router.route_arrays([s for s, _ in pairs], [t for _, t in pairs])
        b = router.route_arrays([s for s, _ in pairs], [t for _, t in pairs])
        np.testing.assert_array_equal(a["target"], b["target"])
        np.testing.assert_array_equal(a["cost"], b["cost"])


# ----------------------------------------------------------------------
# Compiler edges and caching
# ----------------------------------------------------------------------


class TestCompiler:
    def test_unsupported_scheme_raises(self, grid_metric):
        class Opaque(RoutingScheme):
            name = "opaque"

            def route(self, source, target):  # pragma: no cover
                raise NotImplementedError

            def table_bits(self):  # pragma: no cover
                return [0] * self._metric.n

            def header_bits(self):  # pragma: no cover
                return 0

        with pytest.raises(EngineUnsupported):
            compile_scheme(Opaque(grid_metric))

    def test_tables_report_size(self, grid_metric):
        tables = ShortestPathScheme(grid_metric).compile_tables()
        assert tables.kind == "shortest_path"
        assert tables.n == grid_metric.n
        assert tables.nbytes() > 0
        assert "max_sweeps" in tables.scalars

    def test_empty_batch(self, grid_metric):
        router = BatchRouter(ShortestPathScheme(grid_metric).compile_tables())
        out = router.route_arrays([], [])
        assert out["target"].size == 0
        assert out["sweeps"] == 0

    def test_mismatched_batch_rejected(self, grid_metric):
        router = BatchRouter(ShortestPathScheme(grid_metric).compile_tables())
        with pytest.raises(ValueError):
            router.route_arrays([0, 1], [2])
        with pytest.raises(ValueError):
            router.route_arrays([0], [grid_metric.n])

    def test_route_batch_needs_metric(self, grid_metric):
        router = BatchRouter(ShortestPathScheme(grid_metric).compile_tables())
        from repro.engine import EngineError

        with pytest.raises(EngineError):
            router.route_batch([0], [1])

    def test_context_caches_compiled(self, grid_metric, params):
        context = BuildContext()
        scheme = LandmarkNameIndependentScheme(grid_metric, params)
        first = context.compiled(scheme)
        second = context.compiled(scheme)
        assert first is second
