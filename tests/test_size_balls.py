"""The batched size-ball primitive and the landmark build that uses it.

``GraphMetric.size_balls`` must equal the per-node queries it replaces
— ``size_ball_with_radius`` + ``next_hop`` + ``distance`` — bit for bit,
on both substrate strategies, over generated graphs: unit-weight
preferential-attachment tie storms, stars, paths, ``n ∈ {1, 2}`` and
small weighted graphs, at ``size ∈ {1, n}`` and in between, with row
budgets small enough to force evictions and chunks small enough to
force several chunks and retries.

The landmark scheme is then held to a *scalar reference build* that
lives only in this file: the per-member query loop, the per-node chain
walk for tree depth, and the dict walk that lowered vicinities into the
compiled ``VIC_*`` arrays.
"""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import repro.metric.substrate as substrate
from repro.graphs.generators import (
    exponential_path,
    grid_2d,
    internet_as_like,
    path_graph,
    preferential_attachment,
    random_geometric,
    star_graph,
)
from repro.metric.graph_metric import GraphMetric
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme

from tests.test_rnet import random_connected_graph

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- graphs ---------------------------------------------------------------


@st.composite
def shaped_graph(draw):
    """A connected graph from one of the adversarial shapes."""
    shape = draw(st.sampled_from(["pa", "star", "path", "tiny", "weighted"]))
    if shape == "pa":
        n = draw(st.integers(min_value=3, max_value=60))
        m = draw(st.integers(min_value=1, max_value=min(3, n - 1)))
        return preferential_attachment(n, m=m, seed=draw(st.integers(0, 99)))
    if shape == "star":
        return star_graph(draw(st.integers(min_value=2, max_value=30)))
    if shape == "path":
        return path_graph(draw(st.integers(min_value=1, max_value=30)))
    if shape == "tiny":
        graph = nx.Graph()
        graph.add_node(0)
        if draw(st.booleans()):
            graph.add_edge(0, 1, weight=float(draw(st.integers(1, 5))))
        return graph
    return draw(random_connected_graph())


def _scalar_balls(metric, size, sources):
    """``size_balls`` by per-node queries (the pre-batch answer)."""
    members, dists, hops = [], [], []
    for u in sources:
        _, ball = metric.size_ball_with_radius(u, size)
        members.append(ball)
        dists.append([metric.distance(u, v) for v in ball])
        hops.append([metric.next_hop(u, v) for v in ball])
    return members, dists, hops


def _assert_balls_equal(batched, scalar):
    members, dists, hops = batched
    assert members.dtype == np.int64 and hops.dtype == np.int64
    assert dists.dtype == np.float64
    assert members.tolist() == scalar[0]
    assert dists.tolist() == scalar[1]
    assert hops.tolist() == scalar[2]


class TestSizeBallsProperty:
    @seed(1217)
    @given(
        graph=shaped_graph(),
        strategy=st.sampled_from(["dense", "lazy"]),
        size_pick=st.sampled_from(["one", "all", "mid"]),
        budget=st.sampled_from([None, 64]),
        chunk=st.sampled_from([1, 3, 256]),
        data=st.data(),
    )
    @PROPERTY
    def test_matches_per_node_queries(
        self, graph, strategy, size_pick, budget, chunk, data
    ):
        metric = GraphMetric(graph, strategy=strategy, row_budget_bytes=budget)
        n = metric.n
        size = {"one": 1, "all": n}.get(size_pick) or data.draw(
            st.integers(min_value=1, max_value=n)
        )
        sources = data.draw(
            st.none()
            | st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8)
        )
        expected_sources = range(n) if sources is None else sources
        with mock.patch.object(substrate, "_ROW_CHUNK", chunk):
            batched = metric.size_balls(size, sources)
            scalar = _scalar_balls(metric, size, expected_sources)
            # The scalar queries filled (and, at a 64-byte budget,
            # evicted from) the row store; the batch never reads it.
            again = metric.size_balls(size, sources)
        _assert_balls_equal(batched, scalar)
        _assert_balls_equal(again, scalar)
        forced = budget is not None and strategy == "lazy" and sources is None
        if forced and n >= 2:
            assert metric.substrate_stats()["evictions"] > 0

    @pytest.mark.parametrize("strategy", ["dense", "lazy"])
    def test_pa_tie_storm_across_chunks(self, strategy):
        metric = GraphMetric(
            preferential_attachment(700, m=2, seed=5), strategy=strategy
        )
        batched = metric.size_balls(27)
        _assert_balls_equal(batched, _scalar_balls(metric, 27, metric.nodes))

    def test_rejects_bad_arguments(self):
        metric = GraphMetric(path_graph(4))
        with pytest.raises(ValueError):
            metric.size_balls(0)
        with pytest.raises(ValueError):
            metric.size_balls(5)
        with pytest.raises(ValueError):
            metric.size_balls(2, [0, 4])

    def test_empty_sources(self):
        members, dists, hops = GraphMetric(path_graph(4)).size_balls(2, [])
        assert members.shape == dists.shape == hops.shape == (0, 2)


class TestSubstrateCounters:
    """``bounded_searches`` counts every per-source search, retries
    included; ``rows_materialized`` counts only rows put in the store."""

    def test_retries_count_as_bounded_searches(self):
        # One source on a unit path: limits 1, 2, 4, 8, 16 settle
        # 2, 3, 5, 9, 10 nodes, so a ball of 10 takes five searches.
        metric = GraphMetric(path_graph(10), strategy="lazy")
        metric.size_balls(10, [0])
        stats = metric.substrate_stats()
        assert stats["bounded_searches"] == 5
        assert stats["rows_materialized"] == 0

    def test_batch_never_enters_the_row_store(self):
        metric = GraphMetric(
            preferential_attachment(300, m=2, seed=2), strategy="lazy"
        )
        metric.size_balls(metric.n)  # every search settles every node
        stats = metric.substrate_stats()
        assert stats["rows_materialized"] == 0
        assert stats["stored_bytes"] == 0
        assert stats["row_hits"] == stats["row_misses"] == 0
        assert stats["bounded_searches"] >= metric.n

    def test_landmark_build_materializes_only_landmark_rows(self):
        metric = GraphMetric(
            preferential_attachment(2048, m=2, seed=1), strategy="lazy"
        )
        scheme = LandmarkNameIndependentScheme(metric)
        stats = metric.substrate_stats()
        assert stats["rows_materialized"] == len(scheme.landmarks)
        assert stats["bounded_searches"] >= metric.n


# -- the scalar reference build ---------------------------------------------


def _chain_walk_depth(pred_matrix) -> int:
    """Max hop depth over landmark trees by per-node chain walks."""
    depth_max = 0
    n = pred_matrix.shape[1]
    for row in pred_matrix:
        depth = np.zeros(n, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        for v in range(n):
            chain = []
            x = v
            while not seen[x] and row[x] >= 0:
                chain.append(x)
                x = int(row[x])
            base = depth[x]
            for i, node in enumerate(reversed(chain), start=1):
                depth[node] = base + i
                seen[node] = True
            seen[x] = True
        depth_max = max(depth_max, int(depth.max()))
    return depth_max


class ScalarLandmarkScheme(LandmarkNameIndependentScheme):
    """The landmark scheme built by per-member scalar queries."""

    def _build_vicinities(self, size):
        metric = self._metric
        vicinities = []
        rows = []
        for u in metric.nodes:
            _, members = metric.size_ball_with_radius(u, size)
            entry = {}
            row = []
            for v in members:
                if v == u:
                    continue
                value = (
                    v,
                    self._home[v],
                    metric.next_hop(u, v),
                    metric.distance(u, v),
                )
                entry[self.name_of(v)] = value
                row.append(value)
            vicinities.append(entry)
            rows.append(row)
        # The arrays the compiler reads, as the scalar loop saw them.
        self._vic_members = np.array(
            [[v for v, _, _, _ in row] for row in rows], dtype=np.int64
        ).reshape(metric.n, size - 1)
        self._vic_hops = np.array(
            [[h for _, _, h, _ in row] for row in rows], dtype=np.int64
        ).reshape(metric.n, size - 1)
        return vicinities

    def _max_tree_depth(self):
        return _chain_walk_depth(self._landmark_pred)


def _dict_walk_vic_arrays(scheme):
    """``VIC_*`` arrays by walking the vicinity dicts in name order."""
    n = scheme.metric.n
    keys, tgt, home, hop = [], [], [], []
    for u in scheme.metric.nodes:
        for name in sorted(scheme._vicinity[u]):
            v, v_home, v_hop, _ = scheme._vicinity[u][name]
            keys.append(u * n + name)
            tgt.append(v)
            home.append(v_home)
            hop.append(v_hop)
    return {
        "VIC_KEY": np.asarray(keys or [-1], dtype=np.int64),
        "VIC_TGT": np.asarray(tgt or [0], dtype=np.int64),
        "VIC_HOME": np.asarray(home or [0], dtype=np.int64),
        "VIC_HOP": np.asarray(hop or [0], dtype=np.int64),
    }


FIXTURES = {
    "grid": lambda: grid_2d(6),
    "pa-tie-storm": lambda: preferential_attachment(400, m=2, seed=1),
    "as-like": lambda: internet_as_like(300, m=2, seed=1),
    "geometric": lambda: random_geometric(150, seed=11),
    "exp-path": lambda: exponential_path(16),
    "star": lambda: star_graph(12),
    "path": lambda: path_graph(9),
    "pair": lambda: path_graph(2),
    "single": lambda: path_graph(1),
}


def _assert_matches_reference(graph, strategy, **kwargs):
    metric = GraphMetric(graph, strategy=strategy)
    # A shuffled naming, so name order and node order differ.
    rng = np.random.default_rng(metric.n)
    kwargs["naming"] = rng.permutation(metric.n).tolist()
    scheme = LandmarkNameIndependentScheme(metric, **kwargs)
    reference = ScalarLandmarkScheme(
        GraphMetric(graph, strategy=strategy), **kwargs
    )
    assert scheme._vicinity == reference._vicinity
    assert scheme._tree_depth == reference._tree_depth
    assert scheme._tree_depth == _chain_walk_depth(scheme._landmark_pred)
    assert scheme.table_bits_vector() == reference.table_bits_vector()
    compiled = scheme.compile_tables().arrays
    expected = dict(reference.compile_tables().arrays)
    expected.update(_dict_walk_vic_arrays(reference))
    assert set(compiled) == set(expected)
    for key, array in expected.items():
        assert compiled[key].dtype == array.dtype, key
        assert np.array_equal(compiled[key], array), key


class TestLandmarkAgainstScalarReference:
    @pytest.mark.parametrize("strategy", ["dense", "lazy"])
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_fixtures(self, fixture, strategy):
        _assert_matches_reference(FIXTURES[fixture](), strategy)

    @pytest.mark.parametrize("vicinity_size", [1, 2, 36])
    def test_vicinity_extremes(self, vicinity_size):
        _assert_matches_reference(
            grid_2d(6), "lazy", vicinity_size=vicinity_size
        )

    @seed(4096)
    @given(graph=shaped_graph(), strategy=st.sampled_from(["dense", "lazy"]))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_generated_graphs(self, graph, strategy):
        _assert_matches_reference(graph, strategy)
