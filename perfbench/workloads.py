"""The workloads: set-up, closed-loop client, correctness gate.

Only the program's stable entry points are called: the graph
generators, ``BuildContext.metric/hierarchy/scheme/compiled/apply_edit``,
``EditStream.draw``, ``scheme.route/table_bits_vector`` and
``BatchRouter``/``ShardedRouter.route_arrays``.  The program's own
counters (``substrate_stats()``, ``BuildContext.stats``, ``sweeps``,
``rounds``, ``partition_bytes()``, the tables' ``nbytes()`` and
``leg_names``) are read through :func:`_read`, which records a missing
one as absent instead of failing.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional

import numpy as np

import gate
import spec
from spans import NO_SPANS
from repro.churn.stream import EditStream
from repro.core.params import SchemeParameters
from repro.engine import BatchRouter, ShardedRouter
from repro.graphs.generators import preferential_attachment, random_geometric
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.context import BuildContext
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme

#: The metric's public queries.  The traced pass times every call to them
#: as a summed ``metric/<query>`` span, so the bounded searches and rows a
#: build asks for count as metric time, not as time of the layer asking.
METRIC_QUERIES = (
    "distance", "distances_from", "predecessors_from", "eccentricity",
    "ball", "ball_with_distances", "ball_size", "size_radius", "size_ball",
    "size_ball_with_radius", "r_u", "nearest_in", "nearest_among",
    "next_hop", "shortest_path", "ball_set", "max_distance_to",
)
METRIC_SPANS = tuple(f"metric/{query}" for query in METRIC_QUERIES)


class Pass:
    """What one pass of a workload measured, and what went wrong.

    ``call_s``, ``call_routes`` and ``step_s`` hold one sample per
    client step of the serving loop; warm-up steps are not sampled.
    """

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.call_s: List[float] = []
        self.call_routes: List[int] = []
        self.step_s: List[float] = []
        self.sampling = False
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.sweeps: List[int] = []
        self.rounds: List[int] = []
        self.dirty: List[int] = []
        self.builds_setup: Optional[Dict[str, int]] = None
        self.builds_fixed: Optional[Dict[str, int]] = None
        self.counted_steps = 0
        self.hits_setup: Optional[Dict[str, int]] = None
        self.hits_fixed: Optional[Dict[str, int]] = None
        self.counters: Dict[str, float] = {}
        self.absent: List[str] = []
        self.problems: List[str] = []

    def end_to_end(self) -> Dict[str, Dict[str, object]]:
        """Every end-to-end metric and reported figure, with unit and sample count."""
        call_ms = np.asarray(self.call_s) * 1e3
        step_ms = np.asarray(self.step_s) * 1e3
        call_s = sum(self.call_s)
        values = {
            "setup_s": (statistics.median(self.setup_s), len(self.setup_s)),
            "routes_per_s": (sum(self.call_routes) / call_s if call_s else 0.0, call_ms.size),
            "batch_ms_p50": (_pct(call_ms, 50), call_ms.size),
            "batch_ms_p90": (_pct(call_ms, 90), call_ms.size),
            "step_ms_p50": (_pct(step_ms, 50), step_ms.size),
            "step_ms_p90": (_pct(step_ms, 90), step_ms.size),
            "peak_rss_mb": (self.peak_rss_mb, 1),
        }
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        units.update(spec.REPORTED)
        return {
            name: {"value": value, "unit": units[name], "samples": count}
            for name, (value, count) in values.items()
        }


def _pct(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q)) if samples.size else 0.0


def _read(run: Pass, name: str, getter: Callable[[], object]) -> object:
    """A program counter, or None (recorded as absent) if it is gone."""
    try:
        return getter()
    except (AttributeError, KeyError, TypeError):
        if name not in run.absent:
            run.absent.append(name)
        return None


def _stats(run: Pass, ctx, outcome: str) -> Optional[Dict[str, int]]:
    counts = _read(run, f"BuildContext.stats.{outcome}", lambda: getattr(ctx.stats, outcome))
    return None if counts is None else dict(counts)


@contextlib.contextmanager
def _timed_metric(run: Pass, spans):
    """While tracing, route every metric query through ``spans.summed``."""
    summed = getattr(spans, "summed", None)
    saved = {}
    if summed is not None:
        for query in METRIC_QUERIES:
            fn = _read(run, f"GraphMetric.{query}", lambda: GraphMetric.__dict__[query])
            if fn is not None:
                saved[query] = fn
                setattr(GraphMetric, query, summed(f"metric/{query}", fn))
    try:
        yield
    finally:
        for query, fn in saved.items():
            setattr(GraphMetric, query, fn)


def _peak_rss_mb() -> float:
    """Main-process peak RSS plus the largest reaped child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# -- set-ups ------------------------------------------------------------


class State:
    """The serving state one set-up produces."""

    graph = ctx = metric = scheme = tables = router = stream = None
    edits = 0

    def close(self) -> None:
        close = getattr(self.router, "close", None)
        if close is not None:
            close()


def _setup_pa(p, spans, group: str) -> State:
    s = State()
    with spans.span("graphs/generate", group):
        s.graph = preferential_attachment(p["n"], m=2, seed=p["graph_seed"])
    s.ctx = BuildContext()
    with spans.span("metric/build", group):
        s.metric = s.ctx.metric(s.graph, strategy="lazy")
    with spans.span("schemes/build", group):
        s.scheme = s.ctx.scheme(LandmarkNameIndependentScheme, s.metric)
    with spans.span("engine.compiler/compile", group):
        s.tables = s.ctx.compiled(s.scheme)
    s.router = BatchRouter(s.tables)
    return s


def _build_geo(s: State, p, spans, group: str) -> None:
    """Resolve the paper's scheme layer by layer through the context.

    The hierarchy and the underlying labeled scheme are requested
    before ``SimpleNameIndependentScheme`` so their time is separated;
    the scheme's own request then hits the context's cache for both.
    """
    params = SchemeParameters(epsilon=p["epsilon"])
    with spans.span("metric/build", group):
        s.metric = s.ctx.metric(s.graph, strategy="dense")
    with spans.span("nets/hierarchy", group):
        s.ctx.hierarchy(s.metric)
    with spans.span("schemes/labeled", group):
        s.ctx.scheme(NonScaleFreeLabeledScheme, s.metric, params)
    with spans.span("schemes/build", group):
        s.scheme = s.ctx.scheme(SimpleNameIndependentScheme, s.metric, params)
    with spans.span("engine.compiler/compile", group):
        s.tables = s.ctx.compiled(s.scheme)


def _fill_geo(s: State, p, spans, group: str) -> None:
    """A cold geo-churn state in ``s``, with its edit stream at the start."""
    with spans.span("graphs/generate", group):
        s.graph = random_geometric(p["n"], seed=p["graph_seed"])
    s.ctx = BuildContext()
    _build_geo(s, p, spans, group)
    s.router = BatchRouter(s.tables)
    s.stream = EditStream(seed=p["edit_seed"], max_nodes=2 * p["n"])
    s.edits = 0


def _setup_geo(p, spans, group: str) -> State:
    s = State()
    _fill_geo(s, p, spans, group)
    return s


# -- client steps -----------------------------------------------------------


def _pairs(s: State, rng, size: int):
    n = s.graph.number_of_nodes()
    return (
        rng.integers(0, n, size=size, dtype=np.int64),
        rng.integers(0, n, size=size, dtype=np.int64),
    )


def _route(run: Pass, s: State, p, rng, spans, group: str) -> float:
    """One ``BatchRouter.route_arrays`` call on fresh uniform pairs; its time."""
    src, tgt = _pairs(s, rng, p["batch"])
    run.attempted += src.size
    start = time.perf_counter()
    try:
        with spans.span("engine.batch/route_arrays", group):
            out = s.router.route_arrays(src, tgt)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    elapsed = time.perf_counter() - start
    if run.sampling:
        run.call_s.append(elapsed)
        run.call_routes.append(0 if out is None else src.size)
    if out is None:
        run.failed += src.size
        return elapsed
    run.failed += gate.misdelivered(out, tgt)
    sweeps = _read(run, "route_arrays.sweeps", lambda: out["sweeps"])
    if sweeps is not None:
        run.sweeps.append(int(sweeps))
    return elapsed


def _step_pa(run: Pass, s: State, p, rng, spans, i: int) -> bool:
    group = f"batch-{i}"
    with spans.span("bench/batch", group):
        elapsed = _route(run, s, p, rng, spans, group)
    if run.sampling:
        run.step_s.append(elapsed)
    return True


def _serve_sharded(run: Pass, s: State, p, seed: int, spans) -> None:
    """pa-build's sharded pass, after the sampled steps: untimed end to end.

    ``ShardedRouter(shards=2)`` serves ``shard_calls`` batches of
    ``shard_batch`` fresh pairs from the same tables; each output must
    equal ``BatchRouter``'s on the same pairs exactly.  The traced run
    times it for the ``shard.*`` metrics.
    """
    rng = np.random.default_rng([seed, 2])
    with spans.span("engine.shard/start", "shard"):
        router = ShardedRouter(s.tables, shards=p["shards"])
    try:
        for i in range(p["shard_calls"]):
            src, tgt = _pairs(s, rng, p["shard_batch"])
            run.attempted += src.size
            with spans.span("engine.shard/route_arrays", f"shard-{i}"):
                out = router.route_arrays(src, tgt)
            run.failed += gate.misdelivered(out, tgt)
            run.problems += gate.same_outputs(
                "ShardedRouter vs BatchRouter", out, s.router.route_arrays(src, tgt)
            )
            rounds = _read(run, "route_arrays.rounds", lambda: out["rounds"])
            if rounds is not None:
                run.rounds.append(int(rounds))
        per_worker = _read(run, "partition_bytes", lambda: router.partition_bytes()["per_worker"])
        if per_worker is not None:
            run.counters["worker_bytes"] = float(max(per_worker))
    finally:
        router.close()


def _step_geo(run: Pass, s: State, p, rng, spans, i: int) -> bool:
    """One edit: draw, repair the warm context, recompile, route a batch.

    Every ``replay`` edits the state is rebuilt cold, untimed, and the
    edit stream starts over, so a run repeats one edit sequence rather
    than growing its graph for as long as the host lets it.  A
    failed repair ends the loop: the context is no longer trustworthy.
    """
    group = f"edit-{i}"
    if s.edits == p["replay"]:
        _fill_geo(s, p, NO_SPANS, "replay")
    with spans.span("bench/edit", group):
        run.attempted += 1
        try:
            with spans.span("churn/draw", group):
                edit = s.stream.draw(s.graph)
            start = time.perf_counter()
            with spans.span("pipeline/apply_edit", group):
                report = s.ctx.apply_edit(s.graph, edit)
            _build_geo(s, p, spans, group)
            elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            run.failed += 1
            return False
        s.edits += 1
        if run.sampling:
            run.step_s.append(elapsed)
        dirty = _read(run, "EditReport.dirty", lambda: report.dirty)
        if dirty is not None:
            run.dirty.append(len(dirty))
        s.router = BatchRouter(s.tables)
        _route(run, s, p, rng, spans, group)
    return True


SETUPS = {"pa-build": _setup_pa, "geo-churn": _setup_geo}
STEPS = {"pa-build": _step_pa, "geo-churn": _step_geo}


# -- one pass -------------------------------------------------------------


def _serve(run: Pass, s: State, p, step_fn, rng, spans, step: int, steps: int, seconds: float):
    """``warmup`` unsampled steps, then at least ``steps`` sampled steps and
    at least ``seconds`` of serving, whichever ends later.

    The build counts per step are taken over the first ``counted_steps``
    sampled steps, within one geo-churn replay.  Returns whether every
    step succeeded and the next step index.
    """
    ok = True
    for _ in range(p["warmup"]):
        ok = ok and step_fn(run, s, p, rng, spans, step)
        step += 1
    run.builds_setup = _stats(run, s.ctx, "misses")
    run.hits_setup = _stats(run, s.ctx, "hits")
    run.counted_steps = min(steps, p.get("replay", steps))
    run.sampling = True
    start, sampled = time.perf_counter(), 0
    while ok and (sampled < steps or time.perf_counter() - start < seconds):
        ok = step_fn(run, s, p, rng, spans, step)
        step += 1
        sampled += 1
        if sampled == run.counted_steps:
            run.builds_fixed = _stats(run, s.ctx, "misses")
            run.hits_fixed = _stats(run, s.ctx, "hits")
    run.sampling = False
    return ok, step


def run_pass(workload: str, seed: int, seconds: float, spans, smoke: bool = False) -> Pass:
    """Set up ``setup_reps`` times, serving from each of the last
    ``serve_slices`` set-ups in turn, then gate the last one.

    The serving is split evenly over the slices (``steps`` and
    ``seconds`` in all), so on pa-build the sampled calls span the whole
    run, set-ups included, instead of its last ``seconds``.
    """
    p = spec.params(workload, smoke)
    slices = p["serve_slices"]
    run = Pass()
    s: Optional[State] = None
    rng = np.random.default_rng([seed, 0])
    step, ok = 0, True
    with _timed_metric(run, spans):
        try:
            for rep in range(p["setup_reps"]):
                if s is not None:
                    s.close()
                    s = None
                    gc.collect()
                group = f"setup-{rep}"
                origin = time.perf_counter()
                with spans.span("bench/setup", group):
                    s = SETUPS[workload](p, spans, group)
                run.setup_s.append(time.perf_counter() - origin)
                if ok and rep >= p["setup_reps"] - slices:
                    ok, step = _serve(
                        run, s, p, STEPS[workload], rng, spans, step,
                        math.ceil(p["steps"] / slices), seconds / slices,
                    )
            if not ok:
                run.problems.append(f"client stopped at step {step}")
            try:
                if p.get("shards"):
                    _serve_sharded(run, s, p, seed, spans)
                _check(run, s, p, seed)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                run.problems.append(f"gate raised {exc!r}")
        finally:
            if s is not None:
                s.close()
    return run


def _check(run: Pass, s: State, p, seed: int) -> None:
    """Counters, peak memory and the correctness gate, all untimed."""
    n = s.graph.number_of_nodes()
    rng = np.random.default_rng([seed, 1])
    src = rng.integers(0, n, size=p["gate_pairs"], dtype=np.int64)
    tgt = rng.integers(0, n, size=p["gate_pairs"], dtype=np.int64)
    out = s.router.route_arrays(src, tgt)
    if gate.misdelivered(out, tgt):
        run.problems.append("gate sample: a delivered target differs from the request")

    substrate = _read(run, "substrate_stats", s.ctx.substrate_stats)
    if substrate is not None:
        run.counters.update({f"substrate.{k}": float(v) for k, v in substrate.items()})
    nbytes = _read(run, "CompiledTables.nbytes", s.tables.nbytes)
    if nbytes is not None:
        run.counters["table_bytes"] = float(nbytes)
    s.close()
    run.peak_rss_mb = _peak_rss_mb()

    start = time.perf_counter()
    results = [s.scheme.route(u, v) for u, v in zip(src.tolist(), tgt.tolist())]
    run.counters["interp_routes_per_s"] = len(results) / (time.perf_counter() - start)
    leg_names = _read(run, "CompiledTables.leg_names", lambda: s.tables.leg_names)
    run.problems += gate.against_interpreted(results, out, leg_names, gate.stretch_bound(s.scheme))
    stretches = [r.stretch for r in results if r.source != r.target]
    run.counters["stretch_mean"] = statistics.fmean(stretches) if stretches else 1.0
    bits = s.scheme.table_bits_vector()
    run.counters["table_bits_mean"] = statistics.fmean(bits)

    if s.stream is not None:
        # The warm, incrementally repaired tables must match a cold
        # rebuild of the final graph.
        cold = State()
        cold.graph = s.graph.copy()
        cold.ctx = BuildContext()
        _build_geo(cold, p, NO_SPANS, "gate")
        run.problems += gate.same_table_bits(bits, cold.scheme.table_bits_vector())
        cold_out = BatchRouter(cold.tables).route_arrays(src, tgt)
        run.problems += gate.same_outputs("warm vs cold rebuild", out, cold_out)
