"""What the benchmark measures, beyond what ``BENCHMARK.json`` holds.

``BENCHMARK.json`` at the repository root is the single source of the
workload names and reasons, the metric names and units, and the bounds;
this module reads them from it.  It adds what that file cannot hold: the
parameters of each workload, what each end-to-end metric times, and the
end-to-end metric and workload each per-layer metric should move.
``baseline.json`` next to it holds the medians and quartiles measured at
the seed commit.

Every workload is a closed loop with one client: the client issues its
next ``route_arrays`` call, or its next edit, only after the previous
one returns.  A run is ``setup_reps`` cold set-ups; the last
``serve_slices`` of them each serve ``warmup`` unsampled client steps,
then an even share of at least ``steps`` sampled client steps and at
least ``--seconds`` of serving wall time, whichever ends later.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# -- workloads ---------------------------------------------------------

#: Full-size parameters of each workload.  ``steps`` is the floor on
#: sampled client steps per run; ``warmup`` steps run first and are not
#: sampled; ``gate_pairs`` is the sample checked against the interpreted
#: ``route()`` after serving.  ``setup_reps`` is the number of set-ups
#: ``setup_s`` is the median of; with three, geo-churn's (0.1-0.2 s
#: each) spread 0.26 across seeds, so it sets up twenty times.  The
#: serving is split over the last ``serve_slices`` set-ups: pa-build's
#: three 8-9 s builds would otherwise take the first half of each run,
#: and its calls would sample the host's speed only in the second.
#:
#: geo-churn restarts its edit sequence from an untimed cold build every
#: ``replay`` edits.  Its graph grows under the default edit mix, and a
#: repair's cost with it (medians of 240-285 ms over the first 25 edits
#: and 345-400 ms over edits 75-100, on two seeds), so a run that kept
#: editing would do costlier work the faster the host ran.
#:
#: There is no separate sharded-serving workload.  ``ShardedRouter``
#: runs two worker processes beside the client on a 2-vCPU host, and its
#: per-call latency spread 0.3-1.0 of its median between runs of the same
#: code, wider than any bound BENCHMARK.json allows.  pa-build instead
#: serves ``shard_calls`` batches through it after the sampled steps,
#: checked against ``BatchRouter`` and timed only by the traced run.
#:
#: The topology is a fixed fixture per workload (``graph_seed``, as in the
#: repository's acceptance fixtures), and so is geo-churn's edit sequence
#: (``edit_seed``); ``--seed`` drives the route pairs.  Drawing the graph
#: from ``--seed`` made geo-churn's median repair time spread 0.20 across
#: seeds against 0.03 for repeated runs of one seed.  Drawing the 50-edit
#: sequence from it put 20% between two seeds' median repair times
#: (251-262 ms on seed 106, 304-332 ms on seed 103, two runs each), on
#: top of the host's own drift.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "pa-build": {
        "n": 4096,
        "graph_seed": 1,
        "batch": 1024,
        "warmup": 10,
        "steps": 200,
        "setup_reps": 3,
        "serve_slices": 3,
        "gate_pairs": 200,
        # the sharded pass after the sampled steps (shard.* metrics)
        "shards": 2,
        "shard_batch": 4096,
        "shard_calls": 20,
    },
    "geo-churn": {
        # Lemma 3.4's stretch envelope 1 + 8(1/eps + 1)/(1/eps - 2) is
        # finite only for eps < 1/2; at the default eps = 0.5 random
        # geometric graphs reach stretch 16-24, so the stretch gate runs at
        # eps = 0.25, whose repairs cost twice as much; n = 96 keeps 100
        # edits per run within the time budget.
        "n": 96,
        "graph_seed": 1,
        "edit_seed": 1,
        "epsilon": 0.25,
        "batch": 1024,
        # the set-ups warm the process; every replay starts cold
        "warmup": 0,
        "steps": 100,
        "replay": 50,
        "setup_reps": 20,
        "serve_slices": 1,
        "gate_pairs": 300,
    },
}

#: Tiny sizes for the smoke tests: every workload in seconds.
SMOKE: Dict[str, Dict[str, object]] = {
    "pa-build": {
        "n": 256, "batch": 128, "warmup": 2, "steps": 12, "setup_reps": 2, "serve_slices": 2,
        "gate_pairs": 40,
        "shard_batch": 256, "shard_calls": 3,
    },
    "geo-churn": {
        "n": 24, "batch": 64, "steps": 12, "replay": 6, "setup_reps": 2, "gate_pairs": 60,
    },
}


def params(workload: str, smoke: bool = False) -> Dict[str, object]:
    """The parameters of ``workload``, with the smoke overrides if asked."""
    out = dict(WORKLOADS[workload])
    if smoke:
        out.update(SMOKE[workload])
    return out


    """The parameters of ``workload``, with the smoke overrides if asked."""
    out = dict(WORKLOADS[workload])
    if smoke:
        out.update(SMOKE[workload])
    return out


# -- metrics ------------------------------------------------------------

#: End-to-end metrics (reported with --trace 0) and per-layer metrics
#: (reported with --trace 1), each with its name, unit and direction.
END_TO_END: List[Dict[str, object]] = BENCHMARK["end_to_end"]
PER_LAYER: List[Dict[str, object]] = BENCHMARK["per_layer"]

#: Seconds of serving per run.
RUN_SECONDS: int = BENCHMARK["run_seconds"]

#: What each end-to-end metric times.  Latencies are over every sampled
#: step of the run, at least ``steps`` of them.  On the shared 2-vCPU
#: host the benchmark was tuned on, the machine's speed drifts by up to
#: 2x over seconds to minutes, so a run measures ``--seconds`` of serving
#: (BENCHMARK.json's ``run_seconds``) and reports medians over all of it.
TIMES: Dict[str, str] = {
    "setup_s": "graph generation to ready-to-route; median of the run's set-ups",
    "routes_per_s": "routes answered / summed wall time of the route_arrays calls",
    "batch_ms_p50": "median route_arrays call latency",
    "step_ms_p50": "median client-step latency: a route_arrays call on pa-build; "
    "on geo-churn one edit's repair, from apply_edit until the fresh compiled "
    "tables return",
    "peak_rss_mb": "ru_maxrss of the main process plus that of the largest "
    "worker process (pa-build's sharded pass), read after the routers close",
    "batch_ms_p90": "90th-percentile route_arrays call latency",
    "step_ms_p90": "90th-percentile client-step latency",
}

#: Figures every run prints and keeps in its report, with their units,
#: that BENCHMARK.json does not bound.  The slowest tenth of a run's
#: steps is where the host's slow moments land: in ten runs of the same
#: code, geo-churn's step_ms_p90 spread 0.27 of its median (0.17 for
#: step_ms_p50), past the largest bound BENCHMARK.json allows.
REPORTED: Dict[str, str] = {"batch_ms_p90": "ms", "step_ms_p90": "ms"}

#: The prediction written down before any optimisation: the end-to-end
#: metric and workload each per-layer metric should move.  A layer a
#: workload does not exercise reports 0.
MOVES: Dict[str, str] = {
    "graphs.generate_s": "setup_s on all workloads; predicted negligible",
    "metric.build_s": "setup_s on pa-build",
    "metric.search_s": "setup_s on pa-build: the per-node bounded "
    "searches and landmark rows the scheme build asks the metric for",
    "metric.rows_materialized": "setup_s on pa-build",
    "metric.bounded_searches": "setup_s on pa-build",
    "metric.row_hit_ratio": "setup_s on pa-build",
    "metric.evictions": "setup_s on pa-build; zero on geo-churn",
    "nets.hierarchy_s": "setup_s and step_ms_* on geo-churn",
    "schemes.build_s": "setup_s on pa-build",
    "schemes.labeled_s": "setup_s on geo-churn",
    "schemes.rebuild_ms": "step_ms_* on geo-churn",
    "schemes.table_bits_mean": "nothing: a guard that must not move",
    "schemes.stretch_mean": "nothing: a guard that must not move",
    "schemes.interp_routes_per_s": "nothing end to end: the interpreted route() is the oracle",
    "pipeline.apply_edit_ms": "step_ms_* on geo-churn",
    "pipeline.dirty_rows": "step_ms_* on geo-churn",
    "pipeline.artifacts_built": "step_ms_* on geo-churn",
    "pipeline.reuse_ratio": "step_ms_* on geo-churn",
    "compiler.compile_s": "setup_s on all workloads",
    "compiler.recompile_ms": "step_ms_* on geo-churn",
    "compiler.table_mb": "peak_rss_mb on all workloads",
    "batch.route_ms": "routes_per_s and batch_ms_* on pa-build and geo-churn",
    "batch.sweeps": "routes_per_s and batch_ms_* on pa-build and geo-churn",
    "shard.start_s": "nothing end to end: pa-build's untimed sharded pass",
    "shard.route_ms": "nothing end to end: pa-build's untimed sharded pass; "
    "what pair-parallel serving should cut",
    "shard.rounds": "shard.route_ms on pa-build",
    "shard.worker_mb": "peak_rss_mb on pa-build",
    "churn.draw_ms": "nothing end to end: drawn outside step_ms; predicted negligible",
    "trace.overhead_setup_s": "nothing: traced setup_s minus that of a separate "
    "untraced process with the same seed",
    "trace.overhead_step_ms": "nothing: traced step_ms_p50 minus that of a "
    "separate untraced process with the same seed",
}
