"""Shared-substrate build pipeline.

The expensive artifacts behind every experiment — APSP ``GraphMetric``,
``NetHierarchy``, ``BallPacking``, and fully-built routing schemes — are
deterministic functions of ``(graph, parameters)``.  This layer builds
each exactly once per run and shares it everywhere:

* :class:`~repro.pipeline.context.BuildContext` — memoizing factory for
  substrates and schemes, keyed by graph content hash + parameters, with
  an optional on-disk artifact cache under ``.repro-cache/``;
* :mod:`~repro.pipeline.registry` — the declarative experiment registry
  (``name -> spec -> runner``) the CLI dispatches through;
* :mod:`~repro.pipeline.parallel` — deterministic ordered fan-out over
  independent work items ((graph, scheme) cells);
* :mod:`~repro.pipeline.sampling` — the single source-destination pair
  sampler every workload generator draws from;
* :mod:`~repro.pipeline.verify` — the cold-rebuild check incremental
  maintenance is held to.
"""

from repro.pipeline.context import BuildContext, BuildStats
from repro.pipeline.parallel import parallel_map
from repro.pipeline.registry import (
    REGISTRY,
    ExperimentSpec,
    run_experiment,
)
from repro.pipeline.sampling import draw_pair, sample_ordered_pairs
from repro.pipeline.verify import cold_rebuild_divergence

__all__ = [
    "BuildContext",
    "BuildStats",
    "ExperimentSpec",
    "REGISTRY",
    "cold_rebuild_divergence",
    "draw_pair",
    "parallel_map",
    "run_experiment",
    "sample_ordered_pairs",
]
