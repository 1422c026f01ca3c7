"""Cold-rebuild check: does a maintained scheme match a fresh build?

Incremental maintenance (churn repair, audited row healing) is only
worth having if it is provably exact.  :func:`cold_rebuild_divergence`
rebuilds a scheme from its graph alone in a fresh
:class:`~repro.pipeline.context.BuildContext` and compares the per-node
``table_bits_vector`` and the routes of a pair sample bit for bit.
Callers raise their own typed error on a divergence.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Type

import networkx as nx

from repro.core.params import SchemeParameters
from repro.core.types import NodeId
from repro.metric.graph_metric import DISTANCE_SLACK
from repro.pipeline.context import BuildContext


def cold_rebuild_divergence(
    scheme: Any,
    scheme_cls: Type,
    graph: nx.Graph,
    pairs: Sequence[Tuple[NodeId, NodeId]],
    params: Optional[SchemeParameters] = None,
) -> Optional[str]:
    """The first way ``scheme`` differs from a cold build on ``graph``.

    Returns ``None`` when the table sizes and every route over
    ``pairs`` (path exactly, cost within ``DISTANCE_SLACK``) match.
    ``graph`` is copied, never mutated.
    """
    context = BuildContext()
    cold = context.scheme(scheme_cls, context.metric(graph.copy()), params)
    if scheme.table_bits_vector() != cold.table_bits_vector():
        return "table_bits_vector diverged from cold rebuild"
    for u, v in pairs:
        warm = scheme.route(u, v)
        ref = cold.route(u, v)
        if warm.path != ref.path or abs(warm.cost - ref.cost) > DISTANCE_SLACK:
            return (
                f"route {u}->{v} diverged from cold rebuild: "
                f"{warm.path} != {ref.path}"
            )
    return None
