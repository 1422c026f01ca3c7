"""Name-independent landmark routing for the Internet-scale regime.

The paper's doubling-metric schemes build ``(1/ε)^O(α)``-size ring and
ball structures per level; on *non-doubling* power-law graphs (hub
neighbourhoods grow linearly, diameter is tiny) those structures degrade
to near-full tables and the constructions stop being compact long before
n = 10⁴.  Krioukov–Fall–Yang ("Compact Routing on Internet-Like
Graphs", PAPERS.md) study exactly this regime and observe that
landmark-style compact routing achieves *average* stretch close to 1 on
Internet-like topologies even though its worst-case guarantee is weak.

:class:`LandmarkNameIndependentScheme` reproduces that observation with
a construction whose preprocessing touches only ``k ≈ √n`` full metric
rows (the landmarks) plus *size-bounded* vicinity searches — one
:meth:`GraphMetric.size_balls` call, which runs them in chunks of
sources as multi-source bounded Dijkstra and derives every first hop
from the chunk's predecessor rows in vectorized passes.  Those chunk
rows never enter the row store, so this is the scheme the substrate's
rows-materialized ≪ n acceptance criterion is asserted against (a build
materializes exactly the ``k`` landmark rows):

* **Landmarks** ``L`` (``k = ⌈√n⌉``): farthest-point greedy.  Every
  node stores its parent in each landmark's shortest-path tree
  (``k`` entries — the climbing table).
* **Vicinity**: each node stores its ``s = ⌈√n⌉`` nearest nodes
  (ties by id) keyed by *name*, with the target node, its home
  landmark, and the next hop.
* **Name directory**: name ``t`` is registered at landmark
  ``L[t mod k]``, which stores ``(node, home landmark)`` for it —
  the name-independent resolution step (an O(√n)-per-landmark load).
* **Routing** ``u → name t``: walk toward the directory landmark
  along its tree until some vicinity contains ``t`` (shortcut) or the
  directory resolves ``t → (v, home)``; then toward ``home`` along
  home's tree; at ``home``, descend to ``v`` by source-routing along
  home's own shortest-path tree (the header carries the path suffix,
  ≤ tree-depth·log n bits — polylogarithmic on small-world graphs).
  A node that falls out of the vicinity shortcut re-enters the
  directory phases and shortcuts are disabled (one header bit), so the
  walk provably terminates.

There is **no constant worst-case stretch guarantee** — the vicinity +
directory detour can cost Θ(diameter) more than ``d(u, v)`` in
adversarial metrics (``stretch_guarantee`` returns ``None``).  The
point, following KFY, is the *measured average*: experiment E19 shows a
small constant mean stretch on preferential-attachment graphs at sizes
where the doubling-metric schemes are not even buildable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitcount import bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import NodeId, PreprocessingError, RouteFailure, RouteResult
from repro.metric.graph_metric import GraphMetric
from repro.schemes.base import NameIndependentScheme


class LandmarkNameIndependentScheme(NameIndependentScheme):
    """KFY-style name-independent landmark routing (√n tables)."""

    name = "Landmark name-independent (Internet-scale)"

    def __init__(
        self,
        metric: GraphMetric,
        params: Optional[SchemeParameters] = None,
        naming: Optional[Sequence[int]] = None,
        landmark_count: Optional[int] = None,
        vicinity_size: Optional[int] = None,
    ) -> None:
        super().__init__(metric, params, naming)
        n = metric.n
        if landmark_count is None:
            landmark_count = max(1, min(n, math.isqrt(n - 1) + 1))
        if not 1 <= landmark_count <= n:
            raise PreprocessingError(
                f"landmark_count must be in [1, {n}]"
            )
        if vicinity_size is None:
            vicinity_size = max(1, min(n, math.isqrt(n - 1) + 1))
        if not 1 <= vicinity_size <= n:
            raise PreprocessingError(
                f"vicinity_size must be in [1, {n}]"
            )
        self._landmarks = self._greedy_landmarks(landmark_count)
        self._landmark_index = {
            l: i for i, l in enumerate(self._landmarks)
        }
        # Landmark tree rows: the only full metric rows the scheme
        # reads.  d(v, l) and v's parent in l's tree both come from
        # here, so homes and climbing tables cost no extra searches.
        self._landmark_dist = np.stack(
            [metric.distances_from(l) for l in self._landmarks]
        )
        self._landmark_pred = np.stack(
            [metric.predecessors_from(l) for l in self._landmarks]
        )
        # home[v] = nearest landmark (least landmark id on ties, which
        # argmin provides because self._landmarks is sorted).
        self._home: List[NodeId] = [
            self._landmarks[int(j)]
            for j in np.argmin(self._landmark_dist, axis=0)
        ]
        self._vicinity = self._build_vicinities(vicinity_size)
        self._directory = self._build_directory()
        self._tree_depth = self._max_tree_depth()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _greedy_landmarks(self, count: int) -> List[NodeId]:
        """Farthest-point landmark selection (deterministic)."""
        metric = self._metric
        landmarks = [0]
        mindist = np.array(metric.distances_from(0), dtype=float)
        while len(landmarks) < count:
            far = int(mindist.argmax())
            if mindist[far] <= 0:
                break
            landmarks.append(far)
            np.minimum(mindist, metric.distances_from(far), out=mindist)
        return sorted(landmarks)

    def _build_vicinities(
        self, size: int
    ) -> List[Dict[int, Tuple[NodeId, NodeId, NodeId, float]]]:
        """Per node: name -> (member, member's home, next hop, distance).

        One batched size-bounded search over all nodes — never a full
        row.  The ``(n, size - 1)`` member and first-hop arrays (each
        node's own column dropped) are kept for the compiler; the
        per-node dicts are what routing reads.
        """
        members, dists, hops = self._metric.size_balls(size)
        self._vic_members = members[:, 1:]
        self._vic_hops = hops[:, 1:]
        dists = dists[:, 1:]
        names = np.asarray(self._name_of, dtype=np.int64)[self._vic_members]
        homes = np.asarray(self._home, dtype=np.int64)[self._vic_members]
        # Row by row, so only one row's python objects exist beyond the
        # dicts themselves.
        return [
            dict(
                zip(
                    names[u].tolist(),
                    zip(
                        self._vic_members[u].tolist(),
                        homes[u].tolist(),
                        self._vic_hops[u].tolist(),
                        dists[u].tolist(),
                    ),
                )
            )
            for u in range(self._metric.n)
        ]

    def _build_directory(self) -> List[Dict[int, Tuple[NodeId, NodeId]]]:
        """Per landmark index: name -> (node, home landmark)."""
        k = len(self._landmarks)
        directory: List[Dict[int, Tuple[NodeId, NodeId]]] = [
            {} for _ in range(k)
        ]
        for v in self._metric.nodes:
            name = self.name_of(v)
            directory[name % k][name] = (v, self._home[v])
        return directory

    def _max_tree_depth(self) -> int:
        """Max hop-depth over all landmark trees (header suffix bound).

        Pointer doubling over the ``(k, n)`` predecessor matrix: each
        round adds the depth of a node's current ancestor and jumps to
        that ancestor's, so ``O(log depth)`` vectorized rounds suffice.
        Roots point at themselves with depth 0.
        """
        pred = self._landmark_pred
        nodes = np.broadcast_to(np.arange(pred.shape[1]), pred.shape)
        has_parent = pred >= 0
        ancestor = np.where(has_parent, pred, nodes).astype(np.int64)
        depth = has_parent.astype(np.int64)
        while True:
            above = np.take_along_axis(ancestor, ancestor, axis=1)
            if np.array_equal(above, ancestor):
                return int(depth.max())
            depth += np.take_along_axis(depth, ancestor, axis=1)
            ancestor = above

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    @property
    def landmarks(self) -> List[NodeId]:
        return list(self._landmarks)

    def home_landmark(self, v: NodeId) -> NodeId:
        return self._home[v]

    def directory_landmark(self, name: int) -> NodeId:
        """The landmark holding ``name``'s directory entry."""
        return self._landmarks[name % len(self._landmarks)]

    def vicinity_names(self, u: NodeId) -> List[int]:
        return sorted(self._vicinity[u])

    def stretch_guarantee(self) -> Optional[float]:
        """No constant worst-case bound — this is the KFY trade-off."""
        return None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _tree_hop(self, landmark: NodeId, x: NodeId) -> NodeId:
        """Next hop from ``x`` toward ``landmark`` along its tree.

        ``pred[landmark][x]`` is x's parent in the landmark's canonical
        shortest-path tree — the distributed "next hop toward landmark"
        entry every node stores.
        """
        return int(self._landmark_pred[self._landmark_index[landmark]][x])

    def _tree_path(self, landmark: NodeId, v: NodeId) -> List[NodeId]:
        """The canonical path landmark -> v (the source-route suffix)."""
        row = self._landmark_pred[self._landmark_index[landmark]]
        path = [v]
        while path[-1] != landmark:
            path.append(int(row[path[-1]]))
        path.reverse()
        return path

    def route_to_name(self, source: NodeId, name: int) -> RouteResult:
        metric = self._metric
        if name not in self._node_with_name:
            raise RouteFailure(f"unknown name {name}")
        if self.name_of(source) == name:
            return RouteResult(
                source=source,
                target=source,
                path=[source],
                cost=0.0,
                optimal=0.0,
                header_bits=self.header_bits(),
            )
        path = [source]
        legs = {
            "vicinity": 0.0,
            "to_directory": 0.0,
            "to_home": 0.0,
            "descent": 0.0,
        }
        current = source
        target: Optional[NodeId] = None
        home: Optional[NodeId] = None
        shortcuts_enabled = True
        guard = 4 * metric.n + 4 * self._tree_depth

        tracer = self._tracer

        def step(nxt: NodeId, leg: str) -> NodeId:
            weight = metric.edge_weight(current, nxt)
            legs[leg] += weight
            path.append(nxt)
            if len(path) > guard:  # pragma: no cover - defensive
                raise RouteFailure("landmark walk failed to converge")
            if tracer.enabled:
                tracer.event(
                    node=current,
                    phase=leg,
                    nodes=(nxt,),
                    cost=weight,
                    entry=f"{leg}[{name}] = {nxt}",
                    header_after={"target_name": name},
                )
            return nxt

        directory = self.directory_landmark(name)
        # Phase A/B: walk landmark trees toward the directory (then the
        # home) landmark; any vicinity hit short-circuits to phase V.
        while True:
            entry = (
                self._vicinity[current].get(name)
                if shortcuts_enabled
                else None
            )
            if entry is not None:
                # Phase V: vicinity descent.  Each hop lies on the
                # canonical shortest path current -> target, so the
                # remaining distance strictly decreases while the
                # shortcut holds; if it breaks we fall back to the
                # directory walk and disable further shortcuts, which
                # restores the terminating tree-walk invariant.
                target, home, hop, _ = entry
                if current == target:
                    break
                current = step(hop, "vicinity")
                if current == target:
                    break
                if name not in self._vicinity[current]:
                    shortcuts_enabled = False
                continue
            if target is None:
                if current == directory:
                    target, home = self._directory[
                        name % len(self._landmarks)
                    ][name]
                    continue
                current = step(self._tree_hop(directory, current), "to_directory")
                continue
            if current == target:
                break
            if current != home:
                current = step(self._tree_hop(home, current), "to_home")
                continue
            # Phase C: at the home landmark — source-route down its
            # tree (the header carries this suffix).
            for nxt in self._tree_path(home, target)[1:]:
                current = step(nxt, "descent")
            break
        assert target is not None
        return RouteResult(
            source=source,
            target=target,
            path=path,
            cost=sum(legs.values()),
            optimal=metric.distance(source, target),
            header_bits=self.header_bits(),
            legs=legs,
        )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    def table_bits(self, v: NodeId) -> int:
        """Climbing entries + vicinity + (landmarks) directory and tree.

        Every node: ``k`` landmark-tree parents and ``|vicinity|``
        entries of (name, node, home, next hop).  A landmark
        additionally stores its directory shard and the parent pointer
        of every node in its own tree (what source-routed descent
        reads).
        """
        unit = bits_for_id(self._metric.n)
        k = len(self._landmarks)
        bits = k * unit + len(self._vicinity[v]) * 4 * unit
        idx = self._landmark_index.get(v)
        if idx is not None:
            bits += len(self._directory[idx]) * 3 * unit
            bits += self._metric.n * unit
        return bits

    def header_bits(self) -> int:
        """Name + resolved (node, home) + flags + source-route suffix."""
        unit = bits_for_id(self._metric.n)
        return 3 * unit + 2 + self._tree_depth * unit
