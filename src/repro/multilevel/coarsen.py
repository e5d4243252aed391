"""DAG coarsening by acyclicity-preserving edge contraction (paper 4.5 / A.5).

The coarsening phase repeatedly contracts a directed edge ``(u, v)`` into a
single node.  An edge may only be contracted if no *other* directed path
from ``u`` to ``v`` exists (otherwise the contraction would create a cycle).
Following the paper, the contractable edges are ranked by the combined work
weight ``w(u) + w(v)`` (smaller is better, so no huge cluster is forced onto
one processor) and, within the lightest third, by the communication weight
``c(u)`` (larger is better, since contracting removes the need to ever send
that value across the contracted edge).

The full sequence of contractions is recorded so that the uncoarsening phase
can replay it in reverse and rebuild every intermediate coarse DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG

__all__ = ["ContractionRecord", "CoarseningSequence", "coarsen_dag", "coarse_dag_from_partition"]


@dataclass(frozen=True)
class ContractionRecord:
    """One contraction step: cluster ``absorbed`` merged into cluster ``kept``.

    Both fields are *original-DAG node ids* representing their clusters at
    the time of contraction.
    """

    kept: int
    absorbed: int


@dataclass
class CoarseningSequence:
    """The original DAG plus an ordered list of contraction records."""

    dag: ComputationalDAG
    records: List[ContractionRecord] = field(default_factory=list)

    @property
    def num_contractions(self) -> int:
        return len(self.records)

    def partition_after(self, num_steps: int) -> np.ndarray:
        """Cluster representative of every original node after ``num_steps``
        contractions (a prefix of the recorded sequence)."""
        if not (0 <= num_steps <= len(self.records)):
            raise ValueError("num_steps out of range")
        rep = np.arange(self.dag.n, dtype=np.int64)

        def find(x: int) -> int:
            while rep[x] != x:
                rep[x] = rep[rep[x]]
                x = int(rep[x])
            return x

        for record in self.records[:num_steps]:
            ra, rk = find(record.absorbed), find(record.kept)
            if ra != rk:
                rep[ra] = rk
        return np.array([find(v) for v in range(self.dag.n)], dtype=np.int64)

    def prefix(self, num_steps: int) -> "CoarseningSequence":
        """The sequence of the first ``num_steps`` contractions (all, if fewer)."""
        return CoarseningSequence(dag=self.dag, records=self.records[:num_steps])

    def mapping_after(self, num_steps: int) -> np.ndarray:
        """The ``mapping`` of :meth:`coarse_dag_after`, without building the DAG."""
        return np.unique(self.partition_after(num_steps), return_inverse=True)[1].astype(np.int64)

    def coarse_dag_after(self, num_steps: int) -> Tuple[ComputationalDAG, np.ndarray]:
        """Coarse DAG after ``num_steps`` contractions plus the node mapping.

        Returns ``(coarse_dag, mapping)`` where ``mapping[original_node]`` is
        the coarse node index of the cluster containing it.
        """
        partition = self.partition_after(num_steps)
        return coarse_dag_from_partition(self.dag, partition)


def coarse_dag_from_partition(
    dag: ComputationalDAG, cluster_rep: np.ndarray
) -> Tuple[ComputationalDAG, np.ndarray]:
    """Build the quotient DAG of a cluster partition (weights summed)."""
    cluster_rep = np.asarray(cluster_rep, dtype=np.int64)
    reps, mapping = np.unique(cluster_rep, return_inverse=True)
    mapping = mapping.astype(np.int64)
    num_clusters = len(reps)
    work = np.bincount(mapping, weights=dag.work, minlength=num_clusters).astype(np.int64)
    comm = np.bincount(mapping, weights=dag.comm, minlength=num_clusters).astype(np.int64)
    memory = np.bincount(mapping, weights=dag.memory, minlength=num_clusters).astype(np.int64)
    edges: List[Tuple[int, int]] = []
    if dag.num_edges:
        cu = mapping[dag.edge_sources]
        cv = mapping[dag.edge_targets]
        keep = cu != cv
        if np.any(keep):
            pairs = np.unique(np.stack([cu[keep], cv[keep]], axis=1), axis=0)
            edges = [tuple(pair) for pair in pairs.tolist()]
    coarse = ComputationalDAG(
        num_clusters, edges, work, comm, name=f"{dag.name}-coarse", memory=memory
    )
    return coarse, mapping


class _MutableCoarseGraph:
    """Mutable cluster graph used during coarsening (adjacency as sets)."""

    def __init__(self, dag: ComputationalDAG) -> None:
        self.children: Dict[int, Set[int]] = {
            v: set(dag.successors_array(v).tolist()) for v in dag.nodes()
        }
        self.parents: Dict[int, Set[int]] = {
            v: set(dag.predecessors_array(v).tolist()) for v in dag.nodes()
        }
        self.work: Dict[int, int] = dict(enumerate(np.asarray(dag.work).tolist()))
        self.comm: Dict[int, int] = dict(enumerate(np.asarray(dag.comm).tolist()))

    @property
    def num_nodes(self) -> int:
        return len(self.children)

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u, kids in self.children.items() for v in kids]

    def has_other_path(self, u: int, v: int) -> bool:
        """True if a directed path from u to v exists besides the edge (u, v)."""
        stack = [w for w in self.children[u] if w != v]
        seen: Set[int] = set()
        while stack:
            x = stack.pop()
            if x == v:
                return True
            if x in seen:
                continue
            seen.add(x)
            stack.extend(self.children[x])
        return False

    def contract(self, u: int, v: int) -> None:
        """Merge cluster ``v`` into cluster ``u`` (edge (u, v) must exist)."""
        self.children[u].discard(v)
        self.parents[v].discard(u)
        for w in self.children.pop(v):
            self.parents[w].discard(v)
            if w != u:
                self.children[u].add(w)
                self.parents[w].add(u)
        for w in self.parents.pop(v):
            self.children[w].discard(v)
            if w != u:
                self.parents[u].add(w)
                self.children[w].add(u)
        self.work[u] += self.work.pop(v)
        self.comm[u] += self.comm.pop(v)


def coarsen_dag(
    dag: ComputationalDAG,
    target_nodes: int,
    *,
    light_fraction: float = 1.0 / 3.0,
    max_candidate_checks: int = 64,
) -> CoarseningSequence:
    """Coarsen ``dag`` down to (approximately) ``target_nodes`` clusters.

    Contractions stop when the target size is reached or no contractable
    edge remains.  ``light_fraction`` is the fraction of the lightest
    (by combined work weight) edges considered in each step, and
    ``max_candidate_checks`` bounds how many of them are tested for
    contractability before simply taking the first contractable edge found.
    """
    if target_nodes < 1:
        raise ValueError("target_nodes must be at least 1")
    sequence = CoarseningSequence(dag=dag)
    graph = _MutableCoarseGraph(dag)

    while graph.num_nodes > target_nodes:
        edges = graph.edges()
        if not edges:
            break
        edges.sort(key=lambda e: (graph.work[e[0]] + graph.work[e[1]], e))
        cutoff = max(1, int(len(edges) * light_fraction))
        light = edges[:cutoff]
        # Prefer large source communication weight within the light edges.
        light.sort(key=lambda e: (-graph.comm[e[0]], e))

        chosen: Optional[Tuple[int, int]] = None
        for (u, v) in light[:max_candidate_checks]:
            if not graph.has_other_path(u, v):
                chosen = (u, v)
                break
        if chosen is None:
            # Fall back to scanning the full edge list for any contractable edge.
            for (u, v) in edges:
                if not graph.has_other_path(u, v):
                    chosen = (u, v)
                    break
        if chosen is None:
            break  # no contractable edge left (cannot happen for a DAG with edges)
        u, v = chosen
        graph.contract(u, v)
        sequence.records.append(ContractionRecord(kept=u, absorbed=v))
    return sequence
