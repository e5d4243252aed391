"""Shared ILP formulation of (windows of) the BSP scheduling problem.

This module contains the variable/constraint generator shared by the three
ILP-based methods of the paper:

* ``ILPfull``  — the whole problem as one ILP (every node free, every
  superstep in the window),
* ``ILPpart``  — re-optimization of the nodes currently assigned to a
  contiguous superstep interval, with the rest of the schedule fixed,
* ``ILPinit``  — batch-by-batch construction, where each batch is optimized
  inside a small window of fresh supersteps.

Variables (following the FS formulation of Papp et al. [28] with the
simplifications described in the paper's Appendix A.4):

* ``comp[v, p, s]``  — node ``v`` is computed on processor ``p`` in
  superstep ``s`` (binary), for every *free* node,
* ``pres[v, p, s]``  — the value of free node ``v`` is present on ``p`` at
  the end of superstep ``s`` (binary),
* ``comm[v, p1, p2, s]`` — the value of free node ``v`` is sent from ``p1``
  to ``p2`` in the communication phase of ``s`` (binary),
* ``bcomm[u, p, s]`` — the value of *boundary* node ``u`` (a predecessor of
  a free node computed before the window) is sent from its fixed processor
  to ``p`` in phase ``s`` (binary),
* ``W[s]`` / ``H[s]`` — continuous upper bounds on the work and h-relation
  cost of superstep ``s``,
* ``used[s]`` — superstep ``s`` carries computation (binary, latency term).

The extracted result is a (pi, tau) assignment for the free nodes; the
final schedule is rebuilt with the *lazy* communication schedule and its
exact cost is evaluated by the caller, so an approximate objective inside
the ILP can never produce an invalid or mis-costed schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from .model import INF, IlpModel
from .solver import SolverResult

__all__ = ["BspIlpFormulation", "build_bsp_ilp", "estimate_variable_count"]


def estimate_variable_count(num_free_nodes: int, num_supersteps: int, P: int) -> int:
    """The paper's rule-of-thumb estimate ``|V0| * |S0| * P^2`` of the ILP size."""
    return num_free_nodes * num_supersteps * P * P


@dataclass
class BspIlpFormulation:
    """A built ILP plus the index maps needed to extract a schedule.

    The maps hold variable indices, by position: ``comp``/``pres`` are
    ``(free node, p, superstep)`` arrays, ``comm`` is ``(free node, p1, p2,
    superstep)`` and ``bcomm`` is ``(boundary node, p, communication
    phase)``, with ``-1`` where no variable exists (``p1 == p2``, or ``p``
    the boundary node's own processor).  Supersteps count from ``s_first``;
    communication phases from ``max(s_first - 1, 0)``.
    """

    model: IlpModel
    dag: ComputationalDAG
    machine: BspMachine
    free_nodes: np.ndarray
    s_first: int
    s_last: int
    comp: np.ndarray
    pres: np.ndarray
    comm: np.ndarray
    boundary: np.ndarray
    bcomm: np.ndarray
    base_proc: Optional[np.ndarray] = None
    base_step: Optional[np.ndarray] = None

    @property
    def supersteps(self) -> range:
        return range(self.s_first, self.s_last + 1)

    # ------------------------------------------------------------------
    def extract_assignment(self, result: SolverResult) -> Tuple[np.ndarray, np.ndarray]:
        """Read the (proc, step) arrays out of a solver result.

        Nodes outside ``free_nodes`` keep their base assignment.  Raises
        ``ValueError`` if the solution does not assign every free node
        exactly once (which the constraints rule out for feasible results).
        """
        if not result.has_solution:
            raise ValueError("solver result carries no solution")
        n = self.dag.n
        if self.base_proc is not None:
            proc = self.base_proc.copy()
            step = self.base_step.copy()
        else:
            proc = np.zeros(n, dtype=np.int64)
            step = np.zeros(n, dtype=np.int64)
        chosen = result.values[self.comp] > 0.5
        counts = chosen.sum(axis=(1, 2))
        twice = self.free_nodes[counts > 1]
        if twice.size:
            raise ValueError(f"node {twice[0]} assigned more than once in ILP solution")
        missing = self.free_nodes[counts == 0]
        if missing.size:
            raise ValueError(f"ILP solution left nodes unassigned: {missing[:5].tolist()}")
        vi, p, si = np.nonzero(chosen)
        proc[self.free_nodes[vi]] = p
        step[self.free_nodes[vi]] = self.s_first + si
        return proc, step

    def extract_schedule(self, result: SolverResult) -> BspSchedule:
        """Full BSP schedule (with lazy communication) from a solver result."""
        proc, step = self.extract_assignment(result)
        return BspSchedule(self.dag, self.machine, proc, step)


def build_bsp_ilp(
    dag: ComputationalDAG,
    machine: BspMachine,
    *,
    free_nodes: Optional[Iterable[int]] = None,
    s_first: int = 0,
    s_last: Optional[int] = None,
    base_proc: Optional[np.ndarray] = None,
    base_step: Optional[np.ndarray] = None,
    include_latency: bool = True,
    background_consumers: bool = True,
    name: str = "bsp-ilp",
) -> BspIlpFormulation:
    """Build the (window) ILP formulation of the BSP scheduling problem.

    Parameters
    ----------
    free_nodes:
        Nodes to (re)assign.  Defaults to all nodes (the ``ILPfull`` case).
    s_first, s_last:
        Superstep window the free nodes may be assigned to.  ``s_last``
        defaults to a safe bound (one superstep per DAG level).
    base_proc, base_step:
        Fixed assignment of the non-free nodes (required whenever
        ``free_nodes`` is not the full node set).
    include_latency:
        Whether to add the per-superstep latency term to the objective.
    background_consumers:
        Whether to add the fixed communication load caused by transfers
        between non-free nodes whose (lazy) phase falls into the window.

    Every constraint family is emitted as one block; variables and rows
    come in the order of the per-node loops in the comments.
    """
    P = machine.P
    numa = machine.numa
    n = dag.n

    if free_nodes is None:
        free = np.arange(n, dtype=np.int64)
    else:
        free = np.unique(np.fromiter(free_nodes, dtype=np.int64))
    F = len(free)
    if F != n and (base_proc is None or base_step is None):
        raise ValueError("a base assignment is required when only a subset of nodes is free")
    if s_last is None:
        s_last = s_first + max(dag.depth(), 1) - 1
    if s_last < s_first:
        raise ValueError("empty superstep window")
    if base_proc is not None:
        base_proc = np.asarray(base_proc, dtype=np.int64).copy()
        base_step = np.asarray(base_step, dtype=np.int64).copy()

    # Supersteps s_first..s_last (index si); communication phases from the
    # one right before the window (if any) to s_last (index sc = si + off).
    S = s_last - s_first + 1
    off = 1 if s_first > 0 else 0
    Sc = S + off
    is_free = np.zeros(n, dtype=bool)
    is_free[free] = True
    comm_w = np.asarray(dag.comm, dtype=np.float64)
    eu, ew = dag.edge_sources, dag.edge_targets

    # (v, u) for u in dag.parents(v), v in free: the precedence pairs, in
    # input-edge order.  Boundary nodes (non-free parents) are numbered in
    # order of discovery; avail[b, p]: b's value is on p before the window.
    parents = [dag.parents(v) for v in free.tolist()]
    pair_v = np.repeat(np.arange(F), [len(us) for us in parents])
    pair_u = np.fromiter(chain.from_iterable(parents), dtype=np.int64, count=len(pair_v))
    pair_free = is_free[pair_u]
    seen, first = np.unique(pair_u[~pair_free], return_index=True)
    boundary = seen[np.argsort(first, kind="stable")]
    B = len(boundary)
    bindex = np.full(n, -1, dtype=np.int64)
    bindex[boundary] = np.arange(B)
    avail = np.zeros((B, P), dtype=bool)
    if B:
        src = base_proc[boundary]
        avail[np.arange(B), src] = True
        early = (bindex[eu] >= 0) & ~is_free[ew] & (base_step[ew] < s_first)
        avail[bindex[eu[early]], base_proc[ew[early]]] = True
    else:
        src = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Variables: per free v, per p: comp/pres interleaved over s, then comm
    # to every p2 != p over s; bcomm per boundary node, per p != its
    # processor, over the phases; then W[s], H[phase] and used[s].
    # ------------------------------------------------------------------
    model = IlpModel(name=name)
    per_p = S * (P + 1)
    model.add_binaries(F * P * per_p)
    ar_P, ar_S = np.arange(P), np.arange(S)
    comp = (np.arange(F)[:, None, None] * P + ar_P[:, None]) * per_p + 2 * ar_S
    pres = comp + 1
    rank = ar_P - (ar_P > ar_P[:, None])  # rank[p, p2]: position of p2 among p2 != p
    comm = comp[:, :, None, :1] + 2 * S + rank[None, :, :, None] * S + ar_S
    comm[:, ar_P, ar_P, :] = -1
    bstart = model.add_binaries(B * (P - 1) * Sc).start
    brank = ar_P - (ar_P > src[:, None])
    bcomm = bstart + (np.arange(B)[:, None, None] * (P - 1) + brank[:, :, None]) * Sc + np.arange(Sc)
    bcomm[np.arange(B), src, :] = -1
    work_var = np.asarray(model.add_variables(S))
    h_var = np.asarray(model.add_variables(Sc))
    with_used = include_latency and float(machine.l) > 0
    used_var = np.asarray(model.add_binaries(S)) if with_used else None

    # ------------------------------------------------------------------
    # Background communication load from fixed-to-fixed transfers whose lazy
    # phase falls inside the window (treated as constants, like the paper):
    # one transfer per (u, target processor), due one phase before its first
    # consumer there, summed in order of first occurrence in dag.edges.
    # ------------------------------------------------------------------
    bg = np.zeros((Sc, P, 2), dtype=np.float64)  # [..., 0] send, [..., 1] recv
    if background_consumers and F != n:
        fixed = ~is_free[eu] & ~is_free[ew] & (base_proc[eu] != base_proc[ew])
        key = eu[fixed] * P + base_proc[ew[fixed]]
        keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        need = np.full(len(keys), np.iinfo(np.int64).max)
        np.minimum.at(need, inverse, base_step[ew[fixed]])
        order = np.argsort(first, kind="stable")
        u, target, phase = keys[order] // P, keys[order] % P, need[order] - 1 - (s_first - off)
        inside = (phase >= 0) & (phase < Sc)
        u, target, phase = u[inside], target[inside], phase[inside]
        volume = comm_w[u] * numa[base_proc[u], target]
        np.add.at(bg[:, :, 0], (phase, base_proc[u]), volume)
        np.add.at(bg[:, :, 1], (phase, target), volume)

    # ------------------------------------------------------------------
    # Constraints, one block per family.  Each ``le0`` part is a triple
    # ``(rows, cols, vals)``; ``held(base, vi, p)`` gives the part
    # -comp[v, p, s2 <= s] - pres[v, p, s - 1] of rows ``base + si``: the
    # terms that put v's value on p by superstep s.
    # ------------------------------------------------------------------
    tri_s, tri_s2 = np.nonzero(np.tri(S, dtype=bool))

    def held(base, vi, p):
        rows = np.concatenate([(base[:, None] + tri_s).ravel(), (base[:, None] + ar_S[1:]).ravel()])
        cols = np.concatenate([comp[vi, p][:, tri_s2].ravel(), pres[vi, p][:, :-1].ravel()])
        return rows, cols, -1.0

    def le0(count, *parts, ub=0.0):
        rows = np.concatenate([np.ravel(part[0]) for part in parts])
        cols = np.concatenate([np.ravel(part[1]) for part in parts])
        vals = np.concatenate([np.broadcast_to(part[2], np.shape(part[1])).ravel() for part in parts])
        model.add_constraints(count, rows, cols, vals, -INF, ub)

    # (1) every free node computed exactly once: for v
    model.add_constraints(F, np.repeat(np.arange(F), P * S), comp, 1.0, 1.0, 1.0)

    # (2) precedence: for v, for u in parents(v), for p (free u: every p;
    # boundary u: every p without its value), for s.  A boundary value
    # must have been sent to p in a phase before s.
    allowed = np.ones((len(pair_u), P), dtype=bool)
    allowed[~pair_free] = ~avail[bindex[pair_u[~pair_free]]]
    g_pair, g_p = np.nonzero(allowed)
    base = np.arange(len(g_pair)) * S
    fg = np.flatnonzero(pair_free[g_pair])
    bgr = np.flatnonzero(~pair_free[g_pair])
    sent_before = np.nonzero(np.arange(Sc) < ar_S[:, None] + off)  # (si, sc): phase before s
    le0(
        len(base) * S,
        (base[:, None] + ar_S, comp[pair_v[g_pair], g_p], 1.0),
        held(base[fg], np.searchsorted(free, pair_u[g_pair[fg]]), g_p[fg]),
        (
            base[bgr, None] + sent_before[0],
            bcomm[bindex[pair_u[g_pair[bgr]]], g_p[bgr]][:, sent_before[1]],
            -1.0,
        ),
    )

    # (3) presence of free values: for v, for p, for s
    vp_v, vp_p = np.repeat(np.arange(F), P), np.tile(ar_P, F)
    base = np.arange(F * P) * S
    into = comm.transpose(0, 2, 1, 3)  # into[v, p, p1, s] = comm[v, p1, p, s]
    into_rows = np.broadcast_to(base.reshape(F, P, 1, 1) + ar_S, into.shape)
    le0(
        F * P * S,
        (base[:, None] + ar_S, pres, 1.0),
        held(base, vp_v, vp_p),
        (into_rows[into >= 0], into[into >= 0], -1.0),
    )

    # (4) a free value can only be sent from a processor that has it: for v,
    # for p1, for p2 != p1, for s
    sends = comm[comm >= 0].reshape(-1, S)
    base = np.arange(len(sends)) * S
    le0(
        sends.size,
        (base[:, None] + ar_S, sends, 1.0),
        held(base, np.repeat(vp_v, P - 1), np.repeat(vp_p, P - 1)),
    )

    # (5) work cost bounds: for s, for p
    work = np.asarray(dag.work, dtype=np.float64)[free]
    le0(
        S * P,
        (np.broadcast_to(ar_S * P + ar_P[:, None], comp.shape), comp, work[:, None, None]),
        (np.arange(S * P), np.repeat(work_var, P), -1.0),
    )

    # (6) h-relation bounds (send and receive, NUMA-weighted): for phase,
    # for p, send row then recv row, with the background load on the
    # right-hand side.  A transfer p1 -> p2 in phase sc puts its volume on
    # the send row of (sc, p1) and the recv row of (sc, p2).
    fv, f1, f2, fs = np.nonzero(comm >= 0)
    fvol = comm_w[free[fv]] * numa[f1, f2]
    bv, b2, bs = np.nonzero(bcomm >= 0)
    bvol = comm_w[boundary[bv]] * numa[src[bv], b2]
    le0(
        Sc * P * 2,
        (((fs + off) * P + f1) * 2, comm[fv, f1, f2, fs], fvol),
        (((fs + off) * P + f2) * 2 + 1, comm[fv, f1, f2, fs], fvol),
        ((bs * P + src[bv]) * 2, bcomm[bv, b2, bs], bvol),
        ((bs * P + b2) * 2 + 1, bcomm[bv, b2, bs], bvol),
        (np.arange(Sc * P * 2), np.repeat(h_var, P * 2), -1.0),
        ub=-bg.ravel(),
    )

    # (7) latency / superstep usage: for s; then push used supersteps to the
    # front of the window (symmetry breaking): for consecutive (s, s + 1)
    if with_used:
        le0(
            S,
            (np.broadcast_to(ar_S, comp.shape), comp, 1.0),
            (ar_S, used_var, -float(F)),
        )
        le0(S - 1, (ar_S[:-1], used_var[1:], 1.0), (ar_S[:-1], used_var[:-1], -1.0))

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    model.add_objective(work_var, 1.0)
    model.add_objective(h_var, float(machine.g))
    if with_used:
        model.add_objective(used_var, float(machine.l))

    return BspIlpFormulation(
        model=model,
        dag=dag,
        machine=machine,
        free_nodes=free,
        s_first=s_first,
        s_last=s_last,
        comp=comp,
        pres=pres,
        comm=comm,
        boundary=boundary,
        bcomm=bcomm,
        base_proc=base_proc,
        base_step=base_step,
    )
