"""Incremental cost state for the hill-climbing local search.

The paper's HC algorithm (Section 4.3, Appendix A.3) relies on data
structures that allow the cost change of a candidate move to be evaluated
without recomputing the whole schedule cost.  This module provides that
state for schedules with a *lazy* communication schedule, split between two
owners:

* the ``(S, P)`` work / send / receive matrices, their per-superstep costs
  and the total live on the shared
  :class:`~repro.localsearch.engine.IncrementalCostEngine`; they are built
  by :func:`repro.model.cost.superstep_matrices` and priced by the same
  kernels as :mod:`repro.model.cost`, so the cost formula has a single
  source of truth;
* the node tables live here: the assignment ``proc`` / ``step``, the dense
  ``(n, P)`` numpy tables ``succ_min`` / ``succ_min_cnt`` / ``succ_cnt``
  (for every node ``u`` and processor ``p``: the earliest superstep of a
  successor of ``u`` on ``p``, how many successors sit at that step and how
  many are on ``p`` in total — exactly what keeps the lazy communication
  step of every transfer ``u -> p`` in O(1) per move, with an occasional CSR
  rescan when the minimum disappears), the per-processor memory usage, and
  the dense ``(n, P)`` step-bound tables ``lo`` / ``hi`` giving the window
  of supersteps each node may legally move to (built in one vectorized pass
  over the CSR edge arrays and patched lazily for the nodes an applied move
  touched).

:meth:`LocalSearchState.apply_move` updates the node tables and turns the
move into its matrix cell deltas, which it hands to
:meth:`IncrementalCostEngine.apply_cells` as one transaction — the engine's
only mutation path, so its transaction count and touched rows are true for
every move.  Candidate moves are probed by :meth:`LocalSearchState.probe`,
one vectorized numpy pass over a whole batch of nodes that reads the tables
and the matrices and writes neither; :meth:`~LocalSearchState.move_deltas`
and :meth:`~LocalSearchState.move_delta` are its one-node forms.  Hill climbing and simulated annealing share
these entry points.  For pass-level searches,
:meth:`LocalSearchState.candidate_mask` exposes the move neighbourhood (step
bounds and memory feasibility included) as one dense boolean array, and
:meth:`LocalSearchState.probe_dependents` names the nodes whose probe
results an applied move can invalidate — which is what lets
:func:`~repro.localsearch.hill_climbing.hill_climb` skip re-probing nodes
whose neighbourhood provably did not change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..model.cost import superstep_block_costs, superstep_matrices
from ..model.machine import MEMORY_EPS, BspMachine
from ..model.schedule import BspSchedule
from .engine import RECV, SEND, WORK, Cell, IncrementalCostEngine

__all__ = ["LocalSearchState", "Move"]

Move = Tuple[int, int, int]
"""A candidate move ``(node, new_processor, new_superstep)``."""

#: Sentinel for "no successor of u on p" in the ``succ_min`` table.  Large
#: enough to never be a real superstep, small enough that ``_NO_STEP - 1`` does
#: not overflow int64 arithmetic.
_NO_STEP = np.iinfo(np.int64).max // 4

#: Signs of a transfer's (old row, new row) cell pair.
_SIGNS = np.array([-1.0, 1.0])

#: Row index of the probe's sentinel rows: far below any valid flat index.
_OUT_OF_RANGE = -(1 << 40)


class LocalSearchState:
    """Mutable scheduling state with incremental BSP+NUMA cost maintenance."""

    #: Number of spare superstep rows kept at the end of the matrices so that
    #: moves into a brand new superstep never need an immediate reallocation.
    _SLACK = 4

    def __init__(self, schedule: BspSchedule) -> None:
        self.dag: ComputationalDAG = schedule.dag
        self.machine: BspMachine = schedule.machine
        self.proc = np.asarray(schedule.proc, dtype=np.int64).copy()
        self.step = np.asarray(schedule.step, dtype=np.int64).copy()
        n = self.dag.n
        self.P = self.machine.P
        self.g = float(self.machine.g)
        self.l = float(self.machine.l)
        self.numa = np.asarray(self.machine.numa, dtype=np.float64)

        # CSR adjacency views and float weight arrays used on the hot path.
        self._succ_indptr = self.dag.succ_indptr
        self._succ_indices = self.dag.succ_indices
        self._pred_indptr = self.dag.pred_indptr
        self._pred_indices = self.dag.pred_indices
        self._work_of = np.asarray(self.dag.work, dtype=np.float64)
        self._comm_of = np.asarray(self.dag.comm, dtype=np.float64)

        # Memory-constrained model variant: per-node memory weights and the
        # running per-processor usage, maintained only when the machine
        # carries bounds (the unconstrained hot path pays nothing).
        bounds = self.machine.memory_bounds
        if bounds is None:
            self._mem_bounds: Optional[List[float]] = None
            self._mem_list: List[float] = []
            self.mem_used: List[float] = []
        else:
            self._mem_bounds = bounds.tolist()
            mem = np.asarray(self.dag.memory, dtype=np.float64)
            self._mem_list = mem.tolist()
            self.mem_used = (
                np.bincount(self.proc, weights=mem, minlength=self.P).tolist()
                if n
                else [0.0] * self.P
            )

        # The (S, P) matrices come from the same code path as model.cost:
        # the lazy-communication matrices of the current assignment.  The
        # engine owns them together with the per-row costs and the total.
        lazy = BspSchedule(self.dag, self.machine, self.proc, self.step)
        work, send, recv = superstep_matrices(lazy)
        max_step = int(self.step.max()) if n else 0
        slack = max_step + 1 + self._SLACK - work.shape[0]
        self.engine = IncrementalCostEngine(work, send, recv, self.g, self.l, slack=slack)

        # Dense successor-step tables, built vectorized; the probe reads
        # them in bulk and only applied moves write them.
        self.succ_min = np.full((n, self.P), _NO_STEP, dtype=np.int64)
        self.succ_min_cnt = np.zeros((n, self.P), dtype=np.int64)
        self.succ_cnt = np.zeros((n, self.P), dtype=np.int64)
        if self.dag.num_edges:
            eu = self.dag.edge_sources
            pv = self.proc[self.dag.edge_targets]
            sv = self.step[self.dag.edge_targets]
            np.add.at(self.succ_cnt, (eu, pv), 1)
            np.minimum.at(self.succ_min, (eu, pv), sv)
            at_min = sv == self.succ_min[eu, pv]
            np.add.at(self.succ_min_cnt, (eu[at_min], pv[at_min]), 1)

        # Dense per-(node, processor) step-bound tables; built vectorized on
        # first use (pass-level searches need all rows, probe-only users
        # like simulated annealing never pay for the full build).
        self._lo: Optional[np.ndarray] = None
        self._hi: Optional[np.ndarray] = None
        self._bounds_dirty = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    # Engine delegation (the matrices live on the shared engine)
    # ------------------------------------------------------------------
    @property
    def work(self) -> np.ndarray:
        return self.engine.work

    @property
    def send(self) -> np.ndarray:
        return self.engine.send

    @property
    def recv(self) -> np.ndarray:
        return self.engine.recv

    @property
    def step_cost(self) -> np.ndarray:
        return self.engine.step_cost

    @property
    def total_cost(self) -> float:
        return self.engine.total_cost

    @property
    def S(self) -> int:
        return self.engine.S

    @property
    def last_touched_rows(self) -> np.ndarray:
        """Sorted superstep rows the most recent :meth:`apply_move` changed."""
        return self.engine.last_rows

    @property
    def memory_bounded(self) -> bool:
        """Whether the machine carries per-processor memory bounds."""
        return self._mem_bounds is not None

    def _ensure_capacity(self, s: int) -> None:
        self.engine.ensure_capacity(s)

    # ------------------------------------------------------------------
    # Low-level helpers
    # ------------------------------------------------------------------
    def _succ_inc(self, u: int, p: int, s: int) -> None:
        """Record one more successor of ``u`` on processor ``p`` at step ``s``."""
        self.succ_cnt[u, p] += 1
        m = self.succ_min[u, p]
        if s < m:
            self.succ_min[u, p] = s
            self.succ_min_cnt[u, p] = 1
        elif s == m:
            self.succ_min_cnt[u, p] += 1

    def _succ_dec(self, u: int, p: int, s: int) -> None:
        """Remove one successor of ``u`` on processor ``p`` at step ``s``.

        When the last successor at the current minimum disappears the new
        minimum is recovered by a CSR rescan of ``u``'s successor list; that
        scan must therefore run *after* ``proc``/``step`` reflect the move.
        """
        self.succ_cnt[u, p] -= 1
        if s != self.succ_min[u, p]:
            return
        cnt = self.succ_min_cnt[u, p] - 1
        if cnt > 0:
            self.succ_min_cnt[u, p] = cnt
        elif self.succ_cnt[u, p] == 0:
            self.succ_min[u, p] = _NO_STEP
            self.succ_min_cnt[u, p] = 0
        else:
            children = self._succ_indices[self._succ_indptr[u]:self._succ_indptr[u + 1]]
            steps = self.step[children[self.proc[children] == p]]
            new_min = int(steps.min())
            self.succ_min[u, p] = new_min
            self.succ_min_cnt[u, p] = int((steps == new_min).sum())

    # ------------------------------------------------------------------
    # Move validity
    # ------------------------------------------------------------------
    def _step_bounds(self, v: int) -> Tuple[List[int], List[int]]:
        """Per-processor bounds ``lo[p] <= new_step <= hi[p]`` for moving ``v``.

        A predecessor on the target processor allows equality, any other
        predecessor forces strict inequality; symmetrically for successors.
        This is the scalar reference used to patch single rows of the dense
        bound tables; the tables themselves are built by the vectorized
        :meth:`_build_bounds`.
        """
        P = self.P
        lo = [0] * P
        hi = [_NO_STEP] * P
        for u in self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]].tolist():
            su = int(self.step[u])
            pu = int(self.proc[u])
            strict = su + 1
            for p in range(P):
                bound = su if p == pu else strict
                if bound > lo[p]:
                    lo[p] = bound
        for w in self._succ_indices[self._succ_indptr[v]:self._succ_indptr[v + 1]].tolist():
            sw = int(self.step[w])
            pw = int(self.proc[w])
            strict = sw - 1
            for p in range(P):
                bound = sw if p == pw else strict
                if bound < hi[p]:
                    hi[p] = bound
        return lo, hi

    def _build_bounds(self) -> None:
        """Vectorized construction of the dense ``(n, P)`` lo / hi tables.

        ``lo[v, p] = max over preds u of (step[u] + (proc[u] != p))`` and
        ``hi[v, p] = min over succs w of (step[w] - (proc[w] != p))`` are
        computed for *all* nodes in one pass over the CSR edge arrays using
        the column-excluded-extremum trick: per-(node, processor) extrema of
        the neighbour steps plus the top-2 extrema across processors.
        """
        n, P = self.dag.n, self.P
        lo = np.zeros((n, P), dtype=np.int64)
        hi = np.full((n, P), _NO_STEP, dtype=np.int64)
        if self.dag.num_edges:
            eu = self.dag.edge_sources
            ev = self.dag.edge_targets
            rows = np.arange(n)
            cols = np.arange(P)[None, :]

            # Predecessor side: per-(v, p) max step of preds on p ...
            on = np.full((n, P), -1, dtype=np.int64)
            np.maximum.at(on, (ev, self.proc[eu]), self.step[eu])
            # ... and the max over the *other* processors, via top-2 maxima.
            m1 = on.max(axis=1)
            a1 = on.argmax(axis=1)
            masked = on.copy()
            masked[rows, a1] = -1
            m2 = masked.max(axis=1)
            excl = np.where(cols == a1[:, None], m2[:, None], m1[:, None])
            lo = np.maximum(np.maximum(excl + 1, on), 0)

            # Successor side, symmetric with minima.
            on_s = np.full((n, P), _NO_STEP, dtype=np.int64)
            np.minimum.at(on_s, (eu, self.proc[ev]), self.step[ev])
            m1s = on_s.min(axis=1)
            a1s = on_s.argmin(axis=1)
            masked_s = on_s.copy()
            masked_s[rows, a1s] = _NO_STEP
            m2s = masked_s.min(axis=1)
            excl_s = np.where(cols == a1s[:, None], m2s[:, None], m1s[:, None])
            # "No successor off p" must stay at the sentinel, not sentinel-1.
            excl_s = np.where(excl_s >= _NO_STEP, _NO_STEP, excl_s - 1)
            hi = np.minimum(excl_s, on_s)
        self._lo = lo
        self._hi = hi
        self._bounds_dirty = np.zeros(n, dtype=bool)

    def _bounds_row(self, v: int) -> Tuple[List[int], List[int]]:
        """Fresh lo / hi bounds of ``v`` as python lists, patching if dirty."""
        if self._lo is None:
            return self._step_bounds(v)
        if self._bounds_dirty[v]:
            lo, hi = self._step_bounds(v)
            self._lo[v] = lo
            self._hi[v] = hi
            self._bounds_dirty[v] = False
            return lo, hi
        return self._lo[v].tolist(), self._hi[v].tolist()

    def _refresh_bounds(self) -> None:
        """Materialize the dense bound tables / patch every dirty row."""
        if self._lo is None:
            self._build_bounds()
            return
        if not self._bounds_dirty.any():
            return
        for v in np.nonzero(self._bounds_dirty)[0].tolist():
            lo, hi = self._step_bounds(v)
            self._lo[v] = lo
            self._hi[v] = hi
        self._bounds_dirty[:] = False

    def _memory_ok(self, v: int, new_proc: int) -> bool:
        """Whether moving ``v`` onto ``new_proc`` respects its memory bound.

        This is the memory mask of the move neighbourhood: together with
        :meth:`is_move_valid` / :meth:`candidate_moves` it keeps every move
        probed by :meth:`move_deltas` (whose precondition is a valid move)
        within the per-processor bounds, so the local searches never leave
        the memory-feasible region once they start inside it.
        """
        if self._mem_bounds is None or new_proc == self.proc[v]:
            return True
        return (
            self.mem_used[new_proc] + self._mem_list[v]
            <= self._mem_bounds[new_proc] + MEMORY_EPS
        )

    def is_move_valid(self, v: int, new_proc: int, new_step: int) -> bool:
        """Check whether moving ``v`` keeps the (lazy-comm) schedule valid.

        Assignments of all other nodes are unchanged, so the conditions are
        local: every predecessor must still be able to deliver its value,
        every successor must still receive ``v``'s value in time, and the
        target processor must have memory capacity left for ``v`` when the
        machine is memory-bounded.
        """
        if new_step < 0 or not (0 <= new_proc < self.P):
            return False
        if new_proc == self.proc[v] and new_step == self.step[v]:
            return False
        if not self._memory_ok(v, new_proc):
            return False
        lo, hi = self._bounds_row(v)
        return lo[new_proc] <= new_step <= hi[new_proc]

    def candidate_moves(self, v: int) -> List[Move]:
        """All valid moves of ``v`` to any processor in supersteps s-1, s, s+1.

        Moves whose target processor lacks memory capacity for ``v`` are
        masked out, so downstream :meth:`move_deltas` probes only see
        memory-feasible candidates.
        """
        s = int(self.step[v])
        p0 = int(self.proc[v])
        lo, hi = self._bounds_row(v)
        moves: List[Move] = []
        for target_step in (s - 1, s, s + 1):
            if target_step < 0:
                continue
            for p in range(self.P):
                if (
                    lo[p] <= target_step <= hi[p]
                    and not (target_step == s and p == p0)
                    and self._memory_ok(v, p)
                ):
                    moves.append((v, p, target_step))
        return moves

    def candidate_mask(self, nodes: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``(k, 3, P)`` mask of the move neighbourhood of ``nodes``.

        ``mask[i, j, p]`` is True iff moving ``nodes[i]`` (all nodes by
        default) to processor ``p`` in superstep ``step + j - 1`` is valid
        (step bounds, non-identity and memory feasibility included); axis 1
        enumerates the target steps ``s-1, s, s+1`` in
        :meth:`candidate_moves` order, so ``np.nonzero(mask[i])`` reproduces
        that method's move ordering.
        """
        if nodes is None:
            nodes = np.arange(self.dag.n)
        k = nodes.size
        if k == 0:
            return np.zeros((0, 3, self.P), dtype=bool)
        self._refresh_bounds()
        t3 = (self.step.take(nodes)[:, None] + np.arange(-1, 2))[:, :, None]
        mask = (
            (self._lo.take(nodes, axis=0)[:, None, :] <= t3)
            & (t3 <= self._hi.take(nodes, axis=0)[:, None, :])
            & (t3 >= 0)
        )
        p0 = self.proc.take(nodes)
        mask[np.arange(k), 1, p0] = False
        if self._mem_bounds is not None:
            used = np.asarray(self.mem_used)
            bounds = np.asarray(self._mem_bounds)
            mem = np.asarray(self._mem_list).take(nodes)
            fits = mem[:, None] + used[None, :] <= bounds[None, :] + MEMORY_EPS
            fits[np.arange(k), p0] = True
            mask &= fits[:, None, :]
        return mask

    def probe_dependents(self, v: int) -> np.ndarray:
        """Nodes whose cached probe results a move of ``v`` can invalidate.

        A :meth:`move_deltas` probe of ``x`` reads the assignments of ``x``,
        its predecessors and successors, and — through the successor-step
        tables of its predecessors — of the other successors of those
        predecessors.  Moving ``v`` therefore only affects probes of ``v``
        itself, its neighbours, and its siblings-through-a-shared-parent;
        all other probe results stay valid as long as the superstep rows
        they read (the rows :meth:`probe` returns) are untouched.
        """
        preds = self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]]
        parts = [
            np.array([v], dtype=np.int64),
            preds,
            self._succ_indices[self._succ_indptr[v]:self._succ_indptr[v + 1]],
        ]
        si, sx = self._succ_indptr, self._succ_indices
        parts.extend(sx[si[u]:si[u + 1]] for u in preds.tolist())
        return np.unique(np.concatenate(parts))

    # ------------------------------------------------------------------
    # Applying moves
    # ------------------------------------------------------------------
    def _move_cells(self, v: int, new_proc: int, new_step: int) -> List[Cell]:
        """Commit the move to the node tables; return its matrix cell deltas.

        ``proc`` / ``step``, the successor-step tables, the memory usage and
        the dirty marks of the step-bound tables are updated here; the
        ``(matrix, row, col, value)`` cells are returned in the order
        :meth:`IncrementalCostEngine.apply_cells` must add them.
        """
        old_proc = int(self.proc[v])
        old_step = int(self.step[v])

        # --- work matrix -------------------------------------------------
        w_v = float(self._work_of[v])
        cells: List[Cell] = [(WORK, old_step, old_proc, -w_v), (WORK, new_step, new_proc, w_v)]

        # --- outgoing transfers of v (v as the producer) -------------------
        # The set of target processors and their needed steps do not change,
        # but the source processor (and hence the NUMA weight and the sending
        # processor's load) does, and targets equal to the old/new processor
        # appear/disappear: remove every transfer from the old processor,
        # then add every transfer from the new one.
        c_v = float(self._comm_of[v])
        numa = self.numa.tolist()
        needed = [
            (q, nd - 1) for q, nd in enumerate(self.succ_min[v].tolist()) if nd < _NO_STEP
        ]
        for q, row in needed:
            if q != old_proc:
                volume = c_v * numa[old_proc][q]
                cells += ((SEND, row, old_proc, -volume), (RECV, row, q, -volume))
        for q, row in needed:
            if q != new_proc:
                volume = c_v * numa[new_proc][q]
                cells += ((SEND, row, new_proc, volume), (RECV, row, q, volume))

        # Commit v's new position before touching the successor tables of its
        # parents: the rescan inside _succ_dec reads proc/step and must see
        # the post-move assignment.
        self.proc[v] = new_proc
        self.step[v] = new_step
        if self._mem_bounds is not None and new_proc != old_proc:
            m_v = self._mem_list[v]
            self.mem_used[old_proc] -= m_v
            self.mem_used[new_proc] += m_v

        # --- incoming transfers (v as a consumer of its predecessors) ------
        # The only target processors whose "first needed" superstep can
        # change are v's old and new processor.
        targets = (old_proc,) if new_proc == old_proc else (old_proc, new_proc)
        for u in self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]].tolist():
            pu = int(self.proc[u])
            min_row = self.succ_min[u]
            old_needed = [int(min_row[q]) for q in targets]
            if new_proc == old_proc:
                # Same-processor step change: add before remove so that a
                # rescan triggered by the removal sees the final multiset.
                self._succ_inc(u, new_proc, new_step)
                self._succ_dec(u, old_proc, old_step)
            else:
                self._succ_dec(u, old_proc, old_step)
                self._succ_inc(u, new_proc, new_step)
            for q, was_needed in zip(targets, old_needed):
                if q == pu:
                    continue
                now_needed = int(min_row[q])
                if was_needed == now_needed:
                    continue
                volume = float(self._comm_of[u]) * numa[pu][q]
                if was_needed < _NO_STEP:
                    cells += (
                        (SEND, was_needed - 1, pu, -volume),
                        (RECV, was_needed - 1, q, -volume),
                    )
                if now_needed < _NO_STEP:
                    cells += (
                        (SEND, now_needed - 1, pu, volume),
                        (RECV, now_needed - 1, q, volume),
                    )

        # The step bounds of v's neighbours depend on v's assignment; patch
        # their dense rows lazily on next access.
        self._bounds_dirty[
            self._pred_indices[self._pred_indptr[v]:self._pred_indptr[v + 1]]
        ] = True
        self._bounds_dirty[
            self._succ_indices[self._succ_indptr[v]:self._succ_indptr[v + 1]]
        ] = True
        return cells

    def apply_move(self, v: int, new_proc: int, new_step: int) -> float:
        """Apply the move and return the new total cost.

        One :meth:`IncrementalCostEngine.apply_cells` transaction per move.
        The caller is responsible for only applying valid moves (see
        :meth:`is_move_valid`); to revert, apply the inverse move with the
        node's previous processor and superstep.
        """
        return self.engine.apply_cells(self._move_cells(v, new_proc, new_step))

    def probe(
        self,
        nodes: np.ndarray,
        item: np.ndarray,
        procs: np.ndarray,
        steps: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cost changes of a batch of candidate moves, state unchanged.

        This is the probe at the heart of the local searches, one numpy pass
        per batch.  ``nodes`` are the probed nodes; candidate ``c`` moves
        ``nodes[item[c]]`` to ``(procs[c], steps[c])``.  Candidates must be
        grouped by item in item order, every node needs at least one
        candidate, and every candidate must be a valid move of its node
        (e.g. a row of :meth:`candidate_mask`); all are evaluated against the
        same (current) state.

        Each node's contribution at its current position is removed once
        (shared by its candidates), and each candidate's additions are
        scattered into its own copy of the affected superstep rows; the
        copies of the whole batch live in one ``(3, rows, P)`` tensor that is
        re-costed by one fused kernel pass.  Taking the node out of its
        parents' successor tables is computed, never written.

        Returns ``(deltas, row_item, rows)``: the cost delta of every
        candidate, and the superstep rows each item's probe read as flat
        arrays sorted by ``(item, row)``.  A probe result is a pure function
        of those rows plus the node's 2-hop neighbourhood assignments (see
        :meth:`probe_dependents`).
        """
        engine = self.engine
        P = self.P
        m = nodes.size
        C = item.size
        engine.ensure_capacity(int(steps.max()))
        S = engine.S
        # Row r of item i is column r + 2 of an (m, W) bitmap; columns 0, 1
        # (rows -2, -1) and W - 1 (no row) absorb the sentinels.
        W = S + 3
        proc, smin, numa, comm = self.proc, self.succ_min, self.numa, self._comm_of
        rng_m = np.arange(m)
        p0 = proc.take(nodes)
        s0 = self.step.take(nodes)
        out = smin.take(nodes, axis=0)              # out[i, q] - 1: row of the transfer v -> q
        c_v = comm.take(nodes)

        # --- parents, padded to the widest in-degree: (m, k) lanes ---------
        first = self._pred_indptr.take(nodes)
        n_par = self._pred_indptr.take(nodes + 1) - first
        k = int(n_par.max())
        lane = np.arange(k)
        par = self._pred_indices.take(first[:, None] + lane, mode="clip")
        pu = proc.take(par)
        # The parents' successor tables with the node taken out: only the p0
        # column changes, and only when the node is the last successor at the
        # minimum (then a CSR rescan finds the next one).  Padding lanes read
        # "needed at step -1", which no candidate step is below.
        base = smin.take(par, axis=0)               # (m, k, P)
        base[lane >= n_par[:, None]] = -1
        at_p0 = (rng_m[:, None], lane, p0[:, None])
        nd_old = base[at_p0]
        last = (nd_old == s0[:, None]) & (self.succ_min_cnt[par, p0[:, None]] == 1)
        nd_new = np.where(last, _NO_STEP, nd_old)
        rescan = last & (self.succ_cnt[par, p0[:, None]] > 1)
        if rescan.any():
            si, sx, step = self._succ_indptr, self._succ_indices, self.step
            for i, j in zip(*rescan.nonzero()):
                kids = sx[si[par[i, j]]:si[par[i, j] + 1]]
                nd_new[i, j] = step[kids[(proc[kids] == p0[i]) & (kids != nodes[i])]].min()
        base[at_p0] = nd_new

        # --- every superstep row a candidate can touch, per item -----------
        # s0, the out-transfer rows, each candidate's s and s-1, and for each
        # parent its old p0 row and its row on every candidate processor.
        used = np.zeros((m, P), dtype=bool)
        used[item, procs] = True
        used[rng_m, p0] = True
        col = np.concatenate((
            s0 + 2, out.ravel() + 1, steps + 2, steps + 1, nd_old.ravel() + 1,
            np.where(used[:, None, :], base, -1).ravel() + 1,
        ))
        np.minimum(col, W - 1, out=col)
        mW = rng_m * W
        iW = mW.take(item)
        col += np.concatenate((mW, mW.repeat(P), iW, iW, mW.repeat(k), mW.repeat(k * P)))
        mark = np.zeros((m, W), dtype=bool)
        flat_mark = mark.ravel()
        flat_mark[col] = True
        mark[:, :2] = False
        mark[:, -1] = False
        n_rows = mark.sum(axis=1)
        flat = flat_mark.nonzero()[0]
        row_item = flat // W
        rows = flat - row_item * W - 2
        NR = flat.size
        # pos[i, r + 2]: index of row r of item i among all rows; the
        # sentinel columns point far out of range, so that a cell there (an
        # invalid move) fails the scatter instead of landing anywhere.
        pos = (flat_mark.cumsum() - 1).reshape(m, W)
        pos[:, :2] = _OUT_OF_RANGE
        pos[:, -1] = _OUT_OF_RANGE

        # Expanded layout: candidate c owns its item's rows from seg[c] on.
        c_rows = n_rows.take(item)
        seg = c_rows.cumsum() - c_rows
        NT = int(seg[-1] + c_rows[-1])
        shift = seg - (n_rows.cumsum() - n_rows).take(item)

        # Cell deltas as flat indices into the (3, rows, P) blocks.  The cells
        # of one item (removal) or one candidate (additions) that can share a
        # matrix cell come in the order of the sequential reference -- the
        # node's transfers by target, its parents' in CSR order, old row
        # before new -- so np.add.at sums every cell in the same order.
        qs = np.arange(P)

        # --- removal of every node from its current position ---------------
        keep = (out < _NO_STEP) & (qs != p0[:, None])
        oi, oq = keep.nonzero()
        o_at = pos[oi, out[keep] + 1] * P
        o_vol = -c_v.take(oi) * numa[p0.take(oi), oq]
        moved = (pu != p0[:, None]) & (nd_old != nd_new)
        two = np.empty((m, k, 2), dtype=np.int64)
        two[..., 0] = nd_old
        two[..., 1] = nd_new
        live = (moved[..., None] & (two < _NO_STEP)).ravel()
        r_at = pos[rng_m.repeat(2 * k)[live], two.ravel()[live] + 1] * P
        r_vol = ((comm.take(par) * numa[pu, p0[:, None]])[..., None] * _SIGNS).ravel()[live]
        NRP = NR * P
        rm_idx = np.concatenate((
            pos[rng_m, s0 + 2] * P + p0,
            NRP + o_at + p0.take(oi), 2 * NRP + o_at + oq,
            NRP + r_at + pu.repeat(2)[live], 2 * NRP + r_at + p0.repeat(2 * k)[live],
        ))
        rm_val = np.concatenate((-self._work_of.take(nodes), o_vol, o_vol, r_vol, r_vol))

        # --- per-candidate additions ----------------------------------------
        c_out = out.take(item, axis=0)
        keep = (c_out < _NO_STEP) & (qs != procs[:, None])
        ci, cq = keep.nonzero()
        a_at = (pos[item.take(ci), c_out[keep] + 1] + shift.take(ci)) * P
        a_vol = c_v.take(item).take(ci) * numa[procs.take(ci), cq]
        # Moving onto p before u's earliest consumer there pulls the (lazy)
        # transfer u -> p from superstep nd-1 forward to superstep s-1.
        c_pu = pu.take(item, axis=0)                # (C, k)
        nd = base[item[:, None], lane, procs[:, None]]
        earlier = (c_pu != procs[:, None]) & (steps[:, None] < nd)
        two = np.empty((C, k, 2), dtype=np.int64)
        two[..., 0] = nd
        two[..., 1] = steps[:, None]
        live = (earlier[..., None] & (two < _NO_STEP)).ravel()
        t_at = (pos[item.repeat(2 * k)[live], two.ravel()[live] + 1]
                + shift.repeat(2 * k)[live]) * P
        t_vol = comm.take(par).take(item, axis=0) * numa[c_pu, procs[:, None]]
        t_vol = (t_vol[..., None] * _SIGNS).ravel()[live]
        NTP = NT * P
        ad_idx = np.concatenate((
            (pos[item, steps + 2] + shift) * P + procs,
            NTP + a_at + procs.take(ci), 2 * NTP + a_at + cq,
            NTP + t_at + c_pu.repeat(2)[live], 2 * NTP + t_at + procs.repeat(2 * k)[live],
        ))
        ad_val = np.concatenate((self._work_of.take(nodes).take(item), a_vol, a_vol, t_vol, t_vol))

        # --- one gather + scatter + fused cost pass for the batch ----------
        # np.take returns C-contiguous blocks, so the flat views alias them.
        block = engine.mats.take(rows, axis=1)
        try:
            np.add.at(block.reshape(-1), rm_idx, rm_val)
            T = block.take(np.arange(NT) - shift.repeat(c_rows), axis=1)
            np.add.at(T.reshape(-1), ad_idx, ad_val)
        except IndexError:
            raise ValueError("probe of an invalid move (a transfer before superstep 0)") from None
        sums = np.add.reduceat(superstep_block_costs(T, self.g, self.l), seg)
        # Each item's current cost over its rows, summed row by row in order
        # (the zeros of unread rows leave a running sum unchanged).
        current = (mark[:, 2:S + 2] * engine.step_cost).cumsum(axis=1)[:, -1]
        return sums - current.take(item), row_item, rows

    def move_deltas(self, v: int, moves: Sequence[Move]) -> np.ndarray:
        """Cost changes of several candidate moves of ``v``, state unchanged.

        One-item form of :meth:`probe`.  All ``moves`` must be valid moves
        of the same node ``v`` (e.g. the output of :meth:`candidate_moves`).
        """
        if not moves:
            return np.zeros(0, dtype=np.float64)
        deltas, _, _ = self.probe(
            np.array([v], dtype=np.int64),
            np.zeros(len(moves), dtype=np.int64),
            np.array([mv[1] for mv in moves], dtype=np.int64),
            np.array([mv[2] for mv in moves], dtype=np.int64),
        )
        return deltas

    def move_delta(self, v: int, new_proc: int, new_step: int) -> float:
        """Cost change the move would cause, leaving the state unchanged."""
        return float(self.move_deltas(v, [(v, new_proc, new_step)])[0])

    def evaluate_move(self, v: int, new_proc: int, new_step: int) -> float:
        """Cost after the move, computed without changing the state."""
        return self.total_cost + self.move_delta(v, new_proc, new_step)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_schedule(self) -> BspSchedule:
        """Materialize the current state as a (lazy-comm) BSP schedule with
        compacted superstep indices.

        Compaction removes empty supersteps, so the returned schedule's cost
        is less than or equal to :attr:`total_cost` (which prices the
        schedule exactly as currently laid out).
        """
        sched = BspSchedule(self.dag, self.machine, self.proc.copy(), self.step.copy())
        return sched.normalized()

    def current_schedule(self) -> BspSchedule:
        """The schedule exactly as laid out (no superstep compaction)."""
        return BspSchedule(self.dag, self.machine, self.proc.copy(), self.step.copy())

    def recompute_cost(self) -> float:
        """Recompute the total cost of the current layout from scratch.

        Testing / debugging aid: must always equal :attr:`total_cost`.
        """
        return float(self.current_schedule().cost())
