"""Incremental superstep-matrix cost engine: the one owner of the cost state.

Every local search in this package maintains the same redundant state: the
``(S, P)`` per-superstep work / send / receive matrices, the per-superstep
cost vector derived from them through
:func:`repro.model.cost.superstep_block_costs`, and the running total.  This
module owns that state once, and :meth:`IncrementalCostEngine.apply_cells`
is the only code that writes it: a move is a short list of
``(matrix, row, col, value)`` cell deltas, applied in order and followed by
a refresh of just the touched rows, instead of a superstep-matrix rebuild.
Because every mutation goes through that one method, its transaction counter
and its record of the refreshed rows are true for every caller.

The three matrices are stored stacked in one ``(3, S, P)`` tensor
(:attr:`IncrementalCostEngine.mats`), so that the probe hot paths of the
callers read the affected rows of all three with a single fancy index and
re-cost them with the fused kernel.

:class:`~repro.localsearch.state.LocalSearchState` (hill climbing and
simulated annealing) and
:class:`~repro.localsearch.comm_hill_climbing.CommScheduleState` (HCcs) both
sit on this engine; each turns a move into its cell deltas and hands them to
:meth:`~IncrementalCostEngine.apply_cells`.  The cost formula itself stays in
:mod:`repro.model.cost`, the single source of truth.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..model.cost import superstep_block_costs

__all__ = ["IncrementalCostEngine", "Cell", "WORK", "SEND", "RECV"]

#: Matrix selectors for cell deltas: ``(matrix, row, col, value)`` tuples.
WORK, SEND, RECV = 0, 1, 2

Cell = Tuple[int, int, int, float]


class IncrementalCostEngine:
    """Incremental BSP cost bookkeeping over ``(S, P)`` superstep matrices.

    Parameters
    ----------
    work / send / recv:
        Initial ``(S, P)`` matrices (copied into the stacked tensor).
    g / l:
        BSP machine parameters of the cost formula
        ``C(s) = max_p work + g * h + l * occurs``.
    slack:
        Spare all-zero superstep rows appended up front so that growth into
        a new superstep does not immediately reallocate.
    """

    _SLACK = 4

    def __init__(
        self,
        work: np.ndarray,
        send: np.ndarray,
        recv: np.ndarray,
        g: float,
        l: float,
        *,
        slack: Optional[int] = None,
    ) -> None:
        if slack is None:
            slack = self._SLACK
        rows, P = work.shape
        self.P = int(P)
        self.S = rows + slack
        self.g = float(g)
        self.l = float(l)
        self.mats = np.zeros((3, self.S, self.P))
        self.mats[WORK, :rows] = work
        self.mats[SEND, :rows] = send
        self.mats[RECV, :rows] = recv
        self.step_cost = superstep_block_costs(self.mats, self.g, self.l)
        self.total_cost = float(self.step_cost.sum())
        #: Count of applied transactions — the "engine transaction" figure
        #: of convergence telemetry spans.
        self.transactions: int = 0
        #: Sorted unique superstep rows the most recent :meth:`apply_cells`
        #: re-costed.
        self.last_rows: np.ndarray = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def work(self) -> np.ndarray:
        """The ``(S, P)`` work matrix (a view into :attr:`mats`)."""
        return self.mats[WORK]

    @property
    def send(self) -> np.ndarray:
        """The ``(S, P)`` send matrix (a view into :attr:`mats`)."""
        return self.mats[SEND]

    @property
    def recv(self) -> np.ndarray:
        """The ``(S, P)`` receive matrix (a view into :attr:`mats`)."""
        return self.mats[RECV]

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def ensure_capacity(self, step: int) -> None:
        """Grow the matrices so that superstep row ``step`` exists."""
        if step < self.S:
            return
        extra = step - self.S + 1 + self._SLACK
        self.mats = np.concatenate(
            [self.mats, np.zeros((3, extra, self.P))], axis=1
        )
        self.step_cost = np.concatenate([self.step_cost, np.zeros(extra)])
        self.S += extra

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @staticmethod
    def _check_rows(cells: Sequence[Cell]) -> None:
        """Reject negative superstep rows before any matrix is touched.

        A negative row would silently wrap the numpy cell write to the last
        superstep and desynchronize ``total_cost`` from the matrices with no
        error.
        """
        for cell in cells:
            if cell[1] < 0:
                raise ValueError(
                    f"negative superstep row {cell[1]} in cell delta {cell!r}; "
                    "rows must be >= 0"
                )

    def apply_cells(self, cells: Sequence[Cell]) -> float:
        """Apply one transaction of cell deltas; return the new total cost.

        Each cell is ``(matrix, row, col, value)`` with ``matrix`` one of
        :data:`WORK` / :data:`SEND` / :data:`RECV`; ``value`` is added to the
        cell, in list order.  The matrices grow to hold the largest row, and
        afterwards the cost of every touched row and the total are refreshed
        (the rows are left in :attr:`last_rows`).  A cell with a negative
        ``row`` raises :class:`ValueError` and leaves the engine untouched.
        """
        if cells:
            self._check_rows(cells)
            self.ensure_capacity(max(cell[1] for cell in cells))
        mats = self.mats
        for mat, row, col, val in cells:
            mats[mat, row, col] += val
        self.transactions += 1
        idx = np.unique(np.fromiter((cell[1] for cell in cells), dtype=np.int64))
        self.last_rows = idx
        if idx.size:
            new = superstep_block_costs(mats[:, idx], self.g, self.l)
            self.total_cost += float(new.sum() - self.step_cost[idx].sum())
            self.step_cost[idx] = new
        return self.total_cost
