"""ILPcs: ILP for the communication scheduling subproblem (paper 4.4).

With the node assignment (pi, tau) fixed, the remaining freedom is the
superstep in which each required cross-processor transfer is performed.
Each transfer of a value ``u`` to a processor ``q`` may happen in any
communication phase between ``tau(u)`` and one phase before its first
consumer on ``q``; the ILP chooses the phases so that the sum of h-relation
costs is minimized.  Like the paper's formulation (and HCcs), values are
always sent directly from the processor that computed them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..model.comm import CommSchedule
from ..model.schedule import BspSchedule
from .model import INF, IlpModel
from .solver import solve

__all__ = ["build_comm_schedule_ilp", "solve_comm_schedule_ilp", "CommScheduleIlpImprover"]


def build_comm_schedule_ilp(
    schedule: BspSchedule, transfers: Dict[Tuple[int, int], int]
) -> Tuple[IlpModel, np.ndarray]:
    """The ILPcs model of ``transfers`` (as from ``required_transfers``).

    Returns the model and an ``(X, 3)`` array whose row ``i`` is the
    ``(u, q, s)`` of variable ``i``: send ``u`` to ``q`` in phase ``s``.
    Variables come per transfer, in the order of ``transfers``, over its
    window ``step[u] .. first_need - 1``, followed by ``H[s]``.  The rows
    are one "exactly once" row per transfer, then per superstep and
    processor a send row and a recv row where some window needs one.
    """
    P = schedule.machine.P
    S = schedule.num_supersteps
    T = len(transfers)
    u, q = np.array(list(transfers), dtype=np.int64).reshape(T, 2).T
    lo = schedule.step[u].astype(np.int64)
    length = np.maximum(np.fromiter(transfers.values(), dtype=np.int64, count=T) - lo, 0)
    t = np.repeat(np.arange(T), length)
    s = lo[t] + np.arange(len(t)) - np.repeat(np.cumsum(length) - length, length)
    p_from = schedule.proc[u[t]].astype(np.int64)
    volume = np.asarray(schedule.dag.comm, dtype=np.float64)[u[t]] * schedule.machine.numa[p_from, q[t]]

    model = IlpModel(name="ILPcs")
    x = np.asarray(model.add_binaries(len(t)))
    h_var = np.asarray(model.add_variables(S))
    # Every transfer happens exactly once inside its window.
    model.add_constraints(T, t, x, 1.0, 1.0, 1.0)
    # h-relation bounds per superstep and processor (send and receive).
    send, recv = (s * P + p_from) * 2, (s * P + q[t]) * 2 + 1
    keys = np.unique(np.concatenate([send, recv]))
    model.add_constraints(
        len(keys),
        np.concatenate([np.searchsorted(keys, send), np.searchsorted(keys, recv), np.arange(len(keys))]),
        np.concatenate([x, x, h_var[keys // (2 * P)]]),
        np.concatenate([volume, volume, np.full(len(keys), -1.0)]),
        -INF,
        0.0,
    )
    model.add_objective(h_var, float(schedule.machine.g))
    return model, np.stack([u[t], q[t], s], axis=1)


def solve_comm_schedule_ilp(
    schedule: BspSchedule,
    *,
    time_limit: Optional[float] = None,
) -> Optional[BspSchedule]:
    """Optimize Gamma for a fixed (pi, tau); returns ``None`` if no solution.

    The returned schedule carries an explicit, optimized communication
    schedule; its (pi, tau) assignment is unchanged.
    """
    transfers = schedule.required_transfers()
    if not transfers:
        # Nothing to optimize: attach an (empty) explicit schedule.
        out = schedule.copy()
        out.comm = CommSchedule()
        return out

    model, sends = build_comm_schedule_ilp(schedule, transfers)
    result = solve(model, time_limit=time_limit)
    if not result.has_solution:
        return None

    comm = CommSchedule()
    for u, q, s in sends[result.values[: len(sends)] > 0.5].tolist():
        comm.add(u, int(schedule.proc[u]), q, s)
    out = schedule.copy()
    out.comm = comm
    return out


class CommScheduleIlpImprover:
    """Improver wrapper: returns the input schedule if the ILP does not help."""

    name = "ILPcs"

    def __init__(self, time_limit: Optional[float] = 30.0) -> None:
        self.time_limit = time_limit

    def improve(self, schedule: BspSchedule) -> BspSchedule:
        improved = solve_comm_schedule_ilp(schedule, time_limit=self.time_limit)
        if improved is None:
            return schedule
        if improved.cost() <= schedule.cost():
            return improved
        return schedule
