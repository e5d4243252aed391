"""MILP solver.

The paper uses the open-source CBC solver with per-call time limits; this
reproduction substitutes SciPy's bundled HiGHS MILP solver
(``scipy.optimize.milp``), driven through :func:`solve`, which normalizes
the result into a :class:`SolverResult`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs import trace as _trace
from .model import IlpModel

__all__ = ["SolverStatus", "SolverResult", "solve"]


class SolverStatus(enum.Enum):
    """Normalized solver outcome."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # a solution was found but optimality not proven
    INFEASIBLE = "infeasible"
    NO_SOLUTION = "no_solution"  # time/size limit hit before any solution


@dataclass
class SolverResult:
    """Outcome of a MILP solve."""

    status: SolverStatus
    objective: Optional[float]
    values: Optional[np.ndarray]

    @property
    def has_solution(self) -> bool:
        return self.values is not None

    def value(self, index: int) -> float:
        """Value of variable ``index`` (requires a solution)."""
        if self.values is None:
            raise ValueError("solver returned no solution")
        return float(self.values[index])

    def binary_value(self, index: int) -> bool:
        """Rounded 0/1 value of a binary variable."""
        return self.value(index) > 0.5


def solve(
    model: IlpModel,
    time_limit: Optional[float] = None,
    mip_rel_gap: Optional[float] = None,
) -> SolverResult:
    """Solve a model with ``scipy.optimize.milp`` (HiGHS).

    When tracing is on, the solve is an ``ilp.solve`` span carrying the
    model size (``vars``, ``rows``, ``nnz``), the ``status`` and HiGHS's
    ``mip_gap`` (``None`` without a solution).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    with _trace.span("ilp.solve") as tspan:
        c, A, c_lb, c_ub, b_lb, b_ub, integrality = model.to_arrays()
        constraints = LinearConstraint(A, c_lb, c_ub) if model.num_constraints else ()
        options = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        if mip_rel_gap is not None:
            options["mip_rel_gap"] = float(mip_rel_gap)
        options["disp"] = False
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(b_lb, b_ub),
            options=options,
        )
        # HiGHS status codes (scipy): 0 optimal, 1 iteration/time limit,
        # 2 infeasible, 3 unbounded, 4 other.
        if res.x is not None:
            status = SolverStatus.OPTIMAL if res.status == 0 else SolverStatus.FEASIBLE
            result = SolverResult(status, float(res.fun) + model.objective_constant, np.asarray(res.x))
        elif res.status == 2:
            result = SolverResult(SolverStatus.INFEASIBLE, None, None)
        else:
            result = SolverResult(SolverStatus.NO_SOLUTION, None, None)
        if _trace.enabled():
            gap = res.get("mip_gap")
            tspan.annotate(
                vars=model.num_variables,
                rows=model.num_constraints,
                nnz=int(A.nnz),
                status=result.status.value,
                mip_gap=None if gap is None else float(gap),
            )
    return result
