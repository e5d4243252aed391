"""ILP-based scheduling methods (paper Section 4.4) and the MILP layer."""

from .commsched import CommScheduleIlpImprover, solve_comm_schedule_ilp
from .formulation import BspIlpFormulation, build_bsp_ilp, estimate_variable_count
from .full import IlpFullScheduler, solve_full_ilp
from .init import IlpInitScheduler, topological_batches
from .model import INF, IlpModel
from .partial import PartialIlpImprover, superstep_windows
from .solver import SolverResult, SolverStatus, solve

__all__ = [
    "IlpModel",
    "INF",
    "solve",
    "SolverResult",
    "SolverStatus",
    "BspIlpFormulation",
    "build_bsp_ilp",
    "estimate_variable_count",
    "IlpFullScheduler",
    "solve_full_ilp",
    "CommScheduleIlpImprover",
    "solve_comm_schedule_ilp",
    "PartialIlpImprover",
    "superstep_windows",
    "IlpInitScheduler",
    "topological_batches",
]
