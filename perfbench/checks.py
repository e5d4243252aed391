"""Correctness checks the benchmark applies to every solve it times."""

from __future__ import annotations

import math
from typing import Any, List, Optional

#: Relative tolerance for comparing float costs that should agree exactly
#: up to summation order.
_REL_TOL = 1e-9


def result_violations(
    result: Any,
    *,
    trivial_cost: Optional[float] = None,
    reference: Optional[Any] = None,
) -> List[str]:
    """Why ``result`` (a :class:`repro.spec.SolveResult`) is unacceptable.

    An empty list means the result passes.  A result must be valid, its
    ``total_cost`` finite and equal to ``work_cost + comm_cost +
    latency_cost``.  With ``trivial_cost`` given, the cost may also not
    exceed it.  With ``reference`` given (an earlier result of the same
    deterministic request), the result must equal it in everything but
    its timing.
    """
    problems: List[str] = []
    if not result.valid:
        problems.append(f"invalid schedule: {result.scheduler_description}")
    total = result.total_cost
    if not math.isfinite(total):
        problems.append(f"total_cost is not finite: {total!r}")
        return problems
    parts = result.work_cost + result.comm_cost + result.latency_cost
    if not math.isclose(total, parts, rel_tol=_REL_TOL, abs_tol=_REL_TOL):
        problems.append(
            f"total_cost {total!r} != work + comm + latency = {parts!r}"
        )
    if trivial_cost is not None and total > trivial_cost * (1 + _REL_TOL):
        problems.append(f"total_cost {total!r} exceeds the trivial schedule's {trivial_cost!r}")
    if reference is not None and result.to_dict() != reference.to_dict():
        problems.append("result differs from the first pass of a deterministic workload")
    return problems
