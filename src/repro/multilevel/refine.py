"""Uncoarsening and refinement (paper Section 4.5 / Appendix A.5).

After the coarsest DAG has been scheduled, the contraction steps are undone
in reverse order.  Every ``refine_interval`` uncontractions the current
schedule is *projected* onto the (slightly finer) DAG — every finer cluster
inherits the processor and superstep of the coarse cluster that contained it
— and a bounded number of hill-climbing moves is run to adapt the schedule
to the newly revealed structure.  Each level's quotient DAG is built once:
it is the fine side of one projection and the coarse side of the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.dag import ComputationalDAG
from ..localsearch.hill_climbing import hill_climb
from ..model.machine import BspMachine
from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from .coarsen import CoarseningSequence

__all__ = ["project_schedule", "uncoarsen_and_refine"]


def project_schedule(
    coarse_schedule: BspSchedule,
    coarse_mapping: np.ndarray,
    fine_dag: ComputationalDAG,
    fine_mapping: np.ndarray,
    machine: BspMachine,
) -> BspSchedule:
    """Project a schedule of a coarse DAG onto a finer DAG.

    ``coarse_mapping`` and ``fine_mapping`` map every original node to its
    cluster on the two levels (as returned by
    :meth:`CoarseningSequence.coarse_dag_after`); the fine partition must
    refine the coarse one.  Every fine cluster is assigned the processor and
    superstep of the coarse cluster containing it.  Since the coarse
    schedule is valid, so is the projection: edges inside a coarse cluster
    end up on one processor in one superstep, and every other edge inherits
    the order of its coarse edge.
    """
    fine_to_coarse = np.empty(fine_dag.n, dtype=np.int64)
    fine_to_coarse[fine_mapping] = coarse_mapping
    if not np.array_equal(fine_to_coarse[fine_mapping], coarse_mapping):
        raise ValueError("the fine partition must refine the coarse partition")
    return BspSchedule(
        fine_dag,
        machine,
        coarse_schedule.proc[fine_to_coarse],
        coarse_schedule.step[fine_to_coarse],
    )


@dataclass
class RefinementConfig:
    """Tuning knobs of the uncoarsening phase."""

    refine_interval: int = 5
    hc_moves_per_refinement: int = 100
    hc_variant: str = "first"


def uncoarsen_and_refine(
    sequence: CoarseningSequence,
    machine: BspMachine,
    coarse_schedule: BspSchedule,
    *,
    config: Optional[RefinementConfig] = None,
) -> BspSchedule:
    """Run the full uncoarsening + refinement phase.

    Starts from a schedule of the coarsest DAG (after all recorded
    contractions) and returns a schedule of the *original* DAG.
    """
    if config is None:
        config = RefinementConfig()
    current_steps = sequence.num_contractions
    current_schedule = coarse_schedule
    current_mapping = sequence.mapping_after(current_steps)

    while current_steps > 0:
        next_steps = max(0, current_steps - max(config.refine_interval, 1))
        with _trace.span(
            "refine_level", contractions=current_steps, next=next_steps
        ) as level_span:
            fine_dag, fine_mapping = sequence.coarse_dag_after(next_steps)
            projected = project_schedule(
                current_schedule, current_mapping, fine_dag, fine_mapping, machine
            )
            result = hill_climb(
                projected,
                variant=config.hc_variant,
                max_moves=config.hc_moves_per_refinement,
            )
            if _trace.enabled():
                level_span.annotate(
                    nodes=projected.dag.n, cost=result.final_cost
                )
        current_schedule = result.schedule
        current_mapping = fine_mapping
        current_steps = next_steps

    # The uncoarsening loop ends at the original DAG (0 contractions), whose
    # node indexing is the identity; re-attach the original DAG object so the
    # caller gets a schedule of exactly the DAG it passed in.
    assert current_schedule.dag.n == sequence.dag.n
    return BspSchedule(
        sequence.dag, machine, current_schedule.proc.copy(), current_schedule.step.copy()
    )
