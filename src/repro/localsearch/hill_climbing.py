"""HC: hill-climbing local search over node moves (paper Section 4.3).

Starting from a valid BSP schedule, HC repeatedly applies single-node moves
that strictly decrease the total cost: a node currently at (processor ``p``,
superstep ``s``) may be moved to any processor in supersteps ``s-1``, ``s``
or ``s+1``, with all other assignments unchanged, as long as the result is
still a valid schedule (under the lazy communication schedule).

The paper's preliminary experiments found the greedy first-improvement
variant to match the steepest-descent variant in quality at a fraction of
the run time; both are available here (``variant="first"`` /
``variant="best"``), the greedy one being the default used by the combined
pipeline.

The scan visits the nodes in order, but probes them in batches through
:meth:`LocalSearchState.probe`, one numpy pass per batch.  Between applied
moves the state is static, so a probe result stays exact until a move
touches the probed node's 2-hop neighbourhood
(:meth:`LocalSearchState.probe_dependents`) or one of the superstep rows
the probe read; every other result is kept, and a node whose kept result
has no improving move is skipped without re-probing.  A batch starts at 16
nodes and doubles while it turns up no improving move, up to a fixed cap,
so long converged stretches cost few numpy passes while an applied move
wastes at most one batch of prefetched results.  The applied move sequence
is byte-identical to the naive probe-every-node scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..model.schedule import BspSchedule
from ..obs import trace as _trace
from .state import LocalSearchState

__all__ = ["HillClimbingResult", "hill_climb", "HillClimbingImprover"]

_EPS = 1e-9

#: First and largest number of nodes per :meth:`LocalSearchState.probe`
#: batch.  The cap bounds the batch's row tensor, and so peak memory.
_BATCH = 16
_MAX_BATCH = 64


@dataclass
class HillClimbingResult:
    """Outcome of a hill-climbing run."""

    schedule: BspSchedule
    initial_cost: float
    final_cost: float
    moves_applied: int
    passes: int
    reached_local_optimum: bool

    @property
    def improvement(self) -> float:
        """Relative cost reduction achieved (0 if the start was already optimal)."""
        if self.initial_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


def hill_climb(
    schedule: BspSchedule,
    *,
    variant: str = "first",
    max_moves: Optional[int] = None,
    max_passes: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> HillClimbingResult:
    """Run hill climbing on a schedule; returns the improved schedule.

    Parameters
    ----------
    variant:
        ``"first"`` applies the first improving move found (greedy, the
        paper's default); ``"best"`` scans all moves of a node and applies
        the one with the largest improvement.
    max_moves / max_passes / time_limit:
        Optional stopping criteria (any one of them ends the search early).
    """
    if variant not in ("first", "best"):
        raise ValueError("variant must be 'first' or 'best'")
    with _trace.span("hill_climb", variant=variant, nodes=schedule.dag.n) as tspan:
        state = LocalSearchState(schedule)
        n = state.dag.n
        initial_cost = state.total_cost
        start_time = time.monotonic()
        moves_applied = 0
        passes = 0
        probes = 0
        probe_batches = 0

        def out_of_budget() -> bool:
            if max_moves is not None and moves_applied >= max_moves:
                return True
            if max_passes is not None and passes >= max_passes:
                return True
            return time_limit is not None and time.monotonic() - start_time > time_limit

        # known[v]: v's last probe result equals a fresh probe, because no
        # move since touched v's probe dependencies or the superstep rows it
        # read (read[v]).  improving[v]: that result holds an improving move;
        # found[v] keeps its candidates and deltas until v's turn comes.
        known = np.zeros(n, dtype=bool)
        improving = np.zeros(n, dtype=bool)
        read = np.zeros((n, state.S), dtype=bool)
        found: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        batch = _BATCH

        improved_any = True
        while improved_any and not out_of_budget():
            improved_any = False
            passes += 1
            # A node without candidate moves has nothing to probe.
            idle = ~state.candidate_mask().any(axis=(1, 2))
            known[idle] = True
            improving[idle] = False
            v = 0
            while True:
                todo = np.flatnonzero(~known[v:] | improving[v:])
                if todo.size == 0:
                    break
                todo += v
                v = int(todo[0])
                if out_of_budget():
                    break
                if not known[v]:
                    # Probe v and the next unknown nodes in one batch.
                    sel = todo[~known[todo]][:batch]
                    mask = state.candidate_mask(sel)
                    bi, js, procs = mask.nonzero()
                    has = np.zeros(sel.size, dtype=bool)
                    has[bi] = True
                    nodes = sel[has]
                    item = (has.cumsum() - 1)[bi]
                    steps = state.step.take(sel)[bi] + js - 1
                    known[sel] = True
                    improving[sel] = False
                    read[sel] = False
                    if nodes.size:
                        deltas, row_item, rows = state.probe(nodes, item, procs, steps)
                        probes += nodes.size
                        probe_batches += 1
                        if state.S > read.shape[1]:
                            read = np.pad(read, ((0, 0), (0, state.S - read.shape[1])))
                        read[nodes.take(row_item), rows] = True
                        better = np.unique(item[deltas < -_EPS])
                        improving[nodes.take(better)] = True
                        bounds = np.searchsorted(item, np.stack((better, better + 1)))
                        for i, c0, c1 in zip(better.tolist(), *bounds.tolist()):
                            found[int(nodes[i])] = (procs[c0:c1], steps[c0:c1], deltas[c0:c1])
                        if better.size == 0:
                            batch = min(2 * batch, _MAX_BATCH)
                    continue
                procs, steps, deltas = found.pop(v)
                if variant == "first":
                    chosen = int(np.argmax(deltas < -_EPS))
                else:
                    chosen = int(np.argmin(deltas))
                p, s = int(procs[chosen]), int(steps[chosen])
                cross_proc = p != int(state.proc[v])
                state.apply_move(v, p, s)
                moves_applied += 1
                improved_any = True
                batch = _BATCH
                if state.memory_bounded and cross_proc:
                    # Memory headroom changed on two processors; any node's
                    # candidate set may have gained/lost targets.
                    known[:] = False
                else:
                    known[state.probe_dependents(v)] = False
                touched = state.last_touched_rows
                touched = touched[touched < read.shape[1]]
                known &= ~read[:, touched].any(axis=1)
                v += 1
            if _trace.enabled():
                # Convergence telemetry: one cost-vs-pass sample per scan.  The
                # hook reads state, never steers the search.
                tspan.event(
                    "pass", index=passes, cost=float(state.total_cost), moves=moves_applied
                )
        reached_local_optimum = not improved_any

        final = state.to_schedule()
        result = HillClimbingResult(
            schedule=final,
            initial_cost=float(initial_cost),
            final_cost=float(final.cost()),
            moves_applied=moves_applied,
            passes=passes,
            reached_local_optimum=reached_local_optimum,
        )
        if _trace.enabled():
            tspan.annotate(
                initial_cost=result.initial_cost,
                final_cost=result.final_cost,
                moves=moves_applied,
                passes=passes,
                probes=probes,
                probe_batches=probe_batches,
                engine_transactions=state.engine.transactions,
            )
        return result


class HillClimbingImprover:
    """Object-style wrapper so HC can be plugged into the pipeline config."""

    name = "HC"

    def __init__(
        self,
        variant: str = "first",
        max_moves: Optional[int] = None,
        max_passes: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> None:
        self.variant = variant
        self.max_moves = max_moves
        self.max_passes = max_passes
        self.time_limit = time_limit

    def improve(self, schedule: BspSchedule) -> BspSchedule:
        """Return the hill-climbed schedule (never worse than the input)."""
        result = hill_climb(
            schedule,
            variant=self.variant,
            max_moves=self.max_moves,
            max_passes=self.max_passes,
            time_limit=self.time_limit,
        )
        return result.schedule
