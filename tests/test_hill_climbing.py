"""Tests for the HC hill-climbing local search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.cilk import CilkScheduler
from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.dag import ComputationalDAG
from repro.localsearch.hill_climbing import HillClimbingImprover, hill_climb
from repro.localsearch.state import LocalSearchState
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule


class TestHillClimbBasics:
    def test_never_increases_cost(self, all_test_dags, machine4):
        for dag in all_test_dags:
            initial = LevelRoundRobinScheduler().schedule(dag, machine4)
            result = hill_climb(initial, max_passes=5)
            assert result.final_cost <= result.initial_cost + 1e-9
            assert result.schedule.is_valid()

    def test_improves_obviously_bad_schedule(self, machine4):
        """A round-robin schedule of independent heavy nodes over many
        supersteps is clearly improvable (latency + imbalance)."""
        dag = ComputationalDAG(8, [], work=[4] * 8)
        proc = np.zeros(8, dtype=int)
        step = np.arange(8)
        bad = BspSchedule(dag, machine4, proc, step)
        result = hill_climb(bad)
        assert result.final_cost < bad.cost()
        assert result.moves_applied > 0

    def test_reaches_local_optimum_flag(self, diamond_dag, machine2):
        initial = LevelRoundRobinScheduler().schedule(diamond_dag, machine2)
        result = hill_climb(initial)
        assert result.reached_local_optimum
        # Running HC again from the optimum applies no further move.
        again = hill_climb(result.schedule)
        assert again.moves_applied == 0

    def test_move_budget_is_respected(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        result = hill_climb(initial, max_moves=3)
        assert result.moves_applied <= 3

    def test_invalid_variant_rejected(self, diamond_dag, machine2):
        initial = BspSchedule.trivial(diamond_dag, machine2)
        with pytest.raises(ValueError):
            hill_climb(initial, variant="steepest")

    def test_improvement_property(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        result = hill_climb(initial, max_passes=5)
        assert 0.0 <= result.improvement < 1.0


class TestVariants:
    def test_best_variant_also_monotone(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        result = hill_climb(initial, variant="best", max_passes=3)
        assert result.final_cost <= result.initial_cost + 1e-9
        assert result.schedule.is_valid()

    def test_first_and_best_reach_similar_quality(self, spmv_small, machine4):
        """The paper found neither variant clearly superior; both must land
        within a reasonable factor of each other on a small instance."""
        initial = CilkScheduler(seed=0).schedule(spmv_small, machine4)
        first = hill_climb(initial, variant="first", max_passes=20).final_cost
        best = hill_climb(initial, variant="best", max_passes=20).final_cost
        assert first <= 1.5 * best
        assert best <= 1.5 * first


class TestImproverWrapper:
    def test_improver_returns_valid_not_worse(self, exp_small, machine4):
        initial = CilkScheduler(seed=0).schedule(exp_small, machine4)
        improver = HillClimbingImprover(max_passes=5)
        improved = improver.improve(initial)
        assert improved.is_valid()
        assert improved.cost() <= initial.cost() + 1e-9

    def test_time_limit_zero_applies_no_moves(self, layered_dag, machine4):
        initial = LevelRoundRobinScheduler().schedule(layered_dag, machine4)
        result = hill_climb(initial, time_limit=0.0)
        assert result.moves_applied == 0
        assert result.final_cost == pytest.approx(initial.cost())

    def test_numa_hill_climbing(self, exp_small, numa_machine):
        initial = CilkScheduler(seed=0).schedule(exp_small, numa_machine)
        result = hill_climb(initial, max_passes=5)
        assert result.schedule.is_valid()
        assert result.final_cost <= result.initial_cost + 1e-9


def naive_hill_climb(schedule, variant, max_moves):
    """HC without batches or kept results: every visited node is probed
    afresh against the current state."""
    state = LocalSearchState(schedule)
    applied = 0
    improved = True
    while improved and (max_moves is None or applied < max_moves):
        improved = False
        for v in range(state.dag.n):
            moves = state.candidate_moves(v)
            if not moves:
                continue
            if max_moves is not None and applied >= max_moves:
                break
            deltas = state.move_deltas(v, moves)
            if variant == "first":
                better = np.flatnonzero(deltas < -1e-9)
                chosen = int(better[0]) if better.size else None
            else:
                chosen = int(np.argmin(deltas)) if deltas.min() < -1e-9 else None
            if chosen is not None:
                state.apply_move(*moves[chosen])
                applied += 1
                improved = True
    return state.to_schedule(), applied


@st.composite
def random_dags(draw, max_nodes: int = 30):
    """Random DAG with edges oriented along the node order."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        k = draw(st.integers(min_value=0, max_value=min(3, v)))
        parents = draw(
            st.lists(st.integers(min_value=0, max_value=v - 1), min_size=k, max_size=k, unique=True)
        )
        edges.extend((u, v) for u in parents)
    work = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    comm = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    return ComputationalDAG(n, edges, work, comm, name="hypothesis")


MACHINES = {
    "flat": lambda: BspMachine(P=4, g=1, l=2),
    "numa": lambda: BspMachine.hierarchical(P=8, delta=3, g=1.7, l=2),
    "memory": lambda: BspMachine(P=4, g=2, l=3).with_memory_bound(8),
}


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("variant", ["first", "best"])
@settings(max_examples=20, deadline=None)
@given(dag=random_dags(), max_moves=st.sampled_from([1, 5, 200]))
def test_batched_scan_applies_the_naive_move_sequence(machine, variant, dag, max_moves):
    """Batches, kept probe results and their invalidation change nothing:
    hill_climb ends where probing every visited node afresh ends.  (200
    moves is convergence on these sizes; the bound keeps a broken
    invalidation, which can cycle, from hanging the test.)"""
    initial = LevelRoundRobinScheduler().schedule(dag, MACHINES[machine]())
    result = hill_climb(initial, variant=variant, max_moves=max_moves)
    schedule, applied = naive_hill_climb(initial, variant, max_moves)
    assert result.moves_applied == applied
    assert np.array_equal(result.schedule.proc, schedule.proc)
    assert np.array_equal(result.schedule.step, schedule.step)
