"""Property-based equivalence of :class:`IncrementalCostEngine`.

The engine is the shared incremental-cost substrate of hill climbing,
simulated annealing and the communication hill climber, and
:meth:`~IncrementalCostEngine.apply_cells` is its only mutation path.
These tests drive it with random cell transactions and assert that its
running totals always equal a from-scratch evaluation through the reference
kernels in :mod:`repro.model.cost` — and that the fused block kernel is
*bitwise* interchangeable with the row kernel it shortcuts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.localsearch.engine import RECV, SEND, WORK, IncrementalCostEngine
from repro.localsearch.state import LocalSearchState
from repro.model.cost import superstep_block_costs, superstep_row_costs
from repro.registry import make_scheduler


@st.composite
def matrices(draw):
    S = draw(st.integers(min_value=1, max_value=6))
    P = draw(st.sampled_from([1, 2, 4]))
    def mat():
        # Quarter-integer grid: all engine arithmetic on these values is
        # exact in binary64.
        vals = draw(
            st.lists(
                st.integers(min_value=0, max_value=80), min_size=S * P, max_size=S * P
            )
        )
        return np.array(vals, dtype=np.float64).reshape(S, P) / 4.0
    return mat(), mat(), mat()


@st.composite
def engines(draw):
    work, send, recv = draw(matrices())
    g = draw(st.sampled_from([0.0, 1.0, 2.5]))
    l = draw(st.sampled_from([0.0, 4.0]))
    return IncrementalCostEngine(work, send, recv, g, l)


def _reference_total(engine: IncrementalCostEngine) -> float:
    rows = superstep_row_costs(
        engine.work, engine.send, engine.recv, engine.g, engine.l
    )
    return float(rows.sum())


@st.composite
def transactions(draw, engine):
    count = draw(st.integers(min_value=1, max_value=5))
    cells = []
    for _ in range(count):
        mat = draw(st.sampled_from([WORK, SEND, RECV]))
        row = draw(st.integers(min_value=0, max_value=engine.S + 2))
        col = draw(st.integers(min_value=0, max_value=engine.P - 1))
        val = draw(st.sampled_from([-3.0, -1.0, 0.5, 1.0, 4.0]))
        cells.append((mat, row, col, val))
    return cells


class TestEngineMatchesReferenceKernels:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_transactions(self, data):
        """Running total tracks the reference kernel through any apply sequence."""
        engine = data.draw(engines(), label="engine")
        assert engine.total_cost == pytest.approx(_reference_total(engine))
        txns = data.draw(st.integers(min_value=1, max_value=10), label="txns")
        for count in range(1, txns + 1):
            cells = data.draw(transactions(engine), label="cells")
            applied = engine.apply_cells(cells)
            assert applied == engine.total_cost
            assert engine.total_cost == pytest.approx(_reference_total(engine))
            assert engine.transactions == count
            assert engine.last_rows.tolist() == sorted({cell[1] for cell in cells})

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_block_kernel_bitwise_equals_row_kernel(self, data):
        """superstep_block_costs is bit-for-bit superstep_row_costs, fused."""
        work, send, recv = data.draw(matrices(), label="mats")
        g = data.draw(st.sampled_from([0.0, 1.0, 2.5, 7.0]), label="g")
        l = data.draw(st.sampled_from([0.0, 1.0, 5.0]), label="l")
        blocks = np.stack([work, send, recv])
        fused = superstep_block_costs(blocks, g, l)
        rows = superstep_row_costs(work, send, recv, g, l)
        assert np.array_equal(fused, rows)

    def test_capacity_growth_preserves_totals(self):
        engine = IncrementalCostEngine(
            np.ones((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), 2.0, 3.0
        )
        before = engine.total_cost
        engine.ensure_capacity(25)
        assert engine.S >= 26
        assert engine.total_cost == before
        assert engine.total_cost == pytest.approx(_reference_total(engine))


class TestNegativeRowValidation:
    """Regression: a negative row must raise, not wrap to the last superstep.

    numpy indexing would silently apply the delta to row ``S - 1`` — leaving
    ``total_cost`` stale relative to the matrices, the exact
    desynchronization the incremental engine exists to prevent.
    """

    def _engine(self) -> IncrementalCostEngine:
        return IncrementalCostEngine(
            np.ones((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)), 1.0, 2.0
        )

    def test_apply_cells_rejects_negative_row_and_stays_consistent(self):
        engine = self._engine()
        mats_before = engine.mats.copy()
        total_before = engine.total_cost
        with pytest.raises(ValueError, match="negative superstep row"):
            engine.apply_cells([(WORK, 1, 0, 2.0), (SEND, -1, 0, 5.0)])
        # The failed transaction must leave no trace: no matrix write, no
        # counted transaction, totals still equal to a from-scratch recompute.
        assert np.array_equal(engine.mats, mats_before)
        assert engine.total_cost == total_before
        assert engine.transactions == 0
        assert engine.total_cost == pytest.approx(_reference_total(engine))

    def test_rejected_transaction_is_not_counted(self):
        engine = self._engine()
        engine.apply_cells([(WORK, 0, 0, 4.0)])
        with pytest.raises(ValueError):
            engine.apply_cells([(WORK, -1, 0, 1.0)])
        assert engine.transactions == 1
        assert engine.last_rows.tolist() == [0]
        assert engine.total_cost == pytest.approx(_reference_total(engine))


class TestLocalSearchStateTransactions:
    """Every applied move is exactly one engine transaction."""

    def test_one_transaction_per_apply_move(self, layered_dag, machine4):
        state = LocalSearchState(make_scheduler("bspg").schedule(layered_dag, machine4))
        rng = np.random.default_rng(11)
        applied = 0
        for _ in range(60):
            v = int(rng.integers(layered_dag.n))
            moves = state.candidate_moves(v)
            if not moves:
                continue
            _, p, s = moves[int(rng.integers(len(moves)))]
            state.apply_move(v, p, s)
            applied += 1
            assert state.engine.transactions == applied
            assert state.last_touched_rows is state.engine.last_rows
            assert state.total_cost == pytest.approx(state.recompute_cost())
        assert applied > 0
