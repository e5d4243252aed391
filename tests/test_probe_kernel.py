"""The batched probe kernel equals the per-node reference bit for bit.

:meth:`LocalSearchState.probe` computes the cost deltas of a whole batch of
candidate moves in one numpy pass.  The reference below is the per-node
builder it replaced: it virtually removes the node from its parents'
successor tables, collects the touched superstep rows and the cell deltas
node by node, and shares the same gather / scatter / fused-cost tail.  The
kernel must reproduce its deltas and rows exactly (not approximately): hill
climbing breaks ties between equal deltas, so one differently rounded sum
changes a schedule.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.cilk import CilkScheduler
from repro.baselines.trivial import LevelRoundRobinScheduler
from repro.graphs.dag import ComputationalDAG
from repro.graphs.fine import exp_dag, spmv_dag
from repro.localsearch.state import _NO_STEP, LocalSearchState, Move
from repro.model.cost import superstep_block_costs
from repro.model.machine import BspMachine


def probe_items(
    state: LocalSearchState, items: Sequence[Tuple[int, Sequence[Move]]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """:meth:`LocalSearchState.probe` on ``(v, moves)`` items, split per item."""
    live = [i for i, (_, moves) in enumerate(items) if moves]
    deltas_out = [np.zeros(0, dtype=np.float64) for _ in items]
    rows_out = [np.zeros(0, dtype=np.int64) for _ in items]
    if not live:
        return deltas_out, rows_out
    moves = [mv for i in live for mv in items[i][1]]
    item = np.repeat(np.arange(len(live)), [len(items[i][1]) for i in live])
    deltas, row_item, rows = state.probe(
        np.array([items[i][0] for i in live], dtype=np.int64),
        item,
        np.array([mv[1] for mv in moves], dtype=np.int64),
        np.array([mv[2] for mv in moves], dtype=np.int64),
    )
    c_bounds = np.searchsorted(item, np.arange(len(live) + 1))
    r_bounds = np.searchsorted(row_item, np.arange(len(live) + 1))
    for k, i in enumerate(live):
        deltas_out[i] = deltas[c_bounds[k]:c_bounds[k + 1]]
        rows_out[i] = rows[r_bounds[k]:r_bounds[k + 1]]
    return deltas_out, rows_out


def reference_move_deltas_many(
    state: LocalSearchState, items: Sequence[Tuple[int, Sequence[Move]]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-node probe builder: ``(deltas, rows)`` per ``(v, moves)`` item.

    It edits the successor tables in place around each node (and restores
    them), so it must run on a state nobody else reads meanwhile.
    """
    engine = state.engine
    P = state.P
    numa = state.numa.tolist()
    work = state._work_of.tolist()
    comm = state._comm_of.tolist()
    max_s = max((mv[2] for _, moves in items for mv in moves), default=-1)
    if max_s >= 0:
        engine.ensure_capacity(max_s)
    S = engine.S
    sc = engine.step_cost.tolist()
    pred_indptr, pred_indices = state.dag.pred_indptr, state.dag.pred_indices

    all_rows: List[int] = []
    src: List[int] = []
    rm_m: List[int] = []
    rm_r: List[int] = []
    rm_c: List[int] = []
    rm_v: List[float] = []
    ad_m: List[int] = []
    ad_r: List[int] = []
    ad_c: List[int] = []
    ad_v: List[float] = []
    seg_starts: List[int] = []
    base_costs: List[float] = []
    shape: List[Tuple[int, int]] = []
    rows_out: List[np.ndarray] = []
    n_off = 0
    m_off = 0

    for v, moves in items:
        if not moves:
            shape.append((0, 0))
            rows_out.append(np.zeros(0, dtype=np.int64))
            continue
        p0 = int(state.proc[v])
        s0 = int(state.step[v])
        parents = pred_indices[pred_indptr[v]:pred_indptr[v + 1]].tolist()
        proc_of = {u: int(state.proc[u]) for u in parents}
        w_v = work[v]
        c_v = comm[v]
        needed_row = state.succ_min[v].tolist()
        out_q = [q for q in range(P) if needed_row[q] < _NO_STEP]
        out_rows = [needed_row[q] - 1 for q in out_q]

        # Virtually remove v from its parents' successor tables.
        old_nd_p0 = {}
        state.step[v] = _NO_STEP
        for u in parents:
            old_nd_p0[u] = int(state.succ_min[u, p0])
            state._succ_dec(u, p0, s0)
        try:
            cand_procs = {m[1] for m in moves}
            cand_procs.add(p0)
            rows = {s0}
            rows.update(out_rows)
            for (_, _, s) in moves:
                rows.add(s)
                rows.add(s - 1)
            base_nd: dict = {}
            for u in parents:
                if old_nd_p0[u] < _NO_STEP:
                    rows.add(old_nd_p0[u] - 1)
                for p in cand_procs:
                    nd = int(state.succ_min[u, p])
                    base_nd[(u, p)] = nd
                    if nd < _NO_STEP:
                        rows.add(nd - 1)
            rows_sorted = sorted(r for r in rows if 0 <= r < S)
            nR = len(rows_sorted)
            ridx = dict(zip(rows_sorted, range(nR)))

            # Shared removal deltas (the item's base rows).
            rm_m.append(0)
            rm_r.append(n_off + ridx[s0])
            rm_c.append(p0)
            rm_v.append(-w_v)
            for q, row in zip(out_q, out_rows):
                if q == p0:
                    continue
                volume = c_v * numa[p0][q]
                i = n_off + ridx[row]
                rm_m += (1, 2)
                rm_r += (i, i)
                rm_c += (p0, q)
                rm_v += (-volume, -volume)
            for u in parents:
                pu = proc_of[u]
                if pu == p0:
                    continue
                nd_old, nd_new = old_nd_p0[u], base_nd[(u, p0)]
                if nd_old == nd_new:
                    continue
                volume = comm[u] * numa[pu][p0]
                if nd_old < _NO_STEP:
                    i = n_off + ridx[nd_old - 1]
                    rm_m += (1, 2)
                    rm_r += (i, i)
                    rm_c += (pu, p0)
                    rm_v += (-volume, -volume)
                if nd_new < _NO_STEP:
                    i = n_off + ridx[nd_new - 1]
                    rm_m += (1, 2)
                    rm_r += (i, i)
                    rm_c += (pu, p0)
                    rm_v += (volume, volume)

            # Per-candidate addition deltas.
            K = len(moves)
            for k, (_, p, s) in enumerate(moves):
                fo = m_off + k * nR
                seg_starts.append(fo)
                ad_m.append(0)
                ad_r.append(fo + ridx[s])
                ad_c.append(p)
                ad_v.append(w_v)
                for q, row in zip(out_q, out_rows):
                    if q == p:
                        continue
                    volume = c_v * numa[p][q]
                    i = fo + ridx[row]
                    ad_m += (1, 2)
                    ad_r += (i, i)
                    ad_c += (p, q)
                    ad_v += (volume, volume)
                for u in parents:
                    pu = proc_of[u]
                    if p == pu:
                        continue
                    nd = base_nd[(u, p)]
                    if s < nd:
                        volume = comm[u] * numa[pu][p]
                        if nd < _NO_STEP:
                            i = fo + ridx[nd - 1]
                            ad_m += (1, 2)
                            ad_r += (i, i)
                            ad_c += (pu, p)
                            ad_v += (-volume, -volume)
                        i = fo + ridx[s - 1]
                        ad_m += (1, 2)
                        ad_r += (i, i)
                        ad_c += (pu, p)
                        ad_v += (volume, volume)
        finally:
            for u in parents:
                state._succ_inc(u, p0, s0)
            state.step[v] = s0

        bc = 0.0
        for r in rows_sorted:
            bc += sc[r]
        base_costs.extend([bc] * K)
        rr = list(range(n_off, n_off + nR))
        for _ in range(K):
            src += rr
        all_rows += rows_sorted
        rows_out.append(np.array(rows_sorted, dtype=np.int64))
        shape.append((K, nR))
        n_off += nR
        m_off += K * nR

    if m_off == 0:
        return [np.zeros(0, dtype=np.float64) for _ in items], rows_out

    base_big = engine.mats[:, np.array(all_rows, dtype=np.int64)]
    np.add.at(base_big, (rm_m, rm_r, rm_c), rm_v)
    T = base_big[:, np.array(src, dtype=np.int64)]
    np.add.at(T, (ad_m, ad_r, ad_c), ad_v)
    costs = superstep_block_costs(T, state.g, state.l)
    sums = np.add.reduceat(costs, np.array(seg_starts, dtype=np.int64))
    diff = sums - np.array(base_costs)
    deltas: List[np.ndarray] = []
    k_off = 0
    for K, _ in shape:
        deltas.append(diff[k_off:k_off + K])
        k_off += K
    return deltas, rows_out


@st.composite
def random_dags(draw, max_nodes: int = 40):
    """Random DAG with edges oriented along the node order."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        k = draw(st.integers(min_value=0, max_value=min(4, v)))
        parents = draw(
            st.lists(st.integers(min_value=0, max_value=v - 1), min_size=k, max_size=k, unique=True)
        )
        edges.extend((u, v) for u in parents)
    work = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    # A few huge weights make float sums order-sensitive in the low bits.
    comm = draw(
        st.lists(st.sampled_from([0, 1, 2, 3, 4, 3**25]), min_size=n, max_size=n)
    )
    return ComputationalDAG(n, edges, work, comm, name="hypothesis")


MACHINES = {
    "flat": lambda: BspMachine(P=4, g=1, l=2),
    "numa": lambda: BspMachine.hierarchical(P=8, delta=3, g=1.7, l=2),
    "memory": lambda: BspMachine(P=4, g=2, l=3).with_memory_bound(6),
    # Fractional NUMA factors make the matrix cells non-integer, so the
    # order in which one cell's contributions are added shows in its bits.
    "numa-frac": lambda: BspMachine.hierarchical(P=8, delta=1.3, g=1.1, l=2),
}


@pytest.mark.parametrize("machine", sorted(MACHINES))
@settings(max_examples=40, deadline=None)
@given(dag=random_dags(), data=st.data())
def test_kernel_matches_reference_bitwise(machine, dag, data):
    """Deltas and rows equal the reference's exactly, at batch sizes 1, 16
    and all nodes, before and after random moves."""
    state = LocalSearchState(LevelRoundRobinScheduler().schedule(dag, MACHINES[machine]()))
    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="rounds")):
        items = [(v, state.candidate_moves(v)) for v in range(dag.n)]
        for size in (1, 16, dag.n):
            for start in range(0, dag.n, size):
                batch = items[start:start + size]
                deltas, rows = probe_items(state, batch)
                ref_deltas, ref_rows = reference_move_deltas_many(state, batch)
                for got, want in zip(deltas, ref_deltas):
                    assert got.tobytes() == want.tobytes()
                for got, want in zip(rows, ref_rows):
                    assert np.array_equal(got, want)
        for _ in range(data.draw(st.integers(min_value=0, max_value=6), label="moves")):
            v = data.draw(st.integers(min_value=0, max_value=dag.n - 1), label="node")
            moves = state.candidate_moves(v)
            if moves:
                state.apply_move(*moves[data.draw(st.integers(0, len(moves) - 1), label="move")])


def test_single_node_forms_share_the_kernel():
    """move_deltas / move_delta are the one-item batch of the same kernel."""
    dag = exp_dag(6, k=2, q=0.3, seed=5)
    state = LocalSearchState(
        LevelRoundRobinScheduler().schedule(dag, MACHINES["numa"]())
    )
    items = [(v, state.candidate_moves(v)) for v in range(dag.n)]
    batched, _ = probe_items(state, items)
    for (v, moves), deltas in zip(items, batched):
        assert state.move_deltas(v, moves).tobytes() == deltas.tobytes()
        for move in moves:
            [alone], _ = probe_items(state, [(v, [move])])
            assert state.move_delta(*move) == float(alone[0])


def test_kernel_matches_reference_where_order_shows():
    """Huge and small weights on fractional NUMA factors: the few probes
    whose bits depend on the order of one cell's contributions match too."""
    rng = random.Random(1)
    machine = MACHINES["numa-frac"]()
    for base in (exp_dag(6, k=2, q=0.3, seed=5), spmv_dag(23, q=0.3, seed=47)):
        comm = [rng.choice([1, 2, 3, 3**25, 7**13]) for _ in range(base.n)]
        edges = list(zip(base.edge_sources.tolist(), base.edge_targets.tolist()))
        dag = ComputationalDAG(base.n, edges, base.work, comm, name="heavy")
        state = LocalSearchState(CilkScheduler(seed=1).schedule(dag, machine))
        for _ in range(20):
            items = [(v, state.candidate_moves(v)) for v in range(dag.n)]
            deltas, _ = probe_items(state, items)
            ref_deltas, _ = reference_move_deltas_many(state, items)
            for got, want in zip(deltas, ref_deltas):
                assert got.tobytes() == want.tobytes()
            for _ in range(5):
                v = rng.randrange(dag.n)
                moves = state.candidate_moves(v)
                if moves:
                    state.apply_move(*moves[rng.randrange(len(moves))])
