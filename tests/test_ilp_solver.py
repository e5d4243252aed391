"""Tests for the MILP solver (HiGHS), cross-checked by a branch-and-bound oracle.

The oracle is a small pure-Python best-first branch and bound over the LP
relaxation (``scipy.optimize.linprog``), branching on the most fractional
integer variable.  It is an independent solver for tiny models only.
"""

import heapq
import itertools
import time
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.ilp.model import IlpModel
from repro.ilp.solver import SolverResult, SolverStatus, solve

_INT_TOL = 1e-6


def _solve_relaxation(model: IlpModel, lb: np.ndarray, ub: np.ndarray):
    """LP relaxation with the given variable bounds; returns (obj, x) or None."""
    from scipy.optimize import linprog

    c, A, c_lb, c_ub, _, _, _ = model.to_arrays()
    # linprog wants A_ub x <= b_ub and A_eq x = b_eq; split two-sided rows.
    import scipy.sparse as sp

    A = sp.csr_matrix(A)
    ub_rows = []
    ub_rhs = []
    eq_rows = []
    eq_rhs = []
    for r in range(A.shape[0]):
        row = A.getrow(r)
        lo, hi = c_lb[r], c_ub[r]
        if np.isfinite(lo) and np.isfinite(hi) and lo == hi:
            eq_rows.append(row)
            eq_rhs.append(lo)
            continue
        if np.isfinite(hi):
            ub_rows.append(row)
            ub_rhs.append(hi)
        if np.isfinite(lo):
            ub_rows.append(-row)
            ub_rhs.append(-lo)
    A_ub = sp.vstack(ub_rows) if ub_rows else None
    A_eq = sp.vstack(eq_rows) if eq_rows else None
    bounds = list(zip(lb.tolist(), [x if np.isfinite(x) else None for x in ub.tolist()]))
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=np.array(ub_rhs) if ub_rhs else None,
        A_eq=A_eq,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        return None
    return float(res.fun), np.asarray(res.x)


def solve_branch_and_bound(
    model: IlpModel,
    time_limit: Optional[float] = None,
    max_nodes: int = 20_000,
) -> SolverResult:
    """Best-first branch and bound over the LP relaxation."""
    *_, lb0, ub0, integrality = model.to_arrays()
    integer_vars = np.flatnonzero(integrality).tolist()

    start = time.monotonic()
    counter = itertools.count()

    root = _solve_relaxation(model, lb0, ub0)
    if root is None:
        return SolverResult(SolverStatus.INFEASIBLE, None, None)

    best_obj = np.inf
    best_x: Optional[np.ndarray] = None
    # heap of (relaxation bound, tie-breaker, lb, ub)
    heap: List[Tuple[float, int, np.ndarray, np.ndarray]] = [
        (root[0], next(counter), lb0, ub0)
    ]
    nodes_explored = 0
    timed_out = False

    while heap:
        if time_limit is not None and time.monotonic() - start > time_limit:
            timed_out = True
            break
        if nodes_explored >= max_nodes:
            timed_out = True
            break
        bound, _, lb, ub = heapq.heappop(heap)
        if bound >= best_obj - 1e-9:
            continue
        relax = _solve_relaxation(model, lb, ub)
        nodes_explored += 1
        if relax is None:
            continue
        obj, x = relax
        if obj >= best_obj - 1e-9:
            continue
        # Find the most fractional integer variable.
        frac_var = -1
        frac_dist = _INT_TOL
        for i in integer_vars:
            frac = abs(x[i] - round(x[i]))
            if frac > frac_dist:
                frac_dist = frac
                frac_var = i
        if frac_var == -1:
            # Integral solution.
            if obj < best_obj:
                best_obj = obj
                best_x = x.copy()
                for i in integer_vars:
                    best_x[i] = round(best_x[i])
            continue
        floor_val = np.floor(x[frac_var])
        # Down branch.
        ub_down = ub.copy()
        ub_down[frac_var] = floor_val
        if ub_down[frac_var] >= lb[frac_var]:
            heapq.heappush(heap, (obj, next(counter), lb.copy(), ub_down))
        # Up branch.
        lb_up = lb.copy()
        lb_up[frac_var] = floor_val + 1
        if lb_up[frac_var] <= ub[frac_var]:
            heapq.heappush(heap, (obj, next(counter), lb_up, ub.copy()))

    if best_x is None:
        if timed_out:
            return SolverResult(SolverStatus.NO_SOLUTION, None, None)
        return SolverResult(SolverStatus.INFEASIBLE, None, None)
    status = SolverStatus.FEASIBLE if (timed_out or heap) else SolverStatus.OPTIMAL
    return SolverResult(status, best_obj + model.objective_constant, best_x)




def knapsack_model():
    """max 5x + 4y + 3z s.t. 2x + 3y + z <= 5 over binaries -> optimum 9 (x=y=1)."""
    m = IlpModel("knapsack")
    x, y, z = m.add_binaries(3)
    m.add_le({x: 2.0, y: 3.0, z: 1.0}, 5.0)
    # Minimization form: negate the profits.
    m.add_objective([x, y, z], [-5.0, -4.0, -3.0])
    return m, (x, y, z)


def infeasible_model():
    m = IlpModel("infeasible")
    (x,) = m.add_binaries(1)
    m.add_ge({x: 1.0}, 2.0)
    return m


def fractional_lp_model():
    """A model whose LP relaxation is fractional, forcing actual branching."""
    m = IlpModel("frac")
    x, y = m.add_variables(2, 0, 10, integer=True)
    m.add_le({x: 2.0, y: 2.0}, 7.0)
    m.add_objective([x, y], -1.0)
    return m


class TestHighsBackend:
    def test_knapsack_optimum(self):
        model, (x, y, z) = knapsack_model()
        result = solve(model)
        assert result.status == SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(-9.0)
        # The selected items must satisfy the capacity and reach profit 9.
        profit = 5 * result.value(x) + 4 * result.value(y) + 3 * result.value(z)
        weight = 2 * result.value(x) + 3 * result.value(y) + 1 * result.value(z)
        assert profit == pytest.approx(9.0)
        assert weight <= 5.0 + 1e-9

    def test_infeasible_detected(self):
        result = solve(infeasible_model())
        assert result.status == SolverStatus.INFEASIBLE
        assert not result.has_solution
        with pytest.raises(ValueError):
            result.value(0)

    def test_objective_constant_included(self):
        model, _ = knapsack_model()
        model.objective_constant = 100.0
        result = solve(model)
        assert result.objective == pytest.approx(91.0)


class TestBranchAndBoundBackend:
    def test_matches_highs_on_knapsack(self):
        model, _ = knapsack_model()
        bnb = solve_branch_and_bound(model)
        highs = solve(model)
        assert bnb.status in (SolverStatus.OPTIMAL, SolverStatus.FEASIBLE)
        assert bnb.objective == pytest.approx(highs.objective)

    def test_branches_on_fractional_relaxation(self):
        result = solve_branch_and_bound(fractional_lp_model())
        assert result.has_solution
        # Integer optimum: x + y = 3 (e.g. 3.5 rounded down).
        assert result.objective == pytest.approx(-3.0)

    def test_infeasible(self):
        result = solve_branch_and_bound(infeasible_model())
        assert result.status == SolverStatus.INFEASIBLE

    def test_respects_node_limit(self):
        result = solve_branch_and_bound(fractional_lp_model(), max_nodes=0)
        assert result.status in (SolverStatus.NO_SOLUTION, SolverStatus.FEASIBLE, SolverStatus.OPTIMAL)


class TestTelemetry:
    """With tracing on, every solve is an ``ilp.solve`` span with its size and outcome."""

    @staticmethod
    def _traced_solve(model, **kwargs):
        from repro.obs import trace

        with trace.tracing() as tracer:
            result = solve(model, **kwargs)
        (span,) = [r for r in tracer.records() if r.get("name") == "ilp.solve"]
        return result, span["attrs"]

    def test_optimal_solve_attributes(self):
        model, _ = knapsack_model()
        result, attrs = self._traced_solve(model)
        assert result.status == SolverStatus.OPTIMAL
        assert attrs == {"vars": 3, "rows": 1, "nnz": 3, "status": "optimal", "mip_gap": 0.0}
        untraced = solve(model)
        assert untraced.objective == result.objective
        assert untraced.values.tobytes() == result.values.tobytes()

    def test_capped_solve_attributes(self):
        from repro.graphs.fine import spmv_dag
        from repro.ilp.formulation import build_bsp_ilp
        from repro.model.machine import BspMachine

        form = build_bsp_ilp(spmv_dag(6, q=0.3, seed=0), BspMachine(P=4, g=1, l=2), s_first=0, s_last=3)
        result, attrs = self._traced_solve(form.model, time_limit=1e-6)
        _, A, *_ = form.model.to_arrays()
        assert result.status == SolverStatus.NO_SOLUTION
        assert attrs == {
            "vars": form.model.num_variables,
            "rows": form.model.num_constraints,
            "nnz": A.nnz,
            "status": "no_solution",
            "mip_gap": None,
        }
