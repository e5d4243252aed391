"""A small mixed-integer linear programming modelling layer.

The paper formulates (parts of) the BSP scheduling problem as ILPs and hands
them to the CBC solver.  CBC is not available offline, so this repository
ships its own thin modelling layer which compiles to ``scipy.optimize.milp``
(the HiGHS solver bundled with SciPy).

The model is stored as numpy blocks, so a formulation emits a whole
constraint family in one call: variables are allocated in blocks that
share bounds and integrality (:meth:`IlpModel.add_variables` returns the
index range), constraints are appended as COO blocks ``(rows, cols, vals)``
with per-row bounds, and objective terms as ``(cols, coeffs)`` blocks.
:meth:`IlpModel.to_arrays` concatenates the blocks once and builds the CSR
matrix.  ``add_le``/``add_ge``/``add_eq`` add one row from a
``{var_index: coefficient}`` dict through the same block path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["IlpModel", "INF"]

INF = float("inf")


class IlpModel:
    """A minimization MILP built block by block by the formulations."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.num_variables = 0
        self.num_constraints = 0
        self.objective_constant = 0.0
        self._var_blocks: List[Tuple[int, float, float, int]] = []
        self._row_blocks: List[Tuple[np.ndarray, ...]] = []
        self._obj_blocks: List[Tuple[np.ndarray, np.ndarray]] = []

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_variables(
        self, count: int, lb: float = 0.0, ub: float = INF, integer: bool = False
    ) -> range:
        """Add ``count`` variables sharing bounds and integrality; return their indices."""
        if ub < lb:
            raise ValueError("variable upper bound below lower bound")
        start = self.num_variables
        self.num_variables += int(count)
        self._var_blocks.append((int(count), float(lb), float(ub), int(bool(integer))))
        return range(start, self.num_variables)

    def add_binaries(self, count: int) -> range:
        """Add ``count`` binary (0/1) variables; return their indices."""
        return self.add_variables(count, 0.0, 1.0, integer=True)

    # ------------------------------------------------------------------
    # Constraints and objective
    # ------------------------------------------------------------------
    def add_constraints(self, count: int, rows, cols, vals, lb=-INF, ub=INF) -> None:
        """Append ``count`` rows ``lb <= A x <= ub`` given in COO form.

        ``rows`` index the new rows ``0..count-1``; ``vals``, ``lb`` and
        ``ub`` broadcast.  Zero coefficients are dropped; a row must not
        name the same variable twice.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.broadcast_to(np.asarray(vals, dtype=np.float64), cols.shape).ravel()
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_variables):
            raise IndexError("constraint references an unknown variable")
        keep = vals != 0.0
        self._row_blocks.append((
            rows[keep] + self.num_constraints,
            cols[keep],
            vals[keep],
            np.broadcast_to(np.asarray(lb, dtype=np.float64), (count,)),
            np.broadcast_to(np.asarray(ub, dtype=np.float64), (count,)),
        ))
        self.num_constraints += int(count)

    def add_constraint(self, coeffs: Dict[int, float], lb: float = -INF, ub: float = INF) -> None:
        """Add the one row ``lb <= coeffs . x <= ub``."""
        cols = np.fromiter(coeffs.keys(), dtype=np.int64, count=len(coeffs))
        vals = np.fromiter(coeffs.values(), dtype=np.float64, count=len(coeffs))
        self.add_constraints(1, np.zeros(len(coeffs), dtype=np.int64), cols, vals, lb, ub)

    def add_le(self, coeffs: Dict[int, float], rhs: float) -> None:
        """Add ``coeffs . x <= rhs``."""
        self.add_constraint(coeffs, -INF, rhs)

    def add_ge(self, coeffs: Dict[int, float], rhs: float) -> None:
        """Add ``coeffs . x >= rhs``."""
        self.add_constraint(coeffs, rhs, INF)

    def add_eq(self, coeffs: Dict[int, float], rhs: float) -> None:
        """Add ``coeffs . x == rhs``."""
        self.add_constraint(coeffs, rhs, rhs)

    def add_objective(self, cols, coeffs) -> None:
        """Accumulate ``coeffs . x[cols]`` into the minimization objective."""
        cols = np.asarray(cols, dtype=np.int64).ravel()
        coeffs = np.broadcast_to(np.asarray(coeffs, dtype=np.float64), cols.shape).ravel()
        self._obj_blocks.append((cols, coeffs))

    # ------------------------------------------------------------------
    # Compilation to array form (used by the solver)
    # ------------------------------------------------------------------
    def to_arrays(self):
        """Return ``(c, A, c_lb, c_ub, bounds_lb, bounds_ub, integrality)``.

        ``A`` is a ``scipy.sparse.csr_matrix`` of shape ``(m, n)``, as
        accepted by ``scipy.optimize.milp``.
        """
        import scipy.sparse as sp

        n = self.num_variables
        c = np.zeros(n, dtype=np.float64)
        for cols, coeffs in self._obj_blocks:
            np.add.at(c, cols, coeffs)
        # A leading empty block fixes the dtypes of an empty model.
        no_int, no_float = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        first = (no_int, no_int, no_float, no_float, no_float)
        rows, cols, data, c_lb, c_ub = (np.concatenate(b) for b in zip(first, *self._row_blocks))
        A = sp.csr_matrix((data, (rows, cols)), shape=(self.num_constraints, n))
        counts, lbs, ubs, ints = (np.array(b) for b in zip((0, 0.0, 0.0, 0), *self._var_blocks))
        integrality = np.repeat(ints, counts)
        return c, A, c_lb, c_ub, np.repeat(lbs, counts), np.repeat(ubs, counts), integrality

    def constraint_violations(self, x: Sequence[float], tol: float = 1e-6) -> List[int]:
        """Rows violated by an assignment (for tests and debugging)."""
        _, A, c_lb, c_ub, *_ = self.to_arrays()
        value = A @ np.asarray(x, dtype=np.float64)
        return np.flatnonzero((value < c_lb - tol) | (value > c_ub + tol)).tolist()
