"""Tests for the MILP modelling layer."""

import numpy as np
import pytest

from repro.ilp.model import IlpModel


class TestVariables:
    def test_add_variables(self):
        m = IlpModel()
        x = m.add_binaries(1)
        y = m.add_variables(2, lb=1.0, ub=5.0)
        z = m.add_variables(1, lb=0, ub=10, integer=True)
        assert (list(x), list(y), list(z)) == ([0], [1, 2], [3])
        assert m.num_variables == 4
        *_, b_lb, b_ub, integrality = m.to_arrays()
        assert integrality.tolist() == [1, 0, 0, 1]
        assert b_lb.tolist() == [0.0, 1.0, 1.0, 0.0]
        assert b_ub.tolist() == [1.0, 5.0, 5.0, 10.0]

    def test_invalid_bounds_rejected(self):
        m = IlpModel()
        with pytest.raises(ValueError):
            m.add_variables(1, lb=2.0, ub=1.0)


class TestConstraints:
    def test_add_constraint_forms(self):
        m = IlpModel()
        x, y = m.add_variables(2)
        m.add_le({x: 1.0, y: 2.0}, 10.0)
        m.add_ge({x: 1.0}, 1.0)
        m.add_eq({y: 1.0}, 4.0)
        m.add_constraints(2, [0, 1, 1], [x, x, y], [3.0, 1.0, -1.0], lb=[0.0, -1.0], ub=2.0)
        assert m.num_constraints == 5
        _, A, c_lb, c_ub, *_ = m.to_arrays()
        assert c_ub[0] == 10.0 and np.isinf(c_lb[0])
        assert c_lb[1] == 1.0 and np.isinf(c_ub[1])
        assert c_lb[2] == c_ub[2] == 4.0
        assert c_lb[3:].tolist() == [0.0, -1.0] and c_ub[3:].tolist() == [2.0, 2.0]
        assert A.toarray().tolist() == [[1, 2], [1, 0], [0, 1], [3, 0], [1, -1]]

    def test_zero_coefficients_dropped(self):
        m = IlpModel()
        x, y = m.add_variables(2)
        m.add_le({x: 0.0}, 1.0)
        m.add_constraints(1, [0, 0], [x, y], [-0.0, 2.0])
        _, A, *_ = m.to_arrays()
        assert A.shape == (2, 2)
        assert A.nnz == 1 and A.toarray().tolist() == [[0, 0], [0, 2]]

    def test_unknown_variable_rejected(self):
        m = IlpModel()
        m.add_variables(1)
        with pytest.raises(IndexError):
            m.add_le({5: 1.0}, 1.0)
        with pytest.raises(IndexError):
            m.add_constraints(1, [0], [-1], 1.0)

    def test_constraint_violations(self):
        m = IlpModel()
        x, y = m.add_variables(2)
        m.add_ge({x: 1.0}, 0.0)
        m.add_le({x: 1.0, y: 1.0}, 3.0)
        assert m.constraint_violations([1.0, 1.0]) == []
        assert m.constraint_violations([2.0, 2.0]) == [1]


class TestObjective:
    def test_set_and_accumulate(self):
        m = IlpModel()
        x, y = m.add_variables(2)
        m.add_objective([x], 2.0)
        m.objective_constant = 1.0
        m.add_objective([y, x], [3.0, 1.0])
        c, *_ = m.to_arrays()
        assert c.tolist() == [3.0, 3.0]
        assert float(c @ np.array([1.0, 2.0])) + m.objective_constant == pytest.approx(3 + 6 + 1)

    def test_zero_term_ignored(self):
        m = IlpModel()
        x = m.add_variables(1)
        m.add_objective(x, 0.0)
        c, *_ = m.to_arrays()
        assert c.tolist() == [0.0]


class TestCompilation:
    def test_to_arrays_round_trip(self):
        m = IlpModel()
        (x,) = m.add_binaries(1)
        (y,) = m.add_variables(1, ub=4.0)
        m.add_le({x: 2.0, y: 1.0}, 5.0)
        m.add_ge({y: 1.0}, 1.0)
        m.add_objective([x, y], -1.0)
        c, A, c_lb, c_ub, b_lb, b_ub, integrality = m.to_arrays()
        assert c.tolist() == [-1.0, -1.0]
        assert A.shape == (2, 2)
        assert A.toarray()[0].tolist() == [2.0, 1.0]
        assert np.isinf(c_lb[0]) and c_ub[0] == 5.0
        assert c_lb[1] == 1.0 and np.isinf(c_ub[1])
        assert b_ub[0] == 1.0 and b_ub[1] == 4.0
        assert integrality.tolist() == [1, 0]

    def test_empty_model_compiles(self):
        m = IlpModel()
        c, A, c_lb, c_ub, b_lb, b_ub, integrality = m.to_arrays()
        assert c.shape == (0,)
        assert A.shape == (0, 0)
        assert c_lb.dtype == b_lb.dtype == np.float64 and integrality.dtype == np.int64
