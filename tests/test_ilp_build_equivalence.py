"""Byte-identity of the array-built ILP models against a dict-built reference.

``IlpModel`` stores its model as numpy blocks, and ``build_bsp_ilp`` and
the ILPcs model build emit each constraint family with broadcasting.  The
reference below is the earlier dict-per-constraint modelling layer, kept
verbatim: one ``Constraint`` dict per row, a name per variable, and the
per-node loops of the window ILP and of ILPcs.  Both must hand HiGHS the
same ``(c, A, row bounds, column bounds, integrality)`` down to the bytes,
CSR ``indptr``/``indices``/``data`` and dtypes included, so every solve
that is not cut off by its time limit returns the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.dag import ComputationalDAG
from repro.ilp.commsched import build_comm_schedule_ilp
from repro.ilp.formulation import build_bsp_ilp
from repro.model.machine import BspMachine
from repro.model.schedule import BspSchedule

# ----------------------------------------------------------------------
# Reference: the dict modelling layer and the loop builders, verbatim.
# ----------------------------------------------------------------------
INF = float("inf")


@dataclass
class Constraint:
    """A linear constraint ``lb <= sum(coeffs[i] * x[i]) <= ub``."""

    coeffs: Dict[int, float]
    lb: float
    ub: float
    name: str = ""


@dataclass
class RefIlpModel:
    """A minimization MILP built incrementally by the formulations."""

    name: str = "model"
    var_names: List[str] = field(default_factory=list)
    var_lb: List[float] = field(default_factory=list)
    var_ub: List[float] = field(default_factory=list)
    var_integer: List[bool] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)
    objective: Dict[int, float] = field(default_factory=dict)
    objective_constant: float = 0.0

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.var_names)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = INF,
        integer: bool = False,
    ) -> int:
        """Add a variable and return its index."""
        if ub < lb:
            raise ValueError(f"variable {name}: upper bound below lower bound")
        self.var_names.append(name)
        self.var_lb.append(float(lb))
        self.var_ub.append(float(ub))
        self.var_integer.append(bool(integer))
        return len(self.var_names) - 1

    def add_binary(self, name: str) -> int:
        """Add a binary (0/1) variable and return its index."""
        return self.add_variable(name, 0.0, 1.0, integer=True)

    def add_continuous(self, name: str, lb: float = 0.0, ub: float = INF) -> int:
        """Add a continuous variable and return its index."""
        return self.add_variable(name, lb, ub, integer=False)

    # ------------------------------------------------------------------
    # Constraints and objective
    # ------------------------------------------------------------------
    def add_constraint(
        self,
        coeffs: Dict[int, float],
        lb: float = -INF,
        ub: float = INF,
        name: str = "",
    ) -> None:
        """Add ``lb <= coeffs . x <= ub``; zero-coefficient terms are dropped."""
        cleaned = {int(i): float(c) for i, c in coeffs.items() if c != 0.0}
        for i in cleaned:
            if not (0 <= i < self.num_variables):
                raise IndexError(f"constraint {name!r} references unknown variable {i}")
        self.constraints.append(Constraint(cleaned, float(lb), float(ub), name))

    def add_le(self, coeffs: Dict[int, float], rhs: float, name: str = "") -> None:
        """Add ``coeffs . x <= rhs``."""
        self.add_constraint(coeffs, -INF, rhs, name)

    def add_ge(self, coeffs: Dict[int, float], rhs: float, name: str = "") -> None:
        """Add ``coeffs . x >= rhs``."""
        self.add_constraint(coeffs, rhs, INF, name)

    def add_eq(self, coeffs: Dict[int, float], rhs: float, name: str = "") -> None:
        """Add ``coeffs . x == rhs``."""
        self.add_constraint(coeffs, rhs, rhs, name)

    def set_objective(self, coeffs: Dict[int, float], constant: float = 0.0) -> None:
        """Set the minimization objective ``coeffs . x + constant``."""
        self.objective = {int(i): float(c) for i, c in coeffs.items() if c != 0.0}
        self.objective_constant = float(constant)

    def add_objective_term(self, var: int, coeff: float) -> None:
        """Accumulate a term into the objective."""
        if coeff == 0.0:
            return
        self.objective[var] = self.objective.get(var, 0.0) + float(coeff)

    # ------------------------------------------------------------------
    # Compilation to array form (used by the solver)
    # ------------------------------------------------------------------
    def to_arrays(self):
        """Return ``(c, A, c_lb, c_ub, bounds_lb, bounds_ub, integrality)``.

        ``A`` is a dense ``(m, n)`` matrix when small and a
        ``scipy.sparse.csr_matrix`` otherwise; both are accepted by
        ``scipy.optimize.milp``.
        """
        import scipy.sparse as sp

        n = self.num_variables
        m = self.num_constraints
        c = np.zeros(n, dtype=np.float64)
        for i, coeff in self.objective.items():
            c[i] = coeff
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        c_lb = np.full(m, -np.inf)
        c_ub = np.full(m, np.inf)
        for r, cons in enumerate(self.constraints):
            c_lb[r] = cons.lb
            c_ub[r] = cons.ub
            for i, coeff in cons.coeffs.items():
                rows.append(r)
                cols.append(i)
                data.append(coeff)
        A = sp.csr_matrix((data, (rows, cols)), shape=(m, n))
        bounds_lb = np.array(self.var_lb, dtype=np.float64)
        bounds_ub = np.array(self.var_ub, dtype=np.float64)
        integrality = np.array([1 if b else 0 for b in self.var_integer], dtype=np.int64)
        return c, A, c_lb, c_ub, bounds_lb, bounds_ub, integrality

    def constraint_violations(self, x: Sequence[float], tol: float = 1e-6) -> List[str]:
        """List of constraints violated by an assignment (for tests/debugging)."""
        x = np.asarray(x, dtype=np.float64)
        violations: List[str] = []
        for cons in self.constraints:
            value = sum(coeff * x[i] for i, coeff in cons.coeffs.items())
            if value < cons.lb - tol or value > cons.ub + tol:
                violations.append(
                    f"{cons.name or 'constraint'}: value {value} outside [{cons.lb}, {cons.ub}]"
                )
        return violations

    def objective_value(self, x: Sequence[float]) -> float:
        """Objective value of an assignment (including the constant term)."""
        x = np.asarray(x, dtype=np.float64)
        return float(sum(coeff * x[i] for i, coeff in self.objective.items()) + self.objective_constant)


@dataclass
class RefFormulation:
    """A built ILP plus the index maps needed to extract a schedule."""

    model: RefIlpModel
    dag: ComputationalDAG
    machine: BspMachine
    free_nodes: List[int]
    s_first: int
    s_last: int
    comp: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    pres: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    comm: Dict[Tuple[int, int, int, int], int] = field(default_factory=dict)
    bcomm: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    base_proc: Optional[np.ndarray] = None
    base_step: Optional[np.ndarray] = None


def reference_build_bsp_ilp(
    dag: ComputationalDAG,
    machine: BspMachine,
    *,
    free_nodes: Optional[Iterable[int]] = None,
    s_first: int = 0,
    s_last: Optional[int] = None,
    base_proc: Optional[np.ndarray] = None,
    base_step: Optional[np.ndarray] = None,
    include_latency: bool = True,
    background_consumers: bool = True,
    name: str = "bsp-ilp",
) -> RefFormulation:
    """Build the (window) ILP formulation of the BSP scheduling problem.

    Parameters
    ----------
    free_nodes:
        Nodes to (re)assign.  Defaults to all nodes (the ``ILPfull`` case).
    s_first, s_last:
        Superstep window the free nodes may be assigned to.  ``s_last``
        defaults to a safe bound (one superstep per DAG level).
    base_proc, base_step:
        Fixed assignment of the non-free nodes (required whenever
        ``free_nodes`` is not the full node set).
    include_latency:
        Whether to add the per-superstep latency term to the objective.
    background_consumers:
        Whether to add the fixed communication load caused by transfers
        between non-free nodes whose (lazy) phase falls into the window.
    """
    P = machine.P
    g = float(machine.g)
    latency = float(machine.l)
    numa = machine.numa
    n = dag.n

    if free_nodes is None:
        free = list(range(n))
    else:
        free = sorted(set(int(v) for v in free_nodes))
    free_set = set(free)
    if len(free_set) != n and (base_proc is None or base_step is None):
        raise ValueError("a base assignment is required when only a subset of nodes is free")
    if s_last is None:
        s_last = s_first + max(dag.depth(), 1) - 1
    if s_last < s_first:
        raise ValueError("empty superstep window")

    model = RefIlpModel(name=name)
    form = RefFormulation(
        model=model,
        dag=dag,
        machine=machine,
        free_nodes=free,
        s_first=s_first,
        s_last=s_last,
        base_proc=None if base_proc is None else np.asarray(base_proc, dtype=np.int64).copy(),
        base_step=None if base_step is None else np.asarray(base_step, dtype=np.int64).copy(),
    )
    steps = list(range(s_first, s_last + 1))
    # Communication phases available to the window: the phase right before
    # the window (if any) plus every phase inside the window.
    comm_phases = list(range(max(s_first - 1, 0), s_last + 1))

    # ------------------------------------------------------------------
    # Boundary predecessors: non-free predecessors of free nodes.
    # ------------------------------------------------------------------
    boundary: List[int] = []
    avail0: Dict[int, Set[int]] = {}
    if len(free_set) != n:
        assert form.base_proc is not None and form.base_step is not None
        for v in free:
            for u in dag.parents(v):
                if u not in free_set and u not in avail0:
                    boundary.append(u)
                    procs = {int(form.base_proc[u])}
                    # Processors that already received u's value before the
                    # window (via the lazy schedule of the base assignment).
                    for w in dag.children(u):
                        if w in free_set:
                            continue
                        if int(form.base_step[w]) < s_first and int(form.base_proc[w]) != int(
                            form.base_proc[u]
                        ):
                            procs.add(int(form.base_proc[w]))
                    avail0[u] = procs

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    for v in free:
        for p in range(P):
            for s in steps:
                form.comp[(v, p, s)] = model.add_binary(f"comp[{v},{p},{s}]")
                form.pres[(v, p, s)] = model.add_binary(f"pres[{v},{p},{s}]")
            for p2 in range(P):
                if p2 == p:
                    continue
                for s in steps:
                    form.comm[(v, p, p2, s)] = model.add_binary(f"comm[{v},{p},{p2},{s}]")
    for u in boundary:
        src = int(form.base_proc[u])
        for p in range(P):
            if p == src:
                continue
            for s in comm_phases:
                form.bcomm[(u, p, s)] = model.add_binary(f"bcomm[{u},{p},{s}]")

    work_var = {s: model.add_continuous(f"W[{s}]") for s in steps}
    h_var = {s: model.add_continuous(f"H[{s}]") for s in comm_phases}
    used_var = {}
    if include_latency and latency > 0:
        for s in steps:
            used_var[s] = model.add_binary(f"used[{s}]")

    # ------------------------------------------------------------------
    # Background communication load from fixed-to-fixed transfers whose lazy
    # phase falls inside the window (treated as constants, like the paper).
    # ------------------------------------------------------------------
    bg_send = {(s, p): 0.0 for s in comm_phases for p in range(P)}
    bg_recv = {(s, p): 0.0 for s in comm_phases for p in range(P)}
    if background_consumers and len(free_set) != n:
        needed: Dict[Tuple[int, int], int] = {}
        for (u, w) in dag.edges:
            if u in free_set or w in free_set:
                continue
            pu, pw = int(form.base_proc[u]), int(form.base_proc[w])
            if pu == pw:
                continue
            key = (u, pw)
            sw = int(form.base_step[w])
            if key not in needed or sw < needed[key]:
                needed[key] = sw
        for (u, p_target), first_need in needed.items():
            phase = first_need - 1
            if phase in h_var:
                pu = int(form.base_proc[u])
                volume = float(dag.comm[u]) * float(numa[pu, p_target])
                bg_send[(phase, pu)] += volume
                bg_recv[(phase, p_target)] += volume

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    # (1) every free node computed exactly once
    for v in free:
        model.add_eq(
            {form.comp[(v, p, s)]: 1.0 for p in range(P) for s in steps},
            1.0,
            name=f"assign[{v}]",
        )

    # (2) precedence constraints
    for v in free:
        for u in dag.parents(v):
            if u in free_set:
                for p in range(P):
                    for s in steps:
                        coeffs = {form.comp[(v, p, s)]: 1.0}
                        for s2 in steps:
                            if s2 <= s:
                                coeffs[form.comp[(u, p, s2)]] = coeffs.get(form.comp[(u, p, s2)], 0.0) - 1.0
                        if s - 1 >= s_first:
                            coeffs[form.pres[(u, p, s - 1)]] = -1.0
                        model.add_le(coeffs, 0.0, name=f"prec[{u}->{v},{p},{s}]")
            else:
                src = int(form.base_proc[u])
                for p in range(P):
                    if p in avail0[u]:
                        continue  # value already available on p: no constraint
                    for s in steps:
                        coeffs = {form.comp[(v, p, s)]: 1.0}
                        for s2 in comm_phases:
                            if s2 <= s - 1:
                                idx = form.bcomm.get((u, p, s2))
                                if idx is not None:
                                    coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                        model.add_le(coeffs, 0.0, name=f"bprec[{u}->{v},{p},{s}]")

    # (3) presence of free values
    for v in free:
        for p in range(P):
            for s in steps:
                coeffs = {form.pres[(v, p, s)]: 1.0}
                for s2 in steps:
                    if s2 <= s:
                        coeffs[form.comp[(v, p, s2)]] = coeffs.get(form.comp[(v, p, s2)], 0.0) - 1.0
                if s - 1 >= s_first:
                    coeffs[form.pres[(v, p, s - 1)]] = -1.0
                for p1 in range(P):
                    if p1 == p:
                        continue
                    coeffs[form.comm[(v, p1, p, s)]] = -1.0
                model.add_le(coeffs, 0.0, name=f"pres[{v},{p},{s}]")

    # (4) a free value can only be sent from a processor that has it
    for v in free:
        for p1 in range(P):
            for p2 in range(P):
                if p1 == p2:
                    continue
                for s in steps:
                    coeffs = {form.comm[(v, p1, p2, s)]: 1.0}
                    for s2 in steps:
                        if s2 <= s:
                            coeffs[form.comp[(v, p1, s2)]] = coeffs.get(form.comp[(v, p1, s2)], 0.0) - 1.0
                    if s - 1 >= s_first:
                        coeffs[form.pres[(v, p1, s - 1)]] = -1.0
                    model.add_le(coeffs, 0.0, name=f"commsrc[{v},{p1},{p2},{s}]")

    # (5) work cost bounds
    for s in steps:
        for p in range(P):
            coeffs = {form.comp[(v, p, s)]: float(dag.work[v]) for v in free}
            coeffs[work_var[s]] = -1.0
            model.add_le(coeffs, 0.0, name=f"work[{s},{p}]")

    # (6) h-relation bounds (send and receive, NUMA-weighted)
    for s in comm_phases:
        for p in range(P):
            send_coeffs: Dict[int, float] = {}
            recv_coeffs: Dict[int, float] = {}
            for v in free:
                if s in steps:
                    for p2 in range(P):
                        if p2 == p:
                            continue
                        send_coeffs[form.comm[(v, p, p2, s)]] = float(dag.comm[v]) * float(numa[p, p2])
                        recv_coeffs[form.comm[(v, p2, p, s)]] = float(dag.comm[v]) * float(numa[p2, p])
            for u in boundary:
                src = int(form.base_proc[u])
                for p2 in range(P):
                    if p2 == src:
                        continue
                    idx = form.bcomm.get((u, p2, s))
                    if idx is None:
                        continue
                    vol = float(dag.comm[u]) * float(numa[src, p2])
                    if p == src:
                        send_coeffs[idx] = send_coeffs.get(idx, 0.0) + vol
                    if p == p2:
                        recv_coeffs[idx] = recv_coeffs.get(idx, 0.0) + vol
            send_coeffs[h_var[s]] = -1.0
            recv_coeffs[h_var[s]] = -1.0
            model.add_le(send_coeffs, -bg_send[(s, p)], name=f"send[{s},{p}]")
            model.add_le(recv_coeffs, -bg_recv[(s, p)], name=f"recv[{s},{p}]")

    # (7) latency / superstep usage
    if used_var:
        for s in steps:
            coeffs = {form.comp[(v, p, s)]: 1.0 for v in free for p in range(P)}
            coeffs[used_var[s]] = -float(len(free))
            model.add_le(coeffs, 0.0, name=f"used[{s}]")
        # Push used supersteps to the front of the window (symmetry breaking).
        ordered = sorted(used_var)
        for a, b in zip(ordered, ordered[1:]):
            model.add_le({used_var[b]: 1.0, used_var[a]: -1.0}, 0.0, name=f"usedorder[{a},{b}]")

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    for s in steps:
        model.add_objective_term(work_var[s], 1.0)
    for s in comm_phases:
        model.add_objective_term(h_var[s], g)
    for s, idx in used_var.items():
        model.add_objective_term(idx, latency)

    return form


def reference_comm_schedule_model(schedule: BspSchedule):
    """The ILPcs model build of ``solve_comm_schedule_ilp``; returns ``(model, x)``."""
    machine = schedule.machine
    dag = schedule.dag
    P = machine.P
    g = float(machine.g)
    numa = machine.numa
    S = schedule.num_supersteps

    transfers = schedule.required_transfers()

    model = RefIlpModel(name="ILPcs")
    x: Dict[Tuple[int, int, int], int] = {}
    windows: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for (u, q), first_need in transfers.items():
        lo = int(schedule.step[u])
        hi = first_need - 1
        windows[(u, q)] = (lo, hi)
        for s in range(lo, hi + 1):
            x[(u, q, s)] = model.add_binary(f"x[{u},{q},{s}]")

    h_var = {s: model.add_continuous(f"H[{s}]") for s in range(S)}

    # Every transfer happens exactly once inside its window.
    for (u, q), (lo, hi) in windows.items():
        model.add_eq({x[(u, q, s)]: 1.0 for s in range(lo, hi + 1)}, 1.0, name=f"once[{u},{q}]")

    # h-relation bounds per superstep and processor (send and receive).
    for s in range(S):
        send: Dict[int, Dict[int, float]] = {p: {} for p in range(P)}
        recv: Dict[int, Dict[int, float]] = {p: {} for p in range(P)}
        for (u, q), (lo, hi) in windows.items():
            if not (lo <= s <= hi):
                continue
            p_from = int(schedule.proc[u])
            vol = float(dag.comm[u]) * float(numa[p_from, q])
            send[p_from][x[(u, q, s)]] = send[p_from].get(x[(u, q, s)], 0.0) + vol
            recv[q][x[(u, q, s)]] = recv[q].get(x[(u, q, s)], 0.0) + vol
        for p in range(P):
            if send[p]:
                coeffs = dict(send[p])
                coeffs[h_var[s]] = -1.0
                model.add_le(coeffs, 0.0, name=f"send[{s},{p}]")
            if recv[p]:
                coeffs = dict(recv[p])
                coeffs[h_var[s]] = -1.0
                model.add_le(coeffs, 0.0, name=f"recv[{s},{p}]")

    for s in range(S):
        model.add_objective_term(h_var[s], g)
    return model, x


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _compiled(model) -> List[Tuple[str, Tuple[int, ...], bytes]]:
    """Every array HiGHS receives, as (dtype, shape, bytes)."""
    c, A, c_lb, c_ub, b_lb, b_ub, integrality = model.to_arrays()
    arrays = (c, A.indptr, A.indices, A.data, c_lb, c_ub, b_lb, b_ub, integrality)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays] + [("shape", A.shape, b"")]


def _assert_same_models(ref, new) -> None:
    for name, (r, m) in zip(
        ("c", "indptr", "indices", "data", "c_lb", "c_ub", "b_lb", "b_ub", "integrality", "A"),
        zip(_compiled(ref), _compiled(new)),
    ):
        assert r == m, f"{name} differs"


def _assert_same_formulation(ref: RefFormulation, new) -> None:
    _assert_same_models(ref.model, new.model)
    assert list(new.free_nodes) == ref.free_nodes
    c0 = max(ref.s_first - 1, 0)
    vi = {v: i for i, v in enumerate(ref.free_nodes)}
    assert {k: new.comp[vi[k[0]], k[1], k[2] - ref.s_first] for k in ref.comp} == ref.comp
    assert {k: new.pres[vi[k[0]], k[1], k[2] - ref.s_first] for k in ref.pres} == ref.pres
    assert {
        k: new.comm[vi[k[0]], k[1], k[2], k[3] - ref.s_first] for k in ref.comm
    } == ref.comm
    assert int((new.comm >= 0).sum()) == len(ref.comm)
    bi = {u: i for i, u in enumerate(new.boundary.tolist())}
    assert {k: new.bcomm[bi[k[0]], k[1], k[2] - c0] for k in ref.bcomm} == ref.bcomm
    assert int((new.bcomm >= 0).sum()) == len(ref.bcomm)


def _random_dag(rng: np.random.Generator, n: int, zero_weights: bool) -> ComputationalDAG:
    """A random DAG whose edges are passed in shuffled (unsorted) order."""
    order = rng.permutation(n)
    pairs = [(int(order[a]), int(order[b])) for a in range(n) for b in range(a + 1, n)]
    edges = [pairs[i] for i in rng.permutation(len(pairs)) if rng.random() < 0.35]
    low = 0 if zero_weights else 1
    work = rng.integers(low, 6, size=n)
    comm = rng.integers(low, 6, size=n)
    return ComputationalDAG(n, edges, work=work, comm=comm, name="random")


def _numa_machine(rng: np.random.Generator, P: int, g: float, l: float) -> BspMachine:
    numa = rng.choice([0.1, 0.2, 0.3, 1.7, 1e6], size=(P, P))
    np.fill_diagonal(numa, 0.0)
    return BspMachine(P=P, g=g, l=l, numa=numa)


def _machine(rng: np.random.Generator, kind: str) -> BspMachine:
    g = float(rng.choice([0.0, 1.0, 3.0]))
    l = float(rng.choice([0.0, 2.0, 5.0]))
    if kind == "flat":
        return BspMachine(P=int(rng.integers(1, 5)), g=g, l=l)
    if kind == "hierarchical":
        return BspMachine.hierarchical(P=8, delta=1.3, g=g, l=l)
    return _numa_machine(rng, int(rng.integers(2, 6)), g, l)


def _random_schedule(rng: np.random.Generator, dag: ComputationalDAG, machine: BspMachine) -> BspSchedule:
    """A valid schedule: random processors, steps that respect precedence."""
    proc = rng.integers(0, machine.P, size=dag.n)
    step = np.zeros(dag.n, dtype=np.int64)
    for v in dag.topological_order():
        ready = [step[u] + int(proc[u] != proc[v]) for u in dag.parents(v)]
        step[v] = max(ready, default=0) + int(rng.random() < 0.2)
    return BspSchedule(dag, machine, proc, step)


MACHINE_KINDS = ("flat", "hierarchical", "numa")


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 11),
    kind=st.sampled_from(MACHINE_KINDS),
    free_mode=st.sampled_from(("all", "subset", "window")),
    zero_weights=st.booleans(),
    background=st.booleans(),
    latency=st.booleans(),
)
def test_window_ilp_matches_reference(seed, n, kind, free_mode, zero_weights, background, latency):
    rng = np.random.default_rng(seed)
    dag = _random_dag(rng, n, zero_weights)
    machine = _machine(rng, kind)
    kwargs = dict(include_latency=latency, background_consumers=background)
    if free_mode == "all":
        kwargs.update(s_first=0, s_last=int(rng.integers(0, 3)))
        if rng.random() < 0.3:
            del kwargs["s_last"]  # the default window: one superstep per level
    else:
        base = _random_schedule(rng, dag, machine)
        S = base.num_supersteps
        s_first = int(rng.integers(0, S))
        s_last = int(rng.integers(s_first, min(s_first + 3, S)))
        if free_mode == "window":  # the ILPpart case: the nodes of a superstep window
            free = [v for v in range(n) if s_first <= base.step[v] <= s_last]
        else:  # any subset, unsorted and with repeats
            free = [int(v) for v in rng.integers(0, n, size=int(rng.integers(1, n + 1)))]
        kwargs.update(
            free_nodes=free, s_first=s_first, s_last=s_last,
            base_proc=base.proc, base_step=base.step,
        )
    ref = reference_build_bsp_ilp(dag, machine, **kwargs)
    new = build_bsp_ilp(dag, machine, **kwargs)
    _assert_same_formulation(ref, new)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    kind=st.sampled_from(MACHINE_KINDS),
    zero_weights=st.booleans(),
)
def test_comm_schedule_ilp_matches_reference(seed, n, kind, zero_weights):
    rng = np.random.default_rng(seed)
    dag = _random_dag(rng, n, zero_weights)
    schedule = _random_schedule(rng, dag, _machine(rng, kind))
    transfers = schedule.required_transfers()
    if not transfers:
        return
    ref_model, ref_x = reference_comm_schedule_model(schedule)
    model, sends = build_comm_schedule_ilp(schedule, transfers)
    _assert_same_models(ref_model, model)
    assert {tuple(k): i for i, k in enumerate(sends.tolist())} == ref_x


def test_background_summation_order_shows_in_the_bits():
    """Three transfers of node 0 load the send row of phase 0 on processor 0.

    They are summed in order of first occurrence in ``dag.edges``
    (targets on processors 3, 1, 2), which differs in the last bit from the
    sum in sorted (u, target) order.
    """
    numa = np.ones((4, 4))
    numa[0, 3], numa[0, 1], numa[0, 2] = 0.1, 0.2, 1e6
    np.fill_diagonal(numa, 0.0)
    machine = BspMachine(P=4, g=1, l=2, numa=numa)
    assert (0.1 + 0.2) + 1e6 != (0.2 + 1e6) + 0.1
    dag = ComputationalDAG(5, [(0, 3), (0, 1), (0, 2)])
    kwargs = dict(
        free_nodes=[4], s_first=1, s_last=1,
        base_proc=np.array([0, 3, 1, 2, 0]), base_step=np.array([0, 1, 1, 1, 1]),
    )
    ref = reference_build_bsp_ilp(dag, machine, **kwargs)
    (send,) = [cons for cons in ref.model.constraints if cons.name == "send[0,0]"]
    assert send.ub == -((0.1 + 0.2) + 1e6)
    _assert_same_formulation(ref, build_bsp_ilp(dag, machine, **kwargs))


@pytest.mark.parametrize("s_first", [0, 2])
def test_spmv_window_matches_reference(s_first):
    """A larger window of a real instance, under a NUMA machine."""
    from repro.graphs.fine import spmv_dag
    from repro.heuristics.bspg import BspGreedyScheduler

    dag = spmv_dag(8, q=0.3, seed=3)
    machine = BspMachine.hierarchical(P=8, delta=3, g=1.7, l=2)
    base = BspGreedyScheduler().schedule(dag, machine)
    s_last = min(s_first + 1, base.num_supersteps - 1)
    free = [v for v in range(dag.n) if s_first <= base.step[v] <= s_last]
    kwargs = dict(
        free_nodes=free, s_first=s_first, s_last=s_last,
        base_proc=base.proc, base_step=base.step,
    )
    _assert_same_formulation(
        reference_build_bsp_ilp(dag, machine, **kwargs), build_bsp_ilp(dag, machine, **kwargs)
    )
