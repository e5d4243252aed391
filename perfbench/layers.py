"""Outside-in layer tracing: spans around the calls into each layer.

The program's own tracing stays off.  Instead, :class:`LayerTracer` replaces
each layer's public entry point *where its caller looks it up* (a module
global such as ``repro.pipeline.framework.hill_climb``, or a method on a
class) with a wrapper that records a span, then restores every original on
exit.  Spans live in memory as dicts with ``id``, ``parent``, ``name``,
``t0``, ``t1`` and ``attrs``; :func:`layer_metrics` turns one pass's spans
into the per-layer metrics.

Attributes that need extra work, such as the cost of a schedule, are read
before ``t0`` or after ``t1`` of their span, so they are charged to the
parent span's self time and show up in ``trace.overhead``, not in the layer.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Attrs = Dict[str, Any]

#: Unit of every per-layer metric, by name.
LAYER_UNITS: Dict[str, str] = {
    "ilp.solve_s": "s",
    "ilp.build_s": "s",
    "ilp.calls": "count",
    "ilp.vars": "count",
    "ilp.capped_frac": "fraction",
    "ilp.solution_frac": "fraction",
    "ilp.cost_delta": "cost",
    "multilevel.coarsen_s": "s",
    "multilevel.coarse_solve_s": "s",
    "multilevel.refine_s": "s",
    "multilevel.refine_hc_s": "s",
    "multilevel.project_s": "s",
    "multilevel.levels": "count",
    "multilevel.refined_cost": "cost",
    "multilevel.fallback_frac": "fraction",
    "heuristics.bspg_s": "s",
    "heuristics.source_s": "s",
    "heuristics.calls": "count",
    "localsearch.hc_s": "s",
    "localsearch.hc_calls": "count",
    "localsearch.hc_moves": "count",
    "localsearch.hc_converged_frac": "fraction",
    "localsearch.hc_cost_delta": "cost",
    "localsearch.hccs_s": "s",
    "localsearch.hccs_moves": "count",
    "graphs.build_s": "s",
    "model.validate_s": "s",
    "pipeline.self_s": "s",
    "api.overhead_s": "s",
    "trace.overhead": "fraction",
}


class SpanRecorder:
    """In-memory span store for one thread of calls."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        *,
        before: Optional[Callable[..., Attrs]] = None,
        after: Optional[Callable[..., Attrs]] = None,
        attrs: Optional[Attrs] = None,
    ) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        add attributes; they run outside the span's interval.
        """
        span: Dict[str, Any] = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "attrs": dict(attrs or {}),
        }
        self.spans.append(span)
        if before is not None:
            span["attrs"].update(before(*args, **kwargs))
        self._stack.append(span["id"])
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["t1"] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            span["attrs"].update(after(result, *args, **kwargs))
        return result


# ----------------------------------------------------------------------
# What to wrap
# ----------------------------------------------------------------------
def _improve_in(_improver: Any, schedule: Any, *_: Any, **__: Any) -> Attrs:
    return {"cost_in": float(schedule.cost())}


def _improve_out(result: Any, *_: Any, **__: Any) -> Attrs:
    return {"cost_out": float(result.cost())}


def _ilp_model(model: Any, *_: Any, **__: Any) -> Attrs:
    return {"vars": int(model.num_variables)}


def _ilp_outcome(result: Any, *_: Any, **__: Any) -> Attrs:
    from repro.ilp.solver import SolverStatus

    return {
        "solution": bool(result.has_solution),
        # Stopped by the time limit: a solution not proven optimal, or none.
        "capped": result.status in (SolverStatus.FEASIBLE, SolverStatus.NO_SOLUTION),
    }


def _hc_outcome(result: Any, *_: Any, **__: Any) -> Attrs:
    return {
        "moves": int(result.moves_applied),
        "converged": bool(result.reached_local_optimum),
        "delta": float(result.initial_cost - result.final_cost),
    }


def _hccs_outcome(result: Any, *_: Any, **__: Any) -> Attrs:
    return {"moves": int(result.moves_applied)}


def _multilevel_outcome(result: Any, *_: Any, **__: Any) -> Attrs:
    schedule, per_ratio = result
    refined = min(per_ratio.values()) if per_ratio else math.inf
    final = float(schedule.cost())
    return {"refined_cost": refined, "fallback": final < refined}


#: ``(target, attribute, span name, site, before, after)``.  ``target`` is a
#: module, or ``module:Class`` for a method; ``site`` tells apart the callers
#: of one layer function.
TARGETS: Tuple[Tuple[str, str, str, str, Any, Any], ...] = (
    ("repro.spec:ProblemSpec", "build_dag", "graphs.build", "", None, None),
    ("repro.model.schedule:BspSchedule", "validation_errors", "model.validate", "", None, None),
    ("repro.pipeline.framework:FrameworkScheduler", "schedule", "scheduler.schedule", "", None, None),
    ("repro.multilevel.scheduler:MultilevelScheduler", "schedule", "scheduler.schedule", "", None, None),
    ("repro.pipeline.framework", "run_pipeline", "pipeline.run", "framework", None, None),
    ("repro.heuristics.bspg:BspGreedyScheduler", "schedule", "heuristics.bspg", "", None, None),
    ("repro.heuristics.source:SourceScheduler", "schedule", "heuristics.source", "", None, None),
    ("repro.pipeline.framework", "hill_climb", "localsearch.hc", "pipeline", None, _hc_outcome),
    ("repro.pipeline.framework", "comm_hill_climb", "localsearch.hccs", "pipeline", None, _hccs_outcome),
    ("repro.ilp.partial:PartialIlpImprover", "improve", "ilp.improve", "partial", _improve_in, _improve_out),
    ("repro.ilp.commsched:CommScheduleIlpImprover", "improve", "ilp.improve", "commsched", _improve_in, _improve_out),
    ("repro.ilp.partial", "build_bsp_ilp", "ilp.build", "partial", None, None),
    ("repro.ilp.full", "build_bsp_ilp", "ilp.build", "full", None, None),
    ("repro.ilp.commsched", "solve_comm_schedule_ilp", "ilp.commsched", "", None, None),
    ("repro.ilp.partial", "solve", "ilp.solve", "partial", _ilp_model, _ilp_outcome),
    ("repro.ilp.commsched", "solve", "ilp.solve", "commsched", _ilp_model, _ilp_outcome),
    ("repro.ilp.full", "solve", "ilp.solve", "full", _ilp_model, _ilp_outcome),
    ("repro.multilevel.scheduler", "multilevel_schedule", "multilevel.schedule", "", None, _multilevel_outcome),
    ("repro.multilevel.scheduler", "coarsen_dag", "multilevel.coarsen", "", None, None),
    ("repro.multilevel.scheduler", "run_pipeline", "pipeline.run", "coarse_solve", None, None),
    ("repro.multilevel.scheduler", "uncoarsen_and_refine", "multilevel.refine", "", None, None),
    ("repro.multilevel.scheduler", "comm_hill_climb", "localsearch.hccs", "refine", None, _hccs_outcome),
    ("repro.multilevel.refine", "project_schedule", "multilevel.project", "", None, None),
    ("repro.multilevel.refine", "hill_climb", "localsearch.hc", "refine", None, _hc_outcome),
)


def _resolve(target: str) -> Any:
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerTracer:
    """Context manager that wraps every entry point in :data:`TARGETS`.

    On exit every original is put back, also when the body raised.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            for target, attr, name, site, before, after in TARGETS:
                owner = _resolve(target)
                if attr not in vars(owner):
                    raise AttributeError(f"{target} defines no {attr!r} to wrap")
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrapper(original, name, site, before, after))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(
        self, fn: Callable[..., Any], name: str, site: str, before: Any, after: Any
    ) -> Callable[..., Any]:
        recorder = self.recorder
        attrs = {"site": site} if site else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(
                name, fn, args, kwargs, before=before, after=after, attrs=attrs
            )

        return wrapper

    @staticmethod
    def bound_targets() -> Dict[Tuple[str, str], Any]:
        """The currently bound object of every target (for restore checks)."""
        return {(t, a): vars(_resolve(t))[a] for t, a, *_ in TARGETS}


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------
def _duration(span: Dict[str, Any]) -> float:
    return span["t1"] - span["t0"]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["t0"], span["t1"]))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        end = -math.inf
        for t0, t1 in sorted(children.get(span["id"], [])):
            t0 = max(t0, end)
            if t1 > t0:
                covered += t1 - t0
                end = t1
        out[span["id"]] = _duration(span) - covered
    return out


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (every :data:`LAYER_UNITS` key
    except ``trace.overhead``, which needs the untraced pass)."""

    def named(name: str, site: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            s for s in spans
            if s["name"] == name and (site is None or s["attrs"].get("site") == site)
        ]

    def total(items: List[Dict[str, Any]]) -> float:
        return float(sum(_duration(s) for s in items))

    def frac(items: List[Dict[str, Any]], key: str) -> float:
        return sum(bool(s["attrs"][key]) for s in items) / len(items) if items else 0.0

    selfs = self_times(spans)
    ilp_solves = named("ilp.solve")
    improves = named("ilp.improve")
    ml = named("multilevel.schedule")
    refined = [s["attrs"]["refined_cost"] for s in ml if math.isfinite(s["attrs"]["refined_cost"])]
    heur = named("heuristics.bspg") + named("heuristics.source")
    hcs = named("localsearch.hc")
    hccs = named("localsearch.hccs")
    return {
        "ilp.solve_s": total(ilp_solves),
        "ilp.build_s": total(named("ilp.build"))
        + sum(selfs[s["id"]] for s in named("ilp.commsched")),
        "ilp.calls": float(len(ilp_solves)),
        "ilp.vars": float(sum(s["attrs"]["vars"] for s in ilp_solves)),
        "ilp.capped_frac": frac(ilp_solves, "capped"),
        "ilp.solution_frac": frac(ilp_solves, "solution"),
        "ilp.cost_delta": float(
            sum(s["attrs"]["cost_in"] - s["attrs"]["cost_out"] for s in improves)
        ),
        "multilevel.coarsen_s": total(named("multilevel.coarsen")),
        "multilevel.coarse_solve_s": total(named("pipeline.run", "coarse_solve")),
        "multilevel.refine_s": total(named("multilevel.refine")),
        "multilevel.refine_hc_s": total(named("localsearch.hc", "refine")),
        "multilevel.project_s": total(named("multilevel.project")),
        "multilevel.levels": float(len(named("multilevel.project"))),
        "multilevel.refined_cost": geomean(refined) if refined else 0.0,
        "multilevel.fallback_frac": frac(ml, "fallback"),
        "heuristics.bspg_s": total(named("heuristics.bspg")),
        "heuristics.source_s": total(named("heuristics.source")),
        "heuristics.calls": float(len(heur)),
        "localsearch.hc_s": total(hcs),
        "localsearch.hc_calls": float(len(hcs)),
        "localsearch.hc_moves": float(sum(s["attrs"]["moves"] for s in hcs)),
        "localsearch.hc_converged_frac": frac(hcs, "converged"),
        "localsearch.hc_cost_delta": float(sum(s["attrs"]["delta"] for s in hcs)),
        "localsearch.hccs_s": total(hccs),
        "localsearch.hccs_moves": float(sum(s["attrs"]["moves"] for s in hccs)),
        "graphs.build_s": total(named("graphs.build")),
        "model.validate_s": total(named("model.validate")),
        "pipeline.self_s": float(sum(selfs[s["id"]] for s in named("pipeline.run"))),
        "api.overhead_s": total(named("api.solve")) - total(named("scheduler.schedule")),
    }


def geomean(values: List[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))
