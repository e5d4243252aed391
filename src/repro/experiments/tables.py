"""Regeneration of every table and figure of the paper's evaluation.

:data:`TARGETS` holds the one definition of each paper table / figure: its
datasets, its machine grid, its pipeline preset, whether the multilevel
scheduler runs, and the renderer that turns the grid's results into
:class:`~repro.experiments.report.Table` objects whose rows mirror the
paper's.  :func:`reproduce` runs a target; both ``python -m repro repro``
and ``benchmarks/bench_paper_tables.py`` go through it (the benchmark
persists the rendered tables under ``benchmarks/results/``).

Figures are bar charts of mean cost ratios in the paper; here they are
rendered as tables with one column per bar ("Cilk", "HDagg", "Init", "HCcs",
"ILP", optionally "ML"), normalized to the Cilk baseline exactly like the
paper's figures.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..graphs.dag import ComputationalDAG
from ..model.machine import BspMachine
from ..pipeline.config import MultilevelConfig, PipelineConfig
from .report import Table, format_percent
from .runner import PIPELINE_ITEM, ExperimentResult, ParallelRunner, WorkItem, run_experiment, stage_ratio_summary

__all__ = [
    "Cell",
    "Target",
    "TARGETS",
    "REPRO_TARGETS",
    "MAX_INSTANCES",
    "run_grid",
    "run_initializer_grid",
    "reproduce",
]

Datasets = Dict[str, List[ComputationalDAG]]


class Cell(NamedTuple):
    """One machine of a target's grid, run over one dataset."""

    dataset: str
    P: int
    g: float
    l: float
    delta: Optional[float]  # None: a flat machine without NUMA effects


Grid = Dict[Cell, ExperimentResult]
#: (training instance, P, best initializer) for every run of the initializer grid.
Wins = List[Tuple[ComputationalDAG, int, str]]

#: The datasets of the main sweeps at ``smoke`` scale; larger scales add
#: ``medium`` and ``large`` (see :meth:`Target.dataset_names`).
MAIN = ("tiny", "small")

#: Instances per dataset at each scale.
MAX_INSTANCES = {"smoke": 2, "reduced": 8, "paper": None}

#: Coarsening ratios of the multilevel scheduler (the paper's C30 / C15).
ML_RATIOS = (0.3, 0.15)


@dataclass(frozen=True)
class Target:
    """One paper table / figure: what runs and how it is rendered."""

    description: str
    render: Callable
    datasets: Tuple[str, ...]
    P: Tuple[int, ...]
    g: Tuple[float, ...]
    l: Tuple[float, ...] = (5,)
    delta: Tuple[float, ...] = ()
    #: ``"fast"`` (all stages, short ILP limits) or ``"heuristics_only"``.
    preset: str = "fast"
    multilevel: bool = False
    list_baselines: bool = False
    #: Tables 4/5 run the training set, restricted to ``"spmv"`` or ``"other"``.
    training: Optional[str] = None

    def dataset_names(self, scale: str) -> Tuple[str, ...]:
        if self.datasets == MAIN and scale != "smoke":
            return MAIN + ("medium", "large")
        return self.datasets

    def machines(self) -> Iterator[Tuple[int, float, float, Optional[float]]]:
        """``(P, g, l, delta)`` for every machine of the grid."""
        return itertools.product(self.P, self.g, self.l, self.delta or (None,))


def _pipeline_config(preset: str, scale: str) -> PipelineConfig:
    if preset == "fast":
        return PipelineConfig.fast() if scale == "smoke" else PipelineConfig()
    config = PipelineConfig.heuristics_only()
    if scale == "smoke":
        config.hc_time_limit = 5.0
        config.hccs_time_limit = 1.0
    return config


def _machine(P: int, g: float, l: float, delta: Optional[float]) -> BspMachine:
    if delta is None:
        return BspMachine(P=P, g=g, l=l)
    return BspMachine.hierarchical(P=P, delta=delta, g=g, l=l)


# ----------------------------------------------------------------------
# Grid runners
# ----------------------------------------------------------------------
def run_grid(target: Target, datasets: Datasets, *, scale: str = "smoke", jobs: Optional[int] = None) -> Grid:
    """Run every dataset on every machine of the target's grid (NUMA when it has deltas)."""
    config = _pipeline_config(target.preset, scale)
    multilevel = None
    if target.multilevel:
        multilevel = MultilevelConfig(
            coarsening_ratios=ML_RATIOS,
            min_coarse_nodes=8,
            hc_moves_per_refinement=50,
            base_pipeline=config,
        )
    grid: Grid = {}
    for ds_name, dags in datasets.items():
        for machine in target.machines():
            grid[Cell(ds_name, *machine)] = run_experiment(
                dags,
                _machine(*machine),
                pipeline_config=config,
                include_list_baselines=target.list_baselines,
                multilevel_config=multilevel,
                jobs=jobs,
            )
    return grid


def run_initializer_grid(
    target: Target, dags: Sequence[ComputationalDAG], *, scale: str = "smoke", jobs: Optional[int] = None
) -> Wins:
    """Run the pipeline on every (instance, machine) pair and record which initializer won."""
    config = _pipeline_config(target.preset, scale)
    combos = [(dag, machine) for dag in dags for machine in target.machines()]
    items = [
        WorkItem(
            index=k,
            instance=k,
            dag=dag,
            machine=_machine(*machine),
            scheduler=PIPELINE_ITEM,
            pipeline_config=config,
        )
        for k, (dag, machine) in enumerate(combos)
    ]
    results = ParallelRunner(jobs).execute(items)
    return [
        (dag, machine[0], min(result.initializer_costs, key=result.initializer_costs.get))
        for (dag, machine), result in zip(combos, results)
    ]


# ----------------------------------------------------------------------
# Renderers: pure functions of a grid
# ----------------------------------------------------------------------
def _improvement_cell(experiment: ExperimentResult, label: str = "ILP") -> str:
    """The paper's two-number cell: reduction vs Cilk / reduction vs HDagg."""
    vs_cilk = experiment.improvement(label, "Cilk")
    vs_hdagg = experiment.improvement(label, "HDagg")
    return f"{format_percent(vs_cilk)} / {format_percent(vs_hdagg)}"


def _axis(cells: Iterable[Cell], name: str) -> list:
    """The distinct values of one grid axis, in grid order."""
    return list(dict.fromkeys(getattr(cell, name) for cell in cells))


def _pick(grid: Grid, **axes) -> ExperimentResult:
    """All cells matching ``axes``, merged in grid order."""
    merged = ExperimentResult(machine_description="merged")
    for cell, experiment in grid.items():
        if all(getattr(cell, name) == value for name, value in axes.items()):
            merged.instances.extend(experiment.instances)
    return merged


def _ratios(experiment: ExperimentResult, labels: Sequence[str]) -> List[str]:
    summary = stage_ratio_summary(experiment, "Cilk", labels)
    return [f"{summary.get(label, float('nan')):.3f}" for label in labels]


def _by_p(grid: Grid, title: str, axis: str, cell: Callable = _improvement_cell) -> Table:
    """Rows per P, one column per value of ``axis`` (``g`` or ``delta``)."""
    values = _axis(grid, axis)
    table = Table(title, [f"P \\ {axis}"] + [f"{axis}={v:g}" for v in values])
    for P in _axis(grid, "P"):
        table.add_row(f"P={P}", *(cell(_pick(grid, P=P, **{axis: v})) for v in values))
    return table


def _render_table1(grid: Grid) -> List[Table]:
    by_p = _by_p(grid, "Table 1 (left): reduction vs Cilk / HDagg by g and P", "g")
    g_values = _axis(grid, "g")
    by_ds = Table(
        "Table 1 (right): reduction vs Cilk / HDagg by g and dataset",
        ["dataset \\ g"] + [f"g={g:g}" for g in g_values],
    )
    for ds in _axis(grid, "dataset"):
        by_ds.add_row(ds, *(_improvement_cell(_pick(grid, dataset=ds, g=g)) for g in g_values))
    return [by_p, by_ds]


def _render_fig5(grid: Grid) -> List[Table]:
    labels = ["Cilk", "HDagg", "Init", "HCcs", "ILP"]
    table = Table("Figure 5: mean cost ratio normalized to Cilk, per g", ["g"] + labels)
    for g in _axis(grid, "g"):
        table.add_row(f"g={g:g}", *_ratios(_pick(grid, g=g), labels))
    return [table]


def _render_table6(grid: Grid) -> List[Table]:
    pairs = [(g, P) for g in _axis(grid, "g") for P in _axis(grid, "P")]
    table = Table(
        "Table 6: reduction vs Cilk / HDagg per (g, P, dataset)",
        ["dataset"] + [f"g={g:g},P={P}" for g, P in pairs],
    )
    for ds in _axis(grid, "dataset"):
        table.add_row(ds, *(_improvement_cell(_pick(grid, dataset=ds, g=g, P=P)) for g, P in pairs))
    return [table]


def _render_table2(grid: Grid) -> List[Table]:
    return [_by_p(grid, "Table 2: reduction vs Cilk / HDagg with NUMA, by P and delta", "delta")]


def _render_fig6(grid: Grid) -> List[Table]:
    labels = ["Cilk", "HDagg", "Init", "HCcs", "ILP", "ML"]
    table = Table(
        "Figure 6: mean cost ratio normalized to Cilk, per (P, delta), with NUMA",
        ["P, delta"] + labels,
    )
    for P in _axis(grid, "P"):
        for delta in _axis(grid, "delta"):
            table.add_row(f"P={P}, d={delta:g}", *_ratios(_pick(grid, P=P, delta=delta), labels))
    return [table]


def _render_table3(grid: Grid) -> List[Table]:
    return [
        _by_p(
            grid,
            "Table 3: reduction of the multilevel scheduler vs Cilk / HDagg",
            "delta",
            lambda experiment: _improvement_cell(experiment, label="ML"),
        )
    ]


def _render_table10(grid: Grid) -> List[Table]:
    pairs = [(P, d) for P in _axis(grid, "P") for d in _axis(grid, "delta")]
    table = Table(
        "Table 10: reduction vs Cilk / HDagg per (P, delta, dataset)",
        ["dataset"] + [f"P={P},d={d:g}" for P, d in pairs],
    )
    for ds in _axis(grid, "dataset"):
        table.add_row(ds, *(_improvement_cell(_pick(grid, dataset=ds, P=P, delta=d)) for P, d in pairs))
    return [table]


def _multilevel_variants(grid: Grid, title: str, cell: Callable) -> Table:
    """Tables 13/14: one row per coarsening variant (C15 / C30 / C_opt), one column per (P, delta)."""
    ratios = sorted(ML_RATIOS)
    variants = [(f"C{int(round(r * 100))}", f"ML@{r:g}") for r in ratios] + [("C_opt", "ML")]
    pairs = [(P, d) for P in _axis(grid, "P") for d in _axis(grid, "delta")]
    table = Table(title, ["variant"] + [f"P={P},d={d:g}" for P, d in pairs])
    for name, label in variants:
        table.add_row(name, *(cell(_pick(grid, P=P, delta=d), label) for P, d in pairs))
    return table


def _render_table13(grid: Grid) -> List[Table]:
    return [
        _multilevel_variants(
            grid,
            "Table 13: multilevel reduction vs Cilk / HDagg per coarsening variant",
            lambda experiment, label: _improvement_cell(experiment, label=label),
        )
    ]


def _render_table14(grid: Grid) -> List[Table]:
    return [
        _multilevel_variants(
            grid,
            "Table 14: cost ratio of the multilevel scheduler to the base scheduler",
            lambda experiment, label: f"{experiment.mean_ratio(label, 'ILP'):.3f}",
        )
    ]


def _counter_cell(counter: Counter) -> str:
    if not counter:
        return "-"
    return ", ".join(f"{name}: {count}" for name, count in counter.most_common())


def _render_table4(wins: Wins) -> List[Table]:
    counts: Dict[int, Counter] = {}
    for _dag, P, best in wins:
        counts.setdefault(P, Counter())[best] += 1
    table = Table("Table 4: best initializer counts on spmv training instances", ["P", "wins"])
    for P, counter in counts.items():
        table.add_row(f"P={P}", _counter_cell(counter))
    return [table]


def _render_table5(wins: Wins) -> List[Table]:
    """Split by P and by DAG size (thirds of the instances' node counts)."""
    buckets = ["small n", "medium n", "large n"]
    sizes = sorted({dag.name: dag.n for dag, _P, _best in wins}.values())
    lo = sizes[len(sizes) // 3]
    hi = sizes[(2 * len(sizes)) // 3]
    P_values = list(dict.fromkeys(P for _dag, P, _best in wins))
    counts: Dict[Tuple[int, str], Counter] = {}
    for dag, P, best in wins:
        bucket = buckets[0] if dag.n <= lo else buckets[1] if dag.n <= hi else buckets[2]
        counts.setdefault((P, bucket), Counter())[best] += 1
    table = Table(
        "Table 5: best initializer counts on exp/cg/kNN training instances",
        ["size bucket"] + [f"P={P}" for P in P_values],
    )
    for bucket in buckets:
        table.add_row(bucket, *(_counter_cell(counts.get((P, bucket), Counter())) for P in P_values))
    return [table]


def _render_table7(grid: Grid) -> List[Table]:
    labels = ["BL-EST", "ETF", "Cilk", "HDagg", "Init", "HCcs", "ILPpart", "ILP"]
    table = Table("Table 7: cost ratios normalized to Cilk (g=5)", ["dataset"] + labels)
    for ds in _axis(grid, "dataset"):
        table.add_row(ds, *_ratios(_pick(grid, dataset=ds), labels))
    table.add_note("the paper's 'ILPcs' column corresponds to the final 'ILP' column here")
    return [table]


def _render_table8(grid: Grid) -> List[Table]:
    return [
        _by_p(
            grid,
            "Table 8: reduction vs ETF on the tiny dataset",
            "g",
            lambda experiment: format_percent(experiment.improvement("ILP", "ETF")),
        )
    ]


def _render_table9(grid: Grid) -> List[Table]:
    table = Table(
        "Table 9: reduction vs Cilk / HDagg for different latency values (g=1, P=8)",
        ["latency", "reduction"],
    )
    for latency in _axis(grid, "l"):
        table.add_row(f"l={latency:g}", _improvement_cell(_pick(grid, l=latency)))
    return [table]


def _render_table11(grid: Grid) -> List[Table]:
    return [_by_p(grid, "Table 11: reduction vs Cilk / HDagg on the huge dataset (heuristics only)", "g")]


def _render_fig7(grid: Grid) -> List[Table]:
    labels = ["Cilk", "HDagg", "Init", "HCcs"]
    table = Table("Figure 7: mean cost ratio normalized to Cilk on the huge dataset", ["P"] + labels)
    for P in _axis(grid, "P"):
        table.add_row(f"P={P}", *_ratios(_pick(grid, P=P), labels))
    return [table]


def _render_table12(grid: Grid) -> List[Table]:
    return [_by_p(grid, "Table 12: reduction vs Cilk / HDagg on the huge dataset with NUMA", "delta")]


# ----------------------------------------------------------------------
# The targets (the ``python -m repro repro`` subcommand)
# ----------------------------------------------------------------------
#: Every entry is runnable on a laptop at ``smoke`` scale; ``reduced`` /
#: ``paper`` raise instance counts and dataset sizes toward the paper's setup.
TARGETS: Dict[str, Target] = {
    "table1": Target(
        "reduction vs Cilk / HDagg without NUMA, by (g, P) and (g, dataset)",
        _render_table1, MAIN, P=(2, 4), g=(1, 5),
    ),
    "table2": Target(
        "reduction vs Cilk / HDagg with NUMA, by (P, delta)",
        _render_table2, MAIN, P=(4, 8), g=(1,), delta=(2, 4),
    ),
    "table3": Target(
        "reduction of the multilevel scheduler, by (P, delta)",
        _render_table3, ("small",), P=(8,), g=(1,), delta=(2, 4), multilevel=True,
    ),
    "table4": Target(
        "best-initializer counts on the spmv training instances",
        _render_table4, (), P=(2, 4), g=(1, 5), training="spmv",
    ),
    "table5": Target(
        "best-initializer counts on the exp/cg/kNN training instances",
        _render_table5, (), P=(2, 4), g=(1, 3), training="other",
    ),
    "table6": Target(
        "no-NUMA improvement per (g, P, dataset)",
        _render_table6, MAIN, P=(2, 4), g=(1, 5),
    ),
    "table7": Target(
        "per-algorithm cost ratios normalized to Cilk (g=5)",
        _render_table7, MAIN, P=(2, 4), g=(5,), list_baselines=True,
    ),
    "table8": Target(
        "reduction vs ETF on the tiny dataset",
        _render_table8, ("tiny",), P=(2, 4), g=(1, 5), list_baselines=True,
    ),
    "table9": Target(
        "improvement for different latency values",
        _render_table9, ("small",), P=(4,), g=(1,), l=(2, 5, 10, 20),
    ),
    "table10": Target(
        "NUMA improvement per (P, delta, dataset)",
        _render_table10, MAIN, P=(8,), g=(1,), delta=(2, 3, 4),
    ),
    "table11": Target(
        "heuristics-only reduction on the huge dataset",
        _render_table11, ("huge",), P=(4, 8), g=(1, 5), preset="heuristics_only",
    ),
    "table12": Target(
        "heuristics-only reduction on the huge dataset with NUMA",
        _render_table12, ("huge",), P=(8,), g=(1,), delta=(2, 4), preset="heuristics_only",
    ),
    "table13": Target(
        "multilevel reduction per coarsening variant",
        _render_table13, ("small",), P=(8,), g=(1,), delta=(2, 4), multilevel=True,
    ),
    "table14": Target(
        "multilevel-to-base cost ratio per coarsening variant",
        _render_table14, ("small",), P=(8,), g=(1,), delta=(2, 4), multilevel=True,
    ),
    "fig5": Target(
        "stage cost ratios per g, without NUMA",
        _render_fig5, MAIN, P=(2, 4), g=(1, 3, 5),
    ),
    "fig6": Target(
        "stage cost ratios per (P, delta) incl. multilevel, with NUMA",
        _render_fig6, MAIN, P=(8,), g=(1,), delta=(2, 4), multilevel=True,
    ),
    "fig7": Target(
        "stage cost ratios on the huge dataset",
        _render_fig7, ("huge",), P=(4, 8), g=(1, 5), preset="heuristics_only",
    ),
}

#: Target name -> what it regenerates.
REPRO_TARGETS: Dict[str, str] = {name: target.description for name, target in TARGETS.items()}


def reproduce(
    target: str,
    *,
    scale: str = "smoke",
    jobs: Optional[int] = None,
    seed: int = 7,
) -> List[Table]:
    """Regenerate one paper table / figure by name (see :data:`REPRO_TARGETS`).

    At ``smoke`` scale the *shape* of the results reproduces the paper,
    absolute numbers do not.
    """
    from .datasets import build_dataset, build_training_set

    name = target.strip().lower().replace("figure", "fig")
    if name not in TARGETS:
        raise ValueError(f"unknown repro target {name!r}; available: {', '.join(TARGETS)}")
    spec = TARGETS[name]
    if spec.training is not None:
        dags = [
            dag
            for dag in build_training_set(scale=scale, seed=seed)
            if ("spmv" in dag.name) == (spec.training == "spmv")
        ]
        return spec.render(run_initializer_grid(spec, dags, scale=scale, jobs=jobs))
    max_instances = MAX_INSTANCES.get(scale, 2)
    datasets = {
        ds: build_dataset(ds, scale=scale, max_instances=max_instances, seed=seed)
        for ds in spec.dataset_names(scale)
    }
    return spec.render(run_grid(spec, datasets, scale=scale, jobs=jobs))
