"""The paper's tables and figures, one benchmark case per repro target.

Each case regenerates one target of :data:`repro.experiments.tables.TARGETS`
through :func:`~repro.experiments.tables.reproduce` (the code path of
``python -m repro repro <target>``) under pytest-benchmark timing, persists
the rendered tables under ``benchmarks/results/`` and runs the target's
shape check below.  The checks test the *shape* of the results (who wins,
roughly by how much, how the gap moves with g, P, latency and delta); at
``smoke`` scale absolute numbers do not reproduce the paper.
"""

import pytest

from conftest import JOBS, SCALE, run_once

from repro.experiments.tables import REPRO_TARGETS, TARGETS, reproduce


def _vs_cilk(cells):
    """The reduction vs Cilk (percent) of the paper's "vs Cilk / vs HDagg" cells."""
    return [float(cell.split("/")[0].strip().rstrip("%")) for cell in cells]


def _all_beat_cilk(table):
    for row in table.rows:
        for reduction in _vs_cilk(row[1:]):
            assert reduction > 0.0


def check_table1(by_p, by_dataset):
    # The framework reduces the cost relative to Cilk on average, per (g, P).
    _all_beat_cilk(by_p)


def check_table2(table):
    # Positive improvement over Cilk in the NUMA setting.
    _all_beat_cilk(table)


def check_table3(table):
    # The multilevel scheduler improves on Cilk, and the improvement grows
    # with the NUMA factor delta (the paper's key trend).
    reductions = _vs_cilk(table.rows[0][1:])
    assert all(r > 0 for r in reductions)
    assert reductions[-1] >= reductions[0] - 5.0


def check_table4(table):
    # Every P row records a winner for every spmv instance.
    assert len(table.rows) == len(TARGETS["table4"].P)
    for row in table.rows:
        assert row[1] != "-"


def check_table5(table):
    assert len(table.rows) == 3  # one row per size bucket
    assert any(cell != "-" for row in table.rows for cell in row[1:])


def check_table6(table):
    target = TARGETS["table6"]
    assert len(table.rows) == len(target.dataset_names(SCALE))
    assert len(table.headers) == 1 + len(target.g) * len(target.P)


def check_table7(table):
    labels = table.headers[1:]
    for row in table.rows:
        ratios = dict(zip(labels, (float(x) for x in row[1:])))
        # Cilk is the normalization unit, our final stage beats every
        # baseline, and the framework stages are monotone
        # (Init >= HCcs >= ILPpart >= ILP).
        assert ratios["Cilk"] == 1.0
        assert ratios["ILP"] <= min(ratios["Cilk"], ratios["HDagg"]) + 1e-9
        assert ratios["ILP"] <= ratios["ILPpart"] + 1e-9 <= ratios["HCcs"] + 1e-6 <= ratios["Init"] + 1e-6


def check_table8(table):
    for row in table.rows:
        for cell in row[1:]:
            assert float(cell.rstrip("%")) > 0.0  # we beat ETF in every cell


def check_table9(table):
    reductions = _vs_cilk(row[1] for row in table.rows)
    assert len(reductions) == len(TARGETS["table9"].l)
    assert all(r > 0 for r in reductions)
    # The paper's trend: higher latency -> at least as large an improvement
    # (with a small tolerance, the trend is noisy at reduced scale).
    assert reductions[-1] >= reductions[0] - 5.0


def check_table10(table):
    assert len(table.rows) == len(TARGETS["table10"].dataset_names(SCALE))
    # The paper's trend within each dataset: improvement grows with delta.
    for row in table.rows:
        reductions = _vs_cilk(row[1:])
        assert reductions[-1] >= reductions[0] - 5.0


def check_table11(table):
    _all_beat_cilk(table)  # still beats Cilk without any ILP stage


def check_table12(table):
    _all_beat_cilk(table)


def check_table13(table):
    assert [row[0] for row in table.rows] == ["C15", "C30", "C_opt"]
    # C_opt takes the better of the two coarsening ratios, so its reduction
    # is at least as large as either single-ratio variant in every column.
    c15, c30, copt = (_vs_cilk(row[1:]) for row in table.rows)
    for col in range(len(copt)):
        assert copt[col] >= max(c15[col], c30[col]) - 1e-6


def check_table14(table):
    assert [row[0] for row in table.rows] == ["C15", "C30", "C_opt"]
    ratios = [[float(x) for x in row[1:]] for row in table.rows]
    # The paper's crossover: the ratio of ML to the base scheduler improves
    # (gets smaller) as delta grows; the last column is the high-delta one.
    copt = ratios[2]
    assert copt[-1] <= copt[0] + 0.1
    assert all(r > 0 for row in ratios for r in row)


def check_fig5(table):
    # Every stage of our framework is at least as good as the Cilk baseline,
    # and the final ILP stage is the best of our stages.
    for row in table.rows:
        cilk, hdagg, init, hccs, ilp = (float(x) for x in row[1:])
        assert cilk == 1.0
        assert ilp <= hccs + 1e-9 <= init + 1e-6
        assert ilp < cilk


def check_fig6(table):
    # Our base framework beats Cilk; with the highest delta the multilevel
    # scheduler is competitive with (or better than) the base framework,
    # mirroring the paper's crossover.
    rows = {row[0]: [float(x) for x in row[1:]] for row in table.rows}
    for cilk, hdagg, init, hccs, ilp, ml in rows.values():
        assert cilk == 1.0
        assert ilp < 1.0
    highest = f"d={max(TARGETS['fig6'].delta):g}"
    high_delta = [vals for label, vals in rows.items() if label.endswith(highest)]
    assert high_delta and high_delta[0][5] <= high_delta[0][4] * 1.2


def check_fig7(table):
    for row in table.rows:
        cilk, hdagg, init, hccs = (float(x) for x in row[1:])
        assert cilk == 1.0
        assert hccs <= init + 1e-6  # local search only improves the initializers
        assert hccs < 1.0  # and the result beats Cilk


CHECKS = {name[len("check_"):]: check for name, check in globals().items() if name.startswith("check_")}
assert CHECKS.keys() == REPRO_TARGETS.keys()


@pytest.mark.parametrize("target", list(REPRO_TARGETS))
def test_paper_table(benchmark, emit, target):
    tables = run_once(benchmark, lambda: reproduce(target, scale=SCALE, jobs=JOBS, seed=7))
    emit(*tables)
    CHECKS[target](*tables)
