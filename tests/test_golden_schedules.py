"""Golden byte-identity pins for the deterministic schedulers.

Every case pins the exact ``total_cost`` (as ``repr`` of the float) and a
sha256 of the schedule's ``(proc, step)`` arrays plus its explicit
communication schedule, if any.  The values were recorded once and must
never drift: a refactor of the incremental cost engine, the local-search
state, the multilevel refinement or the ILP model builders that changes a
single float operation order shows up here as a changed cost or digest.
An intentional change of results has to update these pins and say so in
the change log.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.fine import exp_dag, spmv_dag
from repro.model.machine import BspMachine
from repro.registry import make_scheduler

INSTANCES = {
    "spmv8": lambda: spmv_dag(8, q=0.3, seed=3),
    "spmv12": lambda: spmv_dag(12, q=0.25, seed=11),
    "exp6": lambda: exp_dag(6, k=2, q=0.3, seed=5),
    # 368 nodes, the instance size of the multilevel-comm benchmark workload.
    "spmv23": lambda: spmv_dag(23, q=0.3, seed=47),
}

MACHINES = {
    "flat": lambda: BspMachine(P=4, g=1, l=2),
    "numa": lambda: BspMachine.hierarchical(P=8, delta=3, g=1.7, l=2),
    "comm": lambda: BspMachine(P=8, g=2, l=20),
}

MULTILEVEL = "multilevel(preset=heuristics, hc_time_limit=none, hccs_time_limit=none)"

#: The default framework with every wall-clock cap lifted, so its ILP stages
#: (ILPfull, ILPpart, ILPcs) run to optimality and the result is exact.
FRAMEWORK_ILP = (
    "framework(ilp_full_time_limit=none, ilp_partial_time_limit=none, "
    "ilp_cs_time_limit=none, hc_time_limit=none, hccs_time_limit=none)"
)

#: (instance, machine, scheduler spec) -> (repr(total_cost), sha256 digest).
GOLDEN = {
    ("spmv8", "flat", "hc"): (
        "37.0",
        "bcdb1cbb163b2f1b1cd644d1ede699a8cfb8801b3d99e48666a0de0b354ea56f",
    ),
    ("spmv8", "flat", "hc(variant=best)"): (
        "37.0",
        "bcdb1cbb163b2f1b1cd644d1ede699a8cfb8801b3d99e48666a0de0b354ea56f",
    ),
    ("spmv8", "flat", "sa(seed=7)"): (
        "34.0",
        "0738fb409e7f00b52f32b334fe8a935fd4b3cf8d78540d9e1da37e35261b44ed",
    ),
    ("spmv8", "flat", "hccs"): (
        "39.0",
        "02a931670fadb655b2b1695621a8880f2f7450a525f005c6cb8c4b4878b12252",
    ),
    ("spmv8", "flat", MULTILEVEL): (
        "52.0",
        "56d3b9ec3ff2e9a248c102220c8d218f5827a7e31db654fc58360b92dc5ad26a",
    ),
    ("spmv8", "numa", "hc"): (
        "90.39999999999999",
        "d356ab626d478924ab27aca8fb4a8cf3750336d073f5981e82c0a176eae111dc",
    ),
    ("spmv8", "numa", "hc(variant=best)"): (
        "83.6",
        "39ef18f268f9cd3352462c03f79faad7913317ce3b22477928a795bd25593592",
    ),
    ("spmv8", "numa", "sa(seed=7)"): (
        "76.8",
        "2d5576d909ae4f384b625ddce7763627a7da5b40bf7391ce8146e0191017687f",
    ),
    ("spmv8", "numa", "hccs"): (
        "131.5",
        "2384b06fe8a23d3be94fa061488fd497f79c804c61ef39b1ede422eb863fe672",
    ),
    ("spmv8", "numa", MULTILEVEL): (
        "78.0",
        "10e2103ee73921931a7828ebdf325d3a3a64c7a90cc1da5c0ca6fe17b1e3dd78",
    ),
    ("spmv12", "flat", "hc"): (
        "69.0",
        "1a50c63216b5ce22ed01f6bee79c3edc6e01ca5422eec363347d9aa1f3f8b898",
    ),
    ("spmv12", "flat", "hc(variant=best)"): (
        "69.0",
        "1a50c63216b5ce22ed01f6bee79c3edc6e01ca5422eec363347d9aa1f3f8b898",
    ),
    ("spmv12", "flat", "sa(seed=7)"): (
        "66.0",
        "1c8b9a90fe3a845a49e42b964cb4cd2cf040c79d309eb5a8ce77e6c57cac0b0d",
    ),
    ("spmv12", "flat", "hccs"): (
        "73.0",
        "69fb460e1f17888ca848c62f6668c7ffe32c7882136431ba86586f9809f53be8",
    ),
    ("spmv12", "flat", MULTILEVEL): (
        "74.0",
        "66dd9829c772c629b31f9c5d12cd877796420fb7f81e9ac04f99655a581297eb",
    ),
    ("spmv12", "numa", "hc"): (
        "160.2",
        "3c82f9a869a0d77508539f6fbdf0c528c81006c147936e68d7849b6b60a5c375",
    ),
    ("spmv12", "numa", "hc(variant=best)"): (
        "156.8",
        "d3ff81b8e63353d8b51964aeed33ed2a464637bdd287d373087c0ab485ff314b",
    ),
    ("spmv12", "numa", "sa(seed=7)"): (
        "160.2",
        "5a85dcc817b7e8ed3f8a911911c7a07787084db7068a466e2f9ed4056cdf3113",
    ),
    ("spmv12", "numa", "hccs"): (
        "212.9",
        "f81e2c9aa95628320ff5921bedb62bef148843b9ed7737b37c8c224f441fd844",
    ),
    ("spmv12", "numa", MULTILEVEL): (
        "123.3",
        "2284bac8ffc1e26249f07d539886bb4eec70b7ce5d988746d72fcee2d82d582f",
    ),
    ("exp6", "flat", "hc"): (
        "40.0",
        "11ba34b98abbfe0e41fd168f61998f06f2780ede34a97b522201ff3f860cb025",
    ),
    ("exp6", "flat", "hc(variant=best)"): (
        "40.0",
        "11ba34b98abbfe0e41fd168f61998f06f2780ede34a97b522201ff3f860cb025",
    ),
    ("exp6", "flat", "sa(seed=7)"): (
        "39.0",
        "a8f6007f1178ccfc22f6e5583f4c7d2480ec028860ea65e81dfcefddefa3373e",
    ),
    ("exp6", "flat", "hccs"): (
        "43.0",
        "45a9c2db0934369f34479514f1d16eaa06f5605abd111c0050a4193ae5727be7",
    ),
    ("exp6", "flat", MULTILEVEL): (
        "51.0",
        "413ec0f3240bfc8fceeb9b327eb12bd54119740f5a63444a141fe1330d5a3cd9",
    ),
    ("exp6", "numa", "hc"): (
        "161.29999999999998",
        "6d265a252ae13f7492ee066e8a61965e2e0e18e8b92d4046d836ba3e16da9d9f",
    ),
    ("exp6", "numa", "hc(variant=best)"): (
        "111.7",
        "534e694d894dc04bdf0fd4569a77b06456beb7689cfa1ac9b54bbe9c5882fa04",
    ),
    ("exp6", "numa", "sa(seed=7)"): (
        "114.39999999999999",
        "c35d8c088cfcb8af2414c822007cf0da91eff934ddfef0b0402e60d116486df6",
    ),
    ("exp6", "numa", "hccs"): (
        "200.1",
        "624591e83229630a166a6c0562ef7d10800e39ef6cf512eee11182f261919036",
    ),
    ("exp6", "numa", MULTILEVEL): (
        "78.0",
        "10e2103ee73921931a7828ebdf325d3a3a64c7a90cc1da5c0ca6fe17b1e3dd78",
    ),
    ("spmv23", "comm", "hc"): (
        "188.0",
        "fba4989842164f55b68c53844ad052654ea34ff68fb309c75d0b3c833ff4972d",
    ),
    ("spmv23", "comm", MULTILEVEL): (
        "391.0",
        "dc55569c6247beb863dfe7df8bb414096f1f225fd210ff7656fb5ded210c8261",
    ),
    # The ILP path.  spmv8/flat is left out: its ILPfull solve takes minutes.
    ("spmv8", "numa", FRAMEWORK_ILP): (
        "57.4",
        "331d0df2e5e52bde271b6a5c78b417f07b9351971297d90144e5289c4e8e4aec",
    ),
    ("spmv12", "flat", FRAMEWORK_ILP): (
        "58.0",
        "8e5132ca492631b9a5796f5efc5bb3dcbeb6814f8162f2aabd3d1ef9e4b04292",
    ),
    ("exp6", "numa", FRAMEWORK_ILP): (
        "116.8",
        "e11a481ee0b56af75f9d56bf5fc8f64a3953bf7ccb2602c716e0c2828064c4af",
    ),
}


def _digest(schedule) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(schedule.proc, dtype=np.int64).tobytes())
    h.update(np.asarray(schedule.step, dtype=np.int64).tobytes())
    if schedule.comm is not None:
        h.update(repr(sorted(schedule.comm)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(c))
def test_schedule_is_byte_identical(case):
    instance, machine, spec = case
    schedule = make_scheduler(spec).schedule(INSTANCES[instance](), MACHINES[machine]())
    assert (repr(float(schedule.cost())), _digest(schedule)) == GOLDEN[case]
