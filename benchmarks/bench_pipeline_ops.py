"""pytest-benchmark timings of every plan workload in the registry.

One test, parametrized over (workload, contender, size) from
:data:`repro.workloads.registry.WORKLOADS`: each workload's sizes, minus
those above a contender's ceiling.  Columnar contenders get their inputs
converted beforehand, so only the plan is timed.  Ids read
``test_plan[<workload>-<contender>-<size>]``, e.g.
``-k "multiwindow and 256"`` selects the three multi-window paths at N=256.

Agreement between the contenders is not re-checked here: the registry's
gates run in tier-1 (``tests/unit/test_workload_registry.py``) and in the CI
smoke (``smoke_backends.py``).  The harness ids of the same names print the
tables.
"""

import pytest

from repro.workloads.registry import WORKLOADS, Inputs

CASES = [
    pytest.param(workload, contender, size, id=f"{workload.name}-{contender.label}-{size}")
    for workload in WORKLOADS.values()
    for contender in workload.contenders
    for size in workload.sizes
    if contender.runs_at(size)
]


@pytest.mark.parametrize(("workload", "contender", "size"), CASES)
def test_plan(benchmark, workload, contender, size):
    if contender.backend == "columnar":
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    args = Inputs(workload.inputs(size, seed=0)).for_contender(contender)
    benchmark(contender.run, args, None)
