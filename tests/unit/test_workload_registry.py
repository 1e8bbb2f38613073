"""The plan-workload registry's gates, run at a tiny size inside tier-1.

These are the gates ``benchmarks/smoke_backends.py`` runs in CI, through the
same :func:`repro.workloads.registry.run_workload`: every contender agrees
with the reference row for row, and the count and kernel gates hold.
Wall-clock speedup floors are left to the smoke.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.workloads.registry import WORKLOADS, run_workload, same_answer

#: Large enough for the pair-count gates to separate from the cross product.
TINY = 128


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_contender_passes_the_gates(name):
    workload = WORKLOADS[name]
    outcome = run_workload(workload, TINY)
    assert outcome.failures == []
    assert list(outcome.outputs) == [contender.label for contender in workload.contenders]
    for gate in workload.gates:
        assert gate.violation(outcome.facts, TINY) is None


def _truncated(answer):
    """The answer minus its last row (or, for a list of answers, its last answer)."""
    if isinstance(answer, list):
        return answer[:-1]
    clipped = answer.copy()
    clipped._rows.pop(next(reversed(clipped._rows)))
    return clipped


def _corrupting(workload, label):
    """``workload`` with contender ``label`` returning a truncated answer."""

    def corrupt(run):
        def wrapped(args, workers):
            output = run(args, workers)
            if workload.answer(output) is output:
                return _truncated(output)
            return (_truncated(output[0]), *output[1:])

        return wrapped

    return replace(
        workload,
        contenders=tuple(
            replace(c, run=corrupt(c.run)) if c.label == label else c
            for c in workload.contenders
        ),
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_corrupted_answer_fails_the_agreement_gate(name):
    workload = WORKLOADS[name]
    label = workload.contenders[-1].label
    outcome = run_workload(_corrupting(workload, label), TINY)
    reference = workload.contenders[0].label
    assert outcome.failures == [f"{name} rows={TINY}: {label} diverges from {reference}"]


def test_a_sharded_divergence_fails_the_gate(monkeypatch):
    workload = WORKLOADS["equijoin"]
    sharded = workload.contender(workload.sharded)

    def serial_differs(args, workers):
        # Always runs serially (no fork): only the answer marks the two runs apart.
        output = sharded.run(args, 1)
        return _truncated(output) if workers == 1 else output

    monkeypatch.setenv("REPRO_WORKERS", "2")
    broken = replace(workload, contenders=(replace(sharded, run=serial_differs),))
    outcome = run_workload(broken, TINY)
    assert outcome.failures == [
        f"equijoin rows={TINY}: {sharded.label} at workers=2 diverges from workers=1"
    ]


def test_same_answer_checks_row_order_and_answer_counts():
    from repro.core.relation import AURelation

    forward = AURelation.from_rows(["a"], [((1,), 1), ((2,), 1)])
    backward = AURelation.from_rows(["a"], [((2,), 1), ((1,), 1)])
    assert forward._rows == backward._rows
    assert same_answer(forward, forward.copy())
    assert not same_answer(forward, backward)
    assert not same_answer([forward, forward], [forward])
