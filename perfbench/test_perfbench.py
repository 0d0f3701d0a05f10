"""Checks on the benchmark's tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q

For every workload, one pass per run: traced and untraced runs of one
seed give identical answers, per-layer counts repeat exactly between
two traced runs, and no wrapper is left in place afterwards. Also the
time scaling, the tail percentile and the per-pass rate.
"""

from __future__ import annotations

import sys
from pathlib import Path

from array import array

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SEED = 7


def _counts(snap: dict) -> dict:
    """Everything in a snapshot that is a count rather than a time."""
    return {"calls": snap.get("calls", {}), "counts": snap.get("counts", {})}


@pytest.fixture(scope="module", params=gen.WORKLOADS)
def case(request, tmp_path_factory):
    workload = request.param
    data = gen.generate(workload, SEED)
    return workload, data, refs.REFS[workload](data), tmp_path_factory.mktemp(workload)


def test_traced_answers_and_counts(case):
    workload, data, ref, workdir = case
    plain: list = []
    worker.run_passes(workload, worker.build(workload, data, workdir), data, ref, plain, 1)
    first, snap1 = worker.traced_passes(workload, data, ref, 1, workdir)
    second, snap2 = worker.traced_passes(workload, data, ref, 1, workdir)

    assert all(r[2] for r in plain + first + second), "an answer missed its reference"
    assert [r[3] for r in first] == [r[3] for r in plain]
    assert [r[3] for r in second] == [r[3] for r in plain]
    assert _counts(snap1) == _counts(snap2)
    assert snap1["calls"], "the traced run recorded no spans"
    assert tracer.leftover_wrappers() == []


def test_every_binding_is_wrapped_and_restored():
    import credal
    import credal.cases
    import credal.decisions
    import credal.inference
    import credal.linprog
    import credal.sets

    original = credal.linprog.hull_membership
    tr = tracer.Tracer()
    tr.install()
    try:
        bound = [credal.hull_membership, credal.linprog.hull_membership,
                 credal.inference.hull_membership, credal.cases.hull_membership]
        assert all(b is bound[0] and b is not original for b in bound)
        assert credal.decisions.solve is credal.linprog.solve
        assert hasattr(credal.decisions.solve, tracer.MARK)
        assert hasattr(credal.linprog.PreparedLp.__dict__["optimize"], tracer.MARK)
        assert hasattr(credal.sets.LinearSystem.__dict__["__init__"], tracer.MARK)
        assert hasattr(credal.sets.ParametricFamily.__dict__["scan_grid"], tracer.MARK)
        assert tracer.leftover_wrappers()
    finally:
        tr.uninstall()
    assert credal.hull_membership is original
    assert tracer.leftover_wrappers() == []


def test_times_scale_with_the_calibration_around_them():
    cal_at = array("d", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    slow = 2 * worker.CAL_REF_S
    cal_s = array("d", [slow] * 7)
    assert worker.scales(cal_at, cal_s, array("d", [0.5, 5.9])) == [0.5, 0.5]
    # One odd loop is smoothed away.
    cal_s[3] = 10 * slow
    assert worker.scales(cal_at, cal_s, array("d", [2.5, 3.5])) == [0.5, 0.5]


def test_tail_is_fixed_and_refuses_short_runs():
    values = [float(i) for i in range(101)]
    p, value, beyond = run.tail("cli", values)
    assert (p, value, beyond) == (75.0, 75.0, 25)
    with pytest.raises(run.BenchError):
        run.tail("lp-sweep", values)


def test_ops_per_s_counts_each_call_of_the_list_once():
    # Two passes over a list of three, and a partial third pass that
    # repeats only the slow first call.
    latencies = [0.3, 0.1, 0.1, 0.3, 0.1, 0.1, 0.3]
    assert run.ops_per_s(latencies, 3) == pytest.approx(3 / 0.5)
