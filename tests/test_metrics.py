from dataclasses import replace

import numpy as np
import pytest

from multibo import traceio
from multibo.errors import NoGroundTruth
from multibo.metrics import metric_report
from multibo.objectives import BenchmarkSpec
from multibo.optimizer import OptimizerConfig, RunTrace, StepRecord
from multibo.acquisition import AcquisitionConfig
from multibo.kernels import SquaredExponential


def make_spec(truths):
    truths = np.atleast_2d(np.asarray(truths, dtype=float))
    return BenchmarkSpec(
        name="stub",
        dimension=truths.shape[1],
        bounds=np.array([[-10.0, 10.0]] * truths.shape[1]),
        objective=lambda x: 0.0,
        ground_truth=truths,
        truth_values=np.zeros(truths.shape[0]),
    )


def make_trace(points, priors=((9.0,),)):
    cfg = OptimizerConfig(
        bounds=[(-10.0, 10.0)],
        kernel=SquaredExponential(1.0, 1.0),
        acquisition=AcquisitionConfig("joint_pi", 0.0, 0.1),
        budget=max(len(points), 1),
        grid_counts=(10,),
    )
    steps = [
        StepRecord(step=0, kind="prior", point=np.asarray(p, dtype=float), value=0.0,
                   acquisition=None, flagged=False, distance=None)
        for p in priors
    ]
    steps += [
        StepRecord(step=i + 1, kind="bo", point=np.asarray(p, dtype=float), value=0.0,
                   acquisition=0.5, flagged=False, distance=None)
        for i, p in enumerate(points)
    ]
    return RunTrace(steps=tuple(steps), config=cfg, termination="budget",
                    n_samples=len(steps), jitter=0.0)


def test_average_distance_all_on_truth():
    spec = make_spec([[1.0], [3.0]])
    trace = make_trace([[1.0], [3.0], [1.0]])
    assert metric_report(trace, spec, (3,), 0.1).checkpoint_averages[3] == 0.0


def test_average_distance_single_step():
    spec = make_spec([[0.0]])
    trace = make_trace([[0.3]])
    assert metric_report(trace, spec, (1,), 0.1).checkpoint_averages[1] == pytest.approx(0.3)


def test_average_distance_prefix_mean():
    spec = make_spec([[0.0]])
    trace = make_trace([[0.1], [0.2], [0.3]])
    averages = metric_report(trace, spec, (2, 3), 0.1).checkpoint_averages
    assert averages[3] == pytest.approx(0.2)
    assert averages[2] == pytest.approx(0.15)


def test_average_distance_ignores_priors():
    spec = make_spec([[0.0]])
    trace = make_trace([[0.1]], priors=((5.0,),))
    assert metric_report(trace, spec, (1,), 0.1).checkpoint_averages[1] == pytest.approx(0.1)


def test_average_distance_truth_order_invariant():
    ta = make_spec([[0.0], [2.0]])
    tb = make_spec([[2.0], [0.0]])
    trace = make_trace([[0.4], [1.7]])
    a = metric_report(trace, ta, (2,), 0.1).checkpoint_averages[2]
    assert a == pytest.approx(metric_report(trace, tb, (2,), 0.1).checkpoint_averages[2])


def test_first_hit_steps_basic():
    spec = make_spec([[0.0], [5.0]])
    trace = make_trace([[4.0], [0.0], [-3.0], [5.05]])
    hits = metric_report(trace, spec, (), radius=0.1).first_hits
    assert hits == {0: 2, 1: 4}


def test_first_hit_steps_never():
    spec = make_spec([[0.0]])
    trace = make_trace([[4.0], [3.0]])
    assert metric_report(trace, spec, (), radius=0.5).first_hits == {0: None}


def test_first_hit_monotone_in_radius():
    spec = make_spec([[0.0]])
    trace = make_trace([[0.4], [0.05]])
    small = metric_report(trace, spec, (), radius=0.1).first_hits[0]
    big = metric_report(trace, spec, (), radius=0.5).first_hits[0]
    assert big <= small


def test_no_ground_truth():
    spec = make_spec(np.empty((0, 1)))
    trace = make_trace([[0.0]])
    with pytest.raises(NoGroundTruth):
        metric_report(trace, spec, (1,), 0.1)


def test_metric_report_bundle():
    spec = make_spec([[0.0]])
    trace = make_trace([[0.1], [0.0], [0.3], [0.2]])
    report = metric_report(trace, spec, checkpoints=(2, 4, 30), radius=0.05)
    assert report.per_step_distances == (pytest.approx(0.1), 0.0, pytest.approx(0.3), pytest.approx(0.2))
    assert report.checkpoint_averages == {2: pytest.approx(0.05), 4: pytest.approx(0.15)}
    assert report.first_hits == {0: 2}
    assert report.distinct_found == 1


def test_metric_report_located_truths_and_off_truth_flags():
    spec = make_spec([[0.0], [0.08], [5.0]])
    trace = make_trace([[0.03], [2.5], [5.2], [0.07], [4.0]])
    flagged = {1, 2, 3, 4}  # steps: near both 0 and 0.08, far, 0.2 from 5, near 0.08
    trace = replace(trace, steps=tuple(replace(s, flagged=s.step in flagged) for s in trace.steps))
    report = metric_report(trace, spec, checkpoints=(), radius=0.25)
    assert report.located_truths == {0, 1, 2}
    assert report.flags_off_truth == 1
    assert report.final_average_distance == pytest.approx((0.03 + 2.42 + 0.2 + 0.01 + 1.0) / 5)


def test_metric_report_reads_a_trace_file(tmp_path):
    spec = make_spec([[0.0], [3.0]])
    trace = make_trace([[0.2], [2.95], [1.4]])
    trace = replace(trace, steps=tuple(replace(s, flagged=s.step == 2) for s in trace.steps))
    traceio.write_trace(tmp_path / "trace.csv", trace, {})
    from_file = metric_report(traceio.read_trace(tmp_path / "trace.csv"), spec, (1, 3), 0.1)
    assert from_file == metric_report(trace, spec, (1, 3), 0.1)
    assert from_file.first_hits == {0: None, 1: 2}
    assert from_file.located_truths == {1}
