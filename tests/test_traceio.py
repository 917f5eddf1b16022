import numpy as np
import pytest

from multibo import traceio
from multibo.acquisition import AcquisitionConfig
from multibo.errors import ParseError
from multibo.kernels import SquaredExponential
from multibo.objectives import SyntheticBumps, make_benchmark
from multibo.optimizer import OptimizerConfig, run
from reports import read_report


def small_trace(seed=0, truths=None):
    cfg = OptimizerConfig(
        bounds=[(0.0, 1.0)],
        kernel=SquaredExponential(1.0, 0.1),
        acquisition=AcquisitionConfig("joint_ei", 0.3, 0.1),
        budget=6,
        min_distance=0.02,
        grid_counts=(60,),
        seed=seed,
    )
    return run(SyntheticBumps(), cfg, truths=truths)


def test_trace_roundtrip_exact(tmp_path):
    bench = make_benchmark("synthetic1d")
    trace = small_trace(truths=bench.ground_truth)
    echo = {"benchmark": "synthetic1d", "seed": 0}
    path = tmp_path / "trace.csv"
    traceio.write_trace(path, trace, echo)
    tf = traceio.read_trace(path)
    assert tf.config_echo == echo
    assert tf.termination == trace.termination
    assert tf.n_samples == trace.n_samples
    assert tf.jitter == trace.jitter
    assert len(tf.steps) == len(trace.steps)
    for a, b in zip(tf.steps, trace.steps):
        assert a.step == b.step and a.kind == b.kind
        assert np.array_equal(a.point, b.point)
        assert a.value == b.value
        assert a.acquisition == b.acquisition
        assert a.flagged == b.flagged
        assert a.distance == b.distance


def test_trace_write_is_deterministic(tmp_path):
    bench = make_benchmark("synthetic1d")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    traceio.write_trace(p1, small_trace(seed=4, truths=bench.ground_truth), {"seed": 4})
    traceio.write_trace(p2, small_trace(seed=4, truths=bench.ground_truth), {"seed": 4})
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_header_format(tmp_path):
    trace = small_trace()
    path = tmp_path / "trace.csv"
    traceio.write_trace(path, trace, {})
    lines = path.read_text().splitlines()
    assert lines[0] == "# multibo trace v1"
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "step,kind,x1,value,acquisition,flagged,distance"


def test_read_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,trace\n1,2,3\n")
    with pytest.raises(ParseError):
        traceio.read_trace(path)


def test_report_roundtrip(tmp_path):
    path = tmp_path / "report.csv"
    columns = ["method", "first_hit_max1", "avg"]
    rows = [["joint_pi", 3, "0.125"], ["vanilla_pi", None, "0.5"]]
    traceio.write_report(path, columns, rows, {"seed": 1}, kind="compare")
    header, data, echo = read_report(path)
    assert header == columns
    assert data == [["joint_pi", "3", "0.125"], ["vanilla_pi", "", "0.5"]]
    assert echo == {"seed": 1}
