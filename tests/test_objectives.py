from types import SimpleNamespace

import numpy as np
import pytest

from multibo import objectives as obj
from multibo.errors import GridTooLarge, NoGroundTruth, OutOfBounds, ParseError
from multibo.metrics import metric_report
from multibo.optimizer import StepRecord


def test_griewank_values():
    assert obj.griewank([0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert obj.griewank([0.0, -4.4, 0.0]) == pytest.approx(2.004, abs=1e-3)
    assert obj.griewank([0.0, 4.4, -0.1]) == pytest.approx(2.003, abs=1e-3)
    # Table-2-style probe around the first maximum
    assert obj.griewank([-3.0, -0.2, 0.0]) == pytest.approx(1.982, abs=1e-3)


def test_griewank_vectorized():
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    vals = obj.griewank(pts)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert vals[1] == pytest.approx(obj.griewank([1.0, 2.0]))


def test_shubert_value_at_origin():
    # direct summation oracle
    i = np.arange(1, 6)
    g0 = float(np.sum(i * np.cos(i)))
    assert obj.shubert([0.0, 0.0]) == pytest.approx(g0 * g0, rel=1e-12)
    assert obj.shubert([0.0, 0.0]) == pytest.approx(19.876, abs=1e-3)


def test_shubert_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.uniform(-2, 0, 2)
        assert obj.shubert([a, b]) == pytest.approx(obj.shubert([b, a]), rel=1e-12)


def test_shubert_global_minimum_on_full_domain():
    # separable structure: min over the grid is (min g) * (max g)
    axis = np.linspace(-10.0, 10.0, 20001)
    i = np.arange(1, 6)
    g = np.sum(i * np.cos((i + 1.0) * axis[:, None] + i), axis=1)
    grid_min = float(g.min() * g.max())
    assert grid_min == pytest.approx(-186.7309, abs=1e-3)


def test_synthetic_bumps_basics():
    single = obj.SyntheticBumps(((1.0, 0.5, 0.1),))
    assert single(np.array([0.5])) == pytest.approx(1.0)
    assert single(np.array([0.5 + 0.61])) < 1e-6  # beyond six widths
    default = obj.SyntheticBumps()
    maxima = default.local_maxima()
    # the boundary ramp bump has no interior stationary point
    assert len(maxima) == 4
    assert np.allclose(np.sort(maxima), [0.08, 0.30, 0.52, 0.70], atol=0.015)
    # three largest maxima have distinct heights
    heights = np.sort(default(np.sort(maxima)))[::-1]
    assert heights[0] > heights[1] > heights[2]


def test_synthetic_invalid_spec():
    with pytest.raises(ValueError):
        obj.SyntheticBumps(())
    with pytest.raises(ValueError):
        obj.SyntheticBumps(((1.0, 0.5, 0.0),))


def test_grid_local_maxima_paraboloid():
    pts, vals = obj.grid_local_maxima(lambda x: -np.sum(x * x, axis=-1), [(-1, 1), (-1, 1)], 0.25)
    assert pts.shape == (1, 2)
    assert np.allclose(pts[0], 0.0)
    assert vals[0] == pytest.approx(0.0)


def test_grid_local_maxima_griewank_count():
    pts, _ = obj.grid_local_maxima(obj.griewank, [(-5, 5), (-5, 5)], 0.01)
    assert pts.shape[0] == 4
    targets = np.array([[np.pi, 0.0], [-np.pi, 0.0], [0.0, np.sqrt(2) * np.pi], [0.0, -np.sqrt(2) * np.pi]])
    for t in targets:
        assert np.min(np.linalg.norm(pts - t, axis=1)) < 0.02


def test_grid_local_maxima_too_large():
    with pytest.raises(GridTooLarge):
        obj.grid_local_maxima(obj.griewank, [(-5, 5)] * 5, 0.01)


def test_benchmark_registry_griewank():
    b = obj.make_benchmark("griewank", 2)
    assert b.dimension == 2
    assert b.ground_truth.shape == (4, 2)
    # values sorted best-first
    assert np.all(np.diff(b.truth_values) <= 0)
    assert b.truth_values[0] == pytest.approx(2.00494, abs=1e-4)


def test_benchmark_registry_shubert():
    b = obj.make_benchmark("shubert")
    assert b.ground_truth.shape[0] >= 3
    assert b.truth_values[0] == pytest.approx(210.482, abs=1e-2)
    assert np.all(b.ground_truth >= -2.0) and np.all(b.ground_truth <= 0.0)


def test_nearest_truth_distance():
    b = obj.make_benchmark("griewank", 3)
    assert obj.nearest_distance(b.ground_truth, b.ground_truth[0]) == 0.0
    # Table 2 probe: analytic truths give ~0.245, grid-snapped ~0.224
    d = obj.nearest_distance(b.ground_truth, [-3.0, -0.2, 0.0])
    assert d == pytest.approx(0.245, abs=2e-3)
    snapped = np.round(b.ground_truth, 1)
    d_snap = np.min(np.linalg.norm(snapped - np.array([-3.0, -0.2, 0.0]), axis=1))
    assert d_snap == pytest.approx(0.224, abs=1e-3)


def test_nearest_truth_distance_midpoint():
    b = obj.make_benchmark("synthetic1d")
    ts = np.sort(b.ground_truth.ravel())
    mid = 0.5 * (ts[0] + ts[1])
    assert obj.nearest_distance(b.ground_truth, [mid]) == pytest.approx((ts[1] - ts[0]) / 2, rel=1e-6)


def test_no_ground_truth_error(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("x1,value\n0.0,1.0\n1.0,1.0\n")
    b = obj.make_benchmark("tabulated", path=str(path))
    assert not b.has_truth
    point = StepRecord(step=1, kind="bo", point=np.array([0.5]), value=1.0,
                       acquisition=0.5, flagged=False, distance=None)
    with pytest.raises(NoGroundTruth):
        metric_report(SimpleNamespace(steps=(point,)), b, (1,), 0.1)


def test_truth_certificate_local_maximum():
    # every registered optimum dominates its axis neighbors at 1e-3 offset
    for name, dim in (("griewank", 2), ("griewank", 3), ("shubert", None), ("synthetic1d", None)):
        b = obj.make_benchmark(name, dim)
        for t in b.ground_truth:
            ft = float(b.objective(t))
            for d in range(b.dimension):
                for sign in (-1, 1):
                    q = t.copy()
                    q[d] = np.clip(q[d] + sign * 1e-3, b.bounds[d, 0], b.bounds[d, 1])
                    assert ft >= float(b.objective(q))


def test_tabulated_roundtrip(tmp_path):
    axes = (np.array([0.0, 1.0, 2.0]), np.array([10.0, 20.0]))
    table = np.arange(6, dtype=float).reshape(3, 2) * 1.5
    surf = obj.TabulatedSurface(("a", "b"), axes, table)
    path = tmp_path / "surf.csv"
    surf.write(path)
    loaded = obj.load_tabulated(path)
    assert loaded.axis_names == ("a", "b")
    for i, a in enumerate(axes[0]):
        for jdx, b in enumerate(axes[1]):
            assert loaded(np.array([a, b])) == table[i, jdx]


def test_tabulated_nearest_and_tie_rule(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,value\n0.0,1.0\n1.0,2.0\n")
    surf = obj.load_tabulated(path)
    assert surf(np.array([0.4])) == 1.0
    assert surf(np.array([0.6])) == 2.0
    assert surf(np.array([0.5])) == 1.0  # tie goes to the lower coordinate
    with pytest.raises(OutOfBounds):
        surf(np.array([1.5]))


def test_tabulated_rows_any_order(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,x2,value\n1.0,0.0,3.0\n0.0,0.0,1.0\n1.0,1.0,4.0\n0.0,1.0,2.0\n")
    surf = obj.load_tabulated(path)
    assert surf(np.array([0.0, 1.0])) == 2.0
    assert surf(np.array([1.0, 1.0])) == 4.0


def test_tabulated_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,value\n0.0,1.0\n0.5\n")
    with pytest.raises(ParseError) as err:
        obj.load_tabulated(p)
    assert err.value.line == 3
    p.write_text("x1,value\n0.0,oops\n")
    with pytest.raises(ParseError):
        obj.load_tabulated(p)
    p.write_text("x1,notvalue\n0.0,1.0\n")
    with pytest.raises(ParseError):
        obj.load_tabulated(p)
    p.write_text("x1,x2,value\n0.0,0.0,1.0\n1.0,1.0,2.0\n")
    with pytest.raises(ParseError):  # incomplete grid
        obj.load_tabulated(p)


def test_tabulated_grid_maxima():
    axes = (np.array([0.0, 1.0, 2.0, 3.0]),)
    table = np.array([0.0, 2.0, 1.0, 3.0])
    surf = obj.TabulatedSurface(("x",), axes, table)
    pts, vals = surf.grid_maxima()
    assert pts.ravel().tolist() == [1.0]
    assert vals.tolist() == [2.0]


def test_bundled_sample_surface_loads():
    from multibo.data import sample_surface_path

    surf = obj.load_tabulated(sample_surface_path())
    assert surf.axis_names == ("width", "layer_projection")
    assert surf.bounds[0].tolist() == [5.0, 35.0]
    assert surf.bounds[1].tolist() == [0.0, 50.0]
    b = obj.make_benchmark("tabulated", path=str(sample_surface_path()))
    assert b.has_truth  # the synthetic surface is multimodal
