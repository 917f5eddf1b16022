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


# the registries' maxima before they were found by bisection: bounded
# Nelder-Mead from the analytic seeds and the 0.005 Shubert lattice, with
# xatol 1e-10, fatol 1e-12 and maxiter 2000, in registration order
NELDER_MEAD_TRUTHS = {
    "griewank2d": [(7.0954e-09, 4.447330256), (7.0954e-09, -4.447330256),
                   (3.143164228, -5.2547e-09), (-3.143164228, -5.2547e-09)],
    "griewank3d": [(-5.8973e-09, 4.447330291, -2.7750e-08), (-5.8973e-09, -4.447330291, -2.7750e-08),
                   (3.143164242, -1.0345e-08, 9.5052e-09), (-3.143164242, -1.0345e-08, 9.5052e-09)],
    "griewank4d": [(1.6380e-09, 4.447330277, -2.9108e-08, -4.1852e-08),
                   (1.6380e-09, -4.447330277, -2.9108e-08, -4.1852e-08),
                   (3.143164232, 1.7899e-08, 6.7964e-09, -1.9612e-08),
                   (-3.143164232, 1.7899e-08, 6.7964e-09, -1.9612e-08)],
    "griewank5d": [(-8.4027e-09, 4.447330253, -9.5683e-09, 1.8031e-09, -3.3414e-09),
                   (-8.4027e-09, -4.447330253, -9.5683e-09, 1.8031e-09, -3.3414e-09),
                   (3.143164242, 1.6366e-08, -1.0269e-08, 1.3008e-08, 7.7616e-09),
                   (-3.143164242, 1.6366e-08, -1.0269e-08, 1.3008e-08, 7.7616e-09)],
    "shubert": [(-0.8003210992, -0.8003211000), (-1.425128428, -1.425128428),
                (-1.425128426, -0.1953857503), (-0.1953857503, -1.425128426),
                (-0.1953857465, -0.1953857506)],
}


def _partial(spec, x, d):
    """The d-th partial derivative of a Griewank or Shubert objective at
    ``x``, from its closed form."""
    if spec.name == "shubert":
        i = np.arange(1.0, 6.0)
        other = np.sum(i * np.cos((i + 1.0) * x[1 - d] + i))
        return -np.sum(i * (i + 1.0) * np.sin((i + 1.0) * x[d] + i)) * other
    r = np.sqrt(np.arange(1.0, x.size + 1.0))
    other = np.prod(np.delete(np.cos(x / r), d))
    return x[d] / 2000.0 + np.sin(x[d] / r[d]) / r[d] * other


@pytest.mark.parametrize("name, dim", [("griewank", 2), ("griewank", 3), ("griewank", 4),
                                       ("griewank", 5), ("shubert", None)])
def test_registry_maxima_are_bisected_critical_points(name, dim):
    b = obj.make_benchmark(name, dim)
    truths = b.ground_truth
    # within 1e-7 of the local search's maxima, in the same order
    np.testing.assert_allclose(truths, NELDER_MEAD_TRUTHS[b.name], rtol=0.0, atol=1e-7)
    if name == "griewank":
        # on axis 1, then axis 0, each as a +- pair, every other coordinate 0
        axis = [1, 1, 0, 0]
        off = np.ones_like(truths, dtype=bool)
        off[np.arange(4), axis] = False
        assert np.all(truths[off] == 0.0)
        np.testing.assert_array_equal(truths[1], -truths[0])
        np.testing.assert_array_equal(truths[3], -truths[2])
        assert b.truth_values[0] == b.truth_values[1] and b.truth_values[2] == b.truth_values[3]
        coords = [(t, [a]) for t, a in zip(truths, axis)]
    else:
        coords = [(t, [0, 1]) for t in truths]
    # each maximum's slope falls through zero within 4 ulps of it
    for t, axes in coords:
        for d in axes:
            below, above = t.copy(), t.copy()
            below[d] -= 4 * np.spacing(abs(t[d]))
            above[d] += 4 * np.spacing(abs(t[d]))
            assert _partial(b, below, d) > 0 > _partial(b, above, d), (t, d)


def test_synthetic_registry_keeps_its_bits():
    b = obj.make_benchmark("synthetic1d")
    np.testing.assert_array_equal(
        b.ground_truth.ravel(),
        [0.08024074408460394, 0.3001626413955414, 0.5238313826871623, 0.7109873689384858])
