import json
import re
from pathlib import Path

import numpy as np
import pytest

from multibo import harness, traceio
from multibo.errors import ConfigError
from reports import read_report

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


BASE_CONFIG = """
benchmark    = synthetic1d
bounds       = 0:1
kernel       = se
alpha        = 1
length_scale = 0.06
acquisition  = joint_ei
threshold    = 0.45
epsilon      = 1.0
budget       = 8
grid_count   = 120
min_distance = 0.005
n_priors     = 3
seed         = 3
hit_radius   = 0.02
checkpoints  = 4,8
"""


def write_config(tmp_path, text=BASE_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_roundtrip(tmp_path):
    cfg = harness.parse_config(write_config(tmp_path))
    assert cfg.benchmark == "synthetic1d"
    assert cfg.bounds == ((0.0, 1.0),)
    assert cfg.kernel_params == {"alpha": 1.0, "length_scale": 0.06}
    assert cfg.grid_count == (120,)
    assert cfg.checkpoints == (4, 8)
    kernel_keys = {"alpha", "length_scale", "alpha_bar"}
    assert set(cfg.echo()) == set(harness._KEYS) - kernel_keys - {"out_dir", "emit_plot_data"} | {"kernel_params"}


def test_parse_config_unknown_key(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\nwibble = 3\n")
    with pytest.raises(ConfigError) as err:
        harness.parse_config(path)
    assert "wibble" in str(err.value)


def test_parse_config_missing_bounds_names_key(tmp_path):
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith("bounds"))
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        harness.parse_config(path)
    assert "bounds" in str(err.value)


def test_parse_config_duplicate_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        harness.parse_config(write_config(tmp_path, BASE_CONFIG + "\nseed = 4\n"))
    with pytest.raises(ConfigError):
        harness.parse_config(write_config(tmp_path, BASE_CONFIG + "\nnot a pair\n"))


def test_parse_config_candidate_mode_exclusive(tmp_path):
    with pytest.raises(ConfigError) as err:
        harness.parse_config(write_config(tmp_path, BASE_CONFIG + "\ngrid_step = 0.1\n"))
    assert "grid_step" in str(err.value)


@pytest.mark.parametrize("drop, line, key", [
    ("hit_radius", "hit_radius = 0", "hit_radius"),
    ("hit_radius", "hit_radius = -0.1", "hit_radius"),
    ("checkpoints", "checkpoints = 0,4", "checkpoints"),
    ("checkpoints", "checkpoints = 4,-8", "checkpoints"),
    ("grid_count", "grid_step = 0", "grid_step"),
    ("grid_count", "grid_count = 0", "grid_count"),
    ("grid_count", "grid_count = 5,5", "grid_count"),
    ("grid_count", "random_candidates = 0", "random_candidates"),
], ids=["radius0", "radius_negative", "checkpoint0", "checkpoint_negative",
        "grid_step0", "grid_count0", "grid_count_per_bound", "random_candidates0"])
def test_parse_config_rejects_bad_sizes(tmp_path, drop, line, key):
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith(drop))
    with pytest.raises(ConfigError) as err:
        harness.parse_config(write_config(tmp_path, f"{text}\n{line}\n"))
    assert key in str(err.value)
    # the optimizer's field name is no config key
    assert "grid_counts" not in str(err.value)


MALFORMED = [  # (line to drop, malformed line, key the error names)
    ("alpha", "alpha = abc", "alpha"),
    ("length_scale", "length_scale = 0.x", "length_scale"),
    ("kernel", "kernel = polynomial\nalpha_bar = x", "alpha_bar"),
    ("dimension", "dimension = two", "dimension"),
    ("grid_count", "grid_step = x", "grid_step"),
    ("grid_count", "grid_count = 5x", "grid_count"),
    ("grid_count", "random_candidates = 1e3", "random_candidates"),
    ("prior_points", "prior_points = 0.1; 0.x", "prior_points"),
    ("bumps", "bumps = 1.0 0.88 0.x", "bumps"),
]


@pytest.mark.parametrize("drop, line, key", MALFORMED, ids=[key for *_, key in MALFORMED])
def test_malformed_value_exits_1_naming_its_key(tmp_path, capsys, drop, line, key):
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith(drop))
    out = tmp_path / "out"
    assert harness.main(["run", str(write_config(tmp_path, f"{text}\n{line}\n")), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


TABULATED = f"benchmark = tabulated\ntabulated_path = {REPO / 'src/multibo/data/sample_accuracy_surface.csv'}"

OUT_OF_RANGE = [  # (prefixes of the lines to drop, out-of-range lines, key the error names)
    ("prior_mean", "prior_mean = inf", "prior_mean"),
    ("prior_mean", "prior_mean = nan", "prior_mean"),
    ("min_distance", "min_distance = nan", "min_distance"),
    ("min_distance", "min_distance = inf", "min_distance"),
    ("jitter_schedule", "jitter_schedule = -1", "jitter_schedule"),
    ("jitter_schedule", "jitter_schedule = 1e-6, nan", "jitter_schedule"),
    ("jitter_schedule", "jitter_schedule = inf", "jitter_schedule"),
    ("seed", "seed = -4", "seed"),
    # benchmarks of a fixed dimension, and a table's axes
    ("bounds", "bounds = 0:1, 0:1", "dimension"),
    (("benchmark", "bounds"), "benchmark = shubert\nbounds = -2:0, -2:0, -2:0", "dimension"),
    (("benchmark", "bounds"), f"{TABULATED}\nbounds = 5:35, 0:50, 0:1", "dimension"),
    (("benchmark", "bounds"), f"{TABULATED}\nbounds = 0:35, 0:50", "bounds"),
]


@pytest.mark.parametrize("drop, line, key", OUT_OF_RANGE,
                         ids=[l.splitlines()[0].split(" = ")[1] + "-" + k for _, l, k in OUT_OF_RANGE])
def test_out_of_range_value_exits_1_naming_its_key(tmp_path, capsys, drop, line, key):
    text = "\n".join(l for l in BASE_CONFIG.splitlines() if not l.startswith(drop))
    out = tmp_path / "out"
    assert harness.main(["run", str(write_config(tmp_path, f"{text}\n{line}\n")), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


# (param, --values, what the error names); no case leaves output behind, so
# a bad value after a good one stops the sweep before the good one runs
SWEEP_VALUES = [
    ("min_distance", "nan", "min_distance"),
    ("min_distance", "inf", "min_distance"),
    ("min_distance", "-0.5", "min_distance"),
    ("alpha", "-1", "alpha"),
    ("alpha", "10,-1", "alpha"),
    ("min_distance", "0.1,-1", "min_distance"),
    ("alpha", "abc", "--values"),
    ("alpha", "10,10", "--values"),
    ("alpha", "10,10.0000001", "--values"),  # both name the directory alpha=10
]


@pytest.mark.parametrize("param, values, key", SWEEP_VALUES, ids=[v for _, v, _ in SWEEP_VALUES])
def test_sweep_over_a_bad_min_distance_exits_1_naming_it(tmp_path, capsys, param, values, key):
    out = tmp_path / "out"
    argv = ["sweep", str(write_config(tmp_path)), "--param", param, "--values", values]
    assert harness.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "alpha", "--values", "1"],
                                     ["ablate"], ["compare"]], ids=lambda c: c[0])
def test_negative_seed_flag_exits_1_naming_it(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command[0], str(write_config(tmp_path)), *command[1:], "--seed", "-1"]
    assert harness.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
    assert not out.exists()


def test_readme_lists_exactly_the_config_keys():
    section = (REPO / "README.md").read_text().split("## Command-line harness")[1].split("\n## ")[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert sorted(keys) == sorted(harness._KEYS)


def test_zero_hit_radius_exits_before_running(tmp_path, capsys):
    cfgp = write_config(tmp_path, BASE_CONFIG.replace("hit_radius   = 0.02", "hit_radius = 0"))
    out = tmp_path / "out"
    assert harness.main(["run", str(cfgp), "--out", str(out)]) == 1
    assert "hit_radius" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = harness.cmd_run(write_config(tmp_path), out=str(out))
    assert rc == 0
    trace = traceio.read_trace(out / "trace.csv")
    assert trace.config_echo["benchmark"] == "synthetic1d"
    assert len([s for s in trace.steps if s.kind == "bo"]) == 8
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "budget"
    assert "metrics" in summary
    assert summary["config"]["seed"] == 3


def test_cmd_run_exit_codes(tmp_path, capsys):
    rc = harness.main(["run", str(tmp_path / "missing.cfg")])
    assert rc == 1
    bad = write_config(tmp_path, BASE_CONFIG.replace("bounds       = 0:1", "bounds = 1:0"))
    assert harness.main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


def test_cmd_run_seed_override(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfgp = write_config(tmp_path)
    harness.cmd_run(cfgp, seed=7, out=str(out1))
    harness.cmd_run(cfgp, seed=7, out=str(out2))
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    out3 = tmp_path / "c"
    harness.cmd_run(cfgp, seed=8, out=str(out3))
    assert (out1 / "trace.csv").read_bytes() != (out3 / "trace.csv").read_bytes()


def test_cmd_run_emit_plot_data(tmp_path):
    out = tmp_path / "out"
    harness.cmd_run(write_config(tmp_path, BASE_CONFIG + "\nemit_plot_data = true\n"), out=str(out))
    lines = (out / "plot_data.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "step,x1,value,acquisition,distance"
    assert len(lines) == 2 + 3 + 8


def test_cmd_sweep_min_distance(tmp_path):
    out = tmp_path / "sweep"
    rc = harness.cmd_sweep(write_config(tmp_path), "min_distance", [0.02, 0.08], out=str(out))
    assert rc == 0
    header, rows, _ = read_report(out / "report.csv")
    assert header[0] == "param"
    assert len(rows) == 2
    for value in (0.02, 0.08):
        tf = traceio.read_trace(out / f"min_distance={value:g}" / "trace.csv")
        pts = np.array([s.point for s in tf.steps])
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= value * (1 - 1e-9)


def test_cmd_sweep_rejects_unknown_param(tmp_path):
    assert harness.main([
        "sweep", str(write_config(tmp_path)), "--param", "gamma", "--values", "1,2",
    ]) == 1


def test_cmd_sweep_alpha_shares_seed(tmp_path):
    out = tmp_path / "sweep"
    harness.cmd_sweep(write_config(tmp_path), "alpha", [1.0, 2.0], out=str(out))
    t1 = traceio.read_trace(out / "alpha=1" / "trace.csv")
    t2 = traceio.read_trace(out / "alpha=2" / "trace.csv")
    p1 = [s.point.tolist() for s in t1.steps if s.kind == "prior"]
    p2 = [s.point.tolist() for s in t2.steps if s.kind == "prior"]
    assert p1 == p2


def test_cmd_ablate_shares_priors(tmp_path):
    out = tmp_path / "abl"
    rc = harness.cmd_ablate(write_config(tmp_path), out=str(out))
    assert rc == 0
    traces = [traceio.read_trace(out / v / "trace.csv")
              for v in ("joint", "posterior_only", "derivative_only")]
    priors = [[(s.point.tolist(), s.value) for s in t.steps if s.kind == "prior"] for t in traces]
    assert priors[0] == priors[1] == priors[2]
    fams = [t.config_echo["acquisition"] for t in traces]
    assert fams == ["joint_ei", "vanilla_ei", "derivative_only"]
    header, rows, _ = read_report(out / "report.csv")
    assert [r[0] for r in rows] == ["joint", "posterior_only", "derivative_only"]


def test_cmd_ablate_requires_joint_family(tmp_path):
    cfgp = write_config(tmp_path, BASE_CONFIG.replace("joint_ei", "vanilla_ei"))
    assert harness.main(["ablate", str(cfgp)]) == 1


def test_cmd_compare_report_shape_and_determinism(tmp_path):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    cfgp = write_config(tmp_path)
    assert harness.cmd_compare(cfgp, out=str(out1)) == 0
    assert harness.cmd_compare(cfgp, out=str(out2)) == 0
    header, rows, _ = read_report(out1 / "report.csv")
    assert header == ["method", "first_hit_max1", "first_hit_max2", "first_hit_max3",
                      "first_hit_max4", "avg_distance_4", "avg_distance_8"]
    assert [r[0] for r in rows] == ["joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei"]
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_cmd_compare_requires_synthetic(tmp_path):
    text = BASE_CONFIG.replace("benchmark    = synthetic1d", "benchmark = shubert").replace(
        "bounds       = 0:1", "bounds = -2:0, -2:0")
    assert harness.main(["compare", str(write_config(tmp_path, text))]) == 1


def test_reports_regenerate_from_traces(tmp_path):
    cfgp = write_config(tmp_path)
    commands = [
        (lambda out: harness.cmd_ablate(cfgp, out=out),
         ("joint", "posterior_only", "derivative_only"), harness.ablate_report_rows),
        (lambda out: harness.cmd_sweep(cfgp, "threshold", [0.2, 0.45], out=out),
         ("threshold=0.2", "threshold=0.45"), harness.sweep_report_rows),
        (lambda out: harness.cmd_compare(cfgp, out=out),
         ("joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei"), harness.compare_report_rows),
    ]
    for n, (command, subdirs, report_rows) in enumerate(commands):
        out = tmp_path / f"multi{n}"
        assert command(str(out)) == 0
        regenerated = report_rows([out / v / "trace.csv" for v in subdirs])
        _, rows, _ = read_report(out / "report.csv")
        assert [[str(v) if v is not None else "" for v in row] for row in regenerated] == rows


def test_summary_metrics_match_the_compare_report(tmp_path):
    out = tmp_path / "cmp"
    assert harness.cmd_compare(write_config(tmp_path), out=str(out)) == 0
    header, rows, _ = read_report(out / "report.csv")
    for row in rows:
        metrics = json.loads((out / row[0] / "summary.json").read_text())["metrics"]
        cells = dict(zip(header, row))
        hits = metrics["first_hits"]
        assert len(hits) == 4  # one per synthetic1d maximum
        for i in range(4):
            step = hits.get(str(i))
            assert cells[f"first_hit_max{i + 1}"] == ("" if step is None else str(step))
        for c in (4, 8):
            assert cells[f"avg_distance_{c}"] == repr(metrics["checkpoint_averages"][str(c)])


def test_bundled_configs_parse():
    for name in ("griewank2d_jointpi", "shubert_jointei", "griewank3d_jointei",
                 "synthetic1d_compare", "synthetic1d_ablate", "shubert_sweep"):
        cfg = harness.parse_config(CONFIGS / f"{name}.cfg")
        assert cfg.budget >= 1


def test_bundled_tabulated_config_parses(monkeypatch):
    monkeypatch.chdir(REPO)  # the bundled path is repo-relative
    cfg = harness.parse_config(CONFIGS / "tabulated_demo.cfg")
    spec = cfg.make_benchmark()
    assert spec.dimension == 2
