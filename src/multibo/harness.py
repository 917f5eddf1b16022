"""Experiment harness and command-line entry point.

Configuration files are flat ``key = value`` text: one setting per line,
``#`` starts a comment line, blank lines are ignored. ``_KEYS`` lists
every key with its parser and default; unknown keys, and values their
parser rejects, fail with the key's name. Example::

    # Griewank, joint probability of improvement
    benchmark   = griewank
    dimension   = 2
    bounds      = -5:5, -5:5
    kernel      = se
    alpha       = 10
    length_scale = 0.1
    acquisition = joint_pi
    threshold   = 1
    epsilon     = 0.1
    budget      = 40
    grid_step   = 0.1
    min_distance = 0.1
    n_priors    = 3
    seed        = 7

Subcommands: ``run``, ``sweep`` (one parameter, several values), ``ablate``
(joint vs posterior-only vs derivative-only with shared priors), and
``compare`` (joint and vanilla PI/EI on the synthetic 1-D benchmark). Every
run writes ``trace.csv`` and ``summary.json``; multi-run commands add a
``report.csv`` that is rebuilt purely from the emitted traces.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import traceio
from .acquisition import AcquisitionConfig
from .errors import ConfigError, MultiboError
from .kernels import Polynomial, SquaredExponential
from .objectives import BenchmarkSpec, load_tabulated, make_benchmark
from .optimizer import OptimizerConfig, RunTrace, min_pairwise_distance, run as run_loop

SWEEP_PARAMS = ("alpha", "length_scale", "threshold", "min_distance")

# benchmark name -> its input dimension; None where the config or table sets it
_BENCHMARK_DIMENSIONS = {"griewank": None, "shubert": 2, "synthetic1d": 1, "tabulated": None}

# kernel name -> class; a kernel's config keys are its dataclass fields
_KERNELS = {"se": SquaredExponential, "polynomial": Polynomial}


def _kernel_keys(name) -> tuple[str, ...]:
    return tuple(f.name for f in fields(_KERNELS[name]))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings (benchmark + optimizer + outputs),
    each field named after its config key."""

    benchmark: str
    dimension: int
    bounds: tuple[tuple[float, float], ...]
    kernel: str
    kernel_params: dict
    acquisition: str
    threshold: float
    epsilon: float
    budget: int
    grid_step: float | None
    grid_count: tuple[int, ...] | None
    random_candidates: int | None
    min_distance: float
    n_priors: int
    prior_points: tuple[tuple[float, ...], ...] | None
    prior_mean: float
    seed: int
    out_dir: str | None
    emit_plot_data: bool
    checkpoints: tuple[int, ...]
    hit_radius: float
    tabulated_path: str | None
    bumps: tuple[tuple[float, float, float], ...] | None
    jitter_schedule: tuple[float, ...] | None = None

    def make_benchmark(self) -> BenchmarkSpec:
        return make_benchmark(
            self.benchmark,
            dimension=self.dimension,
            bumps=self.bumps,
            path=self.tabulated_path,
        )

    def make_optimizer(self, family=None, seed=None) -> OptimizerConfig:
        """One run's optimizer settings; a value they reject raises
        ``ConfigError``."""
        try:
            return OptimizerConfig(
                bounds=np.asarray(self.bounds),
                kernel=_KERNELS[self.kernel](**self.kernel_params),
                acquisition=AcquisitionConfig(
                    family=family or self.acquisition,
                    threshold=self.threshold,
                    epsilon=self.epsilon,
                ),
                budget=self.budget,
                min_distance=self.min_distance,
                grid_step=self.grid_step,
                grid_counts=self.grid_count,
                random_candidates=self.random_candidates,
                prior_points=None if self.prior_points is None else np.asarray(self.prior_points),
                n_priors=self.n_priors,
                prior_mean=self.prior_mean,
                seed=self.seed if seed is None else int(seed),
                **({} if self.jitter_schedule is None else {"jitter_schedule": self.jitter_schedule}),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self, **extra) -> dict:
        """The run's settings under their config keys (output settings
        left out), updated with ``extra``."""
        base = asdict(self)
        del base["out_dir"], base["emit_plot_data"]
        base.update(extra)
        return base


def _parse_bounds(text):
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ValueError(f"entry {part.strip()!r} must be low:high")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _parse_point_list(text, width=None):
    """``;``-separated points of space-separated coordinates, all of one
    width (``width`` when given)."""
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = tuple(float(v) for v in chunk.split())
        width = width or len(coords)
        if len(coords) != width:
            raise ValueError(f"point {chunk!r} must have {width} coordinates")
        pts.append(coords)
    if not pts:
        raise ValueError("empty point list")
    return tuple(pts)


def _parse_list(item):
    """Parser of a comma-separated list of ``item`` values."""
    return lambda text: tuple(item(v) for v in text.split(","))


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"must be true or false, got {text!r}")


_REQUIRED = object()

# Every config key with its parser and default; _REQUIRED marks a key each
# config sets. A kernel's keys are required with that kernel. When unset,
# ``dimension`` is the number of bounds and ``hit_radius`` is ``grid_step``,
# else 0.1.
_KEYS = {
    "benchmark": (str, _REQUIRED),
    "dimension": (int, None),
    "tabulated_path": (str, None),
    "bumps": (partial(_parse_point_list, width=3), None),
    "bounds": (_parse_bounds, _REQUIRED),
    "kernel": (str, _REQUIRED),
    "alpha": (float, None),
    "length_scale": (float, None),
    "alpha_bar": (float, None),
    "acquisition": (str, _REQUIRED),
    "threshold": (float, _REQUIRED),
    "epsilon": (float, 0.1),
    "budget": (int, _REQUIRED),
    "grid_step": (float, None),
    "grid_count": (_parse_list(int), None),
    "random_candidates": (int, None),
    "min_distance": (float, 0.0),
    "n_priors": (int, 3),
    "prior_points": (_parse_point_list, None),
    "prior_mean": (float, 0.0),
    "seed": (int, 0),
    "jitter_schedule": (_parse_list(float), None),
    "out_dir": (str, None),
    "emit_plot_data": (_parse_bool, False),
    "checkpoints": (_parse_list(int), (30, 60, 90)),
    "hit_radius": (float, None),
}


def parse_config_text(text) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    values = {key: default for key, (_, default) in _KEYS.items()}
    try:
        for key, value in raw.items():
            values[key] = _KEYS[key][0](value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    for key, value in values.items():
        if value is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")

    benchmark = values["benchmark"]
    if benchmark not in _BENCHMARK_DIMENSIONS:
        raise ConfigError(f"benchmark must be griewank, shubert, synthetic1d or tabulated, got {benchmark!r}")
    if benchmark == "tabulated" and values["tabulated_path"] is None:
        raise ConfigError("missing required key 'tabulated_path' for the tabulated benchmark")

    n_bounds = len(values["bounds"])
    if values["dimension"] is None:
        values["dimension"] = n_bounds
    if values["dimension"] != n_bounds:
        raise ConfigError(f"dimension {values['dimension']} does not match {n_bounds} bounds entries")
    want = _BENCHMARK_DIMENSIONS[benchmark]
    if benchmark == "tabulated":
        axes = load_tabulated(values["tabulated_path"]).bounds
        want = len(axes)
        if any(lo < a or hi > b for (lo, hi), (a, b) in zip(values["bounds"], axes)):
            raise ConfigError(f"bounds must lie inside the table's axes {axes.tolist()}")
    if want is not None and values["dimension"] != want:
        raise ConfigError(f"dimension {values['dimension']}: {benchmark} is {want}-dimensional")
    if values["hit_radius"] is None:
        values["hit_radius"] = values["grid_step"] or 0.1
    counts = values["grid_count"]
    if counts is not None:
        if len(counts) == 1:
            values["grid_count"] = counts = counts * n_bounds
        if len(counts) != n_bounds:
            raise ConfigError(f"grid_count must give one count or one per bound, got {list(counts)}")
        if min(counts) < 1:
            raise ConfigError(f"grid_count must all be at least 1, got {list(counts)}")

    kernel = values["kernel"]
    if kernel not in _KERNELS:
        raise ConfigError(f"kernel must be se or polynomial, got {kernel!r}")
    params = {key: values.pop(key) for name in _KERNELS for key in _kernel_keys(name)}
    for key in _kernel_keys(kernel):
        if params[key] is None:
            raise ConfigError(f"missing required key {key!r} for the {kernel} kernel")

    cfg = ExperimentConfig(
        kernel_params={key: params[key] for key in _kernel_keys(kernel)},
        **values,
    )
    if not cfg.hit_radius > 0:
        raise ConfigError(f"hit_radius must be positive, got {cfg.hit_radius}")
    if min(cfg.checkpoints) < 1:
        raise ConfigError(f"checkpoints must all be at least 1, got {list(cfg.checkpoints)}")
    cfg.make_optimizer()  # model and optimizer settings fail here, before any run
    return cfg


def parse_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# -- execution ----------------------------------------------------------------


def _execute_single(cfg: ExperimentConfig, opt_cfg: OptimizerConfig, spec: BenchmarkSpec,
                    out_dir: Path, echo_extra=None) -> RunTrace:
    out_dir.mkdir(parents=True, exist_ok=True)
    truths = spec.ground_truth if spec.has_truth else None
    trace = run_loop(spec.objective, opt_cfg, truths=truths)
    echo = cfg.echo(**(echo_extra or {}))
    echo["acquisition"] = opt_cfg.acquisition.family
    echo["seed"] = opt_cfg.seed
    traceio.write_trace(out_dir / "trace.csv", trace, echo)
    summary = {
        "config": echo,
        "termination": trace.termination,
        "n_samples": trace.n_samples,
        "jitter": trace.jitter,
        "min_pairwise_distance": trace.min_pairwise_distance(),
        "flagged_optima": [
            {
                "step": rec.step,
                "point": [float(v) for v in rec.point],
                "value": rec.value,
                "acquisition": rec.acquisition,
                "distance": rec.distance,
            }
            for rec in trace.flagged()
        ],
    }
    if spec.has_truth:
        report = metrics_mod.metric_report(trace, spec, cfg.checkpoints, cfg.hit_radius)
        summary["metrics"] = {
            "checkpoint_averages": {str(k): v for k, v in report.checkpoint_averages.items()},
            "first_hits": {str(k): v for k, v in report.first_hits.items()},
            "distinct_found": report.distinct_found,
            "final_average_distance": report.final_average_distance,
        }
    traceio.write_summary(out_dir / "summary.json", summary)
    if cfg.emit_plot_data:
        traceio.write_plot_data(out_dir / "plot_data.csv", trace, echo)
    return trace


def _spec_from_echo(echo: dict) -> BenchmarkSpec:
    bumps = echo.get("bumps")
    return make_benchmark(
        echo["benchmark"],
        dimension=echo.get("dimension"),
        bumps=None if bumps is None else tuple(tuple(b) for b in bumps),
        path=echo.get("tabulated_path"),
    )


def _trace_reports(trace_paths):
    """Each trace file with its ``metric_report``, rebuilt from the file alone
    (``None`` for a benchmark without ground truth)."""
    for path in trace_paths:
        tf = traceio.read_trace(path)
        echo = tf.config_echo
        spec = _spec_from_echo(echo)
        report = None
        if spec.has_truth:
            report = metrics_mod.metric_report(tf, spec, echo["checkpoints"], float(echo["hit_radius"]))
        yield Path(path), tf, report


def _run_counts(tf: traceio.TraceFile, report) -> list:
    """Selected steps, flagged steps, and the distinct truths the flags located."""
    return [
        sum(1 for s in tf.steps if s.kind == "bo"),
        sum(1 for s in tf.steps if s.flagged),
        None if report is None else len(report.located_truths),
    ]


def _repr(value):
    return None if value is None else repr(value)


def _final_distance(report):
    return None if report is None else _repr(report.final_average_distance)


def sweep_report_rows(trace_paths):
    rows = []
    for path, tf, report in _trace_reports(trace_paths):
        rows.append([
            tf.config_echo.get("sweep_param"),
            tf.config_echo.get("sweep_value"),
            path.parent.name,
            *_run_counts(tf, report),
            repr(min_pairwise_distance([s.point for s in tf.steps])),
            _final_distance(report),
        ])
    return rows


def ablate_report_rows(trace_paths):
    rows = []
    for _, tf, report in _trace_reports(trace_paths):
        rows.append([
            tf.config_echo.get("variant"),
            tf.config_echo.get("acquisition"),
            *_run_counts(tf, report),
            None if report is None else report.flags_off_truth,
            _final_distance(report),
        ])
    return rows


def compare_report_rows(trace_paths):
    rows = []
    for _, tf, report in _trace_reports(trace_paths):
        row = [tf.config_echo.get("acquisition")]
        row += report.first_hits.values()
        row += [_repr(report.checkpoint_averages.get(int(c))) for c in tf.config_echo["checkpoints"]]
        rows.append(row)
    return rows


# -- subcommands ----------------------------------------------------------------


def _out_dir(config_path, cfg: ExperimentConfig, out, command) -> Path:
    """``--out``, else the config's ``out_dir``, else ``runs/<config stem>_<command>``."""
    return Path(out or cfg.out_dir or f"runs/{Path(config_path).stem}_{command}")


_DONE = {"sweep": "sweep", "ablate": "ablation", "compare": "comparison"}


def _run_all(command, config_path, cfg, spec, runs, columns, report_rows, seed, out, **echo) -> int:
    """Execute ``runs``, each ``(subdir, config, family, echo extras)``, then
    write ``report.csv`` rebuilt from their traces by ``report_rows``. Every
    run's settings are checked before the first run starts."""
    out_dir = _out_dir(config_path, cfg, out, command)
    opt_cfgs = [run_cfg.make_optimizer(family, seed) for _, run_cfg, family, _ in runs]
    for (subdir, run_cfg, _, extra), opt_cfg in zip(runs, opt_cfgs):
        _execute_single(run_cfg, opt_cfg, spec, out_dir / subdir, echo_extra=extra)
    rows = report_rows([out_dir / subdir / "trace.csv" for subdir, *_ in runs])
    traceio.write_report(out_dir / "report.csv", columns, rows, cfg.echo(**echo), kind=command)
    print(f"{_DONE[command]} complete: {out_dir}")
    return 0


def cmd_run(config_path, seed=None, out=None) -> int:
    cfg = parse_config(config_path)
    out_dir = _out_dir(config_path, cfg, out, "run")
    _execute_single(cfg, cfg.make_optimizer(seed=seed), cfg.make_benchmark(), out_dir)
    print(f"run complete: {out_dir}")
    return 0


def cmd_sweep(config_path, param, values, seed=None, out=None) -> int:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {param!r}")
    cfg = parse_config(config_path)
    kernel_param = param in _kernel_keys("se")
    if kernel_param and cfg.kernel != "se":
        raise ConfigError(f"sweep over {param!r} requires the se kernel")
    runs = []
    for value in values:
        if kernel_param:
            run_cfg = replace(cfg, kernel_params={**cfg.kernel_params, param: value})
        else:
            run_cfg = replace(cfg, **{param: value})
        runs.append((f"{param}={value:g}", run_cfg, None, {"sweep_param": param, "sweep_value": value}))
    subdirs = [subdir for subdir, *_ in runs]
    if len(set(subdirs)) < len(subdirs):
        raise ConfigError(f"--values: two values share a run directory in {subdirs}")
    columns = ["param", "value", "run_dir", "steps", "n_flagged",
               "distinct_truths", "min_pairwise_distance", "avg_distance_final"]
    return _run_all("sweep", config_path, cfg, cfg.make_benchmark(), runs, columns,
                    sweep_report_rows, seed, out, sweep_param=param)


_ABLATION_VARIANTS = {
    "joint_pi": (("joint", "joint_pi"), ("posterior_only", "vanilla_pi"),
                 ("derivative_only", "derivative_only")),
    "joint_ei": (("joint", "joint_ei"), ("posterior_only", "vanilla_ei"),
                 ("derivative_only", "derivative_only")),
}


def cmd_ablate(config_path, seed=None, out=None) -> int:
    cfg = parse_config(config_path)
    if cfg.acquisition not in _ABLATION_VARIANTS:
        raise ConfigError("ablate requires acquisition joint_pi or joint_ei")
    runs = [(variant, cfg, family, {"variant": variant})
            for variant, family in _ABLATION_VARIANTS[cfg.acquisition]]
    columns = ["variant", "acquisition", "steps", "n_flagged",
               "distinct_truths", "flags_off_truth", "avg_distance_final"]
    return _run_all("ablate", config_path, cfg, cfg.make_benchmark(), runs, columns,
                    ablate_report_rows, seed, out)


def cmd_compare(config_path, seed=None, out=None) -> int:
    cfg = parse_config(config_path)
    if cfg.benchmark != "synthetic1d":
        raise ConfigError("compare runs on the synthetic1d benchmark")
    spec = cfg.make_benchmark()
    if not spec.has_truth:
        raise ConfigError("compare requires ground-truth optima")
    runs = [(family, cfg, family, {"method": family})
            for family in ("joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei")]
    columns = ["method"] + [f"first_hit_max{i + 1}" for i in range(len(spec.ground_truth))]
    columns += [f"avg_distance_{c}" for c in cfg.checkpoints]
    return _run_all("compare", config_path, cfg, spec, runs, columns,
                    compare_report_rows, seed, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multibo",
        description="Multimodal Bayesian optimization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "ablate", "compare"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if name == "sweep":
            p.add_argument("--param", required=True)
            p.add_argument("--values", required=True,
                           help="comma-separated numeric values")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, seed=args.seed, out=args.out)
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--values: {exc}") from exc
            return cmd_sweep(args.config, args.param, values, seed=args.seed, out=args.out)
        if args.command == "ablate":
            return cmd_ablate(args.config, seed=args.seed, out=args.out)
        return cmd_compare(args.config, seed=args.seed, out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (MultiboError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
