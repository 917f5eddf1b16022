"""Experiment harness and command-line entry point.

Configuration files are flat ``key = value`` text: one setting per line,
``#`` starts a comment line, blank lines are ignored. Unknown keys are
rejected by name. Example::

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import traceio
from .acquisition import AcquisitionConfig
from .errors import ConfigError, MultiboError
from .kernels import Polynomial, SquaredExponential
from .objectives import BenchmarkSpec, make_benchmark
from .optimizer import OptimizerConfig, RunTrace, min_pairwise_distance, run as run_loop

SWEEP_PARAMS = ("alpha", "length_scale", "threshold", "min_distance")

_KNOWN_KEYS = {
    "benchmark", "dimension", "tabulated_path", "bumps", "bounds",
    "kernel", "alpha", "length_scale", "alpha_bar",
    "acquisition", "threshold", "epsilon",
    "budget", "grid_step", "grid_count", "random_candidates",
    "min_distance", "n_priors", "prior_points", "prior_mean", "seed",
    "jitter_schedule",
    "out_dir", "emit_plot_data", "checkpoints", "hit_radius",
}

_REQUIRED_KEYS = ("benchmark", "bounds", "kernel", "acquisition", "threshold", "budget")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings (benchmark + optimizer + outputs)."""

    benchmark: str
    dimension: int
    bounds: tuple[tuple[float, float], ...]
    kernel_name: str
    kernel_params: dict
    acquisition: str
    threshold: float
    epsilon: float
    budget: int
    grid_step: float | None
    grid_counts: tuple[int, ...] | None
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

    def make_kernel(self):
        if self.kernel_name == "se":
            return SquaredExponential(**self.kernel_params)
        return Polynomial(**self.kernel_params)

    def make_acquisition(self, family=None) -> AcquisitionConfig:
        return AcquisitionConfig(
            family=family or self.acquisition,
            threshold=self.threshold,
            epsilon=self.epsilon,
        )

    def make_benchmark(self) -> BenchmarkSpec:
        return make_benchmark(
            self.benchmark,
            dimension=self.dimension,
            bumps=self.bumps,
            path=self.tabulated_path,
        )

    def make_optimizer(self, family=None, seed=None) -> OptimizerConfig:
        return OptimizerConfig(
            bounds=np.asarray(self.bounds),
            kernel=self.make_kernel(),
            acquisition=self.make_acquisition(family),
            budget=self.budget,
            min_distance=self.min_distance,
            grid_step=self.grid_step,
            grid_counts=self.grid_counts,
            random_candidates=self.random_candidates,
            prior_points=None if self.prior_points is None else np.asarray(self.prior_points),
            n_priors=self.n_priors,
            prior_mean=self.prior_mean,
            seed=self.seed if seed is None else int(seed),
            **({} if self.jitter_schedule is None else {"jitter_schedule": self.jitter_schedule}),
        )

    def echo(self, **extra) -> dict:
        base = {
            "benchmark": self.benchmark,
            "dimension": self.dimension,
            "bounds": [list(b) for b in self.bounds],
            "kernel": self.kernel_name,
            "kernel_params": dict(self.kernel_params),
            "acquisition": self.acquisition,
            "threshold": self.threshold,
            "epsilon": self.epsilon,
            "budget": self.budget,
            "grid_step": self.grid_step,
            "grid_count": None if self.grid_counts is None else list(self.grid_counts),
            "random_candidates": self.random_candidates,
            "min_distance": self.min_distance,
            "n_priors": self.n_priors,
            "prior_points": None if self.prior_points is None else [list(p) for p in self.prior_points],
            "prior_mean": self.prior_mean,
            "seed": self.seed,
            "checkpoints": list(self.checkpoints),
            "hit_radius": self.hit_radius,
            "tabulated_path": self.tabulated_path,
            "bumps": None if self.bumps is None else [list(b) for b in self.bumps],
            "jitter_schedule": None if self.jitter_schedule is None else list(self.jitter_schedule),
        }
        base.update(extra)
        return base


def _parse_bounds(text):
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ConfigError(f"bounds entry {part.strip()!r} must be low:high")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _parse_point_list(text, width=None):
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = tuple(float(v) for v in chunk.split())
        if width is not None and len(coords) != width:
            raise ConfigError(f"point {chunk!r} must have {width} coordinates")
        pts.append(coords)
    if not pts:
        raise ConfigError("empty point list")
    return tuple(pts)


def _parse_bool(text, key):
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {text!r}")


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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    benchmark = raw["benchmark"]
    if benchmark not in ("griewank", "shubert", "synthetic1d", "tabulated"):
        raise ConfigError(f"benchmark must be griewank, shubert, synthetic1d or tabulated, got {benchmark!r}")
    if benchmark == "tabulated" and "tabulated_path" not in raw:
        raise ConfigError("missing required key 'tabulated_path' for the tabulated benchmark")

    try:
        bounds = _parse_bounds(raw["bounds"])
    except ValueError as exc:
        raise ConfigError(f"bounds: {exc}") from exc
    dimension = int(raw.get("dimension", len(bounds)))
    if dimension != len(bounds):
        raise ConfigError(f"dimension {dimension} does not match {len(bounds)} bounds entries")

    kernel_name = raw["kernel"]
    if kernel_name == "se":
        if "alpha" not in raw:
            raise ConfigError("missing required key 'alpha' for the se kernel")
        if "length_scale" not in raw:
            raise ConfigError("missing required key 'length_scale' for the se kernel")
        kernel_params = {"alpha": float(raw["alpha"]), "length_scale": float(raw["length_scale"])}
    elif kernel_name == "polynomial":
        if "alpha_bar" not in raw:
            raise ConfigError("missing required key 'alpha_bar' for the polynomial kernel")
        kernel_params = {"alpha_bar": float(raw["alpha_bar"])}
    else:
        raise ConfigError(f"kernel must be se or polynomial, got {kernel_name!r}")

    candidate_keys = [k for k in ("grid_step", "grid_count", "random_candidates") if k in raw]
    if len(candidate_keys) != 1:
        raise ConfigError(
            "exactly one of grid_step, grid_count, random_candidates must be set; "
            f"got {candidate_keys or 'none'}"
        )
    grid_step = float(raw["grid_step"]) if "grid_step" in raw else None
    grid_counts = None
    if "grid_count" in raw:
        parts = [int(v) for v in raw["grid_count"].split(",")]
        grid_counts = tuple(parts * len(bounds)) if len(parts) == 1 else tuple(parts)
        if len(grid_counts) != len(bounds):
            raise ConfigError("grid_count must give one value, or one per dimension")
    random_candidates = int(raw["random_candidates"]) if "random_candidates" in raw else None

    prior_points = None
    if "prior_points" in raw:
        prior_points = _parse_point_list(raw["prior_points"], width=len(bounds))

    bumps = None
    if "bumps" in raw:
        bumps = tuple(
            (a, c, w) for a, c, w in _parse_point_list(raw["bumps"], width=3)
        )

    try:
        cfg = ExperimentConfig(
            benchmark=benchmark,
            dimension=dimension,
            bounds=bounds,
            kernel_name=kernel_name,
            kernel_params=kernel_params,
            acquisition=raw["acquisition"],
            threshold=float(raw["threshold"]),
            epsilon=float(raw.get("epsilon", 0.1)),
            budget=int(raw["budget"]),
            grid_step=grid_step,
            grid_counts=grid_counts,
            random_candidates=random_candidates,
            min_distance=float(raw.get("min_distance", 0.0)),
            n_priors=int(raw.get("n_priors", 3)),
            prior_points=prior_points,
            prior_mean=float(raw.get("prior_mean", 0.0)),
            seed=int(raw.get("seed", 0)),
            out_dir=raw.get("out_dir"),
            emit_plot_data=_parse_bool(raw.get("emit_plot_data", "false"), "emit_plot_data"),
            checkpoints=tuple(int(v) for v in raw.get("checkpoints", "30,60,90").split(",")),
            hit_radius=float(raw.get("hit_radius", grid_step if grid_step else 0.1)),
            tabulated_path=raw.get("tabulated_path"),
            bumps=bumps,
            jitter_schedule=(
                tuple(float(v) for v in raw["jitter_schedule"].split(","))
                if "jitter_schedule" in raw else None
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.hit_radius > 0:
        raise ConfigError(f"hit_radius must be positive, got {cfg.hit_radius}")
    if min(cfg.checkpoints) < 1:
        raise ConfigError(f"checkpoints must all be at least 1, got {list(cfg.checkpoints)}")
    # validate model/optimizer settings eagerly so bad configs fail before running
    cfg.make_kernel()
    cfg.make_acquisition()
    cfg.make_optimizer()
    return cfg


def parse_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# -- execution ----------------------------------------------------------------


def _execute_single(cfg: ExperimentConfig, spec: BenchmarkSpec, out_dir: Path,
                    family=None, seed=None, echo_extra=None) -> RunTrace:
    out_dir.mkdir(parents=True, exist_ok=True)
    opt_cfg = cfg.make_optimizer(family=family, seed=seed)
    truths = spec.ground_truth if spec.has_truth else None
    trace = run_loop(spec.objective, opt_cfg, truths=truths)
    echo = cfg.echo(**(echo_extra or {}))
    echo["acquisition"] = family or cfg.acquisition
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
        row += [report.first_hits.get(i) for i in range(3)]
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
    write ``report.csv`` rebuilt from their traces by ``report_rows``."""
    out_dir = _out_dir(config_path, cfg, out, command)
    for subdir, run_cfg, family, extra in runs:
        _execute_single(run_cfg, spec, out_dir / subdir, family=family, seed=seed, echo_extra=extra)
    rows = report_rows([out_dir / subdir / "trace.csv" for subdir, *_ in runs])
    traceio.write_report(out_dir / "report.csv", columns, rows, cfg.echo(**echo), kind=command)
    print(f"{_DONE[command]} complete: {out_dir}")
    return 0


def cmd_run(config_path, seed=None, out=None) -> int:
    cfg = parse_config(config_path)
    out_dir = _out_dir(config_path, cfg, out, "run")
    _execute_single(cfg, cfg.make_benchmark(), out_dir, seed=seed)
    print(f"run complete: {out_dir}")
    return 0


def cmd_sweep(config_path, param, values, seed=None, out=None) -> int:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {param!r}")
    cfg = parse_config(config_path)
    runs = []
    for value in values:
        if param in ("alpha", "length_scale"):
            if cfg.kernel_name != "se":
                raise ConfigError(f"sweep over {param!r} requires the se kernel")
            run_cfg = replace(cfg, kernel_params={**cfg.kernel_params, param: value})
        else:
            run_cfg = replace(cfg, **{param: value})
        runs.append((f"{param}={value:g}", run_cfg, None, {"sweep_param": param, "sweep_value": value}))
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
    columns = ["method", "first_hit_max1", "first_hit_max2", "first_hit_max3"]
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
            values = [float(v) for v in args.values.split(",")]
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
