"""multibo benchmark: one command, three fixed-work workloads.

    python3 bench/run.py                                  # every workload, each in its own process
    python3 bench/run.py --workload grid3d-run --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload does a fixed amount of work, sized from ``--seconds`` by
nominal per-operation rates (never by the clock), so its quality figures
repeat exactly for a given seed. With ``--trace 0`` the last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and every end-to-end metric; with ``--trace 1`` the run wraps
the program's modules in spans and reports the per-layer metrics instead,
including the tracing overhead against an untraced run of the same seed.
"""

import time

T0 = time.perf_counter()   # set-up is timed from here

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# nominal operations per second on the reference machine, and the least
# work a run does: BO steps, compare commands, ask/tell rounds
WORK = {
    "grid3d-run": (1.0, 40),
    "synthetic1d-compare": (8.0 / 3.0, 20),
    "asktell-4d": (4.0, 40),
}
SETUP_RUNS = 5   # set-up is measured in this many fresh processes (this one included)


def operations(workload, seconds):
    rate, least = WORK[workload]
    return max(least, math.ceil(seconds * rate))


def child(args, workload, *extra):
    """Run this script for one workload in a fresh process; its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_info():
    import ctypes

    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{name.get('name')} {name.get('version')}"}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return info


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        **blas_info(),
    }


# layer counts that must be non-zero wherever a workload has to reach the layer
_COMMON = ("engine.init.ms_total", "engine.fit.calls", "engine.acquisition_values.ms_p50",
           "kernels.eval_matrix.calls", "kernels.grad_tensor.ms_total",
           "kernels.joint_blocks_batch.ms_total", "numerics.cholesky.calls",
           "objectives.make_benchmark.calls", "objectives.objective.calls")
_RUN = ("engine.append.calls", "engine.gradient_mean_at.ms_p50",
        "optimizer.generate_candidates.ms_total", "optimizer.run.self_ms_per_step",
        "harness.parse_config.ms_total")
REQUIRED_LAYERS = {
    "grid3d-run": _COMMON + _RUN,
    "synthetic1d-compare": _COMMON + _RUN + (
        "metrics.metric_report.ms_total", "traceio.write.ms_total",
        "traceio.read_trace.ms_total", "traceio.bytes_written",
        "harness.compare_report_rows.ms_total"),
    "asktell-4d": _COMMON + ("gp.fit.ms_p50", "optimizer.propose_next.self_ms_p50"),
}


def run_workload(args):
    import workloads

    ops = operations(args.workload, args.seconds)
    fn = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        print(json.dumps({"setup_s": fn(ops, args.seed, T0, setup_only=True)}))
        return 0

    tracer = None
    if args.trace:
        untraced = child(args, args.workload, "--trace", "0", "--single-setup")
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        out = fn(ops, args.seed, T0, after_measure=tracer.uninstall)
    else:
        out = fn(ops, args.seed, T0)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "operations": ops, **environment()}
    if tracer is None:
        setups = [out.setup_s]
        if not args.single_setup:
            setups += [child(args, args.workload, "--setup-only")["setup_s"]
                       for _ in range(SETUP_RUNS - 1)]
        out.setup_s = statistics.median(setups)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics().items()}
        group_sizes = sorted({len(ms) for *_, ms in out.groups})
        info.update(setup_samples_s=setups, step_groups=len(out.groups),
                    steps_per_group=group_sizes,
                    tail_percentile=[workloads.tail_percentile(n) for n in group_sizes])
        correct = out.correct
    else:
        layers = tracer.layer_metrics(out.completed)
        traced_rate = out.metrics()["steps_per_s"][0]
        untraced_rate = untraced["metrics"]["steps_per_s"]["value"]
        layers["trace.overhead_steps_per_s"] = traced_rate - untraced_rate
        metrics = {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
                   for name, value in layers.items()}
        spans = workloads.OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        span_file = spans / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        unreached = [name for name in REQUIRED_LAYERS[args.workload] if not layers[name]]
        out.problems += [f"layer count {name} is zero" for name in unreached]
        info.update(traced_steps_per_s=traced_rate, untraced_steps_per_s=untraced_rate,
                    spans=str(span_file.relative_to(ROOT)), span_count=len(tracer.spans))
        correct = out.correct and untraced["correct"]
    info.update(acquisition_rel_error=out.acq_error, problems=out.problems,
                failures=out.failures[:20])
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    rows = []
    for workload in WORK:
        result = child(args, workload, "--trace", str(args.trace))
        rows.append((workload, result))
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{w}.{name}": m for w, r in rows for name, m in r["metrics"].items()},
    }))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORK])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--single-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    missing = [p for p in (SRC / "multibo", ROOT / "configs") if not p.is_dir()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a multibo checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import multibo

    if Path(multibo.__file__).resolve().parent != (SRC / "multibo").resolve():
        print(f"error: multibo imported from {multibo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
