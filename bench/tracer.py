"""Spans recorded from outside multibo, around the calls into each module.

``Tracer.install`` replaces public functions and methods of the multibo
modules with wrappers, each installed where its caller looks the name up
(``harness`` imports ``make_benchmark`` and ``run`` by name, the engine
calls ``numerics.cholesky`` through the module, and so on). A span records
its name, start, end and the index of the span that was open when it
started. Spans stay in memory; ``write`` saves them when the run ends and
``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time

import numpy as np

_clock = time.perf_counter

# Every per-layer metric: name -> unit. Kept in step with BENCHMARK.json.
LAYER_UNITS = {
    "engine.acquisition_values.ms_p50": "ms",
    "engine.append.ms_p50": "ms",
    "engine.append.calls": "count",
    "engine.fit.calls": "count",
    "engine.fit.ms_total": "ms",
    "engine.refits_per_append": "ratio",
    "engine.init.ms_total": "ms",
    "engine.gradient_mean_at.ms_p50": "ms",
    "engine.cache_mb": "MB",
    "engine.bytes_per_step": "bytes",
    "optimizer.generate_candidates.ms_total": "ms",
    "optimizer.run.self_ms_per_step": "ms",
    "optimizer.propose_next.self_ms_p50": "ms",
    "gp.fit.ms_p50": "ms",
    "kernels.grad_tensor.ms_total": "ms",
    "kernels.eval_matrix.calls": "count",
    "kernels.eval_matrix.ms_total": "ms",
    "kernels.joint_blocks_batch.ms_total": "ms",
    "numerics.cholesky.calls": "count",
    "numerics.cholesky.ms_total": "ms",
    "numerics.jitter_escalations": "count",
    "objectives.make_benchmark.calls": "count",
    "objectives.make_benchmark.ms_total": "ms",
    "objectives.objective.calls": "count",
    "metrics.metric_report.ms_total": "ms",
    "traceio.write.ms_total": "ms",
    "traceio.read_trace.ms_total": "ms",
    "traceio.bytes_written": "bytes",
    "harness.parse_config.ms_total": "ms",
    "harness.compare_report_rows.ms_total": "ms",
    "trace.overhead_steps_per_s": "1/s",
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self._saved = []
        self.cache_bytes = []    # evaluator array bytes, one entry per construction
        self.append_bytes = []   # computed bytes per append call
        self.acq_bytes = []      # computed bytes per acquisition_values call
        self.escalations = 0
        self.bytes_written = 0

    # -- spans ---------------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, _clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = _clock()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))
        return getattr(owner, attr)

    def install(self):
        from multibo import engine, gp, harness, kernels, metrics, numerics
        from multibo import objectives, optimizer, traceio

        cls = engine.CandidateEvaluator
        self._patch(cls, "__init__", "engine.init", after=self._after_init)
        self._patch(cls, "fit", "engine.fit")
        self._patch(cls, "append", "engine.append", after=self._after_append)
        self._patch(cls, "acquisition_values", "engine.acquisition_values",
                    after=self._after_acquisition)
        self._patch(cls, "gradient_mean_at", "engine.gradient_mean_at")

        wrapped_run = self._patch(optimizer, "run", "optimizer.run")
        self._saved.append((harness, "run_loop", harness.run_loop))
        harness.run_loop = wrapped_run
        self._patch(optimizer, "generate_candidates", "optimizer.generate_candidates")
        self._patch(optimizer, "propose_next", "optimizer.propose_next")

        self._patch(gp, "fit", "gp.fit")
        for attr in ("eval_matrix", "grad_tensor", "joint_blocks_batch"):
            self._patch(kernels.SquaredExponential, attr, f"kernels.{attr}")
        self._patch(numerics, "cholesky", "numerics.cholesky", after=self._after_cholesky)

        wrapped_make = self._patch(objectives, "make_benchmark", "objectives.make_benchmark")
        traced_make = self._traced_objective_factory(wrapped_make)
        objectives.make_benchmark = traced_make
        self._saved.append((harness, "make_benchmark", harness.make_benchmark))
        harness.make_benchmark = traced_make

        self._patch(metrics, "metric_report", "metrics.metric_report")
        for attr in ("write_trace", "write_summary", "write_report"):
            self._patch(traceio, attr, "traceio.write", after=self._after_write)
        self._patch(traceio, "read_trace", "traceio.read_trace")
        self._patch(harness, "parse_config", "harness.parse_config")
        self._patch(harness, "compare_report_rows", "harness.compare_report_rows")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _traced_objective_factory(self, make):
        """make_benchmark whose returned spec calls its objective through a span."""
        def traced_make(*args, **kwargs):
            spec = make(*args, **kwargs)
            objective = self._wrap("objectives.objective", spec.objective)
            return dataclasses.replace(spec, objective=objective)
        return traced_make

    # -- counters computed at the boundaries --------------------------------------

    def _after_init(self, _result, evaluator, *args, **kwargs):
        self.cache_bytes.append(sum(
            v.nbytes for v in vars(evaluator).values() if isinstance(v, np.ndarray)
        ))

    @staticmethod
    def _packed(evaluator):
        n = evaluator.n
        return (1 + n) * (2 + n) // 2

    def _after_append(self, _result, evaluator, *args, **kwargs):
        # GEMM reads k cross rows (the new one included), the new row is
        # written once, and every packed covariance row is read and written
        rows = evaluator.n_samples + 1 + 2 * self._packed(evaluator)
        self.append_bytes.append(8 * evaluator.cands.shape[0] * rows)

    def _after_acquisition(self, _result, evaluator, *args, **kwargs):
        self.acq_bytes.append(8 * evaluator.cands.shape[0] * self._packed(evaluator))

    def _after_cholesky(self, factor, m, jitter_schedule=None, *args, **kwargs):
        from multibo import numerics

        schedule = numerics.DEFAULT_JITTER_SCHEDULE if jitter_schedule is None else jitter_schedule
        if factor.jitter > tuple(schedule)[0]:
            self.escalations += 1

    def _after_write(self, _result, path, *args, **kwargs):
        self.bytes_written += os.path.getsize(path)

    # -- output ----------------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self, bo_steps):
        """Per-layer figures from the recorded spans; ``bo_steps`` is the number
        of optimizer steps the run completed."""
        durations, selfs = {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        refits = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            ms = 1e3 * (end - start)
            durations.setdefault(name, []).append(ms)
            selfs.setdefault(name, []).append(ms - 1e3 * child_time[i])
            if name == "engine.fit" and parent is not None and self.spans[parent][0] == "engine.append":
                refits += 1

        def calls(name):
            return len(durations.get(name, ()))

        def total(name):
            return float(sum(durations.get(name, ())))

        def p50(values):
            return float(statistics.median(values)) if values else 0.0

        appends = calls("engine.append")
        return {
            "engine.acquisition_values.ms_p50": p50(durations.get("engine.acquisition_values", [])),
            "engine.append.ms_p50": p50(durations.get("engine.append", [])),
            "engine.append.calls": appends,
            "engine.fit.calls": calls("engine.fit"),
            "engine.fit.ms_total": total("engine.fit"),
            "engine.refits_per_append": refits / appends if appends else 0.0,
            "engine.init.ms_total": total("engine.init"),
            "engine.gradient_mean_at.ms_p50": p50(durations.get("engine.gradient_mean_at", [])),
            "engine.cache_mb": max(self.cache_bytes, default=0) / 2**20,
            "engine.bytes_per_step": p50(self.append_bytes) + p50(self.acq_bytes),
            "optimizer.generate_candidates.ms_total": total("optimizer.generate_candidates"),
            "optimizer.run.self_ms_per_step": (
                float(sum(selfs.get("optimizer.run", ()))) / bo_steps
                if calls("optimizer.run") and bo_steps else 0.0
            ),
            "optimizer.propose_next.self_ms_p50": p50(selfs.get("optimizer.propose_next", [])),
            "gp.fit.ms_p50": p50(durations.get("gp.fit", [])),
            "kernels.grad_tensor.ms_total": total("kernels.grad_tensor"),
            "kernels.eval_matrix.calls": calls("kernels.eval_matrix"),
            "kernels.eval_matrix.ms_total": total("kernels.eval_matrix"),
            "kernels.joint_blocks_batch.ms_total": total("kernels.joint_blocks_batch"),
            "numerics.cholesky.calls": calls("numerics.cholesky"),
            "numerics.cholesky.ms_total": total("numerics.cholesky"),
            "numerics.jitter_escalations": self.escalations,
            "objectives.make_benchmark.calls": calls("objectives.make_benchmark"),
            "objectives.make_benchmark.ms_total": total("objectives.make_benchmark"),
            "objectives.objective.calls": calls("objectives.objective"),
            "metrics.metric_report.ms_total": total("metrics.metric_report"),
            "traceio.write.ms_total": total("traceio.write"),
            "traceio.read_trace.ms_total": total("traceio.read_trace"),
            "traceio.bytes_written": self.bytes_written,
            "harness.parse_config.ms_total": total("harness.parse_config"),
            "harness.compare_report_rows.ms_total": total("harness.compare_report_rows"),
        }
