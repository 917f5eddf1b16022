"""The three benchmark workloads and the checks on their outputs.

Each workload runs a fixed amount of work in the calling process, times it
from outside the program, and then checks every output against
``reference`` (plain numpy, no multibo) or against properties the method
must have. One operation is one BO step (``grid3d-run``,
``synthetic1d-compare``) or one ask/tell round (``asktell-4d``); an
operation that raises ``MultiboError`` or fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import reference

from multibo import engine, gp, harness, objectives, optimizer
from multibo.acquisition import AcquisitionConfig
from multibo.errors import MultiboError
from multibo.kernels import SquaredExponential

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

DIST_RTOL = 1e-9         # a distance exactly at the minimum stays feasible
VALUE_TOL = 1e-12        # objective values against the reference formulas
ACQ_RTOL = 1e-6          # acquisition against the dense reference: relative ...
ACQ_ATOL = 1e-9          # ... plus absolute
REF_SAMPLE = 2000        # seeded candidates scored by the reference per sampled step


class SetupDone(Exception):
    """Raised by a set-up-only run once the prior fit has returned."""


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int = 0
    setup_s: float = 0.0
    completed: int = 0             # operations that ran to the end
    # (operations, seconds, optimizer ms per operation) for each group of
    # operations: one group per compare command, the whole run otherwise
    groups: list = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    optima_located: int = 0
    avg_distance: float = 0.0
    acq_error: float = 0.0         # largest acquisition error against the reference, relative
    failures: list = dataclasses.field(default_factory=list)   # why operations failed
    problems: list = dataclasses.field(default_factory=list)   # failed whole-run checks

    @property
    def correct(self):
        return not self.problems

    def metrics(self):
        """End-to-end figures with their units. Rates and tails are medians
        over the groups, so one disturbed group does not move them."""
        groups = [g for g in self.groups if g[2]] or [(0, 1.0, [0.0])]   # nothing completed
        rates = [ops / seconds for ops, seconds, _ in groups]
        tails = [float(np.percentile(ms, tail_percentile(len(ms)))) for *_, ms in groups]
        return {
            "setup_s": (self.setup_s, "s"),
            "steps_per_s": (statistics.median(rates), "1/s"),
            "step_ms_p50": (statistics.median(ms for *_, group in groups for ms in group), "ms"),
            "step_ms_tail": (statistics.median(tails), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "optima_located": (self.optima_located, "count"),
            "avg_distance": (self.avg_distance, "x-units"),
        }


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it."""
    return 100.0 * (1.0 - 10.0 / n) if n >= 40 else 50.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StepClock:
    """Objective-call and fit-return times, recorded around the program.

    ``harness.make_benchmark`` is wrapped so the spec it returns calls its
    objective through a timer, and ``CandidateEvaluator.fit`` so the return
    of each (prior) fit is known: that return ends set-up and starts a run's
    first step.
    """

    def __init__(self, stop_after_setup=False):
        self.calls = []       # (start, end) of every objective call
        self.fit_ends = []
        self.stop_after_setup = stop_after_setup
        self._saved = []

    def install(self):
        fit = engine.CandidateEvaluator.fit
        make = harness.make_benchmark

        def timed_fit(evaluator, *args, **kwargs):
            result = fit(evaluator, *args, **kwargs)
            self.fit_ends.append(clock())
            if self.stop_after_setup:
                raise SetupDone
            return result

        def timed_make(*args, **kwargs):
            spec = make(*args, **kwargs)
            return dataclasses.replace(spec, objective=self.timed(spec.objective))

        self._saved = [(engine.CandidateEvaluator, "fit", fit), (harness, "make_benchmark", make)]
        engine.CandidateEvaluator.fit = timed_fit
        harness.make_benchmark = timed_make

    def uninstall(self):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)

    def timed(self, objective):
        calls = self.calls

        def call(x):
            start = clock()
            value = objective(x)
            calls.append((start, clock()))
            return value

        return call

    def run_intervals(self, first, priors, steps):
        """Optimizer time before each BO call of the run whose objective calls
        start at index ``first``: step 1 from the prior fit's return, later
        steps from the previous call's return."""
        prior_end = self.calls[first + priors - 1][1]
        start = min(t for t in self.fit_ends if t > prior_end)
        out = []
        for start_next, end in self.calls[first + priors:first + priors + steps]:
            out.append(1e3 * (start_next - start))
            start = end
        return out


def feasible(point, history, d):
    """At least ``d`` from every earlier point, up to round-off."""
    if d <= 0 or len(history) == 0:
        return True
    dist = np.linalg.norm(np.asarray(history) - point, axis=1)
    return bool(dist.min() >= d * (1.0 - DIST_RTOL))


def verified_maxima(spec, formula, problems):
    """The registry's maxima, each checked with the benchmark's own
    finite-difference certificate."""
    truths = np.asarray(spec.ground_truth, dtype=float)
    for t in truths:
        if not reference.is_local_maximum(formula, t):
            problems.append(f"registered maximum {t.tolist()} fails the finite-difference certificate")
    return truths


def nearest(truths, point):
    return float(np.min(np.linalg.norm(truths - point, axis=1)))


def close(a, b, rtol, atol):
    return abs(a - b) <= atol + rtol * abs(b)


def check_acquisition(family, kernel, threshold, epsilon, prior_mean, jitter,
                      history, values, chosen, recorded, sample, min_distance):
    """The chosen point's acquisition against the dense reference, and no
    feasible point of ``sample`` scoring higher beyond tolerance. Returns a
    problem string or None, and the relative error at the chosen point."""
    sample = np.asarray([p for p in sample if feasible(p, history, min_distance)])
    queries = np.vstack([chosen[None, :], sample])
    mean, cov = reference.joint_posterior(history, values, prior_mean, kernel.alpha,
                                          kernel.length_scale, jitter, queries)
    acq = reference.joint_acquisition(family, mean, cov, threshold, epsilon)
    chosen_ref = float(acq[0])
    error = abs(recorded - chosen_ref) / max(abs(chosen_ref), ACQ_ATOL / ACQ_RTOL)
    if not close(recorded, chosen_ref, ACQ_RTOL, ACQ_ATOL):
        return f"acquisition {recorded!r} differs from the reference {chosen_ref!r}", error
    best = float(acq[1:].max()) if sample.size else -np.inf
    if best > chosen_ref + ACQ_ATOL + ACQ_RTOL * abs(chosen_ref):
        return (f"a feasible candidate scores {best!r} under the reference, "
                f"above the chosen {chosen_ref!r}"), error
    return None, error


def sample_steps(total, count=5):
    return sorted({max(1, round(total * i / (count - 1))) for i in range(count)})


# -- grid3d-run --------------------------------------------------------------------


GRID3D_CONFIG = ROOT / "configs" / "griewank3d_jointei.cfg"


def grid3d_run(steps, seed, t0, setup_only=False, after_measure=lambda: None):
    """``optimizer.run`` on the 3-D Griewank grid config, cut to ``steps``."""
    stepclock = StepClock(stop_after_setup=setup_only)
    stepclock.install()
    try:
        cfg = dataclasses.replace(harness.parse_config(GRID3D_CONFIG), budget=steps, seed=seed)
        spec = cfg.make_benchmark()
        ocfg = cfg.make_optimizer()
        out = Outcome(attempted=steps)
        try:
            trace = optimizer.run(spec.objective, ocfg, truths=spec.ground_truth)
        except SetupDone:
            return stepclock.fit_ends[0] - t0
        except MultiboError as exc:
            trace = None
            out.failures.append(f"run raised {type(exc).__name__}: {exc}")
        t_end = clock()
    finally:
        stepclock.uninstall()
        after_measure()
    out.peak_rss_mb = peak_rss_mb()
    priors = ocfg.prior_points.shape[0]
    bo_calls = len(stepclock.calls) - priors
    out.setup_s = stepclock.fit_ends[0] - t0
    out.completed = 0 if trace is None else len(trace.bo_steps())
    out.groups = [(out.completed, t_end - stepclock.fit_ends[0],
                   stepclock.run_intervals(0, priors, bo_calls))]
    if trace is None:
        out.failed = steps
        return out
    out.failed = steps - out.completed

    problems, failures = out.problems, out.failures
    truths = verified_maxima(objectives.make_benchmark("griewank", dimension=3),
                             reference.griewank, problems)
    bounds = ocfg.bounds
    axes = [np.linspace(lo, hi, int(round((hi - lo) / ocfg.grid_step)) + 1) for lo, hi in bounds]
    points = [s.point for s in trace.steps]
    values = [s.value for s in trace.steps]
    rng = np.random.default_rng([seed, 3])
    checked = set(sample_steps(steps))
    bad_steps = set()
    located = set()
    distances = []
    for i, rec in enumerate(trace.steps):
        p = rec.point
        if not close(rec.value, float(reference.griewank(p)), VALUE_TOL, VALUE_TOL):
            if rec.kind != "bo":
                problems.append(f"prior {p.tolist()}: value {rec.value!r} is not Griewank")
                continue
            failures.append(f"step {rec.step}: value {rec.value!r} is not Griewank")
            bad_steps.add(rec.step)
        if rec.kind != "bo":
            continue
        on_grid = all(np.min(np.abs(ax - c)) <= 1e-9 for ax, c in zip(axes, p))
        if not (on_grid and np.all(p >= bounds[:, 0]) and np.all(p <= bounds[:, 1])):
            failures.append(f"step {rec.step}: {p.tolist()} is not a grid candidate")
            bad_steps.add(rec.step)
        if not feasible(p, points[:i], ocfg.min_distance):
            failures.append(f"step {rec.step}: closer than min_distance to an earlier point")
            bad_steps.add(rec.step)
        d = nearest(truths, p)
        distances.append(d)
        if not close(rec.distance, d, 1e-9, 1e-12):
            failures.append(f"step {rec.step}: distance {rec.distance!r} differs from {d!r}")
            bad_steps.add(rec.step)
        if rec.flagged and d <= cfg.hit_radius:
            located.add(int(np.argmin(np.linalg.norm(truths - p, axis=1))))
        if rec.step in checked:
            sample = np.column_stack([ax[rng.integers(0, len(ax), REF_SAMPLE)] for ax in axes])
            acq = ocfg.acquisition
            problem, error = check_acquisition(
                acq.family, ocfg.kernel, acq.threshold, acq.epsilon, ocfg.prior_mean,
                trace.jitter, np.asarray(points[:i]), np.asarray(values[:i]), p,
                rec.acquisition, sample, ocfg.min_distance)
            out.acq_error = max(out.acq_error, error)
            if problem:
                failures.append(f"step {rec.step}: {problem}")
                bad_steps.add(rec.step)
    out.failed += len(bad_steps)
    out.optima_located = len(located)
    out.avg_distance = float(np.mean(distances))
    if not located:
        problems.append("no certified maximum located within the budget")
    return out


# -- synthetic1d-compare --------------------------------------------------------------


COMPARE_CONFIG = ROOT / "configs" / "synthetic1d_compare.cfg"
FAMILIES = ("joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei")


def read_rows(path):
    """Rows of a multibo CSV file, '#' comment lines skipped, as dicts."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#") and line.strip()]
    return list(csv.DictReader(lines))


def synthetic1d_compare(commands, seed, t0, setup_only=False, after_measure=lambda: None):
    """``multibo compare`` through ``harness.main``, once per seed of the list
    ``commands * seed ... commands * seed + commands - 1``."""
    cfg = harness.parse_config(COMPARE_CONFIG)
    seeds = [commands * seed + i for i in range(commands)]
    runs_per_command = len(FAMILIES)
    steps_per_command = runs_per_command * cfg.budget
    out_root = OUT / "runs" / f"synthetic1d-compare-{seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    stepclock = StepClock(stop_after_setup=setup_only)
    stepclock.install()
    out = Outcome(attempted=commands * steps_per_command)
    done = []        # (seed, first objective call index, start, end) of commands that succeeded
    try:
        for s in seeds:
            first, start = len(stepclock.calls), clock()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = harness.main(["compare", str(COMPARE_CONFIG), "--seed", str(s),
                                       "--out", str(out_root / str(s))])
            except SetupDone:
                shutil.rmtree(out_root, ignore_errors=True)
                return stepclock.fit_ends[0] - t0
            if rc == 0:
                done.append((s, first, start, clock()))
            else:
                out.failed += steps_per_command
                out.failures.append(f"compare --seed {s} exited with {rc}")
    finally:
        stepclock.uninstall()
        after_measure()
    out.peak_rss_mb = peak_rss_mb()
    out.setup_s = stepclock.fit_ends[0] - t0
    priors = cfg.n_priors
    for _, first, start, end in done:
        intervals = []
        for r in range(runs_per_command):
            intervals += stepclock.run_intervals(first + r * (priors + cfg.budget), priors, cfg.budget)
        # the first command's time counts from the end of set-up
        out.groups.append((steps_per_command, end - max(start, stepclock.fit_ends[0]), intervals))
    out.completed = len(done) * steps_per_command

    problems, failures = out.problems, out.failures
    spec = objectives.make_benchmark("synthetic1d")
    truths = verified_maxima(spec, reference.bumps, problems)
    by_value = truths[np.argsort(-reference.bumps(truths))]
    avg90 = {f: [] for f in FAMILIES}
    run_means = []
    for s, *_ in done:
        command_dir = out_root / str(s)
        report = {row["method"]: row for row in read_rows(command_dir / "report.csv")}
        for family in FAMILIES:
            bad_steps, failed_run = set(), False
            rows = read_rows(command_dir / family / "trace.csv")
            points = [np.array([float(r["x1"])]) for r in rows]
            bo = [(i, r) for i, r in enumerate(rows) if r["kind"] == "bo"]
            if len(bo) != cfg.budget:
                failures.append(f"seed {s} {family}: {len(bo)} BO steps, expected {cfg.budget}")
                failed_run = True
            dists, hits, located = [], {}, set()
            for i, r in enumerate(rows):
                p, step = points[i], int(r["step"])
                ok = close(float(r["value"]), float(reference.bumps(p)), VALUE_TOL, VALUE_TOL)
                ok = ok and 0.0 <= p[0] <= 1.0 and feasible(p, points[:i], cfg.min_distance)
                if r["kind"] != "bo":
                    if not ok:
                        problems.append(f"seed {s} {family}: prior {p.tolist()} is wrong or too close")
                    continue
                if not ok:
                    failures.append(f"seed {s} {family} step {step}: value, bounds or min_distance")
                    bad_steps.add(step)
                d = nearest(truths, p)
                dists.append(d)
                if not close(float(r["distance"]), d, 1e-9, 1e-12):
                    failures.append(f"seed {s} {family} step {step}: distance column differs")
                    bad_steps.add(step)
                for j, t in enumerate(by_value[:3]):
                    if j not in hits and abs(p[0] - t[0]) <= cfg.hit_radius:
                        hits[j] = step
                if r["flagged"] == "1" and d <= cfg.hit_radius:
                    located.add(int(np.argmin(np.abs(truths[:, 0] - p[0]))))
            row = report.get(family)
            expected_hits = [str(hits[j]) if j in hits else "" for j in range(3)]
            got_hits = [row[f"first_hit_max{j + 1}"] for j in range(3)] if row else None
            if got_hits != expected_hits:
                failures.append(f"seed {s} {family}: report first hits {got_hits} != {expected_hits}")
                failed_run = True
            for c in cfg.checkpoints:
                want = float(np.mean(dists[:c]))
                if row is None or not close(float(row[f"avg_distance_{c}"]), want, 1e-9, 1e-12):
                    failures.append(f"seed {s} {family}: report avg_distance_{c} differs from {want!r}")
                    failed_run = True
            out.failed += cfg.budget if failed_run else len(bad_steps)
            out.optima_located += len(located)
            avg90[family].append(float(np.mean(dists[:90])))
            run_means.append(float(np.mean(dists)))
    out.avg_distance = float(np.mean(run_means))
    med = {f: statistics.median(v) for f, v in avg90.items() if v}
    if len(med) == len(FAMILIES):
        for joint, vanilla in (("joint_ei", "vanilla_ei"), ("joint_pi", "vanilla_pi")):
            if not med[joint] < med[vanilla]:
                problems.append(f"median avg distance at step 90: {joint} {med[joint]:.4f} "
                                f"is not below {vanilla} {med[vanilla]:.4f}")
    shutil.rmtree(out_root, ignore_errors=True)
    return out


# -- asktell-4d -----------------------------------------------------------------------


ASKTELL = dict(
    cells=(20, 20, 7, 7),
    bounds=((-5.0, 5.0), (-5.0, 5.0), (-1.0, 1.0), (-1.0, 1.0)),
    kernel=SquaredExponential(alpha=10.0, length_scale=1.0),
    acquisition=AcquisitionConfig("joint_ei", threshold=1.8, epsilon=0.3),
    min_distance=0.3,
    hit_radius=0.5,
    prior_mean=2.0,
    # one prior in each of the four basins, as in the 3-D config
    priors=((3.05, 0.12, -0.08, 0.05), (-3.22, 0.15, 0.11, -0.06),
            (0.11, 4.32, 0.07, 0.04), (-0.14, -4.28, -0.12, 0.09)),
)


def asktell_4d(rounds, seed, t0, setup_only=False, after_measure=lambda: None):
    """Ask/tell on 4-D Griewank: ``gp.fit`` on the history and
    ``optimizer.propose_next`` over a seeded candidate set each round; the
    benchmark evaluates the objective itself."""
    a = ASKTELL
    spec = objectives.make_benchmark("griewank", dimension=4)
    bounds = np.asarray(a["bounds"])
    # one uniform point in each cell of a fixed lattice over the box
    cells = np.asarray(a["cells"])
    lattice = np.stack(np.meshgrid(*[np.arange(c) for c in cells], indexing="ij"), -1).reshape(-1, 4)
    u = np.random.default_rng(seed).random(lattice.shape)
    cands = bounds[:, 0] + (lattice + u) / cells * (bounds[:, 1] - bounds[:, 0])
    cfg = optimizer.OptimizerConfig(
        bounds=bounds, kernel=a["kernel"], acquisition=a["acquisition"], budget=rounds,
        min_distance=a["min_distance"], random_candidates=len(cands),
        prior_points=np.asarray(a["priors"]), prior_mean=a["prior_mean"],
    )
    X = [np.asarray(p) for p in cfg.prior_points]
    y = [float(spec.objective(p)) for p in X]
    t_first = clock()
    if setup_only:
        return t_first - t0
    out = Outcome(attempted=rounds, setup_s=t_first - t0)
    intervals = []
    asks = []        # (index, acquisition, jitter) per completed round
    for r in range(rounds):
        start = clock()
        try:
            state = gp.fit(np.asarray(X), np.asarray(y), cfg.prior_mean, cfg.kernel,
                           cfg.jitter_schedule)
            point, idx, acq = optimizer.propose_next(state, cands, np.asarray(X), cfg)
        except MultiboError as exc:
            out.failed += rounds - r
            out.failures.append(f"round {r + 1} raised {type(exc).__name__}: {exc}")
            break
        intervals.append(1e3 * (clock() - start))
        X.append(np.asarray(point, dtype=float))
        y.append(float(spec.objective(point)))
        asks.append((idx, acq, state.factor.jitter))
    out.completed = len(asks)
    out.groups = [(out.completed, clock() - t_first, intervals)]
    after_measure()
    out.peak_rss_mb = peak_rss_mb()

    failures = out.failures
    truths = verified_maxima(spec, reference.griewank, out.problems)
    acq_cfg, kern = cfg.acquisition, cfg.kernel
    priors = len(cfg.prior_points)
    checked = set(sample_steps(rounds))
    sample_rng = np.random.default_rng([seed, 4])
    distances, located, bad = [], set(), set()
    for r, (idx, acq, jitter) in enumerate(asks, start=1):
        i = priors + r - 1
        p, value = X[i], y[i]
        history, hist_values = np.asarray(X[:i]), np.asarray(y[:i])
        if not (np.array_equal(p, cands[idx]) and np.all(p >= bounds[:, 0]) and np.all(p <= bounds[:, 1])):
            failures.append(f"round {r}: proposal is not candidate {idx}")
            bad.add(r)
        if not feasible(p, history, cfg.min_distance):
            failures.append(f"round {r}: closer than min_distance to an earlier point")
            bad.add(r)
        if not close(value, float(reference.griewank(p)), VALUE_TOL, VALUE_TOL):
            failures.append(f"round {r}: value is not Griewank")
            bad.add(r)
        d = nearest(truths, p)
        distances.append(d)
        # flag as optimizer.run does: threshold reached and a posterior-mean
        # gradient (after telling the value) inside the band
        mean, _ = reference.joint_posterior(X[:i + 1], y[:i + 1], cfg.prior_mean, kern.alpha,
                                            kern.length_scale, jitter, p[None, :])
        flagged = value >= acq_cfg.threshold and np.linalg.norm(mean[0, 1:]) <= acq_cfg.epsilon
        if flagged and d <= a["hit_radius"]:
            located.add(int(np.argmin(np.linalg.norm(truths - p, axis=1))))
        if r in checked:
            sample = cands[sample_rng.integers(0, len(cands), REF_SAMPLE)]
            problem, error = check_acquisition(
                acq_cfg.family, kern, acq_cfg.threshold, acq_cfg.epsilon, cfg.prior_mean,
                jitter, history, hist_values, p, acq, sample, cfg.min_distance)
            out.acq_error = max(out.acq_error, error)
            if problem:
                failures.append(f"round {r}: {problem}")
                bad.add(r)
    out.failed += len(bad)
    out.optima_located = len(located)
    out.avg_distance = float(np.mean(distances)) if distances else 0.0
    return out


WORKLOADS = {
    "grid3d-run": grid3d_run,
    "synthetic1d-compare": synthetic1d_compare,
    "asktell-4d": asktell_4d,
}
