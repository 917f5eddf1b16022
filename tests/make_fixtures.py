"""Regenerate the Monte-Carlo acquisition fixtures.

Builds 20 joint posteriors from small random GP fits (the regime the
optimizer actually queries: narrow gradient band, epsilon between 5% and
30% of the smallest gradient standard deviation) and freezes 10^6-sample
Monte-Carlo estimates of the joint probability, the joint expected
improvement, and the diagonal band probability.

Run from the repository root:  python tests/make_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from multibo import acquisition, gp
from multibo.kernels import Polynomial, SquaredExponential

SAMPLES = 1_000_000
MASTER_SEED = 20240
N_CASES = 20

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "mc_acquisition.csv"


def make_cases():
    rng = np.random.default_rng(MASTER_SEED)
    cases = []
    attempt = 0
    while len(cases) < N_CASES:
        attempt += 1
        use_poly = attempt % 5 == 0
        # quadratic-kernel posteriors in 1-D are rank-1 (value pinned by the
        # gradient), so polynomial cases need at least two dimensions
        n = int(rng.integers(2, 4)) if use_poly else int(rng.integers(1, 4))
        k = int(rng.integers(3, 8))
        if use_poly:
            kern = Polynomial(alpha_bar=float(rng.uniform(0.3, 1.5)))
        else:
            kern = SquaredExponential(
                alpha=float(rng.uniform(0.5, 3.0)),
                length_scale=float(rng.uniform(0.3, 1.0)),
            )
        X = rng.uniform(-2, 2, (k, n))
        f = 1.5 * rng.standard_normal(k)
        state = gp.fit(X, f, prior_mean=0.0, kernel=kern)
        x = rng.uniform(-2, 2, n)
        j = gp.joint_posterior(state, x)
        s_min = float(np.sqrt(np.maximum(np.diag(j.sigma_yy), 0.0)).min())
        if s_min < 1e-3:
            continue
        cond = acquisition.condition_value_on_gradient(j, np.zeros(n))
        if cond.std < 0.05:
            continue
        epsilon = float(rng.uniform(0.05, 0.3)) * s_min
        threshold = float(rng.uniform(-1.0, 1.0))
        cases.append((j, threshold, epsilon))
    return cases


def main():
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, (j, threshold, epsilon) in enumerate(make_cases()):
        seed = MASTER_SEED + idx
        pi = oracles.mc_joint_probability(j, threshold, epsilon, SAMPLES, seed)
        ei = oracles.mc_joint_ei(j, threshold, epsilon, SAMPLES, seed + 1000)
        band = oracles.mc_band_probability_diagonal(j, epsilon, SAMPLES, seed + 2000)
        n = j.dim
        rows.append([
            idx, n,
            ";".join(repr(float(v)) for v in j.mean),
            ";".join(repr(float(v)) for v in j.cov.ravel()),
            repr(threshold), repr(epsilon),
            repr(pi.value), repr(pi.stderr),
            repr(ei.value), repr(ei.stderr),
            repr(band.value), repr(band.stderr),
        ])
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        fh.write(f"# generated by tests/make_fixtures.py, master seed {MASTER_SEED}\n")
        fh.write(f"# {SAMPLES} Monte-Carlo samples per estimate\n")
        fh.write("case,n,mean,cov,threshold,epsilon,"
                 "pi_mc,pi_se,ei_mc,ei_se,band_mc,band_se\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"wrote {len(rows)} fixtures to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
