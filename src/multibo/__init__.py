"""Multimodal Bayesian optimization.

Finds *sets* of local and global maxima of expensive black-box functions by
maintaining the joint Gaussian posterior of the objective value and its
gradient, and maximizing acquisition functions that reward both improvement
over a threshold and a near-zero posterior gradient.
"""

from .acquisition import (
    AcquisitionConfig,
    ConditionalGaussian,
    condition_value_on_gradient,
    evaluate,
    gradient_band_probability,
)
from .gp import GPState, JointGaussian, fit, joint_posterior, value_posterior
from .kernels import Polynomial, SquaredExponential
from .metrics import MetricReport, metric_report
from .numerics import CholeskyFactor, cholesky, solve
from .objectives import (
    BenchmarkSpec,
    SyntheticBumps,
    TabulatedSurface,
    grid_local_maxima,
    griewank,
    load_tabulated,
    make_benchmark,
    shubert,
    synthetic_benchmark,
)
from .optimizer import (
    OptimizerConfig,
    RunTrace,
    StepRecord,
    generate_candidates,
    propose_next,
    run,
)

__version__ = "0.1.0"
