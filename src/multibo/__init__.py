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
    derivative_only,
    evaluate,
    gradient_band_probability,
    joint_ei,
    joint_pi,
    vanilla_ei,
    vanilla_pi,
)
from .gp import GPState, JointGaussian, fit, joint_posterior, value_posterior
from .kernels import Polynomial, SquaredExponential
from .metrics import MetricReport, average_distance, first_hit_steps
from .numerics import CholeskyFactor, cholesky, normal_pdf, q_function, solve
from .objectives import (
    BenchmarkSpec,
    SyntheticBumps,
    TabulatedSurface,
    grid_local_maxima,
    griewank,
    load_tabulated,
    make_benchmark,
    nearest_truth_distance,
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
