"""Exact single- and multi-task Gaussian process regression.

Multi-task kernels couple tasks through sums of task-covariance matrices
paired with scalar input kernels; hyperparameters are learned by Adam ascent
on the log marginal likelihood. A benchmark harness compares the multi-task
model against a single-task baseline on correlated Forrester curves.
"""

__version__ = "0.1.0"

from .benchmark import (
    ForresterParams,
    StudyConfig,
    calibrate_auxiliary,
    forrester,
    pearson_correlation,
    percent_improvement,
    rmse,
    run_study,
)
from .coregionalization import (
    CoregionalizationTerm,
    MultiTaskKernelSpec,
    assemble_joint_covariance,
    build_B,
)
from .data import MultiTaskDataset, read_task_csv, task_scaling
from .errors import (
    CalibrationError,
    DomainError,
    IllConditionedKernelError,
    MTGPError,
    NonFiniteError,
    ShapeError,
    TrainingFailedError,
    UndefinedCorrelationError,
    ValidationError,
)
from .gp import gp_fit, gp_log_marginal_likelihood
from .kernels import (
    KERNEL_KINDS,
    MATERN52,
    SQUARED_EXPONENTIAL,
    ScalarKernelSpec,
    kernel_matrix,
)
from .multitask import (
    MTGPModel,
    PosteriorPrediction,
    mtgp_fit,
    mtgp_log_marginal_likelihood,
    mtgp_predict,
)
from .selfcheck import run_self_checks
from .training import FitJob, MTGPFamily, TrainConfig, check_gradients, train
