"""SVM classification of sampled curves with functional kernels."""

__version__ = "0.1.0"

from .functions import (
    LabeledDataset,
    SampledFunction,
    SamplingGrid,
    center,
    inner_product,
    norm,
    normalize,
    spline_derivative,
)
from .basis import BasisSpec, CoefficientVector, project, reconstruct
from .kernels import BaseKernel, FunctionalKernel, Transform, gram_matrix, kernel_eval
from .solver import DualSolution, SvmModel, decision_value, predict, solve_dual, train_svm
from .selection import Candidate, CandidateGrid, empirical_error, select, split_sample, validate_grid
from .evaluation import (
    EvaluationReport,
    generate_synthetic,
    paired_t_test,
    run_fixed_split,
    run_leave_one_out,
    run_repeated_splits,
)
from .datasets import DatasetDescriptor, load_dataset, write_csv
from .persistence import load_model, save_model

__all__ = [
    "SamplingGrid", "SampledFunction", "LabeledDataset",
    "inner_product", "norm", "center", "normalize", "spline_derivative",
    "BasisSpec", "CoefficientVector", "project", "reconstruct",
    "BaseKernel", "Transform", "FunctionalKernel", "kernel_eval", "gram_matrix",
    "DualSolution", "SvmModel", "solve_dual", "train_svm", "decision_value", "predict",
    "Candidate", "CandidateGrid", "split_sample", "empirical_error", "select",
    "validate_grid",
    "EvaluationReport", "run_leave_one_out", "run_fixed_split", "run_repeated_splits",
    "paired_t_test", "generate_synthetic",
    "DatasetDescriptor", "load_dataset", "write_csv",
    "save_model", "load_model",
]
