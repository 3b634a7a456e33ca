"""SVM classification of sampled curves with functional kernels.

The public names are imported from their modules on first use (PEP 562),
so that importing the package, or one command of the CLI, loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    **dict.fromkeys([
        "SamplingGrid", "SampledFunction", "LabeledDataset",
        "inner_product", "norm", "center", "normalize", "spline_derivative",
    ], "functions"),
    **dict.fromkeys(["BasisSpec", "CoefficientVector", "project", "reconstruct"], "basis"),
    **dict.fromkeys([
        "BaseKernel", "Transform", "FunctionalKernel", "kernel_eval", "gram_matrix",
    ], "kernels"),
    **dict.fromkeys([
        "DualSolution", "SvmModel", "solve_dual", "train_svm", "decision_value", "predict",
    ], "solver"),
    **dict.fromkeys([
        "Candidate", "CandidateGrid", "split_sample", "empirical_error", "select",
        "validate_grid",
    ], "selection"),
    **dict.fromkeys([
        "EvaluationReport", "run_leave_one_out", "run_fixed_split", "run_repeated_splits",
        "paired_t_test", "generate_synthetic",
    ], "evaluation"),
    **dict.fromkeys(["DatasetDescriptor", "load_dataset", "write_csv"], "datasets"),
    **dict.fromkeys(["save_model", "load_model"], "persistence"),
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
