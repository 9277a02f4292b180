"""Multivariate stock-index forecasting on a learned inter-series graph.

The package bundles a small taped autodiff core, a graph-structure learner,
a graph-and-time convolutional forecaster with classic baselines, a
reproducible data pipeline, and evaluation/analysis tooling behind a CLI.

The top level exports the names README.md documents and the error types;
everything else is reached through its module, e.g. `marketgraph.data.make_windows`.
Importing the package loads no submodule: each exported name and each
submodule is imported on first use (PEP 562), so a caller pays only for
the modules it uses.
"""

__version__ = "0.1.0"

# The submodule that defines each exported name.
_HOME = {name: module for module, names in (
    ("autodiff", ("Tape", "Tensor", "grad_check", "grad_check_params")),
    ("baselines", ("GruModel", "PersistenceModel", "TcnModel", "fit_ar_ensemble", "fit_var_mlp")),
    ("data", ("TimeSeriesFrame", "WindowSpec", "load_csv", "run_pipeline")),
    ("errors", ("ConfigError", "DataError", "DomainError", "MarketGraphError", "ShapeError",
                "TapeError", "TrainingDiverged")),
    ("graph", ("out_degree", "rank_influence")),
    ("metrics", ("dtw_distance", "dtw_matrix", "mae", "mape", "rmse", "rse", "spearman",
                 "spearman_matrix")),
    ("mtgnn", ("MtgnnConfig", "MtgnnModel")),
    ("optim", ("Adam",)),
    ("rng", ("Rng",)),
    ("synthetic", ("edge_precision",)),
    ("training", ("TrainConfig", "evaluate", "run_comparison", "train")),
) for name in names}
_SUBMODULES = ("autodiff", "baselines", "charts", "checkpoint", "cli", "data", "errors", "graph",
               "metrics", "mtgnn", "optim", "rng", "synthetic", "training")

__all__ = [
    "Adam", "ConfigError", "DataError", "DomainError", "GruModel",
    "MarketGraphError", "MtgnnConfig", "MtgnnModel", "PersistenceModel", "Rng",
    "ShapeError", "Tape", "TapeError", "TcnModel", "Tensor", "TimeSeriesFrame",
    "TrainConfig", "TrainingDiverged", "WindowSpec", "dtw_distance",
    "dtw_matrix", "edge_precision", "evaluate", "fit_ar_ensemble",
    "fit_var_mlp", "grad_check", "grad_check_params", "load_csv", "mae", "mape",
    "out_degree", "rank_influence", "rmse", "rse", "run_comparison",
    "run_pipeline", "spearman", "spearman_matrix", "train",
]


def __getattr__(name: str):
    """The submodule `name`, or the exported `name` from its submodule,
    imported now and bound here so that later lookups skip this hook."""
    import importlib

    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    dunders = {n for n in globals() if n.startswith("__")} - {"__getattr__", "__dir__"}
    return sorted({*__all__, *_SUBMODULES, *dunders})
