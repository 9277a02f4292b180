"""Multivariate stock-index forecasting on a learned inter-series graph.

The package bundles a small taped autodiff core, a graph-structure learner,
a graph-and-time convolutional forecaster with classic baselines, a
reproducible data pipeline, and evaluation/analysis tooling behind a CLI.

The top level exports the names README.md documents and the error types;
everything else is reached through its module, e.g. `marketgraph.data.make_windows`.
"""

from .autodiff import Rng, Tape, Tensor, grad_check, grad_check_params
from .baselines import GruModel, PersistenceModel, TcnModel, fit_ar_ensemble, fit_var_mlp
from .data import TimeSeriesFrame, WindowSpec, load_csv, run_pipeline
from .errors import (
    ConfigError, DataError, DomainError, MarketGraphError, ShapeError,
    TapeError, TrainingDiverged,
)
from .graph import out_degree, rank_influence
from .metrics import dtw_distance, dtw_matrix, mae, mape, rmse, rse, spearman, spearman_matrix
from .mtgnn import MtgnnConfig, MtgnnModel
from .optim import Adam
from .synthetic import edge_precision
from .training import TrainConfig, evaluate, run_comparison, train

__version__ = "0.1.0"

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
