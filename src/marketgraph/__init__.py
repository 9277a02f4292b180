"""Multivariate stock-index forecasting on a learned inter-series graph.

The package bundles a small taped autodiff core, a graph-structure learner,
a graph-and-time convolutional forecaster with classic baselines, a
reproducible data pipeline, and evaluation/analysis tooling behind a CLI.
"""

from .autodiff import (
    Rng, Tape, Tensor, abs_, add, add_bias, backward, causal_conv1d,
    channel_linear, dropout, grad_check, grad_check_params, graph_mix,
    last_step, log, matmul, mean, mix_hop, mul, neg, permute, relu, reshape,
    row_normalize, sigmoid, stack_last, sub, sum_, tanh, tanh_sigmoid_gate,
    time_index, transpose,
)
from .baselines import (
    ArEnsemble, ArModel, GruConfig, GruModel, GruParams, MlpSpec,
    PersistenceModel, TcnConfig, TcnModel, VarMlpModel, fit_ar,
    fit_ar_ensemble, fit_var, fit_var_mlp, gru_cell,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    NormStats, PipelineResult, RebaseRule, SplitSpec, TimeSeriesFrame,
    WindowSet, WindowSpec, adjust_rebased_series, chronological_split,
    compute_norm_stats, denormalize, denormalize_values, descriptive_stats,
    exp_transform, frame_hash, invert_predictions, load_csv, log_transform,
    make_windows, normalize, run_pipeline,
)
from .errors import (
    ConfigError, DataError, DomainError, MarketGraphError, ShapeError,
    TapeError, TrainingDiverged,
)
from .graph import (
    AdjacencyMatrix, G7_COUNTRIES, GraphLearnParams, MINT_COUNTRIES,
    NodeEmbeddings, init_graph_learn_params, init_node_embeddings,
    learn_adjacency, out_degree, rank_influence, read_adjacency_csv,
    snapshot_adjacency, top_k_row_mask, write_adjacency_csv,
)
from .metrics import (
    MetricsReport, average_ranks, dtw_distance, dtw_matrix, mae, mape,
    per_series_metrics, rmse, rse, spearman, spearman_matrix,
    write_labeled_matrix_csv,
)
from .mtgnn import (
    MtgnnConfig, MtgnnModel, gated_temporal_conv, normalized_propagation_matrix,
)
from .optim import Adam
from .synthetic import SyntheticSystem, coupled_var_system, edge_precision
from .training import (
    ComparisonResult, ComparisonSpec, EvalResult, TrainConfig, TrainResult,
    evaluate, run_comparison, train, write_history_csv, write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AdjacencyMatrix", "ArEnsemble", "ArModel", "Checkpoint",
    "ComparisonResult", "ComparisonSpec", "ConfigError", "DataError",
    "DomainError", "EvalResult", "G7_COUNTRIES", "GraphLearnParams",
    "GruConfig", "GruModel", "GruParams", "MINT_COUNTRIES", "MarketGraphError",
    "MetricsReport", "MlpSpec", "MtgnnConfig", "MtgnnModel", "NodeEmbeddings",
    "NormStats", "PersistenceModel", "PipelineResult", "RebaseRule", "Rng",
    "ShapeError", "SplitSpec", "SyntheticSystem", "Tape", "TapeError",
    "TcnConfig", "TcnModel", "Tensor", "TimeSeriesFrame", "TrainConfig",
    "TrainResult", "TrainingDiverged", "VarMlpModel", "WindowSet",
    "WindowSpec", "abs_", "add", "add_bias", "adjust_rebased_series",
    "average_ranks", "backward", "causal_conv1d", "channel_linear",
    "chronological_split", "compute_norm_stats", "coupled_var_system",
    "denormalize", "denormalize_values", "descriptive_stats", "dropout",
    "dtw_distance", "dtw_matrix", "edge_precision", "evaluate",
    "exp_transform", "fit_ar", "fit_ar_ensemble", "fit_var", "fit_var_mlp",
    "frame_hash", "gated_temporal_conv", "grad_check", "grad_check_params",
    "graph_mix", "gru_cell", "init_graph_learn_params", "init_node_embeddings",
    "invert_predictions", "last_step", "learn_adjacency", "load_checkpoint",
    "load_csv", "log", "log_transform", "mae", "make_windows", "mape",
    "matmul", "mean", "mix_hop", "mul", "neg", "normalize",
    "normalized_propagation_matrix", "out_degree", "per_series_metrics",
    "permute", "rank_influence", "read_adjacency_csv", "relu", "reshape",
    "rmse", "row_normalize", "rse", "run_comparison", "run_pipeline",
    "save_checkpoint", "sigmoid", "snapshot_adjacency", "spearman",
    "spearman_matrix", "stack_last", "sub", "sum_", "tanh",
    "tanh_sigmoid_gate", "time_index", "top_k_row_mask", "train", "transpose",
    "write_adjacency_csv", "write_history_csv", "write_labeled_matrix_csv",
    "write_trace_csv",
]
