"""Forecast error metrics and series-similarity analysis."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import TimeSeriesFrame
from .errors import DataError, DomainError, ShapeError


def _as_pair(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise ShapeError("empty series")
    if y.shape != y_hat.shape:
        raise ShapeError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_hat))):
        raise DataError("metrics need finite inputs")
    return y, y_hat


def rse(y, y_hat) -> float:
    """Relative squared error: sum((y-yhat)^2) / sum((y-mean(y))^2)."""
    y, y_hat = _as_pair(y, y_hat)
    denom = float(np.sum((y - y.mean()) ** 2))
    if denom == 0.0:
        raise DomainError("RSE undefined for a constant target series")
    return float(np.sum((y - y_hat) ** 2)) / denom


def rmse(y, y_hat) -> float:
    y, y_hat = _as_pair(y, y_hat)
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def mae(y, y_hat) -> float:
    y, y_hat = _as_pair(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def mape(y, y_hat) -> float:
    """Mean absolute percentage error, returned as a fraction (0.10 = 10%)."""
    y, y_hat = _as_pair(y, y_hat)
    if np.any(y == 0):
        raise DomainError("MAPE undefined when the target contains zeros")
    return float(np.mean(np.abs((y - y_hat) / y)))


METRIC_FUNCS = {"rse": rse, "rmse": rmse, "mae": mae, "mape": mape}


def average_ranks(x) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Rank correlation (Pearson correlation of average ranks)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise DataError("rank correlation needs at least 3 observations")
    rx, ry = average_ranks(x), average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    sx = float(np.sqrt(np.sum(rx * rx)))
    sy = float(np.sqrt(np.sum(ry * ry)))
    if sx == 0.0 or sy == 0.0:
        raise DataError("rank correlation undefined for a constant series")
    return float(np.clip(np.dot(rx, ry) / (sx * sy), -1.0, 1.0))


def spearman_matrix(frame: TimeSeriesFrame) -> np.ndarray:
    """Pairwise rank correlations of the frame's columns; symmetric, unit diagonal."""
    n = frame.num_series
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = spearman(frame.values[:, i], frame.values[:, j])
    return out


def dtw_distance(x, y) -> float:
    """Minimum cumulative |a-b| alignment cost with match/insert/delete steps.

    Unconstrained window, both endpoints anchored. Computed over anti-diagonal
    wavefronts so the inner loop is vectorized; cells are addressed by row, so
    prev[i] is the left neighbor and prev[i-1] the upper one.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size == 0 or y.size == 0:
        raise ShapeError("dynamic time warping needs nonempty series")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("dynamic time warping needs finite inputs")
    n, m = x.size, y.size
    inf = np.inf
    prev2 = np.full(n, inf)
    prev = np.full(n, inf)
    cur = np.full(n, inf)
    for d in range(n + m - 1):
        lo = max(0, d - m + 1)
        hi = min(n - 1, d)
        rows = np.arange(lo, hi + 1)
        local = np.abs(x[rows] - y[d - rows])
        cur.fill(inf)
        if d == 0:
            cur[0] = local[0]
        else:
            shifted_prev = np.concatenate(([inf], prev[:-1]))
            shifted_prev2 = np.concatenate(([inf], prev2[:-1]))
            best = np.minimum(prev, np.minimum(shifted_prev, shifted_prev2))
            cur[rows] = local + best[rows]
        prev2, prev, cur = prev, cur, prev2
    return float(prev[n - 1])


def dtw_matrix(frame: TimeSeriesFrame) -> np.ndarray:
    """Pairwise warping distances between z-scored columns.

    Columns are standardized first so the comparison is scale-free; a constant
    column has no shape to compare and is rejected.
    """
    std = frame.values.std(axis=0)
    if np.any(std == 0):
        bad = frame.columns[int(np.argmax(std == 0))]
        raise DataError(f"constant column {bad!r} cannot be z-scored for warping distances")
    z = (frame.values - frame.values.mean(axis=0)) / std
    n = frame.num_series
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = dtw_distance(z[:, i], z[:, j])
    return out


def write_labeled_matrix_csv(labels: Sequence[str], matrix: np.ndarray, path) -> None:
    matrix = np.asarray(matrix)
    if matrix.shape != (len(labels), len(labels)):
        raise ShapeError(f"matrix shape {matrix.shape} does not match {len(labels)} labels")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", *labels])
        for label, row in zip(labels, matrix):
            writer.writerow([label, *(repr(float(v)) for v in row)])


@dataclass
class MetricsReport:
    """Per-series forecast errors plus enough metadata to rerun the experiment.

    MAPE values are stored as fractions and only rendered as percentages.
    """

    model_kind: str
    series: tuple[str, ...]
    per_series: dict[str, dict[str, float]]
    config: dict = field(default_factory=dict)
    split: str = ""
    seed: int | None = None

    def __post_init__(self):
        self.series = tuple(self.series)
        for name in self.series:
            if name not in self.per_series:
                raise DataError(f"missing metrics for series {name!r}")
            missing = set(METRIC_FUNCS) - set(self.per_series[name])
            if missing:
                raise DataError(f"series {name!r} lacks {', '.join(sorted(missing))}")
            for metric, value in self.per_series[name].items():
                if value < 0:
                    raise DomainError(f"{metric} for {name!r} is negative")

    def to_dict(self) -> dict:
        return {
            "model": self.model_kind,
            "series": list(self.series),
            "metrics": {k: dict(v) for k, v in self.per_series.items()},
            "config": self.config,
            "split": self.split,
            "seed": self.seed,
        }

    def render_table(self) -> str:
        """Fixed-width text table; MAPE shown as a one-decimal percentage."""
        header = f"{'series':<12} {'RSE':>10} {'RMSE':>10} {'MAE':>10} {'MAPE':>8}"
        lines = [f"model: {self.model_kind}", header, "-" * len(header)]
        for name in self.series:
            m = self.per_series[name]
            lines.append(
                f"{name:<12} {m['rse']:>10.3f} {m['rmse']:>10.3f} "
                f"{m['mae']:>10.3f} {100.0 * m['mape']:>7.1f}%"
            )
        return "\n".join(lines)


def per_series_metrics(y_true: np.ndarray, y_pred: np.ndarray,
                       labels: Sequence[str]) -> dict[str, dict[str, float]]:
    """All four metrics for each series; inputs are [steps, N] matrices."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.ndim != 2 or y_true.shape != y_pred.shape:
        raise ShapeError(f"expected matching [steps, N] matrices, got {y_true.shape} and {y_pred.shape}")
    if y_true.shape[1] != len(labels):
        raise ShapeError(f"{y_true.shape[1]} series but {len(labels)} labels")
    out = {}
    for j, name in enumerate(labels):
        t, p = y_true[:, j], y_pred[:, j]
        out[name] = {fn_name: fn(t, p) for fn_name, fn in METRIC_FUNCS.items()}
    return out
