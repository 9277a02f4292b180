"""Forecast error metrics and series-similarity analysis."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import TimeSeriesFrame
from .errors import DataError, DomainError, ShapeError


def _as_float(a) -> np.ndarray:
    """`a` as a float64 array; a cell that is not a number is a DataError."""
    try:
        return np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"metrics need numeric input: {exc}") from None


def _as_series(a) -> np.ndarray:
    """`a` as a finite 1-D float64 array."""
    a = _as_float(a)
    if a.ndim != 1:
        raise ShapeError(f"expected a 1-D series, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError("metrics need finite inputs")
    return a


def _as_pair(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    y = _as_float(y).reshape(-1)
    y_hat = _as_float(y_hat).reshape(-1)
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
    """1-based ranks of a finite 1-D series; tied values share the average of
    their positions."""
    x = _as_series(x)
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # A tie run spans sorted positions start..end; every member gets the mean position.
    change = np.flatnonzero(sorted_x[1:] != sorted_x[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [x.size])) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _centered_ranks(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Average ranks minus their mean, and the norm of that vector."""
    if x.size < 3:
        raise DataError("rank correlation needs at least 3 observations")
    r = average_ranks(x)
    r = r - r.mean()
    s = float(np.sqrt(np.sum(r * r)))
    if s == 0.0:
        raise DataError("rank correlation undefined for a constant series")
    return r, s


def _rank_correlation(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    (rx, sx), (ry, sy) = a, b
    return float(np.clip(np.dot(rx, ry) / (sx * sy), -1.0, 1.0))


def spearman(x, y) -> float:
    """Rank correlation (Pearson correlation of average ranks)."""
    x, y = _as_series(x), _as_series(y)
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch: {x.shape} vs {y.shape}")
    return _rank_correlation(_centered_ranks(x), _centered_ranks(y))


def spearman_matrix(frame: TimeSeriesFrame) -> np.ndarray:
    """Pairwise rank correlations of the frame's columns; symmetric, unit diagonal.

    Each column is ranked once; only the correlation itself is per pair.
    """
    n = frame.num_series
    out = np.eye(n)
    if n < 2:
        return out
    cols = [_centered_ranks(frame.values[:, i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = _rank_correlation(cols[i], cols[j])
    return out


def _dtw_wavefront(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Warping distances of P pairs at once: x is [P, n], y is [P, m] -> [P].

    The cost table is swept by anti-diagonals d = i + j, every pair in step.
    A diagonal is held by row i + 1 of an [n + 1, P] buffer whose row 0 is a
    permanent inf pad, so on diagonal d, prev[i + 1] is the left neighbor
    (i, j - 1), prev[i] the upper one (i - 1, j) and prev2[i] the upper-left
    one (i - 1, j - 1). With the pair axis last, a diagonal's band of rows is
    one contiguous block, written in place. The band's last row never
    decreases, so the rows past it are still the initial inf; the stale rows
    before it are never read.
    """
    num_pairs, n = x.shape
    m = y.shape[1]
    if n == 0 or m == 0:
        raise ShapeError("dynamic time warping needs nonempty series")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("dynamic time warping needs finite inputs")
    xt = np.ascontiguousarray(x.T)
    yt = np.ascontiguousarray(y[:, ::-1].T)  # y[d - i] for i = lo..hi is one slice of yt
    prev2, prev, cur = (np.full((n + 1, num_pairs), np.inf) for _ in range(3))
    best = np.empty((n, num_pairs))
    for d in range(n + m - 1):
        lo = max(0, d - m + 1)
        hi = min(n - 1, d)
        band = cur[lo + 1:hi + 2]
        np.subtract(xt[lo:hi + 1], yt[m - 1 - d + lo:m - d + hi], out=band)
        np.abs(band, out=band)
        if d:
            step = best[:hi + 1 - lo]
            np.minimum(prev[lo:hi + 1], prev2[lo:hi + 1], out=step)
            np.minimum(prev[lo + 1:hi + 2], step, out=step)
            band += step
        prev2, prev, cur = prev, cur, prev2
    return prev[n]


def dtw_distance(x, y) -> float:
    """Minimum cumulative |a-b| alignment cost with match/insert/delete steps.

    Unconstrained window, both endpoints anchored; one pair of the batched
    wavefront that `dtw_matrix` runs.
    """
    x, y = _as_series(x), _as_series(y)
    return float(_dtw_wavefront(x[None, :], y[None, :])[0])


def dtw_matrix(frame: TimeSeriesFrame) -> np.ndarray:
    """Pairwise warping distances between z-scored columns.

    Columns are standardized first so the comparison is scale-free; a constant
    column has no shape to compare and is rejected. All pairs share one
    wavefront.
    """
    std = frame.values.std(axis=0)
    if np.any(std == 0):
        bad = frame.columns[int(np.argmax(std == 0))]
        raise DataError(f"constant column {bad!r} cannot be z-scored for warping distances")
    z = ((frame.values - frame.values.mean(axis=0)) / std).T
    n = frame.num_series
    out = np.zeros((n, n))
    first, second = np.triu_indices(n, 1)
    if first.size:
        out[first, second] = out[second, first] = _dtw_wavefront(z[first], z[second])
    return out


@dataclass
class MetricsReport:
    """Per-series forecast errors plus enough metadata to rerun the experiment.

    `per_series` holds the metrics on the normalized scale the models are
    trained on; `price_per_series`, when given, the same four on the price
    scale. MAPE values are stored as fractions and only rendered as
    percentages.
    """

    model_kind: str
    series: tuple[str, ...]
    per_series: dict[str, dict[str, float]]
    config: dict = field(default_factory=dict)
    split: str = ""
    seed: int | None = None
    price_per_series: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        self.series = tuple(self.series)
        for table in [self.per_series] + ([self.price_per_series] if self.price_per_series else []):
            for name in self.series:
                if name not in table:
                    raise DataError(f"missing metrics for series {name!r}")
                missing = set(METRIC_FUNCS) - set(table[name])
                if missing:
                    raise DataError(f"series {name!r} lacks {', '.join(sorted(missing))}")
                for metric, value in table[name].items():
                    if value < 0:
                        raise DomainError(f"{metric} for {name!r} is negative")

    def to_dict(self) -> dict:
        return {
            "model": self.model_kind,
            "series": list(self.series),
            "metrics": {k: dict(v) for k, v in self.per_series.items()},
            "price_metrics": {k: dict(v) for k, v in self.price_per_series.items()},
            "config": self.config,
            "split": self.split,
            "seed": self.seed,
        }


def per_series_metrics(y_true: np.ndarray, y_pred: np.ndarray,
                       labels: Sequence[str]) -> dict[str, dict[str, float]]:
    """All four metrics for each series; inputs are [steps, N] matrices."""
    y_true, y_pred = _as_float(y_true), _as_float(y_pred)
    if y_true.ndim != 2 or y_true.shape != y_pred.shape:
        raise ShapeError(f"expected matching [steps, N] matrices, got {y_true.shape} and {y_pred.shape}")
    if y_true.shape[1] != len(labels):
        raise ShapeError(f"{y_true.shape[1]} series but {len(labels)} labels")
    out = {}
    for j, name in enumerate(labels):
        t, p = y_true[:, j], y_pred[:, j]
        out[name] = {fn_name: fn(t, p) for fn_name, fn in METRIC_FUNCS.items()}
    return out
