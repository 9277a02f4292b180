"""Learned directed adjacency over series, plus out-degree influence analysis."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .data import read_csv_rows
from .errors import DataError, DomainError, ShapeError

if TYPE_CHECKING:  # `influence` reads and ranks adjacency files without the autodiff core
    from .autodiff import Tensor

G7_COUNTRIES = ("Italy", "France", "UK", "Germany", "US", "Canada", "Japan")
MINT_COUNTRIES = ("Mexico", "Indonesia", "Nigeria", "Türkiye")


def top_k_row_mask(values: np.ndarray, k: int) -> np.ndarray:
    """0/1 mask keeping the k largest entries of each row, ties to the lowest column."""
    if values.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {values.shape}")
    if k >= values.shape[1]:
        return np.ones_like(values)
    mask = np.zeros_like(values)
    np.put_along_axis(mask, np.argsort(-values, axis=1, kind="stable")[:, :k], 1.0, axis=1)
    return mask


def learn_adjacency(e1: Tensor, e2: Tensor, theta1: Tensor, theta2: Tensor,
                    alpha: float, k: int) -> Tensor:
    """Current belief about the directed adjacency, as a differentiable [N, N] tensor.

    e1 and e2 are the two [N, d] node-embedding tables, theta1 and theta2
    the two [d, d] mixing matrices. M1 = tanh(alpha * E1 Theta1),
    M2 = tanh(alpha * E2 Theta2); the raw score
    relu(tanh(alpha * (M1 M2^T - M2 M1^T))) is antisymmetric before the
    relu, so at most one direction survives per pair and the diagonal is
    exactly zero. Each row is then sparsified to its k largest entries
    through a constant 0/1 mask; gradients flow only through the retained
    entries.
    """
    from .autodiff import _record
    n, d = e1.shape if e1.ndim == 2 else (0, 0)
    if e1.ndim != 2 or e2.shape != e1.shape or theta1.shape != (d, d) or theta2.shape != (d, d):
        raise ShapeError(f"need two equal [N, d] embeddings and two [d, d] mixing matrices, got "
                         f"{e1.shape}, {e2.shape}, {theta1.shape} and {theta2.shape}")
    if not 0 < alpha < np.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k={k} out of range for {n} nodes (max {n - 1})")
    m1 = np.tanh((e1.data @ theta1.data) * alpha)
    m2 = np.tanh((e2.data @ theta2.data) * alpha)
    m1t, m2t = np.ascontiguousarray(m1.T), np.ascontiguousarray(m2.T)
    t = np.tanh((m1 @ m2t - m2 @ m1t) * alpha)
    kept = t > 0
    a0 = np.where(kept, t, 0.0)
    mask = top_k_row_mask(a0, k)
    np.fill_diagonal(mask, 0.0)

    def back(g):
        # The floats of the reverse sweep through the docstring's formula as
        # matmul, mul, tanh, transpose, sub and relu ops, summed in its order.
        gs = ((g * mask) * kept) * (1.0 - t * t) * alpha
        g_m1 = np.transpose(m2.T @ -gs, (1, 0)) + gs @ m2t.T
        g_m2 = (-gs) @ m1t.T + np.transpose(m1.T @ gs, (1, 0))
        g_p1 = g_m1 * (1.0 - m1 * m1) * alpha
        g_p2 = g_m2 * (1.0 - m2 * m2) * alpha
        return g_p1 @ theta1.data.T, g_p2 @ theta2.data.T, e1.data.T @ g_p1, e2.data.T @ g_p2

    return _record(a0 * mask, (e1, e2, theta1, theta2), back)


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Nonnegative weighted directed graph over named series.

    values[i, j] > 0 means node j (column) feeds node i (row): columns act
    as sources, rows as receivers. That is the orientation the propagation
    step consumes, and it makes a column's sum the size of that node's
    sphere of influence. The diagonal carries no self-edges.
    """

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if v.ndim != 2 or v.shape != (n, n):
            raise ShapeError(f"need a square matrix matching {n} labels, got shape {v.shape}")
        if len(set(self.labels)) != n:
            raise DataError("node labels must be unique")
        if not np.all(np.isfinite(v)):
            raise DataError("adjacency weights must be finite")
        if np.any(v < 0):
            raise DataError("adjacency weights must be nonnegative")
        if np.any(np.diagonal(v) != 0):
            raise DataError("self-edges are not allowed (diagonal must be zero)")


def out_degree(adj: AdjacencyMatrix, hops: int = 1) -> np.ndarray:
    """Per-node influence counts from column sums of the binarized graph.

    hops=1 counts direct outgoing edges; hops=2 counts walks of length one or
    two (column sums of B + B^2, B the 0/1 edge indicator), so a node reached
    along two distinct paths counts twice.
    """
    if hops not in (1, 2):
        raise DomainError(f"hops must be 1 or 2, got {hops}")
    b = (adj.values > 0).astype(np.int64)
    reach = b if hops == 1 else b + b @ b
    return reach.sum(axis=0)


def rank_influence(adj: AdjacencyMatrix, hops: int = 1,
                   group: Iterable[str] | None = None) -> list[tuple[str, int]]:
    """Nodes of `group` (default: all) ranked by out-degree, descending.

    Ties are broken by lexicographic label order so the ranking is stable.
    """
    degrees = out_degree(adj, hops)
    by_label = dict(zip(adj.labels, (int(d) for d in degrees)))
    if group is None:
        chosen = list(adj.labels)
    else:
        chosen = list(group)
        unknown = [g for g in chosen if g not in by_label]
        if unknown:
            raise DataError(f"unknown node label(s): {', '.join(unknown)}")
    return sorted(((lbl, by_label[lbl]) for lbl in chosen), key=lambda it: (-it[1], it[0]))


def read_adjacency_csv(path) -> AdjacencyMatrix:
    """The graph in a CSV of the `data.matrix_csv` layout, as `train` writes it."""
    rows = read_csv_rows(path)
    if not rows or len(rows[0]) < 2:
        raise DataError(f"{path}: expected a header row of node labels")
    labels = tuple(rows[0][1:])
    n = len(labels)
    if len(rows) != n + 1:
        raise DataError(f"{path}: expected {n} data rows for {n} labels, found {len(rows) - 1}")
    values = np.zeros((n, n))
    for i, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {n + 1}")
        if row[0] != labels[i]:
            raise DataError(f"{path}: row label {row[0]!r} does not match column label {labels[i]!r}")
        try:
            values[i] = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise DataError(f"{path}: row {i + 2}: {exc}") from None
    try:
        return AdjacencyMatrix(labels=labels, values=values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
