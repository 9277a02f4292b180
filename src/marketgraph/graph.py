"""Learned directed adjacency over series, plus out-degree influence analysis."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Rng, Tensor, mul, relu, tanh, transpose
from .errors import DataError, DomainError, ShapeError

G7_COUNTRIES = ("Italy", "France", "UK", "Germany", "US", "Canada", "Japan")
MINT_COUNTRIES = ("Mexico", "Indonesia", "Nigeria", "Türkiye")


@dataclass
class NodeEmbeddings:
    """Two learnable embedding tables, one per role in the directed score."""

    e1: Tensor
    e2: Tensor

    def __post_init__(self):
        if self.e1.ndim != 2 or self.e1.shape != self.e2.shape:
            raise ShapeError(f"embeddings must be two equal [N, d] matrices, got {self.e1.shape} and {self.e2.shape}")

    @property
    def num_nodes(self) -> int:
        return self.e1.shape[0]

    @property
    def dim(self) -> int:
        return self.e1.shape[1]

    def parameters(self) -> list[Tensor]:
        return [self.e1, self.e2]


def init_node_embeddings(num_nodes: int, dim: int, rng: Rng, scale: float = 1.0) -> NodeEmbeddings:
    if num_nodes < 2 or dim < 1:
        raise DomainError(f"need at least 2 nodes and dim >= 1, got {num_nodes}, {dim}")
    return NodeEmbeddings(
        e1=Tensor(rng.normal((num_nodes, dim), scale), requires_grad=True),
        e2=Tensor(rng.normal((num_nodes, dim), scale), requires_grad=True),
    )


@dataclass
class GraphLearnParams:
    """Mixing matrices and the saturation/sparsity knobs of the graph layer."""

    theta1: Tensor
    theta2: Tensor
    alpha: float = 3.0
    k: int = 5

    def __post_init__(self):
        if self.theta1.ndim != 2 or self.theta1.shape != self.theta2.shape:
            raise ShapeError(f"mixing matrices must be two equal [d, d] matrices, got {self.theta1.shape} and {self.theta2.shape}")
        if self.theta1.shape[0] != self.theta1.shape[1]:
            raise ShapeError(f"mixing matrices must be square, got {self.theta1.shape}")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.k < 1:
            raise DomainError(f"k must be at least 1, got {self.k}")

    def parameters(self) -> list[Tensor]:
        return [self.theta1, self.theta2]


def init_graph_learn_params(dim: int, rng: Rng, alpha: float = 3.0, k: int = 5) -> GraphLearnParams:
    scale = 1.0 / np.sqrt(dim)
    return GraphLearnParams(
        theta1=Tensor(rng.normal((dim, dim), scale), requires_grad=True),
        theta2=Tensor(rng.normal((dim, dim), scale), requires_grad=True),
        alpha=alpha,
        k=k,
    )


def top_k_row_mask(values: np.ndarray, k: int) -> np.ndarray:
    """0/1 mask keeping the k largest entries of each row, ties to the lowest column."""
    if values.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {values.shape}")
    n = values.shape[1]
    mask = np.zeros_like(values)
    if k >= n:
        return np.ones_like(values)
    for i in range(values.shape[0]):
        keep = np.argsort(-values[i], kind="stable")[:k]
        mask[i, keep] = 1.0
    return mask


def learn_adjacency(emb: NodeEmbeddings, params: GraphLearnParams) -> Tensor:
    """Current belief about the directed adjacency, as a differentiable [N, N] tensor.

    M1 = tanh(alpha * E1 Theta1), M2 = tanh(alpha * E2 Theta2);
    the raw score relu(tanh(alpha * (M1 M2^T - M2 M1^T))) is antisymmetric
    before the relu, so at most one direction survives per pair and the
    diagonal is exactly zero. Each row is then sparsified to its k largest
    entries through a constant 0/1 mask; gradients flow only through the
    retained entries.
    """
    n = emb.num_nodes
    if params.theta1.shape[0] != emb.dim:
        raise ShapeError(f"mixing dim {params.theta1.shape[0]} does not match embedding dim {emb.dim}")
    if params.k > n - 1:
        raise DomainError(f"k={params.k} out of range for {n} nodes (max {n - 1})")
    m1 = tanh(mul(emb.e1 @ params.theta1, params.alpha))
    m2 = tanh(mul(emb.e2 @ params.theta2, params.alpha))
    score = m1 @ transpose(m2) - m2 @ transpose(m1)
    a0 = relu(tanh(mul(score, params.alpha)))
    mask = top_k_row_mask(a0.data, params.k)
    np.fill_diagonal(mask, 0.0)
    return mul(a0, Tensor(mask))


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

    @property
    def num_nodes(self) -> int:
        return len(self.labels)


def snapshot_adjacency(emb: NodeEmbeddings, params: GraphLearnParams,
                       labels: Sequence[str] | None = None) -> AdjacencyMatrix:
    """Freeze the current learned adjacency into a labeled, exportable matrix."""
    values = learn_adjacency(emb, params).data
    if labels is None:
        labels = [f"series_{i}" for i in range(emb.num_nodes)]
    return AdjacencyMatrix(labels=tuple(labels), values=values)


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


def write_adjacency_csv(adj: AdjacencyMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", *adj.labels])
        for label, row in zip(adj.labels, adj.values):
            writer.writerow([label, *(repr(float(v)) for v in row)])


def read_adjacency_csv(path) -> AdjacencyMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
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
    return AdjacencyMatrix(labels=labels, values=values)
