"""Seeded synthetic market with known cross-series structure.

Generates positive price paths whose log values follow a deterministic
upward trend plus a stationary first-order vector autoregression with a
sparse, directed coupling matrix. Because the ground-truth graph is known,
end-to-end benchmarks can check both forecast quality and how much of the
coupling structure a graph-learning model recovers.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .data import TimeSeriesFrame
from .errors import DomainError
from .rng import Rng


@dataclass(frozen=True)
class SyntheticSystem:
    frame: TimeSeriesFrame
    coupling: np.ndarray
    var_matrix: np.ndarray
    noise_scale: float

    @property
    def true_edges(self) -> set[tuple[int, int]]:
        """Directed (source, target) pairs with nonzero cross-coupling."""
        src, dst = np.nonzero(self.coupling)
        return set(zip(src.tolist(), dst.tolist()))


def coupled_var_system(num_nodes: int = 6, steps: int = 3000, seed: int = 0,
                       sources_per_node: int = 2, coupling_strength: float = 0.35,
                       self_weight: float = 0.3, noise_scale: float = 0.01,
                       trend_range: tuple[float, float] = (0.5, 0.9),
                       start: date = date(2012, 1, 2)) -> SyntheticSystem:
    """Build an N-series price frame driven by a sparse coupled VAR(1).

    Each node receives influence from `sources_per_node` randomly chosen other
    nodes; the full lag matrix is rescaled to spectral radius 0.9 when needed
    so the fluctuation component stays stationary. The trend keeps prices
    rising, which keeps every split's values away from zero after the usual
    log/normalize preprocessing.
    """
    if num_nodes < 2:
        raise DomainError(f"need at least 2 nodes, got {num_nodes}")
    if not 1 <= sources_per_node <= num_nodes - 1:
        raise DomainError(f"sources_per_node must be in [1, {num_nodes - 1}], got {sources_per_node}")
    if steps < 10:
        raise DomainError(f"need at least 10 steps, got {steps}")
    rng = Rng(seed)
    topo = rng.split()
    shock = rng.split()
    level = rng.split()

    # var_matrix[j, i] weights source i into target j (applied as A @ v);
    # coupling uses the adjacency orientation: coupling[i, j] is i -> j.
    var_matrix = np.eye(num_nodes) * self_weight
    coupling = np.zeros((num_nodes, num_nodes))
    for j in range(num_nodes):
        others = [i for i in range(num_nodes) if i != j]
        order = topo.permutation(len(others))
        for pick in order[:sources_per_node]:
            i = others[pick]
            w = coupling_strength * (0.75 + 0.5 * topo.random(()))
            var_matrix[j, i] = w
            coupling[i, j] = w
    radius = max(abs(np.linalg.eigvals(var_matrix)))
    if radius > 0.9:
        var_matrix *= 0.9 / radius
        coupling *= 0.9 / radius

    burn = 200
    v = np.zeros(num_nodes)
    fluct = np.empty((steps, num_nodes))
    noise = shock.normal((burn + steps, num_nodes), noise_scale)
    for t in range(burn + steps):
        v = var_matrix @ v + noise[t]
        if t >= burn:
            fluct[t - burn] = v

    base = np.log(level.uniform((num_nodes,), 50.0, 5000.0))
    total_drift = level.uniform((num_nodes,), *trend_range)
    t_axis = np.arange(steps)[:, None] / (steps - 1)
    log_prices = base + total_drift * t_axis + fluct

    dates = tuple(start + timedelta(days=i) for i in range(steps))
    columns = tuple(f"node{i}" for i in range(num_nodes))
    frame = TimeSeriesFrame(dates, columns, np.exp(log_prices))
    return SyntheticSystem(frame=frame, coupling=coupling, var_matrix=var_matrix,
                           noise_scale=noise_scale)


def edge_precision(learned: np.ndarray, true_edges: set[tuple[int, int]]) -> float:
    """Share of the |true| strongest learned edges that are actual couplings.

    `learned` uses the package's adjacency orientation (entry [r, s] is the
    weight node s feeds into node r), while `true_edges` are (source, target)
    pairs. The diagonal is ignored; exactly len(true_edges) edges are taken,
    strongest first, ties by (source, target) position.
    """
    learned = np.asarray(learned, dtype=np.float64)
    if learned.ndim != 2 or learned.shape[0] != learned.shape[1]:
        raise DomainError(f"learned adjacency must be square, got {learned.shape}")
    if not true_edges:
        raise DomainError("no true edges to compare against")
    n = learned.shape[0]
    scored = [(-learned[j, i], i, j) for i in range(n) for j in range(n) if i != j]
    scored.sort()
    top = {(i, j) for _, i, j in scored[:len(true_edges)]}
    return len(top & true_edges) / len(true_edges)
