"""Synthetic coupled-system generator and structure-recovery scoring."""
import numpy as np
import pytest

from marketgraph import DomainError, edge_precision
from marketgraph.synthetic import coupled_var_system


def test_generator_shapes_and_positivity():
    system = coupled_var_system(num_nodes=4, steps=300, seed=1)
    assert system.frame.values.shape == (300, 4)
    assert system.frame.columns == ("node0", "node1", "node2", "node3")
    assert len(system.frame.dates) == 300
    assert (system.frame.values > 0).all()


def test_generator_is_deterministic_per_seed():
    a = coupled_var_system(num_nodes=5, steps=120, seed=9)
    b = coupled_var_system(num_nodes=5, steps=120, seed=9)
    c = coupled_var_system(num_nodes=5, steps=120, seed=10)
    np.testing.assert_array_equal(a.frame.values, b.frame.values)
    np.testing.assert_array_equal(a.coupling, b.coupling)
    assert not np.array_equal(a.frame.values, c.frame.values)


def test_coupling_structure():
    system = coupled_var_system(num_nodes=6, steps=100, seed=3, sources_per_node=2)
    # every node receives exactly two cross-couplings, none from itself
    assert len(system.true_edges) == 12
    assert np.count_nonzero(system.coupling) == 12
    assert np.count_nonzero(np.diag(system.coupling)) == 0
    assert (system.coupling >= 0).all()
    # the lag matrix stays stationary
    radius = max(abs(np.linalg.eigvals(system.var_matrix)))
    assert radius <= 0.9 + 1e-12
    # var_matrix[target, source] mirrors coupling[source, target]
    np.testing.assert_array_equal(
        system.var_matrix - np.diag(np.diag(system.var_matrix)),
        system.coupling.T)


def test_trend_pushes_prices_upward():
    system = coupled_var_system(num_nodes=4, steps=1000, seed=5)
    log_prices = np.log(system.frame.values)
    assert (log_prices[-1] > log_prices[0]).all()


def test_generator_validation():
    with pytest.raises(DomainError):
        coupled_var_system(num_nodes=1)
    with pytest.raises(DomainError):
        coupled_var_system(num_nodes=4, sources_per_node=4)
    with pytest.raises(DomainError):
        coupled_var_system(num_nodes=4, sources_per_node=0)
    with pytest.raises(DomainError):
        coupled_var_system(num_nodes=4, steps=5)


def test_edge_precision_orientation_and_scoring():
    # true edges 0->1 and 2->1; the package adjacency stores them at
    # rows-as-receivers positions [1, 0] and [1, 2]
    true = {(0, 1), (2, 1)}
    perfect = np.zeros((3, 3))
    perfect[1, 0] = 0.9
    perfect[1, 2] = 0.8
    assert edge_precision(perfect, true) == 1.0

    half = np.zeros((3, 3))
    half[1, 0] = 0.9   # hit: 0 -> 1
    half[0, 2] = 0.8   # miss: claims 2 -> 0
    assert edge_precision(half, true) == 0.5

    # diagonal mass never counts
    diag = np.eye(3) * 100.0
    diag[1, 0] = 0.1
    diag[1, 2] = 0.1
    assert edge_precision(diag, true) == 1.0


def test_edge_precision_recovers_the_true_var_matrix():
    system = coupled_var_system(num_nodes=6, steps=100, seed=11)
    assert edge_precision(system.var_matrix, system.true_edges) == 1.0


def test_edge_precision_validation():
    with pytest.raises(DomainError):
        edge_precision(np.zeros((2, 3)), {(0, 1)})
    with pytest.raises(DomainError):
        edge_precision(np.zeros((3, 3)), set())
