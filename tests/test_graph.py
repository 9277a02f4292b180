"""Directed-graph learning layer and out-degree influence analysis."""
import numpy as np
import pytest
from conftest import build_frame
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import (
    DataError, DomainError, MtgnnConfig, MtgnnModel, Rng, ShapeError, Tape, Tensor,
    TrainConfig, WindowSpec, out_degree, rank_influence, train,
)
from marketgraph.autodiff import sum_
from marketgraph.data import make_windows, matrix_csv
from marketgraph.graph import (
    AdjacencyMatrix, G7_COUNTRIES, MINT_COUNTRIES, learn_adjacency,
    read_adjacency_csv, top_k_row_mask,
)

FIXTURE_ONE_HOP = [1, 6, 4, 3, 5, 7, 5, 7, 5, 3, 2]
FIXTURE_TWO_HOP = {"US": 39, "Canada": 34, "Indonesia": 31, "Türkiye": 25}


@pytest.fixture
def fixture_adj(fixtures_dir):
    return read_adjacency_csv(fixtures_dir / "g7_mint_adjacency.csv")


def embeddings(rng, n, d, scale=1.0):
    """The two [n, d] embedding tables, drawn in turn from `rng`."""
    return [Tensor(rng.normal((n, d), scale), requires_grad=True) for _ in range(2)]


def mixers(rng, d):
    """The two [d, d] mixing matrices, drawn in turn at scale 1/sqrt(d)."""
    return [Tensor(rng.normal((d, d), 1.0 / np.sqrt(d)), requires_grad=True) for _ in range(2)]


# -- learn_adjacency --------------------------------------------------------------

def test_two_node_hand_evaluation():
    # E1=[1,0]^T, E2=[0,1]^T, both mixers the 1x1 identity, alpha=1:
    # M1=[tanh 1, 0]^T, M2=[0, tanh 1]^T, score=M1 M2^T - M2 M1^T has
    # tanh(1)^2 above the diagonal, so A = [[0, tanh(tanh(1)^2)], [0, 0]].
    a = learn_adjacency(Tensor([[1.0], [0.0]]), Tensor([[0.0], [1.0]]),
                        Tensor([[1.0]]), Tensor([[1.0]]), alpha=1.0, k=1).data
    expected = np.tanh(np.tanh(1.0) ** 2)
    np.testing.assert_allclose(a, [[0.0, expected], [0.0, 0.0]], atol=1e-15)
    assert abs(expected - 0.5227) < 5e-4


def test_identical_embedding_roles_give_empty_graph():
    rng = Rng(3)
    e = Tensor(rng.normal((5, 4)))
    th = Tensor(rng.normal((4, 4)))
    a = learn_adjacency(e, Tensor(e.data.copy()), th, Tensor(th.data.copy()), alpha=2.0, k=3)
    np.testing.assert_allclose(a.data, np.zeros((5, 5)))


def test_entries_in_unit_interval_and_zero_diagonal():
    # Mathematically the range is [0, 1); float64 tanh can round a deeply
    # saturated score to exactly 1.0, so the hard bound is <= 1.
    rng = Rng(11)
    a = learn_adjacency(*embeddings(rng, 8, 5, scale=2.0), *mixers(rng, 5), alpha=3.0, k=4).data
    assert np.all(a >= 0.0) and np.all(a <= 1.0)
    np.testing.assert_array_equal(np.diagonal(a), np.zeros(8))
    mild = learn_adjacency(*embeddings(Rng(0), 6, 3, scale=0.3),
                           Tensor(np.eye(3) * 0.3), Tensor(np.eye(3) * 0.2), alpha=1.0, k=3).data
    assert np.all(mild >= 0.0) and np.all(mild < 1.0)


def test_at_most_k_nonzeros_per_row():
    rng = Rng(2)
    emb = embeddings(rng, 9, 6)
    for k in (1, 3, 8):
        a = learn_adjacency(*emb, *mixers(rng.split(), 6), alpha=3.0, k=k).data
        assert np.all((a > 0).sum(axis=1) <= k)


def test_role_swap_transposes_dense_scores():
    # With k = N-1, sparsification keeps everything off-diagonal, so swapping
    # the two embedding/mixer roles must exactly transpose the matrix.
    rng = Rng(17)
    e1, e2 = Tensor(rng.normal((6, 4))), Tensor(rng.normal((6, 4)))
    t1, t2 = Tensor(rng.normal((4, 4))), Tensor(rng.normal((4, 4)))
    fwd = learn_adjacency(e1, e2, t1, t2, alpha=3.0, k=5).data
    swp = learn_adjacency(e2, e1, t2, t1, alpha=3.0, k=5).data
    np.testing.assert_allclose(swp, fwd.T, atol=1e-12)


def test_one_direction_per_pair():
    rng = Rng(23)
    a = learn_adjacency(*embeddings(rng, 7, 4), *mixers(rng.split(), 4), alpha=3.0, k=6).data
    assert np.all((a > 0) & (a.T > 0) == False)  # noqa: E712 - elementwise


def test_k_out_of_range_rejected():
    rng = Rng(1)
    params = [*embeddings(rng, 4, 3), *mixers(rng.split(), 3)]
    for alpha, k in [(3.0, 4), (3.0, 0), (0.0, 2), (-1.0, 2), (np.inf, 2), (np.nan, 2)]:
        with pytest.raises(DomainError):
            learn_adjacency(*params, alpha=alpha, k=k)


def test_dim_mismatch_rejected():
    for shapes in [((4, 3), (4, 3), (5, 5), (5, 5)),   # mixing dim differs from embedding dim
                   ((4, 3), (5, 3), (3, 3), (3, 3)),   # embedding tables differ
                   ((4, 3), (4, 3), (3, 3), (3, 2)),   # mixing matrix not square
                   ((4, 3), (4, 3), (3, 3), (2, 2)),   # mixing matrices differ
                   ((4,), (4,), (1, 1), (1, 1))]:      # embeddings not a matrix
        with pytest.raises(ShapeError):
            learn_adjacency(*(Tensor(np.ones(s)) for s in shapes), alpha=3.0, k=2)


def test_gradients_reach_embeddings_through_mask():
    rng = Rng(9)
    params = [*embeddings(rng, 5, 3), *mixers(rng.split(), 3)]
    with Tape() as tape:
        loss = sum_(learn_adjacency(*params, alpha=3.0, k=2))
    tape.backward(loss)
    grads = [p.grad for p in params]
    assert all(g is not None for g in grads)
    assert any(np.any(g != 0) for g in grads)


def test_top_k_row_mask_ties_and_saturation():
    vals = np.array([[1.0, 1.0, 0.5], [0.2, 0.9, 0.9]])
    mask = top_k_row_mask(vals, 1)
    np.testing.assert_array_equal(mask, [[1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(top_k_row_mask(vals, 3), np.ones((2, 3)))
    np.testing.assert_array_equal(top_k_row_mask(vals, 7), np.ones((2, 3)))


@st.composite
def small_integer_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, 3), min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols), draw(st.integers(1, cols + 1))


@settings(max_examples=200, deadline=None)
@given(small_integer_matrices())
def test_top_k_row_mask_matches_the_per_row_reference(case):
    # Entries from {0, 1, 2, 3} tie often; ties go to the lowest column.
    values, k = case
    expected = np.zeros_like(values)
    for i, row in enumerate(values):
        expected[i, np.argsort(-row, kind="stable")[:k]] = 1.0
    got = top_k_row_mask(values, k)
    assert got.dtype == values.dtype
    np.testing.assert_array_equal(got, expected)


# -- AdjacencyMatrix invariants ------------------------------------------------------

def test_adjacency_validation():
    with pytest.raises(DataError):
        AdjacencyMatrix(labels=("a", "b"), values=np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(DataError):
        AdjacencyMatrix(labels=("a", "b"), values=np.array([[0.5, 1.0], [0.0, 0.0]]))
    with pytest.raises(DataError):
        AdjacencyMatrix(labels=("a", "a"), values=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        AdjacencyMatrix(labels=("a", "b"), values=np.zeros((2, 3)))


def test_snapshot_default_labels():
    # train() snapshots the learned graph of an MtgnnModel; without labels
    # its nodes are named by position.
    values = np.cumsum(np.random.default_rng(4).normal(0, 0.1, size=(40, 3)), axis=0)
    windows = make_windows(build_frame(values), WindowSpec(P=8, Q=1))
    model = MtgnnModel(MtgnnConfig(num_nodes=3, num_layers=2, embedding_dim=2, input_window=8, k=1),
                       Rng(4))
    adj = train(model, windows, windows, TrainConfig(epochs=0)).adjacency
    assert adj.labels == ("series_0", "series_1", "series_2")
    np.testing.assert_array_equal(adj.values, model.adjacency().data)
    assert np.all((adj.values > 0).sum(axis=1) <= 1)


# -- out-degree oracles ---------------------------------------------------------------

def test_zero_matrix_degrees():
    adj = AdjacencyMatrix(labels=("a", "b", "c"), values=np.zeros((3, 3)))
    np.testing.assert_array_equal(out_degree(adj, 1), [0, 0, 0])
    np.testing.assert_array_equal(out_degree(adj, 2), [0, 0, 0])


def test_fixture_one_hop_degrees(fixture_adj):
    np.testing.assert_array_equal(out_degree(fixture_adj, 1), FIXTURE_ONE_HOP)


def test_fixture_two_hop_degrees(fixture_adj):
    by = dict(zip(fixture_adj.labels, out_degree(fixture_adj, 2)))
    for label, expected in FIXTURE_TWO_HOP.items():
        assert by[label] == expected


def test_one_hop_sum_equals_edge_count(fixture_adj):
    edges = int((fixture_adj.values > 0).sum())
    assert int(out_degree(fixture_adj, 1).sum()) == edges


def test_degree_invariant_under_rescaling(fixture_adj):
    scaled = AdjacencyMatrix(labels=fixture_adj.labels, values=fixture_adj.values * 17.0)
    np.testing.assert_array_equal(out_degree(scaled, 1), out_degree(fixture_adj, 1))
    np.testing.assert_array_equal(out_degree(scaled, 2), out_degree(fixture_adj, 2))


def test_hops_validated(fixture_adj):
    with pytest.raises(DomainError):
        out_degree(fixture_adj, 3)


# -- influence ranking -----------------------------------------------------------------

def test_g7_ranking_two_hop(fixture_adj):
    ranking = rank_influence(fixture_adj, hops=2, group=G7_COUNTRIES)
    assert ranking[0] == ("US", 39)
    assert ranking[1] == ("Canada", 34)


def test_mint_ranking_one_hop(fixture_adj):
    ranking = rank_influence(fixture_adj, hops=1, group=MINT_COUNTRIES)
    assert ranking[0] == ("Indonesia", 7)
    assert ranking[1] == ("Türkiye", 6)


def test_ties_break_lexicographically(fixture_adj):
    ranking = rank_influence(fixture_adj, hops=1)
    fives = [lbl for lbl, d in ranking if d == 5]
    assert fives == sorted(fives)


def test_single_node_group(fixture_adj):
    assert rank_influence(fixture_adj, hops=1, group=["Italy"]) == [("Italy", 1)]


def test_unknown_label_rejected(fixture_adj):
    with pytest.raises(DataError):
        rank_influence(fixture_adj, group=["Atlantis"])


# -- CSV round-trip ----------------------------------------------------------------------

def test_csv_round_trip(tmp_path, fixture_adj):
    path = tmp_path / "adj.csv"
    text = matrix_csv("node", fixture_adj.labels, fixture_adj.values)
    path.write_text(text, encoding="utf-8", newline="")
    back = read_adjacency_csv(path)
    assert back.labels == fixture_adj.labels
    np.testing.assert_array_equal(back.values, fixture_adj.values)


def test_csv_label_mismatch_detected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node,a,b\nb,0,1\na,0,0\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_adjacency_csv(path)


def test_csv_wrong_row_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("node,a,b\na,0,1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_adjacency_csv(path)
