"""Forecast error metrics, rank correlation, and warping distance."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import (
    DataError, DomainError, ShapeError, dtw_distance, dtw_matrix, mae, mape, rmse, rse,
    spearman, spearman_matrix,
)
from marketgraph.data import matrix_csv
from marketgraph.metrics import MetricsReport, _dtw_wavefront, average_ranks, per_series_metrics
from conftest import build_frame
from reference_ops import dtw_wavefront as pairs_first_wavefront

T = 1e-12


# -- error metrics: hand fixtures ----------------------------------------------

def test_perfect_prediction_zeroes_every_metric():
    y = np.array([1.0, 2.0, 3.0])
    for metric in (rse, rmse, mae, mape):
        assert metric(y, y) == 0.0


def test_mean_predictor_has_unit_rse():
    y = np.array([1.0, 2.0, 3.0])
    yhat = np.full(3, y.mean())
    assert abs(rse(y, yhat) - 1.0) < T


def test_fixture_two_point():
    y, yhat = np.array([1.0, 2.0]), np.array([1.0, 3.0])
    assert abs(rmse(y, yhat) - np.sqrt(0.5)) < T
    assert abs(mae(y, yhat) - 0.5) < T
    assert abs(mape(y, yhat) - 0.25) < T
    assert abs(rse(y, yhat) - 2.0) < T


def test_fixture_four_point():
    y = np.array([10.0, 20.0, 30.0, 40.0])
    yhat = np.array([11.0, 19.0, 33.0, 37.0])
    assert abs(mae(y, yhat) - 2.0) < T
    assert abs(rmse(y, yhat) - np.sqrt(5.0)) < T
    assert abs(mape(y, yhat) - 0.08125) < T
    assert abs(rse(y, yhat) - 0.04) < T


def test_fixture_signed_values():
    y, yhat = np.array([-2.0, 2.0]), np.array([-1.0, 1.0])
    assert abs(mape(y, yhat) - 0.5) < T
    assert abs(rse(y, yhat) - 0.25) < T
    assert abs(mae(y, yhat) - 1.0) < T
    assert abs(rmse(y, yhat) - 1.0) < T


def test_fixture_symmetric_mean():
    y, yhat = np.array([4.0, 6.0]), np.array([5.0, 5.0])
    assert abs(rse(y, yhat) - 1.0) < T
    assert abs(mape(y, yhat) - 5.0 / 24.0) < T


def test_fixture_mean_predictor_three_point():
    y, yhat = np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0])
    assert abs(rmse(y, yhat) - np.sqrt(2.0 / 3.0)) < T
    assert abs(mae(y, yhat) - 2.0 / 3.0) < T
    assert abs(mape(y, yhat) - 4.0 / 9.0) < T


def test_fixture_scalar_pair():
    y, yhat = np.array([2.0]), np.array([1.0])
    assert abs(rmse(y, yhat) - 1.0) < T
    assert abs(mae(y, yhat) - 1.0) < T
    assert abs(mape(y, yhat) - 0.5) < T


def test_fixture_two_dimensional_flattening():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    yhat = y + np.array([[1.0, -1.0], [1.0, -1.0]])
    assert abs(mae(y, yhat) - 1.0) < T
    assert abs(rmse(y, yhat) - 1.0) < T
    assert abs(rse(y.ravel(), yhat.ravel()) - rse(y, yhat)) < T


def test_fixture_mape_is_fraction_not_percent():
    y, yhat = np.array([100.0]), np.array([90.0])
    assert abs(mape(y, yhat) - 0.1) < T


def test_rse_constant_target_rejected():
    with pytest.raises(DomainError):
        rse(np.array([5.0, 5.0]), np.array([4.0, 6.0]))


def test_mape_zero_target_rejected():
    with pytest.raises(DomainError):
        mape(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_metric_input_validation():
    for metric in (rse, rmse, mae, mape):
        with pytest.raises(ShapeError):
            metric(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ShapeError):
            metric(np.array([]), np.array([]))
    with pytest.raises(DataError):
        mae(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(DataError):
        rmse(np.array([1.0]), np.array([np.inf]))


def test_metrics_refuse_a_cell_that_is_not_a_number():
    calls = [(f, (["a", "1"], [1.0, 2.0])) for f in (rse, rmse, mae, mape)]
    calls += [(spearman, ([1.0, 2.0, 3.0], [1.0, "b", 3.0])), (dtw_distance, (["a"], [1.0])),
              (mae, ([{}], [1.0])), (per_series_metrics, ([["a"]], [[1.0]], ["s"]))]
    for fn, args in calls:
        with pytest.raises(DataError, match="numeric"):
            fn(*args)


# -- average ranks and Spearman ------------------------------------------------

def test_average_ranks_plain_and_tied():
    np.testing.assert_allclose(average_ranks([30.0, 10.0, 20.0]), [3.0, 1.0, 2.0])
    np.testing.assert_allclose(average_ranks([1.0, 1.0, 2.0]), [1.5, 1.5, 3.0])
    np.testing.assert_allclose(average_ranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])


def test_spearman_four_point_fixture():
    rho = spearman(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 4.0, 3.0]))
    assert abs(rho - 0.8) < T


def test_spearman_perfect_and_reversed():
    x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    assert abs(spearman(x, x) - 1.0) < T
    assert abs(spearman(x, -x) + 1.0) < T


def test_spearman_invariant_under_monotone_transform():
    gen = np.random.default_rng(3)
    x = gen.normal(size=40)
    y = gen.normal(size=40)
    base = spearman(x, y)
    assert abs(spearman(np.exp(x), y) - base) < T
    assert abs(spearman(x, y ** 3) - base) < T
    assert abs(spearman(2.0 * x + 7.0, y) - base) < T


def test_spearman_range_and_validation():
    gen = np.random.default_rng(4)
    for _ in range(20):
        rho = spearman(gen.normal(size=10), gen.normal(size=10))
        assert -1.0 <= rho <= 1.0
    with pytest.raises(DataError):
        spearman(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        spearman(np.ones(5), np.arange(5.0))


def test_spearman_refuses_nonfinite_input():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="finite"):
            spearman([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="finite"):
            spearman([1.0, 2.0, 3.0], [1.0, bad, 3.0])


def test_spearman_and_dtw_distance_refuse_input_that_is_not_one_series():
    for fn, args in ((dtw_distance, ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])),
                     (dtw_distance, ([1.0, 2.0], [[1.0], [2.0]])),
                     (dtw_distance, (1.0, [1.0])),
                     (spearman, ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 3.0, 4.0])),
                     (spearman, ([1.0, 2.0, 3.0], np.arange(3.0)[:, None]))):
        with pytest.raises(ShapeError, match="1-D"):
            fn(*args)


def average_ranks_reference(x):
    """Loop over the sorted values, one tie run at a time."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_average_ranks_equal_loop_reference_on_many_ties():
    gen = np.random.default_rng(11)
    for size in (1, 2, 7, 50, 300):
        for high in (1, 2, 4, 10):
            x = gen.integers(0, high, size=size).astype(np.float64)
            assert np.array_equal(average_ranks(x), average_ranks_reference(x))
    assert average_ranks([]).shape == (0,)


def test_average_ranks_refuses_input_that_is_not_one_finite_series():
    for bad in (2.0, [[1.0, 2.0], [3.0, 4.0]], np.zeros((3, 1))):
        with pytest.raises(ShapeError, match="1-D"):
            average_ranks(bad)
    for bad in (["a", "b"], [np.nan, 1.0, np.nan], [1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(DataError):
            average_ranks(bad)


def test_spearman_matrix_cells_equal_pairwise_spearman():
    values = np.random.default_rng(12).normal(size=(45, 5))
    values[:, 3] = np.round(values[:, 3])  # a column with ties
    frame = build_frame(values)
    m = spearman_matrix(frame)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert m[i, j] == spearman(values[:, i], values[:, j])


def test_spearman_matrix_errors_only_when_a_pair_is_correlated():
    assert np.array_equal(spearman_matrix(build_frame(np.array([[1.0], [2.0]]))), np.eye(1))
    with pytest.raises(DataError, match="at least 3"):
        spearman_matrix(build_frame(np.array([[1.0, 2.0], [2.0, 1.0]])))
    with pytest.raises(DataError, match="constant"):
        spearman_matrix(build_frame(np.hstack([np.arange(6.0)[:, None], np.ones((6, 1))])))


def test_spearman_matrix_diagonal_and_symmetry():
    frame = build_frame(np.random.default_rng(5).normal(size=(30, 4)))
    m = spearman_matrix(frame)
    np.testing.assert_allclose(np.diagonal(m), np.ones(4), atol=T)
    np.testing.assert_allclose(m, m.T, atol=T)
    assert np.all(m >= -1.0 - T) and np.all(m <= 1.0 + T)


# -- dynamic time warping ---------------------------------------------------------

def dtw_reference(x, y):
    """Plain quadratic DP table, the textbook recurrence."""
    n, m = len(x), len(y)
    full = np.full((n + 1, m + 1), np.inf)
    full[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = abs(x[i - 1] - y[j - 1])
            full[i, j] = cost + min(full[i - 1, j], full[i, j - 1], full[i - 1, j - 1])
    return float(full[n, m])


def test_dtw_self_distance_zero():
    x = np.random.default_rng(6).normal(size=25)
    assert dtw_distance(x, x) == 0.0


def test_dtw_warped_step_fixture():
    assert dtw_distance([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0]) == 0.0


def test_dtw_short_fixture():
    assert dtw_distance([0.0, 0.0], [1.0]) == 2.0


def test_dtw_symmetry():
    gen = np.random.default_rng(7)
    for _ in range(5):
        x, y = gen.normal(size=9), gen.normal(size=13)
        assert abs(dtw_distance(x, y) - dtw_distance(y, x)) < T


def test_dtw_bounded_by_diagonal_path():
    gen = np.random.default_rng(8)
    x, y = gen.normal(size=12), gen.normal(size=12)
    assert dtw_distance(x, y) <= np.abs(x - y).sum() + T


def test_dtw_matches_reference_dp():
    gen = np.random.default_rng(9)
    for n, m in ((5, 5), (8, 3), (1, 7), (20, 20), (13, 17)):
        x, y = gen.normal(size=n), gen.normal(size=m)
        assert abs(dtw_distance(x, y) - dtw_reference(x, y)) < T


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_dtw_distance_equals_reference_dp_exactly(x, y):
    assert dtw_distance(x, y) == dtw_reference(x, y)


def assert_same_bytes_as_pairs_first(x, y):
    out, ref = _dtw_wavefront(x, y), pairs_first_wavefront(x, y)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


# Few distinct values, signed zeros among them, so that ties between the
# three neighbours and repeated steps are common.
dtw_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]), st.floats(-1e6, 1e6))
dtw_lengths = st.one_of(st.just(1), st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), dtw_lengths, dtw_lengths, st.data())
def test_dtw_wavefront_gives_the_bytes_of_the_pairs_first_layout(P, n, m, data):
    x = np.array(data.draw(st.lists(dtw_values, min_size=P * n, max_size=P * n))).reshape(P, n)
    y = np.array(data.draw(st.lists(dtw_values, min_size=P * m, max_size=P * m))).reshape(P, m)
    assert_same_bytes_as_pairs_first(x, y)


def test_dtw_wavefront_gives_the_bytes_of_the_pairs_first_layout_at_benchmark_shape():
    gen = np.random.default_rng(24)
    assert_same_bytes_as_pairs_first(gen.normal(size=(15, 600)), gen.normal(size=(15, 600)))


def test_dtw_matrix_cells_equal_pairwise_distance():
    frame = build_frame(np.random.default_rng(13).normal(size=(35, 5)))
    z = (frame.values - frame.values.mean(axis=0)) / frame.values.std(axis=0)
    m = dtw_matrix(frame)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert m[i, j] == dtw_distance(z[:, i], z[:, j])


def test_dtw_matrix_single_column_is_zero():
    assert np.array_equal(dtw_matrix(build_frame(np.arange(4.0))), np.zeros((1, 1)))


def test_dtw_validation():
    with pytest.raises(ShapeError):
        dtw_distance([], [1.0])
    with pytest.raises(DataError):
        dtw_distance([np.nan], [1.0])


def test_dtw_matrix_zscored_symmetric():
    frame = build_frame(np.random.default_rng(10).normal(size=(40, 3)))
    m = dtw_matrix(frame)
    np.testing.assert_allclose(np.diagonal(m), np.zeros(3), atol=T)
    np.testing.assert_allclose(m, m.T, atol=T)
    # scaling a column must not change its z-scored distances
    scaled = frame.values.copy()
    scaled[:, 1] *= 50.0
    m2 = dtw_matrix(build_frame(scaled))
    np.testing.assert_allclose(m, m2, atol=1e-9)
    header = matrix_csv("series", frame.columns, m).splitlines()[0]
    assert header == "series," + ",".join(frame.columns)


def test_dtw_matrix_constant_column_rejected():
    frame = build_frame(np.hstack([np.ones((10, 1)), np.arange(10.0)[:, None]]))
    with pytest.raises(DataError):
        dtw_matrix(frame)


# -- report objects -----------------------------------------------------------------

def test_per_series_metrics_and_report_rendering():
    y_true = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    y_pred = y_true * 1.1
    per = per_series_metrics(y_true, y_pred, ("a", "b"))
    assert set(per) == {"a", "b"}
    assert abs(per["a"]["mape"] - 0.1) < 1e-9
    report = MetricsReport(model_kind="ar", series=("a", "b"), per_series=per,
                           config={}, split="test", seed=0)
    d = report.to_dict()
    assert d["model"] == "ar"
    assert d["metrics"]["b"]["mae"] == per["b"]["mae"]


def test_report_validates_metrics():
    with pytest.raises(DataError):
        MetricsReport(model_kind="x", series=("a",),
                      per_series={"a": {"rse": 0.1}}, config={}, split="test", seed=0)
    with pytest.raises(DomainError):
        MetricsReport(model_kind="x", series=("a",),
                      per_series={"a": {"rse": 0.1, "rmse": -1.0, "mae": 0.0,
                                        "mape": 0.0}},
                      config={}, split="test", seed=0)
    # a price-scale table, when given, is held to the same rules
    whole = {"a": {"rse": 0.1, "rmse": 0.2, "mae": 0.1, "mape": 0.01}}
    with pytest.raises(DataError):
        MetricsReport(model_kind="x", series=("a",), per_series=whole,
                      price_per_series={"b": whole["a"]})
    with pytest.raises(DomainError):
        MetricsReport(model_kind="x", series=("a",), per_series=whole,
                      price_per_series={"a": {**whole["a"], "mae": -0.5}})
