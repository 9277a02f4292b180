"""Acceptance gate: one test per shipped guarantee, run with `pytest -v`.

Each criterion is a single test function, so the verbose run prints exactly
one PASS/FAIL line per criterion. Criterion 9 needs the real eleven-index
price history and is skipped unless MARKETGRAPH_REAL_CSV points at it.
"""
import os
import time
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from conftest import build_frame

from marketgraph import (
    MtgnnConfig, MtgnnModel, Rng, Tensor, TrainConfig, WindowSpec, dtw_distance,
    edge_precision, grad_check, grad_check_params, load_csv, mae, mape, out_degree,
    rank_influence, rmse, rse, run_comparison, run_pipeline, spearman, spearman_matrix,
    train,
)
from marketgraph.autodiff import (
    abs_, add_bias, causal_conv1d, channel_linear, graph_mix, last_step, matmul,
    mean, permute, relu, reshape, row_normalize, sigmoid, stack_last, tanh, time_index,
)
from marketgraph.data import (
    NormStats, RebaseRule, SplitSpec, apply_rebase_rules, chronological_split,
    invert_predictions, log_transform, normalize,
)
from marketgraph.graph import learn_adjacency, read_adjacency_csv
from marketgraph.mtgnn import gated_temporal_conv, propagation_stack
from marketgraph.synthetic import coupled_var_system
from marketgraph.training import ComparisonSpec
from reference_ops import transpose

FIXTURES = Path(__file__).parent / "fixtures"
GEN = np.random.default_rng(2024)


def _report(name: str, detail: str = ""):
    print(f"CRITERION {name}: PASS {detail}".rstrip())


# -- 1: influence rankings on the frozen eleven-node fixture -------------------------


def test_criterion_1_influence_reproduction():
    t0 = time.monotonic()
    adj = read_adjacency_csv(FIXTURES / "g7_mint_adjacency.csv")
    assert adj.labels == ("Italy", "Türkiye", "France", "UK", "Germany", "US",
                          "Canada", "Indonesia", "Mexico", "Japan", "Nigeria")
    one_hop = out_degree(adj, hops=1)
    np.testing.assert_array_equal(one_hop, [1, 6, 4, 3, 5, 7, 5, 7, 5, 3, 2])
    degrees = dict(zip(adj.labels, one_hop.tolist()))
    assert degrees["US"] == 7 and degrees["Indonesia"] == 7
    assert degrees["Germany"] == 5 and degrees["Canada"] == 5
    assert degrees["Türkiye"] == 6

    two_hop = dict(zip(adj.labels, out_degree(adj, hops=2).tolist()))
    assert two_hop["US"] == 39
    assert two_hop["Canada"] == 34
    assert two_hop["Indonesia"] == 31
    assert two_hop["Türkiye"] == 25

    # group rankings drawn from the same arithmetic
    g7_two_hop = rank_influence(adj, hops=2, group=("Italy", "France", "UK",
                                                    "Germany", "US", "Canada", "Japan"))
    assert g7_two_hop[0] == ("US", 39) and g7_two_hop[1] == ("Canada", 34)
    mint_one_hop = rank_influence(adj, hops=1, group=("Mexico", "Indonesia",
                                                      "Nigeria", "Türkiye"))
    assert mint_one_hop[0] == ("Indonesia", 7) and mint_one_hop[1] == ("Türkiye", 6)

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report("1", f"(influence rankings exact, {elapsed:.3f}s)")


# -- 2: error metrics against hand-computed oracles ----------------------------------


def test_criterion_2_metric_oracles():
    tol = 1e-12
    fixtures = [
        # (y_true, y_pred, {metric: hand value})
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
         {"rse": 0.0, "rmse": 0.0, "mae": 0.0, "mape": 0.0}),
        ([0.5, 1.5], [0.5, 1.5],
         {"rse": 0.0, "rmse": 0.0, "mae": 0.0, "mape": 0.0}),
        ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0],
         {"rse": 1.0, "mae": 2.0 / 3.0, "rmse": np.sqrt(2.0 / 3.0),
          "mape": 4.0 / 9.0}),
        ([2.0, 4.0], [3.0, 3.0],
         {"rse": 1.0, "mae": 1.0, "rmse": 1.0, "mape": 0.375}),
        ([1.0, 2.0], [1.0, 3.0],
         {"rmse": np.sqrt(0.5), "mae": 0.5, "mape": 0.25, "rse": 2.0}),
        ([10.0, 20.0, 30.0, 40.0], [11.0, 19.0, 33.0, 37.0],
         {"mae": 2.0, "rmse": np.sqrt(5.0), "mape": 0.08125, "rse": 0.04}),
        ([1.0, -1.0], [-1.0, 1.0],
         {"mae": 2.0, "rmse": 2.0, "mape": 2.0, "rse": 4.0}),
        ([100.0, 200.0], [90.0, 210.0],
         {"mae": 10.0, "rmse": 10.0, "mape": 0.075, "rse": 200.0 / 5000.0}),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 8.0]],
         {"mae": 1.0, "rmse": 2.0, "mape": 0.25, "rse": 3.2}),
        ([-10.0, -20.0], [-12.0, -18.0],
         {"mae": 2.0, "rmse": 2.0, "mape": 0.15, "rse": 0.16}),
        ([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0],
         {"mae": 2.0, "rmse": np.sqrt(5.0), "mape": 55.0 / 48.0, "rse": 4.0}),
        ([4.0, 8.0], [5.0, 6.0],
         {"mae": 1.5, "rmse": np.sqrt(2.5), "mape": 0.25, "rse": 5.0 / 8.0}),
    ]
    assert len(fixtures) >= 10
    funcs = {"rse": rse, "rmse": rmse, "mae": mae, "mape": mape}
    for y, p, expected in fixtures:
        for name, value in expected.items():
            got = funcs[name](np.array(y), np.array(p))
            assert got == pytest.approx(value, abs=tol), (y, p, name)

    # the mean predictor has relative squared error exactly 1 by construction
    y = GEN.normal(10.0, 3.0, size=200)
    assert rse(y, np.full(200, y.mean())) == pytest.approx(1.0, abs=tol)
    _report("2", f"({len(fixtures)} hand fixtures at 1e-12)")


# -- 3: gradients vs central finite differences --------------------------------------


def test_criterion_3_gradient_correctness():
    t0 = time.monotonic()
    tol = 1e-4
    a = Tensor(GEN.normal(size=(3, 4)))
    b = Tensor(GEN.normal(size=(3, 4)))
    m2 = Tensor(GEN.normal(size=(4, 5)))
    pos = Tensor(GEN.uniform(0.5, 2.0, size=(3, 4)))
    off_kink = Tensor(GEN.uniform(0.2, 1.0, size=(3, 4)) * np.where(
        GEN.uniform(size=(3, 4)) < 0.5, -1.0, 1.0))
    x4 = Tensor(GEN.normal(size=(2, 3, 4, 6)))
    kern = Tensor(GEN.normal(size=(3, 3, 2)))
    gated_kern = Tensor(np.concatenate([kern.data, kern.data]))
    gated_bias = Tensor(np.zeros(6))
    lin = Tensor(GEN.normal(size=(3, 5)))
    bias = Tensor(GEN.normal(size=5))
    adjacency = Tensor(GEN.uniform(0.1, 1.0, size=(4, 4)))
    # The fused graph ops draw from a stream of their own, so GEN's later draws stay put.
    fused = np.random.default_rng(3)
    emb1, emb2 = Tensor(fused.normal(size=(4, 3))), Tensor(fused.normal(size=(4, 3)))
    mix1, mix2 = Tensor(fused.normal(size=(3, 3))), Tensor(fused.normal(size=(3, 3)))
    adj_probe, props_probe = Tensor(fused.normal(size=(4, 4))), Tensor(fused.normal(size=(6, 4, 4)))

    checks = {
        "add": (lambda t: mean((t + b) * (t + b)), a),
        "sub": (lambda t: mean((t - b) * (t - b)), a),
        "mul": (lambda t: mean(t * b * t), a),
        "neg": (lambda t: mean(-t * b), a),
        "matmul": (lambda t: mean(matmul(t, m2)), a),
        "tanh": (lambda t: mean(tanh(t)), a),
        "sigmoid": (lambda t: mean(sigmoid(t)), a),
        "relu": (lambda t: mean(relu(t)), off_kink),
        "abs": (lambda t: mean(abs_(t)), off_kink),
        "mean": (lambda t: mean(t) * mean(t), a),
        "reshape": (lambda t: mean(reshape(t, (4, 3)) * reshape(b, (4, 3))), a),
        "permute": (lambda t: mean(permute(t, (1, 0)) * permute(b, (1, 0))), a),
        "transpose": (lambda t: mean(transpose(t) * transpose(b)), a),
        "time_index": (lambda t: mean(time_index(t, 2)), x4),
        "last_step": (lambda t: mean(last_step(t)), x4),
        "stack_last": (lambda t: mean(stack_last([t, t * t])), a),
        "row_normalize": (lambda t: mean(row_normalize(t)), pos),
        "add_bias": (lambda t: mean(add_bias(x4, t, 1)), Tensor(GEN.normal(size=3))),
        "causal_conv1d_x": (lambda t: mean(causal_conv1d(t, kern, 2)), x4),
        "causal_conv1d_w": (lambda t: mean(causal_conv1d(x4, t, 2)), kern),
        "channel_linear_x": (lambda t: mean(channel_linear(t, lin)), x4),
        "channel_linear_w": (lambda t: mean(channel_linear(x4, t)), lin),
        "graph_mix_a": (lambda t: mean(graph_mix(t, x4)), adjacency),
        "graph_mix_x": (lambda t: mean(graph_mix(adjacency, t)), x4),
        "gated_conv": (lambda t: mean(gated_temporal_conv(t, gated_kern, 1, gated_bias)), x4),
        "gated_conv_w": (lambda t: mean(gated_temporal_conv(x4, t, 2, gated_bias)), gated_kern),
        "gated_conv_b": (lambda t: mean(gated_temporal_conv(x4, gated_kern, 2, t)), gated_bias),
        "learn_adjacency_e": (
            lambda t: mean(learn_adjacency(t, emb1, mix1, mix2, 2.0, 2) * adj_probe), emb2),
        "learn_adjacency_theta": (
            lambda t: mean(learn_adjacency(emb1, emb2, mix1, t, 2.0, 2) * adj_probe), mix2),
        "propagation_stack": (lambda t: mean(propagation_stack(t, 2, 0.3) * props_probe), adjacency),
    }
    worst = {}
    for name, (f, x) in checks.items():
        leaf = Tensor(x.data.copy(), requires_grad=True)
        worst[name] = grad_check(f, leaf)
        assert worst[name] <= tol, (name, worst[name])

    # reduced end-to-end model: every parameter probed by finite differences
    cfg = MtgnnConfig(num_nodes=3, input_window=16, horizon=1, num_layers=2,
                      conv_channels=4, residual_channels=4, skip_channels=6,
                      embedding_dim=3, gc_depth=1, dropout=0.0, k=2)
    model = MtgnnModel(cfg, Rng(5))
    x = GEN.normal(size=(2, 3, 16))
    y = Tensor(GEN.normal(size=(2, 3, 1)))

    def loss_fn():
        return mean(abs_(model.forward_batch(x) - y))

    model_err = grad_check_params(loss_fn, model.parameters())
    assert model_err <= tol

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report("3", f"(max op error {max(worst.values()):.2e}, model {model_err:.2e}, {elapsed:.1f}s)")


# -- 4: pipeline arithmetic -----------------------------------------------------------


def test_criterion_4_pipeline_arithmetic():
    # split sizes on the reference row count
    rows = 4580
    values = np.exp(np.cumsum(GEN.normal(0, 0.01, size=(rows, 2)), axis=0)) * 100.0
    frame = build_frame(values)
    tr, va, te = chronological_split(frame, SplitSpec())
    assert (tr.num_rows, va.num_rows, te.num_rows) == (2748, 916, 916)

    # rebasing divides strictly-pre-cutoff rows only
    cutoff = frame.dates[10]
    adjusted = apply_rebase_rules(frame, [RebaseRule(frame.columns[0], cutoff, 100.0)])
    np.testing.assert_allclose(adjusted.values[:10, 0], frame.values[:10, 0] / 100.0,
                               rtol=0, atol=0)
    np.testing.assert_array_equal(adjusted.values[10:, 0], frame.values[10:, 0])
    np.testing.assert_array_equal(adjusted.values[:, 1], frame.values[:, 1])

    # transform round-trips
    logged = log_transform(frame)
    np.testing.assert_allclose(np.exp(logged.values), frame.values, atol=1e-12, rtol=0)
    stats = NormStats(logged.columns, logged.values.mean(axis=0), logged.values.std(axis=0))
    normalized = normalize(logged, stats)
    np.testing.assert_allclose(np.log(invert_predictions(normalized.values, stats)), logged.values,
                               atol=1e-9, rtol=0)

    # windows never straddle split boundaries: poison everything outside the
    # training split and confirm the training windows are bit-identical
    spec = WindowSpec(P=12, Q=1)
    clean = run_pipeline(frame, spec)
    poisoned_values = frame.values.copy()
    poisoned_values[tr.num_rows:] = 1e9
    poisoned = run_pipeline(build_frame(poisoned_values), spec)
    np.testing.assert_array_equal(clean.train_windows.x, poisoned.train_windows.x)
    np.testing.assert_array_equal(clean.train_windows.y, poisoned.train_windows.y)
    _report("4", "(splits 2748/916/916, round-trips, sentinel containment)")


# -- 5: causality of every temporal path ----------------------------------------------


def test_criterion_5_causality():
    cut = 9
    x = GEN.normal(size=(2, 3, 2, 14))  # [B, C, N, T]
    x_future = x.copy()
    x_future[..., cut:] += 100.0

    # raw causal convolution
    w = Tensor(GEN.normal(size=(4, 3, 3)))
    base = causal_conv1d(Tensor(x), w, 2).data
    moved = causal_conv1d(Tensor(x_future), w, 2).data
    np.testing.assert_array_equal(base[..., :cut], moved[..., :cut])
    assert not np.array_equal(base[..., cut:], moved[..., cut:])

    # gated temporal convolution
    fk = Tensor(GEN.normal(size=(4, 3, 2)))
    gk = Tensor(GEN.normal(size=(4, 3, 2)))
    kernel = Tensor(np.concatenate([fk.data, gk.data]))
    zero = Tensor(np.zeros(8))
    base = gated_temporal_conv(Tensor(x), kernel, 1, zero).data
    moved = gated_temporal_conv(Tensor(x_future), kernel, 1, zero).data
    np.testing.assert_array_equal(base[..., :cut], moved[..., :cut])

    # TCN residual stack, per-block feature maps ([B, N, P] input)
    from marketgraph import TcnModel
    from marketgraph.baselines import TcnConfig
    xt = GEN.normal(size=(2, 3, 14))
    xt_future = xt.copy()
    xt_future[..., cut:] += 100.0
    tcn = TcnModel(TcnConfig(channels=4, num_blocks=2), Rng(3))
    for f_clean, f_moved in zip(tcn.temporal_features(xt), tcn.temporal_features(xt_future)):
        np.testing.assert_array_equal(f_clean[..., :cut], f_moved[..., :cut])

    # full graph model, per-layer feature maps (window must cover the
    # receptive field, so use a longer probe)
    xg = GEN.normal(size=(2, 3, 12))
    xg_future = xg.copy()
    xg_future[..., 8:] += 100.0
    cfg = MtgnnConfig(num_nodes=3, input_window=12, horizon=1, num_layers=2,
                      conv_channels=4, residual_channels=4, skip_channels=6,
                      embedding_dim=4, dropout=0.0, k=2)
    model = MtgnnModel(cfg, Rng(9))
    for f_clean, f_moved in zip(model.temporal_features(xg),
                                model.temporal_features(xg_future)):
        np.testing.assert_array_equal(f_clean[..., :8], f_moved[..., :8])
        assert not np.array_equal(f_clean[..., 8:], f_moved[..., 8:])
    _report("5", "(bit-invariant prefixes under future perturbation)")


# -- 6: alignment-distance and rank-correlation properties ----------------------------


def test_criterion_6_dtw_spearman_properties():
    tol = 1e-12
    series = GEN.normal(size=40)
    other = GEN.normal(size=33)
    assert dtw_distance(series, series) == 0.0
    assert dtw_distance(series, other) == pytest.approx(
        dtw_distance(other, series), abs=tol)
    assert dtw_distance([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0]) == pytest.approx(0.0, abs=tol)
    assert dtw_distance([0.0, 0.0], [1.0]) == pytest.approx(2.0, abs=tol)

    frame = build_frame(np.exp(GEN.normal(size=(60, 4))))
    corr = spearman_matrix(frame)
    np.testing.assert_allclose(np.diag(corr), np.ones(4), atol=tol, rtol=0)
    np.testing.assert_allclose(corr, corr.T, atol=tol, rtol=0)
    assert (np.abs(corr) <= 1.0 + tol).all()

    x = GEN.normal(size=50)
    y = GEN.normal(size=50)
    base = spearman(x, y)
    # exact invariance under strictly increasing transforms
    assert spearman(np.exp(x), y) == pytest.approx(base, abs=tol)
    assert spearman(x, y ** 3 + 2.0 * y) == pytest.approx(base, abs=tol)
    assert spearman(5.0 * x + 1.0, y) == pytest.approx(base, abs=tol)
    assert spearman(x, x) == pytest.approx(1.0, abs=tol)
    assert spearman(x, -x) == pytest.approx(-1.0, abs=tol)
    assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8, abs=tol)
    _report("6", "(distance and correlation properties exact)")


# -- 7: seeded end-to-end benchmark ----------------------------------------------------


def test_criterion_7_synthetic_end_to_end():
    t0 = time.monotonic()
    system = coupled_var_system(num_nodes=6, steps=3000, seed=101,
                                noise_scale=0.005, self_weight=0.5,
                                trend_range=(1.0, 1.4))
    window = WindowSpec(P=30, Q=1)
    pipeline = run_pipeline(system.frame, window)

    spec = ComparisonSpec(train=TrainConfig(epochs=30, seed=7),
                          include=("persistence", "ar", "mtgnn"))
    result = run_comparison(pipeline, window, spec)
    assert result.errors == {}

    history = result.histories["mtgnn"]
    assert len(history) == 30
    ratio = history[-1]["train_loss"] / history[0]["train_loss"]
    assert ratio <= 0.30, f"loss ratio {ratio:.3f}"

    def mean_mape(name, scale="per_series"):
        return float(np.mean([getattr(result.reports[name], scale)[s]["mape"]
                              for s in result.series]))

    model_mape = mean_mape("mtgnn")
    ar_mape = mean_mape("ar")
    persistence_mape = mean_mape("persistence")
    assert model_mape < ar_mape
    assert model_mape < persistence_mape
    # the paper's claim is about prices: the same ordering on the price scale
    model_price_mape = mean_mape("mtgnn", "price_per_series")
    assert model_price_mape < mean_mape("ar", "price_per_series")
    assert model_price_mape < mean_mape("persistence", "price_per_series")

    # determinism: the same seeds reproduce history and metrics bit-for-bit
    def short_run():
        p = run_pipeline(system.frame, window)
        root = Rng(7)
        model = MtgnnModel(MtgnnConfig(num_nodes=6, input_window=30, horizon=1),
                           root.split())
        r = train(model, p.train_windows, p.validation_windows,
                  TrainConfig(epochs=2, seed=7), rng=root.split())
        from marketgraph import evaluate
        report = evaluate(r.model, p.test_windows, p.stats, p.train.columns).report
        return r.history, report.per_series

    h1, m1 = short_run()
    h2, m2 = short_run()
    assert h1 == h2
    assert m1 == m2

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report("7", f"(ratio {ratio:.3f}, MAPE {model_mape:.4f} < ar {ar_mape:.4f} "
                 f"< persistence..., price MAPE {model_price_mape:.5f}, deterministic, "
                 f"{elapsed:.0f}s)")


# -- 8: structure-recovery diagnostic (reported, never gating) -------------------------


def test_criterion_8_graph_recovery_diagnostic():
    precisions = []
    for seed in range(5):
        system = coupled_var_system(num_nodes=6, steps=1200, seed=seed,
                                    coupling_strength=0.5, self_weight=0.25,
                                    noise_scale=0.05, trend_range=(0.1, 0.3))
        pipeline = run_pipeline(system.frame, WindowSpec(P=16, Q=1))
        cfg = MtgnnConfig(num_nodes=6, input_window=16, horizon=1, num_layers=2,
                          conv_channels=8, residual_channels=8, skip_channels=16,
                          embedding_dim=8, k=5, dropout=0.0)
        root = Rng(seed)
        model = MtgnnModel(cfg, root.split())
        result = train(model, pipeline.train_windows, pipeline.validation_windows,
                       TrainConfig(epochs=8, batch_size=16, learning_rate=0.005,
                                   seed=seed), rng=root.split())
        precisions.append(edge_precision(result.adjacency.values, system.true_edges))

    mean_precision = float(np.mean(precisions))
    detail = f"(edge precision per seed {['%.2f' % p for p in precisions]}, mean {mean_precision:.3f})"
    if mean_precision < 0.4:
        warnings.warn(f"learned-edge precision regressed below 0.4: {detail}",
                      stacklevel=1)
    _report("8", detail)


# -- 9: reproduction on the real data, when supplied ----------------------------------

REFERENCE_STATS = {
    # mean, min, max of each index over 2012-01-30..2024-08-14 (integer-rounded)
    "FTSE MIB": (21732, 12358, 35401),
    "BIST 100": (1969, 541, 11194),
    "CAC 40": (5308, 2929, 8242),
    "FTSE 100": (6914, 4994, 8446),
    "DAX": (11990, 5976, 18875),
    "S&P 500": (2886, 1278, 5644),
    "S&P/TSX": (16280, 11310, 23105),
    "IDX COMPOSITE": (5671, 3697, 7422),
    "IPC MEXICO": (45960, 33338, 58856),
    "NIKKEI 225": (21605, 8279, 42344),
    "NSE 30": (1635, 872, 3984),
}


def test_criterion_9_conditional_real_data_reproduction():
    path = os.environ.get("MARKETGRAPH_REAL_CSV")
    if not path:
        pytest.skip("set MARKETGRAPH_REAL_CSV to the eleven-index price CSV to run")
    frame = load_csv(path)
    assert frame.num_rows == 4580
    assert len(frame.columns) == 11

    # undo the 2020-07-27 hundredfold redenomination of the Turkish index;
    # the affected column is the one whose raw maximum is off the charts
    raw_max = frame.values.max(axis=0)
    bist_column = frame.columns[int(np.argmax(raw_max))]
    frame = apply_rebase_rules(frame, [RebaseRule(bist_column, date(2020, 7, 27), 100.0)])

    # match each column to a reference row by mean, then pin mean/min/max
    matched = {}
    for j, column in enumerate(frame.columns):
        col_mean = frame.values[:, j].mean()
        name = min(REFERENCE_STATS, key=lambda k: abs(REFERENCE_STATS[k][0] - col_mean))
        assert name not in matched.values(), f"two columns match {name}"
        matched[column] = name
        expect_mean, expect_min, expect_max = REFERENCE_STATS[name]
        assert abs(col_mean - expect_mean) <= 1.0, (column, name, col_mean)
        assert abs(frame.values[:, j].min() - expect_min) <= 1.0
        assert abs(frame.values[:, j].max() - expect_max) <= 1.0
    assert len(matched) == 11

    # forecast quality directionality: graph model beats scalar AR on most series
    window = WindowSpec(P=30, Q=1)
    pipeline = run_pipeline(frame, window)
    spec = ComparisonSpec(train=TrainConfig(epochs=30, seed=0), include=("ar", "mtgnn"))
    result = run_comparison(pipeline, window, spec)
    assert result.errors == {}
    wins = sum(result.reports["mtgnn"].per_series[s]["mape"]
               < result.reports["ar"].per_series[s]["mape"] for s in result.series)
    assert wins >= 8, f"graph model beats AR on only {wins}/11 series"
    _report("9", f"(descriptive stats within ±1, wins {wins}/11)")
