"""Graph-and-time convolutional forecaster: structure, gradients, causality."""
import base64

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import (
    ConfigError, MtgnnConfig, MtgnnModel, Rng, ShapeError, TcnModel, Tensor, grad_check_params,
)
from marketgraph.autodiff import grad_check, mix_hop, mul, sum_
from marketgraph.baselines import TcnConfig
from marketgraph.graph import read_adjacency_csv
from marketgraph.mtgnn import gated_temporal_conv, propagation_stack

GEN = np.random.default_rng(31)


def tiny_config(**overrides) -> MtgnnConfig:
    base = dict(num_nodes=3, num_layers=2, conv_channels=4, residual_channels=4,
                skip_channels=6, dropout=0.0, gc_depth=2, embedding_dim=4,
                input_window=8, horizon=1, k=2)
    base.update(overrides)
    return MtgnnConfig(**base)


# -- configuration ---------------------------------------------------------------

def test_default_architecture_numbers():
    cfg = MtgnnConfig(num_nodes=11)
    assert cfg.num_layers == 3
    assert [layer["dilation"] for layer in MtgnnModel(cfg, Rng(0)).layers] == [1, 2, 4]
    assert cfg.receptive_field == 8
    assert cfg.kernel_size == 2
    assert cfg.input_window == 30
    assert cfg.horizon == 1
    assert cfg.retain_ratio == 0.05
    assert (cfg.conv_channels, cfg.residual_channels, cfg.skip_channels) == (16, 16, 32)
    assert cfg.dropout == 0.3
    assert cfg.embedding_dim == 40
    assert cfg.sparsity == 5


def test_parameter_names_in_checkpoint_order():
    # The order of the checkpoint's "params" object at the default config.
    names = list(MtgnnModel(MtgnnConfig(num_nodes=6), Rng(0)).state_dict())
    layers = [f"layer{i}.{part}" for i in range(3) for part in ("gated.w", "gated.b", "skip.w", "mix.w")]
    assert names == ["emb.e1", "emb.e2", "graph.theta1", "graph.theta2", "start.w", "start.b",
                     *layers, "skip_end.w", "head1.w", "head1.b", "head2.w", "head2.b"]
    assert len(names) == 23


def test_receptive_field_grows_with_layers():
    assert MtgnnConfig(num_nodes=3, num_layers=1, input_window=2).receptive_field == 2
    assert MtgnnConfig(num_nodes=3, num_layers=2, input_window=4).receptive_field == 4
    assert MtgnnConfig(num_nodes=3, num_layers=4, input_window=16).receptive_field == 16


def test_window_shorter_than_receptive_field_rejected():
    with pytest.raises(ConfigError, match="receptive"):
        MtgnnConfig(num_nodes=3, num_layers=3, input_window=7)


def test_config_validation():
    with pytest.raises(ConfigError):
        MtgnnConfig(num_nodes=1)
    with pytest.raises(ConfigError):
        MtgnnConfig(num_nodes=3, dropout=1.0)
    with pytest.raises(ConfigError):
        MtgnnConfig(num_nodes=3, k=3)
    with pytest.raises(ConfigError):
        MtgnnConfig(num_nodes=3, kernel_size=1)


# -- building blocks ----------------------------------------------------------------

def test_normalized_propagation_rows_sum_to_one(fixtures_dir):
    adj = read_adjacency_csv(fixtures_dir / "g7_mint_adjacency.csv")
    # with no retention, hop 1 of the forward direction is row-normalized (A + I)
    p = propagation_stack(Tensor(adj.values), 1, 0.0).data[1]
    np.testing.assert_allclose(p.sum(axis=1), np.ones(11), atol=1e-12)
    assert np.all(p >= 0)


def mix_hop_rows(h, a, depth, beta, weights):
    """The forward direction of a layer's mix-hop on [N, C] features, built as the model builds it."""
    props = Tensor(propagation_stack(Tensor(a), depth, beta).data[:depth + 1])
    wide = Tensor(h.T[None, :, :, None])  # [1, C, N, 1]
    return mix_hop(wide, props, Tensor(np.stack(weights))).data[0, :, :, 0].T


def test_mix_hop_identity_graph_depth_math():
    # With A = 0 the propagation matrix is I, so every hop equals H and the
    # output collapses to H @ (W0 + W1 + ... ).
    n, c, d = 4, 3, 2
    h = GEN.normal(size=(n, c))
    weights = [GEN.normal(size=(c, d)) for _ in range(3)]
    out = mix_hop_rows(h, np.zeros((n, n)), depth=2, beta=0.3, weights=weights)
    expected = h @ (weights[0] + weights[1] + weights[2])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_mix_hop_depth_zero_is_plain_linear():
    n, c = 3, 2
    h = GEN.normal(size=(n, c))
    a = GEN.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    w0 = GEN.normal(size=(c, c))
    out = mix_hop_rows(h, a, depth=0, beta=0.5, weights=[w0])
    np.testing.assert_allclose(out, h @ w0, atol=1e-12)


def test_mix_hop_retention_blends_self_and_neighbors():
    # beta=1 keeps only the node's own features at every hop.
    n, c = 3, 2
    h = GEN.normal(size=(n, c))
    a = GEN.uniform(0.5, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    out = mix_hop_rows(h, a, depth=1, beta=1.0, weights=[np.eye(c), np.eye(c)])
    np.testing.assert_allclose(out, 2.0 * h, atol=1e-12)


@st.composite
def graphs(draw):
    """A nonnegative [N, N] adjacency with a zero diagonal, a depth and a retention."""
    n = draw(st.integers(2, 8))
    a = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(a, 0.0)
    return a, draw(st.integers(0, 3)), draw(st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_propagation_stack_matches_the_numpy_recursion(case):
    a, depth, beta = case
    n = a.shape[0]
    props = propagation_stack(Tensor(a), depth, beta).data
    assert props.shape == (2 * (depth + 1), n, n)
    eye = np.eye(n)
    for side, adj in enumerate((a, a.T)):
        a_norm = (adj + eye) / (adj + eye).sum(axis=1, keepdims=True)
        p = eye
        for k in range(depth + 1):
            if k:
                p = beta * eye + (1.0 - beta) * (a_norm @ p)
            np.testing.assert_allclose(props[side * (depth + 1) + k], p, rtol=0, atol=1e-12)
    # every hop matrix of either direction is row-stochastic
    assert np.all(props >= 0)
    np.testing.assert_allclose(props.sum(axis=2), 1.0, rtol=0, atol=1e-12)


def test_propagation_stack_gradient():
    a = GEN.uniform(0.1, 1.0, size=(4, 4))
    np.fill_diagonal(a, 0.0)
    r = Tensor(GEN.normal(size=(6, 4, 4)))
    err = grad_check(lambda t: sum_(mul(propagation_stack(t, 2, 0.3), r)), Tensor(a))
    assert err <= 1e-6, f"gradient mismatch {err:.3e}"
    with pytest.raises(ShapeError):
        propagation_stack(Tensor(np.ones((2, 3))), 1, 0.5)


def test_gated_conv_is_tanh_times_sigmoid():
    x = Tensor(GEN.normal(size=(1, 1, 1, 6)))
    fk = Tensor(GEN.normal(size=(2, 1, 2)))
    gk = Tensor(GEN.normal(size=(2, 1, 2)))
    from marketgraph.autodiff import causal_conv1d
    f = causal_conv1d(x, fk).data
    g = causal_conv1d(x, gk).data
    out = gated_temporal_conv(x, Tensor(np.concatenate([fk.data, gk.data])), dilation=1,
                              bias=Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, np.tanh(f) / (1.0 + np.exp(-g)), atol=1e-12)
    assert np.all(np.abs(out.data) <= 1.0)


def test_gated_conv_causal():
    x0 = GEN.normal(size=(2, 3, 4, 12))
    fk = Tensor(GEN.normal(size=(3, 3, 2)))
    gk = Tensor(GEN.normal(size=(3, 3, 2)))
    kernel = Tensor(np.concatenate([fk.data, gk.data]))
    zero = Tensor(np.zeros(6))
    base = gated_temporal_conv(Tensor(x0), kernel, dilation=2, bias=zero).data
    x1 = x0.copy()
    x1[..., 7:] = 50.0
    bumped = gated_temporal_conv(Tensor(x1), kernel, dilation=2, bias=zero).data
    np.testing.assert_array_equal(base[..., :7], bumped[..., :7])


# -- full model --------------------------------------------------------------------

def test_forward_shapes_and_determinism():
    model = MtgnnModel(tiny_config(horizon=2, input_window=8), Rng(0))
    x = GEN.normal(size=(5, 3, 8))
    out1 = model.forward_batch(x).data
    out2 = model.forward_batch(x).data
    assert out1.shape == (5, 3, 2)
    np.testing.assert_array_equal(out1, out2)
    single = model.forward_batch(x[:1]).data[0]
    assert single.shape == (3, 2)
    np.testing.assert_allclose(single, out1[0], atol=1e-12)


def test_forward_validates_input():
    model = MtgnnModel(tiny_config(), Rng(0))
    with pytest.raises(ShapeError):
        model.forward_batch(GEN.normal(size=(2, 4, 8)))  # wrong node count
    with pytest.raises(ShapeError):
        model.forward_batch(GEN.normal(size=(2, 3, 3)))  # below receptive field
    with pytest.raises(ShapeError):
        model.forward_batch(GEN.normal(size=(2, 3, 8))[0])  # one window without its batch axis


def test_dropout_changes_training_forward_only():
    model = MtgnnModel(tiny_config(dropout=0.4), Rng(1))
    x = GEN.normal(size=(3, 3, 8))
    eval1 = model.forward_batch(x).data
    eval2 = model.forward_batch(x, rng=None).data
    np.testing.assert_array_equal(eval1, eval2)
    train = model.forward_batch(x, rng=Rng(7)).data
    assert not np.allclose(train, eval1)


def test_node_permutation_equivariance():
    cfg = tiny_config(num_nodes=4, k=3)
    model = MtgnnModel(cfg, Rng(3))
    x = GEN.normal(size=(2, 4, 8))
    base = model.forward_batch(x).data

    perm = np.array([2, 0, 3, 1])
    state = model.state_dict()
    state["emb.e1"] = state["emb.e1"][perm]
    state["emb.e2"] = state["emb.e2"][perm]
    permuted = MtgnnModel(cfg, Rng(99))
    permuted.load_state_dict(state)
    out = permuted.forward_batch(x[:, perm, :]).data
    np.testing.assert_allclose(out, base[:, perm, :], atol=1e-9)


def test_residual_connections_are_live():
    cfg_on = tiny_config(use_residual=True)
    cfg_off = tiny_config(use_residual=False)
    model_on = MtgnnModel(cfg_on, Rng(5))
    model_off = MtgnnModel(cfg_off, Rng(5))
    model_off.load_state_dict(model_on.state_dict())
    x = GEN.normal(size=(2, 3, 8))
    assert not np.allclose(model_on.forward_batch(x).data,
                           model_off.forward_batch(x).data)


def test_temporal_features_causal_per_layer():
    model = MtgnnModel(tiny_config(), Rng(2))
    x = GEN.normal(size=(1, 3, 8))
    base = model.temporal_features(x)
    x2 = x.copy()
    x2[..., 5:] += 9.0
    bumped = model.temporal_features(x2)
    assert len(base) == 2
    for b, p in zip(base, bumped):
        np.testing.assert_array_equal(b[..., :5], p[..., :5])
        assert not np.allclose(b[..., 5:], p[..., 5:])


def test_gradients_flow_to_every_parameter():
    from marketgraph import Tape
    from marketgraph.autodiff import abs_, mean, sub
    # head2.b's l1 gradient is the mean of the residual signs, which an even
    # number of output cells can balance to exactly 0; 3 x 3 cells cannot.
    gen = np.random.default_rng(207)
    model = MtgnnModel(tiny_config(), Rng(4))
    x = gen.normal(size=(3, 3, 8))
    y = Tensor(gen.normal(size=(3, 3, 1)))
    with Tape() as tape:
        loss = mean(abs_(sub(model.forward_batch(x), y)))
    tape.backward(loss)
    dead = [name for name, p in model._params.items()
            if p.grad is None or not np.any(p.grad)]
    assert dead == []


def test_reduced_model_gradients_match_finite_differences():
    # N=3, 16-step window, 4 channels everywhere, full parameter sweep.
    cfg = MtgnnConfig(num_nodes=3, num_layers=2, conv_channels=4,
                      residual_channels=4, skip_channels=4, dropout=0.0,
                      gc_depth=1, embedding_dim=3, input_window=16, horizon=1, k=2)
    model = MtgnnModel(cfg, Rng(8))
    x = GEN.normal(size=(2, 3, 16))

    def loss_fn():
        return mean_abs(model.forward_batch(x))

    err = grad_check_params(loss_fn, model.parameters(), eps=1e-5)
    assert err <= 1e-4, f"worst relative gradient error {err:.2e}"


def mean_abs(t):
    from marketgraph.autodiff import abs_, mean
    return mean(abs_(t))


def test_predict_windows_chunking_consistent():
    # A window's forecast must not depend on which batch it shares: every
    # chunk size gives the same bits.
    x3 = GEN.normal(size=(70, 3, 8))
    models = [(MtgnnModel(tiny_config(), Rng(6)), x3),
              (MtgnnModel(tiny_config(num_nodes=11), Rng(6)), GEN.normal(size=(70, 11, 8))),
              (TcnModel(TcnConfig(channels=4, num_blocks=2), Rng(6)), x3)]
    for model, x in models:
        model.predict_chunk = 1
        one_by_one = model.predict_windows(x)
        for chunk in (2, 7, 64, 256):
            model.predict_chunk = chunk
            np.testing.assert_array_equal(model.predict_windows(x), one_by_one)
        with pytest.raises(ShapeError):
            model.predict_windows(x, horizon=3)


def test_adjacency_respects_sparsity():
    model = MtgnnModel(tiny_config(num_nodes=6, k=2), Rng(9))
    a = model.adjacency().data
    assert a.shape == (6, 6)
    assert np.all((a > 0).sum(axis=1) <= 2)
    np.testing.assert_array_equal(np.diagonal(a), np.zeros(6))


# -- persistence ------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = MtgnnModel(tiny_config(), Rng(10))
    x = GEN.normal(size=(3, 3, 8))
    expected = model.forward_batch(x).data
    path = tmp_path / "model.json"
    model.save(path)
    clone = MtgnnModel.load(path)
    np.testing.assert_array_equal(clone.forward_batch(x).data, expected)
    assert clone.config == model.config


def test_checkpoint_version_and_kind_checked(tmp_path):
    import json
    from marketgraph import DataError
    model = MtgnnModel(tiny_config(), Rng(11))
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format_version"] == 3
    assert doc["kind"] == "mtgnn"

    for version in (1, 2, 99):
        doc_bad = dict(doc)
        doc_bad["format_version"] = version
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc_bad), encoding="utf-8")
        with pytest.raises(DataError):
            MtgnnModel.load(bad_path)


def test_checkpoint_names_stacked_parameters(tmp_path):
    cfg = tiny_config()
    state = MtgnnModel(cfg, Rng(13)).state_dict()
    C, K, S = cfg.conv_channels, cfg.kernel_size, 2 * (cfg.gc_depth + 1)
    assert state["layer0.gated.w"].shape == (2 * C, cfg.residual_channels, K)
    assert state["layer0.gated.b"].shape == (2 * C,)
    assert state["layer0.mix.w"].shape == (S, C, cfg.residual_channels)


@pytest.mark.parametrize("damage", ["no_shape", "no_data", "wrong_length", "outside_base64",
                                    "not_whole_floats", "format_2_list", "negative_one",
                                    "negative", "bool_dimension"])
def test_malformed_checkpoint_entry_is_a_data_error(tmp_path, damage):
    import json
    from marketgraph import DataError
    path = tmp_path / "model.json"
    MtgnnModel(tiny_config(), Rng(14)).save(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    entry = doc["params"]["head2.w"]
    raw = base64.b64decode(entry["data"])
    if damage == "no_shape":
        del entry["shape"]
    elif damage == "no_data":
        del entry["data"]
    elif damage == "wrong_length":  # one float64 short of the shape
        entry["data"] = base64.b64encode(raw[:-8]).decode("ascii")
    elif damage == "outside_base64":  # a lenient decoder would skip the character
        entry["data"] = entry["data"][:4] + "*" + entry["data"][4:]
    elif damage == "not_whole_floats":
        entry["data"] = base64.b64encode(raw + b"\0" * 3).decode("ascii")
    elif damage == "negative_one":  # numpy would infer the dimension
        entry["shape"] = [-1, 1]
    elif damage == "negative":  # numpy reads any negative dimension as -1
        entry["shape"] = [-entry["shape"][0], 1]
    elif damage == "bool_dimension":
        entry["shape"] = [entry["shape"][0], True]
    else:  # the list of numbers that format 2 wrote
        entry["data"] = np.frombuffer(raw, dtype="<f8").tolist()
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="head2.w"):
        MtgnnModel.load(path)


def test_failed_checkpoint_save_keeps_previous_file(tmp_path):
    from marketgraph.checkpoint import save_checkpoint
    path = tmp_path / "model.json"
    model = MtgnnModel(tiny_config(), Rng(15))
    model.save(path)
    good = path.read_bytes()
    with pytest.raises(TypeError):
        save_checkpoint(path, kind="mtgnn", config={}, params=model.state_dict(),
                        extra={"not_json": object()})
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_load_state_dict_validates_names_and_shapes():
    model = MtgnnModel(tiny_config(), Rng(12))
    state = model.state_dict()
    incomplete = dict(state)
    incomplete.pop("head2.w")
    with pytest.raises(ShapeError):
        model.load_state_dict(incomplete)
    wrong = dict(state)
    wrong["head2.w"] = np.zeros((99, 1))
    with pytest.raises(ShapeError):
        model.load_state_dict(wrong)
