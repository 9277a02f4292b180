"""MTGNN and TCN forecasts convolve only the receptive field of each window.

Their heads read the last step of each layer, which depends on just the last
`receptive_field` input steps, so `forward_batch` crops the window to those
steps unless it is collecting per-layer states over the whole window.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import MtgnnConfig, MtgnnModel, Rng
from marketgraph.baselines import TcnConfig, TcnModel
from marketgraph import baselines, mtgnn


@st.composite
def cases(draw):
    """(model, receptive field, windows [2, 3, P]) with P >= receptive field."""
    kind = draw(st.sampled_from(["mtgnn", "tcn"]))
    layers = draw(st.integers(1, 3))
    kernel = draw(st.integers(2, 3))
    field = 1 + (kernel - 1) * (2 ** layers - 1)
    steps = field + draw(st.integers(0, 8))
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "mtgnn":
        cfg = MtgnnConfig(num_nodes=3, num_layers=layers, kernel_size=kernel,
                          input_window=steps, conv_channels=3, residual_channels=3,
                          skip_channels=4, embedding_dim=3, gc_depth=1, dropout=0.3, k=2)
        model = MtgnnModel(cfg, Rng(seed))
    else:
        cfg = TcnConfig(channels=3, kernel_size=kernel, num_blocks=layers)
        model = TcnModel(cfg, Rng(seed))
    assert cfg.receptive_field == field
    x = np.random.default_rng(seed).normal(size=(2, 3, steps))
    return model, field, x


def _train_forward(model, x, seed, collect=None):
    """Training-mode forward and the next draw of its Rng stream."""
    rng = Rng(seed)
    out = model.forward_batch(x, rng=rng, collect=collect).data
    return out, rng.random(4)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_cropped_forward_matches_the_whole_window(case):
    model, _, x = case
    np.testing.assert_allclose(model.forward_batch(x).data,
                               model.forward_batch(x, collect=[]).data, rtol=1e-12)
    if isinstance(model, MtgnnModel):
        # Equal seeds give equal dropout masks on the kept steps and leave
        # the Rng stream where the whole-window forward leaves it.
        cropped, after = _train_forward(model, x, 5)
        whole, after_whole = _train_forward(model, x, 5, collect=[])
        np.testing.assert_allclose(cropped, whole, rtol=1e-12)
        np.testing.assert_array_equal(after, after_whole)


@settings(max_examples=60, deadline=None)
@given(cases(), st.floats(-50.0, 50.0))
def test_steps_before_the_receptive_field_do_not_move_the_forecast(case, shift):
    model, field, x = case
    moved = x.copy()
    moved[..., :x.shape[-1] - field] += shift
    np.testing.assert_array_equal(model.forward_batch(moved).data, model.forward_batch(x).data)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_convolutions_run_over_the_receptive_field_only(case):
    model, field, x = case
    lengths = []

    def recording(conv):
        def wrapper(v, kernel, dilation=1):
            lengths.append(v.shape[-1])
            return conv(v, kernel, dilation)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        # MTGNN convolves inside its gated op, through the unrecorded core.
        for module, name in ((mtgnn, "_causal_conv"), (baselines, "causal_conv1d")):
            mp.setattr(module, name, recording(getattr(module, name)))
        model.forward_batch(x)
        cropped = lengths[:]
        lengths.clear()
        model.forward_batch(x, collect=[])
    assert cropped and set(cropped) == {field}
    assert lengths and set(lengths) == {x.shape[-1]}
