"""Gradient checks over random shapes: one hypothesis strategy per tape op.

Each strategy draws a small case and returns `(loss_fn, params)`: a closure
that weights the op's output by a fixed random probe and sums it, and the
leaves to differentiate it in. Criterion 3 checks the other tape ops at fixed
shapes; `test_package` checks that every op that records on the tape is in
one table or the other.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import Rng, Tape, Tensor, grad_check_params
from marketgraph.autodiff import (
    add_bias, causal_conv1d, channel_linear, dropout, gru_sequence, mix_hop, sum_,
)
from marketgraph.graph import learn_adjacency
from marketgraph.mtgnn import gated_temporal_conv, propagation_stack
from reference_ops import tanh_sigmoid_gate

dims = st.integers(1, 3)


def leaf(gen, *shape) -> Tensor:
    return Tensor(gen.normal(size=shape), requires_grad=True)


def probed(gen, f, params):
    probe = Tensor(gen.normal(size=f().shape))
    return (lambda: sum_(f() * probe)), params


@st.composite
def causal_conv1d_case(draw):
    # The kernel often reaches past the first step: (K - 1) * dilation >= T.
    B, C_in, C_out, N = draw(st.integers(1, 2)), draw(dims), draw(dims), draw(st.integers(1, 2))
    T, K, dilation = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x, kernel = leaf(gen, B, C_in, N, T), leaf(gen, C_out, C_in, K)
    return probed(gen, lambda: causal_conv1d(x, kernel, dilation), [x, kernel])


@st.composite
def channel_linear_case(draw):
    trailing = draw(st.lists(dims, min_size=1, max_size=2))  # 3-D or 4-D input
    B, C, D = draw(st.integers(1, 2)), draw(dims), draw(dims)
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x, w = leaf(gen, B, C, *trailing), leaf(gen, C, D)
    return probed(gen, lambda: channel_linear(x, w), [x, w])


@st.composite
def mix_hop_case(draw):
    S, B, C, N, T, D = (draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(dims),
                        draw(dims), draw(dims), draw(dims))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    h, props, w = leaf(gen, B, C, N, T), leaf(gen, S, N, N), leaf(gen, S, C, D)
    return probed(gen, lambda: mix_hop(h, props, w), [h, props, w])


@st.composite
def add_bias_case(draw):
    shape = draw(st.lists(dims, min_size=1, max_size=4))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x, b = leaf(gen, *shape), leaf(gen, shape[axis])
    return probed(gen, lambda: add_bias(x, b, axis), [x, b])


@st.composite
def tanh_sigmoid_gate_case(draw):
    trailing = draw(st.lists(dims, max_size=2))
    B, C = draw(st.integers(1, 2)), draw(dims)
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    a = leaf(gen, B, 2 * C, *trailing)
    return probed(gen, lambda: tanh_sigmoid_gate(a), [a])


@st.composite
def learn_adjacency_case(draw):
    # Random draws leave each off-diagonal score away from the relu's kink and
    # from top-k ties; the diagonal is exactly 0 under any perturbation.
    N, d, alpha = draw(st.integers(2, 4)), draw(dims), draw(st.floats(0.5, 3.0))
    k = draw(st.integers(1, N - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    params = [leaf(gen, N, d), leaf(gen, N, d), leaf(gen, d, d), leaf(gen, d, d)]
    return probed(gen, lambda: learn_adjacency(*params, alpha=alpha, k=k), params)


@st.composite
def propagation_stack_case(draw):
    N, depth, beta = draw(dims), draw(st.integers(1, 3)), draw(st.floats(0.0, 1.0))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    a = Tensor(gen.uniform(0.0, 1.0, size=(N, N)), requires_grad=True)
    return probed(gen, lambda: propagation_stack(a, depth, beta), [a])


@st.composite
def gated_temporal_conv_case(draw):
    B, C_in, C, N = draw(st.integers(1, 2)), draw(dims), draw(dims), draw(st.integers(1, 2))
    T, K, dilation = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x, kernel, bias = leaf(gen, B, C_in, N, T), leaf(gen, 2 * C, C_in, K), leaf(gen, 2 * C)
    return probed(gen, lambda: gated_temporal_conv(x, kernel, dilation, bias), [x, kernel, bias])


@st.composite
def dropout_case(draw):
    # A fresh Rng of one seed per call draws the same mask every time.
    shape = draw(st.lists(dims, min_size=1, max_size=3))
    p = draw(st.floats(0.0, 0.9))
    steps = draw(st.none() | st.integers(shape[-1], shape[-1] + 3))
    seed = draw(st.integers(0, 2 ** 16))
    gen = np.random.default_rng(seed)
    x = leaf(gen, *shape)
    return probed(gen, lambda: dropout(x, p, rng=Rng(seed), steps=steps), [x])


@st.composite
def gru_sequence_case(draw):
    B, N, H, P = draw(st.integers(1, 2)), draw(dims), draw(dims), draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x, h0 = leaf(gen, B, N, P), Tensor(np.tanh(gen.normal(size=(B, H))), requires_grad=True)
    weights = [Tensor(gen.normal(size=s) * 0.5, requires_grad=True)
               for s in [(N, H), (H, H), (H,)] * 3]
    return probed(gen, lambda: gru_sequence(x, h0, *weights), [x, h0, *weights])


@st.composite
def sum_case(draw):
    shape = draw(st.lists(dims, max_size=3))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = leaf(gen, *shape)
    return probed(gen, lambda: sum_(x), [x])


GRAD_CASES = {
    "causal_conv1d": causal_conv1d_case(),
    "channel_linear": channel_linear_case(),
    "mix_hop": mix_hop_case(),
    "add_bias": add_bias_case(),
    "tanh_sigmoid_gate": tanh_sigmoid_gate_case(),
    "learn_adjacency": learn_adjacency_case(),
    "propagation_stack": propagation_stack_case(),
    "gated_temporal_conv": gated_temporal_conv_case(),
    "dropout": dropout_case(),
    "gru_sequence": gru_sequence_case(),
    "sum_": sum_case(),
}


@pytest.mark.parametrize("op", GRAD_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gradients_match_central_differences(op, data):
    loss_fn, params = data.draw(GRAD_CASES[op])
    err = grad_check_params(loss_fn, params)
    assert err <= 1e-6, f"{op}: worst relative gradient error {err:.2e}"


@pytest.mark.parametrize("op", GRAD_CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_backward_returns_one_float64_array_per_input(op, data):
    # Tape.backward adds each returned gradient to its input's adjoint unchecked.
    # numpy gives a 0-d product as a scalar, which is an array for every use here.
    loss_fn, _ = data.draw(GRAD_CASES[op])
    tape = Tape()
    with tape:
        loss_fn()
    for out, inputs, backward_fn in tape._entries:
        grads = backward_fn(np.ones_like(out.data))
        assert len(grads) == len(inputs)
        for inp, g in zip(inputs, grads):
            assert isinstance(g, (np.ndarray, np.generic)) and g.dtype == np.float64 and g.shape == inp.shape
