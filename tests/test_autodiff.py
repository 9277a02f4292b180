"""Tape semantics, per-op gradients against finite differences, RNG streams."""
import gc
import weakref

import numpy as np
import pytest

from marketgraph import DataError, DomainError, Rng, ShapeError, Tape, TapeError, Tensor, grad_check
from marketgraph.autodiff import (
    _record, abs_, add, add_bias, causal_conv1d, channel_linear, dropout, graph_mix, last_step,
    matmul, mean, mix_hop, mul, permute, relu, reshape, row_normalize,
    sigmoid, stack_last, sub, sum_, tanh, time_index,
)
from reference_ops import tanh_sigmoid_gate, transpose

GEN = np.random.default_rng(99)


# -- tensor basics -------------------------------------------------------------

def test_tensor_is_float64_and_rejects_nonfinite():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)
    with pytest.raises(DataError):
        Tensor([1.0, np.nan])
    with pytest.raises(DataError):
        Tensor([np.inf])


def test_item_requires_scalar():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


def test_implicit_lift_rejects_nonscalar_sequences():
    with pytest.raises(ShapeError):
        add(Tensor([1.0, 2.0]), [1.0, 2.0, 3.0])


def test_restricted_broadcasting():
    a = Tensor(GEN.normal(size=(3, 2)))
    assert add(a, 1.0).shape == (3, 2)
    with pytest.raises(ShapeError):
        add(a, Tensor(GEN.normal(size=(3, 1))))
    with pytest.raises(ShapeError):
        mul(a, Tensor(GEN.normal(size=(2,))))


# -- tape semantics --------------------------------------------------------------

def test_no_tape_means_no_tracking():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = mul(x, x)
    assert y._tape is None
    with pytest.raises(TapeError):
        Tape().backward(sum_(y))


def test_backward_accumulates_into_leaves():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_(mul(x, x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data)


def test_reused_tensor_accumulates_gradient():
    # y = x*x + x uses x three times; dy/dx = 2x + 1
    x = Tensor([0.5, 1.5], requires_grad=True)
    with Tape() as tape:
        loss = sum_(add(mul(x, x), x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)


def test_tape_consumed_once():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_(mul(x, x))
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_lets_go_of_the_intermediates():
    # With the cycle collector off, only reference counting can free the
    # intermediate, so nothing the tape keeps may still point at it. Tensor
    # has no weakref slot; its array, which the backward closures share, does.
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            h = tanh(mul(x, x))
            loss = sum_(mul(h, 2.0))
        alive = weakref.ref(h.data)
        del h
        assert alive() is not None
        tape.backward(loss)
        assert alive() is None
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(x.data ** 2) ** 2) * 2.0 * x.data)


def test_backward_frees_each_entry_once_its_rule_has_run():
    # Two ops; the later one's closure alone holds `kept`. By the time the
    # earlier op's rule runs, the sweep has popped both entries and dropped
    # the later closure, so `kept` is gone even with the cycle collector off.
    x = Tensor([1.0, -2.0], requires_grad=True)
    watch, seen = [], {}

    def scaled(t):
        kept = np.full(t.shape, 3.0)
        watch.append(weakref.ref(kept))
        return _record(np.asarray(np.sum(t.data * kept)), (t,), lambda g: (g * kept,))

    def first_back(g):
        seen["kept_alive"] = watch[0]() is not None
        seen["entries"] = len(tape)
        return (2.0 * g,)

    gc.disable()
    try:
        with Tape() as tape:
            loss = scaled(_record(2.0 * x.data, (x,), first_back))
        assert len(tape) == 2 and watch[0]() is not None
        tape.backward(loss)
    finally:
        gc.enable()
    assert seen == {"kept_alive": False, "entries": 0}
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(TapeError):
        tape.backward(y)


def test_loss_from_other_tape_rejected():
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        loss = sum_(x)
    with Tape() as other:
        sum_(x)
        with pytest.raises(TapeError):
            other.backward(loss)


def test_grad_does_not_leak_without_requires_grad():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = Tensor([3.0, 4.0], requires_grad=True)
        loss = sum_(mul(x, y))
    tape.backward(loss)
    assert x.grad is None
    np.testing.assert_allclose(y.grad, x.data)


# -- hand-computed derivatives ----------------------------------------------------

def test_matmul_gradients_match_hand_formula():
    a = Tensor(GEN.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(GEN.normal(size=(3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = sum_(matmul(a, b))
    tape.backward(loss)
    g = np.ones((2, 4))
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        matmul(Tensor(GEN.normal(size=(2, 3))), Tensor(GEN.normal(size=(2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(GEN.normal(size=(2, 3, 1))), Tensor(GEN.normal(size=(3, 2))))


def test_sigmoid_exact_at_zero_and_bounded():
    x = Tensor(np.linspace(-40, 40, 17))
    y = sigmoid(x)
    assert y.data[8] == 0.5
    assert np.all(y.data >= 0) and np.all(y.data <= 1)


# -- finite-difference sweep over every op ----------------------------------------

TOL = 1e-6


def check(f, x, tol=TOL):
    err = grad_check(f, Tensor(np.asarray(x, dtype=np.float64)))
    assert err <= tol, f"gradient mismatch {err:.3e}"


def test_grad_add():
    check(lambda t: sum_(add(t, mul(t, 2.0))), GEN.normal(size=(3, 4)))


def test_grad_sub():
    check(lambda t: sum_(sub(mul(t, 3.0), t)), GEN.normal(size=(4,)))


def test_grad_mul():
    check(lambda t: sum_(mul(t, t)), GEN.normal(size=(2, 5)))


def test_grad_neg():
    check(lambda t: sum_(-t), GEN.normal(size=(3,)))


def test_grad_matmul():
    w = Tensor(GEN.normal(size=(4, 2)))
    check(lambda t: sum_(matmul(t, w)), GEN.normal(size=(3, 4)))


def test_grad_tanh():
    check(lambda t: sum_(tanh(t)), GEN.normal(size=(6,)))


def test_grad_sigmoid():
    check(lambda t: sum_(sigmoid(t)), GEN.normal(size=(6,)))


def test_grad_relu_off_kink():
    x = GEN.normal(size=(8,))
    x[np.abs(x) < 0.1] = 0.5
    check(lambda t: sum_(relu(t)), x)


def test_grad_abs_off_kink():
    x = GEN.normal(size=(8,))
    x[np.abs(x) < 0.1] = -0.5
    check(lambda t: sum_(abs_(t)), x)


def test_grad_mean():
    check(lambda t: mean(mul(t, t)), GEN.normal(size=(3, 3)))


def test_grad_reshape_permute():
    check(lambda t: sum_(mul(permute(reshape(t, (2, 6)), (1, 0)), 1.5)),
          GEN.normal(size=(3, 4)))


def test_grad_transpose():
    check(lambda t: sum_(mul(transpose(t), transpose(t))), GEN.normal(size=(3, 2)))


def test_grad_time_index_and_last_step():
    check(lambda t: sum_(time_index(t, 1)), GEN.normal(size=(2, 3, 4)))
    check(lambda t: sum_(mul(last_step(t), 2.0)), GEN.normal(size=(2, 3, 4)))


def test_grad_stack_last():
    def f(t):
        parts = [time_index(t, i) for i in range(t.shape[-1])]
        return sum_(mul(stack_last(parts), stack_last(parts)))
    check(f, GEN.normal(size=(2, 3)))


def test_grad_add_bias():
    b = Tensor(GEN.normal(size=(3,)))
    check(lambda t: sum_(mul(add_bias(t, b, axis=1), add_bias(t, b, axis=1))),
          GEN.normal(size=(2, 3, 4)))


def test_grad_add_bias_as_bias_argument():
    x = Tensor(GEN.normal(size=(2, 3, 4)))
    check(lambda t: sum_(mul(add_bias(x, t, axis=1), 2.0)), GEN.normal(size=(3,)))


def test_grad_row_normalize():
    check(lambda t: sum_(mul(row_normalize(t), GEN_FIXED)), X_POS)


X_POS = GEN.uniform(0.5, 2.0, size=(3, 4))
GEN_FIXED = Tensor(GEN.normal(size=(3, 4)))


def test_grad_causal_conv():
    k = Tensor(GEN.normal(size=(3, 2, 2)))
    check(lambda t: sum_(mul(causal_conv1d(t, k, dilation=2),
                             causal_conv1d(t, k, dilation=2))),
          GEN.normal(size=(2, 2, 3, 8)), tol=1e-5)


def test_grad_causal_conv_kernel():
    x = Tensor(GEN.normal(size=(2, 2, 3, 8)))
    check(lambda t: sum_(causal_conv1d(x, t, dilation=1)), GEN.normal(size=(3, 2, 2)))


def test_grad_channel_linear():
    w = Tensor(GEN.normal(size=(3, 5)))
    check(lambda t: sum_(mul(channel_linear(t, w), 0.7)), GEN.normal(size=(2, 3, 4, 6)))
    x = Tensor(GEN.normal(size=(2, 3, 4)))
    check(lambda t: sum_(channel_linear(x, t)), GEN.normal(size=(3, 5)))


def test_grad_graph_mix_both_arguments():
    a0 = GEN.uniform(0.1, 1.0, size=(4, 4))
    x0 = GEN.normal(size=(2, 3, 4, 5))
    check(lambda t: sum_(mul(graph_mix(t, Tensor(x0)), 0.3)), a0)
    check(lambda t: sum_(mul(graph_mix(Tensor(a0), t), 0.3)), x0)


def weighted(t):
    """sum(t * R) for a fixed random R, so every output coordinate probes the gradient."""
    r = np.random.default_rng(t.size).normal(size=t.shape)
    return sum_(mul(t, Tensor(r)))


def test_grad_causal_conv_three_taps_dilated():
    k = Tensor(GEN.normal(size=(4, 2, 3)))
    x4 = GEN.normal(size=(2, 2, 3, 9))
    check(lambda t: weighted(causal_conv1d(t, k, dilation=2)), x4)
    check(lambda t: weighted(causal_conv1d(Tensor(x4), t, dilation=2)), k.data)
    x2 = GEN.normal(size=(1, 2, 1, 9))
    check(lambda t: weighted(causal_conv1d(t, k, dilation=2)), x2)
    check(lambda t: weighted(causal_conv1d(Tensor(x2), t, dilation=2)), k.data)


def test_grad_channel_linear_3d_and_4d_weighted():
    w = GEN.normal(size=(3, 5))
    for shape in ((2, 3, 4), (2, 3, 4, 6)):
        x = GEN.normal(size=shape)
        check(lambda t: weighted(channel_linear(t, Tensor(w))), x)
        check(lambda t: weighted(channel_linear(Tensor(x), t)), w)


def test_grad_graph_mix_rectangular():
    a0 = GEN.normal(size=(3, 5))
    x0 = GEN.normal(size=(2, 2, 5, 4))
    assert graph_mix(Tensor(a0), Tensor(x0)).shape == (2, 2, 3, 4)
    check(lambda t: weighted(graph_mix(t, Tensor(x0))), a0)
    check(lambda t: weighted(graph_mix(Tensor(a0), t)), x0)


def test_grad_mix_hop_every_argument():
    h0 = GEN.normal(size=(2, 3, 4, 5))
    p0 = GEN.normal(size=(3, 4, 4))
    w0 = GEN.normal(size=(3, 3, 2))
    check(lambda t: weighted(mix_hop(t, Tensor(p0), Tensor(w0))), h0)
    check(lambda t: weighted(mix_hop(Tensor(h0), t, Tensor(w0))), p0)
    check(lambda t: weighted(mix_hop(Tensor(h0), Tensor(p0), t)), w0)


def test_mix_hop_matches_sequential_rule():
    # H(0) = H, H(k) = beta*H + (1-beta) A_norm H(k-1), out = sum_k H(k) W(k)
    # over both directions, with the propagation stack built as the model
    # builds it.
    from marketgraph.mtgnn import propagation_stack
    B, C, N, T, D, depth, beta = 2, 3, 5, 6, 4, 3, 0.2
    h = GEN.normal(size=(B, C, N, T))
    a = GEN.uniform(0.1, 1.0, size=(N, N))
    np.fill_diagonal(a, 0.0)
    w = GEN.normal(size=(2 * (depth + 1), C, D))
    out = mix_hop(Tensor(h), propagation_stack(Tensor(a), depth, beta), Tensor(w)).data
    expected = np.zeros_like(out)
    for side, adj in enumerate((a, a.T)):
        a_norm = (adj + np.eye(N)) / (adj + np.eye(N)).sum(axis=1, keepdims=True)
        hk = h
        for k in range(depth + 1):
            if k:
                hk = beta * h + (1.0 - beta) * np.einsum("vw,bcwt->bcvt", a_norm, hk)
            expected += np.einsum("bcnt,cd->bdnt", hk, w[side * (depth + 1) + k])
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_mix_hop_validates_shapes():
    h = Tensor(np.ones((1, 2, 3, 4)))
    with pytest.raises(ShapeError):
        mix_hop(h, Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 2, 2))))
    with pytest.raises(ShapeError):
        mix_hop(h, Tensor(np.ones((2, 3, 3))), Tensor(np.ones((3, 2, 2))))
    with pytest.raises(ShapeError):
        mix_hop(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 3))), Tensor(np.ones((2, 2, 2))))
    with pytest.raises(ShapeError):
        mix_hop(h, Tensor(np.ones((0, 3, 3))), Tensor(np.ones((0, 2, 2))))


def test_tanh_sigmoid_gate_value_and_gradient():
    a0 = GEN.normal(size=(2, 6, 3, 4))
    out = tanh_sigmoid_gate(Tensor(a0)).data
    np.testing.assert_allclose(out, np.tanh(a0[:, :3]) / (1.0 + np.exp(-a0[:, 3:])),
                               rtol=0, atol=1e-15)
    check(lambda t: weighted(tanh_sigmoid_gate(t)), a0)
    with pytest.raises(ShapeError):
        tanh_sigmoid_gate(Tensor(np.ones((2, 3, 4))))


# -- dropout ----------------------------------------------------------------------

def test_dropout_eval_is_identity_object():
    x = Tensor(GEN.normal(size=(3, 3)))
    assert dropout(x, 0.5) is x
    assert dropout(x, 0.0, rng=Rng(0)) is x


def test_dropout_train_mask_and_scaling():
    x = Tensor(np.ones((200, 50)))
    y = dropout(x, 0.25, rng=Rng(5))
    vals = np.unique(y.data)
    np.testing.assert_allclose(sorted(vals), [0.0, 1.0 / 0.75])
    kept = np.mean(y.data > 0)
    assert 0.70 < kept < 0.80


@pytest.mark.parametrize("shape", [(8, 16, 6, 30), ()])
def test_random_draws_the_uniform_stream_bit_for_bit(shape):
    # Generator.random is uniform(0, 1) draw for draw, so the masks and the
    # stream after them are those of the uniform(0, 1) draws they replaced.
    new, old = Rng(3), np.random.default_rng(3)
    np.testing.assert_array_equal(new.random(shape), old.uniform(0.0, 1.0, size=shape))
    np.testing.assert_array_equal(new.random(shape), old.uniform(0.0, 1.0, size=shape))
    x = Tensor(np.ones((8, 16, 6, 30)))
    expected = (old.uniform(0.0, 1.0, size=x.shape) >= 0.3) / 0.7
    np.testing.assert_array_equal(dropout(x, 0.3, rng=new).data, expected)
    np.testing.assert_array_equal(new.normal(4), old.normal(0.0, 1.0, size=4))


def test_dropout_validates_probability_and_rng():
    x = Tensor([1.0])
    with pytest.raises(DomainError):
        dropout(x, 1.0, rng=Rng(0))
    with pytest.raises(DomainError):
        dropout(x, -0.1, rng=Rng(0))


@pytest.mark.parametrize("steps", [2, -1, 0, 3, 4.0, 6.5, True, "6"])
@pytest.mark.parametrize("rng", [None, Rng(0)], ids=["eval", "train"])
def test_dropout_refuses_steps_short_of_the_input(steps, rng):
    # Fewer steps than the input's 4 would crop or fail to broadcast the mask;
    # a non-integer is no length.
    x = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ShapeError, match="dropout steps must be an integer no less than"):
        dropout(x, 0.5, rng=rng, steps=steps)


def test_dropout_refuses_a_scalar_in_train_mode():
    scalar = mean(Tensor([1.0, 2.0]))
    assert scalar.ndim == 0
    with pytest.raises(ShapeError, match="trailing time axis"):
        dropout(scalar, 0.5, rng=Rng(0))
    with pytest.raises(ShapeError, match="dropout steps"):
        dropout(scalar, 0.5, steps=1)
    assert dropout(scalar, 0.5) is scalar


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones((40,)), requires_grad=True)
    with Tape() as tape:
        y = dropout(x, 0.5, rng=Rng(11))
        loss = sum_(y)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, y.data)


# -- convolution fixtures -----------------------------------------------------------

def test_causal_conv_pure_lag():
    # kernel weights: tap 0 = current sample, tap 1 = one step back
    x = Tensor(np.array([[[[1.0, 2.0, 3.0]]]]))
    k = Tensor(np.array([[[0.0, 1.0]]]))
    y = causal_conv1d(x, k)
    np.testing.assert_allclose(y.data, [[[[0.0, 1.0, 2.0]]]])


def test_causal_conv_identity_kernel():
    x = Tensor(GEN.normal(size=(1, 1, 1, 9)))
    k = Tensor(np.array([[[1.0, 0.0]]]))
    np.testing.assert_allclose(causal_conv1d(x, k, dilation=3).data, x.data)


def test_causal_conv_dilation_reaches_back():
    x = Tensor(np.array([[[[1.0, 2.0, 3.0, 4.0, 5.0]]]]))
    k = Tensor(np.array([[[0.0, 1.0]]]))
    y = causal_conv1d(x, k, dilation=2)
    np.testing.assert_allclose(y.data, [[[[0.0, 0.0, 1.0, 2.0, 3.0]]]])


def test_causal_conv_never_reads_future():
    x0 = GEN.normal(size=(2, 2, 3, 10))
    k = Tensor(GEN.normal(size=(2, 2, 2)))
    base = causal_conv1d(Tensor(x0), k, dilation=2).data
    x1 = x0.copy()
    x1[..., 6:] += 100.0
    bumped = causal_conv1d(Tensor(x1), k, dilation=2).data
    np.testing.assert_array_equal(base[..., :6], bumped[..., :6])


def test_causal_conv_validates_inputs():
    with pytest.raises(DomainError):
        causal_conv1d(Tensor(np.ones((1, 1, 1, 4))), Tensor(np.ones((1, 1, 2))), dilation=0)
    with pytest.raises(ShapeError):
        causal_conv1d(Tensor(np.ones((1, 1, 1, 4))), Tensor(np.ones((1, 2))))
    with pytest.raises(ShapeError):
        causal_conv1d(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 1, 2))))
    with pytest.raises(ShapeError):
        causal_conv1d(Tensor(np.ones((1, 2, 1, 4))), Tensor(np.ones((1, 3, 2))))


def test_row_normalize_rows_sum_to_one():
    a = Tensor(GEN.uniform(0.1, 1.0, size=(5, 5)))
    np.testing.assert_allclose(row_normalize(a).data.sum(axis=1), np.ones(5), atol=1e-12)
    with pytest.raises(DomainError):
        row_normalize(Tensor(np.zeros((2, 2))))


# -- rng --------------------------------------------------------------------------

def test_rng_reproducible_and_splits_differ():
    a, b = Rng(42), Rng(42)
    np.testing.assert_array_equal(a.normal((4,)), b.normal((4,)))
    root = Rng(42)
    s1, s2 = root.split(), root.split()
    assert not np.allclose(s1.normal((8,)), s2.normal((8,)))
    assert s1.seed_path != s2.seed_path


def test_rng_split_tree_reproducible():
    def draw():
        root = Rng(7)
        child = root.split()
        grand = child.split()
        return grand.random((5,))
    np.testing.assert_array_equal(draw(), draw())
