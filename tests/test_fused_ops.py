"""Graph construction and the gated convolution are one tape entry each, and
give exactly the floats of the op compositions they replace (reference_ops).

Equality is `np.array_equal`, not a tolerance: the output and every input
gradient of a fused op must match its reference bit for bit, so same-seed
training is unchanged by the fusion.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
from marketgraph import DomainError, MtgnnConfig, MtgnnModel, Rng, ShapeError, Tape, Tensor
from marketgraph import mtgnn
from marketgraph.autodiff import mul, sum_
from marketgraph.graph import learn_adjacency
from marketgraph.mtgnn import gated_temporal_conv, propagation_stack
from marketgraph.training import _batch_loss

seeds = st.integers(0, 2 ** 16)


def value_and_gradients(f, arrays, probe_seed):
    """f's output on fresh leaves holding `arrays`, and each leaf's gradient of
    the output weighted by a fixed random probe (None where none flows)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    tape = Tape()
    with tape:
        out = f(*leaves)
        loss = sum_(mul(out, Tensor(np.random.default_rng(probe_seed).normal(size=out.shape))))
    if loss._tape is tape:
        tape.backward(loss)
    return out.data, [leaf.grad for leaf in leaves]


def assert_same_floats(fused, reference):
    (out, grads), (ref_out, ref_grads) = fused, reference
    assert np.array_equal(out, ref_out)
    for g, ref_g in zip(grads, ref_grads):
        assert (g is None) == (ref_g is None)
        assert g is None or np.array_equal(g, ref_g)


def entries(f, arrays) -> int:
    tape = Tape()
    with tape:
        f(*[Tensor(a, requires_grad=True) for a in arrays])
    return len(tape)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.floats(0.1, 5.0), st.data(), seeds)
def test_learn_adjacency_matches_its_composition(N, d, alpha, data, seed):
    k = data.draw(st.integers(1, N - 1))
    gen = np.random.default_rng(seed)
    arrays = [gen.normal(size=(N, d)), gen.normal(size=(N, d)),
              gen.normal(size=(d, d)), gen.normal(size=(d, d))]
    fused = value_and_gradients(lambda *t: learn_adjacency(*t, alpha, k), arrays, seed)
    reference = value_and_gradients(lambda *t: reference_ops.learn_adjacency(*t, alpha, k),
                                    arrays, seed)
    assert_same_floats(fused, reference)
    assert entries(lambda *t: learn_adjacency(*t, alpha, k), arrays) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(0, 3), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       seeds)
def test_propagation_stack_matches_its_composition(N, depth, beta, seed):
    # A learned adjacency: nonnegative, sparse, no self-edges.
    gen = np.random.default_rng(seed)
    a = gen.uniform(0.0, 1.0, size=(N, N)) * (gen.uniform(size=(N, N)) < 0.5)
    np.fill_diagonal(a, 0.0)
    fused = value_and_gradients(lambda t: propagation_stack(t, depth, beta), [a], seed)
    reference = value_and_gradients(lambda t: reference_ops.propagation_stack(t, depth, beta),
                                    [a], seed)
    assert_same_floats(fused, reference)
    # At depth 0 the stack is constant, so nothing is recorded.
    assert entries(lambda t: propagation_stack(t, depth, beta), [a]) == (1 if depth else 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 4), st.sampled_from([2, 3]), st.integers(1, 4), seeds)
def test_gated_temporal_conv_matches_its_composition(B, C_in, C, N, half, K, dilation, seed):
    T = 2 * half + 1
    gen = np.random.default_rng(seed)
    arrays = [gen.normal(size=(B, C_in, N, T)), gen.normal(size=(2 * C, C_in, K)),
              gen.normal(size=2 * C)]
    fused = value_and_gradients(lambda x, w, b: gated_temporal_conv(x, w, dilation, b), arrays, seed)
    reference = value_and_gradients(
        lambda x, w, b: reference_ops.gated_temporal_conv(x, w, dilation, b), arrays, seed)
    assert_same_floats(fused, reference)
    assert entries(lambda x, w, b: gated_temporal_conv(x, w, dilation, b), arrays) == 1


@pytest.mark.parametrize("args, message", [
    ((np.ones((1, 2, 2, 5)), np.ones((4, 2, 2)), 0, np.zeros(4)), "dilation must be >= 1"),
    ((np.ones((1, 2, 2, 5)), np.ones((4, 3, 2)), 1, np.zeros(4)), "kernel expects 3 input channels"),
    ((np.ones((1, 2, 2, 5)), np.ones((4, 2, 2)), 1, np.zeros((2, 2))), "bias must be 1-D"),
    ((np.ones((1, 2, 2, 5)), np.ones((4, 2, 2)), 1, np.zeros(3)), "bias length 3 does not match"),
    ((np.ones((1, 2, 2, 5)), np.ones((3, 2, 2)), 1, np.zeros(3)), "even channel count"),
], ids=["dilation", "channels", "bias_rank", "bias_length", "odd_channels"])
def test_gated_temporal_conv_refuses_what_its_composition_refuses(args, message):
    x, kernel, dilation, bias = args
    for op in (gated_temporal_conv, reference_ops.gated_temporal_conv):
        with pytest.raises((ShapeError, DomainError), match=message):
            op(Tensor(x), Tensor(kernel), dilation, Tensor(bias))


def test_propagation_stack_refuses_a_nonpositive_row_sum():
    a = Tensor(np.array([[0.0, -2.0], [0.5, 0.0]]))
    for op in (propagation_stack, reference_ops.propagation_stack):
        with pytest.raises(DomainError, match="row_normalize requires positive row sums"):
            op(a, 1, 0.5)


def _step(model, x, y, seed):
    """Tape entries of one training step, the loss, and every parameter gradient."""
    for p in model.parameters():
        p.grad = None
    tape = Tape()
    with tape:
        loss = _batch_loss(model, x, y, Rng(seed))
    count = len(tape)
    tape.backward(loss)
    return count, loss.data, [p.grad for p in model.parameters()]


def test_a_criterion_7_step_records_37_entries_with_the_floats_of_75():
    # Criterion 7's shape: 6 series, P = 30, batch 8, the default MtgnnConfig.
    gen = np.random.default_rng(7)
    x, y = gen.normal(size=(8, 6, 30)), gen.normal(size=(8, 6, 1))
    model = MtgnnModel(MtgnnConfig(num_nodes=6, input_window=30, horizon=1), Rng(7))
    count, loss, grads = _step(model, x, y, 3)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("learn_adjacency", "propagation_stack", "gated_temporal_conv"):
            mp.setattr(mtgnn, name, getattr(reference_ops, name))
        ref_count, ref_loss, ref_grads = _step(model, x, y, 3)
    assert (count, ref_count) == (37, 75)
    assert np.array_equal(loss, ref_loss)
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
