"""The backward rules of mix_hop, dropout and the gated convolution, rewritten
to allocate and copy less, give the bytes of the forms they replaced
(reference_ops).

Equality is of bytes, not `np.array_equal` alone: a signed zero that moved
would pass that and still change a checkpoint. The output, every input
gradient and, for dropout, the Rng stream after the draw must match.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
from marketgraph import MtgnnConfig, MtgnnModel, Rng, Tape
from marketgraph import mtgnn
from marketgraph.autodiff import dropout, mix_hop
from marketgraph.mtgnn import gated_temporal_conv
from marketgraph.training import _batch_loss
from test_fused_ops import value_and_gradients

seeds = st.integers(0, 2 ** 16)
sizes = st.integers(1, 3)


def assert_same_bytes(result, reference):
    """Each of (output, gradients) and its reference are equal, byte for byte."""
    (out, grads), (ref_out, ref_grads) = result, reference
    assert len(grads) == len(ref_grads)
    for a, r in zip([out, *grads], [ref_out, *ref_grads]):
        assert a.shape == r.shape and a.dtype == r.dtype
        assert np.array_equal(a, r) and a.tobytes() == r.tobytes()


@settings(max_examples=150, deadline=None)
@given(sizes, sizes, st.integers(2, 5), st.integers(1, 4), st.integers(1, 4), sizes, seeds)
def test_mix_hop_backward_gives_the_bytes_of_tensordot(B, C, N, T, S, D, seed):
    gen = np.random.default_rng(seed)
    arrays = [gen.normal(size=(B, C, N, T)), gen.uniform(size=(S, N, N)), gen.normal(size=(S, C, D))]
    assert_same_bytes(value_and_gradients(mix_hop, arrays, seed),
                      value_and_gradients(reference_ops.mix_hop, arrays, seed))


@settings(max_examples=150, deadline=None)
@given(sizes, sizes, sizes, st.integers(2, 4), st.integers(1, 8), st.sampled_from([2, 3]),
       st.integers(1, 3), seeds)
def test_gate_backward_gives_the_bytes_of_concatenate(B, C_in, C, N, T, K, dilation, seed):
    gen = np.random.default_rng(seed)
    arrays = [gen.normal(size=(B, C_in, N, T)), gen.normal(size=(2 * C, C_in, K)),
              gen.normal(size=2 * C)]
    assert_same_bytes(
        value_and_gradients(lambda x, w, b: gated_temporal_conv(x, w, dilation, b), arrays, seed),
        value_and_gradients(lambda x, w, b: reference_ops.gated_temporal_conv(x, w, dilation, b),
                            arrays, seed))


@settings(max_examples=150, deadline=None)
@given(sizes, sizes, st.integers(2, 4), st.integers(1, 6),
       st.none() | st.integers(0, 4) | st.integers(0, 4).map(np.int64),
       st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.95), seeds)
def test_dropout_with_a_bool_mask_gives_the_bytes_of_the_float_mask(B, C, N, T, extra, p, seed):
    steps = None if extra is None else T + extra   # a mask wider than x, as a cropped layer sees
    x = np.random.default_rng(seed).normal(size=(B, C, N, T))
    rngs = {}

    def run(op):
        rng = rngs[op] = Rng(seed)
        return value_and_gradients(lambda t: op(t, p, rng=rng, steps=steps), [x], seed)

    assert_same_bytes(run(dropout), run(reference_ops.dropout))
    # Both leave the stream at the same place.
    assert rngs[dropout].random(3).tobytes() == rngs[reference_ops.dropout].random(3).tobytes()


def _step(model, x, y, seed):
    for p in model.parameters():
        p.grad = None
    tape = Tape()
    with tape:
        loss = _batch_loss(model, x, y, Rng(seed))
    tape.backward(loss)
    return loss.data, [p.grad for p in model.parameters()]


@pytest.mark.parametrize("seed", [1, 2027])
def test_a_criterion_7_step_gives_the_bytes_of_the_replaced_rules(seed):
    # Criterion 7's shape: 6 series, P = 30, batch 8, the default MtgnnConfig.
    gen = np.random.default_rng(seed)
    x, y = gen.normal(size=(8, 6, 30)), gen.normal(size=(8, 6, 1))
    model = MtgnnModel(MtgnnConfig(num_nodes=6, input_window=30, horizon=1), Rng(seed))
    arrays = _step(model, x, y, seed)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("mix_hop", "dropout", "gated_temporal_conv"):
            mp.setattr(mtgnn, name, getattr(reference_ops, name))
        reference = _step(model, x, y, seed)
    assert_same_bytes(arrays, reference)
