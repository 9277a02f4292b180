"""The whole-window GRU op against the per-step cell it replaces.

`gru_sequence` runs the recurrence of `gru_cell` over every input step as
one autodiff op, so a GRU training batch records a handful of tape entries
instead of about twenty per step.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import GruModel, Rng, ShapeError, Tape, Tensor, grad_check_params
from marketgraph.autodiff import gru_sequence, sum_, time_index
from marketgraph.baselines import GruConfig, GruParams, gru_cell
from marketgraph.training import _batch_loss


@st.composite
def cases(draw):
    """(x [B, N, P], the nine GRU tensors in `gru_sequence` order)."""
    B, N, H, P = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                  draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shapes = [(N, H), (H, H), (H,)] * 3
    weights = [Tensor(gen.normal(size=s) * 0.5, requires_grad=True) for s in shapes]
    return Tensor(gen.normal(size=(B, N, P)), requires_grad=True), weights


@settings(max_examples=60, deadline=None)
@given(cases())
def test_states_match_the_cell_loop(case):
    x, weights = case
    cell = GruParams(*weights)
    h = Tensor(np.zeros((x.shape[0], weights[1].shape[0])))
    loop = []
    for t in range(x.shape[2]):
        h = gru_cell(time_index(x, t), h, cell)
        loop.append(h.data)
    # The projections of all steps come from one product, which can round a
    # state near zero differently from the per-step products by an ulp.
    np.testing.assert_allclose(gru_sequence(x, *weights).data, np.stack(loop, axis=-1),
                               rtol=1e-12, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_gradients_of_every_argument(case):
    x, weights = case
    probe = Tensor(np.random.default_rng(x.size).normal(size=(x.shape[0], weights[1].shape[0],
                                                               x.shape[2])))
    err = grad_check_params(lambda: sum_(gru_sequence(x, *weights) * probe), [x, *weights])
    assert err <= 1e-6, f"worst relative gradient error {err:.2e}"


@settings(max_examples=20, deadline=None)
@given(cases())
def test_a_training_batch_records_a_handful_of_tape_entries(case):
    x, weights = case
    B, N, P = x.shape
    model = GruModel(GruConfig(num_series=N, hidden_size=weights[1].shape[0]), Rng(P))
    tape = Tape()
    with tape:
        loss = _batch_loss(model, x.data, np.zeros((B, N, 1)), training=True, rng=Rng(0))
    assert len(tape) <= 10
    tape.backward(loss)
    assert all(p.grad is not None for p in model.parameters())


def test_rejects_mismatched_shapes():
    N, H = 2, 3
    weights = [Tensor(np.zeros(s)) for s in [(N, H), (H, H), (H,)] * 3]
    with pytest.raises(ShapeError):
        gru_sequence(Tensor(np.zeros((1, N))), *weights)
    with pytest.raises(ShapeError):
        gru_sequence(Tensor(np.zeros((1, N + 1, 4))), *weights)
    weights[7] = Tensor(np.zeros((H, H + 1)))
    with pytest.raises(ShapeError, match="u_h"):
        gru_sequence(Tensor(np.zeros((1, N, 4))), *weights)
