"""The whole-window GRU op against a per-step cell of generic tape ops.

`gru_sequence` runs the recurrence of `gru_cell` over every input step as
one autodiff op, so a GRU training batch records a handful of tape entries
instead of about twenty per step, and each further forecast step adds five.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import GruModel, Rng, ShapeError, Tape, Tensor, grad_check_params
from marketgraph.autodiff import add_bias, gru_sequence, sigmoid, sum_, tanh, time_index
from marketgraph.baselines import GruConfig
from marketgraph.training import _batch_loss


def gru_cell(x: Tensor, h: Tensor, cell: dict[str, Tensor]) -> Tensor:
    """One recurrence step in generic tape ops: h' = (1-z) * h + z * tanh-candidate.

    `cell` holds `gru_sequence`'s nine weight tensors under its argument names.
    """
    z = sigmoid(add_bias(x @ cell["w_z"] + h @ cell["u_z"], cell["b_z"], 1))
    r = sigmoid(add_bias(x @ cell["w_r"] + h @ cell["u_r"], cell["b_r"], 1))
    cand = tanh(add_bias(x @ cell["w_h"] + (r * h) @ cell["u_h"], cell["b_h"], 1))
    return (1.0 - z) * h + z * cand


@st.composite
def cases(draw):
    """(x [B, N, P], h0 [B, H], the nine GRU weight tensors in `gru_sequence` order)."""
    B, N, H, P = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                  draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shapes = [(N, H), (H, H), (H,)] * 3
    weights = [Tensor(gen.normal(size=s) * 0.5, requires_grad=True) for s in shapes]
    h0 = Tensor(np.tanh(gen.normal(size=(B, H))), requires_grad=True)
    return Tensor(gen.normal(size=(B, N, P)), requires_grad=True), h0, weights


@settings(max_examples=60, deadline=None)
@given(cases())
def test_states_match_the_cell_loop(case):
    x, h0, weights = case
    cell = dict(zip(("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"), weights))
    h, loop = h0, []
    for t in range(x.shape[2]):
        h = gru_cell(time_index(x, t), h, cell)
        loop.append(h.data)
    # The projections of all steps come from one product, which can round a
    # state near zero differently from the per-step products by an ulp.
    np.testing.assert_allclose(gru_sequence(x, h0, *weights).data, np.stack(loop, axis=-1),
                               rtol=1e-12, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_gradients_of_every_argument(case):
    x, h0, weights = case
    probe = Tensor(np.random.default_rng(x.size).normal(size=(x.shape[0], weights[1].shape[0],
                                                               x.shape[2])))
    err = grad_check_params(lambda: sum_(gru_sequence(x, h0, *weights) * probe), [x, h0, *weights])
    assert err <= 1e-6, f"worst relative gradient error {err:.2e}"


@settings(max_examples=20, deadline=None)
@given(cases(), st.integers(1, 3))
def test_a_training_batch_records_a_handful_of_tape_entries(case, horizon):
    # 8 entries for the window and the loss, then 5 per further forecast step:
    # reshape, gru_sequence, last_step, matmul and add_bias.
    x, _, weights = case
    B, N, P = x.shape
    model = GruModel(GruConfig(num_series=N, hidden_size=weights[1].shape[0], horizon=horizon),
                     Rng(P))
    tape = Tape()
    with tape:
        loss = _batch_loss(model, x.data, np.zeros((B, N, horizon)), Rng(0))
    assert len(tape) <= 8 + 5 * (horizon - 1)
    tape.backward(loss)
    assert all(p.grad is not None for p in model.parameters())


@settings(max_examples=30, deadline=None)
@given(cases())
def test_states_are_the_same_bytes_on_and_off_a_tape(case):
    x, h0, weights = case
    plain = gru_sequence(x, h0, *weights)
    tape = Tape()
    with tape:
        taped = gru_sequence(x, h0, *weights)
    assert len(tape) == 1 and plain._tape is None
    assert taped.data.tobytes() == plain.data.tobytes()


def test_prediction_keeps_no_per_step_gate_arrays():
    # 256 windows of 6 series over 30 steps at hidden size 64: the [P, B, 3H]
    # input projections (11.8 MB) and the states (8 MB with their copy) stay;
    # the per-step gate, candidate and reset-state stacks (15.7 MB) do not.
    import tracemalloc

    model = GruModel(GruConfig(num_series=6, hidden_size=64), Rng(3))
    x = np.random.default_rng(0).normal(size=(256, 6, 30))
    model.predict_windows(x)
    tracemalloc.start()
    try:
        model.predict_windows(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6, f"traced peak {peak / 1e6:.1f} MB"


def test_rejects_mismatched_shapes():
    N, H = 2, 3
    h0 = Tensor(np.zeros((1, H)))
    weights = [Tensor(np.zeros(s)) for s in [(N, H), (H, H), (H,)] * 3]
    with pytest.raises(ShapeError):
        gru_sequence(Tensor(np.zeros((1, N))), h0, *weights)
    with pytest.raises(ShapeError):
        gru_sequence(Tensor(np.zeros((1, N + 1, 4))), h0, *weights)
    for wrong in [(2, H), (1, H + 1), (H,)]:
        with pytest.raises(ShapeError, match="h0"):
            gru_sequence(Tensor(np.zeros((1, N, 4))), Tensor(np.zeros(wrong)), *weights)
    weights[7] = Tensor(np.zeros((H, H + 1)))
    with pytest.raises(ShapeError, match="u_h"):
        gru_sequence(Tensor(np.zeros((1, N, 4))), h0, *weights)
