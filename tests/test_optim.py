"""Adam update rule against hand arithmetic, how it reads Tensor gradients, and
bit-identity of the one-vector optimizer with the per-tensor rule."""
import numpy as np
import pytest
from conftest import build_frame
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import (
    Adam, DomainError, ShapeError, Tape, Tensor, WindowSpec, grad_check_params, train,
)
from marketgraph import baselines, training
from marketgraph.autodiff import Rng, abs_, mean, mul, sum_
from marketgraph.baselines import GruConfig, GruModel, MlpSpec, TcnConfig, TcnModel, fit_var_mlp
from marketgraph.data import make_windows
from marketgraph.mtgnn import MtgnnConfig, MtgnnModel
from marketgraph.training import TrainConfig


def test_first_step_matches_hand_computation():
    # With zero-initialized moments, step 1 moves by lr * g/|g| elementwise
    # (up to eps), independent of the gradient magnitude.
    p = Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad[...] = [0.5, -4.0]
    opt.step()

    m = 0.1 * p.grad
    v = 0.001 * p.grad ** 2
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)
    assert opt.t == 1


def test_two_steps_track_reference_implementation():
    p = Tensor([0.3], requires_grad=True)
    opt = Adam([p], lr=0.05)
    m = v = 0.0
    x = 0.3
    for t in (1, 2):
        g = 2.0 * x  # d/dx of x^2 evaluated at the reference copy
        p.grad[...] = 2.0 * p.data
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p.data, [x], rtol=1e-12)


def test_adam_step_validates_arguments():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(2)  # detached from the optimizer's vector: never read
    with pytest.raises(ShapeError):
        opt.step()
    q = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([q])
    q.data = np.ones(2)
    with pytest.raises(ShapeError):
        opt.step()
    for bad in (dict(lr=0.0), dict(l2=-1.0), dict(lr=np.nan), dict(lr=np.inf),
                dict(l2=np.nan), dict(l2=np.inf)):
        with pytest.raises(DomainError):
            Adam([p], **bad)


def test_adam_without_parameters_steps_as_a_no_op():
    opt = Adam([])
    opt.zero_grad()
    opt.step()
    assert opt.data.shape == (0,) and opt.t == 1


def test_adam_converges_on_quadratic():
    p = Tensor([5.0, -3.0], requires_grad=True)
    opt = Adam([p], lr=0.05)
    for _ in range(800):
        p.grad[...] = 2.0 * p.data
        opt.step()
    np.testing.assert_allclose(p.data, [0.0, 0.0], atol=1e-4)


def test_wrapper_reads_tensor_grads():
    p = Tensor([2.0, -1.0], requires_grad=True)
    opt = Adam([p], lr=0.1)
    with Tape() as tape:
        loss = sum_(mul(p, p))
    tape.backward(loss)
    before = p.data.copy()
    opt.step()
    assert not np.allclose(p.data, before)
    # sign of the move opposes the gradient
    assert p.data[0] < before[0] and p.data[1] > before[1]
    opt.zero_grad()
    np.testing.assert_array_equal(p.grad, [0.0, 0.0])
    np.testing.assert_array_equal(opt.grad, [0.0, 0.0])


def test_parameters_are_views_of_the_one_vector():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    q = Tensor([7.0], requires_grad=True)
    opt = Adam([p, q])
    np.testing.assert_array_equal(opt.data, [0, 1, 2, 3, 4, 5, 7])
    with Tape() as tape:
        loss = sum_(mul(q, 3.0))
    tape.backward(loss)
    np.testing.assert_array_equal(opt.grad, [0, 0, 0, 0, 0, 0, 3])
    opt.data[...] = 1.0
    np.testing.assert_array_equal(p.data, np.ones((2, 3)))


def test_a_gradient_check_between_steps_keeps_parameters_bound_to_the_optimizer():
    # grad_check_params zeroes each gradient in place, so a check between two
    # steps neither detaches a parameter nor stops training.
    model = TcnModel(TcnConfig(channels=2, num_blocks=1), Rng(3))
    gen = np.random.default_rng(4)
    x, y = gen.normal(size=(3, 2, 4)), gen.normal(size=(3, 2, 1))
    params = model.parameters()
    opt = Adam(params, lr=0.01)

    def loss_fn():
        return mean(abs_(model.forward_batch(x) - Tensor(y)))

    def step():
        opt.zero_grad()
        with Tape() as tape:
            loss = loss_fn()
        tape.backward(loss)
        opt.step()

    step()
    assert grad_check_params(loss_fn, params) <= 1e-6
    before = opt.data.copy()
    step()
    assert not np.array_equal(opt.data, before)
    for p in params:
        assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)


def test_wrapper_missing_grad_is_noop_direction():
    p = Tensor([1.0], requires_grad=True)
    q = Tensor([1.0], requires_grad=True)
    opt = Adam([p, q], lr=0.1)
    with Tape() as tape:
        loss = sum_(mul(p, p))
    tape.backward(loss)
    opt.step()
    np.testing.assert_allclose(q.data, [1.0])
    assert p.data[0] != 1.0


def test_l2_pulls_parameters_toward_zero():
    runs = {}
    for l2 in (0.0, 0.5):
        p = Tensor([3.0], requires_grad=True)
        opt = Adam([p], lr=0.05, l2=l2)
        for _ in range(50):
            with Tape() as tape:
                loss = sum_(mul(p, 0.0))
            tape.backward(loss)
            opt.step()
        runs[l2] = abs(p.data[0])
    assert runs[0.5] < runs[0.0]


def test_deterministic_given_same_inputs():
    def run():
        p = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        opt = Adam([p], lr=0.01)
        for _ in range(5):
            with Tape() as tape:
                loss = sum_(mul(p, p))
            tape.backward(loss)
            opt.step()
        return p.data.copy()
    np.testing.assert_array_equal(run(), run())


# -- bit-identity with the per-tensor rule ------------------------------------------


class _Gathered:
    """The parameters read and written as one vector, as `train` snapshots them."""

    def __init__(self, params):
        self.params = params

    def copy(self):
        return np.concatenate([p.data.reshape(-1) for p in self.params])

    def __setitem__(self, key, value):
        lo = 0
        for p in self.params:
            p.data[...] = value[lo:lo + p.data.size].reshape(p.data.shape)
            lo += p.data.size


class PerTensorAdam:
    """The per-tensor Adam loop the one-vector optimizer replaced: the reference rule.

    Each parameter keeps its own gradient buffer, zero until written, so the
    tape's accumulation and `fit_var_mlp`'s in-place writes reach it as they
    reach the one-vector optimizer's views.
    """

    def __init__(self, params, lr=0.001, l2=0.0):
        self.params = list(params)
        self.lr, self.l2, self.t = lr, l2, 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        for p in self.params:
            p.grad = np.zeros_like(p.data)
        self.data = _Gathered(self.params)

    def step(self):
        self.t += 1
        c1 = 1.0 - 0.9 ** self.t
        c2 = 1.0 - 0.999 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if self.l2:
                g = g + 2.0 * self.l2 * p.data
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)

    def zero_grad(self):
        for p in self.params:
            p.grad[...] = 0.0


@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 4), max_size=3), min_size=1, max_size=5),
       steps=st.integers(1, 6), l2=st.sampled_from([0.0, 1e-4, 0.3]),
       idle=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_one_vector_adam_equals_the_per_tensor_rule(shapes, steps, l2, idle, seed):
    gen = np.random.default_rng(seed)
    init = [gen.normal(size=shape) for shape in shapes]
    flat = [Tensor(a, requires_grad=True) for a in init]
    ref = [Tensor(a, requires_grad=True) for a in init]
    opts = Adam(flat, lr=0.01, l2=l2), PerTensorAdam(ref, lr=0.01, l2=l2)
    idle %= len(shapes)  # this parameter never gets a gradient
    for _ in range(steps):
        grads = [gen.normal(size=shape) * 10.0 ** gen.integers(-6, 3) for shape in shapes]
        for params, opt in zip((flat, ref), opts):
            opt.zero_grad()
            for i, (p, g) in enumerate(zip(params, grads)):
                if i != idle:
                    p.grad += g
            opt.step()
        for a, b in zip(flat, ref):
            np.testing.assert_array_equal(a.data, b.data)


def _fit_every_kind():
    gen = np.random.default_rng(5)
    values = np.cumsum(gen.normal(0, 0.1, size=(48, 3)), axis=0)
    windows = make_windows(build_frame(values), WindowSpec(P=8, Q=1))
    config = TrainConfig(epochs=2, batch_size=8, l2_coefficient=1e-3, seed=4)
    models = [GruModel(GruConfig(num_series=3, hidden_size=4), Rng(1)),
              TcnModel(TcnConfig(channels=3, num_blocks=2), Rng(2)),
              MtgnnModel(MtgnnConfig(num_nodes=3, num_layers=2, conv_channels=4, residual_channels=4,
                                     skip_channels=4, embedding_dim=4, input_window=8), Rng(3))]
    histories = [train(model, windows, windows, config).history for model in models]
    models.append(fit_var_mlp(values, 2, MlpSpec(hidden=5, epochs=3), Rng(6)))
    return [model.state_dict() for model in models], histories


def test_training_with_the_one_vector_equals_the_per_tensor_rule(monkeypatch):
    flat_states, flat_histories = _fit_every_kind()
    monkeypatch.setattr(training, "Adam", PerTensorAdam)
    monkeypatch.setattr(baselines, "Adam", PerTensorAdam)
    ref_states, ref_histories = _fit_every_kind()
    assert flat_histories == ref_histories
    for flat, ref in zip(flat_states, ref_states):
        assert list(flat) == list(ref)
        for name in flat:
            np.testing.assert_array_equal(flat[name], ref[name], err_msg=name)


def test_load_state_dict_between_steps_keeps_training_on_the_loaded_values():
    cfg = TcnConfig(channels=2, num_blocks=1)
    loaded = TcnModel(cfg, Rng(8)).state_dict()
    runs = []
    for cls in (Adam, PerTensorAdam):
        model = TcnModel(cfg, Rng(7))
        opt = cls(model.parameters(), lr=0.01, l2=1e-3)
        for state in (loaded, None):
            opt.zero_grad()
            for p in model.parameters():
                p.grad += 0.5
            opt.step()
            if state is not None:
                model.load_state_dict(state)
        runs.append(model.state_dict())
    for name, value in runs[0].items():
        np.testing.assert_array_equal(value, runs[1][name])
        assert not np.array_equal(value, loaded[name])  # one step on from the loaded values
