"""Adam update rule against hand arithmetic, and how it reads Tensor gradients."""
import numpy as np
import pytest

from marketgraph import Adam, DomainError, ShapeError, Tape, Tensor
from marketgraph.autodiff import mul, sum_


def test_first_step_matches_hand_computation():
    # With zero-initialized moments, step 1 moves by lr * g/|g| elementwise
    # (up to eps), independent of the gradient magnitude.
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.array([0.5, -4.0])
    opt = Adam([p], lr=0.1, eps=1e-8)
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
        p.grad = np.array([2.0 * p.data[0]])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p.data, [x], rtol=1e-12)


def test_adam_step_validates_arguments():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.zeros(3)
    with pytest.raises(ShapeError):
        Adam([p]).step()
    for bad in (dict(lr=0.0), dict(eps=0.0), dict(beta1=1.0), dict(beta2=1.0),
                dict(beta1=-0.1), dict(l2=-1.0)):
        with pytest.raises(DomainError):
            Adam([p], **bad)


def test_adam_converges_on_quadratic():
    p = Tensor([5.0, -3.0], requires_grad=True)
    opt = Adam([p], lr=0.05)
    for _ in range(800):
        p.grad = 2.0 * p.data
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
    assert p.grad is None


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
