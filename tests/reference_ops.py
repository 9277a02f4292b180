"""The compositions that graph construction and the gated convolution were
built from before each became one op, kept as the references those ops must
match float for float.

Here `learn_adjacency` records 15 tape entries, `propagation_stack`
5 + 6 * depth + 2 (19 at depth 2) and `gated_temporal_conv` 3; the fused ops
in `marketgraph` record one each. `tanh_sigmoid_gate` is the gate op the
reference convolution ends in.
"""
import numpy as np

from marketgraph.autodiff import (
    Tensor, _lift, _record, add_bias, causal_conv1d, matmul, mul, permute, relu,
    row_normalize, stack_last, tanh, transpose,
)
from marketgraph.errors import DomainError, ShapeError
from marketgraph.graph import top_k_row_mask


def tanh_sigmoid_gate(a: Tensor) -> Tensor:
    """tanh(a[:, :C]) * sigmoid(a[:, C:]) for a with 2*C channels on axis 1."""
    a = _lift(a)
    if a.ndim < 2 or a.shape[1] % 2:
        raise ShapeError(f"gate needs an even channel count on axis 1, got shape {a.shape}")
    C = a.shape[1] // 2
    f = np.tanh(a.data[:, :C])
    s = 0.5 * (1.0 + np.tanh(0.5 * a.data[:, C:]))

    def back(g):
        return (np.concatenate((g * s * (1.0 - f * f), g * f * s * (1.0 - s)), axis=1),)

    return _record(f * s, (a,), back)


def learn_adjacency(e1, e2, theta1, theta2, alpha, k):
    n, d = e1.shape if e1.ndim == 2 else (0, 0)
    if e1.ndim != 2 or e2.shape != e1.shape or theta1.shape != (d, d) or theta2.shape != (d, d):
        raise ShapeError(f"need two equal [N, d] embeddings and two [d, d] mixing matrices, got "
                         f"{e1.shape}, {e2.shape}, {theta1.shape} and {theta2.shape}")
    if not 0 < alpha < np.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k={k} out of range for {n} nodes (max {n - 1})")
    m1 = tanh(mul(e1 @ theta1, alpha))
    m2 = tanh(mul(e2 @ theta2, alpha))
    score = m1 @ transpose(m2) - m2 @ transpose(m1)
    a0 = relu(tanh(mul(score, alpha)))
    mask = top_k_row_mask(a0.data, k)
    np.fill_diagonal(mask, 0.0)
    return mul(a0, Tensor(mask))


def propagation_stack(a, depth, beta):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    eye = Tensor(np.eye(a.shape[0]))
    mats = []
    for a_norm in [row_normalize(a + eye), row_normalize(transpose(a) + eye)]:
        p = eye
        mats.append(p)
        for _ in range(depth):
            p = mul(eye, beta) + mul(matmul(a_norm, p), 1.0 - beta)
            mats.append(p)
    return permute(stack_last(mats), (2, 0, 1))


def gated_temporal_conv(x, kernel, dilation, bias):
    return tanh_sigmoid_gate(add_bias(causal_conv1d(x, kernel, dilation), bias, 1))
