"""First-moment/second-moment adaptive gradient descent (Adam)."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DomainError, ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam (Kingma & Ba, 2015) over one flat parameter vector.

    The constructor copies every parameter into `data` and rebinds each
    tensor's .data and .grad to views of its span in `data` and `grad`, so
    Tape.backward accumulates straight into `grad`; a parameter that gets no
    gradient keeps a zero one. The l2 penalty lambda*sum(p^2) enters as
    g = grad + 2*lambda*p before the moment update, matching an explicit
    penalty term in the loss. Each step then does
        m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
        p <- p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
    with b1, b2, eps = BETA1, BETA2, EPS.
    """

    def __init__(self, params: list[Tensor], lr: float = 0.001, l2: float = 0.0):
        if not 0 < lr < np.inf:
            raise DomainError(f"lr must be positive and finite, got {lr}")
        if not 0 <= l2 < np.inf:
            raise DomainError(f"l2 coefficient must be nonnegative and finite, got {l2}")
        self.params = list(params)
        self.lr = lr
        self.l2 = l2
        size = sum(p.data.size for p in self.params)
        self.data, self.grad, self.m, self.v = (np.zeros(size) for _ in range(4))
        self.t = 0
        self._views = []
        lo = 0
        for p in self.params:
            hi, shape = lo + p.data.size, p.data.shape
            self.data[lo:hi] = p.data.reshape(-1)
            p.data, p.grad = self.data[lo:hi].reshape(shape), self.grad[lo:hi].reshape(shape)
            self._views.append((p, p.data, p.grad))
            lo = hi

    def step(self) -> None:
        if any(p.data is not data or p.grad is not grad for p, data, grad in self._views):
            raise ShapeError("a parameter's .data or .grad was rebound away from the optimizer's vector")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        g = self.grad + 2.0 * self.l2 * self.data if self.l2 else self.grad
        self.m *= BETA1
        self.m += (1.0 - BETA1) * g
        self.v *= BETA2
        self.v += (1.0 - BETA2) * (g * g)
        self.data -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + EPS)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
