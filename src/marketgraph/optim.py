"""First-moment/second-moment adaptive gradient descent (Adam)."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DomainError, ShapeError


class Adam:
    """Bias-corrected Adam (Kingma & Ba, 2015) that reads .grad off each parameter.

    A parameter without a gradient counts as having a zero one. The l2
    penalty lambda*sum(p^2) enters as grad += 2*lambda*p before the moment
    update, matching an explicit penalty term in the loss. Each step then does
        m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
        p <- p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
    """

    def __init__(self, params: list[Tensor], lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, l2: float = 0.0):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise DomainError("betas must lie in [0, 1)")
        if not (0 < lr < np.inf and 0 < eps < np.inf):
            raise DomainError(f"lr and eps must be positive and finite, got {lr} and {eps}")
        if not 0 <= l2 < np.inf:
            raise DomainError(f"l2 coefficient must be nonnegative and finite, got {l2}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.l2 = l2
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ShapeError(f"grad shape {p.grad.shape} does not match param shape {p.data.shape}")
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            if self.l2:
                g = g + 2.0 * self.l2 * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
