"""Reference forecasters: per-series AR, VAR-MLP hybrid, multivariate GRU, TCN,
persistence.

The neural baselines are built on the same tensor engine and trained by the
same harness as the graph model, so comparisons isolate architecture rather
than optimization differences.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Rng, Tensor, add_bias, causal_conv1d, channel_linear, gru_sequence, last_step, permute, relu,
    reshape, stack_last,
)
from .checkpoint import Model, NeuralModel
from .data import require_finite, window_array
from .errors import (
    AT_LEAST_2, POSITIVE, Checked, ConfigError, DataError, DomainError, ShapeError, dilations,
    receptive_field,
)
from .optim import Adam


def rollout(x: np.ndarray, horizon: int, step) -> np.ndarray:
    """[B, N, P] windows -> [B, N, horizon] forecasts, where `step` maps
    windows to their next [B, N] values and each one-step forecast is fed
    back as the newest step of the next."""
    out = np.zeros((x.shape[0], x.shape[1], horizon))
    for q in range(horizon):
        out[:, :, q] = step(x)
        x = np.concatenate([x, out[:, :, q:q + 1]], axis=2)
    return out


# -- autoregression ----------------------------------------------------------

def fit_ar(series, p: int) -> tuple[float, np.ndarray]:
    """Least-squares fit of x_t ~ c + sum_i phi_i * x_{t-i}, as (c, [phi_1 .. phi_p]).

    A constant series is handled by the intercept alone; any other exactly
    collinear lag structure is an error rather than an arbitrary solution.
    """
    x = np.asarray(series, dtype=np.float64).reshape(-1)
    if p < 1:
        raise DomainError(f"order must be at least 1, got {p}")
    if x.size <= p + 1:
        raise DataError(f"need more than {p + 1} observations for order {p}, have {x.size}")
    require_finite(x)
    if np.ptp(x) == 0:
        return float(x[0]), np.zeros(p)
    design, targets = _var_design(x[:, None], p)
    coef, _, rank, _ = np.linalg.lstsq(design, targets[:, 0], rcond=None)
    if rank < p + 1:
        raise DataError(f"exactly collinear lag structure at order {p}; reduce the order")
    return float(coef[0]), coef[1:]


@dataclass(frozen=True)
class ArConfig(Checked):
    order: int = field(metadata=POSITIVE)
    num_series: int = field(metadata=POSITIVE)


class ArEnsemble(Model):
    """Independent AR fits, one per series, behind the shared window API."""

    kind = "ar"
    config_class = ArConfig

    def __init__(self, config: ArConfig, rng: Rng | None = None):
        super().__init__(config)
        self.per_series = [(self.register(f"series{j}.intercept", Tensor(np.zeros(1))),
                            self.register(f"series{j}.coeffs", Tensor(np.zeros(config.order))))
                           for j in range(config.num_series)]

    def predict_windows(self, x: np.ndarray, horizon: int = 1) -> np.ndarray:
        order = self.config.order
        x = window_array(x, self.config.num_series, order)

        def step(h):
            # The most recent step meets coeffs[0].
            return np.stack([intercept.data[0] + h[:, j, :-order - 1:-1] @ coeffs.data
                             for j, (intercept, coeffs) in enumerate(self.per_series)], axis=1)

        return rollout(x, horizon, step)


def fit_ar_ensemble(values: np.ndarray, p: int) -> ArEnsemble:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"expected [rows, series] values, got {values.shape}")
    require_finite(values)
    fits = [fit_ar(values[:, j], p) for j in range(values.shape[1])]
    model = ArEnsemble(ArConfig(order=p, num_series=len(fits)))
    for (intercept, coeffs), (c, phi) in zip(model.per_series, fits):
        intercept.data[0], coeffs.data = c, phi
    return model


# -- vector autoregression with a nonlinear residual correction ---------------

def _var_design(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    # Row for target x_t: [1, x_{t-1} (N cells), x_{t-2}, ..., x_{t-p}].
    T, N = values.shape
    rows = T - p
    design = np.ones((rows, 1 + N * p))
    for lag in range(1, p + 1):
        design[:, 1 + (lag - 1) * N:1 + lag * N] = values[p - lag:T - lag]
    return design, values[p:]


def fit_var(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """OLS estimate of x_t = c + sum_lag x_{t-lag} @ A_lag.

    Returns (intercept [N], coefficient stack [p, N, N]); A_lag right-multiplies
    the lagged row vector, so A_lag[m, n] couples series m into series n.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"expected [rows, series] values, got {values.shape}")
    if p < 1:
        raise DomainError(f"order must be at least 1, got {p}")
    T, N = values.shape
    if T - p <= 1 + N * p:
        raise DataError(f"{T} rows are too few for a VAR({p}) over {N} series")
    require_finite(values)
    design, targets = _var_design(values, p)
    sol, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < design.shape[1]:
        raise DataError("singular VAR design matrix (collinear series or lags)")
    return sol[0], sol[1:].reshape(p, N, N)


@dataclass(frozen=True)
class MlpSpec(Checked):
    """Residual-correction network: one tanh hidden layer plus linear output.

    The field types are checked here; `fit_var_mlp` checks `epochs` and
    the comparison's var_mlp builder the declared bound of `hidden`.
    """

    check_bounds = False

    hidden: int = field(default=32, metadata=POSITIVE)
    epochs: int = 100


@dataclass(frozen=True)
class VarMlpConfig(Checked):
    order: int = field(metadata=POSITIVE)
    num_series: int = field(metadata=POSITIVE)
    hidden: int = field(metadata=POSITIVE)


class VarMlpModel(Model):
    """Linear VAR forecast plus an MLP trained on the VAR's residuals.

    The output layer starts at zero, so an untrained MLP contributes exactly
    nothing and the model degenerates to pure VAR.
    """

    kind = "var_mlp"
    config_class = VarMlpConfig

    def __init__(self, config: VarMlpConfig, rng: Rng):
        super().__init__(config)
        p, n, h = config.order, config.num_series, config.hidden
        self.intercept = self.register("var.intercept", Tensor(np.zeros(n)))
        self.coef = self.register("var.coef", Tensor(np.zeros((p, n, n))))
        self.w1 = self.weight(rng.split(), "mlp.w1", (n * p, h), n * p)
        self.b1 = self.bias("mlp.b1", h)
        self.w2 = self.bias("mlp.w2", (h, n))
        self.b2 = self.bias("mlp.b2", n)

    def predict_windows(self, x: np.ndarray, horizon: int = 1) -> np.ndarray:
        order = self.config.order
        x = window_array(x, self.config.num_series, order)

        def step(h):
            # lags[:, lag-1, :] is x_{t-lag}; the VAR sums its contributions over lags.
            lags = np.stack([h[:, :, -lag] for lag in range(1, order + 1)], axis=1)
            hidden = np.tanh(lags.reshape(len(h), order * h.shape[1]) @ self.w1.data + self.b1.data)
            var = self.intercept.data + np.tensordot(lags, self.coef.data, axes=([-2, -1], [0, 1]))
            return var + (hidden @ self.w2.data + self.b2.data)

        return rollout(x, horizon, step)


def _mlp_l1_grads(xb, yb, w1, b1, w2, b2) -> tuple[np.ndarray, ...]:
    """Gradients of mean|tanh(xb@w1 + b1)@w2 + b2 - yb| in (w1, b1, w2, b2), op for op as the tape."""
    h = np.tanh(xb @ w1 + b1)
    d = (h @ w2 + b2) - yb
    dout = np.sign(d) / d.size
    dpre = (dout @ w2.T) * (1.0 - h * h)
    return xb.T @ dpre, dpre.sum(axis=0), h.T @ dout, dout.sum(axis=0)


def fit_var_mlp(values: np.ndarray, var_order: int, spec: MlpSpec = MlpSpec(),
                rng: Rng | None = None) -> VarMlpModel:
    """VAR by least squares, then an MLP fitted to the VAR residuals (Adam at
    a learning rate of 0.001, l1, batches of 32)."""
    if spec.epochs < 0:
        raise ConfigError(f"epochs must be nonnegative, got {spec.epochs}")
    values = np.asarray(values, dtype=np.float64)
    rng = rng or Rng(0)
    intercept, coef = fit_var(values, var_order)
    design, targets = _var_design(values, var_order)
    residuals = targets - design @ np.concatenate([intercept[None, :], coef.reshape(-1, values.shape[1])])

    # The model draws mlp.w1 from the first split of `rng`, the shuffle the second.
    model = VarMlpModel(VarMlpConfig(order=var_order, num_series=values.shape[1], hidden=spec.hidden),
                        rng)
    model.intercept.data, model.coef.data = intercept, coef
    w1, b1, w2, b2 = model.w1, model.b1, model.w2, model.b2

    inputs = design[:, 1:]
    opt = Adam([w1, b1, w2, b2], lr=0.001)
    shuffle = rng.split()
    for _ in range(spec.epochs):
        order = shuffle.permutation(inputs.shape[0])
        for lo in range(0, inputs.shape[0], 32):
            idx = order[lo:lo + 32]
            w1.grad[...], b1.grad[...], w2.grad[...], b2.grad[...] = _mlp_l1_grads(
                inputs[idx], residuals[idx], w1.data, b1.data, w2.data, b2.data)
            opt.step()
    return model


# -- gated recurrent unit ------------------------------------------------------

@dataclass(frozen=True)
class GruConfig(Checked):
    num_series: int = field(metadata=POSITIVE)
    hidden_size: int = field(default=64, metadata=POSITIVE)
    horizon: int = field(default=1, metadata=POSITIVE)


class GruModel(NeuralModel):
    """Single-layer multivariate GRU with a linear readout of the final state."""

    kind = "gru"
    config_class = GruConfig

    def __init__(self, config: GruConfig, rng: Rng):
        super().__init__(config)
        n, h = config.num_series, config.hidden_size
        init = rng.split()
        self.cell = {}
        for gate in "zrh":
            self.cell[f"w_{gate}"] = self.weight(init, f"cell.w_{gate}", (n, h), n)
            self.cell[f"u_{gate}"] = self.weight(init, f"cell.u_{gate}", (h, h), h)
            self.cell[f"b_{gate}"] = self.bias(f"cell.b_{gate}", h)
        self.read_w = self.weight(init, "read.w", (h, n), h)
        self.read_b = self.bias("read.b", n)

    def forward_batch(self, x: np.ndarray, rng: Rng | None = None,
                      collect: list | None = None) -> Tensor:
        """[B, N, P] -> [B, N, Q]; collects the [B, hidden, P] hidden states.

        The P input steps run as one `gru_sequence` op from a zero state; a
        forecast of more than one step continues it from the last state, one
        step per prediction fed back.
        """
        x = window_array(x, self.config.num_series)
        B, N = x.shape[:2]
        states = gru_sequence(Tensor(x), Tensor(np.zeros((B, self.config.hidden_size))), **self.cell)
        if collect is not None:
            collect.append(states)
        h = last_step(states)
        preds = [add_bias(h @ self.read_w, self.read_b, 1)]
        for _ in range(1, self.config.horizon):
            h = last_step(gru_sequence(reshape(preds[-1], (B, N, 1)), h, **self.cell))
            preds.append(add_bias(h @ self.read_w, self.read_b, 1))
        return stack_last(preds)


# -- temporal convolutional network ---------------------------------------------

@dataclass(frozen=True)
class TcnConfig(Checked):
    channels: int = field(default=16, metadata=POSITIVE)
    kernel_size: int = field(default=2, metadata=AT_LEAST_2)
    num_blocks: int = field(default=3, metadata=POSITIVE)
    horizon: int = field(default=1, metadata=POSITIVE)

    @property
    def receptive_field(self) -> int:
        return receptive_field(self.kernel_size, self.num_blocks)


class TcnModel(NeuralModel):
    """Stacked residual blocks of dilated causal convolutions, shared across series."""

    kind = "tcn"
    config_class = TcnConfig

    def __init__(self, config: TcnConfig, rng: Rng):
        super().__init__(config)
        c, K = config.channels, config.kernel_size
        init = rng.split()
        self.start_w = self.weight(init, "start.w", (1, c), 1)
        self.start_b = self.bias("start.b", c)
        self.blocks = [{"dilation": d,
                        "w": self.weight(init, f"block{i}.w", (c, c, K), c * K),
                        "b": self.bias(f"block{i}.b", c)}
                       for i, d in enumerate(dilations(config.num_blocks))]
        self.head_w = self.weight(init, "head.w", (c, config.horizon), c)
        self.head_b = self.bias("head.b", config.horizon)

    def forward_batch(self, x: np.ndarray, rng: Rng | None = None,
                      collect: list | None = None) -> Tensor:
        """[B, N, P] -> [B, N, Q]; collects each block's residual state.

        The head reads only the last step, so without `collect` only the last
        `receptive_field` input steps are convolved.
        """
        x = window_array(x, steps=self.config.receptive_field)
        if collect is None:
            x = x[..., -self.config.receptive_field:]
        v = add_bias(channel_linear(Tensor(x[:, None]), self.start_w), self.start_b, 1)
        for blk in self.blocks:
            h = relu(add_bias(causal_conv1d(v, blk["w"], blk["dilation"]), blk["b"], 1))
            v = h + v
            if collect is not None:
                collect.append(v)
        out = add_bias(channel_linear(last_step(v), self.head_w), self.head_b, 1)
        return permute(out, (0, 2, 1))


# -- naive floor ---------------------------------------------------------------

class PersistenceModel:
    """Windows in, each window's last observed value out for every forecast
    step; the no-learning floor."""

    kind = "persistence"

    def predict_windows(self, x: np.ndarray, horizon: int = 1) -> np.ndarray:
        x = window_array(x)
        return np.repeat(x[:, :, -1:], horizon, axis=2)
