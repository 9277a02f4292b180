"""Reference forecasters: per-series AR, VAR-MLP hybrid, multivariate GRU, TCN,
persistence.

The neural baselines are built on the same tensor engine and trained by the
same harness as the graph model, so comparisons isolate architecture rather
than optimization differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import (
    Rng, Tape, Tensor, abs_, add_bias, causal_conv1d, channel_linear,
    last_step, mean, permute, relu, reshape, sigmoid, stack_last, tanh,
    time_index,
)
from .checkpoint import NeuralModel, load_exact, save_checkpoint
from .errors import ConfigError, DataError, DomainError, ShapeError, check_field_types
from .optim import Adam


# -- autoregression ----------------------------------------------------------

@dataclass(frozen=True)
class ArModel:
    """One series regressed on its own p most recent values."""

    order: int
    intercept: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        if self.order < 1 or self.coeffs.shape != (self.order,):
            raise ShapeError(f"order {self.order} needs {self.order} coefficients, got {self.coeffs.shape}")
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(self.coeffs))):
            raise DataError("coefficients must be finite")


def fit_ar(series, p: int) -> ArModel:
    """Least-squares fit of x_t ~ c + sum_i phi_i * x_{t-i}.

    A constant series is handled by the intercept alone; any other exactly
    collinear lag structure is an error rather than an arbitrary solution.
    """
    x = np.asarray(series, dtype=np.float64).reshape(-1)
    if p < 1:
        raise DomainError(f"order must be at least 1, got {p}")
    if x.size <= p + 1:
        raise DataError(f"need more than {p + 1} observations for order {p}, have {x.size}")
    if np.ptp(x) == 0:
        return ArModel(order=p, intercept=float(x[0]), coeffs=np.zeros(p))
    rows = x.size - p
    design = np.ones((rows, p + 1))
    for i in range(1, p + 1):
        design[:, i] = x[p - i:x.size - i]
    coef, _, rank, _ = np.linalg.lstsq(design, x[p:], rcond=None)
    if rank < p + 1:
        raise DataError(f"exactly collinear lag structure at order {p}; reduce the order")
    return ArModel(order=p, intercept=float(coef[0]), coeffs=coef[1:])


class ArEnsemble:
    """Independent AR fits, one per series, behind the shared window API."""

    kind = "ar"

    def __init__(self, models: Sequence[ArModel]):
        if not models:
            raise DataError("empty ensemble")
        self.models = list(models)

    @property
    def order(self) -> int:
        return self.models[0].order

    def predict_windows(self, x: np.ndarray, horizon: int = 1) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        B, N, P = x.shape
        if N != len(self.models):
            raise ShapeError(f"{N} series but {len(self.models)} fitted models")
        if P < self.order:
            raise DataError(f"window of {P} steps is shorter than AR order {self.order}")
        out = np.zeros((B, N, horizon))
        for j, m in enumerate(self.models):
            h = x[:, j, :]
            for q in range(horizon):
                recent = h[:, :-m.order - 1:-1]
                nxt = m.intercept + recent @ m.coeffs
                out[:, j, q] = nxt
                h = np.concatenate([h, nxt[:, None]], axis=1)
        return out

    def save(self, path) -> None:
        params = {}
        for j, m in enumerate(self.models):
            params[f"series{j}.intercept"] = np.array([m.intercept])
            params[f"series{j}.coeffs"] = m.coeffs
        save_checkpoint(path, kind="ar", config={"order": self.order, "num_series": len(self.models)},
                        params=params)

    @staticmethod
    def _shapes(order: int, num_series: int) -> dict[str, tuple]:
        return {f"series{j}.{part}": shape for j in range(num_series)
                for part, shape in (("intercept", (1,)), ("coeffs", (order,)))}

    @classmethod
    def load(cls, path) -> "ArEnsemble":
        ckpt = load_exact(path, cls.kind, ("order", "num_series"), cls._shapes)
        p = ckpt.params
        return cls([ArModel(order=ckpt.config["order"], intercept=float(p[f"series{j}.intercept"][0]),
                            coeffs=p[f"series{j}.coeffs"]) for j in range(ckpt.config["num_series"])])


def fit_ar_ensemble(values: np.ndarray, p: int) -> ArEnsemble:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"expected [rows, series] values, got {values.shape}")
    return ArEnsemble([fit_ar(values[:, j], p) for j in range(values.shape[1])])


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
    design, targets = _var_design(values, p)
    sol, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < design.shape[1]:
        raise DataError("singular VAR design matrix (collinear series or lags)")
    return sol[0], sol[1:].reshape(p, N, N)


@dataclass(frozen=True)
class MlpSpec:
    """Residual-correction network: one tanh hidden layer plus linear output."""

    hidden: int = 32
    epochs: int = 100
    learning_rate: float = 0.001
    batch_size: int = 32

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        if self.hidden < 1 or self.batch_size < 1:
            raise ConfigError("hidden width and batch size must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")


class VarMlpModel:
    """Linear VAR forecast plus an MLP trained on the VAR's residuals.

    The output layer starts at zero, so an untrained MLP contributes exactly
    nothing and the model degenerates to pure VAR.
    """

    kind = "var_mlp"

    def __init__(self, order: int, intercept: np.ndarray, coef: np.ndarray,
                 w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
        self.order = order
        self.intercept = np.asarray(intercept, dtype=np.float64)
        self.coef = np.asarray(coef, dtype=np.float64)
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        n = self.intercept.shape[0]
        if self.coef.shape != (order, n, n):
            raise ShapeError(f"coefficient stack {self.coef.shape} does not match order {order} over {n} series")
        if self.w1.shape[0] != n * order:
            raise ShapeError(f"MLP input width {self.w1.shape[0]} must equal N*order = {n * order}")

    @property
    def num_series(self) -> int:
        return self.intercept.shape[0]

    def predict_windows(self, x: np.ndarray, horizon: int = 1) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        B, N, P = x.shape
        if P < self.order:
            raise DataError(f"window of {P} steps is shorter than VAR order {self.order}")
        out = np.zeros((B, N, horizon))
        hist = np.swapaxes(x, 1, 2)  # [B, P, N]
        for q in range(horizon):
            # lags[:, lag-1, :] is x_{t-lag}; the VAR sums its contributions over lags.
            lags = np.stack([hist[:, hist.shape[1] - lag, :] for lag in range(1, self.order + 1)], axis=1)
            hidden = np.tanh(lags.reshape(B, -1) @ self.w1.data + self.b1.data)
            pred = ((self.intercept + np.tensordot(lags, self.coef, axes=([-2, -1], [0, 1])))
                    + (hidden @ self.w2.data + self.b2.data))
            out[:, :, q] = pred
            hist = np.concatenate([hist, pred[:, None, :]], axis=1)
        return out

    def save(self, path) -> None:
        save_checkpoint(path, kind=self.kind,
                        config={"order": self.order, "num_series": self.num_series,
                                "hidden": self.w1.shape[1]},
                        params={"var.intercept": self.intercept, "var.coef": self.coef,
                                "mlp.w1": self.w1.data, "mlp.b1": self.b1.data,
                                "mlp.w2": self.w2.data, "mlp.b2": self.b2.data})

    @staticmethod
    def _shapes(p: int, n: int, h: int) -> dict[str, tuple]:
        return {"var.intercept": (n,), "var.coef": (p, n, n), "mlp.w1": (n * p, h),
                "mlp.b1": (h,), "mlp.w2": (h, n), "mlp.b2": (n,)}

    @classmethod
    def load(cls, path) -> "VarMlpModel":
        ckpt = load_exact(path, cls.kind, ("order", "num_series", "hidden"), cls._shapes)
        p = ckpt.params
        return cls(order=ckpt.config["order"], intercept=p["var.intercept"], coef=p["var.coef"],
                   w1=Tensor(p["mlp.w1"], requires_grad=True), b1=Tensor(p["mlp.b1"], requires_grad=True),
                   w2=Tensor(p["mlp.w2"], requires_grad=True), b2=Tensor(p["mlp.b2"], requires_grad=True))


def fit_var_mlp(values: np.ndarray, var_order: int, spec: MlpSpec = MlpSpec(),
                rng: Rng | None = None) -> VarMlpModel:
    """VAR by least squares, then an MLP fitted to the VAR residuals (Adam, l1)."""
    values = np.asarray(values, dtype=np.float64)
    rng = rng or Rng(0)
    intercept, coef = fit_var(values, var_order)
    design, targets = _var_design(values, var_order)
    residuals = targets - design @ np.concatenate([intercept[None, :], coef.reshape(-1, values.shape[1])])

    n = values.shape[1]
    in_dim = n * var_order
    init = rng.split()
    w1 = Tensor(init.normal((in_dim, spec.hidden), 1.0 / np.sqrt(in_dim)), requires_grad=True)
    b1 = Tensor(np.zeros(spec.hidden), requires_grad=True)
    w2 = Tensor(np.zeros((spec.hidden, n)), requires_grad=True)
    b2 = Tensor(np.zeros(n), requires_grad=True)
    model = VarMlpModel(var_order, intercept, coef, w1, b1, w2, b2)

    inputs = design[:, 1:]
    opt = Adam([w1, b1, w2, b2], lr=spec.learning_rate)
    shuffle = rng.split()
    for _ in range(spec.epochs):
        order = shuffle.permutation(inputs.shape[0])
        for lo in range(0, inputs.shape[0], spec.batch_size):
            idx = order[lo:lo + spec.batch_size]
            xb, yb = Tensor(inputs[idx]), Tensor(residuals[idx])
            opt.zero_grad()
            tape = Tape()
            with tape:
                h = tanh(add_bias(xb @ w1, b1, 1))
                out = add_bias(h @ w2, b2, 1)
                loss = mean(abs_(out - yb))
            tape.backward(loss)
            opt.step()
    return model


# -- gated recurrent unit ------------------------------------------------------

@dataclass
class GruParams:
    """Update gate z, reset gate r, candidate state weights."""

    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor


def gru_cell(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """One recurrence step: h' = (1-z) * h + z * tanh-candidate."""
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"expected [batch, in] and [batch, hidden], got {x.shape} and {h.shape}")
    z = sigmoid(add_bias(x @ params.w_z + h @ params.u_z, params.b_z, 1))
    r = sigmoid(add_bias(x @ params.w_r + h @ params.u_r, params.b_r, 1))
    cand = tanh(add_bias(x @ params.w_h + (r * h) @ params.u_h, params.b_h, 1))
    return (1.0 - z) * h + z * cand


@dataclass(frozen=True)
class GruConfig:
    num_series: int
    hidden_size: int = 64
    horizon: int = 1

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        if self.num_series < 1 or self.hidden_size < 1 or self.horizon < 1:
            raise ConfigError("num_series, hidden_size, and horizon must be positive")


class GruModel(NeuralModel):
    """Single-layer multivariate GRU with a linear readout of the final state."""

    kind = "gru"
    config_class = GruConfig

    def __init__(self, config: GruConfig, rng: Rng):
        super().__init__(config)
        n, h = config.num_series, config.hidden_size
        init = rng.split()
        cell = {}
        for gate in "zrh":
            cell[f"w_{gate}"] = self.weight(init, f"cell.w_{gate}", (n, h), n)
            cell[f"u_{gate}"] = self.weight(init, f"cell.u_{gate}", (h, h), h)
            cell[f"b_{gate}"] = self.bias(f"cell.b_{gate}", h)
        self.cell = GruParams(**cell)
        self.read_w = self.weight(init, "read.w", (h, n), h)
        self.read_b = self.bias("read.b", n)

    def forward_batch(self, x, training: bool = False, rng: Rng | None = None,
                      collect: list | None = None) -> Tensor:
        """[B, N, P] -> [B, N, Q]; collects the hidden state after each input step."""
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        if x.ndim != 3 or x.shape[1] != self.config.num_series:
            raise ShapeError(f"expected [batch, {self.config.num_series}, steps], got {x.shape}")
        B, N, P = x.shape
        h = Tensor(np.zeros((B, self.config.hidden_size)))
        for t in range(P):
            h = gru_cell(time_index(x, t), h, self.cell)
            if collect is not None:
                collect.append(h)
        preds = [add_bias(h @ self.read_w, self.read_b, 1)]
        for _ in range(1, self.config.horizon):
            h = gru_cell(preds[-1], h, self.cell)
            preds.append(add_bias(h @ self.read_w, self.read_b, 1))
        return stack_last(preds)


# -- temporal convolutional network ---------------------------------------------

@dataclass(frozen=True)
class TcnConfig:
    channels: int = 16
    kernel_size: int = 2
    num_blocks: int = 3
    horizon: int = 1

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        if self.channels < 1 or self.num_blocks < 1 or self.horizon < 1:
            raise ConfigError("channels, num_blocks, and horizon must be positive")
        if self.kernel_size < 2:
            raise ConfigError(f"kernel_size must be at least 2, got {self.kernel_size}")

    @property
    def dilations(self) -> tuple[int, ...]:
        return tuple(2 ** i for i in range(self.num_blocks))

    @property
    def receptive_field(self) -> int:
        return 1 + (self.kernel_size - 1) * sum(self.dilations)


class TcnModel(NeuralModel):
    """Stacked residual blocks of dilated causal convolutions, shared across series."""

    kind = "tcn"
    config_class = TcnConfig

    def __init__(self, config: TcnConfig, rng: Rng):
        super().__init__(config)
        c, K, dil = config.channels, config.kernel_size, config.dilations
        init = rng.split()
        self.start_w = self.weight(init, "start.w", (1, c), 1)
        self.start_b = self.bias("start.b", c)
        # Block kernels are drawn before the head but registered after it,
        # which fixes both the initial values and the checkpoint entry order.
        kernels = [init.normal((c, c, K), 1.0 / np.sqrt(c * K)) for _ in dil]
        self.head_w = self.weight(init, "head.w", (c, config.horizon), c)
        self.head_b = self.bias("head.b", config.horizon)
        self.blocks = [{"dilation": d,
                        "w": self.register(f"block{i}.w", Tensor(k, requires_grad=True)),
                        "b": self.bias(f"block{i}.b", c)}
                       for i, (d, k) in enumerate(zip(dil, kernels))]

    def forward_batch(self, x, training: bool = False, rng: Rng | None = None,
                      collect: list | None = None) -> Tensor:
        """[B, N, P] -> [B, N, Q]; collects each block's residual state."""
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        if x.ndim != 3:
            raise ShapeError(f"expected [batch, series, steps] input, got {x.shape}")
        B, N, P = x.shape
        if P < self.config.receptive_field:
            raise ShapeError(f"input window {P} is shorter than the receptive field "
                             f"{self.config.receptive_field}")
        v = add_bias(channel_linear(reshape(x, (B, 1, N, P)), self.start_w), self.start_b, 1)
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
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeError(f"expected [batch, series, steps] windows, got {x.shape}")
        return np.repeat(x[:, :, -1:], horizon, axis=2)
