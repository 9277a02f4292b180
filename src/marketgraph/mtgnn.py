"""Spatio-temporal forecaster with a jointly learned series graph.

The network interleaves gated dilated causal temporal convolutions with
mix-hop graph convolutions over an adjacency that is itself learned from
node embeddings. Residual connections run from each temporal-convolution
input to the graph-convolution output; every temporal convolution also
feeds a skip path into the output head.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Rng, Tensor, _causal_conv, _lift, _record, add_bias, channel_linear, dropout, last_step,
    mix_hop, permute, relu,
)
from .checkpoint import NeuralModel
from .data import window_array
from .errors import (
    AT_LEAST_2, NONNEGATIVE, POSITIVE, POSITIVE_FINITE, PROBABILITY, UNIT_INTERVAL, Checked,
    ConfigError, DomainError, ShapeError, check_depth, dilations, receptive_field,
)
from .graph import learn_adjacency


@dataclass(frozen=True)
class MtgnnConfig(Checked):
    """Architecture and regularization knobs; channel defaults follow the
    reference experiment setup (16/16/32 channels, dropout 0.3, depth-2
    graph convolutions, 40-dimensional node embeddings)."""

    num_nodes: int = field(metadata=AT_LEAST_2)
    num_layers: int = field(default=3, metadata=POSITIVE)
    conv_channels: int = field(default=16, metadata=POSITIVE)
    residual_channels: int = field(default=16, metadata=POSITIVE)
    skip_channels: int = field(default=32, metadata=POSITIVE)
    dropout: float = field(default=0.3, metadata=PROBABILITY)
    gc_depth: int = field(default=2, metadata=NONNEGATIVE)
    embedding_dim: int = field(default=40, metadata=POSITIVE)
    input_window: int = field(default=30, metadata=POSITIVE)
    horizon: int = field(default=1, metadata=POSITIVE)
    retain_ratio: float = field(default=0.05, metadata=UNIT_INTERVAL)
    kernel_size: int = field(default=2, metadata=AT_LEAST_2)
    alpha: float = field(default=3.0, metadata=POSITIVE_FINITE)
    k: int | None = None
    use_residual: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.k is not None and not 1 <= self.k <= self.num_nodes - 1:
            raise ConfigError(f"k={self.k} out of range for {self.num_nodes} nodes")
        check_depth(self.input_window, self.num_layers, self.kernel_size, "layers")

    @property
    def receptive_field(self) -> int:
        return receptive_field(self.kernel_size, self.num_layers)

    @property
    def sparsity(self) -> int:
        return self.k if self.k is not None else min(5, self.num_nodes - 1)


def propagation_stack(a: Tensor, depth: int, beta: float) -> Tensor:
    """Hop propagation matrices of both directions, stacked to [2(depth+1), N, N].

    A_norm is row-normalized (A + I) for the forward direction, then
    row-normalized (A^T + I) for the backward one: each row mixes a node
    with its in-edges. For each in turn, P(0) = I and
    P(k) = beta*I + (1-beta)*A_norm P(k-1), so P(k) H is the k-th hop state
    of the rule H(k) = beta*H + (1-beta)*A_norm H(k-1) with H(0) = H.

    One op, whose backward repeats the floats of the reverse sweep through
    the equivalent add, transpose, row_normalize, matmul and mul ops.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    eye = np.eye(a.shape[0])
    norms, mats = [], []   # per direction (A + I or A^T + I, its row sums, A_norm); P(0..depth)
    for x in (a.data + eye, np.ascontiguousarray(np.transpose(a.data, (1, 0))) + eye):
        s = x.sum(axis=1, keepdims=True)
        if np.any(s <= 0):
            raise DomainError("row_normalize requires positive row sums")
        a_norm = x / s
        norms.append((x, s, a_norm))
        mats.append(eye)
        for _ in range(depth):
            mats.append(eye * beta + (a_norm @ mats[-1]) * (1.0 - beta))

    def back(g):
        g_dirs = []
        for d, (x, s, a_norm) in enumerate(norms):
            first = d * (depth + 1)
            g_p, g_norm = g[first + depth], None
            for k in range(depth, 0, -1):
                g_mm = g_p * (1.0 - beta)
                term = g_mm @ mats[first + k - 1].T
                g_norm = term if g_norm is None else g_norm + term
                if k > 1:   # P(0) = I is a constant
                    g_p = g[first + k - 1] + a_norm.T @ g_mm
            g_dirs.append(g_norm / s - (g_norm * x).sum(axis=1, keepdims=True) / (s * s))
        return (np.transpose(g_dirs[1], (1, 0)) + g_dirs[0],)

    # At depth 0 every matrix is I, so the stack does not depend on a.
    return _record(np.stack(mats), (a,) if depth else (), back)


def _mix_hop_core(h: Tensor, props: Tensor, weights: Tensor) -> Tensor:
    """out = sum_k (props[k] H) weights[k], for one layer and every direction."""
    return mix_hop(h, props, weights)


def gated_temporal_conv(x: Tensor, kernel: Tensor, dilation: int, bias: Tensor) -> Tensor:
    """tanh(filter) * sigmoid(gate) from one causal, dilated convolution.

    x is [B, C_in, N, T]; kernel is [2C, C_in, K] and bias [2C]: rows [:C]
    are the filter, rows [C:] the gate. One op, with the floats of
    causal_conv1d, then add_bias along axis 1, then the gate.
    """
    x, kernel, bias = _lift(x), _lift(kernel), _lift(bias)
    out, conv_back = _causal_conv(x, kernel, dilation)
    if bias.ndim != 1:
        raise ShapeError(f"bias must be 1-D, got shape {bias.shape}")
    if out.shape[1] != bias.shape[0]:
        raise ShapeError(f"bias length {bias.shape[0]} does not match axis 1 of {out.shape}")
    if out.shape[1] % 2:
        raise ShapeError(f"gate needs an even channel count on axis 1, got shape {out.shape}")
    C = out.shape[1] // 2
    out += bias.data.reshape(1, 2 * C, 1, 1)
    f = np.tanh(out[:, :C])
    s = 0.5 * (1.0 + np.tanh(0.5 * out[:, C:]))
    shape = out.shape

    def back(g):
        # Filter and gate adjoints written straight into one [B, 2C, N, T] array.
        dz = np.empty(shape)
        np.multiply(g * s, 1.0 - f * f, out=dz[:, :C])
        np.multiply(g * f * s, 1.0 - s, out=dz[:, C:])
        return (*conv_back(dz), dz.sum(axis=(0, 2, 3)))

    return _record(f * s, (x, kernel, bias), back)


class MtgnnModel(NeuralModel):
    """The full network; owns every learnable tensor, keyed by name."""

    kind = "mtgnn"
    config_class = MtgnnConfig
    predict_chunk = 32

    def __init__(self, config: MtgnnConfig, rng: Rng):
        super().__init__(config)
        c = config

        # Embeddings, then mixing matrices, each from a stream of its own: the
        # order that fixes every seeded initial weight.
        emb, mix = rng.split(), rng.split()
        N, D = c.num_nodes, c.embedding_dim
        self.e1 = self.weight(emb, "emb.e1", (N, D), 1)
        self.e2 = self.weight(emb, "emb.e2", (N, D), 1)
        self.theta1 = self.weight(mix, "graph.theta1", (D, D), D)
        self.theta2 = self.weight(mix, "graph.theta2", (D, D), D)

        init = rng.split()
        self.start_w = self.weight(init, "start.w", (1, c.residual_channels), 1)
        self.start_b = self.bias("start.b", c.residual_channels)

        self.layers = []
        K = c.kernel_size
        for i, dil in enumerate(dilations(c.num_layers)):
            # One draw per stacked tensor consumes the stream exactly as the
            # separate filter/gate and per-hop draws would.
            layer = {
                "dilation": dil,
                "gated.w": self.weight(init, f"layer{i}.gated.w",
                                       (2 * c.conv_channels, c.residual_channels, K),
                                       c.residual_channels * K),
                "gated.b": self.bias(f"layer{i}.gated.b", 2 * c.conv_channels),
                "skip.w": self.weight(init, f"layer{i}.skip.w", (c.conv_channels, c.skip_channels),
                                      c.conv_channels),
                # forward hops 0..gc_depth, then backward hops 0..gc_depth
                "mix.w": self.weight(init, f"layer{i}.mix.w",
                                     (2 * (c.gc_depth + 1), c.conv_channels, c.residual_channels),
                                     c.conv_channels),
            }
            self.layers.append(layer)

        self.skip_end_w = self.weight(init, "skip_end.w", (c.residual_channels, c.skip_channels),
                                      c.residual_channels)
        self.head1_w = self.weight(init, "head1.w", (c.skip_channels, c.skip_channels), c.skip_channels)
        self.head1_b = self.bias("head1.b", c.skip_channels)
        self.head2_w = self.weight(init, "head2.w", (c.skip_channels, c.horizon), c.skip_channels)
        self.head2_b = self.bias("head2.b", c.horizon)

    def adjacency(self) -> Tensor:
        """Current belief about the series graph, recomputed from embeddings."""
        c = self.config
        return learn_adjacency(self.e1, self.e2, self.theta1, self.theta2, c.alpha, c.sparsity)

    def forward_batch(self, x: np.ndarray, rng: Rng | None = None,
                      collect: list | None = None) -> Tensor:
        """[B, N, P] normalized inputs -> [B, N, Q] predictions; collects each
        layer's gated-convolution output. An `rng` draws dropout masks.

        The skip paths and the head read only each layer's last step, which
        depends on just the last `receptive_field` input steps. So without
        `collect` only those steps are convolved; with it the whole window is.
        """
        c = self.config
        x = window_array(x, c.num_nodes, c.receptive_field)
        P = x.shape[-1]
        props = propagation_stack(self.adjacency(), c.gc_depth, c.retain_ratio)
        if collect is None:
            x = x[..., P - c.receptive_field:]
        v = add_bias(channel_linear(Tensor(x[:, None]), self.start_w), self.start_b, 1)

        skip_sum = None
        for layer in self.layers:
            h = gated_temporal_conv(v, layer["gated.w"], layer["dilation"], layer["gated.b"])
            if collect is not None:
                collect.append(h)
            h = dropout(h, c.dropout, rng=rng, steps=P)
            s = channel_linear(last_step(h), layer["skip.w"])
            skip_sum = s if skip_sum is None else skip_sum + s
            z = _mix_hop_core(h, props, layer["mix.w"])
            v = z + v if c.use_residual else z

        skip_sum = skip_sum + channel_linear(last_step(v), self.skip_end_w)
        out = relu(skip_sum)
        out = relu(add_bias(channel_linear(out, self.head1_w), self.head1_b, 1))
        out = add_bias(channel_linear(out, self.head2_w), self.head2_b, 1)
        return permute(out, (0, 2, 1))
