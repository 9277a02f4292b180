"""Spatio-temporal forecaster with a jointly learned series graph.

The network interleaves gated dilated causal temporal convolutions with
mix-hop graph convolutions over an adjacency that is itself learned from
node embeddings. Residual connections run from each temporal-convolution
input to the graph-convolution output; every temporal convolution also
feeds a skip path into the output head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Rng, Tensor, add_bias, causal_conv1d, channel_linear, dropout, last_step,
    matmul, mix_hop, mul, permute, relu, row_normalize, stack_last, tanh_sigmoid_gate,
    transpose,
)
from .checkpoint import NeuralModel
from .data import window_array
from .errors import ConfigError, ShapeError, check_depth, check_field_types, dilations, receptive_field
from .graph import learn_adjacency


@dataclass(frozen=True)
class MtgnnConfig:
    """Architecture and regularization knobs; channel defaults follow the
    reference experiment setup (16/16/32 channels, dropout 0.3, depth-2
    graph convolutions, 40-dimensional node embeddings)."""

    num_nodes: int
    num_layers: int = 3
    conv_channels: int = 16
    residual_channels: int = 16
    skip_channels: int = 32
    dropout: float = 0.3
    gc_depth: int = 2
    embedding_dim: int = 40
    input_window: int = 30
    horizon: int = 1
    retain_ratio: float = 0.05
    kernel_size: int = 2
    alpha: float = 3.0
    k: int | None = None
    use_residual: bool = True

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        if self.num_nodes < 2:
            raise ConfigError(f"need at least 2 nodes, got {self.num_nodes}")
        for name in ("num_layers", "conv_channels", "residual_channels",
                     "skip_channels", "embedding_dim", "input_window", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.gc_depth < 0:
            raise ConfigError(f"gc_depth must be nonnegative, got {self.gc_depth}")
        if not 0.0 <= self.retain_ratio <= 1.0:
            raise ConfigError(f"retain_ratio must be in [0, 1], got {self.retain_ratio}")
        if self.kernel_size < 2:
            raise ConfigError(f"kernel_size must be at least 2, got {self.kernel_size}")
        if not 0.0 < self.alpha < np.inf:
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
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
    """
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


def _mix_hop_core(h: Tensor, props: Tensor, weights: Tensor) -> Tensor:
    """out = sum_k (props[k] H) weights[k], for one layer and every direction."""
    return mix_hop(h, props, weights)


def gated_temporal_conv(x: Tensor, kernel: Tensor, dilation: int, bias: Tensor) -> Tensor:
    """tanh(filter) * sigmoid(gate) from one causal, dilated convolution.

    x is [B, C_in, N, T]; kernel is [2C, C_in, K] and bias [2C]: rows [:C]
    are the filter, rows [C:] the gate.
    """
    return tanh_sigmoid_gate(add_bias(causal_conv1d(x, kernel, dilation), bias, 1))


class MtgnnModel(NeuralModel):
    """The full network; owns every learnable tensor, keyed by name."""

    kind = "mtgnn"
    config_class = MtgnnConfig
    predict_chunk = 64

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
