"""Dense float64 tensors with taped reverse-mode differentiation.

Everything is stored row-major in 64-bit floats. Operations executed while a
Tape is active are recorded together with a backward rule; Tape.backward walks
the record once, in reverse, and accumulates d(loss)/d(leaf) into the .grad
buffer of every leaf created with requires_grad=True. Outside a tape the same
operations run as plain numpy arithmetic.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DomainError, ShapeError, TapeError


class _Tapes(threading.local):
    def __init__(self):
        self.stack: list[Tape | None] = [None]  # None, then the entered tapes; one stack per thread


_tapes = _Tapes()


class Rng:
    """Seeded, splittable random source.

    Children spawned with split() are statistically independent streams, so a
    single root seed can drive initialization, shuffling and dropout without
    any stream interfering with another. The seed path is kept for audit.
    """

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.default_rng(self._seq)
        self.seed_path = (self._seq.entropy, tuple(self._seq.spawn_key))

    def split(self) -> "Rng":
        return Rng(self._seq.spawn(1)[0])

    def normal(self, shape, scale=1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, shape, low, high) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


class Tensor:
    """Immutable-by-convention dense array that can sit on a gradient tape.

    Ops never write into an input's buffer. requires_grad marks leaves;
    derived tensors are tracked through the tape they were recorded on.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DataError("tensor values must be finite (no NaN/Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape = None

    @classmethod
    def _from_op(cls, data: np.ndarray) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._tape = None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Tape:
    """Ordered record of executed ops; supports exactly one backward pass.

    Entries are appended in execution order, which is a topological order of
    the value graph, so a single reverse sweep propagates every adjoint. The
    sweep pops each entry before running its rule, so the arrays a later op
    kept for its backward pass are freed as soon as that rule has run, not
    all at once at the end.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tapes.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if _tapes.stack[-1] is not self:
            raise TapeError("tape context exited out of order")
        _tapes.stack.pop()

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        if self._consumed:
            raise TapeError("backward on a consumed tape; use a fresh tape")
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        if loss._tape is not self:
            raise TapeError("loss was not recorded on this tape")
        self._consumed = True
        # Keys are id()s of tensors recorded on this tape. They stay unique:
        # a keyed tensor is the output of an entry not yet popped, which holds
        # it until its own turn pops the key, and the sweep creates no tensors.
        adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        entries = self._entries
        while entries:
            # Rebinding these names drops the entry popped before, closure and all.
            out, inputs, backward_fn = entries.pop()
            g = adjoints.pop(id(out), None)
            if g is None:
                continue
            for inp, gin in zip(inputs, backward_fn(g)):
                if inp._tape is self:
                    seen = adjoints.get(id(inp))
                    adjoints[id(inp)] = gin if seen is None else seen + gin
                elif inp.requires_grad and inp._tape is None:
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    inp.grad += gin


def _record(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    out = Tensor._from_op(out_data)
    tape = _tapes.stack[-1]
    if tape is not None and not tape._consumed:
        if any(t.requires_grad or t._tape is tape for t in inputs):
            out._tape = tape
            tape._entries.append((out, tuple(inputs), backward_fn))
    return out


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=np.float64)
    if arr.size != 1:
        raise ShapeError("only scalars may be mixed with tensors implicitly")
    return Tensor(arr)


def _binary_shapes(a: Tensor, b: Tensor) -> None:
    # Broadcasting is deliberately restricted: equal shapes, or one side scalar.
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"shapes {a.shape} and {b.shape} neither match nor include a scalar")


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


# -- arithmetic --------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b)

    def back(g):
        return _sum_to(g, a.shape), _sum_to(g, b.shape)

    return _record(a.data + b.data, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b)

    def back(g):
        return _sum_to(g, a.shape), _sum_to(-g, b.shape)

    return _record(a.data - b.data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b)

    def back(g):
        return _sum_to(g * b.data, a.shape), _sum_to(g * a.data, b.shape)

    return _record(a.data * b.data, (a, b), back)


def neg(a: Tensor) -> Tensor:
    a = _lift(a)
    return _record(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} @ {b.shape}")

    def back(g):
        return g @ b.data.T, a.data.T @ g

    return _record(a.data @ b.data, (a, b), back)


# -- pointwise nonlinearities -------------------------------------------------

def tanh(a: Tensor) -> Tensor:
    a = _lift(a)
    out = np.tanh(a.data)
    return _record(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    a = _lift(a)
    # 0.5*(1+tanh(x/2)) is the overflow-safe form and is exact at 0.
    out = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return _record(out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    a = _lift(a)
    mask = a.data > 0

    def back(g):
        return (g * mask,)

    return _record(np.where(mask, a.data, 0.0), (a,), back)


def abs_(a: Tensor) -> Tensor:
    a = _lift(a)
    sign = np.sign(a.data)
    return _record(np.abs(a.data), (a,), lambda g: (g * sign,))


def dropout(x: Tensor, p: float, *, rng: Rng | None = None,
            steps: int | None = None) -> Tensor:
    """Zero each element with probability p and rescale survivors by 1/(1-p).

    Without an Rng (eval mode) it is the identity map, exactly. With one
    (train mode) the mask is drawn from it and baked into the backward rule,
    which keeps it as one byte per element and rescales it on use.
    The mask is drawn `steps` wide along the trailing time axis (default: x's
    own length; at least that) and its last x.shape[-1] columns are kept, so an
    input cropped to its trailing steps meets the mask entries, and leaves the
    Rng stream, of the whole window.
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout probability must be in [0, 1), got {p}")
    if steps is not None and not (isinstance(steps, (int, np.integer)) and not isinstance(steps, bool)
                                  and x.ndim and steps >= x.shape[-1]):
        raise ShapeError(f"dropout steps must be an integer no less than the time length of "
                         f"shape {x.shape}, got {steps!r}")
    if rng is None or p == 0.0:
        return x
    if x.ndim == 0:
        raise ShapeError("dropout in train mode needs a trailing time axis, got a scalar")
    T = x.shape[-1]
    keep = rng.random(x.shape[:-1] + (T if steps is None else steps,))[..., -T:] >= p
    return _record(x.data * (keep / (1.0 - p)), (x,), lambda g: (g * (keep / (1.0 - p)),))


# -- reductions and structure -------------------------------------------------

def sum_(a: Tensor) -> Tensor:
    a = _lift(a)

    def back(g):
        return (np.full(a.shape, float(g)),)

    return _record(np.asarray(np.sum(a.data)), (a,), back)


def mean(a: Tensor) -> Tensor:
    a = _lift(a)
    n = a.size

    def back(g):
        return (np.full(a.shape, float(g) / n),)

    return _record(np.asarray(np.mean(a.data)), (a,), back)


def reshape(a: Tensor, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)

    def back(g):
        return (g.reshape(a.shape),)

    return _record(a.data.reshape(shape).copy(), (a,), back)


def permute(a: Tensor, axes) -> Tensor:
    a = _lift(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        return (np.transpose(g, inverse),)

    return _record(np.ascontiguousarray(np.transpose(a.data, axes)), (a,), back)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return permute(a, (1, 0))


def time_index(a: Tensor, t: int) -> Tensor:
    """Select step t of the trailing time axis, dropping that axis."""
    a = _lift(a)
    T = a.shape[-1]
    if not -T <= t < T:
        raise ShapeError(f"time index {t} out of range for length {T}")
    t = t % T

    def back(g):
        full = np.zeros(a.shape)
        full[..., t] = g
        return (full,)

    return _record(np.ascontiguousarray(a.data[..., t]), (a,), back)


def last_step(a: Tensor) -> Tensor:
    return time_index(a, -1)


def stack_last(tensors: Sequence[Tensor]) -> Tensor:
    """Stack same-shaped tensors along a new trailing axis."""
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ShapeError("nothing to stack")
    shape = tensors[0].shape
    if any(t.shape != shape for t in tensors):
        raise ShapeError("stack_last needs equal shapes")

    def back(g):
        return tuple(g[..., i] for i in range(len(tensors)))

    return _record(np.stack([t.data for t in tensors], axis=-1), tuple(tensors), back)


def add_bias(x: Tensor, b: Tensor, axis: int) -> Tensor:
    """Add a 1-D bias along one axis of x."""
    x, b = _lift(x), _lift(b)
    if b.ndim != 1:
        raise ShapeError(f"bias must be 1-D, got shape {b.shape}")
    axis = axis % x.ndim
    if x.shape[axis] != b.shape[0]:
        raise ShapeError(f"bias length {b.shape[0]} does not match axis {axis} of {x.shape}")
    view = [1] * x.ndim
    view[axis] = b.shape[0]
    other_axes = tuple(i for i in range(x.ndim) if i != axis)

    def back(g):
        return g, g.sum(axis=other_axes)

    return _record(x.data + b.data.reshape(view), (x, b), back)


def row_normalize(a: Tensor) -> Tensor:
    """Divide each row of a matrix by its row sum (sums must be positive)."""
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"row_normalize expects a matrix, got shape {a.shape}")
    s = a.data.sum(axis=1, keepdims=True)
    if np.any(s <= 0):
        raise DomainError("row_normalize requires positive row sums")
    out = a.data / s

    def back(g):
        return (g / s - (g * a.data).sum(axis=1, keepdims=True) / (s * s),)

    return _record(out, (a,), back)


# -- convolution and graph mixing ----------------------------------------------
#
# Every contraction below is a broadcast matmul over the [B, C, N, T] layout,
# which numpy hands to BLAS one batch slice at a time.

def causal_conv1d(x: Tensor, kernel: Tensor, dilation: int = 1) -> Tensor:
    """Dilated causal 1-D convolution along the trailing time axis.

    Tap j of the kernel reads x at t - j*dilation; the input is left-padded
    with (K-1)*dilation zeros so the output keeps the input length and never
    sees a future sample. x is [B, C_in, N, T].
    """
    x, kernel = _lift(x), _lift(kernel)
    out, back = _causal_conv(x, kernel, dilation)
    return _record(out, (x, kernel), back)


def _causal_conv(x: Tensor, kernel: Tensor, dilation: int):
    """causal_conv1d unrecorded: its [B, C_out, N, T] output, which the caller
    may overwrite, and the backward rule mapping its adjoint to (dx, dkernel)."""
    if dilation < 1:
        raise DomainError(f"dilation must be >= 1, got {dilation}")
    if kernel.ndim != 3 or kernel.shape[2] < 1:
        raise ShapeError(f"kernel must be [C_out, C_in, K] with K >= 1, got {kernel.shape}")
    if x.ndim != 4:
        raise ShapeError(f"causal_conv1d expects [B, C, N, T], got shape {x.shape}")
    if x.size == 0:
        raise ShapeError("empty input")
    B, C_in, N, T = x.shape
    C_out, kC_in, K = kernel.shape
    if kC_in != C_in:
        raise ShapeError(f"kernel expects {kC_in} input channels, data has {C_in}")
    pad = (K - 1) * dilation
    offs = [(K - 1 - j) * dilation for j in range(K)]
    taps = np.ascontiguousarray(np.moveaxis(kernel.data, 2, 0))  # [K, C_out, C_in]

    def padded():
        # Built on demand, so no closure holds a padded copy of x.
        xp = np.zeros((B, C_in, N, pad + T))
        xp[..., pad:] = x.data
        return xp

    def segment(xp, off):
        # Tap input as [B, C_in, N*T]; the undelayed tap reads x itself.
        seg = x.data if off == pad else np.ascontiguousarray(xp[..., off:off + T])
        return seg.reshape(B, C_in, N * T)

    xp = padded()
    out = taps[0] @ segment(xp, offs[0])
    for j in range(1, K):
        out += taps[j] @ segment(xp, offs[j])

    def back(g):
        g = g.reshape(B, C_out, N * T)
        xp = padded()
        dw = np.empty_like(kernel.data)
        dxp = np.zeros_like(xp)
        for j, off in enumerate(offs):
            dw[:, :, j] = np.matmul(g, segment(xp, off).transpose(0, 2, 1)).sum(axis=0)
            dxp[..., off:off + T] += (taps[j].T @ g).reshape(B, C_in, N, T)
        return dxp[..., pad:], dw

    return out.reshape(B, C_out, N, T), back


def channel_linear(x: Tensor, w: Tensor) -> Tensor:
    """Mix the channel axis (axis 1) of [B,C,...] features with a [C,D] matrix."""
    x, w = _lift(x), _lift(w)
    if w.ndim != 2:
        raise ShapeError(f"weight must be [C, D], got {w.shape}")
    if x.ndim not in (3, 4) or x.shape[1] != w.shape[0]:
        raise ShapeError(f"cannot mix channels of {x.shape} with weight {w.shape}")
    B, C = x.shape[:2]
    D = w.shape[1]
    xf = x.data.reshape(B, C, -1)

    def back(g):
        gf = g.reshape(B, D, -1)
        dw = np.matmul(xf, gf.transpose(0, 2, 1)).sum(axis=0)
        return (w.data @ gf).reshape(x.shape), dw

    return _record((w.data.T @ xf).reshape((B, D) + x.shape[2:]), (x, w), back)


def graph_mix(a: Tensor, x: Tensor) -> Tensor:
    """Aggregate node features along edges: out[v] = sum_w a[v,w] * x[w].

    a is [M, N]; x is [B, C, N, T]; the result is [B, C, M, T]. Differentiable
    in both arguments so the learned adjacency receives gradient through every
    propagation step.
    """
    a, x = _lift(a), _lift(x)
    if a.ndim != 2:
        raise ShapeError(f"adjacency must be a matrix, got {a.shape}")
    if x.ndim != 4 or x.shape[2] != a.shape[1]:
        raise ShapeError(f"node axis of {x.shape} does not match adjacency {a.shape}")

    def back(g):
        return np.tensordot(g, x.data, axes=([0, 1, 3], [0, 1, 3])), a.data.T @ g

    return _record(a.data @ x.data, (a, x), back)


def mix_hop(h: Tensor, props: Tensor, w: Tensor) -> Tensor:
    """Mix-hop graph convolution as one op: sum_k channel_linear(props[k] @ h, w[k]).

    h is [B, C, N, T], props is [S, N, N] (one propagation matrix per hop),
    w is [S, C, D]; the result is [B, D, N, T]. The hop states props[k] @ h
    are recomputed in backward instead of being kept, so the tape holds no
    copy of h beyond the input itself. Backward copies h once, as the
    [B*C*T, N] matrix that each hop's dprops product reads.
    """
    h, props, w = _lift(h), _lift(props), _lift(w)
    if h.ndim != 4:
        raise ShapeError(f"mix_hop expects [B, C, N, T] features, got {h.shape}")
    B, C, N, T = h.shape
    if props.ndim != 3 or props.shape[0] < 1 or props.shape[1:] != (N, N):
        raise ShapeError(f"propagation stack must be [S, {N}, {N}], got {props.shape}")
    S = props.shape[0]
    if w.ndim != 3 or w.shape[:2] != (S, C):
        raise ShapeError(f"hop weights must be [{S}, {C}, D], got {w.shape}")
    D = w.shape[2]

    def hop(k):
        return (props.data[k] @ h.data).reshape(B, C, N * T)

    out = w.data[0].T @ hop(0)
    for k in range(1, S):
        out += w.data[k].T @ hop(k)

    def back(g):
        gf = g.reshape(B, D, N * T)
        ht = h.data.transpose(0, 1, 3, 2).reshape(B * C * T, N)
        dh = np.zeros_like(h.data)
        dprops = np.empty_like(props.data)
        dw = np.empty_like(w.data)
        for k in range(S):
            dw[k] = np.matmul(hop(k), gf.transpose(0, 2, 1)).sum(axis=0)
            dhop = (w.data[k] @ gf).reshape(B, C, N, T)
            # sum over b, c, t of dhop[b, c, v, t] * h[b, c, w, t]
            dprops[k] = np.dot(dhop.transpose(2, 0, 1, 3).reshape(N, B * C * T), ht)
            dh += props.data[k].T @ dhop
        return dh, dprops, dw

    return _record(out.reshape(B, D, N, T), (h, props, w), back)


def gru_sequence(x: Tensor, h0: Tensor, w_z: Tensor, u_z: Tensor, b_z: Tensor,
                 w_r: Tensor, u_r: Tensor, b_r: Tensor,
                 w_h: Tensor, u_h: Tensor, b_h: Tensor) -> Tensor:
    """Every hidden state of a GRU run over [B, N, P] input from the [B, H]
    state h0, as one op returning [B, H, P].

    Step t computes, in this order of arithmetic,
        z = sigmoid((x_t @ w_z + h @ u_z) + b_z)
        r = sigmoid((x_t @ w_r + h @ u_r) + b_r)
        c = tanh((x_t @ w_h + (r * h) @ u_h) + b_h)
        h' = (1 - z) * h + z * c
    with the input projections of all P steps taken in one product. Backward
    runs backpropagation through time in one reverse loop and then forms each
    weight gradient as one product over the stacked [P*B] rows.
    """
    inputs = tuple(_lift(t) for t in (x, h0, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h))
    x, h0, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = inputs
    if x.ndim != 3:
        raise ShapeError(f"gru_sequence expects [B, N, P] input, got {x.shape}")
    B, N, P = x.shape
    if b_z.ndim != 1 or b_z.size < 1:
        raise ShapeError(f"b_z must be a nonempty vector, got shape {b_z.shape}")
    H = b_z.shape[0]
    shapes = {"h": (B, H), "w": (N, H), "u": (H, H), "b": (H,)}
    for name, t in zip(("h0", "w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"), inputs[1:]):
        if t.shape != shapes[name[0]]:
            raise ShapeError(f"{name} must be {shapes[name[0]]} for {B} windows of {N} inputs "
                             f"and hidden size {H}, got {t.shape}")
    # The update and reset gates share their products and their sigmoid.
    w = np.concatenate((w_z.data, w_r.data, w_h.data), axis=1)   # [N, 3H]
    u_zr = np.concatenate((u_z.data, u_r.data), axis=1)         # [H, 2H]
    b_zr = np.concatenate((b_z.data, b_r.data))
    xs = np.ascontiguousarray(x.data.transpose(2, 0, 1)).reshape(P * B, N)
    proj = (xs @ w).reshape(P, B, 3 * H)
    hs = np.empty((P + 1, B, H))   # hs[t] is the state before step t
    hs[0] = h0.data
    zrs = np.empty((P, B, 2 * H))
    cs, rhs = np.empty((P, B, H)), np.empty((P, B, H))
    for t in range(P):
        h = hs[t]
        zr = zrs[t] = 0.5 * (1.0 + np.tanh(0.5 * ((proj[t, :, :2 * H] + h @ u_zr) + b_zr)))
        z = zr[:, :H]
        rh = rhs[t] = zr[:, H:] * h
        c = cs[t] = np.tanh((proj[t, :, 2 * H:] + rh @ u_h.data) + b_h.data)
        hs[t + 1] = (1.0 - z) * h + z * c

    def back(g):
        da = np.empty((P, B, 3 * H))   # adjoints of the pre-activations, gates z|r|c
        dh = np.zeros((B, H))
        for t in reversed(range(P)):
            h, zr, c = hs[t], zrs[t], cs[t]
            z = zr[:, :H]
            dh = dh + g[:, :, t]
            da_h = da[t, :, 2 * H:] = dh * z * (1.0 - c * c)
            drh = da_h @ u_h.data.T
            da[t, :, :H] = dh * (c - h)
            da[t, :, H:2 * H] = drh * h
            da_zr = da[t, :, :2 * H]
            da_zr *= zr * (1.0 - zr)
            dh = dh * (1.0 - z) + drh * zr[:, H:] + da_zr @ u_zr.T
        da = da.reshape(P * B, 3 * H)
        dw = xs.T @ da
        du_zr = hs[:P].reshape(P * B, H).T @ da[:, :2 * H]
        du_h = rhs.reshape(P * B, H).T @ da[:, 2 * H:]
        db = da.sum(axis=0)
        dx = (da @ w.T).reshape(P, B, N).transpose(1, 2, 0)
        return (dx, dh, dw[:, :H], du_zr[:, :H], db[:H], dw[:, H:2 * H], du_zr[:, H:],
                db[H:2 * H], dw[:, 2 * H:], du_h, db[2 * H:])

    out = np.ascontiguousarray(hs[1:].transpose(1, 2, 0))
    return _record(out, inputs, back)


# -- verification ---------------------------------------------------------------

def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients of f at x against central differences.

    f must map a tensor to a scalar tensor and be deterministic. This is
    grad_check_params over a fresh leaf holding a copy of x.
    """
    leaf = Tensor(x.data.copy(), requires_grad=True)
    return grad_check_params(lambda: f(leaf), [leaf], eps)


def grad_check_params(loss_fn: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients of loss_fn() against central differences.

    loss_fn closes over the params, which are perturbed in place for the
    finite-difference probes. Returns the worst relative error
    |g_ad - g_fd| / max(1, |g_ad|, |g_fd|) across every coordinate of every
    parameter.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    for p in params:
        if p.grad is not None:
            p.grad.fill(0.0)  # in place, so a gradient an optimizer holds a view of stays bound
    tape = Tape()
    with tape:
        out = loss_fn()
    if out.data.size != 1:
        raise TapeError("a gradient check needs a scalar-valued loss")
    tape.backward(out)

    worst = 0.0
    for p in params:
        g_ad = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn().item()
            flat[i] = orig - eps
            lo = loss_fn().item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            ad = g_ad.reshape(-1)[i]
            err = abs(ad - fd) / max(1.0, abs(ad), abs(fd))
            worst = max(worst, err)
    return worst
