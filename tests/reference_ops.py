"""Earlier forms of ops, kept as the references the current ops must match
float for float.

The compositions that graph construction and the gated convolution were
built from before each became one op: here `learn_adjacency` records 15 tape
entries, `propagation_stack` 5 + 6 * depth + 2 (19 at depth 2) and
`gated_temporal_conv` 3; the fused ops in `marketgraph` record one each.
`tanh_sigmoid_gate` is the gate op the reference convolution ends in, its
backward concatenating the filter and gate adjoints. `transpose`, a
matrix `permute`, is what the reference graph construction transposes with.

`mix_hop` forms each hop's dprops with `np.tensordot` (`_node_outer`), and
`dropout` keeps its float mask; the ops in `marketgraph` copy h transposed
once per backward and keep a bool mask.

`dtw_wavefront` holds the warping-distance diagonals pairs first, [P, n + 1],
and builds each diagonal from temporaries; `marketgraph.metrics` holds them
pair axis last and writes each diagonal in place.

`parse_csv` converts a price CSV one row at a time, every file through the
row loop; `marketgraph.data._parse_csv` hands a plain file to numpy's C
text reader and leaves the loop to the rest. Both refuse a
`nan` or `inf` cell at its place among the number cells, naming its line
and column.

`escape` is the standard library's XML text escape, which
`marketgraph.charts.escape` writes out so that drawing a chart does not
import `xml.sax`.
"""
import math
from datetime import date
from xml.sax.saxutils import escape  # noqa: F401 - the reference for charts.escape

import numpy as np

from marketgraph.autodiff import (
    Tensor, _lift, _record, add_bias, causal_conv1d, matmul, mul, permute, relu,
    row_normalize, stack_last, tanh,
)
from marketgraph.data import TimeSeriesFrame, _parse_date, read_csv_rows
from marketgraph.errors import DataError, DomainError, ShapeError
from marketgraph.graph import top_k_row_mask


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return permute(a, (1, 0))


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


def _node_outer(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum over b, c, t of g[b, c, v, t] * x[b, c, w, t], as an [M, N] matrix."""
    return np.tensordot(g, x, axes=([0, 1, 3], [0, 1, 3]))


def mix_hop(h, props, w):
    h, props, w = _lift(h), _lift(props), _lift(w)
    B, C, N, T = h.shape
    S, D = props.shape[0], w.shape[2]

    def hop(k):
        return (props.data[k] @ h.data).reshape(B, C, N * T)

    out = w.data[0].T @ hop(0)
    for k in range(1, S):
        out += w.data[k].T @ hop(k)

    def back(g):
        gf = g.reshape(B, D, N * T)
        dh = np.zeros_like(h.data)
        dprops = np.empty_like(props.data)
        dw = np.empty_like(w.data)
        for k in range(S):
            dw[k] = np.matmul(hop(k), gf.transpose(0, 2, 1)).sum(axis=0)
            dhop = (w.data[k] @ gf).reshape(B, C, N, T)
            dprops[k] = _node_outer(dhop, h.data)
            dh += props.data[k].T @ dhop
        return dh, dprops, dw

    return _record(out.reshape(B, D, N, T), (h, props, w), back)


def dropout(x, p, *, rng=None, steps=None):
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    T = x.shape[-1]
    mask = (rng.random(x.shape[:-1] + (steps or T,))[..., -T:] >= p) / (1.0 - p)
    return _record(x.data * mask, (x,), lambda g: (g * mask,))


def dtw_wavefront(x, y):
    num_pairs, n = x.shape
    m = y.shape[1]
    y_rev = y[:, ::-1]
    prev2, prev, cur = (np.full((num_pairs, n + 1), np.inf) for _ in range(3))
    for d in range(n + m - 1):
        lo = max(0, d - m + 1)
        hi = min(n - 1, d)
        local = np.abs(x[:, lo:hi + 1] - y_rev[:, m - 1 - d + lo:m - d + hi])
        if d == 0:
            cur[:, 1] = local[:, 0]
        else:
            best = np.minimum(prev[:, lo + 1:hi + 2],
                              np.minimum(prev[:, lo:hi + 1], prev2[:, lo:hi + 1]))
            cur[:, lo + 1:hi + 2] = local + best
        prev2, prev, cur = prev, cur, prev2
    return prev[:, n]


def parse_csv(path):
    rows = read_csv_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0].lower() != "date":
        raise DataError(f"{path}: header must be 'date,<name1>,...', got {rows[0]!r}")
    columns, width = tuple(header[1:]), len(header)

    dates = []
    values = []
    dropped = 0
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != width:
                raise ValueError("wrong cell count")
            vals = list(map(float, row[1:]))
            day = date.fromisoformat(row[0].strip())
            if not all(map(math.isfinite, vals)):
                raise ValueError("non-finite cell")
        except ValueError:
            if not row or all(not c.strip() for c in row):
                continue
            where = f"{path}: line {lineno}"
            if len(row) != width:
                raise DataError(f"{where} has {len(row)} cells, expected {width}") from None
            if any(not c.strip() for c in row[1:]):
                dropped += 1
                continue
            _parse_date(row[0], where)
            for name, cell in zip(columns, row[1:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{where}: unparseable number {cell!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"{where}: non-finite number {cell!r} in column {name!r}")
        else:
            dates.append(day)
            values += vals

    matrix = np.array(values).reshape(len(dates), len(columns))
    if any(d1 >= d2 for d1, d2 in zip(dates, dates[1:])):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates, matrix = [dates[i] for i in order], matrix[order]
        for d1, d2 in zip(dates, dates[1:]):
            if d1 == d2:
                raise DataError(f"{path}: duplicate date {d1.isoformat()}")
    if len(dates) < 2:
        raise DataError(f"{path}: fewer than 2 usable rows after dropping incomplete ones")
    return TimeSeriesFrame(tuple(dates), columns, matrix), dropped
