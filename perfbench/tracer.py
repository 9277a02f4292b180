"""Span tracer for the traced benchmark run (``--trace 1``).

The tracer wraps marketgraph functions from outside the package: it replaces
each target in every ``marketgraph.*`` module namespace (and on its class, for
methods) with a timing wrapper, and puts the originals back on ``uninstall``.
Nothing under ``src/`` knows about it.

Each wrapper records calls, inclusive time and self time (inclusive time
minus the time of traced calls made inside it). Autodiff ops additionally
record the shapes they ran at, which feed two derived numbers:

* backward time per op, from timing each recorded signature on a one-op tape
  (the tape's own entry list is private, so the real backward sweep cannot be
  split by op);
* computed FLOP and byte counts of the four contraction kernels.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Ops named by their module-level function in marketgraph.autodiff.
OPS = (
    "causal_conv1d", "channel_linear", "graph_mix", "matmul", "add", "sub",
    "mul", "add_bias", "tanh", "sigmoid", "relu", "dropout", "row_normalize",
    "permute", "reshape", "last_step", "time_index", "stack_last", "abs_", "mean",
)
KERNELS = ("causal_conv1d", "channel_linear", "graph_mix", "matmul")

# (module, attribute) of every traced module-level function, and
# (module, class, method) of every traced method. Span names are
# "<module>.<attribute>" and "<module>.<class>.<method>".
FUNCTIONS = [("autodiff", op) for op in OPS] + [
    ("mtgnn", "gated_temporal_conv"), ("mtgnn", "_mix_hop_core"),
    ("graph", "learn_adjacency"), ("graph", "top_k_row_mask"),
    ("training", "train"), ("training", "_batch_loss"),
    ("training", "_validation_loss"), ("training", "evaluate"),
    ("training", "run_comparison"),
    ("data", "load_csv"), ("data", "run_pipeline"), ("data", "make_windows"),
    ("checkpoint", "load_checkpoint"), ("checkpoint", "save_checkpoint"),
    ("metrics", "dtw_matrix"), ("metrics", "dtw_distance"),
    ("metrics", "spearman_matrix"), ("metrics", "per_series_metrics"),
    ("baselines", "fit_var_mlp"), ("baselines", "fit_ar_ensemble"),
    ("charts", "svg_heatmap"), ("charts", "svg_line_chart"),
    ("cli", "main"),
]
METHODS = [
    ("autodiff", "Tape", "backward"),
    ("optim", "Adam", "step"), ("optim", "Adam", "zero_grad"),
    ("mtgnn", "MtgnnModel", "forward_batch"),
    ("baselines", "GruModel", "forward_batch"),
    ("baselines", "TcnModel", "forward_batch"),
]

F8 = 8  # bytes per float64


def kernel_cost(op: str, args) -> tuple[float, float]:
    """Computed forward FLOPs and bytes (inputs read once, output written once).

    The backward pass of each kernel is two contractions of the same size,
    so a taped call costs three times these figures in total.
    """
    shapes = [tuple(getattr(a, "shape", np.shape(a))) for a in args[:2]]
    if op == "causal_conv1d":
        x, w = shapes
        if len(x) == 2:
            x = (1, x[0], 1, x[1])
        b, c_in, n, t = x
        c_out, _, k = w
        flop = 2.0 * b * c_out * c_in * n * t * k
        out = b * c_out * n * t
    elif op == "channel_linear":
        x, w = shapes
        rest = int(np.prod(x)) // x[1]
        flop = 2.0 * rest * w[0] * w[1]
        out = rest * w[1]
    elif op == "graph_mix":
        a, x = shapes
        flop = 2.0 * int(np.prod(x)) * a[0]
        out = int(np.prod(x))
    else:  # matmul
        a, b = shapes
        flop = 2.0 * a[0] * a[1] * b[1]
        out = a[0] * b[1]
    nbytes = F8 * (sum(int(np.prod(s)) for s in shapes) + out)
    return flop, nbytes


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)      # inclusive seconds
        self.self_time = defaultdict(float)  # seconds
        self.steps: list[dict] = []          # per training step inside training.train
        self.entries_per_step: list[int] = []
        self.bwd_signatures = defaultdict(int)   # (op, args spec, kwargs spec) -> taped calls
        self.kernel = defaultdict(float)     # (kernel, bucket, "flop"|"bytes") -> total
        self.phase = "other"                 # set by the workload around its calls
        self._stack: list[list] = []         # [child seconds, nested op calls]
        self._active = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._in_step = False                # between Adam.zero_grad and Tape.backward
        self._live: dict[int, object] = {}   # tensors the current step's tape holds
        self._step: dict | None = None
        self.adjacency_in_forward = 0.0      # learn_adjacency seconds inside MtgnnModel.forward_batch
        self.missing: list[str] = []         # targets the package no longer has
        self._span_hooks = {"graph.learn_adjacency": self._adjacency_end}

    # -- installation ---------------------------------------------------------
    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for mod_name, attr in FUNCTIONS:
            span = f"{mod_name}.{attr}"
            original = getattr(getattr(package, mod_name), attr, None)
            if original is None:
                self.missing.append(span)
                continue
            hook = self._op_hook(attr) if mod_name == "autodiff" else self._span_hooks.get(span)
            wrapper = self._wrap(span, original, hook, is_op=mod_name == "autodiff")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, method in METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            span = f"{mod_name}.{cls_name}.{method}"
            original = cls.__dict__.get(method)
            if original is None:
                self.missing.append(span)
                continue
            before = {"optim.Adam.zero_grad": self._step_begin,
                      "autodiff.Tape.backward": self._backward_begin}.get(span)
            after = self._step_end if span == "optim.Adam.step" else None
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original, after, before=before))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- span recording -------------------------------------------------------
    def _wrap(self, span, fn, hook=None, is_op=False, before=None):
        stack, active = self._stack, self._active
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, 0]
            stack.append(frame)
            active[span] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[span] -= 1
                stack.pop()
                calls[span] += 1
                total[span] += elapsed
                self_time[span] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                    if is_op:
                        stack[-1][1] += 1
            if hook is not None:
                hook(args, kwargs, result, elapsed, frame)
            return result

        return wrapper

    def _step_begin(self, args) -> None:
        self._in_step = True
        self._live.clear()
        if self._active["training.train"]:
            self._step = {"start": time.perf_counter(), "forward": self.total["training._batch_loss"],
                          "backward": self.total["autodiff.Tape.backward"],
                          "adam": self.total["optim.Adam.step"]}

    def _backward_begin(self, args) -> None:
        self._in_step = False
        if self._step is not None:
            self.entries_per_step.append(len(args[0]))

    def _step_end(self, args, kwargs, result, elapsed, frame) -> None:
        if self._step is None:
            return
        s = self._step
        self.steps.append({
            "wall": time.perf_counter() - s["start"],
            "forward": self.total["training._batch_loss"] - s["forward"],
            "backward": self.total["autodiff.Tape.backward"] - s["backward"],
            "adam": self.total["optim.Adam.step"] - s["adam"],
        })
        self._step = None

    def _adjacency_end(self, args, kwargs, result, elapsed, frame) -> None:
        if self._active["mtgnn.MtgnnModel.forward_batch"]:
            self.adjacency_in_forward += elapsed

    def _op_hook(self, op):
        def hook(args, kwargs, result, elapsed, frame):
            if op in KERNELS:
                flop, nbytes = kernel_cost(op, args)
                bucket = self.phase
                if self._in_step:
                    bucket, flop, nbytes = "step", 3 * flop, 3 * nbytes
                self.kernel[(op, bucket, "flop")] += flop
                self.kernel[(op, bucket, "bytes")] += nbytes
            if not self._in_step:
                return
            inputs = [t for a in (*args, *kwargs.values())
                      for t in (a if isinstance(a, (list, tuple)) else (a,))]
            if not any(getattr(t, "requires_grad", False) or id(t) in self._live for t in inputs):
                return
            self._live[id(result)] = result
            # An op that only delegates to other traced ops (last_step) leaves
            # its backward to them.
            if frame[1] == 0:
                kwspec = tuple((k, _spec((v,))[0]) for k, v in kwargs.items())
                self.bwd_signatures[(op, _spec(args), kwspec)] += 1
        return hook

    # -- derived numbers ------------------------------------------------------
    def backward_seconds(self, package, repeats: int = 5) -> dict[str, float]:
        """Backward seconds per op over the run, from one-op tapes.

        Every recorded signature is rebuilt with fresh inputs of the same
        shapes; its backward time is the median over `repeats` one-op tapes
        less the median backward of a tape holding only the scalar reduction
        that the one-op tape needs as its loss.
        """
        ad = package.autodiff
        rng = np.random.default_rng(0)
        out: dict[str, float] = defaultdict(float)
        for (op, spec, kwspec), count in self.bwd_signatures.items():
            fn = getattr(ad, op)
            op_t, base_t = [], []
            for _ in range(repeats + 1):
                args = [_rebuild(s, ad, rng, op) for s in spec]
                kwargs = {k: _rebuild(s, ad, rng, op) for k, s in kwspec}
                tape = ad.Tape()
                with tape:
                    result = fn(*args, **kwargs)
                    loss = ad.sum_(result)
                op_t.append(_timed_backward(tape, loss))
                leaf = ad.Tensor(rng.normal(size=result.shape), requires_grad=True)
                tape = ad.Tape()
                with tape:
                    loss = ad.sum_(leaf)
                base_t.append(_timed_backward(tape, loss))
            each = statistics.median(op_t[1:]) - statistics.median(base_t[1:])
            out[op] += count * max(each, 0.0)
        return out


def _is_tensor(v) -> bool:
    return hasattr(v, "requires_grad") and hasattr(v, "data")


def _spec(values):
    """Hashable description of op arguments: tensors by shape, the rest by value."""
    spec = []
    for v in values:
        if _is_tensor(v):
            spec.append(("tensor", v.shape))
        elif type(v).__name__ == "Rng":
            spec.append(("rng",))
        elif isinstance(v, (list, tuple)) and v and _is_tensor(v[0]):
            spec.append(("tensors", tuple(t.shape for t in v)))
        elif isinstance(v, (list, tuple)):
            spec.append(("seq", tuple(v)))
        else:
            spec.append(("value", v))
    return tuple(spec)


def _rebuild(spec, ad, rng, op):
    kind = spec[0]
    if kind == "tensor":
        shape = spec[1]
        data = rng.uniform(0.5, 1.5, size=shape) if op == "row_normalize" else rng.normal(size=shape)
        return ad.Tensor(data, requires_grad=True)
    if kind == "tensors":
        return [_rebuild(("tensor", shape), ad, rng, op) for shape in spec[1]]
    if kind == "rng":
        return ad.Rng(0)
    return spec[1]


def _timed_backward(tape, loss) -> float:
    start = time.perf_counter()
    tape.backward(loss)
    return time.perf_counter() - start


def layer_metrics(tr: Tracer, ops: int, bwd_seconds: dict[str, float],
                  backtest_windows: int, checkpoint_bytes: int,
                  overhead_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    Times and counts are per workload operation (totals divided by `ops`)
    unless the name says per step or per window. Layer times are inclusive
    except `autodiff.<op>.fwd_ms` and `cli.self_ms`, which are self times.
    """
    ms = 1000.0 / ops
    out: dict[str, tuple[float, str]] = {}

    def total(span):
        return tr.total[span] * ms

    for op in OPS:
        span = f"autodiff.{op}"
        out[f"{span}.calls"] = (tr.calls[span] / ops, "count")
        out[f"{span}.fwd_ms"] = (tr.self_time[span] * ms, "ms")
        out[f"{span}.bwd_ms"] = (bwd_seconds.get(op, 0.0) * ms, "ms")
    steps = tr.steps
    n_steps = len(steps)

    def per_step(key):
        return 1000.0 * sum(s[key] for s in steps) / n_steps if n_steps else 0.0

    entries = statistics.median(tr.entries_per_step) if tr.entries_per_step else 0
    out["autodiff.tape.entries_per_step"] = (entries, "count")
    out["autodiff.backward_ms_per_step"] = (per_step("backward"), "ms")

    forward = total("mtgnn.MtgnnModel.forward_batch")
    gated = total("mtgnn.gated_temporal_conv")
    mix_hop = total("mtgnn._mix_hop_core")
    out["mtgnn.forward_batch_ms"] = (forward, "ms")
    out["mtgnn.gated_temporal_conv_ms"] = (gated, "ms")
    out["mtgnn.mix_hop_ms"] = (mix_hop, "ms")
    out["mtgnn.rest_ms"] = (forward - gated - mix_hop - tr.adjacency_in_forward * ms, "ms")

    out["graph.learn_adjacency_ms"] = (total("graph.learn_adjacency"), "ms")
    out["graph.top_k_row_mask_ms"] = (total("graph.top_k_row_mask"), "ms")
    out["optim.adam_step_ms"] = (per_step("adam"), "ms")

    train_ms = total("training.train")
    parts = {key: 1000.0 * sum(s[key] for s in steps) / ops for key in ("forward", "backward", "adam")}
    validation = total("training._validation_loss")
    out["training.train_ms"] = (train_ms, "ms")
    out["training.forward_ms"] = (parts["forward"], "ms")
    out["training.backward_ms"] = (parts["backward"], "ms")
    out["training.adam_ms"] = (parts["adam"], "ms")
    out["training.validation_ms"] = (validation, "ms")
    out["training.remainder_ms"] = (train_ms - sum(parts.values()) - validation, "ms")
    walls = [s["wall"] for s in steps]
    out["training.step_ms_p50"] = (1000.0 * statistics.median(walls) if walls else 0.0, "ms")
    overhead = (per_step("wall") - per_step("forward") - per_step("backward")
                - per_step("adam")) if n_steps else 0.0
    out["training.loop_overhead_ms"] = (overhead, "ms")
    out["training.evaluate_ms"] = (total("training.evaluate"), "ms")

    out["data.load_csv_ms"] = (total("data.load_csv"), "ms")
    out["data.run_pipeline_ms"] = (total("data.run_pipeline"), "ms")
    out["data.make_windows_ms"] = (total("data.make_windows"), "ms")

    out["checkpoint.load_ms"] = (total("checkpoint.load_checkpoint"), "ms")
    out["checkpoint.load_calls"] = (tr.calls["checkpoint.load_checkpoint"] / ops, "count")
    out["checkpoint.save_ms"] = (total("checkpoint.save_checkpoint"), "ms")
    out["checkpoint.bytes"] = (checkpoint_bytes, "B")

    out["metrics.dtw_matrix_ms"] = (total("metrics.dtw_matrix"), "ms")
    out["metrics.dtw_distance_calls"] = (tr.calls["metrics.dtw_distance"] / ops, "count")
    out["metrics.spearman_matrix_ms"] = (total("metrics.spearman_matrix"), "ms")
    out["metrics.per_series_metrics_ms"] = (total("metrics.per_series_metrics"), "ms")

    out["baselines.gru_forward_ms"] = (total("baselines.GruModel.forward_batch"), "ms")
    out["baselines.tcn_forward_ms"] = (total("baselines.TcnModel.forward_batch"), "ms")
    out["baselines.fit_var_mlp_ms"] = (total("baselines.fit_var_mlp"), "ms")
    out["baselines.fit_ar_ensemble_ms"] = (total("baselines.fit_ar_ensemble"), "ms")

    out["charts.svg_ms"] = (total("charts.svg_heatmap") + total("charts.svg_line_chart"), "ms")
    out["cli.self_ms"] = (tr.self_time["cli.main"] * ms, "ms")

    taped_steps = tr.calls["autodiff.Tape.backward"]
    for k in KERNELS:
        for what, unit in (("flop", "flop"), ("bytes", "B")):
            step = tr.kernel[(k, "step", what)]
            window = tr.kernel[(k, "backtest", what)]
            out[f"autodiff.{k}.computed_{what}_per_step"] = (
                step / taped_steps if taped_steps else 0.0, unit)
            out[f"autodiff.{k}.computed_{what}_per_window"] = (
                window / backtest_windows if backtest_windows else 0.0, unit)
    out["trace.overhead_ms"] = (overhead_ms, "ms")
    return out
