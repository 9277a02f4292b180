"""Shared experiment protocol: mini-batch training, evaluation, comparisons.

One loop serves every gradient-trained model kind: absolute-error loss with
an l2 penalty on all parameters, Adam updates, and best-validation-epoch
selection. All randomness descends from a single seed.
"""
from __future__ import annotations

import ctypes
import os
import pickle
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from functools import cache

import numpy as np

from .autodiff import Tape, Tensor, abs_, mean
from .baselines import (
    GruConfig, GruModel, MlpSpec, PersistenceModel, TcnConfig, TcnModel,
    fit_ar_ensemble, fit_var_mlp,
)
from .data import NormStats, PipelineResult, WindowSet, WindowSpec, csv_text, invert_predictions
from .errors import (
    NONNEGATIVE, NONNEGATIVE_FINITE, POSITIVE, POSITIVE_FINITE, Checked, ConfigError, DataError,
    MarketGraphError, TrainingDiverged, check_depth, check_fields,
)
from .graph import AdjacencyMatrix
from .metrics import METRIC_FUNCS, MetricsReport, per_series_metrics
from .mtgnn import MtgnnConfig, MtgnnModel
from .optim import Adam
from .rng import Rng


@dataclass(frozen=True)
class TrainConfig(Checked):
    """Optimization knobs; epoch/batch/loss defaults follow the reference
    experiment setup."""

    epochs: int = field(default=30, metadata=NONNEGATIVE)
    batch_size: int = field(default=8, metadata=POSITIVE)
    loss: str = field(default="l1", metadata={"bound": ("l1", lambda v: v == "l1")})
    learning_rate: float = field(default=0.001, metadata=POSITIVE_FINITE)
    l2_coefficient: float = field(default=1e-4, metadata=NONNEGATIVE_FINITE)
    seed: int = field(default=0, metadata=NONNEGATIVE)


@dataclass
class TrainResult:
    model: object
    adjacency: AdjacencyMatrix | None
    history: list[dict]
    best_epoch: int


def _batch_loss(model, x: np.ndarray, y: np.ndarray, rng: Rng | None):
    pred = model.forward_batch(x, rng=rng)
    return mean(abs_(pred - Tensor(y)))


def _validation_loss(model, windows: WindowSet) -> float:
    pred = model.predict_windows(windows.x)
    return float(np.sum(np.abs(pred - windows.y)) / windows.y.size)


def train(model, train_windows: WindowSet, val_windows: WindowSet,
          config: TrainConfig = TrainConfig(), rng: Rng | None = None,
          labels=None) -> TrainResult:
    """Minimize mean |error| + l2 * sum(theta^2) and keep the best-validation weights.

    Works on any model exposing forward_batch/parameters. Returns
    the per-epoch loss history; for graph-learning models the adjacency is
    snapshotted from the returned (best) weights. A non-finite loss aborts
    with the offending epoch.
    """
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise DataError("training and validation window sets must be nonempty")
    rng = rng or Rng(config.seed)
    shuffle_rng = rng.split()
    dropout_rng = rng.split()

    opt = Adam(model.parameters(), lr=config.learning_rate, l2=config.l2_coefficient)
    history: list[dict] = []
    best_state = opt.data.copy()
    best_val = np.inf
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_windows))
        total, count = 0.0, 0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            opt.zero_grad()
            tape = Tape()
            with tape:
                loss = _batch_loss(model, train_windows.x[idx], train_windows.y[idx], dropout_rng)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDiverged(epoch)
            tape.backward(loss)
            opt.step()
            total += value * len(idx)
            count += len(idx)
        train_loss = total / count
        val_loss = _validation_loss(model, val_windows)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(epoch)
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_state = opt.data.copy()
            best_epoch = epoch

    opt.data[...] = best_state
    adjacency = None
    if isinstance(model, MtgnnModel):
        if labels is None:
            labels = [f"series_{i}" for i in range(model.config.num_nodes)]
        adjacency = AdjacencyMatrix(labels=tuple(labels), values=model.adjacency().data)
    return TrainResult(model=model, adjacency=adjacency, history=history, best_epoch=best_epoch)


@dataclass
class EvalResult:
    report: MetricsReport
    y_true: np.ndarray
    y_pred: np.ndarray
    price_true: np.ndarray
    price_pred: np.ndarray


def evaluate(model, windows: WindowSet, stats: NormStats, labels=None, *,
             seed: int | None = None, config: dict | None = None) -> EvalResult:
    """Rolling one-step-ahead evaluation over a test window set.

    Metrics are computed on the normalized scale the models are trained on,
    and again on the price scale: the fully inverted traces (exp of the
    de-normalized values), which the result also carries.
    """
    if len(windows) == 0:
        raise DataError("empty evaluation window set")
    labels = tuple(labels) if labels is not None else tuple(stats.columns)
    horizon = windows.y.shape[2]
    pred = model.predict_windows(windows.x, horizon=horizon)
    if pred.shape != windows.y.shape:
        raise DataError(f"prediction shape {pred.shape} does not match targets {windows.y.shape}")

    y_true = windows.y[:, :, 0]
    y_pred = pred[:, :, 0]
    price_true = invert_predictions(y_true, stats)
    price_pred = invert_predictions(y_pred, stats)
    report = MetricsReport(
        model_kind=getattr(model, "kind", type(model).__name__),
        series=labels,
        per_series=per_series_metrics(y_true, y_pred, labels),
        config=config or {},
        split="test",
        seed=seed,
        price_per_series=per_series_metrics(price_true, price_pred, labels),
    )
    return EvalResult(report=report, y_true=y_true, y_pred=y_pred,
                      price_true=price_true, price_pred=price_pred)


# -- model builders ---------------------------------------------------------------
#
# Each builder fits one model kind on the pipeline's training split and
# returns (model, TrainResult or None, the config recorded in its report).
# `rng` is that kind's own stream; gradient-trained kinds split it once for
# initialization, then once for training.

def _check_knobs(spec, *keys: str) -> None:
    """ConfigError naming the first of the knobs `keys` that is out of its
    declared range as the run document's `baselines.<key>`. Each builder
    checks its own knobs, so an out-of-range one fails only its model."""
    check_fields(ComparisonSpec, {key: getattr(spec, key) for key in keys}, "baselines.")


def _build_persistence(pipeline, window, spec, rng):
    return PersistenceModel(), None, {}


def _build_ar(pipeline, window, spec, rng):
    _check_knobs(spec, "ar_order")
    return fit_ar_ensemble(pipeline.train.values, spec.ar_order), None, {"order": spec.ar_order}


def _build_var_mlp(pipeline, window, spec, rng):
    _check_knobs(spec, "var_order")
    check_fields(MlpSpec, vars(spec.mlp), "baselines.mlp_")
    model = fit_var_mlp(pipeline.train.values, spec.var_order, spec.mlp, rng)
    return model, None, {"order": spec.var_order, "hidden": spec.mlp.hidden,
                         "epochs": spec.mlp.epochs}


def _train_new(model_class, config, pipeline, spec, rng) -> TrainResult:
    return train(model_class(config, rng.split()), pipeline.train_windows,
                 pipeline.validation_windows, spec.train, rng=rng.split(),
                 labels=pipeline.train.columns)


def _build_gru(pipeline, window, spec, rng):
    _check_knobs(spec, "gru_hidden")
    config = GruConfig(num_series=len(pipeline.train.columns), hidden_size=spec.gru_hidden,
                       horizon=window.Q)
    result = _train_new(GruModel, config, pipeline, spec, rng)
    return result.model, result, {"hidden": spec.gru_hidden}


def _build_tcn(pipeline, window, spec, rng):
    _check_knobs(spec, "tcn_channels", "tcn_blocks")
    config = TcnConfig(channels=spec.tcn_channels, num_blocks=spec.tcn_blocks, horizon=window.Q)
    check_depth(window.P, config.num_blocks, config.kernel_size, "blocks")
    result = _train_new(TcnModel, config, pipeline, spec, rng)
    return result.model, result, {"channels": spec.tcn_channels, "blocks": spec.tcn_blocks}


def mtgnn_config(pipeline, window, knobs: dict) -> MtgnnConfig:
    """The graph model's config: the data fixes its node count and the window
    its input length and horizon; `knobs`, the run document's `model`
    section, sets the rest."""
    check_fields(MtgnnConfig, knobs, "model.")
    return MtgnnConfig(num_nodes=len(pipeline.train.columns), input_window=window.P,
                       horizon=window.Q, **knobs)


def _build_mtgnn(pipeline, window, spec, rng):
    config = mtgnn_config(pipeline, window, spec.mtgnn)
    result = _train_new(MtgnnModel, config, pipeline, spec, rng)
    return result.model, result, {k: v for k, v in asdict(config).items() if k != "num_nodes"}


# The only list of model kinds; its order is also the stream spawn order.
MODEL_BUILDERS = {
    "persistence": _build_persistence,
    "ar": _build_ar,
    "var_mlp": _build_var_mlp,
    "gru": _build_gru,
    "tcn": _build_tcn,
    "mtgnn": _build_mtgnn,
}
# The order `_fit_kinds` queues the kinds in: costliest fit first.
FIT_COST_ORDER = ("mtgnn", "gru", "tcn", "var_mlp", "ar", "persistence")


@dataclass(frozen=True)
class ComparisonSpec(Checked):
    """Which models to run and with what knobs; shared training protocol.

    The knobs' types are checked here and their declared ranges when each
    model is built, so an out-of-range knob fails only its own model.
    """

    check_bounds = False

    train: TrainConfig = TrainConfig()
    ar_order: int = field(default=5, metadata=POSITIVE)
    var_order: int = field(default=5, metadata=POSITIVE)
    mlp: MlpSpec = MlpSpec()
    gru_hidden: int = field(default=64, metadata=POSITIVE)
    tcn_channels: int = field(default=16, metadata=POSITIVE)
    tcn_blocks: int = field(default=3, metadata=POSITIVE)
    mtgnn: dict = field(default_factory=dict)
    include: tuple[str, ...] = tuple(MODEL_BUILDERS)

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.include, (list, tuple)) or not all(isinstance(k, str) for k in self.include):
            raise ConfigError(f"baselines.include must be a list of model kinds, got {self.include!r}")
        object.__setattr__(self, "include", tuple(self.include))
        if not self.include:
            raise ConfigError("baselines.include must name at least one model kind")
        bad = set(self.include) - set(MODEL_BUILDERS)
        if bad:
            raise ConfigError(f"unknown model kind(s) in baselines.include: {sorted(bad)}")
        repeated = sorted({kind for kind in self.include if self.include.count(kind) > 1})
        if repeated:
            raise ConfigError(f"baselines.include lists {', '.join(repeated)} more than once")


@dataclass
class ComparisonResult:
    """`flags` rank the models per series and metric on the normalized
    scale, `price_flags` on the price scale."""

    series: tuple[str, ...]
    reports: dict[str, MetricsReport]
    errors: dict[str, str]
    flags: dict[str, dict[str, dict]]
    price_flags: dict[str, dict[str, dict]]
    histories: dict[str, list[dict]]

    def to_dict(self) -> dict:
        return {
            "series": list(self.series),
            "models": {k: r.to_dict() for k, r in self.reports.items()},
            "errors": dict(self.errors),
            "flags": self.flags,
            "price_flags": self.price_flags,
        }

    def render_markdown(self) -> str:
        """Table per series of the price-scale metrics; best value bold,
        second-best italic."""
        lines = ["Test metrics on the price scale (exp of the de-normalized forecasts), where the "
                 "models are ranked; the normalized-scale metrics are in comparison.json. "
                 "Best value per metric in **bold**, second best in *italics*.", ""]
        model_names = list(self.reports)
        for series in self.series:
            lines.append(f"### {series}")
            lines.append("| model | RSE | RMSE | MAE | MAPE |")
            lines.append("|---|---|---|---|---|")
            for name in model_names:
                cells = []
                for metric in METRIC_FUNCS:
                    value = self.reports[name].price_per_series[series][metric]
                    text = f"{100.0 * value:.1f}%" if metric == "mape" else f"{value:.3f}"
                    flag = self.price_flags[series][metric]
                    if flag["best"] == name:
                        text = f"**{text}**"
                    elif flag.get("second") == name:
                        text = f"*{text}*"
                    cells.append(text)
                lines.append(f"| {name} | " + " | ".join(cells) + " |")
            lines.append("")
        for name, message in self.errors.items():
            lines.append(f"- {name}: FAILED ({message})")
        return "\n".join(lines)


def _rank_flags(series: tuple[str, ...], tables: dict[str, dict[str, dict[str, float]]]) -> dict:
    """Best and second-best model per series and metric of `tables`, each
    model's per-series metrics."""
    flags: dict[str, dict[str, dict]] = {}
    for s in series:
        flags[s] = {}
        for metric in METRIC_FUNCS:
            ranked = sorted(tables, key=lambda name: (tables[name][s][metric], name))
            flags[s][metric] = {"best": ranked[0] if ranked else None,
                                "second": ranked[1] if len(ranked) > 1 else None}
    return flags


def run_comparison(pipeline: PipelineResult, window_spec: WindowSpec,
                   spec: ComparisonSpec = ComparisonSpec()) -> ComparisonResult:
    """Fit every requested model on identical splits and score the test windows.

    A model that fails with a toolkit error or a singular linear system is
    recorded under `errors` and the rest still run; any other exception is a
    bug and propagates. The models are fitted costliest first, maybe in
    forked children (`_fit_kinds`); each draws only from its own stream, so
    the result, in `include` order, is the same in any order and process.
    """
    labels = pipeline.train.columns
    root = Rng(spec.train.seed)
    # Fixed spawn order keeps per-model streams stable however `include` is set.
    streams = {name: root.split() for name in MODEL_BUILDERS}

    def fit(name):
        """(history or None, report or None, recorded error or None) of one kind."""
        history = None
        try:
            model, result, report_config = MODEL_BUILDERS[name](pipeline, window_spec, spec,
                                                                streams[name])
            if result is not None:
                history = result.history
            return history, evaluate(model, pipeline.test_windows, pipeline.stats, labels,
                                     seed=spec.train.seed, config=report_config).report, None
        except (MarketGraphError, np.linalg.LinAlgError) as exc:
            return history, None, f"{type(exc).__name__}: {exc}"

    reports: dict[str, MetricsReport] = {}
    errors: dict[str, str] = {}
    histories: dict[str, list[dict]] = {}
    outcomes = _fit_kinds(spec.include, fit)
    for name in spec.include:
        history, report, error = outcomes[name]
        if history is not None:
            histories[name] = history
        if error is None:
            reports[name] = report
        else:
            errors[name] = error

    series = tuple(labels)
    return ComparisonResult(
        series=series, reports=reports, errors=errors,
        flags=_rank_flags(series, {name: r.per_series for name, r in reports.items()}),
        price_flags=_rank_flags(series, {name: r.price_per_series for name, r in reports.items()}),
        histories=histories)


@cache
def _openblas_threads():
    """`(get, set)` for the thread count of the OpenBLAS that numpy loaded, or
    None. numpy's wheels link it as `scipy_openblas64_`; a handle on numpy's
    core extension resolves symbols through that extension's dependencies, so
    it reaches the library this process really loaded."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__, mode=os.RTLD_NOLOAD)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _comparison_workers(kinds: int) -> int:
    """How many children `_fit_kinds` forks for `kinds` model kinds: one per
    usable core beyond this process's, fewer than `kinds`, and none without
    `os.fork` or a control of OpenBLAS's thread count, without which the
    processes' BLAS threads would oversubscribe the cores."""
    if not hasattr(os, "fork") or _openblas_threads() is None:
        return 0
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(0, min(cores or 1, kinds) - 1)


def _claim(claims: int, queue: tuple[str, ...]) -> str | None:
    """The kind claimed from the pipe `claims`, one byte (an index into
    `queue`), or None once the pipe is empty."""
    claim = os.read(claims, 1)
    return queue[claim[0]] if claim else None


def _fit_claims(kind: str | None, claims: int, queue: tuple[str, ...], fit, outcomes: dict) -> None:
    """Fit `kind`, then each kind claimed from `claims`, into `outcomes`. A
    fit that raises leaves its kind without an outcome, and the claiming goes
    on, so the kinds queued after it are fitted as they would be without it."""
    while kind is not None:
        with suppress(Exception):
            outcomes[kind] = fit(kind)
        kind = _claim(claims, queue)


def _fit_kinds(kinds: tuple[str, ...], fit) -> dict:
    """`fit(kind)` for every kind, fitted by this process and by
    `_comparison_workers` forked children, all claiming from one queue in
    `FIT_COST_ORDER`. This process claims the first, costliest kind before it
    forks, so it fits the critical path on its own heap: a just-forked child
    pays copy-on-write page faults on its first fits.

    While a child runs, OpenBLAS is pinned to one thread in every process, so
    that the processes do not contend for the cores, and this process's count
    is restored afterwards. Each child sends its outcomes back once the queue
    is empty. One rule covers every kind left without an outcome, whether
    its fit raised in any process (see `_fit_claims`) or a dead child held
    it: once every child is reaped, this process fits it again, in `kinds`
    order, so the first exception propagates from here just as it would in
    a sequential run.
    """
    queue = tuple(sorted(kinds, key=FIT_COST_ORDER.index))
    outcomes, children, sent = {}, [], None
    claims, fill = os.pipe()
    os.write(fill, bytes(range(len(queue))))
    os.close(fill)
    workers = _comparison_workers(len(kinds))
    pin = _openblas_threads() if workers else None  # (get, set) of the BLAS thread count
    threads = pin[0]() if pin else None
    try:
        if pin:
            pin[1](1)
        first = _claim(claims, queue)
        for _ in range(workers):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(out)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(fd)
                    for _, pipe in children:
                        pipe.close()
                    mine = {}
                    _fit_claims(_claim(claims, queue), claims, queue, fit, mine)
                    with os.fdopen(out, "wb") as sending:
                        pickle.dump(mine, sending)
                    status = 0
                finally:
                    os._exit(status)
            os.close(out)
            children.append((pid, open(fd, "rb")))
        _fit_claims(first, claims, queue, fit, outcomes)
        sent = [pipe.read() for _, pipe in children]
    finally:
        os.close(claims)
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if sent is None:
                import signal
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
        if pin:
            pin[1](threads)
    for data, status in zip(sent, statuses):
        if status == 0:
            outcomes.update(pickle.loads(data))
    for kind in kinds:
        if kind not in outcomes:
            outcomes[kind] = fit(kind)
    return outcomes


def history_csv(history: list[dict]) -> str:
    rows = ([row["epoch"], repr(row["train_loss"]), repr(row["val_loss"])] for row in history)
    return csv_text(["epoch", "train_loss", "val_loss"], rows)
