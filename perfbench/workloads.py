"""The four benchmark workloads: inputs, one operation, output checks.

Each workload drives marketgraph only through its public entry points
(``training.train``/``evaluate``, ``training.run_comparison``, ``cli.main``)
and the helpers a user would call to prepare inputs. An operation is what one
user waits for; ``run.py`` repeats operations in a closed loop.

Why these four: ``train_mtgnn`` puts the autodiff core, the model and Adam
under training at batch 8; ``forecast`` runs the same model forward-only at
large batches behind CSV and checkpoint loading; ``analyze`` never touches
autodiff, so it is the bypass case for every model change and the mechanism
case for the warping-distance loop; ``compare_baselines`` covers the
baselines, whose GRU is dispatch-bound and whose TCN shares the causal
convolution with the model.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

SETUP_REPEATS = 5

# The host's speed drifts by tens of percent over minutes, because other
# tenants share its cores, and different kinds of code slow down by different
# amounts. Every timed call is therefore bracketed by three fixed calibration
# kernels, one per kind of work: einsum contractions, numpy dispatch on small
# arrays, and Python-level text parsing. A workload rescales
# its times by the kernels that resemble its own work (Workload.calibration),
# to the speed at which those kernels take their CALIBRATION_REF_S.
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.normal(size=(8, 16, 6, 30))
_CAL_W = _CAL_RNG.normal(size=(16, 16)) * 0.25
_CAL_V = _CAL_RNG.normal(size=300)
_CAL_ROW = [repr(v) for v in _CAL_RNG.normal(size=11).tolist()]


def _contraction() -> None:
    x = _CAL_X
    for _ in range(4):
        x = np.tanh(np.einsum("bcnt,cd->bdnt", x, _CAL_W)) + _CAL_X


def _dispatch() -> None:
    cost = np.full(_CAL_V.size, np.inf)
    for d in range(150):
        rows = np.arange(d % 50, d % 50 + 100)
        local = np.abs(_CAL_V[rows] - _CAL_V[rows[::-1]])
        cost = np.minimum(cost, np.concatenate(([np.inf], cost[:-1])))
        cost[rows] = local + cost[rows]


def _parsing() -> None:
    total = 0.0
    for _ in range(120):
        total += sum(float(c) for c in _CAL_ROW)


CALIBRATION_KERNELS = {"contraction": _contraction, "dispatch": _dispatch, "parsing": _parsing}
CALIBRATION_REF_S = {"contraction": 0.003, "dispatch": 0.0018, "parsing": 0.0009}


def calibration_seconds() -> dict[str, float]:
    """Wall time of each calibration kernel."""
    out = {}
    for name, kernel in CALIBRATION_KERNELS.items():
        start = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - start
    return out


def timed(fn, *args, **kwargs):
    """Run fn between two calibrations: (result, wall seconds, mean kernel seconds)."""
    before = calibration_seconds()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    after = calibration_seconds()
    return result, wall, {k: (before[k] + after[k]) / 2 for k in before}


def scaled(seconds: float, cal: dict[str, float], kernels) -> float:
    """Wall seconds rescaled to the reference speed of the given kernels."""
    return seconds * sum(CALIBRATION_REF_S[k] for k in kernels) / sum(cal[k] for k in kernels)


@dataclass
class Call:
    """One user-visible call inside an operation and whether its output checked out."""

    kind: str
    seconds: float
    cal: dict[str, float]
    ok: bool
    error: str | None = None
    traced: bool = False
    windows: int = 0


@dataclass
class Workload:
    sizes: dict[str, dict]
    setup: Callable
    prepare_checks: Callable
    op: Callable
    figures: Callable
    main_call: str
    calibration: tuple[str, ...]


# -- shared helpers --------------------------------------------------------------

def write_csv(frame, path) -> None:
    """Write a frame in the `date,<series>...` layout `data.load_csv` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *frame.columns])
        for day, row in zip(frame.dates, frame.values.tolist()):
            writer.writerow([day.isoformat(), *map(repr, row)])


def read_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0][1:], np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def cli_call(mg, argv: list[str]) -> tuple[int, float, dict[str, float]]:
    """Run `marketgraph <argv>` in-process, as a user would from the shell."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return timed(mg.cli.main, argv)


def criterion7_panel(mg, size: dict, seed: int):
    """The criterion-7 synthetic panel (coupled VAR, steady upward trend)."""
    return mg.synthetic.coupled_var_system(
        num_nodes=size["nodes"], steps=size["steps"], seed=seed,
        noise_scale=0.005, self_weight=0.5, trend_range=(1.0, 1.4)).frame


# -- train_mtgnn -----------------------------------------------------------------

def train_setup(mg, workdir, seed, size):
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "panel.csv")
    write_csv(criterion7_panel(mg, size, seed), path)
    return {"csv": path, "workdir": workdir, "seed": seed, "size": size}


def train_prepare(mg, state):
    state["reference"] = None


def train_op(mg, state, tracer):
    (pipeline, result, evaluation, train_s), seconds, cal = timed(train_once, mg, state)
    history = [(h["train_loss"], h["val_loss"]) for h in result.history]
    y_pred = evaluation.y_pred
    test_mae = float(np.mean(np.abs(evaluation.y_true - y_pred)))
    errors = []
    if len(history) != state["size"]["epochs"] or not np.all(np.isfinite(history)):
        errors.append("non-finite or missing loss history")
    if not np.all(np.isfinite(y_pred)) or y_pred.shape != evaluation.y_true.shape:
        errors.append("test predictions malformed")
    ref = state["reference"]
    if ref is None:
        state["reference"] = (history, y_pred.copy())
    elif history != ref[0] or not np.array_equal(y_pred, ref[1]):
        errors.append("same-seed training is not bit-identical")
    state.setdefault("train_runs", []).append(
        (len(pipeline.train_windows), train_s, test_mae, len(pipeline.test_windows)))
    return [Call("train", seconds, cal, not errors, "; ".join(errors) or None)]


def train_once(mg, state):
    """`marketgraph train` without the report files: pipeline, train, save, evaluate."""
    size, seed = state["size"], state["seed"]
    window = mg.data.WindowSpec(P=30, Q=1)
    pipeline = mg.data.run_pipeline(state["csv"], window)
    labels = pipeline.train.columns
    root = mg.autodiff.Rng(seed)
    config = mg.mtgnn.MtgnnConfig(num_nodes=len(labels), input_window=30, horizon=1)
    model = mg.mtgnn.MtgnnModel(config, root.split())
    train_cfg = mg.training.TrainConfig(epochs=size["epochs"], batch_size=8, seed=seed)
    train_start = time.perf_counter()
    result = mg.training.train(model, pipeline.train_windows, pipeline.validation_windows,
                               train_cfg, rng=root.split(), labels=labels)
    train_s = time.perf_counter() - train_start
    ckpt = os.path.join(state["workdir"], "checkpoint.json")
    mg.checkpoint.save_checkpoint(ckpt, kind="mtgnn", config=asdict(config),
                                  params=result.model.state_dict(),
                                  extra={"labels": list(labels),
                                         "norm_stats": pipeline.report["norm_stats"]})
    evaluation = mg.training.evaluate(result.model, pipeline.test_windows, pipeline.stats, labels)
    state["checkpoint_bytes"] = os.path.getsize(ckpt)
    return pipeline, result, evaluation, train_s


def train_figures(state, calls):
    runs = state.get("train_runs", [])
    return {
        "train_windows": runs[0][0] if runs else 0,
        "test_windows": runs[0][3] if runs else 0,
        "train_windows_per_s": {"value": float(np.median([w / s for w, s, _, _ in runs])),
                                "unit": "windows/s"} if runs else None,
        "test_mae": {"value": runs[0][2], "unit": "normalized units"} if runs else None,
        "train_calls": len(calls),
    }


# -- forecast --------------------------------------------------------------------

def forecast_setup(mg, workdir, seed, size):
    """An 11-series panel (the G7+MINT width) and an MTGNN checkpoint for it."""
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "panel.csv")
    frame = mg.synthetic.coupled_var_system(num_nodes=11, steps=size["steps"], seed=seed).frame
    write_csv(frame, path)
    pipeline = mg.data.run_pipeline(path, mg.data.WindowSpec(P=30, Q=1))
    config = mg.mtgnn.MtgnnConfig(num_nodes=11, input_window=30, horizon=1)
    model = mg.mtgnn.MtgnnModel(config, mg.autodiff.Rng(seed))
    ckpt = os.path.join(workdir, "checkpoint.json")
    mg.checkpoint.save_checkpoint(ckpt, kind="mtgnn", config=asdict(config),
                                  params=model.state_dict(),
                                  extra={"labels": list(pipeline.train.columns),
                                         "norm_stats": pipeline.report["norm_stats"],
                                         "window": {"P": 30, "Q": 1}, "rebase": []})
    return {"csv": path, "checkpoint": ckpt, "out": os.path.join(workdir, "out"),
            "size": size, "checkpoint_bytes": os.path.getsize(ckpt)}


def forecast_prepare(mg, state):
    """Expected price-scale predictions from `predict_windows` on the loaded model."""
    model = mg.mtgnn.MtgnnModel.load(state["checkpoint"])
    extra = mg.checkpoint.load_checkpoint(state["checkpoint"]).extra
    stats = mg.data.NormStats(columns=tuple(extra["norm_stats"]["columns"]),
                              mean=np.array(extra["norm_stats"]["mean"]),
                              std=np.array(extra["norm_stats"]["std"]))
    frame = mg.data.normalize(mg.data.log_transform(mg.data.load_csv(state["csv"])), stats)
    x = mg.data.make_windows(frame, mg.data.WindowSpec(P=30, Q=1)).x
    labels = list(frame.columns)
    state["header"] = ["date"] + [f"{s}_{kind}" for s in labels for kind in ("actual", "predicted")]
    state["expected"] = {
        steps: mg.data.invert_predictions(model.predict_windows(x[-steps:], horizon=1)[:, :, 0], stats)
        for steps in (1, state["size"]["backtest"])
    }


def forecast_call(mg, state, steps):
    code, seconds, cal = cli_call(mg, ["forecast", "--checkpoint", state["checkpoint"],
                                  "--csv", state["csv"], "--steps", str(steps),
                                  "--out", state["out"]])
    kind = "next" if steps == 1 else "backtest"
    if code != 0:
        return Call(kind, seconds, cal, False, f"forecast exited {code}")
    with open(os.path.join(state["out"], "forecast.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != state["header"] or len(rows) != steps + 1:
        return Call(kind, seconds, cal, False, "forecast trace has wrong rows or columns")
    predicted = np.array([[float(v) for v in row[2::2]] for row in rows[1:]])
    if not np.array_equal(predicted, state["expected"][steps]):
        return Call(kind, seconds, cal, False, "forecast differs from predict_windows")
    return Call(kind, seconds, cal, True, windows=steps)


def forecast_op(mg, state, tracer):
    """A trading-day cycle: many next-day forecasts, then one backtest."""
    size = state["size"]
    calls = []
    if tracer is not None:
        tracer.phase = "next"
    for _ in range(size["next_per_cycle"]):
        calls.append(forecast_call(mg, state, 1))
    if tracer is not None:
        tracer.phase = "backtest"
        state["backtest_windows_traced"] = state.get("backtest_windows_traced", 0) + size["backtest"]
    calls.append(forecast_call(mg, state, size["backtest"]))
    if tracer is not None:
        tracer.phase = "other"
    return calls


def forecast_figures(state, calls):
    nxt = [c.seconds for c in calls if c.kind == "next"]
    back = [c for c in calls if c.kind == "backtest"]
    return {
        "next_day_calls": len(nxt),
        "backtest_calls": len(back),
        "forecast_next_ms_p50": {"value": 1000.0 * float(np.median(nxt)) if nxt else 0.0,
                                 "unit": "ms"},
        "forecast_next_ms_p90": {"value": 1000.0 * float(np.percentile(nxt, 90)) if nxt else 0.0,
                                 "unit": "ms"},
        "forecast_windows_per_s": {
            "value": float(np.median([c.windows / c.seconds for c in back])) if back else 0.0,
            "unit": "windows/s"},
    }


# -- analyze ---------------------------------------------------------------------

def analyze_setup(mg, workdir, seed, size):
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "panel.csv")
    frame = mg.synthetic.coupled_var_system(num_nodes=size["nodes"], steps=size["steps"],
                                            seed=seed).frame
    write_csv(frame, path)
    return {"csv": path, "out": os.path.join(workdir, "out")}


def analyze_prepare(mg, state):
    """One reference warping distance, z-scored exactly as `dtw_matrix` does."""
    frame = mg.data.load_csv(state["csv"])
    z = (frame.values - frame.values.mean(axis=0)) / frame.values.std(axis=0)
    state["labels"] = list(frame.columns)
    state["pair_01"] = mg.metrics.dtw_distance(z[:, 0], z[:, 1])


def analyze_op(mg, state, tracer):
    code, seconds, cal = cli_call(mg, ["analyze", state["csv"], "--out", state["out"]])
    if code != 0:
        return [Call("analyze", seconds, cal, False, f"analyze exited {code}")]
    labels, dtw = read_matrix_csv(os.path.join(state["out"], "dtw.csv"))
    if labels != state["labels"] or dtw.shape != (len(labels), len(labels)):
        return [Call("analyze", seconds, cal, False, "dtw.csv has wrong labels or shape")]
    if not np.array_equal(dtw, dtw.T) or np.any(np.diagonal(dtw) != 0):
        return [Call("analyze", seconds, cal, False, "warping matrix not symmetric with zero diagonal")]
    if dtw[0, 1] != state["pair_01"]:
        return [Call("analyze", seconds, cal, False, "dtw[0,1] differs from metrics.dtw_distance")]
    return [Call("analyze", seconds, cal, True)]


def analyze_figures(state, calls):
    return {"analyze_calls": len(calls),
            "analyze_s": {"value": float(np.median([c.seconds for c in calls])) if calls else 0.0,
                          "unit": "s"}}


# -- compare_baselines -----------------------------------------------------------

BASELINES = ("persistence", "ar", "var_mlp", "gru", "tcn")


def compare_setup(mg, workdir, seed, size):
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "panel.csv")
    write_csv(criterion7_panel(mg, size, seed), path)
    window = mg.data.WindowSpec(P=30, Q=1)
    return {"pipeline": mg.data.run_pipeline(path, window), "window": window,
            "seed": seed, "size": size}


def compare_prepare(mg, state):
    size = state["size"]
    state["spec"] = mg.training.ComparisonSpec(
        train=mg.training.TrainConfig(epochs=size["epochs"], seed=state["seed"]),
        mlp=mg.baselines.MlpSpec(epochs=size["mlp_epochs"]),
        include=BASELINES)
    state["reference"] = None


def compare_op(mg, state, tracer):
    result, seconds, cal = timed(mg.training.run_comparison, state["pipeline"], state["window"],
                                 state["spec"])
    if result.errors:
        return [Call("compare", seconds, cal, False, f"model errors: {result.errors}")]
    doc = result.to_dict()
    if sorted(doc["models"]) != sorted(BASELINES):
        return [Call("compare", seconds, cal, False, "missing model reports")]
    values = [m for r in result.reports.values() for s in r.per_series.values() for m in s.values()]
    if not np.all(np.isfinite(values)):
        return [Call("compare", seconds, cal, False, "non-finite metrics")]
    if state["reference"] is None:
        state["reference"] = doc
    elif doc != state["reference"]:
        return [Call("compare", seconds, cal, False, "same-seed comparison is not bit-identical")]
    return [Call("compare", seconds, cal, True)]


def compare_figures(state, calls):
    return {"compare_calls": len(calls),
            "compare_s": {"value": float(np.median([c.seconds for c in calls])) if calls else 0.0,
                          "unit": "s"}}


WORKLOADS = {
    "train_mtgnn": Workload(
        sizes={"full": {"nodes": 6, "steps": 350, "epochs": 1},
               "tiny": {"nodes": 6, "steps": 180, "epochs": 1}},
        setup=train_setup, prepare_checks=train_prepare, op=train_op,
        figures=train_figures, main_call="train", calibration=("contraction", "dispatch")),
    "forecast": Workload(
        sizes={"full": {"steps": 2000, "next_per_cycle": 20, "backtest": 256},
               "tiny": {"steps": 300, "next_per_cycle": 3, "backtest": 16}},
        setup=forecast_setup, prepare_checks=forecast_prepare, op=forecast_op,
        figures=forecast_figures, main_call="next", calibration=("dispatch", "parsing")),
    "analyze": Workload(
        sizes={"full": {"nodes": 6, "steps": 600}, "tiny": {"nodes": 4, "steps": 200}},
        setup=analyze_setup, prepare_checks=analyze_prepare, op=analyze_op,
        figures=analyze_figures, main_call="analyze", calibration=("dispatch", "parsing")),
    "compare_baselines": Workload(
        sizes={"full": {"nodes": 6, "steps": 350, "epochs": 1, "mlp_epochs": 100},
               "tiny": {"nodes": 6, "steps": 180, "epochs": 1, "mlp_epochs": 5}},
        setup=compare_setup, prepare_checks=compare_prepare, op=compare_op,
        figures=compare_figures, main_call="compare", calibration=("contraction", "dispatch")),
}
