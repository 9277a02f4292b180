"""Training loop, evaluation wiring, and the model comparison driver."""
import csv
import gc
import io
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from conftest import build_frame

import marketgraph
from marketgraph import (
    ConfigError, DataError, GruModel, MtgnnConfig, MtgnnModel, Rng, TcnModel, TrainConfig,
    TrainingDiverged, WindowSpec, evaluate, mae, mape, rmse, rse, run_comparison,
    run_pipeline, train,
)
from marketgraph.baselines import GruConfig, MlpSpec, TcnConfig
from marketgraph.data import NormStats, WindowSet, invert_predictions, make_windows, trace_csv
from marketgraph.metrics import MetricsReport
from marketgraph.training import ComparisonSpec, history_csv

GEN = np.random.default_rng(77)


def small_windows(rows=60, n=2, P=8, Q=1, seed=3):
    gen = np.random.default_rng(seed)
    values = np.cumsum(gen.normal(0, 0.1, size=(rows, n)), axis=0)
    return make_windows(build_frame(values), WindowSpec(P=P, Q=Q))


def fresh_model(seed=11, horizon=1):
    return TcnModel(TcnConfig(channels=4, num_blocks=2, horizon=horizon), Rng(seed))


# -- TrainConfig --------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(loss="l2")
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(l2_coefficient=-1e-4)
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("field", ["learning_rate", "l2_coefficient"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_config_rates_must_be_finite(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be .*finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("cls,field,value", [
    (MtgnnConfig, "num_layers", "2"), (MtgnnConfig, "num_layers", True),
    (MtgnnConfig, "dropout", "0.3"), (MtgnnConfig, "dropout", False),
    (MtgnnConfig, "k", 1.0), (MtgnnConfig, "k", True),
    (MtgnnConfig, "use_residual", "no"), (MtgnnConfig, "use_residual", 1),
    (GruConfig, "hidden_size", 8.0), (TcnConfig, "channels", "16"),
    (TcnConfig, "kernel_size", True), (TrainConfig, "epochs", 1.5),
    (TrainConfig, "learning_rate", "0.01"), (TrainConfig, "loss", 1),
    (TrainConfig, "seed", None), (MlpSpec, "epochs", True),
])
def test_config_fields_must_hold_their_declared_type(cls, field, value):
    required = {MtgnnConfig: {"num_nodes": 3}, GruConfig: {"num_series": 2}}.get(cls, {})
    with pytest.raises(ConfigError, match=field):
        cls(**required, **{field: value})


def test_float_fields_take_integers_and_k_takes_none():
    cfg = MtgnnConfig(num_nodes=3, dropout=0, retain_ratio=1, alpha=3, k=None)
    assert (cfg.dropout, cfg.alpha, cfg.k) == (0, 3, None)
    assert TrainConfig(learning_rate=1, l2_coefficient=0).learning_rate == 1


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.epochs == 30
    assert cfg.batch_size == 8
    assert cfg.loss == "l1"


# -- train --------------------------------------------------------------------------


def test_zero_epochs_leaves_model_untouched():
    windows = small_windows()
    model = fresh_model()
    before = {k: v.copy() for k, v in model.state_dict().items()}
    result = train(model, windows, windows, TrainConfig(epochs=0, seed=1))
    assert result.history == []
    assert result.best_epoch == 0
    for k, v in result.model.state_dict().items():
        np.testing.assert_array_equal(v, before[k])


def test_training_is_deterministic_under_fixed_seed():
    windows = small_windows()
    runs = []
    for _ in range(2):
        result = train(fresh_model(seed=11), windows, windows,
                       TrainConfig(epochs=3, batch_size=4, seed=9), rng=Rng(9))
        runs.append(result)
    assert runs[0].history == runs[1].history
    for k in runs[0].model.state_dict():
        np.testing.assert_array_equal(runs[0].model.state_dict()[k],
                                      runs[1].model.state_dict()[k])


# Trains a tiny MTGNN for two epochs and prints every weight's bytes as hex.
_TRAIN_CHILD = """
import sys
import numpy as np
from marketgraph import MtgnnConfig, MtgnnModel, Rng, TrainConfig, WindowSpec, train
from marketgraph.data import make_windows
from marketgraph.synthetic import coupled_var_system
frame = coupled_var_system(num_nodes=4, steps=120, seed=3).frame
windows = make_windows(frame, WindowSpec(P=8, Q=1))
config = MtgnnConfig(num_nodes=4, num_layers=2, conv_channels=4, residual_channels=4,
                     skip_channels=4, embedding_dim=4, input_window=8, k=2)
model = MtgnnModel(config, Rng(5))
train(model, windows, windows, TrainConfig(epochs=2, batch_size=8, seed=5), rng=Rng(6))
sys.stdout.write(np.concatenate([p.data.ravel() for p in model.parameters()]).tobytes().hex())
"""


def test_training_is_bit_identical_across_blas_thread_counts():
    # The variable is set only in the children: OpenBLAS reads it once, at load.
    src = str(Path(marketgraph.__file__).resolve().parent.parent)
    weights = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", _TRAIN_CHILD], env=env, capture_output=True,
                               text=True, timeout=300, check=True)
        weights.append(child.stdout)
    assert weights[0] and weights[0] == weights[1]


# Runs the benchmark's five compared kinds and prints the comparison as JSON.
_COMPARE_CHILD = """
import json
import sys
from marketgraph import TrainConfig, WindowSpec, run_comparison, run_pipeline
from marketgraph.synthetic import coupled_var_system
from marketgraph.training import ComparisonSpec
pipeline = run_pipeline(coupled_var_system(num_nodes=4, steps=160, seed=3).frame, WindowSpec(P=8, Q=1))
spec = ComparisonSpec(train=TrainConfig(epochs=2, batch_size=8, seed=5), gru_hidden=8,
                      tcn_channels=4, tcn_blocks=2,
                      include=("persistence", "ar", "var_mlp", "gru", "tcn"))
sys.stdout.write(json.dumps(run_comparison(pipeline, WindowSpec(P=8, Q=1), spec).to_dict()))
"""


def test_comparison_is_bit_identical_across_blas_thread_counts():
    # With OpenBLAS at 2 threads the kinds are fitted with it pinned to one
    # thread per process; at 1 thread nothing changes. The reports must match.
    src = str(Path(marketgraph.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", _COMPARE_CHILD], env=env, capture_output=True,
                               text=True, timeout=300, check=True)
        outputs.append(child.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
    assert set(json.loads(outputs[0])["models"]) == {"persistence", "ar", "var_mlp", "gru", "tcn"}


def test_training_and_evaluation_leave_no_reference_cycles():
    # Reference counting alone frees the tape and the tensors of every step,
    # so the cyclic collector has nothing to find after an epoch.
    pipeline = toy_pipeline()
    config = MtgnnConfig(num_nodes=3, input_window=8, num_layers=2, conv_channels=4,
                         residual_channels=4, skip_channels=4, embedding_dim=4, k=2)
    gc.collect()
    gc.disable()
    try:
        result = train(MtgnnModel(config, Rng(5)), pipeline.train_windows,
                       pipeline.validation_windows, TrainConfig(epochs=1, batch_size=8, seed=5))
        evaluate(result.model, pipeline.test_windows, pipeline.stats)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_returned_weights_are_the_best_validation_epoch():
    windows = small_windows(rows=80)
    val = small_windows(rows=40, seed=4)
    result = train(fresh_model(), windows, val,
                   TrainConfig(epochs=5, batch_size=4, seed=2), rng=Rng(2))
    best = min(h["val_loss"] for h in result.history)
    assert result.history[result.best_epoch - 1]["val_loss"] == best
    # re-score the restored weights: must reproduce the recorded best loss
    pred = result.model.predict_windows(val.x)
    rescored = float(np.mean(np.abs(pred - val.y)))
    assert abs(rescored - best) < 1e-12


def test_history_losses_are_finite_and_positive():
    windows = small_windows()
    result = train(fresh_model(), windows, windows, TrainConfig(epochs=3, seed=5))
    assert len(result.history) == 3
    for i, row in enumerate(result.history, start=1):
        assert row["epoch"] == i
        assert np.isfinite(row["train_loss"]) and row["train_loss"] > 0
        assert np.isfinite(row["val_loss"]) and row["val_loss"] > 0


def test_l2_penalty_shrinks_parameter_norm():
    windows = small_windows()

    def total_norm(l2):
        result = train(fresh_model(seed=21), windows, windows,
                       TrainConfig(epochs=5, l2_coefficient=l2, seed=3), rng=Rng(3))
        return sum(float(np.sum(v ** 2)) for v in result.model.state_dict().values())

    assert total_norm(1.0) < total_norm(0.0)


def test_divergence_aborts_with_epoch():
    # a step this large pushes weights to ~1e80; the four multiplicative
    # stages of the forward pass then overflow float64 on the next batch
    windows = small_windows()
    with pytest.raises(TrainingDiverged) as err:
        with np.errstate(over="ignore", invalid="ignore"):
            train(fresh_model(), windows, windows,
                  TrainConfig(epochs=3, learning_rate=1e80, seed=1))
    assert err.value.epoch >= 1


def test_empty_window_sets_rejected():
    windows = small_windows()
    empty = WindowSet(x=np.zeros((0, 2, 8)), y=np.zeros((0, 2, 1)))
    with pytest.raises(DataError):
        train(fresh_model(), empty, windows, TrainConfig(epochs=1))
    with pytest.raises(DataError):
        train(fresh_model(), windows, empty, TrainConfig(epochs=1))


def test_gru_trains_through_the_same_loop():
    windows = small_windows()
    model = GruModel(GruConfig(num_series=2, hidden_size=8, horizon=1), Rng(4))
    result = train(model, windows, windows, TrainConfig(epochs=2, seed=6), rng=Rng(6))
    assert len(result.history) == 2
    assert result.adjacency is None  # only graph-learning models produce one


# -- evaluate -----------------------------------------------------------------------


class _FixedModel:
    """Deterministic stub: predicts target + known offsets."""

    kind = "stub"

    def __init__(self, offset):
        self.offset = offset

    def predict_windows(self, x, horizon=None):
        B, N, _ = x.shape
        return x[:, :, -1:] * 0.0 + self.offset


def test_evaluate_matches_hand_metrics():
    x = GEN.normal(size=(6, 2, 4))
    y = np.stack([np.linspace(1, 6, 6), np.linspace(2, 12, 6)], axis=1)[:, :, None]
    windows = WindowSet(x=x, y=y)
    stats = NormStats(mean=np.zeros(2), std=np.ones(2), columns=("a", "b"))
    result = evaluate(_FixedModel(offset=3.0), windows, stats, ("a", "b"), seed=0)
    for j, label in enumerate(("a", "b")):
        truth = y[:, j, 0]
        pred = np.full(6, 3.0)
        got = result.report.per_series[label]
        assert got["rmse"] == pytest.approx(rmse(truth, pred), abs=1e-12)
        assert got["mae"] == pytest.approx(mae(truth, pred), abs=1e-12)
        assert got["mape"] == pytest.approx(mape(truth, pred), abs=1e-12)
        assert got["rse"] == pytest.approx(rse(truth, pred), abs=1e-12)
    # identity stats: price scale is exp of the raw values
    np.testing.assert_allclose(result.price_true, np.exp(result.y_true), atol=1e-12)
    np.testing.assert_allclose(result.price_pred,
                               invert_predictions(result.y_pred, stats), atol=0)
    # the price-scale metrics are the same four on the inverted traces
    for j, label in enumerate(("a", "b")):
        truth, pred = result.price_true[:, j], result.price_pred[:, j]
        assert result.report.price_per_series[label] == {
            "rse": rse(truth, pred), "rmse": rmse(truth, pred),
            "mae": mae(truth, pred), "mape": mape(truth, pred)}
    assert result.report.to_dict()["price_metrics"] == result.report.price_per_series


def test_evaluate_rejects_empty_and_mismatched():
    stats = NormStats(mean=np.zeros(2), std=np.ones(2), columns=("a", "b"))
    empty = WindowSet(x=np.zeros((0, 2, 4)), y=np.zeros((0, 2, 1)))
    with pytest.raises(DataError):
        evaluate(_FixedModel(1.0), empty, stats, ("a", "b"))

    class WrongShape:
        def predict_windows(self, x, horizon=None):
            return np.zeros((len(x), 1, 1))

    windows = WindowSet(x=GEN.normal(size=(4, 2, 4)),
                        y=GEN.normal(size=(4, 2, 1)))
    with pytest.raises(DataError):
        evaluate(WrongShape(), windows, stats, ("a", "b"))


def test_evaluate_report_metadata():
    windows = WindowSet(x=GEN.normal(size=(4, 2, 4)),
                        y=GEN.normal(size=(4, 2, 1)) + 5.0)
    stats = NormStats(mean=np.zeros(2), std=np.ones(2), columns=("a", "b"))
    result = evaluate(_FixedModel(5.0), windows, stats, seed=42,
                      config={"offset": 5.0})
    assert isinstance(result.report, MetricsReport)
    assert result.report.model_kind == "stub"
    assert result.report.split == "test"
    assert result.report.seed == 42
    assert result.report.series == ("a", "b")  # labels default to stats columns


# -- comparison driver ----------------------------------------------------------------


def toy_pipeline(rows=220, n=3):
    gen = np.random.default_rng(12)
    walk = np.cumsum(gen.normal(0, 0.01, size=(rows, n)), axis=0)
    base = np.array([100.0, 50.0, 200.0])[:n]
    values = base * np.exp(walk)
    frame = build_frame(values, columns=[f"s{j}" for j in range(n)])
    return run_pipeline(frame, WindowSpec(P=8, Q=1))


def test_comparison_runs_requested_subset():
    pipeline = toy_pipeline()
    spec = ComparisonSpec(train=TrainConfig(epochs=1, seed=0),
                          include=("persistence", "ar"))
    result = run_comparison(pipeline, WindowSpec(P=8, Q=1), spec)
    assert set(result.reports) == {"persistence", "ar"}
    assert result.errors == {}
    assert result.series == pipeline.train.columns
    for series in result.series:
        for metric in ("rse", "rmse", "mae", "mape"):
            flag = result.flags[series][metric]
            assert flag["best"] in result.reports
            assert flag["second"] in result.reports
            assert flag["best"] != flag["second"]


def test_comparison_isolates_model_failures():
    pipeline = toy_pipeline()
    # an AR order larger than the training split cannot be fit
    spec = ComparisonSpec(train=TrainConfig(epochs=1, seed=0),
                          ar_order=10_000, include=("persistence", "ar"))
    result = run_comparison(pipeline, WindowSpec(P=8, Q=1), spec)
    assert "persistence" in result.reports
    assert "ar" not in result.reports
    assert "ar" in result.errors and result.errors["ar"]


def test_comparison_propagates_programming_errors(monkeypatch):
    import marketgraph.training as training

    def broken(*args, **kwargs):
        raise TypeError("bug in a model")

    monkeypatch.setattr(training, "fit_ar_ensemble", broken)
    spec = ComparisonSpec(train=TrainConfig(epochs=1, seed=0), include=("persistence", "ar"))
    with pytest.raises(TypeError, match="bug in a model"):
        run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)


def test_comparison_records_divergence(monkeypatch):
    import marketgraph.training as training

    def diverged(*args, **kwargs):
        raise TrainingDiverged(3)

    monkeypatch.setattr(training, "fit_ar_ensemble", diverged)
    spec = ComparisonSpec(train=TrainConfig(epochs=1, seed=0), include=("persistence", "ar"))
    result = run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)
    assert "persistence" in result.reports
    assert result.errors == {"ar": "TrainingDiverged: non-finite loss at epoch 3"}


# -- comparison workers ---------------------------------------------------------------
#
# `_comparison_workers` is the one place that sets how many children
# `run_comparison` forks; `_claim` is the loop in which every process takes
# kinds from the queue. A `_claim` that claims nothing in the test's own
# process leaves every kind to the children.

ALL_KINDS = ("persistence", "ar", "var_mlp", "gru", "tcn", "mtgnn")
TINY_MTGNN = {"num_layers": 2, "conv_channels": 4, "residual_channels": 4, "skip_channels": 4,
              "embedding_dim": 4, "k": 2}


def all_kinds_spec(**knobs):
    return ComparisonSpec(train=TrainConfig(epochs=2, batch_size=16, seed=4), gru_hidden=8,
                          tcn_channels=4, tcn_blocks=2, mtgnn=TINY_MTGNN, include=ALL_KINDS,
                          mlp=MlpSpec(hidden=4, epochs=3), **knobs)


def children_fit_everything(monkeypatch, workers=1):
    """Fork `workers` children and let them claim every kind; return the
    list of kinds this process evaluated itself."""
    import marketgraph.training as training

    parent, real_claim, real_evaluate = os.getpid(), training._claim, training.evaluate
    evaluated_here = []

    def claim(*args):
        return None if os.getpid() == parent else real_claim(*args)

    def evaluate_(model, *args, **kwargs):
        if os.getpid() == parent:
            evaluated_here.append(model)
        return real_evaluate(model, *args, **kwargs)

    monkeypatch.setattr(training, "_comparison_workers", lambda kinds: workers)
    monkeypatch.setattr(training, "_claim", claim)
    monkeypatch.setattr(training, "evaluate", evaluate_)
    return evaluated_here


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sequential(monkeypatch, spec):
    import marketgraph.training as training
    with monkeypatch.context() as patch:
        patch.setattr(training, "_comparison_workers", lambda kinds: 0)
        return run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)


def test_comparison_with_workers_matches_a_sequential_run(monkeypatch):
    spec = all_kinds_spec()
    alone = sequential(monkeypatch, spec)
    assert set(alone.reports) == set(ALL_KINDS) and alone.errors == {}
    assert set(alone.histories) == {"gru", "tcn", "mtgnn"}
    # as many children as this machine's cores call for, then children for every kind
    shared = run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)
    assert_no_child_left()
    evaluated_here = children_fit_everything(monkeypatch, workers=2)
    farmed = run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)
    assert_no_child_left()
    assert evaluated_here == []
    for result in (shared, farmed):
        assert list(result.reports) == list(ALL_KINDS)
        assert json.dumps(result.to_dict()) == json.dumps(alone.to_dict())
        assert result.histories == alone.histories
        assert result.render_markdown() == alone.render_markdown()


def test_comparison_records_a_bad_order_fitted_in_a_worker(monkeypatch):
    spec = all_kinds_spec(ar_order=0)
    alone = sequential(monkeypatch, spec)
    evaluated_here = children_fit_everything(monkeypatch)
    result = run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)
    assert_no_child_left()
    assert evaluated_here == []
    assert result.errors == alone.errors == {
        "ar": "ConfigError: baselines.ar_order must be positive, got 0"}
    assert list(result.reports) == [kind for kind in ALL_KINDS if kind != "ar"]
    assert json.dumps(result.to_dict()) == json.dumps(alone.to_dict())


def test_comparison_refits_a_kind_whose_worker_raised_and_propagates(monkeypatch):
    import marketgraph.training as training

    def broken(*args, **kwargs):
        raise TypeError("bug in a model")

    evaluated_here = children_fit_everything(monkeypatch)
    monkeypatch.setattr(training, "fit_ar_ensemble", broken)
    spec = ComparisonSpec(train=TrainConfig(epochs=1, seed=0), include=("persistence", "ar", "tcn"))
    with pytest.raises(TypeError, match="bug in a model") as raised:
        run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)
    assert_no_child_left()
    # the child sent persistence and stopped at ar; this process fitted ar
    # again, which raised in its own frames
    assert evaluated_here == []
    assert raised.traceback[-1].name == "broken"


def test_comparison_refits_a_kind_whose_fit_raised_in_this_process(monkeypatch):
    import marketgraph.training as training

    parent, real_claim = os.getpid(), training._claim
    control = training._openblas_threads()
    before = control[0]() if control else None
    calls = []

    def broken(*args, **kwargs):
        calls.append(os.getpid())
        raise TypeError("bug in a model")

    def claim(*args):
        # the child claims nothing, so this process fits every kind while it runs
        return real_claim(*args) if os.getpid() == parent else None

    monkeypatch.setattr(training, "_comparison_workers", lambda kinds: 1)
    monkeypatch.setattr(training, "_claim", claim)
    monkeypatch.setattr(training, "fit_ar_ensemble", broken)
    spec = ComparisonSpec(train=TrainConfig(epochs=1, seed=0), include=("persistence", "ar", "tcn"))
    with pytest.raises(TypeError, match="bug in a model") as raised:
        run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)
    assert_no_child_left()
    # ar was claimed and raised, then fitted again once the child was reaped
    assert raised.traceback[-1].name == "broken"
    assert calls == [parent, parent]
    if control:
        assert control[0]() == before


def test_the_blas_control_reaches_the_library_numpy_mapped():
    import ctypes

    import marketgraph.training as training

    control = training._openblas_threads()
    if control is None:
        pytest.skip("numpy's OpenBLAS exposes no thread-count control here")
    try:
        with open("/proc/self/maps", "rb") as maps:
            paths = sorted({os.fsdecode(line.split(maxsplit=5)[5].strip()) for line in maps
                            if b"numpy.libs/libscipy_openblas" in line})
    except OSError:
        pytest.skip("/proc/self/maps cannot be read here")
    if not paths:
        pytest.skip("numpy's OpenBLAS is not bundled under numpy.libs here")
    # the reference: the mapped file itself, opened without loading it again
    reference = ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD).scipy_openblas_get_num_threads64_
    reference.argtypes, reference.restype = [], ctypes.c_int
    get_threads, set_threads = control
    before = get_threads()
    try:
        assert reference() == before
        for count in (1, 2):
            set_threads(count)
            assert reference() == count
    finally:
        set_threads(before)


def test_comparison_refits_every_kind_of_a_worker_that_died(monkeypatch):
    import marketgraph.training as training

    spec = all_kinds_spec()
    alone = sequential(monkeypatch, spec)
    parent, real_fit = os.getpid(), training.fit_var_mlp

    def dies_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real_fit(*args, **kwargs)

    evaluated_here = children_fit_everything(monkeypatch)
    monkeypatch.setattr(training, "fit_var_mlp", dies_in_a_child)
    result = run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)
    assert_no_child_left()
    # the child fitted persistence and ar before it died; none of it is kept
    assert len(evaluated_here) == len(ALL_KINDS)
    assert json.dumps(result.to_dict()) == json.dumps(alone.to_dict())
    assert result.histories == alone.histories


class Interrupt(BaseException):
    """Stands in for a Ctrl-C that lands in the parent while a child fits."""


def test_comparison_kills_and_reaps_its_workers_on_an_interrupt(monkeypatch):
    import marketgraph.training as training

    parent, real_claim = os.getpid(), training._claim

    def claim(*args):
        if os.getpid() == parent:
            raise Interrupt
        return real_claim(*args)

    monkeypatch.setattr(training, "_comparison_workers", lambda kinds: 2)
    monkeypatch.setattr(training, "_claim", claim)
    with pytest.raises(Interrupt):
        run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), all_kinds_spec())
    assert_no_child_left()


def test_comparison_fits_every_kind_here_when_a_fork_fails(monkeypatch):
    import errno

    import marketgraph.training as training

    spec = all_kinds_spec()
    alone = sequential(monkeypatch, spec)
    control = training._openblas_threads()
    before = control[0]() if control else None
    forks = []

    def fork():
        forks.append(os.getpid())
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(training, "_comparison_workers", lambda kinds: 1)
    monkeypatch.setattr(os, "fork", fork)
    try:
        if control:
            control[1](2)
        result = run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), spec)
        assert control is None or control[0]() == 2
    finally:
        if control:
            control[1](before)
    assert forks == [os.getpid()]
    assert_no_child_left()
    assert json.dumps(result.to_dict()) == json.dumps(alone.to_dict())
    assert result.histories == alone.histories


def test_comparison_restores_the_blas_thread_count(monkeypatch):
    import marketgraph.training as training

    control = training._openblas_threads()
    if control is None:
        pytest.skip("numpy's OpenBLAS exposes no thread-count control here")
    get_threads, set_threads = control
    before = get_threads()
    seen = []
    real_evaluate = training.evaluate

    def evaluate_(*args, **kwargs):
        seen.append(get_threads())
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(training, "_comparison_workers", lambda kinds: 1)
    monkeypatch.setattr(training, "evaluate", evaluate_)
    try:
        set_threads(2)
        run_comparison(toy_pipeline(), WindowSpec(P=8, Q=1), all_kinds_spec())
        assert seen and set(seen) == {1}  # pinned while the child ran
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_comparison_streams_do_not_depend_on_include_subset():
    pipeline = toy_pipeline()
    cfg = TrainConfig(epochs=1, batch_size=16, seed=5)

    def gru_report(include):
        spec = ComparisonSpec(train=cfg, gru_hidden=8, include=include)
        return run_comparison(pipeline, WindowSpec(P=8, Q=1), spec).reports["gru"]

    solo = gru_report(("gru",))
    paired = gru_report(("persistence", "gru"))
    assert solo.per_series == paired.per_series


def test_comparison_markdown_marks_best_and_second():
    pipeline = toy_pipeline()
    spec = ComparisonSpec(train=TrainConfig(epochs=1, seed=0),
                          include=("persistence", "ar"))
    result = run_comparison(pipeline, WindowSpec(P=8, Q=1), spec)
    text = result.render_markdown()
    assert "**" in text and "*" in text
    assert text.startswith("Test metrics on the price scale")
    assert "| model | RSE | RMSE | MAE | MAPE |" in text
    for series in result.series:
        assert f"### {series}" in text
    for name, report in result.reports.items():
        assert f"| {name} | " in text
        for series in result.series:  # price-scale MAPE shown as a one-decimal percent
            assert f"{100.0 * report.price_per_series[series]['mape']:.1f}%" in text
    # the bold cells are the price-scale ranking's best
    metrics = ("rse", "rmse", "mae", "mape")
    for section in text.split("### ")[1:]:
        series, *rows = section.strip().splitlines()
        for row in rows[2:]:
            name, *cells = [c.strip() for c in row.strip("|").split("|")]
            for metric, cell in zip(metrics, cells):
                best = result.price_flags[series][metric]["best"] == name
                assert cell.startswith("**") == best, (series, name, metric)
    payload = result.to_dict()
    assert set(payload) == {"series", "models", "errors", "flags", "price_flags"}


def test_comparison_spec_rejects_unknown_models():
    with pytest.raises(ConfigError):
        ComparisonSpec(include=("persistence", "arima"))


def test_comparison_spec_rejects_a_kind_listed_twice():
    with pytest.raises(ConfigError, match=r"baselines\.include lists ar more than once"):
        ComparisonSpec(include=("ar", "persistence", "ar"))


@pytest.mark.parametrize("field,value", [("ar_order", "2"), ("var_order", 2.0), ("gru_hidden", None),
                                         ("tcn_channels", True), ("tcn_blocks", [3])])
def test_comparison_spec_rejects_non_integer_knobs(field, value):
    with pytest.raises(ConfigError, match=field):
        ComparisonSpec(**{field: value})


@pytest.mark.parametrize("include", ["ar", 5, ("ar", 1), None])
def test_comparison_spec_include_must_be_a_sequence_of_strings(include):
    with pytest.raises(ConfigError, match="include"):
        ComparisonSpec(include=include)


def test_comparison_spec_keeps_range_checks_for_the_run():
    spec = ComparisonSpec(ar_order=0, include=["persistence", "ar"])
    assert spec.ar_order == 0 and spec.include == ("persistence", "ar")


def test_model_registry_is_the_default_include_in_stream_order():
    from marketgraph.training import MODEL_BUILDERS
    kinds = ("persistence", "ar", "var_mlp", "gru", "tcn", "mtgnn")
    assert tuple(MODEL_BUILDERS) == kinds
    assert ComparisonSpec().include == kinds


# -- csv renderers --------------------------------------------------------------------


def test_history_csv_schema_and_round_trip():
    history = [{"epoch": 1, "train_loss": 0.5, "val_loss": 0.25},
               {"epoch": 2, "train_loss": 0.1234567890123456, "val_loss": 0.2}]
    rows = list(csv.reader(io.StringIO(history_csv(history), newline="")))
    assert rows[0] == ["epoch", "train_loss", "val_loss"]
    assert len(rows) == 3
    assert float(rows[2][1]) == 0.1234567890123456


def test_trace_csv_schema():
    dates = [date(2021, 1, 1), date(2021, 1, 2)]
    actual = np.array([[1.0, 2.0], [3.0, 4.0]])
    predicted = actual + 0.5
    rows = list(csv.reader(io.StringIO(trace_csv(dates, ("us", "uk"), actual, predicted), newline="")))
    assert rows[0] == ["date", "us_actual", "us_predicted", "uk_actual", "uk_predicted"]
    assert rows[1][0] == "2021-01-01"
    assert float(rows[2][4]) == 4.5


def test_trace_csv_rejects_mismatched_shapes():
    with pytest.raises(DataError):
        trace_csv([date(2021, 1, 1)], ("a",), np.zeros((2, 1)), np.zeros((2, 1)))
