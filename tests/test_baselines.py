"""Autoregressive, VAR+MLP, recurrent, and temporal-conv reference models."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import (
    ConfigError, DataError, DomainError, GruModel, MtgnnConfig, MtgnnModel, PersistenceModel, Rng,
    ShapeError, Tape, TcnModel, Tensor, fit_ar_ensemble, fit_var_mlp, grad_check_params,
)
from marketgraph.autodiff import abs_, add_bias, gru_sequence, last_step, mean, tanh
from marketgraph.baselines import (
    ArConfig, ArEnsemble, GruConfig, MlpSpec, TcnConfig, VarMlpModel, _mlp_l1_grads,
    fit_ar, fit_var,
)

GEN = np.random.default_rng(44)


# -- AR -----------------------------------------------------------------------------

def ar_ensemble(intercept, coeffs) -> ArEnsemble:
    """A one-series ensemble holding the AR fit (intercept, coeffs)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    model = ArEnsemble(ArConfig(order=coeffs.size, num_series=1))
    model.load_state_dict({"series0.intercept": [intercept], "series0.coeffs": coeffs})
    return model


def ar_forecast(fit, history, steps: int) -> np.ndarray:
    """The ensemble's recursive forecasts for one series from one window."""
    window = np.asarray(history, dtype=np.float64)[None, None, :]
    return ar_ensemble(*fit).predict_windows(window, horizon=steps)[0, 0]


def test_ar_recovers_known_coefficient():
    # x_t = 0.7 x_{t-1} + eps; the phi estimate has sampling error of roughly
    # sqrt((1 - phi^2)/T) ~ 0.013 at T = 3000, independent of the noise scale
    T = 3000
    x = np.zeros(T)
    noise = GEN.normal(0, 0.1, T)
    for t in range(1, T):
        x[t] = 0.7 * x[t - 1] + noise[t]
    intercept, coeffs = fit_ar(x, 1)
    assert abs(coeffs[0] - 0.7) < 0.05
    assert abs(intercept) < 0.05


def test_ar_exact_on_noiseless_recursion():
    x = np.zeros(50)
    x[0], x[1] = 1.0, 0.5
    for t in range(2, 50):
        x[t] = 1.2 * x[t - 1] - 0.4 * x[t - 2]
    intercept, coeffs = fit_ar(x, 2)
    np.testing.assert_allclose(coeffs, [1.2, -0.4], atol=1e-7)
    np.testing.assert_allclose(intercept, 0.0, atol=1e-8)


def test_ar_constant_series_uses_intercept_only():
    fit = fit_ar(np.full(30, 5.0), 3)
    assert fit[0] == 5.0
    np.testing.assert_array_equal(fit[1], np.zeros(3))
    np.testing.assert_allclose(ar_forecast(fit, np.full(5, 5.0), 4), np.full(4, 5.0))


def test_ar_recursion_fixture():
    # phi=0.5, no intercept, start from history [2] -> 1, 0.5, 0.25
    np.testing.assert_allclose(ar_forecast((0.0, [0.5]), np.array([2.0]), 3), [1.0, 0.5, 0.25])


def test_ar_prediction_uses_most_recent_values_first():
    # coeff[0] weights the most recent observation
    np.testing.assert_allclose(ar_forecast((0.0, [1.0, 0.0]), np.array([5.0, 9.0]), 1), [9.0])


def test_ar_residual_orthogonality():
    # least squares leaves residuals orthogonal to every regressor column
    x = np.cumsum(GEN.normal(size=200)) + 10.0
    p = 3
    intercept, coeffs = fit_ar(x, p)
    design = np.column_stack([np.ones(200 - p)] +
                             [x[p - i - 1:200 - i - 1] for i in range(p)])
    coef = np.concatenate([[intercept], coeffs])
    resid = x[p:] - design @ coef
    np.testing.assert_allclose(design.T @ resid, np.zeros(p + 1), atol=1e-8)


def test_ar_rejects_exact_collinearity():
    # a two-cycle makes lag-1 and lag-3 columns identical
    x = np.tile([1.0, -1.0], 30)
    with pytest.raises(DataError, match="collinear"):
        fit_ar(x, 3)


def test_ar_validation():
    with pytest.raises(DomainError):
        fit_ar(np.arange(10.0), 0)
    with pytest.raises(DataError):
        fit_ar(np.arange(4.0), 5)
    ens = ar_ensemble(0.0, np.zeros(3))
    with pytest.raises(ShapeError, match="window of 2 steps is shorter than the model reads"):
        ens.predict_windows(np.zeros((1, 1, 2)))


def test_ar_ensemble_windows_and_round_trip(tmp_path):
    # both columns carry noise: a clean sinusoid satisfies an exact order-2
    # recurrence, which makes the order-5 lag design rank deficient
    values = np.column_stack([np.linspace(0, 8, 120) + GEN.normal(0, 0.05, 120),
                              np.sin(np.arange(120) / 5.0) + 3.0 + GEN.normal(0, 0.05, 120)])
    ens = fit_ar_ensemble(values, 5)
    x = np.stack([values[:30].T, values[30:60].T])  # [2, N, 30]
    pred = ens.predict_windows(x, horizon=2)
    assert pred.shape == (2, 2, 2)
    path = tmp_path / "ar.json"
    ens.save(path)
    loaded = type(ens).load(path)
    np.testing.assert_allclose(loaded.predict_windows(x, horizon=2), pred, atol=1e-12)


# -- VAR ----------------------------------------------------------------------------

def test_var_recovers_coupling_matrix():
    # x_t = A x_{t-1} + c + tiny noise; estimated coefficients match A
    n, rows = 3, 3000
    A = np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.3, 0.0, 0.2]])
    c = np.array([0.5, -0.2, 0.1])
    x = np.zeros((rows, n))
    for t in range(1, rows):
        x[t] = A @ x[t - 1] + c + GEN.normal(0, 1e-5, n)
    intercept, coef = fit_var(x, 1)
    # coef[0] right-multiplies the lag row: row m couples series m into targets
    np.testing.assert_allclose(coef[0], A.T, atol=1e-3)
    np.testing.assert_allclose(intercept, c, atol=1e-3)


def test_var_exact_on_deterministic_system():
    n, rows = 2, 40
    A = np.array([[0.6, 0.1], [-0.2, 0.5]])
    x = np.zeros((rows, n))
    x[0] = [1.0, -1.0]
    for t in range(1, rows):
        x[t] = A @ x[t - 1] + np.array([0.05, 0.1])
    intercept, coef = fit_var(x, 1)
    np.testing.assert_allclose(coef[0], A.T, atol=1e-9)
    np.testing.assert_allclose(intercept, [0.05, 0.1], atol=1e-9)


def test_var_validation():
    with pytest.raises(DataError):
        fit_var(np.ones((4, 2)), 5)
    with pytest.raises(DomainError):
        fit_var(np.ones((10, 2)), 0)


# fitter name -> a call fitting order 2 to [rows, 3] values
FITTERS = {
    "fit_ar": lambda values: fit_ar(values[:, 1], 2),
    "fit_ar_ensemble": lambda values: fit_ar_ensemble(values, 2),
    "fit_var": lambda values: fit_var(values, 2),
    "fit_var_mlp": lambda values: fit_var_mlp(values, 2, MlpSpec(hidden=4, epochs=2), Rng(0)),
}


@pytest.mark.parametrize("fitter", sorted(FITTERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_input_is_a_data_error_naming_the_first_cell(capfd, fitter, bad):
    values = np.cumsum(GEN.normal(0, 0.1, size=(60, 3)), axis=0)
    values[40, 0] = values[17, 1] = bad
    where = "row 17" if fitter == "fit_ar" else "row 17, series 1"
    with pytest.raises(DataError, match=f"^non-finite value {bad} at {where}$"):
        FITTERS[fitter](values)
    # the check comes before least squares, so LAPACK prints nothing either
    assert capfd.readouterr().err == ""


# -- VAR-MLP hybrid -------------------------------------------------------------------

@pytest.mark.parametrize("knob", [{"hidden": 0}, {"epochs": -1}], ids=["hidden", "epochs"])
def test_mlp_spec_checks_types_and_the_fit_checks_ranges(knob):
    # so `compare` records an out-of-range size under its model's errors
    spec = MlpSpec(**knob)
    with pytest.raises(ConfigError, match=next(iter(knob))):
        fit_var_mlp(np.cumsum(GEN.normal(size=(40, 2)), axis=0), 1, spec)
    with pytest.raises(ConfigError, match="hidden must be an integer"):
        MlpSpec(hidden=2.5)


@st.composite
def mlp_batches(draw):
    """(x [B, I], y [B, O], leaves w1 [I, H], b1 [H], w2 [H, O], b2 [O]).

    Every target lies at least 0.1 from the network's output, so the finite
    differences of the l1 loss never straddle its kink.
    """
    B, I, H, O = (draw(st.integers(1, 40)), draw(st.integers(1, 12)),
                  draw(st.integers(1, 8)), draw(st.integers(1, 6)))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    params = [Tensor(gen.normal(size=s) * 0.5, requires_grad=True)
              for s in ((I, H), (H,), (H, O), (O,))]
    w1, b1, w2, b2 = (p.data for p in params)
    x = gen.normal(size=(B, I))
    out = np.tanh(x @ w1 + b1) @ w2 + b2
    y = out + gen.choice([-1.0, 1.0], size=out.shape) * (0.1 + np.abs(gen.normal(size=out.shape)))
    return Tensor(x), Tensor(y), params


@settings(max_examples=60, deadline=None)
@given(mlp_batches())
def test_closed_form_mlp_gradients_are_the_tapes(case):
    x, y, params = case
    w1, b1, w2, b2 = params

    def loss_fn():
        return mean(abs_(add_bias(tanh(add_bias(x @ w1, b1, 1)) @ w2, b2, 1) - y))

    tape = Tape()
    with tape:
        loss = loss_fn()
    tape.backward(loss)
    closed = _mlp_l1_grads(x.data, y.data, *(p.data for p in params))
    for p, g in zip(params, closed):
        np.testing.assert_array_equal(g, p.grad)
    # the tape's gradients, equal to the closed form's, against central differences
    err = grad_check_params(loss_fn, params)
    assert err <= 1e-6, f"worst relative gradient error {err:.2e}"


def test_same_seed_hybrid_fits_are_bit_identical():
    values = np.cumsum(GEN.normal(0, 0.1, size=(150, 3)), axis=0)
    spec = MlpSpec(hidden=8, epochs=5)
    first, second = (fit_var_mlp(values, 2, spec, Rng(9)) for _ in range(2))
    assert np.any(first.w2.data != 0)
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(first, name).data, getattr(second, name).data)


def test_zero_epoch_hybrid_equals_pure_var():
    values = np.cumsum(GEN.normal(0, 0.1, size=(300, 3)), axis=0) + 20.0
    model = fit_var_mlp(values, var_order=2, spec=MlpSpec(epochs=0), rng=Rng(0))
    intercept, coef = fit_var(values, 2)

    hist = values[-10:]
    got = model.predict_windows(hist.T[None], horizon=3)[0].T
    with pytest.raises(ShapeError, match="window of 1 steps is shorter than the model reads"):
        model.predict_windows(hist[-1:].T[None])
    # reference recursion: pure VAR
    buf = hist.copy()
    expected = []
    for _ in range(3):
        lags = buf[-2:][::-1]  # most recent lag first
        step = intercept + np.tensordot(lags, coef, axes=([0, 1], [0, 1]))
        expected.append(step)
        buf = np.vstack([buf, step])
    np.testing.assert_allclose(got, np.array(expected), atol=1e-10)


def test_trained_hybrid_reduces_training_residuals():
    # nonlinear ground truth that a pure VAR cannot capture
    rows = 400
    x = np.zeros((rows, 2))
    x[0] = [0.3, -0.2]
    for t in range(1, rows):
        a, b = x[t - 1]
        x[t, 0] = 0.5 * a + 0.3 * np.tanh(b) + 0.01 * np.sin(t / 7.0)
        x[t, 1] = 0.4 * b - 0.2 * np.tanh(a)
    plain = fit_var_mlp(x, var_order=1, spec=MlpSpec(epochs=0), rng=Rng(1))
    tuned = fit_var_mlp(x, var_order=1,
                        spec=MlpSpec(hidden=16, epochs=60),
                        rng=Rng(1))

    windows = np.stack([x[t - 1:t].T for t in range(200, rows)])  # the order-1 lag of each step

    def one_step_mae(model):
        preds = model.predict_windows(windows)[:, :, 0]
        return np.abs(preds - x[200:]).mean()

    assert one_step_mae(tuned) < one_step_mae(plain)


def test_hybrid_round_trip(tmp_path):
    values = np.cumsum(GEN.normal(0, 0.1, size=(200, 2)), axis=0)
    model = fit_var_mlp(values, var_order=2, spec=MlpSpec(epochs=3), rng=Rng(2))
    x = np.stack([values[:20].T, values[20:40].T])
    pred = model.predict_windows(x, horizon=2)
    path = tmp_path / "hyb.json"
    model.save(path)
    loaded = VarMlpModel.load(path)
    np.testing.assert_array_equal(loaded.predict_windows(x, horizon=2), pred)


# -- GRU --------------------------------------------------------------------------------

def zero_gru_params(inp, hid):
    def zt(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)
    return dict(w_z=zt(inp, hid), u_z=zt(hid, hid), b_z=zt(hid),
                w_r=zt(inp, hid), u_r=zt(hid, hid), b_r=zt(hid),
                w_h=zt(inp, hid), u_h=zt(hid, hid), b_h=zt(hid))


def test_gru_all_zero_params_halve_the_initial_state():
    # z = sigmoid(0) = 0.5 and the candidate is tanh(0) = 0, so h' = 0.5 h
    params = zero_gru_params(2, 3)
    h0 = Tensor(GEN.normal(size=(4, 3)))
    x = Tensor(GEN.normal(size=(4, 2, 1)))
    out = gru_sequence(x, h0, **params)
    np.testing.assert_allclose(out.data[:, :, 0], 0.5 * h0.data, atol=1e-12)


def test_gru_state_envelope():
    # each new state coordinate lies between the previous state and the
    # candidate, both bounded by 1 in magnitude after enough steps
    params = zero_gru_params(1, 2)
    for p in list(params.values()):
        p.data = GEN.normal(size=p.data.shape) * 0.5
    states = gru_sequence(Tensor(GEN.normal(size=(1, 1, 30))), Tensor(np.zeros((1, 2))), **params)
    assert np.all(np.abs(states.data) <= 1.0)


def test_gru_three_step_gradients():
    params = zero_gru_params(2, 3)
    for p in list(params.values()):
        p.data = GEN.normal(size=p.data.shape) * 0.4
    x = Tensor(GEN.normal(size=(2, 2, 3)))
    h0 = Tensor(np.tanh(GEN.normal(size=(2, 3))), requires_grad=True)

    def loss_fn():
        return mean(abs_(last_step(gru_sequence(x, h0, **params))))

    err = grad_check_params(loss_fn, [h0, *params.values()], eps=1e-5)
    assert err <= 1e-4, f"worst relative gradient error {err:.2e}"


def test_gru_model_shapes_and_determinism():
    model = GruModel(GruConfig(num_series=3, hidden_size=8, horizon=2), Rng(3))
    x = GEN.normal(size=(5, 3, 10))
    out = model.forward_batch(x).data
    assert out.shape == (5, 3, 2)
    np.testing.assert_array_equal(out, model.forward_batch(x).data)
    model.predict_chunk = 2
    np.testing.assert_allclose(model.predict_windows(x), out, atol=1e-12)


def test_gru_round_trip(tmp_path):
    model = GruModel(GruConfig(num_series=2, hidden_size=4), Rng(4))
    x = GEN.normal(size=(3, 2, 6))
    pred = model.predict_windows(x)
    path = tmp_path / "gru.json"
    model.save(path)
    loaded = GruModel.load(path)
    np.testing.assert_array_equal(loaded.predict_windows(x), pred)


# -- TCN --------------------------------------------------------------------------------

def test_tcn_receptive_field_formula():
    cfg = TcnConfig(channels=4, kernel_size=2, num_blocks=3)
    assert [blk["dilation"] for blk in TcnModel(cfg, Rng(0)).blocks] == [1, 2, 4]
    assert cfg.receptive_field == 8
    assert TcnConfig(channels=4, kernel_size=3, num_blocks=2).receptive_field == 7


def test_tcn_causality():
    model = TcnModel(TcnConfig(channels=4, num_blocks=2), Rng(5))
    x0 = GEN.normal(size=(1, 2, 12))
    base = model.forward_batch(x0).data
    x1 = x0.copy()
    x1[..., -1] += 100.0
    assert not np.allclose(model.forward_batch(x1).data, base)
    # the receptive field is the last 4 of the 12 steps, so older ones do not count
    x2 = x0.copy()
    x2[..., :3] += 100.0
    np.testing.assert_array_equal(model.forward_batch(x2).data, base)


def test_tcn_window_shorter_than_receptive_field_rejected():
    model = TcnModel(TcnConfig(channels=4, num_blocks=3), Rng(6))
    with pytest.raises(ShapeError, match="window of 7 steps is shorter than the model reads"):
        model.forward_batch(GEN.normal(size=(1, 2, 7)))
    # the message names the window's steps, so a field of thousands of digits is never formatted
    deep = TcnModel(TcnConfig(channels=1, num_blocks=15000), Rng(0))
    with pytest.raises(ShapeError, match="window of 8 steps is shorter than the model reads"):
        deep.predict_windows(np.zeros((1, 2, 8)))


def test_tcn_shapes_and_round_trip(tmp_path):
    model = TcnModel(TcnConfig(channels=4, num_blocks=2, horizon=2), Rng(7))
    x = GEN.normal(size=(4, 3, 9))
    out = model.forward_batch(x).data
    assert out.shape == (4, 3, 2)
    path = tmp_path / "tcn.json"
    model.save(path)
    loaded = TcnModel.load(path)
    np.testing.assert_array_equal(loaded.predict_windows(x), out)


# -- persistence baseline ------------------------------------------------------------------

def test_persistence_repeats_last_value():
    x = GEN.normal(size=(3, 2, 5))
    pred = PersistenceModel().predict_windows(x, horizon=3)
    assert pred.shape == (3, 2, 3)
    for q in range(3):
        np.testing.assert_array_equal(pred[:, :, q], x[:, :, -1])
    with pytest.raises(ShapeError):
        PersistenceModel().predict_windows(x[0])


# -- every model kind -----------------------------------------------------------------------

def fitted(kind: str):
    """A small model of `kind` over 3 series that forecasts one step of 8-step windows."""
    values = np.cumsum(np.random.default_rng(9).normal(size=(120, 3)), axis=0)
    if kind == "persistence":
        return PersistenceModel()
    if kind == "ar":
        return fit_ar_ensemble(values, 2)
    if kind == "var_mlp":
        return fit_var_mlp(values, 2, MlpSpec(hidden=4, epochs=1), Rng(0))
    if kind == "gru":
        return GruModel(GruConfig(num_series=3, hidden_size=4), Rng(0))
    if kind == "tcn":
        return TcnModel(TcnConfig(channels=3, num_blocks=2), Rng(0))
    return MtgnnModel(MtgnnConfig(num_nodes=3, num_layers=2, conv_channels=4, residual_channels=4,
                                  skip_channels=4, embedding_dim=3, input_window=8, k=2), Rng(0))


KINDS = ("persistence", "ar", "var_mlp", "gru", "tcn", "mtgnn")


@pytest.mark.parametrize("kind", KINDS)
def test_window_shapes_are_checked_and_zero_windows_forecast_nothing(kind):
    model = fitted(kind)
    assert model.predict_windows(np.zeros((0, 3, 8))).shape == (0, 3, 1)
    assert model.predict_windows(GEN.normal(size=(2, 3, 8))).shape == (2, 3, 1)
    for rank in ((3, 8), (2, 1, 3, 8)):
        with pytest.raises(ShapeError):
            model.predict_windows(np.zeros(rank))
    if kind not in ("persistence", "tcn"):  # the two that any series count fits
        for windows in (2, 0):
            with pytest.raises(ShapeError, match="3"):
                model.predict_windows(np.zeros((windows, 4, 8)))
    for value in (np.nan, np.inf, -np.inf):
        for step in (0, -1):
            x = GEN.normal(size=(2, 3, 8))
            x[1, 2, step] = value
            with pytest.raises(DataError, match="non-finite value"):
                model.predict_windows(x)
    # the steps each kind reads: the AR order, or the TCN's and MTGNN's receptive field
    reads = {"persistence": 1, "ar": 2, "var_mlp": 2, "gru": 1, "tcn": 4, "mtgnn": 4}[kind]
    for windows in (2, 0):
        with pytest.raises(ShapeError, match="shorter than the model reads"):
            model.predict_windows(GEN.normal(size=(windows, 3, reads - 1)))
