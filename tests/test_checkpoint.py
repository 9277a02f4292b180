"""Checkpoints of every saved model kind: metadata, malformed files, features."""
import json

import numpy as np
import pytest

from marketgraph import (
    ConfigError, DataError, GruModel, MtgnnConfig, MtgnnModel, Rng, TcnModel,
    fit_ar_ensemble, fit_var_mlp,
)
from marketgraph.baselines import ArEnsemble, GruConfig, MlpSpec, TcnConfig, VarMlpModel

GEN = np.random.default_rng(53)

# (model class, config, input windows [B, N, P]) per kind
KINDS = {
    "gru": (GruModel, GruConfig(num_series=3, hidden_size=4, horizon=2), (2, 3, 6)),
    "tcn": (TcnModel, TcnConfig(channels=4, num_blocks=2, horizon=2), (2, 3, 6)),
    "mtgnn": (MtgnnModel, MtgnnConfig(num_nodes=3, num_layers=2, conv_channels=4,
                                      residual_channels=4, skip_channels=6, embedding_dim=4,
                                      dropout=0.0, input_window=6, horizon=2, k=2), (2, 3, 6)),
}
PANEL = np.cumsum(GEN.normal(size=(80, 3)), axis=0)
# (model class, a function building a small model) for every kind with a checkpoint
MODELS = {kind: (cls, lambda cls=cls, config=config: cls(config, Rng(1)))
          for kind, (cls, config, _) in KINDS.items()}
MODELS["ar"] = (ArEnsemble, lambda: fit_ar_ensemble(PANEL, 2))
MODELS["var_mlp"] = (VarMlpModel, lambda: fit_var_mlp(PANEL, 2, MlpSpec(hidden=4, epochs=0), Rng(0)))
PLAIN = ("ar", "var_mlp")
# MODELS, but with the hybrid trained, so its output layer is no longer all zero
TRAINED = {**{kind: build for kind, (_, build) in MODELS.items()},
           "var_mlp": lambda: fit_var_mlp(PANEL, 2, MlpSpec(hidden=4, epochs=3), Rng(0))}


def saved_doc(tmp_path, kind):
    cls, build = MODELS[kind]
    path = tmp_path / f"{kind}.json"
    build().save(path)
    return cls, path, json.loads(path.read_text(encoding="utf-8"))


def rewrite(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_writes_extra_metadata(tmp_path, kind):
    cls, config, _ = KINDS[kind]
    path = tmp_path / "model.json"
    cls(config, Rng(3)).save(path, extra={"labels": ["a", "b", "c"]})
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["kind"] == kind
    assert doc["extra"] == {"labels": ["a", "b", "c"]}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_missing_parameter_is_a_data_error(tmp_path, kind):
    cls, path, doc = saved_doc(tmp_path, kind)
    name = list(doc["params"])[-1]  # series2.coeffs for ar, mlp.b2 for var_mlp
    del doc["params"][name]
    with pytest.raises(DataError, match=rf"{path.name}.*{name}"):
        cls.load(rewrite(path, doc))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_surplus_parameter_is_a_data_error(tmp_path, kind):
    cls, path, doc = saved_doc(tmp_path, kind)
    doc["params"]["stray.w"] = {"shape": [1], "data": [0.0]}
    with pytest.raises(DataError, match=rf"{path.name}.*stray\.w"):
        cls.load(rewrite(path, doc))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_wrong_parameter_shape_is_a_data_error(tmp_path, kind):
    cls, path, doc = saved_doc(tmp_path, kind)
    name = list(doc["params"])[0]
    doc["params"][name]["shape"].append(1)
    with pytest.raises(DataError, match=rf"{path.name}.*{name}"):
        cls.load(rewrite(path, doc))


@pytest.mark.parametrize("kind", PLAIN)
@pytest.mark.parametrize("edit,key", [
    (lambda c: c.pop("order"), "order"), (lambda c: c.pop("num_series"), "num_series"),
    (lambda c: c.update(order="2"), "order"), (lambda c: c.update(num_series=0), "num_series"),
    (lambda c: c.update(order=True), "order"), (lambda c: c.update(bogus=1), "bogus"),
], ids=["no_order", "no_num_series", "str_order", "zero_series", "bool_order", "unknown_key"])
def test_plain_unusable_config_is_a_data_error(tmp_path, kind, edit, key):
    cls, path, doc = saved_doc(tmp_path, kind)
    edit(doc["config"])
    with pytest.raises(DataError, match=rf"{path.name}.*{key}"):
        cls.load(rewrite(path, doc))
    doc["config"] = [2, 3]
    with pytest.raises(DataError, match=path.name):
        cls.load(rewrite(path, doc))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("config", [{"bogus": 1}, [1, 2], "gru", {"horizon": "two"}],
                         ids=["unknown_key", "list", "string", "bad_value"])
def test_unusable_config_is_a_data_error_naming_the_path(tmp_path, kind, config):
    cls, path, doc = saved_doc(tmp_path, kind)
    if isinstance(config, dict):
        config = {**doc["config"], **config}
    doc["config"] = config
    with pytest.raises(DataError, match=path.name):
        cls.load(rewrite(path, doc))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_round_trip_forecasts_are_bit_identical(tmp_path, kind):
    cls, _ = MODELS[kind]
    model = TRAINED[kind]()
    if kind == "var_mlp":
        assert np.any(model.w2.data != 0)
    x = GEN.normal(size=(5, 3, 6))
    path = tmp_path / f"{kind}.json"
    model.save(path)
    np.testing.assert_array_equal(cls.load(path).predict_windows(x, horizon=2),
                                  model.predict_windows(x, horizon=2))


def test_checkpoint_of_another_kind_is_rejected(tmp_path):
    _, path, _ = saved_doc(tmp_path, "gru")
    with pytest.raises(ConfigError, match="'gru'"):
        TcnModel.load(path)
    _, path, _ = saved_doc(tmp_path, "ar")
    with pytest.raises(ConfigError, match="'ar'"):
        VarMlpModel.load(path)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_temporal_features_ignore_later_inputs(kind):
    cls, config, shape = KINDS[kind]
    model = cls(config, Rng(4))
    x = GEN.normal(size=shape)
    moved = x.copy()
    moved[..., 4:] += 100.0
    clean, bumped = model.temporal_features(x), model.temporal_features(moved)
    assert len(clean) == len(bumped) > 0
    for a, b in zip(clean, bumped):
        assert a.shape[-1] == shape[2]
        np.testing.assert_array_equal(a[..., :4], b[..., :4])
        assert not np.array_equal(a[..., 4:], b[..., 4:])

