"""Self-describing JSON checkpoint container shared by every model kind, and
the parameter-registry base of the gradient-trained models."""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Rng, Tensor, reshape
from .errors import ConfigError, DataError, ShapeError

FORMAT_VERSION = 2


@dataclass(frozen=True)
class Checkpoint:
    kind: str
    config: dict
    params: dict[str, np.ndarray]
    extra: dict


def save_checkpoint(path, kind: str, config: dict,
                    params: dict[str, np.ndarray], extra: dict | None = None) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "params": {
            name: {"shape": list(arr.shape), "data": np.asarray(arr, dtype=np.float64).reshape(-1).tolist()}
            for name, arr in params.items()
        },
        "extra": extra or {},
    }
    # Write beside the target, then swap it in, so a failed write never
    # leaves a truncated file in place of a good checkpoint.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a valid checkpoint: top level is not an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format_version {version!r} (expected {FORMAT_VERSION})")
    for key in ("kind", "config", "params"):
        if key not in doc:
            raise DataError(f"{path}: checkpoint missing {key!r} field")
    if not isinstance(doc["params"], dict):
        raise DataError(f"{path}: checkpoint 'params' field is not an object")
    params = {}
    for name, entry in doc["params"].items():
        try:
            params[name] = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed checkpoint parameter {name!r}: "
                            f"{type(exc).__name__}: {exc}") from None
    return Checkpoint(kind=doc["kind"], config=doc["config"], params=params,
                      extra=doc.get("extra", {}))


def _check_kind(ckpt: Checkpoint, path, kind: str) -> None:
    if ckpt.kind != kind:
        raise ConfigError(f"{path}: checkpoint holds a {ckpt.kind!r} model, not {kind}")


def _check_state(state: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """ShapeError unless `state` holds exactly the named parameters at these shapes."""
    missing = set(shapes) - set(state)
    surplus = set(state) - set(shapes)
    if missing or surplus:
        raise ShapeError(f"parameter names do not match (missing {sorted(missing)}, surplus {sorted(surplus)})")
    for name, shape in shapes.items():
        if np.shape(state[name]) != tuple(shape):
            raise ShapeError(f"{name}: shape {np.shape(state[name])} does not match {tuple(shape)}")


def load_exact(path, kind: str, keys: tuple[str, ...], shapes_of) -> Checkpoint:
    """A `kind` checkpoint whose config is exactly `keys`, each a positive int,
    and whose parameters are exactly `shapes_of(*those ints)`: {name: shape}."""
    ckpt = load_checkpoint(path)
    _check_kind(ckpt, path, kind)
    config = ckpt.config
    if (not isinstance(config, dict) or set(config) != set(keys)
            or not all(type(config[k]) is int and config[k] > 0 for k in keys)):
        raise DataError(f"{path}: unusable {kind} checkpoint config {config!r}: "
                        f"needs exactly {', '.join(keys)}, each a positive integer")
    try:
        _check_state(ckpt.params, shapes_of(*(config[k] for k in keys)))
    except ShapeError as exc:
        raise DataError(f"{path}: {exc}") from None
    return ckpt


class NeuralModel:
    """Named parameters, strict state loading, chunked prediction and
    checkpoint save/load for the gradient-trained models.

    A subclass sets `kind`, `config_class` (a dataclass with a `horizon`
    field) and `predict_chunk`, takes `(config, rng)` in its constructor,
    registers every learnable tensor while building itself, and defines
    `forward_batch(x, training, rng, collect)`, which appends the per-layer
    states worth inspecting to `collect` when it is a list.
    """

    kind: str
    config_class: type
    predict_chunk = 256

    def __init__(self, config):
        self.config = config
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, t: Tensor) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self._params[name] = t
        return t

    def weight(self, init: Rng, name: str, shape, fan_in: int) -> Tensor:
        """A N(0, 1/fan_in) draw from `init`, registered under `name`."""
        return self.register(name, Tensor(init.normal(shape, 1.0 / np.sqrt(fan_in)),
                                          requires_grad=True))

    def bias(self, name: str, width: int) -> Tensor:
        return self.register(name, Tensor(np.zeros(width), requires_grad=True))

    def parameters(self) -> list[Tensor]:
        return list(self._params.values())

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        _check_state(state, {name: t.data.shape for name, t in self._params.items()})
        for name, t in self._params.items():
            t.data = np.array(state[name], dtype=np.float64)

    def predict_windows(self, x: np.ndarray, horizon: int | None = None,
                        chunk: int | None = None) -> np.ndarray:
        """Eval-mode predictions for stacked windows [B, N, P] -> [B, N, Q]."""
        if horizon is not None and horizon != self.config.horizon:
            raise ShapeError(f"model predicts {self.config.horizon} step(s), {horizon} requested")
        x = np.asarray(x, dtype=np.float64)
        chunk = chunk or self.predict_chunk
        parts = [self.forward_batch(x[i:i + chunk]).data for i in range(0, x.shape[0], chunk)]
        return np.concatenate(parts, axis=0)

    def temporal_features(self, x) -> list[np.ndarray]:
        """Eval-mode per-layer states for [N, P] or [B, N, P] input, for causality inspection."""
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        if x.ndim == 2:
            x = reshape(x, (1, x.shape[0], x.shape[1]))
        collected: list[Tensor] = []
        self.forward_batch(x, collect=collected)
        return [t.data.copy() for t in collected]

    def save(self, path, extra: dict | None = None) -> None:
        save_checkpoint(path, kind=self.kind, config=asdict(self.config),
                        params=self.state_dict(), extra=extra)

    @classmethod
    def load(cls, path):
        return cls.from_checkpoint(load_checkpoint(path), path)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, path):
        """Rebuild a model from a parsed checkpoint; `path` names it in errors."""
        _check_kind(ckpt, path, cls.kind)
        try:
            config = cls.config_class(**ckpt.config)
        except (TypeError, ConfigError) as exc:
            raise DataError(f"{path}: unusable {cls.kind} checkpoint config: {exc}") from None
        model = cls(config, Rng(0))
        try:
            model.load_state_dict(ckpt.params)
        except ShapeError as exc:
            raise DataError(f"{path}: {exc}") from None
        return model
