"""Self-describing JSON checkpoint container shared by every model kind, and
the model base that saves and loads it."""
from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor
from .data import atomic_write, window_array
from .errors import ConfigError, DataError, ShapeError
from .rng import Rng

FORMAT_VERSION = 3


@dataclass(frozen=True)
class Checkpoint:
    kind: str
    config: dict
    params: dict[str, np.ndarray]
    extra: dict


def save_checkpoint(path, kind: str, config: dict,
                    params: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Write one JSON document; each parameter's `data` is the base64 text of
    its little-endian float64 bytes in C order."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "params": {
            name: {"shape": list(arr.shape),
                   "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")}
            for name, arr in params.items()
        },
        "extra": extra or {},
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc))


def load_checkpoint(path) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a valid checkpoint: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except RecursionError:
            raise DataError(f"{path}: not a valid checkpoint: nested too deeply") from None
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
            shape = entry["shape"]
            if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
                raise ValueError(f"shape must be a list of nonnegative integers, got {shape!r}")
            raw = base64.b64decode(entry["data"], validate=True)
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise DataError(f"{path}: malformed checkpoint parameter {name!r}: "
                            f"{type(exc).__name__}: {exc}") from None
        if not np.all(np.isfinite(params[name])):
            raise DataError(f"{path}: checkpoint parameter {name!r} holds a non-finite value")
    return Checkpoint(kind=doc["kind"], config=doc["config"], params=params,
                      extra=doc.get("extra", {}))


class Model:
    """Named parameters, strict state loading and checkpoint save/load: the
    base of every model kind with a checkpoint.

    A subclass sets `kind` and `config_class` (a dataclass whose fields are
    the checkpoint's `config`), takes `(config, rng)` in its constructor and
    makes every parameter with `weight` or `bias`, in checkpoint order;
    `from_checkpoint` checks each against the file before its array is made.
    """

    kind: str
    config_class: type
    _saved: dict | None = None  # the file's parameters while `from_checkpoint` builds the model

    def __init__(self, config):
        self.config = config
        self._params: dict[str, Tensor] = {}

    def _claim(self, name: str, shape) -> tuple:
        """`shape` as a tuple, once `name` is checked against this model and the file it loads."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if self._saved is not None and name not in self._saved:
            raise ShapeError(f"{name}: not in the checkpoint")
        if self._saved is not None and np.shape(self._saved[name]) != shape:
            raise ShapeError(f"{name}: shape {np.shape(self._saved[name])} does not match {shape}")
        return shape

    def weight(self, init: Rng, name: str, shape: tuple, fan_in: int) -> Tensor:
        """A N(0, 1/fan_in) draw from `init` under `name`; zeros while
        `from_checkpoint` builds the model, since the file's values replace
        them."""
        shape = self._claim(name, shape)
        data = np.zeros(shape) if self._saved is not None else init.normal(shape, 1.0 / np.sqrt(fan_in))
        t = self._params[name] = Tensor(data, requires_grad=True)
        return t

    def bias(self, name: str, shape) -> Tensor:
        t = self._params[name] = Tensor(np.zeros(self._claim(name, shape)), requires_grad=True)
        return t

    def parameters(self) -> list[Tensor]:
        return list(self._params.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """ShapeError unless `state` holds exactly this model's parameters at their shapes."""
        missing, surplus = set(self._params) - set(state), set(state) - set(self._params)
        if missing or surplus:
            raise ShapeError(f"parameter names do not match (missing {sorted(missing)}, surplus {sorted(surplus)})")
        for name, t in self._params.items():
            if np.shape(state[name]) != t.data.shape:
                raise ShapeError(f"{name}: shape {np.shape(state[name])} does not match {t.data.shape}")
        for name, t in self._params.items():
            t.data[...] = state[name]

    def save(self, path, extra: dict | None = None) -> None:
        save_checkpoint(path, kind=self.kind, config=asdict(self.config),
                        params=self.state_dict(), extra=extra)

    @classmethod
    def load(cls, path):
        return cls.from_checkpoint(load_checkpoint(path), path)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, path):
        """Rebuild a model from a parsed checkpoint; `path` names it in errors."""
        if ckpt.kind != cls.kind:
            raise ConfigError(f"{path}: checkpoint holds a {ckpt.kind!r} model, not {cls.kind}")
        try:
            config = cls.config_class(**ckpt.config)
        except (TypeError, ConfigError) as exc:
            raise DataError(f"{path}: unusable {cls.kind} checkpoint config: {exc}") from None
        model = cls.__new__(cls)
        model._saved = ckpt.params
        try:
            model.__init__(config, Rng(0))
            model.load_state_dict(ckpt.params)
        except ShapeError as exc:
            raise DataError(f"{path}: {exc}") from None
        del model._saved
        return model


class NeuralModel(Model):
    """The gradient-trained models: chunked prediction and per-layer features.

    A subclass also sets `predict_chunk` and a `horizon` field in its config,
    and defines `forward_batch(x, rng=None, collect=None)`: an `rng` means
    training, and the per-layer states worth inspecting go to `collect`.
    """

    predict_chunk = 256

    def predict_windows(self, x: np.ndarray, horizon: int | None = None) -> np.ndarray:
        """Eval-mode predictions for stacked windows [B, N, P] -> [B, N, Q],
        `predict_chunk` windows per forward pass."""
        if horizon is not None and horizon != self.config.horizon:
            raise ShapeError(f"model predicts {self.config.horizon} step(s), {horizon} requested")
        x = window_array(x)
        if len(x) == 0:  # one window of zeros meets the same series and length check
            return self.forward_batch(np.zeros((1, *x.shape[1:]))).data[:0]
        chunk = self.predict_chunk
        parts = [self.forward_batch(x[i:i + chunk]).data for i in range(0, x.shape[0], chunk)]
        return np.concatenate(parts, axis=0)

    def temporal_features(self, x) -> list[np.ndarray]:
        """Eval-mode per-layer states for [B, N, P] input, for causality inspection."""
        collected: list[Tensor] = []
        self.forward_batch(x, collect=collected)
        return [t.data.copy() for t in collected]
