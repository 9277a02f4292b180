"""Self-describing JSON checkpoint container shared by every model kind."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

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
