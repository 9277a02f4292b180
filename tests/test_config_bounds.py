"""The bound of every config field, at its edges: the last value accepted and
the first refused on each side, plus NaN and the infinities for float rates."""
import math
import sys
from dataclasses import fields
from datetime import date

import pytest

from marketgraph import ConfigError
from marketgraph.errors import check_fields
from marketgraph.baselines import ArConfig, GruConfig, MlpSpec, TcnConfig, VarMlpConfig
from marketgraph.data import RebaseRule, SplitSpec, WindowSpec
from marketgraph.mtgnn import MtgnnConfig
from marketgraph.training import ComparisonSpec, TrainConfig

TINY, BIG, NAN, INF = math.ulp(0.0), sys.float_info.max, math.nan, math.inf
BELOW_1, ABOVE_1 = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
SIZE = ([1], [0])  # a count that must be positive

# (class, the other arguments it needs, field, accepted values, refused values)
BOUNDS = [
    (MtgnnConfig, {"num_nodes": 3}, "num_nodes", [2], [1]),
    *((MtgnnConfig, {"num_nodes": 3}, name, *SIZE)
      for name in ("num_layers", "conv_channels", "residual_channels", "skip_channels",
                   "embedding_dim", "horizon")),
    # one layer of width 2 reads 2 steps, so a 1-step window is too short for any model
    (MtgnnConfig, {"num_nodes": 3, "num_layers": 1}, "input_window", [2], [1, 0]),
    (MtgnnConfig, {"num_nodes": 3}, "dropout", [0, 0.0, BELOW_1], [1, -TINY, NAN, INF, -INF]),
    (MtgnnConfig, {"num_nodes": 3}, "gc_depth", [0], [-1]),
    (MtgnnConfig, {"num_nodes": 3}, "retain_ratio", [0, 1.0], [-TINY, ABOVE_1, NAN, INF, -INF]),
    (MtgnnConfig, {"num_nodes": 3}, "kernel_size", [2], [1]),
    (MtgnnConfig, {"num_nodes": 3}, "alpha", [TINY, BIG], [0, -TINY, NAN, INF, -INF]),
    (TrainConfig, {}, "epochs", [0], [-1]),
    (TrainConfig, {}, "batch_size", *SIZE),
    (TrainConfig, {}, "learning_rate", [TINY, BIG], [0, -TINY, NAN, INF, -INF]),
    (TrainConfig, {}, "l2_coefficient", [0, BIG], [-TINY, NAN, INF, -INF]),
    (TrainConfig, {}, "seed", [0], [-1]),
    (TrainConfig, {}, "loss", ["l1"], ["l2", "L1", " l1"]),
    (ArConfig, {"order": 1, "num_series": 1}, "order", *SIZE),
    (ArConfig, {"order": 1, "num_series": 1}, "num_series", *SIZE),
    *((VarMlpConfig, {"order": 1, "num_series": 1, "hidden": 1}, name, *SIZE)
      for name in ("order", "num_series", "hidden")),
    *((GruConfig, {"num_series": 1}, name, *SIZE) for name in ("num_series", "hidden_size", "horizon")),
    *((TcnConfig, {}, name, *SIZE) for name in ("channels", "num_blocks", "horizon")),
    (TcnConfig, {}, "kernel_size", [2], [1]),
    # the other two fractions sum to 1, and 1 + TINY rounds to 1
    *((SplitSpec, {"train": 0.5, "validation": 0.5, "test": 0.5}, name, [TINY], [0, -TINY])
      for name in ("train", "validation", "test")),
    (WindowSpec, {}, "P", *SIZE),
    (WindowSpec, {}, "Q", *SIZE),
    (RebaseRule, {"column": "us", "cutoff": date(2020, 1, 1)}, "divisor", [TINY, BIG],
     [0, -TINY, NAN, INF, -INF]),
]
IDS = [f"{cls.__name__}.{name}" for cls, _, name, _, _ in BOUNDS]
# Bounds that construction leaves to the comparison's builder of each model,
# so `compare` records an out-of-range knob under that model alone.
DEFERRED = [
    *((ComparisonSpec, {}, name, *SIZE)
      for name in ("ar_order", "var_order", "gru_hidden", "tcn_channels", "tcn_blocks")),
    (MlpSpec, {}, "hidden", *SIZE),
    (MlpSpec, {}, "epochs", [0], [-1]),
]


@pytest.mark.parametrize("cls, others, name, accepted, refused", BOUNDS, ids=IDS)
def test_each_bound_accepts_and_refuses_at_its_edges(cls, others, name, accepted, refused):
    for value in accepted:
        assert getattr(cls(**{**others, name: value}), name) == value
    for value in refused:
        with pytest.raises(ConfigError):
            cls(**{**others, name: value})


@pytest.mark.parametrize("cls, others, name, accepted, refused", DEFERRED,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name, _, _ in DEFERRED])
def test_each_deferred_bound_is_declared_but_not_checked_at_construction(cls, others, name,
                                                                          accepted, refused):
    for value in accepted + refused:
        assert getattr(cls(**{**others, name: value}), name) == value
    for value in accepted:
        check_fields(cls, {name: value})
    wanted = cls.__dataclass_fields__[name].metadata["bound"][0]
    for value in refused:
        with pytest.raises(ConfigError, match=f"^{name} must be {wanted}, got {value}$"):
            check_fields(cls, {name: value})


def test_the_table_lists_every_bounded_field():
    classes = {MtgnnConfig, TrainConfig, ComparisonSpec, ArConfig, VarMlpConfig, GruConfig,
               TcnConfig, MlpSpec, SplitSpec, WindowSpec, RebaseRule}
    bounded = {(cls, f.name) for cls in classes for f in fields(cls) if "bound" in f.metadata}
    assert bounded == {(cls, name) for cls, _, name, _, _ in BOUNDS + DEFERRED}


def test_a_nan_split_fraction_is_refused():
    # No comparison with NaN holds, so the sum check alone would let it through.
    with pytest.raises(ConfigError, match="^train must be positive, got nan$"):
        SplitSpec(train=NAN, validation=0.2, test=0.2)
