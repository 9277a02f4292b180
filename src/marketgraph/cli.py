"""Command-line front end: analyze, train, compare, influence, forecast.

Full runs are driven by a JSON config document rather than a pile of flags,
so a run is reproducible from one file; flags cover paths and small
overrides only. Every artifact is written through `data.atomic_write` and
echoed to stdout as a manifest line. Exit codes: 0 success, 1 runtime/model
failure, 2 usage/config error or an unusable input path or checkpoint.

Each command imports the modules it runs when it runs, so neither `influence`
nor `analyze` without `--config` loads the autodiff core or any model.
`analyze --config` checks the whole run document, as `train` and `compare`
do, and so loads them.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import date
from pathlib import Path

import numpy as np

from .data import (
    NormStats, PipelineResult, RebaseRule, SplitSpec, WindowSpec, apply_rebase_rules,
    atomic_write, csv_text, descriptive_stats, invert_predictions, load_csv,
    log_transform, make_windows, matrix_csv, normalize, run_pipeline, trace_csv,
)
from .errors import ConfigError, DataError, MarketGraphError, ShapeError, check_fields

_DOC_KEYS = {"dataset", "seed", "split", "window", "rebase", "train", "model", "baselines"}


@dataclass
class RunConfig:
    """The validated JSON run document; `spec` holds its seed and its train,
    model and baselines sections."""

    dataset: str | None
    split: SplitSpec
    window: WindowSpec
    rebase: tuple[RebaseRule, ...]
    spec: ComparisonSpec


def _object(where: str, given, allowed: set[str]) -> dict:
    """`given`, which must be a JSON object holding only `allowed` keys."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be an object, got {given!r}")
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    return given


def _section(where: str, given, cls, skip=(), bounds=True) -> dict:
    """`given`, which must be a JSON object holding only fields of the
    dataclass `cls` (less `skip`), each of its declared type and, if
    `bounds`, within its declared bound."""
    _object(where, given, {f.name for f in fields(cls)} - set(skip))
    check_fields(cls, given, f"{where}.", bounds)
    return given


def _not_a_number(name: str):
    raise ConfigError(f"{name} is not a JSON number")


def parse_run_config(path) -> RunConfig:
    """The run document at `path`; every problem with it is a ConfigError."""
    from .baselines import MlpSpec
    from .mtgnn import MtgnnConfig
    from .training import ComparisonSpec, TrainConfig

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_not_a_number)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an integer too long to read
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    _object("config", doc, _DOC_KEYS)
    check_fields(RunConfig, doc, "config.")
    split_doc = _section("split", doc.get("split", {}), SplitSpec)
    window_doc = _section("window", doc.get("window", {}), WindowSpec)
    train_doc = _section("train", doc.get("train", {}), TrainConfig, skip=("seed",))
    # The data fixes the node count and the window fixes the model's input
    # and horizon, so the document cannot set them. Their ranges are checked
    # when the model is built, so `compare` records a bad one for mtgnn alone.
    model_doc = _section("model", doc.get("model", {}), MtgnnConfig,
                         skip=("num_nodes", "input_window", "horizon"), bounds=False)
    # The scalar knobs of ComparisonSpec, with MlpSpec's fields under an "mlp_"
    # prefix; the other sections of the document set its train and mtgnn fields.
    baseline_keys = ({f.name for f in fields(ComparisonSpec)} - {"train", "mlp", "mtgnn"}
                     | {f"mlp_{f.name}" for f in fields(MlpSpec)})
    baselines_doc = _object("baselines", doc.get("baselines", {}), baseline_keys)

    mlp_doc = {k[len("mlp_"):]: v for k, v in baselines_doc.items() if k.startswith("mlp_")}
    knobs = {k: v for k, v in baselines_doc.items() if not k.startswith("mlp_")}
    check_fields(MlpSpec, mlp_doc, "baselines.mlp_", bounds=False)
    check_fields(ComparisonSpec, knobs, "baselines.", bounds=False)
    try:
        return RunConfig(
            dataset=doc.get("dataset"),
            split=SplitSpec(**split_doc),
            window=WindowSpec(**window_doc),
            rebase=_rebase_rules(doc.get("rebase", [])),
            spec=ComparisonSpec(train=TrainConfig(seed=doc.get("seed", 0), **train_doc),
                                mlp=MlpSpec(**mlp_doc), mtgnn=dict(model_doc), **knobs),
        )
    except OverflowError as exc:  # a number too large for a float
        raise ConfigError(f"{path}: {exc}") from None


def _rebase_rules(doc) -> tuple[RebaseRule, ...]:
    if not isinstance(doc, list):
        raise ConfigError(f"rebase must be a list of objects, got {doc!r}")
    rules = []
    for i, entry in enumerate(doc):
        where = f"rebase[{i}]"
        _section(where, entry, RebaseRule)
        try:
            cutoff = date.fromisoformat(entry["cutoff"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where} needs a cutoff in YYYY-MM-DD form") from None
        if "column" not in entry:
            raise ConfigError(f"{where} needs a column name")
        rules.append(RebaseRule(column=entry["column"], cutoff=cutoff,
                                divisor=float(entry.get("divisor", 100.0))))
    return tuple(rules)


def _resolve_seed(config_seed: int) -> int:
    env = os.environ.get("MARKETGRAPH_SEED")
    if env is None or env == "":
        return config_seed
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"MARKETGRAPH_SEED must be an integer, got {env!r}") from None


def _emit(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)
    print(f"wrote {path}")


def _out_dir(raw: str) -> Path:
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label)


def _run_pipeline(args) -> tuple[RunConfig, ComparisonSpec, PipelineResult]:
    """The run document of `args.config`, its spec under the resolved seed,
    and the pipeline over its dataset."""
    cfg = parse_run_config(args.config)
    if not cfg.dataset:
        raise ConfigError("config has no dataset path")
    if not Path(cfg.dataset).exists():
        raise ConfigError(f"dataset not found: {cfg.dataset}")
    spec = replace(cfg.spec, train=replace(cfg.spec.train, seed=_resolve_seed(cfg.spec.train.seed)))
    return cfg, spec, run_pipeline(cfg.dataset, cfg.window, cfg.split, cfg.rebase)


# -- commands ------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from .charts import svg_heatmap
    from .metrics import dtw_matrix, spearman_matrix

    frame = load_csv(args.csv)
    if args.config:
        frame = apply_rebase_rules(frame, parse_run_config(args.config).rebase)
    # All three tables first, so a refused statistic leaves no --out behind.
    stats = descriptive_stats(frame)
    spearman = spearman_matrix(frame)
    warped = dtw_matrix(frame)
    out = _out_dir(args.out)

    keys = ("size", "mean", "median", "std", "min", "max", "skewness", "kurtosis")
    rows = ([name, *(repr(stats[name][k]) for k in keys)] for name in frame.columns)
    _emit(out / "descriptive_stats.csv", csv_text(["series", *keys], rows))
    _emit(out / "spearman.csv", matrix_csv("series", frame.columns, spearman))
    _emit(out / "spearman.svg", svg_heatmap(frame.columns, spearman, "Rank correlation"))
    _emit(out / "dtw.csv", matrix_csv("series", frame.columns, warped))
    _emit(out / "dtw.svg", svg_heatmap(frame.columns, warped, "Warping distance (z-scored)"))
    return 0


def _checkpoint_extra(pipeline, cfg: RunConfig) -> dict:
    return {
        "norm_stats": pipeline.report["norm_stats"],
        "rebase": [{"column": r.column, "cutoff": r.cutoff.isoformat(), "divisor": r.divisor}
                   for r in cfg.rebase],
    }


def cmd_train(args) -> int:
    from .rng import Rng
    from .training import MODEL_BUILDERS, evaluate, history_csv, mtgnn_config

    cfg, spec, pipeline = _run_pipeline(args)
    mtgnn_config(pipeline, cfg.window, spec.mtgnn)  # an out-of-range knob fails before --out exists
    out = _out_dir(args.out)

    labels = pipeline.train.columns
    model, result, _ = MODEL_BUILDERS["mtgnn"](pipeline, cfg.window, spec, Rng(spec.train.seed))

    ckpt_path = out / "checkpoint.json"
    model.save(ckpt_path, extra=_checkpoint_extra(pipeline, cfg))
    print(f"wrote {ckpt_path}")
    _emit(out / "history.csv", history_csv(result.history))
    _emit(out / "adjacency.csv", matrix_csv("node", labels, result.adjacency.values))

    eval_result = evaluate(model, pipeline.test_windows, pipeline.stats, labels,
                           seed=spec.train.seed, config={"epochs": spec.train.epochs})
    _emit(out / "report.json", json.dumps({
        "pipeline": pipeline.report,
        "train": {**asdict(spec.train), "best_epoch": result.best_epoch},
        "test_metrics": eval_result.report.to_dict(),
    }, indent=2))
    return 0


def cmd_compare(args) -> int:
    from .training import run_comparison

    cfg, spec, pipeline = _run_pipeline(args)
    out = _out_dir(args.out)

    result = run_comparison(pipeline, cfg.window, spec)

    _emit(out / "comparison.json", json.dumps(result.to_dict(), indent=2))
    _emit(out / "comparison.md", result.render_markdown())

    for name, message in result.errors.items():
        print(f"model {name} failed: {message}", file=sys.stderr)
    return 0 if result.reports else 1


def cmd_influence(args) -> int:
    from .graph import G7_COUNTRIES, MINT_COUNTRIES, rank_influence, read_adjacency_csv

    adj = read_adjacency_csv(args.adjacency)
    group = None
    if args.group:
        presets = {"g7": G7_COUNTRIES, "mint": MINT_COUNTRIES}
        group = presets.get(args.group.lower()) or [s.strip() for s in args.group.split(",")]
    for label, degree in rank_influence(adj, hops=args.hops, group=group):
        print(f"{label}\t{degree}")
    return 0


def _forecast_metadata(extra, path, num_nodes: int) -> tuple[NormStats, tuple[RebaseRule, ...]]:
    """The normalization and rebasing that `train` stores in a checkpoint
    whose model has `num_nodes` series; any problem with them is a DataError
    naming the checkpoint."""
    try:
        if not isinstance(extra, dict) or "norm_stats" not in extra:
            raise ConfigError("needs norm_stats; re-train with the current tooling")
        keys = {f.name for f in fields(NormStats)}
        if set(_section("norm_stats", extra["norm_stats"], NormStats)) != keys:
            raise ConfigError(f"norm_stats needs {', '.join(sorted(keys))}")
        stats = NormStats(**extra["norm_stats"])
        if len(stats.columns) != num_nodes:
            raise ConfigError(f"norm_stats covers {len(stats.columns)} series, "
                              f"the model was fitted on {num_nodes}")
        return stats, _rebase_rules(extra.get("rebase", []))
    except (ConfigError, DataError, ShapeError, TypeError, ValueError,
            OverflowError) as exc:  # OverflowError: an integer too large for a float
        raise DataError(f"{path}: unusable checkpoint metadata: {exc}") from None


def cmd_forecast(args) -> int:
    from .charts import svg_line_chart
    from .checkpoint import load_checkpoint
    from .mtgnn import MtgnnModel

    ckpt = load_checkpoint(args.checkpoint)
    model = MtgnnModel.from_checkpoint(ckpt, args.checkpoint)
    stats, rebase = _forecast_metadata(ckpt.extra, args.checkpoint, model.config.num_nodes)
    window = WindowSpec(P=model.config.input_window, Q=model.config.horizon)
    P, Q = window.P, window.Q

    frame = load_csv(args.csv)
    if frame.columns != stats.columns:
        raise DataError(f"{args.csv} holds the series {', '.join(frame.columns)}, but "
                        f"{args.checkpoint} was trained on {', '.join(stats.columns)}")
    charts = {}
    for label in frame.columns:
        name = f"forecast_{_safe_name(label)}.svg"
        if (other := charts.setdefault(name, label)) != label:
            raise DataError(f"{args.csv}: the series {other!r} and {label!r} would both be "
                            f"charted as {name}")
    # Every row is rebased, logged and normalized, so a bad value anywhere
    # raises; only the trailing rows the forecast reads are windowed.
    frame = normalize(log_transform(apply_rebase_rules(frame, rebase)), stats)
    labels = frame.columns
    if args.steps == 0:
        empty = np.zeros((0, len(labels)))
        _emit(_out_dir(args.out) / "forecast.csv", trace_csv([], labels, empty, empty))
        return 0

    positions = window.count(frame.num_rows)
    steps = positions if args.steps is None else args.steps
    if steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {steps}")
    if steps > positions:
        raise DataError(f"only {positions} forecast positions available, {steps} requested")
    tail = frame.slice_rows(frame.num_rows - (steps + P + Q - 1), frame.num_rows)
    windows = make_windows(tail, window)
    y = windows.y[:, :, 0]
    pred = model.predict_windows(windows.x, horizon=Q)[:, :, 0]

    actual_price = invert_predictions(y, stats)
    pred_price = invert_predictions(pred, stats)
    dates = tail.dates[P:P + steps]  # the first target of each window

    out = _out_dir(args.out)
    _emit(out / "forecast.csv", trace_csv(dates, labels, actual_price, pred_price))
    date_labels = [d.isoformat() for d in dates]
    for j, (name, label) in enumerate(charts.items()):
        _emit(out / name,
              svg_line_chart(date_labels, {"actual": actual_price[:, j], "predicted": pred_price[:, j]},
                             title=str(label)))
    return 0


# -- wiring ---------------------------------------------------------------------

@functools.cache  # argparse parsers are reusable; build the five subcommands once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketgraph",
        description="Multivariate index forecasting with a learned inter-series graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="descriptive stats, rank-correlation and warping-distance matrices")
    p.add_argument("csv", help="input CSV (date,<series>,... header)")
    p.add_argument("--out", default="analysis", help="output directory")
    p.add_argument("--config", default=None, help="optional run config (for rebasing rules)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="run the pipeline and train the graph model")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", default="run", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="train every model kind and tabulate test metrics")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", default="comparison", help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("influence", help="rank nodes of an adjacency CSV by out-degree")
    p.add_argument("adjacency", help="adjacency CSV (labels in header and first column)")
    p.add_argument("--hops", type=int, choices=(1, 2), default=1)
    p.add_argument("--group", default=None,
                   help="G7, MINT, or a comma-separated list of node labels")
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("forecast", help="rolling forecasts from a trained checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint written by `train`")
    p.add_argument("--csv", required=True, help="input CSV to forecast over")
    p.add_argument("--steps", type=int, default=None,
                   help="number of trailing forecast positions (default: all)")
    p.add_argument("--out", default="forecast", help="output directory")
    p.set_defaults(func=cmd_forecast)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, OSError) as exc:  # OSError: an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MarketGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
