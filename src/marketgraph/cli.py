"""Command-line front end: analyze, train, compare, influence, forecast.

Full runs are driven by a JSON config document rather than a pile of flags,
so a run is reproducible from one file; flags cover paths and small
overrides only. Every artifact written is echoed to stdout as a manifest
line. Exit codes: 0 success, 1 runtime/model failure, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import date
from pathlib import Path

import numpy as np

from .autodiff import Rng
from .baselines import MlpSpec
from .charts import svg_heatmap, svg_line_chart
from .checkpoint import load_checkpoint
from .data import (
    NormStats, RebaseRule, SplitSpec, WindowSpec, adjust_rebased_series,
    descriptive_stats, invert_predictions, load_csv, log_transform,
    make_windows, normalize, run_pipeline,
)
from .errors import ConfigError, DataError, DomainError, MarketGraphError, check_field_types
from .graph import (
    G7_COUNTRIES, MINT_COUNTRIES, rank_influence, read_adjacency_csv,
    write_adjacency_csv,
)
from .metrics import dtw_matrix, spearman_matrix, write_labeled_matrix_csv
from .mtgnn import MtgnnConfig, MtgnnModel
from .training import (
    MODEL_BUILDERS, ComparisonSpec, TrainConfig, evaluate, run_comparison,
    write_history_csv, write_trace_csv,
)

_MODEL_OVERRIDE_KEYS = {
    "num_layers", "conv_channels", "residual_channels", "skip_channels",
    "dropout", "gc_depth", "embedding_dim", "retain_ratio", "kernel_size",
    "alpha", "k", "use_residual",
}
_BASELINE_KEYS = {"ar_order", "var_order", "mlp_hidden", "mlp_epochs",
                  "gru_hidden", "tcn_channels", "tcn_blocks", "include"}


@dataclass
class RunConfig:
    """Validated mirror of the JSON run document."""

    dataset: str | None = None
    seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)
    window: WindowSpec = field(default_factory=WindowSpec)
    rebase: tuple[RebaseRule, ...] = ()
    train: TrainConfig = field(default_factory=TrainConfig)
    model: dict = field(default_factory=dict)
    baselines: dict = field(default_factory=dict)


def _object(where: str, given, allowed: set[str]) -> dict:
    """`given`, which must be a JSON object holding only `allowed` keys."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be an object, got {given!r}")
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    return given


def _not_a_number(name: str):
    raise ConfigError(f"{name} is not a JSON number")


def parse_run_config(path) -> RunConfig:
    """The run document at `path`; every problem with it is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_not_a_number)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an integer too long to read
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    _object("config", doc, {"dataset", "seed", "split", "window", "rebase",
                            "train", "model", "baselines"})
    check_field_types(RunConfig, doc)
    split_doc = _object("split", doc.get("split", {}), {"train", "validation", "test"})
    check_field_types(SplitSpec, split_doc, "split")
    window_doc = _object("window", doc.get("window", {}), {"P", "Q"})
    check_field_types(WindowSpec, window_doc, "window")
    train_doc = _object("train", doc.get("train", {}),
                        {"epochs", "batch_size", "loss", "learning_rate", "l2_coefficient"})
    model_doc = _object("model", doc.get("model", {}), _MODEL_OVERRIDE_KEYS)
    check_field_types(MtgnnConfig, model_doc, "model")
    baselines_doc = _object("baselines", doc.get("baselines", {}), _BASELINE_KEYS)

    seed = doc.get("seed", 0)
    try:
        return RunConfig(
            dataset=doc.get("dataset"),
            seed=seed,
            split=SplitSpec(**split_doc),
            window=WindowSpec(**window_doc),
            rebase=_rebase_rules(doc.get("rebase", [])),
            train=TrainConfig(seed=seed, **train_doc),
            model=dict(model_doc),
            baselines=dict(baselines_doc),
        )
    except (DomainError, OverflowError) as exc:  # a range error, or a number too large
        raise ConfigError(f"{path}: {exc}") from None


def _rebase_rules(doc) -> tuple[RebaseRule, ...]:
    if not isinstance(doc, list):
        raise ConfigError(f"rebase must be a list of objects, got {doc!r}")
    rules = []
    for i, entry in enumerate(doc):
        where = f"rebase[{i}]"
        _object(where, entry, {"column", "cutoff", "divisor"})
        try:
            cutoff = date.fromisoformat(entry["cutoff"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where} needs a cutoff in YYYY-MM-DD form") from None
        if "column" not in entry:
            raise ConfigError(f"{where} needs a column name")
        check_field_types(RebaseRule, entry, where)
        divisor = float(entry.get("divisor", 100.0))
        if not divisor > 0:
            raise ConfigError(f"{where}.divisor must be positive, got {divisor}")
        rules.append(RebaseRule(column=entry["column"], cutoff=cutoff, divisor=divisor))
    return tuple(rules)


def _resolve_seed(config_seed: int) -> int:
    env = os.environ.get("MARKETGRAPH_SEED")
    if env is None or env == "":
        return config_seed
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"MARKETGRAPH_SEED must be an integer, got {env!r}") from None


def _emit(path: Path) -> None:
    print(f"wrote {path}")


def _out_dir(raw: str) -> Path:
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label)


def _require_dataset(cfg: RunConfig) -> str:
    if not cfg.dataset:
        raise ConfigError("config has no dataset path")
    if not Path(cfg.dataset).exists():
        raise ConfigError(f"dataset not found: {cfg.dataset}")
    return cfg.dataset


def _comparison_spec(cfg: RunConfig, train_cfg: TrainConfig) -> ComparisonSpec:
    """Pass on only the keys the document sets; the defaults live in the specs."""
    mlp = MlpSpec(**{k[len("mlp_"):]: v for k, v in cfg.baselines.items() if k.startswith("mlp_")})
    given = {k: v for k, v in cfg.baselines.items() if not k.startswith("mlp_")}
    return ComparisonSpec(train=train_cfg, mlp=mlp, mtgnn=dict(cfg.model), **given)


# -- commands ------------------------------------------------------------------

def cmd_analyze(args) -> int:
    frame = load_csv(args.csv)
    if args.config:
        cfg = parse_run_config(args.config)
        for rule in cfg.rebase:
            frame = adjust_rebased_series(frame, rule.column, rule.cutoff, rule.divisor)
    out = _out_dir(args.out)

    stats = descriptive_stats(frame)
    stats_path = out / "descriptive_stats.csv"
    keys = ("size", "mean", "median", "std", "min", "max", "skewness", "kurtosis")
    with open(stats_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", *keys])
        for name in frame.columns:
            writer.writerow([name, *(repr(stats[name][k]) for k in keys)])
    _emit(stats_path)

    spearman = spearman_matrix(frame)
    sp_csv, sp_svg = out / "spearman.csv", out / "spearman.svg"
    write_labeled_matrix_csv(frame.columns, spearman, sp_csv)
    sp_svg.write_text(svg_heatmap(frame.columns, spearman, "Rank correlation"), encoding="utf-8")
    _emit(sp_csv)
    _emit(sp_svg)

    warped = dtw_matrix(frame)
    dt_csv, dt_svg = out / "dtw.csv", out / "dtw.svg"
    write_labeled_matrix_csv(frame.columns, warped, dt_csv)
    dt_svg.write_text(svg_heatmap(frame.columns, warped, "Warping distance (z-scored)"), encoding="utf-8")
    _emit(dt_csv)
    _emit(dt_svg)
    return 0


def _checkpoint_extra(pipeline, cfg: RunConfig) -> dict:
    return {
        "labels": list(pipeline.train.columns),
        "norm_stats": pipeline.report["norm_stats"],
        "window": {"P": cfg.window.P, "Q": cfg.window.Q},
        "rebase": [{"column": r.column, "cutoff": r.cutoff.isoformat(), "divisor": r.divisor}
                   for r in cfg.rebase],
    }


def cmd_train(args) -> int:
    cfg = parse_run_config(args.config)
    dataset = _require_dataset(cfg)
    seed = _resolve_seed(cfg.seed)
    train_cfg = replace(cfg.train, seed=seed)
    out = _out_dir(args.out)

    pipeline = run_pipeline(dataset, cfg.window, cfg.split, cfg.rebase)
    labels = pipeline.train.columns
    spec = ComparisonSpec(train=train_cfg, mtgnn=dict(cfg.model))
    model, result, _ = MODEL_BUILDERS["mtgnn"](pipeline, cfg.window, spec, Rng(seed))

    ckpt_path = out / "checkpoint.json"
    model.save(ckpt_path, extra=_checkpoint_extra(pipeline, cfg))
    _emit(ckpt_path)

    hist_path = out / "history.csv"
    write_history_csv(result.history, hist_path)
    _emit(hist_path)

    adj_path = out / "adjacency.csv"
    write_adjacency_csv(result.adjacency, adj_path)
    _emit(adj_path)

    eval_result = evaluate(model, pipeline.test_windows, pipeline.stats, labels,
                           seed=seed, config={"epochs": train_cfg.epochs})
    report_path = out / "report.json"
    report_path.write_text(json.dumps({
        "pipeline": pipeline.report,
        "train": {**asdict(train_cfg), "best_epoch": result.best_epoch},
        "test_metrics": eval_result.report.to_dict(),
    }, indent=2), encoding="utf-8")
    _emit(report_path)
    return 0


def cmd_compare(args) -> int:
    cfg = parse_run_config(args.config)
    dataset = _require_dataset(cfg)
    seed = _resolve_seed(cfg.seed)
    train_cfg = replace(cfg.train, seed=seed)
    out = _out_dir(args.out)

    pipeline = run_pipeline(dataset, cfg.window, cfg.split, cfg.rebase)
    result = run_comparison(pipeline, cfg.window, _comparison_spec(cfg, train_cfg))

    json_path = out / "comparison.json"
    json_path.write_text(json.dumps(result.to_dict(), indent=2), encoding="utf-8")
    _emit(json_path)
    md_path = out / "comparison.md"
    md_path.write_text(result.render_markdown(), encoding="utf-8")
    _emit(md_path)

    for name, message in result.errors.items():
        print(f"model {name} failed: {message}", file=sys.stderr)
    return 0 if result.reports else 1


def cmd_influence(args) -> int:
    adj = read_adjacency_csv(args.adjacency)
    group = None
    if args.group:
        presets = {"g7": G7_COUNTRIES, "mint": MINT_COUNTRIES}
        group = presets.get(args.group.lower()) or [s.strip() for s in args.group.split(",")]
    for label, degree in rank_influence(adj, hops=args.hops, group=group):
        print(f"{label}\t{degree}")
    return 0


def cmd_forecast(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = MtgnnModel.from_checkpoint(ckpt, args.checkpoint)
    extra = ckpt.extra
    for key in ("labels", "norm_stats", "window"):
        if key not in extra:
            raise ConfigError(f"{args.checkpoint}: checkpoint lacks {key!r} metadata; "
                              "re-train with the current tooling")
    stats = NormStats(columns=tuple(extra["norm_stats"]["columns"]),
                      mean=np.array(extra["norm_stats"]["mean"]),
                      std=np.array(extra["norm_stats"]["std"]))
    P, Q = extra["window"]["P"], extra["window"]["Q"]

    frame = load_csv(args.csv)
    for rule in extra.get("rebase", []):
        frame = adjust_rebased_series(frame, rule["column"], rule["cutoff"], rule["divisor"])
    frame = normalize(log_transform(frame), stats)
    out = _out_dir(args.out)

    trace_path = out / "forecast.csv"
    labels = frame.columns
    if args.steps == 0:
        write_trace_csv(trace_path, [], labels,
                        np.zeros((0, len(labels))), np.zeros((0, len(labels))))
        _emit(trace_path)
        return 0

    windows = make_windows(frame, WindowSpec(P=P, Q=Q))
    steps = len(windows) if args.steps is None else args.steps
    if steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {steps}")
    if steps > len(windows):
        raise DataError(f"only {len(windows)} forecast positions available, {steps} requested")
    x = windows.x[-steps:]
    y = windows.y[-steps:, :, 0]
    starts = windows.start_indices[-steps:]
    pred = model.predict_windows(x, horizon=Q)[:, :, 0]

    actual_price = invert_predictions(y, stats)
    pred_price = invert_predictions(pred, stats)
    dates = [frame.dates[s + P] for s in starts]

    write_trace_csv(trace_path, dates, labels, actual_price, pred_price)
    _emit(trace_path)
    date_labels = [d.isoformat() for d in dates]
    for j, label in enumerate(labels):
        svg_path = out / f"forecast_{_safe_name(label)}.svg"
        svg_path.write_text(
            svg_line_chart(date_labels,
                           {"actual": actual_price[:, j], "predicted": pred_price[:, j]},
                           title=str(label)),
            encoding="utf-8",
        )
        _emit(svg_path)
    return 0


# -- wiring ---------------------------------------------------------------------

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
    except (ConfigError, DataError, FileNotFoundError) as exc:
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
