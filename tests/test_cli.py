"""Command-line behavior: config parsing, artifacts, exit codes, manifests."""
import builtins
import copy
import csv
import errno
import io
import json
import math
import re
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from conftest import build_frame, write_frame_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketgraph import ConfigError, MtgnnConfig, MtgnnModel, Rng, TrainConfig, WindowSpec
from marketgraph.baselines import MlpSpec
from marketgraph.cli import RunConfig, main, parse_run_config
from marketgraph.checkpoint import load_checkpoint
from marketgraph.data import (
    NormStats, RebaseRule, SplitSpec, invert_predictions, load_csv, log_transform, make_windows,
    matrix_csv, normalize, trace_csv,
)
from marketgraph.synthetic import coupled_var_system
from marketgraph.training import ComparisonSpec

FIXTURES = Path(__file__).parent / "fixtures"


def make_dataset(path, rows=90, n=3, seed=5):
    gen = np.random.default_rng(seed)
    walk = np.cumsum(gen.normal(0, 0.01, size=(rows, n)), axis=0)
    values = np.array([100.0, 55.0, 900.0])[:n] * np.exp(walk)
    frame = build_frame(values, columns=["us", "uk", "jp"][:n])
    write_frame_csv(frame, path)
    return frame


TINY_MODEL = {"num_layers": 2, "conv_channels": 4, "residual_channels": 4,
              "skip_channels": 4, "embedding_dim": 4, "k": 2, "dropout": 0.0}


def write_config(path, dataset, **overrides):
    doc = {
        "dataset": str(dataset),
        "seed": 3,
        "window": {"P": 8, "Q": 1},
        "train": {"epochs": 2, "batch_size": 16},
        "model": dict(TINY_MODEL),
        "baselines": {"include": ["persistence", "ar"], "ar_order": 2},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def manifest_paths(captured: str) -> list[Path]:
    return [Path(line[len("wrote "):]) for line in captured.splitlines()
            if line.startswith("wrote ")]


# -- config parsing -------------------------------------------------------------------


def test_parse_run_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "dataset": "prices.csv",
        "seed": 11,
        "split": {"train": 0.7, "validation": 0.2, "test": 0.1},
        "window": {"P": 12, "Q": 2},
        "rebase": [{"column": "tr", "cutoff": "2005-01-01", "divisor": 1000000.0}],
        "train": {"epochs": 4, "learning_rate": 0.01},
        "model": {"num_layers": 2},
        "baselines": {"ar_order": 3},
    }), encoding="utf-8")
    cfg = parse_run_config(path)
    assert cfg == RunConfig(
        dataset="prices.csv",
        split=SplitSpec(train=0.7, validation=0.2, test=0.1),
        window=WindowSpec(P=12, Q=2),
        rebase=(RebaseRule(column="tr", cutoff=date(2005, 1, 1), divisor=1000000.0),),
        # the top-level seed feeds the train config
        spec=ComparisonSpec(train=TrainConfig(epochs=4, learning_rate=0.01, seed=11),
                            mtgnn={"num_layers": 2}, ar_order=3),
    )


def test_parse_run_config_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{}", encoding="utf-8")
    cfg = parse_run_config(path)
    assert cfg == RunConfig(dataset=None, split=SplitSpec(), window=WindowSpec(), rebase=(),
                            spec=ComparisonSpec())
    assert cfg.window.P == 30 and cfg.window.Q == 1
    assert cfg.spec.train.seed == 0 and cfg.spec.train.epochs == 30


@pytest.mark.parametrize("doc", [
    {"datset": "x.csv"},
    {"window": {"P": 8, "length": 3}},
    {"train": {"epochs": 2, "seed": 4}},
    {"model": {"hidden": 7}},
    {"baselines": {"arima_order": 2}},
    {"rebase": [{"column": "a", "cutoff": "not-a-date"}]},
    {"rebase": [{"column": "a"}]},
    {"seed": "seven"},
])
def test_parse_run_config_rejects_bad_documents(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_run_config(path)


def test_comparison_spec_takes_only_the_keys_the_document_sets(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {"epochs": 1}, "model": {"num_layers": 2},
                                "baselines": {"mlp_epochs": 3, "ar_order": 2,
                                              "include": ["ar", "tcn"]}}),
                    encoding="utf-8")
    cfg = parse_run_config(path)
    assert cfg.spec == replace(ComparisonSpec(), train=TrainConfig(epochs=1), mlp=MlpSpec(epochs=3),
                               ar_order=2, include=("ar", "tcn"), mtgnn={"num_layers": 2})


# A document that sets every key each section accepts today; the key sets
# are read from the config dataclasses, so this pins them.
FULL_DOC = {
    "dataset": "prices.csv", "seed": 2,
    "split": {"train": 0.6, "validation": 0.2, "test": 0.2},
    "window": {"P": 8, "Q": 1},
    "rebase": [{"column": "us", "cutoff": "2020-01-02", "divisor": 10.0}],
    "train": {"epochs": 1, "batch_size": 4, "loss": "l1", "learning_rate": 0.01,
              "l2_coefficient": 0.0},
    "model": {"num_layers": 1, "conv_channels": 4, "residual_channels": 4, "skip_channels": 4,
              "dropout": 0.1, "gc_depth": 1, "embedding_dim": 4, "retain_ratio": 0.1,
              "kernel_size": 2, "alpha": 3.0, "k": 2, "use_residual": False},
    "baselines": {"ar_order": 2, "var_order": 1, "mlp_hidden": 8, "mlp_epochs": 2,
                  "gru_hidden": 4, "tcn_channels": 4, "tcn_blocks": 1, "include": ["ar"]},
}
# Keys no section takes, among them the fields the data, the window or the
# seed fix and the MLP knobs that stay fixed.
REFUSED_KEYS = {
    "config": ["bogus"], "split": ["bogus"], "window": ["bogus"], "rebase[0]": ["bogus"],
    "train": ["bogus", "seed"], "model": ["bogus", "num_nodes", "input_window", "horizon"],
    "baselines": ["bogus", "mlp_learning_rate", "mlp_batch_size"],
}


def test_each_section_accepts_exactly_its_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FULL_DOC), encoding="utf-8")
    cfg = parse_run_config(path)
    assert cfg.dataset == "prices.csv"
    assert cfg.split == SplitSpec(**FULL_DOC["split"])
    assert cfg.window == WindowSpec(**FULL_DOC["window"])
    assert cfg.rebase == (RebaseRule(column="us", cutoff=date(2020, 1, 2), divisor=10.0),)
    # every baselines knob differs from its default, so each one is seen to arrive
    assert cfg.spec == ComparisonSpec(
        train=TrainConfig(seed=2, **FULL_DOC["train"]), mtgnn=FULL_DOC["model"],
        ar_order=2, var_order=1, mlp=MlpSpec(hidden=8, epochs=2), gru_hidden=4,
        tcn_channels=4, tcn_blocks=1, include=("ar",))

    for where, keys in REFUSED_KEYS.items():
        for key in keys:
            doc = copy.deepcopy(FULL_DOC)
            section = {"config": doc, "rebase[0]": doc["rebase"][0]}.get(where) or doc[where]
            section[key] = 1
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ConfigError, match=re.escape(f"unknown key(s) in {where}: {key}")):
                parse_run_config(path)


def test_parse_run_config_missing_or_malformed_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_run_config(bad)


# Any JSON value, and run documents that use the real section names with
# random contents, so that both shapes reach every stage of the parser.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10)
    | st.integers(-2, 40) | st.floats(0, 1),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
SECTION_KEYS = {name: sorted(FULL_DOC[name]) for name in ("split", "window", "train", "model", "baselines")}
REBASE_VALUES = JSON_VALUES | st.dates().map(date.isoformat)
RUN_DOCS = st.fixed_dictionaries({}, optional={
    "dataset": st.text(max_size=10) | JSON_VALUES, "seed": st.integers(0, 99) | JSON_VALUES,
    "rebase": JSON_VALUES | st.lists(
        JSON_VALUES | st.dictionaries(st.sampled_from(["column", "cutoff", "divisor"]), REBASE_VALUES),
        max_size=2),
    **{name: JSON_VALUES | st.dictionaries(st.sampled_from(keys), JSON_VALUES)
       for name, keys in SECTION_KEYS.items()},
})


@settings(max_examples=400, deadline=None)
@given(doc=JSON_VALUES | RUN_DOCS)
def test_parse_run_config_returns_a_config_or_raises_config_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed_run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        assert isinstance(parse_run_config(path), RunConfig)
    except ConfigError:
        pass


# One out-of-range value per section, two for split; 1e999 overflows to infinity.
SECTION_PATHS = {
    "train.epochs": '{"train": {"epochs": -1}}',
    "train.learning_rate": '{"train": {"learning_rate": 1e999}}',
    "split.train": '{"split": {"train": 0, "validation": 0.5, "test": 0.5}}',
    # an integer too large for a float, which the sum of the fractions cannot take
    "split.validation": '{"split": {"validation": 1' + "0" * 400 + '}}',
    "window.P": '{"window": {"P": 0}}',
    "window.Q": '{"window": {"Q": 0}}',
    "rebase[0].divisor": '{"rebase": [{"column": "us", "cutoff": "2020-01-10", "divisor": 1e999}]}',
}


@pytest.mark.parametrize("key, text", SECTION_PATHS.items(), ids=SECTION_PATHS.keys())
def test_a_range_error_names_its_section_and_key(tmp_path, key, text):
    path = tmp_path / "run.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_run_config(path)
    assert str(info.value).startswith(f"{key} must be ")


# -- analyze --------------------------------------------------------------------------


def test_analyze_writes_full_artifact_set(tmp_path, capsys):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    out = tmp_path / "analysis"
    assert main(["analyze", str(csv_path), "--out", str(out)]) == 0
    written = manifest_paths(capsys.readouterr().out)
    names = sorted(p.name for p in written)
    assert names == ["descriptive_stats.csv", "dtw.csv", "dtw.svg",
                     "spearman.csv", "spearman.svg"]
    for p in written:
        assert p.exists() and p.stat().st_size > 0
    with open(out / "descriptive_stats.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["series", "size", "mean", "median", "std", "min", "max",
                       "skewness", "kurtosis"]
    assert [r[0] for r in rows[1:]] == ["us", "uk", "jp"]
    assert (out / "spearman.svg").read_text(encoding="utf-8").lstrip().startswith("<svg")


def test_analyze_missing_csv_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("values, columns, message", [
    ([[1.0, 2.0], [2.0, 3.5]], ["a", "b"], "rank correlation needs at least 3 observations"),
    ([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]], ["a", "b"],
     "constant column 'a': skewness/kurtosis undefined"),
], ids=["two_rows", "constant_column"])
def test_analyze_writes_nothing_when_a_statistic_is_refused(tmp_path, capsys, values, columns,
                                                            message):
    csv_path = tmp_path / "prices.csv"
    write_frame_csv(build_frame(values, columns=columns), csv_path)
    out = tmp_path / "analysis"
    assert main(["analyze", str(csv_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


# -- influence ------------------------------------------------------------------------


def test_influence_one_hop_ranking(capsys):
    assert main(["influence", str(FIXTURES / "g7_mint_adjacency.csv")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    # ties broken by label: Indonesia and US both have out-degree 7
    assert lines[0] == "Indonesia\t7"
    assert lines[1] == "US\t7"


def test_influence_group_and_hops(capsys):
    assert main(["influence", str(FIXTURES / "g7_mint_adjacency.csv"),
                 "--hops", "2", "--group", "g7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "US\t39"
    assert lines[1] == "Canada\t34"
    assert len(lines) == 7

    assert main(["influence", str(FIXTURES / "g7_mint_adjacency.csv"),
                 "--group", "MINT"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "Indonesia\t7"
    assert len(lines) == 4


def test_influence_explicit_label_list(capsys):
    assert main(["influence", str(FIXTURES / "g7_mint_adjacency.csv"),
                 "--group", "US,UK"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert {line.split("\t")[0] for line in lines} == {"US", "UK"}


def test_influence_refuses_a_label_listed_twice_naming_it(capsys):
    assert main(["influence", str(FIXTURES / "g7_mint_adjacency.csv"),
                 "--group", "US,UK,US"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group lists US more than once\n"


@pytest.mark.parametrize("group", [" , ", "US,,UK", ""])
def test_influence_refuses_an_empty_group_entry_naming_the_option(capsys, group):
    assert main(["influence", str(FIXTURES / "g7_mint_adjacency.csv"), "--group", group]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --group has an empty entry: {group!r}\n"


def test_influence_unknown_label_exits_2(capsys):
    assert main(["influence", str(FIXTURES / "g7_mint_adjacency.csv"),
                 "--group", "Atlantis"]) == 2
    assert "error:" in capsys.readouterr().err


# -- train ----------------------------------------------------------------------------


def test_train_writes_checkpoint_history_adjacency_report(tmp_path, capsys):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    written = {p.name for p in manifest_paths(capsys.readouterr().out)}
    assert written == {"checkpoint.json", "history.csv", "adjacency.csv", "report.json"}

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert set(report) == {"pipeline", "train", "test_metrics"}
    assert report["train"]["seed"] == 3
    assert report["train"]["epochs"] == 2
    assert 1 <= report["train"]["best_epoch"] <= 2
    stages = [s["stage"] for s in report["pipeline"]["stages"]]
    assert stages == ["load", "adjust", "log", "split", "normalize", "window"]
    metrics = report["test_metrics"]["metrics"]
    assert set(metrics) == {"us", "uk", "jp"}
    assert set(report["test_metrics"]["price_metrics"]) == {"us", "uk", "jp"}

    with open(out / "history.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_loss"]
    assert len(rows) == 3

    ckpt = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
    assert ckpt["kind"] == "mtgnn"
    # The window is the model's own input window and horizon; the series names
    # are the normalization statistics' columns.
    assert set(ckpt["extra"]) == {"norm_stats", "rebase"}
    assert (ckpt["config"]["input_window"], ckpt["config"]["horizon"]) == (8, 1)
    assert ckpt["extra"]["norm_stats"]["columns"] == ["us", "uk", "jp"]


def test_train_is_reproducible_at_the_artifact_level(tmp_path, capsys):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    for name in ("a", "b"):
        assert main(["train", "--config", str(config),
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "checkpoint.json").read_bytes()
    second = (tmp_path / "b" / "checkpoint.json").read_bytes()
    assert first == second


def test_a_failed_artifact_write_keeps_the_previous_file(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    previous = (out / "history.csv").read_bytes()
    capsys.readouterr()

    class FullDisk:
        """A file handle whose every write fails as on a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = builtins.open

    def open_history_on_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode and Path(file).name.startswith("history.csv") else fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", open_history_on_full_disk)
        patch.setattr(io, "open", open_history_on_full_disk)  # what pathlib calls
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert (out / "history.csv").read_bytes() == previous
    assert list(out.glob("*.tmp")) == []


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    monkeypatch.setenv("MARKETGRAPH_SEED", "9")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
    assert report["train"]["seed"] == 9

    monkeypatch.setenv("MARKETGRAPH_SEED", "not-a-number")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run2")]) == 2
    assert "MARKETGRAPH_SEED" in capsys.readouterr().err

    monkeypatch.setenv("MARKETGRAPH_SEED", "-1")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run3")]) == 2
    assert "MARKETGRAPH_SEED must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "compare"])
def test_negative_seed_env_is_refused_naming_the_variable_before_out_exists(tmp_path, capsys,
                                                                           monkeypatch, command):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    monkeypatch.setenv("MARKETGRAPH_SEED", "-3")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: MARKETGRAPH_SEED must be a nonnegative integer, got '-3'\n"
    assert captured.out == "" and not out.exists()


def test_train_bad_config_and_missing_dataset_exit_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"datset": "x.csv"}), encoding="utf-8")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "datset" in capsys.readouterr().err

    write_config(config, tmp_path / "absent.csv")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "dataset not found" in capsys.readouterr().err

    config.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "no dataset path" in capsys.readouterr().err


MALFORMED_CONFIGS = {
    "model_str_num_layers": {"model": {**TINY_MODEL, "num_layers": "2"}},
    "model_str_dropout": {"model": {**TINY_MODEL, "dropout": "0.3"}},
    "model_float_k": {"model": {**TINY_MODEL, "k": 1.0}},
    "model_str_use_residual": {"model": {**TINY_MODEL, "use_residual": "no"}},
    "train_float_epochs": {"train": {"epochs": 1.5, "batch_size": 16}},
    "split_list": {"split": [1, 2]},
    "train_number": {"train": 5},
    "rebase_number": {"rebase": 5},
    "rebase_entry_number": {"rebase": [5]},
    "rebase_str_divisor": {"rebase": [{"column": "us", "cutoff": "2020-01-10", "divisor": "x"}]},
    "rebase_without_column": {"rebase": [{"cutoff": "2020-01-10"}]},
    "dataset_number": {"dataset": 5},
    "window_zero_P": {"window": {"P": 0, "Q": 1}},
    "split_zero_train": {"split": {"train": 0.0, "validation": 0.5, "test": 0.5}},
    "negative_seed": {"seed": -1},
    "nan_fraction": {"split": {"train": float("nan"), "validation": 0.2, "test": 0.2}},
}


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("overrides", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_run_config_exits_2(tmp_path, capsys, command, overrides):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    doc = json.loads(config.read_text(encoding="utf-8"))
    config.write_text(json.dumps({**doc, **overrides}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_a_panel_too_short_to_window_leaves_no_out_dir(tmp_path, capsys, command):
    frame = coupled_var_system(num_nodes=3, steps=40, seed=1).frame
    for rows, message in [(40, "24 rows cannot fit a window of P+Q=31"),
                          (2, "need at least 3 rows to split, have 2"),
                          (4, "split of 4 rows leaves an empty partition (2/0/2)")]:
        csv_path = tmp_path / f"prices_{rows}.csv"
        write_frame_csv(frame.slice_rows(0, rows), csv_path)
        config = write_config(tmp_path / "run.json", csv_path, window={"P": 30, "Q": 1})
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("field", ["learning_rate", "l2_coefficient"])
def test_an_infinite_rate_leaves_no_out_dir(tmp_path, capsys, command, field):
    # JSON has no infinity, but 1e999 is a number that overflows to one, and
    # an integer can be too large to convert to a float
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path, train={"epochs": 1, field: 7.5})
    text = config.read_text(encoding="utf-8")
    for number in ("1e999", "1" + "0" * 400):
        config.write_text(text.replace("7.5", number), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be" in err
        assert not out.exists()


OUT_OF_RANGE_MODEL_KNOBS = {
    "too_deep": ({"num_layers": 4}, "receptive field of 4 layers"),
    "far_too_deep": ({"num_layers": 15000}, "receptive field of 15000 layers"),
    "k_too_large": ({"k": 9}, "k=9 out of range for 3 nodes"),
    "negative_alpha": ({"alpha": -1.0}, "alpha must be positive and finite, got -1.0"),
    "zero_alpha": ({"alpha": 0}, "alpha must be positive and finite, got 0"),
    "infinite_alpha": ({"alpha": 7.5}, "alpha must be positive and finite, got inf"),
    "huge_alpha": ({"alpha": 10 ** 400}, f"alpha must be positive and finite, got {10 ** 400}"),
}


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("knob, message", OUT_OF_RANGE_MODEL_KNOBS.values(),
                         ids=OUT_OF_RANGE_MODEL_KNOBS.keys())
def test_an_out_of_range_model_knob(tmp_path, capsys, command, knob, message):
    # `train` refuses it before --out exists; `compare` records it for mtgnn
    # and scores the other models.
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path, model={**TINY_MODEL, **knob},
                          baselines={"include": ["persistence", "mtgnn"]})
    # JSON has no infinity, but 1e999 is a number that overflows to one
    config.write_text(config.read_text(encoding="utf-8").replace("7.5", "1e999"), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    if command == "train":
        assert code == 2 and err.startswith("error:") and message in err
        assert not out.exists()
    else:
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        assert set(payload["models"]) == {"persistence"}
        assert payload["errors"]["mtgnn"].startswith("ConfigError:")
        assert message in payload["errors"]["mtgnn"]


@pytest.mark.parametrize("command", ["train", "compare"])
def test_an_out_of_range_model_knob_is_named_by_its_document_key(tmp_path, capsys, command):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path, model={**TINY_MODEL, "dropout": 1.0},
                          baselines={"include": ["persistence", "mtgnn"]})
    out = tmp_path / "out"
    main([command, "--config", str(config), "--out", str(out)])
    message = "model.dropout must be in [0, 1), got 1.0"
    if command == "train":
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        errors = json.loads((out / "comparison.json").read_text(encoding="utf-8"))["errors"]
        assert errors == {"mtgnn": f"ConfigError: {message}"}


# -- compare --------------------------------------------------------------------------


def test_compare_writes_json_and_markdown(tmp_path, capsys):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    written = {p.name for p in manifest_paths(capsys.readouterr().out)}
    assert written == {"comparison.json", "comparison.md"}
    payload = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert set(payload["models"]) == {"persistence", "ar"}
    assert payload["errors"] == {}
    assert set(payload["price_flags"]) == {"us", "uk", "jp"}
    for report in payload["models"].values():
        assert set(report["price_metrics"]) == {"us", "uk", "jp"}
    text = (out / "comparison.md").read_text(encoding="utf-8")
    assert text.startswith("Test metrics on the price scale")
    assert "| model | RSE | RMSE | MAE | MAPE |" in text


def test_compare_reports_per_model_failures(tmp_path, capsys):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path,
                          baselines={"include": ["persistence", "ar"],
                                     "ar_order": 10000})
    assert main(["compare", "--config", str(config),
                 "--out", str(tmp_path / "cmp")]) == 0  # persistence still scored
    captured = capsys.readouterr()
    assert "model ar failed" in captured.err
    payload = json.loads((tmp_path / "cmp" / "comparison.json").read_text(encoding="utf-8"))
    assert set(payload["models"]) == {"persistence"}
    assert "ar" in payload["errors"]


def test_compare_ar_order_beyond_the_window_is_a_recorded_data_error(tmp_path, capsys):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path,
                          baselines={"include": ["persistence", "ar"], "ar_order": 20})
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp")]) == 0
    assert "model ar failed" in capsys.readouterr().err
    payload = json.loads((tmp_path / "cmp" / "comparison.json").read_text(encoding="utf-8"))
    assert set(payload["models"]) == {"persistence"}
    assert payload["errors"]["ar"].startswith("ShapeError: window of 8 steps is shorter than the model reads")


@pytest.mark.parametrize("command", ["train", "compare", "analyze"])
@pytest.mark.parametrize("baselines, named", [
    ({"ar_order": "2"}, "baselines.ar_order must be an integer"),
    ({"tcn_blocks": True}, "baselines.tcn_blocks must be an integer"),
    ({"include": "ar"}, "baselines.include must be a list of model kinds"),
    ({"mlp_hidden": 2.5}, "baselines.mlp_hidden must be an integer"),
    ({"include": ["bogus"]}, "unknown model kind(s) in baselines.include"),
    ({"include": ["ar", "ar"]}, "baselines.include lists ar more than once"),
    ({"include": []}, "baselines.include must name at least one model kind"),
], ids=["str_order", "bool_blocks", "include_string", "float_mlp_hidden", "unknown_include",
        "repeated_include", "empty_include"])
def test_every_run_command_refuses_a_mistyped_baseline_knob(tmp_path, capsys, baselines, named,
                                                            command):
    # The run document is parsed once, so all three commands refuse it alike,
    # naming the knob as the document spells it.
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path,
                          baselines={"include": ["persistence", "ar"], **baselines})
    inputs = [str(csv_path)] if command == "analyze" else []
    out = tmp_path / "out"
    assert main([command, *inputs, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("knob, kind, message", [
    ({"mlp_hidden": 0}, "var_mlp", "hidden must be positive, got 0"),
    ({"tcn_blocks": 4}, "tcn", "input window 8 is shorter than the receptive field of 4 blocks"),
    ({"tcn_blocks": 15000}, "tcn", "input window 8 is shorter than the receptive field of 15000 blocks"),
    ({"ar_order": 0}, "ar", "baselines.ar_order must be positive, got 0"),
    ({"var_order": 0}, "var_mlp", "baselines.var_order must be positive, got 0"),
    ({"tcn_channels": 0}, "tcn", "baselines.tcn_channels must be positive, got 0"),
    ({"gru_hidden": 0}, "gru", "baselines.gru_hidden must be positive, got 0"),
    ({"mlp_epochs": -1}, "var_mlp", "baselines.mlp_epochs must be nonnegative, got -1"),
], ids=["zero_mlp_hidden", "tcn_too_deep", "tcn_far_too_deep", "zero_ar_order", "zero_var_order",
        "zero_tcn_channels", "zero_gru_hidden", "negative_mlp_epochs"])
def test_compare_out_of_range_baseline_knob_is_a_recorded_config_error(tmp_path, capsys, knob,
                                                                        kind, message):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path,
                          baselines={"include": ["persistence", kind], "var_order": 1, **knob})
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp")]) == 0
    assert f"model {kind} failed" in capsys.readouterr().err
    payload = json.loads((tmp_path / "cmp" / "comparison.json").read_text(encoding="utf-8"))
    assert set(payload["models"]) == {"persistence"}
    assert payload["errors"][kind].startswith("ConfigError:") and message in payload["errors"][kind]


# -- forecast -------------------------------------------------------------------------


@pytest.fixture
def trained_run(tmp_path):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return csv_path, out / "checkpoint.json"


def test_forecast_round_trip(trained_run, tmp_path, capsys):
    csv_path, checkpoint = trained_run
    out = tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--steps", "4", "--out", str(out)]) == 0
    written = {p.name for p in manifest_paths(capsys.readouterr().out)}
    assert written == {"forecast.csv", "forecast_us.svg", "forecast_uk.svg",
                       "forecast_jp.svg"}
    with open(out / "forecast.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["date", "us_actual", "us_predicted", "uk_actual",
                       "uk_predicted", "jp_actual", "jp_predicted"]
    assert len(rows) == 5
    values = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    assert np.isfinite(values).all() and (values > 0).all()


@pytest.mark.parametrize("steps", ["4", "0"])
def test_forecast_refuses_two_series_with_one_chart_name_before_writing(tmp_path, capsys, steps):
    # `a b` and `a_b` would both be charted as forecast_a_b.svg
    csv_path = tmp_path / "prices.csv"
    write_frame_csv(build_frame(make_dataset(csv_path).values, columns=["a b", "a_b", "c"]),
                    csv_path)
    config = write_config(tmp_path / "run.json", csv_path)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    out = tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                 "--csv", str(csv_path), "--steps", steps, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert str(csv_path) in captured.err and "forecast_a_b.svg" in captured.err
    assert "'a b'" in captured.err and "'a_b'" in captured.err


def test_forecast_zero_steps_writes_header_only(trained_run, tmp_path, capsys):
    csv_path, checkpoint = trained_run
    out = tmp_path / "fc0"
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--steps", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "forecast.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 and rows[0][0] == "date"
    assert not list(out.glob("*.svg"))


def test_forecast_too_many_steps_exits_2(trained_run, tmp_path, capsys):
    csv_path, checkpoint = trained_run
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--steps", "100000", "--out", str(tmp_path / "fc")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["99999", "-1"])
def test_forecast_rejected_steps_leave_no_out_dir(trained_run, tmp_path, capsys, steps):
    csv_path, checkpoint = trained_run
    out = tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--steps", steps, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_forecast_malformed_checkpoint_exits_2(trained_run, tmp_path, capsys):
    csv_path, checkpoint = trained_run
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    name = next(iter(doc["params"]))
    del doc["params"][name]["shape"]
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--out", str(tmp_path / "fc")]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert name in err


def test_forecast_checkpoint_too_wide_for_its_parameters_exits_2(trained_run, tmp_path, capsys):
    # The config is checked against the saved parameters before any is drawn.
    csv_path, checkpoint = trained_run
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    doc["config"]["embedding_dim"] = 10 ** 7
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--out", str(tmp_path / "fc")]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "emb.e1" in err and str(checkpoint) in err


def test_forecast_checkpoint_with_unknown_config_key_exits_2(trained_run, tmp_path, capsys):
    csv_path, checkpoint = trained_run
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    doc["config"]["bogus"] = 1
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--out", str(tmp_path / "fc")]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "bogus" in err and str(checkpoint) in err


def test_forecast_actuals_match_source_prices(trained_run, tmp_path, capsys):
    csv_path, checkpoint = trained_run
    out = tmp_path / "fc_all"
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--steps", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    source = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            source[row[0]] = [float(v) for v in row[1:]]
    with open(out / "forecast.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            actual = [float(row[1]), float(row[3]), float(row[5])]
            np.testing.assert_allclose(actual, source[row[0]], rtol=1e-9)


def test_forecast_does_not_need_the_checkpoint_labels(tmp_path, capsys):
    # A checkpoint whose `extra` also holds the window and the series names,
    # as older ones do, forecasts byte for byte as one without them.
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    for Q in (1, 2):
        config = write_config(tmp_path / "run.json", csv_path, window={"P": 8, "Q": Q})
        checkpoint = tmp_path / f"run{Q}" / "checkpoint.json"
        assert main(["train", "--config", str(config), "--out", str(checkpoint.parent)]) == 0
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        doc["extra"].update(labels=["us", "uk", "jp"], window={"P": 8, "Q": Q})
        older = checkpoint.with_name("older.json")
        older.write_text(json.dumps(doc), encoding="utf-8")
        written = []
        for path in (checkpoint, older):
            out = tmp_path / f"fc{Q}_{path.stem}"
            assert main(["forecast", "--checkpoint", str(path), "--csv", str(csv_path),
                         "--steps", "5", "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(written[0]) == 4 and written[0] == written[1]
    capsys.readouterr()


# make_dataset's 90 daily rows start on 2020-01-01, so the rule divides the first 45.
REBASE_US = {"column": "us", "cutoff": "2020-02-15", "divisor": 7.0}


def divided_by_hand(raw, path):
    """`raw` with every pre-cutoff `us` cell divided as REBASE_US says."""
    header, *rows = raw.read_text(encoding="utf-8").splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            day, us, *rest = row.split(",")
            if day < REBASE_US["cutoff"]:
                us = repr(float(us) / REBASE_US["divisor"])
            fh.write(",".join([day, us, *rest]) + "\n")
    return path


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_a_rebase_rule_acts_as_the_same_division_made_in_the_csv(tmp_path, capsys):
    raw = tmp_path / "prices.csv"
    make_dataset(raw)
    divided = divided_by_hand(raw, tmp_path / "divided.csv")
    config = write_config(tmp_path / "run.json", raw, rebase=[REBASE_US])
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    checkpoint = tmp_path / "run" / "checkpoint.json"
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    assert doc["extra"]["rebase"] == [REBASE_US]
    report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
    hashes = {stage["stage"]: stage["hash"] for stage in report["pipeline"]["stages"]}
    assert hashes["adjust"] != hashes["load"]

    # the checkpoint's rule on the raw CSV, and no rule on the divided one
    doc["extra"]["rebase"] = []
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc), encoding="utf-8")
    for ckpt, csv_path, out in ((checkpoint, raw, "fc_rule"), (plain, divided, "fc_hand")):
        assert main(["forecast", "--checkpoint", str(ckpt), "--csv", str(csv_path),
                     "--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "fc_rule" / "forecast.csv").read_bytes()
            == (tmp_path / "fc_hand" / "forecast.csv").read_bytes())

    assert main(["analyze", str(raw), "--config", str(config),
                 "--out", str(tmp_path / "an_rule")]) == 0
    assert main(["analyze", str(divided), "--out", str(tmp_path / "an_hand")]) == 0
    assert_same_files(tmp_path / "an_rule", tmp_path / "an_hand")


MALFORMED_METADATA = {
    "extra_without_norm_stats": lambda extra: extra.pop("norm_stats"),
    "rebase_without_cutoff": lambda extra: extra.update(rebase=[{"column": "us", "divisor": 2.0}]),
    "rebase_on_unknown_series": lambda extra: extra.update(
        rebase=[{"column": "zz", "cutoff": "2020-01-02", "divisor": 2.0}]),
    "norm_stats_without_std": lambda extra: extra["norm_stats"].pop("std"),
    "mean_of_wrong_length": lambda extra: extra["norm_stats"].update(mean=[0.0]),
    # an integer too large for a float, and non-finite normalization stats
    "huge_rebase_divisor": lambda extra: extra.update(
        rebase=[{"column": "us", "cutoff": "2020-01-02", "divisor": 10 ** 400}]),
    "huge_mean": lambda extra: extra["norm_stats"]["mean"].__setitem__(0, 10 ** 400),
    "nan_std": lambda extra: extra["norm_stats"]["std"].__setitem__(0, float("nan")),
    "infinite_mean": lambda extra: extra["norm_stats"]["mean"].__setitem__(0, float("inf")),
}


@pytest.mark.parametrize("damage", MALFORMED_METADATA.values(), ids=MALFORMED_METADATA.keys())
def test_forecast_malformed_checkpoint_metadata_exits_2(trained_run, tmp_path, capsys, damage):
    csv_path, checkpoint = trained_run
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    damage(doc["extra"])
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "internal error" not in err
    assert str(checkpoint) in err
    assert not out.exists()


def test_forecast_on_other_series_names_the_checkpoint_the_csv_and_both_series(trained_run, tmp_path,
                                                                               capsys):
    csv_path, checkpoint = trained_run
    other = tmp_path / "renamed.csv"
    text = csv_path.read_text(encoding="utf-8")
    other.write_text(text.replace("date,us,", "date,de,", 1), encoding="utf-8")
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(other),
                 "--out", str(tmp_path / "fc")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {other} holds the series de, uk, jp, but {checkpoint} "
                   "was trained on us, uk, jp\n")
    assert not (tmp_path / "fc").exists()


def test_forecast_refuses_norm_stats_narrower_than_the_model(trained_run, tmp_path, capsys):
    # A CSV that matches the stats must not get as far as the model.
    csv_path, checkpoint = trained_run
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    stats = doc["extra"]["norm_stats"]
    doc["extra"]["norm_stats"] = {key: values[:2] for key, values in stats.items()}
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                              for line in csv_path.read_text(encoding="utf-8").splitlines()),
                      encoding="utf-8")
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(narrow),
                 "--out", str(tmp_path / "fc")]) == 2
    assert capsys.readouterr().err == (
        f"error: {checkpoint}: unusable checkpoint metadata: norm_stats covers 2 series, "
        "the model was fitted on 3\n")


FULL_ROWS, FULL_P = 90, 8  # make_dataset's and write_config's defaults


@pytest.fixture(scope="module")
def full_forecast(tmp_path_factory):
    """A trained run and the lines of its forecast over every position."""
    root = tmp_path_factory.mktemp("full_forecast")
    csv_path = root / "prices.csv"
    make_dataset(csv_path, rows=FULL_ROWS)
    config = write_config(root / "run.json", csv_path, window={"P": FULL_P, "Q": 1})
    assert main(["train", "--config", str(config), "--out", str(root / "run")]) == 0
    checkpoint = root / "run" / "checkpoint.json"
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--out", str(root / "all")]) == 0
    lines = (root / "all" / "forecast.csv").read_bytes().splitlines(keepends=True)
    assert len(lines) == 1 + FULL_ROWS - FULL_P
    return csv_path, checkpoint, lines


@settings(max_examples=20, deadline=None)
@given(steps=st.integers(1, FULL_ROWS - FULL_P))
@example(steps=1)
@example(steps=FULL_ROWS - FULL_P)
def test_forecast_steps_writes_the_last_rows_of_the_full_forecast(full_forecast, tmp_path_factory, steps):
    # A shorter forecast writes the same rows as the trailing ones of the full one.
    csv_path, checkpoint, lines = full_forecast
    out = tmp_path_factory.mktemp("steps")
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--steps", str(steps), "--out", str(out)]) == 0
    assert (out / "forecast.csv").read_bytes() == b"".join([lines[0], *lines[-steps:]])


@pytest.mark.parametrize("steps", [1, (FULL_ROWS - FULL_P) // 2, FULL_ROWS - FULL_P])
def test_forecast_steps_predicts_the_last_windows_of_the_whole_normalized_frame(full_forecast, tmp_path,
                                                                                steps):
    csv_path, checkpoint, _ = full_forecast
    ckpt = load_checkpoint(checkpoint)
    model = MtgnnModel.from_checkpoint(ckpt, checkpoint)
    stats = NormStats(**ckpt.extra["norm_stats"])
    frame = normalize(log_transform(load_csv(csv_path)), stats)  # the run has no rebase rule
    windows = make_windows(frame, WindowSpec(P=FULL_P, Q=1))
    pred = invert_predictions(model.predict_windows(windows.x[-steps:])[:, :, 0], stats)
    actual = invert_predictions(windows.y[-steps:, :, 0], stats)
    expected = trace_csv(frame.dates[FULL_P:][-steps:], frame.columns, actual, pred)
    out = tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--steps", str(steps), "--out", str(out)]) == 0
    assert (out / "forecast.csv").read_bytes() == expected.encode()


def not_utf8(path):
    path.write_bytes(b"date,us\n2020-01-02,\xff\xfe\n")
    return str(path)


def prices(d):
    make_dataset(d / "prices.csv")
    return str(d / "prices.csv")


def taken(path):
    path.write_text("", encoding="utf-8")
    return str(path)


# Each builds, inside directory d, the argv of a command given an unusable path.
UNUSABLE_PATHS = {
    "analyze_csv_is_a_directory": lambda d: ["analyze", str(d), "--out", str(d / "o")],
    "train_config_is_a_directory": lambda d: ["train", "--config", str(d), "--out", str(d / "o")],
    "dataset_is_a_directory": lambda d: [
        "train", "--config", str(write_config(d / "run.json", d)), "--out", str(d / "o")],
    "forecast_checkpoint_is_a_directory": lambda d: [
        "forecast", "--checkpoint", str(d), "--csv", prices(d), "--out", str(d / "o")],
    "influence_adjacency_is_a_directory": lambda d: ["influence", str(d)],
    "csv_not_utf8": lambda d: ["analyze", not_utf8(d / "p.csv"), "--out", str(d / "o")],
    "adjacency_not_utf8": lambda d: ["influence", not_utf8(d / "adj.csv")],
    "checkpoint_not_utf8": lambda d: [
        "forecast", "--checkpoint", not_utf8(d / "c.json"), "--csv", prices(d), "--out", str(d / "o")],
    "out_is_a_file": lambda d: ["analyze", prices(d), "--out", taken(d / "o")],
}


@pytest.mark.parametrize("argv", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS.keys())
def test_unusable_path_exits_2(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "internal error" not in err


def oversized_cell(path):
    # one cell past the csv module's default field limit of 131,072 characters
    path.write_text("date,us\n2020-01-02," + "1" * 131_073 + "\n", encoding="utf-8")
    return str(path)


def deeply_nested(path):
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    return str(path)


def untrained_checkpoint(d):
    """An untrained MTGNN checkpoint with the metadata `forecast` reads."""
    config = MtgnnConfig(num_nodes=3, input_window=8, **TINY_MODEL)
    path = d / "checkpoint.json"
    MtgnnModel(config, Rng(0)).save(path, extra={
        "norm_stats": {"columns": ["us", "uk", "jp"], "mean": [0.0] * 3, "std": [1.0] * 3}})
    return str(path)


def bad_checkpoint(d, text):
    """The argv of a `forecast` from the checkpoint bad.json holding `text`,
    or, if `text` is a function, an untrained checkpoint's document it damaged."""
    if callable(text):
        doc = json.loads(Path(untrained_checkpoint(d)).read_text(encoding="utf-8"))
        text(doc)
        text = json.dumps(doc)
    (d / "bad.json").write_text(text, encoding="utf-8")
    return ["forecast", "--checkpoint", str(d / "bad.json"), "--csv", prices(d),
            "--out", str(d / "o")]


def bad_adjacency(d, labels, weights):
    """The argv of an `influence` on bad.csv, the graph of `weights` over `labels`."""
    (d / "bad.csv").write_text(matrix_csv("node", list(labels), np.array(weights, dtype=float)),
                               encoding="utf-8")
    return ["influence", str(d / "bad.csv")]


# Each builds, inside directory d, the argv of a command given an input its
# reader refuses outright, always named bad.csv or bad.json.
UNREADABLE_INPUTS = {
    "analyze_csv_oversized_cell": lambda d: [
        "analyze", oversized_cell(d / "bad.csv"), "--out", str(d / "o")],
    "influence_adjacency_oversized_cell": lambda d: ["influence", oversized_cell(d / "bad.csv")],
    "forecast_csv_oversized_cell": lambda d: [
        "forecast", "--checkpoint", untrained_checkpoint(d), "--csv", oversized_cell(d / "bad.csv"),
        "--out", str(d / "o")],
    "train_config_deeply_nested": lambda d: [
        "train", "--config", deeply_nested(d / "bad.json"), "--out", str(d / "o")],
    "forecast_checkpoint_deeply_nested": lambda d: [
        "forecast", "--checkpoint", deeply_nested(d / "bad.json"), "--csv", prices(d),
        "--out", str(d / "o")],
    "forecast_checkpoint_not_json": lambda d: bad_checkpoint(d, "{not json"),
    "forecast_checkpoint_not_an_object": lambda d: bad_checkpoint(d, "[]"),
    "forecast_checkpoint_without_params": lambda d: bad_checkpoint(
        d, lambda doc: doc.pop("params")),
    "forecast_checkpoint_params_not_an_object": lambda d: bad_checkpoint(
        d, lambda doc: doc.update(params=[])),
    "forecast_checkpoint_huge_alpha": lambda d: bad_checkpoint(
        d, lambda doc: doc["config"].update(alpha=10 ** 400)),
    "analyze_csv_empty": lambda d: ["analyze", taken(d / "bad.csv"), "--out", str(d / "o")],
    "influence_adjacency_nan_weight": lambda d: bad_adjacency(d, "ab", [[0, math.nan], [1, 0]]),
    "influence_adjacency_negative_weight": lambda d: bad_adjacency(d, "ab", [[0, -1], [1, 0]]),
    "influence_adjacency_self_edge": lambda d: bad_adjacency(d, "ab", [[1, 0], [0, 0]]),
    "influence_adjacency_repeated_label": lambda d: bad_adjacency(d, "aa", [[0, 1], [1, 0]]),
}


@pytest.mark.parametrize("argv", UNREADABLE_INPUTS.values(), ids=UNREADABLE_INPUTS.keys())
def test_an_unreadable_input_exits_2_naming_it_and_leaves_no_out_dir(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "bad.") in err
    assert not (tmp_path / "o").exists()


# JSON has no infinity, but 1e999 is a number that overflows to one.
INFINITE_DIVISOR = '[{"column": "us", "cutoff": "2020-01-10", "divisor": 1e999}]'


def refused_rebase(tmp_path, capsys, command, rules: str) -> str:
    """The stderr of `command` run with the JSON `rules` as its rebase rules,
    in its run document or, for forecast, its checkpoint, which must exit 2
    before --out is made."""
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    if command == "forecast":
        named = Path(untrained_checkpoint(tmp_path))
        doc = json.loads(named.read_text(encoding="utf-8"))
        doc["extra"]["rebase"] = "REBASE"
        argv = ["forecast", "--checkpoint", str(named), "--csv", str(csv_path)]
    else:
        named = write_config(tmp_path / "run.json", csv_path, rebase="REBASE")
        doc = json.loads(named.read_text(encoding="utf-8"))
        argv = [command, *([str(csv_path)] if command == "analyze" else []), "--config", str(named)]
    named.write_text(json.dumps(doc).replace('"REBASE"', rules), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert command != "forecast" or err.startswith(f"error: {named}: unusable checkpoint metadata")
    return err


@pytest.mark.parametrize("command", ["analyze", "train", "forecast"])
def test_an_infinite_rebase_divisor_exits_2_naming_it(tmp_path, capsys, command):
    # inf passes a bare `> 0` check, and dividing by it zeroes `us` before the cutoff.
    err = refused_rebase(tmp_path, capsys, command, INFINITE_DIVISOR)
    assert "rebase[0].divisor must be positive and finite, got inf" in err


@pytest.mark.parametrize("command", ["analyze", "train", "forecast"])
def test_a_rebase_rule_on_a_missing_series_exits_2_naming_its_key(tmp_path, capsys, command):
    rules = ('[{"column": "us", "cutoff": "2020-01-10", "divisor": 2},'
             ' {"column": "zz", "cutoff": "2020-01-10", "divisor": 2}]')
    err = refused_rebase(tmp_path, capsys, command, rules)
    assert err.endswith("rebase[1].column 'zz' is not a series of the panel\n")


# -- runtime failures -----------------------------------------------------------------


def test_a_diverging_train_exits_1_and_writes_no_checkpoint_or_report(tmp_path, capsys):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path,
                          train={"epochs": 2, "batch_size": 16, "learning_rate": 1e80})
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert "error: non-finite loss at epoch 1" in capsys.readouterr().err.splitlines()
    assert not (out / "checkpoint.json").exists() and not (out / "report.json").exists()


def test_an_unexpected_exception_exits_1_as_an_internal_error(capsys, monkeypatch):
    import marketgraph.graph

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(marketgraph.graph, "rank_influence", boom)
    assert main(["influence", str(FIXTURES / "g7_mint_adjacency.csv")]) == 1
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err.splitlines()


# -- argparse boundary ----------------------------------------------------------------


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["meditate"])
    assert err.value.code == 2
