"""Command-line behavior: config parsing, artifacts, exit codes, manifests."""
import builtins
import copy
import csv
import errno
import io
import json
import re
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from conftest import build_frame, write_frame_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from marketgraph import ConfigError
from marketgraph.cli import RunConfig, main, parse_run_config
from marketgraph.synthetic import coupled_var_system

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
    assert cfg.dataset == "prices.csv"
    assert cfg.seed == 11
    assert cfg.split.train == 0.7
    assert cfg.window.P == 12 and cfg.window.Q == 2
    assert cfg.rebase[0].column == "tr"
    assert cfg.rebase[0].cutoff.isoformat() == "2005-01-01"
    assert cfg.rebase[0].divisor == 1000000.0
    assert cfg.train.epochs == 4
    assert cfg.train.seed == 11  # top-level seed feeds the train config
    assert cfg.model == {"num_layers": 2}


def test_parse_run_config_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{}", encoding="utf-8")
    cfg = parse_run_config(path)
    assert cfg.dataset is None
    assert cfg.seed == 0
    assert cfg.window.P == 30 and cfg.window.Q == 1
    assert cfg.train.epochs == 30


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
    from dataclasses import replace

    from marketgraph import TrainConfig
    from marketgraph.baselines import MlpSpec
    from marketgraph.training import ComparisonSpec
    from marketgraph.cli import _comparison_spec
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"num_layers": 2},
                                "baselines": {"mlp_epochs": 3, "ar_order": 2,
                                              "include": ["ar", "tcn"]}}),
                    encoding="utf-8")
    cfg = parse_run_config(path)
    train_cfg = TrainConfig(epochs=1)
    spec = _comparison_spec(cfg, train_cfg)
    assert spec == replace(ComparisonSpec(), train=train_cfg, mlp=MlpSpec(epochs=3), ar_order=2,
                           include=("ar", "tcn"), mtgnn={"num_layers": 2})


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
    from marketgraph import TrainConfig, WindowSpec
    from marketgraph.data import RebaseRule, SplitSpec
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FULL_DOC), encoding="utf-8")
    cfg = parse_run_config(path)
    assert (cfg.dataset, cfg.seed) == ("prices.csv", 2)
    assert cfg.split == SplitSpec(**FULL_DOC["split"])
    assert cfg.window == WindowSpec(**FULL_DOC["window"])
    assert cfg.rebase == (RebaseRule(column="us", cutoff=date(2020, 1, 2), divisor=10.0),)
    assert cfg.train == TrainConfig(seed=2, **FULL_DOC["train"])
    assert cfg.model == FULL_DOC["model"] and cfg.baselines == FULL_DOC["baselines"]

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

    with open(out / "history.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_loss"]
    assert len(rows) == 3

    ckpt = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
    assert ckpt["kind"] == "mtgnn"
    assert ckpt["extra"]["labels"] == ["us", "uk", "jp"]
    assert ckpt["extra"]["window"] == {"P": 8, "Q": 1}


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
    assert "seed must be nonnegative" in capsys.readouterr().err


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
    csv_path = tmp_path / "prices.csv"
    write_frame_csv(coupled_var_system(num_nodes=3, steps=40, seed=1).frame, csv_path)
    config = write_config(tmp_path / "run.json", csv_path, window={"P": 30, "Q": 1})
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("field", ["learning_rate", "l2_coefficient"])
def test_an_infinite_rate_leaves_no_out_dir(tmp_path, capsys, command, field):
    # JSON has no infinity, but 1e999 is a number that overflows to one
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path, train={"epochs": 1, field: 7.5})
    config.write_text(config.read_text(encoding="utf-8").replace("7.5", "1e999"), encoding="utf-8")
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
    text = (out / "comparison.md").read_text(encoding="utf-8")
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
    assert payload["errors"]["ar"].startswith("DataError: window of 8 steps is shorter than AR order 20")


@pytest.mark.parametrize("baselines", [{"ar_order": "2"}, {"tcn_blocks": True},
                                       {"include": "ar"}, {"mlp_hidden": 2.5}],
                         ids=["str_order", "bool_blocks", "include_string", "float_mlp_hidden"])
def test_compare_mistyped_baseline_knob_exits_2(tmp_path, capsys, baselines):
    csv_path = tmp_path / "prices.csv"
    make_dataset(csv_path)
    config = write_config(tmp_path / "run.json", csv_path,
                          baselines={"include": ["persistence", "ar"], **baselines})
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "internal error" not in err
    assert not (tmp_path / "cmp" / "comparison.json").exists()


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


MALFORMED_METADATA = {
    "window_without_P": lambda extra: extra["window"].pop("P"),
    "str_P": lambda extra: extra["window"].update(P="3"),
    "rebase_without_cutoff": lambda extra: extra.update(rebase=[{"column": "us", "divisor": 2.0}]),
    "norm_stats_without_std": lambda extra: extra["norm_stats"].pop("std"),
    "mean_of_wrong_length": lambda extra: extra["norm_stats"].update(mean=[0.0]),
    "Q_not_the_horizon": lambda extra: extra["window"].update(Q=2),
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


# -- argparse boundary ----------------------------------------------------------------


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["meditate"])
    assert err.value.code == 2
