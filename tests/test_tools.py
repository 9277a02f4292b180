"""The pairing tool `tools/bench_pairs.py`, driven with stub runs: no
subprocess, no git."""
import importlib.util
import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("revision", None)


TREES = {"parent": Path("parent"), "change": Path("change")}


def test_measure_alternates_sides_cycles_pads_and_counts_wins(bench_pairs):
    calls = []
    # change is faster in pairs 0, 2 and 3, slower in pair 1, tied in pair 4
    change_ms = [9.0, 11.0, 8.0, 7.0, 10.0]

    def run(tree, env):
        calls.append((tree.name, len(env[bench_pairs.PAD_VAR])))
        value = 10.0 if tree.name == "parent" else change_ms[(len(calls) - 1) // 2]
        return ({"ms": value}, {"attempted": 2, "failed": 0},
                {"cpu": "x", "commit": "c", "src_sha256": tree.name})

    entry = bench_pairs.measure(run, TREES, "w", 5, {"ms": "lower"})
    assert [tree for tree, _ in calls] == ["parent", "change", "change", "parent", "parent",
                                           "change", "change", "parent", "parent", "change"]
    assert entry["first"] == ["parent", "change", "parent", "change", "parent"]
    pads = [0, 8, 24, 56, 0]
    assert entry[f"{bench_pairs.PAD_VAR}_bytes"] == pads
    assert [pad for _, pad in calls] == [pad for pad in pads for _ in range(2)]
    ms = entry["metrics"]["ms"]
    assert (ms["change_wins"], ms["change_losses"]) == (3, 1)
    assert ms["change"]["runs"] == change_ms and ms["parent"]["median"] == 10.0
    assert ms["ratio_of_medians"] == 0.9
    assert entry["operations"]["change"] == {"attempted": 10, "failed": 0}
    assert entry["src_sha256"] == {"parent": "parent", "change": "change"}
    assert entry["environment"] == {"cpu": "x"}


def test_bench_run_pairs_the_details_line_figures_rates_higher_and_times_lower(bench_pairs,
                                                                              monkeypatch):
    # change's backtest is faster (more windows/s) and its next-day call slower
    figures = {"parent": {"windows": 3000.0, "next_ms": 20.0},
               "change": {"windows": 3500.0, "next_ms": 21.0}}

    def run_child(argv, tree, what, env):
        fig = figures[tree.name]
        details = {"environment": {"python": "3"}, "raw_wall": {"call_ms_p50": 30.0},
                   "figures": {"next_day_calls": 20,
                               "forecast_next_ms_p50": {"value": fig["next_ms"], "unit": "ms"},
                               "forecast_next_ms_p90": {"value": 40.0, "unit": "ms"},
                               "forecast_windows_per_s": {"value": fig["windows"],
                                                          "unit": "windows/s"}}}
        result = {"attempted": 21, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": 50.0, "unit": "MB"}}}
        return [details, result]

    monkeypatch.setattr(bench_pairs, "run_child", run_child)
    metrics = {"peak_rss_mb": "lower", "raw_call_ms_p50": "lower"}
    entry = bench_pairs.measure(
        lambda tree, env: bench_pairs.bench_run(tree, env, "forecast", 1, 20, metrics),
        TREES, "forecast", 2, metrics)
    assert list(entry["metrics"]) == ["peak_rss_mb", "raw_call_ms_p50", "forecast_windows_per_s",
                                      "forecast_next_ms_p50"]
    rate = entry["metrics"]["forecast_windows_per_s"]
    next_ms = entry["metrics"]["forecast_next_ms_p50"]
    assert (rate["change_wins"], rate["change_losses"]) == (2, 0)
    assert rate["change"]["runs"] == [3500.0, 3500.0] and rate["parent"]["median"] == 3000.0
    assert (next_ms["change_wins"], next_ms["change_losses"]) == (0, 2)
    assert entry["metrics"]["raw_call_ms_p50"]["parent"]["runs"] == [30.0, 30.0]


def test_run_pairs_puts_every_workload_under_workloads_and_claims_any(bench_pairs, tmp_path,
                                                                      monkeypatch):
    def epoch_run(tree, env, workload, seed):
        value = {"parent": 5.0, "change": 4.0}[tree.name]
        metrics = bench_pairs.TOOL_WORKLOADS[workload]
        return dict.fromkeys(metrics, value), {"attempted": 1, "failed": 0}, {"blas_threads": 2}

    def bench_run(tree, env, workload, seed, seconds, metrics):
        assert (workload, seconds) == ("analyze", 20)
        return dict.fromkeys(metrics, 1.0), {"attempted": 3, "failed": 0}, {"python": "3"}

    monkeypatch.setattr(bench_pairs, "epoch_run", epoch_run)
    monkeypatch.setattr(bench_pairs, "bench_run", bench_run)
    out = tmp_path / "BENCH.json"
    args = Namespace(workload=["epoch", "compare", "analyze"], seeds=[1], pairs=2, out=str(out),
                     claim="compare:compare_s", what=None)
    bench_pairs.run_pairs(args, TREES, "abc", 20, {"call_ms_p50": "lower"})
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc["workloads"]) == {"epoch", "compare", "analyze"}
    assert set(doc["workloads"]["epoch"]["1"]["metrics"]) == {"epoch_s", "minflt_per_step"}
    assert doc["workloads"]["compare"]["1"]["environment"] == {"blas_threads": 2}
    assert doc["workloads"]["analyze"]["1"]["environment"] == {"python": "3"}
    assert doc["claim"] == {"workload": "compare", "metric": "compare_s", "seeds": {"1": {
        "pairs": 2, "change_wins": 2, "parent_median": 5.0, "change_median": 4.0,
        "parent_iqr": 0.0, "ratio_of_medians": 0.8, "gain_exceeds_parent_iqr": True}}}


def test_epoch_run_records_where_the_faults_of_a_comparison_went(bench_pairs, monkeypatch):
    argvs = []

    def run_child(argv, tree, what, env):
        argvs.append(argv)
        return [{"compare_s": 3.5, "kinds": 6, "minflt_self": 4000, "minflt_children": 9000,
                 "result_sha256": "ab"}]

    monkeypatch.setattr(bench_pairs, "run_child", run_child)
    values, counts, env = bench_pairs.epoch_run(Path("tree"), {}, "compare", 1)
    assert argvs[0][-1] == "--compare"
    assert values == {"compare_s": 3.5, "minflt_self": 4000, "minflt_children": 9000}
    assert counts == {"attempted": 1, "failed": 0}
    assert env["result_sha256"] == "ab"
    assert bench_pairs.TOOL_WORKLOADS["compare"] == {
        "compare_s": "lower", "minflt_self": "lower", "minflt_children": "lower"}


def test_epoch_compare_prints_the_fault_deltas_of_this_process_and_its_children(monkeypatch,
                                                                                 capsys):
    import resource

    import marketgraph

    spec = importlib.util.spec_from_file_location("epoch", TOOLS / "epoch.py")
    epoch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(epoch)
    # each getrusage call reads 10 more faults for this process, 100 more for its children
    reads = {resource.RUSAGE_SELF: 0, resource.RUSAGE_CHILDREN: 0}

    def getrusage(who):
        reads[who] += 1
        return Namespace(ru_minflt=reads[who] * (10 if who == resource.RUSAGE_SELF else 100))

    class Result:
        def to_dict(self):
            return {"models": {}}

    monkeypatch.setattr(sys, "path", [*sys.path])  # main puts --src first
    monkeypatch.setattr(epoch.resource, "getrusage", getrusage)
    monkeypatch.setattr(marketgraph, "run_comparison", lambda *args: Result())
    monkeypatch.setattr(marketgraph, "run_pipeline", lambda *args: None)
    assert epoch.main(["--compare", "--src", str(TOOLS.parent / "src")]) == 0
    line = json.loads(capsys.readouterr().out)
    assert (line["minflt_self"], line["minflt_children"]) == (10, 100)
    assert line["kinds"] == 6 and set(line) == {"compare_s", "kinds", "minflt_self",
                                                 "minflt_children", "result_sha256"}


def test_main_refuses_an_unknown_workload_before_unpacking(bench_pairs, tmp_path, monkeypatch,
                                                           capsys):
    def unpack(*args):
        raise AssertionError("unpacked")

    monkeypatch.setattr(bench_pairs, "unpack", unpack)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--against", "HEAD", "--workload", "epoch", "nope", "--seeds", "1",
                          "--pairs", "1", "--out", str(tmp_path / "BENCH.json")])
    assert exit_.value.code == 2
    assert "unknown workload nope" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()
