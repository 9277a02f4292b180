"""Time this checkout against another revision, in alternating pairs.

    python tools/bench_pairs.py --against <rev> --workload W [W ...] --seeds 1 [2027 ...]
        --pairs N --out BENCH_<n>.json [--claim W:METRIC] [--what TEXT] [--work DIR]

`git archive <rev> src perfbench` unpacks the other revision into a work
directory (local git only), and this checkout's working-tree `src` and
`perfbench` are copied beside it, so that both sides run from the same
place on disk. The work directory is removed at the end unless `--work`
names it. For each workload and seed, N pairs of runs follow one another,
one run in each tree. A run of a workload BENCHMARK.json declares is
`perfbench/run.py --trace 0` for the `run_seconds` it declares. `epoch` and
`compare` run `tools/epoch.py` (without and with its `--compare`) on one
tree's package in a fresh process: one MTGNN epoch on the criterion-7 panel
at batch 8 (`epoch_s`, `minflt_per_step`), or one default `run_comparison`
of all six kinds on that panel (`compare_s`, and the minor page faults of
the calling process and of its workers, `minflt_self` and
`minflt_children`). Other names are refused.

The tree that runs first alternates from pair to pair, so a drift of the
machine's speed falls on both sides alike. Both runs of a pair get one
extra environment variable, `BENCH_PAIRS_PAD`, whose length cycles through
`PAD_BYTES` from pair to pair, and each entry records the length of each
pair. The size of the environment shifts where a process's memory lands,
and that alone has moved `train_mtgnn`'s `call_ms_p50` by up to 18%; the
rotation keeps one tree from holding a lucky layout in every run while the
other holds an unlucky one.

Each metric (for a declared workload, each end-to-end metric BENCHMARK.json
declares, the uncalibrated `raw_call_ms_p50` and `raw_setup_s`, and the
figures of the run's details line that `FIGURES` names) gets both sides'
runs, medians and quartiles, and the number of pairs in which this
checkout's run was better and worse, in the entry `workloads/<name>/<seed>`
with the environment its runs reported. A figure whose unit ends in `/s` is
a rate and counts as better higher; every other metric as better lower.
`--claim` adds a summary of one metric per seed: the wins, the ratio of
medians and whether the gain of the medians exceeds the other revision's
interquartile range.

Results are merged into `--out`: entries of an existing file that this run
does not repeat are kept, so several invocations can build one file.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

from revision import ROOT, unpack, work_directory

SIDES = ("parent", "change")
PER_SIDE = ("src_sha256", "train_loss", "result_sha256")
# Workloads timed by tools/epoch.py instead of the benchmark: name -> its metrics.
TOOL_WORKLOADS = {"epoch": {"epoch_s": "lower", "minflt_per_step": "lower"},
                  "compare": {"compare_s": "lower", "minflt_self": "lower",
                              "minflt_children": "lower"}}
# Uncalibrated figures recorded beside the calibrated metrics: name -> key in a run's raw_wall.
RAW_WALL = {"raw_call_ms_p50": "call_ms_p50", "raw_setup_s": "setup_s"}
# Unbounded figures of a benchmark run's details line, recorded beside the end-to-end metrics.
FIGURES = ("forecast_windows_per_s", "forecast_next_ms_p50", "train_windows_per_s", "analyze_s",
           "compare_s")
# Lengths of the environment variable PAD_VAR, in bytes, one per pair in turn.
PAD_VAR, PAD_BYTES = "BENCH_PAIRS_PAD", (0, 8, 24, 56)


def run_child(argv: list[str], tree: Path, what: str, env: dict | None = None) -> list[dict]:
    """The JSON lines one run of `argv` in `tree` prints last (two at most)."""
    env = {k: v for k, v in os.environ.items() if k != "MARKETGRAPH_SEED"} | (env or {})
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {what} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]


def bench_run(tree: Path, env: dict, workload: str, seed: int, seconds: float,
              metrics) -> tuple[dict, dict, dict]:
    """One benchmark run in `tree` with `env` added to the environment: its
    metric values, then its `FIGURES` as the details line gives them
    ({"value", "unit"}), operation counts and environment."""
    details, result = run_child(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"],
                                tree, f"{workload} seed {seed}", env)
    values = {name: (details["raw_wall"][RAW_WALL[name]] if name in RAW_WALL
                     else result["metrics"][name]["value"]) for name in metrics}
    figures = details["figures"]
    values.update((name, figures[name]) for name in FIGURES if figures.get(name) is not None)
    counts = {"attempted": result["attempted"], "failed": result["failed"]}
    return values, counts, details["environment"]


def epoch_run(tree: Path, env: dict, workload: str, seed: int) -> tuple[dict, dict, dict]:
    """One `tools/epoch.py` run for `workload`, `epoch` or `compare`, on
    `tree`'s package with `env` added to the environment, and as many BLAS
    threads as the benchmark gives its runs."""
    threads = str(len(os.sched_getaffinity(0)))
    *_, line = run_child([str(ROOT / "tools" / "epoch.py"), "--src", str(tree / "src"),
                          "--seed", str(seed), *(["--compare"] if workload == "compare" else [])],
                         tree, f"{workload} seed {seed}",
                         env | {var: threads for var in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return ({name: line[name] for name in TOOL_WORKLOADS[workload]}, {"attempted": 1, "failed": 0},
            {"blas_threads": int(threads)} | {k: line[k] for k in PER_SIDE if k in line})


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    out = {"parent": spread(parent), "change": spread(change),
           "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
           "change_losses": sum(sign * (c - p) > 0 for p, c in zip(parent, change))}
    p_med = out["parent"]["median"]
    out["ratio_of_medians"] = out["change"]["median"] / p_med if p_med else None
    return out


def measure(run, trees: dict[str, Path], label: str, pairs: int,
            metrics: dict[str, str]) -> dict:
    """The entry of `pairs` alternating pairs of `run(tree, env)`, with the
    environment the runs reported. Both runs of a pair add the same `PAD_VAR`
    to the environment. Each side records what its runs report under the
    keys `PER_SIDE` names (the source hash, the epoch's loss bits).

    `metrics` gives the direction of each value a run returns as a number;
    a run may also return figures as {"value", "unit"}: a rate (a unit
    ending in /s) is better higher, any other figure lower."""
    better = dict(metrics)
    values = {side: {name: [] for name in metrics} for side in SIDES}
    counts = {side: {"attempted": 0, "failed": 0} for side in SIDES}
    firsts, pads, env, per_side = [], [], {}, {}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        firsts.append(order[0])
        pads.append(PAD_BYTES[pair % len(PAD_BYTES)])
        for side in order:
            run_values, run_counts, run_env = run(trees[side], {PAD_VAR: "x" * pads[-1]})
            env = {k: v for k, v in run_env.items() if k not in ("commit", *PER_SIDE)}
            per_side.update({(key, side): run_env[key] for key in PER_SIDE if key in run_env})
            for key in counts[side]:
                counts[side][key] += run_counts[key]
            for name, value in run_values.items():
                if isinstance(value, dict):
                    better.setdefault(name, "higher" if value["unit"].endswith("/s") else "lower")
                    value = value["value"]
                values[side].setdefault(name, []).append(value)
            print(f"{label} pair {pair + 1}/{pairs} {side}: "
                  + ", ".join(f"{n} {v[-1]:.4g}" for n, v in values[side].items()), flush=True)
    entry = {"pairs": pairs, "first": firsts, f"{PAD_VAR}_bytes": pads, "operations": counts}
    for (key, side), value in per_side.items():
        entry.setdefault(key, {})[side] = value
    entry["metrics"] = {name: compare(values["parent"][name], values["change"][name], direction)
                        for name, direction in better.items()}
    entry["environment"] = env
    return entry


def claim_summary(entry: dict, metric: str) -> dict:
    m = entry["metrics"][metric]
    parent, change = m["parent"], m["change"]
    iqr = parent["q3"] - parent["q1"]
    return {"pairs": entry["pairs"], "change_wins": m["change_wins"],
            "parent_median": parent["median"], "change_median": change["median"],
            "parent_iqr": iqr, "ratio_of_medians": m["ratio_of_medians"],
            "gain_exceeds_parent_iqr": abs(parent["median"] - change["median"]) > iqr
            and m["change_wins"] > m["change_losses"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare this checkout with")
    parser.add_argument("--workload", required=True, nargs="+",
                        help=f"BENCHMARK.json workloads, or {' or '.join(TOOL_WORKLOADS)}")
    parser.add_argument("--seeds", required=True, nargs="+", type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write or extend")
    parser.add_argument("--claim", help="WORKLOAD:METRIC to summarize per seed")
    parser.add_argument("--what", help="what the change does, recorded in the file")
    parser.add_argument("--work", default=None,
                        help="directory for the unpacked revision, kept afterwards "
                             "(default: a temporary one, removed at the end)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = set(args.workload) - {w["name"] for w in declared["workloads"]} - set(TOOL_WORKLOADS)
    if unknown:
        parser.error(f"unknown workload {', '.join(sorted(unknown))}")
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    metrics.update(dict.fromkeys(RAW_WALL, "lower"))
    seconds = declared["run_seconds"]
    with work_directory(args.work, "bench-pairs-") as work:
        commit = unpack(args.against, ["src", "perfbench"], work / "parent")
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, work / "change" / part,
                            ignore=shutil.ignore_patterns("__pycache__"), dirs_exist_ok=True)
        run_pairs(args, {"parent": work / "parent", "change": work / "change"}, commit,
                  seconds, metrics)
    return 0


def run_pairs(args, trees: dict[str, Path], commit: str, seconds: float, metrics: dict) -> None:
    """Measure every workload and seed of `args` in `trees` and merge the
    entries into `args.out`."""
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if doc.get("parent_commit", commit) != commit:
        raise SystemExit(f"error: {out} compares against {doc['parent_commit']}, not {commit}")
    doc.update({
        "command": "python3 perfbench/run.py --workload <W> --seed <n> "
                   f"--seconds {seconds:g} --trace 0; for epoch and compare: "
                   "python3 tools/epoch.py --src <tree>/src --seed <n> [--compare]",
        "method": "tools/bench_pairs.py: alternating runs in a `git archive` of the parent "
                  "commit and in a copy of the change's working tree beside it, one after "
                  "another; the side that runs first alternates per pair, and both runs of a pair "
                  f"add {PAD_VAR} to the environment, its length in bytes cycling through "
                  f"{list(PAD_BYTES)} per pair ({PAD_VAR}_bytes). Metrics are the "
                  "calibrated values of each run's last stdout line; raw_call_ms_p50 is the "
                  "uncalibrated median wall time of the main call, raw_setup_s that of "
                  f"the workload's set-up, and {', '.join(FIGURES)} are the figures of each "
                  "run's details line (better higher for a unit ending in /s, else lower).",
        "parent_commit": commit,
    })
    if args.what:
        doc["what"] = args.what
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        run = (epoch_run if workload in TOOL_WORKLOADS
               else partial(bench_run, seconds=seconds, metrics=metrics))
        for seed in args.seeds:
            workloads.setdefault(workload, {})[str(seed)] = measure(
                lambda tree, pad: run(tree, pad, workload, seed), trees,
                f"{workload} seed {seed}", args.pairs, TOOL_WORKLOADS.get(workload, metrics))
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = {"workload": workload, "metric": metric,
                        "seeds": {seed: claim_summary(entry, metric)
                                  for seed, entry in workloads[workload].items()}}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    sys.exit(main())
