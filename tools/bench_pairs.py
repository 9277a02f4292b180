"""Time this checkout against another revision with the benchmark, in alternating pairs.

    python tools/bench_pairs.py --against <rev> --workload W [W ...] --seeds 1 [2027 ...]
        --pairs N --out BENCH_<n>.json [--claim W:METRIC] [--what TEXT] [--work DIR]

`git archive <rev> src perfbench` unpacks the other revision into a work
directory (local git only), which is removed at the end unless `--work`
names it. For each workload and seed, N pairs of `perfbench/run.py --trace 0`
runs follow one another, one run in each tree, each for the `run_seconds`
that BENCHMARK.json declares.
The tree that runs first alternates from pair to pair, so a drift of the
machine's speed falls on both sides alike. Each end-to-end metric that
BENCHMARK.json declares, and the uncalibrated `raw_call_ms_p50`, gets both
sides' runs, medians and quartiles, and the number of pairs in which this
checkout's run was better and worse. `--claim` adds a summary of one metric
per seed: the wins, the ratio of medians and whether the gain of the medians
exceeds the other revision's interquartile range.

Results are merged into `--out`: entries of an existing file that this run
does not repeat are kept, so several invocations can build one file.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from revision import ROOT, unpack, work_directory

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The details line and the result line of one benchmark run in `tree`."""
    env = {k: v for k, v in os.environ.items() if k != "MARKETGRAPH_SEED"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result


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


def measure(trees: dict[str, Path], workload: str, seed: int, pairs: int, seconds: float,
            metrics: dict[str, str]) -> tuple[dict, dict]:
    """The entry of one workload and seed, and the environment the runs reported."""
    values = {side: {name: [] for name in metrics} for side in SIDES}
    counts = {side: {"attempted": 0, "failed": 0} for side in SIDES}
    firsts, env, src = [], {}, {}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        firsts.append(order[0])
        for side in order:
            details, result = run_once(trees[side], workload, seed, seconds)
            env = {k: v for k, v in details["environment"].items() if k not in ("commit", "src_sha256")}
            src[side] = details["environment"]["src_sha256"]
            counts[side]["attempted"] += result["attempted"]
            counts[side]["failed"] += result["failed"]
            for name in metrics:
                value = (details["raw_wall"]["call_ms_p50"] if name == "raw_call_ms_p50"
                         else result["metrics"][name]["value"])
                values[side][name].append(value)
            print(f"{workload} seed {seed} pair {pair + 1}/{pairs} {side}: "
                  + ", ".join(f"{n} {values[side][n][-1]:.4g}" for n in metrics), flush=True)
    entry = {"pairs": pairs, "first": firsts, "operations": counts, "src_sha256": src,
             "metrics": {name: compare(values["parent"][name], values["change"][name], better)
                         for name, better in metrics.items()}}
    return entry, env


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
    parser.add_argument("--workload", required=True, nargs="+")
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
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    metrics["raw_call_ms_p50"] = "lower"
    seconds = declared["run_seconds"]
    with work_directory(args.work, "bench-pairs-") as work:
        commit = unpack(args.against, ["src", "perfbench"], work / "parent")
        run_pairs(args, {"parent": work / "parent", "change": ROOT}, commit, seconds, metrics)
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
                   f"--seconds {seconds:g} --trace 0",
        "method": "tools/bench_pairs.py: alternating runs in a `git archive` of the parent "
                  "commit and in the change's checkout, one after another; the side that runs "
                  "first alternates per pair. Metrics are the calibrated values of each run's "
                  "last stdout line; raw_call_ms_p50 is the uncalibrated median wall time of "
                  "the main call.",
        "parent_commit": commit,
    })
    if args.what:
        doc["what"] = args.what
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        for seed in args.seeds:
            entry, env = measure(trees, workload, seed, args.pairs, seconds, metrics)
            workloads.setdefault(workload, {})[str(seed)] = entry
            doc["environment"] = env
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = {"workload": workload, "metric": metric,
                        "seeds": {seed: claim_summary(entry, metric)
                                  for seed, entry in workloads[workload].items()}}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    sys.exit(main())
