"""Check that this checkout writes the same artifacts as another revision.

    python tools/identity.py --against <rev> [--work DIR]

`git archive <rev> src` unpacks the other revision's package into the work
directory (local git only), which is removed at the end unless `--work`
names it. Both packages then run one fixed matrix of
`python -m marketgraph.cli` commands on the same inputs. Every artifact, and
each command's exit code, stdout and stderr (with its output root replaced by
`<out>`), is hashed with sha256 into `manifest.json` in the work directory.
Checkpoints are also decoded, each by its own tree's loader, and every
parameter's float64 bytes hashed, so a change of file format or entry order
reads apart from a change of value. For a differing text artifact whose
non-numeric text agrees, and for a differing parameter, the largest absolute
and relative difference is printed.

The matrix runs on two panels that this checkout's `coupled_var_system`
builds: 6 series x 350 days at P=12 with a rebase rule on the first series,
and 11 series x 2000 days at P=30. Each panel is run with the document's seed
and with MARKETGRAPH_SEED set: `analyze` with and without `--config`;
`train` and `compare` over all six model kinds at Q=1 and Q=2; `forecast`
from each trained checkpoint at `--steps` 0, 1, 256 and omitted; and
`influence` on each learned adjacency. The small panel is also written
irregularly (`irregular_panel`), so that loading it takes the row loop rather
than numpy's reader; it runs through `analyze`, and through
`forecast` from the small panel's checkpoints at `--steps` 1 and omitted.
Commands run one at a time with one BLAS thread. The exit status is 0 when
every manifest entry agrees.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from revision import ROOT, unpack, work_directory

KINDS = ["persistence", "ar", "var_mlp", "gru", "tcn", "mtgnn"]
SEEDS = {"doc_seed": None, "env_seed": "11"}
# (name, series, days, panel seed, P, train section)
PANELS = [
    ("small", 6, 350, 3, 12, {"epochs": 3, "batch_size": 8}),
    ("wide", 11, 2000, 4, 30, {"epochs": 1, "batch_size": 32}),
]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
# Saves the parameters of the checkpoint argv[1] to the .npz file argv[2], in file order.
DECODE = ("import sys, numpy\n"
          "from marketgraph.checkpoint import load_checkpoint\n"
          "numpy.savez(sys.argv[2], **load_checkpoint(sys.argv[1]).params)\n")


def irregular_panel(columns, rows) -> str:
    """CSV text of a panel's rows that only the row loop of `load_csv` takes:
    CRLF line endings, the first ten rows moved to the end, one quoted cell,
    one blank line, and one row with a blank cell, which loading drops."""
    lines = [["date", *columns], *rows[10:], *rows[:10]]
    lines[3] = [lines[3][0], f'"{lines[3][1]}"', *lines[3][2:]]
    lines[40] = [*lines[40][:-1], ""]
    lines.insert(80, [])
    return "".join(",".join(cells) + "\r\n" for cells in lines)


def write_inputs(inputs: Path) -> list[tuple[str, list[str], str | None]]:
    """Write the panels and run documents, and return the matrix as
    (case, argv, MARKETGRAPH_SEED or None); `{out}` in an argv stands for
    the tree's output root."""
    sys.path.insert(0, str(ROOT / "src"))
    from marketgraph.data import csv_text
    from marketgraph.synthetic import coupled_var_system

    inputs.mkdir(parents=True)
    matrix = []
    for name, series, days, seed, P, train in PANELS:
        frame = coupled_var_system(num_nodes=series, steps=days, seed=seed).frame
        csv_path = str(inputs / f"{name}.csv")
        rows = [[day.isoformat(), *map(repr, row.tolist())] for day, row in zip(frame.dates, frame.values)]
        Path(csv_path).write_text(csv_text(["date", *frame.columns], rows), encoding="utf-8")
        irregular = name == "small"
        irregular_path = str(inputs / f"{name}_irregular.csv")
        if irregular:
            Path(irregular_path).write_text(irregular_panel(frame.columns, rows), encoding="utf-8")
        rebase = ([{"column": frame.columns[0], "cutoff": frame.dates[120].isoformat(), "divisor": 10.0}]
                  if name == "small" else [])
        configs = {}
        for Q in (1, 2):
            configs[Q] = str(inputs / f"{name}_q{Q}.json")
            doc = {"dataset": csv_path, "seed": 7, "window": {"P": P, "Q": Q}, "rebase": rebase,
                   "train": train, "baselines": {"include": KINDS}}
            Path(configs[Q]).write_text(json.dumps(doc, indent=2), encoding="utf-8")
        for mode, env_seed in SEEDS.items():
            def add(step, *argv):
                case = f"{name}/{mode}/{step}"
                matrix.append((case, [a.replace("{case}", f"{{out}}/{case}") for a in argv], env_seed))

            add("analyze", "analyze", csv_path, "--out", "{case}")
            add("analyze_config", "analyze", csv_path, "--config", configs[1], "--out", "{case}")
            for Q in (1, 2):
                run = f"{{out}}/{name}/{mode}/train_q{Q}"
                add(f"train_q{Q}", "train", "--config", configs[Q], "--out", "{case}")
                add(f"compare_q{Q}", "compare", "--config", configs[Q], "--out", "{case}")
                for steps in ("0", "1", "256", None):
                    add(f"forecast_q{Q}_steps_{steps or 'all'}", "forecast", "--checkpoint",
                        f"{run}/checkpoint.json", "--csv", csv_path,
                        *(["--steps", steps] if steps else []), "--out", "{case}")
                add(f"influence_q{Q}", "influence", f"{run}/adjacency.csv")
                if irregular:
                    for steps in ("1", None):
                        add(f"irregular_forecast_q{Q}_steps_{steps or 'all'}", "forecast",
                            "--checkpoint", f"{run}/checkpoint.json", "--csv", irregular_path,
                            *(["--steps", steps] if steps else []), "--out", "{case}")
            if irregular:
                add("irregular_analyze", "analyze", irregular_path, "--out", "{case}")
    return matrix


def run_tree(src: Path, out: Path, matrix) -> float:
    """Run the matrix on the package in `src`, writing under `out`; each case's
    exit code, stdout and stderr go to its own directory. Returns seconds."""
    env = {k: v for k, v in os.environ.items() if k != "MARKETGRAPH_SEED"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    for case, argv, env_seed in matrix:
        argv = [a.replace("{out}", str(out)) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "marketgraph.cli", *argv], cwd=out,
                              env=env if env_seed is None else {**env, "MARKETGRAPH_SEED": env_seed},
                              capture_output=True, text=True)
        logs = out / case
        logs.mkdir(parents=True, exist_ok=True)
        (logs / "exit.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")
        for stream in ("stdout", "stderr"):
            text = getattr(proc, stream).replace(str(out), "<out>")
            (logs / f"{stream}.txt").write_text(text, encoding="utf-8")
    for ckpt in sorted(out.rglob("checkpoint.json")):
        target = out.parent / f"{out.name}-params" / ckpt.relative_to(out).with_suffix(".npz")
        target.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-c", DECODE, str(ckpt), str(target)], env=env, check=True)
    return time.perf_counter() - start


def hash_tree(out: Path) -> dict[str, str]:
    """sha256 of every file under `out`, and `<checkpoint>#<name>` entries
    with the shape and sha256 of each decoded parameter."""
    manifest = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}
    params = out.parent / f"{out.name}-params"
    for npz in sorted(params.rglob("*.npz")):
        ckpt = str(npz.relative_to(params).with_suffix(".json"))
        with np.load(npz) as arrays:
            for name in arrays.files:
                value = arrays[name].astype("<f8")
                manifest[f"{ckpt}#{name}"] = (f"{'x'.join(map(str, value.shape))} "
                                              f"{hashlib.sha256(value.tobytes()).hexdigest()}")
    return manifest


def largest_difference(xs, ys) -> str:
    """The largest absolute and relative difference between paired floats."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    same = (xs == ys) | (np.isnan(xs) & np.isnan(ys))
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(same, 0.0, np.abs(xs - ys))
        scale = np.maximum(np.abs(xs), np.abs(ys))
        rel = np.where(same, 0.0, gap / scale)
    gap, rel = np.nan_to_num(gap, nan=math.inf), np.nan_to_num(rel, nan=math.inf)
    return f"max abs diff {gap.max(initial=0.0):.3g}, max rel diff {rel.max(initial=0.0):.3g}"


def explain(key: str, base: Path, change: Path) -> str:
    """Why the entry `key` differs between the two output roots."""
    if "#" in key:
        ckpt, name = key.split("#", 1)
        npz = Path(ckpt).with_suffix(".npz")
        with np.load(base.parent / f"{base.name}-params" / npz) as a, \
                np.load(change.parent / f"{change.name}-params" / npz) as b:
            if name not in a.files or name not in b.files or a[name].shape != b[name].shape:
                return "parameter missing or of another shape"
            return largest_difference(a[name].ravel(), b[name].ravel())
    paths = [base / key, change / key]
    if not all(p.exists() for p in paths):
        return "written by one tree only"
    if key.endswith("checkpoint.json"):
        return "file bytes differ; see its parameters"
    try:
        texts = [p.read_text(encoding="utf-8") for p in paths]
    except UnicodeDecodeError:
        return "binary contents differ"
    if NUMBER.sub("#", texts[0]) != NUMBER.sub("#", texts[1]):
        a, b = (t.splitlines() for t in texts)
        line = next((i for i, (x, y) in enumerate(zip(a, b), 1)
                     if NUMBER.sub("#", x) != NUMBER.sub("#", y)), min(len(a), len(b)) + 1)
        return f"text differs beyond its numbers, first at line {line}"
    return largest_difference(*([float(m) for m in NUMBER.findall(t)] for t in texts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare this checkout with")
    parser.add_argument("--work", default=None,
                        help="directory for the trees, outputs and manifest, kept afterwards "
                             "(default: a temporary one, removed at the end)")
    args = parser.parse_args(argv)
    with work_directory(args.work, "identity-") as work:
        return compare_trees(args.against, work, keep=args.work is not None)


def compare_trees(against: str, work: Path, keep: bool) -> int:
    rev = unpack(against, ["src"], work / "base")
    matrix = write_inputs(work / "inputs")

    outs = {"base": work / "out-base", "change": work / "out-change"}
    manifests = {}
    for label, src in (("base", work / "base" / "src"), ("change", ROOT / "src")):
        outs[label].mkdir()
        seconds = run_tree(src, outs[label], matrix)
        manifests[label] = hash_tree(outs[label])
        print(f"{label} ({rev[:10] if label == 'base' else 'this checkout'}): "
              f"{len(matrix)} commands in {seconds:.1f} s")

    keys = sorted(set(manifests["base"]) | set(manifests["change"]))
    differing = [k for k in keys if manifests["base"].get(k) != manifests["change"].get(k)]
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps({"against": rev, "commands": len(matrix), **manifests,
                                         "differing": differing}, indent=1), encoding="utf-8")
    for key in differing:
        print(f"differs: {key}: {explain(key, outs['base'], outs['change'])}")
    print(f"{len(keys) - len(differing)} of {len(keys)} manifest entries identical; "
          + (f"manifest: {manifest_path}" if keep else "pass --work DIR to keep the manifest"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
