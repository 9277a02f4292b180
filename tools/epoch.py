"""Time one MTGNN training epoch, or one comparison, on the criterion-7 panel in this process.

    python tools/epoch.py [--src DIR] [--seed N] [--compare]

The panel is criterion 7's: `coupled_var_system(6, 3000, seed=101)` with its
noise, self weight and trend, windowed at P=30, Q=1, which gives 1,770
training windows. One epoch of the default `MtgnnConfig` at batch 8 is 222
steps plus the end-of-epoch validation pass. The package is imported from
`--src` (default: this checkout's `src`), so the same script times any
revision that `tools/revision.py` unpacks.

Prints one JSON line: the wall seconds of `train`, the number of steps, the
minor page faults (`ru_minflt`) taken during `train` per step, and the
training loss, whose bits tell whether two trees trained alike.

With `--compare` it times instead one `run_comparison` of every model kind
with the default `ComparisonSpec` at `COMPARE_EPOCHS` epochs, on the same
panel, as `marketgraph compare` runs it (forked workers included). It prints
the wall seconds (`compare_s`), the sha256 of the result's `to_dict()`
JSON, which tells whether two trees compared alike, and where the minor
page faults of the comparison went: `minflt_self`, those this process took,
and `minflt_children`, those its forked workers took (the `ru_minflt`
deltas of `getrusage` for `RUSAGE_SELF` and `RUSAGE_CHILDREN`; a child's
count is added once it is reaped, which `run_comparison` does before it
returns).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

BATCH = 8
COMPARE_EPOCHS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the marketgraph package to time")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--compare", action="store_true",
                        help=f"time one run_comparison of every kind at {COMPARE_EPOCHS} epochs")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from marketgraph import MtgnnConfig, MtgnnModel, Rng, TrainConfig, WindowSpec, run_pipeline, train
    from marketgraph.synthetic import coupled_var_system

    system = coupled_var_system(num_nodes=6, steps=3000, seed=101, noise_scale=0.005,
                                self_weight=0.5, trend_range=(1.0, 1.4))
    window = WindowSpec(P=30, Q=1)
    pipeline = run_pipeline(system.frame, window)
    if args.compare:
        from marketgraph import run_comparison
        from marketgraph.training import ComparisonSpec

        spec = ComparisonSpec(train=TrainConfig(epochs=COMPARE_EPOCHS, seed=args.seed))
        who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        faults = [resource.getrusage(w).ru_minflt for w in who]
        start = time.perf_counter()
        result = run_comparison(pipeline, window, spec)
        seconds = time.perf_counter() - start
        faults = [resource.getrusage(w).ru_minflt - f for w, f in zip(who, faults)]
        digest = hashlib.sha256(json.dumps(result.to_dict()).encode()).hexdigest()
        print(json.dumps({"compare_s": seconds, "kinds": len(spec.include),
                          "minflt_self": faults[0], "minflt_children": faults[1],
                          "result_sha256": digest}))
        return 0
    root = Rng(args.seed)
    model = MtgnnModel(MtgnnConfig(num_nodes=6, input_window=30, horizon=1), root.split())
    config = TrainConfig(epochs=1, batch_size=BATCH, seed=args.seed)
    steps = math.ceil(len(pipeline.train_windows) / BATCH)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = train(model, pipeline.train_windows, pipeline.validation_windows, config,
                   rng=root.split())
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(json.dumps({"epoch_s": seconds, "steps": steps, "minflt_per_step": faults / steps,
                      "train_loss": result.history[0]["train_loss"].hex()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
