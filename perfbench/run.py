"""marketgraph benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload train_mtgnn --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workload's inputs are generated from ``--seed``. The loop issues the
workload's next operation only after the previous one returned, until
``--seconds`` have passed, and checks every output. The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it carries the environment and the
workload-specific figures. See perfbench/README.md for what each number means.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

ROOT = os.getcwd()
PACKAGE_DIR = os.path.join(ROOT, "src", "marketgraph")
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


# BLAS reads its thread count once, when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(_nproc())
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def import_package():
    """Import marketgraph afresh from ./src, as a new process would."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise SystemExit(f"error: no marketgraph sources under {os.path.join('src', 'marketgraph')}; "
                         "run from the repository root")
    for name in [n for n in sys.modules if n == "marketgraph" or n.startswith("marketgraph.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import marketgraph
    import marketgraph.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(marketgraph.__file__)) != PACKAGE_DIR:
        raise SystemExit(f"error: imported marketgraph from {marketgraph.__file__}, not ./src")
    return marketgraph


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": _nproc(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree with a loose ref, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> tuple[dict, dict]:
    import_package()
    env = environment()
    spec = workloads.WORKLOADS[args.workload]
    size = spec.sizes[args.size]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")

    def set_up(i):
        mg = import_package()
        return mg, spec.setup(mg, os.path.join(workdir, f"setup{i}"), args.seed, size)

    try:
        setup_samples = []
        for i in range(workloads.SETUP_REPEATS):
            (mg, state), wall, cal = workloads.timed(set_up, i)
            setup_samples.append((wall, cal))
        spec.prepare_checks(mg, state)

        tracer = Tracer() if args.trace else None
        records: list[workloads.Call] = []
        op_walls = {False: [], True: []}
        n = 0
        start = time.perf_counter()
        while n == 0 or time.perf_counter() - start < args.seconds or (tracer and n < 2):
            traced = tracer is not None and n % 2 == 1
            # Each operation starts clean, as a fresh CLI process would: the
            # autodiff tape and its tensors form reference cycles that only
            # the cyclic collector frees.
            gc.collect()
            if traced:
                tracer.install(mg)
            op_start = time.perf_counter()
            try:
                calls = spec.op(mg, state, tracer if traced else None)
            except Exception as exc:  # noqa: BLE001 - an operation that raises counts as failed
                calls = [workloads.Call("error", 0.0, {}, False, f"{type(exc).__name__}: {exc}")]
            finally:
                if traced:
                    tracer.uninstall()
            op_walls[traced].append(time.perf_counter() - op_start)
            for call in calls:
                call.traced = traced
            records.extend(calls)
            n += 1

        attempted = len(records)
        failed = sum(not c.ok for c in records)
        untraced = [c for c in records if not c.traced]
        main = [c for c in untraced if c.kind == spec.main_call and c.ok]
        kernels = spec.calibration
        details = {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "environment": env,
            "operations": n, "errors": sorted({c.error for c in records if c.error})[:5],
            "figures": spec.figures(state, untraced),
            "raw_wall": {
                "setup_s": float(np.median([w for w, _ in setup_samples])),
                "call_ms_p50": 1000.0 * float(np.median([c.seconds for c in main] or [0.0])),
                "call_samples": len(main),
                "calibration_ms_p50": {k: 1000.0 * float(np.median([c.cal[k] for c in main] or [0.0]))
                                       for k in workloads.CALIBRATION_KERNELS},
                "calibrated_by": kernels,
            },
        }
        if tracer is None:
            metrics = {
                "setup_s": (float(np.median([workloads.scaled(w, c, workloads.CALIBRATION_KERNELS)
                                             for w, c in setup_samples])), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "call_ms_p50": (1000.0 * float(np.median(
                    [workloads.scaled(c.seconds, c.cal, kernels) for c in main] or [0.0])), "ms"),
            }
        else:
            traced_ops = len(op_walls[True])
            overhead_ms = 1000.0 * (float(np.median(op_walls[True])) - float(np.median(op_walls[False])))
            bwd = tracer.backward_seconds(mg)
            metrics = layer_metrics(tracer, traced_ops, bwd, state.get("backtest_windows_traced", 0),
                                    state.get("checkpoint_bytes", 0), overhead_ms)
            details["span_calls"] = {k: v for k, v in sorted(tracer.calls.items()) if v}
            details["missing_spans"] = tracer.missing
            details["traced_operations"] = traced_ops
        result = {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        return details, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for perfbench/selfcheck.py")
    args = parser.parse_args(argv)
    details, result = run(args)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
