"""Fast self-check of the benchmark at tiny input sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced at ``--size tiny`` and
asserts that:

* each run passes its own output checks and prints every metric named in
  BENCHMARK.json, with that metric's unit, and no other;
* every end-to-end value is positive;
* the traced ``analyze`` run makes no autodiff or model call, and the traced
  ``forecast`` run never calls ``Tape.backward`` or ``Adam.step``;
* in a directory holding only BENCHMARK.json and the benchmark's own files,
  the benchmark exits non-zero without printing a result.

Exits 0 when every assertion holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, lines = run_bench(workload, trace)
            if code != 0 or len(lines) < 2:
                failures.append(f"{label}: exit {code}, {len(lines)} stdout lines")
                continue
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}", failures)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: checks failed: {details['errors']}", failures)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace],
                  f"{label}: metric names/units differ: missing "
                  f"{sorted(set(expected[trace]) - set(got))}, extra {sorted(set(got) - set(expected[trace]))}, "
                  f"unit mismatches {sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])}",
                  failures)
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{label}: an end-to-end metric is not positive", failures)
                continue
            spans = details["span_calls"]
            check(not details["missing_spans"], f"{label}: untraceable {details['missing_spans']}", failures)
            if workload == "analyze":
                model_spans = [s for s in spans if s.startswith(("autodiff.", "mtgnn."))]
                check(not model_spans, f"{label}: bypass broken, called {model_spans}", failures)
            if workload == "forecast":
                for span in ("autodiff.Tape.backward", "optim.Adam.step"):
                    check(span not in spans, f"{label}: forecast called {span}", failures)

    bare = os.path.join(ROOT, ".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, lines = run_bench("analyze", 0, cwd=bare)
        check(code != 0 and not any(line.startswith('{"correct"') for line in lines),
              f"bare directory: exit {code}, stdout {lines[-1:] if lines else []}", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
