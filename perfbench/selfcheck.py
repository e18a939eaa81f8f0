#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes, a few seconds per workload.

Usage, from the repository root: python3 perfbench/selfcheck.py

For every workload it runs `run.py --tiny` untraced and traced, and checks
that each run is correct, that every end-to-end and per-layer metric of
BENCHMARK.json is printed with its unit, that untraced runs never load the
span wrapper, and that the traced run's layer self times plus cli.self_s
add up to its wall time. It also checks that a cli module lacking layer
names is traced with those names absent instead of failing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types

import run
import spans
import workloads


def bench_once(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--tiny",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(name: str, bench: dict) -> list[str]:
    problems = []
    work = run.ROOT / run.WORK / name
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench_once(name, trace)
        if not result["correct"]:
            problems.append(f"{name} trace={trace}: not correct")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{name} trace={trace}: missing {sorted(set(want) - set(got))}, "
                            f"unexpected {sorted(set(got) - set(want))}, units "
                            f"{ {k: got[k] for k in set(got) & set(want) if got[k] != want[k]} }")
        if trace == 0 and json.loads((work / "result.json").read_text())["wrapper_loaded"]:
            problems.append(f"{name}: an untraced run loaded the span wrapper")
    traced = json.loads((work / "spans.json").read_text())
    cli_self = spans.layer_metrics(traced["spans"], traced["wall"], traced["absent"])["cli.self_s"]
    accounted = sum(spans.self_times(traced["spans"])) + cli_self
    if abs(accounted - traced["wall"]) > 1e-9 * max(1.0, traced["wall"]):
        problems.append(f"{name}: self times + cli.self_s = {accounted}, "
                        f"traced wall = {traced['wall']}")
    return problems


def check_absent_names() -> list[str]:
    stub = types.ModuleType("stub_cli")
    stub.split = lambda ds, spec: (ds, spec)
    tracer = spans.Tracer()
    tracer.install(stub)
    stub.split(1, 2)
    metrics = spans.layer_metrics(tracer.spans, 1.0, tracer.absent)
    if (len(tracer.spans) != 1 or metrics["trace.absent_names"] != len(spans.TARGETS) - 1
            or metrics["partition.search_s"] != 0.0):
        return [f"absent names not tolerated: spans {tracer.spans}, absent {tracer.absent}"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_absent_names()
    for name in workloads.NAMES:
        problems += check_workload(name, bench)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
