#!/usr/bin/env python3
"""Benchmark of the oodcf command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each run of a workload is one fresh interpreter (child.py) that calls
`oodcf.cli.main` from the checkout's `src/`. Runs repeat until about
`--seconds` have passed; every run's outputs are checked (checks.py).

--trace 0 prints the end-to-end metrics: median wall time of the main
calls, rows per second, set-up time (interpreter start plus `import
oodcf.cli`, median of several), median peak RSS, and the shares of rows
and of runs that came out right. --trace 1 alternates untraced and traced
runs and prints the per-layer metrics of the traced ones (spans.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it are for people: run facts, one line per run and,
when traced, the layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_work"          # under ROOT; ignored by git
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 7
OVERRUN = 1.1                     # a run may end this share past --seconds
CHILD_TIMEOUT_S = 150
HARD_LIMIT_S = 150                # no run may be expected to end later than this


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),   # the checkout's package, nothing else
        "OODCF_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def measure_setup(env: dict) -> float:
    """Median time to start the interpreter and import oodcf.cli."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import oodcf.cli"], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])  # the first start may write bytecode caches


def run_once(wl, env: dict, work: Path, trace: bool) -> dict:
    """One fresh-interpreter run of the workload, with its outputs checked."""
    out = ROOT / wl.calls[0][wl.calls[0].index("--out") + 1]
    shutil.rmtree(out, ignore_errors=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {"calls": list(wl.calls), "trace": trace, "result": str(result_path)}
    with open(work / "stdout.txt", "w") as so, open(work / "stderr.txt", "w") as se:
        try:
            subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                           cwd=ROOT, env=env, stdout=so, stderr=se,
                           timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # subprocess.run has killed and reaped the child
    run = {"trace": trace, "problems": [], "digest": None}
    if not result_path.exists():
        run["problems"].append("the run wrote no result; see stderr.txt")
        return run
    run.update(json.loads(result_path.read_text()))
    run["wall"] = sum(run["walls"])
    stderr = (work / "stderr.txt").read_text(errors="replace")
    run["problems"], run["digest"] = checks.check_run(wl, out, run["codes"], stderr)
    run["bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return run


def measure(wl, env: dict, work: Path, seconds: float, trace: bool) -> list[dict]:
    """Runs for about `seconds`: another run starts only while it is expected
    to end within OVERRUN of them. With `trace`, odd runs are traced."""
    runs, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs.append(run_once(wl, env, work, trace and len(runs) % 2 == 1))
        last = time.perf_counter() - t0
        expected_end = time.perf_counter() - start + last
        if trace and len(runs) < 2:
            continue
        if expected_end > min(OVERRUN * seconds, HARD_LIMIT_S):
            return runs


def facts() -> dict:
    """Where and on what the numbers were measured; reported, not gated."""
    import numpy as np
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for p in src:
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except Exception:  # the layout of numpy's build report is not a stable API
        openblas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def end_to_end(runs: list[dict], setup_s: float) -> dict:
    timed = [r for r in runs if "wall" in r]
    rows = sum(r["digest"]["rows"] for r in timed)
    return {
        "wall_s": (statistics.median(r["wall"] for r in timed), "s"),
        "rows_per_s": (statistics.median(r["digest"]["rows"] / r["wall"] for r in timed),
                       "rows/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        "rows_ok_frac": (sum(r["digest"]["rows_ok"] for r in timed) / rows if rows else 0.0,
                         "ratio"),
        "checks_ok_frac": (sum(not r["problems"] for r in runs) / len(runs), "ratio"),
    }


def per_layer(runs: list[dict], work: Path) -> dict:
    import spans
    untraced = [r["wall"] for r in runs if "wall" in r and not r["trace"]]
    traced = [r for r in runs if "wall" in r and r["trace"]]
    per_run = [spans.layer_metrics(r["spans"], r["wall"], r["absent"]) for r in traced]
    # counts repeat exactly, so median_low keeps them whole numbers
    metrics = {name: (statistics.median_low if isinstance(value, int) else statistics.median)(
        [m[name] for m in per_run]) for name, value in per_run[0].items()}
    metrics["cli.bytes_written"] = traced[-1]["bytes"]
    metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(untraced or [0.0]))
    (work / "spans.json").write_text(json.dumps(
        {"wall": traced[-1]["wall"], "absent": traced[-1]["absent"],
         "spans": traced[-1]["spans"]}))
    print(f"layer table of the last traced run (wall {traced[-1]['wall']:.3f} s):")
    print(f"  {'span':<32} {'calls':>6} {'total_s':>9} {'self_s':>9}")
    for name, row in sorted(spans.layer_table(traced[-1]["spans"]).items(),
                            key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<32} {int(row['calls']):>6} {row['total_s']:>9.3f} "
              f"{row['self_s']:>9.3f}")
    if traced[-1]["absent"]:
        print(f"absent from oodcf.cli: {', '.join(traced[-1]['absent'])}")
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    if "us_per_" in name:
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "B" if name.endswith("bytes_written") else "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long inputs for the self-check; no reference check")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "oodcf" / "cli.py").is_file():
        print(f"no oodcf sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    seed = args.seed % 1_000_000
    work = ROOT / WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.build(args.workload, seed,
                         out=f"{WORK}/{args.workload}/out", tiny=args.tiny)
    env = pinned_env()
    print("facts: " + json.dumps(facts(), sort_keys=True))

    setup_s = None if args.trace else measure_setup(env)
    runs = measure(wl, env, work, args.seconds, bool(args.trace))
    reference = None
    if seed == REFERENCE_SEED and not args.tiny:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    for i, run in enumerate(runs):
        if reference is not None and run["digest"] is not None:
            run["problems"] += checks.compare(run["digest"], reference)
        wall = f"{run['wall']:.3f} s" if "wall" in run else "-"
        print(f"run {i}: trace={int(run['trace'])} wall={wall} "
              f"problems={run['problems'] or 'none'}")

    failed = sum(bool(r["problems"]) for r in runs)
    timed = any("wall" in r for r in runs)
    if timed and (not args.trace or any("wall" in r for r in runs if r["trace"])):
        metrics = per_layer(runs, work) if args.trace else end_to_end(runs, setup_s)
    else:
        metrics = {}
    print(json.dumps({
        "correct": failed == 0 and bool(metrics), "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
