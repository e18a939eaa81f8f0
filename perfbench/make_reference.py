#!/usr/bin/env python3
"""Write perfbench/reference.json: the headline-table digest of each
workload at the reference seed, against which run.py checks later runs.

Usage, from the repository root: python3 perfbench/make_reference.py

Regenerate it only when a change of outputs is intended, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    env = run.pinned_env()
    reference = {}
    for name in workloads.NAMES:
        work = run.ROOT / run.WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workloads.build(name, run.REFERENCE_SEED, out=f"{run.WORK}/{name}/out")
        result = run.run_once(wl, env, work, trace=False)
        if result["problems"]:
            print(f"{name}: {result['problems']}", file=sys.stderr)
            return 1
        reference[name] = result["digest"]
        print(f"{name}: {result['wall']:.2f} s")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
