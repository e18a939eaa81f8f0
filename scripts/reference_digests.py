#!/usr/bin/env python3
"""Run the reference CLI commands and print the sha256 of every output file.

Each command writes into its own fixed directory under OUTROOT, and one
`sha256  path` line is printed per file, with the path relative to OUTROOT,
in sorted order. Every output file embeds the resolved config, `--out`
included, so two checkouts compare equal only when both are run with the
same OUTROOT string: run one, save its lines, clear OUTROOT, run the other,
and diff. The commands run from the repository root on the `src/` next to
this script, one interpreter each, with single-threaded BLAS.

Usage: python scripts/reference_digests.py OUTROOT
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WINE = ["--config", "configs/wine_like.ini"]
TOY_1E5 = ["--n-per-class", "100000", "--n-ood", "100000"]

# (output directory under OUTROOT, argv without --out)
COMMANDS = (
    ("wine_run", ["run", *WINE, "--seeds", "0,1"]),
    ("wine_run_traj", ["run", *WINE, "--seeds", "0,1", "--emit-trajectories"]),
    ("toy_run_traj", ["run", "--n-ood", "500", "--seeds", "0", "--emit-trajectories"]),
    ("toy_1e5", ["toy", *TOY_1E5, "--seeds", "0,1,2,3,4"]),
    ("score_toy_1e5", ["score", *TOY_1E5, "--seeds", "0"]),
    ("score_wine", ["score", *WINE, "--seeds", "0"]),
    ("partition_wine", ["partition", *WINE, "--seeds", "3"]),
    ("partition_toy", ["partition", "--seeds", "0"]),
)


def run_all(outroot: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, argv in COMMANDS:
        cmd = [sys.executable, "-m", "oodcf.cli", *argv, "--out", str(outroot / name)]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{name}: exit {done.returncode}\n{done.stderr}")
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(outroot).as_posix()}"
            for path in sorted(outroot.rglob("*")) if path.is_file()]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print("\n".join(run_all(Path(sys.argv[1]))))
