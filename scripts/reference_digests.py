#!/usr/bin/env python3
"""Run the reference CLI commands and print the sha256 of every output file
and of every command's stdout.

Each command writes into its own fixed directory under OUTROOT. One
`sha256  path` line is printed per file, with the path relative to OUTROOT,
and one `sha256  NAME/stdout` line per command, all sorted by path. Every
output file embeds the resolved config, `--out` included, and `score`
prints its output path, so two checkouts compare equal only when both are
run with the same OUTROOT string: run one, save its lines, clear OUTROOT,
run the other, and diff; `--compare SAVED` does that diff, prints the
differing lines to stderr and exits 1 on any difference. The commands run
from the repository root on the `src/` next to this script, one
interpreter each, with single-threaded BLAS.

Usage: python scripts/reference_digests.py OUTROOT [--compare SAVED]
"""

import argparse
import difflib
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
    ("wine_run_reordered", ["run", *WINE, "--seeds", "2,0", "--variants", "cfi,sd,full"]),
    ("wine_run_traj", ["run", *WINE, "--seeds", "0,1", "--emit-trajectories"]),
    ("toy_run_traj", ["run", "--n-ood", "500", "--seeds", "0", "--emit-trajectories"]),
    ("toy_run_seeds", ["run", "--n-ood", "500", "--seeds", "0,1,2"]),
    ("toy_run_q90_dn", ["run", "--n-ood", "200", "--seeds", "0", "--stop-quantile", "0.9",
                        "--order", "dn", "--emit-trajectories"]),
    ("toy_1e5", ["toy", *TOY_1E5, "--seeds", "0,1,2,3,4"]),
    ("toy_traj", ["toy", "--seeds", "0", "--emit-trajectories"]),
    ("score_toy_1e5", ["score", *TOY_1E5, "--seeds", "0"]),
    ("score_wine", ["score", *WINE, "--seeds", "0"]),
    ("score_wine_quartile", ["score", *WINE, "--ood-rule", "above_quartile:proline",
                             "--seeds", "0"]),
    ("score_wine_equals", ["score", *WINE, "--ood-rule", "equals:target=1", "--seeds", "0"]),
    ("partition_wine", ["partition", *WINE, "--seeds", "3"]),
    ("partition_toy", ["partition", "--seeds", "0"]),
)


def run_all(outroot: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    digests = {}
    for name, argv in COMMANDS:
        cmd = [sys.executable, "-m", "oodcf.cli", *argv, "--out", str(outroot / name)]
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True)
        if done.returncode != 0:
            raise SystemExit(f"{name}: exit {done.returncode}\n{done.stderr.decode()}")
        digests[f"{name}/stdout"] = hashlib.sha256(done.stdout).hexdigest()
    for path in outroot.rglob("*"):
        if path.is_file():
            digests[path.relative_to(outroot).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return [f"{digests[name]}  {name}" for name in sorted(digests)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every reference output")
    parser.add_argument("outroot", type=Path)
    parser.add_argument("--compare", type=Path, metavar="SAVED",
                        help="digest lines saved from an earlier run to diff against")
    args = parser.parse_args(argv)
    lines = run_all(args.outroot)
    print("\n".join(lines))
    if args.compare is None:
        return 0
    diff = list(difflib.unified_diff(args.compare.read_text().splitlines(), lines,
                                     str(args.compare), "this run", lineterm=""))
    sys.stderr.write("".join(line + "\n" for line in diff))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
