"""Output checks for one workload run.

Every run must exit 0, write the workload's expected files, and write only
finite numbers. `digest` condenses the headline tables into a small dict;
at the reference seed it must agree with reference.json: partitions
exactly, numbers within REL_TOL.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from workloads import APPROACHES, TOY_APPROACHES

REL_TOL = 1e-6   # headroom for reduction-order changes; 1e-10 drift is the refactor gate
ABS_TOL = 1e-9
_NON_FINITE_TEXT = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None  # a label, a subset like 0|2|5, or an empty loss of a failed row


def scan_csv(path: Path, keep: bool = True) -> dict:
    """Header, rows (when `keep`), row count, rows with no error and only
    finite numbers, and per-column sums of numeric cells."""
    header, rows, n_rows, n_ok = None, [], 0, 0
    sums: list[float] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        for row in reader:
            if header is None:
                header = row
                sums = [0.0] * len(row)
                err_col = row.index("error") if "error" in row else None
                continue
            n_rows += 1
            ok = len(row) == len(header) and (err_col is None or row[err_col] == "")
            for j, cell in enumerate(row[:len(sums)]):
                value = _number(cell)
                if value is None:
                    continue
                if not math.isfinite(value):
                    ok = False
                sums[j] += value
            n_ok += ok
            if keep:
                rows.append(row)
    return {"header": header or [], "rows": rows, "n_rows": n_rows, "n_ok": n_ok,
            "sums": dict(zip(header or [], sums))}


def _finite_json(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return True


def _chosen_subset(scan: dict) -> str:
    col = scan["header"].index("chosen")
    chosen = [r[scan["header"].index("subset")] for r in scan["rows"] if r[col] == "1"]
    return chosen[0] if len(chosen) == 1 else f"<{len(chosen)} chosen rows>"


def _summary(scan: dict, names) -> dict:
    table = {r[0]: [float(c) for c in r[1:]] for r in scan["rows"]}
    return {name: table.get(name) for name in names}


def check_run(wl, out: Path, codes: list, stderr: str) -> tuple[list[str], dict]:
    """Problems found in one run's outputs, and the run's digest:
    rows, ok rows, headline tables, chosen z_d per seed, score column sums."""
    problems = [f"main call {i} exited {rc}" for i, rc in enumerate(codes) if rc != 0]
    if "Traceback" in stderr:
        problems.append("a traceback reached stderr")
    if (out / "error.json").exists():
        problems.append("error.json written")
    missing = [f for f in wl.expected_files() if not (out / f).is_file()]
    problems += [f"missing {f}" for f in missing]
    digest = {"rows": 0, "rows_ok": 0, "summary": {}, "z_d": {}, "score_sums": {}}
    if missing:
        return problems, digest

    for f in wl.expected_files():
        path = out / f
        if f.endswith(".csv"):
            scan = scan_csv(path, keep=not f.startswith(("scores", "trajectories")))
            if scan["n_rows"] == 0:
                problems.append(f"{f} has no rows")
            if f.startswith(("counterfactuals", "scores")):
                digest["rows"] += scan["n_rows"]
                digest["rows_ok"] += scan["n_ok"]
            elif scan["n_ok"] != scan["n_rows"]:
                problems.append(f"{f}: {scan['n_rows'] - scan['n_ok']} rows not finite")
            if f.startswith("counterfactuals"):
                per_approach = [sum(r[1] == a for r in scan["rows"]) for a in APPROACHES]
                expected = wl.n_ood or per_approach[0]
                if per_approach != [expected] * len(APPROACHES):
                    problems.append(f"{f}: rows per approach {per_approach}")
            elif f.startswith("partition_seed"):
                digest["z_d"][f[len("partition_seed"):-4]] = _chosen_subset(scan)
            elif f == "toy_partition.csv":
                digest["z_d"]["toy"] = _chosen_subset(scan)
            elif f == "metrics_summary.csv":
                digest["summary"] = _summary(scan, APPROACHES)
            elif f == "toy_auroc_summary.csv":
                digest["summary"] = _summary(scan, TOY_APPROACHES)
            elif f == "scores.csv":
                if scan["n_rows"] != wl.score_rows():
                    problems.append(f"scores.csv has {scan['n_rows']} rows, "
                                    f"expected {wl.score_rows()}")
                digest["score_sums"] = {k: v for k, v in scan["sums"].items()
                                        if k != "row_id"}
        elif f.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                if not _finite_json(json.load(fh)):
                    problems.append(f"{f} holds a non-finite number")
        elif _NON_FINITE_TEXT.search(path.read_text(encoding="utf-8")):
            problems.append(f"{f} holds a non-finite number")
    if any(v is None for v in digest["summary"].values()):
        problems.append("a headline table lacks an approach")
    if digest["rows_ok"] != digest["rows"] and wl.kind == "score":
        problems.append("scores.csv holds non-finite scores")
    return problems, digest


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def compare(digest: dict, ref: dict) -> list[str]:
    """Differences between a run's digest and the reference digest."""
    problems = []
    if digest["z_d"] != ref["z_d"]:
        problems.append(f"chosen z_d {digest['z_d']} != reference {ref['z_d']}")
    for name, want in ref["summary"].items():
        got = digest["summary"].get(name)
        if got is None or len(got) != len(want) or not all(map(_close, got, want)):
            problems.append(f"{name}: {got} != reference {want}")
    for col, want in ref["score_sums"].items():
        got = digest["score_sums"].get(col)
        if got is None or not _close(got, want):
            problems.append(f"scores.csv sum of {col}: {got} != reference {want}")
    if (digest["rows"], digest["rows_ok"]) != (ref["rows"], ref["rows_ok"]):
        problems.append(f"rows/ok rows {digest['rows']}/{digest['rows_ok']} "
                        f"!= reference {ref['rows']}/{ref['rows_ok']}")
    return problems
