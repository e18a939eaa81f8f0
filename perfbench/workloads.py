"""The benchmark's workloads: the `oodcf.cli.main` calls each one makes.

Every workload is a list of argument vectors that one fresh interpreter
passes to `oodcf.cli.main` in order. The benchmark seed picks the program's
`--seeds`; nothing else about the inputs depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

APPROACHES = ("OOD CF", "OOD SG", "OOD SN", "OOD SD", "CFI")
TOY_APPROACHES = ("Mahalanobis Distance", "Marginal Mahalanobis Distance", "Custom metric")
TRAIN_FRACTION = 0.8  # the CLI default, used to size the toy test split


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple          # argv of each oodcf.cli.main call, in order
    seeds: tuple          # program seeds
    kind: str             # "run": counterfactual tables; "score": toy + score
    emit_trajectories: bool = False
    n_per_class: int = 0  # toy sizes; 0 for the bundled csv
    n_ood: int = 0

    def expected_files(self) -> list[str]:
        if self.kind == "score":
            return ["toy_auroc.csv", "toy_auroc_summary.csv", "toy_partition.csv",
                    "toy_projection.json", "toy_scatter.svg", "toy_trajectory_nd.svg",
                    "toy_trajectory_dn.svg", "scores.csv"]
        files = ["metrics.csv", "metrics.json", "metrics_summary.csv"]
        for s in self.seeds:
            files += [f"partition_seed{s}.csv", f"counterfactuals_seed{s}.csv"]
            if self.emit_trajectories:
                files.append(f"trajectories_seed{s}.csv")
        return files

    def score_rows(self) -> int:
        """Rows of scores.csv: the ID test split plus every OOD row."""
        id_test = self.n_per_class - int(TRAIN_FRACTION * self.n_per_class)
        return 2 * id_test + self.n_ood


def _seed_list(seeds) -> str:
    return ",".join(str(s) for s in seeds)


def build(name: str, seed: int, out: str, tiny: bool = False) -> Workload:
    """The workload `name` at benchmark seed `seed`, writing under `out`.

    `tiny` shrinks every workload to a few seconds while keeping every
    layer in play; it is for the benchmark's self-check only.
    """
    if name == "wine-run":
        # criterion-09 run: bundled 178 x 13 table, 5 seeds, all variants
        seeds = (seed,) if tiny else tuple(5 * seed + i for i in range(5))
        argv = ["run", "--config", "configs/wine_like.ini",
                "--seeds", _seed_list(seeds), "--out", out]
        if tiny:
            argv += ["--k", "4", "--max-iter", "20"]
        return Workload(name, (argv,), seeds, "run")
    if name == "toy-generate":
        n, n_ood = (100, 20) if tiny else (1000, 500)
        argv = ["run", "--n-per-class", str(n), "--n-ood", str(n_ood),
                "--seeds", str(seed), "--emit-trajectories", "--out", out]
        if tiny:
            argv += ["--max-iter", "20"]
        return Workload(name, (argv,), (seed,), "run", emit_trajectories=True,
                        n_per_class=n, n_ood=n_ood)
    if name == "toy-score":
        n = 2000 if tiny else 100_000
        seeds = (seed,) if tiny else tuple(5 * seed + i for i in range(5))
        common = ["--n-per-class", str(n), "--n-ood", str(n),
                  "--seeds", _seed_list(seeds), "--out", out]
        if tiny:
            common += ["--max-iter", "20"]
        return Workload(name, (["toy"] + common, ["score"] + common), seeds, "score",
                        n_per_class=n, n_ood=n)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("wine-run", "toy-generate", "toy-score")
