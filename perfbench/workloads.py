"""The benchmark's three workloads: the config files each one writes, the
`layerq` commands it runs and the library calls it times.

Every workload uses the default `SystemConfig` and the default oracle
settings. The benchmark seed only picks the run seeds, so the same seed gives
the same configs, commands and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

WORKLOADS = ("solve", "run", "learn")

# The learners the paper ranks, with the acceleration settings it uses.
LEARNERS = (
    ("centralized", {}),
    ("layered", {}),
    ("virtual-et", {"psi": 15}),
    ("td-lambda", {"psi": 15, "lam": 0.8}),
    ("grace", {}),
)

# Slot counts per run; the smoke sizes only exercise the plumbing. `run` and
# `learn` are shorter than the 20k-slot default so that each command lasts
# 2.5 to 4 s and a run repeats it several times (README.md gives the figures).
HORIZONS = {"solve": 64_000, "run": 8_000, "learn": 5_000}
SMOKE_HORIZONS = {"solve": 4_000, "run": 2_000, "learn": 4_000}
SMOKE_ESTIMATION_UNITS = 20_000


@dataclass(frozen=True)
class Workload:
    """One workload, materialised under `root`.

    `commands` are `layerq` argument lists, run one at a time; `runs` are the
    (config, seed) pairs whose `run_single` calls are timed in a warm process,
    all sharing the oracle of `configs[0]`.
    """

    name: str
    root: Path
    configs: tuple[Path, ...]
    commands: tuple[tuple[str, ...], ...]
    runs: tuple[tuple[Path, int], ...]

    @property
    def oracle_dir(self) -> Path:
        return self.root / "oracle"

    @property
    def output_dir(self) -> Path:
        return self.root / "output"


def run_seeds(workload: str, seed: int) -> tuple[int, ...]:
    """Run seeds for a benchmark seed: seed 0 gives the config defaults (1, 2, ...)."""
    if seed < 0:
        raise ValueError("--seed must be >= 0")
    count = {"solve": 1, "run": 5, "learn": 2}[workload]
    base = 10 * seed + 1
    return tuple(range(base, base + count))


def _config(name: str, algorithm: str, horizon: int, seeds, per_slot: bool, smoke: bool, **learner):
    data = {
        "name": name,
        "learner": {"algorithm": algorithm, **learner},
        "run": {"horizon": horizon, "seeds": list(seeds)},
        "outputs": {"per_slot": per_slot},
    }
    if smoke:
        data["oracle"] = {"estimation_units": SMOKE_ESTIMATION_UNITS}
    return data


def build(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """Write the workload's config files under `root` and describe its commands."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; workloads are {WORKLOADS}")
    horizon = (SMOKE_HORIZONS if smoke else HORIZONS)[name]
    seeds = run_seeds(name, seed)
    out = root / "output"
    if name == "solve":
        configs = {"greedy": _config("greedy", "oracle-greedy", horizon, seeds, False, smoke)}
    elif name == "run":
        configs = {"run": _config("centralized", "centralized", horizon, seeds, True, smoke)}
    else:
        configs = {
            alg: _config(alg, alg, horizon, seeds, False, smoke, **params) for alg, params in LEARNERS
        }
    cfg_dir = root / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, data in configs.items():
        path = cfg_dir / f"{stem}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
        paths.append(path)

    if name == "solve":
        commands = (
            ("oracle", str(paths[0]), "--out", str(root / "oracle")),
            ("run", str(paths[0]), "--out", str(out)),
        )
    elif name == "run":
        commands = (("run", str(paths[0]), "--out", str(out)),)
    else:
        commands = (("compare", *(str(p) for p in paths), "--out", str(out)),)
    runs = tuple((path, s) for path in paths for s in seeds)
    return Workload(name, root, tuple(paths), commands, runs)
