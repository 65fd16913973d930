"""Checks of the workloads' outputs against properties of the method.

None of them compares against a stored copy of earlier output: each one
recomputes what the output must satisfy from the config, from the solver's
own identities or from the paper's ranking. Every check returns a list of
failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

SLOT_COLUMNS = ("n", "f", "z", "q", "u", "h", "arrivals", "overflow", "reward", "gain", "j1", "j2", "delta")
FLOAT_TOL = 1e-12


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def n_states(system) -> int:
    return len(system.frequencies) * len(system.unit_types) * (system.capacity + 1)


def check_oracle_outputs(system, oracle_dir) -> list[str]:
    """weights.csv is a distribution over the states; policy.csv holds one
    in-range action for each state, in state-index order."""
    out = Path(oracle_dir)
    errors = []
    n = n_states(system)
    weights = np.array([float(r["weight"]) for r in read_rows(out / "weights.csv")])
    if weights.size != n:
        errors.append(f"weights.csv has {weights.size} rows, expected {n}")
    if np.any(weights < 0):
        errors.append(f"weights.csv has {int(np.sum(weights < 0))} negative weight(s)")
    if abs(weights.sum() - 1.0) > 1e-9:
        errors.append(f"weights.csv sums to {weights.sum()!r}, not 1")

    policy = read_rows(out / "policy.csv")
    if len(policy) != n:
        errors.append(f"policy.csv has {len(policy)} rows, expected {n}")
    n_types = len(system.unit_types)
    n_levels = system.capacity + 1
    for i, row in enumerate(policy):
        s, f, z, q, u, h = (int(row[k]) for k in ("s", "f", "z", "q", "u", "h"))
        if s != i or (f, z, q) != (i // (n_types * n_levels), (i // n_levels) % n_types, i % n_levels):
            errors.append(f"policy.csv row {i}: state columns {(s, f, z, q)} do not index state {i}")
            break
        if not (0 <= u < len(system.frequencies) and 0 <= h < len(system.configs)):
            errors.append(f"policy.csv row {i}: action (u={u}, h={h}) out of range")
            break
    return errors


def batch_means_se(values: np.ndarray, batches: int = 50) -> float:
    """Standard error of the mean of a correlated series, from batch means."""
    size = values.size // batches
    means = values[: size * batches].reshape(batches, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def check_greedy_play(gamma: float, oracle_dir, summary_csv, rewards: np.ndarray) -> list[str]:
    """Greedy play of the solved policy never overflows, and its mean reward
    matches the stationary identity mean reward = (1 - gamma) * sum_s mu(s) V(s)
    within four batch-means standard errors of the run's own rewards."""
    out = Path(oracle_dir)
    errors = []
    rows = read_rows(summary_csv)
    overflow = sum(int(r["total_overflow"]) for r in rows)
    if overflow:
        errors.append(f"greedy play of the solved policy overflowed {overflow} time(s)")
    weights = np.array([float(r["weight"]) for r in read_rows(out / "weights.csv")])
    values = np.array([float(r["value"]) for r in read_rows(out / "values.csv")])
    predicted = (1.0 - gamma) * float(weights @ values)
    tol = 4.0 * batch_means_se(np.asarray(rewards, dtype=float))
    for r in rows:
        measured = float(r["mean_reward"])
        if abs(measured - predicted) > tol:
            errors.append(
                f"seed {r['seed']}: greedy mean reward {measured:.6f} differs from the "
                f"stationary identity {predicted:.6f} by more than {tol:.2e}"
            )
    return errors


def type_shares(system) -> np.ndarray:
    """Stationary distribution of the unit-type chain."""
    p = system.type_matrix()
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def load_slots(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != SLOT_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def check_slot_rows(system, slots: np.ndarray, label: str) -> list[str]:
    """Every row obeys the buffer recursion, the quadratic gain of the default
    `gain_mode`, the power cost and the reward decomposition, recomputed from
    the config."""
    col = {name: slots[:, i] for i, name in enumerate(SLOT_COLUMNS)}
    cap = system.capacity
    f = col["f"].astype(np.int64)
    q = col["q"].astype(np.int64)
    a = col["arrivals"].astype(np.int64)
    level = q + a - 1
    errors = []

    def fail(what, mask):
        bad = np.flatnonzero(mask)
        if bad.size:
            errors.append(f"{label}: {what} fails at {bad.size} row(s), first n={int(col['n'][bad[0]])}")

    fail("slot numbering", col["n"] != np.arange(len(slots)))
    fail("start state", np.array([f[0] != 0, col["z"][0] != 0, q[0] != system.initial_occupancy]))
    fail("buffer recursion q' = min(max(q+a-1, 0), C)", q[1:] != np.clip(level[:-1], 0, cap))
    fail("overflow = max(q+a-1-C, 0)", col["overflow"] != np.maximum(level - cap, 0))
    fail("next frequency in {f, u}", (f[1:] != f[:-1]) & (f[1:] != col["u"][:-1]))
    fail("gain 1 - ((q+a-1)/C)^2", np.abs(col["gain"] - (1.0 - (level / cap) ** 2)) > FLOAT_TOL)
    power = system.power_coeff * np.asarray(system.frequencies)[f] ** system.power_exp
    fail("power cost power_coeff * f^3", np.abs(col["j1"] - power) > FLOAT_TOL * power)
    reward = col["gain"] - system.power_weight * col["j1"] - system.rd_weight * col["j2"]
    fail("reward = gain - w_os*j1 - w_app*j2", np.abs(col["reward"] - reward) > FLOAT_TOL)
    return errors


def check_run_outputs(system, out_dir, seeds) -> list[str]:
    """Per-slot rows of every seed, plus the unit-type shares over all of
    them against the type chain's stationary distribution."""
    out = Path(out_dir)
    errors = []
    counts = np.zeros(len(system.unit_types))
    for seed in seeds:
        slots = load_slots(out / f"slots_seed{seed}.csv")
        errors += check_slot_rows(system, slots, f"slots_seed{seed}.csv")
        counts += np.bincount(slots[:, 2].astype(np.int64), minlength=counts.size)[: counts.size]
    total = counts.sum()
    expected = type_shares(system)
    tol = 4.0 / math.sqrt(total)
    shares = counts / total
    if np.any(np.abs(shares - expected) > tol):
        errors.append(
            f"unit-type shares {dict(zip(system.unit_types, shares.round(4)))} are not within "
            f"{tol:.4f} of the stationary {dict(zip(system.unit_types, expected.round(4)))}"
        )
    return errors


def check_ranking(comparison_csv) -> list[str]:
    """The paper's ranking: virtual-et has a higher mean reward than both
    centralized and grace, its final weighted error is at most half of
    centralized's, and layered sends fewer messages per slot than centralized.

    Centralized against grace is left out: grace's outcome depends on the
    seed (CHANGES.md), and on some seeds it beats centralized.
    """
    by_alg: dict[str, list[dict]] = {}
    for row in read_rows(comparison_csv):
        by_alg.setdefault(row["algorithm"], []).append(row)

    def mean(alg, column):
        # An empty cell (no error curve) reads as NaN, which fails every comparison.
        return sum(float(r[column] or "nan") for r in by_alg[alg]) / len(by_alg[alg])

    missing = {"centralized", "layered", "virtual-et", "grace"} - set(by_alg)
    if missing:
        return [f"comparison.csv has no rows for {sorted(missing)}"]
    errors = []
    rewards = {alg: mean(alg, "mean_reward") for alg in ("virtual-et", "centralized", "grace")}
    if not rewards["virtual-et"] > max(rewards["centralized"], rewards["grace"]):
        errors.append(f"mean rewards do not rank virtual-et above centralized and grace: {rewards}")
    err_v, err_c = mean("virtual-et", "final_weighted_error"), mean("centralized", "final_weighted_error")
    if not err_v <= 0.5 * err_c:
        errors.append(f"virtual-et final error {err_v:.4g} is above half of centralized's {err_c:.4g}")
    msg_l, msg_c = mean("layered", "messages_per_slot"), mean("centralized", "messages_per_slot")
    if not msg_l < msg_c:
        errors.append(f"layered sends {msg_l:g} messages per slot, centralized {msg_c:g}")
    return errors


def check_summaries_match(summary_csv, results: dict) -> list[str]:
    """The library's run_single summaries equal the command's CSV rows,
    digit for digit; `results` maps (name, seed) to a summary dict."""
    errors = []
    rows = {(r["name"], int(r["seed"])): r for r in read_rows(summary_csv)}
    for key, summary in results.items():
        row = rows.get(key)
        if row is None:
            errors.append(f"{Path(summary_csv).name} has no row for {key}")
            continue
        for column, value in summary.items():
            text = repr(value) if isinstance(value, float) else str(value)
            if row[column] != text:
                errors.append(f"{key} {column}: library {text}, command {row[column]}")
                break
    return errors
