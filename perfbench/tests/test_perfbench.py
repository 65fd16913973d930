"""Fast tests of the benchmark itself.

Every workload runs at smoke size, traced and untraced, and every output
check is shown to fail on a deliberately corrupted copy of a real output.
Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from layerq import compute_oracle, load_config, run_single  # noqa: E402

SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, out: Path, trace: int = 0) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED)]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    return out, {w: run_bench(w, out) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(smoke, workload):
    result = smoke[1][workload]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_reports_every_per_layer_metric(tmp_path, workload):
    result = run_bench(workload, tmp_path, trace=1)
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    written = json.loads((tmp_path / workload / "trace.json").read_text())
    assert written == result["metrics"]


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def edit_csv(path: Path, change) -> None:
    """Rewrite a CSV after `change(rows)` mutates its list of row dicts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    change(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, columns)
        writer.writeheader()
        writer.writerows(rows)


# A config file of each workload, for its system settings and seeds.
CONFIG_FILE = {"solve": "greedy.yaml", "run": "run.yaml", "learn": "centralized.yaml"}


@pytest.fixture
def copy_of(smoke, tmp_path):
    """Copy a workload's smoke outputs; returns (copy, one of its configs)."""

    def copy(workload):
        dst = tmp_path / workload
        shutil.copytree(smoke[0] / workload, dst)
        return dst, load_config(dst / "configs" / CONFIG_FILE[workload])

    return copy


def set_cell(row_index, column, value):
    def change(rows):
        rows[row_index][column] = value(rows[row_index][column])

    return change


RUN_CORRUPTIONS = {
    "one wrong occupancy": ("q", lambda v: str(int(v) + 1), "buffer recursion"),
    "gain": ("gain", lambda v: repr(float(v) + 1e-6), "gain"),
    "power cost": ("j1", lambda v: repr(float(v) * 1.001), "power cost"),
    "reward": ("reward", lambda v: repr(float(v) - 1e-6), "reward ="),
}


@pytest.mark.parametrize("case", sorted(RUN_CORRUPTIONS))
def test_run_check_catches(copy_of, case):
    root, cfg = copy_of("run")
    out = root / "output"
    assert checks.check_run_outputs(cfg.system, out, cfg.run.seeds) == []
    column, value, expected = RUN_CORRUPTIONS[case]
    edit_csv(out / f"slots_seed{cfg.run.seeds[1]}.csv", set_cell(10, column, value))
    errors = checks.check_run_outputs(cfg.system, out, cfg.run.seeds)
    assert any(expected in e for e in errors), errors


def test_run_check_catches_skewed_type_shares(copy_of):
    root, cfg = copy_of("run")
    out = root / "output"

    def skew(rows):
        for row in rows[1 : len(rows) // 3]:
            row["z"] = "2"

    for seed in cfg.run.seeds:
        edit_csv(out / f"slots_seed{seed}.csv", skew)
    errors = checks.check_run_outputs(cfg.system, out, cfg.run.seeds)
    assert any("unit-type shares" in e for e in errors), errors


def test_oracle_check_catches_weights_not_summing_to_one(copy_of):
    root, cfg = copy_of("solve")
    assert checks.check_oracle_outputs(cfg.system, root / "oracle") == []
    edit_csv(root / "oracle" / "weights.csv", set_cell(3, "weight", lambda v: repr(float(v) + 0.01)))
    errors = checks.check_oracle_outputs(cfg.system, root / "oracle")
    assert any("sums to" in e for e in errors), errors


def test_oracle_check_catches_out_of_range_action(copy_of):
    root, cfg = copy_of("solve")
    edit_csv(root / "oracle" / "policy.csv", set_cell(7, "u", lambda v: str(len(cfg.system.frequencies))))
    errors = checks.check_oracle_outputs(cfg.system, root / "oracle")
    assert any("out of range" in e for e in errors), errors


@pytest.fixture
def greedy(copy_of):
    root, cfg = copy_of("solve")
    (seed,) = cfg.run.seeds
    rewards = run_single(cfg, seed, compute_oracle(cfg)).stats.reward
    summary = root / "output" / "summary.csv"
    assert checks.check_greedy_play(cfg.learner.gamma, root / "oracle", summary, rewards) == []
    return root, cfg, summary, rewards


def test_greedy_check_catches_an_overflow(greedy):
    root, cfg, summary, rewards = greedy
    edit_csv(summary, set_cell(0, "total_overflow", lambda v: "1"))
    errors = checks.check_greedy_play(cfg.learner.gamma, root / "oracle", summary, rewards)
    assert any("overflowed" in e for e in errors), errors


def test_greedy_check_catches_a_broken_stationary_identity(greedy):
    root, cfg, summary, rewards = greedy
    edit_csv(summary, set_cell(0, "mean_reward", lambda v: repr(float(v) + 0.05)))
    errors = checks.check_greedy_play(cfg.learner.gamma, root / "oracle", summary, rewards)
    assert any("stationary identity" in e for e in errors), errors


def test_summary_check_catches_a_changed_digit(copy_of):
    root, cfg = copy_of("run")
    summary = root / "output" / "summary.csv"
    rows = checks.read_rows(summary)
    results = {
        (r["name"], int(r["seed"])): {"slots": int(r["slots"]), "mean_reward": float(r["mean_reward"])}
        for r in rows
    }
    assert checks.check_summaries_match(summary, results) == []
    edit_csv(summary, set_cell(2, "mean_reward", lambda v: repr(float(v) * (1 + 1e-12))))
    assert checks.check_summaries_match(summary, results)


def swap_rows(a, b):
    def change(rows):
        i = next(k for k, r in enumerate(rows) if r["algorithm"] == a)
        j = next(k for k, r in enumerate(rows) if r["algorithm"] == b)
        for column in ("name", "algorithm"):
            rows[i][column], rows[j][column] = rows[j][column], rows[i][column]

    return change


def set_for(algorithm, column, value):
    def change(rows):
        for row in rows:
            if row["algorithm"] == algorithm:
                row[column] = value

    return change


LEARN_CORRUPTIONS = {
    "swapped learner rows": (swap_rows("virtual-et", "grace"), "mean rewards"),
    "virtual-et error": (set_for("virtual-et", "final_weighted_error", "1.0"), "final error"),
    "layered messages": (set_for("layered", "messages_per_slot", "9"), "messages per slot"),
}


@pytest.mark.parametrize("case", sorted(LEARN_CORRUPTIONS))
def test_ranking_check_catches(copy_of, case):
    root, _ = copy_of("learn")
    comparison = root / "output" / "comparison.csv"
    assert checks.check_ranking(comparison) == []
    change, expected = LEARN_CORRUPTIONS[case]
    edit_csv(comparison, change)
    errors = checks.check_ranking(comparison)
    assert any(expected in e for e in errors), errors
