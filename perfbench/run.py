"""Benchmark for layerq: solving, running and learning.

Run from the repository root:

    python3 perfbench/run.py --workload solve|run|learn --seed N --seconds S --trace 0|1

With `--trace 0` it measures the end-to-end metrics for about S seconds and
checks the workload's outputs. With `--trace 1` it runs the workload's
commands once more inside this process with every layer's public functions
wrapped in timers (see tracing.py), checks that the traced outputs equal the
untraced ones, and reports the per-layer metrics. Either way the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. See README.md for the workloads, the estimators and
reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Only modules that leave numpy alone are imported here; checks, tracing and
# layerq are imported once main() has fixed the OpenBLAS thread count.
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Times a command in a fresh interpreter and reads its peak RSS. It runs in a
# small process of its own because Linux counts the RSS of the process that
# forks a child into the child's peak, and the benchmark's warm process holds
# a solved model.
LAUNCH_CODE = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# A fresh interpreter's set-up: import the package and load and validate the
# workload's config files.
SETUP_CODE = "import sys, layerq\nfor path in sys.argv[1:]:\n    layerq.load_config(path)\n"

# The speed probe: a fixed pure-Python loop of dict look-ups, float arithmetic
# and random draws, like layerq's slot loop. It runs PROBE_REPEATS times before
# every timed operation; the lower quartile of its times over a measuring run
# says how fast the core ran Python then, and every timing is scaled by
# REFERENCE_PROBE_S over it (README.md, "End-to-end metrics and their
# estimators").
PROBE_LOOPS = 12_000
PROBE_REPEATS = 5
REFERENCE_PROBE_S = 1.8e-3


def probe() -> float:
    """Seconds for one run of the speed probe."""
    start = time.perf_counter()
    rng = random.Random(7)
    table: dict[int, float] = {}
    total = 0.0
    for i in range(PROBE_LOOPS):
        value = table.get(i % 97, 0.0)
        table[i % 97] = value + rng.random() * 0.5
        total += value * value
    return time.perf_counter() - start


class Bench:
    """Runs one workload's operations and tallies what was attempted and failed."""

    def __init__(self, workload: workloads.Workload, env: dict):
        self.workload = workload
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.probe_s: list[float] = []

    def probe(self) -> None:
        """Run the speed probe PROBE_REPEATS times and keep its times."""
        self.probe_s += [probe() for _ in range(PROBE_REPEATS)]

    def spawn(self, argv: list[str]) -> tuple[float, int] | None:
        """Run a fresh interpreter to its end through LAUNCH_CODE; returns
        (seconds, peak RSS in KiB)."""
        self.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCH_CODE, sys.executable, *argv],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[1] != "0":
            self.failed += 1
            print(f"failed: {' '.join(argv)}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return None
        return float(fields[0]), int(fields[2])

    def call(self, fn, *args):
        """Time one library call; returns (seconds, result) or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        return time.perf_counter() - start, result


def import_layerq():
    """Import the package from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import layerq
    import layerq.cli

    if not Path(layerq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"layerq imported from {layerq.__file__}, not from {SRC}")
    return layerq


def measure(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics from whole rounds of the workload's operations.

    A round runs every command in a fresh interpreter, then `compute_oracle`,
    every `run_single` of the workload and `compute_oracle` again in this warm
    process, each after a burst of the speed probe. Rounds repeat until one
    more, as long as the fastest so far, would overrun `seconds`. Each timing
    is the fastest of its repeats, summed over the operations that make up
    the metric, and scaled to the reference speed by the probe.
    """
    wl = bench.workload
    setup = bench.spawn(["-c", SETUP_CODE, *map(str, wl.configs)])
    layerq = import_layerq()
    configs = {path: layerq.load_config(path) for path in wl.configs}
    base = configs[wl.configs[0]]

    samples: dict[str, list[float]] = {}
    peak_kib = 0
    last_runs = {}
    started = time.perf_counter()
    fastest = float("inf")

    def timed_oracle():
        bench.probe()
        done = bench.call(layerq.compute_oracle, base)
        if not done:
            return None
        samples.setdefault("oracle", []).append(done[0])
        return done[1]

    while True:
        round_start = time.perf_counter()
        for i, argv in enumerate(wl.commands):
            bench.probe()
            done = bench.spawn(["-m", "layerq.cli", *argv])
            if done:
                samples.setdefault(f"cmd{i}", []).append(done[0])
                peak_kib = max(peak_kib, done[1])
        oracle = timed_oracle()
        for path, seed in wl.runs:
            cfg = configs[path]
            bench.probe()
            done = bench.call(layerq.run_single, cfg, seed, oracle)
            if done:
                samples.setdefault(f"run:{path.stem}:{seed}", []).append(done[0])
                last_runs[(cfg.label, seed)] = done[1]
        # A second oracle per round: at about 1.1 s it is the longest library
        # call, and the fastest of more repeats is the steadier (README.md).
        timed_oracle()
        fastest = min(fastest, time.perf_counter() - round_start)
        if time.perf_counter() - started + fastest > seconds:
            break

    wanted = [f"cmd{i}" for i in range(len(wl.commands))] + ["oracle"]
    wanted += [f"run:{path.stem}:{seed}" for path, seed in wl.runs]
    missing = [key for key in wanted if key not in samples]
    if setup is None or missing:
        raise RuntimeError(f"no successful sample for {missing or ['setup']}")
    samples["setup"] = [setup[0]]
    samples["probe"] = bench.probe_s
    best = {key: min(values) for key, values in samples.items()}
    scale = REFERENCE_PROBE_S / statistics.quantiles(bench.probe_s, n=4)[0]
    slots = sum(configs[path].run.horizon for path, _ in wl.runs)
    run_s = sum(best[f"run:{path.stem}:{seed}"] for path, seed in wl.runs)
    metrics = {
        "setup_s": (setup[0] * scale, "s"),
        "wall_s": (sum(best[f"cmd{i}"] for i in range(len(wl.commands))) * scale, "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        "oracle_s": (best["oracle"] * scale, "s"),
        "slots_per_s": (slots / (run_s * scale), "slots/s"),
    }
    (wl.root / "samples.json").write_text(json.dumps(samples, indent=1), encoding="utf-8")
    errors = check_outputs(wl, base, last_runs)
    return metrics, errors


def check_outputs(wl: workloads.Workload, base, runs: dict) -> list[str]:
    """The workload's output checks; `runs` maps (name, seed) to RunResults
    of the same configs and seeds, computed through the library."""
    import checks

    system = base.system
    out = wl.output_dir
    summary = out / ("comparison.csv" if wl.name == "learn" else "summary.csv")
    try:
        errors = checks.check_summaries_match(summary, {key: r.summary() for key, r in runs.items()})
        if wl.name == "solve":
            errors += checks.check_oracle_outputs(system, wl.oracle_dir)
            (result,) = runs.values()
            errors += checks.check_greedy_play(base.learner.gamma, wl.oracle_dir, summary, result.stats.reward)
        elif wl.name == "run":
            errors += checks.check_run_outputs(system, out, base.run.seeds)
        else:
            errors += checks.check_ranking(summary)
    except (OSError, ValueError, KeyError) as exc:
        errors = [f"cannot check the outputs: {exc!r}"]
    return errors


def traced(bench: Bench) -> tuple[dict, list[str]]:
    """One untraced pass of the commands in fresh interpreters, then one
    traced pass in this process; the traced outputs must equal the untraced
    ones byte for byte."""
    from tracing import Tracer

    wl = bench.workload
    for argv in wl.commands:
        bench.spawn(["-m", "layerq.cli", *argv])
    untraced = {p: p.read_bytes() for p in sorted(wl.root.rglob("*.csv"))}

    layerq = import_layerq()
    tracer = Tracer()
    tracer.install(layerq)
    try:
        for argv in wl.commands:
            done = bench.call(layerq.cli.main, list(argv))
            if done and done[1] != 0:
                bench.failed += 1
    finally:
        tracer.uninstall()

    errors = []
    traced_files = {p: p.read_bytes() for p in sorted(wl.root.rglob("*.csv"))}
    if set(traced_files) != set(untraced):
        errors.append("the traced pass wrote other files than the untraced pass")
    errors += [
        f"{p.relative_to(wl.root)} differs between the traced and the untraced pass"
        for p in untraced
        if traced_files.get(p) != untraced[p]
    ]
    # Each config is run once, by the workload's `run` or `compare` command.
    configs = {path: layerq.load_config(path) for path in wl.configs}
    expected = sum(cfg.run.horizon * len(cfg.run.seeds) for cfg in configs.values())
    metrics = tracer.metrics()
    slot_calls = int(metrics["system.slot_calls"][0])
    if slot_calls != expected:
        errors.append(f"Simulator.slot ran {slot_calls} times, configs ask for {expected}")
    errors += check_outputs(wl, configs[wl.configs[0]], tracer.runs)
    (wl.root / "trace.json").write_text(
        json.dumps({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, indent=1),
        encoding="utf-8",
    )
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="picks the run seeds")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="output directory")
    args = parser.parse_args(argv)

    if not (SRC / "layerq" / "__init__.py").is_file():
        print(f"error: no layerq sources under {SRC}", file=sys.stderr)
        return 2
    # One OpenBLAS thread, here and in every child: on two cores a second
    # thread makes value iteration slower, not faster (README.md).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # One core for this process and every child, so that the probe and the
    # timed operations run on the same core (README.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    root = args.out.resolve() / args.workload
    shutil.rmtree(root, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, root, smoke=args.smoke)
    bench = Bench(wl, env)
    try:
        metrics, errors = traced(bench) if args.trace else measure(bench, args.seconds)
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
