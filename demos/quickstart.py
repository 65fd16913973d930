#!/usr/bin/env python3
"""Minimal end-to-end run: one Q-learner on the default system.

Builds the default encoder/DVFS system, drives a centralized tabular
Q-learner for 20,000 slots on the synthetic workload, and prints the
run summary plus a short look at what the learned policy does.
"""

import numpy as np

from layerq import (
    CentralizedQLearner,
    LearningSchedule,
    RunStats,
    Simulator,
    StationarySource,
    SystemConfig,
    default_generator_params,
)

HORIZON = 20_000


def main() -> None:
    cfg = SystemConfig()
    rng = np.random.default_rng(1)
    source = StationarySource(default_generator_params(), cfg.unit_types, rng)
    sim = Simulator(cfg, source, rng)
    learner = CentralizedQLearner(cfg, LearningSchedule(), rng)

    stats = RunStats(horizon=HORIZON)
    for _ in range(HORIZON):
        stats.log_slot(sim, learner.step(sim))

    print(f"ran {HORIZON} slots on the default system "
          f"({len(cfg.frequencies)} frequencies x {len(cfg.configs)} encoder configs)")
    for key, value in stats.summary().items():
        print(f"  {key:>16}: {value:.4f}" if isinstance(value, float) else
              f"  {key:>16}: {value}")

    # how often each frequency was commanded, early vs late in the run
    third = HORIZON // 3
    early = np.bincount(stats.command[:third], minlength=5) / third
    late = np.bincount(stats.command[-third:], minlength=5) / third
    print("\ncommand frequency share (first third -> last third):")
    for i, f in enumerate(cfg.frequencies):
        print(f"  {f / 1e6:6.0f} MHz: {early[i]:5.1%} -> {late[i]:5.1%}")
    print(f"\nmean reward over the last third: {stats.reward[-third:].mean():.4f} "
          f"(vs {stats.reward[:third].mean():.4f} over the first)")


if __name__ == "__main__":
    main()
