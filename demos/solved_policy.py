#!/usr/bin/env python3
"""Estimate the transition model, solve it, and inspect the optimal policy.

The oracle pipeline estimates arrival distributions from a synthetic trace,
assembles the factored transition model, and solves it by value iteration. The
resulting policy is the benchmark every learner is measured against. This
script prints the frequency command as a function of buffer occupancy (the
policy's most interpretable slice) and then verifies that greedy play keeps
the buffer out of overflow.
"""

from layerq import compute_oracle, config_from_dict, run_single

ESTIMATION_UNITS = 30_000
HORIZON = 20_000


def main() -> None:
    cfg = config_from_dict({
        "learner": {"algorithm": "oracle-greedy"},
        "run": {"horizon": HORIZON, "seeds": [1]},
        "oracle": {"estimation_units": ESTIMATION_UNITS, "vi_tol": 1e-6},
    })
    system = cfg.system
    print(f"estimating from {ESTIMATION_UNITS} units, solving "
          f"{len(system.frequencies) * len(system.unit_types) * (system.capacity + 1)} states...")
    oracle = compute_oracle(cfg)

    n_types = len(system.unit_types)
    n_levels = system.capacity + 1
    n_configs = len(system.configs)
    print("\nfrequency command (MHz) vs occupancy, current frequency 600 MHz:")
    header = "  q:      " + " ".join(f"{q:>4}" for q in range(0, n_levels, 5))
    print(header)
    for zi, z in enumerate(system.unit_types):
        row = []
        for q in range(0, n_levels, 5):
            s = (2 * n_types + zi) * n_levels + q  # frequency index 2 = 600 MHz
            u = int(oracle.policy[s]) // n_configs
            row.append(f"{system.frequencies[u] / 1e6:>4.0f}")
        print(f"  type {z}: " + " ".join(row))

    result = run_single(cfg, 1, oracle)
    s = result.stats.summary()
    print(f"\ngreedy play, {HORIZON} slots: mean reward {s['mean_reward']:.4f}, "
          f"overflows {s['total_overflow']}, mean occupancy "
          f"{result.stats.occupancy[:HORIZON].mean():.1f}/{system.capacity}")


if __name__ == "__main__":
    main()
