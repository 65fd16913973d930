"""Shared test helpers: a small exactly-solvable system instance.

The small instance has two frequencies, two unit types, two configs, and a
six-level buffer. Cycle counts come from finite supports (point masses or
fair two-point draws), so the per-cell arrival distributions are known in
closed form and a model assembled from them describes the simulated system
with no estimation error.
"""

import numpy as np

from layerq import (
    EmpiricalDynamics,
    GeneratorParams,
    Simulator,
    StationarySource,
    SystemConfig,
    TripleDistribution,
)

SMALL_FREQS = (2e8, 4e8)


def small_config(**overrides) -> SystemConfig:
    base = dict(
        frequencies=SMALL_FREQS,
        unit_types=("P", "B"),
        configs=("h1", "h2"),
        type_transition=((0.25, 0.75), (0.5, 0.5)),
        capacity=5,
        arrival_rate=44.0,
    )
    base.update(overrides)
    return SystemConfig(**base)


def _cell(cycles, bits, dist) -> TripleDistribution:
    values = tuple(float(c) for c in cycles)
    probs = tuple(1.0 / len(values) for _ in values)
    return TripleDistribution(
        cycles_mean=float(np.mean(values)),
        cycles_sigma=0.0,
        bits_mean=bits,
        bits_sd=0.0,
        distortion_mean=dist,
        distortion_sd=0.0,
        cycles_values=values,
        cycles_probs=probs,
    )


def small_params() -> GeneratorParams:
    return GeneratorParams(
        configs=("h1", "h2"),
        per_type={
            "P": (_cell((1e7, 2e7), 50.0, 8.0), _cell((5e6,), 80.0, 12.0)),
            "B": (_cell((8e6, 1.6e7), 40.0, 6.0), _cell((4e6,), 70.0, 10.0)),
        },
    )


def small_dynamics() -> EmpiricalDynamics:
    """Exact arrival pmfs for small_config + small_params.

    Arrival counts are floor(cycles / f * 44); e.g. P/h1 at 200 MHz gives
    floor(2.2)=2 or floor(4.4)=4 with probability one half each.
    """
    pmf = np.zeros((2, 2, 2, 5))
    pmf[0, 0, 0, [2, 4]] = 0.5   # P h1 @ 200 MHz
    pmf[0, 0, 1, 1] = 1.0        # P h2 @ 200 MHz
    pmf[0, 1, 0, [1, 3]] = 0.5   # B h1 @ 200 MHz
    pmf[0, 1, 1, 0] = 1.0        # B h2 @ 200 MHz
    pmf[1, 0, 0, [1, 2]] = 0.5   # P h1 @ 400 MHz
    pmf[1, 0, 1, 0] = 1.0        # P h2 @ 400 MHz
    pmf[1, 1, 0, [0, 1]] = 0.5   # B h1 @ 400 MHz
    pmf[1, 1, 1, 0] = 1.0        # B h2 @ 400 MHz
    mean_rd = np.array(
        [
            [8.0 + 50.0 / 16.0, 12.0 + 80.0 / 16.0],
            [6.0 + 40.0 / 16.0, 10.0 + 70.0 / 16.0],
        ]
    )
    return EmpiricalDynamics(arrival_pmf=pmf, mean_rd_cost=mean_rd)


def small_sim(seed: int, cfg: SystemConfig = None, params: GeneratorParams = None):
    """A simulator on the small instance plus the rng that drives it."""
    cfg = cfg if cfg is not None else small_config()
    params = params if params is not None else small_params()
    rng = np.random.default_rng(seed)
    source = StationarySource([(np.inf, params)], cfg.unit_types, rng)
    return Simulator(cfg, source, rng), rng


class FakeRng:
    """Replays a scripted sequence of uniform(0,1) draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self) -> float:
        return self._draws.pop(0)
