"""The concrete two-layer system: a video encoder feeding a pre-encoding
buffer (application layer) on top of a frequency-scaled processor (OS/HW
layer).

One data unit is encoded per variable-length time slot. The slot dynamics are:
processing delay t = cycles/frequency, arrivals = floor(t * arrival_rate),
buffer update q' = min([q + arrivals - 1]+, capacity), a commanded frequency
switch that succeeds with probability switch_prob, and a Markov chain over
data-unit types. The stage reward is a buffer-occupancy utility gain minus
weighted power and rate-distortion costs.

`Simulator` runs the slot for the learning loops, on state and action
indices. Its value-level reference, `step` in tests/reference.py, is kept
with the tests that pin the two together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mdp import (
    ActionSpace, ConfigError, FactoredModel, ModelError, StateSpace, TransitionModel, ruled, validate
)

# Defaults for the five-frequency, three-type, three-config instance.
DEFAULT_FREQUENCIES = (200e6, 400e6, 600e6, 800e6, 1000e6)
DEFAULT_UNIT_TYPES = ("P", "B", "I")
DEFAULT_CONFIGS = ("h1", "h2", "h3")
# Rows/columns ordered like DEFAULT_UNIT_TYPES. Derived from a cyclic
# I B B P B B P B B P B B pattern; stationary ratio I:P:B = 1:3:8.
DEFAULT_TYPE_TRANSITION = (
    (0.0, 1.0, 0.0),
    (0.375, 0.5, 0.125),
    (0.0, 1.0, 0.0),
)


@dataclass
class SystemConfig:
    """Static system parameters.

    switch_prob is the probability that a frequency command takes effect in
    the next slot; power is power_coeff * f**power_exp watts; the reward is
    gain - power_weight * power - rd_weight * (distortion + rd_lambda * bits).
    gain_mode selects the quadratic occupancy gain ("proposed") or the
    overflow-count penalty ("conventional").
    """

    frequencies: tuple[float, ...] = ruled(DEFAULT_FREQUENCIES, float, "(0, inf)", depth=1)
    switch_prob: float = ruled(0.9, float, "(0, 1]")
    power_coeff: float = ruled(1.5e-27, float, "[0, inf)")
    power_exp: float = ruled(3.0, float)
    capacity: int = ruled(50, int, "[1, inf)")
    arrival_rate: float = ruled(44.0, float, "(0, inf)")
    initial_occupancy: int = ruled(0, int, "[0, inf)")
    power_weight: float = ruled(22.0 / 125.0, float, "[0, inf)")
    rd_weight: float = ruled(22.0 / 1875.0, float, "[0, inf)")
    rd_lambda: float = ruled(1.0 / 16.0, float, "[0, inf)")
    unit_types: tuple[str, ...] = ruled(DEFAULT_UNIT_TYPES, str, depth=1, distinct=True)
    configs: tuple[str, ...] = ruled(DEFAULT_CONFIGS, str, depth=1, distinct=True)
    type_transition: tuple[tuple[float, ...], ...] = ruled(
        DEFAULT_TYPE_TRANSITION, float, "[0, 1]", depth=2
    )
    gain_mode: str = ruled("proposed", str, choices=("proposed", "conventional"))

    def __post_init__(self):
        validate(self, "system")
        freqs = self.frequencies
        if any(a >= b for a, b in zip(freqs, freqs[1:])):
            raise ConfigError(f"system.frequencies: must be strictly increasing, got {list(freqs)}")
        if self.initial_occupancy > self.capacity:
            raise ConfigError(f"system.initial_occupancy: must be <= capacity, got {self.initial_occupancy}")
        n = len(self.unit_types)
        if len(self.type_transition) != n:
            raise ConfigError(f"system.type_transition: must have {n} rows, got {len(self.type_transition)}")
        for i, row in enumerate(self.type_transition):
            if len(row) != n or abs(sum(row) - 1.0) > 1e-9:
                raise ConfigError(f"system.type_transition[{i}]: must be {n} reals summing to 1, got {row}")

    def state_space(self) -> StateSpace:
        return StateSpace(self.frequencies, self.unit_types, self.capacity)

    def action_space(self) -> ActionSpace:
        return ActionSpace(self.frequencies, self.configs)

    def power_watts(self) -> np.ndarray:
        """Power draw per frequency index."""
        return np.array([self.power_coeff * f**self.power_exp for f in self.frequencies])

    def type_matrix(self) -> np.ndarray:
        return np.array(self.type_transition)


def buffer_step(occupancy: int, arrivals: int, capacity: int) -> tuple[int, int]:
    """One buffer recursion: depart one unit, admit `arrivals`, clamp to [0, capacity].

    Returns (next occupancy, overflow count). A unit is processed every slot
    even at occupancy 0; the [.]+ clamp absorbs the idle departure.
    """
    level = occupancy + arrivals - 1
    if level < 0:
        return 0, 0
    if level > capacity:
        return capacity, level - capacity
    return level, 0


def utility_gain(occupancy: int, arrivals: int, capacity: int, mode: str = "proposed") -> float:
    """Delay-related reward term for one slot.

    "proposed": 1 - ((q + arrivals - 1)/capacity)^2, highest near an empty
    buffer. The numerator is deliberately not clamped at 0, so q=0 with no
    arrivals scores slightly below 1. "conventional": flat 1 until the buffer
    would overflow, then minus one per discarded unit.
    """
    level = occupancy + arrivals - 1
    if mode == "proposed":
        return 1.0 - (level / capacity) ** 2
    if mode == "conventional":
        return 1.0 if level <= capacity else float(capacity - level)
    raise ValueError(f"unknown gain mode {mode!r}")


class Simulator:
    """Index-level slot loop for the learners.

    Owns the current state and the per-slot randomness; trace samples come
    from `source.draw(type_idx)`. Starts at the lowest frequency, the first
    unit type, and the configured initial occupancy, so runs are reproducible
    given the rng seed. The current state is `s`, its dense index, with its
    components `freq_idx`, `type_idx` and `occupancy`. After each slot the
    simulator also holds that slot's outcome as plain attributes: its start
    components (f, z, q), its action (u, h), `arrivals`, `overflow`, `cycles`,
    `reward`, `gain`, and the costs `j1` (power) and `j2` (rate-distortion).
    """

    def __init__(self, cfg: SystemConfig, source, rng: np.random.Generator):
        self.cfg = cfg
        self.source = source
        self.rng = rng
        self._freqs = cfg.frequencies
        self._power = tuple(float(p) for p in cfg.power_watts())
        self._eta = cfg.arrival_rate
        self._cap = cfg.capacity
        self._w_os = cfg.power_weight
        self._w_app = cfg.rd_weight
        self._rd_lambda = cfg.rd_lambda
        self._beta = cfg.switch_prob
        self._mode = cfg.gain_mode
        self._n_types = len(cfg.unit_types)
        self._n_levels = cfg.capacity + 1
        self._type_cum = tuple(tuple(np.cumsum(row)) for row in cfg.type_transition)
        self.freq_idx = 0
        self.type_idx = 0
        self.occupancy = cfg.initial_occupancy
        self.s = cfg.initial_occupancy  # the index of (0, 0, initial_occupancy)

    def slot(self, command_idx: int, config_idx: int) -> int:
        """Run one slot under the given action; returns the next state index."""
        self.f = fi = self.freq_idx
        self.z = zi = self.type_idx
        self.q = q = self.occupancy
        self.u = command_idx
        self.h = config_idx
        rng = self.rng

        sample = self.source.draw(zi)
        self.cycles = cycles = float(sample.cycles[config_idx])
        delay = cycles / self._freqs[fi]
        self.arrivals = arrivals = int(delay * self._eta)
        self.j1 = j_os = self._power[fi]
        self.j2 = j_app = float(sample.distortion[config_idx]) + self._rd_lambda * float(
            sample.bits[config_idx]
        )
        occupancy_next, self.overflow = buffer_step(q, arrivals, self._cap)
        self.gain = gain = utility_gain(q, arrivals, self._cap, self._mode)
        self.reward = gain - self._w_os * j_os - self._w_app * j_app

        freq_next = command_idx if rng.random() < self._beta else fi
        row = self._type_cum[zi]
        draw = rng.random()
        type_next = 0
        last = self._n_types - 1
        while type_next < last and draw >= row[type_next]:
            type_next += 1

        self.freq_idx = freq_next
        self.type_idx = type_next
        self.occupancy = occupancy_next
        self.s = s_next = (freq_next * self._n_types + type_next) * self._n_levels + occupancy_next
        return s_next


@dataclass
class EmpiricalDynamics:
    """Arrival-count distributions and mean costs estimated from a trace.

    arrival_pmf[f, z, h] is a pmf over arrival counts 0..n_counts-1 for
    operating frequency f, unit type z, config h; mean_rd_cost[z, h] is the
    average rate-distortion Lagrangian. Produced by
    traces.empirical_arrival_distribution and consumed by the model assembly.
    """

    arrival_pmf: np.ndarray   # (n_freq, n_types, n_configs, n_counts)
    mean_rd_cost: np.ndarray  # (n_types, n_configs)
    sample_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def validate(self, cfg: SystemConfig, tol: float = 1e-9) -> None:
        nf, nz, nh, _ = self.arrival_pmf.shape
        if (nf, nz, nh) != (len(cfg.frequencies), len(cfg.unit_types), len(cfg.configs)):
            raise ModelError(
                f"arrival pmf shape {self.arrival_pmf.shape} does not match config"
            )
        if np.any(self.arrival_pmf < 0):
            raise ModelError("negative arrival pmf entry")
        err = np.abs(self.arrival_pmf.sum(axis=3) - 1.0).max()
        if err > tol:
            raise ModelError(f"arrival pmf rows deviate from 1 by {err:.3e}")
        if self.mean_rd_cost.shape != (nz, nh):
            raise ModelError("mean_rd_cost shape does not match config")


def _buffer_factors(arrival_pmf: np.ndarray, capacity: int) -> np.ndarray:
    """Aggregate arrival-count pmfs through the buffer recursion.

    arrival_pmf is (..., n_counts), one pmf per cell; returns B[..., q, q'] =
    P(next occupancy = q' | occupancy q) per cell. np.add.at adds each cell's
    pmf in count order: the same left-to-right sums as a per-cell loop.
    """
    cells = arrival_pmf.reshape(-1, arrival_pmf.shape[-1])
    n_levels = capacity + 1
    counts = np.arange(cells.shape[1])
    rows = np.arange(len(cells))[:, None]
    factors = np.zeros((len(cells), n_levels, n_levels))
    for q in range(n_levels):
        np.add.at(factors[:, q], (rows, np.clip(q + counts - 1, 0, capacity)), cells)
    return factors.reshape(arrival_pmf.shape[:-1] + (n_levels, n_levels))


def _expected_gain(pmf: np.ndarray, capacity: int, mode: str) -> np.ndarray:
    """E[utility gain | occupancy q] for one cell, over the arrival pmf."""
    counts = np.arange(len(pmf))
    levels = np.arange(capacity + 1)[:, None] + counts[None, :] - 1
    if mode == "proposed":
        gains = 1.0 - (levels / capacity) ** 2
    else:
        gains = np.where(levels <= capacity, 1.0, (capacity - levels).astype(float))
    return gains @ pmf


def _os_factor(cfg: SystemConfig) -> np.ndarray:
    """p(f' | f, u): the command lands with probability switch_prob."""
    nf = len(cfg.frequencies)
    factor = np.zeros((nf, nf, nf))
    for fi in range(nf):
        for ui in range(nf):
            factor[fi, ui, ui] += cfg.switch_prob
            factor[fi, ui, fi] += 1.0 - cfg.switch_prob
    return factor


def assemble_transition_model(cfg: SystemConfig, dynamics: EmpiricalDynamics) -> TransitionModel:
    """Exact dense MDP over (frequency, type, occupancy) x (command, config).

    The transition factors as p_os(f'|f,u) * p_type(z'|z) * p_buffer(q'|q,f,z,h)
    and the reward is E[gain] - power_weight * P(f) - rd_weight * E[J2], with
    expectations over the empirical arrival distributions. The oracle solves
    assemble_factored_model instead; this dense form is the tests' reference.
    """
    dynamics.validate(cfg)
    nf = len(cfg.frequencies)
    nz = len(cfg.unit_types)
    nh = len(cfg.configs)
    nl = cfg.capacity + 1
    n_states = nf * nz * nl
    n_actions = nf * nh

    p_os = _os_factor(cfg)
    p_type = cfg.type_matrix()
    power = cfg.power_watts()

    buffer_factors = _buffer_factors(dynamics.arrival_pmf, cfg.capacity)
    p = np.zeros((n_states, n_actions, n_states))
    r = np.zeros((n_states, n_actions))
    for fi in range(nf):
        for zi in range(nz):
            base = (fi * nz + zi) * nl
            rows = slice(base, base + nl)
            for hi in range(nh):
                pmf = dynamics.arrival_pmf[fi, zi, hi]
                e_gain = _expected_gain(pmf, cfg.capacity, cfg.gain_mode)
                cost = (
                    cfg.power_weight * power[fi]
                    + cfg.rd_weight * dynamics.mean_rd_cost[zi, hi]
                )
                for ui in range(nf):
                    a = ui * nh + hi
                    block = np.einsum(
                        "f,z,qp->qfzp", p_os[fi, ui], p_type[zi], buffer_factors[fi, zi, hi]
                    )
                    p[rows, a] = block.reshape(nl, n_states)
                    r[rows, a] = e_gain - cost

    model = TransitionModel(p=p, r=r)
    model.validate()
    return model


def assemble_factored_model(cfg: SystemConfig, dynamics: EmpiricalDynamics) -> FactoredModel:
    """Layered view of the same model: the frequency factor, the type chain
    and the buffer factors of all (frequency, type, config) cells.

    Low-layer states are frequency indices; high-layer states are
    type_idx * (capacity+1) + occupancy. Expanded to a dense model
    (joint_model in tests/reference.py), the result matches
    assemble_transition_model up to float round-off.
    """
    dynamics.validate(cfg)
    nf = len(cfg.frequencies)
    nz = len(cfg.unit_types)
    nh = len(cfg.configs)
    nl = cfg.capacity + 1

    power = cfg.power_watts()
    cells = dynamics.arrival_pmf.reshape(nf * nz * nh, -1)
    gain = np.array([_expected_gain(pmf, cfg.capacity, cfg.gain_mode) for pmf in cells])
    return FactoredModel(
        p_low=_os_factor(cfg),
        p_type=cfg.type_matrix(),
        p_buffer=_buffer_factors(dynamics.arrival_pmf, cfg.capacity),
        gain=gain.reshape(nf, nz, nh, nl).transpose(0, 1, 3, 2).reshape(nf, nz * nl, nh),
        cost_low=np.repeat(power[:, None], nf, axis=1),
        cost_high=np.repeat(dynamics.mean_rd_cost[:, None, :], nl, axis=1).reshape(nz * nl, nh),
        weight_low=cfg.power_weight,
        weight_high=cfg.rd_weight,
    )
