"""The concrete two-layer system: a video encoder feeding a pre-encoding
buffer (application layer) on top of a frequency-scaled processor (OS/HW
layer).

One data unit is encoded per variable-length time slot. The slot dynamics are:
processing delay t = cycles/frequency, arrivals = floor(t * arrival_rate),
buffer update q' = min([q + arrivals - 1]+, capacity), a commanded frequency
switch that succeeds with probability switch_prob, and a Markov chain over
data-unit types. The stage reward is a buffer-occupancy utility gain minus
weighted power and rate-distortion costs.

`step` is the value-level reference operation; `Simulator` is the index-level
equivalent used by the learning loops (equivalence is covered by tests).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .mdp import ActionSpace, FactoredModel, ModelError, StateSpace, TransitionModel

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

    frequencies: tuple[float, ...] = DEFAULT_FREQUENCIES
    switch_prob: float = 0.9
    power_coeff: float = 1.5e-27
    power_exp: float = 3.0
    capacity: int = 50
    arrival_rate: float = 44.0
    initial_occupancy: int = 0
    power_weight: float = 22.0 / 125.0
    rd_weight: float = 22.0 / 1875.0
    rd_lambda: float = 1.0 / 16.0
    unit_types: tuple[str, ...] = DEFAULT_UNIT_TYPES
    configs: tuple[str, ...] = DEFAULT_CONFIGS
    type_transition: tuple[tuple[float, ...], ...] = DEFAULT_TYPE_TRANSITION
    gain_mode: str = "proposed"

    def __post_init__(self):
        self.frequencies = tuple(float(f) for f in self.frequencies)
        self.unit_types = tuple(self.unit_types)
        self.configs = tuple(self.configs)
        self.type_transition = tuple(tuple(float(x) for x in row) for row in self.type_transition)
        for name in (
            "switch_prob", "power_coeff", "power_exp", "arrival_rate",
            "power_weight", "rd_weight", "rd_lambda",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not all(math.isfinite(f) for f in self.frequencies):
            raise ValueError(f"frequencies must be finite, got {self.frequencies}")
        for name in ("capacity", "initial_occupancy"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not float(value).is_integer():
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if not self.frequencies or any(f <= 0 for f in self.frequencies):
            raise ValueError("frequencies must be positive")
        if any(a >= b for a, b in zip(self.frequencies, self.frequencies[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if not 0.0 < self.switch_prob <= 1.0:
            raise ValueError(f"switch_prob must be in (0, 1], got {self.switch_prob}")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.arrival_rate <= 0.0:
            raise ValueError("arrival_rate must be positive")
        if not 0 <= self.initial_occupancy <= self.capacity:
            raise ValueError("initial_occupancy outside buffer range")
        if not self.unit_types or not self.configs:
            raise ValueError("unit_types and configs must be non-empty")
        n = len(self.unit_types)
        if len(self.type_transition) != n or any(len(row) != n for row in self.type_transition):
            raise ValueError("type_transition must be square over unit_types")
        for row in self.type_transition:
            if any(x < 0 for x in row):
                raise ValueError("type_transition entries must be non-negative")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError("type_transition rows must sum to 1")
        if self.gain_mode not in ("proposed", "conventional"):
            raise ValueError(f"unknown gain_mode {self.gain_mode!r}")

    def state_space(self) -> StateSpace:
        return StateSpace(self.frequencies, self.unit_types, self.capacity)

    def action_space(self) -> ActionSpace:
        return ActionSpace(self.frequencies, self.configs)

    def power_watts(self) -> np.ndarray:
        """Power draw per frequency index."""
        return np.array([self.power_coeff * f**self.power_exp for f in self.frequencies])

    def type_matrix(self) -> np.ndarray:
        return np.array(self.type_transition)

    def freq_index(self, frequency: float) -> int:
        try:
            return self.frequencies.index(frequency)
        except ValueError:
            raise ValueError(f"frequency {frequency!r} not in {self.frequencies}") from None

    def type_index(self, unit_type: str) -> int:
        try:
            return self.unit_types.index(unit_type)
        except ValueError:
            raise ValueError(f"unit type {unit_type!r} not in {self.unit_types}") from None

    def config_index(self, config: str) -> int:
        try:
            return self.configs.index(config)
        except ValueError:
            raise ValueError(f"config {config!r} not in {self.configs}") from None


@dataclass(frozen=True)
class GlobalState:
    frequency: float  # Hz, member of SystemConfig.frequencies
    unit_type: str
    occupancy: int


@dataclass(frozen=True)
class GlobalAction:
    command: float  # commanded frequency in Hz
    config: str


@dataclass(frozen=True)
class StageOutcome:
    """Everything observed in one slot; reward = gain - w_os*J1 - w_app*J2."""

    reward: float
    utility_gain: float
    cost_os: float
    cost_app: float
    arrivals: int
    processing_delay: float
    overflow_count: int
    next_state: GlobalState


@dataclass(slots=True)
class ExperienceTuple:
    """Index-level slot record used by the learners.

    state/next_state are (freq_idx, type_idx, occupancy); action is
    (command_idx, config_idx). arrivals is the realized floor(t * eta), kept
    so the tuple can be extrapolated to other buffer levels.
    """

    state: tuple[int, int, int]
    action: tuple[int, int]
    reward: float
    next_state: tuple[int, int, int]
    arrivals: int
    gain: float
    cost_os: float
    cost_app: float


def power_cost(cfg: SystemConfig, frequency: float) -> float:
    """Power in watts at an operating frequency from the configured set."""
    cfg.freq_index(frequency)  # membership check
    return cfg.power_coeff * frequency**cfg.power_exp


def app_cost(cfg: SystemConfig, sample, config_idx: int) -> float:
    """Rate-distortion Lagrangian d + rd_lambda * b for one configuration."""
    if not 0 <= config_idx < len(sample.bits):
        raise ValueError(f"sample has no data for config index {config_idx}")
    return float(sample.distortion[config_idx]) + cfg.rd_lambda * float(sample.bits[config_idx])


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


def step(
    cfg: SystemConfig,
    state: GlobalState,
    action: GlobalAction,
    sample,
    rng: np.random.Generator,
) -> StageOutcome:
    """Advance the system one slot (value-level reference implementation).

    Draw order is fixed: frequency-switch success first, then the next unit
    type. The sample must describe a unit of the current state's type.
    """
    if sample.unit_type != state.unit_type:
        raise ValueError(
            f"sample type {sample.unit_type!r} does not match state type {state.unit_type!r}"
        )
    if state.frequency <= 0:
        raise ValueError("state frequency must be positive")
    cfg.freq_index(action.command)  # membership check
    config_idx = cfg.config_index(action.config)

    cycles = float(sample.cycles[config_idx])
    delay = cycles / state.frequency
    arrivals = int(delay * cfg.arrival_rate)
    j_os = power_cost(cfg, state.frequency)
    j_app = app_cost(cfg, sample, config_idx)
    occupancy_next, overflow = buffer_step(state.occupancy, arrivals, cfg.capacity)
    gain = utility_gain(state.occupancy, arrivals, cfg.capacity, cfg.gain_mode)
    reward = gain - cfg.power_weight * j_os - cfg.rd_weight * j_app

    freq_next = action.command if rng.random() < cfg.switch_prob else state.frequency
    row = cfg.type_transition[cfg.type_index(state.unit_type)]
    draw = rng.random()
    type_next = 0
    bound = row[0]  # running cumulative sum, the same sums as np.cumsum(row)
    while type_next < len(row) - 1 and draw >= bound:
        type_next += 1
        bound += row[type_next]

    return StageOutcome(
        reward=reward,
        utility_gain=gain,
        cost_os=j_os,
        cost_app=j_app,
        arrivals=arrivals,
        processing_delay=delay,
        overflow_count=overflow,
        next_state=GlobalState(freq_next, cfg.unit_types[type_next], occupancy_next),
    )


class Simulator:
    """Index-level slot loop for the learners.

    Owns the current state and the per-slot randomness; trace samples come
    from `source.draw(type_idx)`. Starts at the lowest frequency, the first
    unit type, and the configured initial occupancy, so runs are reproducible
    given the rng seed.
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
        self.last_sample = None

    def state_index(self) -> int:
        return (self.freq_idx * self._n_types + self.type_idx) * self._n_levels + self.occupancy

    def state(self) -> tuple[int, int, int]:
        return self.freq_idx, self.type_idx, self.occupancy

    def slot(self, command_idx: int, config_idx: int) -> tuple[ExperienceTuple, int]:
        """Run one slot under the given action; returns (tuple, overflow count)."""
        fi = self.freq_idx
        zi = self.type_idx
        q = self.occupancy
        rng = self.rng

        sample = self.source.draw(zi)
        self.last_sample = sample
        cycles = float(sample.cycles[config_idx])
        delay = cycles / self._freqs[fi]
        arrivals = int(delay * self._eta)
        j_os = self._power[fi]
        j_app = float(sample.distortion[config_idx]) + self._rd_lambda * float(
            sample.bits[config_idx]
        )
        occupancy_next, overflow = buffer_step(q, arrivals, self._cap)
        gain = utility_gain(q, arrivals, self._cap, self._mode)
        reward = gain - self._w_os * j_os - self._w_app * j_app

        freq_next = command_idx if rng.random() < self._beta else fi
        row = self._type_cum[zi]
        draw = rng.random()
        type_next = 0
        last = self._n_types - 1
        while type_next < last and draw >= row[type_next]:
            type_next += 1

        et = ExperienceTuple(
            state=(fi, zi, q),
            action=(command_idx, config_idx),
            reward=reward,
            next_state=(freq_next, type_next, occupancy_next),
            arrivals=arrivals,
            gain=gain,
            cost_os=j_os,
            cost_app=j_app,
        )
        self.freq_idx = freq_next
        self.type_idx = type_next
        self.occupancy = occupancy_next
        return et, overflow


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


def _buffer_factor(pmf: np.ndarray, capacity: int) -> np.ndarray:
    """Aggregate an arrival-count pmf through the buffer recursion.

    Returns B[q, q'] = P(next occupancy = q' | occupancy q) for one
    (frequency, type, config) cell.
    """
    n_levels = capacity + 1
    counts = np.arange(len(pmf))
    factor = np.zeros((n_levels, n_levels))
    for q in range(n_levels):
        nxt = np.clip(q + counts - 1, 0, capacity)
        np.add.at(factor[q], nxt, pmf)
    return factor


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

    p = np.zeros((n_states, n_actions, n_states))
    r = np.zeros((n_states, n_actions))
    for fi in range(nf):
        for zi in range(nz):
            base = (fi * nz + zi) * nl
            rows = slice(base, base + nl)
            for hi in range(nh):
                pmf = dynamics.arrival_pmf[fi, zi, hi]
                buffer_factor = _buffer_factor(pmf, cfg.capacity)
                e_gain = _expected_gain(pmf, cfg.capacity, cfg.gain_mode)
                cost = (
                    cfg.power_weight * power[fi]
                    + cfg.rd_weight * dynamics.mean_rd_cost[zi, hi]
                )
                for ui in range(nf):
                    a = ui * nh + hi
                    block = np.einsum(
                        "f,z,qp->qfzp", p_os[fi, ui], p_type[zi], buffer_factor
                    )
                    p[rows, a] = block.reshape(nl, n_states)
                    r[rows, a] = e_gain - cost

    model = TransitionModel(p=p, r=r)
    model.validate()
    return model


def assemble_factored_model(cfg: SystemConfig, dynamics: EmpiricalDynamics) -> FactoredModel:
    """Layered view of the same model: frequency factor vs (type, occupancy) factor.

    Low-layer states are frequency indices; high-layer states are
    type_idx * (capacity+1) + occupancy. to_joint() of the result matches
    assemble_transition_model up to float round-off.
    """
    dynamics.validate(cfg)
    nf = len(cfg.frequencies)
    nz = len(cfg.unit_types)
    nh = len(cfg.configs)
    nl = cfg.capacity + 1
    n_high = nz * nl

    p_type = cfg.type_matrix()
    power = cfg.power_watts()
    p_high = np.zeros((nf, n_high, nh, n_high))
    gain = np.zeros((nf, n_high, nh))
    for fi in range(nf):
        for zi in range(nz):
            rows = slice(zi * nl, (zi + 1) * nl)
            for hi in range(nh):
                pmf = dynamics.arrival_pmf[fi, zi, hi]
                buffer_factor = _buffer_factor(pmf, cfg.capacity)
                block = np.einsum("y,qp->qyp", p_type[zi], buffer_factor)
                p_high[fi, rows, hi] = block.reshape(nl, n_high)
                gain[fi, rows, hi] = _expected_gain(pmf, cfg.capacity, cfg.gain_mode)

    return FactoredModel(
        p_low=_os_factor(cfg),
        p_high=p_high,
        gain=gain,
        cost_low=np.repeat(power[:, None], nf, axis=1),
        cost_high=np.repeat(dynamics.mean_rd_cost[:, None, :], nl, axis=1).reshape(n_high, nh),
        weight_low=cfg.power_weight,
        weight_high=cfg.rd_weight,
    )
