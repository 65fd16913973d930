"""Reference operations that the tests pin the package's fast paths against.

None of these runs in the pipeline; each is the plain, value-level or dense
form of something the package computes another way:

- `step` is one slot at the value level (frequencies in Hz, type labels,
  config names), the reference for `Simulator.slot`, with the lookups
  `freq_index`, `type_index` and `config_index` from values to indices;
- `type_walk` is the estimation trace's whole type sequence, walked from one
  array of draws, the reference for the oracle's chunked type counts;
- `ExperienceTuple`, `virtual_et_expand` and `virtual_et_update` are the
  virtual-tuple reference for `VirtualExperienceLearner`'s inlined backups;
- `decomposed_tables` builds the oracle's per-layer tables, whose outer table
  reassembles Q* (the layered decomposition identity);
- `joint_model` and `factored_policy_chain` expand a `FactoredModel` into its
  dense (S, A, S) model and (S, S) policy chain, for small instances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from layerq import (
    FactoredModel,
    LearningSchedule,
    Simulator,
    SystemConfig,
    TransitionModel,
    buffer_step,
    q_update,
    utility_gain,
    value_iteration,
)
from layerq.learners import _draw_virtual_levels


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


def freq_index(cfg: SystemConfig, frequency: float) -> int:
    try:
        return cfg.frequencies.index(frequency)
    except ValueError:
        raise ValueError(f"frequency {frequency!r} not in {cfg.frequencies}") from None


def type_index(cfg: SystemConfig, unit_type: str) -> int:
    try:
        return cfg.unit_types.index(unit_type)
    except ValueError:
        raise ValueError(f"unit type {unit_type!r} not in {cfg.unit_types}") from None


def config_index(cfg: SystemConfig, config: str) -> int:
    try:
        return cfg.configs.index(config)
    except ValueError:
        raise ValueError(f"config {config!r} not in {cfg.configs}") from None


def power_cost(cfg: SystemConfig, frequency: float) -> float:
    """Power in watts at an operating frequency from the configured set."""
    freq_index(cfg, frequency)  # membership check
    return cfg.power_coeff * frequency**cfg.power_exp


def app_cost(cfg: SystemConfig, sample, config_idx: int) -> float:
    """Rate-distortion Lagrangian d + rd_lambda * b for one configuration."""
    if not 0 <= config_idx < len(sample.bits):
        raise ValueError(f"sample has no data for config index {config_idx}")
    return float(sample.distortion[config_idx]) + cfg.rd_lambda * float(sample.bits[config_idx])


def step(
    cfg: SystemConfig,
    state: GlobalState,
    action: GlobalAction,
    sample,
    rng: np.random.Generator,
) -> StageOutcome:
    """Advance the system one slot at the value level.

    Draw order is fixed: frequency-switch success first, then the next unit
    type. The sample must describe a unit of the current state's type.
    """
    if sample.unit_type != state.unit_type:
        raise ValueError(
            f"sample type {sample.unit_type!r} does not match state type {state.unit_type!r}"
        )
    if state.frequency <= 0:
        raise ValueError("state frequency must be positive")
    freq_index(cfg, action.command)  # membership check
    config_idx = config_index(cfg, action.config)

    cycles = float(sample.cycles[config_idx])
    delay = cycles / state.frequency
    arrivals = int(delay * cfg.arrival_rate)
    j_os = power_cost(cfg, state.frequency)
    j_app = app_cost(cfg, sample, config_idx)
    occupancy_next, overflow = buffer_step(state.occupancy, arrivals, cfg.capacity)
    gain = utility_gain(state.occupancy, arrivals, cfg.capacity, cfg.gain_mode)
    reward = gain - cfg.power_weight * j_os - cfg.rd_weight * j_app

    freq_next = action.command if rng.random() < cfg.switch_prob else state.frequency
    row = cfg.type_transition[type_index(cfg, state.unit_type)]
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


def type_walk(system: SystemConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Type indices of n steps of the unit-type chain from type 0, from one
    rng.random(n): the next type is the first whose cumulative probability
    exceeds the draw, clamped to the last type (the Simulator.slot rule)."""
    cum = np.cumsum(system.type_matrix(), axis=1)
    last = len(system.unit_types) - 1
    walk = np.empty(n, dtype=np.intp)
    z = 0
    for i, draw in enumerate(rng.random(n)):
        walk[i] = z
        z = min(int(np.searchsorted(cum[z], draw, side="right")), last)
    return walk


@dataclass(slots=True)
class ExperienceTuple:
    """Index-level record of one slot.

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


def slot_tuple(sim: Simulator) -> ExperienceTuple:
    """The ExperienceTuple of the slot `sim` last ran, read from its attributes."""
    return ExperienceTuple(
        state=(sim.f, sim.z, sim.q),
        action=(sim.u, sim.h),
        reward=sim.reward,
        next_state=(sim.freq_idx, sim.type_idx, sim.occupancy),
        arrivals=sim.arrivals,
        gain=sim.gain,
        cost_os=sim.j1,
        cost_app=sim.j2,
    )


def virtual_et_expand(et: ExperienceTuple, cfg: SystemConfig) -> list[ExperienceTuple]:
    """All statistically equivalent tuples of one slot, one per buffer level.

    The arrival distribution depends on (f, z, h) but not on the occupancy, so
    the observed arrivals, costs, and realized (f', z') transfer to every
    level; only the occupancy-dependent parts (gain, next occupancy) are
    recomputed. The member at the actual occupancy reproduces the actual tuple
    bit-for-bit.
    """
    fi, zi, _ = et.state
    fi_next, zi_next, _ = et.next_state
    out = []
    for level in range(cfg.capacity + 1):
        occupancy_next, _ = buffer_step(level, et.arrivals, cfg.capacity)
        gain = utility_gain(level, et.arrivals, cfg.capacity, cfg.gain_mode)
        reward = gain - cfg.power_weight * et.cost_os - cfg.rd_weight * et.cost_app
        out.append(
            ExperienceTuple(
                state=(fi, zi, level),
                action=et.action,
                reward=reward,
                next_state=(fi_next, zi_next, occupancy_next),
                arrivals=et.arrivals,
                gain=gain,
                cost_os=et.cost_os,
                cost_app=et.cost_app,
            )
        )
    return out


def virtual_et_update(
    q: np.ndarray,
    visits: np.ndarray,
    expanded: list[ExperienceTuple],
    actual_occupancy: int,
    psi: int,
    schedule: LearningSchedule,
    rng: np.random.Generator,
    n_types: int,
    n_levels: int,
    n_configs: int,
) -> list[float]:
    """Backup the actual tuple, then psi uniformly drawn virtual ones.

    `expanded` is the output of virtual_et_expand ordered by buffer level.
    Updates are sequential, so later backups see earlier ones through the
    shared table. psi greater than the number of virtual candidates is
    clamped with a warning; psi=0 is exactly the centralized update. Returns
    the TD errors in application order.
    """
    capacity = len(expanded) - 1
    if psi > capacity:
        warnings.warn(f"psi={psi} exceeds the {capacity} virtual candidates; clamping")
        psi = capacity
    gamma = schedule.gamma
    order = [actual_occupancy]
    if psi > 0:
        order.extend(int(v) for v in _draw_virtual_levels(actual_occupancy, capacity, psi, rng))
    deltas = []
    for level in order:
        et = expanded[level]
        fi, zi, lv = et.state
        s = (fi * n_types + zi) * n_levels + lv
        fi2, zi2, q2 = et.next_state
        s_next = (fi2 * n_types + zi2) * n_levels + q2
        a = et.action[0] * n_configs + et.action[1]
        alpha = schedule.alpha_at(visits[s, a])
        deltas.append(q_update(q, s, a, et.reward, s_next, alpha, gamma))
        visits[s, a] += 1
    return deltas


def decomposed_tables(factors: FactoredModel, gamma: float, tol: float = 1e-8):
    """Oracle layered tables from the joint optimum.

    Returns (inner, outer, q_star): inner[s, a2, s1'] folds the high-layer
    reward and expectation over s2' into the optimal V; outer[s, a1, a2] folds
    the low-layer cost and expectation over s1' into inner. outer reshaped
    over actions equals q_star up to the value-iteration tolerance.
    """
    q_star, _, v = value_iteration(factors, gamma, tol)
    n1, m1, _ = factors.p_low.shape
    n2, m2 = factors.n_states // n1, factors.p_buffer.shape[2]
    high = factors.high_expectation(v).transpose(0, 1, 3, 2, 4).reshape(n1, n2, m2, n1)
    inner = (
        (factors.gain - factors.weight_high * factors.cost_high[None, :, :])[:, :, :, None]
        + gamma * high
    )
    outer = -factors.weight_low * factors.cost_low[:, None, :, None] + np.einsum(
        "ikj,ixmj->ixkm", factors.p_low, inner
    )
    n_states = n1 * n2
    return (
        inner.reshape(n_states, m2, n1),
        outer.reshape(n_states, m1, m2),
        q_star,
    )


def _p_high(factors: FactoredModel, i, m) -> np.ndarray:
    """p(s2'|s1 = i, s2, a2 = m) as (..., n2, n2), i and m broadcast against
    the n2 states s2; each entry is one product p_type * p_buffer."""
    nz, n_levels = factors.p_type.shape[0], factors.p_buffer.shape[3]
    z, q = np.divmod(np.arange(nz * n_levels), n_levels)
    buffer = factors.p_buffer[i, z, m, q]                # (..., n2, L)
    high = factors.p_type[z][..., :, None] * buffer[..., None, :]
    return high.reshape(high.shape[:-2] + (nz * n_levels,))


def joint_model(factors: FactoredModel) -> TransitionModel:
    """The dense model of the same MDP as `factors`."""
    n1, m2 = factors.p_low.shape[0], factors.p_buffer.shape[2]
    p_high = _p_high(factors, np.arange(n1)[:, None, None], np.arange(m2)[:, None])
    p = np.einsum("ikj,imxy->ixkmjy", factors.p_low, p_high)
    return TransitionModel(
        p=np.ascontiguousarray(p.reshape(factors.n_states, factors.n_actions, factors.n_states)),
        r=factors.r,
    )


def factored_policy_chain(factors: FactoredModel, policy: np.ndarray) -> np.ndarray:
    """The (S, S) chain that `policy` induces on `factors`; its entries are
    the same products that joint_model stores."""
    n1, m2 = factors.p_low.shape[0], factors.p_buffer.shape[2]
    n2 = factors.n_states // n1
    k, m = np.divmod(np.asarray(policy).reshape(n1, n2), m2)
    i = np.arange(n1)[:, None]
    low = factors.p_low[i, k]            # (n1, n2, n1): p_low[i, k(i, x), j]
    high = _p_high(factors, i, m)        # (n1, n2, n2): p_high[i, x, m(i, x), y]
    return (low[:, :, :, None] * high[:, :, None, :]).reshape(n1 * n2, n1 * n2)
