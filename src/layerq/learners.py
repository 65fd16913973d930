"""Online decision-making: centralized, layered, and best-response Q-learning,
virtual-experience and eligibility-trace acceleration, and the myopic
deadline-driven baseline.

Every learner exposes step(sim) -> SlotRecord (advancing the simulator by one
slot), state_values() for error curves, and a MessageLog accounting the
inter-layer traffic its deployment would need.
"""

from __future__ import annotations

import bisect
import warnings
from collections import OrderedDict, deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .mdp import (
    FactoredModel,
    LearningSchedule,
    ModelError,
    TransitionModel,
    epsilon_greedy,
    q_update,
    value_iteration,
)
from .system import ExperienceTuple, Simulator, SystemConfig, buffer_step, utility_gain


class PolicyError(ValueError):
    """A fixed policy is missing or out of range for some state."""


SlotRecord = namedtuple("SlotRecord", ["et", "overflow", "delta"])

# Inter-layer traffic per slot when the optimizer runs as a middleware box.
CENTRALIZED_MESSAGES = (
    "app->opt: local state (z, q)",
    "os->opt: local state f",
    "opt->app: config command h",
    "opt->os: frequency command u",
    "app->opt: gain and cost (g, J2)",
    "os->opt: cost J1",
    "app->opt: next local state (z', q')",
    "os->opt: next local state f'",
)
# The layered protocol replaces the optimizer round-trips with two scalars.
LAYERED_MESSAGES = (
    "os->app: local state f",
    "app->os: local state (z, q)",
    "app->os: chosen config a2",
    "os->app: next local state f'",
    "app->os: next local state (z', q')",
    "os->app: value scalar V(s')",
    "app->os: updated scalar Q1(s, a2, f')",
)


class MessageLog:
    """Counts slots; the per-slot message set is fixed per algorithm."""

    def __init__(self, labels: tuple[str, ...]):
        self.labels = labels
        self.slots = 0

    def record_slot(self) -> None:
        self.slots += 1

    @property
    def per_slot(self) -> int:
        return len(self.labels)

    @property
    def total(self) -> int:
        return self.slots * len(self.labels)


class CentralizedQLearner:
    """One dense Q(s, a) table updated from the actual experience tuple."""

    message_labels = CENTRALIZED_MESSAGES

    def __init__(self, cfg: SystemConfig, schedule: LearningSchedule, rng: np.random.Generator):
        self.cfg = cfg
        self.schedule = schedule
        self.rng = rng
        self._n_types = len(cfg.unit_types)
        self._n_levels = cfg.capacity + 1
        self._n_configs = len(cfg.configs)
        n_states = cfg.state_space().n_states
        n_actions = cfg.action_space().n_actions
        self.q = np.zeros((n_states, n_actions))
        self.visits = np.zeros((n_states, n_actions), dtype=np.int64)
        self.slot = 0
        self.message_log = MessageLog(self.message_labels)

    def _state_index(self, state: tuple[int, int, int]) -> int:
        fi, zi, q = state
        return (fi * self._n_types + zi) * self._n_levels + q

    def select(self, s: int) -> int:
        return epsilon_greedy(self.q[s], self.schedule.epsilon_at(self.slot), self.rng)

    def step(self, sim: Simulator) -> SlotRecord:
        s = sim.state_index()
        a = self.select(s)
        command_idx, config_idx = divmod(a, self._n_configs)
        et, overflow = sim.slot(command_idx, config_idx)
        delta = self._update(s, a, et)
        self.message_log.record_slot()
        self.slot += 1
        return SlotRecord(et, overflow, delta)

    def _update(self, s: int, a: int, et: ExperienceTuple) -> float:
        s_next = self._state_index(et.next_state)
        alpha = self.schedule.alpha_at(self.visits[s, a])
        delta = q_update(self.q, s, a, et.reward, s_next, alpha, self.schedule.gamma)
        self.visits[s, a] += 1
        return delta

    def state_values(self) -> np.ndarray:
        return self.q.max(axis=1)


@dataclass
class LayeredQTables:
    """Per-layer tables: q_app[s, a2, s1'] (inner) and q_os[s, a1, a2] (outer)."""

    q_app: np.ndarray
    q_os: np.ndarray


def layered_app_select(q_app: np.ndarray, s: int, epsilon: float, rng: np.random.Generator):
    """Epsilon-greedy over the (config, next-low-state) grid of the inner table."""
    grid = q_app[s]
    if epsilon > 0.0 and rng.random() < epsilon:
        flat = int(rng.integers(grid.size))
    else:
        flat = int(np.argmax(grid))
    return divmod(flat, grid.shape[1])


def layered_os_select(q_os: np.ndarray, s: int, epsilon: float, rng: np.random.Generator):
    """Epsilon-greedy over the (command, config) grid of the outer table."""
    grid = q_os[s]
    if epsilon > 0.0 and rng.random() < epsilon:
        flat = int(rng.integers(grid.size))
    else:
        flat = int(np.argmax(grid))
    return divmod(flat, grid.shape[1])


def layered_update(
    tables: LayeredQTables,
    et: ExperienceTuple,
    alpha_os: float,
    alpha_app: float,
    gamma: float,
    power_weight: float,
    rd_weight: float,
    n_types: int,
    n_levels: int,
):
    """Both layers' updates for one slot, in protocol order.

    The OS side forwards V(s') = max q_os[s']; the APP side updates its inner
    cell at the realized next frequency and forwards the updated scalar, which
    the OS side then uses as its target. Exactly one cell of each table
    changes. Returns (delta_app, delta_os).
    """
    fi, zi, q = et.state
    s = (fi * n_types + zi) * n_levels + q
    fi_next, zi_next, q_next = et.next_state
    s_next = (fi_next * n_types + zi_next) * n_levels + q_next
    a1, a2 = et.action

    v_next = tables.q_os[s_next].max()
    delta_app = (et.gain - rd_weight * et.cost_app + gamma * v_next) - tables.q_app[s, a2, fi_next]
    tables.q_app[s, a2, fi_next] += alpha_app * delta_app
    q1_updated = tables.q_app[s, a2, fi_next]
    delta_os = (-power_weight * et.cost_os + q1_updated) - tables.q_os[s, a1, a2]
    tables.q_os[s, a1, a2] += alpha_os * delta_os
    return float(delta_app), float(delta_os)


class LayeredQLearner:
    """Decentralized learner: each layer selects and updates its own table.

    Both layers draw independent exploration events; the executed action pairs
    the OS layer's command with the APP layer's config choice.
    """

    message_labels = LAYERED_MESSAGES

    def __init__(self, cfg: SystemConfig, schedule: LearningSchedule, rng: np.random.Generator):
        self.cfg = cfg
        self.schedule = schedule
        self.rng = rng
        self._n_types = len(cfg.unit_types)
        self._n_levels = cfg.capacity + 1
        self._n_configs = len(cfg.configs)
        n_states = cfg.state_space().n_states
        n_freqs = len(cfg.frequencies)
        self.tables = LayeredQTables(
            q_app=np.zeros((n_states, self._n_configs, n_freqs)),
            q_os=np.zeros((n_states, n_freqs, self._n_configs)),
        )
        self.visits_app = np.zeros(self.tables.q_app.shape, dtype=np.int64)
        self.visits_os = np.zeros(self.tables.q_os.shape, dtype=np.int64)
        self.slot = 0
        self.message_log = MessageLog(self.message_labels)

    def step(self, sim: Simulator) -> SlotRecord:
        s = sim.state_index()
        eps = self.schedule.epsilon_at(self.slot)
        config_idx, _optimistic_freq = layered_app_select(self.tables.q_app, s, eps, self.rng)
        command_idx, _suggested_config = layered_os_select(self.tables.q_os, s, eps, self.rng)
        et, overflow = sim.slot(command_idx, config_idx)

        freq_next = et.next_state[0]
        alpha_app = self.schedule.alpha_at(self.visits_app[s, config_idx, freq_next])
        alpha_os = self.schedule.alpha_at(self.visits_os[s, command_idx, config_idx])
        _, delta_os = layered_update(
            self.tables,
            et,
            alpha_os,
            alpha_app,
            self.schedule.gamma,
            self.cfg.power_weight,
            self.cfg.rd_weight,
            self._n_types,
            self._n_levels,
        )
        self.visits_app[s, config_idx, freq_next] += 1
        self.visits_os[s, command_idx, config_idx] += 1
        self.message_log.record_slot()
        self.slot += 1
        return SlotRecord(et, overflow, delta_os)

    def state_values(self) -> np.ndarray:
        n_states = self.tables.q_os.shape[0]
        return self.tables.q_os.reshape(n_states, -1).max(axis=1)


class BestResponseLearner:
    """Single-layer Q-learning against a fixed policy at the other layer.

    The learning layer observes the global reward; its table is indexed by
    (global state, own action).
    """

    message_labels = CENTRALIZED_MESSAGES

    def __init__(
        self,
        cfg: SystemConfig,
        schedule: LearningSchedule,
        rng: np.random.Generator,
        layer: str,
        fixed_policy: np.ndarray,
    ):
        if layer not in ("app", "os"):
            raise ValueError(f"layer must be 'app' or 'os', got {layer!r}")
        self.cfg = cfg
        self.schedule = schedule
        self.rng = rng
        self.layer = layer
        self._n_types = len(cfg.unit_types)
        self._n_levels = cfg.capacity + 1
        n_states = cfg.state_space().n_states
        n_own = len(cfg.configs) if layer == "app" else len(cfg.frequencies)
        n_other = len(cfg.frequencies) if layer == "app" else len(cfg.configs)
        fixed_policy = np.asarray(fixed_policy)
        if fixed_policy.shape != (n_states,):
            raise PolicyError(f"fixed policy must cover all {n_states} states")
        if np.any(fixed_policy < 0) or np.any(fixed_policy >= n_other):
            raise PolicyError("fixed policy contains out-of-range actions")
        self.fixed_policy = fixed_policy.astype(np.int64)
        self.q = np.zeros((n_states, n_own))
        self.visits = np.zeros((n_states, n_own), dtype=np.int64)
        self.slot = 0
        self.message_log = MessageLog(self.message_labels)

    def step(self, sim: Simulator) -> SlotRecord:
        s = sim.state_index()
        a_own = epsilon_greedy(self.q[s], self.schedule.epsilon_at(self.slot), self.rng)
        a_other = int(self.fixed_policy[s])
        if self.layer == "app":
            et, overflow = sim.slot(a_other, a_own)
        else:
            et, overflow = sim.slot(a_own, a_other)
        fi, zi, q = et.next_state
        s_next = (fi * self._n_types + zi) * self._n_levels + q
        alpha = self.schedule.alpha_at(self.visits[s, a_own])
        delta = q_update(self.q, s, a_own, et.reward, s_next, alpha, self.schedule.gamma)
        self.visits[s, a_own] += 1
        self.message_log.record_slot()
        self.slot += 1
        return SlotRecord(et, overflow, delta)

    def state_values(self) -> np.ndarray:
        return self.q.max(axis=1)


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


def _draw_virtual_levels(
    actual_occupancy: int, capacity: int, psi: int, rng: np.random.Generator
) -> np.ndarray:
    """psi distinct buffer levels excluding the actual one, uniform."""
    if psi >= capacity:
        picks = np.arange(capacity)
    else:
        picks = rng.choice(capacity, size=psi, replace=False)
    return picks + (picks >= actual_occupancy)


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


class VirtualExperienceLearner(CentralizedQLearner):
    """Centralized learner plus psi extra backups on virtual tuples per slot."""

    def __init__(
        self,
        cfg: SystemConfig,
        schedule: LearningSchedule,
        rng: np.random.Generator,
        psi: int,
    ):
        super().__init__(cfg, schedule, rng)
        if psi < 0:
            raise ValueError("psi must be >= 0")
        if psi > cfg.capacity:
            warnings.warn(f"psi={psi} exceeds the {cfg.capacity} virtual candidates; clamping")
            psi = cfg.capacity
        self.psi = psi

    def _update(self, s: int, a: int, et: ExperienceTuple) -> float:
        delta = super()._update(s, a, et)
        if self.psi > 0:
            self._virtual_updates(a, et)
        return delta

    def _virtual_updates(self, a: int, et: ExperienceTuple) -> None:
        # Inline equivalent of virtual_et_expand + virtual_et_update for the
        # selected levels only; tests pin the equivalence bit for bit. The
        # backups of one slot write only column a of the (f, z) block and read
        # rows of the (f', z') block, so that column and the next rows' maxima
        # over the other columns are read once, the backups run on Python
        # floats in draw order, and the column is written back. When the two
        # blocks coincide, next_col is col and later backups see earlier ones.
        cfg = self.cfg
        fi, zi, q_actual = et.state
        fi2, zi2, _ = et.next_state
        n_levels = self._n_levels
        base = (fi * self._n_types + zi) * n_levels
        base_next = (fi2 * self._n_types + zi2) * n_levels
        cap = cfg.capacity
        mode = cfg.gain_mode
        gamma = self.schedule.gamma
        alpha_at = self.schedule.alpha_at
        arrivals = et.arrivals
        j_os = cfg.power_weight * et.cost_os
        j_app = cfg.rd_weight * et.cost_app
        block = slice(base, base + n_levels)
        col = self.q[block, a].tolist()
        counts = self.visits[block, a].tolist()
        rows_next = self.q[base_next : base_next + n_levels]
        next_col = col if base_next == base else rows_next[:, a].tolist()
        others = np.delete(rows_next, a, axis=1).max(axis=1, initial=-np.inf).tolist()
        for level in _draw_virtual_levels(q_actual, cap, self.psi, self.rng).tolist():
            occupancy_next, _ = buffer_step(level, arrivals, cap)
            reward = utility_gain(level, arrivals, cap, mode) - j_os - j_app
            best = max(others[occupancy_next], next_col[occupancy_next])
            alpha = alpha_at(counts[level])
            col[level] += alpha * (reward + gamma * best - col[level])
            counts[level] += 1
        self.q[block, a] = col
        self.visits[block, a] = counts


@dataclass
class EligibilityState:
    """Replacing traces with lazy decay: e = decay^(slots since last visit)."""

    decay: float
    slot: int = 0
    last_visit: OrderedDict = field(default_factory=OrderedDict)

    def __post_init__(self):
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        # age beyond which the trace is numerically dead
        if self.decay > 0.0:
            self.max_age = int(np.ceil(np.log(1e-12) / np.log(self.decay)))
        else:
            self.max_age = 0

    def eligibility(self, pair) -> float:
        last = self.last_visit.get(pair)
        if last is None:
            return 0.0
        return self.decay ** (self.slot - last)

    def refresh(self, pair) -> None:
        self.last_visit.pop(pair, None)
        self.last_visit[pair] = self.slot

    def prune(self) -> None:
        while self.last_visit:
            pair, last = next(iter(self.last_visit.items()))
            if self.slot - last > self.max_age:
                del self.last_visit[pair]
            else:
                break

    def top_pairs(self, count: int, exclude) -> list:
        """Most eligible pairs = most recently visited, newest first."""
        out = []
        for pair in reversed(self.last_visit):
            if pair == exclude:
                continue
            out.append(pair)
            if len(out) == count:
                break
        return out


def td_lambda_step(
    q: np.ndarray,
    visits: np.ndarray,
    elig: EligibilityState,
    et: ExperienceTuple,
    psi: int,
    schedule: LearningSchedule,
    n_types: int,
    n_levels: int,
    n_configs: int,
) -> float:
    """One trace-weighted sweep: full backup on the actual pair, then the
    current TD error applied as alpha * delta * e to the psi most eligible
    other pairs. Replacing traces decay by the same factor per slot, so the
    most eligible pairs are exactly the most recently visited ones. Visit
    counts advance only for the actual pair. Advances elig by one slot."""
    fi, zi, lv = et.state
    s = (fi * n_types + zi) * n_levels + lv
    fi2, zi2, q2 = et.next_state
    s_next = (fi2 * n_types + zi2) * n_levels + q2
    a = et.action[0] * n_configs + et.action[1]
    alpha = schedule.alpha_at(visits[s, a])
    delta = q_update(q, s, a, et.reward, s_next, alpha, schedule.gamma)
    visits[s, a] += 1
    if psi > 0 and elig.decay > 0.0:
        for pair in elig.top_pairs(psi, exclude=(s, a)):
            trace = elig.decay ** (elig.slot - elig.last_visit[pair])
            q[pair] += schedule.alpha_at(visits[pair]) * delta * trace
    elig.refresh((s, a))
    elig.prune()
    elig.slot += 1
    return delta


class TdLambdaLearner(CentralizedQLearner):
    """Truncated eligibility traces: the per-slot TD error also nudges the
    psi most recently visited other pairs, weighted by (gamma*lambda)^age."""

    def __init__(
        self,
        cfg: SystemConfig,
        schedule: LearningSchedule,
        rng: np.random.Generator,
        lam: float,
        psi: int,
    ):
        super().__init__(cfg, schedule, rng)
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        if psi < 0:
            raise ValueError("psi must be >= 0")
        self.lam = lam
        self.psi = psi
        self.elig = EligibilityState(decay=schedule.gamma * lam)

    def _update(self, s: int, a: int, et: ExperienceTuple) -> float:
        return td_lambda_step(
            self.q,
            self.visits,
            self.elig,
            et,
            self.psi,
            self.schedule,
            self._n_types,
            self._n_levels,
            self._n_configs,
        )


@dataclass
class GraceState:
    """Sliding window of completed-job cycle counts and the smoothed
    95th-percentile demand estimate.

    A sorted copy of the window is maintained incrementally so the percentile
    is O(window length) per job instead of a full sort.
    """

    window: deque
    estimate: float = 0.0
    _sorted: list = field(default_factory=list)

    def push(self, cycles: float) -> None:
        if len(self.window) == self.window.maxlen:
            evicted = self.window[0]
            del self._sorted[bisect.bisect_left(self._sorted, evicted)]
        self.window.append(cycles)
        bisect.insort(self._sorted, cycles)

    def percentile_95(self) -> float:
        """Linear-interpolation 95th percentile (same rule as np.percentile)."""
        data = self._sorted
        if not data:
            raise ValueError("window is empty")
        pos = 0.95 * (len(data) - 1)
        lo = int(pos)
        if lo + 1 == len(data):
            return data[lo]
        frac = pos - lo
        return data[lo] + frac * (data[lo + 1] - data[lo])


class GraceController:
    """Myopic cross-layer baseline.

    Frequency: smallest that fits the demand estimate within the per-unit
    deadline 1/arrival_rate (max frequency during warm-up or when nothing
    fits). Config: lowest running-mean rate-distortion cost for the current
    type; unseen (type, config) cells count as zero cost, so each gets tried
    once before the argmin locks in. No value estimates are formed.
    """

    message_labels = ()

    def __init__(
        self,
        cfg: SystemConfig,
        rng: np.random.Generator = None,
        window_len: int = 32,
        smoothing: float = 0.9,
    ):
        if not 0.0 <= smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")
        self.cfg = cfg
        self.smoothing = smoothing
        self.gstate = GraceState(window=deque(maxlen=window_len))
        nz, nh = len(cfg.unit_types), len(cfg.configs)
        self._rd_sum = np.zeros((nz, nh))
        self._rd_count = np.zeros((nz, nh), dtype=np.int64)
        self._deadline = 1.0 / cfg.arrival_rate
        self.slot = 0
        self.message_log = MessageLog(self.message_labels)

    def _pick_frequency(self) -> int:
        if not self.gstate.window:
            return len(self.cfg.frequencies) - 1  # warm-up at max frequency
        for i, f in enumerate(self.cfg.frequencies):
            if self.gstate.estimate / f <= self._deadline:
                return i
        return len(self.cfg.frequencies) - 1

    def _pick_config(self, type_idx: int) -> int:
        best = 0
        best_cost = np.inf
        for h in range(len(self.cfg.configs)):
            count = self._rd_count[type_idx, h]
            cost = self._rd_sum[type_idx, h] / count if count else 0.0
            if cost < best_cost:
                best, best_cost = h, cost
        return best

    def step(self, sim: Simulator) -> SlotRecord:
        type_idx = sim.type_idx
        config_idx = self._pick_config(type_idx)
        command_idx = self._pick_frequency()
        et, overflow = sim.slot(command_idx, config_idx)
        self.gstate.push(float(sim.last_sample.cycles[config_idx]))
        p95 = self.gstate.percentile_95()
        if self.gstate.estimate == 0.0:
            self.gstate.estimate = p95  # seed the average with the first window
        else:
            self.gstate.estimate = self.smoothing * self.gstate.estimate + (1 - self.smoothing) * p95
        self._rd_sum[type_idx, config_idx] += et.cost_app
        self._rd_count[type_idx, config_idx] += 1
        self.slot += 1
        return SlotRecord(et, overflow, 0.0)

    def state_values(self):
        return None


class FixedPolicyController:
    """Follows a precomputed policy (e.g. the value-iteration oracle)."""

    message_labels = ()

    def __init__(self, cfg: SystemConfig, policy: np.ndarray, values: np.ndarray = None):
        n_states = cfg.state_space().n_states
        n_actions = cfg.action_space().n_actions
        policy = np.asarray(policy)
        if policy.shape != (n_states,):
            raise PolicyError(f"policy must cover all {n_states} states")
        if np.any(policy < 0) or np.any(policy >= n_actions):
            raise PolicyError("policy contains out-of-range actions")
        self.policy = policy.astype(np.int64)
        self.values = values
        self._n_configs = len(cfg.configs)
        self.slot = 0
        self.message_log = MessageLog(self.message_labels)

    def step(self, sim: Simulator) -> SlotRecord:
        a = int(self.policy[sim.state_index()])
        command_idx, config_idx = divmod(a, self._n_configs)
        et, overflow = sim.slot(command_idx, config_idx)
        self.slot += 1
        return SlotRecord(et, overflow, 0.0)

    def state_values(self):
        return self.values


def decomposed_tables(factors: FactoredModel, gamma: float, tol: float = 1e-8):
    """Oracle layered tables from the joint optimum.

    Returns (inner, outer, q_star): inner[s, a2, s1'] folds the high-layer
    reward and expectation over s2' into the optimal V; outer[s, a1, a2] folds
    the low-layer cost and expectation over s1' into inner. outer reshaped
    over actions equals q_star up to the value-iteration tolerance.
    """
    q_star, _, v = value_iteration(factors, gamma, tol)
    n1, m1, _ = factors.p_low.shape
    _, n2, m2, _ = factors.p_high.shape
    v_grid = v.reshape(n1, n2)
    inner = (
        (factors.gain - factors.weight_high * factors.cost_high[None, :, :])[:, :, :, None]
        + gamma * np.einsum("ixmy,jy->ixmj", factors.p_high, v_grid)
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


def decomposition_check(
    model: TransitionModel, factors: FactoredModel, gamma: float, tol: float = 1e-8
) -> float:
    """Max |Q reassembled through the layered identities - joint Q*|.

    The factored model must describe the same MDP as `model` (checked to
    1e-9); the returned discrepancy is bounded by the value-iteration
    tolerance, not by the factorization.
    """
    joint = factors.to_joint()
    if joint.p.shape != model.p.shape or joint.r.shape != model.r.shape:
        raise ModelError("factored model dimensions do not match the joint model")
    p_err = float(np.abs(joint.p - model.p).max())
    r_err = float(np.abs(joint.r - model.r).max())
    if p_err > 1e-9 or r_err > 1e-9:
        raise ModelError(f"factors inconsistent with joint model (p {p_err:.2e}, r {r_err:.2e})")
    _, outer, q_star = decomposed_tables(factors, gamma, tol)
    return float(np.abs(outer.reshape(q_star.shape) - q_star).max())
