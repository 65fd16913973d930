"""Online decision-making: centralized, layered, and best-response Q-learning,
virtual-experience and eligibility-trace acceleration, and the myopic
deadline-driven baseline.

Every learner exposes step(sim), which advances the simulator by one slot
and returns the slot's TD error (0.0 for the controllers), state_values() for
error curves, and message_labels, the inter-layer messages its deployment
would exchange per slot. A learner reads the slot's outcome from the
simulator's attributes after `sim.slot(u, h)`.
"""

from __future__ import annotations

import bisect
import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from .mdp import LazyTable, LearningSchedule, epsilon_greedy, q_update
from .system import Simulator, SystemConfig


class PolicyError(ValueError):
    """A fixed policy is missing or out of range for some state."""


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


class CentralizedQLearner:
    """One dense Q(s, a) table updated from the actual slot."""

    message_labels = CENTRALIZED_MESSAGES

    def __init__(self, cfg: SystemConfig, schedule: LearningSchedule, rng: np.random.Generator):
        self.cfg = cfg
        self.schedule = schedule
        self.rng = rng
        self._n_configs = len(cfg.configs)
        n_states = cfg.state_space().n_states
        n_actions = cfg.action_space().n_actions
        self.q = np.zeros((n_states, n_actions))
        self.visits = np.zeros((n_states, n_actions), dtype=np.int64)
        self.alphas = LazyTable(schedule.alpha_at)
        self.slot = 0

    def select(self, s: int) -> int:
        return epsilon_greedy(self.q[s], self.schedule.epsilon_at(self.slot), self.rng)

    def step(self, sim: Simulator) -> float:
        s = sim.s
        a = self.select(s)
        command_idx, config_idx = divmod(a, self._n_configs)
        s_next = sim.slot(command_idx, config_idx)
        delta = self._update(s, a, s_next, sim)
        self.slot += 1
        return delta

    def _update(self, s: int, a: int, s_next: int, sim: Simulator) -> float:
        count = self.visits.item(s, a)
        delta = q_update(self.q, s, a, sim.reward, s_next, self.alphas[count], self.schedule.gamma)
        self.visits[s, a] = count + 1
        return delta

    def state_values(self) -> np.ndarray:
        return self.q.max(axis=1)


@dataclass
class LayeredQTables:
    """Per-layer tables: q_app[s, a2, s1'] (inner) and q_os[s, a1, a2] (outer)."""

    q_app: np.ndarray
    q_os: np.ndarray


def layered_update(
    tables: LayeredQTables,
    s: int,
    a1: int,
    a2: int,
    sim: Simulator,
    alpha_os: float,
    alpha_app: float,
    gamma: float,
    power_weight: float,
    rd_weight: float,
):
    """Both layers' updates for the slot that state s and action (a1, a2)
    just ran on `sim` (or any object with its s, freq_idx, gain, j1 and j2),
    in protocol order.

    The OS side forwards V(s') = max q_os[s']; the APP side updates its inner
    cell at the realized next frequency and forwards the updated scalar, which
    the OS side then uses as its target. Exactly one cell of each table
    changes. Returns (delta_app, delta_os).
    """
    fi_next = sim.freq_idx
    v_next = max(tables.q_os[sim.s].ravel().tolist())
    q1 = tables.q_app.item(s, a2, fi_next)
    delta_app = (sim.gain - rd_weight * sim.j2 + gamma * v_next) - q1
    q1_updated = tables.q_app[s, a2, fi_next] = q1 + alpha_app * delta_app
    q_os = tables.q_os.item(s, a1, a2)
    delta_os = (-power_weight * sim.j1 + q1_updated) - q_os
    tables.q_os[s, a1, a2] = q_os + alpha_os * delta_os
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
        self._n_configs = len(cfg.configs)
        self._n_freqs = len(cfg.frequencies)
        n_states = cfg.state_space().n_states
        self.tables = LayeredQTables(
            q_app=np.zeros((n_states, self._n_configs, self._n_freqs)),
            q_os=np.zeros((n_states, self._n_freqs, self._n_configs)),
        )
        self.visits_app = np.zeros(self.tables.q_app.shape, dtype=np.int64)
        self.visits_os = np.zeros(self.tables.q_os.shape, dtype=np.int64)
        self.alphas = LazyTable(schedule.alpha_at)
        self.slot = 0

    def step(self, sim: Simulator) -> float:
        s = sim.s
        eps = self.schedule.epsilon_at(self.slot)
        # each layer picks a cell of its grid and acts on the cell's row
        config_idx = epsilon_greedy(self.tables.q_app[s].ravel(), eps, self.rng) // self._n_freqs
        command_idx = epsilon_greedy(self.tables.q_os[s].ravel(), eps, self.rng) // self._n_configs
        sim.slot(command_idx, config_idx)

        freq_next = sim.freq_idx
        count_app = self.visits_app.item(s, config_idx, freq_next)
        count_os = self.visits_os.item(s, command_idx, config_idx)
        _, delta_os = layered_update(
            self.tables,
            s,
            command_idx,
            config_idx,
            sim,
            self.alphas[count_os],
            self.alphas[count_app],
            self.schedule.gamma,
            self.cfg.power_weight,
            self.cfg.rd_weight,
        )
        self.visits_app[s, config_idx, freq_next] = count_app + 1
        self.visits_os[s, command_idx, config_idx] = count_os + 1
        self.slot += 1
        return delta_os

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
        self.alphas = LazyTable(schedule.alpha_at)
        self.slot = 0

    def step(self, sim: Simulator) -> float:
        s = sim.s
        a_own = epsilon_greedy(self.q[s], self.schedule.epsilon_at(self.slot), self.rng)
        a_other = self.fixed_policy.item(s)
        if self.layer == "app":
            s_next = sim.slot(a_other, a_own)
        else:
            s_next = sim.slot(a_own, a_other)
        count = self.visits.item(s, a_own)
        delta = q_update(self.q, s, a_own, sim.reward, s_next, self.alphas[count], self.schedule.gamma)
        self.visits[s, a_own] = count + 1
        self.slot += 1
        return delta

    def state_values(self) -> np.ndarray:
        return self.q.max(axis=1)


def _draw_virtual_levels(
    actual_occupancy: int, capacity: int, psi: int, rng: np.random.Generator
) -> np.ndarray:
    """psi distinct buffer levels excluding the actual one, uniform."""
    if psi >= capacity:
        picks = np.arange(capacity)
    else:
        picks = rng.choice(capacity, size=psi, replace=False)
    return picks + (picks >= actual_occupancy)


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

    def _update(self, s: int, a: int, s_next: int, sim: Simulator) -> float:
        delta = super()._update(s, a, s_next, sim)
        if self.psi > 0:
            self._virtual_updates(s, a, s_next, sim)
        return delta

    def _virtual_updates(self, s: int, a: int, s_next: int, sim: Simulator) -> None:
        # Inline equivalent of the virtual-tuple reference (virtual_et_expand
        # + virtual_et_update in tests/reference.py) for the selected levels
        # only; tests pin the equivalence bit for bit. The backups of one slot
        # write only column a of the (f, z) block and read rows of the
        # (f', z') block, so that column and the next rows' maxima over the
        # other columns are read once, the backups run on Python floats in
        # draw order, and the column is written back. When the two blocks
        # coincide, next_col is col and later backups see earlier ones. raw
        # is buffer_step's unclamped level; the gains are utility_gain's.
        cfg = self.cfg
        q_actual = sim.q
        base = s - q_actual
        base_next = s_next - sim.occupancy
        cap = cfg.capacity
        n_levels = cap + 1
        proposed = cfg.gain_mode == "proposed"
        gamma = self.schedule.gamma
        alphas = self.alphas
        shift = sim.arrivals - 1
        j_os = cfg.power_weight * sim.j1
        j_app = cfg.rd_weight * sim.j2
        block = slice(base, base + n_levels)
        col = self.q[block, a].tolist()
        counts = self.visits[block, a].tolist()
        rows_next = self.q[base_next : base_next + n_levels]
        next_col = col if base_next == base else rows_next[:, a].tolist()
        masked = rows_next.copy()
        masked[:, a] = -np.inf
        others = masked.max(axis=1).tolist()
        for level in _draw_virtual_levels(q_actual, cap, self.psi, self.rng).tolist():
            raw = level + shift
            occupancy_next = 0 if raw < 0 else cap if raw > cap else raw
            gain = 1.0 - (raw / cap) ** 2 if proposed else 1.0 if raw <= cap else float(cap - raw)
            best = max(others[occupancy_next], next_col[occupancy_next])
            count = counts[level]
            col[level] += alphas[count] * (gain - j_os - j_app + gamma * best - col[level])
            counts[level] = count + 1
        self.q[block, a] = col
        self.visits[block, a] = counts


@dataclass
class EligibilityState:
    """Replacing traces with lazy decay: e = decay^(slots since last visit).

    Traces are keyed by any hashable pair id; td_lambda_step uses the flat
    table cell s * n_actions + a.
    """

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
        self.powers = LazyTable(lambda age: self.decay**age)  # trace weight by age

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
    s: int,
    a: int,
    sim: Simulator,
    psi: int,
    schedule: LearningSchedule,
    alphas: LazyTable,
) -> float:
    """One trace-weighted sweep for the slot that pair (s, a) just ran on
    `sim` (or any object with its s and reward): full backup on the actual
    pair, then the current TD error applied as alpha * delta * e to the psi
    most eligible other pairs. Replacing traces decay by the same factor per
    slot, so the most eligible pairs are exactly the most recently visited
    ones. Visit counts advance only for the actual pair. Advances elig by one
    slot. Traces are keyed by the flat cell s * n_actions + a; the nudged cells
    are distinct, so one gather-add-scatter on the flat tables applies them.
    q must be C-contiguous, as the learners allocate it, so that its flat
    reshape is a view the scatter writes through. `alphas` is the caller's
    alpha table."""
    count = visits.item(s, a)
    delta = q_update(q, s, a, sim.reward, sim.s, alphas[count], schedule.gamma)
    visits[s, a] = count + 1
    cell = s * q.shape[1] + a
    cells = elig.top_pairs(psi, exclude=cell) if psi > 0 and elig.decay > 0.0 else None
    if cells:
        rates = [alphas[k] * delta for k in visits.reshape(-1)[cells].tolist()]
        traces = [elig.powers[elig.slot - elig.last_visit[c]] for c in cells]
        q.reshape(-1)[cells] += np.multiply(rates, traces)
    elig.refresh(cell)
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

    def _update(self, s: int, a: int, s_next: int, sim: Simulator) -> float:
        return td_lambda_step(
            self.q, self.visits, self.elig, s, a, sim, self.psi, self.schedule, self.alphas
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

    def __init__(self, cfg: SystemConfig, window_len: int = 32, smoothing: float = 0.9):
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

    def step(self, sim: Simulator) -> float:
        type_idx = sim.type_idx
        config_idx = self._pick_config(type_idx)
        command_idx = self._pick_frequency()
        sim.slot(command_idx, config_idx)
        self.gstate.push(sim.cycles)
        p95 = self.gstate.percentile_95()
        if self.gstate.estimate == 0.0:
            self.gstate.estimate = p95  # seed the average with the first window
        else:
            self.gstate.estimate = self.smoothing * self.gstate.estimate + (1 - self.smoothing) * p95
        self._rd_sum[type_idx, config_idx] += sim.j2
        self._rd_count[type_idx, config_idx] += 1
        self.slot += 1
        return 0.0

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

    def step(self, sim: Simulator) -> float:
        command_idx, config_idx = divmod(self.policy.item(sim.s), self._n_configs)
        sim.slot(command_idx, config_idx)
        self.slot += 1
        return 0.0

    def state_values(self):
        return self.values
