"""Generic finite-MDP machinery.

Dense-array representations of state/action spaces, transition models (dense
and two-layer factored), and the tabular learning primitives (epsilon-greedy
selection, one-step Q updates, value iteration, stationary distributions).
The solvers see a model only through `validate`, `r`, `expected_next` and
`policy_chain`, so they run on either representation. Nothing in this module
knows about the concrete encoder/frequency system; states and actions are
integer indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ModelError(ValueError):
    """A transition model or factored model violates its normalization contract."""


class NumericalError(RuntimeError):
    """An iterative solver hit its iteration cap; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class StateSpace:
    """Dense indexing for global states (frequency, unit type, buffer level).

    The dense index is (freq_idx * n_types + type_idx) * n_levels + occupancy,
    so all buffer levels of one (frequency, type) pair are contiguous.
    """

    frequencies: tuple[float, ...]
    unit_types: tuple[str, ...]
    capacity: int  # buffer levels run 0..capacity inclusive

    @property
    def n_levels(self) -> int:
        return self.capacity + 1

    @property
    def n_states(self) -> int:
        return len(self.frequencies) * len(self.unit_types) * self.n_levels

    def index(self, freq_idx: int, type_idx: int, occupancy: int) -> int:
        return (freq_idx * len(self.unit_types) + type_idx) * self.n_levels + occupancy

    def components(self, state_idx: int) -> tuple[int, int, int]:
        state_idx, occupancy = divmod(state_idx, self.n_levels)
        freq_idx, type_idx = divmod(state_idx, len(self.unit_types))
        return freq_idx, type_idx, occupancy


@dataclass(frozen=True)
class ActionSpace:
    """Dense indexing for global actions (frequency command, encoder config)."""

    commands: tuple[float, ...]
    configs: tuple[str, ...]

    @property
    def n_actions(self) -> int:
        return len(self.commands) * len(self.configs)

    def index(self, command_idx: int, config_idx: int) -> int:
        return command_idx * len(self.configs) + config_idx

    def components(self, action_idx: int) -> tuple[int, int]:
        return divmod(action_idx, len(self.configs))


@dataclass
class TransitionModel:
    """Dense MDP model: p[s, a, s'] transition probabilities, r[s, a] rewards."""

    p: np.ndarray
    r: np.ndarray

    @property
    def n_states(self) -> int:
        return self.p.shape[0]

    @property
    def n_actions(self) -> int:
        return self.p.shape[1]

    def validate(self, tol: float = 1e-9) -> None:
        if self.p.ndim != 3 or self.p.shape[0] != self.p.shape[2]:
            raise ModelError(f"p must be (S, A, S), got {self.p.shape}")
        if self.r.shape != self.p.shape[:2]:
            raise ModelError(f"r shape {self.r.shape} does not match p {self.p.shape}")
        if np.any(self.p < 0):
            raise ModelError("negative transition probability")
        row_err = np.abs(self.p.sum(axis=2) - 1.0).max()
        if row_err > tol:
            raise ModelError(f"transition rows deviate from 1 by {row_err:.3e}")

    def expected_next(self, v: np.ndarray) -> np.ndarray:
        """E[v(s') | s, a] as an (S, A) array."""
        n_states, n_actions = self.r.shape
        return (self.p.reshape(n_states * n_actions, n_states) @ v).reshape(n_states, n_actions)

    def policy_chain(self, policy: np.ndarray) -> np.ndarray:
        """The (S, S) transition matrix of the chain that `policy` induces."""
        return self.p[np.arange(self.n_states), policy]


@dataclass
class FactoredModel:
    """Two-layer factored MDP.

    The low layer owns s1/a1 and its next-state factor depends only on them;
    the high layer owns s2/a2 with a next-state factor conditioned on the full
    state. Joint indices are s = s1 * n2 + s2 and a = a1 * m2 + a2, matching
    StateSpace/ActionSpace layouts when s1 is the frequency component.
    """

    p_low: np.ndarray      # (n1, m1, n1)
    p_high: np.ndarray     # (n1, n2, m2, n2)
    gain: np.ndarray       # (n1, n2, m2) expected utility gain
    cost_low: np.ndarray   # (n1, m1)
    cost_high: np.ndarray  # (n2, m2)
    weight_low: float
    weight_high: float

    @property
    def n_states(self) -> int:
        return self.p_low.shape[0] * self.p_high.shape[1]

    @property
    def n_actions(self) -> int:
        return self.p_low.shape[1] * self.p_high.shape[2]

    @property
    def r(self) -> np.ndarray:
        """Joint (S, A) rewards: gain - weight_low * cost_low - weight_high * cost_high."""
        r = (
            self.gain[:, :, None, :]
            - self.weight_low * self.cost_low[:, None, :, None]
            - self.weight_high * self.cost_high[None, :, None, :]
        )
        return np.ascontiguousarray(r.reshape(self.n_states, self.n_actions))

    def validate(self, tol: float = 1e-9) -> None:
        n1, m1, n1_next = self.p_low.shape
        if n1_next != n1:
            raise ModelError(f"p_low must be (n1, m1, n1), got {self.p_low.shape}")
        high = self.p_high.shape
        if len(high) != 4 or high[0] != n1 or high[1] != high[3]:
            raise ModelError(f"p_high must be (n1, n2, m2, n2), got {self.p_high.shape}")
        _, n2, m2, _ = high
        for name, arr, shape in (
            ("gain", self.gain, (n1, n2, m2)),
            ("cost_low", self.cost_low, (n1, m1)),
            ("cost_high", self.cost_high, (n2, m2)),
        ):
            if arr.shape != shape:
                raise ModelError(f"{name} shape {arr.shape} does not match factors, expected {shape}")
        for name, factor in (("p_low", self.p_low), ("p_high", self.p_high)):
            if np.any(factor < 0):
                raise ModelError(f"negative probability in {name}")
            row_err = np.abs(factor.sum(axis=-1) - 1.0).max()
            if row_err > tol:
                raise ModelError(f"{name} rows deviate from 1 by {row_err:.3e}")

    def expected_next(self, v: np.ndarray) -> np.ndarray:
        """E[v(s') | s, a] as an (S, A) array, one layer at a time: a matmul
        over p_high for the next high state, then p_low for the next low state."""
        n1, m1, _ = self.p_low.shape
        _, n2, m2, _ = self.p_high.shape
        # inner[i, x, m, j] = sum_y p_high[i, x, m, y] * v[j, y]
        inner = self.p_high.reshape(n1 * n2 * m2, n2) @ v.reshape(n1, n2).T
        inner = inner.reshape(n1, n2 * m2, n1)
        # out[i, x, m, k] = sum_j inner[i, x, m, j] * p_low[i, k, j]
        out = (inner @ self.p_low.transpose(0, 2, 1)).reshape(n1, n2, m2, m1)
        return out.transpose(0, 1, 3, 2).reshape(n1 * n2, m1 * m2)

    def policy_chain(self, policy: np.ndarray) -> np.ndarray:
        """The (S, S) policy chain; entries are the same products as in to_joint()."""
        n1, _, _ = self.p_low.shape
        _, n2, m2, _ = self.p_high.shape
        k, m = np.divmod(np.asarray(policy).reshape(n1, n2), m2)
        i = np.arange(n1)[:, None]
        low = self.p_low[i, k]                       # (n1, n2, n1): p_low[i, k(i, x), j]
        high = self.p_high[i, np.arange(n2), m]      # (n1, n2, n2): p_high[i, x, m(i, x), y]
        return (low[:, :, :, None] * high[:, :, None, :]).reshape(n1 * n2, n1 * n2)

    def to_joint(self) -> TransitionModel:
        """The dense model of the same MDP (a test reference for small instances)."""
        p = np.einsum("ikj,ixmy->ixkmjy", self.p_low, self.p_high)
        return TransitionModel(
            p=np.ascontiguousarray(p.reshape(self.n_states, self.n_actions, self.n_states)),
            r=self.r,
        )


@dataclass
class LearningSchedule:
    """Discount, exploration, and learning-rate rules shared by all learners.

    alpha_rule "visit-decay" gives the k-th update of a pair the rate
    1/(1+k)^alpha_exponent with k counted per (s, a); exponents in (0.5, 1]
    satisfy the usual stochastic-approximation conditions. epsilon_rule
    "sqrt-decay" replaces the constant epsilon with min(1, 1/sqrt(1+n)).
    """

    gamma: float = 0.9
    epsilon: float = 0.1
    epsilon_rule: str = "constant"  # constant | sqrt-decay
    alpha_rule: str = "visit-decay"  # visit-decay | constant
    alpha: float = 0.1
    alpha_exponent: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.epsilon_rule not in ("constant", "sqrt-decay"):
            raise ValueError(f"unknown epsilon_rule {self.epsilon_rule!r}")
        if self.alpha_rule not in ("visit-decay", "constant"):
            raise ValueError(f"unknown alpha_rule {self.alpha_rule!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.alpha_exponent > 0.0:
            raise ValueError(f"alpha_exponent must be > 0, got {self.alpha_exponent}")

    def alpha_at(self, visits: int) -> float:
        if self.alpha_rule == "constant":
            return self.alpha
        return 1.0 / (1.0 + visits) ** self.alpha_exponent

    def epsilon_at(self, slot: int) -> float:
        if self.epsilon_rule == "constant":
            return self.epsilon
        return min(1.0, 1.0 / (1.0 + slot) ** 0.5)


def epsilon_greedy(q_row: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Pick argmax with probability 1-epsilon, else uniform over all actions.

    Ties break to the lowest index, so the result is deterministic at
    epsilon=0. The uniform branch includes the greedy action, giving it total
    probability 1 - epsilon + epsilon/|A|.
    """
    n = len(q_row)
    if n == 0:
        raise ValueError("empty action row")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(n))
    return int(np.argmax(q_row))


def q_update(
    q: np.ndarray,
    s: int,
    a: int,
    reward: float,
    s_next: int,
    alpha: float,
    gamma: float,
) -> float:
    """One tabular Q backup; mutates q[s, a] only and returns the TD error.

    Callers are responsible for alpha in [0, 1] (hot path, not re-checked).
    """
    delta = reward + gamma * q[s_next].max() - q[s, a]
    q[s, a] += alpha * delta
    return float(delta)


def value_iteration(
    model: TransitionModel | FactoredModel,
    gamma: float,
    tol: float = 1e-8,
    max_iter: int = 200_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve for (Q*, greedy policy, V*) by synchronous Bellman backups.

    Iterates until the sup-norm change drops below tol; the returned Q then
    has Bellman residual at most gamma * tol <= tol.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    model.validate()
    r = model.r
    q = np.zeros(r.shape)
    diff = np.inf
    for _ in range(max_iter):
        v = q.max(axis=1)
        q_next = r + gamma * model.expected_next(v)
        diff = float(np.abs(q_next - q).max())
        q = q_next
        if diff <= tol:
            policy = np.argmax(q, axis=1)
            return q, policy, q.max(axis=1)
    raise NumericalError("value iteration did not converge", diff)


def stationary_distribution(
    model: TransitionModel | FactoredModel,
    policy: np.ndarray,
    tol: float = 1e-10,
    damping: float = 1e-6,
    max_iter: int = 500_000,
) -> np.ndarray:
    """Stationary distribution of the policy-induced chain by power iteration.

    The chain is damped toward uniform by `damping` so that periodic or
    reducible chains still have a unique fixed point; the perturbation of the
    result is O(damping). Starts from the uniform distribution. A residual
    ||mu P - mu||_1 <= tol holds for the damped chain on return (the residual
    is non-increasing along power iterations).
    """
    model.validate()
    n = model.n_states
    if len(policy) != n or np.any(policy < 0) or np.any(policy >= model.n_actions):
        raise ValueError("policy is not a valid action index per state")
    chain = model.policy_chain(policy)
    if damping > 0.0:
        chain = (1.0 - damping) * chain + damping / n
    mu = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        mu_next = mu @ chain
        mu_next /= mu_next.sum()
        residual = float(np.abs(mu_next - mu).sum())
        mu = mu_next
        if residual <= tol:
            return mu
    raise NumericalError("stationary distribution did not converge", residual)
