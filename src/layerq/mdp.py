"""Generic finite-MDP machinery.

Dense-array representations of state/action spaces, transition models (dense
and factored: a low-layer factor, a type chain and a buffer factor), and the
tabular learning primitives (epsilon-greedy selection, one-step Q updates,
value iteration, stationary distributions). The solvers see a model only
through `validate`, `r`, `expected_next` (action-major) and `policy_step`
(mu -> mu P_pi), so they run on either representation. The dense expansion
of a factored model, `joint_model`, is a test reference in tests/reference.py.
Nothing in this module knows about the concrete encoder/frequency system;
states and actions are integer indices. The config schema starts here too:
`Rule`, the one validator (`check_value`, `validate`) and `ConfigError`,
since `LearningSchedule` is the lowest config class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration; names the field."""


@dataclass(frozen=True)
class Rule:
    """What one config field must hold.

    `kind` is float (a finite real), int (an integral real, stored as an
    int), bool, str or a config class. `bounds` is an interval for reals and
    integers, such as "(0, 1]" or "[1, inf)". `choices` lists the allowed
    strings, and `presets` names integer values. `depth` 1 asks for a list of
    such values and 2 for a list of such lists: lists are stored as tuples and
    their reals as floats, while a single real is kept as given. Lists are
    non-empty unless `empty`, and hold no repeats when `distinct`. `null`
    also allows None.
    """

    kind: type
    bounds: str = ""
    choices: tuple = ()
    presets: dict | None = None
    depth: int = 0
    distinct: bool = False
    empty: bool = False
    null: bool = False


def ruled(default, kind, bounds: str = "", **options):
    """A dataclass field checked by Rule(kind, bounds, **options); a class
    default is called for each new instance."""
    metadata = {"rule": Rule(kind, bounds, **options)}
    if isinstance(default, type):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


def _wants(rule: Rule) -> str:
    """What a value of `rule` must be, as its error message says it."""
    if rule.kind is int:
        presets = f" or one of {', '.join(rule.presets)}" if rule.presets else ""
        return f"an integer >= {rule.bounds[1:].split(',')[0]}{presets}"
    if rule.kind is float:
        words = {"": "finite", "(0, inf)": "positive and finite", "[0, inf)": "non-negative and finite"}
        return words.get(rule.bounds, f"in {rule.bounds}")
    if rule.choices:
        return f"one of {', '.join(rule.choices)}"
    words = {bool: "true or false", str: "a string"}.get(rule.kind, f"a {rule.kind.__name__}")
    return words + (" or null" if rule.null else "")


def check_value(rule: Rule, name: str, value, depth: int | None = None):
    """`value` checked against `rule` and normalised (see Rule); a ConfigError
    "name: must be ..., got ..." otherwise. List entries are named name[i]."""
    depth = rule.depth if depth is None else depth
    if value is None and rule.null:
        return None
    if depth:
        if not isinstance(value, (list, tuple)) or not (value or rule.empty):
            raise ConfigError(f"{name}: must be a {'' if rule.empty else 'non-empty '}list, got {value!r}")
        items = tuple(check_value(rule, f"{name}[{i}]", v, depth - 1) for i, v in enumerate(value))
        if rule.distinct:
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"{name}: duplicate {name.split('.')[-1].removesuffix('s')} {item!r}")
        return tuple(map(float, items)) if depth == 1 and rule.kind is float else items
    if rule.kind in (int, float):
        if rule.presets and isinstance(value, str) and value in rule.presets:
            return rule.presets[value]
        low, high = (float(end) for end in rule.bounds[1:-1].split(",")) if rule.bounds else (-np.inf, np.inf)
        if (
            isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and abs(value) <= np.finfo(float).max.item()  # a Python int may be too large for a float
            and (low <= value if rule.bounds[:1] == "[" else low < value)
            and (value <= high if rule.bounds[-1:] == "]" else value < high)
            and (rule.kind is float or value == int(value))
        ):
            return int(value) if rule.kind is int else value
    elif isinstance(value, rule.kind) and (not rule.choices or value in rule.choices):
        return value
    raise ConfigError(f"{name}: must be {_wants(rule)}, got {value!r}")


def validate(config, section: str) -> None:
    """Check every ruled field of the config dataclass `config` as
    section.field, and store its normalised value."""
    for f in fields(config):
        rule = f.metadata.get("rule")
        if rule is not None:
            name = f"{section}.{f.name}" if section else f.name
            object.__setattr__(config, f.name, check_value(rule, name, getattr(config, f.name)))


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
        for name, value in vars(self).items():
            if not np.isfinite(value).all():
                raise ModelError(f"non-finite entry in {name}")
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
        """E[v(s') | s, a] action-major, as an (A, S) array (a transposed view)."""
        n_states, n_actions = self.r.shape
        return (self.p.reshape(n_states * n_actions, n_states) @ v).reshape(n_states, n_actions).T

    def policy_chain(self, policy: np.ndarray) -> np.ndarray:
        """The (S, S) transition matrix of the chain that `policy` induces."""
        return self.p[np.arange(self.n_states), policy]

    def policy_step(self, policy: np.ndarray):
        """mu -> mu P_pi for the chain that `policy` induces, by its dense chain."""
        chain = self.policy_chain(policy)
        return lambda mu: mu @ chain


@dataclass
class FactoredModel:
    """Two-layer factored MDP whose high layer factors once more.

    The low layer owns s1/a1; its next-state factor depends only on them. The
    high layer owns s2 = (z, q) and a2: z follows the chain p_type(z'|z) and
    q the factor p_buffer(q'|s1, z, a2, q), so p(s2'|s1, s2, a2) =
    p_type[z, z'] * p_buffer[s1, z, a2, q, q']; a general two-layer high layer
    is the case nz = 1, p_type = [[1.0]]. Joint indices are s = s1 * n2 + z * L
    + q (n2 = nz * L) and a = a1 * m2 + a2, matching StateSpace/ActionSpace
    layouts when s1 is the frequency component.
    """

    p_low: np.ndarray      # (n1, m1, n1)
    p_type: np.ndarray     # (nz, nz)
    p_buffer: np.ndarray   # (n1, nz, m2, L, L)
    gain: np.ndarray       # (n1, n2, m2) expected utility gain
    cost_low: np.ndarray   # (n1, m1)
    cost_high: np.ndarray  # (n2, m2)
    weight_low: float
    weight_high: float

    @property
    def n_states(self) -> int:
        return self.p_low.shape[0] * self.p_type.shape[0] * self.p_buffer.shape[3]

    @property
    def n_actions(self) -> int:
        return self.p_low.shape[1] * self.p_buffer.shape[2]

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
        for name, value in vars(self).items():
            if not np.isfinite(value).all():
                raise ModelError(f"non-finite entry in {name}")
        n1, m1, n1_next = self.p_low.shape
        if n1_next != n1:
            raise ModelError(f"p_low must be (n1, m1, n1), got {self.p_low.shape}")
        if self.p_type.ndim != 2 or self.p_type.shape[0] != self.p_type.shape[1]:
            raise ModelError(f"p_type must be (nz, nz), got {self.p_type.shape}")
        nz = self.p_type.shape[0]
        buffer = self.p_buffer.shape
        if len(buffer) != 5 or buffer[:2] != (n1, nz) or buffer[3] != buffer[4]:
            raise ModelError(f"p_buffer must be (n1, nz, m2, L, L), got {buffer}")
        n2, m2 = nz * buffer[3], buffer[2]
        for name, arr, shape in (
            ("gain", self.gain, (n1, n2, m2)),
            ("cost_low", self.cost_low, (n1, m1)),
            ("cost_high", self.cost_high, (n2, m2)),
        ):
            if arr.shape != shape:
                raise ModelError(f"{name} shape {arr.shape} does not match factors, expected {shape}")
        factors = {"p_low": self.p_low, "p_type": self.p_type, "p_buffer": self.p_buffer}
        for name, factor in factors.items():
            if np.any(factor < 0):
                raise ModelError(f"negative probability in {name}")
            row_err = np.abs(factor.sum(axis=-1) - 1.0).max()
            if row_err > tol:
                raise ModelError(f"{name} rows deviate from 1 by {row_err:.3e}")

    def high_expectation(self, v: np.ndarray) -> np.ndarray:
        """E[v(s1', z', q') | s1, z, q, a2] per next low state s1', as an
        (n1, nz, m2, L, n1) array: next types mixed by p_type, then one
        batched matmul over p_buffer for the next level."""
        n1, nz, m2, n_levels, _ = self.p_buffer.shape
        # w[z, q', j] = sum_z' p_type[z, z'] * v[j, z', q']
        v_t = np.ascontiguousarray(v.reshape(n1, nz * n_levels).T)
        w = (self.p_type @ v_t.reshape(nz, n_levels * n1)).reshape(nz, n_levels, n1)
        high = self.p_buffer.reshape(n1, nz, m2 * n_levels, n_levels) @ w
        return high.reshape(n1, nz, m2, n_levels, n1)

    def expected_next(self, v: np.ndarray) -> np.ndarray:
        """E[v(s') | s, a] action-major, as an (A, S) array: the high-layer
        expectation, then p_low for the next low state."""
        n1, m1, _ = self.p_low.shape
        _, nz, m2, n_levels, _ = self.p_buffer.shape
        high = self.high_expectation(v).reshape(n1, nz, m2 * n_levels, n1)
        # out[i, z, k, (m, q)] = sum_j p_low[i, k, j] * high[i, z, (m, q), j]
        out = self.p_low[:, None] @ high.transpose(0, 1, 3, 2)
        return out.reshape(n1, nz, m1, m2, n_levels).transpose(2, 3, 0, 1, 4).reshape(m1 * m2, -1)

    def policy_step(self, policy: np.ndarray):
        """mu -> mu P_pi on the factors; the policy's p_low rows (n1, nz, L, n1) and p_buffer
        rows (n1, nz, L, L) are gathered once, and a step is one batched matmul over (s1, z)."""
        n1, nz, m2, n_levels, _ = self.p_buffer.shape
        k, m = np.divmod(np.asarray(policy).reshape(n1, nz, n_levels), m2)
        i, z, q = np.ogrid[:n1, :nz, :n_levels]
        low, buffer = self.p_low[i, k], self.p_buffer[i, z, m, q]
        def step(mu: np.ndarray) -> np.ndarray:
            # flow[z, j, q'] = sum over (i, q) of mu[i, z, q] p_low[i, k, j] p_buffer[i, z, m, q, q']
            weighted = mu.reshape(n1, nz, n_levels, 1) * low
            flow = (weighted.transpose(0, 1, 3, 2) @ buffer).sum(axis=0)
            out = self.p_type.T @ flow.reshape(nz, n1 * n_levels)
            return out.reshape(nz, n1, n_levels).transpose(1, 0, 2).ravel()
        return step

@dataclass
class LearningSchedule:
    """Discount, exploration, and learning-rate rules shared by all learners.

    alpha_rule "visit-decay" gives the k-th update of a pair the rate
    1/(1+k)^alpha_exponent with k counted per (s, a); exponents in (0.5, 1]
    satisfy the usual stochastic-approximation conditions. epsilon_rule
    "sqrt-decay" replaces the constant epsilon with min(1, 1/sqrt(1+n)).
    """

    gamma: float = ruled(0.9, float, "[0, 1)")
    epsilon: float = ruled(0.1, float, "[0, 1]")
    epsilon_rule: str = ruled("constant", str, choices=("constant", "sqrt-decay"))
    alpha_rule: str = ruled("visit-decay", str, choices=("visit-decay", "constant"))
    alpha: float = ruled(0.1, float, "[0, 1]")
    alpha_exponent: float = ruled(0.6, float, "(0, inf)")

    def __post_init__(self):
        validate(self, "learner")  # the fields of the learner section that set the schedule

    def alpha_at(self, visits: int) -> float:
        if self.alpha_rule == "constant":
            return self.alpha
        return 1.0 / (1.0 + visits) ** self.alpha_exponent

    def epsilon_at(self, slot: int) -> float:
        if self.epsilon_rule == "constant":
            return self.epsilon
        return min(1.0, 1.0 / (1.0 + slot) ** 0.5)


class LazyTable(dict):
    """k -> f(k) for ints k >= 0, each entry computed once, on a Python int,
    when first looked up: the learners' alpha per visit count and trace
    weight per age. Entries exist only for the keys a run reaches."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, k: int) -> float:
        value = self[k] = self.f(int(k))
        return value


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
    return int(q_row.argmax())


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
    Python's max of the row equals numpy's on finite rows (RunStats checks).
    """
    delta = reward + gamma * max(q[s_next].tolist()) - q[s, a]
    q[s, a] += alpha * delta
    return float(delta)


def _log_solver(name: str, iterations: int, residual: float) -> None:
    """Info-level solver record. logging is imported on first use: imported with
    this module, ahead of the package, it raised every command's peak RSS 0.5 MB."""
    import logging
    logging.getLogger("layerq").info("%s: %d iterations, residual %.3e", name, iterations, residual)


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
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    model.validate()
    # Action-major (A, S): the max over actions then reduces contiguous rows.
    r = np.ascontiguousarray(model.r.T)
    q = np.zeros(r.shape)
    diff = np.inf
    for iteration in range(1, max_iter + 1):
        q_next = r + gamma * model.expected_next(q.max(axis=0))
        diff = float(np.abs(q_next - q).max())
        q = q_next
        if diff <= tol:
            _log_solver("value iteration", iteration, diff)
            q = np.ascontiguousarray(q.T)
            return q, np.argmax(q, axis=1), q.max(axis=1)
    raise NumericalError("value iteration did not converge", diff)


def stationary_distribution(
    model: TransitionModel | FactoredModel,
    policy: np.ndarray,
    tol: float = 1e-10,
    damping: float = 1e-6,
    max_iter: int = 500_000,
) -> np.ndarray:
    """Stationary distribution of the policy-induced chain by power iteration.

    The chain is damped toward uniform by `damping` in [0, 1), so that periodic
    or reducible chains still have a unique fixed point; the perturbation of
    the result is O(damping). Starts from the uniform distribution. A residual
    ||mu P - mu||_1 <= tol holds for the damped chain on return (the residual
    is non-increasing along power iterations).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be finite and in [0, 1), got {damping}")
    model.validate()
    n = model.n_states
    if len(policy) != n or np.any(policy < 0) or np.any(policy >= model.n_actions):
        raise ValueError("policy is not a valid action index per state")
    step = model.policy_step(policy)
    mu = np.full(n, 1.0 / n)
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        mu_next = (1.0 - damping) * step(mu) + damping / n * mu.sum()
        mu_next /= mu_next.sum()
        residual = float(np.abs(mu_next - mu).sum())
        mu = mu_next
        if residual <= tol:
            _log_solver("stationary distribution", iteration, residual)
            return mu
    raise NumericalError("stationary distribution did not converge", residual)
