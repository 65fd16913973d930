"""The learners' per-slot fast paths against the loops they replaced.

Each reference below is a test-local copy of a learner's update as it was
written on numpy scalars: numpy row maxima and argmax, `alpha_at` called on
numpy visit counts, and td-lambda's one-pair-at-a-time walk over the
eligibility OrderedDict (keyed, like the learner's, by the flat cell
s * n_actions + a). Each reference computes its own state indices from the
simulator's components. The learners now index alpha and decay tables, take
Python maxima of row lists and apply the trace nudges in one scatter; these
tests pin them to the references bit for bit on Q, visit counts and TD errors.

Why Python's max may replace numpy's: the two differ only on NaN (guarded at
checkpoints, see RunStats.maybe_checkpoint) and on the sign of a zero maximum
(numpy's max of [-0.0, 0.0] is 0.0, Python's is -0.0). The sign of zero cannot
reach Q: every table starts at +0.0 and is only ever written as
`old + step`, and in round-to-nearest an IEEE sum is -0.0 only when both
addends are -0.0. So no table ever holds -0.0, every zero in a row is +0.0,
and the two maxima are the same float.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_config, small_sim
from layerq import (
    BestResponseLearner,
    CentralizedQLearner,
    EligibilityState,
    LayeredQLearner,
    LazyTable,
    LearningSchedule,
    TdLambdaLearner,
    epsilon_greedy,
    q_update,
)
from reference import slot_tuple

SEEDS = st.integers(0, 2**32 - 1)
GAIN_MODES = st.sampled_from(["proposed", "conventional"])
ALPHA_RULES = st.sampled_from(["visit-decay", "constant"])


def bits(values) -> bytes:
    """The exact bytes of a float sequence or array, so -0.0 != 0.0."""
    return np.asarray(values, dtype=np.float64).tobytes()


def schedule(alpha_rule: str) -> LearningSchedule:
    return LearningSchedule(alpha_rule=alpha_rule, alpha=0.3, gamma=0.8, epsilon=0.3)


# -- the references -------------------------------------------------------


def ref_epsilon_greedy(row, epsilon, rng) -> int:
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(row)))
    return int(np.argmax(row))


def ref_q_update(q, s, a, reward, s_next, alpha, gamma) -> float:
    delta = reward + gamma * q[s_next].max() - q[s, a]
    q[s, a] += alpha * delta
    return float(delta)


def ref_grid_select(grid, epsilon, rng):
    if epsilon > 0.0 and rng.random() < epsilon:
        flat = int(rng.integers(grid.size))
    else:
        flat = int(np.argmax(grid))
    return divmod(flat, grid.shape[1])


class Reference:
    """The centralized, best-response, layered and td-lambda updates on
    numpy scalars, driving the same simulator as the learner under test."""

    def __init__(self, cfg, sched, shape):
        self.sched = sched
        self.q = np.zeros(shape)
        self.visits = np.zeros(shape, dtype=np.int64)
        self.n_types, self.n_levels = len(cfg.unit_types), cfg.capacity + 1
        self.n_configs = len(cfg.configs)

    def index(self, state) -> int:
        fi, zi, lv = state
        return (fi * self.n_types + zi) * self.n_levels + lv

    def current(self, sim) -> int:
        return self.index((sim.freq_idx, sim.type_idx, sim.occupancy))

    def backup(self, s, a, et) -> float:
        alpha = self.sched.alpha_at(self.visits[s, a])
        delta = ref_q_update(self.q, s, a, et.reward, self.index(et.next_state), alpha, self.sched.gamma)
        self.visits[s, a] += 1
        return delta

    def centralized(self, sim, slot, rng) -> float:
        s = self.current(sim)
        a = ref_epsilon_greedy(self.q[s], self.sched.epsilon_at(slot), rng)
        sim.slot(*divmod(a, self.n_configs))
        return self.backup(s, a, slot_tuple(sim))

    def best_response(self, sim, slot, rng, layer, policy) -> float:
        s = self.current(sim)
        a = ref_epsilon_greedy(self.q[s], self.sched.epsilon_at(slot), rng)
        other = int(policy[s])
        sim.slot(other, a) if layer == "app" else sim.slot(a, other)
        return self.backup(s, a, slot_tuple(sim))

    def td_lambda(self, sim, slot, rng, elig, psi) -> float:
        s = self.current(sim)
        a = ref_epsilon_greedy(self.q[s], self.sched.epsilon_at(slot), rng)
        sim.slot(*divmod(a, self.n_configs))
        delta = self.backup(s, a, slot_tuple(sim))
        n_actions = self.q.shape[1]
        if psi > 0 and elig.decay > 0.0:
            for cell in elig.top_pairs(psi, exclude=s * n_actions + a):
                pair = divmod(cell, n_actions)
                trace = elig.decay ** (elig.slot - elig.last_visit[cell])
                self.q[pair] += self.sched.alpha_at(self.visits[pair]) * delta * trace
        elig.refresh(s * n_actions + a)
        elig.prune()
        elig.slot += 1
        return delta


class LayeredReference:
    def __init__(self, cfg, sched):
        n_states = cfg.state_space().n_states
        nf, nh = len(cfg.frequencies), len(cfg.configs)
        self.cfg, self.sched = cfg, sched
        self.q_app = np.zeros((n_states, nh, nf))
        self.q_os = np.zeros((n_states, nf, nh))
        self.visits_app = np.zeros(self.q_app.shape, dtype=np.int64)
        self.visits_os = np.zeros(self.q_os.shape, dtype=np.int64)

    def step(self, sim, slot, rng) -> float:
        cfg, sched = self.cfg, self.sched
        n_types, n_levels = len(cfg.unit_types), cfg.capacity + 1
        s = (sim.freq_idx * n_types + sim.type_idx) * n_levels + sim.occupancy
        eps = sched.epsilon_at(slot)
        config_idx, _ = ref_grid_select(self.q_app[s], eps, rng)
        command_idx, _ = ref_grid_select(self.q_os[s], eps, rng)
        sim.slot(command_idx, config_idx)
        et = slot_tuple(sim)
        fi_next = et.next_state[0]
        alpha_app = sched.alpha_at(self.visits_app[s, config_idx, fi_next])
        alpha_os = sched.alpha_at(self.visits_os[s, command_idx, config_idx])
        fi2, zi2, q2 = et.next_state
        s_next = (fi2 * n_types + zi2) * n_levels + q2
        a1, a2 = et.action
        v_next = self.q_os[s_next].max()
        delta_app = (et.gain - cfg.rd_weight * et.cost_app + sched.gamma * v_next) - self.q_app[s, a2, fi_next]
        self.q_app[s, a2, fi_next] += alpha_app * delta_app
        delta_os = (-cfg.power_weight * et.cost_os + self.q_app[s, a2, fi_next]) - self.q_os[s, a1, a2]
        self.q_os[s, a1, a2] += alpha_os * delta_os
        self.visits_app[s, config_idx, fi_next] += 1
        self.visits_os[s, command_idx, config_idx] += 1
        return float(delta_os)


def run_learner(learner, sim, n):
    return [learner.step(sim) for _ in range(n)]


# -- the alpha table ------------------------------------------------------


@given(st.floats(0.5, 1.0), st.floats(0.0, 1.0))
@example(0.6, 0.1)  # the defaults
@settings(max_examples=2, deadline=None)
def test_alpha_table_equals_alpha_at_on_numpy_counts(exponent, alpha):
    for rule in ("visit-decay", "constant"):
        sched = LearningSchedule(alpha_rule=rule, alpha=alpha, alpha_exponent=exponent)
        table = LazyTable(sched.alpha_at)
        counts = np.arange(100_000, dtype=np.int64)
        got = [table[k] for k in range(100_000)]
        assert all(type(x) is float for x in got)
        assert bits(got) == bits([sched.alpha_at(k) for k in counts])
        # numpy counts find the entries the Python ints made
        assert len(table) == 100_000
        assert table[counts[4321]] is got[4321] and len(table) == 100_000


def test_alpha_table_grows_on_demand():
    table = LazyTable(LearningSchedule().alpha_at)
    assert table[7] == LearningSchedule().alpha_at(7) and list(table) == [7]
    assert table[np.int64(3)] == LearningSchedule().alpha_at(3)
    assert type(table[3]) is float


# -- rows with ties and signed zeros ---------------------------------------

ROW_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])


@given(st.lists(ROW_VALUES, min_size=1, max_size=6), st.floats(-3, 3), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_q_update_and_greedy_on_tied_and_signed_zero_rows(row, reward, alpha):
    q_fast = np.array([row, row])
    q_ref = q_fast.copy()
    assert epsilon_greedy(q_fast[1], 0.0, None) == int(np.argmax(q_ref[1]))
    d_fast = q_update(q_fast, 0, 0, reward, 1, alpha, 0.9)
    d_ref = ref_q_update(q_ref, 0, 0, reward, 1, alpha, 0.9)
    assert d_fast == d_ref and np.array_equal(q_fast, q_ref)  # always equal in value
    if not np.any(np.signbit(row) & (np.array(row) == 0.0)):  # no -0.0 in the row
        assert bits([d_fast]) == bits([d_ref]) and bits(q_fast) == bits(q_ref)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 2),
            st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-5, 5),
            st.integers(0, 3),
            st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_q_update_never_writes_negative_zero(updates):
    """From a +0.0 table, no backup leaves a -0.0 behind, whatever the reward
    and rate: the premise of the comparison above."""
    q = np.zeros((4, 3))
    for s, a, reward, s_next, alpha in updates:
        q_update(q, s, a, reward, s_next, alpha, 0.9)
        assert not np.any(np.signbit(q) & (q == 0.0))


# -- the learners against the references -----------------------------------


@given(SEEDS, GAIN_MODES, ALPHA_RULES)
@settings(max_examples=15, deadline=None)
def test_centralized_matches_reference(seed, gain_mode, alpha_rule):
    cfg, sched = small_config(gain_mode=gain_mode), schedule(alpha_rule)
    sim, rng = small_sim(seed, cfg)
    learner = CentralizedQLearner(cfg, sched, rng)
    deltas = run_learner(learner, sim, 300)
    sim, rng = small_sim(seed, cfg)
    ref = Reference(cfg, sched, learner.q.shape)
    ref_deltas = [ref.centralized(sim, t, rng) for t in range(300)]
    assert bits(deltas) == bits(ref_deltas)
    assert bits(learner.q) == bits(ref.q)
    assert np.array_equal(learner.visits, ref.visits)


@given(SEEDS, GAIN_MODES, ALPHA_RULES, st.sampled_from(["app", "os"]))
@settings(max_examples=15, deadline=None)
def test_best_response_matches_reference(seed, gain_mode, alpha_rule, layer):
    cfg, sched = small_config(gain_mode=gain_mode), schedule(alpha_rule)
    n_states = cfg.state_space().n_states
    policy = np.random.default_rng(seed).integers(0, 2, size=n_states)
    sim, rng = small_sim(seed, cfg)
    learner = BestResponseLearner(cfg, sched, rng, layer, policy)
    deltas = run_learner(learner, sim, 300)
    sim, rng = small_sim(seed, cfg)
    ref = Reference(cfg, sched, learner.q.shape)
    ref_deltas = [ref.best_response(sim, t, rng, layer, policy) for t in range(300)]
    assert bits(deltas) == bits(ref_deltas)
    assert bits(learner.q) == bits(ref.q)
    assert np.array_equal(learner.visits, ref.visits)


@given(SEEDS, GAIN_MODES, ALPHA_RULES)
@settings(max_examples=15, deadline=None)
def test_layered_matches_reference(seed, gain_mode, alpha_rule):
    cfg, sched = small_config(gain_mode=gain_mode), schedule(alpha_rule)
    sim, rng = small_sim(seed, cfg)
    learner = LayeredQLearner(cfg, sched, rng)
    deltas = run_learner(learner, sim, 300)
    sim, rng = small_sim(seed, cfg)
    ref = LayeredReference(cfg, sched)
    ref_deltas = [ref.step(sim, t, rng) for t in range(300)]
    assert bits(deltas) == bits(ref_deltas)
    assert bits(learner.tables.q_app) == bits(ref.q_app)
    assert bits(learner.tables.q_os) == bits(ref.q_os)
    assert np.array_equal(learner.visits_app, ref.visits_app)
    assert np.array_equal(learner.visits_os, ref.visits_os)


@given(SEEDS, GAIN_MODES, ALPHA_RULES, st.integers(0, 6), st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_td_lambda_matches_reference(seed, gain_mode, alpha_rule, psi, lam):
    cfg, sched = small_config(gain_mode=gain_mode), schedule(alpha_rule)
    sim, rng = small_sim(seed, cfg)
    learner = TdLambdaLearner(cfg, sched, rng, lam=lam, psi=psi)
    deltas = run_learner(learner, sim, 300)
    sim, rng = small_sim(seed, cfg)
    ref = Reference(cfg, sched, learner.q.shape)
    elig = EligibilityState(decay=sched.gamma * lam)
    ref_deltas = [ref.td_lambda(sim, t, rng, elig, psi) for t in range(300)]
    assert bits(deltas) == bits(ref_deltas)
    assert bits(learner.q) == bits(ref.q)
    assert np.array_equal(learner.visits, ref.visits)
    assert learner.elig.last_visit == elig.last_visit
