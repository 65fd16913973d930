import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from layerq import (
    ActionSpace,
    FactoredModel,
    LearningSchedule,
    ModelError,
    NumericalError,
    StateSpace,
    TransitionModel,
    epsilon_greedy,
    q_update,
    stationary_distribution,
    value_iteration,
)


def random_model(rng, n_states=4, n_actions=3) -> TransitionModel:
    p = rng.random((n_states, n_actions, n_states)) + 0.05
    p /= p.sum(axis=2, keepdims=True)
    r = rng.normal(size=(n_states, n_actions))
    return TransitionModel(p=p, r=r)


def random_factored(rng, n1=2, n2=3, m1=2, m2=2) -> FactoredModel:
    p_low = rng.random((n1, m1, n1)) + 0.05
    p_low /= p_low.sum(axis=2, keepdims=True)
    p_high = rng.random((n1, n2, m2, n2)) + 0.05
    p_high /= p_high.sum(axis=3, keepdims=True)
    return FactoredModel(
        p_low=p_low,
        p_high=p_high,
        gain=rng.normal(size=(n1, n2, m2)),
        cost_low=rng.random((n1, m1)),
        cost_high=rng.random((n2, m2)),
        weight_low=float(rng.uniform(0.1, 1.0)),
        weight_high=float(rng.uniform(0.1, 1.0)),
    )


def test_state_space_round_trip():
    space = StateSpace(frequencies=(1e8, 2e8, 3e8), unit_types=("P", "B"), capacity=4)
    assert space.n_levels == 5
    assert space.n_states == 3 * 2 * 5
    seen = set()
    for fi in range(3):
        for zi in range(2):
            for q in range(5):
                s = space.index(fi, zi, q)
                assert space.components(s) == (fi, zi, q)
                seen.add(s)
    assert seen == set(range(space.n_states))


def test_state_space_occupancy_contiguous():
    # all buffer levels of one (frequency, type) pair sit in one dense block
    space = StateSpace(frequencies=(1e8, 2e8), unit_types=("P", "B", "I"), capacity=7)
    for fi in range(2):
        for zi in range(3):
            base = space.index(fi, zi, 0)
            for q in range(space.n_levels):
                assert space.index(fi, zi, q) == base + q


def test_default_sized_spaces():
    space = StateSpace(frequencies=(1, 2, 3, 4, 5), unit_types=("P", "B", "I"), capacity=50)
    assert space.n_states == 765
    actions = ActionSpace(commands=(1, 2, 3, 4, 5), configs=("h1", "h2", "h3"))
    assert actions.n_actions == 15
    for a in range(15):
        ui, hi = actions.components(a)
        assert actions.index(ui, hi) == a


def test_epsilon_greedy_zero_epsilon_is_argmax():
    rng = np.random.default_rng(0)
    row = np.array([0.0, 3.0, 1.0])
    assert all(epsilon_greedy(row, 0.0, rng) == 1 for _ in range(20))
    # ties break to the lowest index
    assert epsilon_greedy(np.array([2.0, 2.0, 1.0]), 0.0, rng) == 0
    assert epsilon_greedy(np.zeros(4), 0.0, rng) == 0


def test_epsilon_greedy_distribution():
    """Greedy action frequency ~ 1 - eps + eps/|A|, others eps/|A| (chi^2)."""
    rng = np.random.default_rng(42)
    row = np.array([0.0, 1.0, 0.0, 0.0])
    eps = 0.3
    n = 100_000
    counts = np.bincount([epsilon_greedy(row, eps, rng) for _ in range(n)], minlength=4)
    expected = np.full(4, eps / 4 * n)
    expected[1] = (1 - eps + eps / 4) * n
    result = stats.chisquare(counts, expected)
    assert result.pvalue > 1e-3


def test_epsilon_greedy_epsilon_one_uniform():
    rng = np.random.default_rng(7)
    counts = np.bincount(
        [epsilon_greedy(np.array([5.0, 0.0, 0.0]), 1.0, rng) for _ in range(30_000)],
        minlength=3,
    )
    assert stats.chisquare(counts).pvalue > 1e-3


def test_epsilon_greedy_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        epsilon_greedy(np.array([]), 0.1, rng)
    with pytest.raises(ValueError):
        epsilon_greedy(np.zeros(3), 1.5, rng)
    with pytest.raises(ValueError):
        epsilon_greedy(np.zeros(3), -0.1, rng)


def test_q_update_examples():
    q = np.zeros((2, 2))
    delta = q_update(q, 0, 1, 1.0, 1, alpha=1.0, gamma=0.9)
    assert delta == 1.0
    assert q[0, 1] == 1.0
    assert q[0, 0] == q[1, 0] == q[1, 1] == 0.0

    q = np.array([[1.0, 0.0], [0.0, 0.0]])
    delta = q_update(q, 0, 0, 1.0, 1, alpha=0.0, gamma=0.9)
    assert delta == 0.0 and q[0, 0] == 1.0

    q = np.array([[0.0, 0.0], [2.0, 0.0]])
    delta = q_update(q, 0, 0, 0.5, 1, alpha=0.1, gamma=0.5)
    assert delta == pytest.approx(1.5)
    assert q[0, 0] == pytest.approx(0.15)


def test_value_iteration_two_state_analytic():
    # s0: a0 self-loop r=1.5, a1 -> s1 r=2; s1 absorbing r=0. gamma=0.5
    # V(s1)=0, staying pays 1.5/(1-0.5)=3 > 2, so V(s0)=3 and pi(s0)=a0.
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 1, 1] = 1.0
    p[1, :, 1] = 1.0
    r = np.array([[1.5, 2.0], [0.0, 0.0]])
    q, policy, v = value_iteration(TransitionModel(p=p, r=r), gamma=0.5, tol=1e-10)
    assert v == pytest.approx([3.0, 0.0], abs=1e-8)
    assert q[0] == pytest.approx([3.0, 2.0], abs=1e-8)
    assert policy.tolist() == [0, 0]


def test_value_iteration_fixed_point_and_greedy_policy():
    model = random_model(np.random.default_rng(3), n_states=6, n_actions=4)
    tol = 1e-8
    q, policy, v = value_iteration(model, gamma=0.9, tol=tol)
    backup = model.r + 0.9 * np.einsum("saj,j->sa", model.p, q.max(axis=1))
    assert np.abs(backup - q).max() <= tol
    assert np.array_equal(policy, np.argmax(q, axis=1))
    assert np.array_equal(v, q.max(axis=1))
    assert np.all(q[np.arange(6), policy] == v)


def test_value_iteration_gamma_zero_returns_rewards():
    model = random_model(np.random.default_rng(5))
    q, _, _ = value_iteration(model, gamma=0.0)
    assert np.array_equal(q, model.r)


def test_value_iteration_errors():
    model = random_model(np.random.default_rng(1))
    with pytest.raises(ValueError):
        value_iteration(model, gamma=1.0)
    with pytest.raises(ValueError):
        value_iteration(model, gamma=0.9, tol=0.0)
    bad = TransitionModel(p=model.p * 2, r=model.r)
    with pytest.raises(ModelError):
        value_iteration(bad, gamma=0.9)
    with pytest.raises(NumericalError) as err:
        value_iteration(model, gamma=0.99, max_iter=3)
    assert err.value.residual > 0


def test_stationary_two_state_swap():
    """Deterministic swap chain: damping makes mu=(1/2, 1/2) the fixed point."""
    p = np.zeros((2, 1, 2))
    p[0, 0, 1] = 1.0
    p[1, 0, 0] = 1.0
    model = TransitionModel(p=p, r=np.zeros((2, 1)))
    mu = stationary_distribution(model, np.zeros(2, dtype=int))
    assert mu == pytest.approx([0.5, 0.5], abs=1e-6)


def test_stationary_absorbing_state():
    p = np.zeros((3, 1, 3))
    p[:, 0, 0] = 1.0
    model = TransitionModel(p=p, r=np.zeros((3, 1)))
    mu = stationary_distribution(model, np.zeros(3, dtype=int))
    assert mu[0] > 1.0 - 1e-4
    assert mu.sum() == pytest.approx(1.0)


def test_stationary_is_fixed_point_of_damped_chain():
    model = random_model(np.random.default_rng(11), n_states=5, n_actions=2)
    policy = np.array([0, 1, 0, 1, 1])
    damping = 1e-6
    mu = stationary_distribution(model, policy, tol=1e-12, damping=damping)
    chain = model.p[np.arange(5), policy]
    chain = (1 - damping) * chain + damping / 5
    assert np.abs(mu @ chain - mu).sum() <= 1e-11
    assert np.all(mu >= 0) and mu.sum() == pytest.approx(1.0)


def test_stationary_policy_validation():
    model = random_model(np.random.default_rng(0))
    with pytest.raises(ValueError):
        stationary_distribution(model, np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        stationary_distribution(model, np.full(model.n_states, 99))


def test_factored_model_ops_match_joint():
    factors = random_factored(np.random.default_rng(4), n1=3, n2=4, m1=2, m2=3)
    joint = factors.to_joint()
    assert (factors.n_states, factors.n_actions) == (joint.n_states, joint.n_actions) == (12, 6)
    v = np.random.default_rng(5).normal(size=12)
    assert np.abs(factors.expected_next(v) - joint.expected_next(v)).max() <= 1e-14
    policy = np.random.default_rng(6).integers(6, size=12)
    # the policy chain holds the very products that to_joint() stores
    assert np.array_equal(factors.policy_chain(policy), joint.policy_chain(policy))
    assert np.array_equal(factors.r, joint.r)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_factored_solve_matches_dense(seed, n1, n2, m1, m2):
    """Value iteration and the stationary solve on the factors agree with the
    dense solve of to_joint(): Q* and V* to 1e-12 with the same policy, and
    the weights bit for bit under that policy."""
    factors = random_factored(np.random.default_rng(seed), n1, n2, m1, m2)
    joint = factors.to_joint()
    q_f, pol_f, v_f = value_iteration(factors, gamma=0.9, tol=1e-10)
    q_d, pol_d, v_d = value_iteration(joint, gamma=0.9, tol=1e-10)
    assert np.abs(q_f - q_d).max() <= 1e-12
    assert np.abs(v_f - v_d).max() <= 1e-12
    assert np.array_equal(pol_f, pol_d)
    w_f = stationary_distribution(factors, pol_f)
    w_d = stationary_distribution(joint, pol_d)
    assert np.array_equal(w_f, w_d)


def test_factored_model_validation():
    factors = random_factored(np.random.default_rng(8))
    factors.validate()
    bad_rows = random_factored(np.random.default_rng(8))
    bad_rows.p_high = bad_rows.p_high * 1.01
    bad_low = random_factored(np.random.default_rng(8))
    bad_low.p_low = bad_low.p_low.copy()
    bad_low.p_low[0, 0] = [1.5, -0.5]
    bad_shape = random_factored(np.random.default_rng(8))
    bad_shape.cost_high = bad_shape.cost_high[:, :1]
    bad_high = random_factored(np.random.default_rng(8))
    bad_high.p_high = bad_high.p_high[:, :, :, :2]
    for model, match in (
        (bad_rows, "p_high rows deviate"),
        (bad_low, "negative probability in p_low"),
        (bad_shape, "cost_high shape"),
        (bad_high, "p_high must be"),
    ):
        with pytest.raises(ModelError, match=match):
            model.validate()
        with pytest.raises(ModelError):
            value_iteration(model, gamma=0.9)


def test_alpha_exponent_must_be_positive():
    # a negative exponent would make alpha grow with the visit count
    for bad in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="alpha_exponent"):
            LearningSchedule(alpha_exponent=bad)


def test_learning_schedule_alpha_rules():
    sched = LearningSchedule()
    assert sched.alpha_at(0) == 1.0
    assert sched.alpha_at(3) == pytest.approx(0.25**0.6)
    const = LearningSchedule(alpha_rule="constant", alpha=0.2)
    assert const.alpha_at(0) == const.alpha_at(1000) == 0.2


def test_learning_schedule_epsilon_rules():
    sched = LearningSchedule(epsilon=0.05)
    assert sched.epsilon_at(0) == sched.epsilon_at(10**6) == 0.05
    decay = LearningSchedule(epsilon_rule="sqrt-decay")
    assert decay.epsilon_at(0) == 1.0
    assert decay.epsilon_at(3) == pytest.approx(0.5)
    assert decay.epsilon_at(99) == pytest.approx(0.1)


def test_learning_schedule_validation():
    for kwargs in (
        dict(gamma=1.0),
        dict(gamma=-0.1),
        dict(epsilon=1.5),
        dict(alpha=-0.01),
        dict(epsilon_rule="linear"),
        dict(alpha_rule="polynomial"),
    ):
        with pytest.raises(ValueError):
            LearningSchedule(**kwargs)


def test_transition_model_validation():
    model = random_model(np.random.default_rng(2))
    model.validate()
    with pytest.raises(ModelError):
        TransitionModel(p=model.p[:, :, :2], r=model.r).validate()
    with pytest.raises(ModelError):
        TransitionModel(p=model.p, r=model.r[:, :1]).validate()
    neg = model.p.copy()
    neg[0, 0, 0] -= 2.0
    with pytest.raises(ModelError):
        TransitionModel(p=neg, r=model.r).validate()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_q_update_delta_algebra(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(3, 2))
    before = q.copy()
    s, a, s_next = rng.integers(3), rng.integers(2), rng.integers(3)
    r, alpha, gamma = rng.normal(), rng.random(), rng.random() * 0.99
    delta = q_update(q, s, a, r, s_next, alpha, gamma)
    assert delta == r + gamma * before[s_next].max() - before[s, a]
    assert q[s, a] == before[s, a] + alpha * delta
    mask = np.ones_like(q, dtype=bool)
    mask[s, a] = False
    assert np.array_equal(q[mask], before[mask])


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_value_iteration_bellman_property(seed, n_states, n_actions):
    model = random_model(np.random.default_rng(seed), n_states, n_actions)
    tol = 1e-8
    q, policy, v = value_iteration(model, gamma=0.85, tol=tol)
    backup = model.r + 0.85 * np.einsum("saj,j->sa", model.p, v)
    assert np.abs(backup - q).max() <= tol
    assert np.all(q[np.arange(n_states), policy] == v)
