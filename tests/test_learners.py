from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeRng, small_config, small_dynamics, small_params, small_sim
from layerq import (
    CENTRALIZED_MESSAGES,
    LAYERED_MESSAGES,
    BestResponseLearner,
    CentralizedQLearner,
    EligibilityState,
    EmpiricalDynamics,
    FactoredModel,
    FixedPolicyController,
    GeneratorParams,
    GraceController,
    GraceState,
    LayeredQLearner,
    LayeredQTables,
    LazyTable,
    LearningSchedule,
    PolicyError,
    Simulator,
    StationarySource,
    SystemConfig,
    TdLambdaLearner,
    TripleDistribution,
    VirtualExperienceLearner,
    assemble_factored_model,
    assemble_transition_model,
    buffer_step,
    default_generator_params,
    epsilon_greedy,
    layered_update,
    td_lambda_step,
    utility_gain,
)
from reference import (
    GlobalAction,
    GlobalState,
    decomposed_tables,
    freq_index,
    joint_model,
    slot_tuple,
    step,
    type_index,
    virtual_et_expand,
    virtual_et_update,
)


def fake_slot(s=(1 * 2 + 1) * 6 + 2, freq_idx=1, reward=0.5, gain=0.8, j1=0.012, j2=11.0):
    """The attributes the update functions read from a simulator after a slot;
    the default next state (1, 1, 2) has index 20 on the small instance."""
    return SimpleNamespace(s=s, freq_idx=freq_idx, reward=reward, gain=gain, j1=j1, j2=j2)


def test_message_protocols():
    assert len(CENTRALIZED_MESSAGES) == 8
    assert len(LAYERED_MESSAGES) == 7


def test_learner_message_accounting():
    sched = LearningSchedule()
    for cls, per_slot in ((CentralizedQLearner, 8), (LayeredQLearner, 7)):
        sim, rng = small_sim(1)
        learner = cls(small_config(), sched, rng)
        for _ in range(5):
            learner.step(sim)
        assert len(learner.message_labels) == per_slot
    sim, rng = small_sim(1)
    grace = GraceController(small_config())
    grace.step(sim)
    assert len(grace.message_labels) == 0


def constant_env():
    """Single-state, single-action system: every slot repeats (s, a) exactly."""
    cfg = SystemConfig(
        frequencies=(1e9,),
        unit_types=("P",),
        type_transition=((1.0,),),
        configs=("h1",),
        capacity=4,
        initial_occupancy=2,
    )
    cell = TripleDistribution(3e7, 0.0, 10.0, 0.0, 1.0, 0.0)  # arrivals floor(1.32)=1
    params = GeneratorParams(configs=("h1",), per_type={"P": (cell,)})
    rng = np.random.default_rng(0)
    return cfg, Simulator(cfg, StationarySource(params, ("P",), rng), rng)


def test_centralized_visit_decay_sequence():
    """First update lands at alpha=1; the second at 1/2^0.6, computed per pair."""
    cfg, sim = constant_env()
    learner = CentralizedQLearner(cfg, LearningSchedule(gamma=0.9, epsilon=0.0), sim.rng)
    s = sim.s

    delta1 = learner.step(sim)
    r = sim.reward
    assert delta1 == r
    assert learner.q[s, 0] == r
    assert learner.visits[s, 0] == 1

    delta2 = learner.step(sim)
    assert delta2 == r + 0.9 * r - r
    assert learner.q[s, 0] == r + 1.0 / 2**0.6 * delta2
    assert learner.visits[s, 0] == 2


def test_centralized_gamma_zero_alpha_one_is_myopic():
    cfg, sim = constant_env()
    sched = LearningSchedule(gamma=0.0, epsilon=0.0, alpha_rule="constant", alpha=1.0)
    learner = CentralizedQLearner(cfg, sched, sim.rng)
    s = sim.s
    for _ in range(3):
        learner.step(sim)
        assert learner.q[s, 0] == sim.reward  # table tracks the last reward exactly


def test_centralized_state_values_shape():
    sim, rng = small_sim(2)
    learner = CentralizedQLearner(small_config(), LearningSchedule(), rng)
    for _ in range(50):
        learner.step(sim)
    values = learner.state_values()
    assert values.shape == (24,)
    assert np.array_equal(values, learner.q.max(axis=1))


def grid_select(grid: np.ndarray, epsilon: float, rng) -> tuple[int, int]:
    """A layer's pick over its (row, column) grid, as LayeredQLearner makes it."""
    return divmod(epsilon_greedy(grid.ravel(), epsilon, rng), grid.shape[1])


def test_layered_select_grids():
    rng = np.random.default_rng(0)
    q_app = np.zeros((4, 3, 2))
    assert grid_select(q_app[1], 0.0, rng) == (0, 0)
    q_app[1, 2, 1] = 5.0
    assert grid_select(q_app[1], 0.0, rng) == (2, 1)
    q_os = np.zeros((4, 2, 3))
    q_os[2, 1, 2] = 1.0
    assert grid_select(q_os[2], 0.0, rng) == (1, 2)
    # full exploration reaches every cell of the grid
    hits = {grid_select(q_app[0], 1.0, rng) for _ in range(500)}
    assert hits == {(m, j) for m in range(3) for j in range(2)}
    # the same draws as the two selects the learner used to call: one
    # uniform, then one integer over the whole grid when exploring
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        flat = int(b.integers(6)) if b.random() < 0.3 else int(np.argmax(q_app[1]))
        assert grid_select(q_app[1], 0.3, a) == divmod(flat, 2)


def test_layered_update_cascade_from_zero():
    tables = LayeredQTables(q_app=np.zeros((24, 2, 2)), q_os=np.zeros((24, 2, 2)))
    sim = fake_slot()
    w_os, w_app = 22 / 125, 22 / 1875
    s = (0 * 2 + 0) * 6 + 1
    d_app, d_os = layered_update(tables, s, 1, 1, sim, 1.0, 1.0, 0.9, w_os, w_app)
    expected_app = sim.gain - w_app * sim.j2 + 0.9 * 0.0
    assert d_app == expected_app
    assert tables.q_app[s, 1, 1] == expected_app
    assert np.count_nonzero(tables.q_app) == 1
    expected_os = -w_os * sim.j1 + expected_app
    assert d_os == expected_os
    assert tables.q_os[s, 1, 1] == expected_os
    assert np.count_nonzero(tables.q_os) == 1


def test_layered_update_uses_post_update_inner_value():
    """The OS target reads the inner cell after the APP update; with a zero
    APP learning rate it therefore sees the stale value."""
    tables = LayeredQTables(q_app=np.zeros((24, 2, 2)), q_os=np.zeros((24, 2, 2)))
    sim = fake_slot()
    s = 1
    tables.q_app[s, 1, 1] = 0.3
    tables.q_os[s, 1, 1] = 0.1
    tables.q_os[sim.s, 0, 1] = 2.0  # max of the next-state grid
    before_app = tables.q_app.copy()
    d_app, d_os = layered_update(tables, s, 1, 1, sim, 1.0, 0.0, 0.9, 22 / 125, 22 / 1875)
    assert d_app == (sim.gain - (22 / 1875) * sim.j2 + 0.9 * 2.0) - 0.3
    assert np.array_equal(tables.q_app, before_app)
    assert d_os == (-(22 / 125) * sim.j1 + 0.3) - 0.1
    assert tables.q_os[s, 1, 1] == 0.1 + d_os


def test_layered_learner_bookkeeping():
    sim, rng = small_sim(3)
    learner = LayeredQLearner(small_config(), LearningSchedule(), rng)
    for _ in range(300):
        learner.step(sim)
    assert learner.visits_app.sum() == 300
    assert learner.visits_os.sum() == 300
    assert learner.state_values().shape == (24,)


def test_layered_deltas_vanish_at_fixed_point():
    """Seeded with the oracle tables and a zero learning rate, both layers'
    TD errors average to zero over a long on-policy run."""
    cfg = small_config()
    factors = assemble_factored_model(cfg, small_dynamics())
    inner, outer, _ = decomposed_tables(factors, gamma=0.9)
    tables = LayeredQTables(q_app=inner.copy(), q_os=outer.copy())
    sim, rng = small_sim(17)
    n = 60_000
    d_app = np.empty(n)
    d_os = np.empty(n)
    for t in range(n):
        s = sim.s
        config_idx, _ = grid_select(tables.q_app[s], 0.0, rng)
        command_idx, _ = grid_select(tables.q_os[s], 0.0, rng)
        sim.slot(command_idx, config_idx)
        d_app[t], d_os[t] = layered_update(
            tables, s, command_idx, config_idx, sim, 0.0, 0.0, 0.9, cfg.power_weight, cfg.rd_weight
        )
    assert np.array_equal(tables.q_app, inner)  # zero rate: nothing moved
    assert abs(d_app.mean()) <= 0.01
    assert abs(d_os.mean()) <= 0.01


def test_decomposed_tables_gamma_zero():
    cfg = small_config()
    dyn = small_dynamics()
    factors = assemble_factored_model(cfg, dyn)
    inner, outer, q_star = decomposed_tables(factors, gamma=0.0)
    # without lookahead the inner table ignores the next low-layer state
    assert np.abs(inner[:, :, 0] - inner[:, :, 1]).max() <= 1e-12
    joint = assemble_transition_model(cfg, dyn)
    assert np.abs(q_star - joint.r).max() <= 1e-12
    assert np.abs(outer.reshape(q_star.shape) - q_star).max() <= 1e-12


def identity_gap(factors: FactoredModel, gamma: float = 0.9) -> float:
    """max |Q reassembled through the layered identities - joint Q*|."""
    _, outer, q_star = decomposed_tables(factors, gamma)
    return float(np.abs(outer.reshape(q_star.shape) - q_star).max())


def assert_factors_match_dense(cfg, dyn):
    """The factors of (cfg, dyn), after asserting they describe the same MDP as the dense assembly."""
    factors = assemble_factored_model(cfg, dyn)
    joint, model = joint_model(factors), assemble_transition_model(cfg, dyn)
    assert np.abs(joint.p - model.p).max() <= 1e-9
    assert np.abs(joint.r - model.r).max() <= 1e-9
    return factors


def test_decomposition_check_small_instance():
    factors = assert_factors_match_dense(small_config(), small_dynamics())
    assert identity_gap(factors) <= 1e-6


def test_decomposition_degenerate_low_layer():
    """With one frequency the layered split is trivial but must still hold."""
    cfg = small_config(frequencies=(4e8,))
    dyn = EmpiricalDynamics(small_dynamics().arrival_pmf[1:], small_dynamics().mean_rd_cost)
    factors = assert_factors_match_dense(cfg, dyn)
    assert identity_gap(factors) <= 1e-6


def random_factors(rng, n1=2, nz=2, n_levels=2, m1=2, m2=2) -> FactoredModel:
    p_low = rng.random((n1, m1, n1)) + 0.1
    p_low /= p_low.sum(axis=2, keepdims=True)
    p_type = rng.random((nz, nz)) + 0.1
    p_type /= p_type.sum(axis=1, keepdims=True)
    p_buffer = rng.random((n1, nz, m2, n_levels, n_levels)) + 0.1
    p_buffer /= p_buffer.sum(axis=4, keepdims=True)
    n2 = nz * n_levels
    return FactoredModel(
        p_low=p_low,
        p_type=p_type,
        p_buffer=p_buffer,
        gain=rng.normal(size=(n1, n2, m2)),
        cost_low=rng.random((n1, m1)),
        cost_high=rng.random((n2, m2)),
        weight_low=0.5,
        weight_high=0.25,
    )


def test_decomposition_random_factored_mdps():
    for seed in (0, 1, 2):
        factors = random_factors(np.random.default_rng(seed))
        assert identity_gap(factors) <= 1e-6


def test_virtual_expand_members():
    cfg = small_config()
    sim, _ = small_sim(9)
    sim.slot(0, 0)
    sim.slot(1, 0)
    et = slot_tuple(sim)
    expanded = virtual_et_expand(et, cfg)
    assert len(expanded) == cfg.capacity + 1
    assert expanded[et.state[2]] == et  # the actual level reproduces the tuple
    for level, member in enumerate(expanded):
        assert member.state == (et.state[0], et.state[1], level)
        assert member.action == et.action
        assert member.arrivals == et.arrivals
        assert member.cost_os == et.cost_os and member.cost_app == et.cost_app
        assert member.next_state[:2] == et.next_state[:2]
        assert member.next_state[2] == buffer_step(level, et.arrivals, cfg.capacity)[0]
        assert member.gain == utility_gain(level, et.arrivals, cfg.capacity)
        assert member.reward == member.gain - cfg.power_weight * et.cost_os - cfg.rd_weight * et.cost_app


def test_virtual_expand_matches_forced_step():
    """Each virtual tuple agrees with the reference step() forced onto the
    same arrivals, costs, and switch/type outcomes."""
    cfg = SystemConfig()
    rng = np.random.default_rng(12)
    source = StationarySource(default_generator_params(), cfg.unit_types, rng)
    sim = Simulator(cfg, source, rng)
    for _ in range(5):
        sim.slot(int(rng.integers(5)), int(rng.integers(3)))
    et = slot_tuple(sim)
    expanded = virtual_et_expand(et, cfg)

    fi, zi, _ = et.state
    ui, hi = et.action
    fi2, zi2, _ = et.next_state
    cycles = np.zeros(3)
    cycles[hi] = (et.arrivals + 0.5) / cfg.arrival_rate * cfg.frequencies[fi]
    dist = np.zeros(3)
    dist[hi] = et.cost_app
    sample = type("S", (), {})()
    sample.unit_type = cfg.unit_types[zi]
    sample.bits = np.zeros(3)
    sample.distortion = dist
    sample.cycles = cycles
    switch_draw = 0.0 if fi2 == ui else 0.95
    cum = np.cumsum(cfg.type_transition[zi])
    lo = 0.0 if zi2 == 0 else cum[zi2 - 1]
    type_draw = (lo + cum[zi2]) / 2

    action = GlobalAction(cfg.frequencies[ui], cfg.configs[hi])
    for level, member in enumerate(expanded):
        state = GlobalState(cfg.frequencies[fi], cfg.unit_types[zi], level)
        out = step(cfg, state, action, sample, FakeRng([switch_draw, type_draw]))
        assert out.arrivals == et.arrivals
        assert out.reward == member.reward
        assert out.utility_gain == member.gain
        assert out.next_state.occupancy == member.next_state[2]
        assert freq_index(cfg, out.next_state.frequency) == fi2
        assert type_index(cfg, out.next_state.unit_type) == zi2


def expanded_fixture(cfg):
    sim, rng = small_sim(21)
    sim.slot(1, 0)
    et = slot_tuple(sim)
    return virtual_et_expand(et, cfg), et


def test_virtual_update_full_fanout():
    cfg = small_config()
    expanded, et = expanded_fixture(cfg)
    q = np.zeros((24, 4))
    visits = np.zeros((24, 4), dtype=np.int64)
    deltas = virtual_et_update(
        q, visits, expanded, et.state[2], psi=cfg.capacity,
        schedule=LearningSchedule(), rng=np.random.default_rng(0),
        n_types=2, n_levels=6, n_configs=2,
    )
    assert len(deltas) == cfg.capacity + 1
    fi, zi, _ = et.state
    a = et.action[0] * 2 + et.action[1]
    block = slice((fi * 2 + zi) * 6, (fi * 2 + zi) * 6 + 6)
    assert visits[block, a].tolist() == [1] * 6  # every level visited once
    assert visits.sum() == 6


def test_virtual_update_psi_zero_and_clamping():
    cfg = small_config()
    expanded, et = expanded_fixture(cfg)
    q = np.zeros((24, 4))
    visits = np.zeros((24, 4), dtype=np.int64)
    deltas = virtual_et_update(q, visits, expanded, et.state[2], 0, LearningSchedule(),
                               np.random.default_rng(0), 2, 6, 2)
    assert len(deltas) == 1 and visits.sum() == 1
    with pytest.warns(UserWarning):
        deltas = virtual_et_update(q, visits, expanded, et.state[2], 99, LearningSchedule(),
                                   np.random.default_rng(0), 2, 6, 2)
    assert len(deltas) == cfg.capacity + 1


def test_virtual_update_sequential_replay():
    """Updates apply in draw order against the shared table; replaying the
    same order through raw q_update reproduces the result bit-for-bit."""
    from layerq import q_update

    cfg = small_config()
    expanded, et = expanded_fixture(cfg)
    sched = LearningSchedule()
    seed = 5
    q1 = np.random.default_rng(100).normal(size=(24, 4))
    v1 = np.random.default_rng(101).integers(0, 4, size=(24, 4))
    q2, v2 = q1.copy(), v1.copy()

    virtual_et_update(q1, v1, expanded, et.state[2], 2, sched,
                      np.random.default_rng(seed), 2, 6, 2)

    picks = np.random.default_rng(seed).choice(cfg.capacity, size=2, replace=False)
    levels = [et.state[2]] + list(picks + (picks >= et.state[2]))
    for level in levels:
        member = expanded[level]
        s = (member.state[0] * 2 + member.state[1]) * 6 + member.state[2]
        s_next = (member.next_state[0] * 2 + member.next_state[1]) * 6 + member.next_state[2]
        a = member.action[0] * 2 + member.action[1]
        q_update(q2, s, a, member.reward, s_next, sched.alpha_at(v2[s, a]), sched.gamma)
        v2[s, a] += 1
    assert np.array_equal(q1, q2)
    assert np.array_equal(v1, v2)


def run_pair(cls_a, kwargs_a, cls_b, kwargs_b, n=2000, seed=13):
    cfg = small_config()
    out = []
    for cls, kwargs in ((cls_a, kwargs_a), (cls_b, kwargs_b)):
        sim, rng = small_sim(seed)
        learner = cls(cfg, LearningSchedule(), rng, **kwargs)
        rewards = []
        for _ in range(n):
            learner.step(sim)
            rewards.append(sim.reward)
        out.append((learner, rewards))
    return out


def test_virtual_psi_zero_equals_centralized():
    (a, rew_a), (b, rew_b) = run_pair(VirtualExperienceLearner, dict(psi=0), CentralizedQLearner, {})
    assert rew_a == rew_b
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.visits, b.visits)


def test_virtual_learner_constructor_clamps():
    sim, rng = small_sim(1)
    with pytest.raises(ValueError):
        VirtualExperienceLearner(small_config(), LearningSchedule(), rng, psi=-1)
    with pytest.warns(UserWarning):
        learner = VirtualExperienceLearner(small_config(), LearningSchedule(), rng, psi=99)
    assert learner.psi == small_config().capacity


def assert_virtual_fast_path_matches_public_ops(cfg, sched, psi, seed, n, params=None):
    n_types, n_levels, n_configs = len(cfg.unit_types), cfg.capacity + 1, len(cfg.configs)
    sim_a, rng_a = small_sim(seed, cfg, params)
    learner = VirtualExperienceLearner(cfg, sched, rng_a, psi=psi)
    for _ in range(n):
        learner.step(sim_a)

    sim_b, rng_b = small_sim(seed, cfg, params)
    q = np.zeros_like(learner.q)
    visits = np.zeros_like(learner.visits)
    for slot in range(n):
        s = sim_b.s
        a = epsilon_greedy(q[s], sched.epsilon_at(slot), rng_b)
        sim_b.slot(*divmod(a, n_configs))
        et = slot_tuple(sim_b)
        expanded = virtual_et_expand(et, cfg)
        virtual_et_update(
            q, visits, expanded, et.state[2], psi, sched, rng_b, n_types, n_levels, n_configs
        )
    assert np.array_equal(learner.q, q)
    assert np.array_equal(learner.visits, visits)


def test_virtual_fast_path_matches_public_ops():
    """The learner's inlined virtual updates equal expand + update exactly."""
    assert_virtual_fast_path_matches_public_ops(small_config(), LearningSchedule(), 3, 29, 400)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 5),
    st.sampled_from(["proposed", "conventional"]),
    st.sampled_from(["visit-decay", "constant"]),
)
@settings(max_examples=25, deadline=None)
def test_virtual_fast_path_matches_public_ops_random(seed, psi, gain_mode, alpha_rule):
    """Bit for bit over seeds, psi, both gain modes and both alpha rules; the
    two-type chain often stays in its (f, z) block, so backups of one slot
    read rows that earlier backups of the same slot wrote."""
    cfg = small_config(gain_mode=gain_mode)
    sched = LearningSchedule(alpha_rule=alpha_rule, alpha=0.3, gamma=0.8, epsilon=0.3)
    assert_virtual_fast_path_matches_public_ops(cfg, sched, psi, seed, 150)


def test_virtual_fast_path_single_action():
    """One frequency and one config: no other columns to take a maximum over."""
    base = small_params()
    params = GeneratorParams(configs=("h1",), per_type={z: (base.for_type(z)[0],) for z in ("P", "B")})
    cfg = small_config(frequencies=(4e8,), configs=("h1",))
    assert_virtual_fast_path_matches_public_ops(cfg, LearningSchedule(), 4, 5, 200, params)


def test_td_reductions_equal_centralized():
    for kwargs in (dict(lam=0.0, psi=15), dict(lam=0.8, psi=0)):
        (a, rew_a), (b, rew_b) = run_pair(TdLambdaLearner, kwargs, CentralizedQLearner, {})
        assert rew_a == rew_b
        assert np.array_equal(a.q, b.q)


def test_td_learner_validation():
    sim, rng = small_sim(1)
    with pytest.raises(ValueError):
        TdLambdaLearner(small_config(), LearningSchedule(), rng, lam=1.2, psi=5)
    with pytest.raises(ValueError):
        TdLambdaLearner(small_config(), LearningSchedule(), rng, lam=0.5, psi=-1)


def test_eligibility_state():
    with pytest.raises(ValueError):
        EligibilityState(decay=1.0)
    with pytest.raises(ValueError):
        EligibilityState(decay=-0.1)

    es = EligibilityState(decay=0.5)
    assert es.max_age == 40
    assert es.powers[3] == 0.5**3 and es.powers[0] == 1.0
    # trace weights are filled by age as ages occur, so a decay near 1 (a
    # max_age of 2.8e8) costs no memory up front
    near_one = EligibilityState(decay=0.9999999)
    assert near_one.max_age > 10**8 and len(near_one.powers) == 0
    es.refresh((0, 0))
    es.slot = 3
    assert es.powers[es.slot - es.last_visit[(0, 0)]] == 0.5**3
    assert (9, 9) not in es.last_visit

    es = EligibilityState(decay=0.5)
    for slot, pair in enumerate([(0, 0), (1, 0), (2, 0)]):
        es.slot = slot
        es.refresh(pair)
    assert es.top_pairs(5, exclude=None) == [(2, 0), (1, 0), (0, 0)]
    assert es.top_pairs(1, exclude=None) == [(2, 0)]
    assert es.top_pairs(5, exclude=(2, 0)) == [(1, 0), (0, 0)]
    es.slot = 3
    es.refresh((0, 0))  # re-visit moves it to the front
    assert es.top_pairs(5, exclude=None) == [(0, 0), (2, 0), (1, 0)]

    es.slot = es.last_visit[(1, 0)] + es.max_age + 1
    es.prune()
    assert (1, 0) not in es.last_visit
    assert (2, 0) in es.last_visit  # only numerically dead traces are dropped


def test_td_step_trace_arithmetic():
    """Trace updates scale by alpha(target pair) * delta * decay^age and do
    not advance the target pair's visit count."""
    sched = LearningSchedule(gamma=0.9)
    alphas = LazyTable(sched.alpha_at)
    q = np.zeros((24, 4))
    visits = np.zeros((24, 4), dtype=np.int64)
    elig = EligibilityState(decay=0.72)

    # (0, 0, 2) -> (1, 1, 3) under (1, 1); then back to (0, 0, 2) under (0, 1)
    delta1 = td_lambda_step(q, visits, elig, 2, 3, fake_slot(s=21, reward=1.0), 2, sched, alphas)
    assert delta1 == 1.0
    assert q[2, 3] == 1.0 and visits[2, 3] == 1
    assert elig.slot == 1
    assert list(elig.last_visit) == [2 * 4 + 3]  # traces keyed by the flat cell

    delta2 = td_lambda_step(q, visits, elig, 21, 1, fake_slot(s=2, reward=0.5), 2, sched, alphas)
    assert delta2 == 0.5 + 0.9 * 1.0
    assert q[21, 1] == delta2 and visits[21, 1] == 1
    alpha = 1.0 / 2**0.6  # the trace target has one prior visit
    assert q[2, 3] == 1.0 + alpha * delta2 * 0.72
    assert visits[2, 3] == 1  # unchanged by the trace update


def test_td_update_cell_counts():
    sim, rng = small_sim(5)
    learner = TdLambdaLearner(small_config(), LearningSchedule(), rng, lam=0.8, psi=2)
    widths = []
    for _ in range(300):
        before = learner.q.copy()
        learner.step(sim)
        widths.append(int(np.count_nonzero(learner.q != before)))
    assert max(widths) <= 3  # actual pair plus at most psi trace targets
    assert widths[0] == 1
    assert 3 in widths


def test_grace_state_percentile_matches_numpy():
    from collections import deque

    state = GraceState(window=deque(maxlen=16))
    rng = np.random.default_rng(33)
    for value in rng.uniform(0.0, 1000.0, size=200):
        state.push(float(value))
        assert state.percentile_95() == pytest.approx(
            float(np.percentile(list(state.window), 95)), rel=1e-12
        )
    assert len(state.window) == 16
    with pytest.raises(ValueError):
        GraceState(window=deque(maxlen=4)).percentile_95()


def test_grace_frequency_pick():
    grace = GraceController(SystemConfig())
    assert grace._pick_frequency() == 4  # warm-up at the highest frequency
    grace.gstate.push(1.0)
    grace.gstate.estimate = 1e7
    # deadline 1/44 s: smallest f with 1e7/f <= 1/44 is 600 MHz
    assert grace._pick_frequency() == 2
    grace.gstate.estimate = 1e5
    assert grace._pick_frequency() == 0
    grace.gstate.estimate = 1e12
    assert grace._pick_frequency() == 4  # nothing fits: saturate


def test_grace_config_warm_start_then_argmin():
    cfg = SystemConfig(unit_types=("P",), type_transition=((1.0,),))
    cells = tuple(
        TripleDistribution(1e6, 0.0, b, 0.0, d, 0.0)
        for b, d in ((80.0, 10.0), (40.0, 5.0), (60.0, 8.0))  # J2: 15, 7.5, 11.75
    )
    params = GeneratorParams(configs=("h1", "h2", "h3"), per_type={"P": cells})
    rng = np.random.default_rng(0)
    sim = Simulator(cfg, StationarySource(params, ("P",), rng), rng)
    grace = GraceController(cfg)
    commands, configs = [], []
    for _ in range(8):
        assert grace.step(sim) == 0.0
        commands.append(sim.u)
        configs.append(sim.h)
    assert configs == [0, 1, 2, 1, 1, 1, 1, 1]  # try each once, then lock the argmin
    assert commands == [4, 0, 0, 0, 0, 0, 0, 0]  # warm-up at max, then 1e6 cycles fit at 200 MHz


def test_grace_smoothing_validation_and_default_run():
    with pytest.raises(ValueError):
        GraceController(small_config(), smoothing=1.0)
    sim, rng = small_sim(8)
    grace = GraceController(small_config())
    for _ in range(2000):
        grace.step(sim)
    assert grace.gstate.estimate > 0
    assert grace.state_values() is None


def test_best_response_validation():
    sim, rng = small_sim(1)
    sched = LearningSchedule()
    with pytest.raises(ValueError):
        BestResponseLearner(small_config(), sched, rng, "hw", np.zeros(24, dtype=int))
    with pytest.raises(PolicyError):
        BestResponseLearner(small_config(), sched, rng, "app", np.zeros(7, dtype=int))
    with pytest.raises(PolicyError):
        BestResponseLearner(small_config(), sched, rng, "app", np.full(24, 5))


def test_best_response_single_action_is_policy_evaluation():
    """With one own action, best-response learning reduces to evaluating the
    other layer's fixed policy; the linear-solve value function is recovered."""
    cfg = small_config(configs=("h1",))
    base = small_params()
    params = GeneratorParams(
        configs=("h1",), per_type={z: (base.for_type(z)[0],) for z in ("P", "B")}
    )
    full = small_dynamics()
    dyn = EmpiricalDynamics(full.arrival_pmf[:, :, :1, :], full.mean_rd_cost[:, :1])
    model = assemble_transition_model(cfg, dyn)

    policy_os = np.array([1 if s % 6 >= 3 else 0 for s in range(24)])
    chain = model.p[np.arange(24), policy_os]  # joint action index == command here
    v_ref = np.linalg.solve(np.eye(24) - 0.9 * chain, model.r[np.arange(24), policy_os])

    rng = np.random.default_rng(23)
    source = StationarySource(params, cfg.unit_types, rng)
    sim = Simulator(cfg, source, rng)
    learner = BestResponseLearner(cfg, LearningSchedule(gamma=0.9), rng, "app", policy_os)
    for _ in range(200_000):
        learner.step(sim)

    visited = learner.visits[:, 0] >= 500
    assert visited.sum() >= 4
    err = np.abs(learner.q[visited, 0] - v_ref[visited])
    assert (err <= 0.05 * (1.0 + np.abs(v_ref[visited]))).all()


def test_best_response_layers_drive_the_right_action():
    cfg = small_config()
    for layer in ("app", "os"):
        sim, rng = small_sim(4)
        n_other = 2
        fixed = np.tile(np.arange(n_other), 12)
        learner = BestResponseLearner(cfg, LearningSchedule(epsilon=0.0), rng, layer, fixed)
        s = sim.s
        learner.step(sim)
        if layer == "app":
            assert sim.u == fixed[s]  # command comes from the fixed policy
        else:
            assert sim.h == fixed[s]  # config comes from the fixed policy


def test_fixed_policy_controller():
    cfg = small_config()
    policy = np.arange(24) % 4
    values = np.linspace(0, 1, 24)
    controller = FixedPolicyController(cfg, policy, values)
    sim, _ = small_sim(6)
    for _ in range(50):
        s = sim.s
        assert controller.step(sim) == 0.0
        assert (sim.u, sim.h) == divmod(policy[s], 2)
    assert np.array_equal(controller.state_values(), values)
    with pytest.raises(PolicyError):
        FixedPolicyController(cfg, np.zeros(5, dtype=int))
    with pytest.raises(PolicyError):
        FixedPolicyController(cfg, np.full(24, 9))
