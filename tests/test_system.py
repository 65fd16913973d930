from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeRng, small_config, small_dynamics, small_params
from layerq import (
    EmpiricalDynamics,
    ModelError,
    ReplaySource,
    Simulator,
    SystemConfig,
    TraceSample,
    assemble_factored_model,
    assemble_transition_model,
    buffer_step,
    synth_stationary,
    utility_gain,
)
from layerq.system import _buffer_factors
from reference import (
    GlobalAction,
    GlobalState,
    app_cost,
    config_index,
    freq_index,
    joint_model,
    power_cost,
    step,
    type_index,
)


def make_sample(unit_type="P", bits=(60.0, 75.0, 90.0), dist=(10.0, 12.0, 13.5), cycles=(45e6, 14e6, 7e6)):
    return TraceSample(
        index=0,
        unit_type=unit_type,
        bits=np.array(bits),
        distortion=np.array(dist),
        cycles=np.array(cycles),
    )


def test_power_defaults():
    cfg = SystemConfig()
    watts = cfg.power_watts()
    assert watts == pytest.approx([0.012, 0.096, 0.324, 0.768, 1.5], rel=1e-12)
    assert power_cost(cfg, 600e6) == pytest.approx(0.324, rel=1e-12)
    with pytest.raises(ValueError):
        power_cost(cfg, 300e6)


def test_app_cost():
    cfg = SystemConfig()
    sample = make_sample()
    assert app_cost(cfg, sample, 0) == pytest.approx(10.0 + 60.0 / 16.0)
    assert app_cost(cfg, sample, 2) == pytest.approx(13.5 + 90.0 / 16.0)
    with pytest.raises(ValueError):
        app_cost(cfg, sample, 3)


def test_buffer_step_cases():
    assert buffer_step(0, 0, 50) == (0, 0)   # idle departure absorbed by the clamp
    assert buffer_step(0, 1, 50) == (0, 0)
    assert buffer_step(5, 3, 50) == (7, 0)
    assert buffer_step(50, 0, 50) == (49, 0)
    assert buffer_step(49, 4, 50) == (50, 2)
    assert buffer_step(50, 10, 50) == (50, 9)


@given(st.integers(0, 20), st.integers(0, 40), st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_buffer_step_formula(occupancy, arrivals, capacity):
    occupancy = min(occupancy, capacity)
    nxt, overflow = buffer_step(occupancy, arrivals, capacity)
    level = occupancy + arrivals - 1
    assert nxt == min(max(level, 0), capacity)
    assert overflow == max(level - capacity, 0)
    assert 0 <= nxt <= capacity


def test_utility_gain_values():
    assert utility_gain(1, 0, 50) == 1.0
    # the numerator is not clamped at zero: q=0, no arrivals scores just below 1
    assert utility_gain(0, 0, 50) == pytest.approx(1.0 - (1 / 50) ** 2)
    assert utility_gain(10, 5, 50) == pytest.approx(1.0 - (14 / 50) ** 2)
    assert utility_gain(50, 1, 50) == 0.0
    assert utility_gain(5, 3, 50, "conventional") == 1.0
    assert utility_gain(50, 3, 50, "conventional") == -2.0
    with pytest.raises(ValueError):
        utility_gain(0, 0, 50, "quadratic")


def test_step_slot_arithmetic():
    cfg = SystemConfig()
    state = GlobalState(frequency=600e6, unit_type="P", occupancy=4)
    action = GlobalAction(command=200e6, config="h2")
    sample = make_sample(cycles=(45e6, 6e6, 7e6))
    out = step(cfg, state, action, sample, np.random.default_rng(0))
    assert out.processing_delay == pytest.approx(0.01)
    assert out.arrivals == 0  # floor(0.01 * 44) = 0
    assert out.next_state.occupancy == 3
    assert out.overflow_count == 0
    assert out.cost_os == pytest.approx(0.324, rel=1e-12)
    assert out.cost_app == pytest.approx(12.0 + 75.0 / 16.0)
    assert out.utility_gain == pytest.approx(1.0 - (3 / 50) ** 2)
    expected = out.utility_gain - (22 / 125) * out.cost_os - (22 / 1875) * out.cost_app
    assert out.reward == pytest.approx(expected)
    assert out.next_state.frequency in (200e6, 600e6)
    assert out.next_state.unit_type == "B"  # P units are always followed by B


def test_step_validation():
    cfg = SystemConfig()
    state = GlobalState(frequency=600e6, unit_type="P", occupancy=0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        step(cfg, state, GlobalAction(200e6, "h1"), make_sample(unit_type="B"), rng)
    with pytest.raises(ValueError):
        step(cfg, state, GlobalAction(300e6, "h1"), make_sample(), rng)
    with pytest.raises(ValueError):
        step(cfg, state, GlobalAction(200e6, "h9"), make_sample(), rng)


def test_step_switch_probability():
    cfg = SystemConfig()
    state = GlobalState(frequency=600e6, unit_type="P", occupancy=0)
    action = GlobalAction(command=1000e6, config="h1")
    rng = np.random.default_rng(123)
    n = 20_000
    hits = sum(
        step(cfg, state, action, make_sample(), rng).next_state.frequency == 1000e6
        for _ in range(n)
    )
    assert hits / n == pytest.approx(0.9, abs=0.01)


def test_step_command_equal_to_current_always_lands():
    cfg = SystemConfig()
    state = GlobalState(frequency=600e6, unit_type="P", occupancy=0)
    action = GlobalAction(command=600e6, config="h1")
    rng = np.random.default_rng(5)
    for _ in range(200):
        assert step(cfg, state, action, make_sample(), rng).next_state.frequency == 600e6


def test_step_type_chain_frequencies():
    cfg = SystemConfig()
    state = GlobalState(frequency=600e6, unit_type="B", occupancy=0)
    action = GlobalAction(command=600e6, config="h1")
    sample = make_sample(unit_type="B")
    rng = np.random.default_rng(9)
    n = 30_000
    counts = {"P": 0, "B": 0, "I": 0}
    for _ in range(n):
        counts[step(cfg, state, action, sample, rng).next_state.unit_type] += 1
    assert counts["P"] / n == pytest.approx(0.375, abs=0.015)
    assert counts["B"] / n == pytest.approx(0.5, abs=0.015)
    assert counts["I"] / n == pytest.approx(0.125, abs=0.015)


def test_step_type_draw_uses_cumulative_bounds():
    """Type boundaries are the float cumulative sums of the row, as in
    np.cumsum: with row (0.1, 0.2, 0.7) the second bound is 0.30000000000000004."""
    cfg = SystemConfig(type_transition=((0.1, 0.2, 0.7), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0)))
    bounds = np.cumsum(cfg.type_transition[0])
    state = GlobalState(frequency=600e6, unit_type="P", occupancy=0)
    action = GlobalAction(command=600e6, config="h1")
    for draw, expected in (
        (0.0, "P"), (bounds[0], "B"), (0.3, "B"), (bounds[1], "I"), (0.9999999999, "I"),
    ):
        out = step(cfg, state, action, make_sample(), FakeRng([0.0, float(draw)]))
        assert out.next_state.unit_type == expected, draw


def test_simulator_initial_state():
    cfg = small_config(initial_occupancy=3)
    sim = Simulator(cfg, None, np.random.default_rng(0))
    assert (sim.freq_idx, sim.type_idx, sim.occupancy) == (0, 0, 3)
    assert sim.s == cfg.state_space().index(0, 0, 3) == 3


class RandomCyclesSource:
    """Uniform cycle counts from zero to three buffers' worth of arrivals at
    the highest frequency, so slots empty, fill and overflow the buffer."""

    def __init__(self, cfg: SystemConfig, rng):
        self.rng = rng
        self.n_configs = len(cfg.configs)
        self.top = 3.0 * (cfg.capacity + 1) * cfg.frequencies[-1] / cfg.arrival_rate

    def draw(self, type_idx):
        n = self.n_configs
        return SimpleNamespace(
            cycles=self.rng.uniform(0.0, self.top, n), bits=np.ones(n), distortion=np.ones(n)
        )


@st.composite
def small_systems(draw):
    n_freqs, n_types, n_configs = (draw(st.integers(1, 3)) for _ in range(3))
    capacity = draw(st.integers(1, 8))
    rows = []
    for _ in range(n_types):
        weights = draw(st.lists(st.integers(0, 4), min_size=n_types, max_size=n_types).filter(any))
        rows.append(tuple(w / sum(weights) for w in weights))
    return SystemConfig(
        frequencies=tuple(2e8 * (i + 1) for i in range(n_freqs)),
        unit_types=("P", "B", "I")[:n_types],
        configs=tuple(f"h{i}" for i in range(n_configs)),
        type_transition=tuple(rows),
        capacity=capacity,
        initial_occupancy=draw(st.integers(0, capacity)),
        switch_prob=draw(st.sampled_from([0.5, 0.9, 1.0])),
    )


@given(
    small_systems(),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=60),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_simulator_state_index_property(cfg, actions, seed):
    """Over random small systems, actions and seeds the simulator stays inside
    the state space, and after every slot its index is StateSpace.index of its
    components: the one index rule."""
    space = cfg.state_space()
    n_freqs, n_configs = len(cfg.frequencies), len(cfg.configs)
    rng = np.random.default_rng(seed)
    sim = Simulator(cfg, RandomCyclesSource(cfg, rng), rng)
    assert sim.s == space.index(0, 0, cfg.initial_occupancy)
    for u, h in actions:
        u, h = u % n_freqs, h % n_configs
        start = (sim.freq_idx, sim.type_idx, sim.occupancy)
        s_next = sim.slot(u, h)
        state = (sim.freq_idx, sim.type_idx, sim.occupancy)
        assert (sim.f, sim.z, sim.q) == start and (sim.u, sim.h) == (u, h)
        assert 0 <= state[0] < n_freqs and 0 <= state[1] < len(cfg.unit_types)
        assert 0 <= state[2] <= cfg.capacity
        assert state[0] in (u, start[0])
        assert cfg.type_transition[start[1]][state[1]] > 0
        assert (state[2], sim.overflow) == buffer_step(start[2], sim.arrivals, cfg.capacity)
        assert s_next == sim.s == space.index(*state)
        assert 0 <= sim.s < space.n_states and space.components(sim.s) == state


def test_simulator_matches_step():
    """The index-level slot loop reproduces the value-level step() exactly."""
    cfg = small_config()
    labels = ["P", "B"] * 300
    samples = synth_stationary(small_params(), labels, np.random.default_rng(77))
    seed = 31

    sim = Simulator(cfg, ReplaySource(samples, cfg.unit_types), np.random.default_rng(seed))
    actions = [(t % 2, (t // 2) % 2) for t in range(1000)]
    slot_rewards = []
    slot_states = []
    for ui, hi in actions:
        sim.slot(ui, hi)
        slot_rewards.append(sim.reward)
        slot_states.append(((sim.freq_idx, sim.type_idx, sim.occupancy), sim.arrivals, sim.overflow))

    # replay the identical trajectory through the value-level reference
    rng = np.random.default_rng(seed)
    by_type = {label: [s for s in samples if s.unit_type == label] for label in cfg.unit_types}
    cursors = {label: 0 for label in cfg.unit_types}
    state = GlobalState(cfg.frequencies[0], cfg.unit_types[0], cfg.initial_occupancy)
    for t, (ui, hi) in enumerate(actions):
        rows = by_type[state.unit_type]
        sample = rows[cursors[state.unit_type]]
        cursors[state.unit_type] = (cursors[state.unit_type] + 1) % len(rows)
        out = step(cfg, state, GlobalAction(cfg.frequencies[ui], cfg.configs[hi]), sample, rng)
        assert out.reward == slot_rewards[t]
        next_idx = (
            freq_index(cfg, out.next_state.frequency),
            type_index(cfg, out.next_state.unit_type),
            out.next_state.occupancy,
        )
        assert (next_idx, out.arrivals, out.overflow_count) == slot_states[t]
        state = out.next_state


def test_empirical_dynamics_validation():
    cfg = small_config()
    dyn = small_dynamics()
    dyn.validate(cfg)
    with pytest.raises(ModelError):
        EmpiricalDynamics(dyn.arrival_pmf[:1], dyn.mean_rd_cost).validate(cfg)
    bad = dyn.arrival_pmf.copy()
    bad[0, 0, 0, 0] = -0.1
    with pytest.raises(ModelError):
        EmpiricalDynamics(bad, dyn.mean_rd_cost).validate(cfg)
    with pytest.raises(ModelError):
        EmpiricalDynamics(dyn.arrival_pmf * 1.5, dyn.mean_rd_cost).validate(cfg)
    with pytest.raises(ModelError):
        EmpiricalDynamics(dyn.arrival_pmf, dyn.mean_rd_cost[:1]).validate(cfg)


def occupancy_marginal(model, space, s, a):
    """P(q' | s, a) marginalized over next frequency and type."""
    out = np.zeros(space.n_levels)
    for s_next in range(space.n_states):
        _, _, q = space.components(s_next)
        out[q] += model.p[s, a, s_next]
    return out


def test_assemble_buffer_marginals():
    cfg = small_config()
    model = assemble_transition_model(cfg, small_dynamics())
    space = cfg.state_space()
    actions = cfg.action_space()
    assert model.p.shape == (24, 4, 24)
    model.validate(tol=1e-12)

    # B/h2 at 200 MHz never sees arrivals: occupancy falls by one (clamped)
    a = actions.index(0, 1)
    for q in (0, 1, 4):
        marginal = occupancy_marginal(model, space, space.index(0, 1, q), a)
        assert marginal[max(q - 1, 0)] == pytest.approx(1.0)

    # P/h1 at 200 MHz: arrivals 2 or 4, so q=1 goes to 2 or 4 with mass 1/2
    a = actions.index(0, 0)
    marginal = occupancy_marginal(model, space, space.index(0, 0, 1), a)
    assert marginal[2] == pytest.approx(0.5) and marginal[4] == pytest.approx(0.5)

    # from a full buffer both outcomes clamp to capacity
    marginal = occupancy_marginal(model, space, space.index(0, 0, 5), a)
    assert marginal[5] == pytest.approx(1.0)


def test_assemble_uniform_arrivals_spread():
    cfg = small_config()
    dyn = small_dynamics()
    pmf = dyn.arrival_pmf.copy()
    pmf[0, 0, 0] = 0.0
    pmf[0, 0, 0, :3] = 1.0 / 3.0  # arrivals uniform over {0, 1, 2}
    model = assemble_transition_model(cfg, EmpiricalDynamics(pmf, dyn.mean_rd_cost))
    space = cfg.state_space()
    marginal = occupancy_marginal(model, space, space.index(0, 0, 3), cfg.action_space().index(0, 0))
    assert marginal[2:5] == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_assemble_reward_cell():
    cfg = small_config()
    model = assemble_transition_model(cfg, small_dynamics())
    s = cfg.state_space().index(0, 0, 2)  # 200 MHz, P, q=2
    a = cfg.action_space().index(1, 0)    # any command, config h1
    e_gain = 0.5 * (1 - (3 / 5) ** 2) + 0.5 * (1 - (5 / 5) ** 2)
    power = 1.5e-27 * (2e8) ** 3
    expected = e_gain - (22 / 125) * power - (22 / 1875) * (8.0 + 50.0 / 16.0)
    assert model.r[s, a] == pytest.approx(expected, rel=1e-12)
    # the reward does not depend on the commanded frequency
    assert model.r[s, cfg.action_space().index(0, 0)] == model.r[s, a]


def test_assemble_switch_marginals():
    cfg = small_config()
    model = assemble_transition_model(cfg, small_dynamics())
    space = cfg.state_space()

    def freq_marginal(s, a):
        out = np.zeros(len(cfg.frequencies))
        for s_next in range(space.n_states):
            fi, _, _ = space.components(s_next)
            out[fi] += model.p[s, a, s_next]
        return out

    s = space.index(0, 0, 2)
    assert freq_marginal(s, cfg.action_space().index(1, 0)) == pytest.approx([0.1, 0.9])
    # commanding the current frequency keeps it with probability one
    assert freq_marginal(s, cfg.action_space().index(0, 0)) == pytest.approx([1.0, 0.0])


def test_factored_model_matches_joint():
    cfg = small_config()
    dyn = small_dynamics()
    joint = assemble_transition_model(cfg, dyn)
    rebuilt = joint_model(assemble_factored_model(cfg, dyn))
    assert np.abs(rebuilt.p - joint.p).max() <= 1e-12
    assert np.abs(rebuilt.r - joint.r).max() <= 1e-12


def buffer_factor_per_cell(pmf, capacity):
    """The per-cell loop the vectorized buffer factors replace: the reference."""
    n_levels = capacity + 1
    counts = np.arange(len(pmf))
    factor = np.zeros((n_levels, n_levels))
    for q in range(n_levels):
        np.add.at(factor[q], np.clip(q + counts - 1, 0, capacity), pmf)
    return factor


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(1, 20),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)
@settings(max_examples=40, deadline=None)
def test_buffer_factors_match_per_cell_loop(seed, capacity, n_counts, cells):
    """All cells' buffer factors in one pass equal the per-cell loop bit for
    bit, for pmfs both shorter and longer than the buffer."""
    rng = np.random.default_rng(seed)
    pmf = rng.random(cells + (n_counts,)) * (rng.random(cells + (n_counts,)) < 0.7)
    pmf[..., 0] += 1e-3
    pmf /= pmf.sum(axis=-1, keepdims=True)
    factors = _buffer_factors(pmf, capacity)
    assert factors.shape == cells + (capacity + 1, capacity + 1)
    for cell in np.ndindex(cells):
        assert np.array_equal(factors[cell], buffer_factor_per_cell(pmf[cell], capacity))


def test_factored_model_holds_the_three_factors():
    cfg = small_config()
    dyn = small_dynamics()
    factors = assemble_factored_model(cfg, dyn)
    assert np.array_equal(factors.p_type, cfg.type_matrix())
    nf, nz, nh, _ = dyn.arrival_pmf.shape
    assert factors.p_buffer.shape == (nf, nz, nh, cfg.capacity + 1, cfg.capacity + 1)
    for cell in np.ndindex(nf, nz, nh):
        assert np.array_equal(
            factors.p_buffer[cell], buffer_factor_per_cell(dyn.arrival_pmf[cell], cfg.capacity)
        )


def test_system_config_validation():
    for kwargs in (
        dict(frequencies=()),
        dict(frequencies=(2e8, 1e8)),
        dict(frequencies=(0.0, 1e8)),
        dict(switch_prob=0.0),
        dict(switch_prob=1.2),
        dict(capacity=0),
        dict(arrival_rate=0.0),
        dict(initial_occupancy=99),
        dict(type_transition=((0.5, 0.5),)),
        dict(type_transition=((0.9, 0.2, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))),
        dict(type_transition=((-0.5, 1.5, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))),
        dict(gain_mode="linear"),
    ):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)


def test_config_index_helpers():
    cfg = SystemConfig()
    assert freq_index(cfg, 600e6) == 2
    assert type_index(cfg, "I") == 2
    assert config_index(cfg, "h3") == 2
    for call in (
        lambda: freq_index(cfg, 123.0),
        lambda: type_index(cfg, "Q"),
        lambda: config_index(cfg, "h7"),
    ):
        with pytest.raises(ValueError):
            call()


def test_type_chain_stationary_ratio():
    """The default chain's stationary distribution is I:P:B = 1:3:8."""
    matrix = SystemConfig().type_matrix()
    vals, vecs = np.linalg.eig(matrix.T)
    lead = np.argmin(np.abs(vals - 1.0))
    mu = np.abs(np.real(vecs[:, lead]))
    mu /= mu.sum()
    assert mu == pytest.approx([3 / 12, 8 / 12, 1 / 12], abs=1e-12)
