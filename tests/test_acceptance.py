"""End-to-end acceptance checks for the full toolkit.

Each test prints one `[acceptance] <name>: PASS/FAIL (...)` line with the
measured numbers before asserting, so a full run doubles as a report. The
heavyweight artifacts (solved models, long learning runs) are module-scoped
fixtures shared across checks.
"""

import time
from statistics import median

import numpy as np
import pytest

from conftest import FakeRng, small_dynamics
from layerq import (
    EmpiricalDynamics,
    FactoredModel,
    LearningSchedule,
    Simulator,
    StationarySource,
    SystemConfig,
    TransitionModel,
    assemble_transition_model,
    config_from_dict,
    compute_oracle,
    default_generator_params,
    epsilon_greedy,
    error_curve,
    q_update,
    run_single,
    stationary_distribution,
    value_iteration,
    weighted_estimation_error,
)
from reference import (
    GlobalAction,
    GlobalState,
    decomposed_tables,
    freq_index,
    slot_tuple,
    step,
    type_index,
    virtual_et_expand,
)

SEEDS = (1, 2, 3, 4, 5)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def run_cfg(algorithm: str, horizon: int, *, psi: int = 15, lam: float = 0.8,
            trace: dict | None = None, gain_mode: str = "proposed"):
    data = {
        "learner": {"algorithm": algorithm, "psi": psi, "lam": lam},
        "run": {"horizon": horizon, "seeds": list(SEEDS)},
        "oracle": {"enabled": False},
    }
    if algorithm in ("grace",):
        data["learner"] = {"algorithm": algorithm}
    if trace is not None:
        data["trace"] = trace
    if gain_mode != "proposed":
        data["system"] = {"gain_mode": gain_mode}
    return config_from_dict(data)


ORACLE_TIMES: dict[str, float] = {}


@pytest.fixture(scope="module")
def solved_default():
    """Estimated-and-solved default system (proposed gain)."""
    t0 = time.perf_counter()
    oracle = compute_oracle(config_from_dict({}))
    ORACLE_TIMES["proposed"] = time.perf_counter() - t0
    return oracle


@pytest.fixture(scope="module")
def long_runs():
    """Per-algorithm 192k-slot runs over the shared seeds, with wall times."""
    out = {}
    for alg in ("centralized", "layered", "grace"):
        cfg = run_cfg(alg, 192_000)
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            result = run_single(cfg, seed)
            runs.append((result, time.perf_counter() - t0))
        out[alg] = runs
    return out


@pytest.fixture(scope="module")
def accel_sweep(solved_default):
    """64k-slot runs for increasing extra-backup budgets, plus the trace-decay
    variant, with final rewards and weighted value errors per seed."""
    out = {}
    plans = {
        "psi0": ("virtual-et", dict(psi=0)),
        "psi1": ("virtual-et", dict(psi=1)),
        "psi15": ("virtual-et", dict(psi=15)),
        "td15": ("td-lambda", dict(psi=15, lam=0.8)),
    }
    for label, (alg, kwargs) in plans.items():
        cfg = run_cfg(alg, 64_000, **kwargs)
        rewards, errors = [], []
        for seed in SEEDS:
            result = run_single(cfg, seed)
            rewards.append(result.stats.mean_reward)
            _, errs = error_curve(
                result.stats.checkpoints, solved_default.values, solved_default.weights
            )
            errors.append(float(errs[-1]))
        out[label] = (rewards, errors)
    return out


def reduced_system() -> tuple[SystemConfig, EmpiricalDynamics, dict]:
    cfg = SystemConfig(
        frequencies=(2e8, 4e8),
        unit_types=("P", "B"),
        type_transition=((0.25, 0.75), (0.5, 0.5)),
        configs=("h1",),
        capacity=5,
    )
    full = small_dynamics()
    dyn = EmpiricalDynamics(full.arrival_pmf[:, :, :1, :], full.mean_rd_cost[:, :1])
    pools = {"P": (1e7, 2e7), "B": (8e6, 1.6e7)}
    return cfg, dyn, pools


class _Sample:
    __slots__ = ("unit_type", "cycles", "bits", "distortion")


def test_transition_model_matches_monte_carlo():
    """Assembled next-state rows agree with empirical step() frequencies on a
    reduced two-frequency, two-type instance, and all rows normalize.

    Arrival, switch, and type draws are independent of occupancy given
    (f, z, u, h), so the per-cell draws are pooled across the six occupancy
    levels they were collected at; each of the 1e6 calls is a literal step().
    """
    t0 = time.perf_counter()
    cfg, dyn, pools = reduced_system()
    model = assemble_transition_model(cfg, dyn)

    norm_gap = float(np.abs(model.p.sum(axis=2) - 1.0).max())
    rng = np.random.default_rng(2024)
    n_levels = cfg.capacity + 1
    per_cell = 1_000_000 // 48  # calls per (state, action) pair
    max_pooled = 0.0
    max_raw = 0.0
    for fi in range(2):
        for zi in range(2):
            for ui in range(2):
                sample = _Sample()
                sample.unit_type = cfg.unit_types[zi]
                sample.bits = (0.0,)
                sample.distortion = (0.0,)
                pool = pools[cfg.unit_types[zi]]
                action = GlobalAction(cfg.frequencies[ui], "h1")
                cell_counts: dict = {}
                raw = np.zeros((n_levels, 24))
                for i in range(per_cell * n_levels):
                    q = i % n_levels
                    sample.cycles = (pool[int(rng.integers(2))],)
                    out = step(cfg, GlobalState(cfg.frequencies[fi], sample.unit_type, q),
                               action, sample, rng)
                    fz = out.next_state
                    fi2 = 0 if fz.frequency == cfg.frequencies[0] else 1
                    zi2 = 0 if fz.unit_type == "P" else 1
                    key = (out.arrivals, fi2, zi2)
                    cell_counts[key] = cell_counts.get(key, 0) + 1
                    raw[q, (fi2 * 2 + zi2) * n_levels + fz.occupancy] += 1.0
                total = per_cell * n_levels
                for q in range(n_levels):
                    est = np.zeros(24)
                    for (arrivals, fi2, zi2), count in cell_counts.items():
                        q2 = min(max(q + arrivals - 1, 0), cfg.capacity)
                        est[(fi2 * 2 + zi2) * n_levels + q2] += count / total
                    s = (fi * 2 + zi) * n_levels + q
                    max_pooled = max(max_pooled, float(np.abs(est - model.p[s, ui]).sum()))
                    max_raw = max(
                        max_raw, float(np.abs(raw[q] / per_cell - model.p[s, ui]).sum())
                    )
    elapsed = time.perf_counter() - t0
    ok = max_pooled <= 0.01 and norm_gap <= 1e-9 and elapsed < 60.0
    assert report(
        "transition model vs Monte Carlo",
        ok,
        f"max row L1 {max_pooled:.4f} <= 0.01 pooled ({max_raw:.4f} unpooled), "
        f"row-sum gap {norm_gap:.1e} <= 1e-9, {elapsed:.1f}s < 60s",
    )


def test_layer_decomposition_identity_random_instances():
    """Reassembling the two per-layer tables reproduces the joint optimal
    action-value table on random factored models."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n1 = int(rng.integers(1, 4))
        nz = int(rng.integers(1, 4))
        n_levels = int(rng.integers(1, 4))
        m1 = int(rng.integers(1, 4))
        m2 = int(rng.integers(1, 4))
        n2 = nz * n_levels
        p_low = rng.random((n1, m1, n1)) + 0.05
        p_low /= p_low.sum(axis=2, keepdims=True)
        p_type = rng.random((nz, nz)) + 0.05
        p_type /= p_type.sum(axis=1, keepdims=True)
        p_buffer = rng.random((n1, nz, m2, n_levels, n_levels)) + 0.05
        p_buffer /= p_buffer.sum(axis=4, keepdims=True)
        factors = FactoredModel(
            p_low=p_low,
            p_type=p_type,
            p_buffer=p_buffer,
            gain=rng.normal(size=(n1, n2, m2)),
            cost_low=rng.random((n1, m1)),
            cost_high=rng.random((n2, m2)),
            weight_low=float(rng.uniform(0.1, 1.0)),
            weight_high=float(rng.uniform(0.1, 1.0)),
        )
        _, outer, q_star = decomposed_tables(factors, gamma=0.9)
        worst = max(worst, float(np.abs(outer.reshape(q_star.shape) - q_star).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    assert report(
        "layer decomposition identity",
        ok,
        f"20 random instances, sup gap {worst:.2e} <= 1e-6, {elapsed:.1f}s < 30s",
    )


def test_virtual_tuples_match_forced_steps():
    """Every extrapolated slot tuple reproduces the reference step() forced
    onto the same arrivals, costs, and switch/type outcomes."""
    t0 = time.perf_counter()
    cfg = SystemConfig()
    rng = np.random.default_rng(99)
    source = StationarySource(default_generator_params(), cfg.unit_types, rng)
    sim = Simulator(cfg, source, rng)
    ets = []
    for _ in range(10_000):
        sim.slot(int(rng.integers(5)), int(rng.integers(3)))
        ets.append(slot_tuple(sim))

    type_cum = [np.cumsum(row) for row in cfg.type_transition]
    checked = 0
    worst_reward = 0.0
    exact_states = True
    for et in ets:
        fi, zi, _ = et.state
        ui, hi = et.action
        fi2, zi2, _ = et.next_state
        cycles = [0.0, 0.0, 0.0]
        cycles[hi] = (et.arrivals + 0.5) / cfg.arrival_rate * cfg.frequencies[fi]
        dist = [0.0, 0.0, 0.0]
        dist[hi] = et.cost_app
        sample = _Sample()
        sample.unit_type = cfg.unit_types[zi]
        sample.bits = (0.0, 0.0, 0.0)
        sample.cycles = tuple(cycles)
        sample.distortion = tuple(dist)
        switch_draw = 0.0 if fi2 == ui else 0.95
        lo = 0.0 if zi2 == 0 else float(type_cum[zi][zi2 - 1])
        type_draw = (lo + float(type_cum[zi][zi2])) / 2
        action = GlobalAction(cfg.frequencies[ui], cfg.configs[hi])
        for level, member in enumerate(virtual_et_expand(et, cfg)):
            out = step(cfg, GlobalState(cfg.frequencies[fi], sample.unit_type, level),
                       action, sample, FakeRng([switch_draw, type_draw]))
            state_ok = (
                out.arrivals == et.arrivals
                and out.next_state.occupancy == member.next_state[2]
                and freq_index(cfg, out.next_state.frequency) == member.next_state[0]
                and type_index(cfg, out.next_state.unit_type) == member.next_state[1]
            )
            exact_states = exact_states and state_ok
            worst_reward = max(worst_reward, abs(out.reward - member.reward))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = exact_states and worst_reward <= 1e-12 and elapsed < 10.0
    assert report(
        "virtual tuples vs forced steps",
        ok,
        f"{checked} tuples, next-state bit-equal {exact_states}, "
        f"max |reward gap| {worst_reward:.1e} <= 1e-12, {elapsed:.1f}s < 10s",
    )


def test_solved_policy_buffer_safety(solved_default):
    """Greedy play of the solved quadratic-gain model never overflows over
    192k slots; the flat-gain variant's own solved policy does overflow."""
    t0 = time.perf_counter()
    greedy = config_from_dict(
        {"learner": {"algorithm": "oracle-greedy"}, "run": {"horizon": 192_000, "seeds": [1]}}
    )
    proposed_run = run_single(greedy, 1, solved_default)

    conventional = config_from_dict(
        {
            "system": {"gain_mode": "conventional"},
            "learner": {"algorithm": "oracle-greedy"},
            "run": {"horizon": 192_000, "seeds": [1]},
        }
    )
    conv_oracle = compute_oracle(conventional)
    conv_run = run_single(conventional, 1, conv_oracle)
    elapsed = time.perf_counter() - t0 + ORACLE_TIMES.get("proposed", 0.0)
    ok = (
        proposed_run.stats.total_overflow == 0
        and conv_run.stats.total_overflow > 0
        and elapsed < 120.0
    )
    assert report(
        "solved-policy buffer safety",
        ok,
        f"quadratic gain {proposed_run.stats.total_overflow} overflows == 0, "
        f"flat gain {conv_run.stats.total_overflow} > 0, {elapsed:.1f}s < 120s",
    )


def test_layered_matches_centralized_long_run(long_runs):
    """The two-table decentralized learner reaches the same long-run average
    reward as the joint-table learner, within overlapping seed bands."""
    cen = np.array([r.stats.mean_reward for r, _ in long_runs["centralized"]])
    lay = np.array([r.stats.mean_reward for r, _ in long_runs["layered"]])
    diff = abs(cen.mean() - lay.mean())
    s_cen = cen.std(ddof=1)
    s_lay = lay.std(ddof=1)
    overlap = diff <= s_cen + s_lay
    ok = diff <= 0.02 and overlap
    assert report(
        "layered matches centralized",
        ok,
        f"centralized {cen.mean():.4f}+/-{s_cen:.4f}, layered {lay.mean():.4f}"
        f"+/-{s_lay:.4f}, |diff| {diff:.4f} <= 0.02, bands overlap {overlap}",
    )


def test_extra_backups_accelerate_learning(accel_sweep):
    """More statistically equivalent extra backups per slot mean faster
    learning; replaying along the visited trajectory instead does not help."""
    rew = {k: median(v[0]) for k, v in accel_sweep.items()}
    err = {k: median(v[1]) for k, v in accel_sweep.items()}
    increasing = rew["psi0"] < rew["psi1"] < rew["psi15"]
    error_halved = err["psi15"] <= 0.5 * err["psi0"]

    sigma0 = float(np.std(accel_sweep["psi0"][1], ddof=1))
    td_error_gain = err["psi0"] - err["td15"]
    virtual_reward_gain = rew["psi15"] - rew["psi0"]
    td_reward_gain = rew["td15"] - rew["psi0"]
    td_flat = td_error_gain <= sigma0 and td_reward_gain <= 0.25 * virtual_reward_gain

    ok = increasing and error_halved and td_flat
    assert report(
        "extra backups accelerate learning",
        ok,
        f"median reward {rew['psi0']:.4f} < {rew['psi1']:.4f} < {rew['psi15']:.4f}; "
        f"median error {err['psi15']:.4f} <= 0.5*{err['psi0']:.4f}; trace-decay "
        f"error gain {td_error_gain:.4f} <= 1 sigma {sigma0:.4f} and reward gain "
        f"{td_reward_gain:.4f} <= 25% of {virtual_reward_gain:.4f}",
    )


def test_centralized_beats_myopic_baseline(long_runs):
    """Foresighted learning clears the deadline-driven myopic controller by a
    wide absolute margin in average reward."""
    cen = np.array([r.stats.mean_reward for r, _ in long_runs["centralized"]])
    gra = np.array([r.stats.mean_reward for r, _ in long_runs["grace"]])
    gap = cen.mean() - gra.mean()
    ok = gap >= 0.2
    assert report(
        "foresighted vs myopic baseline",
        ok,
        f"centralized {cen.mean():.4f}, myopic {gra.mean():.4f}, gap {gap:.4f} >= 0.2",
    )


def test_q_learning_converges_small_mdp():
    """Raw tabular learning on a random small model reaches the solved value
    function within a banded tolerance and a small weighted error."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    p = rng.random((3, 2, 3)) + 0.1
    p /= p.sum(axis=2, keepdims=True)
    model = TransitionModel(p=p, r=rng.random((3, 2)))
    gamma = 0.9
    _, policy, v_star = value_iteration(model, gamma, tol=1e-10)
    weights = stationary_distribution(model, policy)

    schedule = LearningSchedule(gamma=gamma, epsilon=0.2)
    q = np.zeros((3, 2))
    visits = np.zeros((3, 2), dtype=np.int64)
    cum = p.cumsum(axis=2)
    s = 0
    for _ in range(1_000_000):
        a = epsilon_greedy(q[s], 0.2, rng)
        s2 = int(np.searchsorted(cum[s, a], rng.random(), side="right"))
        q_update(q, s, a, model.r[s, a], s2, schedule.alpha_at(visits[s, a]), gamma)
        visits[s, a] += 1
        s = s2
    v = q.max(axis=1)
    banded = float(np.max(np.abs(v - v_star) / (1.0 + np.abs(v_star))))
    weighted = weighted_estimation_error(v_star, v, weights)
    elapsed = time.perf_counter() - t0
    ok = banded <= 0.05 and weighted < 0.05
    assert report(
        "small-model convergence",
        ok,
        f"banded value gap {banded:.4f} <= 0.05, weighted error {weighted:.4f} < 0.05, "
        f"1e6 steps in {elapsed:.1f}s",
    )


def test_nonstationary_robustness(accel_sweep):
    """A mid-run workload shift moves the final average reward by only a few
    percent relative to the stationary run."""
    trace = {
        "kind": "nonstationary",
        "segments": [
            {"duration": 32_000},
            {"duration": 32_000, "cycles_scale": 1.1},
        ],
    }
    cfg = run_cfg("virtual-et", 64_000, psi=15, trace=trace)
    rewards = [run_single(cfg, seed).stats.mean_reward for seed in SEEDS]
    shifted = median(rewards)
    stationary = median(accel_sweep["psi15"][0])
    rel = abs(shifted - stationary) / abs(stationary)
    ok = rel <= 0.10
    assert report(
        "non-stationary robustness",
        ok,
        f"shifted {shifted:.4f} vs stationary {stationary:.4f}, "
        f"relative gap {rel:.1%} <= 10%",
    )


def test_runtime_envelope(long_runs):
    """Long runs stay within interactive wall-time budgets."""
    cen_times = sorted(t for _, t in long_runs["centralized"])
    cen_median = cen_times[len(cen_times) // 2]

    cfg = run_cfg("virtual-et", 192_000, psi=45)
    t0 = time.perf_counter()
    run_single(cfg, 1)
    heavy = time.perf_counter() - t0
    ok = cen_median < 10.0 and heavy < 60.0
    assert report(
        "runtime envelope",
        ok,
        f"192k centralized median {cen_median:.1f}s < 10s "
        f"(max {cen_times[-1]:.1f}s), 192k with 45 extra backups {heavy:.1f}s < 60s",
    )
