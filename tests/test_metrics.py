import numpy as np
import pytest

from conftest import small_config, small_sim
from layerq import (
    CentralizedQLearner,
    LearningSchedule,
    RunStats,
    UndefinedStateError,
    error_curve,
    weighted_estimation_error,
)
from layerq.learners import GraceController


def record_run(n=120, seed=7, interval=500):
    sim, rng = small_sim(seed)
    learner = CentralizedQLearner(small_config(), LearningSchedule(), rng)
    stats = RunStats(horizon=n, checkpoint_interval=interval)
    for _ in range(n):
        stats.log_slot(sim, learner.step(sim))
        stats.maybe_checkpoint(learner)
    return stats, learner


def test_running_sums_match_loop():
    stats, _ = record_run(n=200)
    assert stats.slots == 200
    total = 0.0
    for r in stats.reward[:200]:
        total += r
    assert stats.mean_reward == total / 200  # left-to-right accumulation, bit-exact
    assert stats.total_overflow == int(stats.overflow.sum())
    curve = stats.cumulative_mean_reward()
    manual = np.cumsum(stats.reward[:200]) / np.arange(1, 201)
    assert np.array_equal(curve, manual)


def test_horizon_guard_and_validation():
    with pytest.raises(ValueError):
        RunStats(horizon=0)
    with pytest.raises(ValueError):
        RunStats(horizon=10, checkpoint_interval=0)
    sim, rng = small_sim(1)
    delta = CentralizedQLearner(small_config(), LearningSchedule(), rng).step(sim)
    full = RunStats(horizon=1)
    full.log_slot(sim, delta)
    with pytest.raises(ValueError):
        full.log_slot(sim, delta)


def test_log_slot_reads_the_slot_attributes():
    sim, rng = small_sim(4)
    learner = CentralizedQLearner(small_config(), LearningSchedule(), rng)
    stats = RunStats(horizon=30)
    for i in range(30):
        start = (sim.freq_idx, sim.type_idx, sim.occupancy)
        delta = learner.step(sim)
        stats.log_slot(sim, delta)
        assert (stats.freq[i], stats.unit_type[i], stats.occupancy[i]) == start
        assert (stats.command[i], stats.config[i]) == (sim.u, sim.h)
        assert (stats.arrivals[i], stats.overflow[i]) == (sim.arrivals, sim.overflow)
        assert (stats.reward[i], stats.gain[i]) == (sim.reward, sim.gain)
        assert (stats.cost_os[i], stats.cost_app[i], stats.delta[i]) == (sim.j1, sim.j2, delta)


def test_empty_stats():
    stats = RunStats(horizon=5)
    assert stats.slots == 0
    assert stats.mean_reward == 0.0
    with pytest.raises(ValueError):
        stats.summary()


def test_summary_keys():
    stats, _ = record_run(n=50)
    summary = stats.summary()
    assert set(summary) == {
        "slots", "mean_reward", "mean_gain", "mean_power", "mean_rd_cost",
        "mean_arrivals", "total_overflow", "overflow_rate",
    }
    assert summary["slots"] == 50
    assert summary["overflow_rate"] == summary["total_overflow"] / 50
    assert summary["mean_arrivals"] == stats.arrivals[:50].sum() / 50


def test_checkpoint_cadence_and_isolation():
    stats, learner = record_run(n=1000, interval=250)
    assert [n for n, _ in stats.checkpoints] == [250, 500, 750, 1000]
    values = stats.checkpoints[0][1]
    assert values.shape == (24,)
    snapshot = values.copy()
    learner.q += 1.0  # checkpoints hold copies, not views
    assert np.array_equal(stats.checkpoints[0][1], snapshot)
    # off-boundary calls do nothing
    stats2 = RunStats(horizon=10, checkpoint_interval=3)
    stats2.log_slot(*_one_slot())
    stats2.maybe_checkpoint(learner)
    assert stats2.checkpoints == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(bad):
    """The learners' Python row maxima equal numpy's only on finite rows, so a
    checkpoint stops the run at the first NaN or infinite state value."""
    sim, rng = small_sim(7)
    learner = CentralizedQLearner(small_config(), LearningSchedule(), rng)
    stats = RunStats(horizon=500, checkpoint_interval=250)
    for _ in range(499):
        delta = learner.step(sim)
        stats.log_slot(sim, delta)
        stats.maybe_checkpoint(learner)
    learner.q[7] = bad
    stats.maybe_checkpoint(learner)  # off a boundary: not checked
    stats.log_slot(sim, delta)
    with pytest.raises(FloatingPointError, match=f"slot 500: state 7 has value {bad}"):
        stats.maybe_checkpoint(learner)
    assert [n for n, _ in stats.checkpoints] == [250]


def _one_slot():
    sim, rng = small_sim(3)
    return sim, CentralizedQLearner(small_config(), LearningSchedule(), rng).step(sim)


def test_checkpoints_skipped_without_values():
    sim, rng = small_sim(2)
    grace = GraceController(small_config())
    stats = RunStats(horizon=40, checkpoint_interval=10)
    for _ in range(40):
        stats.log_slot(sim, grace.step(sim))
        stats.maybe_checkpoint(grace)
    assert stats.checkpoints == []  # controller exposes no value estimates


def test_weighted_estimation_error_cases():
    ref = np.array([2.0, -4.0, 1.0])
    weights = np.array([0.5, 0.25, 0.25])
    assert weighted_estimation_error(ref, ref, weights) == 0.0
    est = np.array([2.0, -4.0, 0.0])  # only the third state misses, fully
    assert weighted_estimation_error(ref, est, weights) == pytest.approx(0.25)
    # scale invariance: doubling both reference and estimate changes nothing
    assert weighted_estimation_error(2 * ref, 2 * est, weights) == pytest.approx(0.25)
    # zero-weight states are ignored even when wildly wrong
    est2 = np.array([2.0, -4.0, 99.0])
    w2 = np.array([0.5, 0.5, 0.0])
    assert weighted_estimation_error(ref, est2, w2) == 0.0


def test_weighted_estimation_error_validation():
    ref = np.array([1.0, 0.0])
    weights = np.array([0.5, 0.5])
    with pytest.raises(UndefinedStateError) as info:
        weighted_estimation_error(ref, ref, weights)
    assert info.value.states == (1,)
    with pytest.raises(ValueError):
        weighted_estimation_error(ref, np.zeros(3), weights)
    with pytest.raises(ValueError):
        weighted_estimation_error(np.ones(2), np.ones(2), np.array([0.5, -0.1]))
    # zero reference is fine where the weight is zero
    ok = weighted_estimation_error(ref, np.array([1.0, 5.0]), np.array([1.0, 0.0]))
    assert ok == 0.0


def test_error_curve():
    ref = np.array([1.0, 2.0])
    weights = np.array([0.5, 0.5])
    checkpoints = [
        (10, np.array([1.0, 2.0])),
        (20, np.array([2.0, 2.0])),
    ]
    slots, errors = error_curve(checkpoints, ref, weights)
    assert slots.tolist() == [10, 20]
    assert errors[0] == 0.0
    assert errors[1] == pytest.approx(0.5)
    empty_slots, empty_errors = error_curve([], ref, weights)
    assert empty_slots.size == 0 and empty_errors.size == 0


def test_slot_columns():
    stats, _ = record_run(n=5)
    assert stats.freq[:5].min() >= 0
    assert stats.occupancy[:5].max() <= 5
    assert stats.arrivals.dtype == np.int64
    assert stats.command[:5].max() <= 1 and stats.config[:5].max() <= 1
