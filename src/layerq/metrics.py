"""Per-run statistics and value-estimation error metrics."""

from __future__ import annotations

import numpy as np


class UndefinedStateError(ValueError):
    """The relative error is undefined where the reference value is zero."""

    def __init__(self, states):
        self.states = tuple(int(s) for s in states)
        super().__init__(
            f"reference value is zero at {len(self.states)} weighted state(s): "
            f"{self.states[:10]}{'...' if len(self.states) > 10 else ''}"
        )


class RunStats:
    """Preallocated per-slot columns plus incremental running sums.

    The running sums accumulate in slot order, so the final means are
    bit-identical to a left-to-right recomputation over the columns (unlike
    np.sum, which may reassociate). Value-table checkpoints are taken every
    `checkpoint_interval` slots via maybe_checkpoint.
    """

    def __init__(self, horizon: int, checkpoint_interval: int = 500):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        self.horizon = horizon
        self.checkpoint_interval = checkpoint_interval
        self.reward = np.zeros(horizon)
        self.gain = np.zeros(horizon)
        self.cost_os = np.zeros(horizon)
        self.cost_app = np.zeros(horizon)
        self.delta = np.zeros(horizon)
        self.arrivals = np.zeros(horizon, dtype=np.int64)
        self.overflow = np.zeros(horizon, dtype=np.int64)
        self.freq = np.zeros(horizon, dtype=np.int64)
        self.unit_type = np.zeros(horizon, dtype=np.int64)
        self.occupancy = np.zeros(horizon, dtype=np.int64)
        self.command = np.zeros(horizon, dtype=np.int64)
        self.config = np.zeros(horizon, dtype=np.int64)
        self.checkpoints: list[tuple[int, np.ndarray]] = []
        self._n = 0
        self._sum_reward = 0.0
        self._sum_gain = 0.0
        self._sum_cost_os = 0.0
        self._sum_cost_app = 0.0
        self._sum_arrivals = 0
        self._sum_overflow = 0

    @property
    def slots(self) -> int:
        return self._n

    def log_slot(self, sim, delta: float) -> None:
        """Record the slot that `sim` (a Simulator) just ran and its TD error."""
        i = self._n
        if i >= self.horizon:
            raise ValueError(f"run exceeds the declared horizon of {self.horizon} slots")
        self.reward[i] = reward = sim.reward
        self.gain[i] = gain = sim.gain
        self.cost_os[i] = j1 = sim.j1
        self.cost_app[i] = j2 = sim.j2
        self.delta[i] = delta
        self.arrivals[i] = arrivals = sim.arrivals
        self.overflow[i] = overflow = sim.overflow
        self.freq[i] = sim.f
        self.unit_type[i] = sim.z
        self.occupancy[i] = sim.q
        self.command[i] = sim.u
        self.config[i] = sim.h
        self._sum_reward += reward
        self._sum_gain += gain
        self._sum_cost_os += j1
        self._sum_cost_app += j2
        self._sum_arrivals += arrivals
        self._sum_overflow += overflow
        self._n = i + 1

    def maybe_checkpoint(self, learner) -> None:
        """Snapshot learner.state_values() if a checkpoint boundary was hit;
        a NaN or infinite value raises FloatingPointError naming the state."""
        if self._n % self.checkpoint_interval != 0:
            return
        values = learner.state_values()
        if values is not None:
            values = np.array(values, copy=True)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise FloatingPointError(f"slot {self._n}: state {bad[0]} has value {values[bad[0]]}")
            self.checkpoints.append((self._n, values))

    @property
    def mean_reward(self) -> float:
        return self._sum_reward / self._n if self._n else 0.0

    @property
    def total_overflow(self) -> int:
        return self._sum_overflow

    def cumulative_mean_reward(self) -> np.ndarray:
        """Running average after each slot; [k] covers slots 0..k."""
        n = self._n
        return np.cumsum(self.reward[:n]) / np.arange(1, n + 1)

    def summary(self) -> dict:
        n = self._n
        if n == 0:
            raise ValueError("no slots logged")
        return {
            "slots": n,
            "mean_reward": self._sum_reward / n,
            "mean_gain": self._sum_gain / n,
            "mean_power": self._sum_cost_os / n,
            "mean_rd_cost": self._sum_cost_app / n,
            "mean_arrivals": self._sum_arrivals / n,
            "total_overflow": int(self._sum_overflow),
            "overflow_rate": self._sum_overflow / n,
        }


def weighted_estimation_error(
    reference: np.ndarray, values: np.ndarray, weights: np.ndarray
) -> float:
    """Sum over states of weight * |reference - values| / |reference|.

    States with zero weight are ignored; a zero reference value at a
    positively weighted state raises UndefinedStateError naming the states.
    """
    reference = np.asarray(reference, dtype=float)
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not values.shape == reference.shape == weights.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape}, values {values.shape}, "
            f"weights {weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    active = weights > 0
    offenders = np.flatnonzero(active & (reference == 0.0))
    if offenders.size:
        raise UndefinedStateError(offenders)
    rel = np.abs((reference[active] - values[active]) / reference[active])
    return float(np.sum(weights[active] * rel))


def error_curve(
    checkpoints: list[tuple[int, np.ndarray]],
    reference: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted estimation error at each checkpoint; returns (slots, errors)."""
    slots = np.array([slot for slot, _ in checkpoints], dtype=np.int64)
    errors = np.array(
        [weighted_estimation_error(reference, v, weights) for _, v in checkpoints]
    )
    return slots, errors
