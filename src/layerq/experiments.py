"""Batch experiment harness.

A YAML config file describes one experiment: the system parameters, the trace
source, the learning algorithm and its hyperparameters, the run shape
(horizon, seeds, checkpoints), and the oracle settings. run_experiment
executes one run per seed and writes artifacts (resolved-config echo, summary
CSV, per-slot CSVs, SVG curves); compare_experiments overlays several
experiments that share system and trace settings; compute_oracle estimates
the factored transition model from a trace and solves it by value iteration.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .learners import (
    BestResponseLearner,
    CentralizedQLearner,
    FixedPolicyController,
    GraceController,
    LayeredQLearner,
    TdLambdaLearner,
    VirtualExperienceLearner,
)
from .mdp import FactoredModel, LearningSchedule, stationary_distribution, value_iteration
from .metrics import RunStats, error_curve
from .svgplot import line_chart
from .system import Simulator, SystemConfig, assemble_factored_model
from .traces import (
    NonstationarySource,
    ReplaySource,
    StationarySource,
    default_generator_params,
    empirical_arrival_distribution,
    load_csv,
    synth_columns,
)

# Unused by the oracle; kept as module names that perfbench/tracing.py patches.
from .system import assemble_transition_model  # noqa: F401
from .traces import synth_stationary  # noqa: F401

logger = logging.getLogger("layerq")


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration; names the field."""


class ComparisonError(ValueError):
    """Experiments under comparison do not share system/trace settings."""


ALGORITHMS = (
    "centralized",
    "layered",
    "best-response-app",
    "best-response-os",
    "virtual-et",
    "td-lambda",
    "grace",
    "oracle-greedy",
)

HORIZON_PRESETS = {"short": 20_000, "medium": 64_000, "long": 192_000}

TRACE_KINDS = ("synthetic", "csv", "nonstationary")


def resolve_horizon(value) -> int:
    """Accept a preset name or a positive slot count."""
    if isinstance(value, str):
        if value not in HORIZON_PRESETS:
            raise ConfigError(
                f"run.horizon: unknown preset {value!r}; presets are {sorted(HORIZON_PRESETS)}"
            )
        return HORIZON_PRESETS[value]
    try:
        horizon = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"run.horizon: expected an integer or preset, got {value!r}") from None
    if horizon < 1:
        raise ConfigError("run.horizon: must be >= 1")
    return horizon


@dataclass(frozen=True)
class SegmentSpec:
    """One stationary stretch of a non-stationary trace, as scale factors
    applied to the default synthetic workload."""

    duration: int
    cycles_scale: float = 1.0
    bits_scale: float = 1.0
    distortion_scale: float = 1.0

    def __post_init__(self):
        if self.duration < 1:
            raise ConfigError("trace.segments: duration must be >= 1")
        if min(self.cycles_scale, self.bits_scale, self.distortion_scale) <= 0:
            raise ConfigError("trace.segments: scale factors must be positive")


@dataclass(frozen=True)
class TraceSpec:
    kind: str = "synthetic"
    path: str | None = None
    cycles_scale: float = 1.0
    bits_scale: float = 1.0
    distortion_scale: float = 1.0
    segments: tuple[SegmentSpec, ...] = ()

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise ConfigError(f"trace.kind: {self.kind!r} not in {TRACE_KINDS}")
        if self.kind == "csv" and not self.path:
            raise ConfigError("trace.path: required when trace.kind is 'csv'")
        if self.kind == "nonstationary" and not self.segments:
            raise ConfigError("trace.segments: required when trace.kind is 'nonstationary'")
        if min(self.cycles_scale, self.bits_scale, self.distortion_scale) <= 0:
            raise ConfigError("trace scale factors must be positive")

    def base_params(self):
        """Generator params for the stationary regime (first segment when
        non-stationary); the oracle is estimated against these."""
        params = default_generator_params().scaled(
            self.cycles_scale, self.bits_scale, self.distortion_scale
        )
        if self.kind == "nonstationary":
            seg = self.segments[0]
            return params.scaled(seg.cycles_scale, seg.bits_scale, seg.distortion_scale)
        return params


@dataclass(frozen=True)
class LearnerSpec:
    algorithm: str = "centralized"
    gamma: float = 0.9
    epsilon: float = 0.1
    epsilon_rule: str = "constant"
    alpha_rule: str = "visit-decay"
    alpha: float = 0.1
    alpha_exponent: float = 0.6
    psi: int = 15
    lam: float = 0.8
    window_len: int = 32
    smoothing: float = 0.9

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"learner.algorithm: {self.algorithm!r} not in {ALGORITHMS}")
        if self.psi < 0:
            raise ConfigError("learner.psi: must be >= 0")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("learner.lam: must be in [0, 1]")
        self.schedule()  # fail at load time on a bad schedule

    def schedule(self) -> LearningSchedule:
        try:
            return LearningSchedule(
                gamma=self.gamma,
                epsilon=self.epsilon,
                epsilon_rule=self.epsilon_rule,
                alpha_rule=self.alpha_rule,
                alpha=self.alpha,
                alpha_exponent=self.alpha_exponent,
            )
        except ValueError as exc:
            raise ConfigError(f"learner: {exc}") from None


@dataclass(frozen=True)
class RunSpec:
    horizon: int = 20_000
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    checkpoint_interval: int = 500

    def __post_init__(self):
        object.__setattr__(self, "horizon", resolve_horizon(self.horizon))
        try:
            seeds = tuple(int(s) for s in self.seeds)
        except (TypeError, ValueError):
            raise ConfigError(f"run.seeds: expected integers, got {self.seeds!r}") from None
        if not seeds:
            raise ConfigError("run.seeds: need at least one seed")
        seen = set()
        for seed in seeds:
            if seed in seen:
                raise ConfigError(f"run.seeds: duplicate seed {seed}")
            seen.add(seed)
        object.__setattr__(self, "seeds", seeds)
        if self.checkpoint_interval < 1:
            raise ConfigError("run.checkpoint_interval: must be >= 1")


@dataclass(frozen=True)
class OracleSpec:
    enabled: bool = True
    vi_tol: float = 1e-8
    stationary_tol: float = 1e-10
    estimation_units: int = 120_000
    estimation_seed: int = 777

    def __post_init__(self):
        if self.vi_tol <= 0 or self.stationary_tol <= 0:
            raise ConfigError("oracle tolerances must be positive")
        if self.estimation_units < 1:
            raise ConfigError("oracle.estimation_units: must be >= 1")


@dataclass(frozen=True)
class OutputSpec:
    dir: str = "out"
    per_slot: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = ""
    system: SystemConfig = field(default_factory=SystemConfig)
    trace: TraceSpec = field(default_factory=TraceSpec)
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    run: RunSpec = field(default_factory=RunSpec)
    oracle: OracleSpec = field(default_factory=OracleSpec)
    outputs: OutputSpec = field(default_factory=OutputSpec)

    @property
    def label(self) -> str:
        return self.name or self.learner.algorithm


def _build_section(cls, data: dict, section: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{section}: unknown field(s) {unknown}; known fields are {sorted(known)}")
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root: expected a mapping, got {type(data).__name__}")
    known = {"name", "system", "trace", "learner", "run", "oracle", "outputs"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"config root: unknown section(s) {unknown}; known are {sorted(known)}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ConfigError("name: expected a string")
    trace_data = dict(data.get("trace", {})) if isinstance(data.get("trace", {}), dict) else data.get("trace")
    if not isinstance(trace_data, dict):
        raise ConfigError("trace: expected a mapping")
    segments = trace_data.pop("segments", ())
    if segments and not isinstance(segments, (list, tuple)):
        raise ConfigError("trace.segments: expected a list")
    seg_specs = tuple(
        _build_section(SegmentSpec, seg, f"trace.segments[{i}]") for i, seg in enumerate(segments)
    )
    trace = _build_section(TraceSpec, {**trace_data, "segments": seg_specs}, "trace")
    return ExperimentConfig(
        name=name,
        system=_build_section(SystemConfig, data.get("system", {}), "system"),
        trace=trace,
        learner=_build_section(LearnerSpec, data.get("learner", {}), "learner"),
        run=_build_section(RunSpec, data.get("run", {}), "run"),
        oracle=_build_section(OracleSpec, data.get("oracle", {}), "oracle"),
        outputs=_build_section(OutputSpec, data.get("outputs", {}), "outputs"),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from None
    if data is None:
        data = {}
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved echo: defaults filled in, presets resolved."""

    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return value

    return {
        "name": cfg.name,
        "system": plain(cfg.system),
        "trace": plain(cfg.trace),
        "learner": plain(cfg.learner),
        "run": plain(cfg.run),
        "oracle": plain(cfg.oracle),
        "outputs": plain(cfg.outputs),
    }


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)


def make_source(cfg: ExperimentConfig, rng: np.random.Generator):
    trace = cfg.trace
    unit_types = cfg.system.unit_types
    if trace.kind == "csv":
        return ReplaySource(load_csv(trace.path), unit_types)
    base = default_generator_params().scaled(
        trace.cycles_scale, trace.bits_scale, trace.distortion_scale
    )
    if trace.kind == "synthetic":
        return StationarySource(base, unit_types, rng)
    segments = [
        (seg.duration, base.scaled(seg.cycles_scale, seg.bits_scale, seg.distortion_scale))
        for seg in trace.segments
    ]
    return NonstationarySource(segments, unit_types, rng)


def _type_walk(system: SystemConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Type indices of the unit-type Markov chain over n steps from type 0
    (used for estimation traces, so every type that the chain reaches gets
    observations).

    Uses the Simulator.slot rule: the next type is the first whose cumulative
    probability exceeds the draw, clamped to the last type.
    """
    cum = np.cumsum(system.type_matrix(), axis=1)
    draws = rng.random(n)
    last = len(system.unit_types) - 1
    # next_of[z][i]: the type after z under draw i
    next_of = [np.minimum(np.searchsorted(row, draws, side="right"), last).tolist() for row in cum]
    walk = [0] * n
    z = 0
    for i in range(n):
        walk[i] = z
        z = next_of[z][i]
    return np.array(walk, dtype=np.intp)


@dataclass
class OracleResult:
    """Estimated model and its exact solution."""

    dynamics: object
    model: FactoredModel
    q_star: np.ndarray
    policy: np.ndarray
    values: np.ndarray
    weights: np.ndarray


def compute_oracle(cfg: ExperimentConfig) -> OracleResult:
    """Estimation trace -> empirical dynamics -> factored model -> value
    iteration -> stationary distribution of the optimal policy.

    For csv traces the file itself is the estimation trace; synthetic traces
    are drawn as columns from the stationary generator params (first segment
    when non-stationary) over a fresh type-chain walk.
    """
    system = cfg.system
    spec = cfg.oracle
    if cfg.trace.kind == "csv":
        trace = load_csv(cfg.trace.path)
    else:
        rng = np.random.default_rng(spec.estimation_seed)
        walk = _type_walk(system, spec.estimation_units, rng)
        trace = synth_columns(cfg.trace.base_params(), system.unit_types, walk, rng)
    logger.info("oracle: estimating dynamics from %d units", len(trace))
    dynamics = empirical_arrival_distribution(
        trace, system, min_samples=min(10_000, len(trace))
    )
    model = assemble_factored_model(system, dynamics)
    logger.info("oracle: value iteration (gamma=%g, tol=%g)", cfg.learner.gamma, spec.vi_tol)
    q_star, policy, values = value_iteration(model, cfg.learner.gamma, tol=spec.vi_tol)
    weights = stationary_distribution(model, policy, tol=spec.stationary_tol)
    return OracleResult(dynamics, model, q_star, policy, values, weights)


def make_learner(cfg: ExperimentConfig, rng: np.random.Generator, oracle: OracleResult | None):
    system = cfg.system
    spec = cfg.learner
    schedule = spec.schedule()
    alg = spec.algorithm
    if alg == "centralized":
        return CentralizedQLearner(system, schedule, rng)
    if alg == "layered":
        return LayeredQLearner(system, schedule, rng)
    if alg == "virtual-et":
        return VirtualExperienceLearner(system, schedule, rng, psi=spec.psi)
    if alg == "td-lambda":
        return TdLambdaLearner(system, schedule, rng, lam=spec.lam, psi=spec.psi)
    if alg == "grace":
        return GraceController(system, rng, window_len=spec.window_len, smoothing=spec.smoothing)
    if oracle is None:
        raise ConfigError(f"learner.algorithm: {alg!r} needs the oracle; set oracle.enabled: true")
    n_configs = len(system.configs)
    if alg == "oracle-greedy":
        return FixedPolicyController(system, oracle.policy, oracle.values)
    if alg == "best-response-app":
        return BestResponseLearner(system, schedule, rng, "app", oracle.policy // n_configs)
    if alg == "best-response-os":
        return BestResponseLearner(system, schedule, rng, "os", oracle.policy % n_configs)
    raise ConfigError(f"learner.algorithm: unhandled algorithm {alg!r}")


@dataclass
class RunResult:
    seed: int
    stats: RunStats
    learner: object

    def summary(self) -> dict:
        return self.stats.summary()


def run_single(cfg: ExperimentConfig, seed: int, oracle: OracleResult | None = None) -> RunResult:
    """One seeded run: a fresh rng drives the trace source, the simulator, and
    the learner, so the whole trajectory is a function of (config, seed)."""
    rng = np.random.default_rng(seed)
    source = make_source(cfg, rng)
    sim = Simulator(cfg.system, source, rng)
    learner = make_learner(cfg, rng, oracle)
    stats = RunStats(cfg.run.horizon, cfg.run.checkpoint_interval)
    for _ in range(cfg.run.horizon):
        stats.log_slot(learner.step(sim))
        stats.maybe_checkpoint(learner)
    logger.info(
        "run %s seed %d: mean reward %.4f, %d overflows",
        cfg.label,
        seed,
        stats.mean_reward,
        stats.total_overflow,
    )
    return RunResult(seed=seed, stats=stats, learner=learner)


SUMMARY_COLUMNS = (
    "name",
    "algorithm",
    "seed",
    "slots",
    "mean_reward",
    "mean_gain",
    "mean_power",
    "mean_rd_cost",
    "mean_arrivals",
    "total_overflow",
    "overflow_rate",
    "messages_per_slot",
    "final_weighted_error",
)


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _summary_row(cfg: ExperimentConfig, result: RunResult, oracle: OracleResult | None) -> list:
    s = result.summary()
    final_error = ""
    if oracle is not None and result.stats.checkpoints:
        _, errors = error_curve(result.stats.checkpoints, oracle.values, oracle.weights)
        final_error = float(errors[-1])
    return [
        cfg.label,
        cfg.learner.algorithm,
        result.seed,
        s["slots"],
        s["mean_reward"],
        s["mean_gain"],
        s["mean_power"],
        s["mean_rd_cost"],
        s["mean_arrivals"],
        s["total_overflow"],
        s["overflow_rate"],
        result.learner.message_log.per_slot,
        final_error,
    ]


def write_summary_csv(path, rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


SLOT_COLUMNS = ("n", "f", "z", "q", "u", "h", "arrivals", "overflow", "reward", "gain", "j1", "j2", "delta")


def write_slots_csv(path, stats: RunStats) -> None:
    n = stats.slots
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SLOT_COLUMNS)
        for i in range(n):
            writer.writerow(
                [
                    i,
                    stats.freq[i],
                    stats.unit_type[i],
                    stats.occupancy[i],
                    stats.command[i],
                    stats.config[i],
                    stats.arrivals[i],
                    stats.overflow[i],
                    repr(float(stats.reward[i])),
                    repr(float(stats.gain[i])),
                    repr(float(stats.cost_os[i])),
                    repr(float(stats.cost_app[i])),
                    repr(float(stats.delta[i])),
                ]
            )


def write_oracle_csv(oracle: OracleResult, system: SystemConfig, out_dir) -> list[str]:
    """Emit policy, values, and stationary weights as CSVs."""
    out = Path(out_dir)
    n_types = len(system.unit_types)
    n_levels = system.capacity + 1
    n_configs = len(system.configs)
    files = []
    path = out / "policy.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("s", "f", "z", "q", "u", "h"))
        for s in range(len(oracle.policy)):
            fi, rest = divmod(s, n_types * n_levels)
            zi, q = divmod(rest, n_levels)
            u, h = divmod(int(oracle.policy[s]), n_configs)
            writer.writerow((s, fi, zi, q, u, h))
    files.append(str(path))
    for name, column, vec in (
        ("values.csv", "value", oracle.values),
        ("weights.csv", "weight", oracle.weights),
    ):
        path = out / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("s", column))
            for s, v in enumerate(vec):
                writer.writerow((s, repr(float(v))))
        files.append(str(path))
    return files


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    oracle: OracleResult | None
    runs: list[RunResult]
    out_dir: str
    files: list[str]


def _oracle_if_needed(cfg: ExperimentConfig, cache: dict) -> OracleResult | None:
    """The oracle a run uses: None when disabled, a ConfigError when the
    algorithm needs it but it is disabled. One oracle is computed per
    distinct (gamma, oracle settings) pair in `cache`."""
    if not cfg.oracle.enabled:
        if cfg.learner.algorithm in ("oracle-greedy", "best-response-app", "best-response-os"):
            raise ConfigError(
                f"learner.algorithm: {cfg.learner.algorithm!r} needs the oracle; "
                "set oracle.enabled: true"
            )
        return None
    key = (cfg.learner.gamma, cfg.oracle)
    if key not in cache:
        cache[key] = compute_oracle(cfg)
    return cache[key]


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Execute one run per seed and write all artifacts under out_dir."""
    out = Path(out_dir if out_dir is not None else cfg.outputs.dir)
    out.mkdir(parents=True, exist_ok=True)
    oracle = _oracle_if_needed(cfg, {})
    runs = [run_single(cfg, seed, oracle) for seed in cfg.run.seeds]

    files = []
    path = out / "config.yaml"
    save_config(cfg, path)
    files.append(str(path))

    path = out / "summary.csv"
    write_summary_csv(path, [_summary_row(cfg, r, oracle) for r in runs])
    files.append(str(path))

    if cfg.outputs.per_slot:
        for r in runs:
            path = out / f"slots_seed{r.seed}.csv"
            write_slots_csv(path, r.stats)
            files.append(str(path))

    reward_series = []
    for r in runs:
        curve = r.stats.cumulative_mean_reward()
        reward_series.append((f"seed {r.seed}", np.arange(1, curve.size + 1), curve))
    path = out / "reward.svg"
    line_chart(
        reward_series,
        str(path),
        title=f"{cfg.label}: cumulative average reward",
        x_label="slot",
        y_label="average reward",
    )
    files.append(str(path))

    if oracle is not None:
        error_series = []
        for r in runs:
            if not r.stats.checkpoints:
                continue
            slots, errors = error_curve(r.stats.checkpoints, oracle.values, oracle.weights)
            error_series.append((f"seed {r.seed}", slots, errors))
        if error_series:
            path = out / "error.svg"
            line_chart(
                error_series,
                str(path),
                title=f"{cfg.label}: weighted estimation error",
                x_label="slot",
                y_label="weighted error",
            )
            files.append(str(path))

    return ExperimentResult(cfg, oracle, runs, str(out), files)


def _require_shared_settings(configs: list[ExperimentConfig]) -> None:
    base = configs[0]
    base_sys = config_to_dict(base)["system"]
    base_trace = config_to_dict(base)["trace"]
    for cfg in configs[1:]:
        d = config_to_dict(cfg)
        if d["system"] != base_sys or d["trace"] != base_trace:
            raise ComparisonError(
                f"experiment {cfg.label!r} does not share system/trace settings with "
                f"{base.label!r}; comparisons require a common environment"
            )


def _unique_labels(configs: list[ExperimentConfig]) -> list[str]:
    labels = []
    seen: dict[str, int] = {}
    for cfg in configs:
        label = cfg.label
        count = seen.get(label, 0)
        seen[label] = count + 1
        labels.append(label if count == 0 else f"{label}#{count + 1}")
    return labels


def compare_experiments(configs: list[ExperimentConfig], out_dir) -> list[ExperimentResult]:
    """Run several experiments on a shared environment and overlay the curves.

    Oracles are computed once per distinct (gamma, oracle settings) pair.
    Writes comparison.csv plus overlaid reward and error SVGs.
    """
    if not configs:
        raise ComparisonError("need at least one experiment to compare")
    _require_shared_settings(configs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = _unique_labels(configs)

    oracle_cache: dict[tuple, OracleResult] = {}
    results = []
    all_rows = []
    reward_series = []
    error_series = []
    for label, cfg in zip(labels, configs):
        oracle = _oracle_if_needed(cfg, oracle_cache)
        runs = [run_single(cfg, seed, oracle) for seed in cfg.run.seeds]
        results.append(ExperimentResult(cfg, oracle, runs, str(out), []))
        for r in runs:
            row = _summary_row(cfg, r, oracle)
            row[0] = label
            all_rows.append(row)

        curves = np.stack([r.stats.cumulative_mean_reward() for r in runs])
        reward_series.append((label, np.arange(1, curves.shape[1] + 1), curves.mean(axis=0)))
        if oracle is not None and all(r.stats.checkpoints for r in runs):
            per_seed = [error_curve(r.stats.checkpoints, oracle.values, oracle.weights) for r in runs]
            slots = per_seed[0][0]
            errors = np.stack([e for _, e in per_seed]).mean(axis=0)
            error_series.append((label, slots, errors))

    files = []
    path = out / "comparison.csv"
    write_summary_csv(path, all_rows)
    files.append(str(path))
    path = out / "reward.svg"
    line_chart(
        reward_series,
        str(path),
        title="cumulative average reward (mean over seeds)",
        x_label="slot",
        y_label="average reward",
    )
    files.append(str(path))
    if error_series:
        path = out / "error.svg"
        line_chart(
            error_series,
            str(path),
            title="weighted estimation error (mean over seeds)",
            x_label="slot",
            y_label="weighted error",
        )
        files.append(str(path))
    for res in results:
        res.files = files
    return results


def run_oracle_command(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Compute the oracle and emit policy/values/weights CSVs plus the echo."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    oracle = compute_oracle(cfg)
    files = write_oracle_csv(oracle, cfg.system, out)
    path = out / "config.yaml"
    save_config(cfg, path)
    files.append(str(path))
    return files
