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
from dataclasses import MISSING, dataclass
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
from .mdp import (
    ConfigError, FactoredModel, LearningSchedule, check_value, ruled, stationary_distribution, validate,
    value_iteration,
)
from .metrics import RunStats, error_curve
from .svgplot import line_chart
from .system import Simulator, SystemConfig, assemble_factored_model
from .traces import (
    NonstationarySource,
    ReplaySource,
    StationarySource,
    UnknownLabelError,
    default_generator_params,
    empirical_arrival_distribution,
    load_csv,
    synth_columns,
)

# Unused by the oracle; kept as module names that perfbench/tracing.py patches.
from .system import assemble_transition_model  # noqa: F401
from .traces import synth_stationary  # noqa: F401

logger = logging.getLogger("layerq")


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
    return RunSpec(horizon=value).horizon


@dataclass(frozen=True)
class SegmentSpec:
    """One stationary stretch of a non-stationary trace, as scale factors
    applied to the default synthetic workload."""

    duration: int = ruled(MISSING, int, "[1, inf)")
    cycles_scale: float = ruled(1.0, float, "(0, inf)")
    bits_scale: float = ruled(1.0, float, "(0, inf)")
    distortion_scale: float = ruled(1.0, float, "(0, inf)")

    def __post_init__(self):
        validate(self, "trace.segments")


@dataclass(frozen=True)
class TraceSpec:
    kind: str = ruled("synthetic", str, choices=TRACE_KINDS)
    path: str | None = ruled(None, str, null=True)
    cycles_scale: float = ruled(1.0, float, "(0, inf)")
    bits_scale: float = ruled(1.0, float, "(0, inf)")
    distortion_scale: float = ruled(1.0, float, "(0, inf)")
    segments: tuple[SegmentSpec, ...] = ruled((), SegmentSpec, depth=1, empty=True)

    def __post_init__(self):
        validate(self, "trace")
        if self.kind == "csv" and not self.path:
            raise ConfigError("trace.path: required when trace.kind is 'csv'")
        if self.kind == "nonstationary" and not self.segments:
            raise ConfigError("trace.segments: required when trace.kind is 'nonstationary'")

    def params(self):
        """The default generator params scaled by the trace's factors, and per
        segment (duration, those params scaled again by the segment's)."""
        base = default_generator_params().scaled(
            self.cycles_scale, self.bits_scale, self.distortion_scale
        )
        return base, [
            (seg.duration, base.scaled(seg.cycles_scale, seg.bits_scale, seg.distortion_scale))
            for seg in self.segments
        ]

    def base_params(self):
        """Generator params for the stationary regime (first segment when
        non-stationary); the oracle is estimated against these."""
        base, segments = self.params()
        return segments[0][1] if self.kind == "nonstationary" else base


# Cap on the mean arrivals per slot at the lowest frequency that a trace or
# segment scale may give. The arrival pmf keeps a bin per count, so the
# oracle's memory and time grow with the arrivals (the default's heaviest cell
# means about 18); at the cap, any practical buffer overflows nearly every slot.
MAX_MEAN_ARRIVALS = 1000.0

# Cap on the bytes of the oracle's buffer factors, 8*nf*nz*nh*(capacity+1)**2:
# its largest array, 0.94 MB at the default capacity of 50. The oracle's peak
# memory is about 1.6 times the factors' size, and value iteration reads all
# of them every sweep; at 231 MB (capacity 800) compute_oracle took 52 s and
# peaked at 373 MB on a 2-core x86-64 machine. A capacity of 5000 would ask
# for 9 GB.
MAX_MODEL_BYTES = 256e6


def _check_generator(params, cfg: ExperimentConfig, section: str) -> None:
    """A ConfigError naming the scale of `section` ("trace.segments[1]", say)
    that makes a mean or sd of `params` non-finite, their mean arrivals per
    slot at the lowest frequency exceed MAX_MEAN_ARRIVALS, or the run's summed
    rate-distortion cost overflow a float."""
    system = cfg.system
    cells = [cell for row in params.per_type.values() for cell in row]
    for name, moments in (
        ("cycles_scale", [c.cycles_mean for c in cells]),
        ("bits_scale", [m for c in cells for m in (c.bits_mean, c.bits_sd)]),
        ("distortion_scale", [m for c in cells for m in (c.distortion_mean, c.distortion_sd)]),
    ):
        if not np.isfinite(moments).all():
            raise ConfigError(f"{section}.{name}: the scaled generator's means and sds must be finite")
    arrivals = max(c.cycles_mean for c in cells) / system.frequencies[0] * system.arrival_rate
    if arrivals > MAX_MEAN_ARRIVALS:
        raise ConfigError(
            f"{section}.cycles_scale: {arrivals:.4g} mean arrivals per slot at the lowest frequency "
            f"(with system.arrival_rate {system.arrival_rate:g}), above the cap of {MAX_MEAN_ARRIVALS:g}"
        )
    # The heaviest cell's distortion and rd_lambda * bits, each at mean + 6 sd, bound a slot's cost.
    distortion, bits = max(
        ((c.distortion_mean + 6 * c.distortion_sd, system.rd_lambda * (c.bits_mean + 6 * c.bits_sd))
         for c in cells),
        key=sum,
    )
    total = system.rd_weight * (distortion + bits) * cfg.run.horizon
    if total > np.finfo(float).max:
        raise ConfigError(
            f"{section}.{'distortion_scale' if distortion >= bits else 'bits_scale'}: must keep "
            "rd_weight * the heaviest cell's rate-distortion cost * run.horizon finite, got "
            f"{total:.4g} over {cfg.run.horizon} slots"
        )


@dataclass(frozen=True)
class LearnerSpec:
    """The learner section. Its schedule fields (gamma through alpha_exponent)
    are checked by LearningSchedule's rules, through schedule()."""

    algorithm: str = ruled("centralized", str, choices=ALGORITHMS)
    gamma: float = 0.9
    epsilon: float = 0.1
    epsilon_rule: str = "constant"
    alpha_rule: str = "visit-decay"
    alpha: float = 0.1
    alpha_exponent: float = 0.6
    psi: int = ruled(15, int, "[0, inf)")
    lam: float = ruled(0.8, float, "[0, 1]")
    window_len: int = ruled(32, int, "[1, inf)")
    smoothing: float = ruled(0.9, float, "[0, 1)")

    def __post_init__(self):
        validate(self, "learner")
        self.schedule()

    def schedule(self) -> LearningSchedule:
        fields = dataclasses.fields(LearningSchedule)
        return LearningSchedule(**{f.name: getattr(self, f.name) for f in fields})


@dataclass(frozen=True)
class RunSpec:
    horizon: int = ruled(20_000, int, "[1, inf)", presets=HORIZON_PRESETS)
    seeds: tuple[int, ...] = ruled((1, 2, 3, 4, 5), int, "[0, inf)", depth=1, distinct=True)
    checkpoint_interval: int = ruled(500, int, "[1, inf)")

    def __post_init__(self):
        validate(self, "run")


@dataclass(frozen=True)
class OracleSpec:
    enabled: bool = ruled(True, bool)
    vi_tol: float = ruled(1e-8, float, "(0, inf)")
    stationary_tol: float = ruled(1e-10, float, "(0, inf)")
    estimation_units: int = ruled(120_000, int, "[1, inf)")
    estimation_seed: int = ruled(777, int, "[0, inf)")

    def __post_init__(self):
        validate(self, "oracle")


@dataclass(frozen=True)
class OutputSpec:
    dir: str = ruled("out", str)
    per_slot: bool = ruled(True, bool)

    def __post_init__(self):
        validate(self, "outputs")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = ruled("", str)
    system: SystemConfig = ruled(SystemConfig, SystemConfig)
    trace: TraceSpec = ruled(TraceSpec, TraceSpec)
    learner: LearnerSpec = ruled(LearnerSpec, LearnerSpec)
    run: RunSpec = ruled(RunSpec, RunSpec)
    oracle: OracleSpec = ruled(OracleSpec, OracleSpec)
    outputs: OutputSpec = ruled(OutputSpec, OutputSpec)

    def __post_init__(self):
        validate(self, "")
        system = self.system
        if self.oracle.enabled:
            cells = len(system.frequencies) * len(system.unit_types) * len(system.configs)
            size = 8 * cells * (system.capacity + 1) ** 2
            if size > MAX_MODEL_BYTES:
                raise ConfigError(
                    f"system.capacity: must keep the oracle's buffer factors within {MAX_MODEL_BYTES:.4g} "
                    f"bytes, got {system.capacity} ({size:.4g} bytes); or set oracle.enabled: false"
                )
        if self.trace.kind == "csv":  # the file's units, not the generator, are the workload
            return
        base, segments = self.trace.params()
        _check_generator(base, self, "trace")
        for i, (_, params) in enumerate(segments):
            _check_generator(params, self, f"trace.segments[{i}]")

    @property
    def label(self) -> str:
        return self.name or self.learner.algorithm


def _build_section(cls, data, section: str):
    """cls from the mapping `data` of a config file's `section` ("" for the
    root). A nested section or list of sections is built first, and each given
    field is checked by its rule here, where a segment's name holds its index."""
    where = section or "config root"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    rules = {f.name: f.metadata.get("rule") for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(rules))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {unknown}; known fields are {sorted(rules)}")
    values = {}
    for name, value in data.items():
        rule, path = rules[name], f"{section}.{name}" if section else name
        if rule is not None and dataclasses.is_dataclass(rule.kind):
            if not rule.depth:
                value = _build_section(rule.kind, value, path)
            elif isinstance(value, list):
                value = [_build_section(rule.kind, item, f"{path}[{i}]") for i, item in enumerate(value)]
        values[name] = value if rule is None else check_value(rule, path, value)
    return cls(**values)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build_section(ExperimentConfig, data, "")


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

    return plain(cfg)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)


def _load_trace(cfg: ExperimentConfig) -> list:
    """The csv trace of cfg; a type label outside system.unit_types is a config error."""
    try:
        return load_csv(cfg.trace.path, cfg.system.unit_types)
    except UnknownLabelError as exc:
        raise ConfigError(f"trace.path: {cfg.trace.path}: {exc} (system.unit_types)") from None


def make_source(cfg: ExperimentConfig, rng: np.random.Generator):
    trace = cfg.trace
    unit_types = cfg.system.unit_types
    if trace.kind == "csv":
        return ReplaySource(_load_trace(cfg), unit_types)
    base, segments = trace.params()
    if trace.kind == "synthetic":
        return StationarySource(base, unit_types, rng)
    return NonstationarySource(segments, unit_types, rng)


# Draws per chunk of the estimation trace's type walk.
TYPE_WALK_CHUNK = 4096


def _type_counts(system: SystemConfig, n: int, rng: np.random.Generator) -> list[int]:
    """Units of each type in n steps of the unit-type chain from type 0: the
    estimation trace's type mix, in which every type the chain reaches gets
    observations. The next type follows the Simulator.slot rule: the first
    whose cumulative probability exceeds the draw, clamped to the last type.
    The walk is never held; its uniforms come in chunks, and successive
    rng.random(k) calls give the same stream as one rng.random(n).
    """
    cum = np.cumsum(system.type_matrix(), axis=1)
    last = len(system.unit_types) - 1
    counts = [0] * len(system.unit_types)
    z = 0
    for start in range(0, n, TYPE_WALK_CHUNK):
        draws = rng.random(min(TYPE_WALK_CHUNK, n - start))
        # next_of[z][i]: the type after z under draw i
        next_of = [np.minimum(np.searchsorted(row, draws, side="right"), last).tolist() for row in cum]
        for i in range(len(draws)):
            counts[z] += 1
            z = next_of[z][i]
    return counts


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

    For csv traces the file itself is the estimation trace. Synthetic traces
    are streamed: a fresh type-chain walk only counts each type's units, then
    each type's columns are drawn from the stationary generator params (first
    segment when non-stationary) and reduced into the dynamics before the next
    type is drawn, so neither the walk nor the whole trace is ever held.
    """
    system = cfg.system
    spec = cfg.oracle
    if cfg.trace.kind == "csv":
        trace = _load_trace(cfg)
        n_units = len(trace)
    else:
        rng = np.random.default_rng(spec.estimation_seed)
        n_units = spec.estimation_units
        counts = _type_counts(system, n_units, rng)
        trace = synth_columns(cfg.trace.base_params(), system.unit_types, counts, rng)
    logger.info("oracle: estimating dynamics from %d units", n_units)
    dynamics = empirical_arrival_distribution(trace, system, min_samples=min(10_000, n_units))
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
        return GraceController(system, window_len=spec.window_len, smoothing=spec.smoothing)
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
        stats.log_slot(sim, learner.step(sim))
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


def _error_curve(result: RunResult, oracle: OracleResult | None):
    """The run's (slots, errors) against the oracle; None without the oracle
    or without checkpoints."""
    if oracle is None or not result.stats.checkpoints:
        return None
    return error_curve(result.stats.checkpoints, oracle.values, oracle.weights)


def _summary_row(cfg: ExperimentConfig, result: RunResult, curve) -> list:
    """The summary row of a run whose error curve is `curve` (see _error_curve)."""
    s = result.summary()
    final_error = "" if curve is None else float(curve[1][-1])
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
        len(result.learner.message_labels),
        final_error,
    ]


def write_summary_csv(path, rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


SLOT_COLUMNS = ("n", "f", "z", "q", "u", "h", "arrivals", "overflow", "reward", "gain", "j1", "j2", "delta")


def _write_columns(path, header, columns) -> None:
    """A CSV with one row per index of `columns` (equal-length sequences of
    Python ints and floats), byte for byte what csv.writer writes for them:
    ints as str, floats as their shortest repr, none quoted, CRLF line ends."""
    row_format = ",".join(["{}"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row_format.format, *columns))


def write_slots_csv(path, stats: RunStats) -> None:
    n = stats.slots
    columns = (
        stats.freq, stats.unit_type, stats.occupancy, stats.command, stats.config, stats.arrivals,
        stats.overflow, stats.reward, stats.gain, stats.cost_os, stats.cost_app, stats.delta,
    )
    _write_columns(path, SLOT_COLUMNS, (range(n), *(c[:n].tolist() for c in columns)))


def write_oracle_csv(oracle: OracleResult, system: SystemConfig, out_dir) -> list[str]:
    """Emit policy, values, and stationary weights as CSVs."""
    out = Path(out_dir)
    states = np.arange(len(oracle.policy))
    fi, zi, q = system.state_space().components(states)
    u, h = np.divmod(oracle.policy, len(system.configs))
    files = []
    for name, header, columns in (
        ("policy.csv", ("s", "f", "z", "q", "u", "h"), (states, fi, zi, q, u, h)),
        ("values.csv", ("s", "value"), (states, oracle.values)),
        ("weights.csv", ("s", "weight"), (states, oracle.weights)),
    ):
        path = out / name
        _write_columns(path, header, [c.tolist() for c in columns])
        files.append(str(path))
    return files


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    oracle: OracleResult | None
    runs: list[RunResult]
    out_dir: str
    files: list[str]


def _cached_oracle(cfg: ExperimentConfig, cache: dict) -> OracleResult | None:
    """The oracle a run uses, None when disabled (make_learner rejects an
    algorithm that needs it). One oracle is computed per distinct (gamma,
    oracle settings) pair in `cache`."""
    if not cfg.oracle.enabled:
        return None
    key = (cfg.learner.gamma, cfg.oracle)
    if key not in cache:
        cache[key] = compute_oracle(cfg)
    return cache[key]


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Execute one run per seed and write all artifacts under out_dir."""
    out = Path(out_dir if out_dir is not None else cfg.outputs.dir)
    out.mkdir(parents=True, exist_ok=True)
    oracle = _cached_oracle(cfg, {})
    runs = [run_single(cfg, seed, oracle) for seed in cfg.run.seeds]
    error_curves = [_error_curve(r, oracle) for r in runs]

    files = []
    path = out / "config.yaml"
    save_config(cfg, path)
    files.append(str(path))

    path = out / "summary.csv"
    write_summary_csv(path, [_summary_row(cfg, r, c) for r, c in zip(runs, error_curves)])
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
    error_series = [(f"seed {r.seed}", *c) for r, c in zip(runs, error_curves) if c is not None]
    files += _write_charts(out, reward_series, error_series, prefix=f"{cfg.label}: ")
    return ExperimentResult(cfg, oracle, runs, str(out), files)


def _write_charts(out: Path, reward_series, error_series, prefix="", suffix="") -> list[str]:
    """reward.svg, and error.svg when there are error curves, each titled
    prefix + what it shows + suffix; returns their paths."""
    files = []
    for name, series, what, y_label in (
        ("reward.svg", reward_series, "cumulative average reward", "average reward"),
        ("error.svg", error_series, "weighted estimation error", "weighted error"),
    ):
        if series:
            path = out / name
            line_chart(series, str(path), title=prefix + what + suffix, x_label="slot", y_label=y_label)
            files.append(str(path))
    return files


def _require_shared_settings(configs: list[ExperimentConfig]) -> None:
    base = configs[0]
    for cfg in configs[1:]:
        if cfg.system != base.system or cfg.trace != base.trace:
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
        oracle = _cached_oracle(cfg, oracle_cache)
        runs = [run_single(cfg, seed, oracle) for seed in cfg.run.seeds]
        error_curves = [_error_curve(r, oracle) for r in runs]
        results.append(ExperimentResult(cfg, oracle, runs, str(out), []))
        for r, curve in zip(runs, error_curves):
            row = _summary_row(cfg, r, curve)
            row[0] = label
            all_rows.append(row)

        curves = np.stack([r.stats.cumulative_mean_reward() for r in runs])
        reward_series.append((label, np.arange(1, curves.shape[1] + 1), curves.mean(axis=0)))
        if all(c is not None for c in error_curves):
            errors = np.stack([e for _, e in error_curves]).mean(axis=0)
            error_series.append((label, error_curves[0][0], errors))

    path = out / "comparison.csv"
    write_summary_csv(path, all_rows)
    files = [str(path), *_write_charts(out, reward_series, error_series, suffix=" (mean over seeds)")]
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
