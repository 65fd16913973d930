import csv
import logging

import numpy as np
import pytest
import yaml

import layerq.experiments as experiments
from layerq import (
    BestResponseLearner,
    CentralizedQLearner,
    ComparisonError,
    ConfigError,
    ExperimentConfig,
    FixedPolicyController,
    GraceController,
    LayeredQLearner,
    LearnerSpec,
    NonstationarySource,
    OracleSpec,
    ReplaySource,
    RunSpec,
    SegmentSpec,
    StationarySource,
    SystemConfig,
    TdLambdaLearner,
    TraceSpec,
    VirtualExperienceLearner,
    assemble_transition_model,
    compare_experiments,
    compute_oracle,
    config_from_dict,
    config_to_dict,
    default_generator_params,
    empirical_arrival_distribution,
    load_config,
    make_learner,
    make_source,
    resolve_horizon,
    run_experiment,
    run_oracle_command,
    run_single,
    save_config,
    stationary_distribution,
    synth_stationary,
    value_iteration,
)
from layerq.cli import _parse_horizon, _parse_seeds, _setup_logging, main
from layerq.experiments import OracleResult


def merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out


def quick_cfg(**sections) -> ExperimentConfig:
    """Centralized learner, tiny horizon, no oracle."""
    data = {
        "learner": {"algorithm": "centralized"},
        "run": {"horizon": 10, "seeds": [3], "checkpoint_interval": 5},
        "oracle": {"enabled": False},
    }
    return config_from_dict(merge(data, sections))


def greedy_cfg(**sections) -> ExperimentConfig:
    data = {
        "name": "greedy",
        "learner": {"algorithm": "oracle-greedy"},
        "run": {"horizon": 600, "seeds": [1], "checkpoint_interval": 200},
        "oracle": {"estimation_units": 3000, "vi_tol": 1e-6, "stationary_tol": 1e-8},
        "outputs": {"per_slot": False},
    }
    return config_from_dict(merge(data, sections))


@pytest.fixture(scope="module")
def small_oracle() -> OracleResult:
    return compute_oracle(greedy_cfg())


def test_resolve_horizon():
    assert resolve_horizon("short") == 20_000
    assert resolve_horizon("medium") == 64_000
    assert resolve_horizon("long") == 192_000
    assert resolve_horizon(500) == 500
    for bad in ("bogus", 0, None):
        with pytest.raises(ConfigError):
            resolve_horizon(bad)


def test_defaults_round_trip(tmp_path):
    cfg = config_from_dict({})
    assert cfg.label == "centralized"
    assert cfg.run.horizon == 20_000 and cfg.run.seeds == (1, 2, 3, 4, 5)
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    loaded = load_config(path)
    assert config_to_dict(loaded) == config_to_dict(cfg)
    text = path.read_text()
    assert "horizon: 20000" in text  # echo is fully resolved


def test_preset_resolution_in_run_spec():
    cfg = config_from_dict({"run": {"horizon": "medium"}})
    assert cfg.run.horizon == 64_000
    assert RunSpec(horizon="long").horizon == 192_000


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="config root.*zap"):
        config_from_dict({"zap": {}})
    with pytest.raises(ConfigError, match="system.*bogus"):
        config_from_dict({"system": {"bogus": 1}})
    with pytest.raises(ConfigError, match=r"trace\.segments"):
        config_from_dict(
            {"trace": {"kind": "nonstationary",
                       "segments": [{"duration": 5}, {"duration": 0}]}}
        )
    with pytest.raises(ConfigError, match=r"trace\.segments\[1\].*bogus"):
        config_from_dict(
            {"trace": {"kind": "nonstationary",
                       "segments": [{"duration": 5}, {"duration": 5, "bogus": 1}]}}
        )
    with pytest.raises(ConfigError, match="name"):
        config_from_dict({"name": 7})


def test_spec_validation():
    with pytest.raises(ConfigError):
        LearnerSpec(algorithm="sarsa")
    with pytest.raises(ConfigError):
        LearnerSpec(psi=-1)
    with pytest.raises(ConfigError):
        LearnerSpec(lam=1.5)
    with pytest.raises(ConfigError, match="learner:"):
        LearnerSpec(gamma=1.5).schedule()
    with pytest.raises(ConfigError):
        TraceSpec(kind="mystery")
    with pytest.raises(ConfigError):
        TraceSpec(kind="csv")
    with pytest.raises(ConfigError):
        TraceSpec(kind="nonstationary")
    with pytest.raises(ConfigError):
        TraceSpec(cycles_scale=0.0)
    with pytest.raises(ConfigError):
        RunSpec(seeds=())
    with pytest.raises(ConfigError):
        RunSpec(checkpoint_interval=0)
    with pytest.raises(ConfigError):
        OracleSpec(vi_tol=0.0)
    with pytest.raises(ConfigError):
        SegmentSpec(duration=3, cycles_scale=-1.0)


def test_base_params_uses_first_segment():
    spec = TraceSpec(
        kind="nonstationary",
        cycles_scale=3.0,
        segments=(SegmentSpec(duration=100, cycles_scale=2.0), SegmentSpec(duration=50)),
    )
    expected = default_generator_params().scaled(3.0, 1.0, 1.0).scaled(2.0, 1.0, 1.0)
    assert spec.base_params() == expected
    plain = TraceSpec(cycles_scale=3.0)
    assert plain.base_params() == default_generator_params().scaled(3.0, 1.0, 1.0)


def test_make_source_kinds(tmp_path):
    rng = np.random.default_rng(0)
    assert isinstance(make_source(quick_cfg(), rng), StationarySource)
    ns = quick_cfg(
        trace={"kind": "nonstationary", "segments": [{"duration": 8, "cycles_scale": 1.2}]}
    )
    assert isinstance(make_source(ns, rng), NonstationarySource)
    from layerq import save_csv

    trace = synth_stationary(
        default_generator_params(), ["P", "B", "I"] * 4, np.random.default_rng(1)
    )
    path = tmp_path / "trace.csv"
    save_csv(trace, path)
    cs = quick_cfg(trace={"kind": "csv", "path": str(path)})
    assert isinstance(make_source(cs, rng), ReplaySource)


def test_make_learner_dispatch():
    rng = np.random.default_rng(0)
    fake = OracleResult(
        dynamics=None, model=None, q_star=None,
        policy=np.zeros(765, dtype=np.int64),
        values=np.zeros(765), weights=np.full(765, 1 / 765),
    )
    expect = {
        "centralized": CentralizedQLearner,
        "layered": LayeredQLearner,
        "virtual-et": VirtualExperienceLearner,
        "td-lambda": TdLambdaLearner,
        "grace": GraceController,
        "oracle-greedy": FixedPolicyController,
        "best-response-app": BestResponseLearner,
        "best-response-os": BestResponseLearner,
    }
    for alg, cls in expect.items():
        cfg = config_from_dict({"learner": {"algorithm": alg}})
        assert isinstance(make_learner(cfg, rng, fake), cls)
    for alg in ("oracle-greedy", "best-response-app", "best-response-os"):
        cfg = config_from_dict({"learner": {"algorithm": alg}})
        with pytest.raises(ConfigError, match="oracle"):
            make_learner(cfg, rng, None)
    with pytest.raises(ConfigError, match="learner:"):
        make_learner(config_from_dict({"learner": {"epsilon": 2.0}}), rng, None)


def test_run_single_deterministic():
    cfg = quick_cfg(run={"horizon": 500, "seeds": [1]})
    a = run_single(cfg, 11)
    b = run_single(cfg, 11)
    assert a.stats.mean_reward == b.stats.mean_reward
    assert np.array_equal(a.learner.q, b.learner.q)
    c = run_single(cfg, 12)
    assert c.stats.mean_reward != a.stats.mean_reward


def test_run_experiment_artifacts_without_oracle(tmp_path):
    result = run_experiment(quick_cfg(), str(tmp_path))
    names = sorted(p.split("/")[-1] for p in result.files)
    assert names == ["config.yaml", "reward.svg", "slots_seed3.csv", "summary.csv"]
    with open(tmp_path / "slots_seed3.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 11
    assert rows[0] == list(experiments.SLOT_COLUMNS)
    assert float(rows[1][8]) == pytest.approx(result.runs[0].stats.reward[0])
    with open(tmp_path / "summary.csv") as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) == 1
    assert srows[0]["seed"] == "3"
    assert srows[0]["messages_per_slot"] == "8"
    assert srows[0]["final_weighted_error"] == ""  # no oracle to compare against
    # repr round-trip keeps full float precision
    assert float(srows[0]["mean_reward"]) == result.runs[0].stats.mean_reward


def test_run_experiment_with_oracle(tmp_path, monkeypatch, small_oracle):
    monkeypatch.setattr(experiments, "compute_oracle", lambda cfg: small_oracle)
    result = run_experiment(greedy_cfg(), str(tmp_path))
    names = sorted(p.split("/")[-1] for p in result.files)
    assert names == ["config.yaml", "error.svg", "reward.svg", "summary.csv"]
    with open(tmp_path / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["algorithm"] == "oracle-greedy"
    assert float(row["final_weighted_error"]) >= 0.0
    assert float(row["mean_reward"]) > 0.5  # the solved policy is far above chance
    assert row["messages_per_slot"] == "0"


def test_oracle_policy_is_strong(small_oracle):
    """Greedy play of the estimated-model solution avoids overflow in a
    moderate run; its value function weights sum to one."""
    result = run_single(greedy_cfg(), 1, small_oracle)
    assert result.stats.total_overflow == 0
    assert small_oracle.weights.sum() == pytest.approx(1.0, abs=1e-8)
    assert small_oracle.policy.shape == (765,)


def test_compare_experiments(tmp_path):
    cfgs = [
        quick_cfg(run={"horizon": 300, "seeds": [1, 2]}),
        quick_cfg(learner={"algorithm": "layered"}, run={"horizon": 300, "seeds": [1, 2]}),
    ]
    results = compare_experiments(cfgs, str(tmp_path))
    assert len(results) == 2
    names = sorted(p.split("/")[-1] for p in results[0].files)
    assert names == ["comparison.csv", "reward.svg"]  # no oracle, no error overlay
    with open(tmp_path / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["name"] for r in rows} == {"centralized", "layered"}


def test_compare_label_dedup(tmp_path):
    cfgs = [quick_cfg(name="x"), quick_cfg(name="x")]
    compare_experiments(cfgs, str(tmp_path))
    with open(tmp_path / "comparison.csv") as fh:
        labels = {r["name"] for r in csv.DictReader(fh)}
    assert labels == {"x", "x#2"}


def test_compare_requires_shared_environment(tmp_path):
    cfgs = [quick_cfg(), quick_cfg(trace={"cycles_scale": 2.0})]
    with pytest.raises(ComparisonError, match="share"):
        compare_experiments(cfgs, str(tmp_path))
    with pytest.raises(ComparisonError):
        compare_experiments([], str(tmp_path))


def test_compare_oracle_cache(tmp_path, monkeypatch, small_oracle):
    calls = []

    def counting(cfg):
        calls.append(cfg.label)
        return small_oracle

    monkeypatch.setattr(experiments, "compute_oracle", counting)
    cfgs = [
        greedy_cfg(name="a", run={"horizon": 50, "seeds": [1]}),
        greedy_cfg(name="b", run={"horizon": 50, "seeds": [1]}),
    ]
    compare_experiments(cfgs, str(tmp_path))
    assert len(calls) == 1  # same gamma and oracle settings: solved once


def test_run_oracle_command(tmp_path, monkeypatch, small_oracle):
    monkeypatch.setattr(experiments, "compute_oracle", lambda cfg: small_oracle)
    files = run_oracle_command(greedy_cfg(), str(tmp_path))
    names = sorted(p.split("/")[-1] for p in files)
    assert names == ["config.yaml", "policy.csv", "values.csv", "weights.csv"]
    with open(tmp_path / "policy.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 766
    assert rows[0] == ["s", "f", "z", "q", "u", "h"]
    s, f, z, q, u, h = (int(v) for v in rows[100])
    assert s == 99 and s == (f * 3 + z) * 51 + q
    assert u * 3 + h == int(small_oracle.policy[99])
    with open(tmp_path / "weights.csv") as fh:
        weight_rows = list(csv.DictReader(fh))
    assert sum(float(r["weight"]) for r in weight_rows) == pytest.approx(1.0, abs=1e-8)


def test_oracle_disabled_but_needed(tmp_path):
    cfg = greedy_cfg(oracle={"enabled": False})
    with pytest.raises(ConfigError, match="oracle.enabled"):
        run_experiment(cfg, str(tmp_path))
    with pytest.raises(ConfigError, match="'oracle-greedy' needs the oracle; set oracle.enabled"):
        compare_experiments([quick_cfg(), cfg], str(tmp_path))


def object_estimation(cfg: ExperimentConfig):
    """Estimation through per-unit objects, with a scalar type walk."""
    system = cfg.system
    rng = np.random.default_rng(cfg.oracle.estimation_seed)
    cum = np.cumsum(system.type_matrix(), axis=1)
    draws = rng.random(cfg.oracle.estimation_units)
    labels = []
    z = 0
    for draw in draws:
        labels.append(system.unit_types[z])
        z = int(np.searchsorted(cum[z], draw, side="right"))
    trace = synth_stationary(cfg.trace.base_params(), labels, rng)
    return empirical_arrival_distribution(trace, system, min_samples=10_000)


@pytest.fixture(scope="module")
def default_oracle() -> OracleResult:
    return compute_oracle(config_from_dict({}))


@pytest.mark.parametrize("trace", [
    {},
    {"kind": "nonstationary", "segments": [{"duration": 500, "cycles_scale": 1.2}, {"duration": 500}]},
])
def test_oracle_estimation_matches_object_pipeline(trace, default_oracle):
    """The columnar estimation trace gives the same dynamics, bit for bit."""
    cfg = config_from_dict({"trace": trace})
    dyn = default_oracle.dynamics if not trace else compute_oracle(cfg).dynamics
    ref = object_estimation(cfg)
    assert np.array_equal(dyn.arrival_pmf, ref.arrival_pmf)
    assert np.array_equal(dyn.mean_rd_cost, ref.mean_rd_cost)
    assert np.array_equal(dyn.sample_counts, ref.sample_counts)


def test_oracle_matches_dense_solve(default_oracle):
    """On the default instance the factored solve agrees with dense value
    iteration on the joint tensor: same policy, Q* and V* to 1e-12, the same
    weights bit for bit."""
    gamma = config_from_dict({}).learner.gamma
    joint = default_oracle.model.to_joint()
    q, policy, v = value_iteration(joint, gamma, tol=1e-8)
    assert np.array_equal(policy, default_oracle.policy)
    assert np.abs(q - default_oracle.q_star).max() <= 1e-12
    assert np.abs(v - default_oracle.values).max() <= 1e-12
    assert np.array_equal(stationary_distribution(joint, policy), default_oracle.weights)
    # and against the directly assembled dense model, up to its round-off
    dense = assemble_transition_model(config_from_dict({}).system, default_oracle.dynamics)
    assert np.abs(dense.p - joint.p).max() <= 1e-15
    assert np.abs(stationary_distribution(dense, policy) - default_oracle.weights).max() <= 1e-12


class ScriptedRng:
    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, n):
        assert n == len(self.draws)
        return self.draws


def test_type_walk_follows_simulator_rule():
    system = SystemConfig()
    draws = np.random.default_rng(9).random(2000)
    walk = experiments._type_walk(system, len(draws), ScriptedRng(draws))
    z = 0
    for i, draw in enumerate(draws):
        assert walk[i] == z
        row = np.cumsum(system.type_transition[z])
        z = 0
        while z < len(row) - 1 and draw >= row[z]:
            z += 1


def test_type_walk_clamps_to_last_type():
    # a row that passes validation but sums to 1 - 5e-10
    system = SystemConfig(
        unit_types=("P", "B"), type_transition=((0.5, 0.4999999995), (0.5, 0.5))
    )
    walk = experiments._type_walk(system, 3, ScriptedRng([0.9999999999] * 3))
    assert walk.tolist() == [0, 1, 1]


@pytest.mark.parametrize("field, value", [
    ("arrival_rate", float("nan")),
    ("arrival_rate", float("inf")),
    ("switch_prob", float("nan")),
    ("power_weight", float("nan")),
    ("power_weight", float("-inf")),
    ("rd_weight", float("inf")),
    ("rd_lambda", float("nan")),
    ("frequencies", [2e8, float("inf")]),
    ("frequencies", [float("nan"), 4e8]),
    ("capacity", 50.5),
    ("capacity", float("nan")),
])
def test_bad_system_numbers_are_config_errors(field, value):
    with pytest.raises(ConfigError, match=rf"system: {field} must be"):
        config_from_dict({"system": {field: value}})


def test_integral_float_capacity_is_accepted():
    cfg = config_from_dict({"system": {"capacity": 40.0}})
    assert cfg.system.capacity == 40 and isinstance(cfg.system.capacity, int)


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan")])
def test_bad_alpha_exponent_is_config_error(value):
    with pytest.raises(ConfigError, match="learner: alpha_exponent must be > 0"):
        config_from_dict({"learner": {"alpha_exponent": value}})


def test_duplicate_seeds_are_rejected():
    with pytest.raises(ConfigError, match="run.seeds: duplicate seed 1"):
        config_from_dict({"run": {"seeds": [1, 2, 1]}})
    with pytest.raises(ConfigError, match="run.seeds: duplicate seed 4"):
        RunSpec(seeds=(4, 4))


def write_yaml(tmp_path, name, data) -> str:
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def quick_dict(**sections) -> dict:
    data = {
        "learner": {"algorithm": "centralized"},
        "run": {"horizon": 10, "seeds": [3], "checkpoint_interval": 5},
        "oracle": {"enabled": False},
    }
    return merge(data, sections)


def test_cli_run_success(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path, "a.yaml", quick_dict())
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out)]) == 0
    assert "artifact(s)" in capsys.readouterr().out
    assert (out / "summary.csv").exists()


def test_cli_overrides(tmp_path):
    cfg_path = write_yaml(tmp_path, "a.yaml", quick_dict())
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--seeds", "7", "--horizon", "12", "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["seed"] == "7" and row["slots"] == "12"
    assert not (out / "slots_seed3.csv").exists()


def test_cli_config_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("learner: [unclosed\n")
    assert main(["run", str(bad)]) == 1
    cfg_path = write_yaml(tmp_path, "a.yaml", quick_dict())
    assert main(["run", cfg_path, "--seeds", "x,y"]) == 1
    assert main(["run", cfg_path, "--horizon", "epic"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err


def test_cli_rejects_bad_numbers_and_duplicate_seeds(tmp_path, capsys):
    nan_rate = write_yaml(tmp_path, "nan.yaml", quick_dict(system={"arrival_rate": float("nan")}))
    assert main(["run", nan_rate, "--out", str(tmp_path / "out")]) == 1
    assert "arrival_rate must be finite" in capsys.readouterr().err
    dup = write_yaml(tmp_path, "dup.yaml", quick_dict(run={"seeds": [1, 1]}))
    assert main(["run", dup, "--out", str(tmp_path / "out")]) == 1
    cfg_path = write_yaml(tmp_path, "a.yaml", quick_dict())
    assert main(["run", cfg_path, "--seeds", "2,2", "--out", str(tmp_path / "out")]) == 1
    assert "run.seeds: duplicate seed 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_compare_mismatch(tmp_path):
    a = write_yaml(tmp_path, "a.yaml", quick_dict())
    b = write_yaml(tmp_path, "b.yaml", quick_dict(trace={"cycles_scale": 2.0}))
    assert main(["compare", a, b, "--out", str(tmp_path / "cmp")]) == 1


def test_cli_runtime_error(tmp_path, capsys):
    cfg_path = write_yaml(
        tmp_path, "a.yaml",
        quick_dict(trace={"kind": "csv", "path": str(tmp_path / "ghost.csv")}),
    )
    assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["compare", "a.yaml"])  # --out is required


def test_cli_parsers():
    assert _parse_seeds("1,2,3") == (1, 2, 3)
    assert _parse_seeds("4,") == (4,)
    with pytest.raises(ConfigError):
        _parse_seeds("a")
    with pytest.raises(ConfigError):
        _parse_seeds(",")
    assert _parse_horizon("short") == 20_000
    assert _parse_horizon("123") == 123


def test_cli_log_level(monkeypatch):
    monkeypatch.setenv("LAYERQ_LOG", "debug")
    _setup_logging()
    assert logging.getLogger("layerq").level == logging.DEBUG
    monkeypatch.setenv("LAYERQ_LOG", "not-a-level")
    _setup_logging()
    assert logging.getLogger("layerq").level == logging.WARNING
