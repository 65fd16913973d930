import csv
import logging
import tracemalloc

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
    error_curve,
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
from reference import joint_model, type_walk


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
    with pytest.raises(ConfigError, match=r"learner\.gamma: must be in \[0, 1\)"):
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
    assert isinstance(make_source(ns, rng), StationarySource)
    from layerq import save_csv

    trace = synth_stationary(
        default_generator_params(), ["P", "B", "I"] * 4, np.random.default_rng(1)
    )
    path = tmp_path / "trace.csv"
    save_csv(trace, path)
    cs = quick_cfg(trace={"kind": "csv", "path": str(path)})
    assert isinstance(make_source(cs, rng), ReplaySource)


def custom_label_trace(tmp_path, labels, n=600):
    """A csv trace of the default workload with I, P, B renamed to `labels`."""
    from layerq import TraceSample, save_csv

    rename = dict(zip("IPB", labels))
    drawn = synth_stationary(default_generator_params(), ["I", "P", "B"] * (n // 3), np.random.default_rng(2))
    path = tmp_path / "custom.csv"
    save_csv([TraceSample(s.index, rename[s.unit_type], s.bits, s.distortion, s.cycles) for s in drawn], path)
    return str(path)


def test_csv_trace_with_custom_unit_types(tmp_path, capsys):
    path = custom_label_trace(tmp_path, ("key", "pred", "bi"))
    system = {"unit_types": ["key", "pred", "bi"]}
    cfg = quick_cfg(system=system, trace={"kind": "csv", "path": path})
    source = make_source(cfg, np.random.default_rng(0))
    assert [source.draw(i).unit_type for i in range(3)] == ["key", "pred", "bi"]
    oracle = compute_oracle(cfg)
    assert oracle.dynamics.arrival_pmf.shape[1] == 3
    assert run_single(cfg, 3, oracle).stats.slots == 10
    # a label outside system.unit_types is a config error naming the file and line
    stray = quick_cfg(system={"unit_types": ["key", "pred", "other"]}, trace={"kind": "csv", "path": path})
    for call in (lambda: make_source(stray, np.random.default_rng(0)), lambda: compute_oracle(stray)):
        with pytest.raises(ConfigError, match=f"trace.path: {path}: line 4: unknown type label 'bi'"):
            call()
    cfg_path = write_yaml(tmp_path, "stray.yaml", quick_dict(**config_to_dict(stray)))
    assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert "config error: trace.path:" in capsys.readouterr().err


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
    with pytest.raises(ConfigError, match=r"learner\.epsilon: must be in \[0, 1\]"):
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


def counting_error_curve(monkeypatch) -> list:
    """Patch experiments.error_curve to record each result it returns."""
    curves = []

    def counting(*args):
        curves.append(error_curve(*args))
        return curves[-1]

    monkeypatch.setattr(experiments, "error_curve", counting)
    return curves


def test_run_experiment_with_oracle(tmp_path, monkeypatch, small_oracle):
    monkeypatch.setattr(experiments, "compute_oracle", lambda cfg: small_oracle)
    curves = counting_error_curve(monkeypatch)
    result = run_experiment(greedy_cfg(run={"seeds": [1, 2]}), str(tmp_path))
    names = sorted(p.split("/")[-1] for p in result.files)
    assert names == ["config.yaml", "error.svg", "reward.svg", "summary.csv"]
    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    row = rows[0]
    assert row["algorithm"] == "oracle-greedy"
    assert float(row["final_weighted_error"]) >= 0.0
    # one curve per run feeds both the summary column and error.svg
    assert len(curves) == 2
    assert [r["final_weighted_error"] for r in rows] == [repr(float(e[-1])) for _, e in curves]
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
    curves = counting_error_curve(monkeypatch)
    cfgs = [
        greedy_cfg(name="a", run={"horizon": 200, "seeds": [1]}),
        greedy_cfg(name="b", run={"horizon": 200, "seeds": [1]}),
    ]
    compare_experiments(cfgs, str(tmp_path))
    assert len(calls) == 1  # same gamma and oracle settings: solved once
    assert len(curves) == 2  # one error curve per run


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
    iteration on the joint tensor: same policy, Q* and V* to 1e-12, and the
    weights to 1e-12."""
    gamma = config_from_dict({}).learner.gamma
    joint = joint_model(default_oracle.model)
    q, policy, v = value_iteration(joint, gamma, tol=1e-8)
    assert np.array_equal(policy, default_oracle.policy)
    assert np.abs(q - default_oracle.q_star).max() <= 1e-12
    assert np.abs(v - default_oracle.values).max() <= 1e-12
    assert np.abs(stationary_distribution(joint, policy) - default_oracle.weights).max() <= 1e-12
    # and against the directly assembled dense model, up to its round-off
    dense = assemble_transition_model(config_from_dict({}).system, default_oracle.dynamics)
    assert np.abs(dense.p - joint.p).max() <= 1e-15
    assert np.abs(stationary_distribution(dense, policy) - default_oracle.weights).max() <= 1e-12


class ScriptedRng:
    """Serves a fixed stream of uniforms through successive random(k) calls,
    as a Generator does."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)
        self.used = 0

    def random(self, n):
        out = self.draws[self.used : self.used + n]
        assert len(out) == n, "asked for more draws than scripted"
        self.used += n
        return out


def test_type_walk_follows_simulator_rule(monkeypatch):
    system = SystemConfig()
    draws = np.random.default_rng(9).random(2000)
    expected = [0] * len(system.unit_types)
    z = 0
    for draw in draws:
        expected[z] += 1
        row = np.cumsum(system.type_transition[z])
        z = 0
        while z < len(row) - 1 and draw >= row[z]:
            z += 1
    for chunk in (experiments.TYPE_WALK_CHUNK, 7):  # one call, then 286
        monkeypatch.setattr(experiments, "TYPE_WALK_CHUNK", chunk)
        rng = ScriptedRng(draws)
        assert experiments._type_counts(system, len(draws), rng) == expected
        assert rng.used == len(draws)


def test_type_walk_clamps_to_last_type(monkeypatch):
    # a row that passes validation but sums to 1 - 5e-10
    system = SystemConfig(
        unit_types=("P", "B"), type_transition=((0.5, 0.4999999995), (0.5, 0.5))
    )
    monkeypatch.setattr(experiments, "TYPE_WALK_CHUNK", 2)
    counts = experiments._type_counts(system, 3, ScriptedRng([0.9999999999] * 3))
    assert counts == [1, 2]  # the walk P, B, B


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_type_counts_across_chunk_boundary(offset):
    """n just below, at and just above the chunk size: the chunked counts
    equal the bincount of the scalar walk over one rng.random(n), and both
    leave the generator at the same point of its stream."""
    system = SystemConfig()
    chunk = experiments.TYPE_WALK_CHUNK
    n = chunk + offset
    rng_counts, rng_walk = np.random.default_rng(31), np.random.default_rng(31)
    counts = experiments._type_counts(system, n, rng_counts)
    walk = type_walk(system, n, rng_walk)
    assert counts == np.bincount(walk, minlength=len(system.unit_types)).tolist()
    assert rng_counts.random() == rng_walk.random()


def test_oracle_estimation_peak_memory():
    """The estimation is streamed: the traced allocation peak of the default
    oracle stays under 10 MB (holding the whole type walk and estimation
    trace peaked at 15.4 MB)."""
    cfg = config_from_dict({})
    tracemalloc.start()
    try:
        compute_oracle(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, f"compute_oracle peaked at {peak / 1e6:.1f} MB"


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
    with pytest.raises(ConfigError, match=rf"system\.{field}(\[\d\])?: must be"):
        config_from_dict({"system": {field: value}})


def test_integral_float_capacity_is_accepted():
    cfg = config_from_dict({"system": {"capacity": 40.0}})
    assert cfg.system.capacity == 40 and isinstance(cfg.system.capacity, int)


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan")])
def test_bad_alpha_exponent_is_config_error(value):
    with pytest.raises(ConfigError, match="learner.alpha_exponent: must be positive and finite"):
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
    assert "system.arrival_rate: must be positive and finite" in capsys.readouterr().err
    dup = write_yaml(tmp_path, "dup.yaml", quick_dict(run={"seeds": [1, 1]}))
    assert main(["run", dup, "--out", str(tmp_path / "out")]) == 1
    cfg_path = write_yaml(tmp_path, "a.yaml", quick_dict())
    assert main(["run", cfg_path, "--seeds", "2,2", "--out", str(tmp_path / "out")]) == 1
    assert "run.seeds: duplicate seed 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_ORACLE_SETTINGS = (
    ("vi_tol", float("nan")),
    ("stationary_tol", float("nan")),
    ("vi_tol", float("inf")),
    ("stationary_tol", -1e-9),
    ("vi_tol", "tiny"),
    ("estimation_units", 1000.5),
    ("estimation_units", 0),
    ("estimation_seed", -3),
    ("estimation_seed", 2.5),
    ("estimation_seed", True),
)


@pytest.mark.parametrize("field_name, value", BAD_ORACLE_SETTINGS)
def test_oracle_settings_fail_fast(field_name, value):
    """A NaN tolerance ran toward the iteration cap, an infinite one returned
    a one-backup solution, and bad estimation settings failed only inside
    compute_oracle; each is a config error naming the field."""
    with pytest.raises(ConfigError, match=f"oracle.{field_name}: must be"):
        config_from_dict({"oracle": {field_name: value}})


def test_oracle_integral_settings_accept_integral_floats():
    spec = config_from_dict({"oracle": {"estimation_units": 3000.0, "estimation_seed": 5.0}}).oracle
    assert (spec.estimation_units, spec.estimation_seed) == (3000, 5)
    assert type(spec.estimation_units) is int and type(spec.estimation_seed) is int


@pytest.mark.parametrize("value", [2.5, float("nan"), -1, True])
def test_bad_psi_is_config_error(value):
    """A fractional psi made td-lambda nudge every eligible pair, NaN ran
    virtual-et as psi=0, and 2.5 stopped virtual-et mid-run with a TypeError."""
    with pytest.raises(ConfigError, match="learner.psi: must be an integer >= 0"):
        config_from_dict({"learner": {"algorithm": "virtual-et", "psi": value}})


@pytest.mark.parametrize("value", [0, 2.5, float("nan")])
def test_bad_window_len_is_config_error(value):
    """0 raised IndexError and 2.5 TypeError mid-run in the grace controller."""
    with pytest.raises(ConfigError, match="learner.window_len: must be an integer >= 1"):
        config_from_dict({"learner": {"algorithm": "grace", "window_len": value}})


@pytest.mark.parametrize("value", [float("nan"), 1.0, -0.1])
def test_bad_smoothing_is_config_error(value):
    """A bad smoothing failed only when the grace controller was built, with
    a message that did not name the field."""
    with pytest.raises(ConfigError, match=r"learner.smoothing: must be in \[0, 1\)"):
        config_from_dict({"learner": {"algorithm": "grace", "smoothing": value}})


def test_learner_integral_fields_accept_integral_floats():
    spec = config_from_dict({"learner": {"psi": 4.0, "window_len": 16.0}}).learner
    assert (spec.psi, spec.window_len) == (4, 16)
    assert type(spec.psi) is int and type(spec.window_len) is int


@pytest.mark.parametrize("trace, message", [
    ({"bits_scale": float("nan")}, "trace.bits_scale: must be positive and finite"),
    ({"cycles_scale": float("inf")}, "trace.cycles_scale: must be positive and finite"),
    ({"kind": "nonstationary", "segments": [{"duration": 5, "distortion_scale": float("nan")}]},
     r"trace\.segments\[0\]\.distortion_scale: must be positive and finite"),
    ({"kind": "nonstationary", "segments": [{"duration": 5, "cycles_scale": float("inf")}]},
     r"trace\.segments\[0\]\.cycles_scale: must be positive and finite"),
    ({"kind": "nonstationary", "segments": [{"duration": 2.5}]},
     r"trace\.segments\[0\]\.duration: must be an integer >= 1"),
    ({"cycles_scale": 1e305}, r"trace\.cycles_scale: the scaled generator's means and sds must be finite"),
    ({"bits_scale": 1e308}, r"trace\.bits_scale: the scaled generator's means and sds must be finite"),
    ({"distortion_scale": 1e308}, r"trace\.distortion_scale: the scaled generator's means and sds must be finite"),
    ({"kind": "nonstationary", "bits_scale": 1e154, "segments": [{"duration": 5}, {"duration": 5, "bits_scale": 1e154}]},
     r"trace\.segments\[1\]\.bits_scale: the scaled generator's means and sds must be finite"),
    ({"cycles_scale": 100}, r"trace\.cycles_scale: 1782 mean arrivals per slot at the lowest frequency .* cap of 1000"),
    ({"kind": "nonstationary", "cycles_scale": 10, "segments": [{"duration": 5}, {"duration": 5, "cycles_scale": 10}]},
     r"trace\.segments\[1\]\.cycles_scale: 1782 mean arrivals per slot"),
], ids=[
    "bits_scale-nan", "cycles_scale-inf", "segments0-distortion_scale-nan", "segments0-cycles_scale-inf",
    "segments0-duration-2.5", "cycles_scale-1e305", "bits_scale-1e308", "distortion_scale-1e308",
    "segments1-bits_scale-1e154", "cycles_scale-100", "segments1-cycles_scale-10",
])
def test_bad_trace_numbers_are_config_errors(trace, message):
    """A NaN bits_scale gave a NaN mean reward with no error, and an infinite
    cycles_scale stopped the run with an OverflowError. So did finite scales
    that overflow the generator: a cycles_scale of 1e305 raised an
    OverflowError mid-run, and bits and distortion scales of 1e308 gave a NaN
    mean reward. Scales whose mean arrivals per slot pass the cap would grow
    the estimated pmf, one bin per count, without bound. All fail at load."""
    with pytest.raises(ConfigError, match=message):
        config_from_dict({"trace": trace})


def test_trace_scales_up_to_the_arrival_cap_are_accepted():
    heaviest = max(c.cycles_mean for row in default_generator_params().per_type.values() for c in row)
    system = SystemConfig()
    at_cap = experiments.MAX_MEAN_ARRIVALS / (heaviest / system.frequencies[0] * system.arrival_rate)
    assert config_from_dict({"trace": {"cycles_scale": at_cap * 0.999}}).trace.cycles_scale < at_cap
    with pytest.raises(ConfigError, match="trace.cycles_scale"):
        config_from_dict({"trace": {"cycles_scale": at_cap * 1.001}})
    # the arrivals scale with the arrival rate too
    with pytest.raises(ConfigError, match=r"trace\.cycles_scale: 1215 mean arrivals .* system\.arrival_rate 3000"):
        config_from_dict({"system": {"arrival_rate": 3000.0}})
    # a csv trace does not use the generator, so its scales are not checked against it
    csv_trace = {"kind": "csv", "path": "trace.csv", "cycles_scale": 100}
    assert config_from_dict({"system": {"arrival_rate": 3000.0}, "trace": csv_trace}).trace.kind == "csv"


@pytest.mark.parametrize(
    "field_name, value",
    [("vi_tol", float("inf")), ("estimation_units", 1000.5), ("estimation_seed", -3)],
)
def test_cli_oracle_settings_exit_1(tmp_path, capsys, field_name, value):
    cfg_path = write_yaml(
        tmp_path, "a.yaml", quick_dict(oracle={"enabled": True, "estimation_units": 2000, field_name: value})
    )
    assert main(["oracle", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: oracle.{field_name}: must be" in capsys.readouterr().err
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


def test_cli_non_finite_q_exits_2(tmp_path, capsys, monkeypatch):
    def poisoned_update(self, s, a, s_next, sim):
        self.q[s, a] = np.nan
        return 0.0

    monkeypatch.setattr(CentralizedQLearner, "_update", poisoned_update)
    cfg_path = write_yaml(tmp_path, "a.yaml", quick_dict())
    assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "error: slot 5: state" in capsys.readouterr().err


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
