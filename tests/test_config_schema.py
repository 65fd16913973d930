"""The config schema: one rule per field, checked at load, and the echo it leaves.

Every field of every config dataclass carries a `Rule` (the learner's schedule
fields carry theirs on `LearningSchedule`), so bad input fails at load with a
`ConfigError` naming `section.field`, and a valid config echoes unchanged.
"""

import dataclasses
import io
import re
from pathlib import Path

import pytest
import yaml

from layerq import (
    ConfigError,
    ExperimentConfig,
    LearnerSpec,
    LearningSchedule,
    config_from_dict,
    config_to_dict,
)
from layerq.mdp import Rule

README = Path(__file__).resolve().parents[1] / "README.md"

NONSTATIONARY = {"kind": "nonstationary", "segments": [{"duration": 5}, {"duration": 5}]}


def with_segment(**scales) -> dict:
    return {**NONSTATIONARY, "segments": [{"duration": 5}, {"duration": 5, **scales}]}


@pytest.mark.parametrize("data, field", [
    ({"run": {"seeds": "12"}}, "run.seeds"),
    ({"run": {"seeds": [1.5]}}, "run.seeds"),
    ({"run": {"seeds": [-1]}}, "run.seeds"),
    ({"run": {"horizon": 2.5}}, "run.horizon"),
    ({"run": {"horizon": True}}, "run.horizon"),
    ({"run": {"checkpoint_interval": float("nan")}}, "run.checkpoint_interval"),
    ({"run": {"checkpoint_interval": 2.5}}, "run.checkpoint_interval"),
    ({"oracle": {"enabled": "false"}}, "oracle.enabled"),
    ({"outputs": {"per_slot": "no"}}, "outputs.per_slot"),
    ({"system": {"switch_prob": True}}, "system.switch_prob"),
    ({"system": {"arrival_rate": 10**400}}, "system.arrival_rate"),
    ({"system": {"capacity": True}}, "system.capacity"),
    ({"system": {"unit_types": ["P", "P", "I"]}}, "system.unit_types"),
    ({"system": {"unit_types": [1, 2, 3]}}, "system.unit_types"),
    ({"system": {"configs": ["h1", "h1", "h2"]}}, "system.configs"),
    ({"outputs": {"dir": 5}}, "outputs.dir"),
    ({"trace": {"path": 5}}, "trace.path"),
    ({"learner": {"alpha_exponent": float("inf")}}, "learner.alpha_exponent"),
    ({"learner": {"epsilon": "x"}}, "learner.epsilon"),
    # the run's summed rate-distortion cost would overflow a float
    ({"trace": {"distortion_scale": 1e306}}, "trace.distortion_scale"),
    ({"trace": with_segment(bits_scale=1e305)}, "trace.segments[1].bits_scale"),
    # the oracle's buffer factors would take 9 GB
    ({"system": {"capacity": 5000}}, "system.capacity"),
    # the power table overflows a float mid-run, or the reward sums to -inf
    ({"system": {"frequencies": [1e200, 2e200]}}, "system.frequencies"),
    ({"system": {"power_exp": 1e6}}, "system.power_exp"),
    ({"system": {"power_weight": 1e308}}, "system.power_weight"),
])
def test_bad_fields_fail_at_load_naming_the_field(data, field):
    """Each of these loaded, or failed without naming the field, before the
    fields had rules: a fractional, negative or string seed list ran the wrong
    seeds or failed mid-run, a quoted "false" counted as true, labels repeated
    or were not strings, an integer too large for a float raised an
    OverflowError, and without the three bounds a run summed its reward to
    -inf, the power table overflowed mid-run or the oracle asked for 9 GB."""
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}(\[\d+\])*: "):
        config_from_dict(data)


def test_reward_bound_runs_after_a_horizon_override():
    cfg = config_from_dict({"trace": {"distortion_scale": 1e300}, "run": {"horizon": 100}})
    with pytest.raises(ConfigError, match=r"^trace\.distortion_scale: "):
        dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, horizon=10**9))


def test_model_size_bound_only_applies_with_the_oracle():
    cfg = config_from_dict({"system": {"capacity": 5000}, "oracle": {"enabled": False}})
    assert cfg.system.capacity == 5000


def echo(data: dict) -> str:
    buf = io.StringIO()
    yaml.safe_dump(config_to_dict(config_from_dict(data)), buf, sort_keys=False)
    return buf.getvalue()


DEFAULT_ECHO = """\
name: ''
system:
  frequencies:
  - 200000000.0
  - 400000000.0
  - 600000000.0
  - 800000000.0
  - 1000000000.0
  switch_prob: 0.9
  power_coeff: 1.5e-27
  power_exp: 3.0
  capacity: 50
  arrival_rate: 44.0
  initial_occupancy: 0
  power_weight: 0.176
  rd_weight: 0.011733333333333333
  rd_lambda: 0.0625
  unit_types:
  - P
  - B
  - I
  configs:
  - h1
  - h2
  - h3
  type_transition:
  - - 0.0
    - 1.0
    - 0.0
  - - 0.375
    - 0.5
    - 0.125
  - - 0.0
    - 1.0
    - 0.0
  gain_mode: proposed
trace:
  kind: synthetic
  path: null
  cycles_scale: 1.0
  bits_scale: 1.0
  distortion_scale: 1.0
  segments: []
learner:
  algorithm: centralized
  gamma: 0.9
  epsilon: 0.1
  epsilon_rule: constant
  alpha_rule: visit-decay
  alpha: 0.1
  alpha_exponent: 0.6
  psi: 15
  lam: 0.8
  window_len: 32
  smoothing: 0.9
run:
  horizon: 20000
  seeds:
  - 1
  - 2
  - 3
  - 4
  - 5
  checkpoint_interval: 500
oracle:
  enabled: true
  vi_tol: 1.0e-08
  stationary_tol: 1.0e-10
  estimation_units: 120000
  estimation_seed: 777
outputs:
  dir: out
  per_slot: true
"""


def test_config_echo_is_pinned():
    """Integral values of integer fields become ints; reals are echoed as
    given, so switch_prob: 1 stays 1."""
    assert echo({}) == DEFAULT_ECHO
    integral = {"system": {"capacity": 40.0, "switch_prob": 1}, "learner": {"psi": 4.0}}
    expected = (
        DEFAULT_ECHO.replace("  switch_prob: 0.9\n", "  switch_prob: 1\n")
        .replace("  capacity: 50\n", "  capacity: 40\n")
        .replace("  psi: 15\n", "  psi: 4\n")
    )
    assert echo(integral) == expected


def config_classes() -> list[type]:
    """ExperimentConfig, LearningSchedule and every class their rules reach."""
    found, todo = [], [ExperimentConfig, LearningSchedule]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            rules = [f.metadata.get("rule") for f in dataclasses.fields(cls)]
            todo += [r.kind for r in rules if r is not None and dataclasses.is_dataclass(r.kind)]
    return found


def test_every_config_field_has_a_rule():
    """A field added without a rule fails here, so no check drifts back into
    per-class code. LearnerSpec's schedule fields are LearningSchedule's."""
    classes = config_classes()
    assert sorted(c.__name__ for c in classes) == [
        "ExperimentConfig", "LearnerSpec", "LearningSchedule", "OracleSpec", "OutputSpec",
        "RunSpec", "SegmentSpec", "SystemConfig", "TraceSpec",
    ]
    schedule = {f.name: f for f in dataclasses.fields(LearningSchedule)}
    for cls in classes:
        for f in dataclasses.fields(cls):
            if cls is LearnerSpec and f.name in schedule:
                assert "rule" not in f.metadata and f.default == schedule[f.name].default
            else:
                assert isinstance(f.metadata.get("rule"), Rule), f"{cls.__name__}.{f.name} has no rule"


def readme_config() -> dict:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Experiment configs\n.*?```yaml\n(.*?)```", text, re.DOTALL)
    return yaml.safe_load(block.group(1))


def test_readme_config_block_lists_every_field_at_its_default():
    data = readme_config()
    defaults = config_to_dict(config_from_dict({}))
    assert list(data) == list(defaults)
    for section, fields in defaults.items():
        if isinstance(fields, dict):
            assert list(data[section]) == list(fields), section
    assert config_to_dict(config_from_dict(data)) == defaults
