"""The names perfbench's tracer patches must exist where it looks them up.

`perfbench/tracing.py` wraps package functions and methods by name, reading
each original as `owner.__dict__[attr]`. A refactor that renames or moves one
of them would make `perfbench/run.py --trace 1` fail with a KeyError; this
test makes it fail here first. The tracer is loaded from its file, read-only.
"""

import importlib.util
from pathlib import Path

import layerq
import layerq.cli  # noqa: F401  (the tracer patches cli.main too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_targets_exist():
    tracing = load_tracing()
    missing = []
    for module, attr, _ in tracing.FUNCTION_SPANS:
        if attr not in vars(getattr(layerq, module)):
            missing.append(f"{module}.{attr}")
    for module, cls_name, attr, _ in tracing.METHOD_SPANS + tracing.COUNTED:
        if attr not in vars(getattr(getattr(layerq, module), cls_name)):
            missing.append(f"{module}.{cls_name}.{attr}")
    for attr in ("assemble_transition_model", "make_learner", "run_single"):
        if attr not in vars(layerq.experiments):
            missing.append(f"experiments.{attr}")
    assert missing == []


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    originals = {
        (module, attr): vars(getattr(layerq, module))[attr] for module, attr, _ in tracing.FUNCTION_SPANS
    }
    tracer = tracing.Tracer()
    try:
        tracer.install(layerq)
        assert layerq.learners.q_update is not originals[("learners", "q_update")]
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert vars(getattr(layerq, module))[attr] is fn
