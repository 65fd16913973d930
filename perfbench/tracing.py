"""Per-layer tracing from the benchmark's side of the calls.

`Tracer.install` replaces the public functions and methods of the layerq
modules with timing wrappers, in the namespaces their callers look them up in,
and `uninstall` puts the originals back. The program itself is not edited.
Each wrapped call records its self time (its duration minus the wrapped calls
it made); per-call samples are kept in memory and reduced to the per-layer
metrics when the traced run ends. The wrappers cost about a microsecond per
call, so per-slot figures from a traced run read high; `slots_per_s` of the
untraced run against `experiments.traced_slots_per_s` gives that overhead.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

ALGORITHMS = ("centralized", "layered", "virtual-et", "td-lambda", "grace", "oracle-greedy")

# (namespace module, attribute, span name). A function is patched where its
# caller looks it up, so `experiments.value_iteration` is the name that
# `compute_oracle` calls.
FUNCTION_SPANS = (
    ("cli", "main", "cli.main"),
    ("experiments", "compute_oracle", "experiments.compute_oracle"),
    ("experiments", "synth_stationary", "traces.synth_stationary"),
    ("experiments", "empirical_arrival_distribution", "traces.empirical_arrival_distribution"),
    ("experiments", "assemble_transition_model", "system.assemble_transition_model"),
    ("experiments", "value_iteration", "mdp.value_iteration"),
    ("experiments", "stationary_distribution", "mdp.stationary_distribution"),
    ("experiments", "run_single", "experiments.run_single"),
    ("experiments", "error_curve", "metrics.error_curve"),
    ("experiments", "write_slots_csv", "experiments.write_slots_csv"),
    ("experiments", "write_oracle_csv", "experiments.write_oracle_csv"),
    ("experiments", "line_chart", "svgplot.line_chart"),
    ("learners", "q_update", "mdp.q_update"),
    ("learners", "epsilon_greedy", "mdp.epsilon_greedy"),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("system", "Simulator", "slot", "system.slot"),
    ("traces", "StationarySource", "draw", "traces.draw"),
    ("metrics", "RunStats", "log_slot", "metrics.log_slot"),
    ("metrics", "RunStats", "maybe_checkpoint", "metrics.maybe_checkpoint"),
    ("learners", "CentralizedQLearner", "step", "learners.step"),
    ("learners", "LayeredQLearner", "step", "learners.step"),
    ("learners", "GraceController", "step", "learners.step"),
    ("learners", "FixedPolicyController", "step", "learners.step"),
)
# Counted, not timed: a call every backup, too cheap to time.
COUNTED = (("mdp", "LearningSchedule", "alpha_at", "mdp.alpha_at"),)

STEP_LABELS = {
    "CentralizedQLearner": "centralized",
    "LayeredQLearner": "layered",
    "VirtualExperienceLearner": "virtual-et",
    "TdLambdaLearner": "td-lambda",
    "GraceController": "grace",
    "FixedPolicyController": "oracle-greedy",
}


class Tracer:
    """Wraps layerq's public functions in timers and reduces them to per-layer metrics."""

    def __init__(self):
        self.self_times: dict[str, array] = {}
        self.total_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.model_bytes = 0
        self.table_sizes: dict[str, int] = {}
        self.runs: dict[tuple[str, int], object] = {}
        self._child = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def _record(self, name: str, self_time: float, duration: float) -> None:
        samples = self.self_times.get(name)
        if samples is None:
            samples = self.self_times[name] = array("d")
            self.total_time[name] = 0.0
        samples.append(self_time)
        self.total_time[name] += duration

    def _span(self, name, fn, label_of=None):
        child = self._child
        record = self._record
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                inner = child.pop()
                child[-1] += duration
                span = name if label_of is None else f"{name}.{label_of(args[0])}"
                record(span, duration - inner, duration)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, layerq) -> None:
        for module, attr, name in FUNCTION_SPANS:
            ns = getattr(layerq, module)
            self._patch(ns, attr, self._span(name, getattr(ns, attr)))
        for module, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(getattr(layerq, module), cls_name)
            label = (lambda obj: STEP_LABELS[type(obj).__name__]) if attr == "step" else None
            self._patch(cls, attr, self._span(name, cls.__dict__[attr], label))
        for module, cls_name, attr, name in COUNTED:
            cls = getattr(getattr(layerq, module), cls_name)
            self._patch(cls, attr, self._counter(name, cls.__dict__[attr]))
        # Note the sizes of the models and tables, and keep the runs for the checks.
        experiments = layerq.experiments
        assemble = experiments.assemble_transition_model
        make_learner = experiments.make_learner
        run_single = experiments.run_single

        def keep_model(*args, **kwargs):
            model = assemble(*args, **kwargs)
            self.model_bytes = max(self.model_bytes, model.p.nbytes + model.r.nbytes)
            return model

        def keep_learner(*args, **kwargs):
            learner = make_learner(*args, **kwargs)
            self.table_sizes[STEP_LABELS[type(learner).__name__]] = table_bytes(learner)
            return learner

        def keep_run(cfg, seed, *args, **kwargs):
            result = run_single(cfg, seed, *args, **kwargs)
            self.runs[(cfg.label, seed)] = result
            return result

        self._patch(experiments, "assemble_transition_model", keep_model)
        self._patch(experiments, "make_learner", keep_learner)
        self._patch(experiments, "run_single", keep_run)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def calls(self, name: str) -> int:
        samples = self.self_times.get(name)
        return len(samples) if samples is not None else 0

    def self_sum(self, name: str) -> float:
        samples = self.self_times.get(name)
        return float(np.sum(samples)) if samples is not None else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        Per-call times are medians over the calls; a `_p99_us` companion is
        given where at least ten calls lie beyond the 99th percentile and
        reads 0 elsewhere. A layer the workload never calls reads 0.
        """
        out: dict[str, tuple[float, str]] = {}

        def per_call(metric, span, unit="us", tail=False):
            samples = self.self_times.get(span)
            scale = 1e6 if unit == "us" else 1.0
            value = p99 = 0.0
            if samples:
                data = np.frombuffer(samples, dtype=np.float64)
                value = float(np.median(data)) * scale
                if len(data) >= 1000:
                    p99 = float(np.percentile(data, 99)) * scale
            out[metric] = (value, unit)
            if tail:
                out[metric[: -len(unit) - 1] + f"_p99_{unit}"] = (p99, unit)

        per_call("traces.synth_stationary_s", "traces.synth_stationary", "s")
        per_call("traces.empirical_arrival_distribution_s", "traces.empirical_arrival_distribution", "s")
        per_call("experiments.compute_oracle_self_s", "experiments.compute_oracle", "s")
        per_call("system.assemble_transition_model_s", "system.assemble_transition_model", "s")
        out["system.model_mb"] = (self.model_bytes / 1e6, "MB")
        per_call("mdp.value_iteration_s", "mdp.value_iteration", "s")
        per_call("mdp.stationary_distribution_s", "mdp.stationary_distribution", "s")
        per_call("traces.draw_us", "traces.draw", tail=True)
        per_call("system.slot_self_us", "system.slot", tail=True)
        slots = self.calls("system.slot")
        out["system.slot_calls"] = (float(slots), "count")
        for alg in ALGORITHMS:
            per_call(f"learners.{alg}.step_self_us", f"learners.step.{alg}", tail=True)
            out[f"learners.{alg}.table_mb"] = (self.table_sizes.get(alg, 0) / 1e6, "MB")
        per_call("mdp.q_update_us", "mdp.q_update", tail=True)
        per_call("mdp.epsilon_greedy_us", "mdp.epsilon_greedy", tail=True)
        out["mdp.q_update_calls_per_slot"] = (self.calls("mdp.q_update") / max(slots, 1), "count")
        out["mdp.alpha_at_calls_per_slot"] = (self.counts.get("mdp.alpha_at", 0) / max(slots, 1), "count")
        per_call("metrics.log_slot_us", "metrics.log_slot", tail=True)
        per_call("metrics.maybe_checkpoint_us", "metrics.maybe_checkpoint", tail=True)
        per_call("metrics.error_curve_s", "metrics.error_curve", "s")
        run_self = self.self_sum("experiments.run_single")
        out["experiments.run_single_self_us_per_slot"] = (run_self / max(slots, 1) * 1e6, "us")
        run_total = self.total_time.get("experiments.run_single", 0.0)
        out["experiments.traced_slots_per_s"] = (slots / run_total if run_total else 0.0, "slots/s")
        per_call("experiments.write_slots_csv_s", "experiments.write_slots_csv", "s")
        per_call("experiments.write_oracle_csv_s", "experiments.write_oracle_csv", "s")
        per_call("svgplot.line_chart_s", "svgplot.line_chart", "s")
        per_call("cli.main_self_s", "cli.main", "s")
        return out


def table_bytes(learner) -> int:
    """Bytes of the numpy arrays a learner holds, from their shapes."""
    total = 0
    for value in vars(learner).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "__dataclass_fields__"):
            total += sum(v.nbytes for v in vars(value).values() if isinstance(v, np.ndarray))
    return total
