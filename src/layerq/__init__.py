"""Desk-scale simulator and learning toolkit for a cross-layer multimedia
system: a video encoder with a pre-encoding buffer on top of a DVFS-capable
processor, controlled by centralized, layered, or accelerated Q-learning
against a value-iteration oracle."""

__version__ = "0.1.0"

from .mdp import (
    ActionSpace,
    FactoredModel,
    LazyTable,
    LearningSchedule,
    ModelError,
    NumericalError,
    StateSpace,
    TransitionModel,
    epsilon_greedy,
    q_update,
    stationary_distribution,
    value_iteration,
)
from .system import (
    EmpiricalDynamics,
    Simulator,
    SystemConfig,
    assemble_factored_model,
    assemble_transition_model,
    buffer_step,
    utility_gain,
)
from .traces import (
    CoverageError,
    GeneratorParams,
    ReplaySource,
    StationarySource,
    TraceColumns,
    TraceError,
    TraceSample,
    TripleDistribution,
    UnknownLabelError,
    default_generator_params,
    empirical_arrival_distribution,
    load_csv,
    save_csv,
    synth_columns,
    synth_stationary,
)
from .learners import (
    CENTRALIZED_MESSAGES,
    LAYERED_MESSAGES,
    BestResponseLearner,
    CentralizedQLearner,
    EligibilityState,
    FixedPolicyController,
    GraceController,
    GraceState,
    LayeredQLearner,
    LayeredQTables,
    PolicyError,
    TdLambdaLearner,
    VirtualExperienceLearner,
    layered_update,
    td_lambda_step,
)
from .metrics import (
    RunStats,
    UndefinedStateError,
    error_curve,
    weighted_estimation_error,
)
from .experiments import (
    ALGORITHMS,
    HORIZON_PRESETS,
    ComparisonError,
    ConfigError,
    ExperimentConfig,
    LearnerSpec,
    OracleSpec,
    OutputSpec,
    RunSpec,
    SegmentSpec,
    TraceSpec,
    compare_experiments,
    compute_oracle,
    config_from_dict,
    config_to_dict,
    load_config,
    make_learner,
    make_source,
    resolve_horizon,
    run_experiment,
    run_oracle_command,
    run_single,
    save_config,
)
from .svgplot import line_chart
