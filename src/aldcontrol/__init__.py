"""Adaptive ensemble control for linear plants with skewed Laplace measurement noise.

The package provides the noise models, the iterative quantile filter and RLS
estimators, certainty-equivalence and Bayesian-ensemble control laws, and a
seeded closed-loop simulation harness with CSV export and a CLI.
"""

from .config import (
    FEEDBACK_KINDS,
    PRESETS,
    ConfigError,
    RunConfig,
    config_from_dict,
    load_config,
    parse_controller,
    preset_config,
)
from .controller import (
    DEFAULT_EPS_B,
    DEFAULT_U_MAX,
    POSTERIOR_FLOOR,
    bind_ce_law,
    bind_ensemble_law,
    bind_log_likelihood,
    bind_posterior,
)
from .estimator import RLS_RULE, batch_weighted_ls, bind_filter, quantile_rule
from .harness import (
    EpisodeTrace,
    McSummary,
    accumulated_error,
    compare_controllers,
    export_summary_csv,
    export_trace_csv,
    max_tracking_error,
    monte_carlo,
    read_summary_csv,
    read_trace_csv,
    run_episode,
)
from .noise import (
    AldParams,
    GaussianParams,
    MixtureComponent,
    NoiseModel,
    ald_mean,
    ald_pdf,
    ald_sample,
    gaussian_pdf,
    gaussian_sample,
    mixture_pdf,
    mixture_sample,
    pinball_loss,
)
from .plant import (
    TRAJECTORY_KINDS,
    ArxParams,
    TrajectorySpec,
    bind_plant,
    parameter_vector,
    reference_trajectory,
)

__version__ = "0.1.0"
